//! The loss path's allocation ratchets: the receive side's reassembly and
//! the stack's timer wheel, counted by an allocator that sees this thread
//! only.
//!
//! The pins are upper bounds and move down only, like `byte_path.rs`'s.

#[path = "counting_alloc.rs"]
mod counting_alloc;
#[path = "reply_path.rs"]
mod reply_path;
use counting_alloc::COUNTS;
use neat_tcp::{TimerHandle, TimerWheel};
use reply_path::{count_reply, REPLY};
use std::cell::Cell;

/// Allocations and bytes per 100 000 B reply down `byte_path.rs`'s path
/// with the first frame of every flight held back and delivered after the
/// rest, so the client holds the flight out of order until its head
/// arrives. The tree that copied each held segment into a run of its own,
/// then sorted and rebuilt the run list per segment, counted 351
/// allocations / 981 572 B; with held bytes written into the receive ring
/// at their offset and only their ranges listed it is 167 / 613 976 B; with
/// one block per TSO cut, every wire segment a window of it, 109 /
/// 612 672 B, the byte path's figure less two (the counts repeat to the
/// byte).
#[test]
fn allocations_per_reordered_reply_are_pinned() {
    const MAX_ALLOCS: u64 = 109;
    const MAX_BYTES: u64 = 612_672;

    let (allocs, bytes, p) = count_reply(true);
    println!(
        "loss path: {allocs} allocations, {bytes} B per {REPLY} B reply, {} frames reordered",
        p.reordered
    );
    assert!(
        allocs <= MAX_ALLOCS && bytes <= MAX_BYTES,
        "the loss path allocates more than pinned: {allocs} allocations (pin {MAX_ALLOCS}), \
         {bytes} B (pin {MAX_BYTES})"
    );
    assert!(
        p.nic.stats.tso_splits > 0,
        "the reply left as TSO super-segments"
    );
    assert!(p.reordered >= 10, "the client held flights out of order");
}

/// A warm wheel allocates nothing: 10 000 keys re-armed, cancelled and
/// fired over and over, so slots empty and refill at every level and
/// entries freed by a cancel or a fire go to other keys, once the entry
/// array has grown to the armed count. With a `Vec` per slot, freed when
/// it emptied, the same 19 rounds counted 18 849 allocations.
#[test]
fn a_warm_wheel_allocates_nothing() {
    const KEYS: u64 = 10_000;
    let mut w = TimerWheel::new(0);
    // Each key's handle, as its owner keeps it.
    let mut at = vec![TimerHandle::NONE; KEYS as usize + 1];
    let mut fired = Vec::with_capacity(KEYS as usize);
    let mut now = 0u64;
    let mut round = |w: &mut TimerWheel, fired: &mut Vec<u64>, r: u64| {
        for k in 1..=KEYS {
            // Horizons from 1 ns to ~4 s: every level below 6 fills.
            let delta = 1 + (k * 7919 + r * 104_729) % (1 << (k % 33));
            w.schedule(&mut at[k as usize], k, now + delta);
        }
        for k in (1..=KEYS).filter(|k| (k + r).is_multiple_of(3)) {
            w.cancel(&mut at[k as usize], k);
        }
        now += 1 << 32;
        fired.clear();
        w.advance(now, fired);
        assert!(w.is_empty(), "everything left fired");
    };
    round(&mut w, &mut fired, 0);
    let before = COUNTS.with(Cell::get);
    for r in 1..20 {
        round(&mut w, &mut fired, r);
    }
    let after = COUNTS.with(Cell::get);
    let allocs = after.0 - before.0;
    println!("warm wheel: {allocs} allocations over 19 rounds of {KEYS} keys");
    assert_eq!(allocs, 0, "a warm wheel allocates");
}
