//! The byte path's allocation ratchet (ROADMAP item 2): one 100 000 B
//! reply down `reply_path.rs`'s path, every frame delivered in order.
//!
//! The pins are upper bounds and move down only, like
//! `stack::tests::socket_size_is_pinned`: a change that allocates less
//! lowers them in the same PR; one that allocates more has to say why.

#[path = "counting_alloc.rs"]
mod counting_alloc;
#[path = "reply_path.rs"]
mod reply_path;
use reply_path::{count_reply, REPLY};

/// Allocations and bytes per 100 000 B reply, step by step as the path
/// got leaner: 853 allocations / 1 240 006 B → 369 / 627 878 B → 266 /
/// 619 426 B → 175 / 617 720 B → 169 / 617 528 B → 111 / 616 224 B →
/// 101 / 516 944 B (the counts repeat to the byte, debug and release). The
/// third step is the per-segment event lists, the TSO cut's and
/// `host_tx`'s lists and the client's segment buffer; the fourth is one
/// block per frame, built in place, where a frame was a `Vec` and an `Rc`;
/// the fifth is the timer wheel's slot vectors, which an emptied slot
/// freed and the next timer there allocated again; the sixth is one block
/// per TSO cut, every wire segment a window of it, where each segment was
/// a block of its own; the last is each cut spread in place, in its
/// frame's own block, built with room for the headers the cut adds.
///
/// Where the rest goes: the send and receive rings each double their way
/// to 64 KiB (2 × 112 KiB); `poll_wire` and `send_ip` each build a segment
/// in one exact-size buffer (2 × the reply, in one block per super-segment
/// at each step; the second one a few headers longer, the room the cut
/// spreads into). Going lower needs the pinned `poll_wire` / `send_ip`
/// shapes re-pinned to a headroom buffer (ROADMAP item C).
#[test]
fn allocations_per_reply_are_pinned() {
    const MAX_ALLOCS: u64 = 101;
    const MAX_BYTES: u64 = 516_944;

    let (allocs, bytes, p) = count_reply(false);
    println!("byte path: {allocs} allocations, {bytes} B per {REPLY} B reply");
    assert!(
        allocs <= MAX_ALLOCS && bytes <= MAX_BYTES,
        "the byte path allocates more than pinned: {allocs} allocations (pin {MAX_ALLOCS}), \
         {bytes} B (pin {MAX_BYTES})"
    );
    assert!(
        p.nic.stats.tso_splits > 0,
        "the reply left as TSO super-segments"
    );
}
