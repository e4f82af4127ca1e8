//! Hierarchical timer wheel — amortized O(1) timer management for
//! million-connection stacks.
//!
//! The previous design kept one `BinaryHeap` entry per (deadline, socket)
//! arm with lazy validation: every re-arm pushed a new heap node, so a
//! busy socket accumulated stale entries and every pop paid O(log n) on a
//! heap whose size tracked *timer churn*, not live timers. At 10⁵–10⁶
//! connections (each with RTO + delayed-ACK + keepalive + TIME_WAIT
//! deadlines) that heap becomes the stack's dominant cost.
//!
//! This is the classic hashed hierarchical wheel (Varghese & Lauck, and
//! the shape Linux/tokio use), tuned for the simulator's nanosecond
//! clock:
//!
//! * **11 levels x 64 slots.** Level `L` slots span `64^L` ns, so level 0
//!   is exactly nanosecond-resolution and 11 levels (66 bits) cover the
//!   entire `u64` simulated-time range — no overflow list.
//! * **O(1) schedule and cancel.** Each key holds at most one timer; a
//!   slot is a `Vec` of keys with back-pointer fixup on `swap_remove`, so
//!   cancellation (the *common* case: an RTO that is re-armed on every
//!   ACK) never leaves stale entries behind.
//! * **Cascade on demand.** [`TimerWheel::advance`] jumps straight to the
//!   next occupied slot (no per-tick iteration), firing entries that are
//!   due and re-hashing the rest one level down. A timer parked at level
//!   `L` costs at most `L` re-hashes over its whole life.
//! * **Deterministic firing order.** Expired entries are released sorted
//!   by `(deadline, arm sequence)` — exactly the order a naive sorted
//!   list would produce — so fixed-seed runs are bit-identical (the
//!   property tests in `proptests.rs` check equivalence against that
//!   model, including cancellation and cascades).
//!
//! [`TimerWheel::next_event`] returns the next instant the wheel needs
//! driving. For a level-0 timer that is its exact deadline; for a coarser
//! level it is the *slot boundary* where the entry will cascade, i.e. a
//! lower bound. Callers that sleep until `next_event` and then call
//! `advance` converge on the exact deadline in at most 10 hops (every
//! driver in this workspace already re-arms after firing).

use neat_util::FxHashMap;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 11; // 11 * 6 = 66 bits >= u64

/// One wheel slot: the keys parked in it plus the smallest slot-window id
/// (`deadline >> shift`) seen among them. The minimum may go stale-low
/// after a cancel; `advance` recomputes it when the window turns out to
/// be empty, so it is always a valid *lower bound*.
#[derive(Debug, Default, Clone)]
struct Slot {
    keys: Vec<u64>,
    min_win: u64,
}

#[derive(Debug, Clone, Copy)]
struct Meta {
    deadline: u64,
    /// Monotonic arm sequence — tiebreak for deterministic firing order.
    seq: u64,
    level: u8,
    slot: u8,
    /// Index into the slot's key vec.
    pos: u32,
}

/// The wheel. Keys are caller-chosen `u64`s (socket ids); each key holds
/// at most one armed deadline.
#[derive(Debug)]
pub struct TimerWheel {
    /// The wheel's notion of "now": advanced monotonically by `advance`.
    now: u64,
    levels: Vec<Vec<Slot>>,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    meta: FxHashMap<u64, Meta>,
    seq: u64,
    /// `advance`'s due entries, `(deadline, arm sequence, key)`, while it
    /// sorts them; empty between calls.
    due: Vec<(u64, u64, u64)>,
}

impl TimerWheel {
    /// A wheel whose time starts at `start` (timers may still be armed in
    /// the past; they fire on the next `advance`).
    pub fn new(start: u64) -> TimerWheel {
        TimerWheel {
            now: start,
            levels: vec![vec![Slot::default(); SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            meta: FxHashMap::default(),
            seq: 0,
            due: Vec::new(),
        }
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// The armed deadline for `key`, if any.
    pub fn deadline_of(&self, key: u64) -> Option<u64> {
        self.meta.get(&key).map(|m| m.deadline)
    }

    /// The level a delta-to-deadline hashes to: the highest set 6-bit
    /// group, so level `L` holds deltas in `[64^L, 64^(L+1))`.
    #[inline]
    fn level_for(delta: u64) -> usize {
        if delta < SLOTS as u64 {
            0
        } else {
            ((63 - delta.leading_zeros()) / SLOT_BITS) as usize
        }
    }

    /// Place `key` (whose meta exists with deadline/seq set) into the
    /// wheel relative to `self.now`, updating level/slot/pos.
    fn place(&mut self, key: u64) {
        let m = self.meta[&key];
        let delta = m.deadline.saturating_sub(self.now);
        let level = Self::level_for(delta);
        let shift = SLOT_BITS * level as u32;
        let win = m.deadline >> shift;
        let slot = (win & (SLOTS as u64 - 1)) as usize;
        let s = &mut self.levels[level][slot];
        if s.keys.is_empty() || win < s.min_win {
            s.min_win = win;
        }
        let pos = s.keys.len() as u32;
        s.keys.push(key);
        self.occupied[level] |= 1 << slot;
        let m = self.meta.get_mut(&key).unwrap();
        m.level = level as u8;
        m.slot = slot as u8;
        m.pos = pos;
    }

    /// Arm (or re-arm, replacing any previous deadline) a timer for
    /// `key` at absolute time `deadline`.
    pub fn schedule(&mut self, key: u64, deadline: u64) {
        self.cancel(key);
        let seq = self.seq;
        self.seq += 1;
        self.meta.insert(
            key,
            Meta {
                deadline,
                seq,
                level: 0,
                slot: 0,
                pos: 0,
            },
        );
        self.place(key);
    }

    /// Disarm `key`'s timer. Returns the deadline it held, if any. O(1).
    pub fn cancel(&mut self, key: u64) -> Option<u64> {
        let m = self.meta.remove(&key)?;
        let s = &mut self.levels[m.level as usize][m.slot as usize];
        s.keys.swap_remove(m.pos as usize);
        if let Some(&moved) = s.keys.get(m.pos as usize) {
            self.meta.get_mut(&moved).unwrap().pos = m.pos;
        }
        if s.keys.is_empty() {
            self.occupied[m.level as usize] &= !(1 << m.slot);
        }
        Some(m.deadline)
    }

    /// The earliest occupied slot boundary: `(window_start, level, slot)`.
    fn earliest_slot(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for (level, &bits) in self.occupied.iter().enumerate() {
            let shift = SLOT_BITS * level as u32;
            let mut b = bits;
            while b != 0 {
                let slot = b.trailing_zeros() as usize;
                b &= b - 1;
                let start = self.levels[level][slot].min_win << shift;
                if best.map(|(t, _, _)| start < t).unwrap_or(true) {
                    best = Some((start, level, slot));
                }
            }
        }
        best
    }

    /// Next instant the wheel needs driving: the earliest deadline for
    /// level-0 entries, or the cascade boundary for coarser ones (a lower
    /// bound on the earliest deadline). `None` when nothing is armed.
    pub fn next_event(&self) -> Option<u64> {
        self.earliest_slot().map(|(t, _, _)| t)
    }

    /// Advance wheel time to `now`, cascading coarse slots and appending
    /// to `fired` every key whose deadline is `<= now`, ordered by
    /// `(deadline, arm sequence)`. Fired keys are disarmed.
    pub fn advance(&mut self, now: u64, fired: &mut Vec<u64>) {
        while let Some((start, level, slot)) = self.earliest_slot() {
            if start > now {
                break;
            }
            self.now = self.now.max(start);
            let shift = SLOT_BITS * level as u32;
            let win = start >> shift;
            // The slot's vector is thinned in place and goes back if anything
            // stays parked. An emptied slot frees it: 704 slots a wheel, each
            // holding on to its storage, read +3.6 % `peak_live_mb` @ `http_rr`.
            let mut keys = std::mem::take(&mut self.levels[level][slot].keys);
            self.occupied[level] &= !(1 << slot);
            let mut kept = 0u32;
            let mut kept_min = u64::MAX;
            keys.retain(|&key| {
                let m = self.meta.get_mut(&key).unwrap();
                if m.deadline >> shift != win {
                    // A later rotation of this slot (or a stale min after
                    // cancels): keep it parked and recompute the minimum.
                    kept_min = kept_min.min(m.deadline >> shift);
                    m.pos = kept;
                    kept += 1;
                    return true;
                }
                if m.deadline <= now {
                    // Due: release it (cascading through intermediate
                    // levels would be wasted work).
                    self.due.push((m.deadline, m.seq, key));
                    self.meta.remove(&key);
                } else {
                    // In this window but later than `now` — re-hash one or
                    // more levels down relative to the window start we
                    // just reached: never back into this slot.
                    self.place(key);
                }
                false
            });
            if kept > 0 {
                let s = &mut self.levels[level][slot];
                debug_assert!(s.keys.is_empty(), "a cascade lands below its level");
                s.keys = keys;
                s.min_win = kept_min;
                self.occupied[level] |= 1 << slot;
            }
        }
        self.now = self.now.max(now);
        self.due
            .sort_unstable_by_key(|&(deadline, seq, _)| (deadline, seq));
        fired.extend(self.due.drain(..).map(|(_, _, k)| k));
    }
}

#[cfg(test)]
impl TimerWheel {
    /// [`TimerWheel::advance`] into a list of its own.
    pub(crate) fn fire(&mut self, now: u64) -> Vec<u64> {
        let mut fired = Vec::new();
        self.advance(now, &mut fired);
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new(0);
        w.schedule(1, 500);
        w.schedule(2, 100);
        w.schedule(3, 300);
        assert_eq!(w.len(), 3);
        assert_eq!(w.fire(1000), vec![2, 3, 1]);
        assert!(w.is_empty());
    }

    #[test]
    fn reschedule_replaces() {
        let mut w = TimerWheel::new(0);
        w.schedule(7, 1_000_000);
        w.schedule(7, 50); // re-arm earlier
        assert_eq!(w.len(), 1);
        assert_eq!(w.deadline_of(7), Some(50));
        assert_eq!(w.fire(100), vec![7]);
        assert_eq!(w.fire(2_000_000), Vec::<u64>::new());
    }

    #[test]
    fn cancel_disarms() {
        let mut w = TimerWheel::new(0);
        w.schedule(1, 10);
        w.schedule(2, 20);
        assert_eq!(w.cancel(1), Some(10));
        assert_eq!(w.cancel(1), None);
        assert_eq!(w.fire(100), vec![2]);
    }

    #[test]
    fn coarse_deadline_cascades_to_exact_fire() {
        let mut w = TimerWheel::new(0);
        // 10 s: parks at a high level; driving the wheel only at
        // next_event boundaries must still fire exactly once, not early.
        let deadline = 10_000_000_000u64;
        w.schedule(1, deadline);
        let mut fired_at = None;
        let mut hops = 0;
        while let Some(t) = w.next_event() {
            assert!(t <= deadline, "boundary {t} past deadline");
            let f = w.fire(t);
            hops += 1;
            assert!(hops < 32, "cascade must converge");
            if !f.is_empty() {
                assert_eq!(f, vec![1]);
                fired_at = Some(t);
                break;
            }
        }
        assert_eq!(fired_at, Some(deadline), "fires at the exact ns");
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let mut w = TimerWheel::new(5000);
        w.schedule(9, 100); // already due
        assert_eq!(w.next_event(), Some(100));
        assert_eq!(w.fire(5000), vec![9]);
    }

    #[test]
    fn same_deadline_fires_in_arm_order() {
        let mut w = TimerWheel::new(0);
        w.schedule(5, 777);
        w.schedule(3, 777);
        w.schedule(4, 777);
        assert_eq!(w.fire(777), vec![5, 3, 4]);
    }

    #[test]
    fn huge_horizon_covered() {
        let mut w = TimerWheel::new(0);
        w.schedule(1, u64::MAX - 1);
        assert_eq!(w.fire(u64::MAX - 2), Vec::<u64>::new());
        assert_eq!(w.fire(u64::MAX), vec![1]);
    }

    #[test]
    fn dense_load_smoke() {
        // 100k timers with mixed horizons schedule, cancel and fire
        // without losing or duplicating anything.
        let mut w = TimerWheel::new(0);
        for k in 0..100_000u64 {
            w.schedule(k, (k % 977) * 1_000_003 + 1);
        }
        for k in (0..100_000u64).step_by(3) {
            w.cancel(k);
        }
        let mut fired = w.fire(u64::MAX);
        assert_eq!(fired.len(), 100_000 - 33_334);
        fired.sort_unstable();
        fired.dedup();
        assert_eq!(fired.len(), 100_000 - 33_334, "no duplicates");
        assert!(w.is_empty());
    }
}
