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
//!
//! **How `next_event` is answered.** The answer is the occupied slot with
//! the smallest `min_win << shift` (lowest level, then lowest slot, on
//! ties). Rather than walk every occupied slot of every level on each call
//! (and on each hop of `advance`), each level keeps its own minimum — the
//! occupied slot with the smallest `min_win`, lowest slot on ties — and the
//! answer is the smallest of those 11 values. The minimum is kept lazily:
//! `place` lowers it in O(1); a `cancel` that empties the minimum's slot,
//! and each slot `advance` consumes, only mark the level stale;
//! `earliest_slot` rescans the stale levels before it compares, so a level
//! is rescanned at most once per query however many cancels (one per ACK
//! that re-arms an RTO) emptied its minimum meanwhile. The answer is
//! exactly the full scan's, stale-low slot minima included, because it
//! sets when the engine's timer events fire:
//! `proptests::wheel_earliest_slot_matches_full_scan` holds the two equal
//! after every operation.

use neat_util::FxHashMap;
use std::cell::Cell;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 11; // 11 * 6 = 66 bits >= u64

/// A level's minimum `(min_win, slot)` when none of its slots is occupied;
/// above every real one, `min_win == u64::MAX` included.
const NO_SLOT: (u64, u8) = (u64::MAX, SLOTS as u8);

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
    /// Per level, `(min_win, slot)` of the occupied slot with the smallest
    /// `min_win`, lowest slot on ties ([`NO_SLOT`] if none) — valid unless
    /// the level's bit in `stale` is set. Cells, because `next_event` takes
    /// `&self` and brings stale levels up to date.
    level_min: [Cell<(u64, u8)>; LEVELS],
    stale: Cell<u16>,
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
            level_min: std::array::from_fn(|_| Cell::new(NO_SLOT)),
            stale: Cell::new(0),
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

    /// Place `key` with its `deadline` and `seq` in `m` into the wheel
    /// relative to `self.now`, and record it (level, slot, pos filled in).
    fn place(&mut self, key: u64, mut m: Meta) {
        let delta = m.deadline.saturating_sub(self.now);
        let level = Self::level_for(delta);
        let shift = SLOT_BITS * level as u32;
        let win = m.deadline >> shift;
        let slot = (win & (SLOTS as u64 - 1)) as usize;
        let s = &mut self.levels[level][slot];
        if s.keys.is_empty() || win < s.min_win {
            s.min_win = win;
        }
        // The slot's minimum only fell, or the slot just filled: the level's
        // minimum can only fall to it.
        let here = (s.min_win, slot as u8);
        if here < self.level_min[level].get() {
            self.level_min[level].set(here);
        }
        (m.level, m.slot, m.pos) = (level as u8, slot as u8, s.keys.len() as u32);
        s.keys.push(key);
        self.occupied[level] |= 1 << slot;
        self.meta.insert(key, m);
    }

    /// Arm (or re-arm, replacing any previous deadline) a timer for
    /// `key` at absolute time `deadline`.
    pub fn schedule(&mut self, key: u64, deadline: u64) {
        self.cancel(key);
        let seq = self.seq;
        self.seq += 1;
        let m = Meta {
            deadline,
            seq,
            level: 0,
            slot: 0,
            pos: 0,
        };
        self.place(key, m);
    }

    /// Disarm `key`'s timer. Returns the deadline it held, if any. O(1).
    pub fn cancel(&mut self, key: u64) -> Option<u64> {
        let m = self.meta.remove(&key)?;
        let level = m.level as usize;
        let s = &mut self.levels[level][m.slot as usize];
        s.keys.swap_remove(m.pos as usize);
        if let Some(moved) = s
            .keys
            .get(m.pos as usize)
            .and_then(|k| self.meta.get_mut(k))
        {
            moved.pos = m.pos;
        }
        if s.keys.is_empty() {
            self.occupied[level] &= !(1 << m.slot);
            // Another slot emptying leaves the level's minimum where it is.
            if self.level_min[level].get().1 == m.slot {
                self.mark_stale(level);
            }
        }
        Some(m.deadline)
    }

    fn mark_stale(&self, level: usize) {
        self.stale.set(self.stale.get() | 1 << level);
    }

    /// `(min_win, slot)` of `level`'s occupied slot with the smallest
    /// `min_win`, the lowest such slot; [`NO_SLOT`] when none is occupied.
    fn scan_level(&self, level: usize) -> (u64, u8) {
        let mut best = NO_SLOT;
        let mut b = self.occupied[level];
        while b != 0 {
            let slot = b.trailing_zeros() as usize;
            b &= b - 1;
            let here = (self.levels[level][slot].min_win, slot as u8);
            if here < best {
                best = here;
            }
        }
        best
    }

    /// The earliest occupied slot boundary: `(window_start, level, slot)`,
    /// the lowest level and then the lowest slot on ties.
    pub(crate) fn earliest_slot(&self) -> Option<(u64, usize, usize)> {
        let mut stale = self.stale.replace(0);
        while stale != 0 {
            let level = stale.trailing_zeros() as usize;
            stale &= stale - 1;
            self.level_min[level].set(self.scan_level(level));
        }
        let mut best: Option<(u64, usize, usize)> = None;
        for (level, min) in self.level_min.iter().enumerate() {
            let (win, slot) = min.get();
            if usize::from(slot) == SLOTS {
                continue;
            }
            let start = win << (SLOT_BITS * level as u32);
            if best.is_none_or(|(t, _, _)| start < t) {
                best = Some((start, level, usize::from(slot)));
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
            self.mark_stale(level);
            let mut kept = 0u32;
            let mut kept_min = u64::MAX;
            keys.retain(|&key| {
                let Some(m) = self.meta.get_mut(&key) else {
                    return false; // not armed: nothing to keep
                };
                if m.deadline >> shift != win {
                    // A later rotation of this slot (or a stale min after
                    // cancels): keep it parked and recompute the minimum.
                    kept_min = kept_min.min(m.deadline >> shift);
                    m.pos = kept;
                    kept += 1;
                    return true;
                }
                let m = *m;
                if m.deadline <= now {
                    // Due: release it (cascading through intermediate
                    // levels would be wasted work).
                    self.due.push((m.deadline, m.seq, key));
                    self.meta.remove(&key);
                } else {
                    // In this window but later than `now` — re-hash one or
                    // more levels down relative to the window start we
                    // just reached: never back into this slot.
                    self.place(key, m);
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

    /// The oracle for [`TimerWheel::earliest_slot`]: every occupied slot of
    /// every level, scanned (how the wheel answered until the per-level
    /// minima).
    pub(crate) fn earliest_slot_scan(&self) -> Option<(u64, usize, usize)> {
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

    /// Occupied slots whose `min_win` is below every key they hold (a cancel
    /// took the minimum), and occupied slots holding keys of more than one
    /// window (later rotations parked beside an earlier one).
    pub(crate) fn slot_census(&self) -> (usize, usize) {
        let (mut stale_low, mut rotations) = (0, 0);
        for (level, slots) in self.levels.iter().enumerate() {
            let shift = SLOT_BITS * level as u32;
            for s in slots.iter().filter(|s| !s.keys.is_empty()) {
                let wins = s.keys.iter().map(|k| self.meta[k].deadline >> shift);
                let (lo, hi) = wins.fold((u64::MAX, 0), |(lo, hi), w| (lo.min(w), hi.max(w)));
                stale_low += usize::from(s.min_win < lo);
                rotations += usize::from(lo != hi);
            }
        }
        (stale_low, rotations)
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
