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
//!   slot is an intrusive doubly-linked list threaded through the keys'
//!   entries (Varghese & Lauck's, and Linux's, shape): a slot holds only
//!   its head key, and an entry its `prev`/`next` keys, so cancellation
//!   (the *common* case: an RTO that is re-armed on every ACK) unlinks in
//!   O(1) and never leaves stale entries behind. No slot owns storage:
//!   emptying and refilling slots allocates nothing once the key map has
//!   grown to the armed count.
//! * **Cascade on demand.** [`TimerWheel::advance`] jumps straight to the
//!   next occupied slot (no per-tick iteration), detaches its list and
//!   walks it, firing entries that are due and re-hashing the rest one
//!   level down. A timer parked at level `L` costs at most `L` re-hashes
//!   over its whole life.
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
//! answer is the smallest of those 11 values. The minimum is kept eagerly:
//! `place` lowers it in O(1); a `cancel` that empties the minimum's slot
//! rescans that level's occupied slots, and so does `advance` for the level
//! whose slot it consumed. `earliest_slot` is then a pure read. The answer
//! is exactly the full scan's, stale-low slot minima included, because it
//! sets when the engine's timer events fire:
//! `proptests::wheel_earliest_slot_matches_full_scan` holds the two equal
//! after every operation.

use neat_util::FxHashMap;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 11; // 11 * 6 = 66 bits >= u64

/// A level's minimum `(min_win, slot)` when none of its slots is occupied;
/// above every real one, `min_win == u64::MAX` included.
const NO_SLOT: (u64, u8) = (u64::MAX, SLOTS as u8);

/// The end of a slot's list. Keys are socket ids, which never reach it.
const NIL: u64 = u64::MAX;

/// An entry's arm sequence sits in the low 54 bits of its tag; its slot
/// (6 bits) and level (4 bits) sit above it.
const SEQ_BITS: u32 = 64 - SLOT_BITS - 4;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// One wheel slot: the head of the list of keys parked in it ([`NIL`] when
/// empty) plus the smallest slot-window id (`deadline >> shift`) seen among
/// them. The minimum may go stale-low after a cancel; `advance` recomputes
/// it when the window turns out to be empty, so it is always a valid
/// *lower bound*.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u64,
    min_win: u64,
}

const EMPTY: Slot = Slot {
    head: NIL,
    min_win: 0,
};

/// One armed timer: its deadline, where it is parked, and its links in
/// that slot's list (32 B; the wheel's only per-timer storage).
#[derive(Debug, Clone, Copy)]
struct Meta {
    deadline: u64,
    /// Monotonic arm sequence (tiebreak for deterministic firing order),
    /// level and slot: see [`SEQ_BITS`].
    tag: u64,
    prev: u64,
    next: u64,
}

impl Meta {
    fn seq(&self) -> u64 {
        self.tag & SEQ_MASK
    }

    fn level(&self) -> usize {
        (self.tag >> (SEQ_BITS + SLOT_BITS)) as usize
    }

    fn slot(&self) -> usize {
        (self.tag >> SEQ_BITS) as usize & (SLOTS - 1)
    }
}

/// The wheel. Keys are caller-chosen `u64`s (socket ids) below `u64::MAX`;
/// each key holds at most one armed deadline.
#[derive(Debug)]
pub struct TimerWheel {
    /// The wheel's notion of "now": advanced monotonically by `advance`.
    now: u64,
    levels: Box<[[Slot; SLOTS]; LEVELS]>,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Per level, `(min_win, slot)` of the occupied slot with the smallest
    /// `min_win`, lowest slot on ties ([`NO_SLOT`] if none).
    level_min: [(u64, u8); LEVELS],
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
            levels: Box::new([[EMPTY; SLOTS]; LEVELS]),
            occupied: [0; LEVELS],
            level_min: [NO_SLOT; LEVELS],
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

    /// Push `key`, whose record `m` names its level and slot, onto the
    /// front of that slot's list. The caller stores `m` afterwards.
    fn link(&mut self, key: u64, m: &mut Meta) {
        let s = &mut self.levels[m.level()][m.slot()];
        (m.prev, m.next) = (NIL, std::mem::replace(&mut s.head, key));
        if let Some(n) = self.meta.get_mut(&m.next) {
            n.prev = key;
        }
    }

    /// Place `key` with its `deadline` and arm sequence in `m` into the
    /// wheel relative to `self.now`, and record it.
    fn place(&mut self, key: u64, mut m: Meta) {
        let delta = m.deadline.saturating_sub(self.now);
        let level = Self::level_for(delta);
        let shift = SLOT_BITS * level as u32;
        let win = m.deadline >> shift;
        let slot = (win & (SLOTS as u64 - 1)) as usize;
        let s = &mut self.levels[level][slot];
        if s.head == NIL || win < s.min_win {
            s.min_win = win;
        }
        // The slot's minimum only fell, or the slot just filled: the level's
        // minimum can only fall to it.
        let here = (s.min_win, slot as u8);
        if here < self.level_min[level] {
            self.level_min[level] = here;
        }
        m.tag = m.seq() | (level as u64) << (SEQ_BITS + SLOT_BITS) | (slot as u64) << SEQ_BITS;
        self.link(key, &mut m);
        self.occupied[level] |= 1 << slot;
        self.meta.insert(key, m);
    }

    /// Arm (or re-arm, replacing any previous deadline) a timer for
    /// `key` at absolute time `deadline`.
    pub fn schedule(&mut self, key: u64, deadline: u64) {
        debug_assert!(key != NIL, "u64::MAX ends a slot's list");
        self.cancel(key);
        let m = Meta {
            deadline,
            tag: self.seq & SEQ_MASK,
            prev: NIL,
            next: NIL,
        };
        self.seq += 1;
        self.place(key, m);
    }

    /// Disarm `key`'s timer. Returns the deadline it held, if any. O(1):
    /// the entry unlinks itself from its slot's list.
    pub fn cancel(&mut self, key: u64) -> Option<u64> {
        let m = self.meta.remove(&key)?;
        let (level, slot) = (m.level(), m.slot());
        if let Some(n) = self.meta.get_mut(&m.next) {
            n.prev = m.prev;
        }
        match self.meta.get_mut(&m.prev) {
            Some(p) => p.next = m.next,
            None => self.levels[level][slot].head = m.next,
        }
        if self.levels[level][slot].head == NIL {
            self.occupied[level] &= !(1 << slot);
            // Another slot emptying leaves the level's minimum where it is.
            if usize::from(self.level_min[level].1) == slot {
                self.level_min[level] = self.scan_level(level);
            }
        }
        Some(m.deadline)
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
        let mut best: Option<(u64, usize, usize)> = None;
        for (level, &(win, slot)) in self.level_min.iter().enumerate() {
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

    /// Move the wheel's clock to the caller's `now` (never back) without
    /// firing anything. `advance` moves it only as far as a due slot, so a
    /// caller woken only at `next_event` would hash each later `schedule`
    /// against a stale clock, a level too coarse: an RTO re-armed just
    /// under 64⁴ ns (16.8 ms) out lands at level 4, and each level-4 slot
    /// boundary it reaches wakes its host for a cascade. A slot that came
    /// due meanwhile waits for the next `advance`, which finds it by its
    /// window, not by the clock.
    pub fn catch_up(&mut self, now: u64) {
        self.now = self.now.max(now);
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
            // Detach the slot's list and walk it: each entry fires, drops a
            // level or more, or goes back on the (now empty) list.
            let mut next = std::mem::replace(&mut self.levels[level][slot].head, NIL);
            self.occupied[level] &= !(1 << slot);
            let (mut kept, mut kept_min) = (false, u64::MAX);
            while let Some(&entry) = self.meta.get(&next) {
                let (key, mut m) = (next, entry);
                next = m.next;
                if m.deadline >> shift != win {
                    // A later rotation of this slot (or a stale min after
                    // cancels): keep it parked and recompute the minimum.
                    (kept, kept_min) = (true, kept_min.min(m.deadline >> shift));
                    self.link(key, &mut m);
                    self.meta.insert(key, m);
                } else if m.deadline <= now {
                    // Due: release it (cascading through intermediate
                    // levels would be wasted work).
                    self.due.push((m.deadline, m.seq(), key));
                    self.meta.remove(&key);
                } else {
                    // In this window but later than `now` — re-hash one or
                    // more levels down relative to the window start we
                    // just reached: never back into this slot.
                    self.place(key, m);
                }
            }
            if kept {
                self.levels[level][slot].min_win = kept_min;
                self.occupied[level] |= 1 << slot;
            }
            self.level_min[level] = self.scan_level(level);
        }
        self.now = self.now.max(now);
        self.due
            .sort_unstable_by_key(|&(deadline, seq, _)| (deadline, seq));
        fired.extend(self.due.drain(..).map(|(_, _, k)| k));
    }
}

#[cfg(test)]
impl TimerWheel {
    /// Heap bytes of the per-key entries, slack included.
    pub(crate) fn entry_bytes(&self) -> usize {
        self.meta.capacity() * std::mem::size_of::<(u64, Meta)>()
    }

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

    /// The keys on `level`'s `slot` list, head first.
    fn slot_keys(&self, level: usize, slot: usize) -> Vec<u64> {
        let head = self.levels[level][slot].head;
        let first = self.meta.contains_key(&head).then_some(head);
        let walk = std::iter::successors(first, |k| Some(self.meta[k].next).filter(|&n| n != NIL));
        walk.take(self.meta.len() + 1).collect()
    }

    /// Occupied slots whose `min_win` is below every key they hold (a cancel
    /// took the minimum), and occupied slots holding keys of more than one
    /// window (later rotations parked beside an earlier one).
    pub(crate) fn slot_census(&self) -> (usize, usize) {
        let (mut stale_low, mut rotations) = (0, 0);
        for (level, slots) in self.levels.iter().enumerate() {
            let shift = SLOT_BITS * level as u32;
            for (slot, s) in slots.iter().enumerate().filter(|(_, s)| s.head != NIL) {
                let keys = self.slot_keys(level, slot);
                let wins = keys.iter().map(|k| self.meta[k].deadline >> shift);
                let (lo, hi) = wins.fold((u64::MAX, 0), |(lo, hi), w| (lo.min(w), hi.max(w)));
                stale_low += usize::from(s.min_win < lo);
                rotations += usize::from(lo != hi);
            }
        }
        (stale_low, rotations)
    }

    /// Every armed key sits on exactly the list its tag names, each link's
    /// `prev` mirrors the `next` before it, and a slot is marked occupied
    /// exactly when its list is non-empty.
    pub(crate) fn check_links(&self) -> Result<(), String> {
        let mut listed = 0;
        for (level, slots) in self.levels.iter().enumerate() {
            for (slot, s) in slots.iter().enumerate() {
                let keys = self.slot_keys(level, slot);
                if (s.head == NIL) != keys.is_empty() {
                    return Err(format!("slot {level}/{slot}: head {} not armed", s.head));
                }
                if (self.occupied[level] >> slot & 1 == 0) != keys.is_empty() {
                    return Err(format!("slot {level}/{slot}: occupied bit wrong"));
                }
                let mut prev = NIL;
                for &k in &keys {
                    let m = self.meta[&k];
                    if (m.level(), m.slot(), m.prev) != (level, slot, prev) {
                        return Err(format!("key {k} on {level}/{slot} after {prev}: {m:?}"));
                    }
                    prev = k;
                }
                listed += keys.len();
            }
        }
        match listed == self.meta.len() {
            true => Ok(()),
            false => Err(format!("{listed} listed, {} armed", self.meta.len())),
        }
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
    fn catch_up_hashes_later_schedules_against_the_callers_clock() {
        // An RTO 16.7 ms out, re-armed 1 ms after the wheel last advanced:
        // against the stale clock it is 17.7 ms out, past 64^4 ns, and
        // parks at level 4, whose slot boundary comes due before it does.
        let rto = 16_700_000u64;
        let level4 = |t: u64| t >> 24 << 24;
        let (mut stale, mut caught) = (TimerWheel::new(0), TimerWheel::new(0));
        let now = 1_000_000;
        let deadline = now + rto;
        stale.schedule(1, deadline);
        caught.catch_up(now);
        caught.schedule(1, deadline);
        assert_eq!(stale.next_event(), Some(level4(deadline)));
        assert_eq!(caught.next_event(), Some(deadline >> 18 << 18));
        assert!(level4(deadline) < deadline >> 18 << 18);
        // Either way it fires once, at its deadline.
        assert_eq!(caught.fire(deadline - 1), Vec::<u64>::new());
        assert_eq!(caught.fire(deadline), vec![1]);
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
