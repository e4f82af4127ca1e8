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
//! * **O(1) schedule and cancel, no hash probe.** Each key holds at most
//!   one timer, a 32 B entry in one dense array with a free list. Its
//!   owner keeps the entry's index, a [`TimerHandle`] (a slot keeps it in
//!   its padding, and so does a TIME-WAIT record), so every call indexes
//!   the entry directly; `advance` reports the key the entry holds. A slot
//!   is an intrusive doubly-linked list threaded through the entries
//!   (Varghese & Lauck's, and Linux's, shape): a slot holds only its first
//!   entry's index, and an entry its `prev`/`next` indices, so cancellation
//!   (the *common* case: an RTO that is re-armed on every ACK) unlinks in
//!   O(1) and never leaves stale entries behind. No slot owns storage:
//!   emptying and refilling slots allocates nothing once the entry array
//!   has grown to the most timers ever armed at once.
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

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 11; // 11 * 6 = 66 bits >= u64

/// A level's minimum `(min_win, slot)` when none of its slots is occupied;
/// above every real one, `min_win == u64::MAX` included.
const NO_SLOT: (u64, u8) = (u64::MAX, SLOTS as u8);

/// The end of a list of entries: a slot's, or the free list.
const NIL: u32 = u32::MAX;

/// The key of a free entry. Keys are socket ids and record keys, which
/// never reach it.
const FREE: u64 = u64::MAX;

/// An entry's arm sequence sits in the low 54 bits of its tag; its slot
/// (6 bits) and level (4 bits) sit above it.
const SEQ_BITS: u32 = 64 - SLOT_BITS - 4;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Where an owner's timer sits: the index of its entry, kept by the owner
/// beside its key. A handle whose entry was cancelled, fired or handed to
/// another owner since is stale; every call checks the entry's key against
/// the caller's and treats a stale handle as [`TimerHandle::NONE`], so an
/// old owner never moves the timer of the entry's new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle(u32);

impl TimerHandle {
    /// No timer armed.
    pub const NONE: TimerHandle = TimerHandle(NIL);
}

/// One wheel slot: the first entry of the list parked in it ([`NIL`] when
/// empty) plus the smallest slot-window id (`deadline >> shift`) seen among
/// them. The minimum may go stale-low after a cancel; `advance` recomputes
/// it when the window turns out to be empty, so it is always a valid
/// *lower bound*.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    min_win: u64,
}

const EMPTY: Slot = Slot {
    head: NIL,
    min_win: 0,
};

/// One timer: its deadline, where it is parked, its links in that slot's
/// list and the key `advance` reports for it (32 B; the wheel's only
/// per-timer storage). A free entry has key [`FREE`], and `next` links the
/// free list.
#[derive(Debug, Clone, Copy)]
struct Entry {
    deadline: u64,
    /// Monotonic arm sequence (tiebreak for deterministic firing order),
    /// level and slot: see [`SEQ_BITS`].
    tag: u64,
    prev: u32,
    next: u32,
    key: u64,
}

impl Entry {
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
/// each key holds at most one armed deadline, whose [`TimerHandle`] its
/// owner keeps.
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
    /// Every entry, armed or free, at the index its handle names.
    entries: Vec<Entry>,
    /// The first free entry ([`NIL`] if none).
    free: u32,
    /// Armed entries.
    armed: usize,
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
            entries: Vec::new(),
            free: NIL,
            armed: 0,
            seq: 0,
            due: Vec::new(),
        }
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.armed
    }

    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }

    /// The index of the entry `at` names, if it is `key`'s armed timer.
    fn find(&self, at: TimerHandle, key: u64) -> Option<usize> {
        let i = at.0 as usize;
        (self.entries.get(i)?.key == key).then_some(i)
    }

    /// The armed deadline for `key`, whose handle is `at`, if any.
    pub fn deadline_of(&self, at: TimerHandle, key: u64) -> Option<u64> {
        self.find(at, key).map(|i| self.entries[i].deadline)
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

    /// Push entry `i` onto the front of the list of the slot its tag names.
    fn link(&mut self, i: usize) {
        let e = &self.entries[i];
        let s = &mut self.levels[e.level()][e.slot()];
        let next = std::mem::replace(&mut s.head, i as u32);
        (self.entries[i].prev, self.entries[i].next) = (NIL, next);
        if next != NIL {
            self.entries[next as usize].prev = i as u32;
        }
    }

    /// Place entry `i`, its deadline and arm sequence set, into the wheel
    /// relative to `self.now`.
    fn place(&mut self, i: usize) {
        let e = &mut self.entries[i];
        let delta = e.deadline.saturating_sub(self.now);
        let level = Self::level_for(delta);
        let shift = SLOT_BITS * level as u32;
        let win = e.deadline >> shift;
        let slot = (win & (SLOTS as u64 - 1)) as usize;
        e.tag = e.seq() | (level as u64) << (SEQ_BITS + SLOT_BITS) | (slot as u64) << SEQ_BITS;
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
        self.link(i);
        self.occupied[level] |= 1 << slot;
    }

    /// Take entry `i` off its slot's list, keeping the slot's occupied bit
    /// and its level's minimum.
    fn unlink(&mut self, i: usize) {
        let e = self.entries[i];
        let (level, slot) = (e.level(), e.slot());
        if e.next != NIL {
            self.entries[e.next as usize].prev = e.prev;
        }
        match e.prev {
            NIL => self.levels[level][slot].head = e.next,
            p => self.entries[p as usize].next = e.next,
        }
        if self.levels[level][slot].head == NIL {
            self.occupied[level] &= !(1 << slot);
            // Another slot emptying leaves the level's minimum where it is.
            if usize::from(self.level_min[level].1) == slot {
                self.level_min[level] = self.scan_level(level);
            }
        }
    }

    /// A free entry for `key`: the free list's first, or a new one. Its
    /// index fits a `u32`: an owner holds one entry, and a stack's slots
    /// and records number fewer than 2^32.
    fn alloc(&mut self, key: u64) -> usize {
        self.armed += 1;
        let e = Entry {
            deadline: 0,
            tag: 0,
            prev: NIL,
            next: NIL,
            key,
        };
        match self.free {
            NIL => {
                self.entries.push(e);
                self.entries.len() - 1
            }
            f => {
                let i = f as usize;
                self.free = self.entries[i].next;
                self.entries[i] = e;
                i
            }
        }
    }

    /// Put entry `i`, off every slot list, on the free list.
    fn release(&mut self, i: usize) {
        self.armed -= 1;
        self.entries[i].key = FREE;
        self.entries[i].next = std::mem::replace(&mut self.free, i as u32);
    }

    /// Arm (or re-arm, replacing any previous deadline) a timer for `key`
    /// at absolute time `deadline`. `at` is the key's handle: its entry is
    /// re-armed where it is, and a key with none (or a stale one) gets an
    /// entry, whose handle `at` then holds.
    pub fn schedule(&mut self, at: &mut TimerHandle, key: u64, deadline: u64) {
        debug_assert!(key != FREE, "u64::MAX marks a free entry");
        let i = match self.find(*at, key) {
            Some(i) => {
                self.unlink(i);
                i
            }
            None => self.alloc(key),
        };
        let e = &mut self.entries[i];
        (e.deadline, e.tag) = (deadline, self.seq & SEQ_MASK);
        self.seq += 1;
        self.place(i);
        *at = TimerHandle(i as u32);
    }

    /// Hand `old`'s armed timer, whose handle is `at`, to `new`, as armed:
    /// its deadline, arm sequence, level, slot and place in the slot's list
    /// are kept, so what the wheel fires, in what order, and `next_event`
    /// are as they were. The handle stays the same; only the key `advance`
    /// reports changes. Nothing happens if `old` holds no timer there.
    pub(crate) fn rekey(&mut self, at: TimerHandle, old: u64, new: u64) {
        debug_assert!(new != FREE);
        if let Some(i) = self.find(at, old) {
            self.entries[i].key = new;
        }
    }

    /// Disarm `key`'s timer, whose handle is `at`, and clear the handle.
    /// Returns the deadline it held, if any. O(1): the entry unlinks itself
    /// from its slot's list.
    pub fn cancel(&mut self, at: &mut TimerHandle, key: u64) -> Option<u64> {
        let i = self.find(std::mem::replace(at, TimerHandle::NONE), key)?;
        self.unlink(i);
        self.release(i);
        Some(self.entries[i].deadline)
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
    /// `(deadline, arm sequence)`. Fired keys are disarmed: their entries
    /// go back to the free list and their owners' handles go stale.
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
            while next != NIL {
                let i = next as usize;
                let e = self.entries[i];
                next = e.next;
                if e.deadline >> shift != win {
                    // A later rotation of this slot (or a stale min after
                    // cancels): keep it parked and recompute the minimum.
                    (kept, kept_min) = (true, kept_min.min(e.deadline >> shift));
                    self.link(i);
                } else if e.deadline <= now {
                    // Due: release it (cascading through intermediate
                    // levels would be wasted work).
                    self.due.push((e.deadline, e.seq(), e.key));
                    self.release(i);
                } else {
                    // In this window but later than `now` — re-hash one or
                    // more levels down relative to the window start we
                    // just reached: never back into this slot.
                    self.place(i);
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

    /// Heap bytes of the entries, slack included.
    pub(crate) fn entry_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
    }
}

#[cfg(test)]
impl TimerWheel {
    /// One entry.
    pub(crate) const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();

    /// Every armed entry: its handle and key.
    pub(crate) fn armed(&self) -> impl Iterator<Item = (TimerHandle, u64)> + '_ {
        let armed = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.key != FREE);
        armed.map(|(i, e)| (TimerHandle(i as u32), e.key))
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

    /// The entries on the list from `head`, first to last, stopping after
    /// more than there are (a cycle).
    fn walk(&self, head: u32) -> Vec<usize> {
        let first = (head != NIL).then_some(head as usize);
        let next = |&i: &usize| Some(self.entries.get(i)?.next).filter(|&n| n != NIL);
        let walk = std::iter::successors(first, |i| next(i).map(|n| n as usize));
        walk.take(self.entries.len() + 1).collect()
    }

    /// Occupied slots whose `min_win` is below every entry they hold (a
    /// cancel took the minimum), and occupied slots holding entries of more
    /// than one window (later rotations parked beside an earlier one).
    pub(crate) fn slot_census(&self) -> (usize, usize) {
        let (mut stale_low, mut rotations) = (0, 0);
        for (level, slots) in self.levels.iter().enumerate() {
            let shift = SLOT_BITS * level as u32;
            for s in slots.iter().filter(|s| s.head != NIL) {
                let wins = self.walk(s.head).into_iter();
                let wins = wins.map(|i| self.entries[i].deadline >> shift);
                let (lo, hi) = wins.fold((u64::MAX, 0), |(lo, hi), w| (lo.min(w), hi.max(w)));
                stale_low += usize::from(s.min_win < lo);
                rotations += usize::from(lo != hi);
            }
        }
        (stale_low, rotations)
    }

    /// Every armed entry sits on exactly the list its tag names, each
    /// link's `prev` mirrors the `next` before it, a slot is marked occupied
    /// exactly when its list is non-empty, and the free list holds exactly
    /// the entries that are not armed.
    pub(crate) fn check_links(&self) -> Result<(), String> {
        let mut listed = 0;
        for (level, slots) in self.levels.iter().enumerate() {
            for (slot, s) in slots.iter().enumerate() {
                let list = self.walk(s.head);
                if (self.occupied[level] >> slot & 1 == 0) != list.is_empty() {
                    return Err(format!("slot {level}/{slot}: occupied bit wrong"));
                }
                let mut prev = NIL;
                for &i in &list {
                    let e = self.entries[i];
                    if e.key == FREE || (e.level(), e.slot(), e.prev) != (level, slot, prev) {
                        return Err(format!("entry {i} on {level}/{slot} after {prev}: {e:?}"));
                    }
                    prev = i as u32;
                }
                listed += list.len();
            }
        }
        let free = self.walk(self.free);
        if free.iter().any(|&i| self.entries[i].key != FREE) {
            return Err("an armed entry on the free list".into());
        }
        match (
            listed == self.armed,
            listed + free.len() == self.entries.len(),
        ) {
            (true, true) => Ok(()),
            _ => Err(format!(
                "{listed} listed, {} armed, {} free of {} entries",
                self.armed,
                free.len(),
                self.entries.len()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Handles for keys `0..n`, as their owners keep them.
    fn handles(n: usize) -> Vec<TimerHandle> {
        vec![TimerHandle::NONE; n]
    }

    #[test]
    fn fires_in_deadline_order() {
        let (mut w, mut at) = (TimerWheel::new(0), handles(4));
        w.schedule(&mut at[1], 1, 500);
        w.schedule(&mut at[2], 2, 100);
        w.schedule(&mut at[3], 3, 300);
        assert_eq!(w.len(), 3);
        assert_eq!(w.fire(1000), vec![2, 3, 1]);
        assert!(w.is_empty());
    }

    #[test]
    fn reschedule_replaces() {
        let (mut w, mut at) = (TimerWheel::new(0), handles(8));
        w.schedule(&mut at[7], 7, 1_000_000);
        let first = at[7];
        w.schedule(&mut at[7], 7, 50); // re-arm earlier
        assert_eq!(at[7], first, "re-armed in its entry");
        assert_eq!(w.len(), 1);
        assert_eq!(w.deadline_of(at[7], 7), Some(50));
        assert_eq!(w.fire(100), vec![7]);
        assert_eq!(w.fire(2_000_000), Vec::<u64>::new());
    }

    /// A rekeyed timer stays as armed: beside a twin that keeps the old
    /// keys, every `next_event` and every firing, in order, match under
    /// the renaming, cascades and equal deadlines included.
    #[test]
    fn rekey_keeps_the_timer_as_armed() {
        let (mut a, mut b) = (TimerWheel::new(0), TimerWheel::new(0));
        let (mut at_a, mut at_b) = (handles(9), handles(9));
        let deadlines = [7, 7, 300, 5_000, 5_000, 70_000, 4_000_000, 9_000_000_000];
        for (key, &d) in (1..).zip(&deadlines) {
            a.schedule(&mut at_a[key as usize], key, d);
            b.schedule(&mut at_b[key as usize], key, d);
        }
        a.catch_up(3);
        b.catch_up(3);
        let renamed = |k: u64| if k.is_multiple_of(2) { k + 100 } else { k };
        for key in (2..=8).step_by(2) {
            b.rekey(at_b[key as usize], key, renamed(key));
        }
        b.rekey(at_b[1], 99, 199); // 99 holds no timer: nothing happens
        b.rekey(TimerHandle::NONE, 1, 101);
        b.check_links().unwrap();
        assert_eq!(b.deadline_of(at_b[2], 2), None, "the old key holds none");
        assert_eq!(
            (b.len(), b.deadline_of(at_b[2], 102)),
            (a.len(), a.deadline_of(at_a[2], 2))
        );
        while let Some(t) = a.next_event() {
            assert_eq!(b.next_event(), Some(t));
            let fired: Vec<u64> = a.fire(t).into_iter().map(renamed).collect();
            assert_eq!(b.fire(t), fired);
        }
        assert!(b.is_empty());
    }

    #[test]
    fn cancel_disarms() {
        let (mut w, mut at) = (TimerWheel::new(0), handles(3));
        w.schedule(&mut at[1], 1, 10);
        w.schedule(&mut at[2], 2, 20);
        assert_eq!(w.cancel(&mut at[1], 1), Some(10));
        assert_eq!(at[1], TimerHandle::NONE, "the handle is cleared");
        assert_eq!(w.cancel(&mut at[1], 1), None);
        assert_eq!(w.fire(100), vec![2]);
    }

    /// An entry freed by a cancel or a fire goes to the next key armed, and
    /// the old owner's handle, now stale, moves nothing: not the new
    /// owner's deadline, not its key, not its place in the firing order.
    #[test]
    fn a_stale_handle_never_moves_the_new_owners_timer() {
        for by_fire in [false, true] {
            let (mut w, mut at) = (TimerWheel::new(0), handles(3));
            w.schedule(&mut at[1], 1, 100);
            let stale = at[1];
            if by_fire {
                assert_eq!(w.fire(100), vec![1]);
            } else {
                w.cancel(&mut at[1], 1);
            }
            w.schedule(&mut at[2], 2, 500);
            assert_eq!(at[2], stale, "the freed entry is reused");
            // Key 1's owner still holds the old handle.
            let mut old = stale;
            assert_eq!(w.deadline_of(old, 1), None);
            assert_eq!(w.cancel(&mut old, 1), None);
            assert_eq!(old, TimerHandle::NONE);
            w.rekey(stale, 1, 77);
            let mut old = stale;
            w.schedule(&mut old, 1, 50);
            assert_ne!(old, stale, "the old owner gets an entry of its own");
            assert_eq!(w.deadline_of(at[2], 2), Some(500), "by fire: {by_fire}");
            w.check_links().unwrap();
            assert_eq!(w.fire(1_000), vec![1, 2]);
        }
    }

    #[test]
    fn coarse_deadline_cascades_to_exact_fire() {
        let (mut w, mut at) = (TimerWheel::new(0), handles(2));
        // 10 s: parks at a high level; driving the wheel only at
        // next_event boundaries must still fire exactly once, not early.
        let deadline = 10_000_000_000u64;
        w.schedule(&mut at[1], 1, deadline);
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
        let (mut at_stale, mut at_caught) = (TimerHandle::NONE, TimerHandle::NONE);
        let now = 1_000_000;
        let deadline = now + rto;
        stale.schedule(&mut at_stale, 1, deadline);
        caught.catch_up(now);
        caught.schedule(&mut at_caught, 1, deadline);
        assert_eq!(stale.next_event(), Some(level4(deadline)));
        assert_eq!(caught.next_event(), Some(deadline >> 18 << 18));
        assert!(level4(deadline) < deadline >> 18 << 18);
        // Either way it fires once, at its deadline.
        assert_eq!(caught.fire(deadline - 1), Vec::<u64>::new());
        assert_eq!(caught.fire(deadline), vec![1]);
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let (mut w, mut at) = (TimerWheel::new(5000), TimerHandle::NONE);
        w.schedule(&mut at, 9, 100); // already due
        assert_eq!(w.next_event(), Some(100));
        assert_eq!(w.fire(5000), vec![9]);
    }

    #[test]
    fn same_deadline_fires_in_arm_order() {
        let (mut w, mut at) = (TimerWheel::new(0), handles(6));
        w.schedule(&mut at[5], 5, 777);
        w.schedule(&mut at[3], 3, 777);
        w.schedule(&mut at[4], 4, 777);
        assert_eq!(w.fire(777), vec![5, 3, 4]);
    }

    #[test]
    fn huge_horizon_covered() {
        let (mut w, mut at) = (TimerWheel::new(0), TimerHandle::NONE);
        w.schedule(&mut at, 1, u64::MAX - 1);
        assert_eq!(w.fire(u64::MAX - 2), Vec::<u64>::new());
        assert_eq!(w.fire(u64::MAX), vec![1]);
    }

    #[test]
    fn dense_load_smoke() {
        // 100k timers with mixed horizons schedule, cancel and fire
        // without losing or duplicating anything.
        let (mut w, mut at) = (TimerWheel::new(0), handles(100_000));
        for k in 0..100_000u64 {
            w.schedule(&mut at[k as usize], k, (k % 977) * 1_000_003 + 1);
        }
        for k in (0..100_000u64).step_by(3) {
            w.cancel(&mut at[k as usize], k);
        }
        let mut fired = w.fire(u64::MAX);
        assert_eq!(fired.len(), 100_000 - 33_334);
        fired.sort_unstable();
        fired.dedup();
        assert_eq!(fired.len(), 100_000 - 33_334, "no duplicates");
        assert!(w.is_empty());
        w.check_links().unwrap();
    }
}
