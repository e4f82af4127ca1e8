//! The stack's slot table: every connection's [`Slot`] — its socket and
//! the stack's flags for it — in a paged slab, found through the seat its
//! [`SocketId`] names.
//!
//! A connection's id is `serial << 32 | seat` (see [`SocketId`]), so a
//! lookup is a bounds check, an index and a compare of the whole id — no
//! hash probe. The compare is what keeps a stale id inert: once its
//! connection is gone and a later one sits in the seat, the ids differ and
//! the lookup misses, as a removed key missed in the hash map this table
//! replaces. Seats come [`PAGE`] to a page; a page is allocated only when
//! no seat is free and is never moved or freed, so no insert copies the
//! table and there is no doubling slack.

use super::Spares;
use crate::budget::ConnBudget;
use crate::socket::TcpSocket;
use crate::types::{SockEvent, SocketId};
use crate::wheel::{TimerHandle, TimerWheel};
use std::collections::VecDeque;
use std::num::NonZeroU16;

/// Seats per page: a stack with a few connections pays for one page.
const PAGE: usize = 16;

/// Everything the stack keeps for one connection, in the seat its id
/// names. The flags sit *beside* the socket, not in it, so
/// `size_of::<TcpSocket>()` and the budget accounting built on it do not
/// move when the stack's bookkeeping does. They fit in the 8 B the
/// socket's alignment pads a slot to (`stack_tests::slot_and_record_sizes_are_pinned`).
#[derive(Debug)]
pub(super) struct Slot {
    pub(super) sock: TcpSocket,
    /// Its id is in `dirty`.
    pub(super) queued: bool,
    /// Its id is in `repl_dirty`.
    pub(super) repl_dirty: bool,
    /// Port of the listener whose SYN backlog or accept queue holds it (a
    /// listener's port is never 0).
    pub(super) pending: Option<NonZeroU16>,
    /// Its wheel entry, under its id.
    pub(super) timer: TimerHandle,
}

/// The follow-ups a stimulus owes its slot. Each caller runs the subset it
/// needs, in this order, against the stack's (disjoint) sink fields.
impl Slot {
    /// Lend the socket the stack's one event list for a stimulus, so a
    /// socket at rest owns none. [`Slot::drain_events`] takes it back.
    pub(super) fn lend_events(&mut self, list: &mut Vec<SockEvent>) {
        if self.sock.events.is_empty() {
            self.sock.events = std::mem::take(list);
        }
    }

    pub(super) fn drain_events(
        &mut self,
        out: &mut VecDeque<SockEvent>,
        list: &mut Vec<SockEvent>,
    ) {
        let mut events = std::mem::take(&mut self.sock.events);
        for e in events.drain(..) {
            // A backlog socket's Connected already surfaced as the
            // listener's Acceptable; all others pass through.
            if !(matches!(e, SockEvent::Connected(_)) && self.pending.is_some()) {
                out.push_back(e);
            }
        }
        // A list the socket grew itself (`close`/`abort`) is not kept.
        if list.capacity() == 0 {
            *list = events;
        }
    }

    pub(super) fn mark_dirty(
        &mut self,
        dirty: &mut VecDeque<SocketId>,
        repl: &mut Option<Vec<SocketId>>,
    ) {
        if !std::mem::replace(&mut self.queued, true) {
            dirty.push_back(self.sock.id);
        }
        if let Some(ids) = repl {
            if !std::mem::replace(&mut self.repl_dirty, true) {
                ids.push(self.sock.id);
            }
        }
    }

    /// (Re-)arm the wheel with the socket's earliest deadline, or disarm
    /// when it no longer needs one. O(1) either way.
    pub(super) fn arm_timer(&mut self, timers: &mut TimerWheel) {
        let key = self.sock.id.0;
        match self.sock.next_timeout() {
            Some(d) => timers.schedule(&mut self.timer, key, d),
            None => {
                timers.cancel(&mut self.timer, key);
            }
        }
    }

    /// Park the storage of each ring that holds no byte, then bring the
    /// budget in sync with the socket's current footprint: the end of
    /// every stimulus.
    pub(super) fn account(&mut self, budget: &mut ConnBudget, spares: &mut Spares) {
        budget.on_park(self.sock.park_send_ring(&mut spares.send));
        budget.on_park(self.sock.park_recv_ring(&mut spares.recv));
        let new = self.sock.mem_bytes();
        let old = self.sock.swap_accounted(new);
        budget.adjust(new as i64 - old as i64);
    }
}

/// The slot table, and the serials of the ids that name its seats.
#[derive(Debug)]
pub(super) struct Slots {
    pages: Vec<Box<[Option<Slot>; PAGE]>>,
    /// Empty seats, the next to fill on top: every seat not in it is
    /// occupied.
    free: Vec<u32>,
    /// The serial the next id takes.
    next_serial: u32,
}

/// The first seat of page `n`, or `None` if the page would end past
/// `u32::MAX`. A page that ends at or below it has its last seat below
/// it, so no connection's seat is [`SocketId::LISTENER_SEAT`].
fn page_base(n: usize) -> Option<u32> {
    let end = u32::try_from(n.checked_add(1)?.checked_mul(PAGE)?).ok()?;
    Some(end - PAGE as u32)
}

impl Slots {
    pub(super) fn new() -> Slots {
        Slots {
            pages: Vec::new(),
            free: Vec::new(),
            next_serial: 1,
        }
    }

    /// The next serial, or `None` once [`SocketId::SERIAL_END`] is reached.
    fn alloc_serial(&mut self) -> Option<u32> {
        let serial = self.next_serial;
        (serial < SocketId::SERIAL_END).then(|| {
            self.next_serial += 1;
            serial
        })
    }

    /// A new listener's id: the next serial, at the seat no slot has.
    pub(super) fn alloc_listener_id(&mut self) -> Option<SocketId> {
        Some(SocketId::new(self.alloc_serial()?, SocketId::LISTENER_SEAT))
    }

    /// A new connection's id: the next serial and the seat its slot will
    /// take. `None` when serials or seats have run out.
    pub(super) fn alloc_conn_id(&mut self) -> Option<SocketId> {
        let seat = self.vacant()?;
        Some(SocketId::new(self.alloc_serial()?, seat))
    }

    /// The seat the next [`Slots::insert`] takes, allocating a page when
    /// none is free; `None` once every seat an id can name is taken.
    fn vacant(&mut self) -> Option<u32> {
        if self.free.is_empty() {
            let base = page_base(self.pages.len())?;
            self.pages.push(Box::new(std::array::from_fn(|_| None)));
            // Lowest seat on top: a fresh page fills from its start.
            self.free.extend((base..base + PAGE as u32).rev());
        }
        self.free.last().copied()
    }

    /// Seat `slot` where its id says: the seat [`Slots::alloc_conn_id`]
    /// took for it, still the vacant one.
    pub(super) fn insert(&mut self, slot: Slot) {
        let seat = slot.sock.id.seat();
        debug_assert_eq!(self.free.last(), Some(&seat), "not the vacant seat");
        self.free.pop();
        let seat = seat as usize;
        if let Some(page) = self.pages.get_mut(seat / PAGE) {
            page[seat % PAGE] = Some(slot);
        }
    }

    pub(super) fn get(&self, id: SocketId) -> Option<&Slot> {
        let seat = id.seat() as usize;
        let slot = self.pages.get(seat / PAGE)?[seat % PAGE].as_ref()?;
        (slot.sock.id == id).then_some(slot)
    }

    pub(super) fn get_mut(&mut self, id: SocketId) -> Option<&mut Slot> {
        let seat = id.seat() as usize;
        let slot = self.pages.get_mut(seat / PAGE)?[seat % PAGE].as_mut()?;
        (slot.sock.id == id).then_some(slot)
    }

    /// Take the slot `id` names out of its seat, which becomes the next
    /// to fill.
    pub(super) fn remove(&mut self, id: SocketId) -> Option<Slot> {
        let seat = id.seat() as usize;
        let cell = &mut self.pages.get_mut(seat / PAGE)?[seat % PAGE];
        if cell.as_ref()?.sock.id != id {
            return None;
        }
        self.free.push(id.seat());
        cell.take()
    }

    /// Every slot, in seat order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &Slot> {
        self.pages.iter().flat_map(|page| page.iter().flatten())
    }

    pub(super) fn len(&self) -> usize {
        self.pages.len() * PAGE - self.free.len()
    }

    /// Bytes the table holds beyond its slots: empty seats, the free
    /// list's room and the page index.
    pub(super) fn slack_bytes(&self) -> usize {
        use std::mem::size_of;
        self.free.len() * size_of::<Option<Slot>>()
            + self.free.capacity() * size_of::<u32>()
            + self.pages.capacity() * size_of::<Box<[Option<Slot>; PAGE]>>()
    }

    /// One page's bytes.
    #[cfg(test)]
    pub(super) const PAGE_BYTES: usize = PAGE * std::mem::size_of::<Option<Slot>>();

    /// Move the serial counter, to reach its end without issuing a billion
    /// ids.
    #[cfg(test)]
    pub(super) fn set_next_serial(&mut self, serial: u32) {
        self.next_serial = serial;
    }

    /// Every seat is empty or holds the slot whose id names it, the free
    /// list holds exactly the empty seats once each. Panics on the first
    /// disagreement.
    #[cfg(test)]
    pub(super) fn check(&self) {
        let mut empty = Vec::new();
        for (seat, cell) in self.pages.iter().flat_map(|p| p.iter()).enumerate() {
            match cell {
                Some(slot) => assert_eq!(slot.sock.id.seat() as usize, seat, "a slot off its seat"),
                None => empty.push(seat as u32),
            }
        }
        let mut free = self.free.clone();
        free.sort_unstable();
        assert_eq!(free, empty, "free list vs empty seats");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::TcpSocket;
    use crate::types::TcpConfig;
    use neat_net::SeqNum;
    use std::net::Ipv4Addr;

    fn slot(id: SocketId) -> Slot {
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let sock = TcpSocket::connect(
            id,
            &TcpConfig::default(),
            (ip, 40_000),
            (ip, 80),
            SeqNum(1),
            0,
        );
        Slot {
            sock,
            queued: false,
            repl_dirty: false,
            pending: None,
            timer: TimerHandle::NONE,
        }
    }

    fn fill(slots: &mut Slots, n: usize) -> Vec<SocketId> {
        (0..n)
            .map(|_| {
                let id = slots.alloc_conn_id().unwrap();
                slots.insert(slot(id));
                id
            })
            .collect()
    }

    #[test]
    fn a_reused_seat_answers_only_its_new_id() {
        let mut slots = Slots::new();
        let ids = fill(&mut slots, 3);
        assert_eq!(
            ids.iter().map(|id| id.seat()).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(slots.remove(ids[1]).map(|s| s.sock.id), Some(ids[1]));
        assert!(slots.remove(ids[1]).is_none(), "removed twice");
        let next = fill(&mut slots, 1)[0];
        assert_eq!(next.seat(), 1, "the freed seat fills first");
        assert_eq!(next.serial(), 4, "with a new serial");
        assert!(slots.get(ids[1]).is_none(), "the stale id misses");
        assert!(slots.get_mut(ids[1]).is_none());
        assert!(slots.remove(ids[1]).is_none());
        assert_eq!(slots.get(next).map(|s| s.sock.id), Some(next));
        assert_eq!(slots.iter().count(), 3);
        slots.check();
    }

    #[test]
    fn pages_come_one_at_a_time_and_stay() {
        let mut slots = Slots::new();
        let ids = fill(&mut slots, PAGE + 1);
        assert_eq!((slots.pages.len(), ids[PAGE].seat()), (2, PAGE as u32));
        for id in &ids {
            slots.remove(*id);
        }
        assert_eq!(
            (slots.pages.len(), slots.len(), slots.free.len()),
            (2, 0, 2 * PAGE)
        );
        slots.check();
    }

    #[test]
    fn ids_past_the_last_page_and_the_listener_seat_miss() {
        let mut slots = Slots::new();
        let ids = fill(&mut slots, 1);
        let serial = ids[0].serial();
        assert!(
            slots.get(SocketId::new(serial, PAGE as u32)).is_none(),
            "past the page"
        );
        assert!(slots.get(SocketId::new(serial, u32::MAX - 1)).is_none());
        let listener = slots.alloc_listener_id().unwrap();
        assert_eq!(listener.seat(), SocketId::LISTENER_SEAT);
        assert!(slots.get(listener).is_none() && slots.remove(listener).is_none());
        assert!(slots.get(SocketId(u64::MAX)).is_none());
        slots.check();
    }

    #[test]
    fn ids_encode_serial_and_seat_at_both_ends() {
        for (serial, seat) in [(1, 0), (1, u32::MAX), (SocketId::SERIAL_END - 1, 0)] {
            let id = SocketId::new(serial, seat);
            assert_eq!((id.serial(), id.seat()), (serial, seat));
        }
        assert_eq!(SocketId::new(1, 0), SocketId(1 << 32));
        let top = SocketId::new(SocketId::SERIAL_END - 1, SocketId::LISTENER_SEAT);
        assert!(top.0 < 1 << 62, "every id is below 2^62");
        // Order by id is order by serial, whatever the seats.
        assert!(SocketId::new(2, 0) > SocketId::new(1, u32::MAX));
    }

    /// Seats run out at the last whole page below `u32::MAX`, the
    /// listener seat (`stack::tests::ids_run_out_into_no_memory` runs the
    /// serials out through the stack).
    #[test]
    fn the_last_page_ends_below_the_listener_seat() {
        let pages = u32::MAX as usize / PAGE;
        let last = page_base(pages - 1).unwrap();
        assert_eq!(last, u32::MAX - u32::MAX % PAGE as u32 - PAGE as u32);
        assert!(last + PAGE as u32 - 1 < SocketId::LISTENER_SEAT);
        assert_eq!(page_base(pages), None);
        assert_eq!(page_base(usize::MAX), None);
    }
}
