//! TIME-WAIT without a socket. Once a connection in TIME-WAIT is at rest,
//! the stack drops its socket — the slot and the controller box, 584 B —
//! and keeps a 40 B [`TimeWait`] record in the record table, under a
//! [`key`] made from the connection's id. Linux has done the same with `tcp_timewait_sock` since
//! 2.6, for the same reason: on a one-request-per-connection load almost
//! every connection a stack holds has already closed (PAPER.md Fig. 12,
//! the `http_churn` workload).
//!
//! **When.** A socket retires where a closed one is reaped: as its entry
//! leaves the dirty queue, the end of every stimulus. It must be at rest:
//! in TIME-WAIT with its final ACK sent, its events surfaced, both rings
//! parked, in no listener's queue, and the TIME-WAIT deadline its only
//! armed deadline. A socket that keeps another deadline — keepalive's
//! (ROADMAP E(3)), or the delayed-ACK deadline the TIME-WAIT ACK leaves
//! armed (E(4)) — stays a full socket until that deadline clears.
//!
//! **What it keeps.** What TIME-WAIT still reads: the flow, `snd_nxt`,
//! `rcv_nxt`, `irs`, the receive window as acceptability reads it and as
//! the ACK's window field carries it, the deadline, and four flags.
//!
//! **How it answers.** As the socket it replaces: `on_segment` through
//! the synchronized steps, `poll_segment` as TIME-WAIT's ACK or a closed
//! socket's RST, `on_timer` as its deadline. An unacceptable segment or a
//! retransmitted FIN gets the same ACK; a RST closes it with `Closed`; a
//! SYN in window at any sequence number but `irs` closes it with `Aborted`
//! and never reaches the listener; data is ignored; nothing gets a RST,
//! except the one an owed ACK turns into when a RST or SYN closes the
//! connection before the ACK went out (`transmit_rst`). An ACK moves
//! nothing: our FIN is acknowledged, so `snd_una` is `snd_nxt`, and no
//! ACK is new or a duplicate. The TIME-WAIT deadline is its only deadline.
//!
//! **The wheel entry stays as armed.** Retiring hands the socket's wheel
//! entry to the record: the record keeps the slot's handle, and
//! `TimerWheel::rekey` rewrites the key the entry reports to the record's
//! [`key`], keeping its deadline, arm sequence, level and slot. The record
//! re-arms it wherever the socket would have: after each segment, after
//! each segment it sends, after a deadline fires. Re-scheduling at
//! retirement would hash the deadline against a later clock, possibly at
//! another level, and move `next_event` and with it the host's wake-ups.
//! The key tells `TcpStack::on_timer` that a fired entry is a record's.
//!
//! **Its id.** TIME-WAIT follows the application's `close()`, so every
//! call on the id but `state` gets `NoSocket`; `state` still reads
//! TIME_WAIT (CLOSED once it has closed and waits to be reaped). The
//! connection keeps its demux entry until it is reaped: `conn_count()` and
//! the budget's `tcp.conn.count` count it, and the budget holds its
//! [`RECORD_BYTES`].

use super::TcpStack;
use crate::components::flow_control::in_window;
use crate::socket::TcpSocket;
use crate::types::{SockEvent, SocketId, TcpState};
use crate::wheel::{TimerHandle, TimerWheel};
use neat_net::{FlowKey, SeqNum, TcpFlags, TcpHeader};
use neat_util::FxHashMap;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Its id is in the stack's dirty queue.
const QUEUED: u8 = 1;
/// An ACK is owed (the socket's `ack_now`).
const OWED: u8 = 2;
/// A RST or a SYN in window closed it (the socket's `Reset` error).
const RESET: u8 = 4;
/// The TIME-WAIT deadline fired.
const EXPIRED: u8 = 8;

/// A retired TIME-WAIT connection: everything the socket it replaces would
/// still read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct TimeWait {
    /// The TIME-WAIT deadline.
    deadline: u64,
    pub(super) remote_ip: Ipv4Addr,
    local_port: u16,
    remote_port: u16,
    snd_nxt: SeqNum,
    rcv_nxt: SeqNum,
    irs: SeqNum,
    /// The receive window in bytes, as acceptability reads it.
    wnd: u32,
    /// The window field its ACK carries.
    window: u16,
    flags: u8,
    /// Its wheel entry, under its [`key`]; in the padding, so the record
    /// stays 40 B.
    timer: TimerHandle,
}

/// The bytes the budget holds for a record: its entry in the record table.
pub(super) const RECORD_BYTES: usize = std::mem::size_of::<(u64, TimeWait)>();

/// Marks a record's key: no id reaches bit 62.
const TAG: u64 = 1 << 62;
/// A serial's bits: serials stop below 2^30.
const SERIAL_BITS: u32 = 30;

/// A record's key, in the wheel and in the record table: the tag, its id's
/// seat, and its serial in the low bits. The wheel finds the entry by its
/// handle and only reports the key, whose tag tells a record from a
/// socket. The record table hashes it: FxHash's multiply lets a key's low
/// bits alone pick its bucket, and a record's seat may already belong to
/// the next connection, so its serial, never reused, goes low.
pub(super) fn key(id: SocketId) -> u64 {
    TAG | u64::from(id.seat()) << SERIAL_BITS | u64::from(id.serial())
}

/// The id a wheel key names, if the key is a record's.
pub(super) fn id_of(key: u64) -> Option<SocketId> {
    let serial = (key & ((1 << SERIAL_BITS) - 1)) as u32;
    let seat = ((key & !TAG) >> SERIAL_BITS) as u32;
    (key & TAG != 0).then(|| SocketId::new(serial, seat))
}

/// The record table: records by [`key`], held inline, so a record costs no
/// allocation of its own.
#[derive(Debug, Default)]
pub(super) struct TimeWaits(FxHashMap<u64, TimeWait>);

impl TimeWaits {
    pub(super) fn get(&self, id: SocketId) -> Option<&TimeWait> {
        self.0.get(&key(id))
    }

    pub(super) fn get_mut(&mut self, id: SocketId) -> Option<&mut TimeWait> {
        self.0.get_mut(&key(id))
    }

    fn insert(&mut self, id: SocketId, tw: TimeWait) {
        self.0.insert(key(id), tw);
    }

    fn remove(&mut self, id: SocketId) {
        self.0.remove(&key(id));
    }

    pub(super) fn len(&self) -> usize {
        self.0.len()
    }

    pub(super) fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

#[cfg(test)]
impl TimeWaits {
    pub(super) fn iter(&self) -> impl Iterator<Item = (SocketId, &TimeWait)> {
        (self.0.iter()).filter_map(|(&k, tw)| Some((id_of(k)?, tw)))
    }
}

impl TimeWait {
    /// The record of `s` if it is a TIME-WAIT socket at rest (what the
    /// stack alone knows — its dirty-queue entry, its listener — the stack
    /// checks).
    pub(super) fn of(s: &TcpSocket) -> Option<TimeWait> {
        if s.state() != TcpState::TimeWait {
            return None;
        }
        let others = [
            s.rel.rtx_deadline,
            s.fc.ack_deadline,
            s.fc.probe_deadline,
            s.cm.keepalive_deadline,
        ];
        let rings = s.rel.send_buf.heap_bytes() + s.fc.recv_buf.heap_bytes();
        if !s.events.is_empty() || rings != 0 || others.iter().any(|d| d.is_some()) {
            return None;
        }
        Some(TimeWait {
            deadline: s.cm.time_wait_deadline.get()?,
            remote_ip: s.remote_ip,
            local_port: s.local_port,
            remote_port: s.remote_port,
            snd_nxt: s.rel.snd_nxt,
            rcv_nxt: s.fc.rcv_nxt,
            irs: s.cm.irs,
            wnd: s.recv_window_bytes() as u32,
            window: s.window_field(),
            flags: if s.fc.ack_now { OWED } else { 0 },
            timer: TimerHandle::NONE,
        })
    }

    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    fn set(&mut self, flag: u8, on: bool) {
        self.flags = if on {
            self.flags | flag
        } else {
            self.flags & !flag
        };
    }

    /// Clear `flag`, returning whether it was set.
    fn take(&mut self, flag: u8) -> bool {
        let was = self.has(flag);
        self.set(flag, false);
        was
    }

    pub(super) fn queued(&self) -> bool {
        self.has(QUEUED)
    }

    pub(super) fn dequeue(&mut self) {
        self.set(QUEUED, false);
    }

    pub(super) fn state(&self) -> TcpState {
        match self.has(RESET | EXPIRED) {
            true => TcpState::Closed,
            false => TcpState::TimeWait,
        }
    }

    pub(super) fn next_timeout(&self) -> Option<u64> {
        (!self.has(EXPIRED)).then_some(self.deadline)
    }

    /// The flow's demux key, given the stack's address.
    pub(super) fn flow(&self, local_ip: Ipv4Addr) -> FlowKey {
        FlowKey::tcp(self.remote_ip, self.remote_port, local_ip, self.local_port)
    }

    /// One segment for the flow, with `payload_len` bytes: RFC 793's
    /// segment-arrival steps in TIME-WAIT. Returns the event it raises.
    pub(super) fn on_segment(
        &mut self,
        h: &TcpHeader,
        payload_len: usize,
    ) -> Option<fn(SocketId) -> SockEvent> {
        if self.state() == TcpState::Closed {
            return None;
        }
        // Step 1: an unacceptable segment is re-ACKed, unless it is a RST.
        if !in_window(h.seq, h.seq_len(payload_len), self.rcv_nxt, self.wnd) {
            self.set(OWED, self.has(OWED) || !h.flags.rst);
            return None;
        }
        // Step 2: a RST closes it; step 4: so does a SYN in window.
        if h.flags.rst || (h.flags.syn && h.seq != self.irs) {
            self.set(RESET, true);
            return Some(match h.flags.rst {
                true => SockEvent::Closed,
                false => SockEvent::Aborted,
            });
        }
        if !h.flags.ack {
            return None;
        }
        // Steps 5–7 move nothing it reads: every byte and our FIN are
        // acknowledged, and TIME-WAIT takes no data.
        // Step 8: the peer's FIN is in, so a FIN past `rcv_nxt` is re-ACKed.
        let fin_seq = h.seq + payload_len as u32;
        if h.flags.fin && fin_seq - self.rcv_nxt > 0 {
            self.set(OWED, true);
        }
        None
    }

    /// Its deadline at `now`: the TIME-WAIT deadline closes it silently.
    pub(super) fn on_timer(&mut self, now: u64) {
        if now >= self.deadline {
            self.set(EXPIRED, true);
        }
    }

    /// The one segment it may owe: TIME-WAIT's ACK, or, once a RST or SYN
    /// closed it, the RST an owed ACK becomes. Closed otherwise, it owes
    /// nothing.
    pub(super) fn poll_segment(&mut self) -> Option<TcpHeader> {
        let closed = self.state() == TcpState::Closed;
        if (closed && !self.has(RESET)) || !self.take(OWED) {
            return None;
        }
        let flags = TcpFlags {
            rst: closed,
            ..TcpFlags::ack()
        };
        let mut h = TcpHeader::new(
            self.local_port,
            self.remote_port,
            self.snd_nxt,
            self.rcv_nxt,
            flags,
        );
        if !closed {
            h.window = self.window; // the RST carries none
        }
        Some(h)
    }

    /// Queue `id` for transmit and re-arm its deadline: what the stack does
    /// for a socket after every stimulus, less the rings, the event list
    /// and replication, none of which a record has.
    fn touched(&mut self, id: SocketId, dirty: &mut VecDeque<SocketId>, timers: &mut TimerWheel) {
        if !self.has(QUEUED) {
            self.set(QUEUED, true);
            dirty.push_back(id);
        }
        self.arm(id, timers);
    }

    /// (Re-)arm the wheel with the earliest deadline, as `Slot::arm_timer`
    /// does.
    pub(super) fn arm(&mut self, id: SocketId, timers: &mut TimerWheel) {
        match self.next_timeout() {
            Some(d) => timers.schedule(&mut self.timer, key(id), d),
            None => {
                timers.cancel(&mut self.timer, key(id));
            }
        }
    }
}

#[cfg(test)]
impl TimeWait {
    /// Its wheel entry.
    pub(super) fn timer(&self) -> TimerHandle {
        self.timer
    }

    /// The peer's FIN, sent again: what it sends when our final ACK is
    /// lost.
    pub(super) fn peer_fin(&self) -> TcpHeader {
        let seq = SeqNum(self.rcv_nxt.0.wrapping_sub(1));
        let flags = TcpFlags::fin_ack();
        TcpHeader::new(self.remote_port, self.local_port, seq, self.snd_nxt, flags)
    }
}

/// The record table's side of the stack: retiring, answering, reaping.
impl TcpStack {
    /// Retire `id`'s socket into a record if it is at rest in TIME-WAIT.
    /// Its slot and controller box go now; its demux entry stays, and so
    /// does its wheel entry, which the record takes over.
    pub(super) fn maybe_retire(&mut self, id: SocketId) {
        let Some(slot) = self.slots.get(id) else {
            return;
        };
        if slot.queued || slot.pending.is_some() || slot.sock.local_ip != self.local_ip {
            return;
        }
        let Some(mut tw) = TimeWait::of(&slot.sock) else {
            return;
        };
        if let Some(mut slot) = self.slots.remove(id) {
            let accounted = slot.sock.swap_accounted(0);
            self.budget.adjust(RECORD_BYTES as i64 - accounted as i64);
            self.timers.rekey(slot.timer, id.0, key(id));
            tw.timer = slot.timer;
        }
        self.time_waits.insert(id, tw);
    }

    /// A segment for a retired connection's flow: `deliver` for a record.
    pub(super) fn deliver_time_wait(&mut self, id: SocketId, h: &TcpHeader, payload: &[u8]) {
        let Some(tw) = self.time_waits.get_mut(id) else {
            return;
        };
        if let Some(event) = tw.on_segment(h, payload.len()) {
            self.events.push_back(event(id));
        }
        tw.touched(id, &mut self.dirty, &mut self.timers);
    }

    /// A fired wheel key that names a record.
    pub(super) fn time_wait_timer(&mut self, id: SocketId, now: u64) {
        if let Some(tw) = self.time_waits.get_mut(id) {
            tw.on_timer(now);
            tw.touched(id, &mut self.dirty, &mut self.timers);
        }
    }

    /// Remove `id`'s record if its connection has closed and its last
    /// segment is out, with its demux entry, deadline and budget share;
    /// returns its flow.
    pub(super) fn reap_time_wait(&mut self, id: SocketId) -> Option<FlowKey> {
        let tw = self.time_waits.get(id)?;
        if tw.state() != TcpState::Closed || tw.queued() {
            return None;
        }
        let (flow, mut timer) = (tw.flow(self.local_ip), tw.timer);
        self.time_waits.remove(id);
        self.conns.remove(&flow);
        self.timers.cancel(&mut timer, key(id));
        self.budget.on_close(RECORD_BYTES as u64);
        Some(flow)
    }
}

#[cfg(test)]
#[path = "time_wait_tests.rs"]
mod tests;
