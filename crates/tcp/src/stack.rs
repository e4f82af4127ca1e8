//! One TCP stack instance: socket table, demultiplexing, listeners with
//! SYN backlog and accept queues, ephemeral ports, and timer scheduling.
//!
//! In NEaT terms, a [`TcpStack`] is the state a single replica owns. The
//! paper's key partitioning invariant — "each network socket [lives] only in
//! a single instance of the network stack" (§3.1) — holds trivially because
//! a stack instance is a plain owned value; there is nothing to share.
//!
//! Scale-out structure (the million-connection refactor):
//!
//! * flow demux is one `FxHashMap` probe per segment, keyed by the flow
//!   (the NIC's flow-director table uses the same map and key);
//! * a connection's id names its seat in a paged slab of slots
//!   ([`Slots`]): a timer, a dirty-queue entry or a socket call finds its
//!   slot with an index and an id compare, no hash probe, and the slab
//!   grows a page at a time and never shrinks or moves;
//! * all per-socket deadlines live in one hierarchical [`TimerWheel`] —
//!   O(1) arm/cancel, cascade on demand (see `wheel.rs`); a slot or
//!   record keeps its entry's index, so no timer call probes a map;
//! * listener lookup by id is a hash probe, not a scan;
//! * closed sockets are reaped inline at their quiescence point instead
//!   of by an O(all sockets) sweep on every timer tick;
//! * a socket at rest in TIME-WAIT retires at that same point into a 40 B
//!   record ([`TimeWait`], `time_wait.rs`): its slot and controller box go
//!   at once, its demux entry stays, and its wheel entry moves to the
//!   record's key as armed, until the deadline reaps the record;
//! * per-connection memory is delta-accounted into a [`ConnBudget`] and
//!   optionally bounded (`TcpConfig::conn_memory_limit`);
//! * a socket at rest owns no ring: a drained ring's storage waits on the
//!   stack's spare list for its direction until a ring needs one
//!   ([`Spares`]).

use crate::budget::ConnBudget;
use crate::buffer::{fill, SendSpares};
use crate::components::{CongestionControl, Controller};
use crate::socket::TcpSocket;
use crate::tcb::replicable;
use crate::types::{CongestionAlgo, SockEvent, SocketId, TcpConfig, TcpError, TcpState};
use crate::wheel::{TimerHandle, TimerWheel};
pub use footprint::Footprint;
use neat_net::{FlowKey, SeqNum, TcpFlags, TcpHeader};
use neat_util::{FxHashMap, FxHashSet};
use slots::{Slot, Slots};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::num::NonZeroU16;
use time_wait::{TimeWait, TimeWaits};

#[path = "footprint.rs"]
mod footprint;
#[path = "slots.rs"]
mod slots;
#[path = "time_wait.rs"]
mod time_wait;

/// A listening socket: subsockets of the paper's replicated listeners map
/// to one `Listener` in each replica's stack.
#[derive(Debug)]
struct Listener {
    id: SocketId,
    /// Connections past the handshake, ready for `accept`.
    accept_q: VecDeque<SocketId>,
    /// Connections still in SYN-RECEIVED.
    syn_backlog: usize,
}

/// Handles into the global `neat_obs` registry: process-wide aggregates
/// (all stack instances of the simulation sum into the same named counters).
#[derive(Debug, Clone, Copy)]
struct StackObs {
    rx_segments: neat_obs::Counter,
    tx_segments: neat_obs::Counter,
    conns_accepted: neat_obs::Counter,
}

impl StackObs {
    fn new() -> StackObs {
        StackObs {
            rx_segments: neat_obs::counter("tcp.rx_segments"),
            tx_segments: neat_obs::counter("tcp.tx_segments"),
            conns_accepted: neat_obs::counter("tcp.conns_accepted"),
        }
    }
}

/// First-touch footprint of a connection with `algo`'s controller, used
/// for budget admission before the socket exists: the socket and what its
/// controller holds on the heap.
fn base_conn_cost(algo: CongestionAlgo) -> u64 {
    (std::mem::size_of::<TcpSocket>() + Controller::heap_bytes_of(algo)) as u64
}

fn flow_of(s: &TcpSocket) -> FlowKey {
    FlowKey::tcp(s.remote_ip, s.remote_port, s.local_ip, s.local_port)
}

/// Ring storages that drained rings parked, one list per direction, lent
/// to the next ring of that direction that needs one: a send ring the
/// smallest that holds its write ([`SendSpares`]), a receive ring the one
/// parked last. A storage is allocated only while its list is empty, so
/// each list holds no more storages than rings of its direction were ever
/// busy at once. Two lists, not one: requests and replies cross a stack
/// in opposite directions, so a small request's ring does not take a bulk
/// reply's storage.
#[derive(Debug)]
struct Spares {
    send: SendSpares,
    recv: Vec<VecDeque<u8>>,
}

impl Spares {
    /// Both lists, allocated up front with room for a few storages: the
    /// first parks of a stack's life allocate nothing on the data path.
    fn new() -> Spares {
        Spares {
            send: SendSpares::with_room(4),
            recv: Vec::with_capacity(4),
        }
    }
}

/// One isolated TCP stack instance.
#[derive(Debug)]
pub struct TcpStack {
    pub local_ip: Ipv4Addr,
    cfg: TcpConfig,
    /// Every connection's slot, and the serials of the ids that name them.
    slots: Slots,
    /// Retired TIME-WAIT connections, by the id their socket had
    /// (`time_wait::key`).
    time_waits: TimeWaits,
    /// Every connection by flow (remote side as src), in a slot or
    /// retired: the table every inbound segment resolves through. Only
    /// probed.
    conns: FxHashMap<FlowKey, SocketId>,
    listeners: FxHashMap<u16, Listener>,
    /// Listener id -> port (O(1) accept/acceptable/poll by id).
    listener_of: FxHashMap<SocketId, u16>,
    next_port: u16,
    port_lo: u16,
    port_hi: u16,
    iss_counter: u32,
    /// Sockets that may have segments to transmit (`Slot::queued`), FIFO.
    dirty: VecDeque<SocketId>,
    /// Raw segments owed to peers with no socket (RSTs).
    raw_out: VecDeque<(Ipv4Addr, TcpHeader)>,
    /// User-visible events.
    events: VecDeque<SockEvent>,
    /// The list a socket queues its events on while a stimulus runs.
    sock_events: Vec<SockEvent>,
    /// One armed deadline per socket, hierarchically hashed.
    timers: TimerWheel,
    /// The keys `on_timer` is firing.
    fired: Vec<u64>,
    /// Accounted connection memory (and the optional bound on it).
    budget: ConnBudget,
    /// Parked ring storages, per direction.
    spares: Spares,
    /// Checkpoint-delta tracking for buddy replication, `Some` while on:
    /// every socket touched since the last [`TcpStack::take_repl_dirty`]
    /// drain (`Slot::repl_dirty`).
    repl_dirty: Option<Vec<SocketId>>,
    /// Flows that closed since the last drain (buddy forgets them).
    repl_closed: Vec<FlowKey>,
    /// Flows handed to another replica: late segments for them are dropped
    /// silently instead of answered with a RST that would kill the
    /// migrated connection. A fresh SYN lifts the quarantine.
    migrated_out: FxHashSet<FlowKey>,
    obs: StackObs,
}

impl TcpStack {
    pub fn new(local_ip: Ipv4Addr, cfg: TcpConfig) -> TcpStack {
        let budget = ConnBudget::new(cfg.conn_memory_limit);
        TcpStack {
            local_ip,
            cfg,
            slots: Slots::new(),
            time_waits: TimeWaits::default(),
            conns: FxHashMap::default(),
            listeners: FxHashMap::default(),
            listener_of: FxHashMap::default(),
            next_port: 49_152,
            port_lo: 49_152,
            port_hi: 65_535,
            iss_counter: 0x1234_5678,
            dirty: VecDeque::new(),
            raw_out: VecDeque::new(),
            events: VecDeque::new(),
            sock_events: Vec::new(),
            timers: TimerWheel::new(0),
            fired: Vec::new(),
            budget,
            spares: Spares::new(),
            repl_dirty: None,
            repl_closed: Vec::new(),
            migrated_out: FxHashSet::default(),
            obs: StackObs::new(),
        }
    }

    /// Restrict ephemeral ports to `[lo, hi]` — lets several stack
    /// instances share one IP address without colliding (the load
    /// generator's per-process stacks partition the port space).
    pub fn set_port_range(&mut self, lo: u16, hi: u16) {
        assert!(lo <= hi && lo >= 1024);
        self.port_lo = lo;
        self.port_hi = hi;
        self.next_port = lo;
    }

    fn next_iss(&mut self) -> SeqNum {
        // Deterministic ISS spacing (RFC 793's clock-driven ISS is
        // irrelevant inside the simulation).
        self.iss_counter = self.iss_counter.wrapping_add(64_021);
        SeqNum(self.iss_counter)
    }

    /// Register a freshly created connection socket, in the seat its id
    /// took: the one insert of a connection's life in this stack
    /// ([`TcpStack::detach`] removes a socket, `reap_time_wait` a retired
    /// TIME-WAIT record).
    fn install_socket(&mut self, flow: FlowKey, mut sock: TcpSocket, pending: Option<NonZeroU16>) {
        let bytes = sock.mem_bytes();
        sock.swap_accounted(bytes);
        self.budget.on_open(bytes as u64);
        self.conns.insert(flow, sock.id);
        let mut slot = Slot {
            sock,
            queued: false,
            repl_dirty: false,
            pending,
            timer: TimerHandle::NONE,
        };
        slot.mark_dirty(&mut self.dirty, &mut self.repl_dirty);
        slot.arm_timer(&mut self.timers);
        self.slots.insert(slot);
    }

    // ------------------------------------------------------------------
    // User API (BSD-socket shaped)
    // ------------------------------------------------------------------

    /// Open a listening socket on `port`; port 0 names no port and gets
    /// `BadState`.
    pub fn listen(&mut self, port: u16) -> Result<SocketId, TcpError> {
        if port == 0 {
            return Err(TcpError::BadState);
        }
        if self.listeners.contains_key(&port) {
            return Err(TcpError::AddrInUse);
        }
        let id = self.slots.alloc_listener_id().ok_or(TcpError::NoMemory)?;
        self.listeners.insert(
            port,
            Listener {
                id,
                accept_q: VecDeque::new(),
                syn_backlog: 0,
            },
        );
        self.listener_of.insert(id, port);
        Ok(id)
    }

    /// Active open to `remote`. Returns the new socket id; the
    /// [`SockEvent::Connected`] event fires when the handshake completes.
    pub fn connect(
        &mut self,
        remote_ip: Ipv4Addr,
        remote_port: u16,
        now: u64,
    ) -> Result<SocketId, TcpError> {
        if !self.budget.admit(base_conn_cost(self.cfg.congestion)) {
            return Err(TcpError::NoMemory);
        }
        self.timers.catch_up(now);
        let port = self.alloc_ephemeral(remote_ip, remote_port)?;
        let id = self.slots.alloc_conn_id().ok_or(TcpError::NoMemory)?;
        let iss = self.next_iss();
        let sock = TcpSocket::connect(
            id,
            &self.cfg,
            (self.local_ip, port),
            (remote_ip, remote_port),
            iss,
            now,
        );
        let flow = FlowKey::tcp(remote_ip, remote_port, self.local_ip, port);
        self.install_socket(flow, sock, None);
        Ok(id)
    }

    fn alloc_ephemeral(&mut self, rip: Ipv4Addr, rport: u16) -> Result<u16, TcpError> {
        let span = (self.port_hi - self.port_lo) as usize + 1;
        for _ in 0..span {
            let p = self.next_port;
            self.next_port = if self.next_port >= self.port_hi {
                self.port_lo
            } else {
                self.next_port + 1
            };
            let flow = FlowKey::tcp(rip, rport, self.local_ip, p);
            if !self.conns.contains_key(&flow) && !self.listeners.contains_key(&p) {
                return Ok(p);
            }
        }
        Err(TcpError::NoPorts)
    }

    /// Accept one ready connection from a listener.
    pub fn accept(&mut self, listener: SocketId) -> Result<SocketId, TcpError> {
        let port = *self.listener_of.get(&listener).ok_or(TcpError::NoSocket)?;
        let l = self.listeners.get_mut(&port).ok_or(TcpError::NoSocket)?;
        let id = l.accept_q.pop_front().ok_or(TcpError::WouldBlock)?;
        if let Some(slot) = self.slots.get_mut(id) {
            slot.pending = None;
        }
        self.obs.conns_accepted.inc();
        Ok(id)
    }

    /// Number of connections ready to accept on a listener.
    pub fn acceptable(&self, listener: SocketId) -> usize {
        self.listener(listener).map_or(0, |l| l.accept_q.len())
    }

    pub fn send(&mut self, id: SocketId, data: &[u8]) -> Result<usize, TcpError> {
        let slot = self.slots.get_mut(id).ok_or(TcpError::NoSocket)?;
        let lent = slot.sock.lend_send_ring(&mut self.spares.send, data.len());
        self.budget.on_lend(lent);
        let r = slot.sock.send(data);
        if r.is_ok() {
            slot.mark_dirty(&mut self.dirty, &mut self.repl_dirty);
        }
        // A refused send parks the storage it was lent.
        slot.account(&mut self.budget, &mut self.spares);
        r
    }

    pub fn recv(&mut self, id: SocketId, buf: &mut [u8]) -> Result<usize, TcpError> {
        self.recv_with(id, buf.len(), fill(buf))
    }

    /// [`Self::recv`] without the copy: up to `max` received bytes go to
    /// `visit` where they lie in the receive ring, as its non-empty halves
    /// in stream order; the effects on the connection are `recv`'s.
    pub fn recv_with(
        &mut self,
        id: SocketId,
        max: usize,
        visit: impl FnMut(&[u8]),
    ) -> Result<usize, TcpError> {
        let slot = self.slots.get_mut(id).ok_or(TcpError::NoSocket)?;
        let r = slot.sock.recv_with(max, visit);
        if r.is_ok() {
            // A window update may be owed.
            slot.mark_dirty(&mut self.dirty, &mut self.repl_dirty);
            slot.account(&mut self.budget, &mut self.spares);
        }
        r
    }

    /// Switch one connection's congestion controller, the one per-socket
    /// option. Takes effect immediately on the live connection.
    pub fn set_congestion(&mut self, id: SocketId, algo: CongestionAlgo) -> Result<(), TcpError> {
        let slot = self.slots.get_mut(id).ok_or(TcpError::NoSocket)?;
        slot.sock.set_congestion(algo);
        // The selected algorithm is replicated state.
        slot.mark_dirty(&mut self.dirty, &mut self.repl_dirty);
        slot.account(&mut self.budget, &mut self.spares);
        Ok(())
    }

    pub fn close(&mut self, id: SocketId, now: u64) -> Result<(), TcpError> {
        self.timers.catch_up(now);
        let slot = self.slots.get_mut(id).ok_or(TcpError::NoSocket)?;
        slot.sock.close(now);
        slot.mark_dirty(&mut self.dirty, &mut self.repl_dirty);
        slot.arm_timer(&mut self.timers);
        Ok(())
    }

    pub fn abort(&mut self, id: SocketId) -> Result<(), TcpError> {
        let slot = self.slots.get_mut(id).ok_or(TcpError::NoSocket)?;
        slot.sock.abort();
        slot.mark_dirty(&mut self.dirty, &mut self.repl_dirty);
        Ok(())
    }

    fn sock(&self, id: SocketId) -> Option<&TcpSocket> {
        self.slots.get(id).map(|slot| &slot.sock)
    }

    fn listener(&self, id: SocketId) -> Option<&Listener> {
        self.listeners.get(self.listener_of.get(&id)?)
    }

    /// A connection's state; a retired TIME-WAIT connection's too.
    pub fn state(&self, id: SocketId) -> Option<TcpState> {
        (self.sock(id).map(|s| s.state())).or_else(|| self.time_waits.get(id).map(TimeWait::state))
    }

    pub fn recv_available(&self, id: SocketId) -> usize {
        self.sock(id).map_or(0, |s| s.recv_available())
    }

    /// Live (non-listener) connection count, retired TIME-WAIT connections
    /// included: a replica is drained only once its last TIME-WAIT has run
    /// out. Drives the lazy-termination GC of §3.4.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// The connection-memory account (bytes, per-conn average, refusals).
    pub fn budget(&self) -> &ConnBudget {
        &self.budget
    }

    /// Export `tcp.conn.*` gauges for this stack instance through the
    /// global `neat-obs` registry (explicit because gauges are
    /// process-global — call it on the instance you want visible).
    pub fn publish_mem_gauges(&mut self) {
        self.budget.publish();
    }

    // ------------------------------------------------------------------
    // Wire input
    // ------------------------------------------------------------------

    /// Handle one TCP segment (post-IP). `src`/`dst` are the IPv4 addresses
    /// from the IP header; the caller has already validated those.
    pub fn handle_segment(&mut self, src: Ipv4Addr, h: &TcpHeader, payload: &[u8], now: u64) {
        self.obs.rx_segments.inc();
        // Every entry point that re-arms a deadline first tells the wheel
        // the time: it hashes the deadline against its own clock.
        self.timers.catch_up(now);
        let flow = FlowKey::tcp(src, h.src_port, self.local_ip, h.dst_port);
        if let Some(&id) = self.conns.get(&flow) {
            self.deliver(id, h, payload, now);
            return;
        }
        // A flow we migrated away: the steering filter update races the
        // last in-flight segments. Drop them silently — a RST here would
        // tear down the connection its new owner just resumed. A fresh
        // SYN means 4-tuple reuse, so lift the quarantine and fall through
        // to normal listener handling.
        if !self.migrated_out.is_empty() && self.migrated_out.contains(&flow) {
            if h.flags.syn && !h.flags.ack {
                self.migrated_out.remove(&flow);
            } else {
                return;
            }
        }
        // No connection: maybe a listener (SYN only).
        if h.flags.syn && !h.flags.ack {
            if let Some(l) = self.listeners.get_mut(&h.dst_port) {
                // Backlog overflow, or out of connection memory or ids:
                // shed the SYN (a retry will come).
                let id = if l.syn_backlog + l.accept_q.len() >= self.cfg.backlog
                    || !self.budget.admit(base_conn_cost(self.cfg.congestion))
                {
                    None
                } else {
                    self.slots.alloc_conn_id()
                };
                let Some(id) = id else {
                    neat_obs::counter_add("tcp.syn_dropped", 1);
                    return;
                };
                l.syn_backlog += 1;
                let iss = self.next_iss();
                let sock = TcpSocket::accept_from_syn(
                    id,
                    &self.cfg,
                    (self.local_ip, h.dst_port),
                    (src, h.src_port),
                    h,
                    iss,
                    now,
                );
                self.install_socket(flow, sock, NonZeroU16::new(h.dst_port));
                return;
            }
        }
        // Nothing matches: RST (unless the segment itself is a RST).
        if !h.flags.rst {
            let (seq, ack, flags) = if h.flags.ack {
                (h.ack, SeqNum(0), TcpFlags::rst())
            } else {
                (
                    SeqNum(0),
                    h.seq + h.seq_len(payload.len()),
                    TcpFlags {
                        rst: true,
                        ack: true,
                        ..Default::default()
                    },
                )
            };
            let rst = TcpHeader::new(h.dst_port, h.src_port, seq, ack, flags);
            self.raw_out.push_back((src, rst));
        }
    }

    fn deliver(&mut self, id: SocketId, h: &TcpHeader, payload: &[u8], now: u64) {
        let Some(slot) = self.slots.get_mut(id) else {
            return self.deliver_time_wait(id, h, payload);
        };
        let before = slot.sock.state();
        slot.lend_events(&mut self.sock_events);
        if !payload.is_empty() {
            let lent = slot.sock.lend_recv_ring(&mut self.spares.recv);
            self.budget.on_lend(lent);
        }
        slot.sock.on_segment_under(&self.cfg, h, payload, now);
        // Handshake completed on a backlog socket → accept queue
        // (CLOSE-WAIT: the completing ACK came with the peer's FIN).
        let open = matches!(
            slot.sock.state(),
            TcpState::Established | TcpState::CloseWait
        );
        if before == TcpState::SynReceived && open {
            if let Some(l) = slot
                .pending
                .and_then(|port| self.listeners.get_mut(&port.get()))
            {
                l.syn_backlog = l.syn_backlog.saturating_sub(1);
                l.accept_q.push_back(id);
                self.events.push_back(SockEvent::Acceptable(l.id));
            }
        }
        slot.drain_events(&mut self.events, &mut self.sock_events);
        slot.mark_dirty(&mut self.dirty, &mut self.repl_dirty);
        slot.arm_timer(&mut self.timers);
        slot.account(&mut self.budget, &mut self.spares);
    }

    // ------------------------------------------------------------------
    // Wire output + events + timers
    // ------------------------------------------------------------------

    /// Next segment to put on the wire: `(dst_ip, header, payload)`.
    pub fn poll_transmit(&mut self, now: u64) -> Option<(Ipv4Addr, TcpHeader, Vec<u8>)> {
        self.transmit_with(now, |dst, h, (a, b)| (dst, *h, [a, b].concat()))
    }

    /// Next segment, emitted behind whatever `out` already holds — header,
    /// then the payload copied once, straight from the send buffer, then
    /// the checksum. Returns the destination.
    pub fn poll_transmit_into(&mut self, now: u64, out: &mut Vec<u8>) -> Option<Ipv4Addr> {
        let src = self.local_ip;
        self.transmit_with(now, |dst, h, (a, b)| {
            h.emit_into(out, &[a, b], src, dst);
            dst
        })
    }

    /// Find the next segment owed and hand `f` its destination, header and
    /// payload — the two halves of the owning send buffer's ring — for `f`
    /// to emit wherever the segment goes (a frame, a message, a buffer).
    pub fn transmit_with<R>(
        &mut self,
        now: u64,
        f: impl FnOnce(Ipv4Addr, &TcpHeader, (&[u8], &[u8])) -> R,
    ) -> Option<R> {
        self.timers.catch_up(now);
        if let Some((dst, h)) = self.raw_out.pop_front() {
            self.obs.tx_segments.inc();
            return Some(f(dst, &h, (&[], &[])));
        }
        while let Some(id) = self.dirty.front().copied() {
            // A migrated-out connection may still be queued: skip it.
            if let Some(slot) = self.slots.get_mut(id) {
                if let Some((h, len)) = slot.sock.poll_segment(&self.cfg, now) {
                    self.obs.tx_segments.inc();
                    slot.arm_timer(&mut self.timers);
                    let payload = slot.sock.rel.send_buf.slices(h.seq, len);
                    return Some(f(slot.sock.remote_ip, &h, payload));
                }
                slot.queued = false;
                slot.drain_events(&mut self.events, &mut self.sock_events);
                slot.account(&mut self.budget, &mut self.spares);
            } else if let Some(tw) = self.time_waits.get_mut(id) {
                if let Some(h) = tw.poll_segment() {
                    self.obs.tx_segments.inc();
                    tw.arm(id, &mut self.timers);
                    return Some(f(tw.remote_ip, &h, (&[], &[])));
                }
                tw.dequeue();
            }
            self.dirty.pop_front();
            // A socket that drained its last segment and reached Closed
            // is quiescent here — reap it now (no global GC sweeps) — and
            // one at rest in TIME-WAIT retires.
            self.maybe_reap(id);
        }
        None
    }

    /// Drain the next user-visible event.
    pub fn poll_event(&mut self) -> Option<SockEvent> {
        self.events.pop_front()
    }

    /// Next instant this stack needs a timer callback. For coarse
    /// deadlines this is the wheel's cascade boundary — a lower bound on
    /// the earliest real deadline — so drivers must re-arm from the new
    /// `next_timeout` after each `on_timer` (every driver in this
    /// workspace already does).
    pub fn next_timeout(&self) -> Option<u64> {
        self.timers.next_event()
    }

    /// Fire all timers due at `now`, cascading the wheel as needed.
    pub fn on_timer(&mut self, now: u64) {
        let mut fired = std::mem::take(&mut self.fired);
        self.timers.advance(now, &mut fired);
        for key in fired.drain(..) {
            if let Some(id) = time_wait::id_of(key) {
                self.time_wait_timer(id, now);
                continue;
            }
            let Some(slot) = self.slots.get_mut(SocketId(key)) else {
                continue;
            };
            slot.lend_events(&mut self.sock_events);
            slot.sock.on_timer_under(&self.cfg, now);
            slot.drain_events(&mut self.events, &mut self.sock_events);
            slot.mark_dirty(&mut self.dirty, &mut self.repl_dirty);
            slot.arm_timer(&mut self.timers);
            slot.account(&mut self.budget, &mut self.spares);
        }
        self.fired = fired;
    }

    /// Remove a socket or TIME-WAIT record if it is fully closed and
    /// quiescent: its final segments drained (not dirty) and its events
    /// surfaced; else retire a socket at rest in TIME-WAIT. Replaces the
    /// old every-tick scan over all sockets, which was O(n) per timer at
    /// 100k+ connections.
    fn maybe_reap(&mut self, id: SocketId) {
        let dead =
            |s: &Slot| s.sock.state() == TcpState::Closed && !s.queued && s.sock.events.is_empty();
        let flow = match self.slots.get(id).map(dead) {
            Some(true) => self.detach(id),
            Some(false) => return self.maybe_retire(id),
            None => self.reap_time_wait(id),
        };
        if self.repl_dirty.is_some() {
            self.repl_closed.extend(flow);
        }
    }

    /// The one way a socket leaves the stack: its slot, demux entry,
    /// deadline, budget share and seat in its listener's SYN backlog or
    /// accept queue go together, and its rings' storages are parked for
    /// the next connection, as does its seat. Ids are never reused, so one
    /// still sitting in `dirty` or `repl_dirty` misses its seat and is
    /// skipped when it comes up.
    fn detach(&mut self, id: SocketId) -> Option<FlowKey> {
        let mut slot = self.slots.remove(id)?;
        let flow = flow_of(&slot.sock);
        self.conns.remove(&flow);
        self.timers.cancel(&mut slot.timer, id.0);
        self.budget.on_close(slot.sock.swap_accounted(0) as u64);
        let spares = &mut self.spares;
        self.budget
            .on_park(slot.sock.release_send_ring(&mut spares.send));
        self.budget
            .on_park(slot.sock.release_recv_ring(&mut spares.recv));
        if let Some(l) = slot
            .pending
            .and_then(|port| self.listeners.get_mut(&port.get()))
        {
            let ready = l.accept_q.len();
            l.accept_q.retain(|x| *x != id);
            if l.accept_q.len() == ready {
                l.syn_backlog = l.syn_backlog.saturating_sub(1); // died mid-handshake
            }
        }
        Some(flow)
    }

    // ------------------------------------------------------------------
    // Flow replication & migration (checkpoint export / restore)
    // ------------------------------------------------------------------

    /// Turn checkpoint-delta tracking on (or off). While on, every socket
    /// touched between [`TcpStack::take_repl_dirty`] drains is remembered
    /// so the owning replica can ship incremental TCB checkpoints to its
    /// buddy.
    pub fn set_repl_tracking(&mut self, on: bool) {
        if on {
            self.repl_dirty.get_or_insert_with(Vec::new);
            return;
        }
        for id in self.repl_dirty.take().into_iter().flatten() {
            if let Some(slot) = self.slots.get_mut(id) {
                slot.repl_dirty = false;
            }
        }
        self.repl_closed.clear();
    }

    /// Drain the set of sockets touched since the last call, visiting
    /// each that is in a [`replicable`] state (handshake-phase sockets
    /// re-handshake on their own) with its flow, in socket-id order for
    /// deterministic replication traffic.
    pub fn take_repl_dirty(&mut self, mut visit: impl FnMut(FlowKey, &TcpSocket)) {
        let Some(ids) = self.repl_dirty.as_mut() else {
            return;
        };
        ids.sort_unstable();
        for id in ids.drain(..) {
            if let Some(slot) = self.slots.get_mut(id) {
                slot.repl_dirty = false;
                if replicable(slot.sock.state()) {
                    visit(flow_of(&slot.sock), &slot.sock);
                }
            }
        }
    }

    /// Drain the flows that fully closed since the last call (the buddy
    /// drops its copy so the replica store stays bounded). The list keeps
    /// its storage for the next flush.
    pub fn take_repl_closed(&mut self) -> std::vec::Drain<'_, FlowKey> {
        self.repl_closed.drain(..)
    }

    /// Visit every replicable connection with its flow, in socket-id
    /// order (full checkpoint on buddy assignment, and the export half of
    /// live migration).
    pub fn export_all_conns(&self, mut visit: impl FnMut(FlowKey, &TcpSocket)) {
        let mut socks: Vec<&TcpSocket> = (self.slots.iter().map(|slot| &slot.sock))
            .filter(|s| replicable(s.state()))
            .collect();
        socks.sort_unstable_by_key(|s| s.id);
        for s in socks {
            visit(flow_of(s), s);
        }
    }

    /// Install a connection from a checkpoint image (failover restore or
    /// live migration import); `None` if the bytes are not an image
    /// [`TcpSocket::checkpoint_into`] could have written. The socket gets a
    /// fresh local id — only once it is admitted, so a refused image
    /// takes no serial. Deadlines in the image are absolute sim times, so an
    /// expired deadline simply fires on the next timer tick — the
    /// retransmission that resyncs the peer.
    pub fn restore_conn(&mut self, img: &[u8]) -> Option<Result<SocketId, TcpError>> {
        let mut sock = TcpSocket::from_checkpoint(SocketId(0), &self.cfg, img)?;
        let flow = flow_of(&sock);
        if self.conns.contains_key(&flow) {
            return Some(Err(TcpError::AddrInUse));
        }
        if !self.budget.admit(base_conn_cost(sock.cc.algo())) {
            return Some(Err(TcpError::NoMemory));
        }
        let Some(id) = self.slots.alloc_conn_id() else {
            return Some(Err(TcpError::NoMemory));
        };
        self.migrated_out.remove(&flow);
        sock.id = id;
        self.install_socket(flow, sock, None);
        Some(Ok(id))
    }

    /// Silently remove a connection that was migrated to another replica:
    /// no FIN, no RST, no user event — the flow lives on elsewhere. The
    /// flow key is quarantined so late in-flight segments are dropped
    /// rather than RST'd.
    pub fn remove_conn(&mut self, id: SocketId) -> bool {
        let flow = self.detach(id);
        self.migrated_out.extend(flow);
        flow.is_some()
    }
}

#[cfg(test)]
#[path = "stack_tests.rs"]
mod tests;
