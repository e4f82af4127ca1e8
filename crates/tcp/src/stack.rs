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
//! * flow demux goes through the flat hashed [`DemuxTable`] — O(1) per
//!   segment, no per-node allocation (see `demux.rs`);
//! * all per-socket deadlines live in one hierarchical [`TimerWheel`] —
//!   O(1) arm/cancel, cascade on demand (see `wheel.rs`);
//! * listener lookup by id is a hash probe, not a scan;
//! * closed sockets are reaped inline at their quiescence point instead
//!   of by an O(all sockets) sweep on every timer tick;
//! * per-connection memory is delta-accounted into a [`ConnBudget`] and
//!   optionally bounded (`TcpConfig::conn_memory_limit`).

use crate::budget::ConnBudget;
use crate::demux::DemuxTable;
use crate::socket::TcpSocket;
use crate::tcb::TcbImage;
use crate::types::{
    Readiness, SockEvent, SockOpt, SockOptKind, SocketId, TcpConfig, TcpError, TcpState,
};
use crate::wheel::TimerWheel;
use neat_net::{FlowKey, SeqNum, TcpFlags, TcpHeader};
use neat_util::{FxHashMap, FxHashSet};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// A listening socket: subsockets of the paper's replicated listeners map
/// to one `Listener` in each replica's stack.
#[derive(Debug)]
struct Listener {
    id: SocketId,
    port: u16,
    /// Connections past the handshake, ready for `accept`.
    accept_q: VecDeque<SocketId>,
    /// Connections still in SYN-RECEIVED.
    syn_backlog: usize,
}

/// Aggregate statistics for the experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackStats {
    pub rx_segments: u64,
    pub tx_segments: u64,
    pub rst_sent: u64,
    pub conns_opened: u64,
    pub conns_accepted: u64,
    pub demux_misses: u64,
}

/// Handles into the global `neat_obs` registry, mirroring the per-stack
/// [`StackStats`] as process-wide aggregates (all stack instances of the
/// simulation sum into the same named counters).
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

/// Rough first-touch footprint of a connection, used for budget
/// admission before the socket exists.
fn base_conn_cost() -> u64 {
    (std::mem::size_of::<TcpSocket>() + 64) as u64
}

/// One isolated TCP stack instance.
#[derive(Debug)]
pub struct TcpStack {
    pub local_ip: Ipv4Addr,
    cfg: TcpConfig,
    sockets: FxHashMap<SocketId, TcpSocket>,
    /// Established/opening connections by flow (remote side as src):
    /// the O(1) hashed TCB table every inbound segment resolves through.
    conns: DemuxTable,
    listeners: FxHashMap<u16, Listener>,
    /// Listener id -> port (O(1) accept/acceptable/poll by id).
    listener_of: FxHashMap<SocketId, u16>,
    /// Which listener a pending (not yet accepted) socket belongs to.
    pending_of: FxHashMap<SocketId, u16>,
    next_id: u64,
    next_port: u16,
    port_lo: u16,
    port_hi: u16,
    iss_counter: u32,
    /// Sockets that may have segments to transmit.
    dirty: VecDeque<SocketId>,
    dirty_set: FxHashSet<SocketId>,
    /// Raw segments owed to peers with no socket (RSTs).
    raw_out: VecDeque<(Ipv4Addr, TcpHeader, Vec<u8>)>,
    /// User-visible events.
    events: VecDeque<SockEvent>,
    /// One armed deadline per socket, hierarchically hashed.
    timers: TimerWheel,
    /// Accounted connection memory (and the optional bound on it).
    budget: ConnBudget,
    /// Checkpoint-delta tracking for buddy replication: every socket that
    /// was touched since the last [`TcpStack::take_repl_dirty`] drain.
    repl_track: bool,
    repl_dirty: FxHashSet<SocketId>,
    /// Flows that closed since the last drain (buddy forgets them).
    repl_closed: Vec<FlowKey>,
    /// Flows handed to another replica: late segments for them are dropped
    /// silently instead of answered with a RST that would kill the
    /// migrated connection. A fresh SYN lifts the quarantine.
    migrated_out: FxHashSet<FlowKey>,
    pub stats: StackStats,
    obs: StackObs,
}

impl TcpStack {
    pub fn new(local_ip: Ipv4Addr, cfg: TcpConfig) -> TcpStack {
        // Key the demux hash off the local address: deterministic for a
        // fixed topology, distinct between stack instances.
        let demux_key = 0x9e37_79b9_7f4a_7c15u64 ^ ((u32::from(local_ip) as u64) << 17);
        let budget = ConnBudget::new(cfg.conn_memory_limit);
        TcpStack {
            local_ip,
            cfg,
            sockets: FxHashMap::default(),
            conns: DemuxTable::new(demux_key),
            listeners: FxHashMap::default(),
            listener_of: FxHashMap::default(),
            pending_of: FxHashMap::default(),
            next_id: 1,
            next_port: 49_152,
            port_lo: 49_152,
            port_hi: 65_535,
            iss_counter: 0x1234_5678,
            dirty: VecDeque::new(),
            dirty_set: FxHashSet::default(),
            raw_out: VecDeque::new(),
            events: VecDeque::new(),
            timers: TimerWheel::new(0),
            budget,
            repl_track: false,
            repl_dirty: FxHashSet::default(),
            repl_closed: Vec::new(),
            migrated_out: FxHashSet::default(),
            stats: StackStats::default(),
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

    fn alloc_id(&mut self) -> SocketId {
        let id = SocketId(self.next_id);
        self.next_id += 1;
        id
    }

    fn next_iss(&mut self) -> SeqNum {
        // Deterministic ISS spacing (RFC 793's clock-driven ISS is
        // irrelevant inside the simulation).
        self.iss_counter = self.iss_counter.wrapping_add(64_021);
        SeqNum(self.iss_counter)
    }

    fn mark_dirty(&mut self, id: SocketId) {
        if self.dirty_set.insert(id) {
            self.dirty.push_back(id);
        }
        if self.repl_track {
            self.repl_dirty.insert(id);
        }
    }

    /// (Re-)arm the wheel with the socket's earliest deadline, or disarm
    /// when it no longer needs one. O(1) either way.
    fn arm_timer(&mut self, id: SocketId) {
        match self.sockets.get(&id).and_then(|s| s.next_timeout()) {
            Some(d) => self.timers.schedule(id.0, d),
            None => {
                self.timers.cancel(id.0);
            }
        }
    }

    /// Bring the budget in sync with the socket's current footprint.
    fn account(&mut self, id: SocketId) {
        if let Some(s) = self.sockets.get_mut(&id) {
            let new = s.mem_bytes();
            let old = s.swap_accounted(new);
            self.budget.adjust(new as i64 - old as i64);
        }
    }

    /// Register a freshly created connection socket.
    fn install_socket(&mut self, flow: FlowKey, mut sock: TcpSocket) {
        let id = sock.id;
        let bytes = sock.mem_bytes();
        sock.swap_accounted(bytes);
        self.budget.on_open(bytes as u64);
        self.conns.insert(flow, id);
        self.sockets.insert(id, sock);
        self.mark_dirty(id);
        self.arm_timer(id);
    }

    // ------------------------------------------------------------------
    // User API (BSD-socket shaped)
    // ------------------------------------------------------------------

    /// Open a listening socket on `port`.
    pub fn listen(&mut self, port: u16) -> Result<SocketId, TcpError> {
        if self.listeners.contains_key(&port) {
            return Err(TcpError::AddrInUse);
        }
        let id = self.alloc_id();
        self.listeners.insert(
            port,
            Listener {
                id,
                port,
                accept_q: VecDeque::new(),
                syn_backlog: 0,
            },
        );
        self.listener_of.insert(id, port);
        Ok(id)
    }

    /// Stop listening on a port (existing connections are unaffected).
    pub fn unlisten(&mut self, port: u16) {
        if let Some(l) = self.listeners.remove(&port) {
            self.listener_of.remove(&l.id);
        }
    }

    /// Active open to `remote`. Returns the new socket id; the
    /// [`SockEvent::Connected`] event fires when the handshake completes.
    pub fn connect(
        &mut self,
        remote_ip: Ipv4Addr,
        remote_port: u16,
        now: u64,
    ) -> Result<SocketId, TcpError> {
        if !self.budget.admit(base_conn_cost()) {
            return Err(TcpError::NoMemory);
        }
        let port = self.alloc_ephemeral(remote_ip, remote_port)?;
        let id = self.alloc_id();
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
        self.install_socket(flow, sock);
        self.stats.conns_opened += 1;
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
        self.pending_of.remove(&id);
        self.stats.conns_accepted += 1;
        self.obs.conns_accepted.inc();
        Ok(id)
    }

    /// Number of connections ready to accept on a listener.
    pub fn acceptable(&self, listener: SocketId) -> usize {
        self.listener_of
            .get(&listener)
            .and_then(|port| self.listeners.get(port))
            .map(|l| l.accept_q.len())
            .unwrap_or(0)
    }

    pub fn send(&mut self, id: SocketId, data: &[u8]) -> Result<usize, TcpError> {
        let s = self.sockets.get_mut(&id).ok_or(TcpError::NoSocket)?;
        let r = s.send(data);
        if r.is_ok() {
            self.mark_dirty(id);
            self.account(id);
        }
        r
    }

    pub fn recv(&mut self, id: SocketId, buf: &mut [u8]) -> Result<usize, TcpError> {
        let s = self.sockets.get_mut(&id).ok_or(TcpError::NoSocket)?;
        let r = s.recv(buf);
        if r.is_ok() {
            self.mark_dirty(id); // window update may be owed
            self.account(id);
        }
        r
    }

    /// Vectored receive: fill `bufs` in order from the receive buffer in a
    /// single call (the iovec-shaped variant the batched delivery path
    /// uses — one call drains what N per-segment wakeups used to).
    /// Returns total bytes read; `Ok(0)` means EOF.
    pub fn recv_vectored(
        &mut self,
        id: SocketId,
        bufs: &mut [&mut [u8]],
    ) -> Result<usize, TcpError> {
        let s = self.sockets.get_mut(&id).ok_or(TcpError::NoSocket)?;
        let mut total = 0usize;
        for buf in bufs.iter_mut() {
            match s.recv(buf) {
                Ok(0) => break, // EOF — nothing more will come
                Ok(n) => {
                    total += n;
                    if n < buf.len() {
                        break; // receive buffer drained
                    }
                }
                Err(TcpError::WouldBlock) => {
                    if total == 0 {
                        return Err(TcpError::WouldBlock);
                    }
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if total > 0 {
            self.mark_dirty(id); // window update may be owed
            self.account(id);
        }
        Ok(total)
    }

    /// Unified non-blocking readiness query (the one API `poll(fd)`
    /// surfaces sit on). Works for listeners (readable == accept ready)
    /// and connections alike; unknown ids read as pure hang-up.
    pub fn poll(&self, id: SocketId) -> Readiness {
        if let Some(l) = self
            .listener_of
            .get(&id)
            .and_then(|port| self.listeners.get(port))
        {
            return Readiness {
                readable: !l.accept_q.is_empty(),
                writable: false,
                hup: false,
            };
        }
        match self.sockets.get(&id) {
            Some(s) => {
                let st = s.state();
                Readiness {
                    readable: s.recv_available() > 0 || s.at_eof(),
                    writable: st.can_send() && s.send_room() > 0,
                    hup: s.at_eof() || st.is_closed(),
                }
            }
            None => Readiness {
                readable: false,
                writable: false,
                hup: true,
            },
        }
    }

    /// Apply a per-socket option ([`SockOpt`]): switch the congestion
    /// controller, override the initial cwnd, or resize the receive
    /// buffer. Takes effect immediately on the live connection.
    pub fn set_opt(&mut self, id: SocketId, opt: SockOpt) -> Result<(), TcpError> {
        let s = self.sockets.get_mut(&id).ok_or(TcpError::NoSocket)?;
        s.set_opt(opt);
        self.mark_dirty(id); // cc algo / buffers are replicated state
        self.account(id);
        Ok(())
    }

    /// Read back the current value of a per-socket option.
    pub fn get_opt(&self, id: SocketId, kind: SockOptKind) -> Result<SockOpt, TcpError> {
        let s = self.sockets.get(&id).ok_or(TcpError::NoSocket)?;
        s.get_opt(kind).ok_or(TcpError::NoSocket)
    }

    pub fn close(&mut self, id: SocketId, now: u64) -> Result<(), TcpError> {
        let s = self.sockets.get_mut(&id).ok_or(TcpError::NoSocket)?;
        s.close(now);
        self.mark_dirty(id);
        self.arm_timer(id);
        Ok(())
    }

    pub fn abort(&mut self, id: SocketId) -> Result<(), TcpError> {
        let s = self.sockets.get_mut(&id).ok_or(TcpError::NoSocket)?;
        s.abort();
        self.mark_dirty(id);
        Ok(())
    }

    pub fn state(&self, id: SocketId) -> Option<TcpState> {
        self.sockets.get(&id).map(|s| s.state())
    }

    pub fn recv_available(&self, id: SocketId) -> usize {
        self.sockets
            .get(&id)
            .map(|s| s.recv_available())
            .unwrap_or(0)
    }

    pub fn send_room(&self, id: SocketId) -> usize {
        self.sockets.get(&id).map(|s| s.send_room()).unwrap_or(0)
    }

    pub fn at_eof(&self, id: SocketId) -> bool {
        self.sockets.get(&id).map(|s| s.at_eof()).unwrap_or(true)
    }

    /// Live (non-listener) connection count — drives the lazy-termination
    /// GC of §3.4.
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
    pub fn publish_mem_gauges(&self) {
        self.budget.publish();
    }

    // ------------------------------------------------------------------
    // Wire input
    // ------------------------------------------------------------------

    /// Handle one TCP segment (post-IP). `src`/`dst` are the IPv4 addresses
    /// from the IP header; the caller has already validated those.
    pub fn handle_segment(&mut self, src: Ipv4Addr, h: &TcpHeader, payload: &[u8], now: u64) {
        self.stats.rx_segments += 1;
        self.obs.rx_segments.inc();
        let flow = FlowKey::tcp(src, h.src_port, self.local_ip, h.dst_port);
        if let Some(id) = self.conns.get(&flow) {
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
                self.stats.demux_misses += 1;
                return;
            }
        }
        // No connection: maybe a listener (SYN only).
        if h.flags.syn && !h.flags.ack {
            if let Some(l) = self.listeners.get_mut(&h.dst_port) {
                if l.syn_backlog + l.accept_q.len() >= self.cfg.backlog {
                    // Backlog overflow: drop the SYN (retry will come).
                    self.stats.demux_misses += 1;
                    neat_obs::counter_add("tcp.syn_dropped", 1);
                    return;
                }
                let lport = l.port;
                if !self.budget.admit(base_conn_cost()) {
                    // Out of connection memory: shed exactly like a
                    // backlog overflow.
                    self.stats.demux_misses += 1;
                    neat_obs::counter_add("tcp.syn_dropped", 1);
                    return;
                }
                let l = self.listeners.get_mut(&h.dst_port).unwrap();
                l.syn_backlog += 1;
                let id = self.alloc_id();
                let iss = self.next_iss();
                let sock = TcpSocket::accept_from_syn(
                    id,
                    &self.cfg,
                    (self.local_ip, lport),
                    (src, h.src_port),
                    h,
                    iss,
                    now,
                );
                self.install_socket(flow, sock);
                self.pending_of.insert(id, lport);
                return;
            }
        }
        // Nothing matches: RST (unless the segment itself is a RST).
        self.stats.demux_misses += 1;
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
            self.raw_out.push_back((src, rst, Vec::new()));
            self.stats.rst_sent += 1;
        }
    }

    fn deliver(&mut self, id: SocketId, h: &TcpHeader, payload: &[u8], now: u64) {
        let was_pending = self.pending_of.contains_key(&id);
        if let Some(s) = self.sockets.get_mut(&id) {
            let before = s.state();
            s.on_segment(h, payload, now);
            let after = s.state();
            // Handshake completed on a backlog socket → accept queue.
            if was_pending && before == TcpState::SynReceived && after == TcpState::Established {
                if let Some(port) = self.pending_of.get(&id).copied() {
                    if let Some(l) = self.listeners.get_mut(&port) {
                        l.syn_backlog = l.syn_backlog.saturating_sub(1);
                        l.accept_q.push_back(id);
                        self.events.push_back(SockEvent::Acceptable(l.id));
                    }
                }
            }
        }
        self.drain_socket_events(id);
        self.mark_dirty(id);
        self.arm_timer(id);
        self.account(id);
    }

    fn drain_socket_events(&mut self, id: SocketId) {
        let evs = match self.sockets.get_mut(&id) {
            Some(s) => std::mem::take(&mut s.events),
            None => return,
        };
        for e in evs {
            // Connected events for backlog sockets become Acceptable at the
            // listener; all others pass through.
            if matches!(e, SockEvent::Connected(_)) && self.pending_of.contains_key(&id) {
                continue; // already surfaced via Acceptable above
            }
            self.events.push_back(e);
        }
    }

    // ------------------------------------------------------------------
    // Wire output + events + timers
    // ------------------------------------------------------------------

    /// Next segment to put on the wire: `(dst_ip, header, payload)`.
    pub fn poll_transmit(&mut self, now: u64) -> Option<(Ipv4Addr, TcpHeader, Vec<u8>)> {
        if let Some(raw) = self.raw_out.pop_front() {
            self.stats.tx_segments += 1;
            self.obs.tx_segments.inc();
            return Some(raw);
        }
        while let Some(id) = self.dirty.front().copied() {
            if let Some(s) = self.sockets.get_mut(&id) {
                if let Some((h, payload)) = s.poll_transmit(now) {
                    let dst = s.remote_ip;
                    self.stats.tx_segments += 1;
                    self.obs.tx_segments.inc();
                    self.arm_timer(id);
                    return Some((dst, h, payload));
                }
            }
            self.dirty.pop_front();
            self.dirty_set.remove(&id);
            self.drain_socket_events(id);
            self.account(id);
            // A socket that drained its last segment and reached Closed
            // is quiescent here — reap it now (no global GC sweeps).
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
        for key in self.timers.advance(now) {
            let id = SocketId(key);
            if let Some(s) = self.sockets.get_mut(&id) {
                s.on_timer(now);
                self.drain_socket_events(id);
                self.mark_dirty(id);
                self.arm_timer(id);
                self.account(id);
            }
        }
    }

    /// Remove a socket if it is fully closed and quiescent: its final
    /// segments drained (not dirty) and its events surfaced. Replaces the
    /// old every-tick scan over all sockets, which was O(n) per timer at
    /// 100k+ connections.
    fn maybe_reap(&mut self, id: SocketId) {
        let dead = match self.sockets.get(&id) {
            Some(s) => {
                s.state() == TcpState::Closed
                    && !self.dirty_set.contains(&id)
                    && s.events.is_empty()
            }
            None => false,
        };
        if !dead {
            return;
        }
        if let Some(mut s) = self.sockets.remove(&id) {
            let flow = FlowKey::tcp(s.remote_ip, s.remote_port, s.local_ip, s.local_port);
            self.conns.remove(&flow);
            self.timers.cancel(id.0);
            let bytes = s.swap_accounted(0);
            self.budget.on_close(bytes as u64);
            if let Some(port) = self.pending_of.remove(&id) {
                if let Some(l) = self.listeners.get_mut(&port) {
                    l.accept_q.retain(|x| *x != id);
                }
            }
            if self.repl_track {
                self.repl_dirty.remove(&id);
                self.repl_closed.push(flow);
            }
        }
    }

    /// All live socket ids (diagnostics).
    pub fn socket_ids(&self) -> Vec<SocketId> {
        self.sockets.keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Flow replication & migration (checkpoint export / restore)
    // ------------------------------------------------------------------

    /// Turn checkpoint-delta tracking on (or off). While on, every socket
    /// touched between [`TcpStack::take_repl_dirty`] drains is remembered
    /// so the owning replica can ship incremental TCB checkpoints to its
    /// buddy.
    pub fn set_repl_tracking(&mut self, on: bool) {
        self.repl_track = on;
        if !on {
            self.repl_dirty.clear();
            self.repl_closed.clear();
        }
    }

    /// Drain the set of sockets touched since the last call, as
    /// `(id, flow, image)` checkpoints. Only states that carry resumable
    /// stream state are exported; handshake-phase sockets re-handshake on
    /// their own. Sorted by socket id for deterministic replication
    /// traffic.
    pub fn take_repl_dirty(&mut self) -> Vec<(SocketId, FlowKey, TcbImage)> {
        if self.repl_dirty.is_empty() {
            return Vec::new();
        }
        let mut ids: Vec<SocketId> = self.repl_dirty.drain().collect();
        ids.sort_unstable();
        let mut out = Vec::new();
        for id in ids {
            if let Some(s) = self.sockets.get(&id) {
                if TcbImage::replicable(s.state()) {
                    let flow = FlowKey::tcp(s.remote_ip, s.remote_port, s.local_ip, s.local_port);
                    out.push((id, flow, s.snapshot()));
                }
            }
        }
        out
    }

    /// Drain the flows that fully closed since the last call (the buddy
    /// drops its copy so the replica store stays bounded).
    pub fn take_repl_closed(&mut self) -> Vec<FlowKey> {
        std::mem::take(&mut self.repl_closed)
    }

    /// Checkpoint every replicable connection (full checkpoint on buddy
    /// assignment, and the export half of live migration). Sorted by
    /// socket id for determinism.
    pub fn export_all_conns(&self) -> Vec<(SocketId, FlowKey, TcbImage)> {
        let mut ids: Vec<SocketId> = self
            .sockets
            .keys()
            .copied()
            .filter(|id| !self.listener_of.contains_key(id))
            .collect();
        ids.sort_unstable();
        let mut out = Vec::new();
        for id in ids {
            let s = &self.sockets[&id];
            if TcbImage::replicable(s.state()) {
                let flow = FlowKey::tcp(s.remote_ip, s.remote_port, s.local_ip, s.local_port);
                out.push((id, flow, s.snapshot()));
            }
        }
        out
    }

    /// Install a connection from a checkpoint (failover restore or live
    /// migration import). The socket gets a fresh local id; deadlines in
    /// the image are absolute sim times, so an expired deadline simply
    /// fires on the next timer tick — the retransmission that resyncs the
    /// peer.
    pub fn restore_conn(&mut self, img: &TcbImage) -> Result<SocketId, TcpError> {
        let flow = FlowKey::tcp(img.remote_ip, img.remote_port, img.local_ip, img.local_port);
        if self.conns.contains_key(&flow) {
            return Err(TcpError::AddrInUse);
        }
        if !self.budget.admit(base_conn_cost()) {
            return Err(TcpError::NoMemory);
        }
        self.migrated_out.remove(&flow);
        let id = self.alloc_id();
        let sock = TcpSocket::restore(id, &self.cfg, img);
        self.install_socket(flow, sock);
        self.stats.conns_opened += 1;
        Ok(id)
    }

    /// Silently remove a connection that was migrated to another replica:
    /// no FIN, no RST, no user event — the flow lives on elsewhere. The
    /// flow key is quarantined so late in-flight segments are dropped
    /// rather than RST'd.
    pub fn remove_conn(&mut self, id: SocketId) -> bool {
        let Some(mut s) = self.sockets.remove(&id) else {
            return false;
        };
        let flow = FlowKey::tcp(s.remote_ip, s.remote_port, s.local_ip, s.local_port);
        self.conns.remove(&flow);
        self.timers.cancel(id.0);
        let bytes = s.swap_accounted(0);
        self.budget.on_close(bytes as u64);
        self.pending_of.remove(&id);
        self.repl_dirty.remove(&id);
        self.migrated_out.insert(flow);
        true
    }
}

#[cfg(test)]
#[path = "stack_tests.rs"]
mod tests;
