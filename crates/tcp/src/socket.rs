//! The per-connection TCP coordinator (RFC 793 + RFC 5681 + RFC 6298).
//!
//! A [`TcpSocket`] is driven by three stimuli — inbound segments, timer
//! expiry, and user calls — and produces outbound segments via
//! [`TcpSocket::poll_transmit`] plus user-visible [`SockEvent`]s. It never
//! touches anything outside itself: the owning stack does demultiplexing,
//! port allocation, and wire I/O.
//!
//! The protocol logic itself lives in four owned-state components under
//! [`crate::components`] — connection management, reliability, flow
//! control, and congestion control. This file holds only the coordinator:
//! the struct, its constructors, user-facing operations, and the routing
//! that sequences component steps for each stimulus (see DESIGN.md's
//! "TCP component map" for the ownership table).

use crate::components::{self, CongestionControl, ConnMgmt, FlowControl, Reliability};
use crate::types::{SockEvent, SockOpt, SockOptKind, SocketId, TcpConfig, TcpError, TcpState};
use neat_net::{SeqNum, TcpHeader};
use std::net::Ipv4Addr;

/// The window-scale shift we advertise on SYN segments.
pub(crate) const OUR_WSCALE: u8 = 7;

/// Flat estimate for the boxed congestion-controller state (every
/// controller is a handful of words; the box allocation dominates).
const CC_BOX_BYTES: usize = 64;

/// One end of a TCP connection: a thin coordinator over the four
/// components, owning only identity, configuration, and statistics.
#[derive(Debug)]
pub struct TcpSocket {
    pub id: SocketId,
    pub(crate) cfg: TcpConfig,

    pub local_ip: Ipv4Addr,
    pub local_port: u16,
    pub remote_ip: Ipv4Addr,
    pub remote_port: u16,

    /// Effective MSS: min(ours, peer's option). Shared by every
    /// component, so the coordinator owns it.
    pub(crate) mss: u16,

    /// Connection management: the RFC 793 state machine.
    pub(crate) cm: ConnMgmt,
    /// Reliability: retransmit queue, RTO, dup-ack tracking.
    pub(crate) rel: Reliability,
    /// Flow control: receive path, windows, ACK generation.
    pub(crate) fc: FlowControl,
    /// Congestion control: the event-driven controller.
    pub(crate) cc: Box<dyn CongestionControl>,

    /// Queued user-visible events, drained by the stack.
    pub events: Vec<SockEvent>,
    /// Error recorded at abort time.
    pub error: Option<TcpError>,

    // --- statistics (exposed for experiments) ---
    pub tx_segments: u64,
    pub rx_segments: u64,
    pub retransmits: u64,

    /// Footprint last reported to the stack's `ConnBudget`; the stack
    /// keeps the budget in sync by delta against this.
    accounted: usize,
}

impl TcpSocket {
    pub(crate) fn new(id: SocketId, cfg: &TcpConfig, iss: SeqNum) -> TcpSocket {
        TcpSocket {
            id,
            cfg: cfg.clone(),
            local_ip: Ipv4Addr::UNSPECIFIED,
            local_port: 0,
            remote_ip: Ipv4Addr::UNSPECIFIED,
            remote_port: 0,
            mss: cfg.mss,
            cm: ConnMgmt::new(iss),
            rel: Reliability::new(iss, cfg),
            fc: FlowControl::new(cfg),
            cc: components::make(cfg.congestion, cfg.mss),
            events: Vec::new(),
            error: None,
            tx_segments: 0,
            rx_segments: 0,
            retransmits: 0,
            accounted: 0,
        }
    }

    /// Approximate resident footprint of this connection: the socket
    /// struct plus every heap allocation it owns (buffer *capacities*,
    /// not configured limits — idle connections stay near
    /// `size_of::<TcpSocket>()`).
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<TcpSocket>()
            + self.rel.send_buf.heap_bytes()
            + self.fc.recv_buf.heap_bytes()
            + self.fc.asm.heap_bytes()
            + self.events.capacity() * std::mem::size_of::<SockEvent>()
            + CC_BOX_BYTES
    }

    /// Record `new` as the budget-accounted footprint, returning the
    /// previous value (stack-internal delta accounting).
    pub(crate) fn swap_accounted(&mut self, new: usize) -> usize {
        std::mem::replace(&mut self.accounted, new)
    }

    /// Create a socket performing an active open (client side).
    pub fn connect(
        id: SocketId,
        cfg: &TcpConfig,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: SeqNum,
        now: u64,
    ) -> TcpSocket {
        let mut s = TcpSocket::new(id, cfg, iss);
        s.local_ip = local.0;
        s.local_port = local.1;
        s.remote_ip = remote.0;
        s.remote_port = remote.1;
        s.cm.state = TcpState::SynSent;
        s.arm_rtx(now);
        s
    }

    /// Create a socket from a received SYN (passive open — the stack's
    /// listener calls this for each backlog entry).
    pub fn accept_from_syn(
        id: SocketId,
        cfg: &TcpConfig,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        syn: &TcpHeader,
        iss: SeqNum,
        now: u64,
    ) -> TcpSocket {
        let mut s = TcpSocket::new(id, cfg, iss);
        s.local_ip = local.0;
        s.local_port = local.1;
        s.remote_ip = remote.0;
        s.remote_port = remote.1;
        s.cm.state = TcpState::SynReceived;
        s.cm.irs = syn.seq;
        s.fc.rcv_nxt = syn.seq + 1;
        if let Some(peer_mss) = syn.mss {
            s.mss = s.mss.min(peer_mss);
        }
        if let Some(ws) = syn.window_scale {
            s.fc.snd_wscale = ws;
            s.fc.rcv_wscale = OUR_WSCALE;
        }
        s.fc.snd_wnd = (syn.window as usize) << s.fc.snd_wscale;
        s.fc.snd_wl1 = syn.seq;
        s.fc.snd_wl2 = SeqNum(0);
        s.arm_rtx(now);
        s
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn state(&self) -> TcpState {
        self.cm.state
    }

    pub fn snd_una(&self) -> SeqNum {
        self.rel.send_buf.base()
    }

    pub fn bytes_in_flight(&self) -> usize {
        (self.rel.snd_nxt - self.snd_una()).max(0) as usize
    }

    pub fn recv_available(&self) -> usize {
        self.fc.recv_buf.len()
    }

    pub fn send_room(&self) -> usize {
        self.rel.send_buf.room()
    }

    /// Peer closed and all data has been drained — EOF for the app.
    pub fn at_eof(&self) -> bool {
        self.cm.peer_fin_rcvd && self.fc.recv_buf.is_empty()
    }

    // ------------------------------------------------------------------
    // User operations
    // ------------------------------------------------------------------

    /// Enqueue user data; returns bytes accepted.
    pub fn send(&mut self, data: &[u8]) -> Result<usize, TcpError> {
        if !self.cm.state.can_send() || self.cm.close_requested {
            return Err(TcpError::BadState);
        }
        let n = self.rel.send_buf.push(data);
        if n == 0 {
            return Err(TcpError::WouldBlock);
        }
        Ok(n)
    }

    /// Read received data; 0 bytes at EOF (peer closed and drained).
    pub fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TcpError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let n = self.fc.recv_buf.read(buf);
        if n == 0 && !self.at_eof() {
            return Err(TcpError::WouldBlock);
        }
        // Window may have reopened substantially: let the peer know soon.
        if n > 0 && self.fc.recv_buf.window() >= self.mss as usize * 2 {
            self.fc.ack_pending = self.fc.ack_pending.max(1);
        }
        Ok(n)
    }

    /// Apply a per-socket option (the stack's `set_opt` routes here).
    pub fn set_opt(&mut self, opt: SockOpt) {
        match opt {
            SockOpt::CongestionAlgo(algo) => {
                // Switching algorithms restarts from slow-start parameters;
                // re-selecting the current one is a no-op so tuning via
                // `InitialCwnd` survives redundant sets.
                if self.cc.algo() != algo {
                    self.cc = components::make(algo, self.mss);
                }
            }
            SockOpt::InitialCwnd(segs) => {
                self.cc.set_cwnd(segs as usize * self.mss as usize);
            }
            SockOpt::RecvBuf(cap) => {
                self.fc.recv_buf.set_cap(cap);
                self.fc.asm.set_cap(cap);
            }
        }
    }

    /// Read back the current value of an option kind.
    pub fn get_opt(&self, kind: SockOptKind) -> Option<SockOpt> {
        Some(match kind {
            SockOptKind::CongestionAlgo => SockOpt::CongestionAlgo(self.cc.algo()),
            SockOptKind::InitialCwnd => {
                SockOpt::InitialCwnd((self.cc.cwnd() / self.mss.max(1) as usize) as u32)
            }
            SockOptKind::RecvBuf => SockOpt::RecvBuf(self.fc.recv_buf.cap()),
        })
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest instant this socket needs a timer callback.
    pub fn next_timeout(&self) -> Option<u64> {
        [
            self.rel.rtx_deadline,
            self.fc.ack_deadline,
            self.cm.time_wait_deadline,
            self.fc.probe_deadline,
            self.cm.keepalive_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Process timer expirations at `now`, routing each deadline to the
    /// component that owns it.
    pub fn on_timer(&mut self, now: u64) {
        if let Some(d) = self.cm.time_wait_deadline {
            if now >= d {
                self.cm.time_wait_deadline = None;
                self.cm.state = TcpState::Closed;
                self.events.push(SockEvent::Closed(self.id));
                return;
            }
        }
        if let Some(d) = self.rel.rtx_deadline {
            if now >= d {
                self.handle_rto(now);
            }
        }
        if let Some(d) = self.fc.ack_deadline {
            if now >= d {
                self.fc.ack_deadline = None;
                if self.fc.ack_pending > 0 {
                    self.fc.ack_now = true;
                }
            }
        }
        if let Some(d) = self.fc.probe_deadline {
            if now >= d {
                // Zero-window probe: retransmit one byte at snd_una.
                self.fc.probe_deadline = Some(now + self.rel.rtt.rto().max(1_000_000));
                self.rel.rtx_now = true;
            }
        }
        if let Some(d) = self.cm.keepalive_deadline {
            if now >= d && self.cm.state == TcpState::Established {
                self.cm.keepalive_deadline = Some(now + self.cfg.keepalive_ns);
                self.fc.ack_now = true; // keepalive = duplicate ACK probe
            }
        }
    }

    // ------------------------------------------------------------------
    // Segment arrival
    // ------------------------------------------------------------------

    /// Handle one inbound segment addressed to this connection.
    pub fn on_segment(&mut self, h: &TcpHeader, payload: &[u8], now: u64) {
        self.rx_segments += 1;
        match self.cm.state {
            TcpState::Closed => {}
            TcpState::SynSent => self.on_segment_syn_sent(h, now),
            _ => self.on_segment_synchronized(h, payload, now),
        }
    }

    /// RFC 793 segment-arrival steps in a synchronized state, each routed
    /// to its owning component: acceptability and windows to flow
    /// control, ACKs to reliability, RST/SYN/FIN to connection
    /// management.
    fn on_segment_synchronized(&mut self, h: &TcpHeader, payload: &[u8], now: u64) {
        let seg_len = h.seq_len(payload.len());

        // Step 1: sequence acceptability (flow control).
        if !self.seq_acceptable(h, seg_len) {
            if !h.flags.rst {
                self.fc.ack_now = true; // re-ACK to resync the peer
            }
            return;
        }

        // Step 2: RST (connection management).
        if h.flags.rst {
            match self.cm.state {
                TcpState::SynReceived => self.enter_closed(TcpError::Reset, true),
                TcpState::TimeWait | TcpState::LastAck | TcpState::Closing => {
                    self.enter_closed(TcpError::Reset, false)
                }
                _ => self.enter_closed(TcpError::Reset, true),
            }
            return;
        }

        // Step 4: SYN in window is an error.
        if h.flags.syn && h.seq != self.cm.irs {
            self.enter_closed(TcpError::Reset, true);
            return;
        }

        // Step 5: ACK processing — passive-open completion (connection
        // management), then cumulative/duplicate ACKs (reliability).
        if !h.flags.ack {
            return;
        }
        if self.cm.state == TcpState::SynReceived && !self.establish_syn_received(h, now) {
            return;
        }
        if !self.process_ack(h, payload, now) {
            return;
        }

        // Step 6: window update (flow control).
        self.process_window_update(h, now);

        // Step 7: payload (flow control).
        self.process_payload(h, payload, now);

        // Step 8: FIN (connection management).
        self.process_fin(h, payload, now);
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Produce the next segment to transmit, if any. Call repeatedly until
    /// `None`. Payload is returned separately from the header.
    pub fn poll_transmit(&mut self, now: u64) -> Option<(TcpHeader, Vec<u8>)> {
        let (h, len) = self.poll_segment(now)?;
        Some((h, self.rel.send_buf.peek(h.seq, len)))
    }

    /// The next segment's header and payload length; the payload itself
    /// stays in the send buffer, at `h.seq`, for the caller to copy once
    /// to where it is going. Each state routes to the component that owns
    /// the segment type.
    pub(crate) fn poll_segment(&mut self, now: u64) -> Option<(TcpHeader, usize)> {
        match self.cm.state {
            TcpState::Closed => self.transmit_rst(),
            TcpState::SynSent => self.transmit_syn(now),
            TcpState::SynReceived => self.transmit_syn_ack(now),
            TcpState::TimeWait => {
                if self.fc.ack_now {
                    self.fc.ack_now = false;
                    self.fc.ack_pending = 0;
                    return Some((self.bare_ack(), 0));
                }
                None
            }
            _ => self.poll_transmit_data(now),
        }
    }

    /// Synchronized-state transmit priority: retransmission, then new
    /// data (reliability), then FIN (connection management), then a pure
    /// ACK (flow control).
    fn poll_transmit_data(&mut self, now: u64) -> Option<(TcpHeader, usize)> {
        if let Some(seg) = self.rtx_transmit() {
            return Some(seg);
        }
        if let Some(seg) = self.transmit_new_data(now) {
            return Some(seg);
        }
        if let Some(seg) = self.transmit_fin(now) {
            return Some(seg);
        }
        self.transmit_pure_ack()
    }
}

#[cfg(test)]
#[path = "socket_tests.rs"]
pub(crate) mod tests;
