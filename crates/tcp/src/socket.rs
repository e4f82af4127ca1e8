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
//! the struct, its constructors, accessors, the controller switch, and the
//! routing that sequences component steps for each stimulus. It writes no
//! component's fields (CI's `tcp_owner_guard`; DESIGN.md's "TCP component
//! map" has the ownership table and the rule).

use crate::components::{self, CongestionControl, ConnMgmt, Controller, FlowControl, Reliability};
use crate::deadline::Deadline;
use crate::types::{CongestionAlgo, SockEvent, SocketId, TcpConfig, TcpError, TcpState};
use neat_net::tcp::MSS;
use neat_net::{SeqNum, TcpHeader};
use std::net::Ipv4Addr;

/// The window-scale shift we advertise on SYN segments.
pub(crate) const OUR_WSCALE: u8 = 7;

/// One end of a TCP connection: a thin coordinator over the four
/// components, owning only its identity.
///
/// It keeps no copy of its stack's [`TcpConfig`]: the stack-wide settings
/// a stimulus reads (keepalive and TIME-WAIT durations, the delayed-ACK
/// delay, Nagle, the GSO burst) are handed in with it — the `*_under`
/// forms of [`Self::on_segment`], [`Self::on_timer`] and
/// [`Self::poll_transmit`]. The plain forms run a socket on its own under
/// the default settings. The constructors read only what a socket starts
/// from: the controller and the initial RTO.
#[derive(Debug)]
pub struct TcpSocket {
    pub id: SocketId,

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
    /// Congestion control: the event-driven controller, Reno in place.
    pub(crate) cc: Controller,

    /// Queued user-visible events, drained by the stack.
    pub events: Vec<SockEvent>,
    /// Error recorded at abort time.
    pub error: Option<TcpError>,

    /// Footprint last reported to the stack's `ConnBudget`; the stack
    /// keeps the budget in sync by delta against this.
    accounted: usize,
}

impl TcpSocket {
    /// A socket at `local`/`remote` in CLOSED holding `cc`, its RTO at
    /// `cfg`'s initial one: the opens (with `cfg`'s controller) and the
    /// checkpoint decoder start here.
    pub(crate) fn new(
        id: SocketId,
        cfg: &TcpConfig,
        iss: SeqNum,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cc: Controller,
    ) -> TcpSocket {
        TcpSocket {
            id,
            local_ip: local.0,
            local_port: local.1,
            remote_ip: remote.0,
            remote_port: remote.1,
            mss: MSS,
            cm: ConnMgmt::new(iss),
            rel: Reliability::new(iss, cfg),
            fc: FlowControl::new(),
            cc,
            events: Vec::new(),
            error: None,
            accounted: 0,
        }
    }

    /// Approximate resident footprint of this connection: the socket
    /// struct plus every heap allocation it owns (buffer *capacities*,
    /// not configured limits). A ring keeps its storage only while it
    /// holds a byte — the stack parks a drained one's — so a connection
    /// at rest is the struct, its assembler's and event list's capacities
    /// and the controller's box, which a Reno socket does not have.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<TcpSocket>()
            + self.rel.send_buf.heap_bytes()
            + self.fc.recv_buf.heap_bytes()
            + self.fc.asm.heap_bytes()
            + self.events.capacity() * std::mem::size_of::<SockEvent>()
            + self.cc.heap_bytes()
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
        let cc = components::make(cfg.congestion, MSS);
        let mut s = TcpSocket::new(id, cfg, iss, local, remote, cc);
        s.open(TcpState::SynSent, now);
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
        let cc = components::make(cfg.congestion, MSS);
        let mut s = TcpSocket::new(id, cfg, iss, local, remote, cc);
        // A passive open has no ACK to take `snd_wl2` from.
        s.take_peer_syn(syn, SeqNum(0));
        s.open(TcpState::SynReceived, now);
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

    /// Peer closed and all data has been drained — EOF for the app.
    pub fn at_eof(&self) -> bool {
        self.cm.peer_fin_rcvd && self.fc.recv_buf.is_empty()
    }

    // ------------------------------------------------------------------
    // Congestion controller
    // ------------------------------------------------------------------

    /// Switch this connection's congestion controller (the stack's
    /// `set_congestion` routes here). A switch restarts from slow-start
    /// parameters; re-selecting the current algorithm keeps its state.
    pub fn set_congestion(&mut self, algo: CongestionAlgo) {
        if self.cc.algo() != algo {
            self.cc = components::make(algo, self.mss);
        }
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
        .min()
        .and_then(Deadline::get)
    }

    /// [`Self::on_timer_under`] the default settings.
    pub fn on_timer(&mut self, now: u64) {
        self.on_timer_under(&TcpConfig::DEFAULT, now);
    }

    /// Process timer expirations at `now` in a stack whose settings are
    /// `cfg`, handing each deadline to the component that owns it.
    pub fn on_timer_under(&mut self, cfg: &TcpConfig, now: u64) {
        if self.on_time_wait_timer(now) {
            return;
        }
        self.on_rtx_timer(now);
        self.on_flow_timers(now);
        self.on_keepalive_timer(cfg, now);
    }

    // ------------------------------------------------------------------
    // Segment arrival
    // ------------------------------------------------------------------

    /// [`Self::on_segment_under`] the default settings.
    pub fn on_segment(&mut self, h: &TcpHeader, payload: &[u8], now: u64) {
        self.on_segment_under(&TcpConfig::DEFAULT, h, payload, now);
    }

    /// Handle one inbound segment addressed to this connection, in a
    /// stack whose settings are `cfg`.
    pub fn on_segment_under(&mut self, cfg: &TcpConfig, h: &TcpHeader, payload: &[u8], now: u64) {
        match self.cm.state {
            TcpState::Closed => {}
            TcpState::SynSent => self.on_segment_syn_sent(cfg, h, now),
            _ => self.on_segment_synchronized(cfg, h, payload, now),
        }
    }

    /// RFC 793 segment-arrival steps in a synchronized state, each routed
    /// to its owning component: acceptability and windows to flow
    /// control, ACKs to reliability, RST/SYN/FIN to connection
    /// management.
    fn on_segment_synchronized(
        &mut self,
        cfg: &TcpConfig,
        h: &TcpHeader,
        payload: &[u8],
        now: u64,
    ) {
        let seg_len = h.seq_len(payload.len());

        // Step 1: sequence acceptability (flow control).
        if !self.seq_acceptable(h, seg_len) {
            if !h.flags.rst {
                self.owe_ack(); // re-ACK to resync the peer
            }
            return;
        }

        // Step 2: RST (connection management): an abort, unless we were
        // closing anyway.
        if h.flags.rst {
            let event = match self.cm.state {
                TcpState::TimeWait | TcpState::LastAck | TcpState::Closing => SockEvent::Closed,
                _ => SockEvent::Aborted,
            };
            self.enter_closed(TcpError::Reset, event);
            return;
        }

        // Step 4: SYN in window is an error.
        if h.flags.syn && h.seq != self.cm.irs {
            self.enter_closed(TcpError::Reset, SockEvent::Aborted);
            return;
        }

        // Step 5: ACK processing — passive-open completion (connection
        // management), then cumulative/duplicate ACKs (reliability).
        if !h.flags.ack {
            return;
        }
        if self.cm.state == TcpState::SynReceived && !self.establish_syn_received(cfg, h, now) {
            return;
        }
        if !self.process_ack(cfg, h, payload, now) {
            return;
        }

        // Step 6: window update (flow control).
        self.process_window_update(h, now);

        // Step 7: payload (flow control).
        self.process_payload(cfg, h, payload, now);

        // Step 8: FIN (connection management).
        self.process_fin(cfg, h, payload, now);
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// [`Self::poll_transmit_under`] the default settings.
    pub fn poll_transmit(&mut self, now: u64) -> Option<(TcpHeader, Vec<u8>)> {
        self.poll_transmit_under(&TcpConfig::DEFAULT, now)
    }

    /// Produce the next segment to transmit, if any, in a stack whose
    /// settings are `cfg`. Call repeatedly until `None`. Payload is
    /// returned separately from the header.
    pub fn poll_transmit_under(
        &mut self,
        cfg: &TcpConfig,
        now: u64,
    ) -> Option<(TcpHeader, Vec<u8>)> {
        let (h, len) = self.poll_segment(cfg, now)?;
        Some((h, self.rel.send_buf.peek(h.seq, len)))
    }

    /// The next segment's header and payload length; the payload itself
    /// stays in the send buffer, at `h.seq`, for the caller to copy once
    /// to where it is going. Each state routes to the component that owns
    /// the segment type.
    pub(crate) fn poll_segment(&mut self, cfg: &TcpConfig, now: u64) -> Option<(TcpHeader, usize)> {
        match self.cm.state {
            TcpState::Closed => self.transmit_rst(),
            TcpState::SynSent | TcpState::SynReceived => self.transmit_syn(now),
            TcpState::TimeWait => self.transmit_time_wait_ack(),
            // Retransmission, then new data (reliability), then FIN
            // (connection management), then a pure ACK (flow control).
            _ => self
                .rtx_transmit()
                .or_else(|| self.transmit_new_data(cfg, now))
                .or_else(|| self.transmit_fin(now))
                .or_else(|| self.transmit_pure_ack()),
        }
    }
}

#[cfg(test)]
#[path = "socket_tests.rs"]
pub(crate) mod tests;
