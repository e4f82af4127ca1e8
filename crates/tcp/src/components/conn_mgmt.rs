//! Connection-management component: the RFC 793 state machine —
//! handshake (SYN/SYN-ACK emission, SYN-SENT processing), teardown
//! (FIN exchange, TIME_WAIT), and the lifecycle timers.

use crate::deadline::Deadline;
use crate::socket::{TcpSocket, OUR_WSCALE};
use crate::types::{SockEvent, SocketId, TcpConfig, TcpError, TcpState};
use neat_net::tcp::MSS;
use neat_net::{SeqNum, TcpFlags, TcpHeader};

/// State owned by connection management: where the connection is in its
/// lifecycle plus the handshake/teardown bookkeeping that moves it along.
#[derive(Debug)]
pub struct ConnMgmt {
    pub(crate) state: TcpState,
    /// Initial send sequence number.
    pub(crate) iss: SeqNum,
    /// Initial receive sequence number.
    pub(crate) irs: SeqNum,
    /// The SYN (or SYN-ACK) we owe has been transmitted at least once.
    pub(crate) syn_sent: bool,
    /// User called close(): send FIN once the buffer drains.
    pub(crate) close_requested: bool,
    /// Sequence number our FIN occupies, once sent.
    pub(crate) fin_seq: Option<SeqNum>,
    /// Peer FIN consumed (sequence-wise).
    pub(crate) peer_fin_rcvd: bool,
    pub(crate) time_wait_deadline: Deadline,
    pub(crate) keepalive_deadline: Deadline,
}

impl ConnMgmt {
    pub(crate) fn new(iss: SeqNum) -> ConnMgmt {
        ConnMgmt {
            state: TcpState::Closed,
            iss,
            irs: SeqNum(0),
            syn_sent: false,
            close_requested: false,
            fin_seq: None,
            peer_fin_rcvd: false,
            time_wait_deadline: Deadline::UNARMED,
            keepalive_deadline: Deadline::UNARMED,
        }
    }
}

/// Connection-management logic: everything that advances `cm.state`, and
/// every write to `cm`.
impl TcpSocket {
    /// Start an open in SYN-SENT or SYN-RECEIVED, the SYN's retransmit
    /// timer running.
    pub(crate) fn open(&mut self, state: TcpState, now: u64) {
        self.cm.state = state;
        self.arm_rtx(now);
    }

    /// The peer's SYN, on either open: its ISN and MSS here, its window
    /// scale and window in flow control. `wl2` is the ACK the window came
    /// with: none on a passive open (0), the SYN-ACK's on an active one.
    pub(crate) fn take_peer_syn(&mut self, syn: &TcpHeader, wl2: SeqNum) {
        self.cm.irs = syn.seq;
        if let Some(m) = syn.mss {
            self.mss = self.mss.min(m);
        }
        self.take_syn_window(syn, wl2);
    }

    /// Send the SYN (or SYN-ACK) again on the next transmit.
    pub(crate) fn resend_syn(&mut self) {
        self.cm.syn_sent = false;
    }

    /// Either open completes: ESTABLISHED, the SYN acknowledged in
    /// reliability, keepalive armed if `cfg` keeps connections alive,
    /// `Connected` reported.
    fn establish(&mut self, cfg: &TcpConfig, ack: SeqNum, now: u64) {
        self.cm.state = TcpState::Established;
        self.syn_acked(ack, now);
        if cfg.keepalive_ns > 0 {
            self.cm.keepalive_deadline = Deadline::at(now + cfg.keepalive_ns);
        }
        self.events.push(SockEvent::Connected(self.id));
    }

    /// Graceful close: FIN after pending data drains.
    pub fn close(&mut self, _now: u64) {
        match self.cm.state {
            TcpState::Established | TcpState::SynReceived => {
                self.cm.close_requested = true;
                self.cm.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                self.cm.close_requested = true;
                self.cm.state = TcpState::LastAck;
            }
            TcpState::SynSent | TcpState::Listen => {
                // Leaves the SYN's retransmit timer to run out (kept as found).
                self.cm.state = TcpState::Closed;
                self.events.push(SockEvent::Closed(self.id));
            }
            _ => {}
        }
    }

    /// Abort: RST to the peer, everything dropped.
    pub fn abort(&mut self) {
        if !matches!(self.cm.state, TcpState::Closed | TcpState::TimeWait) {
            self.owe_ack(); // the RST rides on the owed ACK
        }
        self.enter_closed(TcpError::Reset, SockEvent::Aborted);
    }

    /// Into TIME-WAIT or CLOSED: the retransmit timer stops and the
    /// application hears `event`, its connection's one `Closed` or
    /// `Aborted` (a close in SYN-SENT is the one other place).
    fn finish(&mut self, state: TcpState, event: fn(SocketId) -> SockEvent) {
        self.cm.state = state;
        self.stop_rtx();
        self.events.push(event(self.id));
    }

    /// Into CLOSED on an error, reported as `event`; every timer stops.
    pub(crate) fn enter_closed(&mut self, err: TcpError, event: fn(SocketId) -> SockEvent) {
        if self.cm.state == TcpState::Closed {
            return;
        }
        self.error = Some(err);
        self.stop_receive_timers();
        self.cm.keepalive_deadline = Deadline::UNARMED;
        self.finish(TcpState::Closed, event);
    }

    fn enter_time_wait(&mut self, cfg: &TcpConfig, now: u64) {
        self.cm.time_wait_deadline = Deadline::at(now + cfg.time_wait_ns);
        self.finish(TcpState::TimeWait, SockEvent::Closed);
    }

    /// The TIME-WAIT deadline: CLOSED, silently (`Closed` went out on
    /// entering TIME-WAIT) and leaving any other timer as it is. True when
    /// it fired; nothing else runs then.
    pub(crate) fn on_time_wait_timer(&mut self, now: u64) -> bool {
        let fired = self.cm.time_wait_deadline.take_due(now);
        if fired {
            self.cm.state = TcpState::Closed;
        }
        fired
    }

    /// The keepalive deadline: in ESTABLISHED, probe with a duplicate ACK
    /// and re-arm.
    pub(crate) fn on_keepalive_timer(&mut self, cfg: &TcpConfig, now: u64) {
        if self.cm.keepalive_deadline.due(now) && self.cm.state == TcpState::Established {
            self.cm.keepalive_deadline = Deadline::at(now + cfg.keepalive_ns);
            self.owe_ack();
        }
    }

    pub(crate) fn on_segment_syn_sent(&mut self, cfg: &TcpConfig, h: &TcpHeader, now: u64) {
        if h.flags.ack && h.ack != self.cm.iss + 1 {
            // Unacceptable ACK; the stack sends the RST for us if needed.
            if !h.flags.rst {
                self.owe_ack();
            }
            return;
        }
        if h.flags.rst {
            if h.flags.ack {
                self.enter_closed(TcpError::Reset, SockEvent::Closed);
            }
            return;
        }
        if !h.flags.syn {
            return;
        }
        self.take_peer_syn(h, h.ack);
        if h.flags.ack {
            // SYN-ACK: established; only this open forces an ACK out.
            self.syn_ack_received(h.ack);
            self.establish(cfg, h.ack, now);
            self.owe_ack();
        } else {
            // Simultaneous open: re-emit our SYN as a SYN-ACK.
            self.resend_syn();
            self.open(TcpState::SynReceived, now);
        }
    }

    /// The ACK that completes a passive open (RFC 793 step 5 in
    /// SYN-RECEIVED). Returns false when the ACK is unacceptable and the
    /// rest of segment processing must be skipped.
    pub(crate) fn establish_syn_received(
        &mut self,
        cfg: &TcpConfig,
        h: &TcpHeader,
        now: u64,
    ) -> bool {
        if h.ack != self.cm.iss + 1 {
            // Unacceptable ACK in SYN-RECEIVED: ignore (stack RSTs).
            return false;
        }
        self.take_window(h, h.ack);
        self.establish(cfg, h.ack, now);
        true
    }

    /// RFC 793 step 8: peer FIN processing (in-order only; a FIN beyond a
    /// gap is re-ACKed so the peer retransmits).
    pub(crate) fn process_fin(&mut self, cfg: &TcpConfig, h: &TcpHeader, payload: &[u8], now: u64) {
        if !h.flags.fin {
            return;
        }
        let fin_seq = h.seq + payload.len() as u32;
        if fin_seq == self.fc.rcv_nxt && !self.cm.peer_fin_rcvd && self.fc.asm.is_empty() {
            self.cm.peer_fin_rcvd = true;
            self.consume_peer_fin();
            self.events.push(SockEvent::PeerClosed(self.id));
            match self.cm.state {
                TcpState::Established => self.cm.state = TcpState::CloseWait,
                TcpState::FinWait1 => {
                    if self.fin_acked() {
                        self.enter_time_wait(cfg, now);
                    } else {
                        self.cm.state = TcpState::Closing;
                    }
                }
                TcpState::FinWait2 => self.enter_time_wait(cfg, now),
                _ => {}
            }
        } else if fin_seq - self.fc.rcv_nxt > 0 {
            // FIN beyond a gap: ACK what we have, peer will retransmit.
            self.owe_ack();
        }
    }

    /// Our FIN was acknowledged: the close handshake moves on. False once
    /// the connection has closed (LAST-ACK), ending the segment's
    /// processing.
    pub(crate) fn our_fin_acked(&mut self, cfg: &TcpConfig, now: u64) -> bool {
        match self.cm.state {
            TcpState::FinWait1 => self.cm.state = TcpState::FinWait2,
            TcpState::Closing => self.enter_time_wait(cfg, now),
            TcpState::LastAck => {
                self.finish(TcpState::Closed, SockEvent::Closed);
                return false;
            }
            _ => {}
        }
        true
    }

    pub(crate) fn fin_acked(&self) -> bool {
        self.fin_acked_at(self.snd_una())
    }

    pub(crate) fn fin_acked_at(&self, ack: SeqNum) -> bool {
        match self.cm.fin_seq {
            Some(f) => ack - f > 0,
            None => false,
        }
    }

    /// Emit the RST a local abort owes (Closed state only). It carries no
    /// window.
    pub(crate) fn transmit_rst(&mut self) -> Option<(TcpHeader, usize)> {
        if self.error != Some(TcpError::Reset) || !self.take_owed_ack() {
            return None;
        }
        let mut flags = TcpFlags::rst();
        flags.ack = true;
        let (seq, ack) = (self.rel.snd_nxt, self.fc.rcv_nxt);
        let h = TcpHeader::new(self.local_port, self.remote_port, seq, ack, flags);
        Some((h, 0))
    }

    /// Emit our SYN (SYN-SENT) or SYN-ACK (SYN-RECEIVED), once per
    /// `syn_sent` arming; in SYN-RECEIVED an RTO re-arms it through
    /// `rtx_now` too. Both advertise the unscaled window.
    pub(crate) fn transmit_syn(&mut self, now: u64) -> Option<(TcpHeader, usize)> {
        let passive = self.cm.state == TcpState::SynReceived;
        if self.cm.syn_sent && !(passive && self.take_retransmit_now()) {
            return None;
        }
        self.cm.syn_sent = true;
        let (ack, flags) = match passive {
            true => (self.fc.rcv_nxt, TcpFlags::syn_ack()),
            false => (SeqNum(0), TcpFlags::SYN),
        };
        let mut h = TcpHeader::new(self.local_port, self.remote_port, self.cm.iss, ack, flags);
        h.mss = Some(MSS);
        // A SYN-ACK offers window scaling only if the peer's SYN did.
        if !passive || self.fc.rcv_wscale > 0 {
            h.window_scale = Some(OUR_WSCALE);
        }
        h.window = self.recv_window_bytes().min(u16::MAX as usize) as u16;
        self.syn_transmitted(now);
        Some((h, 0))
    }

    /// FIN emission once the stream is fully sent (transmit step 3).
    pub(crate) fn transmit_fin(&mut self, now: u64) -> Option<(TcpHeader, usize)> {
        let all_sent = self.rel.send_buf.len_from(self.rel.snd_nxt) == 0;
        let want_fin = matches!(
            self.cm.state,
            TcpState::FinWait1 | TcpState::LastAck | TcpState::Closing
        );
        if !want_fin || !all_sent || self.cm.fin_seq.is_some() {
            return None;
        }
        self.cm.fin_seq = Some(self.rel.snd_nxt);
        let h = self.ack_header(self.rel.snd_nxt, TcpFlags::fin_ack());
        self.fin_transmitted(now);
        self.ack_sent();
        Some((h, 0))
    }
}
