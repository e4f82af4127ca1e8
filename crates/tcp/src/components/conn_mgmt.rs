//! Connection-management component: the RFC 793 state machine —
//! handshake (SYN/SYN-ACK emission, SYN-SENT processing), teardown
//! (FIN exchange, TIME_WAIT), and the lifecycle timers.

use crate::socket::{TcpSocket, OUR_WSCALE};
use crate::types::{SockEvent, TcpError, TcpState};
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
    pub(crate) time_wait_deadline: Option<u64>,
    pub(crate) keepalive_deadline: Option<u64>,
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
            time_wait_deadline: None,
            keepalive_deadline: None,
        }
    }
}

/// Connection-management logic: everything that advances `cm.state`.
impl TcpSocket {
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
                self.cm.state = TcpState::Closed;
                self.events.push(SockEvent::Closed(self.id));
            }
            _ => {}
        }
    }

    /// Abort: RST to the peer, everything dropped.
    pub fn abort(&mut self) {
        if !matches!(self.cm.state, TcpState::Closed | TcpState::TimeWait) {
            self.fc.ack_now = true; // force poll_transmit to run once for RST
        }
        self.enter_closed(TcpError::Reset, true);
    }

    pub(crate) fn enter_closed(&mut self, err: TcpError, rst: bool) {
        if self.cm.state == TcpState::Closed {
            return;
        }
        self.cm.state = TcpState::Closed;
        self.error = Some(err);
        self.rel.rtx_deadline = None;
        self.fc.ack_deadline = None;
        self.fc.probe_deadline = None;
        self.cm.keepalive_deadline = None;
        self.events.push(if rst {
            SockEvent::Aborted(self.id)
        } else {
            SockEvent::Closed(self.id)
        });
    }

    pub(crate) fn enter_time_wait(&mut self, now: u64) {
        self.cm.state = TcpState::TimeWait;
        self.rel.rtx_deadline = None;
        self.cm.time_wait_deadline = Some(now + self.cfg.time_wait_ns);
        self.events.push(SockEvent::Closed(self.id));
    }

    pub(crate) fn enter_closed_graceful(&mut self) {
        self.cm.state = TcpState::Closed;
        self.rel.rtx_deadline = None;
        self.events.push(SockEvent::Closed(self.id));
    }

    pub(crate) fn on_segment_syn_sent(&mut self, h: &TcpHeader, now: u64) {
        if h.flags.ack && h.ack != self.cm.iss + 1 {
            // Unacceptable ACK; the stack sends the RST for us if needed.
            if !h.flags.rst {
                self.fc.ack_now = true;
            }
            return;
        }
        if h.flags.rst {
            if h.flags.ack {
                self.enter_closed(TcpError::Reset, false);
            }
            return;
        }
        if !h.flags.syn {
            return;
        }
        self.cm.irs = h.seq;
        self.fc.rcv_nxt = h.seq + 1;
        if let Some(m) = h.mss {
            self.mss = self.mss.min(m);
        }
        if let Some(ws) = h.window_scale {
            self.fc.snd_wscale = ws;
            self.fc.rcv_wscale = OUR_WSCALE;
        }
        self.fc.snd_wnd = (h.window as usize) << self.fc.snd_wscale;
        self.fc.snd_wl1 = h.seq;
        self.fc.snd_wl2 = h.ack;
        if h.flags.ack {
            // SYN-ACK: connection established.
            self.rel.send_buf.ack_to(h.ack);
            self.rel.snd_nxt = h.ack;
            let _ = self.sample_rtt(h.ack, now);
            self.cm.state = TcpState::Established;
            self.rel.retries = 0;
            self.rel.rtx_deadline = None;
            self.fc.ack_now = true;
            if self.cfg.keepalive_ns > 0 {
                self.cm.keepalive_deadline = Some(now + self.cfg.keepalive_ns);
            }
            self.events.push(SockEvent::Connected(self.id));
        } else {
            // Simultaneous open.
            self.cm.state = TcpState::SynReceived;
            self.cm.syn_sent = false; // re-emit as SYN-ACK
            self.arm_rtx(now);
        }
    }

    /// The ACK that completes a passive open (RFC 793 step 5 in
    /// SYN-RECEIVED). Returns false when the ACK is unacceptable and the
    /// rest of segment processing must be skipped.
    pub(crate) fn establish_syn_received(&mut self, h: &TcpHeader, now: u64) -> bool {
        if h.ack != self.cm.iss + 1 {
            // Unacceptable ACK in SYN-RECEIVED: ignore (stack RSTs).
            return false;
        }
        self.cm.state = TcpState::Established;
        self.rel.retries = 0;
        self.rel.rtx_deadline = None;
        self.fc.snd_wnd = (h.window as usize) << self.fc.snd_wscale;
        self.fc.snd_wl1 = h.seq;
        self.fc.snd_wl2 = h.ack;
        if self.cfg.keepalive_ns > 0 {
            self.cm.keepalive_deadline = Some(now + self.cfg.keepalive_ns);
        }
        let _ = self.sample_rtt(h.ack, now);
        self.events.push(SockEvent::Connected(self.id));
        true
    }

    /// RFC 793 step 8: peer FIN processing (in-order only; a FIN beyond a
    /// gap is re-ACKed so the peer retransmits).
    pub(crate) fn process_fin(&mut self, h: &TcpHeader, payload: &[u8], now: u64) {
        if !h.flags.fin {
            return;
        }
        let fin_seq = h.seq + payload.len() as u32;
        if fin_seq == self.fc.rcv_nxt && !self.cm.peer_fin_rcvd && self.fc.asm.is_empty() {
            self.cm.peer_fin_rcvd = true;
            self.fc.rcv_nxt += 1;
            self.fc.ack_now = true;
            self.events.push(SockEvent::PeerClosed(self.id));
            match self.cm.state {
                TcpState::Established => self.cm.state = TcpState::CloseWait,
                TcpState::FinWait1 => {
                    if self.fin_acked() {
                        self.enter_time_wait(now);
                    } else {
                        self.cm.state = TcpState::Closing;
                    }
                }
                TcpState::FinWait2 => self.enter_time_wait(now),
                _ => {}
            }
        } else if fin_seq - self.fc.rcv_nxt > 0 {
            // FIN beyond a gap: ACK what we have, peer will retransmit.
            self.fc.ack_now = true;
        }
    }

    pub(crate) fn fin_acked(&self) -> bool {
        match self.cm.fin_seq {
            Some(f) => self.snd_una() > f,
            None => false,
        }
    }

    pub(crate) fn fin_acked_at(&self, ack: SeqNum) -> bool {
        match self.cm.fin_seq {
            Some(f) => ack - f > 0,
            None => false,
        }
    }

    /// Emit the RST a local abort owes (Closed state only).
    pub(crate) fn transmit_rst(&mut self) -> Option<(TcpHeader, usize)> {
        if self.fc.ack_now && self.error == Some(TcpError::Reset) {
            self.fc.ack_now = false;
            let h = TcpHeader::new(
                self.local_port,
                self.remote_port,
                self.rel.snd_nxt,
                self.fc.rcv_nxt,
                TcpFlags {
                    rst: true,
                    ack: true,
                    ..Default::default()
                },
            );
            self.tx_segments += 1;
            return Some((h, 0));
        }
        None
    }

    /// Emit our SYN (active open), once per `syn_sent` arming.
    pub(crate) fn transmit_syn(&mut self, now: u64) -> Option<(TcpHeader, usize)> {
        if self.cm.syn_sent {
            return None;
        }
        self.cm.syn_sent = true;
        let mut h = TcpHeader::new(
            self.local_port,
            self.remote_port,
            self.cm.iss,
            SeqNum(0),
            TcpFlags::SYN,
        );
        h.mss = Some(self.cfg.mss);
        h.window_scale = Some(OUR_WSCALE);
        h.window = self.recv_window_bytes().min(u16::MAX as usize) as u16;
        self.rel.snd_nxt = self.cm.iss + 1;
        if self.rel.rtt_sample.is_none() {
            self.rel.rtt_sample = Some((self.cm.iss + 1, now));
        }
        self.tx_segments += 1;
        Some((h, 0))
    }

    /// Emit our SYN-ACK (passive open), once per `syn_sent` arming; an
    /// RTO re-arms it via `rtx_now`.
    pub(crate) fn transmit_syn_ack(&mut self, now: u64) -> Option<(TcpHeader, usize)> {
        if !self.cm.syn_sent {
            self.cm.syn_sent = true;
            let mut h = TcpHeader::new(
                self.local_port,
                self.remote_port,
                self.cm.iss,
                self.fc.rcv_nxt,
                TcpFlags::syn_ack(),
            );
            h.mss = Some(self.cfg.mss);
            if self.fc.rcv_wscale > 0 {
                h.window_scale = Some(OUR_WSCALE);
            }
            h.window = self.recv_window_bytes().min(u16::MAX as usize) as u16;
            self.rel.snd_nxt = self.cm.iss + 1;
            if self.rel.rtt_sample.is_none() {
                self.rel.rtt_sample = Some((self.cm.iss + 1, now));
            }
            self.tx_segments += 1;
            return Some((h, 0));
        }
        if self.rel.rtx_now {
            self.rel.rtx_now = false;
            self.cm.syn_sent = false;
            return self.transmit_syn_ack(now);
        }
        None
    }

    /// FIN emission once the stream is fully sent (transmit step 3).
    pub(crate) fn transmit_fin(&mut self, now: u64) -> Option<(TcpHeader, usize)> {
        let all_sent = self.rel.send_buf.len_from(self.rel.snd_nxt) == 0;
        let want_fin = matches!(
            self.cm.state,
            TcpState::FinWait1 | TcpState::LastAck | TcpState::Closing
        );
        if want_fin && all_sent && self.cm.fin_seq.is_none() {
            self.cm.fin_seq = Some(self.rel.snd_nxt);
            let mut h = TcpHeader::new(
                self.local_port,
                self.remote_port,
                self.rel.snd_nxt,
                self.fc.rcv_nxt,
                TcpFlags::fin_ack(),
            );
            h.window = self.window_field();
            self.rel.snd_nxt += 1;
            if self.rel.rtx_deadline.is_none() {
                self.arm_rtx(now);
            }
            self.fc.ack_pending = 0;
            self.fc.ack_deadline = None;
            self.fc.ack_now = false;
            self.tx_segments += 1;
            return Some((h, 0));
        }
        None
    }
}
