//! Reliability component: the retransmit queue (send buffer + `snd_nxt`),
//! RTO interaction with [`crate::rto`], dup-ack tracking (SACK-less fast
//! retransmit), and Karn's-rule RTT sampling.

use crate::buffer::SendBuffer;
use crate::components::congestion_control::AckEvent;
use crate::rto::RttEstimator;
use crate::socket::TcpSocket;
use crate::types::{SockEvent, TcpConfig, TcpError, TcpState, MAX_RETRIES, SEND_BUF};
use neat_net::{SeqNum, TcpFlags, TcpHeader};
use std::collections::VecDeque;

/// State owned by reliability: every byte that may need to be sent again
/// and the timers/estimators that decide when.
#[derive(Debug)]
pub struct Reliability {
    pub(crate) send_buf: SendBuffer,
    /// Next sequence number to send.
    pub(crate) snd_nxt: SeqNum,
    pub(crate) rtx_deadline: Option<u64>,
    /// Retransmit one segment from snd_una on next poll.
    pub(crate) rtx_now: bool,
    pub(crate) rtt: RttEstimator,
    /// Outstanding RTT sample: (seq that must be acked, send time).
    pub(crate) rtt_sample: Option<(SeqNum, u64)>,
    pub(crate) retries: u32,
    pub(crate) dup_acks: u32,
}

impl Reliability {
    pub(crate) fn new(iss: SeqNum, cfg: &TcpConfig) -> Reliability {
        Reliability {
            send_buf: SendBuffer::new(iss + 1, SEND_BUF),
            snd_nxt: iss,
            rtx_deadline: None,
            rtx_now: false,
            rtt: RttEstimator::new(cfg.initial_rto_ns),
            rtt_sample: None,
            retries: 0,
            dup_acks: 0,
        }
    }
}

/// Reliability logic: ACK clocking, RTO handling, (re)transmission, and
/// every write to `rel`.
impl TcpSocket {
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

    /// Lend the send ring a storage parked on `spares` if it has none;
    /// returns the bytes lent.
    pub(crate) fn lend_send_ring(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        self.rel.send_buf.lend(spares)
    }

    /// Park the send ring's storage on `spares` if every byte in it has
    /// been acknowledged; returns the bytes parked.
    pub(crate) fn park_send_ring(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        self.rel.send_buf.park(spares)
    }

    /// The connection is leaving the stack: park the send ring's storage,
    /// whatever it holds; returns the bytes parked.
    pub(crate) fn release_send_ring(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        self.rel.send_buf.release(spares)
    }

    pub(crate) fn arm_rtx(&mut self, now: u64) {
        self.rel.rtx_deadline = Some(now + self.rel.rtt.rto());
    }

    /// Arm the retransmit timer unless it already runs.
    fn keep_rtx_running(&mut self, now: u64) {
        if self.rel.rtx_deadline.is_none() {
            self.arm_rtx(now);
        }
    }

    pub(crate) fn stop_rtx(&mut self) {
        self.rel.rtx_deadline = None;
    }

    /// Resend one segment from `snd_una` (or the FIN, or the SYN-ACK) on
    /// the next transmit.
    pub(crate) fn retransmit_now(&mut self) {
        self.rel.rtx_now = true;
    }

    pub(crate) fn take_retransmit_now(&mut self) -> bool {
        std::mem::take(&mut self.rel.rtx_now)
    }

    /// Our SYN or SYN-ACK went out: it takes the one sequence number at
    /// `iss` and times the RTT unless a sample already runs.
    pub(crate) fn syn_transmitted(&mut self, now: u64) {
        self.rel.snd_nxt = self.cm.iss + 1;
        self.rel.rtt_sample.get_or_insert((self.rel.snd_nxt, now));
    }

    /// A SYN-ACK acknowledged our SYN (active open only): the send queue
    /// and `snd_nxt` move to its ACK.
    pub(crate) fn syn_ack_received(&mut self, ack: SeqNum) {
        self.rel.send_buf.ack_to(ack);
        self.rel.snd_nxt = ack;
    }

    /// Either open completes: the retries reset, the RTO stops, and the
    /// SYN's RTT sample is taken.
    pub(crate) fn syn_acked(&mut self, ack: SeqNum, now: u64) {
        self.rel.retries = 0;
        self.stop_rtx();
        let _ = self.sample_rtt(ack, now);
    }

    /// Our FIN went out: it takes one sequence number, untimed, and the
    /// retransmit timer runs.
    pub(crate) fn fin_transmitted(&mut self, now: u64) {
        self.rel.snd_nxt += 1;
        self.keep_rtx_running(now);
    }

    /// The retransmit deadline: resend what is outstanding with the RTO
    /// backed off, or abort past [`MAX_RETRIES`].
    pub(crate) fn on_rtx_timer(&mut self, now: u64) {
        if self.rel.rtx_deadline.is_none_or(|d| now < d) {
            return;
        }
        // Anything outstanding? (data or FIN, or the SYN, which `snd_una`
        // starts past)
        let outstanding = self.bytes_in_flight() > 0
            || matches!(self.cm.state, TcpState::SynSent | TcpState::SynReceived);
        if !outstanding {
            self.stop_rtx();
            return;
        }
        self.rel.retries += 1;
        if self.rel.retries > MAX_RETRIES {
            self.enter_closed(TcpError::TimedOut, SockEvent::Aborted);
            return;
        }
        neat_obs::counter_add("tcp.rto_retransmits", 1);
        self.rel.rtt.backoff();
        self.rel.rtt_sample = None; // Karn: no sampling across retransmits
        self.cc.on_rto(now);
        self.retransmit_now();
        if self.cm.state == TcpState::SynSent {
            self.resend_syn();
        }
        self.arm_rtx(now);
    }

    /// Take the outstanding RTT measurement if `ack` covers it (Karn's
    /// rule: the sample is armed only on clean transmissions). Feeds the
    /// estimator and returns the measured RTT for the controller's
    /// [`AckEvent`].
    pub(crate) fn sample_rtt(&mut self, ack: SeqNum, now: u64) -> Option<u64> {
        if let Some((seq, sent)) = self.rel.rtt_sample {
            if ack - seq >= 0 {
                let rtt = now.saturating_sub(sent);
                self.rel.rtt.sample(rtt);
                self.rel.rtt_sample = None;
                return Some(rtt);
            }
        }
        None
    }

    /// RFC 793 step 5 ACK processing in a synchronized state: cumulative
    /// ACK advance or dup-ack accounting. Returns false when the socket
    /// closed (LastAck) and the caller must stop processing the segment.
    pub(crate) fn process_ack(&mut self, h: &TcpHeader, payload: &[u8], now: u64) -> bool {
        let una_before = self.snd_una();
        let snd_end = self
            .cm
            .fin_seq
            .map(|f| f + 1)
            .unwrap_or(self.rel.send_buf.end());
        if h.ack - una_before > 0 && h.ack - snd_end <= 0 {
            // New data acknowledged (`ack_to` clamps to buffered bytes), and
            // perhaps our FIN, whose sequence number `snd_una` then passes.
            let acked = self.rel.send_buf.ack_to(h.ack);
            let fin_acked = self.fin_acked_at(h.ack);
            if fin_acked {
                self.rel.send_buf.ack_fin();
            }
            if self.rel.snd_nxt - h.ack < 0 {
                self.rel.snd_nxt = h.ack;
            }
            self.rel.retries = 0;
            self.rel.dup_acks = 0;
            let rtt_sample = self.sample_rtt(h.ack, now);
            let ev = AckEvent {
                newly_acked: acked.max(1),
                rtt_sample,
                now_ns: now,
            };
            self.cc.on_ack(&ev);
            if acked > 0 && self.rel.send_buf.room() > 0 {
                self.events.push(SockEvent::Writable(self.id));
            }
            // Restart or stop the retransmission timer.
            if self.bytes_in_flight() > 0 {
                self.arm_rtx(now);
            } else {
                self.stop_rtx();
            }
            if fin_acked && !self.our_fin_acked(now) {
                return false;
            }
        } else if h.ack == una_before {
            // Potential duplicate ACK (RFC 5681: no data, no window change,
            // outstanding data exists).
            let window_changed = ((h.window as usize) << self.fc.snd_wscale) != self.fc.snd_wnd;
            if payload.is_empty() && !window_changed && self.bytes_in_flight() > 0 {
                self.rel.dup_acks += 1;
                if self.rel.dup_acks == 3 {
                    self.cc.on_loss(now);
                    self.retransmit_now();
                    neat_obs::counter_add("tcp.fast_retransmits", 1);
                    self.rel.rtt_sample = None;
                }
            }
        }
        true
    }

    /// Transmit step 1: retransmission (RTO, fast retransmit, or
    /// zero-window probe) — one segment from `snd_una`, or the FIN.
    pub(crate) fn rtx_transmit(&mut self) -> Option<(TcpHeader, usize)> {
        if !self.take_retransmit_now() {
            return None;
        }
        let una = self.snd_una();
        let avail = self.rel.send_buf.len_from(una);
        if avail > 0 {
            let len = avail.min(self.mss as usize).max(1);
            let h = self.ack_header(una, TcpFlags::psh_ack());
            self.ack_sent();
            return Some((h, len));
        }
        match self.cm.fin_seq {
            // A retransmitted FIN clears no ACK state (kept as found).
            Some(fin_seq) if !self.fin_acked() => {
                Some((self.ack_header(fin_seq, TcpFlags::fin_ack()), 0))
            }
            _ => None,
        }
    }

    /// Transmit step 2: new data within the usable window, sized by the
    /// controller's [`CcDecision`](crate::components::CcDecision) — cwnd
    /// caps the window, `pacing_gate` caps the burst at one MSS.
    pub(crate) fn transmit_new_data(&mut self, now: u64) -> Option<(TcpHeader, usize)> {
        let decision = self.cc.decision();
        let window = self.fc.snd_wnd.min(decision.cwnd);
        let in_flight = self.bytes_in_flight();
        let usable = window.saturating_sub(in_flight);
        let pending = self.rel.send_buf.len_from(self.rel.snd_nxt);
        if pending == 0 && usable > 0 && self.cm.fin_seq.is_none() && self.cm.state.can_send() {
            // Window open but nothing to send: rate samples taken this
            // round under-estimate the path (BBR's app-limited marker).
            self.cc.on_app_limited(now);
        }
        if pending == 0 || usable == 0 || self.cm.fin_seq.is_some() {
            return None;
        }
        // GSO: hand the NIC a super-segment; it splits to MSS frames.
        // A pacing-gated controller gets plain per-MSS segments.
        let burst = if decision.pacing_gate {
            self.mss as usize
        } else {
            self.cfg.gso_burst.max(self.mss as usize).min(61_440)
        };
        let len = pending.min(usable).min(burst);
        // Nagle: hold sub-MSS segments while data is in flight.
        if len == 0 || (self.cfg.nagle && in_flight > 0 && len < self.mss as usize) {
            return None;
        }
        let h = self.ack_header(self.rel.snd_nxt, TcpFlags::psh_ack());
        let end = self.rel.snd_nxt + len as u32;
        self.rel.rtt_sample.get_or_insert((end, now));
        self.rel.snd_nxt = end;
        self.keep_rtx_running(now);
        self.ack_sent();
        Some((h, len))
    }
}
