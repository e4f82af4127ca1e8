//! Reliability component: the retransmit queue (send buffer + `snd_nxt`),
//! RTO interaction with [`crate::rto`], dup-ack tracking (SACK-less fast
//! retransmit), and Karn's-rule RTT sampling.

use crate::buffer::SendBuffer;
use crate::components::congestion_control::AckEvent;
use crate::rto::RttEstimator;
use crate::socket::TcpSocket;
use crate::types::{SockEvent, TcpConfig, TcpError, TcpState};
use neat_net::{SeqNum, TcpFlags, TcpHeader};

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
            send_buf: SendBuffer::new(iss + 1, cfg.send_buf),
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

/// Reliability logic: ACK clocking, RTO handling, (re)transmission.
impl TcpSocket {
    pub(crate) fn arm_rtx(&mut self, now: u64) {
        self.rel.rtx_deadline = Some(now + self.rel.rtt.rto());
    }

    pub(crate) fn handle_rto(&mut self, now: u64) {
        // Anything outstanding? (data, SYN, or FIN)
        let outstanding = self.bytes_in_flight() > 0
            || matches!(self.cm.state, TcpState::SynSent | TcpState::SynReceived)
            || (self.cm.fin_seq.is_some() && !self.fin_acked());
        if !outstanding {
            self.rel.rtx_deadline = None;
            return;
        }
        self.rel.retries += 1;
        if self.rel.retries > self.cfg.max_retries {
            self.enter_closed(TcpError::TimedOut, true);
            return;
        }
        self.retransmits += 1;
        neat_obs::counter_add("tcp.rto_retransmits", 1);
        self.rel.rtt.backoff();
        self.rel.rtt_sample = None; // Karn: no sampling across retransmits
        self.cc.on_rto(now);
        self.rel.rtx_now = true;
        if self.cm.state == TcpState::SynSent {
            self.cm.syn_sent = false; // resend SYN
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
            // New data acknowledged (the FIN's sequence slot is covered by
            // `snd_end`; `ack_to` clamps to buffered bytes).
            let acked = self.rel.send_buf.ack_to(h.ack);
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
                in_flight: self.bytes_in_flight(),
            };
            self.cc.on_ack(&ev);
            if acked > 0 && self.rel.send_buf.room() > 0 {
                self.events.push(SockEvent::Writable(self.id));
            }
            // Restart or stop the retransmission timer.
            let outstanding = self.bytes_in_flight() > 0
                || (self.cm.fin_seq.is_some() && !self.fin_acked_at(h.ack));
            if outstanding {
                self.arm_rtx(now);
            } else {
                self.rel.rtx_deadline = None;
            }
            // Close-handshake progress.
            if self.fin_acked_at(h.ack) {
                match self.cm.state {
                    TcpState::FinWait1 => self.cm.state = TcpState::FinWait2,
                    TcpState::Closing => self.enter_time_wait(now),
                    TcpState::LastAck => {
                        self.enter_closed_graceful();
                        return false;
                    }
                    _ => {}
                }
            }
        } else if h.ack == una_before {
            // Potential duplicate ACK (RFC 5681: no data, no window change,
            // outstanding data exists).
            let window_changed = ((h.window as usize) << self.fc.snd_wscale) != self.fc.snd_wnd;
            if payload.is_empty() && !window_changed && self.bytes_in_flight() > 0 {
                self.rel.dup_acks += 1;
                if self.rel.dup_acks == 3 {
                    self.cc.on_loss(now);
                    self.rel.rtx_now = true;
                    self.retransmits += 1;
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
        if !self.rel.rtx_now {
            return None;
        }
        self.rel.rtx_now = false;
        let una = self.snd_una();
        let avail = self.rel.send_buf.len_from(una);
        if avail > 0 {
            let len = avail.min(self.mss as usize).max(1);
            let mut h = TcpHeader::new(
                self.local_port,
                self.remote_port,
                una,
                self.fc.rcv_nxt,
                TcpFlags::psh_ack(),
            );
            h.window = self.window_field();
            self.fc.ack_pending = 0;
            self.fc.ack_deadline = None;
            self.fc.ack_now = false;
            self.tx_segments += 1;
            return Some((h, len));
        }
        if let Some(fin_seq) = self.cm.fin_seq {
            if !self.fin_acked() {
                // Retransmit the FIN.
                let mut h = TcpHeader::new(
                    self.local_port,
                    self.remote_port,
                    fin_seq,
                    self.fc.rcv_nxt,
                    TcpFlags::fin_ack(),
                );
                h.window = self.window_field();
                self.tx_segments += 1;
                return Some((h, 0));
            }
        }
        None
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
        if pending > 0 && usable > 0 && self.cm.fin_seq.is_none() {
            // GSO: hand the NIC a super-segment; it splits to MSS frames.
            // A pacing-gated controller gets plain per-MSS segments.
            let burst = if decision.pacing_gate {
                self.mss as usize
            } else {
                self.cfg.gso_burst.max(self.mss as usize).min(61_440)
            };
            let len = pending.min(usable).min(burst);
            // Nagle: hold sub-MSS segments while data is in flight.
            let nagle_blocks = self.cfg.nagle && in_flight > 0 && len < self.mss as usize;
            if !nagle_blocks && len > 0 {
                let mut h = TcpHeader::new(
                    self.local_port,
                    self.remote_port,
                    self.rel.snd_nxt,
                    self.fc.rcv_nxt,
                    TcpFlags::psh_ack(),
                );
                h.window = self.window_field();
                if self.rel.rtt_sample.is_none() {
                    self.rel.rtt_sample = Some((self.rel.snd_nxt + len as u32, now));
                }
                self.rel.snd_nxt += len as u32;
                if self.rel.rtx_deadline.is_none() {
                    self.arm_rtx(now);
                }
                self.fc.ack_pending = 0;
                self.fc.ack_deadline = None;
                self.fc.ack_now = false;
                self.tx_segments += 1;
                return Some((h, len));
            }
        }
        None
    }
}
