//! Flow-control component: the receive side — reassembly, the receive
//! buffer, the advertised window, ACK generation policy, and zero-window
//! probing against the peer's window.

use crate::assembler::Assembler;
use crate::buffer::RecvBuffer;
use crate::socket::TcpSocket;
use crate::types::{SockEvent, TcpConfig};
use neat_net::{SeqNum, TcpFlags, TcpHeader};

/// State owned by flow control: both window directions — what we can
/// accept (receive buffer + assembler) and what the peer will (snd_wnd).
#[derive(Debug)]
pub struct FlowControl {
    pub(crate) rcv_nxt: SeqNum,
    pub(crate) recv_buf: RecvBuffer,
    pub(crate) asm: Assembler,
    /// Peer's advertised window in bytes (already scaled).
    pub(crate) snd_wnd: usize,
    /// Segment seq/ack used for the last window update (RFC 793 wl1/wl2).
    pub(crate) snd_wl1: SeqNum,
    pub(crate) snd_wl2: SeqNum,
    /// Peer's window-scale shift (0 if not negotiated).
    pub(crate) snd_wscale: u8,
    /// Our advertised shift (0 until negotiated on SYN).
    pub(crate) rcv_wscale: u8,
    /// Segments received since the last ACK we sent.
    pub(crate) ack_pending: u32,
    pub(crate) ack_deadline: Option<u64>,
    pub(crate) ack_now: bool,
    pub(crate) probe_deadline: Option<u64>,
}

impl FlowControl {
    pub(crate) fn new(cfg: &TcpConfig) -> FlowControl {
        FlowControl {
            rcv_nxt: SeqNum(0),
            recv_buf: RecvBuffer::new(cfg.recv_buf),
            asm: Assembler::new(cfg.recv_buf),
            snd_wnd: 0,
            snd_wl1: SeqNum(0),
            snd_wl2: SeqNum(0),
            snd_wscale: 0,
            rcv_wscale: 0,
            ack_pending: 0,
            ack_deadline: None,
            ack_now: false,
            probe_deadline: None,
        }
    }
}

/// Flow-control logic: acceptability, window tracking, payload delivery,
/// ACK emission.
impl TcpSocket {
    /// RFC 793 step 1: is this segment within the receive window?
    pub(crate) fn seq_acceptable(&self, h: &TcpHeader, seg_len: u32) -> bool {
        let wnd = self.recv_window_bytes() as u32;
        let seq = h.seq;
        if seg_len == 0 {
            if wnd == 0 {
                seq == self.fc.rcv_nxt
            } else {
                seq - self.fc.rcv_nxt >= -(wnd as i32) && (seq - self.fc.rcv_nxt) < wnd as i32
            }
        } else {
            if wnd == 0 {
                return false;
            }
            (seq - self.fc.rcv_nxt) < wnd as i32 && (seq + seg_len - self.fc.rcv_nxt) > 0
        }
    }

    pub(crate) fn recv_window_bytes(&self) -> usize {
        self.fc.recv_buf.window()
    }

    /// The window field value (scaled) for outgoing segments.
    pub(crate) fn window_field(&self) -> u16 {
        let w = self.recv_window_bytes() >> self.fc.rcv_wscale;
        w.min(u16::MAX as usize) as u16
    }

    pub(crate) fn bare_ack(&mut self) -> TcpHeader {
        let mut h = TcpHeader::new(
            self.local_port,
            self.remote_port,
            self.rel.snd_nxt,
            self.fc.rcv_nxt,
            TcpFlags::ack(),
        );
        h.window = self.window_field();
        self.tx_segments += 1;
        h
    }

    /// Window update (RFC 793: wl1/wl2 guard against stale segments),
    /// plus zero-window probe arming when the peer closes its window.
    pub(crate) fn process_window_update(&mut self, h: &TcpHeader, now: u64) {
        if h.seq - self.fc.snd_wl1 > 0 || (h.seq == self.fc.snd_wl1 && h.ack - self.fc.snd_wl2 >= 0)
        {
            let new_wnd = (h.window as usize) << self.fc.snd_wscale;
            let was_zero = self.fc.snd_wnd == 0;
            self.fc.snd_wnd = new_wnd;
            self.fc.snd_wl1 = h.seq;
            self.fc.snd_wl2 = h.ack;
            if was_zero && new_wnd > 0 {
                self.fc.probe_deadline = None;
            } else if new_wnd == 0 && self.rel.send_buf.len_from(self.rel.snd_nxt) > 0 {
                self.fc.probe_deadline = Some(now + self.rel.rtt.rto());
            }
        }
    }

    /// RFC 793 step 7: payload delivery into the receive buffer — straight
    /// in when nothing is held back and the segment leaves no gap, else
    /// through the assembler — plus the ACK policy (every second segment,
    /// else delayed; immediate on out-of-order).
    pub(crate) fn process_payload(&mut self, h: &TcpHeader, payload: &[u8], now: u64) {
        if payload.is_empty() || !self.cm.state.can_recv() {
            return;
        }
        let rcv_nxt = self.fc.rcv_nxt;
        let mut delivered = 0;
        if self.fc.asm.is_empty() && h.seq - rcv_nxt <= 0 && !always_assemble() {
            if let Some(fresh) = self.fc.asm.admit(h.seq, payload, rcv_nxt) {
                delivered = self.fc.recv_buf.write(fresh);
            }
        } else if self.fc.asm.insert(h.seq, payload, rcv_nxt) {
            // Runs are disjoint and never adjacent: at most one begins here.
            if let Some(run) = self.fc.asm.take_contiguous(rcv_nxt) {
                delivered = self.fc.recv_buf.write(&run);
            }
        }
        // A receive buffer that filled up drops the tail; the shrunken
        // advertised window makes the peer resend it later.
        self.fc.rcv_nxt += delivered as u32;
        if delivered > 0 {
            self.events.push(SockEvent::Readable(self.id));
        }
        // ACK policy: every second segment, else delayed.
        self.fc.ack_pending += 1;
        if h.seq != self.fc.rcv_nxt && !self.fc.asm.is_empty() {
            // Out-of-order: ACK immediately (fast-retransmit support).
            self.fc.ack_now = true;
        } else if self.fc.ack_pending >= 2 || self.cfg.delayed_ack_ns == 0 {
            self.fc.ack_now = true;
        } else if self.fc.ack_deadline.is_none() {
            self.fc.ack_deadline = Some(now + self.cfg.delayed_ack_ns);
        }
    }

    /// Transmit step 4: a pure ACK if one is owed (forced or delayed-ACK
    /// quota reached).
    pub(crate) fn transmit_pure_ack(&mut self) -> Option<(TcpHeader, usize)> {
        if self.fc.ack_now || (self.fc.ack_pending > 0 && self.fc.ack_deadline.is_none()) {
            self.fc.ack_now = false;
            self.fc.ack_pending = 0;
            self.fc.ack_deadline = None;
            return Some((self.bare_ack(), 0));
        }
        None
    }
}

/// Whether every payload goes through the assembler: only in the property
/// test that compares `process_payload`'s fast path with its general one.
#[cfg(not(test))]
fn always_assemble() -> bool {
    false
}

#[cfg(test)]
thread_local! {
    pub(crate) static ALWAYS_ASSEMBLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
fn always_assemble() -> bool {
    ALWAYS_ASSEMBLE.with(|on| on.get())
}
