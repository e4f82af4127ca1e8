//! Flow-control component: the receive side — reassembly, the receive
//! buffer, the advertised window, ACK generation policy, and zero-window
//! probing against the peer's window.

use crate::assembler::Assembler;
use crate::buffer::RecvBuffer;
use crate::socket::{TcpSocket, OUR_WSCALE};
use crate::types::{SockEvent, TcpError, RECV_BUF};
use neat_net::{SeqNum, TcpFlags, TcpHeader};
use std::collections::VecDeque;

/// State owned by flow control: both window directions — what we can
/// accept (the receive ring, whose held ranges the assembler tracks) and
/// what the peer will (snd_wnd).
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
    pub(crate) fn new() -> FlowControl {
        FlowControl {
            rcv_nxt: SeqNum(0),
            recv_buf: RecvBuffer::new(RECV_BUF),
            asm: Assembler::default(),
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

/// RFC 793 step 1 for a segment of `seg_len` sequence numbers at `seq`,
/// against a receive window of `wnd` bytes from `rcv_nxt`. A TIME-WAIT
/// record (`stack/time_wait.rs`) asks the same question without a socket.
pub(crate) fn in_window(seq: SeqNum, seg_len: u32, rcv_nxt: SeqNum, wnd: u32) -> bool {
    if seg_len == 0 {
        if wnd == 0 {
            seq == rcv_nxt
        } else {
            seq - rcv_nxt >= -(wnd as i32) && (seq - rcv_nxt) < wnd as i32
        }
    } else {
        if wnd == 0 {
            return false;
        }
        (seq - rcv_nxt) < wnd as i32 && (seq + seg_len - rcv_nxt) > 0
    }
}

/// Flow-control logic: acceptability, window tracking, payload delivery,
/// ACK emission, and every write to `fc`.
impl TcpSocket {
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

    /// Lend the receive ring a storage parked on `spares` if it has none;
    /// returns the bytes lent.
    pub(crate) fn lend_recv_ring(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        self.fc.recv_buf.lend(spares)
    }

    /// Park the receive ring's storage on `spares` if the application has
    /// read every byte and none is held past a gap; returns the bytes
    /// parked.
    pub(crate) fn park_recv_ring(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        self.fc.recv_buf.park(spares)
    }

    /// The connection is leaving the stack: park the receive ring's
    /// storage, whatever it holds; returns the bytes parked.
    pub(crate) fn release_recv_ring(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        self.fc.recv_buf.release(spares)
    }

    /// RFC 793 step 1: is this segment within the receive window?
    pub(crate) fn seq_acceptable(&self, h: &TcpHeader, seg_len: u32) -> bool {
        in_window(
            h.seq,
            seg_len,
            self.fc.rcv_nxt,
            self.recv_window_bytes() as u32,
        )
    }

    pub(crate) fn recv_window_bytes(&self) -> usize {
        self.fc.recv_buf.window()
    }

    /// The window field value (scaled) for outgoing segments.
    pub(crate) fn window_field(&self) -> u16 {
        let w = self.recv_window_bytes() >> self.fc.rcv_wscale;
        w.min(u16::MAX as usize) as u16
    }

    /// The header of every segment that carries our ACK — data, FIN, their
    /// retransmissions, a pure ACK: `ack = rcv_nxt`, the scaled window.
    /// SYN and SYN-ACK advertise the unscaled window; the RST carries none.
    pub(crate) fn ack_header(&self, seq: SeqNum, flags: TcpFlags) -> TcpHeader {
        let mut h = TcpHeader::new(
            self.local_port,
            self.remote_port,
            seq,
            self.fc.rcv_nxt,
            flags,
        );
        h.window = self.window_field();
        h
    }

    /// A pure ACK's header, at `snd_nxt`.
    pub(crate) fn bare_ack(&self) -> TcpHeader {
        self.ack_header(self.rel.snd_nxt, TcpFlags::ack())
    }

    /// Owe the peer an ACK on the next transmit.
    pub(crate) fn owe_ack(&mut self) {
        self.fc.ack_now = true;
    }

    /// Take the ACK owed now, if there is one (an abort's RST rides on it).
    pub(crate) fn take_owed_ack(&mut self) -> bool {
        std::mem::take(&mut self.fc.ack_now)
    }

    /// A segment carrying our ACK went out: no ACK is owed any more.
    pub(crate) fn ack_sent(&mut self) {
        self.fc.ack_pending = 0;
        self.fc.ack_deadline = None;
        self.fc.ack_now = false;
    }

    /// The peer's SYN, on either open: the receive sequence starts after
    /// it, it switches window scaling on by asking for it, and its window
    /// is the first one taken; `wl2` is the ACK that window came with.
    pub(crate) fn take_syn_window(&mut self, syn: &TcpHeader, wl2: SeqNum) {
        self.fc.rcv_nxt = syn.seq + 1;
        if let Some(ws) = syn.window_scale {
            self.fc.snd_wscale = ws;
            self.fc.rcv_wscale = OUR_WSCALE;
        }
        self.take_window(syn, wl2);
    }

    /// Take the peer's (scaled) window from `h`, and `h` as the segment
    /// that last set it (RFC 793 wl1/wl2).
    pub(crate) fn take_window(&mut self, h: &TcpHeader, wl2: SeqNum) {
        self.fc.snd_wnd = (h.window as usize) << self.fc.snd_wscale;
        self.fc.snd_wl1 = h.seq;
        self.fc.snd_wl2 = wl2;
    }

    /// Window update (RFC 793: wl1/wl2 guard against stale segments),
    /// plus zero-window probe arming when the peer closes its window.
    pub(crate) fn process_window_update(&mut self, h: &TcpHeader, now: u64) {
        if h.seq - self.fc.snd_wl1 > 0 || (h.seq == self.fc.snd_wl1 && h.ack - self.fc.snd_wl2 >= 0)
        {
            let was_zero = self.fc.snd_wnd == 0;
            self.take_window(h, h.ack);
            let new_wnd = self.fc.snd_wnd;
            if was_zero && new_wnd > 0 {
                self.fc.probe_deadline = None;
            } else if new_wnd == 0 && self.rel.send_buf.len_from(self.rel.snd_nxt) > 0 {
                self.fc.probe_deadline = Some(now + self.rel.rtt.rto());
            }
        }
    }

    /// RFC 793 step 7: payload delivery into the receive ring at its
    /// stream offset, in order or held by the assembler — plus the ACK
    /// policy (every second segment, else delayed; immediate on
    /// out-of-order).
    pub(crate) fn process_payload(&mut self, h: &TcpHeader, payload: &[u8], now: u64) {
        if payload.is_empty() || !self.cm.state.can_recv() {
            return;
        }
        // What overruns the ring's room is trimmed; the advertised window
        // makes the peer resend it later.
        let fc = &mut self.fc;
        let delivered = fc.asm.receive(&mut fc.recv_buf, h.seq, payload, fc.rcv_nxt);
        self.fc.rcv_nxt += delivered as u32;
        if delivered > 0 {
            self.events.push(SockEvent::Readable(self.id));
        }
        // ACK policy: every second segment, else delayed.
        self.fc.ack_pending += 1;
        if h.seq != self.fc.rcv_nxt && !self.fc.asm.is_empty() {
            // Out-of-order: ACK immediately (fast-retransmit support).
            self.owe_ack();
        } else if self.fc.ack_pending >= 2 || self.cfg.delayed_ack_ns == 0 {
            self.owe_ack();
        } else if self.fc.ack_deadline.is_none() {
            self.fc.ack_deadline = Some(now + self.cfg.delayed_ack_ns);
        }
    }

    /// The peer's FIN, in order: it takes one sequence number and is
    /// ACKed at once.
    pub(crate) fn consume_peer_fin(&mut self) {
        self.fc.rcv_nxt += 1;
        self.owe_ack();
    }

    /// Flow control's deadlines: a delayed ACK is owed now if segments
    /// wait for it; a zero-window probe resends from `snd_una` and probes
    /// again an RTO (at least 1 ms) later.
    pub(crate) fn on_flow_timers(&mut self, now: u64) {
        if self.fc.ack_deadline.take_if(|d| now >= *d).is_some() && self.fc.ack_pending > 0 {
            self.owe_ack();
        }
        if self.fc.probe_deadline.is_some_and(|d| now >= d) {
            self.fc.probe_deadline = Some(now + self.rel.rtt.rto().max(1_000_000));
            self.retransmit_now();
        }
    }

    /// An abort stops the receive side's timers.
    pub(crate) fn stop_receive_timers(&mut self) {
        self.fc.ack_deadline = None;
        self.fc.probe_deadline = None;
    }

    /// Transmit step 4: a pure ACK if one is owed (forced or delayed-ACK
    /// quota reached).
    pub(crate) fn transmit_pure_ack(&mut self) -> Option<(TcpHeader, usize)> {
        if self.fc.ack_now || (self.fc.ack_pending > 0 && self.fc.ack_deadline.is_none()) {
            self.ack_sent();
            return Some((self.bare_ack(), 0));
        }
        None
    }

    /// TIME-WAIT's one segment: the ACK a retransmitted FIN is owed. Unlike
    /// every other ACK it leaves a delayed-ACK deadline armed, which then
    /// wakes the socket once for nothing (kept as found).
    pub(crate) fn transmit_time_wait_ack(&mut self) -> Option<(TcpHeader, usize)> {
        if !self.fc.ack_now {
            return None;
        }
        let deadline = self.fc.ack_deadline;
        self.ack_sent();
        self.fc.ack_deadline = deadline;
        Some((self.bare_ack(), 0))
    }
}
