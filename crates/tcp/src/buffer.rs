//! Send and receive stream buffers.
//!
//! The send buffer keeps every byte from the ACK point (`snd.una`) forward —
//! the retransmittable part of the stream — addressed by sequence number.
//! The receive buffer holds in-order bytes awaiting the application; its
//! free space is the window we advertise.

use neat_net::SeqNum;
use std::collections::VecDeque;

/// Bytes between `snd.una` and the end of the user-enqueued stream.
#[derive(Debug)]
pub struct SendBuffer {
    /// Sequence number of `data[0]` (== snd.una).
    base: SeqNum,
    data: VecDeque<u8>,
    cap: usize,
}

impl SendBuffer {
    pub fn new(base: SeqNum, cap: usize) -> SendBuffer {
        SendBuffer {
            base,
            data: VecDeque::new(),
            cap,
        }
    }

    /// Enqueue user data; returns how many bytes were accepted.
    pub fn push(&mut self, buf: &[u8]) -> usize {
        let room = self.cap - self.data.len();
        let n = buf.len().min(room);
        self.data.extend(&buf[..n]);
        n
    }

    /// Total buffered bytes (unacked + unsent).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Free space for new user data.
    pub fn room(&self) -> usize {
        self.cap - self.data.len()
    }

    pub fn base(&self) -> SeqNum {
        self.base
    }

    /// Last sequence number + 1 covered by the buffer.
    pub fn end(&self) -> SeqNum {
        self.base + self.data.len() as u32
    }

    /// Drop bytes acknowledged up to `ack`; returns bytes released.
    pub fn ack_to(&mut self, ack: SeqNum) -> usize {
        let n = (ack - self.base).max(0) as usize;
        let n = n.min(self.data.len());
        self.data.drain(..n);
        self.base += n as u32;
        n
    }

    /// Up to `len` bytes starting at sequence `seq` (for transmit or
    /// retransmit), as the ring's two halves in stream order. Both are
    /// empty if `seq` is outside the buffer.
    pub fn slices(&self, seq: SeqNum, len: usize) -> (&[u8], &[u8]) {
        let off = seq - self.base;
        if off < 0 || off as usize >= self.data.len() {
            return (&[], &[]);
        }
        let off = off as usize;
        let end = (off + len).min(self.data.len());
        let (a, b) = self.data.as_slices();
        let cut = |i: usize| i.min(a.len());
        (&a[cut(off)..cut(end)], &b[off - cut(off)..end - cut(end)])
    }

    /// [`Self::slices`], copied out.
    pub fn peek(&self, seq: SeqNum, len: usize) -> Vec<u8> {
        let (a, b) = self.slices(seq, len);
        [a, b].concat()
    }

    /// Allocated heap bytes (capacity, not configured cap) — the number
    /// the `ConnBudget` accounts. Lazily-allocated buffers keep idle
    /// connections near zero here.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity()
    }

    /// Bytes available at or beyond `seq`.
    pub fn len_from(&self, seq: SeqNum) -> usize {
        let off = seq - self.base;
        if off < 0 {
            return self.data.len();
        }
        self.data.len().saturating_sub(off as usize)
    }

    /// Rebuild a buffer from a checkpoint; `None` if `data` does not fit
    /// `cap` (no buffer could have held it).
    pub fn from_parts(base: SeqNum, data: &[u8], cap: usize) -> Option<SendBuffer> {
        (data.len() <= cap).then(|| SendBuffer {
            base,
            data: data.to_vec().into(),
            cap,
        })
    }
}

/// In-order received bytes awaiting the application.
#[derive(Debug)]
pub struct RecvBuffer {
    data: VecDeque<u8>,
    cap: usize,
}

impl RecvBuffer {
    pub fn new(cap: usize) -> RecvBuffer {
        RecvBuffer {
            data: VecDeque::new(),
            cap,
        }
    }

    /// Append in-order stream bytes (flow control guarantees room; any
    /// excess is truncated defensively).
    pub fn write(&mut self, buf: &[u8]) -> usize {
        let n = buf.len().min(self.cap - self.data.len());
        self.data.extend(&buf[..n]);
        n
    }

    /// Move up to `buf.len()` bytes out to the application.
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.data.len());
        let (a, b) = self.data.as_slices();
        let cut = n.min(a.len());
        buf[..cut].copy_from_slice(&a[..cut]);
        buf[cut..n].copy_from_slice(&b[..n - cut]);
        self.data.drain(..n);
        n
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The receive window we can advertise.
    pub fn window(&self) -> usize {
        self.cap - self.data.len()
    }

    /// Configured capacity (advertised-window ceiling).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Resize the capacity (`SockOpt::RecvBuf`). Clamped to the bytes
    /// already buffered so the window can shrink to zero but never
    /// underflow; buffered data is never dropped.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap.max(self.data.len());
    }

    /// Allocated heap bytes (capacity, not configured cap).
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity()
    }

    /// Every buffered byte, as the ring's two halves in stream order.
    pub(crate) fn as_slices(&self) -> (&[u8], &[u8]) {
        self.data.as_slices()
    }

    /// Rebuild a buffer from a checkpoint; `None` if `data` does not fit
    /// `cap`.
    pub fn from_parts(data: &[u8], cap: usize) -> Option<RecvBuffer> {
        (data.len() <= cap).then(|| RecvBuffer {
            data: data.to_vec().into(),
            cap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_buffer_push_ack_peek() {
        let mut s = SendBuffer::new(SeqNum(1000), 10);
        assert_eq!(s.push(b"hello world"), 10, "capacity limits push");
        assert_eq!(s.peek(SeqNum(1000), 5), b"hello");
        assert_eq!(s.peek(SeqNum(1006), 10), b"worl");
        assert_eq!(s.ack_to(SeqNum(1005)), 5);
        assert_eq!(s.base(), SeqNum(1005));
        assert_eq!(s.peek(SeqNum(1005), 5), b" worl");
        assert_eq!(s.room(), 5);
        assert_eq!(s.push(b"xyz"), 3);
        assert_eq!(s.end(), SeqNum(1013));
    }

    #[test]
    fn ack_beyond_end_clamps() {
        let mut s = SendBuffer::new(SeqNum(0), 100);
        s.push(b"abc");
        assert_eq!(s.ack_to(SeqNum(50)), 3);
        assert_eq!(s.base(), SeqNum(3), "base advances only over real data");
        assert!(s.is_empty());
    }

    #[test]
    fn old_ack_is_noop() {
        let mut s = SendBuffer::new(SeqNum(100), 100);
        s.push(b"abc");
        assert_eq!(s.ack_to(SeqNum(50)), 0);
        assert_eq!(s.base(), SeqNum(100));
    }

    #[test]
    fn peek_outside_returns_empty() {
        let s = SendBuffer::new(SeqNum(100), 100);
        assert!(s.peek(SeqNum(100), 4).is_empty());
        assert!(s.peek(SeqNum(90), 4).is_empty());
    }

    #[test]
    fn len_from_positions() {
        let mut s = SendBuffer::new(SeqNum(100), 100);
        s.push(b"0123456789");
        assert_eq!(s.len_from(SeqNum(100)), 10);
        assert_eq!(s.len_from(SeqNum(105)), 5);
        assert_eq!(s.len_from(SeqNum(110)), 0);
        assert_eq!(s.len_from(SeqNum(115)), 0);
    }

    #[test]
    fn send_buffer_wraps_sequence_space() {
        let mut s = SendBuffer::new(SeqNum(u32::MAX - 1), 100);
        s.push(b"abcdef");
        assert_eq!(s.end(), SeqNum(4));
        assert_eq!(s.peek(SeqNum(u32::MAX), 3), b"bcd");
        assert_eq!(s.ack_to(SeqNum(2)), 4);
        assert_eq!(s.peek(SeqNum(2), 2), b"ef");
    }

    #[test]
    fn recv_buffer_write_read_window() {
        let mut r = RecvBuffer::new(8);
        assert_eq!(r.window(), 8);
        assert_eq!(r.write(b"abcdefghij"), 8);
        assert_eq!(r.window(), 0);
        let mut out = [0u8; 5];
        assert_eq!(r.read(&mut out), 5);
        assert_eq!(&out, b"abcde");
        assert_eq!(r.window(), 5);
        assert_eq!(r.len(), 3);
        let mut rest = [0u8; 10];
        assert_eq!(r.read(&mut rest), 3);
        assert_eq!(&rest[..3], b"fgh");
        assert!(r.is_empty());
    }

    /// Fill, release part, refill: the ring's storage now wraps, and every
    /// `peek`/`slices` window reads what a flat `Vec` model holds.
    #[test]
    fn send_buffer_peek_across_the_wrap_point() {
        let mut s = SendBuffer::new(SeqNum(u32::MAX - 20), 64);
        let stream: Vec<u8> = (0..=255).collect();
        assert_eq!(s.push(&stream[..64]), 64);
        assert_eq!(s.ack_to(s.base() + 40), 40);
        assert_eq!(s.push(&stream[64..104]), 40);
        let model = &stream[40..104];
        let (a, b) = s.data.as_slices();
        assert!(!a.is_empty() && !b.is_empty(), "storage wraps");
        for off in 0..=model.len() {
            for len in [0, 1, 7, 24, 25, 64, 100] {
                let want = &model[off.min(model.len())..(off + len).min(model.len())];
                let seq = s.base() + off as u32;
                assert_eq!(s.peek(seq, len), want, "peek({off}, {len})");
                let (a, b) = s.slices(seq, len);
                assert_eq!([a, b].concat(), want, "slices({off}, {len})");
            }
        }
        let (a, b) = s.slices(s.base(), s.len());
        assert_eq!([a, b].concat(), model);
    }

    #[test]
    fn recv_buffer_read_across_the_wrap_point() {
        let stream: Vec<u8> = (0..=255).collect();
        for first in [1, 13, 40, 63, 64] {
            let mut r = RecvBuffer::new(64);
            assert_eq!(r.write(&stream[..64]), 64);
            let mut out = vec![0u8; first];
            assert_eq!(r.read(&mut out), first);
            assert_eq!(out, &stream[..first]);
            assert_eq!(r.write(&stream[64..128]), first, "refill to the brim");
            let (a, b) = r.as_slices();
            assert_eq!([a, b].concat(), &stream[first..64 + first]);
            assert!(
                first == 64 || !r.data.as_slices().1.is_empty(),
                "storage wraps"
            );
            // Drain in uneven sips; the bytes come out in stream order.
            let mut got = Vec::new();
            for sip in [3usize, 0, 29, 64] {
                let mut buf = vec![0xEE; sip];
                let n = r.read(&mut buf);
                assert_eq!(n, sip.min(64 - got.len()));
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got, &stream[first..64 + first]);
            assert!(r.is_empty());
        }
    }
}
