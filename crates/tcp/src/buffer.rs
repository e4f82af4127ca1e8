//! Send and receive stream buffers.
//!
//! The send buffer keeps every byte from the ACK point (`snd.una`) forward —
//! the retransmittable part of the stream — addressed by sequence number.
//! The receive buffer holds in-order bytes awaiting the application and,
//! past them, out-of-order bytes at their stream offset; the room past the
//! in-order bytes is the window we advertise.
//!
//! A ring that holds no byte owns no storage either: the stack parks a
//! drained ring's storage on its spare list for that direction and lends
//! it to the next ring that needs one ([`SendBuffer::park`],
//! [`SendBuffer::lend`] and their receive twins).

use neat_net::SeqNum;
use std::collections::VecDeque;

/// Give `ring` the storage parked last on `spares` if it has none;
/// returns the bytes lent.
fn lend(ring: &mut VecDeque<u8>, spares: &mut Vec<VecDeque<u8>>) -> usize {
    if ring.capacity() != 0 {
        return 0;
    }
    match spares.pop() {
        Some(storage) => {
            *ring = storage;
            ring.capacity()
        }
        None => 0,
    }
}

/// Move `ring`'s storage, cleared, onto `spares` if it holds no byte and
/// has any; returns the bytes parked.
fn park(ring: &mut VecDeque<u8>, spares: &mut Vec<VecDeque<u8>>) -> usize {
    if !ring.is_empty() || ring.capacity() == 0 {
        return 0;
    }
    let mut storage = std::mem::take(ring);
    storage.clear();
    let bytes = storage.capacity();
    spares.push(storage);
    bytes
}

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

    /// Our FIN, one past the last byte, was acknowledged: `snd.una` moves
    /// past its sequence number. Every byte was acknowledged before it.
    pub fn ack_fin(&mut self) {
        debug_assert!(self.data.is_empty(), "a FIN acknowledged before its bytes");
        self.base += 1;
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
    /// the `ConnBudget` accounts. Zero while the ring holds no byte: the
    /// stack parks a drained ring's storage ([`Self::park`]).
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity()
    }

    /// Take the storage parked last on `spares` if the ring has none;
    /// returns the bytes lent.
    pub(crate) fn lend(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        lend(&mut self.data, spares)
    }

    /// Park the ring's storage on `spares` if it holds no byte; returns
    /// the bytes parked.
    pub(crate) fn park(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        park(&mut self.data, spares)
    }

    /// Discard every byte and park the storage: the connection is leaving.
    pub(crate) fn release(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        self.data.clear();
        park(&mut self.data, spares)
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

/// Received bytes: the in-order ones awaiting the application, then the
/// out-of-order ones held at their stream offset.
///
/// The ring's front is `rcv.nxt − len()`. Bytes before the in-order mark
/// (`ready`) are readable, and `len`, `window`, `read` and `as_slices` stop
/// there. A segment beyond `rcv.nxt` is written at `mark + (seq − rcv.nxt)`
/// ([`Self::write_at`]); the [`crate::assembler::Assembler`] remembers which
/// ranges are held, and moves the mark over a range once the gap before it
/// fills ([`Self::advance`]). Nothing is copied twice, and nothing is
/// allocated per segment once the ring has grown.
///
/// Two edge rules. A byte written twice keeps the later copy: checksummed
/// segments of one stream carry identical bytes, so the choice only shows
/// for a corrupted duplicate. A segment that overruns the room (`window`)
/// is trimmed at the right edge (RFC 9293 §3.10.7.4), so held bytes never
/// reach past the capacity.
#[derive(Debug)]
pub struct RecvBuffer {
    /// Readable bytes, then held bytes and the zeroed gaps between them;
    /// `data.len()` is the end of the last held range.
    data: VecDeque<u8>,
    /// The in-order mark: `data[..ready]` is readable.
    ready: usize,
    cap: usize,
}

impl RecvBuffer {
    pub fn new(cap: usize) -> RecvBuffer {
        RecvBuffer {
            data: VecDeque::new(),
            ready: 0,
            cap,
        }
    }

    /// Place segment bytes `off` bytes past the in-order mark, trimmed at
    /// the right edge of the room; returns how many were kept. Bytes
    /// already there (an earlier copy) are overwritten; bytes past the
    /// end of the ring extend it, zero-filling any gap before them.
    pub(crate) fn write_at(&mut self, off: usize, buf: &[u8]) -> usize {
        let n = buf.len().min(self.window().saturating_sub(off));
        if n == 0 {
            return 0;
        }
        let at = self.ready + off;
        if at > self.data.len() {
            self.data.resize(at, 0);
        }
        let over = (self.data.len() - at).min(n);
        // The overwritten stretch `[at, at + over)`, cut where the ring wraps.
        let (a, b) = self.data.as_mut_slices();
        let split = a.len();
        let in_a = split.saturating_sub(at).min(over);
        let a_at = at.min(split);
        a[a_at..a_at + in_a].copy_from_slice(&buf[..in_a]);
        let b_at = (at + in_a).saturating_sub(split);
        b[b_at..b_at + over - in_a].copy_from_slice(&buf[in_a..over]);
        self.data.extend(&buf[over..n]);
        n
    }

    /// Move the in-order mark `n` bytes forward, over bytes already
    /// placed: they become readable. Clamped to the bytes placed.
    pub(crate) fn advance(&mut self, n: usize) {
        self.ready = (self.ready + n).min(self.data.len());
    }

    /// Move up to `buf.len()` in-order bytes out to the application.
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.ready);
        let (a, b) = self.data.as_slices();
        let cut = n.min(a.len());
        buf[..cut].copy_from_slice(&a[..cut]);
        buf[cut..n].copy_from_slice(&b[..n - cut]);
        self.data.drain(..n);
        self.ready -= n;
        n
    }

    /// In-order bytes awaiting the application.
    pub fn len(&self) -> usize {
        self.ready
    }

    pub fn is_empty(&self) -> bool {
        self.ready == 0
    }

    /// The receive window we can advertise: the room past the in-order
    /// mark (held bytes sit inside it).
    pub fn window(&self) -> usize {
        self.cap - self.ready
    }

    /// Allocated heap bytes (capacity, not configured cap); zero while
    /// the ring holds no byte, in order or held.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity()
    }

    /// Take the storage parked last on `spares` if the ring has none;
    /// returns the bytes lent.
    pub(crate) fn lend(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        lend(&mut self.data, spares)
    }

    /// Park the ring's storage on `spares` if it holds no byte, ready or
    /// held; returns the bytes parked.
    pub(crate) fn park(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        park(&mut self.data, spares)
    }

    /// Discard every byte and park the storage: the connection is leaving.
    pub(crate) fn release(&mut self, spares: &mut Vec<VecDeque<u8>>) -> usize {
        self.data.clear();
        self.ready = 0;
        park(&mut self.data, spares)
    }

    /// The in-order bytes, as the ring's two halves in stream order.
    pub(crate) fn as_slices(&self) -> (&[u8], &[u8]) {
        let (a, b) = self.data.as_slices();
        let cut = self.ready.min(a.len());
        (&a[..cut], &b[..self.ready - cut])
    }

    /// Rebuild a buffer from a checkpoint; `None` if `data` does not fit
    /// `cap`.
    pub fn from_parts(data: &[u8], cap: usize) -> Option<RecvBuffer> {
        (data.len() <= cap).then(|| RecvBuffer {
            data: data.to_vec().into(),
            ready: data.len(),
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

    /// An in-order append: place at the mark, then move the mark over it.
    fn push(r: &mut RecvBuffer, buf: &[u8]) -> usize {
        let n = r.write_at(0, buf);
        r.advance(n);
        n
    }

    #[test]
    fn recv_buffer_write_read_window() {
        let mut r = RecvBuffer::new(8);
        assert_eq!(r.window(), 8);
        assert_eq!(push(&mut r, b"abcdefghij"), 8);
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
            assert_eq!(push(&mut r, &stream[..64]), 64);
            let mut out = vec![0u8; first];
            assert_eq!(r.read(&mut out), first);
            assert_eq!(out, &stream[..first]);
            assert_eq!(push(&mut r, &stream[64..128]), first, "refill to the brim");
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

    /// Held bytes sit past the mark: not readable, not in the window's
    /// count, not in `as_slices`; the gap before them reads as nothing
    /// until it fills and the mark moves over both.
    #[test]
    fn held_bytes_wait_past_the_mark() {
        let mut r = RecvBuffer::new(16);
        assert_eq!(push(&mut r, b"ab"), 2);
        assert_eq!(r.write_at(3, b"fgh"), 3, "a gap of three");
        assert_eq!((r.len(), r.window()), (2, 14));
        let (a, b) = r.as_slices();
        assert_eq!([a, b].concat(), b"ab");
        let mut out = [0u8; 8];
        assert_eq!(r.read(&mut out), 2, "reads stop at the mark");
        assert_eq!(r.write_at(0, b"cde"), 3, "the gap fills in place");
        r.advance(6);
        assert_eq!(r.read(&mut out), 6);
        assert_eq!(&out[..6], b"cdefgh");
        assert!(r.is_empty());
    }

    /// The overlap rule: a byte placed twice keeps the later copy.
    #[test]
    fn a_later_copy_overwrites() {
        let mut r = RecvBuffer::new(16);
        assert_eq!(r.write_at(2, b"xxxx"), 4);
        assert_eq!(r.write_at(0, b"abcd"), 4, "overlaps the held run's head");
        r.advance(6);
        let mut out = [0u8; 6];
        assert_eq!(r.read(&mut out), 6);
        assert_eq!(&out, b"abcdxx");
    }

    /// The right-edge rule: what overruns the room is trimmed, and a
    /// segment wholly past it keeps nothing.
    #[test]
    fn an_overrun_is_trimmed_at_the_right_edge() {
        let mut r = RecvBuffer::new(8);
        assert_eq!(push(&mut r, b"ab"), 2);
        assert_eq!(r.write_at(4, b"1234"), 2, "room is 6 past the mark");
        assert_eq!(r.write_at(6, b"z"), 0);
        assert_eq!(r.write_at(0, b"cdef"), 4);
        r.advance(6);
        assert_eq!((r.len(), r.window()), (8, 0));
        let (a, b) = r.as_slices();
        assert_eq!([a, b].concat(), b"abcdef12");
    }

    /// Placing across the ring's wrap point, over held and fresh bytes
    /// alike, reads back what a flat model holds.
    #[test]
    fn write_at_across_the_wrap_point() {
        let stream: Vec<u8> = (0..=255).collect();
        for first in [5, 31, 60] {
            let mut r = RecvBuffer::new(64);
            assert_eq!(push(&mut r, &stream[..64]), 64);
            let mut sink = vec![0u8; first];
            assert_eq!(r.read(&mut sink), first);
            // Hold every other 3-byte run of the next `first` bytes, then
            // fill the whole stretch in one overlapping write.
            for off in (0..first).step_by(6) {
                let end = (off + 3).min(first);
                assert_eq!(r.write_at(off, &stream[64 + off..64 + end]), end - off);
            }
            assert_eq!(r.len(), 64 - first, "held bytes stay past the mark");
            assert_eq!(r.write_at(0, &stream[64..64 + first]), first);
            r.advance(first);
            assert!(!r.data.as_slices().1.is_empty(), "storage wraps");
            let mut got = vec![0u8; 64];
            assert_eq!(r.read(&mut got), 64);
            assert_eq!(got, &stream[first..64 + first]);
        }
    }
}
