//! Out-of-order segment reassembly for the receive path.
//!
//! The bytes themselves land in the receive ring at their stream offset
//! ([`RecvBuffer::write_at`]); the assembler only remembers which ranges
//! past `rcv.nxt` are held there. When a segment reaches `rcv.nxt`, the
//! held range it joins becomes in-order with it and the ring's mark moves
//! over both: no byte is copied twice, and once the range list has grown
//! to the connection's worst gap count nothing is allocated per segment.
//! Overlapping and duplicate segments are tolerated (the network — and our
//! NIC fault injector — produce both); the ring's rules decide their bytes:
//! a later copy overwrites an earlier one, and what overruns the ring's
//! room is trimmed at its right edge.

use crate::buffer::RecvBuffer;
use neat_net::SeqNum;

/// The held ranges `[start, end)` past the ACK point: sorted, disjoint and
/// never adjacent (touching ranges merge).
#[derive(Debug, Default)]
pub struct Assembler {
    ranges: Vec<(SeqNum, SeqNum)>,
    /// Bytes the ranges cover.
    buffered: usize,
}

impl Assembler {
    /// Bytes held out of order.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Allocated heap bytes of the range list (capacity accounting for the
    /// `ConnBudget`; the held bytes are the ring's).
    pub fn heap_bytes(&self) -> usize {
        self.ranges.capacity() * std::mem::size_of::<(SeqNum, SeqNum)>()
    }

    /// Take a segment `[seq, seq+data.len())` with the ACK point at `ack`:
    /// what was delivered before is trimmed off, the rest goes into `ring`
    /// at its offset past `ack` (trimmed at the ring's right edge) and is
    /// recorded as held. Returns how many bytes became in-order: the ring's
    /// mark has moved over them, and the caller's `ack` moves by as many.
    pub fn receive(
        &mut self,
        ring: &mut RecvBuffer,
        seq: SeqNum,
        data: &[u8],
        ack: SeqNum,
    ) -> usize {
        let below = ((ack - seq).max(0) as usize).min(data.len());
        let off = (seq - ack).max(0) as usize;
        let kept = ring.write_at(off, &data[below..]);
        if kept == 0 {
            return 0;
        }
        let start = ack + off as u32;
        let ready = self.hold(start, start + kept as u32, ack);
        ring.advance(ready);
        ready
    }

    /// Record `[start, end)` as held, merging every range it overlaps or
    /// touches. If the merged range begins at `ack` it is no longer held:
    /// it is dropped from the list and its length returned.
    fn hold(&mut self, start: SeqNum, end: SeqNum, ack: SeqNum) -> usize {
        // `ranges[lo..hi]` overlap or touch `[start, end)`.
        let lo = self.ranges.partition_point(|&(_, e)| e - start < 0);
        let hi = self.ranges.partition_point(|&(s, _)| s - end <= 0);
        let (mut s, mut e) = (start, end);
        if lo < hi {
            s = s.min(self.ranges[lo].0);
            e = e.max(self.ranges[hi - 1].1);
        }
        let covered: usize = self.ranges[lo..hi]
            .iter()
            .map(|&(s, e)| (e - s) as usize)
            .sum();
        if s == ack {
            // Only the first range can reach back to `ack`: `lo` is 0.
            self.ranges.drain(..hi);
            self.buffered -= covered;
            return (e - ack) as usize;
        }
        self.buffered += (e - s) as usize - covered;
        if lo == hi {
            self.ranges.insert(lo, (s, e));
        } else {
            self.ranges[lo] = (s, e);
            self.ranges.drain(lo + 1..hi);
        }
        0
    }

    /// Number of disjoint ranges held (diagnostics; smoltcp caps this).
    pub fn gaps(&self) -> usize {
        self.ranges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: u32) -> SeqNum {
        SeqNum(n)
    }

    /// An assembler, its ring of `cap` bytes, and the ACK point.
    struct Rx {
        asm: Assembler,
        ring: RecvBuffer,
        ack: SeqNum,
    }

    impl Rx {
        fn new(cap: usize, ack: u32) -> Rx {
            Rx {
                asm: Assembler::default(),
                ring: RecvBuffer::new(cap),
                ack: seq(ack),
            }
        }

        /// Receive a segment; returns the bytes that became in-order.
        fn insert(&mut self, at: SeqNum, data: &[u8]) -> usize {
            let n = self.asm.receive(&mut self.ring, at, data, self.ack);
            self.ack += n as u32;
            n
        }

        /// Every in-order byte, read out.
        fn take(&mut self) -> Vec<u8> {
            let mut out = vec![0u8; self.ring.len()];
            self.ring.read(&mut out);
            out
        }
    }

    #[test]
    fn in_order_take() {
        let mut a = Rx::new(1024, 100);
        assert_eq!(a.insert(seq(100), b"hello"), 5);
        assert_eq!(a.take(), b"hello");
        assert!(a.asm.is_empty());
    }

    #[test]
    fn gap_then_fill() {
        let mut a = Rx::new(1024, 100);
        assert_eq!(a.insert(seq(105), b"world"), 0);
        assert!(a.take().is_empty());
        assert_eq!(a.asm.gaps(), 1);
        assert_eq!(a.insert(seq(100), b"hello"), 10);
        assert_eq!(a.take(), b"helloworld");
    }

    #[test]
    fn old_data_trimmed() {
        let mut a = Rx::new(1024, 100);
        // Bytes 90..110, but 90..100 already delivered.
        let data: Vec<u8> = (0..20).collect();
        assert_eq!(a.insert(seq(90), &data), 10);
        assert_eq!(a.take(), (10..20).collect::<Vec<u8>>());
    }

    #[test]
    fn entirely_old_is_noop() {
        let mut a = Rx::new(16, 100);
        assert_eq!(a.insert(seq(0), b"abcdef"), 0);
        assert!(a.asm.is_empty());
        assert_eq!(a.asm.buffered(), 0);
    }

    #[test]
    fn duplicates_dont_grow() {
        let mut a = Rx::new(1024, 100);
        for _ in 0..5 {
            assert_eq!(a.insert(seq(200), b"dup!"), 0);
        }
        assert_eq!(a.asm.buffered(), 4);
        assert_eq!(a.asm.gaps(), 1);
    }

    #[test]
    fn overlapping_merge() {
        let mut a = Rx::new(1024, 100);
        assert_eq!(a.insert(seq(100), b"abcd"), 4);
        assert_eq!(a.insert(seq(102), b"cdef"), 2);
        assert_eq!(a.take(), b"abcdef");
    }

    /// Overlapping held copies: the later one's bytes win, wherever the
    /// runs start.
    #[test]
    fn overlap_keeps_the_later_copy() {
        let mut a = Rx::new(1024, 100);
        assert_eq!(a.insert(seq(104), b"WXYZ"), 0);
        assert_eq!(a.insert(seq(102), b"cdef"), 0);
        assert_eq!(a.insert(seq(106), b"gh"), 0);
        assert_eq!((a.asm.gaps(), a.asm.buffered()), (1, 6));
        assert_eq!(a.insert(seq(100), b"ab"), 8);
        assert_eq!(a.take(), b"abcdefgh");
    }

    /// The ring's room bounds what is held: a segment past it is trimmed
    /// at the right edge, and one wholly beyond keeps nothing.
    #[test]
    fn capacity_limit_trims() {
        let mut a = Rx::new(8, 100);
        assert_eq!(a.insert(seq(104), b"12345678"), 0);
        assert_eq!(a.asm.buffered(), 4, "trimmed at the right edge");
        assert_eq!(a.insert(seq(300), b"x"), 0, "over capacity");
        assert_eq!(a.asm.buffered(), 4);
        assert_eq!(a.insert(seq(100), b"abcdefgh"), 8);
        assert_eq!(a.take(), b"abcdefgh", "the later copy overwrote");
    }

    #[test]
    fn multiple_gaps_fill_in_any_order() {
        let mut a = Rx::new(1024, 100);
        assert_eq!(a.insert(seq(110), b"cc"), 0);
        assert_eq!(a.insert(seq(104), b"bb"), 0);
        assert_eq!(a.asm.gaps(), 2);
        assert_eq!(a.insert(seq(100), b"aaaa"), 6);
        assert_eq!(a.take(), b"aaaabb");
        assert_eq!(a.ack, seq(106));
        assert_eq!(a.insert(seq(106), b"xxxx"), 6);
        assert_eq!(a.take(), b"xxxxcc");
        assert!(a.asm.is_empty());
    }

    /// A range that touches a held one merges with it: ranges are never
    /// adjacent.
    #[test]
    fn touching_ranges_merge() {
        let mut a = Rx::new(1024, 100);
        assert_eq!(a.insert(seq(110), b"ef"), 0);
        assert_eq!(a.insert(seq(106), b"ab"), 0);
        assert_eq!(a.insert(seq(108), b"cd"), 0);
        assert_eq!(a.asm.gaps(), 1);
        assert_eq!(a.asm.ranges, vec![(seq(106), seq(112))]);
    }

    #[test]
    fn wrapping_sequence_space() {
        let near = u32::MAX - 2;
        let mut a = Rx::new(64, near);
        assert_eq!(a.insert(seq(near), b"abcdef"), 6, "crosses the wrap");
        assert_eq!(a.take(), b"abcdef");
        let mut a = Rx::new(64, near);
        assert_eq!(a.insert(seq(near) + 3, b"def"), 0, "held past the wrap");
        assert_eq!(a.insert(seq(near), b"abc"), 6);
        assert_eq!(a.take(), b"abcdef");
    }
}
