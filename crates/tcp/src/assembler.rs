//! Out-of-order segment reassembly for the receive path.
//!
//! Holds data that arrived beyond `rcv.nxt` until the gap is filled, then
//! releases a contiguous run. Overlapping and duplicate segments are
//! tolerated (the network — and our NIC fault injector — produce both).

use neat_net::SeqNum;

/// Buffered out-of-order data, kept sorted and non-overlapping.
#[derive(Debug, Default)]
pub struct Assembler {
    /// Sorted, disjoint (start, data) runs strictly above the ack point.
    runs: Vec<(SeqNum, Vec<u8>)>,
    /// Bytes currently buffered (capacity accounting).
    buffered: usize,
    /// Maximum bytes this assembler may hold.
    cap: usize,
}

impl Assembler {
    pub fn new(cap: usize) -> Assembler {
        Assembler {
            runs: Vec::new(),
            buffered: 0,
            cap,
        }
    }

    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Resize the capacity (`SockOpt::RecvBuf` tracks the receive buffer).
    /// Clamped to what is already buffered; held runs are never dropped.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap.max(self.buffered);
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Allocated heap bytes across all out-of-order runs (capacity
    /// accounting for the `ConnBudget`).
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(SeqNum, Vec<u8>)>()
            + self.runs.iter().map(|(_, d)| d.capacity()).sum::<usize>()
    }

    /// What of a segment `[seq, seq+data.len())` is new above `ack`: the
    /// bytes from `max(seq, ack)` on (none if all of it was delivered
    /// before), or `None` if holding them would exceed the capacity and
    /// the segment is to be dropped.
    pub fn admit<'a>(&self, seq: SeqNum, data: &'a [u8], ack: SeqNum) -> Option<&'a [u8]> {
        let below = ((ack - seq).max(0) as usize).min(data.len());
        let fresh = &data[below..];
        (self.buffered + fresh.len() <= self.cap).then_some(fresh)
    }

    /// Insert a segment `[seq, seq+data.len())`, less what [`Self::admit`]
    /// trims. Returns false if it was dropped.
    pub fn insert(&mut self, seq: SeqNum, data: &[u8], ack: SeqNum) -> bool {
        let Some(data) = self.admit(seq, data, ack) else {
            return false;
        };
        if data.is_empty() {
            return true; // entirely old — nothing to keep
        }
        let seq = seq.max(ack);
        // Sort all runs (old + new) by start, then coalesce overlapping or
        // adjacent neighbours. On overlap the first-arrived bytes win —
        // honest TCP sends identical bytes, so the choice only matters for
        // corrupted duplicates.
        self.runs.push((seq, data.to_vec()));
        self.runs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut merged: Vec<(SeqNum, Vec<u8>)> = Vec::with_capacity(self.runs.len());
        for (s, d) in self.runs.drain(..) {
            if let Some((ls, ld)) = merged.last_mut() {
                let le = *ls + ld.len() as u32;
                if s <= le {
                    let se = s + d.len() as u32;
                    if se > le {
                        let skip = (le - s) as usize;
                        ld.extend_from_slice(&d[skip..]);
                    }
                    continue;
                }
            }
            merged.push((s, d));
        }
        self.runs = merged;
        self.buffered = self.runs.iter().map(|(_, d)| d.len()).sum();
        true
    }

    /// If a run begins exactly at `ack`, remove and return it (the data
    /// that just became in-order).
    pub fn take_contiguous(&mut self, ack: SeqNum) -> Option<Vec<u8>> {
        if let Some(pos) = self.runs.iter().position(|(s, _)| *s == ack) {
            let (_, data) = self.runs.remove(pos);
            self.buffered -= data.len();
            Some(data)
        } else {
            None
        }
    }

    /// Number of disjoint runs held (diagnostics; smoltcp caps this).
    pub fn gaps(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: u32) -> SeqNum {
        SeqNum(n)
    }

    #[test]
    fn in_order_take() {
        let mut a = Assembler::new(1024);
        assert!(a.insert(seq(100), b"hello", seq(100)));
        assert_eq!(a.take_contiguous(seq(100)).unwrap(), b"hello");
        assert!(a.is_empty());
    }

    #[test]
    fn gap_then_fill() {
        let mut a = Assembler::new(1024);
        assert!(a.insert(seq(105), b"world", seq(100)));
        assert!(a.take_contiguous(seq(100)).is_none());
        assert_eq!(a.gaps(), 1);
        assert!(a.insert(seq(100), b"hello", seq(100)));
        assert_eq!(a.take_contiguous(seq(100)).unwrap(), b"helloworld");
    }

    #[test]
    fn old_data_trimmed() {
        let mut a = Assembler::new(1024);
        // Bytes 90..110, but 90..100 already delivered.
        let data: Vec<u8> = (0..20).collect();
        assert!(a.insert(seq(90), &data, seq(100)));
        let got = a.take_contiguous(seq(100)).unwrap();
        assert_eq!(got, (10..20).collect::<Vec<u8>>());
    }

    #[test]
    fn entirely_old_is_noop() {
        let mut a = Assembler::new(16);
        assert!(a.insert(seq(0), b"abcdef", seq(100)));
        assert!(a.is_empty());
        assert_eq!(a.buffered(), 0);
    }

    #[test]
    fn duplicates_dont_grow() {
        let mut a = Assembler::new(1024);
        for _ in 0..5 {
            assert!(a.insert(seq(200), b"dup!", seq(100)));
        }
        assert_eq!(a.buffered(), 4);
        assert_eq!(a.gaps(), 1);
    }

    #[test]
    fn overlapping_merge() {
        let mut a = Assembler::new(1024);
        assert!(a.insert(seq(100), b"abcd", seq(100)));
        assert!(a.insert(seq(102), b"cdef", seq(100)));
        let got = a.take_contiguous(seq(100)).unwrap();
        assert_eq!(got, b"abcdef");
    }

    #[test]
    fn capacity_limit_drops() {
        let mut a = Assembler::new(8);
        assert!(a.insert(seq(200), b"12345678", seq(100)));
        assert!(!a.insert(seq(300), b"x", seq(100)), "over capacity");
        assert_eq!(a.buffered(), 8);
    }

    #[test]
    fn multiple_gaps_fill_in_any_order() {
        let mut a = Assembler::new(1024);
        assert!(a.insert(seq(110), b"cc", seq(100)));
        assert!(a.insert(seq(104), b"bb", seq(100)));
        assert_eq!(a.gaps(), 2);
        assert!(a.insert(seq(100), b"aaaa", seq(100)));
        assert_eq!(a.take_contiguous(seq(100)).unwrap(), b"aaaabb");
        assert!(a.take_contiguous(seq(106)).is_none());
        assert!(a.insert(seq(106), b"xxxx", seq(106)));
        assert_eq!(a.take_contiguous(seq(106)).unwrap(), b"xxxxcc");
        assert!(a.is_empty());
    }

    #[test]
    fn wrapping_sequence_space() {
        let near = SeqNum(u32::MAX - 2);
        let mut a = Assembler::new(64);
        assert!(a.insert(near, b"abcdef", near)); // crosses the wrap
        assert_eq!(a.take_contiguous(near).unwrap(), b"abcdef");
    }
}
