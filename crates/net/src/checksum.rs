//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header.
//!
//! The kernel sums eight bytes at a time in native byte order and converts
//! once per call (RFC 1071 §2(B): the one's-complement sum of byte-swapped
//! words is the byte-swapped sum). A call's folded sum is congruent mod
//! 0xFFFF to what one big-endian 16-bit word at a time would have summed,
//! and both are zero only for all-zero input, so every finished checksum is
//! the same bit for bit.

use std::net::Ipv4Addr;

/// Accumulate bytes into a 32-bit one's-complement sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    /// Folded per-call sums, in network order.
    sum: u32,
    /// A pending odd byte from the previous `add` call.
    carry_byte: Option<u8>,
}

/// Fold a one's-complement sum to 16 bits (end-around carry). Only zero
/// folds to zero.
fn fold(mut s: u64) -> u16 {
    while s >> 16 != 0 {
        s = (s & 0xFFFF) + (s >> 16);
    }
    s as u16
}

impl Checksum {
    pub fn new() -> Checksum {
        Checksum::default()
    }

    /// Feed bytes into the sum. Handles odd-length chunks across calls.
    pub fn add(&mut self, data: &[u8]) {
        let mut data = data;
        if let Some(hi) = self.carry_byte.take() {
            let [lo, rest @ ..] = data else {
                self.carry_byte = Some(hi);
                return;
            };
            self.sum += u32::from(u16::from_be_bytes([hi, *lo]));
            data = rest;
        }
        // Native-endian 64-bit words, each added as its two 32-bit halves:
        // the accumulator cannot overflow below 16 GiB.
        let (words, tail) = data.as_chunks::<8>();
        let mut acc = 0u64;
        for w in words {
            let w = u64::from_ne_bytes(*w);
            acc += (w & 0xFFFF_FFFF) + (w >> 32);
        }
        let (pairs, odd) = tail.as_chunks::<2>();
        for p in pairs {
            acc += u64::from(u16::from_ne_bytes(*p));
        }
        if let [last] = odd {
            self.carry_byte = Some(*last);
        }
        self.sum += u32::from(u16::from_be_bytes(fold(acc).to_ne_bytes()));
    }

    /// Finish: fold carries and complement. A trailing odd byte is padded
    /// with zero per RFC 1071.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.carry_byte.take() {
            self.sum += u32::from(u16::from_be_bytes([hi, 0]));
        }
        !fold(u64::from(self.sum))
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add(data);
    c.finish()
}

/// Verify a region whose checksum field is already in place: the sum over
/// the whole region must be zero (i.e. `checksum() == 0`).
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

/// The TCP/UDP pseudo-header contribution (RFC 793 §3.1).
pub fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, len: u16) -> Checksum {
    let mut b = [0u8; 12];
    b[..4].copy_from_slice(&src.octets());
    b[4..8].copy_from_slice(&dst.octets());
    b[9] = protocol;
    b[10..].copy_from_slice(&len.to_be_bytes());
    let mut c = Checksum::new();
    c.add(&b);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1071 worked example.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut c = Checksum::new();
        c.add(&data);
        // Sum = 0x0001+0xf203+0xf4f5+0xf6f7 = 0x2ddf0 -> fold -> 0xddf2
        assert_eq!(c.finish(), !0xddf2);
    }

    #[test]
    fn verify_detects_corruption() {
        let mut pkt = vec![
            0x45, 0x00, 0x00, 0x14, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06, 0, 0, 10, 0, 0, 1, 10, 0,
            0, 2,
        ];
        let c = checksum(&pkt);
        pkt[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&pkt));
        pkt[15] ^= 0x40;
        assert!(!verify(&pkt));
    }

    #[test]
    fn odd_length_across_chunks_matches_one_shot() {
        let data: Vec<u8> = (0u8..23).collect();
        let one = checksum(&data);
        let mut c = Checksum::new();
        c.add(&data[..5]);
        c.add(&data[5..6]);
        c.add(&data[6..17]);
        c.add(&data[17..]);
        assert_eq!(c.finish(), one);
    }

    #[test]
    fn trailing_odd_byte_padded() {
        // RFC 1071: trailing byte is the high half of a zero-padded word.
        assert_eq!(checksum(&[0xAB]), !0xAB00);
    }

    #[test]
    fn pseudo_header_contributes() {
        let a = pseudo_header(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            6,
            20,
        )
        .finish();
        let b = pseudo_header(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 3),
            6,
            20,
        )
        .finish();
        assert_ne!(a, b);
    }
}
