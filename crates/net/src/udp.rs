//! UDP (RFC 768) with mandatory checksum (computed over the pseudo-header).

use crate::checksum::{pseudo_header, Checksum};
use crate::wire::{get_u16, need, set_u16, NetError, NetResult};
use std::net::Ipv4Addr;

pub const UDP_HEADER_LEN: usize = 8;

/// A parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub len: u16,
}

impl UdpHeader {
    /// Parse + validate the checksum against the IPv4 pseudo-header.
    /// Returns the header and the payload range.
    pub fn parse(
        buf: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> NetResult<(UdpHeader, std::ops::Range<usize>)> {
        need(buf, UDP_HEADER_LEN)?;
        let len = get_u16(buf, 4);
        if (len as usize) < UDP_HEADER_LEN || (len as usize) > buf.len() {
            return Err(NetError::BadLength);
        }
        let wire_csum = get_u16(buf, 6);
        // Checksum 0 means "not computed" in classic UDP; we always compute
        // on emit, and accept 0 on parse for interop with test vectors.
        if wire_csum != 0 {
            let mut c: Checksum = pseudo_header(src, dst, 17, len);
            c.add(&buf[..len as usize]);
            if c.finish() != 0 {
                return Err(NetError::BadChecksum);
            }
        }
        Ok((
            UdpHeader {
                src_port: get_u16(buf, 0),
                dst_port: get_u16(buf, 2),
                len,
            },
            UDP_HEADER_LEN..len as usize,
        ))
    }

    /// Emit a full datagram (header + payload) with checksum, in one
    /// reservation.
    pub fn emit(
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Vec<u8> {
        let len = (UDP_HEADER_LEN + payload.len()) as u16;
        let mut h = [0u8; UDP_HEADER_LEN];
        set_u16(&mut h, 0, src_port);
        set_u16(&mut h, 2, dst_port);
        set_u16(&mut h, 4, len);
        let mut b = Vec::with_capacity(UDP_HEADER_LEN + payload.len());
        b.extend_from_slice(&h);
        b.extend_from_slice(payload);
        let mut c = pseudo_header(src, dst, 17, len);
        c.add(&b);
        let mut csum = c.finish();
        if csum == 0 {
            csum = 0xFFFF; // RFC 768: transmitted as all-ones
        }
        set_u16(&mut b, 6, csum);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);
    const B: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 100);

    #[test]
    fn roundtrip() {
        let bytes = UdpHeader::emit(6969, 1234, b"abcdefg", A, B);
        let (h, range) = UdpHeader::parse(&bytes, A, B).unwrap();
        assert_eq!(h.src_port, 6969);
        assert_eq!(h.dst_port, 1234);
        assert_eq!(&bytes[range], b"abcdefg");
    }

    #[test]
    fn checksum_covers_addresses() {
        let bytes = UdpHeader::emit(1, 2, b"xy", A, B);
        // Same bytes with a different claimed source must fail.
        assert_eq!(
            UdpHeader::parse(&bytes, Ipv4Addr::new(1, 2, 3, 4), B),
            Err(NetError::BadChecksum)
        );
    }

    #[test]
    fn payload_corruption_detected() {
        let mut bytes = UdpHeader::emit(1, 2, b"hello", A, B);
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert_eq!(UdpHeader::parse(&bytes, A, B), Err(NetError::BadChecksum));
    }

    #[test]
    fn length_validation() {
        let mut bytes = UdpHeader::emit(1, 2, b"hello", A, B);
        set_u16(&mut bytes, 4, 200);
        assert_eq!(UdpHeader::parse(&bytes, A, B), Err(NetError::BadLength));
        assert_eq!(
            UdpHeader::parse(&bytes[..6], A, B),
            Err(NetError::Truncated)
        );
    }

    #[test]
    fn empty_payload_ok() {
        let bytes = UdpHeader::emit(53, 53, &[], A, B);
        let (h, range) = UdpHeader::parse(&bytes, A, B).unwrap();
        assert_eq!(h.len, 8);
        assert!(range.is_empty());
    }
}
