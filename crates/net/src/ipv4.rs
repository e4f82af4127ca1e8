//! IPv4 (RFC 791): header parse/emit with checksum. The stack neither
//! fragments (it emits DF with MSS-sized segments) nor reassembles: the
//! fragment fields are parsed so the receive path can drop fragments.

use crate::checksum;
use crate::wire::{get_u16, need, set_u16, NetError, NetResult};
use std::net::Ipv4Addr;

/// Transport protocols carried by this stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    Icmp,
    Tcp,
    Udp,
    Unknown(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Unknown(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Unknown(v) => v,
        }
    }
}

pub const IPV4_HEADER_LEN: usize = 20;

/// A parsed IPv4 header (options are accepted but ignored, like the paper's
/// stack and smoltcp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub protocol: IpProtocol,
    pub ttl: u8,
    pub ident: u16,
    pub dont_frag: bool,
    pub more_frags: bool,
    /// Fragment offset in bytes (stored as 8-byte units on the wire).
    pub frag_offset: u16,
    /// Total length (header + payload).
    pub total_len: u16,
}

impl Ipv4Header {
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload_len: usize) -> Self {
        debug_assert!(payload_len <= 0xFFFF - IPV4_HEADER_LEN, "total_len");
        Ipv4Header {
            src,
            dst,
            protocol,
            ttl: 64,
            ident: 0,
            dont_frag: true,
            more_frags: false,
            frag_offset: 0,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
        }
    }

    /// Parse and validate (version, header checksum, lengths). Returns the
    /// header and the payload byte range within `buf`.
    pub fn parse(buf: &[u8]) -> NetResult<(Ipv4Header, std::ops::Range<usize>)> {
        need(buf, IPV4_HEADER_LEN)?;
        if buf[0] >> 4 != 4 {
            return Err(NetError::Unsupported);
        }
        let ihl = ((buf[0] & 0x0F) as usize) * 4;
        if ihl < IPV4_HEADER_LEN {
            return Err(NetError::Malformed);
        }
        need(buf, ihl)?;
        if !checksum::verify(&buf[..ihl]) {
            return Err(NetError::BadChecksum);
        }
        let total_len = get_u16(buf, 2);
        if (total_len as usize) < ihl || (total_len as usize) > buf.len() {
            return Err(NetError::BadLength);
        }
        let flags_frag = get_u16(buf, 6);
        Ok((
            Ipv4Header {
                src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
                dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
                protocol: IpProtocol::from(buf[9]),
                ttl: buf[8],
                ident: get_u16(buf, 4),
                dont_frag: flags_frag & 0x4000 != 0,
                more_frags: flags_frag & 0x2000 != 0,
                frag_offset: (flags_frag & 0x1FFF) * 8,
                total_len,
            },
            ihl..total_len as usize,
        ))
    }

    /// Emit the header (with checksum) followed by `payload`; the length
    /// field is the payload's.
    pub fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let total = IPV4_HEADER_LEN + payload.len();
        let mut h = *self;
        h.total_len = total as u16;
        let mut b = vec![0; total];
        h.emit_header_to(&mut b);
        b[IPV4_HEADER_LEN..].copy_from_slice(payload);
        b
    }

    /// Write the 20-byte header (with checksum) over the front of `out`;
    /// the length field is `total_len`, the payload goes behind it.
    pub fn emit_header_to(&self, out: &mut [u8]) {
        let b = &mut out[..IPV4_HEADER_LEN];
        b.fill(0);
        b[0] = 0x45; // version 4, IHL 5
        set_u16(b, 2, self.total_len);
        set_u16(b, 4, self.ident);
        let mut ff = (self.frag_offset / 8) & 0x1FFF;
        if self.dont_frag {
            ff |= 0x4000;
        }
        if self.more_frags {
            ff |= 0x2000;
        }
        set_u16(b, 6, ff);
        b[8] = self.ttl;
        b[9] = u8::from(self.protocol);
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let c = checksum::checksum(b);
        set_u16(b, 10, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(payload_len: usize) -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            payload_len,
        )
    }

    #[test]
    fn header_roundtrip() {
        let h = hdr(11);
        let bytes = h.emit(b"hello world");
        let (g, range) = Ipv4Header::parse(&bytes).unwrap();
        assert_eq!(g.src, h.src);
        assert_eq!(g.dst, h.dst);
        assert_eq!(g.protocol, IpProtocol::Udp);
        assert_eq!(&bytes[range], b"hello world");
    }

    #[test]
    fn corrupt_header_fails_checksum() {
        let mut bytes = hdr(0).emit(&[]);
        bytes[12] ^= 0x01;
        assert_eq!(Ipv4Header::parse(&bytes), Err(NetError::BadChecksum));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = hdr(0).emit(&[]);
        bytes[0] = 0x65;
        assert_eq!(Ipv4Header::parse(&bytes), Err(NetError::Unsupported));
    }

    #[test]
    fn length_field_vs_buffer() {
        let bytes = hdr(4).emit(b"abcd");
        // Claim more data than present.
        let mut longer = bytes.clone();
        set_u16(&mut longer, 2, 100);
        let c = checksum::checksum(&{
            let mut h = longer[..20].to_vec();
            h[10] = 0;
            h[11] = 0;
            h
        });
        set_u16(&mut longer, 10, 0);
        set_u16(&mut longer, 10, c);
        assert_eq!(Ipv4Header::parse(&longer), Err(NetError::BadLength));
    }

    #[test]
    fn protocol_conversion() {
        for p in [
            IpProtocol::Icmp,
            IpProtocol::Tcp,
            IpProtocol::Udp,
            IpProtocol::Unknown(99),
        ] {
            assert_eq!(IpProtocol::from(u8::from(p)), p);
        }
    }
}
