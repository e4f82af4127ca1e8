//! Ethernet II framing (the testbed's 10GbE link layer).

use crate::wire::{get_u16, need, set_u16, NetError, NetResult};
use std::fmt;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Locally administered unicast address from a small id, in the style
    /// of smoltcp's examples (`02-00-00-00-00-xx`).
    pub fn local(id: u8) -> MacAddr {
        MacAddr([0x02, 0, 0, 0, 0, id])
    }

    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// EtherType values this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    Ipv4,
    Arp,
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Unknown(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Unknown(v) => v,
        }
    }
}

pub const ETHERNET_HEADER_LEN: usize = 14;

/// A parsed Ethernet II frame header (payload referenced by range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetFrame {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
}

impl EthernetFrame {
    /// Parse the header; returns the header and the payload offset.
    pub fn parse(buf: &[u8]) -> NetResult<(EthernetFrame, usize)> {
        need(buf, ETHERNET_HEADER_LEN)?;
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        let ethertype = EtherType::from(get_u16(buf, 12));
        if let EtherType::Unknown(v) = ethertype {
            // 802.3 length fields (<=1500) are not Ethernet II; reject.
            if v <= 1500 {
                return Err(NetError::Unsupported);
            }
        }
        Ok((
            EthernetFrame {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype,
            },
            ETHERNET_HEADER_LEN,
        ))
    }

    /// Emit the header followed by `payload` into a fresh buffer.
    pub fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = vec![0; ETHERNET_HEADER_LEN + payload.len()];
        self.emit_header_to(&mut out);
        out[ETHERNET_HEADER_LEN..].copy_from_slice(payload);
        out
    }

    /// Write the 14-byte header over the front of `out`.
    pub fn emit_header_to(&self, out: &mut [u8]) {
        out[0..6].copy_from_slice(&self.dst.0);
        out[6..12].copy_from_slice(&self.src.0);
        set_u16(out, 12, u16::from(self.ethertype));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let f = EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        };
        let bytes = f.emit(b"hello");
        let (g, off) = EthernetFrame::parse(&bytes).unwrap();
        assert_eq!(f, g);
        assert_eq!(&bytes[off..], b"hello");
    }

    #[test]
    fn short_frame_rejected() {
        assert_eq!(EthernetFrame::parse(&[0u8; 10]), Err(NetError::Truncated));
    }

    #[test]
    fn dot3_length_rejected() {
        let f = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr::local(9),
            ethertype: EtherType::Unknown(0x0100), // 802.3 length, not a type
        };
        let bytes = f.emit(&[]);
        assert_eq!(EthernetFrame::parse(&bytes), Err(NetError::Unsupported));
    }

    #[test]
    fn mac_classification() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert_eq!(format!("{}", MacAddr::local(0x2a)), "02:00:00:00:00:2a");
    }

    #[test]
    fn ethertype_conversions() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(u16::from(EtherType::Unknown(0x86DD)), 0x86DD);
    }
}
