//! TCP segment format (RFC 793) with the options the stack negotiates
//! (MSS, window scale), plus wrapping sequence-number arithmetic.

use crate::checksum::{pseudo_header, Checksum};
use crate::wire::{get_u16, get_u32, need, set_u16, set_u32, NetError, NetResult};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::{Add, AddAssign, Sub};

/// A TCP sequence number with RFC 1982-style wrapping comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// Signed distance `self - other` modulo 2^32.
    pub fn dist(self, other: SeqNum) -> i32 {
        self.0.wrapping_sub(other.0) as i32
    }

    pub fn max(self, other: SeqNum) -> SeqNum {
        if self.dist(other) >= 0 {
            self
        } else {
            other
        }
    }

    pub fn min(self, other: SeqNum) -> SeqNum {
        if self.dist(other) <= 0 {
            self
        } else {
            other
        }
    }
}

impl PartialOrd for SeqNum {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.dist(*other).cmp(&0))
    }
}

impl Add<u32> for SeqNum {
    type Output = SeqNum;
    fn add(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(rhs))
    }
}

impl AddAssign<u32> for SeqNum {
    fn add_assign(&mut self, rhs: u32) {
        self.0 = self.0.wrapping_add(rhs);
    }
}

impl Sub<SeqNum> for SeqNum {
    type Output = i32;
    fn sub(self, rhs: SeqNum) -> i32 {
        self.dist(rhs)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    pub fin: bool,
    pub syn: bool,
    pub rst: bool,
    pub psh: bool,
    pub ack: bool,
    pub urg: bool,
}

impl TcpFlags {
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        fin: false,
        rst: false,
        psh: false,
        ack: false,
        urg: false,
    };

    pub fn syn_ack() -> TcpFlags {
        TcpFlags {
            syn: true,
            ack: true,
            ..Default::default()
        }
    }

    pub fn ack() -> TcpFlags {
        TcpFlags {
            ack: true,
            ..Default::default()
        }
    }

    pub fn fin_ack() -> TcpFlags {
        TcpFlags {
            fin: true,
            ack: true,
            ..Default::default()
        }
    }

    pub fn rst() -> TcpFlags {
        TcpFlags {
            rst: true,
            ..Default::default()
        }
    }

    pub fn psh_ack() -> TcpFlags {
        TcpFlags {
            psh: true,
            ack: true,
            ..Default::default()
        }
    }

    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
            | (self.urg as u8) << 5
    }

    fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
            urg: b & 0x20 != 0,
        }
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        for (set, c) in [
            (self.syn, 'S'),
            (self.fin, 'F'),
            (self.rst, 'R'),
            (self.psh, 'P'),
            (self.ack, 'A'),
            (self.urg, 'U'),
        ] {
            if set {
                s.push(c);
            }
        }
        f.write_str(&s)
    }
}

pub const TCP_HEADER_LEN: usize = 20;

/// The maximum segment size on the simulated Ethernet link (1500 B MTU
/// less the IPv4 and TCP headers): what the stack advertises and sends at,
/// and what the NIC's TSO cuts a super-segment to.
pub const MSS: u16 = 1460;

/// A parsed TCP header (with recognized options extracted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: SeqNum,
    pub ack: SeqNum,
    pub flags: TcpFlags,
    pub window: u16,
    /// MSS option (SYN segments only).
    pub mss: Option<u16>,
    /// Window-scale option shift (SYN segments only).
    pub window_scale: Option<u8>,
}

impl TcpHeader {
    pub fn new(src_port: u16, dst_port: u16, seq: SeqNum, ack: SeqNum, flags: TcpFlags) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 0xFFFF,
            mss: None,
            window_scale: None,
        }
    }

    /// Parse + validate checksum. Returns the header and payload range.
    pub fn parse(
        buf: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> NetResult<(TcpHeader, std::ops::Range<usize>)> {
        need(buf, TCP_HEADER_LEN)?;
        let data_off = ((buf[12] >> 4) as usize) * 4;
        if data_off < TCP_HEADER_LEN {
            return Err(NetError::Malformed);
        }
        need(buf, data_off)?;
        let mut c: Checksum = pseudo_header(src, dst, 6, buf.len() as u16);
        c.add(buf);
        if c.finish() != 0 {
            return Err(NetError::BadChecksum);
        }
        let mut h = TcpHeader {
            src_port: get_u16(buf, 0),
            dst_port: get_u16(buf, 2),
            seq: SeqNum(get_u32(buf, 4)),
            ack: SeqNum(get_u32(buf, 8)),
            flags: TcpFlags::from_byte(buf[13]),
            window: get_u16(buf, 14),
            mss: None,
            window_scale: None,
        };
        // Options.
        let mut i = TCP_HEADER_LEN;
        while i < data_off {
            match buf[i] {
                0 => break,  // end of options
                1 => i += 1, // NOP
                2 => {
                    if i + 4 > data_off || buf[i + 1] != 4 {
                        return Err(NetError::Malformed);
                    }
                    h.mss = Some(get_u16(buf, i + 2));
                    i += 4;
                }
                3 => {
                    if i + 3 > data_off || buf[i + 1] != 3 {
                        return Err(NetError::Malformed);
                    }
                    h.window_scale = Some(buf[i + 2].min(14));
                    i += 3;
                }
                _ => {
                    // Unknown option: skip by its length byte.
                    if i + 1 >= data_off || buf[i + 1] < 2 {
                        return Err(NetError::Malformed);
                    }
                    i += buf[i + 1] as usize;
                }
            }
        }
        Ok((h, data_off..buf.len()))
    }

    /// Emit a full segment (header + options + payload) with checksum.
    pub fn emit(&self, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut b = Vec::new();
        self.emit_into(&mut b, &[payload], src, dst);
        b
    }

    /// Append a full segment to `out` — header, options, then the payload
    /// `parts` in order (a stream buffer hands over its two halves) — and
    /// patch the checksum in place. One reservation, no other allocation.
    pub fn emit_into(&self, out: &mut Vec<u8>, parts: &[&[u8]], src: Ipv4Addr, dst: Ipv4Addr) {
        let (h, hlen) = self.header();
        let start = out.len();
        out.reserve(hlen + parts.iter().map(|p| p.len()).sum::<usize>());
        out.extend_from_slice(&h[..hlen]);
        for p in parts {
            out.extend_from_slice(p);
        }
        set_checksum(&mut out[start..], src, dst);
    }

    /// [`emit_into`](Self::emit_into) over the front of `out`, which holds
    /// at least the header, its options and `parts`.
    pub fn emit_to(&self, out: &mut [u8], parts: &[&[u8]], src: Ipv4Addr, dst: Ipv4Addr) {
        let mut at = self.header_len();
        for p in parts {
            out[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        }
        self.emit_over(&mut out[..at], src, dst);
    }

    /// Write the header and its options over the front of `seg`, whose
    /// payload already lies behind them, and sum the whole of `seg` into
    /// the checksum: [`emit_to`](Self::emit_to) with the payload in place.
    pub fn emit_over(&self, seg: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr) {
        let (h, hlen) = self.header();
        seg[..hlen].copy_from_slice(&h[..hlen]);
        set_checksum(seg, src, dst);
    }

    /// Bytes the header and its options take on the wire.
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN + 4 * (self.mss.is_some() as usize + self.window_scale.is_some() as usize)
    }

    /// The header and its NOP-padded options, checksum zero; and their
    /// length.
    fn header(&self) -> ([u8; TCP_HEADER_LEN + 8], usize) {
        let mut h = [0u8; TCP_HEADER_LEN + 8];
        let mut olen = 0;
        if let Some(mss) = self.mss {
            h[TCP_HEADER_LEN..TCP_HEADER_LEN + 4].copy_from_slice(&[
                2,
                4,
                (mss >> 8) as u8,
                mss as u8,
            ]);
            olen = 4;
        }
        if let Some(ws) = self.window_scale {
            let o = TCP_HEADER_LEN + olen;
            h[o..o + 4].copy_from_slice(&[3, 3, ws, 1]);
            olen += 4;
        }
        let data_off = TCP_HEADER_LEN + olen;
        set_u16(&mut h, 0, self.src_port);
        set_u16(&mut h, 2, self.dst_port);
        set_u32(&mut h, 4, self.seq.0);
        set_u32(&mut h, 8, self.ack.0);
        h[12] = ((data_off / 4) as u8) << 4;
        h[13] = self.flags.to_byte();
        set_u16(&mut h, 14, self.window);
        (h, data_off)
    }

    /// Sequence space consumed by this segment (SYN/FIN count as one).
    pub fn seq_len(&self, payload_len: usize) -> u32 {
        payload_len as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }
}

/// Sum `seg` over the IPv4 pseudo-header into its checksum field.
fn set_checksum(seg: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr) {
    let mut c = pseudo_header(src, dst, 6, seg.len() as u16);
    c.add(seg);
    let csum = c.finish();
    set_u16(seg, 16, csum);
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);

    #[test]
    fn roundtrip_plain() {
        let h = TcpHeader::new(4321, 80, SeqNum(1000), SeqNum(2000), TcpFlags::psh_ack());
        let bytes = h.emit(b"GET / HTTP/1.1\r\n", A, B);
        let (g, range) = TcpHeader::parse(&bytes, A, B).unwrap();
        assert_eq!(g.src_port, 4321);
        assert_eq!(g.dst_port, 80);
        assert_eq!(g.seq, SeqNum(1000));
        assert_eq!(g.ack, SeqNum(2000));
        assert!(g.flags.psh && g.flags.ack && !g.flags.syn);
        assert_eq!(&bytes[range.clone()], b"GET / HTTP/1.1\r\n");
        assert_eq!(range.start, h.header_len());
    }

    #[test]
    fn roundtrip_options() {
        let mut h = TcpHeader::new(1, 2, SeqNum(0), SeqNum(0), TcpFlags::SYN);
        h.mss = Some(1460);
        h.window_scale = Some(7);
        let bytes = h.emit(&[], A, B);
        let (g, range) = TcpHeader::parse(&bytes, A, B).unwrap();
        assert_eq!(g.mss, Some(1460));
        assert_eq!(g.window_scale, Some(7));
        assert!(range.is_empty());
        assert_eq!(bytes.len(), h.header_len());
    }

    #[test]
    fn checksum_detects_flag_flip() {
        let h = TcpHeader::new(1, 2, SeqNum(5), SeqNum(6), TcpFlags::ack());
        let mut bytes = h.emit(b"data", A, B);
        bytes[13] |= 0x02; // sneak in a SYN
        assert_eq!(TcpHeader::parse(&bytes, A, B), Err(NetError::BadChecksum));
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        let h = TcpHeader::new(1, 2, SeqNum(5), SeqNum(6), TcpFlags::ack());
        let bytes = h.emit(b"data", A, B);
        assert_eq!(
            TcpHeader::parse(&bytes, A, Ipv4Addr::new(9, 9, 9, 9)),
            Err(NetError::BadChecksum)
        );
    }

    #[test]
    fn seq_wrapping_comparison() {
        let near_max = SeqNum(u32::MAX - 10);
        let wrapped = near_max + 20;
        assert_eq!(wrapped.0, 9);
        assert!(wrapped > near_max, "comparison must wrap");
        assert_eq!(wrapped - near_max, 20);
        assert_eq!(near_max - wrapped, -20);
        assert_eq!(wrapped.max(near_max), wrapped);
        assert_eq!(wrapped.min(near_max), near_max);
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        let syn = TcpHeader::new(1, 2, SeqNum(0), SeqNum(0), TcpFlags::SYN);
        assert_eq!(syn.seq_len(0), 1);
        let fin = TcpHeader::new(1, 2, SeqNum(0), SeqNum(0), TcpFlags::fin_ack());
        assert_eq!(fin.seq_len(3), 4);
        let ack = TcpHeader::new(1, 2, SeqNum(0), SeqNum(0), TcpFlags::ack());
        assert_eq!(ack.seq_len(0), 0);
    }

    #[test]
    fn malformed_option_rejected() {
        let mut h = TcpHeader::new(1, 2, SeqNum(0), SeqNum(0), TcpFlags::SYN);
        h.mss = Some(1460);
        let mut bytes = h.emit(&[], A, B);
        bytes[TCP_HEADER_LEN + 1] = 0; // option length 0 -> malformed
                                       // Fix checksum so the option parser (not the checksum) rejects it.
        set_u16(&mut bytes, 16, 0);
        let mut c = pseudo_header(A, B, 6, bytes.len() as u16);
        c.add(&bytes);
        let csum = c.finish();
        set_u16(&mut bytes, 16, csum);
        assert_eq!(TcpHeader::parse(&bytes, A, B), Err(NetError::Malformed));
    }

    #[test]
    fn flags_display() {
        assert_eq!(format!("{}", TcpFlags::syn_ack()), "SA");
        assert_eq!(format!("{}", TcpFlags::rst()), "R");
    }
}
