//! ARP for IPv4-over-Ethernet (RFC 826), including the cache the stack's
//! IP component keeps (entries expire after one minute, smoltcp-style).

use crate::ethernet::MacAddr;
use crate::wire::{get_u16, need, set_u16, NetError, NetResult};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    Request,
    Reply,
}

/// An ARP packet for IPv4 over Ethernet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    pub op: ArpOp,
    pub sender_mac: MacAddr,
    pub sender_ip: Ipv4Addr,
    pub target_mac: MacAddr,
    pub target_ip: Ipv4Addr,
}

pub const ARP_LEN: usize = 28;

impl ArpPacket {
    pub fn parse(buf: &[u8]) -> NetResult<ArpPacket> {
        need(buf, ARP_LEN)?;
        if get_u16(buf, 0) != 1 || get_u16(buf, 2) != 0x0800 || buf[4] != 6 || buf[5] != 4 {
            return Err(NetError::Unsupported);
        }
        let op = match get_u16(buf, 6) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return Err(NetError::Unsupported),
        };
        let mac = |o: usize| {
            let mut m = [0u8; 6];
            m.copy_from_slice(&buf[o..o + 6]);
            MacAddr(m)
        };
        let ip = |o: usize| Ipv4Addr::new(buf[o], buf[o + 1], buf[o + 2], buf[o + 3]);
        Ok(ArpPacket {
            op,
            sender_mac: mac(8),
            sender_ip: ip(14),
            target_mac: mac(18),
            target_ip: ip(24),
        })
    }

    pub fn emit(&self) -> Vec<u8> {
        let mut b = vec![0u8; ARP_LEN];
        self.emit_to(&mut b);
        b
    }

    /// Write the 28-byte packet over the front of `out`.
    pub fn emit_to(&self, out: &mut [u8]) {
        let b = &mut out[..ARP_LEN];
        set_u16(b, 0, 1); // hardware: Ethernet
        set_u16(b, 2, 0x0800); // protocol: IPv4
        b[4] = 6;
        b[5] = 4;
        set_u16(
            b,
            6,
            match self.op {
                ArpOp::Request => 1,
                ArpOp::Reply => 2,
            },
        );
        b[8..14].copy_from_slice(&self.sender_mac.0);
        b[14..18].copy_from_slice(&self.sender_ip.octets());
        b[18..24].copy_from_slice(&self.target_mac.0);
        b[24..28].copy_from_slice(&self.target_ip.octets());
    }

    /// A request for `target_ip` from `(mac, ip)`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// The reply answering `req` with our `(mac, ip)`.
    pub fn reply_to(req: &ArpPacket, our_mac: MacAddr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: our_mac,
            sender_ip: req.target_ip,
            target_mac: req.sender_mac,
            target_ip: req.sender_ip,
        }
    }
}

/// Neighbour cache with per-entry expiry (one minute, like smoltcp).
#[derive(Debug, Clone, Default)]
pub struct ArpCache {
    /// Only probed, once per transmitted frame. A handful of neighbours:
    /// one tree node, and no hasher to choose (`neat-util`'s is a
    /// dev-dependency here, and the frozen `benchmark/Cargo.lock` says so).
    entries: BTreeMap<Ipv4Addr, (MacAddr, u64)>,
    /// Entry lifetime in nanoseconds.
    ttl_ns: u64,
}

impl ArpCache {
    pub fn new() -> ArpCache {
        ArpCache {
            entries: BTreeMap::new(),
            ttl_ns: 60_000_000_000,
        }
    }

    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr, now_ns: u64) {
        self.entries.insert(ip, (mac, now_ns + self.ttl_ns));
    }

    pub fn lookup(&self, ip: Ipv4Addr, now_ns: u64) -> Option<MacAddr> {
        match self.entries.get(&ip) {
            Some((mac, exp)) if *exp > now_ns => Some(*mac),
            _ => None,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArpPacket {
        ArpPacket::request(
            MacAddr::local(1),
            Ipv4Addr::new(192, 168, 69, 1),
            Ipv4Addr::new(192, 168, 69, 100),
        )
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        assert_eq!(ArpPacket::parse(&p.emit()).unwrap(), p);
    }

    #[test]
    fn reply_swaps_roles() {
        let req = sample();
        let rep = ArpPacket::reply_to(&req, MacAddr::local(2));
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, req.target_ip);
        assert_eq!(rep.target_ip, req.sender_ip);
        assert_eq!(rep.target_mac, req.sender_mac);
        assert_eq!(rep.sender_mac, MacAddr::local(2));
    }

    #[test]
    fn bad_hardware_type_rejected() {
        let mut b = sample().emit();
        b[0] = 9;
        assert_eq!(ArpPacket::parse(&b), Err(NetError::Unsupported));
    }

    #[test]
    fn cache_expiry() {
        let mut c = ArpCache::new();
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        c.insert(ip, MacAddr::local(7), 0);
        assert_eq!(c.lookup(ip, 1_000), Some(MacAddr::local(7)));
        assert_eq!(c.lookup(ip, 61_000_000_000), None);
        assert_eq!(c.lookup(Ipv4Addr::new(10, 0, 0, 2), 0), None);
    }
}
