//! Shared link/network-layer logic: frame classification, ARP resolution,
//! ICMP echo, and IP/Ethernet encapsulation.
//!
//! Both the single-component replica and the multi-component IP process
//! embed a [`FrameIo`]; the httperf-side library stacks reuse it too. This
//! is pure protocol code — the owning process charges the CPU costs.
//!
//! Every frame is written once, in the block it leaves in. A TCP segment
//! goes from the send ring straight into its frame
//! ([`FrameIo::send_segment`]), and a TCP frame whose payload is longer
//! than one MSS is built with the room the NIC's TSO cut spreads it into
//! (`neat_nic::tso::room`), so a super-segment is one block from the send
//! ring to the wire.

use neat_net::arp::{ArpCache, ArpOp, ArpPacket, ARP_LEN};
use neat_net::ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
use neat_net::icmp::IcmpMessage;
use neat_net::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use neat_net::tcp::TcpHeader;
use neat_net::PktBuf;
use neat_nic::tso;
use neat_tcp::TcpStack;
use neat_util::FxHashMap;
use std::net::Ipv4Addr;

/// What an inbound frame turned out to be.
#[derive(Debug)]
pub enum RxClass {
    /// A TCP segment for us: (source ip, raw TCP bytes). The segment is a
    /// zero-copy window into the received frame's buffer.
    Tcp { src: Ipv4Addr, seg: PktBuf },
    /// A UDP datagram for us: (source ip, raw UDP bytes), windowed too.
    Udp { src: Ipv4Addr, dgram: PktBuf },
    /// An ICMP message for us (echo handled internally; surfaced for
    /// accounting).
    Icmp { src: Ipv4Addr },
    /// ARP handled internally (cache update / reply queued).
    Arp,
    /// Not for us / unparseable / checksum failure — dropped.
    Dropped,
}

/// Frames one unresolved destination may hold while ARP is outstanding;
/// beyond it the newest is dropped (Linux keeps a queue of this order per
/// neighbour, `unres_qlen`).
const MAX_PENDING_PER_DST: usize = 64;

/// Where an IP frame's payload starts.
const L4_OFF: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;

/// Per-instance link/network state.
#[derive(Debug)]
pub struct FrameIo {
    pub ip: Ipv4Addr,
    pub mac: MacAddr,
    arp: ArpCache,
    /// Frames awaiting ARP resolution (destination MAC still zero), keyed
    /// by next-hop IP, at most `MAX_PENDING_PER_DST` each. Only probed;
    /// `pending_arp` sums lengths, which no order changes.
    pending: FxHashMap<Ipv4Addr, Vec<PktBuf>>,
    /// Frames ready to go out on the wire (`PktBuf` handles from birth).
    out: Vec<PktBuf>,
    /// Last time an ARP request was sent per destination (rate limit).
    /// Only probed.
    last_arp_req: FxHashMap<Ipv4Addr, u64>,
    pub rx_bad_checksum: u64,
    pub rx_not_for_us: u64,
    pub rx_fragments: u64,
    /// Frames dropped because their destination's ARP queue was full.
    pub arp_queue_drops: u64,
}

impl FrameIo {
    pub fn new(ip: Ipv4Addr, mac: MacAddr) -> FrameIo {
        FrameIo {
            ip,
            mac,
            arp: ArpCache::new(),
            pending: FxHashMap::default(),
            out: Vec::new(),
            last_arp_req: FxHashMap::default(),
            rx_bad_checksum: 0,
            rx_not_for_us: 0,
            rx_fragments: 0,
            arp_queue_drops: 0,
        }
    }

    /// Pre-seed the neighbour cache (static ARP, as on the paper's
    /// two-machine DAC testbed).
    pub fn seed_arp(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        // Keep the entry permanently fresh for static seeding.
        self.arp.insert(ip, mac, u64::MAX / 2);
    }

    /// Classify one inbound Ethernet frame, handling ARP and ICMP echo
    /// internally. Any generated replies are queued for [`Self::drain`].
    pub fn classify_rx(&mut self, frame: &PktBuf, now_ns: u64) -> RxClass {
        let Ok((eth, off)) = EthernetFrame::parse(frame) else {
            self.rx_not_for_us += 1;
            return RxClass::Dropped;
        };
        if eth.dst != self.mac && !eth.dst.is_broadcast() {
            self.rx_not_for_us += 1;
            return RxClass::Dropped;
        }
        match eth.ethertype {
            EtherType::Arp => {
                let Ok(arp) = ArpPacket::parse(&frame[off..]) else {
                    return RxClass::Dropped;
                };
                self.arp.insert(arp.sender_ip, arp.sender_mac, now_ns);
                self.flush_pending(arp.sender_ip, now_ns);
                if arp.op == ArpOp::Request && arp.target_ip == self.ip {
                    let reply = ArpPacket::reply_to(&arp, self.mac);
                    self.out.push(self.arp_frame(arp.sender_mac, &reply));
                }
                RxClass::Arp
            }
            EtherType::Ipv4 => {
                let Ok((ip, payload)) = Ipv4Header::parse(&frame[off..]) else {
                    self.rx_bad_checksum += 1;
                    return RxClass::Dropped;
                };
                if ip.dst != self.ip {
                    self.rx_not_for_us += 1;
                    return RxClass::Dropped;
                }
                // The stack does not reassemble: a fragment is not a whole
                // segment or datagram and must not reach L4 as one.
                if ip.more_frags || ip.frag_offset != 0 {
                    self.rx_fragments += 1;
                    return RxClass::Dropped;
                }
                // Strip headers by narrowing the refcounted handle — no
                // payload copy on the RX fast path.
                let l4 = frame.slice(off + payload.start, payload.len());
                match ip.protocol {
                    IpProtocol::Tcp => RxClass::Tcp {
                        src: ip.src,
                        seg: l4,
                    },
                    IpProtocol::Udp => RxClass::Udp {
                        src: ip.src,
                        dgram: l4,
                    },
                    IpProtocol::Icmp => {
                        if let Ok(m) = IcmpMessage::parse(&l4) {
                            if let Some(reply) = IcmpMessage::reply_to(&m) {
                                self.send_ip(ip.src, IpProtocol::Icmp, &reply.emit(), now_ns);
                            }
                        }
                        RxClass::Icmp { src: ip.src }
                    }
                    IpProtocol::Unknown(_) => RxClass::Dropped,
                }
            }
            EtherType::Unknown(_) => RxClass::Dropped,
        }
    }

    /// Encapsulate and queue an IP packet to `dst`, resolving the MAC via
    /// ARP (packets queue while a request is outstanding, up to
    /// `MAX_PENDING_PER_DST`). The frame is built once, in place, in the
    /// buffer it leaves in; a TCP frame with the room the NIC's TSO cut
    /// spreads it into ([`tso::room`]).
    pub fn send_ip(&mut self, dst: Ipv4Addr, protocol: IpProtocol, payload: &[u8], now_ns: u64) {
        let ip = Ipv4Header::new(self.ip, dst, protocol, payload.len());
        let room = match protocol {
            IpProtocol::Tcp => {
                let data_off = usize::from(payload.get(12).map_or(0, |b| b >> 4)) * 4;
                tso::room(payload.len().saturating_sub(data_off), tso::TSO_MSS)
            }
            _ => 0,
        };
        self.send_frame(dst, now_ns, |eth| {
            ip_frame(eth, ip, payload.len(), room, |l4| {
                l4.copy_from_slice(payload)
            })
        });
    }

    /// Frame one TCP segment to `dst` — `h` over the payload `data`, a
    /// send ring's two halves — and queue it as [`Self::send_ip`] does.
    /// The header, the payload and the checksum are written once, straight
    /// into the frame's block.
    pub fn send_segment(
        &mut self,
        dst: Ipv4Addr,
        h: &TcpHeader,
        (a, b): (&[u8], &[u8]),
        now_ns: u64,
    ) {
        let src = self.ip;
        let l4_len = h.header_len() + a.len() + b.len();
        let ip = Ipv4Header::new(src, dst, IpProtocol::Tcp, l4_len);
        let room = tso::room(a.len() + b.len(), tso::TSO_MSS);
        self.send_frame(dst, now_ns, |eth| {
            ip_frame(eth, ip, l4_len, room, |l4| h.emit_to(l4, &[a, b], src, dst))
        });
    }

    /// Queue the frame `build` makes behind the Ethernet header it gets:
    /// for the wire once `dst`'s MAC is known, else (the MAC zero) in
    /// `dst`'s ARP queue, and ask for the MAC.
    fn send_frame(
        &mut self,
        dst: Ipv4Addr,
        now_ns: u64,
        build: impl FnOnce(EthernetFrame) -> PktBuf,
    ) {
        let eth = |mac| EthernetFrame {
            dst: mac,
            src: self.mac,
            ethertype: EtherType::Ipv4,
        };
        if let Some(mac) = self.arp.lookup(dst, now_ns) {
            self.out.push(build(eth(mac)));
            return;
        }
        if self.pending.get(&dst).map_or(0, Vec::len) < MAX_PENDING_PER_DST {
            // The destination MAC is filled in by `flush_pending`.
            let f = build(eth(MacAddr::ZERO));
            self.pending.entry(dst).or_default().push(f);
        } else {
            self.arp_queue_drops += 1;
        }
        // Rate-limit ARP requests to one per second per target
        // (smoltcp behaviour).
        let due = self
            .last_arp_req
            .get(&dst)
            .map(|t| now_ns.saturating_sub(*t) >= 1_000_000_000)
            .unwrap_or(true);
        if due {
            self.last_arp_req.insert(dst, now_ns);
            let req = ArpPacket::request(self.mac, self.ip, dst);
            self.out.push(self.arp_frame(MacAddr::BROADCAST, &req));
        }
    }

    fn arp_frame(&self, mac: MacAddr, arp: &ArpPacket) -> PktBuf {
        let eth = EthernetFrame {
            dst: mac,
            src: self.mac,
            ethertype: EtherType::Arp,
        };
        PktBuf::build(ETHERNET_HEADER_LEN + ARP_LEN, |f| {
            eth.emit_header_to(f);
            arp.emit_to(&mut f[ETHERNET_HEADER_LEN..]);
        })
    }

    /// Frame and queue every segment `stack` owes the wire — the one TCP
    /// drain loop of every process that owns both — each emitted from the
    /// send ring straight into its frame ([`Self::send_segment`]). `each`
    /// runs once per segment, for the caller's model charges.
    pub fn send_tcp(&mut self, stack: &mut TcpStack, now_ns: u64, mut each: impl FnMut()) {
        let mut frame = |dst, h: &TcpHeader, data: (&[u8], &[u8])| {
            each();
            self.send_segment(dst, h, data, now_ns);
        };
        while stack.transmit_with(now_ns, &mut frame).is_some() {}
    }

    /// Patch the resolved MAC into each waiting frame, in place (a queued
    /// frame is its storage's only handle), and queue it for the wire.
    fn flush_pending(&mut self, dst: Ipv4Addr, now_ns: u64) {
        if let Some(frames) = self.pending.remove(&dst) {
            if let Some(mac) = self.arp.lookup(dst, now_ns) {
                for mut f in frames {
                    if let Some(b) = f.get_mut() {
                        b[..6].copy_from_slice(&mac.0);
                    }
                    self.out.push(f);
                }
            }
        }
    }

    /// Every frame queued for transmission, leaving the queue its storage.
    pub fn drain_out(&mut self) -> std::vec::Drain<'_, PktBuf> {
        self.out.drain(..)
    }

    /// [`Self::drain_out`] as a list of its own.
    pub fn drain(&mut self) -> Vec<PktBuf> {
        self.drain_out().collect()
    }

    pub fn pending_arp(&self) -> usize {
        self.pending.values().map(|v| v.len()).sum()
    }
}

/// An IPv4 frame behind `eth`: `ip`'s header, then the `l4_len` bytes of
/// its payload written by `l4`, in a block `room` bytes longer than the
/// frame.
fn ip_frame(
    eth: EthernetFrame,
    ip: Ipv4Header,
    l4_len: usize,
    room: usize,
    l4: impl FnOnce(&mut [u8]),
) -> PktBuf {
    PktBuf::build_with_room(L4_OFF + l4_len, room, |f| {
        eth.emit_header_to(f);
        ip.emit_header_to(&mut f[ETHERNET_HEADER_LEN..]);
        l4(&mut f[L4_OFF..]);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const A_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);
    const B_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 100);

    fn a() -> FrameIo {
        FrameIo::new(A_IP, MacAddr::local(1))
    }
    fn b() -> FrameIo {
        FrameIo::new(B_IP, MacAddr::local(2))
    }

    #[test]
    fn arp_resolution_round_trip() {
        let mut a = a();
        let mut b = b();
        // A wants to send TCP to B without knowing B's MAC.
        a.send_ip(B_IP, IpProtocol::Tcp, b"segment", 0);
        let frames = a.drain();
        assert_eq!(frames.len(), 1, "only the ARP request goes out");
        assert_eq!(a.pending_arp(), 1);
        // B receives the broadcast request and replies.
        assert!(matches!(b.classify_rx(&frames[0], 0), RxClass::Arp));
        let replies = b.drain();
        assert_eq!(replies.len(), 1);
        // A consumes the reply; the pending packet flushes.
        assert!(matches!(a.classify_rx(&replies[0], 10), RxClass::Arp));
        let flushed = a.drain();
        assert_eq!(flushed.len(), 1);
        assert_eq!(a.pending_arp(), 0);
        // And B can classify the TCP frame.
        match b.classify_rx(&flushed[0], 20) {
            RxClass::Tcp { src, seg } => {
                assert_eq!(src, A_IP);
                assert_eq!(&seg[..], b"segment");
            }
            other => panic!("expected TCP, got {other:?}"),
        }
    }

    #[test]
    fn seeded_arp_skips_resolution() {
        let mut a = a();
        a.seed_arp(B_IP, MacAddr::local(2));
        a.send_ip(B_IP, IpProtocol::Tcp, b"hi", 0);
        let frames = a.drain();
        assert_eq!(frames.len(), 1);
        let (eth, _) = EthernetFrame::parse(&frames[0]).unwrap();
        assert_eq!(eth.dst, MacAddr::local(2));
        assert_eq!(eth.ethertype, EtherType::Ipv4);
    }

    #[test]
    fn frames_for_other_hosts_dropped() {
        let mut a = a();
        let mut b = b();
        b.seed_arp(A_IP, MacAddr::local(9)); // wrong MAC for A
        b.send_ip(A_IP, IpProtocol::Tcp, b"x", 0);
        let f = b.drain().remove(0);
        assert!(matches!(a.classify_rx(&f, 0), RxClass::Dropped));
        assert_eq!(a.rx_not_for_us, 1);
    }

    #[test]
    fn icmp_echo_answered() {
        let mut a = a();
        let mut b = b();
        a.seed_arp(B_IP, MacAddr::local(2));
        b.seed_arp(A_IP, MacAddr::local(1));
        let ping = IcmpMessage::EchoRequest {
            ident: 7,
            seq: 1,
            data: vec![1, 2, 3],
        };
        b.send_ip(A_IP, IpProtocol::Icmp, &ping.emit(), 0);
        let f = b.drain().remove(0);
        assert!(matches!(a.classify_rx(&f, 0), RxClass::Icmp { .. }));
        let reply_frames = a.drain();
        assert_eq!(reply_frames.len(), 1);
        match b.classify_rx(&reply_frames[0], 0) {
            RxClass::Icmp { src } => assert_eq!(src, A_IP),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupted_ip_header_dropped() {
        let mut a = a();
        let mut b = b();
        b.seed_arp(A_IP, MacAddr::local(1));
        b.send_ip(A_IP, IpProtocol::Tcp, b"data", 0);
        let mut bytes = b.drain().remove(0).to_vec();
        bytes[16] ^= 0xFF; // corrupt an IP header byte
        let f = PktBuf::from_vec(bytes);
        assert!(matches!(a.classify_rx(&f, 0), RxClass::Dropped));
        assert_eq!(a.rx_bad_checksum, 1);
    }

    #[test]
    fn a_fragment_is_dropped_not_delivered() {
        let mut a = a();
        let frame = |h: Ipv4Header, payload: &[u8]| {
            let eth = EthernetFrame {
                dst: MacAddr::local(1),
                src: MacAddr::local(2),
                ethertype: EtherType::Ipv4,
            };
            PktBuf::from_vec(eth.emit(&h.emit(payload)))
        };
        // First fragment of a TCP segment: offset 0, more to come.
        let mut first = Ipv4Header::new(B_IP, A_IP, IpProtocol::Tcp, 16);
        first.dont_frag = false;
        first.more_frags = true;
        assert!(matches!(
            a.classify_rx(&frame(first, &[0u8; 16]), 0),
            RxClass::Dropped
        ));
        // Last fragment of a UDP datagram whose eight leading bytes read as
        // a UDP header (ports 53 → 53, length 12, checksum 0 = "none").
        let mut last = Ipv4Header::new(B_IP, A_IP, IpProtocol::Udp, 12);
        last.dont_frag = false;
        last.frag_offset = 8;
        let body = [0, 53, 0, 53, 0, 12, 0, 0, b'e', b'v', b'i', b'l'];
        assert!(neat_net::udp::UdpHeader::parse(&body, B_IP, A_IP).is_ok());
        assert!(matches!(
            a.classify_rx(&frame(last, &body), 0),
            RxClass::Dropped
        ));
        assert_eq!(a.rx_fragments, 2);
    }

    #[test]
    fn arp_requests_rate_limited() {
        let mut a = a();
        a.send_ip(B_IP, IpProtocol::Tcp, b"1", 0);
        a.send_ip(B_IP, IpProtocol::Tcp, b"2", 1_000);
        let frames = a.drain();
        assert_eq!(frames.len(), 1, "second ARP within 1s suppressed");
        assert_eq!(a.pending_arp(), 2);
        // After a second, a new request may go out.
        a.send_ip(B_IP, IpProtocol::Tcp, b"3", 1_500_000_000);
        assert_eq!(a.drain().len(), 1);
    }

    #[test]
    fn a_silent_destination_holds_a_bounded_queue() {
        let mut a = a();
        for i in 0..10_000u64 {
            a.send_ip(B_IP, IpProtocol::Tcp, b"lost", i);
        }
        assert_eq!(a.pending_arp(), MAX_PENDING_PER_DST);
        assert_eq!(a.arp_queue_drops, 10_000 - MAX_PENDING_PER_DST as u64);
        assert_eq!(a.drain().len(), 1, "one ARP request within the second");
    }

    #[test]
    fn resolution_patches_the_waiting_frames_in_place() {
        let mut a = a();
        let mut b = b();
        a.send_ip(B_IP, IpProtocol::Tcp, b"one", 0);
        a.send_ip(B_IP, IpProtocol::Tcp, b"two", 0);
        let request = a.drain().remove(0);
        b.classify_rx(&request, 0);
        let reply = b.drain().remove(0);
        let grants = neat_net::pktbuf::stats().grants;
        a.classify_rx(&reply, 10);
        let flushed = a.drain();
        assert_eq!(neat_net::pktbuf::stats().grants, grants, "no frame copied");
        for (f, want) in flushed.iter().zip([&b"one"[..], b"two"]) {
            assert_eq!(&f[..6], &MacAddr::local(2).0);
            match b.classify_rx(f, 20) {
                RxClass::Tcp { seg, .. } => assert_eq!(&seg[..], want),
                other => panic!("expected TCP, got {other:?}"),
            }
        }
    }

    #[test]
    fn udp_classified() {
        let mut a = a();
        let mut b = b();
        b.seed_arp(A_IP, MacAddr::local(1));
        let dgram = neat_net::udp::UdpHeader::emit(53, 53, b"q", B_IP, A_IP);
        b.send_ip(A_IP, IpProtocol::Udp, &dgram, 0);
        let f = b.drain().remove(0);
        assert!(matches!(a.classify_rx(&f, 0), RxClass::Udp { .. }));
    }
}
