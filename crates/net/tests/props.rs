//! Property tests for the wire-format crate, on the in-tree
//! `neat_util::check` harness.

use neat_net::arp::ArpPacket;
use neat_net::checksum::{checksum, pseudo_header, Checksum};
use neat_net::udp::UdpHeader;
use neat_net::{EtherType, EthernetFrame, Ipv4Header, MacAddr, SeqNum, TcpFlags, TcpHeader};
use neat_util::check::{bytes, check, vec_of, Config};
use neat_util::{prop_assert, prop_assert_eq};
use std::net::Ipv4Addr;

/// Chunked checksum == one-shot checksum for any split points.
#[test]
fn checksum_chunking_invariant() {
    check(
        "checksum_chunking_invariant",
        Config::default().cases(128),
        |rng| (bytes(rng, 0..512), vec_of(rng, 0..8, |r| r.gen::<usize>())),
        |(data, splits)| {
            let oneshot = checksum(&data);
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut c = Checksum::new();
            let mut prev = 0;
            for cut in cuts {
                c.add(&data[prev..cut]);
                prev = cut;
            }
            c.add(&data[prev..]);
            prop_assert_eq!(c.finish(), oneshot);
            Ok(())
        },
    );
}

/// A region with its own checksum embedded always verifies, and any
/// 16-bit word flip is detected.
#[test]
fn checksum_verifies_and_detects() {
    check(
        "checksum_verifies_and_detects",
        Config::default().cases(128),
        |rng| {
            (
                bytes(rng, 4..256),
                rng.gen::<usize>(),
                rng.gen_range(1u16..=u16::MAX),
            )
        },
        |(mut data, flip_pos, flip_val)| {
            if data.len() < 2 || flip_val == 0 {
                return Ok(());
            }
            if data.len() % 2 == 1 {
                data.push(0);
            }
            data[0] = 0;
            data[1] = 0;
            let c = checksum(&data);
            data[0] = (c >> 8) as u8;
            data[1] = (c & 0xFF) as u8;
            prop_assert!(neat_net::checksum::verify(&data));
            // Flip one aligned 16-bit word (never produces an equal sum
            // because one's-complement addition is injective per word flip,
            // except the 0x0000 <-> 0xFFFF ambiguity — skip that case).
            let p = (flip_pos % (data.len() / 2)) * 2;
            let orig = u16::from_be_bytes([data[p], data[p + 1]]);
            let new = orig ^ flip_val;
            if orig != 0xFFFF && new != 0xFFFF && orig != new {
                data[p] = (new >> 8) as u8;
                data[p + 1] = (new & 0xFF) as u8;
                prop_assert!(!neat_net::checksum::verify(&data), "flip at {p} undetected");
            }
            Ok(())
        },
    );
}

/// The Internet checksum as RFC 1071 §4.1 writes it — one big-endian
/// 16-bit word at a time into a 32-bit sum, an odd byte carried into the
/// next call, folded and complemented at the end. `Checksum` summed this
/// way before it took eight bytes at a time; here it is the oracle.
#[derive(Default)]
struct Rfc1071 {
    sum: u32,
    carry_byte: Option<u8>,
}

impl Rfc1071 {
    fn add(&mut self, data: &[u8]) {
        let mut data = data;
        if let Some(hi) = self.carry_byte.take() {
            if data.is_empty() {
                self.carry_byte = Some(hi);
                return;
            }
            self.sum += u32::from(u16::from_be_bytes([hi, data[0]]));
            data = &data[1..];
        }
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            self.carry_byte = Some(*last);
        }
    }

    fn finish(mut self) -> u16 {
        if let Some(hi) = self.carry_byte.take() {
            self.sum += u32::from(u16::from_be_bytes([hi, 0]));
        }
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xFFFF) + (s >> 16);
        }
        !(s as u16)
    }
}

/// The word-wide kernel gives the RFC 1071 loop's checksum bit for bit:
/// for lengths up to 70 000 (beyond a 64 KiB TSO frame), the data starting
/// at any of eight alignments inside a larger buffer, whole or fed in
/// pieces cut at odd offsets, and for all-0x00 and all-0xFF data — the
/// 0x0000/0xFFFF edge where a sum that is 0 mod 0xFFFF must still fold to
/// 0xFFFF unless every byte is zero.
#[test]
fn checksum_matches_rfc1071_reference() {
    check(
        "checksum_matches_rfc1071_reference",
        Config::default().cases(256),
        |rng| {
            let len = if rng.gen_bool(0.5) {
                rng.gen_range(0usize..70_000)
            } else {
                rng.gen_range(0usize..64)
            };
            (
                rng.gen::<u8>(),
                len,
                rng.gen_range(0usize..8),
                vec_of(rng, 0..6, |r| r.gen::<usize>()),
                rng.gen::<u64>(),
            )
        },
        |(fill, len, align, splits, seed)| {
            let mut buf = vec![0u8; align + len + 8];
            match fill % 4 {
                0 => {}
                1 => buf.fill(0xFF),
                _ => neat_util::Rng::seed_from_u64(seed).fill_bytes(&mut buf),
            }
            let data = &buf[align..align + len];
            let mut oracle = Rfc1071::default();
            oracle.add(data);
            let want = oracle.finish();
            prop_assert_eq!(checksum(data), want, "one shot, len {len} at +{align}");
            let mut cuts: Vec<usize> = splits.iter().map(|s| (s % (len + 1)) | 1).collect();
            cuts.retain(|&c| c <= len);
            cuts.sort_unstable();
            let (mut c, mut r, mut prev) = (Checksum::new(), Rfc1071::default(), 0);
            for cut in cuts.into_iter().chain([len]) {
                c.add(&data[prev..cut]);
                r.add(&data[prev..cut]);
                prev = cut;
            }
            prop_assert_eq!(r.finish(), want);
            prop_assert_eq!(c.finish(), want, "in pieces, len {len} at +{align}");
            Ok(())
        },
    );
}

/// ARP packets round-trip for arbitrary addresses.
#[test]
fn arp_roundtrip() {
    check(
        "arp_roundtrip",
        Config::default().cases(128),
        |rng| (rng.gen::<[u8; 6]>(), rng.gen::<u32>(), rng.gen::<u32>()),
        |(sm, si, ti)| {
            let p = ArpPacket::request(MacAddr(sm), Ipv4Addr::from(si), Ipv4Addr::from(ti));
            prop_assert_eq!(ArpPacket::parse(&p.emit()).unwrap(), p);
            Ok(())
        },
    );
}

/// UDP datagrams round-trip and the checksum binds the addresses.
#[test]
fn udp_roundtrip_and_binding() {
    check(
        "udp_roundtrip_and_binding",
        Config::default().cases(128),
        |rng| {
            (
                rng.gen_range(1u16..=u16::MAX),
                rng.gen_range(1u16..=u16::MAX),
                bytes(rng, 0..512),
                rng.gen::<u32>(),
                rng.gen::<u32>(),
            )
        },
        |(sp, dp, payload, a, b)| {
            if sp == 0 || dp == 0 {
                return Ok(());
            }
            let src = Ipv4Addr::from(a);
            let dst = Ipv4Addr::from(b);
            let bytes = UdpHeader::emit(sp, dp, &payload, src, dst);
            let (h, range) = UdpHeader::parse(&bytes, src, dst).unwrap();
            prop_assert_eq!(h.src_port, sp);
            prop_assert_eq!(h.dst_port, dp);
            prop_assert_eq!(&bytes[range], &payload[..]);
            // A different claimed source address must fail. (Swapping src and
            // dst would pass — one's-complement addition commutes — so perturb
            // one address instead.)
            let other = Ipv4Addr::from(a ^ 1);
            prop_assert!(UdpHeader::parse(&bytes, other, dst).is_err());
            Ok(())
        },
    );
}

/// The Toeplitz hash is a pure function and flow-stable.
#[test]
fn rss_pure_and_stable() {
    check(
        "rss_pure_and_stable",
        Config::default().cases(128),
        |rng| {
            (
                rng.gen::<u32>(),
                rng.gen::<u32>(),
                rng.gen::<u16>(),
                rng.gen::<u16>(),
                rng.gen_range(1usize..64),
            )
        },
        |(a, b, sp, dp, n)| {
            if n == 0 {
                return Ok(());
            }
            let h = neat_net::RssHasher::default();
            let f = neat_net::FlowKey::tcp(Ipv4Addr::from(a), sp, Ipv4Addr::from(b), dp);
            let q = h.queue_for(&f, n);
            prop_assert!(q < n);
            prop_assert_eq!(h.queue_for(&f, n), q);
            prop_assert_eq!(h.hash(&f), h.hash(&f));
            Ok(())
        },
    );
}

/// `TcpHeader::emit` as it was before `emit_into`: one `Vec` for the
/// options, one for the header that then grows by options and payload.
fn legacy_tcp_emit(h: &TcpHeader, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
    let mut opts: Vec<u8> = Vec::new();
    if let Some(mss) = h.mss {
        opts.extend_from_slice(&[2, 4]);
        opts.extend_from_slice(&mss.to_be_bytes());
    }
    if let Some(ws) = h.window_scale {
        opts.extend_from_slice(&[3, 3, ws, 1]);
    }
    while !opts.len().is_multiple_of(4) {
        opts.push(1);
    }
    let f = h.flags;
    let flags = [f.fin, f.syn, f.rst, f.psh, f.ack, f.urg];
    let mut b = vec![0u8; 20];
    b[0..2].copy_from_slice(&h.src_port.to_be_bytes());
    b[2..4].copy_from_slice(&h.dst_port.to_be_bytes());
    b[4..8].copy_from_slice(&h.seq.0.to_be_bytes());
    b[8..12].copy_from_slice(&h.ack.0.to_be_bytes());
    b[12] = (((20 + opts.len()) / 4) as u8) << 4;
    b[13] = (0..6).map(|i| (flags[i] as u8) << i).sum();
    b[14..16].copy_from_slice(&h.window.to_be_bytes());
    b.extend_from_slice(&opts);
    b.extend_from_slice(payload);
    let mut c = pseudo_header(src, dst, 6, b.len() as u16);
    c.add(&b);
    let csum = c.finish();
    b[16..18].copy_from_slice(&csum.to_be_bytes());
    b
}

/// `emit_into` appends, byte for byte, what the old `emit` returned — for
/// any header, option set and payload, after any bytes already in the
/// buffer, and however the payload is cut into parts — and `emit` is it.
#[test]
fn tcp_emit_into_matches_legacy_emit() {
    check(
        "tcp_emit_into_matches_legacy_emit",
        Config::default().cases(256),
        |rng| {
            (
                (rng.gen::<u32>(), rng.gen::<u32>(), rng.gen::<u32>()),
                (
                    rng.gen::<u8>(),
                    rng.gen::<u16>(),
                    rng.gen::<u16>(),
                    rng.gen::<u8>(),
                ),
                bytes(rng, 0..3000),
                bytes(rng, 0..64),
                rng.gen::<usize>(),
            )
        },
        |((ports, seq, ack), (flags, window, mss, opts), payload, prefix, cut)| {
            let h = TcpHeader {
                src_port: (ports >> 16) as u16,
                dst_port: ports as u16,
                seq: SeqNum(seq),
                ack: SeqNum(ack),
                flags: TcpFlags {
                    fin: flags & 1 != 0,
                    syn: flags & 2 != 0,
                    rst: flags & 4 != 0,
                    psh: flags & 8 != 0,
                    ack: flags & 16 != 0,
                    urg: flags & 32 != 0,
                },
                window,
                mss: (opts & 1 != 0).then_some(mss),
                window_scale: (opts & 2 != 0).then_some(opts >> 2),
            };
            let (src, dst) = (Ipv4Addr::from(seq ^ ports), Ipv4Addr::from(ack ^ ports));
            let want = legacy_tcp_emit(&h, &payload, src, dst);
            prop_assert_eq!(&h.emit(&payload, src, dst), &want);
            let (a, b) = payload.split_at(cut % (payload.len() + 1));
            let mut out = prefix.clone();
            h.emit_into(&mut out, &[a, b], src, dst);
            prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&out[prefix.len()..], &want[..]);
            // The slice form writes the same bytes over whatever the buffer
            // held, and nothing behind them.
            let mut over = [&prefix[..], &want[..], &prefix[..]].concat();
            over[prefix.len()..prefix.len() + want.len()].fill(!cut as u8);
            h.emit_to(&mut over[prefix.len()..], &[a, b], src, dst);
            prop_assert_eq!(&over, &[&prefix[..], &want[..], &prefix[..]].concat());
            Ok(())
        },
    );
}

/// The IPv4 and Ethernet header writers write what the `Vec`-returning
/// `emit`s put in front of the payload, over whatever the buffer held.
#[test]
fn ip_and_ethernet_header_writers_match_emit() {
    check(
        "ip_and_ethernet_header_writers_match_emit",
        Config::default().cases(128),
        |rng| {
            (
                (rng.gen::<u32>(), rng.gen::<u32>(), rng.gen::<u8>()),
                (rng.gen::<u16>(), rng.gen::<u16>(), rng.gen::<u8>()),
                bytes(rng, 0..2000),
                bytes(rng, 0..32),
            )
        },
        |((src, dst, proto), (ident, frag, ttl), payload, prefix)| {
            let mut ip = Ipv4Header::new(src.into(), dst.into(), proto.into(), payload.len());
            ip.ident = ident;
            ip.ttl = ttl;
            ip.dont_frag = frag & 1 != 0;
            ip.more_frags = frag & 2 != 0;
            ip.frag_offset = frag & 0xFFF8;
            let eth = EthernetFrame {
                dst: MacAddr::local(ttl),
                src: MacAddr::local(proto),
                ethertype: EtherType::from(ident),
            };
            let mut out = [&prefix[..], &[ttl ^ 0x5A; 34], &payload[..]].concat();
            eth.emit_header_to(&mut out[prefix.len()..]);
            ip.emit_header_to(&mut out[prefix.len() + 14..]);
            prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&out[prefix.len()..], &eth.emit(&ip.emit(&payload))[..]);
            // ...and the length field of `emit` is the payload's own.
            ip.total_len = 20;
            prop_assert_eq!(&out[prefix.len() + 14..], &ip.emit(&payload)[..]);
            Ok(())
        },
    );
}
