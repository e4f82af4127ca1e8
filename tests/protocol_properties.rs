//! Property-based tests on protocol invariants across crates: wire-format
//! round trips, checksum detection, reassembly correctness under arbitrary
//! segmentation/reordering, and TCP data integrity under adverse delivery.
//! Runs on the in-tree `neat_util::check` harness.

use neat_net::tcp::{TcpFlags, TcpHeader};
use neat_net::{EtherType, EthernetFrame, Ipv4Header, MacAddr, SeqNum};
use neat_tcp::assembler::Assembler;
use neat_tcp::buffer::RecvBuffer;
use neat_tcp::{SocketId, TcpConfig};
use neat_util::check::{bytes, check, vec_of, Config};
use neat_util::{prop_assert, prop_assert_eq};
use std::net::Ipv4Addr;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

#[test]
fn ethernet_roundtrip() {
    check(
        "ethernet_roundtrip",
        Config::default().cases(64),
        |rng| {
            (
                rng.gen::<[u8; 6]>(),
                rng.gen::<[u8; 6]>(),
                bytes(rng, 0..512),
            )
        },
        |(dst, src, payload)| {
            let f = EthernetFrame {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype: EtherType::Ipv4,
            };
            let bytes = f.emit(&payload);
            let (g, off) = EthernetFrame::parse(&bytes).unwrap();
            prop_assert_eq!(f, g);
            prop_assert_eq!(&bytes[off..], &payload[..]);
            Ok(())
        },
    );
}

#[test]
fn ipv4_roundtrip() {
    check(
        "ipv4_roundtrip",
        Config::default().cases(64),
        |rng| {
            (
                rng.gen::<u32>(),
                rng.gen::<u32>(),
                rng.gen_range(1u8..=255),
                bytes(rng, 0..1400),
            )
        },
        |(src, dst, ttl, payload)| {
            if ttl == 0 {
                return Ok(());
            }
            let mut h = Ipv4Header::new(
                Ipv4Addr::from(src),
                Ipv4Addr::from(dst),
                neat_net::ipv4::IpProtocol::Tcp,
                payload.len(),
            );
            h.ttl = ttl;
            let bytes = h.emit(&payload);
            let (g, range) = Ipv4Header::parse(&bytes).unwrap();
            prop_assert_eq!(g.src, Ipv4Addr::from(src));
            prop_assert_eq!(g.dst, Ipv4Addr::from(dst));
            prop_assert_eq!(g.ttl, ttl);
            prop_assert_eq!(&bytes[range], &payload[..]);
            Ok(())
        },
    );
}

#[test]
fn ipv4_single_bitflip_detected_in_header() {
    check(
        "ipv4_single_bitflip_detected_in_header",
        Config::default().cases(64),
        |rng| {
            (
                bytes(rng, 0..64),
                rng.gen_range(0usize..20),
                rng.gen_range(0u8..8),
            )
        },
        |(payload, byte, bit)| {
            if byte >= 20 || bit >= 8 {
                return Ok(());
            }
            let h = Ipv4Header::new(A, B, neat_net::ipv4::IpProtocol::Udp, payload.len());
            let mut bytes = h.emit(&payload);
            bytes[byte] ^= 1 << bit;
            // Any single-bit header flip must be rejected (checksum or field
            // validation).
            prop_assert!(Ipv4Header::parse(&bytes).is_err());
            Ok(())
        },
    );
}

#[test]
fn tcp_segment_roundtrip() {
    check(
        "tcp_segment_roundtrip",
        Config::default().cases(64),
        |rng| {
            (
                rng.gen_range(1u16..65535),
                rng.gen_range(1u16..65535),
                (rng.gen::<u32>(), rng.gen::<u32>(), rng.gen::<u16>()),
                bytes(rng, 0..1400),
            )
        },
        |(sp, dp, (seq, ack, window), payload)| {
            if sp == 0 || dp == 0 {
                return Ok(());
            }
            let mut h = TcpHeader::new(sp, dp, SeqNum(seq), SeqNum(ack), TcpFlags::psh_ack());
            h.window = window;
            let bytes = h.emit(&payload, A, B);
            let (g, range) = TcpHeader::parse(&bytes, A, B).unwrap();
            prop_assert_eq!(g.src_port, sp);
            prop_assert_eq!(g.dst_port, dp);
            prop_assert_eq!(g.seq, SeqNum(seq));
            prop_assert_eq!(g.ack, SeqNum(ack));
            prop_assert_eq!(g.window, window);
            prop_assert_eq!(&bytes[range], &payload[..]);
            Ok(())
        },
    );
}

#[test]
fn tcp_payload_bitflip_detected() {
    check(
        "tcp_payload_bitflip_detected",
        Config::default().cases(64),
        |rng| {
            (
                bytes(rng, 1..256),
                rng.gen_range(0u8..8),
                rng.gen::<usize>(),
            )
        },
        |(payload, bit, pos_seed)| {
            if payload.is_empty() || bit >= 8 {
                return Ok(());
            }
            let h = TcpHeader::new(1, 2, SeqNum(9), SeqNum(3), TcpFlags::ack());
            let mut bytes = h.emit(&payload, A, B);
            let pos = 20 + pos_seed % payload.len();
            bytes[pos] ^= 1 << bit;
            prop_assert!(TcpHeader::parse(&bytes, A, B).is_err());
            Ok(())
        },
    );
}

#[test]
fn seqnum_arithmetic_wraps_consistently() {
    check(
        "seqnum_arithmetic_wraps_consistently",
        Config::default().cases(64),
        |rng| {
            (
                rng.gen::<u32>(),
                rng.gen_range(0u32..1_000_000),
                rng.gen_range(0u32..1_000_000),
            )
        },
        |(base, d1, d2)| {
            let s = SeqNum(base);
            let a = s + d1;
            let b = s + d2;
            prop_assert_eq!(a - s, d1 as i32);
            prop_assert_eq!(b - a, d2 as i32 - d1 as i32);
            prop_assert_eq!(a.max(b), if d1 >= d2 { a } else { b });
            prop_assert_eq!(a.min(b), if d1 <= d2 { a } else { b });
            Ok(())
        },
    );
}

/// Read every in-order byte out of `ring` onto `out`.
fn drain(ring: &mut RecvBuffer, out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + ring.len(), 0);
    ring.read(&mut out[at..]);
}

/// The assembler reconstructs the exact byte stream no matter how the
/// stream is chopped, reordered, or duplicated.
#[test]
fn assembler_reconstructs_stream() {
    check(
        "assembler_reconstructs_stream",
        Config::default().cases(64),
        |rng| {
            (
                bytes(rng, 1..2_000),
                vec_of(rng, 1..20, |r| r.gen_range(1usize..200)),
                rng.gen::<u64>(),
                rng.gen::<bool>(),
            )
        },
        |(data, cuts, order_seed, dup)| {
            if data.is_empty() || cuts.is_empty() || cuts.contains(&0) {
                return Ok(());
            }
            // Chop into segments.
            let mut segs: Vec<(u32, Vec<u8>)> = Vec::new();
            let mut off = 0usize;
            let mut i = 0;
            while off < data.len() {
                let len = cuts[i % cuts.len()].min(data.len() - off);
                segs.push((off as u32, data[off..off + len].to_vec()));
                off += len;
                i += 1;
            }
            // Shuffle deterministically.
            let mut order: Vec<usize> = (0..segs.len()).collect();
            let mut s = neat_util::Rng::seed_from_u64(order_seed);
            s.shuffle(&mut order);
            if dup && !segs.is_empty() {
                order.push(order[0]);
            }
            // Feed through the assembler, draining in-order data as it forms.
            let base = SeqNum(7_000_000);
            let (mut asm, mut ring) = (Assembler::default(), RecvBuffer::new(64 * 1024));
            let mut rcv = base;
            let mut out = Vec::new();
            for idx in order {
                let (o, seg) = &segs[idx];
                rcv += asm.receive(&mut ring, base + *o, seg, rcv) as u32;
                drain(&mut ring, &mut out);
            }
            prop_assert_eq!(out, data);
            prop_assert!(asm.is_empty());
            Ok(())
        },
    );
}

/// Two real sockets exchanging an arbitrary stream deliver exactly the
/// stream, regardless of write sizes.
#[test]
fn tcp_end_to_end_stream_integrity() {
    check(
        "tcp_end_to_end_stream_integrity",
        Config::default().cases(48),
        |rng| vec_of(rng, 1..12, |r| bytes(r, 1..900)),
        |chunks| {
            if chunks.is_empty() || chunks.iter().any(|c| c.is_empty()) {
                return Ok(());
            }
            let cfg = TcpConfig {
                initial_rto_ns: 10_000_000,
                ..TcpConfig::default()
            };
            let mut c = neat_tcp::TcpSocket::connect(
                SocketId(1),
                &cfg,
                (A, 40_000),
                (B, 80),
                SeqNum(100),
                0,
            );
            let (syn, _) = c.poll_transmit(0).unwrap();
            let mut srv = neat_tcp::TcpSocket::accept_from_syn(
                SocketId(2),
                &cfg,
                (B, 80),
                (A, 40_000),
                &syn,
                SeqNum(900),
                0,
            );
            // Handshake + transfer loop with real emit/parse.
            let mut sent = Vec::new();
            let mut received = Vec::new();
            let mut pending: Vec<Vec<u8>> = chunks.clone();
            pending.reverse();
            let mut now = 0u64;
            for _round in 0..10_000 {
                now += 100_000;
                if let Some(chunk) = pending.last() {
                    if let Ok(n) = c.send(chunk) {
                        sent.extend_from_slice(&chunk[..n]);
                        if n == chunk.len() {
                            pending.pop();
                        } else {
                            let rest = pending.last_mut().unwrap().split_off(n);
                            *pending.last_mut().unwrap() = rest;
                        }
                    }
                }
                c.on_timer(now);
                srv.on_timer(now);
                let mut moved = true;
                while moved {
                    moved = false;
                    while let Some((h, p)) = c.poll_transmit(now) {
                        let bytes = h.emit(&p, A, B);
                        let (g, r) = TcpHeader::parse(&bytes, A, B).unwrap();
                        srv.on_segment(&g, &bytes[r], now);
                        moved = true;
                    }
                    while let Some((h, p)) = srv.poll_transmit(now) {
                        let bytes = h.emit(&p, B, A);
                        let (g, r) = TcpHeader::parse(&bytes, B, A).unwrap();
                        c.on_segment(&g, &bytes[r], now);
                        moved = true;
                    }
                }
                let mut buf = [0u8; 4096];
                while let Ok(n) = srv.recv(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    received.extend_from_slice(&buf[..n]);
                }
                let total: usize = chunks.iter().map(|c| c.len()).sum();
                if received.len() == total {
                    break;
                }
            }
            let flat: Vec<u8> = chunks.concat();
            prop_assert_eq!(received, flat);
            Ok(())
        },
    );
}

/// The NIC's TSO split + receiver reassembly is identity on payload.
#[test]
fn tso_split_preserves_stream() {
    check(
        "tso_split_preserves_stream",
        Config::default().cases(48),
        |rng| (bytes(rng, 1..8_000), rng.gen_range(400usize..1500)),
        |(payload, mss)| {
            if payload.is_empty() || mss == 0 {
                return Ok(());
            }
            let tcp = TcpHeader::new(1000, 80, SeqNum(5_000), SeqNum(1), TcpFlags::psh_ack())
                .emit(&payload, A, B);
            let ip = Ipv4Header::new(A, B, neat_net::ipv4::IpProtocol::Tcp, tcp.len()).emit(&tcp);
            let frame = EthernetFrame {
                dst: MacAddr::local(1),
                src: MacAddr::local(2),
                ethertype: EtherType::Ipv4,
            }
            .emit(&ip);
            let frames = neat_nic::tso::tso_split(frame.into(), mss);
            let (mut asm, mut ring) = (Assembler::default(), RecvBuffer::new(64 * 1024));
            let mut rcv = SeqNum(5_000);
            let mut out = Vec::new();
            for f in frames {
                let (_, off) = EthernetFrame::parse(&f).unwrap();
                let (iph, range) = Ipv4Header::parse(&f[off..]).unwrap();
                let l4 = &f[off..][range];
                let (th, pr) = TcpHeader::parse(l4, iph.src, iph.dst).unwrap();
                rcv += asm.receive(&mut ring, th.seq, &l4[pr], rcv) as u32;
                drain(&mut ring, &mut out);
            }
            prop_assert!(asm.is_empty());
            prop_assert_eq!(out, payload);
            Ok(())
        },
    );
}
