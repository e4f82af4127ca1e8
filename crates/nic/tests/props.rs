//! Property tests for the NIC model: steering stability, fault-injector
//! conservation, TSO framing invariants. Runs on the in-tree
//! `neat_util::check` harness.

use neat_net::tcp::{TcpFlags, TcpHeader};
use neat_net::{EtherType, EthernetFrame, IpProtocol, Ipv4Header, MacAddr, SeqNum};
use neat_nic::{FaultConfig, FaultInjector, Nic, NicConfig, Steering};
use neat_util::check::{check, vec_of, Config};
use neat_util::{prop_assert, prop_assert_eq};
use std::net::Ipv4Addr;

fn frame(src: u32, sp: u16, dp: u16, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
    let s = Ipv4Addr::from(src);
    let d = Ipv4Addr::new(192, 168, 69, 1);
    let tcp = TcpHeader::new(sp, dp, SeqNum(1), SeqNum(0), flags).emit(payload, s, d);
    let ip = Ipv4Header::new(s, d, neat_net::ipv4::IpProtocol::Tcp, tcp.len()).emit(&tcp);
    EthernetFrame {
        dst: MacAddr::local(1),
        src: MacAddr::local(2),
        ethertype: EtherType::Ipv4,
    }
    .emit(&ip)
}

/// Flow affinity: for any sequence of flows and queue counts, every
/// packet of a flow is classified to one queue.
#[test]
fn steering_flow_affinity() {
    check(
        "steering_flow_affinity",
        Config::default().cases(96),
        |rng| {
            (
                vec_of(rng, 1..40, |r| {
                    (
                        r.gen::<u32>(),
                        r.gen_range(1024u16..65000),
                        r.gen_range(1u16..1024),
                    )
                }),
                rng.gen_range(1usize..16),
            )
        },
        |(flows, queues)| {
            if queues == 0 {
                return Ok(());
            }
            let mut s = Steering::new(queues);
            let mut assigned = std::collections::HashMap::new();
            let mut now = 0u64;
            for (src, sp, dp) in &flows {
                // SYN first, then data packets of the same flow interleaved.
                now += 1_000;
                let q0 = s.classify_track(&frame(*src, *sp, *dp, TcpFlags::SYN, &[]), now);
                prop_assert!(q0 < queues);
                let prev = assigned.insert((*src, *sp, *dp), q0);
                if let Some(p) = prev {
                    prop_assert_eq!(p, q0, "re-SYN keeps the filter-pinned queue");
                }
                for _ in 0..3 {
                    now += 1_000;
                    let q = s.classify_track(&frame(*src, *sp, *dp, TcpFlags::ack(), b"x"), now);
                    prop_assert_eq!(q, q0, "data follows the SYN's queue");
                }
            }
            Ok(())
        },
    );
}

/// Fault injector conservation: every frame is exactly one of passed,
/// corrupted, or dropped; corrupted frames differ in exactly one bit.
#[test]
fn fault_injector_conservation() {
    check(
        "fault_injector_conservation",
        Config::default().cases(128),
        |rng| {
            (
                rng.gen_range(0u8..=100),
                rng.gen_range(0u8..=100),
                rng.gen::<u64>(),
                rng.gen_range(1usize..200),
            )
        },
        |(drop_pct, corrupt_pct, seed, n)| {
            let mut inj = FaultInjector::new(
                FaultConfig {
                    drop_pct,
                    corrupt_pct,
                },
                seed,
            );
            let orig = vec![0x5Au8; 64];
            for _ in 0..n {
                match inj.apply(orig.clone().into()) {
                    neat_nic::faults::FaultOutcome::Pass(f) => prop_assert_eq!(&f[..], &orig[..]),
                    neat_nic::faults::FaultOutcome::Corrupted(f) => {
                        let bits: u32 =
                            f.iter().zip(&orig).map(|(a, b)| (a ^ b).count_ones()).sum();
                        prop_assert_eq!(bits, 1);
                    }
                    neat_nic::faults::FaultOutcome::Dropped => {}
                }
            }
            prop_assert_eq!(inj.passed + inj.corrupted + inj.dropped, n as u64);
            Ok(())
        },
    );
}

/// Determinism: the same seed yields the same outcome sequence — the
/// foundation of reproducible fault-injection campaigns (Table 3).
#[test]
fn fault_injector_deterministic() {
    check(
        "fault_injector_deterministic",
        Config::default().cases(32),
        |rng| (rng.gen::<u64>(), rng.gen_range(1usize..100)),
        |(seed, n)| {
            let run = |seed: u64| {
                let mut inj = FaultInjector::new(
                    FaultConfig {
                        drop_pct: 30,
                        corrupt_pct: 30,
                    },
                    seed,
                );
                (0..n)
                    .map(|_| inj.apply(vec![0xAAu8; 32].into()))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(run(seed), run(seed));
            Ok(())
        },
    );
}

/// TSO: frames on the wire never exceed MSS+headers, cover the payload
/// exactly once, in order.
#[test]
fn tso_framing_invariants() {
    check(
        "tso_framing_invariants",
        Config::default().cases(96),
        |rng| {
            (
                neat_util::check::bytes(rng, 1..10_000),
                rng.gen_range(200usize..1460),
            )
        },
        |(payload, mss)| {
            if payload.is_empty() || mss == 0 {
                return Ok(());
            }
            let f = frame(0x0A00_0001, 9999, 80, TcpFlags::psh_ack(), &payload);
            let out = neat_nic::tso::tso_split(f.into(), mss);
            let mut covered = 0usize;
            let mut expect_seq = SeqNum(1);
            for w in &out {
                let (_, off) = EthernetFrame::parse(w).unwrap();
                let (iph, r) = Ipv4Header::parse(&w[off..]).unwrap();
                let l4 = &w[off..][r];
                let (th, pr) = TcpHeader::parse(l4, iph.src, iph.dst).unwrap();
                let seg = &l4[pr];
                prop_assert!(seg.len() <= mss);
                prop_assert_eq!(th.seq, expect_seq);
                prop_assert_eq!(seg, &payload[covered..covered + seg.len()]);
                expect_seq += seg.len() as u32;
                covered += seg.len();
            }
            prop_assert_eq!(covered, payload.len());
            Ok(())
        },
    );
}

/// Device-level: growing queues never reroutes filtered (existing)
/// flows.
#[test]
fn grow_preserves_existing_flows() {
    check(
        "grow_preserves_existing_flows",
        Config::default().cases(64),
        |rng| {
            (
                vec_of(rng, 1..30, |r| r.gen_range(1024u16..60000)),
                rng.gen_range(2usize..12),
            )
        },
        |(ports, grow_to)| {
            if grow_to < 1 {
                return Ok(());
            }
            let mut nic = Nic::new(
                NicConfig {
                    queue_pairs: 1,
                    ..Default::default()
                },
                FaultInjector::disabled(1),
            );
            let mut homes = Vec::new();
            for (i, p) in ports.iter().enumerate() {
                let q = nic
                    .wire_rx(frame(7, *p, 80, TcpFlags::SYN, &[]).into(), i as u64)
                    .unwrap();
                homes.push(q);
            }
            nic.grow_queues(grow_to);
            for (i, p) in ports.iter().enumerate() {
                if let Some(q) = nic.wire_rx(
                    frame(7, *p, 80, TcpFlags::ack(), b"d").into(),
                    1_000 + i as u64,
                ) {
                    prop_assert_eq!(q, homes[i], "existing flow moved after grow");
                }
            }
            Ok(())
        },
    );
}

/// `tso_split` as it was before the one-buffer build: the frame parsed the
/// same way, each segment composed from the three `Vec`-returning `emit`s.
fn reference_split(frame: &[u8], mss: usize) -> Vec<Vec<u8>> {
    let whole = || vec![frame.to_vec()];
    let Ok((eth, off)) = EthernetFrame::parse(frame) else {
        return whole();
    };
    let Ok((ip, r)) = Ipv4Header::parse(&frame[off..]) else {
        return whole();
    };
    let l4 = &frame[off..][r];
    let Ok((tcp, pr)) = TcpHeader::parse(l4, ip.src, ip.dst) else {
        return whole();
    };
    let payload = &l4[pr];
    if eth.ethertype != EtherType::Ipv4
        || ip.protocol != IpProtocol::Tcp
        || mss == 0
        || payload.len() <= mss
    {
        return whole();
    }
    let segment = |(i, chunk): (usize, &[u8])| {
        let last = i * mss + chunk.len() == payload.len();
        let mut h = tcp;
        h.seq = tcp.seq + (i * mss) as u32;
        h.flags.fin = tcp.flags.fin && last;
        h.flags.psh = tcp.flags.psh && last;
        h.mss = None;
        h.window_scale = None;
        let seg = h.emit(chunk, ip.src, ip.dst);
        eth.emit(&Ipv4Header::new(ip.src, ip.dst, IpProtocol::Tcp, seg.len()).emit(&seg))
    };
    payload.chunks(mss).enumerate().map(segment).collect()
}

/// The one-buffer TSO cuts exactly the frames the three-`Vec` one did:
/// FIN/PSH on the last segment only, options dropped, and a frame that is
/// not TCP, does not verify, fits the MSS — or meets an MSS of zero —
/// passed through as it came.
#[test]
fn tso_split_matches_three_emit_reference() {
    check(
        "tso_split_matches_three_emit_reference",
        Config::default().cases(128),
        |rng| {
            (
                neat_util::check::bytes(rng, 0..9000),
                rng.gen_range(1usize..3000),
                rng.gen::<u8>(),
                rng.gen::<u16>(),
            )
        },
        |(payload, mss, flags, damage)| {
            let flags = TcpFlags {
                fin: flags & 1 != 0,
                psh: flags & 2 != 0,
                ack: true,
                ..TcpFlags::default()
            };
            let mut f = frame(0x0A00_0001, 9999, 80, flags, &payload);
            match damage % 8 {
                // An L4 checksum that does not verify.
                0 => *f.last_mut().unwrap() ^= 0x5a,
                // An IP header that does not verify.
                1 => f[14 + 8] ^= 0x40,
                // Not TCP: a well-formed IP packet whose protocol is UDP.
                2 => {
                    f[14 + 9] = 17;
                    f[24..26].fill(0);
                    let c = neat_net::checksum::checksum(&f[14..34]);
                    f[24..26].copy_from_slice(&c.to_be_bytes());
                }
                _ => {}
            }
            let got = neat_nic::tso::tso_split(f.clone().into(), mss);
            let got: Vec<Vec<u8>> = got.iter().map(|p| p.to_vec()).collect();
            prop_assert_eq!(got, reference_split(&f, mss));
            let through = neat_nic::tso::tso_split(f.clone().into(), 0);
            prop_assert_eq!(through.len(), 1);
            prop_assert_eq!(&through[0][..], &f[..]);
            Ok(())
        },
    );
}

/// `cut` itself, over the whole range the stack hands it: payloads up to
/// the 61 440 B GSO cap, odd MSS values down to 1, and one flipped byte
/// anywhere in the frame. It cuts exactly what the reference cuts; a flip
/// past the Ethernet header (IPv4 header, TCP header or payload) makes it
/// refuse; and it never calls `each` for a frame it refuses.
#[test]
fn tso_cut_matches_reference_and_refuses_before_each() {
    check(
        "tso_cut_matches_reference_and_refuses_before_each",
        Config::default().cases(128),
        |rng| {
            let len = if rng.gen_bool(0.5) {
                rng.gen_range(0usize..61_441)
            } else {
                rng.gen_range(0usize..4000)
            };
            let mss = match rng.gen_range(0u8..4) {
                0 => 2 * rng.gen_range(0usize..8) + 1,
                1 => rng.gen_range(1usize..3000) | 1,
                2 => 1460,
                _ => rng.gen_range(0usize..3000),
            };
            let flip = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(1u8..=255)
            };
            (
                (len, mss, rng.gen::<u8>()),
                (rng.gen::<usize>(), flip, rng.gen::<u64>()),
            )
        },
        |((len, mss, flags), (pos, flip, seed))| {
            let mut payload = vec![0u8; len];
            neat_util::Rng::seed_from_u64(seed).fill_bytes(&mut payload);
            let flags = TcpFlags {
                fin: flags & 1 != 0,
                psh: flags & 2 != 0,
                ack: true,
                ..TcpFlags::default()
            };
            let mut f = frame(0x0A00_0001, 9999, 80, flags, &payload);
            let pos = pos % f.len();
            f[pos] ^= flip;
            let mut got = Vec::new();
            let cut = neat_nic::tso::cut(f.clone().into(), mss, |seg| got.push(seg.to_vec()));
            let want = reference_split(&f, mss);
            match &cut {
                Err(back) => {
                    prop_assert!(got.is_empty(), "each called for a refused frame");
                    prop_assert_eq!(&back[..], &f[..], "a refused frame comes back as it was");
                    prop_assert_eq!(want, vec![f.clone()]);
                }
                Ok(()) => prop_assert_eq!(got, want),
            }
            if flip != 0 && pos >= 14 {
                prop_assert!(cut.is_err(), "byte {pos} ^ {flip:#x} not refused");
            }
            Ok(())
        },
    );
}

/// The largest TCP payload one IPv4 frame carries: a 16-bit total length
/// less the IPv4 and TCP headers.
const MAX_PAYLOAD: usize = 0xFFFF - 20 - 20;

/// One frame cut three ways: built with the room its cut adds (`room`),
/// copied into a block of its own size (`from_vec`), and with a second
/// handle held. Each way cuts exactly the reference's segments, which emit
/// every chunk on its own; a cut in place grants nothing and the other two
/// grant one block; the shared frame's bytes are unchanged. A payload
/// within `mss` is handed back, as it was, with no grant.
fn cut_three_ways(payload: &[u8], mss: usize, flags: TcpFlags) -> Result<(), String> {
    use neat_net::pktbuf::{self, PktBuf};
    let f = frame(0x0A00_0001, 9999, 80, flags, payload);
    let want = reference_split(&f, mss);
    let room = neat_nic::tso::room(payload.len(), mss);
    let with_room = || PktBuf::build_with_room(f.len(), room, |b| b.copy_from_slice(&f));
    let shared = with_room();
    let keep = shared.clone();
    for (kind, frame, grants) in [
        ("with room", with_room(), 0),
        ("without room", PktBuf::from_vec(f.clone()), 1),
        ("shared", shared, 1),
    ] {
        let refused = payload.len() <= mss;
        let before = pktbuf::stats().grants;
        let mut got = Vec::new();
        let cut = neat_nic::tso::cut(frame, mss, |seg| got.push(seg));
        if let Err(back) = cut {
            prop_assert!(refused, "{kind}: refused");
            got.push(back);
        }
        let grants = if refused { 0 } else { grants };
        prop_assert_eq!(pktbuf::stats().grants - before, grants, "{kind}: grants");
        prop_assert_eq!(got.len(), want.len(), "{kind}: segment count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(g[..] == w[..], "{kind}: segment {i} differs");
        }
    }
    prop_assert!(keep[..] == f[..], "the shared frame's bytes moved");
    Ok(())
}

/// The cut, spread in place or after its copy, against the reference for
/// payloads from 1 B to [`MAX_PAYLOAD`]: every MSS boundary ± 1 at the
/// link's 1 460 B MSS with FIN and PSH both off and both on, then random
/// lengths (half of them next to a boundary) at random and small odd MSS
/// values with random FIN/PSH.
#[test]
fn tso_cut_in_place_matches_reference_for_every_kind_of_frame() {
    let mss = neat_nic::tso::TSO_MSS;
    for k in 1..=MAX_PAYLOAD / mss {
        for len in [k * mss - 1, k * mss, k * mss + 1] {
            for on in [false, true] {
                let flags = TcpFlags {
                    fin: on,
                    psh: on,
                    ack: true,
                    ..TcpFlags::default()
                };
                let payload: Vec<u8> = (0..len).map(|i| (i * 7 + i / 251) as u8).collect();
                cut_three_ways(&payload, mss, flags).unwrap();
            }
        }
    }
    check(
        "tso_cut_in_place_matches_reference_for_every_kind_of_frame",
        Config::default().cases(64),
        |rng| {
            let mss = match rng.gen_range(0u8..3) {
                0 => mss,
                1 => rng.gen_range(1usize..3000),
                _ => 2 * rng.gen_range(0usize..32) + 1,
            };
            // Small MSS values cut many segments: keep their payloads short.
            let max = if mss < 64 { 4000 } else { MAX_PAYLOAD };
            let len = if rng.gen_bool(0.5) {
                let k = rng.gen_range(1..=max / mss);
                (k * mss + rng.gen_range(0usize..3))
                    .saturating_sub(1)
                    .clamp(1, max)
            } else {
                rng.gen_range(1..=max)
            };
            (len, mss, rng.gen::<u8>(), rng.gen::<u64>())
        },
        |(len, mss, flags, seed)| {
            let mut payload = vec![0u8; len];
            neat_util::Rng::seed_from_u64(seed).fill_bytes(&mut payload);
            let flags = TcpFlags {
                fin: flags & 1 != 0,
                psh: flags & 2 != 0,
                ack: true,
                ..TcpFlags::default()
            };
            cut_three_ways(&payload, mss, flags)
        },
    );
}
