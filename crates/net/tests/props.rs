//! Property tests for the wire-format crate, on the in-tree
//! `neat_util::check` harness.

use neat_net::arp::ArpPacket;
use neat_net::checksum::{checksum, Checksum};
use neat_net::ethernet::MacAddr;
use neat_net::udp::UdpHeader;
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
