//! The checkpoint codec's pins: golden V4 bytes (the V2 bytes captured
//! before the `TcbImage` struct was deleted, less the per-socket counters
//! and the ring capacities), and the canonical-decoder rule on crafted and
//! mutated real images.

use super::*;
use crate::socket::tests::{cfg, established, pump};
use neat_util::check::{check, vec_of, Config};
use neat_util::prop_assert_eq;

/// Sockets scripted through real handshakes: an established server with
/// bytes in both rings, its reply in flight and every option present
/// (poked where the script leaves one absent), and both ends of a
/// half-closed flow — a FIN-WAIT-2 client and a CLOSE-WAIT server — whose
/// options are mostly absent.
fn scripted() -> [TcpSocket; 3] {
    let (mut c, mut s) = established();
    c.send(b"GET /index.html HTTP/1.1\r\n\r\n").unwrap();
    pump(&mut c, &mut s, 3_000_000);
    s.send(b"HTTP/1.1 200 OK\r\n\r\nhello").unwrap();
    let _lost = s.poll_transmit(4_000_000);
    s.rel.rtt.sample(1_234_567);
    s.rel.rtt.backoff();
    s.rel.retries = 1;
    s.rel.dup_acks = 2;
    s.fc.ack_pending = 3;
    s.cm.fin_seq = Some(s.rel.send_buf.end());
    s.fc.ack_deadline = Some(7_000_001);
    s.cm.time_wait_deadline = Some(7_000_002);
    s.fc.probe_deadline = Some(7_000_003);
    s.cm.keepalive_deadline = Some(7_000_004);
    let busy = s;
    let (mut c, mut s) = established();
    c.close(5_000_000);
    pump(&mut c, &mut s, 5_000_000);
    [busy, c, s]
}

/// [`scripted`]'s images as `snapshot().encode()` wrote them in V2, with
/// the version byte 4, and with the 24 B of per-socket counters before the
/// algorithm byte and the 8 B capacity after each ring removed. `FIN_WAIT`
/// was captured again once an ACK of
/// the FIN came to move `snd_una` past it: its send base is one later and
/// it holds no RTO deadline.
const BUSY: &str = concat!(
    "04040a00000250000a000001409c88130000e8030000a1130000e90300008913",
    "000089130000050400000000010000000000b40507070118000000485454502f",
    "312e3120323030204f4b0d0a0d0a68656c6c6f1c000000474554202f696e6465",
    "782e68746d6c20485454502f312e310d0a0d0a000001a1130000000000000140",
    "4b4c0000000000000100000002000000010000000087d602410000000087d612",
    "41ae622a00000000005731150000000000010000000300000001c1cf6a000000",
    "00000001c2cf6a000000000001c3cf6a000000000001c4cf6a000000000000",
);
const FIN_WAIT: &str = concat!(
    "04060a000001409c0a0000025000e803000088130000ea03000089130000ea03",
    "0000ea030000891300000000010000000000b405070701000000000000000000",
    "0101e90300000000000000000000000000000000010000000000000000000000",
    "000000000040420f000000000040420f00000000000000000000000000000000",
    "000000",
);
const CLOSE_WAIT: &str = concat!(
    "04090a00000250000a000001409c88130000e803000089130000e90300008913",
    "000089130000ea0300000000010000000000b405070701000000000000000001",
    "000000000000000000000000010000000000000000000000000000000040420f",
    "000000000040420f00000000000000000000000000000000000000",
);

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn decodes(img: &[u8]) -> bool {
    TcpSocket::from_checkpoint(SocketId(1), &cfg(), img).is_some()
}

#[test]
fn images_match_the_golden_bytes() {
    let [busy, fin_wait, close_wait] = scripted();
    let img = busy.checkpoint();
    assert_eq!(img, unhex(BUSY));
    assert_eq!(img.len(), IMAGE_FIXED_MAX + 24 + 28, "every option present");
    assert_eq!(fin_wait.state(), TcpState::FinWait2);
    assert_eq!(fin_wait.checkpoint(), unhex(FIN_WAIT));
    assert_eq!(close_wait.state(), TcpState::CloseWait);
    assert_eq!(close_wait.checkpoint(), unhex(CLOSE_WAIT));
    // The controller is the last byte, and nothing else moves with it.
    let mut s = close_wait;
    let mut want = unhex(CLOSE_WAIT);
    let algos = [
        CongestionAlgo::Reno,
        CongestionAlgo::Cubic,
        CongestionAlgo::Bbr,
        CongestionAlgo::Dctcp,
    ];
    for (code, algo) in (0..).zip(algos) {
        s.set_congestion(algo);
        *want.last_mut().unwrap() = code;
        assert_eq!(s.checkpoint(), want, "{algo:?}");
    }
}

/// Three kinds of image no socket writes, each of which the struct-based
/// decoder accepted and re-encoded differently.
#[test]
fn corrupt_images_are_refused() {
    let [_, fin_wait, _] = scripted();
    let good = fin_wait.checkpoint();
    assert!(decodes(&good));
    // Trailing bytes after the algorithm byte.
    let mut trailing = good.clone();
    trailing.push(0);
    assert!(!decodes(&trailing));
    // A `fin_seq` of 2^32 or more: with both rings empty its option tag
    // sits at byte 65, its value at 66..74.
    let mut wide_fin = good.clone();
    assert_eq!(wide_fin[65..70], [1, 0xe9, 0x03, 0, 0], "fin_seq 1001");
    wide_fin[70] = 1;
    assert!(!decodes(&wide_fin));
    // A ring longer than its capacity: the send ring's `u32` length sits at
    // 55..59, the receive ring's, with the send ring empty, at 59..63. A
    // full ring decodes; one byte more is refused.
    for (at, cap) in [(55, SEND_BUF), (59, RECV_BUF)] {
        assert_eq!(good[at..at + 4], [0; 4]);
        for (len, fits) in [(cap, true), (cap + 1, false)] {
            let mut img = good[..at].to_vec();
            img.extend((len as u32).to_le_bytes());
            img.extend(std::iter::repeat_n(7, len));
            img.extend(&good[at + 4..]);
            assert_eq!(decodes(&img), fits, "a {len} B ring at {at}");
        }
    }
}

/// The canonical-decoder rule (ROADMAP item 4(a)'s decoder slice): a
/// truncated, extended or byte-mutated real image either decodes to a
/// socket that re-encodes to exactly the input, or is refused — never a
/// panic.
#[test]
fn mutated_images_decode_to_themselves_or_not_at_all() {
    let images: Vec<Vec<u8>> = scripted().iter().map(TcpSocket::checkpoint).collect();
    check(
        "mutated_images_decode_to_themselves_or_not_at_all",
        Config::default().cases(1024),
        |rng| {
            (
                rng.gen_range(0..images.len()),
                vec_of(rng, 0..4, |r| {
                    (r.gen::<u8>(), r.gen::<u16>(), r.gen::<u8>())
                }),
            )
        },
        |(which, edits)| {
            let mut img = images[which].clone();
            for (kind, at, byte) in edits {
                let at = at as usize % img.len().max(1);
                match kind % 3 {
                    0 => img.truncate(at),
                    1 => img.push(byte),
                    _ => img.get_mut(at).into_iter().for_each(|b| *b = byte),
                }
            }
            if let Some(s) = TcpSocket::from_checkpoint(SocketId(1), &cfg(), &img) {
                prop_assert_eq!(s.checkpoint(), img);
            }
            Ok(())
        },
    );
}

/// Bytes held past the receive ring's in-order mark stay out of the image:
/// it carries the in-order bytes only, decodes canonically, and the
/// restored socket holds no gap — the peer's retransmission refills it.
#[test]
fn held_bytes_stay_out_of_the_image() {
    let (mut c, mut s) = established();
    let data: Vec<u8> = (0..4380u32).map(|i| (i * 7) as u8).collect();
    assert_eq!(c.send(&data), Ok(4380));
    let segs: Vec<_> = std::iter::from_fn(|| c.poll_transmit(1_000_000)).collect();
    assert_eq!(segs.len(), 3, "three full segments");
    for (h, p) in [&segs[0], &segs[2]] {
        s.on_segment(h, p, 1_000_000);
    }
    assert_eq!(s.fc.asm.gaps(), 1, "the third segment is held");
    let in_order = segs[0].1.len();
    assert_eq!(s.recv_available(), in_order);

    let img = s.checkpoint();
    let restored = TcpSocket::from_checkpoint(SocketId(9), &cfg(), &img).unwrap();
    assert_eq!(restored.checkpoint(), img, "canonical");
    assert_eq!((restored.fc.asm.gaps(), restored.fc.asm.buffered()), (0, 0));
    assert_eq!(restored.recv_available(), in_order);
    assert_eq!(restored.fc.rcv_nxt, s.fc.rcv_nxt);
    let (a, b) = restored.fc.recv_buf.as_slices();
    assert_eq!([a, b].concat(), &data[..in_order]);
}
