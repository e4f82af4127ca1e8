//! The checkpoint codec's pins: golden V2 bytes captured before the
//! `TcbImage` struct was deleted, and the canonical-decoder rule on
//! crafted and mutated real images.

use super::*;
use crate::socket::tests::{cfg, established, pump};
use crate::types::SockOpt;
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
    s.retransmits = 4;
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

/// [`scripted`]'s images as the parent tree's `snapshot().encode()`
/// wrote them.
const BUSY: &str = concat!(
    "02040a00000250000a000001409c88130000e8030000a1130000e90300008913",
    "000089130000050400000000010000000000b40507070118000000485454502f",
    "312e3120323030204f4b0d0a0d0a68656c6c6f00000100000000001c00000047",
    "4554202f696e6465782e68746d6c20485454502f312e310d0a0d0a0000010000",
    "000000000001a11300000000000001404b4c0000000000000100000002000000",
    "010000000087d602410000000087d61241ae622a000000000057311500000000",
    "00010000000300000001c1cf6a00000000000001c2cf6a000000000001c3cf6a",
    "000000000001c4cf6a0000000000020000000000000002000000000000000400",
    "00000000000000",
);
const FIN_WAIT: &str = concat!(
    "02060a000001409c0a0000025000e803000088130000ea03000089130000ea03",
    "0000e9030000891300000000010000000000b405070701000000000000010000",
    "000000000000000000010000000000000101e90300000000000001808d5b0000",
    "000000000000000000000000010000000000000000000000000000000040420f",
    "000000000040420f000000000000000000000000000000000000030000000000",
    "00000200000000000000000000000000000000",
);
const CLOSE_WAIT: &str = concat!(
    "02090a00000250000a000001409c88130000e803000089130000e90300008913",
    "000089130000ea0300000000010000000000b405070701000000000000010000",
    "0000000000000000000100000000000100000000000000000000000001000000",
    "0000000000000000000000000040420f000000000040420f0000000000000000",
    "0000000000000000000002000000000000000200000000000000000000000000",
    "000000",
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
        CongestionAlgo::None,
        CongestionAlgo::Bbr,
        CongestionAlgo::Dctcp,
    ];
    for (code, algo) in (0..).zip(algos) {
        s.set_opt(SockOpt::CongestionAlgo(algo));
        *want.last_mut().unwrap() = code;
        assert_eq!(s.checkpoint(), want, "{algo:?}");
    }
}

/// Three kinds of image no socket writes, each of which the struct-based
/// decoder accepted and re-encoded differently.
#[test]
fn corrupt_images_are_refused() {
    let [busy, fin_wait, _] = scripted();
    let good = fin_wait.checkpoint();
    assert!(decodes(&good));
    // Trailing bytes after the algorithm byte.
    let mut trailing = good.clone();
    trailing.push(0);
    assert!(!decodes(&trailing));
    // A `fin_seq` of 2^32 or more: with both rings empty its option tag
    // sits at byte 81, its value at 82..90.
    let mut wide_fin = good;
    assert_eq!(wide_fin[81..86], [1, 0xe9, 0x03, 0, 0], "fin_seq 1001");
    wide_fin[86] = 1;
    assert!(!decodes(&wide_fin));
    // A ring longer than its capacity: each `u64` cap follows its ring.
    let img = busy.checkpoint();
    let (send, recv) = (&busy.rel.send_buf, &busy.fc.recv_buf);
    let send_cap = 59 + send.len();
    let recv_cap = send_cap + 8 + 4 + recv.len();
    for (at, len, cap) in [
        (send_cap, send.len(), send.room() + send.len()),
        (recv_cap, recv.len(), recv.window() + recv.len()),
    ] {
        assert_eq!(img[at..at + 8], (cap as u64).to_le_bytes());
        let mut small = img.clone();
        small[at..at + 8].copy_from_slice(&(len as u64 - 1).to_le_bytes());
        assert!(!decodes(&small));
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
