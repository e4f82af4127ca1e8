//! The record against the socket it replaces: the same TIME-WAIT
//! connection, once as a `TcpSocket` and once as its [`TimeWait`], driven
//! through the same segments and timer ticks, must show the outside world
//! the same thing.

use super::*;
use crate::buffer::{RecvBuffer, SendSpares};
use crate::socket::tests::{cfg, Net};
use crate::types::TcpConfig;
use neat_util::check::{check, vec_of, Config, TestResult};
use neat_util::prop_assert_eq;
use std::cell::Cell;

const MS: u64 = 1_000_000;
const CLIENT: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40_000);
const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 80);

/// How the twins' connection reached TIME-WAIT: the client's ISS, the
/// request and reply sizes, the receive-ring capacity the client is given
/// once there, and whether both ends close at once (through CLOSING).
type Setup = (u32, u16, u16, u8, bool);

/// One stimulus: `(kind, a, b)`. `kind % 32` below 20 is a segment from
/// the peer (its flags by kind, its sequence number by `a`, its ACK by
/// `b`), else a timer tick; bit 7 of `kind` holds the transmit poll back,
/// so segments can pile up before the stack speaks.
type Op = (u8, u16, u16);

/// The client's socket of a connection that `Net` (the digest's scripted
/// channel) has taken through its close handshake into TIME-WAIT and then
/// left at rest, and the time.
fn time_wait_socket((iss, req, reply, buf, both): Setup) -> (TcpSocket, u64) {
    let client = TcpSocket::connect(SocketId(1), &cfg(), CLIENT, SERVER, SeqNum(iss), 0);
    let mut n = Net::new(0, client, None, cfg());
    n.advance_to(MS);
    if req > 0 {
        n.user(0, |c| assert!(c.send(&vec![1; req as usize]).is_ok()));
    }
    n.advance_to(2 * MS);
    n.read_all(1);
    if reply > 0 {
        n.user(1, |s| assert!(s.send(&vec![2; reply as usize]).is_ok()));
    }
    n.advance_to(3 * MS);
    n.read_all(0);
    n.user(0, |c| c.close(3 * MS));
    if !both {
        n.advance_to(4 * MS);
    }
    n.user(1, |s| s.close(4 * MS));
    // Past every delayed ACK (E(4)), far from the TIME-WAIT deadline.
    n.advance_to(6 * MS);
    let mut sock = n.socks[0].take().expect("the client");
    assert_eq!(sock.state(), TcpState::TimeWait);
    // The window the record keeps: a fresh ring of this capacity stands
    // in for the drained one.
    assert!(sock.fc.recv_buf.is_empty() && sock.fc.asm.is_empty());
    let cap = [65_536, 4_096, 1_000, 0][usize::from(buf % 4)];
    sock.fc.recv_buf = RecvBuffer::new(cap);
    // What a stack does at the end of every stimulus: drained rings park.
    sock.park_send_ring(&mut SendSpares::with_room(0));
    sock.park_recv_ring(&mut Vec::new());
    (sock, n.now)
}

/// The peer's segment for `(kind, a, b)`, its sequence number near the
/// socket's receive window and its ACK near `snd_nxt`.
fn segment(sock: &TcpSocket, (kind, a, b): Op) -> (TcpHeader, Vec<u8>) {
    let (rcv, snd) = (sock.fc.rcv_nxt, sock.rel.snd_nxt);
    let wnd = sock.recv_window_bytes() as u32;
    let seq = match a % 8 {
        0 => rcv,
        1 => SeqNum(rcv.0.wrapping_sub(1)), // the peer's FIN, again
        2 => rcv + 1,
        3 => rcv + wnd.wrapping_sub(1),
        4 => rcv + wnd,
        5 => sock.cm.irs,
        6 => SeqNum(rcv.0.wrapping_sub(wnd)),
        _ => SeqNum(u32::from(a).wrapping_mul(0x9E37_79B9)),
    };
    let ack = match b % 6 {
        0 => snd,
        1 => SeqNum(snd.0.wrapping_sub(1)),
        2 => snd + 1,
        3 => SeqNum(snd.0.wrapping_sub(2)),
        _ => SeqNum(u32::from(b).wrapping_mul(0x85EB_CA6B)),
    };
    let ack_flag = TcpFlags::ack();
    let flags = match kind % 20 {
        0..=5 => ack_flag,
        6..=8 => TcpFlags::fin_ack(),
        9 => TcpFlags::rst(),
        10 => TcpFlags {
            rst: true,
            ..ack_flag
        },
        11 => TcpFlags::SYN,
        12 => TcpFlags::syn_ack(),
        13..=15 => TcpFlags::psh_ack(),
        _ => TcpFlags {
            fin: b % 2 == 0,
            psh: true,
            ..TcpFlags::default()
        },
    };
    let payload = match kind % 20 {
        13.. => vec![9; usize::from(b % 100) + 1],
        _ => Vec::new(),
    };
    let mut h = TcpHeader::new(SERVER.1, CLIENT.1, seq, ack, flags);
    // The window field: mostly the one the socket already has, as a
    // duplicate ACK must carry.
    if a % 3 != 0 {
        h.window = (sock.fc.snd_wnd >> sock.fc.snd_wscale) as u16;
    }
    (h, payload)
}

/// Run `f`, returning how far it moved the RTO and fast-retransmit
/// counters.
fn counting<R>(f: impl FnOnce() -> R) -> (R, [u64; 2]) {
    let names = ["tcp.rto_retransmits", "tcp.fast_retransmits"];
    let before = names.map(|n| neat_obs::counter(n).get());
    let r = f();
    let after = names.map(|n| neat_obs::counter(n).get());
    (r, [after[0] - before[0], after[1] - before[1]])
}

/// Every segment each twin has to send now.
fn drain(sock: &mut TcpSocket, tw: &mut TimeWait, now: u64) -> (Vec<TcpHeader>, Vec<TcpHeader>) {
    let from_sock = std::iter::from_fn(|| sock.poll_transmit(now)).map(|(h, p)| {
        assert!(p.is_empty(), "TIME-WAIT sends no data");
        h
    });
    let from_sock = from_sock.collect();
    (
        from_sock,
        std::iter::from_fn(|| tw.poll_segment()).collect(),
    )
}

/// Same state, same next deadline, and, drained, the same events.
fn agree(
    sock: &mut TcpSocket,
    tw: &TimeWait,
    event: Option<fn(SocketId) -> SockEvent>,
) -> TestResult {
    prop_assert_eq!(sock.state(), tw.state(), "state");
    prop_assert_eq!(sock.next_timeout(), tw.next_timeout(), "next deadline");
    let events = std::mem::take(&mut sock.events);
    prop_assert_eq!(events, Vec::from_iter(event.map(|e| e(sock.id))), "events");
    Ok(())
}

/// The twin test: a TIME-WAIT socket at rest and the record built from it
/// go through the same random segments — ACK, FIN, RST, SYN and data, in
/// and out of the window — and timer ticks, and after each they emit the
/// same headers, raise the same events, keep the same next deadline and
/// count the same RTOs and fast retransmits.
#[test]
fn a_record_answers_as_its_socket_would() {
    // Cases that ended closed; ACKs compared, and RSTs an owed ACK became.
    let seen = Cell::new([0; 3]);
    let count = |i: usize, n: usize| {
        let mut s = seen.get();
        s[i] += n;
        seen.set(s);
    };
    check(
        "a_record_answers_as_its_socket_would",
        Config::default().cases(1024),
        |rng| {
            let sizes = (rng.gen_range(0u16..3000), rng.gen_range(0u16..3000));
            let setup: Setup = (rng.gen(), sizes.0, sizes.1, rng.gen(), rng.gen());
            (
                setup,
                vec_of(rng, 1..40, |r| (r.gen::<u8>(), r.gen(), r.gen())),
            )
        },
        |(setup, ops): (Setup, Vec<Op>)| {
            let (mut sock, mut now) = time_wait_socket(setup);
            let mut tw = TimeWait::of(&sock).ok_or("the socket is not at rest")?;
            for op in ops {
                if op.0 % 32 >= 20 {
                    let next = sock.next_timeout().unwrap_or(now);
                    now = match op.1 % 16 {
                        0 => now.max(tw.deadline + u64::from(op.2)),
                        1..=5 => now.max(next),
                        _ => now + u64::from(op.2) * 1_000,
                    };
                    if next > now {
                        continue;
                    }
                    let ((), sock_counts) = counting(|| sock.on_timer(now));
                    let ((), tw_counts) = counting(|| tw.on_timer(now));
                    prop_assert_eq!(sock_counts, tw_counts, "counters on a tick");
                    agree(&mut sock, &tw, None)?;
                } else {
                    let (h, payload) = segment(&sock, op);
                    let ((), sock_counts) = counting(|| sock.on_segment(&h, &payload, now));
                    let (event, tw_counts) = counting(|| tw.on_segment(&h, payload.len()));
                    prop_assert_eq!(sock_counts, tw_counts, "counters on {h:?}");
                    agree(&mut sock, &tw, event)?;
                }
                if op.0 & 0x80 == 0 {
                    let (a, b) = drain(&mut sock, &mut tw, now);
                    prop_assert_eq!(&a, &b, "headers");
                    count(1, a.iter().filter(|h| !h.flags.rst).count());
                    count(2, a.iter().filter(|h| h.flags.rst).count());
                }
            }
            let (a, b) = drain(&mut sock, &mut tw, now);
            prop_assert_eq!(&a, &b, "headers at the end");
            count(0, (tw.state() == TcpState::Closed) as usize);
            Ok(())
        },
    );
    let [closed, acks, rsts] = seen.get();
    println!("cases ended closed {closed}; ACKs sent {acks}, RSTs {rsts}");
    assert!(
        [closed, acks, rsts].iter().all(|&n| n > 0),
        "an answer the property must see never came"
    );
}

/// The record's size is what retiring saves; it moves down only.
#[test]
fn a_record_is_40_bytes() {
    assert_eq!(std::mem::size_of::<TimeWait>(), 40);
    assert_eq!(RECORD_BYTES, 48);
}

/// A socket with a deadline besides TIME-WAIT's stays a full socket: here
/// keepalive's, which ESTABLISHED armed and nothing clears (E(3)).
#[test]
fn a_socket_with_another_deadline_does_not_retire() {
    let ka = TcpConfig {
        keepalive_ns: 1_000 * MS,
        ..cfg()
    };
    let client = TcpSocket::connect(SocketId(1), &ka, CLIENT, SERVER, SeqNum(1), 0);
    let mut n = Net::new(0, client, None, ka);
    n.advance_to(MS);
    n.user(0, |c| c.close(MS));
    n.advance_to(2 * MS);
    n.user(1, |s| s.close(2 * MS));
    n.advance_to(3 * MS);
    let sock = n.socks[0].take().unwrap();
    assert_eq!(sock.state(), TcpState::TimeWait);
    assert!(sock.cm.keepalive_deadline.is_some());
    assert_eq!(TimeWait::of(&sock), None);
}
