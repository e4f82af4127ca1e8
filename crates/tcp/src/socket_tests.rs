//! Socket-level integration tests: two [`TcpSocket`]s wired back-to-back
//! through real segment emit/parse, exercising the full component
//! coordination (handshake, transfer, teardown, loss recovery).

use super::*;
use crate::types::{MAX_RETRIES, RECV_BUF};

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

impl TcpSocket {
    /// The footprint the stack's budget currently holds for this socket
    /// (what `TcpStack::check_consistent` sums).
    pub(crate) fn accounted(&self) -> usize {
        self.accounted
    }
}

pub(crate) fn cfg() -> TcpConfig {
    TcpConfig {
        initial_rto_ns: 50_000_000,
        ..TcpConfig::default()
    }
}

fn client(now: u64) -> TcpSocket {
    TcpSocket::connect(
        SocketId(1),
        &cfg(),
        (CLIENT_IP, 40000),
        (SERVER_IP, 80),
        SeqNum(1_000),
        now,
    )
}

/// Shuttle segments between two sockets until both are quiescent.
/// Returns the number of segments exchanged.
pub(crate) fn pump(a: &mut TcpSocket, b: &mut TcpSocket, now: u64) -> usize {
    let mut n = 0;
    loop {
        let mut progressed = false;
        while let Some((h, payload)) = a.poll_transmit(now) {
            // Real emit+parse so checksums and options are exercised.
            let bytes = h.emit(&payload, a.local_ip, b.local_ip);
            let (g, range) = TcpHeader::parse(&bytes, a.local_ip, b.local_ip).unwrap();
            b.on_segment(&g, &bytes[range], now);
            n += 1;
            progressed = true;
        }
        while let Some((h, payload)) = b.poll_transmit(now) {
            let bytes = h.emit(&payload, b.local_ip, a.local_ip);
            let (g, range) = TcpHeader::parse(&bytes, b.local_ip, a.local_ip).unwrap();
            a.on_segment(&g, &bytes[range], now);
            n += 1;
            progressed = true;
        }
        if !progressed {
            return n;
        }
    }
}

/// Build an established client/server pair via a real 3-way handshake.
pub(crate) fn established() -> (TcpSocket, TcpSocket) {
    let now = 0;
    let mut c = client(now);
    let (syn, _) = c.poll_transmit(now).expect("SYN");
    assert!(syn.flags.syn && !syn.flags.ack);
    let mut s = TcpSocket::accept_from_syn(
        SocketId(2),
        &cfg(),
        (SERVER_IP, 80),
        (CLIENT_IP, 40000),
        &syn,
        SeqNum(5_000),
        now,
    );
    pump(&mut c, &mut s, now);
    assert_eq!(c.state(), TcpState::Established);
    assert_eq!(s.state(), TcpState::Established);
    assert!(c
        .events
        .iter()
        .any(|e| matches!(e, SockEvent::Connected(_))));
    assert!(s
        .events
        .iter()
        .any(|e| matches!(e, SockEvent::Connected(_))));
    c.events.clear();
    s.events.clear();
    (c, s)
}

#[test]
fn three_way_handshake() {
    let (c, s) = established();
    assert_eq!(c.mss, 1460);
    assert_eq!(s.mss, 1460);
    assert_eq!(c.bytes_in_flight(), 0);
    assert_eq!(s.bytes_in_flight(), 0);
}

#[test]
fn data_transfer_both_directions() {
    let (mut c, mut s) = established();
    c.send(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    pump(&mut c, &mut s, 1_000_000);
    let mut buf = [0u8; 64];
    let n = s.recv(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"GET / HTTP/1.1\r\n\r\n");
    s.send(b"HTTP/1.1 200 OK\r\n\r\nhi").unwrap();
    pump(&mut c, &mut s, 2_000_000);
    let n = c.recv(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"HTTP/1.1 200 OK\r\n\r\nhi");
}

#[test]
fn large_transfer_respects_mss_and_window() {
    let (mut c, mut s) = established();
    let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    let mut sent = 0;
    let mut received = Vec::new();
    let mut now = 0u64;
    while received.len() < data.len() {
        now += 1_000_000;
        if sent < data.len() {
            if let Ok(n) = c.send(&data[sent..]) {
                sent += n;
            }
        }
        // Drive timers for delayed ACKs.
        c.on_timer(now);
        s.on_timer(now);
        pump(&mut c, &mut s, now);
        let mut buf = [0u8; 4096];
        while let Ok(n) = s.recv(&mut buf) {
            if n == 0 {
                break;
            }
            received.extend_from_slice(&buf[..n]);
        }
        assert!(now < 10_000_000_000, "transfer did not complete");
    }
    assert_eq!(received, data);
}

#[test]
fn graceful_close_four_way() {
    let (mut c, mut s) = established();
    let now = 5_000_000;
    c.close(now);
    assert_eq!(c.state(), TcpState::FinWait1);
    pump(&mut c, &mut s, now);
    assert_eq!(s.state(), TcpState::CloseWait);
    assert!(s
        .events
        .iter()
        .any(|e| matches!(e, SockEvent::PeerClosed(_))));
    s.close(now);
    pump(&mut c, &mut s, now);
    assert_eq!(c.state(), TcpState::TimeWait);
    assert_eq!(s.state(), TcpState::Closed);
    // TIME_WAIT expires.
    c.on_timer(now + 10_000_000_001);
    assert_eq!(c.state(), TcpState::Closed);
}

#[test]
fn active_close_reports_closed_once_through_time_wait_expiry() {
    let (mut c, mut s) = established();
    let now = 5_000_000;
    c.close(now);
    pump(&mut c, &mut s, now);
    s.close(now);
    pump(&mut c, &mut s, now);
    assert_eq!(c.state(), TcpState::TimeWait);
    let expiry = c.next_timeout().expect("TIME-WAIT armed");
    c.on_timer(expiry);
    assert_eq!(c.state(), TcpState::Closed);
    let closed = |s: &TcpSocket| {
        s.events
            .iter()
            .filter(|e| matches!(e, SockEvent::Closed(_)))
            .count()
    };
    assert_eq!(closed(&c), 1, "active closer: {:?}", c.events);
    assert_eq!(closed(&s), 1, "passive closer: {:?}", s.events);
}

#[test]
fn simultaneous_close() {
    let (mut c, mut s) = established();
    let now = 5_000_000;
    c.close(now);
    s.close(now);
    // Both FINs cross. Exchange everything.
    pump(&mut c, &mut s, now);
    // Both should end in TIME_WAIT (simultaneous close -> CLOSING ->
    // TIME_WAIT on both sides).
    assert_eq!(c.state(), TcpState::TimeWait);
    assert_eq!(s.state(), TcpState::TimeWait);
}

#[test]
fn retransmission_on_loss() {
    let (mut c, mut s) = established();
    c.send(b"important data").unwrap();
    // Drop the data segment (do not deliver).
    let (h, payload) = c.poll_transmit(0).expect("data segment");
    assert!(!payload.is_empty());
    let _ = h;
    assert!(c.poll_transmit(0).is_none());
    // RTO fires.
    let rto_at = c.next_timeout().expect("rtx armed");
    c.on_timer(rto_at);
    pump(&mut c, &mut s, rto_at);
    let mut buf = [0u8; 64];
    let n = s.recv(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"important data");
}

#[test]
fn fast_retransmit_on_dup_acks() {
    let (mut c, mut s) = established();
    // Send 5 MSS of data; drop the first segment, deliver the rest.
    let data = vec![7u8; 5 * 1460];
    c.send(&data).unwrap();
    let now = 1_000_000;
    let mut segs = Vec::new();
    while let Some((h, p)) = c.poll_transmit(now) {
        segs.push((h, p));
    }
    assert!(
        segs.len() >= 3,
        "initial cwnd allows >=3 segments, got {}",
        segs.len()
    );
    // Deliver all but the first; each generates a dup ACK.
    for (h, p) in segs.iter().skip(1) {
        let bytes = h.emit(p, CLIENT_IP, SERVER_IP);
        let (g, r) = TcpHeader::parse(&bytes, CLIENT_IP, SERVER_IP).unwrap();
        s.on_segment(&g, &bytes[r], now);
    }
    // Collect the server's ACKs (all for the missing first segment).
    let mut acks = Vec::new();
    while let Some((h, p)) = s.poll_transmit(now) {
        acks.push((h, p));
    }
    for (h, p) in &acks {
        let bytes = h.emit(p, SERVER_IP, CLIENT_IP);
        let (g, r) = TcpHeader::parse(&bytes, SERVER_IP, CLIENT_IP).unwrap();
        c.on_segment(&g, &bytes[r], now);
    }
    if c.rel.dup_acks >= 3 {
        // Fast retransmit kicks in without waiting for the RTO.
        let (h, p) = c.poll_transmit(now).expect("fast retransmit");
        assert_eq!(h.seq, c.snd_una());
        assert!(!p.is_empty());
    } else {
        // Fewer than 3 dupacks (small initial cwnd): RTO still recovers.
        let rto_at = c.next_timeout().unwrap();
        c.on_timer(rto_at);
        assert!(c.poll_transmit(rto_at).is_some());
    }
}

#[test]
fn zero_window_blocks_sender() {
    let now = 0;
    let mut c = client(now);
    let (syn, _) = c.poll_transmit(now).unwrap();
    let mut s = TcpSocket::accept_from_syn(
        SocketId(2),
        &cfg(),
        (SERVER_IP, 80),
        (CLIENT_IP, 40000),
        &syn,
        SeqNum(9_000),
        now,
    );
    pump(&mut c, &mut s, now);
    // Fill the server's receive buffer without the app reading.
    let data = vec![3u8; 2 * RECV_BUF];
    let mut pushed = 0;
    while pushed < data.len() {
        match c.send(&data[pushed..]) {
            Ok(n) => pushed += n,
            Err(_) => break,
        }
        pump(&mut c, &mut s, now);
    }
    // Less room than one unit of our window scale: it advertises zero.
    let room = RECV_BUF - s.recv_available();
    assert!(room < 1 << OUR_WSCALE, "{room} B of window left");
    assert!(
        c.bytes_in_flight() == 0 || !c.rel.send_buf.is_empty(),
        "sender must hold back data beyond the advertised window"
    );
    // Application reads, window reopens, transfer resumes.
    let mut total = 0;
    let mut buf = [0u8; 1024];
    let mut now = now;
    for _ in 0..200 {
        now += 2_000_000;
        while let Ok(n) = s.recv(&mut buf) {
            if n == 0 {
                break;
            }
            total += n;
        }
        c.on_timer(now);
        s.on_timer(now);
        pump(&mut c, &mut s, now);
        if total >= pushed {
            break;
        }
    }
    assert_eq!(total, pushed, "all accepted bytes eventually delivered");
}

#[test]
fn rst_aborts_connection() {
    let (mut c, mut s) = established();
    c.abort();
    assert_eq!(c.state(), TcpState::Closed);
    let (h, p) = c.poll_transmit(0).expect("RST emitted");
    assert!(h.flags.rst);
    let bytes = h.emit(&p, CLIENT_IP, SERVER_IP);
    let (g, r) = TcpHeader::parse(&bytes, CLIENT_IP, SERVER_IP).unwrap();
    s.on_segment(&g, &bytes[r], 0);
    assert_eq!(s.state(), TcpState::Closed);
    assert!(s.events.iter().any(|e| matches!(e, SockEvent::Aborted(_))));
    assert_eq!(s.error, Some(TcpError::Reset));
}

#[test]
fn retry_limit_times_out() {
    let now = 0;
    let mut c = client(now);
    let _ = c.poll_transmit(now); // SYN into the void
    let mut resent = 0;
    while let Some(t) = c.next_timeout() {
        c.on_timer(t);
        resent += std::iter::from_fn(|| c.poll_transmit(t)).count();
    }
    assert_eq!(resent, MAX_RETRIES as usize, "the SYN, sent again");
    assert_eq!(c.state(), TcpState::Closed);
    assert_eq!(c.error, Some(TcpError::TimedOut));
}

#[test]
fn eof_semantics_after_peer_close() {
    let (mut c, mut s) = established();
    c.send(b"last words").unwrap();
    c.close(0);
    pump(&mut c, &mut s, 0);
    let mut buf = [0u8; 64];
    let n = s.recv(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"last words");
    // Next read returns 0 (EOF), not WouldBlock.
    assert_eq!(s.recv(&mut buf).unwrap(), 0);
    assert!(s.at_eof());
}

#[test]
fn delayed_ack_single_segment() {
    let (mut c, mut s) = established();
    c.send(b"ping").unwrap();
    let now = 1_000_000;
    let (h, p) = c.poll_transmit(now).unwrap();
    let bytes = h.emit(&p, CLIENT_IP, SERVER_IP);
    let (g, r) = TcpHeader::parse(&bytes, CLIENT_IP, SERVER_IP).unwrap();
    s.on_segment(&g, &bytes[r], now);
    // One segment: ACK should be delayed, not immediate.
    assert!(
        s.poll_transmit(now).is_none(),
        "single segment should not trigger an immediate ACK"
    );
    let deadline = s.next_timeout().expect("delayed-ack timer armed");
    s.on_timer(deadline);
    let (ack, _) = s.poll_transmit(deadline).expect("delayed ACK fires");
    assert!(ack.flags.ack && !ack.flags.syn);
}

#[test]
fn nagle_coalesces_small_writes() {
    let (mut c, mut s) = established();
    let now = 0;
    c.send(b"a").unwrap();
    let first = c.poll_transmit(now);
    assert!(first.is_some(), "first small write goes out immediately");
    // More small writes while the first byte is unacked: held back.
    c.send(b"b").unwrap();
    c.send(b"c").unwrap();
    assert!(
        c.poll_transmit(now).is_none(),
        "Nagle must hold small segments while data is in flight"
    );
    // Deliver + ACK the first segment; the rest coalesce into one.
    let (h, p) = first.unwrap();
    let bytes = h.emit(&p, CLIENT_IP, SERVER_IP);
    let (g, r) = TcpHeader::parse(&bytes, CLIENT_IP, SERVER_IP).unwrap();
    s.on_segment(&g, &bytes[r], now);
    // Fire the server's delayed-ACK timer so the ACK releases Nagle.
    let ack_at = s.next_timeout().expect("delayed ack armed");
    s.on_timer(ack_at);
    pump(&mut c, &mut s, ack_at);
    let mut buf = [0u8; 8];
    let mut got = Vec::new();
    while let Ok(n) = s.recv(&mut buf) {
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(got, b"abc");
}

#[test]
fn out_of_order_delivery_reassembles() {
    let (mut c, mut s) = established();
    let now = 0;
    let data = vec![9u8; 3 * 1460];
    c.send(&data).unwrap();
    let mut segs = Vec::new();
    while let Some(seg) = c.poll_transmit(now) {
        segs.push(seg);
    }
    assert!(segs.len() >= 2);
    // Deliver in reverse order.
    for (h, p) in segs.iter().rev() {
        let bytes = h.emit(p, CLIENT_IP, SERVER_IP);
        let (g, r) = TcpHeader::parse(&bytes, CLIENT_IP, SERVER_IP).unwrap();
        s.on_segment(&g, &bytes[r], now);
    }
    let mut buf = vec![0u8; 8192];
    let mut got = Vec::new();
    while let Ok(n) = s.recv(&mut buf) {
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(got.len(), segs.iter().map(|(_, p)| p.len()).sum::<usize>());
    assert!(got.iter().all(|&b| b == 9));
}

#[test]
fn duplicate_segments_ignored() {
    let (mut c, mut s) = established();
    let now = 0;
    c.send(b"once only").unwrap();
    let (h, p) = c.poll_transmit(now).unwrap();
    let bytes = h.emit(&p, CLIENT_IP, SERVER_IP);
    let (g, r) = TcpHeader::parse(&bytes, CLIENT_IP, SERVER_IP).unwrap();
    s.on_segment(&g, &bytes[r.clone()], now);
    s.on_segment(&g, &bytes[r.clone()], now); // duplicate
    s.on_segment(&g, &bytes[r], now); // triplicate
    let mut buf = [0u8; 64];
    let n = s.recv(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"once only");
    assert_eq!(s.recv(&mut buf), Err(TcpError::WouldBlock));
}

#[test]
fn set_congestion_selects_controller() {
    let (mut c, _s) = established();
    assert_eq!(c.cc.algo(), CongestionAlgo::Reno, "stack default");
    c.set_congestion(CongestionAlgo::Bbr);
    assert_eq!(c.cc.algo(), CongestionAlgo::Bbr);
    // Re-selecting the same algorithm must not reset controller state.
    let mss = c.mss as usize;
    c.cc.on_rto(0);
    assert_eq!(c.cc.cwnd(), mss, "collapsed");
    c.set_congestion(CongestionAlgo::Bbr);
    assert_eq!(c.cc.cwnd(), mss);
    // A switch starts the new controller afresh.
    c.set_congestion(CongestionAlgo::Dctcp);
    assert_eq!(c.cc.algo(), CongestionAlgo::Dctcp);
    assert!(c.cc.cwnd() > mss);
}

#[test]
fn checkpoint_preserves_selected_algorithm() {
    let (mut c, _s) = established();
    c.set_congestion(CongestionAlgo::Dctcp);
    let img = c.checkpoint();
    assert_eq!(img.last(), Some(&3), "the algorithm is the last byte");
    let r = TcpSocket::from_checkpoint(SocketId(99), &cfg(), &img).unwrap();
    assert_eq!(r.cc.algo(), CongestionAlgo::Dctcp);
    assert_eq!(r.checkpoint(), img, "checkpoint → restore is identity");
}

/// One-way latency of the digest's scripted channel.
const LAT: u64 = 100_000;

/// Two sockets over a scripted channel, folding everything either side
/// shows the outside world into one FNV-1a digest: every emitted header,
/// both sockets' `next_timeout()` after each stimulus, and every
/// `SockEvent`. Segments are numbered in send order across both sides;
/// those named in `lose` vanish, those in `late` take three latencies, so
/// the segments sent after them overtake them.
///
/// It checks ROADMAP E(a)'s invariant I2 on every segment it carries: no
/// data or FIN segment lies wholly at or below the highest ACK its sender
/// has accepted, that is, nothing acknowledged is sent again. A keepalive
/// probe, the one segment allowed below that ACK, is a bare ACK here and
/// so outside the check.
pub(crate) struct Net {
    pub(crate) socks: [Option<TcpSocket>; 2],
    /// While side 1 has no socket, the first SYN to reach it is accepted
    /// with this config.
    listen: TcpConfig,
    /// In flight: (arrival, receiving side, header, payload).
    flight: Vec<(u64, usize, TcpHeader, Vec<u8>)>,
    sent: u32,
    lose: &'static [u32],
    late: &'static [u32],
    /// The highest ACK each side has accepted: I2's bound, kept apart
    /// from `snd_una`, which could lag it.
    acked: [Option<SeqNum>; 2],
    pub(crate) now: u64,
    h: u64,
}

/// Whether `s` accepts the ACK field of `h` (with `len` payload bytes) as
/// acknowledging something new past `acked`: on a segment it finds
/// acceptable, `acked < SEG.ACK ≤ SND.NXT` (RFC 9293 §3.10.7.4).
fn accepts_ack(s: &TcpSocket, h: &TcpHeader, len: usize, acked: Option<SeqNum>) -> bool {
    let acceptable = match s.state() {
        TcpState::Closed => false,
        TcpState::SynSent => h.flags.syn && h.ack == s.cm.iss + 1,
        _ => s.seq_acceptable(h, h.seq_len(len)),
    };
    acceptable
        && h.flags.ack
        && !h.flags.rst
        && h.ack - s.rel.snd_nxt <= 0
        && acked.is_none_or(|a| h.ack - a > 0)
}

impl Net {
    /// `a` on side 0; side 1 listens with `listen` when `b` is `None`.
    pub(crate) fn new(h: u64, a: TcpSocket, b: Option<TcpSocket>, listen: TcpConfig) -> Net {
        let mut net = Net {
            socks: [Some(a), b],
            listen,
            flight: Vec::new(),
            sent: 0,
            lose: &[],
            late: &[],
            acked: [None; 2],
            now: 0,
            h,
        };
        net.settle();
        net
    }

    fn sock(&mut self, side: usize) -> &mut TcpSocket {
        self.socks[side].as_mut().expect("side has a socket")
    }

    fn fold(&mut self, words: &[u64]) {
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.h = (self.h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Drain both sides' segments onto the channel, then fold both
    /// deadlines and every queued event.
    fn settle(&mut self) {
        for side in 0..2 {
            while let Some((h, p)) = self.socks[side]
                .as_mut()
                .and_then(|s| s.poll_transmit(self.now))
            {
                let f = h.flags;
                let flags = [f.fin, f.syn, f.rst, f.psh, f.ack, f.urg]
                    .iter()
                    .enumerate()
                    .fold(0u64, |bits, (i, &on)| bits | (on as u64) << i);
                self.fold(&[
                    side as u64,
                    h.seq.0 as u64,
                    h.ack.0 as u64,
                    flags,
                    h.window as u64,
                    p.len() as u64,
                    h.mss.map_or(0, |m| m as u64 + 1),
                    h.window_scale.map_or(0, |w| w as u64 + 1),
                ]);
                let end = h.seq + (p.len() + usize::from(f.fin)) as u32;
                if let Some(acked) = self.acked[side].filter(|_| end != h.seq) {
                    assert!(
                        end - acked > 0,
                        "I2: side {side} resent {h:?} below {acked:?}"
                    );
                }
                let n = self.sent;
                self.sent += 1;
                if !self.lose.contains(&n) {
                    let lat = if self.late.contains(&n) { 3 * LAT } else { LAT };
                    self.flight.push((self.now + lat, 1 - side, h, p));
                }
            }
        }
        for side in 0..2 {
            let d = self.socks[side].as_ref().and_then(|s| s.next_timeout());
            self.fold(&[d.unwrap_or(u64::MAX)]);
            let events = self.socks[side]
                .as_mut()
                .map(|s| std::mem::take(&mut s.events))
                .unwrap_or_default();
            for e in events {
                let kind = match e {
                    SockEvent::Connected(_) => 1,
                    SockEvent::Acceptable(_) => 2,
                    SockEvent::Readable(_) => 3,
                    SockEvent::Writable(_) => 4,
                    SockEvent::PeerClosed(_) => 5,
                    SockEvent::Closed(_) => 6,
                    SockEvent::Aborted(_) => 7,
                };
                self.fold(&[side as u64, kind, e.socket().0]);
            }
        }
    }

    /// Deliver every arrival and fire every deadline up to `t`, in time
    /// order, settling after each stimulus.
    pub(crate) fn advance_to(&mut self, t: u64) {
        for _ in 0..100_000 {
            let arrival = self.flight.iter().map(|f| f.0).min();
            let timers = self.socks.iter().flatten().filter_map(|s| s.next_timeout());
            let Some(next) = arrival.into_iter().chain(timers).min().filter(|&n| n <= t) else {
                self.now = t;
                return;
            };
            self.now = next;
            if let Some(i) = self.flight.iter().position(|f| f.0 == next) {
                let (_, to, h, p) = self.flight.remove(i);
                match self.socks[to].as_mut() {
                    Some(s) => {
                        if accepts_ack(s, &h, p.len(), self.acked[to]) {
                            self.acked[to] = Some(h.ack);
                        }
                        s.on_segment(&h, &p, next);
                    }
                    None if h.flags.syn && !h.flags.ack => {
                        self.socks[1] = Some(TcpSocket::accept_from_syn(
                            SocketId(2),
                            &self.listen,
                            (SERVER_IP, 80),
                            (CLIENT_IP, 40000),
                            &h,
                            SeqNum(5_000),
                            next,
                        ));
                    }
                    None => {}
                }
            } else {
                for s in self.socks.iter_mut().flatten() {
                    if s.next_timeout().is_some_and(|d| d <= next) {
                        s.on_timer(next);
                    }
                }
            }
            self.settle();
        }
        panic!("no quiescence by {t}: a deadline that never moves");
    }

    /// A user call on one side at the current instant.
    pub(crate) fn user(&mut self, side: usize, op: impl FnOnce(&mut TcpSocket)) {
        op(self.sock(side));
        self.settle();
    }

    pub(crate) fn read_all(&mut self, side: usize) {
        let mut buf = [0u8; 4096];
        self.user(side, |s| while matches!(s.recv(&mut buf), Ok(1..)) {});
    }
}

#[test]
fn tcp_history_digest_is_pinned() {
    // TCP's code may be rearranged; what the sockets show may not. Five
    // scripted connections fold into one digest (see `Net`).
    const MS: u64 = 1_000_000;
    let h = 0xcbf2_9ce4_8422_2325;

    // Active and passive open; delayed ACK and Nagle on small writes; a
    // lost data segment, the first of the reply's second flight, recovered
    // by fast retransmit; one segment late;
    // the active side closes first, the passive side answers with data
    // and its FIN, so the TIME-WAIT ACK goes out with a delayed ACK owed;
    // TIME-WAIT expires.
    let mut n = Net::new(h, client(0), None, cfg());
    n.lose = &[6, 14];
    n.late = &[19];
    n.advance_to(MS);
    for _ in 0..3 {
        n.user(0, |c| assert_eq!(c.send(b"0123456789"), Ok(10)));
    }
    n.advance_to(3 * MS);
    n.read_all(1);
    n.user(1, |s| assert_eq!(s.send(&[7u8; 8 * 1460]), Ok(8 * 1460)));
    n.advance_to(20 * MS);
    n.read_all(0);
    n.user(0, |c| c.close(20 * MS));
    n.advance_to(22 * MS);
    n.user(1, |s| assert_eq!(s.send(b"bye"), Ok(3)));
    n.user(1, |s| s.close(22 * MS));
    n.advance_to(12_000 * MS);
    assert_eq!(n.sock(0).state(), TcpState::Closed);
    assert_eq!(n.sock(1).state(), TcpState::Closed);

    // Zero-window probing: the receiver's 64 KB buffer fills while its
    // application does not read and 16 KB more wait at the sender; each
    // read reopens the window.
    let mut n = Net::new(n.h, client(0), None, cfg());
    n.advance_to(MS);
    n.user(0, |c| assert_eq!(c.send(&[3u8; RECV_BUF]), Ok(RECV_BUF)));
    n.advance_to(10 * MS);
    n.user(0, |c| assert_eq!(c.send(&[4u8; 16_384]), Ok(16_384)));
    n.advance_to(30 * MS);
    assert_eq!(n.sock(1).recv_window_bytes(), 0, "the window is shut");
    assert!(n.sock(0).fc.probe_deadline.is_some(), "the sender probes");
    for t in 1..=40 {
        n.read_all(1);
        n.advance_to((30 + 5 * t) * MS);
    }
    assert_eq!(n.sock(0).bytes_in_flight(), 0);
    assert!(n.sock(0).rel.send_buf.is_empty());

    // The passive side closes first and its FIN is lost; data reaches it
    // just before the RTO, so the FIN is resent with a delayed ACK owed.
    let mut n = Net::new(n.h, client(0), None, cfg());
    n.lose = &[3];
    n.advance_to(MS);
    n.user(1, |s| s.close(MS));
    let rto = n.sock(1).next_timeout().expect("FIN retransmit armed");
    n.advance_to(rto - LAT - 200_000);
    n.user(0, |c| assert_eq!(c.send(b"late"), Ok(4)));
    n.advance_to(rto + 5 * MS);
    n.read_all(1);
    n.user(0, |c| c.close(rto + 5 * MS));
    n.advance_to(12_000 * MS);
    assert_eq!(n.sock(0).state(), TcpState::Closed);
    assert_eq!(n.sock(1).state(), TcpState::Closed);

    // Simultaneous open: both SYNs cross. Neither side completes (each
    // SYN-ACK fails the SYN-RECEIVED acceptability test), so this is also
    // RTO backoff, past the 60 s ceiling, up to the abort.
    let b = TcpSocket::connect(
        SocketId(2),
        &cfg(),
        (SERVER_IP, 80),
        (CLIENT_IP, 40000),
        SeqNum(5_000),
        0,
    );
    let a = TcpSocket::connect(
        SocketId(1),
        &cfg(),
        (CLIENT_IP, 40000),
        (SERVER_IP, 80),
        SeqNum(1_000),
        0,
    );
    let mut n = Net::new(n.h, a, Some(b), cfg());
    n.advance_to(300_000 * MS);
    assert_eq!(n.sock(0).error, Some(TcpError::TimedOut));
    assert_eq!(n.sock(1).error, Some(TcpError::TimedOut));

    // Keepalive probes on an idle connection, then an abort: RST.
    let ka = TcpConfig {
        keepalive_ns: 2 * MS,
        ..cfg()
    };
    let a = TcpSocket::connect(
        SocketId(1),
        &ka,
        (CLIENT_IP, 40000),
        (SERVER_IP, 80),
        SeqNum(1_000),
        0,
    );
    let mut n = Net::new(n.h, a, None, ka);
    n.advance_to(7 * MS);
    n.user(0, |c| c.abort());
    n.advance_to(10 * MS);
    assert_eq!(n.sock(1).state(), TcpState::Closed);

    assert_eq!(n.h, 0x2218_cda6_90ce_8aa0, "TCP history changed");
}
