//! Socket-level integration tests: two [`TcpSocket`]s wired back-to-back
//! through real segment emit/parse, exercising the full component
//! coordination (handshake, transfer, teardown, loss recovery).

use super::*;
use crate::types::CongestionAlgo;

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
    assert!(c.retransmits >= 1);
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
    let mut config = cfg();
    config.recv_buf = 2048; // tiny receive buffer
    let now = 0;
    let mut c = client(now);
    let (syn, _) = c.poll_transmit(now).unwrap();
    let mut s = TcpSocket::accept_from_syn(
        SocketId(2),
        &config,
        (SERVER_IP, 80),
        (CLIENT_IP, 40000),
        &syn,
        SeqNum(9_000),
        now,
    );
    pump(&mut c, &mut s, now);
    // Fill the server's receive buffer without the app reading.
    let data = vec![3u8; 8192];
    let mut pushed = 0;
    while pushed < data.len() {
        match c.send(&data[pushed..]) {
            Ok(n) => pushed += n,
            Err(_) => break,
        }
        pump(&mut c, &mut s, now);
    }
    assert!(s.recv_available() <= 2048);
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
    let mut config = cfg();
    config.max_retries = 3;
    let now = 0;
    let mut c = TcpSocket::connect(
        SocketId(1),
        &config,
        (CLIENT_IP, 40000),
        (SERVER_IP, 80),
        SeqNum(100),
        now,
    );
    let _ = c.poll_transmit(now); // SYN into the void
    for _ in 0..10 {
        match c.next_timeout() {
            Some(d) => {
                let t = d;
                c.on_timer(t);
                let _ = c.poll_transmit(t);
            }
            None => break,
        }
        if c.state() == TcpState::Closed {
            break;
        }
    }
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
fn sock_opt_selects_controller_and_resizes_buffers() {
    let (mut c, _s) = established();
    assert_eq!(c.cc.algo(), CongestionAlgo::Reno, "stack default");
    c.set_opt(SockOpt::CongestionAlgo(CongestionAlgo::Bbr));
    assert_eq!(c.cc.algo(), CongestionAlgo::Bbr);
    assert_eq!(
        c.get_opt(SockOptKind::CongestionAlgo),
        Some(SockOpt::CongestionAlgo(CongestionAlgo::Bbr))
    );
    c.set_opt(SockOpt::InitialCwnd(20));
    let mss = c.mss as usize;
    assert_eq!(
        c.get_opt(SockOptKind::InitialCwnd),
        Some(SockOpt::InitialCwnd(20))
    );
    assert_eq!(c.cc.cwnd(), 20 * mss);
    c.set_opt(SockOpt::RecvBuf(4096));
    assert_eq!(
        c.get_opt(SockOptKind::RecvBuf),
        Some(SockOpt::RecvBuf(4096))
    );
    assert_eq!(c.fc.recv_buf.window(), 4096);
    // Re-selecting the same algorithm must not reset controller state.
    c.set_opt(SockOpt::InitialCwnd(33));
    c.set_opt(SockOpt::CongestionAlgo(CongestionAlgo::Bbr));
    assert_eq!(c.cc.cwnd(), 33 * mss);
}

#[test]
fn checkpoint_preserves_selected_algorithm() {
    let (mut c, _s) = established();
    c.set_opt(SockOpt::CongestionAlgo(CongestionAlgo::Dctcp));
    let img = c.checkpoint();
    assert_eq!(img.last(), Some(&4), "the algorithm is the last byte");
    let r = TcpSocket::from_checkpoint(SocketId(99), &cfg(), &img).unwrap();
    assert_eq!(r.cc.algo(), CongestionAlgo::Dctcp);
    assert_eq!(r.checkpoint(), img, "checkpoint → restore is identity");
}
