//! The byte path's allocation ratchet (ROADMAP item 2): one 100 000 B
//! reply from `SockServer::handle_app(ConnSend)` through `poll_wire` →
//! `FrameIo::send_ip` → `Nic::host_tx` (TSO) → the client's `FrameIo` and
//! `TcpStack` → `recv`, with the client's ACKs going back the same way,
//! counted by an allocator that sees this thread only.
//!
//! The pins are upper bounds and move down only, like
//! `stack::tests::socket_size_is_pinned`: a change that allocates less
//! lowers them in the same PR; one that allocates more has to say why.

use neat::config::NeatConfig;
use neat::msg::Msg;
use neat::netcode::{FrameIo, RxClass};
use neat::sock_server::SockServer;
use neat_net::ipv4::IpProtocol;
use neat_net::{MacAddr, TcpHeader};
use neat_nic::{FaultInjector, Nic, NicConfig};
use neat_sim::ProcId;
use neat_tcp::{TcpConfig, TcpStack};
use std::cell::Cell;
use std::net::Ipv4Addr;

#[path = "counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::COUNTS;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 100);
const APP: ProcId = ProcId(7);
const ME: ProcId = ProcId(1);
const REPLY: usize = 100_000;

struct Path {
    srv: SockServer,
    srv_io: FrameIo,
    nic: Nic,
    client: TcpStack,
    client_io: FrameIo,
    now: u64,
}

impl Path {
    fn new() -> Path {
        let (srv_mac, client_mac) = (MacAddr::local(1), MacAddr::local(2));
        let mut srv_io = FrameIo::new(SERVER_IP, srv_mac);
        srv_io.seed_arp(CLIENT_IP, client_mac);
        let mut client_io = FrameIo::new(CLIENT_IP, client_mac);
        client_io.seed_arp(SERVER_IP, srv_mac);
        Path {
            srv: SockServer::new(SERVER_IP, NeatConfig::single(1).tcp),
            srv_io,
            nic: Nic::new(NicConfig::default(), FaultInjector::disabled(1)),
            client: TcpStack::new(CLIENT_IP, TcpConfig::default()),
            client_io,
            now: 0,
        }
    }

    /// One round: everything the server owes goes out through the NIC to
    /// the client, everything the client owes comes back. Returns whether
    /// a frame moved.
    fn round(&mut self) -> bool {
        let now = self.now;
        self.srv.process_events(ME);
        for (dst, seg) in self.srv.poll_wire(now) {
            self.srv_io.send_ip(dst, IpProtocol::Tcp, &seg, now);
        }
        let mut moved = false;
        for frame in self.srv_io.drain() {
            for (wire, _) in self.nic.host_tx(frame) {
                if let RxClass::Tcp { src, seg } = self.client_io.classify_rx(&wire, now) {
                    let (h, range) = TcpHeader::parse(&seg, src, CLIENT_IP).expect("checksum");
                    self.client.handle_segment(src, &h, &seg[range], now);
                }
                moved = true;
            }
        }
        self.client_io.send_tcp(&mut self.client, now, || {});
        for frame in self.client_io.drain() {
            if let RxClass::Tcp { src, seg } = self.srv_io.classify_rx(&frame, now) {
                self.srv.rx_segment(src, &seg, now);
            }
            moved = true;
        }
        moved
    }

    /// Rounds until the wire falls silent; then the timers (delayed ACKs).
    fn settle(&mut self) {
        while self.round() {}
        self.now += 1_000_000;
        self.srv.on_timer(self.now);
        self.client.on_timer(self.now);
        while self.round() {}
    }
}

/// Allocations and bytes per 100 000 B reply, PR 21 → PR 22 → PR 24 →
/// this tree: 853 allocations / 1 240 006 B → 369 / 627 878 B → 266 /
/// 619 426 B → 175 / 617 720 B (the counts repeat to the byte, debug and
/// release; PR 24's step is the per-segment event lists, the TSO cut's and
/// `host_tx`'s lists and the client's segment buffer; the last is one
/// block per frame, built in place, where a frame was a `Vec` and an `Rc`).
///
/// Where the rest goes: the send and receive rings each double their way
/// to 64 KiB (2 × 112 KiB), `poll_wire`, `send_ip` and the TSO cut each
/// build a segment in one exact-size buffer (3 × the reply). Going lower
/// needs the pinned `poll_wire` / `send_ip` shapes re-pinned to a headroom
/// buffer (ROADMAP item C).
#[test]
fn allocations_per_reply_are_pinned() {
    const MAX_ALLOCS: u64 = 175;
    const MAX_BYTES: u64 = 617_720;

    let mut p = Path::new();
    p.srv.handle_app(APP, Msg::Listen { port: 80, app: APP }, 0);
    let conn = p.client.connect(SERVER_IP, 80, 0).expect("connect");
    p.settle();
    let sock = p
        .srv
        .take_app_msgs()
        .into_iter()
        .find_map(|(_, m)| match m {
            Msg::Incoming { conn, .. } => Some(conn.sock),
            _ => None,
        })
        .expect("accepted");
    let reply: Vec<u8> = (0..REPLY).map(|i| (i * 7 + i / 251) as u8).collect();
    let data = reply.clone();
    let mut got = Vec::with_capacity(REPLY);
    let mut sip = [0u8; 16384];

    let before = COUNTS.with(Cell::get);
    p.srv.handle_app(APP, Msg::ConnSend { sock, data }, p.now);
    for _ in 0..64 {
        p.settle();
        while let Ok(n) = p.client.recv(conn, &mut sip) {
            got.extend_from_slice(&sip[..n]);
        }
        if got.len() >= REPLY {
            break;
        }
    }
    let after = COUNTS.with(Cell::get);

    assert!(got == reply, "the client read the reply, byte for byte");
    let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);
    println!("byte path: {allocs} allocations, {bytes} B per {REPLY} B reply");
    assert!(
        allocs <= MAX_ALLOCS && bytes <= MAX_BYTES,
        "the byte path allocates more than pinned: {allocs} allocations (pin {MAX_ALLOCS}), \
         {bytes} B (pin {MAX_BYTES})"
    );
    assert!(
        p.nic.stats.tso_splits > 0,
        "the reply left as TSO super-segments"
    );
}
