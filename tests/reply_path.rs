//! The reply path the byte-path ratchets drive (`byte_path.rs`,
//! `loss_path.rs`; each includes this file with `#[path]`, beside
//! `counting_alloc.rs`): one 100 000 B reply from
//! `SockServer::handle_app(ConnSend)` through `poll_wire` →
//! `FrameIo::send_ip` → `Nic::host_tx` (TSO) → the client's `FrameIo` and
//! `TcpStack` → `recv`, with the client's ACKs going back the same way,
//! counted by an allocator that sees this thread only. Every frame buffer
//! granted on the way is returned by the time the client has read it all,
//! and the only buffers granted are the frames the two `FrameIo`s build:
//! the NIC's TSO cuts each super-segment in its own frame's block.

use crate::counting_alloc::COUNTS;
use neat::config::NeatConfig;
use neat::msg::Msg;
use neat::netcode::{FrameIo, RxClass};
use neat::sock_server::SockServer;
use neat_net::ipv4::IpProtocol;
use neat_net::pktbuf::{self, PktBuf};
use neat_net::{MacAddr, TcpHeader};
use neat_nic::{FaultInjector, Nic, NicConfig};
use neat_sim::ProcId;
use neat_tcp::{TcpConfig, TcpStack};
use std::cell::Cell;
use std::net::Ipv4Addr;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 100);
const APP: ProcId = ProcId(7);
const ME: ProcId = ProcId(1);
pub const REPLY: usize = 100_000;

pub struct Path {
    srv: SockServer,
    srv_io: FrameIo,
    pub nic: Nic,
    client: TcpStack,
    client_io: FrameIo,
    now: u64,
    /// Whether the first frame of each flight to the client is held back
    /// and delivered after the rest of it.
    reorder: bool,
    /// Frames held back behind at least one later frame.
    pub reordered: u32,
    /// Frames the two `FrameIo`s built and handed on.
    built: u64,
}

impl Path {
    fn new(reorder: bool) -> Path {
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
            reorder,
            reordered: 0,
            built: 0,
        }
    }

    /// Hand one wire frame to the client's stack.
    fn deliver(&mut self, wire: &PktBuf) {
        let now = self.now;
        if let RxClass::Tcp { src, seg } = self.client_io.classify_rx(wire, now) {
            let (h, range) = TcpHeader::parse(&seg, src, CLIENT_IP).expect("checksum");
            self.client.handle_segment(src, &h, &seg[range], now);
        }
    }

    /// One round: everything the server owes goes out through the NIC to
    /// the client (a flight), everything the client owes comes back.
    /// Returns whether a frame moved.
    fn round(&mut self) -> bool {
        let now = self.now;
        self.srv.process_events(ME);
        for (dst, seg) in self.srv.poll_wire(now) {
            self.srv_io.send_ip(dst, IpProtocol::Tcp, &seg, now);
        }
        let (mut moved, mut held, mut passed) = (false, None, false);
        for frame in self.srv_io.drain() {
            self.built += 1;
            for (wire, _) in self.nic.host_tx(frame) {
                if self.reorder && !moved {
                    held = Some(wire);
                } else {
                    self.deliver(&wire);
                    passed = true;
                }
                moved = true;
            }
        }
        if let Some(wire) = held {
            self.reordered += u32::from(passed);
            self.deliver(&wire);
        }
        self.client_io.send_tcp(&mut self.client, now, || {});
        for frame in self.client_io.drain() {
            self.built += 1;
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

/// The pinned call sequence: connect and accept, then count what one
/// 100 000 B reply allocates from `ConnSend` until the client has read it
/// all. Returns (allocations, bytes) and the path, for its statistics.
pub fn count_reply(reorder: bool) -> (u64, u64, Path) {
    let mut p = Path::new(reorder);
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

    let (held, grants, built) = (pktbuf::stats().outstanding, pktbuf::stats().grants, p.built);
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
    assert_eq!(
        pktbuf::stats().outstanding,
        held,
        "a frame buffer outlived the reply (a cut frame's block lives until its last segment drops)"
    );
    assert_eq!(
        pktbuf::stats().grants - grants,
        p.built - built,
        "a buffer granted beyond the frames built: a TSO cut copied its frame"
    );
    (after.0 - before.0, after.1 - before.1, p)
}
