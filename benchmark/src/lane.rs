//! The lane: the call sequence of a stack replica's flush
//! (`SingleStackProc::flush_once`) without the engine — the only
//! orchestration the benchmark owns.
//!
//! Server side, per replica: `Nic::wire_rx` → `Nic::rx_pop_batch` →
//! `FrameIo::classify_rx` → `TcpHeader::parse` →
//! `TcpStack::handle_segment` → `SockServer::process_events` /
//! `take_app_msgs` → `neat_apps::http` → `SockServer::handle_app` →
//! `SockServer::poll_wire` → `FrameIo::send_ip` / `drain` →
//! `Nic::host_tx`; timers through `next_timeout` / `on_timer`; with
//! replication on, `FlowRepl::collect_delta` → buddy
//! `FlowRepl::apply_delta` after each flush. Client side: product
//! `TcpStack`s behind `FrameIo`, driven by a seeded `Rng`.
//!
//! What is the benchmark's own (and is reported as `bench.loadgen`): the
//! two-way channel with its delay, loss and reorder, the virtual clock
//! that jumps to the next due frame, timer or client action, the
//! closed-loop client logic, and the byte-for-byte check of every reply.
//! Traffic never leaves the process: no socket, no loopback device.

use crate::measure::{Measured, Window, SLICES};
use crate::metrics::median;
use crate::span::{timed, Probe, Span, NO_REQ};
use neat::config::NeatConfig;
use neat::flow_repl::FlowRepl;
use neat::msg::Msg;
use neat::netcode::{FrameIo, RxClass};
use neat::sock_server::SockServer;
use neat_apps::http::{self, StreamParser};
use neat_apps::FileStore;
use neat_net::{IpProtocol, MacAddr, PktBuf, TcpHeader};
use neat_nic::{FaultInjector, Nic, NicConfig};
use neat_sim::ProcId;
use neat_tcp::{SockEvent, SocketId, TcpConfig, TcpStack};
use neat_util::{FxHashMap, Rng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::net::Ipv4Addr;
use std::time::Instant;

/// How one connection slot behaves.
#[derive(Debug, Clone, Copy)]
pub struct Role {
    /// Body size of the file it fetches.
    pub resp_bytes: usize,
    /// Close and reopen after this many requests (0 = never).
    pub reqs_per_conn: u32,
    /// Virtual wait between a reply and the next request, drawn
    /// uniformly from `lo..=hi` ns ((0, 0) = send at once).
    pub think_ns: (u64, u64),
    /// Virtual wait between a close and the reconnect.
    pub reopen_ns: (u64, u64),
    /// Slow reader: take this many bytes every this many ns instead of
    /// reading when data arrives.
    pub sip: Option<(usize, u64)>,
    /// Connect and then only keep the connection alive.
    pub idle: bool,
}

impl Role {
    /// A closed-loop requester with no think time.
    pub const fn fetch(resp_bytes: usize, reqs_per_conn: u32) -> Role {
        Role {
            resp_bytes,
            reqs_per_conn,
            think_ns: (0, 0),
            reopen_ns: (0, 0),
            sip: None,
            idle: false,
        }
    }
}

/// A lane shape: everything that decides which product code runs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub clients: usize,
    pub conns_per_client: usize,
    pub replicas: usize,
    /// Buddy replication between the replicas (checkpoint deltas).
    pub repl: bool,
    /// Frames dropped by the channel, each way, in percent.
    pub drop_pct: u32,
    /// Frames swapped with their predecessor, each way, in percent.
    pub reorder_pct: u32,
    pub one_way_ns: u64,
    /// Connection slot `i` (counted across clients) plays
    /// `roles[i % roles.len()]`.
    pub roles: &'static [Role],
    /// TCP keepalive of the client stacks (0 = off).
    pub keepalive_ns: u64,
    /// Requests completed before the timed window opens.
    pub warmup_reqs: u64,
}

impl Shape {
    pub fn conns(&self) -> usize {
        self.clients * self.conns_per_client
    }
}

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 1]);
const CLIENT_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 2]);
const PORT: u16 = 80;
const PORT_BASE: u16 = 49_152;
const PORT_SPAN: usize = 16_384;
/// The one application behind every listener.
const APP: ProcId = ProcId(7);
/// Connections opened per tick during set-up: few enough that the
/// handshakes in flight stay inside the listeners' backlog.
const OPENS_PER_TICK: usize = 1_000;
/// Client actions are scheduled on this grid (a poll-loop cadence), so
/// that think-time traffic reaches the server in batches.
const TICK_NS: u64 = 10_000;
/// Frames pushed into the NIC rings before the replicas drain them
/// (half a default ring).
const RX_BURST: usize = 256;
const RETRY_NS: u64 = 1_000_000;

fn client_ip(c: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, (c / 250) as u8, (c % 250) as u8 + 1)
}

fn replica_pid(q: usize) -> ProcId {
    ProcId(100 + q as u64)
}

/// Fixed-offset reads of an Ethernet + IPv4 (no options) + TCP frame —
/// the channel's routing, not protocol processing. The client whose
/// address ([`client_ip`]) stands at `off`: 26 = IP source, 30 = IP
/// destination.
fn frame_client(f: &[u8], off: usize) -> Option<usize> {
    (f.len() >= off + 4 && f[off] == 10 && f[off + 1] == 1)
        .then(|| f[off + 2] as usize * 250 + (f[off + 3] as usize).wrapping_sub(1))
}

fn frame_port(f: &[u8], off: usize) -> Option<u16> {
    (f.len() >= off + 2).then(|| u16::from_be_bytes([f[off], f[off + 1]]))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    Connecting,
    Idle,
    Awaiting,
}

struct Conn {
    sock: SocketId,
    state: State,
    role: usize,
    parser: StreamParser,
    reqs_on_conn: u32,
    /// Requests issued on this slot since the lane was built.
    req_no: u32,
    port_cursor: usize,
    ever_connected: bool,
}

struct Client {
    ip: Ipv4Addr,
    io: FrameIo,
    stack: TcpStack,
    conns: Vec<Conn>,
    by_sock: FxHashMap<SocketId, u32>,
    next_timer: u64,
    touched: bool,
}

struct Replica {
    io: FrameIo,
    sock: SockServer,
    repl: FlowRepl,
    web: FxHashMap<SocketId, StreamParser>,
    next_timer: u64,
    dirty: bool,
}

/// One direction of the channel.
struct Pipe {
    q: VecDeque<(u64, PktBuf)>,
}

impl Pipe {
    fn due(&self) -> u64 {
        self.q.front().map_or(u64::MAX, |(t, _)| *t)
    }
}

struct Lane {
    shape: Shape,
    now: u64,
    rng: Rng,
    nic: Nic,
    replicas: Vec<Replica>,
    clients: Vec<Client>,
    files: FileStore,
    /// Per role: the request bytes and the body the reply must carry.
    requests: Vec<Vec<u8>>,
    bodies: Vec<Vec<u8>>,
    /// Scratch for `recv`, kept so that it is not zeroed per read.
    rx_buf: Vec<u8>,
    c2s: Pipe,
    s2c: Pipe,
    /// (due, client, slot): the slot acts according to its state.
    sched: BinaryHeap<Reverse<(u64, u32, u32)>>,
    ports_per_slot: usize,
    completed: u64,
    failed: u64,
    mismatched: u64,
    /// Requests the lane's web application answered.
    served: u64,
    connected_once: usize,
}

impl Lane {
    fn build(shape: &Shape, seed: u64) -> Lane {
        let mut rng = Rng::seed_from_u64(seed ^ 0x1A7E);
        let mut neat = NeatConfig::single(shape.replicas);
        neat.ip = SERVER_IP;
        neat.mac = SERVER_MAC;
        neat.tcp.backlog = 4096;
        if shape.repl {
            neat = neat.replicated();
        }
        let nic = Nic::new(
            NicConfig {
                queue_pairs: shape.replicas,
                ..NicConfig::default()
            },
            FaultInjector::disabled(seed),
        );
        // One file per distinct size, filled from the seed so that a
        // reordered or duplicated byte cannot go unnoticed.
        let mut files = FileStore::new();
        let mut requests = Vec::new();
        let mut bodies = Vec::new();
        for role in shape.roles {
            let path = format!("/file{}", role.resp_bytes);
            if files.get(&path).is_none() {
                let mut body = vec![0u8; role.resp_bytes];
                rng.fill_bytes(&mut body);
                files.put(path.clone(), body);
            }
            requests.push(http::format_request(&path, true));
            bodies.push(files.get(&path).expect("just put").clone());
        }

        let mut replicas = Vec::with_capacity(shape.replicas);
        for q in 0..shape.replicas {
            let mut io = FrameIo::new(SERVER_IP, SERVER_MAC);
            for c in 0..shape.clients {
                io.seed_arp(client_ip(c), CLIENT_MAC);
            }
            let mut sock = SockServer::new(SERVER_IP, neat.tcp.clone());
            sock.handle_app(
                APP,
                Msg::Listen {
                    port: PORT,
                    app: APP,
                },
                0,
            );
            sock.take_app_msgs();
            let mut repl = FlowRepl::new(&neat);
            if shape.repl {
                let buddy = replica_pid((q + 1) % shape.replicas);
                repl.set_buddy(&mut sock, Some(buddy));
            }
            replicas.push(Replica {
                io,
                sock,
                repl,
                web: FxHashMap::default(),
                next_timer: u64::MAX,
                dirty: false,
            });
        }

        let client_cfg = TcpConfig {
            initial_rto_ns: 20_000_000,
            // The slots own their ports (see `open`); a short TIME_WAIT
            // frees a slot's port before its rotation returns to it.
            time_wait_ns: 2_000_000,
            keepalive_ns: shape.keepalive_ns,
            ..TcpConfig::default()
        };
        let ports_per_slot = (PORT_SPAN / shape.conns_per_client).max(1);
        let mut sched = BinaryHeap::new();
        let mut clients = Vec::with_capacity(shape.clients);
        for c in 0..shape.clients {
            let ip = client_ip(c);
            let mut io = FrameIo::new(ip, CLIENT_MAC);
            io.seed_arp(SERVER_IP, SERVER_MAC);
            let mut conns = Vec::with_capacity(shape.conns_per_client);
            for slot in 0..shape.conns_per_client {
                let global = c * shape.conns_per_client + slot;
                conns.push(Conn {
                    sock: SocketId(0),
                    state: State::Closed,
                    role: global % shape.roles.len(),
                    parser: StreamParser::new(),
                    reqs_on_conn: 0,
                    req_no: 0,
                    port_cursor: 0,
                    ever_connected: false,
                });
                let at = (global / OPENS_PER_TICK) as u64 * TICK_NS;
                sched.push(Reverse((at, c as u32, slot as u32)));
            }
            clients.push(Client {
                ip,
                io,
                stack: TcpStack::new(ip, client_cfg.clone()),
                conns,
                by_sock: FxHashMap::default(),
                next_timer: u64::MAX,
                touched: false,
            });
        }

        Lane {
            shape: *shape,
            now: 0,
            rng,
            nic,
            replicas,
            clients,
            files,
            requests,
            bodies,
            rx_buf: vec![0u8; 16_384],
            c2s: Pipe { q: VecDeque::new() },
            s2c: Pipe { q: VecDeque::new() },
            sched,
            ports_per_slot,
            completed: 0,
            failed: 0,
            mismatched: 0,
            served: 0,
            connected_once: 0,
        }
    }

    /// Request id of the request slot `slot` of client `c` is on:
    /// connection × request index.
    fn req_id(&self, c: usize, slot: usize) -> u64 {
        let global = (c * self.shape.conns_per_client + slot) as u64;
        (global << 24) | u64::from(self.clients[c].conns[slot].req_no & 0xFF_FFFF)
    }

    /// Request id of a frame, from its client address and client port
    /// (each slot owns a block of ports).
    fn frame_req(&self, frame: &[u8], from_client: bool) -> u64 {
        let (c, port) = if from_client {
            (frame_client(frame, 26), frame_port(frame, 34))
        } else {
            (frame_client(frame, 30), frame_port(frame, 36))
        };
        match (c, port) {
            (Some(c), Some(p)) if c < self.clients.len() && p >= PORT_BASE => {
                let slot = (p - PORT_BASE) as usize / self.ports_per_slot;
                if slot < self.shape.conns_per_client {
                    self.req_id(c, slot)
                } else {
                    NO_REQ
                }
            }
            _ => NO_REQ,
        }
    }

    /// Put a frame on the channel: delay, loss, adjacent reorder.
    fn transmit(&mut self, to_server: bool, frame: PktBuf) {
        let s = &self.shape;
        if s.drop_pct > 0 && self.rng.gen_range(0u32..100) < s.drop_pct {
            return;
        }
        let swap = s.reorder_pct > 0 && self.rng.gen_range(0u32..100) < s.reorder_pct;
        let at = self.now + s.one_way_ns;
        let pipe = if to_server {
            &mut self.c2s
        } else {
            &mut self.s2c
        };
        match pipe.q.back_mut() {
            // Overtake the frame sent just before: the two swap places,
            // the delivery times stay in order.
            Some((_, prev)) if swap => {
                let overtaken = std::mem::replace(prev, frame);
                pipe.q.push_back((at, overtaken));
            }
            _ => pipe.q.push_back((at, frame)),
        }
    }

    fn schedule(&mut self, c: usize, slot: usize, wait: (u64, u64)) {
        let d = if wait.1 > wait.0 {
            self.rng.gen_range(wait.0..=wait.1)
        } else {
            wait.0
        };
        let at = (self.now + d).div_ceil(TICK_NS) * TICK_NS;
        self.sched.push(Reverse((at, c as u32, slot as u32)));
    }

    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    fn open<P: Probe>(&mut self, p: &mut P, c: usize, slot: usize) {
        let now = self.now;
        let cl = &mut self.clients[c];
        let conn = &mut cl.conns[slot];
        let port = PORT_BASE as usize
            + slot * self.ports_per_slot
            + conn.port_cursor % self.ports_per_slot;
        conn.port_cursor += 1;
        let opened = timed(p, Span::SockApi, NO_REQ, || {
            cl.stack.set_port_range(port as u16, port as u16);
            cl.stack.connect(SERVER_IP, PORT, now)
        });
        match opened {
            Ok(id) => {
                conn.sock = id;
                conn.state = State::Connecting;
                conn.parser = StreamParser::new();
                conn.reqs_on_conn = 0;
                cl.by_sock.insert(id, slot as u32);
            }
            Err(_) => {
                // Refused (port still in use, no memory): a failed
                // attempt; try the slot's next port later.
                self.failed += 1;
                self.schedule(c, slot, (RETRY_NS, RETRY_NS));
            }
        }
    }

    fn request<P: Probe>(&mut self, p: &mut P, c: usize, slot: usize) {
        let cl = &mut self.clients[c];
        let conn = &mut cl.conns[slot];
        conn.req_no += 1;
        conn.state = State::Awaiting;
        let bytes = &self.requests[conn.role];
        let sock = conn.sock;
        let sent = timed(p, Span::SockApi, NO_REQ, || cl.stack.send(sock, bytes));
        if sent != Ok(bytes.len()) {
            self.failed += 1;
            self.drop_conn(p, c, slot);
            return;
        }
        if let Some((_, every)) = self.shape.roles[conn.role].sip {
            self.schedule(c, slot, (every, every));
        }
    }

    /// Abandon a connection that failed and reopen the slot later.
    fn drop_conn<P: Probe>(&mut self, p: &mut P, c: usize, slot: usize) {
        let cl = &mut self.clients[c];
        let conn = &mut cl.conns[slot];
        let sock = conn.sock;
        cl.by_sock.remove(&sock);
        conn.state = State::Closed;
        let _ = timed(p, Span::SockApi, NO_REQ, || cl.stack.abort(sock));
        self.schedule(c, slot, (RETRY_NS, RETRY_NS));
    }

    /// Take `limit` bytes (or all there is) from the socket into the
    /// slot's parser and settle every reply that is now complete.
    fn read<P: Probe>(&mut self, p: &mut P, c: usize, slot: usize, limit: usize) {
        let mut buf = std::mem::take(&mut self.rx_buf);
        let req = if P::ON { self.req_id(c, slot) } else { NO_REQ };
        let mut left = limit;
        while left > 0 {
            let cl = &mut self.clients[c];
            let conn = &mut cl.conns[slot];
            let want = left.min(buf.len());
            let sock = conn.sock;
            let got = timed(p, Span::SockApi, req, || {
                cl.stack.recv(sock, &mut buf[..want])
            });
            let n = match got {
                Ok(n) if n > 0 => n,
                _ => break,
            };
            left -= n;
            timed(p, Span::AppsHttp, req, || conn.parser.push(&buf[..n]));
            if n < want {
                break;
            }
        }
        self.rx_buf = buf;
        loop {
            let conn = &mut self.clients[c].conns[slot];
            if conn.state != State::Awaiting {
                break;
            }
            let Some(resp) = timed(p, Span::AppsHttp, req, || conn.parser.next_response()) else {
                break;
            };
            if resp.status == 200 && resp.body == self.bodies[conn.role] {
                self.completed += 1;
            } else {
                self.failed += 1;
                self.mismatched += 1;
            }
            self.settled(p, c, slot);
        }
    }

    /// A reply is in: next request, think, or close and reopen.
    fn settled<P: Probe>(&mut self, p: &mut P, c: usize, slot: usize) {
        let now = self.now;
        let cl = &mut self.clients[c];
        let conn = &mut cl.conns[slot];
        let role = self.shape.roles[conn.role];
        conn.reqs_on_conn += 1;
        conn.state = State::Idle;
        if role.reqs_per_conn > 0 && conn.reqs_on_conn >= role.reqs_per_conn {
            let sock = conn.sock;
            cl.by_sock.remove(&sock);
            conn.state = State::Closed;
            let _ = timed(p, Span::SockApi, NO_REQ, || cl.stack.close(sock, now));
            if role.reopen_ns == (0, 0) {
                self.open(p, c, slot);
            } else {
                self.schedule(c, slot, role.reopen_ns);
            }
        } else {
            self.request_after_think(p, c, slot);
        }
    }

    fn request_after_think<P: Probe>(&mut self, p: &mut P, c: usize, slot: usize) {
        let think = self.shape.roles[self.clients[c].conns[slot].role].think_ns;
        if think == (0, 0) {
            self.request(p, c, slot);
        } else {
            self.schedule(c, slot, think);
        }
    }

    /// A scheduled slot action is due.
    fn act<P: Probe>(&mut self, p: &mut P, c: usize, slot: usize) {
        let conn = &self.clients[c].conns[slot];
        let role = self.shape.roles[conn.role];
        match conn.state {
            State::Closed => self.open(p, c, slot),
            State::Idle if !role.idle => self.request(p, c, slot),
            State::Awaiting => {
                if let Some((bytes, every)) = role.sip {
                    self.read(p, c, slot, bytes);
                    if self.clients[c].conns[slot].state == State::Awaiting {
                        self.schedule(c, slot, (every, every));
                    }
                }
            }
            _ => {}
        }
    }

    fn client_rx<P: Probe>(&mut self, p: &mut P, c: usize, frame: PktBuf) {
        let now = self.now;
        let req = if P::ON {
            self.frame_req(&frame, false)
        } else {
            NO_REQ
        };
        let cl = &mut self.clients[c];
        cl.touched = true;
        let class = timed(p, Span::FrameioRx, req, || cl.io.classify_rx(&frame, now));
        if let RxClass::Tcp { src, seg } = class {
            let parsed = timed(p, Span::TcpParse, req, || {
                TcpHeader::parse(&seg, src, cl.ip)
            });
            if let Ok((h, range)) = parsed {
                timed(p, Span::HandleSegment, req, || {
                    cl.stack.handle_segment(src, &h, &seg[range], now)
                });
            }
        }
    }

    /// Stack events → client logic, then everything the stack wants on
    /// the wire.
    fn client_pump<P: Probe>(&mut self, p: &mut P, c: usize) {
        let now = self.now;
        self.clients[c].touched = false;
        loop {
            let cl = &mut self.clients[c];
            let Some(ev) = cl.stack.poll_event() else {
                break;
            };
            // Events of sockets the slot has already given up are stale.
            let Some(slot) = cl.by_sock.get(&ev.socket()).map(|s| *s as usize) else {
                continue;
            };
            match ev {
                SockEvent::Connected(_) => {
                    let conn = &mut cl.conns[slot];
                    conn.state = State::Idle;
                    if !conn.ever_connected {
                        conn.ever_connected = true;
                        self.connected_once += 1;
                    }
                    if !self.shape.roles[conn.role].idle {
                        self.request_after_think(p, c, slot);
                    }
                }
                SockEvent::Readable(_) => {
                    if self.shape.roles[cl.conns[slot].role].sip.is_none() {
                        self.read(p, c, slot, usize::MAX);
                    }
                }
                SockEvent::Aborted(_) => {
                    if cl.conns[slot].state == State::Awaiting {
                        self.failed += 1;
                    }
                    self.drop_conn(p, c, slot);
                }
                SockEvent::PeerClosed(_)
                | SockEvent::Closed(_)
                | SockEvent::Writable(_)
                | SockEvent::Acceptable(_) => {}
            }
        }
        loop {
            let cl = &mut self.clients[c];
            let Some((dst, h, payload)) = timed(p, Span::PollTransmit, NO_REQ, || {
                cl.stack.poll_transmit(now)
            }) else {
                break;
            };
            let seg = timed(p, Span::TcpEmit, NO_REQ, || h.emit(&payload, cl.ip, dst));
            timed(p, Span::FrameioTx, NO_REQ, || {
                cl.io.send_ip(dst, IpProtocol::Tcp, &seg, now)
            });
        }
        let cl = &mut self.clients[c];
        let frames = timed(p, Span::FrameioTx, NO_REQ, || cl.io.drain());
        cl.next_timer = cl.stack.next_timeout().unwrap_or(u64::MAX);
        for f in frames {
            self.transmit(true, f);
        }
    }

    // ------------------------------------------------------------------
    // Server side
    // ------------------------------------------------------------------

    /// Drain replica `q`'s ring into its stack, then flush it.
    fn replica_rx<P: Probe>(&mut self, p: &mut P, q: usize) {
        let now = self.now;
        let nic = &mut self.nic;
        let frames = timed(p, Span::NicRxPop, NO_REQ, || {
            nic.rx_pop_batch(q, usize::MAX)
        });
        for frame in frames {
            let req = if P::ON {
                self.frame_req(&frame, true)
            } else {
                NO_REQ
            };
            let r = &mut self.replicas[q];
            let class = timed(p, Span::FrameioRx, req, || r.io.classify_rx(&frame, now));
            if let RxClass::Tcp { src, seg } = class {
                let parsed = timed(p, Span::TcpParse, req, || {
                    TcpHeader::parse(&seg, src, SERVER_IP)
                });
                if let Ok((h, range)) = parsed {
                    timed(p, Span::HandleSegment, req, || {
                        r.sock.stack.handle_segment(src, &h, &seg[range], now)
                    });
                }
            }
        }
        self.flush(p, q);
    }

    /// `flush_once` of a stack replica, with the web application inline:
    /// a reply the application writes makes one more round.
    fn flush<P: Probe>(&mut self, p: &mut P, q: usize) {
        let now = self.now;
        let me = replica_pid(q);
        self.replicas[q].dirty = false;
        for _ in 0..32 {
            let r = &mut self.replicas[q];
            timed(p, Span::SockEvents, NO_REQ, || r.sock.process_events(me));
            let segs = timed(p, Span::SockPollWire, NO_REQ, || r.sock.poll_wire(now));
            for (dst, seg) in segs {
                timed(p, Span::FrameioTx, NO_REQ, || {
                    r.io.send_ip(dst, IpProtocol::Tcp, &seg, now)
                });
            }
            let frames = timed(p, Span::FrameioTx, NO_REQ, || r.io.drain());
            for frame in frames {
                let nic = &mut self.nic;
                let wire = timed(p, Span::NicHostTx, NO_REQ, || nic.host_tx(frame));
                for (f, _serialization) in wire {
                    self.transmit(false, f);
                }
            }
            let r = &mut self.replicas[q];
            let msgs = timed(p, Span::SockEvents, NO_REQ, || r.sock.take_app_msgs());
            let mut wrote = false;
            for (_, msg) in msgs {
                wrote |= self.web(p, q, msg);
            }
            if self.shape.repl {
                self.replicate(p, q);
            }
            if !wrote {
                break;
            }
        }
        let r = &mut self.replicas[q];
        r.next_timer = r.sock.next_timeout().unwrap_or(u64::MAX);
    }

    /// The web application of replica `q`: one fast-path message in,
    /// socket operations out. Returns whether it called into the stack.
    fn web<P: Probe>(&mut self, p: &mut P, q: usize, msg: Msg) -> bool {
        let now = self.now;
        let r = &mut self.replicas[q];
        match msg {
            Msg::Incoming { conn, .. } => {
                r.web.insert(conn.sock, StreamParser::new());
                false
            }
            Msg::ConnData { conn, data } => {
                let Some(parser) = r.web.get_mut(&conn.sock) else {
                    return false;
                };
                timed(p, Span::AppsHttp, NO_REQ, || parser.push(&data));
                let files = &self.files;
                let mut wrote = false;
                while let Some(reply) = timed(p, Span::AppsHttp, NO_REQ, || {
                    let req = parser.next_request()?;
                    Some(match files.get(&req.path) {
                        Some(body) => http::format_response(200, body, req.keep_alive),
                        None => http::format_response(404, b"not found", req.keep_alive),
                    })
                }) {
                    self.served += 1;
                    let send = Msg::ConnSend {
                        sock: conn.sock,
                        data: reply,
                    };
                    timed(p, Span::SockApp, NO_REQ, || {
                        r.sock.handle_app(APP, send, now)
                    });
                    wrote = true;
                }
                wrote
            }
            Msg::ConnEof { conn } => {
                let close = Msg::ConnClose { sock: conn.sock };
                timed(p, Span::SockApp, NO_REQ, || {
                    r.sock.handle_app(APP, close, now)
                });
                true
            }
            Msg::ConnClosed { conn, .. } => {
                r.web.remove(&conn.sock);
                false
            }
            _ => false,
        }
    }

    /// End of a flush with replication on: ship the checkpoint delta to
    /// the buddy replica.
    fn replicate<P: Probe>(&mut self, p: &mut P, q: usize) {
        let now = self.now;
        let r = &mut self.replicas[q];
        let delta = timed(p, Span::ReplCollect, NO_REQ, || {
            r.repl.collect_delta(&mut r.sock, q, now)
        });
        if let Some((buddy, Msg::ReplDelta { payload, .. })) = delta {
            let b = &mut self.replicas[(buddy.0 - replica_pid(0).0) as usize];
            timed(p, Span::ReplApply, NO_REQ, || {
                b.repl.apply_delta(replica_pid(q), payload)
            });
        }
    }

    // ------------------------------------------------------------------
    // The loop
    // ------------------------------------------------------------------

    /// Advance the virtual clock to the next due frame, timer or client
    /// action and handle everything due then. False when nothing is left
    /// to do (which a live lane never reaches).
    fn step<P: Probe>(&mut self, p: &mut P) -> bool {
        let due = self
            .replicas
            .iter()
            .map(|r| r.next_timer)
            .chain(self.clients.iter().map(|c| c.next_timer))
            .chain([self.c2s.due(), self.s2c.due()])
            .chain(self.sched.peek().map(|Reverse((t, _, _))| *t))
            .min()
            .unwrap_or(u64::MAX);
        if due == u64::MAX {
            return false;
        }
        self.now = self.now.max(due);
        let now = self.now;

        for q in 0..self.replicas.len() {
            let r = &mut self.replicas[q];
            if r.next_timer <= now {
                timed(p, Span::OnTimer, NO_REQ, || r.sock.on_timer(now));
                r.dirty = true;
            }
        }
        for cl in &mut self.clients {
            if cl.next_timer <= now {
                timed(p, Span::OnTimer, NO_REQ, || cl.stack.on_timer(now));
                cl.touched = true;
            }
        }

        let mut burst = 0;
        while self.c2s.due() <= now {
            let (_, frame) = self.c2s.q.pop_front().expect("due frame");
            let req = if P::ON {
                self.frame_req(&frame, true)
            } else {
                NO_REQ
            };
            let nic = &mut self.nic;
            if let Some(q) = timed(p, Span::NicWireRx, req, || nic.wire_rx(frame, now)) {
                self.replicas[q].dirty = true;
            }
            burst += 1;
            if burst == RX_BURST {
                burst = 0;
                self.drain_rings(p);
            }
        }
        self.drain_rings(p);

        while self.s2c.due() <= now {
            let (_, frame) = self.s2c.q.pop_front().expect("due frame");
            if let Some(c) = frame_client(&frame, 30).filter(|c| *c < self.clients.len()) {
                self.client_rx(p, c, frame);
            }
        }

        while let Some(Reverse((t, c, slot))) = self.sched.peek().copied() {
            if t > now {
                break;
            }
            self.sched.pop();
            self.clients[c as usize].touched = true;
            self.act(p, c as usize, slot as usize);
        }

        for c in 0..self.clients.len() {
            if self.clients[c].touched {
                self.client_pump(p, c);
            }
        }
        true
    }

    fn drain_rings<P: Probe>(&mut self, p: &mut P) {
        for q in 0..self.replicas.len() {
            if self.replicas[q].dirty {
                self.replica_rx(p, q);
            }
        }
    }

    /// One step as a root span; a live lane always has a next step.
    fn tick<P: Probe>(&mut self, p: &mut P) {
        p.enter(Span::Loadgen, NO_REQ);
        let alive = self.step(p);
        p.exit();
        assert!(
            alive,
            "lane ran dry: {} requests done, {} connections opened",
            self.completed, self.connected_once
        );
    }

    /// Run until `target` requests have completed (or failed) in total.
    /// `on_progress` sees the running total after every step.
    fn run_to<P: Probe>(&mut self, p: &mut P, target: u64, mut on_progress: impl FnMut(u64)) {
        while self.completed + self.failed < target {
            self.tick(p);
            on_progress(self.completed + self.failed);
        }
    }

    /// Set-up: open every connection, then warm up.
    fn warm_up<P: Probe>(&mut self, p: &mut P) {
        self.run_to(p, self.shape.warmup_reqs, |_| {});
        while self.connected_once < self.shape.conns() {
            self.tick(p);
        }
    }

    fn bytes_per_conn(&self) -> f64 {
        let per: Vec<f64> = self
            .replicas
            .iter()
            .map(|r| r.sock.budget().bytes_per_conn())
            .collect();
        median(&per)
    }
}

/// Build and warm up a lane, then time `requests` requests in
/// [`SLICES`] equal slices.
pub fn run<P: Probe>(shape: &Shape, seed: u64, requests: u64, p: &mut P) -> Measured {
    let t0 = Instant::now();
    let mut lane = Lane::build(shape, seed);
    lane.warm_up(p);
    let setup_s = t0.elapsed().as_secs_f64();

    let (done0, failed0, served0) = (lane.completed, lane.failed, lane.served);
    let base = done0 + failed0;
    let slice = (requests / SLICES).max(1);
    let mut next_mark = slice;
    p.reset();
    let mut w = Window::open();
    lane.run_to(p, base + requests, |total| {
        while total - base >= next_mark {
            w.mark();
            next_mark += slice;
        }
    });
    let c = w.finish();

    let done = lane.completed - done0;
    let failed = lane.failed - failed0;
    let served = lane.served - served0;
    let mut m = Measured::new(c, done, failed, served, setup_s);
    m.layer.set("tcp.bytes_per_conn", lane.bytes_per_conn());
    // Replies are checked one by one as they complete; the application's
    // own count may be ahead by what is still in flight.
    m.correct =
        done > 0 && lane.mismatched == 0 && served.abs_diff(done) <= shape.conns() as u64 + failed;
    m
}
