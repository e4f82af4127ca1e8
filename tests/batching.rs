//! Full-stack batching equivalence (ISSUE: batched zero-copy message path).
//!
//! The per-link message coalescing in `neat-sim` and the per-wakeup work
//! processes defer to `settle` promise to be *behaviour-transparent*:
//! they amortize wakeups and dispatch, but every application-visible byte
//! stream must be identical with batching on and off. These tests assert
//! that promise over a real two-machine deployment — client TCP stack,
//! 10GbE link, NIC steering, driver, NEaT replica, socket library — and
//! pin down fixed-seed determinism and packet-pool quiescence on the same
//! topology.

use neat::driver::DriverProc;
use neat::msg::Msg;
use neat::netcode::{FrameIo, RxClass};
use neat::nic_proc::{default_server_nic, NicMode, NicProc};
use neat::replica::Role;
use neat::sockets::{LibEvent, SocketLib};
use neat::stack_single::SingleStackProc;
use neat_net::ethernet::MacAddr;
use neat_sim::{Ctx, Event, ProcId, Process, Sim, SimConfig, Time};
use neat_tcp::{SockEvent, SocketId, TcpConfig, TcpStack};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 100);
const PORT: u16 = 7878;
const CONNS: usize = 4;
const REQUESTS: usize = 8;
const REQ_LEN: usize = 48;
/// The echo server repeats each request this many times.
const ECHO_FACTOR: usize = 8;
const RESP_LEN: usize = REQ_LEN * ECHO_FACTOR;

/// Server application: accepts connections through the unified
/// `SocketLib` surface and echoes every request back `ECHO_FACTOR` times.
struct EchoApp {
    lib: SocketLib,
}

impl Process<Msg> for EchoApp {
    fn name(&self) -> String {
        "echo-app".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => self.lib.listen(ctx, PORT).unwrap(),
            Event::Message { msg, .. } => {
                for e in self.lib.handle(ctx, msg) {
                    if let LibEvent::Readable { fd } = e {
                        while self.lib.poll(fd).readable {
                            let Ok(data) = self.lib.recv(ctx, fd) else {
                                break;
                            };
                            if data.is_empty() {
                                break; // EOF
                            }
                            let mut resp = Vec::with_capacity(data.len() * ECHO_FACTOR);
                            for _ in 0..ECHO_FACTOR {
                                resp.extend_from_slice(&data);
                            }
                            self.lib.send(ctx, fd, resp).unwrap();
                        }
                    }
                }
            }
            Event::Timer { .. } => {}
        }
    }
}

/// Deterministic request bytes for connection `idx`, request `k`.
fn request(idx: usize, k: usize) -> Vec<u8> {
    (0..REQ_LEN).map(|i| (idx * 31 + k * 7 + i) as u8).collect()
}

/// Client: a library TCP stack (httperf-style OS bypass) driving `CONNS`
/// connections of `REQUESTS` fixed-content requests each, recording the
/// full per-connection response stream.
struct FetchClient {
    nic: ProcId,
    stack: TcpStack,
    io: FrameIo,
    /// Connection-open order index per socket (stable across runs).
    idx: BTreeMap<SocketId, usize>,
    /// Requests issued so far, per connection index.
    issued: Vec<usize>,
    /// Response bytes consumed so far, per connection index.
    streams: Rc<RefCell<BTreeMap<usize, Vec<u8>>>>,
    /// A frame arrived this wakeup, so `settle` drains the stack.
    drain_owed: bool,
}

impl FetchClient {
    fn new(nic: ProcId, streams: Rc<RefCell<BTreeMap<usize, Vec<u8>>>>) -> FetchClient {
        let mut stack = TcpStack::new(CLIENT_IP, TcpConfig::default());
        stack.set_port_range(49_152, 49_651);
        let mut io = FrameIo::new(CLIENT_IP, MacAddr::local(2));
        io.seed_arp(SERVER_IP, MacAddr::local(1));
        FetchClient {
            nic,
            stack,
            io,
            idx: BTreeMap::new(),
            issued: vec![0; CONNS],
            streams,
            drain_owed: false,
        }
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().as_nanos();
        while let Some(ev) = self.stack.poll_event() {
            match ev {
                SockEvent::Connected(sock) => {
                    let i = self.idx[&sock];
                    let _ = self.stack.send(sock, &request(i, 0));
                    self.issued[i] = 1;
                }
                SockEvent::Readable(sock) => {
                    let i = self.idx[&sock];
                    let mut buf = [0u8; 16384];
                    loop {
                        match self.stack.recv(sock, &mut buf) {
                            Ok(0) => break,
                            Ok(n) => {
                                self.streams
                                    .borrow_mut()
                                    .entry(i)
                                    .or_default()
                                    .extend_from_slice(&buf[..n]);
                                if n < buf.len() {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                    // Issue the next request once the full response landed.
                    let have = self.streams.borrow().get(&i).map(|s| s.len()).unwrap_or(0);
                    while self.issued[i] < REQUESTS && have >= self.issued[i] * RESP_LEN {
                        let k = self.issued[i];
                        let _ = self.stack.send(sock, &request(i, k));
                        self.issued[i] += 1;
                    }
                }
                _ => {}
            }
        }
        self.io.send_tcp(&mut self.stack, now, || {});
        for frame in self.io.drain() {
            ctx.send(self.nic, Msg::NetTx(frame));
        }
        if let Some(d) = self.stack.next_timeout() {
            ctx.set_timer(Time::from_nanos(d.saturating_sub(now)), 0);
        }
    }

    fn absorb(&mut self, ctx: &mut Ctx<'_, Msg>, frame: &neat_net::PktBuf) {
        let now = ctx.now().as_nanos();
        if let RxClass::Tcp { src, seg } = self.io.classify_rx(frame, now) {
            if let Ok((h, range)) = neat_net::TcpHeader::parse(&seg, src, self.stack.local_ip) {
                self.stack.handle_segment(src, &h, &seg[range], now);
            }
        }
    }
}

impl Process<Msg> for FetchClient {
    fn name(&self) -> String {
        "fetch-client".into()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => {
                // Let the SetNeighbor/Announce wiring settle first.
                ctx.set_timer(Time::from_millis(1), 1);
            }
            Event::Timer { token: 1 } => {
                let now = ctx.now().as_nanos();
                for i in 0..CONNS {
                    let sock = self.stack.connect(SERVER_IP, PORT, now).unwrap();
                    self.idx.insert(sock, i);
                }
                self.drain(ctx);
            }
            Event::Timer { .. } => {
                let now = ctx.now().as_nanos();
                self.stack.on_timer(now);
                self.drain(ctx);
            }
            Event::Message { msg, .. } => {
                if let Msg::NetRx(frame) = msg {
                    self.absorb(ctx, &frame);
                    self.drain_owed = true;
                }
            }
        }
    }

    fn settle(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if std::mem::take(&mut self.drain_owed) {
            self.drain(ctx);
        }
    }
}

/// Build the two-machine topology and run it to completion. Returns the
/// per-connection response streams and the number of dispatched events.
fn run(batch_ns: u64) -> (BTreeMap<usize, Vec<u8>>, u64) {
    neat_net::pktbuf::reset();
    let mut sim: Sim<Msg> = Sim::new(SimConfig {
        seed: 42,
        batch_ns,
        ..SimConfig::default()
    });

    // Server machine: NIC (device) → driver → single-component replica.
    let srv_m = sim.add_machine(neat_sim::MachineSpec::amd_opteron_6168());
    let srv_dev = sim.add_device_thread(srv_m);
    let srv_nic = sim.spawn(
        srv_dev,
        Box::new(NicProc::new(
            "nic.srv",
            default_server_nic(1),
            NicMode::Server { driver: ProcId(0) },
        )),
    );
    let drv = sim.spawn(
        sim.hw_thread(srv_m, 0, 0),
        Box::new(DriverProc::new("drv", srv_nic, 1)),
    );
    sim.send_external(
        srv_nic,
        Msg::SetNeighbor {
            role: Role::Driver,
            pid: drv,
        },
    );
    // Keep the stack on plain TcpConfig::default() (no GSO bursts, stock
    // RTO): the assertions below calibrate against that wire behaviour.
    let stack_cfg = neat::config::NeatConfig {
        tcp: TcpConfig::default(),
        ..neat::config::NeatConfig::single(1)
    };
    let stack = sim.spawn(
        sim.hw_thread(srv_m, 1, 0),
        Box::new(SingleStackProc::new(
            "neat.0",
            0,
            drv,
            ProcId(0),
            SERVER_IP,
            MacAddr::local(1),
            &stack_cfg,
            vec![(CLIENT_IP, MacAddr::local(2))],
        )),
    );
    let lib = SocketLib::new(ProcId(0), vec![stack], None);
    sim.spawn(sim.hw_thread(srv_m, 2, 0), Box::new(EchoApp { lib }));

    // Client machine: hub NIC + library-stack client.
    let cli_m = sim.add_machine(neat_sim::MachineSpec::amd_opteron_6168());
    let cli_dev = sim.add_device_thread(cli_m);
    let cli_nic = sim.spawn(
        cli_dev,
        Box::new(NicProc::new(
            "nic.cli",
            default_server_nic(1),
            NicMode::ClientHub,
        )),
    );
    let streams = Rc::new(RefCell::new(BTreeMap::new()));
    let client = sim.spawn(
        sim.hw_thread(cli_m, 0, 0),
        Box::new(FetchClient::new(cli_nic, streams.clone())),
    );
    sim.send_external(
        cli_nic,
        Msg::Announce {
            queue: 0,
            head: client,
        },
    );

    // Cable the two NICs together.
    sim.send_external(
        srv_nic,
        Msg::SetNeighbor {
            role: Role::PeerNic,
            pid: cli_nic,
        },
    );
    sim.send_external(
        cli_nic,
        Msg::SetNeighbor {
            role: Role::PeerNic,
            pid: srv_nic,
        },
    );

    sim.run_until(Time::from_millis(500));
    let events = sim.events_dispatched();
    let out = streams.borrow().clone();
    drop(sim);
    // Every in-flight PktBuf was delivered or dropped with the sim: the
    // refcount accounting must balance (tentpole teardown invariant).
    neat_net::pktbuf::assert_quiescent();
    (out, events)
}

/// The expected full response stream of connection `idx`.
fn expected_stream(idx: usize) -> Vec<u8> {
    let mut s = Vec::with_capacity(REQUESTS * RESP_LEN);
    for k in 0..REQUESTS {
        let req = request(idx, k);
        for _ in 0..ECHO_FACTOR {
            s.extend_from_slice(&req);
        }
    }
    s
}

/// Batching on vs off: byte-identical application-visible streams, in
/// identical per-connection order — over the full NIC/driver/stack path.
#[test]
fn batched_and_unbatched_streams_identical() {
    let (unbatched, _) = run(0);
    let (batched, _) = run(2_000);

    assert_eq!(unbatched.len(), CONNS, "all connections completed");
    for i in 0..CONNS {
        assert_eq!(
            unbatched.get(&i).map(|s| s.len()),
            Some(REQUESTS * RESP_LEN),
            "conn {i} did not finish its workload unbatched"
        );
        assert_eq!(
            unbatched.get(&i),
            Some(&expected_stream(i)),
            "conn {i} stream corrupted"
        );
    }
    assert_eq!(
        unbatched, batched,
        "batching must not change any application-visible byte"
    );
}

/// Fixed-seed determinism with batching enabled: same seed, same history.
#[test]
fn batched_run_is_deterministic() {
    let a = run(2_000);
    let b = run(2_000);
    assert_eq!(a.1, b.1, "event counts diverged across identical runs");
    assert_eq!(a.0, b.0, "streams diverged across identical runs");
}

/// The zero-copy plumbing actually engages on this path: header strips
/// are windowed handles (no payload copy), and the pool recycles grants.
#[test]
fn zero_copy_pool_engages() {
    let (streams, _) = run(2_000);
    assert_eq!(streams.len(), CONNS);
    let stats = neat_net::pktbuf::stats();
    assert!(
        stats.copies_avoided > 0,
        "classify_rx should strip headers without copying: {stats:?}"
    );
    assert!(stats.grants > 0, "frames are born from the pool");
}
