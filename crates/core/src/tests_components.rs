//! Component-level tests: drive individual NEaT processes inside a
//! minimal simulation and observe their message behaviour directly
//! (the integration tests in `tests/` cover full deployments).

use crate::driver::DriverProc;
use crate::msg::Msg;
use crate::replica::Role;
use crate::syscall::SyscallProc;
use neat_sim::{Ctx, Event, MachineSpec, ProcId, Process, Sim, SimConfig, Time};
use std::cell::RefCell;
use std::rc::Rc;

/// A probe process recording every message it receives.
struct Probe {
    log: Rc<RefCell<Vec<String>>>,
}

impl Probe {
    fn describe(msg: &Msg) -> String {
        match msg {
            Msg::NetRx(f) => format!("NetRx({})", f.len()),
            Msg::HostTx(f) => format!("HostTx({})", f.len()),
            Msg::RxFrame { queue, frame } => format!("RxFrame(q{queue},{})", frame.len()),
            Msg::Listen { port, .. } => format!("Listen({port})"),
            Msg::ListenOk { port } => format!("ListenOk({port})"),
            Msg::SysListenDone { port } => format!("SysListenDone({port})"),
            Msg::NicGrowQueues { n } => format!("NicGrowQueues({n})"),
            other => format!("{other:?}").chars().take(24).collect(),
        }
    }
}

impl Process<Msg> for Probe {
    fn name(&self) -> String {
        "probe".into()
    }
    fn on_event(&mut self, _ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        if let Event::Message { msg, .. } = ev {
            self.log.borrow_mut().push(Self::describe(&msg));
        }
    }
}

fn mini_sim() -> (Sim<Msg>, Vec<neat_sim::HwThreadId>) {
    let mut sim: Sim<Msg> = Sim::new(SimConfig::default());
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let threads = (0..6).map(|c| sim.hw_thread(m, c, 0)).collect();
    (sim, threads)
}

fn probe(sim: &mut Sim<Msg>, t: neat_sim::HwThreadId) -> (ProcId, Rc<RefCell<Vec<String>>>) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let pid = sim.spawn(t, Box::new(Probe { log: log.clone() }));
    (pid, log)
}

#[test]
fn driver_forwards_rx_only_after_announce() {
    let (mut sim, th) = mini_sim();
    let (nic, _nic_log) = probe(&mut sim, th[0]);
    let (head, head_log) = probe(&mut sim, th[1]);
    let drv = sim.spawn(th[2], Box::new(DriverProc::new("drv", nic, 2)));
    sim.run_until(Time::from_micros(10));

    // Before the replica announces itself: frames are held (dropped).
    sim.send_external(
        drv,
        Msg::RxFrame {
            queue: 0,
            frame: vec![0; 60].into(),
        },
    );
    sim.run_until(Time::from_micros(50));
    assert!(
        head_log.borrow().is_empty(),
        "no forwarding before announce"
    );

    // Announce, then frames flow.
    sim.send_external(drv, Msg::Announce { queue: 0, head });
    sim.send_external(
        drv,
        Msg::RxFrame {
            queue: 0,
            frame: vec![0; 60].into(),
        },
    );
    sim.run_until(Time::from_micros(100));
    assert_eq!(head_log.borrow().as_slice(), ["NetRx(60)"]);
}

#[test]
fn driver_stops_forwarding_on_replica_down() {
    let (mut sim, th) = mini_sim();
    let (nic, _) = probe(&mut sim, th[0]);
    let (head, head_log) = probe(&mut sim, th[1]);
    let drv = sim.spawn(th[2], Box::new(DriverProc::new("drv", nic, 1)));
    sim.run_until(Time::from_micros(10));
    sim.send_external(drv, Msg::Announce { queue: 0, head });
    sim.send_external(
        drv,
        Msg::RxFrame {
            queue: 0,
            frame: vec![1; 60].into(),
        },
    );
    sim.run_until(Time::from_micros(50));
    assert_eq!(head_log.borrow().len(), 1);

    sim.send_external(drv, Msg::ReplicaDown { queue: 0 });
    sim.send_external(
        drv,
        Msg::RxFrame {
            queue: 0,
            frame: vec![2; 60].into(),
        },
    );
    sim.run_until(Time::from_micros(100));
    assert_eq!(
        head_log.borrow().len(),
        1,
        "recovery hold: no packets to a down replica (§3.6)"
    );
}

#[test]
fn driver_tx_path_reaches_nic() {
    let (mut sim, th) = mini_sim();
    let (nic, nic_log) = probe(&mut sim, th[0]);
    let drv = sim.spawn(th[2], Box::new(DriverProc::new("drv", nic, 1)));
    sim.run_until(Time::from_micros(10));
    sim.send_external(drv, Msg::NetTx(vec![9; 100].into()));
    sim.run_until(Time::from_micros(50));
    assert_eq!(nic_log.borrow().as_slice(), ["HostTx(100)"]);
}

#[test]
fn driver_forwards_control_plane_to_nic() {
    let (mut sim, th) = mini_sim();
    let (nic, nic_log) = probe(&mut sim, th[0]);
    let drv = sim.spawn(th[2], Box::new(DriverProc::new("drv", nic, 1)));
    sim.run_until(Time::from_micros(10));
    sim.send_external(drv, Msg::NicGrowQueues { n: 3 });
    sim.run_until(Time::from_micros(50));
    assert_eq!(nic_log.borrow().as_slice(), ["NicGrowQueues(3)"]);
}

#[test]
fn syscall_replicates_listen_across_replicas() {
    let (mut sim, th) = mini_sim();
    let (r1, r1_log) = probe(&mut sim, th[0]);
    let (r2, r2_log) = probe(&mut sim, th[1]);
    let (app, app_log) = probe(&mut sim, th[3]);
    let sys = sim.spawn(th[2], Box::new(SyscallProc::new("syscall", vec![r1, r2])));
    sim.run_until(Time::from_micros(10));

    sim.send_external(sys, Msg::SysListen { port: 80, app });
    sim.run_until(Time::from_micros(50));
    assert_eq!(r1_log.borrow().as_slice(), ["Listen(80)"]);
    assert_eq!(r2_log.borrow().as_slice(), ["Listen(80)"]);
    assert!(
        app_log.borrow().is_empty(),
        "not done until all subsockets ack"
    );

    // Both replicas acknowledge; only then does the app learn.
    sim.send_external(sys, Msg::ListenOk { port: 80 });
    sim.run_until(Time::from_micros(80));
    assert!(app_log.borrow().is_empty(), "one ack is not enough");
    sim.send_external(sys, Msg::ListenOk { port: 80 });
    sim.run_until(Time::from_micros(120));
    assert_eq!(app_log.borrow().as_slice(), ["SysListenDone(80)"]);
}

#[test]
fn syscall_tracks_replica_lifecycle() {
    let (mut sim, th) = mini_sim();
    let (r1, r1_log) = probe(&mut sim, th[0]);
    let (r2, r2_log) = probe(&mut sim, th[1]);
    let (app, _) = probe(&mut sim, th[3]);
    let sys = sim.spawn(th[2], Box::new(SyscallProc::new("syscall", vec![r1])));
    sim.run_until(Time::from_micros(10));

    // r1 is replaced by r2 (restart), then a new listen goes to r2 only.
    sim.send_external(sys, Msg::ReplicaRestarted { old: r1, new: r2 });
    sim.send_external(sys, Msg::SysListen { port: 81, app });
    sim.run_until(Time::from_micros(60));
    assert!(r1_log.borrow().is_empty());
    assert_eq!(r2_log.borrow().as_slice(), ["Listen(81)"]);
}

#[test]
fn nic_proc_serializes_and_links() {
    // A server NIC proc forwards wire frames to the driver with queue
    // steering, and transmits host frames to its peer with TSO.
    use crate::nic_proc::{default_server_nic, NicMode, NicProc};
    let (mut sim, th) = mini_sim();
    let (drv, drv_log) = probe(&mut sim, th[0]);
    let (peer, peer_log) = probe(&mut sim, th[1]);
    let m = sim.machine_of_thread(th[0]);
    let dev = sim.add_device_thread(m);
    let nic = sim.spawn(
        dev,
        Box::new(NicProc::new(
            "nic",
            default_server_nic(2),
            NicMode::Server { driver: drv },
        )),
    );
    sim.send_external(
        nic,
        Msg::SetNeighbor {
            role: Role::PeerNic,
            pid: peer,
        },
    );
    sim.run_until(Time::from_micros(10));

    // RX: a TCP frame gets steered and forwarded to the driver.
    let tcp = neat_net::TcpHeader::new(
        1234,
        80,
        neat_net::SeqNum(0),
        neat_net::SeqNum(0),
        neat_net::TcpFlags::SYN,
    )
    .emit(
        &[],
        std::net::Ipv4Addr::new(1, 1, 1, 1),
        std::net::Ipv4Addr::new(2, 2, 2, 2),
    );
    let ip = neat_net::Ipv4Header::new(
        std::net::Ipv4Addr::new(1, 1, 1, 1),
        std::net::Ipv4Addr::new(2, 2, 2, 2),
        neat_net::ipv4::IpProtocol::Tcp,
        tcp.len(),
    )
    .emit(&tcp);
    let frame = neat_net::EthernetFrame {
        dst: neat_net::MacAddr::local(1),
        src: neat_net::MacAddr::local(2),
        ethertype: neat_net::EtherType::Ipv4,
    }
    .emit(&ip);
    sim.send_external(nic, Msg::WireFrame(frame.clone().into()));
    sim.run_until(Time::from_micros(50));
    assert_eq!(drv_log.borrow().len(), 1);
    assert!(drv_log.borrow()[0].starts_with("RxFrame"));

    // TX: a host frame goes out to the peer NIC as a wire frame.
    sim.send_external(nic, Msg::HostTx(frame.into()));
    sim.run_until(Time::from_micros(100));
    assert_eq!(peer_log.borrow().len(), 1);
}

#[test]
fn loopback_connects_within_one_replica() {
    // §3.3: each replica implements its own loopback device. An app
    // connecting to the server's own IP is served without the NIC or
    // driver ever seeing a frame.
    use crate::sockets::{LibEvent, SocketLib};
    use crate::stack_single::SingleStackProc;

    struct LoopApp {
        lib: SocketLib,
        server_ip: std::net::Ipv4Addr,
        got: Rc<RefCell<Vec<u8>>>,
        fd: Option<u32>,
    }
    impl Process<Msg> for LoopApp {
        fn name(&self) -> String {
            "loop-app".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
            match ev {
                Event::Start => {
                    self.lib.listen(ctx, 7777).unwrap();
                }
                Event::Message { msg, .. } => {
                    for e in self.lib.handle(ctx, msg) {
                        match e {
                            LibEvent::ListenReady { .. } => {
                                let fd = self.lib.connect(ctx, (self.server_ip, 7777)).unwrap();
                                self.fd = Some(fd);
                            }
                            LibEvent::Connected { fd } => {
                                self.lib
                                    .send(ctx, fd, b"over the loopback".to_vec())
                                    .unwrap();
                            }
                            LibEvent::Readable { fd } => {
                                // Server side of the same app pulls the bytes.
                                let data = self.lib.recv(ctx, fd).unwrap();
                                self.got.borrow_mut().extend_from_slice(&data);
                            }
                            _ => {}
                        }
                    }
                }
                Event::Timer { .. } => {}
            }
        }
    }

    let (mut sim, th) = mini_sim();
    let (fake_driver, drv_log) = probe(&mut sim, th[0]);
    let ip = std::net::Ipv4Addr::new(192, 168, 69, 1);
    let stack = sim.spawn(
        th[1],
        Box::new(SingleStackProc::new(
            "neat.0",
            0,
            fake_driver,
            ProcId(0),
            ip,
            neat_net::MacAddr::local(1),
            &crate::config::NeatConfig {
                tcp: neat_tcp::TcpConfig::default(),
                ..crate::config::NeatConfig::single(1)
            },
            vec![],
        )),
    );
    let got = Rc::new(RefCell::new(Vec::new()));
    let lib = SocketLib::new(ProcId(0), vec![stack], None);
    sim.spawn(
        th[2],
        Box::new(LoopApp {
            lib,
            server_ip: ip,
            got: got.clone(),
            fd: None,
        }),
    );
    sim.run_until(Time::from_millis(50));
    assert_eq!(
        got.borrow().as_slice(),
        b"over the loopback",
        "data delivered through the replica's loopback"
    );
    // The driver saw the replica announce itself, but no data frames.
    assert!(
        drv_log.borrow().iter().all(|m| !m.starts_with("NetTx")),
        "loopback traffic must not reach the driver: {:?}",
        drv_log.borrow()
    );
}

#[test]
fn crashed_replica_fails_inflight_connects_without_leaking() {
    // §3.6 + the non-blocking API: a SYN sent to a replica that dies
    // before answering must surface `ConnectFailed(ReplicaLost)` and must
    // not leak its `pending_connect` token; fds bound to the dead replica
    // are reset; and the whole reap comes out in ascending fd order, not
    // in some hash map's.
    use crate::msg::ConnHandle;
    use crate::sockets::{LibEvent, SockErr, SocketLib};

    const REMOTE: (std::net::Ipv4Addr, u16) = (std::net::Ipv4Addr::new(192, 168, 69, 1), 80);

    struct App {
        lib: SocketLib,
        events: Rc<RefCell<Vec<LibEvent>>>,
        /// `(open_conns, pending_connects)` after the last event.
        counts: Rc<RefCell<(usize, usize)>>,
    }
    impl Process<Msg> for App {
        fn name(&self) -> String {
            "app".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
            match ev {
                Event::Start => {
                    for _ in 0..3 {
                        self.lib.connect(ctx, REMOTE).unwrap();
                    }
                }
                Event::Message { msg, .. } => {
                    let incoming = matches!(msg, Msg::Incoming { .. });
                    self.events.borrow_mut().extend(self.lib.handle(ctx, msg));
                    // Interleave bound and connecting fds.
                    if incoming {
                        self.lib.connect(ctx, REMOTE).unwrap();
                    }
                }
                Event::Timer { .. } => {}
            }
            *self.counts.borrow_mut() = (self.lib.open_conns(), self.lib.pending_connects());
        }
    }

    let (mut sim, th) = mini_sim();
    // The replica swallows the Connects and never answers (it will "crash").
    let (replica, _) = probe(&mut sim, th[0]);
    let (replacement, _) = probe(&mut sim, th[1]);
    let events = Rc::new(RefCell::new(Vec::new()));
    let counts = Rc::new(RefCell::new((0, 0)));
    let app = sim.spawn(
        th[2],
        Box::new(App {
            lib: SocketLib::new(ProcId(0), vec![replica], None),
            events: events.clone(),
            counts: counts.clone(),
        }),
    );
    for sock in 1..=3 {
        let conn = ConnHandle {
            stack: replica,
            sock: neat_tcp::SocketId(sock),
        };
        sim.send_external(app, Msg::Incoming { port: 80, conn });
    }
    sim.run_until(Time::from_micros(50));
    assert_eq!(*counts.borrow(), (3, 6), "3 accepted, 6 connects in flight");
    let before = events.borrow().len();

    // The supervisor reports the restart; the library reconciles.
    sim.send_external(
        app,
        Msg::ReplicaRestarted {
            old: replica,
            new: replacement,
        },
    );
    sim.run_until(Time::from_micros(100));
    // fds 3–5 connect at start; then accept, connect, accept, ... from 6.
    let lost = |fd| LibEvent::ConnectFailed {
        fd,
        err: SockErr::ReplicaLost,
    };
    let reset = |fd| LibEvent::Closed {
        fd,
        err: Some(SockErr::ConnReset),
    };
    let want = [
        lost(3),
        lost(4),
        lost(5),
        reset(6),
        lost(7),
        reset(8),
        lost(9),
        reset(10),
        lost(11),
    ];
    assert_eq!(
        events.borrow()[before..],
        want,
        "in-flight connects surface as ReplicaLost, bound fds as resets, in fd order"
    );
    assert_eq!(*counts.borrow(), (0, 0), "every fd and token reclaimed");
}

// ----------------------------------------------------------------------
// The shared stack host's contract, checked for both replica shapes.
// ----------------------------------------------------------------------

/// A probe that also plays a script: on start it sends `script` to `to`,
/// then records what comes back, like [`Probe`].
struct Actor {
    to: ProcId,
    script: Vec<Msg>,
    log: Rc<RefCell<Vec<String>>>,
}

impl Process<Msg> for Actor {
    fn name(&self) -> String {
        "actor".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => {
                for msg in self.script.drain(..) {
                    ctx.send(self.to, msg);
                }
            }
            Event::Message { msg, .. } => self.log.borrow_mut().push(Probe::describe(&msg)),
            Event::Timer { .. } => {}
        }
    }
}

/// Spawn one stack host of either shape; `below` stands in for the driver
/// (single-component) or the IP process (multi-component).
fn spawn_stack_host(
    sim: &mut Sim<Msg>,
    t: neat_sim::HwThreadId,
    single: bool,
    below: ProcId,
) -> ProcId {
    let cfg = crate::config::NeatConfig::single(1);
    let sup = ProcId(0);
    if single {
        let p = crate::stack_single::SingleStackProc::new(
            "neat.0",
            0,
            below,
            sup,
            cfg.ip,
            cfg.mac,
            &cfg,
            vec![],
        );
        sim.spawn(t, Box::new(p))
    } else {
        let p = crate::tcp_comp::TcpProc::new("tcp.0", 0, sup, Some(below), cfg.ip, &cfg);
        sim.spawn(t, Box::new(p))
    }
}

#[test]
fn terminating_host_fails_connects_and_reports_drained_once() {
    // §3.4 lazy termination: a terminating replica takes no new work. A
    // refused `Connect` must be answered — `SocketLib` only reclaims a
    // `pending_connect` token on `ConnFailed`/`ReplicaRestarted`, never on
    // `ReplicaRemoved` — and `Drained` goes to whoever sent `Terminate`,
    // exactly once, however many flushes follow.
    for single in [true, false] {
        let (mut sim, th) = mini_sim();
        let (below, _) = probe(&mut sim, th[0]);
        let (app, app_log) = probe(&mut sim, th[1]);
        let stack = spawn_stack_host(&mut sim, th[2], single, below);
        let sup_log = Rc::new(RefCell::new(Vec::new()));
        let script = vec![
            // Before termination socket ops are served: the reply proves
            // the op reached the host in this shape.
            Msg::Listen { port: 80, app },
            Msg::Terminate,
            Msg::Listen { port: 81, app },
            Msg::Connect {
                remote: (std::net::Ipv4Addr::new(10, 0, 0, 9), 80),
                app,
                token: 9,
            },
            // Ops on existing sockets still flush; no second `Drained`.
            Msg::ConnClose {
                sock: neat_tcp::SocketId(1),
            },
        ];
        sim.spawn(
            th[3],
            Box::new(Actor {
                to: stack,
                script,
                log: sup_log.clone(),
            }),
        );
        sim.run_until(Time::from_millis(5));
        assert_eq!(
            app_log.borrow().as_slice(),
            ["ConnFailed { token: 9 }"],
            "single={single}: refused connect is answered, nothing else reaches the app"
        );
        assert_eq!(
            sup_log.borrow().as_slice(),
            ["ListenOk(80)", "Drained { queue: 0 }"],
            "single={single}: listen served before, refused after; drained once"
        );
    }
}

/// One sample of every [`Msg`] variant, as a chain: each arm yields the
/// next variant's sample and the last yields `None`. The match has no
/// wildcard, so a new variant fails to compile here — link it in.
fn next_sample(m: &Msg) -> Option<Msg> {
    let ip = std::net::Ipv4Addr::new(10, 0, 0, 9);
    let app = ProcId(77);
    let sock = neat_tcp::SocketId(1);
    let conn = crate::msg::ConnHandle {
        stack: ProcId(50),
        sock,
    };
    let flow = neat_net::FlowKey::tcp(ip, 1234, ip, 80);
    let pkt = || neat_net::PktBuf::from(vec![0u8; 60]);
    Some(match m {
        Msg::WireFrame(_) => Msg::RxFrame {
            queue: 0,
            frame: pkt(),
        },
        Msg::RxFrame { .. } => Msg::HostTx(pkt()),
        Msg::HostTx(_) => Msg::NicAddFilter { flow, queue: 0 },
        Msg::NicAddFilter { .. } => Msg::NicSetAccepting {
            queue: 0,
            accepting: true,
        },
        Msg::NicSetAccepting { .. } => Msg::NicGrowQueues { n: 2 },
        Msg::NicGrowQueues { .. } => Msg::NicSetTracking { on: true },
        Msg::NicSetTracking { .. } => Msg::NetRx(pkt()),
        Msg::NetRx(_) => Msg::NetTx(pkt()),
        Msg::NetTx(_) => Msg::Announce {
            queue: 0,
            head: app,
        },
        Msg::Announce { .. } => Msg::PfPass(pkt()),
        Msg::PfPass(_) => Msg::IpRxTcp {
            src: ip,
            seg: pkt(),
        },
        Msg::IpRxTcp { .. } => Msg::IpRxUdp {
            src: ip,
            dgram: pkt(),
        },
        Msg::IpRxUdp { .. } => Msg::IpTx {
            dst: ip,
            protocol: 6,
            payload: vec![],
        },
        Msg::IpTx { .. } => Msg::SetNeighbor {
            role: Role::Ip,
            pid: app,
        },
        Msg::SetNeighbor { .. } => Msg::Listen { port: 80, app },
        Msg::Listen { .. } => Msg::ListenOk { port: 80 },
        Msg::ListenOk { .. } => Msg::Connect {
            remote: (ip, 80),
            app,
            token: 1,
        },
        Msg::Connect { .. } => Msg::ConnOpen { conn, token: 1 },
        Msg::ConnOpen { .. } => Msg::ConnFailed { token: 1 },
        Msg::ConnFailed { .. } => Msg::Incoming { port: 80, conn },
        Msg::Incoming { .. } => Msg::ConnSend {
            sock,
            data: vec![1],
        },
        Msg::ConnSend { .. } => Msg::ConnData {
            conn,
            data: vec![1],
        },
        Msg::ConnData { .. } => Msg::ConnClose { sock },
        Msg::ConnClose { .. } => Msg::SetSockOpt {
            sock,
            opt: neat_tcp::SockOpt::InitialCwnd(10),
        },
        Msg::SetSockOpt { .. } => Msg::ConnEof { conn },
        Msg::ConnEof { .. } => Msg::ConnClosed {
            conn,
            aborted: false,
        },
        Msg::ConnClosed { .. } => Msg::UdpBind { port: 53, app },
        Msg::UdpBind { .. } => Msg::UdpTx {
            src_port: 53,
            dst: (ip, 53),
            data: vec![],
        },
        Msg::UdpTx { .. } => Msg::UdpData {
            port: 53,
            src: (ip, 53),
            data: vec![],
        },
        Msg::UdpData { .. } => Msg::SysListen { port: 80, app },
        Msg::SysListen { .. } => Msg::SysListenDone { port: 80 },
        Msg::SysListenDone { .. } => Msg::Crashed {
            pid: app,
            name: String::new(),
        },
        Msg::Crashed { .. } => Msg::ReplicaDown { queue: 0 },
        Msg::ReplicaDown { .. } => Msg::ReplicaRestarted { old: app, new: app },
        Msg::ReplicaRestarted { .. } => Msg::ReplicaAdded { stack: app },
        Msg::ReplicaAdded { .. } => Msg::ReplicaRemoved { stack: app },
        Msg::ReplicaRemoved { .. } => Msg::RegisterApp { app },
        Msg::RegisterApp { .. } => Msg::ScaleUp,
        Msg::ScaleUp => Msg::ScaleDown,
        Msg::ScaleDown => Msg::Drained { queue: 0 },
        Msg::Drained { .. } => Msg::Terminate,
        Msg::Terminate => Msg::SetBuddy { buddy: None },
        Msg::SetBuddy { .. } => Msg::ReplDelta {
            queue: 0,
            payload: crate::msg::ReplPayload {
                full: true,
                flows: vec![],
                closed: vec![],
            },
        },
        Msg::ReplDelta { .. } => Msg::ReplHandoff {
            queue: 0,
            old: app,
            to: app,
        },
        Msg::ReplHandoff { .. } => Msg::ReplRestore {
            old: app,
            flows: vec![],
        },
        Msg::ReplRestore { .. } => Msg::ReplRestored {
            queue: 0,
            flows: vec![flow],
        },
        Msg::ReplRestored { .. } => Msg::ConnMigrated {
            old: conn,
            new: conn,
            app_bytes: 0,
        },
        Msg::ConnMigrated { .. } => Msg::MigrateOut { to: app },
        Msg::MigrateOut { .. } => Msg::ReplForget { owner: app },
        Msg::ReplForget { .. } => Msg::Poison,
        Msg::Poison => return None,
    })
}

#[test]
fn is_sock_op_is_exactly_what_sock_server_handles() {
    // Every host routes on `Msg::is_sock_op()`; `SockServer::handle_app`
    // is what acts on the routed message. If the two disagree on any
    // variant, a socket op is either dropped by the hosts or flushed for
    // nothing — so a sixth op cannot be added to one and not the other.
    use crate::sock_server::SockServer;
    let ip = std::net::Ipv4Addr::new(10, 0, 0, 1);
    let mut next = Some(Msg::WireFrame(vec![0u8; 60].into()));
    let (mut variants, mut ops) = (0, 0);
    while let Some(m) = next {
        next = next_sample(&m);
        let what = Probe::describe(&m);
        let claimed = m.is_sock_op();
        let mut srv = SockServer::new(ip, neat_tcp::TcpConfig::default());
        let handled = srv.handle_app(ProcId(77), m, 0) != 0;
        assert_eq!(claimed, handled, "{what}: is_sock_op vs handle_app");
        variants += 1;
        ops += claimed as usize;
    }
    assert_eq!(ops, 5, "Listen, Connect, ConnSend, ConnClose, SetSockOpt");
    assert!(variants > 50, "the chain walked the whole enum: {variants}");
}
