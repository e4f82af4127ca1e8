//! Robustness under adverse network conditions (smoltcp-style fault
//! injection at the NIC), plus end-to-end exercises of the UDP datagram
//! plane and the §3.8 security property on live connection assignments.

use neat::config::NeatConfig;
use neat::security::AslrObserver;
use neat_apps::scenario::{Testbed, TestbedSpec, Workload};
use neat_nic::FaultConfig;
use neat_sim::Time;

#[test]
fn packet_loss_never_corrupts_data() {
    // 5% of inbound frames at the server NIC vanish; TCP retransmission
    // must deliver every request eventually, and every response body must
    // still be exactly the 20-byte file.
    let mut spec = TestbedSpec::amd(NeatConfig::single(2), 3);
    spec.clients = 4;
    spec.workload = Workload {
        conns_per_client: 4,
        requests_per_conn: 50,
        timeout_ns: 20_000_000_000,
        ..Workload::default()
    };
    spec.wire_faults = FaultConfig {
        drop_pct: 5,
        ..Default::default()
    };
    let mut tb = Testbed::build(spec);
    let r = tb.measure(Time::from_millis(200), Time::from_millis(800));
    assert!(r.requests > 1_000, "progress under loss: {r:?}");
    let served: u64 = tb
        .web_metrics
        .iter()
        .map(|m| m.borrow().requests_served)
        .sum();
    let bytes: u64 = tb.web_metrics.iter().map(|m| m.borrow().bytes_sent).sum();
    assert_eq!(bytes, served * 20, "every body is exactly the 20-byte file");
    // Client-side: completed responses all carried 20 bytes.
    let completed: u64 = tb.client_metrics.iter().map(|m| m.borrow().completed).sum();
    let rbytes: u64 = tb
        .client_metrics
        .iter()
        .map(|m| m.borrow().response_bytes)
        .sum();
    assert_eq!(rbytes, completed * 20, "no truncated or duplicated bodies");
}

#[test]
fn corruption_is_detected_and_survived() {
    // 3% of inbound frames get one bit flipped. Checksums must catch them
    // (they become losses), and the stream stays byte-exact.
    let mut spec = TestbedSpec::amd(NeatConfig::single(2), 3);
    spec.clients = 4;
    spec.workload = Workload {
        conns_per_client: 4,
        requests_per_conn: 50,
        timeout_ns: 20_000_000_000,
        ..Workload::default()
    };
    spec.wire_faults = FaultConfig {
        corrupt_pct: 3,
        ..Default::default()
    };
    let mut tb = Testbed::build(spec);
    let r = tb.measure(Time::from_millis(200), Time::from_millis(800));
    assert!(r.requests > 1_000, "progress under corruption: {r:?}");
    let completed: u64 = tb.client_metrics.iter().map(|m| m.borrow().completed).sum();
    let rbytes: u64 = tb
        .client_metrics
        .iter()
        .map(|m| m.borrow().response_bytes)
        .sum();
    assert_eq!(
        rbytes,
        completed * 20,
        "a single flipped bit must never reach the application"
    );
}

#[test]
fn random_assignment_measured_on_live_connections() {
    // §3.8: the library binds each active open to a random replica, and
    // incoming connections spread via the NIC hash. Measure the actual
    // per-connection replica stream observed by the web servers.
    let mut spec = TestbedSpec::amd(NeatConfig::single(3), 3);
    spec.clients = 6;
    spec.workload = Workload {
        conns_per_client: 4,
        requests_per_conn: 5, // heavy connection churn
        ..Workload::default()
    };
    let mut tb = Testbed::build(spec);
    tb.sim.run_until(Time::from_millis(600));
    let mut obs = AslrObserver::new();
    for m in &tb.web_metrics {
        for pid in &m.borrow().served_by {
            obs.record(*pid);
        }
    }
    assert!(
        obs.len() > 200,
        "enough connections observed: {}",
        obs.len()
    );
    assert_eq!(obs.distinct_layouts(), 3, "all three replicas serve");
    assert!(
        obs.entropy_bits() > 1.2,
        "assignment entropy ≈ log2(3): {}",
        obs.entropy_bits()
    );
}

#[test]
fn udp_datagrams_flow_end_to_end() {
    // Exercise the UDP plane through a full deployment, in both replica
    // shapes: an app binds a port on a replica, the harness injects
    // datagrams at the replica's head as if from the wire, the echo goes
    // back out through the server NIC, and a datagram for an unbound port
    // is answered with ICMP port-unreachable.
    use neat::msg::Msg;
    use neat::replica::Role;
    use neat_apps::scenario::{CLIENT_IP, CLIENT_MAC, SERVER_IP, SERVER_MAC};
    use neat_net::icmp::{IcmpMessage, PORT_UNREACHABLE};
    use neat_net::ipv4::IpProtocol;
    use neat_net::udp::UdpHeader;
    use neat_sim::{Ctx, Event, ProcId, Process};
    use std::cell::RefCell;
    use std::rc::Rc;

    type Received = Rc<RefCell<Vec<(u16, Vec<u8>)>>>;
    type OnWire = Rc<RefCell<Vec<(IpProtocol, Vec<u8>)>>>;

    struct UdpEcho {
        stack: ProcId,
        got: Received,
    }
    impl Process<Msg> for UdpEcho {
        fn name(&self) -> String {
            "udp-echo".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
            match ev {
                Event::Start => {
                    ctx.send(
                        self.stack,
                        Msg::UdpBind {
                            port: 6969,
                            app: ctx.self_id,
                        },
                    );
                }
                Event::Message {
                    msg: Msg::UdpData { port, src, data },
                    ..
                } => {
                    self.got.borrow_mut().push((port, data.clone()));
                    // Echo it back, reversed (like smoltcp's example).
                    let mut rev = data;
                    rev.reverse();
                    ctx.send(
                        self.stack,
                        Msg::UdpTx {
                            src_port: port,
                            dst: src,
                            data: rev,
                        },
                    );
                }
                _ => {}
            }
        }
    }

    /// Stands in for the client NIC: records what the server puts on the
    /// wire as (IP protocol, L4 bytes).
    struct WireTap {
        seen: OnWire,
    }
    impl Process<Msg> for WireTap {
        fn name(&self) -> String {
            "wire-tap".into()
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
            let Event::Message {
                msg: Msg::WireFrame(frame),
                ..
            } = ev
            else {
                return;
            };
            let Ok((_, off)) = neat_net::EthernetFrame::parse(&frame) else {
                return;
            };
            if let Ok((ip, range)) = neat_net::Ipv4Header::parse(&frame[off..]) {
                assert_eq!((ip.src, ip.dst), (SERVER_IP, CLIENT_IP));
                let l4 = frame[off..][range].to_vec();
                self.seen.borrow_mut().push((ip.protocol, l4));
            }
        }
    }

    let frame_to = |port: u16, payload: &[u8]| {
        let dgram = UdpHeader::emit(5353, port, payload, CLIENT_IP, SERVER_IP);
        let ip = neat_net::Ipv4Header::new(CLIENT_IP, SERVER_IP, IpProtocol::Udp, dgram.len())
            .emit(&dgram);
        let frame = neat_net::EthernetFrame {
            dst: SERVER_MAC,
            src: CLIENT_MAC,
            ethertype: neat_net::EtherType::Ipv4,
        }
        .emit(&ip);
        (dgram, frame)
    };

    for cfg in [NeatConfig::single(2), NeatConfig::multi(1)] {
        let shape = cfg.mode;
        let mut spec = TestbedSpec::amd(cfg, 1);
        spec.clients = 1;
        spec.workload = Workload {
            conns_per_client: 1,
            requests_per_conn: 5,
            ..Workload::default()
        };
        let mut tb = Testbed::build(spec);
        // Replica 0's ingress head (deterministic path, past the NIC's
        // steering) and the process that owns its UDP plane.
        let pid_of = |roles: [Role; 2]| {
            let comps = &tb.deployment.comp_pids[0];
            let found = comps.iter().find(|(r, _)| roles.contains(r));
            found.expect("replica 0 has the component").1
        };
        let head = pid_of([Role::Single, Role::Pf]);
        let udp = pid_of([Role::Single, Role::Udp]);
        let got = Rc::new(RefCell::new(Vec::new()));
        let seen: OnWire = Rc::new(RefCell::new(Vec::new()));
        let web_thread = tb.web_threads[0];
        tb.sim.spawn(
            web_thread,
            Box::new(UdpEcho {
                stack: udp,
                got: got.clone(),
            }),
        );
        tb.sim.run_until(tb.sim.now() + Time::from_millis(5));
        // From here on the server's cable ends in the tap.
        let tap = tb
            .sim
            .spawn(web_thread, Box::new(WireTap { seen: seen.clone() }));
        tb.sim.send_external(
            tb.deployment.nic,
            Msg::SetNeighbor {
                role: Role::PeerNic,
                pid: tap,
            },
        );

        let (_, bound) = frame_to(6969, b"abcdefg");
        let (stray, unbound) = frame_to(7070, b"nobody home");
        tb.sim.send_external(head, Msg::NetRx(bound.into()));
        tb.sim.send_external(head, Msg::NetRx(unbound.into()));
        tb.sim.run_until(tb.sim.now() + Time::from_millis(10));

        let got = got.borrow();
        assert_eq!(got.len(), 1, "{shape:?}: delivered to the bound app only");
        assert_eq!(got[0].0, 6969);
        assert_eq!(got[0].1, b"abcdefg");

        let seen = seen.borrow();
        let echoes: Vec<_> = seen.iter().filter(|f| f.0 == IpProtocol::Udp).collect();
        assert_eq!(echoes.len(), 1, "{shape:?}: one echo on the wire");
        let (h, range) = UdpHeader::parse(&echoes[0].1, SERVER_IP, CLIENT_IP).unwrap();
        assert_eq!((h.src_port, h.dst_port), (6969, 5353));
        assert_eq!(&echoes[0].1[range], b"gfedcba");

        let icmps: Vec<_> = seen.iter().filter(|f| f.0 == IpProtocol::Icmp).collect();
        assert_eq!(icmps.len(), 1, "{shape:?}: one ICMP for the unbound port");
        match IcmpMessage::parse(&icmps[0].1).unwrap() {
            IcmpMessage::DestUnreachable { code, original } => {
                assert_eq!(code, PORT_UNREACHABLE);
                assert!(
                    original.windows(8).any(|w| w == &stray[..8]),
                    "{shape:?}: quotes the offending UDP header"
                );
            }
            other => panic!("{shape:?}: expected port-unreachable, got {other:?}"),
        }
    }
}
