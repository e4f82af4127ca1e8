//! Testbed assembly: a server machine running NEaT (or the monolithic
//! baseline), a client machine running httperf instances, and the 10GbE
//! link between them — the complete §6 experimental setup as one object.

use crate::httperf::{ClientMetrics, HttperfConfig, HttperfProc};
use crate::webserver::{FileStore, WebMetrics, WebServerProc};
use neat::boot::{boot_neat, spawn_nic, wire_link, NeatDeployment, NeatSlots};
use neat::config::{NeatConfig, StackMode};
use neat::msg::Msg;
use neat::nic_proc::{NicMode, NicProc};
use neat::placement::{Placement, Slot};
use neat::replica::ReplicaSlots;
use neat::sockets::SocketLib;
use neat_net::MacAddr;
use neat_sim::{HwThreadId, MachineId, MachineSpec, ProcId, Sim, SimConfig, Time};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);
pub const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 100);
pub const SERVER_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 1]);
pub const CLIENT_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 2]);
pub const BASE_PORT: u16 = 8000;

/// The client workload (httperf parameters).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Concurrent connections per httperf instance.
    pub conns_per_client: usize,
    /// Requests per connection (the paper uses 100, or 1 in §6.5).
    pub requests_per_conn: u32,
    /// Request path; `/file` is the 20-byte default.
    pub path: String,
    /// httperf request timeout.
    pub timeout_ns: u64,
    /// Think time between response and next request (0 = closed loop).
    pub think_ns: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            conns_per_client: 16,
            requests_per_conn: 100,
            path: "/file".into(),
            timeout_ns: 5_000_000_000,
            think_ns: 0,
        }
    }
}

/// How server-side processes map onto cores/threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPlan {
    /// Every component on a dedicated core, thread 0 only (the AMD
    /// layouts of Figure 6; also Xeon without HT).
    Dedicated,
    /// Exploit SMT: driver+SYSCALL share a core; replicas pack two per
    /// core; webs fill every remaining hardware thread (Figures 8/10).
    HtColocated,
}

/// Full testbed specification.
#[derive(Debug, Clone)]
pub struct TestbedSpec {
    pub server: MachineSpec,
    pub neat: NeatConfig,
    pub placement: PlacementPlan,
    pub web_instances: usize,
    /// Number of httperf processes (the paper uses 12).
    pub clients: usize,
    pub workload: Workload,
    /// Server-side keep-alive limit (lighttpd config; paper: 1000).
    pub server_max_reqs_per_conn: u32,
    /// Files served.
    pub files: FileStore,
    pub seed: u64,
    /// Link-level fault injection at the server NIC's RX path
    /// (drop/corrupt percentages, smoltcp-style).
    pub wire_faults: neat_nic::FaultConfig,
    /// Per-link message-coalescing horizon in nanoseconds (§3.4 batching;
    /// 0 disables — the `nobatch` ablation axis).
    pub batch_ns: u64,
    /// Override the web servers' per-request application cost in cycles
    /// (`None` = calibrated lighttpd). Benches set a small value to model
    /// a lightweight app and expose the stack's own throughput ceiling.
    pub web_request_cycles: Option<u64>,
    /// Congestion controller selected on both sides of every connection:
    /// the web servers set it on each accept, the httperf clients on each
    /// connect (the `cc_compare` bench compares controllers this way).
    /// `None` keeps the stacks' default.
    pub congestion: Option<neat_tcp::CongestionAlgo>,
}

impl TestbedSpec {
    /// The §6.3 AMD testbed with a given NEaT config and web count.
    pub fn amd(neat: NeatConfig, web_instances: usize) -> TestbedSpec {
        TestbedSpec {
            server: MachineSpec::amd_opteron_6168(),
            neat,
            placement: PlacementPlan::Dedicated,
            web_instances,
            clients: 12,
            workload: Workload::default(),
            server_max_reqs_per_conn: 1000,
            files: FileStore::paper_default(),
            seed: 0xCA5E,
            wire_faults: neat_nic::FaultConfig::default(),
            batch_ns: 2_000,
            web_request_cycles: None,
            congestion: None,
        }
    }

    /// The §6.4 Xeon testbed (HT colocation on by default).
    pub fn xeon(neat: NeatConfig, web_instances: usize) -> TestbedSpec {
        TestbedSpec {
            server: MachineSpec::xeon_e5520_dual(),
            placement: PlacementPlan::HtColocated,
            ..TestbedSpec::amd(neat, web_instances)
        }
    }
}

/// A built, running testbed.
pub struct Testbed {
    pub sim: Sim<Msg>,
    pub deployment: NeatDeployment,
    pub webs: Vec<ProcId>,
    pub web_metrics: Vec<Rc<RefCell<WebMetrics>>>,
    pub clients: Vec<ProcId>,
    pub client_metrics: Vec<Rc<RefCell<ClientMetrics>>>,
    /// Hardware thread of the driver (Table 2's subject).
    pub driver_thread: HwThreadId,
    pub web_threads: Vec<HwThreadId>,
    pub replica_threads: Vec<HwThreadId>,
}

/// One measurement window's aggregate report.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub duration: Time,
    pub requests: u64,
    pub krps: f64,
    pub mbps: f64,
    pub mean_latency: Time,
    pub p99_latency: Time,
    pub conn_errors: u64,
}

/// Slot layout before resolution to hardware-thread ids.
struct PreSlots {
    os: Slot,
    syscall: Slot,
    driver: Slot,
    replicas: Vec<(Slot, Option<Slot>)>,
    spare: Vec<Slot>,
}

impl Testbed {
    /// Build and boot the whole testbed. The system is run for a short
    /// boot phase (listeners replicated, ARP settled) before the load
    /// generators start.
    pub fn build(spec: TestbedSpec) -> Testbed {
        let nic = neat_nic::Nic::new(
            neat_nic::NicConfig {
                queue_pairs: spec.neat.replicas.max(1),
                ..Default::default()
            },
            neat_nic::FaultInjector::new(spec.wire_faults.clone(), spec.seed ^ 0xFA_17),
        );
        let (mut sim, [server_machine, client_machine], [server_nic, client_nic]) =
            two_machines(spec.seed, spec.batch_ns, &spec.server, nic);

        // --- server-side layout ---
        let (pre, web_slots) = layout_resolved(&spec);
        fn resolve(sim: &Sim<Msg>, m: MachineId, s: Slot) -> HwThreadId {
            sim.hw_thread(m, s.core, s.thread)
        }
        let to_hw = |s: Slot| resolve(&sim, server_machine, s);
        let slots = NeatSlots {
            os: to_hw(pre.os),
            syscall: to_hw(pre.syscall),
            driver: to_hw(pre.driver),
            replicas: pre
                .replicas
                .iter()
                .map(|&(a, ip)| match ip {
                    None => ReplicaSlots::Single(to_hw(a)),
                    Some(ip) => ReplicaSlots::Multi {
                        tcp: to_hw(a),
                        ip: to_hw(ip),
                    },
                })
                .collect(),
            spare: pre.spare.iter().map(|s| to_hw(*s)).collect(),
        };
        let driver_thread = slots.driver;
        // The thread of each replica's socket-owning head.
        let replica_threads = pre.replicas.iter().map(|&(a, _)| to_hw(a)).collect();

        let mut cfg = spec.neat.clone();
        cfg.ip = SERVER_IP;
        cfg.mac = SERVER_MAC;
        let arp_seed = vec![(CLIENT_IP, CLIENT_MAC)];
        let deployment = boot_neat(&mut sim, cfg, slots, server_nic, arp_seed);

        // --- web servers ---
        let mut webs = Vec::new();
        let mut web_metrics = Vec::new();
        let mut web_threads = Vec::new();
        for (i, slot) in web_slots.iter().enumerate() {
            let port = BASE_PORT + i as u16;
            let lib = SocketLib::new(
                deployment.syscall,
                deployment.sockets_heads.clone(),
                Some(deployment.supervisor),
            );
            let metrics = Rc::new(RefCell::new(WebMetrics::default()));
            let mut proc = WebServerProc::new(
                format!("web.{i}"),
                lib,
                spec.files.clone(),
                port,
                spec.server_max_reqs_per_conn,
                metrics.clone(),
            );
            if let Some(c) = spec.web_request_cycles {
                proc = proc.with_request_cycles(c);
            }
            if let Some(algo) = spec.congestion {
                proc = proc.with_congestion(algo);
            }
            let t = resolve(&sim, server_machine, *slot);
            web_threads.push(t);
            webs.push(sim.spawn(t, Box::new(proc)));
            web_metrics.push(metrics);
        }

        // --- boot phase: let listeners replicate before load arrives ---
        sim.run_until(Time::from_millis(5));

        let (clients, client_metrics) = spawn_clients(
            &mut sim,
            client_machine,
            client_nic,
            spec.clients,
            spec.web_instances,
            &spec.workload,
            spec.congestion,
        );

        Testbed {
            sim,
            deployment,
            webs,
            web_metrics,
            clients,
            client_metrics,
            driver_thread,
            web_threads,
            replica_threads,
        }
    }

    /// Sum of reported (error-adjusted) client requests so far.
    pub fn total_reported(&self) -> u64 {
        total(&self.client_metrics, ClientMetrics::reported_requests)
    }

    pub fn total_bytes(&self) -> u64 {
        total(&self.client_metrics, |m| m.response_bytes)
    }

    pub fn total_errors(&self) -> u64 {
        total(&self.client_metrics, |m| m.conn_errors)
    }

    /// Run a warmup, then measure a window; returns the report.
    pub fn measure(&mut self, warmup: Time, window: Time) -> RunReport {
        measure(&mut self.sim, &self.client_metrics, warmup, window)
    }
}

// ---------------------------------------------------------------------------
// The load-generator half, shared by both testbeds
// ---------------------------------------------------------------------------

type Metrics = [Rc<RefCell<ClientMetrics>>];

/// What both testbeds start from: the server and the load-generator
/// machine, and the server NIC (`nic`) cabled to the load generator's.
fn two_machines(
    seed: u64,
    batch_ns: u64,
    server: &MachineSpec,
    nic: neat_nic::Nic,
) -> (Sim<Msg>, [MachineId; 2], [ProcId; 2]) {
    let mut sim: Sim<Msg> = Sim::new(SimConfig {
        seed,
        batch_ns,
        ..SimConfig::default()
    });
    let server_machine = sim.add_machine(server.clone());
    let client_machine = sim.add_machine(MachineSpec::load_generator());
    let dev = sim.add_device_thread(server_machine);
    let mode = NicMode::Server { driver: ProcId(0) };
    let server_nic = sim.spawn(dev, Box::new(NicProc::new("nic.srv", nic, mode)));
    let client_nic = spawn_nic(&mut sim, client_machine, "nic.cli", 1, false);
    wire_link(&mut sim, server_nic, client_nic);
    let machines = [server_machine, client_machine];
    (sim, machines, [server_nic, client_nic])
}

/// Spawn `clients` httperf instances on the client machine, spread
/// round-robin over the `webs` server ports.
fn spawn_clients(
    sim: &mut Sim<Msg>,
    machine: MachineId,
    nic: ProcId,
    clients: usize,
    webs: usize,
    workload: &Workload,
    congestion: Option<neat_tcp::CongestionAlgo>,
) -> (Vec<ProcId>, Vec<Rc<RefCell<ClientMetrics>>>) {
    let mut pids = Vec::new();
    let mut all_metrics = Vec::new();
    for i in 0..clients {
        let port = BASE_PORT + (i % webs.max(1)) as u16;
        let range_lo = 16_000 + (i as u16) * 3_000;
        let cfg = HttperfConfig {
            target: (SERVER_IP, port),
            num_conns: workload.conns_per_client,
            requests_per_conn: workload.requests_per_conn,
            path: workload.path.clone(),
            timeout_ns: workload.timeout_ns,
            port_range: (range_lo, range_lo + 2_999),
            think_ns: workload.think_ns,
            congestion,
        };
        let metrics = Rc::new(RefCell::new(ClientMetrics::default()));
        let proc = HttperfProc::new(
            format!("httperf.{i}"),
            cfg,
            nic,
            CLIENT_IP,
            CLIENT_MAC,
            vec![(SERVER_IP, SERVER_MAC)],
            metrics.clone(),
        );
        let core = (i as u32) % MachineSpec::load_generator().cores;
        let t = sim.hw_thread(machine, core, 0);
        pids.push(sim.spawn(t, Box::new(proc)));
        all_metrics.push(metrics);
    }
    (pids, all_metrics)
}

fn total(metrics: &Metrics, of: impl Fn(&ClientMetrics) -> u64) -> u64 {
    metrics.iter().map(|m| of(&m.borrow())).sum()
}

fn merged_latency(metrics: &Metrics) -> neat_obs::Histogram {
    let mut h = neat_obs::Histogram::new();
    for m in metrics {
        h.merge(&m.borrow().latency);
    }
    h
}

/// Run a warmup, then measure a window over the clients' metrics.
fn measure(sim: &mut Sim<Msg>, metrics: &Metrics, warmup: Time, window: Time) -> RunReport {
    let t0 = sim.now();
    sim.run_until(t0 + warmup);
    let req0 = total(metrics, ClientMetrics::reported_requests);
    let bytes0 = total(metrics, |m| m.response_bytes);
    let err0 = total(metrics, |m| m.conn_errors);
    sim.reset_all_stats();
    // Metric values (counters, gauges, histograms) and the clients'
    // latency records restart with the window; registrations and handles
    // survive.
    neat_obs::reset();
    for m in metrics {
        m.borrow_mut().latency = neat_obs::Histogram::new();
    }
    let start = sim.now();
    sim.run_until(start + window);
    let duration = sim.now().since(start);
    // Publish engine-side gauges (per-thread utilisation, queue
    // high-water marks) into the registry for this window, plus the
    // packet-buffer and link-coalescing counters.
    sim.export_obs();
    neat_net::pktbuf::export_obs();
    let requests = total(metrics, ClientMetrics::reported_requests).saturating_sub(req0);
    let bytes = total(metrics, |m| m.response_bytes).saturating_sub(bytes0);
    let lat = merged_latency(metrics);
    RunReport {
        duration,
        requests,
        krps: requests as f64 / duration.as_secs_f64() / 1e3,
        mbps: bytes as f64 / 1e6 / duration.as_secs_f64(),
        mean_latency: Time::from_nanos(lat.mean()),
        p99_latency: Time::from_nanos(lat.quantile(0.99)),
        conn_errors: total(metrics, |m| m.conn_errors).saturating_sub(err0),
    }
}

/// Resolve a spec to its slot layout (split out for testability).
fn layout_resolved(spec: &TestbedSpec) -> (PreSlots, Vec<Slot>) {
    let m = &spec.server;
    let mut p = Placement::new(m.cores, m.threads_per_core);
    let mut replicas = Vec::new();
    let (os, syscall, driver) = match spec.placement {
        PlacementPlan::Dedicated => {
            let os_side = (p.dedicated_core(), p.dedicated_core(), p.dedicated_core());
            for _ in 0..spec.neat.replicas {
                replicas.push(match spec.neat.mode {
                    StackMode::Single => (p.dedicated_core(), None),
                    StackMode::Multi => {
                        let tcp = p.dedicated_core();
                        let ip = p.dedicated_core();
                        (tcp, Some(ip))
                    }
                });
            }
            os_side
        }
        PlacementPlan::HtColocated => {
            assert!(m.threads_per_core >= 2);
            // Figure 8/10: NIC Drv + SYSCALL share core 0; OS takes one
            // thread of core 1; stack replicas pack two per core on SMT
            // siblings starting from a fresh core; webs fill core 1's
            // second thread and then pack the remaining cores.
            let driver = p.at(0, 0);
            let syscall = p.at(0, 1);
            let os = p.at(1, 0);
            let next = |p: &mut Placement, idx: &mut u32| -> Slot {
                let s = Slot {
                    core: 2 + *idx / 2,
                    thread: *idx % 2,
                };
                *idx += 1;
                p.at(s.core, s.thread)
            };
            let mut idx = 0u32;
            match spec.neat.mode {
                StackMode::Single => {
                    for _ in 0..spec.neat.replicas {
                        replicas.push((next(&mut p, &mut idx), None));
                    }
                }
                StackMode::Multi => {
                    // Pair the TCP processes of consecutive replicas on one
                    // core and their IP processes on another (Figure 8c).
                    let mut tcps = Vec::new();
                    for _ in 0..spec.neat.replicas {
                        tcps.push(next(&mut p, &mut idx));
                    }
                    // Align IPs to a fresh core.
                    if idx % 2 == 1 {
                        idx += 1;
                    }
                    let mut ips = Vec::new();
                    for _ in 0..spec.neat.replicas {
                        ips.push(next(&mut p, &mut idx));
                    }
                    for (t, i) in tcps.into_iter().zip(ips) {
                        replicas.push((t, Some(i)));
                    }
                }
            }
            (os, syscall, driver)
        }
    };
    // Webs take what is left — on SMT machines the Dedicated plan still
    // uses one thread per core first — and the rest is spare.
    let mut webs = Vec::new();
    for _ in 0..spec.web_instances {
        webs.push(
            p.next_remaining()
                .expect("not enough cores for the web instances"),
        );
    }
    let pre = PreSlots {
        os,
        syscall,
        driver,
        replicas,
        spare: p.remaining(),
    };
    (pre, webs)
}

// ---------------------------------------------------------------------------
// Monolithic (Linux-like) testbed
// ---------------------------------------------------------------------------

/// Specification of a Linux-baseline testbed (§6.1).
#[derive(Debug, Clone)]
pub struct MonoTestbedSpec {
    pub server: MachineSpec,
    pub tuning: neat_monolith::MonoTuning,
    /// lighttpd instances — the paper runs one per core (AMD: 12) or one
    /// per hardware thread (Xeon: 16).
    pub web_instances: usize,
    pub clients: usize,
    pub workload: Workload,
    pub server_max_reqs_per_conn: u32,
    pub files: FileStore,
    pub seed: u64,
    /// Shared-memory cost factor of the machine (see `MonoShared`).
    pub hw_factor: f64,
}

/// Per-link message-coalescing horizon of the baseline: it models
/// NAPI-style interrupt moderation, the same 2 µs the NEaT testbed runs.
const MONO_BATCH_NS: u64 = 2_000;

impl MonoTestbedSpec {
    pub fn amd(tuning: neat_monolith::MonoTuning) -> MonoTestbedSpec {
        MonoTestbedSpec {
            server: MachineSpec::amd_opteron_6168(),
            tuning,
            web_instances: 12,
            clients: 12,
            workload: Workload::default(),
            server_max_reqs_per_conn: 1000,
            files: FileStore::paper_default(),
            seed: 0x11_u64,
            hw_factor: 1.0,
        }
    }

    /// The Xeon baseline: "16 lighttpd instances on each of the 8 cores /
    /// 16 threads" (§6.4).
    pub fn xeon(tuning: neat_monolith::MonoTuning) -> MonoTestbedSpec {
        MonoTestbedSpec {
            server: MachineSpec::xeon_e5520_dual(),
            web_instances: 16,
            clients: 16,
            hw_factor: 0.47,
            ..MonoTestbedSpec::amd(tuning)
        }
    }
}

/// A built Linux-baseline testbed.
pub struct MonoTestbed {
    pub sim: Sim<Msg>,
    pub deployment: neat_monolith::MonoDeployment,
    pub webs: Vec<ProcId>,
    pub web_metrics: Vec<Rc<RefCell<WebMetrics>>>,
    pub clients: Vec<ProcId>,
    pub client_metrics: Vec<Rc<RefCell<ClientMetrics>>>,
    pub web_threads: Vec<HwThreadId>,
}

impl MonoTestbed {
    pub fn build(spec: MonoTestbedSpec) -> MonoTestbed {
        // One kernel context (and one web) per hardware thread used.
        let m = &spec.server;
        let used = ((m.cores * m.threads_per_core) as usize).min(spec.web_instances);
        let nic_cfg = neat_nic::NicConfig {
            queue_pairs: used,
            tso: spec.tuning.tso,
        };
        let nic = neat_nic::Nic::new(nic_cfg, neat_nic::FaultInjector::disabled(7));
        let (mut sim, [server_machine, client_machine], [server_nic, client_nic]) =
            two_machines(spec.seed, MONO_BATCH_NS, m, nic);
        let mut threads = Vec::new();
        for c in 0..m.cores {
            for t in 0..m.threads_per_core {
                threads.push(sim.hw_thread(server_machine, c, t));
            }
        }
        threads.truncate(used);

        let deployment = neat_monolith::boot_monolith(
            &mut sim,
            &threads,
            server_nic,
            SERVER_IP,
            SERVER_MAC,
            neat_tcp::TcpConfig {
                initial_rto_ns: 20_000_000,
                gso_burst: if spec.tuning.tso { 61_440 } else { 0 },
                ..Default::default()
            },
            spec.tuning.clone(),
            vec![(CLIENT_IP, CLIENT_MAC)],
            BASE_PORT,
            spec.hw_factor,
        );

        // Web servers: one per kernel context, same hardware thread.
        let mut webs = Vec::new();
        let mut web_metrics = Vec::new();
        for (i, t) in threads.iter().enumerate() {
            let port = BASE_PORT + i as u16;
            let mut lib = SocketLib::new(ProcId(0), vec![deployment.ctxs[i]], None);
            lib.set_route(deployment.ctxs[i]);
            let metrics = Rc::new(RefCell::new(WebMetrics::default()));
            let proc = WebServerProc::new(
                format!("web.{i}"),
                lib,
                spec.files.clone(),
                port,
                spec.server_max_reqs_per_conn,
                metrics.clone(),
            );
            webs.push(sim.spawn(*t, Box::new(proc)));
            web_metrics.push(metrics);
        }

        sim.run_until(Time::from_millis(5));

        let (clients, client_metrics) = spawn_clients(
            &mut sim,
            client_machine,
            client_nic,
            spec.clients,
            spec.web_instances,
            &spec.workload,
            None,
        );

        MonoTestbed {
            sim,
            deployment,
            webs,
            web_metrics,
            clients,
            client_metrics,
            web_threads: threads,
        }
    }

    pub fn measure(&mut self, warmup: Time, window: Time) -> RunReport {
        measure(&mut self.sim, &self.client_metrics, warmup, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amd_layout_fig6b_fits_12_cores() {
        let spec = TestbedSpec::amd(NeatConfig::single(3), 6);
        let (pre, webs) = layout_resolved(&spec);
        assert_eq!(webs.len(), 6);
        assert!(pre.spare.is_empty(), "NEaT 3x + 6 webs uses all 12 cores");
    }

    #[test]
    fn amd_layout_fig6a_multi_2x() {
        let spec = TestbedSpec::amd(NeatConfig::multi(2), 5);
        let (pre, webs) = layout_resolved(&spec);
        assert_eq!(pre.replicas.len(), 2);
        assert_eq!(webs.len(), 5);
        assert!(pre.spare.is_empty(), "Multi 2x + 5 webs uses all 12 cores");
    }

    #[test]
    #[should_panic(expected = "not enough cores")]
    fn overcommitted_layout_panics() {
        let spec = TestbedSpec::amd(NeatConfig::single(3), 7);
        let _ = layout_resolved(&spec);
    }

    #[test]
    fn xeon_ht_layout_neat4x_nine_webs() {
        let spec = TestbedSpec::xeon(NeatConfig::single(4), 9);
        let (pre, webs) = layout_resolved(&spec);
        assert_eq!(pre.replicas.len(), 4);
        assert_eq!(webs.len(), 9);
        // 16 threads: drv+sys(2) + os(1) + 4 replicas + 9 webs = 16.
        assert!(pre.spare.is_empty());
    }
}
