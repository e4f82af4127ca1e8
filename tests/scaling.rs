//! Dynamic scaling integration (§3.4): scale-up under load, scale-down
//! with lazy termination that never breaks a connection.

use neat::config::NeatConfig;
use neat::msg::Msg;
use neat_apps::scenario::{Testbed, TestbedSpec, Workload};
use neat_sim::{HwThreadId, ProcId, Time};

fn testbed_with_spare_cores() -> Testbed {
    // NEaT 1x + 5 webs on the 12-core AMD: the single replica (~150 krps)
    // is the bottleneck (5 webs could serve ~250), and spare cores remain
    // for growth.
    let mut spec = TestbedSpec::amd(NeatConfig::single(1), 5);
    spec.clients = 10;
    spec.workload = Workload {
        conns_per_client: 8,
        requests_per_conn: 100,
        ..Workload::default()
    };
    Testbed::build(spec)
}

#[test]
fn scale_up_adds_serving_replica() {
    let mut tb = testbed_with_spare_cores();
    let before = tb.measure(Time::from_millis(150), Time::from_millis(250));
    assert!(before.requests > 1_000);

    tb.sim.send_external(tb.deployment.supervisor, Msg::ScaleUp);
    tb.sim.run_until(tb.sim.now() + Time::from_millis(100));
    assert_eq!(tb.deployment.sup_stats.borrow().scale_ups, 1);

    let after = tb.measure(Time::from_millis(100), Time::from_millis(250));
    // One replica saturates around 150 krps; with webs as limit (~150),
    // the new replica relieves the stack bottleneck.
    assert!(
        after.krps > before.krps * 1.05,
        "scale-up increased throughput: {:.1} -> {:.1}",
        before.krps,
        after.krps
    );
    assert_eq!(after.conn_errors, 0, "scale-up breaks nothing");
}

/// Live pid and hardware thread of the process called `name`.
fn placed(tb: &Testbed, name: &str) -> (ProcId, HwThreadId) {
    let pid = tb.sim.live_pid(name).expect(name);
    (pid, tb.sim.proc_thread(pid).expect("live pid"))
}

fn crash_losses(tb: &Testbed) -> u64 {
    let webs = tb.web_metrics.iter();
    webs.map(|m| m.borrow().conns_lost_to_crash).sum()
}

#[test]
fn multi_scale_up_adds_serving_replica() {
    // Multi 1x + 4 webs: the TCP/IP pair is the bottleneck and three cores
    // are spare, two of which the second replica takes.
    let mut spec = TestbedSpec::amd(NeatConfig::multi(1), 4);
    spec.clients = 10;
    spec.workload = Workload {
        conns_per_client: 8,
        requests_per_conn: 100,
        ..Workload::default()
    };
    let mut tb = Testbed::build(spec);
    let before = tb.measure(Time::from_millis(150), Time::from_millis(250));
    assert!(before.requests > 1_000);

    tb.sim.send_external(tb.deployment.supervisor, Msg::ScaleUp);
    tb.sim.run_until(tb.sim.now() + Time::from_millis(100));
    assert_eq!(tb.deployment.sup_stats.borrow().scale_ups, 1);
    let after = tb.measure(Time::from_millis(100), Time::from_millis(250));
    assert!(
        after.krps > before.krps * 1.05,
        "scale-up increased throughput: {:.1} -> {:.1}",
        before.krps,
        after.krps
    );
    assert_eq!(after.conn_errors, 0, "scale-up breaks nothing");
    // Queue 1 is a whole pipeline, laid out like a booted one: TCP on its
    // own thread, UDP/IP/PF sharing the other.
    let (_, t_tcp) = placed(&tb, "tcp.1");
    let (ip, t_ip) = placed(&tb, "ip.1");
    assert_ne!(t_tcp, t_ip);
    assert_eq!(placed(&tb, "udp.1").1, t_ip);
    assert_eq!(placed(&tb, "pf.1").1, t_ip);

    // A replica made by scale-up is indistinguishable from one made by
    // boot — what `tests/reliability.rs` asserts of booted replicas holds
    // for it. Its IP is stateless: a crash there is invisible to clients.
    let errs_before = tb.total_errors();
    tb.sim.send_external(ip, Msg::Poison);
    let after_ip = tb.measure(Time::from_millis(100), Time::from_millis(400));
    let stats = tb.deployment.sup_stats.borrow().clone();
    assert_eq!((stats.crashes_seen, stats.recoveries), (1, 1), "{stats:?}");
    assert_eq!(stats.stateful_losses, 0, "IP holds no TCP state");
    assert_eq!(crash_losses(&tb), 0, "IP crash must not lose connections");
    assert_eq!(
        tb.total_errors(),
        errs_before,
        "IP crash invisible to clients"
    );
    assert!(after_ip.requests > 500, "service continued: {after_ip:?}");
    assert_ne!(placed(&tb, "ip.1").0, ip, "a fresh IP took queue 1 over");
    assert_eq!(placed(&tb, "ip.1").1, t_ip, "on the crashed one's thread");

    // Its TCP is the stateful one: the crash loses that replica's
    // connections, and service resumes through the respawned head.
    let (tcp, _) = placed(&tb, "tcp.1");
    tb.sim.send_external(tcp, Msg::Poison);
    let after_tcp = tb.measure(Time::from_millis(100), Time::from_millis(300));
    let stats = tb.deployment.sup_stats.borrow().clone();
    assert_eq!((stats.crashes_seen, stats.recoveries), (2, 2), "{stats:?}");
    assert_eq!(stats.stateful_losses, 1, "TCP component is stateful");
    assert!(crash_losses(&tb) > 0, "the scaled-up TCP owned connections");
    assert!(after_tcp.requests > 500, "service resumed: {after_tcp:?}");
    assert_eq!(placed(&tb, "tcp.1").1, t_tcp);
}

#[test]
fn multi_scale_up_reuses_freed_threads_in_spawn_order() {
    // Multi 2x + 5 webs fills all 12 cores, so the only threads a scale-up
    // can take are the two the scale-down freed — and it must get them in
    // the order boot laid them out (TCP's, then IP's), not in hash order.
    let mut spec = TestbedSpec::amd(NeatConfig::multi(2), 5);
    spec.clients = 6;
    spec.workload = Workload {
        conns_per_client: 4,
        requests_per_conn: 200,
        ..Workload::default()
    };
    let mut tb = Testbed::build(spec);
    tb.sim.run_until(Time::from_millis(100));
    let (old_tcp, old_ip) = (placed(&tb, "tcp.1").1, placed(&tb, "ip.1").1);

    tb.sim
        .send_external(tb.deployment.supervisor, Msg::ScaleDown);
    for _ in 0..40 {
        tb.sim.run_until(tb.sim.now() + Time::from_millis(100));
        if tb.deployment.sup_stats.borrow().scale_downs_completed == 1 {
            break;
        }
    }
    assert_eq!(tb.deployment.sup_stats.borrow().scale_downs_completed, 1);
    tb.sim.send_external(tb.deployment.supervisor, Msg::ScaleUp);
    tb.sim.run_until(tb.sim.now() + Time::from_millis(100));
    assert_eq!(tb.deployment.sup_stats.borrow().scale_ups, 1);

    assert_eq!(
        placed(&tb, "tcp.2").1,
        old_tcp,
        "TCP on the old TCP's thread"
    );
    assert_eq!(placed(&tb, "ip.2").1, old_ip, "IP on the old IP's thread");
}

#[test]
fn scale_down_is_lazy_and_breaks_no_connection() {
    // Boot 2 replicas, then scale down: the draining replica keeps
    // serving its existing connections and is only GC'd once drained.
    let mut spec = TestbedSpec::amd(NeatConfig::single(2), 3);
    spec.clients = 6;
    spec.workload = Workload {
        conns_per_client: 4,
        requests_per_conn: 200,
        ..Workload::default()
    };
    let mut tb = Testbed::build(spec);
    tb.sim.run_until(Time::from_millis(200));
    let errs_before = tb.total_errors();

    tb.sim
        .send_external(tb.deployment.supervisor, Msg::ScaleDown);
    // Connections finish after 200 requests each and get replaced — the
    // replacements land only on the surviving replica; the terminating one
    // drains and is garbage collected.
    let mut drained = false;
    for _ in 0..40 {
        tb.sim.run_until(tb.sim.now() + Time::from_millis(100));
        if tb.deployment.sup_stats.borrow().scale_downs_completed == 1 {
            drained = true;
            break;
        }
    }
    assert!(drained, "lazy termination completed within the run");
    assert_eq!(
        tb.total_errors(),
        errs_before,
        "no connection was broken by scale-down"
    );
    // And the system still serves.
    let after = tb.measure(Time::from_millis(50), Time::from_millis(200));
    assert!(after.requests > 500, "one replica still serving: {after:?}");
}

#[test]
fn scale_down_refuses_to_kill_last_replica() {
    let mut tb = testbed_with_spare_cores();
    tb.sim.run_until(Time::from_millis(100));
    tb.sim
        .send_external(tb.deployment.supervisor, Msg::ScaleDown);
    tb.sim.run_until(tb.sim.now() + Time::from_millis(300));
    assert_eq!(
        tb.deployment.sup_stats.borrow().scale_downs_completed,
        0,
        "the last replica must never be terminated"
    );
    let after = tb.measure(Time::from_millis(50), Time::from_millis(200));
    assert!(after.requests > 500);
}

#[test]
fn scale_up_then_down_round_trip() {
    let mut tb = testbed_with_spare_cores();
    tb.sim.run_until(Time::from_millis(150));
    tb.sim.send_external(tb.deployment.supervisor, Msg::ScaleUp);
    tb.sim.run_until(tb.sim.now() + Time::from_millis(200));
    tb.sim
        .send_external(tb.deployment.supervisor, Msg::ScaleDown);
    let mut done = false;
    for _ in 0..40 {
        tb.sim.run_until(tb.sim.now() + Time::from_millis(100));
        if tb.deployment.sup_stats.borrow().scale_downs_completed == 1 {
            done = true;
            break;
        }
    }
    assert!(done, "replica added by scale-up can drain away again");
    let after = tb.measure(Time::from_millis(50), Time::from_millis(200));
    assert!(after.requests > 500, "back to steady state: {after:?}");
}
