//! End-to-end integration: full simulated testbeds — client machine,
//! 10GbE link, NIC steering, NEaT replicas, web servers — serving real
//! HTTP over real TCP.

use neat::config::NeatConfig;
use neat_apps::scenario::{Testbed, TestbedSpec, Workload};
use neat_sim::Time;

fn small_workload() -> Workload {
    Workload {
        conns_per_client: 4,
        requests_per_conn: 50,
        ..Workload::default()
    }
}

#[test]
fn single_component_serves_http() {
    let mut spec = TestbedSpec::amd(NeatConfig::single(2), 3);
    spec.clients = 3;
    spec.workload = small_workload();
    let mut tb = Testbed::build(spec);
    let r = tb.measure(Time::from_millis(100), Time::from_millis(200));
    assert!(
        r.requests > 1_000,
        "throughput flows: {} requests",
        r.requests
    );
    assert_eq!(r.conn_errors, 0, "no errors under moderate load");
    // 20-byte files: bytes per request match.
    assert!(
        (tb.total_bytes() as f64 / tb.total_reported() as f64 - 20.0).abs() < 0.5,
        "every response body is the 20-byte file"
    );
}

/// A report's latency covers the window only: the clients' latency
/// records hold one sample per response completed inside it, none from
/// before.
#[test]
fn latency_samples_only_the_window() {
    let mut spec = TestbedSpec::amd(NeatConfig::single(1), 1);
    spec.clients = 2;
    spec.workload = small_workload();
    let mut tb = Testbed::build(spec);
    let completed =
        |tb: &Testbed| -> u64 { tb.client_metrics.iter().map(|m| m.borrow().completed).sum() };
    tb.sim.run_until(Time::from_millis(50));
    let before = completed(&tb);
    assert!(before > 0, "responses completed before the window");
    tb.measure(Time::ZERO, Time::from_millis(50));
    let samples: u64 = tb
        .client_metrics
        .iter()
        .map(|m| m.borrow().latency.count())
        .sum();
    assert_eq!(samples, completed(&tb) - before);
}

#[test]
fn multi_component_serves_http() {
    let mut spec = TestbedSpec::amd(NeatConfig::multi(2), 3);
    spec.clients = 3;
    spec.workload = small_workload();
    let mut tb = Testbed::build(spec);
    let r = tb.measure(Time::from_millis(100), Time::from_millis(200));
    assert!(r.requests > 1_000, "multi-component pipeline works: {r:?}");
    assert_eq!(r.conn_errors, 0);
}

#[test]
fn work_spreads_across_replicas_and_webs() {
    let mut spec = TestbedSpec::amd(NeatConfig::single(3), 4);
    spec.clients = 8;
    spec.workload = small_workload();
    let mut tb = Testbed::build(spec);
    let r = tb.measure(Time::from_millis(100), Time::from_millis(300));
    assert!(r.requests > 1_000);
    // Every web instance served something (subsocket replication works
    // and the NIC spreads flows).
    for (i, m) in tb.web_metrics.iter().enumerate() {
        assert!(
            m.borrow().requests_served > 0,
            "web {i} never served a request"
        );
    }
    // Every replica thread did real work (RSS load balancing).
    for (i, t) in tb.replica_threads.iter().enumerate() {
        let busy = tb.sim.thread_stats(*t).busy_ns;
        assert!(busy > 0, "replica {i} idle — partitioning broken");
    }
}

#[test]
fn replicas_scale_throughput() {
    // The paper's core scalability claim in miniature: more replicas and
    // webs → more throughput, stack saturation moves out.
    let rate = |replicas: usize, webs: usize| {
        let mut spec = TestbedSpec::amd(NeatConfig::single(replicas), webs);
        spec.clients = 8;
        spec.workload = Workload {
            conns_per_client: 8,
            requests_per_conn: 100,
            ..Workload::default()
        };
        let mut tb = Testbed::build(spec);
        tb.measure(Time::from_millis(150), Time::from_millis(250))
            .krps
    };
    let one = rate(1, 2);
    let three = rate(3, 6);
    assert!(
        three > one * 2.0,
        "3 replicas + 6 webs should far outrun 1+2: {one:.0} -> {three:.0}"
    );
}

#[test]
fn xeon_ht_configuration_boots_and_serves() {
    let mut spec = TestbedSpec::xeon(NeatConfig::single(4), 9);
    spec.clients = 8;
    spec.workload = small_workload();
    let mut tb = Testbed::build(spec);
    let r = tb.measure(Time::from_millis(100), Time::from_millis(200));
    assert!(r.requests > 1_000, "HT-colocated layout works: {r:?}");
    assert_eq!(r.conn_errors, 0);
}

#[test]
fn latency_reasonable_at_low_load() {
    let mut spec = TestbedSpec::amd(NeatConfig::single(2), 2);
    spec.clients = 1;
    spec.workload = Workload {
        conns_per_client: 1,
        requests_per_conn: 100,
        ..Workload::default()
    };
    let mut tb = Testbed::build(spec);
    let r = tb.measure(Time::from_millis(100), Time::from_millis(200));
    assert!(
        r.mean_latency < Time::from_micros(300),
        "single-connection RTT should be tens of microseconds, got {}",
        r.mean_latency
    );
    assert!(
        r.mean_latency > Time::from_micros(5),
        "but not magically fast"
    );
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut spec = TestbedSpec::amd(NeatConfig::single(2), 2);
        spec.clients = 2;
        spec.workload = small_workload();
        let mut tb = Testbed::build(spec);
        let r = tb.measure(Time::from_millis(100), Time::from_millis(100));
        (r.requests, tb.sim.events_dispatched())
    };
    assert_eq!(run(), run(), "same seed, same history");
}

#[test]
fn monolith_baseline_serves_http() {
    use neat_apps::scenario::{MonoTestbed, MonoTestbedSpec};
    let mut spec = MonoTestbedSpec::amd(neat_monolith::MonoTuning::best());
    spec.web_instances = 4;
    spec.clients = 4;
    spec.workload = small_workload();
    let mut tb = MonoTestbed::build(spec);
    let r = tb.measure(Time::from_millis(100), Time::from_millis(200));
    assert!(r.requests > 1_000, "monolith works: {r:?}");
    assert_eq!(r.conn_errors, 0);
}

#[test]
fn neat_beats_tuned_monolith_on_amd() {
    // The headline: NEaT 3x vs the best-tuned Linux on the same machine.
    use neat_apps::scenario::{MonoTestbed, MonoTestbedSpec};
    let load = Workload {
        conns_per_client: 16,
        requests_per_conn: 100,
        ..Workload::default()
    };
    let neat_krps = {
        let mut spec = TestbedSpec::amd(NeatConfig::single(3), 6);
        spec.workload = load.clone();
        let mut tb = Testbed::build(spec);
        tb.measure(Time::from_millis(150), Time::from_millis(250))
            .krps
    };
    let linux_krps = {
        let mut spec = MonoTestbedSpec::amd(neat_monolith::MonoTuning::best());
        spec.workload = load;
        let mut tb = MonoTestbed::build(spec);
        tb.measure(Time::from_millis(150), Time::from_millis(250))
            .krps
    };
    let gain = neat_krps / linux_krps - 1.0;
    assert!(
        gain > 0.10 && gain < 0.60,
        "paper: NEaT handles 13-35% more requests; got {:.1}% ({neat_krps:.0} vs {linux_krps:.0})",
        gain * 100.0
    );
}
