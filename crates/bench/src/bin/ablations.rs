//! Ablation studies for the design choices the paper motivates but does
//! not isolate:
//!
//! 1. **Flow-tracking filters** (§3.4/§4) — disable them and scale down:
//!    existing connections get rehashed to the wrong replica and die.
//! 2. **TSO/GSO** (§6) — large-file throughput with and without
//!    segmentation offload.
//! 3. **Congestion control** — Reno vs CUBIC on the benchmark workload.
//! 4. **MWAIT spin window** — the §4 fast-channel trade-off: longer
//!    spinning lowers low-load latency but burns idle CPU.
//! 5. **Batching × zero-copy pool** (§3.4) — per-link message coalescing
//!    and the modelled per-hop copy charge (`pktbuf::set_pooling`; `PktBuf`
//!    handles are views either way), on/off in all four combinations.

use neat::config::NeatConfig;
use neat::msg::Msg;
use neat_apps::scenario::{MonoTestbed, MonoTestbedSpec, Testbed, TestbedSpec, Workload};
use neat_apps::FileStore;
use neat_bench::{windows, BenchReport, Table};
use neat_sim::Time;
use neat_tcp::CongestionAlgo;

/// 1. Scale-down with vs without connection tracking in the NIC.
fn ablate_tracking(report: &mut BenchReport) {
    let mut t = Table::new(
        "Ablation 1 — NIC flow tracking during scale-down",
        &["tracking filters", "connections broken", "drained cleanly"],
    );
    for tracking in [true, false] {
        let mut spec = TestbedSpec::amd(NeatConfig::single(2), 3);
        spec.clients = 6;
        spec.workload = Workload {
            conns_per_client: 4,
            requests_per_conn: 500,
            ..Workload::default()
        };
        let mut tb = Testbed::build(spec);
        if !tracking {
            tb.sim
                .send_external(tb.deployment.nic, Msg::NicSetTracking { on: false });
        }
        tb.sim.run_until(Time::from_millis(300));
        let errs0 = tb.total_errors();
        tb.sim
            .send_external(tb.deployment.supervisor, Msg::ScaleDown);
        let mut drained = false;
        for _ in 0..30 {
            tb.sim.run_until(tb.sim.now() + Time::from_millis(100));
            if tb.deployment.sup_stats.borrow().scale_downs_completed == 1 {
                drained = true;
                break;
            }
        }
        if tracking {
            report.metric("tracking_conns_broken", (tb.total_errors() - errs0) as f64);
        }
        t.row(&[
            tracking.to_string(),
            (tb.total_errors() - errs0).to_string(),
            drained.to_string(),
        ]);
    }
    report.table(&t);
}

/// 2. TSO on/off at a large file size (1 MB).
fn ablate_tso(report: &mut BenchReport) {
    let mut t = Table::new(
        "Ablation 2 — TSO/GSO at 1MB responses (Linux baseline)",
        &["tso", "MB/s", "krps", "avg kernel-ctx CPU"],
    );
    for tso in [true, false] {
        let mut tuning = neat_monolith::MonoTuning::best();
        tuning.tso = tso;
        let mut spec = MonoTestbedSpec::amd(tuning);
        spec.files = FileStore::size_sweep(&[1_000_000]);
        spec.workload = Workload {
            conns_per_client: 8,
            requests_per_conn: 100,
            path: "/file1000000".into(),
            timeout_ns: 10_000_000_000,
            think_ns: 0,
        };
        let (warm, win) = windows();
        let mut tb = MonoTestbed::build(spec);
        let r = tb.measure(warm, win);
        let avg_load: f64 = tb
            .web_threads
            .iter()
            .map(|t| tb.sim.thread_stats(*t).load(r.duration))
            .sum::<f64>()
            / tb.web_threads.len() as f64;
        if tso {
            report.metric("tso_on_mbps", r.mbps);
        }
        t.row(&[
            tso.to_string(),
            format!("{:.1}", r.mbps),
            format!("{:.2}", r.krps),
            format!("{:.0}%", avg_load * 100.0),
        ]);
    }
    report.table(&t);
}

/// 3. Reno vs CUBIC on the standard benchmark.
fn ablate_congestion(report: &mut BenchReport) {
    let mut t = Table::new(
        "Ablation 3 — congestion control (NEaT 2x, AMD)",
        &["algorithm", "krps", "mean latency"],
    );
    for (algo, name) in [
        (CongestionAlgo::Reno, "Reno"),
        (CongestionAlgo::Cubic, "CUBIC"),
    ] {
        let mut cfg = NeatConfig::single(2);
        cfg.tcp.congestion = algo;
        let mut spec = TestbedSpec::amd(cfg, 4);
        spec.workload = Workload {
            conns_per_client: 16,
            requests_per_conn: 100,
            ..Workload::default()
        };
        let (warm, win) = windows();
        let mut tb = Testbed::build(spec);
        let r = tb.measure(warm, win);
        if name == "CUBIC" {
            report.metric("cubic_krps", r.krps);
        }
        t.row(&[
            name.into(),
            format!("{:.1}", r.krps),
            format!("{}", r.mean_latency),
        ]);
    }
    report.table(&t);
}

/// 5. Batched zero-copy message path (§3.4) — per-link coalescing × the
///    modelled per-hop copy charge, at the replica count where per-message
///    wakeups dominate (NEaT 8x HT on the Xeon). The `batching off, pool
///    off` row is the scalar-dispatch, copy-everywhere ablation the
///    headline speedup is measured against.
fn ablate_batching(report: &mut BenchReport) {
    let mut t = Table::new(
        "Ablation 5 — batching x zero-copy pool (NEaT 8x HT, Xeon, 5 webs)",
        &[
            "batching",
            "pool",
            "krps",
            "batch occupancy",
            "copies avoided",
        ],
    );
    let mut on_krps = 0.0;
    let mut off_krps = 0.0;
    for (batch, pool) in [(true, true), (true, false), (false, true), (false, false)] {
        neat_net::pktbuf::reset();
        neat_net::pktbuf::set_pooling(pool);
        let mut spec = TestbedSpec::xeon(NeatConfig::single(8), 5);
        spec.batch_ns = if batch { 2_000 } else { 0 };
        // Stack-ceiling mode: a lightweight application (null-RPC style)
        // instead of the calibrated lighttpd cost, so the message path —
        // the thing batching and the pool amortize — is the contended
        // resource rather than the web instances. This isolates the fig7
        // asymptote: the throughput the 8-replica stack fabric itself
        // sustains.
        spec.web_request_cycles = Some(6_000);
        // 200-byte responses keep the 10GbE link far from saturation
        // (which would mask the message path), and 64 connections per
        // client keep enough requests in flight that the closed loop is
        // throughput-bound, not latency-bound.
        let size: usize = 200;
        spec.files = FileStore::size_sweep(&[size]);
        spec.workload = Workload {
            conns_per_client: 64,
            requests_per_conn: 100,
            path: format!("/file{size}"),
            ..Workload::default()
        };
        let (warm, win) = windows();
        let mut tb = Testbed::build(spec);
        let r = tb.measure(warm, win);
        let occupancy = tb.sim.batch_stats().occupancy();
        let copies = neat_net::pktbuf::stats().copies_avoided;
        if batch && pool {
            on_krps = r.krps;
            report.metric("batch_on_krps", r.krps);
            report.metric("batch_occupancy", occupancy);
            report.metric("copies_avoided", copies as f64);
        } else if !batch && !pool {
            off_krps = r.krps;
            report.metric("batch_off_krps", r.krps);
        }
        t.row(&[
            (if batch { "on" } else { "off" }).into(),
            (if pool { "on" } else { "off" }).into(),
            format!("{:.1}", r.krps),
            format!("{occupancy:.2}"),
            copies.to_string(),
        ]);
    }
    neat_net::pktbuf::set_pooling(true);
    report.metric("batch_speedup", on_krps / off_krps);
    report.table(&t);
}

/// 4. Low-load latency vs driver CPU across replica counts — the
///    Figure 12 trade-off summarized.
fn ablate_low_load(report: &mut BenchReport) {
    let mut t = Table::new(
        "Ablation 4 — low-load (8 conns, 1 req/conn) latency vs replica count",
        &["config", "krps", "mean latency", "driver load"],
    );
    for (name, cfg) in [
        ("NEaT 1x", NeatConfig::single(1)),
        ("NEaT 3x", NeatConfig::single(3)),
        ("Multi 1x", NeatConfig::multi(1)),
        ("Multi 2x", NeatConfig::multi(2)),
    ] {
        let mut spec = TestbedSpec::amd(cfg, 1);
        spec.clients = 8;
        spec.workload = Workload {
            conns_per_client: 1,
            requests_per_conn: 1,
            ..Workload::default()
        };
        let (warm, win) = windows();
        let mut tb = Testbed::build(spec);
        let r = tb.measure(warm, win);
        let drv = tb.sim.thread_stats(tb.driver_thread).load(r.duration);
        t.row(&[
            name.into(),
            format!("{:.1}", r.krps),
            format!("{}", r.mean_latency),
            format!("{:.0}%", drv * 100.0),
        ]);
    }
    report.table(&t);
}

fn main() {
    let mut report = BenchReport::new("ablations");
    ablate_tracking(&mut report);
    ablate_tso(&mut report);
    ablate_congestion(&mut report);
    ablate_low_load(&mut report);
    ablate_batching(&mut report);
    report.finish();
}
