//! **Figure 13** — "Expected fraction of state preserved after a failure
//! vs max throughput across network stack setups" (Xeon).
//!
//! For each configuration we (a) measure its peak request rate and (b)
//! compute the expected fraction of TCP state preserved after one
//! uniformly-placed code fault, using the pinned component code sizes
//! (`CodeSizes::PINNED`, §6.6's methodology). Both axes improve with the
//! number of replicas — the paper's "reliability and scalability coexist"
//! point.

use neat::config::NeatConfig;
use neat::fault::{expected_state_preserved, CodeSizes};
use neat_apps::scenario::{PlacementPlan, Testbed, TestbedSpec, Workload};
use neat_bench::{krps, windows, BenchReport, Table};

struct Config {
    label: &'static str,
    cfg: NeatConfig,
    plan: PlacementPlan,
    webs: usize,
    cores: u32,
    threads: u32,
}

fn peak(cfg: &Config) -> f64 {
    let mut spec = TestbedSpec::xeon(cfg.cfg.clone(), cfg.webs);
    spec.placement = cfg.plan;
    spec.workload = Workload {
        conns_per_client: 24,
        requests_per_conn: 100,
        ..Workload::default()
    };
    let (warm, win) = windows();
    Testbed::build(spec).measure(warm, win).krps
}

fn main() {
    let configs = [
        Config {
            label: "NEaT 1x",
            cfg: NeatConfig::single(1),
            plan: PlacementPlan::Dedicated,
            webs: 4,
            cores: 1,
            threads: 1,
        },
        Config {
            label: "NEaT 2x",
            cfg: NeatConfig::single(2),
            plan: PlacementPlan::Dedicated,
            webs: 5,
            cores: 2,
            threads: 2,
        },
        Config {
            label: "NEaT 3x",
            cfg: NeatConfig::single(3),
            plan: PlacementPlan::HtColocated,
            webs: 8,
            cores: 3,
            threads: 3,
        },
        Config {
            label: "NEaT 4x HT",
            cfg: NeatConfig::single(4),
            plan: PlacementPlan::HtColocated,
            webs: 9,
            cores: 2,
            threads: 4,
        },
        Config {
            label: "Multi 1x",
            cfg: NeatConfig::multi(1),
            plan: PlacementPlan::Dedicated,
            webs: 4,
            cores: 2,
            threads: 2,
        },
        Config {
            label: "Multi 2x",
            cfg: NeatConfig::multi(2),
            plan: PlacementPlan::Dedicated,
            webs: 4,
            cores: 4,
            threads: 4,
        },
        Config {
            label: "Multi 2x HT",
            cfg: NeatConfig::multi(2),
            plan: PlacementPlan::HtColocated,
            webs: 8,
            cores: 2,
            threads: 4,
        },
    ];
    let mut t = Table::new(
        "Figure 13 — expected % of state preserved after a failure vs max throughput (Xeon)",
        &[
            "config",
            "stack cores",
            "threads",
            "max krps",
            "state preserved",
        ],
    );
    let mut report = BenchReport::new("fig13");
    for c in &configs {
        let preserved = expected_state_preserved(&CodeSizes::PINNED, c.cfg.mode, c.cfg.replicas);
        let max = peak(c);
        match c.label {
            "NEaT 1x" => report.metric("neat1_max_krps", max),
            "Multi 2x" => report.metric("multi2_state_pct", preserved * 100.0),
            _ => {}
        }
        t.row(&[
            c.label.into(),
            c.cores.to_string(),
            c.threads.to_string(),
            krps(max),
            format!("{:.1}%", preserved * 100.0),
        ]);
    }
    report.table(&t);
    report.finish();
    println!(
        "Paper shape: performance and reliability both increase with the\n\
         number of replicas; multi-component preserves more state than\n\
         single-component at equal replica counts (finer fault isolation)."
    );
}
