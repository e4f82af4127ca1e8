//! **Figure 9** — "Xeon - Scaling the multi-component stack": Multi 1x,
//! Multi 2x, and Multi 2x HT on the 8-core/16-thread Xeon; the paper's
//! curve peaks at 322 krps with 8 instances.
//!
//! Pass `--layouts` to print the Figure 8 colocation diagrams.

use neat::config::NeatConfig;
use neat_apps::scenario::{PlacementPlan, Testbed, TestbedSpec, Workload};
use neat_bench::{krps, windows, BenchReport, Table};

fn measure(cfg: NeatConfig, webs: usize, plan: PlacementPlan) -> f64 {
    let mut spec = TestbedSpec::xeon(cfg, webs);
    spec.placement = plan;
    spec.workload = Workload {
        conns_per_client: 24,
        requests_per_conn: 100,
        ..Workload::default()
    };
    let (warm, win) = windows();
    Testbed::build(spec).measure(warm, win).krps
}

fn print_layouts() {
    println!(
        r#"
Figure 8(b) — colocation with hyper-threading (2 threads/core):
  core0: [NIC Drv | SYSCALL]   core1: [OS | Web]   cores2..: stack + webs
Figure 8(c) — Multi 2x HT: TCP1+TCP2 share one core's threads, IP1+IP2
  another's ("enforcing this policy for both TCP and IP replicas").
"#
    );
}

fn main() {
    if std::env::args().any(|a| a == "--layouts") {
        print_layouts();
    }
    let instances = [1usize, 2, 3, 4, 6, 8];
    let mut t = Table::new(
        "Figure 9 — Xeon: multi-component scaling, request rate (krps)",
        &["config", "1", "2", "3", "4", "6", "8"],
    );
    let curves: &[(&str, NeatConfig, PlacementPlan)] = &[
        ("Multi 1x", NeatConfig::multi(1), PlacementPlan::Dedicated),
        ("Multi 2x", NeatConfig::multi(2), PlacementPlan::Dedicated),
        (
            "Multi 2x HT",
            NeatConfig::multi(2),
            PlacementPlan::HtColocated,
        ),
    ];
    let mut report = BenchReport::new("fig9");
    for (name, cfg, plan) in curves {
        let mut cells = vec![name.to_string()];
        for webs in instances {
            let v = measure(cfg.clone(), webs, *plan);
            if *name == "Multi 2x HT" && webs == 8 {
                report.metric("multi2ht_webs8_krps", v);
            }
            cells.push(krps(v));
        }
        t.row(&cells);
    }
    report.table(&t);
    report.finish();
    println!(
        "Paper shape: throughput peaks at 4 instances per replica capacity;\n\
         HT colocation reaches ~322 krps at 8 instances."
    );
}
