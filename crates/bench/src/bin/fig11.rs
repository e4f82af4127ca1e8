//! **Figure 11** — "Xeon - Scaling the single-component stack": NEaT
//! 1x/2x/4x with and without hyper-threading; the paper's NEaT 4x HT
//! sustains 372 krps vs 328 krps for the best Linux on the same machine
//! (+13.4%). Pass `--layouts` for the Figure 10 diagram.

use neat::config::NeatConfig;
use neat_apps::scenario::{
    MonoTestbed, MonoTestbedSpec, PlacementPlan, Testbed, TestbedSpec, Workload,
};
use neat_bench::{krps, windows, BenchReport, Table};

fn load() -> Workload {
    Workload {
        conns_per_client: 24,
        requests_per_conn: 100,
        ..Workload::default()
    }
}

fn measure(replicas: usize, webs: usize, plan: PlacementPlan) -> f64 {
    let mut spec = TestbedSpec::xeon(NeatConfig::single(replicas), webs);
    spec.placement = plan;
    spec.workload = load();
    let (warm, win) = windows();
    Testbed::build(spec).measure(warm, win).krps
}

fn linux_reference() -> f64 {
    let mut spec = MonoTestbedSpec::xeon(neat_monolith::MonoTuning::best());
    spec.workload = Workload {
        conns_per_client: 48,
        ..load()
    };
    let (warm, win) = windows();
    let mut tb = MonoTestbed::build(spec);
    tb.measure(warm, win).krps
}

fn main() {
    if std::env::args().any(|a| a == "--layouts") {
        println!(
            r#"
Figure 10 — best single-component Xeon configuration (fully exploiting HT):
  core0: [NIC Drv | SYSCALL]  core1: [OS | Web 9]
  core2: [NEaT 1 | NEaT 2]    core3: [NEaT 3 | NEaT 4]
  cores4..7: [Web 1..8] (both threads each)
"#
        );
    }
    let instances = [1usize, 2, 3, 4, 5, 8, 9];
    let mut t = Table::new(
        "Figure 11 — Xeon: single-component scaling, request rate (krps)",
        &["config", "1", "2", "3", "4", "5", "8", "9"],
    );
    let curves: &[(&str, usize, PlacementPlan)] = &[
        ("NEaT 1x", 1, PlacementPlan::Dedicated),
        ("NEaT 1x HT", 1, PlacementPlan::HtColocated),
        ("NEaT 2x", 2, PlacementPlan::Dedicated),
        ("NEaT 2x HT", 2, PlacementPlan::HtColocated),
        ("NEaT 4x HT", 4, PlacementPlan::HtColocated),
    ];
    let mut report = BenchReport::new("fig11");
    for (name, replicas, plan) in curves {
        let mut cells = vec![name.to_string()];
        for webs in instances {
            let v = measure(*replicas, webs, *plan);
            if *name == "NEaT 4x HT" && webs == 9 {
                report.metric("neat4ht_webs9_krps", v);
            }
            cells.push(krps(v));
        }
        t.row(&cells);
    }
    report.table(&t);
    let linux = linux_reference();
    report.metric("linux_best_krps", linux);
    let mut t2 = Table::new(
        "Figure 11 reference — best Linux on the Xeon (16 lighttpd / 16 threads)",
        &["system", "paper krps", "measured krps"],
    );
    t2.row(&["Linux best".into(), "328.0".into(), krps(linux)]);
    t2.row(&["NEaT 4x HT".into(), "372.0".into(), "see fig11 row".into()]);
    report.table(&t2);
    report.finish();
    println!("Paper: NEaT 4x HT = 372 krps, +13.4% over Linux's 328 krps.");
}
