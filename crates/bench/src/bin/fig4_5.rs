//! **Figures 4 & 5** — Linux (optimal configuration), file-size sweep:
//!
//! * Fig. 4: latency and total number of requests vs requested file size;
//!   "as soon as we switch to moderately large files (between 100K - 1M),
//!   the latency dramatically increases, the number of requests drops".
//! * Fig. 5: throughput and request rate vs file size; "as soon as the
//!   file size exceeds 7KB, the 10Gb/s bandwidth becomes the bottleneck".

use neat_apps::scenario::{MonoTestbed, MonoTestbedSpec, Workload};
use neat_apps::FileStore;
use neat_bench::{quick, windows, BenchReport, Table};
use neat_monolith::MonoTuning;

fn main() {
    let all_sizes: &[usize] = &[
        1, 10, 100, 1_000, 7_000, 10_000, 100_000, 1_000_000, 10_000_000,
    ];
    // The >=1MB rows need multi-second windows to complete whole
    // responses; the smoke run stops at 100K to stay CI-sized.
    let sizes: &[usize] = if quick() { &all_sizes[..7] } else { all_sizes };
    let mut report = BenchReport::new("fig4_5");
    let mut t = Table::new(
        "Figures 4-5 — Linux optimal config: latency, requests, throughput vs file size",
        &[
            "file size",
            "krps",
            "MB/s",
            "mean lat",
            "p99 lat",
            "conn errors",
        ],
    );
    for &sz in sizes {
        let mut spec = MonoTestbedSpec::amd(MonoTuning::best());
        spec.files = FileStore::size_sweep(all_sizes);
        // Large transfers need fewer, longer-lived connections and a
        // window long enough to complete whole responses (the paper ran
        // 1000 requests per connection over minutes).
        let conns = if sz >= 1_000_000 {
            2
        } else if sz >= 100_000 {
            8
        } else {
            24
        };
        let (mut warm, mut win) = windows();
        if sz >= 1_000_000 {
            warm = neat_sim::Time::from_millis(500);
            win = neat_sim::Time::from_secs(3);
        }
        spec.workload = Workload {
            conns_per_client: conns,
            requests_per_conn: 100,
            path: format!("/file{sz}"),
            timeout_ns: 30_000_000_000,
            think_ns: 0,
        };
        let mut tb = MonoTestbed::build(spec);
        let r = tb.measure(warm, win);
        match sz {
            100 => report.metric("krps_100b", r.krps),
            10_000 => report.metric("mbps_10k", r.mbps),
            100_000 => report.metric("mbps_100k", r.mbps),
            _ => {}
        }
        t.row(&[
            human_size(sz),
            format!("{:.1}", r.krps),
            format!("{:.1}", r.mbps),
            format!("{}", r.mean_latency),
            format!("{}", r.p99_latency),
            format!("{}", r.conn_errors),
        ]);
    }
    report.table(&t);
    report.finish();
    println!(
        "Expected shape: flat krps for tiny files; link saturates (~1050 MB/s payload)\n\
         past ~7KB; latency grows sharply with file size (paper Figure 4-5)."
    );
}

fn human_size(sz: usize) -> String {
    match sz {
        s if s >= 1_000_000 => format!("{}M", s / 1_000_000),
        s if s >= 1_000 => format!("{}K", s / 1_000),
        s => format!("{s}B"),
    }
}
