//! `cc_compare` — fixed-seed head-to-head of the four congestion
//! controllers behind the event-driven CC API (Reno, CUBIC, BBR-style,
//! DCTCP-style) on the standard ablation topology (NEaT 2x, AMD, 4 web
//! instances).
//!
//! The controllers are selected **per socket** via
//! `TestbedSpec::congestion`, exercising the whole option plumbing
//! (client library → replica → stack → socket) rather than the stack-wide
//! `TcpConfig::congestion` default the congestion ablation uses. The
//! headline `bbr_krps` / `dctcp_krps` metrics gate the new controllers in
//! CI; `reno_krps` / `cubic_krps` pin the ported ones.

use neat::config::NeatConfig;
use neat_apps::scenario::{Testbed, TestbedSpec, Workload};
use neat_apps::FileStore;
use neat_bench::{windows, BenchReport, Table};
use neat_tcp::CongestionAlgo;

fn main() {
    let mut report = BenchReport::new("cc_compare");
    let mut t = Table::new(
        "Congestion-controller comparison (per-socket SockOpt, NEaT 2x, AMD)",
        &["algorithm", "krps", "MB/s", "mean latency", "conn errors"],
    );
    for (algo, name, key) in [
        (CongestionAlgo::Reno, "Reno", "reno_krps"),
        (CongestionAlgo::Cubic, "CUBIC", "cubic_krps"),
        (CongestionAlgo::Bbr, "BBR", "bbr_krps"),
        (CongestionAlgo::Dctcp, "DCTCP", "dctcp_krps"),
    ] {
        let mut spec = TestbedSpec::amd(NeatConfig::single(2), 4);
        // Multi-segment responses (100 KB) so the controllers' window and
        // pacing decisions actually shape the transfer — on the 20-byte
        // default every algorithm is indistinguishable by construction.
        spec.files = FileStore::size_sweep(&[100_000]);
        spec.workload = Workload {
            conns_per_client: 16,
            requests_per_conn: 100,
            path: "/file100000".into(),
            ..Workload::default()
        };
        spec.congestion = Some(algo);
        let (warm, win) = windows();
        let mut tb = Testbed::build(spec);
        let r = tb.measure(warm, win);
        report.metric(key, r.krps);
        t.row(&[
            name.into(),
            format!("{:.1}", r.krps),
            format!("{:.1}", r.mbps),
            format!("{}", r.mean_latency),
            tb.total_errors().to_string(),
        ]);
    }
    report.table(&t);
    report.finish();
}
