//! # neat-bench — the experiment harness
//!
//! One binary per table and figure of the paper's evaluation (§6). Every
//! binary regenerates its table/figure from a fresh simulation: workload
//! generation, parameter sweep, baseline, and paper-shaped output rows,
//! plus a machine-readable copy under `results/`.
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Linux request-rate breakdown per tuning option |
//! | `fig4_5` | Linux latency/requests and throughput/request-rate vs file size |
//! | `fig7`   | AMD: request rate vs lighttpd instances (NEaT/Multi) |
//! | `fig9`   | Xeon: multi-component scaling (± HT) |
//! | `fig11`  | Xeon: single-component scaling (± HT) |
//! | `fig12`  | AMD: configurations under 1-request/connection load |
//! | `table2` | NIC driver CPU usage breakdown under rising load |
//! | `table3` | fault-injection campaign (transparent vs state-losing) |
//! | `failover` | buddy-replica crash failover + live flow migration |
//! | `fig13`  | expected state preserved vs max throughput |
//! | `run_all`| everything above, writing `results/*.txt` + summary |

#![forbid(unsafe_code)]

use neat_util::{Json, ToJson};
use std::fmt::Write as _;
use std::io::Write as _;

/// A simple aligned-text table that mirrors the paper's presentation.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let line = |cells: &[String], w: &[usize]| {
            let mut s = String::from("| ");
            for (c, width) in cells.iter().zip(w) {
                let _ = write!(s, "{c:>width$} | ");
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", line(&sep, &widths));
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }

    /// Machine-readable form: title, header, and rows-as-objects keyed by
    /// the header columns.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                let mut obj = Json::object();
                for (k, v) in self.header.iter().zip(r) {
                    obj = obj.field(k.clone(), v.as_str());
                }
                obj
            })
            .collect();
        Json::object()
            .field("title", self.title.as_str())
            .field("columns", self.header.to_json())
            .field("rows", Json::Array(rows))
    }
}

/// Accumulates everything one experiment binary produces — paper-shaped
/// tables plus named headline metrics — and writes a single unified
/// `results/BENCH_<name>.json` with the observability snapshot attached.
///
/// The headline metrics are the values the CI regression gate compares
/// against `baselines/bench_baselines.json`, so every binary should
/// register at least one via [`BenchReport::metric`].
pub struct BenchReport {
    name: String,
    tables: Vec<Json>,
    metrics: Vec<(String, f64)>,
}

impl BenchReport {
    pub fn new(name: impl Into<String>) -> BenchReport {
        BenchReport {
            name: name.into(),
            tables: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Print a table, append it to `results/<name>.txt`, and include it in
    /// the unified JSON written by [`BenchReport::finish`].
    pub fn table(&mut self, t: &Table) {
        let text = t.render();
        println!("{text}");
        let _ = std::fs::create_dir_all("results");
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(format!("results/{}.txt", self.name))
        {
            let _ = f.write_all(text.as_bytes());
        }
        self.tables.push(t.to_json());
    }

    /// Register a headline metric (gated by CI against the committed
    /// baselines). Keys should be stable, e.g. `"neat3_krps"`.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        self.metrics.push((key.into(), value));
    }

    /// Write `results/BENCH_<name>.json`: headline metrics, all tables,
    /// and the current metrics-registry snapshot.
    pub fn finish(self) {
        let mut metrics = Json::object();
        for (k, v) in &self.metrics {
            metrics = metrics.field(k.clone(), *v);
        }
        let json = Json::object()
            .field("bench", self.name.as_str())
            .field("quick", quick())
            .field("metrics", metrics)
            .field("tables", Json::Array(self.tables))
            .field("obs", neat_obs::snapshot());
        let _ = std::fs::create_dir_all("results");
        let _ = std::fs::write(format!("results/BENCH_{}.json", self.name), json.render());
    }
}

/// Format a krps value the way the paper quotes them.
pub fn krps(v: f64) -> String {
    format!("{v:.1}")
}

pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// True when running in quick/smoke mode (`NEAT_BENCH_QUICK` set): shorter
/// windows and reduced sweeps, deterministic with fixed seeds — the mode
/// the CI regression gate runs and baselines are recorded in.
pub fn quick() -> bool {
    std::env::var("NEAT_BENCH_QUICK").is_ok()
}

/// Shared measurement windows: long enough for steady state, short enough
/// to keep the full suite tractable. Honours `NEAT_BENCH_QUICK` for smoke
/// runs.
pub fn windows() -> (neat_sim::Time, neat_sim::Time) {
    if quick() {
        (
            neat_sim::Time::from_millis(100),
            neat_sim::Time::from_millis(150),
        )
    } else {
        (
            neat_sim::Time::from_millis(200),
            neat_sim::Time::from_millis(400),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["config", "krps"]);
        t.row(&["NEaT 3x".into(), "301.1".into()]);
        t.row(&["Linux".into(), "230.4".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("NEaT 3x"));
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(lines.len(), 4);
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "aligned columns");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(krps(301.06), "301.1");
        assert_eq!(pct(0.348), "34.8%");
    }
}
