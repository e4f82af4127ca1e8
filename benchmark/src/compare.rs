//! `neat-benchmark compare A.json B.json` — do two result sets agree?
//!
//! Prints, per workload × metric, both values, the relative difference
//! and the bound. Fails if an end-to-end metric differs by more than its
//! bound, or if any `model.*` value (virtual clock: must repeat exactly
//! for one seed) differs at all. Workloads with a run marked `disturbed`
//! are listed, not failed.

use crate::metrics;
use neat_util::Json;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metrics_of<'a>(set: &'a Json, workload: &str) -> Option<&'a Json> {
    set.get("workloads")?.get(workload)?.get("metrics")
}

fn value(metrics: &Json, metric: &str) -> Option<f64> {
    metrics.get(metric)?.get("value")?.as_f64()
}

fn disturbed(set: &Json, workload: &str) -> bool {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("disturbed"))
        == Some(&Json::Bool(true))
}

/// The names of an object's fields, in the order it lists them.
fn keys(node: Option<&Json>) -> Vec<String> {
    node.and_then(Json::as_object)
        .map(|o| o.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

/// `a`'s names, then those only `b` has.
fn union(a: Vec<String>, b: Vec<String>) -> Vec<String> {
    let mut all = a;
    for k in b {
        if !all.contains(&k) {
            all.push(k);
        }
    }
    all
}

/// The verdict on two parsed result sets: the table lines, and what
/// failed. A workload or metric only one set has is a failure: two sets
/// that agree report the same names.
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, Vec<String>) {
    let mut lines = Vec::new();
    let mut failed = Vec::new();
    if a.get("seed") != b.get("seed") || a.get("seconds") != b.get("seconds") {
        lines.push("note: seed or seconds differ; model.* are only comparable for one seed".into());
    }
    let e2e = metrics::end_to_end();
    for w in union(keys(a.get("workloads")), keys(b.get("workloads"))) {
        let (Some(ma), Some(mb)) = (metrics_of(a, &w), metrics_of(b, &w)) else {
            failed.push(format!("{w}: in one set only"));
            continue;
        };
        let excused = disturbed(a, &w) || disturbed(b, &w);
        if excused {
            lines.push(format!("{w}: disturbed run, differences listed only"));
        }
        for m in union(keys(Some(ma)), keys(Some(mb))) {
            let (Some(x), Some(y)) = (value(ma, &m), value(mb, &m)) else {
                failed.push(format!("{w} {m}: in one set only"));
                continue;
            };
            let rel = if x == y {
                0.0
            } else {
                (y - x) / x.abs().max(f64::MIN_POSITIVE)
            };
            let bound = e2e.iter().find(|d| d.name == *m).and_then(|d| d.bound);
            let verdict = match bound {
                Some(bd) if rel.abs() > bd => "DIFFERS",
                None if m.starts_with("model.") && x != y => "DIFFERS",
                _ => "",
            };
            lines.push(format!(
                "{w:<12} {m:<34} {x:>16.4} {y:>16.4} {:>+9.3}% {:>7} {verdict}",
                rel * 100.0,
                bound.map_or("-".to_string(), |b| format!("{}%", b * 100.0)),
            ));
            if !verdict.is_empty() && !excused {
                failed.push(format!("{w} {m}: {x} vs {y}"));
            }
        }
    }
    (lines, failed)
}

pub fn run(a: &str, b: &str) -> Result<(), String> {
    let (lines, failed) = compare(&load(a)?, &load(b)?);
    println!(
        "{:<12} {:<34} {:>16} {:>16} {:>10} {:>7}",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for l in lines {
        println!("{l}");
    }
    if failed.is_empty() {
        println!("the two sets agree");
        Ok(())
    } else {
        Err(format!("the two sets differ: {}", failed.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(workloads: Json) -> Json {
        Json::object()
            .field("seed", 1u64)
            .field("seconds", 1.0)
            .field("workloads", workloads)
    }

    /// A set holding `http_rr` with these metrics.
    fn set_of(metrics: &[(&str, f64)], disturbed: bool) -> Json {
        let mut m = Json::object();
        for (name, v) in metrics {
            m = m.field(*name, Json::object().field("value", *v).field("unit", "x"));
        }
        doc(Json::object().field(
            "http_rr",
            Json::object()
                .field("disturbed", disturbed)
                .field("metrics", m),
        ))
    }

    fn set(host_us: f64, krps: f64, disturbed: bool) -> Json {
        set_of(
            &[
                ("host_us_per_req", host_us),
                ("model.virt_krps", krps),
                ("sim.events_per_req", host_us),
            ],
            disturbed,
        )
    }

    /// 10.0 moved by `factor` times the bound of `host_us_per_req`.
    fn moved(factor: f64) -> f64 {
        let bound = metrics::end_to_end()[0].bound.expect("bound");
        10.0 * (1.0 + factor * bound)
    }

    #[test]
    fn within_bound_agrees_and_layers_never_fail() {
        let (lines, failed) = compare(&set(10.0, 300.0, false), &set(moved(0.9), 300.0, false));
        assert!(failed.is_empty(), "{failed:?}");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn beyond_bound_or_any_model_difference_fails() {
        let (_, failed) = compare(&set(10.0, 300.0, false), &set(moved(1.1), 300.0, false));
        assert_eq!(failed.len(), 1);
        let (_, failed) = compare(&set(10.0, 300.0, false), &set(10.0, 300.0001, false));
        assert_eq!(failed.len(), 1);
    }

    #[test]
    fn a_name_only_one_set_has_fails() {
        let full = set(10.0, 300.0, false);
        let no_workload = doc(Json::object());
        let no_krps = set_of(
            &[("host_us_per_req", 10.0), ("sim.events_per_req", 10.0)],
            false,
        );
        for (other, what) in [
            (&no_workload, "http_rr: in one set only"),
            (&no_krps, "http_rr model.virt_krps: in one set only"),
        ] {
            assert_eq!(compare(&full, other).1, [what]);
            assert_eq!(compare(other, &full).1, [what]);
        }
    }

    /// What a `--trace` set adds: host-clock layer metrics, which two
    /// runs of one commit never repeat, beside `model.*`, which they do.
    #[test]
    fn host_measured_layer_metrics_may_differ() {
        let traced = |ratio: f64, parse_ns: f64| {
            set_of(
                &[
                    ("host_us_per_req", 10.0),
                    ("model.virt_krps", 300.0),
                    ("bench.tcp_rx_host_ratio", ratio),
                    ("net.tcp_parse.ns_per_req", parse_ns),
                    ("sim.fabric_us_per_req", parse_ns / 100.0),
                ],
                false,
            )
        };
        let (lines, failed) = compare(&traced(0.21, 410.0), &traced(0.30, 520.0));
        assert!(failed.is_empty(), "{failed:?}");
        assert!(!lines.iter().any(|l| l.contains("DIFFERS")));
    }

    #[test]
    fn disturbed_runs_are_listed_not_failed() {
        let (lines, failed) = compare(&set(10.0, 300.0, true), &set(moved(2.0), 301.0, false));
        assert!(failed.is_empty());
        assert!(lines.iter().any(|l| l.contains("DIFFERS")));
    }
}
