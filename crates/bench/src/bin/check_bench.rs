//! CI performance-regression gate.
//!
//! Compares the headline metrics in `results/BENCH_<name>.json` (written
//! by a `run_all --quick` pass) against the committed, tolerance-annotated
//! baselines in `baselines/bench_baselines.json`, and exits non-zero when
//! any metric drifts out of tolerance — so a perf regression (or an
//! accidental determinism break) fails the build rather than landing
//! silently. The bench sets must match in both directions: a baseline
//! block with no results file and a results file with no baseline block
//! (a new, ungated bench, or a stale file) both fail.
//!
//! ```text
//! check_bench                     # compare, exit 1 on drift
//! check_bench --write             # regenerate baselines from results/
//! check_bench --write-baselines   # same (long spelling)
//! ```
//!
//! `scripts/regen_baselines.sh` wraps the full regenerate flow (quick
//! bench pass + `--write`).
//!
//! Baseline format — per bench, per metric:
//!
//! ```json
//! { "benches": { "table1": { "best_krps": { "value": 230.1, "rel_tol": 0.1 } } } }
//! ```
//!
//! A metric passes when `|measured - value| <= rel_tol * |value|`. The
//! quick suite is deterministic with fixed seeds and every gated metric
//! is virtual-time, so tolerances only need to absorb intentional
//! calibration shifts, not run-to-run noise.

use neat_util::Json;

const BASELINES: &str = "baselines/bench_baselines.json";
const DEFAULT_REL_TOL: f64 = 0.10;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Headline metrics of one results file, in file order.
fn result_metrics(bench: &str) -> Result<Vec<(String, f64)>, String> {
    let path = format!("results/BENCH_{bench}.json");
    let json = load(&path)?;
    let metrics = json
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or_else(|| format!("{path}: no \"metrics\" object"))?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
        .collect())
}

/// The `x` of every `results/BENCH_x.json` present, sorted.
fn result_benches() -> Vec<String> {
    let mut benches: Vec<String> = std::fs::read_dir("results")
        .map(|rd| {
            rd.filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                Some(
                    name.strip_prefix("BENCH_")?
                        .strip_suffix(".json")?
                        .to_string(),
                )
            })
            .collect()
        })
        .unwrap_or_default();
    benches.sort();
    benches
}

fn write_baselines(benches: &[&str]) -> Result<(), String> {
    let mut out = Json::object();
    for bench in benches {
        let mut obj = Json::object();
        for (k, v) in result_metrics(bench)? {
            let spec = Json::object()
                .field("value", v)
                .field("rel_tol", DEFAULT_REL_TOL);
            obj = obj.field(k, spec);
        }
        out = out.field(*bench, obj);
    }
    let json = Json::object().field("benches", out);
    std::fs::create_dir_all("baselines").map_err(|e| e.to_string())?;
    std::fs::write(BASELINES, json.render()).map_err(|e| e.to_string())?;
    println!(
        "wrote {BASELINES} from results/ ({} benches)",
        benches.len()
    );
    Ok(())
}

fn check() -> Result<Vec<String>, String> {
    let baselines = load(BASELINES)?;
    let benches = baselines
        .get("benches")
        .and_then(|b| b.as_object())
        .ok_or_else(|| format!("{BASELINES}: no \"benches\" object"))?;
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (bench, metrics) in benches {
        let measured = match result_metrics(bench) {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!("{bench}: missing results ({e})"));
                continue;
            }
        };
        let Some(metrics) = metrics.as_object() else {
            return Err(format!("{BASELINES}: {bench} is not an object"));
        };
        for (key, spec) in metrics {
            let Some(value) = spec.get("value").and_then(|v| v.as_f64()) else {
                return Err(format!("{BASELINES}: {bench}.{key} has no value"));
            };
            let rel = spec
                .get("rel_tol")
                .and_then(|v| v.as_f64())
                .unwrap_or(DEFAULT_REL_TOL);
            let Some(&(_, got)) = measured.iter().find(|(k, _)| k == key) else {
                failures.push(format!("{bench}.{key}: metric missing from results"));
                continue;
            };
            checked += 1;
            let allowed = rel * value.abs();
            let drift = (got - value).abs();
            if drift > allowed {
                failures.push(format!(
                    "{bench}.{key}: {got:.3} vs baseline {value:.3} \
                     (drift {drift:.3} > allowed {allowed:.3})"
                ));
            }
        }
    }
    for bench in result_benches() {
        if !benches.iter().any(|(b, _)| *b == bench) {
            failures.push(format!(
                "{bench}: results/BENCH_{bench}.json has no baseline block in {BASELINES} \
                 (gate the new bench with scripts/regen_baselines.sh, or delete the stale file)"
            ));
        }
    }
    println!("check_bench: {checked} metrics compared against {BASELINES}");
    Ok(failures)
}

fn main() {
    let write = std::env::args().any(|a| a == "--write-baselines" || a == "--write");
    if write {
        // Every results file present becomes a baseline entry.
        let benches = result_benches();
        let refs: Vec<&str> = benches.iter().map(|s| s.as_str()).collect();
        if refs.is_empty() {
            eprintln!("no results/BENCH_*.json found — run run_all first");
            std::process::exit(1);
        }
        if let Err(e) = write_baselines(&refs) {
            eprintln!("check_bench: {e}");
            std::process::exit(1);
        }
        return;
    }
    match check() {
        Ok(failures) if failures.is_empty() => println!("check_bench: all metrics in tolerance"),
        Ok(failures) => {
            for f in &failures {
                eprintln!("FAIL {f}");
            }
            eprintln!("check_bench: {} check(s) failed", failures.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("check_bench: {e}");
            std::process::exit(1);
        }
    }
}
