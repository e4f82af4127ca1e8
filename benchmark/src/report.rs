//! Running workloads and printing what they measured.
//!
//! One workload runs in one process and ends its standard output with
//! the contract line `{"correct", "attempted", "failed", "metrics"}`;
//! the line before it (`detail {...}`) carries what the contract line has
//! no room for. Running every workload means one child process each, one
//! after another, collected into `<out>/results.json`.

use crate::metrics::{self, MetricDef, Values};
use crate::span::{Tracer, SPANS};
use crate::workloads::{self, Report, WORKLOADS};
use neat_util::Json;
use std::path::PathBuf;
use std::process::{Command, Stdio};

pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where `results.json` and the chrome traces go.
    pub out: PathBuf,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            workload: None,
            seed: 0xCA5E,
            seconds: 14.0,
            trace: false,
            out: PathBuf::from("benchmark/out"),
        }
    }
}

fn print_values(defs: &[MetricDef], v: &Values) {
    for d in defs {
        if let Some(x) = v.get(&d.name) {
            println!("  {:<38} {:>16.4} {}", d.name, x, d.unit);
        }
    }
}

fn print_spans(t: &Tracer) {
    println!("  span                        calls     total ms      self ms   self allocs  (traced lane run)");
    for s in SPANS {
        let a = t.agg(s);
        println!(
            "  {:<22} {:>10} {:>12.3} {:>12.3} {:>13}",
            s.name(),
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            a.self_allocs
        );
    }
}

/// One workload in this process.
pub fn run_one(name: &str, o: &Options) -> Result<(), String> {
    let w = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (have {})", known.join(", "))
    })?;
    let (r, defs): (Report, Vec<MetricDef>) = if o.trace {
        (w.run_traced(o.seed, o.seconds), metrics::per_layer())
    } else {
        (w.run(o.seed, o.seconds), metrics::end_to_end())
    };

    println!(
        "{name}  seed {:#x}  {} s  trace {}",
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    print_values(&defs, &r.metrics);
    print_values(&metrics::per_layer(), &r.extra);
    println!(
        "  attempted {}  failed {}  correct {}{}",
        r.attempted,
        r.failed,
        r.correct,
        if r.disturbed {
            "  DISTURBED (less than 90 % of a CPU)"
        } else {
            ""
        }
    );
    if let Some(t) = &r.tracer {
        print_spans(t);
        std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
        let path = o.out.join(format!("trace_{name}.json"));
        let n = t
            .export(&path.to_string_lossy())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  {n} spans -> {}", path.display());
    }

    let detail = Json::object()
        .field("disturbed", r.disturbed)
        .field("extra", r.extra.to_json(&named(&r.extra)));
    println!("detail {}", detail.render());
    let line = Json::object()
        .field("correct", r.correct)
        .field("attempted", r.attempted)
        .field("failed", r.failed)
        .field("metrics", r.metrics.to_json(&defs));
    println!("{}", line.render());
    if r.correct {
        Ok(())
    } else {
        Err(format!("{name}: an output check failed"))
    }
}

/// The definitions of exactly the metrics `v` holds.
fn named(v: &Values) -> Vec<MetricDef> {
    metrics::per_layer()
        .into_iter()
        .filter(|d| v.get(&d.name).is_some())
        .collect()
}

/// The two JSON lines a child ends its output with.
fn child_lines(stdout: &str) -> Option<(Json, Json)> {
    let mut lines = stdout.lines().rev();
    let contract = Json::parse(lines.next()?).ok()?;
    let detail = Json::parse(lines.next()?.strip_prefix("detail ")?).ok()?;
    Some((detail, contract))
}

/// Run one child process of this executable; echo what it prints.
fn child(name: &str, o: &Options, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for l in stdout.lines() {
        if !l.starts_with("detail ") && !l.starts_with('{') {
            println!("{l}");
        }
    }
    let lines = child_lines(&stdout).ok_or_else(|| format!("{name}: no result line"))?;
    if out.status.success() {
        Ok(lines)
    } else {
        Err(format!("{name}: exited with {}", out.status))
    }
}

/// Add the metrics not there yet: what the untraced, full-length run
/// measured stands; the traced run (half the window) only adds to it.
fn merge(into: &mut Vec<(String, Json)>, metrics: Option<&Json>) {
    for (k, v) in metrics.and_then(Json::as_object).unwrap_or(&[]) {
        if !into.iter().any(|(have, _)| have == k) {
            into.push((k.clone(), v.clone()));
        }
    }
}

/// Every workload, each in its own process, one after another.
pub fn run_all(o: &Options) -> Result<(), String> {
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let mut failures = Vec::new();
    let mut results = Json::object();
    for w in &WORKLOADS {
        let mut metrics = Vec::new();
        let mut head = None;
        let mut disturbed = false;
        for trace in [false, true] {
            if trace && !o.trace {
                continue;
            }
            match child(w.name, o, trace) {
                Ok((detail, contract)) => {
                    merge(&mut metrics, contract.get("metrics"));
                    merge(&mut metrics, detail.get("extra"));
                    disturbed |= detail.get("disturbed") == Some(&Json::Bool(true));
                    if contract.get("correct") != Some(&Json::Bool(true)) {
                        failures.push(format!("{}: incorrect output", w.name));
                    }
                    head.get_or_insert(contract);
                }
                Err(e) => failures.push(e),
            }
        }
        let Some(head) = head else { continue };
        let field = |k: &str| head.get(k).cloned().unwrap_or(Json::Null);
        results = results.field(
            w.name,
            Json::object()
                .field("correct", field("correct"))
                .field("attempted", field("attempted"))
                .field("failed", field("failed"))
                .field("disturbed", disturbed)
                .field("metrics", Json::Object(metrics)),
        );
    }
    let doc = Json::object()
        .field("seed", o.seed)
        .field("seconds", o.seconds)
        .field("traced", o.trace)
        .field("workloads", results);
    let path = o.out.join("results.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results -> {}", path.display());

    if o.trace {
        if let Err(e) = crate::selfcheck::run(o.seed, &doc) {
            failures.push(e);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}
