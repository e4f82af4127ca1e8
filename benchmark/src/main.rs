//! `neat-benchmark` — see `README.md` beside this crate.
//!
//! ```text
//! neat-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! neat-benchmark [--seed N] [--seconds S] [--trace]              every workload, one process each
//! neat-benchmark compare A.json B.json                           do two result sets agree?
//! neat-benchmark selfcheck [--seed N] [--out DIR]                does the benchmark measure? (after --trace)
//! ```

use neat_benchmark::{compare, report, selfcheck};
use std::process::ExitCode;

const USAGE: &str = "usage: neat-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--out DIR] | compare A.json B.json | selfcheck [--seed N] [--out DIR]";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<report::Options, String> {
    let mut o = report::Options::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                o.seed = parse_seed(&v).ok_or_else(|| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {v:?}"))?;
            }
            "--out" => o.out = value("a directory")?.into(),
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("selfcheck") => parse(&args[1..]).and_then(|o| selfcheck::run_file(o.seed, &o.out)),
        _ => parse(&args).and_then(|o| match o.workload.clone() {
            Some(name) => report::run_one(&name, &o),
            None => report::run_all(&o),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("neat-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
