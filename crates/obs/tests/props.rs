//! Property tests for the log-bucketed histogram. Runs on the in-tree
//! `neat_util::check` harness (seeded generation + shrinking).

use neat_obs::Histogram;
use neat_util::check::{check, vec_of, Config};
use neat_util::{prop_assert, ToJson};

/// Histogram quantiles are monotone in q and bounded by min/max.
#[test]
fn histogram_quantile_monotone() {
    check(
        "histogram_quantile_monotone",
        Config::default().cases(96),
        |rng| vec_of(rng, 1..200, |r| r.gen_range(1u64..10_000_000)),
        |values| {
            if values.is_empty() {
                return Ok(());
            }
            let mut h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            let mut prev = 0;
            for q in qs {
                let x = h.quantile(q);
                prop_assert!(x >= prev, "monotone at q={q}");
                prev = x;
            }
            prop_assert!(h.quantile(1.0) <= h.max());
            prop_assert!(h.mean() <= h.max());
            prop_assert!(h.mean() >= h.min());
            Ok(())
        },
    );
}

/// JSON summaries of stats are well-formed and carry the right counts —
/// the machine-readable results path stays consistent with the render.
#[test]
fn stats_to_json_consistent() {
    check(
        "stats_to_json_consistent",
        Config::default().cases(32),
        |rng| vec_of(rng, 1..100, |r| r.gen_range(1u64..1_000_000)),
        |values| {
            if values.is_empty() {
                return Ok(());
            }
            let mut h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            let rendered = h.to_json().render();
            prop_assert!(
                rendered.contains(&format!("\"count\":{}", values.len())),
                "count field: {rendered}"
            );
            prop_assert!(rendered.starts_with('{') && rendered.ends_with('}'));
            Ok(())
        },
    );
}
