//! Measurement utilities: latency histograms.
//!
//! The benchmark harness reports the same quantities httperf does in the
//! paper: successful request rate (krps), throughput (MB/s), and response
//! latency — so the experiment binaries can print paper-shaped rows.
//!
//! The bucket/merge/quantile machinery lives in [`neat_obs::stats`] so
//! that every layer of the workspace shares one histogram implementation;
//! this is a thin [`Time`]-typed wrapper preserving the original
//! simulator-facing API.

use crate::time::Time;
use neat_util::{Json, ToJson};

/// A log-bucketed latency histogram (HdrHistogram-style, power-of-two
/// buckets with linear sub-buckets), covering 1 ns .. ~17 s.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: neat_obs::Histogram,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            inner: neat_obs::Histogram::new(),
        }
    }

    pub fn record(&mut self, t: Time) {
        self.inner.record(t.as_nanos());
    }

    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    pub fn mean(&self) -> Time {
        Time(self.inner.mean())
    }

    pub fn max(&self) -> Time {
        Time(self.inner.max())
    }

    pub fn min(&self) -> Time {
        Time(self.inner.min())
    }

    /// Quantile in `[0, 1]`, e.g. `0.99` for p99. Returns the lower bound of
    /// the bucket containing the quantile.
    pub fn quantile(&self, q: f64) -> Time {
        Time(self.inner.quantile(q))
    }

    pub fn merge(&mut self, other: &Histogram) {
        self.inner.merge(&other.inner);
    }

    /// The value-space histogram underneath (e.g. to register a merged
    /// copy into the `neat_obs` metrics registry).
    pub fn inner(&self) -> &neat_obs::Histogram {
        &self.inner
    }
}

impl ToJson for Histogram {
    /// Summary form for the machine-readable results files: counts plus
    /// the latency quantiles the paper's figures quote.
    fn to_json(&self) -> Json {
        self.inner.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_orders_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Time::from_micros(i));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 < p99);
        // p50 of uniform 1..1000us should land near 500us (bucket bounds
        // make this approximate).
        assert!(
            p50 > Time::from_micros(350) && p50 < Time::from_micros(700),
            "p50={p50}"
        );
        assert!(h.max() == Time::from_micros(1000));
        assert!(h.min() == Time::from_micros(1));
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(Time::from_nanos(100));
        h.record(Time::from_nanos(300));
        assert_eq!(h.mean(), Time::from_nanos(200));
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Time::from_micros(10));
        b.record(Time::from_micros(20));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Time::from_micros(20));
    }

    #[test]
    fn small_values_exact_buckets() {
        let mut h = Histogram::new();
        h.record(Time::from_nanos(3));
        assert_eq!(h.quantile(1.0), Time::from_nanos(3));
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.mean(), Time::ZERO);
        assert_eq!(h.quantile(0.99), Time::ZERO);
        assert_eq!(h.min(), Time::ZERO);
    }

    #[test]
    fn empty_and_single_sample_edge_cases() {
        // Quantiles and merge behave on empty and one-sample histograms.
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.0), Time::ZERO);
        assert_eq!(empty.quantile(1.0), Time::ZERO);

        let mut single = Histogram::new();
        single.record(Time::from_micros(42));
        for q in [0.0, 0.5, 1.0] {
            let v = single.quantile(q);
            // Bucket lower bound for 42 us is 40.96 us (4 sub-bucket bits).
            assert!(
                v <= Time::from_micros(42) && v >= Time::from_nanos(40_960),
                "q={q} v={v}"
            );
        }

        // empty.merge(single) copies; single.merge(empty) is identity.
        let mut e = Histogram::new();
        e.merge(&single);
        assert_eq!(e.count(), 1);
        assert_eq!(e.min(), single.min());
        let before = (single.count(), single.min(), single.max());
        let mut s = single.clone();
        s.merge(&empty);
        assert_eq!((s.count(), s.min(), s.max()), before);
    }

    #[test]
    fn bucket_saturation_is_safe() {
        // Values beyond the last bucket (≈17 s in ns) clamp instead of
        // indexing out of bounds, and max() still reports exactly.
        let mut h = Histogram::new();
        let huge = Time::from_secs(40_000);
        h.record(huge);
        assert_eq!(h.max(), huge);
        assert!(h.quantile(1.0) <= huge);
        assert!(h.quantile(0.5) > Time::ZERO);
    }
}
