//! Value-space measurement primitives: log-bucketed histograms.
//!
//! Value space: plain `u64`, conventionally nanoseconds, so that every
//! layer of the system — including ones below the simulator — records
//! into the same histogram type.

use neat_util::{Json, ToJson};

/// A log-bucketed histogram (HdrHistogram-style, power-of-two buckets
/// with linear sub-buckets), covering 1 .. ~2^43 (≈17 s in nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// 40 major buckets x 16 sub-buckets.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
    min: u64,
}

const SUB: usize = 16;
const BUCKETS: usize = 40 * SUB;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let major = 63 - v.leading_zeros() as usize; // floor(log2)
        let shift = major - 4; // keep 4 bits of sub-bucket precision
        let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
        let bucket = (major - 3) * SUB + sub;
        bucket.min(BUCKETS - 1)
    }

    /// Bucket lower bound for an index (inverse of `index`, approximate).
    fn value_of(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let major = idx / SUB + 3;
        let sub = (idx % SUB) as u64;
        let shift = major - 4;
        ((SUB as u64) << shift) | (sub << shift)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            return 0;
        }
        (self.sum / self.total as u128) as u64
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Quantile in `[0, 1]`, e.g. `0.99` for p99. Returns the lower bound
    /// of the bucket containing the quantile; exact recorded values above
    /// the bucket range saturate into the last bucket, so `max()` bounds
    /// the answer.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((self.total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Self::value_of(i);
            }
        }
        self.max
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if other.total > 0 {
            self.min = self.min.min(other.min);
        }
    }
}

impl ToJson for Histogram {
    /// Summary form for the machine-readable results files: counts plus
    /// the quantiles the paper's figures quote (field names assume the
    /// conventional nanosecond value space).
    fn to_json(&self) -> Json {
        Json::object()
            .field("count", self.total)
            .field("mean_ns", self.mean())
            .field("min_ns", self.min())
            .field("max_ns", self.max())
            .field("p50_ns", self.quantile(0.5))
            .field("p90_ns", self.quantile(0.9))
            .field("p99_ns", self.quantile(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn single_sample_all_quantiles_agree() {
        let mut h = Histogram::new();
        h.record(12_345);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            // One sample: every quantile lands in its bucket.
            assert!((12_288..=12_345).contains(&v), "q={q} v={v}");
        }
        assert_eq!(h.mean(), 12_345);
        assert_eq!(h.min(), 12_345);
        assert_eq!(h.max(), 12_345);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(10);
        a.record(1_000_000);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before, "merging an empty histogram changes nothing");
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before, "merging into an empty histogram copies");
        assert_eq!(
            e.min(),
            10,
            "min survives the merge (not poisoned by empty)"
        );
    }

    #[test]
    fn bucket_saturation_clamps_huge_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        // Both land in the final bucket rather than indexing out of range.
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // The quantile reports the last bucket's lower bound, bounded by max.
        assert!(h.quantile(1.0) <= h.max());
        assert!(h.quantile(0.5) == h.quantile(1.0), "same saturated bucket");
    }

    #[test]
    fn histogram_orders_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1_000);
        }
        assert_eq!(h.count(), 1000);
        let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
        assert!(p50 < p99);
        // Uniform 1..1000 us: p50 lands near 500 us (bucket bounds make
        // this approximate).
        assert!((350_000..700_000).contains(&p50), "p50={p50}");
        assert_eq!((h.min(), h.max()), (1_000, 1_000_000));
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.mean(), 200);
    }

    #[test]
    fn histogram_merge_adds() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        a.record(10_000);
        b.record(20_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 20_000);
    }

    #[test]
    fn small_values_exact_buckets() {
        let mut h = Histogram::new();
        h.record(3);
        assert_eq!(h.quantile(1.0), 3);
    }

    #[test]
    fn empty_and_single_sample_edge_cases() {
        let empty = Histogram::new();
        let mut single = Histogram::new();
        single.record(42_000);
        for q in [0.0, 0.5, 1.0] {
            // The bucket lower bound for 42 000 is 40 960 (4 sub-bucket bits).
            assert!((40_960..=42_000).contains(&single.quantile(q)), "q={q}");
        }
        let mut e = empty.clone();
        e.merge(&single);
        assert_eq!((e.count(), e.min()), (1, 42_000));
        let mut s = single.clone();
        s.merge(&empty);
        assert_eq!(s, single);
    }

    #[test]
    fn bucket_saturation_is_safe() {
        // 40 000 s in ns is past the last bucket (≈ 17 s): it clamps, and
        // max() still reports it exactly.
        let mut h = Histogram::new();
        let huge = 40_000 * 1_000_000_000;
        h.record(huge);
        assert_eq!(h.max(), huge);
        assert!(h.quantile(1.0) <= huge);
        assert!(h.quantile(0.5) > 0);
    }

    #[test]
    fn json_summary_shape() {
        let mut h = Histogram::new();
        h.record(100);
        let s = h.to_json().render();
        for key in ["count", "mean_ns", "p50_ns", "p99_ns"] {
            assert!(s.contains(key), "{s} missing {key}");
        }
    }
}
