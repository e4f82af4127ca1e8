//! Security side effect of replication (§3.8): address-space
//! re-randomization across connections.
//!
//! Each replica starts (and restarts) with an independent ASLR layout; the
//! library binds every new connection to a *random* replica. Consecutive
//! connections are therefore handled by processes with unpredictably
//! different memory layouts, countering memory-error attacks that need a
//! stable layout across requests (Hacking Blind et al.). This module
//! quantifies that unpredictability.

use std::collections::BTreeMap;

/// Observes the replica (layout) that served each consecutive connection,
/// as a running summary of the sequence: what the measures below read of
/// it, in a size that follows the layouts seen, not the connections.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AslrObserver {
    /// Connections served per layout, in layout order: a fixed order, so
    /// the entropy sum below adds its terms the same way in every process.
    counts: BTreeMap<u64, usize>,
    /// The first and the last layout token recorded.
    ends: Option<(u64, u64)>,
    /// Consecutive pairs of connections served by the same layout.
    same: usize,
    /// Connections recorded.
    len: usize,
}

impl AslrObserver {
    pub fn new() -> AslrObserver {
        AslrObserver::default()
    }

    /// Record the layout token of the replica that served a connection.
    pub fn record(&mut self, layout_token: u64) {
        *self.counts.entry(layout_token).or_default() += 1;
        match &mut self.ends {
            Some((_, last)) => {
                self.same += usize::from(*last == layout_token);
                *last = layout_token;
            }
            None => self.ends = Some((layout_token, layout_token)),
        }
        self.len += 1;
    }

    /// Append `later`'s connections behind this one's: the summary
    /// recording the two sequences one after the other would give.
    pub fn merge(&mut self, later: &AslrObserver) {
        for (&token, &n) in &later.counts {
            *self.counts.entry(token).or_default() += n;
        }
        self.same += later.same;
        self.ends = match (self.ends, later.ends) {
            (Some((first, last)), Some((next, end))) => {
                self.same += usize::from(last == next);
                Some((first, end))
            }
            (ends, later) => ends.or(later),
        };
        self.len += later.len;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct layouts observed.
    pub fn distinct_layouts(&self) -> usize {
        self.counts.len()
    }

    /// Shannon entropy (bits) of the layout distribution: the attacker's
    /// per-connection uncertainty about which layout will serve them.
    pub fn entropy_bits(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let n = self.len as f64;
        -self
            .counts
            .values()
            .map(|&c| {
                let p = c as f64 / n;
                p * p.log2()
            })
            .sum::<f64>()
    }

    /// Fraction of consecutive connection pairs that landed on the *same*
    /// layout — the attacker's chance a probed layout is still valid for
    /// the next connection. With N replicas this approaches 1/N.
    pub fn consecutive_same_fraction(&self) -> f64 {
        if self.len < 2 {
            return 1.0;
        }
        self.same as f64 / (self.len - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_util::Rng;

    #[test]
    fn single_replica_no_entropy() {
        let mut o = AslrObserver::new();
        for _ in 0..100 {
            o.record(42);
        }
        assert_eq!(o.distinct_layouts(), 1);
        assert_eq!(o.entropy_bits(), 0.0);
        assert_eq!(o.consecutive_same_fraction(), 1.0);
    }

    #[test]
    fn four_replicas_two_bits() {
        let mut o = AslrObserver::new();
        let layouts = [11u64, 22, 33, 44];
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..10_000 {
            o.record(layouts[rng.gen_range(0usize..4)]);
        }
        assert_eq!(o.distinct_layouts(), 4);
        assert!(
            (o.entropy_bits() - 2.0).abs() < 0.05,
            "{}",
            o.entropy_bits()
        );
        let f = o.consecutive_same_fraction();
        assert!((f - 0.25).abs() < 0.05, "{f}");
    }

    #[test]
    fn restart_adds_layouts() {
        // A replica restart yields a fresh token: distinct layouts grow
        // beyond the replica count over time.
        let mut o = AslrObserver::new();
        o.record(1);
        o.record(2);
        o.record(99); // replica 1 restarted with a new layout
        assert_eq!(o.distinct_layouts(), 3);
    }

    /// Random token sequences cut at random points: the parts' summaries,
    /// merged in order, equal the whole sequence's, field by field and in
    /// every measure, bit for bit; and so does a flat reading of the
    /// sequence.
    #[test]
    fn merged_parts_summarise_the_whole_sequence() {
        use neat_util::check::{check, vec_of, Config};
        use neat_util::{prop_assert, prop_assert_eq};
        check(
            "merged_parts_summarise_the_whole_sequence",
            Config::default().cases(256),
            |rng| {
                let tokens = rng.gen_range(1u64..6);
                (
                    vec_of(rng, 0..60, |r| r.gen_range(0..tokens)),
                    vec_of(rng, 0..6, |r| r.gen::<u8>()),
                )
            },
            |(seq, cuts)| {
                let mut at: Vec<usize> =
                    cuts.iter().map(|&c| c as usize % (seq.len() + 1)).collect();
                at.sort_unstable();
                let mut whole = AslrObserver::new();
                seq.iter().for_each(|&t| whole.record(t));
                let mut merged = AslrObserver::new();
                let mut from = 0;
                for to in at.into_iter().chain([seq.len()]) {
                    let mut part = AslrObserver::new();
                    seq[from..to].iter().for_each(|&t| part.record(t));
                    merged.merge(&part);
                    from = to;
                }
                prop_assert_eq!(&merged.counts, &whole.counts);
                prop_assert_eq!(merged.ends, whole.ends);
                prop_assert_eq!(merged.same, whole.same);
                prop_assert_eq!(merged.len, whole.len);
                for o in [&merged, &whole] {
                    prop_assert_eq!(o.entropy_bits().to_bits(), flat_entropy(&seq).to_bits());
                    prop_assert_eq!(o.consecutive_same_fraction(), flat_same(&seq));
                }
                prop_assert!(merged == whole);
                Ok(())
            },
        );
    }

    /// The entropy of a sequence read whole, as the observer computed it
    /// when it kept every token.
    fn flat_entropy(seq: &[u64]) -> f64 {
        if seq.is_empty() {
            return 0.0;
        }
        let mut counts = BTreeMap::<u64, usize>::new();
        for &t in seq {
            *counts.entry(t).or_default() += 1;
        }
        let n = seq.len() as f64;
        -counts
            .values()
            .map(|&c| {
                let p = c as f64 / n;
                p * p.log2()
            })
            .sum::<f64>()
    }

    fn flat_same(seq: &[u64]) -> f64 {
        if seq.len() < 2 {
            return 1.0;
        }
        let same = seq.windows(2).filter(|w| w[0] == w[1]).count();
        same as f64 / (seq.len() - 1) as f64
    }

    #[test]
    fn empty_observer_sane() {
        let o = AslrObserver::new();
        assert!(o.is_empty());
        assert_eq!(o.entropy_bits(), 0.0);
    }
}
