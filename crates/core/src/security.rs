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

/// Observes the replica (layout) that served each consecutive connection.
#[derive(Debug, Default)]
pub struct AslrObserver {
    /// Layout token of the replica serving each connection, in order.
    sequence: Vec<u64>,
}

impl AslrObserver {
    pub fn new() -> AslrObserver {
        AslrObserver::default()
    }

    /// Record the layout token of the replica that served a connection.
    pub fn record(&mut self, layout_token: u64) {
        self.sequence.push(layout_token);
    }

    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// Connections served per layout, in layout order: a fixed order, so
    /// the entropy sum below adds its terms the same way in every process.
    fn counts(&self) -> BTreeMap<u64, usize> {
        let mut counts = BTreeMap::new();
        for &t in &self.sequence {
            *counts.entry(t).or_default() += 1;
        }
        counts
    }

    /// Number of distinct layouts observed.
    pub fn distinct_layouts(&self) -> usize {
        self.counts().len()
    }

    /// Shannon entropy (bits) of the layout distribution: the attacker's
    /// per-connection uncertainty about which layout will serve them.
    pub fn entropy_bits(&self) -> f64 {
        if self.sequence.is_empty() {
            return 0.0;
        }
        let n = self.sequence.len() as f64;
        -self
            .counts()
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
        if self.sequence.len() < 2 {
            return 1.0;
        }
        let same = self.sequence.windows(2).filter(|w| w[0] == w[1]).count();
        same as f64 / (self.sequence.len() - 1) as f64
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

    #[test]
    fn empty_observer_sane() {
        let o = AslrObserver::new();
        assert!(o.is_empty());
        assert_eq!(o.entropy_bits(), 0.0);
    }
}
