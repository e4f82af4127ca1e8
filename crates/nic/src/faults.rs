//! Link-level fault injection, modelled on smoltcp's example options
//! `--drop-chance` and `--corrupt-chance`. Used to demonstrate the stack's
//! robustness and to stress the recovery experiments.

use neat_net::PktBuf;
use neat_util::Rng;

/// Fault injection configuration (probabilities in percent, like smoltcp).
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Probability (0–100) of dropping a frame.
    pub drop_pct: u8,
    /// Probability (0–100) of flipping one bit in a frame.
    pub corrupt_pct: u8,
}

/// What happened to a frame passed through the injector. `Pass` keeps
/// the original buffer handle (zero-copy); only `Corrupted` re-grants —
/// corruption is the one fault that must materialize new bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Pass through unchanged.
    Pass(PktBuf),
    /// Pass through with one octet mutated.
    Corrupted(PktBuf),
    /// Silently dropped.
    Dropped,
}

/// Stateful fault injector (an RNG stream).
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: Rng,
    pub dropped: u64,
    pub corrupted: u64,
    pub passed: u64,
}

impl FaultInjector {
    pub fn new(cfg: FaultConfig, seed: u64) -> FaultInjector {
        FaultInjector {
            cfg,
            rng: Rng::seed_from_u64(seed),
            dropped: 0,
            corrupted: 0,
            passed: 0,
        }
    }

    /// A no-fault injector (everything passes).
    pub fn disabled(seed: u64) -> FaultInjector {
        FaultInjector::new(FaultConfig::default(), seed)
    }

    /// Run one frame through the injector.
    pub fn apply(&mut self, frame: PktBuf) -> FaultOutcome {
        // Random drop.
        if self.cfg.drop_pct > 0 && self.rng.gen_range(0u32..100) < self.cfg.drop_pct as u32 {
            self.dropped += 1;
            return FaultOutcome::Dropped;
        }
        // Random single-octet corruption (the only path that copies).
        if self.cfg.corrupt_pct > 0
            && !frame.is_empty()
            && self.rng.gen_range(0u32..100) < self.cfg.corrupt_pct as u32
        {
            let idx = self.rng.gen_range(0..frame.len());
            let bit = 1u8 << self.rng.gen_range(0u32..8);
            self.corrupted += 1;
            return FaultOutcome::Corrupted(PktBuf::build(frame.len(), |b| {
                b.copy_from_slice(&frame);
                b[idx] ^= bit;
            }));
        }
        self.passed += 1;
        FaultOutcome::Pass(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_passes_everything() {
        let mut f = FaultInjector::disabled(1);
        for i in 0..100u8 {
            match f.apply(vec![i; 64].into()) {
                FaultOutcome::Pass(v) => assert_eq!(&v[..], &vec![i; 64][..]),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(f.passed, 100);
    }

    #[test]
    fn drop_rate_approximates_config() {
        let mut f = FaultInjector::new(
            FaultConfig {
                drop_pct: 15,
                ..Default::default()
            },
            42,
        );
        let mut drops = 0;
        for _ in 0..10_000 {
            if f.apply(vec![0; 64].into()) == FaultOutcome::Dropped {
                drops += 1;
            }
        }
        let rate = drops as f64 / 10_000.0;
        assert!((0.12..=0.18).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut f = FaultInjector::new(
            FaultConfig {
                corrupt_pct: 100,
                ..Default::default()
            },
            7,
        );
        let orig = vec![0u8; 64];
        match f.apply(orig.clone().into()) {
            FaultOutcome::Corrupted(v) => {
                let flipped: u32 = v.iter().zip(&orig).map(|(a, b)| (a ^ b).count_ones()).sum();
                assert_eq!(flipped, 1);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_with_seed() {
        let run = |seed| {
            let mut f = FaultInjector::new(
                FaultConfig {
                    drop_pct: 50,
                    ..Default::default()
                },
                seed,
            );
            (0..64)
                .map(|_| f.apply(vec![0; 8].into()) == FaultOutcome::Dropped)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
