//! RFC 6298 retransmission-timeout estimation with Karn's rule and
//! exponential backoff.

/// Smoothed RTT estimator producing the retransmission timeout. The
/// learned fields travel in a TCB checkpoint (`tcb.rs`); the min/max
/// clamps are constants of `new`, so they need not.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    /// Smoothed RTT (ns); `None` until the first sample.
    pub(crate) srtt: Option<f64>,
    /// RTT variance (ns).
    pub(crate) rttvar: f64,
    /// Current RTO (ns), including any backoff.
    pub(crate) rto_ns: u64,
    /// Base RTO before backoff was applied.
    pub(crate) base_rto_ns: u64,
    /// Consecutive backoffs applied since the last valid sample.
    pub(crate) backoffs: u32,
    min_rto_ns: u64,
    max_rto_ns: u64,
}

const ALPHA: f64 = 1.0 / 8.0;
const BETA: f64 = 1.0 / 4.0;
/// Clock granularity G of RFC 6298 (we use 1 ms).
const GRANULARITY_NS: f64 = 1_000_000.0;

impl RttEstimator {
    pub fn new(initial_rto_ns: u64) -> RttEstimator {
        RttEstimator {
            srtt: None,
            rttvar: 0.0,
            rto_ns: initial_rto_ns,
            base_rto_ns: initial_rto_ns,
            backoffs: 0,
            min_rto_ns: 1_000_000,      // 1 ms floor (LAN-scale; RFC says 1 s)
            max_rto_ns: 60_000_000_000, // 60 s ceiling
        }
    }

    /// Feed one RTT measurement from a segment that was *not* retransmitted
    /// (Karn's rule is enforced by the caller tracking retransmission).
    pub fn sample(&mut self, rtt_ns: u64) {
        let r = rtt_ns as f64;
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = (1.0 - BETA) * self.rttvar + BETA * (srtt - r).abs();
                self.srtt = Some((1.0 - ALPHA) * srtt + ALPHA * r);
            }
        }
        let srtt = self.srtt.unwrap();
        let rto = srtt + (4.0 * self.rttvar).max(GRANULARITY_NS);
        self.base_rto_ns = (rto as u64).clamp(self.min_rto_ns, self.max_rto_ns);
        self.rto_ns = self.base_rto_ns;
        self.backoffs = 0;
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> u64 {
        self.rto_ns
    }

    /// Exponential backoff after a retransmission timeout fires.
    pub fn backoff(&mut self) {
        self.backoffs += 1;
        self.rto_ns = (self.rto_ns.saturating_mul(2)).min(self.max_rto_ns);
    }

    pub fn srtt(&self) -> Option<u64> {
        self.srtt.map(|s| s as u64)
    }

    pub fn backoffs(&self) -> u32 {
        self.backoffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new(200 * MS);
        assert_eq!(e.rto(), 200 * MS);
        e.sample(10 * MS);
        // RTO = srtt + max(G, 4*rttvar) = 10ms + 4*5ms = 30ms
        assert_eq!(e.srtt(), Some(10 * MS));
        assert_eq!(e.rto(), 30 * MS);
    }

    #[test]
    fn smoothing_converges() {
        let mut e = RttEstimator::new(200 * MS);
        for _ in 0..100 {
            e.sample(5 * MS);
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt as i64 - (5 * MS) as i64).abs() < MS as i64 / 10);
        // Stable RTT -> variance collapses -> RTO approaches srtt + G.
        assert!(e.rto() < 8 * MS, "rto={}", e.rto());
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = RttEstimator::new(100 * MS);
        e.backoff();
        assert_eq!(e.rto(), 200 * MS);
        e.backoff();
        assert_eq!(e.rto(), 400 * MS);
        assert_eq!(e.backoffs(), 2);
        e.sample(10 * MS);
        assert_eq!(e.backoffs(), 0);
        assert!(e.rto() < 100 * MS);
    }

    #[test]
    fn rto_clamped() {
        let mut e = RttEstimator::new(30_000 * MS);
        for _ in 0..10 {
            e.backoff();
        }
        assert_eq!(e.rto(), 60_000 * MS);
        let mut f = RttEstimator::new(MS);
        f.sample(100); // 100ns RTT
        assert!(f.rto() >= 1_000_000, "floor holds: {}", f.rto());
    }

    #[test]
    fn spiky_rtt_raises_variance() {
        let mut stable = RttEstimator::new(200 * MS);
        let mut spiky = RttEstimator::new(200 * MS);
        for i in 0..50 {
            stable.sample(10 * MS);
            spiky.sample(if i % 2 == 0 { 2 * MS } else { 18 * MS });
        }
        assert!(spiky.rto() > stable.rto());
    }
}
