//! Congestion-control component: the event-driven API every controller
//! implements, plus the in-tree algorithms (Reno, CUBIC, BBR-style,
//! DCTCP-style, and the wide-open `NoCc`).
//!
//! The old trait was poll-shaped (`cwnd()` + three ad-hoc callbacks) and
//! starved model-based controllers of their inputs: BBR needs RTT samples
//! and delivery-rate observations, DCTCP needs a per-window congestion
//! fraction. The redesigned API delivers full [`AckEvent`]s and returns a
//! [`CcDecision`] so the send path consumes one coherent verdict (window,
//! ssthresh, pacing) instead of probing fields.

use crate::types::CongestionAlgo;

/// Everything a cumulative ACK tells the controller.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Bytes newly acknowledged by this ACK (the socket reports at least
    /// 1 so window-update-only ACKs still clock the controller, matching
    /// the historical call site).
    pub newly_acked: usize,
    /// RTT measurement taken on this ACK, if Karn's rule allowed one (ns).
    pub rtt_sample: Option<u64>,
    /// Simulation time of the ACK (ns).
    pub now_ns: u64,
    /// Bytes still outstanding *after* this ACK was applied.
    pub in_flight: usize,
}

/// The controller's verdict, consumed by the socket's transmit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcDecision {
    /// Congestion window in bytes.
    pub cwnd: usize,
    /// Slow-start threshold in bytes.
    pub ssthresh: usize,
    /// When set, the send path caps each burst at one MSS instead of the
    /// configured GSO super-segment — a pacing stand-in for rate-based
    /// controllers that must not dump a whole window back-to-back.
    pub pacing_gate: bool,
}

/// The event-driven interface the socket's ACK and send paths consult.
///
/// Every controller is plain data — events in, a [`CcDecision`] out, no
/// reference to the socket that owns it — which is what lets one be
/// swapped per flow ([`SockOpt::CongestionAlgo`](crate::SockOpt)).
pub trait CongestionControl: std::fmt::Debug {
    /// Which algorithm this controller implements.
    fn algo(&self) -> CongestionAlgo;

    /// New data was cumulatively acknowledged.
    fn on_ack(&mut self, ev: &AckEvent) -> CcDecision;

    /// A loss was detected via duplicate ACKs (fast retransmit entry).
    fn on_loss(&mut self, now_ns: u64) -> CcDecision;

    /// The retransmission timer fired — collapse the window.
    fn on_rto(&mut self, now_ns: u64) -> CcDecision;

    /// The sender ran out of application data while the window still had
    /// room: rate samples taken now under-estimate the path.
    fn on_app_limited(&mut self, now_ns: u64) {
        let _ = now_ns;
    }

    /// The current verdict without feeding any event.
    fn decision(&self) -> CcDecision;

    /// Force the congestion window (SockOpt::InitialCwnd); implementations
    /// clamp to at least one MSS. `NoCc` ignores it.
    fn set_cwnd(&mut self, bytes: usize);

    /// Convenience: current congestion window in bytes.
    fn cwnd(&self) -> usize {
        self.decision().cwnd
    }
}

/// Build the controller selected by the stack config or a socket option.
pub fn make(algo: CongestionAlgo, mss: u16) -> Box<dyn CongestionControl> {
    match algo {
        CongestionAlgo::Reno => Box::new(Reno::new(mss)),
        CongestionAlgo::Cubic => Box::new(Cubic::new(mss)),
        CongestionAlgo::None => Box::new(NoCc),
        CongestionAlgo::Bbr => Box::new(Bbr::new(mss)),
        CongestionAlgo::Dctcp => Box::new(Dctcp::new(mss)),
    }
}

/// RFC 5681 IW: min(4*MSS, max(2*MSS, 4380)).
fn initial_window(mss: usize) -> usize {
    (4 * mss).min((2 * mss).max(4380))
}

/// TCP Reno: slow start, congestion avoidance, fast recovery.
#[derive(Debug)]
pub struct Reno {
    mss: usize,
    cwnd: usize,
    ssthresh: usize,
    /// Bytes accumulated toward the next +MSS in congestion avoidance.
    avoid_acc: usize,
}

impl Reno {
    pub fn new(mss: u16) -> Reno {
        let mss = mss as usize;
        Reno {
            mss,
            cwnd: initial_window(mss),
            ssthresh: usize::MAX / 2,
            avoid_acc: 0,
        }
    }

    pub fn ssthresh(&self) -> usize {
        self.ssthresh
    }
}

impl CongestionControl for Reno {
    fn algo(&self) -> CongestionAlgo {
        CongestionAlgo::Reno
    }

    fn on_ack(&mut self, ev: &AckEvent) -> CcDecision {
        if self.cwnd < self.ssthresh {
            // Slow start: cwnd += min(acked, MSS) per ACK.
            self.cwnd += ev.newly_acked.min(self.mss);
        } else {
            // Congestion avoidance: +1 MSS per cwnd of data acked.
            self.avoid_acc += ev.newly_acked;
            if self.avoid_acc >= self.cwnd {
                self.avoid_acc -= self.cwnd;
                self.cwnd += self.mss;
            }
        }
        self.decision()
    }

    fn on_loss(&mut self, _now_ns: u64) -> CcDecision {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh;
        self.avoid_acc = 0;
        self.decision()
    }

    fn on_rto(&mut self, _now_ns: u64) -> CcDecision {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.avoid_acc = 0;
        self.decision()
    }

    fn decision(&self) -> CcDecision {
        CcDecision {
            cwnd: self.cwnd,
            ssthresh: self.ssthresh,
            pacing_gate: false,
        }
    }

    fn set_cwnd(&mut self, bytes: usize) {
        self.cwnd = bytes.max(self.mss);
    }
}

/// CUBIC (RFC 8312): window growth is a cubic function of time since the
/// last congestion event, independent of RTT.
#[derive(Debug)]
pub struct Cubic {
    mss: usize,
    cwnd: usize,
    ssthresh: usize,
    /// Window size before the last reduction (W_max), in bytes.
    pub(crate) w_max: f64,
    /// Time of the last congestion event (ns).
    epoch_start: Option<u64>,
    /// K: time to regain W_max, in seconds.
    k: f64,
}

/// RFC 8312 constants.
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

impl Cubic {
    pub fn new(mss: u16) -> Cubic {
        let mss = mss as usize;
        Cubic {
            mss,
            cwnd: initial_window(mss),
            ssthresh: usize::MAX / 2,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
        }
    }

    fn enter_epoch(&mut self, now_ns: u64) {
        self.epoch_start = Some(now_ns);
        let w_max_mss = self.w_max / self.mss as f64;
        let cwnd_mss = self.cwnd as f64 / self.mss as f64;
        self.k = if w_max_mss > cwnd_mss {
            ((w_max_mss - cwnd_mss) / CUBIC_C).cbrt()
        } else {
            0.0
        };
    }

    fn target(&self, now_ns: u64) -> usize {
        let t = (now_ns - self.epoch_start.unwrap()) as f64 / 1e9;
        let w_mss = CUBIC_C * (t - self.k).powi(3) + self.w_max / self.mss as f64;
        (w_mss * self.mss as f64).max(self.mss as f64) as usize
    }
}

impl CongestionControl for Cubic {
    fn algo(&self) -> CongestionAlgo {
        CongestionAlgo::Cubic
    }

    fn on_ack(&mut self, ev: &AckEvent) -> CcDecision {
        if self.cwnd < self.ssthresh {
            self.cwnd += ev.newly_acked.min(self.mss);
            return self.decision();
        }
        if self.epoch_start.is_none() {
            self.enter_epoch(ev.now_ns);
        }
        let target = self.target(ev.now_ns);
        if target > self.cwnd {
            // Approach the cubic target, at most one MSS per ACK.
            let step = ((target - self.cwnd) / 8).clamp(1, self.mss);
            self.cwnd += step;
        }
        self.decision()
    }

    fn on_loss(&mut self, _now_ns: u64) -> CcDecision {
        // RFC 8312 §4.6 fast convergence: a loss *below* the previous
        // peak means a new flow is taking its share — release the room
        // faster by remembering a scaled-down peak instead of the
        // unconditional `w_max = cwnd` the old trait implementation used.
        if (self.cwnd as f64) < self.w_max {
            self.w_max = self.cwnd as f64 * (2.0 - CUBIC_BETA) / 2.0;
        } else {
            self.w_max = self.cwnd as f64;
        }
        self.cwnd = ((self.cwnd as f64 * CUBIC_BETA) as usize).max(2 * self.mss);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        self.decision()
    }

    fn on_rto(&mut self, _now_ns: u64) -> CcDecision {
        self.w_max = self.cwnd as f64;
        self.ssthresh = ((self.cwnd as f64 * CUBIC_BETA) as usize).max(2 * self.mss);
        self.cwnd = self.mss;
        self.epoch_start = None;
        self.decision()
    }

    fn decision(&self) -> CcDecision {
        CcDecision {
            cwnd: self.cwnd,
            ssthresh: self.ssthresh,
            pacing_gate: false,
        }
    }

    fn set_cwnd(&mut self, bytes: usize) {
        self.cwnd = bytes.max(self.mss);
    }
}

/// BBR-style model-based controller (deterministic, simulation-grade).
///
/// Keeps the two filters the real BBR keeps — a windowed max of the
/// delivery rate and a running min of the RTT — and sizes the window to a
/// gain times the estimated bandwidth-delay product. Rounds are delimited
/// by the min-RTT (one delivery-rate sample per round). Startup grows the
/// window exponentially until the bandwidth filter plateaus for three
/// rounds, then the controller drops to ProbeBW and relies on the BDP
/// model; from there `pacing_gate` asks the send path to emit MSS-sized
/// bursts rather than GSO super-segments.
#[derive(Debug)]
pub struct Bbr {
    mss: usize,
    cwnd: usize,
    ssthresh: usize,
    /// Running minimum RTT (ns); u64::MAX until the first sample.
    min_rtt_ns: u64,
    /// Delivery-rate max filter: last `BBR_BW_FILTER_LEN` round samples
    /// (bytes/sec).
    bw_samples: [f64; BBR_BW_FILTER_LEN],
    bw_idx: usize,
    /// Time the current round started (ns).
    round_start_ns: u64,
    /// Bytes delivered in the current round.
    round_delivered: usize,
    /// Startup phase: exponential growth until the bandwidth plateaus.
    startup: bool,
    /// Best bandwidth seen when the plateau counter last reset.
    full_bw: f64,
    /// Consecutive rounds without `BBR_FULL_BW_GROWTH` improvement.
    full_bw_count: u32,
    /// The sender went app-limited this round: skip the rate sample.
    app_limited: bool,
}

const BBR_BW_FILTER_LEN: usize = 10;
/// A round must beat the previous best by 25% to still count as growth.
const BBR_FULL_BW_GROWTH: f64 = 1.25;
/// cwnd = gain × BDP in ProbeBW (2.0 leaves headroom for ACK clumping).
const BBR_CWND_GAIN: f64 = 2.0;

impl Bbr {
    pub fn new(mss: u16) -> Bbr {
        let mss = mss as usize;
        Bbr {
            mss,
            cwnd: initial_window(mss),
            ssthresh: usize::MAX / 2,
            min_rtt_ns: u64::MAX,
            bw_samples: [0.0; BBR_BW_FILTER_LEN],
            bw_idx: 0,
            round_start_ns: 0,
            round_delivered: 0,
            startup: true,
            full_bw: 0.0,
            full_bw_count: 0,
            app_limited: false,
        }
    }

    fn btl_bw(&self) -> f64 {
        self.bw_samples.iter().cloned().fold(0.0, f64::max)
    }

    /// Bandwidth-delay product in bytes, if both filters have samples.
    fn bdp(&self) -> Option<f64> {
        let bw = self.btl_bw();
        if bw <= 0.0 || self.min_rtt_ns == u64::MAX {
            return None;
        }
        Some(bw * self.min_rtt_ns as f64 / 1e9)
    }

    /// Close out a round: take one delivery-rate sample and advance the
    /// startup plateau detector.
    fn end_round(&mut self, now_ns: u64) {
        let elapsed = now_ns.saturating_sub(self.round_start_ns);
        if elapsed > 0 && self.round_delivered > 0 && !self.app_limited {
            let bw = self.round_delivered as f64 * 1e9 / elapsed as f64;
            self.bw_samples[self.bw_idx] = bw;
            self.bw_idx = (self.bw_idx + 1) % BBR_BW_FILTER_LEN;
            if self.startup {
                if bw >= self.full_bw * BBR_FULL_BW_GROWTH {
                    self.full_bw = bw;
                    self.full_bw_count = 0;
                } else {
                    self.full_bw_count += 1;
                    if self.full_bw_count >= 3 {
                        self.startup = false;
                    }
                }
            }
        }
        self.round_start_ns = now_ns;
        self.round_delivered = 0;
        self.app_limited = false;
    }
}

impl CongestionControl for Bbr {
    fn algo(&self) -> CongestionAlgo {
        CongestionAlgo::Bbr
    }

    fn on_ack(&mut self, ev: &AckEvent) -> CcDecision {
        if let Some(rtt) = ev.rtt_sample {
            self.min_rtt_ns = self.min_rtt_ns.min(rtt.max(1));
        }
        self.round_delivered += ev.newly_acked;
        let round_len = if self.min_rtt_ns == u64::MAX {
            // No RTT yet: fall back to a coarse round so the filter
            // still advances on one-way traffic.
            1_000_000
        } else {
            self.min_rtt_ns
        };
        if ev.now_ns.saturating_sub(self.round_start_ns) >= round_len {
            self.end_round(ev.now_ns);
        }
        if self.startup {
            // Exponential growth, like slow start but model-gated.
            self.cwnd += ev.newly_acked.min(self.mss);
        } else if let Some(bdp) = self.bdp() {
            self.cwnd = ((BBR_CWND_GAIN * bdp) as usize).max(4 * self.mss);
        }
        self.decision()
    }

    fn on_loss(&mut self, _now_ns: u64) -> CcDecision {
        // BBR does not treat isolated loss as a congestion signal, but a
        // dup-ack episode still means the bottleneck queue overflowed:
        // trim modestly and let the model re-inflate.
        self.ssthresh = ((self.cwnd as f64 * 0.85) as usize).max(2 * self.mss);
        self.cwnd = self.ssthresh;
        self.decision()
    }

    fn on_rto(&mut self, now_ns: u64) -> CcDecision {
        self.ssthresh = ((self.cwnd as f64 * 0.85) as usize).max(2 * self.mss);
        self.cwnd = self.mss;
        // The pipe drained; restart the round clock.
        self.round_start_ns = now_ns;
        self.round_delivered = 0;
        self.decision()
    }

    fn on_app_limited(&mut self, _now_ns: u64) {
        self.app_limited = true;
    }

    fn decision(&self) -> CcDecision {
        CcDecision {
            cwnd: self.cwnd,
            ssthresh: self.ssthresh,
            // Pace once the model is trusted; startup keeps GSO bursts.
            pacing_gate: !self.startup,
        }
    }

    fn set_cwnd(&mut self, bytes: usize) {
        self.cwnd = bytes.max(self.mss);
    }
}

/// DCTCP-style controller (RFC 8257 shape): the window cut is scaled by
/// the observed congestion fraction α instead of a fixed ½.
///
/// The simulated wire format has no ECN bits, so loss events stand in
/// for CE marks: each `on_loss` contributes one MSS of "marked" bytes to
/// the per-window fraction F, and α is EWMA-updated once per window of
/// acked data (gain 1/16). Growth follows Reno (slow start below
/// ssthresh, +1 MSS per window in avoidance).
#[derive(Debug)]
pub struct Dctcp {
    mss: usize,
    cwnd: usize,
    ssthresh: usize,
    /// Congestion estimate α ∈ [0, 1]; starts at 1.0 (RFC 8257 §4.2
    /// conservative initialization).
    alpha: f64,
    /// Bytes acked in the current observation window.
    window_acked: usize,
    /// Proxy-marked bytes in the current observation window.
    window_marked: usize,
    /// Window length in bytes, snapshotted at window start (cwnd keeps
    /// moving mid-window, the observation interval must not).
    window_target: usize,
    avoid_acc: usize,
}

/// RFC 8257 estimation gain g = 1/16.
const DCTCP_G: f64 = 1.0 / 16.0;

impl Dctcp {
    pub fn new(mss: u16) -> Dctcp {
        let mss = mss as usize;
        let cwnd = initial_window(mss);
        Dctcp {
            mss,
            cwnd,
            ssthresh: usize::MAX / 2,
            alpha: 1.0,
            window_acked: 0,
            window_marked: 0,
            window_target: cwnd,
            avoid_acc: 0,
        }
    }

    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// One observation window (≈ cwnd of acked data) elapsed: fold the
    /// marked fraction into α.
    fn update_alpha(&mut self) {
        let f = (self.window_marked as f64 / self.window_acked.max(1) as f64).min(1.0);
        self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
        self.window_acked = 0;
        self.window_marked = 0;
        self.window_target = self.cwnd;
    }
}

impl CongestionControl for Dctcp {
    fn algo(&self) -> CongestionAlgo {
        CongestionAlgo::Dctcp
    }

    fn on_ack(&mut self, ev: &AckEvent) -> CcDecision {
        self.window_acked += ev.newly_acked;
        if self.window_acked >= self.window_target {
            self.update_alpha();
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += ev.newly_acked.min(self.mss);
        } else {
            self.avoid_acc += ev.newly_acked;
            if self.avoid_acc >= self.cwnd {
                self.avoid_acc -= self.cwnd;
                self.cwnd += self.mss;
            }
        }
        self.decision()
    }

    fn on_loss(&mut self, _now_ns: u64) -> CcDecision {
        self.window_marked += self.mss;
        // cwnd ← cwnd × (1 − α/2), floored at 2 MSS. With α starting at
        // 1 this is a Reno-style halving that relaxes as the measured
        // congestion fraction drops.
        self.cwnd = ((self.cwnd as f64 * (1.0 - self.alpha / 2.0)) as usize).max(2 * self.mss);
        self.ssthresh = self.cwnd;
        self.avoid_acc = 0;
        self.decision()
    }

    fn on_rto(&mut self, _now_ns: u64) -> CcDecision {
        self.window_marked += self.mss;
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.avoid_acc = 0;
        self.decision()
    }

    fn decision(&self) -> CcDecision {
        CcDecision {
            cwnd: self.cwnd,
            ssthresh: self.ssthresh,
            pacing_gate: false,
        }
    }

    fn set_cwnd(&mut self, bytes: usize) {
        self.cwnd = bytes.max(self.mss);
    }
}

/// No congestion control: the window is effectively unbounded.
#[derive(Debug)]
pub struct NoCc;

impl CongestionControl for NoCc {
    fn algo(&self) -> CongestionAlgo {
        CongestionAlgo::None
    }
    fn on_ack(&mut self, _: &AckEvent) -> CcDecision {
        self.decision()
    }
    fn on_loss(&mut self, _: u64) -> CcDecision {
        self.decision()
    }
    fn on_rto(&mut self, _: u64) -> CcDecision {
        self.decision()
    }
    fn decision(&self) -> CcDecision {
        CcDecision {
            cwnd: usize::MAX / 2,
            ssthresh: usize::MAX / 2,
            pacing_gate: false,
        }
    }
    fn set_cwnd(&mut self, _: usize) {}
}

#[cfg(test)]
#[path = "congestion_control_tests.rs"]
mod tests;
