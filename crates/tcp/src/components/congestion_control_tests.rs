//! Tests for the congestion controllers (kept out-of-line, as `stack.rs`
//! keeps its own; `#[path]` inclusion keeps private-field access via
//! `use super::*`).

use super::*;

const MSS: u16 = 1460;

/// Plain data ACK with no RTT sample.
fn ack(bytes: usize, now_ns: u64) -> AckEvent {
    AckEvent {
        newly_acked: bytes,
        rtt_sample: None,
        now_ns,
    }
}

fn ack_rtt(bytes: usize, now_ns: u64, rtt: u64) -> AckEvent {
    AckEvent {
        newly_acked: bytes,
        rtt_sample: Some(rtt),
        now_ns,
    }
}

#[test]
fn reno_slow_start_doubles_per_rtt() {
    let mut r = Reno::new(MSS);
    let start = r.cwnd();
    // One RTT's worth of ACKs: every cwnd byte acked in MSS chunks.
    let acks = start / MSS as usize;
    for _ in 0..acks {
        r.on_ack(&ack(MSS as usize, 0));
    }
    assert!(
        r.cwnd() >= 2 * start - MSS as usize,
        "slow start should ~double: {} -> {}",
        start,
        r.cwnd()
    );
}

#[test]
fn reno_congestion_avoidance_linear() {
    let mut r = Reno::new(MSS);
    r.on_rto(0); // cwnd = 1 MSS, ssthresh small
    let ssthresh = r.ssthresh();
    // Grow past ssthresh.
    while r.cwnd() < ssthresh {
        r.on_ack(&ack(MSS as usize, 0));
    }
    let w = r.cwnd();
    // One full window of ACKs in avoidance adds ~1 MSS.
    let mut acked = 0;
    while acked < w {
        r.on_ack(&ack(MSS as usize, 0));
        acked += MSS as usize;
    }
    assert!(
        r.cwnd() - w <= 2 * MSS as usize,
        "avoidance is linear: {} -> {}",
        w,
        r.cwnd()
    );
    assert!(r.cwnd() > w);
}

#[test]
fn reno_loss_halves() {
    let mut r = Reno::new(MSS);
    for _ in 0..100 {
        r.on_ack(&ack(MSS as usize, 0));
    }
    let before = r.cwnd();
    r.on_loss(0);
    assert!(r.cwnd() <= before / 2 + MSS as usize);
    assert!(r.cwnd() >= 2 * MSS as usize);
}

#[test]
fn reno_timeout_collapses_to_one_mss() {
    let mut r = Reno::new(MSS);
    for _ in 0..100 {
        r.on_ack(&ack(MSS as usize, 0));
    }
    r.on_rto(0);
    assert_eq!(r.cwnd(), MSS as usize);
}

#[test]
fn cubic_recovers_toward_wmax() {
    let mut c = Cubic::new(MSS);
    // Grow, then suffer a loss.
    for _ in 0..200 {
        c.on_ack(&ack(MSS as usize, 0));
    }
    let before_loss = c.cwnd();
    c.on_loss(1_000_000_000);
    let floor = c.cwnd();
    assert!(floor < before_loss);
    // ACK clocks over the next simulated seconds: window climbs again.
    let mut now = 1_000_000_000u64;
    for _ in 0..2000 {
        now += 2_000_000;
        c.on_ack(&ack(MSS as usize, now));
    }
    assert!(
        c.cwnd() > floor,
        "cubic should grow after loss: {} -> {}",
        floor,
        c.cwnd()
    );
}

#[test]
fn cubic_beta_reduction() {
    let mut c = Cubic::new(MSS);
    for _ in 0..500 {
        c.on_ack(&ack(MSS as usize, 0));
    }
    let before = c.cwnd();
    c.on_loss(0);
    let after = c.cwnd();
    let ratio = after as f64 / before as f64;
    assert!(
        (0.6..=0.8).contains(&ratio),
        "beta=0.7 reduction, got {ratio}"
    );
}

/// Pin the RFC 8312 §4.6 fast-convergence fix: a loss below the
/// previous peak must record `w_max = cwnd * (2-β)/2`, not `cwnd`.
#[test]
fn cubic_fast_convergence_scales_wmax_below_peak() {
    let mut c = Cubic::new(MSS);
    for _ in 0..500 {
        c.on_ack(&ack(MSS as usize, 0));
    }
    // First loss at the peak: cwnd >= w_max, so w_max = cwnd.
    let peak = c.cwnd() as f64;
    c.on_loss(1_000_000_000);
    assert!((c.w_max - peak).abs() < 1.0, "first loss records the peak");

    // Second loss before regaining the peak: fast convergence kicks
    // in and the remembered peak shrinks by (2-β)/2 = 0.65.
    let cwnd_at_loss = c.cwnd() as f64;
    assert!(cwnd_at_loss < c.w_max);
    c.on_loss(2_000_000_000);
    let expected = cwnd_at_loss * (2.0 - 0.7) / 2.0;
    assert!(
        (c.w_max - expected).abs() < 1.0,
        "w_max {} != scaled {}",
        c.w_max,
        expected
    );
    assert!(c.w_max < cwnd_at_loss, "remembered peak released room");
}

#[test]
fn bbr_startup_grows_exponentially_then_exits() {
    let mut b = Bbr::new(MSS);
    let start = b.cwnd();
    // Steady 100 µs RTT, one window per round.
    let mut now = 0u64;
    for _ in 0..40 {
        now += 100_000;
        b.on_ack(&ack_rtt(MSS as usize, now, 100_000));
    }
    assert!(b.cwnd() > start, "startup grows the window");
    // Keep the delivery rate flat for many rounds: the plateau
    // detector must eventually leave startup.
    for _ in 0..400 {
        now += 100_000;
        b.on_ack(&ack_rtt(MSS as usize, now, 100_000));
    }
    assert!(!b.startup, "flat bandwidth ends startup");
    assert!(b.decision().pacing_gate, "probe-bw paces");
    // cwnd is now model-driven: 2 × BDP, floored at 4 MSS.
    let bdp = b.bdp().expect("filters are primed");
    assert_eq!(b.cwnd(), ((2.0 * bdp) as usize).max(4 * MSS as usize));
}

#[test]
fn bbr_rto_collapses_and_recovers() {
    let mut b = Bbr::new(MSS);
    let mut now = 0u64;
    for _ in 0..50 {
        now += 100_000;
        b.on_ack(&ack_rtt(MSS as usize, now, 100_000));
    }
    b.on_rto(now);
    assert_eq!(b.cwnd(), MSS as usize);
    for _ in 0..50 {
        now += 100_000;
        b.on_ack(&ack_rtt(MSS as usize, now, 100_000));
    }
    assert!(b.cwnd() > MSS as usize, "model re-inflates after RTO");
}

#[test]
fn bbr_app_limited_round_takes_no_rate_sample() {
    let mut b = Bbr::new(MSS);
    let mut now = 0u64;
    // Prime the filters with honest rounds.
    for _ in 0..20 {
        now += 100_000;
        b.on_ack(&ack_rtt(MSS as usize, now, 100_000));
    }
    let bw_before = b.btl_bw();
    // A starved round must not drag the max filter down — and more
    // importantly must not *overwrite* a slot with a tiny sample.
    b.on_app_limited(now);
    now += 100_000;
    b.on_ack(&ack_rtt(1, now, 100_000));
    assert!(b.btl_bw() >= bw_before * 0.999);
}

#[test]
fn dctcp_alpha_tracks_mark_fraction() {
    let mut d = Dctcp::new(MSS);
    assert!((d.alpha() - 1.0).abs() < f64::EPSILON, "conservative init");
    // Mark-free windows decay α by (1-g) each (windows lengthen as
    // the slow-start cwnd doubles, so decay is per-window, not
    // per-ack).
    for _ in 0..400 {
        d.on_ack(&ack(MSS as usize, 0));
    }
    assert!(d.alpha() < 0.7, "α decays without marks: {}", d.alpha());
}

#[test]
fn dctcp_cut_scales_with_alpha() {
    let mut d = Dctcp::new(MSS);
    // Decay α well below 1, then grow a big window.
    for _ in 0..400 {
        d.on_ack(&ack(MSS as usize, 0));
    }
    let alpha = d.alpha();
    let before = d.cwnd();
    d.on_loss(0);
    let expected = ((before as f64 * (1.0 - alpha / 2.0)) as usize).max(2 * MSS as usize);
    assert_eq!(d.cwnd(), expected, "cut is α-scaled, not a blind halving");
    assert!(d.cwnd() > before / 2, "low α cuts less than Reno would");
}

#[test]
fn every_cc_respects_loss_floor_and_ssthresh_monotonicity() {
    for algo in [
        CongestionAlgo::Reno,
        CongestionAlgo::Cubic,
        CongestionAlgo::Bbr,
        CongestionAlgo::Dctcp,
    ] {
        let mut cc = make(algo, MSS);
        for i in 0..50 {
            cc.on_ack(&ack(MSS as usize, i * 1_000_000));
        }
        let mut last_ssthresh = usize::MAX;
        for i in 0..8 {
            let d = cc.on_loss(i * 10_000_000);
            assert!(
                d.cwnd >= 2 * MSS as usize,
                "{algo:?}: post-loss cwnd {} < 2*MSS",
                d.cwnd
            );
            assert!(
                d.ssthresh <= last_ssthresh,
                "{algo:?}: ssthresh rose during loss burst"
            );
            last_ssthresh = d.ssthresh;
        }
    }
}

#[test]
fn factory_dispatches() {
    for algo in [
        CongestionAlgo::Reno,
        CongestionAlgo::Cubic,
        CongestionAlgo::Bbr,
        CongestionAlgo::Dctcp,
    ] {
        let cc = make(algo, MSS);
        assert_eq!(cc.algo(), algo);
        assert_eq!(cc.cwnd(), initial_window(MSS as usize), "{algo:?}");
    }
}

/// A socket holds its controller in the 16 B a trait object took: Reno
/// in place, the other three behind one box.
#[test]
fn controller_size_is_pinned() {
    assert!(std::mem::size_of::<Controller>() <= 16);
    assert_eq!(make(CongestionAlgo::Reno, MSS).heap_bytes(), 0);
    for algo in [
        CongestionAlgo::Cubic,
        CongestionAlgo::Bbr,
        CongestionAlgo::Dctcp,
    ] {
        let held = make(algo, MSS).heap_bytes();
        assert_eq!(held, std::mem::size_of::<Model>(), "{algo:?}");
        assert_eq!(held, Controller::heap_bytes_of(algo), "{algo:?}");
    }
}

/// Reno as it was before its state became 32-bit words: the oracle the
/// held controller is compared with.
#[derive(Debug)]
struct WideReno {
    mss: usize,
    cwnd: usize,
    ssthresh: usize,
    avoid_acc: usize,
}

impl CongestionControl for WideReno {
    fn algo(&self) -> CongestionAlgo {
        CongestionAlgo::Reno
    }

    fn on_ack(&mut self, ev: &AckEvent) -> CcDecision {
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
}

const ALGOS: [CongestionAlgo; 4] = [
    CongestionAlgo::Reno,
    CongestionAlgo::Cubic,
    CongestionAlgo::Bbr,
    CongestionAlgo::Dctcp,
];

/// The bare controller for `algo`, boxed as every socket's once was.
fn bare(algo: CongestionAlgo, mss: u16) -> Box<dyn CongestionControl> {
    match algo {
        CongestionAlgo::Reno => {
            let mss = mss as usize;
            Box::new(WideReno {
                mss,
                cwnd: initial_window(mss),
                ssthresh: usize::MAX / 2,
                avoid_acc: 0,
            })
        }
        CongestionAlgo::Cubic => Box::new(Cubic::new(mss)),
        CongestionAlgo::Bbr => Box::new(Bbr::new(mss)),
        CongestionAlgo::Dctcp => Box::new(Dctcp::new(mss)),
    }
}

/// The held controller decides as the bare one does: over generated
/// streams of ACKs (with and without RTT samples), losses, RTOs,
/// app-limited marks and switches of algorithm (a switch to another
/// algorithm restarts it, as `TcpSocket::set_congestion` does), every
/// verdict, the standing decision and the algorithm agree, for MSS
/// values from 0 (a peer may announce it) to 65 535.
#[test]
fn held_controller_decides_as_the_bare_one() {
    use neat_util::check::{check, vec_of, Config};
    use neat_util::prop_assert_eq;
    const MSSES: [u16; 6] = [0, 1, 536, 1460, 9000, u16::MAX];
    check(
        "held_controller_decides_as_the_bare_one",
        Config::default().cases(256),
        |rng| {
            (
                rng.gen_range(0usize..MSSES.len()),
                rng.gen_range(0usize..ALGOS.len()),
                vec_of(rng, 1..300, |r| {
                    (r.gen::<u8>(), r.gen_range(0u32..70_000), r.gen::<u32>())
                }),
            )
        },
        |(mss, algo, events)| {
            let (mss, algo) = (MSSES[mss], ALGOS[algo]);
            let mut held = make(algo, mss);
            let mut oracle = bare(algo, mss);
            let mut now = 0u64;
            for (kind, bytes, gap) in events {
                now += u64::from(gap % 4_000_000);
                let ev = AckEvent {
                    newly_acked: bytes as usize,
                    rtt_sample: (kind & 8 != 0).then_some(u64::from(gap % 50_000_000)),
                    now_ns: now,
                };
                let verdicts = match kind % 8 {
                    0 => Some((held.on_loss(now), oracle.on_loss(now))),
                    1 => Some((held.on_rto(now), oracle.on_rto(now))),
                    2 => {
                        held.on_app_limited(now);
                        oracle.on_app_limited(now);
                        None
                    }
                    3 => {
                        let to = ALGOS[(kind >> 4) as usize % ALGOS.len()];
                        if held.algo() != to {
                            held = make(to, mss);
                        }
                        if oracle.algo() != to {
                            oracle = bare(to, mss);
                        }
                        None
                    }
                    _ => Some((held.on_ack(&ev), oracle.on_ack(&ev))),
                };
                if let Some((h, o)) = verdicts {
                    prop_assert_eq!(h, o);
                }
                prop_assert_eq!(held.decision(), oracle.decision());
                prop_assert_eq!(held.algo(), oracle.algo());
            }
            Ok(())
        },
    );
}
