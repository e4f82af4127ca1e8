//! What one untraced run yields, and the pieces system and lane runs
//! share: the timed window (host clock, allocator, CPU share, slices,
//! host speed) and the layer metrics read from always-on `neat-obs`
//! counters.

use crate::alloc::{self, AllocStats};
use crate::metrics::{median, percentile, Values};
use std::collections::BinaryHeap;
use std::time::Instant;

/// The timed window is cut into this many equal slices of work.
pub const SLICES: u64 = 200;
/// Below this share of one CPU the run is marked `disturbed`.
pub const DISTURBED_BELOW_PCT: f64 = 90.0;

#[derive(Debug, Clone)]
pub struct Measured {
    /// Requests completed and verified inside one pass's window.
    pub requests: u64,
    /// Requests of one pass that ended in an error, timeout, reset or
    /// wrong reply.
    pub failed: u64,
    /// Passes over the same work merged into this measurement.
    pub passes: u64,
    /// Every output check held (byte counts, bodies, bookkeeping, and
    /// every pass doing the same simulated work).
    pub correct: bool,
    /// Host seconds of all the timed windows together, as they ran.
    pub wall_s: f64,
    /// Host seconds one pass's work takes at reference host speed.
    pub ref_s: f64,
    /// Speed of the host during the windows ([`Probe`]): 1 = as fast as
    /// the reference, 0.8 = the reference kernel took 1.25 times as long.
    pub speed: f64,
    pub alloc: AllocStats,
    /// Host seconds at reference speed from the start of set-up (testbed
    /// or lane build, boot, connection opens, warm-up) to the start of
    /// the window; the median of the passes.
    pub setup_s: f64,
    pub cpu_share_pct: f64,
    /// Host µs at reference speed each slice (an equal share of the
    /// window's work) took, in window order; after [`Measured::merge`]
    /// the median of its repeats.
    pub slice_us: Vec<f64>,
    /// Layer metrics of this run (`sim.*`, `nic.*`, ..., `model.*`).
    pub layer: Values,
}

impl Measured {
    pub fn attempted(&self) -> u64 {
        (self.requests + self.failed) * self.passes
    }

    /// Host time of the window's work at reference host speed ÷ requests
    /// completed in it.
    pub fn host_us_per_req(&self) -> f64 {
        self.ref_s * 1e6 / self.requests.max(1) as f64
    }

    /// Wall time of all the windows as they ran ÷ requests completed in
    /// them: no correction for what other tenants of the host cost.
    pub fn window_us_per_req(&self) -> f64 {
        self.wall_s * 1e6 / (self.requests * self.passes).max(1) as f64
    }

    /// Host µs per request at percentile `p` of the slices: a slice is
    /// 1/n of the work, so it stands for 1/n of the requests.
    pub fn slice_us_per_req(&self, p: f64) -> f64 {
        let mut sorted = self.slice_us.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p) * sorted.len() as f64 / self.requests.max(1) as f64
    }

    pub fn disturbed(&self) -> bool {
        self.cpu_share_pct < DISTURBED_BELOW_PCT
    }

    /// The six end-to-end metrics: host clock and allocator only.
    pub fn end_to_end(&self) -> Values {
        let req = self.requests.max(1) as f64;
        let mut v = Values::default();
        v.set("host_us_per_req", self.host_us_per_req());
        v.set("allocs_per_req", self.alloc.allocs as f64 / req);
        v.set("alloc_kb_per_req", self.alloc.bytes as f64 / 1024.0 / req);
        v.set("peak_live_mb", self.alloc.peak as f64 / 1e6);
        v.set(
            "success_pct",
            100.0 * self.requests as f64 / (self.requests + self.failed).max(1) as f64,
        );
        v.set("setup_s", self.setup_s);
        v
    }

    /// Put a closed window and its counts together; `layer` starts as
    /// the counter-derived metrics. `setup_wall_s` is what set-up took on
    /// the wall clock; the window that follows it gives the host speed
    /// it is corrected with.
    pub fn new(c: Closed, requests: u64, failed: u64, served: u64, setup_wall_s: f64) -> Measured {
        let layer = counter_layers(&c, requests, served);
        let slice_us: Vec<f64> = c.slice_us.iter().map(|us| us * c.speed).collect();
        let mut m = Measured {
            requests,
            failed,
            passes: 1,
            correct: false,
            wall_s: c.wall_s,
            ref_s: slice_us.iter().sum::<f64>() / 1e6,
            speed: c.speed,
            alloc: c.alloc,
            setup_s: setup_wall_s * c.speed,
            cpu_share_pct: c.cpu_share_pct,
            slice_us,
            layer,
        };
        m.set_time_layers();
        m
    }

    /// The layer metrics that follow from the slice times.
    fn set_time_layers(&mut self) {
        let (p50, p95) = (self.slice_us_per_req(0.50), self.slice_us_per_req(0.95));
        self.layer.set("sim.slice_us_per_req_p50", p50);
        self.layer.set("sim.slice_us_per_req_p95", p95);
        if let Some(events) = self.layer.get("sim.events_per_req") {
            let ns = self.host_us_per_req() * 1e3 / events.max(f64::MIN_POSITIVE);
            self.layer.set("sim.host_ns_per_event", ns);
        }
        self.layer
            .set("bench.window_us_per_req", self.window_us_per_req());
        self.layer.set("bench.host_speed_pct", 100.0 * self.speed);
    }

    /// Several passes over the same work — same seed, so slice `j` is the
    /// same simulated work in every pass — as one measurement. Each pass
    /// is already at reference host speed; each slice then counts at the
    /// median of its repeats, which drops what a burst on the host (a
    /// descheduling, an interrupt) added to single repeats, and
    /// summing the medians keeps every piece of the window's work in the
    /// result. Counts come from the last pass, set-up time is the median
    /// of the passes, the heap peak their maximum.
    pub fn merge(passes: Vec<Measured>) -> Measured {
        let mut m = passes.last().expect("at least one pass").clone();
        let model = |p: &Measured| -> Vec<(String, f64)> {
            let mut v = p.layer.0.clone();
            v.retain(|(n, _)| n.starts_with("model."));
            v
        };
        // Deterministic simulation: every pass must have done the same.
        m.correct = passes.iter().all(|p| {
            p.correct
                && p.requests == m.requests
                && p.failed == m.failed
                && p.slice_us.len() == m.slice_us.len()
                && model(p) == model(&m)
        });
        let of = |f: fn(&Measured) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
        m.passes = passes.len() as u64;
        m.wall_s = of(|p| p.wall_s).iter().sum();
        for (j, us) in m.slice_us.iter_mut().enumerate() {
            let repeats: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.slice_us.get(j).copied())
                .collect();
            *us = median(&repeats);
        }
        m.ref_s = m.slice_us.iter().sum::<f64>() / 1e6;
        m.speed = median(&of(|p| p.speed));
        m.alloc.peak = passes.iter().map(|p| p.alloc.peak).max().unwrap_or(0);
        m.setup_s = median(&of(|p| p.setup_s));
        m.cpu_share_pct = of(|p| p.cpu_share_pct)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        m.layer.set("bench.cpu_share_pct", m.cpu_share_pct);
        m.set_time_layers();
        m
    }
}

/// What the reference kernel takes per call on the 2-core host the
/// benchmark was sized on when no other tenant disturbs it.
pub const PROBE_REFERENCE_US: f64 = 160.0;

/// The reference kernel: a fixed piece of the benchmark's own work with
/// the habits of the product's code — scattered reads and writes in a
/// table of a few MB, a binary heap — run after every slice of a window.
///
/// The host is shared. Another tenant on the same core or cache costs
/// this process no CPU time, it makes every instruction slower, for
/// seconds or minutes at a stretch, so that no statistic inside a run
/// removes it. The kernel runs through the same minutes as the window,
/// and its time against [`PROBE_REFERENCE_US`] is how fast the host was;
/// window times are multiplied by that speed, which makes them host time
/// on a host as fast as the reference. Parent and change are scaled by
/// the same kernel, so the comparison between them is not touched.
///
/// It allocates nothing, so the allocation metrics do not see it.
pub struct Probe {
    table: Vec<u64>,
    heap: BinaryHeap<u64>,
    x: u64,
}

const PROBE_TABLE: usize = 1 << 19;
const PROBE_STEPS: u32 = 2_000;
const PROBE_HEAP: usize = 256;

impl Probe {
    fn new() -> Probe {
        Probe {
            table: (0..PROBE_TABLE as u64).collect(),
            heap: BinaryHeap::with_capacity(PROBE_HEAP + 1),
            x: 88172645463325252,
        }
    }

    /// One call of the kernel; host µs it took.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = self.x;
        for _ in 0..PROBE_STEPS {
            // xorshift64: the next table slot and heap key.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize % PROBE_TABLE];
            *slot = slot.wrapping_add(x);
            self.heap.push(x ^ *slot);
            if self.heap.len() > PROBE_HEAP {
                self.heap.pop();
            }
        }
        self.x = x;
        t.elapsed().as_secs_f64() * 1e6
    }
}

/// Nanoseconds this process has spent on a CPU (first field of
/// `/proc/self/schedstat`); 0 where the file does not exist.
fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The timed window. Created when set-up is over: resets the allocator
/// window, the `neat-obs` values and the packet-pool counters, then
/// starts the clocks.
pub struct Window {
    start: Instant,
    cpu0: u64,
    pool0: neat_net::pktbuf::PoolStats,
    last_mark: Instant,
    slice_us: Vec<f64>,
    probe: Probe,
    /// Heap bytes the reference kernel holds: not the product's.
    probe_bytes: u64,
    probe_us: f64,
}

/// What [`Window::finish`] hands back.
pub struct Closed {
    /// The slices together; the reference kernel's calls between them
    /// are not in it.
    pub wall_s: f64,
    pub alloc: AllocStats,
    pub cpu_share_pct: f64,
    /// As they ran, in window order.
    pub slice_us: Vec<f64>,
    /// [`PROBE_REFERENCE_US`] ÷ the mean time of the reference kernel's
    /// calls during the window.
    pub speed: f64,
    pub pool_delta: neat_net::pktbuf::PoolStats,
}

impl Window {
    pub fn open() -> Window {
        neat_obs::reset();
        let pool0 = neat_net::pktbuf::stats();
        let slices = Vec::with_capacity(SLICES as usize);
        let live0 = alloc::stats().live;
        let mut probe = Probe::new();
        let probe_bytes = alloc::stats().live - live0;
        probe.run(); // page its table in
        alloc::reset_window();
        let cpu0 = cpu_ns();
        let now = Instant::now();
        Window {
            start: now,
            cpu0,
            pool0,
            last_mark: now,
            slice_us: slices,
            probe,
            probe_bytes,
            probe_us: 0.0,
        }
    }

    /// End of a slice of work: note its time, then let the reference
    /// kernel see the host as the slice saw it.
    pub fn mark(&mut self) {
        if self.slice_us.len() == SLICES as usize {
            return;
        }
        let us = self.last_mark.elapsed().as_secs_f64() * 1e6;
        self.slice_us.push(us);
        self.probe_us += self.probe.run();
        self.last_mark = Instant::now();
    }

    pub fn finish(self) -> Closed {
        let elapsed = self.start.elapsed();
        let mut alloc = alloc::stats();
        alloc.peak = alloc.peak.saturating_sub(self.probe_bytes);
        let cpu = cpu_ns().saturating_sub(self.cpu0);
        let pool = neat_net::pktbuf::stats();
        let calls = self.slice_us.len().max(1) as f64;
        Closed {
            wall_s: self.slice_us.iter().sum::<f64>() / 1e6,
            alloc,
            cpu_share_pct: if self.cpu0 == 0 {
                100.0
            } else {
                100.0 * cpu as f64 / elapsed.as_nanos().max(1) as f64
            },
            slice_us: self.slice_us,
            speed: if self.probe_us > 0.0 {
                PROBE_REFERENCE_US * calls / self.probe_us
            } else {
                1.0
            },
            pool_delta: neat_net::pktbuf::PoolStats {
                grants: pool.grants - self.pool0.grants,
                reused: pool.reused - self.pool0.reused,
                outstanding: pool.outstanding,
                copies_avoided: pool.copies_avoided - self.pool0.copies_avoided,
            },
        }
    }
}

fn counter(name: &str) -> f64 {
    neat_obs::counter(name).get() as f64
}

/// Layer metrics every run can report: counts taken where the work
/// happens (the product's own counters, zeroed by [`Window::open`]),
/// divided by the requests of the window.
fn counter_layers(c: &Closed, requests: u64, served: u64) -> Values {
    let req = requests.max(1) as f64;
    let mut v = Values::default();
    v.set("nic.rx_frames_per_req", counter("nic.rx_frames") / req);
    v.set("nic.tx_frames_per_req", counter("nic.tx_frames") / req);
    v.set("nic.rx_dropped_ring", counter("nic.rx_dropped_ring"));
    v.set(
        "core.driver_fwd_per_req",
        (counter("driver.rx_forwarded") + counter("driver.tx_forwarded")) / req,
    );
    v.set("core.sys_calls_per_req", counter("sys.calls_served") / req);
    v.set("tcp.rx_segs_per_req", counter("tcp.rx_segments") / req);
    v.set("tcp.tx_segs_per_req", counter("tcp.tx_segments") / req);
    v.set(
        "tcp.retx_per_kreq",
        (counter("tcp.fast_retransmits") + counter("tcp.rto_retransmits")) * 1e3 / req,
    );
    v.set("tcp.accepts_per_req", counter("tcp.conns_accepted") / req);
    v.set("tcp.syn_dropped", counter("tcp.syn_dropped"));
    v.set(
        "net.pktbuf_reuse_pct",
        100.0 * c.pool_delta.reused as f64 / c.pool_delta.grants.max(1) as f64,
    );
    v.set(
        "net.copies_avoided_per_req",
        c.pool_delta.copies_avoided as f64 / req,
    );
    v.set(
        "core.repl_deltas_per_req",
        counter("repl.deltas_sent") / req,
    );
    v.set("core.handoffs", counter("sup.handoffs_completed"));
    v.set("core.stateful_losses", counter("sup.stateful_losses"));
    v.set("apps.served_vs_completed", served as f64 / req);
    v.set("bench.cpu_share_pct", c.cpu_share_pct);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass whose slices took `slice_us` at reference speed.
    fn pass(slice_us: &[f64], requests: u64, setup_s: f64, peak: u64, krps: f64) -> Measured {
        let mut layer = Values::default();
        layer.set("model.virt_krps", krps);
        layer.set("sim.events_per_req", 10.0);
        Measured {
            requests,
            failed: 0,
            passes: 1,
            correct: true,
            wall_s: slice_us.iter().sum::<f64>() / 1e6,
            ref_s: slice_us.iter().sum::<f64>() / 1e6,
            speed: 1.0,
            alloc: AllocStats {
                peak,
                ..AllocStats::default()
            },
            setup_s,
            cpu_share_pct: 99.0,
            slice_us: slice_us.to_vec(),
            layer,
        }
    }

    #[test]
    fn merge_takes_each_slice_at_the_median_of_its_repeats() {
        // A burst hit the first slice of pass 1 and the second of pass 2.
        let m = Measured::merge(vec![
            pass(&[90.0, 20.0, 30.0], 10, 0.5, 7, 300.0),
            pass(&[10.0, 80.0, 32.0], 10, 0.3, 9, 300.0),
            pass(&[12.0, 22.0, 31.0], 10, 0.4, 8, 300.0),
        ]);
        assert!(m.correct);
        assert_eq!(m.slice_us, [12.0, 22.0, 31.0]);
        assert_eq!(m.passes, 3);
        assert_eq!(m.attempted(), 30);
        // All three slices count, each once: 65 us of work for 10 requests.
        assert!((m.host_us_per_req() - 6.5).abs() < 1e-9);
        // The windows as they ran: 327 us for 30 requests.
        assert!((m.window_us_per_req() - 327.0 / 30.0).abs() < 1e-9);
        assert_eq!(m.setup_s, 0.4);
        assert_eq!(m.alloc.peak, 9);
        let per_event = m.layer.get("sim.host_ns_per_event").unwrap();
        assert!((per_event - 650.0).abs() < 1e-9);
    }

    #[test]
    fn merge_refuses_passes_that_did_different_work() {
        let a = pass(&[10.0, 10.0], 10, 0.1, 1, 300.0);
        let fewer = pass(&[10.0, 10.0], 9, 0.1, 1, 300.0);
        let other_model = pass(&[10.0, 10.0], 10, 0.1, 1, 301.0);
        assert!(Measured::merge(vec![a.clone(), a.clone()]).correct);
        assert!(!Measured::merge(vec![a.clone(), fewer]).correct);
        assert!(!Measured::merge(vec![a, other_model]).correct);
    }

    // No `Window` here: opening one resets the process-wide allocation
    // counts under the allocator's own test.
    #[test]
    fn times_are_scaled_to_reference_host_speed() {
        // The reference kernel took 1.25 times its reference time.
        let c = Closed {
            wall_s: 100e-6,
            alloc: AllocStats::default(),
            cpu_share_pct: 99.0,
            slice_us: vec![40.0, 60.0],
            speed: 0.8,
            pool_delta: neat_net::pktbuf::stats(),
        };
        let m = Measured::new(c, 8, 0, 8, 2.0);
        assert_eq!(m.slice_us, [32.0, 48.0]);
        assert!((m.host_us_per_req() - 10.0).abs() < 1e-9);
        assert!((m.window_us_per_req() - 12.5).abs() < 1e-9);
        assert!((m.setup_s - 1.6).abs() < 1e-12);
        assert_eq!(m.layer.get("bench.host_speed_pct"), Some(80.0));
    }

    #[test]
    fn reference_kernel_does_the_same_work_every_call() {
        let mut p = Probe::new();
        assert!(p.run() > 0.0);
        let (filled, room) = (p.heap.len(), p.heap.capacity());
        p.run();
        assert_eq!((filled, p.heap.len()), (PROBE_HEAP, PROBE_HEAP));
        assert_eq!(p.heap.capacity(), room, "no growth, no allocation");
    }
}
