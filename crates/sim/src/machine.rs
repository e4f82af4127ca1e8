//! Simulated machines: cores, SMT hardware threads, and their activity
//! accounting.
//!
//! A [`Machine`] is a set of physical cores, each carrying one or more
//! hardware threads (the Xeon E5520 testbed has 2 per core). Every simulated
//! process is pinned to exactly one hardware thread — the NewtOS model the
//! paper builds on, where "the individual OS processes are assigned dedicated
//! cores, allowing fast communication between OS components without
//! intervention of the microkernel" (§3.1).
//!
//! Each hardware thread is modelled as a FIFO work-conserving server with an
//! MWAIT-style idle model: after draining its queues it spin-polls for a
//! calibrated window, then suspends; the next event pays kernel resume cost
//! and wake latency. Activity is accounted into *processing*, *polling*, and
//! *kernel* time — the three columns of the paper's Table 2.

use crate::calibration;
use crate::time::{Freq, Time};
use neat_util::{Json, ToJson};

/// Identifies a machine within a [`crate::Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineId(pub usize);

/// Identifies a hardware thread globally (across machines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HwThreadId(pub usize);

/// Static description of a machine, mirroring the paper's two testbeds.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    pub name: String,
    pub cores: u32,
    pub threads_per_core: u32,
    pub freq: Freq,
}

impl MachineSpec {
    /// The paper's 12-core AMD Opteron 6168 @ 1.9 GHz (no SMT).
    pub fn amd_opteron_6168() -> MachineSpec {
        MachineSpec {
            name: "amd-opteron-6168".into(),
            cores: 12,
            threads_per_core: 1,
            freq: Freq::ghz(1.9),
        }
    }

    /// The paper's dual-socket quad-core Intel Xeon E5520 @ 2.26 GHz with
    /// hyper-threading: 8 cores / 16 hardware threads.
    pub fn xeon_e5520_dual() -> MachineSpec {
        MachineSpec {
            name: "xeon-e5520x2".into(),
            cores: 8,
            threads_per_core: 2,
            freq: Freq::ghz(2.26),
        }
    }

    /// A generous client machine for driving load (never the bottleneck,
    /// like the paper's alternating load-generator role).
    pub fn load_generator() -> MachineSpec {
        MachineSpec {
            name: "loadgen".into(),
            cores: 16,
            threads_per_core: 1,
            freq: Freq::ghz(3.0),
        }
    }
}

/// What kind of execution timeline a hardware thread models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadKind {
    /// A CPU hardware thread: work charged in cycles, MWAIT idle model,
    /// SMT interaction with its sibling.
    Cpu,
    /// A device engine (e.g. the NIC's DMA/serialization pipeline): work
    /// charged in nanoseconds directly, never sleeps, no SMT.
    Device,
}

/// Cumulative activity of one hardware thread (Table 2's columns).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadStats {
    /// Time spent executing process handlers ("useful processing").
    pub busy_ns: u64,
    /// Time spent spin-polling queues while idle.
    pub poll_ns: u64,
    /// Time spent in the kernel suspending/resuming (privileged MWAIT).
    pub kernel_ns: u64,
    /// Number of suspend transitions (sleeps).
    pub sleeps: u64,
    /// Number of events handled.
    pub events: u64,
    /// Sum of SMT slowdown factors applied (diagnostics: avg = /events).
    pub smt_slow_sum: f64,
    /// High-water mark of the thread's FIFO backlog (queue depth).
    pub max_queue: u64,
}

impl ThreadStats {
    /// Total non-idle time.
    pub fn active_ns(&self) -> u64 {
        self.busy_ns + self.poll_ns + self.kernel_ns
    }

    /// CPU load over an elapsed window: fraction of time not idle.
    pub fn load(&self, elapsed: Time) -> f64 {
        if elapsed.as_nanos() == 0 {
            return 0.0;
        }
        (self.active_ns() as f64 / elapsed.as_nanos() as f64).min(1.0)
    }

    /// Fraction of *active* time spent in the kernel (Table 2 col 2).
    pub fn kernel_share(&self) -> f64 {
        let a = self.active_ns();
        if a == 0 {
            0.0
        } else {
            self.kernel_ns as f64 / a as f64
        }
    }

    /// Fraction of *active* time spent polling (Table 2 col 3).
    pub fn poll_share(&self) -> f64 {
        let a = self.active_ns();
        if a == 0 {
            0.0
        } else {
            self.poll_ns as f64 / a as f64
        }
    }
}

impl ToJson for ThreadStats {
    fn to_json(&self) -> Json {
        Json::object()
            .field("busy_ns", self.busy_ns)
            .field("poll_ns", self.poll_ns)
            .field("kernel_ns", self.kernel_ns)
            .field("sleeps", self.sleeps)
            .field("events", self.events)
            .field("smt_slow_sum", self.smt_slow_sum)
            .field("max_queue", self.max_queue)
    }
}

/// Mutable state of one hardware thread.
#[derive(Debug)]
pub struct HwThread {
    pub machine: MachineId,
    pub core: u32,
    pub thread: u32,
    pub kind: ThreadKind,
    pub freq: Freq,
    /// Index of the sibling hardware thread on the same core, if any.
    pub sibling: Option<HwThreadId>,
    /// The thread is executing work until this instant.
    pub busy_until: Time,
    /// Statistics since the last reset.
    pub stats: ThreadStats,
    /// Instant of the last stats reset (for load computation).
    pub stats_since: Time,
    /// Exponentially-weighted recent utilization (SMT contention input).
    pub util_ewma: f64,
    /// Instant `util_ewma` was last updated (end of last busy period).
    pub util_at: Time,
}

impl HwThread {
    /// Account for the idle gap between the end of the previous work and the
    /// arrival of an event at `arrival`, returning the instant execution can
    /// begin (after any wake-up) — the MWAIT model of §4.
    ///
    /// Devices never sleep: they begin immediately.
    pub fn wake_for(&mut self, arrival: Time) -> Time {
        let idle_from = self.busy_until;
        if arrival <= idle_from {
            // Back-to-back work: the thread is still busy; the caller will
            // start this event at `busy_until`.
            return idle_from;
        }
        if self.kind == ThreadKind::Device {
            return arrival;
        }
        let spin_end = idle_from + calibration::SPIN_POLL_WINDOW;
        if arrival <= spin_end {
            // Caught while spin-polling: the gap was all polling.
            self.stats.poll_ns += arrival.since(idle_from).as_nanos();
            arrival
        } else {
            // Spun for the whole window, then suspended. Waking costs kernel
            // time and latency.
            self.stats.poll_ns += calibration::SPIN_POLL_WINDOW.as_nanos();
            self.stats.sleeps += 1;
            let suspend = self.freq.cycles_to_time(calibration::KERNEL_SUSPEND);
            let resume = self.freq.cycles_to_time(calibration::KERNEL_RESUME);
            self.stats.kernel_ns += suspend.as_nanos() + resume.as_nanos();
            arrival + calibration::WAKE_LATENCY + resume
        }
    }

    /// Record that the thread executed a handler in `[start, end)`,
    /// updating the utilization EWMA (time constant ~100 us): idle gaps
    /// decay it toward 0, busy periods push it toward 1. Only an SMT
    /// sibling reads the EWMA (`recent_util`), so a thread without one
    /// leaves it alone and skips its two `exp()`s.
    pub fn record_busy(&mut self, start: Time, end: Time) {
        self.stats.busy_ns += end.since(start).as_nanos();
        self.stats.events += 1;
        self.busy_until = end;
        if self.sibling.is_none() {
            return;
        }
        const TAU_NS: f64 = 300_000.0;
        let idle = start.since(self.util_at).as_nanos() as f64;
        self.util_ewma *= (-idle / TAU_NS).exp();
        let busy = end.since(start).as_nanos() as f64;
        self.util_ewma = 1.0 - (1.0 - self.util_ewma) * (-busy / TAU_NS).exp();
        self.util_at = end;
    }

    /// Recent utilization as seen at instant `t` (decays over idle time).
    pub fn recent_util(&self, t: Time) -> f64 {
        const TAU_NS: f64 = 300_000.0;
        let idle = t.since(self.util_at).as_nanos() as f64;
        self.util_ewma * (-idle / TAU_NS).exp()
    }

    pub fn reset_stats(&mut self, now: Time) {
        self.stats = ThreadStats::default();
        self.stats_since = now;
    }
}

/// A simulated machine: a bundle of hardware threads plus device engines.
#[derive(Debug)]
pub struct Machine {
    pub id: MachineId,
    pub spec: MachineSpec,
    /// Global hardware-thread ids, indexed `[core * threads_per_core + thread]`.
    pub threads: Vec<HwThreadId>,
}

impl Machine {
    /// Global hardware-thread id for `(core, thread)`.
    pub fn thread(&self, core: u32, thread: u32) -> HwThreadId {
        let idx = (core * self.spec.threads_per_core + thread) as usize;
        self.threads[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_thread() -> HwThread {
        HwThread {
            machine: MachineId(0),
            core: 0,
            thread: 0,
            kind: ThreadKind::Cpu,
            freq: Freq::ghz(2.0),
            sibling: None,
            busy_until: Time::ZERO,
            stats: ThreadStats::default(),
            stats_since: Time::ZERO,
            util_ewma: 0.0,
            util_at: Time::ZERO,
        }
    }

    #[test]
    fn wake_within_spin_window_counts_polling_only() {
        let mut t = cpu_thread();
        t.busy_until = Time::from_nanos(1_000);
        let start = t.wake_for(Time::from_nanos(2_000));
        assert_eq!(start, Time::from_nanos(2_000));
        assert_eq!(t.stats.poll_ns, 1_000);
        assert_eq!(t.stats.kernel_ns, 0);
        assert_eq!(t.stats.sleeps, 0);
    }

    #[test]
    fn wake_after_sleep_pays_kernel_and_latency() {
        let mut t = cpu_thread();
        t.busy_until = Time::from_nanos(1_000);
        let arrival = Time::from_millis(1);
        let start = t.wake_for(arrival);
        assert!(start > arrival, "waking from sleep must add latency");
        assert_eq!(
            t.stats.poll_ns,
            calibration::SPIN_POLL_WINDOW.as_nanos(),
            "only the spin window is polled before sleeping"
        );
        assert!(t.stats.kernel_ns > 0);
        assert_eq!(t.stats.sleeps, 1);
    }

    #[test]
    fn busy_thread_does_not_wake() {
        let mut t = cpu_thread();
        t.busy_until = Time::from_nanos(5_000);
        let start = t.wake_for(Time::from_nanos(3_000));
        assert_eq!(start, Time::from_nanos(5_000));
        assert_eq!(t.stats.poll_ns, 0);
        assert_eq!(t.stats.kernel_ns, 0);
    }

    #[test]
    fn device_threads_never_sleep() {
        let mut t = cpu_thread();
        t.kind = ThreadKind::Device;
        let start = t.wake_for(Time::from_secs(1));
        assert_eq!(start, Time::from_secs(1));
        assert_eq!(t.stats.kernel_ns, 0);
        assert_eq!(t.stats.poll_ns, 0);
    }

    #[test]
    fn stats_shares() {
        let s = ThreadStats {
            busy_ns: 50,
            poll_ns: 30,
            kernel_ns: 20,
            sleeps: 1,
            events: 2,
            smt_slow_sum: 0.0,
            max_queue: 0,
        };
        assert_eq!(s.active_ns(), 100);
        assert!((s.kernel_share() - 0.2).abs() < 1e-9);
        assert!((s.poll_share() - 0.3).abs() < 1e-9);
        assert!((s.load(Time::from_nanos(200)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn machine_spec_presets() {
        let amd = MachineSpec::amd_opteron_6168();
        assert_eq!(amd.cores, 12);
        assert_eq!(amd.threads_per_core, 1);
        let xeon = MachineSpec::xeon_e5520_dual();
        assert_eq!(xeon.cores * xeon.threads_per_core, 16);
    }
}
