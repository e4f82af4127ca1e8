//! The monolith's shared kernel state and its contention model.
//!
//! One [`SockServer`] (socket table + TCP engine) shared by every kernel
//! context. Every operation on it estimates the synchronization tax from
//! the recency of *other* cores' operations: concurrent lock holders queue
//! on ticket spinlocks (cost per waiter) and shared dirty cache lines
//! bounce between cores.

use crate::tuning::MonoTuning;
use neat::sock_server::SockServer;
use neat_sim::calibration;
use neat_sim::ProcId;
use neat_tcp::TcpConfig;
use neat_util::FxHashMap;
use std::net::Ipv4Addr;

/// Baseline per-request kernel bookkeeping outside the stack proper: VFS,
/// epoll, skb management, accounting (§2's "kernel does ~70% of the work"
/// — measured magnitudes from the Linux-scalability literature).
pub const MONO_VFS_PER_OP: u64 = 8_000;

/// Lock acquire/release pairs touched per packet or socket op (socket
/// lock, queue locks, accept/ehash locks).
pub const LOCKS_PER_OP: u64 = 3;

/// Window within which another core's kernel entry counts as contending.
pub const CONTEND_WINDOW_NS: u64 = 2_000;

/// The shared kernel state.
pub struct MonoShared {
    pub sock: SockServer,
    pub tuning: MonoTuning,
    /// Canonical pid used in connection handles (all ctxs present one
    /// logical kernel to the applications).
    pub canonical: ProcId,
    /// Last kernel-entry instant per context (contention estimation).
    last_op: Vec<u64>,
    /// Application process → kernel-context index of its core. Only probed.
    pub app_ctx: FxHashMap<ProcId, usize>,
    /// Machine-dependent cost factor on shared-memory operations: 1.0 for
    /// the two-die Magny-Cours AMD (HT-link hops), ~0.45 for the Nehalem
    /// Xeon with its integrated memory controller and on-die uncore —
    /// this is what lets the paper's Xeon Linux reach 328 krps on fewer
    /// cores than the AMD's 224.
    pub hw_factor: f64,
}

impl MonoShared {
    pub fn new(ip: Ipv4Addr, tcp: TcpConfig, tuning: MonoTuning, ctxs: usize) -> MonoShared {
        MonoShared {
            sock: SockServer::new(ip, tcp),
            tuning,
            canonical: ProcId(0),
            last_op: vec![0; ctxs],
            app_ctx: FxHashMap::default(),
            hw_factor: 1.0,
        }
    }

    /// Scale a shared-memory cost by the machine factor.
    pub fn scaled(&self, cycles: u64) -> u64 {
        (cycles as f64 * self.hw_factor) as u64
    }

    /// Record a kernel entry by context `me` at `now`; returns the
    /// synchronization tax in cycles for one operation touching `pkts`
    /// packets' worth of shared lines.
    pub fn kernel_entry(&mut self, me: usize, now: u64, pkts: u64) -> u64 {
        let waiters = self
            .last_op
            .iter()
            .enumerate()
            .filter(|(i, &t)| *i != me && now.saturating_sub(t) < CONTEND_WINDOW_NS)
            .count() as u64;
        self.last_op[me] = now;
        let locks = LOCKS_PER_OP
            * (calibration::MONO_LOCK_UNCONTENDED + waiters * calibration::MONO_LOCK_PER_WAITER);
        let bounce = if waiters > 0 {
            calibration::MONO_SHARED_LINES_PER_PKT as u64 * calibration::MONO_LINE_BOUNCE * pkts
        } else {
            0
        };
        ((locks + bounce) as f64 * self.tuning.contention_factor() * self.hw_factor) as u64
    }

    /// The wrong-core penalty owed when context `me` hands data to `app`
    /// (the softirq ran on a different core than the server).
    pub fn wrong_core_penalty(&self, me: usize, app: ProcId) -> u64 {
        let raw = match self.app_ctx.get(&app) {
            Some(&c) if c == me => 0,
            Some(_) => calibration::MONO_SCHED_MISS,
            None => calibration::MONO_SCHED_MISS / 2,
        };
        self.scaled(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> MonoShared {
        MonoShared::new(
            Ipv4Addr::new(10, 0, 0, 1),
            TcpConfig::default(),
            MonoTuning::best(),
            4,
        )
    }

    #[test]
    fn no_contention_when_alone() {
        let mut s = shared();
        let t1 = s.kernel_entry(0, 1_000_000, 2);
        // Re-enter long after: still alone.
        let t2 = s.kernel_entry(0, 9_000_000, 2);
        assert_eq!(t1, t2);
        assert_eq!(t1, LOCKS_PER_OP * calibration::MONO_LOCK_UNCONTENDED);
    }

    #[test]
    fn contention_grows_with_concurrent_cores() {
        let mut s = shared();
        let alone = s.kernel_entry(0, 5_000_000, 2);
        // Three other cores enter the kernel within the window.
        s.kernel_entry(1, 5_000_100, 2);
        s.kernel_entry(2, 5_000_200, 2);
        s.kernel_entry(3, 5_000_300, 2);
        let crowded = s.kernel_entry(0, 5_000_400, 2);
        assert!(
            crowded > alone + 2 * calibration::MONO_LOCK_PER_WAITER,
            "alone={alone} crowded={crowded}"
        );
    }

    #[test]
    fn untuned_config_pays_more() {
        let mut best = shared();
        let mut bad = MonoShared::new(
            Ipv4Addr::new(10, 0, 0, 1),
            TcpConfig::default(),
            MonoTuning::defaults(),
            4,
        );
        for s in [&mut best, &mut bad] {
            s.kernel_entry(1, 100, 2);
        }
        assert!(bad.kernel_entry(0, 200, 2) > best.kernel_entry(0, 200, 2));
    }

    #[test]
    fn wrong_core_penalty_depends_on_alignment() {
        let mut s = shared();
        let app = ProcId(42);
        s.app_ctx.insert(app, 2);
        assert_eq!(s.wrong_core_penalty(2, app), 0);
        assert!(s.wrong_core_penalty(0, app) > 0);
    }
}
