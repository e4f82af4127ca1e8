//! The Table-1 tuning knobs of the Linux baseline.
//!
//! §6.1: "Table 1 presents a breakdown of options we tuned in order to
//! improve as much as possible the performance of our Linux baseline to
//! ensure a fair comparison": scheduler policy, ethtool settings (TSO,
//! auto-negotiation), IRQ affinities, receive-queue affinities, and server
//! pinning. RFS "did not result in observable benefits", so it is not
//! modelled.

/// One tuning configuration of the monolithic baseline.
#[derive(Debug, Clone)]
pub struct MonoTuning {
    pub name: String,
    /// `sched`: deadline scheduler policy (small wakeup improvement).
    pub sched_deadline: bool,
    /// `eth`: auto-negotiation off + TSO on.
    pub tso: bool,
    /// `irqAff`: NIC queues pinned to distinct cores (vs irqbalance
    /// moving them around and bouncing queue state).
    pub irq_affinity: bool,
    /// `rxAff`: receive-queue → core mapping fixed.
    pub rx_affinity: bool,
    /// `serv`: lighttpd processes pinned to specific cores, aligning the
    /// softirq core with the server core (ATR-style flow steering works).
    pub pin_servers: bool,
}

impl MonoTuning {
    /// Row 1: out-of-the-box defaults.
    pub fn defaults() -> MonoTuning {
        MonoTuning {
            name: "defaults".into(),
            sched_deadline: false,
            tso: false,
            irq_affinity: false,
            rx_affinity: false,
            pin_servers: false,
        }
    }

    /// Row 2: sched + eth + irqAff + rxAff.
    pub fn affinities() -> MonoTuning {
        MonoTuning {
            name: "sched+eth+irqAff+rxAff".into(),
            sched_deadline: true,
            tso: true,
            irq_affinity: true,
            rx_affinity: true,
            pin_servers: false,
        }
    }

    /// Row 3 (best): + serv — the configuration used for all Linux
    /// comparison numbers in §6.
    pub fn best() -> MonoTuning {
        MonoTuning {
            name: "sched+eth+irqAff+rxAff+serv".into(),
            pin_servers: true,
            ..MonoTuning::affinities()
        }
    }

    /// Do packets of a connection reach the core of its application?
    /// Requires both stable queue affinities and pinned servers.
    pub fn flow_aligned(&self) -> bool {
        self.rx_affinity && self.pin_servers
    }

    /// Multiplier on lock/bounce contention costs: unstable IRQ placement
    /// drags shared queue state across cores.
    pub fn contention_factor(&self) -> f64 {
        let mut f = 1.0;
        if !self.irq_affinity {
            f *= 1.15;
        }
        if !self.sched_deadline {
            f *= 1.04;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_progression() {
        let d = MonoTuning::defaults();
        let a = MonoTuning::affinities();
        let b = MonoTuning::best();
        assert!(!d.flow_aligned());
        assert!(!a.flow_aligned(), "rxAff without pinning is not aligned");
        assert!(b.flow_aligned());
        assert!(d.contention_factor() > a.contention_factor());
        assert_eq!(a.contention_factor(), b.contention_factor());
    }
}
