//! Core/thread placement: which process runs on which hardware thread.
//!
//! The paper's evaluation is largely a study of placements (Figures 6, 8,
//! and 10): dedicating cores to OS components, colocating relatively idle
//! components on SMT siblings, and leaving the rest to the applications.
//! [`Placement`] is a simple slot allocator over a machine's `(core,
//! thread)` grid that reproduces those layouts.

/// One hardware-thread slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    pub core: u32,
    pub thread: u32,
}

/// An ordered allocator of hardware threads on one machine.
#[derive(Debug, Clone)]
pub struct Placement {
    pub machine_cores: u32,
    pub threads_per_core: u32,
    next_core: u32,
    /// Slots explicitly assigned so far.
    used: Vec<Slot>,
}

impl Placement {
    pub fn new(machine_cores: u32, threads_per_core: u32) -> Placement {
        Placement {
            machine_cores,
            threads_per_core,
            next_core: 0,
            used: Vec::new(),
        }
    }

    /// Claim thread 0 of the next free core (a dedicated core).
    pub fn dedicated_core(&mut self) -> Slot {
        let s = Slot {
            core: self.next_core,
            thread: 0,
        };
        assert!(
            s.core < self.machine_cores,
            "placement exceeds machine cores"
        );
        self.next_core += 1;
        self.used.push(s);
        s
    }

    /// Claim a specific slot (for hand-built layouts like Figure 8/10).
    pub fn at(&mut self, core: u32, thread: u32) -> Slot {
        assert!(core < self.machine_cores && thread < self.threads_per_core);
        let s = Slot { core, thread };
        assert!(!self.used.contains(&s), "slot {s:?} already used");
        self.used.push(s);
        s
    }

    /// All slots not yet claimed, cores-first order (thread 0 of every
    /// remaining core, then thread 1 of every core).
    pub fn remaining(&self) -> Vec<Slot> {
        let mut out = Vec::new();
        for t in 0..self.threads_per_core {
            for c in 0..self.machine_cores {
                let s = Slot { core: c, thread: t };
                if !self.used.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Claim the next remaining slot, cores-first.
    pub fn next_remaining(&mut self) -> Option<Slot> {
        let s = self.remaining().into_iter().next()?;
        self.used.push(s);
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_cores_advance() {
        let mut p = Placement::new(12, 1);
        let a = p.dedicated_core();
        let b = p.dedicated_core();
        assert_eq!(a, Slot { core: 0, thread: 0 });
        assert_eq!(b, Slot { core: 1, thread: 0 });
        assert_eq!(p.remaining().len(), 10);
    }

    #[test]
    #[should_panic(expected = "already used")]
    fn double_claim_panics() {
        let mut p = Placement::new(4, 2);
        p.at(2, 1);
        p.at(2, 1);
    }

    #[test]
    fn remaining_orders_cores_first() {
        let mut p = Placement::new(2, 2);
        p.at(0, 0);
        let r = p.remaining();
        assert_eq!(
            r,
            vec![
                Slot { core: 1, thread: 0 },
                Slot { core: 0, thread: 1 },
                Slot { core: 1, thread: 1 }
            ]
        );
    }

    #[test]
    fn amd_12_core_fig6_layout_fits() {
        // Figure 6(b): OS, SYSCALL, NIC Drv, NEaT 1-3, Web 1-6 = 12 cores.
        let mut p = Placement::new(12, 1);
        let _os = p.dedicated_core();
        let _sys = p.dedicated_core();
        let _drv = p.dedicated_core();
        for _ in 0..3 {
            p.dedicated_core();
        }
        let webs = p.remaining();
        assert_eq!(webs.len(), 6);
    }
}
