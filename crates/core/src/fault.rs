//! Fault injection (§6.6, Table 3).
//!
//! The paper "injected faults into various (randomly selected) parts of
//! the code in the network stack", with the probability a component is hit
//! proportional to its code size. We reproduce the same mechanism: the
//! component weights are the *actual line counts of this repository's
//! component sources*, measured at compile time, and an activated fault
//! crashes the owning process — exercising the real recovery path.

use crate::replica::Role;
use neat_util::Rng;

/// Per-component code sizes (lines), measured from the real sources.
#[derive(Debug, Clone, Copy)]
pub struct CodeSizes {
    pub tcp: usize,
    pub ip: usize,
    pub udp: usize,
    pub pf: usize,
    pub driver: usize,
}

/// Count non-empty lines of *deployed* code: everything up to the
/// `#[cfg(test)]` module (tests never run in the replica processes).
fn loc(s: &str) -> usize {
    s.split("#[cfg(test)]")
        .next()
        .unwrap_or("")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

impl CodeSizes {
    /// Count the real sources making up each component of the stack.
    pub fn measured() -> CodeSizes {
        let tcp = loc(include_str!("../../tcp/src/socket.rs"))
            + loc(include_str!("../../tcp/src/stack.rs"))
            + loc(include_str!("../../tcp/src/buffer.rs"))
            + loc(include_str!("../../tcp/src/assembler.rs"))
            + loc(include_str!("../../tcp/src/rto.rs"))
            + loc(include_str!("../../tcp/src/tcb.rs"))
            + loc(include_str!("../../tcp/src/components/mod.rs"))
            + loc(include_str!("../../tcp/src/components/conn_mgmt.rs"))
            + loc(include_str!("../../tcp/src/components/reliability.rs"))
            + loc(include_str!("../../tcp/src/components/flow_control.rs"))
            + loc(include_str!(
                "../../tcp/src/components/congestion_control.rs"
            ))
            + loc(include_str!("../../tcp/src/types.rs"))
            + loc(include_str!("tcp_comp.rs"))
            + loc(include_str!("stack_host.rs"))
            + loc(include_str!("sock_server.rs"));
        let ip = loc(include_str!("ip_comp.rs"))
            + loc(include_str!("netcode.rs"))
            + loc(include_str!("../../net/src/ipv4.rs"))
            + loc(include_str!("../../net/src/arp.rs"))
            + loc(include_str!("../../net/src/icmp.rs"))
            + loc(include_str!("../../net/src/checksum.rs"))
            + loc(include_str!("../../net/src/ethernet.rs"));
        let udp = loc(include_str!("udp_comp.rs")) + loc(include_str!("../../net/src/udp.rs"));
        let pf = loc(include_str!("pf_comp.rs"));
        let driver = loc(include_str!("driver.rs"));
        CodeSizes {
            tcp,
            ip,
            udp,
            pf,
            driver,
        }
    }

    pub fn total(&self) -> usize {
        self.tcp + self.ip + self.udp + self.pf + self.driver
    }

    /// Fraction of stack code that is the (stateful) TCP component —
    /// the probability a uniform code fault loses connection state.
    pub fn tcp_fraction(&self) -> f64 {
        self.tcp as f64 / self.total() as f64
    }

    /// Fraction of code inside a single-component replica (everything
    /// except the shared driver).
    pub fn replica_fraction_single(&self) -> f64 {
        (self.tcp + self.ip + self.udp + self.pf) as f64 / self.total() as f64
    }
}

/// Draw a fault target with probability proportional to code size.
pub fn pick_target(sizes: &CodeSizes, rng: &mut Rng) -> Role {
    let total = sizes.total();
    let x = rng.gen_range(0..total);
    if x < sizes.tcp {
        Role::Tcp
    } else if x < sizes.tcp + sizes.ip {
        Role::Ip
    } else if x < sizes.tcp + sizes.ip + sizes.udp {
        Role::Udp
    } else if x < sizes.tcp + sizes.ip + sizes.udp + sizes.pf {
        Role::Pf
    } else {
        Role::Driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_measured_and_tcp_dominates() {
        let s = CodeSizes::measured();
        assert!(s.tcp > 1000, "tcp sources are substantial: {s:?}");
        assert!(s.ip > 300);
        assert!(s.udp > 50);
        assert!(s.pf > 20);
        assert!(s.driver > 20);
        assert!(
            s.tcp > s.ip && s.tcp > s.udp && s.tcp > s.pf && s.tcp > s.driver,
            "TCP is the largest component, as in the paper: {s:?}"
        );
        let f = s.tcp_fraction();
        assert!((0.30..0.75).contains(&f), "tcp fraction {f}");
    }

    #[test]
    fn pick_target_matches_weights() {
        let s = CodeSizes::measured();
        let mut rng = Rng::seed_from_u64(7);
        let mut tcp_hits = 0;
        let n = 20_000;
        for _ in 0..n {
            if pick_target(&s, &mut rng) == Role::Tcp {
                tcp_hits += 1;
            }
        }
        let emp = tcp_hits as f64 / n as f64;
        let exp = s.tcp_fraction();
        assert!(
            (emp - exp).abs() < 0.02,
            "empirical {emp} vs expected {exp}"
        );
    }

    #[test]
    fn all_targets_reachable() {
        let s = CodeSizes::measured();
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50_000 {
            seen.insert(format!("{:?}", pick_target(&s, &mut rng)));
        }
        assert_eq!(seen.len(), 5, "every component can be hit: {seen:?}");
    }
}
