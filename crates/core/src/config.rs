//! NEaT deployment configuration.

use neat_tcp::TcpConfig;
use std::net::Ipv4Addr;

/// Single- vs multi-component replicas (§3.7, compile-time in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackMode {
    /// Whole stack (PF+IP+TCP+UDP logic) in one process per replica —
    /// `NEaT Nx` in the figures.
    Single,
    /// Each replica vertically split into isolated PF, IP, TCP, and UDP
    /// processes — `Multi Nx` in the figures. More cores, more isolation.
    Multi,
}

/// Configuration of one NEaT deployment on a server machine.
#[derive(Debug, Clone)]
pub struct NeatConfig {
    pub mode: StackMode,
    /// Initial number of stack replicas.
    pub replicas: usize,
    /// The server's IP address (all replicas share it; the NIC partitions
    /// flows between them).
    pub ip: Ipv4Addr,
    /// The server NIC's MAC address.
    pub mac: neat_net::MacAddr,
    /// TCP engine tunables (control-plane settings, §4).
    pub tcp: TcpConfig,
    /// Buddy-replica flow replication (the transparent-recovery extension
    /// to §3.6, plus live flow migration for `scale_down`). Off by default:
    /// replication costs one checkpoint message per flush per replica, and
    /// the reliability benches measure both modes.
    pub replication: bool,
}

impl Default for NeatConfig {
    fn default() -> Self {
        NeatConfig {
            mode: StackMode::Single,
            replicas: 2,
            ip: Ipv4Addr::new(192, 168, 69, 1),
            mac: neat_net::MacAddr::local(1),
            tcp: TcpConfig {
                // LAN-scale RTO floor for the simulated testbed.
                initial_rto_ns: 20_000_000,
                // The i82599 offers TSO; hand it 61 KB super-segments.
                gso_burst: 61_440,
                ..TcpConfig::default()
            },
            replication: false,
        }
    }
}

impl NeatConfig {
    pub fn single(replicas: usize) -> NeatConfig {
        NeatConfig {
            mode: StackMode::Single,
            replicas,
            ..Default::default()
        }
    }

    pub fn multi(replicas: usize) -> NeatConfig {
        NeatConfig {
            mode: StackMode::Multi,
            replicas,
            ..Default::default()
        }
    }

    /// Builder-style switch: same deployment, buddy replication on.
    pub fn replicated(mut self) -> NeatConfig {
        self.replication = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(NeatConfig::single(3).mode, StackMode::Single);
        assert_eq!(NeatConfig::single(3).replicas, 3);
        assert_eq!(NeatConfig::multi(2).mode, StackMode::Multi);
    }
}
