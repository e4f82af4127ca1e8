//! Bounded, accounted per-connection memory.
//!
//! A million-connection stack lives or dies on bytes-per-connection: if
//! each idle socket eagerly owns its configured send/recv buffers, 10⁶
//! connections at the 64 KiB defaults is 128 GiB before a byte flows.
//! This module makes per-connection memory *visible* (so the
//! `conn_scale` bench can gate it in CI) and *boundable* (so an
//! overloaded replica sheds new connections instead of dying):
//!
//! * every socket reports its true footprint — struct size plus the
//!   *allocated capacity* (not configured limit) of its stream buffers,
//!   reassembly runs and event queue — and the stack keeps the running
//!   total in sync with delta accounting at each touch point;
//! * [`ConnBudget::admit`] rejects new connections once an optional
//!   stack-wide limit (`TcpConfig::conn_memory_limit`) would be
//!   exceeded: SYNs are dropped exactly like a backlog overflow (the
//!   peer retries; heap exhaustion becomes load shedding);
//! * [`ConnBudget::publish`] exports the numbers through `neat-obs` as
//!   `tcp.conn.count`, `tcp.conn.bytes_total` and
//!   `tcp.conn.bytes_per_conn` — publication is explicit (not
//!   per-segment) because gauges are process-global and several stack
//!   instances coexist in one simulation.

/// Running memory account for one stack's connections.
#[derive(Debug)]
pub struct ConnBudget {
    conns: usize,
    bytes: u64,
    /// 0 = unlimited.
    limit: u64,
    refused: u64,
    /// The `tcp.conn.*` gauges, registered by the first `publish` and
    /// cached: the socket server publishes on every timer tick.
    gauges: Option<[neat_obs::Gauge; 3]>,
}

impl ConnBudget {
    pub fn new(limit: u64) -> ConnBudget {
        ConnBudget {
            conns: 0,
            bytes: 0,
            limit,
            refused: 0,
            gauges: None,
        }
    }

    /// Live accounted connections.
    pub fn conns(&self) -> usize {
        self.conns
    }

    /// Total accounted bytes across all live connections.
    pub fn bytes_total(&self) -> u64 {
        self.bytes
    }

    /// Average bytes per live connection (0 when none).
    pub fn bytes_per_conn(&self) -> f64 {
        if self.conns == 0 {
            0.0
        } else {
            self.bytes as f64 / self.conns as f64
        }
    }

    /// Connections refused because the budget was exhausted.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Would admitting a connection of `estimate` more bytes stay within
    /// the limit? Records a refusal when not.
    pub fn admit(&mut self, estimate: u64) -> bool {
        if self.limit != 0 && self.bytes + estimate > self.limit {
            self.refused += 1;
            neat_obs::counter_add("tcp.conn.budget_refused", 1);
            false
        } else {
            true
        }
    }

    /// A connection opened with an initial footprint of `bytes`.
    pub fn on_open(&mut self, bytes: u64) {
        self.conns += 1;
        self.bytes += bytes;
    }

    /// A connection closed, releasing its accounted `bytes`.
    pub fn on_close(&mut self, bytes: u64) {
        self.conns = self.conns.saturating_sub(1);
        self.bytes = self.bytes.saturating_sub(bytes);
    }

    /// A live connection's footprint changed by `delta` bytes.
    pub fn adjust(&mut self, delta: i64) {
        self.bytes = if delta >= 0 {
            self.bytes.saturating_add(delta as u64)
        } else {
            self.bytes.saturating_sub((-delta) as u64)
        };
    }

    /// Export the account through the global `neat-obs` registry.
    pub fn publish(&mut self) {
        const NAMES: [&str; 3] = [
            "tcp.conn.count",
            "tcp.conn.bytes_total",
            "tcp.conn.bytes_per_conn",
        ];
        let register = || NAMES.map(neat_obs::gauge);
        let [count, total, per_conn] = *self.gauges.get_or_insert_with(register);
        count.set(self.conns as f64);
        total.set(self.bytes as f64);
        per_conn.set(self.bytes_per_conn());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_tracks_open_adjust_close() {
        let mut b = ConnBudget::new(0);
        b.on_open(100);
        b.on_open(100);
        assert_eq!(b.conns(), 2);
        assert_eq!(b.bytes_total(), 200);
        b.adjust(50);
        b.adjust(-30);
        assert_eq!(b.bytes_total(), 220);
        assert_eq!(b.bytes_per_conn(), 110.0);
        b.on_close(120);
        assert_eq!(b.conns(), 1);
        assert_eq!(b.bytes_total(), 100);
    }

    #[test]
    fn limit_refuses_and_counts() {
        let mut b = ConnBudget::new(250);
        assert!(b.admit(100));
        b.on_open(100);
        assert!(b.admit(100));
        b.on_open(100);
        assert!(!b.admit(100), "200 + 100 > 250");
        assert_eq!(b.refused(), 1);
        b.on_close(100);
        assert!(b.admit(100), "freed budget re-admits");
    }

    #[test]
    fn unlimited_never_refuses() {
        let mut b = ConnBudget::new(0);
        b.on_open(u64::MAX / 2);
        assert!(b.admit(u64::MAX / 2));
    }
}
