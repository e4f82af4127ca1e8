//! Buddy-replica flow replication (the transparent-recovery extension to
//! §3.6, plus the transfer path live flow migration rides on).
//!
//! Every stack replica owns a [`FlowRepl`]. It plays two roles at once:
//!
//! * **primary** — after each flush it collects a replication delta for
//!   its own flows and ships it to its buddy ([`Msg::ReplDelta`]);
//! * **buddy** — it stores the deltas other replicas send *it*, and on a
//!   supervisor handoff ([`Msg::ReplHandoff`]) surrenders its copy of the
//!   dead replica's flows so the respawned replica can adopt them.
//!
//! The mechanism is checkpoint streaming: the checkpoint bytes
//! ([`neat_tcp::TcpSocket::checkpoint`]) of every flow touched since the
//! last flush. The buddy's store is a plain map; handoff is a drain.
//!
//! The output-commit argument for why a delta-per-flush is enough: crashes
//! are delivered as messages ([`Msg::Poison`]), so a flush — input
//! processing, event pump, wire-output collection, delta emission — is
//! atomic with respect to failure. Every client-visible output therefore
//! has a covering delta enqueued on the (reliable, ordered) message
//! fabric, and the buddy's copy is never behind anything the peer or the
//! application has observed.

use crate::config::NeatConfig;
use crate::msg::{Msg, ReplFlow, ReplPayload};
use crate::sock_server::SockServer;
use neat_net::FlowKey;
use neat_sim::ProcId;
use neat_util::FxHashMap;

/// Per-replica replication engine (both the primary and the buddy half).
#[derive(Debug)]
pub struct FlowRepl {
    enabled: bool,
    /// Who we stream our deltas to.
    buddy: Option<ProcId>,
    /// Next delta must re-baseline the buddy (fresh assignment).
    need_full: bool,
    /// Latest checkpoint per flow, held on behalf of other replicas and
    /// keyed by their pid. Only probed; its one iteration,
    /// [`FlowRepl::take_flows_for`], sorts by `old_sock`.
    store: FxHashMap<ProcId, FxHashMap<FlowKey, ReplFlow>>,
    /// `repl.deltas_sent`/`_applied`, bumped per delta: cached, but at first
    /// use — the snapshot lists only registered metrics, in that order.
    sent: Option<neat_obs::Counter>,
    applied: Option<neat_obs::Counter>,
}

impl FlowRepl {
    pub fn new(cfg: &NeatConfig) -> FlowRepl {
        FlowRepl {
            enabled: cfg.replication.enabled,
            buddy: None,
            need_full: false,
            store: FxHashMap::default(),
            sent: None,
            applied: None,
        }
    }

    /// Supervisor (re)assigned our buddy. The next delta re-baselines it.
    /// Also turns checkpoint-delta tracking on in our own stack.
    pub fn set_buddy(&mut self, srv: &mut SockServer, buddy: Option<ProcId>) {
        if !self.enabled {
            return;
        }
        self.buddy = buddy;
        self.need_full = buddy.is_some();
        srv.set_repl_tracking(buddy.is_some());
    }

    /// End-of-flush: build the delta message owed to the buddy, if any.
    /// Returns `(buddy, msg)` ready to send. (`_now` is unused; the frozen
    /// `benchmark/` crate calls this with three arguments.)
    pub fn collect_delta(
        &mut self,
        srv: &mut SockServer,
        queue: usize,
        _now: u64,
    ) -> Option<(ProcId, Msg)> {
        let buddy = self.buddy?;
        if !self.enabled {
            return None;
        }
        let full = std::mem::take(&mut self.need_full);
        let payload = srv.checkpoint(full);
        if !full && payload.flows.is_empty() && payload.closed.is_empty() {
            return None;
        }
        let register = || neat_obs::counter("repl.deltas_sent");
        self.sent.get_or_insert_with(register).inc();
        Some((buddy, Msg::ReplDelta { queue, payload }))
    }

    /// Buddy half: fold one incoming delta from `from` into its store.
    pub fn apply_delta(&mut self, from: ProcId, payload: ReplPayload) {
        let register = || neat_obs::counter("repl.deltas_applied");
        self.applied.get_or_insert_with(register).inc();
        let map = self.store.entry(from).or_default();
        if payload.full {
            map.clear();
        }
        for f in payload.flows {
            map.insert(f.flow, f);
        }
        for k in payload.closed {
            map.remove(&k);
        }
    }

    /// Buddy half: surrender the flows held for `owner` (supervisor
    /// handoff, or cleanup). Deterministically ordered by the flow's
    /// socket id in its previous owner.
    pub fn take_flows_for(&mut self, owner: ProcId) -> Vec<ReplFlow> {
        let mut flows: Vec<ReplFlow> = self
            .store
            .remove(&owner)
            .map(|map| map.into_values().collect())
            .unwrap_or_default();
        flows.sort_unstable_by_key(|f| f.old_sock);
        flows
    }

    /// Drop the store held for `owner` (it was removed, not crashed).
    pub fn forget(&mut self, owner: ProcId) {
        self.store.remove(&owner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_tcp::SocketId;
    use std::net::Ipv4Addr;

    fn flow(sock: u64) -> ReplFlow {
        let client = Ipv4Addr::new(10, 0, (sock >> 8) as u8, sock as u8);
        ReplFlow {
            flow: FlowKey::tcp(client, 40_000, Ipv4Addr::new(10, 0, 0, 1), 80),
            old_sock: SocketId(sock),
            owner: ProcId(7),
            app_bytes: sock,
            img: vec![sock as u8],
        }
    }

    /// The buddy's store is a hash map, but what it hands off (and so the
    /// restore order, and through it the wire) is in ascending `old_sock`
    /// however the deltas arrived.
    #[test]
    fn handoff_is_in_socket_order() {
        let mut repl = FlowRepl::new(&NeatConfig::single(2).replicated());
        let primary = ProcId(3);
        // 1..=96 in a scrambled order (97 is prime), eight flows per delta;
        // a last delta closes every fifth.
        let socks: Vec<u64> = (1..=96).map(|i| i * 37 % 97).collect();
        let delta = |flows, closed| ReplPayload {
            full: false,
            flows,
            closed,
        };
        for chunk in socks.chunks(8) {
            let flows = chunk.iter().map(|&s| flow(s)).collect();
            repl.apply_delta(primary, delta(flows, Vec::new()));
        }
        let closed = (5..=96).step_by(5).map(|s| flow(s).flow).collect();
        repl.apply_delta(primary, delta(Vec::new(), closed));
        let got: Vec<u64> = (repl.take_flows_for(primary).iter())
            .map(|f| f.old_sock.0)
            .collect();
        let want: Vec<u64> = (1..=96).filter(|s| s % 5 != 0).collect();
        assert_eq!(got, want);
        assert!(repl.take_flows_for(primary).is_empty(), "a handoff drains");
    }
}
