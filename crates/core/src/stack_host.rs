//! The stack host (§3.7, Figure 3): the single- and multi-component
//! replicas are the same stack cut at different process boundaries, and
//! [`StackHost`] is the part above the cut — the only place that knows the
//! socket-op message set, the replication/migration protocol, the flush
//! order with its timer re-arm rule, and lazy termination. What sits
//! *below* TCP — frame I/O and the driver in `SingleStackProc`, a message
//! to the IP process in `TcpProc` — is its [`WireSink`] parameter,
//! statically dispatched.

use crate::flow_repl::FlowRepl;
use crate::sock_server::SockServer;
use crate::{msg::Msg, replica::Role};
use neat_sim::{calibration, Ctx, ProcId, Time};
use std::net::Ipv4Addr;

/// What sits below TCP in one replica shape.
pub trait WireSink {
    /// Send one outbound TCP segment to `dst` and charge the layers below
    /// TCP for it. `seg` is the host's one scratch buffer: a sink that
    /// frames the segment reads it, a sink that ships it takes it. A sink
    /// that owns the replica's loopback device hands back segments
    /// addressed to the replica itself; the host feeds them straight into
    /// its own TCP.
    fn tx_segment(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        dst: Ipv4Addr,
        seg: &mut Vec<u8>,
    ) -> Option<Vec<u8>>;

    /// End of a flush round: release what the sink queued. Runs after the
    /// loopback feedback and before any application message is sent.
    fn tx_done(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
}

/// Socket server + replication engine + lifecycle state of one replica.
pub struct StackHost {
    /// NIC queue this replica is fed from.
    pub queue: usize,
    supervisor: ProcId,
    sock: SockServer,
    repl: FlowRepl,
    /// Termination state (§3.4): no new work; report when drained.
    terminating: bool,
    drained_reported: bool,
    /// Earliest armed timer deadline (avoid timer storms).
    armed: Option<u64>,
    /// The segment a flush is handing to the wire: one buffer for all.
    seg: Vec<u8>,
    /// ASLR layout token — randomized at every (re)start (§3.8).
    pub layout_token: u64,
}

impl StackHost {
    pub fn new(
        queue: usize,
        supervisor: ProcId,
        local_ip: Ipv4Addr,
        cfg: &crate::config::NeatConfig,
    ) -> StackHost {
        StackHost {
            queue,
            supervisor,
            sock: SockServer::new(local_ip, cfg.tcp.clone()),
            repl: FlowRepl::new(cfg),
            terminating: false,
            drained_reported: false,
            armed: None,
            seg: Vec::new(),
            layout_token: 0,
        }
    }

    /// `Event::Start`: fresh ASLR layout on every (re)start (§3.8).
    pub fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.layout_token = ctx.rng().gen();
    }

    /// One inbound TCP segment from `src`. The caller owes a
    /// [`StackHost::flush`] afterwards — once per batch, not per segment.
    pub fn rx_segment(&mut self, ctx: &mut Ctx<'_, Msg>, src: Ipv4Addr, seg: &[u8]) {
        ctx.charge(calibration::TCP_RX_SEG);
        self.sock.rx_segment(src, seg, ctx.now().as_nanos());
    }

    /// `Event::Timer`.
    pub fn on_timer<W: WireSink>(&mut self, ctx: &mut Ctx<'_, Msg>, wire: &mut W) {
        self.armed = None;
        self.sock.on_timer(ctx.now().as_nanos());
        self.flush(ctx, wire);
    }

    /// Every message that is not the caller's own wire plane: a socket
    /// op, the replication/migration protocol, termination, supervisor
    /// rewiring. Anything else is ignored.
    pub fn on_msg<W: WireSink>(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ProcId,
        msg: Msg,
        wire: &mut W,
    ) {
        match msg {
            m if m.is_sock_op() => {
                // No new work while terminating; existing connections still
                // flow. A refused connect is answered so the library's token
                // resolves; a refused listen needs no answer (the library
                // re-listens on `ReplicaAdded`).
                if self.terminating {
                    match m {
                        Msg::Listen { .. } => return,
                        Msg::Connect { app, token, .. } => {
                            ctx.send(app, Msg::ConnFailed { token });
                            return;
                        }
                        _ => {}
                    }
                }
                let ops = self.sock.handle_app(from, m, ctx.now().as_nanos());
                ctx.charge(ops as u64 * calibration::SOCK_OP);
                self.flush(ctx, wire);
            }
            Msg::SetBuddy { buddy } => {
                self.repl.set_buddy(&mut self.sock, buddy);
                // Re-baseline immediately so the buddy's store starts
                // complete.
                self.flush(ctx, wire);
            }
            Msg::ReplDelta { queue: _, payload } => {
                ctx.charge(calibration::SOCK_OP);
                self.repl.apply_delta(from, payload);
            }
            Msg::ReplHandoff { queue: _, old, to } => {
                let flows = self.repl.take_flows_for(old);
                ctx.charge(calibration::SOCK_OP);
                ctx.send(to, Msg::ReplRestore { old, flows });
            }
            Msg::ReplRestore { old, flows } => {
                ctx.charge(flows.len() as u64 * calibration::TCP_OPEN);
                let flows = self.sock.restore_flows(ctx.self_id, old, flows);
                neat_obs::counter_add("repl.flows_restored", flows.len() as u64);
                let queue = self.queue;
                ctx.send(self.supervisor, Msg::ReplRestored { queue, flows });
                self.flush(ctx, wire);
            }
            Msg::MigrateOut { to } => {
                let flows = self.sock.export_for_migration();
                ctx.charge(flows.len() as u64 * calibration::TCP_CLOSE);
                neat_obs::counter_add("repl.flows_migrated", flows.len() as u64);
                let old = ctx.self_id;
                ctx.send(to, Msg::ReplRestore { old, flows });
                self.flush(ctx, wire);
            }
            Msg::ReplForget { owner } => self.repl.forget(owner),
            Msg::Terminate => {
                self.terminating = true;
                self.supervisor = from;
                self.flush(ctx, wire);
            }
            Msg::SetNeighbor {
                role: Role::Supervisor,
                pid,
            } => self.supervisor = pid,
            _ => {}
        }
    }

    /// Push everything the stack owes out, in the one order every host
    /// uses: events → wire → app messages → replication delta → timer
    /// re-arm → drained report. Loopback traffic can generate new events
    /// and segments in the same handler, so rounds repeat to quiescence
    /// (bounded: each round consumes queued stack output).
    pub fn flush<W: WireSink>(&mut self, ctx: &mut Ctx<'_, Msg>, wire: &mut W) {
        let now = ctx.now().as_nanos();
        for _ in 0..32 {
            // Stack events → app messages; charge per open/close.
            let (_, opened, closed) = self.sock.process_events(ctx.self_id);
            ctx.charge(
                opened as u64 * calibration::TCP_OPEN + closed as u64 * calibration::TCP_CLOSE,
            );
            // Outbound segments → the layers below. Segments the sink hands
            // back take the replica's own loopback device (§3.3: "this also
            // allows the loopback devices to be implemented by each of the
            // replicas") — no NIC, no driver, no other replica involved.
            let mut loopback = Vec::new();
            while let Some(dst) = self.sock.stack.poll_transmit_into(now, &mut self.seg) {
                ctx.charge(calibration::TCP_TX_SEG);
                loopback.extend(wire.tx_segment(ctx, dst, &mut self.seg));
                self.seg.clear();
            }
            let had_loopback = !loopback.is_empty();
            for seg in loopback {
                self.rx_segment(ctx, self.sock.stack.local_ip, &seg);
            }
            wire.tx_done(ctx);
            // App notifications.
            for (app, msg) in self.sock.drain_app_msgs() {
                ctx.charge(calibration::SOCK_OP);
                ctx.send(app, msg);
            }
            // Replication delta last: crashes arrive as messages (Poison),
            // so the whole flush is atomic — every output above is covered
            // by this delta.
            if let Some((buddy, delta)) = self.repl.collect_delta(&mut self.sock, self.queue, now) {
                ctx.charge(calibration::SOCK_OP);
                ctx.send(buddy, delta);
            }
            // Timer re-arm: only when the next deadline is earlier than
            // the one already armed.
            if let Some(d) = self.sock.next_timeout() {
                if self.armed.map(|a| d < a).unwrap_or(true) {
                    self.armed = Some(d);
                    ctx.set_timer(Time::from_nanos(d.saturating_sub(now)), 0);
                }
            }
            // Lazy-termination GC (§3.4).
            if self.terminating && !self.drained_reported && self.sock.conn_count() == 0 {
                self.drained_reported = true;
                ctx.send(self.supervisor, Msg::Drained { queue: self.queue });
            }
            if !had_loopback {
                break;
            }
        }
    }
}
