//! The stack host (§3.7, Figure 3): the single- and multi-component
//! replicas are the same stack cut at different process boundaries, and
//! [`StackHost`] is the part above the cut — the only place that knows the
//! socket-op message set, the replication/migration protocol, the flush
//! order with its one stack timer, and lazy termination. What sits
//! *below* TCP — frame I/O and the driver in `SingleStackProc`, a message
//! to the IP process in `TcpProc` — is its [`WireSink`] parameter,
//! statically dispatched.

use crate::flow_repl::FlowRepl;
use crate::sock_server::SockServer;
use crate::{msg::Msg, replica::Role};
use neat_net::tcp::TcpHeader;
use neat_sim::{calibration, Ctx, ProcId, Time};
use std::net::Ipv4Addr;

/// What sits below TCP in one replica shape.
pub trait WireSink {
    /// Send one outbound TCP segment between `addrs` (source, destination)
    /// — the header `h` over the payload `data`, the two halves of the
    /// send ring it lies in — and charge the layers below TCP for it. The
    /// sink emits the segment once, where it goes next: a sink that frames
    /// it writes it straight into the frame, a sink that ships it writes
    /// the owned buffer it ships. A sink that owns the replica's loopback
    /// device hands back, emitted, segments addressed to the replica
    /// itself; the host feeds them straight into its own TCP.
    fn tx_segment(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        addrs: (Ipv4Addr, Ipv4Addr),
        h: &TcpHeader,
        data: (&[u8], &[u8]),
    ) -> Option<Vec<u8>>;

    /// End of a flush round: release what the sink queued. Runs after the
    /// loopback feedback and before any application message is sent.
    fn tx_done(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
}

/// `timer.fires.<kind>` and `timer.stale.<kind>`: how often a host's stack
/// timer fires, and how often its stack then has nothing due (its
/// `next_timeout()` is `None` or later than now) — a wake-up for nothing.
/// Registered at the first fire, so a run without the host keeps its
/// snapshot as it was.
pub struct TimerFires {
    kind: &'static str,
    handles: Option<[neat_obs::Counter; 2]>,
}

impl TimerFires {
    pub fn new(kind: &'static str) -> TimerFires {
        TimerFires {
            kind,
            handles: None,
        }
    }

    /// One fire at `now`, whose stack's next deadline is `due`.
    pub fn record(&mut self, due: Option<u64>, now: u64) {
        let kind = self.kind;
        let [fires, stale] = *self.handles.get_or_insert_with(|| {
            let count = |what| neat_obs::counter(&format!("timer.{what}.{kind}"));
            [count("fires"), count("stale")]
        });
        fires.inc();
        if due.is_none_or(|d| d > now) {
            stale.inc();
        }
    }
}

/// Keep a host's one stack timer (`token`) on its stack's next deadline
/// `due`: `timer` is the deadline the pending timer stands for. A deadline
/// that moves replaces the timer, one that is gone withdraws it, so the
/// timer never fires for nothing. A timer already due stays where it
/// waits while the deadline stays due: replaced, it would go to the back
/// of a busy thread's queue and wait out the backlog again.
pub fn follow_deadline<M: 'static>(
    ctx: &mut Ctx<'_, M>,
    timer: &mut Option<u64>,
    due: Option<u64>,
    token: u64,
) {
    let now = ctx.now().as_nanos();
    let overdue = |d: Option<u64>| d.is_some_and(|d| d <= now);
    if *timer == due || (overdue(*timer) && overdue(due)) {
        return;
    }
    *timer = due;
    match due {
        Some(d) => ctx.set_timer(Time::from_nanos(d.saturating_sub(now)), token),
        None => ctx.cancel_timer(token),
    }
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
    /// A frame arrived this wakeup, so [`StackHost::settle`] flushes.
    flush_owed: bool,
    /// The deadline the one pending stack timer stands for.
    timer: Option<u64>,
    timer_fires: TimerFires,
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
            flush_owed: false,
            timer: None,
            timer_fires: TimerFires::new("neat"),
        }
    }

    /// `Event::Start`: a fresh ASLR layout on every (re)start (§3.8). The
    /// layout is the process's own and nothing reads it, but its draw stays:
    /// it keeps the seeded random stream, and every result, where it was.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let _layout: u64 = ctx.rng().gen();
    }

    /// One inbound TCP segment from `src`. The caller's frame arm calls
    /// [`StackHost::owe_flush`]: the flush runs once per wakeup, not per
    /// segment.
    pub fn rx_segment(&mut self, ctx: &mut Ctx<'_, Msg>, src: Ipv4Addr, seg: &[u8]) {
        ctx.charge(calibration::TCP_RX_SEG);
        self.sock.rx_segment(src, seg, ctx.now().as_nanos());
    }

    /// An inbound frame was handled: flush at the end of this wakeup.
    pub fn owe_flush(&mut self) {
        self.flush_owed = true;
    }

    /// `Process::settle`: the one flush a wakeup's frames owe.
    pub fn settle<W: WireSink>(&mut self, ctx: &mut Ctx<'_, Msg>, wire: &mut W) {
        if std::mem::take(&mut self.flush_owed) {
            self.flush(ctx, wire);
        }
    }

    /// `Event::Timer`.
    pub fn on_timer<W: WireSink>(&mut self, ctx: &mut Ctx<'_, Msg>, wire: &mut W) {
        self.timer = None;
        let now = ctx.now().as_nanos();
        self.timer_fires.record(self.sock.next_timeout(), now);
        self.sock.on_timer(now);
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
    /// uses: events → wire → app messages → replication delta → stack
    /// timer → drained report. Loopback traffic can generate new events
    /// and segments in the same handler, so rounds repeat to quiescence
    /// (bounded: each round consumes queued stack output).
    pub fn flush<W: WireSink>(&mut self, ctx: &mut Ctx<'_, Msg>, wire: &mut W) {
        let now = ctx.now().as_nanos();
        for _ in 0..32 {
            // Stack events → app messages; charge per open/close.
            let (opened, closed) = self.sock.process_events(ctx.self_id);
            ctx.charge(
                opened as u64 * calibration::TCP_OPEN + closed as u64 * calibration::TCP_CLOSE,
            );
            // Outbound segments → the layers below. Segments the sink hands
            // back take the replica's own loopback device (§3.3: "this also
            // allows the loopback devices to be implemented by each of the
            // replicas") — no NIC, no driver, no other replica involved.
            let mut loopback = Vec::new();
            let src = self.sock.stack.local_ip;
            let mut tx = |dst, h: &TcpHeader, data: (&[u8], &[u8])| {
                ctx.charge(calibration::TCP_TX_SEG);
                wire.tx_segment(ctx, (src, dst), h, data)
            };
            while let Some(back) = self.sock.stack.transmit_with(now, &mut tx) {
                loopback.extend(back);
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
            // The stack timer follows the next deadline wherever it moves.
            follow_deadline(ctx, &mut self.timer, self.sock.next_timeout(), 0);
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

#[cfg(test)]
mod tests {
    use super::follow_deadline;
    use neat_sim::{Ctx, Event, MachineSpec, Process, Sim, SimConfig, Time};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Works 20 µs on each message, so its backlog grows. The first message
    /// makes a deadline due 1 µs later; every later one moves it, still
    /// overdue, as a stack's minimum moves when other work is added. Logs
    /// when each message ends and when the timer fires (µs).
    struct Host {
        due: Option<u64>,
        timer: Option<u64>,
        log: Rc<RefCell<(Vec<u64>, Vec<u64>)>>,
    }

    impl Process<u32> for Host {
        fn name(&self) -> String {
            "host".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, ev: Event<u32>) {
            let now = ctx.now().as_nanos();
            match ev {
                Event::Message { .. } => {
                    ctx.charge(38_000); // 20 µs at 1.9 GHz
                    self.due = match (self.due, self.log.borrow().0.is_empty()) {
                        (None, true) => Some(now + 1_000),
                        (due, _) => due.map(|d| d - 1),
                    };
                    let end = now + 20_000;
                    self.log.borrow_mut().0.push(end / 1_000);
                }
                Event::Timer { .. } => {
                    self.timer = None;
                    self.due = None;
                    self.log.borrow_mut().1.push(now / 1_000);
                }
                Event::Start => {}
            }
            follow_deadline(ctx, &mut self.timer, self.due, 7);
        }
    }

    #[test]
    fn an_overdue_timer_keeps_its_place_in_a_busy_threads_queue() {
        let mut sim: Sim<u32> = Sim::new(SimConfig::default());
        let m = sim.add_machine(MachineSpec::amd_opteron_6168());
        let log = Rc::new(RefCell::new((vec![], vec![])));
        let host = Host {
            due: None,
            timer: None,
            log: log.clone(),
        };
        let host = sim.spawn(sim.hw_thread(m, 0, 0), Box::new(host));
        for i in 0..20 {
            sim.run_until(Time::from_micros(10 * i));
            sim.send_external(host, i as u32);
        }
        sim.run_until(Time::from_millis(1));
        let (ends, fires) = log.borrow().clone();
        // The backlog: a message every 10 µs, each worked on for 20 µs.
        assert_eq!(ends.len(), 20);
        assert!(*ends.last().unwrap() > 350, "{ends:?}");
        // The timer fell due during the first message and queued behind the
        // work already waiting then; moving the overdue deadline did not
        // send it to the back of the queue again and again.
        assert_eq!(fires.len(), 1, "{fires:?}");
        assert!(fires[0] < ends[3], "fired at {} µs; {ends:?}", fires[0]);
    }
}
