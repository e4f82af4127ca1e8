//! The supervisor ("reincarnation server" in MINIX 3 terms).
//!
//! It is the crash monitor for every NEaT component and implements the
//! paper's recovery and scaling protocols:
//!
//! * **Stateless recovery (§3.6)** — when a component crashes, all its
//!   state is gone (the engine drops the process). After a recovery delay
//!   the supervisor has [`crate::replica`] start the crashed role again on
//!   the same hardware thread, and — only if the dead component was a
//!   TCP/socket owner — tells applications and the SYSCALL server that
//!   connection handles on the old pid are dead. Other replicas never
//!   notice: isolation means there is nothing to clean up across replicas.
//! * **Scale-up/down (§3.4)** — scale-up grows the NIC queue set and starts
//!   a whole replica on spare threads; scale-down marks a replica
//!   *terminating* (the NIC stops steering new flows to it) and
//!   garbage-collects it only once its connection count drains to zero —
//!   lazy termination that never breaks a connection.
//!
//! How a replica's processes are built and wired is not decided here.

use crate::config::NeatConfig;
use crate::msg::Msg;
use crate::replica::{spawn_replica, Comps, ReplicaEnv, ReplicaSlots, Role};
use neat_net::MacAddr;
use neat_sim::{Ctx, Event, HwThreadId, ProcId, Process, Time};
use neat_util::FxHashMap;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Delay to create and boot a replica process: 2 ms to fork+exec (spawn
/// latency, §3.4).
const SPAWN_DELAY: Time = Time(2_000_000);
/// Crash-to-restart delay of the recovery path: 5 ms to detect the crash
/// and restart (§3.6).
const RECOVERY_DELAY: Time = Time(5_000_000);

/// Harness-visible supervisor counters (shared instrumentation handle).
#[derive(Debug, Default, Clone)]
pub struct SupStats {
    pub crashes_seen: u64,
    pub recoveries: u64,
    /// Crashes that lost TCP state (TCP component or single-comp replica).
    pub stateful_losses: u64,
    pub scale_ups: u64,
    pub scale_downs_completed: u64,
    /// Crash events that raced replica removal (concurrent scale-down):
    /// the event is dropped or folded into the drain instead of
    /// resurrecting a replica that no longer exists.
    pub stale_crashes: u64,
    /// Buddy handoffs that completed: the respawned head adopted the
    /// crashed replica's flows before the fallback deadline.
    pub handoffs_completed: u64,
}

/// Per-replica bookkeeping.
#[derive(Debug)]
struct ReplicaRec {
    queue: usize,
    /// Removed replicas have this emptied.
    comps: Comps,
    terminating: bool,
    alive: bool,
    /// A handoff awaiting [`Msg::ReplRestored`]. It has a fallback timer
    /// pending under its token; the timer is withdrawn when the handoff
    /// goes, so one that fires is always current.
    pending_failover: Option<PendingFailover>,
    /// Last `(head, buddy)` told to this replica, to skip no-op
    /// [`Msg::SetBuddy`] sends (each one forces a full re-checkpoint).
    assigned: Option<(ProcId, Option<ProcId>)>,
}

/// A scheduled respawn.
#[derive(Debug)]
struct RespawnJob {
    queue: Option<usize>, // None for the driver
    role: Role,
    old_pid: ProcId,
    thread: HwThreadId,
}

/// A buddy handoff in flight: the restart report to applications is held
/// back until the respawned head confirms it adopted the dead replica's
/// flows ([`Msg::ReplRestored`]) or the fallback timer gives up.
#[derive(Debug)]
struct PendingFailover {
    old: ProcId,
    new: ProcId,
    token: u64,
}

/// The supervisor process.
pub struct Supervisor {
    pub name: String,
    cfg: NeatConfig,
    arp_seed: Vec<(Ipv4Addr, MacAddr)>,
    nic: ProcId,
    driver: ProcId,
    driver_thread: HwThreadId,
    syscall: ProcId,
    replicas: Vec<ReplicaRec>,
    apps: Vec<ProcId>,
    /// Spare hardware threads for scale-up.
    spare: Vec<HwThreadId>,
    /// Scheduled respawns: timer token → job. Only probed.
    jobs: FxHashMap<u64, RespawnJob>,
    next_token: u64,
    pub stats: Rc<RefCell<SupStats>>,
}

impl Supervisor {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        cfg: NeatConfig,
        arp_seed: Vec<(Ipv4Addr, MacAddr)>,
        nic: ProcId,
        driver: ProcId,
        driver_thread: HwThreadId,
        syscall: ProcId,
        spare: Vec<HwThreadId>,
        stats: Rc<RefCell<SupStats>>,
    ) -> Supervisor {
        Supervisor {
            name: name.into(),
            cfg,
            arp_seed,
            nic,
            driver,
            driver_thread,
            syscall,
            replicas: Vec::new(),
            apps: Vec::new(),
            spare,
            jobs: FxHashMap::default(),
            next_token: 1,
            stats,
        }
    }

    /// Register a replica as the next queue (called by the boot builder,
    /// in queue order).
    pub fn register_replica(&mut self, comps: Comps) {
        self.replicas.push(ReplicaRec {
            queue: self.replicas.len(),
            comps,
            terminating: false,
            alive: true,
            pending_failover: None,
            assigned: None,
        });
    }

    /// The socket-owning head of a replica (TCP comp or single stack).
    fn sockets_head(&self, queue: usize) -> Option<ProcId> {
        self.replicas.get(queue)?.comps.sockets_head()
    }

    fn find_crashed(&self, pid: ProcId) -> Option<(Option<usize>, Role, HwThreadId)> {
        if pid == self.driver {
            return Some((None, Role::Driver, self.driver_thread));
        }
        self.replicas.iter().find_map(|rec| {
            let (role, _, t) = rec.comps.iter().find(|c| c.1 == pid)?;
            Some((Some(rec.queue), *role, *t))
        })
    }

    fn stale_crash(&mut self) {
        self.stats.borrow_mut().stale_crashes += 1;
        neat_obs::counter_add("sup.stale_crash", 1);
    }

    /// The buddy ring: `(queue, head)` of every live, non-terminating
    /// replica, in queue order. Each head streams its flow state to the
    /// next entry (wrapping).
    fn ring(&self) -> Vec<(usize, ProcId)> {
        self.replicas
            .iter()
            .filter(|r| r.alive && !r.terminating)
            .filter_map(|r| self.sockets_head(r.queue).map(|h| (r.queue, h)))
            .collect()
    }

    /// The head currently holding queue `q`'s replicated flows (its ring
    /// successor), if replication is on and the ring has a successor.
    fn buddy_head_of(&self, q: usize) -> Option<ProcId> {
        if !self.cfg.replication {
            return None;
        }
        let ring = self.ring();
        if ring.len() < 2 {
            return None;
        }
        let i = ring.iter().position(|(rq, _)| *rq == q)?;
        Some(ring[(i + 1) % ring.len()].1)
    }

    /// (Re)issue `SetBuddy` across the ring after any membership or head
    /// change. Only heads whose `(self, buddy)` pair actually changed are
    /// told — a `SetBuddy` forces a full re-checkpoint, which is not free.
    fn reassign_buddies(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.cfg.replication {
            return;
        }
        let ring = self.ring();
        for (i, &(q, head)) in ring.iter().enumerate() {
            let buddy = if ring.len() < 2 {
                None
            } else {
                Some(ring[(i + 1) % ring.len()].1)
            };
            let assigned = &mut self.replicas[q].assigned;
            if *assigned != Some((head, buddy)) {
                *assigned = Some((head, buddy));
                ctx.send(head, Msg::SetBuddy { buddy });
            }
        }
    }

    fn schedule_respawn(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        queue: Option<usize>,
        role: Role,
        old_pid: ProcId,
        thread: HwThreadId,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        self.jobs.insert(
            token,
            RespawnJob {
                queue,
                role,
                old_pid,
                thread,
            },
        );
        ctx.set_timer(RECOVERY_DELAY, token);
    }

    /// The queue whose pending handoff's fallback timer is `token`. Tokens
    /// are unique, so the search order decides nothing.
    fn failover_of(&self, token: u64) -> Option<usize> {
        let is_it = |r: &ReplicaRec| {
            r.pending_failover
                .as_ref()
                .is_some_and(|p| p.token == token)
        };
        self.replicas.iter().position(is_it)
    }

    fn notify_apps(&self, ctx: &mut Ctx<'_, Msg>, make: impl Fn() -> Msg) {
        for app in &self.apps {
            ctx.send(*app, make());
        }
        ctx.send(self.syscall, make());
    }

    fn respawn(&mut self, ctx: &mut Ctx<'_, Msg>, job: RespawnJob) {
        let RespawnJob {
            queue,
            role,
            old_pid,
            thread,
        } = job;
        // Stale-crash guards: between the crash and this timer the replica
        // may have been removed (scale-down completed against a dead head)
        // or marked terminating. Never `unwrap()` our way into respawning
        // a replica that no longer exists.
        if let Some(q) = queue {
            let Some(rec) = self.replicas.get(q) else {
                self.stale_crash();
                return;
            };
            if !rec.alive {
                self.stale_crash();
                return;
            }
            if rec.terminating {
                // The crashed replica was picked for scale-down while this
                // respawn was pending. Its connections died with it; finish
                // the removal instead of resurrecting a draining replica.
                self.stale_crash();
                self.gc_drained(ctx, q);
                return;
            }
        }
        self.stats.borrow_mut().recoveries += 1;
        neat_obs::counter_add("sup.recoveries", 1);
        if neat_obs::tracing() {
            neat_obs::trace::instant(
                0,
                format!("recover: {role:?}.{queue:?}"),
                "lifecycle",
                ctx.now().as_nanos(),
            );
        }
        let Some(q) = queue else {
            return self.respawn_driver(ctx, thread);
        };
        self.spawn_into(ctx, q, &[(role, thread)]);
        if let (Role::Single | Role::Tcp, Some(new)) = (role, self.replicas[q].comps.pid(role)) {
            self.head_restarted(ctx, q, old_pid, new);
        }
    }

    /// Have [`crate::replica`] start `plan`'s components for replica `q`
    /// — as at boot, except that process creation costs the spawn delay
    /// and the components know the supervisor from the start.
    fn spawn_into(&mut self, ctx: &mut Ctx<'_, Msg>, q: usize, plan: &[(Role, HwThreadId)]) {
        let env = ReplicaEnv {
            cfg: &self.cfg,
            arp_seed: &self.arp_seed,
            driver: self.driver,
            supervisor: ctx.self_id,
        };
        spawn_replica(
            ctx,
            |ctx, thread, proc| ctx.spawn(thread, proc, SPAWN_DELAY),
            Ctx::send,
            &env,
            q,
            plan,
            &mut self.replicas[q].comps,
        );
    }

    fn respawn_driver(&mut self, ctx: &mut Ctx<'_, Msg>, thread: HwThreadId) {
        let queues = self.replicas.len().max(self.cfg.replicas);
        let drv = crate::driver::DriverProc::new("drv", self.nic, queues);
        let new = ctx.spawn(thread, Box::new(drv), SPAWN_DELAY);
        self.driver = new;
        let driver_is_new = || Msg::SetNeighbor {
            role: Role::Driver,
            pid: new,
        };
        ctx.send(self.nic, driver_is_new());
        // Re-announce every live head and repoint TX paths.
        for rec in self.replicas.iter().filter(|r| r.alive) {
            let comps = &rec.comps;
            if let Some(head) = comps.pid(Role::Pf).or_else(|| comps.pid(Role::Single)) {
                ctx.send(
                    new,
                    Msg::Announce {
                        queue: rec.queue,
                        head,
                    },
                );
            }
            for (role, pid, _) in comps.iter() {
                if matches!(role, Role::Ip | Role::Single | Role::Pf) {
                    ctx.send(*pid, driver_is_new());
                }
            }
        }
    }

    /// A socket-owning head (TCP comp or single stack) was respawned as
    /// `new`. With a buddy holding the dead head's flows, start a
    /// transparent handoff and hold back the restart report until the
    /// flows are adopted; otherwise fall straight back to stateless
    /// recovery (§3.6) and report the loss.
    fn head_restarted(&mut self, ctx: &mut Ctx<'_, Msg>, q: usize, old_pid: ProcId, new: ProcId) {
        let buddy = self.buddy_head_of(q).filter(|b| *b != new);
        if let Some(b) = buddy {
            ctx.send(
                b,
                Msg::ReplHandoff {
                    queue: q,
                    old: old_pid,
                    to: new,
                },
            );
            let token = self.next_token;
            self.next_token += 1;
            let pending = PendingFailover {
                old: old_pid,
                new,
                token,
            };
            if let Some(p) = self.replicas[q].pending_failover.replace(pending) {
                ctx.cancel_timer(p.token);
            }
            // Fallback: if the restore never confirms (e.g. the buddy dies
            // too), report the restart anyway so apps reap dead handles.
            ctx.set_timer(SPAWN_DELAY + RECOVERY_DELAY, token);
        } else {
            self.stats.borrow_mut().stateful_losses += 1;
            neat_obs::counter_add("sup.stateful_losses", 1);
            self.notify_apps(ctx, || Msg::ReplicaRestarted { old: old_pid, new });
        }
        self.reassign_buddies(ctx);
    }

    fn scale_up(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(slots) = ReplicaSlots::take(self.cfg.mode, &mut self.spare) else {
            return;
        };
        let queue = self.replicas.len();
        ctx.send(self.driver, Msg::NicGrowQueues { n: queue + 1 });
        self.register_replica(Comps::default());
        self.spawn_into(ctx, queue, &slots.plan());
        if let Some(stack) = self.sockets_head(queue) {
            self.notify_apps(ctx, || Msg::ReplicaAdded { stack });
        }
        self.stats.borrow_mut().scale_ups += 1;
        neat_obs::counter_add("sup.scale_ups", 1);
        if neat_obs::tracing() {
            neat_obs::trace::instant(0, "scale-up", "lifecycle", ctx.now().as_nanos());
        }
        self.reassign_buddies(ctx);
    }

    fn scale_down(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Pick the highest-numbered live, non-terminating replica; never
        // terminate the last one.
        let live: Vec<usize> = self
            .replicas
            .iter()
            .filter(|r| r.alive && !r.terminating)
            .map(|r| r.queue)
            .collect();
        if live.len() <= 1 {
            return;
        }
        let Some(&q) = live.last() else {
            return;
        };
        let head = self.sockets_head(q);
        // Migration target: the victim's ring successor, resolved while
        // the victim is still a ring member.
        let target = self.buddy_head_of(q).filter(|t| Some(*t) != head);
        self.replicas[q].terminating = true;
        // New connections avoid this queue; existing ones keep flowing.
        ctx.send(
            self.driver,
            Msg::NicSetAccepting {
                queue: q,
                accepting: false,
            },
        );
        if let Some(h) = head {
            // Live migration: instead of waiting for every connection to
            // drain, hand the established flows to a surviving replica
            // over the same transfer path failover uses. The victim then
            // drains (now trivially) and is garbage-collected as usual.
            if let Some(t) = target {
                ctx.send(h, Msg::MigrateOut { to: t });
            }
            ctx.send(h, Msg::Terminate);
        }
        self.reassign_buddies(ctx);
    }

    fn gc_drained(&mut self, ctx: &mut Ctx<'_, Msg>, queue: usize) {
        let Some(rec) = self.replicas.get_mut(queue) else {
            return;
        };
        if !rec.terminating || !rec.alive {
            return;
        }
        rec.alive = false;
        let head = rec.comps.sockets_head();
        // In spawn order, so the freed threads line up for the next
        // scale-up the way boot laid them out (TCP's first, then IP's).
        for (_, pid, thread) in std::mem::take(&mut rec.comps).iter() {
            ctx.kill(*pid, false);
            // The freed threads become spare capacity (the paper: "makes
            // the corresponding cores available to the applications").
            if !self.spare.contains(thread) {
                self.spare.push(*thread);
            }
        }
        ctx.send(self.driver, Msg::ReplicaDown { queue });
        rec.assigned = None;
        if let Some(p) = rec.pending_failover.take() {
            ctx.cancel_timer(p.token);
        }
        if let Some(h) = head {
            if self.cfg.replication {
                // Drop any replication state still held for the dead head.
                for (_, other) in self.ring() {
                    ctx.send(other, Msg::ReplForget { owner: h });
                }
                // Report the removal *after* any in-flight `ConnMigrated`
                // (two message hops away): apps must rebind migrated flows
                // before they reap the dead head's remaining handles.
                let margin = Time::from_nanos(200_000);
                for app in self.apps.clone() {
                    ctx.send_delayed(app, Msg::ReplicaRemoved { stack: h }, margin);
                }
                ctx.send_delayed(self.syscall, Msg::ReplicaRemoved { stack: h }, margin);
            } else {
                self.notify_apps(ctx, || Msg::ReplicaRemoved { stack: h });
            }
        }
        self.stats.borrow_mut().scale_downs_completed += 1;
        neat_obs::counter_add("sup.scale_downs", 1);
        if neat_obs::tracing() {
            neat_obs::trace::instant(0, "scale-down", "lifecycle", ctx.now().as_nanos());
        }
    }
}

impl Process<Msg> for Supervisor {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => {
                // Initial buddy-ring assignment (no-op unless replication
                // is enabled in the config).
                self.reassign_buddies(ctx);
            }
            Event::Timer { token } => {
                if let Some(job) = self.jobs.remove(&token) {
                    self.respawn(ctx, job);
                } else if let Some(q) = self.failover_of(token) {
                    if let Some(p) = self.replicas[q].pending_failover.take() {
                        // The handoff never confirmed (e.g. the buddy died
                        // too): fall back to the stateless-recovery report
                        // so apps reap the dead handles.
                        self.stats.borrow_mut().stateful_losses += 1;
                        neat_obs::counter_add("sup.stateful_losses", 1);
                        self.notify_apps(ctx, || Msg::ReplicaRestarted {
                            old: p.old,
                            new: p.new,
                        });
                    }
                }
            }
            Event::Message { msg, .. } => match msg {
                Msg::Crashed { pid, .. } => {
                    self.stats.borrow_mut().crashes_seen += 1;
                    neat_obs::counter_add("sup.crashes_seen", 1);
                    if let Some((queue, role, thread)) = self.find_crashed(pid) {
                        // A crash can race a concurrent scale-down: the
                        // replica is already draining and its connections
                        // died with it — finish the removal instead of
                        // resurrecting a terminating replica.
                        if let Some(q) = queue {
                            if self
                                .replicas
                                .get(q)
                                .is_some_and(|r| r.terminating && r.alive)
                            {
                                self.stale_crash();
                                self.gc_drained(ctx, q);
                                return;
                            }
                        }
                        // If the pipeline head died, tell the driver to
                        // hold (drop) that queue's packets meanwhile.
                        if matches!(role, Role::Pf | Role::Single) {
                            if let Some(q) = queue {
                                ctx.send(self.driver, Msg::ReplicaDown { queue: q });
                            }
                        }
                        self.schedule_respawn(ctx, queue, role, pid, thread);
                    }
                }
                Msg::RegisterApp { app } if !self.apps.contains(&app) => {
                    self.apps.push(app);
                }
                Msg::ScaleUp => self.scale_up(ctx),
                Msg::ScaleDown => self.scale_down(ctx),
                Msg::Drained { queue } => self.gc_drained(ctx, queue),
                Msg::ReplRestored { queue, flows } => {
                    // Re-steer every adopted flow to its (new) queue with
                    // exact-match NIC filters. Idempotent for failover
                    // (same queue as RSS); load-bearing for migration.
                    for flow in &flows {
                        ctx.send(self.driver, Msg::NicAddFilter { flow: *flow, queue });
                    }
                    let rec = self.replicas.get_mut(queue);
                    if let Some(p) = rec.and_then(|r| r.pending_failover.take()) {
                        ctx.cancel_timer(p.token);
                        self.stats.borrow_mut().handoffs_completed += 1;
                        neat_obs::counter_add("sup.handoffs_completed", 1);
                        // Deferred restart report: each app's ConnMigrated
                        // rebinds (sent one hop earlier by the head) land
                        // first, so adopted flows are not reaped as dead.
                        self.notify_apps(ctx, || Msg::ReplicaRestarted {
                            old: p.old,
                            new: p.new,
                        });
                    }
                }
                _ => {}
            },
        }
    }
}
