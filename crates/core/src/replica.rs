//! How a stack replica is made — the only place that knows.
//!
//! A replica is *just a process set started again*: boot, scale-up (§3.4)
//! and crash recovery (§3.6) are the same operation at different times, so
//! all three call [`spawn_replica`]. Two facts define it: the **spawn
//! order** of a shape ([`ReplicaSlots::plan`]) — a component is built with
//! the pids of everything spawned before it — and the **rewire table**
//! (`told_about`) — who is sent `SetNeighbor` because it was built before
//! the new process existed. Callers differ only in how they spawn and send
//! (harness vs. supervisor context) and in their [`ReplicaEnv`].

use crate::config::{NeatConfig, StackMode};
use crate::ip_comp::IpProc;
use crate::msg::Msg;
use crate::pf_comp::PfProc;
use crate::stack_single::SingleStackProc;
use crate::tcp_comp::TcpProc;
use crate::udp_comp::UdpProc;
use neat_net::MacAddr;
use neat_sim::{HwThreadId, ProcId, Process};
use std::net::Ipv4Addr;

/// The one role vocabulary: a replica's components plus the fixed processes
/// they are wired to. `Msg::SetNeighbor { role, pid }`: the new `role` is `pid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The whole stack in one process (single-component replica).
    Single,
    /// The packet filter ahead of IP.
    Pf,
    Ip,
    Tcp,
    Udp,
    /// The driver a component transmits through.
    Driver,
    /// The NIC at the other end of the link (device wiring).
    PeerNic,
    /// The supervisor / reincarnation server.
    Supervisor,
}

/// Hardware-thread assignments for one replica; also its shape.
#[derive(Debug, Clone, Copy)]
pub enum ReplicaSlots {
    /// Single-component: the whole stack on one thread.
    Single(HwThreadId),
    /// Multi-component: TCP on its own thread; IP (plus the colocated PF
    /// and UDP processes) on another — matching the paper's layouts where
    /// only TCP and IP get dedicated cores (Figure 6a).
    Multi { tcp: HwThreadId, ip: HwThreadId },
}

impl ReplicaSlots {
    /// Threads for one more replica of shape `mode`, taken off the front
    /// of `spare`; `None` (and `spare` untouched) when too few are left.
    pub fn take(mode: StackMode, spare: &mut Vec<HwThreadId>) -> Option<ReplicaSlots> {
        match mode {
            StackMode::Single if !spare.is_empty() => Some(ReplicaSlots::Single(spare.remove(0))),
            StackMode::Multi if spare.len() >= 2 => Some(ReplicaSlots::Multi {
                tcp: spare.remove(0),
                ip: spare.remove(0),
            }),
            _ => None, // no cores left — the paper's hard resource wall
        }
    }

    /// Spawn order of this shape, with the thread each component runs on.
    /// TCP and UDP come before IP so IP is built knowing both.
    pub fn plan(self) -> Vec<(Role, HwThreadId)> {
        match self {
            ReplicaSlots::Single(t) => vec![(Role::Single, t)],
            ReplicaSlots::Multi { tcp, ip } => vec![
                (Role::Tcp, tcp),
                (Role::Udp, ip),
                (Role::Ip, ip),
                (Role::Pf, ip),
            ],
        }
    }
}

/// The live components of one replica, `(role, pid, thread)` in spawn order
/// — so whatever walks a replica (kill and thread release, crash lookup,
/// driver re-announce) is deterministic, never hash-ordered.
#[derive(Debug, Default)]
pub struct Comps(Vec<(Role, ProcId, HwThreadId)>);

impl Comps {
    pub fn pid(&self, role: Role) -> Option<ProcId> {
        self.iter().find(|c| c.0 == role).map(|c| c.1)
    }

    /// `role` is now `pid`: in place for a respawn, appended otherwise.
    fn set(&mut self, role: Role, pid: ProcId, thread: HwThreadId) {
        match self.0.iter_mut().find(|c| c.0 == role) {
            Some(c) => *c = (role, pid, thread),
            None => self.0.push((role, pid, thread)),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &(Role, ProcId, HwThreadId)> {
        self.0.iter()
    }

    /// The socket-owning head (TCP component or single stack).
    pub fn sockets_head(&self) -> Option<ProcId> {
        self.pid(Role::Tcp).or_else(|| self.pid(Role::Single))
    }
}

/// What a component is built from besides its in-replica neighbours.
pub struct ReplicaEnv<'a> {
    pub cfg: &'a NeatConfig,
    pub arp_seed: &'a [(Ipv4Addr, MacAddr)],
    pub driver: ProcId,
    pub supervisor: ProcId,
}

/// The constructor table: a fresh `role` process for replica `q`,
/// wired to whichever of its neighbours `comps` already holds.
fn component(env: &ReplicaEnv<'_>, q: usize, role: Role, comps: &Comps) -> Box<dyn Process<Msg>> {
    let cfg = env.cfg;
    let ip = comps.pid(Role::Ip);
    match role {
        Role::Single => Box::new(SingleStackProc::new(
            format!("neat.{q}"),
            q,
            env.driver,
            env.supervisor,
            cfg.ip,
            cfg.mac,
            cfg,
            env.arp_seed.to_vec(),
        )),
        Role::Tcp => Box::new(TcpProc::new(
            format!("tcp.{q}"),
            q,
            env.supervisor,
            ip,
            cfg.ip,
            cfg,
        )),
        Role::Udp => Box::new(UdpProc::new(format!("udp.{q}"), q, ip, cfg.ip)),
        Role::Ip => Box::new(IpProc::new(
            format!("ip.{q}"),
            q,
            env.driver,
            comps.pid(Role::Tcp),
            comps.pid(Role::Udp),
            cfg.ip,
            cfg.mac,
            env.arp_seed.to_vec(),
        )),
        // PF announces itself to the driver on Start.
        Role::Pf => Box::new(PfProc::new(format!("pf.{q}"), q, env.driver, ip)),
        _ => panic!("{role:?} is not a replica component"),
    }
}

/// The rewire table: who holds a new `role`'s pid but was built before it.
fn told_about(role: Role) -> &'static [Role] {
    match role {
        Role::Tcp | Role::Udp => &[Role::Ip],
        Role::Ip => &[Role::Pf, Role::Tcp, Role::Udp],
        _ => &[],
    }
}

/// Spawn `plan`'s components for replica `queue` in order — a whole
/// [`ReplicaSlots::plan`] at boot and scale-up, the one crashed role at
/// recovery — record them in `comps`, then send the rewires. `spawn` and
/// `send` are the caller's way on its `fabric`: `Sim::{spawn, send_external}`
/// at boot, `Ctx::{spawn (after the spawn delay), send}` in the supervisor.
pub fn spawn_replica<F>(
    fabric: &mut F,
    spawn: impl Fn(&mut F, HwThreadId, Box<dyn Process<Msg>>) -> ProcId,
    send: impl Fn(&mut F, ProcId, Msg),
    env: &ReplicaEnv<'_>,
    queue: usize,
    plan: &[(Role, HwThreadId)],
    comps: &mut Comps,
) {
    let mut rewires = Vec::new();
    for &(role, thread) in plan {
        let pid = spawn(fabric, thread, component(env, queue, role, comps));
        comps.set(role, pid, thread);
        for to in told_about(role).iter().filter_map(|r| comps.pid(*r)) {
            rewires.push((to, Msg::SetNeighbor { role, pid }));
        }
    }
    for (to, msg) in rewires {
        send(fabric, to, msg);
    }
}
