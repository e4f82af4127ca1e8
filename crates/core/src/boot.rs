//! Boot builder: assembles a NEaT deployment on a simulated machine.
//!
//! Brings up, in dependency order, the driver, the stack replicas (made by
//! [`crate::replica`], like every later replica), the SYSCALL server and
//! the supervisor, and hands the supervisor its registry. The NIC device
//! engines come first; application processes are added by the workload
//! crates afterwards.

use crate::config::NeatConfig;
use crate::driver::DriverProc;
use crate::msg::Msg;
use crate::nic_proc::{default_server_nic, NicMode, NicProc};
use crate::replica::{spawn_replica, Comps, ReplicaEnv, ReplicaSlots, Role};
use crate::supervisor::{SupStats, Supervisor};
use crate::syscall::SyscallProc;
use neat_net::MacAddr;
use neat_nic::{FaultInjector, Nic, NicConfig};
use neat_sim::{HwThreadId, MachineId, ProcId, Sim};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Thread assignments for the OS side of the machine.
#[derive(Debug, Clone)]
pub struct NeatSlots {
    /// Supervisor + "all the remaining operating system processes" (§6.3).
    pub os: HwThreadId,
    pub syscall: HwThreadId,
    pub driver: HwThreadId,
    pub replicas: Vec<ReplicaSlots>,
    /// Spare threads the supervisor may use for scale-up.
    pub spare: Vec<HwThreadId>,
}

/// Everything the harness needs to talk to a booted deployment.
pub struct NeatDeployment {
    pub nic: ProcId,
    pub driver: ProcId,
    pub syscall: ProcId,
    pub supervisor: ProcId,
    /// Socket-owning head per replica (TCP comp or single stack).
    pub sockets_heads: Vec<ProcId>,
    /// Boot-time component pids per replica, in spawn order
    /// (fault-injection targets).
    pub comp_pids: Vec<Vec<(Role, ProcId)>>,
    pub sup_stats: Rc<RefCell<SupStats>>,
}

/// Spawn a NIC device engine on `machine`. Returns its pid; wire the peer
/// with [`wire_link`] once both ends exist.
pub fn spawn_nic(
    sim: &mut Sim<Msg>,
    machine: MachineId,
    name: &str,
    queues: usize,
    mode_server: bool,
) -> ProcId {
    let dev = sim.add_device_thread(machine);
    let nic: Nic = if mode_server {
        default_server_nic(queues)
    } else {
        Nic::new(
            NicConfig {
                queue_pairs: 1,
                ..Default::default()
            },
            FaultInjector::disabled(0xC11E27),
        )
    };
    let mode = if mode_server {
        NicMode::Server {
            driver: ProcId(0), // wired later
        }
    } else {
        NicMode::ClientHub
    };
    sim.spawn(dev, Box::new(NicProc::new(name, nic, mode)))
}

/// Connect two NIC processes back-to-back (the 10GbE DAC cable).
pub fn wire_link(sim: &mut Sim<Msg>, a: ProcId, b: ProcId) {
    sim.send_external(
        a,
        Msg::SetNeighbor {
            role: Role::PeerNic,
            pid: b,
        },
    );
    sim.send_external(
        b,
        Msg::SetNeighbor {
            role: Role::PeerNic,
            pid: a,
        },
    );
}

/// Boot a full NEaT deployment. The server NIC must already exist.
pub fn boot_neat(
    sim: &mut Sim<Msg>,
    cfg: NeatConfig,
    slots: NeatSlots,
    nic: ProcId,
    arp_seed: Vec<(Ipv4Addr, MacAddr)>,
) -> NeatDeployment {
    assert_eq!(
        slots.replicas.len(),
        cfg.replicas,
        "slot count must match replica count"
    );
    // --- driver ---
    let driver = sim.spawn(
        slots.driver,
        Box::new(DriverProc::new("drv", nic, cfg.replicas)),
    );
    sim.send_external(
        nic,
        Msg::SetNeighbor {
            role: Role::Driver,
            pid: driver,
        },
    );

    // --- replicas ---
    // The supervisor is spawned last (it takes the finished registry), so
    // boot-time components are built with no supervisor pid; the heads,
    // the only components that report to it, are told below.
    let env = ReplicaEnv {
        cfg: &cfg,
        arp_seed: &arp_seed,
        driver,
        supervisor: ProcId(0),
    };
    let mut registry: Vec<Comps> = Vec::new();
    for (q, rslot) in slots.replicas.iter().enumerate() {
        let mut comps = Comps::default();
        spawn_replica(
            sim,
            Sim::spawn,
            Sim::send_external,
            &env,
            q,
            &rslot.plan(),
            &mut comps,
        );
        registry.push(comps);
    }
    let sockets_heads: Vec<ProcId> = registry.iter().filter_map(Comps::sockets_head).collect();
    let pids = |c: &Comps| c.iter().map(|&(role, pid, _)| (role, pid)).collect();
    let comp_pids = registry.iter().map(pids).collect();

    // --- SYSCALL server ---
    let syscall = sim.spawn(
        slots.syscall,
        Box::new(SyscallProc::new("syscall", sockets_heads.clone())),
    );

    // --- supervisor (crash monitor) ---
    let sup_stats = Rc::new(RefCell::new(SupStats::default()));
    let mut sup = Supervisor::new(
        "os.supervisor",
        cfg,
        arp_seed,
        nic,
        driver,
        slots.driver,
        syscall,
        slots.spare.clone(),
        sup_stats.clone(),
    );
    for comps in registry {
        sup.register_replica(comps);
    }
    let supervisor = sim.spawn(slots.os, Box::new(sup));
    sim.set_crash_monitor(supervisor, |pid, name| Msg::Crashed {
        pid,
        name: name.to_string(),
    });
    for &head in &sockets_heads {
        sim.send_external(
            head,
            Msg::SetNeighbor {
                role: Role::Supervisor,
                pid: supervisor,
            },
        );
    }

    NeatDeployment {
        nic,
        driver,
        syscall,
        supervisor,
        sockets_heads,
        comp_pids,
        sup_stats,
    }
}
