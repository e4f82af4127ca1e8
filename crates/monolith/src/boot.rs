//! Boot builder for the monolithic baseline.

use crate::ctx_proc::{KernelCtxProc, MonoIrqProc};
use crate::shared::MonoShared;
use crate::tuning::MonoTuning;
use neat::msg::Msg;
use neat::netcode::FrameIo;
use neat_net::MacAddr;
use neat_sim::{HwThreadId, ProcId, Sim};
use neat_tcp::TcpConfig;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// A booted monolithic deployment.
pub struct MonoDeployment {
    /// Kernel context per hardware thread used.
    pub ctxs: Vec<ProcId>,
    pub irq: ProcId,
    /// The canonical "kernel" pid used in connection handles.
    pub canonical: ProcId,
    pub shared: Rc<RefCell<MonoShared>>,
    pub tuning: MonoTuning,
}

/// Boot the shared-kernel stack with one kernel context per entry of
/// `threads` (the same hardware threads also run the server processes —
/// the monolith does not dedicate cores to the stack).
#[allow(clippy::too_many_arguments)]
pub fn boot_monolith(
    sim: &mut Sim<Msg>,
    threads: &[HwThreadId],
    nic: ProcId,
    ip: Ipv4Addr,
    mac: MacAddr,
    tcp: TcpConfig,
    tuning: MonoTuning,
    arp_seed: Vec<(Ipv4Addr, MacAddr)>,
    base_port: u16,
    hw_factor: f64,
) -> MonoDeployment {
    let shared = Rc::new(RefCell::new(MonoShared::new(
        ip,
        tcp,
        tuning.clone(),
        threads.len(),
    )));
    shared.borrow_mut().hw_factor = hw_factor;
    let io = Rc::new(RefCell::new({
        let mut io = FrameIo::new(ip, mac);
        for (a, m) in arp_seed {
            io.seed_arp(a, m);
        }
        io
    }));
    let mut ctxs = Vec::new();
    for (i, t) in threads.iter().enumerate() {
        let proc = KernelCtxProc::new(format!("kctx.{i}"), i, shared.clone(), io.clone(), nic);
        ctxs.push(sim.spawn(*t, Box::new(proc)));
    }
    shared.borrow_mut().canonical = ctxs[0];
    // IRQ fanout on a device thread of the same machine as the first ctx.
    let machine = {
        // Device threads only need the machine id; derive from the NIC's
        // machine via a fresh device thread.
        sim.machine_of_thread(threads[0])
    };
    let dev = sim.add_device_thread(machine);
    let irq = sim.spawn(
        dev,
        Box::new(MonoIrqProc::new(
            "irq-fabric",
            ctxs.clone(),
            tuning.flow_aligned(),
            tuning.irq_affinity,
            base_port,
        )),
    );
    // The NIC hands received frames to the IRQ fabric.
    sim.send_external(
        nic,
        Msg::SetNeighbor {
            role: neat::replica::Role::Driver,
            pid: irq,
        },
    );
    let canonical = shared.borrow().canonical;
    MonoDeployment {
        ctxs,
        irq,
        canonical,
        shared,
        tuning,
    }
}
