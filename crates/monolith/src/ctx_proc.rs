//! Per-core kernel contexts and the IRQ fan-out of the monolithic stack.
//!
//! A [`KernelCtxProc`] is "the kernel as seen from one core": it executes
//! softirq work for packets steered to its core and syscall work for the
//! application pinned there — all against the *shared* kernel state, paying
//! the contention taxes. A [`MonoIrqProc`] models the interrupt routing
//! fabric: it places each received frame on the core its queue is bound to
//! (IRQ affinity) or wherever irqbalance happens to point (defaults).

use crate::shared::{MonoShared, MONO_VFS_PER_OP};
use neat::msg::Msg;
use neat::netcode::RxClass;
use neat::stack_host::{follow_deadline, TimerFires};
use neat_sim::{calibration, Ctx, Event, ProcId, Process};
use std::cell::RefCell;
use std::rc::Rc;

/// One per-core kernel context.
pub struct KernelCtxProc {
    pub name: String,
    pub idx: usize,
    shared: Rc<RefCell<MonoShared>>,
    /// Shared link/ARP state (also kernel-owned).
    io: Rc<RefCell<neat::netcode::FrameIo>>,
    nic: ProcId,
    /// The deadline the one pending stack timer stands for (context 0).
    timer: Option<u64>,
    timer_fires: TimerFires,
    obs: MonoObs,
}

/// Metrics-registry handles for the monolith's kernel-context work. All
/// contexts share the same registry entries (aggregate view across cores).
#[derive(Clone, Copy)]
struct MonoObs {
    softirq_rx: neat_obs::Counter,
    syscalls: neat_obs::Counter,
}

impl MonoObs {
    fn new() -> MonoObs {
        MonoObs {
            softirq_rx: neat_obs::counter("mono.softirq_rx"),
            syscalls: neat_obs::counter("mono.syscalls"),
        }
    }
}

impl KernelCtxProc {
    pub fn new(
        name: impl Into<String>,
        idx: usize,
        shared: Rc<RefCell<MonoShared>>,
        io: Rc<RefCell<neat::netcode::FrameIo>>,
        nic: ProcId,
    ) -> KernelCtxProc {
        KernelCtxProc {
            name: name.into(),
            idx,
            shared,
            io,
            nic,
            timer: None,
            timer_fires: TimerFires::new("mono"),
            obs: MonoObs::new(),
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().as_nanos();
        let mut sh = self.shared.borrow_mut();
        let canonical = sh.canonical;
        let (opened, closed) = sh.sock.process_events(canonical);
        ctx.charge(opened as u64 * calibration::TCP_OPEN + closed as u64 * calibration::TCP_CLOSE);
        let per_seg = calibration::TCP_TX_SEG
            + calibration::IP_TX_PKT
            + sh.scaled(
                calibration::MONO_STACK_TX_OVERHEAD
                    + calibration::MONO_SKB_PER_PKT
                    + MONO_VFS_PER_OP / 2,
            );
        let mut io = self.io.borrow_mut();
        io.send_tcp(&mut sh.sock.stack, now, || ctx.charge(per_seg));
        for frame in io.drain_out() {
            ctx.send(self.nic, Msg::NetTx(frame));
        }
        drop(io);
        let msgs = sh.sock.take_app_msgs();
        for (app, msg) in msgs {
            ctx.charge(calibration::SOCK_OP + sh.wrong_core_penalty(self.idx, app));
            ctx.send(app, msg);
        }
        // One context owns the kernel's timer wheel.
        if self.idx == 0 {
            follow_deadline(ctx, &mut self.timer, sh.sock.next_timeout(), 0);
        }
    }
}

impl Process<Msg> for KernelCtxProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => {}
            Event::Timer { .. } => {
                self.timer = None;
                let now = ctx.now().as_nanos();
                let mut sh = self.shared.borrow_mut();
                self.timer_fires.record(sh.sock.next_timeout(), now);
                sh.sock.on_timer(now);
                drop(sh);
                self.flush(ctx);
            }
            Event::Message { from, msg } => match msg {
                Msg::NetRx(frame) => {
                    self.obs.softirq_rx.inc();
                    let now = ctx.now().as_nanos();
                    let (tax, skb) = {
                        let mut sh = self.shared.borrow_mut();
                        let t = sh.kernel_entry(self.idx, now, 1);
                        let s = sh.scaled(
                            calibration::MONO_STACK_RX_OVERHEAD + calibration::MONO_SKB_PER_PKT,
                        );
                        (t, s)
                    };
                    ctx.charge(tax + skb + calibration::IP_RX_PKT);
                    let class = self.io.borrow_mut().classify_rx(&frame, now);
                    if let RxClass::Tcp { src, seg } = class {
                        let vfs = self.shared.borrow().scaled(MONO_VFS_PER_OP / 2);
                        ctx.charge(calibration::TCP_RX_SEG + vfs);
                        self.shared.borrow_mut().sock.rx_segment(src, &seg, now);
                    }
                    self.flush(ctx);
                }
                m if m.is_sock_op() => {
                    self.obs.syscalls.inc();
                    let now = ctx.now().as_nanos();
                    // Syscall path: boundary crossing + VFS + locks.
                    let mut sh = self.shared.borrow_mut();
                    let tax = sh.kernel_entry(self.idx, now, 1);
                    let vfs = sh.scaled(MONO_VFS_PER_OP);
                    ctx.charge(calibration::MONO_SYSCALL + vfs + tax);
                    if let Msg::Listen { app, .. } = &m {
                        // The listener's application lives on this core.
                        sh.app_ctx.insert(*app, self.idx);
                    }
                    let ops = sh.sock.handle_app(from, m, now);
                    ctx.charge(ops as u64 * calibration::SOCK_OP);
                    drop(sh);
                    self.flush(ctx);
                }
                Msg::Poison => ctx.crash_self(),
                _ => {}
            },
        }
    }
}

/// The interrupt routing fabric (device engine): steers each queue's
/// frames to a kernel context per the tuning's affinity policy.
pub struct MonoIrqProc {
    pub name: String,
    ctxs: Vec<ProcId>,
    /// Flow-aligned steering (rxAff + serv): route by destination port so
    /// a connection's packets hit its server's core.
    aligned: bool,
    base_port: u16,
    /// irqbalance churn when affinity is off: rotating assignment.
    rr: usize,
    irq_affinity: bool,
}

impl MonoIrqProc {
    pub fn new(
        name: impl Into<String>,
        ctxs: Vec<ProcId>,
        aligned: bool,
        irq_affinity: bool,
        base_port: u16,
    ) -> MonoIrqProc {
        MonoIrqProc {
            name: name.into(),
            ctxs,
            aligned,
            base_port,
            rr: 0,
            irq_affinity,
        }
    }

    fn route(&mut self, frame: &[u8], queue: usize) -> ProcId {
        let n = self.ctxs.len();
        if self.aligned {
            if let Some(flow) = neat_nic::Steering::parse_flow(frame) {
                let idx = (flow.key.dst_port.wrapping_sub(self.base_port)) as usize % n;
                return self.ctxs[idx];
            }
        }
        if self.irq_affinity {
            self.ctxs[queue % n]
        } else {
            // irqbalance: interrupts wander between cores.
            self.rr = (self.rr + 1) % n;
            self.ctxs[self.rr]
        }
    }
}

impl Process<Msg> for MonoIrqProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        if let Event::Message {
            msg: Msg::RxFrame { queue, frame },
            ..
        } = ev
        {
            let dst = self.route(&frame, queue);
            ctx.send(dst, Msg::NetRx(frame));
        }
    }
}
