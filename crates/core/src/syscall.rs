//! The SYSCALL server (§3.1–§3.2).
//!
//! All *blocking* system calls route through this dedicated process; the
//! socket fast path bypasses it, so "as the load grows, the core becomes
//! increasingly idle". Its main structural job in NEaT is listening-socket
//! replication: one `listen()` from an application fans out into one
//! subsocket per stack replica (§3.3).

use crate::msg::Msg;
use neat_sim::{calibration, Ctx, Event, ProcId, Process};
use neat_util::FxHashMap;

/// The SYSCALL server process.
pub struct SyscallProc {
    pub name: String,
    /// Socket-owning head of each live replica (TCP component or
    /// single-component stack).
    replicas: Vec<ProcId>,
    /// In-flight listen replications: port → (app, acks outstanding).
    /// Only probed.
    pending_listen: FxHashMap<u16, (ProcId, usize)>,
    pub calls_served: u64,
}

impl SyscallProc {
    pub fn new(name: impl Into<String>, replicas: Vec<ProcId>) -> SyscallProc {
        SyscallProc {
            name: name.into(),
            replicas,
            pending_listen: FxHashMap::default(),
            calls_served: 0,
        }
    }
}

impl Process<Msg> for SyscallProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        let Event::Message { msg, .. } = ev else {
            return;
        };
        match msg {
            Msg::SysListen { port, app } => {
                ctx.charge(calibration::SYSCALL_SERVER);
                self.calls_served += 1;
                neat_obs::counter_add("sys.calls_served", 1);
                // Replicate the listening socket across all replicas: the
                // library creates "a socket per each replica of the stack,
                // they all listen at the same address" (§3.3).
                self.pending_listen.insert(port, (app, self.replicas.len()));
                for r in self.replicas.clone() {
                    ctx.send(r, Msg::Listen { port, app });
                }
            }
            Msg::ListenOk { port } => {
                if let Some((app, remaining)) = self.pending_listen.get_mut(&port) {
                    *remaining -= 1;
                    if *remaining == 0 {
                        let app = *app;
                        self.pending_listen.remove(&port);
                        ctx.send(app, Msg::SysListenDone { port });
                    }
                }
            }
            Msg::ReplicaRestarted { old, new } => {
                for r in &mut self.replicas {
                    if *r == old {
                        *r = new;
                    }
                }
            }
            Msg::ReplicaAdded { stack } => self.replicas.push(stack),
            Msg::ReplicaRemoved { stack } => self.replicas.retain(|r| *r != stack),
            Msg::Poison => ctx.crash_self(),
            _ => {}
        }
    }
}
