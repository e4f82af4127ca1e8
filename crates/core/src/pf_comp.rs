//! The packet-filter component of the multi-component replica (§3.7).
//!
//! First in the ingress pipeline: it is the process that announces the
//! replica to the driver, charges each inbound frame one filter pass
//! (`PF_PKT`), and forwards it to the IP component. Stateless — a crash
//! loses nothing but in-flight frames, so its recovery is fully
//! transparent (Table 3).

use crate::{msg::Msg, replica::Role};
use neat_sim::{calibration, Ctx, Event, ProcId, Process};

/// The packet-filter process.
pub struct PfProc {
    pub name: String,
    pub queue: usize,
    driver: ProcId,
    ip: Option<ProcId>,
}

impl PfProc {
    pub fn new(
        name: impl Into<String>,
        queue: usize,
        driver: ProcId,
        ip: Option<ProcId>,
    ) -> PfProc {
        PfProc {
            name: name.into(),
            queue,
            driver,
            ip,
        }
    }
}

impl Process<Msg> for PfProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => {
                ctx.send(
                    self.driver,
                    Msg::Announce {
                        queue: self.queue,
                        head: ctx.self_id,
                    },
                );
            }
            Event::Timer { .. } => {}
            Event::Message { msg, .. } => match msg {
                Msg::NetRx(frame) => {
                    ctx.charge(calibration::PF_PKT);
                    if let Some(ip) = self.ip {
                        ctx.send(ip, Msg::NetRx(frame));
                    }
                }
                Msg::SetNeighbor { role, pid } => match role {
                    Role::Ip => self.ip = Some(pid),
                    Role::Driver => self.driver = pid,
                    _ => {}
                },
                Msg::Poison => ctx.crash_self(),
                _ => {}
            },
        }
    }
}
