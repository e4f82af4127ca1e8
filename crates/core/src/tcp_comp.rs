//! The TCP component of the multi-component replica (§3.7, Figure 3).
//!
//! The only component with "significant per-connection read/write state,
//! read/write control state, and in-flight data" (§6.6) — which is why only
//! TCP faults cause visible state loss in the fault-injection experiments.

use crate::stack_host::{StackHost, WireSink};
use crate::{msg::Msg, replica::Role};
use neat_sim::{Ctx, Event, ProcId, Process};
use std::net::Ipv4Addr;

/// Below TCP in this replica shape: the replica's IP process.
struct IpWire {
    ip: Option<ProcId>,
}

impl WireSink for IpWire {
    fn tx_segment(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        dst: Ipv4Addr,
        seg: &mut Vec<u8>,
    ) -> Option<Vec<u8>> {
        if let Some(ip) = self.ip {
            ctx.send(
                ip,
                Msg::IpTx {
                    dst,
                    protocol: 6,
                    payload: std::mem::take(seg),
                },
            );
        }
        None
    }
}

/// The TCP process.
pub struct TcpProc {
    pub name: String,
    host: StackHost,
    wire: IpWire,
}

impl TcpProc {
    pub fn new(
        name: impl Into<String>,
        queue: usize,
        supervisor: ProcId,
        ip: Option<ProcId>,
        local_ip: Ipv4Addr,
        cfg: &crate::config::NeatConfig,
    ) -> TcpProc {
        TcpProc {
            name: name.into(),
            host: StackHost::new(queue, supervisor, local_ip, cfg),
            wire: IpWire { ip },
        }
    }
}

impl Process<Msg> for TcpProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => self.host.on_start(ctx),
            Event::Timer { .. } => self.host.on_timer(ctx, &mut self.wire),
            Event::Message { from, msg } => match msg {
                Msg::IpRxTcp { src, seg } => {
                    self.host.rx_segment(ctx, src, &seg);
                    self.host.owe_flush();
                }
                Msg::SetNeighbor {
                    role: Role::Ip,
                    pid,
                } => self.wire.ip = Some(pid),
                Msg::Poison => ctx.crash_self(),
                // Everything above the wire is the host's.
                other => self.host.on_msg(ctx, from, other, &mut self.wire),
            },
        }
    }

    fn settle(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.host.settle(ctx, &mut self.wire);
    }
}
