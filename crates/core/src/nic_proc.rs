//! The NIC as a simulated device engine.
//!
//! One `NicProc` per machine, pinned to a *device* thread (it models the
//! hardware pipeline, not a CPU). Two personalities:
//!
//! * **Server mode** — the 82599 serving NEaT: inbound wire frames are
//!   classified (RSS + filters) to the queue of the owning replica and
//!   handed to the NIC driver process; outbound host frames are
//!   TSO-segmented and serialized onto the link at 10 Gb/s.
//! * **Client-hub mode** — the load generator's NIC: it learns which
//!   httperf process owns which local port from outbound traffic and
//!   steers responses straight back to it (the "connection tracking"
//!   extension §4 argues NICs should offer; acceptable here because the
//!   client machine is harness, not the system under test).

use crate::msg::Msg;
use neat_net::PktBuf;
use neat_nic::Nic;
use neat_sim::{calibration, Ctx, Event, ProcId, Process};
use neat_util::FxHashMap;

/// Which machine role this NIC plays.
pub enum NicMode {
    /// Steer to queues and notify the driver process.
    Server { driver: ProcId },
    /// Learn port→process from TX; deliver RX directly to app stacks.
    ClientHub,
}

/// The NIC device process.
pub struct NicProc {
    pub name: String,
    nic: Nic,
    mode: NicMode,
    /// The NIC at the other end of the cable.
    peer: Option<ProcId>,
    /// Client-hub: local port → owning process. Only probed.
    port_owner: FxHashMap<u16, ProcId>,
    /// Client-hub: processes registered for default/ARP traffic.
    default_owner: Option<ProcId>,
}

impl NicProc {
    pub fn new(name: impl Into<String>, nic: Nic, mode: NicMode) -> NicProc {
        NicProc {
            name: name.into(),
            nic,
            mode,
            peer: None,
            port_owner: FxHashMap::default(),
            default_owner: None,
        }
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_, Msg>, frame: PktBuf) {
        let Some(peer) = self.peer else { return };
        let latency = self.nic.link_latency();
        self.nic.host_tx_each(frame, |wire_frame, ser_time| {
            // Serialization occupies the device pipeline — this is the
            // 10 Gb/s ceiling of Figures 4-5.
            ctx.charge_ns(ser_time.as_nanos());
            ctx.send_delayed(peer, Msg::WireFrame(wire_frame), latency);
        });
    }

    fn receive(&mut self, ctx: &mut Ctx<'_, Msg>, frame: PktBuf) {
        ctx.charge_ns(calibration::NIC_DESC_NS);
        let now = ctx.now().as_nanos();
        match &self.mode {
            NicMode::Server { driver } => {
                let driver = *driver;
                if let Some(queue) = self.nic.wire_rx(frame, now) {
                    // The frame is in the ring; hand it to the driver.
                    if let Some(f) = self.nic.rx_pop(queue) {
                        ctx.send(driver, Msg::RxFrame { queue, frame: f });
                    }
                }
            }
            NicMode::ClientHub => {
                // Steer by destination port to the owning client process.
                let owner = neat_nic::Steering::parse_flow(&frame)
                    .and_then(|f| self.port_owner.get(&f.key.dst_port).copied())
                    .or(self.default_owner);
                if let Some(pid) = owner {
                    ctx.send(pid, Msg::NetRx(frame));
                }
            }
        }
    }
}

impl Process<Msg> for NicProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn dispatch_cost(&self) -> u64 {
        0 // device pipeline costs are charged explicitly in ns
    }

    fn on_batch(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcId, msgs: &mut Vec<Msg>) {
        // A coalesced run of wire frames: push them all into the RX rings,
        // then drain each touched queue once — one descriptor-ring pass
        // per batch instead of one per frame.
        if let NicMode::Server { driver } = &self.mode {
            let driver = *driver;
            if msgs.iter().all(|m| matches!(m, Msg::WireFrame(_))) {
                let now = ctx.now().as_nanos();
                let mut touched: Vec<usize> = Vec::new();
                for msg in msgs.drain(..) {
                    let Msg::WireFrame(frame) = msg else { continue };
                    ctx.charge_ns(calibration::NIC_DESC_NS);
                    if let Some(q) = self.nic.wire_rx(frame, now) {
                        if !touched.contains(&q) {
                            touched.push(q);
                        }
                    }
                }
                for q in touched {
                    for f in self.nic.rx_pop_batch(q, usize::MAX) {
                        ctx.send(driver, Msg::RxFrame { queue: q, frame: f });
                    }
                }
                return;
            }
        }
        for msg in msgs.drain(..) {
            self.on_event(ctx, Event::Message { from, msg });
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => {}
            Event::Timer { .. } => {}
            Event::Message { from, msg } => match msg {
                Msg::WireFrame(frame) => self.receive(ctx, frame),
                Msg::HostTx(frame) => self.transmit(ctx, frame),
                Msg::NetTx(frame) => {
                    // Client-hub: learn the sender's ports from its flows.
                    if matches!(self.mode, NicMode::ClientHub) {
                        if let Some(f) = neat_nic::Steering::parse_flow(&frame) {
                            self.port_owner.insert(f.key.src_port, from);
                        }
                    }
                    self.transmit(ctx, frame);
                }
                Msg::Announce { head, .. } => {
                    // Client-hub registration (first becomes ARP handler).
                    self.default_owner.get_or_insert(head);
                }
                Msg::SetNeighbor { role, pid } => match role {
                    crate::replica::Role::PeerNic => self.peer = Some(pid),
                    crate::replica::Role::Driver => {
                        if let NicMode::Server { driver } = &mut self.mode {
                            *driver = pid;
                        }
                    }
                    _ => {}
                },
                Msg::NicAddFilter { flow, queue } => {
                    self.nic.add_filter(flow, queue);
                }
                Msg::NicSetAccepting { queue, accepting } => {
                    self.nic.set_queue_accepting(queue, accepting);
                }
                Msg::NicGrowQueues { n } => {
                    self.nic.grow_queues(n);
                }
                Msg::NicSetTracking { on } => {
                    self.nic.set_tracking(on);
                }
                _ => {}
            },
        }
    }
}

/// Build the default server NIC hardware with `queues` queue pairs.
pub fn default_server_nic(queues: usize) -> Nic {
    Nic::new(
        neat_nic::NicConfig {
            queue_pairs: queues,
            ..Default::default()
        },
        neat_nic::FaultInjector::disabled(0x11C_0FF),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_nic_queue_count() {
        let nic = default_server_nic(3);
        assert_eq!(nic.num_queues(), 3);
    }
}
