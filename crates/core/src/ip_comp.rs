//! The IP component of the multi-component replica (§3.7, Figure 3).
//!
//! Owns link/ARP/ICMP state and IPv4 validation/encapsulation. Mostly
//! read-only state (the ARP cache is reconstructible), so its crash
//! recovery is application-transparent (Table 3).

use crate::netcode::{FrameIo, RxClass};
use crate::{msg::Msg, replica::Role};
use neat_net::ethernet::MacAddr;
use neat_net::ipv4::IpProtocol;
use neat_sim::{calibration, Ctx, Event, ProcId, Process};
use std::net::Ipv4Addr;

/// The IP process.
pub struct IpProc {
    pub name: String,
    pub queue: usize,
    driver: ProcId,
    tcp: Option<ProcId>,
    udp: Option<ProcId>,
    io: FrameIo,
}

impl IpProc {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        queue: usize,
        driver: ProcId,
        tcp: Option<ProcId>,
        udp: Option<ProcId>,
        ip: Ipv4Addr,
        mac: MacAddr,
        arp_seed: Vec<(Ipv4Addr, MacAddr)>,
    ) -> IpProc {
        let mut io = FrameIo::new(ip, mac);
        for (a, m) in arp_seed {
            io.seed_arp(a, m);
        }
        IpProc {
            name: name.into(),
            queue,
            driver,
            tcp,
            udp,
            io,
        }
    }

    fn drain_wire(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for frame in self.io.drain_out() {
            ctx.send(self.driver, Msg::NetTx(frame));
        }
    }
}

impl Process<Msg> for IpProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start | Event::Timer { .. } => {}
            Event::Message { msg, .. } => match msg {
                Msg::PfPass(frame) | Msg::NetRx(frame) => {
                    ctx.charge(calibration::IP_RX_PKT);
                    if !neat_net::pktbuf::pooling() {
                        // Copy-charge ablation: without views the header
                        // strip copies the L4 payload out of the frame.
                        ctx.charge(calibration::copy_cost(frame.len()));
                    }
                    let now = ctx.now().as_nanos();
                    match self.io.classify_rx(&frame, now) {
                        RxClass::Tcp { src, seg } => {
                            if let Some(tcp) = self.tcp {
                                ctx.send(tcp, Msg::IpRxTcp { src, seg });
                            }
                        }
                        RxClass::Udp { src, dgram } => {
                            if let Some(udp) = self.udp {
                                ctx.send(udp, Msg::IpRxUdp { src, dgram });
                            }
                        }
                        RxClass::Icmp { .. } | RxClass::Arp | RxClass::Dropped => {}
                    }
                    self.drain_wire(ctx);
                }
                Msg::IpTx {
                    dst,
                    protocol,
                    payload,
                } => {
                    ctx.charge(calibration::IP_TX_PKT);
                    let now = ctx.now().as_nanos();
                    self.io
                        .send_ip(dst, IpProtocol::from(protocol), &payload, now);
                    self.drain_wire(ctx);
                }
                Msg::SetNeighbor { role, pid } => match role {
                    Role::Tcp => self.tcp = Some(pid),
                    Role::Udp => self.udp = Some(pid),
                    Role::Driver => self.driver = pid,
                    _ => {}
                },
                Msg::Poison => ctx.crash_self(),
                _ => {}
            },
        }
    }
}
