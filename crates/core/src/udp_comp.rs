//! The UDP layer, and the UDP component of the multi-component replica
//! (§3.7).
//!
//! "Excluding TCP, the other components are essentially stateless (or
//! pseudostateless)" — UDP keeps only the bind table, which applications
//! re-establish after a restart, so recovery is transparent (Table 3).

use crate::{msg::Msg, replica::Role};
use neat_net::icmp::{IcmpMessage, PORT_UNREACHABLE};
use neat_net::udp::UdpHeader;
use neat_sim::{calibration, Ctx, Event, ProcId, Process};
use neat_util::FxHashMap;
use std::net::Ipv4Addr;

/// UDP itself, embedded by both replica shapes: the bind table and the
/// datagram parse/emit. The embedding process charges the CPU cost and
/// carries the returned bytes to IP its own way.
pub(crate) struct Udp {
    local_ip: Ipv4Addr,
    /// Port → bound application. Only probed.
    binds: FxHashMap<u16, ProcId>,
}

impl Udp {
    pub(crate) fn new(local_ip: Ipv4Addr) -> Udp {
        Udp {
            local_ip,
            binds: FxHashMap::default(),
        }
    }

    pub(crate) fn bind(&mut self, port: u16, app: ProcId) {
        self.binds.insert(port, app);
    }

    /// Deliver one inbound datagram to the app bound to its port. With no
    /// app bound, returns the ICMP port-unreachable (RFC 1122) to send
    /// back to `src`.
    pub(crate) fn rx(
        &self,
        ctx: &mut Ctx<'_, Msg>,
        src: Ipv4Addr,
        dgram: &[u8],
    ) -> Option<Vec<u8>> {
        let (h, range) = UdpHeader::parse(dgram, src, self.local_ip).ok()?;
        let Some(&app) = self.binds.get(&h.dst_port) else {
            let icmp = IcmpMessage::DestUnreachable {
                code: PORT_UNREACHABLE,
                original: dgram[..dgram.len().min(28)].to_vec(),
            };
            return Some(icmp.emit());
        };
        ctx.send(
            app,
            Msg::UdpData {
                port: h.dst_port,
                src: (src, h.src_port),
                data: dgram[range].to_vec(),
            },
        );
        None
    }

    /// The datagram to hand to IP for `dst`.
    pub(crate) fn tx(&self, src_port: u16, dst: (Ipv4Addr, u16), data: &[u8]) -> Vec<u8> {
        UdpHeader::emit(src_port, dst.1, data, self.local_ip, dst.0)
    }
}

/// The UDP process.
pub struct UdpProc {
    pub name: String,
    pub queue: usize,
    ip_comp: Option<ProcId>,
    udp: Udp,
}

impl UdpProc {
    pub fn new(
        name: impl Into<String>,
        queue: usize,
        ip_comp: Option<ProcId>,
        local_ip: Ipv4Addr,
    ) -> UdpProc {
        UdpProc {
            name: name.into(),
            queue,
            ip_comp,
            udp: Udp::new(local_ip),
        }
    }

    fn ip_tx(&self, ctx: &mut Ctx<'_, Msg>, dst: Ipv4Addr, protocol: u8, payload: Vec<u8>) {
        if let Some(ip) = self.ip_comp {
            ctx.send(
                ip,
                Msg::IpTx {
                    dst,
                    protocol,
                    payload,
                },
            );
        }
    }
}

impl Process<Msg> for UdpProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        let Event::Message { msg, .. } = ev else {
            return;
        };
        match msg {
            Msg::IpRxUdp { src, dgram } => {
                ctx.charge(calibration::UDP_PKT);
                if let Some(icmp) = self.udp.rx(ctx, src, &dgram) {
                    self.ip_tx(ctx, src, 1, icmp);
                }
            }
            Msg::UdpBind { port, app } => {
                ctx.charge(calibration::SOCK_OP);
                self.udp.bind(port, app);
            }
            Msg::UdpTx {
                src_port,
                dst,
                data,
            } => {
                ctx.charge(calibration::UDP_PKT);
                let dgram = self.udp.tx(src_port, dst, &data);
                self.ip_tx(ctx, dst.0, 17, dgram);
            }
            Msg::SetNeighbor {
                role: Role::Ip,
                pid,
            } => {
                self.ip_comp = Some(pid);
            }
            Msg::Poison => ctx.crash_self(),
            _ => {}
        }
    }
}
