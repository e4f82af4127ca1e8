//! The UDP component of the multi-component replica (§3.7).
//!
//! "Excluding TCP, the other components are essentially stateless (or
//! pseudostateless)" — UDP keeps only the bind table, which applications
//! re-establish after a restart, so recovery is transparent (Table 3).

use crate::{msg::Msg, replica::Role};
use neat_net::udp::UdpHeader;
use neat_sim::{calibration, Ctx, Event, ProcId, Process};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The UDP process.
pub struct UdpProc {
    pub name: String,
    pub queue: usize,
    ip_comp: Option<ProcId>,
    local_ip: Ipv4Addr,
    binds: HashMap<u16, ProcId>,
    pub rx_datagrams: u64,
    pub unreachable_sent: u64,
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
            local_ip,
            binds: HashMap::new(),
            rx_datagrams: 0,
            unreachable_sent: 0,
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
                self.rx_datagrams += 1;
                let Ok((h, range)) = UdpHeader::parse(&dgram, src, self.local_ip) else {
                    return;
                };
                match self.binds.get(&h.dst_port).copied() {
                    Some(app) => {
                        ctx.send(
                            app,
                            Msg::UdpData {
                                port: h.dst_port,
                                src: (src, h.src_port),
                                data: dgram[range].to_vec(),
                            },
                        );
                    }
                    None => {
                        self.unreachable_sent += 1;
                        let orig: Vec<u8> = dgram.iter().take(28).copied().collect();
                        let icmp = neat_net::icmp::IcmpMessage::DestUnreachable {
                            code: neat_net::icmp::PORT_UNREACHABLE,
                            original: orig,
                        };
                        if let Some(ip) = self.ip_comp {
                            ctx.send(
                                ip,
                                Msg::IpTx {
                                    dst: src,
                                    protocol: 1,
                                    payload: icmp.emit(),
                                },
                            );
                        }
                    }
                }
            }
            Msg::UdpBind { port, app } => {
                ctx.charge(calibration::SOCK_OP);
                self.binds.insert(port, app);
            }
            Msg::UdpTx {
                src_port,
                dst,
                data,
            } => {
                ctx.charge(calibration::UDP_PKT);
                let dgram = UdpHeader::emit(src_port, dst.1, &data, self.local_ip, dst.0);
                if let Some(ip) = self.ip_comp {
                    ctx.send(
                        ip,
                        Msg::IpTx {
                            dst: dst.0,
                            protocol: 17,
                            payload: dgram,
                        },
                    );
                }
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
