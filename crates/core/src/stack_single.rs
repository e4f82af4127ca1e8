//! The single-component stack replica (`NEaT Nx` in the figures).
//!
//! One process per replica containing the whole stack: link/ARP/ICMP
//! handling, IP, TCP, UDP, and the socket fast path. Fewer cores and fewer
//! internal messages than the multi-component configuration, at the cost of
//! coarser fault isolation: a fault anywhere in the replica loses the
//! replica's entire state, including TCP connections (§3.7, Figure 13).

use crate::netcode::{FrameIo, RxClass};
use crate::stack_host::{StackHost, WireSink};
use crate::udp_comp::Udp;
use crate::{msg::Msg, replica::Role};
use neat_net::ethernet::MacAddr;
use neat_net::ipv4::IpProtocol;
use neat_sim::{calibration, Ctx, Event, ProcId, Process};
use std::net::Ipv4Addr;

/// Below TCP in this replica shape: in-process IP/link handling, the
/// replica's own loopback device, and the driver the frames go out through.
struct FrameWire {
    io: FrameIo,
    driver: ProcId,
}

impl WireSink for FrameWire {
    fn tx_segment(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        dst: Ipv4Addr,
        seg: &mut Vec<u8>,
    ) -> Option<Vec<u8>> {
        ctx.charge(calibration::IP_TX_PKT);
        if dst == self.io.ip {
            return Some(std::mem::take(seg));
        }
        self.io
            .send_ip(dst, IpProtocol::Tcp, seg, ctx.now().as_nanos());
        None
    }

    fn tx_done(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for frame in self.io.drain_out() {
            ctx.send(self.driver, Msg::NetTx(frame));
        }
    }
}

/// A whole-stack replica process.
pub struct SingleStackProc {
    pub name: String,
    host: StackHost,
    wire: FrameWire,
    udp: Udp,
}

impl SingleStackProc {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        queue: usize,
        driver: ProcId,
        supervisor: ProcId,
        ip: Ipv4Addr,
        mac: MacAddr,
        cfg: &crate::config::NeatConfig,
        arp_seed: Vec<(Ipv4Addr, MacAddr)>,
    ) -> SingleStackProc {
        let mut io = FrameIo::new(ip, mac);
        for (a, m) in arp_seed {
            io.seed_arp(a, m);
        }
        SingleStackProc {
            name: name.into(),
            host: StackHost::new(queue, supervisor, ip, cfg),
            wire: FrameWire { io, driver },
            udp: Udp::new(ip),
        }
    }

    fn handle_frame(&mut self, ctx: &mut Ctx<'_, Msg>, frame: neat_net::PktBuf) {
        let now = ctx.now().as_nanos();
        let io = &mut self.wire.io;
        if !neat_net::pktbuf::pooling() {
            // Copy-charge ablation: without views the header strip
            // copies the L4 payload out of the frame.
            ctx.charge(calibration::copy_cost(frame.len()));
        }
        match io.classify_rx(&frame, now) {
            RxClass::Tcp { src, seg } => {
                ctx.charge(calibration::IP_RX_PKT);
                self.host.rx_segment(ctx, src, &seg);
            }
            RxClass::Udp { src, dgram } => {
                ctx.charge(calibration::IP_RX_PKT + calibration::UDP_PKT);
                if let Some(icmp) = self.udp.rx(ctx, src, &dgram) {
                    io.send_ip(src, IpProtocol::Icmp, &icmp, now);
                }
            }
            RxClass::Icmp { .. } | RxClass::Arp => {
                ctx.charge(calibration::IP_RX_PKT);
            }
            RxClass::Dropped => {
                ctx.charge(calibration::IP_RX_PKT / 2);
            }
        }
    }
}

impl Process<Msg> for SingleStackProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_batch(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcId, msgs: &mut Vec<Msg>) {
        // Amortized delivery: classify every frame in the batch, then run
        // the TX/event flush once for the whole run of packets.
        let mut deferred_flush = false;
        for msg in msgs.drain(..) {
            match msg {
                Msg::NetRx(frame) => {
                    self.handle_frame(ctx, frame);
                    deferred_flush = true;
                }
                other => self.on_event(ctx, Event::Message { from, msg: other }),
            }
        }
        if deferred_flush {
            self.host.flush(ctx, &mut self.wire);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => {
                self.host.on_start(ctx);
                // Announce to the driver: packets may flow to this replica.
                ctx.send(
                    self.wire.driver,
                    Msg::Announce {
                        queue: self.host.queue,
                        head: ctx.self_id,
                    },
                );
            }
            Event::Timer { .. } => self.host.on_timer(ctx, &mut self.wire),
            Event::Message { from, msg } => match msg {
                Msg::NetRx(frame) => {
                    self.handle_frame(ctx, frame);
                    self.host.flush(ctx, &mut self.wire);
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
                    ctx.charge(calibration::UDP_PKT + calibration::IP_TX_PKT);
                    let dgram = self.udp.tx(src_port, dst, &data);
                    let now = ctx.now().as_nanos();
                    self.wire.io.send_ip(dst.0, IpProtocol::Udp, &dgram, now);
                    self.host.flush(ctx, &mut self.wire);
                }
                Msg::SetNeighbor {
                    role: Role::Driver,
                    pid,
                } => self.wire.driver = pid,
                Msg::Poison => ctx.crash_self(),
                // Everything above the wire is the host's.
                other => self.host.on_msg(ctx, from, other, &mut self.wire),
            },
        }
    }
}
