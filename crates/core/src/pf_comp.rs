//! The packet-filter component of the multi-component replica (§3.7).
//!
//! First in the ingress pipeline: it is the process that announces the
//! replica to the driver, matches inbound frames against a (configurable)
//! rule set, and forwards accepted frames to the IP component. Essentially
//! stateless — a crash loses nothing but in-flight frames, so its recovery
//! is fully transparent (Table 3).

use crate::{msg::Msg, replica::Role};
use neat_sim::{calibration, Ctx, Event, ProcId, Process};
use std::net::Ipv4Addr;

/// A filter rule: drop frames matching the source prefix + port.
#[derive(Debug, Clone, Copy)]
pub struct PfRule {
    pub src_prefix: Ipv4Addr,
    pub prefix_len: u8,
    /// Destination port to match; 0 matches any.
    pub dst_port: u16,
}

impl PfRule {
    fn matches(&self, src: Ipv4Addr, dst_port: u16) -> bool {
        let mask = if self.prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - self.prefix_len as u32)
        };
        let a = u32::from(src) & mask;
        let b = u32::from(self.src_prefix) & mask;
        a == b && (self.dst_port == 0 || self.dst_port == dst_port)
    }
}

/// The packet-filter process.
pub struct PfProc {
    pub name: String,
    pub queue: usize,
    driver: ProcId,
    ip: Option<ProcId>,
    rules: Vec<PfRule>,
    pub passed: u64,
    pub filtered: u64,
}

impl PfProc {
    pub fn new(
        name: impl Into<String>,
        queue: usize,
        driver: ProcId,
        ip: Option<ProcId>,
        rules: Vec<PfRule>,
    ) -> PfProc {
        PfProc {
            name: name.into(),
            queue,
            driver,
            ip,
            rules,
            passed: 0,
            filtered: 0,
        }
    }

    fn drops(&self, frame: &[u8]) -> bool {
        if self.rules.is_empty() {
            return false;
        }
        match neat_nic::Steering::parse_flow(frame) {
            Some(f) => self
                .rules
                .iter()
                .any(|r| r.matches(f.key.src, f.key.dst_port)),
            None => false, // non-IP (ARP) always passes
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
                    if self.drops(&frame) {
                        self.filtered += 1;
                        return;
                    }
                    self.passed += 1;
                    if let Some(ip) = self.ip {
                        ctx.send(ip, Msg::PfPass(frame));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_matching_prefixes() {
        let r = PfRule {
            src_prefix: Ipv4Addr::new(10, 1, 0, 0),
            prefix_len: 16,
            dst_port: 0,
        };
        assert!(r.matches(Ipv4Addr::new(10, 1, 2, 3), 80));
        assert!(!r.matches(Ipv4Addr::new(10, 2, 2, 3), 80));
        let rp = PfRule {
            src_prefix: Ipv4Addr::new(0, 0, 0, 0),
            prefix_len: 0,
            dst_port: 22,
        };
        assert!(rp.matches(Ipv4Addr::new(1, 2, 3, 4), 22));
        assert!(!rp.matches(Ipv4Addr::new(1, 2, 3, 4), 80));
    }
}
