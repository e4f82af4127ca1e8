//! The assembled NIC device: queue pairs + steering + TSO + faults + link
//! timing, as one passive hardware model the driver process drives.

use crate::faults::{FaultInjector, FaultOutcome};
use crate::link::LinkModel;
use crate::queue::DescRing;
use crate::steer::Steering;
use crate::tso::{self, TSO_MSS};
use neat_net::{FlowKey, PktBuf};
use neat_sim::Time;

/// Descriptors per RX ring.
const RING_SIZE: usize = 512;

/// Static NIC configuration.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Number of RX/TX queue pairs (== max stack replicas served).
    pub queue_pairs: usize,
    /// Enable TSO.
    pub tso: bool,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            queue_pairs: 4,
            tso: true,
        }
    }
}

/// Counters exposed to the experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    pub rx_frames: u64,
    pub tx_frames: u64,
    pub tx_bytes: u64,
    pub rx_dropped_ring: u64,
    pub tso_splits: u64,
}

/// Metrics-registry handles mirroring [`NicStats`]. All NIC instances in a
/// simulation share the same registry entries (aggregate view).
#[derive(Debug, Clone, Copy)]
struct NicObs {
    rx_frames: neat_obs::Counter,
    tx_frames: neat_obs::Counter,
    rx_dropped_ring: neat_obs::Counter,
    ring_depth_max: neat_obs::Gauge,
}

impl NicObs {
    fn new() -> NicObs {
        NicObs {
            rx_frames: neat_obs::counter("nic.rx_frames"),
            tx_frames: neat_obs::counter("nic.tx_frames"),
            rx_dropped_ring: neat_obs::counter("nic.rx_dropped_ring"),
            ring_depth_max: neat_obs::gauge("nic.rx_ring_depth_max"),
        }
    }
}

/// The simulated 82599. RX path: wire → faults → steering → per-queue ring.
/// TX path: host frame → TSO → wire frames (with serialization times).
#[derive(Debug)]
pub struct Nic {
    cfg: NicConfig,
    steering: Steering,
    rx_rings: Vec<DescRing>,
    rx_faults: FaultInjector,
    pub stats: NicStats,
    obs: NicObs,
}

impl Nic {
    pub fn new(cfg: NicConfig, rx_faults: FaultInjector) -> Nic {
        let steering = Steering::new(cfg.queue_pairs);
        let rx_rings = (0..cfg.queue_pairs)
            .map(|_| DescRing::new(RING_SIZE))
            .collect();
        Nic {
            cfg,
            steering,
            rx_rings,
            rx_faults,
            stats: NicStats::default(),
            obs: NicObs::new(),
        }
    }

    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    pub fn num_queues(&self) -> usize {
        self.rx_rings.len()
    }

    /// A frame arrived from the wire at `now_ns`. Returns the queue it was
    /// steered to, or `None` if faults or ring overflow consumed it.
    pub fn wire_rx(&mut self, frame: PktBuf, now_ns: u64) -> Option<usize> {
        let frame = match self.rx_faults.apply(frame) {
            FaultOutcome::Pass(f) | FaultOutcome::Corrupted(f) => f,
            FaultOutcome::Dropped => return None,
        };
        self.stats.rx_frames += 1;
        self.obs.rx_frames.inc();
        let q = self.steering.classify_track(&frame, now_ns);
        if self.rx_rings[q].push(frame) {
            let depth = self.rx_rings[q].len() as f64;
            if depth > self.obs.ring_depth_max.get() {
                self.obs.ring_depth_max.set(depth);
            }
            Some(q)
        } else {
            self.stats.rx_dropped_ring += 1;
            self.obs.rx_dropped_ring.inc();
            None
        }
    }

    /// The driver fetches the next received frame from a queue.
    pub fn rx_pop(&mut self, queue: usize) -> Option<PktBuf> {
        self.rx_rings.get_mut(queue)?.pop()
    }

    /// Vectored fetch: the driver reads up to `max` frames in one
    /// descriptor-ring pass (batched RX, §3.4).
    pub fn rx_pop_batch(&mut self, queue: usize, max: usize) -> Vec<PktBuf> {
        self.rx_rings
            .get_mut(queue)
            .map(|r| r.pop_batch(max))
            .unwrap_or_default()
    }

    /// The host hands the NIC a frame for transmission: `each` gets the
    /// wire frames (after TSO) in order, each with its serialization time.
    pub fn host_tx_each(&mut self, frame: PktBuf, mut each: impl FnMut(PktBuf, Time)) {
        let mut wire = |f: PktBuf| {
            self.stats.tx_frames += 1;
            self.obs.tx_frames.inc();
            self.stats.tx_bytes += f.len() as u64;
            let t = LinkModel::ten_gbe().tx_time(f.len());
            each(f, t);
        };
        if !self.cfg.tso {
            return wire(frame);
        }
        match tso::cut(frame, TSO_MSS, &mut wire) {
            Ok(()) => self.stats.tso_splits += 1,
            Err(frame) => wire(frame),
        }
    }

    /// [`Self::host_tx_each`] as a list, sized for the most it can be cut into.
    pub fn host_tx(&mut self, frame: PktBuf) -> Vec<(PktBuf, Time)> {
        let mut out = Vec::with_capacity(1 + frame.len() / TSO_MSS);
        self.host_tx_each(frame, |f, t| out.push((f, t)));
        out
    }

    /// One-way link latency to the peer NIC.
    pub fn link_latency(&self) -> Time {
        LinkModel::ten_gbe().latency
    }

    // --- control plane (driver-configured), §4 ---

    pub fn add_filter(&mut self, key: FlowKey, queue: usize) -> bool {
        self.steering.add_filter(key, queue)
    }

    pub fn remove_filter(&mut self, key: &FlowKey) {
        self.steering.remove_filter(key);
    }

    pub fn set_queue_accepting(&mut self, queue: usize, accepting: bool) {
        self.steering.set_accepting(queue, accepting);
    }

    /// Toggle SYN-learned tracking filters (ablation hook).
    pub fn set_tracking(&mut self, on: bool) {
        self.steering.track_flows = on;
    }

    /// Grow the queue set for scale-up (§3.4).
    pub fn grow_queues(&mut self, n: usize) {
        while self.rx_rings.len() < n {
            self.rx_rings.push(DescRing::new(RING_SIZE));
        }
        self.steering.grow(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use neat_net::ethernet::{EtherType, EthernetFrame};
    use neat_net::ipv4::{IpProtocol, Ipv4Header};
    use neat_net::tcp::{TcpFlags, TcpHeader};
    use neat_net::{MacAddr, SeqNum};
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn frame(src_port: u16, payload: &[u8]) -> Vec<u8> {
        let tcp = TcpHeader::new(src_port, 80, SeqNum(0), SeqNum(0), TcpFlags::psh_ack())
            .emit(payload, SRC, DST);
        let ip = Ipv4Header::new(SRC, DST, IpProtocol::Tcp, tcp.len()).emit(&tcp);
        EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        }
        .emit(&ip)
    }

    #[test]
    fn rx_steers_to_stable_queue() {
        let mut nic = Nic::new(NicConfig::default(), FaultInjector::disabled(1));
        let q1 = nic.wire_rx(frame(1000, b"a").into(), 0).unwrap();
        let q2 = nic.wire_rx(frame(1000, b"b").into(), 0).unwrap();
        assert_eq!(q1, q2);
        assert!(nic.rx_pop(q1).is_some());
        assert!(nic.rx_pop(q1).is_some());
        assert!(nic.rx_pop(q1).is_none());
    }

    #[test]
    fn ring_overflow_drops() {
        let cfg = NicConfig {
            queue_pairs: 1,
            ..Default::default()
        };
        let mut nic = Nic::new(cfg, FaultInjector::disabled(1));
        for p in 0..RING_SIZE as u16 {
            assert!(nic.wire_rx(frame(p, b"x").into(), 0).is_some());
        }
        assert!(nic.wire_rx(frame(u16::MAX, b"x").into(), 0).is_none());
        assert_eq!(nic.stats.rx_dropped_ring, 1);
    }

    #[test]
    fn tx_tso_produces_timed_wire_frames() {
        let mut nic = Nic::new(NicConfig::default(), FaultInjector::disabled(1));
        let big = frame(5000, &vec![9u8; 4000]);
        let out = nic.host_tx(big.into());
        assert_eq!(out.len(), 3);
        assert_eq!(nic.stats.tso_splits, 1);
        for (f, t) in &out {
            assert!(t.as_nanos() > 0);
            assert!(f.len() <= 14 + 20 + 20 + 1460);
        }
    }

    #[test]
    fn tx_without_tso_passthrough() {
        let cfg = NicConfig {
            tso: false,
            ..Default::default()
        };
        let mut nic = Nic::new(cfg, FaultInjector::disabled(1));
        let big = frame(5000, &vec![9u8; 4000]);
        let out = nic.host_tx(big.clone().into());
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].0[..], &big[..]);
    }

    /// `host_tx` is `host_tx_each`, collected: cut, passed through, or not
    /// asked to cut at all, the same frames with the same times and stats.
    #[test]
    fn host_tx_is_host_tx_each_collected() {
        let no_tso = NicConfig {
            tso: false,
            ..Default::default()
        };
        for cfg in [NicConfig::default(), no_tso] {
            let mut listed = Nic::new(cfg.clone(), FaultInjector::disabled(1));
            let mut visited = Nic::new(cfg, FaultInjector::disabled(1));
            for payload in [&b"small"[..], &[9u8; 4000], &[3u8; 1460], &[5u8; 1461]] {
                let f: PktBuf = frame(5000, payload).into();
                let mut each = Vec::new();
                visited.host_tx_each(f.clone(), |f, t| each.push((f, t)));
                assert_eq!(listed.host_tx(f), each);
            }
            let (l, v) = (listed.stats, visited.stats);
            assert_eq!(
                (l.tx_frames, l.tx_bytes, l.tso_splits),
                (v.tx_frames, v.tx_bytes, v.tso_splits)
            );
            assert_eq!(l.tx_frames, if listed.cfg.tso { 7 } else { 4 });
        }
    }

    #[test]
    fn faults_drop_on_rx() {
        let mut nic = Nic::new(
            NicConfig::default(),
            FaultInjector::new(
                FaultConfig {
                    drop_pct: 100,
                    ..Default::default()
                },
                1,
            ),
        );
        assert!(nic.wire_rx(frame(1, b"x").into(), 0).is_none());
        assert_eq!(nic.stats.rx_frames, 0);
    }

    #[test]
    fn grow_queues_expands() {
        let cfg = NicConfig {
            queue_pairs: 1,
            ..Default::default()
        };
        let mut nic = Nic::new(cfg, FaultInjector::disabled(1));
        assert_eq!(nic.num_queues(), 1);
        nic.grow_queues(3);
        assert_eq!(nic.num_queues(), 3);
        let mut seen = std::collections::HashSet::new();
        for p in 0..256 {
            if let Some(q) = nic.wire_rx(frame(2000 + p, b"s").into(), 0) {
                seen.insert(q);
            }
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn filters_pin_flows() {
        let mut nic = Nic::new(NicConfig::default(), FaultInjector::disabled(1));
        let f: neat_net::PktBuf = frame(7777, b"z").into();
        let flow = crate::steer::Steering::parse_flow(&f).unwrap().key;
        let natural = nic.wire_rx(f.clone(), 0).unwrap();
        let target = (natural + 1) % nic.num_queues();
        assert!(nic.add_filter(flow, target));
        assert_eq!(nic.wire_rx(f, 0).unwrap(), target);
    }
}
