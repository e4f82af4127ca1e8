//! Packet classification and steering: RSS hashing with an indirection
//! table, overridden by exact-match flow-director filters.
//!
//! This is the mechanism that lets NEaT keep every packet of a connection on
//! the path to the same replica (Figure 2) without any inter-replica
//! communication: "the NIC driver can thus dispatch the packets to the right
//! replica based on the receive queue of the NIC" (§3.1).

use neat_net::ethernet::{EtherType, EthernetFrame};
use neat_net::ipv4::{IpProtocol, Ipv4Header};
use neat_net::wire::get_u16;
use neat_net::{FlowKey, RssHasher};
use neat_util::FxHashMap;

/// The flow fields extracted from a frame for classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedFlow {
    pub key: FlowKey,
    /// True for TCP SYN-only segments (new inbound connections) — the
    /// driver uses this to learn flow→queue mappings.
    pub is_syn: bool,
    /// True for RST segments (tracking filters are torn down).
    pub is_rst: bool,
}

/// Classifier state: hash + filters + queue count.
#[derive(Debug)]
pub struct Steering {
    rss: RssHasher,
    /// Exact-match filters: flow → (queue, last-seen ns). The 82599 holds
    /// ~8k of these; idle entries expire like ATR's sampled filters.
    /// Only probed; the one `retain` keeps or drops each entry on its own
    /// `seen`, whatever order it visits them in.
    filters: FxHashMap<FlowKey, (usize, u64)>,
    max_filters: usize,
    /// Learn a tracking filter from every new flow's SYN — the hardware
    /// extension §4 argues for ("ensure all the corresponding packets of
    /// each flow follow the same route"), which makes the scale-up/down
    /// protocol of §3.4 keep existing connections intact.
    pub track_flows: bool,
    /// Idle tracking filters older than this are reclaimable.
    filter_idle_ns: u64,
    /// No entry can be idle before this instant: a lower bound on
    /// `min(seen) + filter_idle_ns` (valid because the clock, and so every
    /// `seen`, only moves forward). A full-table scan earlier than this
    /// removes nothing and is skipped.
    purge_due: u64,
    num_queues: usize,
    /// Which queues currently accept *new* flows (termination-state
    /// replicas are excluded here per §3.4's lazy scale-down).
    accepting: Vec<bool>,
}

impl Steering {
    pub fn new(num_queues: usize) -> Steering {
        Steering {
            rss: RssHasher::default(),
            filters: FxHashMap::default(),
            max_filters: 8_192,
            track_flows: true,
            filter_idle_ns: 10_000_000_000,
            purge_due: 0,
            num_queues,
            accepting: vec![true; num_queues],
        }
    }

    pub fn num_queues(&self) -> usize {
        self.num_queues
    }

    /// Extract the flow 5-tuple from an Ethernet frame carrying IPv4 TCP
    /// or UDP. Non-IP and non-TCP/UDP traffic goes to queue 0 by default.
    pub fn parse_flow(frame: &[u8]) -> Option<ParsedFlow> {
        let (eth, off) = EthernetFrame::parse(frame).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let (ip, payload) = Ipv4Header::parse(&frame[off..]).ok()?;
        let l4 = &frame[off..][payload];
        match ip.protocol {
            IpProtocol::Tcp | IpProtocol::Udp => {
                if l4.len() < 4 {
                    return None;
                }
                let src_port = get_u16(l4, 0);
                let dst_port = get_u16(l4, 2);
                // Only TCP has a flags byte (offset 13); a datagram with
                // fewer than 6 payload bytes ends before it.
                let flags = match (ip.protocol, l4.get(13)) {
                    (IpProtocol::Tcp, Some(&f)) => f,
                    _ => 0,
                };
                let is_syn = flags & 0x02 != 0 && flags & 0x10 == 0;
                let is_rst = flags & 0x04 != 0;
                Some(ParsedFlow {
                    key: FlowKey {
                        src: ip.src,
                        dst: ip.dst,
                        src_port,
                        dst_port,
                        protocol: u8::from(ip.protocol),
                    },
                    is_syn,
                    is_rst,
                })
            }
            _ => None,
        }
    }

    /// Classify a frame to a queue. Filters take precedence over the RSS
    /// hash. New flows (no filter) are steered by hashing over the queues
    /// currently accepting new connections.
    pub fn classify(&self, frame: &[u8]) -> usize {
        let Some(flow) = Self::parse_flow(frame) else {
            return 0;
        };
        if let Some(&(q, _)) = self.filters.get(&flow.key) {
            return q;
        }
        self.hash_accepting(&flow.key)
    }

    fn hash_accepting(&self, key: &FlowKey) -> usize {
        let mut open = (0..self.accepting.len()).filter(|&q| self.accepting[q]);
        let n = open.clone().count();
        // `queue_for(_, n) < n`, so with a queue open `nth` finds one.
        if let Some(q) = (n > 0)
            .then(|| open.nth(self.rss.queue_for(key, n)))
            .flatten()
        {
            return q;
        }
        self.rss.queue_for(key, self.num_queues)
    }

    /// Classify with flow tracking (the data-plane fast path of a tracking
    /// NIC): new flows get a filter pinning them to the chosen queue; RSTs
    /// tear the filter down; idle filters expire.
    pub fn classify_track(&mut self, frame: &[u8], now_ns: u64) -> usize {
        let Some(flow) = Self::parse_flow(frame) else {
            return 0;
        };
        if let Some(entry) = self.filters.get_mut(&flow.key) {
            let q = entry.0;
            entry.1 = now_ns;
            if flow.is_rst {
                self.filters.remove(&flow.key);
            }
            return q;
        }
        let q = self.hash_accepting(&flow.key);
        if self.track_flows && flow.is_syn {
            let idle = self.filter_idle_ns;
            if self.filters.len() >= self.max_filters && now_ns >= self.purge_due {
                // Reclaim idle entries (connections long gone).
                let mut oldest = u64::MAX;
                self.filters.retain(|_, (_, seen)| {
                    let keep = now_ns.saturating_sub(*seen) < idle;
                    if keep {
                        oldest = oldest.min(*seen);
                    }
                    keep
                });
                self.purge_due = oldest.saturating_add(idle);
            }
            if self.filters.len() < self.max_filters {
                self.filters.insert(flow.key, (q, now_ns));
                self.purge_due = self.purge_due.min(now_ns.saturating_add(idle));
            }
        }
        q
    }

    /// Install an exact-match filter (software-configured, like the real
    /// flow director). Returns false when the filter table is full.
    pub fn add_filter(&mut self, key: FlowKey, queue: usize) -> bool {
        if self.filters.len() >= self.max_filters && !self.filters.contains_key(&key) {
            return false;
        }
        self.filters.insert(key, (queue, 0));
        self.purge_due = self.purge_due.min(self.filter_idle_ns);
        true
    }

    pub fn remove_filter(&mut self, key: &FlowKey) {
        self.filters.remove(key);
    }

    /// Mark a queue as (not) accepting new flows — the lazy-termination
    /// control of §3.4: "instruct the NIC to distribute new connections
    /// only to replicas in nontermination state but continue to serve
    /// packets on existing connections".
    pub fn set_accepting(&mut self, queue: usize, accepting: bool) {
        self.accepting[queue] = accepting;
    }

    /// Grow the queue set (scale-up, §3.4).
    pub fn grow(&mut self, num_queues: usize) {
        assert!(num_queues >= self.num_queues);
        self.accepting.resize(num_queues, true);
        self.num_queues = num_queues;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_net::tcp::{TcpFlags, TcpHeader};
    use neat_net::udp::UdpHeader;
    use neat_net::{MacAddr, SeqNum};
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 100);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);

    fn tcp_frame(src_port: u16, flags: TcpFlags) -> Vec<u8> {
        let tcp = TcpHeader::new(src_port, 80, SeqNum(1), SeqNum(0), flags).emit(&[], SRC, DST);
        let ip = Ipv4Header::new(SRC, DST, IpProtocol::Tcp, tcp.len()).emit(&tcp);
        EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        }
        .emit(&ip)
    }

    fn udp_frame(src_port: u16, payload: &[u8]) -> Vec<u8> {
        let udp = UdpHeader::emit(src_port, 53, payload, SRC, DST);
        let ip = Ipv4Header::new(SRC, DST, IpProtocol::Udp, udp.len()).emit(&udp);
        EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        }
        .emit(&ip)
    }

    /// A datagram's queue is its flow's whatever its size: one too short to
    /// reach TCP's flags byte is steered like a long one, not to queue 0.
    #[test]
    fn short_datagrams_steer_with_their_flow() {
        for queues in 2..=8 {
            let mut s = Steering::new(queues);
            let mut off_zero = 0;
            for port in 1024..1088 {
                let (short, long) = (udp_frame(port, b"x"), udp_frame(port, &[7; 100]));
                let q = s.classify(&long);
                off_zero += usize::from(q != 0);
                let tracked = [s.classify_track(&short, 0), s.classify_track(&long, 0)];
                assert_eq!(s.classify(&short), q, "{queues} queues, port {port}");
                assert_eq!(tracked, [q, q], "{queues} queues, port {port}");
            }
            assert!(off_zero > 0, "{queues} queues: all on queue 0");
        }
    }

    #[test]
    fn parse_flow_extracts_tuple() {
        let f = Steering::parse_flow(&tcp_frame(5555, TcpFlags::SYN)).unwrap();
        assert_eq!(f.key.src, SRC);
        assert_eq!(f.key.dst, DST);
        assert_eq!(f.key.src_port, 5555);
        assert_eq!(f.key.dst_port, 80);
        assert!(f.is_syn);
        let f2 = Steering::parse_flow(&tcp_frame(5555, TcpFlags::ack())).unwrap();
        assert!(!f2.is_syn);
    }

    #[test]
    fn same_flow_same_queue() {
        let s = Steering::new(4);
        let frame = tcp_frame(1234, TcpFlags::SYN);
        let q = s.classify(&frame);
        let frame2 = tcp_frame(1234, TcpFlags::ack());
        assert_eq!(
            s.classify(&frame2),
            q,
            "every packet of a flow → same queue"
        );
    }

    #[test]
    fn filters_override_hash() {
        let mut s = Steering::new(4);
        let frame = tcp_frame(4242, TcpFlags::SYN);
        let hashed = s.classify(&frame);
        let flow = Steering::parse_flow(&frame).unwrap().key;
        let forced = (hashed + 1) % 4;
        assert!(s.add_filter(flow, forced));
        assert_eq!(s.classify(&frame), forced);
        s.remove_filter(&flow);
        assert_eq!(s.classify(&frame), hashed);
    }

    #[test]
    fn non_accepting_queue_excluded_for_new_flows() {
        let mut s = Steering::new(2);
        s.set_accepting(1, false);
        for p in 1024..1124 {
            let q = s.classify(&tcp_frame(p, TcpFlags::SYN));
            assert_eq!(q, 0, "all new flows must go to the accepting queue");
        }
        // Existing flows with filters still reach the draining queue.
        let frame = tcp_frame(9999, TcpFlags::ack());
        let flow = Steering::parse_flow(&frame).unwrap().key;
        s.add_filter(flow, 1);
        assert_eq!(s.classify(&frame), 1);
    }

    #[test]
    fn flows_balance_across_queues() {
        let s = Steering::new(4);
        let mut counts = [0usize; 4];
        for p in 1024..3072u16 {
            counts[s.classify(&tcp_frame(p, TcpFlags::SYN))] += 1;
        }
        for c in counts {
            assert!(c > 2048 / 4 / 2, "queue starved: {counts:?}");
        }
    }

    #[test]
    fn grow_adds_queues() {
        let mut s = Steering::new(1);
        for p in 0..64 {
            assert_eq!(s.classify(&tcp_frame(p + 1024, TcpFlags::SYN)), 0);
        }
        s.grow(3);
        let mut seen = std::collections::HashSet::new();
        for p in 0..256 {
            seen.insert(s.classify(&tcp_frame(p + 2048, TcpFlags::SYN)));
        }
        assert_eq!(seen.len(), 3, "new queues receive flows after grow");
    }

    #[test]
    fn filter_table_capacity() {
        let mut s = Steering::new(2);
        s.max_filters = 4;
        for i in 0..4u16 {
            let key = FlowKey::tcp(SRC, 1000 + i, DST, 80);
            assert!(s.add_filter(key, 0));
        }
        assert!(!s.add_filter(FlowKey::tcp(SRC, 2000, DST, 80), 0));
        assert_eq!(s.filters.len(), 4);
    }

    #[test]
    fn garbage_frames_default_queue() {
        let s = Steering::new(4);
        assert_eq!(s.classify(&[0u8; 10]), 0);
        assert_eq!(s.classify(&[0u8; 100]), 0);
    }

    /// The reference: `classify_track` as it was before `purge_due` — a new
    /// flow at a full table always scans, whether or not anything can have
    /// idled out.
    fn full_scan_track(s: &mut Steering, frame: &[u8], now_ns: u64) -> usize {
        let flow = Steering::parse_flow(frame).unwrap();
        if let Some(entry) = s.filters.get_mut(&flow.key) {
            let q = entry.0;
            entry.1 = now_ns;
            if flow.is_rst {
                s.filters.remove(&flow.key);
            }
            return q;
        }
        let q = s.hash_accepting(&flow.key);
        if s.track_flows && flow.is_syn {
            if s.filters.len() >= s.max_filters {
                let idle = s.filter_idle_ns;
                s.filters
                    .retain(|_, (_, seen)| now_ns.saturating_sub(*seen) < idle);
            }
            if s.filters.len() < s.max_filters {
                s.filters.insert(flow.key, (q, now_ns));
            }
        }
        q
    }

    /// Skipping the scan before `purge_due` is invisible: idle expiry at a
    /// full table, RST teardown and software filters leave the same table
    /// and steer to the same queue as scanning on every SYN.
    #[test]
    fn tracking_expiry_matches_a_full_scan() {
        use neat_util::check::{check, vec_of, Config};
        use neat_util::{prop_assert_eq, Rng};
        let small = || {
            let mut s = Steering::new(4);
            s.max_filters = 8;
            s.filter_idle_ns = 1000;
            s
        };
        check(
            "tracking_expiry_matches_a_full_scan",
            Config::default().cases(256),
            |rng: &mut Rng| {
                vec_of(rng, 1..120, |r| {
                    (r.gen_range(0u8..10), r.gen_range(0u16..3001))
                })
            },
            |steps| {
                let (mut fast, mut naive) = (small(), small());
                let mut now = 0u64;
                for (i, (op, arg)) in steps.into_iter().enumerate() {
                    // 24 ports over an 8-entry table: SYNs are mostly fresh
                    // flows, data and RSTs mostly hit tracked ones.
                    let port = 1000 + arg % 24;
                    let key = FlowKey::tcp(SRC, port, DST, 80);
                    match op {
                        // SYN-heavy, so the table fills, idles out as a
                        // whole and fills again within one case.
                        0..=6 => {
                            let flags = match op {
                                0..=3 => TcpFlags::SYN,
                                4 | 5 => TcpFlags::ack(),
                                _ => TcpFlags::rst(),
                            };
                            let f = tcp_frame(port, flags);
                            let q = fast.classify_track(&f, now);
                            prop_assert_eq!(q, full_scan_track(&mut naive, &f, now), "step {i}");
                        }
                        7 => {
                            let q = arg as usize % 4;
                            prop_assert_eq!(fast.add_filter(key, q), naive.add_filter(key, q));
                        }
                        8 => {
                            fast.remove_filter(&key);
                            naive.remove_filter(&key);
                        }
                        _ => now += arg as u64,
                    }
                    prop_assert_eq!(&fast.filters, &naive.filters, "step {i}");
                }
                Ok(())
            },
        );
    }
}
