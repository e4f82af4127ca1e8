//! `httperf` — the load generator (§6.1–§6.2).
//!
//! Each instance is one process on the client machine (the paper runs "12
//! httperf processes — one per client machine's core"), embedding its own
//! library TCP stack (mTCP-style OS bypass — the client box is harness,
//! not the system under test). It keeps `num_conns` persistent
//! connections open, issues `requests_per_conn` GETs on each, replaces
//! finished connections with fresh ones, and reports rates/latency with
//! httperf's semantics: "dismisses from the request rate and throughput
//! any connection which has an error".

use crate::http;
use neat::msg::Msg;
use neat::netcode::{FrameIo, RxClass};
use neat::stack_host::{follow_deadline, TimerFires};
use neat_net::ethernet::MacAddr;
use neat_sim::{calibration, Ctx, Event, ProcId, Process, Time};
use neat_tcp::{CongestionAlgo, SockEvent, SocketId, TcpConfig, TcpStack};
use neat_util::FxHashMap;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Stagger between a client's initial connection opens.
const OPEN_SPACING_NS: u64 = 50_000;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct HttperfConfig {
    pub target: (Ipv4Addr, u16),
    /// Concurrent persistent connections held open.
    pub num_conns: usize,
    /// Requests per connection before it is closed and replaced.
    pub requests_per_conn: u32,
    /// Request path (selects the file size on the server).
    pub path: String,
    /// Per-request timeout; expiry makes the connection an error.
    pub timeout_ns: u64,
    /// Ephemeral port partition for this instance.
    pub port_range: (u16, u16),
    /// Think time between receiving a response and issuing the next
    /// request (0 = closed loop at full speed).
    pub think_ns: u64,
    /// Congestion controller selected on every connection right after
    /// `connect`; `None` keeps the stack's default.
    pub congestion: Option<CongestionAlgo>,
}

/// Cumulative measurements, shared with the harness. Snapshot/subtract
/// across a window to get rates.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Successfully completed requests (on non-error connections so far).
    pub completed: u64,
    pub response_bytes: u64,
    /// Request-to-response latency, in ns.
    pub latency: neat_obs::Histogram,
    /// Connections that errored (timeout / reset / replica crash).
    pub conn_errors: u64,
    /// Requests completed on connections that later errored — httperf
    /// subtracts these from its report.
    pub requests_on_error_conns: u64,
    /// Order-sensitive digest ([`StreamDigest`]) of every byte the client
    /// application read, in delivery order across all its connections;
    /// zero until the first byte. Two fixed-seed runs that delivered
    /// byte-identical streams produce equal digests, so failover tests
    /// can assert the recovered byte stream exactly matches the uncrashed
    /// one.
    pub rx_digest: u64,
    digest: StreamDigest,
}

impl ClientMetrics {
    /// Error-adjusted completed count (httperf's reported number).
    pub fn reported_requests(&self) -> u64 {
        self.completed.saturating_sub(self.requests_on_error_conns)
    }

    fn digest_bytes(&mut self, data: &[u8]) {
        self.digest.update(data);
        self.rx_digest = self.digest.value();
    }
}

/// An FNV-1a-shaped fold over the stream's little-endian 8-byte words
/// instead of its bytes: one multiply per word, not per byte. The bytes
/// after the last whole word wait in `tail`, so the value is a function
/// of the byte sequence alone, however `update` calls cut it up.
#[derive(Debug, Default)]
struct StreamDigest {
    /// Fold of every whole word so far.
    h: u64,
    /// The `len % 8` bytes since, lowest byte first.
    tail: u64,
    /// Bytes fed; zero is "not started".
    len: u64,
}

impl StreamDigest {
    fn fold(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(0x100_0000_01b3)
    }

    fn push(&mut self, byte: u8) {
        self.tail |= u64::from(byte) << (8 * (self.len % 8));
        self.len += 1;
        if self.len.is_multiple_of(8) {
            self.h = Self::fold(self.h, self.tail);
            self.tail = 0;
        }
    }

    fn update(&mut self, data: &[u8]) {
        if self.len == 0 {
            self.h = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        }
        // Bytes one by one until the pending word is whole, then words.
        let (head, rest) = data.split_at(data.len().min((8 - self.len as usize % 8) % 8));
        head.iter().for_each(|b| self.push(*b));
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            let word = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
            self.h = Self::fold(self.h, word);
            self.len += 8;
        }
        words.remainder().iter().for_each(|b| self.push(*b));
    }

    /// The digest of everything fed so far: a partial last word is folded
    /// in with its length in the top byte.
    fn value(&self) -> u64 {
        match self.len % 8 {
            0 => self.h,
            n => Self::fold(self.h, self.tail | n << 56),
        }
    }
}

#[derive(Debug)]
struct ConnRun {
    parser: http::StreamParser,
    requests_done: u32,
    /// Completed requests counted into `completed` for this connection.
    counted: u64,
    sent_at: Option<u64>,
}

const TOK_STACK: u64 = 0;
const TOK_SCAN: u64 = 1;
/// Tokens >= TOK_THINK encode a think-time wakeup for socket id
/// `token - TOK_THINK`. An id carries its serial above bit 32, so most are
/// well past 2^32; every id is below 2^62 (see `SocketId`), so the sum
/// neither wraps nor reaches TOK_OPEN and decodes to the same id.
const TOK_THINK: u64 = 1_000;
/// Tokens >= TOK_OPEN are the staggered initial opens, one token each (a
/// token has one pending timer).
const TOK_OPEN: u64 = 1 << 63;

/// The load-generator process.
pub struct HttperfProc {
    pub name: String,
    cfg: HttperfConfig,
    nic: ProcId,
    stack: TcpStack,
    io: FrameIo,
    /// Probed; the one iteration is sorted at `scan_timeouts`.
    conns: FxHashMap<SocketId, ConnRun>,
    /// The one request every connection sends, formatted once.
    request: Vec<u8>,
    /// The deadline the one pending `TOK_STACK` timer stands for.
    timer: Option<u64>,
    timer_fires: TimerFires,
    /// A frame arrived this wakeup, so `settle` drains the stack.
    drain_owed: bool,
    pub metrics: Rc<RefCell<ClientMetrics>>,
    obs: ClientObs,
}

/// Metrics-registry handles mirroring the hot-path [`ClientMetrics`] counters.
#[derive(Clone, Copy)]
struct ClientObs {
    completed: neat_obs::Counter,
    conn_errors: neat_obs::Counter,
    latency: neat_obs::HistogramHandle,
}

impl ClientObs {
    fn new() -> ClientObs {
        ClientObs {
            completed: neat_obs::counter("client.responses"),
            conn_errors: neat_obs::counter("client.conn_errors"),
            latency: neat_obs::histogram("client.latency_ns"),
        }
    }
}

impl HttperfProc {
    pub fn new(
        name: impl Into<String>,
        cfg: HttperfConfig,
        nic: ProcId,
        client_ip: Ipv4Addr,
        client_mac: MacAddr,
        arp_seed: Vec<(Ipv4Addr, MacAddr)>,
        metrics: Rc<RefCell<ClientMetrics>>,
    ) -> HttperfProc {
        let tcp_cfg = TcpConfig {
            initial_rto_ns: 20_000_000,
            // Load generators recycle ports aggressively (the standard
            // tcp_tw_reuse benchmarking setting): a full 10 s TIME_WAIT
            // would exhaust the port range under 1-request/connection
            // churn and throttle the offered load.
            time_wait_ns: 250_000_000,
            ..TcpConfig::default()
        };
        let mut stack = TcpStack::new(client_ip, tcp_cfg);
        stack.set_port_range(cfg.port_range.0, cfg.port_range.1);
        let mut io = FrameIo::new(client_ip, client_mac);
        for (a, m) in arp_seed {
            io.seed_arp(a, m);
        }
        HttperfProc {
            name: name.into(),
            request: http::format_request(&cfg.path, true),
            cfg,
            nic,
            stack,
            io,
            conns: FxHashMap::default(),
            timer: None,
            timer_fires: TimerFires::new("httperf"),
            drain_owed: false,
            metrics,
            obs: ClientObs::new(),
        }
    }

    fn open_conn(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.charge(calibration::CLIENT_CONN);
        let now = ctx.now().as_nanos();
        if let Ok(sock) = self
            .stack
            .connect(self.cfg.target.0, self.cfg.target.1, now)
        {
            if let Some(algo) = self.cfg.congestion {
                let _ = self.stack.set_congestion(sock, algo);
            }
            self.conns.insert(
                sock,
                ConnRun {
                    parser: http::StreamParser::new(),
                    requests_done: 0,
                    counted: 0,
                    sent_at: None,
                },
            );
        }
    }

    /// Read all that waits on `sock` where it lies in the receive ring:
    /// every byte goes to the stream digest, then to the connection's
    /// parser, which keeps heads only. Returns the bytes read, the
    /// responses completed (none past the connection's last request) and
    /// their body bytes.
    fn read_responses(&mut self, sock: SocketId) -> (usize, u32, u64) {
        let waiting = self.stack.recv_available(sock);
        if waiting == 0 {
            return (0, 0, 0);
        }
        let mut run = self.conns.get_mut(&sock);
        // The response that ends the connection is the last that counts;
        // the first always does.
        let per_conn = self.cfg.requests_per_conn;
        let last = run
            .as_deref()
            .map_or(0, |r| per_conn.saturating_sub(r.requests_done).max(1));
        let (mut responses, mut body_bytes) = (0, 0);
        let n = self.stack.recv_with(sock, waiting, |half| {
            self.metrics.borrow_mut().digest_bytes(half);
            if let Some(run) = run.as_deref_mut() {
                run.parser.push_counting(half, |resp| {
                    if responses < last {
                        responses += 1;
                        body_bytes += resp.body_len as u64;
                    }
                });
            }
        });
        (n.unwrap_or(0), responses, body_bytes)
    }

    fn issue_request(&mut self, ctx: &mut Ctx<'_, Msg>, sock: SocketId) {
        ctx.charge(calibration::CLIENT_REQUEST);
        let now = ctx.now().as_nanos();
        let _ = self.stack.send(sock, &self.request);
        if let Some(run) = self.conns.get_mut(&sock) {
            run.sent_at = Some(now);
        }
    }

    fn conn_failed(&mut self, ctx: &mut Ctx<'_, Msg>, sock: SocketId) {
        if let Some(run) = self.conns.remove(&sock) {
            let mut m = self.metrics.borrow_mut();
            m.conn_errors += 1;
            m.requests_on_error_conns += run.counted;
            drop(m);
            self.obs.conn_errors.inc();
            let _ = self.stack.abort(sock);
            // Replace the connection to hold the offered load constant.
            self.open_conn(ctx);
        }
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().as_nanos();
        // --- stack events ---
        while let Some(ev) = self.stack.poll_event() {
            match ev {
                SockEvent::Connected(sock) => {
                    if self.conns.contains_key(&sock) {
                        self.issue_request(ctx, sock);
                    }
                }
                SockEvent::Readable(sock) => {
                    let (n, responses, body_bytes) = self.read_responses(sock);
                    ctx.charge(calibration::copy_cost(n));
                    let Some(run) = self.conns.get_mut(&sock) else {
                        continue;
                    };
                    self.metrics.borrow_mut().response_bytes += body_bytes;
                    let mut finished = false;
                    for _ in 0..responses {
                        let mut m = self.metrics.borrow_mut();
                        if let Some(t0) = run.sent_at.take() {
                            let d = now.saturating_sub(t0);
                            m.latency.record(d);
                            self.obs.latency.observe(d);
                        }
                        m.completed += 1;
                        drop(m);
                        self.obs.completed.inc();
                        run.counted += 1;
                        run.requests_done += 1;
                        if run.requests_done >= self.cfg.requests_per_conn {
                            finished = true;
                            break;
                        }
                        // Next request on the persistent connection
                        // (after any configured think time).
                        if self.cfg.think_ns > 0 {
                            ctx.set_timer(Time::from_nanos(self.cfg.think_ns), TOK_THINK + sock.0);
                        } else {
                            ctx.charge(calibration::CLIENT_REQUEST);
                            let _ = self.stack.send(sock, &self.request);
                            run.sent_at = Some(now);
                        }
                    }
                    if finished {
                        self.conns.remove(&sock);
                        let _ = self.stack.close(sock, now);
                        self.open_conn(ctx);
                    }
                }
                SockEvent::Aborted(sock) => {
                    self.conn_failed(ctx, sock);
                }
                SockEvent::Closed(_)
                | SockEvent::PeerClosed(_)
                | SockEvent::Writable(_)
                | SockEvent::Acceptable(_) => {}
            }
        }
        // --- wire out ---
        self.io.send_tcp(&mut self.stack, now, || {
            ctx.charge(calibration::TCP_TX_SEG / 2) // fast client cores
        });
        for frame in self.io.drain_out() {
            ctx.send(self.nic, Msg::NetTx(frame));
        }
        // --- timers ---
        follow_deadline(ctx, &mut self.timer, self.stack.next_timeout(), TOK_STACK);
    }

    /// Classify one inbound frame and feed any TCP segment to the stack
    /// (no drain: `settle` runs it once per wakeup).
    fn absorb_frame(&mut self, ctx: &mut Ctx<'_, Msg>, frame: &neat_net::PktBuf) {
        let now = ctx.now().as_nanos();
        if let RxClass::Tcp { src, seg } = self.io.classify_rx(frame, now) {
            ctx.charge(calibration::TCP_RX_SEG / 2);
            if let Ok((h, range)) = neat_net::TcpHeader::parse(&seg, src, self.stack.local_ip) {
                self.stack.handle_segment(src, &h, &seg[range], now);
            }
        }
    }

    fn scan_timeouts(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().as_nanos();
        let mut timed_out: Vec<SocketId> = self
            .conns
            .iter()
            .filter(|(_, r)| {
                r.sent_at
                    .map(|t| now.saturating_sub(t) > self.cfg.timeout_ns)
                    .unwrap_or(false)
            })
            .map(|(s, _)| *s)
            .collect();
        // Each failure aborts, reconnects and takes the next ephemeral port:
        // the order must not be `conns`' hash order.
        timed_out.sort_unstable();
        for sock in timed_out {
            self.conn_failed(ctx, sock);
        }
        // Also replace connections that failed to even open (SYN lost to a
        // dead replica etc. — the stack reports those via Aborted, handled
        // above).
        ctx.set_timer(Time::from_millis(50), TOK_SCAN);
    }
}

impl Process<Msg> for HttperfProc {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Start => {
                // Register with the client NIC hub (ARP/default traffic).
                ctx.send(
                    self.nic,
                    Msg::Announce {
                        queue: 0,
                        head: ctx.self_id,
                    },
                );
                // Stagger the initial opens.
                for i in 0..self.cfg.num_conns as u64 {
                    let at = Time::from_nanos(1 + i * OPEN_SPACING_NS);
                    ctx.set_timer(at, TOK_OPEN + i);
                }
                ctx.set_timer(Time::from_millis(50), TOK_SCAN);
            }
            Event::Timer { token } => match token {
                t if t >= TOK_OPEN => {
                    self.open_conn(ctx);
                    self.drain(ctx);
                }
                TOK_SCAN => {
                    self.scan_timeouts(ctx);
                    self.drain(ctx);
                }
                t if t >= TOK_THINK => {
                    let sock = SocketId(t - TOK_THINK);
                    if self.conns.contains_key(&sock) {
                        self.issue_request(ctx, sock);
                        self.drain(ctx);
                    }
                }
                _ => {
                    self.timer = None;
                    let now = ctx.now().as_nanos();
                    self.timer_fires.record(self.stack.next_timeout(), now);
                    self.stack.on_timer(now);
                    self.drain(ctx);
                }
            },
            Event::Message { msg, .. } => {
                if let Msg::NetRx(frame) = msg {
                    self.absorb_frame(ctx, &frame);
                    self.drain_owed = true;
                }
            }
        }
    }

    fn settle(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if std::mem::take(&mut self.drain_owed) {
            self.drain(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_net::tcp::TcpFlags;
    use neat_sim::{MachineSpec, Sim, SimConfig};

    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 100);

    /// A think token carries the whole socket id — past 2^32 as most ids
    /// are, up to the 2^62 bound — and stays below the open tokens.
    #[test]
    fn think_tokens_carry_whole_ids() {
        for id in [1, 1 << 32, (1 << 62) - 1] {
            let token = TOK_THINK + id;
            assert!(token < TOK_OPEN && token - TOK_THINK == id, "{id:#x}");
        }
    }

    /// The digest is a function of the byte sequence alone: any way of
    /// cutting a stream into `digest_bytes` calls gives one value, and a
    /// stream that differs in one byte gives another.
    #[test]
    fn rx_digest_depends_on_the_bytes_not_on_the_chunking() {
        use neat_util::check::{bytes, check, vec_of, Config};
        use neat_util::{prop_assert, prop_assert_eq};
        let digest = |stream: &[u8], cuts: &[usize]| {
            let mut m = ClientMetrics::default();
            let mut rest = stream;
            for cut in cuts {
                let (head, tail) = rest.split_at(cut % (rest.len() + 1));
                m.digest_bytes(head);
                rest = tail;
            }
            m.digest_bytes(rest);
            m.rx_digest
        };
        assert_eq!(ClientMetrics::default().rx_digest, 0, "zero until fed");
        check(
            "rx_digest_depends_on_the_bytes_not_on_the_chunking",
            Config::default().cases(256),
            |rng| {
                (
                    bytes(rng, 1..400),
                    vec_of(rng, 0..12, |r| r.gen_range(0usize..64)),
                    rng.gen::<usize>(),
                    rng.gen_range(1u8..=255),
                )
            },
            |(stream, cuts, at, flip)| {
                if stream.is_empty() || flip == 0 {
                    return Ok(());
                }
                let whole = digest(&stream, &[]);
                prop_assert!(whole != 0);
                prop_assert_eq!(digest(&stream, &cuts), whole);
                let mut other = stream.clone();
                other[at % stream.len()] ^= flip;
                prop_assert!(digest(&other, &cuts) != whole, "one byte changed");
                // A trailing zero byte is a byte too.
                other = stream.clone();
                other.push(0);
                prop_assert!(digest(&other, &cuts) != whole, "one byte more");
                Ok(())
            },
        );
    }

    /// One client frame as the wire saw it: when, source port, flags.
    type WireLog = Rc<RefCell<Vec<(Time, u16, TcpFlags)>>>;

    /// NIC, wire and server in one process: completes handshakes and ACKs
    /// requests but never answers one, so every request times out.
    struct MutePeer {
        stack: TcpStack,
        io: FrameIo,
        log: WireLog,
    }

    impl Process<Msg> for MutePeer {
        fn name(&self) -> String {
            "mute-peer".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
            let Event::Message {
                from,
                msg: Msg::NetTx(frame),
            } = ev
            else {
                return;
            };
            let now = ctx.now().as_nanos();
            if let RxClass::Tcp { src, seg } = self.io.classify_rx(&frame, now) {
                let (h, range) = neat_net::TcpHeader::parse(&seg, src, SERVER_IP).unwrap();
                self.log.borrow_mut().push((ctx.now(), h.src_port, h.flags));
                self.stack.handle_segment(src, &h, &seg[range], now);
            }
            self.io.send_tcp(&mut self.stack, now, || {});
            for f in self.io.drain() {
                ctx.send(from, Msg::NetRx(f));
            }
        }
    }

    /// Six requests time out in one 50 ms scan. Each failure sends an RST
    /// and opens a replacement on the next ephemeral port, so the wire
    /// shows which replacement stood in for which failed connection: it
    /// must be socket-id order (= original port order), not `conns`' hash
    /// order, which differs from process to process.
    #[test]
    fn same_scan_timeouts_are_replaced_in_socket_id_order() {
        let mut sim: Sim<Msg> = Sim::new(SimConfig::default());
        let m = sim.add_machine(MachineSpec::amd_opteron_6168());
        let log = WireLog::default();
        let (peer_mac, client_mac) = (MacAddr::local(1), MacAddr::local(2));
        let mut peer = MutePeer {
            stack: TcpStack::new(SERVER_IP, TcpConfig::default()),
            io: FrameIo::new(SERVER_IP, peer_mac),
            log: log.clone(),
        };
        peer.io.seed_arp(CLIENT_IP, client_mac);
        peer.stack.listen(8000).unwrap();
        let peer = sim.spawn(sim.hw_thread(m, 0, 0), Box::new(peer));
        let cfg = HttperfConfig {
            target: (SERVER_IP, 8000),
            num_conns: 6,
            requests_per_conn: 100,
            path: "/file".into(),
            timeout_ns: 10_000_000,
            port_range: (49_152, 50_151),
            think_ns: 0,
            congestion: None,
        };
        let client = HttperfProc::new(
            "httperf",
            cfg,
            peer,
            CLIENT_IP,
            client_mac,
            vec![(SERVER_IP, peer_mac)],
            Rc::default(),
        );
        sim.spawn(sim.hw_thread(m, 1, 0), Box::new(client));
        sim.run_until(Time::from_millis(60));

        // (port of the failed connection, port of its replacement), in the
        // order the scan at 50 ms put them on the wire.
        let log = log.borrow();
        let scan: Vec<_> = log
            .iter()
            .filter(|(t, _, f)| *t >= Time::from_millis(50) && (f.rst || f.syn))
            .collect();
        let mut pairs: Vec<(u16, u16)> = scan
            .chunks(2)
            .map(|c| {
                assert!(
                    c[0].2.rst && c[1].2.syn,
                    "RST then SYN per failure: {scan:?}"
                );
                (c[0].1, c[1].1)
            })
            .collect();
        assert_eq!(pairs.len(), 6, "all six timed out in the one scan");
        pairs.sort_unstable();
        assert!(
            pairs.windows(2).all(|w| w[0].1 < w[1].1),
            "replacement ports ascend with the failed socket's id: {pairs:?}"
        );
    }
}
