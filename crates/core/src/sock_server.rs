//! The stack-side half of the socket fast path (§3.2).
//!
//! Each replica's socket-owning component (the TCP process in
//! multi-component mode, the whole replica in single-component mode) embeds
//! a [`SockServer`]: a [`TcpStack`] plus the bookkeeping that maps sockets
//! to their owning application processes and translates stack events into
//! fast-path messages. The paper's "mostly system-call-less" design means
//! these messages model shared-memory queue operations, not kernel calls.

use crate::msg::{ConnHandle, Msg, ReplFlow, ReplPayload};
use neat_net::{FlowKey, TcpHeader};
use neat_sim::ProcId;
use neat_tcp::{SockEvent, SocketId, TcpConfig, TcpSocket, TcpStack};
use neat_util::FxHashMap;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// What the server keeps for one connection socket, from `Connect` /
/// accept / restore until the stack's `Closed` or a migration export.
#[derive(Debug)]
struct Conn {
    /// The owning application.
    owner: ProcId,
    /// The token of an active open that has not completed yet.
    connecting: Option<u64>,
    /// Data accepted from the app but not yet pushed into the stack
    /// (send-buffer backpressure).
    backlog: VecDeque<u8>,
    /// Application stream bytes the stack has accepted — the
    /// replication-side half of the output-commit contract: a migrated
    /// library compares this against its own sent counter and resends
    /// the difference.
    app_bytes: u64,
}

impl Conn {
    fn new(owner: ProcId, connecting: Option<u64>, app_bytes: u64) -> Conn {
        Conn {
            owner,
            connecting,
            backlog: VecDeque::new(),
            app_bytes,
        }
    }

    /// Push queued app data into the stack, 16 KiB at a time, straight
    /// from the queue's own storage.
    fn flush_backlog(&mut self, stack: &mut TcpStack, sock: SocketId) {
        while !self.backlog.is_empty() {
            let len = self.backlog.len().min(16 * 1024);
            match stack.send(sock, &self.backlog.make_contiguous()[..len]) {
                Ok(n) if n > 0 => {
                    self.backlog.drain(..n);
                    self.app_bytes += n as u64;
                }
                _ => break,
            }
        }
        if self.backlog.is_empty() {
            self.backlog = VecDeque::new(); // don't sit on a reply-sized buffer
        }
    }
}

/// Stack-side socket service.
#[derive(Debug)]
pub struct SockServer {
    pub stack: TcpStack,
    /// Connection socket → its one record.
    conns: FxHashMap<SocketId, Conn>,
    /// Listener socket → (port, owning application).
    listeners: FxHashMap<SocketId, (u16, ProcId)>,
    /// Messages owed to applications.
    to_app: Vec<(ProcId, Msg)>,
}

impl SockServer {
    pub fn new(local_ip: Ipv4Addr, cfg: TcpConfig) -> SockServer {
        SockServer {
            stack: TcpStack::new(local_ip, cfg),
            conns: FxHashMap::default(),
            listeners: FxHashMap::default(),
            to_app: Vec::new(),
        }
    }

    /// Handle one application fast-path message. Returns the number of
    /// socket operations performed (for cost charging).
    pub fn handle_app(&mut self, from: ProcId, msg: Msg, now: u64) -> u32 {
        match msg {
            Msg::Listen { port, app } => {
                if let Ok(lid) = self.stack.listen(port) {
                    self.listeners.insert(lid, (port, app));
                }
                self.to_app.push((from, Msg::ListenOk { port }));
                1
            }
            Msg::Connect { remote, app, token } => {
                match self.stack.connect(remote.0, remote.1, now) {
                    Ok(sock) => {
                        self.conns.insert(sock, Conn::new(app, Some(token), 0));
                    }
                    Err(_) => self.to_app.push((app, Msg::ConnFailed { token })),
                }
                1
            }
            Msg::ConnSend { sock, data } => {
                // A send that raced the stack's `Closed` has no record
                // left to queue on: dropped, like a write to a dead fd.
                if let Some(c) = self.conns.get_mut(&sock) {
                    // With nothing queued ahead the reply's own buffer is
                    // the queue: what the stack has no room for waits in
                    // place, and nothing is copied but into the stack.
                    if c.backlog.is_empty() {
                        c.backlog = data.into();
                    } else {
                        c.backlog.extend(data);
                    }
                    c.flush_backlog(&mut self.stack, sock);
                }
                1
            }
            Msg::ConnClose { sock } => {
                let _ = self.stack.close(sock, now);
                1
            }
            Msg::SetSockOpt { sock, opt } => {
                let _ = self.stack.set_opt(sock, opt);
                1
            }
            _ => 0,
        }
    }

    /// Translate queued stack events into application messages. `me` is
    /// the pid handles should reference. Returns (events handled,
    /// connections opened, connections closed) for cost charging.
    pub fn process_events(&mut self, me: ProcId) -> (u32, u32, u32) {
        let mut handled = 0;
        let mut opened = 0;
        let mut closed = 0;
        let handle = |sock| ConnHandle { stack: me, sock };
        while let Some(ev) = self.stack.poll_event() {
            handled += 1;
            match ev {
                SockEvent::Acceptable(lid) => {
                    let Some((port, app)) = self.listeners.get(&lid).copied() else {
                        continue;
                    };
                    while let Ok(sock) = self.stack.accept(lid) {
                        self.conns.insert(sock, Conn::new(app, None, 0));
                        opened += 1;
                        let conn = handle(sock);
                        self.to_app.push((app, Msg::Incoming { port, conn }));
                        // Data may already have arrived with the handshake.
                        self.pump_readable(me, sock);
                    }
                }
                SockEvent::Connected(sock) => {
                    let Some(c) = self.conns.get_mut(&sock) else {
                        continue;
                    };
                    if let Some(token) = c.connecting.take() {
                        opened += 1;
                        let conn = handle(sock);
                        self.to_app.push((c.owner, Msg::ConnOpen { conn, token }));
                    }
                }
                SockEvent::Readable(sock) => {
                    self.pump_readable(me, sock);
                }
                SockEvent::Writable(sock) => {
                    if let Some(c) = self.conns.get_mut(&sock) {
                        c.flush_backlog(&mut self.stack, sock);
                    }
                }
                SockEvent::PeerClosed(sock) => {
                    // Drain any remaining data first, then signal EOF.
                    self.pump_readable(me, sock);
                    if let Some(c) = self.conns.get(&sock) {
                        let conn = handle(sock);
                        self.to_app.push((c.owner, Msg::ConnEof { conn }));
                    }
                }
                SockEvent::Closed(sock) | SockEvent::Aborted(sock) => {
                    let aborted = matches!(ev, SockEvent::Aborted(_));
                    let Some(c) = self.conns.remove(&sock) else {
                        continue;
                    };
                    if let Some(token) = c.connecting {
                        // Active open failed.
                        self.to_app.push((c.owner, Msg::ConnFailed { token }));
                    } else {
                        closed += 1;
                        let conn = handle(sock);
                        self.to_app
                            .push((c.owner, Msg::ConnClosed { conn, aborted }));
                    }
                }
            }
        }
        (handled, opened, closed)
    }

    fn pump_readable(&mut self, me: ProcId, sock: SocketId) {
        let Some(app) = self.conns.get(&sock).map(|c| c.owner) else {
            return;
        };
        // One read into the buffer the payload leaves in, sized to what
        // waits.
        let mut data = vec![0u8; self.stack.recv_available(sock)];
        if data.is_empty() {
            return; // and an empty read would still mark the socket dirty
        }
        if let Ok(n @ 1..) = self.stack.recv(sock, &mut data) {
            data.truncate(n);
            let conn = ConnHandle { stack: me, sock };
            self.to_app.push((app, Msg::ConnData { conn, data }));
        }
    }

    /// One inbound TCP segment (post-IP bytes) from `src`. A bad checksum
    /// or malformed header is silently dropped, like hardware would.
    pub fn rx_segment(&mut self, src: Ipv4Addr, seg: &[u8], now: u64) {
        if let Ok((h, range)) = TcpHeader::parse(seg, src, self.stack.local_ip) {
            self.stack.handle_segment(src, &h, &seg[range], now);
        }
    }

    /// The application messages produced so far, leaving the queue its
    /// storage.
    pub fn drain_app_msgs(&mut self) -> std::vec::Drain<'_, (ProcId, Msg)> {
        self.to_app.drain(..)
    }

    /// [`Self::drain_app_msgs`] as a list of its own.
    pub fn take_app_msgs(&mut self) -> Vec<(ProcId, Msg)> {
        self.drain_app_msgs().collect()
    }

    /// Wire segments owed: `(dst ip, raw TCP bytes)`, each built in the
    /// one buffer it is returned in.
    pub fn poll_wire(&mut self, now: u64) -> Vec<(Ipv4Addr, Vec<u8>)> {
        let mut out = Vec::new();
        let mut seg = Vec::new();
        while let Some(dst) = self.stack.poll_transmit_into(now, &mut seg) {
            out.push((dst, std::mem::take(&mut seg)));
        }
        out
    }

    pub fn next_timeout(&self) -> Option<u64> {
        self.stack.next_timeout()
    }

    pub fn on_timer(&mut self, now: u64) {
        self.stack.on_timer(now);
        // Timer ticks are the natural low-frequency heartbeat to refresh
        // the `tcp.conn.*` memory gauges from this replica's budget.
        self.stack.publish_mem_gauges();
    }

    /// Live connection count (lazy-termination GC input, §3.4).
    pub fn conn_count(&self) -> usize {
        self.stack.conn_count()
    }

    /// Accounted connection-memory budget of the underlying stack.
    pub fn budget(&self) -> &neat_tcp::ConnBudget {
        self.stack.budget()
    }

    // ------------------------------------------------------------------
    // Flow replication & migration
    // ------------------------------------------------------------------

    /// Enable (or disable) checkpoint-delta tracking in the stack.
    pub fn set_repl_tracking(&mut self, on: bool) {
        self.stack.set_repl_tracking(on);
    }

    /// This flush's checkpoint for the buddy: every app-bound replicable
    /// flow touched since the last call and the flows that closed, or with
    /// `full` every app-bound replicable flow.
    pub fn checkpoint(&mut self, full: bool) -> ReplPayload {
        let mut flows = Vec::new();
        let mut closed = self.stack.take_repl_closed();
        if full {
            // The full image supersedes the dirty and closed sets: drop
            // them unencoded.
            self.stack.take_repl_dirty(|_, _| {});
            closed = Vec::new();
            self.stack.export_all_conns(bind(&self.conns, &mut flows));
        } else {
            self.stack.take_repl_dirty(bind(&self.conns, &mut flows));
        }
        ReplPayload {
            full,
            flows,
            closed,
        }
    }

    /// Adopt replicated flows (failover restore or live-migration import).
    /// `old` is the replica the flows lived in. Each successful restore
    /// rebinds the owning app via [`Msg::ConnMigrated`] and is returned so
    /// the supervisor can re-steer the flow to this replica's queue.
    pub fn restore_flows(&mut self, me: ProcId, old: ProcId, flows: Vec<ReplFlow>) -> Vec<FlowKey> {
        let mut restored = Vec::new();
        for f in flows {
            match self.stack.restore_conn(&f.img) {
                None => neat_obs::counter_add("repl.decode_errors", 1),
                Some(Err(_)) => neat_obs::counter_add("repl.restore_refused", 1),
                Some(Ok(new_id)) => {
                    self.conns
                        .insert(new_id, Conn::new(f.owner, None, f.app_bytes));
                    self.to_app.push((
                        f.owner,
                        Msg::ConnMigrated {
                            old: ConnHandle {
                                stack: old,
                                sock: f.old_sock,
                            },
                            new: ConnHandle {
                                stack: me,
                                sock: new_id,
                            },
                            app_bytes: f.app_bytes,
                        },
                    ));
                    restored.push(f.flow);
                }
            }
        }
        restored
    }

    /// Export every app-bound established flow for live migration and
    /// remove them locally — silently (no FIN/RST/user event): the flows
    /// keep living in the target replica. Unbound accept-queue residents
    /// stay behind and drain normally.
    pub fn export_for_migration(&mut self) -> Vec<ReplFlow> {
        let mut exported = Vec::new();
        self.stack
            .export_all_conns(bind(&self.conns, &mut exported));
        for f in &exported {
            self.stack.remove_conn(f.old_sock);
            self.conns.remove(&f.old_sock);
        }
        exported
    }
}

/// The one place a [`ReplFlow`] is built: the visitor the stack calls
/// with each socket it checkpoints. Flows not yet bound to an app
/// (accept-queue residents) are skipped — there is no application handle
/// to rebind on the far side.
fn bind<'a>(
    conns: &'a FxHashMap<SocketId, Conn>,
    out: &'a mut Vec<ReplFlow>,
) -> impl FnMut(FlowKey, &TcpSocket) + 'a {
    move |flow, sock| {
        if let Some(c) = conns.get(&sock.id) {
            out.push(ReplFlow {
                flow,
                old_sock: sock.id,
                owner: c.owner,
                app_bytes: c.app_bytes,
                img: sock.checkpoint(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);
    const APP: ProcId = ProcId(77);
    const ME: ProcId = ProcId(50);

    fn cfg() -> TcpConfig {
        TcpConfig {
            initial_rto_ns: 50_000_000,
            ..TcpConfig::default()
        }
    }

    /// Drive a client-side raw TcpStack against a SockServer.
    fn pump(client: &mut TcpStack, srv: &mut SockServer, now: u64) {
        loop {
            let mut moved = false;
            while let Some((_, h, p)) = client.poll_transmit(now) {
                let bytes = h.emit(&p, CLIENT, SERVER);
                let (g, r) = TcpHeader::parse(&bytes, CLIENT, SERVER).unwrap();
                srv.stack.handle_segment(CLIENT, &g, &bytes[r], now);
                moved = true;
            }
            srv.process_events(ME);
            for (dst, seg) in srv.poll_wire(now) {
                assert_eq!(dst, CLIENT);
                let (g, r) = TcpHeader::parse(&seg, SERVER, CLIENT).unwrap();
                client.handle_segment(SERVER, &g, &seg[r], now);
                moved = true;
            }
            if !moved {
                break;
            }
        }
    }

    #[test]
    fn listen_accept_incoming_flow() {
        let mut srv = SockServer::new(SERVER, cfg());
        let mut client = TcpStack::new(CLIENT, cfg());
        srv.handle_app(APP, Msg::Listen { port: 80, app: APP }, 0);
        let msgs = srv.take_app_msgs();
        assert!(matches!(msgs[0].1, Msg::ListenOk { port: 80 }));
        client.connect(SERVER, 80, 0).unwrap();
        pump(&mut client, &mut srv, 0);
        let msgs = srv.take_app_msgs();
        let incoming = msgs
            .iter()
            .find(|(_, m)| matches!(m, Msg::Incoming { .. }))
            .expect("incoming connection surfaced to the app");
        assert_eq!(incoming.0, APP);
    }

    #[test]
    fn data_flows_to_app_and_back() {
        let mut srv = SockServer::new(SERVER, cfg());
        let mut client = TcpStack::new(CLIENT, cfg());
        srv.handle_app(APP, Msg::Listen { port: 80, app: APP }, 0);
        srv.take_app_msgs();
        let cconn = client.connect(SERVER, 80, 0).unwrap();
        pump(&mut client, &mut srv, 0);
        let conn = match srv.take_app_msgs().into_iter().find_map(|(_, m)| match m {
            Msg::Incoming { conn, .. } => Some(conn),
            _ => None,
        }) {
            Some(c) => c,
            None => panic!("no incoming"),
        };
        // Client sends a request.
        client.send(cconn, b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        pump(&mut client, &mut srv, 1000);
        let data = srv
            .take_app_msgs()
            .into_iter()
            .find_map(|(_, m)| match m {
                Msg::ConnData { data, .. } => Some(data),
                _ => None,
            })
            .expect("request delivered to app");
        assert_eq!(data, b"GET /x HTTP/1.1\r\n\r\n");
        // App responds through the fast path.
        srv.handle_app(
            APP,
            Msg::ConnSend {
                sock: conn.sock,
                data: b"HTTP/1.1 200 OK\r\n\r\n".to_vec(),
            },
            2000,
        );
        pump(&mut client, &mut srv, 2000);
        let mut buf = [0u8; 128];
        let n = client.recv(cconn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"HTTP/1.1 200 OK\r\n\r\n");
    }

    #[test]
    fn eof_and_close_surface_to_app() {
        let mut srv = SockServer::new(SERVER, cfg());
        let mut client = TcpStack::new(CLIENT, cfg());
        srv.handle_app(APP, Msg::Listen { port: 80, app: APP }, 0);
        srv.take_app_msgs();
        let cconn = client.connect(SERVER, 80, 0).unwrap();
        pump(&mut client, &mut srv, 0);
        let conn = srv
            .take_app_msgs()
            .into_iter()
            .find_map(|(_, m)| match m {
                Msg::Incoming { conn, .. } => Some(conn),
                _ => None,
            })
            .unwrap();
        client.close(cconn, 100).unwrap();
        pump(&mut client, &mut srv, 100);
        let msgs = srv.take_app_msgs();
        assert!(
            msgs.iter().any(|(_, m)| matches!(m, Msg::ConnEof { .. })),
            "EOF surfaced: {msgs:?}"
        );
        // Server app closes its side; the connection winds down fully.
        srv.handle_app(APP, Msg::ConnClose { sock: conn.sock }, 200);
        pump(&mut client, &mut srv, 200);
        let msgs = srv.take_app_msgs();
        assert!(
            msgs.iter()
                .any(|(_, m)| matches!(m, Msg::ConnClosed { aborted: false, .. })),
            "close surfaced: {msgs:?}"
        );
    }

    fn app_msgs(srv: &mut SockServer) -> Vec<Msg> {
        srv.take_app_msgs().into_iter().map(|(_, m)| m).collect()
    }

    #[test]
    fn failed_active_open_leaves_no_record() {
        let mut srv = SockServer::new(SERVER, cfg());
        let mut client = TcpStack::new(CLIENT, cfg()); // nobody listens on 81
        let connect = Msg::Connect {
            remote: (CLIENT, 81),
            app: APP,
            token: 7,
        };
        srv.handle_app(APP, connect, 0);
        assert_eq!(srv.conns.len(), 1, "the open is on record while in flight");
        pump(&mut client, &mut srv, 0);
        let msgs = app_msgs(&mut srv);
        assert!(
            matches!(msgs[..], [Msg::ConnFailed { token: 7 }]),
            "the RST fails the open: {msgs:?}"
        );
        assert_eq!(srv.conns.len(), 0, "a failed open leaves nothing behind");
        assert_eq!(srv.conn_count(), 0);
    }

    #[test]
    fn send_to_a_closed_socket_is_dropped() {
        let mut srv = SockServer::new(SERVER, cfg());
        let mut client = TcpStack::new(CLIENT, cfg());
        srv.handle_app(APP, Msg::Listen { port: 80, app: APP }, 0);
        let cconn = client.connect(SERVER, 80, 0).unwrap();
        pump(&mut client, &mut srv, 0);
        let conn = app_msgs(&mut srv)
            .into_iter()
            .find_map(|m| match m {
                Msg::Incoming { conn, .. } => Some(conn),
                _ => None,
            })
            .unwrap();
        assert_eq!(srv.conns.len(), 1);
        client.abort(cconn).unwrap();
        pump(&mut client, &mut srv, 100);
        let msgs = app_msgs(&mut srv);
        assert!(
            matches!(msgs[..], [Msg::ConnClosed { aborted: true, .. }]),
            "the peer's RST closes the connection: {msgs:?}"
        );
        // The app's reply was already in flight when the close came out.
        let late = Msg::ConnSend {
            sock: conn.sock,
            data: vec![1; 100],
        };
        assert_eq!(srv.handle_app(APP, late, 200), 1, "still one socket op");
        assert_eq!(srv.conns.len(), 0, "nothing queues on a closed socket");
        assert!(srv.poll_wire(200).is_empty() && app_msgs(&mut srv).is_empty());
    }

    #[test]
    fn backlogged_sends_flush_on_writable() {
        let mut srv = SockServer::new(SERVER, cfg());
        let mut client = TcpStack::new(CLIENT, cfg());
        srv.handle_app(APP, Msg::Listen { port: 80, app: APP }, 0);
        srv.take_app_msgs();
        let cconn = client.connect(SERVER, 80, 0).unwrap();
        pump(&mut client, &mut srv, 0);
        let conn = srv
            .take_app_msgs()
            .into_iter()
            .find_map(|(_, m)| match m {
                Msg::Incoming { conn, .. } => Some(conn),
                _ => None,
            })
            .unwrap();
        // Push far more than the 64KB send buffer.
        let big = vec![5u8; 256 * 1024];
        srv.handle_app(
            APP,
            Msg::ConnSend {
                sock: conn.sock,
                data: big.clone(),
            },
            100,
        );
        // Only what the 64 KiB send buffer had no room for is queued...
        let c = &srv.conns[&conn.sock];
        assert_eq!((c.app_bytes, c.backlog.len()), (64 << 10, 192 << 10));
        // ...and a later send queues behind it, not ahead.
        let tail = vec![9u8; 1000];
        let data = tail.clone();
        let sock = conn.sock;
        srv.handle_app(APP, Msg::ConnSend { sock, data }, 100);
        assert_eq!(srv.conns[&sock].backlog.len(), (192 << 10) + 1000);
        let big = [big, tail].concat();
        // Drain repeatedly with timers (ACK clock).
        let mut received = Vec::new();
        let mut now = 100u64;
        for _ in 0..2000 {
            now += 1_000_000;
            srv.on_timer(now);
            client.on_timer(now);
            pump(&mut client, &mut srv, now);
            let mut buf = [0u8; 8192];
            while let Ok(n) = client.recv(cconn, &mut buf) {
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
            if received.len() >= big.len() {
                break;
            }
        }
        assert!(received == big, "entire backlog delivered, in order");
        assert!(srv.conns[&conn.sock].backlog.is_empty());
    }

    /// The `Vec`-returning shapes the frozen lane calls (`poll_wire`,
    /// `take_app_msgs`, `FrameIo::drain`) are adaptors: two servers driven
    /// in lock step over one scripted connection, one through them and one
    /// through the in-place forms, put the same frames on the wire and
    /// hand the application the same messages, in the same order.
    #[test]
    fn adaptors_return_what_the_in_place_forms_visit() {
        use crate::netcode::{FrameIo, RxClass};
        use neat_net::ipv4::IpProtocol;
        use neat_net::{MacAddr, PktBuf};

        struct Side {
            srv: SockServer,
            io: FrameIo,
            client: TcpStack,
            client_io: FrameIo,
        }
        type Out = (Vec<PktBuf>, Vec<(ProcId, Msg)>);
        let side = || {
            let mut s = Side {
                srv: SockServer::new(SERVER, cfg()),
                io: FrameIo::new(SERVER, MacAddr::local(1)),
                client: TcpStack::new(CLIENT, cfg()),
                client_io: FrameIo::new(CLIENT, MacAddr::local(2)),
            };
            s.io.seed_arp(CLIENT, MacAddr::local(2));
            s.srv.handle_app(APP, Msg::Listen { port: 80, app: APP }, 0);
            s
        };
        let adaptors = |s: &mut Side, now: u64| -> Out {
            for (dst, seg) in s.srv.poll_wire(now) {
                s.io.send_ip(dst, IpProtocol::Tcp, &seg, now);
            }
            (s.io.drain(), s.srv.take_app_msgs())
        };
        let in_place = |s: &mut Side, now: u64| -> Out {
            s.io.send_tcp(&mut s.srv.stack, now, || {});
            (s.io.drain_out().collect(), s.srv.drain_app_msgs().collect())
        };
        // Client segments in, server events, then everything the server
        // owes out through `flush` and back into the client.
        let round = |s: &mut Side, now: u64, flush: &dyn Fn(&mut Side, u64) -> Out| -> Out {
            while let Some((_, h, p)) = s.client.poll_transmit(now) {
                s.srv.rx_segment(CLIENT, &h.emit(&p, CLIENT, SERVER), now);
            }
            s.srv.process_events(ME);
            let out = flush(s, now);
            for frame in &out.0 {
                if let RxClass::Tcp { src, seg } = s.client_io.classify_rx(frame, now) {
                    let (h, range) = TcpHeader::parse(&seg, src, CLIENT).unwrap();
                    s.client.handle_segment(src, &h, &seg[range], now);
                }
            }
            out
        };

        let (mut a, mut b) = (side(), side());
        let (ca, cb) = (
            a.client.connect(SERVER, 80, 0),
            b.client.connect(SERVER, 80, 0),
        );
        assert_eq!(ca, cb);
        let conn = ca.unwrap();
        let (mut frames, mut msgs, mut sock) = (0, 0, None);
        for step in 0..40u64 {
            let now = step * 1_000_000;
            match step {
                4 => assert_eq!(a.client.send(conn, b"GET /"), b.client.send(conn, b"GET /")),
                8 => {
                    let data = vec![7u8; 5000];
                    let sock = sock.expect("accepted by now");
                    let reply = |data| Msg::ConnSend { sock, data };
                    a.srv.handle_app(APP, reply(data.clone()), now);
                    b.srv.handle_app(APP, reply(data), now);
                }
                16 => assert_eq!(a.client.close(conn, now), b.client.close(conn, now)),
                20 => {
                    let sock = sock.expect("accepted by now");
                    a.srv.handle_app(APP, Msg::ConnClose { sock }, now);
                    b.srv.handle_app(APP, Msg::ConnClose { sock }, now);
                }
                _ => {}
            }
            for s in [&mut a, &mut b] {
                s.srv.on_timer(now);
                s.client.on_timer(now);
            }
            let (got, want) = (round(&mut a, now, &adaptors), round(&mut b, now, &in_place));
            assert_eq!(got.0, want.0, "frames at step {step}");
            assert_eq!(
                format!("{:?}", got.1),
                format!("{:?}", want.1),
                "step {step}"
            );
            frames += got.0.len();
            msgs += got.1.len();
            for (_, m) in got.1 {
                if let Msg::Incoming { conn, .. } = m {
                    sock = Some(conn.sock);
                }
            }
        }
        // Handshake, request, a reply of several segments, both closes.
        assert!(frames >= 8 && msgs >= 5, "{frames} frames, {msgs} messages");
        assert_eq!((a.srv.conn_count(), b.srv.conn_count()), (0, 0));
    }
}
