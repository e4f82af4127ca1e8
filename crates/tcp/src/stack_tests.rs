//! Tests for `TcpStack` (kept out-of-line so `stack.rs` stays under
//! the CI module-size guard; `#[path]` inclusion keeps private-field
//! access via `use super::*`).

use super::*;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const MS: u64 = 1_000_000;

impl TcpStack {
    /// All live socket ids.
    pub(crate) fn socket_ids(&self) -> Vec<SocketId> {
        self.slots.iter().map(|slot| slot.sock.id).collect()
    }

    /// Ids of retired TIME-WAIT connections.
    pub(crate) fn time_wait_ids(&self) -> Vec<SocketId> {
        self.time_waits.iter().map(|(id, _)| id).collect()
    }

    /// The segment a retired connection's peer sends when our final ACK
    /// is lost: its FIN again. `None` unless `id` names a record still in
    /// TIME-WAIT.
    pub(crate) fn time_wait_probe(&self, id: SocketId) -> Option<TcpHeader> {
        let tw = self.time_waits.get(id)?;
        (tw.state() == TcpState::TimeWait).then(|| tw.peer_fin())
    }

    /// A socket's (local, remote) ports.
    pub(crate) fn ports(&self, id: SocketId) -> Option<(u16, u16)> {
        self.sock(id).map(|s| (s.local_port, s.remote_port))
    }

    /// Every structure that names a connection agrees with the slot and
    /// record tables (ROADMAP item 4a: demux ↔ socket table ↔ TIME-WAIT
    /// records ↔ timer wheel ↔ budget ↔ listener queues). Panics on the
    /// first disagreement.
    pub(crate) fn check_consistent(&self) {
        // Every slot sits in the seat its id names, and slots and records
        // pair off one to one with demux entries (listeners have none).
        self.slots.check();
        let conns = self.slots.len() + self.time_waits.len();
        assert_eq!(self.conns.len(), conns, "demux vs slots and records");
        // A record holds its flow's demux entry, its dirty-queue entry as
        // flagged and the wheel entry for its deadline, and no slot.
        for (id, tw) in self.time_waits.iter() {
            assert!(self.slots.get(id).is_none(), "{id:?} in both tables");
            assert_eq!(self.conns.get(&tw.flow(self.local_ip)), Some(&id), "{id:?}");
            let queued = self.dirty.iter().filter(|q| **q == id).count();
            assert_eq!(queued, tw.queued() as usize, "{id:?} in dirty");
            let key = time_wait::key(id);
            let deadline = self.timers.deadline_of(tw.timer(), key);
            assert_eq!(deadline, tw.next_timeout(), "{id:?}");
            assert_eq!(time_wait::id_of(key), Some(id));
        }
        let mut pending: FxHashMap<u16, usize> = FxHashMap::default();
        for slot in self.slots.iter() {
            let id = &slot.sock.id;
            assert_eq!(self.conns.get(&flow_of(&slot.sock)), Some(id), "{id:?}");
            let queued = self.dirty.iter().filter(|q| *q == id).count();
            assert_eq!(queued, slot.queued as usize, "{id:?} in dirty");
            let tracked = self.repl_dirty.iter().flatten().filter(|t| *t == id);
            assert_eq!(
                tracked.count(),
                slot.repl_dirty as usize,
                "{id:?} in repl_dirty"
            );
            if let Some(port) = slot.pending.map(NonZeroU16::get) {
                assert!(
                    self.listeners.contains_key(&port),
                    "{id:?} pending on {port}"
                );
                *pending.entry(port).or_default() += 1;
            }
        }
        // The budget holds exactly the slots' accounted bytes and the
        // records', and the parked storages apart.
        assert_eq!(self.budget.conns(), conns, "budget conns");
        let accounted: usize = self.slots.iter().map(|s| s.sock.accounted()).sum();
        let records = self.time_waits.len() * time_wait::RECORD_BYTES;
        assert_eq!(
            self.budget.bytes_total(),
            (accounted + records) as u64,
            "budget bytes"
        );
        let f = self.footprint();
        let parked = (f.spare_send + f.spare_recv) as u64;
        assert_eq!(self.budget.spare_bytes(), parked, "budget spare bytes");
        // A listener's backlog + accept queue are its pending slots.
        for (port, l) in &self.listeners {
            assert_eq!(self.listener_of.get(&l.id), Some(port));
            let want = pending.get(port).copied().unwrap_or(0);
            assert_eq!(l.syn_backlog + l.accept_q.len(), want, "port {port}");
            for id in &l.accept_q {
                let slot = self.slots.get(*id).map(|s| s.pending);
                assert_eq!(slot, Some(NonZeroU16::new(*port)), "{id:?} queued");
            }
        }
        // Every armed wheel entry's key names a slot or record whose handle
        // names that entry, and every deadline armed has its entry.
        for (at, key) in self.timers.armed() {
            let owner = match time_wait::id_of(key) {
                Some(id) => self.time_waits.get(id).map(TimeWait::timer),
                None => self.slots.get(SocketId(key)).map(|slot| slot.timer),
            };
            assert_eq!(owner, Some(at), "wheel key {key:#x}");
        }
        let armed = |slot: &&Slot| {
            self.timers
                .deadline_of(slot.timer, slot.sock.id.0)
                .is_some()
        };
        let records = (self.time_waits.iter()).filter(|(_, tw)| tw.next_timeout().is_some());
        let armed = self.slots.iter().filter(armed).count() + records.count();
        assert_eq!(armed, self.timers.len(), "wheel entries");
    }
}

fn pair() -> (TcpStack, TcpStack) {
    let cfg = TcpConfig {
        initial_rto_ns: 50_000_000,
        ..TcpConfig::default()
    };
    (
        TcpStack::new(CLIENT_IP, cfg.clone()),
        TcpStack::new(SERVER_IP, cfg),
    )
}

/// Move segments between two stacks until quiescent, via real wire
/// bytes. Returns segments moved.
fn pump(a: &mut TcpStack, b: &mut TcpStack, now: u64) -> usize {
    let mut n = 0;
    loop {
        let mut moved = false;
        while let Some((dst, h, p)) = a.poll_transmit(now) {
            assert_eq!(dst, b.local_ip);
            let bytes = h.emit(&p, a.local_ip, b.local_ip);
            let (g, r) = TcpHeader::parse(&bytes, a.local_ip, b.local_ip).unwrap();
            b.handle_segment(a.local_ip, &g, &bytes[r], now);
            n += 1;
            moved = true;
        }
        while let Some((dst, h, p)) = b.poll_transmit(now) {
            assert_eq!(dst, a.local_ip);
            let bytes = h.emit(&p, b.local_ip, a.local_ip);
            let (g, r) = TcpHeader::parse(&bytes, b.local_ip, a.local_ip).unwrap();
            a.handle_segment(b.local_ip, &g, &bytes[r], now);
            n += 1;
            moved = true;
        }
        if !moved {
            return n;
        }
    }
}

/// Drive a stack's timer wheel through cascade boundaries until the
/// next real deadline at or before `until` has fired (or nothing is
/// armed). Returns the instants `on_timer` was invoked at.
fn run_timers(s: &mut TcpStack, until: u64) -> Vec<u64> {
    let mut fired = Vec::new();
    while let Some(t) = s.next_timeout() {
        if t > until {
            break;
        }
        s.on_timer(t);
        fired.push(t);
    }
    fired
}

#[test]
fn listen_connect_accept() {
    let (mut c, mut s) = pair();
    let l = s.listen(80).unwrap();
    let conn = c.connect(SERVER_IP, 80, 0).unwrap();
    pump(&mut c, &mut s, 0);
    assert_eq!(c.state(conn), Some(TcpState::Established));
    assert_eq!(s.acceptable(l), 1);
    let srv_sock = s.accept(l).unwrap();
    assert_eq!(s.state(srv_sock), Some(TcpState::Established));
    // Events surfaced on both sides.
    let mut c_evs = Vec::new();
    while let Some(e) = c.poll_event() {
        c_evs.push(e);
    }
    assert!(c_evs.iter().any(|e| matches!(e, SockEvent::Connected(_))));
    let mut s_evs = Vec::new();
    while let Some(e) = s.poll_event() {
        s_evs.push(e);
    }
    assert!(s_evs.iter().any(|e| matches!(e, SockEvent::Acceptable(_))));
}

#[test]
fn echo_request_response() {
    let (mut c, mut s) = pair();
    let l = s.listen(80).unwrap();
    let conn = c.connect(SERVER_IP, 80, 0).unwrap();
    pump(&mut c, &mut s, 0);
    let srv = s.accept(l).unwrap();
    c.send(conn, b"GET /\r\n").unwrap();
    pump(&mut c, &mut s, 1000);
    let mut buf = [0u8; 64];
    let n = s.recv(srv, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"GET /\r\n");
    s.send(srv, b"200 OK").unwrap();
    pump(&mut c, &mut s, 2000);
    let n = c.recv(conn, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"200 OK");
}

#[test]
fn syn_to_closed_port_gets_rst() {
    let (mut c, mut s) = pair();
    let conn = c.connect(SERVER_IP, 9999, 0).unwrap();
    let (_, syn, _) = c.poll_transmit(0).unwrap();
    s.handle_segment(CLIENT_IP, &syn, &[], 0);
    // Nothing listens on 9999: the server answers the SYN with RST+ACK.
    let (dst, rst, payload) = s.poll_transmit(0).expect("a RST on the wire");
    assert_eq!(dst, CLIENT_IP);
    assert!(rst.flags.rst && rst.flags.ack && !rst.flags.syn && payload.is_empty());
    assert_eq!((rst.src_port, rst.dst_port), (9999, syn.src_port));
    assert_eq!(rst.ack, syn.seq + 1);
    c.handle_segment(SERVER_IP, &rst, &[], 0);
    pump(&mut c, &mut s, 0);
    // The RST aborts the connection; the quiescent socket is reaped
    // inline, so the id no longer resolves.
    assert_eq!(c.state(conn), None, "RST should abort and reap");
    assert_eq!(c.conn_count(), 0);
    let mut evs = Vec::new();
    while let Some(e) = c.poll_event() {
        evs.push(e);
    }
    assert!(
        evs.iter().any(|e| matches!(e,
            SockEvent::Aborted(id) | SockEvent::Closed(id) if *id == conn)),
        "terminal event surfaced before reap: {evs:?}"
    );
}

#[test]
fn many_concurrent_connections_demux_correctly() {
    let (mut c, mut s) = pair();
    let l = s.listen(80).unwrap();
    let mut conns = Vec::new();
    for i in 0..32 {
        let id = c.connect(SERVER_IP, 80, i).unwrap();
        conns.push(id);
    }
    pump(&mut c, &mut s, 100);
    assert_eq!(s.acceptable(l), 32);
    let mut srv_socks = Vec::new();
    for _ in 0..32 {
        srv_socks.push(s.accept(l).unwrap());
    }
    // Each client sends a distinct message.
    for (i, id) in conns.iter().enumerate() {
        c.send(*id, format!("msg-{i}").as_bytes()).unwrap();
    }
    pump(&mut c, &mut s, 200);
    // Messages arrive on the right sockets (match by content count).
    let mut seen = std::collections::HashSet::new();
    for sid in &srv_socks {
        let mut buf = [0u8; 32];
        let n = s.recv(*sid, &mut buf).unwrap();
        let msg = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(msg.starts_with("msg-"));
        assert!(seen.insert(msg), "no cross-connection bleed");
    }
    assert_eq!(seen.len(), 32);
    assert_eq!(c.conn_count(), 32);
}

#[test]
fn backlog_overflow_drops_syn() {
    let cfg = TcpConfig {
        backlog: 4,
        initial_rto_ns: 50_000_000,
        ..TcpConfig::default()
    };
    let mut c = TcpStack::new(CLIENT_IP, cfg.clone());
    let mut s = TcpStack::new(SERVER_IP, cfg);
    let l = s.listen(80).unwrap();
    for i in 0..10 {
        c.connect(SERVER_IP, 80, i).unwrap();
    }
    pump(&mut c, &mut s, 0);
    // Only `backlog` connections complete immediately.
    assert!(s.acceptable(l) <= 4, "got {}", s.acceptable(l));
}

#[test]
fn close_full_lifecycle_and_gc() {
    let (mut c, mut s) = pair();
    let l = s.listen(80).unwrap();
    let conn = c.connect(SERVER_IP, 80, 0).unwrap();
    pump(&mut c, &mut s, 0);
    let srv = s.accept(l).unwrap();
    c.close(conn, 1000).unwrap();
    pump(&mut c, &mut s, 1000);
    s.close(srv, 2000).unwrap();
    pump(&mut c, &mut s, 2000);
    // Server side reaches Closed; client in TIME_WAIT.
    assert_eq!(c.state(conn), Some(TcpState::TimeWait));
    // After TIME_WAIT expires (driving the wheel through its cascade
    // boundaries) and the sockets quiesce, they are reaped.
    run_timers(&mut c, 2000 + 10_000_000_001);
    run_timers(&mut s, 2000 + 10_000_000_001);
    pump(&mut c, &mut s, 2000 + 10_000_000_002);
    run_timers(&mut c, 2000 + 20_000_000_002);
    assert_eq!(c.conn_count(), 0);
    assert_eq!(s.conn_count(), 0);
}

#[test]
fn retransmit_through_stack_timers() {
    let (mut c, mut s) = pair();
    let _l = s.listen(80).unwrap();
    let conn = c.connect(SERVER_IP, 80, 0).unwrap();
    // Drop the SYN deliberately.
    let (_, _h, _p) = c.poll_transmit(0).expect("SYN");
    assert!(c.poll_transmit(0).is_none());
    // Drive the wheel to the retransmission deadline: coarse levels
    // surface cascade boundaries first, then the exact deadline.
    let mut hops = 0;
    while c.state(conn) == Some(TcpState::SynSent) {
        let deadline = c.next_timeout().expect("rtx timer");
        c.on_timer(deadline);
        pump(&mut c, &mut s, deadline);
        hops += 1;
        assert!(hops < 64, "cascade must converge to the RTO");
    }
    assert_eq!(c.state(conn), Some(TcpState::Established));
}

#[test]
fn ephemeral_ports_unique() {
    let (mut c, mut s) = pair();
    s.listen(80).unwrap();
    let mut ports = std::collections::HashSet::new();
    for i in 0..100 {
        let id = c.connect(SERVER_IP, 80, i).unwrap();
        let _ = id;
    }
    pump(&mut c, &mut s, 1000);
    // Inspect via socket ids — all local ports must differ.
    for id in c.socket_ids() {
        if let Some(TcpState::Established) = c.state(id) {
            // port uniqueness is implied by the conn map keying; verify
            // no two sockets share a flow.
        }
    }
    assert_eq!(c.conn_count(), 100);
    ports.insert(0);
}

/// The stack's per-connection flags sit beside `TcpSocket`, not in it:
/// its size is what `mem_bytes()`, `base_conn_cost()` and the gated
/// `conn_scale_mem_per_conn_bytes` are built on. The pin moves down only.
#[test]
fn socket_size_is_pinned() {
    assert_eq!(std::mem::size_of::<TcpSocket>(), 384);
}

/// A slot keeps its flags and its wheel handle in the 8 B that pad the
/// socket, and a record its wheel handle in its own padding: with the
/// socket pinned, neither the slot table's pages nor the budget's share
/// per record (`RECORD_BYTES`, in the `tcp.conn.*` gauges) can move.
#[test]
fn slot_and_record_sizes_are_pinned() {
    assert_eq!(std::mem::size_of::<Slot>(), 392);
    assert_eq!(std::mem::size_of::<Option<Slot>>(), 392);
    assert_eq!(time_wait::RECORD_BYTES, 48);
}

/// A slot names its listener by a non-zero port, so no listener has
/// port 0.
#[test]
fn port_zero_takes_no_listener() {
    let (_, mut s) = pair();
    assert_eq!(s.listen(0), Err(TcpError::BadState));
    assert!(s.listen(80).is_ok());
}

/// A checkpoint moves a flow into another stack; an image the stack
/// refuses — undecodable, or a flow it already holds — takes no serial.
#[test]
fn restore_conn_adopts_a_flow_and_refusals_take_no_id() {
    let (mut c, mut s) = pair();
    let l = s.listen(80).unwrap();
    c.connect(SERVER_IP, 80, 0).unwrap();
    pump(&mut c, &mut s, 0);
    s.accept(l).unwrap();
    let mut img = Vec::new();
    s.export_all_conns(|_, sock| img = sock.checkpoint());
    let (_, mut adopter) = pair();
    let id = adopter.restore_conn(&img).unwrap().unwrap();
    assert_eq!(adopter.state(id), Some(TcpState::Established));
    assert_eq!(adopter.restore_conn(&img), Some(Err(TcpError::AddrInUse)));
    assert_eq!(adopter.restore_conn(&img[1..]), None);
    let next = adopter.listen(80).map(SocketId::serial);
    assert_eq!(next, Ok(id.serial() + 1), "the refusals took no serial");
    adopter.check_consistent();
}

#[test]
fn budget_accounts_lifecycle() {
    let (mut c, mut s) = pair();
    let l = s.listen(80).unwrap();
    assert_eq!(s.budget().conns(), 0);
    let conn = c.connect(SERVER_IP, 80, 0).unwrap();
    pump(&mut c, &mut s, 0);
    let srv = s.accept(l).unwrap();
    assert_eq!(s.budget().conns(), 1);
    assert!(
        s.budget().bytes_per_conn() >= std::mem::size_of::<TcpSocket>() as f64,
        "at least the socket struct is accounted"
    );
    // Data in flight grows the account (buffer allocations).
    let before = s.budget().bytes_total();
    c.send(conn, &[0u8; 2000]).unwrap();
    pump(&mut c, &mut s, 1000);
    assert!(s.budget().bytes_total() > before, "recv buffer accounted");
    // Tear down: the account returns to zero once reaped.
    let mut buf = [0u8; 4096];
    let _ = s.recv(srv, &mut buf);
    c.close(conn, 2000).unwrap();
    pump(&mut c, &mut s, 2000);
    s.close(srv, 3000).unwrap();
    pump(&mut c, &mut s, 3000);
    run_timers(&mut c, 3000 + 30_000_000_000);
    run_timers(&mut s, 3000 + 30_000_000_000);
    pump(&mut c, &mut s, 3000 + 30_000_000_001);
    assert_eq!(s.budget().conns(), 0, "server account drained");
    assert_eq!(s.budget().bytes_total(), 0);
    assert_eq!(c.budget().conns(), 0, "client account drained");
}

/// ROADMAP item D(a)'s footprint: 1 000 established connections, each
/// past a 20 B request and a 20 B reply and now at rest, own no ring
/// byte; the rings' storage waits on each stack's spare lists; and the
/// slot table holds less than one page beyond its slots (item D(b)).
/// Then the clients close first, and all 1 000 of their connections
/// retire into TIME-WAIT records (item D(f)): each costs at most 112 B —
/// its record, its demux entry and its wheel entry — against the full
/// socket's slot and controller box beside the same two entries.
/// `--nocapture` prints the stacks' bytes by part, and the client's again
/// in TIME-WAIT.
#[test]
fn idle_connections_own_no_ring() {
    const CONNS: usize = 1_000;
    let cfg = TcpConfig {
        backlog: CONNS,
        ..TcpConfig::default()
    };
    let mut c = TcpStack::new(CLIENT_IP, cfg.clone());
    let mut s = TcpStack::new(SERVER_IP, cfg);
    let l = s.listen(80).unwrap();
    let conns: Vec<SocketId> = (0..CONNS)
        .map(|_| c.connect(SERVER_IP, 80, 0).unwrap())
        .collect();
    pump(&mut c, &mut s, 0);
    let srvs: Vec<SocketId> = (0..CONNS).map(|_| s.accept(l).unwrap()).collect();
    let mut buf = [0u8; 64];
    for &id in &conns {
        assert_eq!(c.send(id, &[b'q'; 20]), Ok(20));
    }
    pump(&mut c, &mut s, 1_000);
    for &id in &srvs {
        assert_eq!(s.recv(id, &mut buf), Ok(20));
        assert_eq!(s.send(id, &[b'r'; 20]), Ok(20));
    }
    pump(&mut c, &mut s, 2_000);
    for &id in &conns {
        assert_eq!(c.recv(id, &mut buf), Ok(20));
    }
    // The delayed ACKs go out; nothing is left to send or read.
    run_timers(&mut c, 1_000_000_000);
    run_timers(&mut s, 1_000_000_000);
    pump(&mut c, &mut s, 1_000_000_000);
    let print = |title: &str, f: &Footprint| {
        println!("{title} ({} spare storages):", f.spare_count);
        for (part, bytes) in f.parts() {
            println!(
                "  {part:32} {bytes:9} B  {:7.1} B/conn",
                bytes as f64 / CONNS as f64
            );
        }
    };
    for (name, st) in [("client", &c), ("server", &s)] {
        st.check_consistent();
        let f = st.footprint();
        print(&format!("{name}, {CONNS} idle connections"), &f);
        assert_eq!(st.conn_count(), CONNS);
        assert_eq!((f.send_rings, f.recv_rings, f.idle_rings), (0, 0, 0));
        assert_eq!(
            st.budget().spare_bytes(),
            (f.spare_send + f.spare_recv) as u64
        );
        assert!(f.spare_send > 0 && f.spare_recv > 0, "storages parked");
        let slack = st.slots.slack_bytes();
        assert!(slack < Slots::PAGE_BYTES, "slot-table slack {slack} B");
    }

    // Into TIME-WAIT: the clients close first; the delayed ACKs go out.
    let idle = c.footprint();
    for &id in &conns {
        c.close(id, 2_000_000_000).unwrap();
    }
    pump(&mut c, &mut s, 2_000_000_000);
    for &id in &srvs {
        assert_eq!(s.recv(id, &mut buf), Ok(0), "EOF");
        s.close(id, 2_000_000_000).unwrap();
    }
    pump(&mut c, &mut s, 2_000_000_000);
    run_timers(&mut c, 3_000_000_000);
    pump(&mut c, &mut s, 3_000_000_000);
    c.check_consistent();
    let f = c.footprint();
    print(&format!("client, {CONNS} connections in TIME-WAIT"), &f);
    assert_eq!(
        (c.conn_count(), c.time_waits.len()),
        (CONNS, CONNS),
        "all retired"
    );
    assert_eq!(c.budget().bytes_total(), f.time_waits as u64);
    let entries = f.demux + c.timers.len() * TimerWheel::ENTRY_BYTES;
    let per_conn = |bytes: usize| bytes as f64 / CONNS as f64;
    let socket = per_conn(idle.slots + idle.socket_heap + entries);
    let record = per_conn(f.time_waits + entries);
    println!("a TIME-WAIT connection: {socket:.1} B as a socket, {record:.1} B retired");
    assert!(record <= 104.0, "a retired connection costs {record:.1} B");
}

/// Serials and seats run out into the `NoMemory` refusal, not a panic or
/// a wrapped id: `connect` and `listen` fail, a SYN is shed, a checkpoint
/// is refused, and what is open carries on.
/// A send ring is lent the smallest parked storage that holds its write,
/// not the one parked last (ROADMAP D(e)): with an 8 278 B and a 597 B
/// storage parked, the 8 278 B one last, a 597 B write takes the 597 B
/// storage and an 8 KiB write the 8 278 B one. The budget's parked bytes
/// are the lists' capacities after every step.
#[test]
fn a_send_ring_is_lent_the_smallest_storage_that_holds_its_write() {
    // A server that ACKs every segment at once: a ring drains in the same
    // pump as its bytes go out.
    let cfg = TcpConfig {
        delayed_ack_ns: 0,
        ..TcpConfig::default()
    };
    let mut c = TcpStack::new(CLIENT_IP, cfg.clone());
    let mut s = TcpStack::new(SERVER_IP, cfg);
    s.listen(80).unwrap();
    let conns: Vec<SocketId> = (0..4)
        .map(|_| c.connect(SERVER_IP, 80, 0).unwrap())
        .collect();
    pump(&mut c, &mut s, 0);
    let ring = |c: &TcpStack, id| c.sock(id).unwrap().rel.send_buf.heap_bytes();
    let parked = |c: &TcpStack| {
        c.check_consistent();
        let f = c.footprint();
        assert_eq!(
            c.budget().spare_bytes(),
            (f.spare_send + f.spare_recv) as u64
        );
        f.spare_send
    };
    assert_eq!(parked(&c), 0);
    // Both rings busy at once, so neither is lent the other's storage; the
    // 597 B one-segment write is acknowledged first, so the 8 278 B
    // storage parks last.
    assert_eq!(c.send(conns[0], &[1; 597]), Ok(597));
    assert_eq!(c.send(conns[1], &[1; 8_278]), Ok(8_278));
    assert_eq!((ring(&c, conns[0]), ring(&c, conns[1])), (597, 8_278));
    pump(&mut c, &mut s, MS);
    assert_eq!((ring(&c, conns[0]), ring(&c, conns[1])), (0, 0));
    assert_eq!(parked(&c), 597 + 8_278);
    assert_eq!(c.send(conns[2], &[2; 597]), Ok(597));
    assert_eq!(
        ring(&c, conns[2]),
        597,
        "the 597 B write takes the 597 B storage"
    );
    assert_eq!(parked(&c), 8_278);
    assert_eq!(c.send(conns[3], &[3; 8_192]), Ok(8_192));
    assert_eq!(
        ring(&c, conns[3]),
        8_278,
        "the 8 KiB write takes the 8 278 B storage"
    );
    assert_eq!(parked(&c), 0);
    pump(&mut c, &mut s, 2 * MS);
    assert_eq!(parked(&c), 597 + 8_278);
}

#[test]
fn ids_run_out_into_no_memory() {
    let (mut c, mut s) = pair();
    let l = s.listen(80).unwrap();
    c.slots.set_next_serial(SocketId::SERIAL_END - 1);
    let last = c.connect(SERVER_IP, 80, 0).unwrap();
    assert_eq!(last.serial(), SocketId::SERIAL_END - 1);
    assert_eq!(c.connect(SERVER_IP, 80, 0), Err(TcpError::NoMemory));
    assert_eq!(c.listen(81), Err(TcpError::NoMemory));
    pump(&mut c, &mut s, 0);
    assert_eq!(c.state(last), Some(TcpState::Established));
    let srv = s.accept(l).unwrap();
    let mut img = Vec::new();
    s.export_all_conns(|_, sock| img = sock.checkpoint());
    // The server's serials run out: a new SYN is shed, unanswered, and
    // an image is refused.
    s.slots.set_next_serial(SocketId::SERIAL_END);
    let (mut c2, _) = pair();
    c2.set_port_range(50_000, 50_010);
    c2.connect(SERVER_IP, 80, 0).unwrap();
    let (_, syn, _) = c2.poll_transmit(0).unwrap();
    s.handle_segment(CLIENT_IP, &syn, &[], 0);
    assert_eq!(s.poll_transmit(0), None, "the SYN is shed");
    assert_eq!((s.acceptable(l), s.conn_count()), (0, 1));
    let (_, mut adopter) = pair();
    adopter.slots.set_next_serial(SocketId::SERIAL_END);
    assert_eq!(adopter.restore_conn(&img), Some(Err(TcpError::NoMemory)));
    assert_eq!(adopter.conn_count(), 0);
    // The open connection still carries data.
    c.send(last, b"still here").unwrap();
    pump(&mut c, &mut s, 1_000);
    assert_eq!(s.recv(srv, &mut [0u8; 16]), Ok(10));
    for st in [&c, &s, &adopter] {
        st.check_consistent();
    }
}

#[test]
fn memory_limit_sheds_new_connections() {
    let cfg = TcpConfig {
        initial_rto_ns: 50_000_000,
        // Room for only a couple of connections.
        conn_memory_limit: 3 * std::mem::size_of::<TcpSocket>() as u64,
        ..TcpConfig::default()
    };
    let mut c = TcpStack::new(CLIENT_IP, TcpConfig::default());
    let mut s = TcpStack::new(SERVER_IP, cfg);
    let l = s.listen(80).unwrap();
    for i in 0..10 {
        c.connect(SERVER_IP, 80, i).unwrap();
    }
    pump(&mut c, &mut s, 0);
    assert!(s.acceptable(l) <= 3, "limit sheds: {}", s.acceptable(l));
    assert!(s.budget().refused() > 0, "refusals are counted");
    // Client-side limit: connect() itself refuses.
    let cfg = TcpConfig {
        conn_memory_limit: 1, // absurdly small
        ..TcpConfig::default()
    };
    let mut tiny = TcpStack::new(CLIENT_IP, cfg);
    assert_eq!(
        tiny.connect(SERVER_IP, 80, 0),
        Err(TcpError::NoMemory),
        "budget-refused connect"
    );
}

#[test]
fn fin_after_lost_handshake_ack_is_still_accepted() {
    // The client's handshake ACK is lost and its next segment is already
    // the FIN: the server socket goes SYN-RECEIVED → CLOSE-WAIT in one
    // segment and must still reach the accept queue.
    let (mut c, mut s) = pair();
    let l = s.listen(80).unwrap();
    let conn = c.connect(SERVER_IP, 80, 0).unwrap();
    let (_, syn, p) = c.poll_transmit(0).unwrap();
    s.handle_segment(CLIENT_IP, &syn, &p, 0);
    let (_, synack, p) = s.poll_transmit(0).unwrap();
    c.handle_segment(SERVER_IP, &synack, &p, 0);
    let _lost_ack = c.poll_transmit(0).unwrap();
    c.close(conn, 0).unwrap();
    let (_, fin, p) = c.poll_transmit(0).unwrap();
    assert!(fin.flags.fin);
    s.handle_segment(CLIENT_IP, &fin, &p, 0);
    s.check_consistent();
    assert_eq!(s.acceptable(l), 1);
    let srv = s.accept(l).unwrap();
    assert_eq!(s.state(srv), Some(TcpState::CloseWait));
    assert_eq!(
        s.recv(srv, &mut [0u8; 8]),
        Ok(0),
        "the app reads EOF straight away"
    );
    s.check_consistent();
}

/// ROADMAP E(2): once our FIN is acknowledged nothing is outstanding, so
/// FIN-WAIT-2 waits for the peer's FIN in silence, however late it comes:
/// it sends nothing, arms no deadline and counts no RTO. The FIN comes
/// ten initial RTOs later; the connection retires into a TIME-WAIT record
/// at the first drain and reports one `Closed`, never `Aborted`.
#[test]
fn fin_wait_2_waits_in_silence() {
    let (mut c, mut s) = pair();
    let l = s.listen(80).unwrap();
    let conn = c.connect(SERVER_IP, 80, 0).unwrap();
    pump(&mut c, &mut s, 0);
    let srv = s.accept(l).unwrap();
    let rtos = neat_obs::counter("tcp.rto_retransmits");
    let before = rtos.get();
    c.close(conn, MS).unwrap();
    pump(&mut c, &mut s, MS);
    assert_eq!(c.state(conn), Some(TcpState::FinWait2));
    let late = MS + 10 * c.cfg.initial_rto_ns;
    let mut moved = 0;
    while let Some(t) = c.next_timeout().filter(|&t| t <= late) {
        c.on_timer(t);
        moved += pump(&mut c, &mut s, t);
    }
    assert_eq!(moved, 0, "FIN-WAIT-2 sent a segment");
    assert_eq!(c.next_timeout(), None, "FIN-WAIT-2 armed a deadline");
    assert_eq!(rtos.get(), before, "tcp.rto_retransmits");
    s.close(srv, late).unwrap();
    pump(&mut c, &mut s, late);
    assert_eq!(c.state(conn), Some(TcpState::TimeWait));
    assert_eq!(c.time_wait_ids(), [conn], "retired at the first drain");
    c.check_consistent();
    run_timers(&mut c, late + 60_000 * MS);
    pump(&mut c, &mut s, late + 60_000 * MS);
    assert_eq!((c.state(conn), c.conn_count()), (None, 0), "reaped");
    let events: Vec<_> = std::iter::from_fn(|| c.poll_event()).collect();
    let closed = |e: &&SockEvent| matches!(e, SockEvent::Closed(id) if *id == conn);
    assert_eq!(events.iter().filter(closed).count(), 1, "{events:?}");
    assert!(!events.iter().any(|e| matches!(e, SockEvent::Aborted(_))));
    assert_eq!(rtos.get(), before, "tcp.rto_retransmits");
}

/// Two identical connections, the client of each read in the same sips:
/// the first with `recv` into a slice, the second with `recv_with`.
struct Lockstep {
    clients: [TcpStack; 2],
    servers: [TcpStack; 2],
    id: SocketId,
    srv: SocketId,
    /// The bytes read so far, and how many reads the visitor was shown
    /// both halves of the ring in.
    read: Vec<u8>,
    wrapped: usize,
}

impl Lockstep {
    fn new() -> Lockstep {
        let mut sides = [pair(), pair()];
        let ids = sides.each_mut().map(|(c, s)| {
            let l = s.listen(80).unwrap();
            let conn = c.connect(SERVER_IP, 80, 0).unwrap();
            pump(c, s, 0);
            (conn, s.accept(l).unwrap())
        });
        assert_eq!(ids[0], ids[1]);
        let [(c1, s1), (c2, s2)] = sides;
        let (id, srv) = ids[0];
        Lockstep {
            clients: [c1, c2],
            servers: [s1, s2],
            id,
            srv,
            read: Vec::new(),
            wrapped: 0,
        }
    }

    /// Run `f` on each side's (server, client), then its timers due by
    /// `now`, and carry their segments.
    fn both(&mut self, now: u64, mut f: impl FnMut(&mut TcpStack, &mut TcpStack)) {
        for (s, c) in self.servers.iter_mut().zip(&mut self.clients) {
            f(s, c);
            run_timers(s, now);
            run_timers(c, now);
            pump(s, c, now);
        }
    }

    /// Read up to `sip` bytes on both sides and check they agree.
    fn read(&mut self, sip: usize) -> Result<usize, TcpError> {
        let [c1, c2] = &mut self.clients;
        let mut flat = vec![0u8; sip];
        let got = c1.recv(self.id, &mut flat);
        let (mut visited, mut halves) = (Vec::new(), 0);
        let got_with = c2.recv_with(self.id, sip, |half| {
            visited.extend_from_slice(half);
            halves += 1;
        });
        self.wrapped += usize::from(halves == 2);
        assert_eq!(got, got_with, "sip {sip}");
        assert_eq!(&flat[..got.unwrap_or(0)], &visited[..], "sip {sip}");
        self.read.extend_from_slice(&visited);
        let images = [&*c1, &*c2].map(|c| c.sock(self.id).map(TcpSocket::checkpoint));
        assert_eq!(images[0], images[1], "sip {sip}");
        assert_eq!(format!("{:?}", c1.budget), format!("{:?}", c2.budget));
        got
    }
}

/// `recv_with` is `recv` without the copy: the same bytes and results, and
/// equal TCB images and budgets after every read — across the receive
/// ring's wrap point, on an empty ring, at EOF and after an abort.
#[test]
fn recv_with_matches_recv() {
    let mut l = Lockstep::new();
    let (id, srv) = (l.id, l.srv);
    let stream: Vec<u8> = (0..400_000u32).map(|i| (i * 7 + i / 251) as u8).collect();
    let mut sent = 0;
    for round in 0..24 {
        let now = round as u64 * 50 * MS;
        let chunk = &stream[sent..(sent + 30_000).min(stream.len())];
        let mut accepted = [0; 2];
        let mut side = 0;
        l.both(now, |s, _| {
            accepted[side] = s.send(srv, chunk).unwrap_or(0);
            side += 1;
        });
        assert_eq!(accepted[0], accepted[1]);
        sent += accepted[0];
        let _ = l.read([1, 4_000, 40_000, 0, 17, 20_000, 30_000][round % 7]);
        l.both(now, |_, _| {});
    }
    assert!(l.wrapped > 2, "reads across the wrap point: {}", l.wrapped);
    let mut now = 24 * 50 * MS;
    while l.read.len() < sent {
        let _ = l.read(9_000);
        now += 50 * MS;
        l.both(now, |_, _| {});
    }
    assert_eq!(l.read, &stream[..sent]);
    assert_eq!(l.read(100), Err(TcpError::WouldBlock));
    let end = now + 50 * MS;
    l.both(end, |s, _| s.close(srv, end).unwrap());
    assert_eq!(l.read(100), Ok(0), "EOF");
    // An aborted socket reads its error until the stack reaps it.
    for c in &mut l.clients {
        c.abort(id).unwrap();
    }
    assert_eq!(l.read(100), Err(TcpError::Reset));
    l.both(end, |_, _| {});
    assert_eq!(l.read(100), Err(TcpError::NoSocket));
}
