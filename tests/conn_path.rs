//! The connection path's allocation ratchet: what one short connection's
//! whole life allocates in two `TcpStack`s — open, a 20 B request, a 20 B
//! reply, close, TIME_WAIT run out — counted by an allocator that sees
//! this thread only (`counting_alloc.rs`). It is `http_churn`'s TCP half:
//! one connection per request. Beside it, the bytes a client stack keeps
//! for each connection it holds in TIME_WAIT.
//!
//! The pins are upper bounds and move down only, like `byte_path.rs`'s.

#[path = "counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{COUNTS, LIVE};
use neat_net::TcpHeader;
use neat_tcp::{SocketId, TcpConfig, TcpStack};
use std::cell::Cell;
use std::net::Ipv4Addr;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const IPS: [Ipv4Addr; 2] = [CLIENT_IP, SERVER_IP];
const MSG: usize = 20;

/// A client stack and a server stack listening on port 80, joined by a
/// lossless wire of real segment bytes.
struct Pair {
    stacks: [TcpStack; 2],
    listener: SocketId,
    now: u64,
    /// The one segment on the wire, reused.
    frame: Vec<u8>,
}

impl Pair {
    fn new() -> Pair {
        let mut stacks = IPS.map(|ip| TcpStack::new(ip, TcpConfig::default()));
        let listener = stacks[1].listen(80).expect("listen");
        Pair {
            stacks,
            listener,
            now: 0,
            frame: Vec::with_capacity(2048),
        }
    }

    /// Move segments both ways until both stacks fall silent, dropping
    /// every user event.
    fn pump(&mut self) {
        loop {
            let mut moved = false;
            for (from, src) in IPS.into_iter().enumerate() {
                self.frame.clear();
                while let Some(dst) =
                    self.stacks[from].poll_transmit_into(self.now, &mut self.frame)
                {
                    let (h, range) = TcpHeader::parse(&self.frame, src, dst).expect("checksum");
                    let to = &mut self.stacks[1 - from];
                    to.handle_segment(src, &h, &self.frame[range], self.now);
                    self.frame.clear();
                    moved = true;
                }
            }
            for s in &mut self.stacks {
                while s.poll_event().is_some() {}
            }
            if !moved {
                return;
            }
        }
    }

    /// Fire every deadline, in time order, until none is armed (delayed
    /// ACKs, then TIME_WAIT).
    fn run_timers(&mut self) {
        self.run_timers_until(u64::MAX);
    }

    /// Fire every deadline up to `end`, in time order.
    fn run_timers_until(&mut self, end: u64) {
        let next = |p: &Pair| p.stacks.iter().filter_map(|s| s.next_timeout()).min();
        while let Some(t) = next(self).filter(|&t| t <= end) {
            self.now = self.now.max(t);
            for s in &mut self.stacks {
                s.on_timer(self.now);
            }
            self.pump();
        }
    }

    /// One connection's life; the client closes first, so TIME_WAIT is
    /// the client's.
    fn life(&mut self) {
        self.reach_time_wait();
        self.run_timers();
        assert_eq!(
            self.stacks.each_ref().map(|s| s.conn_count()),
            [0, 0],
            "both ends reaped"
        );
    }

    /// One connection up to the client's TIME_WAIT: opened, a request and
    /// a reply, both ends closed.
    fn reach_time_wait(&mut self) {
        let mut buf = [0u8; 64];
        let conn = self.stacks[0]
            .connect(SERVER_IP, 80, self.now)
            .expect("connect");
        self.pump();
        let srv = self.stacks[1].accept(self.listener).expect("accepted");
        assert_eq!(self.stacks[0].send(conn, &[b'q'; MSG]), Ok(MSG));
        self.pump();
        assert_eq!(self.stacks[1].recv(srv, &mut buf), Ok(MSG), "the request");
        assert_eq!(self.stacks[1].send(srv, &[b'r'; MSG]), Ok(MSG));
        self.pump();
        assert_eq!(self.stacks[0].recv(conn, &mut buf), Ok(MSG), "the reply");
        self.stacks[0].close(conn, self.now).expect("client close");
        self.pump();
        assert_eq!(self.stacks[1].recv(srv, &mut buf), Ok(0), "EOF");
        self.stacks[1].close(srv, self.now).expect("server close");
        self.pump();
    }
}

/// Allocations per connection once warm: none. 6.00 (144 B) while each
/// of the four rings allocated its storage afresh for every connection;
/// 2.00 (64 B) once a drained ring parked its storage with its stack for
/// the next connection's rings, which left one congestion-controller box
/// per end; 0.00 since a socket holds Reno in place. The tables, the
/// wheel and the event lists reuse what they grew during the warm-up.
#[test]
fn allocations_per_connection_are_pinned() {
    const MAX_ALLOCS_PER_CONN: f64 = 0.0;
    const WARM: u32 = 100;
    const CONNS: u32 = 1_000;

    let mut p = Pair::new();
    for _ in 0..WARM {
        p.life();
    }
    let before = COUNTS.with(Cell::get);
    for _ in 0..CONNS {
        p.life();
    }
    let after = COUNTS.with(Cell::get);

    let per_conn = |n: u64| n as f64 / CONNS as f64;
    let (allocs, bytes) = (per_conn(after.0 - before.0), per_conn(after.1 - before.1));
    println!(
        "conn path: {allocs:.2} allocations, {bytes:.0} B per connection ({CONNS} connections)"
    );
    assert!(
        allocs <= MAX_ALLOCS_PER_CONN,
        "a connection allocates {allocs:.2} times (pin {MAX_ALLOCS_PER_CONN})"
    );
}

/// The bytes the client stack keeps per connection it holds in TIME_WAIT:
/// after 100 warm-up connections, 2 000 more, one after another, each
/// left in TIME_WAIT 1 ms after the last (its delayed ACK fired, its
/// 10 s deadline far off). Each retires into a record, so the client's
/// slot table stays at one page, and what grows is the record table, the
/// wheel's entries and the demux table, slack included: the thread's live
/// bytes after the 2 000 less before, per connection. The server reaps
/// each connection, and its tables stay at their warm-up size.
///
/// 368 216 B, 184.1 B each: the record table's 4 096 buckets of 49 B (100.4 B), the
/// demux table's 4 096 of 25 B (51.2 B) and the wheel's 2 048 entries of
/// 32 B (32.8 B). 470 580 B, 235.3 B each, while the wheel kept its
/// entries in a hash map by key, 4 096 buckets of 41 B.
#[test]
fn bytes_per_time_wait_connection_are_pinned() {
    const MAX_BYTES: i64 = 368_216;
    const WARM: u32 = 100;
    const HELD: u32 = 2_000;

    let mut p = Pair::new();
    for _ in 0..WARM {
        p.life();
    }
    let before = LIVE.with(Cell::get).0;
    for _ in 0..HELD {
        p.reach_time_wait();
        let end = p.now + 1_000_000;
        p.run_timers_until(end);
        p.now = end;
    }
    let after = LIVE.with(Cell::get).0;

    assert_eq!(
        p.stacks.each_ref().map(|s| s.conn_count()),
        [HELD as usize, 0],
        "the client holds every connection, the server none"
    );
    let bytes = after - before;
    let per_conn = bytes as f64 / f64::from(HELD);
    println!("conn path: {bytes} B kept for {HELD} TIME_WAIT connections, {per_conn:.1} B each");
    assert!(
        bytes <= MAX_BYTES,
        "{HELD} TIME_WAIT connections keep {bytes} B (pin {MAX_BYTES})"
    );
}
