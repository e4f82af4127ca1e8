//! The request path's allocation ratchet (ROADMAP item 1): what one small
//! keep-alive request allocates on its whole way — httperf, both NICs, the
//! driver, a single-component replica, the web server and back, engine
//! included — counted by an allocator that sees this thread only.
//!
//! The pin is an upper bound and moves down only, like `byte_path.rs`'s.
//! When it fails the window runs once more with the allocator's sampler
//! on, and the failure names the ten busiest allocation sites.

use neat::config::NeatConfig;
use neat_apps::scenario::{Testbed, TestbedSpec, Workload};
use neat_apps::webserver::FileStore;
use neat_sim::Time;
use std::cell::Cell;

#[path = "counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{census, COUNTS, LIVE};

/// The connections the one client keeps open at once.
const CONNS: usize = 4;

/// Requests per connection for a keep-alive run: the whole run.
const KEEP_ALIVE: u32 = u32::MAX;

/// Run `tb` until its client has completed `requests` more requests,
/// stopping within 100 ns of the completion that makes the count; returns
/// how many it did complete. A window cut anywhere else between two
/// completions also counts what the requests then in flight allocated so
/// far — a few allocations either way, which at exactly 4.00 per request
/// would decide the pin by where the cut fell.
fn serve(tb: &mut Testbed, requests: u64) -> u64 {
    let start = tb.total_reported();
    let give_up = tb.sim.now() + Time::from_secs(1);
    while tb.total_reported() - start < requests {
        assert!(tb.sim.now() < give_up, "the client keeps asking");
        tb.sim.run_until(tb.sim.now() + Time::from_nanos(100));
    }
    tb.total_reported() - start
}

/// Allocations per keep-alive request once warm, PR 23 → PR 24 → this
/// tree: 29.73 → 6.00 (2 082 → 807 B) → 4.00 (766 B; 553 B in a window
/// past the last one-off growth, below). What is left carries bytes out of
/// a process: the request's and the reply's frames (one `PktBuf` block
/// each, built in place), the `ConnData` payload and the reply — four,
/// exactly, in every window once warm.
///
/// Each driver also pins the bytes a connection keeps: the thread's live
/// bytes after the window less those of the booted testbed, per
/// connection. Here 72 023 B, 65 536 of them the fd's failover tail (the
/// last 64 KiB written); 72 040 B while the stack host and each `FrameIo`
/// kept a scratch segment buffer; 72 265 B while each socket boxed its congestion
/// controller and both parsers copied the first head they read, 72 451 B
/// while the timer wheels and the socket servers' connection tables were
/// hash maps, 113 457 B while that tail grew past its cap, to 104 KiB.
#[test]
fn allocations_per_request_are_pinned() {
    assert_allocations(NeatConfig::single(1), None, KEEP_ALIVE, 4.0, 72_023);
}

/// The same requests through two replicas that stream checkpoints to each
/// other: 5.50 (1 008 B), the four above and 1.5 deltas. A flush that
/// touched a flow ships one delta, one buffer however many flows it
/// carries, and the buddy overwrites its copy of a flow in place; 7.50
/// (1 383 B) when each image was a buffer of its own and each delta a
/// `Vec` of them. A connection keeps 75 526 B (75 574 B with the scratch
/// segment buffers, 75 799 B with the controller boxes and the parsers' head copies, 75 889 B with the
/// wheels' and connection tables' hash maps, 116 895 B with the tail past
/// its cap).
#[test]
fn allocations_per_replicated_request_are_pinned() {
    let cfg = NeatConfig::single(2).replicated();
    assert_allocations(cfg, None, KEEP_ALIVE, 5.5, 75_526);
}

/// The same keep-alive requests for a 100 000 B file, `http_bulk`'s reply:
/// 10.88 allocations (204 619 B) per request, one for each frame built —
/// the client's ACKs and requests, the server's segments, each
/// super-segment's frame with room for its TSO cut to spread in place —
/// the `ConnData` payload and the reply; 14.50 (304 972 B) while each cut
/// copied its frame into a block of its own. A connection keeps 193 787 B
/// (211 375 B with the stack host's scratch segment buffer, which kept a
/// super-segment's capacity; 211 610 B with
/// the controller boxes and the parsers' head copies, 211 796 B with the
/// wheels' and connection tables' hash maps): 518 610 B while the fd's
/// tail grew to 195 KiB and the client's parser buffered every body it
/// never reads (15.50 allocations then, the parser's cold state boxed
/// once per reply).
#[test]
fn allocations_per_bulk_request_are_pinned() {
    assert_allocations(
        NeatConfig::single(1),
        Some(100_000),
        KEEP_ALIVE,
        10.88,
        193_787,
    );
}

/// Warm a one-client `Testbed` on `cfg` that serves a file of `reply`
/// bytes (`None`: the paper's 20 B one) over connections that each carry
/// `requests_per_conn` requests, count what more requests allocate, and
/// fail above `max_per_req`, naming the ten busiest allocation sites, or
/// if a connection then keeps more than `max_live_per_conn` bytes.
fn assert_allocations(
    cfg: NeatConfig,
    reply: Option<usize>,
    requests_per_conn: u32,
    max_per_req: f64,
    max_live_per_conn: i64,
) {
    let mut spec = TestbedSpec::amd(cfg, 1);
    spec.clients = 1;
    spec.workload = Workload {
        conns_per_client: CONNS,
        requests_per_conn,
        ..Workload::default()
    };
    // Bulk requests are fewer: each moves 100 000 B through the stacks.
    let requests = match reply {
        None => 2_000,
        Some(size) => {
            spec.files = FileStore::size_sweep(&[size]);
            spec.workload.path = format!("/file{size}");
            200
        }
    };
    spec.server_max_reqs_per_conn = u32::MAX;
    let mut tb = Testbed::build(spec);
    let booted = LIVE.with(Cell::get).0;
    // Warm means past the last one-off growth: each fd's retained tx tail
    // (`SocketLib::send`) grows for the last time to its 64 KiB cap, on
    // request 513 of its connection for 104 B replies, on the first for
    // 100 000 B ones. With a connection per request the window starts
    // past 6 000 accepts; it ended before 8 192 while the web server kept
    // a pid per accepted connection in a list that doubled there.
    let warm = match requests_per_conn {
        1 => 3 * requests,
        _ => 2 * requests,
    };
    serve(&mut tb, warm);
    println!("warm at {:?}", tb.sim.now());

    let before = COUNTS.with(Cell::get);
    let done = serve(&mut tb, requests);
    let after = COUNTS.with(Cell::get);
    let live_per_conn = (LIVE.with(Cell::get).0 - booted) / CONNS as i64;
    assert_eq!(tb.total_errors(), 0);

    let per_req = |n: u64| n as f64 / done as f64;
    let (allocs, bytes) = (per_req(after.0 - before.0), per_req(after.1 - before.1));
    println!("request path: {allocs:.2} allocations, {bytes:.0} B per request ({done} requests)");
    println!("request path: {live_per_conn} B live per connection after them");
    if allocs > max_per_req {
        const EVERY: u64 = 97;
        let mut done = 0;
        let sites = census(EVERY, || done = serve(&mut tb, requests));
        println!("allocations per request by site (every {EVERY}th sampled):");
        for (samples, site) in sites {
            println!(
                "{:7.2}  {site}",
                (samples as u64 * EVERY) as f64 / done as f64
            );
        }
        panic!("a request allocates {allocs:.2} times (pin {max_per_req})");
    }
    assert!(
        live_per_conn <= max_live_per_conn,
        "a connection keeps {live_per_conn} B (pin {max_live_per_conn})"
    );
}

/// One request per connection, `http_churn`'s load (the paper's Fig. 12):
/// each connection's whole life is in the window, opened, served and
/// closed through both stacks. 11.00 (1 105 B) per request: the eight
/// frames of a life (`FrameIo::ip_frame`), the `ConnData` payload, the
/// fd's failover tail (`keep_tail`) and the reply. 15.00 while each
/// socket boxed its Reno controller, the web server copied every request
/// into its parser and httperf every response head into its own. The
/// live bytes are the testbed's after 8 000 connections less at boot,
/// per open connection: 169 792 B; 186 185 B while the web server kept
/// every accepting replica's pid (8 B per connection, in a list that had
/// doubled to 64 KiB) where it now keeps their running summary.
#[test]
fn allocations_per_short_connection_are_pinned() {
    assert_allocations(NeatConfig::single(1), None, 1, 11.0, 169_792);
}

/// 50 000 of them are most of `peak_live_mb` @ `stack_conns`: the read
/// cursor costs a word, the cold parse state stays behind one pointer.
#[test]
fn parser_size_is_pinned() {
    assert!(std::mem::size_of::<neat_apps::http::StreamParser>() <= 40);
}
