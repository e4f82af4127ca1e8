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
use neat_sim::Time;
use std::cell::Cell;

#[path = "counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{census, COUNTS};

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
#[test]
fn allocations_per_request_are_pinned() {
    assert_allocations(NeatConfig::single(1), 4.0);
}

/// The same requests through two replicas that stream checkpoints to each
/// other: 5.50 (1 008 B), the four above and 1.5 deltas. A flush that
/// touched a flow ships one delta, one buffer however many flows it
/// carries, and the buddy overwrites its copy of a flow in place; 7.50
/// (1 383 B) when each image was a buffer of its own and each delta a
/// `Vec` of them.
#[test]
fn allocations_per_replicated_request_are_pinned() {
    assert_allocations(NeatConfig::single(2).replicated(), 5.5);
}

/// Warm a one-client keep-alive `Testbed` on `cfg`, count what 2 000 more
/// requests allocate, and fail above `max_per_req`, naming the ten busiest
/// allocation sites.
fn assert_allocations(cfg: NeatConfig, max_per_req: f64) {
    const REQUESTS: u64 = 2_000;

    let mut spec = TestbedSpec::amd(cfg, 1);
    spec.clients = 1;
    spec.workload = Workload {
        conns_per_client: 4,
        requests_per_conn: u32::MAX, // keep-alive for the whole run
        ..Workload::default()
    };
    spec.server_max_reqs_per_conn = u32::MAX;
    let mut tb = Testbed::build(spec);
    // Warm means past the last one-off growth: each fd's retained tx tail
    // (`SocketLib::send`, 104 B replies) doubles for the last time at
    // 53 KiB, on request 513 of its connection.
    serve(&mut tb, 2 * REQUESTS);

    let before = COUNTS.with(Cell::get);
    let done = serve(&mut tb, REQUESTS);
    let after = COUNTS.with(Cell::get);
    assert_eq!(tb.total_errors(), 0);

    let per_req = |n: u64| n as f64 / done as f64;
    let (allocs, bytes) = (per_req(after.0 - before.0), per_req(after.1 - before.1));
    println!("request path: {allocs:.2} allocations, {bytes:.0} B per request ({done} requests)");
    if allocs > max_per_req {
        const EVERY: u64 = 97;
        let mut done = 0;
        let sites = census(EVERY, || done = serve(&mut tb, REQUESTS));
        println!("allocations per request by site (every {EVERY}th sampled):");
        for (samples, site) in sites {
            println!(
                "{:7.2}  {site}",
                (samples as u64 * EVERY) as f64 / done as f64
            );
        }
        panic!("a request allocates {allocs:.2} times (pin {max_per_req})");
    }
}

/// 50 000 of them are most of `peak_live_mb` @ `stack_conns`: the read
/// cursor costs a word, the cold parse state stays behind one pointer.
#[test]
fn parser_size_is_pinned() {
    assert!(std::mem::size_of::<neat_apps::http::StreamParser>() <= 40);
}
