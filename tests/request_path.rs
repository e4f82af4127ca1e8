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

/// Run `tb` until its client has completed `requests` more requests;
/// returns how many it did complete.
fn serve(tb: &mut Testbed, requests: u64) -> u64 {
    let start = tb.total_reported();
    while tb.total_reported() - start < requests {
        let step = tb.sim.run_until(tb.sim.now() + Time::from_micros(200));
        assert!(step > 0, "the client keeps asking");
    }
    tb.total_reported() - start
}

/// Allocations per keep-alive request once warm, PR 23 → PR 24 → this
/// tree: 29.73 → 6.00 (2 082 → 807 B) → 4.00 (766 B). What is left
/// carries bytes out of a process: the request's and the reply's frames
/// (one `PktBuf` block each, built in place), the `ConnData` payload, the
/// reply, and the timer wheel's slot vectors.
#[test]
fn allocations_per_request_are_pinned() {
    const MAX_ALLOCS_PER_REQ: f64 = 4.0;
    const REQUESTS: u64 = 2_000;

    let mut spec = TestbedSpec::amd(NeatConfig::single(1), 1);
    spec.clients = 1;
    spec.workload = Workload {
        conns_per_client: 4,
        requests_per_conn: u32::MAX, // keep-alive for the whole run
        ..Workload::default()
    };
    spec.server_max_reqs_per_conn = u32::MAX;
    let mut tb = Testbed::build(spec);
    serve(&mut tb, REQUESTS);

    let before = COUNTS.with(Cell::get);
    let done = serve(&mut tb, REQUESTS);
    let after = COUNTS.with(Cell::get);
    assert_eq!(tb.total_errors(), 0);

    let per_req = |n: u64| n as f64 / done as f64;
    let (allocs, bytes) = (per_req(after.0 - before.0), per_req(after.1 - before.1));
    println!("request path: {allocs:.2} allocations, {bytes:.0} B per request ({done} requests)");
    if allocs > MAX_ALLOCS_PER_REQ {
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
        panic!("a request allocates {allocs:.2} times (pin {MAX_ALLOCS_PER_REQ})");
    }
}

/// 50 000 of them are most of `peak_live_mb` @ `stack_conns`: the read
/// cursor costs a word, the cold parse state stays behind one pointer.
#[test]
fn parser_size_is_pinned() {
    assert!(std::mem::size_of::<neat_apps::http::StreamParser>() <= 40);
}
