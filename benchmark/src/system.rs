//! The four `http_*` workloads: the whole simulated testbed (engine,
//! message fabric, NIC and driver processes, stack replicas, supervisor,
//! web servers, httperf clients) driven through `Testbed::build` and
//! `Sim::run_until`, timed on the host clock.

use crate::measure::{Measured, Window, SLICES};
use crate::metrics::median;
use neat::config::NeatConfig;
use neat::msg::Msg;
use neat_apps::{FileStore, Testbed, TestbedSpec};
use neat_sim::Time;
use std::time::Instant;

/// Parameters of one `http_*` workload.
#[derive(Debug, Clone, Copy)]
pub struct SysLoad {
    pub requests_per_conn: u32,
    /// Size of the file every request fetches.
    pub file_bytes: usize,
    /// Buddy replication on, and every replica poisoned once during the
    /// window (at 1/4, 1/2, 3/4).
    pub replicated: bool,
    /// Virtual milliseconds of load before the window opens.
    pub warmup_ms: u64,
    /// Virtual milliseconds of load that take about one host second on
    /// the 2-core host the benchmark was sized on. Work per run is
    /// `--seconds` times this, never a wall-clock deadline, so two
    /// commits simulate exactly the same thing.
    pub virt_ms_per_s: f64,
}

const REPLICAS: usize = 3;

fn spec(load: &SysLoad, seed: u64) -> TestbedSpec {
    let neat = NeatConfig::single(REPLICAS);
    let mut s = TestbedSpec::amd(
        if load.replicated {
            neat.replicated()
        } else {
            neat
        },
        6,
    );
    s.seed = seed;
    s.workload.requests_per_conn = load.requests_per_conn;
    if load.file_bytes != 20 {
        s.files = FileStore::size_sweep(&[load.file_bytes]);
        s.workload.path = format!("/file{}", load.file_bytes);
    }
    s
}

struct Totals {
    completed: u64,
    errors: u64,
    bytes: u64,
}

fn totals(tb: &Testbed) -> Totals {
    let mut t = Totals {
        completed: 0,
        errors: 0,
        bytes: 0,
    };
    for m in &tb.client_metrics {
        let m = m.borrow();
        t.completed += m.completed;
        t.errors += m.conn_errors;
        t.bytes += m.response_bytes;
    }
    t
}

/// Build the testbed, boot it, warm it up; returns it with the time
/// that took.
fn set_up(load: &SysLoad, seed: u64) -> (Testbed, f64) {
    let t0 = Instant::now();
    let mut tb = Testbed::build(spec(load, seed));
    let now = tb.sim.now();
    tb.sim.run_until(now + Time::from_millis(load.warmup_ms));
    (tb, t0.elapsed().as_secs_f64())
}

pub fn run(load: &SysLoad, seed: u64, seconds: f64) -> Measured {
    let (mut tb, setup_s) = set_up(load, seed);

    // Fixed work: SLICES equal steps of virtual time.
    let slice_ns = ((load.virt_ms_per_s * seconds * 1e6) as u64 / SLICES).max(1);
    let before = totals(&tb);
    let events0 = tb.sim.events_dispatched();
    let batch0 = tb.sim.batch_stats();
    tb.sim.reset_all_stats();
    let virt0 = tb.sim.now();
    let mut w = Window::open();
    for i in 1..=SLICES {
        if load.replicated && i % (SLICES / 4) == 1 && i > 1 {
            // Boot pid of replica 0, 1, 2 at 1/4, 1/2, 3/4 of the window.
            let r = (i / (SLICES / 4)) as usize - 1;
            tb.sim
                .send_external(tb.deployment.sockets_heads[r], Msg::Poison);
        }
        tb.sim.run_until(virt0 + Time::from_nanos(slice_ns * i));
        w.mark();
    }
    let c = w.finish();

    let after = totals(&tb);
    let requests = after.completed - before.completed;
    let failed = after.errors - before.errors;
    let bytes = after.bytes - before.bytes;
    let events = tb.sim.events_dispatched() - events0;
    let virt_s = tb.sim.now().since(virt0).as_secs_f64();
    let served = neat_obs::counter("web.requests_served").get();

    let wall_s = c.wall_s;
    let mut m = Measured::new(c, requests, failed, served, setup_s);
    let layer = &mut m.layer;
    let req = requests.max(1) as f64;
    layer.set("sim.events_per_req", events as f64 / req);
    layer.set("sim.host_ns_per_event", wall_s * 1e9 / events.max(1) as f64);
    let batch = tb.sim.batch_stats();
    layer.set(
        "sim.batch_occupancy",
        (batch.batched_msgs - batch0.batched_msgs) as f64
            / (batch.batch_deliveries - batch0.batch_deliveries).max(1) as f64,
    );
    layer.set(
        "tcp.bytes_per_conn",
        neat_obs::gauge("tcp.conn.bytes_per_conn").get(),
    );
    // The modelled results: virtual clock, must repeat exactly.
    let lat = neat_obs::histogram("client.latency_ns").get();
    layer.set("model.virt_krps", requests as f64 / virt_s / 1e3);
    layer.set("model.virt_goodput_mbps", bytes as f64 * 8.0 / virt_s / 1e6);
    layer.set("model.virt_p50_us", lat.quantile(0.50) as f64 / 1e3);
    layer.set("model.virt_p99_us", lat.quantile(0.99) as f64 / 1e3);
    let elapsed = tb.sim.now().since(virt0);
    let util = |t| 100.0 * tb.sim.thread_stats(t).load(elapsed);
    layer.set(
        "model.replica_util_pct",
        median(
            &tb.replica_threads
                .iter()
                .map(|t| util(*t))
                .collect::<Vec<_>>(),
        ),
    );
    layer.set("model.driver_util_pct", util(tb.driver_thread));

    // Outputs: every completed response carried the whole file, and the
    // web servers served what the clients completed (give or take the
    // requests in flight at the window's two edges).
    let in_flight = (tb.client_metrics.len() * 16) as u64 + failed;
    m.correct = requests > 0
        && bytes == requests * load.file_bytes as u64
        && served.abs_diff(requests) <= in_flight;
    m
}
