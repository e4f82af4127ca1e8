//! The six workloads, and one run of one of them.

use crate::lane::{self, Role, Shape};
use crate::measure::{Measured, SLICES};
use crate::metrics::Values;
use crate::span::{Off, Span, Tracer, SPANS};
use crate::system::{self, SysLoad};
use neat_sim::calibration;
use neat_sim::MachineSpec;

/// Passes over the same work in one untraced run.
pub const PASSES: u32 = 8;

pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// `http_*` run the whole testbed; `stack_*` run the lane itself.
    pub system: Option<SysLoad>,
    /// The lane shape: the workload itself for `stack_*`, the matching
    /// shape used only in the traced run for `http_*`.
    pub shape: Shape,
    /// Lane requests that take about one host second on the 2-core host
    /// the benchmark was sized on; a lane run does `--seconds` times
    /// this many, whatever the wall clock says.
    pub lane_reqs_per_s: f64,
}

/// The httperf population of the testbed: 12 clients × 16 connections
/// against 3 replicas, one-way delay of a short cable.
const fn http_shape(role: &'static [Role], repl: bool) -> Shape {
    Shape {
        clients: 12,
        conns_per_client: 16,
        replicas: 3,
        repl,
        drop_pct: 0,
        reorder_pct: 0,
        one_way_ns: 10_000,
        roles: role,
        keepalive_ns: 0,
        warmup_reqs: 5_000,
    }
}

const RR: [Role; 1] = [Role::fetch(20, 100)];
const CHURN: [Role; 1] = [Role::fetch(20, 1)];
const BULK: [Role; 1] = [Role::fetch(100_000, 100)];
const LOSSY: [Role; 1] = [Role::fetch(256 * 1024, 100)];

const MS: u64 = 1_000_000;
/// `conn_scale`'s population, 20 slots to the cycle: 55 % steady, 20 %
/// idle keepalive, 10 % slow readers, 15 % churners.
const MIX: [Role; 20] = {
    let steady = Role {
        think_ns: (2 * MS, 12 * MS),
        ..Role::fetch(512, 0)
    };
    let idle = Role {
        idle: true,
        ..Role::fetch(512, 0)
    };
    let slow = Role {
        sip: Some((256, 4 * MS)),
        think_ns: (2 * MS, 12 * MS),
        ..Role::fetch(8 * 1024, 0)
    };
    let churn = Role {
        reopen_ns: (5 * MS, 20 * MS),
        ..Role::fetch(512, 1)
    };
    [
        steady, idle, steady, churn, steady, slow, steady, idle, steady, churn, steady, steady,
        idle, steady, slow, steady, churn, steady, idle, steady,
    ]
};

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "http_rr",
        why: "Fig. 7 point: 20 B replies on persistent connections, 14 engine events per request, so sim dispatch, the message fabric, sock_server and apps do the work and per-byte code does none",
        system: Some(SysLoad {
            requests_per_conn: 100,
            file_bytes: 20,
            replicated: false,
            warmup_ms: 100,
            virt_ms_per_s: 258.0,
        }),
        shape: http_shape(&RR, false),
        lane_reqs_per_s: 140_000.0,
    },
    Workload {
        name: "http_churn",
        why: "one request per connection (Fig. 12): a full connection life per request, so tcp conn_mgmt, demux, wheel, budget, NIC filters and accept/close in sock_server dominate",
        system: Some(SysLoad {
            requests_per_conn: 1,
            file_bytes: 20,
            replicated: false,
            // Past the first connections' TIME_WAIT: from then on their
            // expiry and filter removal are part of every request's cost
            // (58 engine events per request before, 103 and more after).
            warmup_ms: 300,
            virt_ms_per_s: 160.0,
        }),
        shape: http_shape(&CHURN, false),
        lane_reqs_per_s: 40_000.0,
    },
    Workload {
        name: "http_bulk",
        why: "100 KB replies: per-byte work dominates (checksum, parse/emit, PktBuf and Vec copies, TSO split, send and receive buffers); an event-count optimisation should not move it",
        system: Some(SysLoad {
            requests_per_conn: 100,
            file_bytes: 100_000,
            replicated: false,
            warmup_ms: 100,
            virt_ms_per_s: 115.0,
        }),
        shape: http_shape(&BULK, false),
        lane_reqs_per_s: 1_900.0,
    },
    Workload {
        name: "http_repl",
        why: "the reliability half: buddy replication on and every replica crashed once, so TCP state is also checkpointed, handed off and restored; keeps success_pct honest",
        system: Some(SysLoad {
            requests_per_conn: 100,
            file_bytes: 20,
            replicated: true,
            warmup_ms: 100,
            virt_ms_per_s: 255.0,
        }),
        shape: http_shape(&RR, true),
        lane_reqs_per_s: 130_000.0,
    },
    Workload {
        name: "stack_lossy",
        why: "lane only: 16 connections fetch 256 KB over a channel with 2 % loss and 1 % reorder each way, the retransmit, reassembly, RTO and congestion code no http_* run enters",
        system: None,
        shape: Shape {
            clients: 4,
            conns_per_client: 4,
            replicas: 1,
            repl: false,
            drop_pct: 2,
            reorder_pct: 1,
            one_way_ns: 100_000,
            roles: &LOSSY,
            keepalive_ns: 0,
            warmup_reqs: 200,
        },
        lane_reqs_per_s: 850.0,
    },
    Workload {
        name: "stack_conns",
        why: "lane only: 25 000 concurrent connections in conn_scale's mix, a 140 MB working set far beyond the host caches for demux, timer wheel, budget and per-connection memory",
        system: None,
        shape: Shape {
            clients: 40,
            conns_per_client: 625,
            replicas: 4,
            repl: false,
            drop_pct: 0,
            reorder_pct: 0,
            one_way_ns: 10_000,
            roles: &MIX,
            keepalive_ns: 100 * MS,
            warmup_reqs: 20_000,
        },
        lane_reqs_per_s: 31_000.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one process run of one workload reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `--trace 0`: the end-to-end metrics. `--trace 1`: the per-layer
    /// metrics.
    pub metrics: Values,
    /// Not asked for by the contract line but worth keeping: with
    /// `--trace 0` the `model.*` invariants and the CPU share.
    pub extra: Values,
    pub disturbed: bool,
    /// The traced lane run, for the span table and the chrome trace.
    pub tracer: Option<Tracer>,
}

impl Workload {
    /// A multiple of [`SLICES`], so that the slices cover the window.
    fn lane_requests(&self, seconds: f64) -> u64 {
        ((self.lane_reqs_per_s * seconds) as u64 / SLICES).max(1) * SLICES
    }

    /// One timed window after one set-up.
    fn pass(&self, seed: u64, seconds: f64) -> Measured {
        match &self.system {
            Some(load) => system::run(load, seed, seconds),
            None => lane::run(&self.shape, seed, self.lane_requests(seconds), &mut Off),
        }
    }

    /// The untraced run that end-to-end metrics come from: [`PASSES`]
    /// passes over the same work, each a fresh set-up and a window of
    /// `seconds / PASSES`, merged slice by slice ([`Measured::merge`]).
    pub fn measure(&self, seed: u64, seconds: f64) -> Measured {
        let passes = (0..PASSES)
            .map(|_| self.pass(seed, seconds / f64::from(PASSES)))
            .collect();
        Measured::merge(passes)
    }

    /// `--trace 0`.
    pub fn run(&self, seed: u64, seconds: f64) -> Report {
        let m = self.measure(seed, seconds);
        let mut extra = Values::default();
        for (name, v) in &m.layer.0 {
            if name.starts_with("model.")
                || name.starts_with("sim.slice_")
                || name == "bench.cpu_share_pct"
                || name == "bench.host_speed_pct"
                || name == "bench.window_us_per_req"
            {
                extra.set(name, *v);
            }
        }
        Report {
            correct: m.correct,
            attempted: m.attempted(),
            failed: m.failed,
            metrics: m.end_to_end(),
            extra,
            disturbed: m.disturbed(),
            tracer: None,
        }
    }

    /// `--trace 1`: half the time on the untraced run (its counters are
    /// the layer metrics), a quarter each on the lane with and without
    /// spans (their difference is the tracing overhead).
    pub fn run_traced(&self, seed: u64, seconds: f64) -> Report {
        let m = self.measure(seed, seconds * 0.5);
        let lane_reqs = self.lane_requests(seconds * 0.25);
        let plain = match self.system {
            Some(_) => lane::run(&self.shape, seed, lane_reqs, &mut Off),
            None => m.clone(),
        };
        let mut tracer = Tracer::new();
        let traced = lane::run(&self.shape, seed, lane_reqs, &mut tracer);

        let mut v = m.layer.clone();
        let req = traced.requests.max(1) as f64;
        let mut product_us = 0.0;
        for s in SPANS {
            let a = tracer.agg(s);
            v.set(&format!("{}.ns_per_req", s.name()), a.self_ns as f64 / req);
            v.set(
                &format!("{}.allocs_per_req", s.name()),
                a.self_allocs as f64 / req,
            );
            if s != Span::Loadgen {
                product_us += a.self_ns as f64 / req / 1e3;
            }
        }
        if self.system.is_some() {
            // Engine, messages, processes and supervisor, by subtraction;
            // wall time on both sides (see the comment on the overhead).
            v.set("sim.fabric_us_per_req", m.window_us_per_req() - product_us);
        }
        let root = tracer.agg(Span::Loadgen);
        v.set(
            "bench.loadgen_share_pct",
            100.0 * root.self_ns as f64 / root.total_ns.max(1) as f64,
        );
        // Wall time, not time at reference speed: the tracer's ring of raw
        // spans pushes the reference kernel's table out of the cache, so
        // the kernel would call the host slow where the tracer is.
        v.set(
            "bench.trace_overhead_pct",
            100.0 * (traced.window_us_per_req() / plain.window_us_per_req() - 1.0),
        );
        // Calibration drift as a number: what `handle_segment` costs on
        // this host against what the model charges on the modelled CPU.
        let seg = tracer.agg(Span::HandleSegment);
        let model_ns = MachineSpec::amd_opteron_6168()
            .freq
            .cycles_to_time(calibration::TCP_RX_SEG)
            .as_nanos();
        v.set(
            "bench.tcp_rx_host_ratio",
            seg.total_ns as f64 / seg.count.max(1) as f64 / model_ns as f64,
        );

        let correct = m.correct && plain.correct && traced.correct;
        Report {
            correct,
            attempted: m.attempted(),
            failed: m.failed,
            metrics: v,
            extra: Values::default(),
            disturbed: m.disturbed() || traced.disturbed(),
            tracer: Some(tracer),
        }
    }
}
