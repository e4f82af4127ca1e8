//! Every workload end to end at a small size, and the names the
//! benchmark prints against the names `BENCHMARK.json` declares.

use neat_benchmark::compare::compare;
use neat_benchmark::lane;
use neat_benchmark::metrics::{self, MetricDef};
use neat_benchmark::span::{Off, Span, Tracer, SPANS};
use neat_benchmark::workloads::{find, WORKLOADS};
use neat_util::Json;

/// `--seconds` that makes each pass of an `http_*` window about 10 ms
/// virtual.
const TINY_S: f64 = 0.4;
const LANE_REQUESTS: u64 = 200;

fn small(name: &str) -> lane::Shape {
    let mut s = find(name).expect("workload").shape;
    // 25 000 connections take a second to open; the mix is what matters.
    s.conns_per_client = s.conns_per_client.min(40);
    s.warmup_reqs = s.warmup_reqs.min(100);
    s
}

#[test]
fn http_workloads_complete_and_verify() {
    for w in WORKLOADS.iter().filter(|w| w.system.is_some()) {
        let m = w.measure(7, TINY_S);
        assert!(m.correct, "{}: output check", w.name);
        assert!(m.requests > 0, "{}", w.name);
        assert_eq!(m.failed, 0, "{}", w.name);
        assert!(!m.slice_us.is_empty());
        let e2e = m.end_to_end();
        for d in metrics::end_to_end() {
            let v = e2e
                .get(&d.name)
                .unwrap_or_else(|| panic!("{} missing", d.name));
            assert!(v > 0.0, "{}: {} must never be 0", w.name, d.name);
        }
        assert!(m.layer.get("sim.events_per_req").unwrap() > 1.0);
        assert!(m.layer.get("model.virt_krps").unwrap() > 1.0);
    }
}

#[test]
fn fixed_seed_repeats_the_model_exactly() {
    let w = find("http_rr").unwrap();
    let (a, b) = (w.measure(3, TINY_S), w.measure(3, TINY_S));
    assert_eq!(a.requests, b.requests);
    for (name, v) in a.layer.0.iter().filter(|(n, _)| n.starts_with("model.")) {
        assert_eq!(Some(*v), b.layer.get(name), "{name}");
    }
    // No end-to-end metric comes from `Sim::now`: the host clock never
    // repeats.
    assert_ne!(a.wall_s, b.wall_s);
    assert_ne!(a.setup_s, b.setup_s);
    let c = w.measure(4, TINY_S);
    assert!(c.correct);
}

/// Two `--trace 1` runs of one seed agree for `compare`: every `model.*`
/// value repeats, the host-measured layer metrics need not.
#[test]
fn compare_accepts_two_traced_runs_of_one_seed() {
    let w = find("http_rr").unwrap();
    let set = || {
        let r = w.run_traced(3, TINY_S);
        assert!(r.correct);
        let metrics = r.metrics.to_json(&metrics::per_layer());
        Json::object()
            .field("seed", 3u64)
            .field("seconds", TINY_S)
            .field("traced", true)
            .field(
                "workloads",
                Json::object().field(w.name, Json::object().field("metrics", metrics)),
            )
    };
    let (lines, failed) = compare(&set(), &set());
    assert!(failed.is_empty(), "{failed:?}");
    for name in ["model.virt_krps", "bench.tcp_rx_host_ratio"] {
        assert!(
            lines.iter().any(|l| l.contains(name)),
            "{name} not compared"
        );
    }
}

#[test]
fn lane_shapes_complete_and_verify() {
    for w in &WORKLOADS {
        let shape = small(w.name);
        let m = lane::run(&shape, 7, LANE_REQUESTS, &mut Off);
        assert!(m.correct, "{}: every reply byte for byte", w.name);
        assert!(m.requests + m.failed >= LANE_REQUESTS, "{}", w.name);
        assert_eq!(m.failed, 0, "{}", w.name);
        let retx = m.layer.get("tcp.retx_per_kreq").unwrap();
        assert_eq!(retx > 0.0, shape.drop_pct > 0, "{}: retx {retx}", w.name);
        let deltas = m.layer.get("core.repl_deltas_per_req").unwrap();
        assert_eq!(deltas > 0.0, shape.repl, "{}: deltas {deltas}", w.name);
    }
}

#[test]
fn traced_lane_accounts_for_all_its_time() {
    let shape = small("http_repl");
    let mut t = Tracer::new();
    let m = lane::run(&shape, 7, LANE_REQUESTS, &mut t);
    assert!(m.correct);
    let root = t.agg(Span::Loadgen);
    let self_sum: u64 = SPANS.iter().map(|s| t.agg(*s).self_ns).sum();
    assert_eq!(self_sum, root.total_ns, "self times partition the lane");
    for s in [
        Span::HandleSegment,
        Span::ReplCollect,
        Span::ReplApply,
        Span::AppsHttp,
    ] {
        assert!(t.agg(s).count > 0, "{} never entered", s.name());
    }
    // Per-frame spans carry a request id, and children inherit it.
    assert!(t
        .raw()
        .any(|r| r.span == Span::HandleSegment && r.req != neat_benchmark::span::NO_REQ));
    assert!(t
        .raw()
        .all(|r| r.parent.is_some() || r.span == Span::Loadgen));
}

fn declared(doc: &Json, key: &str) -> Vec<MetricDef> {
    let better = |s: &str| match s {
        "lower" => metrics::Better::Lower,
        "higher" => metrics::Better::Higher,
        other => panic!("better = {other:?}"),
    };
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} missing"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            MetricDef {
                name: s("name"),
                unit: Box::leak(s("unit").into_boxed_str()),
                better: better(&s("better")),
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_is_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");

    assert_eq!(declared(&doc, "end_to_end"), metrics::end_to_end());
    assert_eq!(declared(&doc, "per_layer"), metrics::per_layer());

    let listed: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(listed, ours);
    for (_, why) in &ours {
        assert!(why.len() <= 200 && !why.contains('\n'));
    }

    let paths = doc.get("paths").and_then(Json::as_array).expect("paths");
    assert_eq!(paths, &[Json::Str("benchmark".into())]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_array)
        .expect("command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(command, ["sh", "benchmark/run.sh"]);
}
