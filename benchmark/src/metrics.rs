//! The names the benchmark reports — the same lists `BENCHMARK.json`
//! declares (a test compares them) — and the small statistics helpers.

use crate::span::SPANS;
use neat_util::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics: host clock and allocator only, tracing off, the
/// same six on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("host_us_per_req", "us", Lower, Some(0.25)),
        def("allocs_per_req", "count", Lower, Some(0.02)),
        def("alloc_kb_per_req", "KiB", Lower, Some(0.02)),
        def("peak_live_mb", "MB", Lower, Some(0.05)),
        def("success_pct", "%", Higher, Some(0.001)),
        def("setup_s", "s", Lower, Some(0.25)),
    ]
}

/// Layer metrics read after an untraced window through public getters
/// and always-on `neat-obs` counters, in report order.
const LAYER: &[(&str, &str, Better)] = {
    use Better::*;
    &[
        ("sim.events_per_req", "count", Lower),
        ("sim.host_ns_per_event", "ns", Lower),
        ("sim.batch_occupancy", "count", Higher),
        ("sim.slice_us_per_req_p50", "us", Lower),
        ("sim.slice_us_per_req_p95", "us", Lower),
        ("sim.fabric_us_per_req", "us", Lower),
        ("nic.rx_frames_per_req", "count", Lower),
        ("nic.tx_frames_per_req", "count", Lower),
        ("nic.rx_dropped_ring", "count", Lower),
        ("core.driver_fwd_per_req", "count", Lower),
        ("core.sys_calls_per_req", "count", Lower),
        ("tcp.rx_segs_per_req", "count", Lower),
        ("tcp.tx_segs_per_req", "count", Lower),
        ("tcp.retx_per_kreq", "count", Lower),
        ("tcp.accepts_per_req", "count", Lower),
        ("tcp.syn_dropped", "count", Lower),
        ("tcp.bytes_per_conn", "B", Lower),
        ("net.pktbuf_reuse_pct", "%", Higher),
        ("net.copies_avoided_per_req", "count", Higher),
        ("core.repl_deltas_per_req", "count", Lower),
        ("core.handoffs", "count", Higher),
        ("core.stateful_losses", "count", Lower),
        ("apps.served_vs_completed", "ratio", Lower),
        ("model.virt_krps", "krps", Higher),
        ("model.virt_goodput_mbps", "Mbit/s", Higher),
        ("model.virt_p50_us", "us", Lower),
        ("model.virt_p99_us", "us", Lower),
        ("model.replica_util_pct", "%", Lower),
        ("model.driver_util_pct", "%", Lower),
        ("bench.cpu_share_pct", "%", Higher),
        ("bench.host_speed_pct", "%", Higher),
        ("bench.window_us_per_req", "us", Lower),
        ("bench.tcp_rx_host_ratio", "ratio", Lower),
        ("bench.loadgen_share_pct", "%", Lower),
        ("bench.trace_overhead_pct", "%", Lower),
    ]
};

/// Per-layer metrics: two per lane span, then [`LAYER`].
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for s in SPANS {
        v.push(def(
            &format!("{}.ns_per_req", s.name()),
            "ns",
            Better::Lower,
            None,
        ));
        v.push(def(
            &format!("{}.allocs_per_req", s.name()),
            "count",
            Better::Lower,
            None,
        ));
    }
    v.extend(LAYER.iter().map(|(n, u, b)| def(n, u, *b, None)));
    v
}

/// Named values in insertion order (a run's metrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = v,
            None => self.0.push((name.to_string(), v)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for exactly `defs`; a
    /// metric this run has nothing to say about reads 0.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        let mut o = Json::object();
        for d in defs {
            let v = self.get(&d.name).unwrap_or(0.0);
            o = o.field(
                d.name.as_str(),
                Json::object().field("value", v).field("unit", d.unit),
            );
        }
        o
    }
}

/// Percentile of an ascending slice by linear interpolation between the
/// two closest ranks (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.125), 1.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[4.0], 0.95), 4.0);
        // 200 slices: p95 leaves ten samples beyond it.
        let s: Vec<f64> = (0..200).map(f64::from).collect();
        let p95 = percentile(&s, 0.95);
        assert_eq!(s.iter().filter(|x| **x > p95).count(), 10);
    }

    #[test]
    fn median_of_unsorted_even_sample() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }
}
