//! The metrics registry: named counters, gauges, and histograms.
//!
//! The simulation is single-threaded, so the registry is a thread-local
//! singleton: any component anywhere in the stack can register a metric by
//! name and hold a copyable integer handle to it. Handle operations are a
//! TLS access plus a vector index — cheap enough for per-packet paths.
//!
//! Registrations persist for the life of the thread; [`reset`] zeroes the
//! *values* but keeps every registration, so handles held inside
//! long-lived components stay valid across measurement windows.

use crate::stats::Histogram;
use neat_util::{FxHashMap, Json, ToJson};
use std::cell::{Cell, RefCell};

#[derive(Clone, Copy)]
enum Id {
    Counter(usize),
    Gauge(usize),
    Hist(usize),
}

#[derive(Default)]
struct Registry {
    /// Name -> handle. Only probed: export walks the vectors.
    names: FxHashMap<String, Id>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, Histogram)>,
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::default());
    static ENABLED: Cell<bool> = const { Cell::new(true) };
}

fn with<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    REGISTRY.with(|r| f(&mut r.borrow_mut()))
}

/// Disable (or re-enable) the metrics registry on the **current thread**.
///
/// Handles are indices into the registering thread's registry, so a handle
/// created on the main thread must never be dereferenced on a worker whose
/// registry has different (or no) registrations. While disabled, every
/// handle operation and by-name registration on the thread is a no-op,
/// which both prevents cross-registry indexing on a worker thread and lets
/// a driver keep part of its work out of the snapshot (`conn_scale` runs
/// its client lanes disabled so the report shows the server stack alone;
/// `failover` keeps the registry out of its report entirely).
pub fn set_thread_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether the metrics registry is active on the current thread.
pub fn thread_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Handle to a registered counter (monotonic within a window).
#[derive(Debug, Clone, Copy)]
pub struct Counter(usize);

impl Counter {
    pub fn add(self, n: u64) {
        if thread_enabled() {
            with(|r| r.counters[self.0].1 += n);
        }
    }

    pub fn inc(self) {
        self.add(1);
    }

    pub fn get(self) -> u64 {
        if thread_enabled() {
            with(|r| r.counters[self.0].1)
        } else {
            0
        }
    }
}

/// Handle to a registered gauge (last-write-wins level).
#[derive(Debug, Clone, Copy)]
pub struct Gauge(usize);

impl Gauge {
    pub fn set(self, v: f64) {
        if thread_enabled() {
            with(|r| r.gauges[self.0].1 = v);
        }
    }

    pub fn get(self) -> f64 {
        if thread_enabled() {
            with(|r| r.gauges[self.0].1)
        } else {
            0.0
        }
    }
}

/// Handle to a registered histogram (value space: u64, by convention ns).
#[derive(Debug, Clone, Copy)]
pub struct HistogramHandle(usize);

impl HistogramHandle {
    pub fn observe(self, v: u64) {
        if thread_enabled() {
            with(|r| r.hists[self.0].1.record(v));
        }
    }

    /// A snapshot clone of the current histogram contents.
    pub fn get(self) -> Histogram {
        if thread_enabled() {
            with(|r| r.hists[self.0].1.clone())
        } else {
            Histogram::new()
        }
    }
}

/// Register (or look up) a counter by name.
///
/// Panics if `name` is already registered as a different metric kind —
/// that is always a naming bug worth failing loudly on.
pub fn counter(name: &str) -> Counter {
    if !thread_enabled() {
        // Dummy handle: every operation on it is a no-op on this thread
        // (and would be out-of-bounds anywhere else, which is the point —
        // it must never leak to an enabled thread).
        return Counter(usize::MAX);
    }
    with(|r| match r.names.get(name) {
        Some(Id::Counter(i)) => Counter(*i),
        Some(_) => panic!("metric {name:?} already registered with a different kind"),
        None => {
            let i = r.counters.len();
            r.counters.push((name.to_string(), 0));
            r.names.insert(name.to_string(), Id::Counter(i));
            Counter(i)
        }
    })
}

/// Register (or look up) a gauge by name.
pub fn gauge(name: &str) -> Gauge {
    if !thread_enabled() {
        return Gauge(usize::MAX);
    }
    with(|r| match r.names.get(name) {
        Some(Id::Gauge(i)) => Gauge(*i),
        Some(_) => panic!("metric {name:?} already registered with a different kind"),
        None => {
            let i = r.gauges.len();
            r.gauges.push((name.to_string(), 0.0));
            r.names.insert(name.to_string(), Id::Gauge(i));
            Gauge(i)
        }
    })
}

/// Register (or look up) a histogram by name.
pub fn histogram(name: &str) -> HistogramHandle {
    if !thread_enabled() {
        return HistogramHandle(usize::MAX);
    }
    with(|r| match r.names.get(name) {
        Some(Id::Hist(i)) => HistogramHandle(*i),
        Some(_) => panic!("metric {name:?} already registered with a different kind"),
        None => {
            let i = r.hists.len();
            r.hists.push((name.to_string(), Histogram::new()));
            r.names.insert(name.to_string(), Id::Hist(i));
            HistogramHandle(i)
        }
    })
}

/// One-shot convenience for cold paths (crash events, scale transitions):
/// registers on first use, then bumps.
pub fn counter_add(name: &str, n: u64) {
    counter(name).add(n);
}

/// One-shot gauge write for cold paths and end-of-window exports.
pub fn gauge_set(name: &str, v: f64) {
    gauge(name).set(v);
}

/// Zero every metric value, keeping all registrations (and therefore all
/// outstanding handles) intact. Called at the start of a measurement
/// window so snapshots cover exactly that window.
pub fn reset() {
    with(|r| {
        for c in &mut r.counters {
            c.1 = 0;
        }
        for g in &mut r.gauges {
            g.1 = 0.0;
        }
        for h in &mut r.hists {
            h.1 = Histogram::new();
        }
    });
}

/// Drop every registration. Only for test isolation — outstanding handles
/// become dangling (their indices may be reused by later registrations).
pub fn clear() {
    with(|r| *r = Registry::default());
}

/// Machine-readable snapshot of every registered metric, in registration
/// order: `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
pub fn snapshot() -> Json {
    with(|r| {
        let mut counters = Json::object();
        for (name, v) in &r.counters {
            counters = counters.field(name.clone(), *v);
        }
        let mut gauges = Json::object();
        for (name, v) in &r.gauges {
            gauges = gauges.field(name.clone(), *v);
        }
        let mut hists = Json::object();
        for (name, h) in &r.hists {
            hists = hists.field(name.clone(), h.to_json());
        }
        Json::object()
            .field("counters", counters)
            .field("gauges", gauges)
            .field("histograms", hists)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_accumulate_and_reset() {
        clear();
        let c = counter("test.pkts");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        // Same name returns the same slot.
        let c2 = counter("test.pkts");
        c2.inc();
        assert_eq!(c.get(), 5);
        reset();
        assert_eq!(c.get(), 0, "reset zeroes values");
        c.inc();
        assert_eq!(c.get(), 1, "handles stay valid across reset");
        clear();
    }

    #[test]
    fn gauges_and_histograms() {
        clear();
        let g = gauge("test.load");
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
        let h = histogram("test.lat");
        h.observe(100);
        h.observe(300);
        assert_eq!(h.get().count(), 2);
        assert_eq!(h.get().mean(), 200);
        clear();
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        clear();
        let _ = counter("test.kind");
        let _ = gauge("test.kind");
    }

    #[test]
    fn disabled_thread_is_inert_and_safe() {
        clear();
        let c = counter("test.cross");
        c.add(2);
        // A worker thread with metrics disabled can use a main-thread
        // handle freely: no panic, no effect on its own (empty) registry.
        std::thread::scope(|s| {
            s.spawn(|| {
                set_thread_enabled(false);
                c.add(100);
                assert_eq!(c.get(), 0);
                let d = counter("test.worker_only");
                d.inc();
                gauge_set("test.worker_gauge", 1.0);
                histogram("test.worker_hist").observe(5);
                assert!(!thread_enabled());
            })
            .join()
            .unwrap();
        });
        assert_eq!(c.get(), 2, "worker adds must not reach this registry");
        let s = snapshot().render();
        assert!(!s.contains("worker_only"), "{s}");
        clear();
    }

    #[test]
    fn snapshot_shape() {
        clear();
        counter("a.count").add(7);
        gauge_set("b.level", 1.5);
        histogram("c.lat").observe(9);
        let s = snapshot().render();
        assert!(s.contains(r#""a.count":7"#), "{s}");
        assert!(s.contains(r#""b.level":1.5"#), "{s}");
        assert!(s.contains(r#""c.lat":{"count":1"#), "{s}");
        clear();
    }
}
