//! Spans around the lane's calls into the product, recorded from the
//! benchmark's own files only.
//!
//! The lane is generic over a [`Probe`]. [`Off`] compiles to nothing, so
//! the runs that produce end-to-end metrics carry no tracing code at all;
//! [`Tracer`] aggregates online (count, total, self time = duration minus
//! children, allocations inside) and keeps the last [`RING`] raw spans.

use crate::alloc;
use std::collections::VecDeque;
use std::time::Instant;

/// Every call the lane times. The name is `<layer>.<call>`; the layer is
/// the crate the callee lives in (`bench` is the benchmark itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Span {
    Loadgen,
    NicWireRx,
    NicRxPop,
    NicHostTx,
    FrameioRx,
    FrameioTx,
    TcpParse,
    TcpEmit,
    HandleSegment,
    OnTimer,
    PollTransmit,
    SockApi,
    SockPollWire,
    SockEvents,
    SockApp,
    ReplCollect,
    ReplApply,
    AppsHttp,
}

pub const SPANS: [Span; 18] = [
    Span::Loadgen,
    Span::NicWireRx,
    Span::NicRxPop,
    Span::NicHostTx,
    Span::FrameioRx,
    Span::FrameioTx,
    Span::TcpParse,
    Span::TcpEmit,
    Span::HandleSegment,
    Span::OnTimer,
    Span::PollTransmit,
    Span::SockApi,
    Span::SockPollWire,
    Span::SockEvents,
    Span::SockApp,
    Span::ReplCollect,
    Span::ReplApply,
    Span::AppsHttp,
];

impl Span {
    pub fn name(self) -> &'static str {
        match self {
            Span::Loadgen => "bench.loadgen",
            Span::NicWireRx => "nic.wire_rx",
            Span::NicRxPop => "nic.rx_pop",
            Span::NicHostTx => "nic.host_tx",
            Span::FrameioRx => "core.frameio_rx",
            Span::FrameioTx => "core.frameio_tx",
            Span::TcpParse => "net.tcp_parse",
            Span::TcpEmit => "net.tcp_emit",
            Span::HandleSegment => "tcp.handle_segment",
            Span::OnTimer => "tcp.on_timer",
            Span::PollTransmit => "tcp.poll_transmit",
            Span::SockApi => "tcp.sock_api",
            Span::SockPollWire => "core.sock_poll_wire",
            Span::SockEvents => "core.sock_events",
            Span::SockApp => "core.sock_app",
            Span::ReplCollect => "core.repl_collect",
            Span::ReplApply => "core.repl_apply",
            Span::AppsHttp => "apps.http",
        }
    }
}

/// No request: the span serves many requests (a batch call) or none.
pub const NO_REQ: u64 = u64::MAX;

pub trait Probe {
    /// Whether call sites should bother working out a request id.
    const ON: bool;
    /// Open a span. `req` = [`NO_REQ`] inherits the parent's request id.
    fn enter(&mut self, span: Span, req: u64);
    /// Close the innermost open span.
    fn exit(&mut self);
    /// Forget what was recorded so far (the timed window opens).
    fn reset(&mut self) {}
}

/// Time `f` as one span.
#[inline(always)]
pub fn timed<P: Probe, R>(p: &mut P, span: Span, req: u64, f: impl FnOnce() -> R) -> R {
    p.enter(span, req);
    let r = f();
    p.exit();
    r
}

/// Tracing off: no code at the call sites.
pub struct Off;

impl Probe for Off {
    const ON: bool = false;
    #[inline(always)]
    fn enter(&mut self, _: Span, _: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// Raw spans kept for the chrome trace (the last `RING` of a run).
pub const RING: usize = 1 << 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    pub span: Span,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<Span>,
    pub req: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Allocations made inside the span but outside its children.
    pub self_allocs: u64,
}

struct Open {
    span: Span,
    req: u64,
    start_ns: u64,
    start_allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

pub struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    agg: [Agg; SPANS.len()],
    ring: VecDeque<RawSpan>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// All storage is allocated here, so the tracer itself allocates
    /// nothing inside the spans it counts allocations for.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            stack: Vec::with_capacity(16),
            agg: [Agg::default(); SPANS.len()],
            ring: VecDeque::with_capacity(RING),
        }
    }

    pub fn agg(&self, span: Span) -> Agg {
        self.agg[span as usize]
    }

    pub fn raw(&self) -> impl Iterator<Item = &RawSpan> {
        self.ring.iter()
    }

    fn enter_at(&mut self, span: Span, req: u64, now_ns: u64, allocs: u64) {
        let req = match (req, self.stack.last()) {
            (NO_REQ, Some(parent)) => parent.req,
            _ => req,
        };
        self.stack.push(Open {
            span,
            req,
            start_ns: now_ns,
            start_allocs: allocs,
            child_ns: 0,
            child_allocs: 0,
        });
    }

    fn exit_at(&mut self, now_ns: u64, allocs: u64) {
        let o = self.stack.pop().expect("exit without enter");
        let dur = now_ns - o.start_ns;
        let inside = allocs - o.start_allocs;
        let a = &mut self.agg[o.span as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        a.self_allocs += inside - o.child_allocs;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.child_allocs += inside;
            p.span
        });
        if self.ring.len() == RING {
            self.ring.pop_front();
        }
        self.ring.push_back(RawSpan {
            span: o.span,
            start_ns: o.start_ns,
            end_ns: now_ns,
            parent,
            req: o.req,
        });
    }

    /// Replay the raw spans into `neat_obs::trace` and write a
    /// chrome://tracing file. Track 0 holds roots, track 1 their children,
    /// so nesting shows without overlapping "X" events on one track.
    pub fn export(&self, path: &str) -> std::io::Result<usize> {
        neat_obs::trace::enable(RING);
        for s in &self.ring {
            let name = if s.req == NO_REQ {
                s.span.name().to_string()
            } else {
                format!("{} req={:#x}", s.span.name(), s.req)
            };
            let tid = u64::from(s.parent.is_some());
            let cat = s.parent.map_or("root", Span::name);
            neat_obs::trace::complete(tid, name, cat, s.start_ns, s.end_ns);
        }
        neat_obs::trace::disable();
        let n = neat_obs::trace::export_to_file(path)?;
        neat_obs::trace::clear();
        Ok(n)
    }
}

impl Probe for Tracer {
    const ON: bool = true;

    #[inline]
    fn enter(&mut self, span: Span, req: u64) {
        let allocs = alloc::allocs();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.enter_at(span, req, now, allocs);
    }

    #[inline]
    fn exit(&mut self) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.exit_at(now, alloc::allocs());
    }

    fn reset(&mut self) {
        assert!(self.stack.is_empty(), "reset inside an open span");
        self.agg = [Agg::default(); SPANS.len()];
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the tracer with explicit clocks: root [0,100] holding
    /// child A [10,40] (which holds grandchild [20,25]) and child B
    /// [50,70].
    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.enter_at(Span::Loadgen, NO_REQ, 0, 0);
        t.enter_at(Span::HandleSegment, 7, 10, 1);
        t.enter_at(Span::TcpParse, NO_REQ, 20, 2);
        t.exit_at(25, 4); // grandchild: 5 ns, 2 allocs
        t.exit_at(40, 5); // child A: 30 ns total, 25 self; 4 allocs, 2 self
        t.enter_at(Span::PollTransmit, NO_REQ, 50, 5);
        t.exit_at(70, 5); // child B: 20 ns, 0 allocs
        t.exit_at(100, 9); // root: 100 total, 50 self; 9 allocs, 5 self

        let root = t.agg(Span::Loadgen);
        assert_eq!((root.count, root.total_ns, root.self_ns), (1, 100, 50));
        assert_eq!(root.self_allocs, 5);
        let a = t.agg(Span::HandleSegment);
        assert_eq!((a.total_ns, a.self_ns, a.self_allocs), (30, 25, 2));
        let g = t.agg(Span::TcpParse);
        assert_eq!((g.total_ns, g.self_ns, g.self_allocs), (5, 5, 2));
        // Self times partition the root's duration.
        let sum: u64 = SPANS.iter().map(|s| t.agg(*s).self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn request_id_and_parent_propagate() {
        let mut t = Tracer::new();
        t.enter_at(Span::Loadgen, NO_REQ, 0, 0);
        t.enter_at(Span::HandleSegment, 7, 1, 0);
        t.enter_at(Span::TcpParse, NO_REQ, 2, 0);
        t.exit_at(3, 0);
        t.exit_at(4, 0);
        t.enter_at(Span::PollTransmit, NO_REQ, 5, 0);
        t.exit_at(6, 0);
        t.exit_at(7, 0);
        let raw: Vec<RawSpan> = t.raw().copied().collect();
        // Spans are recorded in completion order.
        assert_eq!(raw[0].span, Span::TcpParse);
        assert_eq!(raw[0].req, 7, "inherits the parent's request id");
        assert_eq!(raw[0].parent, Some(Span::HandleSegment));
        assert_eq!(raw[1].req, 7);
        assert_eq!(raw[1].parent, Some(Span::Loadgen));
        assert_eq!(raw[2].req, NO_REQ, "a root without request has none");
        assert_eq!(raw[3].parent, None);
    }

    #[test]
    fn ring_keeps_only_the_last_spans() {
        let mut t = Tracer::new();
        for i in 0..(RING as u64 + 10) {
            t.enter_at(Span::OnTimer, i, i, 0);
            t.exit_at(i, 0);
        }
        assert_eq!(t.raw().count(), RING);
        assert_eq!(t.raw().next().unwrap().req, 10);
        assert_eq!(t.agg(Span::OnTimer).count, RING as u64 + 10);
    }
}
