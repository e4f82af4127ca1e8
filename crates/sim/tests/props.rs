//! Property tests for the discrete-event engine: ordering, determinism,
//! conservation, and accounting invariants. Runs on the in-tree
//! `neat_util::check` harness (seeded generation + shrinking).

use neat_sim::{Ctx, Event, MachineSpec, ProcId, Process, Sim, SimConfig, Time};
use neat_util::check::{check, vec_of, Config};
use neat_util::{prop_assert, prop_assert_eq};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Clone)]
enum M {
    Work { cost: u64, reply_to: Option<ProcId> },
    Done,
}

/// Records every (time, payload) it sees.
struct Recorder {
    log: Rc<RefCell<Vec<(u64, u64)>>>,
}
impl Process<M> for Recorder {
    fn name(&self) -> String {
        "recorder".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, ev: Event<M>) {
        if let Event::Message {
            msg: M::Work { cost, reply_to },
            ..
        } = ev
        {
            ctx.charge(cost);
            self.log.borrow_mut().push((ctx.now().as_nanos(), cost));
            if let Some(to) = reply_to {
                ctx.send(to, M::Done);
            }
        }
    }
}

/// Per-process handling start times are non-decreasing, and every
/// message sent is eventually handled exactly once.
#[test]
fn fifo_order_and_conservation() {
    check(
        "fifo_order_and_conservation",
        Config::default().cases(48),
        |rng| vec_of(rng, 1..60, |r| r.gen_range(100u64..100_000)),
        |costs| {
            if costs.is_empty() {
                return Ok(());
            }
            let mut sim: Sim<M> = Sim::new(SimConfig::default());
            let m = sim.add_machine(MachineSpec::amd_opteron_6168());
            let t = sim.hw_thread(m, 0, 0);
            let log = Rc::new(RefCell::new(Vec::new()));
            let p = sim.spawn(t, Box::new(Recorder { log: log.clone() }));
            for c in &costs {
                sim.send_external(
                    p,
                    M::Work {
                        cost: *c,
                        reply_to: None,
                    },
                );
            }
            sim.run_until(Time::from_secs(10));
            let log = log.borrow();
            prop_assert_eq!(log.len(), costs.len(), "every message handled once");
            // Handling order == send order (FIFO), and start times monotone.
            for (i, (ts, c)) in log.iter().enumerate() {
                prop_assert_eq!(*c, costs[i], "FIFO");
                if i > 0 {
                    prop_assert!(*ts >= log[i - 1].0, "monotone start times");
                }
            }
            Ok(())
        },
    );
}

/// Identical seeds produce identical histories; randomness is only used
/// by processes, not the engine, so this pins the engine's determinism.
#[test]
fn determinism() {
    check(
        "determinism",
        Config::default().cases(48),
        |rng| {
            (
                vec_of(rng, 1..40, |r| r.gen_range(100u64..50_000)),
                rng.gen::<u64>(),
            )
        },
        |(costs, seed)| {
            if costs.is_empty() {
                return Ok(());
            }
            let run = |seed: u64| {
                let mut sim: Sim<M> = Sim::new(SimConfig {
                    seed,
                    ..SimConfig::default()
                });
                let m = sim.add_machine(MachineSpec::xeon_e5520_dual());
                let t0 = sim.hw_thread(m, 0, 0);
                let t1 = sim.hw_thread(m, 0, 1);
                let log = Rc::new(RefCell::new(Vec::new()));
                let a = sim.spawn(t0, Box::new(Recorder { log: log.clone() }));
                let b = sim.spawn(t1, Box::new(Recorder { log: log.clone() }));
                for (i, c) in costs.iter().enumerate() {
                    sim.send_external(
                        if i % 2 == 0 { a } else { b },
                        M::Work {
                            cost: *c,
                            reply_to: None,
                        },
                    );
                }
                sim.run_until(Time::from_secs(5));
                let l = log.borrow().clone();
                (l, sim.events_dispatched(), sim.now())
            };
            prop_assert_eq!(run(seed), run(seed));
            Ok(())
        },
    );
}

/// Busy time equals the sum of charged costs (converted at the clock),
/// regardless of arrival pattern — no work is lost or double-counted.
#[test]
fn busy_time_accounting() {
    check(
        "busy_time_accounting",
        Config::default().cases(48),
        |rng| {
            (
                vec_of(rng, 1..40, |r| r.gen_range(1_000u64..200_000)),
                rng.gen_range(0u64..50_000),
            )
        },
        |(costs, gap_ns)| {
            if costs.is_empty() {
                return Ok(());
            }
            let mut sim: Sim<M> = Sim::new(SimConfig::default());
            let m = sim.add_machine(MachineSpec::amd_opteron_6168());
            let t = sim.hw_thread(m, 0, 0);
            let log = Rc::new(RefCell::new(Vec::new()));
            let p = sim.spawn(t, Box::new(Recorder { log }));
            sim.run_until(Time::from_micros(1));
            sim.reset_all_stats();
            let mut at = sim.now();
            for c in &costs {
                // Space arrivals; the engine must account identically whether
                // they queue or arrive at an idle thread.
                sim.run_until(at);
                sim.send_external(
                    p,
                    M::Work {
                        cost: *c,
                        reply_to: None,
                    },
                );
                at += Time::from_nanos(gap_ns);
            }
            sim.run_until(Time::from_secs(10));
            let st = sim.thread_stats(t);
            // dispatch cost (MSG_RECV=100) is added per message.
            let total_cycles: u64 = costs.iter().map(|c| c + 100).sum();
            let expect_ns = neat_sim::Freq::ghz(1.9)
                .cycles_to_time(total_cycles)
                .as_nanos();
            let got = st.busy_ns;
            let tol = expect_ns / 100 + costs.len() as u64 + 10;
            prop_assert!(
                got >= expect_ns.saturating_sub(tol) && got <= expect_ns + tol,
                "busy {got} vs expected {expect_ns}"
            );
            Ok(())
        },
    );
}

#[derive(Debug, Clone)]
enum BM {
    Payload(Vec<u8>),
}

/// Sends a scripted trace of payload bursts, spaced by timers, so the
/// coalescer sees a mix of same-instant runs and cross-horizon gaps.
struct BurstSender {
    dst: ProcId,
    bursts: Vec<(u64, Vec<Vec<u8>>)>,
    next: usize,
}
impl Process<BM> for BurstSender {
    fn name(&self) -> String {
        "burst-sender".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, BM>, ev: Event<BM>) {
        match ev {
            Event::Start | Event::Timer { .. } => {
                if let Some((gap, msgs)) = self.bursts.get(self.next).cloned() {
                    self.next += 1;
                    for m in msgs {
                        ctx.send(self.dst, BM::Payload(m));
                    }
                    ctx.set_timer(Time::from_nanos(gap.max(1)), 0);
                }
            }
            _ => {}
        }
    }
}

/// Concatenates each sender's payload bytes in arrival order.
struct StreamSink {
    streams: Rc<RefCell<std::collections::BTreeMap<u64, Vec<u8>>>>,
}
impl Process<BM> for StreamSink {
    fn name(&self) -> String {
        "stream-sink".into()
    }
    fn on_event(&mut self, _ctx: &mut Ctx<'_, BM>, ev: Event<BM>) {
        if let Event::Message {
            from,
            msg: BM::Payload(p),
        } = ev
        {
            self.streams
                .borrow_mut()
                .entry(from.0)
                .or_default()
                .extend_from_slice(&p);
        }
    }
}

/// Link coalescing is invisible to applications: for a random traffic
/// trace, the per-(src,dst) byte streams a receiver observes are
/// byte-identical, in identical order, with batching on and off.
#[test]
fn batching_preserves_per_link_streams() {
    check(
        "batching_preserves_per_link_streams",
        Config::default().cases(32),
        |rng| {
            let senders = rng.gen_range(1usize..4);
            let traces: Vec<Vec<(u64, Vec<Vec<u8>>)>> = (0..senders)
                .map(|_| {
                    vec_of(rng, 1..8, |r| {
                        let gap = r.gen_range(100u64..6_000);
                        let burst = vec_of(r, 1..10, |r2| vec_of(r2, 1..12, |r3| r3.gen::<u8>()));
                        (gap, burst)
                    })
                })
                .collect();
            let batch_ns = rng.gen_range(500u64..4_000);
            let batch_max = rng.gen_range(2usize..16);
            (traces, batch_ns, batch_max)
        },
        |(traces, batch_ns, batch_max)| {
            let run = |batch_ns: u64, batch_max: usize| {
                let mut sim: Sim<BM> = Sim::new(SimConfig {
                    batch_ns,
                    batch_max,
                    ..SimConfig::default()
                });
                let m = sim.add_machine(MachineSpec::xeon_e5520_dual());
                let sink_t = sim.hw_thread(m, 0, 0);
                let streams = Rc::new(RefCell::new(std::collections::BTreeMap::new()));
                let sink = sim.spawn(
                    sink_t,
                    Box::new(StreamSink {
                        streams: streams.clone(),
                    }),
                );
                for (i, trace) in traces.iter().enumerate() {
                    let t = sim.hw_thread(m, 1 + (i % 3) as u32, 0);
                    sim.spawn(
                        t,
                        Box::new(BurstSender {
                            dst: sink,
                            bursts: trace.clone(),
                            next: 0,
                        }),
                    );
                }
                sim.run_until(Time::from_millis(10));
                let out = streams.borrow().clone();
                out
            };
            let unbatched = run(0, batch_max);
            let batched = run(batch_ns, batch_max);
            prop_assert_eq!(
                unbatched.values().map(Vec::len).sum::<usize>(),
                traces
                    .iter()
                    .flat_map(|t| t.iter().flat_map(|(_, b)| b.iter().map(Vec::len)))
                    .sum::<usize>(),
                "all payload bytes delivered"
            );
            // ProcIds differ per run only if spawn order differs — it does
            // not, so keys line up; compare stream-by-stream.
            prop_assert_eq!(batched, unbatched, "per-link streams identical");
            Ok(())
        },
    );
}

// ---- Multi-machine scenario: a fixed-seed ring across four machines ----
//
// Every test above builds one machine. This one pins what DESIGN.md
// "Scheduling domains & determinism" promises about several: pids, event
// sequence numbers and RNG draws are per machine, so the merged history is
// reproducible and a machine's history ignores machines it never talks to.

#[derive(Debug, Clone)]
enum RM {
    /// Ring traffic between machines; payload = remaining hops.
    Ping(u64),
    /// Machine-local traffic to the sink.
    Token(u64),
}

type RingLog = Rc<RefCell<Vec<(u64, u64)>>>;

/// Wire delay of every cross-machine ping.
const RING_LINK: Time = Time(800);

/// Rings pings across machines, feeds tokens to its machine-local sink,
/// burns RNG-dependent work and re-arms timers.
struct RingWorker {
    peer: ProcId,
    sink: ProcId,
    log: RingLog,
    timers_left: u64,
}

impl Process<RM> for RingWorker {
    fn name(&self) -> String {
        "worker".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, RM>, ev: Event<RM>) {
        match ev {
            Event::Start => {
                ctx.set_timer(Time::from_micros(5), 1);
                ctx.send_delayed(self.peer, RM::Ping(40), RING_LINK);
            }
            Event::Message {
                msg: RM::Ping(v), ..
            } => {
                self.log.borrow_mut().push((ctx.now().as_nanos(), v));
                // A draw leaking between machines' streams would change
                // this charge, and with it every later timestamp.
                let cost = ctx.rng().gen_range(500u64..5_000);
                ctx.charge(cost);
                ctx.send(self.sink, RM::Token(v));
                if v > 0 {
                    ctx.send_delayed(self.peer, RM::Ping(v - 1), RING_LINK);
                }
            }
            Event::Timer { .. } => {
                ctx.send(self.sink, RM::Token(1_000 + self.timers_left));
                if self.timers_left > 0 {
                    self.timers_left -= 1;
                    ctx.set_timer(Time::from_micros(5), 1);
                }
            }
            _ => {}
        }
    }
}

/// Logs every token (zero-latency local link, coalesced when batching).
struct RingSink {
    log: RingLog,
}

impl Process<RM> for RingSink {
    fn name(&self) -> String {
        "sink".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, RM>, ev: Event<RM>) {
        if let Event::Message {
            msg: RM::Token(v), ..
        } = ev
        {
            self.log.borrow_mut().push((ctx.now().as_nanos(), v));
        }
    }
}

/// Everything observable about a finished ring run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    now_ns: u64,
    dispatched: u64,
    /// Per process (workers then sinks, in machine order): (time, value).
    logs: Vec<Vec<(u64, u64)>>,
    /// (busy_ns, events) of every hardware thread that ran anything.
    thread_busy: Vec<(u64, u64)>,
    batch: neat_sim::BatchStats,
}

/// Run the ring over the first four of `machines` machines for 2 ms; any
/// further machines exist but hold no process.
fn run_ring(machines: usize, batch_ns: u64) -> Fingerprint {
    const RING: usize = 4;
    let mut sim: Sim<RM> = Sim::new(SimConfig {
        seed: 0xDE7E_4213,
        batch_ns,
        ..SimConfig::default()
    });
    let ms: Vec<_> = (0..machines)
        .map(|_| sim.add_machine(MachineSpec::amd_opteron_6168()))
        .collect();
    let mut sinks = Vec::new();
    let mut sink_logs = Vec::new();
    for &m in &ms[..RING] {
        let log = RingLog::default();
        sinks.push(sim.spawn(
            sim.hw_thread(m, 1, 0),
            Box::new(RingSink { log: log.clone() }),
        ));
        sink_logs.push(log);
    }
    let mut logs = Vec::new();
    for i in 0..RING {
        let log = RingLog::default();
        // Worker i pings the worker on machine i+1, which is the *second*
        // pid its machine allocates: `(machine + 1) << 40 | local`.
        let next = ms[(i + 1) % RING];
        let peer = ProcId(((next.0 as u64 + 1) << 40) | 2);
        let worker = sim.spawn(
            sim.hw_thread(ms[i], 0, 0),
            Box::new(RingWorker {
                peer,
                sink: sinks[i],
                log: log.clone(),
                timers_left: 20,
            }),
        );
        assert_eq!(
            worker.0 & 0xFF_FFFF_FFFF,
            2,
            "pid allocation is per machine"
        );
        logs.push(log);
    }
    logs.extend(sink_logs);
    let dispatched = sim.run_until(Time::from_millis(2));
    let thread_busy = (0..sim.num_hw_threads())
        .map(|t| sim.thread_stats(neat_sim::HwThreadId(t)))
        .filter(|st| st.events > 0)
        .map(|st| (st.busy_ns, st.events))
        .collect();
    Fingerprint {
        now_ns: sim.now().as_nanos(),
        dispatched,
        logs: logs.iter().map(|l| l.borrow().clone()).collect(),
        thread_busy,
        batch: sim.batch_stats(),
    }
}

/// (i) same seed, same fingerprint; (ii) event count, clock and last
/// logged instant equal recorded literals, so an engine change that
/// reorders anything shows up here; (iii) a fifth, empty machine changes
/// nothing on machines 0–3.
fn check_ring(batch_ns: u64, dispatched: u64, last_logged_ns: u64) -> Fingerprint {
    let a = run_ring(4, batch_ns);
    assert_eq!(a, run_ring(4, batch_ns), "same seed, different history");
    assert_eq!(a.dispatched, dispatched);
    assert_eq!(a.now_ns, 2_000_000);
    let last = a.logs.iter().flatten().map(|&(t, _)| t).max();
    assert_eq!(last, Some(last_logged_ns));
    assert_eq!(
        a,
        run_ring(5, batch_ns),
        "an idle machine perturbed the others"
    );
    a
}

#[test]
fn four_machine_ring_is_pinned_and_domain_independent() {
    let f = check_ring(0, 666, 135_465);
    assert_eq!(f.batch.batch_deliveries, 0);
}

#[test]
fn four_machine_ring_with_batching_is_pinned_and_domain_independent() {
    let f = check_ring(2_000, 640, 125_697);
    // Batching must actually have engaged, or the test is vacuous.
    assert!(f.batch.batch_deliveries > 0);
}
