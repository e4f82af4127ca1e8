//! Tests for the discrete-event engine (out-of-line so `engine.rs`
//! stays within the CI module-size guard; `#[path]` inclusion keeps
//! private-item access).

use super::*;

#[derive(Debug)]
enum TMsg {
    Ping(u32),
    Pong(u32),
    Die,
}

struct Echo {
    got: Vec<u32>,
}
impl Process<TMsg> for Echo {
    fn name(&self) -> String {
        "echo".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
        if let Event::Message { from, msg } = ev {
            match msg {
                TMsg::Ping(n) => {
                    self.got.push(n);
                    ctx.charge(1000);
                    ctx.send(from, TMsg::Pong(n));
                }
                TMsg::Die => ctx.crash_self(),
                TMsg::Pong(_) => {}
            }
        }
    }
}

struct Collector {
    pongs: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
    peer: Option<ProcId>,
    to_send: u32,
}
impl Process<TMsg> for Collector {
    fn name(&self) -> String {
        "collector".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
        match ev {
            Event::Start => {
                if let Some(p) = self.peer {
                    for i in 0..self.to_send {
                        ctx.send(p, TMsg::Ping(i));
                    }
                }
            }
            Event::Message {
                msg: TMsg::Pong(n), ..
            } => self.pongs.borrow_mut().push(n),
            _ => {}
        }
    }
}

fn two_proc_sim() -> (
    Sim<TMsg>,
    ProcId,
    ProcId,
    std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
) {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let t0 = sim.hw_thread(m, 0, 0);
    let t1 = sim.hw_thread(m, 1, 0);
    let echo = sim.spawn(t0, Box::new(Echo { got: vec![] }));
    let pongs = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let coll = sim.spawn(
        t1,
        Box::new(Collector {
            pongs: pongs.clone(),
            peer: Some(echo),
            to_send: 5,
        }),
    );
    (sim, echo, coll, pongs)
}

#[test]
fn messages_round_trip_in_order() {
    let (mut sim, _, _, pongs) = two_proc_sim();
    sim.run_until(Time::from_millis(10));
    assert_eq!(*pongs.borrow(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn charged_cycles_advance_busy_time() {
    let (mut sim, echo, _, _) = two_proc_sim();
    sim.run_until(Time::from_millis(10));
    let tid = sim.proc_thread(echo).unwrap();
    let st = sim.thread_stats(tid);
    assert_eq!(st.events, 6, "start + 5 pings");
    // 5 pings x >=1000 cycles at 1.9GHz -> >= 2631ns busy
    assert!(st.busy_ns >= 2_500, "busy {}ns", st.busy_ns);
}

#[test]
fn crash_drops_state_and_messages() {
    let (mut sim, echo, coll, pongs) = two_proc_sim();
    sim.run_until(Time::from_millis(1));
    assert!(sim.is_alive(echo));
    sim.send_external(echo, TMsg::Die);
    sim.run_until(Time::from_millis(2));
    assert!(!sim.is_alive(echo));
    let before = pongs.borrow().len();
    // Messages to the dead process vanish; collector gets nothing new.
    sim.send_external(echo, TMsg::Ping(99));
    sim.run_until(Time::from_millis(5));
    assert_eq!(pongs.borrow().len(), before);
    assert!(sim.is_alive(coll));
}

#[test]
fn crash_monitor_is_notified() {
    let (mut sim, echo, coll, pongs) = two_proc_sim();
    // Reuse collector as the "monitor": crashes arrive as Pong(4242).
    sim.set_crash_monitor(coll, |_pid, _| TMsg::Pong(4242));
    sim.run_until(Time::from_millis(1));
    sim.send_external(echo, TMsg::Die);
    sim.run_until(Time::from_millis(2));
    assert!(pongs.borrow().contains(&4242));
}

#[test]
fn determinism_same_seed_same_history() {
    let run = || {
        let (mut sim, _, _, pongs) = two_proc_sim();
        sim.run_until(Time::from_millis(10));
        let got = pongs.borrow().clone();
        (sim.now(), sim.events_dispatched(), got)
    };
    assert_eq!(run(), run());
}

#[test]
fn spawn_from_ctx_starts_later() {
    struct Spawner {
        thread: Option<HwThreadId>,
    }
    impl Process<TMsg> for Spawner {
        fn name(&self) -> String {
            "spawner".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if let Event::Start = ev {
                let t = self.thread.unwrap();
                ctx.spawn(t, Box::new(Echo { got: vec![] }), Time::from_millis(3));
            }
        }
    }
    let mut sim: Sim<TMsg> = Sim::new(SimConfig::default());
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let t0 = sim.hw_thread(m, 0, 0);
    let t1 = sim.hw_thread(m, 1, 0);
    sim.spawn(t0, Box::new(Spawner { thread: Some(t1) }));
    sim.run_until(Time::from_millis(1));
    // Child not yet started (delay 3ms) — but it exists as alive.
    sim.run_until(Time::from_millis(10));
    let st = sim.thread_stats(t1);
    assert_eq!(st.events, 1, "child's Start dispatched after the delay");
}

#[test]
fn batching_coalesces_per_link_and_preserves_order() {
    // A burst of sends inside one handler must arrive as one Batch
    // wakeup, in send order, when coalescing is on.
    struct Sink {
        got: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
        wakeups: std::rc::Rc<std::cell::RefCell<u64>>,
    }
    impl Process<TMsg> for Sink {
        fn name(&self) -> String {
            "sink".into()
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if let Event::Message {
                msg: TMsg::Ping(n), ..
            } = ev
            {
                self.got.borrow_mut().push(n);
            }
        }
        fn settle(&mut self, _ctx: &mut Ctx<'_, TMsg>) {
            *self.wakeups.borrow_mut() += 1;
        }
    }
    let mut sim: Sim<TMsg> = Sim::new(SimConfig {
        batch_ns: 2_000,
        ..SimConfig::default()
    });
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let t0 = sim.hw_thread(m, 0, 0);
    let t1 = sim.hw_thread(m, 1, 0);
    let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let wakeups = std::rc::Rc::new(std::cell::RefCell::new(0u64));
    let sink = sim.spawn(
        t0,
        Box::new(Sink {
            got: got.clone(),
            wakeups: wakeups.clone(),
        }),
    );
    let pongs = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    sim.spawn(
        t1,
        Box::new(Collector {
            pongs: pongs.clone(),
            peer: Some(sink),
            to_send: 8,
        }),
    );
    sim.run_until(Time::from_millis(10));
    assert_eq!(*got.borrow(), (0..8).collect::<Vec<u32>>(), "FIFO order");
    assert_eq!(
        *wakeups.borrow(),
        2,
        "Start, then one wakeup for the whole burst"
    );
    let bs = sim.batch_stats();
    assert_eq!(bs.batch_deliveries, 1);
    assert_eq!(bs.batched_msgs, 8);
    assert_eq!(bs.flush_timer, 1, "horizon flush delivered it");
}

#[test]
fn batch_max_flushes_early() {
    // A silent consumer, so only the ping direction produces batches.
    struct Quiet {
        got: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
    }
    impl Process<TMsg> for Quiet {
        fn name(&self) -> String {
            "quiet".into()
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if let Event::Message {
                msg: TMsg::Ping(n), ..
            } = ev
            {
                self.got.borrow_mut().push(n);
            }
        }
    }
    let mut sim: Sim<TMsg> = Sim::new(SimConfig {
        batch_ns: 1_000_000, // horizon far away: only depth can flush early
        batch_max: 4,
        ..SimConfig::default()
    });
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let t0 = sim.hw_thread(m, 0, 0);
    let t1 = sim.hw_thread(m, 1, 0);
    let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let quiet = sim.spawn(t0, Box::new(Quiet { got: got.clone() }));
    let pongs = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    sim.spawn(
        t1,
        Box::new(Collector {
            pongs: pongs.clone(),
            peer: Some(quiet),
            to_send: 9,
        }),
    );
    sim.run_until(Time::from_millis(20));
    let bs = sim.batch_stats();
    assert_eq!(bs.flush_depth, 2, "9 msgs at depth 4: two early flushes");
    assert_eq!(bs.flush_timer, 1, "the trailing message rides the horizon");
    assert_eq!(*got.borrow(), (0..9).collect::<Vec<u32>>());
}

#[test]
fn settle_closes_every_wakeup_once() {
    // Logs each `on_event` kind and each `settle`; dies on `Die`.
    struct Logger(std::rc::Rc<std::cell::RefCell<Vec<String>>>);
    impl Process<TMsg> for Logger {
        fn name(&self) -> String {
            "logger".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            let entry = match ev {
                Event::Start => {
                    ctx.set_timer(Time::from_micros(20), 0);
                    "start".to_string()
                }
                Event::Timer { .. } => "timer".to_string(),
                Event::Message { msg: TMsg::Die, .. } => {
                    ctx.crash_self();
                    "die".to_string()
                }
                Event::Message { msg, .. } => format!("{msg:?}"),
            };
            self.0.borrow_mut().push(entry);
        }
        fn settle(&mut self, _ctx: &mut Ctx<'_, TMsg>) {
            self.0.borrow_mut().push("settle".into());
        }
    }
    // Sends each round from one handler: a run of three at Start, a lone
    // message at 50 µs, and at 100 µs a run that kills the logger midway.
    struct Rounds(ProcId);
    impl Process<TMsg> for Rounds {
        fn name(&self) -> String {
            "rounds".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            let round = match ev {
                Event::Start => {
                    ctx.set_timer(Time::from_micros(50), 1);
                    ctx.set_timer(Time::from_micros(100), 2);
                    vec![TMsg::Ping(0), TMsg::Ping(1), TMsg::Ping(2)]
                }
                Event::Timer { token: 1 } => vec![TMsg::Ping(3)],
                Event::Timer { .. } => vec![TMsg::Ping(4), TMsg::Die, TMsg::Ping(5)],
                Event::Message { .. } => vec![],
            };
            for msg in round {
                ctx.send(self.0, msg);
            }
        }
    }
    let mut sim: Sim<TMsg> = Sim::new(SimConfig {
        batch_ns: 2_000,
        ..SimConfig::default()
    });
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let log = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let logger = sim.spawn(sim.hw_thread(m, 0, 0), Box::new(Logger(log.clone())));
    sim.spawn(sim.hw_thread(m, 1, 0), Box::new(Rounds(logger)));
    sim.run_until(Time::from_micros(30));
    sim.send_external(logger, TMsg::Pong(9));
    sim.run_until(Time::from_millis(1));
    let expect = [
        "start", "settle", // Start
        "Ping(0)", "Ping(1)", "Ping(2)", "settle", // a coalesced run
        "timer", "settle", // a timer
        "Pong(9)", "settle", // a lone external message
        "Ping(3)", "settle", // a lone message from a process
        "Ping(4)", "die", "Ping(5)", "settle", // the run finishes its loop
    ];
    assert_eq!(*log.borrow(), expect);
    assert!(!sim.is_alive(logger));
    let bs = sim.batch_stats();
    assert_eq!((bs.batch_deliveries, bs.batched_msgs), (2, 6));
}

#[test]
fn batched_and_unbatched_histories_match() {
    // The coalescer may merge wakeups and shift delivery instants, but
    // the application-visible stream (payloads, per-link order) must
    // be identical with batching on and off.
    let run = |batch_ns: u64| {
        let mut sim: Sim<TMsg> = Sim::new(SimConfig {
            batch_ns,
            ..SimConfig::default()
        });
        let m = sim.add_machine(MachineSpec::amd_opteron_6168());
        let t0 = sim.hw_thread(m, 0, 0);
        let t1 = sim.hw_thread(m, 1, 0);
        let echo = sim.spawn(t0, Box::new(Echo { got: vec![] }));
        let pongs = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
        sim.spawn(
            t1,
            Box::new(Collector {
                pongs: pongs.clone(),
                peer: Some(echo),
                to_send: 32,
            }),
        );
        sim.run_until(Time::from_millis(50));
        let out = pongs.borrow().clone();
        out
    };
    assert_eq!(run(0), run(2_000));
}

#[test]
fn smt_sibling_slows_execution() {
    struct Burn;
    impl Process<TMsg> for Burn {
        fn name(&self) -> String {
            "burn".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if let Event::Message { .. } = ev {
                ctx.charge(1_000_000);
            }
        }
    }
    // Run a stream of work alone vs. with a busy SMT sibling: in steady
    // state each thread of a busy pair runs 2/SMT_CAPACITY slower.
    let solo_busy = {
        let mut sim: Sim<TMsg> = Sim::new(SimConfig::default());
        let m = sim.add_machine(MachineSpec::xeon_e5520_dual());
        let t0 = sim.hw_thread(m, 0, 0);
        let p = sim.spawn(t0, Box::new(Burn));
        sim.run_until(Time::from_micros(1));
        sim.reset_all_stats();
        for _ in 0..20 {
            sim.send_external(p, TMsg::Ping(0));
        }
        sim.run_until(Time::from_millis(100));
        sim.thread_stats(t0).busy_ns
    };
    let paired_busy = {
        let mut sim: Sim<TMsg> = Sim::new(SimConfig::default());
        let m = sim.add_machine(MachineSpec::xeon_e5520_dual());
        let t0 = sim.hw_thread(m, 0, 0);
        let t1 = sim.hw_thread(m, 0, 1);
        let a = sim.spawn(t0, Box::new(Burn));
        let b = sim.spawn(t1, Box::new(Burn));
        sim.run_until(Time::from_micros(1));
        sim.reset_all_stats();
        for _ in 0..20 {
            sim.send_external(a, TMsg::Ping(0));
            sim.send_external(b, TMsg::Ping(0));
        }
        sim.run_until(Time::from_millis(100));
        sim.thread_stats(t0).busy_ns
    };
    assert!(
        paired_busy as f64 > solo_busy as f64 * 1.3,
        "SMT contention should slow the thread: solo={solo_busy} paired={paired_busy}"
    );
}

#[test]
fn dispatch_history_digest_is_pinned() {
    // The engine's bookkeeping may change; the history it produces may not.
    // Every handler invocation folds (now, self, event, payload) into one
    // FNV-1a digest, over a run that uses every `Ctx` and harness entry
    // point: local, cross-machine and delayed sends, bursts that coalesce,
    // timers, `Ctx::spawn` (two pids reserved in one handler, one sent to
    // before its slot exists), `Ctx::kill` as crash and as exit,
    // `crash_self` under a crash monitor (with a send left in an open batch
    // by the dying process), and sends to dead pids.
    use std::cell::Cell;
    use std::rc::Rc;

    #[derive(Debug)]
    enum D {
        Tok(u32),
        Crashed(u64),
        Die,
    }
    struct Node {
        h: Rc<Cell<u64>>,
        local: ProcId,
        remote: ProcId,
        spare: HwThreadId,
        child: Option<ProcId>,
        first: u32,
        budget: u32,
    }
    impl Node {
        fn fold(&self, ctx: &Ctx<'_, D>, words: &[u64]) {
            let mut h = self.h.get();
            let head = [ctx.now().as_nanos(), ctx.self_id.0];
            for b in head.iter().chain(words).flat_map(|w| w.to_le_bytes()) {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
            self.h.set(h);
        }
        fn act(&mut self, ctx: &mut Ctx<'_, D>, n: u32) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            ctx.charge(300 + 40 * (n as u64 % 7));
            match n % 10 {
                0 => (1..=3).for_each(|i| ctx.send(self.local, D::Tok(n + i))),
                1 => ctx.send(self.remote, D::Tok(n + 1)),
                2 => ctx.send_delayed(self.local, D::Tok(n + 1), Time(700)),
                3 => ctx.set_timer(Time(1_500 + 9_000 * (n as u64 % 3)), n as u64 + 1),
                4 => {
                    let me = ctx.self_id;
                    let node = |budget| {
                        Box::new(Node {
                            h: self.h.clone(),
                            local: me,
                            remote: self.remote,
                            spare: self.spare,
                            child: None,
                            first: n + 5,
                            budget,
                        })
                    };
                    let late = ctx.spawn(self.spare, node(2), Time(2_000));
                    let soon = ctx.spawn(self.spare, node(4), Time::ZERO);
                    ctx.send(soon, D::Tok(n + 1));
                    ctx.send(late, D::Tok(n + 2));
                    ctx.send(self.local, D::Tok(n + 1));
                    self.child = Some(soon);
                }
                k @ (5 | 7) => {
                    if let Some(c) = self.child {
                        ctx.kill(c, k == 5);
                    }
                    ctx.send(self.local, D::Tok(n + 1));
                }
                6 => {
                    // The child may be dead by now: the message vanishes.
                    ctx.send(self.child.unwrap_or(self.local), D::Tok(n + 3));
                    ctx.send(self.local, D::Tok(n + 1));
                }
                8 => {
                    if let Some(c) = self.child {
                        ctx.send(c, D::Die);
                    }
                    ctx.send(self.remote, D::Tok(n + 1));
                }
                _ => {
                    // Two links open at once, interleaved.
                    ctx.send(self.local, D::Tok(n + 1));
                    ctx.send(self.remote, D::Tok(n + 2));
                    ctx.send(self.local, D::Tok(n + 5));
                }
            }
        }
    }
    impl Process<D> for Node {
        fn name(&self) -> String {
            format!("node{}", self.first)
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, D>, ev: Event<D>) {
            match ev {
                Event::Start => {
                    self.fold(ctx, &[0]);
                    self.act(ctx, self.first);
                }
                Event::Timer { token } => {
                    self.fold(ctx, &[1, token]);
                    self.act(ctx, token as u32);
                }
                Event::Message { from, msg } => match msg {
                    D::Tok(n) => {
                        self.fold(ctx, &[2, from.0, n as u64]);
                        self.act(ctx, n);
                    }
                    D::Crashed(p) => {
                        self.fold(ctx, &[3, from.0, p]);
                        ctx.send(self.local, D::Tok(p as u32 % 64));
                    }
                    D::Die => {
                        self.fold(ctx, &[4, from.0]);
                        ctx.send(self.local, D::Tok(self.first));
                        ctx.crash_self();
                    }
                },
            }
        }
    }

    let run = |batch_ns: u64| {
        let mut sim: Sim<D> = Sim::new(SimConfig {
            batch_ns,
            batch_max: 3,
            ..SimConfig::default()
        });
        let m0 = sim.add_machine(MachineSpec::xeon_e5520_dual());
        let m1 = sim.add_machine(MachineSpec::amd_opteron_6168());
        let pid = |m: u64, l: u64| ProcId((m + 1) << 40 | l);
        let h = Rc::new(Cell::new(0xcbf2_9ce4_8422_2325u64));
        // (machine, core, smt thread, local, remote, first, budget)
        let nodes = [
            (m0, 0, 0, pid(0, 2), pid(1, 1), 0, 150),
            (m0, 0, 1, pid(0, 1), pid(1, 2), 4, 150),
            (m0, 1, 0, pid(0, 1), pid(1, 1), 0, 0), // the crash monitor
            (m1, 0, 0, pid(1, 2), pid(0, 1), 1, 150),
            (m1, 1, 0, pid(1, 1), pid(0, 2), 9, 150),
        ];
        let mut pids = Vec::new();
        for (m, core, smt, local, remote, first, budget) in nodes {
            let t = sim.hw_thread(m, core, smt);
            let spare = sim.hw_thread(m, 2, 0);
            pids.push(sim.spawn(
                t,
                Box::new(Node {
                    h: h.clone(),
                    local,
                    remote,
                    spare,
                    child: None,
                    first,
                    budget,
                }),
            ));
        }
        assert_eq!(pids[0], pid(0, 1));
        assert_eq!(pids[4], pid(1, 2));
        sim.set_crash_monitor(pids[2], |p, name| D::Crashed(p.0 ^ name.len() as u64));
        sim.run_until(Time::from_micros(150));
        // Harness entry points between runs.
        sim.send_external(pids[0], D::Tok(4));
        sim.send_external(pids[3], D::Tok(8));
        let late = sim.hw_thread(m1, 3, 0);
        sim.spawn(
            late,
            Box::new(Node {
                h: h.clone(),
                local: pids[3],
                remote: pids[1],
                spare: late,
                child: None,
                first: 14,
                budget: 20,
            }),
        );
        sim.run_until(Time::from_millis(5));
        let busy: u64 = (0..sim.num_hw_threads())
            .map(|t| sim.thread_stats(HwThreadId(t)).busy_ns)
            .sum();
        (
            h.get(),
            sim.events_dispatched(),
            busy,
            sim.batch_stats(),
            sim.now(),
        )
    };
    // Re-pinned on purpose when a token came to hold one pending timer:
    // the nodes re-use tokens `n + 1`, so a timer set again replaces the
    // pending one. Before, unbatched: (0xabe5_78c2_3321_0dfb, 4143,
    // 928_977); batched: (0x3cb6_457b_075a_709b, 3542, 407_211) and the
    // batch stats 409/300/48/1122/411.
    let end = Time::from_millis(5);
    let none = BatchStats::default();
    assert_eq!(run(0), (0x2813_8b73_acdd_de14, 3720, 857_916, none, end));
    let coalesced = BatchStats {
        flush_timer: 323,
        flush_depth: 277,
        flush_close: 49,
        batched_msgs: 1029,
        batch_deliveries: 376,
    };
    assert_eq!(
        run(2_000),
        (0xbd11_b83c_2c0f_54fa, 3034, 373_410, coalesced, end)
    );
}

#[test]
fn reply_to_external_sender_vanishes() {
    // `send_external` and the crash hook deliver with `from: ProcId(0)`;
    // `Echo` answers `from`. The reply has nowhere to go: it vanishes like
    // a message to a dead process, and the sender still paid for the send.
    let (mut sim, echo, _, pongs) = two_proc_sim();
    let t2 = sim.hw_thread(MachineId(0), 2, 0);
    let victim = sim.spawn(t2, Box::new(Echo { got: vec![] }));
    sim.set_crash_monitor(echo, |_pid, _| TMsg::Ping(8));
    sim.run_until(Time::from_millis(1));
    let busy = |sim: &Sim<TMsg>| sim.thread_stats(sim.proc_thread(echo).unwrap()).busy_ns;
    let before = busy(&sim);
    sim.send_external(echo, TMsg::Ping(7));
    sim.send_external(victim, TMsg::Die);
    sim.run_until(Time::from_millis(2));
    assert!(sim.is_alive(echo) && !sim.is_alive(victim));
    assert_eq!(pongs.borrow().len(), 5, "nobody received the two replies");
    let cycles = 2 * (calibration::MSG_RECV + 1000 + calibration::MSG_SEND);
    let paid = MachineSpec::amd_opteron_6168().freq.cycles_to_time(cycles);
    assert!(busy(&sim) - before >= paid.as_nanos() - 2, "send charged");
    assert!(!sim.is_alive(ProcId(0)) && sim.proc_thread(ProcId(0)).is_none());
}

#[test]
fn send_to_a_pid_nobody_allocated_vanishes() {
    // No such slot on this machine, no such machine, and the external
    // sender's pid — as a destination, a kill target and a harness query.
    struct Stray(Vec<ProcId>);
    impl Process<TMsg> for Stray {
        fn name(&self) -> String {
            "stray".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if let Event::Start = ev {
                for &pid in &self.0 {
                    ctx.send(pid, TMsg::Ping(1));
                    ctx.send_delayed(pid, TMsg::Ping(2), Time(500));
                    ctx.kill(pid, true);
                }
            }
        }
    }
    for batch_ns in [0, 2_000] {
        let mut sim: Sim<TMsg> = Sim::new(SimConfig {
            batch_ns,
            ..SimConfig::default()
        });
        let m = sim.add_machine(MachineSpec::amd_opteron_6168());
        let nobody = [ProcId(1 << 40 | 99), ProcId(7 << 40 | 1), ProcId(0)];
        let stray = sim.spawn(sim.hw_thread(m, 0, 0), Box::new(Stray(nobody.to_vec())));
        for pid in nobody {
            sim.send_external(pid, TMsg::Die);
            assert!(!sim.is_alive(pid) && sim.proc_thread(pid).is_none());
        }
        sim.run_until(Time::from_millis(1));
        assert!(sim.is_alive(stray));
    }
}

#[test]
fn equal_instants_dispatch_by_origin_machine_then_enqueue_order() {
    // Machines 0 and 1 each send three messages to a sink on machine 2,
    // all arriving at one instant. Machine 1 enqueues first (its timer
    // fires 200 µs earlier and its sends carry 200 µs more wire delay), yet
    // machine 0's messages dispatch first: the key is (time, origin
    // machine, origin seq), never the order of enqueueing across machines.
    struct Sender {
        sink: ProcId,
        wait: Time,
        wire: Time,
        tag: u32,
    }
    impl Process<TMsg> for Sender {
        fn name(&self) -> String {
            "sender".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            match ev {
                Event::Start => ctx.set_timer(self.wait, 0),
                Event::Timer { .. } => {
                    for i in 0..3 {
                        ctx.send_delayed(self.sink, TMsg::Ping(self.tag + i), self.wire);
                    }
                }
                Event::Message { .. } => {}
            }
        }
    }
    struct Sink(std::rc::Rc<std::cell::RefCell<Vec<(ProcId, u32)>>>);
    impl Process<TMsg> for Sink {
        fn name(&self) -> String {
            "sink".into()
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if let Event::Message {
                from,
                msg: TMsg::Ping(n),
            } = ev
            {
                self.0.borrow_mut().push((from, n));
            }
        }
    }
    let mut sim: Sim<TMsg> = Sim::new(SimConfig::default());
    let ms: Vec<_> = (0..3)
        .map(|_| sim.add_machine(MachineSpec::amd_opteron_6168()))
        .collect();
    let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let sink = sim.spawn(sim.hw_thread(ms[2], 0, 0), Box::new(Sink(got.clone())));
    let sender = |wait_us, wire_us, tag| {
        Box::new(Sender {
            sink,
            wait: Time::from_micros(wait_us),
            wire: Time::from_micros(wire_us),
            tag,
        })
    };
    let low = sim.spawn(sim.hw_thread(ms[0], 0, 0), sender(300, 100, 0));
    let high = sim.spawn(sim.hw_thread(ms[1], 0, 0), sender(100, 300, 10));
    // Both senders have sent; nothing has arrived. The six deliveries tie.
    sim.run_until(Time::from_micros(400));
    assert!(got.borrow().is_empty());
    let arrivals: Vec<Time> = sim
        .heap
        .iter()
        .filter(|Reverse(k)| {
            let body = &sim.bodies[k.body as usize];
            matches!(body, Some(HeapKind::Deliver { dst, .. }) if *dst == sink)
        })
        .map(|Reverse(k)| k.time)
        .collect();
    assert_eq!(arrivals.len(), 6);
    assert!(arrivals.iter().all(|&t| t == arrivals[0]), "{arrivals:?}");
    sim.run_until(Time::from_millis(1));
    let expect = [
        (low, 0),
        (low, 1),
        (low, 2),
        (high, 10),
        (high, 11),
        (high, 12),
    ];
    assert_eq!(*got.borrow(), expect);
}

#[test]
fn heap_key_is_24_bytes() {
    assert_eq!(std::mem::size_of::<Key>(), 24);
    assert_eq!(std::mem::size_of::<Reverse<Key>>(), 24);
}

/// What [`assert_every_body_slot_accounted`] saw besides live work.
#[derive(Debug, Default, Clone, Copy)]
struct SlotCensus {
    /// Queued deliveries to a dead process.
    dead_queued: usize,
    /// Withdrawn timers whose emptied slot is still under a heap key.
    withdrawn_keyed: usize,
    /// Withdrawn timers whose emptied slot still waits in a thread queue.
    withdrawn_queued: usize,
}

/// Every body slot is accounted for exactly once: under a heap key, queued
/// in a thread's `pending`, or free and `None`. A keyed or queued slot that
/// is `None` is a withdrawn timer's, never listed free. Each live process's
/// pending-timer table names exactly the timers keyed or queued for it: the
/// slot holds that process's timer of that token.
fn assert_every_body_slot_accounted<M: 'static>(sim: &Sim<M>) -> SlotCensus {
    let mut census = SlotCensus::default();
    let mut owners = vec![0u32; sim.bodies.len()];
    let mut live_timers = Vec::new();
    let mut note = |b: u32, census: &mut usize| match &sim.bodies[b as usize] {
        None => *census += 1,
        Some(HeapKind::Deliver {
            dst,
            ev: Delivery::Event(Event::Timer { token }),
        }) if sim.is_alive(*dst) => live_timers.push((*dst, *token, b)),
        Some(_) => {}
    };
    for Reverse(k) in sim.heap.iter() {
        owners[k.body as usize] += 1;
        note(k.body, &mut census.withdrawn_keyed);
    }
    for &b in sim.pending.iter().flatten() {
        owners[b as usize] += 1;
        note(b, &mut census.withdrawn_queued);
        match &sim.bodies[b as usize] {
            Some(HeapKind::Deliver { dst, .. }) => {
                census.dead_queued += usize::from(!sim.is_alive(*dst));
            }
            Some(_) => panic!("a queued slot holds no delivery"),
            None => {}
        }
    }
    for &b in &sim.free {
        owners[b as usize] += 1;
        assert!(
            sim.bodies[b as usize].is_none(),
            "a free slot still holds a body"
        );
    }
    let lost: Vec<usize> = (0..owners.len()).filter(|&i| owners[i] != 1).collect();
    assert!(lost.is_empty(), "slots not owned exactly once: {lost:?}");
    let procs = sim.states.iter().flat_map(|m| m.procs.iter());
    let mut tables: Vec<(ProcId, u64, u32)> = procs
        .filter(|(_, s)| s.alive)
        .flat_map(|(pid, s)| s.timers.iter().map(move |&(t, b)| (pid, t, b)))
        .collect();
    tables.sort_unstable();
    live_timers.sort_unstable();
    assert_eq!(
        tables, live_timers,
        "pending-timer tables vs pending timers"
    );
    census
}

#[test]
fn every_body_slot_is_keyed_queued_or_free() {
    // A pump sends bursts (depth flushes leave their `FlushBatch` stale) to
    // a slow sink that queues them and to a victim that is crashed while
    // work waits for it and is sent to afterwards; every step of the run
    // must leave each body slot with exactly one owner. A fickle process
    // on the sink's thread re-arms and withdraws its timers each round, so
    // some are replaced under their heap key and some while they wait in
    // the busy thread's queue.
    struct Pump {
        slow: ProcId,
        fickle: ProcId,
        victim: ProcId,
        round: u32,
    }
    impl Process<TMsg> for Pump {
        fn name(&self) -> String {
            "pump".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            if matches!(ev, Event::Start | Event::Timer { .. }) {
                self.round += 1;
                for i in 0..4 {
                    ctx.send(self.slow, TMsg::Ping(i));
                }
                ctx.send(self.fickle, TMsg::Ping(self.round));
                ctx.send(self.victim, TMsg::Ping(self.round));
                ctx.send(self.victim, TMsg::Ping(self.round));
                if self.round == 40 {
                    ctx.send(self.victim, TMsg::Die);
                }
                if self.round < 120 {
                    ctx.set_timer(Time(6_000), 0);
                }
            }
        }
    }
    struct Slow(u64);
    impl Process<TMsg> for Slow {
        fn name(&self) -> String {
            "slow".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            match ev {
                Event::Message { msg: TMsg::Die, .. } => ctx.crash_self(),
                Event::Message { .. } => ctx.charge(self.0),
                _ => {}
            }
        }
    }
    struct Fickle;
    impl Process<TMsg> for Fickle {
        fn name(&self) -> String {
            "fickle".into()
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
            match ev {
                Event::Message {
                    msg: TMsg::Ping(r), ..
                } => {
                    // Timer 0 is replaced every round, timer 1 re-armed
                    // and withdrawn in turn; the work keeps a timer this
                    // wakeup withdrew queued behind it for a while.
                    ctx.charge(2_000);
                    ctx.set_timer(Time(5_000 + 1_000 * (r as u64 % 3)), 0);
                    match r % 2 {
                        0 => ctx.cancel_timer(1),
                        _ => ctx.set_timer(Time(9_000), 1),
                    }
                }
                Event::Timer { .. } => ctx.charge(1_500),
                _ => {}
            }
        }
    }
    let mut sim: Sim<TMsg> = Sim::new(SimConfig {
        batch_ns: 2_000,
        batch_max: 3,
        ..SimConfig::default()
    });
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    // About 4.2 µs of work per 6 µs round for the sink, which queues the
    // trailing message of each round behind the depth flush; 9.5 µs for
    // the victim, whose backlog grows until it dies.
    let slow = sim.spawn(sim.hw_thread(m, 1, 0), Box::new(Slow(2_000)));
    let victim = sim.spawn(sim.hw_thread(m, 2, 0), Box::new(Slow(9_000)));
    let fickle = sim.spawn(sim.hw_thread(m, 1, 0), Box::new(Fickle));
    let pump = Pump {
        slow,
        fickle,
        victim,
        round: 0,
    };
    sim.spawn(sim.hw_thread(m, 0, 0), Box::new(pump));
    let (mut queued_steps, mut dead_queued) = (0, 0);
    let (mut withdrawn_keyed, mut withdrawn_queued) = (0, 0);
    while !sim.heap.is_empty() {
        sim.run_until(sim.now() + Time(700));
        let census = assert_every_body_slot_accounted(&sim);
        dead_queued += census.dead_queued;
        withdrawn_keyed += census.withdrawn_keyed;
        withdrawn_queued += census.withdrawn_queued;
        queued_steps += usize::from(sim.pending.iter().any(|q| !q.is_empty()));
    }
    assert!(!sim.is_alive(victim));
    assert!(sim.pending.iter().all(|q| q.is_empty()));
    assert_eq!(
        sim.free.len(),
        sim.bodies.len(),
        "all slots free once drained"
    );
    assert!(
        sim.bodies.len() < 64,
        "slots are reused: {}",
        sim.bodies.len()
    );
    let b = sim.batch_stats();
    assert!(b.flush_depth > 0 && b.flush_timer > 0, "{b:?}");
    assert!(
        queued_steps > 10 && dead_queued > 0,
        "{queued_steps} {dead_queued}"
    );
    assert!(
        withdrawn_keyed > 0 && withdrawn_queued > 0,
        "{withdrawn_keyed} {withdrawn_queued}"
    );
}

/// Arms timer 1 at 50 µs and timer 2 at 20 µs when it starts, and timer 3,
/// which the same handler withdraws again. `Ping(0)`
/// keeps its thread busy for 50 µs; `Ping(n)` re-arms timer `n` 100 µs out
/// and `Pong(n)` withdraws it, each after 10 µs of work. Logs each timer
/// that fires as (µs, token).
struct Timed(std::rc::Rc<std::cell::RefCell<Vec<(u64, u64)>>>);

impl Process<TMsg> for Timed {
    fn name(&self) -> String {
        "timed".into()
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, TMsg>, ev: Event<TMsg>) {
        match ev {
            Event::Start => {
                ctx.set_timer(Time::from_micros(50), 1);
                ctx.set_timer(Time::from_micros(20), 2);
                ctx.set_timer(Time::from_micros(10), 3);
                ctx.cancel_timer(3);
            }
            Event::Message {
                msg: TMsg::Ping(0), ..
            } => ctx.charge(95_000),
            Event::Message {
                msg: TMsg::Ping(n), ..
            } => {
                ctx.charge(19_000);
                ctx.set_timer(Time::from_micros(100), n as u64);
            }
            Event::Message {
                msg: TMsg::Pong(n), ..
            } => {
                ctx.charge(19_000);
                ctx.cancel_timer(n as u64);
            }
            Event::Timer { token } => {
                let at = ctx.now().as_nanos() / 1_000;
                self.0.borrow_mut().push((at, token));
            }
            Event::Message { .. } => {}
        }
    }
}

/// Drive a [`Timed`] so that its timer 1 is replaced (`Ping`) or withdrawn
/// (`Pong`) while its key is still in the heap, and timer 2 while its body
/// waits in the busy thread's queue. Returns the fire log and the
/// dispatched event count.
fn timed_run(op: fn(u32) -> TMsg) -> (Vec<(u64, u64)>, u64) {
    let mut sim: Sim<TMsg> = Sim::new(SimConfig::default());
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let t = sim.hw_thread(m, 0, 0);
    let log = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let p = sim.spawn(t, Box::new(Timed(log.clone())));
    sim.run_until(Time::from_micros(1));
    // Timer 1 (due at 50 µs) still has its key in the heap.
    sim.send_external(p, op(1));
    sim.run_until(Time::from_micros(2));
    let census = assert_every_body_slot_accounted(&sim);
    // Timer 1's key and timer 3's, withdrawn by the handler that set it.
    assert_eq!(census.withdrawn_keyed, 2, "keys over empty slots");
    // Busy until about 61 µs; op(2) queues behind that work, and timer 2's
    // key, due at 20 µs, pops behind op(2).
    sim.send_external(p, TMsg::Ping(0));
    sim.send_external(p, op(2));
    sim.run_until(Time::from_micros(30));
    let queued: Vec<_> = sim.pending[t.0]
        .iter()
        .map(|&b| match &sim.bodies[b as usize] {
            Some(HeapKind::Deliver { ev, .. }) => {
                matches!(ev, Delivery::Event(Event::Timer { .. }))
            }
            _ => panic!("a queued slot holds no delivery"),
        })
        .collect();
    assert_eq!(queued, [false, true], "op(2), then timer 2");
    assert_every_body_slot_accounted(&sim);
    // op(2) runs and empties timer 2's body where it waits in the queue.
    sim.run_until(Time::from_micros(65));
    let census = assert_every_body_slot_accounted(&sim);
    assert_eq!(census.withdrawn_queued, 1, "timer 2's queued body emptied");
    sim.run_until(Time::from_millis(1));
    assert_every_body_slot_accounted(&sim);
    assert_eq!(sim.free.len(), sim.bodies.len(), "every slot freed once");
    let log = log.borrow().clone();
    (log, sim.events_dispatched())
}

#[test]
fn set_timer_replaces_the_pending_timer_of_its_token() {
    let (log, events) = timed_run(TMsg::Ping);
    // Each token fires once, after its replacement's deadline (op(1) ends
    // at 11 µs, op(2) at 71 µs; the thread wakes from sleep for each); the
    // replaced 50 µs and 20 µs timers never run.
    assert_eq!(log.len(), 2, "{log:?}");
    assert!(log[0].1 == 1 && (111..140).contains(&log[0].0), "{log:?}");
    assert!(log[1].1 == 2 && (171..200).contains(&log[1].0), "{log:?}");
    // Start, three messages, timer 2's key (its body was whole when it
    // popped), three resumes, two timers; the withdrawn keys of timers 1
    // and 3 are skipped, not counted.
    assert_eq!(events, 10);
}

#[test]
fn cancel_timer_withdraws_it() {
    let (log, events) = timed_run(TMsg::Pong);
    assert_eq!(log, [], "a withdrawn timer never fires");
    // As above, less the two timers.
    assert_eq!(events, 8);
    // Withdrawing a token with no pending timer changes nothing.
    let mut sim: Sim<TMsg> = Sim::new(SimConfig::default());
    let m = sim.add_machine(MachineSpec::amd_opteron_6168());
    let log = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let p = sim.spawn(sim.hw_thread(m, 0, 0), Box::new(Timed(log.clone())));
    sim.send_external(p, TMsg::Pong(7));
    sim.run_until(Time::from_millis(1));
    assert_eq!(log.borrow().iter().map(|e| e.1).collect::<Vec<_>>(), [2, 1]);
    assert_eq!(sim.free.len(), sim.bodies.len());
}
