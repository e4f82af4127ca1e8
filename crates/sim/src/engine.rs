//! The discrete-event engine: one event heap, dispatch, CPU-time
//! accounting.
//!
//! The engine owns all machines and processes and advances simulated time by
//! dispatching events in `(time, origin machine, origin sequence)` order.
//! Each dispatch:
//!
//! 1. finds the destination process's hardware thread and computes the
//!    *start* instant — after any queued work on that thread (FIFO server)
//!    and after any MWAIT wake-up if the thread was sleeping (§4);
//! 2. runs the handler to completion, letting it charge cycles and emit
//!    outputs (sends, timers, spawns, kills) through [`Ctx`];
//! 3. converts charged cycles to time at the thread's frequency, applying
//!    the SMT capacity penalty when the sibling hardware thread is busy;
//! 4. schedules the outputs at the handler's *completion* instant.
//!
//! ## Per-machine identity and the determinism contract
//!
//! Scheduling state — the event heap, the hardware-thread table with its
//! FIFO backlogs, the counters — is global. What stays per machine is what
//! makes a machine's history its own: its sequence counter, pid allocator,
//! RNG stream and process table. Every event carries the machine that
//! *scheduled* it plus that machine's sequence number, so the dispatch key
//! `(time, origin machine, origin seq)` is total and each part of it is
//! computed from one machine's history alone. A handler reaches only its
//! own machine's state (enforced by [`Ctx`]'s narrow surface), so nothing
//! that happens on another machine can change its pids, sequence numbers or
//! RNG draws — see DESIGN.md "Per-machine identity & determinism".
//! [`Sim::run_until`] is the only event loop.
//!
//! Machine-local rules that uphold the contract (asserted, not implied):
//!
//! * `Ctx::spawn` targets a hardware thread of the calling process's own
//!   machine (the harness-level [`Sim::spawn`] can target any machine);
//! * `Ctx::is_alive` answers for processes of the caller's machine only;
//! * per-link coalescing applies to machine-local links only, and the
//!   MWAIT wake-up charge is paid for machine-local destinations only
//!   (cross-machine traffic is signalled by the receiving NIC's IRQ path,
//!   whose receiver-side costs the calibration already carries).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use neat_util::Rng;

use crate::calibration;
use crate::machine::{
    HwThread, HwThreadId, Machine, MachineId, MachineSpec, ThreadKind, ThreadStats,
};
use crate::process::{Event, ProcId, Process};
use crate::time::{Cycles, Freq, Time};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the simulation-wide RNG; same seed ⇒ identical history.
    /// Each machine derives an independent child stream from this seed, so
    /// draws on one machine never perturb another machine's stream.
    pub seed: u64,
    /// Per-(src,dst)-link message coalescing horizon in nanoseconds: a
    /// `send()` joins the link's open batch instead of scheduling its own
    /// delivery, and the whole batch is delivered as one wakeup no later
    /// than `batch_ns` after the batch opened. `0` disables coalescing
    /// (every message is its own delivery event, the pre-batching model).
    /// Coalescing applies to machine-local links only.
    pub batch_ns: u64,
    /// Flush an open batch early once it holds this many messages.
    pub batch_max: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xEA7_F00D,
            batch_ns: 0,
            batch_max: 32,
        }
    }
}

/// Counters for the per-link coalescing machinery (exported as `sim.batch.*`
/// gauges; also queried directly by the ablation benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches delivered because the `batch_ns` horizon expired.
    pub flush_timer: u64,
    /// Batches delivered early because they reached `batch_max` depth.
    pub flush_depth: u64,
    /// Batches closed because a later send fell past the horizon.
    pub flush_close: u64,
    /// Messages that travelled inside a multi-message batch.
    pub batched_msgs: u64,
    /// Multi-message batch deliveries (wakeups saved = batched_msgs - this).
    pub batch_deliveries: u64,
}

impl BatchStats {
    /// Mean messages per multi-message batch delivery.
    pub fn occupancy(&self) -> f64 {
        if self.batch_deliveries == 0 {
            0.0
        } else {
            self.batched_msgs as f64 / self.batch_deliveries as f64
        }
    }
}

/// One open per-link batch: messages coalescing toward a single delivery.
struct LinkBatch<M> {
    msgs: Vec<M>,
    /// Hard delivery deadline (`opened_at + batch_ns`).
    flush_at: Time,
    /// Earliest instant the batch may be delivered without violating
    /// causality: the max of its members' natural delivery times.
    /// Invariant: `ready_at <= flush_at`.
    ready_at: Time,
    /// Invalidation token for the scheduled `FlushBatch` heap event.
    epoch: u64,
}

/// A scheduled event's place in the dispatch order. `origin` is the identity
/// the event carries: the machine that scheduled it above [`ORIGIN_SEQ_BITS`]
/// and that machine's private sequence number below — globally unique, and
/// computable from the origin machine's history alone — so the derived order
/// is `(time, origin machine, origin seq)`. `body` indexes the event in
/// `Sim::bodies`; origins never tie, so it never decides the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: Time,
    origin: u64,
    body: u32,
}

/// Bits of [`Key::origin`] for the sequence number; the machine sits above.
const ORIGIN_SEQ_BITS: u32 = 48;

enum HeapKind<M> {
    /// Deliver to a process (immediately if its thread is free, else onto
    /// the thread's FIFO queue).
    Deliver { dst: ProcId, ev: Delivery<M> },
    /// A hardware thread finished its current work: pop its queue.
    ThreadResume(HwThreadId),
    /// The `batch_ns` horizon of a per-link batch expired: deliver it.
    /// Stale if the batch was already flushed (epoch mismatch).
    FlushBatch {
        src: ProcId,
        dst: ProcId,
        epoch: u64,
    },
}

struct ProcSlot<M> {
    proc: Option<Box<dyn Process<M>>>,
    thread: HwThreadId,
    name: String,
    alive: bool,
    /// Its open link batches by destination (a handful of peers: scanned,
    /// not hashed). What a process sent before dying still arrives.
    batches: Vec<(ProcId, LinkBatch<M>)>,
}

impl<M: 'static> ProcSlot<M> {
    fn new(proc: Box<dyn Process<M>>, thread: HwThreadId) -> ProcSlot<M> {
        ProcSlot {
            name: proc.name(),
            proc: Some(proc),
            thread,
            alive: true,
            batches: Vec::new(),
        }
    }
}

/// A machine's process table, indexed by the local part of the pid: pids are
/// `first + k` for the k-th process the machine allocated, never reused and
/// never removed, so it holds exactly what a map keyed by pid would. A pid of
/// another machine, `ProcId(0)`, or one `Ctx::spawn` only reserved has no slot.
struct ProcTable<M> {
    first: u64,
    slots: Vec<ProcSlot<M>>,
}

impl<M> ProcTable<M> {
    fn index(&self, pid: ProcId) -> Option<usize> {
        usize::try_from(pid.0.wrapping_sub(self.first)).ok()
    }

    fn get(&self, pid: ProcId) -> Option<&ProcSlot<M>> {
        self.slots.get(self.index(pid)?)
    }

    fn get_mut(&mut self, pid: ProcId) -> Option<&mut ProcSlot<M>> {
        let i = self.index(pid)?;
        self.slots.get_mut(i)
    }

    /// Slots fill in allocation order: a machine runs one handler at a time
    /// and applies its spawns in the order it reserved their pids.
    fn insert(&mut self, pid: ProcId, slot: ProcSlot<M>) {
        assert_eq!(self.index(pid), Some(self.slots.len()), "{pid:?}");
        self.slots.push(slot);
    }

    fn iter(&self) -> impl Iterator<Item = (ProcId, &ProcSlot<M>)> {
        (self.first..).map(ProcId).zip(&self.slots)
    }
}

/// How a process left the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DieMode {
    /// Abnormal termination — triggers the crash monitor (Table 3 path).
    Crash,
    /// Voluntary exit (lazy-termination garbage collection, §3.4).
    Exit,
}

enum Output<M> {
    Send {
        dst: ProcId,
        msg: M,
        extra_delay: Time,
    },
    Timer {
        delay: Time,
        token: u64,
    },
    Spawn {
        pid: ProcId,
        thread: HwThreadId,
        proc: Box<dyn Process<M>>,
        delay: Time,
    },
    Kill {
        pid: ProcId,
        crash: bool,
    },
}

/// Crash-monitor message constructor.
type CrashHook<M> = Box<dyn Fn(ProcId, &str) -> M>;

/// Bits reserved for a machine's local pid counter: pids are
/// `(machine + 1) << PID_MACHINE_SHIFT | local`, so allocation is a purely
/// machine-local operation and the owning machine can be recovered from the
/// pid itself. `ProcId(0)` stays the reserved "external" sender.
const PID_MACHINE_SHIFT: u32 = 40;

/// Index of the machine that allocated `pid`; out of range for `ProcId(0)`
/// (and for a pid nobody allocated), so look machines up with `get`.
fn machine_of_pid(pid: ProcId) -> usize {
    ((pid.0 >> PID_MACHINE_SHIFT) as usize).wrapping_sub(1)
}

/// What makes one machine's history its own: the counters that stamp its
/// events and name its processes, its RNG stream and its process table.
struct MachineState<M> {
    id: usize,
    /// Monotone event-sequence counter (origin identity).
    seq: u64,
    /// The next pid this machine hands out.
    next_pid: u64,
    rng: Rng,
    procs: ProcTable<M>,
}

impl<M> MachineState<M> {
    fn new(id: usize, seed: u64) -> MachineState<M> {
        let tag = id as u64 + 1;
        let first = (tag << PID_MACHINE_SHIFT) | 1;
        MachineState {
            id,
            seq: 0,
            next_pid: first,
            // Independent per-machine stream: machine k's draws are stable
            // however many other machines exist.
            rng: Rng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            procs: ProcTable {
                first,
                slots: Vec::new(),
            },
        }
    }

    fn alloc_pid(&mut self) -> ProcId {
        let pid = ProcId(self.next_pid);
        self.next_pid += 1;
        pid
    }

    fn next_origin(&mut self) -> u64 {
        let o = (self.id as u64) << ORIGIN_SEQ_BITS | self.seq;
        self.seq += 1;
        o
    }
}

#[path = "engine_kernel.rs"]
mod engine_kernel;
use engine_kernel::Delivery;

/// The simulation world.
pub struct Sim<M> {
    now: Time,
    /// Simulation seed: each machine derives its RNG stream from this.
    seed: u64,
    machines: Vec<Machine>,
    /// Per-machine identity, indexed like `machines`.
    states: Vec<MachineState<M>>,
    /// Earliest key on top (`BinaryHeap` is a max-heap).
    heap: BinaryHeap<Reverse<Key>>,
    /// Event bodies by [`Key::body`]. A slot is under a heap key, or holds a
    /// delivery that found its thread busy and whose index waits in that
    /// thread's `pending` queue, or is `None` and listed in `free`.
    bodies: Vec<Option<HeapKind<M>>>,
    free: Vec<u32>,
    /// Every hardware thread, indexed by `HwThreadId`; beside it the
    /// thread's FIFO of deliveries waiting for it (their body slots) and
    /// whether a `ThreadResume` marker is scheduled for it.
    threads: Vec<HwThread>,
    pending: Vec<VecDeque<u32>>,
    resume_scheduled: Vec<bool>,
    batch_epoch: u64,
    /// Vectors reused with their capacity, so a warm dispatch allocates
    /// nothing: [`Ctx`]'s scratch, and delivered batches' (see `recycle`).
    outputs: Vec<Output<M>>,
    woken_threads: Vec<usize>,
    spare_msgs: Vec<Vec<M>>,
    batch_stats: BatchStats,
    events_dispatched: u64,
    spawns: u64,
    crashes: u64,
    exits: u64,
    /// `(monitor process, message constructor)` notified on crashes.
    crash_monitor: Option<(ProcId, CrashHook<M>)>,
    /// Coalescing horizon (zero = batching off) and early-flush depth.
    batch_ns: Time,
    batch_max: usize,
}

impl<M: 'static> Sim<M> {
    pub fn new(config: SimConfig) -> Sim<M> {
        Sim {
            now: Time::ZERO,
            seed: config.seed,
            machines: Vec::new(),
            states: Vec::new(),
            heap: BinaryHeap::new(),
            bodies: Vec::new(),
            free: Vec::new(),
            threads: Vec::new(),
            pending: Vec::new(),
            resume_scheduled: Vec::new(),
            batch_epoch: 0,
            outputs: Vec::new(),
            woken_threads: Vec::new(),
            spare_msgs: Vec::new(),
            batch_stats: BatchStats::default(),
            events_dispatched: 0,
            spawns: 0,
            crashes: 0,
            exits: 0,
            crash_monitor: None,
            batch_ns: Time(config.batch_ns),
            batch_max: config.batch_max.max(1),
        }
    }

    /// Coalescing counters (occupancy, flush causes) for benches/tests.
    pub fn batch_stats(&self) -> BatchStats {
        self.batch_stats
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Add a machine; its hardware threads are created immediately and it
    /// starts its own pid, sequence and RNG streams.
    pub fn add_machine(&mut self, spec: MachineSpec) -> MachineId {
        // The machine index fills the 16 bits of `Key::origin` above the
        // sequence number. The sequence cannot reach 2^48: a machine draws one
        // per event it schedules, and the engine dispatches a few million
        // events per host second — 2^48 is years of running.
        assert!(
            self.machines.len() < 1 << (64 - ORIGIN_SEQ_BITS),
            "at most 2^16 machines"
        );
        let id = MachineId(self.machines.len());
        let mut thread_ids = Vec::new();
        for core in 0..spec.cores {
            let base = self.threads.len();
            for t in 0..spec.threads_per_core {
                let sibling = if spec.threads_per_core == 2 {
                    // Sibling is the other thread of this core.
                    Some(HwThreadId(base + (1 - t as usize)))
                } else {
                    None
                };
                thread_ids.push(self.add_thread(id, core, t, ThreadKind::Cpu, spec.freq, sibling));
            }
        }
        self.states.push(MachineState::new(id.0, self.seed));
        self.machines.push(Machine {
            id,
            spec,
            threads: thread_ids,
        });
        id
    }

    /// Add a device engine (e.g. a NIC pipeline) to a machine. Device
    /// threads charge wall time directly and never sleep.
    pub fn add_device_thread(&mut self, machine: MachineId) -> HwThreadId {
        let freq = self.machines[machine.0].spec.freq;
        self.add_thread(machine, u32::MAX, 0, ThreadKind::Device, freq, None)
    }

    fn add_thread(
        &mut self,
        machine: MachineId,
        core: u32,
        thread: u32,
        kind: ThreadKind,
        freq: Freq,
        sibling: Option<HwThreadId>,
    ) -> HwThreadId {
        self.threads.push(HwThread {
            machine,
            core,
            thread,
            kind,
            freq,
            sibling,
            busy_until: Time::ZERO,
            stats: ThreadStats::default(),
            stats_since: Time::ZERO,
            util_ewma: 0.0,
            util_at: Time::ZERO,
        });
        self.pending.push(VecDeque::new());
        self.resume_scheduled.push(false);
        HwThreadId(self.threads.len() - 1)
    }

    /// Total hardware threads across all machines (global ids are
    /// `0..num_hw_threads()`).
    pub fn num_hw_threads(&self) -> usize {
        self.threads.len()
    }

    /// Hardware-thread id for `(machine, core, thread)`.
    pub fn hw_thread(&self, machine: MachineId, core: u32, thread: u32) -> HwThreadId {
        self.machines[machine.0].thread(core, thread)
    }

    /// The machine a hardware thread belongs to.
    pub fn machine_of_thread(&self, t: HwThreadId) -> MachineId {
        self.threads[t.0].machine
    }

    pub fn machine(&self, id: MachineId) -> &Machine {
        &self.machines[id.0]
    }

    /// Spawn a process pinned to a hardware thread; it receives
    /// [`Event::Start`] at the current time. Harness-level: may target any
    /// machine (handler-level [`Ctx::spawn`] is machine-local).
    pub fn spawn(&mut self, thread: HwThreadId, proc: Box<dyn Process<M>>) -> ProcId {
        let m = self.threads[thread.0].machine.0;
        let pid = self.states[m].alloc_pid();
        self.spawns += 1;
        self.states[m]
            .procs
            .insert(pid, ProcSlot::new(proc, thread));
        self.deliver(m, self.now, pid, Event::Start);
        pid
    }

    /// Inject a message from "outside" (harness code) into a process. The
    /// sender it names is `ProcId(0)`; a reply to that vanishes.
    pub fn send_external(&mut self, dst: ProcId, msg: M) {
        let m = machine_of_pid(dst);
        if m < self.states.len() {
            let at = self.now + calibration::CHANNEL_LATENCY;
            let from = ProcId(0);
            self.deliver(m, at, dst, Event::Message { from, msg });
        }
    }

    /// Register the process to be notified (via a constructed message) when
    /// any other process crashes — the reincarnation-server role.
    pub fn set_crash_monitor(
        &mut self,
        monitor: ProcId,
        hook: impl Fn(ProcId, &str) -> M + 'static,
    ) {
        self.crash_monitor = Some((monitor, Box::new(hook)));
    }

    /// Is the process still alive? (Harness-level: any machine.)
    pub fn is_alive(&self, pid: ProcId) -> bool {
        self.slot(pid).is_some_and(|s| s.alive)
    }

    fn slot(&self, pid: ProcId) -> Option<&ProcSlot<M>> {
        self.states.get(machine_of_pid(pid))?.procs.get(pid)
    }

    fn slot_mut(&mut self, pid: ProcId) -> Option<&mut ProcSlot<M>> {
        self.states.get_mut(machine_of_pid(pid))?.procs.get_mut(pid)
    }

    /// The live process called `name` (harness-level: how a test finds a
    /// replica the supervisor spawned later). The newest if several match.
    pub fn live_pid(&self, name: &str) -> Option<ProcId> {
        let procs = self.states.iter().flat_map(|m| m.procs.iter());
        procs
            .filter(|(_, s)| s.alive && s.name == name)
            .map(|(pid, _)| pid)
            .max()
    }

    pub fn proc_thread(&self, pid: ProcId) -> Option<HwThreadId> {
        self.slot(pid).map(|s| s.thread)
    }

    /// Activity statistics of a hardware thread since the last reset.
    pub fn thread_stats(&self, tid: HwThreadId) -> ThreadStats {
        self.threads[tid.0].stats
    }

    /// Reset activity accounting on all threads (start of a measurement
    /// window).
    pub fn reset_all_stats(&mut self) {
        for t in &mut self.threads {
            t.reset_stats(self.now);
        }
    }

    /// Export per-hardware-thread activity and engine totals into the
    /// `neat_obs` metrics registry as gauges (`cpu.t<idx>.*`, `sim.*`).
    /// Called by the harness at the end of a measurement window so the
    /// bench reports carry the paper's Table-2-style CPU breakdowns.
    pub fn export_obs(&self) {
        for (idx, t) in self.threads.iter().enumerate() {
            if t.stats.events == 0 && t.stats.active_ns() == 0 {
                continue; // unused thread: keep the snapshot compact
            }
            let elapsed = self.now.since(t.stats_since);
            let p = |what: &str| format!("cpu.t{idx}.{what}");
            neat_obs::gauge_set(&p("load"), t.stats.load(elapsed));
            neat_obs::gauge_set(&p("busy_ns"), t.stats.busy_ns as f64);
            neat_obs::gauge_set(&p("poll_ns"), t.stats.poll_ns as f64);
            neat_obs::gauge_set(&p("kernel_ns"), t.stats.kernel_ns as f64);
            neat_obs::gauge_set(&p("events"), t.stats.events as f64);
            neat_obs::gauge_set(&p("sleeps"), t.stats.sleeps as f64);
            neat_obs::gauge_set(&p("max_queue"), t.stats.max_queue as f64);
        }
        let slots = self.states.iter().flat_map(|m| &m.procs.slots);
        neat_obs::gauge_set("sim.now_ns", self.now.as_nanos() as f64);
        neat_obs::gauge_set("sim.events_dispatched", self.events_dispatched as f64);
        neat_obs::gauge_set("sim.heap_len", self.heap.len() as f64);
        neat_obs::gauge_set("sim.live_procs", slots.filter(|s| s.alive).count() as f64);
        neat_obs::gauge_set("sim.spawns", self.spawns as f64);
        neat_obs::gauge_set("sim.crashes", self.crashes as f64);
        neat_obs::gauge_set("sim.exits", self.exits as f64);
        let b = self.batch_stats;
        neat_obs::gauge_set("sim.batch.flush_timer", b.flush_timer as f64);
        neat_obs::gauge_set("sim.batch.flush_depth", b.flush_depth as f64);
        neat_obs::gauge_set("sim.batch.flush_close", b.flush_close as f64);
        neat_obs::gauge_set("sim.batch.batched_msgs", b.batched_msgs as f64);
        neat_obs::gauge_set("sim.batch.deliveries", b.batch_deliveries as f64);
        neat_obs::gauge_set("sim.batch.occupancy", b.occupancy());
    }

    /// Run until the event queue is exhausted or simulated time reaches
    /// `until`. Returns the number of events dispatched.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let before = self.events_dispatched;
        loop {
            let Some(top) = self.heap.peek_mut() else {
                break;
            };
            if top.0.time > until {
                break;
            }
            let Reverse(key) = PeekMut::pop(top);
            self.now = key.time;
            self.dispatch(key);
            self.events_dispatched += 1;
        }
        if self.now < until {
            self.now = until;
        }
        self.events_dispatched - before
    }
}

/// The capability handle a process receives while handling an event.
///
/// Everything a process can do to the outside world goes through this —
/// there is no other channel, which is what makes the isolation claim of
/// the design hold by construction in this reproduction. The only state it
/// can change belongs to the executing process's machine; effects on other
/// machines travel as messages.
pub struct Ctx<'a, M> {
    local: &'a mut MachineState<M>,
    threads: &'a [HwThread],
    machines: &'a [Machine],
    batching: bool,
    sender_kind: ThreadKind,
    /// The process currently executing.
    pub self_id: ProcId,
    start: Time,
    charged: Cycles,
    charged_ns: u64,
    outputs: Vec<Output<M>>,
    die: Option<DieMode>,
    /// Threads already charged a wake store in this handler: the MWAIT
    /// wake is paid once per sleeping destination per wakeup, not per
    /// message (the batching amortization of §3.4).
    woken_threads: Vec<usize>,
    /// Destination of the previous `send` in this handler: an immediate
    /// follow-up send to the same process appends to the same channel run
    /// and is charged [`calibration::MSG_SEND_APPEND`] instead of the full
    /// [`calibration::MSG_SEND`].
    last_send_dst: Option<ProcId>,
}

impl<'a, M: 'static> Ctx<'a, M> {
    /// The instant this handler began executing (after queueing + wake-up).
    pub fn now(&self) -> Time {
        self.start
    }

    /// Charge CPU work in cycles (converted at the owning thread's clock).
    pub fn charge(&mut self, cycles: Cycles) {
        self.charged += cycles;
    }

    /// Charge wall-clock time directly (device engines: DMA, serialization).
    pub fn charge_ns(&mut self, ns: u64) {
        self.charged_ns += ns;
    }

    /// Send a message to another process. Costs [`calibration::MSG_SEND`]
    /// plus a wake-up store if the destination is asleep.
    pub fn send(&mut self, dst: ProcId, msg: M) {
        self.send_delayed(dst, msg, Time::ZERO);
    }

    /// Send with additional delivery delay (wire propagation etc.).
    pub fn send_delayed(&mut self, dst: ProcId, msg: M, extra_delay: Time) {
        // A run of sends to the same destination shares one doorbell/fence;
        // only the first pays the full channel-enqueue cost.
        self.charged += if self.last_send_dst == Some(dst) {
            calibration::MSG_SEND_APPEND
        } else {
            calibration::MSG_SEND
        };
        self.last_send_dst = Some(dst);
        // No coalescer to defer the receiver kick to: each local channel
        // message pays its own kernel-call-class notification (§3.4 — the
        // scalar, pre-batching model). Device engines signal via IRQ,
        // which the receiver-side cold descriptor costs already model.
        if !self.batching && extra_delay.as_nanos() == 0 && self.sender_kind == ThreadKind::Cpu {
            self.charged += calibration::MSG_NOTIFY;
        }
        // The MWAIT wake store applies to machine-local destinations only:
        // a cross-machine send reaches the peer through its NIC, whose IRQ
        // path the receiver-side costs already model.
        if let Some(slot) = self.local.procs.get(dst) {
            let t = slot.thread.0;
            let th = &self.threads[t];
            if th.kind == ThreadKind::Cpu
                && th.busy_until + calibration::SPIN_POLL_WINDOW < self.start
                && !self.woken_threads.contains(&t)
            {
                // Destination thread is (by now) asleep: pay the wake
                // store — once per handler per thread; later messages
                // in the same burst find it already waking.
                self.woken_threads.push(t);
                self.charged += calibration::WAKE_REMOTE;
            }
        }
        self.outputs.push(Output::Send {
            dst,
            msg,
            extra_delay,
        });
    }

    /// Arrange for [`Event::Timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.outputs.push(Output::Timer { delay, token });
    }

    /// Spawn a new process (returns its pid immediately; it starts after
    /// `delay` — process creation is not free, §3.4). The target thread
    /// must belong to the calling process's machine: remote-machine
    /// process management goes through a message to a peer on that
    /// machine (or the harness between runs), never directly — that is
    /// what keeps pid allocation a function of the machine's own history.
    pub fn spawn(&mut self, thread: HwThreadId, proc: Box<dyn Process<M>>, delay: Time) -> ProcId {
        assert_eq!(
            self.threads[thread.0].machine.0, self.local.id,
            "Ctx::spawn targets a thread on another machine; spawn via a \
             process on that machine or from the harness instead"
        );
        let pid = self.local.alloc_pid();
        self.outputs.push(Output::Spawn {
            pid,
            thread,
            proc,
            delay,
        });
        pid
    }

    /// Forcibly terminate another process (supervisor use only).
    pub fn kill(&mut self, pid: ProcId, crash: bool) {
        self.outputs.push(Output::Kill { pid, crash });
    }

    /// Terminate this process abnormally: all its state is lost and the
    /// crash monitor is notified. Used by fault injection (Table 3).
    pub fn crash_self(&mut self) {
        self.die = Some(DieMode::Crash);
    }

    /// This machine's deterministic RNG stream (independent per machine,
    /// derived from the simulation seed).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.local.rng
    }

    /// Hardware-thread lookup helper for spawning onto specific cores.
    pub fn hw_thread(&self, machine: MachineId, core: u32, thread: u32) -> HwThreadId {
        self.machines[machine.0].thread(core, thread)
    }

    /// Is another process on this machine currently alive? (Used by the
    /// driver to avoid queueing packets to a crashed replica.) Liveness of
    /// remote-machine processes is not observable from a handler — that
    /// information travels by message.
    pub fn is_alive(&self, pid: ProcId) -> bool {
        assert_eq!(
            machine_of_pid(pid),
            self.local.id,
            "Ctx::is_alive queried a process on another machine; liveness \
             is machine-local (remote liveness travels by message)"
        );
        self.local.procs.get(pid).is_some_and(|s| s.alive)
    }
}
#[cfg(test)]
#[path = "engine_tests.rs"]
mod tests;
