//! The dispatch core of the discrete-event engine (a child module of
//! `engine` — split out so each engine source file stays within the CI
//! module-size guard while keeping private-item access): what
//! [`Sim::run_until`] does with each event it pops.

use super::*;
use std::mem::take;

/// What the engine queues for a process: an [`Event`] for `on_event`, or a
/// coalesced per-link run for `on_batch`. Private to the engine, so no
/// `on_event` can be handed a batch.
pub(super) enum Delivery<M> {
    Event(Event<M>),
    Batch { from: ProcId, msgs: Vec<M> },
}

impl<M> From<Event<M>> for Delivery<M> {
    fn from(ev: Event<M>) -> Self {
        Delivery::Event(ev)
    }
}

impl<M> ProcSlot<M> {
    /// Index of this sender's open batch toward `dst` (their order is never observed).
    fn batch_to(&self, dst: ProcId) -> Option<usize> {
        self.batches.iter().position(|(to, _)| *to == dst)
    }
}

impl<M: 'static> Sim<M> {
    /// Schedule `kind` at `time`, stamped with machine `by`'s next origin.
    /// The body takes a free slot, or a new one (the slab never shrinks, so
    /// a warm run allocates nothing here).
    fn schedule(&mut self, by: usize, time: Time, kind: HeapKind<M>) {
        let origin = self.states[by].next_origin();
        let body = match self.free.pop() {
            Some(i) => {
                self.bodies[i as usize] = Some(kind);
                i
            }
            None => {
                self.bodies.push(Some(kind));
                // 2^32 live events would be hundreds of GB of bodies.
                (self.bodies.len() - 1) as u32
            }
        };
        self.heap.push(Reverse(Key { time, origin, body }));
    }

    /// Take an event's body out of its slot and free the slot.
    fn release(&mut self, body: u32) -> Option<HeapKind<M>> {
        self.free.push(body);
        self.bodies[body as usize].take()
    }

    /// The destination of the delivery in slot `body`, if it is one.
    fn delivery_dst(&self, body: u32) -> Option<ProcId> {
        match self.bodies[body as usize] {
            Some(HeapKind::Deliver { dst, .. }) => Some(dst),
            _ => None,
        }
    }

    /// Schedule a delivery to `dst` stamped by machine `by`. A pid of no
    /// machine (`ProcId(0)` included) has nowhere to go: the stamp is drawn
    /// all the same, and nothing is queued.
    pub(super) fn deliver(
        &mut self,
        by: usize,
        time: Time,
        dst: ProcId,
        ev: impl Into<Delivery<M>>,
    ) {
        if machine_of_pid(dst) < self.states.len() {
            let ev = ev.into();
            self.schedule(by, time, HeapKind::Deliver { dst, ev });
        } else {
            self.states[by].next_origin();
        }
    }

    /// Arm thread `t`'s resume marker at `at`, unless one is armed already.
    fn schedule_resume(&mut self, t: usize, at: Time) {
        if !self.resume_scheduled[t] {
            self.resume_scheduled[t] = true;
            let by = self.threads[t].machine.0;
            self.schedule(by, at, HeapKind::ThreadResume(HwThreadId(t)));
        }
    }

    /// Keep a delivered batch's vector for the next batch opened. A few
    /// per machine are enough (last in, first out; DESIGN.md has the
    /// numbers for four and for unbounded).
    fn recycle(&mut self, mut msgs: Vec<M>) {
        if self.spare_msgs.len() < 4 * self.states.len() {
            msgs.clear();
            self.spare_msgs.push(msgs);
        }
    }

    /// Dispatch the event under a key popped from the heap.
    pub(super) fn dispatch(&mut self, Key { time, body, .. }: Key) {
        if let Some(dst) = self.delivery_dst(body) {
            let Some(slot) = self.slot(dst).filter(|s| s.alive) else {
                self.release(body);
                return;
            };
            let t = slot.thread.0;
            // FIFO server: if the thread is (or will be) busy, or has queued
            // work, append (the body stays in its slot); a resume marker
            // fires at the end of the current work.
            let busy_until = self.threads[t].busy_until;
            if busy_until > time || !self.pending[t].is_empty() {
                self.pending[t].push_back(body);
                // Queue-depth high-water mark (per-thread backlog; a
                // compare+store, cheap enough to keep always-on).
                let depth = self.pending[t].len() as u64;
                let st = &mut self.threads[t].stats;
                st.max_queue = st.max_queue.max(depth);
                self.schedule_resume(t, busy_until.max(time));
            } else {
                self.execute(t, body, time);
            }
            return;
        }
        match self.release(body) {
            Some(HeapKind::FlushBatch { src, dst, epoch }) => {
                // Stale unless the batch is still open under this epoch.
                let Some(sender) = self.slot_mut(src) else {
                    return;
                };
                let open = sender.batch_to(dst);
                if let Some(i) = open.filter(|&i| sender.batches[i].1.epoch == epoch) {
                    let (_, b) = sender.batches.swap_remove(i);
                    self.batch_stats.flush_timer += 1;
                    // The horizon IS the delivery instant (`time ==
                    // flush_at >= ready_at`), like interrupt moderation.
                    self.deliver_batch(src, dst, b, time);
                }
            }
            Some(HeapKind::ThreadResume(HwThreadId(t))) => {
                self.resume_scheduled[t] = false;
                // Pop queued work until we find a live destination; messages
                // to dead processes vanish.
                while let Some(body) = self.pending[t].pop_front() {
                    if self
                        .delivery_dst(body)
                        .is_some_and(|dst| self.is_alive(dst))
                    {
                        self.execute(t, body, time);
                        break;
                    }
                    self.release(body);
                }
                // More work queued: chain the next marker.
                if !self.pending[t].is_empty() {
                    self.schedule_resume(t, self.threads[t].busy_until.max(time));
                }
            }
            // Deliveries went above; a key's slot is never free.
            Some(HeapKind::Deliver { .. }) | None => {}
        }
    }

    /// Deliver a closed batch at `at` (>= the current dispatch instant).
    /// Single-message batches degrade to a plain `Message` so receivers
    /// and traces can't tell a lone coalesced message from an unbatched
    /// one. Batched links are machine-local: the sender's machine stamps it.
    fn deliver_batch(&mut self, src: ProcId, dst: ProcId, b: LinkBatch<M>, at: Time) {
        let m = machine_of_pid(src);
        let mut msgs = b.msgs;
        if msgs.len() == 1 {
            let msg = msgs.pop().expect("one message");
            self.recycle(msgs);
            self.deliver(m, at, dst, Event::Message { from: src, msg });
        } else {
            self.batch_stats.batched_msgs += msgs.len() as u64;
            self.batch_stats.batch_deliveries += 1;
            self.deliver(m, at, dst, Delivery::Batch { from: src, msgs });
        }
    }

    /// Route one `send()` through the per-link coalescer. `at` is the
    /// message's natural delivery instant (sender completion + channel
    /// latency); the batch may delay it up to the `batch_ns` horizon.
    /// `now` is the current dispatch instant (deliveries never precede it).
    fn enqueue_batched(&mut self, src: ProcId, dst: ProcId, msg: M, at: Time, now: Time) {
        let batch_max = self.batch_max;
        let sender = self.slot_mut(src).expect("a running process has a slot");
        match sender.batch_to(dst) {
            Some(i) if at <= sender.batches[i].1.flush_at => {
                let b = &mut sender.batches[i].1;
                b.msgs.push(msg);
                b.ready_at = b.ready_at.max(at);
                if b.msgs.len() >= batch_max {
                    // Depth flush: deliver now-complete batch at its
                    // ready time; the scheduled FlushBatch goes stale.
                    let (_, b) = sender.batches.swap_remove(i);
                    self.batch_stats.flush_depth += 1;
                    let at = b.ready_at.max(now);
                    self.deliver_batch(src, dst, b, at);
                }
            }
            Some(i) => {
                // The new message lands past the horizon: close the old
                // batch (its flush event goes stale) and open a new one.
                let (_, old) = sender.batches.swap_remove(i);
                self.batch_stats.flush_close += 1;
                let old_at = old.ready_at.max(now);
                self.deliver_batch(src, dst, old, old_at);
                self.open_batch(src, dst, msg, at);
            }
            None => self.open_batch(src, dst, msg, at),
        }
    }

    fn open_batch(&mut self, src: ProcId, dst: ProcId, msg: M, at: Time) {
        self.batch_epoch += 1;
        let epoch = self.batch_epoch;
        let flush_at = at + self.batch_ns;
        // Room for a few messages, so a burst does not regrow it per push.
        let mut msgs = self
            .spare_msgs
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(4));
        msgs.push(msg);
        let batch = LinkBatch {
            msgs,
            flush_at,
            ready_at: at,
            epoch,
        };
        let sender = self.slot_mut(src).expect("a running process has a slot");
        sender.batches.push((dst, batch));
        let kind = HeapKind::FlushBatch { src, dst, epoch };
        self.schedule(machine_of_pid(src), flush_at, kind);
    }

    /// Run the delivery in slot `body` on the free thread `t` at `time`
    /// (>= thread.busy_until), freeing the slot.
    fn execute(&mut self, t: usize, body: u32, time: Time) {
        let Some(HeapKind::Deliver { dst, ev }) = self.release(body) else {
            return;
        };
        let m = machine_of_pid(dst);
        // Tracing hook: name the span before the event is consumed. Guarded
        // so the disabled path pays one bool read, no format.
        let span_name = if neat_obs::tracing() {
            let pname = self.slot(dst).map_or("?", |s| s.name.as_str());
            let label = match &ev {
                Delivery::Event(ev) => ev.label(),
                Delivery::Batch { .. } => "batch",
            };
            Some(format!("{pname} [{label}]"))
        } else {
            None
        };
        let mut proc = match self.slot_mut(dst) {
            Some(slot) if slot.alive => match slot.proc.take() {
                Some(p) => p,
                None => return,
            },
            _ => return,
        };

        // --- CPU-time accounting: wake the thread, find the start instant.
        let th = &mut self.threads[t];
        let start = th.wake_for(time).max(th.busy_until);
        let (kind, freq) = (th.kind, th.freq);
        // SMT contention: slowdown scales with the sibling thread's recent
        // utilization — two saturated siblings each run at SMT_CAPACITY/2
        // of a dedicated core's speed.
        let smt_slow = match th.sibling {
            Some(HwThreadId(sib)) if kind == ThreadKind::Cpu => {
                let s = &self.threads[sib];
                let u = if s.busy_until > start || !self.pending[sib].is_empty() {
                    1.0
                } else {
                    s.recent_util(start)
                };
                1.0 + (2.0 / calibration::SMT_CAPACITY - 1.0) * u
            }
            _ => 1.0,
        };

        let (outputs, woken_threads) = (take(&mut self.outputs), take(&mut self.woken_threads));
        let mut ctx = Ctx {
            local: &mut self.states[m],
            threads: &self.threads,
            machines: &self.machines,
            batching: self.batch_ns.as_nanos() > 0,
            sender_kind: kind,
            self_id: dst,
            start,
            charged: proc.dispatch_cost(),
            charged_ns: 0,
            outputs,
            die: None,
            woken_threads,
            last_send_dst: None,
        };
        let spent = match ev {
            Delivery::Batch { from, mut msgs } => {
                proc.on_batch(&mut ctx, from, &mut msgs);
                Some(msgs)
            }
            Delivery::Event(ev) => {
                proc.on_event(&mut ctx, ev);
                None
            }
        };
        let Ctx {
            charged,
            charged_ns,
            mut outputs,
            die,
            mut woken_threads,
            ..
        } = ctx;

        // --- Completion time.
        let work = match kind {
            ThreadKind::Cpu => {
                let base = freq.cycles_to_time(charged);
                Time((base.as_nanos() as f64 * smt_slow) as u64 + charged_ns)
            }
            ThreadKind::Device => Time(charged_ns + freq.cycles_to_time(charged).as_nanos()),
        };
        let end = start + work;
        if let Some(msgs) = spent {
            self.recycle(msgs);
        }
        woken_threads.clear();
        self.woken_threads = woken_threads;
        let th = &mut self.threads[t];
        th.stats.smt_slow_sum += smt_slow;
        th.record_busy(start, end);
        if let Some(name) = span_name {
            neat_obs::trace::complete(t as u64, name, "dispatch", start.as_nanos(), end.as_nanos());
        }

        // --- Apply outputs at completion time.
        for out in outputs.drain(..) {
            match out {
                Output::Send {
                    dst: to,
                    msg,
                    extra_delay,
                } => {
                    let at = end + calibration::CHANNEL_LATENCY + extra_delay;
                    // Only latency-free local sends coalesce; anything with
                    // explicit wire/propagation delay, and everything that
                    // crosses machines, keeps its own event.
                    if machine_of_pid(to) == m
                        && self.batch_ns.as_nanos() > 0
                        && extra_delay.as_nanos() == 0
                    {
                        self.enqueue_batched(dst, to, msg, at, time);
                    } else {
                        self.deliver(m, at, to, Event::Message { from: dst, msg });
                    }
                }
                Output::Timer { delay, token } => {
                    self.deliver(m, end + delay, dst, Event::Timer { token });
                }
                Output::Spawn {
                    pid,
                    thread,
                    proc,
                    delay,
                } => {
                    // Ctx::spawn asserted thread is on this machine.
                    self.spawns += 1;
                    self.states[m]
                        .procs
                        .insert(pid, ProcSlot::new(proc, thread));
                    self.deliver(m, end + delay, pid, Event::Start);
                }
                Output::Kill { pid, crash } => {
                    let mode = if crash { DieMode::Crash } else { DieMode::Exit };
                    self.reap(pid, mode, end);
                }
            }
        }

        self.outputs = outputs;

        // --- Put the process back; reap drops a doomed one.
        if let Some(slot) = self.slot_mut(dst) {
            slot.proc = Some(proc);
        }
        if let Some(mode) = die {
            self.reap(dst, mode, end);
        }
    }

    fn reap(&mut self, pid: ProcId, mode: DieMode, at: Time) {
        let (name, thread) = match self.slot_mut(pid) {
            Some(slot) if slot.alive => {
                slot.alive = false;
                slot.proc = None; // all state dropped — stateless recovery
                (slot.name.clone(), slot.thread)
            }
            _ => return,
        };
        match mode {
            DieMode::Crash => self.crashes += 1,
            DieMode::Exit => self.exits += 1,
        }
        if neat_obs::tracing() {
            let what = match mode {
                DieMode::Crash => "crash",
                DieMode::Exit => "exit",
            };
            neat_obs::trace::instant(
                thread.0 as u64,
                format!("{what}: {name}"),
                "lifecycle",
                at.as_nanos(),
            );
        }
        if mode == DieMode::Crash {
            if let Some((monitor, hook)) = &self.crash_monitor {
                let (monitor, msg) = (*monitor, hook(pid, &name));
                // Crash detection latency: the kernel notices the fault and
                // notifies the monitor (one exception + IPC round).
                let at = at + calibration::CRASH_NOTIFY_LATENCY;
                let from = ProcId(0);
                self.deliver(
                    machine_of_pid(pid),
                    at,
                    monitor,
                    Event::Message { from, msg },
                );
            }
        }
    }
}
