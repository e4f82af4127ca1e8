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
    /// Dispatch one event popped from the heap of the domain at `di`.
    pub(super) fn dispatch(&mut self, di: usize, ev: HeapEv<M>) {
        let HeapEv { time, kind, .. } = ev;
        match kind {
            HeapKind::Deliver { dst, ev } => {
                let d = &mut self.domains[di];
                let Some(slot) = d.procs.get(dst) else {
                    return;
                };
                if !slot.alive {
                    return;
                }
                let tid = slot.thread;
                let lt = self.topo.loc(tid).idx as usize;
                // FIFO server: if the thread is (or will be) busy, or has
                // queued work, append; a resume marker fires at the end of
                // the current work.
                let busy_until = d.threads[lt].busy_until;
                if busy_until > time || !d.pending[lt].is_empty() {
                    d.pending[lt].push_back((dst, ev));
                    // Queue-depth high-water mark (per-thread backlog; a
                    // compare+store, cheap enough to keep always-on).
                    let depth = d.pending[lt].len() as u64;
                    let st = &mut d.threads[lt].stats;
                    st.max_queue = st.max_queue.max(depth);
                    if !d.resume_scheduled[lt] {
                        d.resume_scheduled[lt] = true;
                        let at = busy_until.max(time);
                        let origin = d.next_origin();
                        d.heap.push(HeapEv {
                            time: at,
                            origin,
                            kind: HeapKind::ThreadResume(lt as u32),
                        });
                    }
                } else {
                    self.execute(di, lt, dst, ev, time);
                }
            }
            HeapKind::FlushBatch { src, dst, epoch } => {
                // Stale unless the batch is still open under this epoch.
                let d = &mut self.domains[di];
                let Some(sender) = d.procs.get_mut(src) else {
                    return;
                };
                let open = sender.batch_to(dst);
                if let Some(i) = open.filter(|&i| sender.batches[i].1.epoch == epoch) {
                    let (_, b) = sender.batches.swap_remove(i);
                    d.batch_stats.flush_timer += 1;
                    // The horizon IS the delivery instant (`time ==
                    // flush_at >= ready_at`), like interrupt moderation.
                    self.deliver_batch(di, src, dst, b, time);
                }
            }
            HeapKind::ThreadResume(lt) => {
                let lt = lt as usize;
                self.domains[di].resume_scheduled[lt] = false;
                // Pop queued work until we find a live destination.
                while let Some((dst, ev)) = self.domains[di].pending[lt].pop_front() {
                    let alive = self.domains[di].procs.get(dst).is_some_and(|s| s.alive);
                    if !alive {
                        continue; // messages to dead processes vanish
                    }
                    self.execute(di, lt, dst, ev, time);
                    break;
                }
                // More work queued: chain the next marker.
                let d = &mut self.domains[di];
                if !d.pending[lt].is_empty() && !d.resume_scheduled[lt] {
                    d.resume_scheduled[lt] = true;
                    let at = d.threads[lt].busy_until.max(time);
                    let origin = d.next_origin();
                    d.heap.push(HeapEv {
                        time: at,
                        origin,
                        kind: HeapKind::ThreadResume(lt as u32),
                    });
                }
            }
        }
    }

    /// Deliver a closed batch at `at` (>= the current dispatch instant).
    /// Single-message batches degrade to a plain `Message` so receivers
    /// and traces can't tell a lone coalesced message from an unbatched
    /// one. Batched links are machine-local, so delivery is a local push.
    fn deliver_batch(&mut self, di: usize, src: ProcId, dst: ProcId, b: LinkBatch<M>, at: Time) {
        let d = &mut self.domains[di];
        let mut msgs = b.msgs;
        if msgs.len() == 1 {
            let msg = msgs.pop().expect("one message");
            d.recycle(msgs);
            d.push(at, dst, Event::Message { from: src, msg });
        } else {
            d.batch_stats.batched_msgs += msgs.len() as u64;
            d.batch_stats.batch_deliveries += 1;
            d.push(at, dst, Delivery::Batch { from: src, msgs });
        }
    }

    /// Route one `send()` through the per-link coalescer. `at` is the
    /// message's natural delivery instant (sender completion + channel
    /// latency); the batch may delay it up to the `batch_ns` horizon.
    /// `now` is the current dispatch instant (deliveries never precede it).
    fn enqueue_batched(
        &mut self,
        di: usize,
        src: ProcId,
        dst: ProcId,
        msg: M,
        at: Time,
        now: Time,
    ) {
        let batch_max = self.batch_max;
        let d = &mut self.domains[di];
        let sender = d.procs.get_mut(src).expect("a running process has a slot");
        match sender.batch_to(dst) {
            Some(i) if at <= sender.batches[i].1.flush_at => {
                let b = &mut sender.batches[i].1;
                b.msgs.push(msg);
                b.ready_at = b.ready_at.max(at);
                if b.msgs.len() >= batch_max {
                    // Depth flush: deliver now-complete batch at its
                    // ready time; the scheduled FlushBatch goes stale.
                    let (_, b) = sender.batches.swap_remove(i);
                    d.batch_stats.flush_depth += 1;
                    let at = b.ready_at.max(now);
                    self.deliver_batch(di, src, dst, b, at);
                }
            }
            Some(i) => {
                // The new message lands past the horizon: close the old
                // batch (its flush event goes stale) and open a new one.
                let (_, old) = sender.batches.swap_remove(i);
                d.batch_stats.flush_close += 1;
                let old_at = old.ready_at.max(now);
                self.deliver_batch(di, src, dst, old, old_at);
                self.open_batch(di, src, dst, msg, at);
            }
            None => self.open_batch(di, src, dst, msg, at),
        }
    }

    fn open_batch(&mut self, di: usize, src: ProcId, dst: ProcId, msg: M, at: Time) {
        let d = &mut self.domains[di];
        d.batch_epoch += 1;
        let epoch = d.batch_epoch;
        let flush_at = at + self.batch_ns;
        // Room for a few messages, so a burst does not regrow it per push.
        let mut msgs = d.spare_msgs.pop().unwrap_or_else(|| Vec::with_capacity(4));
        msgs.push(msg);
        let batch = LinkBatch {
            msgs,
            flush_at,
            ready_at: at,
            epoch,
        };
        let sender = d.procs.get_mut(src).expect("a running process has a slot");
        sender.batches.push((dst, batch));
        let origin = d.next_origin();
        let kind = HeapKind::FlushBatch { src, dst, epoch };
        d.heap.push(HeapEv {
            time: flush_at,
            origin,
            kind,
        });
    }

    /// Run one handler on a free local thread at `time`
    /// (>= thread.busy_until).
    fn execute(&mut self, di: usize, lt: usize, dst: ProcId, ev: Delivery<M>, time: Time) {
        let d = &mut self.domains[di];
        // Tracing hook: name the span before the event is consumed. Guarded
        // so the disabled path pays one bool read, no format.
        let span_name = if neat_obs::tracing() {
            let pname = d.procs.get(dst).map_or("?", |s| s.name.as_str());
            let label = match &ev {
                Delivery::Event(ev) => ev.label(),
                Delivery::Batch { .. } => "batch",
            };
            Some(format!("{pname} [{label}]"))
        } else {
            None
        };
        let mut proc = match d.procs.get_mut(dst) {
            Some(slot) if slot.alive => match slot.proc.take() {
                Some(p) => p,
                None => return,
            },
            _ => return,
        };

        // --- CPU-time accounting: wake the thread, find the start instant.
        let start = {
            let th = &mut d.threads[lt];
            let woken = th.wake_for(time);
            woken.max(th.busy_until)
        };
        let kind = d.threads[lt].kind;
        let freq = d.threads[lt].freq;
        // SMT contention: slowdown scales with the sibling thread's recent
        // utilization — two saturated siblings each run at SMT_CAPACITY/2
        // of a dedicated core's speed. Siblings share a core, so the
        // lookup is domain-local by construction.
        let smt_slow = match d.threads[lt].sibling {
            Some(sib) if kind == ThreadKind::Cpu => {
                let sl = self.topo.loc(sib).idx as usize;
                let s = &d.threads[sl];
                let u = if s.busy_until > start || !d.pending[sl].is_empty() {
                    1.0
                } else {
                    s.recent_util(start)
                };
                1.0 + (2.0 / calibration::SMT_CAPACITY - 1.0) * u
            }
            _ => 1.0,
        };

        let (outputs, woken_threads) = (take(&mut d.outputs), take(&mut d.woken_threads));
        let mut ctx = Ctx {
            dom: d,
            topo: &self.topo,
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
        let d = &mut self.domains[di];
        if let Some(msgs) = spent {
            d.recycle(msgs);
        }
        woken_threads.clear();
        d.woken_threads = woken_threads;
        {
            let th = &mut d.threads[lt];
            th.stats.smt_slow_sum += smt_slow;
            th.record_busy(start, end);
        }
        if let Some(name) = span_name {
            neat_obs::trace::complete(
                d.thread_ids[lt].0 as u64,
                name,
                "dispatch",
                start.as_nanos(),
                end.as_nanos(),
            );
        }

        // --- Apply outputs at completion time.
        let src_dom = d.dom as usize;
        for out in outputs.drain(..) {
            match out {
                Output::Send {
                    dst: to,
                    msg,
                    extra_delay,
                } => {
                    let at = end + calibration::CHANNEL_LATENCY + extra_delay;
                    let to_dom = domain_of_pid(to);
                    // Only latency-free local sends coalesce; anything with
                    // explicit wire/propagation delay, and everything that
                    // crosses machines, keeps its own event.
                    if to_dom == src_dom
                        && self.batch_ns.as_nanos() > 0
                        && extra_delay.as_nanos() == 0
                    {
                        self.enqueue_batched(di, dst, to, msg, at, time);
                    } else {
                        // `ProcId(0)` or a pid nobody allocated: nowhere to go.
                        let origin = self.domains[di].next_origin();
                        let ev = Event::Message { from: dst, msg };
                        if let Some(d) = self.domains.get_mut(to_dom) {
                            d.deliver(at, origin, to, ev);
                        }
                    }
                }
                Output::Timer { delay, token } => {
                    self.domains[di].push(end + delay, dst, Event::Timer { token });
                }
                Output::Spawn {
                    pid,
                    thread,
                    proc,
                    delay,
                } => {
                    // Ctx::spawn asserted thread is on this machine.
                    let d = &mut self.domains[di];
                    d.spawns += 1;
                    d.procs.insert(pid, ProcSlot::new(proc, thread));
                    d.push(end + delay, pid, Event::Start);
                }
                Output::Kill { pid, crash } => {
                    let mode = if crash { DieMode::Crash } else { DieMode::Exit };
                    self.reap(pid, mode, end);
                }
            }
        }

        self.domains[di].outputs = outputs;

        // --- Put the process back; reap drops a doomed one.
        if let Some(slot) = self.domains[di].procs.get_mut(dst) {
            slot.proc = Some(proc);
        }
        if let Some(mode) = die {
            self.reap(dst, mode, end);
        }
    }

    fn reap(&mut self, pid: ProcId, mode: DieMode, at: Time) {
        let p = domain_of_pid(pid);
        let Some(d) = self.domains.get_mut(p) else {
            return;
        };
        let (name, thread) = match d.procs.get_mut(pid) {
            Some(slot) if slot.alive => {
                slot.alive = false;
                slot.proc = None; // all state dropped — stateless recovery
                (slot.name.clone(), slot.thread)
            }
            _ => return,
        };
        match mode {
            DieMode::Crash => d.crashes += 1,
            DieMode::Exit => d.exits += 1,
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
                let msg = hook(pid, &name);
                // Crash detection latency: the kernel notices the fault and
                // notifies the monitor (one exception + IPC round).
                let origin = self.domains[p].next_origin();
                let ev = Event::Message {
                    from: ProcId(0),
                    msg,
                };
                if let Some(d) = self.domains.get_mut(domain_of_pid(*monitor)) {
                    d.deliver(at + calibration::CRASH_NOTIFY_LATENCY, origin, *monitor, ev);
                }
            }
        }
    }
}
