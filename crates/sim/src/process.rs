//! The process abstraction: single-threaded, event-driven, isolated.
//!
//! A [`Process`] owns all of its state. The simulation gives it control only
//! through [`Process::on_event`], and the only way it can affect the rest of
//! the world is through the [`crate::Ctx`] passed to it — which offers
//! message sends, timers, and process management, but **no shared memory**.
//! This is the paper's isolation principle enforced by construction: "each
//! process always modifies only its own data structures — except the
//! messaging queues" (§3).

use crate::time::Cycles;

/// Identifies a process within a [`crate::Sim`].
///
/// ProcIds are never reused: a restarted replica gets a fresh id, which is
/// how the driver distinguishes a recovering stack from the crashed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u64);

/// An event delivered to a process.
#[derive(Debug)]
pub enum Event<M> {
    /// The process was just created (or restarted) and should initialize.
    Start,
    /// A message from another process (or from a device engine).
    Message { from: ProcId, msg: M },
    /// A timer set via [`crate::Ctx::set_timer`] fired.
    Timer { token: u64 },
}

impl<M> Event<M> {
    /// Short label for trace spans ("what kind of event ran here").
    pub fn label(&self) -> &'static str {
        match self {
            Event::Start => "start",
            Event::Message { .. } => "msg",
            Event::Timer { .. } => "timer",
        }
    }
}

/// A single-threaded, event-driven, hardware-isolated process.
///
/// Implementations must be `'static` because a crash-and-restart cycle can
/// destroy and recreate them at arbitrary simulated times.
pub trait Process<M>: 'static {
    /// Short human-readable name (e.g. `"tcp.1"`, `"web.3"`, `"syscall"`).
    fn name(&self) -> String;

    /// Handle one event, run-to-completion. All CPU work must be charged
    /// via [`crate::Ctx::charge`] (or the event's base cost helpers).
    fn on_event(&mut self, ctx: &mut crate::Ctx<'_, M>, ev: Event<M>);

    /// Base CPU cost charged for every event dispatch before `on_event`
    /// runs (queue dequeue etc.). Override to zero for device engines.
    fn dispatch_cost(&self) -> Cycles {
        crate::calibration::MSG_RECV
    }

    /// Handle a coalesced run of messages from one sender in a single
    /// wakeup (§3.4: amortize dispatch and wake costs over the batch) — the
    /// only way a batch reaches a process; `on_event` never sees one. The
    /// default unrolls into per-message [`Process::on_event`] calls —
    /// behaviour-identical to unbatched delivery, while the batch still
    /// pays [`Process::dispatch_cost`] only once. Batch-aware processes
    /// override this to amortize per-wakeup work (drain rings once, flush
    /// once) across all `msgs`. The vector is lent so the engine can reuse
    /// it for a later batch: take the messages out (`drain(..)`); whatever
    /// is left in it is dropped.
    fn on_batch(&mut self, ctx: &mut crate::Ctx<'_, M>, from: ProcId, msgs: &mut Vec<M>) {
        for msg in msgs.drain(..) {
            self.on_event(ctx, Event::Message { from, msg });
        }
    }
}
