//! The process abstraction: single-threaded, event-driven, isolated.
//!
//! A [`Process`] owns all of its state. The simulation gives it control only
//! through [`Process::on_event`], closing each wakeup with
//! [`Process::settle`], and the only way it can affect the rest of
//! the world is through the [`crate::Ctx`] passed to it — which offers
//! message sends, timers, and process management, but **no shared memory**.
//! This is the paper's isolation principle enforced by construction: "each
//! process always modifies only its own data structures — except the
//! messaging queues" (§3).

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
    /// via [`crate::Ctx::charge`]; the engine has already charged the
    /// dispatch (`MSG_RECV` on a CPU thread, nothing on a device engine).
    /// A coalesced run of messages from one sender (§3.4) arrives as one
    /// `Event::Message` call per message, in send order, in one wakeup.
    fn on_event(&mut self, ctx: &mut crate::Ctx<'_, M>, ev: Event<M>);

    /// End of a wakeup: the engine calls this once after every dispatch —
    /// after a lone event, or after the last message of a coalesced run —
    /// even if the process crashed itself during it. Work owed once per
    /// wakeup (drain a ring, flush a stack) goes here, so a run pays it
    /// once across all its messages.
    fn settle(&mut self, _ctx: &mut crate::Ctx<'_, M>) {}
}
