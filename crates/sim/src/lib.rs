//! # neat-sim — deterministic multicore machine simulator
//!
//! This crate is the execution substrate for the NEaT reproduction. The NEaT
//! paper (CoNEXT '16) runs its network stack as a set of *hardware-isolated,
//! single-threaded, event-driven processes* pinned to dedicated cores of a
//! multicore machine, communicating exclusively through message queues (the
//! NewtOS multiserver model). This crate provides exactly that execution
//! model as a deterministic discrete-event simulation:
//!
//! * [`Machine`]s with physical cores and SMT hardware threads at a given
//!   clock frequency (the paper's 12-core AMD Opteron 6168 @ 1.9 GHz and
//!   dual-socket 4-core Xeon E5520 @ 2.26 GHz with 2 threads/core);
//! * [`Process`]es — single-threaded run-to-completion event handlers pinned
//!   to one hardware thread, owning all of their state (isolation is enforced
//!   by construction: the only way to affect another process is
//!   [`Ctx::send`]);
//! * message passing with the paper's MWAIT-based sleep/wake cost model
//!   (§4): an idle process spin-polls its queues for a while, then suspends
//!   via the kernel; waking it costs kernel time and latency. This is what
//!   produces Table 2's driver CPU breakdown and Figure 12's low-load
//!   latency effects;
//! * crash/restart support for the fault-injection experiments (Table 3);
//! * deterministic, seedable execution: same seed, same history.
//!
//! The simulated clock is in **nanoseconds**; process work is charged in
//! **CPU cycles** and converted using the owning core's frequency, including
//! an SMT capacity penalty when the sibling hardware thread is busy.

#![forbid(unsafe_code)]

pub mod calibration;
pub mod engine;
pub mod machine;
pub mod process;
pub mod time;

pub use engine::{BatchStats, Ctx, Sim, SimConfig};
pub use machine::{HwThreadId, MachineId, MachineSpec, ThreadKind, ThreadStats};
pub use process::{Event, ProcId, Process};
pub use time::{Cycles, Freq, Time};
