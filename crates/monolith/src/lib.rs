//! # neat-monolith — the Linux-like shared-everything baseline
//!
//! The comparison system of §6.1: a monolithic kernel network stack. It
//! runs the **same protocol engine** (`neat-tcp` + `neat-net`) as NEaT but
//! in the architecture the paper criticizes: one shared socket table and
//! connection state, accessed from per-core kernel contexts, paying the
//! shared-everything taxes of §2:
//!
//! * syscall boundary crossings for every application operation;
//! * socket/table **lock contention** that grows with the number of cores
//!   concurrently in the kernel (the non-scalable-ticket-lock collapse);
//! * **cache-line bouncing** of shared state between cores;
//! * **wrong-core penalties** when the softirq core that processed a
//!   packet is not the core running the application (IRQ/RX affinity and
//!   server pinning — the tuning knobs of Table 1).
//!
//! The shared state is deliberately expressed as an `Rc<RefCell<…>>`
//! shared by all kernel-context processes — the simulation's one sanctioned
//! violation of isolation, because shared memory *is* the monolith's
//! architecture.

#![forbid(unsafe_code)]

pub mod boot;
pub mod ctx_proc;
pub mod shared;
pub mod tuning;

pub use boot::{boot_monolith, MonoDeployment};
pub use ctx_proc::KernelCtxProc;
pub use shared::MonoShared;
pub use tuning::MonoTuning;
