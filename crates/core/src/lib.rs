//! # neat — a reliable and scalable network stack by design
//!
//! This crate is the reproduction of the paper's contribution: **NEaT**, a
//! BSD-socket-compatible network stack built from *isolated*, *partitioned*
//! process replicas on a NewtOS-style multiserver system (CoNEXT '16).
//!
//! The principles, enforced by construction on the `neat-sim` substrate:
//!
//! * **Isolation** — every component (NIC driver, packet filter, IP, TCP,
//!   UDP, SYSCALL server, each application) is a single-threaded
//!   event-driven process pinned to a hardware thread, communicating only
//!   via message queues.
//! * **Partitioning** — network state is partitioned across N fully
//!   independent stack replicas. A TCP connection lives in exactly one
//!   replica; the NIC steers every packet of a flow to that replica's
//!   queue; listening sockets are transparently replicated as per-replica
//!   subsockets at `listen()` time (§3.3).
//!
//! Consequences reproduced here:
//!
//! * a crashing replica is restarted *statelessly* by the supervisor; only
//!   its own connections are lost and only TCP faults lose any state at all
//!   (§3.6, Table 3);
//! * throughput scales with replicas and with hyper-threads (§6, Figures
//!   7–11), because there is no shared state to contend on;
//! * consecutive connections land in replicas with independently randomized
//!   address-space layouts (§3.8) — measured by [`security`].
//!
//! The crate provides both the **single-component** replica (whole stack in
//! one process, `NEaT Nx` in the figures) and the **multi-component**
//! replica (packet filter → IP → TCP/UDP pipeline, `Multi Nx`), the SYSCALL
//! server, the NIC driver process, the one replica builder ([`replica`])
//! that boot, scale-up and recovery share, the crash supervisor, the
//! user-space socket library with subsocket replication,
//! and dynamic scale-up/down with lazy termination (§3.4).

#![forbid(unsafe_code)]

pub mod boot;
pub mod config;
pub mod driver;
pub mod fault;
pub mod flow_repl;
pub mod ip_comp;
pub mod msg;
pub mod netcode;
pub mod nic_proc;
pub mod pf_comp;
pub mod placement;
pub mod replica;
pub mod security;
pub mod sock_server;
pub mod sockets;
pub mod stack_host;
pub mod stack_single;
pub mod supervisor;
pub mod syscall;
pub mod tcp_comp;
pub mod udp_comp;

#[cfg(test)]
mod tests_components;

pub use config::{NeatConfig, ReplicationConfig, StackMode};
pub use msg::{ConnHandle, Msg, ReplFlow, ReplPayload};
pub use placement::{Placement, Slot};
