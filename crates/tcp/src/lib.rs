//! # neat-tcp — a from-scratch TCP engine
//!
//! This is the protocol engine at the heart of the NEaT reproduction. One
//! [`TcpStack`] instance is exactly the paper's unit of partitioning: each
//! NEaT replica owns one, the monolithic baseline shares one behind a lock,
//! and the load generator drives several. A stack instance is strictly
//! single-threaded and owns all of its state — the paper's isolation
//! principle — and is driven from outside by three kinds of stimuli:
//! inbound segments, timer ticks, and user socket calls.
//!
//! Implemented (cf. the smoltcp feature checklist the repro is scoped by):
//!
//! * the full RFC 793 state machine, active and passive open, simultaneous
//!   close, TIME_WAIT with configurable timeout;
//! * sliding-window flow control with window scaling and MSS negotiation;
//! * retransmission with RFC 6298 RTT estimation, exponential backoff and
//!   Karn's rule; fast retransmit on three duplicate ACKs;
//! * out-of-order reassembly; delayed ACKs; Nagle's algorithm;
//! * congestion control behind an event-driven API: Reno, CUBIC (with
//!   RFC 8312 fast convergence), a BBR-style model-based controller, and
//!   a DCTCP-style proportional controller — selectable per stack
//!   ([`TcpConfig::congestion`]) or per socket
//!   ([`TcpStack::set_congestion`], the one per-socket option);
//! * zero-window probing; SYN backlog + accept queues on listeners;
//! * ephemeral port allocation, RST generation and handling.
//!
//! The socket itself is a thin coordinator over four owned-state
//! components (see [`components`]): connection management, reliability,
//! flow control, and congestion control.

#![forbid(unsafe_code)]

pub mod assembler;
pub mod budget;
pub mod buffer;
pub mod components;
mod deadline;
pub mod rto;
pub mod socket;
pub mod stack;
pub mod tcb;
pub mod types;
pub mod wheel;

#[cfg(test)]
mod proptests;

pub use budget::ConnBudget;
pub use components::{AckEvent, CcDecision, CongestionControl};
pub use socket::TcpSocket;
pub use stack::TcpStack;
pub use types::{CongestionAlgo, Readiness, SockEvent, SocketId, TcpConfig, TcpError, TcpState};
pub use wheel::{TimerHandle, TimerWheel};
