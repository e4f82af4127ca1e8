//! The four owned-state components a [`crate::TcpSocket`] is built from
//! (the paper's component decomposition applied to the transport itself):
//!
//! * [`conn_mgmt`] — the RFC 793 state machine: handshake, teardown,
//!   TIME_WAIT and keepalive lifecycle state.
//! * [`reliability`] — the retransmit queue: send buffer, RTO/backoff
//!   interaction with [`crate::rto`], dup-ack tracking, Karn's rule.
//! * [`flow_control`] — the receive side: reassembly, receive buffer,
//!   advertised window, ACK generation, zero-window probing.
//! * [`congestion_control`] — the event-driven controller API plus the
//!   Reno/CUBIC/BBR-style/DCTCP-style implementations, held by a socket
//!   as a [`Controller`]: Reno in place, the other three boxed.
//!
//! Each component owns its state struct exclusively (see DESIGN.md's
//! "TCP component map" for the field-by-field ownership table): every
//! assignment to a `cm`, `rel` or `fc` field is in that component's file
//! (`tcb.rs`'s checkpoint decoder is the one exemption), and CI's
//! `tcp_owner_guard` fails on any other. The logic lives in `impl
//! TcpSocket` blocks inside each component's file, so every rule is
//! written once, next to the state it changes; a component that must
//! change another's state calls one of its steps (`owe_ack`, `ack_sent`,
//! `stop_rtx`, `resend_syn`, …). The socket is a thin coordinator that
//! routes `on_segment` / `on_timer` / `poll_transmit` stimuli between
//! them.

pub mod congestion_control;
pub mod conn_mgmt;
pub mod flow_control;
pub mod reliability;

pub use congestion_control::{make, AckEvent, CcDecision, CongestionControl, Controller};
pub use conn_mgmt::ConnMgmt;
pub use flow_control::FlowControl;
pub use reliability::Reliability;
