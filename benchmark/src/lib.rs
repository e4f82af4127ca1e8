//! # neat-benchmark — the repo's benchmark, on the host clock
//!
//! Every CI-gated number of the reproduction is *virtual time*, produced
//! by the constants of `sim/calibration.rs`. This crate measures the
//! other clock: host time, heap allocations and memory per simulated
//! request, end to end on six workloads and layer by layer through a
//! traced *lane*. See `README.md` beside this crate for every name.
//!
//! The benchmark calls the product only through its public functions and
//! holds no copy of product logic; the one piece of orchestration it owns
//! is the lane ([`lane`]), the call sequence of a stack replica's flush
//! without the engine.

pub mod alloc;
pub mod compare;
pub mod lane;
pub mod measure;
pub mod metrics;
pub mod report;
pub mod selfcheck;
pub mod span;
pub mod system;
pub mod workloads;
