//! # neat-apps — workloads and testbed assembly
//!
//! The evaluation applications of the paper: a lighttpd-like static web
//! server "serving only static files cached in memory" and an
//! httperf-like load generator that "repeatedly open[s] persistent
//! connections and request[s] a small 20-byte file" (§6.2) — plus the
//! scenario builder that assembles complete simulated testbeds (server
//! machine + NEaT or monolith deployment + client machine + 10GbE link).

#![forbid(unsafe_code)]

pub mod http;
pub mod httperf;
pub mod scenario;
pub mod webserver;

pub use httperf::{ClientMetrics, HttperfConfig, HttperfProc};
pub use scenario::{Testbed, TestbedSpec, Workload};
pub use webserver::{FileStore, WebServerProc};
