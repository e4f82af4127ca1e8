//! Integration-test and example host crate; the real content lives in the repository-level `tests/` and `examples/` directories wired via Cargo target paths.

#![forbid(unsafe_code)]
