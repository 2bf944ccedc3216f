//! End-to-end benchmark of `dp-server`: seeded inputs, a real server
//! process driven over loopback TCP, correctness and accuracy gates,
//! and a traced run that splits latency across the layers.
//!
//! See `README.md` in this directory for workloads, metrics and usage.

pub mod check;
pub mod header;
pub mod inputs;
pub mod loadgen;
pub mod metrics;
pub mod replay;
pub mod server;
pub mod stats;
pub mod trace;
pub mod workload;
