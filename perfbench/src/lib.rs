//! End-to-end and per-layer benchmark of the Charles advisory server.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod bench;
pub mod client;
pub mod drive;
pub mod layers;
pub mod oracle;
pub mod rng;
pub mod setup;
pub mod stats;
pub mod streams;
pub mod timed;
