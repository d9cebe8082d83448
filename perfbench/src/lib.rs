//! The followscent benchmark: end-to-end metrics from untraced runs of three
//! workloads, per-layer metrics from a separate traced run, and output checks
//! on every run. See `README.md` in this directory.

pub mod stats;
pub mod trace;
pub mod truth;
pub mod workload;
