//! The repo benchmark: four closed-loop workloads, six end-to-end
//! metrics, a traced per-layer budget. See `README.md` for what each
//! number means and how to compare two commits.
//!
//! Everything is measured from outside the crates under test, by timing
//! calls into their public functions.

pub mod compare;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;
pub mod world;
