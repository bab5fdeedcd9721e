//! Experiment driver for the splash4-rs suite.
//!
//! Regenerates every table and figure of the paper reconstruction (see
//! `DESIGN.md` §4 for the experiment index) from the kernel registry, the
//! native runner and the timing simulator. The `splash4-report` binary is the
//! command-line front end.

#![warn(missing_docs)]

pub mod cache;
pub mod experiments;
pub mod perfbench;
pub mod registry;
pub mod service;
pub mod tables;

pub use cache::{fnv1a, ResultCache};
pub use experiments::{
    record_trace, run_experiment, work_model, ExperimentCtx, ModelCache, ALL_EXPERIMENTS,
};
pub use perfbench::{run_bench_atomics, BenchConfig};
pub use registry::BenchmarkId;
pub use service::{
    dispatch, drain_events, JobCtl, JobEvent, Request, RequestKind, ServiceConfig, WorkerPool,
};
// `benchmark/` imports the program builder from here; it lives in the sim.
pub use splash4_sim::synthetic_program;
pub use tables::{geomean, pct_change, Report, Table};
