//! # splash4 — the Splash-4 benchmark suite in Rust
//!
//! A from-scratch Rust reproduction of *Splash-4: A Modern Benchmark Suite
//! with Lock-Free Constructs* (Gómez-Hernández, Cebrian, Kaxiras, Ros —
//! IISWC 2022). The suite's workloads — the fourteen original kernels plus
//! the registry-extension families `cmap` and `stream` — run with either
//! generation's
//! synchronization constructs — lock-based ([`SyncMode::LockBased`],
//! ≙ Splash-3) or lock-free ([`SyncMode::LockFree`], ≙ Splash-4) — over the
//! same algorithmic code, and a deterministic multicore timing simulator
//! reproduces the paper's 64-thread characterization on small hosts.
//!
//! ## Quick start
//!
//! ```
//! use splash4::{Benchmark, BenchmarkExt as _, InputClass, SyncMode};
//!
//! // Run radix sort with Splash-4 (lock-free) synchronization on 2 threads.
//! let result = Benchmark::Radix.execute(InputClass::Test, SyncMode::LockFree, 2);
//! assert!(result.validated);
//!
//! // Compare the two suite generations head to head.
//! let cmp = Benchmark::Radix.compare(InputClass::Test, 2);
//! println!("Splash-4 / Splash-3 time ratio: {:.3}", cmp.ratio());
//! ```
//!
//! ## Simulated characterization
//!
//! ```
//! use splash4::{Benchmark, BenchmarkExt as _, InputClass, MachineParams, SyncMode};
//!
//! let work = Benchmark::Fft.work_model(InputClass::Test);
//! let machine = MachineParams::epyc_like();
//! let s3 = splash4::simulate(&work, SyncMode::LockBased, 64, &machine);
//! let s4 = splash4::simulate(&work, SyncMode::LockFree, 64, &machine);
//! assert!(s4.total_ns < s3.total_ns);
//! ```
//!
//! ## Trace-driven replay
//!
//! ```
//! use splash4::{Benchmark, BenchmarkExt as _, InputClass, SyncMode};
//! use splash4::{lower_trace, MachineParams, SyncPolicy};
//!
//! // Record radix's sync events during a native 2-thread run...
//! let (result, trace) = Benchmark::Radix.run_traced(InputClass::Test, SyncMode::LockFree, 2);
//! assert!(result.validated);
//! assert!(trace.len() > 0);
//! // ...and replay the recording on 32 simulated cores.
//! let machine = MachineParams::epyc_like();
//! let prog = lower_trace(&trace, SyncPolicy::uniform(SyncMode::LockFree), 32, &machine);
//! assert_eq!(prog.ncores(), 32);
//! ```
//!
//! ## Crate map
//!
//! | layer | crate | docs |
//! |---|---|---|
//! | sync runtime | `splash4-parmacs` | PARMACS constructs, both back-ends, instrumentation |
//! | reclamation | `splash4-reclaim` | epoch/hazard safe memory reclamation, dynamic task pools |
//! | workloads | `splash4-kernels` | the suite's workload registry and ports with oracles |
//! | simulator | `splash4-sim` | machine models, DES engine, model expansion |
//! | tracing | `splash4-trace` | sync-event recording, codec, replay lowering |
//! | model checking | `splash4-check` | deterministic schedule exploration + linearizability |
//! | experiments | `splash4-harness` | paper table/figure regeneration + the experiment-service core |
//! | service | `splash4-serve` | `splash4-serve` binary: the service's JSON-over-TCP front end |
//!
//! ## Model checking the constructs
//!
//! ```
//! use splash4::check::{explore, Budget, treiber_scenario};
//! use splash4::parmacs::TreiberSpec;
//!
//! // Explore interleavings of the shipped Treiber stack: every schedule
//! // must be race-free and linearizable against the sequential stack spec.
//! let scenario = treiber_scenario(TreiberSpec::SPLASH4);
//! let report = explore(&scenario, &Budget::small(1));
//! assert!(report.counterexample.is_none());
//! ```

#![warn(missing_docs)]

pub use splash4_check as check;
pub use splash4_check::{
    check_kernel_mutants, check_kernels, check_mutants, check_reclaim, check_reclaim_mutants,
    check_suite, check_weakmem, check_weakmem_mutants, CheckBudget, MemoryModel,
};
pub use splash4_harness::{
    geomean, pct_change, record_trace, run_bench_atomics, run_experiment, BenchConfig,
    ExperimentCtx, ModelCache, Report, Table, ALL_EXPERIMENTS,
};
// The experiment service's network-free core (DESIGN.md §13); the
// `splash4-serve` crate wraps this in the JSON-over-TCP front end.
pub use splash4_harness::{
    dispatch, drain_events, JobCtl, JobEvent, Request, RequestKind, ResultCache, ServiceConfig,
    WorkerPool,
};
pub use splash4_kernels::{
    barnes, cholesky, close, cmap, fft, fmm, lu, ocean, radiosity, radix, raytrace, stream, suite,
    volrend, water_nsq, water_sp, workload, InputClass, KernelResult, SharedAccum, SharedSlice,
    Workload,
};
pub use splash4_parmacs as parmacs;
pub use splash4_parmacs::{
    Backoff, Barrier, CachePadded, ConstructClass, Dispatch, IndexCounter, Json, PauseVar,
    PhaseSpec, ReduceF64, ReduceU64, SmallRng, SyncEnv, SyncMode, SyncPolicy, SyncProfile,
    TaskQueue, Team, TeamCtx, ToJson, TraceEvent, TraceSink, WorkModel,
};
pub use splash4_reclaim as reclaim;
pub use splash4_reclaim::{
    EliminationStack, EpochReclaimer, HazardReclaimer, MsQueue, PoolShape, ReclaimKind,
    ReclaimStats, Reclaimer, TaskPool,
};
pub use splash4_sim::{
    calibrate, engine, simulate, synthesize_bench, BarrierKind, Engine, MachineParams, Program,
    SimResult, Simulator,
};
pub use splash4_trace as trace;
pub use splash4_trace::{lower::lower as lower_trace, RingRecorder, Trace, TraceSummary};

/// A suite workload (re-exported registry id with a friendlier name).
pub use splash4_harness::BenchmarkId as Benchmark;

/// Head-to-head outcome of the two suite generations on the same input.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Lock-based (Splash-3) result.
    pub splash3: KernelResult,
    /// Lock-free (Splash-4) result.
    pub splash4: KernelResult,
}

impl Comparison {
    /// Normalized execution time: Splash-4 time / Splash-3 time
    /// (< 1 means the modernization won).
    pub fn ratio(&self) -> f64 {
        self.splash4.elapsed.as_secs_f64() / self.splash3.elapsed.as_secs_f64().max(1e-12)
    }

    /// Both runs produced validated results.
    pub fn validated(&self) -> bool {
        self.splash3.validated && self.splash4.validated
    }

    /// Both runs agree on the output digest (within `rel`).
    pub fn checksums_match(&self, rel: f64) -> bool {
        close(self.splash3.checksum, self.splash4.checksum, rel)
    }
}

/// Extension methods on [`Benchmark`] for one-call execution.
pub trait BenchmarkExt {
    /// Run with `mode` synchronization on `threads` threads. (Named
    /// `execute` so it cannot shadow the registry's inherent
    /// `run(class, &env)` method.)
    fn execute(self, class: InputClass, mode: SyncMode, threads: usize) -> KernelResult;
    /// Run both generations and return the comparison.
    fn compare(self, class: InputClass, threads: usize) -> Comparison;
    /// Calibrated workload model for the simulator: the median of three
    /// single-thread lock-free runs.
    fn work_model(self, class: InputClass) -> WorkModel;
    /// Run with a [`RingRecorder`] attached and return the result together
    /// with the recorded sync-event [`Trace`] (feed it to [`lower_trace`]).
    fn run_traced(self, class: InputClass, mode: SyncMode, threads: usize)
        -> (KernelResult, Trace);
}

impl BenchmarkExt for Benchmark {
    fn execute(self, class: InputClass, mode: SyncMode, threads: usize) -> KernelResult {
        let env = SyncEnv::new(mode, threads);
        Benchmark::run(self, class, &env)
    }

    fn compare(self, class: InputClass, threads: usize) -> Comparison {
        Comparison {
            splash3: self.execute(class, SyncMode::LockBased, threads),
            splash4: self.execute(class, SyncMode::LockFree, threads),
        }
    }

    fn work_model(self, class: InputClass) -> WorkModel {
        splash4_harness::work_model(self, class)
    }

    fn run_traced(
        self,
        class: InputClass,
        mode: SyncMode,
        threads: usize,
    ) -> (KernelResult, Trace) {
        record_trace(self, class, mode, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_runs_both_generations() {
        let cmp = Benchmark::Fft.compare(InputClass::Test, 2);
        assert!(cmp.validated());
        assert!(cmp.checksums_match(1e-9));
        assert!(cmp.ratio() > 0.0);
        // The generations really differ in their sync profile.
        assert!(cmp.splash3.profile.lock_acquires > 0);
        assert_eq!(cmp.splash4.profile.lock_acquires, 0);
    }

    #[test]
    fn run_traced_records_and_validates() {
        let (result, trace) = Benchmark::Lu.run_traced(InputClass::Test, SyncMode::LockFree, 2);
        assert!(result.validated);
        assert_eq!(trace.nthreads(), 2);
        assert!(!trace.is_empty());
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn work_model_feeds_the_simulator() {
        let work = Benchmark::Radix.work_model(InputClass::Test);
        let m = MachineParams::icelake_like();
        let r = simulate(&work, SyncMode::LockFree, 8, &m);
        assert!(r.total_ns > 0);
        assert_eq!(r.ncores, 8);
    }
}
