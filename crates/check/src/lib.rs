//! `splash4-check`: deterministic concurrency model checking and
//! linearizability testing for the suite's lock-free constructs.
//!
//! The Splash-4 constructs — Treiber stack, sense-reversing barrier,
//! `fetch_add` `GETSUB` counters, CAS-loop reductions, atomic pause flags
//! — are each a few dozen lines whose correctness hinges
//! on memory-ordering annotations no conventional test exercises: a weakened
//! `Acquire`, a missed sense flip, or a lost-update window only fails on
//! interleavings the OS scheduler may never produce. This crate makes those
//! interleavings first-class:
//!
//! * [`engine`] runs *shadow* re-implementations of the parmacs primitives
//!   under a cooperative scheduler with a preemption point at every atomic
//!   operation — the virtual threads pass one token among themselves, the
//!   thread at a schedule point picking its successor, with no scheduler
//!   thread in between — modelling acquire/release edges with vector clocks
//!   (plain data unordered by happens-before is a **data race**), blocking
//!   explicitly (**deadlock** and lost-wakeup detection), and recording an
//!   invocation/response history.
//! * [`shadow`] holds those shadow constructs; they read their orderings
//!   from the same [`splash4_parmacs::spec`] structs the real primitives
//!   consume, so the checker explores exactly the shipped state machines —
//!   and a one-field spec override is a mutation test.
//! * [`explore`] enumerates schedules: bounded-preemption DFS plus a seeded
//!   PCT-style random scheduler, with counterexample minimization and
//!   replay — a failing interleaving prints as a deterministic schedule
//!   string (`"0*3,1*2,0"`) that reruns the exact execution.
//! * [`linearize`] checks recorded histories against sequential specs
//!   (Wing & Gong search with memoization).
//! * [`suite`] packages one scenario per construct class into the
//!   `V1-check` experiment table, plus the mutant catalog.
//! * [`combining`] shadows the flat-combining core behind the third sync
//!   generation (`splash4x`), modelling its record arguments and results as
//!   plain data so any weakening of the publish/complete edges surfaces as
//!   a data race — the `C1-combining` experiment table.
//! * [`kernel`] lifts the same machinery to real kernel bodies at
//!   [`splash4_kernels::InputClass::Check`] scale — radix's fetch-add rank
//!   dispensing and water-nsquared's CAS-loop energy reduction — for the
//!   `V2-kernel-check` experiment.
//! * [`weakmem`] goes beyond sequentially consistent values: under
//!   [`engine::MemoryModel::Weak`] the engine also branches over the stale
//!   reads the C11 orderings admit on the atomics themselves, catching
//!   ordering downgrades (e.g. a `SeqCst → Acquire` store-buffering window)
//!   that cause no data race and are invisible to interleaving-only search —
//!   the `W1-weakmem` experiment table.
//!
//! ```
//! use splash4_check::{explore, Budget, treiber_scenario};
//! use splash4_parmacs::TreiberSpec;
//!
//! let scenario = treiber_scenario(TreiberSpec::SPLASH4);
//! let report = explore(&scenario, &Budget::small(1));
//! assert!(report.counterexample.is_none());
//! assert!(report.distinct_schedules >= 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod combining;
pub mod engine;
pub mod explore;
pub mod kernel;
pub mod linearize;
pub mod reclaim;
pub mod shadow;
pub mod suite;
pub mod weakmem;

pub use clock::VClock;
pub use combining::{
    check_combining, check_combining_mutants, combining_barrier_scenario,
    combining_getsub_scenario, combining_mutants, combining_reduce_f64_scenario,
    combining_reduce_scenario, ShadowCombinedBarrier, ShadowCombinedCounter, ShadowCombinedF64,
    ShadowCombinedReducer,
};
pub use engine::{Failure, MemoryModel, Peek, Sandbox, ThreadCtx};
pub use explore::{
    explore, replay, replay_under, Budget, CounterExample, ExploreReport, Replayed, Schedule,
};
pub use kernel::{
    check_kernel_mutants, check_kernels, cmap_chain_scenario, kernel_mutants, radix_rank_scenario,
    stream_ring_scenario, water_energy_scenario,
};
pub use linearize::{check_history, Op, OpRecord, RetVal, SpecModel};
pub use reclaim::{
    check_reclaim, check_reclaim_mutants, elimination_scenario, epoch_reclaim_scenario,
    hazard_reclaim_scenario, ms_queue_scenario, reclaim_mutants, ShadowEliminationStack,
    ShadowMsQueue,
};
pub use shadow::{
    ShadowAtomicF64, ShadowCounter, ShadowFlag, ShadowLock, ShadowLockedQueue, ShadowReduceU64,
    ShadowSenseBarrier, ShadowTreiberStack,
};
pub use suite::{
    check_mutants, check_suite, flag_scenario, getsub_scenario, locked_queue_scenario, mutants,
    reduce_f64_scenario, reduce_u64_scenario, sense_barrier_scenario, treiber_scenario,
    CheckBudget, ConstructReport, MutantReport, Verdict,
};
pub use weakmem::{
    barrier_handshake_scenario, check_weakmem, check_weakmem_mutants, cmap_pin_scan_scenario,
    mp_flag_scenario, sb_epoch_scenario, sb_hazard_scenario, weakmem_mutants, WeakMutantReport,
    WEAK_STALE_READS,
};
