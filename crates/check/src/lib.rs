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
//! * [`engine`] runs scenario threads under a cooperative scheduler with a
//!   preemption point at every atomic operation — the virtual threads pass
//!   one token among themselves, the thread at a schedule point picking its
//!   successor, with no scheduler thread in between — modelling
//!   acquire/release edges with vector clocks (plain data unordered by
//!   happens-before is a **data race**), blocking explicitly (**deadlock**
//!   and lost-wakeup detection), and recording an invocation/response
//!   history.
//! * [`model`] implements the `parmacs` [`Atomics`](splash4_parmacs::Atomics)
//!   facade for that engine, so the scenarios instantiate the **shipped**
//!   `TreiberStack`, `SenseBarrier`, `AtomicF64`, `Reducer`, `AtomicFlag`,
//!   `IndexCounter`, `CombiningCore` and `BoundedMpmcQueue`, the
//!   `splash4-reclaim` pools and reclaimers and the `cmap` kernel's
//!   `LockFreeMap`: the code that runs in
//!   production is the code explored. The facade's `alloc`/`free` are
//!   modelled too: a freed node stays quarantined until its execution ends,
//!   and touching it is a **use-after-free** failure, not one executed. A
//!   mutation test overrides one field of a [`splash4_parmacs::spec`] table
//!   or injects a [`Fault`] at one named word; neither edits a construct.
//! * [`shadow`] holds what cannot take that road: the Splash-3 sleeping
//!   lock (a `Mutex` + `Condvar`, no atomics to swap) and its queue. No
//!   other construct is re-enacted on raw engine cells; the two textbook
//!   litmus shapes [`weakmem`] keeps there are tests of the engine.
//! * [`mod@explore`] enumerates schedules: bounded-preemption DFS plus a seeded
//!   PCT-style random scheduler, with counterexample minimization and
//!   replay — a failing interleaving prints as a deterministic schedule
//!   string (`"0*3,1*2,0"`) that reruns the exact execution.
//! * [`linearize`] checks recorded histories against sequential specs
//!   (Wing & Gong search with memoization).
//! * [`suite`] packages one scenario per construct class into the
//!   `V1-check` experiment table, plus the mutant catalog.
//! * [`combining`] runs the same scenario bodies under
//!   `SyncMode::Combining`, over the shipped flat-combining core of the
//!   third sync generation (`splash4x`): its record arguments and results
//!   are plain data, so a weakened publish/complete edge surfaces as a data
//!   race — the `C1-combining` experiment table.
//! * [`kernel`] lifts the same machinery to real kernel bodies at
//!   [`splash4_kernels::InputClass::Check`] scale — radix's fetch-add rank
//!   dispensing, water-nsquared's CAS-loop energy reduction, one bucket of
//!   `cmap`'s Harris–Michael map and a stage queue of `stream` — for the
//!   `V2-kernel-check` experiment.
//! * [`reclaim`] runs the shipped `MsQueue` and `EliminationStack` over the
//!   shipped `EpochReclaimer` and `HazardReclaimer` — the `R1-reclaim`
//!   experiment table and its five mutants.
//! * [`weakmem`] goes beyond sequentially consistent values: under
//!   [`engine::MemoryModel::Weak`] the engine also branches over the stale
//!   reads the C11 orderings admit on the atomics themselves, catching
//!   ordering downgrades (e.g. a `SeqCst → Acquire` store-buffering window)
//!   that cause no data race and are invisible to interleaving-only search —
//!   the `W1-weakmem` experiment table, whose rows are the shipped flag,
//!   barrier, reclaimers (under a task pool) and map.
//!
//! ```
//! use splash4_check::{explore, Budget, treiber_scenario};
//! use splash4_parmacs::TreiberSpec;
//!
//! // The shipped `TreiberStack`, three threads: every explored schedule
//! // must be race-free and linearizable.
//! let scenario = treiber_scenario(TreiberSpec::SPLASH4);
//! let report = explore(&scenario, &Budget::small(1));
//! assert!(report.counterexample.is_none());
//! assert!(report.distinct_schedules >= 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod affinity;
pub mod clock;
pub mod combining;
pub mod engine;
pub mod explore;
pub mod kernel;
pub mod linearize;
pub mod model;
pub mod reclaim;
pub mod shadow;
pub mod suite;
pub mod weakmem;

pub use clock::VClock;
pub use combining::{check_combining, check_combining_mutants, combining_mutants};
pub use engine::{Failure, Fault, MemoryModel, Peek, Sandbox, ThreadCtx};
pub use explore::{
    explore, replay, replay_under, Budget, CounterExample, ExploreReport, Replayed, Schedule,
};
pub use kernel::{
    check_kernel_mutants, check_kernels, cmap_chain_scenario, kernel_mutants, radix_rank_scenario,
    stream_ring_scenario, water_energy_scenario,
};
pub use linearize::{check_history, Op, OpRecord, RetVal, SpecModel};
pub use model::Model;
pub use reclaim::{
    check_reclaim, check_reclaim_mutants, pool_scenario, reclaim_mutants, Scripts, Step,
};
pub use shadow::{ShadowLock, ShadowLockedQueue};
pub use suite::{
    check_mutants, check_suite, flag_scenario, getsub_scenario, locked_queue_scenario, mutants,
    mutated, reduce_f64_scenario, reduce_u64_scenario, sense_barrier_scenario, treiber_scenario,
    CheckBudget, ConstructReport, MutantCatalog, MutantReport, Verdict,
};
pub use weakmem::{
    barrier_payload_scenario, check_weakmem, check_weakmem_mutants, cmap_pin_scenario,
    flag_payload_scenario, mp_flag_scenario, sb_epoch_scenario, weakmem_mutants, WeakMutantReport,
    WEAK_STALE_READS,
};
