//! PARMACS-style parallel runtime with interchangeable synchronization back-ends.
//!
//! The original Splash benchmarks are written against the ANL/PARMACS macro set
//! (`CREATE`, `BARRIER`, `LOCK`/`UNLOCK`, `GETSUB`, `PAUSE`/`SETPAUSE`, …).
//! Splash-3 expands those macros to pthreads mutexes, condvars and barriers
//! (one futex word each); **Splash-4's contribution is to re-expand them to
//! C11 atomic (lock-free) constructs** without touching the algorithms.
//!
//! This crate is that macro layer as a library. Every synchronization class the
//! suite uses has interchangeable back-ends selected by [`SyncMode`]
//! (or per-construct by [`SyncPolicy`] for ablation studies). A third
//! generation, `splash4x` ([`SyncMode::Combining`]), batches the contended
//! constructs through a flat-combining/CC-Synch core instead of CAS-storming:
//!
//! | construct | lock-based (≙ Splash-3) | lock-free (≙ Splash-4) | combining (splash4x) |
//! |---|---|---|---|
//! | barrier | futex generation barrier (arrival count + generation word, wake all) | sense-reversing atomic barrier | same barrier, combined arrival |
//! | lock | three-state futex word, a wake only when a sleeper marked it | — (locks are what gets removed) | — |
//! | `GETSUB` index counter | lock-protected counter | `fetch_add` | combined batch grab |
//! | f64/u64 reduction | lock-protected accumulator | CAS-loop on atomic word | combined batch fold |
//! | pause/flag variable | futex word, a wake only when a waiter slept | atomic flag, acquire/release | atomic flag (nothing to batch) |
//! | task queue | lock + `VecDeque` | Treiber stack | Treiber stack (nothing static to batch) |
//!
//! Each mode-dependent construct is one concrete type — [`IndexCounter`],
//! [`reduce::Reducer`], [`SenseBarrier`] — whose only mode-specific step is
//! a private strategy, and [`SyncEnv`] is the only place a mode is turned
//! into a primitive.
//!
//! All primitives are instrumented: dynamic operation counts and (for the
//! sleep-prone classes) nanoseconds are recorded into a shared
//! [`stats::SyncCounters`], which the characterization harness turns into the
//! paper's sync-op tables and time-breakdown figures.
//!
//! # Example
//!
//! ```
//! use splash4_parmacs::{SyncMode, SyncEnv, Team};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let env = SyncEnv::new(SyncMode::LockFree, 4);
//! let barrier = env.barrier();
//! let counter = env.counter("work", 0..100);
//! let sum = AtomicU64::new(0);
//!
//! Team::new(4).run(|ctx| {
//!     // Distribute 100 work items dynamically, GETSUB-style.
//!     while let Some(i) = counter.next() {
//!         sum.fetch_add(i as u64, Ordering::Relaxed);
//!     }
//!     barrier.wait(ctx.tid);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), (0..100u64).sum());
//! let profile = env.profile();
//! assert_eq!(profile.getsub_calls, 104); // 100 grabs + 4 exhausted polls
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod atomics;
pub mod backoff;
pub mod barrier;
pub mod combining;
pub mod counter;
pub mod env;
pub mod flag;
pub mod json;
pub mod lock;
pub mod mode;
pub mod pad;
pub mod queue;
pub mod reduce;
pub mod rng;
mod serial;
pub mod spec;
pub mod stats;
pub mod team;
pub mod trace;
pub mod workload;

pub use atomics::{Atomics, Std};
pub use backoff::Backoff;
pub use barrier::{Barrier, CondvarBarrier, SenseBarrier};
pub use combining::CombiningCore;
pub use counter::IndexCounter;
pub use env::SyncEnv;
pub use flag::{AtomicFlag, CondvarFlag, PauseVar};
pub use json::{Json, ToJson};
pub use lock::SleepLock;
pub use mode::{ConstructClass, SyncMode, SyncPolicy};
pub use pad::CachePadded;
pub use queue::{BoundedMpmcQueue, LockedQueue, StealPool, TaskQueue, TreiberStack};
pub use reduce::{AtomicF64, ReduceF64, ReduceU64, Reducer};
pub use rng::SmallRng;
pub use spec::{
    CMapSpec, CasF64Spec, CombiningSpec, EliminationSpec, EpochSpec, FlagSpec, HazardSpec,
    MsQueueSpec, RingSpec, SenseBarrierSpec, SumU64Spec, TicketSpec, TreiberSpec,
};
pub use stats::{Counter, SyncCounters, SyncProfile};
pub use team::{chunk_range, current_tid, Team, TeamCtx};
pub use trace::{TraceEvent, TraceSink};
pub use workload::{Dispatch, PhaseSpec, WorkModel};
