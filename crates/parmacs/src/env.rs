//! [`SyncEnv`]: the factory kernels use to materialize synchronization
//! primitives according to the active [`SyncPolicy`].
//!
//! A kernel never names a concrete barrier or counter type; it asks the
//! environment, and the environment consults the policy per construct class.
//! That single indirection is the entire difference between running a kernel
//! "as Splash-3" and "as Splash-4" — the algorithmic code is byte-identical.

use crate::atomics::Std;
use crate::barrier::{Barrier, CondvarBarrier, SenseBarrier};
use crate::counter::IndexCounter;
use crate::flag::{AtomicFlag, CondvarFlag, PauseVar};
use crate::lock::SleepLock;
use crate::mode::{ConstructClass, SyncMode, SyncPolicy};
use crate::queue::{LockedQueue, TaskQueue, TreiberStack};
use crate::reduce::{ReduceF64, ReduceU64, Reducer};
use crate::stats::{SyncCounters, SyncProfile};
use crate::trace::TraceSink;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Synchronization environment: policy + team size + shared instrumentation.
#[derive(Clone)]
pub struct SyncEnv {
    policy: SyncPolicy,
    nthreads: usize,
    stats: Arc<SyncCounters>,
}

impl SyncEnv {
    /// Environment for `nthreads` threads under `policy` (a plain
    /// [`SyncMode`] converts into a uniform policy).
    ///
    /// # Panics
    /// Panics if `nthreads == 0`.
    pub fn new(policy: impl Into<SyncPolicy>, nthreads: usize) -> SyncEnv {
        assert!(nthreads > 0, "environment needs at least one thread");
        SyncEnv {
            policy: policy.into(),
            nthreads,
            // One padded instrumentation lane per team member, so every
            // thread's counter bumps stay on a thread-private cache line.
            stats: Arc::new(SyncCounters::with_lanes(nthreads)),
        }
    }

    /// Replace the instrumentation block with one striped across `lanes`
    /// padded lanes (the default is one lane per team member).
    ///
    /// `with_stat_lanes(1)` gives the single-shared-slot reference
    /// configuration — striping must be observationally transparent, so a
    /// kernel run under either configuration reports identical logical op
    /// counts (the `striped_stats` integration test pins this down).
    ///
    /// Builder-style; call before creating any primitive and before
    /// [`SyncEnv::with_trace`] (primitives capture the stats block at
    /// construction).
    pub fn with_stat_lanes(mut self, lanes: usize) -> SyncEnv {
        self.stats = Arc::new(SyncCounters::with_lanes(lanes));
        self
    }

    /// Attach a trace sink: every primitive created by this environment will
    /// emit [`crate::trace::TraceEvent`]s into it, attributed to the calling
    /// thread's team index. Builder-style so it composes with
    /// [`SyncEnv::new`]; attaching twice panics (the sink is write-once for
    /// the life of the environment).
    ///
    /// With no sink attached the per-op cost is one relaxed atomic load and a
    /// never-taken branch; instrumentation counters are unaffected either way.
    pub fn with_trace(self, sink: Arc<dyn TraceSink>) -> SyncEnv {
        assert!(
            self.stats.set_tracer(sink),
            "trace sink already attached to this environment"
        );
        self
    }

    /// The active policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Team size this environment was built for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The back-end selected for `class`.
    pub fn mode_for(&self, class: ConstructClass) -> SyncMode {
        self.policy.mode_for(class)
    }

    /// `true` if fine-grained data updates should go through locks
    /// (Splash-3) rather than atomic RMWs on the data itself (Splash-4).
    /// Kernels branch on this for their force-accumulation / cell-insertion
    /// inner loops.
    pub fn data_locks(&self) -> bool {
        self.mode_for(ConstructClass::DataLock) == SyncMode::LockBased
    }

    /// The shared instrumentation block.
    pub fn stats(&self) -> &Arc<SyncCounters> {
        &self.stats
    }

    /// Snapshot of all instrumentation counters.
    pub fn profile(&self) -> SyncProfile {
        self.stats.snapshot()
    }

    /// A phase barrier for the full team, per the barrier-class policy.
    pub fn barrier(&self) -> Arc<dyn Barrier> {
        self.barrier_for(self.nthreads)
    }

    /// A phase barrier for `n` participants (sub-team barriers).
    pub fn barrier_for(&self, n: usize) -> Arc<dyn Barrier> {
        let stats = Arc::clone(&self.stats);
        match self.mode_for(ConstructClass::Barrier) {
            SyncMode::LockBased => Arc::new(CondvarBarrier::<Std>::new(n, stats)),
            SyncMode::LockFree => Arc::new(SenseBarrier::<Std>::new(n, stats)),
            SyncMode::Combining => Arc::new(SenseBarrier::<Std>::combining(n, stats)),
        }
    }

    /// A fine-grained data lock (always a sleeping lock: Splash-4 removes
    /// these rather than replacing them — see [`SyncEnv::data_locks`]).
    pub fn lock(&self) -> SleepLock {
        SleepLock::new(Arc::clone(&self.stats))
    }

    /// An array of `n` data locks (the PARMACS `ALOCK` construct).
    pub fn lock_array(&self, n: usize) -> Vec<SleepLock> {
        (0..n).map(|_| self.lock()).collect()
    }

    /// A `GETSUB` work-index dispenser over `range`, per the counter-class
    /// policy. The `name` is documentation-only (mirrors the original code's
    /// named global counters).
    pub fn counter(&self, name: &str, range: Range<usize>) -> Arc<IndexCounter> {
        let _ = name;
        Arc::new(IndexCounter::new(
            self.mode_for(ConstructClass::Counter),
            range,
            self.nthreads,
            Arc::clone(&self.stats),
        ))
    }

    fn reducer(&self) -> Arc<Reducer> {
        Arc::new(Reducer::new(
            self.mode_for(ConstructClass::Reduction),
            self.nthreads,
            Arc::clone(&self.stats),
        ))
    }

    /// A global floating-point reduction cell, per the reduction-class policy.
    pub fn reducer_f64(&self) -> Arc<dyn ReduceF64> {
        self.reducer()
    }

    /// A global integer reduction cell, per the reduction-class policy.
    pub fn reducer_u64(&self) -> Arc<dyn ReduceU64> {
        self.reducer()
    }

    /// A pause/flag variable, per the flag-class policy. Combining mode
    /// reuses the atomic flag: a pause variable is a single store/load edge
    /// with nothing to batch, so flat combining would only add latency.
    pub fn flag(&self) -> Arc<dyn PauseVar> {
        match self.mode_for(ConstructClass::Flag) {
            SyncMode::LockBased => Arc::new(CondvarFlag::<Std>::new(Arc::clone(&self.stats))),
            SyncMode::LockFree | SyncMode::Combining => {
                Arc::new(AtomicFlag::<Std>::new(Arc::clone(&self.stats)))
            }
        }
    }

    /// An array of `n` pause variables (per-column done flags, etc.).
    pub fn flag_array(&self, n: usize) -> Vec<Arc<dyn PauseVar>> {
        (0..n).map(|_| self.flag()).collect()
    }

    /// A dynamic MPMC task pool, per the queue-class policy. Combining mode
    /// reuses the Treiber stack: combining targets the *static* contended
    /// constructs (counters, reductions, barrier arrival); dynamic push/pop
    /// traffic keeps the lock-free structure.
    pub fn task_queue<T: Send + 'static>(&self) -> Arc<dyn TaskQueue<T>> {
        match self.mode_for(ConstructClass::Queue) {
            SyncMode::LockBased => Arc::new(LockedQueue::<T, Std>::new(Arc::clone(&self.stats))),
            SyncMode::LockFree | SyncMode::Combining => {
                Arc::new(TreiberStack::<T>::new(Arc::clone(&self.stats)))
            }
        }
    }
}

impl fmt::Debug for SyncEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyncEnv")
            .field("policy", &self.policy)
            .field("nthreads", &self.nthreads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_policy_mixes_backends() {
        let policy = SyncPolicy::uniform(SyncMode::LockBased)
            .with(ConstructClass::Counter, SyncMode::LockFree);
        let env = SyncEnv::new(policy, 1);
        let c = env.counter("x", 0..3);
        while c.next().is_some() {}
        let p = env.profile();
        assert_eq!(p.lock_acquires, 0);
        assert_eq!(p.atomic_rmws, 4);
        // Reductions still lock-based under this policy.
        env.reducer_f64().add(1.0);
        assert_eq!(env.profile().lock_acquires, 1);
    }

    #[test]
    fn data_locks_reflects_policy() {
        assert!(SyncEnv::new(SyncMode::LockBased, 1).data_locks());
        assert!(!SyncEnv::new(SyncMode::LockFree, 1).data_locks());
    }
}
