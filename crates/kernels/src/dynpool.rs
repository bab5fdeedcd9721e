//! Dynamic task pools with safe memory reclamation for the task-parallel
//! kernels.
//!
//! [`SyncEnv::task_queue`]'s Treiber stack never frees a popped node before
//! the stack is dropped. These helpers swap in `splash4-reclaim`'s
//! [`TaskPool`] on the lock-free path — a Michael-Scott queue or elimination-backoff Treiber
//! stack whose nodes are allocated per push and recycled through an epoch
//! or hazard-pointer [`Reclaimer`](splash4_reclaim::Reclaimer) — so
//! producers are unbounded while the lock-based path keeps the policy's
//! `LockedQueue` (and its `atomic_rmws == 0` profile) untouched.
//!
//! This seam lives in the kernels crate, not `parmacs`: `splash4-reclaim`
//! depends on `parmacs` for its ordering specs and counters, so the
//! dependency can only point this way.

use splash4_parmacs::{ConstructClass, StealPool, SyncEnv, SyncMode, TaskQueue};
use splash4_reclaim::{PoolShape, ReclaimKind, TaskPool};
use std::sync::Arc;

/// A dynamic MPMC task pool per the queue-class policy: the policy's
/// `LockedQueue` in lock-based mode, a reclaiming [`TaskPool`] of the given
/// `shape`/`kind` in lock-free mode.
///
/// The reclaimer is sized for the team plus the constructing thread, which
/// may seed tasks before the team exists.
pub fn dynamic_task_queue<T: Send + 'static>(
    env: &SyncEnv,
    shape: PoolShape,
    kind: ReclaimKind,
) -> Arc<dyn TaskQueue<T>> {
    match env.mode_for(ConstructClass::Queue) {
        SyncMode::LockBased => env.task_queue(),
        // Combining batches the static contended constructs (counters,
        // reductions, barriers); dynamic queues keep the lock-free
        // reclaiming pool, same as `SyncEnv::task_queue`.
        SyncMode::LockFree | SyncMode::Combining => Arc::new(TaskPool::<T>::new(
            shape,
            kind,
            env.nthreads() + 1,
            Arc::clone(env.stats()),
        )),
    }
}

/// A work-stealing pool with one dynamic queue per team thread (the
/// distributed-queue structure of radiosity), per the queue-class policy.
pub fn dynamic_steal_pool<T: Send + 'static>(
    env: &SyncEnv,
    shape: PoolShape,
    kind: ReclaimKind,
) -> StealPool<T> {
    StealPool::new(
        (0..env.nthreads())
            .map(|_| dynamic_task_queue(env, shape, kind))
            .collect(),
    )
}

/// A work pool pre-seeded with `tasks` (the static tile lists of raytrace
/// and volrend), FIFO so tiles drain in scan order; the pool stays live
/// for mid-run producers.
pub fn seeded_task_pool<T: Send + 'static>(
    env: &SyncEnv,
    tasks: Vec<T>,
    kind: ReclaimKind,
) -> Arc<dyn TaskQueue<T>> {
    let pool = dynamic_task_queue(env, PoolShape::Fifo, kind);
    for t in tasks {
        pool.push(t);
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_parmacs::SyncPolicy;

    fn env(mode: SyncMode, threads: usize) -> SyncEnv {
        SyncEnv::new(SyncPolicy::uniform(mode), threads)
    }

    #[test]
    fn lock_based_pool_never_touches_atomics() {
        let e = env(SyncMode::LockBased, 4);
        let q = dynamic_task_queue::<usize>(&e, PoolShape::Lifo, ReclaimKind::Epoch);
        q.push(7);
        assert_eq!(q.pop(), Some(7));
        let p = e.profile();
        assert_eq!(p.atomic_rmws, 0);
        assert!(p.lock_acquires > 0);
    }

    #[test]
    fn lock_free_pool_is_lock_free_and_reclaims() {
        for kind in [ReclaimKind::Epoch, ReclaimKind::Hazard] {
            let e = env(SyncMode::LockFree, 4);
            let q = dynamic_task_queue::<usize>(&e, PoolShape::Fifo, kind);
            for i in 0..64 {
                q.push(i);
            }
            for i in 0..64 {
                assert_eq!(q.pop(), Some(i), "FIFO order under {kind:?}");
            }
            assert_eq!(q.pop(), None);
            let p = e.profile();
            assert_eq!(p.lock_acquires, 0);
            assert!(p.atomic_rmws > 0);
            assert!(p.reclaim_retires >= 64);
        }
    }

    #[test]
    fn seeded_pool_drains_all_tasks_once() {
        for mode in [SyncMode::LockBased, SyncMode::LockFree] {
            let e = env(mode, 2);
            let pool = seeded_task_pool(&e, (0..30u32).collect(), ReclaimKind::Hazard);
            let mut seen = Vec::new();
            while let Some(t) = pool.pop() {
                seen.push(t);
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..30).collect::<Vec<_>>(), "mode {mode}");
        }
    }

    #[test]
    fn steal_pool_spreads_over_dynamic_queues() {
        let e = env(SyncMode::LockFree, 3);
        let pool = dynamic_steal_pool::<u32>(&e, PoolShape::Lifo, ReclaimKind::Epoch);
        for i in 0..12 {
            pool.push(i as usize % 3, i);
        }
        // Worker 0 drains everything: own queue first, then steals.
        let mut got = 0;
        while pool.pop(0).is_some() {
            got += 1;
        }
        assert_eq!(got, 12);
        for w in 0..3 {
            assert_eq!(pool.pop(w), None, "worker {w} finds every queue drained");
        }
    }
}
