//! Dynamic task pool: the suite-facing seam over the reclaiming structures.
//!
//! [`TaskPool`] implements the suite's
//! [`TaskQueue`] trait, so the task-parallel
//! kernels can swap their fixed-capacity index pools for a truly dynamic
//! pool by constructing one of these — producers are unbounded and popped
//! task nodes are recycled through a [`Reclaimer`] instead of accumulating
//! on a retired list.

use crate::elimination::EliminationStack;
use crate::epoch::EpochReclaimer;
use crate::hazard::HazardReclaimer;
use crate::ms_queue::MsQueue;
use crate::{ReclaimStats, Reclaimer};
use splash4_parmacs::atomics::{Atomics, Std};
use splash4_parmacs::{SyncCounters, TaskQueue};
use std::fmt;
use std::sync::Arc;

/// Which reclamation back-end a [`TaskPool`] recycles its nodes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimKind {
    /// Epoch-based reclamation: near-zero per-operation overhead, but one
    /// stalled in-region thread delays every free.
    Epoch,
    /// Hazard pointers: a store+barrier per pointer dereference, but the
    /// unreclaimed backlog is bounded regardless of stalled threads.
    Hazard,
}

/// Task ordering discipline of a [`TaskPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolShape {
    /// FIFO via the Michael-Scott queue — fair, scan-friendly order.
    Fifo,
    /// LIFO via the elimination-backoff stack — locality-friendly order,
    /// with push/pop pairs eliminating under contention.
    Lifo,
}

enum Backend<T: Send, A: Atomics> {
    Fifo(MsQueue<T, A>),
    Lifo(EliminationStack<T, A>),
}

/// A dynamic, unbounded task pool with safe memory reclamation.
pub struct TaskPool<T: Send, A: Atomics = Std> {
    backend: Backend<T, A>,
    reclaimer: Arc<dyn Reclaimer>,
}

impl<T: Send> TaskPool<T> {
    /// Pool of the given `shape` recycling nodes through `kind`, sized for
    /// `threads` concurrent workers, reporting into `stats`.
    pub fn new(
        shape: PoolShape,
        kind: ReclaimKind,
        threads: usize,
        stats: Arc<SyncCounters>,
    ) -> TaskPool<T> {
        TaskPool::new_in(shape, kind, threads, stats)
    }
}

impl<T: Send, A: Atomics> TaskPool<T, A> {
    /// [`TaskPool::new`] over any [`Atomics`].
    pub fn new_in(
        shape: PoolShape,
        kind: ReclaimKind,
        threads: usize,
        stats: Arc<SyncCounters>,
    ) -> TaskPool<T, A> {
        let reclaimer: Arc<dyn Reclaimer> = match kind {
            ReclaimKind::Epoch => Arc::new(EpochReclaimer::<A>::new_in(threads, stats.clone())),
            ReclaimKind::Hazard => Arc::new(HazardReclaimer::<A>::new_in(threads, stats.clone())),
        };
        let backend = match shape {
            PoolShape::Fifo => Backend::Fifo(MsQueue::new(reclaimer.clone(), stats)),
            PoolShape::Lifo => Backend::Lifo(EliminationStack::new(reclaimer.clone(), stats)),
        };
        TaskPool { backend, reclaimer }
    }

    /// Add a task; never blocks, never fails (the pool is unbounded).
    pub fn push(&self, task: T) {
        match &self.backend {
            Backend::Fifo(q) => q.push(task),
            Backend::Lifo(s) => s.push(task),
        }
    }

    /// Take a task; `None` when the pool is observed empty.
    pub fn pop(&self) -> Option<T> {
        match &self.backend {
            Backend::Fifo(q) => q.pop(),
            Backend::Lifo(s) => s.pop(),
        }
    }

    /// Approximate number of pending tasks (exact at quiescence).
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Fifo(q) => q.len(),
            Backend::Lifo(s) => s.len(),
        }
    }

    /// Whether the pool is observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Destroy every retired node the reclamation protocol can prove
    /// unreachable (everything, when callers are quiescent).
    pub fn flush(&self) {
        self.reclaimer.flush();
    }

    /// Exact reclamation tallies for this pool's reclaimer.
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.reclaimer.reclaim_stats()
    }
}

impl<T: Send, A: Atomics> TaskQueue<T> for TaskPool<T, A> {
    fn push(&self, task: T) {
        TaskPool::push(self, task)
    }

    fn pop(&self) -> Option<T> {
        TaskPool::pop(self)
    }

    fn len(&self) -> usize {
        TaskPool::len(self)
    }
}

impl<T: Send, A: Atomics> fmt::Debug for TaskPool<T, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = match &self.backend {
            Backend::Fifo(_) => PoolShape::Fifo,
            Backend::Lifo(_) => PoolShape::Lifo,
        };
        f.debug_struct("TaskPool")
            .field("shape", &shape)
            .field("len", &self.len())
            .field("reclaimer", &self.reclaimer)
            .finish()
    }
}
