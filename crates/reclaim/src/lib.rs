//! Safe memory reclamation and dynamic lock-free task pools.
//!
//! The suite's original lock-free pool ([`TreiberStack`] in
//! `splash4-parmacs`) dodges the hard half of lock-free programming —
//! deciding when a popped node may be freed — by never freeing: popped
//! nodes go onto a retired list that lives until the structure is dropped.
//! That is sound and fast, but it holds peak memory at total-pushes. This
//! crate supplies the missing half:
//!
//! - two reclamation back-ends behind one [`Reclaimer`] trait —
//!   [`EpochReclaimer`] (per-thread epoch announcements, per-slot
//!   defer-destroy bags, advance-on-quiescence) and [`HazardReclaimer`]
//!   (per-thread hazard-pointer records, scan-and-free past a retire
//!   threshold);
//! - truly dynamic pools on top of them — a Michael-Scott FIFO
//!   ([`MsQueue`]) and an elimination-backoff Treiber stack
//!   ([`EliminationStack`]) with real node allocation and deferred
//!   destruction — wrapped as a [`TaskPool`] implementing the suite's
//!   [`TaskQueue`] trait, so producers are unbounded.
//!
//! The public API is entirely safe: `unsafe` is confined to the node
//! management inside this crate, every atomic reads its ordering from the
//! `splash4_parmacs::spec` tables ([`EpochSpec`], [`HazardSpec`],
//! [`MsQueueSpec`], [`EliminationSpec`]). Pools and reclaimers are generic
//! over the `parmacs` [`Atomics`] facade, [`Std`] by default, and free nodes
//! through its hook alone, so the `splash4-check` model checker explores
//! these types themselves (experiments `R1-reclaim` and, under weak-memory
//! value exploration, `W1-weakmem`): a free that comes too early under a
//! seeded fault or a weakened ordering is reported there as a
//! use-after-free.
//!
//! Retire/scan/free traffic is instrumented into the shared
//! [`SyncCounters`] block (`reclaim_retires`, `reclaim_scans`,
//! `reclaim_frees` in the profile, on the calling thread's striped lane)
//! and counted exactly in each slot's retire bag, under the lock the bag
//! takes anyway; a reclaimer folds its slots into [`ReclaimStats`] so tests
//! can assert drop-exactly-once and no-leak-at-quiescence per instance.
//! No pool keeps a length: nothing read one, and keeping it cost a
//! read-modify-write on a line every thread shares, per operation.
//!
//! [`TreiberStack`]: splash4_parmacs::TreiberStack
//! [`TaskQueue`]: splash4_parmacs::TaskQueue
//! [`EpochSpec`]: splash4_parmacs::EpochSpec
//! [`HazardSpec`]: splash4_parmacs::HazardSpec
//! [`MsQueueSpec`]: splash4_parmacs::MsQueueSpec
//! [`EliminationSpec`]: splash4_parmacs::EliminationSpec
//! [`SyncCounters`]: splash4_parmacs::SyncCounters
//! [`Atomics`]: splash4_parmacs::Atomics
//! [`Std`]: splash4_parmacs::atomics::Std

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub(crate) mod bag;
pub mod elimination;
pub mod epoch;
pub mod hazard;
pub mod ms_queue;
pub(crate) mod node;
pub mod pool;
pub(crate) mod registry;

pub use elimination::EliminationStack;
pub use epoch::EpochReclaimer;
pub use hazard::HazardReclaimer;
pub use ms_queue::MsQueue;
pub use pool::{PoolShape, ReclaimKind, TaskPool};

use std::fmt;
use std::sync::atomic::Ordering;

/// Exact per-reclaimer reclamation tallies (monotonic).
///
/// Unlike the shared [`SyncCounters`] fold —
/// which mixes every pool wired to one `SyncEnv` — these belong to a single
/// reclaimer instance, so tests can assert `frees == retires` at
/// quiescence for exactly the structure under test. They are folded from
/// per-slot counts, each slot's read under its bag's lock, so no reading
/// shows more frees than retires.
///
/// [`SyncCounters`]: splash4_parmacs::SyncCounters
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Nodes handed over for deferred destruction.
    pub retires: u64,
    /// Collection passes (epoch advance attempts / hazard sweeps).
    pub scans: u64,
    /// Retired nodes actually destroyed.
    pub frees: u64,
}

impl ReclaimStats {
    /// Retired nodes not yet destroyed.
    pub fn pending(&self) -> u64 {
        self.retires - self.frees
    }
}

/// A safe-memory-reclamation back-end.
///
/// The protocol a lock-free structure follows:
///
/// 1. [`enter`](Reclaimer::enter) before touching shared nodes; keep the
///    returned slot for the whole operation.
/// 2. For every pointer that will be dereferenced, call
///    [`protect`](Reclaimer::protect) and then **re-validate**, with the
///    ordering it returns, that the pointer is still reachable from the
///    structure before using it (the publish/re-check pair is what makes
///    hazard pointers sound; epoch reclamation ignores it).
/// 3. After unlinking a node, [`retire`](Reclaimer::retire) it instead of
///    freeing.
/// 4. [`exit`](Reclaimer::exit) when done; destruction happens on later
///    retire/exit calls once no protected reference can remain.
///
/// Implementations lease one record per OS thread (released automatically
/// at thread exit), so any number of threads may share one reclaimer up to
/// its slot capacity.
pub trait Reclaimer: Send + Sync + fmt::Debug {
    /// Begin a protected region on the calling thread; returns the
    /// thread's slot, to be passed to the other methods of this operation.
    fn enter(&self) -> usize;

    /// End the calling thread's protected region.
    fn exit(&self, slot: usize);

    /// Publish hazard record `hp` (0-based, at least two per slot) for
    /// `ptr`; a no-op under epoch reclamation. The caller must re-validate
    /// reachability afterwards, with a load of the returned ordering: the
    /// publication and that re-read are one half of a store-buffering
    /// handshake with the unlink and the scan.
    fn protect(&self, slot: usize, hp: usize, ptr: *mut u8) -> Ordering;

    /// Defer destruction of `ptr` until no protected reference can remain.
    ///
    /// # Safety
    /// `ptr` must be a live heap allocation matching `drop_fn`, already
    /// unlinked from the shared structure, and retired at most once.
    unsafe fn retire(&self, slot: usize, ptr: *mut u8, drop_fn: unsafe fn(*mut u8));

    /// Destroy every retired node the protocol can prove unreachable,
    /// advancing the protocol as far as it will go. At quiescence (no
    /// thread between [`enter`](Reclaimer::enter) and
    /// [`exit`](Reclaimer::exit)) this frees everything retired so far.
    fn flush(&self);

    /// Exact tallies for this reclaimer instance.
    fn reclaim_stats(&self) -> ReclaimStats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_parmacs::atomics::Std;
    use std::mem::size_of;

    #[test]
    fn std_pools_and_reclaimers_keep_their_pre_facade_size() {
        // Sizes at the commit before the facade (x86-64), less the padded
        // `len` line the queue and the stack (and so the pool) have since
        // dropped: `A = Std` adds no byte to a node, a pool or a reclaimer.
        assert_eq!(size_of::<node::Node<u64, Std>>(), 24);
        assert_eq!(size_of::<MsQueue<u64>>(), 384);
        assert_eq!(size_of::<EliminationStack<u64>>(), 384);
        assert_eq!(size_of::<EpochReclaimer>(), 32);
        assert_eq!(size_of::<HazardReclaimer>(), 32);
        assert_eq!(size_of::<TaskPool<u64>>(), 640);
    }
}
