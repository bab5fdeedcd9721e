//! Synchronization instrumentation.
//!
//! Every primitive handed out by a [`SyncEnv`](crate::env::SyncEnv) shares one
//! [`SyncCounters`] block and bumps the relevant counters on each dynamic
//! operation. Counting uses relaxed atomic increments (a few nanoseconds);
//! wall-clock time is recorded only for the sleep-prone classes (locks,
//! barriers, flags, queue blocking) where the cost of two `Instant::now`
//! calls is negligible relative to the operation itself.
//!
//! # Striping
//!
//! The counters are *striped*: the block holds one cache-line-padded lane of
//! counters per team member (see [`CachePadded`]),
//! and each increment lands in the lane indexed by the calling thread's
//! [`current_tid`]. A shared flat block would make every sync op from every
//! thread RMW the *same* cache lines — exactly the contended-line ping-pong
//! (60–130 ns per access on current server parts) that the instrumentation
//! is supposed to measure, not cause. With striping, `bump`/`add`/`timed`
//! are uncontended relaxed increments on a thread-private line, and
//! [`SyncCounters::snapshot`] folds the lanes on read. Logical counts are
//! striping-invariant: the fold of N lanes equals what a single shared slot
//! would have accumulated.
//!
//! Threads beyond the registered lane count (oversubscription, or threads
//! outside any [`Team`](crate::Team)) wrap onto existing lanes — counts stay
//! exact, only the no-sharing guarantee degrades.
//!
//! The harness snapshots the counters into a serializable [`SyncProfile`]
//! which feeds the paper's `T2-changes`, `T3-syncops` and `F5-sync-breakdown`
//! artifacts, and parameterizes the timing-simulator workload models.

use crate::json::{Json, ToJson};
use crate::pad::CachePadded;
use crate::team::current_tid;
use crate::trace::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Names one instrumentation counter inside a [`SyncCounters`] block.
///
/// The discriminant is the counter's slot index within a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Lock acquisitions (sleeping locks only; spin locks count here too).
    LockAcquires = 0,
    /// Lock acquisitions that found the lock held (slow path taken).
    LockContended = 1,
    /// Nanoseconds spent acquiring locks (slow path only).
    LockWaitNs = 2,
    /// Barrier episodes *per thread* (N threads crossing once = N).
    BarrierWaits = 3,
    /// Nanoseconds spent waiting at barriers, summed over threads.
    BarrierWaitNs = 4,
    /// Atomic read-modify-write operations issued by lock-free back-ends
    /// (fetch_add, CAS attempts, exchanges). CAS retries count individually.
    AtomicRmws = 5,
    /// `GETSUB`-style dynamic index grabs (both back-ends).
    GetsubCalls = 6,
    /// Reduction contributions (both back-ends).
    ReduceOps = 7,
    /// Pause/flag waits that actually blocked or spun.
    FlagWaits = 8,
    /// Nanoseconds spent waiting on flags.
    FlagWaitNs = 9,
    /// Task-queue operations (push + pop attempts, both back-ends).
    QueueOps = 10,
    /// CAS failures (retries) observed in lock-free loops; a proxy for
    /// cache-line contention intensity.
    CasFailures = 11,
    /// Result-cache lookups served without recomputation (includes lookups
    /// coalesced onto an in-flight computation of the same key).
    CacheHits = 12,
    /// Result-cache lookups that triggered a fresh computation.
    CacheMisses = 13,
    /// Result-cache entries dropped by the LRU bound.
    CacheEvictions = 14,
    /// Nodes handed to a reclaimer for deferred destruction.
    ReclaimRetires = 15,
    /// Reclamation scans (epoch advance attempts / hazard sweeps).
    ReclaimScans = 16,
    /// Retired nodes actually freed by a reclaimer.
    ReclaimFrees = 17,
    /// Operations routed through a flat-combining core (each request a
    /// thread publishes, whether self-served or applied by a combiner).
    CombineOps = 18,
    /// Combiner lock acquisitions: each counts one batch drain. The mean
    /// batch size is `combine_ops / combine_batches`.
    CombineBatches = 19,
}

/// Number of distinct counters per lane.
pub const NUM_COUNTERS: usize = 20;

/// One striping lane: all twenty counters for one thread, padded so
/// adjacent lanes never share a cache line. 20 × 8 = 160 bytes of payload
/// spans two 128-byte padding granules; the padding rounds the lane up so
/// adjacent lanes still start on their own aligned slot.
type Lane = CachePadded<[AtomicU64; NUM_COUNTERS]>;

fn zero_lane() -> Lane {
    CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0)))
}

/// Shared instrumentation block. Cheap to bump from many threads; all
/// counters are monotonically increasing dynamic-operation tallies, striped
/// across per-thread lanes (see module docs) and folded on
/// [`snapshot`](SyncCounters::snapshot).
///
/// The block also carries the (optional) trace sink and the barrier-id
/// allocator, so every primitive that already holds an
/// `Arc<SyncCounters>` can emit [`TraceEvent`]s without signature changes.
/// Tracing never touches the counters themselves: `T3-syncops` counts are
/// identical with and without a sink attached.
#[derive(Debug)]
pub struct SyncCounters {
    /// Per-thread counter lanes; indexed by `current_tid() % lanes.len()`.
    lanes: Box<[Lane]>,
    /// Attached trace sink, if any (see
    /// [`SyncEnv::with_trace`](crate::SyncEnv::with_trace)). Write-once.
    tracer: OnceLock<Arc<dyn TraceSink>>,
    /// Allocator for runtime-wide barrier trace ids (allocation order).
    next_barrier_id: AtomicU64,
}

impl Default for SyncCounters {
    fn default() -> SyncCounters {
        SyncCounters::new()
    }
}

impl SyncCounters {
    /// Lanes allocated by [`SyncCounters::new`] when no team size is known.
    /// Covers the thread counts used by direct-construction tests; larger
    /// teams should size explicitly via [`SyncCounters::with_lanes`].
    pub const DEFAULT_LANES: usize = 8;

    /// Fresh, zeroed counter block with [`Self::DEFAULT_LANES`] lanes.
    pub fn new() -> SyncCounters {
        SyncCounters::with_lanes(Self::DEFAULT_LANES)
    }

    /// Fresh, zeroed counter block with one padded lane per expected team
    /// member. `lanes` is clamped to at least 1; a 1-lane block degenerates
    /// to the classic single shared slot (useful as a striping-off
    /// reference).
    pub fn with_lanes(lanes: usize) -> SyncCounters {
        let lanes = lanes.max(1);
        SyncCounters {
            lanes: (0..lanes).map(|_| zero_lane()).collect(),
            tracer: OnceLock::new(),
            next_barrier_id: AtomicU64::new(0),
        }
    }

    /// Number of striping lanes in this block.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The calling thread's lane.
    #[inline]
    fn lane(&self) -> &[AtomicU64; NUM_COUNTERS] {
        // `current_tid()` is the team index set by `Team::run`, 0 outside a
        // team; the modulo wraps oversubscribed tids onto existing lanes.
        &self.lanes[current_tid() % self.lanes.len()]
    }

    /// Increment `counter` by one (relaxed, thread-private lane).
    #[inline]
    pub fn bump(&self, counter: Counter) {
        self.lane()[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Increment `counter` by `n` (relaxed, thread-private lane).
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.lane()[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Time `f`, adding the elapsed nanoseconds to `counter`.
    #[inline]
    pub fn timed<T>(&self, counter: Counter, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(counter, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Fold one counter across all lanes.
    fn fold(&self, counter: Counter) -> u64 {
        self.lanes
            .iter()
            .map(|lane| lane[counter as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Attach `sink`; every subsequent sync op on primitives sharing this
    /// block emits trace events into it. Returns `false` if a sink was
    /// already attached (the original stays).
    pub fn set_tracer(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.tracer.set(sink).is_ok()
    }

    /// `true` once a trace sink is attached.
    pub fn tracing(&self) -> bool {
        self.tracer.get().is_some()
    }

    /// Emit `event` to the attached sink, if any. With no sink this is one
    /// load-and-branch on the hot path; counters are never affected.
    #[inline]
    pub fn trace(&self, event: TraceEvent) {
        if let Some(sink) = self.tracer.get() {
            sink.record(current_tid(), event);
        }
    }

    /// Allocate the next barrier trace id (called by barrier constructors).
    pub fn alloc_barrier_id(&self) -> u32 {
        self.next_barrier_id.fetch_add(1, Ordering::Relaxed) as u32
    }

    /// Immutable snapshot of all counters, folded across lanes.
    pub fn snapshot(&self) -> SyncProfile {
        SyncProfile {
            lock_acquires: self.fold(Counter::LockAcquires),
            lock_contended: self.fold(Counter::LockContended),
            lock_wait_ns: self.fold(Counter::LockWaitNs),
            barrier_waits: self.fold(Counter::BarrierWaits),
            barrier_wait_ns: self.fold(Counter::BarrierWaitNs),
            atomic_rmws: self.fold(Counter::AtomicRmws),
            getsub_calls: self.fold(Counter::GetsubCalls),
            reduce_ops: self.fold(Counter::ReduceOps),
            flag_waits: self.fold(Counter::FlagWaits),
            flag_wait_ns: self.fold(Counter::FlagWaitNs),
            queue_ops: self.fold(Counter::QueueOps),
            cas_failures: self.fold(Counter::CasFailures),
            cache_hits: self.fold(Counter::CacheHits),
            cache_misses: self.fold(Counter::CacheMisses),
            cache_evictions: self.fold(Counter::CacheEvictions),
            reclaim_retires: self.fold(Counter::ReclaimRetires),
            reclaim_scans: self.fold(Counter::ReclaimScans),
            reclaim_frees: self.fold(Counter::ReclaimFrees),
            combine_ops: self.fold(Counter::CombineOps),
            combine_batches: self.fold(Counter::CombineBatches),
        }
    }
}

/// Serializable snapshot of a [`SyncCounters`] block.
///
/// Field meanings match the counter docs. Profiles of independent runs can be
/// combined with [`SyncProfile::merged`] and compared with
/// [`SyncProfile::delta`] (e.g. modern minus baseline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct SyncProfile {
    pub lock_acquires: u64,
    pub lock_contended: u64,
    pub lock_wait_ns: u64,
    pub barrier_waits: u64,
    pub barrier_wait_ns: u64,
    pub atomic_rmws: u64,
    pub getsub_calls: u64,
    pub reduce_ops: u64,
    pub flag_waits: u64,
    pub flag_wait_ns: u64,
    pub queue_ops: u64,
    pub cas_failures: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub reclaim_retires: u64,
    pub reclaim_scans: u64,
    pub reclaim_frees: u64,
    pub combine_ops: u64,
    pub combine_batches: u64,
}

impl SyncProfile {
    /// Element-wise sum of two profiles.
    #[must_use]
    pub fn merged(&self, other: &SyncProfile) -> SyncProfile {
        SyncProfile {
            lock_acquires: self.lock_acquires + other.lock_acquires,
            lock_contended: self.lock_contended + other.lock_contended,
            lock_wait_ns: self.lock_wait_ns + other.lock_wait_ns,
            barrier_waits: self.barrier_waits + other.barrier_waits,
            barrier_wait_ns: self.barrier_wait_ns + other.barrier_wait_ns,
            atomic_rmws: self.atomic_rmws + other.atomic_rmws,
            getsub_calls: self.getsub_calls + other.getsub_calls,
            reduce_ops: self.reduce_ops + other.reduce_ops,
            flag_waits: self.flag_waits + other.flag_waits,
            flag_wait_ns: self.flag_wait_ns + other.flag_wait_ns,
            queue_ops: self.queue_ops + other.queue_ops,
            cas_failures: self.cas_failures + other.cas_failures,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            reclaim_retires: self.reclaim_retires + other.reclaim_retires,
            reclaim_scans: self.reclaim_scans + other.reclaim_scans,
            reclaim_frees: self.reclaim_frees + other.reclaim_frees,
            combine_ops: self.combine_ops + other.combine_ops,
            combine_batches: self.combine_batches + other.combine_batches,
        }
    }

    /// Element-wise saturating difference (`self - other`).
    #[must_use]
    pub fn delta(&self, other: &SyncProfile) -> SyncProfile {
        SyncProfile {
            lock_acquires: self.lock_acquires.saturating_sub(other.lock_acquires),
            lock_contended: self.lock_contended.saturating_sub(other.lock_contended),
            lock_wait_ns: self.lock_wait_ns.saturating_sub(other.lock_wait_ns),
            barrier_waits: self.barrier_waits.saturating_sub(other.barrier_waits),
            barrier_wait_ns: self.barrier_wait_ns.saturating_sub(other.barrier_wait_ns),
            atomic_rmws: self.atomic_rmws.saturating_sub(other.atomic_rmws),
            getsub_calls: self.getsub_calls.saturating_sub(other.getsub_calls),
            reduce_ops: self.reduce_ops.saturating_sub(other.reduce_ops),
            flag_waits: self.flag_waits.saturating_sub(other.flag_waits),
            flag_wait_ns: self.flag_wait_ns.saturating_sub(other.flag_wait_ns),
            queue_ops: self.queue_ops.saturating_sub(other.queue_ops),
            cas_failures: self.cas_failures.saturating_sub(other.cas_failures),
            cache_hits: self.cache_hits.saturating_sub(other.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(other.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(other.cache_evictions),
            reclaim_retires: self.reclaim_retires.saturating_sub(other.reclaim_retires),
            reclaim_scans: self.reclaim_scans.saturating_sub(other.reclaim_scans),
            reclaim_frees: self.reclaim_frees.saturating_sub(other.reclaim_frees),
            combine_ops: self.combine_ops.saturating_sub(other.combine_ops),
            combine_batches: self.combine_batches.saturating_sub(other.combine_batches),
        }
    }

    /// Total dynamic synchronization operations (all classes, excluding the
    /// nanosecond fields, the cache-outcome tallies, the reclamation
    /// bookkeeping, and the combining-mechanism tallies — a cache hit or a
    /// deferred free is a runtime-service event, not an algorithmic sync op,
    /// so the paper's `T3-syncops` totals are unaffected by serving or by
    /// which reclaimer backs a pool; likewise every combining request is
    /// already counted under its logical class (getsub/reduce/barrier/queue),
    /// so `combine_ops`/`combine_batches` describe the *mechanism* and
    /// counting them here would double-book splash4x runs).
    pub fn total_ops(&self) -> u64 {
        self.lock_acquires
            + self.barrier_waits
            + self.atomic_rmws
            + self.getsub_calls
            + self.reduce_ops
            + self.flag_waits
            + self.queue_ops
    }

    /// Total nanoseconds attributed to blocking synchronization.
    pub fn total_wait_ns(&self) -> u64 {
        self.lock_wait_ns + self.barrier_wait_ns + self.flag_wait_ns
    }
}

impl ToJson for SyncProfile {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "lock_acquires".to_string(),
                Json::Num(self.lock_acquires as f64),
            ),
            (
                "lock_contended".to_string(),
                Json::Num(self.lock_contended as f64),
            ),
            (
                "lock_wait_ns".to_string(),
                Json::Num(self.lock_wait_ns as f64),
            ),
            (
                "barrier_waits".to_string(),
                Json::Num(self.barrier_waits as f64),
            ),
            (
                "barrier_wait_ns".to_string(),
                Json::Num(self.barrier_wait_ns as f64),
            ),
            (
                "atomic_rmws".to_string(),
                Json::Num(self.atomic_rmws as f64),
            ),
            (
                "getsub_calls".to_string(),
                Json::Num(self.getsub_calls as f64),
            ),
            ("reduce_ops".to_string(), Json::Num(self.reduce_ops as f64)),
            ("flag_waits".to_string(), Json::Num(self.flag_waits as f64)),
            (
                "flag_wait_ns".to_string(),
                Json::Num(self.flag_wait_ns as f64),
            ),
            ("queue_ops".to_string(), Json::Num(self.queue_ops as f64)),
            (
                "cas_failures".to_string(),
                Json::Num(self.cas_failures as f64),
            ),
            ("cache_hits".to_string(), Json::Num(self.cache_hits as f64)),
            (
                "cache_misses".to_string(),
                Json::Num(self.cache_misses as f64),
            ),
            (
                "cache_evictions".to_string(),
                Json::Num(self.cache_evictions as f64),
            ),
            (
                "reclaim_retires".to_string(),
                Json::Num(self.reclaim_retires as f64),
            ),
            (
                "reclaim_scans".to_string(),
                Json::Num(self.reclaim_scans as f64),
            ),
            (
                "reclaim_frees".to_string(),
                Json::Num(self.reclaim_frees as f64),
            ),
            (
                "combine_ops".to_string(),
                Json::Num(self.combine_ops as f64),
            ),
            (
                "combine_batches".to_string(),
                Json::Num(self.combine_batches as f64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;

    #[test]
    fn snapshot_reflects_bumps() {
        let c = SyncCounters::new();
        c.bump(Counter::LockAcquires);
        c.add(Counter::AtomicRmws, 41);
        c.bump(Counter::AtomicRmws);
        let p = c.snapshot();
        assert_eq!(p.lock_acquires, 1);
        assert_eq!(p.atomic_rmws, 42);
        assert_eq!(p.barrier_waits, 0);
    }

    #[test]
    fn timed_accumulates_nanoseconds() {
        let c = SyncCounters::new();
        let out = c.timed(Counter::LockWaitNs, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert!(c.snapshot().lock_wait_ns >= 1_000_000);
    }

    #[test]
    fn fold_sums_all_lanes() {
        // Bumps from a full team land in distinct lanes; the snapshot fold
        // must equal what one shared slot would have counted.
        const PER_THREAD: u64 = 1000;
        let c = SyncCounters::with_lanes(4);
        Team::new(4).run(|_| {
            for _ in 0..PER_THREAD {
                c.bump(Counter::QueueOps);
            }
        });
        assert_eq!(c.snapshot().queue_ops, 4 * PER_THREAD);
    }

    #[test]
    fn oversubscribed_tids_wrap_onto_lanes_without_losing_counts() {
        // More team members than registered lanes: counts stay exact.
        const PER_THREAD: u64 = 500;
        let c = SyncCounters::with_lanes(2);
        Team::new(7).run(|_| {
            for _ in 0..PER_THREAD {
                c.bump(Counter::ReduceOps);
            }
        });
        assert_eq!(c.lanes(), 2);
        assert_eq!(c.snapshot().reduce_ops, 7 * PER_THREAD);
    }

    #[test]
    fn single_lane_degenerates_to_shared_slot() {
        let c = SyncCounters::with_lanes(1);
        Team::new(3).run(|_| c.bump(Counter::GetsubCalls));
        assert_eq!(c.lanes(), 1);
        assert_eq!(c.snapshot().getsub_calls, 3);
        // Requesting zero lanes still yields a usable block.
        assert_eq!(SyncCounters::with_lanes(0).lanes(), 1);
    }

    #[test]
    fn cache_counters_fold_but_stay_out_of_sync_totals() {
        let c = SyncCounters::new();
        c.bump(Counter::CacheHits);
        c.bump(Counter::CacheHits);
        c.bump(Counter::CacheMisses);
        let p = c.snapshot();
        assert_eq!(p.cache_hits, 2);
        assert_eq!(p.cache_misses, 1);
        // Cache outcomes are service-layer events, not kernel sync ops.
        assert_eq!(p.total_ops(), 0);
        let m = p.merged(&p);
        assert_eq!((m.cache_hits, m.cache_misses), (4, 2));
        assert_eq!(m.delta(&p).cache_hits, 2);
    }

    #[test]
    fn reclaim_counters_fold_but_stay_out_of_sync_totals() {
        let c = SyncCounters::new();
        c.add(Counter::ReclaimRetires, 5);
        c.bump(Counter::ReclaimScans);
        c.add(Counter::ReclaimFrees, 4);
        c.bump(Counter::CacheEvictions);
        let p = c.snapshot();
        assert_eq!(p.reclaim_retires, 5);
        assert_eq!(p.reclaim_scans, 1);
        assert_eq!(p.reclaim_frees, 4);
        assert_eq!(p.cache_evictions, 1);
        // Reclamation bookkeeping is runtime-service work, not a kernel
        // sync op: T3-syncops totals must not move with the reclaimer.
        assert_eq!(p.total_ops(), 0);
        let m = p.merged(&p);
        assert_eq!((m.reclaim_retires, m.reclaim_frees), (10, 8));
        assert_eq!(m.delta(&p).reclaim_scans, 1);
    }

    #[test]
    fn combining_counters_fold_but_stay_out_of_sync_totals() {
        let c = SyncCounters::new();
        c.add(Counter::CombineOps, 12);
        c.bump(Counter::CombineBatches);
        c.bump(Counter::CombineBatches);
        let p = c.snapshot();
        assert_eq!(p.combine_ops, 12);
        assert_eq!(p.combine_batches, 2);
        // Combining requests are already tallied under their logical class
        // (getsub/reduce/barrier/queue); the mechanism counters must not
        // double-book T3-syncops totals.
        assert_eq!(p.total_ops(), 0);
        let m = p.merged(&p);
        assert_eq!((m.combine_ops, m.combine_batches), (24, 4));
        assert_eq!(m.delta(&p).combine_ops, 12);
    }

    #[test]
    fn merged_and_delta_are_inverse() {
        let a = SyncProfile {
            lock_acquires: 10,
            atomic_rmws: 5,
            queue_ops: 3,
            ..SyncProfile::default()
        };
        let b = SyncProfile {
            lock_acquires: 4,
            atomic_rmws: 9,
            ..SyncProfile::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.lock_acquires, 14);
        assert_eq!(m.atomic_rmws, 14);
        assert_eq!(m.delta(&b).lock_acquires, 10);
        // saturating: delta never underflows
        assert_eq!(a.delta(&b).atomic_rmws, 0);
    }

    #[test]
    fn totals_sum_expected_fields() {
        let p = SyncProfile {
            lock_acquires: 1,
            barrier_waits: 2,
            atomic_rmws: 3,
            getsub_calls: 4,
            reduce_ops: 5,
            flag_waits: 6,
            queue_ops: 7,
            lock_wait_ns: 100,
            barrier_wait_ns: 200,
            flag_wait_ns: 300,
            ..SyncProfile::default()
        };
        assert_eq!(p.total_ops(), 28);
        assert_eq!(p.total_wait_ns(), 600);
    }
}
