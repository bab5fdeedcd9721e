//! Synchronization instrumentation.
//!
//! Every primitive handed out by a [`SyncEnv`](crate::env::SyncEnv) shares one
//! [`SyncCounters`] block and bumps the relevant counters on each dynamic
//! operation. Counting uses relaxed atomic increments (a few nanoseconds);
//! wall-clock time is recorded only for the sleep-prone classes (locks,
//! barriers, flags, queue blocking) where the cost of two `Instant::now`
//! calls is negligible relative to the operation itself.
//!
//! # Counting rules
//!
//! Three rules are written here and nowhere else. A logical sync op is one
//! [`SyncCounters::record`]: one bump of the counter its [`TraceEvent`]
//! stands for plus that event to the trace sink, so a run's trace and its
//! profile agree. A CAS attempt is one [`SyncCounters::cas`]: one
//! `atomic_rmws`, plus one `cas_failures` when it fails, so the CAS-retry
//! share is failures over attempts. And each row of the counter table is
//! marked `logical` or `mechanism`. A logical count is what the program
//! asked for (barrier waits, GETSUB calls, reductions, delivered queue ops,
//! flag sets, retires, combining requests), so every run of one
//! configuration reads the same. A mechanism count is what the schedule
//! did: lock acquisitions, contention, CAS attempts and retries, slow-path
//! waits, wait times, cache outcomes, reclamation scans and frees,
//! combining batches. Lock acquisitions are a mechanism because a Splash-3
//! queue takes its lock to find itself empty and barnes locks every node
//! of its descent. [`SyncProfile::logical`] returns the logical counts, and
//! whatever compares runs or tabulates the suite reads them from there.
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
use crate::mode::ConstructClass;
use crate::pad::CachePadded;
use crate::team::current_tid;
use crate::trace::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The counter table, written once: each row is a [`Counter`] variant, the
/// [`SyncProfile`] field (and JSON key) it folds into, its kind (`logical`
/// or `mechanism`, see the module docs) and its doc. Row order is slot
/// order, field order and JSON key order.
macro_rules! counters {
    (@logical logical) => { true };
    (@logical mechanism) => { false };
    ($($(#[doc = $doc:literal])+ $variant:ident => $field:ident: $kind:ident,)+) => {
        /// Names one instrumentation counter inside a [`SyncCounters`] block.
        ///
        /// The discriminant is the counter's slot index within a lane.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Counter {
            /// Every counter, in slot order.
            pub const ALL: [Counter; NUM_COUNTERS] = [$(Counter::$variant),+];
        }

        /// Number of distinct counters per lane.
        pub const NUM_COUNTERS: usize = [$(Counter::$variant),+].len();

        /// Serializable snapshot of a [`SyncCounters`] block.
        ///
        /// Each field is one [`Counter`]'s fold; [`SyncProfile::logical`]
        /// picks out the fields that do not depend on the schedule.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SyncProfile {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl SyncProfile {
            /// JSON keys, in slot order.
            const KEYS: [&'static str; NUM_COUNTERS] = [$(stringify!($field)),+];

            /// Whether each slot is logical, in slot order.
            const LOGICAL: [bool; NUM_COUNTERS] = [$(counters!(@logical $kind)),+];

            /// The fields, in slot order.
            fn slots(&self) -> [u64; NUM_COUNTERS] {
                [$(self.$field),+]
            }

            fn from_slots([$($field),+]: [u64; NUM_COUNTERS]) -> SyncProfile {
                SyncProfile { $($field),+ }
            }
        }
    };
}

counters! {
    /// Lock acquisitions (sleeping locks only; spin locks count here too).
    LockAcquires => lock_acquires: mechanism,
    /// Lock acquisitions that found the lock held (slow path taken).
    LockContended => lock_contended: mechanism,
    /// Nanoseconds spent acquiring locks (slow path only).
    LockWaitNs => lock_wait_ns: mechanism,
    /// Barrier episodes *per thread* (N threads crossing once = N).
    BarrierWaits => barrier_waits: logical,
    /// Nanoseconds spent waiting at barriers, summed over threads.
    BarrierWaitNs => barrier_wait_ns: mechanism,
    /// Atomic read-modify-write operations issued by lock-free back-ends
    /// (fetch_add, CAS attempts, exchanges). CAS retries count individually.
    AtomicRmws => atomic_rmws: mechanism,
    /// `GETSUB`-style dynamic index grabs (both back-ends).
    GetsubCalls => getsub_calls: logical,
    /// Reduction contributions (both back-ends).
    ReduceOps => reduce_ops: logical,
    /// Pause/flag waits that actually blocked or spun.
    FlagWaits => flag_waits: mechanism,
    /// Nanoseconds spent waiting on flags.
    FlagWaitNs => flag_wait_ns: mechanism,
    /// Task-queue operations: pushes that land and pops that return a task
    /// (an empty pop or a push onto a full ring counts nothing, so the count
    /// does not depend on the schedule).
    QueueOps => queue_ops: logical,
    /// CAS failures (retries) observed in lock-free loops; a proxy for
    /// cache-line contention intensity.
    CasFailures => cas_failures: mechanism,
    /// Result-cache lookups served without recomputation (includes lookups
    /// coalesced onto an in-flight computation of the same key).
    CacheHits => cache_hits: mechanism,
    /// Result-cache lookups that triggered a fresh computation.
    CacheMisses => cache_misses: mechanism,
    /// Result-cache entries dropped by the LRU bound.
    CacheEvictions => cache_evictions: mechanism,
    /// Nodes handed to a reclaimer for deferred destruction.
    ReclaimRetires => reclaim_retires: logical,
    /// Reclamation scans (epoch advance attempts / hazard sweeps).
    ReclaimScans => reclaim_scans: mechanism,
    /// Retired nodes actually freed by a reclaimer.
    ReclaimFrees => reclaim_frees: mechanism,
    /// Operations routed through a flat-combining core (each request a
    /// thread publishes, whether self-served or applied by a combiner).
    CombineOps => combine_ops: logical,
    /// Combiner lock acquisitions: each counts one batch drain. The mean
    /// batch size is `combine_ops / combine_batches`.
    CombineBatches => combine_batches: mechanism,
    /// Pause/flag signals (`set` calls, both back-ends).
    FlagSets => flag_sets: logical,
}

/// One striping lane: all twenty-one counters for one thread, padded so
/// adjacent lanes never share a cache line. 21 × 8 = 168 bytes of payload
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
/// The block also carries the (optional) trace sink, so every primitive that
/// already holds an `Arc<SyncCounters>` can emit [`TraceEvent`]s without
/// signature changes, through [`record`](SyncCounters::record).
/// Tracing never touches the counters themselves: `T3-syncops` counts are
/// identical with and without a sink attached.
#[derive(Debug)]
pub struct SyncCounters {
    /// Per-thread counter lanes; indexed by `current_tid() % lanes.len()`.
    lanes: Box<[Lane]>,
    /// Attached trace sink, if any (see
    /// [`SyncEnv::with_trace`](crate::SyncEnv::with_trace)). Write-once.
    tracer: OnceLock<Arc<dyn TraceSink>>,
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

    /// Emit `event` to the attached sink, if any. With no sink this is one
    /// load-and-branch on the hot path; counters are never affected.
    #[inline]
    fn trace(&self, event: TraceEvent) {
        if let Some(sink) = self.tracer.get() {
            sink.record(current_tid(), event);
        }
    }

    /// Account one logical sync op: bump the counter `event` stands for,
    /// then emit it. This is the one place the two agree, so a run's trace
    /// holds exactly one event per counted logical op. A barrier exit and a
    /// data-lock touch stand for no counter.
    #[inline]
    pub fn record(&self, event: TraceEvent) {
        let counter = match event {
            TraceEvent::BarrierEnter => Some(Counter::BarrierWaits),
            TraceEvent::BarrierExit => None,
            TraceEvent::Getsub { .. } => Some(Counter::GetsubCalls),
            TraceEvent::Queue => Some(Counter::QueueOps),
            TraceEvent::Rmw { class, .. } => match class {
                ConstructClass::Reduction => Some(Counter::ReduceOps),
                ConstructClass::Flag => Some(Counter::FlagSets),
                ConstructClass::DataLock
                | ConstructClass::Barrier
                | ConstructClass::Counter
                | ConstructClass::Queue => None,
            },
        };
        if let Some(counter) = counter {
            self.bump(counter);
        }
        self.trace(event);
    }

    /// Account one CAS attempt and hand its `result` back: one
    /// `atomic_rmws`, plus one `cas_failures` when it failed.
    #[inline]
    pub fn cas<T>(&self, result: Result<T, T>) -> Result<T, T> {
        self.bump(Counter::AtomicRmws);
        if result.is_err() {
            self.bump(Counter::CasFailures);
        }
        result
    }

    /// Immutable snapshot of all counters, folded across lanes.
    pub fn snapshot(&self) -> SyncProfile {
        SyncProfile::from_slots(Counter::ALL.map(|c| self.fold(c)))
    }
}

impl SyncProfile {
    /// The logical counts, each with its JSON key, in slot order: the ones
    /// every run of one configuration reads the same (see the module docs).
    pub fn logical(&self) -> Vec<(&'static str, u64)> {
        let slots = SyncProfile::KEYS.into_iter().zip(self.slots());
        let kinds = slots.zip(SyncProfile::LOGICAL);
        kinds
            .filter_map(|(slot, logical)| logical.then_some(slot))
            .collect()
    }
}

impl ToJson for SyncProfile {
    fn to_json(&self) -> Json {
        let slots = SyncProfile::KEYS.iter().zip(self.slots());
        Json::Object(
            slots
                .map(|(key, n)| (key.to_string(), Json::Num(n as f64)))
                .collect(),
        )
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

    /// Keeps every event it is handed.
    #[derive(Debug, Default)]
    struct Collect(std::sync::Mutex<Vec<TraceEvent>>);

    impl TraceSink for Collect {
        fn record(&self, _tid: usize, event: TraceEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    #[test]
    fn record_bumps_the_events_counter_and_feeds_the_sink_once() {
        let rmw = |class| TraceEvent::Rmw { class, n: 3 };
        let mut cases = vec![
            (TraceEvent::BarrierEnter, Some(Counter::BarrierWaits)),
            (TraceEvent::BarrierExit, None),
            (TraceEvent::Getsub { n: 4 }, Some(Counter::GetsubCalls)),
            (TraceEvent::Queue, Some(Counter::QueueOps)),
        ];
        for class in ConstructClass::ALL {
            let counter = match class {
                ConstructClass::Reduction => Some(Counter::ReduceOps),
                ConstructClass::Flag => Some(Counter::FlagSets),
                _ => None,
            };
            cases.push((rmw(class), counter));
        }
        for (event, counter) in cases {
            let c = SyncCounters::new();
            let sink = Arc::new(Collect::default());
            assert!(c.set_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>));
            c.record(event);
            let mut want = [0; NUM_COUNTERS];
            if let Some(counter) = counter {
                want[counter as usize] = 1;
            }
            assert_eq!(c.snapshot().slots(), want, "{event:?}");
            assert_eq!(*sink.0.lock().unwrap(), [event], "{event:?}");
        }
        // With no sink attached the count is the same.
        let c = SyncCounters::new();
        c.record(TraceEvent::Queue);
        assert_eq!(c.snapshot().queue_ops, 1);
    }

    #[test]
    fn cas_counts_one_rmw_and_a_failure_only_on_err() {
        let c = SyncCounters::new();
        assert_eq!(c.cas(Ok::<u64, u64>(7)), Ok(7));
        let p = c.snapshot();
        assert_eq!((p.atomic_rmws, p.cas_failures), (1, 0));
        assert_eq!(c.cas(Err::<u64, u64>(9)), Err(9));
        let p = c.snapshot();
        assert_eq!((p.atomic_rmws, p.cas_failures), (2, 1));
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

    /// The logical counts of `p` that are not zero.
    fn counted_logical(p: &SyncProfile) -> Vec<(&'static str, u64)> {
        p.logical().into_iter().filter(|&(_, n)| n > 0).collect()
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
        assert_eq!(counted_logical(&p), []);
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
        // A retire is what the program hands over; when a scan runs and
        // what it frees is up to the schedule.
        assert_eq!(counted_logical(&p), [("reclaim_retires", 5)]);
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
        // Every published request counts; how many a batch drains is up
        // to the schedule.
        assert_eq!(counted_logical(&p), [("combine_ops", 12)]);
    }
}
