//! Flat-combining / CC-Synch core: the Splash-4x (`SyncMode::Combining`)
//! back-end for the suite's contended constructs.
//!
//! Splash-4 replaces locks with per-thread CAS loops; under heavy contention
//! every one of those CASes pays a full cache-line transfer, and failed
//! attempts pay it again (Schweizer/Besta/Hoefler). Combining goes one
//! generation further, per Kallimanis's *Synch* framework: each thread
//! *publishes* its request into a cache-padded per-thread record, one thread
//! CASes a lock word to become the **combiner**, walks the publication list
//! applying the whole batch against combiner-cached state, and hands each
//! result back through the record. Waiters spin locally on their own record
//! with [`Backoff`] instead of hammering the shared line.
//!
//! [`CombiningCore`] is the generic engine and all this module holds: the
//! contended constructs plug their sequential interpreter into it as a
//! strategy — [`IndexCounter`](crate::counter::IndexCounter) and
//! [`Reducer`](crate::reduce::Reducer) through the crate's serial executor,
//! [`SenseBarrier`](crate::barrier::SenseBarrier) as its arrival phase.
//! Every atomic ordering comes from
//! [`CombiningSpec`](crate::spec::CombiningSpec), and `splash4-check` drives
//! shadow replicas of the same protocol from the same spec (`C1-combining`).

use crate::backoff::Backoff;
use crate::pad::CachePadded;
use crate::spec::CombiningSpec;
use crate::stats::{Counter, SyncCounters};
use crate::team::current_tid;
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Opcode value meaning "no request pending" in a publication record.
const EMPTY: u64 = 0;

/// A combiner drains repeatedly until a pass finds no pending records, but
/// hands the lock off after this many passes so one thread is never stuck
/// combining forever under sustained load (waiters retry the lock
/// themselves, so progress is preserved).
const MAX_COMBINE_PASSES: usize = 4;

/// One per-thread publication record. Padded so a waiter spinning on its own
/// record never shares a line with another thread's record or the lock word.
#[derive(Debug)]
struct Record {
    /// Claim flag: 0 free, 1 owned by the thread currently running an op.
    busy: AtomicU64,
    /// Pending opcode ([`EMPTY`] when no request is published).
    req: AtomicU64,
    /// Request argument (bit pattern; meaning is opcode-specific).
    arg: AtomicU64,
    /// Operation result, valid once `req` returns to [`EMPTY`].
    result: AtomicU64,
}

impl Record {
    fn new() -> Record {
        Record {
            busy: AtomicU64::new(0),
            req: AtomicU64::new(EMPTY),
            arg: AtomicU64::new(0),
            result: AtomicU64::new(0),
        }
    }
}

/// Flat-combining engine protecting a state value `T`.
///
/// `apply` is the sequential op interpreter: `(state, opcode, arg) ->
/// result`. It runs only on the thread holding the combiner lock, so it may
/// mutate state freely; opcodes are opaque to the core (each construct
/// defines its own, all non-zero).
pub struct CombiningCore<T> {
    /// Combiner lock word: 0 free, 1 held. Padded away from the records, and
    /// boxed so the core itself stays a few words however it is embedded.
    lock: Box<CachePadded<AtomicU64>>,
    /// One publication record per expected thread.
    records: Box<[CachePadded<Record>]>,
    /// Combiner-owned state; only touched with `lock` held.
    state: UnsafeCell<T>,
    apply: fn(&mut T, u64, u64) -> u64,
    stats: Arc<SyncCounters>,
}

// SAFETY: `state` is only accessed by the thread holding the combiner lock
// (see `combine`), and records are individually atomic.
unsafe impl<T: Send> Sync for CombiningCore<T> {}
unsafe impl<T: Send> Send for CombiningCore<T> {}

impl<T> CombiningCore<T> {
    /// Core for up to `nthreads` concurrent publishers (clamped to at least
    /// one record), applying ops with `apply` and reporting into `stats`.
    pub fn new(
        nthreads: usize,
        state: T,
        apply: fn(&mut T, u64, u64) -> u64,
        stats: Arc<SyncCounters>,
    ) -> CombiningCore<T> {
        let n = nthreads.max(1);
        CombiningCore {
            lock: Box::new(CachePadded::new(AtomicU64::new(0))),
            records: (0..n).map(|_| CachePadded::new(Record::new())).collect(),
            state: UnsafeCell::new(state),
            apply,
            stats,
        }
    }

    /// Claim a free publication record, preferring the caller's team slot.
    /// Oversubscribed or out-of-team threads probe linearly; with as many
    /// records as team members a record is always eventually free.
    fn claim_record(&self) -> &Record {
        let n = self.records.len();
        let start = current_tid() % n;
        let mut backoff = Backoff::new();
        loop {
            for i in 0..n {
                let rec = &*self.records[(start + i) % n];
                if rec
                    .busy
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return rec;
                }
            }
            backoff.snooze();
        }
    }

    /// Execute `(op, arg)` through the combining protocol and return its
    /// result. `op` must be non-zero.
    pub fn run(&self, op: u64, arg: u64) -> u64 {
        const S: CombiningSpec = CombiningSpec::SPLASH4X;
        debug_assert_ne!(op, EMPTY, "opcode 0 is reserved for empty records");
        self.stats.bump(Counter::CombineOps);
        // The publication itself is the op's one guaranteed atomic RMW-class
        // event (lock CAS attempts are the combining mechanism, not per-op
        // work, and are deliberately not multiplied into the tally).
        self.stats.bump(Counter::AtomicRmws);
        let rec = self.claim_record();
        rec.arg.store(arg, S.arg_store);
        rec.req.store(op, S.publish_store);
        let mut backoff = Backoff::new();
        loop {
            if rec.req.load(S.wait_load) == EMPTY {
                break; // a combiner served us
            }
            if self
                .lock
                .compare_exchange(0, 1, S.lock_cas_ok, S.lock_cas_fail)
                .is_ok()
            {
                // We are the combiner; our own record is drained too.
                self.combine();
                self.lock.store(0, S.lock_release);
                debug_assert_eq!(rec.req.load(Ordering::Relaxed), EMPTY);
                break;
            }
            backoff.snooze();
        }
        let out = rec.result.load(S.result_load);
        rec.busy.store(0, Ordering::Release);
        out
    }

    /// Drain pending publication records. Caller must hold the lock.
    fn combine(&self) {
        const S: CombiningSpec = CombiningSpec::SPLASH4X;
        self.stats.bump(Counter::CombineBatches);
        // SAFETY: combiner lock held — exclusive access to the state.
        let state = unsafe { &mut *self.state.get() };
        for _pass in 0..MAX_COMBINE_PASSES {
            let mut served = 0usize;
            for rec in self.records.iter() {
                let req = rec.req.load(S.scan_load);
                if req != EMPTY {
                    let arg = rec.arg.load(Ordering::Relaxed);
                    let out = (self.apply)(state, req, arg);
                    rec.result.store(out, S.result_store);
                    rec.req.store(EMPTY, S.complete_store);
                    served += 1;
                }
            }
            if served == 0 {
                break;
            }
        }
    }

    /// Number of publication records (the thread capacity of the core).
    pub fn capacity(&self) -> usize {
        self.records.len()
    }
}

impl<T> fmt::Debug for CombiningCore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CombiningCore")
            .field("records", &self.records.len())
            .finish_non_exhaustive()
    }
}
