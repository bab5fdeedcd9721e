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
//! [`CombiningSpec`]; arguments, results and the
//! combined state are plain data ([`DataCell`]) ordered only by the
//! protocol's edges, and `splash4-check` runs this core over its own
//! [`Atomics`] to check exactly that (`C1-combining`).

use crate::atomics::{Atomics, DataCell, Std, Word};
use crate::backoff::Backoff;
use crate::pad::CachePadded;
use crate::spec::CombiningSpec;
use crate::stats::{Counter, SyncCounters};
use crate::team::current_tid;
use std::fmt;
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
struct Record<A: Atomics> {
    /// Claim flag: 0 free, 1 owned by the thread currently running an op.
    busy: A::U64,
    /// Pending opcode ([`EMPTY`] when no request is published).
    req: A::U64,
    /// Request argument (bit pattern; meaning is opcode-specific). Written
    /// by the record's owner before it publishes `req`.
    arg: A::Cell<u64>,
    /// Operation result, written by the combiner before it returns `req` to
    /// [`EMPTY`].
    result: A::Cell<u64>,
}

impl<A: Atomics> Record<A> {
    fn new() -> Record<A> {
        Record {
            busy: A::U64::new("combining.busy", 0),
            req: A::U64::new("combining.req", EMPTY),
            arg: A::Cell::new("combining.arg", 0),
            result: A::Cell::new("combining.result", 0),
        }
    }
}

/// Flat-combining engine protecting a state value `T`.
///
/// `apply` is the sequential op interpreter: `(state, opcode, arg) ->
/// result`. It runs only on the thread holding the combiner lock, so it may
/// mutate state freely; opcodes are opaque to the core (each construct
/// defines its own, all non-zero).
pub struct CombiningCore<T, A: Atomics = Std> {
    /// Combiner lock word: 0 free, 1 held. Padded away from the records, and
    /// boxed so the core itself stays a few words however it is embedded.
    lock: Box<CachePadded<A::U64>>,
    /// One publication record per expected thread.
    records: Box<[CachePadded<Record<A>>]>,
    /// Combiner-owned state; only touched with `lock` held.
    state: A::Cell<T>,
    apply: fn(&mut T, u64, u64) -> u64,
    stats: Arc<SyncCounters>,
}

// SAFETY: `state` is only accessed by the thread holding the combiner lock
// (see `combine`); a record's `arg` and `result` only by its owner or, while
// `req` is published, by the combiner; everything else is a `Word`.
unsafe impl<T: Send, A: Atomics> Sync for CombiningCore<T, A> {}
unsafe impl<T: Send, A: Atomics> Send for CombiningCore<T, A> {}

impl<T, A: Atomics> CombiningCore<T, A> {
    /// Core for up to `nthreads` concurrent publishers (clamped to at least
    /// one record), applying ops with `apply` and reporting into `stats`.
    pub fn new(
        nthreads: usize,
        state: T,
        apply: fn(&mut T, u64, u64) -> u64,
        stats: Arc<SyncCounters>,
    ) -> CombiningCore<T, A> {
        let n = nthreads.max(1);
        CombiningCore {
            lock: Box::new(CachePadded::new(A::U64::new("combining.lock", 0))),
            records: (0..n).map(|_| CachePadded::new(Record::new())).collect(),
            state: A::Cell::new("combining.state", state),
            apply,
            stats,
        }
    }

    /// Claim a free publication record, preferring the caller's team slot.
    /// Oversubscribed or out-of-team threads probe linearly; with as many
    /// records as team members a record is always eventually free.
    fn claim_record(&self) -> &Record<A> {
        let s = A::spec(CombiningSpec::SPLASH4X);
        let n = self.records.len();
        let start = current_tid() % n;
        let mut backoff = Backoff::new();
        loop {
            for i in 0..n {
                let rec = &*self.records[(start + i) % n];
                if rec
                    .busy
                    .compare_exchange(0, 1, s.claim_cas_ok, s.claim_cas_fail)
                    .is_ok()
                {
                    return rec;
                }
            }
            // Wait on the record probed last: its failed CAS is the check
            // this wait directly follows.
            self.records[(start + n - 1) % n].busy.snooze(&mut backoff);
        }
    }

    /// Execute `(op, arg)` through the combining protocol and return its
    /// result. `op` must be non-zero.
    pub fn run(&self, op: u64, arg: u64) -> u64 {
        let s = A::spec(CombiningSpec::SPLASH4X);
        debug_assert_ne!(op, EMPTY, "opcode 0 is reserved for empty records");
        self.stats.bump(Counter::CombineOps);
        // The publication itself is the op's one guaranteed atomic RMW-class
        // event (lock CAS attempts are the combining mechanism, not per-op
        // work, and are deliberately not multiplied into the tally).
        self.stats.bump(Counter::AtomicRmws);
        let rec = self.claim_record();
        // SAFETY: we own the record and `req` is EMPTY, so no combiner
        // reads `arg` before the publish store below.
        unsafe { rec.arg.with_mut(|a| *a = arg) };
        rec.req.store(op, s.publish_store);
        let mut backoff = Backoff::new();
        loop {
            if rec.req.load(s.wait_load) == EMPTY {
                break; // a combiner served us
            }
            if self
                .lock
                .compare_exchange(0, 1, s.lock_cas_ok, s.lock_cas_fail)
                .is_ok()
            {
                // We are the combiner; our own record is drained too (it
                // was published before the first pass).
                self.combine(s);
                self.lock.store(0, s.lock_release);
                break;
            }
            self.lock.snooze(&mut backoff);
        }
        // SAFETY: `req` went back to EMPTY, so the combiner's write of
        // `result` happened before (or we were the combiner).
        let out = unsafe { rec.result.with(|r| *r) };
        rec.busy.store(0, s.claim_release);
        out
    }

    /// Drain pending publication records. Caller must hold the lock.
    fn combine(&self, s: CombiningSpec) {
        self.stats.bump(Counter::CombineBatches);
        for _pass in 0..MAX_COMBINE_PASSES {
            let mut served = 0usize;
            for rec in self.records.iter() {
                let req = rec.req.load(s.scan_load);
                if req != EMPTY {
                    // SAFETY: combiner lock held — exclusive access to the
                    // state, and to `arg`/`result` of a record whose `req`
                    // reads non-EMPTY (its owner waits for the completion
                    // store below).
                    unsafe {
                        let arg = rec.arg.with(|a| *a);
                        let out = self.state.with_mut(|state| (self.apply)(state, req, arg));
                        rec.result.with_mut(|r| *r = out);
                    }
                    rec.req.store(EMPTY, s.complete_store);
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

impl<T, A: Atomics> fmt::Debug for CombiningCore<T, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CombiningCore")
            .field("records", &self.records.len())
            .finish_non_exhaustive()
    }
}
