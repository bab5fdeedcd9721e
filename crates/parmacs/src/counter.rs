//! Dynamic index distribution (`GETSUB` in PARMACS).
//!
//! The single most common Splash-3 → Splash-4 transformation: the loop
//! ```c
//! LOCK(gl->lock); i = gl->index++; UNLOCK(gl->lock);
//! ```
//! becomes `i = atomic_fetch_add(&gl->index, 1)`.
//!
//! [`IndexCounter`] is the one dispenser type; the expansion is its private
//! cursor strategy — a sequential cursor run by the crate's serial executor
//! (under a lock in Splash-3, by a combiner in Splash-4x) or a native
//! `fetch_add` (Splash-4). Every strategy hands out each index of the
//! configured range exactly once, across any number of threads, and then
//! reports exhaustion. Chunked grabs ([`IndexCounter::next_chunk`]) model
//! the block-`GETSUB` variant some kernels use.

use crate::atomics::{Atomics, IntWord, Std, Word};
use crate::mode::SyncMode;
use crate::serial::Serial;
use crate::spec::TicketSpec;
use crate::stats::{Counter, SyncCounters};
use crate::trace::TraceEvent;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Sequential cursor state: the dispensing cursor plus its range bounds
/// (kept in the state so the fn-pointer interpreter can clamp).
struct CounterState {
    next: u64,
    start: u64,
    end: u64,
}

const OP_GRAB: u64 = 1; // arg = chunk size; returns the pre-grab cursor (≤ end)
const OP_RESET: u64 = 2; // arg unused

fn apply_counter(s: &mut CounterState, op: u64, arg: u64) -> u64 {
    match op {
        OP_GRAB => {
            let v = s.next;
            s.next = v.saturating_add(arg).min(s.end);
            v
        }
        _ => {
            s.next = s.start;
            0
        }
    }
}

enum Cursor<A: Atomics> {
    /// Splash-4: one `fetch_add` per grab.
    FetchAdd(A::Usize),
    /// Splash-3 / Splash-4x: [`apply_counter`] under the serial executor.
    Serial(Serial<CounterState, A>),
}

/// A work-index dispenser over a half-open range (the `GETSUB` construct).
pub struct IndexCounter<A: Atomics = Std> {
    range: Range<usize>,
    cursor: Cursor<A>,
    stats: Arc<SyncCounters>,
}

impl<A: Atomics> IndexCounter<A> {
    /// Dispenser over `range` expanded per `mode` for a team of `nthreads`,
    /// reporting into `stats`.
    pub fn new(
        mode: SyncMode,
        range: Range<usize>,
        nthreads: usize,
        stats: Arc<SyncCounters>,
    ) -> IndexCounter<A> {
        let state = CounterState {
            next: range.start as u64,
            start: range.start as u64,
            end: range.end as u64,
        };
        let cursor = match Serial::for_mode(mode, nthreads, state, apply_counter, &stats) {
            Some(serial) => Cursor::Serial(serial),
            None => Cursor::FetchAdd(A::Usize::new("counter.next", range.start)),
        };
        IndexCounter {
            range,
            cursor,
            stats,
        }
    }

    /// Grab the next undistributed index, or `None` when the range is
    /// exhausted.
    pub fn next(&self) -> Option<usize> {
        let grabbed = self.next_chunk(1);
        (!grabbed.is_empty()).then_some(grabbed.start)
    }

    /// Grab up to `chunk` consecutive indices; returns an empty range at the
    /// range end when exhausted. `chunk` must be non-zero.
    pub fn next_chunk(&self, chunk: usize) -> Range<usize> {
        assert!(chunk > 0, "chunk must be non-zero");
        let start = match &self.cursor {
            Cursor::Serial(serial) => serial.run(OP_GRAB, chunk as u64) as usize,
            Cursor::FetchAdd(value) => self.fetch_add(value, chunk),
        };
        let end = start.saturating_add(chunk).min(self.range.end);
        self.stats.record(TraceEvent::Getsub {
            n: (end - start) as u32,
        });
        start..end
    }

    /// The range being distributed.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Reset the dispenser to the start of its range.
    ///
    /// Callers must ensure no thread is concurrently grabbing (normally done
    /// between barrier-separated phases, as in the original suite).
    pub fn reset(&self) {
        match &self.cursor {
            Cursor::Serial(serial) => {
                serial.run(OP_RESET, 0);
            }
            Cursor::FetchAdd(value) => {
                value.store(self.range.start, A::spec(TicketSpec::SPLASH4).reset_store);
            }
        }
    }

    /// The Splash-4 grab: returns the pre-grab cursor clamped to the range
    /// end. The cursor advances by at most the range length, so however
    /// large `chunk` is the raw value overshoots the end by no more than one
    /// range length per in-flight grab before [`IndexCounter::clamp`] pulls
    /// it back — it cannot wrap and re-issue an index.
    fn fetch_add(&self, value: &A::Usize, chunk: usize) -> usize {
        self.stats.bump(Counter::AtomicRmws);
        let step = chunk.min(self.range.len());
        let raw = value.fetch_add(step, A::spec(TicketSpec::SPLASH4).claim_rmw);
        let after = raw.wrapping_add(step);
        if after > self.range.end {
            self.clamp(value, after);
        }
        raw.min(self.range.end)
    }

    /// Pull an overshot counter value back to `range.end`.
    ///
    /// Without this, every exhausted poll keeps `fetch_add`ing the raw value
    /// toward `usize` overflow, and a wrapped counter would hand out
    /// duplicate indices. Retries are bounded: a lost CAS means another
    /// exhausted grabber moved the value and will clamp it itself, so the
    /// overshoot stays bounded by the number of in-flight grabs. The clamp
    /// is deliberately *not* instrumented — it is bookkeeping, not a logical
    /// `GETSUB` operation, so `T2`/`T3` op counts are unchanged.
    #[cold]
    fn clamp(&self, value: &A::Usize, observed: usize) {
        let end = self.range.end;
        let ord = A::spec(TicketSpec::SPLASH4).clamp_cas;
        let mut cur = observed;
        for _ in 0..8 {
            if cur <= end {
                return;
            }
            match value.compare_exchange_weak(cur, end, ord, ord) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
}

impl<A: Atomics> fmt::Debug for IndexCounter<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexCounter")
            .field("range", &self.range)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn exhausted_fetch_add_cursor_does_not_drift() {
        // Regression test: repeated grabs after exhaustion used to keep
        // fetch_adding the raw value toward usize overflow (and, wrapped,
        // would eventually hand out duplicate indices). The clamp must keep
        // the overshoot bounded by the number of in-flight grabbers, while
        // every poll still reports exhaustion. Reads the raw cursor, so it
        // lives here rather than in the `SyncEnv`-level suite.
        let stats = Arc::new(SyncCounters::new());
        const THREADS: usize = 4;
        let c: IndexCounter =
            IndexCounter::new(SyncMode::LockFree, 0..10, THREADS, Arc::clone(&stats));
        let Cursor::FetchAdd(raw) = &c.cursor else {
            panic!("lock-free mode must use the fetch_add cursor");
        };
        const POLLS: usize = 50_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    while c.next().is_some() {}
                    for _ in 0..POLLS {
                        assert_eq!(c.next(), None);
                        assert!(c.next_chunk(7).is_empty());
                    }
                });
            }
        });
        let drifted = raw.load(Ordering::Relaxed);
        assert!(
            drifted <= c.range.end + THREADS * 7,
            "counter drifted to {drifted} after exhaustion (end {})",
            c.range.end
        );
        // Single-threaded quiescent poll leaves the value exactly clamped.
        assert_eq!(c.next(), None);
        assert_eq!(raw.load(Ordering::Relaxed), c.range.end);
        // The clamp itself is not instrumented: every logical grab (the
        // exhausted polls included) counts exactly one getsub + one RMW.
        let p = stats.snapshot();
        assert_eq!(p.getsub_calls, p.atomic_rmws);
    }
}
