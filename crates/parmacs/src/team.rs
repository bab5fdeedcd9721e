//! Thread teams (`CREATE` / `WAIT_FOR_END` in PARMACS).
//!
//! A [`Team`] runs one closure on `n` scoped threads, giving each a
//! [`TeamCtx`] with its team index. Scoped spawning lets kernels share
//! stack-allocated state (grids, particle arrays) by reference, exactly like
//! the original suite's shared-memory globals.

use std::cell::Cell;
use std::fmt;
use std::ops::Range;

thread_local! {
    /// Team index of the current thread; 0 outside any team (the master
    /// thread is tid 0 by convention).
    static CURRENT_TID: Cell<usize> = const { Cell::new(0) };
}

/// The team index of the calling thread: its `tid` inside a
/// [`Team::run`]/[`Team::run_map`] closure, 0 elsewhere. Trace sinks use this
/// to attribute events to per-thread streams without threading a context
/// through every primitive call.
#[inline]
pub fn current_tid() -> usize {
    CURRENT_TID.get()
}

/// Per-thread context handed to the team closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamCtx {
    /// This thread's team index in `0..nthreads`.
    pub tid: usize,
    /// Total number of threads in the team.
    pub nthreads: usize,
}

impl TeamCtx {
    /// The contiguous static partition of `0..total` owned by this thread:
    /// the classic `BLOCK` distribution used throughout the suite.
    pub fn chunk(&self, total: usize) -> Range<usize> {
        chunk_range(total, self.tid, self.nthreads)
    }

    /// The cyclic static partition: indices `tid, tid + n, tid + 2n, …`.
    pub fn cyclic(&self, total: usize) -> impl Iterator<Item = usize> {
        (self.tid..total).step_by(self.nthreads.max(1))
    }

    /// `true` for the team's thread 0 (the "master" in PARMACS parlance).
    pub fn is_master(&self) -> bool {
        self.tid == 0
    }
}

/// Contiguous block partition of `0..total` for `tid` of `nthreads`.
///
/// Remainder elements go to the lowest-numbered threads, so block sizes
/// differ by at most one.
pub fn chunk_range(total: usize, tid: usize, nthreads: usize) -> Range<usize> {
    assert!(nthreads > 0, "team must have at least one thread");
    assert!(
        tid < nthreads,
        "tid {tid} out of range for {nthreads} threads"
    );
    let base = total / nthreads;
    let rem = total % nthreads;
    let start = tid * base + tid.min(rem);
    let len = base + usize::from(tid < rem);
    start..start + len
}

/// A fixed-size team of worker threads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Team {
    nthreads: usize,
}

impl Team {
    /// Team of `n` threads.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Team {
        assert!(n > 0, "team must have at least one thread");
        Team { nthreads: n }
    }

    /// Number of threads this team spawns.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Run `work` once per thread, blocking until all threads finish.
    ///
    /// With `n == 1` the closure runs on the calling thread (no spawn), which
    /// keeps single-threaded baseline runs free of scheduling noise.
    pub fn run<F>(&self, work: F)
    where
        F: Fn(TeamCtx) + Sync,
    {
        self.run_map(work);
    }

    /// Run `work` once per thread and collect each thread's return value,
    /// indexed by `tid`. Runs inline when `n == 1`.
    pub fn run_map<F, R>(&self, work: F) -> Vec<R>
    where
        F: Fn(TeamCtx) -> R + Sync,
        R: Send,
    {
        let nthreads = self.nthreads;
        let member = |tid| {
            CURRENT_TID.set(tid);
            work(TeamCtx { tid, nthreads })
        };
        if nthreads == 1 {
            return vec![member(0)];
        }
        // Results go through slots rather than joined handles: the scope
        // returns once every closure has, where a `join` per handle would
        // also wait for each thread's exit.
        let mut out: Vec<Option<R>> = (0..nthreads).map(|_| None).collect();
        std::thread::scope(|s| {
            for (tid, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = Some(member(tid)));
            }
        });
        out.into_iter()
            .map(|r| r.expect("worker thread panicked before producing a result"))
            .collect()
    }
}

impl fmt::Debug for Team {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Team")
            .field("nthreads", &self.nthreads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_tid_runs_once() {
        let hits = AtomicUsize::new(0);
        let mask = AtomicUsize::new(0);
        Team::new(5).run(|ctx| {
            hits.fetch_add(1, Ordering::SeqCst);
            mask.fetch_or(1 << ctx.tid, Ordering::SeqCst);
            assert_eq!(ctx.nthreads, 5);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(mask.load(Ordering::SeqCst), 0b11111);
    }

    #[test]
    fn run_map_orders_by_tid() {
        let out = Team::new(4).run_map(|ctx| ctx.tid * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn single_thread_runs_inline() {
        let here = std::thread::current().id();
        Team::new(1).run(|ctx| {
            assert!(ctx.is_master());
            assert_eq!(std::thread::current().id(), here);
        });
    }

    #[test]
    fn chunks_partition_exactly() {
        for total in [0, 1, 7, 64, 100] {
            for n in [1, 2, 3, 7, 16] {
                let mut covered = Vec::new();
                for tid in 0..n {
                    let r = chunk_range(total, tid, n);
                    covered.extend(r.clone());
                    // sizes differ by at most one
                    assert!(r.len() >= total / n);
                    assert!(r.len() <= total / n + 1);
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn cyclic_partition_covers() {
        let total = 23;
        let n = 4;
        let mut covered: Vec<usize> = (0..n)
            .flat_map(|tid| {
                TeamCtx { tid, nthreads: n }
                    .cyclic(total)
                    .collect::<Vec<_>>()
            })
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..total).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = Team::new(0);
    }

    #[test]
    fn current_tid_tracks_team_index() {
        let mask = AtomicUsize::new(0);
        Team::new(4).run(|ctx| {
            assert_eq!(current_tid(), ctx.tid);
            mask.fetch_or(1 << current_tid(), Ordering::SeqCst);
        });
        assert_eq!(mask.load(Ordering::SeqCst), 0b1111);
        // Inline single-thread path sets tid 0 too.
        Team::new(1).run(|_| assert_eq!(current_tid(), 0));
    }
}
