//! Lock-free sync-event tracing and trace-driven simulation replay.
//!
//! The `splash4-parmacs` runtime can stream one [`TraceEvent`] per
//! synchronization operation into an attached [`TraceSink`]. This crate
//! provides everything around that hook:
//!
//! * [`RingRecorder`] — a wait-free recorder (one single-producer ring per
//!   thread, drained once by [`RingRecorder::finish`]) that timestamps events
//!   and counts drops on overflow instead of blocking the traced program;
//! * [`Trace`] — the merged, per-thread event streams a finished recorder
//!   yields, with a compact binary codec ([`codec`]);
//! * [`lower`] — conversion of a recorded trace into a simulator
//!   [`Program`](splash4_sim::Program), re-dealing dynamically-scheduled work
//!   across any simulated core count so a 4-thread native trace can drive
//!   1–64-core sweeps under either sync policy;
//! * [`TraceSummary`] — per-class operation counts, the span and a
//!   critical-path estimate.
//!
//! ```
//! use splash4_parmacs::{SyncEnv, SyncMode, SyncPolicy, Team};
//! use splash4_sim::MachineParams;
//! use splash4_trace::RingRecorder;
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(RingRecorder::new("demo", 2));
//! let env = SyncEnv::new(SyncMode::LockFree, 2).with_trace(recorder.clone());
//! let barrier = env.barrier();
//! let counter = env.counter("work", 0..32);
//! Team::new(2).run(|ctx| {
//!     while counter.next().is_some() {}
//!     barrier.wait(ctx.tid);
//! });
//! // The environment (and anything built from it) holds the sink; release
//! // those references to take the recording out of the recorder.
//! drop((barrier, counter, env));
//! let trace = Arc::try_unwrap(recorder).unwrap().finish();
//! assert_eq!(trace.nthreads(), 2);
//! assert_eq!(trace.dropped(), 0);
//! // Replay the 2-thread recording on 8 simulated cores.
//! let prog = splash4_trace::lower::lower(
//!     &trace,
//!     SyncPolicy::uniform(SyncMode::LockFree),
//!     8,
//!     &MachineParams::epyc_like(),
//! );
//! assert_eq!(prog.ncores(), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod codec;
pub mod lower;
mod ring;
pub mod summary;

pub use summary::TraceSummary;

use ring::SpscRing;
use splash4_parmacs::{CachePadded, TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default per-thread ring capacity (events). Kernels in harness
/// configurations emit well under this; overflow is counted, not fatal.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Nanoseconds since the process-wide trace epoch (the first call).
/// Monotonic: every recorder stamps its events on this one time base.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A timestamped event in one thread's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped {
    /// Nanoseconds since the process trace epoch (the first timestamp a
    /// recorder took).
    pub ts_ns: u64,
    /// The recorded event.
    pub event: TraceEvent,
}

/// A finished recording: one ordered event stream per traced thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    threads: Vec<Vec<Stamped>>,
    dropped: u64,
}

impl Trace {
    /// Assemble a trace from parts (used by the codec and tests; recordings
    /// normally come from [`RingRecorder::finish`]).
    pub fn from_parts(name: impl Into<String>, threads: Vec<Vec<Stamped>>, dropped: u64) -> Trace {
        Trace {
            name: name.into(),
            threads,
            dropped,
        }
    }

    /// Workload name the recording was labelled with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of traced threads.
    pub fn nthreads(&self) -> usize {
        self.threads.len()
    }

    /// Per-thread event streams, indexed by team tid, each in record order
    /// (timestamps are non-decreasing within a stream).
    pub fn threads(&self) -> &[Vec<Stamped>] {
        &self.threads
    }

    /// Events lost to ring overflow or out-of-range tids.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total recorded events across all threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of barrier episodes every traced thread participated in: the
    /// minimum `BarrierEnter` count across threads. Replay lowers exactly
    /// this many synchronized segments.
    pub fn barrier_episodes(&self) -> usize {
        self.threads
            .iter()
            .map(|evs| {
                evs.iter()
                    .filter(|s| s.event == TraceEvent::BarrierEnter)
                    .count()
            })
            .min()
            .unwrap_or(0)
    }
}

/// Wait-free multi-thread recorder: one single-producer ring per team
/// thread.
///
/// `record` is wait-free (a flag swap, a slot write and two release
/// stores; a full ring counts a drop and returns). The rings are drained
/// once, by [`RingRecorder::finish`].
///
/// A tid's stream is whole when at most one thread records under it at a
/// time, which [`Team`](splash4_parmacs::Team) guarantees (team threads get
/// distinct tids; the master only records outside team scopes). Breaking
/// that is safe but lossy: a thread that records while another is inside
/// the same ring's push drops its event, and [`RingRecorder::dropped`]
/// counts it.
#[derive(Debug)]
pub struct RingRecorder {
    name: String,
    /// One ring per tid, each on its own cache lines: the rings' cursors
    /// and producer flags are written by different threads.
    rings: Vec<CachePadded<SpscRing>>,
    /// Events from tids outside `0..rings.len()`.
    out_of_range: AtomicU64,
}

impl RingRecorder {
    /// Recorder for `nthreads` team threads with the default ring capacity.
    pub fn new(name: impl Into<String>, nthreads: usize) -> RingRecorder {
        RingRecorder::with_capacity(name, nthreads, DEFAULT_RING_CAPACITY)
    }

    /// Recorder with `capacity` event slots per thread (rounded up to a power
    /// of two).
    pub fn with_capacity(
        name: impl Into<String>,
        nthreads: usize,
        capacity: usize,
    ) -> RingRecorder {
        assert!(nthreads > 0, "recorder needs at least one thread");
        RingRecorder {
            name: name.into(),
            rings: (0..nthreads)
                .map(|_| CachePadded::new(SpscRing::new(capacity)))
                .collect(),
            out_of_range: AtomicU64::new(0),
        }
    }

    /// Number of per-thread streams.
    pub fn nthreads(&self) -> usize {
        self.rings.len()
    }

    /// Events dropped so far (ring overflow + out-of-range tids).
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum::<u64>()
            + self.out_of_range.load(Ordering::Relaxed)
    }

    /// Stop recording and yield the trace. Call after all traced threads have
    /// finished (ownership enforces quiescence).
    pub fn finish(self) -> Trace {
        Trace {
            dropped: self.dropped(),
            threads: self.rings.iter().map(|r| r.drain()).collect(),
            name: self.name,
        }
    }
}

impl TraceSink for RingRecorder {
    #[inline]
    fn record(&self, tid: usize, event: TraceEvent) {
        match self.rings.get(tid) {
            Some(ring) => {
                ring.push(Stamped {
                    ts_ns: now_ns(),
                    event,
                });
            }
            None => {
                self.out_of_range.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_parmacs::Team;
    use std::sync::Arc;

    #[test]
    fn records_per_thread_streams() {
        let rec = Arc::new(RingRecorder::new("t", 3));
        let sink: Arc<dyn TraceSink> = rec.clone();
        Team::new(3).run(|ctx| {
            for i in 0..10u32 {
                sink.record(ctx.tid, TraceEvent::Getsub { n: i });
            }
        });
        drop(sink);
        let trace = Arc::try_unwrap(rec).unwrap().finish();
        assert_eq!(trace.nthreads(), 3);
        assert_eq!(trace.dropped(), 0);
        for evs in trace.threads() {
            assert_eq!(evs.len(), 10);
            // Timestamps non-decreasing within a stream.
            for w in evs.windows(2) {
                assert!(w[0].ts_ns <= w[1].ts_ns);
            }
        }
    }

    #[test]
    fn overflow_counts_drops_exactly() {
        let rec = RingRecorder::with_capacity("t", 1, 8);
        for _ in 0..20 {
            rec.record(0, TraceEvent::Queue);
        }
        assert_eq!(rec.dropped(), 12);
        let trace = rec.finish();
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.dropped(), 12);
    }

    #[test]
    fn two_threads_on_one_tid_store_or_count_every_event() {
        const PER_THREAD: usize = 200_000;
        for round in 0..5 {
            let rec = RingRecorder::with_capacity("t", 1, 1 << 20);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        for n in 0..PER_THREAD as u32 {
                            rec.record(0, TraceEvent::Getsub { n });
                        }
                    });
                }
            });
            let dropped = rec.dropped();
            let trace = rec.finish();
            assert_eq!(
                trace.len() as u64 + dropped,
                2 * PER_THREAD as u64,
                "round {round}: {} stored, {dropped} dropped",
                trace.len()
            );
        }
    }

    #[test]
    fn out_of_range_tid_is_a_drop() {
        let rec = RingRecorder::new("t", 2);
        rec.record(5, TraceEvent::Queue);
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.finish().len(), 0);
    }

    #[test]
    fn finish_yields_every_event_in_record_order() {
        let rec = RingRecorder::with_capacity("t", 2, 64);
        for n in 0..60u32 {
            rec.record(0, TraceEvent::Getsub { n });
        }
        rec.record(1, TraceEvent::Queue);
        assert_eq!(rec.dropped(), 0, "60 events fit a 64-slot ring");
        let trace = rec.finish();
        let ns: Vec<u32> = trace.threads()[0]
            .iter()
            .map(|s| match s.event {
                TraceEvent::Getsub { n } => n,
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(ns, (0..60).collect::<Vec<u32>>());
        assert_eq!(trace.threads()[1].len(), 1);
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn a_stamped_event_is_two_words() {
        // The rings store events by value: a timestamp and an 8-byte event.
        assert_eq!(std::mem::size_of::<Stamped>(), 16);
    }

    #[test]
    fn barrier_episodes_is_min_across_threads() {
        let mk = |enters: usize| -> Vec<Stamped> {
            (0..enters)
                .map(|i| Stamped {
                    ts_ns: i as u64,
                    event: TraceEvent::BarrierEnter,
                })
                .collect()
        };
        let t = Trace::from_parts("t", vec![mk(3), mk(5)], 0);
        assert_eq!(t.barrier_episodes(), 3);
        assert_eq!(t.len(), 8);
    }
}
