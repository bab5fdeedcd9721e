//! Phase barriers (`BARRIER` in PARMACS).
//!
//! Two algorithms:
//!
//! * [`CondvarBarrier`] — mutex + condition-variable generation barrier; the
//!   pthreads expansion used by Splash-3. Threads *sleep* while waiting, so
//!   every episode pays wake-up latency proportional to the scheduler.
//! * [`SenseBarrier`] — sense-reversing, spin-with-backoff; the atomic
//!   expansion used by Splash-4 (arrivals `fetch_add` a central counter) and
//!   Splash-4x (arrivals batched through a combiner). Only the arrival
//!   strategy differs; the release phase is the same code.
//!
//! Both are reusable (cyclic) and instrumented through a shared
//! [`SyncCounters`].

use crate::atomics::{Atomics, IntWord, Std, Word};
use crate::backoff::Backoff;
use crate::combining::CombiningCore;
use crate::spec::SenseBarrierSpec;
use crate::stats::{Counter, SyncCounters};
use crate::trace::TraceEvent;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// A reusable (cyclic) phase barrier for a fixed set of participants.
pub trait Barrier: Send + Sync + fmt::Debug {
    /// Block until all `participants()` threads have called `wait` for the
    /// current episode. `tid` is the calling thread's team index (the
    /// central barriers here ignore it).
    fn wait(&self, tid: usize);

    /// Number of threads that must arrive to release an episode.
    fn participants(&self) -> usize;
}

/// Mutex + condvar generation barrier (the Splash-3 / pthreads expansion).
pub struct CondvarBarrier {
    n: usize,
    state: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
    stats: Arc<SyncCounters>,
    trace_id: u32,
}

impl CondvarBarrier {
    /// Barrier for `n` participants reporting into `stats`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, stats: Arc<SyncCounters>) -> CondvarBarrier {
        assert!(n > 0, "barrier needs at least one participant");
        CondvarBarrier {
            n,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            trace_id: stats.alloc_barrier_id(),
            stats,
        }
    }
}

impl Barrier for CondvarBarrier {
    fn wait(&self, _tid: usize) {
        self.stats.bump(Counter::BarrierWaits);
        self.stats
            .trace(TraceEvent::BarrierEnter { id: self.trace_id });
        self.stats.timed(Counter::BarrierWaitNs, || {
            let mut st = self.state.lock().expect("barrier mutex poisoned");
            let gen = st.1;
            st.0 += 1;
            if st.0 == self.n {
                st.0 = 0;
                st.1 = st.1.wrapping_add(1);
                self.cv.notify_all();
            } else {
                while st.1 == gen {
                    st = self.cv.wait(st).expect("barrier mutex poisoned");
                }
            }
        });
        self.stats
            .trace(TraceEvent::BarrierExit { id: self.trace_id });
    }

    fn participants(&self) -> usize {
        self.n
    }
}

impl fmt::Debug for CondvarBarrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CondvarBarrier")
            .field("n", &self.n)
            .finish()
    }
}

/// How a [`SenseBarrier`] counts arrivals.
enum Arrival<A: Atomics> {
    /// Splash-4: every arriver `fetch_add`s one central counter.
    FetchAdd(A::Usize),
    /// Splash-4x: one combiner counts a whole batch of arrivals in its cache
    /// instead of `n` threads hitting the same counter line.
    Combined(CombiningCore<u64, A>),
}

/// Combiner-side arrival count: `arg` is the participant count; the result
/// is non-zero for the arrival that completes the episode.
fn apply_arrive(arrived: &mut u64, _op: u64, n: u64) -> u64 {
    *arrived += 1;
    if *arrived == n {
        *arrived = 0;
        1
    } else {
        0
    }
}

const OP_ARRIVE: u64 = 1;

/// Central sense-reversing atomic barrier (the Splash-4 and Splash-4x
/// expansion): the episode-completing arriver bumps a generation word
/// everyone else spins on with backoff.
///
/// The classic per-thread "local sense" is replaced by an equivalent
/// generation counter, which keeps the barrier free of per-thread state and
/// therefore shareable behind `&self`.
pub struct SenseBarrier<A: Atomics = Std> {
    n: usize,
    arrival: Arrival<A>,
    generation: A::U64,
    stats: Arc<SyncCounters>,
    trace_id: u32,
}

impl<A: Atomics> SenseBarrier<A> {
    /// Barrier for `n` participants arriving by `fetch_add`, reporting into
    /// `stats`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, stats: Arc<SyncCounters>) -> SenseBarrier<A> {
        let arrived = A::Usize::new("barrier.arrived", 0);
        SenseBarrier::with_arrival(n, Arrival::FetchAdd(arrived), stats)
    }

    /// Barrier for `n` participants whose arrivals are batched through a
    /// flat-combining core, reporting into `stats`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn combining(n: usize, stats: Arc<SyncCounters>) -> SenseBarrier<A> {
        let core = CombiningCore::new_in(n, 0, apply_arrive, Arc::clone(&stats));
        SenseBarrier::with_arrival(n, Arrival::Combined(core), stats)
    }

    fn with_arrival(n: usize, arrival: Arrival<A>, stats: Arc<SyncCounters>) -> SenseBarrier<A> {
        assert!(n > 0, "barrier needs at least one participant");
        SenseBarrier {
            n,
            arrival,
            generation: A::U64::new("barrier.generation", 0),
            trace_id: stats.alloc_barrier_id(),
            stats,
        }
    }

    /// Count one arrival; `true` for the arrival that completes the episode
    /// (wherever a combiner applied it).
    fn arrive(&self, s: SenseBarrierSpec) -> bool {
        match &self.arrival {
            Arrival::FetchAdd(arrived) => {
                self.stats.bump(Counter::AtomicRmws);
                let last = arrived.fetch_add(1, s.arrive_rmw) == self.n - 1;
                if last {
                    arrived.store(0, s.arrived_reset);
                }
                last
            }
            Arrival::Combined(core) => core.run(OP_ARRIVE, self.n as u64) != 0,
        }
    }
}

impl<A: Atomics> Barrier for SenseBarrier<A> {
    fn wait(&self, _tid: usize) {
        let s = A::spec(SenseBarrierSpec::SPLASH4);
        self.stats.bump(Counter::BarrierWaits);
        self.stats
            .trace(TraceEvent::BarrierEnter { id: self.trace_id });
        self.stats.timed(Counter::BarrierWaitNs, || {
            let gen = self.generation.load(s.generation_load);
            if self.arrive(s) {
                // Last arriver: release everyone.
                self.generation.fetch_add(1, s.generation_bump);
            } else {
                let mut backoff = Backoff::new();
                while self.generation.load(s.spin_load) == gen {
                    self.generation.snooze(&mut backoff);
                }
            }
        });
        self.stats
            .trace(TraceEvent::BarrierExit { id: self.trace_id });
    }

    fn participants(&self) -> usize {
        self.n
    }
}

impl<A: Atomics> fmt::Debug for SenseBarrier<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SenseBarrier").field("n", &self.n).finish()
    }
}
