//! Phase barriers (`BARRIER` in PARMACS).
//!
//! Two algorithms:
//!
//! * [`CondvarBarrier`] — futex generation barrier; the pthreads expansion
//!   used by Splash-3. Threads *sleep* while waiting, so every episode pays
//!   wake-up latency proportional to the scheduler.
//! * [`SenseBarrier`] — sense-reversing, spin-with-backoff; the atomic
//!   expansion used by Splash-4 (arrivals `fetch_add` a central counter) and
//!   Splash-4x (arrivals batched through a combiner). Only the arrival
//!   strategy differs; the release phase is the same code.
//!
//! Both are reusable (cyclic) and instrumented through a shared
//! [`SyncCounters`].

use crate::atomics::{Atomics, IntWord, Std, Wake, Word};
use crate::backoff::Backoff;
use crate::combining::CombiningCore;
use crate::spec::SenseBarrierSpec;
use crate::stats::{Counter, SyncCounters};
use crate::trace::TraceEvent;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A reusable (cyclic) phase barrier for a fixed set of participants.
pub trait Barrier: Send + Sync + fmt::Debug {
    /// Block until all `participants()` threads have called `wait` for the
    /// current episode. `tid` is the calling thread's team index (the
    /// central barriers here ignore it).
    fn wait(&self, tid: usize);

    /// Number of threads that must arrive to release an episode.
    fn participants(&self) -> usize;
}

/// One episode as every barrier here accounts it: counted, traced on entry
/// and exit, and timed around `wait`.
fn episode(stats: &SyncCounters, wait: impl FnOnce()) {
    stats.record(TraceEvent::BarrierEnter);
    stats.timed(Counter::BarrierWaitNs, wait);
    stats.record(TraceEvent::BarrierExit);
}

/// Futex generation barrier (the Splash-3 / pthreads expansion): arrivals
/// count on one word; the last arriver bumps a generation word and wakes
/// every sleeper, the others sleep in [`Atomics::wait`] until it moves.
pub struct CondvarBarrier<A: Atomics = Std> {
    n: usize,
    arrived: A::U32,
    generation: A::U32,
    stats: Arc<SyncCounters>,
}

impl<A: Atomics> CondvarBarrier<A> {
    /// Barrier for `n` participants reporting into `stats`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, stats: Arc<SyncCounters>) -> CondvarBarrier<A> {
        assert!(n > 0, "barrier needs at least one participant");
        CondvarBarrier {
            n,
            arrived: A::U32::new("barrier.arrived", 0),
            generation: A::U32::new("barrier.generation", 0),
            stats,
        }
    }
}

impl<A: Atomics> Barrier for CondvarBarrier<A> {
    fn wait(&self, _tid: usize) {
        episode(&self.stats, || {
            let gen = self.generation.load(Ordering::Acquire);
            if self.arrived.fetch_add(1, Ordering::AcqRel) as usize == self.n - 1 {
                // Nobody arrives again before the bump releases them.
                self.arrived.store(0, Ordering::Relaxed);
                self.generation.fetch_add(1, Ordering::Release);
                A::wake(&self.generation, Wake::All);
            } else {
                while self.generation.load(Ordering::Acquire) == gen {
                    A::wait(&self.generation, gen);
                }
            }
        });
    }

    fn participants(&self) -> usize {
        self.n
    }
}

impl<A: Atomics> fmt::Debug for CondvarBarrier<A> {
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
        let core = CombiningCore::new(n, 0, apply_arrive, Arc::clone(&stats));
        SenseBarrier::with_arrival(n, Arrival::Combined(core), stats)
    }

    fn with_arrival(n: usize, arrival: Arrival<A>, stats: Arc<SyncCounters>) -> SenseBarrier<A> {
        assert!(n > 0, "barrier needs at least one participant");
        SenseBarrier {
            n,
            arrival,
            generation: A::U64::new("barrier.generation", 0),
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
        episode(&self.stats, || {
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
