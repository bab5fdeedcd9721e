//! `stream` — bounded channel/pipeline churn (suite extension, PR 10).
//!
//! A staged message pipeline: every item enters stage 0, is transformed
//! by a deterministic mixing function at each stage, and is summed at the
//! sink. All team threads are peers: each pushes its static chunk of
//! source items into the first stage's queue, then services stages
//! last-to-first (pop, transform, push downstream) until the sink count
//! reaches the item total. Per-thread partial sums reach the master
//! through the suite's **one-shot handoff pattern**: a plain payload slot
//! published by a pause-variable flag (mutex+condvar under Splash-3, an
//! acquire/release atomic flag under Splash-4).
//!
//! The stage queues follow the queue-class policy: a mutex-guarded FIFO
//! when lock-based, the Vyukov bounded MPMC ring ([`BoundedMpmcQueue`],
//! orderings from `RingSpec::SPLASH4`) otherwise. Capacity equals the
//! item count, so producers never block and the pipeline cannot deadlock.
//!
//! Synchronization profile: this is the suite's **queue- and flag-heavy**
//! workload — no `GETSUB` counters, barriers only at the very end; the
//! op mix is dominated by enqueue/dequeue traffic none of the original
//! kernels (which queue at most a task list at startup) come close to
//! (the `D1-diversity` claim).

use crate::common::{KernelResult, SharedCounters, SharedSlice};
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::{
    Backoff, BoundedMpmcQueue, ConstructClass, LockedQueue, PhaseSpec, SyncEnv, SyncMode,
    TaskQueue as _, WorkModel,
};
use std::sync::Arc;

/// Stream kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Items fed through the pipeline.
    pub items: usize,
    /// Pipeline stages (each with its own bounded queue).
    pub stages: usize,
    /// Seed mixed into the source values.
    pub seed: u64,
}

impl StreamConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> StreamConfig {
        // `Check` keeps one relay stage and a handful of items so the
        // shadow scenario's schedules stay exhaustively explorable.
        let (items, stages) = match class {
            InputClass::Check => (8, 2),
            InputClass::Test => (8_192, 4),
            InputClass::Small => (65_536, 4),
            InputClass::Native => (262_144, 6),
        };
        StreamConfig {
            items,
            stages,
            seed: 0x5eed_57e4,
        }
    }
}

/// The per-stage mixing step (xorshift-multiply; cheap but
/// order-sensitive in `s`, so stage coverage is checkable).
pub fn transform(x: u64, s: u32) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7 + s) ^ (0xA5A5_0000u64 + s as u64)
}

fn source(cfg: &StreamConfig, i: usize) -> u64 {
    cfg.seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Sequential oracle: the wrapping sum of every item's full
/// transform chain, reduced mod 2^53 so it is exact in an `f64`.
pub fn oracle(cfg: &StreamConfig) -> f64 {
    let mut sum = 0u64;
    for i in 0..cfg.items {
        let mut v = source(cfg, i);
        for s in 0..cfg.stages {
            v = transform(v, s as u32);
        }
        sum = sum.wrapping_add(v);
    }
    (sum % (1u64 << 53)) as f64
}

/// One pipeline stage's queue, per the queue-class policy.
#[allow(clippy::large_enum_variant)] // a handful per run, hot path stays direct
enum StageQ {
    Locked(LockedQueue<u64>),
    Ring(BoundedMpmcQueue<u64>),
}

impl StageQ {
    fn push(&self, v: u64) {
        match self {
            StageQ::Locked(q) => q.push(v),
            // Capacity equals the item total, so the ring can never be
            // full; a failed push would be a capacity-accounting bug.
            StageQ::Ring(q) => q.try_push(v).expect("stream ring sized to item count"),
        }
    }

    fn pop(&self) -> Option<u64> {
        match self {
            StageQ::Locked(q) => q.pop(),
            StageQ::Ring(q) => q.try_pop(),
        }
    }
}

/// Run the pipeline under `env`; validates the sink digest against the
/// sequential oracle and that every item reached the sink exactly once.
pub fn run(cfg: &StreamConfig, env: &SyncEnv) -> KernelResult {
    let n = cfg.items;
    let stages = cfg.stages;
    let nthreads = env.nthreads();
    let want = oracle(cfg);

    let queues: Vec<StageQ> = (0..stages)
        .map(|_| match env.mode_for(ConstructClass::Queue) {
            SyncMode::LockBased => StageQ::Locked(LockedQueue::new(Arc::clone(env.stats()))),
            SyncMode::LockFree | SyncMode::Combining => {
                StageQ::Ring(BoundedMpmcQueue::new(n, Arc::clone(env.stats())))
            }
        })
        .collect();

    // sunk[0] counts items that completed the final stage.
    let sunk = SharedCounters::new(env, 1, 1);
    // One-shot handoff: plain payload slots published by per-thread flags.
    let mut slot_store = vec![0u64; nthreads];
    let slots = SharedSlice::new(&mut slot_store);
    let flags = env.flag_array(nthreads);
    let mut total_store = vec![0u64; 1];
    let total = SharedSlice::new(&mut total_store);
    let barrier = env.barrier();

    let elapsed = driver::roi(env, |ctx| {
        // Produce: feed this thread's chunk into stage 0.
        for i in ctx.chunk(n) {
            queues[0].push(source(cfg, i));
        }

        // Relay + sink: service stages from the back so items drain
        // forward; exit once the sink has seen every item.
        let mut my_sum = 0u64;
        let mut backoff = Backoff::new();
        while sunk.load(0) < n as u64 {
            let mut progressed = false;
            for s in (0..stages).rev() {
                while let Some(v) = queues[s].pop() {
                    progressed = true;
                    let v = transform(v, s as u32);
                    if s + 1 < stages {
                        queues[s + 1].push(v);
                    } else {
                        my_sum = my_sum.wrapping_add(v);
                        sunk.add(0, 1);
                    }
                }
            }
            if progressed {
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }

        // One-shot handoff: publish the partial sum, flag the master.
        // SAFETY: slot `tid` is thread-private; the flag's release edge
        // publishes the plain write.
        unsafe { slots.set(ctx.tid, my_sum) };
        flags[ctx.tid].set();
        if ctx.is_master() {
            let mut sum = 0u64;
            for (t, flag) in flags.iter().enumerate() {
                flag.wait();
                // SAFETY: the flag's acquire edge ordered slot `t`'s write
                // before this read; thread `t` writes it no more.
                sum = sum.wrapping_add(unsafe { slots.get(t) });
            }
            // SAFETY: only the master writes the total.
            unsafe { total.set(0, sum % (1u64 << 53)) };
        }
        barrier.wait(ctx.tid);
    });

    let got = total_store[0] as f64;
    let validated = got == want && sunk.load(0) == n as u64;

    let nu = n as u64;
    let su = stages as u64;
    let work = WorkModel::new("stream")
        .phase(PhaseSpec::compute("produce", nu, 8).pushes(1.0).barriers(0))
        .phase(
            PhaseSpec::compute("relay", nu * su, 18)
                .dispatch(splash4_parmacs::Dispatch::Pool)
                .pushes((su - 1) as f64 / su as f64)
                .data_touches(1.0 / su as f64)
                .barriers(0),
        )
        .phase(
            PhaseSpec::compute("handoff", nthreads as u64, 200)
                .flags(2.0)
                .barriers(1),
        );

    driver::finish(env, elapsed, got, validated, work)
}

/// `stream`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct Stream;

impl Workload for Stream {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = StreamConfig::class(class);
        format!("{} items through {} stages", c.items, c.stages)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&StreamConfig::class(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_single_thread() {
        let cfg = StreamConfig::class(InputClass::Test);
        for mode in SyncMode::ALL {
            let r = run(&cfg, &SyncEnv::new(mode, 1));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn validates_multithreaded() {
        let cfg = StreamConfig::class(InputClass::Test);
        for mode in SyncMode::ALL {
            for t in [2, 3, 4] {
                let r = run(&cfg, &SyncEnv::new(mode, t));
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn checksum_is_mode_and_thread_invariant() {
        let cfg = StreamConfig::class(InputClass::Test);
        let want = oracle(&cfg);
        for mode in SyncMode::ALL {
            for t in [1, 3] {
                let r = run(&cfg, &SyncEnv::new(mode, t));
                assert_eq!(r.checksum, want, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn lock_free_mode_is_queue_heavy_without_locks() {
        let cfg = StreamConfig::class(InputClass::Test);
        let env = SyncEnv::new(SyncMode::LockFree, 2);
        let r = run(&cfg, &env);
        assert!(r.validated);
        assert_eq!(r.profile.lock_acquires, 0);
        // Every item is pushed+popped at every stage at minimum.
        assert!(r.profile.queue_ops >= 2 * (cfg.items * cfg.stages) as u64);
        assert!(r.profile.atomic_rmws > 0);
        assert_eq!(r.profile.getsub_calls, 0, "stream uses no GETSUB");
    }

    #[test]
    fn lock_based_mode_routes_queues_through_locks() {
        let cfg = StreamConfig::class(InputClass::Test);
        let env = SyncEnv::new(SyncMode::LockBased, 2);
        let r = run(&cfg, &env);
        assert!(r.validated);
        assert_eq!(r.profile.atomic_rmws, 0);
        assert!(r.profile.lock_acquires > 0);
        assert!(r.profile.queue_ops >= 2 * (cfg.items * cfg.stages) as u64);
    }

    #[test]
    fn transform_is_stage_sensitive() {
        assert_ne!(transform(42, 0), transform(42, 1));
        let cfg = StreamConfig::class(InputClass::Check);
        assert!(oracle(&cfg) >= 0.0);
        assert!(oracle(&cfg) < (1u64 << 53) as f64);
    }
}
