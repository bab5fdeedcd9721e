//! The mode-dependent constructs, checked once for every [`SyncMode`]
//! through the [`SyncEnv`] factory — the only seam callers have.
//!
//! Fixed rows pin exact behaviour (results, op counts); the property tests
//! below them (module `std_fallback`) re-run the concurrent invariants on
//! shapes drawn from the seeded [`SmallRng`](splash4_parmacs::SmallRng), so
//! they stay in tier-1 without any external dependency.

use splash4_parmacs::{
    chunk_range, AtomicF64, CombiningCore, Std, SyncCounters, SyncEnv, SyncMode, SyncProfile, Team,
};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One step of a single-threaded counter script with its expected result.
enum Step {
    Next(Option<usize>),
    Chunk(usize, Range<usize>),
    /// `next_chunk(chunk)` until empty must yield exactly the range, in order.
    Drain(usize, Range<usize>),
    Reset,
}

#[test]
fn counters_dispense_identically_in_every_mode() {
    use Step::*;
    // (range, script, getsub calls the script makes)
    let rows: [(Range<usize>, Vec<Step>, u64); 3] = [
        // 15 productive chunks + 1 empty poll + 2 single grabs.
        (
            0..100,
            vec![Drain(7, 0..100), Next(None), Reset, Next(Some(0))],
            18,
        ),
        (
            0..3,
            vec![
                Next(Some(0)),
                Next(Some(1)),
                Next(Some(2)),
                Next(None),
                Reset,
                Next(Some(0)),
            ],
            5,
        ),
        // A chunk that overflows `start + chunk` must saturate: the
        // exhausted counter stays empty and never re-issues an index.
        (
            0..10,
            vec![
                Chunk(usize::MAX, 0..10),
                Chunk(usize::MAX, 10..10),
                Next(None),
            ],
            3,
        ),
    ];
    for mode in SyncMode::ALL {
        for (range, script, getsubs) in &rows {
            let env = SyncEnv::new(mode, 2);
            let c = env.counter("row", range.clone());
            assert_eq!(c.range(), *range);
            for step in script {
                match step {
                    Next(want) => assert_eq!(c.next(), *want, "{mode:?} {range:?}"),
                    Chunk(n, want) => assert_eq!(c.next_chunk(*n), *want, "{mode:?} {range:?}"),
                    Drain(n, want) => {
                        let mut got = Vec::new();
                        loop {
                            let r = c.next_chunk(*n);
                            if r.is_empty() {
                                break;
                            }
                            got.extend(r);
                        }
                        assert_eq!(got, want.clone().collect::<Vec<_>>(), "{mode:?}");
                    }
                    Reset => c.reset(),
                }
            }
            // Every logical grab (exhausted polls included) is one getsub;
            // resets never are, but they do go through the serial executor.
            let p = env.profile();
            assert_eq!(p.getsub_calls, *getsubs, "{mode:?} {range:?}");
            let resets = script.iter().filter(|s| matches!(s, Reset)).count() as u64;
            let serial_ops = getsubs + resets;
            let mechanism = (p.lock_acquires, p.atomic_rmws, p.combine_ops);
            let want = match mode {
                SyncMode::LockBased => (serial_ops, 0, 0),
                SyncMode::LockFree => (0, *getsubs, 0),
                SyncMode::Combining => (0, serial_ops, serial_ops),
            };
            assert_eq!(
                mechanism, want,
                "{mode:?} {range:?}: (locks, rmws, combines)"
            );
        }
        check_counter_hands_out_each_index_once(mode, 5, 200, 4);
    }
}

fn check_counter_hands_out_each_index_once(
    mode: SyncMode,
    start: usize,
    len: usize,
    threads: usize,
) {
    let range = start..start + len;
    let counter = SyncEnv::new(mode, threads).counter("prop", range.clone());
    let seen = Mutex::new(HashSet::new());
    Team::new(threads).run(|_| {
        let mut local = Vec::new();
        while let Some(i) = counter.next() {
            local.push(i);
        }
        let mut s = seen.lock().unwrap();
        for i in local {
            assert!(s.insert(i), "{mode:?}: duplicate index {i}");
        }
    });
    let s = seen.into_inner().unwrap();
    assert_eq!(s.len(), len);
    for i in range {
        assert!(s.contains(&i));
    }
}

fn check_reducer_sums_exactly(mode: SyncMode, per: usize, threads: usize) {
    // Integer-valued adds are exact in f64, so fold order cannot change the
    // total.
    let env = SyncEnv::new(mode, threads);
    let red = env.reducer_f64();
    Team::new(threads).run(|ctx| {
        for i in 0..per {
            red.add((ctx.tid * per + i) as f64);
        }
    });
    let want: usize = (0..threads * per).sum();
    assert_eq!(red.load(), want as f64, "{mode:?}");
    assert_eq!(env.profile().reduce_ops, (threads * per) as u64);
}

#[test]
fn reducers_fold_exactly_in_every_mode() {
    for mode in SyncMode::ALL {
        check_reducer_sums_exactly(mode, 250, 4);

        let env = SyncEnv::new(mode, 4);
        let rf = env.reducer_f64();
        rf.store(f64::NEG_INFINITY);
        Team::new(4).run(|ctx| {
            for i in 0..100 {
                rf.max((ctx.tid * 100 + i) as f64);
            }
        });
        assert_eq!(rf.load(), 399.0, "{mode:?}");
        rf.store(f64::INFINITY);
        rf.min(-3.0);
        rf.min(5.0);
        assert_eq!(rf.load(), -3.0, "{mode:?}");

        let ru = env.reducer_u64();
        Team::new(4).run(|_| {
            for _ in 0..100 {
                ru.add(3);
            }
        });
        assert_eq!(ru.load(), 1200, "{mode:?}");
        ru.store(7);
        assert_eq!(ru.load(), 7, "{mode:?}");
    }
}

#[test]
fn barriers_separate_phases_in_every_mode() {
    const EPISODES: usize = 50;
    for mode in SyncMode::ALL {
        for n in [1, 2, 3, 5] {
            let env = SyncEnv::new(mode, n);
            let barrier = env.barrier();
            assert_eq!(barrier.participants(), n);
            let phase = AtomicU64::new(0);
            Team::new(n).run(|ctx| {
                for e in 0..EPISODES {
                    // Everyone must observe the same completed phase count
                    // before and after each episode.
                    let before = phase.load(Ordering::SeqCst);
                    assert!(before >= e as u64, "{mode:?}: phase ran behind");
                    barrier.wait(ctx.tid);
                    if ctx.tid == 0 {
                        phase.fetch_add(1, Ordering::SeqCst);
                    }
                    barrier.wait(ctx.tid);
                    let after = phase.load(Ordering::SeqCst);
                    assert!(
                        after >= (e + 1) as u64,
                        "{mode:?}: thread let through early: episode {e}, after {after}"
                    );
                }
            });
            assert_eq!(phase.load(Ordering::SeqCst), EPISODES as u64);
            assert_eq!(
                env.profile().barrier_waits,
                (n * EPISODES * 2) as u64,
                "each thread crossing counts once"
            );
        }
        let empty = std::panic::catch_unwind(|| SyncEnv::new(mode, 1).barrier_for(0));
        assert!(
            empty.is_err(),
            "{mode:?}: zero participants must be rejected"
        );
    }
}

fn check_barrier_never_releases_early(mode: SyncMode, threads: usize, episodes: usize) {
    let barrier = SyncEnv::new(mode, threads).barrier();
    let arrived = AtomicU64::new(0);
    Team::new(threads).run(|ctx| {
        for e in 0..episodes {
            arrived.fetch_add(1, Ordering::SeqCst);
            barrier.wait(ctx.tid);
            // After the barrier, every thread must have arrived e+1 times.
            let total = arrived.load(Ordering::SeqCst);
            assert!(
                total >= ((e + 1) * threads) as u64,
                "{mode:?}: released with only {total} arrivals at episode {e}"
            );
            barrier.wait(ctx.tid);
        }
    });
}

/// One pass over every factory construct; returns the mode's profile.
fn exercise_every_construct(mode: SyncMode) -> SyncProfile {
    let env = SyncEnv::new(mode, 2);
    let c = env.counter("x", 0..5);
    while c.next().is_some() {}
    let b = env.barrier();
    Team::new(2).run(|ctx| b.wait(ctx.tid));
    env.reducer_f64().add(1.0);
    env.reducer_u64().add(1);
    let q = env.task_queue::<u32>();
    q.push(1);
    let _ = q.pop();
    let _ = q.pop();
    env.profile()
}

#[test]
fn modes_differ_in_mechanism_not_in_logical_counts() {
    let [s3, s4, s4x] = SyncMode::ALL.map(exercise_every_construct);

    assert!(
        s3.lock_acquires > 0,
        "lock-based primitives must take locks"
    );
    assert_eq!(s3.atomic_rmws, 0, "no atomic RMWs in pure lock-based mode");
    assert_eq!(s3.combine_ops, 0);

    assert_eq!(s4.lock_acquires, 0, "lock-free mode must not acquire locks");
    assert!(s4.atomic_rmws > 0);
    assert_eq!(s4.combine_ops, 0);

    assert_eq!(s4x.lock_acquires, 0, "combining mode must not take locks");
    assert!(s4x.combine_ops > 0, "requests must route through the core");
    assert!((1..=s4x.combine_ops).contains(&s4x.combine_batches));
    assert!(s4x.atomic_rmws > 0);

    for p in [s3, s4, s4x] {
        assert_eq!(p.getsub_calls, 6);
        assert_eq!(p.barrier_waits, 2);
        assert_eq!(p.reduce_ops, 2);
        assert_eq!(p.queue_ops, 2, "one push and one delivered pop");
    }
}

fn add_u64(sum: &mut u64, _op: u64, arg: u64) -> u64 {
    *sum += arg;
    *sum
}

#[test]
fn combining_core_serializes_publishers() {
    // (records, threads, ops per thread): a full team, then more threads
    // than records — the claim probe must serialize them without losing ops.
    for (records, threads, per) in [(4usize, 4usize, 2_000u64), (2, 5, 200)] {
        let stats = Arc::new(SyncCounters::new());
        let core = CombiningCore::<u64>::new(records, 0u64, add_u64, Arc::clone(&stats));
        assert_eq!(core.capacity(), records);
        Team::new(threads).run(|_| {
            for _ in 0..per {
                core.run(1, 3);
            }
        });
        let ops = threads as u64 * per;
        assert_eq!(core.run(1, 0), ops * 3);
        let p = stats.snapshot();
        assert_eq!(p.combine_ops, ops + 1);
        // Combining batches: never more lock handoffs than ops.
        assert!((1..=p.combine_ops).contains(&p.combine_batches));
        assert_eq!(p.lock_acquires, 0, "combining takes no sleeping locks");
    }
}

fn check_chunk_range_partitions(total: usize, n: usize) {
    let mut seen = 0usize;
    let mut last_end = 0usize;
    for tid in 0..n {
        let r = chunk_range(total, tid, n);
        assert_eq!(r.start, last_end, "chunks must be contiguous");
        last_end = r.end;
        seen += r.len();
        assert!(r.len() <= total / n + 1);
    }
    assert_eq!(seen, total);
    assert_eq!(last_end, total);
}

fn check_atomic_f64_adds_linearize(values: &[i32], threads: usize) {
    let stats = SyncCounters::new();
    let cell = AtomicF64::<Std>::new(0.0);
    let chunk = values.len().div_ceil(threads);
    Team::new(threads).run(|ctx| {
        let lo = (ctx.tid * chunk).min(values.len());
        let hi = ((ctx.tid + 1) * chunk).min(values.len());
        for &v in &values[lo..hi] {
            cell.add(v as f64, &stats);
        }
    });
    let want: i64 = values.iter().map(|&v| i64::from(v)).sum();
    assert_eq!(cell.load(), want as f64);
}

fn check_queue_preserves_multiset(mode: SyncMode, tasks: &[u32], threads: usize) {
    let q = SyncEnv::new(mode, threads).task_queue::<u32>();
    for &t in tasks {
        q.push(t);
    }
    let drained = Mutex::new(Vec::new());
    Team::new(threads).run(|_| {
        let mut local = Vec::new();
        while let Some(v) = q.pop() {
            local.push(v);
        }
        drained.lock().unwrap().extend(local);
    });
    let mut got = drained.into_inner().unwrap();
    let mut want = tasks.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
}

mod std_fallback {
    use super::*;
    use splash4_parmacs::SmallRng;

    const CASES: usize = 16;

    fn any_mode(rng: &mut SmallRng) -> SyncMode {
        SyncMode::ALL[rng.gen_range(0usize..3)]
    }

    #[test]
    fn chunk_range_partitions_any_total() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE01);
        for _ in 0..CASES {
            check_chunk_range_partitions(rng.gen_range(0usize..10_000), rng.gen_range(1usize..64));
        }
    }

    #[test]
    fn counters_hand_out_each_index_once() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE02);
        for _ in 0..CASES {
            check_counter_hands_out_each_index_once(
                any_mode(&mut rng),
                rng.gen_range(0usize..100),
                rng.gen_range(0usize..400),
                rng.gen_range(1usize..5),
            );
        }
    }

    #[test]
    fn reducers_sum_exactly_for_integer_values() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE03);
        for _ in 0..CASES {
            check_reducer_sums_exactly(
                any_mode(&mut rng),
                rng.gen_range(1usize..200),
                rng.gen_range(1usize..5),
            );
        }
    }

    #[test]
    fn atomic_f64_fetch_update_is_linearizable_for_adds() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE04);
        for _ in 0..CASES {
            let values: Vec<i32> = (0..rng.gen_range(1usize..200))
                .map(|_| rng.gen_range(0u32..2000) as i32 - 1000)
                .collect();
            check_atomic_f64_adds_linearize(&values, rng.gen_range(1usize..5));
        }
    }

    #[test]
    fn queues_preserve_the_task_multiset() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE05);
        for _ in 0..CASES {
            let tasks: Vec<u32> = (0..rng.gen_range(0usize..300))
                .map(|_| rng.gen::<u32>())
                .collect();
            check_queue_preserves_multiset(any_mode(&mut rng), &tasks, rng.gen_range(1usize..4));
        }
    }

    #[test]
    fn barriers_never_release_early() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE06);
        for _ in 0..CASES {
            check_barrier_never_releases_early(
                any_mode(&mut rng),
                rng.gen_range(1usize..6),
                rng.gen_range(1usize..20),
            );
        }
    }
}
