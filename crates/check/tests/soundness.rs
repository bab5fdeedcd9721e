//! Mutation tests: the checker must catch every injected bug, pass the
//! unmutated originals, and behave deterministically — and, now that the
//! scenarios run the shipped constructs, cover what no transcription could.

use splash4_check::{
    cmap_chain_scenario, explore, getsub_scenario, locked_queue_scenario, mutants, mutated,
    pool_scenario, reduce_f64_scenario, reduce_u64_scenario, replay, sense_barrier_scenario,
    treiber_scenario, Budget, Fault, Model, Op, RetVal, Sandbox, Schedule, SpecModel, Step,
};
use splash4_kernels::cmap::LockFreeMap;
use splash4_parmacs::atomics::{Atomics, DataCell, Std, Word};
use splash4_parmacs::{
    CombiningCore, CondvarFlag, IndexCounter, PauseVar, ReduceU64, Reducer, SyncMode, TreiberSpec,
};
use splash4_reclaim::{PoolShape, ReclaimKind, TaskPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn budget(seed: u64) -> Budget {
    Budget::small(seed)
}

/// The counterexample string is pinned, like the engine's in `pinned.rs`,
/// but it is a fact about `TreiberStack`, not about the engine: it was
/// re-captured when the scenario began to run the shipped stack, whose real
/// control flow (a node allocated per push, the retired-list CAS loop after
/// each pop) has more schedule points than the old transcription — the
/// default schedule is 18 steps where the shadow's was 12. Re-capture it
/// whenever `TreiberStack` gains or loses an atomic operation.
#[test]
fn treiber_relaxed_pop_mutant_races() {
    let scenario = treiber_scenario(TreiberSpec {
        pop_load: Ordering::Relaxed,
        pop_cas_fail: Ordering::Relaxed,
        ..TreiberSpec::SPLASH4
    });
    let report = explore(&scenario, &budget(1));
    let cex = report.counterexample.expect("weakened pop must race");
    assert_eq!(cex.failure.kind(), "data-race", "{}", cex);
    assert!(cex.failure.to_string().contains("stack.node"), "{}", cex);
    assert_eq!(cex.schedule.to_string(), "0*5,1*7");
}

#[test]
fn unmutated_originals_pass() {
    assert!(
        explore(&treiber_scenario(TreiberSpec::SPLASH4), &budget(4))
            .counterexample
            .is_none(),
        "shipped Treiber spec must verify"
    );
    assert!(
        explore(&sense_barrier_scenario(SyncMode::LockFree), &budget(5))
            .counterexample
            .is_none(),
        "shipped barrier must verify"
    );
    assert!(
        explore(&reduce_f64_scenario(SyncMode::LockFree), &budget(6))
            .counterexample
            .is_none(),
        "shipped CAS reduction must verify"
    );
}

#[test]
fn counterexamples_replay_from_their_rendered_schedule() {
    for (name, _desc, expect, scenario) in mutants() {
        let report = explore(&scenario, &budget(7));
        let cex = report
            .counterexample
            .unwrap_or_else(|| panic!("{name} not detected"));
        assert!(expect.contains(&cex.failure.kind()), "{name}: {cex}");
        // Round-trip the schedule through its string form and replay it.
        let parsed = Schedule::parse(&cex.schedule.to_string()).unwrap();
        let re = replay(&scenario, &parsed, Budget::MAX_STEPS);
        let f = re
            .failure
            .unwrap_or_else(|| panic!("{name}: replay did not fail"));
        assert_eq!(f.kind(), cex.failure.kind(), "{name}: replay diverged");
    }
}

#[test]
fn exploration_is_deterministic_per_seed() {
    let scenario = treiber_scenario(TreiberSpec::SPLASH4);
    let a = explore(&scenario, &budget(42));
    let b = explore(&scenario, &budget(42));
    assert_eq!(a.distinct_schedules, b.distinct_schedules);
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.counterexample.is_none(), b.counterexample.is_none());
}

/// A scenario under a name.
type Row = (&'static str, Box<dyn Fn(&mut Sandbox) + Sync>);

/// Two waiters take a payload from a setter through the shipped futex flag,
/// whose word the waiters may sleep on.
fn condvar_flag_scenario(sb: &mut Sandbox) {
    struct Handoff {
        flag: CondvarFlag<Model>,
        payload: <Model as Atomics>::Cell<u64>,
    }
    // SAFETY: one virtual thread runs at a time, and the model unwinds out
    // of an access to `payload` that races.
    unsafe impl Sync for Handoff {}

    let shared = Arc::new(Handoff {
        flag: CondvarFlag::new(Arc::default()),
        payload: DataCell::new("payload", 0),
    });
    for tid in 0..3 {
        let h = Arc::clone(&shared);
        sb.thread(move |ctx| {
            if tid == 0 {
                // SAFETY: see `Handoff`.
                unsafe { h.payload.with_mut(|v| *v = 42) };
                h.flag.set();
            } else {
                h.flag.wait();
                // SAFETY: see `Handoff`.
                let v = unsafe { h.payload.with(|v| *v) };
                ctx.check(v == 42, "the flag publishes the payload");
            }
        });
    }
}

/// The Splash-3 generation as shipped: the futex barrier, the flag, and the
/// futex lock under `Serial`'s locked arm of the counter and reductions.
#[test]
fn the_splash3_constructs_pass_as_shipped() {
    let rows: [Row; 5] = [
        (
            "barrier",
            Box::new(sense_barrier_scenario(SyncMode::LockBased)),
        ),
        ("getsub", Box::new(getsub_scenario(SyncMode::LockBased))),
        (
            "reduce-f64",
            Box::new(reduce_f64_scenario(SyncMode::LockBased)),
        ),
        (
            "reduce-u64",
            Box::new(reduce_u64_scenario(SyncMode::LockBased)),
        ),
        ("flag", Box::new(condvar_flag_scenario)),
    ];
    for (name, scenario) in rows {
        let report = explore(&*scenario, &budget(8));
        assert!(
            report.counterexample.is_none(),
            "{name}: {:?}",
            report.counterexample
        );
        assert!(
            report.distinct_schedules >= 64,
            "{name}: {}",
            report.distinct_schedules
        );
    }
}

/// A wake that never comes leaves its sleeper asleep: with every wake on one
/// word lost, each futex construct deadlocks, and the report names the word.
#[test]
fn a_lost_wake_up_is_a_deadlock_naming_the_word() {
    let rows: [Row; 3] = [
        ("lock", Box::new(locked_queue_scenario())),
        (
            "barrier.generation",
            Box::new(sense_barrier_scenario(SyncMode::LockBased)),
        ),
        ("flag", Box::new(condvar_flag_scenario)),
    ];
    for (word, scenario) in rows {
        let lost = mutated(|sb| sb.fault(word, Fault::LostWake), scenario);
        let report = explore(&lost, &budget(9));
        let cex = report
            .counterexample
            .unwrap_or_else(|| panic!("a lost wake on `{word}` not detected"));
        assert_eq!(cex.failure.kind(), "deadlock", "{cex}");
        let what = cex.failure.to_string();
        assert!(what.contains(&format!("waits on `{word}`")), "{what}");
    }
}

/// The wrap-and-re-issue bug class: chunked grabs, single grabs and polls
/// after exhaustion race on the `fetch_add` cursor, whose overshoot the
/// `clamp` CAS loop must pull back. No transcription had chunks or a clamp.
#[test]
fn index_counter_hands_every_index_out_once_and_never_drifts() {
    const END: usize = 4;
    let scenario = |sb: &mut Sandbox| {
        let counter = Arc::new(IndexCounter::<Model>::new(
            SyncMode::LockFree,
            0..END,
            3,
            Arc::default(),
        ));
        let seen = Arc::new(Mutex::new(Vec::new()));
        // Twelve indices requested of four: every thread polls past the end.
        for chunks in [[3, 1, 3], [1, 1, 1], [1, 3, 1]] {
            let (counter, seen) = (Arc::clone(&counter), Arc::clone(&seen));
            sb.thread(move |_ctx| {
                for chunk in chunks {
                    let grabbed = counter.next_chunk(chunk);
                    seen.lock().unwrap().extend(grabbed);
                }
            });
        }
        let peek = sb.peek();
        sb.finale(move || {
            let mut seen = std::mem::take(&mut *seen.lock().unwrap());
            seen.sort_unstable();
            if seen != [0, 1, 2, 3] {
                return Err(format!(
                    "indices handed out: {seen:?}, want each of 0..4 once"
                ));
            }
            // Nothing is in flight at the finale, so the last overshooting
            // grab has clamped the raw cursor back.
            match peek.words("counter.next")[..] {
                [raw] if raw == END as u64 => Ok(()),
                ref raw => Err(format!("raw cursor {raw:?} at quiescence, want [{END}]")),
            }
        });
    };
    let report = explore(&scenario, &budget(9));
    assert!(
        report.counterexample.is_none(),
        "{:?}",
        report.counterexample
    );
    assert!(
        report.distinct_schedules >= 200,
        "{}",
        report.distinct_schedules
    );
}

/// More publishers than records: the third thread has to wait for a `busy`
/// word to be released, and with three operations each the combiner can run
/// out of passes and hand the lock over with requests still arriving.
#[test]
fn combining_core_with_fewer_records_than_publishers_loses_nothing() {
    const OP_ADD: u64 = 1;
    const OP_READ: u64 = 2;
    fn apply(sum: &mut u64, op: u64, arg: u64) -> u64 {
        if op == OP_ADD {
            *sum += arg;
        }
        *sum
    }
    let scenario = |sb: &mut Sandbox| {
        let core = Arc::new(CombiningCore::<u64, Model>::new_in(
            2,
            0,
            apply,
            Arc::default(),
        ));
        sb.spec(SpecModel::SumU64(0));
        for v in [1u64, 10, 100] {
            let core = Arc::clone(&core);
            sb.thread(move |ctx| {
                for _ in 0..3 {
                    ctx.invoke(Op::AddU(v));
                    core.run(OP_ADD, v);
                    ctx.ret(RetVal::Unit);
                }
            });
        }
        sb.finale(move || match core.run(OP_READ, 0) {
            333 => Ok(()),
            sum => Err(format!(
                "combined sum {sum}, want 333: an operation was lost"
            )),
        });
    };
    // Three publishers find both records busy only when two of them are
    // stopped mid-operation, and the preemption-bounded DFS spends its cap
    // on the tail of these 80-step executions. So: no preemptions (a handful
    // of schedules), then PCT's random priorities top up to the target.
    let random = Budget {
        max_preemptions: 0,
        min_schedules: 300,
        pct_len: 96,
        ..budget(10)
    };
    let report = explore(&scenario, &random);
    assert!(
        report.counterexample.is_none(),
        "{:?}",
        report.counterexample
    );
    assert!(
        report.distinct_schedules >= 300,
        "{}",
        report.distinct_schedules
    );

    // A combiner that serves something in each of its `MAX_COMBINE_PASSES`
    // passes needs a publisher to slip in between every two of them: eight
    // switches, beyond any bounded search. This schedule does it (found by
    // replaying random prefixes with a trace line in `combine`); the step
    // count pins the execution, so a change to the core that moves it off
    // that path fails here and asks for a re-capture.
    let four_passes = "0*2,1*9,0,1*2,0*3,1,0,1*2,0*4,2,1*10,0,2,0,1,2*9,1,2*26";
    let re = replay(&scenario, &Schedule::parse(four_passes).unwrap(), 20_000);
    assert!(re.failure.is_none(), "{:?}", re.failure);
    assert_eq!(
        (re.schedule.to_string().as_str(), re.steps),
        (four_passes, 90)
    );
}

/// One body, written once over `A`: what runs on real threads with `Std` is
/// what the explorer runs with `Model`.
#[test]
fn one_generic_body_agrees_on_real_threads_and_under_the_explorer() {
    type Shared<A> = (IndexCounter<A>, Reducer<A>);
    fn build<A: Atomics>() -> Arc<Shared<A>> {
        Arc::new((
            IndexCounter::new(SyncMode::LockFree, 0..6, 3, Arc::default()),
            Reducer::new(SyncMode::Combining, 3, Arc::default()),
        ))
    }
    fn body<A: Atomics>((counter, sum): &Shared<A>) {
        while let Some(i) = counter.next() {
            ReduceU64::add(sum, i as u64);
        }
    }

    let native = build::<Std>();
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| body(&native));
        }
    });
    let want = ReduceU64::load(&native.1);
    assert_eq!(want, 15);

    let scenario = move |sb: &mut Sandbox| {
        let shared = build::<Model>();
        for _ in 0..3 {
            let shared = Arc::clone(&shared);
            sb.thread(move |_ctx| body(&shared));
        }
        sb.finale(move || match ReduceU64::load(&shared.1) {
            got if got == want => Ok(()),
            got => Err(format!("explorer summed {got}, real threads {want}")),
        });
    };
    let report = explore(&scenario, &budget(11));
    assert!(
        report.counterexample.is_none(),
        "{:?}",
        report.counterexample
    );
}

/// The contract of the model's `alloc`/`free`: a freed node stays allocated,
/// its payload undropped, until the execution ends; touching one of its
/// words afterwards is a use-after-free with a replayable schedule; and the
/// free is a write to its cells, so an unordered earlier read is a race.
#[test]
fn a_freed_node_is_quarantined_and_touching_it_is_a_use_after_free() {
    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    struct Node {
        word: <Model as Atomics>::Usize,
        cell: <Model as Atomics>::Cell<Counted>,
    }
    /// A raw node pointer that may cross into a thread body.
    #[derive(Clone, Copy)]
    struct Shared(*mut Node);
    // SAFETY: the scenario below hands the node to the model's `free` once.
    unsafe impl Send for Shared {}

    let drops = Arc::new(AtomicUsize::new(0));
    // t0 frees the node; t1 uses its word (and, `read_cell`, its cell).
    let scenario = |read_cell: bool| {
        let drops = Arc::clone(&drops);
        move |sb: &mut Sandbox| {
            let node = Shared(Model::alloc(Node {
                word: Word::new("probe.word", 7),
                cell: DataCell::new("probe.cell", Counted(Arc::clone(&drops))),
            }));
            let before = drops.load(Ordering::SeqCst);
            // SAFETY: allocated above, freed here and nowhere else.
            sb.thread(move |_ctx| unsafe { Model::free({ node }.0) });
            sb.thread(move |_ctx| {
                // SAFETY: the node is quarantined, not deallocated, and the
                // model unwinds out of a racing or dangling access.
                let node = unsafe { &*{ node }.0 };
                node.word.load(Ordering::Acquire);
                if read_cell {
                    unsafe { node.cell.with(|_| ()) };
                }
            });
            let drops = Arc::clone(&drops);
            sb.finale(move || match drops.load(Ordering::SeqCst) - before {
                0 => Ok(()),
                n => Err(format!("payload dropped {n} times inside the execution")),
            });
        }
    };

    // The load first, then the free: passes, with the payload dropped once,
    // and only after the finale saw it undropped.
    let before = drops.load(Ordering::SeqCst);
    let load_first = Schedule::parse("1*2").unwrap();
    let re = replay(&scenario(false), &load_first, 1000);
    assert!(re.failure.is_none(), "{:?}", re.failure);
    assert_eq!(drops.load(Ordering::SeqCst) - before, 1);

    // Some schedule frees first.
    let cex = explore(&scenario(false), &budget(12)).counterexample;
    let cex = cex.expect("the load can come after the free");
    assert_eq!(cex.failure.kind(), "use-after-free", "{cex}");
    let what = cex.failure.to_string();
    assert!(
        what.contains("t1 touches `probe.word` in memory t0 freed"),
        "{what}"
    );
    let before = drops.load(Ordering::SeqCst);
    let parsed = Schedule::parse(&cex.schedule.to_string()).unwrap();
    let again = replay(&scenario(false), &parsed, 1000);
    assert_eq!(again.failure, Some(cex.failure));
    assert_eq!(drops.load(Ordering::SeqCst) - before, 1);

    // A cell read the free is not ordered after races with it.
    let re = replay(&scenario(true), &load_first, 1000);
    let what = re.failure.expect("unordered read, then free").to_string();
    assert!(
        what.contains("data-race: write of `probe.cell` by t0"),
        "{what}"
    );
}

/// One body over `A` — three threads pushing, popping and flushing a
/// `TaskPool` — on real threads with `Std` and under the explorer with
/// `Model`: both conserve the pushed multiset and leave nothing pending.
#[test]
fn one_task_pool_body_runs_on_real_threads_and_under_the_explorer() {
    type Pool<A> = TaskPool<u64, A>;
    fn build<A: Atomics>(shape: PoolShape, kind: ReclaimKind) -> Arc<Pool<A>> {
        // Three workers, and the thread that drains at the end.
        Arc::new(Pool::new_in(shape, kind, 4, Arc::default()))
    }
    fn body<A: Atomics>(pool: &Pool<A>, tid: u64) -> Vec<u64> {
        pool.push(10 * tid);
        pool.push(10 * tid + 1);
        let got = [pool.pop(), pool.pop()];
        pool.flush();
        got.into_iter().flatten().collect()
    }
    fn settle<A: Atomics>(pool: &Pool<A>, mut got: Vec<u64>) -> Result<(), String> {
        got.extend(std::iter::from_fn(|| pool.pop()));
        got.sort_unstable();
        pool.flush();
        match (&got[..], pool.reclaim_stats().pending()) {
            ([0, 1, 10, 11, 20, 21], 0) => Ok(()),
            (got, pending) => Err(format!("popped {got:?}, {pending} pending")),
        }
    }

    for shape in [PoolShape::Fifo, PoolShape::Lifo] {
        for kind in [ReclaimKind::Epoch, ReclaimKind::Hazard] {
            let native = build::<Std>(shape, kind);
            let got = std::thread::scope(|s| {
                let workers: Vec<_> = (0..3)
                    .map(|tid| {
                        let pool = &native;
                        s.spawn(move || body(pool, tid))
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().unwrap())
                    .collect()
            });
            settle(&native, got).unwrap_or_else(|e| panic!("{shape:?}/{kind:?}: {e}"));

            let scenario = move |sb: &mut Sandbox| {
                let pool = build::<Model>(shape, kind);
                let got = Arc::new(Mutex::new(Vec::new()));
                for tid in 0..3 {
                    let (pool, got) = (Arc::clone(&pool), Arc::clone(&got));
                    sb.thread(move |_ctx| {
                        let mine = body(&pool, tid);
                        got.lock().unwrap().extend(mine);
                    });
                }
                sb.finale(move || settle(&pool, std::mem::take(&mut *got.lock().unwrap())));
            };
            let report = explore(&scenario, &budget(13));
            assert!(
                report.counterexample.is_none(),
                "{shape:?}/{kind:?}: {:?}",
                report.counterexample
            );
        }
    }
}

/// The two-hazard case only the real queue has: `MsQueue::pop` protects
/// `head` and `next` while a second popper retires and a third thread
/// flushes. Sound as shipped — which takes a scan that reads the hazard
/// records *after* it took the retirees out of the bag: with the records
/// read first, as they were before the reclaimers shared one `Bag`, a node
/// retired in between is freed on a stale snapshot, and this search (three
/// preemptions deep) reports the free as a race with the first popper's
/// take. With the publication dropped, the scan frees a node the first
/// popper validated.
#[test]
fn ms_queue_pop_holds_two_hazards_against_a_concurrent_flush() {
    use Step::{Flush, Pop};
    let scenario = || {
        pool_scenario(
            PoolShape::Fifo,
            ReclaimKind::Hazard,
            &[1, 2],
            &[&[Pop], &[Pop], &[Flush]],
        )
    };
    let wide = Budget {
        max_preemptions: 3,
        max_schedules: 2500,
        max_executions: 5000,
        ..budget(14)
    };
    let report = explore(&scenario(), &wide);
    assert!(
        report.counterexample.is_none(),
        "{:?}",
        report.counterexample
    );
    assert!(
        report.distinct_schedules >= 2500,
        "{}",
        report.distinct_schedules
    );

    // The records no longer carry an edge from a popper to the scan either,
    // so the search meets the free as a race with a finished pop first.
    let unprotected = mutated(|sb| sb.fault("hazard.hp", Fault::Dropped), scenario());
    let cex = explore(&unprotected, &wide).counterexample;
    let cex = cex.expect("an unpublished hazard protects nothing");
    assert!(cex.failure.to_string().contains("msq.node"), "{cex}");

    // t0 validates `head`, t1 pops and retires that node, t2's flush frees
    // it, and t0 goes on to read the node's link.
    let stale_head = Schedule::parse("0*4,1*11,2*9").unwrap();
    let re = replay(&unprotected, &stale_head, 1000);
    assert_eq!(re.schedule, stale_head);
    let what = re.failure.expect("t0 reads a freed node").to_string();
    assert_eq!(
        what,
        "use-after-free: t0 touches `msq.node.next` in memory t2 freed"
    );
    assert!(replay(&scenario(), &stale_head, 1000).failure.is_none());
}

/// A thread's clock starts at its first tick: the plain write t0 makes
/// before its first operation is not ordered before a thread that acquired
/// nothing from t0. (Stamped zero, as it was, the write raced with nothing:
/// the cell-initialising write of a node a thread allocates as its first
/// action could be published by a relaxed store unnoticed.)
#[test]
fn a_plain_access_before_a_threads_first_operation_still_races() {
    struct Handoff {
        flag: <Model as Atomics>::Bool,
        cell: <Model as Atomics>::Cell<u64>,
    }
    // SAFETY: one virtual thread runs at a time, and the model unwinds out
    // of an access to `cell` that races.
    unsafe impl Sync for Handoff {}

    let scenario = |sb: &mut Sandbox| {
        let shared = Arc::new(Handoff {
            flag: Word::new("handoff.flag", false),
            cell: DataCell::new("handoff.cell", 0),
        });
        let writer = Arc::clone(&shared);
        sb.thread(move |_ctx| {
            // SAFETY: see `Handoff`.
            unsafe { writer.cell.with_mut(|v| *v = 1) };
            writer.flag.store(true, Ordering::Relaxed);
        });
        sb.thread(move |_ctx| {
            if shared.flag.load(Ordering::Relaxed) {
                // SAFETY: see `Handoff`.
                unsafe { shared.cell.with(|v| *v) };
            }
        });
    };
    // The default schedule: t0 to its end, then t1, which sees the flag.
    let re = replay(&scenario, &Schedule(Vec::new()), 1000);
    let what = re
        .failure
        .expect("a relaxed flag orders nothing")
        .to_string();
    assert_eq!(
        what,
        "data-race: read of `handoff.cell` by t1 races with write by t0"
    );
}

/// One body over `A` — three threads, each inserting, removing and looking
/// up the keys it owns in a stocked `LockFreeMap` — on real threads with
/// `Std` and under the explorer with `Model`: both leave the same key set,
/// retire the two removed nodes and have nothing pending after a flush. And
/// the `cmap-blind-mark` counterexample, a fact about `LockFreeMap::{find,
/// remove, insert}` like the Treiber string above is one about the stack:
/// re-capture it when one of them gains or loses an atomic operation.
#[test]
fn one_lock_free_map_body_runs_on_real_threads_and_under_the_explorer() {
    fn build<A: Atomics>() -> Arc<LockFreeMap<A>> {
        // Three workers, and the thread that stocks and settles.
        let map = LockFreeMap::new(2, 4, Arc::default());
        map.insert(2, 20);
        map.insert(4, 40);
        Arc::new(map)
    }
    fn body<A: Atomics>(map: &LockFreeMap<A>, tid: u64) {
        match tid {
            0 => {
                assert!(map.remove(2));
                assert_eq!(map.lookup(2), None);
            }
            1 => {
                map.insert(3, 30);
                map.insert(3, 31);
                assert_eq!(map.lookup(3), Some(31));
            }
            _ => {
                map.insert(1, 10);
                assert!(map.remove(4));
                assert!(!map.remove(4));
            }
        }
    }
    fn settle<A: Atomics>(map: &LockFreeMap<A>) -> Result<(), String> {
        let live: Vec<_> = (0..6).filter_map(|k| Some((k, map.lookup(k)?))).collect();
        map.flush();
        let st = map.reclaim_stats();
        match (&live[..], st.retires, st.pending()) {
            ([(1, 10), (3, 31)], 2, 0) => Ok(()),
            _ => Err(format!("live {live:?}, reclaimer {st:?}")),
        }
    }

    let native = build::<Std>();
    std::thread::scope(|s| {
        for tid in 0..3 {
            let map = &native;
            s.spawn(move || body(map, tid));
        }
    });
    settle(&native).unwrap();

    let scenario = |sb: &mut Sandbox| {
        let map = build::<Model>();
        for tid in 0..3 {
            let map = Arc::clone(&map);
            sb.thread(move |_ctx| body(&map, tid));
        }
        sb.finale(move || settle(&map));
    };
    let report = explore(&scenario, &budget(15));
    assert!(
        report.counterexample.is_none(),
        "{:?}",
        report.counterexample
    );

    // The reader runs, the remover stops between reading key 2's link and
    // marking it, the inserter links key 3 behind key 2, and the torn mark
    // CAS stores the stale link over it.
    let torn_mark = mutated(
        |sb| sb.fault("cmap.node.next", Fault::Torn),
        cmap_chain_scenario(),
    );
    let cex = explore(&torn_mark, &budget(16)).counterexample;
    let cex = cex.expect("a blind mark loses a racing insert");
    assert_eq!(cex.schedule.to_string(), "0*8,1*7,2*9");
    let parsed = Schedule::parse("0*8,1*7,2*9").unwrap();
    let re = replay(&torn_mark, &parsed, 1000);
    assert_eq!(re.failure, Some(cex.failure));
    let what = re.failure.unwrap().to_string();
    assert!(
        what.contains("the map holds keys [4], want [3, 4]"),
        "{what}"
    );
    assert!(replay(&cmap_chain_scenario(), &parsed, 1000)
        .failure
        .is_none());
}
