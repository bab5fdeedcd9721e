//! The decision sequence of a (scenario, driver) pair is part of the
//! checker's contract: schedule strings in reports and bug trackers replay
//! only while the engine takes the same decisions in the same order. These
//! constants pin the *engine*, so every scenario here is built from raw
//! engine cells and contains no construct code — a refactor of a shipped
//! construct changes its own schedule points, never these. The `mp_flag`
//! rows were captured at the commit before scheduling moved from a
//! controller thread into the virtual threads; the locked-queue rows at the
//! commit before the scenarios began to run the shipped constructs through
//! the `Atomics` facade. The mutant row moved once: it was `cmap-blind-mark`
//! on the raw-cell chain skeleton until `cmap_chain_scenario` began to run
//! the shipped `LockFreeMap` (whose schedule points are its own, pinned in
//! `soundness.rs`), and is the raw store-buffering litmus under weak memory
//! since, captured at the last commit that had the skeleton.

use splash4_check::{
    explore, locked_queue_scenario, mp_flag_scenario, replay, replay_under, sb_epoch_scenario,
    Budget, MemoryModel, Schedule, WEAK_STALE_READS,
};
use splash4_parmacs::{EpochSpec, FlagSpec};
use std::sync::atomic::Ordering;

const WEAK: MemoryModel = MemoryModel::Weak {
    stale_reads: WEAK_STALE_READS,
};

#[test]
fn decisions_are_pinned() {
    let sc = explore(&locked_queue_scenario(), &Budget::small(1));
    assert!(sc.counterexample.is_none());
    assert_eq!((sc.distinct_schedules, sc.executions), (512, 512));

    let weak = Budget {
        memory: WEAK,
        ..Budget::small(1)
    };
    let wk = explore(&mp_flag_scenario(FlagSpec::SPLASH4), &weak);
    assert!(wk.counterexample.is_none());
    assert_eq!((wk.distinct_schedules, wk.executions), (29, 2000));

    // A search that fails, and the minimisation of what it found: thread and
    // value-window choices interleaved in one counterexample.
    let pin_load_acquire = sb_epoch_scenario(EpochSpec {
        global_load: Ordering::Acquire,
        ..EpochSpec::SPLASH4
    });
    let mutant = explore(&pin_load_acquire, &weak);
    assert_eq!((mutant.distinct_schedules, mutant.executions), (12, 12));
    let cex = mutant
        .counterexample
        .expect("the store-buffering window must be found");
    assert_eq!(cex.schedule.to_string(), "0,1*5");
}

/// The clean explorations above run into a cap, so their counts alone would
/// survive a reordering of decisions; a replayed prefix and the default-policy
/// tail the engine appends to it pin the sequence itself — thread choices
/// under `Sc`, thread and value-window choices interleaved under `Weak`.
#[test]
fn replayed_prefixes_are_pinned() {
    let locked = locked_queue_scenario();
    for (prefix, full, steps) in [
        ("-", "0*5,1*5", 12),
        ("1,2,0,1,2,0", "1,2,0,1,2,0,1*2,0*5", 14),
        ("2*3,1*2,0*4,2", "2*3,1*2,0*2,1,0,2*2,0*4", 13),
        ("0,1,0,1,2,2,0", "0,1,0,1,2*2,0*2,1*5", 14),
    ] {
        let re = replay(&locked, &Schedule::parse(prefix).unwrap(), 20_000);
        assert!(re.failure.is_none(), "{prefix}: {:?}", re.failure);
        assert_eq!((re.schedule.to_string().as_str(), re.steps), (full, steps));
    }
    let mp_flag = mp_flag_scenario(FlagSpec::SPLASH4);
    for (prefix, full, steps) in [
        ("-", "0*3,1*4", 8),
        ("0*4,1", "0*4", 4),
        ("1,0,1,0,1,1,1", "1,0,1,0", 5),
        ("0,0,1,1,0,1,2,1", "0*2,1*2,0", 5),
    ] {
        let re = replay_under(&mp_flag, &Schedule::parse(prefix).unwrap(), 20_000, WEAK);
        assert!(re.failure.is_none(), "{prefix}: {:?}", re.failure);
        assert_eq!((re.schedule.to_string().as_str(), re.steps), (full, steps));
    }
}
