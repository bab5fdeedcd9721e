//! The decision sequence of a (scenario, driver) pair is part of the
//! checker's contract: schedule strings in reports and bug trackers replay
//! only while the engine takes the same decisions in the same order. These
//! constants were captured at the commit *before* scheduling moved from a
//! controller thread into the virtual threads, so they pin that move (and
//! any later engine change) to the old decision sequence.

use splash4_check::{
    explore, mp_flag_scenario, replay, replay_under, treiber_scenario, Budget, MemoryModel,
    Schedule, WEAK_STALE_READS,
};
use splash4_parmacs::{FlagSpec, TreiberSpec};
use std::sync::atomic::Ordering;

const WEAK: MemoryModel = MemoryModel::Weak {
    stale_reads: WEAK_STALE_READS,
};

#[test]
fn decisions_are_pinned() {
    let sc = explore(&treiber_scenario(TreiberSpec::SPLASH4), &Budget::small(1));
    assert!(sc.counterexample.is_none());
    assert_eq!((sc.distinct_schedules, sc.executions), (512, 512));

    let weak = Budget {
        memory: WEAK,
        ..Budget::small(1)
    };
    let wk = explore(&mp_flag_scenario(FlagSpec::SPLASH4), &weak);
    assert!(wk.counterexample.is_none());
    assert_eq!((wk.distinct_schedules, wk.executions), (29, 2000));

    let mutant = treiber_scenario(TreiberSpec {
        pop_load: Ordering::Relaxed,
        pop_cas_fail: Ordering::Relaxed,
        ..TreiberSpec::SPLASH4
    });
    let cex = explore(&mutant, &Budget::small(1))
        .counterexample
        .expect("treiber-relaxed-pop must be caught");
    assert_eq!(cex.schedule.to_string(), "0*5,1*5");
}

/// Both explorations above run into a cap, so their counts alone would
/// survive a reordering of decisions; a replayed prefix and the default-policy
/// tail the engine appends to it pin the sequence itself — thread choices
/// under `Sc`, thread and value-window choices interleaved under `Weak`.
#[test]
fn replayed_prefixes_are_pinned() {
    let treiber = treiber_scenario(TreiberSpec::SPLASH4);
    for (prefix, full, steps) in [
        ("-", "0*5,1*5", 12),
        ("1,2,0,1,2,0", "1,2,0,1,2,0*4,1*4", 12),
        ("2*3,1*2,0*4,2", "2*3,1*2,0*5", 11),
    ] {
        let re = replay(&treiber, &Schedule::parse(prefix).unwrap(), 20_000);
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
