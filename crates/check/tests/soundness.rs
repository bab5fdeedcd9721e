//! Mutation tests: the checker must catch every injected bug, pass the
//! unmutated originals, and behave deterministically.

use splash4_check::{
    explore, mutants, reduce_f64_scenario, replay, sense_barrier_scenario, treiber_scenario,
    Budget, Schedule,
};
use splash4_parmacs::TreiberSpec;
use std::sync::atomic::Ordering;

fn budget(seed: u64) -> Budget {
    Budget::small(seed)
}

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
}

#[test]
fn barrier_missing_flip_mutant_deadlocks() {
    let report = explore(&sense_barrier_scenario(true), &budget(2));
    let cex = report.counterexample.expect("missing flip must deadlock");
    assert_eq!(cex.failure.kind(), "deadlock", "{}", cex);
}

#[test]
fn reduce_lost_update_mutant_is_caught() {
    let report = explore(&reduce_f64_scenario(true), &budget(3));
    let cex = report.counterexample.expect("lost update must be caught");
    assert!(
        cex.failure.kind() == "invariant" || cex.failure.kind() == "not-linearizable",
        "{}",
        cex
    );
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
        explore(&sense_barrier_scenario(false), &budget(5))
            .counterexample
            .is_none(),
        "shipped barrier must verify"
    );
    assert!(
        explore(&reduce_f64_scenario(false), &budget(6))
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
        let re = replay(&scenario, &parsed, budget(7).max_steps);
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
