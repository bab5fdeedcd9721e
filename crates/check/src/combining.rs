//! C1-combining: the flat-combining core behind
//! [`SyncMode::Combining`] under the checker, with its mutant catalog.
//!
//! There is no combining scenario of its own: each row is a `V1-check`
//! scenario body of [`crate::suite`] built under `SyncMode::Combining`, so
//! the shipped [`splash4_parmacs::CombiningCore`] — record claim, publish,
//! combiner lock, bounded drain passes, completion — runs beneath the same
//! workload and properties as the Splash-4 construct it replaces.
//!
//! The core keeps each record's argument and result, and the combined
//! state, in plain-data cells ordered only by the protocol's two edges
//! (`publish_store` → `scan_load` in, `complete_store` → `wait_load` out).
//! Under [`Model`](crate::model::Model) those cells feed the race detector,
//! so a schedule where a weakened edge lets the combiner read an argument,
//! or a waiter a result, without a happens-before chain fails: a one-field
//! [`CombiningSpec`] override is a mutation test. Waiters that lose the
//! lock CAS park on the lock word until the release store, which keeps the
//! core's progress argument (a combiner that hands off after its bounded
//! passes leaves the lock free for an unserved waiter).

use crate::engine::Fault;
use crate::suite::{
    getsub_scenario, mutated, reduce_f64_scenario, reduce_u64_scenario, run_mutant_catalog,
    run_rows, sense_barrier_scenario, CheckBudget, ConstructReport, MutantCatalog, MutantReport,
    Rows,
};
use splash4_parmacs::{CombiningSpec, SyncMode};
use std::sync::atomic::Ordering;

/// Check every combining-ported construct. Deterministic for a fixed
/// budget, like [`crate::check_suite`].
pub fn check_combining(budget: &CheckBudget) -> Vec<ConstructReport> {
    let rows: Rows = vec![
        (
            500,
            "combining/reduce-u64",
            "linearizable batched sum, race-free handoff",
            Box::new(reduce_u64_scenario(SyncMode::Combining)),
        ),
        (
            501,
            "combining/reduce-f64",
            "linearizable batched f64 sum, no lost updates",
            Box::new(reduce_f64_scenario(SyncMode::Combining)),
        ),
        (
            502,
            "combining/getsub",
            "linearizable batched index grab, race-free",
            Box::new(getsub_scenario(SyncMode::Combining)),
        ),
        (
            504,
            "combining/barrier",
            "phase separation, deadlock-free",
            Box::new(sense_barrier_scenario(SyncMode::Combining)),
        ),
    ];
    run_rows(rows, budget)
}

/// The combining mutant catalog: each publication edge of the protocol
/// weakened one at a time, plus a dropped publication.
pub fn combining_mutants() -> MutantCatalog {
    let reduce = |spec: CombiningSpec| {
        let scenario = reduce_u64_scenario(SyncMode::Combining);
        mutated(move |sb| sb.override_spec(spec), scenario)
    };
    vec![
        (
            "combining-lost-publication",
            "CombiningCore publish weakened: request store Release -> Relaxed",
            &["data-race"] as &[_],
            Box::new(reduce(CombiningSpec {
                publish_store: Ordering::Relaxed,
                ..CombiningSpec::SPLASH4X
            })),
        ),
        (
            "combining-relaxed-scan",
            "CombiningCore scan weakened: request load Acquire -> Relaxed",
            &["data-race"] as &[_],
            Box::new(reduce(CombiningSpec {
                scan_load: Ordering::Relaxed,
                ..CombiningSpec::SPLASH4X
            })),
        ),
        (
            "combining-dropped-publish",
            "request store dropped: the operation returns without being applied",
            &["invariant", "not-linearizable"] as &[_],
            Box::new(mutated(
                |sb| sb.fault("combining.req", Fault::Dropped),
                reduce_u64_scenario(SyncMode::Combining),
            )),
        ),
        (
            "combining-stale-result",
            "stale result handoff: completion store Release -> Relaxed, so \
             the waiter's wait-load no longer synchronizes with the result write",
            &["data-race"] as &[_],
            Box::new(reduce(CombiningSpec {
                complete_store: Ordering::Relaxed,
                ..CombiningSpec::SPLASH4X
            })),
        ),
    ]
}

/// Run the checker against the combining mutant catalog.
pub fn check_combining_mutants(budget: &CheckBudget) -> Vec<MutantReport> {
    run_mutant_catalog(combining_mutants(), budget, 600)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Verdict;

    #[test]
    fn clean_combining_suite_passes_at_small_budget() {
        for row in check_combining(&CheckBudget::small(17)) {
            assert_eq!(
                row.verdict,
                Verdict::Pass,
                "{}: {}",
                row.construct,
                row.counterexample
            );
            assert!(
                row.schedules >= 200,
                "{}: only {} schedules",
                row.construct,
                row.schedules
            );
        }
    }

    #[test]
    fn all_combining_mutants_are_detected_at_small_budget() {
        for m in check_combining_mutants(&CheckBudget::small(19)) {
            assert!(m.detected, "{} not detected: {}", m.name, m.counterexample);
        }
    }

    #[test]
    fn combining_counterexamples_replay() {
        use crate::explore::{explore, replay, Budget};
        let scenario = mutated(
            |sb| sb.fault("combining.req", Fault::Dropped),
            reduce_u64_scenario(SyncMode::Combining),
        );
        let budget = CheckBudget::small(23).to_budget(0);
        let rep = explore(&scenario, &budget);
        let cex = rep.counterexample.expect("a dropped publication must fail");
        let replayed = replay(&scenario, &cex.schedule, Budget::MAX_STEPS);
        assert!(
            replayed.failure.is_some(),
            "minimized schedule must reproduce the failure"
        );
    }
}
