//! The model-checking subsystem is reachable through the facade and its
//! verdicts hold at a reduced budget.

use splash4::check::{
    check_history, explore, flag_scenario, locked_queue_scenario, Budget, CheckBudget, Op,
    OpRecord, RetVal, SpecModel, Verdict,
};
use splash4::parmacs::FlagSpec;
use splash4::{check_mutants, check_reclaim, check_reclaim_mutants, check_suite};

#[test]
fn suite_and_mutants_through_the_facade() {
    let budget = CheckBudget::small(101);
    for row in check_suite(&budget) {
        assert_eq!(
            row.verdict,
            Verdict::Pass,
            "{} failed: {}",
            row.construct,
            row.counterexample
        );
        assert!(row.schedules >= budget.min_schedules, "{}", row.construct);
    }
    for m in check_mutants(&budget) {
        assert!(m.detected, "{} escaped: {}", m.name, m.counterexample);
    }
}

/// The shipped `splash4-reclaim` pools and reclaimers, run under the model:
/// tier-1's own look at R1.
#[test]
fn shipped_reclaimers_verify_and_their_mutants_fall() {
    let started = std::time::Instant::now();
    let budget = CheckBudget::small(103);
    let rows = check_reclaim(&budget);
    assert_eq!(rows.len(), 4);
    for row in rows {
        assert_eq!(
            row.verdict,
            Verdict::Pass,
            "{} failed: {}",
            row.construct,
            row.counterexample
        );
        assert!(row.schedules >= budget.min_schedules, "{}", row.construct);
    }
    let mutants = check_reclaim_mutants(&budget);
    assert_eq!(mutants.len(), 5);
    for m in mutants {
        assert!(m.detected, "{} escaped: {}", m.name, m.counterexample);
    }
    let took = started.elapsed();
    assert!(took.as_secs() < 5, "R1 at the small budget took {took:?}");
}

#[test]
fn individual_scenarios_explore_cleanly() {
    let budget = Budget::small(7);
    for scenario in [
        Box::new(flag_scenario(FlagSpec::SPLASH4)) as Box<dyn Fn(&mut _) + Sync>,
        Box::new(locked_queue_scenario()),
    ] {
        let report = explore(&*scenario, &budget);
        assert!(
            report.counterexample.is_none(),
            "{:?}",
            report.counterexample
        );
        assert!(report.distinct_schedules >= budget.min_schedules);
    }
}

#[test]
fn linearizability_checker_is_directly_usable() {
    let h = vec![
        OpRecord {
            tid: 0,
            op: Op::Push(9),
            ret: RetVal::Unit,
            invoked: 0,
            returned: 1,
        },
        OpRecord {
            tid: 1,
            op: Op::Pop,
            ret: RetVal::Val(9),
            invoked: 2,
            returned: 3,
        },
    ];
    assert!(check_history(&SpecModel::Stack(Vec::new()), &h).is_ok());
    let bad = vec![
        OpRecord {
            tid: 1,
            op: Op::Pop,
            ret: RetVal::Val(9),
            invoked: 0,
            returned: 1,
        },
        OpRecord {
            tid: 0,
            op: Op::Push(9),
            ret: RetVal::Unit,
            invoked: 2,
            returned: 3,
        },
    ];
    assert!(check_history(&SpecModel::Stack(Vec::new()), &bad).is_err());
}
