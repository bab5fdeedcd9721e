//! The model-checking subsystem is reachable through the facade and its
//! verdicts hold at a reduced budget.

use splash4::check::{
    check_history, explore, flag_scenario, locked_queue_scenario, Budget, CheckBudget,
    ConstructReport, Op, OpRecord, RetVal, SpecModel, Verdict,
};
use splash4::parmacs::FlagSpec;
use splash4::{
    check_kernel_mutants, check_kernels, check_mutants, check_reclaim, check_reclaim_mutants,
    check_suite, check_weakmem, check_weakmem_mutants,
};

/// `want` rows, every one verified over at least `min_schedules` schedules.
fn all_pass(rows: Vec<ConstructReport>, want: usize, min_schedules: usize) {
    assert_eq!(rows.len(), want);
    for row in rows {
        assert_eq!(
            row.verdict,
            Verdict::Pass,
            "{} failed: {}",
            row.construct,
            row.counterexample
        );
        assert!(row.schedules >= min_schedules, "{}", row.construct);
    }
}

#[test]
fn suite_and_mutants_through_the_facade() {
    let budget = CheckBudget::small(101);
    all_pass(check_suite(&budget), 7, budget.min_schedules);
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
    all_pass(check_reclaim(&budget), 4, budget.min_schedules);
    let mutants = check_reclaim_mutants(&budget);
    assert_eq!(mutants.len(), 5);
    for m in mutants {
        assert!(m.detected, "{} escaped: {}", m.name, m.counterexample);
    }
    let took = started.elapsed();
    assert!(took.as_secs() < 5, "R1 at the small budget took {took:?}");
}

/// Kernel bodies over the shipped constructs — `cmap`'s `LockFreeMap`
/// among them: tier-1's own look at V2.
#[test]
fn kernel_bodies_verify_and_their_mutants_fall() {
    let started = std::time::Instant::now();
    let budget = CheckBudget::small(105);
    all_pass(check_kernels(&budget), 4, budget.min_schedules);
    let mutants = check_kernel_mutants(&budget);
    assert_eq!(mutants.len(), 6);
    for m in mutants {
        assert!(m.detected, "{} escaped: {}", m.name, m.counterexample);
    }
    let took = started.elapsed();
    assert!(took.as_secs() < 5, "V2 at the small budget took {took:?}");
}

/// The shipped flag, barrier, reclaimers and map under weak memory: tier-1's
/// own look at W1. Every mutant is one the SC search must miss.
#[test]
fn shipped_orderings_hold_under_weak_memory_and_their_mutants_fall() {
    let started = std::time::Instant::now();
    let budget = CheckBudget::small(107);
    // The flag and barrier spaces are exhausted below any schedule target.
    all_pass(check_weakmem(&budget), 5, 20);
    let mutants = check_weakmem_mutants(&budget);
    assert_eq!(mutants.len(), 7);
    for m in mutants {
        let (name, cex) = (m.report.name, m.report.counterexample);
        assert!(m.report.detected, "{name} escaped: {cex}");
        assert!(m.sc_missed, "{name} is not a weak-memory bug: SC finds it");
    }
    let took = started.elapsed();
    assert!(took.as_secs() < 5, "W1 at the small budget took {took:?}");
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
