//! The V1-check suite: one checked scenario per lock-free construct class,
//! plus the mutant catalog for the checker's own mutation tests.
//!
//! Each scenario is a small closed workload (a few threads, a handful of
//! operations) chosen so its interleaving space comfortably exceeds the
//! distinct-schedule target while every operation of the construct — fast
//! paths, retries, exhaustion, blocking — is reachable. [`check_suite`]
//! explores every scenario and reports construct × property × schedules ×
//! verdict; [`check_mutants`] does the same for deliberately broken specs
//! and reports whether the injected bug was caught.

use crate::engine::Sandbox;
use crate::explore::{explore, Budget, Scenario};
use crate::linearize::SpecModel;
use crate::shadow::{
    ShadowAtomicF64, ShadowCounter, ShadowFlag, ShadowLockedQueue, ShadowReduceU64,
    ShadowSenseBarrier, ShadowTreiberStack,
};
use splash4_parmacs::{CasF64Spec, FlagSpec, SenseBarrierSpec, TicketSpec, TreiberSpec};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::Ordering;

/// Exploration budget for a suite run.
#[derive(Debug, Clone)]
pub struct CheckBudget {
    /// Distinct-schedule target per construct.
    pub min_schedules: usize,
    /// Execution cap per construct.
    pub max_executions: usize,
    /// Base seed; per-construct seeds are derived from it, so a fixed seed
    /// makes the whole suite reproducible.
    pub seed: u64,
}

impl Default for CheckBudget {
    fn default() -> CheckBudget {
        CheckBudget {
            min_schedules: 1000,
            max_executions: 8000,
            seed: 0xC0FF_EE00,
        }
    }
}

impl CheckBudget {
    /// A reduced budget for unit/integration tests.
    pub fn small(seed: u64) -> CheckBudget {
        CheckBudget {
            min_schedules: 200,
            max_executions: 2000,
            seed,
        }
    }

    pub(crate) fn to_budget(&self, construct_idx: u64) -> Budget {
        Budget {
            min_schedules: self.min_schedules,
            // Let DFS overshoot the target a little before cutting over.
            max_schedules: self.min_schedules + self.min_schedules / 4,
            max_executions: self.max_executions,
            seed: self.seed.wrapping_add(construct_idx.wrapping_mul(0x9E37)),
            ..Budget::default()
        }
    }
}

/// Outcome of checking one construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every explored schedule satisfied every checked property.
    Pass,
    /// Some schedule failed (see the report's counterexample).
    Fail,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass => write!(f, "pass"),
            Verdict::Fail => write!(f, "FAIL"),
        }
    }
}

/// One row of the V1-check table.
#[derive(Debug, Clone)]
pub struct ConstructReport {
    /// Construct id (`class/backend`, e.g. `queue/treiber`).
    pub construct: &'static str,
    /// Properties checked on every explored schedule.
    pub property: &'static str,
    /// Distinct schedules explored.
    pub schedules: usize,
    /// Executions performed.
    pub executions: usize,
    /// Pass/fail.
    pub verdict: Verdict,
    /// Minimized counterexample rendering (`-` when passing).
    pub counterexample: String,
}

/// One row of the mutation-test table.
#[derive(Debug, Clone)]
pub struct MutantReport {
    /// Mutant id.
    pub name: &'static str,
    /// What the mutant breaks.
    pub description: &'static str,
    /// Failure classes that count as catching the bug.
    pub expect: &'static [&'static str],
    /// Distinct schedules explored before the bug was found.
    pub schedules: usize,
    /// Executions performed.
    pub executions: usize,
    /// `true` when an expected failure class was reported.
    pub detected: bool,
    /// The minimized failing schedule (`-` if undetected).
    pub counterexample: String,
}

/// Treiber-stack workload: three threads mixing pushes and pops.
pub fn treiber_scenario(spec: TreiberSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let stack = ShadowTreiberStack::new(sb, spec);
        sb.spec(SpecModel::Stack(Vec::new()));
        sb.thread(move |ctx| {
            stack.push(ctx, 1);
            stack.push(ctx, 2);
        });
        sb.thread(move |ctx| {
            stack.push(ctx, 3);
            stack.pop(ctx);
        });
        sb.thread(move |ctx| {
            stack.pop(ctx);
            stack.pop(ctx);
        });
    }
}

/// Sense-barrier workload: three threads, two double-barrier episodes with
/// a plain-data phase cell written between the barriers of each episode.
pub fn sense_barrier_scenario(missing_flip: bool) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let mut bar = ShadowSenseBarrier::new(sb, 3, SenseBarrierSpec::SPLASH4);
        if missing_flip {
            bar = bar.with_missing_flip();
        }
        let phase = sb.alloc_data("phase", 0);
        for tid in 0..3usize {
            sb.thread(move |ctx| {
                for e in 0..2u64 {
                    bar.wait(ctx);
                    if tid == 0 {
                        ctx.data_write(phase, e + 1);
                    }
                    bar.wait(ctx);
                    let p = ctx.data_read(phase);
                    ctx.check(p == e + 1, "barrier separates the phase write from readers");
                }
            });
        }
    }
}

/// CAS-loop f64 reduction workload: two adders, one concurrent reader, and
/// a finale asserting no update was lost.
pub fn reduce_f64_scenario(lost_update: bool) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let mut cell = ShadowAtomicF64::new(sb, 0.0, CasF64Spec::SPLASH4);
        if lost_update {
            cell = cell.with_lost_update();
        }
        sb.spec(SpecModel::SumF64(0f64.to_bits()));
        let peek = sb.peek();
        sb.thread(move |ctx| {
            cell.fetch_add(ctx, 1.0);
            cell.fetch_add(ctx, 1.0);
        });
        sb.thread(move |ctx| {
            cell.fetch_add(ctx, 0.25);
            cell.fetch_add(ctx, 0.25);
        });
        sb.thread(move |ctx| {
            cell.load(ctx);
            cell.load(ctx);
        });
        sb.finale(move || {
            let v = cell.final_value(&peek);
            if v == 2.5 {
                Ok(())
            } else {
                Err(format!(
                    "f64 reduction lost updates: final sum {v}, want 2.5"
                ))
            }
        });
    }
}

/// Integer reduction workload: three adders, one reader, exact-sum finale.
pub fn reduce_u64_scenario() -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let cell = ShadowReduceU64::new(sb, 0);
        sb.spec(SpecModel::SumU64(0));
        let peek = sb.peek();
        for v in [1u64, 2, 4] {
            sb.thread(move |ctx| {
                cell.add(ctx, v);
                cell.add(ctx, v);
            });
        }
        sb.thread(move |ctx| {
            cell.load(ctx);
            cell.load(ctx);
        });
        sb.finale(move || {
            let v = cell.final_value(&peek);
            if v == 14 {
                Ok(())
            } else {
                Err(format!(
                    "u64 reduction lost updates: final sum {v}, want 14"
                ))
            }
        });
    }
}

/// PAUSE/SETPAUSE workload: cross-handoff of two payloads through two flags
/// while a third thread polls and finally reads both payloads.
pub fn flag_scenario(spec: FlagSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let fa = ShadowFlag::new(sb, spec);
        let fb = ShadowFlag::new(sb, spec);
        let d0 = sb.alloc_data("payload0", 0);
        let d1 = sb.alloc_data("payload1", 0);
        sb.thread(move |ctx| {
            ctx.data_write(d0, 10);
            fa.set(ctx);
            fb.wait(ctx);
            let v = ctx.data_read(d1);
            ctx.check(v == 20, "flag publication: t0 sees t1's payload");
        });
        sb.thread(move |ctx| {
            ctx.data_write(d1, 20);
            fb.set(ctx);
            fa.wait(ctx);
            let v = ctx.data_read(d0);
            ctx.check(v == 10, "flag publication: t1 sees t0's payload");
        });
        sb.thread(move |ctx| {
            for _ in 0..3 {
                fa.is_set(ctx);
                fb.is_set(ctx);
            }
            fa.wait(ctx);
            fb.wait(ctx);
            let sum = ctx.data_read(d0) + ctx.data_read(d1);
            ctx.check(sum == 30, "flag publication: t2 sees both payloads");
        });
    }
}

/// `GETSUB` counter workload: three threads drain a shared index range.
pub fn getsub_scenario(spec: TicketSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let counter = ShadowCounter::new(sb, 8, spec);
        sb.spec(SpecModel::Ticket { total: 8, next: 0 });
        for _ in 0..3 {
            sb.thread(move |ctx| while counter.next(ctx).is_some() {});
        }
    }
}

/// Locked-queue workload: three threads mixing enqueues and dequeues, with
/// the critical-section canary arming the race detector against a broken
/// lock.
pub fn locked_queue_scenario() -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let q = ShadowLockedQueue::new(sb);
        sb.spec(SpecModel::Fifo(VecDeque::new()));
        let peek = sb.peek();
        let qf = q.clone();
        sb.finale(move || {
            let c = qf.final_canary(&peek);
            if c == 6 {
                Ok(())
            } else {
                Err(format!("lock canary saw {c} critical sections, want 6"))
            }
        });
        let q0 = q.clone();
        sb.thread(move |ctx| {
            q0.enqueue(ctx, 1);
            q0.enqueue(ctx, 2);
        });
        let q1 = q.clone();
        sb.thread(move |ctx| {
            q1.enqueue(ctx, 3);
            q1.dequeue(ctx);
        });
        sb.thread(move |ctx| {
            q.dequeue(ctx);
            q.dequeue(ctx);
        });
    }
}

pub(crate) fn run_construct(
    construct: &'static str,
    property: &'static str,
    scenario: &Scenario,
    budget: &Budget,
) -> ConstructReport {
    let rep = explore(scenario, budget);
    let (verdict, counterexample) = match rep.counterexample {
        None => (Verdict::Pass, "-".to_string()),
        Some(c) => (Verdict::Fail, c.to_string()),
    };
    ConstructReport {
        construct,
        property,
        schedules: rep.distinct_schedules,
        executions: rep.executions,
        verdict,
        counterexample,
    }
}

/// Check every lock-free construct of the suite. Deterministic for a fixed
/// budget: same seed → same schedule counts and verdicts.
pub fn check_suite(budget: &CheckBudget) -> Vec<ConstructReport> {
    // The leading index seeds the row's budget; it is part of the row's
    // identity, so rows keep theirs when a neighbour is retired.
    let rows: Vec<(u64, &'static str, &'static str, Box<Scenario>)> = vec![
        (
            0,
            "queue/treiber",
            "linearizable LIFO, race-free",
            Box::new(treiber_scenario(TreiberSpec::SPLASH4)),
        ),
        (
            2,
            "queue/locked",
            "linearizable FIFO, mutual exclusion",
            Box::new(locked_queue_scenario()),
        ),
        (
            3,
            "barrier/sense",
            "phase separation, deadlock-free",
            Box::new(sense_barrier_scenario(false)),
        ),
        (
            4,
            "counter/getsub",
            "linearizable index grab, race-free",
            Box::new(getsub_scenario(TicketSpec::SPLASH4)),
        ),
        (
            5,
            "reduce/f64-cas",
            "linearizable sum, no lost updates",
            Box::new(reduce_f64_scenario(false)),
        ),
        (
            6,
            "reduce/u64",
            "linearizable sum, no lost updates",
            Box::new(reduce_u64_scenario()),
        ),
        (
            7,
            "pause/flag",
            "release/acquire publication, race-free",
            Box::new(flag_scenario(FlagSpec::SPLASH4)),
        ),
    ];
    rows.into_iter()
        .map(|(idx, construct, property, scenario)| {
            run_construct(construct, property, &*scenario, &budget.to_budget(idx))
        })
        .collect()
}

/// The mutant catalog: deliberately broken constructs the checker must
/// catch (one per bug class: weakened ordering, lost wakeup, lost update).
pub fn mutants() -> Vec<(
    &'static str,
    &'static str,
    &'static [&'static str],
    Box<Scenario>,
)> {
    vec![
        (
            "treiber-relaxed-pop",
            "TreiberStack pop weakened: head load Acquire -> Relaxed",
            &["data-race"] as &[_],
            Box::new(treiber_scenario(TreiberSpec {
                pop_load: Ordering::Relaxed,
                pop_cas_fail: Ordering::Relaxed,
                ..TreiberSpec::SPLASH4
            })),
        ),
        (
            "barrier-missing-flip",
            "SenseBarrier winner forgets the generation flip",
            &["deadlock"] as &[_],
            Box::new(sense_barrier_scenario(true)),
        ),
        (
            "reduce-lost-update",
            "AtomicF64 CAS loop replaced by load/compute/store",
            &["invariant", "not-linearizable"] as &[_],
            Box::new(reduce_f64_scenario(true)),
        ),
    ]
}

/// Run the checker against the mutant catalog.
pub fn check_mutants(budget: &CheckBudget) -> Vec<MutantReport> {
    run_mutant_catalog(mutants(), budget, 100)
}

/// Shared mutant-catalog driver (also used by the kernel-scenario catalog).
pub(crate) fn run_mutant_catalog(
    catalog: Vec<(
        &'static str,
        &'static str,
        &'static [&'static str],
        Box<Scenario>,
    )>,
    budget: &CheckBudget,
    base_idx: u64,
) -> Vec<MutantReport> {
    catalog
        .into_iter()
        .enumerate()
        .map(|(i, (name, description, expect, scenario))| {
            let rep = explore(&*scenario, &budget.to_budget(base_idx + i as u64));
            let (detected, counterexample) = match rep.counterexample {
                Some(c) if expect.contains(&c.failure.kind()) => (true, c.to_string()),
                Some(c) => (false, format!("unexpected {c}")),
                None => (false, "-".to_string()),
            };
            MutantReport {
                name,
                description,
                expect,
                schedules: rep.distinct_schedules,
                executions: rep.executions,
                detected,
                counterexample,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_suite_passes_at_small_budget() {
        for row in check_suite(&CheckBudget::small(11)) {
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
    fn all_mutants_are_detected_at_small_budget() {
        for m in check_mutants(&CheckBudget::small(13)) {
            assert!(m.detected, "{} not detected: {}", m.name, m.counterexample);
        }
    }
}
