//! The V1-check suite: one checked scenario per lock-free construct class,
//! plus the mutant catalog for the checker's own mutation tests.
//!
//! Each scenario is a small closed workload (a few threads, a handful of
//! operations) on the *shipped* construct, instantiated over
//! [`Model`] and built the way `SyncEnv` builds it, chosen so its
//! interleaving space comfortably exceeds the distinct-schedule target
//! while every operation of the construct — fast paths, retries,
//! exhaustion, blocking — is reachable. The mode-dependent constructs take
//! a [`SyncMode`], so the same body is the `V1-check` row under
//! `LockFree` and the `C1-combining` row under `Combining`. [`check_suite`]
//! explores every scenario and reports construct × property × schedules ×
//! verdict; [`check_mutants`] does the same for deliberately broken specs
//! and reports whether the injected bug was caught.

use crate::engine::{Fault, Sandbox, ThreadCtx};
use crate::explore::{explore, Budget, Scenario};
use crate::linearize::{Op, RetVal, SpecModel};
use crate::model::Model;
use splash4_parmacs::{
    AtomicFlag, Barrier, CondvarBarrier, FlagSpec, IndexCounter, LockedQueue, PauseVar, ReduceF64,
    ReduceU64, Reducer, SenseBarrier, SyncMode, TaskQueue, TreiberSpec, TreiberStack,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

/// Add a virtual thread that shares `shared` with its siblings.
pub(crate) fn spawn<C: ?Sized + Send + Sync + 'static>(
    sb: &mut Sandbox,
    shared: &Arc<C>,
    body: impl FnOnce(&ThreadCtx, &C) + Send + 'static,
) {
    let shared = Arc::clone(shared);
    sb.thread(move |ctx| body(ctx, &shared));
}

/// Run `call` as one operation of the history the Wing–Gong tester checks.
pub(crate) fn recorded<R: Copy + Into<RetVal>>(
    ctx: &ThreadCtx,
    op: Op,
    call: impl FnOnce() -> R,
) -> R {
    ctx.invoke(op);
    let result = call();
    ctx.ret(result.into());
    result
}

/// `scenario` run after `mutation` has set the sandbox up: an ordering
/// mutant of the shipped construct installs a spec with one field changed
/// ([`Sandbox::override_spec`]), a structural one injects a fault at a named
/// word ([`Sandbox::fault`]).
pub fn mutated(
    mutation: impl Fn(&mut Sandbox) + Sync,
    scenario: impl Fn(&mut Sandbox) + Sync,
) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        mutation(sb);
        scenario(sb);
    }
}

/// Treiber-stack workload: three threads mixing pushes and pops.
pub fn treiber_scenario(spec: TreiberSpec) -> impl Fn(&mut Sandbox) + Sync {
    let scenario = |sb: &mut Sandbox| {
        let stack = Arc::new(TreiberStack::<u64, Model>::new(Arc::default()));
        sb.spec(SpecModel::Stack(Vec::new()));
        spawn(sb, &stack, |ctx, stack| {
            recorded(ctx, Op::Push(1), || stack.push(1));
            recorded(ctx, Op::Push(2), || stack.push(2));
        });
        spawn(sb, &stack, |ctx, stack| {
            recorded(ctx, Op::Push(3), || stack.push(3));
            recorded(ctx, Op::Pop, || stack.pop());
        });
        spawn(sb, &stack, |ctx, stack| {
            recorded(ctx, Op::Pop, || stack.pop());
            recorded(ctx, Op::Pop, || stack.pop());
        });
    };
    mutated(move |sb| sb.override_spec(spec), scenario)
}

/// Sense-barrier workload: three threads, two double-barrier episodes with
/// a plain-data phase cell written between the barriers of each episode.
/// `mode` picks the barrier: the futex barrier (Splash-3), or the sense
/// barrier arriving by `fetch_add` (V1) or combined (C1).
pub fn sense_barrier_scenario(mode: SyncMode) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let bar: Arc<dyn Barrier> = match mode {
            SyncMode::LockBased => Arc::new(CondvarBarrier::<Model>::new(3, Arc::default())),
            SyncMode::LockFree => Arc::new(SenseBarrier::<Model>::new(3, Arc::default())),
            SyncMode::Combining => Arc::new(SenseBarrier::<Model>::combining(3, Arc::default())),
        };
        let phase = sb.alloc_data("phase", 0);
        for tid in 0..3usize {
            spawn(sb, &bar, move |ctx, bar| {
                for e in 0..2u64 {
                    bar.wait(tid);
                    if tid == 0 {
                        ctx.data_write(phase, e + 1);
                    }
                    bar.wait(tid);
                    let p = ctx.data_read(phase);
                    ctx.check(p == e + 1, "barrier separates the phase write from readers");
                }
            });
        }
    }
}

/// f64 reduction workload: two adders, one concurrent reader, and a finale
/// asserting no update was lost. `mode` picks the cell: the CAS loop (V1)
/// or the combined accumulator (C1).
pub fn reduce_f64_scenario(mode: SyncMode) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let cell = Arc::new(Reducer::<Model>::new(mode, 3, Arc::default()));
        sb.spec(SpecModel::SumF64(0f64.to_bits()));
        for delta in [1.0f64, 0.25] {
            spawn(sb, &cell, move |ctx, cell| {
                for _ in 0..2 {
                    recorded(ctx, Op::AddF(delta.to_bits()), || {
                        ReduceF64::add(cell, delta)
                    });
                }
            });
        }
        spawn(sb, &cell, |ctx, cell| {
            for _ in 0..2 {
                recorded(ctx, Op::LoadF, || ReduceF64::load(cell).to_bits());
            }
        });
        sb.finale(move || match ReduceF64::load(&*cell) {
            2.5 => Ok(()),
            v => Err(format!(
                "f64 reduction lost updates: final sum {v}, want 2.5"
            )),
        });
    }
}

/// Integer reduction workload: three adders, one reader, exact-sum finale.
/// `mode` picks the cell: `fetch_add` (V1) or the combined accumulator (C1).
pub fn reduce_u64_scenario(mode: SyncMode) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let cell = Arc::new(Reducer::<Model>::new(mode, 4, Arc::default()));
        sb.spec(SpecModel::SumU64(0));
        for v in [1u64, 2, 4] {
            spawn(sb, &cell, move |ctx, cell| {
                for _ in 0..2 {
                    recorded(ctx, Op::AddU(v), || ReduceU64::add(cell, v));
                }
            });
        }
        spawn(sb, &cell, |ctx, cell| {
            for _ in 0..2 {
                recorded(ctx, Op::LoadU, || ReduceU64::load(cell));
            }
        });
        sb.finale(move || match ReduceU64::load(&*cell) {
            14 => Ok(()),
            v => Err(format!(
                "u64 reduction lost updates: final sum {v}, want 14"
            )),
        });
    }
}

/// PAUSE/SETPAUSE workload: cross-handoff of two payloads through two flags
/// while a third thread polls and finally reads both payloads.
pub fn flag_scenario(spec: FlagSpec) -> impl Fn(&mut Sandbox) + Sync {
    let scenario = |sb: &mut Sandbox| {
        let flags = Arc::new([
            AtomicFlag::<Model>::new(Arc::default()),
            AtomicFlag::<Model>::new(Arc::default()),
        ]);
        let d0 = sb.alloc_data("payload0", 0);
        let d1 = sb.alloc_data("payload1", 0);
        spawn(sb, &flags, move |ctx, [fa, fb]| {
            ctx.data_write(d0, 10);
            fa.set();
            fb.wait();
            let v = ctx.data_read(d1);
            ctx.check(v == 20, "flag publication: t0 sees t1's payload");
        });
        spawn(sb, &flags, move |ctx, [fa, fb]| {
            ctx.data_write(d1, 20);
            fb.set();
            fa.wait();
            let v = ctx.data_read(d0);
            ctx.check(v == 10, "flag publication: t1 sees t0's payload");
        });
        spawn(sb, &flags, move |ctx, [fa, fb]| {
            for _ in 0..3 {
                fa.is_set();
                fb.is_set();
            }
            fa.wait();
            fb.wait();
            let sum = ctx.data_read(d0) + ctx.data_read(d1);
            ctx.check(sum == 30, "flag publication: t2 sees both payloads");
        });
    };
    mutated(move |sb| sb.override_spec(spec), scenario)
}

/// `GETSUB` counter workload: three threads drain a shared index range.
/// `mode` picks the cursor: `fetch_add` (V1) or the combined grab (C1).
pub fn getsub_scenario(mode: SyncMode) -> impl Fn(&mut Sandbox) + Sync {
    const TOTAL: usize = 4;
    move |sb: &mut Sandbox| {
        let counter = Arc::new(IndexCounter::<Model>::new(
            mode,
            0..TOTAL,
            3,
            Arc::default(),
        ));
        sb.spec(SpecModel::Ticket {
            total: TOTAL as u64,
            next: 0,
        });
        for _ in 0..3 {
            spawn(sb, &counter, |ctx, counter| {
                let next = || counter.next().map(|i| i as u64);
                while recorded(ctx, Op::Next, next).is_some() {}
            });
        }
    }
}

/// Locked-queue workload: three threads mixing enqueues and dequeues on
/// the shipped `LockedQueue`, whose items are a plain-data cell: a lock
/// that fails to exclude shows as a data race.
pub fn locked_queue_scenario() -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let q = Arc::new(LockedQueue::<u64, Model>::new(Arc::default()));
        sb.spec(SpecModel::Fifo(VecDeque::new()));
        spawn(sb, &q, |ctx, q| {
            recorded(ctx, Op::Enqueue(1), || q.push(1));
            recorded(ctx, Op::Enqueue(2), || q.push(2));
        });
        spawn(sb, &q, |ctx, q| {
            recorded(ctx, Op::Enqueue(3), || q.push(3));
            recorded(ctx, Op::Dequeue, || q.pop());
        });
        spawn(sb, &q, |ctx, q| {
            recorded(ctx, Op::Dequeue, || q.pop());
            recorded(ctx, Op::Dequeue, || q.pop());
        });
    }
}

/// Rows of a construct table: budget index (part of a row's identity, so
/// rows keep theirs when a neighbour is retired), id, property, scenario.
pub(crate) type Rows = Vec<(u64, &'static str, &'static str, Box<Scenario>)>;

/// A catalog entry: id, description, failure classes that catch it, scenario.
pub(crate) type Mutant = (
    &'static str,
    &'static str,
    &'static [&'static str],
    Box<Scenario>,
);

/// A mutant catalog.
pub type MutantCatalog = Vec<Mutant>;

/// Explore every row under its own budget. Deterministic for a fixed
/// budget: same seed → same schedule counts and verdicts.
pub(crate) fn run_rows(rows: Rows, budget: &CheckBudget) -> Vec<ConstructReport> {
    let run = |(idx, construct, property, scenario): (u64, _, _, Box<Scenario>)| {
        run_construct(construct, property, &*scenario, &budget.to_budget(idx))
    };
    rows.into_iter().map(run).collect()
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
    let rows: Rows = vec![
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
            Box::new(sense_barrier_scenario(SyncMode::LockFree)),
        ),
        (
            4,
            "counter/getsub",
            "linearizable index grab, race-free",
            Box::new(getsub_scenario(SyncMode::LockFree)),
        ),
        (
            5,
            "reduce/f64-cas",
            "linearizable sum, no lost updates",
            Box::new(reduce_f64_scenario(SyncMode::LockFree)),
        ),
        (
            6,
            "reduce/u64",
            "linearizable sum, no lost updates",
            Box::new(reduce_u64_scenario(SyncMode::LockFree)),
        ),
        (
            7,
            "pause/flag",
            "release/acquire publication, race-free",
            Box::new(flag_scenario(FlagSpec::SPLASH4)),
        ),
    ];
    run_rows(rows, budget)
}

/// The mutant catalog: the shipped constructs under one mutated ordering
/// table or one injected fault, which the checker must catch (one per bug
/// class: weakened ordering, lost wakeup, lost update).
pub fn mutants() -> MutantCatalog {
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
            Box::new(mutated(
                |sb| sb.fault("barrier.generation", Fault::Dropped),
                sense_barrier_scenario(SyncMode::LockFree),
            )),
        ),
        (
            "reduce-lost-update",
            "AtomicF64 CAS executes as load/compute/store",
            &["invariant", "not-linearizable"] as &[_],
            Box::new(mutated(
                |sb| sb.fault("reduce.f64", Fault::Torn),
                reduce_f64_scenario(SyncMode::LockFree),
            )),
        ),
    ]
}

/// Run the checker against the mutant catalog.
pub fn check_mutants(budget: &CheckBudget) -> Vec<MutantReport> {
    run_mutant_catalog(mutants(), budget, 100)
}

/// Shared mutant-catalog driver (also used by the kernel-scenario catalog).
pub(crate) fn run_mutant_catalog(
    catalog: MutantCatalog,
    budget: &CheckBudget,
    base_idx: u64,
) -> Vec<MutantReport> {
    let catalog = (base_idx..).zip(&catalog);
    catalog
        .map(|(idx, entry)| run_mutant(entry, &budget.to_budget(idx)))
        .collect()
}

/// Explore one catalog entry: caught when a failure of an expected class
/// turns up.
pub(crate) fn run_mutant(
    (name, description, expect, scenario): &Mutant,
    budget: &Budget,
) -> MutantReport {
    let rep = explore(&**scenario, budget);
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
