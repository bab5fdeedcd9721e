//! C1-combining: shadow of the flat-combining core behind
//! [`SyncMode::Combining`](splash4_parmacs::SyncMode), plus its scenario and
//! mutant catalogs.
//!
//! The real [`splash4_parmacs::CombiningCore`] keeps each record's `arg` and
//! `result` words in `AtomicU64`s accessed with `Relaxed` — they are morally
//! plain data whose entire ordering comes from the protocol's two
//! publication edges (`publish_store` → `scan_load` on the way in,
//! `complete_store` → `wait_load` on the way out). The shadow makes that
//! safety argument checkable: `arg`, `result`, and the combined state are
//! **plain-data cells**, so the vector-clock race detector fails any
//! schedule where a weakened edge lets the combiner read an argument, or a
//! waiter read a result, without a happens-before chain. Request words and
//! the combiner lock stay atomic and read their orderings from the same
//! [`CombiningSpec`] the shipped core consumes — a one-field override is a
//! mutation test, exactly as with the other shadows.
//!
//! Waiters that fail the lock CAS park on the lock cell; the release store
//! wakes them to re-check their record, which is the blocking model of the
//! real core's backoff spin and preserves its progress argument (a combiner
//! that exits early leaves the lock free for an unserved waiter to take).

use crate::engine::{Peek, Sandbox, ThreadCtx};
use crate::explore::Scenario;
use crate::linearize::{Op, RetVal, SpecModel};
use crate::suite::{run_construct, run_mutant_catalog, CheckBudget, ConstructReport, MutantReport};
use splash4_parmacs::{CombiningSpec, SenseBarrierSpec};
use std::sync::atomic::Ordering;

/// Most participants any combining scenario uses (records are fixed-size
/// arrays so the shadows stay `Copy` like every other shadow construct).
const MAX_THREADS: usize = 4;

/// Request-word states: `EMPTY` means served, `OP_APPLY` asks the combiner
/// to fold the argument into the state, `OP_READ` asks for the current
/// state without mutating it.
const EMPTY: u64 = 0;
const OP_APPLY: u64 = 1;
const OP_READ: u64 = 2;

/// Result handed to the closing arrival of a combining barrier episode.
const ARRIVE_LAST: u64 = 1;

/// What the combiner's `apply` does with the shared state cell. One kind
/// per scenario, mirroring the `fn`-pointer `apply` of the real core.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `state += arg`, result is the pre-add sum (u64 reduction).
    AddU,
    /// f64 sum in bit patterns (f64 reduction).
    AddF,
    /// `GETSUB` grab: result is the old cursor, cursor advances by
    /// `arg` clamped to `end`.
    Grab {
        /// Exclusive end of the dispensed range.
        end: u64,
    },
    /// Barrier arrival: count to `n`, reset, hand [`ARRIVE_LAST`] back to
    /// the closing arrival.
    Arrive {
        /// Participant count.
        n: u64,
    },
}

/// Shadow of [`splash4_parmacs::CombiningCore`]: a combiner lock, one
/// request record per thread, and a plain-data state word only ever touched
/// while holding the lock.
#[derive(Debug, Clone, Copy)]
pub struct ShadowCombining {
    kind: Kind,
    spec: CombiningSpec,
    lock: usize,
    state: usize,
    req: [usize; MAX_THREADS],
    arg: [usize; MAX_THREADS],
    result: [usize; MAX_THREADS],
    n: usize,
    /// Mutant: the combiner serves its own record but marks every other
    /// pending record complete *without applying it*, silently dropping the
    /// batched operations.
    exit_before_drain: bool,
}

impl ShadowCombining {
    fn new(sb: &Sandbox, kind: Kind, n: usize, spec: CombiningSpec) -> ShadowCombining {
        assert!((1..=MAX_THREADS).contains(&n), "scenario participant count");
        let mut req = [0usize; MAX_THREADS];
        let mut arg = [0usize; MAX_THREADS];
        let mut result = [0usize; MAX_THREADS];
        for t in 0..n {
            req[t] = sb.alloc_atomic("combining.req", EMPTY);
            arg[t] = sb.alloc_data("combining.arg", 0);
            result[t] = sb.alloc_data("combining.result", 0);
        }
        ShadowCombining {
            kind,
            spec,
            lock: sb.alloc_atomic("combining.lock", 0),
            state: sb.alloc_data("combining.state", 0),
            req,
            arg,
            result,
            n,
            exit_before_drain: false,
        }
    }

    fn with_exit_before_drain(self) -> ShadowCombining {
        ShadowCombining {
            exit_before_drain: true,
            ..self
        }
    }

    /// Publish `(op, arg)` on `tid`'s record and wait for a result —
    /// combining pending records whenever the lock is free, exactly like
    /// `CombiningCore::run`.
    fn run(&self, ctx: &ThreadCtx, tid: usize, op: u64, arg: u64) -> u64 {
        let s = self.spec;
        ctx.data_write(self.arg[tid], arg);
        ctx.op_store(self.req[tid], op, s.publish_store);
        loop {
            if ctx.op_load(self.req[tid], s.wait_load) == EMPTY {
                return ctx.data_read(self.result[tid]);
            }
            match ctx.op_cas(self.lock, 0, 1, s.lock_cas_ok, s.lock_cas_fail) {
                Ok(_) => {
                    self.combine(ctx, tid);
                    ctx.op_store(self.lock, 0, s.lock_release);
                }
                Err(_) => ctx.block_on(self.lock),
            }
        }
    }

    /// Drain pending records in passes until a pass finds nothing, applying
    /// each op to the plain state and handing the result back through the
    /// record.
    fn combine(&self, ctx: &ThreadCtx, me: usize) {
        let s = self.spec;
        loop {
            let mut served = 0usize;
            for t in 0..self.n {
                let op = ctx.op_load(self.req[t], s.scan_load);
                if op == EMPTY {
                    continue;
                }
                if self.exit_before_drain && t != me {
                    ctx.op_store(self.req[t], EMPTY, s.complete_store);
                    continue;
                }
                let a = ctx.data_read(self.arg[t]);
                let r = if op == OP_READ {
                    ctx.data_read(self.state)
                } else {
                    self.apply(ctx, a)
                };
                ctx.data_write(self.result[t], r);
                ctx.op_store(self.req[t], EMPTY, s.complete_store);
                served += 1;
            }
            if served == 0 {
                break;
            }
        }
    }

    fn apply(&self, ctx: &ThreadCtx, arg: u64) -> u64 {
        let cur = ctx.data_read(self.state);
        match self.kind {
            Kind::AddU => {
                ctx.data_write(self.state, cur.wrapping_add(arg));
                cur
            }
            Kind::AddF => {
                let new = (f64::from_bits(cur) + f64::from_bits(arg)).to_bits();
                ctx.data_write(self.state, new);
                cur
            }
            Kind::Grab { end } => {
                ctx.data_write(self.state, (cur + arg).min(end));
                cur
            }
            Kind::Arrive { n } => {
                let arrived = cur + 1;
                if arrived == n {
                    ctx.data_write(self.state, 0);
                    ARRIVE_LAST
                } else {
                    ctx.data_write(self.state, arrived);
                    0
                }
            }
        }
    }
}

/// Shadow of the combined u64 cell of [`splash4_parmacs::Reducer`].
#[derive(Debug, Clone, Copy)]
pub struct ShadowCombinedReducer {
    core: ShadowCombining,
}

impl ShadowCombinedReducer {
    /// Allocate a zeroed sum combined across `n` participants.
    pub fn new(sb: &Sandbox, n: usize, spec: CombiningSpec) -> ShadowCombinedReducer {
        ShadowCombinedReducer {
            core: ShadowCombining::new(sb, Kind::AddU, n, spec),
        }
    }

    /// The exit-before-drain mutant of this reducer.
    pub fn with_exit_before_drain(self) -> ShadowCombinedReducer {
        ShadowCombinedReducer {
            core: self.core.with_exit_before_drain(),
        }
    }

    /// Add `v` to the sum through the combining core.
    pub fn add(&self, ctx: &ThreadCtx, tid: usize, v: u64) {
        ctx.invoke(Op::AddU(v));
        self.core.run(ctx, tid, OP_APPLY, v);
        ctx.ret(RetVal::Unit);
    }

    /// Read the current sum through the combining core.
    pub fn load(&self, ctx: &ThreadCtx, tid: usize) -> u64 {
        ctx.invoke(Op::LoadU);
        let v = self.core.run(ctx, tid, OP_READ, 0);
        ctx.ret(RetVal::Val(v));
        v
    }

    /// Final sum for finale invariants.
    pub fn final_value(&self, peek: &Peek) -> u64 {
        peek.data(self.core.state)
    }
}

/// Shadow of the combined f64 cell of [`splash4_parmacs::Reducer`].
#[derive(Debug, Clone, Copy)]
pub struct ShadowCombinedF64 {
    core: ShadowCombining,
}

impl ShadowCombinedF64 {
    /// Allocate a zeroed f64 sum combined across `n` participants.
    pub fn new(sb: &Sandbox, n: usize, spec: CombiningSpec) -> ShadowCombinedF64 {
        ShadowCombinedF64 {
            core: ShadowCombining::new(sb, Kind::AddF, n, spec),
        }
    }

    /// Add `delta` to the sum through the combining core.
    pub fn fetch_add(&self, ctx: &ThreadCtx, tid: usize, delta: f64) {
        ctx.invoke(Op::AddF(delta.to_bits()));
        self.core.run(ctx, tid, OP_APPLY, delta.to_bits());
        ctx.ret(RetVal::Unit);
    }

    /// Read the current sum through the combining core.
    pub fn load(&self, ctx: &ThreadCtx, tid: usize) -> f64 {
        ctx.invoke(Op::LoadF);
        let v = self.core.run(ctx, tid, OP_READ, 0);
        ctx.ret(RetVal::Val(v));
        f64::from_bits(v)
    }

    /// Final sum for finale invariants.
    pub fn final_value(&self, peek: &Peek) -> f64 {
        f64::from_bits(peek.data(self.core.state))
    }
}

/// Shadow of the combined cursor of [`splash4_parmacs::IndexCounter`],
/// chunk 1.
#[derive(Debug, Clone, Copy)]
pub struct ShadowCombinedCounter {
    core: ShadowCombining,
    total: u64,
}

impl ShadowCombinedCounter {
    /// Allocate a counter dispensing `0..total` across `n` participants.
    pub fn new(sb: &Sandbox, total: u64, n: usize, spec: CombiningSpec) -> ShadowCombinedCounter {
        ShadowCombinedCounter {
            core: ShadowCombining::new(sb, Kind::Grab { end: total }, n, spec),
            total,
        }
    }

    /// Grab the next index, `None` once the range is exhausted. The clamp in
    /// the grab apply keeps exhausted polls from overshooting, exactly like
    /// the real counter.
    pub fn next(&self, ctx: &ThreadCtx, tid: usize) -> Option<u64> {
        ctx.invoke(Op::Next);
        let i = self.core.run(ctx, tid, OP_APPLY, 1);
        if i < self.total {
            ctx.ret(RetVal::Val(i));
            Some(i)
        } else {
            ctx.ret(RetVal::Empty);
            None
        }
    }
}

/// Shadow of [`splash4_parmacs::SenseBarrier`] with combined arrival:
/// arrival funnels through the combining core; the closing arrival's result carries
/// [`ARRIVE_LAST`], and that thread bumps the generation word every other
/// participant waits on with the shipped sense-barrier orderings.
#[derive(Debug, Clone, Copy)]
pub struct ShadowCombinedBarrier {
    core: ShadowCombining,
    generation: usize,
    gen_spec: SenseBarrierSpec,
}

impl ShadowCombinedBarrier {
    /// Allocate a barrier for `n` participants.
    pub fn new(sb: &Sandbox, n: usize, spec: CombiningSpec) -> ShadowCombinedBarrier {
        ShadowCombinedBarrier {
            core: ShadowCombining::new(sb, Kind::Arrive { n: n as u64 }, n, spec),
            generation: sb.alloc_atomic("combining.barrier.generation", 0),
            gen_spec: SenseBarrierSpec::SPLASH4,
        }
    }

    /// Arrive and wait for the whole team.
    pub fn wait(&self, ctx: &ThreadCtx, tid: usize) {
        let s = self.gen_spec;
        let gen = ctx.op_load(self.generation, s.generation_load);
        if self.core.run(ctx, tid, OP_APPLY, 1) == ARRIVE_LAST {
            ctx.op_rmw(self.generation, s.generation_bump, |g| g + 1);
        } else {
            loop {
                if ctx.op_load(self.generation, s.spin_load) != gen {
                    break;
                }
                ctx.block_on(self.generation);
            }
        }
    }
}

/// Combining u64-reduction workload: two adders and a reader batching
/// through one core, with an exact-sum finale. The flag drives the
/// behavioral entry of the mutant catalog.
pub fn combining_reduce_scenario(
    spec: CombiningSpec,
    exit_before_drain: bool,
) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let mut cell = ShadowCombinedReducer::new(sb, 3, spec);
        if exit_before_drain {
            cell = cell.with_exit_before_drain();
        }
        sb.spec(SpecModel::SumU64(0));
        let peek = sb.peek();
        for (tid, v) in [1u64, 2].into_iter().enumerate() {
            sb.thread(move |ctx| {
                cell.add(ctx, tid, v);
                cell.add(ctx, tid, v);
            });
        }
        sb.thread(move |ctx| {
            cell.load(ctx, 2);
            cell.load(ctx, 2);
        });
        sb.finale(move || {
            let v = cell.final_value(&peek);
            if v == 6 {
                Ok(())
            } else {
                Err(format!("combining sum lost updates: final {v}, want 6"))
            }
        });
    }
}

/// Combining f64-reduction workload: mirrors the CAS-loop f64 scenario but
/// batches through the core.
pub fn combining_reduce_f64_scenario(spec: CombiningSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let cell = ShadowCombinedF64::new(sb, 3, spec);
        sb.spec(SpecModel::SumF64(0f64.to_bits()));
        let peek = sb.peek();
        sb.thread(move |ctx| {
            cell.fetch_add(ctx, 0, 1.0);
            cell.fetch_add(ctx, 0, 1.0);
        });
        sb.thread(move |ctx| {
            cell.fetch_add(ctx, 1, 0.25);
            cell.fetch_add(ctx, 1, 0.25);
        });
        sb.thread(move |ctx| {
            cell.load(ctx, 2);
        });
        sb.finale(move || {
            let v = cell.final_value(&peek);
            if v == 2.5 {
                Ok(())
            } else {
                Err(format!(
                    "combining f64 sum lost updates: final {v}, want 2.5"
                ))
            }
        });
    }
}

/// Combining `GETSUB` workload: three threads drain a shared index range
/// through the core.
pub fn combining_getsub_scenario(spec: CombiningSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let counter = ShadowCombinedCounter::new(sb, 4, 3, spec);
        sb.spec(SpecModel::Ticket { total: 4, next: 0 });
        for tid in 0..3usize {
            sb.thread(move |ctx| while counter.next(ctx, tid).is_some() {});
        }
    }
}

/// Combining-barrier workload: three threads, two episodes, with a
/// plain-data phase cell written between the barriers of each episode —
/// the same phase-separation property the sense barrier is checked for.
pub fn combining_barrier_scenario(spec: CombiningSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let bar = ShadowCombinedBarrier::new(sb, 3, spec);
        let phase = sb.alloc_data("phase", 0);
        for tid in 0..3usize {
            sb.thread(move |ctx| {
                for e in 0..2u64 {
                    bar.wait(ctx, tid);
                    if tid == 0 {
                        ctx.data_write(phase, e + 1);
                    }
                    bar.wait(ctx, tid);
                    let p = ctx.data_read(phase);
                    ctx.check(p == e + 1, "barrier separates the phase write from readers");
                }
            });
        }
    }
}

/// Check every combining-ported construct. Deterministic for a fixed
/// budget, like [`crate::check_suite`].
pub fn check_combining(budget: &CheckBudget) -> Vec<ConstructReport> {
    // Budget indices are part of a row's identity (see `check_suite`).
    let rows: Vec<(u64, &'static str, &'static str, Box<Scenario>)> = vec![
        (
            500,
            "combining/reduce-u64",
            "linearizable batched sum, race-free handoff",
            Box::new(combining_reduce_scenario(CombiningSpec::SPLASH4X, false)),
        ),
        (
            501,
            "combining/reduce-f64",
            "linearizable batched f64 sum, no lost updates",
            Box::new(combining_reduce_f64_scenario(CombiningSpec::SPLASH4X)),
        ),
        (
            502,
            "combining/getsub",
            "linearizable batched index grab, race-free",
            Box::new(combining_getsub_scenario(CombiningSpec::SPLASH4X)),
        ),
        (
            504,
            "combining/barrier",
            "phase separation, deadlock-free",
            Box::new(combining_barrier_scenario(CombiningSpec::SPLASH4X)),
        ),
    ];
    rows.into_iter()
        .map(|(idx, construct, property, scenario)| {
            run_construct(construct, property, &*scenario, &budget.to_budget(idx))
        })
        .collect()
}

/// The combining mutant catalog: each publication edge of the protocol
/// weakened one at a time, plus the behavioral exit-before-drain bug.
pub fn combining_mutants() -> Vec<(
    &'static str,
    &'static str,
    &'static [&'static str],
    Box<Scenario>,
)> {
    vec![
        (
            "combining-lost-publication",
            "CombiningCore publish weakened: request store Release -> Relaxed",
            &["data-race"] as &[_],
            Box::new(combining_reduce_scenario(
                CombiningSpec {
                    publish_store: Ordering::Relaxed,
                    ..CombiningSpec::SPLASH4X
                },
                false,
            )),
        ),
        (
            "combining-relaxed-scan",
            "CombiningCore scan weakened: request load Acquire -> Relaxed",
            &["data-race"] as &[_],
            Box::new(combining_reduce_scenario(
                CombiningSpec {
                    scan_load: Ordering::Relaxed,
                    ..CombiningSpec::SPLASH4X
                },
                false,
            )),
        ),
        (
            "combining-exit-before-drain",
            "combiner marks pending records complete without applying them",
            &["invariant", "not-linearizable"] as &[_],
            Box::new(combining_reduce_scenario(CombiningSpec::SPLASH4X, true)),
        ),
        (
            "combining-stale-result",
            "stale result handoff: completion store Release -> Relaxed, so \
             the waiter's wait-load no longer synchronizes with the result write",
            &["data-race"] as &[_],
            Box::new(combining_reduce_scenario(
                CombiningSpec {
                    complete_store: Ordering::Relaxed,
                    ..CombiningSpec::SPLASH4X
                },
                false,
            )),
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
        use crate::explore::{explore, replay};
        let scenario = combining_reduce_scenario(CombiningSpec::SPLASH4X, true);
        let budget = CheckBudget::small(23).to_budget(0);
        let rep = explore(&scenario, &budget);
        let cex = rep.counterexample.expect("exit-before-drain must fail");
        let replayed = replay(&scenario, &cex.schedule, budget.max_steps);
        assert!(
            replayed.failure.is_some(),
            "minimized schedule must reproduce the failure"
        );
    }
}
