//! R1-reclaim: model checking for `splash4-reclaim` — the dynamic pools
//! (Michael-Scott queue, elimination-backoff stack) and both reclamation
//! protocols (epoch-based, hazard-pointer).
//!
//! Every row runs the shipped types: a [`TaskPool`] over [`Model`], which
//! is `splash4_reclaim`'s `MsQueue<u64, Model>` or `EliminationStack<u64,
//! Model>`, each once over an `EpochReclaimer<Model>` and once over a
//! `HazardReclaimer<Model>` — slot leasing, publish and re-validate, retire,
//! the epoch's two-advance rule and the hazard scan included. Two or three virtual threads follow a short [`Step`] script of
//! recorded pushes and pops (the Wing–Gong tester checks the history
//! against [`SpecModel::Fifo`] / [`SpecModel::Stack`]); collection is the
//! reclaimer's public `flush`, called by one thread *while* the others are
//! inside their operations and once more, after draining the pool, by
//! whichever thread finishes last: at quiescence. The nodes the reclaimers
//! free go through [`Model::free`](splash4_parmacs::Atomics::free): a free
//! that comes too early is a **use-after-free** (or a data race with an
//! earlier read) at the very operation that would have read freed memory,
//! and the finale demands that nothing is pending after the last flush (no
//! **leak at quiescence**) and that the pops returned exactly what was
//! pushed.
//!
//! The mutant catalog leaves the code alone and breaks one named word:
//! the five bug classes of the subsystem are a dropped epoch announcement
//! (premature free), a dropped epoch advance (nothing is ever reclaimed), a
//! torn link CAS on the queue (lost node), a torn exchange-slot CAS on the
//! stack (an offer both taken and withdrawn) and a dropped hazard
//! publication (unprotected read).

use crate::engine::{Fault, Sandbox, ThreadCtx};
use crate::explore::Scenario;
use crate::linearize::{Op, SpecModel};
use crate::model::Model;
use crate::suite::{
    mutated, recorded, run_mutant_catalog, run_rows, spawn, CheckBudget, ConstructReport,
    MutantCatalog, MutantReport,
};
use splash4_reclaim::{PoolShape, ReclaimKind, TaskPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One operation of a thread's script.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Push the value.
    Push(u64),
    /// Pop, keeping what comes out for the conservation finale.
    Pop,
    /// Collect through the reclaimer's public `flush`.
    Flush,
}
use Step::{Flush, Pop, Push};

/// A scenario's scripts, one per virtual thread.
pub type Scripts = &'static [&'static [Step]];

/// The shipped pool, plus the scenario's own tallies.
struct Rig {
    pool: TaskPool<u64, Model>,
    fifo: bool,
    popped: Mutex<Vec<u64>>,
    threads: usize,
    /// Threads through with their script. Bookkeeping of the scenario, so
    /// not a model word: neither a schedule point nor a happens-before
    /// edge — those a free needs must come from the reclaimer's protocol.
    done: AtomicUsize,
}

impl Rig {
    fn pop(&self, ctx: &ThreadCtx) -> Option<u64> {
        let op = if self.fifo { Op::Dequeue } else { Op::Pop };
        let got = recorded(ctx, op, || self.pool.pop());
        self.popped.lock().unwrap().extend(got);
        got
    }

    fn run(&self, ctx: &ThreadCtx, script: &[Step]) {
        for step in script {
            match *step {
                Push(v) => {
                    let op = if self.fifo {
                        Op::Enqueue(v)
                    } else {
                        Op::Push(v)
                    };
                    recorded(ctx, op, || self.pool.push(v));
                }
                Pop => drop(self.pop(ctx)),
                Flush => self.pool.flush(),
            }
        }
        // The last thread through is at quiescence: it drains the pool and
        // flushes, and whatever is pending after *that* is a leak.
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.threads {
            while self.pop(ctx).is_some() {}
            self.pool.flush();
        }
    }

    /// Every retired node was freed, and the pops are the pushed multiset.
    fn finale(&self, mut pushed: Vec<u64>) -> Result<(), String> {
        let st = self.pool.reclaim_stats();
        if st.pending() != 0 {
            return Err(format!(
                "leak at quiescence: {} retired, {} freed",
                st.retires, st.frees
            ));
        }
        let mut have = std::mem::take(&mut *self.popped.lock().unwrap());
        have.sort_unstable();
        pushed.sort_unstable();
        if have != pushed {
            return Err(format!(
                "pool lost or duplicated values: popped {have:?}, pushed {pushed:?}"
            ));
        }
        Ok(())
    }
}

/// One thread per script of `scripts` on the shipped pool of `shape`, which
/// holds `stock` to begin with, over the shipped reclaimer of `kind`.
pub fn pool_scenario(
    shape: PoolShape,
    kind: ReclaimKind,
    stock: &'static [u64],
    scripts: Scripts,
) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        // One record per virtual thread, one for the harness thread if it
        // stocks the pool.
        let records = scripts.len() + usize::from(!stock.is_empty());
        let rig = Arc::new(Rig {
            pool: TaskPool::new(shape, kind, records, Arc::default()),
            fifo: shape == PoolShape::Fifo,
            popped: Mutex::default(),
            threads: scripts.len(),
            done: AtomicUsize::new(0),
        });
        sb.spec(match shape {
            PoolShape::Fifo => SpecModel::Fifo(stock.iter().copied().collect()),
            PoolShape::Lifo => SpecModel::Stack(stock.to_vec()),
        });
        let mut pushed = stock.to_vec();
        stock.iter().for_each(|v| rig.pool.push(*v));
        for script in scripts {
            spawn(sb, &rig, |ctx, rig| rig.run(ctx, script));
            pushed.extend(script.iter().filter_map(|s| match s {
                Push(v) => Some(*v),
                _ => None,
            }));
        }
        sb.finale(move || rig.finale(pushed));
    }
}

/// The four rows: id, property, pool, reclaimer, stock, scripts.
type Row = (
    &'static str,
    &'static str,
    PoolShape,
    ReclaimKind,
    &'static [u64],
    Scripts,
);

const ROWS: [Row; 4] = [
    // Two pushes race for the tail while a pop may still be under way.
    (
        "pool/ms-queue",
        "linearizable FIFO, value conservation",
        PoolShape::Fifo,
        ReclaimKind::Epoch,
        &[1],
        &[&[Pop, Push(2)], &[Push(3)]],
    ),
    // A push that loses its race for `head` offers in the exchange slot; a
    // pop that finds the stack empty takes the offer.
    (
        "pool/elimination",
        "linearizable LIFO with exchange, race-free",
        PoolShape::Lifo,
        ReclaimKind::Hazard,
        &[1, 2],
        &[&[Pop, Push(3)], &[Pop, Pop]],
    ),
    // A popper, and a popper that collects while the first may still be
    // inside its pop.
    (
        "reclaim/epoch",
        "no use-after-free, no leak at quiescence",
        PoolShape::Lifo,
        ReclaimKind::Epoch,
        &[1, 2],
        &[&[Pop], &[Pop, Flush]],
    ),
    (
        "reclaim/hazard",
        "no use-after-free, no leak at quiescence",
        PoolShape::Fifo,
        ReclaimKind::Hazard,
        &[1, 2],
        &[&[Pop], &[Pop, Flush]],
    ),
];

fn scenario((_, _, shape, kind, stock, scripts): Row) -> Box<Scenario> {
    Box::new(pool_scenario(shape, kind, stock, scripts))
}

/// Check the reclaim subsystem's constructs. Deterministic for a fixed
/// budget, like [`crate::check_suite`].
pub fn check_reclaim(budget: &CheckBudget) -> Vec<ConstructReport> {
    // Indices sit past the V1 constructs' so the seeds differ.
    let rows = (20..)
        .zip(ROWS)
        .map(|(idx, row)| (idx, row.0, row.1, scenario(row)));
    run_rows(rows.collect(), budget)
}

/// The reclaim mutant catalog: one fault at one named word of a row's
/// scenario per bug class of the subsystem.
pub fn reclaim_mutants() -> MutantCatalog {
    let mutant = |construct, cell, fault| -> Box<Scenario> {
        let row = ROWS.into_iter().find(|row| row.0 == construct);
        let row = scenario(row.expect("a row of the table"));
        Box::new(mutated(move |sb| sb.fault(cell, fault), row))
    };
    vec![
        (
            "epoch-premature-free",
            "epoch announcement store dropped: the two-advance rule frees under a pinned reader",
            &["use-after-free", "data-race"] as &[_],
            mutant("reclaim/epoch", "epoch.announce", Fault::Dropped),
        ),
        (
            "epoch-never-reclaimed",
            "epoch advance CAS dropped: no retired node is ever old enough, leak at quiescence",
            &["invariant"] as &[_],
            mutant("reclaim/epoch", "epoch.global", Fault::Dropped),
        ),
        (
            "ms-queue-lost-link",
            "MsQueue link CAS on tail.next torn into a blind store",
            &["invariant", "not-linearizable"] as &[_],
            mutant("pool/ms-queue", "msq.node.next", Fault::Torn),
        ),
        (
            "elimination-duplicate-take",
            "exchange-slot CAS torn into a blind store: an offer is taken and withdrawn too",
            &["use-after-free", "not-linearizable", "invariant"] as &[_],
            mutant("pool/elimination", "elim.slot", Fault::Torn),
        ),
        (
            "hazard-unprotected-read",
            "hazard publication store dropped: the scan frees a node a reader validated",
            &["use-after-free", "data-race"] as &[_],
            mutant("reclaim/hazard", "hazard.hp", Fault::Dropped),
        ),
    ]
}

/// Run the checker against the reclaim mutant catalog.
pub fn check_reclaim_mutants(budget: &CheckBudget) -> Vec<MutantReport> {
    run_mutant_catalog(reclaim_mutants(), budget, 400)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Verdict;

    #[test]
    fn clean_reclaim_constructs_pass_at_small_budget() {
        for row in check_reclaim(&CheckBudget::small(17)) {
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
    fn all_reclaim_mutants_are_detected_at_small_budget() {
        for m in check_reclaim_mutants(&CheckBudget::small(19)) {
            assert!(m.detected, "{} not detected: {}", m.name, m.counterexample);
        }
    }

    #[test]
    fn reclaim_counterexamples_replay_deterministically() {
        use crate::explore::{explore, replay, Budget, Schedule};
        let budget = CheckBudget::small(23).to_budget(0);
        for (name, _, expect, scenario) in reclaim_mutants() {
            let cex = explore(&*scenario, &budget).counterexample;
            let cex = cex.unwrap_or_else(|| panic!("{name} not detected"));
            assert!(expect.contains(&cex.failure.kind()), "{name}: {cex}");
            let parsed = Schedule::parse(&cex.schedule.to_string()).unwrap();
            let again = replay(&*scenario, &parsed, Budget::MAX_STEPS);
            assert_eq!(again.failure, Some(cex.failure), "{name}: replay diverged");
        }
    }
}
