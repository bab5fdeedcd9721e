//! The W1-weakmem suite: ordering bugs only weak-memory value exploration
//! can see.
//!
//! The V1/V2 suites catch weakened orderings through the **data races** they
//! cause on plain data. That net has a hole: when the communicated state is
//! itself atomic (a flag read with the wrong ordering, a store-buffering pair
//! of announcements, a hazard validate/scan handshake), there is no plain
//! access to race and every sequentially consistent interleaving returns the
//! latest value — the bug is invisible to interleaving-only search. These
//! scenarios close the hole: run under [`MemoryModel::Weak`], the engine also
//! branches over the *stale values* the annotations admit, so an
//! `Acquire → Relaxed` or `SeqCst → Acquire` downgrade produces a stale
//! payload or a use-after-free with a replayable schedule, while the shipped
//! Splash-4 orderings pass every explored execution.
//!
//! Every row runs shipped code over [`Model`]: [`AtomicFlag`] and
//! [`SenseBarrier`] around an atomic payload word, the R1 [`pool_scenario`]
//! body (a `TaskPool` over the epoch and the hazard reclaimer) and `cmap`'s
//! [`LockFreeMap`] — so a mutant is the row's scenario with one field of one
//! [`splash4_parmacs::spec`] table overridden ([`weakmem_mutants`]).
//! [`check_weakmem_mutants`] additionally reruns every mutant under
//! [`MemoryModel::Sc`] and reports `sc_missed`: the bugs this suite exists
//! for are precisely the ones the SC pass cannot find. The two textbook
//! shapes on raw engine cells, [`mp_flag_scenario`] and
//! [`sb_epoch_scenario`], are tests of the engine, not rows of the suite.

use crate::engine::{MemoryModel, Sandbox};
use crate::explore::{explore, Budget, Scenario};
use crate::model::{Model, ModelWord};
use crate::reclaim::{pool_scenario, Step::Flush, Step::Pop};
use crate::suite::{
    mutated, run_construct, run_mutant, spawn, CheckBudget, ConstructReport, MutantCatalog,
    MutantReport,
};
use splash4_kernels::cmap::LockFreeMap;
use splash4_parmacs::atomics::Word;
use splash4_parmacs::{
    AtomicFlag, Barrier, EpochSpec, FlagSpec, HazardSpec, PauseVar, SenseBarrier, SenseBarrierSpec,
};
use splash4_reclaim::{
    PoolShape,
    ReclaimKind::{self, Epoch, Hazard},
};
use std::sync::atomic::Ordering::{Acquire, Relaxed};
use std::sync::Arc;

/// Per-execution stale-read budget the W1 suite explores with: what the
/// deepest catalogued bug takes (an epoch pin in the past reads the global
/// epoch stale twice to settle, and the old head twice, to take it and to
/// validate it), and no more, to keep the search small.
pub const WEAK_STALE_READS: u32 = 4;

/// Construct-index base for W1 seeds (V1 uses 0.., mutants 100.., kernels
/// and reclaim their own ranges; 400.. keeps the streams disjoint).
const WEAK_BASE_IDX: u64 = 400;

fn weak_budget(budget: &CheckBudget, idx: u64) -> Budget {
    Budget {
        memory: MemoryModel::Weak {
            stale_reads: WEAK_STALE_READS,
        },
        ..budget.to_budget(idx)
    }
}

/// The message-passing litmus test on raw engine cells: the producer
/// publishes a relaxed payload cell and sets the flag, the consumer waits on
/// the flag and reads the payload. Pins the engine's weak-memory decisions
/// (`tests/pinned.rs`); the suite's row is [`flag_payload_scenario`].
pub fn mp_flag_scenario(spec: FlagSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let flag = sb.alloc_atomic("flag", 0);
        let payload = sb.alloc_atomic("payload", 0);
        sb.thread(move |ctx| {
            ctx.op_store(payload, 42, Relaxed);
            ctx.op_store(flag, 1, spec.set_store);
        });
        sb.thread(move |ctx| {
            while ctx.op_load(flag, spec.wait_load) == 0 {
                ctx.block_on(flag);
            }
            let v = ctx.op_load(payload, Relaxed);
            ctx.check(v == 42, "payload visible after flag handshake");
        });
    }
}

/// The store-buffering litmus test on raw engine cells, with the epoch
/// table's orderings: each side announces (stores its slot) then reads the
/// other side's slot. With `SeqCst` at least one side must observe the
/// other; any load-side downgrade admits the both-read-zero outcome. Pins
/// the engine's value-window decisions (`tests/pinned.rs`); the suite's rows
/// run the reclaimers themselves.
pub fn sb_epoch_scenario(spec: EpochSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let announce0 = sb.alloc_atomic("announce0", 0);
        let announce1 = sb.alloc_atomic("announce1", 0);
        let r0 = sb.alloc_atomic("r0", u64::MAX);
        let r1 = sb.alloc_atomic("r1", u64::MAX);
        let peek = sb.peek();
        sb.thread(move |ctx| {
            ctx.op_store(announce0, 1, spec.announce_store);
            let v = ctx.op_load(announce1, spec.global_load);
            ctx.op_store(r0, v, Relaxed);
        });
        sb.thread(move |ctx| {
            ctx.op_store(announce1, 1, spec.announce_store);
            let v = ctx.op_load(announce0, spec.scan_load);
            ctx.op_store(r1, v, Relaxed);
        });
        sb.finale(move || {
            if peek.atomic(r0) == 0 && peek.atomic(r1) == 0 {
                Err("store-buffering: both sides read 0 (pin invisible to the scan)".into())
            } else {
                Ok(())
            }
        });
    }
}

/// Message passing through the shipped [`AtomicFlag`] with an **atomic**
/// payload: the producer stores a relaxed payload word and sets the flag,
/// the consumer waits on the flag and reads the payload. Unlike
/// [`crate::flag_scenario`], nothing here is plain data, so a weakened flag
/// ordering causes no data race — only a stale payload value, which SC
/// value semantics never produce.
pub fn flag_payload_scenario() -> impl Fn(&mut Sandbox) + Sync {
    |sb: &mut Sandbox| {
        let flag = AtomicFlag::<Model>::new(Arc::default());
        let shared = Arc::new((flag, ModelWord::<u64>::new("payload", 0)));
        spawn(sb, &shared, |ctx, (flag, payload)| {
            flag.wait();
            let v = payload.load(Relaxed);
            ctx.check(v == 42, "payload visible after flag handshake");
        });
        spawn(sb, &shared, |_ctx, (flag, payload)| {
            payload.store(42, Relaxed);
            flag.set();
        });
    }
}

/// One episode of the shipped two-thread [`SenseBarrier`] with an atomic
/// pre-barrier payload: one thread writes the payload and arrives, the
/// other arrives and then reads it. The `AcqRel` arrive/bump RMWs and the
/// `Acquire` spin load carry the payload across the episode; a `Relaxed`
/// spin load lets the waiter leave the barrier with a stale payload in
/// hand.
pub fn barrier_payload_scenario() -> impl Fn(&mut Sandbox) + Sync {
    |sb: &mut Sandbox| {
        let barrier = SenseBarrier::<Model>::new(2, Arc::default());
        let shared = Arc::new((barrier, ModelWord::<u64>::new("payload", 0)));
        spawn(sb, &shared, |ctx, (barrier, payload)| {
            barrier.wait(0);
            let v = payload.load(Relaxed);
            ctx.check(v == 7, "pre-barrier payload visible after the episode");
        });
        spawn(sb, &shared, |_ctx, (barrier, payload)| {
            payload.store(7, Relaxed);
            barrier.wait(1);
        });
    }
}

/// The `cmap` reader's epoch pin as the kernel composes it: the shipped
/// [`LockFreeMap`], stocked with keys 2 and 4. One thread removes key 2 and
/// collects through the map's `flush`, which frees the snipped node once
/// two epoch advances found nobody pinned before them; the other looks key
/// 4 up, walking over that node with no validation but its pin. The pin's
/// `SeqCst` global load is what keeps a reader that pins after the advances
/// from walking a chain older than they are; an `Acquire` one admits a pin
/// in the past, and the walk reaches the freed node — no data race (the
/// chain is all atomic words), so only weak-memory value exploration can
/// catch it.
pub fn cmap_pin_scenario() -> impl Fn(&mut Sandbox) + Sync {
    |sb: &mut Sandbox| {
        // One record per virtual thread and one for the harness thread.
        let map = Arc::new(LockFreeMap::<Model>::new(1, 3, Arc::default()));
        map.insert(2, 20);
        map.insert(4, 40);
        spawn(sb, &map, |_ctx, map| {
            map.remove(2);
            map.flush();
        });
        spawn(sb, &map, |ctx, map| {
            let v = map.lookup(4);
            ctx.check(v == Some(40), "cmap: an untouched key stays visible");
        });
        // The last owner: the map dies after every thread, as it does after
        // a kernel's team.
        sb.finale(move || match map.lookup(2) {
            None => Ok(()),
            Some(v) => Err(format!("cmap: removed key 2 still maps to {v}")),
        });
    }
}

/// A reclaimer row: the R1 [`pool_scenario`] body under the weak budget, on
/// the stack over epochs or the queue over hazards. One popper pops and
/// collects; the other starts once the popped node is freed, and must not
/// pin in the past (publish too late) and take the old head for the head.
/// The stack holds a second node for it to pop: the one a collector whose
/// scan misses that popper's pin frees under it.
fn reclaim_row(kind: ReclaimKind) -> Box<Scenario> {
    let (shape, stock): (_, &[u64]) = match kind {
        Epoch => (PoolShape::Lifo, &[1, 2]),
        Hazard => (PoolShape::Fifo, &[1]),
    };
    Box::new(pool_scenario(shape, kind, stock, &[&[Pop, Flush], &[Pop]]))
}

/// The five rows: id, property, scenario.
fn rows() -> Vec<(&'static str, &'static str, Box<Scenario>)> {
    vec![
        (
            "weakmem/mp-flag",
            "atomic payload visible across the flag handshake",
            Box::new(flag_payload_scenario()),
        ),
        (
            "weakmem/sb-epoch",
            "no store-buffering between announce and scan",
            reclaim_row(Epoch),
        ),
        (
            "weakmem/sb-hazard",
            "validate or scan observes the other side",
            reclaim_row(Hazard),
        ),
        (
            "weakmem/barrier",
            "pre-barrier payload visible after the episode",
            Box::new(barrier_payload_scenario()),
        ),
        (
            "weakmem/cmap-pin",
            "pinned cmap reader never observes a freed node",
            Box::new(cmap_pin_scenario()),
        ),
    ]
}

/// Explore the shipped orderings of every W1 scenario under weak memory.
/// All five must pass: the Splash-4 annotations are exactly strong enough.
pub fn check_weakmem(budget: &CheckBudget) -> Vec<ConstructReport> {
    let rows = (WEAK_BASE_IDX..).zip(rows());
    rows.map(|(idx, (construct, property, scenario))| {
        run_construct(construct, property, &*scenario, &weak_budget(budget, idx))
    })
    .collect()
}

/// `scenario` under the shipped table `spec` with one ordering flipped.
fn flipped<S: Copy + Send + Sync + 'static>(
    scenario: impl Fn(&mut Sandbox) + Sync + 'static,
    mut spec: S,
    flip: impl Fn(&mut S),
) -> Box<Scenario> {
    flip(&mut spec);
    Box::new(mutated(move |sb| sb.override_spec(spec), scenario))
}

/// The W1 mutant catalog: a row's scenario with one ordering of one shipped
/// table flipped per entry, every one invisible to SC interleaving search
/// (no plain data to race, values always latest) and catchable only through
/// weak-memory value exploration — as a stale payload, or as the use of a
/// node freed too early (which the search may meet first as the free's race
/// with that use).
pub fn weakmem_mutants() -> MutantCatalog {
    const STALE: &[&str] = &["invariant"];
    const FREED: &[&str] = &["use-after-free", "data-race"];
    let (flag, epoch) = (FlagSpec::SPLASH4, EpochSpec::SPLASH4);
    let (hazard, barrier) = (HazardSpec::SPLASH4, SenseBarrierSpec::SPLASH4);
    vec![
        (
            "flag-wait-relaxed",
            "flag wait load Acquire -> Relaxed: sees the flag, not the payload",
            STALE,
            flipped(flag_payload_scenario(), flag, |s| s.wait_load = Relaxed),
        ),
        (
            "flag-set-relaxed",
            "flag set store Release -> Relaxed: publishes nothing",
            STALE,
            flipped(flag_payload_scenario(), flag, |s| s.set_store = Relaxed),
        ),
        (
            "epoch-pin-load-acquire",
            "epoch pin's global load SeqCst -> Acquire: a pin in the past walks a freed node",
            FREED,
            flipped(reclaim_row(Epoch), epoch, |s| s.global_load = Acquire),
        ),
        (
            "epoch-scan-acquire",
            "epoch collector scan SeqCst -> Acquire: misses a fresh pin",
            FREED,
            flipped(reclaim_row(Epoch), epoch, |s| s.scan_load = Acquire),
        ),
        (
            "hazard-validate-acquire",
            "hazard validate load SeqCst -> Acquire: misses the retire mark",
            FREED,
            flipped(reclaim_row(Hazard), hazard, |s| s.validate_load = Acquire),
        ),
        (
            "barrier-spin-relaxed",
            "barrier spin load Acquire -> Relaxed: leaves with a stale payload",
            STALE,
            flipped(barrier_payload_scenario(), barrier, |s| {
                s.spin_load = Relaxed
            }),
        ),
        (
            "cmap-revalidate-acquire",
            "cmap pin revalidation SeqCst -> Acquire: reads a freed node",
            FREED,
            flipped(cmap_pin_scenario(), epoch, |s| s.global_load = Acquire),
        ),
    ]
}

/// One row of the W1 mutant table: the weak-memory exploration outcome plus
/// whether the same budget under SC missed the bug entirely.
#[derive(Debug, Clone)]
pub struct WeakMutantReport {
    /// Weak-memory exploration outcome (detection, schedules,
    /// counterexample).
    pub report: MutantReport,
    /// `true` when SC-only exploration of the same scenario and budget found
    /// nothing — the bug is invisible to interleaving-only search.
    pub sc_missed: bool,
}

/// Run the W1 mutant catalog twice per entry: under weak memory (must catch
/// the bug) and under SC (must miss it — that is the point of the suite).
pub fn check_weakmem_mutants(budget: &CheckBudget) -> Vec<WeakMutantReport> {
    let catalog = (WEAK_BASE_IDX + 100..).zip(weakmem_mutants());
    catalog
        .map(|(idx, entry)| WeakMutantReport {
            report: run_mutant(&entry, &weak_budget(budget, idx)),
            sc_missed: explore(&*entry.3, &budget.to_budget(idx))
                .counterexample
                .is_none(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::replay_under;
    use crate::suite::Verdict;

    #[test]
    fn shipped_orderings_pass_under_weak_memory() {
        for row in check_weakmem(&CheckBudget::small(17)) {
            assert_eq!(
                row.verdict,
                Verdict::Pass,
                "{}: {}",
                row.construct,
                row.counterexample
            );
            // The two-thread scenarios are small enough that DFS can exhaust
            // the whole bounded space below the distinct-schedule target;
            // just require a meaningful spread of value/thread branchings.
            assert!(
                row.schedules >= 20,
                "{}: only {} schedules",
                row.construct,
                row.schedules
            );
        }
    }

    #[test]
    fn mutants_caught_weak_and_missed_by_sc() {
        for m in check_weakmem_mutants(&CheckBudget::small(19)) {
            assert!(
                m.report.detected,
                "{} not detected under weak memory: {}",
                m.report.name, m.report.counterexample
            );
            assert!(
                m.sc_missed,
                "{} unexpectedly detected under SC — not a weak-only bug",
                m.report.name
            );
        }
    }

    #[test]
    fn weak_counterexample_replays_under_the_same_model() {
        let budget = CheckBudget::small(23);
        let scenario = mp_flag_scenario(FlagSpec {
            wait_load: Relaxed,
            ..FlagSpec::SPLASH4
        });
        let rep = explore(&scenario, &weak_budget(&budget, 1));
        let cex = rep.counterexample.expect("mutant must fail");
        assert_eq!(cex.failure.kind(), "invariant");
        let weak = weak_budget(&budget, 1).memory;
        let re = replay_under(&scenario, &cex.schedule, 20_000, weak);
        assert_eq!(
            re.failure.expect("replay reproduces the failure").kind(),
            "invariant"
        );
        // The same schedule under SC does not fail: the counterexample is a
        // weak-memory execution, not an interleaving bug.
        let sc = replay_under(&scenario, &cex.schedule, 20_000, MemoryModel::Sc);
        assert!(sc.failure.is_none(), "{:?}", sc.failure);
    }
}
