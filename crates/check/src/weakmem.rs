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
//! `Acquire → Relaxed` or `SeqCst → Acquire` downgrade produces an invariant
//! violation with a replayable schedule, while the shipped Splash-4 orderings
//! pass every explored execution.
//!
//! Each scenario reads its orderings from the same [`splash4_parmacs::spec`]
//! structs the real primitives consume, so a one-field override is a mutation
//! test — the [`weakmem_mutants`] catalog flips exactly one ordering per
//! entry. [`check_weakmem_mutants`] additionally reruns every mutant under
//! [`MemoryModel::Sc`] and reports `sc_missed`: the bugs this suite exists
//! for are precisely the ones the SC pass cannot find.

use crate::engine::{MemoryModel, Sandbox};
use crate::explore::{explore, Budget, Scenario};
use crate::suite::{run_construct, CheckBudget, ConstructReport, MutantCatalog, MutantReport};
use splash4_parmacs::{CMapSpec, EpochSpec, FlagSpec, HazardSpec, SenseBarrierSpec};
use std::sync::atomic::Ordering;

/// Per-execution stale-read budget the W1 suite explores with. Two stale
/// reads suffice for every catalogued bug (one to get past a spin loop, one
/// for the payload); four leaves headroom without blowing up the search.
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

/// Message-passing handshake with an **atomic** payload: the producer
/// publishes a relaxed payload cell and sets the flag, the consumer waits on
/// the flag and reads the payload. Unlike [`crate::flag_scenario`], nothing
/// here is plain data, so a weakened flag ordering causes no data race —
/// only a stale payload value, which SC value semantics never produce.
pub fn mp_flag_scenario(spec: FlagSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let flag = sb.alloc_atomic("flag", 0);
        let payload = sb.alloc_atomic("payload", 0);
        sb.thread(move |ctx| {
            ctx.op_store(payload, 42, Ordering::Relaxed);
            ctx.op_store(flag, 1, spec.set_store);
        });
        sb.thread(move |ctx| {
            while ctx.op_load(flag, spec.wait_load) == 0 {
                ctx.block_on(flag);
            }
            let v = ctx.op_load(payload, Ordering::Relaxed);
            ctx.check(v == 42, "payload visible after flag handshake");
        });
    }
}

/// Store-buffering core of the epoch pin/scan protocol: each side announces
/// (stores its slot) then reads the other side's slot. With the shipped
/// `SeqCst` annotations at least one side must observe the other; any
/// load-side downgrade admits the both-read-zero outcome — the exact shape
/// of "the collector misses a freshly pinned thread and frees under it".
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
            ctx.op_store(r0, v, Ordering::Relaxed);
        });
        sb.thread(move |ctx| {
            ctx.op_store(announce1, 1, spec.announce_store);
            let v = ctx.op_load(announce0, spec.scan_load);
            ctx.op_store(r1, v, Ordering::Relaxed);
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

/// Hazard-pointer publish/validate vs retire/scan handshake. The reader
/// publishes its hazard then validates the object is not retired; the
/// reclaimer retires then scans the hazard slots. Both proceeding — the
/// reader using the object the reclaimer freed — requires the validate (or
/// scan) load to miss the other side's store, which `SeqCst` forbids and an
/// `Acquire` downgrade admits.
pub fn sb_hazard_scenario(spec: HazardSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let hazard = sb.alloc_atomic("hazard", 0);
        let retired = sb.alloc_atomic("retired", 0);
        let used = sb.alloc_atomic("used", 0);
        let freed = sb.alloc_atomic("freed", 0);
        let peek = sb.peek();
        sb.thread(move |ctx| {
            ctx.op_store(hazard, 1, spec.publish_store);
            let dead = ctx.op_load(retired, spec.validate_load);
            if dead == 0 {
                ctx.op_store(used, 1, Ordering::Relaxed);
            }
        });
        sb.thread(move |ctx| {
            ctx.op_store(retired, 1, Ordering::SeqCst);
            let hp = ctx.op_load(hazard, spec.scan_load);
            if hp == 0 {
                ctx.op_store(freed, 1, Ordering::Relaxed);
            }
        });
        sb.finale(move || {
            if peek.atomic(used) == 1 && peek.atomic(freed) == 1 {
                Err("hazard validate raced the scan: object used after free".into())
            } else {
                Ok(())
            }
        });
    }
}

/// The `cmap` reader's epoch pin as the kernel composes it: announce the
/// pin, **revalidate** that no retire intervened (the epoch pin's global
/// load), then read the node's value cell through [`CMapSpec::value_load`];
/// meanwhile the reclaimer retires the snipped node, scans the pin slots,
/// and — seeing none — poisons the value (frees the node). The reclaim
/// shadows in [`crate::reclaim`] explore this protocol under SC only;
/// here the announce/revalidate pair runs under weak memory, where both
/// sides reading stale (the store-buffering outcome) is exactly "the
/// collector frees under a pinned reader". The shipped `SeqCst`
/// revalidation forbids it; an `Acquire` downgrade (the
/// `cmap-revalidate-acquire` mutant) admits it with no data race — the
/// node's value cell is atomic — so only weak-memory value exploration
/// can catch it.
pub fn cmap_pin_scan_scenario(spec: EpochSpec) -> impl Fn(&mut Sandbox) + Sync {
    const FREED: u64 = 0xDEAD;
    move |sb: &mut Sandbox| {
        let pin = sb.alloc_atomic("cmap.pin", 0);
        let retired = sb.alloc_atomic("cmap.retired", 0);
        let value = sb.alloc_atomic("cmap.value", 30);
        let cmap = CMapSpec::SPLASH4;
        sb.thread(move |ctx| {
            ctx.op_store(pin, 1, spec.announce_store);
            // Revalidation: the pin must be visible to any scan that could
            // free what we are about to dereference.
            let seen_retired = ctx.op_load(retired, spec.global_load);
            if seen_retired == 0 {
                let v = ctx.op_load(value, cmap.value_load);
                ctx.check(v != FREED, "cmap: pinned reader never sees a freed node");
            }
            ctx.op_store(pin, 0, spec.quiesce_store);
        });
        sb.thread(move |ctx| {
            ctx.op_store(retired, 1, Ordering::SeqCst);
            let pinned = ctx.op_load(pin, spec.scan_load);
            if pinned == 0 {
                ctx.op_store(value, FREED, Ordering::Relaxed);
            }
        });
    }
}

/// Two-thread centralized sense barrier with an atomic pre-barrier payload:
/// thread 0 writes the payload and arrives; the last arriver bumps the
/// generation, the other spins on it; thread 1 then reads the payload. The
/// `AcqRel` arrive/bump RMWs and `Acquire` spin load carry the payload
/// across the episode; a `Relaxed` spin load lets the waiter leave the
/// barrier with a stale payload in hand.
pub fn barrier_handshake_scenario(spec: SenseBarrierSpec) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let payload = sb.alloc_atomic("payload", 0);
        let arrived = sb.alloc_atomic("arrived", 0);
        let generation = sb.alloc_atomic("generation", 0);
        sb.thread(move |ctx| {
            ctx.op_store(payload, 7, Ordering::Relaxed);
            let prev = ctx.op_rmw(arrived, spec.arrive_rmw, |v| v + 1);
            if prev == 1 {
                ctx.op_rmw(generation, spec.generation_bump, |v| v + 1);
            } else {
                while ctx.op_load(generation, spec.spin_load) == 0 {
                    ctx.block_on(generation);
                }
            }
        });
        sb.thread(move |ctx| {
            let prev = ctx.op_rmw(arrived, spec.arrive_rmw, |v| v + 1);
            if prev == 1 {
                ctx.op_rmw(generation, spec.generation_bump, |v| v + 1);
            } else {
                while ctx.op_load(generation, spec.spin_load) == 0 {
                    ctx.block_on(generation);
                }
            }
            let v = ctx.op_load(payload, Ordering::Relaxed);
            ctx.check(v == 7, "pre-barrier payload visible after the episode");
        });
    }
}

/// Explore the shipped orderings of every W1 scenario under weak memory.
/// All four must pass: the Splash-4 annotations are exactly strong enough.
pub fn check_weakmem(budget: &CheckBudget) -> Vec<ConstructReport> {
    let rows: Vec<(&'static str, &'static str, Box<Scenario>)> = vec![
        (
            "weakmem/mp-flag",
            "atomic payload visible across the flag handshake",
            Box::new(mp_flag_scenario(FlagSpec::SPLASH4)),
        ),
        (
            "weakmem/sb-epoch",
            "no store-buffering between announce and scan",
            Box::new(sb_epoch_scenario(EpochSpec::SPLASH4)),
        ),
        (
            "weakmem/sb-hazard",
            "validate or scan observes the other side",
            Box::new(sb_hazard_scenario(HazardSpec::SPLASH4)),
        ),
        (
            "weakmem/barrier",
            "pre-barrier payload visible after the episode",
            Box::new(barrier_handshake_scenario(SenseBarrierSpec::SPLASH4)),
        ),
        (
            "weakmem/cmap-pin",
            "pinned cmap reader never observes a freed node",
            Box::new(cmap_pin_scan_scenario(EpochSpec::SPLASH4)),
        ),
    ];
    rows.into_iter()
        .enumerate()
        .map(|(i, (construct, property, scenario))| {
            run_construct(
                construct,
                property,
                &*scenario,
                &weak_budget(budget, WEAK_BASE_IDX + i as u64),
            )
        })
        .collect()
}

/// The W1 mutant catalog: one flipped ordering per entry, every one
/// invisible to SC interleaving search (no plain data to race, values always
/// latest) and catchable only through weak-memory value exploration.
pub fn weakmem_mutants() -> MutantCatalog {
    vec![
        (
            "flag-wait-relaxed",
            "flag wait load Acquire -> Relaxed: sees the flag, not the payload",
            &["invariant"] as &[_],
            Box::new(mp_flag_scenario(FlagSpec {
                wait_load: Ordering::Relaxed,
                ..FlagSpec::SPLASH4
            })),
        ),
        (
            "flag-set-relaxed",
            "flag set store Release -> Relaxed: publishes nothing",
            &["invariant"] as &[_],
            Box::new(mp_flag_scenario(FlagSpec {
                set_store: Ordering::Relaxed,
                ..FlagSpec::SPLASH4
            })),
        ),
        (
            "epoch-pin-load-acquire",
            "epoch pin's global load SeqCst -> Acquire: store-buffering window",
            &["invariant"] as &[_],
            Box::new(sb_epoch_scenario(EpochSpec {
                global_load: Ordering::Acquire,
                ..EpochSpec::SPLASH4
            })),
        ),
        (
            "epoch-scan-acquire",
            "epoch collector scan SeqCst -> Acquire: misses a fresh pin",
            &["invariant"] as &[_],
            Box::new(sb_epoch_scenario(EpochSpec {
                scan_load: Ordering::Acquire,
                ..EpochSpec::SPLASH4
            })),
        ),
        (
            "hazard-validate-acquire",
            "hazard validate load SeqCst -> Acquire: misses the retire mark",
            &["invariant"] as &[_],
            Box::new(sb_hazard_scenario(HazardSpec {
                validate_load: Ordering::Acquire,
                ..HazardSpec::SPLASH4
            })),
        ),
        (
            "barrier-spin-relaxed",
            "barrier spin load Acquire -> Relaxed: leaves with a stale payload",
            &["invariant"] as &[_],
            Box::new(barrier_handshake_scenario(SenseBarrierSpec {
                spin_load: Ordering::Relaxed,
                ..SenseBarrierSpec::SPLASH4
            })),
        ),
        (
            "cmap-revalidate-acquire",
            "cmap pin revalidation SeqCst -> Acquire: reads a freed node",
            &["invariant"] as &[_],
            Box::new(cmap_pin_scan_scenario(EpochSpec {
                global_load: Ordering::Acquire,
                ..EpochSpec::SPLASH4
            })),
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
    weakmem_mutants()
        .into_iter()
        .enumerate()
        .map(|(i, (name, description, expect, scenario))| {
            let idx = WEAK_BASE_IDX + 100 + i as u64;
            let weak_rep = explore(&*scenario, &weak_budget(budget, idx));
            let (detected, counterexample) = match weak_rep.counterexample {
                Some(c) if expect.contains(&c.failure.kind()) => (true, c.to_string()),
                Some(c) => (false, format!("unexpected {c}")),
                None => (false, "-".to_string()),
            };
            let sc_rep = explore(&*scenario, &budget.to_budget(idx));
            WeakMutantReport {
                report: MutantReport {
                    name,
                    description,
                    expect,
                    schedules: weak_rep.distinct_schedules,
                    executions: weak_rep.executions,
                    detected,
                    counterexample,
                },
                sc_missed: sc_rep.counterexample.is_none(),
            }
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
            wait_load: Ordering::Relaxed,
            ..FlagSpec::SPLASH4
        });
        let rep = explore(&scenario, &weak_budget(&budget, 1));
        let cex = rep.counterexample.expect("mutant must fail");
        assert_eq!(cex.failure.kind(), "invariant");
        let re = replay_under(
            &scenario,
            &cex.schedule,
            20_000,
            MemoryModel::Weak {
                stale_reads: WEAK_STALE_READS,
            },
        );
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
