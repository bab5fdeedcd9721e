//! Kernel-level model checking: kernel-shaped compositions of shipped code.
//!
//! The V1-check scenarios exercise each lock-free construct in isolation;
//! these scenarios explore two constructs *as the kernels compose them*:
//!
//! * [`cmap_chain_scenario`] runs one bucket of the `cmap` workload's
//!   shipped [`LockFreeMap`] — a **Harris–Michael chain** over the shipped
//!   epoch reclaimer: a remover marks-then-snips a node while an inserter
//!   links a new node into the same region and a reader chases the
//!   published key; the history must linearize to a sequential map, and
//!   the finale demands the exact surviving key set and a single retire.
//! * [`stream_ring_scenario`] re-enacts one stage queue of the `stream`
//!   pipeline: the kernel's **bounded Vyukov ring** carries plainly-written
//!   payloads between two producers and a consumer purely on the
//!   `publish_store`/`seq_load` handoff.
//!
//! Both run shipped code over [`Model`] — the `parmacs` ring, and `cmap`'s
//! map with the nodes it allocates, unlinks and retires — so one mutated
//! spec field or one injected [`Fault`] makes a kernel-shaped mutation test
//! ([`kernel_mutants`]).

use crate::engine::{Fault, Sandbox};
use crate::linearize::{Op, SpecModel};
use crate::model::Model;
use crate::suite::{
    mutated, recorded, run_mutant_catalog, run_rows, spawn, CheckBudget, ConstructReport,
    MutantCatalog, MutantReport, Rows,
};
use splash4_kernels::cmap::LockFreeMap;
use splash4_kernels::stream;
use splash4_parmacs::{BoundedMpmcQueue, CMapSpec, RingSpec, TaskQueue};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Number of scheduler threads the kernel scenarios run (mirrors the
/// three-thread shape of the V1-check scenarios).
const NTHREADS: usize = 3;

/// The keys the cmap finale scans for survivors: every key the scenario
/// touches (2, 3, 4) and a margin on either side.
const CMAP_KEYS: u64 = 6;

// ---------------------------------------------------------------------------
// cmap: one bucket's Harris–Michael chain under concurrent insert/remove.
// ---------------------------------------------------------------------------

/// One bucket of the `cmap` kernel: the shipped [`LockFreeMap`] over
/// [`Model`], stocked with keys 2 and 4 at set-up. A remover marks then
/// snips key 2 while an inserter links key 3 into the same chain region and
/// a reader looks key 3 up, reading the node's plain key through the link
/// CAS's publication edge. The history must agree with
/// a sequential map; the finale demands the surviving key set `[3, 4]`,
/// exactly one retired node, and nothing pending after a quiescent flush.
pub fn cmap_chain_scenario() -> impl Fn(&mut Sandbox) + Sync {
    |sb: &mut Sandbox| {
        // One record per virtual thread and one for the harness thread.
        let map = Arc::new(LockFreeMap::<Model>::new(1, NTHREADS + 1, Arc::default()));
        map.insert(2, 20);
        map.insert(4, 40);
        sb.spec(SpecModel::Map([(2, 20), (4, 40)].into()));
        spawn(sb, &map, |ctx, map| {
            recorded(ctx, Op::Lookup(3), || map.lookup(3));
        });
        spawn(sb, &map, |ctx, map| {
            recorded(ctx, Op::Remove(2), || map.remove(2));
        });
        spawn(sb, &map, |ctx, map| {
            recorded(ctx, Op::Insert(3, 30), || map.insert(3, 30));
        });
        sb.finale(move || {
            let live: Vec<u64> = (0..CMAP_KEYS)
                .filter(|k| map.lookup(*k).is_some())
                .collect();
            if live != [3, 4] {
                return Err(format!(
                    "cmap: the map holds keys {live:?}, want [3, 4] \
                     (a lost insert or lost remove)"
                ));
            }
            map.flush();
            match map.reclaim_stats() {
                st if st.retires == 1 && st.pending() == 0 => Ok(()),
                st => Err(format!(
                    "cmap: {} nodes retired and {} freed, want one of each",
                    st.retires, st.frees
                )),
            }
        });
    }
}

// ---------------------------------------------------------------------------
// stream: one bounded ring stage under two producers and a consumer.
// ---------------------------------------------------------------------------

/// One stage queue of the `stream` pipeline: the kernel's
/// [`BoundedMpmcQueue`] with two slots, carrying plainly-written payloads
/// from two producers to a consumer, under `spec` in place of the shipped
/// [`RingSpec`]. The seq handoff (`publish_store` release →
/// `seq_load` acquire) is the only thing keeping the payload reads
/// race-free, so any weakening falls out as a vector-clock data race; the
/// finale checks the consumer drained each producer's items in FIFO order
/// with nothing lost or duplicated.
///
/// Producers use the ring's own blocking `push`. The kernel's consumer
/// polls `try_pop` with a backoff of its own; here it parks on a relaxed
/// doorbell word the producers ring after each push, which orders nothing.
pub fn stream_ring_scenario(spec: RingSpec) -> impl Fn(&mut Sandbox) + Sync {
    // Per-producer item values from the kernel's own stage transform.
    let feeds: [[u64; 2]; 2] = [
        [stream::transform(1, 0), stream::transform(2, 0)],
        [stream::transform(3, 0), stream::transform(4, 0)],
    ];
    let scenario = move |sb: &mut Sandbox| {
        let ring = Arc::new(BoundedMpmcQueue::<u64, Model>::new(2, Arc::default()));
        let pushed = sb.alloc_atomic("stream.pushed", 0);
        let received = Arc::new(Mutex::new(Vec::new()));

        for feed in feeds {
            spawn(sb, &ring, move |ctx, ring| {
                for v in feed {
                    ring.push(v);
                    ctx.op_rmw(pushed, Ordering::Relaxed, |n| n + 1);
                }
            });
        }

        let sink = Arc::clone(&received);
        spawn(sb, &ring, move |ctx, ring| {
            for _ in 0..4 {
                let v = loop {
                    match ring.try_pop() {
                        Some(v) => break v,
                        None => ctx.block_on(pushed),
                    }
                };
                sink.lock().expect("sink poisoned").push(v);
            }
        });

        sb.finale(move || {
            let got = std::mem::take(&mut *received.lock().expect("sink poisoned"));
            for feed in feeds {
                let mine: Vec<u64> = got.iter().copied().filter(|v| feed.contains(v)).collect();
                if mine != feed {
                    return Err(format!(
                        "stream: a producer sent {feed:?} and the consumer got {mine:?} \
                         (lost, duplicated or out of order)"
                    ));
                }
            }
            Ok(())
        });
    };
    mutated(move |sb| sb.override_spec(spec), scenario)
}

/// Check the kernel-body scenarios (the `V2-kernel-check` table).
/// Deterministic for a fixed budget, like [`crate::check_suite`]. The seeds
/// (202, 203, and 302 on for the mutants) are part of the committed report:
/// renumbering them moves every schedule count and counterexample.
pub fn check_kernels(budget: &CheckBudget) -> Vec<ConstructReport> {
    let rows: Rows = vec![
        (
            202,
            "kernel/cmap-chain",
            "HM bucket: linearizable map, single retire, published keys",
            Box::new(cmap_chain_scenario()),
        ),
        (
            203,
            "kernel/stream-ring",
            "ring stage: FIFO per producer, race-free payload handoff",
            Box::new(stream_ring_scenario(RingSpec::SPLASH4)),
        ),
    ];
    run_rows(rows, budget)
}

/// The kernel-scenario mutant catalog: the same bug classes as
/// [`crate::mutants`], seeded inside real kernel bodies.
pub fn kernel_mutants() -> MutantCatalog {
    vec![
        (
            "cmap-blind-mark",
            "cmap CAS on a node's link torn into a store: a mark overwrites a racing insert",
            &["invariant", "not-linearizable"] as &[_],
            Box::new(mutated(
                |sb| sb.fault("cmap.node.next", Fault::Torn),
                cmap_chain_scenario(),
            )),
        ),
        (
            "cmap-link-relaxed",
            "cmap insert link CAS AcqRel -> Relaxed: key unpublished",
            &["data-race"] as &[_],
            Box::new(mutated(
                |sb| {
                    sb.override_spec(CMapSpec {
                        link_cas_ok: Ordering::Relaxed,
                        ..CMapSpec::SPLASH4
                    })
                },
                cmap_chain_scenario(),
            )),
        ),
        (
            "stream-publish-relaxed",
            "ring publish store Release -> Relaxed: slot payload races",
            &["data-race"] as &[_],
            Box::new(stream_ring_scenario(RingSpec {
                publish_store: Ordering::Relaxed,
                ..RingSpec::SPLASH4
            })),
        ),
        (
            "stream-seq-relaxed",
            "ring seq load Acquire -> Relaxed: consumer reads unacquired slot",
            &["data-race"] as &[_],
            Box::new(stream_ring_scenario(RingSpec {
                seq_load: Ordering::Relaxed,
                ..RingSpec::SPLASH4
            })),
        ),
    ]
}

/// Run the checker against the kernel-scenario mutant catalog.
pub fn check_kernel_mutants(budget: &CheckBudget) -> Vec<MutantReport> {
    run_mutant_catalog(kernel_mutants(), budget, 302)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Verdict;

    #[test]
    fn kernel_scenarios_pass_at_small_budget() {
        for row in check_kernels(&CheckBudget::small(17)) {
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
    fn kernel_mutants_are_detected_at_small_budget() {
        for m in check_kernel_mutants(&CheckBudget::small(19)) {
            assert!(m.detected, "{} not detected: {}", m.name, m.counterexample);
        }
    }
}
