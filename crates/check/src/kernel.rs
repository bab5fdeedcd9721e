//! Kernel-level model checking: real kernel bodies under the scheduler.
//!
//! The V1-check scenarios exercise each lock-free construct in isolation;
//! these scenarios close the remaining gap by exploring the constructs *as
//! the kernels compose them*, with inputs, ownership splits and invariants
//! taken from the shipped kernel code at [`InputClass::Check`] scale:
//!
//! * [`radix_rank_scenario`] scatters radix's real pass-0 keys through a
//!   ranking protocol radix does not ship — `GETSUB` bucket claims publish
//!   prefix-scanned bucket starts, a sense barrier separates the phases,
//!   then per-bucket **fetch_add rank dispensing** places each key — and its
//!   finale replays the kernel's own validation: every key lands exactly
//!   once inside its digit's bucket region. `radix::run` itself ranks
//!   through a `GETSUB`-claimed rank matrix and permutes with private
//!   cursors; it has no per-bucket rank words.
//! * [`water_energy_scenario`] re-enacts water-nsquared's energy reduction:
//!   the real Lennard-Jones pair energies of the `Check`-scale fluid
//!   (cyclic pair ownership, exactly as `ctx.cyclic` splits them) flow into
//!   the **CAS-loop `AtomicF64`** with a concurrent reader, and the finale
//!   demands the sequential sum. The same cell, one per element, is the
//!   kernel's force array (`SharedAccum<f64>`), so this CAS loop is the one
//!   every Splash-4 force update runs.
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
//! All four run shipped code over [`Model`] — the `parmacs` constructs, and
//! `cmap`'s map with the nodes it allocates, unlinks and retires — so one
//! mutated spec field or one injected [`Fault`] makes a kernel-shaped
//! mutation test ([`kernel_mutants`]).

use crate::engine::{Fault, Sandbox};
use crate::linearize::{Op, SpecModel};
use crate::model::{Model, ModelWord};
use crate::suite::{
    mutated, recorded, run_mutant_catalog, run_rows, spawn, CheckBudget, ConstructReport,
    MutantCatalog, MutantReport, Rows,
};
use splash4_kernels::cmap::{self, LockFreeMap};
use splash4_kernels::{radix, stream, water_nsq, InputClass};
use splash4_parmacs::atomics::{Atomics, IntWord, Word};
use splash4_parmacs::{
    Barrier, BoundedMpmcQueue, CMapSpec, IndexCounter, ReduceF64, Reducer, RingSpec, SenseBarrier,
    SyncMode, TaskQueue, TicketSpec,
};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Number of scheduler threads the kernel scenarios run (mirrors the
/// three-thread shape of the V1-check scenarios).
const NTHREADS: usize = 3;

/// Radix pass-0 keys at `Check` scale through bucket claims → barrier →
/// rank dispensing → permutation. The per-bucket `fetch_add` dispensing is
/// this scenario's own protocol, not radix's: `radix::run` ranks through a
/// `GETSUB`-claimed rank matrix and private cursors (its phases 3–4).
///
/// [`Fault::Torn`] at `radix.rank` weakens the per-bucket `fetch_add` to a
/// load/compute/store pair — the lost-CAS-retry bug class — which the
/// checker must catch as a duplicate-slot data race or a finale violation.
pub fn radix_rank_scenario() -> impl Fn(&mut Sandbox) + Sync {
    let cfg = radix::RadixConfig::class(InputClass::Check);
    let keys = radix::generate_keys(&cfg);
    let r = cfg.buckets();
    let mask = (r - 1) as u32;
    // Pass-0 digits and exclusive bucket starts, as the kernel's histogram +
    // master prefix scan would produce them.
    let digits: Vec<usize> = keys.iter().map(|&k| (k & mask) as usize).collect();
    let mut starts = vec![0u64; r + 1];
    for &d in &digits {
        starts[d + 1] += 1;
    }
    for d in 0..r {
        starts[d + 1] += starts[d];
    }
    let n = keys.len();
    let input = Arc::new((keys, digits, starts));

    move |sb: &mut Sandbox| {
        // What pass 0 synchronizes through: `GETSUB` over the buckets, the
        // phase barrier, and the per-bucket rank dispensers (raw `fetch_add`
        // words in the kernel).
        let ranks: Vec<ModelWord<usize>> = (0..r).map(|_| Word::new("radix.rank", 0)).collect();
        let sync = Arc::new((
            IndexCounter::<Model>::new(SyncMode::LockFree, 0..r, NTHREADS, Arc::default()),
            SenseBarrier::<Model>::new(NTHREADS, Arc::default()),
            ranks,
        ));
        // Bucket starts are *published* by whichever thread claims the
        // bucket (plain data: the barrier's release/acquire edge is what
        // makes the permute phase's reads race-free, as in the kernel).
        let published: Vec<usize> = (0..r)
            .map(|_| sb.alloc_data("radix.start", u64::MAX))
            .collect();
        let out: Vec<usize> = (0..n)
            .map(|_| sb.alloc_data("radix.out", u64::MAX))
            .collect();

        for tid in 0..NTHREADS {
            let (input, published, out) = (Arc::clone(&input), published.clone(), out.clone());
            spawn(sb, &sync, move |ctx, (bucket_claims, barrier, ranks)| {
                let (keys, digits, starts) = &*input;
                // Rank phase: claim buckets dynamically (GETSUB), publish
                // each claimed bucket's start offset.
                while let Some(d) = bucket_claims.next() {
                    ctx.data_write(published[d], starts[d]);
                }
                barrier.wait(tid);
                // Permute phase: cyclic key ownership, one fetch_add rank
                // per key, write into the claimed slot.
                let claim_rmw = Model::spec(TicketSpec::SPLASH4).claim_rmw;
                for i in (tid..n).step_by(NTHREADS) {
                    let d = digits[i];
                    let rank = ranks[d].fetch_add(1, claim_rmw) as u64;
                    let base = ctx.data_read(published[d]);
                    let slot = (base + rank) as usize;
                    ctx.check(
                        (slot as u64) < starts[d + 1],
                        "radix: rank stays inside its bucket region",
                    );
                    ctx.data_write(out[slot], keys[i] as u64);
                }
            });
        }

        let (peek, input) = (sb.peek(), Arc::clone(&input));
        sb.finale(move || {
            let (keys_f, _, starts_f) = &*input;
            let got: Vec<u64> = out.iter().map(|&c| peek.data(c)).collect();
            if got.contains(&u64::MAX) {
                return Err("radix: an output slot was never written (lost rank)".to_string());
            }
            for d in 0..starts_f.len() - 1 {
                for s in starts_f[d]..starts_f[d + 1] {
                    if (got[s as usize] as u32 & mask) as usize != d {
                        return Err(format!(
                            "radix: slot {s} holds a key of digit {}, want {d}",
                            got[s as usize] as u32 & mask
                        ));
                    }
                }
            }
            let mut sorted_got = got;
            let mut want: Vec<u64> = keys_f.iter().map(|&k| k as u64).collect();
            sorted_got.sort_unstable();
            want.sort_unstable();
            if sorted_got != want {
                return Err("radix: output is not a permutation of the input keys".to_string());
            }
            Ok(())
        });
    }
}

/// Water-nsquared's energy reduction at `Check` scale: the real fluid's
/// Lennard-Jones pair energies accumulate into the kernel's `reducer_f64`
/// cell — the CAS-loop `AtomicF64` of a Splash-4 [`Reducer`], the cell the
/// kernel's `SharedAccum<f64>` force array is built from — under a
/// concurrent reader; the finale demands the sequential sum.
///
/// [`Fault::Torn`] at `reduce.f64` degrades the CAS to load/compute/store —
/// the seeded lost-CAS-retry mutant the checker must catch.
pub fn water_energy_scenario() -> impl Fn(&mut Sandbox) + Sync {
    let cfg = water_nsq::WaterNsqConfig::class(InputClass::Check);
    let fluid = water_nsq::initialize(cfg.n, cfg.seed);
    let side = fluid.side;
    // The kernel's pair sweep: all i<j pairs inside the cutoff, energies
    // from the shipped `lj`.
    let mut deltas = Vec::new();
    for i in 0..cfg.n {
        for j in (i + 1)..cfg.n {
            let dx = water_nsq::min_image(fluid.pos[3 * i] - fluid.pos[3 * j], side);
            let dy = water_nsq::min_image(fluid.pos[3 * i + 1] - fluid.pos[3 * j + 1], side);
            let dz = water_nsq::min_image(fluid.pos[3 * i + 2] - fluid.pos[3 * j + 2], side);
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 < water_nsq::CUTOFF * water_nsq::CUTOFF {
                let (u, _f_over_r) = water_nsq::lj(r2);
                deltas.push(u);
            }
        }
    }
    let expected: f64 = deltas.iter().sum();

    move |sb: &mut Sandbox| {
        let cell = Arc::new(Reducer::<Model>::new(SyncMode::LockFree, 3, Arc::default()));
        sb.spec(SpecModel::SumF64(0f64.to_bits()));
        // Two force threads with cyclic pair ownership (as `ctx.cyclic`
        // splits the kernel's pair loop), plus the kernel's per-step
        // energy reader.
        for tid in 0..2usize {
            let mine: Vec<f64> = deltas.iter().copied().skip(tid).step_by(2).collect();
            spawn(sb, &cell, move |ctx, cell| {
                for &u in &mine {
                    recorded(ctx, Op::AddF(u.to_bits()), || ReduceF64::add(cell, u));
                }
            });
        }
        spawn(sb, &cell, |ctx, cell| {
            for _ in 0..2 {
                recorded(ctx, Op::LoadF, || ReduceF64::load(cell).to_bits());
            }
        });
        sb.finale(move || {
            let v = ReduceF64::load(&*cell);
            let tol = 1e-9 * expected.abs().max(1.0);
            if (v - expected).abs() <= tol {
                Ok(())
            } else {
                Err(format!(
                    "water: energy reduction lost updates: final sum {v}, want {expected}"
                ))
            }
        });
    }
}

// ---------------------------------------------------------------------------
// cmap: one bucket's Harris–Michael chain under concurrent insert/remove.
// ---------------------------------------------------------------------------

/// One bucket of the `cmap` kernel at `Check` scale: the shipped
/// [`LockFreeMap`] over [`Model`], stocked with keys 2 and 4 at set-up. A
/// remover marks then snips key 2 while an inserter links key 3 into the
/// same chain region and a reader looks key 3 up, reading the node's plain
/// key through the link CAS's publication edge. The history must agree with
/// a sequential map; the finale demands the surviving key set `[3, 4]`,
/// exactly one retired node, and nothing pending after a quiescent flush.
pub fn cmap_chain_scenario() -> impl Fn(&mut Sandbox) + Sync {
    // Keys inside the kernel's `Check`-scale universe.
    let universe = cmap::CMapConfig::class(InputClass::Check).universe;
    move |sb: &mut Sandbox| {
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
            let live: Vec<u64> = (0..universe).filter(|k| map.lookup(*k).is_some()).collect();
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

/// One stage queue of the `stream` pipeline at `Check` scale: the
/// kernel's [`BoundedMpmcQueue`] with two slots, carrying plainly-written
/// payloads from two producers to a consumer, under `spec` in place of the
/// shipped [`RingSpec`]. The seq handoff (`publish_store` release →
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
/// Deterministic for a fixed budget, like [`crate::check_suite`].
pub fn check_kernels(budget: &CheckBudget) -> Vec<ConstructReport> {
    let rows: Rows = vec![
        (
            200,
            "kernel/radix-rank",
            "pass-0 permutation: every key lands once in its bucket",
            Box::new(radix_rank_scenario()),
        ),
        (
            201,
            "kernel/water-energy",
            "linearizable energy sum, no lost updates",
            Box::new(water_energy_scenario()),
        ),
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
            "radix-lost-rank",
            "radix rank dispensing weakened: fetch_add -> load/store",
            &["data-race", "invariant"] as &[_],
            Box::new(mutated(
                |sb| sb.fault("radix.rank", Fault::Torn),
                radix_rank_scenario(),
            )),
        ),
        (
            "water-lost-cas-retry",
            "water energy CAS loop drops the retry: load/compute/store",
            &["invariant", "not-linearizable"] as &[_],
            Box::new(mutated(
                |sb| sb.fault("reduce.f64", Fault::Torn),
                water_energy_scenario(),
            )),
        ),
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
    run_mutant_catalog(kernel_mutants(), budget, 300)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Verdict;

    #[test]
    fn check_scale_pair_list_is_nontrivial() {
        // The water scenario needs enough interacting pairs for each force
        // thread to contend, and a sum a lost update visibly dents.
        let cfg = water_nsq::WaterNsqConfig::class(InputClass::Check);
        let fluid = water_nsq::initialize(cfg.n, cfg.seed);
        let mut pairs = 0;
        let mut total = 0.0f64;
        let mut min_mag = f64::INFINITY;
        for i in 0..cfg.n {
            for j in (i + 1)..cfg.n {
                let dx = water_nsq::min_image(fluid.pos[3 * i] - fluid.pos[3 * j], fluid.side);
                let dy =
                    water_nsq::min_image(fluid.pos[3 * i + 1] - fluid.pos[3 * j + 1], fluid.side);
                let dz =
                    water_nsq::min_image(fluid.pos[3 * i + 2] - fluid.pos[3 * j + 2], fluid.side);
                let r2 = dx * dx + dy * dy + dz * dz;
                if r2 < water_nsq::CUTOFF * water_nsq::CUTOFF {
                    let (u, _) = water_nsq::lj(r2);
                    pairs += 1;
                    total += u;
                    min_mag = min_mag.min(u.abs());
                }
            }
        }
        assert!(pairs >= 4, "only {pairs} interacting pairs at Check scale");
        assert!(
            min_mag > 1e-6 * total.abs().max(1.0),
            "a lost pair energy ({min_mag:e}) would hide inside the finale tolerance"
        );
    }

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
