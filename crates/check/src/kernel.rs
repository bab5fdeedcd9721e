//! Kernel-level model checking: real kernel bodies under the scheduler.
//!
//! The V1-check scenarios exercise each lock-free construct in isolation;
//! these scenarios close the remaining gap by exploring the constructs *as
//! the kernels compose them*, with inputs, ownership splits and invariants
//! taken from the shipped kernel code at [`InputClass::Check`] scale:
//!
//! * [`radix_rank_scenario`] re-enacts radix's pass-0 pipeline — `GETSUB`
//!   bucket claims publish prefix-scanned bucket starts, a sense barrier
//!   separates the phases, then per-bucket **fetch_add rank dispensing**
//!   scatters the real generated keys — and its finale replays the kernel's
//!   own validation: every key lands exactly once inside its digit's bucket
//!   region.
//! * [`water_energy_scenario`] re-enacts water-nsquared's energy reduction:
//!   the real Lennard-Jones pair energies of the `Check`-scale fluid
//!   (cyclic pair ownership, exactly as `ctx.cyclic` splits them) flow into
//!   the **CAS-loop `AtomicF64`** with a concurrent reader, and the finale
//!   demands the sequential sum.
//! * [`cmap_chain_scenario`] re-enacts one bucket of the `cmap` workload's
//!   **Harris–Michael chain**: a remover marks-then-snips a node while an
//!   inserter links a new node into the same region and a reader chases the
//!   published payload; the finale demands the exact surviving key set and
//!   a single physical snip.
//! * [`stream_ring_scenario`] re-enacts one stage queue of the `stream`
//!   pipeline: the kernel's **bounded Vyukov ring** carries plainly-written
//!   payloads between two producers and a consumer purely on the
//!   `publish_store`/`seq_load` handoff.
//!
//! Radix, water and stream run the shipped `parmacs` constructs over
//! [`Model`], so one mutated spec field or one injected [`Fault`] makes a
//! kernel-shaped mutation test ([`kernel_mutants`]). The cmap chain unlinks
//! nodes, which needs modelled allocation to run for real: it stays a
//! skeleton over raw engine cells, reading the shipped [`CMapSpec`].

use crate::engine::{Fault, Sandbox, ThreadCtx};
use crate::linearize::{Op, SpecModel};
use crate::model::{Model, ModelWord};
use crate::suite::{
    mutated, recorded, run_mutant_catalog, run_rows, spawn, CheckBudget, ConstructReport,
    MutantCatalog, MutantReport, Rows,
};
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

/// Radix pass-0 at `Check` scale: bucket claims → barrier → rank
/// dispensing → permutation, over the kernel's real key array.
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
/// cell — the CAS-loop `AtomicF64` of a Splash-4 [`Reducer`] — under a
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

/// Pointer encoding for the shadow chain: node `id` ⇒ `(id + 1) << 1`,
/// mark bit in bit 0 (exactly the kernel's low-bit tag on `next`).
fn nptr(id: usize) -> u64 {
    ((id + 1) as u64) << 1
}
fn nid(p: u64) -> usize {
    ((p >> 1) - 1) as usize
}
fn nmarked(p: u64) -> bool {
    p & 1 == 1
}
fn nunmark(p: u64) -> u64 {
    p & !1
}

/// Sorted keys of the shadow chain's three nodes (A, B, C). A and B start
/// linked (`head → A(2) → B(4)`); C(3) is inserted between them while A is
/// removed. Keys live inside the `cmap` kernel's `Check`-scale universe.
const CHAIN_KEYS: [u64; 3] = [2, 4, 3];

/// The shadow chain's shared cells: the bucket head plus one `next` word
/// and one plain payload cell per node.
#[derive(Clone, Copy)]
struct ChainCells {
    head: usize,
    next: [usize; 3],
    val: [usize; 3],
}

/// The kernel's `find`: walk from the head, snipping marked nodes via the
/// unmarked-expected-value CAS (restarting from the head when the CAS
/// loses), and stop at the first key `>= key`. Returns
/// `(prev_cell, cur_ptr, cur_next)` with `cur_ptr == 0` at the tail.
/// Successful snips are counted into `snips` (the kernel retires there).
fn chain_find(
    ctx: &mut ThreadCtx,
    ch: &ChainCells,
    spec: CMapSpec,
    key: u64,
    snips: &mut u64,
) -> (usize, u64, u64) {
    'retry: loop {
        let mut prev_cell = ch.head;
        let mut raw = ctx.op_load(ch.head, spec.head_load);
        loop {
            if nmarked(raw) {
                // The node owning `prev_cell` was logically deleted under
                // us; its successor pointer is tainted — restart.
                continue 'retry;
            }
            if raw == 0 {
                return (prev_cell, 0, 0);
            }
            let id = nid(raw);
            let nxt = ctx.op_load(ch.next[id], spec.next_load);
            if nmarked(nxt) {
                // `raw` is deleted: snip it. The expected value carries no
                // mark bit, so this CAS fails if `prev`'s owner was itself
                // marked — unmarked nodes are never unlinked.
                match ctx.op_cas(
                    prev_cell,
                    raw,
                    nunmark(nxt),
                    spec.unlink_cas_ok,
                    spec.unlink_cas_fail,
                ) {
                    Ok(_) => {
                        *snips += 1;
                        raw = nunmark(nxt);
                        continue;
                    }
                    Err(_) => continue 'retry,
                }
            }
            if CHAIN_KEYS[id] >= key {
                return (prev_cell, raw, nxt);
            }
            prev_cell = ch.next[id];
            raw = nxt;
        }
    }
}

/// One bucket of the `cmap` kernel at `Check` scale: a remover marks then
/// snips node A while an inserter links node C into the same chain region
/// and a reader looks C up, reading its plainly-written payload through
/// the link CAS's publication edge. Orderings come from [`CMapSpec`]
/// exactly as `cmap.rs` consumes them.
///
/// With `blind_mark`, the remover's mark-CAS degrades to a load/store pair
/// — the lost-update window that can overwrite a concurrent insert — which
/// the finale catches as a lost key.
pub fn cmap_chain_scenario(spec: CMapSpec, blind_mark: bool) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let ch = ChainCells {
            head: sb.alloc_atomic("cmap.head", nptr(0)),
            next: [
                sb.alloc_atomic("cmap.next.a", nptr(1)),
                sb.alloc_atomic("cmap.next.b", 0),
                sb.alloc_atomic("cmap.next.c", 0),
            ],
            val: [
                sb.alloc_data("cmap.val.a", 20),
                sb.alloc_data("cmap.val.b", 40),
                sb.alloc_data("cmap.val.c", 0),
            ],
        };
        let snip_counts: Vec<usize> = (0..NTHREADS)
            .map(|_| sb.alloc_data("cmap.snips", 0))
            .collect();

        // Thread 0 — remover of key 2 (node A): mark, then re-find so the
        // marked node is physically snipped (by this thread or a helper).
        let snips0 = snip_counts[0];
        sb.thread(move |ctx| {
            let mut my_snips = 0u64;
            loop {
                let (_, cur, nxt) = chain_find(ctx, &ch, spec, 2, &mut my_snips);
                if cur == 0 || CHAIN_KEYS[nid(cur)] != 2 {
                    break; // already removed and snipped
                }
                let id = nid(cur);
                if blind_mark {
                    // Seeded bug: mark without the CAS — a stale `nxt` here
                    // silently unlinks a concurrently inserted node.
                    ctx.op_store(ch.next[id], nxt | 1, spec.mark_cas_ok);
                    break;
                }
                match ctx.op_cas(
                    ch.next[id],
                    nxt,
                    nxt | 1,
                    spec.mark_cas_ok,
                    spec.mark_cas_fail,
                ) {
                    Ok(_) => break,
                    Err(_) => continue, // an insert moved A.next: re-find
                }
            }
            // Snip pass: traverse until key 2 is physically gone.
            loop {
                let (_, cur, _) = chain_find(ctx, &ch, spec, 2, &mut my_snips);
                if cur == 0 || CHAIN_KEYS[nid(cur)] != 2 {
                    break;
                }
            }
            ctx.data_write(snips0, my_snips);
        });

        // Thread 1 — inserter of key 3 (node C): plain payload write, then
        // the link CAS publishes the node (cmap's insert path).
        let snips1 = snip_counts[1];
        sb.thread(move |ctx| {
            let mut my_snips = 0u64;
            let mut wrote = false;
            loop {
                let (prev, cur, _) = chain_find(ctx, &ch, spec, 3, &mut my_snips);
                ctx.check(
                    cur == 0 || CHAIN_KEYS[nid(cur)] != 3,
                    "cmap: key 3 already present mid-insert",
                );
                if !wrote {
                    ctx.data_write(ch.val[2], 30);
                    wrote = true;
                }
                ctx.op_store(ch.next[2], cur, Ordering::Relaxed);
                match ctx.op_cas(prev, cur, nptr(2), spec.link_cas_ok, spec.link_cas_fail) {
                    Ok(_) => break,
                    Err(_) => continue,
                }
            }
            ctx.data_write(snips1, my_snips);
        });

        // Thread 2 — reader: look key 3 up; if found, the payload read must
        // be ordered after the inserter's plain write by the link edge.
        let snips2 = snip_counts[2];
        sb.thread(move |ctx| {
            let mut my_snips = 0u64;
            let (_, cur, nxt) = chain_find(ctx, &ch, spec, 3, &mut my_snips);
            if cur != 0 && CHAIN_KEYS[nid(cur)] == 3 && !nmarked(nxt) {
                let v = ctx.data_read(ch.val[2]);
                ctx.check(v == 30, "cmap: lookup sees the inserted value");
            }
            ctx.data_write(snips2, my_snips);
        });

        let peek = sb.peek();
        sb.finale(move || {
            // Walk the final chain: exactly keys [3, 4], sorted, unmarked.
            let mut got = Vec::new();
            let mut p = peek.atomic(ch.head);
            while p != 0 {
                if nmarked(p) {
                    return Err("cmap: a marked pointer is reachable from the head".into());
                }
                got.push(CHAIN_KEYS[nid(p)]);
                p = peek.atomic(ch.next[nid(p)]);
            }
            if got != [3, 4] {
                return Err(format!(
                    "cmap: final chain holds keys {got:?}, want [3, 4] \
                     (a lost insert or lost remove)"
                ));
            }
            let total: u64 = snip_counts.iter().map(|&c| peek.data(c)).sum();
            if total != 1 {
                return Err(format!(
                    "cmap: node A snipped {total} times, want exactly 1 (double retire)"
                ));
            }
            Ok(())
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
            "HM bucket: no lost insert, single snip, published payloads",
            Box::new(cmap_chain_scenario(CMapSpec::SPLASH4, false)),
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
            "cmap remove marks via load/store: overwrites a racing insert",
            &["invariant"] as &[_],
            Box::new(cmap_chain_scenario(CMapSpec::SPLASH4, true)),
        ),
        (
            "cmap-link-relaxed",
            "cmap insert link CAS AcqRel -> Relaxed: payload unpublished",
            &["data-race"] as &[_],
            Box::new(cmap_chain_scenario(
                CMapSpec {
                    link_cas_ok: Ordering::Relaxed,
                    ..CMapSpec::SPLASH4
                },
                false,
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
