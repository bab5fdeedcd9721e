//! Perf-regression harness: microbenchmarks for the suite's hot paths.
//!
//! `splash4-report --bench` runs this and writes `BENCH_results.json` in the
//! `splash4-bench-v2` schema. Every workload is fixed (deterministic
//! construction, no RNG at run time beyond a seeded LCG); every metric is
//! measured through [`crate::measure`]: adaptive repetition until the
//! bootstrap 95 % CI of the median is tight (or a rep cap), summarized as
//! `{median, ci_lo, ci_hi, reps, cv, samples}`. Carrying the interval is
//! what lets `splash4-report --compare` gate regressions on noisy hosts
//! instead of merely archiving numbers (`DESIGN.md` §11).
//!
//! Covered surfaces, per `DESIGN.md` §10:
//! - reducer ops/sec for every sync generation (lock-based, CAS-loop,
//!   flat-combining), plus the host-normalized lock-free/lock-based and
//!   combining/lock-free ratios,
//! - `GETSUB` counter grabs/sec per generation, plus the ratios and a
//!   *paired* splash4x/splash4 drain ratio (the `combining` group's
//!   headline),
//! - barrier crossings/sec per generation, plus the ratios,
//! - simulator events/sec for the indexed [`Engine`] against the preserved
//!   binary-heap reference ([`engine::run_reference`]) on identical
//!   programs, with the speedup summarized from *paired per-repetition
//!   ratios* so host frequency drift cancels,
//! - end-to-end wall time of one simulation-driven report experiment.

use crate::experiments::ExperimentCtx;
use crate::measure::{measure_adaptive, time_adaptive, MeasureConfig, Summary};
use crate::registry::BenchmarkId;
use crate::service::{run_loadgen, ServiceConfig, WorkerPool};
use crate::tables::{geomean, Table};
use splash4_kernels::InputClass;
use splash4_parmacs::{json, Json, PhaseSpec, SyncEnv, SyncMode, TaskQueue, Team, WorkModel};
use splash4_reclaim::{PoolShape, ReclaimKind, TaskPool};
use splash4_sim::{engine, model, BarrierKind, MachineParams, Op, Program};
use std::time::Instant;

/// Tuning knobs for one bench run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Statistical stopping rule (reps, CI target, bootstrap size).
    pub measure: MeasureConfig,
    /// Threads used for the native synchronization microbenchmarks.
    pub threads: usize,
    /// Per-thread operations in the reducer / counter microbenchmarks.
    pub sync_ops: usize,
    /// Per-thread operations in each atomic cost-matrix cell (`--bench
    /// atomics`).
    pub atomic_ops: usize,
    /// Barrier crossings per thread.
    pub barrier_crossings: usize,
    /// Cores in the synthetic simulator program.
    pub sim_cores: usize,
    /// Operations per core in the synthetic simulator program.
    pub sim_ops_per_core: usize,
    /// `true` for the CI-sized run (`--quick`).
    pub quick: bool,
    /// Simulated cores for the serve scale-out benchmarks (the scaling
    /// study's headline point, 1024).
    pub serve_sim_cores: usize,
    /// Requests the serve load generator drives through the worker pool.
    pub serve_requests: usize,
    /// Operations per core in each serve sim request.
    pub serve_ops_per_core: usize,
    /// Workloads the end-to-end report benchmark covers (`--only` narrows
    /// this; the synchronization and simulator microbenchmarks are
    /// workload-independent and always run).
    pub benchmarks: Vec<BenchmarkId>,
}

impl BenchConfig {
    /// Full-size configuration (local perf tracking).
    pub fn full() -> BenchConfig {
        BenchConfig {
            measure: MeasureConfig::full(),
            threads: 4,
            sync_ops: 100_000,
            atomic_ops: 200_000,
            barrier_crossings: 10_000,
            sim_cores: 32,
            sim_ops_per_core: 4_000,
            quick: false,
            serve_sim_cores: 1024,
            serve_requests: 24,
            serve_ops_per_core: 400,
            benchmarks: BenchmarkId::all(),
        }
    }

    /// CI-sized configuration: same shape, ~10× less work, looser CI target.
    /// The serve benchmarks keep p=1024 even here — demonstrating a
    /// 1024-core simulation completing under CI is the point — and shrink
    /// only the per-core work and request count.
    pub fn quick() -> BenchConfig {
        BenchConfig {
            measure: MeasureConfig::quick(),
            threads: 4,
            sync_ops: 10_000,
            atomic_ops: 20_000,
            barrier_crossings: 1_000,
            sim_cores: 16,
            sim_ops_per_core: 800,
            quick: true,
            serve_sim_cores: 1024,
            serve_requests: 8,
            serve_ops_per_core: 100,
            benchmarks: BenchmarkId::all(),
        }
    }

    /// The stopping rule for the end-to-end wall benchmark: same CI target,
    /// but fewer repetitions — one sample is a whole report experiment.
    fn wall_measure(&self) -> MeasureConfig {
        MeasureConfig {
            min_reps: self.measure.min_reps.min(3),
            max_reps: self.measure.max_reps.min(5),
            ..self.measure
        }
    }
}

/// Reducer `add` throughput under full contention, one summary per back-end.
fn bench_reducers(cfg: &BenchConfig) -> Vec<(SyncMode, Summary)> {
    SyncMode::ALL
        .map(|mode| {
            let env = SyncEnv::new(mode, cfg.threads);
            let r = env.reducer_f64();
            let secs = time_adaptive(&cfg.measure, || {
                Team::new(cfg.threads).run(|_| {
                    for i in 0..cfg.sync_ops {
                        r.add(i as f64);
                    }
                });
            });
            (mode, secs.to_rate((cfg.threads * cfg.sync_ops) as u64))
        })
        .to_vec()
}

/// `GETSUB` grab throughput: the team drains a shared index range.
fn bench_counters(cfg: &BenchConfig) -> Vec<(SyncMode, Summary)> {
    SyncMode::ALL
        .map(|mode| {
            let env = SyncEnv::new(mode, cfg.threads);
            let total = cfg.threads * cfg.sync_ops;
            let c = env.counter("bench", 0..total);
            let secs = time_adaptive(&cfg.measure, || {
                c.reset();
                Team::new(cfg.threads).run(|_| while c.next().is_some() {});
            });
            (mode, secs.to_rate(total as u64))
        })
        .to_vec()
}

/// Barrier crossing throughput (whole-team crossings per second).
fn bench_barriers(cfg: &BenchConfig) -> Vec<(SyncMode, Summary)> {
    SyncMode::ALL
        .map(|mode| {
            let env = SyncEnv::new(mode, cfg.threads);
            let b = env.barrier();
            let secs = time_adaptive(&cfg.measure, || {
                Team::new(cfg.threads).run(|ctx| {
                    for _ in 0..cfg.barrier_crossings {
                        b.wait(ctx.tid);
                    }
                });
            });
            (mode, secs.to_rate(cfg.barrier_crossings as u64))
        })
        .to_vec()
}

/// The atomic ops the cost matrix times, in emission order.
const ATOMIC_OPS: [&str; 5] = ["cas", "faa", "swp", "load", "store"];

/// One timed pass of `n` back-to-back atomic ops on `x` by the calling
/// thread. Every iteration is exactly one hardware atomic (the CAS variant
/// feeds each attempt's observed value into the next, so failures retry
/// without an extra load); `Relaxed` ordering keeps the measurement at the
/// instruction's hardware cost — on the measured ISAs, stronger orderings
/// change fencing, which the simulator does not model separately.
fn atomic_pass(op: &str, x: &std::sync::atomic::AtomicU64, n: usize) {
    use std::hint::black_box;
    use std::sync::atomic::Ordering::Relaxed;
    match op {
        "cas" => {
            let mut prev = x.load(Relaxed);
            for _ in 0..n {
                prev = match x.compare_exchange_weak(prev, prev.wrapping_add(1), Relaxed, Relaxed) {
                    Ok(seen) => seen.wrapping_add(1),
                    Err(seen) => seen,
                };
            }
            black_box(prev);
        }
        "faa" => {
            let mut acc = 0u64;
            for _ in 0..n {
                acc ^= x.fetch_add(1, Relaxed);
            }
            black_box(acc);
        }
        "swp" => {
            let mut acc = 0u64;
            for i in 0..n {
                acc ^= x.swap(i as u64, Relaxed);
            }
            black_box(acc);
        }
        "load" => {
            let mut acc = 0u64;
            for _ in 0..n {
                acc ^= x.load(Relaxed);
            }
            black_box(acc);
        }
        "store" => {
            for i in 0..n {
                x.store(i as u64, Relaxed);
            }
        }
        other => unreachable!("unknown atomic op {other}"),
    }
}

/// The measured atomic cost matrix (`--bench atomics`): every op in
/// [`ATOMIC_OPS`] timed across contention levels (1, 2, and `cfg.threads`
/// threads hammering *one* cache-padded location — true sharing) and across
/// the padding pair (`cfg.threads` threads on *per-thread* slots, packed
/// into one cache line vs `CachePadded` — false sharing vs none). Cells are
/// nanoseconds per operation:
///
/// - contended cells report the *aggregate* cost `elapsed / (c · n)` — at
///   c=1 that is the local latency, at c=p the serialized service time of
///   the shared line, which is exactly what `sim::calibrate` lowers into
///   `rmw_local_ns` / `rmw_service_ns`;
/// - padding cells report the per-thread latency `elapsed / n`, since the
///   threads proceed in parallel on distinct locations.
///
/// Every cell is host-absolute (classified `Wall` by the compare layer:
/// gate-eligible only between matching configs on the same host,
/// informational otherwise) — per Schweizer/Besta/Hoefler these costs *are*
/// host properties, which is the reason they feed calibration instead of a
/// cross-host gate.
fn bench_atomics(cfg: &BenchConfig) -> Vec<(String, Summary)> {
    use splash4_parmacs::CachePadded;
    use std::sync::atomic::AtomicU64;
    let n = cfg.atomic_ops;
    let mut cells: Vec<(String, Summary)> = Vec::new();
    for op in ATOMIC_OPS {
        // True sharing: c threads on one padded location.
        for c in splash4_sim::contention_levels(cfg.threads) {
            let shared = CachePadded::new(AtomicU64::new(0));
            let secs = time_adaptive(&cfg.measure, || {
                Team::new(c).run(|_| atomic_pass(op, &shared, n));
            });
            cells.push((format!("{op}_c{c}_ns"), secs.scale(1e9 / (c * n) as f64)));
        }
        // False sharing vs padded: per-thread slots, one line vs one line each.
        let packed: Vec<AtomicU64> = (0..cfg.threads).map(|_| AtomicU64::new(0)).collect();
        let secs = time_adaptive(&cfg.measure, || {
            Team::new(cfg.threads).run(|ctx| atomic_pass(op, &packed[ctx.tid], n));
        });
        cells.push((format!("{op}_falseshare_ns"), secs.scale(1e9 / n as f64)));
        let padded: Vec<CachePadded<AtomicU64>> = (0..cfg.threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        let secs = time_adaptive(&cfg.measure, || {
            Team::new(cfg.threads).run(|ctx| atomic_pass(op, &padded[ctx.tid], n));
        });
        cells.push((format!("{op}_padded_ns"), secs.scale(1e9 / n as f64)));
    }
    cells
}

/// The summary measured for one sync generation in a per-mode group, looked
/// up by mode rather than by position so callers name their baseline
/// explicitly instead of assuming a two-element layout.
fn mode_summary(pairs: &[(SyncMode, Summary)], mode: SyncMode) -> &Summary {
    &pairs
        .iter()
        .find(|(m, _)| *m == mode)
        .unwrap_or_else(|| panic!("mode {} was not measured in this group", mode.label()))
        .1
}

/// Host-normalized ratio of generation `num` over the explicit baseline
/// generation `base` within one per-mode group.
fn group_ratio(pairs: &[(SyncMode, Summary)], num: SyncMode, base: SyncMode) -> Summary {
    mode_summary(pairs, num).ratio_vs(mode_summary(pairs, base))
}

/// The combining generation's headline metric: the paired per-repetition
/// ratio of the splash4x combining counter against splash4's `fetch_add`
/// counter on the same fully contended `GETSUB` drain. The two drains are
/// interleaved within each repetition and the adaptive stopping rule watches
/// the ratio's CI, so host frequency drift shifts both halves of a pair
/// together and cancels — the same trick the sim-engine speedup uses. At
/// bench thread counts combining usually *loses* to raw `fetch_add` (one
/// uncontended RMW is hard to beat); the sim-backed F9 experiment is where
/// the high-`p` crossover shows. The gate's job here is to keep the native
/// ratio from collapsing, not to prove it exceeds 1.
fn bench_combining_paired(cfg: &BenchConfig) -> Summary {
    let total = cfg.threads * cfg.sync_ops;
    let combining_env = SyncEnv::new(SyncMode::Combining, cfg.threads);
    let lockfree_env = SyncEnv::new(SyncMode::LockFree, cfg.threads);
    let combining = combining_env.counter("paired", 0..total);
    let lockfree = lockfree_env.counter("paired", 0..total);
    measure_adaptive(&cfg.measure, || {
        let t0 = Instant::now();
        combining.reset();
        Team::new(cfg.threads).run(|_| while combining.next().is_some() {});
        let combining_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        lockfree.reset();
        Team::new(cfg.threads).run(|_| while lockfree.next().is_some() {});
        let lockfree_secs = t0.elapsed().as_secs_f64();
        lockfree_secs / combining_secs.max(1e-12)
    })
}

/// Dynamic-pool churn throughput: the reclaiming task pools against the
/// suite's index-based retire-list stack, `cfg.threads` threads each doing
/// `cfg.sync_ops` push+pop pairs on one shared LIFO pool.
///
/// Churn is the shape that separates the designs: every push allocates a
/// node and every pop retires one, so the reclaiming pools pay their
/// protocol (epoch announce/advance vs hazard publish/scan) on every
/// operation while the index-based stack recycles from its retire list for
/// free — the measured ratios are the price of unbounded producers, and the
/// epoch-vs-hazard ratio is the paper-familiar EBR/HP crossover under
/// maximum reclamation pressure.
fn bench_reclaim(cfg: &BenchConfig) -> ([Summary; 3], Summary, Summary) {
    let churn = |pool: &dyn TaskQueue<usize>| -> Summary {
        let secs = time_adaptive(&cfg.measure, || {
            Team::new(cfg.threads).run(|_| {
                for i in 0..cfg.sync_ops {
                    pool.push(i);
                    let _ = pool.pop();
                }
            });
            // Interleaved pops can transiently leave items behind; drain so
            // repetitions start from the same (empty) state.
            while pool.pop().is_some() {}
        });
        secs.to_rate((cfg.threads * cfg.sync_ops * 2) as u64)
    };
    let env = SyncEnv::new(SyncMode::LockFree, cfg.threads);
    let index = churn(&*env.task_queue::<usize>());
    let pool = |kind| {
        TaskPool::<usize>::new(
            PoolShape::Lifo,
            kind,
            cfg.threads + 1,
            std::sync::Arc::clone(env.stats()),
        )
    };
    let epoch = churn(&pool(ReclaimKind::Epoch));
    let hazard = churn(&pool(ReclaimKind::Hazard));
    let epoch_vs_index_ratio = epoch.ratio_vs(&index);
    let epoch_vs_hazard_ratio = epoch.ratio_vs(&hazard);
    (
        [index, epoch, hazard],
        epoch_vs_index_ratio,
        epoch_vs_hazard_ratio,
    )
}

/// Deterministic synthetic simulator program: staggered compute, a mix of
/// shared and private server accesses with occasional contention penalties,
/// and periodic barriers — the op mix the experiment sweeps produce, built
/// from a seeded LCG so every bench run replays the same program. Public
/// because the serve service's `sim` requests are defined as exactly these
/// programs (same seed → same program → content-hashable result).
pub fn synthetic_program(
    cores: usize,
    ops_per_core: usize,
    kind: BarrierKind,
    seed: u64,
) -> Program {
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let barrier_every = 97; // prime, so barriers don't phase-lock with the mix
    let mut program = Program {
        name: "perfbench-synthetic".into(),
        cores: vec![Vec::with_capacity(ops_per_core); cores],
        barriers: Vec::new(),
    };
    let mut ops_emitted = vec![0usize; cores];
    let mut slot = 0usize;
    while ops_emitted.iter().any(|&n| n < ops_per_core) {
        slot += 1;
        let place_barrier = slot.is_multiple_of(barrier_every);
        if place_barrier {
            let id = program.barriers.len() as u32;
            program.barriers.push(kind);
            for (c, stream) in program.cores.iter_mut().enumerate() {
                stream.push(Op::Barrier { id });
                ops_emitted[c] += 1;
            }
            continue;
        }
        for (c, stream) in program.cores.iter_mut().enumerate() {
            if ops_emitted[c] >= ops_per_core {
                continue;
            }
            let r = next();
            let op = if r % 5 == 0 {
                Op::Access {
                    server: (r % 3) as u32, // 3 shared servers → real queueing
                    n: 1 + r % 4,
                    service_ns: 40 + r % 60,
                    local_ns: 15,
                    contended_ns: if r % 7 == 0 { 400 } else { 0 },
                }
            } else {
                Op::Compute {
                    ns: 50 + (r % 900) + c as u64 * 3,
                }
            };
            stream.push(op);
            ops_emitted[c] += 1;
        }
    }
    program
}

/// Simulator throughput: the indexed engine vs the preserved heap reference
/// on byte-identical programs. Returns `(engine, reference, speedup)`
/// summaries; the two runs are also checked for result equality, so the
/// bench doubles as an equivalence test on programs far larger than the
/// unit tests use.
///
/// The two engines are interleaved within each repetition and the speedup is
/// summarized from the **per-repetition ratio** `reference_secs /
/// engine_secs`: CPU frequency and thermal drift shift both halves of a
/// pair together and cancel out of the ratio (back-to-back blocks were
/// observed to swing the measured speedup by ±40 % on a busy host). The
/// adaptive stopping rule watches the ratio's CI — the quantity the gate
/// cares about — not the absolute rates.
fn bench_sim_events(cfg: &BenchConfig) -> (Summary, Summary, Summary) {
    let machine = MachineParams::epyc_like();
    let work = WorkModel::new("perfbench")
        .phase(
            PhaseSpec::compute("sweep", cfg.sim_ops_per_core as u64, 90)
                .reduces(0.02)
                .barriers(2)
                .repeats(12),
        )
        .phase(
            PhaseSpec::compute("update", (cfg.sim_ops_per_core / 2) as u64, 45)
                .barriers(1)
                .repeats(24),
        );
    let mut programs: Vec<Program> = Vec::new();
    for cores in [cfg.sim_cores / 2, cfg.sim_cores, cfg.sim_cores * 2] {
        for mode in SyncMode::ALL {
            programs.push(model::expand(
                &work,
                splash4_parmacs::SyncPolicy::uniform(mode),
                cores.max(1),
                &machine,
            ));
        }
    }
    let kinds = [BarrierKind::Sense, BarrierKind::Condvar, BarrierKind::Tree];
    for (i, &k) in kinds.iter().enumerate() {
        programs.push(synthetic_program(
            cfg.sim_cores,
            cfg.sim_ops_per_core,
            k,
            0x5eed + i as u64,
        ));
    }
    let total_events: u64 = programs.iter().map(|p| p.total_ops() as u64).sum();

    // Doubles as warmup for the timed loops below.
    let mut eng = engine::Engine::new();
    for p in &programs {
        let fast = eng.run(p, &machine);
        let reference = engine::run_reference(p, &machine);
        assert_eq!(
            fast, reference,
            "indexed engine must match the heap reference on {}",
            p.name
        );
    }

    let mut fast_secs: Vec<f64> = Vec::new();
    let mut ref_secs: Vec<f64> = Vec::new();
    // One adaptive measurement over the paired ratio; the absolute per-side
    // samples are collected alongside and summarized afterwards.
    let speedup = measure_adaptive(&cfg.measure, || {
        let t0 = Instant::now();
        for p in &programs {
            let _ = eng.run(p, &machine);
        }
        let fast = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for p in &programs {
            let _ = engine::run_reference(p, &machine);
        }
        let reference = t0.elapsed().as_secs_f64();
        fast_secs.push(fast);
        ref_secs.push(reference);
        reference / fast.max(1e-12)
    });
    let resamples = cfg.measure.resamples;
    (
        Summary::from_samples(&fast_secs, resamples).to_rate(total_events),
        Summary::from_samples(&ref_secs, resamples).to_rate(total_events),
        speedup,
    )
}

/// Serve throughput: requests/sec and simulated events/sec of the worker
/// pool under the scale-out load (8 concurrent clients, p=1024 sim
/// requests, 50 % duplicates exercising the content-hashed cache exactly as
/// the service does). One repetition is a whole service lifecycle — pool
/// start, mixed concurrent load, graceful drain — so the rates include
/// every cost a real `splash4-serve` deployment pays except the sockets.
fn bench_serve_throughput(cfg: &BenchConfig) -> (Summary, Summary, u64) {
    const CLIENTS: usize = 8;
    let mut sim_events = 0u64;
    let wall = time_adaptive(&cfg.wall_measure(), || {
        let pool = WorkerPool::start(ServiceConfig {
            workers: 4,
            cache_capacity: 64,
            queue_capacity: 64,
            default_timeout_ms: None,
            // The sim-only load never touches the ctx; keep it minimal so a
            // repetition costs nothing beyond the service itself.
            ctx: ExperimentCtx {
                benchmarks: Vec::new(),
                ..ExperimentCtx::default()
            },
        });
        let report = run_loadgen(
            &pool,
            cfg.serve_requests,
            CLIENTS,
            cfg.serve_sim_cores,
            cfg.serve_ops_per_core,
        )
        .expect("serve loadgen");
        sim_events = report.sim_events;
        pool.shutdown();
    });
    (
        wall.to_rate(cfg.serve_requests as u64),
        wall.to_rate(sim_events),
        sim_events,
    )
}

/// The many-core retime optimization, measured as a paired ratio at
/// p=`serve_sim_cores`: the preserved binary-heap reference (which pays
/// O(p log p) re-insertions on every broadcast barrier release) against the
/// winner-tree engine with the uniform template fill and early-exit retimes.
/// Identical programs, interleaved timings, so host frequency drift cancels;
/// the ratio is the before/after of the scale-out work and gates cross-host
/// like every other ratio metric. The returned note is the human-readable
/// before/after line.
///
/// (The `set_full_rebuild_release` knob A/Bs the release fill against the
/// compare-based rebuild inside the same engine; both are O(p) per release,
/// so that pair does not statistically resolve on end-to-end runs — the
/// equivalence tests use the knob, the bench measures against the heap.)
fn bench_serve_retime(cfg: &BenchConfig) -> (Summary, String) {
    let machine = MachineParams::manycore(cfg.serve_sim_cores);
    let programs: Vec<Program> = [BarrierKind::Sense, BarrierKind::Tree]
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            synthetic_program(
                cfg.serve_sim_cores,
                cfg.serve_ops_per_core,
                k,
                0xba5e + i as u64,
            )
        })
        .collect();
    let mut tree_engine = engine::Engine::new();
    // Warmup, doubling as an equivalence check: the winner-tree engine must
    // be bit-identical to the heap reference at this scale (the release
    // template fill and the early-exit retimes change no result).
    for p in &programs {
        assert_eq!(
            tree_engine.run(p, &machine),
            engine::run_reference(p, &machine),
            "winner-tree engine must match the heap reference on {}",
            p.name
        );
    }
    let mut ref_secs: Vec<f64> = Vec::new();
    let mut tree_secs: Vec<f64> = Vec::new();
    let speedup = measure_adaptive(&cfg.measure, || {
        let t0 = Instant::now();
        for p in &programs {
            let _ = engine::run_reference(p, &machine);
        }
        let reference = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for p in &programs {
            let _ = tree_engine.run(p, &machine);
        }
        let tree = t0.elapsed().as_secs_f64();
        ref_secs.push(reference);
        tree_secs.push(tree);
        reference / tree.max(1e-12)
    });
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let note = format!(
        "serve retime note: barrier retime at p={} — heap reference {:.2} ms vs winner-tree engine {:.2} ms per pass ({:.2}x)",
        cfg.serve_sim_cores,
        median(&mut ref_secs) * 1e3,
        median(&mut tree_secs) * 1e3,
        speedup.median,
    );
    (speedup, note)
}

/// Wall time of one full simulation-driven report experiment (F2), in
/// seconds. Uses a fresh ctx per repetition so the model cache and program
/// memoization are exercised exactly as a cold `splash4-report` run would.
fn bench_report_wall(cfg: &BenchConfig) -> Summary {
    let sim_threads = if cfg.quick {
        vec![1, 8, 64]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64]
    };
    time_adaptive(&cfg.wall_measure(), || {
        let ctx = ExperimentCtx {
            class: InputClass::Test,
            sim_threads: sim_threads.clone(),
            benchmarks: cfg.benchmarks.clone(),
            ..ExperimentCtx::default()
        };
        crate::experiments::run_experiment("F2-sim-epyc", &ctx).expect("F2 runs");
    })
}

/// Format one summary as `median [ci_lo, ci_hi] (n=reps)` with a unit scale.
fn fmt_summary(s: &Summary, scale: f64, unit: &str) -> String {
    format!(
        "{:.3} [{:.3}, {:.3}] {unit} (n={})",
        s.median / scale,
        s.ci_lo / scale,
        s.ci_hi / scale,
        s.reps
    )
}

/// Append the atomic cost-matrix cells to the bench table, one row per
/// cell, labeled `atomic <op>` / `<cell>` (e.g. `c1`, `c4`, `falseshare`,
/// `padded`).
fn atomics_rows(t: &mut Table, cells: &[(String, Summary)]) {
    for (name, s) in cells {
        let trimmed = name.strip_suffix("_ns").unwrap_or(name);
        let (op, cell) = trimmed.split_once('_').unwrap_or((trimmed, ""));
        t.row(vec![
            format!("atomic {op}"),
            cell.into(),
            fmt_summary(s, 1.0, "ns/op"),
        ]);
    }
}

/// The `atomics` metric group: every cost-matrix cell as a summary object,
/// keyed by its flat cell name (`faa_c2_ns`, `store_padded_ns`, …).
fn atomics_group(cells: &[(String, Summary)]) -> Json {
    Json::Object(
        cells
            .iter()
            .map(|(name, s)| (name.clone(), s.to_json()))
            .collect(),
    )
}

/// Run only the atomic cost matrix (`--bench atomics`) and render the
/// results.
///
/// The returned document is a *subset* `splash4-bench-v2`: the same config
/// block as a full run, but only the `atomics` metric group. It validates
/// and compares like any other bench document, and it is the input
/// `splash4-report --calibrate` lowers into a host machine profile — the
/// point of the subset form is that CI can measure the matrix in seconds
/// without paying for the full suite.
pub fn run_bench_atomics(cfg: &BenchConfig) -> (String, Json) {
    let atomics = bench_atomics(cfg);
    let mut t = Table::new(vec!["metric", "backend", "median [95% CI]"]);
    atomics_rows(&mut t, &atomics);
    let doc = json!({
        "schema": "splash4-bench-v2",
        "config": json!({
            "quick": cfg.quick,
            "threads": cfg.threads as u64,
            "atomic_ops": cfg.atomic_ops as u64,
            "measure": json!({
                "min_reps": cfg.measure.min_reps as u64,
                "max_reps": cfg.measure.max_reps as u64,
                "target_rci": cfg.measure.target_rci,
                "resamples": cfg.measure.resamples as u64,
            }),
        }),
        "metrics": json!({
            "atomics": atomics_group(&atomics),
        }),
    });
    (t.render(), doc)
}

/// One workload-family bench group: family name, per-mode churn summaries,
/// and the lockfree/lock ratio the compare gate watches.
type FamilyGroup = (&'static str, Vec<(SyncMode, Summary)>, Summary);

/// End-to-end churn throughput of the registry-extension workload families
/// — `cmap` in map operations/sec, `stream` in pipeline items/sec — one
/// summary per back-end. These become the `cmap.*`/`stream.*` v2 groups the
/// compare gate watches, so a regression in either family's lock-free path
/// (the Harris–Michael buckets, the Vyukov rings) fails CI like any other
/// primitive group.
fn bench_families(cfg: &BenchConfig) -> Vec<(&'static str, Vec<(SyncMode, Summary)>)> {
    let cmap_ops = splash4_kernels::cmap::CMapConfig::class(InputClass::Test).ops as u64;
    let stream_items = splash4_kernels::stream::StreamConfig::class(InputClass::Test).items as u64;
    [
        (BenchmarkId::Cmap, cmap_ops),
        (BenchmarkId::Stream, stream_items),
    ]
    .map(|(b, ops)| {
        let pairs = SyncMode::ALL
            .map(|mode| {
                let env = SyncEnv::new(mode, cfg.threads);
                let secs = time_adaptive(&cfg.measure, || {
                    let r = b.run(InputClass::Test, &env);
                    assert!(r.validated, "{} invalid during bench", b.name());
                });
                (mode, secs.to_rate(ops))
            })
            .to_vec();
        (b.name(), pairs)
    })
    .to_vec()
}

/// Run every microbenchmark and render the results.
///
/// The returned `(text, json)` pair is what `splash4-report --bench` prints
/// and writes: the JSON document is the `splash4-bench-v2` schema that
/// `splash4-report --validate` checks and `--compare` gates on.
pub fn run_bench(cfg: &BenchConfig) -> (String, Json) {
    let atomics = bench_atomics(cfg);
    let reducers = bench_reducers(cfg);
    let counters = bench_counters(cfg);
    let barriers = bench_barriers(cfg);
    let (engine_eps, reference_eps, speedup) = bench_sim_events(cfg);
    let report_wall = bench_report_wall(cfg);
    let (serve_rps, serve_eps, serve_events) = bench_serve_throughput(cfg);
    let (serve_retime, retime_note) = bench_serve_retime(cfg);
    let (
        [reclaim_index, reclaim_epoch, reclaim_hazard],
        epoch_vs_index_ratio,
        epoch_vs_hazard_ratio,
    ) = bench_reclaim(cfg);
    let families: Vec<FamilyGroup> = bench_families(cfg)
        .into_iter()
        .map(|(name, pairs)| {
            let ratio = group_ratio(&pairs, SyncMode::LockFree, SyncMode::LockBased);
            (name, pairs, ratio)
        })
        .collect();

    // Host-normalized generation ratios, per primitive group: the classic
    // lock-free/lock-based (splash4/splash3) pair the v2 schema has always
    // carried under `ratio`, plus combining/lock-free (splash4x/splash4) for
    // the third generation.
    let reducer_ratio = group_ratio(&reducers, SyncMode::LockFree, SyncMode::LockBased);
    let counter_ratio = group_ratio(&counters, SyncMode::LockFree, SyncMode::LockBased);
    let barrier_ratio = group_ratio(&barriers, SyncMode::LockFree, SyncMode::LockBased);
    let reducer_combining = group_ratio(&reducers, SyncMode::Combining, SyncMode::LockFree);
    let counter_combining = group_ratio(&counters, SyncMode::Combining, SyncMode::LockFree);
    let barrier_combining = group_ratio(&barriers, SyncMode::Combining, SyncMode::LockFree);
    let combining_paired = bench_combining_paired(cfg);

    let mut t = Table::new(vec!["metric", "backend", "median [95% CI]"]);
    for (label, pairs, ratio, combining) in [
        ("reducer add", &reducers, &reducer_ratio, &reducer_combining),
        (
            "counter grab",
            &counters,
            &counter_ratio,
            &counter_combining,
        ),
        (
            "barrier crossing",
            &barriers,
            &barrier_ratio,
            &barrier_combining,
        ),
    ] {
        let (scale, unit) = if label == "barrier crossing" {
            (1e3, "k/s")
        } else {
            (1e6, "Mops/s")
        };
        for (mode, s) in pairs.iter() {
            t.row(vec![
                label.into(),
                mode.label().into(),
                fmt_summary(s, scale, unit),
            ]);
        }
        t.row(vec![
            label.into(),
            "lockfree/lock ratio".into(),
            fmt_summary(ratio, 1.0, "x"),
        ]);
        t.row(vec![
            label.into(),
            "combining/lockfree ratio".into(),
            fmt_summary(combining, 1.0, "x"),
        ]);
    }
    for (name, pairs, ratio) in &families {
        let label = format!("{name} churn");
        for (mode, s) in pairs.iter() {
            t.row(vec![
                label.clone(),
                mode.label().into(),
                fmt_summary(s, 1e6, "Mops/s"),
            ]);
        }
        t.row(vec![
            label,
            "lockfree/lock ratio".into(),
            fmt_summary(ratio, 1.0, "x"),
        ]);
    }
    t.row(vec![
        "combining crossover".into(),
        "splash4x/splash4 counter drain (paired)".into(),
        fmt_summary(&combining_paired, 1.0, "x"),
    ]);
    t.row(vec![
        "sim events".into(),
        "indexed engine".into(),
        fmt_summary(&engine_eps, 1e6, "Mops/s"),
    ]);
    t.row(vec![
        "sim events".into(),
        "heap reference".into(),
        fmt_summary(&reference_eps, 1e6, "Mops/s"),
    ]);
    t.row(vec![
        "sim engine speedup".into(),
        "indexed/heap (paired)".into(),
        fmt_summary(&speedup, 1.0, "x"),
    ]);
    t.row(vec![
        "F2 report wall".into(),
        "end-to-end".into(),
        fmt_summary(&report_wall, 1.0, "s"),
    ]);
    t.row(vec![
        "serve requests".into(),
        format!("pool, p={}", cfg.serve_sim_cores),
        fmt_summary(&serve_rps, 1.0, "req/s"),
    ]);
    t.row(vec![
        "serve sim events".into(),
        format!("pool, p={}", cfg.serve_sim_cores),
        fmt_summary(&serve_eps, 1e6, "Mops/s"),
    ]);
    t.row(vec![
        "serve retime speedup".into(),
        format!("heap-ref/winner-tree, p={} (paired)", cfg.serve_sim_cores),
        fmt_summary(&serve_retime, 1.0, "x"),
    ]);
    for (backend, s) in [
        ("index retire-list", &reclaim_index),
        ("epoch pool", &reclaim_epoch),
        ("hazard pool", &reclaim_hazard),
    ] {
        t.row(vec![
            "reclaim pool churn".into(),
            backend.into(),
            fmt_summary(s, 1e6, "Mops/s"),
        ]);
    }
    t.row(vec![
        "reclaim pool churn".into(),
        "epoch/index ratio".into(),
        fmt_summary(&epoch_vs_index_ratio, 1.0, "x"),
    ]);
    t.row(vec![
        "reclaim pool churn".into(),
        "epoch/hazard ratio".into(),
        fmt_summary(&epoch_vs_hazard_ratio, 1.0, "x"),
    ]);
    atomics_rows(&mut t, &atomics);

    let mut throughputs: Vec<f64> = [&reducers, &counters, &barriers]
        .iter()
        .flat_map(|pairs| pairs.iter().map(|(_, s)| s.median))
        .collect();
    throughputs.extend([
        engine_eps.median,
        reference_eps.median,
        serve_rps.median,
        serve_eps.median,
        reclaim_index.median,
        reclaim_epoch.median,
        reclaim_hazard.median,
    ]);
    throughputs.extend(
        families
            .iter()
            .flat_map(|(_, pairs, _)| pairs.iter().map(|(_, s)| s.median)),
    );
    let throughput_geomean = geomean(&throughputs);
    let mut ratios = vec![
        reducer_ratio.median,
        counter_ratio.median,
        barrier_ratio.median,
        reducer_combining.median,
        counter_combining.median,
        barrier_combining.median,
        combining_paired.median,
        speedup.median,
        serve_retime.median,
        epoch_vs_index_ratio.median,
        epoch_vs_hazard_ratio.median,
    ];
    ratios.extend(families.iter().map(|(_, _, r)| r.median));
    let ratio_geomean = geomean(&ratios);

    let group = |pairs: &[(SyncMode, Summary)], ratio: &Summary| {
        Json::Object(
            pairs
                .iter()
                .map(|(m, s)| (m.label().to_string(), s.to_json()))
                .chain(std::iter::once(("ratio".to_string(), ratio.to_json())))
                .collect(),
        )
    };
    let doc = json!({
        "schema": "splash4-bench-v2",
        "config": json!({
            "quick": cfg.quick,
            "threads": cfg.threads as u64,
            "sync_ops": cfg.sync_ops as u64,
            "barrier_crossings": cfg.barrier_crossings as u64,
            "sim_cores": cfg.sim_cores as u64,
            "sim_ops_per_core": cfg.sim_ops_per_core as u64,
            "atomic_ops": cfg.atomic_ops as u64,
            "serve_sim_cores": cfg.serve_sim_cores as u64,
            "serve_requests": cfg.serve_requests as u64,
            "serve_ops_per_core": cfg.serve_ops_per_core as u64,
            "measure": json!({
                "min_reps": cfg.measure.min_reps as u64,
                "max_reps": cfg.measure.max_reps as u64,
                "target_rci": cfg.measure.target_rci,
                "resamples": cfg.measure.resamples as u64,
            }),
        }),
        "metrics": json!({
            "reducer_ops_per_sec": group(&reducers, &reducer_ratio),
            "counter_grabs_per_sec": group(&counters, &counter_ratio),
            "barrier_crossings_per_sec": group(&barriers, &barrier_ratio),
            "sim_events_per_sec": json!({
                "engine": engine_eps.to_json(),
                "reference": reference_eps.to_json(),
                "speedup": speedup.to_json(),
            }),
            "report_wall_secs": report_wall.to_json(),
            "serve": json!({
                "requests_per_sec": serve_rps.to_json(),
                "events_per_sec_p1024": serve_eps.to_json(),
                "retime_speedup": serve_retime.to_json(),
                "sim_events_per_run": serve_events,
            }),
            "reclaim": json!({
                "index_pool_ops_per_sec": reclaim_index.to_json(),
                "epoch_pool_ops_per_sec": reclaim_epoch.to_json(),
                "hazard_pool_ops_per_sec": reclaim_hazard.to_json(),
                "epoch_vs_index_ratio": epoch_vs_index_ratio.to_json(),
                "epoch_vs_hazard_ratio": epoch_vs_hazard_ratio.to_json(),
            }),
            "combining": json!({
                "reducer_vs_lockfree_ratio": reducer_combining.to_json(),
                "counter_vs_lockfree_ratio": counter_combining.to_json(),
                "barrier_vs_lockfree_ratio": barrier_combining.to_json(),
                "combining_vs_lockfree_ratio": combining_paired.to_json(),
            }),
            "cmap": group(&families[0].1, &families[0].2),
            "stream": group(&families[1].1, &families[1].2),
            "atomics": atomics_group(&atomics),
        }),
        "aggregate": json!({
            "throughput_geomean_ops_per_sec": throughput_geomean,
            "ratio_geomean": ratio_geomean,
        }),
    });
    let mut text = t.render();
    text.push_str(&retime_note);
    text.push('\n');
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare_texts, validate, BenchDoc, MetricClass};

    fn tiny() -> BenchConfig {
        BenchConfig {
            measure: MeasureConfig {
                min_reps: 2,
                max_reps: 3,
                target_rci: 0.5,
                resamples: 100,
            },
            threads: 2,
            sync_ops: 500,
            atomic_ops: 400,
            barrier_crossings: 50,
            sim_cores: 4,
            sim_ops_per_core: 120,
            quick: true,
            serve_sim_cores: 64,
            serve_requests: 4,
            serve_ops_per_core: 30,
            benchmarks: vec![BenchmarkId::Fft, BenchmarkId::Radix],
        }
    }

    #[test]
    fn synthetic_program_is_deterministic_and_valid() {
        let a = synthetic_program(8, 200, BarrierKind::Sense, 42);
        let b = synthetic_program(8, 200, BarrierKind::Sense, 42);
        assert_eq!(a, b, "same seed must build the same program");
        a.validate().expect("program validates");
        let c = synthetic_program(8, 200, BarrierKind::Sense, 43);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn bench_emits_v2_schema_that_validates_and_self_compares() {
        let (text, doc) = run_bench(&tiny());
        assert!(text.contains("sim engine speedup"));
        assert!(text.contains("serve requests"));
        assert!(
            text.contains("serve retime note"),
            "the before/after retime line must be in the bench output:\n{text}"
        );
        assert_eq!(doc["schema"].as_str(), Some("splash4-bench-v2"));
        assert!(doc["metrics"]["serve"]["requests_per_sec"]
            .get("median")
            .and_then(Json::as_f64)
            .is_some_and(|v| v > 0.0));
        assert!(doc["metrics"]["serve"]["retime_speedup"]
            .get("median")
            .and_then(Json::as_f64)
            .is_some_and(|v| v > 0.0));
        assert_eq!(doc["config"]["serve_sim_cores"].as_u64(), Some(64));
        let rendered = doc.to_string_pretty();
        // The document passes its own validator and decodes fully.
        validate(&rendered).expect("fresh bench document validates");
        let decoded = BenchDoc::parse(&rendered).expect("decodes");
        for m in &decoded.metrics {
            assert!(m.summary.median > 0.0, "{} must be positive", m.name);
            assert!(m.summary.reps >= 2, "{} must carry real reps", m.name);
            assert!(
                !m.summary.samples.is_empty() || m.name.ends_with("ratio"),
                "{} should record samples",
                m.name
            );
        }
        // The atomic cost matrix rides along in every full document: all 5
        // ops × (contention levels {1, threads} at threads=2, plus the
        // falseshare/padded pair), classified host-absolute.
        let cas_c1 = decoded.metric("atomics/cas_c1_ns").expect("cas c1 cell");
        assert_eq!(cas_c1.class, MetricClass::Wall);
        // The registry-extension family groups ride along: every back-end
        // plus the gate-eligible lockfree/lockbased ratio.
        for fam in ["cmap", "stream"] {
            for backend in ["splash3", "splash4", "splash4x"] {
                assert!(
                    decoded.metric(&format!("{fam}/{backend}")).is_some(),
                    "{fam}/{backend} missing"
                );
            }
            let r = decoded
                .metric(&format!("{fam}/ratio"))
                .expect("family ratio");
            assert_eq!(r.class, MetricClass::Ratio);
        }
        assert!(decoded.metric("atomics/faa_c2_ns").is_some());
        assert!(decoded.metric("atomics/store_padded_ns").is_some());
        assert!(decoded.metric("atomics/load_falseshare_ns").is_some());
        assert_eq!(doc["config"]["atomic_ops"].as_u64(), Some(400));
        // Self-comparison of a fresh document can never gate.
        let report = compare_texts(&rendered, &rendered).expect("self compare");
        assert!(report.pass());
        // Aggregates are present and sane.
        assert!(doc["aggregate"]["throughput_geomean_ops_per_sec"]
            .as_f64()
            .is_some_and(|v| v > 0.0));
        assert!(doc["aggregate"]["ratio_geomean"]
            .as_f64()
            .is_some_and(|v| v > 0.0));
    }

    #[test]
    fn atomics_subset_document_validates_and_calibrates() {
        let (text, doc) = run_bench_atomics(&tiny());
        assert!(text.contains("atomic cas"), "{text}");
        assert!(text.contains("falseshare"), "{text}");
        let rendered = doc.to_string_pretty();
        validate(&rendered).expect("atomics-only subset document validates");
        let decoded = BenchDoc::parse(&rendered).expect("decodes");
        assert!(decoded
            .metrics
            .iter()
            .all(|m| m.name.starts_with("atomics/")));
        // 5 ops × (contention levels {1, 2} at threads=2 + falseshare + padded).
        assert_eq!(decoded.metrics.len(), 5 * 4);
        // Subset self-comparison cannot gate (everything is Wall-class and
        // the configs match).
        let r = compare_texts(&rendered, &rendered).expect("self compare");
        assert!(r.configs_match && r.pass());
        // The subset document is exactly what `--calibrate` lowers.
        let base = MachineParams::epyc_like();
        let cal = splash4_sim::calibrate(&doc, &base).unwrap();
        assert!(cal.rmw_local_ns >= 1);
        assert!(cal.rmw_service_ns >= cal.rmw_local_ns);
        assert_eq!(cal.ghz, base.ghz);
    }
}
