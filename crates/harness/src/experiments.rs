//! The paper's experiment inventory: one function per table/figure.
//!
//! Experiment ids follow `DESIGN.md` §4. Each function returns a [`Report`]
//! with an aligned text table (what the paper's figure/table shows) and a
//! JSON payload for downstream plotting.

use crate::cache::{fnv1a, ResultCache};
use crate::registry::BenchmarkId;
use crate::tables::{geomean, pct_change, Report, Table};
use splash4_kernels::InputClass;
use splash4_parmacs::{
    json, ConstructClass, Json, SyncCounters, SyncEnv, SyncMode, SyncPolicy, ToJson, WorkModel,
};
use splash4_sim::{engine, MachineParams, Simulator};
use splash4_trace::{lower::lower, RingRecorder, TraceSummary};
use std::sync::Arc;

/// Cache of calibrated workload models, shared by every experiment run from
/// one [`ExperimentCtx`].
///
/// Calibrating a model means *running the kernel natively* (the measured
/// wall time rescales the per-item cycle estimates), so before this cache a
/// full `--all` report re-executed every kernel once per simulation-driven
/// experiment (F2, F3, F4, F5, F6, S1). Cloning the ctx shares the cache.
/// A thin wrapper over the generic content-hashed [`ResultCache`]: the key
/// is the `(benchmark, class)` pair, and concurrent requests for the same
/// model coalesce instead of calibrating twice.
#[derive(Debug, Clone)]
pub struct ModelCache {
    cache: ResultCache<WorkModel>,
}

impl Default for ModelCache {
    fn default() -> ModelCache {
        // Every (benchmark, class) pair fits with headroom: calibrated
        // models must never be evicted mid-report, or two experiments could
        // see different calibrations of the same kernel.
        ModelCache {
            cache: ResultCache::new(
                BenchmarkId::all().len() * InputClass::ALL.len(),
                Arc::new(SyncCounters::new()),
            ),
        }
    }
}

impl ModelCache {
    /// The cached calibrated model for `(b, class)`, running the kernel once
    /// on miss.
    pub fn get(&self, b: BenchmarkId, class: InputClass) -> WorkModel {
        let key = fnv1a(format!("model/{}/{}", b.name(), class.label()).as_bytes());
        self.cache.get_or_compute(key, || work_model(b, class)).0
    }

    /// Number of models currently cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` if no models have been cached yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Input class for kernel executions.
    pub class: InputClass,
    /// Benchmarks the per-workload experiments cover (`--only` narrows this
    /// from the full suite).
    pub benchmarks: Vec<BenchmarkId>,
    /// Thread counts for native (host) runs.
    pub native_threads: Vec<usize>,
    /// Core counts for simulated runs.
    pub sim_threads: Vec<usize>,
    /// Core count used for breakdown/ablation snapshots.
    pub snapshot_cores: usize,
    /// Calibrated-model cache shared across experiments (see [`ModelCache`]).
    pub models: ModelCache,
    /// Machine override for simulation-driven experiments (`--machine`):
    /// a preset or a calibrated host profile resolved via
    /// [`MachineParams::resolve`]. `None` keeps each experiment's default
    /// preset (e.g. `F2` on epyc-like, `F3` on icelake-like).
    pub machine: Option<MachineParams>,
}

impl Default for ExperimentCtx {
    fn default() -> ExperimentCtx {
        ExperimentCtx {
            class: InputClass::Test,
            benchmarks: BenchmarkId::all(),
            native_threads: vec![1, 2, 4],
            sim_threads: vec![1, 2, 4, 8, 16, 32, 64],
            snapshot_cores: 32,
            models: ModelCache::default(),
            machine: None,
        }
    }
}

impl ExperimentCtx {
    /// The calibrated workload model for `b` at this ctx's input class,
    /// running the kernel natively only on first request.
    pub fn work_model(&self, b: BenchmarkId) -> WorkModel {
        self.models.get(b, self.class)
    }

    /// The benchmarks this ctx's per-workload experiments iterate, in suite
    /// order.
    pub fn benchmarks(&self) -> impl Iterator<Item = BenchmarkId> + '_ {
        self.benchmarks.iter().copied()
    }
}

/// A mutant verdict with, for catalogs that also run the SC-only control
/// search, whether that search missed the bug.
type CheckedMutant = (splash4_check::MutantReport, Option<bool>);

fn sc_blind(muts: Vec<splash4_check::MutantReport>) -> Vec<CheckedMutant> {
    muts.into_iter().map(|m| (m, None)).collect()
}

type Runner = fn(&'static str, &ExperimentCtx) -> Report;

/// Every experiment in presentation order, with the function that regenerates
/// it (handed its id): the id list, the dispatcher and `--list` derive from it.
const EXPERIMENTS: [(&str, Runner); 18] = [
    ("T1-inputs", t1_inputs),
    ("T2-changes", t2_changes),
    ("T3-syncops", t3_syncops),
    ("F1-native", f1_native),
    ("F2-sim-epyc", |id, ctx| {
        sim_normalized(id, MachineParams::epyc_like, ctx)
    }),
    ("F3-sim-icelake", |id, ctx| {
        sim_normalized(id, MachineParams::icelake_like, ctx)
    }),
    ("F4-scalability", f4_scalability),
    ("F5-sync-breakdown", f5_breakdown),
    ("F6-ablation", f6_ablation),
    ("F8-trace-replay", f8_trace_replay),
    ("F9-combining", f9_combining),
    ("S1-sensitivity", s1_sensitivity),
    // `V1-check` (extension): deterministic model checking of every
    // lock-free construct the suite's macro layer ships. Each construct
    // class runs a closed scenario under the `splash4-check` cooperative
    // scheduler: bounded-preemption DFS plus seeded PCT random schedules,
    // with happens-before race detection, deadlock detection, invariants,
    // and linearizability against a sequential spec. The second table
    // re-runs the checker against the mutant catalog (weakened ordering,
    // missed sense flip, lost-update window) and reports the minimized
    // counterexample schedule that exposes each injected bug.
    ("V1-check", |id, _| {
        check_report(
            id,
            "Model checking the lock-free constructs",
            "construct",
            splash4_check::check_suite,
            |b| sc_blind(splash4_check::check_mutants(b)),
        )
    }),
    // `V2-kernel-check` (extension): the model checker applied to
    // kernel-shaped compositions of shipped code. Where `V1-check` verifies
    // each lock-free construct in isolation, this experiment explores two
    // constructs *as the kernels compose them*: one bucket of `cmap`'s own
    // `LockFreeMap` (remove ‖ insert ‖ lookup against a sequential map) and
    // a stage ring of `stream`. The mutation table seeds kernel-shaped bugs
    // — a blind mark, an unpublished key or slot — that the checker must
    // catch with a minimized counterexample schedule.
    ("V2-kernel-check", |id, _| {
        check_report(
            id,
            "Model checking real kernel bodies",
            "scenario",
            splash4_check::check_kernels,
            |b| sc_blind(splash4_check::check_kernel_mutants(b)),
        )
    }),
    // `C1-combining` (extension): model checking the flat-combining core and
    // every construct that plugs into it. The shipped combined reducer cells
    // (u64 and f64), `GETSUB` cursor, and barrier arrival run under the
    // checker — the `V1-check` scenario bodies built with
    // `SyncMode::Combining` — with the protocol's record arguments and
    // results being what they are in the core, *plain data* ordered only by
    // the publish→scan and complete→wait edges, so any weakening of those
    // edges surfaces as a vector-clock data race rather than a silently
    // narrowed search. The mutant table seeds the flat-combining protocol
    // bugs — a lost publication record, a relaxed scan, a dropped publish,
    // and a stale result handoff — each of which must fall with a
    // replayable counterexample schedule.
    ("C1-combining", |id, _| {
        check_report(
            id,
            "Model checking the flat-combining sync generation",
            "scenario",
            splash4_check::check_combining,
            |b| sc_blind(splash4_check::check_combining_mutants(b)),
        )
    }),
    // `R1-reclaim` (extension): model checking the reclamation layer and the
    // dynamic task pools built on it. The shipped Michael-Scott queue and
    // elimination-backoff stack run over the shipped epoch and hazard-pointer
    // reclaimers, all instantiated over the checker's model, against
    // FIFO/LIFO linearizability specs; the nodes they free go through the
    // model's `free`, which quarantines them, so a premature free is a
    // use-after-free (or a data race with the reader's last access) at the
    // operation that would have read freed memory, and a node still pending
    // after the quiescent flush fails the leak-at-quiescence finale. The
    // mutant table breaks one named word per bug class — dropped epoch
    // announcement, dropped epoch advance, torn tail-link CAS, torn
    // exchange-slot CAS, dropped hazard publication — and each must fall
    // with a replayable counterexample schedule.
    ("R1-reclaim", |id, _| {
        check_report(
            id,
            "Model checking memory reclamation and dynamic task pools",
            "scenario",
            splash4_check::check_reclaim,
            |b| sc_blind(splash4_check::check_reclaim_mutants(b)),
        )
    }),
    // `W1-weakmem` (extension): weak-memory value exploration in the
    // checker. The V1/V2/C1/R1 suites explore *interleavings* under
    // sequentially consistent values, so an ordering bug only surfaces
    // through the data race it causes on plain data. This experiment runs
    // the checker's weak-memory mode: every atomic keeps its store history
    // and non-`SeqCst` loads branch over the stale records the C11 orderings
    // admit. The first table verifies that the shipped flag, barrier,
    // reclaimers (under a task pool) and `cmap` map pass under weak memory
    // with the shipped Splash-4 annotations; the mutant table overrides one
    // ordering of one table each (relaxed flag waits, `SeqCst → Acquire`
    // store-buffering windows that end in a use-after-free, a relaxed
    // barrier spin) and reports, per mutant, both the weak-memory
    // detection *and* whether SC-only exploration missed the bug —
    // `sc-missed = yes` on every row is the point: these are exactly the
    // bugs interleaving-only search cannot find.
    ("W1-weakmem", |id, _| {
        check_report(
            id,
            "Weak-memory exploration: stale-read windows the C11 orderings admit",
            "scenario",
            splash4_check::check_weakmem,
            |b| {
                splash4_check::check_weakmem_mutants(b)
                    .into_iter()
                    .map(|w| (w.report, Some(w.sc_missed)))
                    .collect()
            },
        )
    }),
    ("D1-diversity", d1_diversity),
];

/// All known experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: [&str; 18] = {
    let mut ids = [""; 18];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

/// Dispatch an experiment by id.
///
/// # Errors
/// Returns an error message for unknown ids.
pub fn run_experiment(id: &str, ctx: &ExperimentCtx) -> Result<Report, String> {
    match EXPERIMENTS.iter().find(|(known, _)| *known == id) {
        Some(&(id, run)) => Ok(run(id, ctx)),
        None => Err(format!(
            "unknown experiment '{id}'; known: {}",
            ALL_EXPERIMENTS.join(", ")
        )),
    }
}

/// Obtain a calibrated workload model for `b` (median of three
/// single-thread lock-free runs).
///
/// Kernels calibrate their model's per-item compute to the run's measured
/// wall time, so a single sample is at the mercy of cache/allocator warmup:
/// the first run of a process can measure ~25% slower than the steady
/// state, yielding a visibly different model. Three runs with a median pick
/// reject that outlier and make repeated calibrations agree. (With
/// [`ModelCache`] each `(benchmark, class)` pays this once per process.)
pub fn work_model(b: BenchmarkId, class: InputClass) -> WorkModel {
    let run = || {
        let env = SyncEnv::new(SyncMode::LockFree, 1);
        b.run(class, &env).work
    };
    let mut models = [run(), run(), run()];
    models.sort_by_key(splash4_parmacs::WorkModel::total_cycles);
    let [_, median, _] = models;
    median
}

/// Run `b` natively with a ring recorder attached and return the kernel
/// result together with the recorded trace. `F8-trace-replay` and the
/// `benchmark/` package are its callers.
pub fn record_trace(
    b: BenchmarkId,
    class: InputClass,
    mode: SyncMode,
    threads: usize,
) -> (splash4_kernels::KernelResult, splash4_trace::Trace) {
    let recorder = Arc::new(RingRecorder::new(b.name(), threads));
    let env = SyncEnv::new(mode, threads).with_trace(recorder.clone());
    let result = b.run(class, &env);
    drop(env);
    let trace = Arc::try_unwrap(recorder)
        .expect("kernel must not retain the trace sink")
        .finish();
    (result, trace)
}

/// `T1-inputs`: the suite/workload/input table.
fn t1_inputs(id: &str, ctx: &ExperimentCtx) -> Report {
    let mut t = Table::new(vec!["benchmark", "test", "small", "native"]);
    let mut rows = Vec::new();
    for b in ctx.benchmarks() {
        let cells: Vec<String> = InputClass::ALL
            .iter()
            .map(|&c| b.input_description(c))
            .collect();
        rows.push(json!({
            "benchmark": b.name(),
            "test": cells[0], "small": cells[1], "native": cells[2],
        }));
        t.row(vec![
            b.name().to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    Report::of_table(
        id,
        "Workloads and input parameters per class",
        &t,
        json!({ "rows": rows }),
    )
}

/// `T2-changes`: per-benchmark summary of what the modernization replaces.
fn t2_changes(id: &str, ctx: &ExperimentCtx) -> Report {
    let mut t = Table::new(vec![
        "benchmark",
        "locks(S3)",
        "rmws(S4)",
        "barriers",
        "getsubs",
        "queue-ops",
        "reduces",
    ]);
    let mut rows = Vec::new();
    for b in ctx.benchmarks() {
        let lb = b
            .run(ctx.class, &SyncEnv::new(SyncMode::LockBased, 2))
            .profile;
        let lf = b
            .run(ctx.class, &SyncEnv::new(SyncMode::LockFree, 2))
            .profile;
        t.row(vec![
            b.name().to_string(),
            lb.lock_acquires.to_string(),
            lf.atomic_rmws.to_string(),
            lf.barrier_waits.to_string(),
            lf.getsub_calls.to_string(),
            lf.queue_ops.to_string(),
            lf.reduce_ops.to_string(),
        ]);
        rows.push(json!({
            "benchmark": b.name(),
            "splash3": lb, "splash4": lf,
        }));
    }
    Report::of_table(
        id,
        "Dynamic sync constructs replaced by the modernization (2 threads)",
        &t,
        json!({ "class": ctx.class.label(), "rows": rows }),
    )
}

/// `T3-syncops`: full dynamic sync-operation counts, both modes.
fn t3_syncops(id: &str, ctx: &ExperimentCtx) -> Report {
    let mut t = Table::new(vec![
        "benchmark",
        "mode",
        "locks",
        "contended",
        "rmws",
        "cas-retries",
        "barriers",
        "getsubs",
        "reduces",
        "queue-ops",
        "flag-waits",
    ]);
    let mut rows = Vec::new();
    for b in ctx.benchmarks() {
        for mode in SyncMode::ALL {
            let p = b.run(ctx.class, &SyncEnv::new(mode, 4)).profile;
            t.row(vec![
                b.name().to_string(),
                mode.label().to_string(),
                p.lock_acquires.to_string(),
                p.lock_contended.to_string(),
                p.atomic_rmws.to_string(),
                p.cas_failures.to_string(),
                p.barrier_waits.to_string(),
                p.getsub_calls.to_string(),
                p.reduce_ops.to_string(),
                p.queue_ops.to_string(),
                p.flag_waits.to_string(),
            ]);
            rows.push(json!({ "benchmark": b.name(), "mode": mode.label(), "profile": p }));
        }
    }
    Report::of_table(
        id,
        "Dynamic synchronization operations (4 threads)",
        &t,
        json!({ "class": ctx.class.label(), "rows": rows }),
    )
}

/// The benchmark × axis grid of normalized-time ratios that F1, F2/F3 and F9
/// tabulate: a `benchmark, {axis}={p}…` header, one `{ratio:.3}` cell and one
/// JSON point per grid cell (both from `cell(b, p)`), and a closing geomean
/// row. Returns the table, the per-benchmark JSON rows and the per-column
/// geomeans.
fn ratio_grid(
    ctx: &ExperimentCtx,
    axis: &str,
    points: &[usize],
    mut cell: impl FnMut(BenchmarkId, usize) -> (f64, Json),
) -> (Table, Vec<Json>, Vec<f64>) {
    let mut header = vec!["benchmark".to_string()];
    header.extend(points.iter().map(|p| format!("{axis}={p}")));
    let mut t = Table::new(header);
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut rows = Vec::new();
    for b in ctx.benchmarks() {
        let mut cells = vec![b.name().to_string()];
        let mut jpoints = Vec::new();
        for (column, &p) in columns.iter_mut().zip(points) {
            let (ratio, point) = cell(b, p);
            column.push(ratio);
            cells.push(format!("{ratio:.3}"));
            jpoints.push(point);
        }
        t.row(cells);
        rows.push(json!({ "benchmark": b.name(), "points": jpoints }));
    }
    let means: Vec<f64> = columns.iter().map(|c| geomean(c)).collect();
    let mut mean_cells = vec!["geomean".to_string()];
    mean_cells.extend(means.iter().map(|g| format!("{g:.3}")));
    t.row(mean_cells);
    (t, rows, means)
}

/// [`ratio_grid`] over the simulated core counts on `machine`: simulated
/// time under `mode` over time under `base`, each exported as
/// `<generation label>_ns` beside the ratio.
fn sim_ratio_grid(
    ctx: &ExperimentCtx,
    machine: MachineParams,
    mode: SyncMode,
    base: SyncMode,
) -> (Table, Vec<Json>, Vec<f64>) {
    let mut sim = Simulator::new(machine);
    ratio_grid(ctx, "p", &ctx.sim_threads, |b, p| {
        let work = ctx.work_model(b);
        let base_ns = sim.simulate(&work, base, p).total_ns;
        let mode_ns = sim.simulate(&work, mode, p).total_ns;
        let ratio = mode_ns as f64 / base_ns.max(1) as f64;
        let point = Json::Object(vec![
            ("cores".into(), json!(p)),
            (format!("{}_ns", base.label()), json!(base_ns)),
            (format!("{}_ns", mode.label()), json!(mode_ns)),
            ("ratio".into(), json!(ratio)),
        ]);
        (ratio, point)
    })
}

/// `F1-native`: normalized execution time on the host.
fn f1_native(id: &str, ctx: &ExperimentCtx) -> Report {
    let (t, rows, _) = ratio_grid(ctx, "t", &ctx.native_threads, |b, p| {
        let lb = b.run(ctx.class, &SyncEnv::new(SyncMode::LockBased, p));
        let lf = b.run(ctx.class, &SyncEnv::new(SyncMode::LockFree, p));
        let ratio = lf.elapsed.as_secs_f64() / lb.elapsed.as_secs_f64().max(1e-12);
        let point = json!({
            "threads": p,
            "splash3_ns": lb.elapsed_ns(),
            "splash4_ns": lf.elapsed_ns(),
            "ratio": ratio,
        });
        (ratio, point)
    });
    Report::of_table(
        id,
        format!(
            "Normalized execution time (Splash-4 / Splash-3), host runs, class={}",
            ctx.class.label()
        ),
        &t,
        json!({ "class": ctx.class.label(), "rows": rows }),
    )
}

/// `F2`/`F3`: normalized execution time on a simulated machine (`preset`
/// unless the ctx overrides it).
fn sim_normalized(id: &str, preset: fn() -> MachineParams, ctx: &ExperimentCtx) -> Report {
    let machine = ctx.machine.unwrap_or_else(preset);
    let (t, rows, means) = sim_ratio_grid(ctx, machine, SyncMode::LockFree, SyncMode::LockBased);
    let headline = means.last().copied().unwrap_or(f64::NAN);
    Report::of_table(
        id,
        format!(
            "Normalized execution time (Splash-4 / Splash-3) on {} — {} at {} cores",
            machine.name,
            pct_change(headline),
            ctx.sim_threads.last().copied().unwrap_or(0),
        ),
        &t,
        json!({
            "machine": machine.name,
            "class": ctx.class.label(),
            "rows": rows,
            "geomeans": means,
        }),
    )
}

/// `F4-scalability`: self-relative simulated speedup curves.
fn f4_scalability(id: &str, ctx: &ExperimentCtx) -> Report {
    let machine = ctx.machine.unwrap_or_else(MachineParams::epyc_like);
    let mut header = vec!["benchmark".to_string(), "suite".to_string()];
    for &p in &ctx.sim_threads {
        header.push(format!("p={p}"));
    }
    let mut t = Table::new(header);
    let mut rows = Vec::new();
    let mut sim = Simulator::new(machine);
    for b in ctx.benchmarks() {
        let work = ctx.work_model(b);
        for mode in SyncMode::ALL {
            let t1 = sim.simulate(&work, mode, 1).total_ns as f64;
            let mut cells = vec![b.name().to_string(), mode.label().to_string()];
            let mut speeds = vec![];
            for &p in &ctx.sim_threads {
                let tp = sim.simulate(&work, mode, p).total_ns as f64;
                let s = t1 / tp.max(1.0);
                speeds.push(s);
                cells.push(format!("{s:.2}"));
            }
            t.row(cells);
            rows.push(json!({ "benchmark": b.name(), "suite": mode.label(), "speedup": speeds }));
        }
    }
    Report::of_table(
        id,
        format!("Simulated self-relative speedup ({})", machine.name),
        &t,
        json!({ "machine": machine.name, "rows": rows }),
    )
}

/// `F5-sync-breakdown`: where simulated core-time goes at the snapshot core
/// count.
fn f5_breakdown(id: &str, ctx: &ExperimentCtx) -> Report {
    let machine = ctx.machine.unwrap_or_else(MachineParams::epyc_like);
    let p = ctx.snapshot_cores;
    let mut t = Table::new(vec![
        "benchmark",
        "suite",
        "compute%",
        "service%",
        "wait%",
        "sync-local%",
        "barrier%",
    ]);
    let mut rows = Vec::new();
    let mut sim = Simulator::new(machine);
    for b in ctx.benchmarks() {
        let work = ctx.work_model(b);
        for mode in SyncMode::ALL {
            let res = sim.simulate(&work, mode, p);
            let (c, s, w, l, bar) = res.fractions();
            t.row(vec![
                b.name().to_string(),
                mode.label().to_string(),
                format!("{:.1}", c * 100.0),
                format!("{:.1}", s * 100.0),
                format!("{:.1}", w * 100.0),
                format!("{:.1}", l * 100.0),
                format!("{:.1}", bar * 100.0),
            ]);
            rows.push(json!({
                "benchmark": b.name(), "suite": mode.label(),
                "compute": c, "service": s, "wait": w, "sync_local": l, "barrier": bar,
            }));
        }
    }
    Report::of_table(
        id,
        format!("Simulated time breakdown at {p} cores ({})", machine.name),
        &t,
        json!({ "machine": machine.name, "cores": p, "rows": rows }),
    )
}

/// `F6-ablation`: modernize one construct class at a time.
fn f6_ablation(id: &str, ctx: &ExperimentCtx) -> Report {
    let machine = MachineParams::epyc_like();
    let p = ctx.snapshot_cores;
    let classes = ConstructClass::ALL;
    let mut header = vec!["benchmark".to_string()];
    for c in classes {
        header.push(format!("+{}", c.label()));
    }
    header.push("full".to_string());
    let mut t = Table::new(header);
    let mut rows = Vec::new();
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); classes.len() + 1];
    let mut sim = Simulator::new(machine);
    for b in ctx.benchmarks() {
        let work = ctx.work_model(b);
        let base = sim.simulate(&work, SyncMode::LockBased, p).total_ns as f64;
        let mut cells = vec![b.name().to_string()];
        let mut jrow = vec![];
        for (i, &c) in classes.iter().enumerate() {
            let policy = SyncPolicy::uniform(SyncMode::LockBased).with(c, SyncMode::LockFree);
            let tt = sim.simulate(&work, policy, p).total_ns as f64;
            let ratio = tt / base.max(1.0);
            per_class[i].push(ratio);
            cells.push(format!("{ratio:.3}"));
            jrow.push(json!({ "class": c.label(), "ratio": ratio }));
        }
        let full = sim.simulate(&work, SyncMode::LockFree, p).total_ns as f64 / base.max(1.0);
        per_class[classes.len()].push(full);
        cells.push(format!("{full:.3}"));
        t.row(cells);
        rows.push(json!({ "benchmark": b.name(), "ablations": jrow, "full": full }));
    }
    let mut mean_cells = vec!["geomean".to_string()];
    for r in &per_class {
        mean_cells.push(format!("{:.3}", geomean(r)));
    }
    t.row(mean_cells);
    Report::of_table(
        id,
        format!(
            "Per-construct modernization: time vs Splash-3 baseline at {p} cores ({})",
            machine.name
        ),
        &t,
        json!({ "machine": machine.name, "cores": p, "rows": rows }),
    )
}

/// `F8-trace-replay` (extension): trace-driven replay vs the analytic model.
///
/// Each benchmark is run natively with the lock-free back-end and a
/// [`RingRecorder`] attached; the recorded sync-event trace is lowered to
/// simulator programs at several core counts (re-dealing the dynamically
/// scheduled work, so a 4-thread recording drives 1–64-core sweeps) under
/// both sync policies. The resulting Splash-4/Splash-3 normalized times are
/// tabulated next to the analytic model's prediction from the same run.
fn f8_trace_replay(id: &str, ctx: &ExperimentCtx) -> Report {
    /// Native thread count for the traced runs.
    const TRACE_THREADS: usize = 4;
    /// Simulated core counts for the replay sweep.
    const REPLAY_CORES: [usize; 4] = [1, 8, 32, 64];

    let machines: Vec<MachineParams> = match ctx.machine {
        Some(m) => vec![m],
        None => vec![MachineParams::epyc_like(), MachineParams::icelake_like()],
    };
    let mut header = vec!["benchmark".to_string(), "machine".to_string()];
    for &p in &REPLAY_CORES {
        header.push(format!("trace p={p}"));
        header.push(format!("model p={p}"));
    }
    let mut t = Table::new(header);
    let mut rows = Vec::new();
    // Per machine, per core count: trace-driven and analytic ratios.
    let mut trace_ratios = vec![vec![Vec::new(); REPLAY_CORES.len()]; machines.len()];
    let mut model_ratios = vec![vec![Vec::new(); REPLAY_CORES.len()]; machines.len()];
    // One memoizing simulator per machine preset, plus an engine whose
    // scratch is reused for every lowered trace program.
    let mut sims: Vec<Simulator> = machines.iter().map(|&m| Simulator::new(m)).collect();
    let mut eng = engine::Engine::new();

    for b in ctx.benchmarks() {
        let (result, trace) = record_trace(b, ctx.class, SyncMode::LockFree, TRACE_THREADS);
        let summary = TraceSummary::from_trace(&trace);
        let mut jpoints = Vec::new();
        for (mi, machine) in machines.iter().enumerate() {
            let mut cells = vec![b.name().to_string(), machine.name.to_string()];
            for (pi, &p) in REPLAY_CORES.iter().enumerate() {
                let mut run = |mode: SyncMode| {
                    let prog = lower(&trace, SyncPolicy::uniform(mode), p, machine);
                    eng.run(&prog, machine).total_ns
                };
                let (s3, s4) = (run(SyncMode::LockBased), run(SyncMode::LockFree));
                let tr = s4 as f64 / s3.max(1) as f64;
                let a3 = sims[mi]
                    .simulate(&result.work, SyncMode::LockBased, p)
                    .total_ns;
                let a4 = sims[mi]
                    .simulate(&result.work, SyncMode::LockFree, p)
                    .total_ns;
                let mr = a4 as f64 / a3.max(1) as f64;
                trace_ratios[mi][pi].push(tr);
                model_ratios[mi][pi].push(mr);
                cells.push(format!("{tr:.3}"));
                cells.push(format!("{mr:.3}"));
                jpoints.push(json!({
                    "machine": machine.name,
                    "cores": p,
                    "trace_splash3_ns": s3,
                    "trace_splash4_ns": s4,
                    "trace_ratio": tr,
                    "model_ratio": mr,
                }));
            }
            t.row(cells);
        }
        rows.push(json!({
            "benchmark": b.name(),
            "trace": summary.to_json(),
            "points": jpoints,
        }));
    }

    let mut jmeans = Vec::new();
    for (mi, machine) in machines.iter().enumerate() {
        let mut cells = vec!["geomean".to_string(), machine.name.to_string()];
        let mut tg = Vec::new();
        let mut mg = Vec::new();
        for pi in 0..REPLAY_CORES.len() {
            let (gt, gm) = (
                geomean(&trace_ratios[mi][pi]),
                geomean(&model_ratios[mi][pi]),
            );
            tg.push(gt);
            mg.push(gm);
            cells.push(format!("{gt:.3}"));
            cells.push(format!("{gm:.3}"));
        }
        t.row(cells);
        jmeans.push(json!({
            "machine": machine.name,
            "cores": REPLAY_CORES.to_vec(),
            "trace": tg,
            "model": mg,
        }));
    }

    Report::of_table(
        id,
        format!(
            "Trace-driven replay vs analytic model ({TRACE_THREADS}-thread native traces, class={})",
            ctx.class.label()
        ),
        &t,
        json!({
            "class": ctx.class.label(),
            "trace_threads": TRACE_THREADS,
            "cores": REPLAY_CORES.to_vec(),
            "rows": rows,
            "geomeans": jmeans,
        }),
    )
}

/// `F9-combining` (extension): the flat-combining crossover sweep.
///
/// The third sync generation (`splash4x`) funnels each contended update
/// through a combiner instead of bouncing the line between `fetch_add`
/// callers, so a combined op costs one record handoff plus an amortized
/// share of the combiner's streaming pass — cheaper than a serialized line
/// transfer once the drain batch is wide, but *more* expensive at low
/// thread counts where the batch degenerates to the extra publish round
/// trip. This sweep simulates all benchmarks under `splash4x` and `splash4`
/// across the core grid and tabulates the normalized time
/// (combining / lock-free, lower favors combining): the interesting output
/// is the crossover core count where the geomean dips below parity and the
/// speedup the batching buys at full scale.
fn f9_combining(id: &str, ctx: &ExperimentCtx) -> Report {
    let machine = MachineParams::epyc_like();
    let (t, rows, means) = sim_ratio_grid(ctx, machine, SyncMode::Combining, SyncMode::LockFree);
    // Speedup convention for the headline and the gate: lock-free time over
    // combining time, > 1.0 means combining wins.
    let speedups: Vec<f64> = means.iter().map(|&g| 1.0 / g.max(1e-12)).collect();
    let headline = speedups.last().copied().unwrap_or(f64::NAN);
    let crossover = ctx
        .sim_threads
        .iter()
        .zip(&means)
        .find(|&(_, &g)| g < 1.0)
        .map(|(&p, _)| p);
    Report::of_table(
        id,
        format!(
            "Flat combining vs lock-free on {} — {headline:.2}x at {} cores, crossover at {}",
            machine.name,
            ctx.sim_threads.last().copied().unwrap_or(0),
            crossover.map_or_else(|| "none".to_string(), |p| format!("p={p}")),
        ),
        &t,
        json!({
            "machine": machine.name,
            "class": ctx.class.label(),
            "cores": ctx.sim_threads.clone(),
            "rows": rows,
            "geomeans": means,
            "combining_vs_lockfree": speedups,
            "crossover_cores": crossover,
        }),
    )
}

/// `S1-sensitivity` (extension): robustness of the headline result to the
/// two calibrated machine parameters.
///
/// The convoy fraction and condvar wake cost were fitted once against the
/// paper's two headline numbers (`DESIGN.md` §8). This experiment halves and
/// doubles each and reports the 64-core suite geomean for every combination:
/// the conclusion ("Splash-4 wins substantially at scale") should survive
/// the entire grid.
fn s1_sensitivity(id: &str, ctx: &ExperimentCtx) -> Report {
    let base = MachineParams::epyc_like();
    let cores = *ctx.sim_threads.iter().max().unwrap_or(&64);
    let works: Vec<WorkModel> = ctx.benchmarks().map(|b| ctx.work_model(b)).collect();
    let scales = [0.5f64, 1.0, 2.0];
    let mut t = Table::new(vec!["convoy×", "condvar×", "geomean ratio", "reduction"]);
    let mut rows = Vec::new();
    for &cs in &scales {
        for &ws in &scales {
            let mut m = base;
            m.convoy_fraction = base.convoy_fraction * cs;
            m.condvar_wake_ns = (base.condvar_wake_ns as f64 * ws).round() as u64;
            // The program cache is machine-independent but the simulator is
            // machine-bound: one per perturbed grid point.
            let mut sim = Simulator::new(m);
            let ratios: Vec<f64> = works
                .iter()
                .map(|w| {
                    let lb = sim.simulate(w, SyncMode::LockBased, cores).total_ns as f64;
                    let lf = sim.simulate(w, SyncMode::LockFree, cores).total_ns as f64;
                    lf / lb.max(1.0)
                })
                .collect();
            let g = geomean(&ratios);
            t.row(vec![
                format!("{cs}"),
                format!("{ws}"),
                format!("{g:.3}"),
                pct_change(g),
            ]);
            rows.push(json!({ "convoy_scale": cs, "condvar_scale": ws, "geomean": g }));
        }
    }
    Report::of_table(
        id,
        format!(
            "Headline sensitivity to calibrated parameters ({} cores, {})",
            cores, base.name
        ),
        &t,
        json!({ "cores": cores, "rows": rows }),
    )
}

/// The sync-op mix dimensions of the `D1-diversity` vectors, in order.
pub const D1_MIX_DIMS: [&str; 8] = [
    "locks", "rmws", "barriers", "getsubs", "reduces", "flags", "queues", "reclaim",
];

/// One workload's `D1-diversity` characterization: its normalized sync-op
/// mix, read from the [`SyncProfile`](splash4_parmacs::SyncProfile)s of two
/// untraced runs.
#[derive(Debug, Clone)]
pub struct DiversityPoint {
    /// Workload this point characterizes.
    pub benchmark: BenchmarkId,
    /// Normalized sync-op mix over [`D1_MIX_DIMS`] (sums to 1 unless the
    /// workload performs no sync ops at all).
    pub mix: [f64; 8],
}

impl DiversityPoint {
    /// Characterize `b`: one lock-free run plus one lock-based run (the lock
    /// dimension only exists under Splash-3). Every dimension is a logical
    /// count, so no wait time or failed CAS enters it: RMWs without the CAS
    /// retries, flags by their `set`s (`flag_waits` counts only the
    /// timing-dependent slow path). Only work that the interleaving itself
    /// deals out (task-queue pops, reclamation scans) moves run to run.
    pub fn measure(b: BenchmarkId, class: InputClass, threads: usize) -> DiversityPoint {
        let run = |mode| b.run(class, &SyncEnv::new(mode, threads)).profile;
        let (lf, lb) = (run(SyncMode::LockFree), run(SyncMode::LockBased));
        let raw = [
            lb.lock_acquires,
            lf.atomic_rmws - lf.cas_failures,
            lf.barrier_waits,
            lf.getsub_calls,
            lf.reduce_ops,
            lf.flag_sets,
            lf.queue_ops,
            lf.reclaim_retires + lf.reclaim_scans + lf.reclaim_frees,
        ]
        .map(|n| n as f64);
        let total: f64 = raw.iter().sum();
        DiversityPoint {
            benchmark: b,
            mix: raw.map(|r| if total > 0.0 { r / total } else { 0.0 }),
        }
    }

    /// Euclidean distance between the mix vectors.
    pub fn distance(&self, other: &DiversityPoint) -> f64 {
        let sq: f64 = self
            .mix
            .iter()
            .zip(other.mix)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        sq.sqrt()
    }
}

/// `D1-diversity`: Renaissance-style redundancy analysis — per-workload
/// sync-op mix vectors, reduced to a pairwise distance matrix with
/// nearest-neighbor summaries. The suite-extension claim: `cmap` and
/// `stream` occupy mix regions none of the original kernels do, so each
/// sits farther from its nearest original than any original sits from its
/// own nearest sibling.
fn d1_diversity(id: &str, ctx: &ExperimentCtx) -> Report {
    let threads = ctx.native_threads.iter().copied().max().unwrap_or(2);
    let points: Vec<DiversityPoint> = ctx
        .benchmarks()
        .map(|b| DiversityPoint::measure(b, ctx.class, threads))
        .collect();

    let n = points.len();
    let mut matrix = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in 0..n {
            matrix[i][j] = points[i].distance(&points[j]);
        }
    }
    let nearest = |i: usize| -> (usize, f64) {
        (0..n)
            .filter(|&j| j != i)
            .map(|j| (j, matrix[i][j]))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least two workloads")
    };

    let mut cols = vec!["benchmark"];
    cols.extend(D1_MIX_DIMS);
    cols.extend(["nearest", "dist"]);
    let mut t = Table::new(cols);
    let mut jrows = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let (nj, nd) = nearest(i);
        let mut row = vec![p.benchmark.name().to_string()];
        row.extend(p.mix.iter().map(|m| format!("{m:.3}")));
        row.push(points[nj].benchmark.name().to_string());
        row.push(format!("{nd:.3}"));
        t.row(row);
        jrows.push(json!({
            "benchmark": p.benchmark.name(),
            "mix": p.mix.to_vec(),
            "nearest": points[nj].benchmark.name(),
            "nearest_distance": nd,
            "distances": matrix[i].clone(),
        }));
    }

    let mut mt = Table::new(
        std::iter::once("×")
            .chain(points.iter().map(|p| p.benchmark.name()))
            .collect::<Vec<_>>(),
    );
    for (i, p) in points.iter().enumerate() {
        let mut row = vec![p.benchmark.name().to_string()];
        row.extend(matrix[i].iter().map(|d| format!("{d:.2}")));
        mt.row(row);
    }

    let text = format!(
        "{}\npairwise distance matrix (sync-op mix):\n{}",
        t.render(),
        mt.render()
    );
    Report {
        id: id.into(),
        title: format!(
            "Workload diversity: sync-op mix distances ({} workloads, {} class, {} threads)",
            n,
            ctx.class.label(),
            threads
        ),
        text,
        json: json!({
            "dims": D1_MIX_DIMS.iter().map(|d| d.to_string()).collect::<Vec<String>>(),
            "threads": threads as u64,
            "class": ctx.class.label(),
            "rows": jrows,
        }),
    }
}

/// Run one checker experiment and render its construct and mutant tables.
/// A catalog that reports `sc-missed` is a weak-memory run: its mutant table
/// gains that column and its header the stale-read budget.
fn check_report(
    id: &str,
    title: &str,
    per: &str,
    suite: fn(&splash4_check::CheckBudget) -> Vec<splash4_check::ConstructReport>,
    mutants: fn(&splash4_check::CheckBudget) -> Vec<CheckedMutant>,
) -> Report {
    let budget = splash4_check::CheckBudget::default();
    let rows = suite(&budget);
    let muts = mutants(&budget);
    let weak = muts.iter().any(|(_, sc_missed)| sc_missed.is_some());
    let yes_no = |b: bool| if b { "yes" } else { "NO" }.to_string();

    let mut t = Table::new(vec![
        "construct",
        "property",
        "schedules",
        "executions",
        "verdict",
    ]);
    let mut jrows = Vec::new();
    for r in &rows {
        t.row(vec![
            r.construct.to_string(),
            r.property.to_string(),
            r.schedules.to_string(),
            r.executions.to_string(),
            format!("{}", r.verdict),
        ]);
        jrows.push(json!({
            "construct": r.construct,
            "property": r.property,
            "schedules": r.schedules as u64,
            "executions": r.executions as u64,
            "verdict": format!("{}", r.verdict),
            "counterexample": r.counterexample.clone(),
        }));
    }

    let mut header = vec!["mutant", "schedules", "detected", "counterexample"];
    if weak {
        header.insert(3, "sc-missed");
    }
    let mut mt = Table::new(header);
    let mut jmuts = Vec::new();
    for (m, sc_missed) in &muts {
        let mut cells = vec![
            m.name.to_string(),
            m.schedules.to_string(),
            yes_no(m.detected),
            m.counterexample.clone(),
        ];
        let mut j = json!({
            "mutant": m.name,
            "description": m.description,
            "schedules": m.schedules as u64,
            "executions": m.executions as u64,
            "detected": m.detected,
            "counterexample": m.counterexample.clone(),
        });
        if let (Some(sc_missed), Json::Object(fields)) = (*sc_missed, &mut j) {
            cells.insert(3, yes_no(sc_missed));
            fields.insert(5, ("sc_missed".to_string(), Json::Bool(sc_missed)));
        }
        mt.row(cells);
        jmuts.push(j);
    }

    let (stale_title, mutants_heading) = if weak {
        (
            format!("stale budget {}, ", splash4_check::WEAK_STALE_READS),
            "ordering mutants (caught only by weak-memory value exploration)",
        )
    } else {
        (
            String::new(),
            "mutation tests (injected bugs the checker must catch)",
        )
    };
    let mut j = json!({
        "min_schedules": budget.min_schedules as u64,
        "seed": budget.seed,
        "constructs": jrows,
        "mutants": jmuts,
    });
    if let (true, Json::Object(fields)) = (weak, &mut j) {
        let stale = json!(splash4_check::WEAK_STALE_READS as u64);
        fields.insert(1, ("stale_reads".to_string(), stale));
    }
    Report {
        id: id.into(),
        title: format!(
            "{title} ({} schedules/{per} minimum, {stale_title}seed {:#x})",
            budget.min_schedules, budget.seed
        ),
        text: format!("{}\n{mutants_heading}:\n{}", t.render(), mt.render()),
        json: j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> ExperimentCtx {
        ExperimentCtx {
            class: InputClass::Test,
            native_threads: vec![1, 2],
            sim_threads: vec![1, 8, 64],
            snapshot_cores: 16,
            ..ExperimentCtx::default()
        }
    }

    #[test]
    fn model_cache_runs_each_kernel_once_per_class() {
        let ctx = quick_ctx();
        let b = BenchmarkId::all()[0];
        let first = ctx.work_model(b);
        assert_eq!(ctx.models.len(), 1);
        let second = ctx.work_model(b);
        assert_eq!(ctx.models.len(), 1, "second lookup must hit the cache");
        assert_eq!(first, second, "cached model must be returned verbatim");
        // A cloned ctx shares the same cache.
        let cloned = ctx.clone();
        let _ = cloned.work_model(b);
        assert_eq!(ctx.models.len(), 1);
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        assert!(run_experiment("F9-nope", &quick_ctx()).is_err());
    }

    #[test]
    fn experiment_ids_keep_their_presentation_order() {
        // `--list` and the out-of-workspace benchmark read this order.
        assert_eq!(
            ALL_EXPERIMENTS,
            [
                "T1-inputs",
                "T2-changes",
                "T3-syncops",
                "F1-native",
                "F2-sim-epyc",
                "F3-sim-icelake",
                "F4-scalability",
                "F5-sync-breakdown",
                "F6-ablation",
                "F8-trace-replay",
                "F9-combining",
                "S1-sensitivity",
                "V1-check",
                "V2-kernel-check",
                "C1-combining",
                "R1-reclaim",
                "W1-weakmem",
                "D1-diversity",
            ]
        );
    }

    #[test]
    fn t1_lists_all_benchmarks() {
        let r = run_experiment("T1-inputs", &quick_ctx()).unwrap();
        for b in BenchmarkId::all() {
            assert!(r.text.contains(b.name()), "missing {b}");
        }
    }

    #[test]
    fn d1_new_families_are_nearest_neighbor_distinct() {
        let r = run_experiment("D1-diversity", &quick_ctx()).unwrap();
        let rows = r.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), BenchmarkId::all().len());
        let name_of = |row: &splash4_parmacs::Json| row["benchmark"].as_str().unwrap().to_string();
        // The suite's redundancy scale is set by the known near-duplicate
        // original pairs (ocean/ocean-noncont, water-nsquared/water-spatial,
        // lu/lu-noncont): their pairwise distances must be the small ones.
        let dist = |a: &str, b: &str| -> f64 {
            let i = rows.iter().position(|r| name_of(r) == a).unwrap();
            rows[i]["distances"].as_array().unwrap()
                [rows.iter().position(|r| name_of(r) == b).unwrap()]
            .as_f64()
            .unwrap()
        };
        let redundancy_scale = [
            dist("ocean", "ocean-noncont"),
            dist("water-nsquared", "water-spatial"),
            dist("lu", "lu-noncont"),
        ]
        .into_iter()
        .fold(0.0f64, f64::max);
        // The new families must sit outside the redundancy scale relative
        // to EVERY original kernel, not just on average: their minimum
        // distance to any original exceeds the scale (with margin).
        for name in ["cmap", "stream"] {
            let row = rows.iter().find(|r| name_of(r) == name).unwrap();
            let dists = row["distances"].as_array().unwrap();
            let min_to_original = rows
                .iter()
                .enumerate()
                .filter(|(_, other)| {
                    let n = name_of(other);
                    n != "cmap" && n != "stream"
                })
                .map(|(j, _)| dists[j].as_f64().unwrap())
                .fold(f64::INFINITY, f64::min);
            assert!(
                min_to_original > redundancy_scale.max(0.06) * 1.5,
                "{name} clusters with an original kernel: min distance \
                 {min_to_original:.3} vs redundancy scale {redundancy_scale:.3}"
            );
            assert!(
                row["nearest_distance"].as_f64().unwrap() > 0.0,
                "{name} has a zero-distance twin"
            );
        }
    }

    /// D1's mix is made of logical counts only, so it is the same in every
    /// run: no wait time, contention or timing enters it. The dynamically
    /// dealt kernels keep their queue dimension fixed too (an empty pop
    /// counts nothing; radiosity's task count does not depend on the
    /// schedule), though their lock, RMW and reclamation dimensions still
    /// count the schedule's empty polls, help CASes and scans.
    #[test]
    fn d1_mix_is_identical_run_to_run() {
        for b in [BenchmarkId::Lu, BenchmarkId::Ocean] {
            let a = DiversityPoint::measure(b, InputClass::Test, 2);
            let c = DiversityPoint::measure(b, InputClass::Test, 2);
            assert_eq!(a.mix.map(f64::to_bits), c.mix.map(f64::to_bits), "{b}");
        }
        let dynamic = [
            BenchmarkId::Cholesky,
            BenchmarkId::Stream,
            BenchmarkId::Radiosity,
        ];
        for b in dynamic {
            for mode in [SyncMode::LockFree, SyncMode::LockBased] {
                let ops = || {
                    b.run(InputClass::Test, &SyncEnv::new(mode, 2))
                        .profile
                        .queue_ops
                };
                assert_eq!(ops(), ops(), "{b} {mode}");
            }
        }
    }

    #[test]
    fn sim_experiment_shows_splash4_winning_at_scale() {
        let r = run_experiment("F2-sim-epyc", &quick_ctx()).unwrap();
        let means = r.json["geomeans"].as_array().unwrap();
        let at_1 = means[0].as_f64().unwrap();
        let at_64 = means[2].as_f64().unwrap();
        assert!(
            (0.85..=1.1).contains(&at_1),
            "single core should be near parity, got {at_1}"
        );
        assert!(
            at_64 < 0.8,
            "Splash-4 must win clearly at 64 cores, got {at_64}"
        );
        assert!(at_64 < at_1, "gap should widen with cores");
    }

    #[test]
    fn sensitivity_grid_never_flips_the_conclusion() {
        let r = run_experiment("S1-sensitivity", &quick_ctx()).unwrap();
        for row in r.json["rows"].as_array().unwrap() {
            let g = row["geomean"].as_f64().unwrap();
            assert!(
                g < 0.85,
                "headline must survive parameter scaling, got {g} at {row}"
            );
        }
    }

    #[test]
    fn trace_replay_wins_at_scale_on_both_machines() {
        let r = run_experiment("F8-trace-replay", &quick_ctx()).unwrap();
        let means = r.json["geomeans"].as_array().unwrap();
        assert_eq!(means.len(), 2, "one geomean row per machine preset");
        for g in means {
            let trace = g["trace"].as_array().unwrap();
            let at_64 = trace.last().unwrap().as_f64().unwrap();
            assert!(
                at_64 < 1.0,
                "trace-driven Splash-4/Splash-3 must beat parity at 64 cores on {}, got {at_64}",
                g["machine"]
            );
        }
    }

    #[test]
    fn v1_check_verifies_every_construct_and_catches_every_mutant() {
        let r = run_experiment("V1-check", &quick_ctx()).unwrap();
        let constructs = r.json["constructs"].as_array().unwrap();
        assert!(constructs.len() >= 7, "expected every construct class");
        for row in constructs {
            assert_eq!(
                row["verdict"].as_str().unwrap(),
                "pass",
                "construct failed: {row}"
            );
            assert!(
                row["schedules"].as_f64().unwrap() >= 1000.0,
                "too few schedules: {row}"
            );
        }
        for m in r.json["mutants"].as_array().unwrap() {
            assert_eq!(m["detected"].as_bool(), Some(true), "mutant escaped: {m}");
            assert_ne!(m["counterexample"].as_str(), Some("-"), "no schedule: {m}");
        }
    }

    #[test]
    fn v2_kernel_check_explores_real_kernel_bodies() {
        let r = run_experiment("V2-kernel-check", &quick_ctx()).unwrap();
        let constructs = r.json["constructs"].as_array().unwrap();
        assert!(constructs.len() >= 2, "expected at least two kernel bodies");
        for row in constructs {
            assert_eq!(
                row["verdict"].as_str().unwrap(),
                "pass",
                "kernel scenario failed: {row}"
            );
            assert!(
                row["schedules"].as_f64().unwrap() >= 1000.0,
                "too few schedules: {row}"
            );
        }
        for m in r.json["mutants"].as_array().unwrap() {
            assert_eq!(m["detected"].as_bool(), Some(true), "mutant escaped: {m}");
            assert_ne!(m["counterexample"].as_str(), Some("-"), "no schedule: {m}");
        }
    }

    #[test]
    fn machine_override_flows_into_sim_experiments() {
        let mut ctx = quick_ctx();
        ctx.machine = Some(MachineParams::icelake_like());
        ctx.benchmarks = BenchmarkId::all()[..2].to_vec();
        let r = run_experiment("F2-sim-epyc", &ctx).unwrap();
        assert_eq!(
            r.json["machine"].as_str(),
            Some("icelake-gem5-like"),
            "F2 must simulate the overridden machine"
        );
        let f8 = run_experiment("F8-trace-replay", &ctx).unwrap();
        assert!(
            !f8.text.contains("epyc-7002-like"),
            "F8 must replay only the overridden machine"
        );
    }

    #[test]
    fn w1_weakmem_catches_ordering_mutants_sc_misses() {
        let r = run_experiment("W1-weakmem", &quick_ctx()).unwrap();
        let constructs = r.json["constructs"].as_array().unwrap();
        assert_eq!(constructs.len(), 5, "every weak-memory scenario");
        for row in constructs {
            assert_eq!(
                row["verdict"].as_str().unwrap(),
                "pass",
                "shipped orderings failed under weak memory: {row}"
            );
        }
        let muts = r.json["mutants"].as_array().unwrap();
        assert_eq!(muts.len(), 7, "the full ordering-mutant catalog");
        for m in muts {
            assert_eq!(m["detected"].as_bool(), Some(true), "mutant escaped: {m}");
            assert_eq!(
                m["sc_missed"].as_bool(),
                Some(true),
                "SC found a weak-only bug — scenario not SC-invisible: {m}"
            );
            assert_ne!(m["counterexample"].as_str(), Some("-"), "no schedule: {m}");
        }
        assert!(r.text.contains("sc-missed"), "table carries the SC column");
    }

    #[test]
    fn f9_combining_beats_lockfree_at_scale_but_not_at_low_counts() {
        let r = run_experiment("F9-combining", &quick_ctx()).unwrap();
        let means = r.json["geomeans"].as_array().unwrap();
        let speedups = r.json["combining_vs_lockfree"].as_array().unwrap();
        assert_eq!(means.len(), 3);
        let at_1 = means[0].as_f64().unwrap();
        let at_64 = means[2].as_f64().unwrap();
        assert!(
            (0.9..=1.1).contains(&at_1),
            "no contention at one core: combining should be near parity, got {at_1}"
        );
        assert!(
            at_64 < 1.0,
            "combining must beat raw fetch_add at 64 cores, got {at_64}"
        );
        assert!(
            speedups[2].as_f64().unwrap() > 1.0,
            "combining_vs_lockfree speedup must exceed 1.0 at the top core count"
        );
        assert!(
            !r.json["crossover_cores"].is_null(),
            "the sweep must find a crossover core count"
        );
    }

    #[test]
    fn c1_combining_verifies_every_port_and_catches_every_mutant() {
        let r = run_experiment("C1-combining", &quick_ctx()).unwrap();
        let constructs = r.json["constructs"].as_array().unwrap();
        assert_eq!(constructs.len(), 4, "every combining-ported construct");
        for row in constructs {
            assert_eq!(
                row["verdict"].as_str().unwrap(),
                "pass",
                "combining scenario failed: {row}"
            );
            assert!(
                row["schedules"].as_f64().unwrap() >= 1000.0,
                "too few schedules: {row}"
            );
        }
        let muts = r.json["mutants"].as_array().unwrap();
        assert_eq!(muts.len(), 4, "the full combining mutant catalog");
        for m in muts {
            assert_eq!(m["detected"].as_bool(), Some(true), "mutant escaped: {m}");
            assert_ne!(m["counterexample"].as_str(), Some("-"), "no schedule: {m}");
        }
    }

    #[test]
    fn r1_reclaim_verifies_pools_and_catches_reclamation_mutants() {
        let r = run_experiment("R1-reclaim", &quick_ctx()).unwrap();
        let constructs = r.json["constructs"].as_array().unwrap();
        assert_eq!(
            constructs.len(),
            4,
            "two pools and two reclamation protocols"
        );
        for row in constructs {
            assert_eq!(
                row["verdict"].as_str().unwrap(),
                "pass",
                "reclaim scenario failed: {row}"
            );
            assert!(
                row["schedules"].as_f64().unwrap() >= 1000.0,
                "too few schedules: {row}"
            );
        }
        let muts = r.json["mutants"].as_array().unwrap();
        assert_eq!(muts.len(), 5, "the full reclamation mutant catalog");
        for m in muts {
            assert_eq!(m["detected"].as_bool(), Some(true), "mutant escaped: {m}");
            assert_ne!(m["counterexample"].as_str(), Some("-"), "no schedule: {m}");
        }
    }

    #[test]
    fn experiments_honor_the_benchmark_filter() {
        let ctx = ExperimentCtx {
            benchmarks: vec![BenchmarkId::Fft, BenchmarkId::Radix],
            ..quick_ctx()
        };
        let r = run_experiment("T1-inputs", &ctx).unwrap();
        assert!(r.text.contains("fft") && r.text.contains("radix"));
        assert!(
            !r.text.contains("barnes"),
            "filtered workload leaked:\n{}",
            r.text
        );
        assert_eq!(r.json["rows"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn epyc_gap_exceeds_icelake_gap() {
        // Paper headline: −52% on EPYC vs −34% on Ice Lake at 64 threads.
        let ctx = quick_ctx();
        let epyc = run_experiment("F2-sim-epyc", &ctx).unwrap();
        let ice = run_experiment("F3-sim-icelake", &ctx).unwrap();
        let e = epyc.json["geomeans"].as_array().unwrap()[2]
            .as_f64()
            .unwrap();
        let i = ice.json["geomeans"].as_array().unwrap()[2]
            .as_f64()
            .unwrap();
        assert!(
            e < i,
            "EPYC-like preset should show the larger Splash-4 win: {e} vs {i}"
        );
    }
}
