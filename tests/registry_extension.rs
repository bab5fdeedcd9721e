//! Acceptance test for the extensible registry (DESIGN.md §12): a 17th,
//! out-of-tree workload registered at runtime with one [`workload::register`]
//! call is picked up by every downstream layer — the harness registry
//! handle, the report tables, the timing simulator, check-scale validation,
//! and serve request dispatch — with no edits to any of those layers. (The
//! trace layer's half is `crates/harness/tests/trace_replay.rs`.)
//!
//! This lives in its own integration-test binary because registration is
//! process-global: the suite-shaped assertions in `suite_validation.rs`
//! must keep seeing exactly the built-in table.

use splash4::workload::{self, driver};
use splash4::{
    close, dispatch, run_experiment, simulate, Benchmark, Dispatch, ExperimentCtx, InputClass,
    JobCtl, KernelResult, MachineParams, PhaseSpec, Request, RequestKind, SyncEnv, SyncMode,
    WorkModel, Workload,
};

/// The synthetic 17th workload: a `GETSUB`-dispensed index mill feeding a
/// global reduction — small, deterministic, and exercising enough of the
/// construct classes (Counter, Reduction, Barrier) that every layer has
/// something to observe.
struct SpinMill;

fn mill_items(class: InputClass) -> usize {
    match class {
        InputClass::Test => 2_048,
        InputClass::Small => 8_192,
        InputClass::Native => 32_768,
    }
}

impl Workload for SpinMill {
    fn name(&self) -> &'static str {
        "spin-mill"
    }

    fn input_description(&self, class: InputClass) -> String {
        format!("{} milled indices", mill_items(class))
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        let n = mill_items(class);
        let counter = env.counter("mill.index", 0..n);
        let sum = env.reducer_f64();
        let barrier = env.barrier();
        let elapsed = driver::roi(env, |ctx| {
            let mut local = 0.0;
            while let Some(i) = counter.next() {
                local += (i as f64).sqrt();
            }
            sum.add(local);
            barrier.wait(ctx.tid);
        });
        let got = sum.load();
        let want: f64 = (0..n).map(|i| (i as f64).sqrt()).sum();
        let work = WorkModel::new("spin-mill").phase(
            PhaseSpec::compute("mill", n as u64, 12)
                .dispatch(Dispatch::GetSub { chunk: 1 })
                .reduces(1),
        );
        driver::finish(env, elapsed, got, close(got, want, 1e-9), work)
    }
}

static SPIN_MILL: SpinMill = SpinMill;

/// One test function (not several) so registration happens exactly once
/// and every layer is probed against the same registry state.
#[test]
fn registered_workload_flows_through_every_layer() {
    // -- Registry layer --------------------------------------------------
    let before = workload::len();
    let idx = workload::register(&SPIN_MILL).expect("fresh name registers");
    assert_eq!(idx, before);
    assert_eq!(workload::len(), before + 1);
    assert_eq!(workload::find_index("Spin_Mill"), Some(idx));
    assert!(workload::known_names().contains(&"spin-mill"));
    // Duplicate registration is rejected, not silently doubled.
    assert!(workload::register(&SPIN_MILL).is_err());

    // The harness handle sees it with no harness edit.
    let all = Benchmark::all();
    assert_eq!(all.len(), before + 1);
    let b = *all.last().unwrap();
    assert_eq!(b.name(), "spin-mill");
    assert_eq!(Benchmark::from_name("SPIN-MILL"), Some(b));
    assert_eq!(b.input_description(InputClass::Test), "2048 milled indices");

    // -- Stats / report layer --------------------------------------------
    // The T1 table iterates the registry: the new row appears in both the
    // rendered text and the JSON without touching experiments.rs.
    let ctx = ExperimentCtx {
        native_threads: vec![1, 2],
        sim_threads: vec![1, 8],
        snapshot_cores: 8,
        ..ExperimentCtx::default()
    };
    let t1 = run_experiment("T1-inputs", &ctx).expect("T1 runs");
    assert!(t1.text.contains("spin-mill"), "T1 table missing the row");
    let rows = t1.json["rows"].as_array().expect("T1 exports rows");
    assert!(rows
        .iter()
        .any(|r| r["benchmark"].as_str() == Some("spin-mill")));

    // -- Sim layer --------------------------------------------------------
    // Model calibration is memoized per (benchmark, class) exactly like
    // the built-ins; the calibrated model drives the DES engine.
    let work = ctx.work_model(b);
    assert_eq!(work.phases.len(), 1);
    assert!(work.total_cycles() > 0);
    let sim = simulate(&work, SyncMode::LockFree, 8, &MachineParams::epyc_like());
    assert!(sim.total_ns > 0);
    assert_eq!(sim.ncores, 8);

    // -- Mode layer -------------------------------------------------------
    // The new workload validates with mode-invariant answers under every
    // sync generation.
    let mut checksums = Vec::new();
    for mode in SyncMode::ALL {
        let r = b.run(InputClass::Test, &SyncEnv::new(mode, 2));
        assert!(r.validated, "spin-mill invalid at test scale, {mode}");
        checksums.push(r.checksum);
    }
    assert!(close(checksums[0], checksums[1], 1e-9));
    assert!(close(checksums[1], checksums[2], 1e-9));

    // -- Serve layer ------------------------------------------------------
    // Request canonicalization and bench dispatch resolve the new name.
    let req = Request::new(RequestKind::Bench {
        benchmark: "Spin_Mill".into(),
        mode: "splash4".into(),
        threads: 2,
    });
    assert_eq!(req.canonical(), "bench/Spin_Mill/splash4/t2");
    let out = dispatch(&req, &ctx, &JobCtl::unlimited()).expect("bench dispatch resolves");
    assert_eq!(out["benchmark"].as_str(), Some("spin-mill"));
    assert_eq!(out["type"].as_str(), Some("bench"));
    assert!(out["elapsed_ns"].as_f64().unwrap_or(0.0) > 0.0);
}
