//! `splash4-report` — regenerate the paper's tables and figures.
//!
//! ```text
//! splash4-report --list
//! splash4-report --experiment F2-sim-epyc [--class test|small|native]
//! splash4-report --all [--json-out results.json]
//! splash4-report --experiment F1-native --threads 1,2,4
//! splash4-report --all --only fft,radix
//! splash4-report --all --csv-dir results/csv
//! splash4-report --bench [atomics] [--quick] [--bench-out atomics.json] [--force]
//! splash4-report --validate atomics.json
//! splash4-report --compare before.json after.json
//! splash4-report --calibrate atomics.json [--profile-base epyc] [--profile-out host-profile.json]
//! splash4-report --experiment F2-sim-epyc --machine host-profile.json
//! ```
//!
//! The suite's performance is measured by the `benchmark/` package
//! (`BENCHMARK.json`), not here. `--bench` (the word `atomics` after it is
//! accepted and changes nothing) runs the one measurement nothing else
//! takes: the host's atomic cost matrix (CAS/FAA/SWP/load/store across
//! contention levels and cache-line padding), written as a
//! `splash4-bench-v2` document. `--calibrate` lowers such a document's
//! measured medians into a simulator machine profile, and `--machine`
//! points any simulation-driven experiment at a preset name, inline profile
//! JSON, or a profile file (see `splash4_sim::MachineParams::resolve`).
//!
//! `--validate` checks a bench document's schema and statistical invariants
//! (exit 1 on any violation); `--compare` runs the noise-aware verdict over
//! two documents and exits non-zero only on a statistically resolvable
//! regression.
//!
//! `--only` narrows the per-workload experiments to a comma list of
//! workload names, resolved leniently through the registry (`FFT`,
//! `water-nsquared`, and `Water_NSquared` all work); `--list` prints both
//! the experiment ids and the workload names those filters accept.

use splash4_harness::{
    compare_texts, run_bench_atomics, run_experiment, validate, write_guarded, BenchConfig,
    BenchmarkId, ExperimentCtx, ALL_EXPERIMENTS,
};
use splash4_kernels::InputClass;
use splash4_parmacs::{json, Json};
use splash4_sim::MachineParams;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: splash4-report (--list | --all | --experiment <id> | --bench [atomics] \
     | --validate <file> | --compare <baseline> <candidate> | --calibrate <bench.json>) \
     [--only bench[,bench...]] [--class test|small|native] \
     [--threads a,b,c] [--sim-threads a,b,c] [--machine <preset|file|json>] \
     [--snapshot-cores N] [--json-out FILE] [--csv-dir DIR] \
     [--quick] [--bench-out FILE] [--force] \
     [--profile-base <preset>] [--profile-out FILE]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment: Option<String> = None;
    let mut all = false;
    let mut list = false;
    let mut bench = false;
    let mut quick = false;
    let mut force = false;
    let mut calibrate_path: Option<String> = None;
    let mut profile_out = "host-profile.json".to_string();
    let mut profile_base = "epyc".to_string();
    let mut validate_path: Option<String> = None;
    let mut compare_paths: Option<(String, String)> = None;
    let mut bench_out = "BENCH_results.json".to_string();
    let mut ctx = ExperimentCtx::default();
    let mut json_out: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut only: Option<Vec<BenchmarkId>> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--only" => {
                let Some(spec) = it.next() else {
                    eprintln!("--only needs a comma list of workload names\n{}", usage());
                    return ExitCode::FAILURE;
                };
                let mut picked: Vec<BenchmarkId> = Vec::new();
                for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    let Some(b) = BenchmarkId::from_name(name) else {
                        let known: Vec<&str> =
                            BenchmarkId::all().iter().map(|b| b.name()).collect();
                        eprintln!(
                            "unknown workload '{name}'; known workloads: {}",
                            known.join(", ")
                        );
                        return ExitCode::FAILURE;
                    };
                    if !picked.contains(&b) {
                        picked.push(b);
                    }
                }
                if picked.is_empty() {
                    eprintln!("--only needs at least one workload name\n{}", usage());
                    return ExitCode::FAILURE;
                }
                // Keep suite order regardless of how the user listed them,
                // so filtered tables stay aligned with the full ones.
                picked.sort_by_key(|&b| b.index());
                only = Some(picked);
            }
            "--all" => all = true,
            "--bench" => {
                bench = true;
                // The matrix is the only group; its name is still accepted
                // (peeked, so a following flag is left for the main loop).
                if it.clone().next().map(String::as_str) == Some("atomics") {
                    it.next();
                }
            }
            "--quick" => quick = true,
            "--force" => force = true,
            "--calibrate" => {
                let Some(path) = it.next() else {
                    eprintln!("--calibrate needs a bench JSON path\n{}", usage());
                    return ExitCode::FAILURE;
                };
                calibrate_path = Some(path.clone());
            }
            "--profile-out" => {
                let Some(path) = it.next() else {
                    eprintln!("--profile-out needs a path\n{}", usage());
                    return ExitCode::FAILURE;
                };
                profile_out = path.clone();
            }
            "--profile-base" => {
                let Some(spec) = it.next() else {
                    eprintln!("--profile-base needs a machine preset\n{}", usage());
                    return ExitCode::FAILURE;
                };
                profile_base = spec.clone();
            }
            "--machine" => {
                let Some(spec) = it.next() else {
                    eprintln!(
                        "--machine needs a preset name, profile file, or inline JSON\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                };
                match MachineParams::resolve(spec) {
                    Ok(m) => ctx.machine = Some(m),
                    Err(e) => {
                        eprintln!("--machine {spec}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--validate" => {
                let Some(path) = it.next() else {
                    eprintln!("--validate needs a path\n{}", usage());
                    return ExitCode::FAILURE;
                };
                validate_path = Some(path.clone());
            }
            "--compare" => {
                let (Some(base), Some(cand)) = (it.next(), it.next()) else {
                    eprintln!("--compare needs <baseline> <candidate> paths\n{}", usage());
                    return ExitCode::FAILURE;
                };
                compare_paths = Some((base.clone(), cand.clone()));
            }
            "--bench-out" => {
                let Some(path) = it.next() else {
                    eprintln!("--bench-out needs a path\n{}", usage());
                    return ExitCode::FAILURE;
                };
                bench_out = path.clone();
            }
            "--experiment" | "-e" => {
                experiment = it.next().cloned();
                if experiment.is_none() {
                    eprintln!("--experiment needs an id\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
            "--class" | "-c" => {
                let Some(c) = it.next().and_then(|s| InputClass::from_label(s)) else {
                    eprintln!("--class needs test|small|native\n{}", usage());
                    return ExitCode::FAILURE;
                };
                ctx.class = c;
            }
            "--threads" | "-t" => {
                let Some(list) = it.next().map(|s| parse_list(s)) else {
                    eprintln!("--threads needs a comma list\n{}", usage());
                    return ExitCode::FAILURE;
                };
                match list {
                    Some(v) if !v.is_empty() => ctx.native_threads = v,
                    _ => {
                        eprintln!("--threads needs positive integers\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--sim-threads" => {
                let Some(list) = it.next().map(|s| parse_list(s)) else {
                    eprintln!("--sim-threads needs a comma list\n{}", usage());
                    return ExitCode::FAILURE;
                };
                match list {
                    Some(v) if !v.is_empty() => ctx.sim_threads = v,
                    _ => {
                        eprintln!("--sim-threads needs positive integers\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--snapshot-cores" => {
                let Some(n) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--snapshot-cores needs an integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                ctx.snapshot_cores = n.max(1);
            }
            "--json-out" => {
                json_out = it.next().cloned();
                if json_out.is_none() {
                    eprintln!("--json-out needs a path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
            "--csv-dir" => {
                csv_dir = it.next().cloned();
                if csv_dir.is_none() {
                    eprintln!("--csv-dir needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(benches) = &only {
        ctx.benchmarks = benches.clone();
    }

    if list {
        println!("experiments:");
        for id in ALL_EXPERIMENTS {
            println!("  {id}");
        }
        println!("workloads (accepted by --only):");
        for b in BenchmarkId::all() {
            println!("  {:<16} {}", b.name(), b.input_description(ctx.class));
        }
        return ExitCode::SUCCESS;
    }

    if let Some(path) = validate_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match validate(&text) {
            Ok(msg) => {
                println!("{path}: {msg}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: invalid bench document: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some((base_path, cand_path)) = compare_paths {
        let read =
            |p: &str| std::fs::read_to_string(p).map_err(|e| format!("failed to read {p}: {e}"));
        let report = read(&base_path)
            .and_then(|b| read(&cand_path).map(|c| (b, c)))
            .and_then(|(b, c)| compare_texts(&b, &c));
        return match report {
            Ok(r) => {
                print!("{}", r.to_text());
                if r.pass() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(path) = calibrate_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{path}: not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        let base = match MachineParams::resolve(&profile_base) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("--profile-base {profile_base}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let profile = match splash4_sim::calibrate(&doc, &base) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("calibration from {path} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "calibrated machine profile '{}' (base preset '{}'):",
            profile.name, base.name
        );
        println!(
            "  {:<18} {:>10} {:>10}",
            "parameter", base.name, profile.name
        );
        let rows: [(&str, u64, u64); 5] = [
            ("rmw_local_ns", base.rmw_local_ns, profile.rmw_local_ns),
            (
                "rmw_service_ns",
                base.rmw_service_ns,
                profile.rmw_service_ns,
            ),
            ("lock_pair_ns", base.lock_pair_ns, profile.lock_pair_ns),
            (
                "line_transfer_ns",
                base.line_transfer_ns,
                profile.line_transfer_ns,
            ),
            ("futex_wake_ns", base.futex_wake_ns, profile.futex_wake_ns),
        ];
        for (label, was, now) in rows {
            println!("  {label:<18} {was:>10} {now:>10}");
        }
        let source = format!("calibrated from {path} (base {})", base.name);
        let profile_doc = profile.to_profile_json(&source);
        if let Err(e) = write_guarded(
            Path::new(&profile_out),
            &profile_doc.to_string_pretty(),
            force,
        ) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {profile_out}");
        return ExitCode::SUCCESS;
    }

    if bench {
        let cfg = if quick {
            BenchConfig::quick()
        } else {
            BenchConfig::full()
        };
        // Refuse to clobber an existing results file before spending time
        // measuring; the same guard runs again at write time.
        if Path::new(&bench_out).exists() && !force {
            eprintln!("refusing to overwrite existing {bench_out} (pass --force to replace it)");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "running the atomic cost matrix ({} mode, {}-{} adaptive reps, CI target ±{:.0}%)...",
            if quick { "quick" } else { "full" },
            cfg.measure.min_reps,
            cfg.measure.max_reps,
            cfg.measure.target_rci * 100.0
        );
        let (text, doc) = run_bench_atomics(&cfg);
        print!("{text}");
        if let Err(e) = write_guarded(Path::new(&bench_out), &doc.to_string_pretty(), force) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {bench_out}");
        return ExitCode::SUCCESS;
    }

    let ids: Vec<String> = if all {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else if let Some(e) = experiment {
        vec![e]
    } else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };

    let mut payloads = Vec::new();
    for id in &ids {
        match run_experiment(id, &ctx) {
            Ok(report) => {
                print!("{}", report.to_terminal());
                if let Some(dir) = &csv_dir {
                    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                        std::fs::write(format!("{dir}/{}.csv", report.id), &report.csv)
                    }) {
                        eprintln!("failed to write CSV for {}: {e}", report.id);
                        return ExitCode::FAILURE;
                    }
                }
                payloads.push(json!({
                    "id": report.id,
                    "title": report.title,
                    "data": report.json,
                }));
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = json_out {
        let doc = json!({ "experiments": payloads });
        if let Err(e) = std::fs::write(&path, doc.to_string_pretty()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn parse_list(s: &str) -> Option<Vec<usize>> {
    s.split(',')
        .map(|x| x.trim().parse::<usize>().ok().filter(|&v| v > 0))
        .collect()
}
