//! End-to-end tests of the `splash4-report --bench` / `--validate` /
//! `--compare` / `--calibrate` CLI, checked at the exit-code level.

use splash4_harness::measure::Summary;
use splash4_parmacs::{json, Json};
use std::path::PathBuf;
use std::process::Command;

fn report_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_splash4-report"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("splash4-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A v2 document in the shape the retired full bench wrote — per-backend
/// groups, ratio members, a top-level wall summary — which the decoder must
/// read with no knowledge of those names: every rate metric scales with
/// `scale`, every CI is ±`rci`·median.
fn synth_v2(scale: f64, rci: f64) -> String {
    let s = |median: f64| -> Json {
        Summary {
            median,
            ci_lo: median * (1.0 - rci),
            ci_hi: median * (1.0 + rci),
            reps: 5,
            cv: rci,
            samples: vec![median; 5],
        }
        .to_json()
    };
    let group = |m3: f64, m4: f64| {
        json!({
            "splash3": s(m3 * scale),
            "splash4": s(m4 * scale),
            "ratio": s(m4 / m3),
        })
    };
    json!({
        "schema": "splash4-bench-v2",
        "config": json!({
            "quick": false,
            "threads": 4u64,
            "sync_ops": 100000u64,
            "barrier_crossings": 10000u64,
            "sim_cores": 32u64,
            "sim_ops_per_core": 4000u64,
        }),
        "metrics": json!({
            "reducer_ops_per_sec": group(5.0e6, 40.0e6),
            "counter_grabs_per_sec": group(4.5e6, 40.0e6),
            "barrier_crossings_per_sec": group(1.5e5, 1.1e5),
            "sim_events_per_sec": json!({
                "engine": s(30.0e6 * scale),
                "reference": s(17.0e6 * scale),
                "speedup": s(30.0 / 17.0),
            }),
            "report_wall_secs": s(0.25 / scale),
        }),
    })
    .to_string_pretty()
}

#[test]
fn validate_accepts_a_well_formed_document_and_rejects_garbage() {
    let dir = tmp_dir("validate");
    let good = dir.join("good.json");
    std::fs::write(&good, synth_v2(1.0, 0.03)).unwrap();
    let out = report_bin()
        .args(["--validate", good.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "well-formed document must validate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("13 metrics ok (4 gateable"), "{stdout}");

    let bad = dir.join("garbage.json");
    std::fs::write(&bad, "{\"schema\": \"splash4-bench-v2\"}").unwrap();
    let out = report_bin()
        .args(["--validate", bad.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "garbage must be rejected");
    let missing = dir.join("nope.json");
    let out = report_bin()
        .args(["--validate", missing.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "missing file must be an error");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_self_passes() {
    let dir = tmp_dir("self");
    let base = dir.join("base.json");
    std::fs::write(&base, synth_v2(1.0, 0.03)).unwrap();
    let out = report_bin()
        .args(["--compare", base.to_str().unwrap(), base.to_str().unwrap()])
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "self-comparison must pass:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("PASS"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_gates_synthetic_2x_slowdown() {
    let dir = tmp_dir("slowdown");
    let base = dir.join("base.json");
    let cand = dir.join("cand.json");
    std::fs::write(&base, synth_v2(1.0, 0.03)).unwrap();
    std::fs::write(&cand, synth_v2(0.5, 0.03)).unwrap();
    let out = report_bin()
        .args(["--compare", base.to_str().unwrap(), cand.to_str().unwrap()])
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "2x slowdown must gate:\n{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_tolerates_within_noise_wiggle() {
    let dir = tmp_dir("wiggle");
    let base = dir.join("base.json");
    let cand = dir.join("cand.json");
    std::fs::write(&base, synth_v2(1.0, 0.06)).unwrap();
    // 4 % shift with ±6 % intervals: overlapping, sub-threshold.
    std::fs::write(&cand, synth_v2(0.96, 0.06)).unwrap();
    let out = report_bin()
        .args(["--compare", base.to_str().unwrap(), cand.to_str().unwrap()])
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "within-noise wiggle must pass:\n{stdout}"
    );
    assert!(stdout.contains("PASS"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `text` with an `atomics` cost-matrix group spliced into `metrics`, as a
/// candidate produced after the matrix landed would carry.
fn with_atomics(text: &str) -> String {
    let Json::Object(mut top) = Json::parse(text).unwrap() else {
        panic!("synth doc is an object");
    };
    let s = |median: f64| -> Json {
        Summary {
            median,
            ci_lo: median * 0.98,
            ci_hi: median * 1.02,
            reps: 5,
            cv: 0.02,
            samples: vec![median; 5],
        }
        .to_json()
    };
    let metrics = top
        .iter_mut()
        .find(|(k, _)| k == "metrics")
        .expect("metrics key");
    let Json::Object(m) = &mut metrics.1 else {
        panic!("metrics is an object");
    };
    m.push((
        "atomics".into(),
        json!({
            "cas_c1_ns": s(9.0),
            "faa_c1_ns": s(6.5),
            "faa_c4_ns": s(41.0),
        }),
    ));
    Json::Object(top).to_string_pretty()
}

#[test]
fn compare_reports_candidate_only_atomics_as_new_info_only() {
    let dir = tmp_dir("newgroup");
    let base = dir.join("base.json");
    let cand = dir.join("cand.json");
    // The baseline predates the atomic cost matrix entirely; the candidate
    // carries it. That is new coverage, not a regression: the gate must
    // pass and label the extra rows instead of erroring on the mismatch.
    std::fs::write(&base, synth_v2(1.0, 0.03)).unwrap();
    std::fs::write(&cand, with_atomics(&synth_v2(1.0, 0.03))).unwrap();
    let out = report_bin()
        .args(["--compare", base.to_str().unwrap(), cand.to_str().unwrap()])
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "candidate-only atomics group must not gate:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("PASS"), "{stdout}");
    assert!(stdout.contains("new (info-only)"), "{stdout}");
    assert!(stdout.contains("atomics/cas_c1_ns"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn calibrate_cli_lowers_a_bench_run_into_a_loadable_profile() {
    let dir = tmp_dir("calibrate");
    let bench = dir.join("atomics.json");
    let profile = dir.join("host-profile.json");
    // Fastest real matrix the binary can produce: quick mode.
    let out = report_bin()
        .args([
            "--bench",
            "atomics",
            "--quick",
            "--bench-out",
            bench.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "--bench atomics must succeed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The subset document must pass the same validator CI runs.
    let out = report_bin()
        .args(["--validate", bench.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "atomics subset must validate:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = report_bin()
        .args([
            "--calibrate",
            bench.to_str().unwrap(),
            "--profile-out",
            profile.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "--calibrate must succeed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The written profile must load back through --machine and drive a
    // simulation-backed experiment end to end.
    let doc = std::fs::read_to_string(&profile).unwrap();
    assert!(Json::parse(&doc).is_ok(), "profile is JSON: {doc}");
    let out = report_bin()
        .args([
            "--experiment",
            "F2-sim-epyc",
            "--class",
            "test",
            "--only",
            "fft",
            "--machine",
            profile.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sim experiment on the calibrated profile must run:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("host-"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_out_refuses_to_overwrite_without_force() {
    let dir = tmp_dir("benchout");
    let existing = dir.join("BENCH_results.json");
    std::fs::write(&existing, "precious local baseline").unwrap();
    // The guard fires before any measurement runs, so this is fast.
    let out = report_bin()
        .args([
            "--bench",
            "--quick",
            "--bench-out",
            existing.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "must refuse to overwrite");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--force"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&existing).unwrap(),
        "precious local baseline",
        "refused write must leave the file untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
