//! End-to-end tests of the `splash4-report --bench` / `--calibrate` CLI,
//! checked at the exit-code level.

use splash4_parmacs::Json;
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

/// A calibration-only atomics document with `faa_c1_ns` set to `faa_c1`
/// (raw JSON text, so a value no `f64` can hold can be written).
fn atomics_doc(faa_c1: &str) -> String {
    format!(
        r#"{{"schema": "splash4-bench-v2", "metrics": {{"atomics": {{
            "faa_c1_ns": {{"median": {faa_c1}}},
            "faa_c2_ns": {{"median": 40.0}},
            "faa_c4_ns": {{"median": 90.0}},
            "cas_c1_ns": {{"median": 20.0}},
            "store_c1_ns": {{"median": 5.0}}
        }}}}}}"#
    )
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

#[test]
fn profile_out_refuses_to_overwrite_then_forces() {
    let dir = tmp_dir("profileout");
    let bench = dir.join("atomics.json");
    let profile = dir.join("host-profile.json");
    std::fs::write(&bench, atomics_doc("10.0")).unwrap();
    std::fs::write(&profile, "first").unwrap();
    let calibrate = |force: bool| {
        let mut cmd = report_bin();
        cmd.args([
            "--calibrate",
            bench.to_str().unwrap(),
            "--profile-out",
            profile.to_str().unwrap(),
        ]);
        if force {
            cmd.arg("--force");
        }
        cmd.output().expect("runs")
    };
    let out = calibrate(false);
    assert!(!out.status.success(), "must refuse to overwrite");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--force"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&profile).unwrap(), "first");
    let out = calibrate(true);
    assert!(
        out.status.success(),
        "--force must replace the file:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = Json::parse(&std::fs::read_to_string(&profile).unwrap()).expect("profile");
    assert_eq!(written["rmw_local_ns"].as_u64(), Some(10), "{written}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn calibrate_rejects_a_non_finite_median_without_writing() {
    let dir = tmp_dir("nonfinite");
    let bench = dir.join("atomics.json");
    let profile = dir.join("host-profile.json");
    std::fs::write(&bench, atomics_doc("1e999")).unwrap();
    let out = report_bin()
        .args([
            "--calibrate",
            bench.to_str().unwrap(),
            "--profile-out",
            profile.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "an infinite median must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("faa_c1_ns"), "{stderr}");
    assert!(!profile.exists(), "nothing may be written");
    let _ = std::fs::remove_dir_all(&dir);
}
