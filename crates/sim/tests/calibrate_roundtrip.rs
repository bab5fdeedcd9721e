//! Calibration contract tests: determinism (same bench document →
//! bit-identical profile) and preset fidelity (calibrating from a synthetic
//! document generated *from* a hand-set table recovers that table within the
//! documented tolerance).

use splash4_parmacs::{PhaseSpec, SyncMode, WorkModel};
use splash4_sim::calibrate::{calibrate, synthesize_bench, TOLERANCE, TOLERANCE_ABS_NS};
use splash4_sim::{MachineParams, Simulator};

/// |got − want| within the documented relative tolerance, floored by the
/// absolute rounding allowance.
fn within_tolerance(got: u64, want: u64, field: &str) {
    let rel = (want as f64 * TOLERANCE).ceil() as u64;
    let allow = rel.max(TOLERANCE_ABS_NS);
    assert!(
        got.abs_diff(want) <= allow,
        "{field}: calibrated {got} vs preset {want} (allowed ±{allow})"
    );
}

#[test]
fn calibration_is_deterministic() {
    let base = MachineParams::epyc_like();
    let doc = synthesize_bench(&base, 4);
    let a = calibrate(&doc, &base).unwrap();
    let b = calibrate(&doc, &base).unwrap();
    assert_eq!(a, b, "same document, same base, same profile");
    // Bit-identical at the serialization level too: the profile a CI run
    // uploads must not depend on when or how often it was lowered.
    assert_eq!(
        a.to_profile_json("determinism-test").to_string_pretty(),
        b.to_profile_json("determinism-test").to_string_pretty()
    );
}

#[test]
fn preset_fidelity_round_trip() {
    for base in [
        MachineParams::epyc_like(),
        MachineParams::icelake_like(),
        MachineParams::manycore(256),
    ] {
        let doc = synthesize_bench(&base, 4);
        let cal = calibrate(&doc, &base).unwrap();
        within_tolerance(cal.rmw_local_ns, base.rmw_local_ns, "rmw_local_ns");
        within_tolerance(cal.rmw_service_ns, base.rmw_service_ns, "rmw_service_ns");
        within_tolerance(
            cal.line_transfer_ns,
            base.line_transfer_ns,
            "line_transfer_ns",
        );
        within_tolerance(cal.lock_pair_ns, base.lock_pair_ns, "lock_pair_ns");
        // Fields the atomic matrix cannot measure carry over exactly.
        assert_eq!(cal.ghz, base.ghz);
        assert_eq!(cal.max_cores, base.max_cores);
        assert_eq!(cal.futex_wake_ns, base.futex_wake_ns);
        assert_eq!(cal.condvar_wake_ns, base.condvar_wake_ns);
        assert_eq!(cal.data_collision, base.data_collision);
        assert_eq!(cal.convoy_fraction, base.convoy_fraction);
    }
}

#[test]
fn calibrated_profile_simulates_like_its_preset() {
    // The acceptance criterion for the round trip: sim results on the
    // profile calibrated from a preset-synthesized document match the
    // hand-set preset within the documented tolerance.
    let base = MachineParams::epyc_like();
    let cal = calibrate(&synthesize_bench(&base, 4), &base).unwrap();
    let work = WorkModel::new("fidelity").phase(
        PhaseSpec::compute("sweep", 4000, 80)
            .reduces(1)
            .barriers(1)
            .repeats(100),
    );
    let mut sim_base = Simulator::new(base);
    let mut sim_cal = Simulator::new(cal);
    for cores in [1, 8, 64] {
        for mode in [SyncMode::LockBased, SyncMode::LockFree] {
            let t_base = sim_base.simulate(&work, mode, cores).total_ns as f64;
            let t_cal = sim_cal.simulate(&work, mode, cores).total_ns as f64;
            let ratio = t_cal / t_base.max(1.0);
            assert!(
                (1.0 - TOLERANCE..=1.0 + TOLERANCE).contains(&ratio),
                "sim time drifted {ratio:.3}x at p={cores} {mode:?}"
            );
        }
    }
}

#[test]
fn round_trip_profile_loads_anywhere_a_preset_is_accepted() {
    let base = MachineParams::icelake_like();
    let cal = calibrate(&synthesize_bench(&base, 4), &base).unwrap();
    let path = std::env::temp_dir().join(format!("s4-calibrated-{}.json", std::process::id()));
    std::fs::write(
        &path,
        cal.to_profile_json("round-trip-test").to_string_pretty(),
    )
    .unwrap();
    let loaded = MachineParams::resolve(path.to_str().unwrap()).unwrap();
    assert_eq!(loaded, cal);
    let _ = std::fs::remove_file(&path);
}
