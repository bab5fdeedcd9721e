//! Calibration: lowering measured atomic costs into a machine profile.
//!
//! The hand-set [`MachineParams`] presets encode the paper's platforms, but
//! Schweizer, Besta and Hoefler show measured atomic costs vary by an order
//! of magnitude with contention and data locality — so the values that
//! matter should be *measured on the host*, not guessed. The harness's
//! `--bench atomics` group times CAS/FAA/SWP/load/store across contention
//! levels and padding regimes; this module lowers the resulting medians into
//! the four [`MachineParams`] fields those measurements determine
//! (see `DESIGN.md` §16 for the lowering model and its documented
//! tolerance):
//!
//! | field             | lowered from                                      |
//! |-------------------|---------------------------------------------------|
//! | `rmw_local_ns`    | `faa_c1_ns` — uncontended FAA on a resident line  |
//! | `rmw_service_ns`  | `faa_c<p>_ns` at the highest measured contention  |
//! | `line_transfer_ns`| `faa_c2_ns − faa_c1_ns` — the migration a second  |
//! |                   | participant adds per op (clamped ≥ 1 ns)          |
//! | `lock_pair_ns`    | `cas_c1_ns + store_c1_ns` — acquire CAS + release |
//! |                   | store                                             |
//!
//! OS-interaction costs (`futex_wake_ns`, `condvar_wake_ns`) and the fitted
//! fractions (`data_collision`, `convoy_fraction`) cannot be derived from a
//! userspace atomic matrix; they are carried over from the base preset and
//! recorded as such in the profile's `source` field.
//!
//! [`synthesize_bench`] is the exact forward model: it generates a synthetic
//! atomics document *from* a parameter table, such that
//! `calibrate(synthesize_bench(m, p), m)` recovers `m`'s four derived
//! fields within [`TOLERANCE`] (integer rounding is the only loss). That
//! round trip is the preset-fidelity contract CI enforces.

use crate::machine::MachineParams;
use splash4_parmacs::{json, Json};

/// Relative tolerance of the calibration round trip: every derived field of
/// `calibrate(synthesize_bench(m, p), m)` lands within this fraction of `m`'s
/// hand-set value (or within [`TOLERANCE_ABS_NS`] for small values, where
/// integer rounding dominates).
pub const TOLERANCE: f64 = 0.10;

/// Absolute tolerance floor of the round trip, in nanoseconds.
pub const TOLERANCE_ABS_NS: u64 = 2;

/// Median of the named cell inside an `atomics` metrics group: `Ok(None)`
/// if the cell is absent, an error if it is not a finite positive number.
/// Accepts both `{median, samples}` objects and bare numbers.
fn group_median(group: &Json, key: &str) -> Result<Option<f64>, String> {
    let Some(v) = group.get(key) else {
        return Ok(None);
    };
    match v["median"].as_f64().or_else(|| v.as_f64()) {
        Some(m) if m.is_finite() && m > 0.0 => Ok(Some(m)),
        _ => Err(format!(
            "atomics cell `{key}` must have a finite positive median"
        )),
    }
}

/// The highest contention level `c` for which the group has a `faa_c<c>_ns`
/// cell.
fn max_contention(group: &Json) -> Option<usize> {
    let entries = group.as_object()?;
    entries
        .iter()
        .filter_map(|(k, _)| {
            k.strip_prefix("faa_c")
                .and_then(|rest| rest.strip_suffix("_ns"))
                .and_then(|c| c.parse::<usize>().ok())
        })
        .max()
}

/// Lower a measured `--bench atomics` document into a machine profile.
///
/// `bench` is a `splash4-bench-v2` document whose `metrics.atomics` group
/// holds the measured matrix; `base` supplies every parameter the matrix
/// cannot determine (clock, core count, OS interaction costs, fitted
/// fractions). The result is named `host-<base name>` and is fully
/// deterministic: the same document and base always produce the identical
/// profile.
///
/// # Errors
/// Returns a message if the document lacks an `atomics` group, the group
/// is missing the required cells (`faa_c1_ns`, `cas_c1_ns`, `store_c1_ns`),
/// or any cell the lowering reads has a median that is not a finite
/// positive number.
pub fn calibrate(bench: &Json, base: &MachineParams) -> Result<MachineParams, String> {
    let group = &bench["metrics"]["atomics"];
    if group.as_object().is_none() {
        return Err("bench document has no `metrics.atomics` group; run `--bench atomics`".into());
    }
    let need = |key: &str| {
        group_median(group, key)?
            .ok_or_else(|| format!("atomics group is missing required cell `{key}`"))
    };
    let faa_c1 = need("faa_c1_ns")?;
    let cas_c1 = need("cas_c1_ns")?;
    let store_c1 = need("store_c1_ns")?;

    let rmw_local_ns = faa_c1.round().max(1.0) as u64;
    // Highest measured contention level: the serialized per-op service time
    // of the shared line. A single-threaded matrix (no c>1 cells) cannot see
    // contention, so the base preset's value is retained.
    let cmax = max_contention(group).unwrap_or(1);
    let rmw_service_ns = if cmax > 1 {
        let s = need(&format!("faa_c{cmax}_ns"))?;
        (s.round().max(1.0) as u64).max(rmw_local_ns)
    } else {
        base.rmw_service_ns.max(rmw_local_ns)
    };
    // The second participant's marginal cost per op is one line migration.
    // Only meaningful when c=2 is not also the maximum measured level
    // (otherwise the same cell would have to be both the service time and
    // the local+transfer sum).
    let line_transfer_ns = match group_median(group, "faa_c2_ns")? {
        Some(c2) if cmax > 2 => ((c2 - faa_c1).round() as i64).max(1) as u64,
        _ => base.line_transfer_ns,
    };
    let lock_pair_ns = ((cas_c1 + store_c1).round() as u64).max(1);

    Ok(MachineParams {
        name: host_profile_name(base),
        rmw_local_ns,
        rmw_service_ns,
        line_transfer_ns,
        lock_pair_ns,
        ..*base
    })
}

/// The name a calibration against `base` produces (`host-<base name>`).
pub fn host_profile_name(base: &MachineParams) -> &'static str {
    match base.name {
        "epyc-7002-like" => "host-epyc-7002-like",
        "icelake-gem5-like" => "host-icelake-gem5-like",
        "manycore-t3-like" => "host-manycore-t3-like",
        _ => "host-calibrated",
    }
}

/// Generate a synthetic calibration document *from* a parameter table: the
/// exact inverse of [`calibrate`]'s lowering. The document carries only what
/// calibration reads (`config.threads` and a `metrics.atomics` group of
/// one-sample cells). `threads` is clamped to at least 4 so the
/// c=2 cell (line transfer) and the top-contention cell (service time)
/// remain distinct.
pub fn synthesize_bench(m: &MachineParams, threads: usize) -> Json {
    let p = threads.max(4);
    let store_c1 = (m.lock_pair_ns / 3).max(1);
    let cas_c1 = m.lock_pair_ns.saturating_sub(store_c1).max(1);
    let load_c1 = (m.rmw_local_ns / 3).max(1);
    let local = |op: &str| -> f64 {
        match op {
            "cas" => cas_c1 as f64,
            "store" => store_c1 as f64,
            "load" => load_c1 as f64,
            _ => m.rmw_local_ns as f64, // faa, swp
        }
    };
    // Contended cells: c=2 adds one line migration; the top level saturates
    // at the shared-line service time; interior levels interpolate linearly.
    let at = |op: &str, c: usize| -> f64 {
        let lo = local(op);
        let service = match op {
            "load" | "store" => lo + m.line_transfer_ns as f64,
            _ => (m.rmw_service_ns as f64).max(lo),
        };
        match c {
            1 => lo,
            2 => lo + m.line_transfer_ns as f64,
            c if c >= p => service,
            c => {
                let c2 = lo + m.line_transfer_ns as f64;
                c2 + (service - c2) * (c - 2) as f64 / (p - 2) as f64
            }
        }
    };
    let summary = |v: f64| {
        json!({
            "median": v,
            "samples": Json::from_f64s(&[v]),
        })
    };
    let mut cells: Vec<(String, Json)> = Vec::new();
    for op in ["cas", "faa", "swp", "load", "store"] {
        for c in contention_levels(p) {
            cells.push((format!("{op}_c{c}_ns"), summary(at(op, c))));
        }
        // Padding pair: per-thread slots on one line (false sharing costs a
        // migration per op) vs cache-padded slots (local cost).
        cells.push((
            format!("{op}_falseshare_ns"),
            summary(local(op) + m.line_transfer_ns as f64),
        ));
        cells.push((format!("{op}_padded_ns"), summary(local(op))));
    }
    json!({
        "schema": "splash4-bench-v2",
        "synthetic": true,
        "config": json!({ "quick": true, "threads": p as u64 }),
        "metrics": json!({ "atomics": Json::Object(cells) }),
    })
}

/// The contention levels a `p`-thread atomics matrix measures: 1 (local), 2
/// (first sharer) and `p` (full contention), deduplicated for small `p`.
pub fn contention_levels(p: usize) -> Vec<usize> {
    let p = p.max(1);
    let mut levels = vec![1usize];
    for c in [2, p] {
        if c <= p && c > *levels.last().expect("nonempty") {
            levels.push(c);
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_levels_deduplicate() {
        assert_eq!(contention_levels(1), vec![1]);
        assert_eq!(contention_levels(2), vec![1, 2]);
        assert_eq!(contention_levels(4), vec![1, 2, 4]);
        assert_eq!(contention_levels(8), vec![1, 2, 8]);
    }

    #[test]
    fn calibrate_requires_the_atomics_group() {
        let base = MachineParams::epyc_like();
        let doc = json!({ "schema": "splash4-bench-v2", "metrics": json!({}) });
        let err = calibrate(&doc, &base).unwrap_err();
        assert!(err.contains("atomics"), "{err}");
    }

    #[test]
    fn calibrate_requires_the_local_cells() {
        let base = MachineParams::epyc_like();
        let doc = json!({
            "metrics": json!({ "atomics": json!({ "faa_c1_ns": 15.0 }) }),
        });
        let err = calibrate(&doc, &base).unwrap_err();
        assert!(err.contains("cas_c1_ns"), "{err}");
    }

    #[test]
    fn calibrate_accepts_bare_numbers_and_summary_objects() {
        let base = MachineParams::epyc_like();
        let doc = json!({
            "metrics": json!({ "atomics": json!({
                "faa_c1_ns": 10.0,
                "faa_c2_ns": json!({"median": 60.0}),
                "faa_c4_ns": 90.0,
                "cas_c1_ns": 20.0,
                "store_c1_ns": 5.0,
            }) }),
        });
        let m = calibrate(&doc, &base).unwrap();
        assert_eq!(m.rmw_local_ns, 10);
        assert_eq!(m.rmw_service_ns, 90);
        assert_eq!(m.line_transfer_ns, 50);
        assert_eq!(m.lock_pair_ns, 25);
        // Underived fields carry over from the base preset.
        assert_eq!(m.futex_wake_ns, base.futex_wake_ns);
        assert_eq!(m.condvar_wake_ns, base.condvar_wake_ns);
        assert_eq!(m.ghz, base.ghz);
        assert_eq!(m.name, "host-epyc-7002-like");
    }

    #[test]
    fn calibrate_rejects_non_finite_and_non_positive_medians() {
        let base = MachineParams::epyc_like();
        let cells = |key: &str, bad: f64| {
            let mut cells = vec![
                ("faa_c1_ns", 10.0),
                ("faa_c2_ns", 60.0),
                ("faa_c4_ns", 90.0),
                ("cas_c1_ns", 20.0),
                ("store_c1_ns", 5.0),
            ];
            for cell in &mut cells {
                if cell.0 == key {
                    cell.1 = bad;
                }
            }
            let group = cells
                .into_iter()
                .map(|(k, v)| (k.to_string(), json!({ "median": v })))
                .collect();
            json!({ "metrics": json!({ "atomics": Json::Object(group) }) })
        };
        assert!(calibrate(&cells("faa_c1_ns", 10.0), &base).is_ok());
        // `1e999` in a document parses to infinity; each cell the lowering
        // reads must refuse it, and zero or a negative cost, by name.
        for key in [
            "faa_c1_ns",
            "cas_c1_ns",
            "store_c1_ns",
            "faa_c4_ns",
            "faa_c2_ns",
        ] {
            for bad in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0] {
                let err = calibrate(&cells(key, bad), &base).unwrap_err();
                assert!(err.contains(key), "{key} = {bad}: {err}");
            }
        }
        let parsed = Json::parse(
            r#"{"metrics": {"atomics": {
            "faa_c1_ns": 1e999, "cas_c1_ns": 20.0, "store_c1_ns": 5.0}}}"#,
        )
        .unwrap();
        assert!(calibrate(&parsed, &base).is_err());
    }

    #[test]
    fn single_threaded_matrix_keeps_base_contention_costs() {
        let base = MachineParams::icelake_like();
        let doc = json!({
            "metrics": json!({ "atomics": json!({
                "faa_c1_ns": 9.0, "cas_c1_ns": 18.0, "store_c1_ns": 4.0,
            }) }),
        });
        let m = calibrate(&doc, &base).unwrap();
        assert_eq!(m.rmw_local_ns, 9);
        assert_eq!(m.rmw_service_ns, base.rmw_service_ns);
        assert_eq!(m.line_transfer_ns, base.line_transfer_ns);
    }

    #[test]
    fn service_time_never_undercuts_local_time() {
        let base = MachineParams::epyc_like();
        // A scheduler-serialized host can measure "contended" FAA cheaper
        // than local; the lowering clamps rather than emitting a nonsense
        // table.
        let doc = json!({
            "metrics": json!({ "atomics": json!({
                "faa_c1_ns": 50.0, "faa_c2_ns": 30.0, "faa_c4_ns": 20.0,
                "cas_c1_ns": 20.0, "store_c1_ns": 5.0,
            }) }),
        });
        let m = calibrate(&doc, &base).unwrap();
        assert!(m.rmw_service_ns >= m.rmw_local_ns);
        assert!(m.line_transfer_ns >= 1);
    }
}
