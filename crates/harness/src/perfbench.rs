//! The atomic cost matrix: the one measurement `splash4-report --bench` runs.
//!
//! Performance of the suite itself — primitives, pools, kernels, simulator,
//! report, service — is measured by the `benchmark/` package against
//! `BENCHMARK.json`; nothing here times those layers a second time. What
//! nothing else measures is the host's raw atomic cost (CAS/FAA/SWP/load/
//! store × contention × padding), and that matrix is the only input
//! `splash4-report --calibrate` has, so it stays as this module's whole
//! job. Every cell is measured through [`crate::measure`]: adaptive
//! repetition until the bootstrap 95 % CI of the median is tight (or a rep
//! cap), summarized as `{median, ci_lo, ci_hi, reps, cv, samples}` in a
//! `splash4-bench-v2` document that `--validate` checks and `--compare` can
//! gate between two runs on the same host (`DESIGN.md` §11).

use crate::measure::{time_adaptive, MeasureConfig, Summary};
use crate::tables::Table;
use splash4_parmacs::{json, Json, Team};

/// Tuning knobs for one matrix run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Statistical stopping rule (reps, CI target, bootstrap size).
    pub measure: MeasureConfig,
    /// Largest contention level, and the team size of the padding pair.
    pub threads: usize,
    /// Per-thread operations in each cell.
    pub atomic_ops: usize,
    /// `true` for the CI-sized run (`--quick`).
    pub quick: bool,
}

impl BenchConfig {
    /// Full-size configuration (local calibration).
    pub fn full() -> BenchConfig {
        BenchConfig {
            measure: MeasureConfig::full(),
            threads: 4,
            atomic_ops: 200_000,
            quick: false,
        }
    }

    /// CI-sized configuration: same shape, 10× less work, looser CI target.
    pub fn quick() -> BenchConfig {
        BenchConfig {
            measure: MeasureConfig::quick(),
            threads: 4,
            atomic_ops: 20_000,
            quick: true,
        }
    }
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

/// Run the atomic cost matrix and render the results.
///
/// The returned `(text, json)` pair is what `splash4-report --bench` prints
/// and writes: one table row per cell, and a `splash4-bench-v2` document
/// whose single metric group `atomics` is keyed by flat cell name
/// (`faa_c2_ns`, `store_padded_ns`, …) — the input `splash4-report
/// --calibrate` lowers into a host machine profile.
pub fn run_bench_atomics(cfg: &BenchConfig) -> (String, Json) {
    let cells = bench_atomics(cfg);
    let mut t = Table::new(vec!["metric", "backend", "median [95% CI]"]);
    for (name, s) in &cells {
        let trimmed = name.strip_suffix("_ns").unwrap_or(name);
        let (op, cell) = trimmed.split_once('_').unwrap_or((trimmed, ""));
        t.row(vec![
            format!("atomic {op}"),
            cell.into(),
            format!(
                "{:.3} [{:.3}, {:.3}] ns/op (n={})",
                s.median, s.ci_lo, s.ci_hi, s.reps
            ),
        ]);
    }
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
            "atomics": Json::Object(
                cells
                    .iter()
                    .map(|(name, s)| (name.clone(), s.to_json()))
                    .collect(),
            ),
        }),
    });
    (t.render(), doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare_texts, validate, BenchDoc, MetricClass};
    use splash4_sim::MachineParams;

    fn tiny() -> BenchConfig {
        BenchConfig {
            measure: MeasureConfig {
                min_reps: 2,
                max_reps: 3,
                target_rci: 0.5,
                resamples: 100,
            },
            threads: 2,
            atomic_ops: 400,
            quick: true,
        }
    }

    #[test]
    fn atomics_subset_document_validates_and_calibrates() {
        let (text, doc) = run_bench_atomics(&tiny());
        assert!(text.contains("atomic cas"), "{text}");
        assert!(text.contains("falseshare"), "{text}");
        assert_eq!(doc["schema"].as_str(), Some("splash4-bench-v2"));
        assert_eq!(doc["config"]["atomic_ops"].as_u64(), Some(400));
        let rendered = doc.to_string_pretty();
        validate(&rendered).expect("atomics document validates");
        let decoded = BenchDoc::parse(&rendered).expect("decodes");
        // 5 ops × (contention levels {1, 2} at threads=2 + falseshare + padded),
        // every cell host-absolute nanoseconds carrying real repetitions.
        assert_eq!(decoded.metrics.len(), 5 * 4);
        for m in &decoded.metrics {
            assert!(m.name.starts_with("atomics/"), "{}", m.name);
            assert_eq!(m.class, MetricClass::Wall, "{}", m.name);
            assert!(m.summary.median > 0.0, "{} must be positive", m.name);
            assert!(m.summary.reps >= 2, "{} must carry real reps", m.name);
            assert_eq!(m.summary.samples.len(), m.summary.reps, "{}", m.name);
        }
        for cell in [
            "cas_c1_ns",
            "faa_c2_ns",
            "store_padded_ns",
            "load_falseshare_ns",
        ] {
            assert!(
                decoded.metric(&format!("atomics/{cell}")).is_some(),
                "{cell}"
            );
        }
        // Self-comparison cannot gate (everything is Wall-class and the
        // configs match).
        let r = compare_texts(&rendered, &rendered).expect("self compare");
        assert!(r.configs_match && r.pass());
        // The document is exactly what `--calibrate` lowers.
        let base = MachineParams::epyc_like();
        let cal = splash4_sim::calibrate(&doc, &base).unwrap();
        assert!(cal.rmw_local_ns >= 1);
        assert!(cal.rmw_service_ns >= cal.rmw_local_ns);
        assert_eq!(cal.ghz, base.ghz);
    }
}
