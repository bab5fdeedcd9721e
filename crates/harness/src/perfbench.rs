//! The atomic cost matrix: the one measurement `splash4-report --bench` runs.
//!
//! Performance of the suite itself — primitives, pools, kernels, simulator,
//! report, service — is measured by the `benchmark/` package against
//! `BENCHMARK.json`; nothing here times those layers a second time. What
//! nothing else measures is the host's raw atomic cost (CAS/FAA/SWP/load/
//! store × contention × padding), and that matrix is the only input
//! `splash4-report --calibrate` has, so it stays as this module's whole
//! job. Every cell gets one untimed warm-up pass and then a fixed number of
//! timed passes ([`BenchConfig::reps`]); it is summarized as
//! `{median, samples}` in a `splash4-bench-v2` document, which
//! `--calibrate` checks as it lowers it (`DESIGN.md` §11).

use crate::tables::Table;
use splash4_parmacs::{json, Json, Team};
use std::time::Instant;

/// The shape of one matrix run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Timed passes per cell, after one untimed warm-up pass.
    pub reps: usize,
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
            reps: 15,
            threads: 4,
            atomic_ops: 200_000,
            quick: false,
        }
    }

    /// CI-sized configuration: same shape, 10× less work, fewer passes.
    pub fn quick() -> BenchConfig {
        BenchConfig {
            reps: 7,
            threads: 4,
            atomic_ops: 20_000,
            quick: true,
        }
    }
}

/// One measured cell: its per-pass costs in ns/op, in the order they ran.
struct Cell {
    name: String,
    samples: Vec<f64>,
}

impl Cell {
    /// Time `pass` once untimed (faults pages, warms caches, resolves lazy
    /// init), then `reps` times; each timed pass's seconds times `scale` is
    /// one sample in ns/op.
    fn time(name: String, reps: usize, scale: f64, mut pass: impl FnMut()) -> Cell {
        pass();
        let samples = (0..reps.max(1))
            .map(|_| {
                let t0 = Instant::now();
                pass();
                t0.elapsed().as_secs_f64() * scale
            })
            .collect();
        Cell { name, samples }
    }

    /// `(median, min, max)` of the samples.
    fn stats(&self) -> (f64, f64, f64) {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        (median, v[0], v[n - 1])
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
/// Every cell is host-absolute — per Schweizer/Besta/Hoefler these costs
/// *are* host properties, which is why they feed calibration and nothing
/// compares them across hosts.
fn bench_atomics(cfg: &BenchConfig) -> Vec<Cell> {
    use splash4_parmacs::CachePadded;
    use std::sync::atomic::AtomicU64;
    let (n, reps) = (cfg.atomic_ops, cfg.reps);
    let mut cells: Vec<Cell> = Vec::new();
    for op in ATOMIC_OPS {
        // True sharing: c threads on one padded location.
        for c in splash4_sim::contention_levels(cfg.threads) {
            let shared = CachePadded::new(AtomicU64::new(0));
            cells.push(Cell::time(
                format!("{op}_c{c}_ns"),
                reps,
                1e9 / (c * n) as f64,
                || Team::new(c).run(|_| atomic_pass(op, &shared, n)),
            ));
        }
        // False sharing vs padded: per-thread slots, one line vs one line each.
        let packed: Vec<AtomicU64> = (0..cfg.threads).map(|_| AtomicU64::new(0)).collect();
        cells.push(Cell::time(
            format!("{op}_falseshare_ns"),
            reps,
            1e9 / n as f64,
            || Team::new(cfg.threads).run(|ctx| atomic_pass(op, &packed[ctx.tid], n)),
        ));
        let padded: Vec<CachePadded<AtomicU64>> = (0..cfg.threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        cells.push(Cell::time(
            format!("{op}_padded_ns"),
            reps,
            1e9 / n as f64,
            || Team::new(cfg.threads).run(|ctx| atomic_pass(op, &padded[ctx.tid], n)),
        ));
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
    let mut t = Table::new(vec!["metric", "backend", "median [min, max]"]);
    for cell in &cells {
        let trimmed = cell.name.strip_suffix("_ns").unwrap_or(&cell.name);
        let (op, backend) = trimmed.split_once('_').unwrap_or((trimmed, ""));
        let (median, min, max) = cell.stats();
        t.row(vec![
            format!("atomic {op}"),
            backend.into(),
            format!(
                "{median:.3} [{min:.3}, {max:.3}] ns/op (n={})",
                cell.samples.len()
            ),
        ]);
    }
    let doc = json!({
        "schema": "splash4-bench-v2",
        "config": json!({
            "quick": cfg.quick,
            "threads": cfg.threads as u64,
            "atomic_ops": cfg.atomic_ops as u64,
            "reps": cfg.reps as u64,
        }),
        "metrics": json!({
            "atomics": Json::Object(
                cells
                    .iter()
                    .map(|cell| {
                        let summary = json!({
                            "median": cell.stats().0,
                            "samples": Json::from_f64s(&cell.samples),
                        });
                        (cell.name.clone(), summary)
                    })
                    .collect(),
            ),
        }),
    });
    (t.render(), doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_sim::MachineParams;

    #[test]
    fn atomics_subset_document_calibrates_with_reps_samples_per_cell() {
        let cfg = BenchConfig {
            reps: 3,
            threads: 2,
            atomic_ops: 400,
            quick: true,
        };
        let (text, doc) = run_bench_atomics(&cfg);
        assert!(text.contains("atomic cas"), "{text}");
        assert!(text.contains("falseshare"), "{text}");
        assert!(text.contains("(n=3)"), "{text}");
        assert_eq!(doc["schema"].as_str(), Some("splash4-bench-v2"));
        assert_eq!(doc["config"]["atomic_ops"].as_u64(), Some(400));
        assert_eq!(doc["config"]["reps"].as_u64(), Some(3));
        // 5 ops × (contention levels {1, 2} at threads=2 + falseshare + padded).
        let cells = doc["metrics"]["atomics"]
            .as_object()
            .expect("atomics group");
        assert_eq!(cells.len(), 5 * 4);
        for (name, cell) in cells {
            let samples = cell["samples"].as_f64_array().expect("samples");
            assert_eq!(samples.len(), cfg.reps, "{name}");
            let median = cell["median"].as_f64().expect("median");
            assert!(median > 0.0, "{name} must be positive");
            let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().copied().fold(0.0, f64::max);
            assert!(
                lo <= median && median <= hi,
                "{name}: {median} outside samples"
            );
        }
        for cell in [
            "cas_c1_ns",
            "faa_c2_ns",
            "store_padded_ns",
            "load_falseshare_ns",
        ] {
            assert!(cells.iter().any(|(k, _)| k == cell), "{cell}");
        }
        // The document is exactly what `--calibrate` lowers, and it survives
        // the text round trip the CLI puts it through.
        let base = MachineParams::epyc_like();
        let reparsed = Json::parse(&doc.to_string_pretty()).expect("round trip");
        let cal = splash4_sim::calibrate(&reparsed, &base).unwrap();
        assert_eq!(cal, splash4_sim::calibrate(&doc, &base).unwrap());
        assert!(cal.rmw_local_ns >= 1);
        assert!(cal.rmw_service_ns >= cal.rmw_local_ns);
        assert_eq!(cal.ghz, base.ghz);
    }
}
