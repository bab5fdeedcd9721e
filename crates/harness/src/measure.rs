//! Statistical measurement layer for the perf bench.
//!
//! PR 3's harness reported single medians, which is why CI could only archive
//! `BENCH_results.json` instead of gating on it: a point estimate carries no
//! information about how much of a delta is noise. This module supplies the
//! missing machinery (see `DESIGN.md` §11 "Measurement methodology"):
//!
//! - **adaptive repetition** ([`measure_adaptive`]): a benchmark closure is
//!   re-run until the bootstrap 95 % confidence interval of its median is
//!   tighter than a target fraction of the median, or a repetition cap is
//!   hit — fast benchmarks on quiet hosts stop early, noisy ones buy more
//!   repetitions automatically;
//! - **outlier-robust summaries** ([`Summary`]): median + MAD-based robust
//!   CV instead of mean + stddev, so one preempted repetition cannot drag
//!   the estimate;
//! - **deterministic bootstrap** ([`bootstrap_ci`]): percentile bootstrap of
//!   the median resampled with [`SmallRng`], so the same samples always
//!   yield the same interval (pinned by unit tests);
//! - **geomean aggregation** ([`geomean_ratios`]): cross-benchmark ratios
//!   combine multiplicatively, matching the paper's normalized-time
//!   geomeans.
//!
//! [`Summary`] round-trips through `parmacs::json` as the per-metric
//! `{median, ci_lo, ci_hi, reps, cv, samples}` object of the
//! `splash4-bench-v2` schema; `compare.rs` consumes those objects for the
//! noise-aware regression gate.

use splash4_parmacs::rng::SmallRng;
use splash4_parmacs::{json, Json};
use std::time::Instant;

/// Bootstrap resampling seed. Fixed so every bench run (and every test) draws
/// the same resampling plan; varying it only perturbs CI endpoints within
/// their own Monte-Carlo error.
pub const BOOTSTRAP_SEED: u64 = 0x0591_A544_C0DE;

/// Confidence level of every interval this module produces.
pub const CONFIDENCE: f64 = 0.95;

/// Tuning knobs for one adaptive measurement.
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Repetitions always taken before the stopping rule is consulted.
    pub min_reps: usize,
    /// Hard repetition cap (the stopping rule may leave the CI wider than
    /// the target on very noisy hosts; the summary records what it got).
    pub max_reps: usize,
    /// Stop once the CI half-width falls below this fraction of the median.
    pub target_rci: f64,
    /// Bootstrap resamples per interval.
    pub resamples: usize,
}

impl MeasureConfig {
    /// Full-size configuration (local perf tracking).
    pub fn full() -> MeasureConfig {
        MeasureConfig {
            min_reps: 5,
            max_reps: 15,
            target_rci: 0.05,
            resamples: 600,
        }
    }

    /// CI-sized configuration: fewer reps, looser target.
    pub fn quick() -> MeasureConfig {
        MeasureConfig {
            min_reps: 3,
            max_reps: 7,
            target_rci: 0.15,
            resamples: 300,
        }
    }
}

/// Outlier-robust summary of one metric's repetition samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Lower bound of the bootstrap 95 % CI of the median.
    pub ci_lo: f64,
    /// Upper bound of the bootstrap 95 % CI of the median.
    pub ci_hi: f64,
    /// Number of measured repetitions behind the summary.
    pub reps: usize,
    /// Robust coefficient of variation: `1.4826 · MAD / median` (the 1.4826
    /// factor makes MAD consistent with σ under normality).
    pub cv: f64,
    /// The raw per-repetition samples, kept for auditability and so a later
    /// reader can re-run the bootstrap on the recorded data.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarize a non-empty sample set: median, MAD-based CV, and a
    /// deterministic bootstrap CI of the median.
    ///
    /// # Panics
    /// Panics on an empty slice or NaN samples.
    pub fn from_samples(samples: &[f64], resamples: usize) -> Summary {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        let med = median(samples);
        let (ci_lo, ci_hi) = bootstrap_ci(samples, resamples, BOOTSTRAP_SEED);
        let m = mad(samples, med);
        Summary {
            median: med,
            ci_lo,
            ci_hi,
            reps: samples.len(),
            cv: if med.abs() > 0.0 {
                1.4826 * m / med.abs()
            } else {
                0.0
            },
            samples: samples.to_vec(),
        }
    }

    /// A single value as a summary with a degenerate (zero-width) interval.
    pub fn point(value: f64) -> Summary {
        Summary {
            median: value,
            ci_lo: value,
            ci_hi: value,
            reps: 1,
            cv: 0.0,
            samples: vec![value],
        }
    }

    /// CI half-width as a fraction of the median (`inf` if the median is 0).
    pub fn relative_half_width(&self) -> f64 {
        let hw = (self.ci_hi - self.ci_lo) / 2.0;
        if self.median.abs() > 0.0 {
            hw / self.median.abs()
        } else {
            f64::INFINITY
        }
    }

    /// Linearly rescale into a different unit (e.g. seconds per timed pass
    /// into nanoseconds per operation): median, interval endpoints, and the
    /// recorded samples all multiply by `k`. The factor must be positive so
    /// the interval orientation is preserved.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite factor.
    pub fn scale(&self, k: f64) -> Summary {
        assert!(k.is_finite() && k > 0.0, "scale factor must be positive");
        Summary {
            median: self.median * k,
            ci_lo: self.ci_lo * k,
            ci_hi: self.ci_hi * k,
            reps: self.reps,
            cv: self.cv,
            samples: self.samples.iter().map(|&s| s * k).collect(),
        }
    }

    /// Encode as the v2 per-metric JSON object.
    pub fn to_json(&self) -> Json {
        json!({
            "median": self.median,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "reps": self.reps as u64,
            "cv": self.cv,
            "samples": Json::from_f64s(&self.samples),
        })
    }

    /// Decode a v2 per-metric object. The `samples` array is optional (a
    /// hand-written candidate document may omit it); every other field is
    /// required and validated for basic sanity.
    pub fn from_json(v: &Json) -> Result<Summary, String> {
        let num = |key: &str| {
            v[key]
                .as_f64()
                .ok_or_else(|| format!("summary field `{key}` missing or not a number"))
        };
        let median = num("median")?;
        let ci_lo = num("ci_lo")?;
        let ci_hi = num("ci_hi")?;
        let reps = v["reps"]
            .as_u64()
            .ok_or("summary field `reps` missing or not a count")? as usize;
        let cv = num("cv")?;
        let samples = match &v["samples"] {
            Json::Null => Vec::new(),
            other => other
                .as_f64_array()
                .ok_or("summary field `samples` not a float array")?,
        };
        let s = Summary {
            median,
            ci_lo,
            ci_hi,
            reps,
            cv,
            samples,
        };
        s.check()?;
        Ok(s)
    }

    /// Structural invariants every summary must satisfy (`--validate` runs
    /// this over whole documents).
    pub fn check(&self) -> Result<(), String> {
        if !(self.median.is_finite() && self.ci_lo.is_finite() && self.ci_hi.is_finite()) {
            return Err("summary has non-finite statistics".into());
        }
        if !(self.ci_lo <= self.median && self.median <= self.ci_hi) {
            return Err(format!(
                "summary CI [{}, {}] does not bracket median {}",
                self.ci_lo, self.ci_hi, self.median
            ));
        }
        if self.reps == 0 {
            return Err("summary has zero repetitions".into());
        }
        if !(self.cv.is_finite() && self.cv >= 0.0) {
            return Err(format!("summary cv {} invalid", self.cv));
        }
        if !self.samples.is_empty() && self.samples.len() != self.reps {
            return Err(format!(
                "summary records {} samples but reps={}",
                self.samples.len(),
                self.reps
            ));
        }
        Ok(())
    }
}

/// Median of a non-empty slice (midpoint average for even lengths).
///
/// # Panics
/// Panics on an empty slice or NaN samples.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of zero samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation around `center`.
pub fn mad(samples: &[f64], center: f64) -> f64 {
    let devs: Vec<f64> = samples.iter().map(|&s| (s - center).abs()).collect();
    median(&devs)
}

/// Percentile bootstrap 95 % CI of the median: `resamples` draws with
/// replacement, each summarized by its median, interval at the 2.5th/97.5th
/// percentiles of those medians. Deterministic for a given `(samples,
/// resamples, seed)` triple — resampling indices come from [`SmallRng`].
pub fn bootstrap_ci(samples: &[f64], resamples: usize, seed: u64) -> (f64, f64) {
    assert!(!samples.is_empty(), "bootstrap of zero samples");
    if samples.len() == 1 {
        return (samples[0], samples[0]);
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ (samples.len() as u64).rotate_left(17));
    let n = samples.len();
    let mut medians = Vec::with_capacity(resamples.max(1));
    let mut draw = vec![0.0f64; n];
    for _ in 0..resamples.max(1) {
        for slot in draw.iter_mut() {
            *slot = samples[rng.gen_range(0..n)];
        }
        medians.push(median(&draw));
    }
    medians.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN median"));
    let alpha = (1.0 - CONFIDENCE) / 2.0;
    let pick = |q: f64| {
        let idx = (q * (medians.len() - 1) as f64).round() as usize;
        medians[idx.min(medians.len() - 1)]
    };
    (pick(alpha), pick(1.0 - alpha))
}

/// Adaptively sample `sample` (one call = one measured repetition, returning
/// the measured value) until the bootstrap CI of the median is tighter than
/// `cfg.target_rci` or `cfg.max_reps` repetitions have run, then summarize.
pub fn measure_adaptive(cfg: &MeasureConfig, mut sample: impl FnMut() -> f64) -> Summary {
    let mut samples = Vec::with_capacity(cfg.min_reps);
    loop {
        samples.push(sample());
        if samples.len() < cfg.min_reps.max(2) {
            continue;
        }
        let s = Summary::from_samples(&samples, cfg.resamples);
        if s.relative_half_width() <= cfg.target_rci || samples.len() >= cfg.max_reps.max(1) {
            return s;
        }
    }
}

/// [`measure_adaptive`] specialized to wall-clock timing of a closure, in
/// seconds per call, with one untimed warmup pass (faults pages, warms
/// caches, resolves lazy init).
pub fn time_adaptive(cfg: &MeasureConfig, mut f: impl FnMut()) -> Summary {
    f();
    measure_adaptive(cfg, || {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    })
}

/// Geometric mean of a set of ratios (the right aggregate for normalized
/// quantities: a 2× gain and a 2× loss cancel to 1.0). Ignores non-positive
/// entries; NaN when none remain.
pub fn geomean_ratios(ratios: &[f64]) -> f64 {
    crate::tables::geomean(ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust() {
        let clean = [10.0, 11.0, 9.0, 10.5, 9.5];
        let outlier = [10.0, 11.0, 9.0, 10.5, 500.0];
        assert_eq!(median(&clean), 10.0);
        assert_eq!(median(&outlier), 10.5);
        assert!(
            mad(&outlier, median(&outlier)) < 2.0,
            "MAD shrugs off the outlier"
        );
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn bootstrap_is_deterministic_under_seeding() {
        let samples = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.85];
        let a = bootstrap_ci(&samples, 400, BOOTSTRAP_SEED);
        let b = bootstrap_ci(&samples, 400, BOOTSTRAP_SEED);
        assert_eq!(a, b, "same seed, same interval");
        // (A different seed draws a different resampling plan, but with few
        // samples the percentile endpoints may still coincide — determinism,
        // not divergence, is the property the gate relies on.)
        // Interval brackets the median and stays inside the sample range.
        let med = median(&samples);
        assert!(a.0 <= med && med <= a.1);
        assert!(a.0 >= 0.85 && a.1 <= 1.2);
    }

    #[test]
    fn bootstrap_narrows_with_tighter_samples() {
        let noisy = [1.0, 2.0, 0.5, 1.8, 0.7, 1.4, 0.9, 1.6];
        let tight = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99];
        let (nl, nh) = bootstrap_ci(&noisy, 400, BOOTSTRAP_SEED);
        let (tl, th) = bootstrap_ci(&tight, 400, BOOTSTRAP_SEED);
        assert!(th - tl < nh - nl);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::from_samples(&[3.0, 3.2, 2.9, 3.1, 3.05], 300);
        let decoded = Summary::from_json(&s.to_json()).expect("decodes");
        assert_eq!(decoded, s);
        s.check().expect("self-consistent");
        // Omitted samples array falls back to the median.
        let bare = json!({
            "median": 2.0, "ci_lo": 1.5, "ci_hi": 2.5, "reps": 4u64, "cv": 0.1,
        });
        let d = Summary::from_json(&bare).expect("samples optional");
        assert!(d.samples.is_empty());
        // Corrupt documents are rejected, not guessed at.
        let bad = json!({
            "median": 2.0, "ci_lo": 2.5, "ci_hi": 1.5, "reps": 4u64, "cv": 0.1,
        });
        assert!(Summary::from_json(&bad).is_err());
        assert!(Summary::from_json(&json!({"median": 1.0})).is_err());
    }

    #[test]
    fn scale_preserves_shape() {
        let secs = Summary::from_samples(&[0.5, 0.55, 0.45, 0.5, 0.52], 300);
        let ns = secs.scale(1e9 / 1000.0); // 1000 ops per pass, ns/op
        assert!((ns.median - secs.median * 1e6).abs() < 1e-3);
        assert!(ns.ci_lo <= ns.median && ns.median <= ns.ci_hi);
        assert_eq!(ns.reps, secs.reps);
        assert_eq!(ns.cv, secs.cv);
        ns.check().expect("scaled summary valid");
    }

    #[test]
    fn adaptive_measurement_stops_early_when_quiet() {
        let cfg = MeasureConfig {
            min_reps: 3,
            max_reps: 50,
            target_rci: 0.10,
            resamples: 300,
        };
        // A noiseless source satisfies the stopping rule at min_reps.
        let mut n = 0usize;
        let s = measure_adaptive(&cfg, || {
            n += 1;
            42.0
        });
        assert_eq!(s.reps, 3);
        assert_eq!(n, 3);
        assert_eq!(s.median, 42.0);
        assert_eq!((s.ci_lo, s.ci_hi), (42.0, 42.0));
    }

    #[test]
    fn adaptive_measurement_caps_reps_when_noisy() {
        let cfg = MeasureConfig {
            min_reps: 3,
            max_reps: 8,
            target_rci: 0.001, // unreachable for this source
            resamples: 200,
        };
        // Deterministic "noise": alternating high/low values keep the CI wide.
        let mut rng = SmallRng::seed_from_u64(7);
        let s = measure_adaptive(&cfg, || 1.0 + rng.unit_f64());
        assert_eq!(s.reps, 8, "cap reached");
        assert!(s.relative_half_width() > cfg.target_rci);
    }

    #[test]
    fn geomean_ratios_cancels_symmetric_changes() {
        assert!((geomean_ratios(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean_ratios(&[1.1, 1.1, 1.1]) - 1.1).abs() < 1e-12);
    }
}
