//! Bench-document model, validation, and the noise-aware regression gate.
//!
//! `splash4-report --validate` and `--compare` both run on the document
//! model in this module. A [`BenchDoc`] is the decoded form of a
//! `BENCH_results.json`: a flat list of named metrics, each carrying a
//! [`Summary`] and a [`MetricClass`]. The one schema is
//! **`splash4-bench-v2`**: every metric is a full
//! `{median, ci_lo, ci_hi, reps, cv, samples}` object produced by
//! [`crate::measure`].
//!
//! The comparison itself is paired and class-aware. A delta only *gates*
//! (non-zero exit) when it is **statistically resolvable**: the two 95 %
//! intervals are disjoint in the regressing direction *and* the median
//! effect exceeds the metric class's minimum-effect threshold. Overlapping
//! intervals or sub-threshold effects report as within-noise. Absolute
//! metrics (throughput, wall seconds) additionally require the two
//! documents' workload configs to match — absolute rates from different
//! hosts or bench sizes are not commensurable — while ratio-class metrics
//! (lock-free/lock-based, engine/reference) are host-normalized and gate
//! unconditionally; this is the ratio-of-ratios trick that makes the gate
//! usable on noisy shared CI runners.

use crate::measure::{geomean_ratios, Summary};
use crate::tables::Table;
use splash4_parmacs::Json;
use std::path::Path;

/// What a metric measures, which fixes its regression direction and its
/// minimum resolvable effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Operations per second; higher is better. Host-absolute.
    Throughput,
    /// Wall-clock seconds; lower is better. Host-absolute.
    Wall,
    /// A dimensionless ratio of two same-host measurements; higher is
    /// better. Host-normalized, so comparable across hosts and bench sizes.
    Ratio,
}

impl MetricClass {
    /// Minimum median effect (fractional departure from 1.0) a regression
    /// must show before it can gate. Below this, even a statistically
    /// resolved delta is reported but not enforced.
    pub fn min_effect(self) -> f64 {
        match self {
            // Native sync microbenches swing with scheduler placement.
            MetricClass::Throughput => 0.10,
            // End-to-end wall time folds in everything; be generous.
            MetricClass::Wall => 0.15,
            // Cross-host gating needs the widest margin of the three.
            MetricClass::Ratio => 0.20,
        }
    }

    /// `true` when smaller values are improvements (wall seconds).
    pub fn lower_is_better(self) -> bool {
        matches!(self, MetricClass::Wall)
    }

    /// `true` when the metric is comparable across hosts and bench sizes.
    pub fn portable(self) -> bool {
        matches!(self, MetricClass::Ratio)
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MetricClass::Throughput => "thru",
            MetricClass::Wall => "wall",
            MetricClass::Ratio => "ratio",
        }
    }
}

/// One named, classed, summarized metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Flattened name, e.g. `reducer_ops_per_sec/splash4`.
    pub name: String,
    /// Regression semantics.
    pub class: MetricClass,
    /// The measurement.
    pub summary: Summary,
}

/// A decoded bench document.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// The raw `config` block (workload sizing; compared for commensurability).
    pub config: Json,
    /// All metrics, in document order.
    pub metrics: Vec<Metric>,
}

/// The per-backend metric groups every document must carry.
const BACKEND_METRICS: [&str; 3] = [
    "reducer_ops_per_sec",
    "counter_grabs_per_sec",
    "barrier_crossings_per_sec",
];

/// The sync back-end labels every document must carry as JSON keys. The
/// third generation (`splash4x`, flat combining) arrived later and decodes
/// optionally — see [`OPTIONAL_BACKEND`].
const BACKENDS: [&str; 2] = ["splash3", "splash4"];

/// Back-end key that is decoded when present but not required, so documents
/// written before the combining generation keep validating and comparing.
const OPTIONAL_BACKEND: &str = "splash4x";

/// Per-backend groups for the registry-extension workload families, shaped
/// exactly like [`BACKEND_METRICS`] but optional: baselines written before
/// the `cmap`/`stream` families keep validating and comparing.
const FAMILY_METRICS: [&str; 2] = ["cmap", "stream"];

/// Config keys that define the workload shape; absolute metrics are only
/// gateable when these match between baseline and candidate. The two serve
/// keys decode as `Null` in documents predating the serve subsystem, so
/// old-vs-old comparisons still match (`Null == Null`) while old-vs-new
/// correctly demote absolute metrics to info-only.
const SHAPE_KEYS: [&str; 8] = [
    "quick",
    "threads",
    "sync_ops",
    "barrier_crossings",
    "sim_cores",
    "sim_ops_per_core",
    "serve_sim_cores",
    "serve_requests",
];

impl BenchDoc {
    /// Parse and validate bench JSON text.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let doc = Json::parse(text)?;
        BenchDoc::from_json(&doc)
    }

    /// Decode a bench document, dispatching on its `schema` field.
    pub fn from_json(doc: &Json) -> Result<BenchDoc, String> {
        match doc["schema"].as_str() {
            Some("splash4-bench-v2") => BenchDoc::decode(doc),
            Some(other) => Err(format!("unknown bench schema `{other}`")),
            None => Err("document has no `schema` string".into()),
        }
    }

    fn decode(doc: &Json) -> Result<BenchDoc, String> {
        let config = doc["config"].clone();
        if config.as_object().is_none() {
            return Err("document has no `config` object".into());
        }
        if config["quick"].as_bool().is_none() {
            return Err("config has no boolean `quick`".into());
        }
        let metrics_json = &doc["metrics"];
        if metrics_json.as_object().is_none() {
            return Err("document has no `metrics` object".into());
        }
        let read = |v: &Json, what: &str| -> Result<Summary, String> {
            let s = Summary::from_json(v).map_err(|e| format!("metric `{what}`: {e}"))?;
            if !(s.median.is_finite() && s.median > 0.0) {
                return Err(format!("metric `{what}`: median must be positive"));
            }
            Ok(s)
        };

        // The core groups (per-backend sync throughput, sim engine rates,
        // report wall) are all-or-nothing: a full bench document must carry
        // every one of them, so a run that silently lost a group still fails
        // validation. Subset documents (`--bench atomics` writes config +
        // the `atomics` matrix only, as calibration input) carry *none* of
        // the core groups and decode to just the groups they have.
        let has_core = BACKEND_METRICS.iter().any(|g| !metrics_json[*g].is_null())
            || !metrics_json["sim_events_per_sec"].is_null()
            || !metrics_json["report_wall_secs"].is_null();

        let mut metrics = Vec::new();
        if has_core {
            for group in BACKEND_METRICS {
                let g = &metrics_json[group];
                if g.as_object().is_none() {
                    return Err(format!("missing metric group `{group}`"));
                }
                for backend in BACKENDS {
                    let name = format!("{group}/{backend}");
                    metrics.push(Metric {
                        summary: read(&g[backend], &name)?,
                        name,
                        class: MetricClass::Throughput,
                    });
                }
                // The combining generation, when the document carries it.
                if !g[OPTIONAL_BACKEND].is_null() {
                    let name = format!("{group}/{OPTIONAL_BACKEND}");
                    metrics.push(Metric {
                        name: name.clone(),
                        class: MetricClass::Throughput,
                        summary: read(&g[OPTIONAL_BACKEND], &name)?,
                    });
                }
                // Lock-free over lock-based: the host-normalized form of the
                // group.
                let ratio = match &g["ratio"] {
                    Json::Null => return Err(format!("metric group `{group}` missing `ratio`")),
                    v => read(v, &format!("{group}/ratio"))?,
                };
                metrics.push(Metric {
                    name: format!("{group}/ratio"),
                    class: MetricClass::Ratio,
                    summary: ratio,
                });
            }

            let sim = &metrics_json["sim_events_per_sec"];
            if sim.as_object().is_none() {
                return Err("missing metric group `sim_events_per_sec`".into());
            }
            for part in ["engine", "reference"] {
                metrics.push(Metric {
                    name: format!("sim_events_per_sec/{part}"),
                    class: MetricClass::Throughput,
                    summary: read(&sim[part], &format!("sim_events_per_sec/{part}"))?,
                });
            }
            metrics.push(Metric {
                name: "sim_events_per_sec/speedup".into(),
                class: MetricClass::Ratio,
                summary: read(&sim["speedup"], "sim_events_per_sec/speedup")?,
            });
            metrics.push(Metric {
                name: "report_wall_secs".into(),
                class: MetricClass::Wall,
                summary: read(&metrics_json["report_wall_secs"], "report_wall_secs")?,
            });
        }

        // The serve group (experiment-service throughput and the many-core
        // barrier-release retime ratio) arrived after v2 shipped; it is
        // optional so pre-serve documents keep validating and comparing.
        // When both sides carry it, `compare` picks it up by name like any
        // other metric.
        let serve = &metrics_json["serve"];
        if serve.as_object().is_some() {
            for (part, class) in [
                ("requests_per_sec", MetricClass::Throughput),
                ("events_per_sec_p1024", MetricClass::Throughput),
                ("retime_speedup", MetricClass::Ratio),
            ] {
                metrics.push(Metric {
                    name: format!("serve/{part}"),
                    class,
                    summary: read(&serve[part], &format!("serve/{part}"))?,
                });
            }
        } else if !serve.is_null() {
            return Err("`serve` metric group must be an object when present".into());
        }

        // The reclaim group (dynamic-pool churn vs the index-based stack,
        // and the EBR/HP crossover ratio) is optional for the same reason:
        // baselines written before the reclamation layer keep validating
        // and comparing on the metrics both sides carry.
        let reclaim = &metrics_json["reclaim"];
        if reclaim.as_object().is_some() {
            for (part, class) in [
                ("index_pool_ops_per_sec", MetricClass::Throughput),
                ("epoch_pool_ops_per_sec", MetricClass::Throughput),
                ("hazard_pool_ops_per_sec", MetricClass::Throughput),
                ("epoch_vs_index_ratio", MetricClass::Ratio),
                ("epoch_vs_hazard_ratio", MetricClass::Ratio),
            ] {
                metrics.push(Metric {
                    name: format!("reclaim/{part}"),
                    class,
                    summary: read(&reclaim[part], &format!("reclaim/{part}"))?,
                });
            }
        } else if !reclaim.is_null() {
            return Err("`reclaim` metric group must be an object when present".into());
        }

        // The combining group (third-generation flat-combining primitives
        // against the lock-free generation) is optional for the same
        // reason. Every member is a host-normalized ratio, so all of it
        // gates cross-host; `combining_vs_lockfree_ratio` is the paired
        // headline the CI `--compare` step watches.
        let combining = &metrics_json["combining"];
        if combining.as_object().is_some() {
            for part in [
                "reducer_vs_lockfree_ratio",
                "counter_vs_lockfree_ratio",
                "barrier_vs_lockfree_ratio",
                "combining_vs_lockfree_ratio",
            ] {
                metrics.push(Metric {
                    name: format!("combining/{part}"),
                    class: MetricClass::Ratio,
                    summary: read(&combining[part], &format!("combining/{part}"))?,
                });
            }
        } else if !combining.is_null() {
            return Err("`combining` metric group must be an object when present".into());
        }

        // The registry-extension workload families bench whole-kernel churn
        // per back-end (`cmap` map operations/sec, `stream` pipeline
        // items/sec). Optional so pre-extension baselines keep validating;
        // shape and classes mirror the core per-backend groups, so each
        // family's lockfree/lockbased ratio gates cross-host and the raw
        // rates gate between matching hosts.
        for group in FAMILY_METRICS {
            let g = &metrics_json[group];
            if g.as_object().is_none() {
                if !g.is_null() {
                    return Err(format!(
                        "`{group}` metric group must be an object when present"
                    ));
                }
                continue;
            }
            for backend in BACKENDS {
                let name = format!("{group}/{backend}");
                metrics.push(Metric {
                    name: name.clone(),
                    class: MetricClass::Throughput,
                    summary: read(&g[backend], &name)?,
                });
            }
            if !g[OPTIONAL_BACKEND].is_null() {
                let name = format!("{group}/{OPTIONAL_BACKEND}");
                metrics.push(Metric {
                    name: name.clone(),
                    class: MetricClass::Throughput,
                    summary: read(&g[OPTIONAL_BACKEND], &name)?,
                });
            }
            let name = format!("{group}/ratio");
            metrics.push(Metric {
                name: name.clone(),
                class: MetricClass::Ratio,
                summary: read(&g["ratio"], &name)?,
            });
        }

        // The atomic cost matrix (`--bench atomics`). Unlike every group
        // above, its cell set is open-ended — contention levels depend on
        // the measured thread count — so the decode is dynamic: every entry
        // must be a summary, and every cell is host-absolute nanoseconds
        // per op (`Wall`: lower is better, gate-eligible only between
        // matching configs, informational otherwise). Deliberately no
        // ratio-class atomics: per the paper, contended-atomic costs *are*
        // host properties — they feed `sim::calibrate`, not a cross-host
        // gate.
        let atomics = &metrics_json["atomics"];
        if let Some(entries) = atomics.as_object() {
            if entries.is_empty() {
                return Err("`atomics` metric group is empty".into());
            }
            for (cell, v) in entries {
                let name = format!("atomics/{cell}");
                let summary = read(v, &name)?;
                metrics.push(Metric {
                    name,
                    class: MetricClass::Wall,
                    summary,
                });
            }
        } else if !atomics.is_null() {
            return Err("`atomics` metric group must be an object when present".into());
        }

        if metrics.is_empty() {
            return Err("document carries no metric groups".into());
        }

        for m in &metrics {
            m.summary
                .check()
                .map_err(|e| format!("metric `{}`: {e}", m.name))?;
        }
        Ok(BenchDoc { config, metrics })
    }

    /// `true` when the two documents ran the same workload shape (same
    /// quick/size knobs), making absolute metrics commensurable.
    pub fn config_matches(&self, other: &BenchDoc) -> bool {
        SHAPE_KEYS
            .iter()
            .all(|k| self.config[*k] == other.config[*k])
    }

    /// Look up a metric by flattened name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Validate bench JSON text: schema, structure, and summary invariants.
/// Returns a short human-readable description of what was checked.
pub fn validate(text: &str) -> Result<String, String> {
    let doc = BenchDoc::parse(text)?;
    Ok(format!(
        "splash4-bench-v2: {} metrics ok ({} gateable cross-host)",
        doc.metrics.len(),
        doc.metrics.iter().filter(|m| m.class.portable()).count()
    ))
}

/// Outcome for one metric in a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Delta within noise or below the class's minimum effect.
    WithinNoise,
    /// Statistically resolved improvement.
    Improved,
    /// Statistically resolved regression — gates.
    Regressed,
    /// Absolute metric under mismatched configs: reported, never gated.
    Informational,
    /// Metric present only in the candidate (the baseline predates the
    /// group): reported for visibility, never gated — a baseline cannot
    /// regress on a number it never recorded.
    New,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinNoise => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Informational => "info-only",
            Verdict::New => "new (info-only)",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Flattened metric name.
    pub name: String,
    /// Metric semantics.
    pub class: MetricClass,
    /// Baseline summary.
    pub base: Summary,
    /// Candidate summary.
    pub cand: Summary,
    /// Candidate median over baseline median.
    pub ratio: f64,
    /// `true` when the two 95 % CIs are disjoint (in either direction).
    pub resolvable: bool,
    /// Gate outcome.
    pub verdict: Verdict,
}

/// Full result of a document comparison.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-metric outcomes, in document order.
    pub deltas: Vec<Delta>,
    /// Geometric mean of candidate/baseline ratios over metrics where
    /// higher-is-better (wall times enter inverted), i.e. > 1.0 means the
    /// candidate is faster overall.
    pub geomean_speedup: f64,
    /// `true` when absolute metrics were gateable (configs matched).
    pub configs_match: bool,
}

impl CompareReport {
    /// Names of the metrics that gate (resolved regressions).
    pub fn regressions(&self) -> Vec<&str> {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regressed)
            .map(|d| d.name.as_str())
            .collect()
    }

    /// `true` when nothing gates.
    pub fn pass(&self) -> bool {
        self.regressions().is_empty()
    }

    /// Render the human-readable delta table plus verdict footer.
    pub fn to_text(&self) -> String {
        let mut t = Table::new(vec![
            "metric",
            "class",
            "baseline",
            "candidate",
            "delta",
            "95% CI",
            "verdict",
        ]);
        for d in &self.deltas {
            let is_new = d.verdict == Verdict::New;
            t.row(vec![
                d.name.clone(),
                d.class.label().into(),
                if is_new {
                    "-".into()
                } else {
                    fmt_value(d.base.median)
                },
                fmt_value(d.cand.median),
                if is_new {
                    "-".into()
                } else {
                    format!("{:+.1}%", (d.ratio - 1.0) * 100.0)
                },
                if is_new {
                    "-".into()
                } else if d.resolvable {
                    "disjoint".into()
                } else {
                    "overlap".into()
                },
                d.verdict.label().into(),
            ]);
        }
        let mut out = t.render();
        if !self.configs_match {
            out.push_str(
                "note: workload configs differ — absolute metrics (thru/wall) are\n\
                 info-only; ratio metrics gate cross-host.\n",
            );
        }
        out.push_str(&format!(
            "geomean speedup (candidate vs baseline, >1 is faster): {:.3}\n",
            self.geomean_speedup
        ));
        let regs = self.regressions();
        if regs.is_empty() {
            out.push_str("PASS: no statistically resolvable regression\n");
        } else {
            out.push_str(&format!(
                "FAIL: resolvable regression in {}\n",
                regs.join(", ")
            ));
        }
        out
    }
}

/// Adaptive value formatting for the delta table (rates in M/k, small
/// quantities plain).
fn fmt_value(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.3} M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1} k", v / 1e3)
    } else {
        format!("{v:.4}")
    }
}

/// Noise-aware paired comparison of two decoded documents.
///
/// Metrics present in both documents are compared by name. A metric gates
/// as regressed only when (a) its class is gateable under the config match
/// state, (b) the two intervals are disjoint in the regressing direction,
/// and (c) the median effect exceeds the class minimum. Disjoint
/// improvements are labeled, everything else is within-noise.
///
/// Metrics only the *candidate* carries — a baseline written before a bench
/// group existed — are appended as [`Verdict::New`]: visible in the table,
/// excluded from the speedup geomean, and never gating. (Metrics only the
/// baseline carries are dropped: the candidate checkout no longer measures
/// them, so there is nothing to compare.)
pub fn compare(base: &BenchDoc, cand: &BenchDoc) -> CompareReport {
    let configs_match = base.config_matches(cand);
    let mut deltas = Vec::new();
    let mut speedup_ratios = Vec::new();
    for bm in &base.metrics {
        let Some(cm) = cand.metric(&bm.name) else {
            continue;
        };
        let (b, c) = (&bm.summary, &cm.summary);
        let ratio = c.median / b.median.max(1e-300);
        // Direction-normalized speedup: >1 always means "candidate better".
        speedup_ratios.push(if bm.class.lower_is_better() {
            1.0 / ratio.max(1e-300)
        } else {
            ratio
        });
        let cand_worse_resolved = if bm.class.lower_is_better() {
            c.ci_lo > b.ci_hi
        } else {
            c.ci_hi < b.ci_lo
        };
        let cand_better_resolved = if bm.class.lower_is_better() {
            c.ci_hi < b.ci_lo
        } else {
            c.ci_lo > b.ci_hi
        };
        let effect = if bm.class.lower_is_better() {
            ratio - 1.0 // slower = ratio above 1
        } else {
            1.0 - ratio // slower = ratio below 1
        };
        // Incommensurable deltas (absolute metrics across differing configs
        // or hosts) are reported in both directions but never interpreted:
        // a "2× faster engine" on a 10× smaller program means nothing.
        let gateable = configs_match || bm.class.portable();
        let verdict = if !gateable && (cand_worse_resolved || cand_better_resolved) {
            Verdict::Informational
        } else if cand_worse_resolved && effect >= bm.class.min_effect() {
            Verdict::Regressed
        } else if cand_better_resolved && -effect >= bm.class.min_effect() {
            Verdict::Improved
        } else {
            Verdict::WithinNoise
        };
        deltas.push(Delta {
            name: bm.name.clone(),
            class: bm.class,
            base: b.clone(),
            cand: c.clone(),
            ratio,
            resolvable: cand_worse_resolved || cand_better_resolved,
            verdict,
        });
    }
    for cm in &cand.metrics {
        if base.metric(&cm.name).is_none() {
            deltas.push(Delta {
                name: cm.name.clone(),
                class: cm.class,
                // No baseline exists; carry the candidate on both sides so
                // the row renders (the table prints `-` for the base and
                // delta columns of a `New` verdict).
                base: cm.summary.clone(),
                cand: cm.summary.clone(),
                ratio: 1.0,
                resolvable: false,
                verdict: Verdict::New,
            });
        }
    }
    CompareReport {
        deltas,
        geomean_speedup: geomean_ratios(&speedup_ratios),
        configs_match,
    }
}

/// Compare two bench documents from JSON text (either schema generation on
/// either side).
pub fn compare_texts(base: &str, cand: &str) -> Result<CompareReport, String> {
    let b = BenchDoc::parse(base).map_err(|e| format!("baseline: {e}"))?;
    let c = BenchDoc::parse(cand).map_err(|e| format!("candidate: {e}"))?;
    Ok(compare(&b, &c))
}

/// Write `contents` to `path`, refusing to clobber an existing file unless
/// `force` is set. `--bench-out` goes through this: silently overwriting the
/// previous results document loses the local baseline the user was about to
/// compare against.
pub fn write_guarded(path: &Path, contents: &str, force: bool) -> Result<(), String> {
    if path.exists() && !force {
        return Err(format!(
            "refusing to overwrite existing {} (pass --force to replace it)",
            path.display()
        ));
    }
    std::fs::write(path, contents).map_err(|e| format!("failed to write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Summary;
    use splash4_parmacs::json;

    /// A minimal, structurally complete v2 document where every rate metric
    /// scales with `scale`, every CI is ±`rci`·median, and 5 reps.
    fn synth_v2(scale: f64, rci: f64, quick: bool) -> String {
        synth_v2_with(scale, rci, quick, 30.0 / 17.0)
    }

    fn synth_v2_with(scale: f64, rci: f64, quick: bool, speedup: f64) -> String {
        synth_v2_serve(scale, rci, quick, speedup, 1.6)
    }

    fn synth_v2_serve(scale: f64, rci: f64, quick: bool, speedup: f64, retime: f64) -> String {
        synth_v2_reclaim(scale, rci, quick, speedup, retime, 8.0 / 5.0)
    }

    fn synth_v2_reclaim(
        scale: f64,
        rci: f64,
        quick: bool,
        speedup: f64,
        retime: f64,
        crossover: f64,
    ) -> String {
        synth_v2_combining(scale, rci, quick, speedup, retime, crossover, 1.3)
    }

    #[allow(clippy::too_many_arguments)]
    fn synth_v2_combining(
        scale: f64,
        rci: f64,
        quick: bool,
        speedup: f64,
        retime: f64,
        crossover: f64,
        combining: f64,
    ) -> String {
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
                "splash4x": s(m4 * 0.8 * scale),
                "ratio": s(m4 / m3),
            })
        };
        json!({
            "schema": "splash4-bench-v2",
            "config": json!({
                "quick": quick,
                "repetitions": 5u64,
                "threads": 4u64,
                "sync_ops": 1000u64,
                "barrier_crossings": 100u64,
                "sim_cores": 8u64,
                "sim_ops_per_core": 100u64,
                "serve_sim_cores": 1024u64,
                "serve_requests": 8u64,
            }),
            "metrics": json!({
                "reducer_ops_per_sec": group(5.0e6, 40.0e6),
                "counter_grabs_per_sec": group(4.5e6, 40.0e6),
                "barrier_crossings_per_sec": group(1.5e5, 1.1e5),
                "sim_events_per_sec": json!({
                    "engine": s(30.0e6 * scale),
                    "reference": s(17.0e6 * scale),
                    "speedup": s(speedup),
                }),
                "report_wall_secs": s(0.25 / scale),
                "serve": json!({
                    "requests_per_sec": s(120.0 * scale),
                    "events_per_sec_p1024": s(2.0e6 * scale),
                    "retime_speedup": s(retime),
                }),
                "reclaim": json!({
                    "index_pool_ops_per_sec": s(12.0e6 * scale),
                    "epoch_pool_ops_per_sec": s(8.0e6 * scale),
                    "hazard_pool_ops_per_sec": s(5.0e6 * scale),
                    "epoch_vs_index_ratio": s(8.0 / 12.0),
                    "epoch_vs_hazard_ratio": s(crossover),
                }),
                "combining": json!({
                    "reducer_vs_lockfree_ratio": s(0.8),
                    "counter_vs_lockfree_ratio": s(0.8),
                    "barrier_vs_lockfree_ratio": s(0.8),
                    "combining_vs_lockfree_ratio": s(combining),
                }),
            }),
        })
        .to_string_pretty()
    }

    #[test]
    fn v2_documents_validate_and_decode() {
        let text = synth_v2(1.0, 0.03, false);
        let msg = validate(&text).expect("valid");
        assert!(msg.contains("v2"), "{msg}");
        let doc = BenchDoc::parse(&text).unwrap();
        // 3 backend groups of (splash3, splash4, splash4x, ratio), then sim,
        // wall, serve, reclaim, combining.
        assert_eq!(doc.metrics.len(), 3 * 4 + 3 + 1 + 3 + 5 + 4);
        assert!(doc.metric("reducer_ops_per_sec/ratio").is_some());
        assert_eq!(
            doc.metric("counter_grabs_per_sec/splash4x").unwrap().class,
            MetricClass::Throughput
        );
        assert_eq!(
            doc.metric("combining/combining_vs_lockfree_ratio")
                .unwrap()
                .class,
            MetricClass::Ratio
        );
        assert_eq!(
            doc.metric("reclaim/epoch_vs_hazard_ratio").unwrap().class,
            MetricClass::Ratio
        );
        assert_eq!(
            doc.metric("reclaim/epoch_pool_ops_per_sec").unwrap().class,
            MetricClass::Throughput
        );
        assert_eq!(
            doc.metric("serve/retime_speedup").unwrap().class,
            MetricClass::Ratio
        );
        assert_eq!(
            doc.metric("serve/requests_per_sec").unwrap().class,
            MetricClass::Throughput
        );
    }

    #[test]
    fn pre_serve_v2_documents_still_validate_and_compare() {
        // Strip the serve group and its config keys: the shape a pre-serve
        // checkout wrote.
        let doc = Json::parse(&synth_v2(1.0, 0.03, false)).unwrap();
        let prune = |v: &Json, dead: &[&str]| {
            Json::Object(
                v.as_object()
                    .unwrap()
                    .iter()
                    .filter(|(k, _)| !dead.contains(&k.as_str()))
                    .cloned()
                    .collect(),
            )
        };
        let old = json!({
            "schema": "splash4-bench-v2",
            "config": prune(&doc["config"], &["serve_sim_cores", "serve_requests"]),
            "metrics": prune(&doc["metrics"], &["serve"]),
        })
        .to_string_pretty();
        let parsed = BenchDoc::parse(&old).expect("pre-serve documents must keep decoding");
        assert!(parsed.metric("serve/requests_per_sec").is_none());
        // Old vs old still shape-matches (Null == Null on the serve keys)…
        let r = compare_texts(&old, &old).expect("old self-compare");
        assert!(r.configs_match && r.pass());
        // …while old vs new correctly demotes absolute metrics.
        let r = compare_texts(&old, &synth_v2(1.0, 0.03, false)).expect("old vs new");
        assert!(!r.configs_match);
        assert!(r.pass(), "regressions: {:?}", r.regressions());
    }

    #[test]
    fn pre_reclaim_v2_documents_still_validate_and_compare() {
        // The shape a pre-reclaim checkout wrote: no `reclaim` group (its
        // churn knob reuses `sync_ops`, so the config is untouched).
        let doc = Json::parse(&synth_v2(1.0, 0.03, false)).unwrap();
        let metrics = Json::Object(
            doc["metrics"]
                .as_object()
                .unwrap()
                .iter()
                .filter(|(k, _)| k != "reclaim")
                .cloned()
                .collect(),
        );
        let old = json!({
            "schema": "splash4-bench-v2",
            "config": doc["config"].clone(),
            "metrics": metrics,
        })
        .to_string_pretty();
        let parsed = BenchDoc::parse(&old).expect("pre-reclaim documents must keep decoding");
        assert!(parsed.metric("reclaim/epoch_vs_index_ratio").is_none());
        let r = compare_texts(&old, &old).expect("old self-compare");
        assert!(r.configs_match && r.pass());
        // Old baseline vs new candidate: the reclaim metrics are simply not
        // shared, and everything both sides carry still gates.
        let r = compare_texts(&old, &synth_v2(1.0, 0.03, false)).expect("old vs new");
        assert!(r.configs_match, "reclaim adds no shape keys");
        assert!(r.pass(), "regressions: {:?}", r.regressions());
    }

    #[test]
    fn pre_combining_v2_documents_still_validate_and_compare() {
        // The shape a pre-combining checkout wrote: no `splash4x` entries in
        // the backend groups and no `combining` group (the generation adds
        // no shape keys — same threads, same sync_ops).
        let doc = Json::parse(&synth_v2(1.0, 0.03, false)).unwrap();
        let strip_group = |v: &Json| {
            Json::Object(
                v.as_object()
                    .unwrap()
                    .iter()
                    .filter(|(k, _)| k != "splash4x")
                    .cloned()
                    .collect(),
            )
        };
        let metrics = Json::Object(
            doc["metrics"]
                .as_object()
                .unwrap()
                .iter()
                .filter(|(k, _)| k != "combining")
                .map(|(k, v)| {
                    if BACKEND_METRICS.contains(&k.as_str()) {
                        (k.clone(), strip_group(v))
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect(),
        );
        let old = json!({
            "schema": "splash4-bench-v2",
            "config": doc["config"].clone(),
            "metrics": metrics,
        })
        .to_string_pretty();
        let parsed = BenchDoc::parse(&old).expect("pre-combining documents must keep decoding");
        assert!(parsed.metric("counter_grabs_per_sec/splash4x").is_none());
        assert!(parsed
            .metric("combining/combining_vs_lockfree_ratio")
            .is_none());
        let r = compare_texts(&old, &old).expect("old self-compare");
        assert!(r.configs_match && r.pass());
        // Old baseline vs new candidate: combining metrics simply aren't
        // shared; everything both sides carry still gates.
        let r = compare_texts(&old, &synth_v2(1.0, 0.03, false)).expect("old vs new");
        assert!(r.configs_match, "combining adds no shape keys");
        assert!(r.pass(), "regressions: {:?}", r.regressions());
    }

    #[test]
    fn combining_ratio_collapse_gates_even_cross_config() {
        let base = synth_v2(1.0, 0.02, false);
        // The paired splash4x/splash4 drain ratio is host-normalized: a
        // combining core that falls from 1.3× to 1.0× of the lock-free
        // counter must gate even when the bench sizes differ.
        let cand = synth_v2_combining(1.0, 0.02, true, 30.0 / 17.0, 1.6, 8.0 / 5.0, 1.0);
        let r = compare_texts(&base, &cand).expect("compares");
        assert!(r
            .regressions()
            .contains(&"combining/combining_vs_lockfree_ratio"));
    }

    #[test]
    fn epoch_hazard_crossover_collapse_gates_even_cross_config() {
        let base = synth_v2(1.0, 0.02, false);
        // The EBR/HP crossover is host-normalized: an epoch back-end that
        // drops to hazard-pointer speed must gate even across bench sizes.
        let cand = synth_v2_reclaim(1.0, 0.02, true, 30.0 / 17.0, 1.6, 1.0);
        let r = compare_texts(&base, &cand).expect("compares");
        assert!(r.regressions().contains(&"reclaim/epoch_vs_hazard_ratio"));
    }

    #[test]
    fn serve_retime_collapse_gates_even_cross_config() {
        let base = synth_v2(1.0, 0.02, false);
        // Different shape (quick), but the barrier-release retime ratio is
        // host-normalized: collapsing from 1.6× to 1.0× must gate.
        let cand = synth_v2_serve(1.0, 0.02, true, 30.0 / 17.0, 1.0);
        let r = compare_texts(&base, &cand).expect("compares");
        assert!(r.regressions().contains(&"serve/retime_speedup"));
    }

    /// `doc` with an `atomics` group of two cells spliced into `metrics`.
    fn with_atomics(text: &str) -> String {
        let doc = Json::parse(text).unwrap();
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
        let mut metrics = doc["metrics"].as_object().unwrap().to_vec();
        metrics.push((
            "atomics".into(),
            json!({"faa_c1_ns": s(14.0), "faa_c4_ns": s(92.0)}),
        ));
        json!({
            "schema": "splash4-bench-v2",
            "config": doc["config"].clone(),
            "metrics": Json::Object(metrics),
        })
        .to_string_pretty()
    }

    #[test]
    fn candidate_only_groups_report_as_new_and_never_gate() {
        // Baseline predates the atomics matrix; candidate carries it. The
        // extra group must not error, must not gate, and must show up as
        // `new` rows in the rendered table.
        let base = synth_v2(1.0, 0.02, false);
        let cand = with_atomics(&synth_v2(1.0, 0.02, false));
        let r = compare_texts(&base, &cand).expect("old baseline vs new candidate");
        assert!(r.configs_match, "atomics adds no shape keys");
        assert!(r.pass(), "regressions: {:?}", r.regressions());
        let news: Vec<&str> = r
            .deltas
            .iter()
            .filter(|d| d.verdict == Verdict::New)
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(news, ["atomics/faa_c1_ns", "atomics/faa_c4_ns"]);
        let text = r.to_text();
        assert!(text.contains("new (info-only)"), "{text}");
        // New rows do not perturb the geomean over shared metrics.
        assert!((r.geomean_speedup - 1.0).abs() < 1e-9);
        // Both sides carrying the group compares it normally again.
        let r = compare_texts(&cand, &cand).expect("self compare");
        assert!(r.deltas.iter().all(|d| d.verdict == Verdict::WithinNoise));
    }

    #[test]
    fn atomics_only_subset_documents_validate_and_decode() {
        // The `--bench atomics` shape: config + the atomics group, no core
        // groups at all. It must validate (it is the calibration input CI
        // uploads) while a document with *some* core groups but not all of
        // them must still be rejected.
        let full = Json::parse(&with_atomics(&synth_v2(1.0, 0.02, false))).unwrap();
        let subset = json!({
            "schema": "splash4-bench-v2",
            "config": full["config"].clone(),
            "metrics": json!({"atomics": full["metrics"]["atomics"].clone()}),
        })
        .to_string_pretty();
        let doc = BenchDoc::parse(&subset).expect("atomics-only subset decodes");
        assert_eq!(doc.metrics.len(), 2);
        assert_eq!(
            doc.metric("atomics/faa_c1_ns").unwrap().class,
            MetricClass::Wall
        );
        // Empty metrics: rejected.
        let empty = json!({
            "schema": "splash4-bench-v2",
            "config": full["config"].clone(),
            "metrics": json!({}),
        })
        .to_string_pretty();
        assert!(BenchDoc::parse(&empty)
            .unwrap_err()
            .contains("no metric groups"));
        // A malformed atomics group (not an object) is rejected.
        let bad = json!({
            "schema": "splash4-bench-v2",
            "config": full["config"].clone(),
            "metrics": json!({"atomics": 3.0}),
        })
        .to_string_pretty();
        assert!(BenchDoc::parse(&bad).unwrap_err().contains("atomics"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(validate("{}").is_err());
        // Neither a future generation nor the retired v1 has a decoder.
        for generation in ["v9", "v1"] {
            let text =
                synth_v2(1.0, 0.03, false).replace("bench-v2", &format!("bench-{generation}"));
            assert!(validate(&text)
                .unwrap_err()
                .contains("unknown bench schema"));
        }
        // Drop a required group.
        let text = synth_v2(1.0, 0.03, false).replace("report_wall_secs", "renamed");
        assert!(validate(&text).is_err());
        // CI that does not bracket the median.
        let mut s = Summary::point(1.0);
        s.ci_lo = 2.0;
        assert!(s.check().is_err());
    }

    #[test]
    fn self_comparison_passes() {
        let text = synth_v2(1.0, 0.03, false);
        let r = compare_texts(&text, &text).expect("compares");
        assert!(r.pass());
        assert!((r.geomean_speedup - 1.0).abs() < 1e-9);
        assert!(r.deltas.iter().all(|d| d.verdict == Verdict::WithinNoise));
        assert!(r.to_text().contains("PASS"));
    }

    #[test]
    fn resolvable_slowdown_gates() {
        let base = synth_v2(1.0, 0.03, false);
        let slow = synth_v2(0.5, 0.03, false); // all rates halved, wall doubled
        let r = compare_texts(&base, &slow).expect("compares");
        assert!(!r.pass());
        let regs = r.regressions();
        assert!(regs.contains(&"reducer_ops_per_sec/splash4"));
        assert!(regs.contains(&"report_wall_secs"));
        // The ratio metrics did not move (both sides scaled), so they pass.
        assert!(!regs.iter().any(|n| n.ends_with("/ratio")));
        // 17 absolute metrics at 0.5×, 11 ratio metrics at 1.0×: 0.5^(17/28).
        assert!((r.geomean_speedup - 0.5f64.powf(17.0 / 28.0)).abs() < 1e-9);
        assert!(r.to_text().contains("FAIL"));
    }

    #[test]
    fn within_noise_wiggle_does_not_gate() {
        let base = synth_v2(1.0, 0.06, false);
        let wiggle = synth_v2(1.04, 0.06, false); // 4% shift, inside ±6% CIs
        let r = compare_texts(&base, &wiggle).expect("compares");
        assert!(r.pass(), "regressions: {:?}", r.regressions());
    }

    #[test]
    fn config_mismatch_demotes_absolute_metrics() {
        let base = synth_v2(1.0, 0.02, false);
        let cand = synth_v2(0.4, 0.02, true); // much slower host, quick config
        let r = compare_texts(&base, &cand).expect("compares");
        assert!(!r.configs_match);
        // Absolute collapses are info-only; ratios unchanged → pass.
        assert!(r.pass(), "regressions: {:?}", r.regressions());
        assert!(r.deltas.iter().any(|d| d.verdict == Verdict::Informational));
        assert!(r.to_text().contains("info-only"));
    }

    #[test]
    fn ratio_regression_gates_even_cross_config() {
        let base = synth_v2(1.0, 0.02, false);
        // Candidate from a different config (quick) — but the engine speedup
        // collapsed from 1.76× to 1.05×, which is host-normalized and gates.
        let cand = synth_v2_with(1.0, 0.02, true, 1.05);
        let r = compare_texts(&base, &cand).expect("compares");
        assert!(r.regressions().contains(&"sim_events_per_sec/speedup"));
    }

    #[test]
    fn sub_threshold_resolved_delta_reports_but_does_not_gate() {
        // 5% drop with razor-thin CIs: resolved, but under the 10% floor.
        let base = synth_v2(1.0, 0.001, false);
        let cand = synth_v2(0.95, 0.001, false);
        let r = compare_texts(&base, &cand).expect("compares");
        assert!(r.pass(), "regressions: {:?}", r.regressions());
        assert!(r.deltas.iter().any(|d| d.resolvable));
    }

    #[test]
    fn write_guard_refuses_then_forces() {
        let dir = std::env::temp_dir().join(format!("splash4-guard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        write_guarded(&path, "first", false).expect("fresh write ok");
        let err = write_guarded(&path, "second", false).expect_err("must refuse");
        assert!(err.contains("--force"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_guarded(&path, "second", true).expect("forced write ok");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
