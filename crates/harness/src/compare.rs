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
    /// Flattened name, e.g. `atomics/faa_c4_ns`.
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

/// Config keys that define the workload shape; absolute metrics are only
/// gateable when these match between baseline and candidate. A key a
/// document does not carry decodes as `Null`, so two documents that both
/// lack it still match.
const SHAPE_KEYS: [&str; 3] = ["quick", "threads", "atomic_ops"];

impl MetricClass {
    /// The class a metric's own name declares: `…ratio` / `…speedup` are
    /// same-host quotients, `…_ns` / `…_secs` are times, everything else is
    /// a rate. The atomic cost matrix is all `_ns` and deliberately so: per
    /// the paper, contended-atomic costs *are* host properties — they feed
    /// `sim::calibrate`, not a cross-host gate.
    fn of(member: &str) -> MetricClass {
        if member.ends_with("ratio") || member.ends_with("speedup") {
            MetricClass::Ratio
        } else if member.ends_with("_ns") || member.ends_with("_secs") {
            MetricClass::Wall
        } else {
            MetricClass::Throughput
        }
    }
}

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

    /// Every entry under `metrics` is either a summary or an object of
    /// summaries; the latter flatten to `group/member`. No group or member
    /// name is known in advance — the atomic matrix's cell set depends on
    /// the measured thread count — so the class comes from the name
    /// ([`MetricClass::of`]) and anything that is not a well-formed summary
    /// is an error naming the metric.
    fn decode(doc: &Json) -> Result<BenchDoc, String> {
        let config = doc["config"].clone();
        if config.as_object().is_none() {
            return Err("document has no `config` object".into());
        }
        if config["quick"].as_bool().is_none() {
            return Err("config has no boolean `quick`".into());
        }
        let Some(entries) = doc["metrics"].as_object() else {
            return Err("document has no `metrics` object".into());
        };
        let mut metrics = Vec::new();
        let mut read = |name: String, member: &str, v: &Json| -> Result<(), String> {
            let summary = Summary::from_json(v).map_err(|e| format!("metric `{name}`: {e}"))?;
            if summary.median <= 0.0 {
                return Err(format!("metric `{name}`: median must be positive"));
            }
            metrics.push(Metric {
                name,
                class: MetricClass::of(member),
                summary,
            });
            Ok(())
        };
        for (group, v) in entries {
            match v.as_object() {
                Some(_) if !v["median"].is_null() => read(group.clone(), group, v)?,
                Some(members) if !members.is_empty() => {
                    for (member, mv) in members {
                        read(format!("{group}/{member}"), member, mv)?;
                    }
                }
                _ => {
                    return Err(format!(
                        "metric `{group}`: neither a summary nor a non-empty group of summaries"
                    ))
                }
            }
        }
        if metrics.is_empty() {
            return Err("document carries no metric groups".into());
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

    /// A summary object with a ±`rci`·median interval and 5 reps.
    fn summary(median: f64, rci: f64) -> Json {
        Summary {
            median,
            ci_lo: median * (1.0 - rci),
            ci_hi: median * (1.0 + rci),
            reps: 5,
            cv: rci,
            samples: vec![median; 5],
        }
        .to_json()
    }

    /// A v2 document in the shape the retired full bench wrote (per-backend
    /// groups, a top-level wall summary, ratio members): every rate metric
    /// scales with `scale`, every CI is ±`rci`·median.
    fn synth_v2(scale: f64, rci: f64, quick: bool) -> String {
        let s = |median: f64| summary(median, rci);
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
                    "speedup": s(30.0 / 17.0),
                }),
                "report_wall_secs": s(0.25 / scale),
                "serve": json!({
                    "requests_per_sec": s(120.0 * scale),
                    "events_per_sec_p1024": s(2.0e6 * scale),
                    "retime_speedup": s(1.6),
                }),
                "reclaim": json!({
                    "index_pool_ops_per_sec": s(12.0e6 * scale),
                    "epoch_pool_ops_per_sec": s(8.0e6 * scale),
                    "hazard_pool_ops_per_sec": s(5.0e6 * scale),
                    "epoch_vs_index_ratio": s(8.0 / 12.0),
                    "epoch_vs_hazard_ratio": s(8.0 / 5.0),
                }),
                "combining": json!({
                    "reducer_vs_lockfree_ratio": s(0.8),
                    "counter_vs_lockfree_ratio": s(0.8),
                    "barrier_vs_lockfree_ratio": s(0.8),
                    "combining_vs_lockfree_ratio": s(1.3),
                }),
            }),
        })
        .to_string_pretty()
    }

    /// `text` with its `metrics` object rewritten by `edit`.
    fn edit_metrics(text: &str, edit: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
        let doc = Json::parse(text).unwrap();
        let mut metrics = doc["metrics"].as_object().unwrap().to_vec();
        edit(&mut metrics);
        json!({
            "schema": "splash4-bench-v2",
            "config": doc["config"].clone(),
            "metrics": Json::Object(metrics),
        })
        .to_string_pretty()
    }

    /// `text` with the member `group/member` replaced by `value`.
    fn with_member(text: &str, name: &str, value: Json) -> String {
        let (group, member) = name.split_once('/').unwrap();
        edit_metrics(text, |metrics| {
            let g = metrics.iter_mut().find(|(k, _)| k == group).unwrap();
            let Json::Object(members) = &mut g.1 else {
                panic!("{group} is a group");
            };
            members.iter_mut().find(|(k, _)| k == member).unwrap().1 = value;
        })
    }

    /// `text` with one more metric group appended.
    fn with_group(text: &str, group: &str, members: Json) -> String {
        edit_metrics(text, |metrics| metrics.push((group.into(), members)))
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
        for (name, class) in [
            ("reducer_ops_per_sec/ratio", MetricClass::Ratio),
            ("counter_grabs_per_sec/splash4x", MetricClass::Throughput),
            ("sim_events_per_sec/speedup", MetricClass::Ratio),
            ("report_wall_secs", MetricClass::Wall),
            ("combining/combining_vs_lockfree_ratio", MetricClass::Ratio),
            ("reclaim/epoch_vs_hazard_ratio", MetricClass::Ratio),
            ("reclaim/epoch_pool_ops_per_sec", MetricClass::Throughput),
            ("serve/retime_speedup", MetricClass::Ratio),
            ("serve/requests_per_sec", MetricClass::Throughput),
        ] {
            assert_eq!(doc.metric(name).expect(name).class, class, "{name}");
        }
    }

    #[test]
    fn unknown_groups_decode_by_name_and_gate_in_their_own_direction() {
        // No group or member name is known to the decoder: a group it has
        // never heard of validates, and each member's class — hence the
        // direction a slowdown gates in — comes from its name alone.
        let base = with_group(
            &synth_v2(1.0, 0.02, false),
            "widgets",
            json!({
                "spin_per_sec": summary(1.0e6, 0.02),
                "lockfree_ratio": summary(1.5, 0.02),
                "hop_ns": summary(80.0, 0.02),
            }),
        );
        validate(&base).expect("unknown group validates");
        let doc = BenchDoc::parse(&base).unwrap();
        for (name, class, slower, faster) in [
            (
                "widgets/spin_per_sec",
                MetricClass::Throughput,
                0.5e6,
                2.0e6,
            ),
            ("widgets/lockfree_ratio", MetricClass::Ratio, 0.75, 3.0),
            ("widgets/hop_ns", MetricClass::Wall, 160.0, 40.0),
        ] {
            assert_eq!(doc.metric(name).expect(name).class, class, "{name}");
            let cand = with_member(&base, name, summary(slower, 0.02));
            let r = compare_texts(&base, &cand).expect("compares");
            assert_eq!(r.regressions(), [name], "2x slowdown must gate");
            let cand = with_member(&base, name, summary(faster, 0.02));
            let r = compare_texts(&base, &cand).expect("compares");
            assert!(r.pass(), "2x gain must not gate: {:?}", r.regressions());
            let d = r.deltas.iter().find(|d| d.name == name).unwrap();
            assert_eq!(d.verdict, Verdict::Improved, "{name}");
        }
    }

    #[test]
    fn documents_missing_a_group_still_validate_and_compare() {
        // A baseline that lacks a group the candidate carries (written by an
        // older checkout, or a subset run): it decodes, self-compares, and
        // against the fuller candidate the extra rows are `New`, never an
        // error or a regression.
        let full = synth_v2(1.0, 0.03, false);
        for (group, probe) in [
            ("serve", "serve/requests_per_sec"),
            ("reclaim", "reclaim/epoch_vs_index_ratio"),
            ("combining", "combining/combining_vs_lockfree_ratio"),
            ("report_wall_secs", "report_wall_secs"),
        ] {
            let old = edit_metrics(&full, |m| m.retain(|(k, _)| k != group));
            let parsed = BenchDoc::parse(&old).expect("subset documents decode");
            assert!(parsed.metric(probe).is_none());
            let r = compare_texts(&old, &old).expect("old self-compare");
            assert!(r.configs_match && r.pass());
            let r = compare_texts(&old, &full).expect("old vs new");
            assert!(r.configs_match, "a group adds no shape keys");
            assert!(r.pass(), "regressions: {:?}", r.regressions());
            let probed = r.deltas.iter().find(|d| d.name == probe).unwrap();
            assert_eq!(probed.verdict, Verdict::New);
        }
    }

    #[test]
    fn ratio_collapse_gates_even_cross_config() {
        // Ratio-class metrics are host-normalized: a collapse must gate even
        // when the candidate ran a different (quick) config, whatever group
        // the ratio lives in.
        let base = synth_v2(1.0, 0.02, false);
        for (name, collapsed) in [
            ("sim_events_per_sec/speedup", 1.05),
            ("serve/retime_speedup", 1.0),
            ("reclaim/epoch_vs_hazard_ratio", 1.0),
            ("combining/combining_vs_lockfree_ratio", 1.0),
        ] {
            let cand = with_member(&synth_v2(1.0, 0.02, true), name, summary(collapsed, 0.02));
            let r = compare_texts(&base, &cand).expect("compares");
            assert!(!r.configs_match);
            assert_eq!(r.regressions(), [name]);
        }
    }

    /// `text` with an `atomics` group of two cells spliced into `metrics`.
    fn with_atomics(text: &str) -> String {
        with_group(
            text,
            "atomics",
            json!({"faa_c1_ns": summary(14.0, 0.02), "faa_c4_ns": summary(92.0, 0.02)}),
        )
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
    fn atomics_only_documents_validate_and_decode() {
        // The `--bench` shape: config + the atomics group and nothing else —
        // the calibration input CI uploads.
        let full = Json::parse(&with_atomics(&synth_v2(1.0, 0.02, false))).unwrap();
        let subset = json!({
            "schema": "splash4-bench-v2",
            "config": full["config"].clone(),
            "metrics": json!({"atomics": full["metrics"]["atomics"].clone()}),
        })
        .to_string_pretty();
        let doc = BenchDoc::parse(&subset).expect("atomics-only document decodes");
        assert_eq!(doc.metrics.len(), 2);
        assert_eq!(
            doc.metric("atomics/faa_c1_ns").unwrap().class,
            MetricClass::Wall
        );
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
        // Every rejection names the metric by its flattened name: a member
        // that is not a summary, a group that is not an object, an empty
        // group, a summary whose CI does not bracket its median.
        let good = synth_v2(1.0, 0.03, false);
        let mut inverted = Summary::point(1.0);
        inverted.ci_lo = 2.0;
        assert!(inverted.check().is_err());
        for (bad, named) in [
            (
                with_group(&good, "widgets", json!({"x": 3u64})),
                "`widgets/x`",
            ),
            (with_group(&good, "widgets", json!(3.0)), "`widgets`"),
            (with_group(&good, "widgets", json!({})), "`widgets`"),
            (
                with_member(&good, "serve/requests_per_sec", inverted.to_json()),
                "`serve/requests_per_sec`",
            ),
            (
                with_member(&good, "serve/requests_per_sec", summary(-1.0, 0.0)),
                "`serve/requests_per_sec`",
            ),
        ] {
            let err = validate(&bad).unwrap_err();
            assert!(err.contains(named), "{err}");
        }
        // No metrics at all is not a document.
        let empty = edit_metrics(&good, Vec::clear);
        assert!(validate(&empty).unwrap_err().contains("no metric groups"));
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
