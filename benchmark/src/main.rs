//! `splash4-benchmark`: the repo's benchmark (README.md, ../BENCHMARK.json).
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in this
//! process and prints its metrics, the last line being the result object.
//! Without `--workload` every workload runs, each in a fresh child process,
//! untraced and then traced; `--aa` runs the untraced set twice and compares.

mod host;
mod inputs;
mod ladder;
mod metrics;
mod sections;
mod span;
mod stats;

use inputs::{Plan, Section as Part, DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS};
use metrics::END_TO_END;
use sections::{Check, Churn, Latencies, Native, Section, Serve, Sim, Tally};
use span::Tracer;
use splash4_parmacs::Json;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Kernel teams and closed-loop connections: never more load-generating
/// threads than the host has cores.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Set-up is repeated in one run and `setup_s` is the median: at least
/// `MIN_SETUPS` times, and on until `MAX_SETUPS` or `SETUP_BUDGET_S` seconds.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--aa" => args.aa = true,
            other => {
                return Err(format!(
                    "unknown argument {other}; usage: [--workload {}] [--seed N (default {DEFAULT_SEED}, hold-out {HOLDOUT_SEED})] [--seconds S] [--trace 0|1] [--aa]",
                    WORKLOADS.join("|")
                ))
            }
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn setup_section(plan: &Plan) -> Box<dyn Section> {
    match plan.main {
        Part::Native => Box::new(Native::setup(&plan.native, false, threads())),
        Part::Churn => Box::new(Churn::setup(&plan.churn, threads())),
        Part::Sim => Box::new(Sim::setup(&plan.sim, threads())),
        Part::Serve => Box::new(Serve::setup(&plan.serve, threads())),
        Part::Check => Box::new(Check::setup(&plan.check)),
    }
}

/// What one timed pass measured: its wall seconds, and the median and 95th
/// percentile latency (ms) of the requests it made.
struct PassSample {
    wall_s: f64,
    requests: usize,
    p50_ms: f64,
    p95_ms: f64,
}

/// Untraced passes of `section` until `seconds` are used up (a pass that
/// would overrun by more than half its expected length is not started), at
/// least two.
fn timed_passes(section: &mut dyn Section, seconds: f64, all: &mut Latencies) -> Vec<PassSample> {
    let tracer = &Tracer::new(false);
    let t0 = Instant::now();
    let mut passes: Vec<PassSample> = Vec::new();
    let mut lat = Latencies::new();
    loop {
        let mean = passes.iter().map(|p| p.wall_s).sum::<f64>() / passes.len().max(1) as f64;
        if passes.len() >= 2 && t0.elapsed().as_secs_f64() + mean / 2.0 > seconds {
            return passes;
        }
        let pass = passes.len() as u32;
        lat.clear();
        let t = Instant::now();
        section.pass(pass, tracer, 0, &mut lat);
        let wall_s = t.elapsed().as_secs_f64();
        all.extend_from_slice(&lat);
        let sorted = stats::sorted(&lat);
        passes.push(PassSample {
            wall_s,
            requests: sorted.len(),
            p50_ms: stats::percentile(&sorted, 50.0),
            p95_ms: stats::percentile(&sorted, 95.0),
        });
    }
}

/// One line per metric for the reader, then the result object the driver
/// parses. `rows` are (name, value, unit, note).
fn print_result(tally: &Tally, rows: &[(String, f64, &str, String)]) {
    for (name, value, unit, note) in rows {
        println!("{name:<44} {value:>16.6} {unit:<10} {note}");
    }
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit, _)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest digits that round-trip: nothing rounded.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
}

/// Median with sample count and, where the sample allows one, the highest
/// percentile that still has ten samples beyond it.
fn describe(samples: &[f64], unit: &str) -> String {
    let sorted = stats::sorted(samples);
    let mut s = format!("median of n={}", sorted.len());
    if let Some(p) = stats::tail_percentile(sorted.len()) {
        let _ = write!(s, "; p{p} = {:.4} {unit}", stats::percentile(&sorted, p));
    }
    s
}

fn run_untraced(
    plan: &Plan,
    seconds: f64,
    process_start: Instant,
) -> (Tally, Vec<(String, f64, &'static str, String)>) {
    // The first set-up includes process start. The last set-up's state is
    // the one the passes run on.
    let mut setups: Vec<f64> = Vec::new();
    let mut section = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(section.take());
        let t0 = if setups.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        section = Some(setup_section(plan));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut section = section.expect("MIN_SETUPS > 0");
    let mut latencies = Latencies::new();
    let passes = timed_passes(section.as_mut(), seconds, &mut latencies);
    let tally = section.verify();
    drop(section);
    // Every timing is a median over passes: interference on a shared host
    // comes in bursts, and a burst spoils the passes it hits, not the run.
    let column = |f: fn(&PassSample) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let per_s = column(|p| p.requests as f64 / p.wall_s);
    let values = [
        (stats::median(&setups), describe(&setups, "s")),
        (
            stats::median(&column(|p| p.wall_s)),
            describe(&column(|p| p.wall_s), "s"),
        ),
        (
            stats::median(&column(|p| p.p50_ms)),
            format!(
                "median over passes of each pass's median; all requests: {}",
                describe(&latencies, "ms")
            ),
        ),
        (
            stats::median(&column(|p| p.p95_ms)),
            format!(
                "median over passes of each pass's p95; {} requests a pass",
                passes[0].requests
            ),
        ),
        (stats::median(&per_s), describe(&per_s, "1/s")),
        (host::peak_rss_mib(), "VmHWM of this process".to_string()),
    ];
    let rows = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (v, note))| (m.name.to_string(), v, m.unit, note))
        .collect();
    (tally, rows)
}

fn run_one(workload: &str, args: &Args, process_start: Instant) -> ExitCode {
    let Some(plan) = inputs::plan(workload, args.seed) else {
        eprintln!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "# {workload} seed={} seconds={} trace={} threads={} nproc={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (tally, rows) = if args.trace {
        ladder::run_traced(workload, &plan, args.seconds)
    } else {
        run_untraced(&plan, args.seconds, process_start)
    };
    print_result(&tally, &rows);
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run `workload` in a fresh child process; returns its result line parsed.
fn child(workload: &str, args: &Args, trace: bool, echo: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    let last = text.lines().last().unwrap_or("");
    let json = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() || json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{workload}: failed share > 0 or abnormal exit ({}) {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(json)
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// All seven workloads, untraced then traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let mut bad = 0;
    for w in WORKLOADS {
        for trace in [false, true] {
            if let Err(e) = child(w, args, trace, true) {
                eprintln!("{e}");
                bad += 1;
            }
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A/A self-check: the untraced set twice on this build. Prints, per workload
/// and end-to-end metric, how much worse the second run is than the first
/// beside the metric's bound; any breach fails.
fn run_aa(args: &Args) -> ExitCode {
    let mut breaches = 0;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for w in WORKLOADS {
        let (a, b) = match (child(w, args, false, false), child(w, args, false, false)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                breaches += 1;
                continue;
            }
        };
        for m in &END_TO_END {
            let (va, vb) = (metric(&a, m.name), metric(&b, m.name));
            let worse = if m.better == "lower" {
                vb / va - 1.0
            } else {
                va / vb - 1.0
            };
            let breach = worse.is_nan() || worse > m.bound;
            breaches += usize::from(breach);
            println!(
                "{w:<16} {:<22} {va:>14.5} {vb:>14.5} {:>8.1}% {:>6.0}%{}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if breach {
                    "  BREACH"
                } else if worse > m.bound / 2.0 {
                    "  (over half the bound)"
                } else {
                    ""
                }
            );
        }
    }
    if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.aa) {
        (Some(w), _) => run_one(&w.clone(), &args, process_start),
        (None, true) => run_aa(&args),
        (None, false) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a run prints are exactly the names `BENCHMARK.json`
    /// declares: none missing, none extra, all well-formed.
    #[test]
    fn printed_names_are_the_declared_names() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = metrics::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        for (name, unit) in e2e.iter().chain(&layers) {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let mut names: Vec<&String> = e2e.iter().chain(&layers).map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(
            names.len(),
            e2e.len() + layers.len(),
            "a metric name is used twice"
        );
        for (m, d) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").unwrap().as_array().unwrap())
        {
            assert_eq!(
                d.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
            assert_eq!(
                d.get("better").unwrap().as_str(),
                Some(m.better),
                "{}",
                m.name
            );
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
