//! Schedule exploration: bounded-preemption DFS plus PCT random sampling.
//!
//! A schedule is the sequence of driver choices at *branching* points
//! (schedule points where ≥ 2 threads were runnable); forced steps are not
//! recorded, so the same vector replayed through [`replay`] reproduces the
//! execution exactly. Exploration is stateless (CHESS-style): every schedule
//! is a fresh execution from the initial state driven down a chosen prefix,
//! on the worker threads its search owns: one [`explore`] call starts them,
//! runs every execution and every minimization replay on them, and joins
//! them before it returns; a lone [`replay`] starts its own.
//!
//! The systematic pass is a depth-first search over branching points with an
//! **iterative preemption bound**: alternatives that preempt a runnable
//! thread are only taken while the running preemption count stays within the
//! bound, which concentrates the budget on the few-context-switch schedules
//! where most concurrency bugs live. When DFS exhausts (or hits its caps)
//! before reaching the distinct-schedule target, a seeded PCT-style random
//! scheduler (random thread priorities with a few priority change points)
//! tops up coverage. All randomness flows from one `u64` seed, so a run is
//! reproducible end to end.
//!
//! When an execution fails, the failing schedule is **minimized** — greedy
//! run-extension and truncation, each candidate validated by replaying and
//! requiring the same failure class — and returned as a
//! [`CounterExample`] whose rendered form (`"0*3,1*2,0"`) can be parsed back
//! and replayed.

use crate::engine::{run_one, Driver, Failure, MemoryModel, RunOutcome, Sandbox, Workers};
use splash4_parmacs::SmallRng;
use std::collections::HashSet;
use std::fmt;

/// A scenario builder: called once per execution to declare shadow state and
/// thread bodies into a fresh [`Sandbox`].
pub type Scenario = dyn Fn(&mut Sandbox) + Sync;

/// Exploration budget and knobs. All defaults are deterministic.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Preemption bound for the final DFS pass (an earlier pass runs at 2).
    pub max_preemptions: u32,
    /// Stop once this many *distinct* schedules have been seen.
    pub max_schedules: usize,
    /// Hard cap on executions (distinct or not).
    pub max_executions: usize,
    /// Target number of distinct schedules (PCT tops up to this).
    pub min_schedules: usize,
    /// Seed for the PCT pass.
    pub seed: u64,
    /// Horizon (in branching decisions) change points are drawn from.
    pub pct_len: u32,
    /// Memory model executions run under. [`MemoryModel::Weak`] adds
    /// admissible-value branching points to the search space.
    pub memory: MemoryModel,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            max_preemptions: 3,
            max_schedules: 4096,
            max_executions: 20_000,
            min_schedules: 1000,
            seed: 0xC0FF_EE00,
            pct_len: 64,
            memory: MemoryModel::Sc,
        }
    }
}

/// PCT depth `d`: the number of priority change points is `d - 1`.
const PCT_DEPTH: u32 = 3;

impl Budget {
    /// Per-execution step limit of every exploration; pass it to [`replay`]
    /// to reproduce a schedule a search found.
    pub const MAX_STEPS: u64 = 20_000;

    /// A small budget for unit tests and demos.
    pub fn small(seed: u64) -> Budget {
        Budget {
            max_preemptions: 2,
            max_schedules: 512,
            max_executions: 2000,
            min_schedules: 64,
            seed,
            ..Budget::default()
        }
    }
}

/// A replayable schedule: the chosen thread at each branching decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule(pub Vec<u32>);

impl Schedule {
    /// Number of thread switches within the recorded decisions.
    pub fn switches(&self) -> usize {
        self.0.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Parse the run-length rendering produced by `Display`
    /// (`"0*3,1*2,0"`; `"-"` is the empty schedule).
    pub fn parse(s: &str) -> Result<Schedule, String> {
        let s = s.trim();
        if s.is_empty() || s == "-" {
            return Ok(Schedule(Vec::new()));
        }
        let mut out = Vec::new();
        for part in s.split(',') {
            let (tid, count) = match part.split_once('*') {
                Some((t, n)) => (
                    t,
                    n.parse::<usize>()
                        .map_err(|e| format!("bad run `{part}`: {e}"))?,
                ),
                None => (part, 1),
            };
            let tid: u32 = tid
                .trim()
                .parse()
                .map_err(|e| format!("bad tid `{part}`: {e}"))?;
            out.extend(std::iter::repeat_n(tid, count));
        }
        Ok(Schedule(out))
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "-");
        }
        let mut first = true;
        let mut i = 0;
        while i < self.0.len() {
            let tid = self.0[i];
            let mut n = 1;
            while i + n < self.0.len() && self.0[i + n] == tid {
                n += 1;
            }
            if !first {
                write!(f, ",")?;
            }
            if n > 1 {
                write!(f, "{tid}*{n}")?;
            } else {
                write!(f, "{tid}")?;
            }
            first = false;
            i += n;
        }
        Ok(())
    }
}

/// A failing interleaving, minimized and replayable.
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// The minimized schedule (feed back through [`replay`]).
    pub schedule: Schedule,
    /// The failure the schedule reproduces.
    pub failure: Failure,
}

impl fmt::Display for CounterExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} under schedule `{}`", self.failure, self.schedule)
    }
}

/// Outcome of [`explore`].
#[derive(Debug)]
pub struct ExploreReport {
    /// Distinct full schedules observed.
    pub distinct_schedules: usize,
    /// Executions performed (including duplicates and replays).
    pub executions: usize,
    /// Modelled operations those executions performed.
    pub steps: u64,
    /// Token passes among them that woke another OS thread, each
    /// execution's first grant included: the search's cost in wake-ups.
    pub handoffs: u64,
    /// `true` when DFS exhausted the bounded space without hitting caps.
    pub exhausted: bool,
    /// The minimized failing schedule, if any execution failed.
    pub counterexample: Option<CounterExample>,
}

/// Outcome of [`replay`].
#[derive(Debug)]
pub struct Replayed {
    /// The failure the schedule produced, if any.
    pub failure: Option<Failure>,
    /// The full decision sequence actually taken (the input prefix plus the
    /// default-policy tail).
    pub schedule: Schedule,
    /// The invocation/response history the execution recorded.
    pub history: Vec<crate::linearize::OpRecord>,
    /// Modelled operations executed.
    pub steps: u64,
}

/// Default scheduling policy: keep running the previous thread when it is
/// still runnable, else the lowest-numbered runnable thread.
fn default_choice(enabled: &[usize], prev: Option<usize>) -> usize {
    match prev {
        Some(p) if enabled.contains(&p) => p,
        _ => enabled[0],
    }
}

/// Follows a fixed prefix of choices, then the default policy.
struct PrefixDriver {
    prefix: Vec<u32>,
}

impl Driver for PrefixDriver {
    fn choose(&mut self, idx: usize, enabled: &[usize], prev: Option<usize>) -> usize {
        match self.prefix.get(idx) {
            Some(&t) if enabled.contains(&(t as usize)) => t as usize,
            _ => default_choice(enabled, prev),
        }
    }
}

/// PCT-style randomized driver: static random priorities, `d - 1` priority
/// change points that demote the currently favoured thread.
struct PctDriver {
    priorities: Vec<i64>,
    change_points: Vec<usize>,
    next_low: i64,
}

impl PctDriver {
    fn new(seed: u64, depth: u32, horizon: u32) -> PctDriver {
        let mut rng = SmallRng::seed_from_u64(seed);
        // 64 pre-drawn priorities comfortably covers any scenario's threads.
        let priorities: Vec<i64> = (0..64).map(|_| (rng.next_u64() >> 1) as i64).collect();
        let changes = depth.saturating_sub(1);
        let change_points: Vec<usize> = (0..changes)
            .map(|_| rng.gen_range(0..horizon.max(1) as usize))
            .collect();
        PctDriver {
            priorities,
            change_points,
            next_low: -1,
        }
    }
}

impl Driver for PctDriver {
    fn choose(&mut self, idx: usize, enabled: &[usize], _prev: Option<usize>) -> usize {
        let top = |prio: &[i64]| {
            *enabled
                .iter()
                .max_by_key(|t| prio[**t])
                .expect("enabled is non-empty")
        };
        if self.change_points.contains(&idx) {
            let demoted = top(&self.priorities);
            self.priorities[demoted] = self.next_low;
            self.next_low -= 1;
        }
        top(&self.priorities)
    }
}

/// One node of the DFS stack: a branching decision with its alternatives.
struct DfsNode {
    enabled: Vec<usize>,
    prev: Option<usize>,
    /// Preemptions accumulated strictly before this decision.
    preempts_before: u32,
    tried: Vec<usize>,
    chosen: usize,
}

impl DfsNode {
    /// A choice costs a preemption when it switches away from a still
    /// runnable previous thread.
    fn cost(&self, choice: usize) -> u32 {
        match self.prev {
            Some(p) if self.enabled.contains(&p) && choice != p => 1,
            _ => 0,
        }
    }
}

enum DfsEnd {
    Exhausted,
    Capped,
    Failed,
}

struct Explorer<'a> {
    factory: &'a Scenario,
    budget: &'a Budget,
    /// The OS threads every execution of this search runs on.
    workers: Workers,
    seen: HashSet<Vec<u32>>,
    executions: usize,
    steps: u64,
    handoffs: u64,
    failing: Option<(Vec<u32>, Failure)>,
}

impl<'a> Explorer<'a> {
    fn record(&mut self, out: &RunOutcome) {
        let sched: Vec<u32> = out.decisions.iter().map(|d| d.chosen as u32).collect();
        self.seen.insert(sched.clone());
        if self.failing.is_none() {
            if let Some(f) = &out.failure {
                self.failing = Some((sched, f.clone()));
            }
        }
    }

    fn capped(&self) -> bool {
        self.executions >= self.budget.max_executions
            || self.seen.len() >= self.budget.max_schedules
    }

    fn run(&mut self, driver: Box<dyn Driver>) -> RunOutcome {
        let (max_steps, memory) = (Budget::MAX_STEPS, self.budget.memory);
        let out = run_one(&mut self.workers, self.factory, driver, max_steps, memory);
        self.executions += 1;
        self.steps += out.steps;
        self.handoffs += out.handoffs;
        self.record(&out);
        out
    }

    fn dfs(&mut self, bound: u32) -> DfsEnd {
        let mut stack: Vec<DfsNode> = Vec::new();
        loop {
            let prefix: Vec<u32> = stack.iter().map(|n| n.chosen as u32).collect();
            let out = self.run(Box::new(PrefixDriver { prefix }));
            if self.failing.is_some() {
                return DfsEnd::Failed;
            }
            for d in out.decisions.iter().skip(stack.len()) {
                let preempts_before = match stack.last() {
                    Some(n) => n.preempts_before + n.cost(n.chosen),
                    None => 0,
                };
                stack.push(DfsNode {
                    enabled: d.enabled.clone(),
                    prev: d.prev,
                    preempts_before,
                    tried: vec![d.chosen],
                    chosen: d.chosen,
                });
            }
            if self.capped() {
                return DfsEnd::Capped;
            }
            // Backtrack to the deepest decision with an affordable untried
            // alternative.
            loop {
                let Some(node) = stack.last_mut() else {
                    return DfsEnd::Exhausted;
                };
                let alt = node.enabled.iter().copied().find(|a| {
                    !node.tried.contains(a) && node.preempts_before + node.cost(*a) <= bound
                });
                match alt {
                    Some(a) => {
                        node.tried.push(a);
                        node.chosen = a;
                        break;
                    }
                    None => {
                        stack.pop();
                    }
                }
            }
        }
    }
}

/// Systematically explore the scenario's interleavings.
///
/// Runs bounded-preemption DFS (bound 2, then `budget.max_preemptions`),
/// then PCT random sampling until `budget.min_schedules` distinct schedules
/// have been seen or a cap is hit. Stops at the first failing execution and
/// returns its minimized [`CounterExample`]. Fully deterministic for a given
/// budget.
pub fn explore(factory: &Scenario, budget: &Budget) -> ExploreReport {
    let mut ex = Explorer {
        factory,
        budget,
        workers: Workers::new(),
        seen: HashSet::new(),
        executions: 0,
        steps: 0,
        handoffs: 0,
        failing: None,
    };

    let mut bounds = vec![2u32.min(budget.max_preemptions), budget.max_preemptions];
    bounds.dedup();
    let mut exhausted = false;
    for bound in bounds {
        match ex.dfs(bound) {
            DfsEnd::Failed | DfsEnd::Capped => {
                exhausted = false;
                break;
            }
            DfsEnd::Exhausted => exhausted = true,
        }
    }

    // PCT top-up: different seeds sample different priority assignments.
    let mut round: u64 = 0;
    while ex.failing.is_none()
        && !ex.capped()
        && ex.seen.len() < budget.min_schedules
        && round < budget.max_executions as u64
    {
        let seed = budget.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ex.run(Box::new(PctDriver::new(seed, PCT_DEPTH, budget.pct_len)));
        round += 1;
    }

    let counterexample = ex.failing.take().map(|(sched, failure)| {
        let (max_steps, memory) = (Budget::MAX_STEPS, budget.memory);
        minimize(&mut ex.workers, factory, sched, failure, max_steps, memory)
    });

    ExploreReport {
        distinct_schedules: ex.seen.len(),
        executions: ex.executions,
        steps: ex.steps,
        handoffs: ex.handoffs,
        exhausted: exhausted && counterexample.is_none(),
        counterexample,
    }
}

/// Replay `schedule` against the scenario deterministically under
/// sequentially consistent values. For schedules produced by a weak-memory
/// exploration use [`replay_under`] with the same model — the decision
/// indices only line up when the memory model matches.
pub fn replay(factory: &Scenario, schedule: &Schedule, max_steps: u64) -> Replayed {
    replay_under(factory, schedule, max_steps, MemoryModel::Sc)
}

/// Replay `schedule` under an explicit memory model, on workers of its own.
pub fn replay_under(
    factory: &Scenario,
    schedule: &Schedule,
    max_steps: u64,
    memory: MemoryModel,
) -> Replayed {
    replay_on(&mut Workers::new(), factory, schedule, max_steps, memory)
}

fn replay_on(
    workers: &mut Workers,
    factory: &Scenario,
    schedule: &Schedule,
    max_steps: u64,
    memory: MemoryModel,
) -> Replayed {
    let driver = Box::new(PrefixDriver {
        prefix: schedule.0.clone(),
    });
    let out = run_one(workers, factory, driver, max_steps, memory);
    Replayed {
        failure: out.failure,
        schedule: Schedule(out.decisions.iter().map(|d| d.chosen as u32).collect()),
        history: out.history,
        steps: out.steps,
    }
}

/// Greedy schedule minimization: try truncating the schedule and merging
/// adjacent runs, keeping any candidate whose replay reproduces the same
/// failure class with strictly fewer switches (or same switches, shorter).
fn minimize(
    workers: &mut Workers,
    factory: &Scenario,
    initial: Vec<u32>,
    failure: Failure,
    max_steps: u64,
    memory: MemoryModel,
) -> CounterExample {
    let want = failure.kind();
    let metric = |s: &Schedule| (s.switches(), s.0.len());

    // Canonicalize to the full decision sequence of a replay.
    let mut replay = |s: &Schedule| replay_on(workers, factory, s, max_steps, memory);
    let first = replay(&Schedule(initial.clone()));
    let (mut best, mut best_failure) = match first.failure {
        Some(f) if f.kind() == want => (first.schedule, f),
        _ => (Schedule(initial), failure),
    };

    for _pass in 0..10 {
        let mut improved = false;
        // Truncation: drop the tail, let the default policy finish.
        let mut i = 0;
        while i < best.0.len() {
            let cand = Schedule(best.0[..i].to_vec());
            let re = replay(&cand);
            // A longer prefix of `best` that the default policy rebuilt here
            // replays to this very execution: skip past what they share.
            let same = |(a, b): &(&u32, &u32)| a == b;
            let shared = re.schedule.0.iter().zip(&best.0).take_while(same).count();
            if let Some(f) = re.failure {
                if f.kind() == want && metric(&re.schedule) < metric(&best) {
                    best = re.schedule;
                    best_failure = f;
                    improved = true;
                    break;
                }
            }
            i = shared.max(i) + 1;
        }
        if !improved {
            // Run extension: absorb a switch into the preceding run.
            for i in 1..best.0.len() {
                if best.0[i] == best.0[i - 1] {
                    continue;
                }
                let mut cand = best.0.clone();
                cand[i] = cand[i - 1];
                let re = replay(&Schedule(cand));
                if let Some(f) = re.failure {
                    if f.kind() == want && metric(&re.schedule) < metric(&best) {
                        best = re.schedule;
                        best_failure = f;
                        improved = true;
                        break;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }

    CounterExample {
        schedule: best,
        failure: best_failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn schedule_roundtrip() {
        let s = Schedule(vec![0, 0, 0, 1, 1, 0, 2]);
        let rendered = s.to_string();
        assert_eq!(rendered, "0*3,1*2,0,2");
        assert_eq!(Schedule::parse(&rendered).unwrap(), s);
        assert_eq!(Schedule::parse("-").unwrap(), Schedule(Vec::new()));
        assert_eq!(s.switches(), 3);
        assert!(Schedule::parse("0*x").is_err());
    }

    /// Two-thread store-buffer-style scenario: a bug only some interleavings
    /// expose (both threads read 0) must be found, minimized, replayable.
    fn racy_scenario(sb: &mut Sandbox) {
        let x = sb.alloc_atomic("x", 0);
        let y = sb.alloc_atomic("y", 0);
        let r0 = sb.alloc_atomic("r0", u64::MAX);
        let r1 = sb.alloc_atomic("r1", u64::MAX);
        sb.thread(move |ctx| {
            ctx.op_store(x, 1, Ordering::Release);
            let v = ctx.op_load(y, Ordering::Acquire);
            ctx.op_store(r0, v, Ordering::Release);
        });
        sb.thread(move |ctx| {
            ctx.op_store(y, 1, Ordering::Release);
            let v = ctx.op_load(x, Ordering::Acquire);
            ctx.op_store(r1, v, Ordering::Release);
            // Claim (wrongly, for *some* schedules): thread 1 always sees
            // thread 0's store.
            ctx.check(v == 1, "t1 observed x == 1");
        });
    }

    #[test]
    fn dfs_finds_and_minimizes_the_racy_interleaving() {
        let budget = Budget::small(7);
        let report = explore(&racy_scenario, &budget);
        let cex = report.counterexample.expect("bug must be found");
        assert_eq!(cex.failure.kind(), "invariant");
        // Replaying the rendered schedule reproduces the failure.
        let parsed = Schedule::parse(&cex.schedule.to_string()).unwrap();
        let re = replay(&racy_scenario, &parsed, Budget::MAX_STEPS);
        assert_eq!(re.failure.expect("replay fails").kind(), "invariant");
    }

    /// A clean scenario: exploration must pass and be deterministic.
    fn clean_scenario(sb: &mut Sandbox) {
        let x = sb.alloc_atomic("x", 0);
        for _ in 0..3 {
            sb.thread(move |ctx| {
                for _ in 0..2 {
                    ctx.op_rmw(x, Ordering::AcqRel, |v| v + 1);
                }
            });
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        let budget = Budget::small(42);
        let a = explore(&clean_scenario, &budget);
        let b = explore(&clean_scenario, &budget);
        assert!(a.counterexample.is_none());
        assert_eq!(a.distinct_schedules, b.distinct_schedules);
        assert_eq!(a.executions, b.executions);
        assert!(a.distinct_schedules >= 64, "got {}", a.distinct_schedules);
    }
}
