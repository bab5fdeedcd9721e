//! Model-checker demo: explore the shipped Treiber stack, then inject the
//! relaxed-pop mutant and watch the checker minimize a counterexample.
//!
//! ```text
//! cargo run --release --example check_demo
//! ```

use splash4::check::explore::Scenario;
use splash4::check::{
    cmap_chain_scenario, explore, pool_scenario, replay, sense_barrier_scenario, treiber_scenario,
    Budget, Schedule, Step,
};
use splash4::parmacs::{SyncMode, TreiberSpec};
use splash4::reclaim::{PoolShape, ReclaimKind};
use std::sync::atomic::Ordering;

fn main() {
    let budget = Budget {
        min_schedules: 1000,
        max_schedules: 1250,
        ..Budget::default()
    };

    // 1. The shipped stack: three threads mixing pushes and pops; every
    //    explored interleaving must be race-free and linearizable.
    println!("== queue/treiber, shipped orderings ==");
    let clean = treiber_scenario(TreiberSpec::SPLASH4);
    let report = explore(&clean, &budget);
    println!(
        "schedules explored: {} distinct ({} executions{})",
        report.distinct_schedules,
        report.executions,
        if report.exhausted {
            ", space exhausted"
        } else {
            ""
        },
    );
    match &report.counterexample {
        None => println!("verdict: pass — no schedule violates any property\n"),
        Some(c) => println!("verdict: FAIL — {c}\n"),
    }

    // 2. The mutant: weaken pop's head load from Acquire to Relaxed — the
    //    bug pattern Splash-4-style modernizations must not introduce.
    println!("== queue/treiber, pop head load weakened Acquire -> Relaxed ==");
    let mutant = treiber_scenario(TreiberSpec {
        pop_load: Ordering::Relaxed,
        pop_cas_fail: Ordering::Relaxed,
        ..TreiberSpec::SPLASH4
    });
    let report = explore(&mutant, &budget);
    println!(
        "schedules explored before the bug surfaced: {} distinct ({} executions)",
        report.distinct_schedules, report.executions
    );
    let cex = report
        .counterexample
        .expect("the weakened stack must fail under some interleaving");
    println!("minimized counterexample: {}", cex.failure);
    println!(
        "schedule ({} switches): {}",
        cex.schedule.switches(),
        cex.schedule
    );

    // 3. Replay it from the rendered schedule string: same failure, every
    //    time — paste the string into Schedule::parse to debug at will.
    let parsed = Schedule::parse(&cex.schedule.to_string()).expect("rendering round-trips");
    let re = replay(&mutant, &parsed, budget.max_steps);
    let f = re.failure.expect("replay reproduces the failure");
    println!("replayed {} modelled ops -> {}", re.steps, f);
    assert_eq!(f.kind(), cex.failure.kind());
    println!("\nreplay deterministic: the schedule string is the bug report.");

    // 4. What a search costs, from the search itself: modelled operations,
    //    and hand-offs — token passes that woke another OS thread, the only
    //    steps that enter the kernel. An execution's wake-ups are its
    //    hand-offs plus the one that tells the explorer it is over.
    println!("\n== per construct: executions, steps and hand-offs per execution ==");
    let constructs: [(&str, Box<Scenario>); 4] = [
        ("queue/treiber", Box::new(clean)),
        (
            "barrier/sense",
            Box::new(sense_barrier_scenario(SyncMode::LockFree)),
        ),
        (
            "reclaim/epoch",
            Box::new(pool_scenario(
                PoolShape::Lifo,
                ReclaimKind::Epoch,
                &[1, 2],
                &[&[Step::Pop], &[Step::Pop, Step::Flush]],
            )),
        ),
        ("kernel/cmap-chain", Box::new(cmap_chain_scenario())),
    ];
    for (name, scenario) in constructs {
        let report = explore(&*scenario, &Budget::small(7));
        assert!(report.counterexample.is_none(), "{name}: {report:?}");
        let per = |total: u64| total as f64 / report.executions as f64;
        println!(
            "{name:<18} {:>5} executions {:>7} steps ({:>5.1} each) {:>6} hand-offs ({:>4.1} each)",
            report.executions,
            report.steps,
            per(report.steps),
            report.handoffs,
            per(report.handoffs),
        );
    }
}
