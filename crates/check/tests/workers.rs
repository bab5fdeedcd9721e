//! The explorer's worker threads are reused across executions and share a
//! borrowed CPU with it: neither may show. A search gives the same report
//! whichever OS threads it ran on and whatever they ran before, and the
//! caller gets its affinity mask back on every way out of `explore`.

use splash4_check::explore::Scenario;
use splash4_check::{
    cmap_chain_scenario, explore, kernel_mutants, pool_scenario, reclaim_mutants, weakmem_mutants,
    Budget, ExploreReport, MemoryModel, MutantCatalog, Sandbox, Step, WEAK_STALE_READS,
};
use splash4_reclaim::{PoolShape, ReclaimKind};

/// Everything a report says, comparable.
fn told(report: &ExploreReport) -> (usize, usize, u64, u64, bool, Option<String>) {
    (
        report.distinct_schedules,
        report.executions,
        report.steps,
        report.handoffs,
        report.exhausted,
        report.counterexample.as_ref().map(ToString::to_string),
    )
}

fn mutant(catalog: MutantCatalog, name: &str) -> Box<Scenario> {
    let entry = catalog.into_iter().find(|entry| entry.0 == name);
    entry.unwrap_or_else(|| panic!("no mutant {name}")).3
}

/// The scenarios whose constructs keep state per OS thread — a lease in
/// each reclaimer's registry, vacated by a thread-local's destructor — as
/// shipped (the search runs its whole budget) and with the seeded bug that
/// ends it in a minimized counterexample, whose replays run on the same
/// workers as the search.
#[test]
fn a_search_reports_the_same_on_used_workers_and_on_a_fresh_thread() {
    use Step::{Flush, Pop};
    let weak = Budget {
        memory: MemoryModel::Weak {
            stale_reads: WEAK_STALE_READS,
        },
        ..Budget::small(29)
    };
    let rows: Vec<(&str, Box<Scenario>, Budget, bool)> = vec![
        (
            "R1 reclaim/hazard",
            Box::new(pool_scenario(
                PoolShape::Fifo,
                ReclaimKind::Hazard,
                &[1, 2],
                &[&[Pop], &[Pop, Flush]],
            )),
            Budget::small(23),
            false,
        ),
        (
            "R1 hazard-unprotected-read",
            mutant(reclaim_mutants(), "hazard-unprotected-read"),
            Budget::small(23),
            true,
        ),
        (
            "W1 weakmem/sb-epoch",
            Box::new(pool_scenario(
                PoolShape::Lifo,
                ReclaimKind::Epoch,
                &[1, 2],
                &[&[Pop, Flush], &[Pop]],
            )),
            weak.clone(),
            false,
        ),
        (
            "W1 epoch-scan-acquire",
            mutant(weakmem_mutants(), "epoch-scan-acquire"),
            weak,
            true,
        ),
        (
            "V2 cmap-chain",
            Box::new(cmap_chain_scenario()),
            Budget::small(31),
            false,
        ),
        (
            "V2 cmap-blind-mark",
            mutant(kernel_mutants(), "cmap-blind-mark"),
            Budget::small(31),
            true,
        ),
    ];
    for (name, scenario, budget, fails) in rows {
        let first = told(&explore(&*scenario, &budget));
        let (_, executions, steps, handoffs, _, counterexample) = &first;
        assert_eq!(counterexample.is_some(), fails, "{name}: {first:?}");
        // Each execution's first grant is a hand-off, and most steps none.
        assert!(*handoffs >= *executions as u64, "{name}: {first:?}");
        assert!(steps > handoffs, "{name}: {first:?}");
        let again = told(&explore(&*scenario, &budget));
        assert_eq!(again, first, "{name}: the second search on this thread");
        let elsewhere = std::thread::scope(|s| {
            let search = s.spawn(|| told(&explore(&*scenario, &budget)));
            search.join().expect("the search panicked")
        });
        assert_eq!(elsewhere, first, "{name}: the search on a fresh thread");
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex};

    /// The CPUs the calling thread may run on.
    fn allowed() -> Vec<usize> {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
        let ranges = list.expect("a Cpus_allowed_list line").trim().split(',');
        ranges
            .flat_map(|range| {
                let (lo, hi) = range.split_once('-').unwrap_or((range, range));
                lo.parse::<usize>().unwrap()..=hi.parse().unwrap()
            })
            .collect()
    }

    /// Two empty threads; the finale, which the explorer's own thread runs,
    /// records where that thread may run meanwhile and passes or fails.
    fn sampling(seen: &Arc<Mutex<Vec<Vec<usize>>>>, pass: bool) -> impl Fn(&mut Sandbox) + Sync {
        let seen = Arc::clone(seen);
        move |sb: &mut Sandbox| {
            sb.thread(|_ctx| {});
            sb.thread(|_ctx| {});
            let seen = Arc::clone(&seen);
            sb.finale(move || {
                seen.lock().unwrap().push(allowed());
                pass.then_some(()).ok_or_else(|| "seeded failure".into())
            });
        }
    }

    #[test]
    fn explore_borrows_one_allowed_cpu_and_gives_the_mask_back() {
        let before = allowed();
        let seen = Arc::default();

        let report = explore(&sampling(&seen, true), &Budget::small(3));
        assert!(report.counterexample.is_none());
        assert_eq!(allowed(), before, "after a passing search");

        let report = explore(&sampling(&seen, false), &Budget::small(3));
        let cex = report.counterexample.expect("the finale fails");
        assert_eq!(cex.failure.kind(), "invariant");
        assert_eq!(allowed(), before, "after a minimized counterexample");

        let sample = sampling(&seen, true);
        let factory_panics = move |sb: &mut Sandbox| {
            sample(sb);
            panic!("the factory gave up");
        };
        let thrown = catch_unwind(AssertUnwindSafe(|| {
            explore(&factory_panics, &Budget::small(3));
        }));
        assert!(thrown.is_err());
        assert_eq!(allowed(), before, "after a panic in the factory");

        // Meanwhile: one CPU of the caller's own — or, on a host that
        // refuses the call, the caller's mask as it was. Never wider.
        let seen = seen.lock().unwrap();
        assert!(seen.len() > 4, "{} samples", seen.len());
        for during in seen.iter() {
            assert!(during.iter().all(|cpu| before.contains(cpu)), "{during:?}");
            assert!(during.len() == 1 || *during == before, "{during:?}");
        }
    }
}
