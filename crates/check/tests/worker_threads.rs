//! One test, alone in its binary: it reads two process-wide figures — the
//! thread count in `/proc/self/status` and the live heap, through a counting
//! allocator — which a test running beside it would move.

use splash4_check::{explore, pool_scenario, Budget, Sandbox, Step};
use splash4_reclaim::{PoolShape, ReclaimKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged (`realloc` is the
// default: `alloc`, copy, `dealloc`); the count touches no memory of theirs.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `Threads:` of this process, where there is a `/proc` to ask.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let count = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    count.trim().parse().ok()
}

/// A search of exactly `executions` executions, however few its schedules.
fn budget(executions: usize) -> Budget {
    Budget {
        min_schedules: 1_000_000,
        max_executions: executions,
        ..Budget::small(1)
    }
}

#[test]
fn a_search_leaves_no_thread_and_no_lease_behind() {
    // Three virtual threads, 200 executions: three workers and no more
    // while the search runs (the finale counts on the explorer's thread,
    // with every worker parked), none once it is over.
    if let Some(start) = os_threads() {
        let peak = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&peak);
        let scenario = move |sb: &mut Sandbox| {
            (0..3).for_each(|_| sb.thread(|_ctx| {}));
            let peak = Arc::clone(&counted);
            sb.finale(move || {
                peak.fetch_max(os_threads().unwrap_or(0), Ordering::Relaxed);
                Ok(())
            });
        };
        let report = explore(&scenario, &budget(200));
        assert_eq!((report.executions, report.distinct_schedules), (200, 6));
        assert_eq!(peak.load(Ordering::Relaxed), start + 3);
        // `join` returns when the worker is through, a moment before the
        // kernel takes it off the count.
        let deadline = Instant::now() + Duration::from_secs(5);
        while os_threads() != Some(start) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(os_threads(), Some(start), "a worker outlived its search");
    }

    // The R1 epoch row's pool and reclaimer under one popper: a search over
    // one virtual thread has one schedule, so its 300 executions are the
    // same execution and the heap each starts from can be compared byte for
    // byte. Every execution builds a reclaimer, and the worker and the
    // explorer (it stocks the pool) each lease a record of it; a lease kept
    // past its registry's death would pin that registry's allocation.
    let heaps = Arc::new(Mutex::new(Vec::with_capacity(512)));
    let sampled = Arc::clone(&heaps);
    let row = pool_scenario(
        PoolShape::Lifo,
        ReclaimKind::Epoch,
        &[1, 2],
        &[&[Step::Pop, Step::Pop, Step::Flush]],
    );
    let scenario = move |sb: &mut Sandbox| {
        let live = LIVE.load(Ordering::Relaxed);
        sampled.lock().unwrap().push(live);
        row(sb);
    };
    let report = explore(&scenario, &budget(300));
    assert!(report.counterexample.is_none(), "{report:?}");
    assert_eq!((report.executions, report.distinct_schedules), (300, 1));
    let heaps = heaps.lock().unwrap();
    assert_eq!(heaps.len(), 300);
    assert_eq!(heaps[299], heaps[100], "the heap grew: {:?}", &heaps[..8]);
    assert_eq!(heaps[200], heaps[100]);
}
