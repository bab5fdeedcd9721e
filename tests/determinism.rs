//! Run-to-run determinism: repeated executions with identical configuration
//! must produce identical results — the property that makes the suite usable
//! for architectural comparison studies.

use splash4::{Benchmark, BenchmarkExt as _, InputClass, SyncMode, WorkModel};

#[test]
fn repeated_runs_are_bit_identical_single_thread() {
    // With one thread there is no scheduling freedom at all: checksums must
    // match exactly, and so must the dynamic sync-op counts.
    for b in Benchmark::all() {
        let a = b.execute(InputClass::Test, SyncMode::LockFree, 1);
        let c = b.execute(InputClass::Test, SyncMode::LockFree, 1);
        assert_eq!(a.checksum.to_bits(), c.checksum.to_bits(), "{b} drifted");
        assert_eq!(a.profile.barrier_waits, c.profile.barrier_waits);
        assert_eq!(a.profile.getsub_calls, c.profile.getsub_calls);
        assert_eq!(a.profile.reduce_ops, c.profile.reduce_ops);
    }
}

#[test]
fn repeated_runs_agree_multithreaded() {
    // With threads, reduction order may vary; results must still agree to
    // rounding, and the *logical* op counts must be identical.
    for b in Benchmark::all() {
        let a = b.execute(InputClass::Test, SyncMode::LockBased, 3);
        let c = b.execute(InputClass::Test, SyncMode::LockBased, 3);
        let scale = a.checksum.abs().max(1.0);
        assert!(
            (a.checksum - c.checksum).abs() <= 1e-6 * scale,
            "{b}: {} vs {}",
            a.checksum,
            c.checksum
        );
        assert_eq!(a.profile.barrier_waits, c.profile.barrier_waits, "{b}");
        assert_eq!(a.profile.getsub_calls, c.profile.getsub_calls, "{b}");
    }
}

#[test]
fn logical_counts_are_identical_run_to_run() {
    // The logical counts are what the program asked for, so no schedule
    // moves them: every workload, every mode, three runs at 2 and 4 threads.
    for b in Benchmark::all() {
        for mode in SyncMode::ALL {
            for threads in [2, 4] {
                let logical = || b.execute(InputClass::Test, mode, threads).profile.logical();
                let first = logical();
                for _ in 0..2 {
                    assert_eq!(logical(), first, "{b} ({mode:?}, {threads} threads)");
                }
            }
        }
    }
}

#[test]
fn work_models_are_stable_across_runs() {
    // The simulator input derived from a kernel run must have a stable
    // structure (same phases, items, sync rates) — only the calibrated
    // cycle costs may wobble with measurement noise — and the structure
    // must not depend on the thread count of the run that built it.
    let structure = |mut w: WorkModel| {
        for p in &mut w.phases {
            p.cycles_per_item = 0;
        }
        w
    };
    for b in Benchmark::all() {
        let first = structure(b.work_model(InputClass::Test));
        assert_eq!(structure(b.work_model(InputClass::Test)), first, "{b}");
        for threads in [1, 2, 4] {
            let work = b
                .execute(InputClass::Test, SyncMode::LockFree, threads)
                .work;
            assert_eq!(structure(work), first, "{b} at {threads} threads");
        }
    }
}
