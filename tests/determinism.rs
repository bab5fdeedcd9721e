//! Run-to-run determinism: repeated executions with identical configuration
//! must produce identical results — the property that makes the suite usable
//! for architectural comparison studies.

use splash4::{Benchmark, BenchmarkExt as _, InputClass, SyncMode};

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
    // cycle costs may wobble with measurement noise.
    for b in [Benchmark::Fft, Benchmark::Radix, Benchmark::Cholesky] {
        let w1 = b.work_model(InputClass::Test);
        let w2 = b.work_model(InputClass::Test);
        assert_eq!(w1.phases.len(), w2.phases.len());
        for (p1, p2) in w1.phases.iter().zip(&w2.phases) {
            assert_eq!(p1.name, p2.name);
            assert_eq!(p1.items, p2.items, "{b} phase {}", p1.name);
            assert_eq!(p1.repeats, p2.repeats, "{b} phase {}", p1.name);
            assert_eq!(p1.dispatch, p2.dispatch);
            assert_eq!(p1.data_touches_per_item, p2.data_touches_per_item);
            assert_eq!(p1.barriers_after, p2.barriers_after);
        }
    }
}
