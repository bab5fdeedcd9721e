//! Cross-crate integration: every workload validates and produces the same
//! answer under both suite generations and across thread counts.

use splash4::{
    close, suite, workload, Benchmark, BenchmarkExt as _, InputClass, SyncEnv, SyncMode,
};

#[test]
fn every_benchmark_validates_in_both_modes_and_thread_counts() {
    for b in Benchmark::all() {
        for mode in SyncMode::ALL {
            for threads in [1, 3] {
                let r = b.execute(InputClass::Test, mode, threads);
                assert!(
                    r.validated,
                    "{b} invalid under {mode} with {threads} threads"
                );
                assert!(r.checksum.is_finite());
                assert!(r.elapsed.as_nanos() > 0);
            }
        }
    }
}

#[test]
fn checksums_agree_across_generations() {
    for b in Benchmark::all() {
        let cmp = b.compare(InputClass::Test, 2);
        assert!(
            cmp.checksums_match(1e-6),
            "{b}: splash3={} splash4={}",
            cmp.splash3.checksum,
            cmp.splash4.checksum
        );
    }
}

/// Table-driven parity over the registry itself: every entry in
/// [`suite`] — not the harness handle — validates and produces the same
/// checksum under all three suite generations. A workload added to the
/// registry is covered here with no test edit, as is a fourth sync
/// generation.
#[test]
fn suite_table_parity_across_generations() {
    for w in suite() {
        let [lock_based, lock_free, combining] = SyncMode::ALL.map(|mode| {
            let env = SyncEnv::new(mode, 2);
            let r = w.run(InputClass::Test, &env);
            assert!(r.validated, "{} invalid under {mode}", w.name());
            assert!(r.checksum.is_finite(), "{} checksum not finite", w.name());
            r
        });
        assert!(
            close(lock_based.checksum, lock_free.checksum, 1e-6),
            "{}: lock-based={} lock-free={}",
            w.name(),
            lock_based.checksum,
            lock_free.checksum
        );
        assert!(
            close(lock_free.checksum, combining.checksum, 1e-6),
            "{}: lock-free={} combining={}",
            w.name(),
            lock_free.checksum,
            combining.checksum
        );
    }
}

/// Registry round-trip: every registered workload's name resolves back to
/// itself through [`workload::find`] and [`workload::find_index`]. That the
/// found object validates with mode-invariant checksums is
/// [`suite_table_parity_across_generations`].
#[test]
fn registry_round_trips_names() {
    for (i, w) in suite().into_iter().enumerate() {
        let found = workload::find(w.name()).expect("registered name must resolve");
        assert!(
            std::ptr::eq(found, w),
            "{} resolved to a different object",
            w.name()
        );
        assert_eq!(workload::find_index(w.name()), Some(i));
    }
}

/// Mixed three-generation policies are answer-preserving too: every
/// workload run under per-construct mixes of all three back-ends — the
/// ablation shapes the characterization sweeps use — produces the uniform
/// lock-free checksum.
#[test]
fn mixed_three_mode_policies_preserve_checksums() {
    use splash4::{ConstructClass, SyncPolicy};
    let mixes = [
        // Combining hot constructs, lock-free elsewhere.
        SyncPolicy::uniform(SyncMode::LockFree)
            .with(ConstructClass::Counter, SyncMode::Combining)
            .with(ConstructClass::Reduction, SyncMode::Combining),
        // All three generations live in one policy.
        SyncPolicy::uniform(SyncMode::Combining)
            .with(ConstructClass::Barrier, SyncMode::LockFree)
            .with(ConstructClass::DataLock, SyncMode::LockBased)
            .with(ConstructClass::Queue, SyncMode::LockBased),
        // Combining barriers over an otherwise lock-based suite.
        SyncPolicy::uniform(SyncMode::LockBased).with(ConstructClass::Barrier, SyncMode::Combining),
        // Uniform splash4x.
        SyncPolicy::uniform(SyncMode::Combining),
    ];
    for w in suite() {
        let baseline = w.run(InputClass::Test, &SyncEnv::new(SyncMode::LockFree, 3));
        for policy in mixes {
            let r = w.run(InputClass::Test, &SyncEnv::new(policy, 3));
            assert!(
                r.validated,
                "{} invalid under {}",
                w.name(),
                policy.describe()
            );
            assert!(
                close(baseline.checksum, r.checksum, 1e-6),
                "{} under {}: lock-free={} mixed={}",
                w.name(),
                policy.describe(),
                baseline.checksum,
                r.checksum
            );
        }
    }
}

#[test]
fn work_models_are_exported_and_calibrated() {
    for b in Benchmark::all() {
        let w = b.work_model(InputClass::Test);
        assert!(!w.phases.is_empty(), "{b} has no phases");
        assert!(w.total_cycles() > 0, "{b} has zero modeled compute");
        for p in &w.phases {
            assert!(p.items > 0, "{b} phase {} has no items", p.name);
            assert!(p.cycles_per_item > 0, "{b} phase {} free compute", p.name);
        }
    }
}
