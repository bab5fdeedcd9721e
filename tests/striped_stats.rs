//! Striped instrumentation must be observationally transparent.
//!
//! `SyncCounters` stripes its counters across one cache-padded lane per team
//! member so hot-path bumps never share a line; `snapshot()` folds the lanes.
//! These tests run real kernels with the striped layout (one lane per
//! thread, the production default) and with a single shared slot
//! (`with_stat_lanes(1)`, the pre-striping reference layout) and assert the
//! logical operation counts are identical — striping may only change *where*
//! counts accumulate, never *what* is counted.
//!
//! Only the logical counts (`SyncProfile::logical`) are compared: lock
//! acquisitions, contention, CAS retries and wait times legitimately vary
//! run to run.

use splash4::{Benchmark, InputClass, SyncEnv, SyncMode};

fn assert_same_logical_counts(b: Benchmark, mode: SyncMode, threads: usize) {
    let striped = b
        .run(InputClass::Test, &SyncEnv::new(mode, threads))
        .profile;
    let single = b
        .run(
            InputClass::Test,
            &SyncEnv::new(mode, threads).with_stat_lanes(1),
        )
        .profile;
    for ((name, s), (_, r)) in striped.logical().into_iter().zip(single.logical()) {
        assert_eq!(
            s,
            r,
            "{b} [{}, {threads}t]: {name} differs striped={s} single-slot={r}",
            mode.label()
        );
    }
}

#[test]
fn fft_counts_are_identical_striped_vs_single_slot() {
    for mode in SyncMode::ALL {
        assert_same_logical_counts(Benchmark::Fft, mode, 4);
    }
}

#[test]
fn ocean_counts_are_identical_striped_vs_single_slot() {
    for mode in SyncMode::ALL {
        assert_same_logical_counts(Benchmark::Ocean, mode, 4);
    }
}

#[test]
fn oversubscribed_team_still_folds_exactly() {
    // More threads than lanes: tids wrap onto lanes modulo the lane count.
    // 7 threads over 2 lanes must still fold to the 1-lane reference counts.
    let b = Benchmark::Fft;
    let reference = b
        .run(
            InputClass::Test,
            &SyncEnv::new(SyncMode::LockFree, 7).with_stat_lanes(1),
        )
        .profile;
    let wrapped = b
        .run(
            InputClass::Test,
            &SyncEnv::new(SyncMode::LockFree, 7).with_stat_lanes(2),
        )
        .profile;
    for ((name, w), (_, r)) in wrapped.logical().into_iter().zip(reference.logical()) {
        assert_eq!(w, r, "{name} differs under oversubscription");
    }
}
