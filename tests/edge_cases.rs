//! Edge cases and failure injection across the public API: degenerate
//! configurations, oversubscription, misuse panics.

use splash4::{
    fft, lu, ocean, radix, raytrace, volrend, Benchmark, BenchmarkExt as _, InputClass, SyncEnv,
    SyncMode,
};

#[test]
fn more_threads_than_work_items_still_validates() {
    // 16 blocks of LU work spread over 11 threads, some idle in most phases.
    let cfg = lu::LuConfig {
        n: 32,
        block: 8,
        seed: 1,
        layout: lu::LuLayout::Contiguous,
    };
    for mode in SyncMode::ALL {
        let r = lu::run(&cfg, &SyncEnv::new(mode, 11));
        assert!(r.validated, "mode {mode}");
    }
}

#[test]
fn tiny_radix_with_more_threads_than_buckets_touch() {
    let cfg = radix::RadixConfig {
        n: 65,
        bits: 4,
        seed: 2,
    };
    let r = radix::run(&cfg, &SyncEnv::new(SyncMode::LockFree, 7));
    assert!(r.validated);
}

#[test]
fn minimal_fft_is_exact() {
    // m = 2 → a 4-point transform through the full six-step machinery.
    let cfg = fft::FftConfig { m: 2, seed: 3 };
    for mode in SyncMode::ALL {
        let r = fft::run(&cfg, &SyncEnv::new(mode, 2));
        assert!(r.validated, "mode {mode}");
    }
}

#[test]
fn single_pixel_tiles_render() {
    let cfg = raytrace::RaytraceConfig {
        size: 17,
        tile: 1,
        max_depth: 1,
    };
    let r = raytrace::run(&cfg, &SyncEnv::new(SyncMode::LockFree, 3));
    assert!(r.validated);
}

#[test]
fn volume_smaller_than_macrocell() {
    let cfg = volrend::VolrendConfig {
        volume: 3, // < MACRO(4): single partial macro cell per axis
        image: 8,
        tile: 4,
        termination: 0.98,
    };
    let r = volrend::run(&cfg, &SyncEnv::new(SyncMode::LockFree, 2));
    assert!(r.validated);
}

#[test]
fn ocean_one_interior_row_per_thread() {
    let cfg = ocean::OceanConfig {
        n: 4,
        tolerance: 1e-9,
        max_iters: 2000,
        layout: ocean::OceanLayout::RowArrays,
    };
    let r = ocean::run(&cfg, &SyncEnv::new(SyncMode::LockBased, 4));
    assert!(r.validated);
}

#[test]
fn zero_thread_env_panics() {
    assert!(std::panic::catch_unwind(|| SyncEnv::new(SyncMode::LockFree, 0)).is_err());
}

#[test]
fn lu_rejects_misaligned_block_size() {
    let cfg = lu::LuConfig {
        n: 30, // not a multiple of 8
        block: 8,
        seed: 1,
        layout: lu::LuLayout::Contiguous,
    };
    let env = SyncEnv::new(SyncMode::LockFree, 1);
    // AssertUnwindSafe: the env is dropped right after; the trace-sink slot
    // it carries is the only interior-mutable state behind the boundary.
    let run = std::panic::AssertUnwindSafe(|| lu::run(&cfg, &env));
    assert!(std::panic::catch_unwind(run).is_err());
}

#[test]
fn heavy_oversubscription_matches_reference() {
    // 16 threads on a small host: schedules arbitrarily, answers identical.
    let a = Benchmark::Fft.execute(InputClass::Test, SyncMode::LockFree, 16);
    let b = Benchmark::Fft.execute(InputClass::Test, SyncMode::LockBased, 1);
    assert!(a.validated && b.validated);
    assert!((a.checksum - b.checksum).abs() <= 1e-9 * b.checksum.abs());
}

#[test]
fn ablation_every_single_class_flip_validates() {
    use splash4::{ConstructClass, SyncPolicy};
    for class in ConstructClass::ALL {
        let policy = SyncPolicy::uniform(SyncMode::LockBased).with(class, SyncMode::LockFree);
        let env = SyncEnv::new(policy, 2);
        let r = Benchmark::Radix.run(InputClass::Test, &env);
        assert!(r.validated, "flipping {class} broke radix");
    }
}

#[test]
fn work_models_survive_extreme_simulated_core_counts() {
    use splash4::{simulate, MachineParams};
    let work = Benchmark::Volrend.work_model(InputClass::Test);
    let m = MachineParams::epyc_like();
    // 1 core and far beyond the preset's physical count: no panics, sane times.
    let t1 = simulate(&work, SyncMode::LockFree, 1, &m).total_ns;
    let t128 = simulate(&work, SyncMode::LockFree, 128, &m).total_ns;
    assert!(t1 > 0 && t128 > 0);
    assert!(
        t128 < t1,
        "even past max_cores the model stays monotone here"
    );
}
