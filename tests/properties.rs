//! Property-based integration tests over the public API: kernels must
//! validate for arbitrary (bounded) configurations, not just the presets.
//!
//! The module `std_fallback` draws the configurations from the in-repo seeded
//! RNG, keeping them in tier-1 offline.

use splash4::{fft, lu, radix, water_nsq, InputClass, SyncEnv, SyncMode};

fn check_radix_sorts(n: usize, bits: u32, seed: u64, threads: usize) {
    let cfg = radix::RadixConfig { n, bits, seed };
    let env = SyncEnv::new(SyncMode::LockFree, threads);
    let r = radix::run(&cfg, &env);
    assert!(r.validated, "radix failed: n={n} bits={bits} seed={seed}");
}

fn check_fft_round_trips(log_m: u32, seed: u64, threads: usize) {
    let cfg = fft::FftConfig {
        m: 1 << log_m,
        seed,
    };
    let env = SyncEnv::new(SyncMode::LockBased, threads);
    let r = fft::run(&cfg, &env);
    assert!(r.validated, "fft failed: m={} seed={seed}", cfg.m);
}

fn check_lu_reconstructs(blocks: usize, block: usize, seed: u64, threads: usize) {
    let cfg = lu::LuConfig {
        n: blocks * block,
        block,
        seed,
        layout: if seed.is_multiple_of(2) {
            lu::LuLayout::Contiguous
        } else {
            lu::LuLayout::RowMajor
        },
    };
    let env = SyncEnv::new(SyncMode::LockFree, threads);
    let r = lu::run(&cfg, &env);
    assert!(
        r.validated,
        "lu failed: n={} block={block} seed={seed}",
        cfg.n
    );
}

fn check_water_conserves(n: usize, seed: u64, threads: usize) {
    let cfg = water_nsq::WaterNsqConfig {
        n,
        steps: 2,
        dt: 0.001,
        seed,
    };
    let env = SyncEnv::new(SyncMode::LockFree, threads);
    let r = water_nsq::run(&cfg, &env);
    assert!(r.validated, "water failed: n={n} seed={seed}");
}

fn check_radix_mode_equivalence(n: usize, seed: u64) {
    let cfg = radix::RadixConfig { n, bits: 8, seed };
    let lb = radix::run(&cfg, &SyncEnv::new(SyncMode::LockBased, 2));
    let lf = radix::run(&cfg, &SyncEnv::new(SyncMode::LockFree, 3));
    assert!(lb.validated && lf.validated);
    assert!((lb.checksum - lf.checksum).abs() < 1.0);
}

mod std_fallback {
    use super::*;
    use splash4::SmallRng;

    const CASES: usize = 8;

    #[test]
    fn radix_sorts_arbitrary_sizes() {
        let mut rng = SmallRng::seed_from_u64(0x5A5A_0001);
        for _ in 0..CASES {
            check_radix_sorts(
                rng.gen_range(64usize..4096),
                rng.gen_range(4u32..12),
                rng.gen::<u64>(),
                rng.gen_range(1usize..5),
            );
        }
    }

    #[test]
    fn fft_round_trips_arbitrary_signals() {
        let mut rng = SmallRng::seed_from_u64(0x5A5A_0002);
        for _ in 0..CASES {
            check_fft_round_trips(
                rng.gen_range(2u32..6),
                rng.gen::<u64>(),
                rng.gen_range(1usize..4),
            );
        }
    }

    #[test]
    fn lu_reconstructs_arbitrary_matrices() {
        let mut rng = SmallRng::seed_from_u64(0x5A5A_0003);
        for _ in 0..CASES {
            check_lu_reconstructs(
                rng.gen_range(2usize..6),
                if rng.gen::<bool>() { 4 } else { 8 },
                rng.gen::<u64>(),
                rng.gen_range(1usize..4),
            );
        }
    }

    #[test]
    fn water_conserves_for_arbitrary_seeds() {
        let mut rng = SmallRng::seed_from_u64(0x5A5A_0004);
        for _ in 0..CASES {
            let n = [32usize, 64, 125][rng.gen_range(0usize..3)];
            check_water_conserves(n, rng.gen::<u64>(), rng.gen_range(1usize..4));
        }
    }

    #[test]
    fn mode_equivalence_holds_for_arbitrary_radix_inputs() {
        let mut rng = SmallRng::seed_from_u64(0x5A5A_0005);
        for _ in 0..CASES {
            check_radix_mode_equivalence(rng.gen_range(128usize..2048), rng.gen::<u64>());
        }
    }
}

// Keep InputClass linked into the property suite so preset drift shows up.
#[test]
fn preset_classes_parse() {
    for c in InputClass::ALL {
        assert_eq!(InputClass::from_label(c.label()), Some(c));
    }
}
