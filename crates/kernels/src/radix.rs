//! `radix` — parallel LSD radix sort (Splash-2 kernel).
//!
//! Each pass over a digit: (1) local histograms, merged into a global
//! histogram with fine-grained adds; (2) the master prefix-sums bucket
//! starts; (3) a **ranking phase** computes per-(thread, bucket) write
//! offsets — buckets are claimed dynamically with a `GETSUB` counter; (4) a
//! race-free stable permutation into the destination array.
//!
//! Synchronization profile: this is the suite's **counter- and
//! histogram-heavy** kernel. Splash-3 guards the global histogram with a lock
//! array and the bucket claims with a locked counter; Splash-4 uses
//! `fetch_add` for both. The paper reports radix among the biggest winners.

use crate::common::{KernelResult, SharedAccum, SharedSlice};
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::SmallRng;
use splash4_parmacs::{Dispatch, PhaseSpec, SyncEnv, WorkModel};

/// Radix-sort kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixConfig {
    /// Number of keys.
    pub n: usize,
    /// Digit width in bits (buckets per pass = 2^bits).
    pub bits: u32,
    /// RNG seed for the key array.
    pub seed: u64,
}

impl RadixConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> RadixConfig {
        let (n, bits) = match class {
            InputClass::Test => (1 << 14, 8),
            InputClass::Small => (1 << 18, 8),
            InputClass::Native => (1 << 22, 8), // paper: up to 64M keys, radix 1024
        };
        RadixConfig {
            n,
            bits,
            seed: 0x5eed_4ad1,
        }
    }

    /// Buckets per pass.
    pub fn buckets(&self) -> usize {
        1 << self.bits
    }

    /// Number of digit passes for 32-bit keys.
    pub fn passes(&self) -> u32 {
        u32::BITS.div_ceil(self.bits)
    }
}

/// Generate the deterministic key array.
pub fn generate_keys(cfg: &RadixConfig) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    (0..cfg.n).map(|_| rng.gen()).collect()
}

/// Run the radix sort under `env`; validates sortedness and multiset
/// preservation.
pub fn run(cfg: &RadixConfig, env: &SyncEnv) -> KernelResult {
    let n = cfg.n;
    let r = cfg.buckets();
    let passes = cfg.passes();
    let nthreads = env.nthreads();

    let keys = generate_keys(cfg);
    let input_sum: u64 = keys.iter().map(|&k| k as u64).sum();
    let input_xor: u32 = keys.iter().fold(0, |a, &k| a ^ k);

    let mut src = keys.clone();
    let mut dst = vec![0u32; n];
    let vsrc = SharedSlice::new(&mut src);
    let vdst = SharedSlice::new(&mut dst);

    let barrier = env.barrier();
    // The global histogram, one lock per bank of 16 digits in Splash-3.
    let hist = SharedAccum::<u64>::new(env, r, 16);
    // counts[t*r + d]: thread-private rows of the rank matrix.
    let mut counts_store = vec![0u64; nthreads * r];
    let counts = SharedSlice::new(&mut counts_store);
    let mut starts_store = vec![0u64; r + 1];
    let starts = SharedSlice::new(&mut starts_store);
    // One bucket-claim counter per pass (GETSUB).
    let rank_counters: Vec<_> = (0..passes)
        .map(|p| env.counter(&format!("rank-pass{p}"), 0..r))
        .collect();
    let checksum = env.reducer_f64();

    let elapsed = driver::roi(env, |ctx| {
        let my = ctx.chunk(n);
        for pass in 0..passes {
            let shift = pass * cfg.bits;
            let (cur, next) = if pass % 2 == 0 {
                (&vsrc, &vdst)
            } else {
                (&vdst, &vsrc)
            };

            // Phase 1: local histogram + global merge.
            let mut local = vec![0u64; r];
            for i in my.clone() {
                // SAFETY: read-only phase on `cur`.
                let d = ((unsafe { cur.get(i) } >> shift) as usize) & (r - 1);
                local[d] += 1;
            }
            for (d, &c) in local.iter().enumerate() {
                if c > 0 {
                    hist.add(d, c);
                }
                // SAFETY: row `tid` of the rank matrix is thread-private.
                unsafe { counts.set(ctx.tid * r + d, c) };
            }
            barrier.wait(ctx.tid);

            // Phase 2: master prefix-sums bucket starts.
            if ctx.is_master() {
                let mut acc = 0u64;
                for d in 0..r {
                    // SAFETY: only master writes `starts` this phase.
                    unsafe { starts.set(d, acc) };
                    acc += hist.load(d);
                }
                unsafe { starts.set(r, acc) };
                hist.reset();
            }
            barrier.wait(ctx.tid);

            // Phase 3: ranking — claim buckets dynamically, turn counts into
            // exclusive per-thread offsets.
            let counter = &rank_counters[pass as usize];
            counter.reset();
            barrier.wait(ctx.tid);
            while let Some(d) = counter.next() {
                // SAFETY: bucket `d` is claimed exclusively; column d of the
                // rank matrix is only touched by this thread now.
                let mut running = unsafe { starts.get(d) };
                for t in 0..nthreads {
                    let c = unsafe { counts.get(t * r + d) };
                    unsafe { counts.set(t * r + d, running) };
                    running += c;
                }
            }
            barrier.wait(ctx.tid);

            // Phase 4: stable permutation using private cursors.
            let mut cursor = vec![0u64; r];
            for (d, c) in cursor.iter_mut().enumerate() {
                // SAFETY: rank matrix is read-only this phase.
                *c = unsafe { counts.get(ctx.tid * r + d) };
            }
            for i in my.clone() {
                // SAFETY: `cur` read-only; every write slot is unique by the
                // rank construction.
                let k = unsafe { cur.get(i) };
                let d = ((k >> shift) as usize) & (r - 1);
                unsafe { next.set(cursor[d] as usize, k) };
                cursor[d] += 1;
            }
            barrier.wait(ctx.tid);
        }
        // Checksum: Σ keys over the final array.
        let out = if passes.is_multiple_of(2) {
            &vsrc
        } else {
            &vdst
        };
        let mut local = 0.0;
        for i in my {
            // SAFETY: sort complete.
            local += unsafe { out.get(i) } as f64;
        }
        checksum.add(local);
        barrier.wait(ctx.tid);
    });

    let out = if passes.is_multiple_of(2) { &src } else { &dst };
    let sorted = out.windows(2).all(|w| w[0] <= w[1]);
    let out_sum: u64 = out.iter().map(|&k| k as u64).sum();
    let out_xor: u32 = out.iter().fold(0, |a, &k| a ^ k);
    let validated = sorted && out_sum == input_sum && out_xor == input_xor;

    let nu = n as u64;
    let ru = r as u64;
    let work = WorkModel::new("radix")
        .phase(
            PhaseSpec::compute("histogram", nu, 4)
                .repeats(passes as u64)
                .barriers(0),
        )
        .phase(
            // Every thread merges its row of `ru` digit counts.
            PhaseSpec::compute("merge", ru, 1)
                .repeats(passes as u64)
                .dispatch(Dispatch::Replicated)
                .data_touches(1.0),
        )
        .phase(
            PhaseSpec::compute("prefix", ru, 6)
                .repeats(passes as u64)
                .barriers(2),
        )
        .phase(
            // A bucket's rank walks one count per thread; 8 cycles is the
            // one-thread walk the model is built from.
            PhaseSpec::compute("rank", ru, 8)
                .repeats(passes as u64)
                .dispatch(Dispatch::GetSub { chunk: 1 }),
        )
        .phase(PhaseSpec::compute("permute", nu, 6).repeats(passes as u64))
        .phase(PhaseSpec::compute("checksum", nu, 2).reduces(1));

    driver::finish(env, elapsed, checksum.load(), validated, work)
}

/// `radix`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct Radix;

impl Workload for Radix {
    fn name(&self) -> &'static str {
        "radix"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = RadixConfig::class(class);
        format!("{} keys, radix {}", c.n, c.buckets())
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&RadixConfig::class(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_parmacs::SyncMode;

    #[test]
    fn sorts_single_thread() {
        let cfg = RadixConfig {
            n: 4096,
            bits: 8,
            seed: 1,
        };
        for mode in SyncMode::ALL {
            let r = run(&cfg, &SyncEnv::new(mode, 1));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn sorts_multithreaded() {
        let cfg = RadixConfig {
            n: 10_000,
            bits: 8,
            seed: 2,
        };
        for mode in SyncMode::ALL {
            for t in [2, 3, 4] {
                let r = run(&cfg, &SyncEnv::new(mode, t));
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn odd_sizes_and_wide_digits() {
        // n not divisible by thread count; 11-bit digits → 3 passes with a
        // partial top digit.
        let cfg = RadixConfig {
            n: 12_345,
            bits: 11,
            seed: 3,
        };
        let r = run(&cfg, &SyncEnv::new(SyncMode::LockFree, 3));
        assert!(r.validated);
    }

    #[test]
    fn checksum_equals_key_sum() {
        let cfg = RadixConfig {
            n: 2048,
            bits: 8,
            seed: 4,
        };
        let want: f64 = generate_keys(&cfg).iter().map(|&k| k as f64).sum();
        let r = run(&cfg, &SyncEnv::new(SyncMode::LockFree, 2));
        assert!((r.checksum - want).abs() < 1.0);
    }

    #[test]
    fn lock_free_mode_uses_no_locks() {
        let cfg = RadixConfig {
            n: 4096,
            bits: 8,
            seed: 5,
        };
        let env = SyncEnv::new(SyncMode::LockFree, 2);
        let r = run(&cfg, &env);
        assert_eq!(r.profile.lock_acquires, 0);
        assert!(r.profile.atomic_rmws > 0);
        assert!(r.profile.getsub_calls > 0);
    }

    #[test]
    fn lock_based_mode_uses_no_rmws() {
        let cfg = RadixConfig {
            n: 4096,
            bits: 8,
            seed: 5,
        };
        let env = SyncEnv::new(SyncMode::LockBased, 2);
        let r = run(&cfg, &env);
        assert_eq!(r.profile.atomic_rmws, 0);
        assert!(r.profile.lock_acquires > 0);
    }

    #[test]
    fn passes_cover_all_bits() {
        assert_eq!(
            RadixConfig {
                n: 1,
                bits: 8,
                seed: 0
            }
            .passes(),
            4
        );
        assert_eq!(
            RadixConfig {
                n: 1,
                bits: 11,
                seed: 0
            }
            .passes(),
            3
        );
        assert_eq!(
            RadixConfig {
                n: 1,
                bits: 16,
                seed: 0
            }
            .passes(),
            2
        );
    }
}
