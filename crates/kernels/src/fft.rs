//! `fft` — radix-√n six-step 1-D complex FFT (Splash-2 kernel).
//!
//! The n-point signal is viewed as a √n × √n matrix and transformed with the
//! classic six-step algorithm: transpose, √n row-FFTs, twiddle scaling,
//! transpose, √n row-FFTs, transpose. Every step is separated by a team
//! barrier; the final checksum is a global reduction.
//!
//! Synchronization profile: **barrier-bound** (seven episodes per run) with
//! one reduction — the modernization replaces the condvar barriers with
//! sense-reversing ones and the lock around the checksum with a CAS loop.
//! This is one of the kernels where the paper reports a moderate (not
//! dramatic) Splash-4 win, since barrier *count* is tiny; the win comes
//! entirely from per-episode cost at high thread counts.

use crate::common::{KernelResult, SharedSlice};
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::SmallRng;
use splash4_parmacs::{Dispatch, PhaseSpec, SyncEnv, WorkModel};

/// A complex number (the kernels carry their own minimal arithmetic, as the
/// original C code does).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cpx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

#[allow(clippy::should_implement_trait)] // methods mirror the C original's cadd/cmul helpers
impl Cpx {
    /// Construct from parts.
    pub fn new(re: f64, im: f64) -> Cpx {
        Cpx { re, im }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Cpx {
        Cpx::new(theta.cos(), theta.sin())
    }

    /// Complex multiplication.
    #[inline]
    pub fn mul(self, o: Cpx) -> Cpx {
        Cpx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    /// Complex addition.
    #[inline]
    pub fn add(self, o: Cpx) -> Cpx {
        Cpx::new(self.re + o.re, self.im + o.im)
    }

    /// Complex subtraction.
    #[inline]
    pub fn sub(self, o: Cpx) -> Cpx {
        Cpx::new(self.re - o.re, self.im - o.im)
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// FFT kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftConfig {
    /// Matrix side: the transform size is `m × m` points; `m` must be a
    /// power of two.
    pub m: usize,
    /// RNG seed for the input signal.
    pub seed: u64,
}

impl FftConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> FftConfig {
        let m = match class {
            InputClass::Check => 4,     // 16 points
            InputClass::Test => 64,     // 4 Ki points
            InputClass::Small => 256,   // 64 Ki points
            InputClass::Native => 1024, // 1 Mi points (paper: 2^20/2^22)
        };
        FftConfig {
            m,
            seed: 0x5eed_f017,
        }
    }

    /// Total transform size `n = m²`.
    pub fn n(&self) -> usize {
        self.m * self.m
    }
}

/// Generate the deterministic input signal.
pub fn generate_input(cfg: &FftConfig) -> Vec<Cpx> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    (0..cfg.n())
        .map(|_| Cpx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// In-place iterative radix-2 FFT of `row` (`sign = -1.0` forward).
fn fft_row(row: &mut [Cpx], sign: f64) {
    let m = row.len();
    debug_assert!(m.is_power_of_two());
    // Bit-reversal permutation.
    let bits = m.trailing_zeros();
    for i in 0..m {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            row.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= m {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Cpx::cis(ang);
        let mut i = 0;
        while i < m {
            let mut w = Cpx::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = row[i + k];
                let v = row[i + k + len / 2].mul(w);
                row[i + k] = u.add(v);
                row[i + k + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Sequential oracle: one iterative radix-2 transform over all n points with
/// an exact twiddle table `cis(-2πk/n)` (a deliberately different code path
/// from the six-step kernel: no transposes, no twiddle recurrence).
pub fn oracle_fft(x: &[Cpx]) -> Vec<Cpx> {
    let n = x.len();
    assert!(n.is_power_of_two(), "n must be a power of two");
    let shift = usize::BITS - n.trailing_zeros();
    let mut out: Vec<Cpx> = (0..n)
        .map(|i| x[i.reverse_bits().checked_shr(shift).unwrap_or(0)])
        .collect();
    let tw: Vec<Cpx> = (0..n / 2)
        .map(|k| Cpx::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
        .collect();
    let mut half = 1;
    while half < n {
        let stride = n / (2 * half);
        for blk in out.chunks_exact_mut(2 * half) {
            let (e, o) = blk.split_at_mut(half);
            for k in 0..half {
                let t = tw[k * stride].mul(o[k]);
                (e[k], o[k]) = (e[k].add(t), e[k].sub(t));
            }
        }
        half *= 2;
    }
    out
}

/// `got ≈ oracle_fft(input)` in every bin, relative to the largest bin.
fn validate(input: &[Cpx], got: &[Cpx]) -> bool {
    let want = oracle_fft(input);
    let max_err = got
        .iter()
        .zip(&want)
        .map(|(got, want)| got.sub(*want).abs())
        .fold(0.0f64, f64::max);
    let scale = want.iter().map(|c| c.abs()).fold(0.0f64, f64::max).max(1.0);
    max_err / scale < 1e-9
}

/// Run the six-step FFT under `env` and validate every output bin against
/// the oracle.
pub fn run(cfg: &FftConfig, env: &SyncEnv) -> KernelResult {
    assert!(cfg.m.is_power_of_two(), "m must be a power of two");
    let m = cfg.m;
    let n = cfg.n();
    let nthreads = env.nthreads();
    let input = generate_input(cfg);

    let mut a = input.clone();
    let mut b = vec![Cpx::default(); n];
    let va = SharedSlice::new(&mut a);
    let vb = SharedSlice::new(&mut b);

    let barrier = env.barrier();
    let checksum = env.reducer_f64();

    // Transpose src -> dst for this thread's row chunk of dst.
    // SAFETY (all uses): each thread writes only rows in its chunk of the
    // destination; sources are read-only within a phase; phases are separated
    // by barriers.
    let transpose =
        |src: &SharedSlice<'_, Cpx>, dst: &SharedSlice<'_, Cpx>, rows: std::ops::Range<usize>| {
            for i in rows {
                for j in 0..m {
                    unsafe { dst.set(i * m + j, src.get(j * m + i)) };
                }
            }
        };

    let elapsed = driver::roi(env, |ctx| {
        let rows = ctx.chunk(m);
        // Step 1: B = Aᵀ (B[j2][j1] = A[j1][j2]).
        transpose(&va, &vb, rows.clone());
        barrier.wait(ctx.tid);
        // Step 2: FFT rows of B (over j1).
        for r in rows.clone() {
            // SAFETY: row r belongs to this thread's chunk.
            let row = unsafe { std::slice::from_raw_parts_mut(vb.at(r * m), m) };
            fft_row(row, -1.0);
        }
        barrier.wait(ctx.tid);
        // Step 3: twiddle B[j2][k1] *= W_n^{j2·k1}.
        for r in rows.clone() {
            for c in 0..m {
                let w = Cpx::cis(-2.0 * std::f64::consts::PI * (r * c) as f64 / n as f64);
                // SAFETY: disjoint rows.
                unsafe { vb.set(r * m + c, vb.get(r * m + c).mul(w)) };
            }
        }
        barrier.wait(ctx.tid);
        // Step 4: A = Bᵀ.
        transpose(&vb, &va, rows.clone());
        barrier.wait(ctx.tid);
        // Step 5: FFT rows of A (over j2).
        for r in rows.clone() {
            // SAFETY: row r belongs to this thread's chunk.
            let row = unsafe { std::slice::from_raw_parts_mut(va.at(r * m), m) };
            fft_row(row, -1.0);
        }
        barrier.wait(ctx.tid);
        // Step 6: B = Aᵀ; flat B is the transform in natural order.
        transpose(&va, &vb, rows.clone());
        barrier.wait(ctx.tid);
        // Checksum: Σ|X| as a global reduction.
        let mut local = 0.0;
        for i in rows.start * m..rows.end * m {
            // SAFETY: phase-complete data, read-only.
            local += unsafe { vb.get(i) }.abs();
        }
        checksum.add(local);
        barrier.wait(ctx.tid);
    });

    let validated = validate(&input, &b);

    let log_m = (m.trailing_zeros()) as u64;
    let work = WorkModel::new("fft")
        .phase(PhaseSpec::compute("transpose1", m as u64, 8 * m as u64))
        .phase(PhaseSpec::compute("fft1", m as u64, 14 * m as u64 * log_m))
        .phase(PhaseSpec::compute("twiddle", m as u64, 30 * m as u64))
        .phase(PhaseSpec::compute("transpose2", m as u64, 8 * m as u64))
        .phase(PhaseSpec::compute("fft2", m as u64, 14 * m as u64 * log_m))
        .phase(PhaseSpec::compute("transpose3", m as u64, 8 * m as u64))
        .phase(
            PhaseSpec::compute("checksum", m as u64, 6 * m as u64)
                .dispatch(Dispatch::Static)
                .reduces(1.0 / m as f64 * nthreads as f64),
        );

    driver::finish(env, elapsed, checksum.load(), validated, work)
}

/// `fft`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct Fft;

impl Workload for Fft {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = FftConfig::class(class);
        format!("{} complex points (√n={})", c.n(), c.m)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&FftConfig::class(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;
    use splash4_parmacs::SyncMode;

    /// The previous oracle: recursive radix-2, allocating at every level and
    /// calling `cis` per butterfly.
    fn oracle_fft_recursive(x: &[Cpx]) -> Vec<Cpx> {
        fn rec(x: Vec<Cpx>) -> Vec<Cpx> {
            let n = x.len();
            if n == 1 {
                return x;
            }
            let even: Vec<Cpx> = x.iter().copied().step_by(2).collect();
            let odd: Vec<Cpx> = x.iter().copied().skip(1).step_by(2).collect();
            let e = rec(even);
            let o = rec(odd);
            let mut out = vec![Cpx::default(); n];
            for k in 0..n / 2 {
                let t = Cpx::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64).mul(o[k]);
                out[k] = e[k].add(t);
                out[k + n / 2] = e[k].sub(t);
            }
            out
        }
        rec(x.to_vec())
    }

    fn signal(n: usize, seed: u64) -> Vec<Cpx> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Cpx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    #[test]
    fn oracle_is_bit_identical_to_the_recursive_reference() {
        for log_n in 0..=16 {
            let x = signal(1 << log_n, log_n as u64);
            let got = oracle_fft(&x);
            let want = oracle_fft_recursive(&x);
            assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                    "n = 2^{log_n}, bin {k}: {g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_one_bin_off_by_1e_3_relative() {
        let x = signal(4096, 9);
        let mut got = x.clone();
        fft_row(&mut got, -1.0);
        assert!(validate(&x, &got));
        for k in [0, 1, 2047, 4095] {
            let mut bad = got.clone();
            bad[k] = Cpx::new(bad[k].re * (1.0 + 1e-3), bad[k].im * (1.0 + 1e-3));
            assert!(!validate(&x, &bad), "bin {k} perturbed");
        }
    }

    #[test]
    #[ignore = "Native class: run in release with --ignored"]
    fn validates_at_native() {
        let cfg = FftConfig::class(InputClass::Native);
        for mode in SyncMode::ALL {
            let r = run(&cfg, &SyncEnv::new(mode, 2));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn oracle_matches_known_dft() {
        // FFT of a constant signal is an impulse at bin 0.
        let x = vec![Cpx::new(1.0, 0.0); 8];
        let y = oracle_fft(&x);
        assert!(close(y[0].re, 8.0, 1e-12));
        for (k, bin) in y.iter().enumerate().skip(1) {
            assert!(bin.abs() < 1e-9, "bin {k} should be ~0, got {bin:?}");
        }
    }

    #[test]
    fn fft_row_matches_oracle() {
        let x = signal(32, 7);
        let mut got = x.clone();
        fft_row(&mut got, -1.0);
        let want = oracle_fft(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!(g.sub(*w).abs() < 1e-9);
        }
    }

    #[test]
    fn six_step_validates_single_thread() {
        let cfg = FftConfig { m: 16, seed: 1 };
        for mode in SyncMode::ALL {
            let env = SyncEnv::new(mode, 1);
            let r = run(&cfg, &env);
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn six_step_validates_multithreaded() {
        let cfg = FftConfig { m: 32, seed: 2 };
        for mode in SyncMode::ALL {
            for t in [2, 3, 4] {
                let env = SyncEnv::new(mode, t);
                let r = run(&cfg, &env);
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn checksum_is_mode_and_thread_invariant() {
        let cfg = FftConfig::class(InputClass::Test);
        let base = run(&cfg, &SyncEnv::new(SyncMode::LockBased, 1));
        for mode in SyncMode::ALL {
            for t in [1, 2, 4] {
                let r = run(&cfg, &SyncEnv::new(mode, t));
                assert!(
                    close(r.checksum, base.checksum, 1e-9),
                    "checksum drift: {} vs {}",
                    r.checksum,
                    base.checksum
                );
            }
        }
    }

    #[test]
    fn barrier_count_matches_structure() {
        let cfg = FftConfig { m: 16, seed: 1 };
        let env = SyncEnv::new(SyncMode::LockFree, 3);
        let r = run(&cfg, &env);
        // 7 barrier episodes × 3 threads.
        assert_eq!(r.profile.barrier_waits, 21);
        assert_eq!(r.profile.lock_acquires, 0);
    }

    #[test]
    fn lock_based_run_takes_locks_for_reduction() {
        let cfg = FftConfig { m: 16, seed: 1 };
        let env = SyncEnv::new(SyncMode::LockBased, 2);
        let r = run(&cfg, &env);
        assert!(r.profile.lock_acquires >= 2, "one checksum add per thread");
        assert_eq!(r.profile.atomic_rmws, 0);
    }

    #[test]
    fn work_model_has_seven_phases() {
        let cfg = FftConfig { m: 16, seed: 1 };
        let r = run(&cfg, &SyncEnv::new(SyncMode::LockFree, 1));
        assert_eq!(r.work.phases.len(), 7);
        assert_eq!(r.work.total_barriers(), 7);
        assert!(r.work.total_cycles() > 0);
    }
}
