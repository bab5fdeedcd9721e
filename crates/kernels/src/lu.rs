//! `lu` — blocked dense LU factorization without pivoting (Splash-2 kernel).
//!
//! Both paper variants are provided: **contiguous blocks**
//! ([`LuLayout::Contiguous`], each B×B block stored contiguously — the
//! cache-friendly `lu-cont` code) and **non-contiguous**
//! ([`LuLayout::RowMajor`], the matrix stored as one row-major 2-D array —
//! `lu-noncont`). The layouts share every line of factorization and
//! synchronization code; only the index mapping differs, exactly as in the
//! original suite.
//!
//! The matrix is partitioned into B×B blocks owned by threads in a scatter
//! pattern. Step `k` factors the diagonal block, solves the perimeter row and
//! column against it, then updates the interior trailing submatrix.
//!
//! Synchronization profile: per-step **done flags** (the diagonal owner
//! signals the perimeter solvers) and **two barriers per step** — the
//! Splash-4 modernization turns the condvar flag/barriers into atomic ones.
//! No fine-grained data sharing: every block has one writer per phase.

use crate::common::{KernelResult, SharedSlice};
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::SmallRng;
use splash4_parmacs::{PhaseSpec, SyncEnv, Team, WorkModel};

/// Matrix storage layout (the suite's contiguous / non-contiguous pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuLayout {
    /// Each B×B block stored contiguously (`lu-cont`).
    Contiguous,
    /// Whole matrix stored row-major (`lu-noncont`).
    RowMajor,
}

/// LU kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LuConfig {
    /// Matrix side (must be a multiple of `block`).
    pub n: usize,
    /// Block side.
    pub block: usize,
    /// RNG seed for the input matrix.
    pub seed: u64,
    /// Storage layout.
    pub layout: LuLayout,
}

impl LuConfig {
    /// Standard configuration for an input class (contiguous layout).
    pub fn class(class: InputClass) -> LuConfig {
        let (n, block) = match class {
            InputClass::Check => (8, 4), // 2×2 blocks
            InputClass::Test => (64, 8),
            InputClass::Small => (256, 16),
            InputClass::Native => (1024, 16), // paper default: 512–2048, B=16
        };
        LuConfig {
            n,
            block,
            seed: 0x5eed_0042,
            layout: LuLayout::Contiguous,
        }
    }

    /// Standard configuration, non-contiguous layout (`lu-noncont`).
    pub fn class_noncont(class: InputClass) -> LuConfig {
        LuConfig {
            layout: LuLayout::RowMajor,
            ..LuConfig::class(class)
        }
    }

    /// Blocks per side.
    pub fn nblocks(&self) -> usize {
        self.n / self.block
    }

    /// Flat index of block element `(bi, bj, ii, jj)` under the layout.
    #[inline]
    pub fn index(&self, bi: usize, bj: usize, ii: usize, jj: usize) -> usize {
        match self.layout {
            LuLayout::Contiguous => {
                (bi * self.nblocks() + bj) * self.block * self.block + ii * self.block + jj
            }
            LuLayout::RowMajor => (bi * self.block + ii) * self.n + (bj * self.block + jj),
        }
    }
}

/// Generate a diagonally dominant matrix (stable without pivoting) in the
/// configured layout. Element values are layout-independent.
pub fn generate_matrix(cfg: &LuConfig) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = cfg.n;
    let b = cfg.block;
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            let v = rng.gen_range(-1.0..1.0);
            let v = if i == j { v + n as f64 } else { v };
            a[cfg.index(i / b, j / b, i % b, j % b)] = v;
        }
    }
    a
}

/// Read element (i, j) respecting the layout (test/validation helper).
pub fn at(cfg: &LuConfig, a: &[f64], i: usize, j: usize) -> f64 {
    let b = cfg.block;
    a[cfg.index(i / b, j / b, i % b, j % b)]
}

/// Factor the diagonal block in place (right-looking, no pivoting).
///
/// `ix(ii, jj)` maps in-block coordinates to flat indices.
///
/// # Safety
/// The caller must own the block exclusively for the duration of the call.
unsafe fn lu0(va: &SharedSlice<'_, f64>, ix: &impl Fn(usize, usize) -> usize, b: usize) {
    // SAFETY (all accesses): exclusive block ownership per caller contract.
    unsafe {
        for k in 0..b {
            let pivot = va.get(ix(k, k));
            for i in k + 1..b {
                let lik = va.get(ix(i, k)) / pivot;
                va.set(ix(i, k), lik);
                for j in k + 1..b {
                    va.set(ix(i, j), va.get(ix(i, j)) - lik * va.get(ix(k, j)));
                }
            }
        }
    }
}

/// Solve `L_kk · X = A_kj` in place (A_kj becomes U_kj). `diag` indexes the
/// factored diagonal block (unit lower triangle = L).
///
/// # Safety
/// Caller owns the target block exclusively; the diagonal block is read-only.
unsafe fn bmodd(
    va: &SharedSlice<'_, f64>,
    diag: &impl Fn(usize, usize) -> usize,
    blk: &impl Fn(usize, usize) -> usize,
    b: usize,
) {
    // SAFETY: per caller contract.
    unsafe {
        for i in 1..b {
            for t in 0..i {
                let lit = va.get(diag(i, t));
                for j in 0..b {
                    va.set(blk(i, j), va.get(blk(i, j)) - lit * va.get(blk(t, j)));
                }
            }
        }
    }
}

/// Solve `X · U_kk = A_ik` in place (A_ik becomes L_ik). `diag` indexes the
/// factored diagonal block (upper triangle = U).
///
/// # Safety
/// Caller owns the target block exclusively; the diagonal block is read-only.
unsafe fn bdiv(
    va: &SharedSlice<'_, f64>,
    diag: &impl Fn(usize, usize) -> usize,
    blk: &impl Fn(usize, usize) -> usize,
    b: usize,
) {
    // SAFETY: per caller contract.
    unsafe {
        for j in 0..b {
            for t in 0..j {
                let utj = va.get(diag(t, j));
                for i in 0..b {
                    va.set(blk(i, j), va.get(blk(i, j)) - va.get(blk(i, t)) * utj);
                }
            }
            let ujj = va.get(diag(j, j));
            for i in 0..b {
                va.set(blk(i, j), va.get(blk(i, j)) / ujj);
            }
        }
    }
}

/// Interior update `A_ij -= L_ik · U_kj`.
///
/// # Safety
/// Caller owns the target block exclusively; `l` and `u` blocks are read-only.
unsafe fn bmod(
    va: &SharedSlice<'_, f64>,
    l: &impl Fn(usize, usize) -> usize,
    u: &impl Fn(usize, usize) -> usize,
    blk: &impl Fn(usize, usize) -> usize,
    b: usize,
) {
    // SAFETY: per caller contract.
    unsafe {
        for i in 0..b {
            for t in 0..b {
                let lit = va.get(l(i, t));
                if lit != 0.0 {
                    for j in 0..b {
                        va.set(blk(i, j), va.get(blk(i, j)) - lit * va.get(u(t, j)));
                    }
                }
            }
        }
    }
}

/// Block owner in the scatter distribution.
fn owner(bi: usize, bj: usize, nb: usize, nthreads: usize) -> usize {
    (bi * nb + bj) % nthreads
}

/// Run blocked LU under `env`; validates `L·U ≈ A` for small inputs.
pub fn run(cfg: &LuConfig, env: &SyncEnv) -> KernelResult {
    assert!(
        cfg.n.is_multiple_of(cfg.block),
        "n must be a multiple of block"
    );
    let b = cfg.block;
    let nb = cfg.nblocks();
    let nthreads = env.nthreads();

    let original = generate_matrix(cfg);
    let mut a = original.clone();
    let va = SharedSlice::new(&mut a);
    let block_ix = |bi: usize, bj: usize| {
        let cfg = *cfg;
        move |ii: usize, jj: usize| cfg.index(bi, bj, ii, jj)
    };

    let barrier = env.barrier();
    let diag_done = env.flag_array(nb);
    let checksum = env.reducer_f64();

    let elapsed = driver::roi(env, |ctx| {
        #[allow(clippy::needless_range_loop)] // k is the elimination step index
        for k in 0..nb {
            // Diagonal factorization by its owner.
            if owner(k, k, nb, nthreads) == ctx.tid {
                // SAFETY: sole writer of block (k,k) this phase.
                unsafe { lu0(&va, &block_ix(k, k), b) };
                diag_done[k].set();
            }
            // Perimeter solves against the factored diagonal.
            let mut waited = false;
            for t in k + 1..nb {
                for (bi, bj) in [(k, t), (t, k)] {
                    if owner(bi, bj, nb, nthreads) == ctx.tid {
                        if !waited {
                            diag_done[k].wait();
                            waited = true;
                        }
                        // SAFETY: diag block is read-only after its flag is
                        // set; (bi,bj) has this thread as sole writer.
                        unsafe {
                            if bi == k {
                                bmodd(&va, &block_ix(k, k), &block_ix(bi, bj), b);
                            } else {
                                bdiv(&va, &block_ix(k, k), &block_ix(bi, bj), b);
                            }
                        }
                    }
                }
            }
            barrier.wait(ctx.tid);
            // Interior updates.
            for bi in k + 1..nb {
                for bj in k + 1..nb {
                    if owner(bi, bj, nb, nthreads) == ctx.tid {
                        // SAFETY: L_ik and U_kj finished last phase (barrier);
                        // (bi,bj) has this thread as sole writer.
                        unsafe {
                            bmod(
                                &va,
                                &block_ix(bi, k),
                                &block_ix(k, bj),
                                &block_ix(bi, bj),
                                b,
                            )
                        };
                    }
                }
            }
            barrier.wait(ctx.tid);
        }
        // Checksum over owned blocks.
        let mut local = 0.0;
        for blk_id in 0..nb * nb {
            if blk_id % nthreads == ctx.tid {
                let (bi, bj) = (blk_id / nb, blk_id % nb);
                for ii in 0..b {
                    for jj in 0..b {
                        // SAFETY: factorization complete (barriers passed).
                        local += unsafe { va.get(cfg.index(bi, bj, ii, jj)) }.abs();
                    }
                }
            }
        }
        checksum.add(local);
        barrier.wait(ctx.tid);
    });

    let validated = validate(cfg, &original, &a, nthreads);

    let nbu = nb as u64;
    let bb3 = (b as u64).pow(3);
    let work = WorkModel::new(match cfg.layout {
        LuLayout::Contiguous => "lu",
        LuLayout::RowMajor => "lu-noncont",
    })
    .phase(
        PhaseSpec::compute("diag", 1, bb3 / 3)
            .repeats(nbu)
            .flags(1.0)
            .barriers(0),
    )
    .phase(
        PhaseSpec::compute("perimeter", nbu.saturating_sub(1).max(1) / 2 + 1, bb3)
            .repeats(nbu)
            .flags(1.0)
            .barriers(1),
    )
    .phase(
        PhaseSpec::compute(
            "interior",
            ((nbu.saturating_sub(1)) * (2 * nbu.saturating_sub(1) + 1) / 6).max(1),
            2 * bb3,
        )
        .repeats(nbu)
        .barriers(1),
    )
    .phase(
        PhaseSpec::compute("checksum", nbu * nbu, (b * b) as u64 * 4)
            .reduces(nthreads as f64 / (nbu * nbu) as f64),
    );

    driver::finish(env, elapsed, checksum.load(), validated, work)
}

/// `lu`'s suite registration (contiguous-block layout).
#[derive(Debug, Clone, Copy)]
pub struct Lu;

impl Workload for Lu {
    fn name(&self) -> &'static str {
        "lu"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = LuConfig::class(class);
        format!("{0}×{0} matrix, {1}×{1} blocks", c.n, c.block)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&LuConfig::class(class), env)
    }
}

/// `lu-noncont`'s suite registration (row-major layout).
#[derive(Debug, Clone, Copy)]
pub struct LuNoncont;

impl Workload for LuNoncont {
    fn name(&self) -> &'static str {
        "lu-noncont"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = LuConfig::class_noncont(class);
        format!("{0}×{0} matrix, {1}×{1} blocks, row-major", c.n, c.block)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&LuConfig::class_noncont(class), env)
    }
}

/// Check `L·U ≈ A` element-wise.
fn validate(cfg: &LuConfig, original: &[f64], factored: &[f64], nthreads: usize) -> bool {
    max_err(cfg, original, factored, nthreads) < 1e-6 * cfg.n as f64
}

/// `max |L·U − A|`, each of `nthreads` threads building its rows `cyclic(n)`
/// from a dense row-major copy of `factored`: row i of L·U is `Σ_{t<i}
/// L[i][t]·U[t][t..]` plus `U[i][i..]` (L unit lower, U upper), summed in t order.
fn max_err(cfg: &LuConfig, original: &[f64], factored: &[f64], nthreads: usize) -> f64 {
    let n = cfg.n;
    let f: Vec<f64> = (0..n * n)
        .map(|e| at(cfg, factored, e / n, e % n))
        .collect();
    let parts = Team::new(nthreads).run_map(|ctx| {
        let mut row = vec![0.0f64; n];
        let mut max_err = 0.0f64;
        for i in ctx.cyclic(n) {
            row.fill(0.0);
            for t in 0..i {
                let l = f[i * n + t];
                for (r, u) in row[t..].iter_mut().zip(&f[t * n + t..(t + 1) * n]) {
                    *r += l * u;
                }
            }
            for (r, u) in row[i..].iter_mut().zip(&f[i * n + i..(i + 1) * n]) {
                *r += u;
            }
            for (j, r) in row.iter().enumerate() {
                max_err = max_err.max((r - at(cfg, original, i, j)).abs());
            }
        }
        max_err
    });
    parts.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;
    use splash4_parmacs::SyncMode;

    /// The previous oracle: every element read through `LuConfig::index`.
    fn validate_by_index(cfg: &LuConfig, original: &[f64], factored: &[f64]) -> f64 {
        let n = cfg.n;
        let mut max_err = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                // (L·U)[i][j] = Σ_t L[i][t]·U[t][j], L unit lower, U upper.
                let upper = i.min(j + 1); // t < i contributes L[i][t]; t == i has L=1
                let mut sum = 0.0;
                for t in 0..upper {
                    if t <= j {
                        sum += at(cfg, factored, i, t) * at(cfg, factored, t, j);
                    }
                }
                if i <= j {
                    sum += at(cfg, factored, i, j); // L[i][i] = 1 times U[i][j]
                }
                max_err = max_err.max((sum - at(cfg, original, i, j)).abs());
            }
        }
        max_err
    }

    /// Factor `cfg`'s matrix single-threaded; returns (original, factored).
    fn factor(cfg: &LuConfig) -> (Vec<f64>, Vec<f64>) {
        let original = generate_matrix(cfg);
        let mut a = original.clone();
        let nb = cfg.nblocks();
        let view = SharedSlice::new(&mut a);
        let ix = |bi: usize, bj: usize| move |ii: usize, jj: usize| cfg.index(bi, bj, ii, jj);
        // SAFETY: single-threaded test owns the whole matrix.
        unsafe {
            for k in 0..nb {
                lu0(&view, &ix(k, k), cfg.block);
                for t in k + 1..nb {
                    bmodd(&view, &ix(k, k), &ix(k, t), cfg.block);
                    bdiv(&view, &ix(k, k), &ix(t, k), cfg.block);
                }
                for bi in k + 1..nb {
                    for bj in k + 1..nb {
                        bmod(&view, &ix(bi, k), &ix(k, bj), &ix(bi, bj), cfg.block);
                    }
                }
            }
        }
        (original, a)
    }

    #[test]
    fn max_err_is_bit_identical_to_the_by_index_reference() {
        // n = 15 is split unevenly at 2 and 4 threads, 8 and 64 at 3.
        let odd = LuConfig {
            n: 15,
            block: 5,
            seed: 6,
            layout: LuLayout::Contiguous,
        };
        for layout in [LuLayout::Contiguous, LuLayout::RowMajor] {
            let sizes = [
                LuConfig::class(InputClass::Check),
                LuConfig::class(InputClass::Test),
                odd,
            ];
            for cfg in sizes.map(|c| LuConfig { layout, ..c }) {
                let (original, mut factored) = factor(&cfg);
                for _ in 0..2 {
                    let want = validate_by_index(&cfg, &original, &factored);
                    for t in [1, 2, 3, 4] {
                        let got = max_err(&cfg, &original, &factored, t);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{layout:?} n {} {t} threads",
                            cfg.n
                        );
                    }
                    // Then a perturbed factorization.
                    factored[cfg.index(0, 1, 1, 2)] += 0.25;
                }
            }
        }
    }

    #[test]
    fn validate_rejects_one_entry_off_by_1e_3_relative() {
        for layout in [LuLayout::Contiguous, LuLayout::RowMajor] {
            let cfg = LuConfig {
                layout,
                ..LuConfig::class(InputClass::Test)
            };
            let (original, factored) = factor(&cfg);
            let n = cfg.n;
            for t in [1, 2, 3] {
                assert!(
                    validate(&cfg, &original, &factored, t),
                    "{layout:?} {t} threads"
                );
                let b = cfg.block;
                for (i, j) in [(0, 0), (n / 2, n / 2), (n - 1, 0), (3, n - 1)] {
                    let mut bad = factored.clone();
                    bad[cfg.index(i / b, j / b, i % b, j % b)] *= 1.0 + 1e-3;
                    assert!(
                        !validate(&cfg, &original, &bad, t),
                        "{layout:?} {t} threads ({i}, {j})"
                    );
                }
                // A factor entry shows in every row that reads it, an input
                // entry only in its own: the split must cover rows 0 and n − 1.
                for i in [0, n - 1] {
                    let mut bad = original.clone();
                    bad[cfg.index(i / b, i / b, i % b, i % b)] *= 1.0 + 1e-3;
                    assert!(
                        !validate(&cfg, &bad, &factored, t),
                        "{layout:?} {t} threads, input ({i}, {i})"
                    );
                }
            }
        }
    }

    #[test]
    #[ignore = "Native class: run in release with --ignored"]
    fn validates_at_native() {
        for cfg in [
            LuConfig::class(InputClass::Native),
            LuConfig::class_noncont(InputClass::Native),
        ] {
            for mode in SyncMode::ALL {
                // 3 threads split the oracle's rows unevenly.
                for t in [2, 3] {
                    let r = run(&cfg, &SyncEnv::new(mode, t));
                    assert!(r.validated, "mode {mode}, {t} threads, {:?}", cfg.layout);
                }
            }
        }
    }

    fn cfg32(layout: LuLayout) -> LuConfig {
        LuConfig {
            n: 32,
            block: 8,
            seed: 3,
            layout,
        }
    }

    #[test]
    fn lu0_factors_small_block() {
        // A = [[4,3],[6,3]] → L = [[1,0],[1.5,1]], U = [[4,3],[0,-1.5]]
        let mut blk = vec![4.0, 3.0, 6.0, 3.0];
        let view = SharedSlice::new(&mut blk);
        // SAFETY: single-threaded test owns the block.
        unsafe { lu0(&view, &|i, j| i * 2 + j, 2) };
        assert_eq!(blk, vec![4.0, 3.0, 1.5, -1.5]);
    }

    #[test]
    fn single_thread_validates_both_layouts() {
        for layout in [LuLayout::Contiguous, LuLayout::RowMajor] {
            for mode in SyncMode::ALL {
                let r = run(&cfg32(layout), &SyncEnv::new(mode, 1));
                assert!(r.validated, "mode {mode}, layout {layout:?}");
            }
        }
    }

    #[test]
    fn multithreaded_validates_both_layouts() {
        for layout in [LuLayout::Contiguous, LuLayout::RowMajor] {
            let cfg = LuConfig {
                n: 64,
                block: 8,
                seed: 4,
                layout,
            };
            for mode in SyncMode::ALL {
                for t in [2, 5] {
                    let r = run(&cfg, &SyncEnv::new(mode, t));
                    assert!(r.validated, "mode {mode}, {t} threads, {layout:?}");
                }
            }
        }
    }

    #[test]
    fn layouts_agree_numerically() {
        // Same matrix values, different storage: identical factorization.
        let c = run(
            &cfg32(LuLayout::Contiguous),
            &SyncEnv::new(SyncMode::LockFree, 2),
        );
        let r = run(
            &cfg32(LuLayout::RowMajor),
            &SyncEnv::new(SyncMode::LockFree, 2),
        );
        assert!(close(c.checksum, r.checksum, 1e-12));
    }

    #[test]
    fn checksum_is_mode_and_thread_invariant() {
        let cfg = LuConfig::class(InputClass::Test);
        let base = run(&cfg, &SyncEnv::new(SyncMode::LockBased, 1));
        for mode in SyncMode::ALL {
            for t in [1, 4] {
                let r = run(&cfg, &SyncEnv::new(mode, t));
                assert!(close(r.checksum, base.checksum, 1e-9));
            }
        }
    }

    #[test]
    fn barrier_structure_matches() {
        let cfg = cfg32(LuLayout::Contiguous);
        let env = SyncEnv::new(SyncMode::LockFree, 2);
        let r = run(&cfg, &env);
        let nb = cfg.nblocks() as u64;
        // 2 barriers per step + 1 final, × threads.
        assert_eq!(r.profile.barrier_waits, (2 * nb + 1) * 2);
        assert_eq!(r.profile.lock_acquires, 0);
    }

    #[test]
    fn owner_scatter_covers_all_threads() {
        let nb = 8;
        let nthreads = 5;
        let mut hit = vec![false; nthreads];
        for i in 0..nb {
            for j in 0..nb {
                hit[owner(i, j, nb, nthreads)] = true;
            }
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn flags_wait_only_when_needed() {
        // Single thread: owner factors before anyone waits → no flag waits.
        let env = SyncEnv::new(SyncMode::LockFree, 1);
        let r = run(&cfg32(LuLayout::Contiguous), &env);
        assert_eq!(r.profile.flag_waits, 0);
    }

    #[test]
    fn index_layouts_are_bijective() {
        for layout in [LuLayout::Contiguous, LuLayout::RowMajor] {
            let cfg = LuConfig {
                n: 16,
                block: 4,
                seed: 0,
                layout,
            };
            let mut seen = vec![false; 256];
            for bi in 0..4 {
                for bj in 0..4 {
                    for ii in 0..4 {
                        for jj in 0..4 {
                            let idx = cfg.index(bi, bj, ii, jj);
                            assert!(!seen[idx], "collision at {idx} in {layout:?}");
                            seen[idx] = true;
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }
}
