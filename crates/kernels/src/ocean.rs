//! `ocean` — red-black SOR relaxation of the stream-function system
//! (Splash-2 application).
//!
//! Both paper variants are provided: **contiguous partitions**
//! ([`OceanLayout::Contiguous`], one flat allocation — `ocean-cont`) and
//! **non-contiguous** ([`OceanLayout::RowArrays`], each grid row its own
//! allocation, as in the original's pointer-array layout — `ocean-noncont`).
//! The solver and synchronization code is shared; only storage differs.
//!
//! The full Splash ocean simulates eddy currents with a multigrid solver; the
//! per-sweep synchronization structure (red sweep, barrier, black sweep,
//! barrier, global error reduction, barrier, convergence broadcast) is
//! identical at every grid level, so this port collapses the hierarchy to the
//! finest level and runs the same red-black SOR iteration to convergence on a
//! Poisson problem with a known analytic solution.
//!
//! Synchronization profile: **barrier- and reduction-heavy** — four barrier
//! episodes and one max-reduction per iteration, hundreds of iterations. The
//! Splash-4 paper reports ocean among the kernels most sensitive to condvar
//! barrier cost.

use crate::common::{KernelResult, SharedSlice};
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::{PhaseSpec, SyncEnv, WorkModel};
use std::f64::consts::PI;

/// Grid storage layout (the suite's contiguous / non-contiguous pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OceanLayout {
    /// One flat `(n+2)²` allocation (`ocean-cont`).
    Contiguous,
    /// One allocation per row (`ocean-noncont`).
    RowArrays,
}

/// Ocean kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OceanConfig {
    /// Interior grid side (full grid is `(n+2)²` with boundary).
    pub n: usize,
    /// SOR over-relaxation factor.
    pub omega: f64,
    /// Convergence threshold on the max update magnitude.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Storage layout.
    pub layout: OceanLayout,
}

impl OceanConfig {
    /// Standard configuration for an input class (contiguous layout).
    pub fn class(class: InputClass) -> OceanConfig {
        let n = match class {
            InputClass::Check => 8,
            InputClass::Test => 64,
            InputClass::Small => 128,
            InputClass::Native => 512, // paper: 258–1026 grids
        };
        OceanConfig {
            n,
            omega: 1.7,
            tolerance: 1e-7,
            max_iters: 4000,
            layout: OceanLayout::Contiguous,
        }
    }

    /// Standard configuration, non-contiguous layout (`ocean-noncont`).
    pub fn class_noncont(class: InputClass) -> OceanConfig {
        OceanConfig {
            layout: OceanLayout::RowArrays,
            ..OceanConfig::class(class)
        }
    }
}

/// The analytic solution used to manufacture the right-hand side.
fn exact(x: f64, y: f64) -> f64 {
    (PI * x).sin() * (PI * y).sin()
}

/// Grid storage for either layout.
#[derive(Debug)]
enum GridStore {
    Flat(Vec<f64>),
    Rows(Vec<Vec<f64>>),
}

impl GridStore {
    fn new(layout: OceanLayout, stride: usize) -> GridStore {
        match layout {
            OceanLayout::Contiguous => GridStore::Flat(vec![0.0; stride * stride]),
            OceanLayout::RowArrays => {
                GridStore::Rows((0..stride).map(|_| vec![0.0; stride]).collect())
            }
        }
    }

    /// Per-row shared views (uniform access for both layouts).
    fn views(&mut self, stride: usize) -> Vec<SharedSlice<'_, f64>> {
        match self {
            GridStore::Flat(v) => v.chunks_mut(stride).map(SharedSlice::new).collect(),
            GridStore::Rows(rows) => rows.iter_mut().map(|r| SharedSlice::new(r)).collect(),
        }
    }

    /// Sequential read after the parallel region.
    fn at(&self, stride: usize, i: usize, j: usize) -> f64 {
        match self {
            GridStore::Flat(v) => v[i * stride + j],
            GridStore::Rows(rows) => rows[i][j],
        }
    }
}

/// Run red-black SOR under `env`; validates convergence and agreement with
/// the analytic solution to discretization accuracy.
pub fn run(cfg: &OceanConfig, env: &SyncEnv) -> KernelResult {
    let n = cfg.n;
    let stride = n + 2;
    let h = 1.0 / (n + 1) as f64;
    let nthreads = env.nthreads();

    // u initialized to zero (boundary stays zero); f = -∇²u* = 2π² u*.
    let mut store = GridStore::new(cfg.layout, stride);
    let grid = store.views(stride);
    let f: Vec<f64> = (0..stride * stride)
        .map(|idx| {
            let (i, j) = (idx / stride, idx % stride);
            2.0 * PI * PI * exact(i as f64 * h, j as f64 * h)
        })
        .collect();

    let barrier = env.barrier();
    let change = env.reducer_f64();
    let mut done_store = [0u32];
    let done = SharedSlice::new(&mut done_store);
    let mut iters_store = [0u64];
    let iters_out = SharedSlice::new(&mut iters_store);
    let checksum = env.reducer_f64();

    let elapsed = driver::roi(env, |ctx| {
        let rows = ctx.chunk(n); // interior rows tid owns
        let mut iter = 0usize;
        loop {
            let mut local_change = 0.0f64;
            // Red sweep ((i+j) even), then barrier, then black sweep.
            for color in 0..2 {
                for ri in rows.clone() {
                    let i = ri + 1;
                    let start_j = 1 + ((i + color) % 2);
                    let mut j = start_j;
                    while j <= n {
                        // SAFETY: same-color cells are never neighbors, and
                        // rows of the opposite color from other threads are
                        // only read; sweeps are barrier-separated.
                        let old = unsafe { grid[i].get(j) };
                        let nb = unsafe {
                            grid[i - 1].get(j)
                                + grid[i + 1].get(j)
                                + grid[i].get(j - 1)
                                + grid[i].get(j + 1)
                        };
                        let gs = 0.25 * (nb + h * h * f[i * stride + j]);
                        let new = old + cfg.omega * (gs - old);
                        unsafe { grid[i].set(j, new) };
                        local_change = local_change.max((new - old).abs());
                        j += 2;
                    }
                }
                barrier.wait(ctx.tid);
            }
            // Global max-change reduction.
            change.max(local_change);
            barrier.wait(ctx.tid);
            // Master decides and broadcasts.
            if ctx.is_master() {
                let c = change.load();
                let stop = c < cfg.tolerance || iter + 1 >= cfg.max_iters;
                // SAFETY: master-only write between barriers.
                unsafe { done.set(0, u32::from(stop)) };
                unsafe { iters_out.set(0, (iter + 1) as u64) };
                change.store(0.0);
            }
            barrier.wait(ctx.tid);
            iter += 1;
            // SAFETY: read-only after master's write (barrier-ordered).
            if unsafe { done.get(0) } == 1 {
                break;
            }
        }
        // Checksum: Σ u over owned rows.
        let mut local = 0.0;
        for ri in rows {
            let i = ri + 1;
            for j in 1..=n {
                // SAFETY: relaxation complete.
                local += unsafe { grid[i].get(j) };
            }
        }
        checksum.add(local);
        barrier.wait(ctx.tid);
    });

    let iters = iters_store[0];
    // Validation: converged and close to the analytic solution.
    let mut max_err = 0.0f64;
    for i in 1..=n {
        for j in 1..=n {
            let e = (store.at(stride, i, j) - exact(i as f64 * h, j as f64 * h)).abs();
            max_err = max_err.max(e);
        }
    }
    let discretization_bound = 2.0 * h * h + 1e-4;
    let validated = iters < cfg.max_iters as u64 && max_err < discretization_bound;

    let cells = (n * n) as u64 / 2;
    let work = WorkModel::new(match cfg.layout {
        OceanLayout::Contiguous => "ocean",
        OceanLayout::RowArrays => "ocean-noncont",
    })
    .phase(PhaseSpec::compute("red", cells.max(1), 12).repeats(iters))
    .phase(PhaseSpec::compute("black", cells.max(1), 12).repeats(iters))
    .phase(
        PhaseSpec::compute("reduce+check", nthreads as u64, 40)
            .repeats(iters)
            .reduces(1.0)
            .barriers(2),
    )
    .phase(
        PhaseSpec::compute("checksum", (n * n) as u64, 2).reduces(nthreads as f64 / (n * n) as f64),
    );

    driver::finish(env, elapsed, checksum.load(), validated, work)
}

/// Run the **multigrid extension**: a parallel two-grid V-cycle (pre-smooth,
/// residual, full-weighting restriction, coarse red-black relaxation,
/// bilinear prolongation + correction, post-smooth) solving the same Poisson
/// problem. This restores the original ocean's multigrid structure that the
/// flat-SOR port collapses (`DESIGN.md` §9); each cycle crosses ~50 barriers
/// (every smoothing sweep, transfer phase and the coarse-level sweeps are
/// barrier-separated), converging in tens of cycles instead of thousands of
/// single-level iterations.
///
/// Requires an even `cfg.n`. `cfg.max_iters` caps the number of V-cycles;
/// convergence is the residual max-norm falling below
/// `cfg.tolerance · ‖f‖∞`.
pub fn run_multigrid(cfg: &OceanConfig, env: &SyncEnv) -> KernelResult {
    assert!(cfg.n.is_multiple_of(2), "multigrid needs an even grid side");
    let n = cfg.n;
    let nc = n / 2;
    let stride = n + 2;
    let stride_c = nc + 2;
    let h = 1.0 / (n + 1) as f64;
    let hc = 2.0 * h;
    let nthreads = env.nthreads();
    const PRE_SWEEPS: usize = 2;
    const POST_SWEEPS: usize = 2;
    const COARSE_SWEEPS: usize = 20;

    let mut store = GridStore::new(cfg.layout, stride);
    let grid = store.views(stride);
    let mut r_store = vec![0.0f64; stride * stride];
    let r = SharedSlice::new(&mut r_store);
    let mut uc_store = vec![0.0f64; stride_c * stride_c];
    let uc = SharedSlice::new(&mut uc_store);
    let mut fc_store = vec![0.0f64; stride_c * stride_c];
    let fc = SharedSlice::new(&mut fc_store);
    let f: Vec<f64> = (0..stride * stride)
        .map(|idx| {
            let (i, j) = (idx / stride, idx % stride);
            2.0 * PI * PI * exact(i as f64 * h, j as f64 * h)
        })
        .collect();
    let f_norm = 2.0 * PI * PI;

    let barrier = env.barrier();
    let resid_norm = env.reducer_f64();
    let checksum = env.reducer_f64();
    let mut done_store = [0u32];
    let done = SharedSlice::new(&mut done_store);
    let mut cycles_store = [0u64];
    let cycles_out = SharedSlice::new(&mut cycles_store);

    // One red-black Gauss-Seidel sweep (both colors) on the fine grid for
    // this thread's rows, with a barrier after each color.
    let fine_sweep = |ctx: &splash4_parmacs::TeamCtx, rows: &std::ops::Range<usize>| {
        for color in 0..2 {
            for ri in rows.clone() {
                let i = ri + 1;
                let mut j = 1 + ((i + color) % 2);
                while j <= n {
                    // SAFETY: red-black discipline + barriers (see `run`).
                    let nb = unsafe {
                        grid[i - 1].get(j)
                            + grid[i + 1].get(j)
                            + grid[i].get(j - 1)
                            + grid[i].get(j + 1)
                    };
                    let gs = 0.25 * (nb + h * h * f[i * stride + j]);
                    let old = unsafe { grid[i].get(j) };
                    unsafe { grid[i].set(j, old + cfg.omega * (gs - old)) };
                    j += 2;
                }
            }
            barrier.wait(ctx.tid);
        }
    };

    let elapsed = driver::roi(env, |ctx| {
        let rows = ctx.chunk(n);
        let rows_c = ctx.chunk(nc);
        let mut cycle = 0usize;
        loop {
            // Pre-smoothing.
            for _ in 0..PRE_SWEEPS {
                fine_sweep(&ctx, &rows);
            }
            // Residual r = f − (4u − Σnbrs)/h² and its max-norm.
            let mut local_norm = 0.0f64;
            for ri in rows.clone() {
                let i = ri + 1;
                for j in 1..=n {
                    // SAFETY: u read-only this phase; r rows are disjoint.
                    let u4 = unsafe {
                        4.0 * grid[i].get(j)
                            - grid[i - 1].get(j)
                            - grid[i + 1].get(j)
                            - grid[i].get(j - 1)
                            - grid[i].get(j + 1)
                    };
                    let res = f[i * stride + j] - u4 / (h * h);
                    unsafe { r.set(i * stride + j, res) };
                    local_norm = local_norm.max(res.abs());
                }
            }
            resid_norm.max(local_norm);
            barrier.wait(ctx.tid);
            // Restriction (full weighting) and coarse reset.
            for rci in rows_c.clone() {
                let ci = rci + 1;
                let fi = 2 * ci;
                for cj in 1..=nc {
                    let fj = 2 * cj;
                    // SAFETY: r complete (barrier); coarse rows disjoint.
                    let at = |di: i64, dj: i64| unsafe {
                        r.get(((fi as i64 + di) as usize) * stride + (fj as i64 + dj) as usize)
                    };
                    let fw = (4.0 * at(0, 0)
                        + 2.0 * (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1))
                        + at(-1, -1)
                        + at(-1, 1)
                        + at(1, -1)
                        + at(1, 1))
                        / 16.0;
                    unsafe {
                        fc.set(ci * stride_c + cj, fw);
                        uc.set(ci * stride_c + cj, 0.0);
                    }
                }
            }
            barrier.wait(ctx.tid);
            // Coarse relaxation (plain Gauss-Seidel, ω = 1 for stability of
            // the error equation).
            for _ in 0..COARSE_SWEEPS {
                for color in 0..2 {
                    for rci in rows_c.clone() {
                        let ci = rci + 1;
                        let mut cj = 1 + ((ci + color) % 2);
                        while cj <= nc {
                            // SAFETY: red-black + barriers, as on the fine grid.
                            let nb = unsafe {
                                uc.get((ci - 1) * stride_c + cj)
                                    + uc.get((ci + 1) * stride_c + cj)
                                    + uc.get(ci * stride_c + cj - 1)
                                    + uc.get(ci * stride_c + cj + 1)
                            };
                            let gs = 0.25 * (nb + hc * hc * unsafe { fc.get(ci * stride_c + cj) });
                            unsafe { uc.set(ci * stride_c + cj, gs) };
                            cj += 2;
                        }
                    }
                    barrier.wait(ctx.tid);
                }
            }
            // Prolongation (bilinear) + correction.
            for ri in rows.clone() {
                let i = ri + 1;
                for j in 1..=n {
                    // SAFETY: uc complete (barrier); fine rows disjoint.
                    let cv = |ci: usize, cj: usize| unsafe { uc.get(ci * stride_c + cj) };
                    let e = match (i % 2 == 0, j % 2 == 0) {
                        (true, true) => cv(i / 2, j / 2),
                        (false, true) => 0.5 * (cv(i / 2, j / 2) + cv(i / 2 + 1, j / 2)),
                        (true, false) => 0.5 * (cv(i / 2, j / 2) + cv(i / 2, j / 2 + 1)),
                        (false, false) => {
                            0.25 * (cv(i / 2, j / 2)
                                + cv(i / 2 + 1, j / 2)
                                + cv(i / 2, j / 2 + 1)
                                + cv(i / 2 + 1, j / 2 + 1))
                        }
                    };
                    let old = unsafe { grid[i].get(j) };
                    unsafe { grid[i].set(j, old + e) };
                }
            }
            barrier.wait(ctx.tid);
            // Post-smoothing.
            for _ in 0..POST_SWEEPS {
                fine_sweep(&ctx, &rows);
            }
            // Convergence decision on the pre-cycle residual norm.
            if ctx.is_master() {
                let norm = resid_norm.load();
                let stop = norm < cfg.tolerance * f_norm || cycle + 1 >= cfg.max_iters;
                // SAFETY: master-only write between barriers.
                unsafe {
                    done.set(0, u32::from(stop));
                    cycles_out.set(0, (cycle + 1) as u64);
                }
                resid_norm.store(0.0);
            }
            barrier.wait(ctx.tid);
            cycle += 1;
            // SAFETY: barrier-ordered master write.
            if unsafe { done.get(0) } == 1 {
                break;
            }
        }
        let mut local = 0.0;
        for ri in rows {
            let i = ri + 1;
            for j in 1..=n {
                // SAFETY: solve complete.
                local += unsafe { grid[i].get(j) };
            }
        }
        checksum.add(local);
        barrier.wait(ctx.tid);
    });

    let cycles = cycles_store[0];
    let mut max_err = 0.0f64;
    for i in 1..=n {
        for j in 1..=n {
            let e = (store.at(stride, i, j) - exact(i as f64 * h, j as f64 * h)).abs();
            max_err = max_err.max(e);
        }
    }
    let validated = cycles < cfg.max_iters as u64 && max_err < 2.0 * h * h + 1e-4;

    let cells = (n * n) as u64;
    let cells_c = (nc * nc) as u64;
    let work = WorkModel::new("ocean-multigrid")
        .phase(
            PhaseSpec::compute("smooth", cells, 12)
                .repeats(cycles * (PRE_SWEEPS + POST_SWEEPS) as u64)
                .barriers(2),
        )
        .phase(
            PhaseSpec::compute("residual", cells, 14)
                .repeats(cycles)
                .reduces(nthreads as f64 / cells as f64),
        )
        .phase(
            PhaseSpec::compute("transfer", cells_c + cells, 8)
                .repeats(cycles)
                .barriers(2),
        )
        .phase(
            PhaseSpec::compute("coarse", cells_c, 12)
                .repeats(cycles * COARSE_SWEEPS as u64)
                .barriers(2),
        )
        .phase(
            PhaseSpec::compute("check", nthreads as u64, 30)
                .repeats(cycles)
                .barriers(1),
        );

    driver::finish(env, elapsed, checksum.load(), validated, work)
}

/// `ocean`'s suite registration (contiguous layout).
#[derive(Debug, Clone, Copy)]
pub struct Ocean;

impl Workload for Ocean {
    fn name(&self) -> &'static str {
        "ocean"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = OceanConfig::class(class);
        format!("{0}×{0} grid, tol {1:.0e}", c.n, c.tolerance)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&OceanConfig::class(class), env)
    }
}

/// `ocean-noncont`'s suite registration (row-array layout).
#[derive(Debug, Clone, Copy)]
pub struct OceanNoncont;

impl Workload for OceanNoncont {
    fn name(&self) -> &'static str {
        "ocean-noncont"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = OceanConfig::class_noncont(class);
        format!("{0}×{0} grid, tol {1:.0e}, row arrays", c.n, c.tolerance)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&OceanConfig::class_noncont(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;
    use splash4_parmacs::SyncMode;

    fn small(layout: OceanLayout) -> OceanConfig {
        OceanConfig {
            n: 32,
            omega: 1.7,
            tolerance: 1e-7,
            max_iters: 2000,
            layout,
        }
    }

    #[test]
    fn converges_to_analytic_solution_single_thread() {
        for layout in [OceanLayout::Contiguous, OceanLayout::RowArrays] {
            for mode in SyncMode::ALL {
                let r = run(&small(layout), &SyncEnv::new(mode, 1));
                assert!(r.validated, "mode {mode}, layout {layout:?}");
            }
        }
    }

    #[test]
    fn converges_multithreaded_both_layouts() {
        for layout in [OceanLayout::Contiguous, OceanLayout::RowArrays] {
            for mode in SyncMode::ALL {
                let r = run(&small(layout), &SyncEnv::new(mode, 3));
                assert!(r.validated, "mode {mode}, layout {layout:?}");
            }
        }
    }

    #[test]
    fn layouts_agree_numerically() {
        let c = run(
            &small(OceanLayout::Contiguous),
            &SyncEnv::new(SyncMode::LockFree, 2),
        );
        let r = run(
            &small(OceanLayout::RowArrays),
            &SyncEnv::new(SyncMode::LockFree, 2),
        );
        assert!(close(c.checksum, r.checksum, 1e-12));
    }

    #[test]
    fn checksum_thread_invariant() {
        let base = run(
            &small(OceanLayout::Contiguous),
            &SyncEnv::new(SyncMode::LockBased, 1),
        );
        for mode in SyncMode::ALL {
            for t in [1, 2, 4] {
                let r = run(&small(OceanLayout::Contiguous), &SyncEnv::new(mode, t));
                assert!(
                    close(r.checksum, base.checksum, 1e-6),
                    "mode {mode} t {t}: {} vs {}",
                    r.checksum,
                    base.checksum
                );
            }
        }
    }

    #[test]
    fn barrier_count_is_four_per_iteration() {
        let cfg = OceanConfig {
            n: 16,
            omega: 1.5,
            tolerance: 1e-6,
            max_iters: 500,
            layout: OceanLayout::Contiguous,
        };
        let env = SyncEnv::new(SyncMode::LockFree, 2);
        let r = run(&cfg, &env);
        // 4 barriers per iteration + 1 final, per thread.
        assert_eq!(r.profile.barrier_waits % 2, 0);
        let per_thread = r.profile.barrier_waits / 2;
        assert_eq!((per_thread - 1) % 4, 0);
        assert!(r.profile.reduce_ops > 0);
        assert_eq!(r.profile.lock_acquires, 0);
    }

    fn mg_cfg() -> OceanConfig {
        OceanConfig {
            n: 32,
            omega: 1.0, // SOR over-relaxation is a poor multigrid smoother
            tolerance: 1e-7,
            max_iters: 60,
            layout: OceanLayout::Contiguous,
        }
    }

    #[test]
    fn multigrid_converges_to_analytic_solution() {
        for mode in SyncMode::ALL {
            for t in [1, 3] {
                let r = run_multigrid(&mg_cfg(), &SyncEnv::new(mode, t));
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn multigrid_matches_single_level_answer() {
        let sor = run(
            &small(OceanLayout::Contiguous),
            &SyncEnv::new(SyncMode::LockFree, 2),
        );
        let mg = run_multigrid(&mg_cfg(), &SyncEnv::new(SyncMode::LockFree, 2));
        // Both solve the same discrete system to tight tolerances: checksums
        // (Σu over the grid) must agree closely.
        assert!(
            close(sor.checksum, mg.checksum, 1e-4),
            "SOR {} vs MG {}",
            sor.checksum,
            mg.checksum
        );
    }

    #[test]
    fn multigrid_needs_far_fewer_fine_sweeps_than_sor() {
        let mg = run_multigrid(&mg_cfg(), &SyncEnv::new(SyncMode::LockFree, 2));
        let sor = run(
            &small(OceanLayout::Contiguous),
            &SyncEnv::new(SyncMode::LockFree, 2),
        );
        assert!(mg.validated && sor.validated);
        // Work-model bookkeeping: SOR's "red" phase repeats = iterations;
        // multigrid's "smooth" phase repeats = cycles × (pre+post sweeps).
        let sor_iters = sor.work.phases[0].repeats;
        let mg_fine_sweeps = mg.work.phases[0].repeats;
        assert!(
            2 * mg_fine_sweeps < sor_iters,
            "multigrid should need far fewer fine sweeps: {mg_fine_sweeps} vs {sor_iters}"
        );
    }

    #[test]
    fn multigrid_checksum_mode_and_thread_invariant() {
        let base = run_multigrid(&mg_cfg(), &SyncEnv::new(SyncMode::LockBased, 1));
        for mode in SyncMode::ALL {
            for t in [1, 4] {
                let r = run_multigrid(&mg_cfg(), &SyncEnv::new(mode, t));
                assert!(close(r.checksum, base.checksum, 1e-9));
            }
        }
    }

    #[test]
    #[should_panic(expected = "even grid side")]
    fn multigrid_rejects_odd_grids() {
        let cfg = OceanConfig { n: 33, ..mg_cfg() };
        let _ = run_multigrid(&cfg, &SyncEnv::new(SyncMode::LockFree, 1));
    }

    #[test]
    fn iteration_cap_fails_validation() {
        let cfg = OceanConfig {
            n: 32,
            omega: 1.7,
            tolerance: 1e-12, // unreachable
            max_iters: 5,
            layout: OceanLayout::Contiguous,
        };
        let r = run(&cfg, &SyncEnv::new(SyncMode::LockFree, 2));
        assert!(!r.validated, "hitting the cap must not validate");
    }
}
