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
//! The relaxation factor is not a setting: [`run`] derives Young's optimum
//! for the 5-point operator, `ω = 2 / (1 + sin(π/(n+1)))`, from the grid
//! side. At that factor red-black SOR converges in O(n) sweeps; a fixed ω
//! needs O(n²), which at `Native` exceeds `max_iters`. Sweeps to
//! `tolerance`: 28 at `Check` (n = 8), 173 at `Test` (64), 327 at `Small`
//! (128) and 1 175 at `Native` (512), the same for every thread count and
//! sync mode (red-black updates and a max-reduction do not depend on the
//! order threads run in).
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
    // Young's optimal factor for the 5-point operator (module doc).
    let omega = 2.0 / (1.0 + (PI * h).sin());

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
                        let new = old + omega * (gs - old);
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

    #[test]
    fn sweeps_grow_linearly_with_the_grid() {
        for n in [16, 32, 64, 128] {
            let cfg = OceanConfig {
                n,
                ..OceanConfig::class(InputClass::Test)
            };
            let sweeps = [1, 3].map(|t| {
                let r = run(&cfg, &SyncEnv::new(SyncMode::LockFree, t));
                assert!(r.validated, "n {n}, {t} threads");
                r.work.phases[0].repeats
            });
            assert_eq!(sweeps[0], sweeps[1], "n {n}: 1 vs 3 threads");
            assert!(sweeps[0] <= 4 * n as u64, "n {n}: {} sweeps", sweeps[0]);
        }
    }

    #[test]
    #[ignore = "Native class: run in release with --ignored"]
    fn validates_at_native() {
        for cfg in [
            OceanConfig::class(InputClass::Native),
            OceanConfig::class_noncont(InputClass::Native),
        ] {
            for mode in SyncMode::ALL {
                let r = run(&cfg, &SyncEnv::new(mode, 2));
                assert!(r.validated, "mode {mode}, {:?}", cfg.layout);
            }
        }
    }

    #[test]
    fn iteration_cap_fails_validation() {
        let cfg = OceanConfig {
            n: 32,
            tolerance: 1e-12, // unreachable
            max_iters: 5,
            layout: OceanLayout::Contiguous,
        };
        let r = run(&cfg, &SyncEnv::new(SyncMode::LockFree, 2));
        assert!(!r.validated, "hitting the cap must not validate");
    }
}
