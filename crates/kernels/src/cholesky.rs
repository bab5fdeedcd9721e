//! `cholesky` — blocked Cholesky factorization driven by a dynamic task pool
//! (Splash-2 kernel).
//!
//! The original factors sparse matrices from a task queue whose entries become
//! ready as column supernodes complete. This port keeps that execution model
//! on a blocked dense SPD matrix: a dependence-counted task graph
//! (`POTRF`/`TRSM`/`GEMM` block tasks) feeds a shared MPMC pool; finishing a
//! task decrements its successors' ready counters and pushes newly-ready
//! tasks.
//!
//! Synchronization profile: **task-queue and counter dominated, no
//! barriers** — Splash-3 uses a mutex-guarded queue and lock-protected ready
//! counts; Splash-4 uses a lock-free stack and `fetch_sub`. Termination is a
//! shared completed-task counter.

use crate::common::{KernelResult, SharedCounters, SharedSlice};
use crate::dynpool::dynamic_task_queue;
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::SmallRng;
use splash4_parmacs::{Dispatch, PhaseSpec, SyncEnv, WorkModel};
use splash4_reclaim::{PoolShape, ReclaimKind};
use std::collections::HashMap;

/// Cholesky kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CholeskyConfig {
    /// Matrix side (multiple of `block`).
    pub n: usize,
    /// Block side.
    pub block: usize,
    /// RNG seed.
    pub seed: u64,
}

impl CholeskyConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> CholeskyConfig {
        let (n, block) = match class {
            InputClass::Check => (8, 4), // 2×2 blocks → 6-task graph
            InputClass::Test => (64, 8),
            InputClass::Small => (192, 16),
            InputClass::Native => (512, 32), // paper: tk15/tk29 sparse inputs
        };
        CholeskyConfig {
            n,
            block,
            seed: 0x5eed_c401,
        }
    }

    /// Blocks per side.
    pub fn nblocks(&self) -> usize {
        self.n / self.block
    }
}

/// Block task kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TaskKind {
    /// Factor diagonal block `k`.
    Potrf,
    /// Triangular solve of block `(i, k)` against diagonal `k`.
    Trsm,
    /// Trailing update `A[i][j] -= L[i][k]·L[j][k]ᵀ` (`i ≥ j > k`).
    Gemm,
}

/// A block task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Task {
    kind: TaskKind,
    i: usize,
    j: usize,
    k: usize,
}

/// Build the full task list and the id lookup.
fn build_tasks(nb: usize) -> (Vec<Task>, HashMap<Task, usize>) {
    let mut tasks = Vec::new();
    for k in 0..nb {
        tasks.push(Task {
            kind: TaskKind::Potrf,
            i: k,
            j: k,
            k,
        });
        for i in k + 1..nb {
            tasks.push(Task {
                kind: TaskKind::Trsm,
                i,
                j: k,
                k,
            });
        }
        for j in k + 1..nb {
            for i in j..nb {
                tasks.push(Task {
                    kind: TaskKind::Gemm,
                    i,
                    j,
                    k,
                });
            }
        }
    }
    let index = tasks.iter().enumerate().map(|(n, &t)| (t, n)).collect();
    (tasks, index)
}

/// Predecessor count of a task (must equal its in-degree under
/// [`successors`]). Updates to a block are chained — `GEMM(i,j,k)` feeds
/// `GEMM(i,j,k+1)` — so each task waits only for its *direct* feeders:
///
/// * `POTRF(k)`: the last chained update `GEMM(k,k,k-1)` (none for `k = 0`);
/// * `TRSM(i,k)`: `POTRF(k)` plus the last chained update `GEMM(i,k,k-1)`;
/// * `GEMM(i,j,k)`: `TRSM(i,k)` (+`TRSM(j,k)` when `i ≠ j`) plus the chained
///   `GEMM(i,j,k-1)` when `k ≥ 1`.
fn pred_count(t: &Task) -> u64 {
    let chain = u64::from(t.k >= 1);
    match t.kind {
        TaskKind::Potrf => chain,
        TaskKind::Trsm => 1 + chain,
        TaskKind::Gemm => (if t.i == t.j { 1 } else { 2 }) + chain,
    }
}

/// Successor tasks of `t`.
fn successors(t: &Task, nb: usize) -> Vec<Task> {
    let mut out = Vec::new();
    match t.kind {
        TaskKind::Potrf => {
            for i in t.k + 1..nb {
                out.push(Task {
                    kind: TaskKind::Trsm,
                    i,
                    j: t.k,
                    k: t.k,
                });
            }
        }
        TaskKind::Trsm => {
            // TRSM(i,k) feeds every GEMM at stage k touching row/col i.
            let (i, k) = (t.i, t.k);
            for j in k + 1..=i {
                out.push(Task {
                    kind: TaskKind::Gemm,
                    i,
                    j,
                    k,
                });
            }
            for a in i + 1..nb {
                out.push(Task {
                    kind: TaskKind::Gemm,
                    i: a,
                    j: i,
                    k,
                });
            }
        }
        TaskKind::Gemm => {
            // The next consumer of block (i,j).
            let (i, j, k) = (t.i, t.j, t.k);
            if k + 1 < j {
                out.push(Task {
                    kind: TaskKind::Gemm,
                    i,
                    j,
                    k: k + 1,
                });
            } else if i == j {
                out.push(Task {
                    kind: TaskKind::Potrf,
                    i: j,
                    j,
                    k: j,
                });
            } else {
                out.push(Task {
                    kind: TaskKind::Trsm,
                    i,
                    j,
                    k: j,
                });
            }
        }
    }
    out
}

/// Generate the SPD input matrix in contiguous-block layout (lower triangle
/// significant).
pub fn generate_matrix(cfg: &CholeskyConfig) -> Vec<f64> {
    let n = cfg.n;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // A = G·Gᵀ + n·I with G random in [-1, 1).
    let g: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ix = block_index(cfg);
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        let gi = &g[i * n..(i + 1) * n];
        for j0 in (0..=i).step_by(4) {
            // Four entries (i, j0..j0+4) at once, each its own sequential sum
            // in t order; past the diagonal the last row is repeated unused.
            let w = (i + 1 - j0).min(4);
            let gj: [&[f64]; 4] = std::array::from_fn(|k| {
                let j = j0 + k.min(w - 1);
                &g[j * n..(j + 1) * n]
            });
            let mut s = [0.0f64; 4];
            for t in 0..n {
                for k in 0..4 {
                    s[k] += gi[t] * gj[k][t];
                }
            }
            for (k, &s) in s.iter().enumerate().take(w) {
                let j = j0 + k;
                let s = if i == j { s + n as f64 } else { s };
                a[ix(i, j)] = s;
                a[ix(j, i)] = s; // Mirror for validation convenience.
            }
        }
    }
    a
}

/// Flat index of element (i, j) in contiguous-block layout.
fn block_index(cfg: &CholeskyConfig) -> impl Fn(usize, usize) -> usize {
    let (b, nb) = (cfg.block, cfg.nblocks());
    move |i, j| (i / b * nb + j / b) * b * b + i % b * b + j % b
}

/// In-place lower Cholesky of a B×B block.
fn potrf(blk: &mut [f64], b: usize) {
    for c in 0..b {
        let mut d = blk[c * b + c];
        for t in 0..c {
            d -= blk[c * b + t] * blk[c * b + t];
        }
        assert!(d > 0.0, "matrix not positive definite");
        let d = d.sqrt();
        blk[c * b + c] = d;
        for r in c + 1..b {
            let mut s = blk[r * b + c];
            for t in 0..c {
                s -= blk[r * b + t] * blk[c * b + t];
            }
            blk[r * b + c] = s / d;
        }
        for t in c + 1..b {
            blk[c * b + t] = 0.0; // zero the strict upper triangle
        }
    }
}

/// Solve X·Lᵀ = A in place (A becomes L_ik). `l` is the factored diagonal.
fn trsm(l: &[f64], blk: &mut [f64], b: usize) {
    for c in 0..b {
        let d = l[c * b + c];
        for r in 0..b {
            let mut s = blk[r * b + c];
            for t in 0..c {
                s -= blk[r * b + t] * l[c * b + t];
            }
            blk[r * b + c] = s / d;
        }
    }
}

/// Trailing update `blk -= x·yᵀ`.
fn gemm_nt(x: &[f64], y: &[f64], blk: &mut [f64], b: usize) {
    for r in 0..b {
        for c in 0..b {
            let mut s = 0.0;
            for t in 0..b {
                s += x[r * b + t] * y[c * b + t];
            }
            blk[r * b + c] -= s;
        }
    }
}

/// Run task-pool Cholesky under `env`; validates `L·Lᵀ ≈ A`.
pub fn run(cfg: &CholeskyConfig, env: &SyncEnv) -> KernelResult {
    assert!(
        cfg.n.is_multiple_of(cfg.block),
        "n must be a multiple of block"
    );
    let b = cfg.block;
    let nb = cfg.nblocks();
    let bb = b * b;
    let nthreads = env.nthreads();

    let original = generate_matrix(cfg);
    let mut a = original.clone();
    let va = SharedSlice::new(&mut a);

    let (tasks, index) = build_tasks(nb);
    let total = tasks.len();
    let ready = SharedCounters::new(env, total, 8);
    for (id, t) in tasks.iter().enumerate() {
        ready.store(id, pred_count(t));
    }
    // Dynamic pool: the elimination stack keeps the retire-list stack's
    // LIFO order, but nodes are allocated per push and reclaimed through
    // epochs, so the ready set is no longer capacity-bound.
    let queue = dynamic_task_queue::<usize>(env, PoolShape::Lifo, ReclaimKind::Epoch);
    let done = SharedCounters::new(env, 1, 1);
    let checksum = env.reducer_f64();
    let barrier = env.barrier();
    queue.push(
        index[&Task {
            kind: TaskKind::Potrf,
            i: 0,
            j: 0,
            k: 0,
        }],
    );

    let elapsed = driver::roi(env, |ctx| {
        loop {
            let Some(id) = queue.pop() else {
                if done.load(0) as usize >= total {
                    break;
                }
                std::thread::yield_now();
                continue;
            };
            let t = tasks[id];
            // SAFETY (all block accesses): the task graph orders conflicting
            // block accesses — a task runs only after every predecessor
            // completed (ready-counter protocol), and no two concurrently
            // ready tasks write the same block.
            match t.kind {
                TaskKind::Potrf => {
                    let blk =
                        unsafe { std::slice::from_raw_parts_mut(va.at((t.k * nb + t.k) * bb), bb) };
                    potrf(blk, b);
                }
                TaskKind::Trsm => {
                    let l = unsafe { std::slice::from_raw_parts(va.at((t.k * nb + t.k) * bb), bb) };
                    let blk =
                        unsafe { std::slice::from_raw_parts_mut(va.at((t.i * nb + t.k) * bb), bb) };
                    trsm(l, blk, b);
                }
                TaskKind::Gemm => {
                    let x = unsafe { std::slice::from_raw_parts(va.at((t.i * nb + t.k) * bb), bb) };
                    let y = unsafe { std::slice::from_raw_parts(va.at((t.j * nb + t.k) * bb), bb) };
                    let blk =
                        unsafe { std::slice::from_raw_parts_mut(va.at((t.i * nb + t.j) * bb), bb) };
                    gemm_nt(x, y, blk, b);
                }
            }
            // Ready-count successors; push the ones that became ready.
            for s in successors(&t, nb) {
                let sid = index[&s];
                let prev = ready.claim(sid, u64::MAX); // wrapping -1
                if prev == 1 {
                    queue.push(sid);
                }
            }
            done.claim(0, 1);
        }
        barrier.wait(ctx.tid);
        // Checksum over the lower triangle.
        let mut local = 0.0;
        for (bid, _) in (0..nb * nb)
            .enumerate()
            .filter(|&(i, _)| i % nthreads == ctx.tid)
        {
            let (bi, bj) = (bid / nb, bid % nb);
            if bj <= bi {
                for e in 0..bb {
                    // SAFETY: factorization complete.
                    local += unsafe { va.get(bid * bb + e) }.abs();
                }
            }
        }
        checksum.add(local);
        barrier.wait(ctx.tid);
    });

    let validated = validate(cfg, &original, &a);

    let bb3 = (b as u64).pow(3);
    let n_potrf = nb as u64;
    let n_trsm = (nb * (nb - 1) / 2) as u64;
    let n_gemm = (total as u64).saturating_sub(n_potrf + n_trsm);
    let work = WorkModel::new("cholesky")
        .phase(
            PhaseSpec::compute("tasks", n_potrf + n_trsm + n_gemm, {
                // Weighted mean cost per task.
                let total_cycles = n_potrf * bb3 / 3 + n_trsm * bb3 + n_gemm * 2 * bb3;
                total_cycles / (n_potrf + n_trsm + n_gemm).max(1)
            })
            .dispatch(Dispatch::Pool)
            .data_touches(2.2) // successor decrements per task (average)
            .pushes(1.0)
            .barriers(1),
        )
        .phase(
            PhaseSpec::compute("checksum", (nb * nb) as u64 / 2, bb as u64 * 4)
                .reduces(2.0 * nthreads as f64 / (nb * nb) as f64),
        );

    driver::finish(env, elapsed, checksum.load(), validated, work)
}

/// `cholesky`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct Cholesky;

impl Workload for Cholesky {
    fn name(&self) -> &'static str {
        "cholesky"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = CholeskyConfig::class(class);
        format!("{0}×{0} SPD matrix, {1}×{1} blocks", c.n, c.block)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&CholeskyConfig::class(class), env)
    }
}

/// Check `L·Lᵀ ≈ A` on the lower triangle.
fn validate(cfg: &CholeskyConfig, original: &[f64], factored: &[f64]) -> bool {
    max_err(cfg, original, factored) < 1e-6 * cfg.n as f64
}

/// `max |L·Lᵀ − A|` over the lower triangle, from a dense row-major copy of
/// L: entry (i, j) is the dot product of rows i and j over `t ≤ j`.
fn max_err(cfg: &CholeskyConfig, original: &[f64], factored: &[f64]) -> f64 {
    let n = cfg.n;
    let ix = block_index(cfg);
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            l[i * n + j] = factored[ix(i, j)];
        }
    }
    let mut max_err = 0.0f64;
    for i in 0..n {
        for j in 0..=i {
            let s = l[i * n..=i * n + j]
                .iter()
                .zip(&l[j * n..=j * n + j])
                .fold(0.0, |s, (x, y)| s + x * y);
            max_err = max_err.max((s - original[ix(i, j)]).abs());
        }
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;
    use splash4_parmacs::SyncMode;

    /// The previous input builder: one dot product per entry.
    fn generate_matrix_by_dot(cfg: &CholeskyConfig) -> Vec<f64> {
        let n = cfg.n;
        let b = cfg.block;
        let nb = cfg.nblocks();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let g: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for t in 0..n {
                    s += g[i * n + t] * g[j * n + t];
                }
                if i == j {
                    s += n as f64;
                }
                let (bi, ii) = (i / b, i % b);
                let (bj, jj) = (j / b, j % b);
                a[(bi * nb + bj) * b * b + ii * b + jj] = s;
                let (bi, ii) = (j / b, j % b);
                let (bj, jj) = (i / b, i % b);
                a[(bi * nb + bj) * b * b + ii * b + jj] = s;
            }
        }
        a
    }

    /// The previous oracle: every element read through `lu::at`.
    fn validate_by_index(cfg: &CholeskyConfig, original: &[f64], factored: &[f64]) -> f64 {
        let n = cfg.n;
        let at = |m: &[f64], i: usize, j: usize| {
            crate::lu::at(
                &crate::lu::LuConfig {
                    n: cfg.n,
                    block: cfg.block,
                    seed: 0,
                    layout: crate::lu::LuLayout::Contiguous,
                },
                m,
                i,
                j,
            )
        };
        let mut max_err = 0.0f64;
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for t in 0..=j {
                    s += at(factored, i, t) * at(factored, j, t);
                }
                max_err = max_err.max((s - at(original, i, j)).abs());
            }
        }
        max_err
    }

    /// Factor `cfg`'s matrix by running the task list in order; returns
    /// (original, factored).
    fn factor(cfg: &CholeskyConfig) -> (Vec<f64>, Vec<f64>) {
        let original = generate_matrix(cfg);
        let mut a = original.clone();
        let (nb, bb) = (cfg.nblocks(), cfg.block * cfg.block);
        let blk = |a: &[f64], i: usize, j: usize| a[(i * nb + j) * bb..][..bb].to_vec();
        for t in build_tasks(nb).0 {
            let mut out = blk(&a, t.i, t.j);
            match t.kind {
                TaskKind::Potrf => potrf(&mut out, cfg.block),
                TaskKind::Trsm => trsm(&blk(&a, t.k, t.k), &mut out, cfg.block),
                TaskKind::Gemm => {
                    gemm_nt(&blk(&a, t.i, t.k), &blk(&a, t.j, t.k), &mut out, cfg.block)
                }
            }
            a[(t.i * nb + t.j) * bb..][..bb].copy_from_slice(&out);
        }
        (original, a)
    }

    #[test]
    fn generate_matrix_is_bit_identical_to_the_by_dot_reference() {
        for class in [InputClass::Check].into_iter().chain(InputClass::ALL) {
            let cfg = CholeskyConfig::class(class);
            let got = generate_matrix(&cfg);
            let want = generate_matrix_by_dot(&cfg);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                "{class:?}"
            );
        }
    }

    #[test]
    fn max_err_is_bit_identical_to_the_by_index_reference() {
        for class in [InputClass::Check, InputClass::Test] {
            let cfg = CholeskyConfig::class(class);
            let (original, mut factored) = factor(&cfg);
            for _ in 0..2 {
                let got = max_err(&cfg, &original, &factored);
                let want = validate_by_index(&cfg, &original, &factored);
                assert_eq!(got.to_bits(), want.to_bits(), "{class:?}");
                // Then a perturbed factorization.
                factored[block_index(&cfg)(cfg.n - 1, 1)] += 0.25;
            }
        }
    }

    #[test]
    fn validate_rejects_one_entry_off_by_1e_3_relative() {
        let cfg = CholeskyConfig::class(InputClass::Test);
        let (original, factored) = factor(&cfg);
        assert!(validate(&cfg, &original, &factored));
        let n = cfg.n;
        for (i, j) in [(0, 0), (n / 2, n / 2), (n - 1, 0), (n - 1, n - 2)] {
            let mut bad = factored.clone();
            bad[block_index(&cfg)(i, j)] *= 1.0 + 1e-3;
            assert!(!validate(&cfg, &original, &bad), "({i}, {j})");
        }
    }

    #[test]
    #[ignore = "Native class: run in release with --ignored"]
    fn validates_at_native() {
        let cfg = CholeskyConfig::class(InputClass::Native);
        for mode in SyncMode::ALL {
            let r = run(&cfg, &SyncEnv::new(mode, 2));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn potrf_factors_identity_scaled() {
        let mut blk = vec![4.0, 0.0, 0.0, 9.0];
        potrf(&mut blk, 2);
        assert_eq!(blk, vec![2.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn task_graph_counts_are_consistent() {
        for nb in [1, 2, 3, 5] {
            let (tasks, index) = build_tasks(nb);
            assert_eq!(tasks.len(), index.len(), "no duplicate tasks");
            // Sum of successor in-edges must equal sum of predecessor counts.
            let mut in_edges = vec![0u64; tasks.len()];
            for t in &tasks {
                for s in successors(t, nb) {
                    in_edges[index[&s]] += 1;
                }
            }
            for (id, t) in tasks.iter().enumerate() {
                assert_eq!(
                    in_edges[id],
                    pred_count(t),
                    "task {t:?} in-degree mismatch (nb={nb})"
                );
            }
        }
    }

    #[test]
    fn factors_single_thread() {
        let cfg = CholeskyConfig {
            n: 32,
            block: 8,
            seed: 5,
        };
        for mode in SyncMode::ALL {
            let r = run(&cfg, &SyncEnv::new(mode, 1));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn factors_multithreaded() {
        let cfg = CholeskyConfig {
            n: 64,
            block: 8,
            seed: 6,
        };
        for mode in SyncMode::ALL {
            for t in [2, 4] {
                let r = run(&cfg, &SyncEnv::new(mode, t));
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn checksum_stable_across_modes() {
        let cfg = CholeskyConfig {
            n: 64,
            block: 8,
            seed: 7,
        };
        let base = run(&cfg, &SyncEnv::new(SyncMode::LockBased, 1));
        for mode in SyncMode::ALL {
            for t in [1, 3] {
                let r = run(&cfg, &SyncEnv::new(mode, t));
                assert!(close(r.checksum, base.checksum, 1e-9));
            }
        }
    }

    #[test]
    fn queue_backend_matches_mode() {
        let cfg = CholeskyConfig {
            n: 32,
            block: 8,
            seed: 5,
        };
        let lf = run(&cfg, &SyncEnv::new(SyncMode::LockFree, 2));
        assert_eq!(lf.profile.lock_acquires, 0);
        assert!(lf.profile.queue_ops > 0);
        let lb = run(&cfg, &SyncEnv::new(SyncMode::LockBased, 2));
        assert!(lb.profile.lock_acquires > 0);
        assert_eq!(lb.profile.atomic_rmws, 0);
    }

    #[test]
    fn no_barrier_dependence_inside_factorization() {
        let cfg = CholeskyConfig {
            n: 32,
            block: 8,
            seed: 5,
        };
        let env = SyncEnv::new(SyncMode::LockFree, 2);
        let r = run(&cfg, &env);
        // Only the two trailing checksum barriers.
        assert_eq!(r.profile.barrier_waits, 4);
    }
}
