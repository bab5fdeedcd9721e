//! `barnes` — Barnes-Hut hierarchical N-body (Splash-2 application).
//!
//! Each timestep rebuilds the octree by concurrent insertion, computes
//! centers of mass, evaluates body accelerations by tree traversal with the
//! opening-angle criterion, and advances a leapfrog step.
//!
//! Synchronization profile: the **tree build** is the signature contention
//! point — Splash-3 guards every cell with a lock from an `ALOCK` array
//! while Splash-4 inserts with compare-and-swap on the child pointers.
//! The **force phase** distributes bodies with the classic `GETSUB` counter
//! (locked vs `fetch_add`). The final octree is canonical (purely spatial),
//! so results are identical across modes and thread counts.

use crate::common::{KernelResult, SharedSlice};
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::SmallRng;
use splash4_parmacs::{Dispatch, PhaseSpec, SyncEnv, Team, WorkModel};
use std::sync::atomic::{AtomicU64, Ordering};

/// Barnes-Hut kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarnesConfig {
    /// Number of bodies.
    pub n: usize,
    /// Timesteps (tree rebuilt each step).
    pub steps: usize,
    /// Opening-angle criterion θ.
    pub theta: f64,
    /// Leapfrog timestep.
    pub dt: f64,
    /// Plummer softening length.
    pub eps: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BarnesConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> BarnesConfig {
        let (n, steps) = match class {
            InputClass::Test => (512, 2),
            InputClass::Small => (2048, 2),
            InputClass::Native => (16384, 3), // paper: 16K–64K bodies
        };
        BarnesConfig {
            n,
            steps,
            theta: 0.6,
            dt: 0.005,
            eps: 0.05,
            seed: 0x5eed_ba4e,
        }
    }
}

/// Child-slot encoding in the octree.
const EMPTY: u64 = u64::MAX;
const BODY_TAG: u64 = 1 << 63;

#[inline]
fn body_ref(i: usize) -> u64 {
    BODY_TAG | i as u64
}

#[inline]
fn is_body(v: u64) -> bool {
    v != EMPTY && v & BODY_TAG != 0
}

#[inline]
fn untag(v: u64) -> usize {
    (v & !BODY_TAG) as usize
}

/// Octant of `p` relative to `center` (bit 0: x, bit 1: y, bit 2: z).
#[inline]
fn octant(p: [f64; 3], center: [f64; 3]) -> usize {
    usize::from(p[0] >= center[0])
        | (usize::from(p[1] >= center[1]) << 1)
        | (usize::from(p[2] >= center[2]) << 2)
}

/// Child-cube center for `oct` within a node at `center`/`half`.
#[inline]
fn child_center(center: [f64; 3], half: f64, oct: usize) -> [f64; 3] {
    let q = half * 0.5;
    [
        center[0] + if oct & 1 != 0 { q } else { -q },
        center[1] + if oct & 2 != 0 { q } else { -q },
        center[2] + if oct & 4 != 0 { q } else { -q },
    ]
}

/// Octree node arena (struct-of-arrays; slots are atomics, geometry is
/// written once by the allocating thread before a node is published).
struct Arena<'a> {
    children: Vec<AtomicU64>,
    centers: SharedSlice<'a, [f64; 3]>,
    halves: SharedSlice<'a, f64>,
    /// COM pass outputs (written single-threaded).
    mass: SharedSlice<'a, f64>,
    com: SharedSlice<'a, [f64; 3]>,
}

impl Arena<'_> {
    fn slot(&self, node: usize, oct: usize) -> &AtomicU64 {
        &self.children[node * 8 + oct]
    }
}

/// Per-thread private bump range over the shared arena.
struct ThreadAlloc {
    next: usize,
    end: usize,
}

impl ThreadAlloc {
    fn alloc(&mut self) -> usize {
        assert!(self.next < self.end, "arena exhausted: raise capacity");
        let i = self.next;
        self.next += 1;
        i
    }
}

/// Run Barnes-Hut under `env`; validates against direct summation.
pub fn run(cfg: &BarnesConfig, env: &SyncEnv) -> KernelResult {
    let n = cfg.n;
    let nthreads = env.nthreads();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mass = 1.0 / n as f64;
    let mut pos: Vec<[f64; 3]> = (0..n)
        .map(|_| {
            [
                rng.gen_range(0.1..0.9),
                rng.gen_range(0.1..0.9),
                rng.gen_range(0.1..0.9),
            ]
        })
        .collect();
    let mut vel: Vec<[f64; 3]> = (0..n)
        .map(|_| {
            [
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
            ]
        })
        .collect();
    let mut acc: Vec<[f64; 3]> = vec![[0.0; 3]; n];

    let cap = 8 * n + 64;
    let mut centers_store = vec![[0.0f64; 3]; cap];
    let mut halves_store = vec![0.0f64; cap];
    let mut mass_store = vec![0.0f64; cap];
    let mut com_store = vec![[0.0f64; 3]; cap];
    let arena = Arena {
        children: (0..cap * 8).map(|_| AtomicU64::new(EMPTY)).collect(),
        centers: SharedSlice::new(&mut centers_store),
        halves: SharedSlice::new(&mut halves_store),
        mass: SharedSlice::new(&mut mass_store),
        com: SharedSlice::new(&mut com_store),
    };
    let vpos = SharedSlice::new(&mut pos);
    let vvel = SharedSlice::new(&mut vel);
    let vacc = SharedSlice::new(&mut acc);

    let barrier = env.barrier();
    let use_locks = env.data_locks();
    let node_locks: Vec<_> = if use_locks {
        env.lock_array(cap)
    } else {
        Vec::new()
    };
    let stats = std::sync::Arc::clone(env.stats());
    // One GETSUB counter per (step, force-phase) and one per COM phase
    // (subtrees below the root are processed in parallel, as in the
    // original's parallel hackcofm).
    let force_counters: Vec<_> = (0..cfg.steps)
        .map(|s| env.counter(&format!("force-step{s}"), 0..n))
        .collect();
    let com_counters: Vec<_> = (0..cfg.steps)
        .map(|s| env.counter(&format!("com-step{s}"), 0..8))
        .collect();
    let checksum = env.reducer_f64();

    // Insert body `i`; see module docs for the two disciplines.
    let insert = |i: usize, alloc: &mut ThreadAlloc| {
        // SAFETY: positions are read-only during the build phase.
        let p = unsafe { vpos.get(i) };
        let mut node = 0usize;
        loop {
            // SAFETY: node geometry is written before publication.
            let center = unsafe { arena.centers.get(node) };
            let half = unsafe { arena.halves.get(node) };
            let oct = octant(p, center);
            let slot = arena.slot(node, oct);

            if use_locks {
                node_locks[node].acquire();
            }
            let cur = slot.load(Ordering::Acquire);
            if cur == EMPTY {
                if use_locks {
                    slot.store(body_ref(i), Ordering::Release);
                    node_locks[node].release();
                    return;
                }
                let claim =
                    slot.compare_exchange(EMPTY, body_ref(i), Ordering::AcqRel, Ordering::Acquire);
                if stats.cas(claim).is_ok() {
                    return;
                }
                continue; // slot changed under us; re-examine
            }
            if is_body(cur) {
                let j = untag(cur);
                // SAFETY: read-only phase.
                let pj = unsafe { vpos.get(j) };
                // Build a private chain of cells until i and j separate,
                // placing j at the end; publish the chain head into `slot`.
                let head = alloc.alloc();
                let mut tail = head;
                let mut c_center = child_center(center, half, oct);
                let mut c_half = half * 0.5;
                // SAFETY: `head`/`tail` nodes are private until published.
                unsafe {
                    arena.centers.set(tail, c_center);
                    arena.halves.set(tail, c_half);
                }
                let mut depth = 0;
                loop {
                    let oj = octant(pj, c_center);
                    let oi = octant(p, c_center);
                    if oi != oj {
                        arena.slot(tail, oj).store(body_ref(j), Ordering::Relaxed);
                        break;
                    }
                    let next = alloc.alloc();
                    c_center = child_center(c_center, c_half, oj);
                    c_half *= 0.5;
                    // SAFETY: private chain node.
                    unsafe {
                        arena.centers.set(next, c_center);
                        arena.halves.set(next, c_half);
                    }
                    arena.slot(tail, oj).store(next as u64, Ordering::Relaxed);
                    tail = next;
                    depth += 1;
                    assert!(depth < 128, "bodies too close: coincident positions?");
                }
                if use_locks {
                    slot.store(head as u64, Ordering::Release);
                    node_locks[node].release();
                    // Re-examine the same node: slot now internal.
                    continue;
                }
                // Losing the race leaves the chain nodes as wasted arena
                // space.
                let _ = stats.cas(slot.compare_exchange(
                    cur,
                    head as u64,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ));
                continue;
            }
            // Internal node: descend.
            if use_locks {
                node_locks[node].release();
            }
            node = cur as usize;
        }
    };

    // Post-order COM of one subtree (single-threaded per subtree; subtrees
    // are claimed exclusively via the COM counter).
    fn compute_com(
        arena: &Arena<'_>,
        node: u64,
        body_mass: f64,
        vpos: &SharedSlice<'_, [f64; 3]>,
    ) -> (f64, [f64; 3]) {
        if is_body(node) {
            // SAFETY: build complete.
            let p = unsafe { vpos.get(untag(node)) };
            return (body_mass, p);
        }
        let idx = node as usize;
        let mut m = 0.0;
        let mut c = [0.0f64; 3];
        for oct in 0..8 {
            let child = arena.slot(idx, oct).load(Ordering::Acquire);
            if child == EMPTY {
                continue;
            }
            let (cm, cc) = compute_com(arena, child, body_mass, vpos);
            m += cm;
            for d in 0..3 {
                c[d] += cm * cc[d];
            }
        }
        for cd in &mut c {
            *cd /= m;
        }
        // SAFETY: nodes of this subtree are touched only by the claimant.
        unsafe {
            arena.mass.set(idx, m);
            arena.com.set(idx, c);
        }
        (m, c)
    }

    // Acceleration on `p` from the tree (iterative traversal).
    let tree_accel = |p: [f64; 3], theta: f64| -> [f64; 3] {
        let mut a = [0.0f64; 3];
        let mut stack = vec![0u64];
        while let Some(v) = stack.pop() {
            let (m, c) = if is_body(v) {
                // SAFETY: read-only phase.
                (mass, unsafe { vpos.get(untag(v)) })
            } else {
                let idx = v as usize;
                // SAFETY: COM pass complete.
                let half = unsafe { arena.halves.get(idx) };
                let com = unsafe { arena.com.get(idx) };
                let dx = [com[0] - p[0], com[1] - p[1], com[2] - p[2]];
                let d2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
                if (2.0 * half) * (2.0 * half) > theta * theta * d2 {
                    // Too close: open the node.
                    for oct in 0..8 {
                        let child = arena.slot(idx, oct).load(Ordering::Relaxed);
                        if child != EMPTY {
                            stack.push(child);
                        }
                    }
                    continue;
                }
                (unsafe { arena.mass.get(idx) }, com)
            };
            let dx = [c[0] - p[0], c[1] - p[1], c[2] - p[2]];
            let d2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + cfg.eps * cfg.eps;
            if d2 < 1e-18 {
                continue; // self-interaction
            }
            let inv = m / (d2 * d2.sqrt());
            for d in 0..3 {
                a[d] += inv * dx[d];
            }
        }
        a
    };

    let elapsed = driver::roi(env, |ctx| {
        for step in 0..cfg.steps {
            // Reset the arena (chunked) and the root.
            let per = cap.div_ceil(nthreads);
            let lo = (ctx.tid * per).min(cap);
            let hi = ((ctx.tid + 1) * per).min(cap);
            for s in lo * 8..hi * 8 {
                arena.children[s].store(EMPTY, Ordering::Relaxed);
            }
            if ctx.is_master() {
                // SAFETY: master-only, pre-barrier of build.
                unsafe {
                    arena.centers.set(0, [0.5, 0.5, 0.5]);
                    arena.halves.set(0, 0.5);
                }
            }
            barrier.wait(ctx.tid);
            // Build: per-thread private allocation ranges after the root.
            let span = (cap - 1) / nthreads;
            let mut alloc = ThreadAlloc {
                next: 1 + ctx.tid * span,
                end: 1 + (ctx.tid + 1) * span,
            };
            for i in ctx.chunk(n) {
                insert(i, &mut alloc);
            }
            barrier.wait(ctx.tid);
            // COM: the eight root subtrees in parallel (claimed via GETSUB),
            // then the master combines them into the root.
            let com_counter = &com_counters[step];
            while let Some(oct) = com_counter.next() {
                let child = arena.slot(0, oct).load(Ordering::Acquire);
                if child != EMPTY && !is_body(child) {
                    let _ = compute_com(&arena, child, mass, &vpos);
                }
            }
            barrier.wait(ctx.tid);
            if ctx.is_master() {
                let mut m = 0.0;
                let mut c = [0.0f64; 3];
                for oct in 0..8 {
                    let child = arena.slot(0, oct).load(Ordering::Acquire);
                    if child == EMPTY {
                        continue;
                    }
                    let (cm, cc) = if is_body(child) {
                        // SAFETY: build complete.
                        (mass, unsafe { vpos.get(untag(child)) })
                    } else {
                        let idx = child as usize;
                        // SAFETY: subtree COM complete (barrier).
                        unsafe { (arena.mass.get(idx), arena.com.get(idx)) }
                    };
                    m += cm;
                    for d in 0..3 {
                        c[d] += cm * cc[d];
                    }
                }
                for cd in &mut c {
                    *cd /= m;
                }
                // SAFETY: master-only write between barriers.
                unsafe {
                    arena.mass.set(0, m);
                    arena.com.set(0, c);
                }
            }
            barrier.wait(ctx.tid);
            // Forces: bodies distributed via GETSUB.
            let counter = &force_counters[step];
            loop {
                let chunk = counter.next_chunk(8);
                if chunk.is_empty() {
                    break;
                }
                for i in chunk {
                    // SAFETY: acc[i] written only by the claimant.
                    let p = unsafe { vpos.get(i) };
                    unsafe { vacc.set(i, tree_accel(p, cfg.theta)) };
                }
            }
            barrier.wait(ctx.tid);
            // Leapfrog advance (owners).
            for i in ctx.chunk(n) {
                // SAFETY: disjoint chunks.
                let a = unsafe { vacc.get(i) };
                let mut v = unsafe { vvel.get(i) };
                let mut x = unsafe { vpos.get(i) };
                for d in 0..3 {
                    v[d] += cfg.dt * a[d];
                    x[d] += cfg.dt * v[d];
                    // Reflect at the unit cube so the root cube stays valid.
                    if x[d] < 0.02 {
                        x[d] = 0.04 - x[d];
                        v[d] = -v[d];
                    } else if x[d] > 0.98 {
                        x[d] = 1.96 - x[d];
                        v[d] = -v[d];
                    }
                }
                unsafe { vvel.set(i, v) };
                unsafe { vpos.set(i, x) };
            }
            barrier.wait(ctx.tid);
        }
        // Checksum: Σ|x| + Σ|a|.
        let mut local = 0.0;
        for i in ctx.chunk(n) {
            // SAFETY: simulation complete.
            let x = unsafe { vpos.get(i) };
            let a = unsafe { vacc.get(i) };
            local += x[0].abs() + x[1].abs() + x[2].abs();
            local += (a[0].abs() + a[1].abs() + a[2].abs()) * 1e-3;
        }
        checksum.add(local);
        barrier.wait(ctx.tid);
    });

    // Validation: BH accelerations vs direct summation on the final state.
    // The tree is the last step's build, one advance behind the final
    // positions; the tolerance absorbs that (θ's error dominates at small dt).
    let validated = {
        // SAFETY: the ROI's team has joined; the oracle's team only reads.
        let pos: Vec<[f64; 3]> = (0..n).map(|i| unsafe { vpos.get(i) }).collect();
        let direct = direct_accels(&pos, mass, cfg.eps, nthreads);
        validate(|i| tree_accel(pos[i], cfg.theta), &direct, nthreads)
    };

    let nu = n as u64;
    let steps = cfg.steps as u64;
    let work = WorkModel::new("barnes")
        .phase(
            PhaseSpec::compute("build", nu, 120)
                .repeats(steps)
                .data_touches(1.3) // one slot publish + occasional splits
                .barriers(2),
        )
        .phase(
            PhaseSpec::compute("com", 8, (nu / 3).max(1) * 8)
                .repeats(steps)
                .dispatch(Dispatch::GetSub { chunk: 1 })
                .barriers(2),
        )
        .phase(
            PhaseSpec::compute("forces", nu, 2200)
                .repeats(steps)
                .dispatch(Dispatch::GetSub { chunk: 8 }),
        )
        .phase(PhaseSpec::compute("advance", nu, 12).repeats(steps))
        .phase(PhaseSpec::compute("checksum", nu, 4).reduces(1));

    driver::finish(env, elapsed, checksum.load(), validated, work)
}

/// Mean relative error of the tree accelerations `bh(i)` against `direct`
/// under 5 %, each of `nthreads` threads summing its chunk. A NaN anywhere
/// propagates through the sums and fails the comparison.
fn validate(bh: impl Fn(usize) -> [f64; 3] + Sync, direct: &[[f64; 3]], nthreads: usize) -> bool {
    let n = direct.len();
    let parts = Team::new(nthreads).run_map(|ctx| {
        let mut total_rel = 0.0f64;
        for i in ctx.chunk(n) {
            let (bh, direct) = (bh(i), direct[i]);
            let mag = (direct[0].powi(2) + direct[1].powi(2) + direct[2].powi(2)).sqrt();
            let err = ((bh[0] - direct[0]).powi(2)
                + (bh[1] - direct[1]).powi(2)
                + (bh[2] - direct[2]).powi(2))
            .sqrt();
            total_rel += err / mag.max(1e-12);
        }
        total_rel
    });
    (parts.iter().sum::<f64>() / n as f64) < 0.05
}

/// Softened direct-sum accelerations: each of `nthreads` threads sums the pairs
/// `i < j` of its rows `i` on its own, and the parts are added in `tid` order.
fn direct_accels(pos: &[[f64; 3]], mass: f64, eps: f64, nthreads: usize) -> Vec<[f64; 3]> {
    let parts = Team::new(nthreads).run_map(|ctx| {
        let mut direct = vec![[0.0f64; 3]; pos.len()];
        for i in ctx.cyclic(pos.len()) {
            for (j, pj) in pos.iter().enumerate().skip(i + 1) {
                let dx = [pj[0] - pos[i][0], pj[1] - pos[i][1], pj[2] - pos[i][2]];
                let d2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + eps * eps;
                let inv = mass / (d2 * d2.sqrt());
                for d in 0..3 {
                    direct[i][d] += inv * dx[d];
                    direct[j][d] -= inv * dx[d];
                }
            }
        }
        direct
    });
    let sum = |i: usize| [0, 1, 2].map(|d| parts.iter().map(|p| p[i][d]).sum());
    (0..pos.len()).map(sum).collect()
}

/// `barnes`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct Barnes;

impl Workload for Barnes {
    fn name(&self) -> &'static str {
        "barnes"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = BarnesConfig::class(class);
        format!("{} bodies, {} steps, θ={}", c.n, c.steps, c.theta)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&BarnesConfig::class(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;
    use splash4_parmacs::SyncMode;

    fn tiny() -> BarnesConfig {
        BarnesConfig {
            n: 256,
            steps: 2,
            theta: 0.6,
            dt: 0.005,
            eps: 0.05,
            seed: 11,
        }
    }

    /// The previous direct sum: every ordered pair.
    fn direct_accels_ordered(pos: &[[f64; 3]], mass: f64, eps: f64) -> Vec<[f64; 3]> {
        pos.iter()
            .enumerate()
            .map(|(i, pi)| {
                let mut direct = [0.0f64; 3];
                for (j, pj) in pos.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let dx = [pj[0] - pi[0], pj[1] - pi[1], pj[2] - pi[2]];
                    let d2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + eps * eps;
                    let inv = mass / (d2 * d2.sqrt());
                    for d in 0..3 {
                        direct[d] += inv * dx[d];
                    }
                }
                direct
            })
            .collect()
    }

    #[test]
    fn direct_sum_matches_the_ordered_pair_reference() {
        for (n, seed) in [(1, 1), (2, 2), (33, 3), (2048, 4)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let pos: Vec<[f64; 3]> = (0..n)
                .map(|_| std::array::from_fn(|_| rng.gen_range(0.0..1.0)))
                .collect();
            let mass = 1.0 / n as f64;
            let want = direct_accels_ordered(&pos, mass, 0.05);
            for t in [1, 2, 3] {
                let got = direct_accels(&pos, mass, 0.05, t);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    let mag = w.iter().map(|x| x * x).sum::<f64>().sqrt();
                    let err = (0..3).map(|d| (g[d] - w[d]).powi(2)).sum::<f64>().sqrt();
                    assert!(
                        err <= 1e-9 * mag,
                        "n {n}, {t} threads, body {i}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn octant_selects_correctly() {
        let c = [0.5, 0.5, 0.5];
        assert_eq!(octant([0.4, 0.4, 0.4], c), 0);
        assert_eq!(octant([0.6, 0.4, 0.4], c), 1);
        assert_eq!(octant([0.4, 0.6, 0.4], c), 2);
        assert_eq!(octant([0.6, 0.6, 0.6], c), 7);
    }

    #[test]
    fn child_center_offsets() {
        let c = child_center([0.5, 0.5, 0.5], 0.5, 7);
        assert_eq!(c, [0.75, 0.75, 0.75]);
        let c = child_center([0.5, 0.5, 0.5], 0.5, 0);
        assert_eq!(c, [0.25, 0.25, 0.25]);
    }

    #[test]
    fn tagging_round_trips() {
        assert!(is_body(body_ref(42)));
        assert_eq!(untag(body_ref(42)), 42);
        assert!(!is_body(7));
        assert!(!is_body(EMPTY));
    }

    #[test]
    fn accelerations_match_direct_sum_single_thread() {
        for mode in SyncMode::ALL {
            let r = run(&tiny(), &SyncEnv::new(mode, 1));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn accelerations_match_direct_sum_multithreaded() {
        for mode in SyncMode::ALL {
            for t in [2, 4] {
                let r = run(&tiny(), &SyncEnv::new(mode, t));
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn checksum_mode_and_thread_invariant() {
        // The octree is canonical, so results match exactly across modes.
        let base = run(&tiny(), &SyncEnv::new(SyncMode::LockBased, 1));
        for mode in SyncMode::ALL {
            for t in [1, 3] {
                let r = run(&tiny(), &SyncEnv::new(mode, t));
                assert!(
                    close(r.checksum, base.checksum, 1e-9),
                    "mode {mode} t {t}: {} vs {}",
                    r.checksum,
                    base.checksum
                );
            }
        }
    }

    #[test]
    fn validate_rejects_one_nan_acceleration_first_or_last() {
        let mut rng = SmallRng::seed_from_u64(5);
        let pos: Vec<[f64; 3]> = (0..256)
            .map(|_| std::array::from_fn(|_| rng.gen_range(0.0..1.0)))
            .collect();
        let direct = direct_accels(&pos, 1.0 / 256.0, 0.05, 1);
        for t in [1, 2] {
            assert!(validate(|i| direct[i], &direct, t), "{t} threads");
            for bad in [0, 255] {
                let bh = |i: usize| if i == bad { [f64::NAN; 3] } else { direct[i] };
                assert!(!validate(bh, &direct, t), "{t} threads, body {bad}");
            }
        }
    }

    #[test]
    #[ignore = "Native class: run in release with --ignored"]
    fn validates_at_native() {
        let cfg = BarnesConfig::class(InputClass::Native);
        for mode in SyncMode::ALL {
            let r = run(&cfg, &SyncEnv::new(mode, 2));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn build_uses_cas_in_lockfree_and_locks_in_lockbased() {
        let lf = run(&tiny(), &SyncEnv::new(SyncMode::LockFree, 2));
        assert_eq!(lf.profile.lock_acquires, 0);
        assert!(lf.profile.atomic_rmws as usize >= 256, "≥1 CAS per body");
        let lb = run(&tiny(), &SyncEnv::new(SyncMode::LockBased, 2));
        assert!(lb.profile.lock_acquires as usize >= 256);
        assert_eq!(lb.profile.atomic_rmws, 0);
    }

    #[test]
    fn getsub_distributes_force_work() {
        let r = run(&tiny(), &SyncEnv::new(SyncMode::LockFree, 3));
        // ceil(256/8)=32 force chunks per step + 8 COM subtrees per step,
        // plus exhaustion polls.
        assert!(r.profile.getsub_calls >= 80);
    }
}
