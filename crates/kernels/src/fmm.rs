//! `fmm` — 2-D fast multipole method for particle potentials (Splash-2
//! application).
//!
//! Uniform quadtree over the unit box: particles are binned into leaves,
//! multipole expansions ascend (P2M, M2M), interaction-list translations
//! (M2L) and local shifts (L2L) descend, and leaves evaluate local expansions
//! plus near-field direct sums (L2P, P2P). The classic Greengard–Rokhlin
//! complex-logarithm expansions are used.
//!
//! Synchronization profile: leaf **binning claims** (per-cell lock vs
//! `fetch_add`), per-level barriers on the up/down sweeps, `GETSUB` counters
//! distributing the expensive M2L and leaf phases, and a global potential
//! reduction.

use crate::common::{max_or_nan, KernelResult, SharedAccum, SharedSlice};
use crate::fft::Cpx;
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::SmallRng;
use splash4_parmacs::{Dispatch, PhaseSpec, SyncEnv, Team, WorkModel};

/// FMM kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmmConfig {
    /// Number of particles.
    pub n: usize,
    /// Quadtree depth (leaves = `4^levels`).
    pub levels: u32,
    /// Multipole expansion order.
    pub order: usize,
    /// RNG seed.
    pub seed: u64,
}

impl FmmConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> FmmConfig {
        let (n, levels) = match class {
            InputClass::Test => (512, 3),
            InputClass::Small => (2048, 4),
            InputClass::Native => (16384, 5), // paper: 16K–64K particles
        };
        FmmConfig {
            n,
            levels,
            order: 16,
            seed: 0x5eed_0f33,
        }
    }
}

impl Cpx {
    /// Complex natural logarithm.
    fn cln(self) -> Cpx {
        Cpx::new(self.abs().ln(), self.im.atan2(self.re))
    }

    /// Complex reciprocal.
    fn inv(self) -> Cpx {
        let d = self.re * self.re + self.im * self.im;
        Cpx::new(self.re / d, -self.im / d)
    }

    /// Scale by a real.
    fn scale(self, s: f64) -> Cpx {
        Cpx::new(self.re * s, self.im * s)
    }
}

/// Binomial coefficient table `binom[n][k]` for `n, k ≤ max`.
fn binomials(max: usize) -> Vec<Vec<f64>> {
    let mut b = vec![vec![0.0f64; max + 1]; max + 1];
    for n in 0..=max {
        b[n][0] = 1.0;
        for k in 1..=n {
            b[n][k] = b[n - 1][k - 1] + if k < n { b[n - 1][k] } else { 0.0 };
        }
    }
    b
}

/// Cells per side at level `l`.
#[inline]
fn side(l: u32) -> usize {
    1 << l
}

/// Center of cell `(ix, iy)` at level `l`.
#[inline]
fn center(ix: usize, iy: usize, l: u32) -> Cpx {
    let w = 1.0 / side(l) as f64;
    Cpx::new((ix as f64 + 0.5) * w, (iy as f64 + 0.5) * w)
}

/// The interaction list of cell `(ix, iy)` at level `l`: children of the
/// parent's neighbors that are not themselves neighbors of the cell.
fn interaction_list(ix: usize, iy: usize, l: u32) -> Vec<(usize, usize)> {
    if l < 2 {
        return Vec::new();
    }
    let s = side(l) as i64;
    let (px, py) = (ix as i64 / 2, iy as i64 / 2);
    let mut out = Vec::new();
    for dy in -1i64..=1 {
        for dx in -1i64..=1 {
            let (nx, ny) = (px + dx, py + dy);
            if nx < 0 || ny < 0 || nx >= s / 2 || ny >= s / 2 {
                continue;
            }
            for cy in 0..2i64 {
                for cx in 0..2i64 {
                    let (qx, qy) = (nx * 2 + cx, ny * 2 + cy);
                    let far = (qx - ix as i64).abs() > 1 || (qy - iy as i64).abs() > 1;
                    if far {
                        out.push((qx as usize, qy as usize));
                    }
                }
            }
        }
    }
    out
}

/// Run the FMM under `env`; validates potentials against direct summation.
pub fn run(cfg: &FmmConfig, env: &SyncEnv) -> KernelResult {
    let n = cfg.n;
    let p = cfg.order;
    let lmax = cfg.levels;
    let nleaf = side(lmax) * side(lmax);
    let nthreads = env.nthreads();
    let binom = binomials(2 * p + 2);

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let pos: Vec<Cpx> = (0..n)
        .map(|_| Cpx::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let charge: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();

    // Leaf membership.
    let leaf_cap = (n / nleaf) * 8 + 32;
    let occupancy = SharedAccum::<u64>::new(env, nleaf, 1);
    let mut members_store = vec![0u32; nleaf * leaf_cap];
    let members = SharedSlice::new(&mut members_store);
    let leaf_of = |z: Cpx| -> (usize, usize) {
        let s = side(lmax);
        (
            ((z.re * s as f64) as usize).min(s - 1),
            ((z.im * s as f64) as usize).min(s - 1),
        )
    };

    // Expansions per level (levels 2..=lmax used), flattened [cell][coef].
    let mut mpole_store: Vec<Vec<Cpx>> = (0..=lmax)
        .map(|l| vec![Cpx::default(); side(l) * side(l) * (p + 1)])
        .collect();
    let mut local_store: Vec<Vec<Cpx>> = (0..=lmax)
        .map(|l| vec![Cpx::default(); side(l) * side(l) * (p + 1)])
        .collect();
    let mpole: Vec<SharedSlice<'_, Cpx>> = mpole_store
        .iter_mut()
        .map(|v| SharedSlice::new(v))
        .collect();
    let locals: Vec<SharedSlice<'_, Cpx>> = local_store
        .iter_mut()
        .map(|v| SharedSlice::new(v))
        .collect();
    let mut phi_store = vec![0.0f64; n];
    let vphi = SharedSlice::new(&mut phi_store);

    let barrier = env.barrier();
    let m2l_counters: Vec<_> = (2..=lmax)
        .map(|l| env.counter(&format!("m2l-l{l}"), 0..side(l) * side(l)))
        .collect();
    let leaf_counter = env.counter("leaf-eval", 0..nleaf);
    let checksum = env.reducer_f64();

    let elapsed = driver::roi(env, |ctx| {
        // Phase 1: bin particles into leaves (contended slot claims).
        for i in ctx.chunk(n) {
            let (ix, iy) = leaf_of(pos[i]);
            let cell = iy * side(lmax) + ix;
            let slot = occupancy.add(cell, 1) as usize;
            assert!(slot < leaf_cap, "leaf overflow: raise capacity");
            // SAFETY: unique claimed slot.
            unsafe { members.set(cell * leaf_cap + slot, i as u32) };
        }
        barrier.wait(ctx.tid);

        // Phase 2: P2M at leaves (static over cells). The slot claims of
        // phase 1 order a leaf's members by schedule; sorting them makes
        // this sum and phase 5's near field run in one order on any run.
        for cell in ctx.chunk(nleaf) {
            let (iy, ix) = (cell / side(lmax), cell % side(lmax));
            let c = center(ix, iy, lmax);
            let cnt = occupancy.load(cell) as usize;
            // SAFETY: binning complete (barrier).
            let mut leaf: Vec<u32> = (0..cnt)
                .map(|s| unsafe { members.get(cell * leaf_cap + s) })
                .collect();
            leaf.sort_unstable();
            for (s, &j) in leaf.iter().enumerate() {
                // SAFETY: cell-exclusive writes.
                unsafe { members.set(cell * leaf_cap + s, j) };
            }
            let mut coef = vec![Cpx::default(); p + 1];
            for &j in &leaf {
                let j = j as usize;
                let q = charge[j];
                let dz = pos[j].sub(c);
                coef[0] = coef[0].add(Cpx::new(q, 0.0));
                let mut dzk = dz;
                for (k, ck) in coef.iter_mut().enumerate().skip(1) {
                    *ck = ck.add(dzk.scale(-q / k as f64));
                    dzk = dzk.mul(dz);
                }
            }
            for (k, ck) in coef.iter().enumerate() {
                // SAFETY: cell-exclusive writes.
                unsafe { mpole[lmax as usize].set(cell * (p + 1) + k, *ck) };
            }
        }
        barrier.wait(ctx.tid);

        // Phase 3: upward M2M (levels lmax-1 down to 2).
        for l in (2..lmax).rev() {
            let s = side(l);
            for cell in ctx.chunk(s * s) {
                let (iy, ix) = (cell / s, cell % s);
                let cp = center(ix, iy, l);
                let mut acc = vec![Cpx::default(); p + 1];
                for cy in 0..2 {
                    for cx in 0..2 {
                        let (jx, jy) = (ix * 2 + cx, iy * 2 + cy);
                        let child = jy * side(l + 1) + jx;
                        let cc = center(jx, jy, l + 1);
                        let d = cc.sub(cp);
                        // SAFETY: child level complete (barrier).
                        let a: Vec<Cpx> = (0..=p)
                            .map(|k| unsafe { mpole[(l + 1) as usize].get(child * (p + 1) + k) })
                            .collect();
                        acc[0] = acc[0].add(a[0]);
                        let mut dl = d; // d^l
                        for lq in 1..=p {
                            let mut b = dl.scale(-a[0].re / lq as f64);
                            // a[0] is real (total charge) by construction.
                            let mut dpow = Cpx::new(1.0, 0.0); // d^{l-k}
                            for k in (1..=lq).rev() {
                                b = b.add(a[k].mul(dpow).scale(binom[lq - 1][k - 1]));
                                dpow = dpow.mul(d);
                            }
                            acc[lq] = acc[lq].add(b);
                            dl = dl.mul(d);
                        }
                    }
                }
                for (k, ck) in acc.iter().enumerate() {
                    // SAFETY: cell-exclusive writes.
                    unsafe { mpole[l as usize].set(cell * (p + 1) + k, *ck) };
                }
            }
            barrier.wait(ctx.tid);
        }

        // Phase 4: downward — L2L from parent plus M2L from the interaction
        // list, levels 2..=lmax (GETSUB-distributed).
        for l in 2..=lmax {
            let s = side(l);
            let counter = &m2l_counters[(l - 2) as usize];
            while let Some(cell) = counter.next() {
                let (iy, ix) = (cell / s, cell % s);
                let cl = center(ix, iy, l);
                let mut acc = vec![Cpx::default(); p + 1];
                // L2L shift from the parent (zero at level 2).
                if l > 2 {
                    let (px, py) = (ix / 2, iy / 2);
                    let parent = py * side(l - 1) + px;
                    let cp = center(px, py, l - 1);
                    let d = cl.sub(cp);
                    // SAFETY: parent level complete (barrier).
                    let a: Vec<Cpx> = (0..=p)
                        .map(|k| unsafe { locals[(l - 1) as usize].get(parent * (p + 1) + k) })
                        .collect();
                    for lq in 0..=p {
                        let mut b = Cpx::default();
                        let mut dpow = Cpx::new(1.0, 0.0);
                        for k in lq..=p {
                            b = b.add(a[k].mul(dpow).scale(binom[k][lq]));
                            dpow = dpow.mul(d);
                        }
                        acc[lq] = b;
                    }
                }
                // M2L from each interaction-list cell.
                for (qx, qy) in interaction_list(ix, iy, l) {
                    let src = qy * s + qx;
                    let zm = center(qx, qy, l);
                    let z0 = zm.sub(cl);
                    // SAFETY: multipoles complete (upward barriers).
                    let a: Vec<Cpx> = (0..=p)
                        .map(|k| unsafe { mpole[l as usize].get(src * (p + 1) + k) })
                        .collect();
                    let z0inv = z0.inv();
                    // b_0 = a_0 ln(-z0) + Σ (-1)^k a_k / z0^k
                    let mut b0 = Cpx::new(a[0].re, 0.0).mul(Cpx::new(-z0.re, -z0.im).cln());
                    let mut zk = z0inv;
                    let mut sign = -1.0;
                    for ak in a.iter().take(p + 1).skip(1) {
                        b0 = b0.add(ak.mul(zk).scale(sign));
                        zk = zk.mul(z0inv);
                        sign = -sign;
                    }
                    acc[0] = acc[0].add(b0);
                    // b_l = -a_0/(l z0^l) + z0^{-l} Σ (-1)^k a_k C(l+k-1, k-1) / z0^k
                    let mut z0l = z0inv; // z0^{-l}
                    for lq in 1..=p {
                        let mut b = z0l.scale(-a[0].re / lq as f64);
                        let mut zk = z0inv;
                        let mut sign = -1.0;
                        for (k, ak) in a.iter().enumerate().take(p + 1).skip(1) {
                            b = b.add(ak.mul(zk).mul(z0l).scale(sign * binom[lq + k - 1][k - 1]));
                            zk = zk.mul(z0inv);
                            sign = -sign;
                        }
                        acc[lq] = acc[lq].add(b);
                        z0l = z0l.mul(z0inv);
                    }
                }
                for (k, ck) in acc.iter().enumerate() {
                    // SAFETY: cell claimed exclusively via the counter.
                    unsafe { locals[l as usize].set(cell * (p + 1) + k, *ck) };
                }
            }
            barrier.wait(ctx.tid);
        }

        // Phase 5: L2P + near-field P2P at leaves (GETSUB-distributed).
        let s = side(lmax);
        while let Some(cell) = leaf_counter.next() {
            let (iy, ix) = (cell / s, cell % s);
            let cl = center(ix, iy, lmax);
            let cnt = occupancy.load(cell) as usize;
            // SAFETY: local expansions complete (barrier).
            let coef: Vec<Cpx> = (0..=p)
                .map(|k| unsafe { locals[lmax as usize].get(cell * (p + 1) + k) })
                .collect();
            for si in 0..cnt {
                // SAFETY: particles belong to exactly one leaf.
                let i = unsafe { members.get(cell * leaf_cap + si) } as usize;
                let dz = pos[i].sub(cl);
                // Horner evaluation of the local expansion.
                let mut val = Cpx::default();
                for k in (0..=p).rev() {
                    val = val.mul(dz).add(coef[k]);
                }
                let mut phi = val.re;
                // Near field: this leaf + neighbors, direct.
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let (nx, ny) = (ix as i64 + dx, iy as i64 + dy);
                        if nx < 0 || ny < 0 || nx >= s as i64 || ny >= s as i64 {
                            continue;
                        }
                        let nb = (ny as usize) * s + nx as usize;
                        let ncnt = occupancy.load(nb) as usize;
                        for sj in 0..ncnt {
                            // SAFETY: binning complete.
                            let j = unsafe { members.get(nb * leaf_cap + sj) } as usize;
                            if j == i {
                                continue;
                            }
                            let d = pos[i].sub(pos[j]);
                            phi += charge[j] * d.abs().ln();
                        }
                    }
                }
                // SAFETY: leaf-exclusive particle writes.
                unsafe { vphi.set(i, phi) };
            }
        }
        barrier.wait(ctx.tid);
        // Checksum: Σ q_i φ_i (interaction energy).
        let mut local = 0.0;
        for i in ctx.chunk(n) {
            // SAFETY: evaluation complete.
            local += charge[i] * unsafe { vphi.get(i) };
        }
        checksum.add(local);
        barrier.wait(ctx.tid);
    });

    let validated = validate(&pos, &charge, &phi_store, nthreads);

    let nu = n as u64;
    let cells2plus: u64 = (2..=lmax).map(|l| (side(l) * side(l)) as u64).sum();
    let per_leaf = nu / nleaf as u64;
    let mut work = WorkModel::new("fmm")
        .phase(PhaseSpec::compute("bin", nu, 8).data_touches(1.0))
        .phase(PhaseSpec::compute(
            "p2m",
            nleaf as u64,
            per_leaf * (p as u64) * 6,
        ))
        .phase(
            PhaseSpec::compute("m2m", cells2plus / 2, (p * p) as u64 * 5).barriers(lmax as u64 - 2),
        );
    // One dispenser pass per level, each ending in an empty grab.
    for l in 2..=lmax {
        let m2l = PhaseSpec::compute("m2l", (side(l) * side(l)) as u64, 27 * (p * p) as u64 * 5);
        work = work.phase(m2l.dispatch(Dispatch::GetSub { chunk: 1 }));
    }
    let work = work.phase(
        PhaseSpec::compute(
            "l2p+p2p",
            nleaf as u64,
            per_leaf * (per_leaf * 9 * 12 + p as u64 * 6),
        )
        .dispatch(Dispatch::GetSub { chunk: 1 })
        .reduces(1)
        .barriers(2),
    );

    driver::finish(env, elapsed, checksum.load(), validated, work)
}

/// Every potential against direct summation, relative to the largest.
fn validate(pos: &[Cpx], charge: &[f64], phi: &[f64], nthreads: usize) -> bool {
    let direct = direct_potentials(pos, charge, nthreads);
    let scale = direct.iter().map(|d| d.abs()).fold(0.0, max_or_nan);
    let max_rel = phi
        .iter()
        .zip(&direct)
        .map(|(p, d)| (p - d).abs())
        .fold(0.0, max_or_nan);
    max_rel / scale.max(1e-12) < 1e-3
}

/// `φ_i = Σ_{j≠i} q_j ln|z_i − z_j|` with `ln|d| = ½ ln|d|²`: each of `nthreads`
/// threads sums the pairs `i < j` of its rows `i`; parts are added in `tid` order.
fn direct_potentials(pos: &[Cpx], charge: &[f64], nthreads: usize) -> Vec<f64> {
    let n = pos.len();
    let parts = Team::new(nthreads).run_map(|ctx| {
        let mut direct = vec![0.0f64; n];
        for i in ctx.cyclic(n) {
            for j in i + 1..n {
                let d = pos[i].sub(pos[j]);
                let l = 0.5 * (d.re * d.re + d.im * d.im).ln();
                direct[i] += charge[j] * l;
                direct[j] += charge[i] * l;
            }
        }
        direct
    });
    (0..n).map(|i| parts.iter().map(|p| p[i]).sum()).collect()
}

/// `fmm`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct Fmm;

impl Workload for Fmm {
    fn name(&self) -> &'static str {
        "fmm"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = FmmConfig::class(class);
        format!("{} particles, depth {}, p={}", c.n, c.levels, c.order)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&FmmConfig::class(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;
    use splash4_parmacs::SyncMode;

    fn tiny() -> FmmConfig {
        FmmConfig {
            n: 256,
            levels: 3,
            order: 16,
            seed: 13,
        }
    }

    /// The previous direct sum: every ordered pair, with a `sqrt` each.
    fn direct_potentials_ordered(pos: &[Cpx], charge: &[f64]) -> Vec<f64> {
        let n = pos.len();
        (0..n)
            .map(|i| {
                let mut direct = 0.0;
                for j in 0..n {
                    if i != j {
                        direct += charge[j] * pos[i].sub(pos[j]).abs().ln();
                    }
                }
                direct
            })
            .collect()
    }

    fn particles(n: usize, seed: u64) -> (Vec<Cpx>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pos = (0..n)
            .map(|_| Cpx::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let charge = (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();
        (pos, charge)
    }

    #[test]
    fn direct_sum_matches_the_ordered_pair_reference() {
        for (n, seed) in [(1, 1), (2, 2), (33, 3), (2048, 4)] {
            let (pos, charge) = particles(n, seed);
            let want = direct_potentials_ordered(&pos, &charge);
            for t in [1, 2, 3] {
                let got = direct_potentials(&pos, &charge, t);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        close(*g, *w, 1e-9),
                        "n {n}, {t} threads, particle {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn validate_rejects_one_potential_off_by_1e_3_of_the_largest() {
        let (pos, charge) = particles(512, 5);
        let phi = direct_potentials_ordered(&pos, &charge);
        // The tolerance is relative to the largest potential, so that is
        // the unit a perturbation is measured in.
        let scale = phi.iter().fold(0.0f64, |m, p| m.max(p.abs()));
        for t in [1, 2, 3] {
            assert!(validate(&pos, &charge, &phi, t), "{t} threads");
            // The first row, one in the middle and the last.
            for i in [0, 255, 511] {
                let mut bad = phi.clone();
                bad[i] += 1.001e-3 * scale;
                assert!(
                    !validate(&pos, &charge, &bad, t),
                    "{t} threads, particle {i}"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_one_nan_potential_first_or_last() {
        let (pos, charge) = particles(512, 5);
        let phi = direct_potentials_ordered(&pos, &charge);
        for t in [1, 2] {
            for i in [0, 511] {
                let mut bad = phi.clone();
                bad[i] = f64::NAN;
                assert!(
                    !validate(&pos, &charge, &bad, t),
                    "{t} threads, particle {i}"
                );
            }
        }
    }

    #[test]
    fn binomial_table_is_pascal() {
        let b = binomials(6);
        assert_eq!(b[4][2], 6.0);
        assert_eq!(b[5][0], 1.0);
        assert_eq!(b[6][3], 20.0);
    }

    #[test]
    fn interaction_list_properties() {
        // Level 2: 4×4 grid. A corner cell's parent has 3 in-bounds
        // neighbor parents, i.e. ≤ 16 candidate children minus near cells.
        let il = interaction_list(0, 0, 2);
        assert!(!il.is_empty());
        for &(qx, qy) in &il {
            assert!(qx < 4 && qy < 4);
            let far = qx as i64 > 1 || qy as i64 > 1;
            assert!(far, "({qx},{qy}) too close to (0,0)");
        }
        // Levels 0 and 1 have empty lists.
        assert!(interaction_list(0, 0, 1).is_empty());
        // Interior cell at level 3 has up to 27 entries.
        assert!(interaction_list(3, 3, 3).len() <= 27);
    }

    #[test]
    fn complex_helpers() {
        let z = Cpx::new(3.0, 4.0);
        let li = z.inv().mul(z);
        assert!(close(li.re, 1.0, 1e-12) && li.im.abs() < 1e-12);
        let l = Cpx::new(std::f64::consts::E, 0.0).cln();
        assert!(close(l.re, 1.0, 1e-12));
    }

    #[test]
    fn potentials_match_direct_sum_single_thread() {
        for mode in SyncMode::ALL {
            let r = run(&tiny(), &SyncEnv::new(mode, 1));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn potentials_match_direct_sum_multithreaded() {
        for mode in SyncMode::ALL {
            for t in [2, 4] {
                let r = run(&tiny(), &SyncEnv::new(mode, t));
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn checksum_mode_invariant() {
        let base = run(&tiny(), &SyncEnv::new(SyncMode::LockBased, 1));
        for mode in SyncMode::ALL {
            for t in [1, 3] {
                let r = run(&tiny(), &SyncEnv::new(mode, t));
                assert!(close(r.checksum, base.checksum, 1e-9));
            }
        }
    }

    #[test]
    fn two_thread_checksum_is_bit_stable_run_to_run() {
        // A leaf's members are claimed in schedule order; unsorted, the
        // P2M and near-field sums differed in the last ulps within a
        // couple of runs at this size.
        let cfg = FmmConfig::class(InputClass::Test);
        for mode in SyncMode::ALL {
            let first = run(&cfg, &SyncEnv::new(mode, 2)).checksum;
            for _ in 0..12 {
                let again = run(&cfg, &SyncEnv::new(mode, 2)).checksum;
                assert_eq!(again.to_bits(), first.to_bits(), "mode {mode}");
            }
        }
    }

    #[test]
    fn deeper_trees_also_validate() {
        let cfg = FmmConfig {
            n: 1024,
            levels: 4,
            order: 16,
            seed: 14,
        };
        let r = run(&cfg, &SyncEnv::new(SyncMode::LockFree, 2));
        assert!(r.validated);
    }

    #[test]
    #[ignore = "Native class: run in release with --ignored"]
    fn validates_at_native() {
        let cfg = FmmConfig::class(InputClass::Native);
        for mode in SyncMode::ALL {
            let r = run(&cfg, &SyncEnv::new(mode, 2));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn sync_profile_shows_getsub_and_claims() {
        let r = run(&tiny(), &SyncEnv::new(SyncMode::LockFree, 2));
        assert!(r.profile.getsub_calls > 0);
        assert!(r.profile.atomic_rmws > 0);
        assert_eq!(r.profile.lock_acquires, 0);
    }
}
