//! `water-nsquared` — O(n²) molecular dynamics (Splash-2 application).
//!
//! The original simulates liquid water with a predictor–corrector integrator;
//! the synchronization-relevant core is the all-pairs force computation in
//! which every thread accumulates forces into molecules owned by *other*
//! threads. This port keeps that exact sharing pattern on a Lennard-Jones
//! fluid with velocity-Verlet integration (same arithmetic intensity class,
//! verifiable conservation laws).
//!
//! Synchronization profile: **fine-grained accumulation dominated** — two
//! shared-array updates per interacting pair (Splash-3: per-molecule locks;
//! Splash-4: CAS-loop atomic adds) plus per-step energy reductions and
//! barriers. The paper reports the water codes among the largest Splash-4
//! wins for exactly this reason.

use crate::common::{KernelResult, SharedAccum, SharedSlice};
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::SmallRng;
use splash4_parmacs::{PhaseSpec, SyncEnv, WorkModel};

/// Water-nsquared kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterNsqConfig {
    /// Number of molecules.
    pub n: usize,
    /// Timesteps.
    pub steps: usize,
    /// Integration timestep (reduced units).
    pub dt: f64,
    /// RNG seed for initial velocities.
    pub seed: u64,
}

impl WaterNsqConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> WaterNsqConfig {
        let (n, steps) = match class {
            InputClass::Check => (4, 1), // 6 pairs: schedulable exhaustively
            InputClass::Test => (216, 3),
            InputClass::Small => (512, 3),
            InputClass::Native => (1728, 5), // paper: 512–4096 molecules
        };
        WaterNsqConfig {
            n,
            steps,
            dt: 0.001,
            seed: 0x5eed_0a7e,
        }
    }
}

/// Simulation box and particle state.
#[derive(Debug, Clone)]
pub struct Fluid {
    /// Box side (cubic, periodic).
    pub side: f64,
    /// Positions, `3n` interleaved xyz.
    pub pos: Vec<f64>,
    /// Velocities, `3n`.
    pub vel: Vec<f64>,
}

/// Lattice + random-velocity initialization (zero net momentum).
pub fn initialize(n: usize, seed: u64) -> Fluid {
    let density = 0.8;
    let side = (n as f64 / density).cbrt();
    let cells = (n as f64).cbrt().ceil() as usize;
    let spacing = side / cells as f64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pos = Vec::with_capacity(3 * n);
    'fill: for ix in 0..cells {
        for iy in 0..cells {
            for iz in 0..cells {
                if pos.len() >= 3 * n {
                    break 'fill;
                }
                pos.push((ix as f64 + 0.5) * spacing);
                pos.push((iy as f64 + 0.5) * spacing);
                pos.push((iz as f64 + 0.5) * spacing);
            }
        }
    }
    let mut vel: Vec<f64> = (0..3 * n).map(|_| rng.gen_range(-0.1..0.1)).collect();
    for c in 0..3 {
        let mean: f64 = vel.iter().skip(c).step_by(3).sum::<f64>() / n as f64;
        for v in vel.iter_mut().skip(c).step_by(3) {
            *v -= mean;
        }
    }
    Fluid { side, pos, vel }
}

/// Minimum-image displacement component.
#[inline]
pub fn min_image(mut d: f64, side: f64) -> f64 {
    if d > side * 0.5 {
        d -= side;
    } else if d < -side * 0.5 {
        d += side;
    }
    d
}

/// Lennard-Jones interaction cutoff radius (reduced units).
pub const CUTOFF: f64 = 2.5;

/// Shifted Lennard-Jones pair energy and force magnitude over r (ε=σ=1).
#[inline]
pub fn lj(r2: f64) -> (f64, f64) {
    let inv2 = 1.0 / r2;
    let inv6 = inv2 * inv2 * inv2;
    let inv12 = inv6 * inv6;
    // u(rc) shift keeps energy continuous at the cutoff.
    let shift = {
        let c6 = 1.0 / CUTOFF.powi(6);
        4.0 * (c6 * c6 - c6)
    };
    let u = 4.0 * (inv12 - inv6) - shift;
    let f_over_r = 24.0 * (2.0 * inv12 - inv6) * inv2;
    (u, f_over_r)
}

/// Run the MD under `env`; validates momentum and energy conservation.
pub fn run(cfg: &WaterNsqConfig, env: &SyncEnv) -> KernelResult {
    let n = cfg.n;
    let nthreads = env.nthreads();
    let fluid = initialize(n, cfg.seed);
    let side = fluid.side;
    let mut pos = fluid.pos.clone();
    let mut vel = fluid.vel.clone();
    let vpos = SharedSlice::new(&mut pos);
    let vvel = SharedSlice::new(&mut vel);

    let forces = SharedAccum::<f64>::new(env, 3 * n, 3); // one lock per molecule
    let barrier = env.barrier();
    let pot = env.reducer_f64();
    let kin = env.reducer_f64();
    let checksum = env.reducer_f64();
    // Energy trace recorded by the master between barriers.
    let mut energy_store = vec![0.0f64; cfg.steps + 1];
    let venergy = SharedSlice::new(&mut energy_store);

    let compute_forces = |ctx: &splash4_parmacs::TeamCtx| -> f64 {
        let mut local_pot = 0.0;
        for i in ctx.cyclic(n) {
            let (xi, yi, zi) = unsafe {
                // SAFETY: positions are read-only during force phases.
                (vpos.get(3 * i), vpos.get(3 * i + 1), vpos.get(3 * i + 2))
            };
            for j in i + 1..n {
                let dx = min_image(xi - unsafe { vpos.get(3 * j) }, side);
                let dy = min_image(yi - unsafe { vpos.get(3 * j + 1) }, side);
                let dz = min_image(zi - unsafe { vpos.get(3 * j + 2) }, side);
                let r2 = dx * dx + dy * dy + dz * dz;
                if r2 < CUTOFF * CUTOFF {
                    let (u, f_over_r) = lj(r2);
                    local_pot += u;
                    let (fx, fy, fz) = (f_over_r * dx, f_over_r * dy, f_over_r * dz);
                    forces.add(3 * i, fx);
                    forces.add(3 * i + 1, fy);
                    forces.add(3 * i + 2, fz);
                    forces.add(3 * j, -fx);
                    forces.add(3 * j + 1, -fy);
                    forces.add(3 * j + 2, -fz);
                }
            }
        }
        local_pot
    };

    let elapsed = driver::roi(env, |ctx| {
        let my = ctx.chunk(3 * n);
        // Initial force evaluation.
        for k in my.clone() {
            forces.store(k, 0.0);
        }
        barrier.wait(ctx.tid);
        let local_pot = compute_forces(&ctx);
        pot.add(local_pot);
        let mut local_kin = 0.0;
        for k in my.clone() {
            // SAFETY: velocities read-only here.
            let v = unsafe { vvel.get(k) };
            local_kin += 0.5 * v * v;
        }
        kin.add(local_kin);
        barrier.wait(ctx.tid);
        if ctx.is_master() {
            // SAFETY: master-only write between barriers.
            unsafe { venergy.set(0, pot.load() + kin.load()) };
        }
        barrier.wait(ctx.tid);

        for step in 0..cfg.steps {
            // Half-kick + drift (owners update their own molecules).
            for k in my.clone() {
                // SAFETY: disjoint chunks.
                let v = unsafe { vvel.get(k) } + 0.5 * cfg.dt * forces.load(k);
                unsafe { vvel.set(k, v) };
                let mut x = unsafe { vpos.get(k) } + cfg.dt * v;
                if x < 0.0 {
                    x += side;
                } else if x >= side {
                    x -= side;
                }
                unsafe { vpos.set(k, x) };
                forces.store(k, 0.0);
            }
            if ctx.is_master() {
                pot.store(0.0);
                kin.store(0.0);
            }
            barrier.wait(ctx.tid);
            // Force evaluation (the shared-accumulation hot phase).
            let local_pot = compute_forces(&ctx);
            pot.add(local_pot);
            barrier.wait(ctx.tid);
            // Second half-kick + kinetic energy.
            let mut local_kin = 0.0;
            for k in my.clone() {
                // SAFETY: disjoint chunks; forces complete (barrier).
                let v = unsafe { vvel.get(k) } + 0.5 * cfg.dt * forces.load(k);
                unsafe { vvel.set(k, v) };
                local_kin += 0.5 * v * v;
            }
            kin.add(local_kin);
            barrier.wait(ctx.tid);
            if ctx.is_master() {
                // SAFETY: master-only write between barriers.
                unsafe { venergy.set(step + 1, pot.load() + kin.load()) };
            }
            barrier.wait(ctx.tid);
        }
        // Checksum: Σ|x|.
        let mut local = 0.0;
        for k in my {
            // SAFETY: simulation complete.
            local += unsafe { vpos.get(k) }.abs();
        }
        checksum.add(local);
        barrier.wait(ctx.tid);
    });

    // Momentum conservation.
    let mut max_momentum = 0.0f64;
    for c in 0..3 {
        let p: f64 = vel.iter().skip(c).step_by(3).sum();
        max_momentum = max_momentum.max(p.abs());
    }
    // Energy conservation.
    let e0 = energy_store[0];
    let e_end = energy_store[cfg.steps];
    let drift = ((e_end - e0) / e0.abs().max(1.0)).abs();
    let validated = max_momentum < 1e-8 * n as f64 && drift < 0.05;

    let pairs = (n * (n - 1) / 2) as u64;
    let in_range = 0.35; // fraction of pairs within cutoff at this density (approx.)
    let work = WorkModel::new("water-nsquared")
        .phase(
            PhaseSpec::compute("forces", pairs, 40)
                .repeats(cfg.steps as u64 + 1)
                .data_touches(6.0 * in_range)
                .reduces(nthreads as f64 / pairs as f64)
                .barriers(2),
        )
        .phase(
            PhaseSpec::compute("integrate", (3 * n) as u64, 8)
                .repeats(cfg.steps as u64)
                .reduces(nthreads as f64 / (3 * n) as f64)
                .barriers(2),
        )
        .phase(
            PhaseSpec::compute("checksum", (3 * n) as u64, 2)
                .reduces(nthreads as f64 / (3 * n) as f64),
        );

    driver::finish(env, elapsed, checksum.load(), validated, work)
}

/// `water-nsquared`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct WaterNsquared;

impl Workload for WaterNsquared {
    fn name(&self) -> &'static str {
        "water-nsquared"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = WaterNsqConfig::class(class);
        format!("{} molecules, {} steps", c.n, c.steps)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&WaterNsqConfig::class(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;
    use splash4_parmacs::SyncMode;

    fn tiny() -> WaterNsqConfig {
        WaterNsqConfig {
            n: 64,
            steps: 3,
            dt: 0.001,
            seed: 9,
        }
    }

    #[test]
    fn lj_force_is_zero_at_minimum() {
        // LJ minimum at r = 2^(1/6): force changes sign there.
        let r_min: f64 = 2f64.powf(1.0 / 6.0);
        let (_, f_below) = lj((r_min - 0.01).powi(2));
        let (_, f_above) = lj((r_min + 0.01).powi(2));
        assert!(f_below > 0.0 && f_above < 0.0);
    }

    #[test]
    fn min_image_wraps() {
        assert_eq!(min_image(6.0, 10.0), -4.0);
        assert_eq!(min_image(-6.0, 10.0), 4.0);
        assert_eq!(min_image(3.0, 10.0), 3.0);
    }

    #[test]
    fn initialization_has_zero_momentum() {
        let f = initialize(100, 3);
        for c in 0..3 {
            let p: f64 = f.vel.iter().skip(c).step_by(3).sum();
            assert!(p.abs() < 1e-10);
        }
        assert_eq!(f.pos.len(), 300);
        assert!(f.pos.iter().all(|&x| x >= 0.0 && x <= f.side));
    }

    #[test]
    fn conserves_single_thread() {
        for mode in SyncMode::ALL {
            let r = run(&tiny(), &SyncEnv::new(mode, 1));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn conserves_multithreaded() {
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
                assert!(close(r.checksum, base.checksum, 1e-6));
            }
        }
    }

    #[test]
    fn sync_profile_reflects_mode() {
        let lb = run(&tiny(), &SyncEnv::new(SyncMode::LockBased, 2));
        assert!(
            lb.profile.lock_acquires > 0,
            "pair accumulation takes locks"
        );
        assert_eq!(lb.profile.atomic_rmws, 0);
        let lf = run(&tiny(), &SyncEnv::new(SyncMode::LockFree, 2));
        assert_eq!(lf.profile.lock_acquires, 0);
        assert!(lf.profile.atomic_rmws > 0);
        // Same number of logical accumulations either way: lock ops should
        // roughly match RMW count (each lock acquire guards one add; the
        // lock-free side may retry).
        assert!(lf.profile.atomic_rmws >= lb.profile.lock_acquires - lb.profile.reduce_ops);
    }
}
