//! `water-spatial` — cell-list molecular dynamics (Splash-2 application).
//!
//! Same Lennard-Jones physics as [`water_nsq`](crate::water_nsq), but pair
//! search goes through spatial cell lists that are **rebuilt every timestep**:
//! each thread bins its molecules into shared per-cell member arrays by
//! claiming occupancy slots. That slot claim is the kernel's signature
//! contention point — Splash-3 takes a per-cell lock, Splash-4 claims with
//! `fetch_add` — on top of the cross-thread force accumulation and per-step
//! reductions shared with the n² version.

use crate::common::{KernelResult, SharedAccum, SharedSlice};
use crate::inputs::InputClass;
use crate::water_nsq::{initialize, lj, min_image, CUTOFF};
use crate::workload::{driver, Workload};
use splash4_parmacs::{PhaseSpec, SyncEnv, WorkModel};

/// Water-spatial kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterSpConfig {
    /// Number of molecules.
    pub n: usize,
    /// Timesteps.
    pub steps: usize,
    /// Integration timestep (reduced units).
    pub dt: f64,
    /// RNG seed for initial velocities.
    pub seed: u64,
}

impl WaterSpConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> WaterSpConfig {
        let (n, steps) = match class {
            InputClass::Check => (8, 1),
            InputClass::Test => (216, 3),
            InputClass::Small => (1000, 3),
            InputClass::Native => (4096, 5), // paper: up to 8³·8 molecules
        };
        WaterSpConfig {
            n,
            steps,
            dt: 0.001,
            seed: 0x5eed_0a7e,
        }
    }
}

/// Per-cell member capacity (density 0.8 ⇒ ≈12 molecules per cutoff³ cell;
/// generous headroom, checked at bin time).
const CELL_CAPACITY: usize = 96;

/// Map a coordinate to a cell index along one axis.
#[inline]
fn cell_of(x: f64, side: f64, nc: usize) -> usize {
    (((x / side) * nc as f64) as usize).min(nc - 1)
}

/// Build the deduplicated neighbor-cell table (periodic, handles nc < 3).
fn neighbor_table(nc: usize) -> Vec<Vec<u32>> {
    let ncells = nc * nc * nc;
    let mut table = Vec::with_capacity(ncells);
    for cx in 0..nc {
        for cy in 0..nc {
            for cz in 0..nc {
                let mut nbrs = Vec::new();
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            let nx = (cx as i64 + dx).rem_euclid(nc as i64) as usize;
                            let ny = (cy as i64 + dy).rem_euclid(nc as i64) as usize;
                            let nz = (cz as i64 + dz).rem_euclid(nc as i64) as usize;
                            nbrs.push(((nx * nc + ny) * nc + nz) as u32);
                        }
                    }
                }
                nbrs.sort_unstable();
                nbrs.dedup();
                table.push(nbrs);
            }
        }
    }
    table
}

/// Run the cell-list MD under `env`; validates momentum/energy conservation.
pub fn run(cfg: &WaterSpConfig, env: &SyncEnv) -> KernelResult {
    let n = cfg.n;
    let nthreads = env.nthreads();
    let fluid = initialize(n, cfg.seed);
    let side = fluid.side;
    let nc = ((side / CUTOFF).floor() as usize).max(1);
    let ncells = nc * nc * nc;
    let neighbors = neighbor_table(nc);

    let mut pos = fluid.pos.clone();
    let mut vel = fluid.vel.clone();
    let vpos = SharedSlice::new(&mut pos);
    let vvel = SharedSlice::new(&mut vel);

    let forces = SharedAccum::<f64>::new(env, 3 * n, 3);
    let occupancy = SharedAccum::<u64>::new(env, ncells, 1); // one lock per cell
    let mut members_store = vec![0u32; ncells * CELL_CAPACITY];
    let members = SharedSlice::new(&mut members_store);

    let barrier = env.barrier();
    let pot = env.reducer_f64();
    let kin = env.reducer_f64();
    let checksum = env.reducer_f64();
    let mut energy_store = vec![0.0f64; cfg.steps + 1];
    let venergy = SharedSlice::new(&mut energy_store);

    // Bin this thread's molecules into the shared cell lists.
    let bin = |ctx: &splash4_parmacs::TeamCtx| {
        for i in ctx.chunk(n) {
            // SAFETY: positions read-only during binning.
            let cx = cell_of(unsafe { vpos.get(3 * i) }, side, nc);
            let cy = cell_of(unsafe { vpos.get(3 * i + 1) }, side, nc);
            let cz = cell_of(unsafe { vpos.get(3 * i + 2) }, side, nc);
            let cell = (cx * nc + cy) * nc + cz;
            let slot = occupancy.add(cell, 1) as usize;
            assert!(slot < CELL_CAPACITY, "cell overflow: raise CELL_CAPACITY");
            // SAFETY: the claimed slot is unique.
            unsafe { members.set(cell * CELL_CAPACITY + slot, i as u32) };
        }
    };

    // Cell-list force evaluation for this thread's cyclically owned molecules.
    let compute_forces = |ctx: &splash4_parmacs::TeamCtx| -> f64 {
        let mut local_pot = 0.0;
        for i in ctx.cyclic(n) {
            // SAFETY: positions and cell lists read-only during force phase.
            let (xi, yi, zi) =
                unsafe { (vpos.get(3 * i), vpos.get(3 * i + 1), vpos.get(3 * i + 2)) };
            let cell = {
                let cx = cell_of(xi, side, nc);
                let cy = cell_of(yi, side, nc);
                let cz = cell_of(zi, side, nc);
                (cx * nc + cy) * nc + cz
            };
            for &nb in &neighbors[cell] {
                let cnt = occupancy.load(nb as usize) as usize;
                for s in 0..cnt {
                    // SAFETY: binning complete (barrier).
                    let j = unsafe { members.get(nb as usize * CELL_CAPACITY + s) } as usize;
                    if j <= i {
                        continue;
                    }
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
        }
        local_pot
    };

    let elapsed = driver::roi(env, |ctx| {
        let my = ctx.chunk(3 * n);
        for k in my.clone() {
            forces.store(k, 0.0);
        }
        for c in ctx.chunk(ncells) {
            occupancy.store(c, 0);
        }
        barrier.wait(ctx.tid);
        bin(&ctx);
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
            // Half-kick + drift, reset accumulators for rebinning.
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
            for c in ctx.chunk(ncells) {
                occupancy.store(c, 0);
            }
            if ctx.is_master() {
                pot.store(0.0);
                kin.store(0.0);
            }
            barrier.wait(ctx.tid);
            // Rebin (the contended slot-claim phase).
            bin(&ctx);
            barrier.wait(ctx.tid);
            // Forces via cell lists.
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
        let mut local = 0.0;
        for k in my {
            // SAFETY: simulation complete.
            local += unsafe { vpos.get(k) }.abs();
        }
        checksum.add(local);
        barrier.wait(ctx.tid);
    });

    let mut max_momentum = 0.0f64;
    for c in 0..3 {
        let p: f64 = vel.iter().skip(c).step_by(3).sum();
        max_momentum = max_momentum.max(p.abs());
    }
    let e0 = energy_store[0];
    let e_end = energy_store[cfg.steps];
    let drift = ((e_end - e0) / e0.abs().max(1.0)).abs();
    let validated = max_momentum < 1e-8 * n as f64 && drift < 0.05;

    let nu = n as u64;
    let pairs_per_mol = 14.0; // ≈ density · (4/3)π·rc³ / 2
    let work = WorkModel::new("water-spatial")
        .phase(
            PhaseSpec::compute("rebin", nu, 10)
                .repeats(cfg.steps as u64 + 1)
                .data_touches(1.0)
                .barriers(1),
        )
        .phase(
            PhaseSpec::compute("forces", nu, (pairs_per_mol * 40.0) as u64)
                .repeats(cfg.steps as u64 + 1)
                .data_touches(6.0 * pairs_per_mol)
                .reduces(nthreads as f64 / nu as f64)
                .barriers(2),
        )
        .phase(
            PhaseSpec::compute("integrate", 3 * nu, 8)
                .repeats(cfg.steps as u64)
                .reduces(nthreads as f64 / (3 * nu) as f64)
                .barriers(2),
        )
        .phase(
            PhaseSpec::compute("checksum", 3 * nu, 2).reduces(nthreads as f64 / (3 * nu) as f64),
        );

    driver::finish(env, elapsed, checksum.load(), validated, work)
}

/// `water-spatial`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct WaterSpatial;

impl Workload for WaterSpatial {
    fn name(&self) -> &'static str {
        "water-spatial"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = WaterSpConfig::class(class);
        format!("{} molecules, {} steps, cell lists", c.n, c.steps)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&WaterSpConfig::class(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;
    use crate::water_nsq::{self, WaterNsqConfig};
    use splash4_parmacs::SyncMode;

    fn tiny() -> WaterSpConfig {
        WaterSpConfig {
            n: 216,
            steps: 3,
            dt: 0.001,
            seed: 9,
        }
    }

    #[test]
    fn neighbor_table_full_grid() {
        let t = neighbor_table(4);
        assert_eq!(t.len(), 64);
        assert!(t.iter().all(|n| n.len() == 27));
        // Every neighbor relation is symmetric.
        for (c, nbrs) in t.iter().enumerate() {
            for &nb in nbrs {
                assert!(t[nb as usize].contains(&(c as u32)));
            }
        }
    }

    #[test]
    fn neighbor_table_degenerate_grids() {
        // nc = 1: single cell, its own unique neighbor.
        assert_eq!(neighbor_table(1), vec![vec![0]]);
        // nc = 2: wrap-around dedupes to all 8 cells.
        let t = neighbor_table(2);
        assert!(t.iter().all(|n| n.len() == 8));
    }

    #[test]
    fn conserves_in_both_modes_multithreaded() {
        for mode in SyncMode::ALL {
            for t in [1, 3] {
                let r = run(&tiny(), &SyncEnv::new(mode, t));
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn matches_nsquared_trajectories() {
        // Same physics, same inputs ⇒ same final positions as water-nsquared.
        let sp = run(&tiny(), &SyncEnv::new(SyncMode::LockFree, 2));
        let nsq_cfg = WaterNsqConfig {
            n: 216,
            steps: 3,
            dt: 0.001,
            seed: 9,
        };
        let nsq = water_nsq::run(&nsq_cfg, &SyncEnv::new(SyncMode::LockFree, 2));
        assert!(
            close(sp.checksum, nsq.checksum, 1e-9),
            "cell-list and all-pairs disagree: {} vs {}",
            sp.checksum,
            nsq.checksum
        );
    }

    #[test]
    fn checksum_mode_invariant() {
        let base = run(&tiny(), &SyncEnv::new(SyncMode::LockBased, 1));
        for mode in SyncMode::ALL {
            let r = run(&tiny(), &SyncEnv::new(mode, 4));
            assert!(close(r.checksum, base.checksum, 1e-6));
        }
    }

    #[test]
    fn binning_claims_are_counted() {
        let env = SyncEnv::new(SyncMode::LockFree, 2);
        let r = run(&tiny(), &env);
        // Rebinning claims one slot per molecule per (steps+1) binnings.
        assert!(r.profile.atomic_rmws as usize >= 216 * 4);
        assert_eq!(r.profile.lock_acquires, 0);
    }
}
