//! `volrend` — front-to-back volume ray casting (Splash-2 application).
//!
//! The original renders a CT head dataset through an opacity/normal
//! precomputation, an octree of max-opacity bounds, and a tiled ray-casting
//! pass with early ray termination. This port keeps all three phases on a
//! synthetic density field (a deterministic sum of Gaussian blobs): parallel
//! opacity precomputation, a macro-cell max grid for empty-space skipping,
//! and tiled front-to-back compositing from a shared tile pool.
//!
//! Synchronization profile: static precompute phases with barriers, then a
//! **tile work pool** (locked queue vs atomic ticket) and global ray/sample
//! statistics reductions.

use crate::common::{KernelResult, SharedSlice};
use crate::dynpool::seeded_task_pool;
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::{Dispatch, PhaseSpec, SyncEnv, WorkModel};
use splash4_reclaim::ReclaimKind;

/// Volume renderer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolrendConfig {
    /// Volume side in voxels (cubic volume).
    pub volume: usize,
    /// Image side in pixels.
    pub image: usize,
    /// Tile side in pixels.
    pub tile: usize,
    /// Opacity threshold for early ray termination.
    pub termination: f64,
}

impl VolrendConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> VolrendConfig {
        let (volume, image) = match class {
            InputClass::Check => (16, 16),
            InputClass::Test => (32, 64),
            InputClass::Small => (64, 128),
            InputClass::Native => (128, 256), // paper: 256³ head dataset
        };
        VolrendConfig {
            volume,
            image,
            tile: 16,
            termination: 0.98,
        }
    }
}

/// Macro-cell side in voxels (empty-space skipping granularity).
const MACRO: usize = 4;

/// Synthetic density field: a deterministic sum of Gaussian blobs.
fn density(x: f64, y: f64, z: f64) -> f64 {
    // Blob centers/widths chosen to fill the unit cube asymmetrically.
    const BLOBS: [([f64; 3], f64, f64); 4] = [
        ([0.35, 0.40, 0.45], 0.18, 1.0),
        ([0.65, 0.55, 0.50], 0.15, 0.8),
        ([0.50, 0.70, 0.35], 0.12, 0.9),
        ([0.45, 0.30, 0.65], 0.10, 0.7),
    ];
    let mut v = 0.0;
    for (c, w, a) in BLOBS {
        let d2 = (x - c[0]).powi(2) + (y - c[1]).powi(2) + (z - c[2]).powi(2);
        v += a * (-d2 / (2.0 * w * w)).exp();
    }
    v
}

/// Transfer function: density → opacity per unit step.
#[inline]
fn opacity_of(v: f64) -> f64 {
    ((v - 0.3) * 1.8).clamp(0.0, 1.0)
}

/// Run the volume renderer under `env`; validates image determinism and
/// early-termination behaviour.
pub fn run(cfg: &VolrendConfig, env: &SyncEnv) -> KernelResult {
    let n = cfg.volume;
    let img = cfg.image;
    let nthreads = env.nthreads();
    let nmacro = n.div_ceil(MACRO);

    let mut volume = vec![0.0f64; n * n * n];
    let vvol = SharedSlice::new(&mut volume);
    let mut macro_max = vec![0.0f64; nmacro * nmacro * nmacro];
    let vmac = SharedSlice::new(&mut macro_max);
    let mut image = vec![0.0f64; img * img];
    let vimg = SharedSlice::new(&mut image);

    let barrier = env.barrier();
    let tiles_per_side = img.div_ceil(cfg.tile);
    // Tiles drain from a dynamic epoch-reclaimed pool (FIFO keeps the scan
    // order of the original tile dispenser).
    let pool = seeded_task_pool(
        env,
        (0..(tiles_per_side * tiles_per_side) as u32).collect::<Vec<_>>(),
        ReclaimKind::Epoch,
    );
    let rays = env.reducer_u64();
    let samples = env.reducer_u64();
    let terminated = env.reducer_u64();
    let checksum = env.reducer_f64();

    let elapsed = driver::roi(env, |ctx| {
        // Phase 1: opacity volume (static slabs).
        for i in ctx.chunk(n * n * n) {
            let (z, rem) = (i / (n * n), i % (n * n));
            let (y, x) = (rem / n, rem % n);
            let v = density(
                (x as f64 + 0.5) / n as f64,
                (y as f64 + 0.5) / n as f64,
                (z as f64 + 0.5) / n as f64,
            );
            // SAFETY: disjoint chunks.
            unsafe { vvol.set(i, opacity_of(v)) };
        }
        barrier.wait(ctx.tid);
        // Phase 2: macro-cell maxima (static over macro cells).
        for m in ctx.chunk(nmacro * nmacro * nmacro) {
            let (mz, rem) = (m / (nmacro * nmacro), m % (nmacro * nmacro));
            let (my, mx) = (rem / nmacro, rem % nmacro);
            let mut mx_op = 0.0f64;
            for z in mz * MACRO..((mz + 1) * MACRO).min(n) {
                for y in my * MACRO..((my + 1) * MACRO).min(n) {
                    for x in mx * MACRO..((mx + 1) * MACRO).min(n) {
                        // SAFETY: volume complete (barrier).
                        mx_op = mx_op.max(unsafe { vvol.get((z * n + y) * n + x) });
                    }
                }
            }
            // SAFETY: disjoint macro cells.
            unsafe { vmac.set(m, mx_op) };
        }
        barrier.wait(ctx.tid);
        // Phase 3: tiled ray casting.
        let mut local = (0u64, 0u64, 0u64); // rays, samples, terminated
        while let Some(tile) = pool.pop() {
            let tx = (tile as usize % tiles_per_side) * cfg.tile;
            let ty = (tile as usize / tiles_per_side) * cfg.tile;
            for py in ty..(ty + cfg.tile).min(img) {
                for px in tx..(tx + cfg.tile).min(img) {
                    local.0 += 1;
                    // Orthographic ray along +z at (u, v).
                    let u = (px as f64 + 0.5) / img as f64;
                    let v = (py as f64 + 0.5) / img as f64;
                    let step = 1.0 / n as f64;
                    let mut alpha = 0.0f64;
                    let mut lum = 0.0f64;
                    let mut z = 0.5 * step;
                    while z < 1.0 {
                        // Empty-space skip via macro cells.
                        let mi = ((u * n as f64) as usize).min(n - 1) / MACRO;
                        let mj = ((v * n as f64) as usize).min(n - 1) / MACRO;
                        let mk = ((z * n as f64) as usize).min(n - 1) / MACRO;
                        // SAFETY: precompute complete (barriers).
                        let cell_max = unsafe { vmac.get((mk * nmacro + mj) * nmacro + mi) };
                        if cell_max <= 0.0 {
                            // Jump to the next macro cell boundary.
                            let next = ((mk + 1) * MACRO) as f64 / n as f64;
                            z = next + 0.5 * step;
                            continue;
                        }
                        local.1 += 1;
                        let xi = ((u * n as f64) as usize).min(n - 1);
                        let yj = ((v * n as f64) as usize).min(n - 1);
                        let zk = ((z * n as f64) as usize).min(n - 1);
                        // SAFETY: volume read-only now.
                        let op = unsafe { vvol.get((zk * n + yj) * n + xi) } * 0.35;
                        let shade = 0.35 + 0.65 * (1.0 - z); // depth cue
                        lum += (1.0 - alpha) * op * shade;
                        alpha += (1.0 - alpha) * op;
                        if alpha >= cfg.termination {
                            local.2 += 1;
                            break;
                        }
                        z += step;
                    }
                    // SAFETY: tiles are exclusive.
                    unsafe { vimg.set(py * img + px, lum.min(1.0)) };
                }
            }
        }
        rays.add(local.0);
        samples.add(local.1);
        terminated.add(local.2);
        barrier.wait(ctx.tid);
        let mut sum = 0.0;
        for i in ctx.chunk(img * img) {
            // SAFETY: rendering complete (barrier above).
            sum += unsafe { vimg.get(i) };
        }
        checksum.add(sum);
        barrier.wait(ctx.tid);
    });

    let digest: f64 = image.iter().sum();
    let in_bounds = image
        .iter()
        .all(|&c| (0.0..=1.0).contains(&c) && c.is_finite());
    // Early termination requires enough steps through dense material to
    // saturate opacity; tiny CI volumes may never reach the threshold.
    let termination_ok = cfg.volume < 32 || terminated.load() > 0;
    let validated = in_bounds
        && rays.load() == (img * img) as u64
        && samples.load() > 0
        && termination_ok
        && digest > 0.0;

    let voxels = (n * n * n) as u64;
    let pixels = (img * img) as u64;
    let work = WorkModel::new("volrend")
        .phase(PhaseSpec::compute("opacity", voxels, 40))
        .phase(PhaseSpec::compute("macrocells", voxels / 8, 6))
        .phase(
            PhaseSpec::compute("render", pixels, 20 * n as u64 / 2)
                .dispatch(Dispatch::Pool)
                .reduces(4.0 * nthreads as f64 / pixels as f64)
                .barriers(2),
        );

    driver::finish(env, elapsed, digest, validated, work)
}

/// `volrend`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct Volrend;

impl Workload for Volrend {
    fn name(&self) -> &'static str {
        "volrend"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = VolrendConfig::class(class);
        format!("{0}³ volume → {1}² image", c.volume, c.image)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&VolrendConfig::class(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_parmacs::SyncMode;

    fn tiny() -> VolrendConfig {
        VolrendConfig {
            volume: 16,
            image: 32,
            tile: 8,
            termination: 0.98,
        }
    }

    #[test]
    fn density_peaks_inside_cube() {
        assert!(density(0.35, 0.40, 0.45) > density(0.05, 0.05, 0.05));
        assert!(density(0.5, 0.5, 0.5) > 0.5);
    }

    #[test]
    fn transfer_function_clamps() {
        assert_eq!(opacity_of(0.0), 0.0);
        assert_eq!(opacity_of(10.0), 1.0);
        assert!(opacity_of(0.5) > 0.0 && opacity_of(0.5) < 1.0);
    }

    #[test]
    fn renders_and_validates_in_both_modes() {
        for mode in SyncMode::ALL {
            for t in [1, 3] {
                let r = run(&tiny(), &SyncEnv::new(mode, t));
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn image_identical_across_modes_and_threads() {
        let base = run(&tiny(), &SyncEnv::new(SyncMode::LockBased, 1));
        for mode in SyncMode::ALL {
            for t in [1, 2, 4] {
                let r = run(&tiny(), &SyncEnv::new(mode, t));
                assert_eq!(r.checksum, base.checksum, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn queue_ops_match_mode() {
        let lf = run(&tiny(), &SyncEnv::new(SyncMode::LockFree, 2));
        assert!(lf.profile.queue_ops > 0);
        assert_eq!(lf.profile.lock_acquires, 0);
        let lb = run(&tiny(), &SyncEnv::new(SyncMode::LockBased, 2));
        assert!(lb.profile.lock_acquires > 0);
        assert_eq!(lb.profile.atomic_rmws, 0);
    }
}
