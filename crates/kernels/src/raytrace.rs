//! `raytrace` — Whitted-style recursive ray tracer (Splash-2 application).
//!
//! Renders a deterministic sphere-grid scene over a checkered ground plane
//! with point-light shadows and specular reflections. Image tiles come from a
//! shared work pool; every primary ray additionally claims a **global ray
//! id** — the infamous Splash-3 `RayID` counter, a lock-protected global the
//! Splash-4 modernization turns into a single `fetch_add`. That per-ray
//! counter is this kernel's dominant contention point, exactly as in the
//! paper.

use crate::common::{KernelResult, SharedSlice};
use crate::dynpool::seeded_task_pool;
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::{Dispatch, PhaseSpec, SyncEnv, WorkModel};
use splash4_reclaim::ReclaimKind;

/// Ray-tracer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaytraceConfig {
    /// Image side in pixels (square image).
    pub size: usize,
    /// Tile side in pixels.
    pub tile: usize,
    /// Maximum recursion depth for reflections.
    pub max_depth: u32,
}

impl RaytraceConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> RaytraceConfig {
        let size = match class {
            InputClass::Check => 16,
            InputClass::Test => 64,
            InputClass::Small => 160,
            InputClass::Native => 384, // paper: balls4/teapot scenes
        };
        RaytraceConfig {
            size,
            tile: 16,
            max_depth: 3,
        }
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.size.div_ceil(self.tile).pow(2)
    }
}

type V3 = [f64; 3];

#[inline]
fn add(a: V3, b: V3) -> V3 {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}
#[inline]
fn sub(a: V3, b: V3) -> V3 {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}
#[inline]
fn scale(a: V3, s: f64) -> V3 {
    [a[0] * s, a[1] * s, a[2] * s]
}
#[inline]
fn dot(a: V3, b: V3) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}
#[inline]
fn norm(a: V3) -> V3 {
    let l = dot(a, a).sqrt();
    scale(a, 1.0 / l)
}

/// A sphere with Phong-ish material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Center.
    pub center: V3,
    /// Radius.
    pub radius: f64,
    /// Diffuse RGB albedo.
    pub color: V3,
    /// Reflectivity in `[0, 1]`.
    pub reflect: f64,
}

/// The deterministic scene: a 3×3 sphere grid above a checkered plane.
pub fn scene() -> Vec<Sphere> {
    let mut spheres = Vec::new();
    for gx in 0..3 {
        for gz in 0..3 {
            let idx = gx * 3 + gz;
            spheres.push(Sphere {
                center: [
                    -2.4 + 2.4 * gx as f64,
                    0.8 + 0.35 * ((idx * 7) % 3) as f64,
                    -1.6 - 2.0 * gz as f64,
                ],
                radius: 0.65 + 0.1 * ((idx * 5) % 3) as f64,
                color: [
                    0.3 + 0.2 * ((idx * 3) % 4) as f64 / 3.0,
                    0.4 + 0.5 * (idx % 3) as f64 / 2.0,
                    0.9 - 0.2 * (idx % 4) as f64 / 3.0,
                ],
                reflect: if idx % 2 == 0 { 0.45 } else { 0.08 },
            });
        }
    }
    spheres
}

const LIGHT: V3 = [4.0, 6.5, 1.5];
const EYE: V3 = [0.0, 1.6, 4.0];

/// Ray/sphere intersection: smallest positive `t`, if any.
fn hit_sphere(orig: V3, dir: V3, s: &Sphere) -> Option<f64> {
    let oc = sub(orig, s.center);
    let b = dot(oc, dir);
    let c = dot(oc, oc) - s.radius * s.radius;
    let disc = b * b - c;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let t = -b - sq;
    if t > 1e-6 {
        return Some(t);
    }
    let t = -b + sq;
    (t > 1e-6).then_some(t)
}

/// Per-ray statistics (merged into the kernel's global reductions per tile).
#[derive(Debug, Default, Clone, Copy)]
struct RayStats {
    primary: u64,
    shadow: u64,
    reflection: u64,
}

/// Trace one ray into the scene.
fn trace(orig: V3, dir: V3, spheres: &[Sphere], depth: u32, stats: &mut RayStats) -> V3 {
    // Closest sphere hit.
    let mut best: Option<(f64, usize)> = None;
    for (i, s) in spheres.iter().enumerate() {
        if let Some(t) = hit_sphere(orig, dir, s) {
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, i));
            }
        }
    }
    // Ground plane y = 0.
    let plane_t = if dir[1] < -1e-9 {
        Some(-orig[1] / dir[1])
    } else {
        None
    };
    let use_plane = match (plane_t, best) {
        (Some(pt), Some((bt, _))) => pt < bt,
        (Some(_), None) => true,
        _ => false,
    };

    if !use_plane && best.is_none() {
        // Sky gradient.
        let t = 0.5 * (dir[1] + 1.0);
        return [0.65 - 0.25 * t, 0.75 - 0.15 * t, 1.0];
    }

    let (point, normal, base_color, reflectivity) = if use_plane {
        let t = plane_t.unwrap();
        let p = add(orig, scale(dir, t));
        let checker = ((p[0].floor() as i64 + p[2].floor() as i64).rem_euclid(2)) == 0;
        let c = if checker {
            [0.85, 0.85, 0.85]
        } else {
            [0.18, 0.18, 0.22]
        };
        (p, [0.0, 1.0, 0.0], c, 0.12)
    } else {
        let (t, i) = best.unwrap();
        let p = add(orig, scale(dir, t));
        let s = &spheres[i];
        (p, norm(sub(p, s.center)), s.color, s.reflect)
    };

    // Shadow ray.
    stats.shadow += 1;
    let to_light = norm(sub(LIGHT, point));
    let shadowed = spheres
        .iter()
        .any(|s| hit_sphere(add(point, scale(normal, 1e-6)), to_light, s).is_some());
    let diffuse = if shadowed {
        0.0
    } else {
        dot(normal, to_light).max(0.0)
    };
    let ambient = 0.18;
    let mut color = scale(base_color, ambient + 0.82 * diffuse);

    // Reflection.
    if reflectivity > 0.0 && depth > 0 {
        stats.reflection += 1;
        let refl = sub(dir, scale(normal, 2.0 * dot(dir, normal)));
        let bounce = trace(
            add(point, scale(normal, 1e-6)),
            norm(refl),
            spheres,
            depth - 1,
            stats,
        );
        color = add(
            scale(color, 1.0 - reflectivity),
            scale(bounce, reflectivity),
        );
    }
    [color[0].min(1.0), color[1].min(1.0), color[2].min(1.0)]
}

/// Run the ray tracer under `env`; validates image invariants and
/// determinism (pixels identical across modes and thread counts).
pub fn run(cfg: &RaytraceConfig, env: &SyncEnv) -> KernelResult {
    let size = cfg.size;
    let nthreads = env.nthreads();
    let spheres = scene();
    let tiles_per_side = size.div_ceil(cfg.tile);
    let tile_list: Vec<u32> = (0..cfg.tiles() as u32).collect();
    // Tiles drain from a dynamic hazard-pointer pool (FIFO keeps the scan
    // order of the original tile dispenser).
    let pool = seeded_task_pool(env, tile_list, ReclaimKind::Hazard);
    // The Splash RayID global: one claim per primary ray.
    let ray_ids = env.counter("ray-id", 0..size * size);
    let shadow_rays = env.reducer_u64();
    let reflection_rays = env.reducer_u64();
    let checksum = env.reducer_f64();
    let barrier = env.barrier();

    let mut image = vec![0.0f64; size * size * 3];
    let vimg = SharedSlice::new(&mut image);

    let elapsed = driver::roi(env, |ctx| {
        let mut stats = RayStats::default();
        let mut local_sum = 0.0;
        while let Some(tile) = pool.pop() {
            let tx = (tile as usize % tiles_per_side) * cfg.tile;
            let ty = (tile as usize / tiles_per_side) * cfg.tile;
            for py in ty..(ty + cfg.tile).min(size) {
                for px in tx..(tx + cfg.tile).min(size) {
                    // Claim the global ray id (the paper's hot counter).
                    let _id = ray_ids.next();
                    stats.primary += 1;
                    let u = (px as f64 + 0.5) / size as f64 * 2.0 - 1.0;
                    let v = 1.0 - (py as f64 + 0.5) / size as f64 * 2.0;
                    let dir = norm([u * 1.2, v * 1.2 - 0.25, -1.0]);
                    let c = trace(EYE, dir, &spheres, cfg.max_depth, &mut stats);
                    let base = (py * size + px) * 3;
                    // SAFETY: tiles are claimed exclusively.
                    unsafe {
                        vimg.set(base, c[0]);
                        vimg.set(base + 1, c[1]);
                        vimg.set(base + 2, c[2]);
                    }
                    local_sum += c[0] + c[1] + c[2];
                }
            }
        }
        shadow_rays.add(stats.shadow);
        reflection_rays.add(stats.reflection);
        checksum.add(local_sum);
        barrier.wait(ctx.tid);
    });

    // Deterministic digest: sequential sum over the image (the per-thread
    // reduction above exercises the sync path but is order-sensitive).
    let digest: f64 = image.iter().sum();
    let in_bounds = image
        .iter()
        .all(|&c| (0.0..=1.0).contains(&c) && c.is_finite());
    let validated = in_bounds
        && shadow_rays.load() >= (size * size / 4) as u64
        && reflection_rays.load() > 0
        && (checksum.load() - digest).abs() < 1e-6 * digest.max(1.0);

    let rays = (size * size) as u64;
    let tiles = cfg.tiles() as u64;
    let work = WorkModel::new("raytrace").phase(
        PhaseSpec::compute("render", rays, 1400)
            .dispatch(Dispatch::GetSub { chunk: 1 }) // the per-ray RayID claim
            .pushes(tiles as f64 / rays as f64) // tile-pool claims
            .reduces(3.0 * nthreads as f64 / rays as f64)
            .barriers(1),
    );

    driver::finish(env, elapsed, digest, validated, work)
}

/// `raytrace`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct Raytrace;

impl Workload for Raytrace {
    fn name(&self) -> &'static str {
        "raytrace"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = RaytraceConfig::class(class);
        format!("{0}×{0} image, depth {1}", c.size, c.max_depth)
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&RaytraceConfig::class(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_parmacs::SyncMode;

    fn tiny() -> RaytraceConfig {
        RaytraceConfig {
            size: 48,
            tile: 16,
            max_depth: 3,
        }
    }

    #[test]
    fn sphere_intersection_basics() {
        let s = Sphere {
            center: [0.0, 0.0, -5.0],
            radius: 1.0,
            color: [1.0; 3],
            reflect: 0.0,
        };
        // Straight at it.
        let t = hit_sphere([0.0, 0.0, 0.0], [0.0, 0.0, -1.0], &s).unwrap();
        assert!((t - 4.0).abs() < 1e-9);
        // Pointing away.
        assert!(hit_sphere([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], &s).is_none());
        // From inside: the far root.
        let t = hit_sphere([0.0, 0.0, -5.0], [0.0, 0.0, -1.0], &s).unwrap();
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn renders_and_validates() {
        for mode in SyncMode::ALL {
            for t in [1, 4] {
                let r = run(&tiny(), &SyncEnv::new(mode, t));
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn image_is_bit_identical_across_modes_and_threads() {
        let base = run(&tiny(), &SyncEnv::new(SyncMode::LockBased, 1));
        for mode in SyncMode::ALL {
            for t in [1, 2, 3] {
                let r = run(&tiny(), &SyncEnv::new(mode, t));
                assert_eq!(r.checksum, base.checksum, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn ray_id_counter_claims_one_per_pixel() {
        let cfg = tiny();
        let env = SyncEnv::new(SyncMode::LockFree, 2);
        let r = run(&cfg, &env);
        // One grab per pixel (no exhaustion polls: range is exactly n²).
        assert_eq!(r.profile.getsub_calls, (cfg.size * cfg.size) as u64);
        assert_eq!(r.profile.lock_acquires, 0);
    }

    #[test]
    fn lock_based_ray_ids_take_locks() {
        let cfg = tiny();
        let env = SyncEnv::new(SyncMode::LockBased, 2);
        let r = run(&cfg, &env);
        assert!(r.profile.lock_acquires >= (cfg.size * cfg.size) as u64);
        assert_eq!(r.profile.atomic_rmws, 0);
    }

    #[test]
    fn scene_is_deterministic() {
        assert_eq!(scene(), scene());
        assert_eq!(scene().len(), 9);
    }
}
