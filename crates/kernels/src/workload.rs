//! The suite's workload abstraction: one object-safe trait, one registry.
//!
//! The paper's core claim is that the *same* workloads run under both
//! synchronization generations; this module turns that sameness from a
//! convention into a structure. Every kernel implements [`Workload`] —
//! name, input description, and a `run` whose parallel region goes through
//! the shared [`driver`] and whose result carries the phase structure as
//! its [`WorkModel`] — and appears in the process registry. Everything
//! downstream (the harness registry, experiments, perf bench, trace capture,
//! the model checker's kernel scenarios, the experiment service) consumes
//! workloads through this one seam *by
//! iteration, not by count*: the suite size appears in exactly one place
//! (the `BUILTIN` table below), so adding a workload is one kernel file
//! plus one registration line — or, for out-of-tree workloads, a single
//! [`register`] call at startup.

use crate::common::KernelResult;
use crate::inputs::InputClass;
use splash4_parmacs::{SyncEnv, TeamCtx, WorkModel};
use std::sync::{OnceLock, RwLock};

/// A suite workload, object-safe so the whole suite fits in a flat
/// `Vec<&'static dyn Workload>` registry.
///
/// Implementations are zero-sized marker structs (one per kernel module,
/// e.g. [`crate::radix::Radix`]); the per-class parameters live in the
/// kernel's `Config::class` constructor and the algorithmic parallel region
/// in the kernel's `run`, which routes its scaffolding through [`driver`].
pub trait Workload: Sync {
    /// Canonical suite name (lowercase, `-`-separated: `water-nsquared`).
    fn name(&self) -> &'static str;

    /// Human description of the configured input at `class` (the
    /// `T1-inputs` table content).
    fn input_description(&self, class: InputClass) -> String;

    /// Run the workload at `class` under `env`.
    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult;
}

impl std::fmt::Debug for dyn Workload + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Workload").field(&self.name()).finish()
    }
}

/// The built-in suite, in canonical order. This is the **only** place the
/// suite count exists; every other layer iterates [`suite`]. New in-tree
/// workloads are one line here.
static BUILTIN: [&(dyn Workload + Send + Sync); 16] = [
    &crate::barnes::Barnes,
    &crate::cholesky::Cholesky,
    &crate::fft::Fft,
    &crate::fmm::Fmm,
    &crate::lu::Lu,
    &crate::lu::LuNoncont,
    &crate::ocean::Ocean,
    &crate::ocean::OceanNoncont,
    &crate::radiosity::Radiosity,
    &crate::radix::Radix,
    &crate::raytrace::Raytrace,
    &crate::volrend::Volrend,
    &crate::water_nsq::WaterNsquared,
    &crate::water_sp::WaterSpatial,
    &crate::cmap::CMap,
    &crate::stream::Stream,
];

fn registry() -> &'static RwLock<Vec<&'static (dyn Workload + Send + Sync)>> {
    static REGISTRY: OnceLock<RwLock<Vec<&'static (dyn Workload + Send + Sync)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(BUILTIN.to_vec()))
}

/// Snapshot of the registered workloads, in registration order (built-in
/// suite first, [`register`]ed extensions after). Registration order is
/// stable: a workload's index never changes within a process.
pub fn suite() -> Vec<&'static (dyn Workload + Send + Sync)> {
    registry().read().unwrap().clone()
}

/// Number of registered workloads.
pub fn len() -> usize {
    registry().read().unwrap().len()
}

/// The workload at registry index `idx`, if any.
pub fn get(idx: usize) -> Option<&'static (dyn Workload + Send + Sync)> {
    registry().read().unwrap().get(idx).copied()
}

/// Register an out-of-tree workload and return its registry index.
///
/// Names are matched leniently everywhere (see [`find`]), so a name that
/// collides with an existing workload modulo case and `-`/`_` is rejected.
pub fn register(w: &'static (dyn Workload + Send + Sync)) -> Result<usize, String> {
    let mut reg = registry().write().unwrap();
    let wanted = canon(w.name());
    if let Some(prior) = reg.iter().find(|p| canon(p.name()) == wanted) {
        return Err(format!(
            "workload name '{}' already registered (as '{}')",
            w.name(),
            prior.name()
        ));
    }
    reg.push(w);
    Ok(reg.len() - 1)
}

fn canon(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '_' => '-',
            c => c.to_ascii_lowercase(),
        })
        .collect()
}

/// Find a registered workload by its canonical name. Matching is lenient
/// the same way `SyncMode::from_label` is: case-insensitive, and `_` and
/// `-` are interchangeable (`water_nsquared` ≡ `WATER-NSQUARED`).
pub fn find(name: &str) -> Option<&'static (dyn Workload + Send + Sync)> {
    find_index(name).and_then(get)
}

/// Registry index of the workload named `name` (lenient matching).
pub fn find_index(name: &str) -> Option<usize> {
    let wanted = canon(name);
    registry()
        .read()
        .unwrap()
        .iter()
        .position(|w| canon(w.name()) == wanted)
}

/// Canonical names of every registered workload, in registry order. This
/// is what "unknown workload" errors print so users see the valid set.
pub fn known_names() -> Vec<&'static str> {
    registry()
        .read()
        .unwrap()
        .iter()
        .map(|w| w.name())
        .collect()
}

/// The shared kernel driver: everything the suite kernels used to
/// duplicate around their parallel regions.
///
/// A kernel `run` builds its inputs and shared state, hands the parallel
/// region to [`roi`](driver::roi) (team run + ROI wall-clock timing),
/// then hands its checksum, validation verdict and *uncalibrated*
/// [`WorkModel`] to [`finish`](driver::finish) (profile snapshot + model
/// calibration + result assembly).
/// The ROI timing convention — the clock spans the team's thread spawn and
/// join as well as the parallel region; input generation and validation are
/// excluded — and the calibration rule live here, once.
pub mod driver {
    use super::*;
    use splash4_parmacs::Team;
    use std::time::{Duration, Instant};

    /// Calibration head-room factor shared by every kernel model: measured
    /// per-item cycles may undershoot the analytic estimate by at most 2×.
    const CALIBRATION_SLACK: f64 = 2.0;

    /// Run `body` once per thread on a team of `env.nthreads()` threads
    /// and return the wall-clock time of the parallel region. The clock
    /// starts before [`Team::run`], which spawns the threads and joins them
    /// (`Team::new` spawns nothing), so with two or more threads the ROI
    /// includes thread spawn and join — unlike the original suite, which
    /// times from after its team is created. With one thread the body runs
    /// on the caller and nothing is spawned.
    pub fn roi(env: &SyncEnv, body: impl Fn(TeamCtx) + Sync) -> Duration {
        let team = Team::new(env.nthreads());
        let t0 = Instant::now();
        team.run(body);
        t0.elapsed()
    }

    /// Snapshot the environment's [`SyncProfile`](splash4_parmacs::SyncProfile)
    /// and assemble the [`KernelResult`], calibrating `work` to the measured
    /// ROI (`elapsed × nthreads` core-nanoseconds, with the suite-wide slack).
    pub fn finish(
        env: &SyncEnv,
        elapsed: Duration,
        checksum: f64,
        validated: bool,
        work: WorkModel,
    ) -> KernelResult {
        KernelResult {
            elapsed,
            checksum,
            validated,
            profile: env.profile(),
            work: work.calibrated(
                elapsed.as_nanos() as u64 * env.nthreads() as u64,
                CALIBRATION_SLACK,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique_and_canonical() {
        let mut seen = std::collections::HashSet::new();
        for w in suite() {
            assert!(seen.insert(w.name()), "duplicate workload {}", w.name());
            assert!(
                w.name()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{} is not canonical",
                w.name()
            );
        }
    }

    #[test]
    fn registry_indexes_are_stable() {
        for (i, w) in suite().iter().enumerate() {
            assert_eq!(find_index(w.name()), Some(i));
            assert!(std::ptr::eq(get(i).unwrap(), *w));
        }
        assert_eq!(len(), suite().len());
        assert!(len() >= BUILTIN.len());
        assert_eq!(known_names().len(), len());
    }

    #[test]
    fn find_is_lenient() {
        assert!(find("water_nsquared").is_some());
        assert!(find("WATER-NSQUARED").is_some());
        assert!(find("Lu_Noncont").is_some());
        assert!(find("CMap").is_some());
        assert!(find("doom").is_none());
    }

    #[test]
    fn register_rejects_duplicate_names() {
        struct Dup;
        impl Workload for Dup {
            fn name(&self) -> &'static str {
                "Water_Nsquared" // collides with water-nsquared modulo canon
            }
            fn input_description(&self, _class: InputClass) -> String {
                String::new()
            }
            fn run(&self, _class: InputClass, _env: &SyncEnv) -> KernelResult {
                unreachable!("never registered")
            }
        }
        static DUP: Dup = Dup;
        let err = register(&DUP).unwrap_err();
        assert!(err.contains("water-nsquared"), "unhelpful error: {err}");
    }
}
