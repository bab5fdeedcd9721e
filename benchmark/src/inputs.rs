//! Seed → generated inputs.
//!
//! A workload is nothing but a [`Plan`]: five input sections, one per part of
//! the system, each sized either for real (the section the workload is about)
//! or as a probe (just enough for that section's per-layer rows in the traced
//! run). The code that runs a plan never sees the workload's name.

use splash4_harness::{Request, RequestKind};
use splash4_kernels::{
    barnes, cholesky, cmap, fft, fmm, lu, ocean, radiosity, radix, raytrace, stream, volrend,
    water_nsq, water_sp, InputClass, KernelResult,
};
use splash4_parmacs::{SmallRng, SyncEnv};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 7] = [
    "native-compute",
    "native-sync",
    "reclaim-churn",
    "sim-sweep",
    "serve-cold",
    "serve-hot",
    "check-verdict",
];

/// Seed used when `--seed` is absent; `HOLDOUT_SEED` is never used while a
/// change is being written, only to confirm it.
pub const DEFAULT_SEED: u64 = 4;
pub const HOLDOUT_SEED: u64 = 11;

/// Independent sub-seed `lane` of `seed` (splitmix64 finaliser).
pub fn derive(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A registered kernel and how to run it on a seeded input. The registry's
/// own `Workload::run` takes no seed, so the table goes through each kernel's
/// public `Config`; kernels whose scene is fixed ignore the seed.
pub struct Kernel {
    pub name: &'static str,
    pub run: fn(InputClass, u64, &SyncEnv) -> KernelResult,
}

macro_rules! seeded {
    ($cfg:expr, $seed:ident) => {{
        let mut cfg = $cfg;
        cfg.seed = $seed;
        cfg
    }};
}

/// Every registered workload, in registry order (a unit test pins this to
/// `splash4_kernels::workload::known_names()`).
pub static KERNELS: [Kernel; 16] = [
    Kernel {
        name: "barnes",
        run: |c, s, e| barnes::run(&seeded!(barnes::BarnesConfig::class(c), s), e),
    },
    Kernel {
        name: "cholesky",
        run: |c, s, e| cholesky::run(&seeded!(cholesky::CholeskyConfig::class(c), s), e),
    },
    Kernel {
        name: "fft",
        run: |c, s, e| fft::run(&seeded!(fft::FftConfig::class(c), s), e),
    },
    Kernel {
        name: "fmm",
        run: |c, s, e| fmm::run(&seeded!(fmm::FmmConfig::class(c), s), e),
    },
    Kernel {
        name: "lu",
        run: |c, s, e| lu::run(&seeded!(lu::LuConfig::class(c), s), e),
    },
    Kernel {
        name: "lu-noncont",
        run: |c, s, e| lu::run(&seeded!(lu::LuConfig::class_noncont(c), s), e),
    },
    Kernel {
        name: "ocean",
        run: |c, _, e| ocean::run(&ocean::OceanConfig::class(c), e),
    },
    Kernel {
        name: "ocean-noncont",
        run: |c, _, e| ocean::run(&ocean::OceanConfig::class_noncont(c), e),
    },
    Kernel {
        name: "radiosity",
        run: |c, _, e| radiosity::run(&radiosity::RadiosityConfig::class(c), e),
    },
    Kernel {
        name: "radix",
        run: |c, s, e| radix::run(&seeded!(radix::RadixConfig::class(c), s), e),
    },
    Kernel {
        name: "raytrace",
        run: |c, _, e| raytrace::run(&raytrace::RaytraceConfig::class(c), e),
    },
    Kernel {
        name: "volrend",
        run: |c, _, e| volrend::run(&volrend::VolrendConfig::class(c), e),
    },
    Kernel {
        name: "water-nsquared",
        run: |c, s, e| water_nsq::run(&seeded!(water_nsq::WaterNsqConfig::class(c), s), e),
    },
    Kernel {
        name: "water-spatial",
        run: |c, s, e| water_sp::run(&seeded!(water_sp::WaterSpConfig::class(c), s), e),
    },
    Kernel {
        name: "cmap",
        run: |c, s, e| cmap::run(&seeded!(cmap::CMapConfig::class(c), s), e),
    },
    Kernel {
        name: "stream",
        run: |c, s, e| stream::run(&seeded!(stream::StreamConfig::class(c), s), e),
    },
];

/// One kernel input: every pass runs it once per sync mode.
#[derive(Clone)]
pub struct Cell {
    pub kernel: &'static Kernel,
    pub class: InputClass,
    pub seed: u64,
}

#[derive(Clone)]
pub struct NativePlan {
    /// The cells the workload is about (empty for a probe).
    pub main: Vec<Cell>,
    /// `Test`-class cells for every registered name `main` leaves out; run by
    /// the traced run only, so `kernels.roi_ms.*` has a row per name.
    pub probe: Vec<Cell>,
}

#[derive(Clone)]
pub struct CmapShape {
    pub label: &'static str,
    pub cfg: cmap::CMapConfig,
}

#[derive(Clone)]
pub struct ChurnPlan {
    pub shapes: Vec<CmapShape>,
    /// Push+pop pairs per thread on each task pool.
    pub pool_pairs: usize,
}

#[derive(Clone)]
pub struct SimPlan {
    pub seed: u64,
    /// Simulated core counts of the model sweep and the trace replays.
    pub cores: Vec<usize>,
    /// Kernels whose recorded traces are lowered and replayed.
    pub traced: Vec<&'static str>,
    /// Core counts of the synthetic programs (each × 3 barrier kinds).
    pub synthetic_cores: Vec<usize>,
    pub synthetic_ops_per_core: usize,
}

#[derive(Clone)]
pub struct ServePlan {
    pub seed: u64,
    /// Requests computed during set-up and then drawn from at random.
    pub hot_set: Vec<Request>,
    /// Never-seen `sim` requests per pass (each one misses the cache).
    pub cold_per_pass: usize,
    /// Draws from `hot_set` per pass (each one hits the cache).
    pub hot_per_pass: usize,
}

#[derive(Clone, Copy)]
pub struct FamilyBudget {
    /// Execution cap per shipped construct.
    pub shipped: usize,
    /// Execution cap per seeded mutant; 0 leaves the mutant suite out.
    pub mutants: usize,
    /// Run the mutant suite once after timing instead of in every pass.
    pub mutants_once: bool,
}

#[derive(Clone)]
pub struct CheckPlan {
    pub seed: u64,
    /// suite, kernels, reclaim, combining, weakmem — in that order.
    pub families: [FamilyBudget; 5],
}

/// Which section a workload is about: the untraced run times that section's
/// passes and nothing else.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    Native,
    Churn,
    Sim,
    Serve,
    Check,
}

#[derive(Clone)]
pub struct Plan {
    pub main: Section,
    pub native: NativePlan,
    pub churn: ChurnPlan,
    pub sim: SimPlan,
    pub serve: ServePlan,
    pub check: CheckPlan,
}

pub const SERVE_OPS_PER_CORE: usize = 400;
const BARRIER_KINDS: [&str; 3] = ["sense", "tree", "condvar"];

/// A never-repeating `sim` request: the seed is unique to (`seed`, `pass`,
/// `i`), so the cache cannot have seen it. Three in four simulate 256 cores
/// and one in four 1024, in runs of two so both connections get the same
/// mix: the median then lies among the small requests and the 95th
/// percentile among the large ones, not on the edge between the two.
pub fn cold_request(seed: u64, pass: u32, i: usize) -> Request {
    let cores = if (i / 2) % 4 == 3 { 1024 } else { 256 };
    sim_request(cores, i, derive(seed, (u64::from(pass) << 20) | i as u64))
}

/// A `sim` request of the service's scale-out family at `cores` cores.
pub fn sim_request(cores: usize, barrier: usize, seed: u64) -> Request {
    Request::new(RequestKind::Sim {
        cores,
        ops_per_core: SERVE_OPS_PER_CORE,
        barrier: BARRIER_KINDS[barrier % 3].to_string(),
        // 2^40 keeps the value exact through the wire's f64 numbers.
        seed: seed % (1 << 40),
        machine: None,
    })
}

const fn budget(shipped: usize, mutants: usize) -> FamilyBudget {
    FamilyBudget {
        shipped,
        mutants,
        mutants_once: false,
    }
}

fn cells(names: &[&str], class: InputClass, seed: u64) -> Vec<Cell> {
    names
        .iter()
        .map(|n| {
            let lane = KERNELS
                .iter()
                .position(|k| k.name == *n)
                .unwrap_or_else(|| panic!("no kernel named {n}"));
            Cell {
                kernel: &KERNELS[lane],
                class,
                seed: derive(seed, 0x100 + lane as u64),
            }
        })
        .collect()
}

fn cmap_shape(
    label: &'static str,
    universe: u64,
    buckets: usize,
    ops: usize,
    seed: u64,
) -> CmapShape {
    CmapShape {
        label,
        cfg: cmap::CMapConfig {
            universe,
            buckets,
            ops,
            seed,
        },
    }
}

fn hot_set(seed: u64, sims: usize, benches: usize, experiments: usize) -> Vec<Request> {
    let mut set: Vec<Request> = (0..sims)
        .map(|i| cold_request(derive(seed, 0x300), 0, i))
        .collect();
    for (name, mode) in [
        ("fft", "splash4"),
        ("radix", "splash3"),
        ("lu", "splash4x"),
        ("water-nsquared", "splash4"),
    ]
    .into_iter()
    .take(benches)
    {
        set.push(Request::new(RequestKind::Bench {
            benchmark: name.to_string(),
            mode: mode.to_string(),
            threads: 2,
        }));
    }
    // Experiments whose JSON repeats exactly against a warm model cache.
    for id in [
        "T1-inputs",
        "F2-sim-epyc",
        "F3-sim-icelake",
        "F5-sync-breakdown",
    ]
    .into_iter()
    .take(experiments)
    {
        set.push(Request::new(RequestKind::Experiment { id: id.to_string() }));
    }
    set
}

/// The plan behind a workload name, or `None` for an unknown name.
pub fn plan(workload: &str, seed: u64) -> Option<Plan> {
    let all: Vec<&str> = KERNELS.iter().map(|k| k.name).collect();
    // Probe-sized sections: enough for each section's per-layer rows.
    let mut plan = Plan {
        main: Section::Native,
        native: NativePlan {
            main: Vec::new(),
            probe: cells(&all, InputClass::Test, seed),
        },
        churn: ChurnPlan {
            shapes: vec![
                cmap_shape("short", 512, 64, 20_000, derive(seed, 0x200)),
                cmap_shape("long", 2_048, 16, 10_000, derive(seed, 0x201)),
            ],
            pool_pairs: 10_000,
        },
        sim: SimPlan {
            seed: derive(seed, 0x400),
            cores: vec![1, 8, 64],
            traced: vec!["radix"],
            synthetic_cores: vec![64, 1024],
            synthetic_ops_per_core: 100,
        },
        serve: ServePlan {
            seed: derive(seed, 0x500),
            hot_set: hot_set(seed, 2, 1, 1),
            cold_per_pass: 6,
            hot_per_pass: 60,
        },
        check: CheckPlan {
            seed: derive(seed, 0x600),
            families: [
                budget(12, 300),
                budget(8, 0),
                budget(8, 0),
                budget(4, 0),
                budget(12, 0),
            ],
        },
    };
    let without = |main: &[Cell]| -> Vec<&str> {
        all.iter()
            .copied()
            .filter(|n| main.iter().all(|c| c.kernel.name != *n))
            .collect()
    };
    match workload {
        // `Small`, not `Native`: a `Native` pass takes 2 s, five per run, too
        // few for a steady median on a shared 2-core host.
        "native-compute" => {
            plan.main = Section::Native;
            plan.native.main = cells(
                &["fft", "lu", "lu-noncont", "fmm", "cholesky", "volrend"],
                InputClass::Small,
                seed,
            );
            plan.native.probe = cells(&without(&plan.native.main), InputClass::Test, seed);
        }
        "native-sync" => {
            plan.main = Section::Native;
            // `Test`: spin-waiting teams on shared vCPUs run in two regimes
            // (ocean's lock-free ROI at `Small` is 100 ms or 700 ms), and only
            // a pass short enough to repeat twenty times a run has a median
            // that sits in one of them.
            plan.native.main = cells(
                &[
                    "barnes",
                    "ocean",
                    "ocean-noncont",
                    "radiosity",
                    "radix",
                    "raytrace",
                    "water-nsquared",
                    "water-spatial",
                    "stream",
                ],
                InputClass::Test,
                seed,
            );
            plan.native.probe = cells(&without(&plan.native.main), InputClass::Test, seed);
        }
        "reclaim-churn" => {
            plan.main = Section::Churn;
            plan.churn = ChurnPlan {
                shapes: vec![
                    cmap_shape("short", 4_096, 256, 100_000, derive(seed, 0x200)),
                    cmap_shape("long", 16_384, 64, 25_000, derive(seed, 0x201)),
                ],
                pool_pairs: 40_000,
            };
        }
        "sim-sweep" => {
            plan.main = Section::Sim;
            plan.sim = SimPlan {
                seed: derive(seed, 0x400),
                cores: vec![1, 2, 4, 8, 16, 32, 64],
                traced: vec!["radix", "fft", "lu", "water-nsquared"],
                synthetic_cores: vec![256, 512, 1024],
                synthetic_ops_per_core: SERVE_OPS_PER_CORE,
            };
        }
        "serve-cold" => {
            plan.main = Section::Serve;
            plan.serve.hot_set = Vec::new();
            plan.serve.cold_per_pass = 40;
            plan.serve.hot_per_pass = 0;
        }
        "serve-hot" => {
            plan.main = Section::Serve;
            plan.serve.hot_set = hot_set(seed, 8, 4, 4);
            plan.serve.cold_per_pass = 0;
            plan.serve.hot_per_pass = 1_000;
        }
        "check-verdict" => {
            plan.main = Section::Check;
            plan.check.families = [
                budget(48, 300),
                budget(48, 400),
                budget(48, 400),
                // Finding and minimising the four combining counterexamples
                // takes 1.7 s whatever the cap: in every pass it would halve
                // the passes a run gets, so the oracle runs it once instead.
                FamilyBudget {
                    mutants_once: true,
                    ..budget(12, 150)
                },
                budget(48, 120),
            ];
        }
        _ => return None,
    }
    Some(plan)
}

/// Seeded draw order over a hot set of `n` requests.
pub fn hot_draws(seed: u64, pass: u32, n: usize, draws: usize) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(derive(seed, 0x700 + u64::from(pass)));
    (0..draws).map(|_| rng.gen_range(0..n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_table_matches_the_registry() {
        let table: Vec<&str> = KERNELS.iter().map(|k| k.name).collect();
        assert_eq!(table, splash4_kernels::workload::known_names());
    }

    fn fingerprint(p: &Plan) -> String {
        let cells: Vec<String> = p
            .native
            .main
            .iter()
            .chain(&p.native.probe)
            .map(|c| format!("{}:{}:{}", c.kernel.name, c.class, c.seed))
            .collect();
        let shapes: Vec<String> = p
            .churn
            .shapes
            .iter()
            .map(|s| format!("{:?}", s.cfg))
            .collect();
        let hot: Vec<String> = p.serve.hot_set.iter().map(Request::canonical).collect();
        format!(
            "{cells:?}|{shapes:?}|{}|{hot:?}|{}|{}|{:?}",
            p.sim.seed,
            cold_request(p.serve.seed, 3, 5).canonical(),
            p.check.seed,
            hot_draws(p.serve.seed, 2, 16, 8),
        )
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in WORKLOADS {
            let a = fingerprint(&plan(w, 4).unwrap());
            assert_eq!(a, fingerprint(&plan(w, 4).unwrap()), "{w}");
            assert_ne!(a, fingerprint(&plan(w, 11).unwrap()), "{w}");
        }
        assert!(plan("doom", 4).is_none());
    }

    #[test]
    fn cold_requests_never_repeat_and_survive_the_wire() {
        let mut seen = std::collections::HashSet::new();
        for pass in 0..50 {
            for i in 0..40 {
                let r = cold_request(9, pass, i);
                assert!(seen.insert(r.canonical()), "repeat at pass {pass} i {i}");
                assert_eq!(Request::from_json(&r.to_json()).unwrap(), r);
            }
        }
    }

    #[test]
    fn every_name_has_exactly_one_cell() {
        for w in WORKLOADS {
            let p = plan(w, 4).unwrap();
            let mut names: Vec<&str> = p
                .native
                .main
                .iter()
                .chain(&p.native.probe)
                .map(|c| c.kernel.name)
                .collect();
            names.sort_unstable();
            let mut all: Vec<&str> = KERNELS.iter().map(|k| k.name).collect();
            all.sort_unstable();
            assert_eq!(names, all, "{w}");
        }
    }
}
