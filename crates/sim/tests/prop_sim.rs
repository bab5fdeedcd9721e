//! Property-based tests for the timing simulator.
//!
//! As with the primitive properties, the module `std_fallback` drives each
//! invariant from the seeded in-repo RNG, so they run in tier-1 with no
//! external dependency.

mod reference;

use splash4_parmacs::{ConstructClass, Dispatch, PhaseSpec, SyncMode, SyncPolicy, WorkModel};
use splash4_sim::{engine, model, simulate, BarrierKind, MachineParams, Op, Program, Simulator};

const MACHINES: [fn() -> MachineParams; 2] =
    [MachineParams::epyc_like, MachineParams::icelake_like];

#[allow(clippy::too_many_arguments)]
fn build_model(
    items: u64,
    cpi: u64,
    barriers: u64,
    repeats: u64,
    dispatch: Dispatch,
    touches: f64,
    reduces: f64,
) -> WorkModel {
    WorkModel::new("prop").phase(
        PhaseSpec::compute("p", items, cpi)
            .dispatch(dispatch)
            .data_touches(touches)
            .reduces(reduces)
            .barriers(barriers)
            .repeats(repeats),
    )
}

fn check_expansion_validates(work: &WorkModel, cores: usize, mode: SyncMode, m: &MachineParams) {
    let prog = model::expand(work, SyncPolicy::uniform(mode), cores, m);
    assert!(prog.validate().is_ok());
    assert_eq!(prog.ncores(), cores);
}

fn check_sim_positive_deterministic(work: &WorkModel, cores: usize, m: &MachineParams) {
    let a = simulate(work, SyncMode::LockFree, cores, m);
    let b = simulate(work, SyncMode::LockFree, cores, m);
    assert!(a.total_ns > 0);
    assert_eq!(a, b);
}

fn check_lock_free_never_loses_badly(work: &WorkModel, cores: usize, m: &MachineParams) {
    // Across arbitrary models, Splash-4 style sync may tie but must not be
    // significantly slower than Splash-3 style.
    let lb = simulate(work, SyncMode::LockBased, cores, m).total_ns as f64;
    let lf = simulate(work, SyncMode::LockFree, cores, m).total_ns as f64;
    assert!(lf <= lb * 1.10, "lock-free lost: {lf} vs {lb}");
}

fn check_more_compute_never_faster(items: u64, cpi: u64, cores: usize, m: &MachineParams) {
    let small = WorkModel::new("w").phase(PhaseSpec::compute("p", items, cpi));
    let big = WorkModel::new("w").phase(PhaseSpec::compute("p", items, cpi * 2));
    let ts = simulate(&small, SyncMode::LockFree, cores, m).total_ns;
    let tb = simulate(&big, SyncMode::LockFree, cores, m).total_ns;
    assert!(tb >= ts);
}

fn check_cores_never_hurt_pure_compute(items: u64, cpi: u64, m: &MachineParams) {
    let w = WorkModel::new("w").phase(PhaseSpec::compute("p", items, cpi).barriers(0));
    let mut prev = u64::MAX;
    for cores in [1usize, 2, 4, 8, 16] {
        let t = simulate(&w, SyncMode::LockFree, cores, m).total_ns;
        assert!(t <= prev, "pure compute slowed down at {cores} cores");
        prev = t;
    }
}

/// Every policy the simulator is asked about: the three generations and
/// the two ablations that mix barrier and non-barrier classes.
fn policies() -> [SyncPolicy; 5] {
    let [lb, lf, comb] = SyncMode::ALL.map(SyncPolicy::uniform);
    [
        lb,
        lf,
        comb,
        lb.with(ConstructClass::Barrier, SyncMode::LockFree),
        lf.with(ConstructClass::Barrier, SyncMode::LockBased),
    ]
}

fn check_simulate_equals_written_out(work: &WorkModel, machine: &MachineParams) {
    let mut sim = Simulator::new(*machine);
    for cores in [1, 2, 3, 16, 17, 64] {
        for policy in policies() {
            assert_eq!(
                sim.simulate(work, policy, cores),
                reference::simulate_written_out(work, policy, cores, machine),
                "{work:?} at {cores} cores under {policy:?} on {}",
                machine.name
            );
        }
    }
}

mod std_fallback {
    use super::*;
    use splash4_parmacs::SmallRng;

    const CASES: usize = 24;

    fn arb_model(rng: &mut SmallRng) -> WorkModel {
        let dispatch = match rng.gen_range(0u32..3) {
            0 => Dispatch::Static,
            1 => Dispatch::GetSub { chunk: 8 },
            _ => Dispatch::Pool,
        };
        build_model(
            rng.gen_range(1u64..50_000),
            rng.gen_range(1u64..500),
            rng.gen_range(0u64..3),
            rng.gen_range(1u64..8),
            dispatch,
            rng.gen_range(0.0f64..3.0),
            rng.gen_range(0.0f64..0.05),
        )
    }

    fn arb_machine(rng: &mut SmallRng) -> MachineParams {
        MACHINES[rng.gen_range(0usize..MACHINES.len())]()
    }

    /// A phase with any dispatch, every kind of sync op, 0–200 repeats and
    /// 0–3 barriers; a third of them have fewer items than most core counts.
    fn arb_phase(rng: &mut SmallRng) -> PhaseSpec {
        let dispatch = match rng.gen_range(0u32..3) {
            0 => Dispatch::Static,
            1 => Dispatch::GetSub {
                chunk: rng.gen_range(1u64..32),
            },
            _ => Dispatch::Pool,
        };
        let items = if rng.gen_range(0u32..3) == 0 {
            rng.gen_range(0u64..20)
        } else {
            rng.gen_range(20u64..800)
        };
        PhaseSpec::compute("p", items, rng.gen_range(1u64..400))
            .dispatch(dispatch)
            .data_touches(rng.gen_range(0.0f64..2.0))
            .reduces(rng.gen_range(0.0f64..0.05))
            .pushes(rng.gen_range(0.0f64..0.5))
            .flags(rng.gen_range(0.0f64..0.5))
            .barriers(rng.gen_range(0u64..4))
            .repeats(rng.gen_range(0u64..201))
    }

    #[test]
    fn simulate_equals_every_repeat_written_out() {
        let mut rng = SmallRng::seed_from_u64(0x51D0_0006);
        let machines = [
            MachineParams::epyc_like(),
            MachineParams::icelake_like(),
            MachineParams::manycore(64),
        ];
        for case in 0..9 {
            let mut work = WorkModel::new("prop");
            for _ in 0..rng.gen_range(1usize..4) {
                work = work.phase(arb_phase(&mut rng));
            }
            check_simulate_equals_written_out(&work, &machines[case % machines.len()]);
        }
    }

    #[test]
    fn expansion_always_validates() {
        let mut rng = SmallRng::seed_from_u64(0x51D0_0001);
        for _ in 0..CASES {
            let work = arb_model(&mut rng);
            let cores = rng.gen_range(1usize..64);
            let mode = SyncMode::ALL[rng.gen_range(0usize..SyncMode::ALL.len())];
            check_expansion_validates(&work, cores, mode, &arb_machine(&mut rng));
        }
    }

    #[test]
    fn simulated_time_is_positive_and_deterministic() {
        let mut rng = SmallRng::seed_from_u64(0x51D0_0002);
        for _ in 0..CASES {
            let work = arb_model(&mut rng);
            let cores = rng.gen_range(1usize..48);
            check_sim_positive_deterministic(&work, cores, &arb_machine(&mut rng));
        }
    }

    #[test]
    fn lock_free_never_loses_badly() {
        let mut rng = SmallRng::seed_from_u64(0x51D0_0003);
        for _ in 0..CASES {
            let work = arb_model(&mut rng);
            let cores = rng.gen_range(2usize..64);
            check_lock_free_never_loses_badly(&work, cores, &arb_machine(&mut rng));
        }
    }

    #[test]
    fn more_compute_is_never_faster() {
        let mut rng = SmallRng::seed_from_u64(0x51D0_0004);
        for _ in 0..CASES {
            check_more_compute_never_faster(
                rng.gen_range(1u64..20_000),
                rng.gen_range(1u64..300),
                rng.gen_range(1usize..32),
                &arb_machine(&mut rng),
            );
        }
    }

    #[test]
    fn adding_cores_never_hurts_pure_compute() {
        let mut rng = SmallRng::seed_from_u64(0x51D0_0005);
        for _ in 0..CASES {
            check_cores_never_hurt_pure_compute(
                rng.gen_range(256u64..20_000),
                rng.gen_range(50u64..500),
                &arb_machine(&mut rng),
            );
        }
    }
}

#[test]
fn engine_rejects_malformed_programs() {
    let machine = MachineParams::epyc_like();
    let missing_barrier = Program {
        name: "bad".into(),
        cores: vec![vec![Op::Barrier { id: 0 }], vec![]],
        costs: vec![],
        barriers: vec![BarrierKind::Sense],
    };
    let undefined_cost = Program {
        name: "bad".into(),
        cores: vec![vec![Op::Access {
            server: 0,
            cost: 0,
            n: 1,
        }]],
        costs: vec![],
        barriers: vec![],
    };
    for bad in [missing_barrier, undefined_cost] {
        assert!(bad.validate().is_err());
        assert!(std::panic::catch_unwind(|| engine::run(&bad, &machine)).is_err());
    }
}
