//! The repeat-capped simulation `Simulator::simulate` must reproduce bit
//! for bit: every phase lowered at `repeats.min(MAX_SIM_REPEATS)` repeats,
//! run on a fresh engine, and scaled back up to `repeats`.
//!
//! Shared by `crates/sim/tests/prop_sim.rs` and the root package's
//! `tests/sim_end_to_end.rs`.

use splash4_parmacs::{PhaseSpec, SyncPolicy, WorkModel};
use splash4_sim::{engine, model, CoreBreakdown, MachineParams, SimResult, MAX_SIM_REPEATS};

/// `work` simulated with every capped repeat written out.
pub fn simulate_written_out(
    work: &WorkModel,
    policy: SyncPolicy,
    cores: usize,
    machine: &MachineParams,
) -> SimResult {
    let mut total = SimResult {
        name: work.name.clone(),
        machine: machine.name.to_string(),
        ncores: cores,
        total_ns: 0,
        cores: vec![CoreBreakdown::default(); cores],
    };
    for phase in &work.phases {
        let sim_repeats = phase.repeats.min(MAX_SIM_REPEATS);
        if sim_repeats == 0 {
            continue;
        }
        let capped = WorkModel {
            name: work.name.clone(),
            phases: vec![PhaseSpec {
                repeats: sim_repeats,
                ..phase.clone()
            }],
        };
        let res = engine::run(&model::expand(&capped, policy, cores, machine), machine);
        let scale = phase.repeats as f64 / sim_repeats as f64;
        let up = |x: u64| (x as f64 * scale).round() as u64;
        total.total_ns += up(res.total_ns);
        for (acc, c) in total.cores.iter_mut().zip(&res.cores) {
            acc.compute_ns += up(c.compute_ns);
            acc.service_ns += up(c.service_ns);
            acc.wait_ns += up(c.wait_ns);
            acc.sync_local_ns += up(c.sync_local_ns);
            acc.barrier_ns += up(c.barrier_ns);
            acc.end_ns += up(c.end_ns);
        }
    }
    total
}
