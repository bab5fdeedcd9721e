//! Workload-model expansion: [`WorkModel`] × [`SyncPolicy`] × core count →
//! simulator [`Program`].
//!
//! This is where the Splash-3 / Splash-4 difference becomes timing: the same
//! phase structure lowers to *sleeping-lock* accesses and *condvar* barriers
//! under a lock-based policy, and to *atomic RMW* accesses and *sense*
//! barriers under a lock-free one. Compute is split into batches interleaved
//! with the phase's synchronization so contention and compute overlap the way
//! they do in the real kernels.

use crate::machine::MachineParams;
use crate::program::{BarrierKind, Op, OpCost, Program};
use splash4_parmacs::{ConstructClass, Dispatch, PhaseSpec, SyncMode, SyncPolicy, WorkModel};

/// Maximum interleaving batches per (phase, thread). More batches model finer
/// compute/sync overlap at the cost of simulation time.
const MAX_BATCHES: u64 = 16;

/// Server-id allocator: each phase gets its own dispatch/reduction/queue
/// resources; data-touch servers are shared per phase as well (they stand for
/// the phase's hottest line/lock).
struct ServerAlloc {
    next: u32,
}

impl ServerAlloc {
    fn fresh(&mut self) -> u32 {
        let id = self.next;
        self.next += 1;
        id
    }
}

/// Cost model for one construct class under `mode`. Public so trace-driven
/// replay (`splash4-trace`) prices recorded logical ops with the same model
/// the analytic expansion uses.
pub fn class_cost(mode: SyncMode, m: &MachineParams, p: usize) -> OpCost {
    match mode {
        SyncMode::LockBased => OpCost {
            // Uncontended, a futex lock pair is two atomic ops (acquire +
            // release); under parallel load the pair cost applies, and a
            // convoy_fraction of contended acquirers additionally pay the
            // futex sleep/wake round trip (which occupies the lock during the
            // handoff).
            service_ns: if p > 1 {
                m.lock_pair_ns
            } else {
                2 * m.rmw_local_ns
            },
            local_ns: 0,
            contended_ns: if p > 1 {
                (m.futex_wake_ns as f64 * m.convoy_fraction).round() as u64
            } else {
                0
            },
        },
        SyncMode::LockFree => OpCost {
            // An atomic RMW occupies the line for the transfer time.
            service_ns: if p > 1 {
                m.rmw_service_ns
            } else {
                m.rmw_local_ns
            },
            local_ns: 0,
            contended_ns: 0,
        },
        SyncMode::Combining => OpCost {
            // A combined op costs one record handoff plus the combiner's
            // apply against combiner-cached state — not p serialized line
            // transfers. The combiner streams through a batch of publication
            // records with overlapping fetches, so the per-op share of the
            // record-transfer traffic shrinks as batches grow with
            // contention (about half the waiters republish per drain pass).
            // At small p the batch degenerates and the extra record round
            // trip makes combining *lose* to a raw fetch_add — the crossover
            // the F9 experiment measures. With no contention (p == 1) the
            // publish/self-combine round trip is just local work.
            service_ns: if p > 1 {
                let batch = (p as u64 / 2).clamp(1, 16);
                m.rmw_local_ns + (2 * m.line_transfer_ns).div_ceil(batch)
            } else {
                m.rmw_local_ns
            },
            local_ns: 0,
            contended_ns: 0,
        },
    }
}

/// How `policy`'s barriers release. Public so trace-driven replay
/// (`splash4-trace`) releases recorded episodes as the analytic expansion
/// does. Combining barriers release through the same generation spin a sense
/// barrier uses; only the arrival phase differs, which [`class_cost`] prices.
pub fn barrier_kind(policy: SyncPolicy) -> BarrierKind {
    match policy.mode_for(ConstructClass::Barrier) {
        SyncMode::LockBased => BarrierKind::Condvar,
        SyncMode::LockFree | SyncMode::Combining => BarrierKind::Sense,
    }
}

/// Expand `model` for `p` cores on `machine` under `policy`.
pub fn expand(model: &WorkModel, policy: SyncPolicy, p: usize, machine: &MachineParams) -> Program {
    assert!(p > 0, "need at least one core");
    let mut alloc = ServerAlloc { next: 0 };
    let barrier_kind = barrier_kind(policy);
    let mut program = Program {
        name: model.name.clone(),
        cores: vec![Vec::new(); p],
        costs: Vec::new(),
        barriers: Vec::new(),
    };
    for phase in &model.phases {
        expand_phase(
            phase,
            policy,
            p,
            machine,
            &mut alloc,
            barrier_kind,
            &mut program,
        );
    }
    program
}

fn expand_phase(
    phase: &PhaseSpec,
    policy: SyncPolicy,
    p: usize,
    m: &MachineParams,
    alloc: &mut ServerAlloc,
    barrier_kind: BarrierKind,
    program: &mut Program,
) {
    // Per-phase shared resources.
    let dispatch_server = alloc.fresh();
    let data_server = alloc.fresh();
    let reduce_server = alloc.fresh();
    let queue_server = alloc.fresh();
    // Barrier ids for this phase (fresh per phase; reused across repeats —
    // barriers are cyclic).
    let phase_barriers: Vec<u32> = (0..phase.barriers_after)
        .map(|_| {
            program.barriers.push(barrier_kind);
            (program.barriers.len() - 1) as u32
        })
        .collect();

    // Cost ids, interned once per phase.
    let mut cost = |class| program.intern(class_cost(policy.mode_for(class), m, p));
    let counter_cost = cost(ConstructClass::Counter);
    let data_cost = cost(ConstructClass::DataLock);
    let reduce_cost = cost(ConstructClass::Reduction);
    let queue_cost = cost(ConstructClass::Queue);
    let flag_cost = cost(ConstructClass::Flag);

    for (tid, ops) in program.cores.iter_mut().enumerate() {
        // Items this thread handles per repeat.
        let base = phase.items / p as u64;
        let extra = u64::from((tid as u64) < phase.items % p as u64);
        let my_items = base + extra;
        let compute_ns = m.cycles_to_ns(my_items * phase.cycles_per_item);
        // Dynamic-dispatch overhead: one grab per chunk.
        let grabs = match phase.dispatch {
            Dispatch::Static => 0,
            Dispatch::GetSub { chunk } => {
                my_items.div_ceil(chunk.max(1)).max(u64::from(my_items > 0))
            }
            Dispatch::Pool => my_items,
        };
        let data_touches = (my_items as f64 * phase.data_touches_per_item).round() as u64;
        let reduces = (my_items as f64 * phase.reduces_per_item).round() as u64;
        let pushes = (my_items as f64 * phase.pushes_per_item).round() as u64;
        let flags = (my_items as f64 * phase.flags_per_item).round() as u64;

        let batches = MAX_BATCHES.min(my_items.max(1));
        for _rep in 0..phase.repeats {
            for b in 0..batches {
                let share = |total: u64| -> u64 {
                    // Distribute `total` across batches, remainder first.
                    total / batches + u64::from(b < total % batches)
                };
                let c = share(compute_ns);
                if c > 0 {
                    ops.push(Op::Compute { ns: c });
                }
                let g = share(grabs);
                if g > 0 {
                    // Pool dispatch is a queue-class pop; GETSUB is
                    // counter-class. The ablation experiment depends on this
                    // distinction.
                    let (g_server, g_cost) = match phase.dispatch {
                        Dispatch::Pool => (queue_server, queue_cost),
                        _ => (dispatch_server, counter_cost),
                    };
                    ops.push(Op::Access {
                        server: g_server,
                        cost: g_cost,
                        n: g,
                    });
                }
                let d = share(data_touches);
                if d > 0 {
                    // Scattered fine-grained touches: mostly uncontended
                    // (local latency), with a collision fraction serialized
                    // on the phase's hottest line.
                    let shared = ((d as f64) * m.data_collision).ceil() as u64;
                    let local = d - shared.min(d);
                    if local > 0 {
                        // Uncontended fast paths: a lock pair is two atomic
                        // ops, a lock-free update is one — the *contended*
                        // difference is carried by the shared fraction below.
                        ops.push(Op::Compute {
                            ns: local
                                * match policy.mode_for(ConstructClass::DataLock) {
                                    SyncMode::LockBased => 2 * m.rmw_local_ns,
                                    // Combining leaves scattered data updates
                                    // as direct atomics (nothing to batch on
                                    // uncontended lines).
                                    SyncMode::LockFree | SyncMode::Combining => m.rmw_local_ns,
                                },
                        });
                    }
                    if shared > 0 {
                        ops.push(Op::Access {
                            server: data_server,
                            cost: data_cost,
                            n: shared,
                        });
                    }
                }
                let r = share(reduces);
                if r > 0 {
                    ops.push(Op::Access {
                        server: reduce_server,
                        cost: reduce_cost,
                        n: r,
                    });
                }
                let q = share(pushes);
                if q > 0 {
                    ops.push(Op::Access {
                        server: queue_server,
                        cost: queue_cost,
                        n: q,
                    });
                }
                let f = share(flags);
                if f > 0 {
                    ops.push(Op::Access {
                        server: data_server,
                        cost: flag_cost,
                        n: f,
                    });
                }
            }
            for &id in &phase_barriers {
                ops.push(Op::Barrier { id });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use splash4_parmacs::PhaseSpec;

    fn model() -> WorkModel {
        WorkModel::new("demo")
            .phase(
                PhaseSpec::compute("work", 64_000, 200)
                    .dispatch(Dispatch::GetSub { chunk: 16 })
                    .reduces(0.001)
                    .barriers(1)
                    .repeats(10),
            )
            .phase(PhaseSpec::compute("tail", 1_000, 100).data_touches(2.0))
    }

    #[test]
    fn programs_validate_for_all_policies_and_cores() {
        let m = MachineParams::icelake_like();
        for mode in SyncMode::ALL {
            for p in [1, 2, 16, 64] {
                let prog = expand(&model(), SyncPolicy::uniform(mode), p, &m);
                assert!(prog.validate().is_ok());
                assert_eq!(prog.ncores(), p);
            }
        }
    }

    #[test]
    fn lock_free_beats_lock_based_at_scale() {
        let m = MachineParams::epyc_like();
        let lb = expand(&model(), SyncPolicy::uniform(SyncMode::LockBased), 64, &m);
        let lf = expand(&model(), SyncPolicy::uniform(SyncMode::LockFree), 64, &m);
        let t_lb = engine::run(&lb, &m).total_ns;
        let t_lf = engine::run(&lf, &m).total_ns;
        assert!(
            t_lf < t_lb,
            "lock-free should win at 64 cores: {t_lf} vs {t_lb}"
        );
    }

    #[test]
    fn modes_are_close_at_one_core() {
        let m = MachineParams::epyc_like();
        let lb = expand(&model(), SyncPolicy::uniform(SyncMode::LockBased), 1, &m);
        let lf = expand(&model(), SyncPolicy::uniform(SyncMode::LockFree), 1, &m);
        let t_lb = engine::run(&lb, &m).total_ns as f64;
        let t_lf = engine::run(&lf, &m).total_ns as f64;
        let ratio = t_lf / t_lb;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "single-core runs should be near-identical, ratio {ratio}"
        );
    }

    #[test]
    fn compute_scales_down_with_cores() {
        // A pure-compute model must show near-linear simulated speedup.
        let m = MachineParams::icelake_like();
        let pure = WorkModel::new("pure").phase(PhaseSpec::compute("c", 64_000, 1000).barriers(0));
        let t1 = engine::run(&expand(&pure, SyncPolicy::default(), 1, &m), &m).total_ns as f64;
        let t16 = engine::run(&expand(&pure, SyncPolicy::default(), 16, &m), &m).total_ns as f64;
        let speedup = t1 / t16;
        assert!(speedup > 14.0, "speedup {speedup}");
    }

    #[test]
    fn items_partition_exactly() {
        // 7 items on 4 cores: 2,2,2,1 compute shares — ensured via validate +
        // total compute conservation.
        let m = MachineParams::icelake_like();
        let w = WorkModel::new("w").phase(PhaseSpec::compute("c", 7, 100).barriers(0));
        let prog = expand(&w, SyncPolicy::default(), 4, &m);
        let total: u64 = prog
            .cores
            .iter()
            .flatten()
            .map(|op| match op {
                Op::Compute { ns } => *ns,
                _ => 0,
            })
            .sum();
        assert_eq!(total, m.cycles_to_ns(700));
    }

    #[test]
    fn ablation_policy_changes_only_its_class() {
        let m = MachineParams::epyc_like();
        let base = SyncPolicy::uniform(SyncMode::LockBased);
        let only_barriers = base.with(ConstructClass::Barrier, SyncMode::LockFree);
        let t_base = engine::run(&expand(&model(), base, 32, &m), &m).total_ns;
        let t_ab = engine::run(&expand(&model(), only_barriers, 32, &m), &m).total_ns;
        let t_full = engine::run(
            &expand(&model(), SyncPolicy::uniform(SyncMode::LockFree), 32, &m),
            &m,
        )
        .total_ns;
        assert!(
            t_ab as f64 <= t_base as f64 * 1.02,
            "modernizing barriers cannot hurt: {t_ab} vs {t_base}"
        );
        assert!(
            t_full as f64 <= t_ab as f64 * 1.02,
            "full modernization at least as good: {t_full} vs {t_ab}"
        );
    }
}
