//! Trace → simulator-program lowering with thread-count extrapolation.
//!
//! A recorded [`Trace`] is a per-thread stream of *logical* sync events
//! separated by barrier arrivals. Lowering segments every stream at the
//! barrier episodes all threads share, pools each segment's work — compute
//! time (from timestamp gaps), `GETSUB` items, per-class RMW counts, queue
//! ops — and re-deals the pooled totals evenly across any number of
//! simulated cores. That mirrors what the suite's dynamically-scheduled
//! kernels do at run time (work items go to whichever thread grabs them), so
//! a 4-thread native recording can drive 1–64-core simulated sweeps.
//!
//! Logical ops are priced with the same [`class_cost`] model the analytic
//! expansion (`splash4_sim::model::expand`) uses, under whatever
//! [`SyncPolicy`] the replay requests — a trace captured under one back-end
//! replays under either.

use crate::Trace;
use splash4_parmacs::{ConstructClass, SyncPolicy, TraceEvent};
use splash4_sim::model::{barrier_kind, class_cost};
use splash4_sim::{MachineParams, Op, Program};

/// Batches each (segment, core) op stream is interleaved into, so contention
/// and compute overlap as in the analytic expansion.
const BATCHES: u64 = 8;

/// Work pooled from one barrier-to-barrier segment across all native threads.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SegmentTotals {
    /// Wall time between barrier release and next arrival, summed over
    /// threads: the segment's total work budget.
    pub wall_ns: u64,
    /// The slowest thread's share of `wall_ns`. Summed over the segments it
    /// is the trace's critical path.
    pub max_wall_ns: u64,
    pub getsub_items: u64,
    pub getsub_grabs: u64,
    /// Logical RMW counts, indexed by [`ConstructClass`] discriminant.
    pub rmws: [u64; ConstructClass::ALL.len()],
    pub queue_ops: u64,
}

impl SegmentTotals {
    /// Credit one thread's `wall_ns` in this segment.
    fn add_wall(&mut self, wall_ns: u64) {
        self.wall_ns += wall_ns;
        self.max_wall_ns = self.max_wall_ns.max(wall_ns);
    }
}

/// Segment the trace at its shared barrier episodes and pool per-segment
/// totals across threads. Always returns `episodes + 1` segments. This is the
/// crate's one walk over a trace's barrier segments: the summary reads its
/// totals and critical path from it too.
pub(crate) fn pool_segments(trace: &Trace) -> Vec<SegmentTotals> {
    let episodes = trace.barrier_episodes();
    let mut segments = vec![SegmentTotals::default(); episodes + 1];
    for evs in trace.threads() {
        let mut seg = 0usize;
        // Wall time accrues from the segment's first visible instant.
        let mut seg_start = evs.first().map_or(0, |s| s.ts_ns);
        let mut last_ts = seg_start;
        for s in evs {
            last_ts = s.ts_ns;
            let t = &mut segments[seg];
            match s.event {
                TraceEvent::BarrierEnter if seg < episodes => {
                    t.add_wall(s.ts_ns.saturating_sub(seg_start));
                    seg += 1;
                }
                TraceEvent::BarrierExit => {
                    // The new segment's work starts at barrier release.
                    seg_start = s.ts_ns;
                }
                TraceEvent::BarrierEnter => {} // beyond shared episodes
                TraceEvent::Getsub { n } => {
                    t.getsub_grabs += 1;
                    t.getsub_items += u64::from(n);
                }
                TraceEvent::Rmw { class, n } => t.rmws[class as usize] += u64::from(n),
                TraceEvent::Queue => t.queue_ops += 1,
            }
        }
        // Tail segment: work after the last shared barrier.
        segments[episodes.min(seg)].add_wall(last_ts.saturating_sub(seg_start));
    }
    segments
}

/// Even split of `total` across `parts`, remainder to the lowest indices.
fn share(total: u64, part: u64, parts: u64) -> u64 {
    total / parts + u64::from(part < total % parts)
}

/// Lower `trace` to a [`Program`] for `target_cores` simulated cores under
/// `policy` on `machine`.
///
/// Deterministic: the same trace, policy, core count and machine always
/// produce the identical program (and therefore identical simulated cycles).
///
/// # Panics
/// Panics if `target_cores == 0`.
pub fn lower(
    trace: &Trace,
    policy: SyncPolicy,
    target_cores: usize,
    machine: &MachineParams,
) -> Program {
    assert!(target_cores > 0, "need at least one simulated core");
    let p = target_cores;
    let segments = pool_segments(trace);
    let episodes = segments.len() - 1;
    let mut program = Program {
        name: trace.name().to_owned(),
        cores: vec![Vec::new(); p],
        costs: Vec::new(),
        barriers: vec![barrier_kind(policy); episodes],
    };

    // Cost ids, interned once: every segment prices its ops alike, exactly
    // like the analytic expansion.
    let mut cost = |class| program.intern(class_cost(policy.mode_for(class), machine, p));
    let counter = cost(ConstructClass::Counter);
    let reduce = cost(ConstructClass::Reduction);
    let flag = cost(ConstructClass::Flag);
    let queue = cost(ConstructClass::Queue);
    let data = cost(ConstructClass::DataLock);

    let mut next_server = 0u32;
    for (seg_idx, seg) in segments.iter().enumerate() {
        // Fresh shared resources per segment, as expand does per phase.
        let dispatch_server = next_server;
        let reduce_server = next_server + 1;
        let queue_server = next_server + 2;
        let data_server = next_server + 3;
        next_server += 4;

        // Native grabs tell us the effective chunk size; re-dealt cores grab
        // at the same granularity.
        let chunk = seg
            .getsub_items
            .checked_div(seg.getsub_grabs)
            .map_or(1, |c| c.max(1));
        let rmws = |class: ConstructClass| seg.rmws[class as usize];
        let reduces = rmws(ConstructClass::Reduction);
        let flags = rmws(ConstructClass::Flag);
        let data_rmws = rmws(ConstructClass::DataLock)
            + rmws(ConstructClass::Counter)
            + rmws(ConstructClass::Barrier)
            + rmws(ConstructClass::Queue);

        for (tid, ops) in program.cores.iter_mut().enumerate() {
            let tid = tid as u64;
            let my_compute = share(seg.wall_ns, tid, p as u64);
            let my_items = share(seg.getsub_items, tid, p as u64);
            let my_grabs = if seg.getsub_grabs > 0 {
                my_items.div_ceil(chunk).max(u64::from(my_items > 0))
            } else {
                0
            };
            let my_reduces = share(reduces, tid, p as u64);
            let my_flags = share(flags, tid, p as u64);
            let my_data = share(data_rmws, tid, p as u64);
            let my_queue = share(seg.queue_ops, tid, p as u64);

            let busiest = my_grabs.max(my_reduces).max(my_data).max(my_queue).max(1);
            let batches = BATCHES.min(busiest);
            for b in 0..batches {
                let part = |total: u64| share(total, b, batches);
                let c = part(my_compute);
                if c > 0 {
                    ops.push(Op::Compute { ns: c });
                }
                for (n, server, cost) in [
                    (part(my_grabs), dispatch_server, counter),
                    (part(my_reduces), reduce_server, reduce),
                    (part(my_queue), queue_server, queue),
                    (part(my_data), data_server, data),
                    (part(my_flags), data_server, flag),
                ] {
                    if n > 0 {
                        ops.push(Op::Access { server, cost, n });
                    }
                }
            }
            if seg_idx < episodes {
                ops.push(Op::Barrier { id: seg_idx as u32 });
            }
        }
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stamped;
    use splash4_parmacs::SyncMode;
    use splash4_sim::engine;

    /// Two native threads, one barrier episode: 100 items grabbed in 10-item
    /// chunks before the barrier, reductions after.
    fn synthetic() -> Trace {
        let mut t0 = Vec::new();
        let mut t1 = Vec::new();
        let mut ts = 0;
        for i in 0..10u32 {
            let stream = if i % 2 == 0 { &mut t0 } else { &mut t1 };
            ts += 1_000;
            stream.push(Stamped {
                ts_ns: ts,
                event: TraceEvent::Getsub { n: 10 },
            });
        }
        ts += 1_000;
        for s in [&mut t0, &mut t1] {
            s.push(Stamped {
                ts_ns: ts,
                event: TraceEvent::BarrierEnter,
            });
            s.push(Stamped {
                ts_ns: ts + 100,
                event: TraceEvent::BarrierExit,
            });
        }
        for i in 0..6u32 {
            let stream = if i % 2 == 0 { &mut t0 } else { &mut t1 };
            stream.push(Stamped {
                ts_ns: ts + 200 + u64::from(i) * 50,
                event: TraceEvent::Rmw {
                    class: ConstructClass::Reduction,
                    n: 1,
                },
            });
        }
        Trace::from_parts("synthetic", vec![t0, t1], 0)
    }

    #[test]
    fn lowered_programs_validate_at_any_core_count() {
        let m = MachineParams::epyc_like();
        let t = synthetic();
        for mode in SyncMode::ALL {
            for p in [1, 2, 8, 64] {
                let prog = lower(&t, SyncPolicy::uniform(mode), p, &m);
                assert_eq!(prog.ncores(), p);
                assert!(prog.validate().is_ok(), "p={p} mode={mode:?}");
                assert_eq!(prog.barriers.len(), 1);
            }
        }
    }

    #[test]
    fn work_items_are_conserved_across_redeal() {
        let m = MachineParams::epyc_like();
        let t = synthetic();
        for p in [1u64, 3, 8, 64] {
            let prog = lower(&t, SyncPolicy::uniform(SyncMode::LockFree), p as usize, &m);
            // Dispatch-server accesses carry the re-dealt grabs: 100 items at
            // chunk 10 need at least 10 grabs; each core adds at most one
            // partial grab for its remainder.
            let grabs: u64 = prog
                .cores
                .iter()
                .flatten()
                .filter_map(|op| match op {
                    Op::Access { server: 0, n, .. } => Some(*n),
                    _ => None,
                })
                .sum();
            assert!((10..=10 + p).contains(&grabs), "p={p} grabs={grabs}");
        }
    }

    #[test]
    fn lowering_is_deterministic() {
        let m = MachineParams::icelake_like();
        let t = synthetic();
        let a = lower(&t, SyncPolicy::uniform(SyncMode::LockBased), 16, &m);
        let b = lower(&t, SyncPolicy::uniform(SyncMode::LockBased), 16, &m);
        assert_eq!(a, b);
        assert_eq!(engine::run(&a, &m).total_ns, engine::run(&b, &m).total_ns);
    }

    #[test]
    fn more_cores_never_slow_a_replay_down_much() {
        let m = MachineParams::epyc_like();
        let t = synthetic();
        let t1 = engine::run(&lower(&t, SyncPolicy::default(), 1, &m), &m).total_ns;
        let t8 = engine::run(&lower(&t, SyncPolicy::default(), 8, &m), &m).total_ns;
        assert!(t8 < t1, "re-dealt work must speed up: {t8} vs {t1}");
    }

    #[test]
    fn empty_trace_lowers_to_empty_program() {
        let m = MachineParams::epyc_like();
        let t = Trace::from_parts("empty", vec![Vec::new(), Vec::new()], 0);
        let prog = lower(&t, SyncPolicy::default(), 4, &m);
        assert_eq!(prog.ncores(), 4);
        assert!(prog.validate().is_ok());
        assert_eq!(engine::run(&prog, &m).total_ns, 0);
    }
}
