//! Simulator input representation: per-core operation streams.
//!
//! The workload-model expander ([`crate::model`]) lowers a mode-independent
//! [`WorkModel`](splash4_parmacs::WorkModel) under a concrete
//! [`SyncPolicy`](splash4_parmacs::SyncPolicy) into one [`Program`] per core.
//! The engine knows nothing about locks vs atomics — only about compute,
//! FCFS shared-resource accesses, and barriers; the *policy* difference is
//! entirely encoded in the access costs and barrier kinds chosen here.

/// One operation in a core's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Local computation for `ns` nanoseconds.
    Compute {
        /// Duration in nanoseconds.
        ns: u64,
    },
    /// `n` accesses to shared resource `server`, each occupying the resource
    /// for `service_ns` (FCFS serialization) and costing the issuing core
    /// `local_ns` of non-serialized latency. If the resource is busy when the
    /// batch arrives, `contended_ns` is added per access (sleeping-lock wake
    /// penalty; zero for spin/atomic resources).
    Access {
        /// Shared resource id.
        server: u32,
        /// Number of accesses in this batch.
        n: u64,
        /// Per-access resource occupancy (serialized).
        service_ns: u64,
        /// Per-access local latency (not serialized).
        local_ns: u64,
        /// Per-access penalty when the batch found the resource busy.
        contended_ns: u64,
    },
    /// Arrive at barrier `id` and wait for all cores.
    Barrier {
        /// Barrier id (indexes [`Program::barriers`][crate::program::BarrierKind]).
        id: u32,
    },
}

/// How a barrier releases its waiters (what the sync policy chose).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Sense-reversing atomic barrier: arrivals serialize on the counter
    /// line; release is a broadcast of the generation line.
    Sense,
    /// Mutex+condvar barrier: arrivals serialize on the mutex; waiters wake
    /// one at a time (serialized `futex` wakes).
    Condvar,
    /// Combining-tree barrier: logarithmic arrival combining, broadcast
    /// release.
    Tree,
}

/// A complete simulator input: one op stream per core plus the barrier kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Workload name (for reports).
    pub name: String,
    /// Op streams, one per core.
    pub cores: Vec<Vec<Op>>,
    /// Barrier kind per barrier id.
    pub barriers: Vec<BarrierKind>,
}

impl Program {
    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.cores.len()
    }

    /// Total operations across all cores.
    pub fn total_ops(&self) -> usize {
        self.cores.iter().map(Vec::len).sum()
    }

    /// Consistency check: every barrier id used is defined, and every core
    /// crosses the same sequence of barriers (barrier episodes must involve
    /// all cores). [`Engine::run`](crate::Engine::run) rejects the same
    /// programs as it runs, without calling this.
    pub fn validate(&self) -> Result<(), String> {
        let mut counts = vec![Vec::new(); self.cores.len()];
        for (c, ops) in self.cores.iter().enumerate() {
            for op in ops {
                if let Op::Barrier { id } = op {
                    if *id as usize >= self.barriers.len() {
                        return Err(format!("core {c}: undefined barrier id {id}"));
                    }
                    counts[c].push(*id);
                }
            }
        }
        for c in 1..counts.len() {
            if counts[c] != counts[0] {
                return Err(format!(
                    "core {c} barrier sequence ({} crossings) differs from core 0 ({})",
                    counts[c].len(),
                    counts[0].len()
                ));
            }
        }
        Ok(())
    }
}

/// Deterministic synthetic simulator program: staggered compute, a mix of
/// shared and private server accesses with occasional contention penalties,
/// and periodic barriers — the op mix the experiment sweeps produce, built
/// from a seeded LCG so every caller replays the same program. The serve
/// service's `sim` requests are defined as exactly these programs (same
/// seed → same program → content-hashable result), which
/// `synthetic_program_is_pinned` holds still. The program is defined row by
/// row — slot `s` is a barrier on every core if 97 divides it, else one LCG
/// draw per core in core order — but built one core at a time: a core's
/// draws lie `cores` steps apart, so its stream jumps its own LCG state.
/// Each stream is one exact-size allocation.
pub fn synthetic_program(
    cores: usize,
    ops_per_core: usize,
    kind: BarrierKind,
    seed: u64,
) -> Program {
    synthetic_program_in(&mut Vec::new(), cores, ops_per_core, kind, seed)
}

/// [`synthetic_program`], each stream refilled in a buffer popped from
/// `spare` when it has one: a caller that hands every finished program's
/// streams back (`spare.extend(program.cores)`) builds the next program in
/// memory it already holds, with no allocation and no page faults.
pub fn synthetic_program_in(
    spare: &mut Vec<Vec<Op>>,
    cores: usize,
    ops_per_core: usize,
    kind: BarrierKind,
    seed: u64,
) -> Program {
    const MUL: u64 = 6364136223846793005;
    const INC: u64 = 1442695040888963407;
    // Prime, so barriers don't phase-lock with the mix.
    const BARRIER_EVERY: usize = 97;
    // `x → jump_mul·x + jump_inc` is `cores` LCG steps.
    let (mut jump_mul, mut jump_inc) = (1u64, 0u64);
    for _ in 0..cores {
        jump_mul = jump_mul.wrapping_mul(MUL);
        jump_inc = jump_inc.wrapping_mul(MUL).wrapping_add(INC);
    }
    let mut row0 = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let streams = (0..cores)
        .map(|c| {
            // The state after draw `c`, this core's first.
            row0 = row0.wrapping_mul(MUL).wrapping_add(INC);
            let mut state = row0;
            let mut stream = spare.pop().unwrap_or_default();
            stream.clear();
            stream.reserve_exact(ops_per_core);
            stream.extend((1..=ops_per_core).map(|slot| {
                if slot.is_multiple_of(BARRIER_EVERY) {
                    let id = (slot / BARRIER_EVERY - 1) as u32;
                    return Op::Barrier { id };
                }
                let r = state >> 33;
                state = state.wrapping_mul(jump_mul).wrapping_add(jump_inc);
                if r.is_multiple_of(5) {
                    Op::Access {
                        server: (r % 3) as u32, // 3 shared servers → real queueing
                        n: 1 + r % 4,
                        service_ns: 40 + r % 60,
                        local_ns: 15,
                        contended_ns: if r.is_multiple_of(7) { 400 } else { 0 },
                    }
                } else {
                    Op::Compute {
                        ns: 50 + (r % 900) + c as u64 * 3,
                    }
                }
            }));
            stream
        })
        .collect();
    // A program with no cores has no slots, so no barriers either.
    let nbarriers = usize::from(cores > 0) * (ops_per_core / BARRIER_EVERY);
    Program {
        name: "perfbench-synthetic".into(),
        cores: streams,
        barriers: vec![kind; nbarriers],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_symmetric_program() {
        let p = Program {
            name: "t".into(),
            cores: vec![
                vec![Op::Compute { ns: 5 }, Op::Barrier { id: 0 }],
                vec![Op::Compute { ns: 9 }, Op::Barrier { id: 0 }],
            ],
            barriers: vec![BarrierKind::Sense],
        };
        assert!(p.validate().is_ok());
        assert_eq!(p.total_ops(), 4);
    }

    #[test]
    fn validate_rejects_undefined_barrier() {
        let p = Program {
            name: "t".into(),
            cores: vec![vec![Op::Barrier { id: 3 }]],
            barriers: vec![BarrierKind::Sense],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_asymmetric_barriers() {
        let p = Program {
            name: "t".into(),
            cores: vec![vec![Op::Barrier { id: 0 }], vec![]],
            barriers: vec![BarrierKind::Sense],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn synthetic_program_is_deterministic_and_valid() {
        let a = synthetic_program(8, 200, BarrierKind::Sense, 42);
        let b = synthetic_program(8, 200, BarrierKind::Sense, 42);
        assert_eq!(a, b, "same seed must build the same program");
        a.validate().expect("program validates");
        let c = synthetic_program(8, 200, BarrierKind::Sense, 43);
        assert_ne!(a, c, "seed must matter");
    }

    /// The row-by-row build that [`synthetic_program`] replaced, kept as
    /// the oracle the core-at-a-time build is held to: one slot at a time,
    /// one LCG draw per core per non-barrier slot, in core order.
    fn synthetic_program_by_rows(
        cores: usize,
        ops_per_core: usize,
        kind: BarrierKind,
        seed: u64,
    ) -> Program {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let barrier_every = 97;
        let mut program = Program {
            name: "perfbench-synthetic".into(),
            cores: vec![Vec::with_capacity(ops_per_core); cores],
            barriers: Vec::new(),
        };
        let mut ops_emitted = vec![0usize; cores];
        let mut slot = 0usize;
        while ops_emitted.iter().any(|&n| n < ops_per_core) {
            slot += 1;
            let place_barrier = slot.is_multiple_of(barrier_every);
            if place_barrier {
                let id = program.barriers.len() as u32;
                program.barriers.push(kind);
                for (c, stream) in program.cores.iter_mut().enumerate() {
                    stream.push(Op::Barrier { id });
                    ops_emitted[c] += 1;
                }
                continue;
            }
            for (c, stream) in program.cores.iter_mut().enumerate() {
                if ops_emitted[c] >= ops_per_core {
                    continue;
                }
                let r = next();
                let op = if r.is_multiple_of(5) {
                    Op::Access {
                        server: (r % 3) as u32,
                        n: 1 + r % 4,
                        service_ns: 40 + r % 60,
                        local_ns: 15,
                        contended_ns: if r.is_multiple_of(7) { 400 } else { 0 },
                    }
                } else {
                    Op::Compute {
                        ns: 50 + (r % 900) + c as u64 * 3,
                    }
                };
                stream.push(op);
                ops_emitted[c] += 1;
            }
        }
        program
    }

    #[test]
    fn core_at_a_time_build_equals_the_row_by_row_definition() {
        // Streams handed back by every earlier program, of every size.
        let mut spare = Vec::new();
        for cores in [0, 1, 2, 3, 97, 1024] {
            for ops in [0, 1, 96, 97, 98, 194, 400] {
                for kind in [BarrierKind::Sense, BarrierKind::Tree, BarrierKind::Condvar] {
                    for seed in [0, 11, 0xba5e] {
                        let what = format!("cores {cores}, ops {ops}, {kind:?}, seed {seed}");
                        let p = synthetic_program(cores, ops, kind, seed);
                        assert_eq!(
                            p,
                            synthetic_program_by_rows(cores, ops, kind, seed),
                            "{what}"
                        );
                        // Every stream is one exact-size allocation: no
                        // doubling, no slack.
                        for stream in &p.cores {
                            assert_eq!(stream.capacity(), stream.len(), "{what}");
                        }
                        let recycled = synthetic_program_in(&mut spare, cores, ops, kind, seed);
                        assert_eq!(recycled, p, "{what}, recycled streams");
                        spare.extend(recycled.cores);
                    }
                }
            }
        }
    }

    #[test]
    fn synthetic_program_is_pinned() {
        // Served `sim` results and their content-hash cache keys are defined
        // as "exactly these programs": constants captured before the
        // function moved here from the harness.
        use crate::{engine, MachineParams};
        for (cores, ops, kind, seed, total_ops, total_ns) in [
            (64, 400, BarrierKind::Tree, 11, 25_600, 631_033),
            (1024, 100, BarrierKind::Sense, 0xba5e, 102_400, 2_295_866),
        ] {
            let p = synthetic_program(cores, ops, kind, seed);
            assert_eq!(p.total_ops(), total_ops, "p={cores}");
            let r = engine::run(&p, &MachineParams::manycore(cores));
            assert_eq!(r.total_ns, total_ns, "p={cores}");
        }
    }
}
