//! The discrete-event simulation engine.
//!
//! Cores execute their op streams in virtual time. Shared resources are FCFS
//! servers: a batch of `n` accesses occupies the resource for `n ×
//! service_ns` (from the access's row of the program's cost table,
//! [`OpCost`]) starting when both the core and the resource are free — the
//! standard way contended atomics (cache-line ownership) and contended locks
//! (holder serialization) throttle throughput. Barriers park cores until the
//! last arrival, then release them according to the barrier kind: broadcast
//! for sense/tree barriers, a serialized wake-up chain for condvar barriers.
//!
//! The engine is deterministic: ties in virtual time are broken by core id.
//! A phase the [`Simulator`](crate::Simulator) does not multiply runs in
//! *laps*: `k` laps are the streams written out `k` times (`DESIGN.md` §8).
//!
//! # Implementation
//!
//! Each core has exactly *one* outstanding event (its next ready time), so
//! the classic `BinaryHeap` event queue is overkill: [`Engine`] keeps a flat
//! winner (tournament) tree over the cores, at every core count. Each node
//! is one `u64` key, `(time << key_bits) | core` with `key_bits =
//! log2(tsize)` and `tsize` the next power of two ≥ p, so a plain `min` of
//! two keys is the event order exactly — earlier time first, the lower core
//! on a tie. The root answers "when" and "who" in O(1), a retime is one
//! `min` per level up to the root, and a broadcast barrier release fills
//! the tree from a template; parked and finished cores (and the padding
//! leaves) hold the reserved all-ones key. A time too wide for its key
//! panics rather than misorder. Unlike the heap, the tree never allocates
//! or moves `(time, core)` tuples through sift-up/sift-down. The op streams
//! of 16-byte [`Op`]s are read in place, with no load-time copy or
//! pre-pass: a run of adjacent `Compute` ops is fused into one event when a
//! core pops its first op, an access reads its costs from `program.costs`
//! by id, server clocks grow as ids are met, and a malformed program is
//! caught as it runs. All per-run state (the tree, program counters,
//! per-core breakdowns, server clocks, barrier episodes) lives in reusable
//! scratch buffers inside the `Engine`, so a warm engine allocates nothing
//! in the event loop. The original heap-based engine is preserved as
//! [`run_reference`]; the equivalence tests and the `benchmark/` package's
//! oracle hold the two implementations result-identical, and its
//! `sim.engine_ns_per_event.*` / `sim.reference_ns_per_event.p1024` rungs
//! measure the speedup.

use crate::machine::MachineParams;
use crate::program::{BarrierKind, Op, OpCost, Program};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-core time attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreBreakdown {
    /// Local computation.
    pub compute_ns: u64,
    /// Time occupying shared resources (lock hold / line ownership).
    pub service_ns: u64,
    /// Queueing for busy resources plus contention penalties.
    pub wait_ns: u64,
    /// Non-serialized local cost of sync operations.
    pub sync_local_ns: u64,
    /// Time parked at barriers (arrival to release).
    pub barrier_ns: u64,
    /// This core's completion time.
    pub end_ns: u64,
}

/// Simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Workload name (copied from the program).
    pub name: String,
    /// Simulated machine name.
    pub machine: String,
    /// Cores simulated.
    pub ncores: usize,
    /// Wall-clock completion time (max over cores).
    pub total_ns: u64,
    /// Per-core attribution.
    pub cores: Vec<CoreBreakdown>,
}

impl SimResult {
    /// Aggregate fraction of core-time spent in each category
    /// `(compute, service, wait, sync_local, barrier)`.
    pub fn fractions(&self) -> (f64, f64, f64, f64, f64) {
        let mut sums = [0u64; 5];
        for c in &self.cores {
            sums[0] += c.compute_ns;
            sums[1] += c.service_ns;
            sums[2] += c.wait_ns;
            sums[3] += c.sync_local_ns;
            sums[4] += c.barrier_ns;
        }
        let total: u64 = sums.iter().sum::<u64>().max(1);
        let f = |x: u64| x as f64 / total as f64;
        (f(sums[0]), f(sums[1]), f(sums[2]), f(sums[3]), f(sums[4]))
    }

    /// Fraction of aggregate core-time attributable to synchronization.
    pub fn sync_fraction(&self) -> f64 {
        let (c, s, w, l, b) = self.fractions();
        (s + w + l + b) / (c + s + w + l + b).max(1e-12)
    }
}

/// Number of tree-barrier combining levels for `n` participants (arity 4,
/// minimum one level).
fn tree_levels(n: usize) -> u64 {
    let mut levels = 0u64;
    let mut w = n;
    while w > 1 {
        w = w.div_ceil(4);
        levels += 1;
    }
    levels.max(1)
}

/// The key of a core that is parked (at a barrier) or finished, and of a
/// padding leaf: above every live key, so never the root while one is live.
const NEVER: u64 = u64::MAX;

/// One barrier's episode state (reused across runs; `arrived` keeps its
/// capacity).
#[derive(Debug, Default)]
struct BarrierScratch {
    /// (core, arrival_time, arrival_done_time) of the current episode.
    arrived: Vec<(usize, u64, u64)>,
    /// Arrival-serialization server (sense counter line / condvar mutex).
    server_free: u64,
}

/// How a run packs `(time, core)` into one winner-tree key.
#[derive(Debug, Default, Clone, Copy)]
struct KeyFormat {
    /// Low bits holding the core: `log2(tsize)`.
    bits: u32,
    /// Times at or above this do not fit: `NEVER >> bits`, which also keeps
    /// the all-ones key free for [`NEVER`].
    time_limit: u64,
}

impl KeyFormat {
    #[inline]
    fn pack(self, t: u64, core: usize) -> u64 {
        assert!(
            t < self.time_limit,
            "simulated time out of key range: {t} ns, limit {} ns",
            self.time_limit
        );
        (t << self.bits) | core as u64
    }
}

/// Reusable simulation engine: owns every per-run buffer, so repeated
/// [`Engine::run`] calls (a 1–64-core sweep, a model's phases)
/// only grow their scratch: once it is large enough for a program, a run
/// allocates nothing but its result.
#[derive(Debug, Default)]
pub struct Engine {
    /// Next op index per core.
    pc: Vec<usize>,
    /// Per-core attribution being accumulated.
    breakdown: Vec<CoreBreakdown>,
    /// FCFS free-at times per shared server.
    servers: Vec<u64>,
    /// Per-barrier episode state.
    barriers: Vec<BarrierScratch>,
    /// Laps each core runs after its current one.
    laps_left: Vec<u64>,
    /// Winner tree of packed keys (implicit binary tree, root at 1, leaf of
    /// core `c` at `tsize + c`): each leaf is its core's next event, each
    /// node the `min` of its children.
    tree: Vec<u64>,
    /// Winner-tree leaf offset (next power of two ≥ p).
    tsize: usize,
    /// This run's key layout.
    keys: KeyFormat,
}

impl Engine {
    /// Fresh engine with empty scratch (grown on first use).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Reset scratch for `laps` laps of a program with `p` cores and
    /// `nbarriers` barriers, growing buffers as needed. Server clocks start
    /// empty and grow as the run meets server ids.
    fn reset(&mut self, p: usize, nbarriers: usize, laps: u64) {
        self.pc.clear();
        self.pc.resize(p, 0);
        self.laps_left.clear();
        self.laps_left.resize(p, laps.saturating_sub(1));
        self.breakdown.clear();
        self.breakdown.resize(p, CoreBreakdown::default());
        self.servers.clear();
        if self.barriers.len() < nbarriers {
            self.barriers
                .resize_with(nbarriers, BarrierScratch::default);
        }
        for b in &mut self.barriers[..nbarriers] {
            b.arrived.clear();
            b.server_free = 0;
        }
        self.tsize = p.next_power_of_two();
        let bits = self.tsize.trailing_zeros();
        self.keys = KeyFormat {
            bits,
            time_limit: NEVER >> bits,
        };
        self.tree.clear();
        self.tree.resize(2 * self.tsize, NEVER);
        // Every core starts ready at time 0.
        self.tree_fill_uniform(0);
    }

    /// Give `core`'s leaf the key `k` and replay its path to the root, each
    /// level keeping the `min` of the path's key and its sibling's. Nearly
    /// every retime is of the popped core, the root's winner, so the whole
    /// path changes: no early exit, and no branch on which side wins.
    #[inline]
    fn tree_update(&mut self, core: usize, mut k: u64) {
        let mut i = self.tsize + core;
        self.tree[i] = k;
        while i > 1 {
            k = k.min(self.tree[i ^ 1]);
            i /= 2;
            self.tree[i] = k;
        }
    }

    /// Template-fill the winner tree for a uniform release: every live core
    /// resumes at the same `resume` time (sense and tree barriers release by
    /// broadcast), so each node that covers a live leaf holds `resume` and
    /// its leftmost leaf's core — no compares. Per level, those nodes are a
    /// prefix (`live` of them, `span` leaves apart); nodes wholly in the
    /// power-of-two padding stay at [`NEVER`] from reset.
    fn tree_fill_uniform(&mut self, resume: u64) {
        let base = self.keys.pack(resume, 0);
        let (mut first, mut live, mut span) = (self.tsize, self.pc.len(), 1);
        while first > 0 {
            for (j, node) in self.tree[first..first + live].iter_mut().enumerate() {
                *node = base | (j * span) as u64;
            }
            (first, live, span) = (first / 2, live.div_ceil(2), span * 2);
        }
    }

    /// Run `program` on `machine`.
    ///
    /// Identical results to [`run_reference`] (the original heap-based
    /// engine), asserted by the equivalence test battery.
    ///
    /// # Panics
    /// Panics with "invalid program" exactly when the program fails
    /// [`Program::validate`], found as the run goes: an undefined barrier
    /// or cost id when a core reaches it (checked against `program`, not
    /// against scratch of an earlier run), differing barrier sequences as
    /// a core still parked when no core can move — every episode takes one
    /// arrival from each core, so a run that ends with none parked crossed
    /// identical sequences. Panics with "simulated time out of key range"
    /// when an event time reaches `2^(64 − log2(tsize)) − 1` ns (about 2^54
    /// ns, 208 days, at 1024 cores), rather than misorder it. The engine
    /// stays usable after either panic.
    pub fn run(&mut self, program: &Program, machine: &MachineParams) -> SimResult {
        self.run_laps(program, machine, 1)
    }

    /// Run `program` as if each core's stream were written out `laps` times.
    pub(crate) fn run_laps(
        &mut self,
        program: &Program,
        machine: &MachineParams,
        laps: u64,
    ) -> SimResult {
        let p = program.ncores();
        self.reset(p, program.barriers.len(), laps);

        let keys = self.keys;
        let core_mask = self.tsize as u64 - 1;
        loop {
            // Next event: the root's key, earliest time and lowest core.
            let root = self.tree[1];
            if root == NEVER {
                break;
            }
            let (t, core) = (root >> keys.bits, (root & core_mask) as usize);
            let ops = &program.cores[core];
            let mut i = self.pc[core];
            if i == ops.len() && self.laps_left[core] > 0 {
                // The stream ended with laps to go: this event opens the next.
                self.laps_left[core] -= 1;
                i = 0;
            }
            let Some(&op) = ops.get(i) else {
                let b = &mut self.breakdown[core];
                b.end_ns = b.end_ns.max(t);
                self.tree_update(core, NEVER);
                continue;
            };
            self.pc[core] = i + 1;
            match op {
                Op::Compute { mut ns } => {
                    // Event fusion: the run of `Compute`s that follows is
                    // one event with the summed time. Back-to-back local
                    // compute interacts with nothing, so the intermediate
                    // events would be pure queue traffic.
                    let mut j = i + 1;
                    while let Some(&Op::Compute { ns: more }) = ops.get(j) {
                        ns += more;
                        j += 1;
                    }
                    self.pc[core] = j;
                    self.breakdown[core].compute_ns += ns;
                    self.tree_update(core, keys.pack(t + ns, core));
                }
                Op::Access { server, cost, n } => {
                    let Some(&OpCost {
                        service_ns,
                        local_ns,
                        contended_ns,
                    }) = program.costs.get(cost as usize)
                    else {
                        panic!("invalid program: core {core}: undefined cost id {cost}");
                    };
                    let server = server as usize;
                    if server >= self.servers.len() {
                        self.servers.resize(server + 1, 0);
                    }
                    let free = &mut self.servers[server];
                    let start = (*free).max(t);
                    let queue_wait = start - t;
                    let busy = start > t;
                    // A contended sleeping lock hands off through a futex
                    // wake, during which the lock is effectively occupied:
                    // the penalty extends the server's busy window (convoy
                    // formation), not just this core's latency.
                    let penalty = if busy { n * contended_ns } else { 0 };
                    let service_total = n * service_ns + penalty;
                    *free = start + service_total;
                    let local_total = n * local_ns;
                    let b = &mut self.breakdown[core];
                    b.wait_ns += queue_wait + penalty;
                    b.service_ns += n * service_ns;
                    b.sync_local_ns += local_total;
                    let done = start + service_total + local_total;
                    self.tree_update(core, keys.pack(done, core));
                }
                Op::Barrier { id } => {
                    let Some(&kind) = program.barriers.get(id as usize) else {
                        panic!("invalid program: core {core}: undefined barrier id {id}");
                    };
                    let bar = &mut self.barriers[id as usize];
                    // Arrival cost by kind.
                    let arr_done = match kind {
                        BarrierKind::Sense => {
                            let service = if p > 1 {
                                machine.rmw_service_ns
                            } else {
                                machine.rmw_local_ns
                            };
                            let start = bar.server_free.max(t);
                            bar.server_free = start + service;
                            start + service
                        }
                        BarrierKind::Condvar => {
                            let start = bar.server_free.max(t);
                            bar.server_free = start + machine.lock_pair_ns;
                            start + machine.lock_pair_ns
                        }
                        BarrierKind::Tree => t + tree_levels(p) * machine.rmw_local_ns,
                    };
                    bar.arrived.push((core, t, arr_done));
                    if bar.arrived.len() < p {
                        // Parked — resumed when the last core arrives.
                        self.tree_update(core, NEVER);
                        continue;
                    }
                    // Release the episode (in place: `arrived` keeps its
                    // capacity for the next episode).
                    let last = bar.arrived.iter().map(|&(_, _, d)| d).max().unwrap_or(t);
                    // Sense/tree barriers release by broadcast: every core
                    // resumes at one shared time, and the tree is
                    // template-filled instead of rebuilt with compares.
                    let broadcast = |hops: u64| last + hops * machine.line_transfer_ns;
                    let resume = match kind {
                        BarrierKind::Sense => broadcast(1),
                        BarrierKind::Tree => broadcast(tree_levels(p)),
                        BarrierKind::Condvar => {
                            // The final arriver proceeds immediately;
                            // sleepers wake one at a time, in arrival order.
                            // In-place unstable sort: keys are unique (core
                            // ids differ), so stability is irrelevant and no
                            // merge-sort scratch is allocated per episode.
                            bar.arrived.sort_unstable_by_key(|&(c, at, _)| (at, c));
                            let n_sleepers = bar.arrived.len().saturating_sub(1);
                            let leaves = &mut self.tree[self.tsize..];
                            for (rank, &(c, at, _)) in bar.arrived.iter().enumerate() {
                                let resume = if rank == n_sleepers {
                                    last + machine.lock_pair_ns
                                } else {
                                    last + (rank as u64 + 1) * machine.condvar_wake_ns
                                };
                                self.breakdown[c].barrier_ns += resume - at;
                                leaves[c] = keys.pack(resume, c);
                            }
                            bar.arrived.clear();
                            // Per-core resume times differ: rebuild with `min`.
                            for i in (1..self.tsize).rev() {
                                self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
                            }
                            continue;
                        }
                    };
                    for &(c, at, _) in &bar.arrived {
                        self.breakdown[c].barrier_ns += resume - at;
                    }
                    bar.arrived.clear();
                    self.tree_fill_uniform(resume);
                }
            }
        }

        let parked = self.barriers[..program.barriers.len()]
            .iter()
            .enumerate()
            .find_map(|(id, b)| Some((b.arrived.first()?.0, id)));
        if let Some((core, id)) = parked {
            panic!("invalid program: core {core} is still parked at barrier {id}: barrier sequences differ");
        }
        let total_ns = self.breakdown.iter().map(|b| b.end_ns).max().unwrap_or(0);
        SimResult {
            name: program.name.clone(),
            machine: machine.name.to_string(),
            ncores: p,
            total_ns,
            cores: self.breakdown.clone(),
        }
    }
}

/// Run `program` on `machine` with a fresh [`Engine`].
///
/// Sweeps and repeated calls should hold an [`Engine`] (or a
/// [`Simulator`](crate::Simulator)) to reuse its scratch buffers.
///
/// # Panics
/// Panics if the program fails [`Program::validate`].
pub fn run(program: &Program, machine: &MachineParams) -> SimResult {
    Engine::new().run(program, machine)
}

/// The original heap-based engine, preserved verbatim as the reference
/// implementation: the equivalence tests and the `benchmark/` package's
/// oracle pin [`Engine::run`] to its results, and its
/// `sim.reference_ns_per_event.p1024` rung times it against the engine.
///
/// # Panics
/// Panics if the program fails [`Program::validate`].
pub fn run_reference(program: &Program, machine: &MachineParams) -> SimResult {
    #[derive(Debug)]
    struct BarrierState {
        kind: BarrierKind,
        arrived: Vec<(usize, u64, u64)>,
        server_free: u64,
    }

    program
        .validate()
        .unwrap_or_else(|e| panic!("invalid program: {e}"));
    let p = program.ncores();
    let nservers = program
        .cores
        .iter()
        .flatten()
        .filter_map(|op| match op {
            Op::Access { server, .. } => Some(*server as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut servers = vec![0u64; nservers];
    let mut barriers: Vec<BarrierState> = program
        .barriers
        .iter()
        .map(|&kind| BarrierState {
            kind,
            arrived: Vec::with_capacity(p),
            server_free: 0,
        })
        .collect();

    let mut pc = vec![0usize; p];
    let mut breakdown = vec![CoreBreakdown::default(); p];
    // Min-heap of (ready_time, core).
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..p).map(|c| Reverse((0, c))).collect();

    while let Some(Reverse((t, core))) = heap.pop() {
        let Some(op) = program.cores[core].get(pc[core]).copied() else {
            breakdown[core].end_ns = breakdown[core].end_ns.max(t);
            continue;
        };
        pc[core] += 1;
        match op {
            Op::Compute { ns } => {
                breakdown[core].compute_ns += ns;
                heap.push(Reverse((t + ns, core)));
            }
            Op::Access { server, cost, n } => {
                let OpCost {
                    service_ns,
                    local_ns,
                    contended_ns,
                } = program.costs[cost as usize];
                let free = &mut servers[server as usize];
                let start = (*free).max(t);
                let queue_wait = start - t;
                let busy = start > t;
                let penalty = if busy { n * contended_ns } else { 0 };
                let service_total = n * service_ns + penalty;
                *free = start + service_total;
                let local_total = n * local_ns;
                breakdown[core].wait_ns += queue_wait + penalty;
                breakdown[core].service_ns += n * service_ns;
                breakdown[core].sync_local_ns += local_total;
                heap.push(Reverse((start + service_total + local_total, core)));
            }
            Op::Barrier { id } => {
                let bar = &mut barriers[id as usize];
                let arr_done = match bar.kind {
                    BarrierKind::Sense => {
                        let service = if p > 1 {
                            machine.rmw_service_ns
                        } else {
                            machine.rmw_local_ns
                        };
                        let start = bar.server_free.max(t);
                        bar.server_free = start + service;
                        start + service
                    }
                    BarrierKind::Condvar => {
                        let start = bar.server_free.max(t);
                        bar.server_free = start + machine.lock_pair_ns;
                        start + machine.lock_pair_ns
                    }
                    BarrierKind::Tree => t + tree_levels(p) * machine.rmw_local_ns,
                };
                bar.arrived.push((core, t, arr_done));
                if bar.arrived.len() == p {
                    let last = bar.arrived.iter().map(|&(_, _, d)| d).max().unwrap_or(t);
                    let episode = std::mem::take(&mut bar.arrived);
                    match bar.kind {
                        BarrierKind::Sense => {
                            let resume = last + machine.line_transfer_ns;
                            for (c, at, _) in episode {
                                breakdown[c].barrier_ns += resume - at;
                                heap.push(Reverse((resume, c)));
                            }
                        }
                        BarrierKind::Tree => {
                            let resume = last + tree_levels(p) * machine.line_transfer_ns;
                            for (c, at, _) in episode {
                                breakdown[c].barrier_ns += resume - at;
                                heap.push(Reverse((resume, c)));
                            }
                        }
                        BarrierKind::Condvar => {
                            let mut order = episode;
                            order.sort_by_key(|&(c, at, _)| (at, c));
                            let n_sleepers = order.len().saturating_sub(1);
                            for (rank, (c, at, _)) in order.into_iter().enumerate() {
                                let resume = if rank == n_sleepers {
                                    last + machine.lock_pair_ns
                                } else {
                                    last + (rank as u64 + 1) * machine.condvar_wake_ns
                                };
                                breakdown[c].barrier_ns += resume - at;
                                heap.push(Reverse((resume, c)));
                            }
                        }
                    }
                }
            }
        }
    }

    let total_ns = breakdown.iter().map(|b| b.end_ns).max().unwrap_or(0);
    SimResult {
        name: program.name.clone(),
        machine: machine.name.to_string(),
        ncores: p,
        total_ns,
        cores: breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineParams {
        MachineParams::icelake_like()
    }

    /// A cost table, one `(service_ns, local_ns, contended_ns)` row per id.
    fn costs(rows: &[(u64, u64, u64)]) -> Vec<OpCost> {
        rows.iter()
            .map(|&(service_ns, local_ns, contended_ns)| OpCost {
                service_ns,
                local_ns,
                contended_ns,
            })
            .collect()
    }

    #[test]
    fn single_core_compute_only() {
        let p = Program {
            name: "t".into(),
            cores: vec![vec![Op::Compute { ns: 1000 }, Op::Compute { ns: 500 }]],
            costs: vec![],
            barriers: vec![],
        };
        let r = run(&p, &machine());
        assert_eq!(r.total_ns, 1500);
        assert_eq!(r.cores[0].compute_ns, 1500);
        assert_eq!(r.sync_fraction(), 0.0);
    }

    #[test]
    fn contended_server_serializes() {
        // Two cores each need 10 × 100ns of the same resource: the second
        // must queue behind the first → total ≥ 2000ns.
        let access = Op::Access {
            server: 0,
            cost: 0,
            n: 10,
        };
        let p = Program {
            name: "t".into(),
            cores: vec![vec![access], vec![access]],
            costs: costs(&[(100, 0, 0)]),
            barriers: vec![],
        };
        let r = run(&p, &machine());
        assert_eq!(r.total_ns, 2000);
        let waited: u64 = r.cores.iter().map(|c| c.wait_ns).sum();
        assert_eq!(waited, 1000, "one core queues for the other's batch");
    }

    #[test]
    fn uncontended_servers_run_in_parallel() {
        let p = Program {
            name: "t".into(),
            cores: vec![
                vec![Op::Access {
                    server: 0,
                    cost: 0,
                    n: 10,
                }],
                vec![Op::Access {
                    server: 1,
                    cost: 0,
                    n: 10,
                }],
            ],
            costs: costs(&[(100, 0, 0)]),
            barriers: vec![],
        };
        let r = run(&p, &machine());
        assert_eq!(r.total_ns, 1000);
    }

    #[test]
    fn contended_penalty_applies_only_when_busy() {
        let access = |srv| Op::Access {
            server: srv,
            cost: 0,
            n: 1,
        };
        // Same server: second comer pays the penalty.
        let p = Program {
            name: "t".into(),
            cores: vec![vec![access(0)], vec![access(0)]],
            costs: costs(&[(100, 0, 5000)]),
            barriers: vec![],
        };
        let r = run(&p, &machine());
        assert_eq!(r.total_ns, 100 + 100 + 5000);
        // Different servers: nobody pays it.
        let p2 = Program {
            cores: vec![vec![access(0)], vec![access(1)]],
            ..p
        };
        assert_eq!(run(&p2, &machine()).total_ns, 100);
    }

    #[test]
    fn barrier_holds_until_all_arrive() {
        let p = Program {
            name: "t".into(),
            cores: vec![
                vec![
                    Op::Compute { ns: 10 },
                    Op::Barrier { id: 0 },
                    Op::Compute { ns: 5 },
                ],
                vec![
                    Op::Compute { ns: 10_000 },
                    Op::Barrier { id: 0 },
                    Op::Compute { ns: 5 },
                ],
            ],
            costs: vec![],
            barriers: vec![BarrierKind::Sense],
        };
        let r = run(&p, &machine());
        assert!(r.total_ns > 10_000);
        assert!(
            r.cores[0].barrier_ns >= 9_000,
            "fast core waits for slow one"
        );
    }

    #[test]
    fn condvar_barrier_costs_more_than_sense_at_scale() {
        let mk = |kind| {
            let cores = (0..32)
                .map(|_| vec![Op::Compute { ns: 100 }, Op::Barrier { id: 0 }])
                .collect();
            Program {
                name: "t".into(),
                cores,
                costs: vec![],
                barriers: vec![kind],
            }
        };
        let sense = run(&mk(BarrierKind::Sense), &machine()).total_ns;
        let condvar = run(&mk(BarrierKind::Condvar), &machine()).total_ns;
        assert!(
            condvar > 2 * sense,
            "serialized wake-ups must dominate: condvar {condvar} vs sense {sense}"
        );
    }

    #[test]
    fn tree_barrier_beats_central_sense_at_high_core_counts() {
        let mk = |kind| {
            let cores = (0..64).map(|_| vec![Op::Barrier { id: 0 }]).collect();
            Program {
                name: "t".into(),
                cores,
                costs: vec![],
                barriers: vec![kind],
            }
        };
        let sense = run(&mk(BarrierKind::Sense), &machine()).total_ns;
        let tree = run(&mk(BarrierKind::Tree), &machine()).total_ns;
        assert!(tree < sense, "tree {tree} vs sense {sense}");
    }

    #[test]
    fn deterministic_across_runs() {
        let cores = (0..8)
            .map(|c| {
                vec![
                    Op::Compute { ns: 100 + c },
                    Op::Access {
                        server: 0,
                        cost: 0,
                        n: 5,
                    },
                    Op::Barrier { id: 0 },
                ]
            })
            .collect::<Vec<_>>();
        let p = Program {
            name: "t".into(),
            cores,
            costs: costs(&[(60, 10, 0)]),
            barriers: vec![BarrierKind::Condvar],
        };
        let a = run(&p, &machine());
        let b = run(&p, &machine());
        assert_eq!(a, b);
    }

    #[test]
    fn barriers_are_reusable_across_episodes() {
        let cores = (0..4)
            .map(|_| {
                vec![
                    Op::Barrier { id: 0 },
                    Op::Compute { ns: 10 },
                    Op::Barrier { id: 0 },
                ]
            })
            .collect::<Vec<_>>();
        let p = Program {
            name: "t".into(),
            cores,
            costs: vec![],
            barriers: vec![BarrierKind::Sense],
        };
        let r = run(&p, &machine());
        assert!(r.total_ns > 0);
        // All cores end at the same episode count — validated structurally.
    }

    /// A deliberately heterogeneous program: staggered compute, shared and
    /// private servers, contention penalties, and every barrier kind in one
    /// stream. Cost ids and servers cross: server 0 sees both cost ids, and
    /// servers 0–2 share cost id 1.
    fn stress_program(p: usize, kind: BarrierKind, seed: u64) -> Program {
        let cores = (0..p)
            .map(|c| {
                let c64 = c as u64;
                vec![
                    Op::Compute {
                        ns: 50 + (c64 * 37 + seed) % 400,
                    },
                    Op::Access {
                        server: 0,
                        cost: 0,
                        n: 1 + c64 % 5,
                    },
                    Op::Barrier { id: 0 },
                    Op::Access {
                        server: (c % 3) as u32,
                        cost: 1,
                        n: 3,
                    },
                    Op::Compute {
                        ns: (c64 * 13 + seed * 7) % 777,
                    },
                    Op::Barrier { id: 1 },
                    Op::Barrier { id: 0 },
                ]
            })
            .collect();
        Program {
            name: "stress".into(),
            cores,
            costs: costs(&[(40, 12, 90), (25, 5, 0)]),
            barriers: vec![kind, BarrierKind::Sense],
        }
    }

    #[test]
    fn engine_matches_reference_across_kinds_and_core_counts() {
        let m = machine();
        let mut engine = Engine::new();
        for kind in [BarrierKind::Sense, BarrierKind::Condvar, BarrierKind::Tree] {
            // Every p to 17, then both sides of each power of two to 64:
            // each step moves the padding or the key width.
            for p in (1..=17).chain([31, 32, 33, 63, 64, 65]) {
                for seed in [0, 5] {
                    let prog = stress_program(p, kind, seed);
                    let fast = engine.run(&prog, &m);
                    let reference = run_reference(&prog, &m);
                    assert_eq!(
                        fast, reference,
                        "engine diverged from reference: kind {kind:?}, p {p}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_matches_reference_at_manycore_scale() {
        // The serve scaling study pushes the engine to p=1024; the winner
        // tree (template fill + early-exit retime) must stay bit-identical
        // to the heap reference, including at non-power-of-two p where the
        // tree carries padding leaves.
        let m = MachineParams::manycore(1024);
        let mut engine = Engine::new();
        for kind in [BarrierKind::Sense, BarrierKind::Condvar, BarrierKind::Tree] {
            for p in [33, 100, 256, 512, 777, 1023, 1024, 1025] {
                let prog = stress_program(p, kind, 11);
                let fast = engine.run(&prog, &m);
                let reference = run_reference(&prog, &m);
                assert_eq!(
                    fast, reference,
                    "engine diverged from reference: kind {kind:?}, p {p}"
                );
            }
        }
    }

    #[test]
    fn laps_equal_the_streams_written_out() {
        let m = machine();
        let mut engine = Engine::new();
        // Streams that close and open with `Compute`: one stream fuses the
        // two into one event, laps meet them in two.
        let seam = |mut prog: Program| {
            for (c, ops) in prog.cores.iter_mut().enumerate() {
                ops.insert(0, Op::Compute { ns: 7 + c as u64 });
                ops.push(Op::Compute { ns: 3 });
            }
            prog
        };
        let mut programs = vec![];
        for kind in [BarrierKind::Sense, BarrierKind::Condvar, BarrierKind::Tree] {
            for p in [1, 2, 3, 16, 17, 33] {
                programs.push(stress_program(p, kind, 2));
                programs.push(seam(stress_program(p, kind, 6)));
            }
        }
        // No barriers: an all-compute core fuses every lap into one event,
        // and an empty core ends at 0 however many laps it is given.
        let access = Op::Access {
            server: 0,
            cost: 0,
            n: 2,
        };
        programs.push(Program {
            name: "free".into(),
            cores: vec![
                vec![Op::Compute { ns: 5 }, Op::Compute { ns: 6 }],
                vec![],
                vec![access, Op::Compute { ns: 4 }],
                vec![Op::Compute { ns: 9 }, access],
            ],
            costs: costs(&[(30, 2, 40)]),
            barriers: vec![],
        });
        for prog in &programs {
            for k in [1, 2, 5] {
                assert_eq!(
                    engine.run_laps(prog, &m, k),
                    run(&written_out(prog, k as usize), &m),
                    "{k} laps of {prog:?}"
                );
            }
        }
    }

    /// The last of `p` cores computes for `ns`, the others for 1 ns.
    fn wide_program(p: usize, ns: u64) -> Program {
        let mut cores = vec![vec![Op::Compute { ns: 1 }]; p];
        cores[p - 1] = vec![Op::Compute { ns }];
        Program {
            name: "wide".into(),
            cores,
            costs: vec![],
            barriers: vec![],
        }
    }

    fn run_past_the_key_range(p: usize, ns: u64) {
        run(&wide_program(p, ns), &machine());
    }

    #[test]
    fn the_widest_time_a_key_holds_runs() {
        // The last core of a power-of-two p has the all-ones core bits, so
        // only the time bound keeps its key from being `NEVER`.
        for (p, ns) in [(1024, (1 << 54) - 2), (1, u64::MAX - 1)] {
            let prog = wide_program(p, ns);
            let r = run(&prog, &machine());
            assert_eq!(r.total_ns, ns);
            assert_eq!(r, run_reference(&prog, &machine()), "p {p}");
        }
    }

    #[test]
    #[should_panic(expected = "simulated time out of key range")]
    fn a_time_past_the_key_range_panics_at_1024_cores() {
        // 10 key bits leave 54 for the time.
        run_past_the_key_range(1024, 1 << 54);
    }

    #[test]
    #[should_panic(expected = "simulated time out of key range")]
    fn a_time_past_the_key_range_panics_at_one_core() {
        // No core bits: only the all-ones key, `NEVER`, is out of range.
        run_past_the_key_range(1, u64::MAX);
    }

    /// `k` laps of `prog` written out as one stream per core.
    fn written_out(prog: &Program, k: usize) -> Program {
        Program {
            cores: prog.cores.iter().map(|ops| ops.repeat(k)).collect(),
            ..prog.clone()
        }
    }

    /// A random program from a seeded LCG: p up to 4096 (log-uniform, so
    /// small p come up as often as large), one barrier of each kind crossed
    /// in one random sequence by every core, and between barriers a random
    /// mix of compute, contended accesses and empty segments. Times are
    /// small so that ties are common.
    fn random_program(seed: u64) -> Program {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut draw = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let bits = draw(13);
        let p = ((1 << bits) + draw(1 << bits)).min(4096) as usize;
        let sequence: Vec<u32> = (0..draw(5)).map(|_| draw(3) as u32).collect();
        let nservers = 1 + draw(6);
        let cores = (0..p)
            .map(|_| {
                let mut ops = vec![];
                for segment in 0..=sequence.len() {
                    for _ in 0..draw(5) {
                        ops.push(match draw(3) {
                            0 => Op::Compute { ns: draw(4) * 50 },
                            _ => Op::Access {
                                server: draw(nservers) as u32,
                                cost: draw(3) as u16,
                                n: 1 + draw(3),
                            },
                        });
                    }
                    if let Some(&id) = sequence.get(segment) {
                        ops.push(Op::Barrier { id });
                    }
                }
                ops
            })
            .collect();
        Program {
            name: format!("random-{seed}"),
            cores,
            costs: costs(&[(40, 12, 90), (25, 5, 0), (0, 30, 7)]),
            barriers: vec![BarrierKind::Sense, BarrierKind::Condvar, BarrierKind::Tree],
        }
    }

    /// Slow in a debug build; CI runs it optimized with the other ignored
    /// tests (`cargo test --release -p splash4-sim -- --ignored`).
    #[test]
    #[ignore]
    fn engine_matches_reference_on_random_programs() {
        let machines = [
            MachineParams::icelake_like(),
            MachineParams::epyc_like(),
            MachineParams::manycore(1024),
        ];
        let mut engine = Engine::new();
        for seed in 0..300u64 {
            let prog = random_program(seed);
            let m = &machines[seed as usize % machines.len()];
            let laps = 1 + seed % 3;
            assert_eq!(
                engine.run_laps(&prog, m, laps),
                run_reference(&written_out(&prog, laps as usize), m),
                "seed {seed}: p {}, {laps} laps",
                prog.ncores()
            );
        }
    }

    #[test]
    fn engine_scratch_reuse_does_not_leak_state_across_runs() {
        // Run a big program, then a small one, in the same engine; the small
        // one must match a fresh engine bit-for-bit.
        let m = machine();
        let mut engine = Engine::new();
        let big = stress_program(64, BarrierKind::Condvar, 3);
        let small = stress_program(2, BarrierKind::Tree, 9);
        let _ = engine.run(&big, &m);
        let reused = engine.run(&small, &m);
        let fresh = Engine::new().run(&small, &m);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn engine_rejects_what_validate_rejects_without_a_pre_pass() {
        let m = machine();
        let (b, c) = (|id| Op::Barrier { id }, Op::Compute { ns: 10 });
        let a = |cost| Op::Access {
            server: 0,
            cost,
            n: 1,
        };
        let program = |cores: Vec<Vec<Op>>, nbarriers| Program {
            name: "bad".into(),
            cores,
            costs: costs(&[(10, 1, 0)]),
            barriers: vec![BarrierKind::Sense; nbarriers],
        };
        // Runs barriers 0 and 1 and cost ids 0 and 1 before each bad run.
        let two_barriers = Program {
            costs: costs(&[(10, 1, 0), (20, 2, 0)]),
            ..program(vec![vec![c, a(1), b(0), a(0), b(1)]; 3], 2)
        };
        let bad = [
            ("undefined id", program(vec![vec![b(3)], vec![c, b(3)]], 1)),
            (
                "id defined only by the previous program",
                program(vec![vec![b(0), b(1)]; 2], 1),
            ),
            (
                "cost id defined only by the previous program",
                program(vec![vec![c, a(0)], vec![a(1), c]], 0),
            ),
            (
                "a core with fewer barriers",
                program(vec![vec![b(0), c, b(0)], vec![c, b(0)]], 1),
            ),
            (
                "a core with fewer barriers, winner tree",
                program(
                    (0..33)
                        .map(|core| vec![b(0); if core == 5 { 1 } else { 2 }])
                        .collect(),
                    1,
                ),
            ),
            (
                "crossed sequences",
                program(vec![vec![b(0), b(1)], vec![b(1), b(0)]], 2),
            ),
        ];
        let mut engine = Engine::new();
        for (what, bad) in &bad {
            assert!(bad.validate().is_err(), "{what}");
            engine.run(&two_barriers, &m);
            let err =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(bad, &m)))
                    .expect_err(what);
            let message = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.starts_with("invalid program"), "{what}: {message}");
            if what.starts_with("cost id") {
                assert_eq!(message, "invalid program: core 1: undefined cost id 1");
            }
            // The engine a run panicked in is as good as a fresh one.
            for (p, kind) in [(3, BarrierKind::Sense), (33, BarrierKind::Condvar)] {
                let good = stress_program(p, kind, 4);
                assert_eq!(
                    engine.run(&good, &m),
                    Engine::new().run(&good, &m),
                    "{what}"
                );
            }
        }
    }
}
