//! The discrete-event simulation engine.
//!
//! Cores execute their op streams in virtual time. Shared resources are FCFS
//! servers: a batch of `n` accesses occupies the resource for `n ×
//! service_ns` starting when both the core and the resource are free — the
//! standard way contended atomics (cache-line ownership) and contended locks
//! (holder serialization) throttle throughput. Barriers park cores until the
//! last arrival, then release them according to the barrier kind: broadcast
//! for sense/tree barriers, a serialized wake-up chain for condvar barriers.
//!
//! The engine is deterministic: ties in virtual time are broken by core id.
//!
//! # Implementation
//!
//! Each core has exactly *one* outstanding event (its next ready time), so
//! the classic `BinaryHeap` event queue is overkill: [`Engine`] keeps a flat
//! `ready[core]` array (parked and finished cores at `u64::MAX`) and picks
//! the next event with a linear min-scan at small core counts, switching to
//! a flat winner (tournament) tree above `SCAN_CORES_MAX` cores — O(1)
//! dispatch from the root, a branch-free O(log p) leaf-to-root retime, and
//! a branch-light template fill per barrier release — while preserving the
//! lowest-core-wins tie-break exactly.
//! Unlike the heap, neither path ever allocates or moves `(time, core)`
//! tuples through sift-up/sift-down. The op streams are read in place, with
//! no load-time copy or pre-pass: a run of adjacent `Compute` ops is fused
//! into one event when a core pops its first op, server clocks grow as ids
//! are met, and a malformed program is caught as it runs. All per-run state
//! (`ready`, program counters, per-core breakdowns, server clocks, barrier
//! episodes) lives in reusable scratch buffers inside the `Engine`, so a
//! warm engine allocates nothing in the event loop. The original heap-based
//! engine is preserved as [`run_reference`]; the equivalence tests and the
//! `benchmark/` package's oracle hold the two implementations
//! result-identical, and its `sim.engine_ns_per_event.*` /
//! `sim.reference_ns_per_event.p1024` rungs measure the speedup.

use crate::machine::MachineParams;
use crate::program::{BarrierKind, Op, Program};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint;

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

/// A core that is parked (at a barrier) or finished: never selected by the
/// min-scan.
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

/// Core counts up to this use the linear min-scan; above it the winner tree
/// takes over (the scan's O(p) per event loses to O(log p) around here).
const SCAN_CORES_MAX: usize = 16;

/// Reusable simulation engine: owns every per-run buffer, so repeated
/// [`Engine::run`] calls (a 1–64-core sweep, a repeat-capped phase loop)
/// only grow their scratch: once it is large enough for a program, a run
/// allocates nothing but its result.
#[derive(Debug, Default)]
pub struct Engine {
    /// Next ready time per core; [`NEVER`] = parked or finished.
    ready: Vec<u64>,
    /// Next op index per core.
    pc: Vec<usize>,
    /// Per-core attribution being accumulated.
    breakdown: Vec<CoreBreakdown>,
    /// FCFS free-at times per shared server.
    servers: Vec<u64>,
    /// Per-barrier episode state.
    barriers: Vec<BarrierScratch>,
    /// Winner-tree node times (implicit binary tree, leaves at
    /// `tsize..tsize+p`); only maintained when `p > SCAN_CORES_MAX`.
    tree: Vec<u64>,
    /// Winning core per winner-tree node.
    tree_win: Vec<u32>,
    /// Winner-tree leaf offset (next power of two ≥ p).
    tsize: usize,
    /// Leftmost leaf id under each winner-tree node, precomputed at reset.
    /// When every in-range leaf holds the *same* time (a sense/tree barrier
    /// release), node `i`'s winner is exactly `uniform_win[i]` — the
    /// lowest-core tie-break — so a release can template-fill the tree
    /// without any compare chains (see [`Engine::tree_fill_uniform`]).
    uniform_win: Vec<u32>,
}

impl Engine {
    /// Fresh engine with empty scratch (grown on first use).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Reset scratch for a program with `p` cores and `nbarriers`
    /// barriers, growing buffers as needed. Server clocks start empty and
    /// grow as the run meets server ids.
    fn reset(&mut self, p: usize, nbarriers: usize) {
        self.ready.clear();
        self.ready.resize(p, 0);
        self.pc.clear();
        self.pc.resize(p, 0);
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
        if p > SCAN_CORES_MAX {
            self.tsize = p.next_power_of_two();
            self.tree.clear();
            self.tree.resize(2 * self.tsize, NEVER);
            self.tree_win.clear();
            self.tree_win.resize(2 * self.tsize, 0);
            // Leftmost leaf per node: leaves map to themselves, internal
            // nodes inherit from their left child (visited first by the
            // reverse sweep).
            self.uniform_win.clear();
            self.uniform_win.resize(2 * self.tsize, 0);
            for i in (1..2 * self.tsize).rev() {
                self.uniform_win[i] = if i >= self.tsize {
                    (i - self.tsize) as u32
                } else {
                    self.uniform_win[2 * i]
                };
            }
            self.tree_rebuild();
        } else {
            self.tsize = 0;
        }
    }

    /// Retime `core`, keeping the winner tree (when active) in sync.
    #[inline]
    fn set_ready(&mut self, core: usize, v: u64) {
        self.ready[core] = v;
        if self.tsize > 0 {
            self.tree_update(core, v);
        }
    }

    /// Recompute the whole winner tree from `ready`. Used at reset and after
    /// condvar-barrier releases (per-core resume times differ, so there is
    /// no shared value to template-fill).
    fn tree_rebuild(&mut self) {
        let n = self.tsize;
        for c in 0..n {
            self.tree[n + c] = self.ready.get(c).copied().unwrap_or(NEVER);
            self.tree_win[n + c] = c as u32;
        }
        for i in (1..n).rev() {
            let (l, r) = (2 * i, 2 * i + 1);
            // `<=` keeps the left (lower-index) child on ties — exactly the
            // lowest-core-wins tie-break of the scan and the heap reference.
            if self.tree[l] <= self.tree[r] {
                self.tree[i] = self.tree[l];
                self.tree_win[i] = self.tree_win[l];
            } else {
                self.tree[i] = self.tree[r];
                self.tree_win[i] = self.tree_win[r];
            }
        }
    }

    /// Retime one leaf and replay its whole path to the root, each level
    /// keeping the earlier of the path's `(time, winner)` and its sibling's
    /// (on a tie the left, lower core) by select, not branch: nearly every
    /// retime is of the popped core, the root's winner, so the whole path
    /// changes, and which side wins a level is a coin flip.
    #[inline]
    fn tree_update(&mut self, core: usize, v: u64) {
        let mut i = self.tsize + core;
        let (mut t, mut w) = (v, core as u32);
        self.tree[i] = v;
        while i > 1 {
            let (st, sw) = (self.tree[i ^ 1], self.tree_win[i ^ 1]);
            let keep = (t < st) | ((t == st) & (i & 1 == 0));
            t = hint::select_unpredictable(keep, t, st);
            w = hint::select_unpredictable(keep, w, sw);
            i /= 2;
            self.tree[i] = t;
            self.tree_win[i] = w;
        }
    }

    /// Template-fill the winner tree for a uniform release: every live core
    /// resumes at the same `resume` time (sense and tree barriers release by
    /// broadcast), so node times are `resume` wherever the subtree reaches a
    /// live leaf and winners are the precomputed leftmost leaves — no
    /// compare chains, no `ready` re-reads. Nodes whose subtrees lie
    /// entirely in the power-of-two padding (`uniform_win[i] ≥ p`) stay at
    /// [`NEVER`] from reset and are never written by any path, so they are
    /// skipped here.
    fn tree_fill_uniform(&mut self, resume: u64) {
        let n = self.tsize;
        let p = self.ready.len();
        for c in 0..p {
            self.tree[n + c] = resume;
        }
        for i in (1..n).rev() {
            let w = self.uniform_win[i];
            if (w as usize) < p {
                self.tree[i] = resume;
                self.tree_win[i] = w;
            }
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
    /// id when a core reaches it (checked against `program`, not against
    /// scratch of an earlier run), differing barrier sequences as a core
    /// still parked when no core can move — every episode takes one arrival
    /// from each core, so a run that ends with none parked crossed
    /// identical sequences. The engine stays usable after the panic.
    pub fn run(&mut self, program: &Program, machine: &MachineParams) -> SimResult {
        let p = program.ncores();
        self.reset(p, program.barriers.len());

        loop {
            // Next event: earliest ready core, lowest id on ties. At small
            // core counts a linear scan over the `ready` array is a handful
            // of cache lines and beats any tree; past SCAN_CORES_MAX the
            // winner tree answers from its root in O(1) and absorbs retimes
            // in O(log p). Both break ties toward the lowest core id.
            let (t, core) = if self.tsize > 0 {
                let t = self.tree[1];
                if t == NEVER {
                    break;
                }
                (t, self.tree_win[1] as usize)
            } else {
                let mut t = NEVER;
                let mut core = usize::MAX;
                for (c, &r) in self.ready.iter().enumerate() {
                    if r < t {
                        t = r;
                        core = c;
                    }
                }
                if core == usize::MAX {
                    break;
                }
                (t, core)
            };
            let ops = &program.cores[core];
            let i = self.pc[core];
            let Some(&op) = ops.get(i) else {
                let b = &mut self.breakdown[core];
                b.end_ns = b.end_ns.max(t);
                self.set_ready(core, NEVER);
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
                    self.set_ready(core, t + ns);
                }
                Op::Access {
                    server,
                    n,
                    service_ns,
                    local_ns,
                    contended_ns,
                } => {
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
                    self.set_ready(core, start + service_total + local_total);
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
                        self.set_ready(core, NEVER);
                        continue;
                    }
                    // Release the episode (in place: `arrived` keeps its
                    // capacity for the next episode).
                    let last = bar.arrived.iter().map(|&(_, _, d)| d).max().unwrap_or(t);
                    // Sense/tree barriers release by broadcast: every core
                    // resumes at one shared time, and the tree can be
                    // template-filled instead of rebuilt with compares.
                    let mut uniform_resume = None;
                    match kind {
                        BarrierKind::Sense => {
                            let resume = last + machine.line_transfer_ns;
                            for &(c, at, _) in &bar.arrived {
                                self.breakdown[c].barrier_ns += resume - at;
                                self.ready[c] = resume;
                            }
                            uniform_resume = Some(resume);
                        }
                        BarrierKind::Tree => {
                            let resume = last + tree_levels(p) * machine.line_transfer_ns;
                            for &(c, at, _) in &bar.arrived {
                                self.breakdown[c].barrier_ns += resume - at;
                                self.ready[c] = resume;
                            }
                            uniform_resume = Some(resume);
                        }
                        BarrierKind::Condvar => {
                            // The final arriver proceeds immediately;
                            // sleepers wake one at a time, in arrival order.
                            // In-place unstable sort: keys are unique (core
                            // ids differ), so stability is irrelevant and no
                            // merge-sort scratch is allocated per episode.
                            bar.arrived.sort_unstable_by_key(|&(c, at, _)| (at, c));
                            let n_sleepers = bar.arrived.len().saturating_sub(1);
                            for (rank, &(c, at, _)) in bar.arrived.iter().enumerate() {
                                let resume = if rank == n_sleepers {
                                    last + machine.lock_pair_ns
                                } else {
                                    last + (rank as u64 + 1) * machine.condvar_wake_ns
                                };
                                self.breakdown[c].barrier_ns += resume - at;
                                self.ready[c] = resume;
                            }
                        }
                    }
                    bar.arrived.clear();
                    // A release retimes every core at once: one flat pass
                    // instead of p root-walks. Uniform (broadcast) releases
                    // take the template fill; condvar releases, whose
                    // per-core resume times differ, rebuild with compares.
                    if self.tsize > 0 {
                        match uniform_resume {
                            Some(resume) => self.tree_fill_uniform(resume),
                            None => self.tree_rebuild(),
                        }
                    }
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
            Op::Access {
                server,
                n,
                service_ns,
                local_ns,
                contended_ns,
            } => {
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

    #[test]
    fn single_core_compute_only() {
        let p = Program {
            name: "t".into(),
            cores: vec![vec![Op::Compute { ns: 1000 }, Op::Compute { ns: 500 }]],
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
            n: 10,
            service_ns: 100,
            local_ns: 0,
            contended_ns: 0,
        };
        let p = Program {
            name: "t".into(),
            cores: vec![vec![access], vec![access]],
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
                    n: 10,
                    service_ns: 100,
                    local_ns: 0,
                    contended_ns: 0,
                }],
                vec![Op::Access {
                    server: 1,
                    n: 10,
                    service_ns: 100,
                    local_ns: 0,
                    contended_ns: 0,
                }],
            ],
            barriers: vec![],
        };
        let r = run(&p, &machine());
        assert_eq!(r.total_ns, 1000);
    }

    #[test]
    fn contended_penalty_applies_only_when_busy() {
        let access = |srv| Op::Access {
            server: srv,
            n: 1,
            service_ns: 100,
            local_ns: 0,
            contended_ns: 5000,
        };
        // Same server: second comer pays the penalty.
        let p = Program {
            name: "t".into(),
            cores: vec![vec![access(0)], vec![access(0)]],
            barriers: vec![],
        };
        let r = run(&p, &machine());
        assert_eq!(r.total_ns, 100 + 100 + 5000);
        // Different servers: nobody pays it.
        let p2 = Program {
            name: "t".into(),
            cores: vec![vec![access(0)], vec![access(1)]],
            barriers: vec![],
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
                        n: 5,
                        service_ns: 60,
                        local_ns: 10,
                        contended_ns: 0,
                    },
                    Op::Barrier { id: 0 },
                ]
            })
            .collect::<Vec<_>>();
        let p = Program {
            name: "t".into(),
            cores,
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
            barriers: vec![BarrierKind::Sense],
        };
        let r = run(&p, &machine());
        assert!(r.total_ns > 0);
        // All cores end at the same episode count — validated structurally.
    }

    /// A deliberately heterogeneous program: staggered compute, shared and
    /// private servers, contention penalties, and every barrier kind in one
    /// stream.
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
                        n: 1 + c64 % 5,
                        service_ns: 40,
                        local_ns: 12,
                        contended_ns: 90,
                    },
                    Op::Barrier { id: 0 },
                    Op::Access {
                        server: (c % 3) as u32,
                        n: 3,
                        service_ns: 25,
                        local_ns: 5,
                        contended_ns: 0,
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
            barriers: vec![kind, BarrierKind::Sense],
        }
    }

    #[test]
    fn engine_matches_reference_across_kinds_and_core_counts() {
        let m = machine();
        let mut engine = Engine::new();
        for kind in [BarrierKind::Sense, BarrierKind::Condvar, BarrierKind::Tree] {
            for p in [1, 2, 3, 4, 8, 16, 33, 64] {
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
            for p in [33, 100, 256, 512, 777, 1024] {
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
        let program = |cores: Vec<Vec<Op>>, nbarriers| Program {
            name: "bad".into(),
            cores,
            barriers: vec![BarrierKind::Sense; nbarriers],
        };
        // Leaves scratch for barriers 0 and 1 behind before each bad run.
        let two_barriers = program(vec![vec![c, b(0), b(1)]; 3], 2);
        let bad = [
            ("undefined id", program(vec![vec![b(3)], vec![c, b(3)]], 1)),
            (
                "id defined only by the previous program",
                program(vec![vec![b(0), b(1)]; 2], 1),
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
