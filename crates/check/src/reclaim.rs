//! R1-reclaim: model checking for `splash4-reclaim` — the dynamic pools
//! (Michael-Scott queue, elimination-backoff stack) and both reclamation
//! protocols (epoch-based, hazard-pointer).
//!
//! Two kinds of shadow here:
//!
//! * **Structure shadows** ([`ShadowMsQueue`], [`ShadowEliminationStack`])
//!   mirror the pool state machines operation for operation, reading their
//!   orderings from the same [`splash4_parmacs::spec`] tables the real
//!   code consumes. Nodes are modelled as engine allocations that are never
//!   reused, so the structural scenarios are ABA-free for the same reason
//!   the real code is (retire-not-free); linearizability against
//!   [`SpecModel::Fifo`] / [`SpecModel::Stack`] plus a value-conservation
//!   finale are the checked properties.
//! * **Protocol shadows** ([`epoch_reclaim_scenario`],
//!   [`hazard_reclaim_scenario`]) model reclamation itself: *freeing* a
//!   node is a plain-data poison write, so a protocol that frees while a
//!   reader's protected region can still reach the node shows up as a
//!   **data race** (no happens-before edge between the free and the read)
//!   or a poisoned-value invariant — a modelled use-after-free. A finale
//!   counts frees against retirements, so never reclaiming is a modelled
//!   **leak at quiescence**.
//!
//! The mutant catalog seeds the four bug classes the subsystem must catch:
//! premature free, never-retire leak, a lost link CAS on the MS-queue tail,
//! and a non-linearizable elimination exchange (plus a skipped
//! hazard-pointer revalidation).

use crate::engine::{Peek, Sandbox, ThreadCtx};
use crate::linearize::{Op, RetVal, SpecModel};
use crate::suite::{
    run_mutant_catalog, run_rows, CheckBudget, ConstructReport, MutantCatalog, MutantReport, Rows,
};
use splash4_parmacs::{EliminationSpec, EpochSpec, HazardSpec, MsQueueSpec, TreiberSpec};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Sentinel for "thread outside any protected region" in the epoch shadow.
const QUIESCENT: u64 = u64::MAX;

/// Value a freed (reclaimed) shadow node is poisoned with; any protected
/// read observing it is a modelled use-after-free.
const POISON: u64 = 0xDEAD;

/// Shadow of `splash4_reclaim::MsQueue`: the Michael-Scott FIFO with a
/// dummy node, helping tail swings, and dynamically allocated nodes whose
/// `next` links are engine atomics.
#[derive(Clone)]
pub struct ShadowMsQueue {
    head: usize,
    tail: usize,
    /// Node table: `ptr - 1` indexes `(next-atomic loc, value-data loc)`;
    /// pointer 0 is null.
    nodes: Arc<Mutex<Vec<(usize, usize)>>>,
    /// Values returned by successful pops, for the conservation finale.
    popped: Arc<Mutex<Vec<u64>>>,
    spec: MsQueueSpec,
    /// Mutant: the link CAS on `tail.next` becomes a blind store, silently
    /// overwriting a concurrently linked node.
    lost_link: bool,
}

impl std::fmt::Debug for ShadowMsQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowMsQueue").finish()
    }
}

impl ShadowMsQueue {
    /// Allocate the queue's shadow state (head, tail, the dummy node).
    pub fn new(sb: &Sandbox, spec: MsQueueSpec, lost_link: bool) -> ShadowMsQueue {
        let dummy_next = sb.alloc_atomic("msq.node.next", 0);
        let dummy_value = sb.alloc_data("msq.node.value", 0);
        ShadowMsQueue {
            head: sb.alloc_atomic("msq.head", 1),
            tail: sb.alloc_atomic("msq.tail", 1),
            nodes: Arc::new(Mutex::new(vec![(dummy_next, dummy_value)])),
            popped: Arc::new(Mutex::new(Vec::new())),
            spec,
            lost_link,
        }
    }

    fn next_loc(&self, ptr: u64) -> usize {
        self.nodes.lock().unwrap()[ptr as usize - 1].0
    }

    fn value_loc(&self, ptr: u64) -> usize {
        self.nodes.lock().unwrap()[ptr as usize - 1].1
    }

    /// Enqueue `v` (allocates a node, links it with the tail-next CAS,
    /// helps swing a lagging tail).
    pub fn push(&self, ctx: &ThreadCtx, v: u64) {
        ctx.invoke(Op::Enqueue(v));
        let s = self.spec;
        let ptr = {
            let next = ctx.alloc_atomic("msq.node.next", 0);
            let value = ctx.alloc_data("msq.node.value", 0);
            let mut nodes = self.nodes.lock().unwrap();
            nodes.push((next, value));
            nodes.len() as u64
        };
        ctx.data_write(self.value_loc(ptr), v);
        loop {
            let t = ctx.op_load(self.tail, s.ptr_load);
            let tnext = self.next_loc(t);
            let n = ctx.op_load(tnext, s.next_load);
            if n != 0 {
                // Tail lags: help swing it, then retry.
                let _ = ctx.op_cas(self.tail, t, n, s.tail_swing_ok, s.tail_swing_fail);
                continue;
            }
            if self.lost_link {
                // Mutant: blind store instead of the linearizing CAS — a
                // node linked between our load and this store is lost.
                ctx.op_store(tnext, ptr, Ordering::Release);
                let _ = ctx.op_cas(self.tail, t, ptr, s.tail_swing_ok, s.tail_swing_fail);
                break;
            }
            if ctx
                .op_cas(tnext, 0, ptr, s.link_cas_ok, s.link_cas_fail)
                .is_ok()
            {
                let _ = ctx.op_cas(self.tail, t, ptr, s.tail_swing_ok, s.tail_swing_fail);
                break;
            }
        }
        ctx.ret(RetVal::Unit);
    }

    /// Dequeue from the head; the winner of the head CAS reads the value
    /// out of the *new* dummy, exactly as the real queue does.
    pub fn pop(&self, ctx: &ThreadCtx) -> Option<u64> {
        ctx.invoke(Op::Dequeue);
        let s = self.spec;
        loop {
            let h = ctx.op_load(self.head, s.ptr_load);
            let t = ctx.op_load(self.tail, s.ptr_load);
            let n = ctx.op_load(self.next_loc(h), s.next_load);
            if n == 0 {
                ctx.ret(RetVal::Empty);
                return None;
            }
            if h == t {
                // Non-empty but tail lags: help swing, then retry.
                let _ = ctx.op_cas(self.tail, t, n, s.tail_swing_ok, s.tail_swing_fail);
                continue;
            }
            if ctx
                .op_cas(self.head, h, n, s.head_cas_ok, s.head_cas_fail)
                .is_ok()
            {
                let v = ctx.data_read(self.value_loc(n));
                self.popped.lock().unwrap().push(v);
                ctx.ret(RetVal::Val(v));
                return Some(v);
            }
        }
    }

    /// Conservation finale: popped values plus values still reachable from
    /// the head must be exactly the pushed multiset (a lost link drops one).
    pub fn conserve(&self, peek: &Peek, pushed: &[u64]) -> Result<(), String> {
        let mut have: Vec<u64> = self.popped.lock().unwrap().clone();
        let mut p = peek.atomic(self.head);
        loop {
            let n = peek.atomic(self.next_loc(p));
            if n == 0 {
                break;
            }
            have.push(peek.data(self.value_loc(n)));
            p = n;
        }
        have.sort_unstable();
        let mut want = pushed.to_vec();
        want.sort_unstable();
        if have == want {
            Ok(())
        } else {
            Err(format!(
                "queue lost or duplicated values: have {have:?}, pushed {want:?}"
            ))
        }
    }
}

/// Shadow of `splash4_reclaim::EliminationStack`: a Treiber base plus the
/// exchange slot. Pushers offer into the slot first (modelling the
/// contention path directly); the install→withdraw window is two schedule
/// points, so the checker explores both the eliminated and the
/// fell-through outcome of every offer.
#[derive(Debug, Clone, Copy)]
pub struct ShadowEliminationStack {
    head: usize,
    slot: usize,
    spec: TreiberSpec,
    elim: EliminationSpec,
    /// Mutant: the popper returns the offered value without winning the
    /// take CAS, so the pusher's withdraw also succeeds — one push, two
    /// deliveries.
    duplicate_take: bool,
}

impl ShadowEliminationStack {
    /// Allocate the stack's shadow state (head and exchange slot).
    pub fn new(
        sb: &Sandbox,
        spec: TreiberSpec,
        elim: EliminationSpec,
        duplicate_take: bool,
    ) -> ShadowEliminationStack {
        ShadowEliminationStack {
            head: sb.alloc_atomic("elim.head", 0),
            slot: sb.alloc_atomic("elim.slot", 0),
            spec,
            elim,
            duplicate_take,
        }
    }

    /// Push `v`: offer in the exchange slot, withdraw, fall back to the
    /// Treiber head on an unpaired offer.
    pub fn push(&self, ctx: &ThreadCtx, v: u64) {
        ctx.invoke(Op::Push(v));
        let e = self.elim;
        // Same node layout as the Treiber shadow: value at `ptr - 1`,
        // next at `ptr`, pointer 0 is null.
        let vloc = ctx.alloc_data("elim.node.value", 0);
        let nloc = ctx.alloc_data("elim.node.next", 0);
        debug_assert_eq!(nloc, vloc + 1);
        let ptr = (vloc + 1) as u64;
        ctx.data_write(vloc, v);
        let offered = ctx
            .op_cas(self.slot, 0, ptr, e.install_cas_ok, e.install_cas_fail)
            .is_ok();
        if offered {
            // Withdraw after the window; failure means a popper claimed
            // the offer — the pair eliminated without touching the head.
            if ctx
                .op_cas(self.slot, ptr, 0, e.withdraw_cas_ok, e.withdraw_cas_fail)
                .is_err()
            {
                ctx.ret(RetVal::Unit);
                return;
            }
        }
        self.stack_push(ctx, ptr);
        ctx.ret(RetVal::Unit);
    }

    fn stack_push(&self, ctx: &ThreadCtx, ptr: u64) {
        let s = self.spec;
        let mut head = ctx.op_load(self.head, s.push_load);
        loop {
            ctx.data_write(ptr as usize, head);
            match ctx.op_cas(self.head, head, ptr, s.push_cas_ok, s.push_cas_fail) {
                Ok(_) => break,
                Err(actual) => head = actual,
            }
        }
    }

    /// Pop: claim a pending exchange offer if one is visible, otherwise
    /// pop the Treiber head.
    pub fn pop(&self, ctx: &ThreadCtx) -> Option<u64> {
        ctx.invoke(Op::Pop);
        let e = self.elim;
        let offer = ctx.op_load(self.slot, e.slot_load);
        if offer != 0 {
            if self.duplicate_take {
                // Mutant: read the value without claiming the offer.
                let v = ctx.data_read(offer as usize - 1);
                ctx.ret(RetVal::Val(v));
                return Some(v);
            }
            if ctx
                .op_cas(self.slot, offer, 0, e.take_cas_ok, e.take_cas_fail)
                .is_ok()
            {
                let v = ctx.data_read(offer as usize - 1);
                ctx.ret(RetVal::Val(v));
                return Some(v);
            }
        }
        let s = self.spec;
        let mut head = ctx.op_load(self.head, s.pop_load);
        loop {
            if head == 0 {
                ctx.ret(RetVal::Empty);
                return None;
            }
            let next = ctx.data_read(head as usize);
            match ctx.op_cas(self.head, head, next, s.pop_cas_ok, s.pop_cas_fail) {
                Ok(_) => {
                    let v = ctx.data_read(head as usize - 1);
                    ctx.ret(RetVal::Val(v));
                    return Some(v);
                }
                Err(actual) => head = actual,
            }
        }
    }
}

/// Michael-Scott queue workload: three threads mixing pushes and pops over
/// the FIFO spec, with a value-conservation finale.
pub fn ms_queue_scenario(lost_link: bool) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let q = ShadowMsQueue::new(sb, MsQueueSpec::SPLASH4, lost_link);
        sb.spec(SpecModel::Fifo(VecDeque::new()));
        let peek = sb.peek();
        let q0 = q.clone();
        sb.thread(move |ctx| {
            q0.push(ctx, 1);
            q0.push(ctx, 2);
        });
        let q1 = q.clone();
        sb.thread(move |ctx| {
            q1.push(ctx, 3);
            q1.pop(ctx);
        });
        let q2 = q.clone();
        sb.thread(move |ctx| {
            q2.pop(ctx);
        });
        sb.finale(move || q.conserve(&peek, &[1, 2, 3]));
    }
}

/// Elimination-stack workload: an offering pusher, a claiming popper, and a
/// mixed thread, checked against the LIFO spec.
pub fn elimination_scenario(duplicate_take: bool) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let st = ShadowEliminationStack::new(
            sb,
            TreiberSpec::SPLASH4,
            EliminationSpec::SPLASH4,
            duplicate_take,
        );
        sb.spec(SpecModel::Stack(Vec::new()));
        sb.thread(move |ctx| {
            st.push(ctx, 1);
        });
        sb.thread(move |ctx| {
            st.pop(ctx);
        });
        sb.thread(move |ctx| {
            st.push(ctx, 2);
            st.pop(ctx);
        });
    }
}

/// Epoch-reclamation protocol workload.
///
/// Two readers run protected regions (announce-and-revalidate, conditional
/// node read, quiesce); an owner unlinks the node, retires it, advances the
/// global epoch twice — blocking on any reader still announcing an older
/// epoch — and only then frees (poisons) it. The checked properties: the
/// free never races a protected read (use-after-free) and the finale sees
/// the retired node freed (no leak at quiescence).
pub fn epoch_reclaim_scenario(
    premature_free: bool,
    never_retire: bool,
) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let s = EpochSpec::SPLASH4;
        let global = sb.alloc_atomic("epoch.global", 0);
        let announces = [
            sb.alloc_atomic("epoch.announce0", QUIESCENT),
            sb.alloc_atomic("epoch.announce1", QUIESCENT),
        ];
        let src = sb.alloc_atomic("epoch.src", 1);
        let node = sb.alloc_data("epoch.node", 42);
        let freed = sb.alloc_data("epoch.freed", 0);
        let peek = sb.peek();
        for announce in announces {
            sb.thread(move |ctx| {
                // Enter: announce-and-revalidate until the announcement
                // matches the global epoch.
                loop {
                    let e = ctx.op_load(global, s.global_load);
                    ctx.op_store(announce, e, s.announce_store);
                    if ctx.op_load(global, s.global_load) == e {
                        break;
                    }
                }
                // Only a node still reachable may be dereferenced.
                let p = ctx.op_load(src, Ordering::Acquire);
                if p != 0 {
                    let v = ctx.data_read(node);
                    ctx.check(
                        v == 42,
                        "protected epoch read observed a freed node (use-after-free)",
                    );
                }
                ctx.op_store(announce, QUIESCENT, s.quiesce_store);
            });
        }
        sb.thread(move |ctx| {
            // Unlink, then retire at the current epoch.
            ctx.op_store(src, 0, Ordering::Release);
            if never_retire {
                // Mutant: the unlinked node is simply forgotten.
                return;
            }
            let e0 = ctx.op_load(global, s.global_load);
            if !premature_free {
                // Two advances; each waits until every announcement is
                // quiescent or already at the current global epoch.
                for _ in 0..2 {
                    loop {
                        let g = ctx.op_load(global, s.global_load);
                        let a0 = ctx.op_load(announces[0], s.scan_load);
                        let a1 = ctx.op_load(announces[1], s.scan_load);
                        if (a0 == QUIESCENT || a0 == g) && (a1 == QUIESCENT || a1 == g) {
                            let _ =
                                ctx.op_cas(global, g, g + 1, s.advance_cas_ok, s.advance_cas_fail);
                            break;
                        }
                        let lagging = if a0 != QUIESCENT && a0 != g {
                            announces[0]
                        } else {
                            announces[1]
                        };
                        // Re-check immediately before parking: the engine
                        // cannot preempt between a load and the following
                        // block_on, so this load-then-block pair cannot
                        // lose the reader's quiesce store.
                        let a = ctx.op_load(lagging, s.scan_load);
                        if a != QUIESCENT && a != g {
                            ctx.block_on(lagging);
                        }
                    }
                }
                let g = ctx.op_load(global, s.global_load);
                ctx.check(
                    e0 + 2 <= g,
                    "free requires the global epoch two past retirement",
                );
            }
            // Free = poison; premature_free skips the advances entirely.
            ctx.data_write(node, POISON);
            ctx.data_write(freed, 1);
        });
        sb.finale(move || {
            if peek.data(freed) == 1 {
                Ok(())
            } else {
                Err("leak at quiescence: 1 node retired, 0 freed".to_string())
            }
        });
    }
}

/// Hazard-pointer protocol workload.
///
/// Two readers publish a hazard on the shared node and re-validate its
/// reachability before reading; the owner unlinks the node, then scans
/// both hazard records — blocking on any record still naming the node —
/// and frees (poisons) it once unprotected. Same checked properties as the
/// epoch scenario: no racy free, no leak at quiescence.
pub fn hazard_reclaim_scenario(skip_validation: bool) -> impl Fn(&mut Sandbox) + Sync {
    move |sb: &mut Sandbox| {
        let s = HazardSpec::SPLASH4;
        let src = sb.alloc_atomic("hazard.src", 1);
        let records = [
            sb.alloc_atomic("hazard.hp0", 0),
            sb.alloc_atomic("hazard.hp1", 0),
        ];
        let node = sb.alloc_data("hazard.node", 42);
        let freed = sb.alloc_data("hazard.freed", 0);
        let peek = sb.peek();
        for record in records {
            sb.thread(move |ctx| {
                let p = ctx.op_load(src, Ordering::Acquire);
                if p != 0 {
                    ctx.op_store(record, p, s.publish_store);
                    // A publication only protects if the pointer is still
                    // reachable afterwards; the mutant skips this check.
                    let valid = skip_validation || ctx.op_load(src, s.validate_load) == p;
                    if valid {
                        let v = ctx.data_read(node);
                        ctx.check(
                            v == 42,
                            "validated hazard read observed a freed node (use-after-free)",
                        );
                    }
                    ctx.op_store(record, 0, s.clear_store);
                }
            });
        }
        sb.thread(move |ctx| {
            // Unlink (the structure-side linearization), retire, scan.
            ctx.op_store(src, 0, Ordering::Release);
            for record in records {
                loop {
                    if ctx.op_load(record, s.scan_load) == 0 {
                        break;
                    }
                    ctx.block_on(record);
                }
            }
            ctx.data_write(node, POISON);
            ctx.data_write(freed, 1);
        });
        sb.finale(move || {
            if peek.data(freed) == 1 {
                Ok(())
            } else {
                Err("leak at quiescence: 1 node retired, 0 freed".to_string())
            }
        });
    }
}

/// Check the reclaim subsystem's constructs. Deterministic for a fixed
/// budget, like [`crate::check_suite`].
pub fn check_reclaim(budget: &CheckBudget) -> Vec<ConstructReport> {
    // Indices sit past the V1 constructs' so the seeds differ.
    let rows: Rows = vec![
        (
            20,
            "pool/ms-queue",
            "linearizable FIFO, value conservation",
            Box::new(ms_queue_scenario(false)),
        ),
        (
            21,
            "pool/elimination",
            "linearizable LIFO with exchange, race-free",
            Box::new(elimination_scenario(false)),
        ),
        (
            22,
            "reclaim/epoch",
            "no use-after-free, no leak at quiescence",
            Box::new(epoch_reclaim_scenario(false, false)),
        ),
        (
            23,
            "reclaim/hazard",
            "no use-after-free, no leak at quiescence",
            Box::new(hazard_reclaim_scenario(false)),
        ),
    ];
    run_rows(rows, budget)
}

/// The reclaim mutant catalog: the four seeded bug classes of the
/// subsystem, plus a skipped hazard revalidation.
pub fn reclaim_mutants() -> MutantCatalog {
    vec![
        (
            "epoch-premature-free",
            "epoch reclaimer frees at retire without advancing past active readers",
            &["data-race", "invariant"] as &[_],
            Box::new(epoch_reclaim_scenario(true, false)),
        ),
        (
            "epoch-never-retire",
            "unlinked nodes are never retired: leak at quiescence",
            &["invariant"] as &[_],
            Box::new(epoch_reclaim_scenario(false, true)),
        ),
        (
            "ms-queue-lost-link",
            "MsQueue link CAS on tail.next replaced by a blind store",
            &["invariant", "not-linearizable"] as &[_],
            Box::new(ms_queue_scenario(true)),
        ),
        (
            "elimination-duplicate-take",
            "elimination popper reads the offer without claiming it: one push, two pops",
            &["not-linearizable", "invariant"] as &[_],
            Box::new(elimination_scenario(true)),
        ),
        (
            "hazard-skip-validation",
            "hazard read skips the post-publish revalidation",
            &["data-race", "invariant"] as &[_],
            Box::new(hazard_reclaim_scenario(true)),
        ),
    ]
}

/// Run the checker against the reclaim mutant catalog.
pub fn check_reclaim_mutants(budget: &CheckBudget) -> Vec<MutantReport> {
    run_mutant_catalog(reclaim_mutants(), budget, 400)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Verdict;

    #[test]
    fn clean_reclaim_constructs_pass_at_small_budget() {
        for row in check_reclaim(&CheckBudget::small(17)) {
            assert_eq!(
                row.verdict,
                Verdict::Pass,
                "{}: {}",
                row.construct,
                row.counterexample
            );
            assert!(
                row.schedules >= 200,
                "{}: only {} schedules",
                row.construct,
                row.schedules
            );
        }
    }

    #[test]
    fn all_reclaim_mutants_are_detected_at_small_budget() {
        for m in check_reclaim_mutants(&CheckBudget::small(19)) {
            assert!(m.detected, "{} not detected: {}", m.name, m.counterexample);
        }
    }

    #[test]
    fn reclaim_counterexamples_replay_deterministically() {
        let budget = CheckBudget::small(23);
        let caught = check_reclaim_mutants(&budget)
            .into_iter()
            .find(|m| m.detected)
            .expect("at least one mutant detected");
        assert_ne!(caught.counterexample, "-");
    }
}
