//! Elimination-backoff Treiber stack with real node reclamation.
//!
//! The base is the classic Treiber stack (orderings from [`TreiberSpec`],
//! the same table the suite's retire-list stack ships). On CAS failure —
//! the contention signal — operations visit an *exchange slot* instead of
//! hammering the head ([`EliminationSpec`] orderings):
//!
//! - a **pusher** installs its node into the slot (`install` CAS), waits a
//!   short window, then withdraws (`withdraw` CAS). A failed withdraw means
//!   a popper took the node: the pair eliminated, never touching the head.
//! - a **popper** that sees an offer publishes a hazard on it, re-validates
//!   the slot, and claims the node with the `take` CAS; the win grants the
//!   unique right to the value, after which the node is *retired* (never
//!   freed inline — a stale slot read elsewhere may still hold the
//!   pointer, and retire-not-free is exactly what makes that harmless).
//!
//! The pusher keeps a hazard on its own offered node for the whole
//! install/withdraw window, so under hazard-pointer reclamation the node
//! cannot be freed-and-reallocated into a colliding offer before the
//! withdraw CAS resolves the handshake.
//!
//! `head`, the slot and the nodes' links are [`Atomics`] words and the
//! payloads cells, so `splash4-check` (experiment `R1-reclaim`) explores
//! this stack itself over both reclaimers; a slot CAS torn into a blind
//! store — offer taken *and* withdrawn — is its duplicate-take mutant.

use crate::node::Node;
use crate::Reclaimer;
use splash4_parmacs::atomics::{Atomics, Std, Word};
use splash4_parmacs::{
    CachePadded, Counter, EliminationSpec, SyncCounters, TaskQueue, TraceEvent, TreiberSpec,
};
use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Spin iterations a pusher leaves its offer in the exchange slot.
const ELIM_WINDOW: usize = 64;

/// What the model checker calls a node's payload cell and its link.
const NODE: [&str; 2] = ["elim.node.value", "elim.node.next"];

/// Elimination-backoff LIFO stack (see the module docs).
pub struct EliminationStack<T, A: Atomics = Std> {
    head: CachePadded<A::Ptr<Node<T, A>>>,
    /// The exchange slot: null, or a pusher's offered node.
    slot: CachePadded<A::Ptr<Node<T, A>>>,
    /// Approximate length: incremented before a push publishes, decremented
    /// after a successful pop. Exact at quiescence.
    len: CachePadded<AtomicUsize>,
    reclaimer: Arc<dyn Reclaimer>,
    stats: Arc<SyncCounters>,
}

// SAFETY: each value moves from one pushing thread to exactly one popping
// thread (`T: Send`); node lifetime follows the reclamation protocol.
unsafe impl<T: Send, A: Atomics> Send for EliminationStack<T, A> {}
unsafe impl<T: Send, A: Atomics> Sync for EliminationStack<T, A> {}

impl<T: Send, A: Atomics> EliminationStack<T, A> {
    /// Empty stack whose nodes are reclaimed through `reclaimer`, shipping
    /// [`TreiberSpec::SPLASH4`] + [`EliminationSpec::SPLASH4`] orderings
    /// and reporting into `stats`.
    pub fn new(reclaimer: Arc<dyn Reclaimer>, stats: Arc<SyncCounters>) -> EliminationStack<T, A> {
        EliminationStack {
            head: CachePadded::new(A::Ptr::new("elim.head", ptr::null_mut())),
            slot: CachePadded::new(A::Ptr::new("elim.slot", ptr::null_mut())),
            len: CachePadded::new(AtomicUsize::new(0)),
            reclaimer,
            stats,
        }
    }

    /// Push `value`. Never blocks, never fails.
    pub fn push(&self, value: T) {
        self.stats.bump(Counter::QueueOps);
        self.stats.trace(TraceEvent::Queue);
        let s = A::spec(TreiberSpec::SPLASH4);
        let e = A::spec(EliminationSpec::SPLASH4);
        let node: *mut Node<T, A> = Node::boxed(NODE, Some(value));
        // Count before publishing (either path): increment happens-before
        // the publishing CAS, which happens-before the matching pop's
        // decrement — no underflow.
        self.len.fetch_add(1, Ordering::Relaxed);
        let slot = self.reclaimer.enter();
        loop {
            let head = self.head.load(s.push_load);
            // The new node is unpublished: plain ordering suffices here,
            // the publishing CAS releases it.
            // SAFETY: `node` is owned by this thread until published.
            unsafe { (*node).next.store(head, e.next_store) };
            self.stats.bump(Counter::AtomicRmws);
            if self
                .head
                .compare_exchange(head, node, s.push_cas_ok, s.push_cas_fail)
                .is_ok()
            {
                break;
            }
            self.stats.bump(Counter::CasFailures);
            if self.try_eliminate_push(slot, node) {
                break;
            }
        }
        self.reclaimer.exit(slot);
    }

    /// Pop the most recent value; `None` when the stack is observed empty.
    pub fn pop(&self) -> Option<T> {
        let s = A::spec(TreiberSpec::SPLASH4);
        let e = A::spec(EliminationSpec::SPLASH4);
        let slot = self.reclaimer.enter();
        let result = loop {
            let head = self.head.load(s.pop_load);
            if head.is_null() {
                // Empty stack — but a pending elimination offer is
                // logically pushed; taking it is linearizable.
                break self.try_eliminate_pop(slot);
            }
            // Publish-then-revalidate before dereferencing `head`.
            let validate = self.reclaimer.protect(slot, 0, head.cast());
            if self.head.load(validate) != head {
                continue;
            }
            // SAFETY: `head` is hazard-protected and re-validated above.
            let next = unsafe { (*head).next.load(e.next_load) };
            self.stats.bump(Counter::AtomicRmws);
            if self
                .head
                .compare_exchange(head, next, s.pop_cas_ok, s.pop_cas_fail)
                .is_ok()
            {
                // SAFETY: unique take right from the unlinking CAS win.
                let value = unsafe { Node::take_value(head) };
                self.len.fetch_sub(1, Ordering::Relaxed);
                // SAFETY: unlinked by the winning CAS, retired once.
                unsafe {
                    self.reclaimer
                        .retire(slot, head.cast(), Node::<T, A>::drop_erased)
                };
                break value;
            }
            self.stats.bump(Counter::CasFailures);
            if let Some(value) = self.try_eliminate_pop(slot) {
                break Some(value);
            }
        };
        self.reclaimer.exit(slot);
        if result.is_some() {
            self.stats.bump(Counter::QueueOps);
            self.stats.trace(TraceEvent::Queue);
        }
        result
    }

    /// Offer `node` in the exchange slot for one window; true on handoff.
    fn try_eliminate_push(&self, slot: usize, node: *mut Node<T, A>) -> bool {
        let e = A::spec(EliminationSpec::SPLASH4);
        // Keep a hazard on our own offer: a popper may take and retire it,
        // and the withdraw CAS below must not race a free-and-realloc of
        // this address (epoch back-ends cover this with the open region).
        self.reclaimer.protect(slot, 0, node.cast());
        self.stats.bump(Counter::AtomicRmws);
        if self
            .slot
            .compare_exchange(ptr::null_mut(), node, e.install_cas_ok, e.install_cas_fail)
            .is_err()
        {
            // Slot busy with another pusher's offer: no pairing possible.
            self.stats.bump(Counter::CasFailures);
            self.reclaimer.protect(slot, 0, ptr::null_mut());
            return false;
        }
        // Leave early when taken mid-window; the withdraw below confirms.
        self.slot.poll_while(node, ELIM_WINDOW, e.slot_load);
        self.stats.bump(Counter::AtomicRmws);
        let withdrawn = self
            .slot
            .compare_exchange(
                node,
                ptr::null_mut(),
                e.withdraw_cas_ok,
                e.withdraw_cas_fail,
            )
            .is_ok();
        self.reclaimer.protect(slot, 0, ptr::null_mut());
        if withdrawn {
            // Nobody bit: we still own the node; retry the main stack.
            self.stats.bump(Counter::CasFailures);
            false
        } else {
            // A popper claimed the offer (and owns the node now): the pair
            // eliminated.
            true
        }
    }

    /// Claim a pending exchange offer, if any.
    fn try_eliminate_pop(&self, slot: usize) -> Option<T> {
        let e = A::spec(EliminationSpec::SPLASH4);
        let offer = self.slot.load(e.slot_load);
        if offer.is_null() {
            return None;
        }
        // Publish-then-revalidate: only an offer still installed after the
        // hazard store may be claimed (retire-not-free then keeps a stale
        // pointer harmless even if the revalidation races a withdraw).
        let validate = self.reclaimer.protect(slot, 1, offer.cast());
        if self.slot.load(validate) != offer {
            self.reclaimer.protect(slot, 1, ptr::null_mut());
            return None;
        }
        self.stats.bump(Counter::AtomicRmws);
        let taken = self
            .slot
            .compare_exchange(offer, ptr::null_mut(), e.take_cas_ok, e.take_cas_fail)
            .is_ok();
        let value = if taken {
            // SAFETY: winning the take CAS grants the unique right to the
            // offered value; the hazard (or open epoch region) keeps the
            // node alive while we read it.
            let value = unsafe { Node::take_value(offer) };
            self.len.fetch_sub(1, Ordering::Relaxed);
            // SAFETY: the offer is now unlinked from the slot and the
            // owning pusher saw (or will see) its withdraw fail — this
            // claimant alone retires it.
            unsafe {
                self.reclaimer
                    .retire(slot, offer.cast(), Node::<T, A>::drop_erased)
            };
            value
        } else {
            self.stats.bump(Counter::CasFailures);
            None
        };
        self.reclaimer.protect(slot, 1, ptr::null_mut());
        value
    }

    /// Approximate number of stacked values (exact at quiescence).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the stack is observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Destroy every retired node the reclamation protocol can prove
    /// unreachable (everything, when callers are quiescent).
    pub fn flush(&self) {
        self.reclaimer.flush();
    }

    /// Exact reclamation tallies for this stack's reclaimer.
    pub fn reclaim_stats(&self) -> crate::ReclaimStats {
        self.reclaimer.reclaim_stats()
    }
}

impl<T: Send, A: Atomics> TaskQueue<T> for EliminationStack<T, A> {
    fn push(&self, task: T) {
        EliminationStack::push(self, task)
    }

    fn pop(&self) -> Option<T> {
        EliminationStack::pop(self)
    }

    fn len(&self) -> usize {
        EliminationStack::len(self)
    }
}

impl<T, A: Atomics> Drop for EliminationStack<T, A> {
    fn drop(&mut self) {
        // Exclusive access: free the chain and any unpaired offer inline.
        // SAFETY: `&mut self` — each node is owned by the chain, and an
        // offer still in the slot by the stack, now that no pusher thread
        // can be live; an offer's link is null or stale, never followed.
        unsafe {
            Node::free_chain(self.head.load_mut());
            let offer = self.slot.load_mut();
            if !offer.is_null() {
                A::free(offer);
            }
        }
    }
}

impl<T, A: Atomics> fmt::Debug for EliminationStack<T, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EliminationStack")
            .field("len", &self.len.load(Ordering::Relaxed))
            .field("reclaimer", &self.reclaimer)
            .finish()
    }
}
