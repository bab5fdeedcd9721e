//! Michael-Scott lock-free FIFO queue with real node reclamation.
//!
//! The 1996 two-pointer algorithm: a dummy node anchors the queue; `push`
//! links after the last node with a CAS on `tail.next` (the linearization
//! point) and then helps swing `tail`; `pop` advances `head` with a CAS,
//! takes the value out of the *new* dummy, and retires the old one.
//!
//! Reclamation contract (per [`Reclaimer`]):
//! - every traversal runs inside an `enter`/`exit` region;
//! - `head`/`tail` reads publish hazard 0 and re-validate — a re-read with
//!   the ordering `protect` returns: under hazard pointers `SeqCst` like
//!   the publication, or the pair is a store-buffering window — before
//!   dereferencing; the dequeue's `next` read publishes hazard 1 so the
//!   value can be taken out of the new dummy even if another thread pops
//!   (and retires) it concurrently;
//! - the popped dummy is retired, never freed inline.
//!
//! Orderings come from [`MsQueueSpec`]; `head`, `tail` and the nodes' links
//! are [`Atomics`] words and the payloads cells, so `splash4-check`
//! (experiment `R1-reclaim`) explores this queue itself over both
//! reclaimers, and a link CAS torn into a blind store is its lost-link
//! mutant.

use crate::node::Node;
use crate::Reclaimer;
use splash4_parmacs::atomics::{Atomics, Std, Word};
use splash4_parmacs::{CachePadded, Counter, MsQueueSpec, SyncCounters, TaskQueue, TraceEvent};
use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What the model checker calls a node's payload cell and its link.
const NODE: [&str; 2] = ["msq.node.value", "msq.node.next"];

/// Michael-Scott FIFO queue (see the module docs).
pub struct MsQueue<T, A: Atomics = Std> {
    head: CachePadded<A::Ptr<Node<T, A>>>,
    tail: CachePadded<A::Ptr<Node<T, A>>>,
    /// Approximate length: incremented before a push links its node,
    /// decremented after a successful pop. Exact at quiescence.
    len: CachePadded<AtomicUsize>,
    reclaimer: Arc<dyn Reclaimer>,
    stats: Arc<SyncCounters>,
}

// SAFETY: the queue hands each value from one pushing thread to exactly one
// popping thread (`T: Send`); all shared-node management follows the
// reclamation protocol.
unsafe impl<T: Send, A: Atomics> Send for MsQueue<T, A> {}
unsafe impl<T: Send, A: Atomics> Sync for MsQueue<T, A> {}

impl<T: Send, A: Atomics> MsQueue<T, A> {
    /// Empty queue whose nodes are reclaimed through `reclaimer`, shipping
    /// [`MsQueueSpec::SPLASH4`] orderings and reporting into `stats`.
    pub fn new(reclaimer: Arc<dyn Reclaimer>, stats: Arc<SyncCounters>) -> MsQueue<T, A> {
        let dummy = Node::boxed(NODE, None);
        MsQueue {
            head: CachePadded::new(A::Ptr::new("msq.head", dummy)),
            tail: CachePadded::new(A::Ptr::new("msq.tail", dummy)),
            len: CachePadded::new(AtomicUsize::new(0)),
            reclaimer,
            stats,
        }
    }

    /// Enqueue `value` at the tail. Never blocks, never fails.
    pub fn push(&self, value: T) {
        self.stats.bump(Counter::QueueOps);
        self.stats.trace(TraceEvent::Enqueue);
        let s = A::spec(MsQueueSpec::SPLASH4);
        let node: *mut Node<T, A> = Node::boxed(NODE, Some(value));
        // Count before linking: the increment happens-before the link CAS,
        // which happens-before any pop of this node and its decrement, so
        // the counter never underflows.
        self.len.fetch_add(1, Ordering::Relaxed);
        let slot = self.reclaimer.enter();
        loop {
            let tail = self.tail.load(s.ptr_load);
            // Publish-then-revalidate: only a tail still installed after
            // the hazard store is safe to dereference.
            let validate = self.reclaimer.protect(slot, 0, tail.cast());
            if self.tail.load(validate) != tail {
                continue;
            }
            // SAFETY: `tail` is hazard-protected and re-validated above.
            let next = unsafe { (*tail).next.load(s.next_load) };
            if !next.is_null() {
                // Tail lags behind the real last node: help swing it.
                self.stats.bump(Counter::AtomicRmws);
                if self
                    .tail
                    .compare_exchange(tail, next, s.tail_swing_ok, s.tail_swing_fail)
                    .is_err()
                {
                    self.stats.bump(Counter::CasFailures);
                }
                continue;
            }
            // Linearization point: link the new node after the last one.
            self.stats.bump(Counter::AtomicRmws);
            // SAFETY: `tail` is still hazard-protected.
            let linked = unsafe {
                (*tail)
                    .next
                    .compare_exchange(ptr::null_mut(), node, s.link_cas_ok, s.link_cas_fail)
                    .is_ok()
            };
            if linked {
                // Best-effort tail swing; a failure means someone helped.
                self.stats.bump(Counter::AtomicRmws);
                if self
                    .tail
                    .compare_exchange(tail, node, s.tail_swing_ok, s.tail_swing_fail)
                    .is_err()
                {
                    self.stats.bump(Counter::CasFailures);
                }
                break;
            }
            self.stats.bump(Counter::CasFailures);
        }
        self.reclaimer.exit(slot);
    }

    /// Dequeue from the head; `None` when the queue is observed empty.
    pub fn pop(&self) -> Option<T> {
        self.stats.bump(Counter::QueueOps);
        self.stats.trace(TraceEvent::Dequeue);
        let s = A::spec(MsQueueSpec::SPLASH4);
        let slot = self.reclaimer.enter();
        let result = loop {
            let head = self.head.load(s.ptr_load);
            let validate = self.reclaimer.protect(slot, 0, head.cast());
            if self.head.load(validate) != head {
                continue;
            }
            let tail = self.tail.load(s.ptr_load);
            // SAFETY: `head` is hazard-protected and re-validated above.
            let next = unsafe { (*head).next.load(s.next_load) };
            // Protect `next` too: after we win the head CAS, `next` becomes
            // the new dummy and a concurrent pop may retire it while we are
            // still reading its value.
            let validate = self.reclaimer.protect(slot, 1, next.cast());
            if self.head.load(validate) != head {
                continue;
            }
            if next.is_null() {
                break None;
            }
            if head == tail {
                // Non-empty but tail lags: help swing, then retry.
                self.stats.bump(Counter::AtomicRmws);
                if self
                    .tail
                    .compare_exchange(tail, next, s.tail_swing_ok, s.tail_swing_fail)
                    .is_err()
                {
                    self.stats.bump(Counter::CasFailures);
                }
                continue;
            }
            // Linearization point: winning this CAS grants the unique right
            // to take `next`'s value and to retire `head`.
            self.stats.bump(Counter::AtomicRmws);
            if self
                .head
                .compare_exchange(head, next, s.head_cas_ok, s.head_cas_fail)
                .is_ok()
            {
                // SAFETY: unique take right from the CAS win; hazard 1
                // keeps `next` alive even if it is retired concurrently.
                let value = unsafe { Node::take_value(next) };
                self.len.fetch_sub(1, Ordering::Relaxed);
                // SAFETY: `head` is now unlinked and was reached by the
                // winning CAS alone; retired exactly once, its payload is
                // `None` (it was the dummy), so deferred drop is a no-op
                // beyond the box.
                unsafe {
                    self.reclaimer
                        .retire(slot, head.cast(), Node::<T, A>::drop_erased)
                };
                break value;
            }
            self.stats.bump(Counter::CasFailures);
        };
        self.reclaimer.exit(slot);
        result
    }

    /// Approximate number of queued values (exact at quiescence).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the queue is observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Destroy every retired node the reclamation protocol can prove
    /// unreachable (everything, when callers are quiescent).
    pub fn flush(&self) {
        self.reclaimer.flush();
    }

    /// Exact reclamation tallies for this queue's reclaimer.
    pub fn reclaim_stats(&self) -> crate::ReclaimStats {
        self.reclaimer.reclaim_stats()
    }
}

impl<T: Send, A: Atomics> TaskQueue<T> for MsQueue<T, A> {
    fn push(&self, task: T) {
        MsQueue::push(self, task)
    }

    fn pop(&self) -> Option<T> {
        MsQueue::pop(self)
    }

    fn len(&self) -> usize {
        MsQueue::len(self)
    }
}

impl<T, A: Atomics> Drop for MsQueue<T, A> {
    fn drop(&mut self) {
        // Exclusive access: walk the chain and free everything inline,
        // including the dummy. Values still queued drop here.
        // SAFETY: `&mut self` — no concurrent access; each node is owned by
        // the chain.
        unsafe { Node::free_chain(self.head.load_mut()) };
    }
}

impl<T, A: Atomics> fmt::Debug for MsQueue<T, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MsQueue")
            .field("len", &self.len.load(Ordering::Relaxed))
            .field("reclaimer", &self.reclaimer)
            .finish()
    }
}
