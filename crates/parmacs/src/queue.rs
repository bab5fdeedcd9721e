//! Task queues, work stacks and free lists.
//!
//! The task-parallel applications (cholesky, raytrace, volrend, radiosity)
//! feed themselves from shared pools. Splash-3 guards a linked list or array
//! with a lock ([`LockedQueue`]); Splash-4 replaces it with a lock-free
//! CAS-based [`TreiberStack`]. (The kernels' unbounded pools with real node
//! reclamation build on the same [`TaskQueue`] trait in `splash4-reclaim`.)
//!
//! The Treiber stack never frees a node before the stack itself is dropped
//! (popped nodes go onto a retired list), which rules out both use-after-free
//! on the lock-free `pop` path and ABA from allocator address reuse — at the
//! cost of peak memory proportional to total pushes, which is bounded and
//! small for the suite's workloads.

use crate::atomics::{Atomics, DataCell, Std, Word};
use crate::backoff::Backoff;
use crate::lock::SleepLock;
use crate::pad::CachePadded;
use crate::spec::{RingSpec, TreiberSpec};
use crate::stats::SyncCounters;
use crate::trace::TraceEvent;
use std::collections::VecDeque;
use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ptr;
use std::sync::Arc;

/// An unordered MPMC pool of tasks. Ordering (LIFO vs FIFO) is an
/// implementation property the suite's algorithms do not rely on.
pub trait TaskQueue<T>: Send + Sync + fmt::Debug {
    /// Add a task to the pool.
    fn push(&self, task: T);
    /// Remove some task, or `None` if the pool is currently empty. Only a
    /// pop that returns a task counts as a queue op, as only a push that
    /// lands does.
    fn pop(&self) -> Option<T>;
}

/// Lock-protected FIFO queue (Splash-3).
pub struct LockedQueue<T, A: Atomics = Std> {
    lock: SleepLock<A>,
    items: A::Cell<VecDeque<T>>,
    stats: Arc<SyncCounters>,
}

// SAFETY: `items` is only accessed with `lock` held, which orders every
// access after the previous holder's; the `T`s move across threads.
unsafe impl<T: Send, A: Atomics> Sync for LockedQueue<T, A> {}
unsafe impl<T: Send, A: Atomics> Send for LockedQueue<T, A> {}

impl<T, A: Atomics> LockedQueue<T, A> {
    /// New empty queue reporting into `stats`.
    pub fn new(stats: Arc<SyncCounters>) -> LockedQueue<T, A> {
        LockedQueue {
            lock: SleepLock::new(Arc::clone(&stats)),
            items: A::Cell::new("queue.items", VecDeque::new()),
            stats,
        }
    }
}

impl<T: Send, A: Atomics> TaskQueue<T> for LockedQueue<T, A> {
    fn push(&self, task: T) {
        self.stats.record(TraceEvent::Queue);
        // SAFETY: the lock is held around the access.
        self.lock
            .with(|| unsafe { self.items.with_mut(|q| q.push_back(task)) });
    }

    fn pop(&self) -> Option<T> {
        // SAFETY: as in `push`.
        let task = self
            .lock
            .with(|| unsafe { self.items.with_mut(VecDeque::pop_front) });
        if task.is_some() {
            self.stats.record(TraceEvent::Queue);
        }
        task
    }
}

impl<T, A: Atomics> fmt::Debug for LockedQueue<T, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockedQueue").finish_non_exhaustive()
    }
}

struct Node<T, A: Atomics> {
    /// Plain data: written by the pusher before the publishing CAS, moved
    /// out by the one popper whose CAS unlinked the node.
    value: A::Cell<ManuallyDrop<T>>,
    /// Plain data: written by the pusher before the publishing CAS and never
    /// again, so a popper still holding a stale head may read it at any time.
    next: A::Cell<*mut Node<T, A>>,
    /// Link of the retired list, written by that one popper. Not `next`
    /// re-used: a stale reader of `next` would race with this write.
    retired_next: A::Cell<*mut Node<T, A>>,
}

/// Lock-free LIFO stack (Splash-4), Treiber's algorithm with
/// retire-until-drop reclamation.
pub struct TreiberStack<T, A: Atomics = Std> {
    head: A::Ptr<Node<T, A>>,
    retired: A::Ptr<Node<T, A>>,
    stats: Arc<SyncCounters>,
}

// SAFETY: nodes are heap-allocated and only the owning stack frees them; `T`
// moves across threads through push/pop.
unsafe impl<T: Send, A: Atomics> Sync for TreiberStack<T, A> {}
unsafe impl<T: Send, A: Atomics> Send for TreiberStack<T, A> {}

impl<T, A: Atomics> TreiberStack<T, A> {
    /// New empty stack reporting into `stats`.
    pub fn new(stats: Arc<SyncCounters>) -> TreiberStack<T, A> {
        TreiberStack {
            head: A::Ptr::new("stack.head", ptr::null_mut()),
            retired: A::Ptr::new("stack.retired", ptr::null_mut()),
            stats,
        }
    }

    fn retire(&self, node: *mut Node<T, A>, s: TreiberSpec) {
        let mut cur = self.retired.load(s.retire_load);
        loop {
            // SAFETY: we exclusively own `node` after a successful pop, and
            // nothing else touches `retired_next` before the stack drops.
            unsafe { (*node).retired_next.with_mut(|n| *n = cur) };
            match self
                .retired
                .compare_exchange_weak(cur, node, s.retire_cas_ok, s.retire_cas_fail)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl<T: Send, A: Atomics> TaskQueue<T> for TreiberStack<T, A> {
    fn push(&self, task: T) {
        let s = A::spec(TreiberSpec::SPLASH4);
        self.stats.record(TraceEvent::Queue);
        let node: *mut Node<T, A> = Box::into_raw(Box::new(Node {
            value: A::Cell::new("stack.node.value", ManuallyDrop::new(task)),
            next: A::Cell::new("stack.node.next", ptr::null_mut()),
            retired_next: A::Cell::new("stack.node.retired", ptr::null_mut()),
        }));
        let mut cur = self.head.load(s.push_load);
        loop {
            // SAFETY: node not yet published; we own it.
            unsafe { (*node).next.with_mut(|n| *n = cur) };
            let publish =
                self.head
                    .compare_exchange_weak(cur, node, s.push_cas_ok, s.push_cas_fail);
            match self.stats.cas(publish) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    fn pop(&self) -> Option<T> {
        let s = A::spec(TreiberSpec::SPLASH4);
        let mut cur = self.head.load(s.pop_load);
        loop {
            if cur.is_null() {
                return None;
            }
            // SAFETY: nodes reachable from head are never freed while the
            // stack is alive (retire-until-drop), so reading `next` from a
            // stale head is safe even if another thread popped it first.
            let next = unsafe { (*cur).next.with(|n| *n) };
            let unlink = self
                .head
                .compare_exchange_weak(cur, next, s.pop_cas_ok, s.pop_cas_fail);
            match self.stats.cas(unlink) {
                Ok(_) => {
                    // SAFETY: successful CAS makes us the unique owner of
                    // `cur`; the value is moved out exactly once.
                    let value = unsafe { (*cur).value.with_mut(|v| ManuallyDrop::take(v)) };
                    self.retire(cur, s);
                    self.stats.record(TraceEvent::Queue);
                    return Some(value);
                }
                Err(actual) => cur = actual,
            }
        }
    }
}

impl<T, A: Atomics> Drop for TreiberStack<T, A> {
    fn drop(&mut self) {
        // Live nodes: drop values and boxes.
        let mut cur = self.head.load_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access in Drop; nodes were Box-allocated.
            unsafe {
                let mut boxed = Box::from_raw(cur);
                ManuallyDrop::drop(boxed.value.get_mut());
                cur = *boxed.next.get_mut();
            }
        }
        // Retired nodes: values were already moved out; free boxes only.
        let mut cur = self.retired.load_mut();
        while !cur.is_null() {
            // SAFETY: as above; `value` must not be dropped again.
            unsafe {
                let mut boxed = Box::from_raw(cur);
                cur = *boxed.retired_next.get_mut();
            }
        }
    }
}

impl<T, A: Atomics> fmt::Debug for TreiberStack<T, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreiberStack").finish_non_exhaustive()
    }
}

/// One ring slot of a [`BoundedMpmcQueue`]: the sequence number encodes the
/// slot's lifecycle (writable at `pos`, readable at `pos + 1`, writable
/// again at `pos + capacity`) and doubles as the publication fence for the
/// payload.
struct MpmcSlot<T, A: Atomics> {
    seq: A::Usize,
    value: A::Cell<MaybeUninit<T>>,
}

/// Lock-free bounded MPMC FIFO ring (Vyukov's array queue): each slot
/// carries a sequence number that tickets it to exactly one producer and
/// then exactly one consumer per lap, so `push`/`pop` are one CAS on the
/// shared cursor plus one uncontended slot write each — no head/tail locks,
/// no per-task allocation, FIFO order when quiescent.
///
/// This is the `stream` kernel's stage queue in the lock-free modes, and the
/// ring the model checker's `V2-kernel-check` table explores
/// (`stream_ring_scenario`). Unlike the [`TreiberStack`] (unbounded LIFO,
/// allocates per push) it is bounded: a full ring is surfaced through
/// [`BoundedMpmcQueue::try_push`], and the [`TaskQueue`] `push` spins with
/// [`Backoff`] until space frees, preserving the trait's unconditional
/// contract for the suite's workloads.
pub struct BoundedMpmcQueue<T, A: Atomics = Std> {
    buf: Box<[MpmcSlot<T, A>]>,
    /// `capacity - 1`; capacity is a power of two so `pos & mask` indexes.
    mask: usize,
    /// Next ticket to produce. Padded: producers and consumers would
    /// otherwise false-share one line.
    enqueue_pos: CachePadded<A::Usize>,
    /// Next ticket to consume.
    dequeue_pos: CachePadded<A::Usize>,
    stats: Arc<SyncCounters>,
}

// SAFETY: slots transfer `T` by value between threads; a slot's payload is
// only touched by the single thread whose CAS claimed its ticket, with the
// seq store/load pair ordering the handoff.
unsafe impl<T: Send, A: Atomics> Sync for BoundedMpmcQueue<T, A> {}
unsafe impl<T: Send, A: Atomics> Send for BoundedMpmcQueue<T, A> {}

impl<T, A: Atomics> BoundedMpmcQueue<T, A> {
    /// New empty queue holding at most `capacity` tasks (rounded up to a
    /// power of two, minimum 2), reporting into `stats`.
    pub fn new(capacity: usize, stats: Arc<SyncCounters>) -> BoundedMpmcQueue<T, A> {
        let capacity = capacity.max(2).next_power_of_two();
        let buf = (0..capacity)
            .map(|i| MpmcSlot {
                seq: A::Usize::new("ring.seq", i),
                value: A::Cell::new("ring.slot", MaybeUninit::uninit()),
            })
            .collect();
        BoundedMpmcQueue {
            buf,
            mask: capacity - 1,
            enqueue_pos: CachePadded::new(A::Usize::new("ring.enq", 0)),
            dequeue_pos: CachePadded::new(A::Usize::new("ring.deq", 0)),
            stats,
        }
    }

    /// Maximum number of tasks the queue can hold.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Try to enqueue, returning the task back when the ring is full
    /// (bounded admission: the caller decides whether to reject, retry or
    /// block).
    pub fn try_push(&self, task: T) -> Result<(), T> {
        self.push_or_full(task).map_err(|(task, _)| task)
    }

    /// [`BoundedMpmcQueue::try_push`] that also names the sequence word of
    /// the slot found full — the word whose next store frees it.
    fn push_or_full(&self, task: T) -> Result<(), (T, &A::Usize)> {
        let s = A::spec(RingSpec::SPLASH4);
        let mut pos = self.enqueue_pos.load(s.cursor_load);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(s.seq_load);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                // Slot is writable at this ticket: claim it.
                let claim = self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    s.cursor_cas_ok,
                    s.cursor_cas_fail,
                );
                match self.stats.cas(claim) {
                    Ok(_) => {
                        // SAFETY: the CAS granted this thread exclusive
                        // ownership of the slot for ticket `pos`; the
                        // release store below publishes the write.
                        unsafe {
                            slot.value.with_mut(|v| {
                                v.write(task);
                            })
                        };
                        slot.seq.store(pos.wrapping_add(1), s.publish_store);
                        self.stats.record(TraceEvent::Queue);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // The slot still holds the value from one lap ago: full.
                return Err((task, &slot.seq));
            } else {
                // Another producer claimed this ticket; chase the cursor.
                pos = self.enqueue_pos.load(s.cursor_load);
            }
        }
    }

    /// Dequeue some task, or `None` when the ring is currently empty.
    pub fn try_pop(&self) -> Option<T> {
        let s = A::spec(RingSpec::SPLASH4);
        let mut pos = self.dequeue_pos.load(s.cursor_load);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(s.seq_load);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                let claim = self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    s.cursor_cas_ok,
                    s.cursor_cas_fail,
                );
                match self.stats.cas(claim) {
                    Ok(_) => {
                        // SAFETY: the CAS granted exclusive ownership of the
                        // published value; the acquire load of `seq` above
                        // synchronized with the producer's release store.
                        let value = unsafe { slot.value.with(|v| v.assume_init_read()) };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), s.publish_store);
                        self.stats.record(TraceEvent::Queue);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // Slot not yet published for this lap: empty.
                return None;
            } else {
                pos = self.dequeue_pos.load(s.cursor_load);
            }
        }
    }
}

impl<T: Send, A: Atomics> TaskQueue<T> for BoundedMpmcQueue<T, A> {
    /// Enqueue, spinning with [`Backoff`] while the ring is full. Callers
    /// that need back-pressure instead of blocking should use
    /// [`BoundedMpmcQueue::try_push`].
    fn push(&self, task: T) {
        let mut task = task;
        let mut backoff = Backoff::new();
        loop {
            match self.push_or_full(task) {
                Ok(()) => return,
                Err((back, seq)) => {
                    task = back;
                    seq.snooze(&mut backoff);
                }
            }
        }
    }

    fn pop(&self) -> Option<T> {
        self.try_pop()
    }
}

impl<T, A: Atomics> Drop for BoundedMpmcQueue<T, A> {
    fn drop(&mut self) {
        // Exclusive access in Drop: drain remaining published values so
        // their destructors run.
        while self.try_pop().is_some() {}
    }
}

impl<T, A: Atomics> fmt::Debug for BoundedMpmcQueue<T, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundedMpmcQueue")
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// Per-worker task queues with stealing — the distributed-queue structure of
/// the original radiosity application. Each worker pushes and pops its own
/// queue; an empty worker steals from the others round-robin. The per-queue
/// back-end follows the queue-class policy (locked FIFOs vs Treiber stacks),
/// so the Splash-3/Splash-4 transformation applies per queue.
pub struct StealPool<T> {
    queues: Vec<Arc<dyn TaskQueue<T>>>,
}

impl<T: Send + 'static> StealPool<T> {
    /// Pool over the given per-worker queues.
    ///
    /// # Panics
    /// Panics if `queues` is empty.
    pub fn new(queues: Vec<Arc<dyn TaskQueue<T>>>) -> StealPool<T> {
        assert!(!queues.is_empty(), "steal pool needs at least one queue");
        StealPool { queues }
    }

    /// Number of worker queues.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Push a task onto `worker`'s own queue.
    pub fn push(&self, worker: usize, task: T) {
        self.queues[worker % self.queues.len()].push(task);
    }

    /// Pop for `worker`: own queue first, then steal round-robin.
    pub fn pop(&self, worker: usize) -> Option<T> {
        let n = self.queues.len();
        let own = worker % n;
        if let Some(t) = self.queues[own].pop() {
            return Some(t);
        }
        for d in 1..n {
            if let Some(t) = self.queues[(own + d) % n].pop() {
                return Some(t);
            }
        }
        None
    }
}

impl<T> fmt::Debug for StealPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StealPool")
            .field("workers", &self.queues.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn mpmc_exercise(queue: Arc<dyn TaskQueue<usize>>, producers: usize, per: usize) {
        let consumed = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for p in 0..producers {
                let queue = Arc::clone(&queue);
                s.spawn(move || {
                    for i in 0..per {
                        queue.push(p * per + i);
                    }
                });
            }
            for _ in 0..producers {
                let queue = Arc::clone(&queue);
                let consumed = &consumed;
                s.spawn(move || {
                    let mut local = Vec::new();
                    let mut misses = 0;
                    while local.len() < per && misses < 1_000_000 {
                        match queue.pop() {
                            Some(v) => local.push(v),
                            None => {
                                misses += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    let mut set = consumed.lock().unwrap();
                    for v in local {
                        assert!(set.insert(v), "task {v} consumed twice");
                    }
                });
            }
        });
        let set = consumed.into_inner().unwrap();
        assert_eq!(
            set.len(),
            producers * per,
            "all tasks consumed exactly once"
        );
        assert_eq!(queue.pop(), None, "nothing left behind");
    }

    #[test]
    fn locked_queue_mpmc() {
        let stats = Arc::new(SyncCounters::new());
        mpmc_exercise(Arc::new(LockedQueue::<_, Std>::new(stats)), 3, 200);
    }

    #[test]
    fn treiber_stack_mpmc() {
        let stats = Arc::new(SyncCounters::new());
        mpmc_exercise(Arc::new(TreiberStack::<_>::new(stats)), 3, 200);
    }

    #[test]
    fn bounded_mpmc_queue_mpmc() {
        let stats = Arc::new(SyncCounters::new());
        mpmc_exercise(Arc::new(BoundedMpmcQueue::<_>::new(1024, stats)), 3, 200);
    }

    #[test]
    fn bounded_mpmc_queue_is_fifo_when_sequential() {
        let stats = Arc::new(SyncCounters::new());
        let q = BoundedMpmcQueue::<_>::new(8, stats);
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_mpmc_queue_reports_full_and_wraps_laps() {
        let stats = Arc::new(SyncCounters::new());
        let q = BoundedMpmcQueue::<_>::new(4, Arc::clone(&stats));
        assert_eq!(q.capacity(), 4);
        for i in 0..4 {
            q.try_push(i).expect("fits");
        }
        assert_eq!(q.try_push(99), Err(99), "full ring returns the task");
        let ops = stats.snapshot().queue_ops;
        assert_eq!(ops, 4, "a push onto a full ring counts nothing");
        // Drain and refill across several laps: sequence numbers must keep
        // ticketing correctly after wraparound.
        for lap in 0..5 {
            for _ in 0..4 {
                assert!(q.try_pop().is_some(), "lap {lap}");
            }
            assert_eq!(q.try_pop(), None);
            for i in 0..4 {
                q.try_push(lap * 10 + i).expect("fits after drain");
            }
        }
        assert_eq!(q.try_pop(), Some(40));
    }

    #[test]
    fn bounded_mpmc_queue_drops_unpopped_values() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let stats = Arc::new(SyncCounters::new());
        {
            let q = BoundedMpmcQueue::<_>::new(8, stats);
            for _ in 0..5 {
                q.push(Canary(Arc::clone(&drops)));
            }
            drop(q.pop().unwrap());
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        }
        // 1 popped + 4 still in the ring at drop time.
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn bounded_mpmc_queue_is_instrumented() {
        let stats = Arc::new(SyncCounters::new());
        let q = BoundedMpmcQueue::<_>::new(8, Arc::clone(&stats));
        q.push(1);
        let _ = q.pop();
        let _ = q.pop();
        let p = stats.snapshot();
        assert_eq!(p.queue_ops, 2, "the empty pop counts nothing");
        assert!(
            p.atomic_rmws >= 2,
            "each successful transfer CASes a cursor"
        );
        assert_eq!(p.lock_acquires, 0);
    }

    #[test]
    fn treiber_stack_is_lifo_when_sequential() {
        let stats = Arc::new(SyncCounters::new());
        let s = TreiberStack::<_>::new(stats);
        s.push(1);
        s.push(2);
        s.push(3);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn treiber_stack_drops_unpopped_values() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let stats = Arc::new(SyncCounters::new());
        {
            let s = TreiberStack::<_>::new(stats);
            for _ in 0..5 {
                s.push(Canary(Arc::clone(&drops)));
            }
            let popped = s.pop().unwrap();
            drop(popped);
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        }
        // 1 popped + 4 left on the stack at drop time.
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn steal_pool_drains_all_tasks_from_any_worker() {
        let stats = Arc::new(SyncCounters::new());
        let queues: Vec<Arc<dyn TaskQueue<u32>>> = (0..3)
            .map(|_| {
                Arc::new(TreiberStack::<_>::new(Arc::clone(&stats))) as Arc<dyn TaskQueue<u32>>
            })
            .collect();
        let pool = StealPool::new(queues);
        // All tasks land on worker 0's queue; workers 1 and 2 must steal.
        for t in 0..90u32 {
            pool.push(0, t);
        }
        let drained = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for w in 0..3 {
                let pool = &pool;
                let drained = &drained;
                s.spawn(move || {
                    let mut local = Vec::new();
                    while let Some(t) = pool.pop(w) {
                        local.push(t);
                    }
                    drained.lock().unwrap().extend(local);
                });
            }
        });
        let mut got = drained.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..90).collect::<Vec<u32>>());
        for w in 0..3 {
            assert_eq!(pool.pop(w), None, "worker {w} finds every queue drained");
        }
    }

    #[test]
    fn steal_pool_prefers_own_queue() {
        let stats = Arc::new(SyncCounters::new());
        let queues: Vec<Arc<dyn TaskQueue<u32>>> = (0..2)
            .map(|_| {
                Arc::new(LockedQueue::<_, Std>::new(Arc::clone(&stats))) as Arc<dyn TaskQueue<u32>>
            })
            .collect();
        let pool = StealPool::new(queues);
        pool.push(0, 100);
        pool.push(1, 200);
        assert_eq!(pool.pop(1), Some(200), "own task first");
        assert_eq!(pool.pop(1), Some(100), "then steal");
        assert_eq!(pool.pop(1), None);
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn steal_pool_rejects_empty() {
        let _: StealPool<u32> = StealPool::new(Vec::new());
    }

    #[test]
    fn queue_ops_are_instrumented() {
        let stats = Arc::new(SyncCounters::new());
        let q = TreiberStack::<_>::new(Arc::clone(&stats));
        q.push(1);
        let _ = q.pop();
        let _ = q.pop();
        let p = stats.snapshot();
        assert_eq!(p.queue_ops, 2, "the empty pop counts nothing");
        assert!(p.atomic_rmws >= 2);
        assert_eq!(p.lock_acquires, 0);
    }
}
