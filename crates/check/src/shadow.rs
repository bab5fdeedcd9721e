//! What is still shadowed from `splash4-parmacs`: the Splash-3 sleeping
//! lock and the queue it guards.
//!
//! The lock-free constructs are not here — scenarios run the shipped types
//! over [`crate::model::Model`]. [`SleepLock`](splash4_parmacs::SleepLock)
//! cannot take that road: it is a `Mutex` + `Condvar`, with no atomics to
//! swap, and a virtual thread that slept in the OS would stall the whole
//! execution. So its held flag is modelled as one engine atomic, and
//! [`LockedQueue`](splash4_parmacs::LockedQueue) as that lock around a
//! `VecDeque`. (The reclamation layer's shadows live in [`crate::reclaim`].)

use crate::engine::{Peek, Sandbox, ThreadCtx};
use crate::linearize::{Op, RetVal};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Shadow of [`splash4_parmacs::SleepLock`]'s held flag (the lock under
/// [`splash4_parmacs::LockedQueue`]): acquire takes it 0→1 with acquire
/// ordering and, like the sleeping mutex, *parks* while it is held — woken
/// by the release store — instead of spinning.
#[derive(Debug, Clone, Copy)]
pub struct ShadowLock {
    locked: usize,
}

impl ShadowLock {
    /// Allocate an unlocked lock.
    pub fn new(sb: &Sandbox) -> ShadowLock {
        ShadowLock {
            locked: sb.alloc_atomic("lock", 0),
        }
    }

    /// Acquire (CAS 0→1, park while held).
    pub fn acquire(&self, ctx: &ThreadCtx) {
        loop {
            match ctx.op_cas(self.locked, 0, 1, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => return,
                Err(_) => ctx.block_on(self.locked),
            }
        }
    }

    /// Release (store 0 with release).
    pub fn release(&self, ctx: &ThreadCtx) {
        ctx.op_store(self.locked, 0, Ordering::Release);
    }
}

/// Shadow of [`splash4_parmacs::LockedQueue`]: a [`ShadowLock`] around a
/// `VecDeque`, with a plain-data canary touched inside the critical section
/// so a broken lock shows up as a data race.
#[derive(Debug)]
pub struct ShadowLockedQueue {
    lock: ShadowLock,
    canary: usize,
    items: Mutex<VecDeque<u64>>,
}

impl ShadowLockedQueue {
    /// Allocate an empty queue.
    pub fn new(sb: &Sandbox) -> ShadowLockedQueue {
        ShadowLockedQueue {
            lock: ShadowLock::new(sb),
            canary: sb.alloc_data("queue.canary", 0),
            items: Mutex::default(),
        }
    }

    /// Final canary value: the number of critical sections executed.
    pub fn final_canary(&self, peek: &Peek) -> u64 {
        peek.data(self.canary)
    }

    fn touch_canary(&self, ctx: &ThreadCtx) {
        let c = ctx.data_read(self.canary);
        ctx.data_write(self.canary, c + 1);
    }

    /// Enqueue `v` under the lock.
    pub fn enqueue(&self, ctx: &ThreadCtx, v: u64) {
        ctx.invoke(Op::Enqueue(v));
        self.lock.acquire(ctx);
        self.touch_canary(ctx);
        self.items.lock().expect("queue poisoned").push_back(v);
        self.lock.release(ctx);
        ctx.ret(RetVal::Unit);
    }

    /// Dequeue under the lock, `None` when empty.
    pub fn dequeue(&self, ctx: &ThreadCtx) -> Option<u64> {
        ctx.invoke(Op::Dequeue);
        self.lock.acquire(ctx);
        self.touch_canary(ctx);
        let v = self.items.lock().expect("queue poisoned").pop_front();
        self.lock.release(ctx);
        ctx.ret(v.into());
        v
    }
}
