//! Shadow constructs: the parmacs lock-free state machines re-implemented
//! over the model-checking engine.
//!
//! Each shadow mirrors a real `splash4-parmacs` primitive *operation for
//! operation* and reads its memory orderings from the same
//! [`splash4_parmacs::spec`] structs the real implementation consumes, so
//! the checker explores exactly the state machine that ships. Tweaking one
//! spec field (e.g. `pop_load: Relaxed`) turns a shadow into a mutant of the
//! real construct — that is how the mutation tests inject the bugs the
//! checker must find.
//!
//! Pointer-based structures (the Treiber stack) model nodes as pairs of
//! plain-data cells allocated mid-execution; "pointers" are cell indices
//! shifted by one so `0` is null. Nodes are never reused (the real stack
//! retires popped nodes until drop), so the model is ABA-free for the same
//! reason the real code is.

use crate::engine::{Peek, Sandbox, ThreadCtx};
use crate::linearize::{Op, RetVal};
use splash4_parmacs::{CasF64Spec, FlagSpec, SenseBarrierSpec, TicketSpec, TreiberSpec};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Shadow of [`splash4_parmacs::TreiberStack`]: lock-free LIFO via CAS on a
/// head pointer.
#[derive(Debug, Clone, Copy)]
pub struct ShadowTreiberStack {
    head: usize,
    spec: TreiberSpec,
}

impl ShadowTreiberStack {
    /// Allocate the stack's shadow state with the given orderings.
    pub fn new(sb: &Sandbox, spec: TreiberSpec) -> ShadowTreiberStack {
        ShadowTreiberStack {
            head: sb.alloc_atomic("stack.head", 0),
            spec,
        }
    }

    /// Push `v` (allocates a fresh node, links it in with the push CAS).
    pub fn push(&self, ctx: &ThreadCtx, v: u64) {
        ctx.invoke(Op::Push(v));
        let s = self.spec;
        let vloc = ctx.alloc_data("stack.node.value", 0);
        let nloc = ctx.alloc_data("stack.node.next", 0);
        debug_assert_eq!(nloc, vloc + 1);
        let ptr = (vloc + 1) as u64; // node "pointer"; 0 is null
        ctx.data_write(vloc, v);
        let mut head = ctx.op_load(self.head, s.push_load);
        loop {
            ctx.data_write(nloc, head);
            match ctx.op_cas(self.head, head, ptr, s.push_cas_ok, s.push_cas_fail) {
                Ok(_) => break,
                Err(actual) => head = actual,
            }
        }
        ctx.ret(RetVal::Unit);
    }

    /// Pop the top node, dereferencing its fields exactly as the real stack
    /// does (`next` before the CAS, `value` after winning it).
    pub fn pop(&self, ctx: &ThreadCtx) -> Option<u64> {
        ctx.invoke(Op::Pop);
        let s = self.spec;
        let mut head = ctx.op_load(self.head, s.pop_load);
        loop {
            if head == 0 {
                ctx.ret(RetVal::Empty);
                return None;
            }
            let next = ctx.data_read(head as usize); // node.next lives at `ptr`
            match ctx.op_cas(self.head, head, next, s.pop_cas_ok, s.pop_cas_fail) {
                Ok(_) => {
                    let v = ctx.data_read(head as usize - 1); // node.value
                    ctx.ret(RetVal::Val(v));
                    return Some(v);
                }
                Err(actual) => head = actual,
            }
        }
    }
}

/// Shadow of [`splash4_parmacs::SenseBarrier`]: central arrival counter plus
/// a generation word the waiters spin on.
#[derive(Debug, Clone, Copy)]
pub struct ShadowSenseBarrier {
    generation: usize,
    arrived: usize,
    n: u64,
    spec: SenseBarrierSpec,
    /// Mutant: the winner resets the counter but never bumps the
    /// generation, so waiters of the episode are never released.
    missing_flip: bool,
}

impl ShadowSenseBarrier {
    /// Allocate a barrier for `n` participants with the given orderings.
    pub fn new(sb: &Sandbox, n: usize, spec: SenseBarrierSpec) -> ShadowSenseBarrier {
        ShadowSenseBarrier {
            generation: sb.alloc_atomic("barrier.generation", 0),
            arrived: sb.alloc_atomic("barrier.arrived", 0),
            n: n as u64,
            spec,
            missing_flip: false,
        }
    }

    /// The missing-sense-flip mutant of this barrier.
    pub fn with_missing_flip(self) -> ShadowSenseBarrier {
        ShadowSenseBarrier {
            missing_flip: true,
            ..self
        }
    }

    /// Arrive and wait for the whole team.
    pub fn wait(&self, ctx: &ThreadCtx) {
        let s = self.spec;
        let gen = ctx.op_load(self.generation, s.generation_load);
        let arrived = ctx.op_rmw(self.arrived, s.arrive_rmw, |v| v + 1) + 1;
        if arrived == self.n {
            ctx.op_store(self.arrived, 0, s.arrived_reset);
            if !self.missing_flip {
                ctx.op_rmw(self.generation, s.generation_bump, |g| g + 1);
            }
        } else {
            loop {
                if ctx.op_load(self.generation, s.spin_load) != gen {
                    break;
                }
                ctx.block_on(self.generation);
            }
        }
    }
}

/// Shadow of [`splash4_parmacs::AtomicF64`]: CAS-loop floating-point add.
#[derive(Debug, Clone, Copy)]
pub struct ShadowAtomicF64 {
    bits: usize,
    spec: CasF64Spec,
    /// Mutant: replace the CAS loop with load → compute → blind store,
    /// opening the classic lost-update window.
    lost_update: bool,
}

impl ShadowAtomicF64 {
    /// Allocate the cell initialized to `init`.
    pub fn new(sb: &Sandbox, init: f64, spec: CasF64Spec) -> ShadowAtomicF64 {
        ShadowAtomicF64 {
            bits: sb.alloc_atomic("reduce.f64", init.to_bits()),
            spec,
            lost_update: false,
        }
    }

    /// The lost-update mutant of this cell.
    pub fn with_lost_update(self) -> ShadowAtomicF64 {
        ShadowAtomicF64 {
            lost_update: true,
            ..self
        }
    }

    /// Add `delta` to the cell.
    pub fn fetch_add(&self, ctx: &ThreadCtx, delta: f64) {
        ctx.invoke(Op::AddF(delta.to_bits()));
        let s = self.spec;
        if self.lost_update {
            let cur = ctx.op_load(self.bits, s.load);
            let new = (f64::from_bits(cur) + delta).to_bits();
            ctx.op_store(self.bits, new, Ordering::Release);
        } else {
            let mut cur = ctx.op_load(self.bits, s.load);
            loop {
                let new = (f64::from_bits(cur) + delta).to_bits();
                match ctx.op_cas(self.bits, cur, new, s.cas_ok, s.cas_fail) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
        ctx.ret(RetVal::Unit);
    }

    /// Read the current bit pattern.
    pub fn load(&self, ctx: &ThreadCtx) -> f64 {
        ctx.invoke(Op::LoadF);
        let v = ctx.op_load(self.bits, Ordering::Acquire);
        ctx.ret(RetVal::Val(v));
        f64::from_bits(v)
    }

    /// Final value for finale invariants.
    pub fn final_value(&self, peek: &Peek) -> f64 {
        f64::from_bits(peek.atomic(self.bits))
    }
}

/// Shadow of the Splash-4 integer cell of [`splash4_parmacs::Reducer`]:
/// a `fetch_add` sum cell.
#[derive(Debug, Clone, Copy)]
pub struct ShadowReduceU64 {
    cell: usize,
}

impl ShadowReduceU64 {
    /// Allocate the cell initialized to `init`.
    pub fn new(sb: &Sandbox, init: u64) -> ShadowReduceU64 {
        ShadowReduceU64 {
            cell: sb.alloc_atomic("reduce.u64", init),
        }
    }

    /// Add `v` to the sum.
    pub fn add(&self, ctx: &ThreadCtx, v: u64) {
        ctx.invoke(Op::AddU(v));
        ctx.op_rmw(self.cell, Ordering::AcqRel, |x| x.wrapping_add(v));
        ctx.ret(RetVal::Unit);
    }

    /// Read the current sum.
    pub fn load(&self, ctx: &ThreadCtx) -> u64 {
        ctx.invoke(Op::LoadU);
        let v = ctx.op_load(self.cell, Ordering::Acquire);
        ctx.ret(RetVal::Val(v));
        v
    }

    /// Final value for finale invariants.
    pub fn final_value(&self, peek: &Peek) -> u64 {
        peek.atomic(self.cell)
    }
}

/// Shadow of [`splash4_parmacs::AtomicFlag`]: the PAUSE/SETPAUSE variable.
#[derive(Debug, Clone, Copy)]
pub struct ShadowFlag {
    flag: usize,
    spec: FlagSpec,
}

impl ShadowFlag {
    /// Allocate an unset flag with the given orderings.
    pub fn new(sb: &Sandbox, spec: FlagSpec) -> ShadowFlag {
        ShadowFlag {
            flag: sb.alloc_atomic("flag", 0),
            spec,
        }
    }

    /// Set the flag (SETPAUSE).
    pub fn set(&self, ctx: &ThreadCtx) {
        ctx.op_store(self.flag, 1, self.spec.set_store);
    }

    /// Wait until the flag is set (PAUSE).
    pub fn wait(&self, ctx: &ThreadCtx) {
        loop {
            if ctx.op_load(self.flag, self.spec.wait_load) != 0 {
                break;
            }
            ctx.block_on(self.flag);
        }
    }

    /// Non-blocking poll.
    pub fn is_set(&self, ctx: &ThreadCtx) -> bool {
        ctx.op_load(self.flag, self.spec.wait_load) != 0
    }
}

/// Shadow of the `fetch_add` arm of [`splash4_parmacs::IndexCounter`]: the
/// `GETSUB` work-index counter over `0..total`.
#[derive(Debug, Clone, Copy)]
pub struct ShadowCounter {
    next: usize,
    total: u64,
    spec: TicketSpec,
}

impl ShadowCounter {
    /// Allocate a counter dispensing `0..total`.
    pub fn new(sb: &Sandbox, total: u64, spec: TicketSpec) -> ShadowCounter {
        ShadowCounter {
            next: sb.alloc_atomic("counter.next", 0),
            total,
            spec,
        }
    }

    /// Grab the next index, `None` once the range is exhausted.
    pub fn next(&self, ctx: &ThreadCtx) -> Option<u64> {
        ctx.invoke(Op::Next);
        let i = ctx.op_rmw(self.next, self.spec.claim_rmw, |v| v + 1);
        if i < self.total {
            ctx.ret(RetVal::Val(i));
            Some(i)
        } else {
            ctx.ret(RetVal::Empty);
            None
        }
    }
}

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
#[derive(Debug, Clone)]
pub struct ShadowLockedQueue {
    lock: ShadowLock,
    canary: usize,
    items: Arc<Mutex<VecDeque<u64>>>,
}

impl ShadowLockedQueue {
    /// Allocate an empty queue.
    pub fn new(sb: &Sandbox) -> ShadowLockedQueue {
        ShadowLockedQueue {
            lock: ShadowLock::new(sb),
            canary: sb.alloc_data("queue.canary", 0),
            items: Arc::new(Mutex::new(VecDeque::new())),
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
        match v {
            Some(v) => {
                ctx.ret(RetVal::Val(v));
                Some(v)
            }
            None => {
                ctx.ret(RetVal::Empty);
                None
            }
        }
    }
}
