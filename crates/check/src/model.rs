//! [`Model`]: the engine's implementation of the `parmacs` [`Atomics`]
//! facade, which lets a scenario instantiate the shipped constructs —
//! `TreiberStack<u64, Model>`, `CombiningCore<T, Model>` … — and not
//! transcriptions of them.
//!
//! A [`ModelWord`] is an engine atomic: each operation on it from a virtual
//! thread is a schedule point with the vector-clock semantics of
//! [`crate::engine`], and [`Word::snooze`] parks the thread until the word
//! is written; [`Atomics::wait`] parks it until an [`Atomics::wake`] on the
//! word, as the futex does. A [`ModelCell`] keeps its value in place and
//! reports each access to the race detector. Both find the engine through the
//! thread-local it sets around an execution; outside a virtual thread
//! (set-up, finale, drops) they act on the current value directly, so a
//! finale may call the construct's own `load`. Both also tell the engine
//! where they live each time a virtual thread uses them: a node of
//! [`Model::alloc`](Atomics::alloc) that is freed stays quarantined until
//! the execution ends, and using a word or cell inside it fails as a
//! use-after-free.
//!
//! Mutants never edit a construct: [`Sandbox::override_spec`](crate::Sandbox)
//! replaces the table [`Model::spec`] returns, and
//! [`Sandbox::fault`](crate::Sandbox) makes the words of one name misbehave.

use crate::engine::{with_current, with_running, Fault, Shared, ThreadCtx};
use splash4_parmacs::atomics::{Atomics, DataCell, IntWord, Wake, Word};
use splash4_parmacs::Backoff;
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The model checker's [`Atomics`].
#[derive(Debug, Clone, Copy)]
pub struct Model;

impl Atomics for Model {
    type U32 = ModelWord<u32>;
    type U64 = ModelWord<u64>;
    type Usize = ModelWord<usize>;
    type Bool = ModelWord<bool>;
    type Ptr<T> = ModelWord<*mut T>;
    type Cell<T> = ModelCell<T>;

    fn wait(word: &ModelWord<u32>, expected: u32) {
        word.on(|ctx| {
            let ctx = ctx.expect("a wait outside the schedule can never be woken");
            ctx.op_wait(word.loc, u64::from(expected));
        });
    }

    fn wake(word: &ModelWord<u32>, whom: Wake) {
        let lost = word.fault == Some(Fault::LostWake);
        let n = if lost { 0 } else { whom as usize };
        // Outside the schedule nobody can be asleep.
        word.on(|ctx| ctx.map_or((), |ctx| ctx.op_wake(word.loc, n)));
    }

    fn spec<S: Copy + Send + 'static>(shipped: S) -> S {
        let installed = with_current(|c| c.and_then(|(shared, _)| shared.installed_spec()));
        installed.unwrap_or(shipped)
    }

    fn alloc<T>(node: T) -> *mut T {
        unsafe fn drop_box<T>(p: *mut u8) {
            // SAFETY: the record holds `p` with the `T` it was boxed as.
            drop(unsafe { Box::from_raw(p.cast::<T>()) });
        }
        let p = Box::into_raw(Box::new(node));
        let size = std::mem::size_of::<T>();
        // Outside an execution, or with no address range to watch, the node
        // is an ordinary box.
        if size > 0 {
            with_current(|c| c.map(|(shared, _)| shared.alloc(p.cast(), size, drop_box::<T>)));
        }
        p
    }

    unsafe fn free<T>(p: *mut T) {
        let on_record = with_current(|c| {
            c.is_some_and(|(shared, _)| with_running(|ctx| shared.free(ctx, p.cast())))
        });
        if !on_record {
            // SAFETY: `free`'s contract is `Box::from_raw`'s.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// A value an engine atomic can hold (the engine stores `u64`s).
pub trait Bits: Copy {
    /// The value as the engine stores it.
    fn bits(self) -> u64;
    /// The value an engine word stands for.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! int_word {
    ($($int:ty),*) => {$(
        impl Bits for $int {
            fn bits(self) -> u64 {
                self as u64
            }
            fn from_bits(bits: u64) -> $int {
                bits as $int
            }
        }

        impl IntWord<$int> for ModelWord<$int> {
            fn fetch_add(&self, v: $int, ord: Ordering) -> $int {
                self.rmw(ord, |x| (x as $int).wrapping_add(v) as u64) as $int
            }
        }
    )*};
}

int_word!(u32, u64, usize);

impl Bits for bool {
    fn bits(self) -> u64 {
        u64::from(self)
    }
    fn from_bits(bits: u64) -> bool {
        bits != 0
    }
}

impl<T> Bits for *mut T {
    fn bits(self) -> u64 {
        self as usize as u64
    }
    fn from_bits(bits: u64) -> *mut T {
        bits as usize as *mut T
    }
}

/// [`Model`]'s word: one engine atomic, plus the fault injected at its name.
pub struct ModelWord<V> {
    shared: Arc<Shared>,
    loc: usize,
    fault: Option<Fault>,
    _value: PhantomData<fn() -> V>,
}

impl<V> fmt::Debug for ModelWord<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelWord").field("loc", &self.loc).finish()
    }
}

impl<V: Bits> ModelWord<V> {
    /// Run `op` as the calling virtual thread (`None` outside one), which
    /// must not find this word in freed memory. Checked once the operation
    /// is through: the thread kept its turn since.
    fn on<R>(&self, op: impl FnOnce(Option<&ThreadCtx>) -> R) -> R {
        with_running(|ctx| {
            let result = op(ctx);
            if let Some(ctx) = ctx {
                ctx.touch(self.loc, false, self as *const Self as usize);
            }
            result
        })
    }

    /// Read-modify-write under this word's fault, scheduled from a virtual
    /// thread and direct outside one. Returns the value read.
    fn rmw(&self, ord: Ordering, f: impl Fn(u64) -> u64) -> u64 {
        self.on(|ctx| match (ctx, self.fault) {
            (None, _) => self.shared.raw(self.loc, |v| std::mem::replace(v, f(*v))),
            (Some(ctx), Some(Fault::Torn)) => {
                let old = ctx.op_load(self.loc, ord);
                ctx.op_store(self.loc, f(old), ord);
                old
            }
            (Some(ctx), Some(Fault::Dropped)) => ctx.op_load(self.loc, ord),
            (Some(ctx), _) => ctx.op_rmw(self.loc, ord, f),
        })
    }
}

impl<V: Bits> Word<V> for ModelWord<V> {
    fn new(name: &'static str, v: V) -> Self {
        let shared = with_current(|c| c.map(|(shared, _)| Arc::clone(shared)));
        let shared = shared.expect("Model words live inside a checker execution");
        let (loc, fault) = shared.alloc_atomic(name, v.bits());
        ModelWord {
            shared,
            loc,
            fault,
            _value: PhantomData,
        }
    }

    fn load(&self, ord: Ordering) -> V {
        V::from_bits(self.on(|ctx| match ctx {
            Some(ctx) => ctx.op_load(self.loc, ord),
            None => self.shared.raw(self.loc, |v| *v),
        }))
    }

    fn store(&self, v: V, ord: Ordering) {
        self.on(|ctx| match (ctx, self.fault) {
            (None, _) => self.shared.raw(self.loc, |cur| *cur = v.bits()),
            (Some(ctx), Some(Fault::Dropped)) => drop(ctx.op_load(self.loc, ord)),
            (Some(ctx), _) => ctx.op_store(self.loc, v.bits(), ord),
        })
    }

    fn swap(&self, v: V, ord: Ordering) -> V {
        V::from_bits(self.rmw(ord, |_| v.bits()))
    }

    fn compare_exchange(&self, cur: V, new: V, ok: Ordering, fail: Ordering) -> Result<V, V> {
        let (cur, new) = (cur.bits(), new.bits());
        let result = self.on(|ctx| match (ctx, self.fault) {
            // The compare is what a torn CAS loses and a dropped one fakes.
            (Some(ctx), Some(Fault::Torn)) => {
                ctx.op_store(self.loc, new, ok);
                Ok(cur)
            }
            (Some(ctx), Some(Fault::Dropped)) => {
                ctx.op_load(self.loc, ok);
                Ok(cur)
            }
            (Some(ctx), _) => ctx.op_cas(self.loc, cur, new, ok, fail),
            (None, _) => self.shared.raw(self.loc, |v| {
                let old = *v;
                if old == cur {
                    *v = new;
                    Ok(old)
                } else {
                    Err(old)
                }
            }),
        });
        result.map(V::from_bits).map_err(V::from_bits)
    }

    fn compare_exchange_weak(&self, cur: V, new: V, ok: Ordering, fail: Ordering) -> Result<V, V> {
        self.compare_exchange(cur, new, ok, fail)
    }

    fn load_mut(&mut self) -> V {
        V::from_bits(self.shared.raw(self.loc, |v| *v))
    }

    fn snooze(&self, _backoff: &mut Backoff) {
        with_running(|ctx| {
            let ctx = ctx.expect("a wait loop outside the schedule can never be released");
            ctx.touch(self.loc, false, self as *const Self as usize);
            ctx.block_on(self.loc);
        });
    }

    fn poll_while(&self, _cur: V, _polls: usize, ord: Ordering) {
        // Outside the schedule nobody else can run: nothing to wait for.
        self.on(|ctx| {
            ctx.map(|ctx| ctx.op_poll(self.loc, ord));
        });
    }
}

/// [`Model`]'s plain-data cell: the value in place, its accesses reported
/// to the race detector.
#[derive(Debug)]
pub struct ModelCell<T> {
    loc: usize,
    value: UnsafeCell<T>,
}

impl<T> ModelCell<T> {
    /// Report an access to the calling virtual thread's engine, if any: the
    /// cell must not lie in freed memory, then `access` checks for races.
    fn accessed(&self, access: impl FnOnce(&ThreadCtx)) {
        with_running(|ctx| {
            if let Some(ctx) = ctx {
                ctx.touch(self.loc, true, self as *const Self as usize);
                access(ctx);
            }
        });
    }
}

impl<T> DataCell<T> for ModelCell<T> {
    fn new(name: &'static str, v: T) -> Self {
        let loc = with_current(|c| {
            let (shared, ctx) = c.expect("Model cells live inside a checker execution");
            let loc = shared.alloc_data(name, 0);
            if let Some(ctx) = ctx {
                // Initialization is the creating thread's first write: a
                // reader that was never handed the cell by a release edge
                // races with it.
                ctx.data_write(loc, 0);
            }
            loc
        });
        ModelCell {
            loc,
            value: UnsafeCell::new(v),
        }
    }

    unsafe fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.accessed(|ctx| {
            ctx.data_read(self.loc);
        });
        // SAFETY: one virtual thread runs at a time, and `data_read` unwound
        // if a write is unordered with this read.
        f(unsafe { &*self.value.get() })
    }

    unsafe fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.accessed(|ctx| ctx.data_write(self.loc, 0));
        // SAFETY: as in `with`, for any other access.
        f(unsafe { &mut *self.value.get() })
    }

    fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}
