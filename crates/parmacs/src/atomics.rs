//! The atomics facade: the one seam between the lock-free constructs and
//! the memory they synchronize through.
//!
//! Every shipped lock-free construct is generic over an [`Atomics`], with
//! [`Std`] as the default: `std::sync::atomic` behind `#[repr(transparent)]`,
//! `#[inline]` wrappers, the shipped ordering tables as constants — what
//! production code compiled to before the facade existed. The model checker
//! (`splash4-check`) supplies the other implementation, whose words are
//! schedule points and whose cells feed a happens-before race detector;
//! that is how it checks *these* constructs and not a transcription.
//!
//! What goes through the facade is the protocol: the words a construct's
//! correctness argument names, and the plain data other threads reach
//! through them ([`DataCell`]). Telemetry — `len`,
//! [`SyncCounters`](crate::SyncCounters), trace events — stays on `std`
//! atomics and is never a schedule point.

use crate::backoff::Backoff;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// One atomic word holding a `V`. `name` labels the word in the model
/// checker's diagnostics and fault table; [`Std`] discards it.
pub trait Word<V: Copy>: Send + Sync {
    /// A word holding `v`.
    fn new(name: &'static str, v: V) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> V;
    /// Atomic store.
    fn store(&self, v: V, ord: Ordering);
    /// Atomic compare-exchange: `Ok(previous)` or `Err(actual)`.
    fn compare_exchange(&self, cur: V, new: V, ok: Ordering, fail: Ordering) -> Result<V, V>;
    /// [`Word::compare_exchange`] that may fail spuriously (for retry loops).
    fn compare_exchange_weak(&self, cur: V, new: V, ok: Ordering, fail: Ordering) -> Result<V, V>;
    /// Read through exclusive access (`Drop`): no ordering, never a
    /// schedule point.
    fn load_mut(&mut self) -> V;
    /// The wait hook of a spin loop whose exit condition is a change of this
    /// word: back off ([`Std`]) or park until the word is next written
    /// (model). Call it directly after the failed check of this word, with
    /// no other [`Word`] operation in between, or the model may park after
    /// the write that would have released the loop.
    fn snooze(&self, backoff: &mut Backoff);
    /// A bounded wait: poll until the word stops holding `cur`, `polls`
    /// times at most. The model polls once and offers its turn there: what
    /// a spin window does is let the other threads run.
    #[inline]
    fn poll_while(&self, cur: V, polls: usize, ord: Ordering)
    where
        V: PartialEq,
    {
        for _ in 0..polls {
            if self.load(ord) != cur {
                return;
            }
            std::hint::spin_loop();
        }
    }
}

/// A [`Word`] of an integer type.
pub trait IntWord<V: Copy>: Word<V> {
    /// Atomic wrapping add; returns the previous value.
    fn fetch_add(&self, v: V, ord: Ordering) -> V;
}

/// Plain data that other threads reach through a pointer or an index, and
/// that only a protocol on [`Word`]s keeps exclusive (loom's `UnsafeCell`).
/// Keep the closures free of [`Word`] operations: the model checker may
/// switch threads at any of them, with the borrow still live.
pub trait DataCell<T> {
    /// A cell holding `v`, written by the calling thread.
    fn new(name: &'static str, v: T) -> Self;
    /// Read access.
    ///
    /// # Safety
    /// No [`DataCell::with_mut`] on this cell may run concurrently: every
    /// write must happen-before this call or after its return.
    unsafe fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R;
    /// Write access.
    ///
    /// # Safety
    /// No other access to this cell may run concurrently: every other
    /// `with`/`with_mut` must happen-before this call or after its return.
    unsafe fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R;
    /// Access through exclusive ownership (`Drop`).
    fn get_mut(&mut self) -> &mut T;
}

/// The memory a lock-free construct runs on.
pub trait Atomics: Sized + 'static {
    /// `true` when a thread may sleep in the OS (mutex, condvar). The model
    /// checker runs one virtual thread at a time and says `false`, so a
    /// Splash-3 sleeping primitive over it fails at construction, not hangs.
    const OS_BLOCKING: bool;
    /// 64-bit word.
    type U64: IntWord<u64>;
    /// Pointer-sized integer word.
    type Usize: IntWord<usize> + 'static;
    /// Boolean word.
    type Bool: Word<bool>;
    /// Pointer word.
    type Ptr<T>: Word<*mut T>;
    /// Plain-data cell.
    type Cell<T>: DataCell<T>;
    /// The ordering table (of [`crate::spec`]) a construct runs with: the
    /// `shipped` constant it passes in, unless a checker scenario installed
    /// a mutated table of that type.
    fn spec<S: Copy + Send + 'static>(shipped: S) -> S;
    /// Allocate a node that other threads will reach through a [`Word`].
    fn alloc<T>(node: T) -> *mut T;
    /// Give a node of [`Atomics::alloc`] back. The model checker keeps the
    /// memory until its execution ends instead, so that a free that came too
    /// early is reported, not executed.
    ///
    /// # Safety
    /// `p` must come from [`Atomics::alloc`], be freed once, and be out of
    /// every other thread's reach; `T` must be safe to drop on any thread.
    unsafe fn free<T>(p: *mut T);
}

/// Production [`Atomics`]: `std::sync::atomic`, zero cost.
#[derive(Debug, Clone, Copy)]
pub struct Std;

impl Atomics for Std {
    const OS_BLOCKING: bool = true;
    type U64 = StdU64;
    type Usize = StdUsize;
    type Bool = StdBool;
    type Ptr<T> = StdPtr<T>;
    type Cell<T> = StdCell<T>;
    #[inline]
    fn spec<S: Copy + Send + 'static>(shipped: S) -> S {
        shipped
    }
    #[inline]
    fn alloc<T>(node: T) -> *mut T {
        Box::into_raw(Box::new(node))
    }
    #[inline]
    unsafe fn free<T>(p: *mut T) {
        // SAFETY: `p` is `alloc`'s `Box::into_raw`, given back once.
        drop(unsafe { Box::from_raw(p) });
    }
}

macro_rules! std_word {
    ($doc:literal, $name:ident $(<$t:ident>)?, $atomic:ty, $v:ty) => {
        #[doc = $doc]
        #[derive(Debug)]
        #[repr(transparent)]
        pub struct $name $(<$t>)? ($atomic);

        impl $(<$t>)? Word<$v> for $name $(<$t>)? {
            #[inline]
            fn new(_name: &'static str, v: $v) -> Self {
                $name(<$atomic>::new(v))
            }
            #[inline]
            fn load(&self, ord: Ordering) -> $v {
                self.0.load(ord)
            }
            #[inline]
            fn store(&self, v: $v, ord: Ordering) {
                self.0.store(v, ord);
            }
            #[inline]
            fn compare_exchange(
                &self,
                cur: $v,
                new: $v,
                ok: Ordering,
                fail: Ordering,
            ) -> Result<$v, $v> {
                self.0.compare_exchange(cur, new, ok, fail)
            }
            #[inline]
            fn compare_exchange_weak(
                &self,
                cur: $v,
                new: $v,
                ok: Ordering,
                fail: Ordering,
            ) -> Result<$v, $v> {
                self.0.compare_exchange_weak(cur, new, ok, fail)
            }
            #[inline]
            fn load_mut(&mut self) -> $v {
                *self.0.get_mut()
            }
            #[inline]
            fn snooze(&self, backoff: &mut Backoff) {
                backoff.snooze();
            }
        }
    };
}

std_word!("[`Std`]'s 64-bit word.", StdU64, AtomicU64, u64);
std_word!(
    "[`Std`]'s pointer-sized word.",
    StdUsize,
    AtomicUsize,
    usize
);
std_word!("[`Std`]'s boolean word.", StdBool, AtomicBool, bool);
std_word!("[`Std`]'s pointer word.", StdPtr<T>, AtomicPtr<T>, *mut T);

impl IntWord<u64> for StdU64 {
    #[inline]
    fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
        self.0.fetch_add(v, ord)
    }
}

impl IntWord<usize> for StdUsize {
    #[inline]
    fn fetch_add(&self, v: usize, ord: Ordering) -> usize {
        self.0.fetch_add(v, ord)
    }
}

/// [`Std`]'s plain-data cell: an `UnsafeCell`.
#[derive(Debug)]
#[repr(transparent)]
pub struct StdCell<T>(UnsafeCell<T>);

impl<T> DataCell<T> for StdCell<T> {
    #[inline]
    fn new(_name: &'static str, v: T) -> Self {
        StdCell(UnsafeCell::new(v))
    }
    #[inline]
    unsafe fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        // SAFETY: the caller rules out a concurrent `with_mut`.
        f(unsafe { &*self.0.get() })
    }
    #[inline]
    unsafe fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        // SAFETY: the caller rules out any concurrent access.
        f(unsafe { &mut *self.0.get() })
    }
    #[inline]
    fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        AtomicF64, AtomicFlag, BoundedMpmcQueue, CombiningCore, IndexCounter, Reducer,
        SenseBarrier, TreiberStack,
    };
    use std::mem::size_of;

    #[test]
    fn std_constructs_keep_their_pre_facade_size() {
        // Sizes at the commit before the facade (x86-64): wrappers are
        // `repr(transparent)`, so `A = Std` adds no byte to any construct.
        assert_eq!(size_of::<TreiberStack<u64>>(), 32);
        assert_eq!(size_of::<SenseBarrier>(), 80);
        assert_eq!(size_of::<AtomicF64>(), 16);
        assert_eq!(size_of::<Reducer>(), 72);
        assert_eq!(size_of::<AtomicFlag>(), 16);
        assert_eq!(size_of::<IndexCounter>(), 96);
        assert_eq!(size_of::<CombiningCore<u64>>(), 48);
        assert_eq!(size_of::<BoundedMpmcQueue<u64>>(), 384);
    }
}
