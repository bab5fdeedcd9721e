//! The atomics facade: the one seam between the lock-free constructs and
//! the memory they synchronize through.
//!
//! Every shipped construct is generic over an [`Atomics`], with [`Std`] as
//! the default: `std::sync::atomic` behind `#[repr(transparent)]`,
//! `#[inline]` wrappers, the shipped ordering tables as constants — what
//! production code compiled to before the facade existed. The model checker
//! (`splash4-check`) supplies the other implementation, whose words are
//! schedule points and whose cells feed a happens-before race detector;
//! that is how it checks *these* constructs and not a transcription.
//!
//! What goes through the facade is the protocol: the words a construct's
//! correctness argument names, the plain data other threads reach through
//! them ([`DataCell`]), and the Splash-3 constructs' sleep ([`Atomics::wait`]
//! and [`Atomics::wake`], the futex pair glibc builds pthreads objects
//! from). Telemetry — `len`, [`SyncCounters`](crate::SyncCounters), trace
//! events — stays on `std` atomics and is never a schedule point.

use crate::backoff::Backoff;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// One atomic word holding a `V`. `name` labels the word in the model
/// checker's diagnostics and fault table; [`Std`] discards it.
pub trait Word<V: Copy>: Send + Sync {
    /// A word holding `v`.
    fn new(name: &'static str, v: V) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> V;
    /// Atomic store.
    fn store(&self, v: V, ord: Ordering);
    /// Atomic swap; returns the previous value.
    fn swap(&self, v: V, ord: Ordering) -> V;
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

/// Whom [`Atomics::wake`] wakes; the discriminant is the futex wake count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Wake {
    /// One sleeper, if any.
    One = 1,
    /// Every sleeper.
    All = i32::MAX as u32,
}

/// The memory a construct runs on.
pub trait Atomics: Sized + 'static {
    /// 32-bit word, the one a thread can sleep on.
    type U32: IntWord<u32>;
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
    /// Sleep while `word` holds `expected` (futex wait), until a
    /// [`Atomics::wake`] on it. May return spuriously: callers re-check.
    fn wait(word: &Self::U32, expected: u32);
    /// Wake threads sleeping in [`Atomics::wait`] on `word` (futex wake).
    fn wake(word: &Self::U32, whom: Wake);
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
    type U32 = StdU32;
    type U64 = StdU64;
    type Usize = StdUsize;
    type Bool = StdBool;
    type Ptr<T> = StdPtr<T>;
    type Cell<T> = StdCell<T>;
    #[inline]
    fn wait(word: &StdU32, expected: u32) {
        futex(&word.0, FUTEX_WAIT_PRIVATE, expected);
    }
    #[inline]
    fn wake(word: &StdU32, whom: Wake) {
        futex(&word.0, FUTEX_WAKE_PRIVATE, whom as u32);
    }
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
            fn swap(&self, v: $v, ord: Ordering) -> $v {
                self.0.swap(v, ord)
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

std_word!("[`Std`]'s 32-bit word.", StdU32, AtomicU32, u32);
std_word!("[`Std`]'s 64-bit word.", StdU64, AtomicU64, u64);
std_word!(
    "[`Std`]'s pointer-sized word.",
    StdUsize,
    AtomicUsize,
    usize
);
std_word!("[`Std`]'s boolean word.", StdBool, AtomicBool, bool);
std_word!("[`Std`]'s pointer word.", StdPtr<T>, AtomicPtr<T>, *mut T);

macro_rules! std_int_word {
    ($($name:ident: $v:ty),*) => {$(
        impl IntWord<$v> for $name {
            #[inline]
            fn fetch_add(&self, v: $v, ord: Ordering) -> $v {
                self.0.fetch_add(v, ord)
            }
        }
    )*};
}

std_int_word!(StdU32: u32, StdU64: u64, StdUsize: usize);

const FUTEX_WAIT_PRIVATE: i32 = 128;
const FUTEX_WAKE_PRIVATE: i32 = 129;

/// One futex call on `word`: `val` is a wait's expected value or a wake's
/// count. Linux on x86-64 or AArch64, whose `SYS_futex` numbers are known.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
))]
fn futex(word: &AtomicU32, op: i32, val: u32) {
    extern "C" {
        fn syscall(number: i64, ...) -> i64;
    }
    #[cfg(target_arch = "x86_64")]
    const SYS_FUTEX: i64 = 202;
    #[cfg(target_arch = "aarch64")]
    const SYS_FUTEX: i64 = 98;
    // SAFETY: `word` is a live, aligned u32 for the whole call, and a null
    // timeout sleeps until woken (a wake ignores it). An error (the word
    // moved, a signal) is a spurious return, which callers re-check.
    unsafe { syscall(SYS_FUTEX, word.as_ptr(), op, val, std::ptr::null::<u8>()) };
}

/// Where that call cannot run (other hosts, and Miri, which does not model
/// `syscall`): a wait yields and a wake does nothing, which is correct
/// because a wait may return spuriously.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
fn futex(_word: &AtomicU32, op: i32, _val: u32) {
    if op == FUTEX_WAIT_PRIVATE {
        std::thread::yield_now();
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
        SenseBarrier, SleepLock, TreiberStack,
    };
    use std::mem::size_of;

    #[test]
    fn std_constructs_keep_their_pre_facade_size() {
        // Sizes on x86-64, none above the commit before the facade: wrappers
        // are `repr(transparent)`, so `A = Std` adds no byte to any
        // construct. `AtomicF64` is the bare word (its callers pass their
        // counters), `SenseBarrier` carries no trace-only field and
        // `TreiberStack` no `len` word.
        assert_eq!(size_of::<TreiberStack<u64>>(), 24);
        assert_eq!(size_of::<SenseBarrier>(), 72);
        assert_eq!(size_of::<AtomicF64>(), 8);
        assert_eq!(size_of::<Reducer>(), 72);
        assert_eq!(size_of::<AtomicFlag>(), 16);
        assert_eq!(size_of::<IndexCounter>(), 96);
        assert_eq!(size_of::<CombiningCore<u64>>(), 48);
        assert_eq!(size_of::<BoundedMpmcQueue<u64>>(), 384);
    }

    #[test]
    fn sleep_lock_is_its_word_and_its_counters() {
        // No trace-only bytes: the futex word and the `Arc` of its stats.
        assert_eq!(size_of::<SleepLock>(), 16);
    }
}
