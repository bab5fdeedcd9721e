//! The serial executor shared by the Splash-3 and Splash-4x expansions.
//!
//! A lock-protected construct and a flat-combined one are the same object:
//! a sequential interpreter `(state, opcode, arg) -> result` that must run
//! one request at a time. Only *who* runs it differs — the caller itself
//! under a sleeping lock (Splash-3), or whichever thread currently holds
//! the combiner role (Splash-4x). [`Serial`] is that choice, so
//! [`IndexCounter`](crate::counter::IndexCounter) and
//! [`Reducer`](crate::reduce::Reducer) state their interpreter once and the
//! Splash-4 expansion stays a native atomic arm beside it.

use crate::atomics::{Atomics, Std};
use crate::combining::CombiningCore;
use crate::lock::{RawLock, SleepLock};
use crate::mode::SyncMode;
use crate::stats::SyncCounters;
use std::cell::UnsafeCell;
use std::sync::Arc;

/// Sequential op interpreter: `(state, opcode, arg) -> result`. Opcodes are
/// the construct's own and must be non-zero (zero marks an empty
/// publication record in the combining core).
pub(crate) type Apply<T> = fn(&mut T, u64, u64) -> u64;

/// A state value `T` whose interpreter runs one request at a time.
pub(crate) struct Serial<T, A: Atomics = Std>(Exec<T, A>);

enum Exec<T, A: Atomics> {
    Locked {
        lock: SleepLock,
        state: UnsafeCell<T>,
        apply: Apply<T>,
    },
    Combining(CombiningCore<T, A>),
}

// SAFETY: the `Locked` state is only touched with `lock` held, in `run`;
// `CombiningCore<T, A>` is `Sync` for `T: Send`.
unsafe impl<T: Send, A: Atomics> Sync for Serial<T, A> {}

impl<T, A: Atomics> Serial<T, A> {
    /// The serial strategy `mode` selects, or `None` for
    /// [`SyncMode::LockFree`], whose constructs use native atomics instead.
    /// `nthreads` sizes the combining core's publication list. Panics for
    /// [`SyncMode::LockBased`] unless [`Atomics::OS_BLOCKING`].
    pub(crate) fn for_mode(
        mode: SyncMode,
        nthreads: usize,
        state: T,
        apply: Apply<T>,
        stats: &Arc<SyncCounters>,
    ) -> Option<Serial<T, A>> {
        match mode {
            SyncMode::LockBased => {
                let sleeps =
                    "SyncMode::LockBased sleeps on a mutex, which these atomics cannot schedule";
                assert!(A::OS_BLOCKING, "{sleeps}");
                Some(Serial(Exec::Locked {
                    lock: SleepLock::new(Arc::clone(stats)),
                    state: UnsafeCell::new(state),
                    apply,
                }))
            }
            SyncMode::LockFree => None,
            SyncMode::Combining => Some(Serial(Exec::Combining(CombiningCore::new_in(
                nthreads,
                state,
                apply,
                Arc::clone(stats),
            )))),
        }
    }

    /// Run `(op, arg)` against the state and return the interpreter's result.
    #[inline]
    pub(crate) fn run(&self, op: u64, arg: u64) -> u64 {
        match &self.0 {
            Exec::Locked { lock, state, apply } => {
                // SAFETY: `with` holds the lock around the call — exclusive
                // access to the state for its duration.
                lock.with(|| apply(unsafe { &mut *state.get() }, op, arg))
            }
            Exec::Combining(core) => core.run(op, arg),
        }
    }
}
