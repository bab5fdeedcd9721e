//! Locks (`LOCK`/`UNLOCK`, `ALOCK` arrays in PARMACS).
//!
//! [`SleepLock`] is the Splash-3 expansion: the pthreads mutex as glibc
//! builds it, one futex word. Contended acquirers sleep in the kernel, and a
//! release enters it only when the word says someone sleeps. The Splash-4
//! modernization does not replace locks with better locks, it removes them,
//! so the lock-free back-ends of the other modules never take one.

use crate::atomics::{Atomics, Std, Wake, Word};
use crate::stats::{Counter, SyncCounters};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const FREE: u32 = 0;
const HELD: u32 = 1;
const CONTENDED: u32 = 2;

/// Pthreads-style sleeping mutex on one three-state word: 0 free, 1 held,
/// 2 held with waiters. An uncontended acquire is one CAS and its release
/// one swap. A contended acquirer marks the word 2 and sleeps in
/// [`Atomics::wait`]; only the release of a 2 calls [`Atomics::wake`], the
/// rule of `pthread_mutex_unlock`.
///
/// Raw acquire/release, deliberately guard-free, so it expands the PARMACS
/// `LOCK(l)` / `UNLOCK(l)` pair one-to-one; [`SleepLock::with`] restores RAII
/// semantics.
pub struct SleepLock<A: Atomics = Std> {
    state: A::U32,
    stats: Arc<SyncCounters>,
}

impl<A: Atomics> SleepLock<A> {
    /// New unlocked lock reporting into `stats`.
    pub fn new(stats: Arc<SyncCounters>) -> SleepLock<A> {
        SleepLock {
            state: A::U32::new("lock", FREE),
            stats,
        }
    }

    /// Acquire the lock, sleeping until it is available.
    pub fn acquire(&self) {
        self.stats.bump(Counter::LockAcquires);
        let (acq, rlx) = (Ordering::Acquire, Ordering::Relaxed);
        if self.state.compare_exchange(FREE, HELD, acq, rlx).is_err() {
            self.stats.bump(Counter::LockContended);
            self.stats.timed(Counter::LockWaitNs, || {
                while self.state.swap(CONTENDED, acq) != FREE {
                    A::wait(&self.state, CONTENDED);
                }
            });
        }
    }

    /// Release the lock, waking one sleeper if the word says there may be one.
    ///
    /// # Panics
    /// Panics if the lock is not held.
    pub fn release(&self) {
        match self.state.swap(FREE, Ordering::Release) {
            FREE => panic!("release of an unheld SleepLock"),
            CONTENDED => A::wake(&self.state, Wake::One),
            _ => {}
        }
    }

    /// Run `f` with the lock held.
    pub fn with<T>(&self, f: impl FnOnce() -> T) -> T {
        self.acquire();
        let out = f();
        self.release();
        out
    }
}

impl<A: Atomics> fmt::Debug for SleepLock<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SleepLock").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hammer(lock: &SleepLock, threads: usize, iters: usize) -> u64 {
        // A non-atomic counter protected only by the lock under test: if the
        // lock fails to exclude, the final count comes up short.
        struct Shared(std::cell::UnsafeCell<u64>);
        unsafe impl Sync for Shared {}
        let shared = Shared(std::cell::UnsafeCell::new(0));
        std::thread::scope(|s| {
            for _ in 0..threads {
                let shared = &shared;
                s.spawn(move || {
                    for _ in 0..iters {
                        lock.acquire();
                        // SAFETY: mutual exclusion is exactly what we assert.
                        unsafe { *shared.0.get() += 1 };
                        lock.release();
                    }
                });
            }
        });
        shared.0.into_inner()
    }

    #[test]
    fn sleep_lock_excludes() {
        let stats = Arc::new(SyncCounters::new());
        let lock = SleepLock::<Std>::new(Arc::clone(&stats));
        assert_eq!(hammer(&lock, 4, 500), 2000);
        assert_eq!(stats.snapshot().lock_acquires, 2000);
    }

    #[test]
    fn with_releases_on_normal_exit() {
        let stats = Arc::new(SyncCounters::new());
        let lock = SleepLock::<Std>::new(stats);
        assert_eq!(lock.with(|| 42), 42);
        // Re-acquirable immediately: would deadlock if `with` leaked the hold.
        lock.with(|| ());
    }

    #[test]
    #[should_panic(expected = "unheld")]
    fn sleep_lock_release_unheld_panics() {
        let lock = SleepLock::<Std>::new(Arc::new(SyncCounters::new()));
        lock.release();
    }

    #[test]
    fn contention_is_counted() {
        let stats = Arc::new(SyncCounters::new());
        let lock = Arc::new(SleepLock::<Std>::new(Arc::clone(&stats)));
        // Hold the lock while another thread tries to take it.
        lock.acquire();
        let l2 = Arc::clone(&lock);
        let h = std::thread::spawn(move || {
            l2.acquire();
            l2.release();
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        lock.release();
        h.join().unwrap();
        let p = stats.snapshot();
        assert_eq!(p.lock_acquires, 2);
        assert_eq!(p.lock_contended, 1);
        assert!(p.lock_wait_ns > 0);
    }
}
