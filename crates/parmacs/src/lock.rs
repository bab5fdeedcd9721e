//! Locks (`LOCK`/`UNLOCK`, `ALOCK` arrays in PARMACS).
//!
//! [`SleepLock`] is the Splash-3 expansion: a pthreads-style sleeping mutex —
//! contended acquirers block in the kernel and pay wake-up latency. The
//! Splash-4 modernization does not replace locks with better locks, it
//! removes them, so the lock-free back-ends of the other modules never take
//! one.

use crate::stats::{Counter, SyncCounters};
use crate::trace::{now_ns, TraceEvent};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A raw acquire/release lock, deliberately guard-free so it can expand the
/// PARMACS `LOCK(l)` / `UNLOCK(l)` macro pair one-to-one.
///
/// Prefer [`RawLock::with`] in new code; it restores RAII semantics.
pub trait RawLock: Send + Sync + fmt::Debug {
    /// Acquire the lock, blocking (sleeping or spinning) until available.
    fn acquire(&self);

    /// Release the lock.
    ///
    /// # Panics
    /// Implementations may panic if the lock is not currently held.
    fn release(&self);

    /// Run `f` with the lock held.
    fn with<T>(&self, f: impl FnOnce() -> T) -> T
    where
        Self: Sized,
    {
        self.acquire();
        let out = f();
        self.release();
        out
    }
}

impl RawLock for Arc<dyn RawLock> {
    fn acquire(&self) {
        (**self).acquire();
    }
    fn release(&self) {
        (**self).release();
    }
}

/// Pthreads-style sleeping mutex: contended acquirers sleep on a condvar.
///
/// This mirrors what Splash-3's `LOCK` costs on Linux (futex wait + wake):
/// an uncontended acquire is one atomic, a contended one is a syscall-grade
/// sleep and a wake-up hand-off.
pub struct SleepLock {
    locked: Mutex<bool>,
    cv: Condvar,
    stats: Arc<SyncCounters>,
    /// Trace-only observations, written by the current holder (exclusion is
    /// provided by the lock itself): acquisition timestamp and whether the
    /// acquire hit the slow path.
    t_acquired: AtomicU64,
    t_contended: AtomicBool,
}

impl SleepLock {
    /// New unlocked lock reporting into `stats`.
    pub fn new(stats: Arc<SyncCounters>) -> SleepLock {
        SleepLock {
            locked: Mutex::new(false),
            cv: Condvar::new(),
            stats,
            t_acquired: AtomicU64::new(0),
            t_contended: AtomicBool::new(false),
        }
    }
}

impl RawLock for SleepLock {
    fn acquire(&self) {
        self.stats.bump(Counter::LockAcquires);
        let mut held = self.locked.lock().expect("lock mutex poisoned");
        let contended = *held;
        if *held {
            self.stats.bump(Counter::LockContended);
            self.stats.timed(Counter::LockWaitNs, || {
                while *held {
                    held = self.cv.wait(held).expect("lock mutex poisoned");
                }
                *held = true;
            });
        } else {
            *held = true;
        }
        if self.stats.tracing() {
            self.t_acquired.store(now_ns(), Ordering::Relaxed);
            self.t_contended.store(contended, Ordering::Relaxed);
        }
    }

    fn release(&self) {
        let traced = self.stats.tracing().then(|| TraceEvent::LockAcq {
            contended: self.t_contended.load(Ordering::Relaxed),
            hold_ns: now_ns().saturating_sub(self.t_acquired.load(Ordering::Relaxed)),
        });
        let mut held = self.locked.lock().expect("lock mutex poisoned");
        assert!(*held, "release of an unheld SleepLock");
        *held = false;
        drop(held);
        self.cv.notify_one();
        if let Some(ev) = traced {
            self.stats.trace(ev);
        }
    }
}

impl fmt::Debug for SleepLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SleepLock").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hammer(lock: Arc<dyn RawLock>, threads: usize, iters: usize) -> u64 {
        // A non-atomic counter protected only by the lock under test: if the
        // lock fails to exclude, the final count comes up short.
        struct Shared(std::cell::UnsafeCell<u64>);
        unsafe impl Sync for Shared {}
        let shared = Shared(std::cell::UnsafeCell::new(0));
        std::thread::scope(|s| {
            for _ in 0..threads {
                let lock = Arc::clone(&lock);
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
        let lock: Arc<dyn RawLock> = Arc::new(SleepLock::new(Arc::clone(&stats)));
        assert_eq!(hammer(lock, 4, 500), 2000);
        assert_eq!(stats.snapshot().lock_acquires, 2000);
    }

    #[test]
    fn with_releases_on_normal_exit() {
        let stats = Arc::new(SyncCounters::new());
        let lock = SleepLock::new(stats);
        assert_eq!(lock.with(|| 42), 42);
        // Re-acquirable immediately: would deadlock if `with` leaked the hold.
        lock.with(|| ());
    }

    #[test]
    #[should_panic(expected = "unheld")]
    fn sleep_lock_release_unheld_panics() {
        let lock = SleepLock::new(Arc::new(SyncCounters::new()));
        lock.release();
    }

    #[test]
    fn contention_is_counted() {
        let stats = Arc::new(SyncCounters::new());
        let lock: Arc<dyn RawLock> = Arc::new(SleepLock::new(Arc::clone(&stats)));
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
