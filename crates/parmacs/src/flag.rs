//! Pause variables (`PAUSE` / `SETPAUSE` / `CLEARPAUSE` in PARMACS).
//!
//! A pause variable is a one-way condition: producers `set` it, consumers
//! `wait` until it is set. Splash-3 expands it to a mutex + condvar pair
//! ([`CondvarFlag`]); Splash-4 to an atomic flag with acquire/release
//! ordering ([`AtomicFlag`]). The `lu` and `cholesky` kernels use arrays of
//! these as column/block "done" signals.

use crate::atomics::{Atomics, Std, Word};
use crate::backoff::Backoff;
use crate::mode::ConstructClass;
use crate::spec::FlagSpec;
use crate::stats::{Counter, SyncCounters};
use crate::trace::TraceEvent;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// One-way signalling flag.
pub trait PauseVar: Send + Sync + fmt::Debug {
    /// Signal the flag; wakes all current and future waiters.
    fn set(&self);
    /// Block until the flag is set. Returns immediately if already set.
    fn wait(&self);
    /// `true` if the flag is currently set (non-blocking).
    fn is_set(&self) -> bool;
    /// Reset to unset (between phases; requires external quiescence).
    fn clear(&self);
}

/// Mutex + condvar pause variable (Splash-3).
pub struct CondvarFlag {
    set: Mutex<bool>,
    cv: Condvar,
    stats: Arc<SyncCounters>,
}

impl CondvarFlag {
    /// New unset flag reporting into `stats`.
    pub fn new(stats: Arc<SyncCounters>) -> CondvarFlag {
        CondvarFlag {
            set: Mutex::new(false),
            cv: Condvar::new(),
            stats,
        }
    }
}

impl PauseVar for CondvarFlag {
    fn set(&self) {
        // Emitted from `set` only: the wait side's fast path is
        // timing-dependent, so only the signal is a stable logical event.
        self.stats.trace(TraceEvent::Rmw {
            class: ConstructClass::Flag,
            n: 1,
        });
        let mut s = self.set.lock().expect("flag mutex poisoned");
        *s = true;
        drop(s);
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut s = self.set.lock().expect("flag mutex poisoned");
        if !*s {
            self.stats.bump(Counter::FlagWaits);
            self.stats.timed(Counter::FlagWaitNs, || {
                while !*s {
                    s = self.cv.wait(s).expect("flag mutex poisoned");
                }
            });
        }
    }

    fn is_set(&self) -> bool {
        *self.set.lock().expect("flag mutex poisoned")
    }

    fn clear(&self) {
        *self.set.lock().expect("flag mutex poisoned") = false;
    }
}

impl fmt::Debug for CondvarFlag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CondvarFlag").finish_non_exhaustive()
    }
}

/// Atomic pause variable (Splash-4): release store, acquire spin.
pub struct AtomicFlag<A: Atomics = Std> {
    set: A::Bool,
    stats: Arc<SyncCounters>,
}

impl<A: Atomics> AtomicFlag<A> {
    /// New unset flag reporting into `stats`.
    pub fn new(stats: Arc<SyncCounters>) -> AtomicFlag<A> {
        AtomicFlag {
            set: A::Bool::new("flag", false),
            stats,
        }
    }
}

impl<A: Atomics> PauseVar for AtomicFlag<A> {
    fn set(&self) {
        self.stats.trace(TraceEvent::Rmw {
            class: ConstructClass::Flag,
            n: 1,
        });
        self.set.store(true, A::spec(FlagSpec::SPLASH4).set_store);
    }

    fn wait(&self) {
        let s = A::spec(FlagSpec::SPLASH4);
        if !self.set.load(s.wait_load) {
            self.stats.bump(Counter::FlagWaits);
            self.stats.timed(Counter::FlagWaitNs, || {
                let mut backoff = Backoff::new();
                while !self.set.load(s.wait_load) {
                    self.set.snooze(&mut backoff);
                }
            });
        }
    }

    fn is_set(&self) -> bool {
        self.set.load(A::spec(FlagSpec::SPLASH4).wait_load)
    }

    fn clear(&self) {
        self.set
            .store(false, A::spec(FlagSpec::SPLASH4).clear_store);
    }
}

impl<A: Atomics> fmt::Debug for AtomicFlag<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicFlag")
            .field("set", &self.is_set())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::atomic::Ordering;

    fn handoff(flag: Arc<dyn PauseVar>) {
        let order = AtomicU32::new(0);
        std::thread::scope(|s| {
            let f2 = Arc::clone(&flag);
            let order = &order;
            s.spawn(move || {
                f2.wait();
                // The producer's write must be visible after wait().
                assert_eq!(order.load(Ordering::Acquire), 1);
                order.store(2, Ordering::Release);
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            order.store(1, Ordering::Release);
            flag.set();
        });
        assert_eq!(order.load(Ordering::Acquire), 2);
    }

    #[test]
    fn condvar_flag_hands_off() {
        let stats = Arc::new(SyncCounters::new());
        let flag: Arc<dyn PauseVar> = Arc::new(CondvarFlag::new(Arc::clone(&stats)));
        handoff(flag);
        assert_eq!(stats.snapshot().flag_waits, 1);
    }

    #[test]
    fn atomic_flag_hands_off() {
        let stats = Arc::new(SyncCounters::new());
        let flag: Arc<dyn PauseVar> = Arc::new(AtomicFlag::<Std>::new(Arc::clone(&stats)));
        handoff(flag);
        assert_eq!(stats.snapshot().flag_waits, 1);
    }

    #[test]
    fn already_set_does_not_count_as_wait() {
        for flag in [
            Arc::new(CondvarFlag::new(Arc::new(SyncCounters::new()))) as Arc<dyn PauseVar>,
            Arc::new(AtomicFlag::<Std>::new(Arc::new(SyncCounters::new()))) as Arc<dyn PauseVar>,
        ] {
            assert!(!flag.is_set());
            flag.set();
            assert!(flag.is_set());
            flag.wait(); // must not block
            flag.clear();
            assert!(!flag.is_set());
        }
    }
}
