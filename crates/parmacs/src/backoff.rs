//! Bounded exponential backoff for spin loops.
//!
//! Every spinning wait in the runtime (sense/tree barrier spin, ticket-lock
//! turn wait, TAS/TTAS acquire, atomic-flag pause) previously carried its own
//! ad-hoc spin/yield counter. [`Backoff`] centralizes the policy: spin with
//! [`std::hint::spin_loop`] in exponentially growing bursts up to a
//! truncation limit, then fall back to [`std::thread::yield_now`] so
//! oversubscribed hosts (more runnable threads than cores) stay live.
//!
//! The policy is deliberately *not* randomized, and it only shapes *when*
//! the next load happens, never *what* it observes: the orderings of the
//! loops using `Backoff` are pinned by `crate::spec` tables, and under the
//! model checker the wait is a park on the awaited word instead.

/// Exponential spin/yield backoff state for one wait episode.
///
/// ```
/// use splash4_parmacs::backoff::Backoff;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let flag = AtomicBool::new(true); // already set, loop exits immediately
/// let mut backoff = Backoff::new();
/// while !flag.load(Ordering::Acquire) {
///     backoff.snooze();
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Burst length doubles until it reaches `2^SPIN_LIMIT` spin-loop hints
    /// per snooze (64): past that the waiter is clearly blocked on another
    /// thread's progress, so it yields to the scheduler instead of burning
    /// the core the lagging thread may need.
    pub const SPIN_LIMIT: u32 = 6;

    /// Fresh backoff state; the first snooze executes a single spin hint.
    pub const fn new() -> Backoff {
        Backoff { step: 0 }
    }

    /// Wait a little longer than last time: `2^step` spin hints while below
    /// the truncation limit, a scheduler yield after it.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// `true` once the exponential phase is exhausted and further snoozes
    /// yield to the scheduler.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step > Self::SPIN_LIMIT
    }

    /// Restart the exponential schedule (for reuse across wait episodes).
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_yield_after_limit() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..=Backoff::SPIN_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
        // Further snoozes stay in the yield regime without overflowing.
        for _ in 0..10_000 {
            b.snooze();
        }
        assert!(b.is_completed());
    }

    #[test]
    fn reset_restarts_schedule() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.snooze();
        }
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn total_spins_before_yield_is_bounded() {
        // Sum of 2^0..=2^SPIN_LIMIT: the worst-case busy work per episode.
        let total: u32 = (0..=Backoff::SPIN_LIMIT).map(|s| 1 << s).sum();
        assert_eq!(total, (1 << (Backoff::SPIN_LIMIT + 1)) - 1);
        assert!(total < 200, "spin phase must stay short-lived");
    }
}
