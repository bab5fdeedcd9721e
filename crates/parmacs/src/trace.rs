//! Sync-event tracing hooks: the event vocabulary and the sink interface.
//!
//! The runtime can stream one compact [`TraceEvent`] per synchronization
//! operation to an attached [`TraceSink`]
//! ([`SyncEnv::with_trace`](crate::SyncEnv::with_trace)). The wait-free
//! ring-buffer recorder, codec, and trace→simulation lowering live in the
//! `splash4-trace` crate; this module only defines what the primitives emit,
//! so the runtime has no dependency on the recorder.
//!
//! Events are *logical*: both back-ends of a construct emit the same
//! structural events (`Getsub`, `Rmw{class}`, `Enqueue`…) at the same program
//! points, so a trace captured under one [`SyncMode`](crate::SyncMode) can be
//! replayed under either. The lock-based back-end additionally emits physical
//! [`LockAcq`](TraceEvent::LockAcq) events carrying contention and hold-time
//! observations.
//!
//! Tracing is disabled by default and costs one branch on an unset pointer
//! per sync op.

use crate::mode::ConstructClass;
use std::sync::OnceLock;
use std::time::Instant;

/// One synchronization event, as emitted by the runtime primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Pure computation of `ns` nanoseconds. The runtime never emits this —
    /// compute is reconstructed from inter-event timestamp gaps — but lowered
    /// and decoded traces carry it explicitly.
    Compute {
        /// Duration in nanoseconds.
        ns: u64,
    },
    /// `n` logical read-modify-write operations of a construct class
    /// (reduction update, fine-grained data touch, flag op…). Emitted by both
    /// back-ends: under locks the same logical op happens inside a critical
    /// section.
    Rmw {
        /// Construct class the ops belong to.
        class: ConstructClass,
        /// Number of logical ops.
        n: u32,
    },
    /// A sleeping-lock acquire/release pair completed (lock-based back-end
    /// only; physical observation).
    LockAcq {
        /// `true` if the acquire found the lock held.
        contended: bool,
        /// Time the lock was held, in nanoseconds.
        hold_ns: u64,
    },
    /// Arrival at barrier `id` (before waiting).
    BarrierEnter {
        /// Runtime-wide barrier id (allocation order).
        id: u32,
    },
    /// Release from barrier `id`.
    BarrierExit {
        /// Runtime-wide barrier id (allocation order).
        id: u32,
    },
    /// One `GETSUB` counter grab handing out `n` work items.
    Getsub {
        /// Items claimed by this grab (0 for an exhausted poll).
        n: u32,
    },
    /// A task-queue push.
    Enqueue,
    /// A task-queue pop (successful or final empty poll).
    Dequeue,
}

/// Receiver for the runtime's event stream.
///
/// `record` is called from kernel threads on synchronization hot paths;
/// implementations must be wait-free on the caller's side (the `splash4-trace`
/// recorder uses one single-producer ring per thread).
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Record `event` from thread `tid` ([`current_tid`](crate::current_tid)).
    fn record(&self, tid: usize, event: TraceEvent);
}

/// Nanoseconds since the process-wide trace epoch (first call). Monotonic;
/// shared by the runtime's hold-time measurement and the recorder's
/// timestamps so both land on one time base.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_compact() {
        // The recorder stores events by value in fixed slots; keep them small.
        assert!(std::mem::size_of::<TraceEvent>() <= 16);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
