//! Sync-event tracing hooks: the event vocabulary and the sink interface.
//!
//! The runtime can stream one compact [`TraceEvent`] per synchronization
//! operation to an attached [`TraceSink`]
//! ([`SyncEnv::with_trace`](crate::SyncEnv::with_trace)). The wait-free
//! ring-buffer recorder, its clock, the codec and the trace→simulation
//! lowering live in the `splash4-trace` crate; this module only defines what
//! the primitives emit, so the runtime has no dependency on the recorder.
//!
//! Events are *logical*: both back-ends of a construct emit the same events
//! (`Getsub`, `Rmw{class}`, `Queue`…) at the same program points, so a trace
//! captured under one [`SyncMode`](crate::SyncMode) holds the same events as
//! one captured under the other and replays under either. A sleeping lock's
//! acquire is not an event: the logical op it guards is, and
//! [`SyncProfile`](crate::SyncProfile) counts the acquires. Computation is
//! not an event either: a consumer reads it from the gaps between the
//! timestamps its recorder puts on the events.
//!
//! Tracing is disabled by default and costs one branch on an unset pointer
//! per sync op.

use crate::mode::ConstructClass;

/// One synchronization event, as emitted by the runtime primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
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
    /// Arrival at a barrier (before waiting).
    BarrierEnter,
    /// Release from a barrier.
    BarrierExit,
    /// One `GETSUB` counter grab handing out `n` work items.
    Getsub {
        /// Items claimed by this grab (0 for an exhausted poll).
        n: u32,
    },
    /// A task-queue push that lands or a pop that returns a task (an empty
    /// pop is not an event, as it is not a `queue_ops` count).
    Queue,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_compact() {
        // The recorder stores events by value in fixed slots: a tag, a class
        // byte and a count.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 8);
    }
}
