//! Trace analysis: per-class operation counts, the span and a critical-path
//! estimate.

use crate::lower::{pool_segments, SegmentTotals};
use crate::Trace;
use splash4_parmacs::{ConstructClass, Json, ToJson};

/// Aggregate statistics of one recorded [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Workload name (from the trace).
    pub name: String,
    /// Traced thread count.
    pub nthreads: usize,
    /// Total recorded events.
    pub events: usize,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// `GETSUB` grabs observed.
    pub getsub_grabs: u64,
    /// Work items handed out through those grabs.
    pub getsub_items: u64,
    /// Logical RMW counts, indexed by [`ConstructClass`] discriminant (the
    /// order of [`ConstructClass::ALL`]).
    pub rmws: [u64; ConstructClass::ALL.len()],
    /// Queue pushes + pops.
    pub queue_ops: u64,
    /// Barrier episodes every thread participated in.
    pub barrier_episodes: usize,
    /// Trace wall-clock span (first to last timestamp).
    pub span_ns: u64,
    /// Critical-path estimate: per barrier-separated segment, the slowest
    /// thread's segment time, summed. A replay cannot beat this without
    /// re-dealing work across threads.
    pub critical_path_ns: u64,
}

impl TraceSummary {
    /// Summarize `trace`.
    pub fn from_trace(trace: &Trace) -> TraceSummary {
        let segments = pool_segments(trace);
        let sum = |field: fn(&SegmentTotals) -> u64| segments.iter().map(field).sum();
        let mut rmws = [0; ConstructClass::ALL.len()];
        for seg in &segments {
            for (total, n) in rmws.iter_mut().zip(seg.rmws) {
                *total += n;
            }
        }
        let threads = trace.threads();
        let first = threads
            .iter()
            .filter_map(|t| t.first())
            .map(|e| e.ts_ns)
            .min();
        let last = threads
            .iter()
            .filter_map(|t| t.last())
            .map(|e| e.ts_ns)
            .max();
        TraceSummary {
            name: trace.name().to_owned(),
            nthreads: trace.nthreads(),
            events: trace.len(),
            dropped: trace.dropped(),
            getsub_grabs: sum(|t| t.getsub_grabs),
            getsub_items: sum(|t| t.getsub_items),
            rmws,
            queue_ops: sum(|t| t.queue_ops),
            barrier_episodes: segments.len() - 1,
            span_ns: last.zip(first).map_or(0, |(b, a)| b - a),
            critical_path_ns: sum(|t| t.max_wall_ns),
        }
    }
}

impl ToJson for TraceSummary {
    fn to_json(&self) -> Json {
        let rmws = ConstructClass::ALL
            .iter()
            .zip(self.rmws.iter())
            .map(|(c, n)| (c.label().to_owned(), Json::Num(*n as f64)))
            .collect();
        Json::Object(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("nthreads".into(), Json::Num(self.nthreads as f64)),
            ("events".into(), Json::Num(self.events as f64)),
            ("dropped".into(), Json::Num(self.dropped as f64)),
            ("getsub_grabs".into(), Json::Num(self.getsub_grabs as f64)),
            ("getsub_items".into(), Json::Num(self.getsub_items as f64)),
            ("rmws".into(), Json::Object(rmws)),
            ("queue_ops".into(), Json::Num(self.queue_ops as f64)),
            (
                "barrier_episodes".into(),
                Json::Num(self.barrier_episodes as f64),
            ),
            ("span_ns".into(), Json::Num(self.span_ns as f64)),
            (
                "critical_path_ns".into(),
                Json::Num(self.critical_path_ns as f64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stamped;
    use splash4_parmacs::TraceEvent;

    fn at(ts_ns: u64, event: TraceEvent) -> Stamped {
        Stamped { ts_ns, event }
    }

    #[test]
    fn counts_and_span() {
        let t0 = vec![
            at(100, TraceEvent::Getsub { n: 4 }),
            at(
                200,
                TraceEvent::Rmw {
                    class: ConstructClass::Reduction,
                    n: 2,
                },
            ),
            at(1_100, TraceEvent::Queue),
        ];
        let t1 = vec![
            at(150, TraceEvent::Getsub { n: 6 }),
            at(1_000, TraceEvent::Queue),
        ];
        let s = TraceSummary::from_trace(&Trace::from_parts("x", vec![t0, t1], 2));
        assert_eq!(s.events, 5);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.getsub_grabs, 2);
        assert_eq!(s.getsub_items, 10);
        assert_eq!(s.rmws[ConstructClass::Reduction as usize], 2);
        assert_eq!(s.queue_ops, 2);
        assert_eq!(s.span_ns, 1_000);
    }

    #[test]
    fn critical_path_takes_slowest_thread_per_segment() {
        // Thread 0: 100ns then barrier; thread 1: 400ns then barrier.
        // After the barrier both run 200ns. Critical path = 400 + 200.
        let mk = |work_ns: u64| {
            vec![
                at(0, TraceEvent::Getsub { n: 1 }),
                at(work_ns, TraceEvent::BarrierEnter),
                at(500, TraceEvent::BarrierExit),
                at(
                    700,
                    TraceEvent::Rmw {
                        class: ConstructClass::Flag,
                        n: 1,
                    },
                ),
            ]
        };
        let s = TraceSummary::from_trace(&Trace::from_parts("x", vec![mk(100), mk(400)], 0));
        assert_eq!(s.barrier_episodes, 1);
        assert_eq!(s.critical_path_ns, 600);
    }

    #[test]
    fn empty_trace_summarizes_to_zero() {
        let s = TraceSummary::from_trace(&Trace::from_parts("e", vec![Vec::new()], 0));
        assert_eq!(s.events, 0);
        assert_eq!(s.span_ns, 0);
        assert_eq!(s.critical_path_ns, 0);
        let j = s.to_json();
        assert_eq!(j.get("events").and_then(Json::as_u64), Some(0));
    }
}
