//! Pins what the trace crate derives from one hand-built recording: the
//! summary's JSON and the programs `lower` builds from it. The recording
//! has three threads with unequal `BarrierEnter` counts, events after the
//! last shared episode and one `Rmw` of every construct class.

use splash4_parmacs::{ConstructClass, SyncMode, SyncPolicy, ToJson, TraceEvent};
use splash4_sim::MachineParams;
use splash4_trace::{codec, lower::lower, Stamped, Trace, TraceSummary};

fn stream(events: &[(u64, TraceEvent)]) -> Vec<Stamped> {
    events
        .iter()
        .map(|&(ts_ns, event)| Stamped { ts_ns, event })
        .collect()
}

fn rmw(class: ConstructClass, n: u32) -> TraceEvent {
    TraceEvent::Rmw { class, n }
}

fn recording() -> Trace {
    use TraceEvent::*;
    let t0 = stream(&[
        (100, Getsub { n: 4 }),
        (150, rmw(ConstructClass::Barrier, 1)),
        (300, BarrierEnter),
        (400, BarrierExit),
        (450, rmw(ConstructClass::Counter, 2)),
        (500, Queue),
        (600, BarrierEnter),
        (700, BarrierExit),
        (800, rmw(ConstructClass::Reduction, 3)),
        (900, Queue),
    ]);
    let t1 = stream(&[
        (120, Getsub { n: 6 }),
        (250, rmw(ConstructClass::Flag, 1)),
        (350, BarrierEnter),
        (400, BarrierExit),
        (550, rmw(ConstructClass::Queue, 1)),
        (650, BarrierEnter),
        (700, BarrierExit),
        (750, rmw(ConstructClass::DataLock, 5)),
        // A third episode only this thread reached.
        (1_000, BarrierEnter),
        (1_050, BarrierExit),
        (1_100, Getsub { n: 2 }),
    ]);
    let t2 = stream(&[
        (110, Getsub { n: 0 }),
        (390, BarrierEnter),
        (400, BarrierExit),
        (610, Queue),
        (690, BarrierEnter),
        (700, BarrierExit),
        (720, Queue),
    ]);
    Trace::from_parts("pinned", vec![t0, t1, t2], 3)
}

fn policy() -> SyncPolicy {
    SyncPolicy::uniform(SyncMode::LockBased)
        .with(ConstructClass::Reduction, SyncMode::LockFree)
        .with(ConstructClass::Queue, SyncMode::Combining)
}

/// `TraceSummary::to_json` of [`recording`].
const SUMMARY: &str = concat!(
    "{\"name\":\"pinned\",\"nthreads\":3,\"events\":28,\"dropped\":3,\"getsub_grabs\":4,",
    "\"getsub_items\":12,\"rmws\":{\"barrier\":1,\"counter\":2,\"reduction\":3,\"flag\":1,",
    "\"queue\":1,\"data_lock\":5},\"queue_ops\":4,\"barrier_episodes\":2,\"span_ns\":1000,",
    "\"critical_path_ns\":770,\"timeline\":[4,0,1,1,5,1,1,1,3,5,1,1,1,0,1,2]}",
);

/// `Debug` of `lower(&recording(), policy(), 1, &epyc_like())`.
const LOWERED_P1: &str = concat!(
    "Program { name: \"pinned\", cores: [[Compute { ns: 178 }, Access { server: 0, ",
    "cost: 0, n: 1 }, Access { server: 3, cost: 0, n: 1 }, Access { server: 3, ",
    "cost: 0, n: 1 }, Compute { ns: 178 }, Access { server: 0, cost: 0, n: 1 }, ",
    "Compute { ns: 177 }, Access { server: 0, cost: 0, n: 1 }, Compute { ns: 177 }, ",
    "Access { server: 0, cost: 0, n: 1 }, Barrier { id: 0 }, Compute { ns: 247 }, ",
    "Access { server: 6, cost: 1, n: 1 }, Access { server: 7, cost: 0, n: 1 }, ",
    "Compute { ns: 247 }, Access { server: 6, cost: 1, n: 1 }, Access { server: 7, ",
    "cost: 0, n: 1 }, Compute { ns: 246 }, Access { server: 7, cost: 0, n: 1 }, ",
    "Barrier { id: 1 }, Compute { ns: 54 }, Access { server: 8, cost: 0, n: 1 }, ",
    "Access { server: 9, cost: 1, n: 1 }, Access { server: 10, cost: 1, n: 1 }, ",
    "Access { server: 11, cost: 0, n: 1 }, Compute { ns: 54 }, Access { server: 9, ",
    "cost: 1, n: 1 }, Access { server: 10, cost: 1, n: 1 }, Access { server: 11, ",
    "cost: 0, n: 1 }, Compute { ns: 54 }, Access { server: 9, cost: 1, n: 1 }, ",
    "Access { server: 11, cost: 0, n: 1 }, Compute { ns: 54 }, Access { server: 11, ",
    "cost: 0, n: 1 }, Compute { ns: 54 }, Access { server: 11, cost: 0, n: 1 }]], ",
    "costs: [OpCost { service_ns: 30, local_ns: 0, contended_ns: 0 }, ",
    "OpCost { service_ns: 15, local_ns: 0, contended_ns: 0 }], barriers: [Condvar, ",
    "Condvar] }",
);

/// `Debug` of `lower(&recording(), policy(), 8, &epyc_like())`.
const LOWERED_P8: &str = concat!(
    "Program { name: \"pinned\", cores: [[Compute { ns: 89 }, Access { server: 0, ",
    "cost: 0, n: 1 }, Access { server: 3, cost: 0, n: 1 }, Access { server: 3, ",
    "cost: 0, n: 1 }, Barrier { id: 0 }, Compute { ns: 93 }, Access { server: 6, ",
    "cost: 2, n: 1 }, Access { server: 7, cost: 0, n: 1 }, Barrier { id: 1 }, ",
    "Compute { ns: 34 }, Access { server: 8, cost: 0, n: 1 }, Access { server: 9, ",
    "cost: 1, n: 1 }, Access { server: 10, cost: 2, n: 1 }, Access { server: 11, ",
    "cost: 0, n: 1 }], [Compute { ns: 89 }, Access { server: 0, cost: 0, n: 1 }, ",
    "Barrier { id: 0 }, Compute { ns: 93 }, Access { server: 6, cost: 2, n: 1 }, ",
    "Access { server: 7, cost: 0, n: 1 }, Barrier { id: 1 }, Compute { ns: 34 }, ",
    "Access { server: 8, cost: 0, n: 1 }, Access { server: 9, cost: 1, n: 1 }, ",
    "Access { server: 10, cost: 2, n: 1 }, Access { server: 11, cost: 0, n: 1 }], ",
    "[Compute { ns: 89 }, Access { server: 0, cost: 0, n: 1 }, Barrier { id: 0 }, ",
    "Compute { ns: 93 }, Access { server: 7, cost: 0, n: 1 }, Barrier { id: 1 }, ",
    "Compute { ns: 34 }, Access { server: 9, cost: 1, n: 1 }, Access { server: 11, ",
    "cost: 0, n: 1 }], [Compute { ns: 89 }, Access { server: 0, cost: 0, n: 1 }, ",
    "Barrier { id: 0 }, Compute { ns: 93 }, Barrier { id: 1 }, Compute { ns: 34 }, ",
    "Access { server: 11, cost: 0, n: 1 }], [Compute { ns: 89 }, Access { server: 0, ",
    "cost: 0, n: 1 }, Barrier { id: 0 }, Compute { ns: 92 }, Barrier { id: 1 }, ",
    "Compute { ns: 34 }, Access { server: 11, cost: 0, n: 1 }], [Compute { ns: 89 }, ",
    "Access { server: 0, cost: 0, n: 1 }, Barrier { id: 0 }, Compute { ns: 92 }, ",
    "Barrier { id: 1 }, Compute { ns: 34 }], [Compute { ns: 88 }, Access { server: 0, ",
    "cost: 0, n: 1 }, Barrier { id: 0 }, Compute { ns: 92 }, Barrier { id: 1 }, ",
    "Compute { ns: 33 }], [Compute { ns: 88 }, Access { server: 0, cost: 0, n: 1 }, ",
    "Barrier { id: 0 }, Compute { ns: 92 }, Barrier { id: 1 }, Compute { ns: 33 }]], ",
    "costs: [OpCost { service_ns: 45, local_ns: 0, contended_ns: 260 }, ",
    "OpCost { service_ns: 130, local_ns: 0, contended_ns: 0 }, ",
    "OpCost { service_ns: 70, local_ns: 0, contended_ns: 0 }], barriers: [Condvar, ",
    "Condvar] }",
);

#[test]
fn summary_json_is_pinned() {
    let json = TraceSummary::from_trace(&recording()).to_json().to_string();
    assert_eq!(json, SUMMARY);
}

#[test]
fn lowered_programs_are_pinned() {
    let m = MachineParams::epyc_like();
    for (p, want) in [(1, LOWERED_P1), (8, LOWERED_P8)] {
        let prog = lower(&recording(), policy(), p, &m);
        assert_eq!(format!("{prog:?}"), want, "p = {p}");
    }
}

#[test]
fn codec_round_trips_the_recording() {
    let t = recording();
    assert_eq!(codec::decode(&codec::encode(&t)).unwrap(), t);
}

#[test]
fn codec_rejects_a_kind_0_record() {
    let t = Trace::from_parts("k", vec![stream(&[(5, TraceEvent::Queue)])], 0);
    let mut bytes = codec::encode(&t);
    // The one record is the last 16 bytes; its kind byte is the 9th.
    let kind = bytes.len() - 16 + 8;
    assert_eq!(bytes[kind], 5, "Queue is kind 5");
    assert!(codec::decode(&bytes).is_ok());
    bytes[kind] = 0;
    let err = codec::decode(&bytes).unwrap_err();
    assert_eq!(err.to_string(), "trace codec: bad event kind 0");
}
