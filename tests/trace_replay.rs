//! Integration tests for the sync-event tracing subsystem: codec round
//! trips, ring overflow accounting, recorder transparency (traced runs must
//! match untraced runs), and trace-driven simulation determinism.

use splash4::trace::codec;
use splash4::{
    engine, lower_trace, Benchmark, BenchmarkExt as _, InputClass, MachineParams, RingRecorder,
    SyncEnv, SyncMode, SyncPolicy, TraceSummary,
};

/// Codec round trip on a real recorded trace: the binary encoding
/// reconstructs the exact event streams.
#[test]
fn codec_round_trips_a_real_trace() {
    let (_, trace) = Benchmark::Radix.run_traced(InputClass::Test, SyncMode::LockFree, 3);
    assert!(!trace.is_empty());

    let bytes = codec::encode(&trace);
    let back = codec::decode(&bytes).expect("binary decode");
    assert_eq!(back, trace);
}

/// A deliberately tiny ring drops the overflow — and reports every drop.
#[test]
fn small_rings_count_their_drops() {
    let threads = 2;
    let recorder = std::sync::Arc::new(RingRecorder::with_capacity("tiny", threads, 16));
    let env = SyncEnv::new(SyncMode::LockFree, threads).with_trace(recorder.clone());
    let r = splash4::radix::run(
        &splash4::radix::RadixConfig {
            n: 4096,
            bits: 8,
            seed: 7,
        },
        &env,
    );
    assert!(
        r.validated,
        "overflowing the trace ring must not break the run"
    );
    drop(env);
    let trace = std::sync::Arc::try_unwrap(recorder).unwrap().finish();
    assert!(trace.dropped() > 0, "16-slot rings must overflow on radix");
    assert!(trace.len() <= 16 * threads);
    let s = TraceSummary::from_trace(&trace);
    assert_eq!(s.dropped, trace.dropped());
}

/// Attaching a recorder must not change what a kernel computes or how its
/// sync profile counts operations, in either mode.
#[test]
fn tracing_is_transparent_to_kernel_results() {
    for b in [Benchmark::Fft, Benchmark::Radix] {
        for mode in [SyncMode::LockBased, SyncMode::LockFree] {
            let plain = b.execute(InputClass::Test, mode, 2);
            let (traced, trace) = b.run_traced(InputClass::Test, mode, 2);
            assert!(plain.validated && traced.validated);
            assert_eq!(
                plain.checksum, traced.checksum,
                "{b} checksum drifted under tracing ({mode:?})"
            );
            // Compare the deterministic operation counts; wait-time fields
            // and contention counters vary run to run even without tracing.
            // Every failed CAS is also counted as one more RMW, so the
            // logical RMWs are the difference.
            let counts = |p: &splash4::SyncProfile| {
                (
                    p.lock_acquires,
                    p.barrier_waits,
                    p.atomic_rmws - p.cas_failures,
                    p.getsub_calls,
                    p.reduce_ops,
                    p.flag_waits,
                    p.queue_ops,
                )
            };
            assert_eq!(
                counts(&plain.profile),
                counts(&traced.profile),
                "{b} sync-op counts drifted under tracing ({mode:?})"
            );
            assert!(!trace.is_empty(), "{b} must emit events ({mode:?})");
        }
    }
}

/// Lock-based and lock-free runs emit the same *logical* event stream, so
/// their traces must agree on per-class totals and on the event count
/// (timestamps aside): a sleeping lock's acquire is not an event.
#[test]
fn both_backends_emit_the_same_logical_events() {
    for b in [Benchmark::Lu, Benchmark::Radix, Benchmark::Raytrace] {
        let (_, lb) = b.run_traced(InputClass::Test, SyncMode::LockBased, 2);
        let (_, lf) = b.run_traced(InputClass::Test, SyncMode::LockFree, 2);
        let (slb, slf) = (TraceSummary::from_trace(&lb), TraceSummary::from_trace(&lf));
        assert_eq!(slb.getsub_grabs, slf.getsub_grabs, "{b} grabs");
        assert_eq!(slb.getsub_items, slf.getsub_items, "{b} items");
        assert_eq!(slb.rmws, slf.rmws, "{b} per-class rmws");
        assert_eq!(slb.queue_ops, slf.queue_ops, "{b} queue ops");
        assert_eq!(slb.barrier_episodes, slf.barrier_episodes, "{b} episodes");
        assert_eq!(slb.events, slf.events, "{b} events");
    }
}

/// Replaying one recording is fully deterministic: identical programs and
/// identical simulated cycles on every lowering.
#[test]
fn trace_driven_simulation_is_deterministic() {
    let (_, trace) = Benchmark::Ocean.run_traced(InputClass::Test, SyncMode::LockFree, 4);
    for machine in [MachineParams::epyc_like(), MachineParams::icelake_like()] {
        for mode in [SyncMode::LockBased, SyncMode::LockFree] {
            for cores in [1usize, 8, 64] {
                let policy = SyncPolicy::uniform(mode);
                let a = lower_trace(&trace, policy, cores, &machine);
                let b = lower_trace(&trace, policy, cores, &machine);
                assert_eq!(a, b);
                assert_eq!(
                    engine::run(&a, &machine).total_ns,
                    engine::run(&b, &machine).total_ns
                );
            }
        }
    }
}
