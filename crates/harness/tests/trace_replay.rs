//! Integration tests for the sync-event tracing subsystem: codec round
//! trips, ring overflow accounting, recorder transparency (traced runs must
//! match untraced runs), trace-driven simulation determinism, and a workload
//! registered at runtime traced and lowered like a built-in.

use splash4_harness::{record_trace, BenchmarkId as Benchmark};
use splash4_kernels::workload::{self, driver};
use splash4_kernels::{InputClass, KernelResult, Workload};
use splash4_parmacs::{
    ConstructClass, SyncEnv, SyncMode, SyncPolicy, SyncProfile, TraceEvent, WorkModel,
};
use splash4_sim::{engine, MachineParams};
use splash4_trace::{codec, lower::lower, RingRecorder, TraceSummary};

/// A traced run validates and records every thread's events, none dropped.
#[test]
fn record_trace_records_and_validates() {
    let (result, trace) = record_trace(Benchmark::Lu, InputClass::Test, SyncMode::LockFree, 2);
    assert!(result.validated);
    assert_eq!(trace.nthreads(), 2);
    assert!(!trace.is_empty());
    assert_eq!(trace.dropped(), 0);
}

/// Codec round trip on a real recorded trace: the binary encoding
/// reconstructs the exact event streams.
#[test]
fn codec_round_trips_a_real_trace() {
    let (_, trace) = record_trace(Benchmark::Radix, InputClass::Test, SyncMode::LockFree, 3);
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
    let r = splash4_kernels::radix::run(
        &splash4_kernels::radix::RadixConfig {
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
            let plain = b.run(InputClass::Test, &SyncEnv::new(mode, 2));
            let (traced, trace) = record_trace(b, InputClass::Test, mode, 2);
            assert!(plain.validated && traced.validated);
            assert_eq!(
                plain.checksum, traced.checksum,
                "{b} checksum drifted under tracing ({mode:?})"
            );
            // Compare the logical counts, plus two mechanism counts: a sink
            // that took a counted lock or issued a counted RMW would show
            // only there. Neither fft nor radix polls a queue or helps a
            // CAS, so their lock acquires and successful RMWs (every failed
            // CAS is one more RMW) are fixed too. Wait times and contention
            // vary run to run even without tracing.
            let counts =
                |p: &SyncProfile| (p.logical(), p.lock_acquires, p.atomic_rmws - p.cas_failures);
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
        let (_, lb) = record_trace(b, InputClass::Test, SyncMode::LockBased, 2);
        let (_, lf) = record_trace(b, InputClass::Test, SyncMode::LockFree, 2);
        let (slb, slf) = (TraceSummary::from_trace(&lb), TraceSummary::from_trace(&lf));
        assert_eq!(slb.getsub_grabs, slf.getsub_grabs, "{b} grabs");
        assert_eq!(slb.getsub_items, slf.getsub_items, "{b} items");
        assert_eq!(slb.rmws, slf.rmws, "{b} per-class rmws");
        assert_eq!(slb.queue_ops, slf.queue_ops, "{b} queue ops");
        assert_eq!(slb.barrier_episodes, slf.barrier_episodes, "{b} episodes");
        assert_eq!(slb.events, slf.events, "{b} events");
    }
}

/// A traced run's events and its profile count the same logical ops: every
/// workload, every mode, one event per counted op. The rings are sized so
/// that no run drops an event (radiosity overflows the default).
#[test]
fn every_workloads_trace_agrees_with_its_profile() {
    use ConstructClass::{Flag, Reduction};
    for b in Benchmark::all() {
        for mode in SyncMode::ALL {
            let recorder = std::sync::Arc::new(RingRecorder::with_capacity(b.name(), 2, 1 << 18));
            let env = SyncEnv::new(mode, 2).with_trace(recorder.clone());
            let result = b.run(InputClass::Test, &env);
            drop(env);
            let trace = std::sync::Arc::try_unwrap(recorder).unwrap().finish();
            assert!(result.validated, "{b} ({mode:?})");
            assert_eq!(trace.dropped(), 0, "{b} ({mode:?})");
            // Tally the events by the counter each one stands for.
            let mut traced = SyncProfile::default();
            for event in trace.threads().iter().flatten().map(|s| s.event) {
                match event {
                    TraceEvent::BarrierEnter => traced.barrier_waits += 1,
                    TraceEvent::Getsub { .. } => traced.getsub_calls += 1,
                    TraceEvent::Rmw {
                        class: Reduction, ..
                    } => traced.reduce_ops += 1,
                    TraceEvent::Rmw { class: Flag, .. } => traced.flag_sets += 1,
                    TraceEvent::Queue => traced.queue_ops += 1,
                    _ => {}
                }
            }
            let logical = |p: &SyncProfile| {
                (
                    p.barrier_waits,
                    p.getsub_calls,
                    p.reduce_ops,
                    p.flag_sets,
                    p.queue_ops,
                )
            };
            assert_eq!(logical(&traced), logical(&result.profile), "{b} ({mode:?})");
        }
    }
}

/// Replaying one recording is fully deterministic: identical programs and
/// identical simulated cycles on every lowering.
#[test]
fn trace_driven_simulation_is_deterministic() {
    let (_, trace) = record_trace(Benchmark::Ocean, InputClass::Test, SyncMode::LockFree, 4);
    for machine in [MachineParams::epyc_like(), MachineParams::icelake_like()] {
        for mode in [SyncMode::LockBased, SyncMode::LockFree] {
            for cores in [1usize, 8, 64] {
                let policy = SyncPolicy::uniform(mode);
                let a = lower(&trace, policy, cores, &machine);
                let b = lower(&trace, policy, cores, &machine);
                assert_eq!(a, b);
                assert_eq!(
                    engine::run(&a, &machine).total_ns,
                    engine::run(&b, &machine).total_ns
                );
            }
        }
    }
}

/// An out-of-tree workload: a `GETSUB`-dispensed index sum, so its run
/// records counter and reduction events.
struct TraceMill;

impl Workload for TraceMill {
    fn name(&self) -> &'static str {
        "trace-mill"
    }

    fn input_description(&self, _: InputClass) -> String {
        "2048 milled indices".into()
    }

    fn run(&self, _: InputClass, env: &SyncEnv) -> KernelResult {
        let counter = env.counter("mill.index", 0..2048);
        let sum = env.reducer_f64();
        let elapsed = driver::roi(env, |_| {
            let mut local = 0.0;
            while let Some(i) = counter.next() {
                local += i as f64;
            }
            sum.add(local);
        });
        let got = sum.load();
        driver::finish(
            env,
            elapsed,
            got,
            got == 2047.0 * 1024.0,
            WorkModel::new("trace-mill"),
        )
    }
}

static TRACE_MILL: TraceMill = TraceMill;

/// A workload registered at runtime is recorded and lowered with no edit to
/// the trace layer.
#[test]
fn a_registered_workload_is_traced_and_lowered() {
    workload::register(&TRACE_MILL).expect("fresh name registers");
    let b = Benchmark::from_name("trace-mill").expect("the harness sees it");
    let (traced, trace) = record_trace(b, InputClass::Test, SyncMode::LockFree, 2);
    assert!(traced.validated, "traced run must validate");
    assert!(!trace.is_empty(), "the mill's sync ops must be recorded");
    let prog = lower(
        &trace,
        SyncPolicy::uniform(SyncMode::LockFree),
        8,
        &MachineParams::icelake_like(),
    );
    assert_eq!(prog.ncores(), 8);
}
