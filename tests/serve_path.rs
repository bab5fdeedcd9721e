//! The serve request path, end to end (DESIGN.md §13): a cache hit is
//! answered on the thread it arrives on, idle workers park and are woken,
//! the reply writer holds no frame back, a panicking job is one `error`
//! event, and a fresh connection is accepted at once. Tier-1 runs the root
//! package only, so these live here and not beside `crates/serve/tests/`.
//!
//! Two workloads are registered at run time (the `registry_extension.rs`
//! pattern; registration is process-global, which is why this is its own
//! test binary): `serve-gate`, whose run blocks until the test opens a gate —
//! the interleavings below are forced by it and by event channels, never by
//! a sleep — and `serve-panic`, whose run panics.

use splash4::workload::{self, driver};
use splash4::{
    drain_events, ExperimentCtx, InputClass, JobEvent, Json, KernelResult, Request, RequestKind,
    ServiceConfig, SyncEnv, WorkModel, WorkerPool, Workload,
};
use splash4_serve::{Client, Server, ServerConfig};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Generous bound on anything that must merely *happen*: a hang fails the
/// test here instead of wedging the whole run.
const SOON: Duration = Duration::from_secs(30);

static GATE_OPEN: Mutex<bool> = Mutex::new(false);
static GATE_MOVED: Condvar = Condvar::new();
/// Tests that close the gate hold this for their whole length.
static GATE_USERS: Mutex<()> = Mutex::new(());

fn set_gate(open: bool) {
    *GATE_OPEN.lock().unwrap_or_else(PoisonError::into_inner) = open;
    GATE_MOVED.notify_all();
}

/// Closes the gate for one test and opens it again however the test ends, so
/// a failed assertion cannot leave a worker blocked in `serve-gate` (and the
/// server's drop waiting for it).
struct ClosedGate(#[allow(dead_code)] MutexGuard<'static, ()>);

fn close_gate() -> ClosedGate {
    let users = GATE_USERS.lock().unwrap_or_else(PoisonError::into_inner);
    set_gate(false);
    ClosedGate(users)
}

impl Drop for ClosedGate {
    fn drop(&mut self) {
        set_gate(true);
    }
}

struct GateMill;
struct PanicMill;

impl Workload for GateMill {
    fn name(&self) -> &'static str {
        "serve-gate"
    }
    fn input_description(&self, _: InputClass) -> String {
        "blocks until the test opens the gate".to_string()
    }
    fn run(&self, _: InputClass, env: &SyncEnv) -> KernelResult {
        let mut open = GATE_OPEN.lock().unwrap_or_else(PoisonError::into_inner);
        while !*open {
            open = GATE_MOVED
                .wait(open)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let work = WorkModel::new("serve-gate");
        driver::finish(env, Duration::from_micros(1), 1.0, true, work)
    }
}

impl Workload for PanicMill {
    fn name(&self) -> &'static str {
        "serve-panic"
    }
    fn input_description(&self, _: InputClass) -> String {
        "panics".to_string()
    }
    fn run(&self, _: InputClass, _: &SyncEnv) -> KernelResult {
        panic!("boom in serve-panic");
    }
}

fn register_mills() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        workload::register(&GateMill).expect("serve-gate registers");
        workload::register(&PanicMill).expect("serve-panic registers");
    });
}

fn config(workers: usize) -> ServiceConfig {
    register_mills();
    ServiceConfig {
        workers,
        cache_capacity: 1024,
        queue_capacity: 64,
        default_timeout_ms: None,
        ctx: ExperimentCtx {
            class: InputClass::Test,
            ..ExperimentCtx::default()
        },
    }
}

fn server(workers: usize) -> (Server, String) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: config(workers),
    })
    .expect("start server");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// A request that costs microseconds to compute.
fn small_sim(seed: u64) -> Request {
    Request::new(RequestKind::Sim {
        cores: 4,
        ops_per_core: 4,
        barrier: "sense".to_string(),
        seed,
        machine: None,
    })
}

fn bench(benchmark: &str) -> Request {
    Request::new(RequestKind::Bench {
        benchmark: benchmark.to_string(),
        mode: "splash4".to_string(),
        threads: 1,
    })
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats has no integer '{key}': {stats}"))
}

/// Submit on a thread of its own, forwarding each event as it reaches the
/// client; the stream's outcome is the thread's result.
fn submit_watched(
    addr: &str,
    request: Request,
) -> (
    Receiver<JobEvent>,
    thread::JoinHandle<Result<Vec<JobEvent>, String>>,
) {
    let (tx, rx) = mpsc::channel();
    let addr = addr.to_string();
    let handle = thread::spawn(move || {
        let mut client = Client::connect(&addr)?;
        client.submit_with(&request, |ev| {
            let _ = tx.send(ev.clone());
        })
    });
    (rx, handle)
}

fn expect_event(rx: &Receiver<JobEvent>, what: &str, want: impl Fn(&JobEvent) -> bool) {
    loop {
        let ev = rx
            .recv_timeout(SOON)
            .unwrap_or_else(|e| panic!("no {what} event reached the client: {e}"));
        assert!(!ev.is_terminal(), "stream ended before {what}: {ev:?}");
        if want(&ev) {
            return;
        }
    }
}

/// `drain_events` with a bound: a job nobody will ever run fails the test.
fn drain_soon(rx: &Receiver<JobEvent>) -> Vec<JobEvent> {
    let mut events = Vec::new();
    loop {
        let ev = rx
            .recv_timeout(SOON)
            .unwrap_or_else(|e| panic!("stream never ended ({e}) after {events:?}"));
        let terminal = ev.is_terminal();
        events.push(ev);
        if terminal {
            return events;
        }
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < SOON, "never saw: {what}");
        thread::yield_now();
    }
}

fn parked(pool: &WorkerPool) -> u64 {
    stat(&pool.live_stats(), "workers_parked")
}

#[test]
fn a_hit_is_answered_while_the_only_worker_is_busy_and_no_frame_is_held_back() {
    let (server, addr) = server(1);
    // After the server, so that an unwinding test opens the gate before the
    // server's drop joins the worker blocked behind it.
    let _gate = close_gate();
    let mut client = Client::connect(&addr).expect("connect");
    let hot = small_sim(1);
    assert!(matches!(
        client.submit(&hot).expect("prefill").last(),
        Some(JobEvent::Done { cached: false, .. })
    ));

    // The long miss: its `running` and first `progress` frames must reach
    // the client while the job is still blocked inside its workload, i.e.
    // before `done` exists — the batching writer waits for nothing.
    let (events, miss) = submit_watched(&addr, bench("serve-gate"));
    expect_event(&events, "running", |e| {
        matches!(e, JobEvent::Running { .. })
    });
    expect_event(&events, "progress", |e| {
        matches!(e, JobEvent::Progress { .. })
    });

    // The pool's one worker is inside that job. A cached request on another
    // connection completes all the same: its own thread answers it.
    let (hit_events, hit) = submit_watched(&addr, hot);
    let reply = drain_soon(&hit_events);
    assert!(
        matches!(reply.last(), Some(JobEvent::Done { cached: true, .. })),
        "the hit must complete while the miss is blocked: {reply:?}"
    );
    assert_eq!(reply.len(), 3, "queued, running, done: {reply:?}");
    hit.join().unwrap().expect("hit stream");
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "inline_hits"), 1);
    assert_eq!(stat(&stats, "in_flight"), 1, "the miss is still computing");
    assert_eq!(stat(&stats, "workers_parked"), 0);

    set_gate(true);
    let miss = miss.join().unwrap().expect("miss stream");
    assert!(
        matches!(miss.last(), Some(JobEvent::Done { cached: false, .. })),
        "{miss:?}"
    );
    assert_eq!(stat(&client.stats().expect("stats"), "in_flight"), 0);
    drop(server);
}

#[test]
fn no_wake_up_is_lost_between_parking_workers_and_concurrent_submitters() {
    const SUBMITTERS: u64 = 4;
    const EACH: u64 = 200;
    let pool = Arc::new(WorkerPool::start(config(2)));
    let (done_tx, done_rx) = mpsc::channel();
    for s in 0..SUBMITTERS {
        let pool = Arc::clone(&pool);
        let done_tx = done_tx.clone();
        thread::spawn(move || {
            for i in 0..EACH {
                // Now and then wait until a worker is seen parked, so the
                // next push is one that has to wake it.
                if i % 8 == s {
                    wait_until("a parked worker", || parked(&pool) > 0);
                }
                let (_, rx) = pool.submit(small_sim(s * EACH + i)).expect("submit");
                let events = drain_events(&rx);
                assert!(
                    matches!(events.last(), Some(JobEvent::Done { cached: false, .. })),
                    "{events:?}"
                );
            }
            let _ = done_tx.send(s);
        });
    }
    for _ in 0..SUBMITTERS {
        // A lost wake-up leaves a job in the queue and its submitter in
        // `drain_events` for ever: that is this timeout.
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a submitter never finished: a wake-up was lost");
    }
    assert_eq!(pool.profile().cache_misses, SUBMITTERS * EACH);
    assert_eq!(stat(&pool.live_stats(), "queue_depth"), 0);
    pool.shutdown();
}

#[test]
fn shutdown_wakes_parked_workers_and_a_racing_submit_is_rejected_or_completed() {
    let pool = WorkerPool::start(config(4));
    wait_until("all four workers parked", || parked(&pool) == 4);
    let t0 = Instant::now();
    pool.shutdown();
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "shutdown of an idle pool took {:?}",
        t0.elapsed()
    );
    assert!(pool.submit(small_sim(0)).is_err());

    for round in 0..40u64 {
        let pool = Arc::new(WorkerPool::start(config(2)));
        let start = Arc::new(Barrier::new(2));
        let submitter = {
            let (pool, start) = (Arc::clone(&pool), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                let mut streams = Vec::new();
                for i in 0.. {
                    match pool.submit(small_sim(round * 10_000 + i)) {
                        Ok((_, rx)) => streams.push(rx),
                        Err(e) => {
                            assert!(e.contains("shutting down"), "{e}");
                            return streams;
                        }
                    }
                }
                unreachable!()
            })
        };
        start.wait();
        for _ in 0..round {
            thread::yield_now();
        }
        pool.shutdown();
        for rx in submitter.join().unwrap() {
            let events = drain_soon(&rx);
            assert!(
                matches!(events.last(), Some(JobEvent::Done { .. })),
                "an accepted job must complete: {events:?}"
            );
        }
    }
}

#[test]
fn an_expired_deadline_is_a_timeout_cached_or_not_and_stats_count_one_miss_one_hit() {
    let (_server, addr) = server(2);
    let mut client = Client::connect(&addr).expect("connect");
    let request = small_sim(7);
    client.submit(&request).expect("miss");
    let mut expired = request.clone();
    expired.timeout_ms = Some(0);
    let events = client.submit(&expired).expect("expired");
    let Some(JobEvent::Error { message, .. }) = events.last() else {
        panic!("a zero timeout on a cached request must still fail: {events:?}");
    };
    assert_eq!(message, "request timed out while queued");
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "cache_hits"), 0, "an expired job is no hit");

    let events = client.submit(&request).expect("hit");
    assert!(matches!(
        events.last(),
        Some(JobEvent::Done { cached: true, .. })
    ));
    let stats = client.stats().expect("stats");
    for (key, want) in [
        ("submitted", 3),
        ("cache_hits", 1),
        ("cache_misses", 1),
        ("inline_hits", 1),
        ("queue_depth", 0),
        ("in_flight", 0),
    ] {
        assert_eq!(stat(&stats, key), want, "{key} in {stats}");
    }
}

#[test]
fn a_panicking_job_is_an_error_event_and_the_service_lives_on() {
    let (_server, addr) = server(1);
    let mut client = Client::connect(&addr).expect("connect");
    // Twice: the second submission would wait for ever on a leaked
    // in-flight marker, and would find no worker left to run it.
    for attempt in 0..2 {
        let (events, stream) = submit_watched(&addr, bench("serve-panic"));
        let events = drain_soon(&events);
        let Some(JobEvent::Error { message, .. }) = events.last() else {
            panic!("attempt {attempt}: a panicking job must end in error: {events:?}");
        };
        assert_eq!(message, "job panicked: boom in serve-panic");
        stream.join().unwrap().expect("a clean stream");
    }
    // The pool's only worker is still there for an unrelated request.
    let events = client.submit(&small_sim(3)).expect("unrelated");
    assert!(matches!(
        events.last(),
        Some(JobEvent::Done { cached: false, .. })
    ));
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "in_flight"), 0, "no leaked cache slot");
    assert_eq!(stat(&stats, "cache_misses"), 3);
    wait_until("the worker parked again", || {
        stat(&client.stats().expect("stats"), "workers_parked") == 1
    });
}

#[test]
fn a_fresh_connection_is_served_at_once() {
    let (_server, addr) = server(1);
    let mut pairs: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            Client::connect(&addr)
                .expect("connect")
                .ping()
                .expect("ping");
            t0.elapsed()
        })
        .collect();
    pairs.sort();
    let median = pairs[pairs.len() / 2];
    // A listener polled every 20 ms reads ~10 ms here; a blocking one ~0.2.
    assert!(
        median < Duration::from_millis(5),
        "median connect + ping {median:?} of {pairs:?}"
    );
}
