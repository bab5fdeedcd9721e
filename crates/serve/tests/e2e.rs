//! End-to-end protocol tests: real TCP sockets against a tiny server.
//!
//! The tiny [`ExperimentCtx`] (FFT only, short thread sweeps) keeps each
//! request in the low-millisecond range so the whole suite runs in seconds;
//! everything protocol-visible — streaming order, cache dedup, rejection on
//! shutdown, retrying connects — is pinned here.

use splash4_harness::BenchmarkId;
use splash4_harness::{
    dispatch, ExperimentCtx, JobCtl, JobEvent, Request, RequestKind, ServiceConfig,
};
use splash4_parmacs::{json, Json};
use splash4_serve::proto::{read_frame, write_frame};
use splash4_serve::{Client, Server, ServerConfig};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn tiny_ctx() -> ExperimentCtx {
    ExperimentCtx {
        benchmarks: vec![BenchmarkId::Fft],
        native_threads: vec![1],
        sim_threads: vec![1, 8],
        snapshot_cores: 8,
        ..ExperimentCtx::default()
    }
}

fn tiny_server(workers: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            workers,
            cache_capacity: 16,
            queue_capacity: 64,
            default_timeout_ms: None,
            ctx: tiny_ctx(),
        },
    })
    .expect("start server")
}

fn sim_request(seed: u64) -> Request {
    Request::new(RequestKind::Sim {
        cores: 256,
        ops_per_core: 40,
        barrier: "sense".to_string(),
        seed,
        machine: None,
    })
}

fn done_of(events: &[JobEvent]) -> (bool, Json) {
    match events.last() {
        Some(JobEvent::Done { cached, result, .. }) => (*cached, result.clone()),
        other => panic!("expected a done event, stream ended with {other:?}"),
    }
}

#[test]
fn submit_streams_lifecycle_in_order() {
    let server = tiny_server(2);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let events = client.submit(&sim_request(1)).expect("submit");
    assert!(
        matches!(events.first(), Some(JobEvent::Queued { .. })),
        "stream must start queued: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(e, JobEvent::Running { .. })),
        "stream must carry running: {events:?}"
    );
    let (cached, result) = done_of(&events);
    assert!(!cached, "first submission cannot be a cache hit");
    assert_eq!(result.get("type").and_then(Json::as_str), Some("sim"));
    assert!(result.get("events").and_then(Json::as_u64).unwrap_or(0) > 0);
}

#[test]
fn eight_concurrent_clients_mixed_requests_all_complete() {
    let server = tiny_server(4);
    let addr = server.local_addr().to_string();
    let outcomes: Vec<(usize, bool)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect_with_retry(&addr, 20)?;
                    let request = match c % 3 {
                        0 => sim_request(40 + (c / 3) as u64),
                        1 => Request::new(RequestKind::Experiment {
                            id: "T1-inputs".to_string(),
                        }),
                        _ => Request::new(RequestKind::Bench {
                            benchmark: "fft".to_string(),
                            mode: "splash4".to_string(),
                            threads: 2,
                        }),
                    };
                    let events = client.submit(&request)?;
                    Ok::<(usize, bool), String>((
                        events.len(),
                        matches!(events.last(), Some(JobEvent::Done { .. })),
                    ))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked").expect("client failed"))
            .collect()
    });
    assert_eq!(outcomes.len(), 8);
    for (len, done) in outcomes {
        assert!(done, "every mixed request must end done");
        assert!(len >= 2, "stream shorter than queued+done: {len}");
    }
    assert_eq!(server.pool().submitted(), 8);
}

#[test]
fn server_results_are_bit_identical_to_direct_dispatch() {
    let server = tiny_server(2);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let requests = [
        sim_request(7),
        Request::new(RequestKind::Experiment {
            id: "T1-inputs".to_string(),
        }),
    ];
    for request in &requests {
        let (_, via_tcp) = done_of(&client.submit(request).expect("submit"));
        let direct =
            dispatch(request, server.pool().ctx(), &JobCtl::unlimited()).expect("direct dispatch");
        assert_eq!(
            via_tcp.to_string(),
            direct.to_string(),
            "served result must be bit-identical to a direct run of {request:?}"
        );
    }
}

#[test]
fn duplicate_submission_is_served_from_cache() {
    let server = tiny_server(2);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let (cached1, r1) = done_of(&client.submit(&sim_request(3)).expect("first"));
    let (cached2, r2) = done_of(&client.submit(&sim_request(3)).expect("second"));
    assert!(!cached1);
    assert!(cached2, "identical config must hit the result cache");
    assert_eq!(r1.to_string(), r2.to_string());

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(2));
    assert!(stats.get("cache_hits").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert!(
        stats
            .get("cache_misses")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1
    );
    assert!(stats.get("queue_ops").and_then(Json::as_u64).unwrap_or(0) > 0);
    // The cached pair fits well within capacity: the eviction counter is
    // exposed and still zero.
    assert_eq!(stats.get("cache_evictions").and_then(Json::as_u64), Some(0));
}

#[test]
fn stats_report_evictions_once_the_cache_overflows() {
    // Capacity 2: a burst of distinct sim configs must evict LRU entries,
    // and the stats op reports exactly how many.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            workers: 2,
            cache_capacity: 2,
            queue_capacity: 64,
            default_timeout_ms: None,
            ctx: tiny_ctx(),
        },
    })
    .expect("start server");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    for seed in 0..5 {
        let (cached, _) = done_of(&client.submit(&sim_request(seed)).expect("submit"));
        assert!(!cached, "distinct configs never hit");
    }
    let stats = client.stats().expect("stats");
    // 5 inserts through a 2-entry cache leave 2 resident: 3 evictions.
    assert_eq!(
        stats.get("cache_evictions").and_then(Json::as_u64),
        Some(3),
        "stats: {stats:?}"
    );
    assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(5));
}

#[test]
fn concurrent_duplicates_compute_exactly_once() {
    let server = tiny_server(4);
    let addr = server.local_addr().to_string();
    let cached_flags: Vec<bool> = thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect_with_retry(&addr, 20)?;
                    let events = client.submit(&sim_request(99))?;
                    Ok::<bool, String>(done_of(&events).0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked").expect("client failed"))
            .collect()
    });
    let computed = cached_flags.iter().filter(|&&c| !c).count();
    assert_eq!(
        computed, 1,
        "identical concurrent requests must compute once (flags: {cached_flags:?})"
    );
    assert_eq!(cached_flags.len(), 8);
}

#[test]
fn zero_timeout_request_fails_with_timeout_error() {
    let server = tiny_server(1);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let mut request = sim_request(5);
    request.timeout_ms = Some(0);
    let events = client.submit(&request).expect("stream still flows");
    match events.last() {
        Some(JobEvent::Error { message, .. }) => {
            assert!(message.contains("timed out"), "got: {message}");
        }
        other => panic!("expected a timeout error event, got {other:?}"),
    }
}

#[test]
fn shutdown_drains_in_flight_and_rejects_new_submissions() {
    let server = tiny_server(1);
    let addr = server.local_addr().to_string();

    // One job mid-service while shutdown arrives.
    let in_flight = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, 20)?;
            client.submit(&Request::new(RequestKind::Sim {
                cores: 256,
                ops_per_core: 200,
                barrier: "tree".to_string(),
                seed: 0xd2a1,
                machine: None,
            }))
        })
    };
    let mut survivor = Client::connect(&addr).expect("connect before shutdown");
    // "In flight" means the pool has accepted the job, not that time passed.
    let deadline = Instant::now() + Duration::from_secs(5);
    while survivor.stats().expect("stats")["submitted"].as_u64() == Some(0) {
        assert!(Instant::now() < deadline, "the pool never accepted the job");
        thread::sleep(Duration::from_millis(1));
    }

    let mut stopper = Client::connect(&addr).expect("connect stopper");
    stopper.shutdown_server().expect("shutdown ack");

    // The in-flight stream still terminates in done: shutdown drains.
    let events = in_flight
        .join()
        .expect("in-flight client panicked")
        .expect("in-flight stream survived shutdown");
    assert!(
        matches!(events.last(), Some(JobEvent::Done { .. })),
        "in-flight job must drain to done, got {events:?}"
    );

    // A connection opened before shutdown gets a clean JSON rejection.
    let err = survivor
        .submit(&sim_request(6))
        .expect_err("post-shutdown submit must be rejected");
    assert!(err.contains("shutting down"), "got: {err}");

    server.stop();
    assert!(server.stopped());
}

#[test]
fn client_retries_until_late_server_appears() {
    // Reserve a port, free it, and race a retrying client against a server
    // that binds it only after a delay.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = placeholder.local_addr().expect("addr").to_string();
    drop(placeholder);

    let client_addr = addr.clone();
    let connecting = thread::spawn(move || Client::connect_with_retry(&client_addr, 100));

    thread::sleep(Duration::from_millis(60));
    let server = Server::start(ServerConfig {
        addr,
        service: ServiceConfig {
            workers: 1,
            cache_capacity: 4,
            queue_capacity: 8,
            default_timeout_ms: None,
            ctx: tiny_ctx(),
        },
    })
    .expect("late bind");

    let mut client = connecting
        .join()
        .expect("client panicked")
        .expect("retry must eventually connect");
    client.ping().expect("ping after retry");
    drop(server);
}

#[test]
fn protocol_rejects_garbage_but_keeps_the_connection_usable() {
    let server = tiny_server(1);
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let mut roundtrip = |op: &Json| -> Json {
        write_frame(&mut writer, op).expect("write");
        read_frame(&mut reader).expect("read").expect("reply")
    };

    let reply = roundtrip(&json!({ "op": "frobnicate" }));
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let msg = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("unknown op"), "got: {msg}");

    let reply = roundtrip(&json!({ "hello": true }));
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));

    let reply = roundtrip(&json!({ "op": "submit", "request": json!({ "type": "nope" }) }));
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));

    // The same connection still answers a well-formed op.
    let reply = roundtrip(&json!({ "op": "ping" }));
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn dispatch_errors_stream_as_error_events_not_protocol_failures() {
    let server = tiny_server(1);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let events = client
        .submit(&Request::new(RequestKind::Experiment {
            id: "no-such-experiment".to_string(),
        }))
        .expect("protocol-level success");
    match events.last() {
        Some(JobEvent::Error { message, .. }) => {
            assert!(message.contains("no-such-experiment"), "got: {message}");
        }
        other => panic!("expected an error event, got {other:?}"),
    }
}
