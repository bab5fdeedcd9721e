//! An idle connection sleeps (DESIGN.md §13): its thread blocks in its read
//! until a frame arrives or the server stops, and no timer wakes it in
//! between. The count is read from `/proc/self/task`, so this is its own test
//! binary: no other test's `serve-conn` threads share the process.
#![cfg(target_os = "linux")]

use splash4::parmacs::json;
use splash4::ServiceConfig;
use splash4_serve::proto::{read_frame, write_frame};
use splash4_serve::{Server, ServerConfig};
use std::fs;
use std::io::BufReader;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

/// Voluntary context switches summed over this process's `serve-conn`
/// threads: each one is a thread going to sleep after it was woken.
fn serve_conn_switches() -> u64 {
    let tasks = fs::read_dir("/proc/self/task").expect("list this process's threads");
    tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            if fs::read_to_string(dir.join("comm")).ok()?.trim_end() != "serve-conn" {
                return None;
            }
            let status = fs::read_to_string(dir.join("status")).ok()?;
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
            line.trim().parse::<u64>().ok()
        })
        .sum()
}

#[test]
fn an_idle_connection_sleeps_until_the_server_stops() {
    let server = Server::start(ServerConfig {
        service: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut clients: Vec<_> = (0..2)
        .map(|_| {
            let socket = TcpStream::connect(server.local_addr()).expect("connect");
            socket
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("set a read timeout");
            let mut reader = BufReader::new(socket);
            write_frame(reader.get_mut(), &json!({ "op": "ping" })).expect("send ping");
            let pong = read_frame(&mut reader).expect("read pong");
            assert_eq!(pong, Some(json!({ "ok": true, "pong": true })));
            reader
        })
        .collect();

    // Each thread may still go to sleep once after answering its ping.
    let before = serve_conn_switches();
    thread::sleep(Duration::from_millis(500));
    let woken = serve_conn_switches() - before;
    assert!(
        woken <= 2,
        "2 idle connections' threads switched out {woken} times in 500 ms"
    );

    server.stop();
    for reader in &mut clients {
        assert_eq!(read_frame(reader), Ok(None), "EOF once the server stopped");
    }
}
