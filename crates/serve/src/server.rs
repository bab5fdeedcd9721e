//! The TCP front end: accept loop, per-connection protocol handlers, and
//! graceful shutdown around a shared [`WorkerPool`].
//!
//! Threading model: one accept thread blocked in `accept` — [`Server::stop`]
//! wakes it with a throw-away connection — and one thread per connection
//! with a short read timeout so idle handlers notice shutdown. A connection
//! thread *is* the request path of a cache hit: `WorkerPool::submit` answers
//! it there, and the reply is one write (a burst of events already in the
//! channel is one `write_all`; after a burst's first event nothing is waited
//! for, so no frame is held back). Connection threads never own the pool —
//! they share it through [`Server`]'s `Arc`, which is what lets a
//! client-issued `{"op":"shutdown"}` drain the service from inside a handler.

use crate::proto::{push_event_frame, write_frame};
use splash4_harness::{JobEvent, Request, ServiceConfig, WorkerPool};
use splash4_parmacs::{json, Json};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// How often an idle connection's blocked read re-checks the `closed` flag.
const POLL: Duration = Duration::from_millis(20);

/// Server tuning: where to listen plus the worker-pool knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker pool configuration (workers, cache, queue, default timeout).
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            service: ServiceConfig::default(),
        }
    }
}

struct ServerShared {
    /// Shutdown requested: stop accepting connections and submissions.
    stop: AtomicBool,
    /// Drain finished: existing connections should now close. Kept separate
    /// from `stop` so that during the drain window open connections still
    /// answer ops (submits get a clean JSON rejection) instead of dropping.
    closed: AtomicBool,
    pool: WorkerPool,
    conns: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// A running `splash4-serve` instance.
///
/// [`Server::stop`] is the graceful path: stop accepting connections, reject
/// new submissions with a clean JSON error, drain queued and in-flight jobs,
/// flush their event streams, then join every thread. Dropping the server
/// does the same.
pub struct Server {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("stopped", &self.stopped())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Bind `cfg.addr`, start the worker pool and the accept thread.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            stop: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            pool: WorkerPool::start(cfg.service),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(Server {
            shared,
            local_addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The pool connections dispatch into. Sharing its
    /// [`ctx`](WorkerPool::ctx) with a direct
    /// [`dispatch`](splash4_harness::dispatch) call yields bit-identical
    /// results — the property the e2e tests pin down.
    pub fn pool(&self) -> &WorkerPool {
        &self.shared.pool
    }

    /// Has shutdown been requested (by [`Server::stop`], a client
    /// `{"op":"shutdown"}`, or a signal handler via
    /// [`Server::request_stop`])?
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Flag the server to stop without blocking (safe from any thread):
    /// submissions are rejected from here on; [`Server::stop`] does the rest.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
    }

    /// Graceful shutdown: stop accepting, drain the pool, join all threads.
    /// Idempotent.
    pub fn stop(&self) {
        self.request_stop();
        if let Some(h) = lock(&self.accept).take() {
            // The accept thread blocks in `accept`: a connection wakes it, and
            // it drops whatever it accepts once `stop` is set. (Unreachable
            // even from here, it is left blocked rather than joined.)
            if TcpStream::connect(self.local_addr).is_ok() {
                let _ = h.join();
            }
        }
        // Drain before joining connections: an in-flight submit stream only
        // terminates once its job ran, and the pool drain guarantees that.
        self.shared.pool.shutdown();
        self.shared.closed.store(true, Ordering::Release);
        let conns: Vec<_> = lock(&self.shared.conns).drain(..).collect();
        for c in conns {
            let _ = c.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Poison-tolerant: a handle registry is valid wherever its holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else {
            // A failed accept (aborted peer, descriptor limit): on to the next.
            thread::yield_now();
            continue;
        };
        let conn_shared = Arc::clone(shared);
        let handle = thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                let _ = handle_connection(stream, &conn_shared);
            })
            .expect("spawn connection thread");
        lock(&shared.conns).push(handle);
    }
}

/// One frame read off a connection.
enum Frame {
    Value(Json),
    Eof,
    /// The drain completed while the connection was idle — time to close.
    Stopping,
}

/// Read the next newline-framed JSON value, polling the `closed` flag
/// across read timeouts. A persistent byte buffer carries partial lines
/// over timeouts (`BufRead::read_line` would discard them).
fn read_op(
    reader: &mut BufReader<TcpStream>,
    pending: &mut Vec<u8>,
    closed: &AtomicBool,
) -> Result<Frame, String> {
    loop {
        if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=pos).collect();
            let text = std::str::from_utf8(&line)
                .map_err(|e| format!("bad frame: {e}"))?
                .trim();
            if text.is_empty() {
                continue;
            }
            return Json::parse(text)
                .map(Frame::Value)
                .map_err(|e| format!("bad frame: {e}"));
        }
        let n = match reader.fill_buf() {
            Ok([]) => {
                // EOF; honor a final unterminated frame if one is pending.
                let text = String::from_utf8_lossy(pending).trim().to_string();
                pending.clear();
                if text.is_empty() {
                    return Ok(Frame::Eof);
                }
                return Json::parse(&text)
                    .map(Frame::Value)
                    .map_err(|e| format!("bad frame: {e}"));
            }
            Ok(chunk) => {
                pending.extend_from_slice(chunk);
                chunk.len()
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if closed.load(Ordering::Acquire) {
                    return Ok(Frame::Stopping);
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("read failed: {e}")),
        };
        reader.consume(n);
    }
}

fn reject(w: &mut impl Write, error: &str) -> io::Result<()> {
    write_frame(w, &json!({ "ok": false, "error": error.to_string() }))
}

/// Stream one job's events: block for an event, drain what the channel
/// already holds into `out`, and issue one write for the burst. A stream that
/// ends without a terminal event (its job died) is closed with an `error`.
fn stream_events(
    w: &mut impl Write,
    job: u64,
    rx: &mpsc::Receiver<JobEvent>,
    out: &mut String,
) -> io::Result<()> {
    loop {
        let mut next = Some(rx.recv().unwrap_or_else(|_| JobEvent::Error {
            job,
            message: "job ended without a terminal event".to_string(),
        }));
        let mut terminal = false;
        out.clear();
        while let Some(ev) = next {
            terminal = ev.is_terminal();
            push_event_frame(out, &ev);
            next = if terminal { None } else { rx.try_recv().ok() };
        }
        w.write_all(out.as_bytes())?;
        w.flush()?;
        if terminal {
            return Ok(());
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &ServerShared) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut pending = Vec::new();
    let mut out = String::new();
    loop {
        let op = match read_op(&mut reader, &mut pending, &shared.closed) {
            Ok(Frame::Value(v)) => v,
            Ok(Frame::Eof) | Ok(Frame::Stopping) => return Ok(()),
            Err(msg) => {
                // Framing is unrecoverable mid-connection: report and close.
                let _ = reject(&mut writer, &msg);
                return Ok(());
            }
        };
        match op.get("op").and_then(Json::as_str) {
            Some("ping") => write_frame(&mut writer, &json!({ "ok": true, "pong": true }))?,
            Some("stats") => {
                let p = shared.pool.profile();
                let mut reply = json!({
                    "ok": true,
                    "submitted": shared.pool.submitted(),
                    "cache_hits": p.cache_hits,
                    "cache_misses": p.cache_misses,
                    "cache_evictions": p.cache_evictions,
                    "queue_ops": p.queue_ops,
                    "atomic_rmws": p.atomic_rmws,
                });
                if let (Json::Object(all), Json::Object(live)) =
                    (&mut reply, shared.pool.live_stats())
                {
                    all.extend(live);
                }
                write_frame(&mut writer, &reply)?;
            }
            Some("shutdown") => {
                // Flag first: any op a client issues after seeing this reply
                // is guaranteed to observe the shutdown.
                shared.stop.store(true, Ordering::Release);
                write_frame(&mut writer, &json!({ "ok": true, "stopping": true }))?;
                return Ok(());
            }
            Some("submit") => {
                if shared.stop.load(Ordering::Acquire) {
                    reject(&mut writer, "service is shutting down; request rejected")?;
                    continue;
                }
                let request = match op
                    .get("request")
                    .ok_or("submit op is missing 'request'".to_string())
                    .and_then(Request::from_json)
                {
                    Ok(r) => r,
                    Err(e) => {
                        reject(&mut writer, &e)?;
                        continue;
                    }
                };
                match shared.pool.submit(request) {
                    Ok((job, rx)) => stream_events(&mut writer, job, &rx, &mut out)?,
                    Err(e) => reject(&mut writer, &e)?,
                }
            }
            Some(other) => reject(&mut writer, &format!("unknown op '{other}'"))?,
            None => reject(&mut writer, "frame has no 'op' string")?,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records each `write` call, to count the syscalls a stream would make.
    #[derive(Default)]
    struct Writes(Vec<String>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(String::from_utf8(buf.to_vec()).unwrap());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_burst_already_in_the_channel_is_one_write() {
        let (tx, rx) = mpsc::channel();
        let events = [
            JobEvent::Queued { job: 7 },
            JobEvent::Running { job: 7 },
            JobEvent::Done {
                job: 7,
                cached: true,
                result: json!({ "n": 1u64 }),
            },
        ];
        for ev in &events {
            tx.send(ev.clone()).unwrap();
        }
        let mut w = Writes::default();
        stream_events(&mut w, 7, &rx, &mut String::new()).unwrap();
        let want: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        assert_eq!(w.0, [want]);
    }

    #[test]
    fn a_stream_that_dies_without_a_terminal_event_ends_in_an_error_frame() {
        let (tx, rx) = mpsc::channel();
        tx.send(JobEvent::Queued { job: 3 }).unwrap();
        drop(tx);
        let mut w = Writes::default();
        stream_events(&mut w, 3, &rx, &mut String::new()).unwrap();
        let last = Json::parse(w.0.last().unwrap().trim()).unwrap();
        let Ok(JobEvent::Error { job: 3, message }) = JobEvent::from_json(&last) else {
            panic!("want an error event for job 3: {last}");
        };
        assert!(message.contains("without a terminal event"), "{message}");
    }

    #[test]
    fn server_binds_ephemeral_port_and_stops_cleanly() {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            service: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        })
        .expect("bind");
        assert_ne!(server.local_addr().port(), 0);
        assert!(!server.stopped());
        server.stop();
        assert!(server.stopped());
        server.stop(); // idempotent
    }
}
