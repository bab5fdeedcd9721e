//! `splash4-serve` binary: run the experiment service, or act as a one-shot
//! client against a running instance (`--ping`, `--stats`, `--submit`,
//! `--shutdown`).

use splash4_harness::{Request, ServiceConfig};
use splash4_parmacs::Json;
use splash4_serve::{Client, Server, ServerConfig};
use std::io::Write;
use std::process::ExitCode;
use std::thread;
use std::time::Duration;

const DEFAULT_ADDR: &str = "127.0.0.1:4488";
/// Most `--workers` (each one an OS thread) and `--queue-cap` (a channel
/// buffer allocated at start) a server accepts.
const MAX_WORKERS: usize = 256;
const MAX_QUEUE_CAP: usize = 65_536;

const USAGE: &str = "\
splash4-serve — concurrent experiment service (JSON over TCP; DESIGN.md §13)

Server (default mode):
  splash4-serve [--addr HOST:PORT] [--workers N<=256] [--cache-cap N]
                [--queue-cap N<=65536] [--timeout-ms MS]
    Runs until SIGINT/SIGTERM or a client {\"op\":\"shutdown\"}, then drains
    in-flight jobs and exits. Port 0 picks a free port (printed on stdout).

Client operations (against --addr, default 127.0.0.1:4488):
  --ping                 liveness round trip
  --stats                print server counters as JSON
  --submit '<request>'   submit one request JSON, stream its events
  --shutdown             ask the server to drain and exit
  --retries N            connect retry attempts (default 20)

Request JSON examples:
  {\"type\":\"experiment\",\"id\":\"T1-inputs\"}
  {\"type\":\"bench\",\"benchmark\":\"fft\",\"mode\":\"splash4\",\"threads\":4}
  {\"type\":\"sim\",\"cores\":1024,\"ops_per_core\":200,\"barrier\":\"tree\",\"seed\":7}
";

/// Signal handling without a libc crate dependency: register the C `signal`
/// entry point directly and flip an atomic the main loop polls.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub fn signaled() -> bool {
        SIGNALED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn signaled() -> bool {
        false
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ClientOp {
    Ping,
    Stats,
    Submit,
    Shutdown,
}

fn main() -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut workers = 4usize;
    let mut cache_cap = 64usize;
    let mut queue_cap = 256usize;
    let mut timeout_ms: Option<u64> = None;
    let mut retries = 20u32;
    let mut op: Option<ClientOp> = None;
    let mut submit_json = String::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        let parsed = match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" => value("--addr").map(|v| addr = v),
            "--workers" => parse_capped(value("--workers"), MAX_WORKERS, &mut workers),
            "--cache-cap" => parse_into(value("--cache-cap"), &mut cache_cap),
            "--queue-cap" => parse_capped(value("--queue-cap"), MAX_QUEUE_CAP, &mut queue_cap),
            "--timeout-ms" => {
                let mut ms = 0u64;
                parse_into(value("--timeout-ms"), &mut ms).map(|()| timeout_ms = Some(ms))
            }
            "--retries" => parse_into(value("--retries"), &mut retries),
            "--ping" => set_op(&mut op, ClientOp::Ping),
            "--stats" => set_op(&mut op, ClientOp::Stats),
            "--shutdown" => set_op(&mut op, ClientOp::Shutdown),
            "--submit" => value("--submit").and_then(|v| {
                submit_json = v;
                set_op(&mut op, ClientOp::Submit)
            }),
            other => Err(format!("unknown argument '{other}' (see --help)")),
        };
        if let Err(e) = parsed {
            eprintln!("splash4-serve: {e}");
            return ExitCode::FAILURE;
        }
    }

    let outcome = match op {
        None => run_server(&addr, workers, cache_cap, queue_cap, timeout_ms),
        Some(client_op) => run_client(&addr, retries, client_op, &submit_json),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("splash4-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_into<T: std::str::FromStr>(
    raw: Result<String, String>,
    out: &mut T,
) -> Result<(), String> {
    let raw = raw?;
    *out = raw
        .parse()
        .map_err(|_| format!("cannot parse '{raw}' as a number"))?;
    Ok(())
}

fn parse_capped(raw: Result<String, String>, max: usize, out: &mut usize) -> Result<(), String> {
    let mut n = 0;
    parse_into(raw, &mut n)?;
    if n > max {
        return Err(format!("{n} is above the limit {max} (see --help)"));
    }
    *out = n;
    Ok(())
}

fn set_op(op: &mut Option<ClientOp>, new: ClientOp) -> Result<(), String> {
    match op {
        None => {
            *op = Some(new);
            Ok(())
        }
        Some(prev) => Err(format!("conflicting operations {prev:?} and {new:?}")),
    }
}

fn run_server(
    addr: &str,
    workers: usize,
    cache_cap: usize,
    queue_cap: usize,
    timeout_ms: Option<u64>,
) -> Result<ExitCode, String> {
    let server = Server::start(ServerConfig {
        addr: addr.to_string(),
        service: ServiceConfig {
            workers,
            cache_capacity: cache_cap,
            queue_capacity: queue_cap,
            default_timeout_ms: timeout_ms,
            ..ServiceConfig::default()
        },
    })
    .map_err(|e| format!("bind {addr} failed: {e}"))?;
    println!("splash4-serve listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();

    sig::install();
    while !sig::signaled() && !server.stopped() {
        thread::sleep(Duration::from_millis(50));
    }
    server.stop();
    let profile = server.pool().profile();
    println!(
        "splash4-serve stopped: {} jobs, {} cache hits, {} cache misses",
        server.pool().submitted(),
        profile.cache_hits,
        profile.cache_misses,
    );
    Ok(ExitCode::SUCCESS)
}

fn run_client(
    addr: &str,
    retries: u32,
    op: ClientOp,
    submit_json: &str,
) -> Result<ExitCode, String> {
    let mut client = Client::connect_with_retry(addr, retries)?;
    match op {
        ClientOp::Ping => {
            client.ping()?;
            println!("pong");
            Ok(ExitCode::SUCCESS)
        }
        ClientOp::Stats => {
            let stats = client.stats()?;
            println!("{stats}");
            Ok(ExitCode::SUCCESS)
        }
        ClientOp::Shutdown => {
            client.shutdown_server()?;
            println!("server stopping");
            Ok(ExitCode::SUCCESS)
        }
        ClientOp::Submit => {
            let request = Request::from_json(&Json::parse(submit_json)?)?;
            let events = client.submit_with(&request, |ev| {
                println!("{}", ev.to_json());
                let _ = std::io::stdout().flush();
            })?;
            match events.last() {
                Some(ev) if !ev.is_terminal() => {
                    Err("stream ended without a terminal event".to_string())
                }
                Some(splash4_harness::JobEvent::Error { .. }) => Ok(ExitCode::FAILURE),
                _ => Ok(ExitCode::SUCCESS),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_and_queue_cap_are_bounded_when_parsed() {
        for max in [MAX_WORKERS, MAX_QUEUE_CAP] {
            let mut n = 7;
            assert_eq!(parse_capped(Ok(max.to_string()), max, &mut n), Ok(()));
            assert_eq!(n, max);
            let over = parse_capped(Ok((max + 1).to_string()), max, &mut n);
            assert!(over.unwrap_err().contains("above the limit"));
            assert_eq!(n, max, "a refused value is not stored");
        }
        let mut n = 0;
        assert!(parse_capped(Ok("-1".to_string()), MAX_WORKERS, &mut n).is_err());
    }
}
