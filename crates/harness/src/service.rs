//! Experiment service core: request model, job dispatch and worker pool.
//!
//! This module is the network-free heart of `splash4-serve` (`DESIGN.md`
//! §13). The serve crate handles sockets and framing; everything about *what
//! a request means* lives here so the harness can test and benchmark the
//! service without a TCP stack in the loop:
//!
//! - [`Request`] / [`RequestKind`]: the three request families (report
//!   experiment, native kernel bench, many-core synthetic sim) with a
//!   canonical form that content-hashes into a [`ResultCache`] key,
//! - [`JobEvent`]: the streamed lifecycle `queued → running → progress →
//!   done | error`, JSON-round-trippable for the wire,
//! - [`dispatch`]: executes one request under a [`JobCtl`] (progress
//!   callback + deadline),
//! - [`WorkerPool`]: a configurable worker team fed by the lock-free
//!   [`BoundedMpmcQueue`], deduping identical configs through the shared
//!   cache and draining gracefully on shutdown.
//!
//! Threading: [`WorkerPool::submit`] answers a request whose result is ready
//! in the cache on the calling thread — same events, same counters, no
//! hand-off — and queues only what must be computed or coalesced. A worker
//! that finds the queue empty parks behind the pool's gate until a submit or
//! the shutdown wakes it; nothing on the request path polls. A job that
//! panics is one `error` event: the worker and the cache slot survive it.

use crate::cache::{fnv1a, ResultCache};
use crate::experiments::{run_experiment, ExperimentCtx};
use crate::registry::BenchmarkId;
use splash4_parmacs::{
    json, Backoff, BoundedMpmcQueue, Json, SyncCounters, SyncEnv, SyncMode, TaskQueue,
};
use splash4_sim::{synthetic_program_in, BarrierKind, Engine, MachineParams, Op};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// What a client asked the service to run.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// One report experiment by id (e.g. `"F2-sim-epyc"`), run against the
    /// pool's shared [`ExperimentCtx`].
    Experiment {
        /// Experiment id from [`crate::experiments::ALL_EXPERIMENTS`].
        id: String,
    },
    /// One native kernel run: elapsed time plus the dynamic sync profile.
    Bench {
        /// Benchmark name (e.g. `"fft"`).
        benchmark: String,
        /// Back-end label (`"splash3"` / `"splash4"`).
        mode: String,
        /// Host threads.
        threads: usize,
    },
    /// A deterministic synthetic program simulated on the many-core preset
    /// ([`MachineParams::manycore`]); the scale-out request family.
    Sim {
        /// Simulated cores (the serve scaling study sweeps 256–1024).
        cores: usize,
        /// Operations per core in the synthetic program.
        ops_per_core: usize,
        /// Barrier kind: `"sense"`, `"condvar"` or `"tree"`.
        barrier: String,
        /// Program seed (content-hashes into the cache key).
        seed: u64,
        /// Optional machine spec resolved via [`MachineParams::resolve`]
        /// (preset name, profile file, or inline JSON). `None` keeps the
        /// many-core preset sized to `cores`. Part of the cache key: the
        /// same program on a different machine is a different result.
        machine: Option<String>,
    },
}

/// A service request: what to run plus an optional per-request deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What to run.
    pub kind: RequestKind,
    /// Per-request timeout in milliseconds (`None` = the pool default).
    pub timeout_ms: Option<u64>,
}

impl Request {
    /// Convenience constructor with no per-request timeout.
    pub fn new(kind: RequestKind) -> Request {
        Request {
            kind,
            timeout_ms: None,
        }
    }

    /// The canonical content string of this request. Identical configs —
    /// regardless of field order on the wire or timeout — canonicalize
    /// identically, which is what makes the result cache content-addressed.
    pub fn canonical(&self) -> String {
        match &self.kind {
            RequestKind::Experiment { id } => format!("experiment/{id}"),
            RequestKind::Bench {
                benchmark,
                mode,
                threads,
            } => format!("bench/{benchmark}/{mode}/t{threads}"),
            RequestKind::Sim {
                cores,
                ops_per_core,
                barrier,
                seed,
                machine,
            } => {
                // Requests without an override keep their pre-override
                // canonical form, so cached results stay addressable.
                let suffix = match machine {
                    Some(m) => format!("/m{m}"),
                    None => String::new(),
                };
                format!("sim/c{cores}/n{ops_per_core}/{barrier}/s{seed}{suffix}")
            }
        }
    }

    /// Encode for the wire.
    pub fn to_json(&self) -> Json {
        let mut obj = match &self.kind {
            RequestKind::Experiment { id } => vec![
                ("type".to_string(), Json::Str("experiment".into())),
                ("id".to_string(), Json::Str(id.clone())),
            ],
            RequestKind::Bench {
                benchmark,
                mode,
                threads,
            } => vec![
                ("type".to_string(), Json::Str("bench".into())),
                ("benchmark".to_string(), Json::Str(benchmark.clone())),
                ("mode".to_string(), Json::Str(mode.clone())),
                ("threads".to_string(), Json::Num(*threads as f64)),
            ],
            RequestKind::Sim {
                cores,
                ops_per_core,
                barrier,
                seed,
                machine,
            } => {
                let mut fields = vec![
                    ("type".to_string(), Json::Str("sim".into())),
                    ("cores".to_string(), Json::Num(*cores as f64)),
                    ("ops_per_core".to_string(), Json::Num(*ops_per_core as f64)),
                    ("barrier".to_string(), Json::Str(barrier.clone())),
                    ("seed".to_string(), Json::Num(*seed as f64)),
                ];
                if let Some(m) = machine {
                    fields.push(("machine".to_string(), Json::Str(m.clone())));
                }
                fields
            }
        };
        if let Some(ms) = self.timeout_ms {
            obj.push(("timeout_ms".to_string(), Json::Num(ms as f64)));
        }
        Json::Object(obj)
    }

    /// Decode a wire request.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("request is missing string field '{k}'"))
        };
        let num_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("request is missing integer field '{k}'"))
        };
        let kind = match str_field("type")?.as_str() {
            "experiment" => RequestKind::Experiment {
                id: str_field("id")?,
            },
            "bench" => RequestKind::Bench {
                benchmark: str_field("benchmark")?,
                mode: str_field("mode")?,
                threads: num_field("threads")? as usize,
            },
            "sim" => RequestKind::Sim {
                cores: num_field("cores")? as usize,
                ops_per_core: num_field("ops_per_core")? as usize,
                barrier: str_field("barrier")?,
                seed: num_field("seed")?,
                machine: v.get("machine").and_then(Json::as_str).map(str::to_string),
            },
            other => return Err(format!("unknown request type '{other}'")),
        };
        Ok(Request {
            kind,
            timeout_ms: v.get("timeout_ms").and_then(Json::as_u64),
        })
    }
}

/// One step of a job's streamed lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// Accepted and placed on the worker queue.
    Queued {
        /// Job id.
        job: u64,
    },
    /// A worker picked the job up.
    Running {
        /// Job id.
        job: u64,
    },
    /// Execution progress in percent.
    Progress {
        /// Job id.
        job: u64,
        /// Rough completion percentage (monotonic per job).
        pct: u8,
    },
    /// Finished; `cached` is `true` when the result came from the
    /// content-hashed cache (including coalescing onto an in-flight twin).
    Done {
        /// Job id.
        job: u64,
        /// Served from cache?
        cached: bool,
        /// The result payload.
        result: Json,
    },
    /// Failed (dispatch error, timeout, or rejected at shutdown).
    Error {
        /// Job id.
        job: u64,
        /// Human-readable cause.
        message: String,
    },
}

impl JobEvent {
    /// The job this event belongs to.
    pub fn job(&self) -> u64 {
        match self {
            JobEvent::Queued { job }
            | JobEvent::Running { job }
            | JobEvent::Progress { job, .. }
            | JobEvent::Done { job, .. }
            | JobEvent::Error { job, .. } => *job,
        }
    }

    /// `true` for `Done` / `Error` — the stream ends after these.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobEvent::Done { .. } | JobEvent::Error { .. })
    }

    /// Encode for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            JobEvent::Queued { job } => json!({ "event": "queued", "job": *job }),
            JobEvent::Running { job } => json!({ "event": "running", "job": *job }),
            JobEvent::Progress { job, pct } => {
                json!({ "event": "progress", "job": *job, "pct": *pct as u64 })
            }
            JobEvent::Done {
                job,
                cached,
                result,
            } => {
                json!({ "event": "done", "job": *job, "cached": *cached, "result": result.clone() })
            }
            JobEvent::Error { job, message } => {
                json!({ "event": "error", "job": *job, "message": message.clone() })
            }
        }
    }

    /// Decode a wire event.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<JobEvent, String> {
        let job = v
            .get("job")
            .and_then(Json::as_u64)
            .ok_or("event is missing integer field 'job'")?;
        match v.get("event").and_then(Json::as_str) {
            Some("queued") => Ok(JobEvent::Queued { job }),
            Some("running") => Ok(JobEvent::Running { job }),
            Some("progress") => Ok(JobEvent::Progress {
                job,
                pct: v
                    .get("pct")
                    .and_then(Json::as_u64)
                    .ok_or("progress event is missing 'pct'")?
                    .min(100) as u8,
            }),
            Some("done") => Ok(JobEvent::Done {
                job,
                cached: v
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or("done event is missing 'cached'")?,
                result: v.get("result").cloned().unwrap_or(Json::Null),
            }),
            Some("error") => Ok(JobEvent::Error {
                job,
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            }),
            other => Err(format!("unknown event kind {other:?}")),
        }
    }
}

/// Execution control handed to [`dispatch`]: a progress sink plus the job's
/// deadline. Every [`JobCtl::tick`] checks the deadline, so a request that
/// overruns its timeout fails at the next stage boundary instead of running
/// to completion.
pub struct JobCtl {
    deadline: Option<Instant>,
    progress: Box<dyn Fn(u8) + Send + Sync>,
}

impl std::fmt::Debug for JobCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobCtl")
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl JobCtl {
    /// A control with the given deadline, forwarding progress to `progress`.
    pub fn new(deadline: Option<Instant>, progress: impl Fn(u8) + Send + Sync + 'static) -> JobCtl {
        JobCtl {
            deadline,
            progress: Box::new(progress),
        }
    }

    /// No deadline, progress discarded — for direct (non-pooled) dispatch.
    pub fn unlimited() -> JobCtl {
        JobCtl::new(None, |_| {})
    }

    /// Report progress, failing the job if its deadline has passed.
    ///
    /// # Errors
    /// Returns a timeout message once the deadline is exceeded.
    pub fn tick(&self, pct: u8) -> Result<(), String> {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err("request timed out (deadline exceeded)".to_string());
            }
        }
        (self.progress)(pct.min(100));
        Ok(())
    }
}

/// Op slots (40 B each) a thread keeps between `sim` requests: the streams
/// of a 1024-core × 400-op program fit; a larger program's are freed.
const SIM_SPARE_OPS_MAX: usize = 1 << 19;

thread_local! {
    /// The engine scratch and the op streams of this thread's last `sim`
    /// program. Each cold request builds and simulates in memory the thread
    /// already holds: freeing megabytes of streams per request lets the
    /// allocator return them to the OS and fault them in again on the next
    /// request, a kernel cost that depends on the heap's layout and so
    /// differs from one process to the next. Any other request kind frees
    /// them.
    static SIM_SCRATCH: RefCell<(Engine, Vec<Vec<Op>>)> = RefCell::default();
}

/// Execute one request, reporting progress through `ctl`.
///
/// Deterministic request kinds (experiment against a warm model cache, sim)
/// produce byte-identical JSON on re-execution — the property that makes
/// content-hashed caching sound.
///
/// # Errors
/// Returns a message for unknown ids/names/modes, invalid parameters, and
/// deadline overruns.
pub fn dispatch(req: &Request, ctx: &ExperimentCtx, ctl: &JobCtl) -> Result<Json, String> {
    ctl.tick(5)?;
    if !matches!(req.kind, RequestKind::Sim { .. }) {
        // Kept streams would only raise the peak under this request's own
        // allocations: give them back while no `sim` request is running.
        SIM_SCRATCH.take();
    }
    match &req.kind {
        RequestKind::Experiment { id } => {
            let report = run_experiment(id, ctx)?;
            ctl.tick(90)?;
            Ok(json!({
                "type": "experiment",
                "id": report.id.clone(),
                "title": report.title.clone(),
                "text": report.text.clone(),
                "data": report.json.clone(),
            }))
        }
        RequestKind::Bench {
            benchmark,
            mode,
            threads,
        } => {
            let b = BenchmarkId::from_name(benchmark).ok_or_else(|| {
                format!(
                    "unknown benchmark '{benchmark}'; known benchmarks: {}",
                    splash4_kernels::workload::known_names().join(", ")
                )
            })?;
            let m = SyncMode::from_label(mode).ok_or_else(|| format!("unknown mode '{mode}'"))?;
            if *threads == 0 {
                return Err("bench request needs threads >= 1".to_string());
            }
            let env = SyncEnv::new(m, *threads);
            let result = b.run(ctx.class, &env);
            ctl.tick(90)?;
            Ok(json!({
                "type": "bench",
                "benchmark": b.name(),
                "mode": m.label(),
                "threads": *threads as u64,
                "class": ctx.class.label(),
                "elapsed_ns": result.elapsed_ns(),
                "profile": result.profile,
            }))
        }
        RequestKind::Sim {
            cores,
            ops_per_core,
            barrier,
            seed,
            machine,
        } => {
            let kind = barrier_kind(barrier)?;
            if *cores == 0 || *ops_per_core == 0 {
                return Err("sim request needs cores >= 1 and ops_per_core >= 1".to_string());
            }
            let machine = match machine {
                Some(spec) => MachineParams::resolve(spec)?,
                None => MachineParams::manycore(*cores),
            };
            let (events, result) = SIM_SCRATCH.with_borrow_mut(|(engine, spare)| {
                let program = synthetic_program_in(spare, *cores, *ops_per_core, kind, *seed);
                ctl.tick(40)?;
                let events = program.total_ops() as u64;
                let result = engine.run(&program, &machine);
                spare.extend(program.cores);
                if spare.iter().map(Vec::capacity).sum::<usize>() > SIM_SPARE_OPS_MAX {
                    spare.clear();
                }
                Ok::<_, String>((events, result))
            })?;
            ctl.tick(90)?;
            let (compute, service, wait, sync_local, barrier_f) = result.fractions();
            Ok(json!({
                "type": "sim",
                "machine": machine.name,
                "cores": *cores as u64,
                "ops_per_core": *ops_per_core as u64,
                "barrier": barrier.clone(),
                "seed": *seed,
                "events": events,
                "total_ns": result.total_ns,
                "fractions": json!({
                    "compute": compute, "service": service, "wait": wait,
                    "sync_local": sync_local, "barrier": barrier_f,
                }),
            }))
        }
    }
}

fn barrier_kind(s: &str) -> Result<BarrierKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "sense" => Ok(BarrierKind::Sense),
        "condvar" => Ok(BarrierKind::Condvar),
        "tree" => Ok(BarrierKind::Tree),
        other => Err(format!(
            "unknown barrier kind '{other}' (expected sense, condvar or tree)"
        )),
    }
}

/// Tuning knobs for a [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads.
    pub workers: usize,
    /// Result-cache retention bound (ready entries).
    pub cache_capacity: usize,
    /// Bounded job-queue capacity (submissions spin when full).
    pub queue_capacity: usize,
    /// Default per-request timeout when the request carries none.
    pub default_timeout_ms: Option<u64>,
    /// Experiment context shared by every job (and its model cache —
    /// sharing this ctx with a direct run makes results bit-identical).
    pub ctx: ExperimentCtx,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            cache_capacity: 64,
            queue_capacity: 256,
            default_timeout_ms: None,
            ctx: ExperimentCtx::default(),
        }
    }
}

struct Job {
    id: u64,
    key: u64,
    request: Request,
    deadline: Option<Instant>,
    events: mpsc::Sender<JobEvent>,
}

struct PoolShared {
    accepting: AtomicBool,
    next_job: AtomicU64,
    inline_hits: AtomicU64,
    /// Idle workers wait on `wake` under this lock; the value counts them.
    gate: Mutex<usize>,
    wake: Condvar,
    ctx: ExperimentCtx,
    cache: ResultCache<Json>,
    stats: Arc<SyncCounters>,
    default_timeout_ms: Option<u64>,
}

impl PoolShared {
    fn gate(&self) -> MutexGuard<'_, usize> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The service's execution engine: `workers` threads draining a lock-free
/// [`BoundedMpmcQueue`] of jobs, deduping through a shared [`ResultCache`].
///
/// Shutdown is graceful: new submissions are rejected, queued and in-flight
/// jobs run to completion, then the workers exit. Dropping the pool performs
/// the same drain.
pub struct WorkerPool {
    queue: Arc<BoundedMpmcQueue<Job>>,
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("cache", &self.shared.cache)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Start `cfg.workers` worker threads.
    pub fn start(cfg: ServiceConfig) -> WorkerPool {
        let stats = Arc::new(SyncCounters::new());
        let queue = Arc::new(BoundedMpmcQueue::new(
            cfg.queue_capacity.max(2),
            Arc::clone(&stats),
        ));
        let shared = Arc::new(PoolShared {
            accepting: AtomicBool::new(true),
            next_job: AtomicU64::new(0),
            inline_hits: AtomicU64::new(0),
            gate: Mutex::new(0),
            wake: Condvar::new(),
            ctx: cfg.ctx,
            cache: ResultCache::new(cfg.cache_capacity, Arc::clone(&stats)),
            stats,
            default_timeout_ms: cfg.default_timeout_ms,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = next_job(&queue, &shared) {
                            run_job(&shared, job);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool {
            queue,
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Submit a request. Returns the job id and the event stream, already
    /// carrying the `Queued` event — and the whole lifecycle when the result
    /// was ready in the cache: a hit is answered here, on the caller's thread.
    ///
    /// # Errors
    /// Rejected once shutdown has begun.
    pub fn submit(&self, request: Request) -> Result<(u64, mpsc::Receiver<JobEvent>), String> {
        let shared = &*self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
            return Err("service is shutting down; request rejected".to_string());
        }
        let id = shared.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        let (tx, rx) = mpsc::channel();
        let deadline = request
            .timeout_ms
            .or(shared.default_timeout_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let _ = tx.send(JobEvent::Queued { job: id });
        let mut job = Job {
            id,
            key: Self::key_for(&shared.ctx, &request),
            request,
            deadline,
            events: tx,
        };
        // An expired job takes the queue like a miss: the worker's deadline
        // check answers it, and it never counts as a hit.
        let ready = match deadline {
            Some(d) if Instant::now() >= d => None,
            _ => shared.cache.get_ready(job.key),
        };
        if let Some(result) = ready {
            shared.inline_hits.fetch_add(1, Ordering::Relaxed);
            let _ = job.events.send(JobEvent::Running { job: id });
            let _ = job.events.send(JobEvent::Done {
                job: id,
                cached: true,
                result,
            });
            return Ok((id, rx));
        }
        // Bounded admission: a full ring is waited out with the shared
        // truncated-exponential `Backoff`, which ends in yielding the core.
        let mut backoff = Backoff::new();
        while let Err(back) = self.queue.try_push(job) {
            job = back;
            backoff.snooze();
        }
        // Wake one parked worker. No wake-up is lost: a worker checks the
        // queue a last time *under the gate* before it waits, and this
        // thread takes the gate after its push. If this section comes first,
        // the push happens-before that check (unlock → lock) and the worker
        // finds the job; if the worker's came first it is already waiting
        // (`Condvar::wait` gave the gate up atomically) and the notify
        // reaches it. `shutdown` stores its flag under the gate, so a worker
        // that left without seeing this push left before this section, and
        // the flag read here is then set.
        let stopping = {
            let _gate = shared.gate();
            !shared.accepting.load(Ordering::Relaxed)
        };
        shared.wake.notify_one();
        if stopping {
            // The workers may all be gone: run what is left where it arrived.
            while let Some(job) = self.queue.try_pop() {
                run_job(shared, job);
            }
        }
        Ok((id, rx))
    }

    /// The cache key `request` resolves to in this pool (exposed so tests
    /// and the serve layer can reason about dedup).
    pub fn cache_key(&self, request: &Request) -> u64 {
        Self::key_for(&self.shared.ctx, request)
    }

    fn key_for(ctx: &ExperimentCtx, request: &Request) -> u64 {
        // The input class shapes every result, so it is part of the content
        // hash even though it is pool-global today.
        let canonical = format!("{}|class={}", request.canonical(), ctx.class.label());
        fnv1a(canonical.as_bytes())
    }

    /// The experiment ctx jobs run against (share it with a direct
    /// [`dispatch`] call to get bit-identical results).
    pub fn ctx(&self) -> &ExperimentCtx {
        &self.shared.ctx
    }

    /// Jobs accepted so far.
    pub fn submitted(&self) -> u64 {
        self.shared.next_job.load(Ordering::Relaxed)
    }

    /// Live state for the `stats` op: cache hits answered at submit (a subset
    /// of the profile's `cache_hits`), jobs waiting in the queue, distinct
    /// computations running, and workers parked — each as of now.
    pub fn live_stats(&self) -> Json {
        json!({
            "inline_hits": self.shared.inline_hits.load(Ordering::Relaxed),
            "queue_depth": self.queue.len(),
            "in_flight": self.shared.cache.in_flight(),
            "workers_parked": *self.shared.gate(),
        })
    }

    /// Folded queue/cache instrumentation (queue ops, cache hits/misses…).
    pub fn profile(&self) -> splash4_parmacs::SyncProfile {
        self.shared.stats.snapshot()
    }

    /// Graceful shutdown: reject new work, drain queued and in-flight jobs,
    /// join the workers. Idempotent, and callable through a shared
    /// reference so a server can trigger it from any connection thread.
    pub fn shutdown(&self) {
        {
            let _gate = self.shared.gate();
            self.shared.accepting.store(false, Ordering::Release);
        }
        self.shared.wake.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A worker's next job; `None` once the pool is shut down and drained. An
/// idle worker parks here (see [`WorkerPool::submit`] for the handshake).
fn next_job(queue: &BoundedMpmcQueue<Job>, shared: &PoolShared) -> Option<Job> {
    if let Some(job) = queue.try_pop() {
        return Some(job);
    }
    let mut parked = shared.gate();
    loop {
        if let Some(job) = queue.try_pop() {
            return Some(job);
        }
        if !shared.accepting.load(Ordering::Relaxed) {
            return None;
        }
        *parked += 1;
        parked = shared
            .wake
            .wait(parked)
            .unwrap_or_else(PoisonError::into_inner);
        *parked -= 1;
    }
}

fn run_job(shared: &PoolShared, job: Job) {
    let Job {
        id,
        key,
        request,
        deadline,
        events,
    } = job;
    if deadline.is_some_and(|d| Instant::now() >= d) {
        let _ = events.send(JobEvent::Error {
            job: id,
            message: "request timed out while queued".to_string(),
        });
        return;
    }
    let _ = events.send(JobEvent::Running { job: id });
    let progress_tx = events.clone();
    let ctl = JobCtl::new(deadline, move |pct| {
        let _ = progress_tx.send(JobEvent::Progress { job: id, pct });
    });
    // A panic in the job is the job's error: the cache drops its in-flight
    // marker as the panic unwinds, and this thread lives on.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        shared
            .cache
            .get_or_try_compute(key, || dispatch(&request, &shared.ctx, &ctl))
    }))
    .unwrap_or_else(|panic| {
        let text = panic.downcast_ref::<String>().map(String::as_str);
        let text = text.or(panic.downcast_ref::<&str>().copied());
        Err(format!("job panicked: {}", text.unwrap_or("(no message)")))
    });
    let _ = events.send(match outcome {
        Ok((result, cached)) => JobEvent::Done {
            job: id,
            cached,
            result,
        },
        Err(message) => JobEvent::Error { job: id, message },
    });
}

/// Drain `rx` until the job's terminal event, returning everything received.
pub fn drain_events(rx: &mpsc::Receiver<JobEvent>) -> Vec<JobEvent> {
    let mut events = Vec::new();
    while let Ok(ev) = rx.recv() {
        let terminal = ev.is_terminal();
        events.push(ev);
        if terminal {
            break;
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_kernels::InputClass;

    fn tiny_ctx() -> ExperimentCtx {
        ExperimentCtx {
            class: InputClass::Test,
            benchmarks: vec![BenchmarkId::Fft],
            native_threads: vec![1],
            sim_threads: vec![1, 8],
            snapshot_cores: 8,
            ..ExperimentCtx::default()
        }
    }

    fn tiny_pool(workers: usize) -> WorkerPool {
        WorkerPool::start(ServiceConfig {
            workers,
            cache_capacity: 16,
            queue_capacity: 64,
            default_timeout_ms: None,
            ctx: tiny_ctx(),
        })
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

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = [
            Request::new(RequestKind::Experiment {
                id: "T1-inputs".into(),
            }),
            Request {
                kind: RequestKind::Bench {
                    benchmark: "fft".into(),
                    mode: "splash4".into(),
                    threads: 4,
                },
                timeout_ms: Some(1500),
            },
            Request::new(RequestKind::Sim {
                cores: 1024,
                ops_per_core: 100,
                barrier: "tree".into(),
                seed: 7,
                machine: None,
            }),
            Request::new(RequestKind::Sim {
                cores: 64,
                ops_per_core: 10,
                barrier: "sense".into(),
                seed: 9,
                machine: Some("icelake".into()),
            }),
        ];
        for r in reqs {
            let wire = r.to_json().to_string();
            let back = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, r);
        }
        assert!(Request::from_json(&json!({ "type": "nope" })).is_err());
    }

    #[test]
    fn job_events_round_trip_through_json() {
        let events = [
            JobEvent::Queued { job: 3 },
            JobEvent::Running { job: 3 },
            JobEvent::Progress { job: 3, pct: 40 },
            JobEvent::Done {
                job: 3,
                cached: true,
                result: json!({ "events": 12u64 }),
            },
            JobEvent::Error {
                job: 3,
                message: "boom".into(),
            },
        ];
        for ev in events {
            let wire = ev.to_json().to_string();
            let back = JobEvent::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, ev);
            assert_eq!(back.job(), 3);
        }
    }

    #[test]
    fn canonical_form_ignores_timeout_but_not_content() {
        let a = sim_request(1);
        let mut b = sim_request(1);
        b.timeout_ms = Some(10);
        assert_eq!(a.canonical(), b.canonical());
        assert_ne!(a.canonical(), sim_request(2).canonical());
    }

    #[test]
    fn sim_machine_override_is_part_of_the_cache_key_and_resolves() {
        let base = sim_request(1);
        let mut on_icelake = sim_request(1);
        let RequestKind::Sim { machine, .. } = &mut on_icelake.kind else {
            unreachable!();
        };
        *machine = Some("icelake".into());
        // Same program on a different machine must not share a cache slot,
        // and a machine-less request keeps its pre-override canonical form.
        assert_ne!(base.canonical(), on_icelake.canonical());
        assert!(base.canonical().ends_with("/s1"));

        let ctx = tiny_ctx();
        let result = dispatch(&on_icelake, &ctx, &JobCtl::unlimited()).unwrap();
        assert_eq!(
            result.get("machine").and_then(Json::as_str),
            Some("icelake-gem5-like")
        );

        let mut bogus = sim_request(1);
        let RequestKind::Sim { machine, .. } = &mut bogus.kind else {
            unreachable!();
        };
        *machine = Some("not-a-machine".into());
        assert!(dispatch(&bogus, &ctx, &JobCtl::unlimited()).is_err());
    }

    #[test]
    fn dispatch_is_deterministic_for_sim_and_experiment() {
        let ctx = tiny_ctx();
        for req in [
            sim_request(9),
            Request::new(RequestKind::Experiment {
                id: "T1-inputs".into(),
            }),
        ] {
            let a = dispatch(&req, &ctx, &JobCtl::unlimited()).unwrap();
            let b = dispatch(&req, &ctx, &JobCtl::unlimited()).unwrap();
            assert_eq!(
                a.to_string(),
                b.to_string(),
                "{} must re-execute bit-identically",
                req.canonical()
            );
        }
    }

    #[test]
    fn pool_streams_lifecycle_and_serves_duplicates_from_cache() {
        let pool = tiny_pool(2);
        let (id, rx) = pool.submit(sim_request(5)).unwrap();
        let first = drain_events(&rx);
        assert!(matches!(first[0], JobEvent::Queued { job } if job == id));
        assert!(first.iter().any(|e| matches!(e, JobEvent::Running { .. })));
        assert!(first.iter().any(|e| matches!(e, JobEvent::Progress { .. })));
        let Some(JobEvent::Done {
            cached: false,
            result,
            ..
        }) = first.last()
        else {
            panic!("first run must compute: {first:?}");
        };

        let (_, rx) = pool.submit(sim_request(5)).unwrap();
        let second = drain_events(&rx);
        let Some(JobEvent::Done {
            cached: true,
            result: dup,
            ..
        }) = second.last()
        else {
            panic!("duplicate must be served from cache: {second:?}");
        };
        assert_eq!(dup.to_string(), result.to_string());

        let profile = pool.profile();
        assert_eq!(profile.cache_misses, 1);
        assert_eq!(profile.cache_hits, 1);
        assert!(profile.queue_ops > 0, "jobs flow through the MPMC queue");
        pool.shutdown();
    }

    #[test]
    fn submissions_back_off_through_a_full_queue_without_loss() {
        // Capacity 2 (the queue rounds up to a power of two) with a single
        // worker: a burst of distinct requests must saturate the ring and
        // force submitters through the backoff path, yet every job completes.
        let pool = WorkerPool::start(ServiceConfig {
            workers: 1,
            cache_capacity: 16,
            queue_capacity: 2,
            default_timeout_ms: None,
            ctx: tiny_ctx(),
        });
        let receivers: Vec<_> = (0..12)
            .map(|seed| pool.submit(sim_request(seed)).unwrap().1)
            .collect();
        for rx in receivers {
            let events = drain_events(&rx);
            assert!(
                matches!(events.last(), Some(JobEvent::Done { .. })),
                "job must complete despite a full queue: {events:?}"
            );
        }
        assert_eq!(pool.submitted(), 12);
        pool.shutdown();
    }

    #[test]
    fn mixed_request_kinds_all_complete() {
        let pool = tiny_pool(3);
        let reqs = vec![
            Request::new(RequestKind::Experiment {
                id: "T1-inputs".into(),
            }),
            Request::new(RequestKind::Bench {
                benchmark: "fft".into(),
                mode: "splash4".into(),
                threads: 2,
            }),
            sim_request(1),
            sim_request(2),
        ];
        let streams: Vec<_> = reqs
            .into_iter()
            .map(|r| pool.submit(r).unwrap().1)
            .collect();
        for rx in &streams {
            let events = drain_events(rx);
            assert!(
                matches!(events.last(), Some(JobEvent::Done { .. })),
                "job must finish cleanly: {events:?}"
            );
        }
        pool.shutdown();
    }

    #[test]
    fn unknown_requests_fail_with_clean_errors() {
        let pool = tiny_pool(1);
        let (_, rx) = pool
            .submit(Request::new(RequestKind::Experiment {
                id: "F9-nope".into(),
            }))
            .unwrap();
        let events = drain_events(&rx);
        let Some(JobEvent::Error { message, .. }) = events.last() else {
            panic!("unknown experiment must error: {events:?}");
        };
        assert!(message.contains("unknown experiment"));
        // Errors are not cached: counters show two misses after a retry.
        let (_, rx) = pool
            .submit(Request::new(RequestKind::Experiment {
                id: "F9-nope".into(),
            }))
            .unwrap();
        drain_events(&rx);
        assert_eq!(pool.profile().cache_misses, 2);
        pool.shutdown();
    }

    #[test]
    fn zero_timeout_fails_deterministically() {
        let pool = tiny_pool(1);
        let mut req = sim_request(77);
        req.timeout_ms = Some(0);
        let (_, rx) = pool.submit(req).unwrap();
        let events = drain_events(&rx);
        let Some(JobEvent::Error { message, .. }) = events.last() else {
            panic!("zero timeout must fail: {events:?}");
        };
        assert!(message.contains("timed out"), "got: {message}");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_then_rejects() {
        let pool = tiny_pool(2);
        let streams: Vec<_> = (0..6)
            .map(|i| pool.submit(sim_request(i)).unwrap().1)
            .collect();
        pool.shutdown();
        for rx in &streams {
            let events = drain_events(rx);
            assert!(
                matches!(events.last(), Some(JobEvent::Done { .. })),
                "queued work must drain on shutdown: {events:?}"
            );
        }
        assert!(pool.submit(sim_request(99)).is_err());
    }

    #[test]
    fn concurrent_duplicates_compute_exactly_once() {
        // (distinct configs, submissions of each), always from 4 workers:
        // every config computes once however its duplicates interleave, and
        // every other submission is a hit.
        for (distinct, copies) in [(1u64, 8u64), (4, 2)] {
            let pool = Arc::new(tiny_pool(4));
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    thread::spawn(move || {
                        (t..distinct * copies)
                            .step_by(4)
                            .map(|i| {
                                let request = sim_request(1234 + i % distinct);
                                let (_, rx) = pool.submit(request).unwrap();
                                drain_events(&rx)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut computed = 0;
            for events in handles.into_iter().flat_map(|h| h.join().unwrap()) {
                match events.last() {
                    Some(JobEvent::Done { cached: false, .. }) => computed += 1,
                    Some(JobEvent::Done { cached: true, .. }) => {}
                    other => panic!("job must complete: {other:?}"),
                }
            }
            assert_eq!(computed, distinct, "each config computes exactly once");
            assert_eq!(pool.profile().cache_misses, distinct);
            assert_eq!(pool.profile().cache_hits, distinct * (copies - 1));
        }
    }
}
