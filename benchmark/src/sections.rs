//! The five plan sections: set-up, one timed pass, and the output oracle.
//!
//! Every section drives the crates through their public entry points only
//! and wraps each call in a span. A *request* is one such call: a kernel run,
//! a pool churn, a `simulate`, a TCP submission, a `check_*` suite.

use crate::inputs::{
    cold_request, derive, hot_draws, sim_request, Cell, CheckPlan, ChurnPlan, NativePlan,
    ServePlan, SimPlan, KERNELS,
};
use crate::span::Tracer;
use splash4_check::{
    check_combining, check_combining_mutants, check_kernel_mutants, check_kernels, check_mutants,
    check_reclaim, check_reclaim_mutants, check_suite, check_weakmem, check_weakmem_mutants,
    CheckBudget, ConstructReport, MutantReport, Verdict,
};
use splash4_harness::{
    dispatch, record_trace, synthetic_program, BenchmarkId, ExperimentCtx, JobCtl, JobEvent,
    Request, RequestKind, ServiceConfig,
};
use splash4_kernels::{close, cmap, InputClass, KernelResult};
use splash4_parmacs::{
    json, Json, SmallRng, SyncEnv, SyncMode, SyncProfile, TaskQueue, Team, WorkModel,
};
use splash4_reclaim::{PoolShape, ReclaimKind, ReclaimStats, TaskPool};
use splash4_serve::{Client, Server, ServerConfig};
use splash4_sim::{engine, model, BarrierKind, MachineParams, Program, Simulator};
use splash4_trace::{lower::lower, Trace};
use std::sync::Arc;
use std::time::Instant;

pub const MODES: [SyncMode; 3] = SyncMode::ALL;

/// Attempted and failed operations, with the first few failure messages.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// What one timed pass hands back: the latency of each request, in ms.
pub type Latencies = Vec<f64>;

/// A plan section, set up and ready to be timed.
pub trait Section {
    /// Run one pass under `parent`; push every request's latency.
    fn pass(&mut self, pass: u32, tracer: &Tracer, parent: u32, lat: &mut Latencies);
    /// After timing: everything the oracle found.
    fn verify(&mut self) -> Tally;
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

// ───────────────────────────── native kernels ─────────────────────────────

/// One mode of one kernel input: every pass's ROI and wall, and the last
/// sync profile.
#[derive(Default, Clone)]
pub struct CellLog {
    pub roi_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub profile: SyncProfile,
}

/// One kernel input across the three modes, with the checksum its first run
/// gave: every later run, in any mode or pass, must validate and agree.
#[derive(Default, Clone)]
pub struct KernelLog {
    pub modes: [CellLog; 3],
    checksum: Option<f64>,
}

impl KernelLog {
    fn record(&mut self, m: usize, wall_s: f64, r: KernelResult, tally: &mut Tally, what: &str) {
        let first = *self.checksum.get_or_insert(r.checksum);
        tally.check(r.validated && close(r.checksum, first, 1e-9), || {
            format!(
                "{what} {}: validated={} checksum {} vs {first}",
                MODES[m].label(),
                r.validated,
                r.checksum
            )
        });
        let log = &mut self.modes[m];
        log.roi_s.push(r.elapsed.as_secs_f64());
        log.wall_s.push(wall_s);
        log.profile = r.profile;
    }
}

pub struct Native {
    pub cells: Vec<Cell>,
    /// How many leading cells are the workload's own (the rest are probes).
    pub main_cells: usize,
    pub threads: usize,
    pub logs: Vec<KernelLog>,
    tally: Tally,
}

impl Native {
    /// Set-up is one warm-up run of every main cell (lock-free): first-touch
    /// page faults and allocator growth happen here, not in the first pass.
    pub fn setup(plan: &NativePlan, with_probe: bool, threads: usize) -> Native {
        let mut cells = plan.main.clone();
        if with_probe {
            cells.extend(plan.probe.iter().cloned());
        }
        for c in &plan.main {
            let env = SyncEnv::new(SyncMode::LockFree, threads);
            std::hint::black_box((c.kernel.run)(c.class, c.seed, &env));
        }
        Native {
            logs: vec![KernelLog::default(); cells.len()],
            main_cells: plan.main.len(),
            cells,
            threads,
            tally: Tally::default(),
        }
    }
}

impl Section for Native {
    fn pass(&mut self, pass: u32, tracer: &Tracer, parent: u32, lat: &mut Latencies) {
        for (cell, log) in self.cells.iter().zip(&mut self.logs) {
            for (m, mode) in MODES.into_iter().enumerate() {
                let t0 = Instant::now();
                let r = tracer.span(parent, "kernels.run", pass, |_| {
                    (cell.kernel.run)(cell.class, cell.seed, &SyncEnv::new(mode, self.threads))
                });
                let wall = t0.elapsed().as_secs_f64();
                lat.push(wall * 1e3);
                log.record(m, wall, r, &mut self.tally, cell.kernel.name);
            }
        }
    }

    fn verify(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

// ───────────────────────────── reclaim churn ─────────────────────────────

pub const POOLS: [(&str, Option<(ReclaimKind, PoolShape)>); 5] = [
    ("epoch_queue", Some((ReclaimKind::Epoch, PoolShape::Fifo))),
    ("epoch_stack", Some((ReclaimKind::Epoch, PoolShape::Lifo))),
    ("hazard_queue", Some((ReclaimKind::Hazard, PoolShape::Fifo))),
    ("hazard_stack", Some((ReclaimKind::Hazard, PoolShape::Lifo))),
    // The fixed index pool the kernels shipped with: the base the reclaiming
    // pools are read against.
    ("index", None),
];

pub struct Churn {
    pub plan: ChurnPlan,
    pub threads: usize,
    /// Per cmap shape, like the native cells.
    pub cmap_logs: Vec<KernelLog>,
    /// Per pool: wall seconds of every pass's churn.
    pub pool_wall_s: [Vec<f64>; 5],
    /// Per pool: reclamation tallies of the last pass, read before `flush`.
    pub pool_stats: [Option<ReclaimStats>; 5],
    tally: Tally,
}

impl Churn {
    pub fn setup(plan: &ChurnPlan, threads: usize) -> Churn {
        let mut churn = Churn {
            plan: plan.clone(),
            threads,
            cmap_logs: vec![KernelLog::default(); plan.shapes.len()],
            pool_wall_s: Default::default(),
            pool_stats: Default::default(),
            tally: Tally::default(),
        };
        // Warm-up: one lock-free run per shape and a short churn per pool.
        for s in &plan.shapes {
            let env = SyncEnv::new(SyncMode::LockFree, threads);
            std::hint::black_box(cmap::run(&s.cfg, &env));
        }
        for p in 0..POOLS.len() {
            churn.churn_pool(p, plan.pool_pairs / 8);
        }
        churn.tally = Tally::default();
        churn.pool_wall_s = Default::default();
        churn
    }

    /// `pairs` push+pop pairs per thread on a fresh pool; returns wall seconds.
    fn churn_pool(&mut self, p: usize, pairs: usize) -> f64 {
        let env = SyncEnv::new(SyncMode::LockFree, self.threads);
        let reclaiming = POOLS[p].1.map(|(kind, shape)| {
            Arc::new(TaskPool::<usize>::new(
                shape,
                kind,
                self.threads + 1,
                Arc::clone(env.stats()),
            ))
        });
        let pool: Arc<dyn TaskQueue<usize>> = match &reclaiming {
            Some(p) => p.clone(),
            None => env.task_queue(),
        };
        let t0 = Instant::now();
        let popped: Vec<(u64, u64)> = Team::new(self.threads).run_map(|_| {
            let (mut n, mut sum) = (0u64, 0u64);
            for i in 0..pairs {
                pool.push(i);
                if let Some(v) = pool.pop() {
                    n += 1;
                    sum += v as u64;
                }
            }
            (n, sum)
        });
        let wall = t0.elapsed().as_secs_f64();
        // Interleaved pops can transiently miss; what they left is drained
        // here, and every pushed value must come out exactly once.
        let (mut n, mut sum) = popped
            .into_iter()
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        while let Some(v) = pool.pop() {
            n += 1;
            sum += v as u64;
        }
        let pushed = (self.threads * pairs) as u64;
        let want = self.threads as u64 * (pairs as u64 * (pairs as u64).saturating_sub(1) / 2);
        self.tally.check(n == pushed && sum == want, || {
            format!(
                "pool {}: popped {n}/{pushed}, sum {sum} vs {want}",
                POOLS[p].0
            )
        });
        if let Some(pool) = &reclaiming {
            self.pool_stats[p] = Some(pool.reclaim_stats());
            pool.flush();
            let after = pool.reclaim_stats();
            self.tally.check(after.pending() == 0, || {
                format!(
                    "pool {}: {} retired nodes survive flush",
                    POOLS[p].0,
                    after.pending()
                )
            });
        }
        wall
    }
}

impl Section for Churn {
    fn pass(&mut self, pass: u32, tracer: &Tracer, parent: u32, lat: &mut Latencies) {
        for (shape, log) in self.plan.shapes.iter().zip(&mut self.cmap_logs) {
            for (m, mode) in MODES.into_iter().enumerate() {
                let t0 = Instant::now();
                let r = tracer.span(parent, "kernels.cmap_run", pass, |_| {
                    cmap::run(&shape.cfg, &SyncEnv::new(mode, self.threads))
                });
                let wall = t0.elapsed().as_secs_f64();
                lat.push(wall * 1e3);
                log.record(m, wall, r, &mut self.tally, shape.label);
            }
        }
        for p in 0..POOLS.len() {
            let pairs = self.plan.pool_pairs;
            let t0 = Instant::now();
            let wall = tracer.span(parent, "reclaim.pool_churn", pass, |_| {
                self.churn_pool(p, pairs)
            });
            lat.push(ms(t0));
            self.pool_wall_s[p].push(wall);
        }
    }

    fn verify(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

// ───────────────────────────── simulator sweep ─────────────────────────────

type MachinePreset = (&'static str, fn() -> MachineParams);
pub const MACHINES: [MachinePreset; 2] = [
    ("epyc", MachineParams::epyc_like),
    ("icelake", MachineParams::icelake_like),
];
const SYNTH_KINDS: [BarrierKind; 3] = [BarrierKind::Sense, BarrierKind::Tree, BarrierKind::Condvar];

pub struct Sim {
    pub plan: SimPlan,
    /// One work model per registered kernel: structure from a `Test`-class
    /// run, `cycles_per_item` replaced by seeded values so simulated totals
    /// repeat exactly run over run.
    pub models: Vec<WorkModel>,
    pub traces: Vec<Trace>,
    pub synthetic: Vec<Program>,
    /// Events of one model sweep, counted during set-up by expanding every
    /// phase the way `Simulator::simulate` does.
    pub sweep_events: u64,
    /// Seconds set-up spent running kernels for model structure.
    pub calibrate_s: f64,
    /// Simulated `total_ns` of every run of the first pass, in pass order.
    reference_totals: Vec<u64>,
    /// Events and host seconds of the last pass; simulated ns of the exact
    /// (sweep + synthetic) part of it.
    pub last_events: u64,
    pub last_wall_s: f64,
    pub exact_simulated_ns: u64,
    /// Geomean over models of splash4/splash3 simulated time at 64 cores.
    pub norm_time_64: [f64; 2],
    tally: Tally,
}

impl Sim {
    pub fn setup(plan: &SimPlan, threads: usize) -> Sim {
        let t0 = Instant::now();
        let mut rng = SmallRng::seed_from_u64(plan.seed);
        let models: Vec<WorkModel> = KERNELS
            .iter()
            .map(|k| {
                let env = SyncEnv::new(SyncMode::LockFree, 1);
                let mut work = (k.run)(InputClass::Test, derive(plan.seed, 1), &env).work;
                for p in &mut work.phases {
                    p.cycles_per_item = rng.gen_range(20..2_000u64);
                }
                work
            })
            .collect();
        let calibrate_s = t0.elapsed().as_secs_f64();
        let traces = plan
            .traced
            .iter()
            .map(|name| {
                let b = BenchmarkId::from_name(name).expect("traced kernel is registered");
                record_trace(b, InputClass::Test, SyncMode::LockFree, threads).1
            })
            .collect();
        let synthetic = plan
            .synthetic_cores
            .iter()
            .flat_map(|&cores| {
                SYNTH_KINDS.into_iter().enumerate().map(move |(k, kind)| {
                    let seed = derive(plan.seed, 0x10 + k as u64 + ((cores as u64) << 8));
                    synthetic_program(cores, plan.synthetic_ops_per_core, kind, seed)
                })
            })
            .collect();
        let machine = MachineParams::epyc_like();
        let mut sweep_events = 0u64;
        for w in &models {
            for mode in MODES {
                for &cores in &plan.cores {
                    for phase in &w.phases {
                        let mut capped = phase.clone();
                        capped.repeats = capped.repeats.min(splash4_sim::MAX_SIM_REPEATS);
                        if capped.repeats == 0 {
                            continue;
                        }
                        let single = WorkModel {
                            name: w.name.clone(),
                            phases: vec![capped],
                        };
                        sweep_events +=
                            model::expand(&single, mode.into(), cores, &machine).total_ops() as u64;
                    }
                }
            }
        }
        Sim {
            plan: plan.clone(),
            models,
            traces,
            synthetic,
            sweep_events: sweep_events * MACHINES.len() as u64,
            calibrate_s,
            reference_totals: Vec::new(),
            last_events: 0,
            last_wall_s: 0.0,
            exact_simulated_ns: 0,
            norm_time_64: [0.0; 2],
            tally: Tally::default(),
        }
    }
}

impl Section for Sim {
    fn pass(&mut self, pass: u32, tracer: &Tracer, parent: u32, lat: &mut Latencies) {
        let t_pass = Instant::now();
        let mut totals: Vec<u64> = Vec::new();
        let mut events = self.sweep_events;
        let mut exact_ns = 0u64;
        // A fresh `Simulator` per machine and pass, as each report experiment
        // makes its own: expansion is part of the characterisation's cost.
        for (mi, (_, machine)) in MACHINES.into_iter().enumerate() {
            let mut sim = Simulator::new(machine());
            let mut ratios = Vec::new();
            for w in &self.models {
                let mut at_64 = [0u64; 3];
                for (m, mode) in MODES.into_iter().enumerate() {
                    for &cores in &self.plan.cores {
                        let t0 = Instant::now();
                        let r = tracer.span(parent, "sim.simulate", pass, |_| {
                            sim.simulate(w, mode, cores)
                        });
                        lat.push(ms(t0));
                        totals.push(r.total_ns);
                        exact_ns += r.total_ns;
                        if cores == 64 {
                            at_64[m] = r.total_ns;
                        }
                    }
                }
                if at_64[0] > 0 {
                    ratios.push(at_64[1] as f64 / at_64[0] as f64);
                }
            }
            self.norm_time_64[mi] = crate::stats::geomean(&ratios);
        }
        let machine = MachineParams::epyc_like();
        for trace in &self.traces {
            for &cores in &self.plan.cores {
                let t0 = Instant::now();
                let r = tracer.span(parent, "trace.replay", pass, |replay| {
                    let program = tracer.span(replay, "trace.lower", pass, |_| {
                        lower(trace, SyncMode::LockFree.into(), cores, &machine)
                    });
                    events += program.total_ops() as u64;
                    tracer.span(replay, "sim.engine_run", pass, |_| {
                        engine::run(&program, &machine)
                    })
                });
                lat.push(ms(t0));
                totals.push(r.total_ns);
            }
        }
        for program in &self.synthetic {
            let machine = MachineParams::manycore(program.ncores());
            let t0 = Instant::now();
            let r = tracer.span(parent, "sim.engine_run", pass, |_| {
                engine::run(program, &machine)
            });
            lat.push(ms(t0));
            events += program.total_ops() as u64;
            totals.push(r.total_ns);
            exact_ns += r.total_ns;
        }
        self.last_events = events;
        self.last_wall_s = t_pass.elapsed().as_secs_f64();
        self.exact_simulated_ns = exact_ns;
        if self.reference_totals.is_empty() {
            self.reference_totals = totals;
        } else {
            let first = &self.reference_totals;
            for (i, t) in totals.iter().enumerate() {
                self.tally.check(first.get(i) == Some(t), || {
                    format!(
                        "sim run {i} of pass {pass}: total {t} ns vs {:?} in pass 0",
                        first.get(i)
                    )
                });
            }
        }
    }

    fn verify(&mut self) -> Tally {
        let mut tally = std::mem::take(&mut self.tally);
        tally.attempted += self.reference_totals.len() as u64;
        // The preserved heap engine is the reference on a sampled subset: one
        // synthetic program per core count.
        for program in self.synthetic.iter().step_by(SYNTH_KINDS.len()) {
            let machine = MachineParams::manycore(program.ncores());
            let ok = engine::run(program, &machine) == engine::run_reference(program, &machine);
            tally.check(ok, || {
                format!(
                    "engine differs from run_reference at {} cores",
                    program.ncores()
                )
            });
        }
        tally
    }
}

// ───────────────────────────── experiment service ─────────────────────────────

/// What the client saw of one request: when it sent it, when the `running`
/// event arrived, when the last event arrived, and (traced runs only) what
/// went over the wire.
pub struct Served {
    sent: Instant,
    running: Instant,
    done: Instant,
    pub frames: u64,
    pub bytes: u64,
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

impl Served {
    pub fn latency_ms(&self) -> f64 {
        ms_between(self.sent, self.done)
    }

    pub fn queued_to_running_ms(&self) -> f64 {
        ms_between(self.sent, self.running)
    }

    pub fn running_to_done_ms(&self) -> f64 {
        ms_between(self.running, self.done)
    }
}

pub struct Serve {
    pub plan: ServePlan,
    pub server: Server,
    clients: Vec<Client>,
    pub connect_ms: Vec<f64>,
    /// Requests of traced passes, for the wire rows.
    pub served: Vec<Served>,
    /// `Done` results of the hot set as first computed through the server.
    hot_results: Vec<Json>,
    /// Every 16th cold request with the result the server gave for it.
    cold_samples: Vec<(Request, Json)>,
    tally: Tally,
}

/// The context the server's jobs run against: `Test` class, four kernels, so
/// the experiment requests of the hot set stay milliseconds-sized.
pub fn serve_ctx() -> ExperimentCtx {
    ExperimentCtx {
        class: InputClass::Test,
        benchmarks: ["fft", "lu", "radix", "water-nsquared"]
            .iter()
            .map(|n| BenchmarkId::from_name(n).expect("registered"))
            .collect(),
        native_threads: vec![1, 2],
        ..ExperimentCtx::default()
    }
}

/// What came back for one request: the client-side timings and the terminal
/// event, or why the submission broke.
type Reply = Result<(Served, JobEvent), String>;

/// Submit `request` and time its streamed reply from the client's side. With
/// `wire`, also count the frames and bytes exchanged (by encoding them again,
/// which an untraced run should not spend its cores on).
fn submit_timed(client: &mut Client, request: &Request, wire: bool) -> Reply {
    let sent = Instant::now();
    let mut running = sent;
    let events = client.submit_with(request, |ev| {
        if matches!(ev, JobEvent::Running { .. }) {
            running = Instant::now();
        }
    })?;
    let done = Instant::now();
    let (mut frames, mut bytes) = (0, 0);
    if wire {
        let frame = json!({ "op": "submit", "request": request.to_json() });
        frames = events.len() as u64 + 1;
        bytes = frame.to_string().len() as u64 + 1;
        for ev in &events {
            bytes += ev.to_json().to_string().len() as u64 + 1;
        }
    }
    let last = events.last().cloned().ok_or("empty event stream")?;
    Ok((
        Served {
            sent,
            running,
            done,
            frames,
            bytes,
        },
        last,
    ))
}

impl Serve {
    /// Set-up starts the server, connects one client per closed-loop
    /// connection and computes the hot set through the server once.
    pub fn setup(plan: &ServePlan, clients: usize) -> Serve {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            service: ServiceConfig {
                workers: clients,
                cache_capacity: 64,
                queue_capacity: 256,
                default_timeout_ms: None,
                ctx: serve_ctx(),
            },
        })
        .expect("bind 127.0.0.1:0");
        let addr = server.local_addr().to_string();
        let mut connect_ms = Vec::new();
        let mut conns: Vec<Client> = (0..clients)
            .map(|_| {
                let t0 = Instant::now();
                let c = Client::connect_with_retry(&addr, 50).expect("connect to own server");
                connect_ms.push(ms(t0));
                c
            })
            .collect();
        let mut tally = Tally::default();
        let hot_results = plan
            .hot_set
            .iter()
            .map(|req| match submit_timed(&mut conns[0], req, false) {
                Ok((_, JobEvent::Done { result, .. })) => result,
                other => {
                    tally.check(false, || {
                        format!("prefill {}: {:?}", req.canonical(), other.err())
                    });
                    Json::Null
                }
            })
            .collect();
        // Warm-up for the miss path: one never-timed request of each size on
        // each connection (thread start, engine scratch, socket buffers).
        for (c, client) in conns.iter_mut().enumerate().take(plan.cold_per_pass) {
            for cores in [256, 1024] {
                let req = sim_request(cores, c, derive(plan.seed, (cores + c) as u64));
                let reply = submit_timed(client, &req, false);
                let done = matches!(reply, Ok((_, JobEvent::Done { .. })));
                tally.check(done, || format!("warm-up {} failed", req.canonical()));
            }
        }
        Serve {
            plan: plan.clone(),
            server,
            clients: conns,
            connect_ms,
            hot_results,
            cold_samples: Vec::new(),
            served: Vec::new(),
            tally,
        }
    }

    pub fn client(&mut self) -> &mut Client {
        &mut self.clients[0]
    }
}

impl Section for Serve {
    fn pass(&mut self, pass: u32, tracer: &Tracer, parent: u32, lat: &mut Latencies) {
        // The pass's requests: the cold ones first, then the hot draws.
        let mut requests: Vec<(Request, Option<usize>)> = (0..self.plan.cold_per_pass)
            .map(|i| (cold_request(self.plan.seed, pass, i), None))
            .collect();
        if !self.plan.hot_set.is_empty() {
            let draws = hot_draws(
                self.plan.seed,
                pass,
                self.plan.hot_set.len(),
                self.plan.hot_per_pass,
            );
            requests.extend(
                draws
                    .into_iter()
                    .map(|d| (self.plan.hot_set[d].clone(), Some(d))),
            );
        }
        let nclients = self.clients.len();
        let wire = tracer.enabled();
        let hot_results = &self.hot_results;
        let requests = &requests;
        // Closed loop: each connection sends its next request only after the
        // previous reply's last event arrived.
        let outcomes: Vec<Vec<(usize, Reply)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for (i, (req, _)) in requests.iter().enumerate().skip(c).step_by(nclients) {
                            let res = tracer.span(parent, "serve.submit", pass, |id| {
                                let res = submit_timed(client, req, wire);
                                if let Ok((s, _)) = &res {
                                    let (sent, running, done) = (s.sent, s.running, s.done);
                                    tracer.record(
                                        id,
                                        "serve.queued_to_running",
                                        pass,
                                        sent,
                                        running,
                                    );
                                    tracer.record(id, "serve.running_to_done", pass, running, done);
                                }
                                res
                            });
                            out.push((i, res));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for (i, res) in outcomes.into_iter().flatten() {
            let (req, hot) = &requests[i];
            match res {
                Ok((served, JobEvent::Done { cached, result, .. })) => {
                    lat.push(served.latency_ms());
                    if wire {
                        self.served.push(served);
                    }
                    let ok = match hot {
                        Some(d) => cached && same_result(req, &result, &hot_results[*d]),
                        None => !cached,
                    };
                    self.tally.check(ok, || {
                        format!(
                            "{}: cached={cached}, result differs from first reply",
                            req.canonical()
                        )
                    });
                    if hot.is_none() && i % 16 == 0 {
                        self.cold_samples.push((req.clone(), result));
                    }
                }
                Ok((_, other)) => self
                    .tally
                    .check(false, || format!("{}: {other:?}", req.canonical())),
                Err(e) => self
                    .tally
                    .check(false, || format!("{}: {e}", req.canonical())),
            }
        }
    }

    /// A direct `dispatch` of the same request against the server's own
    /// context must give the same result: for every hot request, and for
    /// the sampled cold ones.
    fn verify(&mut self) -> Tally {
        let mut tally = std::mem::take(&mut self.tally);
        let ctx = self.server.pool().ctx().clone();
        let hot = self
            .plan
            .hot_set
            .iter()
            .cloned()
            .zip(self.hot_results.iter().cloned());
        for (req, got) in hot.chain(std::mem::take(&mut self.cold_samples)) {
            let ok = match dispatch(&req, &ctx, &JobCtl::unlimited()) {
                Ok(direct) => same_result(&req, &got, &direct),
                Err(_) => false,
            };
            tally.check(ok, || {
                format!(
                    "{}: server result differs from direct dispatch",
                    req.canonical()
                )
            });
        }
        tally
    }
}

/// Bit-identical JSON for `sim` and `experiment` results; a `bench` result
/// carries a timing and a profile that legitimately differ between two runs,
/// so only what identifies the run is compared.
fn same_result(req: &Request, a: &Json, b: &Json) -> bool {
    match req.kind {
        RequestKind::Bench { .. } => ["type", "benchmark", "mode", "threads", "class"]
            .iter()
            .all(|k| a.get(k).is_some() && a.get(k) == b.get(k)),
        _ => a == b,
    }
}

// ───────────────────────────── model checker ─────────────────────────────

pub const FAMILIES: [&str; 5] = ["suite", "kernels", "reclaim", "combining", "weakmem"];

/// What the checker did for one family over the last pass.
#[derive(Default, Clone, Copy)]
pub struct FamilyLog {
    pub schedules: u64,
    pub executions: u64,
    pub shipped_wall_s: f64,
    pub mutants: u64,
    pub caught: u64,
}

pub struct Check {
    plan: CheckPlan,
    pub logs: [FamilyLog; 5],
    tally: Tally,
}

impl Check {
    /// Set-up is a warm-up: the quickest mutant suite once, so the first
    /// timed pass does not pay for the explorer's first thread spawns.
    pub fn setup(plan: &CheckPlan) -> Check {
        let check = Check {
            plan: plan.clone(),
            logs: Default::default(),
            tally: Tally::default(),
        };
        std::hint::black_box(check_mutants(&check.budget(plan.families[0].mutants)));
        check
    }

    // `min_schedules` is set past the cap so the execution cap always binds:
    // the work per construct is then the same for every seed.
    fn budget(&self, executions: usize) -> CheckBudget {
        CheckBudget {
            min_schedules: 1_000_000,
            max_executions: executions,
            seed: self.plan.seed,
        }
    }

    fn shipped(&mut self, f: usize, rows: Vec<ConstructReport>, wall_s: f64) {
        let log = &mut self.logs[f];
        log.shipped_wall_s = wall_s;
        log.schedules = rows.iter().map(|r| r.schedules as u64).sum();
        log.executions = rows.iter().map(|r| r.executions as u64).sum();
        for r in rows {
            self.tally.check(r.verdict == Verdict::Pass, || {
                format!("{}: {} — {}", r.construct, r.verdict, r.counterexample)
            });
        }
    }

    fn mutants(&mut self, f: usize, rows: Vec<(MutantReport, bool)>) {
        self.logs[f].mutants = rows.len() as u64;
        self.logs[f].caught = rows.iter().filter(|(r, ok)| r.detected && *ok).count() as u64;
        for (r, sc_missed) in rows {
            self.tally.check(r.detected && sc_missed, || {
                format!("mutant {} not caught ({})", r.name, r.counterexample)
            });
        }
    }
}

type Shipped = fn(&CheckBudget) -> Vec<ConstructReport>;
type Mutants = fn(&CheckBudget) -> Vec<(MutantReport, bool)>;

fn plain(rows: Vec<MutantReport>) -> Vec<(MutantReport, bool)> {
    rows.into_iter().map(|r| (r, true)).collect()
}

/// Per family: the shipped suite, its mutant suite (with "and plain SC
/// exploration missed it" where the suite checks that), and their span names.
const SUITES: [(Shipped, Mutants, &str, &str); 5] = [
    (
        check_suite,
        |b| plain(check_mutants(b)),
        "check.suite",
        "check.suite_mutants",
    ),
    (
        check_kernels,
        |b| plain(check_kernel_mutants(b)),
        "check.kernels",
        "check.kernel_mutants",
    ),
    (
        check_reclaim,
        |b| plain(check_reclaim_mutants(b)),
        "check.reclaim",
        "check.reclaim_mutants",
    ),
    (
        check_combining,
        |b| plain(check_combining_mutants(b)),
        "check.combining",
        "check.combining_mutants",
    ),
    (
        check_weakmem,
        |b| {
            check_weakmem_mutants(b)
                .into_iter()
                .map(|w| (w.report, w.sc_missed))
                .collect()
        },
        "check.weakmem",
        "check.weakmem_mutants",
    ),
];

impl Section for Check {
    fn pass(&mut self, pass: u32, tracer: &Tracer, parent: u32, lat: &mut Latencies) {
        for (f, (shipped, mutants, shipped_name, mutants_name)) in SUITES.into_iter().enumerate() {
            let budget = self.plan.families[f];
            let t0 = Instant::now();
            let rows = tracer.span(parent, shipped_name, pass, |_| {
                shipped(&self.budget(budget.shipped))
            });
            lat.push(ms(t0));
            self.shipped(f, rows, t0.elapsed().as_secs_f64());
            if budget.mutants > 0 && !budget.mutants_once {
                let t0 = Instant::now();
                let rows = tracer.span(parent, mutants_name, pass, |_| {
                    mutants(&self.budget(budget.mutants))
                });
                lat.push(ms(t0));
                self.mutants(f, rows);
            }
        }
    }

    fn verify(&mut self) -> Tally {
        for (f, (_, mutants, _, _)) in SUITES.into_iter().enumerate() {
            let budget = self.plan.families[f];
            if budget.mutants > 0 && budget.mutants_once {
                let rows = mutants(&self.budget(budget.mutants));
                self.mutants(f, rows);
            }
        }
        std::mem::take(&mut self.tally)
    }
}
