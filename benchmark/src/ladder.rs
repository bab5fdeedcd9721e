//! The traced run: every plan section under spans, then the layer ladder.
//!
//! The section a workload is about runs for a quarter of `--seconds`,
//! alternating untraced and traced passes (their ratio is the tracing
//! overhead); the other sections run probe-sized. The ladder then pushes the
//! same inputs through successively lower entry points — TCP submit, pool
//! submit, `dispatch`, `synthetic_program` + `engine::run`; kernel run,
//! primitive in isolation — so a level's own cost is its time minus the
//! level below. Every per-layer metric comes out of this one function.

use crate::host::{cpu_ticks, sys_share};
use crate::inputs::{
    derive, sim_request, Cell, Plan, Section as Part, KERNELS, SERVE_OPS_PER_CORE,
};
use crate::metrics::{per_layer, MODE_LABELS};
use crate::sections::{
    serve_ctx, Check, Churn, KernelLog, Latencies, Native, Section, Serve, Served, Sim, Tally,
    FAMILIES, MACHINES, MODES, POOLS,
};
use crate::span::{self, Tracer};
use crate::stats::{cv, geomean, median};
use crate::threads;
use splash4_check::{replay, treiber_scenario, Schedule};
use splash4_harness::{
    dispatch, drain_events, run_experiment, synthetic_program, ExperimentCtx, JobCtl, JobEvent,
    ResultCache, ALL_EXPERIMENTS,
};
use splash4_parmacs::{Json, SyncCounters, SyncEnv, SyncMode, SyncProfile, Team, TreiberSpec};
use splash4_sim::{engine, model, simulate, BarrierKind, MachineParams, Simulator};
use splash4_trace::{codec, lower::lower, RingRecorder, Trace};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

type Metrics = BTreeMap<String, f64>;

fn secs<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median wall seconds of three runs of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    median(&[secs(&mut f).0, secs(&mut f).0, secs(&mut f).0])
}

/// What running a section under the tracer produced.
struct Ran {
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
}

/// The workload's own section: untraced and traced passes in turn until
/// `budget` seconds are used (at least one of each). A probe section: `probe`
/// traced passes.
fn run_section(
    section: &mut dyn Section,
    tracer: &Tracer,
    main: bool,
    budget: f64,
    probe: usize,
) -> Ran {
    let mut ran = Ran {
        traced_walls: Vec::new(),
        untraced_walls: Vec::new(),
    };
    let mut lat = Latencies::new();
    let t0 = Instant::now();
    let mut pass = 0u32;
    let mut one = |traced: bool, lat: &mut Latencies| {
        tracer.set_enabled(traced);
        let (wall, ()) = secs(|| {
            tracer.span(0, "benchmark.pass", pass, |id| {
                section.pass(pass, tracer, id, lat)
            })
        });
        tracer.set_enabled(true);
        pass += 1;
        wall
    };
    if main {
        loop {
            // Whichever goes second finds warmer caches: take turns.
            if ran.traced_walls.len().is_multiple_of(2) {
                ran.untraced_walls.push(one(false, &mut lat));
                ran.traced_walls.push(one(true, &mut lat));
            } else {
                ran.traced_walls.push(one(true, &mut lat));
                ran.untraced_walls.push(one(false, &mut lat));
            }
            let mean = t0.elapsed().as_secs_f64() / ran.traced_walls.len() as f64;
            if t0.elapsed().as_secs_f64() + mean / 2.0 > budget {
                break;
            }
        }
    } else {
        for _ in 0..probe {
            ran.traced_walls.push(one(true, &mut lat));
        }
    }
    ran
}

fn med(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

// ───────────────────────────── kernels + parmacs ─────────────────────────────

/// Sum of one `SyncProfile` field over the cells' last runs in mode `m`.
fn profile_sum(logs: &[&KernelLog], m: usize, field: impl Fn(&SyncProfile) -> u64) -> f64 {
    logs.iter().map(|l| field(&l.modes[m].profile) as f64).sum()
}

fn kernel_metrics(native: &Native, agg: &[&KernelLog], threads: usize, m: &mut Metrics) {
    for (cell, log) in native.cells.iter().zip(&native.logs) {
        for (log, label) in log.modes.iter().zip(MODE_LABELS).take(2) {
            m.insert(
                format!("kernels.roi_ms.{}.{label}", cell.kernel.name),
                med(&log.roi_s) * 1e3,
            );
        }
    }
    let roi = |mode: usize| -> f64 { agg.iter().map(|l| med(&l.modes[mode].roi_s)).sum() };
    for (mode, label) in MODE_LABELS.iter().enumerate() {
        m.insert(format!("kernels.roi_s.{label}"), roi(mode));
    }
    let ratios = |mode: usize| -> Vec<f64> {
        agg.iter()
            .map(|l| med(&l.modes[mode].roi_s) / med(&l.modes[0].roi_s).max(1e-12))
            .collect()
    };
    m.insert("kernels.norm_time_geomean".into(), geomean(&ratios(1)));
    m.insert("kernels.norm_time_geomean_4x".into(), geomean(&ratios(2)));
    let wall: f64 = agg
        .iter()
        .flat_map(|l| l.modes.iter())
        .map(|c| med(&c.wall_s))
        .sum();
    m.insert(
        "kernels.setup_share".into(),
        1.0 - (roi(0) + roi(1) + roi(2)) / wall.max(1e-12),
    );
    let noisiest = agg
        .iter()
        .flat_map(|l| l.modes.iter())
        .map(|c| cv(&c.roi_s))
        .fold(0.0, f64::max);
    m.insert("kernels.roi_cv_max".into(), noisiest);
    for (mode, label) in MODE_LABELS.iter().enumerate().take(2) {
        let wait = profile_sum(agg, mode, |p| {
            p.lock_wait_ns + p.barrier_wait_ns + p.flag_wait_ns
        });
        m.insert(
            format!("parmacs.sync_wait_share.{label}"),
            wait / (threads as f64 * roi(mode) * 1e9).max(1.0),
        );
    }
    m.insert(
        "parmacs.contended_share.splash3".into(),
        profile_sum(agg, 0, |p| p.lock_contended)
            / profile_sum(agg, 0, |p| p.lock_acquires).max(1.0),
    );
    m.insert(
        "parmacs.cas_retry_share.splash4".into(),
        profile_sum(agg, 1, |p| p.cas_failures) / profile_sum(agg, 1, |p| p.atomic_rmws).max(1.0),
    );
}

fn per_op(m: &mut Metrics, key: String, secs: f64, ops: usize) {
    m.insert(key, secs * 1e9 / ops as f64);
}

/// Each primitive in isolation at `threads` contending threads, sized by the
/// op counts the workload's own kernels made; ns per op as one thread sees it.
fn primitive_metrics(agg: &[&KernelLog], threads: usize, m: &mut Metrics) {
    let per_thread = |field: fn(&SyncProfile) -> u64, cap: usize| -> usize {
        ((profile_sum(agg, 1, field) as usize) / threads).clamp(cap / 20, cap)
    };
    let n_reduce = per_thread(|p| p.reduce_ops, 40_000);
    let n_getsub = per_thread(|p| p.getsub_calls, 40_000);
    let n_barrier = per_thread(|p| p.barrier_waits, 2_000);
    let n_queue = per_thread(|p| p.queue_ops, 40_000);
    let team = Team::new(threads);
    for (mode, label) in MODES.into_iter().zip(MODE_LABELS) {
        let env = SyncEnv::new(mode, threads);
        let reducer = env.reducer_f64();
        let t = median_secs(|| {
            team.run(|_| {
                for i in 0..n_reduce {
                    reducer.add(i as f64);
                }
            })
        });
        per_op(m, format!("parmacs.reduce_f64_ns.{label}"), t, n_reduce);
        let counter = env.counter("ladder", 0..threads * n_getsub);
        let t = median_secs(|| {
            counter.reset();
            team.run(|_| while black_box(counter.next()).is_some() {});
        });
        per_op(m, format!("parmacs.getsub_ns.{label}"), t, n_getsub);
        let barrier = env.barrier();
        let t = median_secs(|| {
            team.run(|ctx| {
                for _ in 0..n_barrier {
                    barrier.wait(ctx.tid);
                }
            })
        });
        per_op(m, format!("parmacs.barrier_ns.{label}"), t, n_barrier);
        let queue = env.task_queue::<usize>();
        let t = median_secs(|| {
            team.run(|_| {
                for i in 0..n_queue / 2 {
                    queue.push(i);
                    black_box(queue.pop());
                }
            });
            while queue.pop().is_some() {}
        });
        per_op(
            m,
            format!("parmacs.queue_op_ns.{label}"),
            t,
            n_queue / 2 * 2,
        );
    }
    // As many lock pairs as the lock-free runs made atomic updates.
    let n_lock = per_thread(|p| p.atomic_rmws, 40_000);
    let lock = SyncEnv::new(SyncMode::LockBased, threads).lock();
    let t = median_secs(|| {
        team.run(|_| {
            for _ in 0..n_lock {
                lock.acquire();
                lock.release();
            }
        })
    });
    per_op(m, "parmacs.lock_pair_ns.splash3".to_string(), t, n_lock);
    // One hand-off per flag: the setter's store to the waiter's return.
    let rounds = per_thread(|p| p.flag_waits, 20_000);
    let env = SyncEnv::new(SyncMode::LockFree, 2);
    let (ping, pong) = (env.flag(), env.flag());
    let t = median_secs(|| {
        Team::new(2).run(|ctx| {
            for _ in 0..rounds {
                if ctx.tid == 0 {
                    ping.set();
                    pong.wait();
                    pong.clear();
                } else {
                    ping.wait();
                    ping.clear();
                    pong.set();
                }
            }
        })
    });
    per_op(m, "parmacs.flag_ns.splash4".to_string(), t, 2 * rounds);
    // Levels add up? Counts the kernels made × cost in isolation, splash3
    // minus splash4, per thread, against the ROI gap actually measured.
    let cost = |mode: usize| -> f64 {
        let label = MODE_LABELS[mode];
        let count = |f: fn(&SyncProfile) -> u64| profile_sum(agg, mode, f);
        let classes = count(|p| p.reduce_ops) * m[&format!("parmacs.reduce_f64_ns.{label}")]
            + count(|p| p.getsub_calls) * m[&format!("parmacs.getsub_ns.{label}")]
            + count(|p| p.barrier_waits) * m[&format!("parmacs.barrier_ns.{label}")]
            + count(|p| p.queue_ops) * m[&format!("parmacs.queue_op_ns.{label}")];
        let constructs = count(|p| p.reduce_ops + p.getsub_calls + p.queue_ops);
        // What is left are the fine-grained data updates: a lock pair each in
        // splash3, a CAS loop each (priced as the reduction's) in splash4.
        let data = if mode == 0 {
            (count(|p| p.lock_acquires) - constructs).max(0.0) * m["parmacs.lock_pair_ns.splash3"]
        } else {
            (count(|p| p.atomic_rmws) - constructs).max(0.0) * m["parmacs.reduce_f64_ns.splash4"]
        };
        (classes + data) / threads as f64
    };
    let gap_ns = (m["kernels.roi_s.splash3"] - m["kernels.roi_s.splash4"]) * 1e9;
    m.insert(
        "parmacs.explained_share".into(),
        if gap_ns.abs() < 1.0 {
            0.0
        } else {
            (cost(0) - cost(1)) / gap_ns
        },
    );
}

/// Run `cell` lock-free with a ring recorder attached, as `record_trace`
/// does, but on the cell's own seeded input.
fn traced_kernel_run(cell: &Cell, threads: usize) -> (f64, Trace) {
    let recorder = Arc::new(RingRecorder::new(cell.kernel.name, threads));
    let env = SyncEnv::new(SyncMode::LockFree, threads).with_trace(recorder.clone());
    let result = (cell.kernel.run)(cell.class, cell.seed, &env);
    drop(env);
    let trace = Arc::try_unwrap(recorder)
        .expect("kernel must not retain the trace sink")
        .finish();
    (result.elapsed.as_secs_f64(), trace)
}

fn trace_metrics(
    cells: &[Cell],
    logs: &[&KernelLog],
    threads: usize,
    tracer: &Tracer,
    m: &mut Metrics,
) {
    let machine = MachineParams::epyc_like();
    let (mut traced_roi, mut plain_roi) = (0.0, 0.0);
    let (mut events, mut dropped) = (0u64, 0u64);
    let (mut lower_s, mut encode_s, mut decode_s) = (0.0, 0.0, 0.0);
    tracer.span(0, "ladder.trace", 0, |rung| {
        for (cell, log) in cells.iter().zip(logs) {
            let (roi, trace) = tracer.span(rung, "trace.attached_run", 0, |_| {
                traced_kernel_run(cell, threads)
            });
            traced_roi += roi;
            plain_roi += med(&log.modes[1].roi_s);
            events += trace.len() as u64;
            dropped += trace.dropped();
            lower_s += tracer
                .span(rung, "trace.lower", 0, |_| {
                    secs(|| black_box(lower(&trace, SyncMode::LockFree.into(), 64, &machine)))
                })
                .0;
            let (t, bytes) =
                tracer.span(rung, "trace.encode", 0, |_| secs(|| codec::encode(&trace)));
            encode_s += t;
            decode_s += tracer
                .span(rung, "trace.decode", 0, |_| {
                    secs(|| black_box(codec::decode(&bytes).expect("own encoding decodes")))
                })
                .0;
        }
    });
    let per_event = |s: f64| s * 1e9 / events.max(1) as f64;
    m.insert(
        "trace.attach_overhead_share".into(),
        traced_roi / plain_roi.max(1e-12),
    );
    m.insert(
        "trace.dropped_share".into(),
        dropped as f64 / (events + dropped).max(1) as f64,
    );
    m.insert(
        "trace.events_per_run".into(),
        events as f64 / cells.len().max(1) as f64,
    );
    m.insert("trace.lower_ns_per_event".into(), per_event(lower_s));
    m.insert("trace.encode_ns_per_event".into(), per_event(encode_s));
    m.insert("trace.decode_ns_per_event".into(), per_event(decode_s));
}

// ───────────────────────────── reclaim ─────────────────────────────

fn reclaim_metrics(churn: &Churn, m: &mut Metrics) {
    let pairs = churn.plan.pool_pairs as f64;
    let mut rates = Vec::new();
    for (p, (name, reclaiming)) in POOLS.iter().enumerate() {
        let wall = med(&churn.pool_wall_s[p]);
        let key = if reclaiming.is_some() {
            rates.push(churn.threads as f64 * pairs / wall.max(1e-12));
            format!("reclaim.pool_pair_ns.{name}")
        } else {
            "reclaim.index_pool_pair_ns".to_string()
        };
        m.insert(key, wall * 1e9 / pairs);
    }
    m.insert("reclaim.pool_ops_per_s".into(), geomean(&rates));
    for (kind, pools) in [("epoch", [0, 1]), ("hazard", [2, 3])] {
        let stats: Vec<_> = pools.iter().filter_map(|&p| churn.pool_stats[p]).collect();
        let retires: f64 = stats.iter().map(|s| s.retires as f64).sum::<f64>().max(1.0);
        m.insert(
            format!("reclaim.freed_share.{kind}"),
            stats.iter().map(|s| s.frees as f64).sum::<f64>() / retires,
        );
        m.insert(
            format!("reclaim.scans_per_retire.{kind}"),
            stats.iter().map(|s| s.scans as f64).sum::<f64>() / retires,
        );
    }
    for (shape, log) in churn.plan.shapes.iter().zip(&churn.cmap_logs) {
        m.insert(
            format!("reclaim.cmap_op_ns.{}", shape.label),
            med(&log.modes[1].roi_s) * 1e9 * churn.threads as f64 / shape.cfg.ops as f64,
        );
    }
}

// ───────────────────────────── sim ─────────────────────────────

fn sim_metrics(sim: &Sim, tracer: &Tracer, m: &mut Metrics) {
    let machine = MachineParams::epyc_like();
    tracer.span(0, "ladder.sim", 0, |rung| {
        let (t, ops) = tracer.span(rung, "sim.expand", 0, |_| {
            secs(|| {
                sim.models
                    .iter()
                    .map(|w| model::expand(w, SyncMode::LockFree.into(), 64, &machine).total_ops())
                    .sum::<usize>()
            })
        });
        m.insert("sim.expand_ns_per_op".into(), t * 1e9 / ops.max(1) as f64);
        let seed = derive(sim.plan.seed, 0x77);
        let (t, p1024) = tracer.span(rung, "sim.synthetic_program", 0, |_| {
            secs(|| synthetic_program(1024, SERVE_OPS_PER_CORE, BarrierKind::Sense, seed))
        });
        m.insert(
            "sim.synth_program_ns_per_op".into(),
            t * 1e9 / p1024.total_ops() as f64,
        );
        // Same event count at both widths, so the two rows compare per event.
        let p64 = synthetic_program(64, SERVE_OPS_PER_CORE * 16, BarrierKind::Sense, seed);
        for (label, program) in [("p64", &p64), ("p1024", &p1024)] {
            let mc = MachineParams::manycore(program.ncores());
            let t = tracer.span(rung, "sim.engine_run", 0, |_| {
                median_secs(|| drop(black_box(engine::run(program, &mc))))
            });
            m.insert(
                format!("sim.engine_ns_per_event.{label}"),
                t * 1e9 / program.total_ops() as f64,
            );
        }
        let mc = MachineParams::manycore(1024);
        let t = tracer.span(rung, "sim.engine_run_reference", 0, |_| {
            secs(|| black_box(engine::run_reference(&p1024, &mc))).0
        });
        m.insert(
            "sim.reference_ns_per_event.p1024".into(),
            t * 1e9 / p1024.total_ops() as f64,
        );
        // The same sweep through the free function (a `Simulator` per call)
        // and through one warm `Simulator`.
        let models = &sim.models[..4];
        let sweep = |f: &mut dyn FnMut(&splash4_parmacs::WorkModel, SyncMode, usize)| {
            for w in models {
                for mode in MODES {
                    for &cores in &sim.plan.cores {
                        f(w, mode, cores);
                    }
                }
            }
        };
        let free = secs(|| {
            sweep(&mut |w, mode, cores| drop(black_box(simulate(w, mode, cores, &machine))))
        })
        .0;
        let mut warm = Simulator::new(machine);
        sweep(&mut |w, mode, cores| drop(warm.simulate(w, mode, cores)));
        let memo =
            secs(|| sweep(&mut |w, mode, cores| drop(black_box(warm.simulate(w, mode, cores))))).0;
        m.insert("sim.memo_speedup".into(), free / memo.max(1e-12));
    });
    let synthetic: u64 = sim.synthetic.iter().map(|p| p.total_ops() as u64).sum();
    m.insert(
        "sim.events_total".into(),
        (sim.sweep_events + synthetic) as f64,
    );
    m.insert(
        "sim.simulated_ns_total".into(),
        sim.exact_simulated_ns as f64,
    );
    for (i, (name, _)) in MACHINES.iter().enumerate() {
        m.insert(format!("sim.norm_time_64.{name}"), sim.norm_time_64[i]);
    }
    m.insert(
        "sim.mevents_per_s".into(),
        sim.last_events as f64 / sim.last_wall_s.max(1e-12) / 1e6,
    );
    m.insert(
        "harness.model_calibrate_ms".into(),
        sim.calibrate_s * 1e3 / KERNELS.len() as f64,
    );
}

// ───────────────────────────── harness + serve ─────────────────────────────

fn done_result(events: &[JobEvent]) -> Option<&Json> {
    match events.last() {
        Some(JobEvent::Done { result, .. }) => Some(result),
        _ => None,
    }
}

fn serve_metrics(serve: &mut Serve, tracer: &Tracer, tally: &mut Tally, m: &mut Metrics) {
    let seed = derive(serve.plan.seed, 0x99);
    let ctx = serve.server.pool().ctx().clone();
    // Never-seen requests, so each rung below misses the cache.
    let fresh = |cores: usize, i: usize| sim_request(cores, i, derive(seed, i as u64));
    tracer.span(0, "ladder.serve", 0, |rung| {
        // Cold rungs, same request shape at each: pool submit → dispatch.
        // (The TCP rung is the section's own cold requests.)
        let mut direct = [Vec::new(), Vec::new()];
        let mut pooled = Vec::new();
        for i in 0..10 {
            let req = fresh([256, 1024][i % 2], i);
            let (t, r) = tracer.span(rung, "harness.dispatch", 0, |_| {
                secs(|| dispatch(&req, &ctx, &JobCtl::unlimited()))
            });
            tally.check(r.is_ok(), || {
                format!("direct dispatch of {} failed", req.canonical())
            });
            direct[i % 2].push(t * 1e3);
        }
        for i in 10..15 {
            let req = fresh(1024, i);
            let (t, events) = tracer.span(rung, "harness.pool_submit", 0, |_| {
                secs(|| {
                    serve
                        .server
                        .pool()
                        .submit(req.clone())
                        .map(|(_, rx)| drain_events(&rx))
                })
            });
            tally.check(events.is_ok_and(|e| done_result(&e).is_some()), || {
                format!("pool submit of {} failed", req.canonical())
            });
            pooled.push(t * 1e3);
        }
        m.insert("harness.dispatch_ms.sim256".into(), med(&direct[0]));
        m.insert("harness.dispatch_ms.sim1024".into(), med(&direct[1]));
        m.insert(
            "harness.pool_overhead_ms".into(),
            med(&pooled) - med(&direct[1]),
        );
        // Hot rungs on one request that is in the cache: TCP → pool → cache.
        let hot = serve
            .plan
            .hot_set
            .first()
            .cloned()
            .unwrap_or_else(|| fresh(256, 40));
        let first = serve.client().submit(&hot);
        let doc = first
            .as_ref()
            .ok()
            .and_then(|e| done_result(e))
            .cloned()
            .unwrap_or(Json::Null);
        tally.check(!doc.is_null(), || {
            format!("hot rung request {} failed", hot.canonical())
        });
        let (mut tcp, mut pool) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            tcp.push(
                tracer.span(rung, "serve.submit", 0, |_| {
                    secs(|| serve.client().submit(&hot)).0
                }) * 1e3,
            );
            pool.push(
                tracer.span(rung, "harness.pool_submit", 0, |_| {
                    secs(|| {
                        serve
                            .server
                            .pool()
                            .submit(hot.clone())
                            .map(|(_, rx)| drain_events(&rx))
                    })
                    .0
                }) * 1e3,
            );
        }
        m.insert("serve.wire_overhead_ms".into(), med(&tcp) - med(&pool));
        let cache: ResultCache<Json> = ResultCache::new(64, Arc::new(SyncCounters::new()));
        cache.get_or_compute(1, || doc.clone());
        let hits = 20_000;
        let t = tracer.span(rung, "harness.cache_get", 0, |_| {
            secs(|| {
                for _ in 0..hits {
                    black_box(cache.get_or_compute(1, || unreachable!("key 1 is cached")));
                }
            })
            .0
        });
        m.insert("harness.cache_hit_us".into(), t * 1e6 / hits as f64);
        let pings: Vec<f64> = (0..200)
            .map(|_| secs(|| serve.client().ping()).0 * 1e6)
            .collect();
        m.insert("serve.ping_rtt_us".into(), med(&pings));
        // parmacs::json on the document every sim request carries.
        let text = doc.to_string();
        let reps = (2_000_000 / text.len().max(1)).max(1);
        let t = tracer.span(rung, "parmacs.json_encode", 0, |_| {
            secs(|| {
                for _ in 0..reps {
                    black_box(doc.to_string());
                }
            })
            .0
        });
        m.insert(
            "parmacs.json_encode_mb_per_s".into(),
            (reps * text.len()) as f64 / 1e6 / t.max(1e-12),
        );
        let t = tracer.span(rung, "parmacs.json_parse", 0, |_| {
            secs(|| {
                for _ in 0..reps {
                    black_box(Json::parse(&text).expect("own encoding parses"));
                }
            })
            .0
        });
        m.insert(
            "parmacs.json_parse_mb_per_s".into(),
            (reps * text.len()) as f64 / 1e6 / t.max(1e-12),
        );
    });
}

/// Counters of the section's own traffic, read before the ladder adds its own.
fn serve_section_metrics(serve: &mut Serve, tally: &mut Tally, m: &mut Metrics) {
    let stats = serve.client().stats();
    tally.check(stats.is_ok(), || "stats op failed".to_string());
    let stat = |k: &str| {
        stats
            .as_ref()
            .ok()
            .and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    m.insert(
        "harness.cache_hit_share".into(),
        stat("cache_hits") / (stat("cache_hits") + stat("cache_misses")).max(1.0),
    );
    m.insert("harness.cache_evictions".into(), stat("cache_evictions"));
    m.insert("serve.connect_ms".into(), med(&serve.connect_ms));
    let col = |f: fn(&Served) -> f64| -> Vec<f64> { serve.served.iter().map(f).collect() };
    m.insert(
        "serve.queued_to_running_ms".into(),
        med(&col(Served::queued_to_running_ms)),
    );
    m.insert(
        "serve.running_to_done_ms".into(),
        med(&col(Served::running_to_done_ms)),
    );
    let n = serve.served.len().max(1) as f64;
    m.insert(
        "serve.bytes_per_request".into(),
        col(|s| s.bytes as f64).iter().sum::<f64>() / n,
    );
    m.insert(
        "serve.frames_per_request".into(),
        col(|s| s.frames as f64).iter().sum::<f64>() / n,
    );
}

/// The thirteen experiments that are not model-checker runs, against a fresh
/// context (so every model is calibrated again): a report regeneration
/// without the part `check-verdict` already measures.
fn report_metric(tracer: &Tracer, tally: &mut Tally, m: &mut Metrics) {
    let ctx = ExperimentCtx {
        models: Default::default(),
        ..serve_ctx()
    };
    let t = tracer.span(0, "harness.report_nocheck", 0, |_| {
        secs(|| {
            for id in ALL_EXPERIMENTS {
                let checker = ["V1-", "V2-", "C1-", "R1-", "W1-"]
                    .iter()
                    .any(|p| id.starts_with(p));
                if !checker {
                    let r = run_experiment(id, &ctx);
                    tally.check(r.is_ok(), || format!("experiment {id} failed"));
                }
            }
        })
        .0
    });
    m.insert("harness.report_nocheck_s".into(), t);
}

// ───────────────────────────── check ─────────────────────────────

fn check_metrics(check: &Check, pass_wall_s: f64, sys: f64, tracer: &Tracer, m: &mut Metrics) {
    let total = |f: fn(&crate::sections::FamilyLog) -> u64| -> f64 {
        check.logs.iter().map(|l| f(l) as f64).sum()
    };
    for (name, log) in FAMILIES.iter().zip(&check.logs) {
        m.insert(
            format!("check.schedules_per_s.{name}"),
            log.schedules as f64 / log.shipped_wall_s.max(1e-12),
        );
    }
    m.insert(
        "check.schedules_per_s".into(),
        total(|l| l.schedules) / pass_wall_s.max(1e-12),
    );
    m.insert(
        "check.executions_per_schedule".into(),
        total(|l| l.executions) / total(|l| l.schedules).max(1.0),
    );
    m.insert(
        "check.distinct_schedules_total".into(),
        total(|l| l.schedules),
    );
    m.insert(
        "check.mutants_caught_share".into(),
        total(|l| l.caught) / total(|l| l.mutants).max(1.0),
    );
    m.insert("check.sys_time_share".into(), sys);
    let scenario = treiber_scenario(TreiberSpec::SPLASH4);
    let (t, steps) = tracer.span(0, "check.replay", 0, |_| {
        secs(|| {
            (0..200)
                .map(|_| replay(&scenario, &Schedule(Vec::new()), 20_000).steps)
                .sum::<u64>()
        })
    });
    m.insert(
        "check.replay_steps_per_s".into(),
        steps as f64 / t.max(1e-12),
    );
}

// ───────────────────────────── the traced run ─────────────────────────────

fn trace_path(workload: &str) -> PathBuf {
    let dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(dir)
        .join("out")
        .join(format!("{workload}.trace.json"))
}

pub fn run_traced(
    workload: &str,
    plan: &Plan,
    seconds: f64,
) -> (Tally, Vec<(String, f64, &'static str, String)>) {
    let tracer = Tracer::new(true);
    let threads = threads();
    let budget = seconds / 4.0;
    let mut m = Metrics::new();
    let mut tally = Tally::default();
    let mut overhead = 0.0;
    let mut note_overhead = |main: bool, ran: &Ran| {
        if main {
            overhead = ran.traced_walls.iter().sum::<f64>()
                / ran.untraced_walls.iter().sum::<f64>().max(1e-12)
                - 1.0;
        }
    };

    let is_main = |part: Part| plan.main == part;

    // kernels, and parmacs under them
    let mut native = Native::setup(&plan.native, true, threads);
    let cpu0 = cpu_ticks();
    let ran = run_section(&mut native, &tracer, is_main(Part::Native), budget, 2);
    m.insert(
        "parmacs.sys_time_share".into(),
        sys_share(cpu0, cpu_ticks()),
    );
    note_overhead(is_main(Part::Native), &ran);
    tally.absorb(native.verify());

    // reclaim
    let mut churn = Churn::setup(&plan.churn, threads);
    let ran = run_section(&mut churn, &tracer, is_main(Part::Churn), budget, 2);
    note_overhead(is_main(Part::Churn), &ran);
    tally.absorb(churn.verify());
    reclaim_metrics(&churn, &mut m);

    // The kernel runs the aggregate rows are about: the workload's own (its
    // native cells, or its cmap shapes), else every probe cell.
    let own = match native.main_cells {
        0 => native.cells.len(),
        n => n,
    };
    let native_own: Vec<&KernelLog> = native.logs[..own].iter().collect();
    let agg: Vec<&KernelLog> = if is_main(Part::Churn) {
        churn.cmap_logs.iter().collect()
    } else {
        native_own.clone()
    };
    kernel_metrics(&native, &agg, threads, &mut m);
    tracer.span(0, "ladder.parmacs", 0, |_| {
        primitive_metrics(&agg, threads, &mut m)
    });
    trace_metrics(&native.cells[..own], &native_own, threads, &tracer, &mut m);

    // sim + trace lowering
    let mut sim = tracer.span(0, "benchmark.sim_setup", 0, |_| {
        Sim::setup(&plan.sim, threads)
    });
    let ran = run_section(&mut sim, &tracer, is_main(Part::Sim), budget, 2);
    note_overhead(is_main(Part::Sim), &ran);
    tally.absorb(sim.verify());
    sim_metrics(&sim, &tracer, &mut m);

    // harness + serve
    let mut serve = tracer.span(0, "benchmark.serve_setup", 0, |_| {
        Serve::setup(&plan.serve, threads)
    });
    let ran = run_section(&mut serve, &tracer, is_main(Part::Serve), budget, 1);
    note_overhead(is_main(Part::Serve), &ran);
    serve_section_metrics(&mut serve, &mut tally, &mut m);
    tally.absorb(serve.verify());
    serve_metrics(&mut serve, &tracer, &mut tally, &mut m);
    drop(serve);
    report_metric(&tracer, &mut tally, &mut m);

    // check
    let mut check = Check::setup(&plan.check);
    let cpu0 = cpu_ticks();
    let ran = run_section(&mut check, &tracer, is_main(Part::Check), budget, 1);
    let sys = sys_share(cpu0, cpu_ticks());
    note_overhead(is_main(Part::Check), &ran);
    tally.absorb(check.verify());
    check_metrics(&check, med(&ran.traced_walls), sys, &tracer, &mut m);

    m.insert("benchmark.span_overhead_share".into(), overhead);

    let spans = tracer.snapshot();
    let path = trace_path(workload);
    let written = std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
        .and_then(|()| std::fs::write(&path, span::to_json(workload, &spans)));
    tally.check(written.is_ok(), || {
        format!("cannot write {}: {:?}", path.display(), written)
    });
    println!("# {} spans written to {}", spans.len(), path.display());
    println!(
        "# {:<30} {:>8} {:>14} {:>14}",
        "span (layer.fn)", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in span::totals_by_name(&spans) {
        println!(
            "# {name:<30} {count:>8} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    println!(
        "# ladder, cold sim request at 1024 cores: dispatch {:.3} ms = synthetic_program {:.3} + engine {:.3} + rest; pool adds {:.3} ms",
        m["harness.dispatch_ms.sim1024"],
        m["sim.synth_program_ns_per_op"] * 1024.0 * SERVE_OPS_PER_CORE as f64 / 1e6,
        m["sim.engine_ns_per_event.p1024"] * 1024.0 * SERVE_OPS_PER_CORE as f64 / 1e6,
        m["harness.pool_overhead_ms"],
    );
    println!(
        "# ladder, cached request: wire adds {:.3} ms over the pool; cache lookup {:.3} us; ping {:.1} us",
        m["serve.wire_overhead_ms"], m["harness.cache_hit_us"], m["serve.ping_rtt_us"],
    );
    let rows = per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = *m
                .get(&name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, value, unit, String::new())
        })
        .collect();
    (tally, rows)
}
