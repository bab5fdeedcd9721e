//! The metric tables `BENCHMARK.json` declares. A unit test holds the two
//! together: the names a run prints are exactly the names declared.

use crate::inputs::KERNELS;
use crate::sections::{FAMILIES, POOLS};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these: a *request* is one call into
/// the system's public entry point for that workload (README, "Requests").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "req_latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "req_latency_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

pub const MODE_LABELS: [&str; 3] = ["splash3", "splash4", "splash4x"];

/// (name, unit, better) of every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| v.push((name, unit, better));
    // parmacs
    for op in ["reduce_f64_ns", "getsub_ns", "barrier_ns", "queue_op_ns"] {
        for m in MODE_LABELS {
            add(format!("parmacs.{op}.{m}"), "ns", "lower");
        }
    }
    add("parmacs.lock_pair_ns.splash3".into(), "ns", "lower");
    add("parmacs.flag_ns.splash4".into(), "ns", "lower");
    add("parmacs.sync_wait_share.splash3".into(), "share", "lower");
    add("parmacs.sync_wait_share.splash4".into(), "share", "lower");
    add("parmacs.contended_share.splash3".into(), "share", "lower");
    add("parmacs.cas_retry_share.splash4".into(), "share", "lower");
    add("parmacs.explained_share".into(), "share", "higher");
    add("parmacs.sys_time_share".into(), "share", "lower");
    add("parmacs.json_encode_mb_per_s".into(), "MB/s", "higher");
    add("parmacs.json_parse_mb_per_s".into(), "MB/s", "higher");
    // reclaim
    for (pool, reclaiming) in POOLS {
        if reclaiming.is_some() {
            add(format!("reclaim.pool_pair_ns.{pool}"), "ns", "lower");
        }
    }
    add("reclaim.index_pool_pair_ns".into(), "ns", "lower");
    for kind in ["epoch", "hazard"] {
        add(format!("reclaim.freed_share.{kind}"), "share", "higher");
    }
    for kind in ["epoch", "hazard"] {
        add(format!("reclaim.scans_per_retire.{kind}"), "ratio", "lower");
    }
    add("reclaim.cmap_op_ns.short".into(), "ns", "lower");
    add("reclaim.cmap_op_ns.long".into(), "ns", "lower");
    add("reclaim.pool_ops_per_s".into(), "ops/s", "higher");
    // kernels
    for k in &KERNELS {
        for m in &MODE_LABELS[..2] {
            add(format!("kernels.roi_ms.{}.{m}", k.name), "ms", "lower");
        }
    }
    for m in MODE_LABELS {
        add(format!("kernels.roi_s.{m}"), "s", "lower");
    }
    add("kernels.norm_time_geomean".into(), "ratio", "lower");
    add("kernels.norm_time_geomean_4x".into(), "ratio", "lower");
    add("kernels.setup_share".into(), "share", "lower");
    add("kernels.roi_cv_max".into(), "ratio", "lower");
    // trace
    add("trace.attach_overhead_share".into(), "ratio", "lower");
    add("trace.dropped_share".into(), "share", "lower");
    add("trace.events_per_run".into(), "count", "lower");
    add("trace.lower_ns_per_event".into(), "ns", "lower");
    add("trace.encode_ns_per_event".into(), "ns", "lower");
    add("trace.decode_ns_per_event".into(), "ns", "lower");
    // sim
    add("sim.expand_ns_per_op".into(), "ns", "lower");
    add("sim.synth_program_ns_per_op".into(), "ns", "lower");
    add("sim.engine_ns_per_event.p64".into(), "ns", "lower");
    add("sim.engine_ns_per_event.p1024".into(), "ns", "lower");
    add("sim.reference_ns_per_event.p1024".into(), "ns", "lower");
    add("sim.memo_speedup".into(), "ratio", "higher");
    add("sim.events_total".into(), "count", "lower");
    add("sim.simulated_ns_total".into(), "ns", "lower");
    add("sim.norm_time_64.epyc".into(), "ratio", "lower");
    add("sim.norm_time_64.icelake".into(), "ratio", "lower");
    add("sim.mevents_per_s".into(), "Mevents/s", "higher");
    // harness
    add("harness.dispatch_ms.sim256".into(), "ms", "lower");
    add("harness.dispatch_ms.sim1024".into(), "ms", "lower");
    add("harness.pool_overhead_ms".into(), "ms", "lower");
    add("harness.cache_hit_us".into(), "us", "lower");
    add("harness.cache_hit_share".into(), "share", "higher");
    add("harness.cache_evictions".into(), "count", "lower");
    add("harness.model_calibrate_ms".into(), "ms", "lower");
    add("harness.report_nocheck_s".into(), "s", "lower");
    // serve
    add("serve.wire_overhead_ms".into(), "ms", "lower");
    add("serve.ping_rtt_us".into(), "us", "lower");
    add("serve.connect_ms".into(), "ms", "lower");
    add("serve.queued_to_running_ms".into(), "ms", "lower");
    add("serve.running_to_done_ms".into(), "ms", "lower");
    add("serve.bytes_per_request".into(), "count", "lower");
    add("serve.frames_per_request".into(), "count", "lower");
    // check
    for f in FAMILIES {
        add(format!("check.schedules_per_s.{f}"), "1/s", "higher");
    }
    add("check.schedules_per_s".into(), "1/s", "higher");
    add("check.executions_per_schedule".into(), "ratio", "lower");
    add("check.distinct_schedules_total".into(), "count", "higher");
    add("check.mutants_caught_share".into(), "share", "higher");
    add("check.sys_time_share".into(), "share", "lower");
    add("check.replay_steps_per_s".into(), "1/s", "higher");
    // the benchmark itself
    add("benchmark.span_overhead_share".into(), "ratio", "lower");
    v
}
