//! The per-layer vocabulary: span names, the metric each span's self
//! time feeds, the counters recorded beside them, and the ratios
//! derived from both. `BENCHMARK.json` lists exactly the metrics named
//! here (pinned by a unit test in `manifest`).

use std::collections::BTreeMap;

/// Root span of one pass.
pub const PASS: &str = "pass";
/// Section spans of `degraded_mix`'s layered pass: one per feature's
/// sub-grid, so a trace shows what share of the pass each holds.
pub const SECTION_NETCOND: &str = "bench.robustness";
/// See [`SECTION_NETCOND`].
pub const SECTION_TRAFFIC: &str = "bench.interference";
/// See [`SECTION_NETCOND`].
pub const SECTION_SAF: &str = "bench.switching";
/// See [`SECTION_NETCOND`].
pub const SECTION_TRACE: &str = "bench.trace";
/// Spans whose self time is the driver's own glue (`bench.driver_s`).
pub const GLUE: [&str; 5] = [PASS, SECTION_NETCOND, SECTION_TRAFFIC, SECTION_SAF, SECTION_TRACE];
/// `mce_core::builder::build_multiphase_programs`.
pub const BUILDER: &str = "core.builder";
/// `mce_core::verify::stamped_memories`.
pub const STAMP: &str = "core.verify.stamp";
/// `mce_core::verify::verify_complete_exchange`.
pub const CHECK: &str = "core.verify.check";
/// Synthesized child of every engine-run span, from
/// `SimStats::compile_ns`.
pub const COMPILE: &str = "simnet.compile";
/// Engine run on the plain circuit path (jitter allowed).
pub const ENGINE: &str = "simnet.engine";
/// Engine run under store-and-forward switching.
pub const SAF: &str = "simnet.saf";
/// Engine run that requested shards.
pub const SHARD: &str = "simnet.shard";
/// Engine run under a non-trivial `NetCondition`, single tenant.
pub const NETCOND: &str = "simnet.netcond";
/// Engine run with tenant jobs (`mce_simnet::traffic`).
pub const TRAFFIC: &str = "simnet.traffic";
/// Traced capture plus its in-memory Perfetto export.
pub const TRACE: &str = "simnet.trace";
/// `mce_simnet::batch::agg`.
pub const AGG: &str = "simnet.batch.agg";
/// `mce_simnet::conformance::condition_summary`.
pub const SUMMARY: &str = "simnet.conformance.summary";
/// Hull and best-partition searches of `mce_model` made by a replay.
pub const MODEL: &str = "model.hull";
/// `mce_simnet::conformance::predicted_us_with` / `multiphase_time`.
pub const PREDICT: &str = "model.multiphase";
/// Warm `PlanEngine::answer` stream grouped by condition.
pub const PLAN_MEMO: &str = "plan.engine.memo";
/// Warm `PlanEngine::answer` stream in shuffled order.
pub const PLAN_SHUFFLED: &str = "plan.engine.shuffled";
/// One `PlanEngine::answer` that misses the hull cache.
pub const PLAN_MISS: &str = "plan.engine.miss";
/// One `PlanEngine::answer` served by the simulator fallback.
pub const PLAN_FALLBACK: &str = "plan.fallback";

/// Every span name that stands for an engine run.
pub const ENGINE_FLAVOURS: [&str; 6] = [ENGINE, SAF, SHARD, NETCOND, TRAFFIC, TRACE];

/// `(metric, span)`: the metric is the span's self time per pass in
/// seconds, median over the traced passes.
pub const SELF_TIME_S: &[(&str, &str)] = &[
    ("core.builder.build_s", BUILDER),
    ("core.verify.stamp_s", STAMP),
    ("core.verify.check_s", CHECK),
    ("simnet.compile.cold_s", COMPILE),
    ("simnet.engine.run_s", ENGINE),
    ("simnet.engine.saf_run_s", SAF),
    ("simnet.shard.run_s", SHARD),
    ("simnet.netcond.run_s", NETCOND),
    ("simnet.traffic.run_s", TRAFFIC),
    ("simnet.trace.run_s", TRACE),
    ("simnet.batch.agg_s", AGG),
    ("simnet.conformance.summary_s", SUMMARY),
    ("model.hull.search_s", MODEL),
    ("model.multiphase.predict_s", PREDICT),
    ("plan.engine.miss_s", PLAN_MISS),
    ("plan.fallback.simulate_s", PLAN_FALLBACK),
];

/// Counters a traced pass records under the metric's own name. They
/// repeat exactly for a fixed seed; the harness fails a run whose
/// passes disagree on any of them.
pub const COUNTERS: &[&str] = &[
    "core.builder.ops",
    "core.verify.bytes",
    "simnet.compile.ops",
    "simnet.compile.misses",
    "simnet.compile.local_hits",
    "simnet.compile.shared_hits",
    "simnet.engine.events",
    "simnet.engine.bytes_moved",
    "simnet.engine.link_crossings",
    "simnet.engine.edge_contention_events",
    "simnet.engine.nic_serialization_events",
    "simnet.engine.simulated_us",
    "simnet.sched.peak_pending",
    "simnet.sched.bucket_resizes",
    "simnet.sched.overflow_spills",
    "simnet.shard.windows",
    "simnet.shard.barrier_stalls",
    "simnet.shard.cross_events",
    "simnet.shard.peak_pending",
    "simnet.batch.runs",
    "simnet.batch.failures",
    "simnet.batch.result_bytes",
    "simnet.netcond.background_tx",
    "simnet.netcond.unroutable",
    "simnet.traffic.retransmissions",
    "simnet.traffic.flow_drops",
    "simnet.trace.events",
    "simnet.trace.dropped",
    "plan.cache.hits",
    "plan.cache.misses",
    "plan.cache.evictions",
    "plan.fallback.count",
    "plan.fallback.errors",
];

/// Pass counters that only feed a ratio and are not reported.
pub const NETCOND_EVENTS: &str = "_netcond.events";
/// Queries answered by the grouped warm stream.
pub const MEMO_QUERIES: &str = "_plan.memo.queries";
/// Queries answered by the shuffled warm stream.
pub const SHUFFLED_QUERIES: &str = "_plan.shuffled.queries";

/// Metrics measured by a workload's probes (replays outside the pass
/// of layers that cannot be told apart by wrapping public calls) or by
/// the harness itself.
pub const PROBED: &[&str] = &[
    "simnet.sched.push_pop_ns",
    "simnet.link.hold_ns",
    "simnet.shard.seq_run_s",
    "simnet.trace.on_over_off",
    "simnet.conformance.scenario_s",
    "model.multiphase.eval_ns",
    "model.hull.build_s",
    "model.conditioned.best_ns",
    "model.conditioned.fingerprint_ns",
    "partitions.enumerate_ns",
    "plan.cache.get_ns",
    "plan.hull.face_ns",
    "plan.hull.build_us",
    "plan.engine.batch_build_ms",
    "plan.engine.miss_p50_us",
    "plan.engine.miss_p99_us",
    "plan.fallback.p50_ms",
    "model.err_max",
    "bench.figures.regen_s",
    "bench.robustness.study_s",
    "bench.interference.study_s",
    "simnet.batch.run_s",
    "simnet.batch.parallel_eff",
    "bench.driver_s",
    "bench.work_per_s",
    "trace.wall_s",
    "trace.overhead_frac",
    "trace.self_sum_frac",
];

/// Ratios [`derive`] computes from the metrics above.
pub const DERIVED: &[&str] = &[
    "simnet.compile.ns_per_op",
    "simnet.compile.hit_ratio",
    "simnet.engine.ns_per_event",
    "simnet.netcond.ns_per_event",
    "simnet.sched.est_share",
    "simnet.link.est_share",
    "simnet.shard.speedup",
    "plan.cache.hit_ratio",
    "plan.engine.memo_qps",
    "plan.engine.shuffled_qps",
];

/// Scheduler operations per simulated transmission assumed by
/// `simnet.sched.est_share`: one completion event and one wake-up.
/// The engine does not export the real count, so the share is labelled
/// as computed.
const SCHED_OPS_PER_EVENT: f64 = 2.0;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fill in the [`DERIVED`] ratios. `self_s` maps span names to their
/// median self time per pass in seconds; `m` holds every other metric
/// and receives the ratios. A ratio whose base is absent on this
/// workload reads 0.
pub fn derive(self_s: &BTreeMap<&'static str, f64>, m: &mut BTreeMap<String, f64>) {
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let span_s = |k: &str| self_s.get(k).copied().unwrap_or(0.0);
    let engine_s: f64 = ENGINE_FLAVOURS.iter().map(|f| span_s(f)).sum();
    let events = get(m, "simnet.engine.events");
    let hits = get(m, "simnet.compile.local_hits") + get(m, "simnet.compile.shared_hits");
    let plan_hits = get(m, "plan.cache.hits");

    let derived = [
        ("simnet.compile.ns_per_op", ratio(span_s(COMPILE) * 1e9, get(m, "simnet.compile.ops"))),
        ("simnet.compile.hit_ratio", ratio(hits, hits + get(m, "simnet.compile.misses"))),
        ("simnet.engine.ns_per_event", ratio(engine_s * 1e9, events)),
        ("simnet.netcond.ns_per_event", ratio(span_s(NETCOND) * 1e9, get(m, NETCOND_EVENTS))),
        (
            "simnet.sched.est_share",
            ratio(
                get(m, "simnet.sched.push_pop_ns") * SCHED_OPS_PER_EVENT * events,
                engine_s * 1e9,
            ),
        ),
        ("simnet.link.est_share", ratio(get(m, "simnet.link.hold_ns") * events, engine_s * 1e9)),
        ("simnet.shard.speedup", ratio(get(m, "simnet.shard.seq_run_s"), span_s(SHARD))),
        ("plan.cache.hit_ratio", ratio(plan_hits, plan_hits + get(m, "plan.cache.misses"))),
        ("plan.engine.memo_qps", ratio(get(m, MEMO_QUERIES), span_s(PLAN_MEMO))),
        ("plan.engine.shuffled_qps", ratio(get(m, SHUFFLED_QUERIES), span_s(PLAN_SHUFFLED))),
    ];
    for (name, value) in derived {
        m.insert(name.to_string(), value);
    }
}

/// Every per-layer metric name this harness can produce.
pub fn all_metrics() -> Vec<&'static str> {
    SELF_TIME_S
        .iter()
        .map(|(metric, _)| *metric)
        .chain(COUNTERS.iter().copied())
        .chain(PROBED.iter().copied())
        .chain(DERIVED.iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios_read_zero_without_a_base_and_divide_with_one() {
        let mut m = BTreeMap::new();
        derive(&BTreeMap::new(), &mut m);
        assert!(DERIVED.iter().all(|d| m[*d] == 0.0), "{m:?}");

        let self_s = BTreeMap::from([(ENGINE, 2.0), (NETCOND, 1.0), (COMPILE, 0.5)]);
        let mut m: BTreeMap<String, f64> = [
            ("simnet.engine.events", 1000.0),
            (NETCOND_EVENTS, 250.0),
            ("simnet.compile.ops", 100.0),
            ("simnet.compile.misses", 1.0),
            ("simnet.compile.local_hits", 3.0),
            ("simnet.link.hold_ns", 30.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        derive(&self_s, &mut m);
        assert_eq!(m["simnet.engine.ns_per_event"], 3.0e6);
        assert_eq!(m["simnet.netcond.ns_per_event"], 4.0e6);
        assert_eq!(m["simnet.compile.ns_per_op"], 5.0e6);
        assert_eq!(m["simnet.compile.hit_ratio"], 0.75);
        assert_eq!(m["simnet.link.est_share"], 1.0e-5);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names = all_metrics();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
