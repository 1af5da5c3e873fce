//! Scenario trace capture: run a named workload with the structured
//! trace sink enabled (see `mce_simnet::trace`) and export the
//! captured events as offline-viewable artifacts under
//! `target/repro/`:
//!
//! * `trace_<scenario>_d<d>.perfetto.json` — Chrome/Perfetto
//!   trace-event JSON, loadable in `ui.perfetto.dev` (or
//!   `chrome://tracing`) with one track per directed link, NIC side,
//!   node and job;
//! * `trace_<scenario>_d<d>.html` — a self-contained single-file SVG
//!   timeline (no scripts, no network) for quick looks without any
//!   external viewer;
//! * `trace_<scenario>_d<d>_summary.json` — derived inspector
//!   summaries: the per-dimension link-utilization timeline, the
//!   top-k longest stalls with their causes, and the greedy
//!   critical-path chain.
//!
//! Scenarios (`repro trace <scenario> [d]`):
//!
//! * `hotspot` — a complete exchange contending with phase-staggered
//!   background hotspot streams (`conformance::hotspot_condition`),
//!   the contention showcase: link tracks show circuits queueing
//!   behind the hotspot's holds, node tracks show the waits.
//! * `interference` — the E16-style shared-cube cell: a blocking
//!   study tenant and a staggered co-tenant under a lossy link policy
//!   with go-back-n flow control, so job tracks carry drop / backoff /
//!   retransmit / cwnd instants.
//! * `sharded` — a multiphase workload *requesting* subcube shards;
//!   tracing pins the sequential path (`shard::eligible` gates on the
//!   sink), so the capture documents the window-eligible workload as
//!   one globally ordered timeline and the summary records
//!   `shard_windows = 0`.

use crate::output_dir;
use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_simnet::batch::RunSpec;
use mce_simnet::conformance::hotspot_condition;
use mce_simnet::trace::{critical_path, export_html, export_perfetto_json};
use mce_simnet::trace::{link_utilization, top_stalls};
use mce_simnet::traffic::{compose_memories, compose_programs};
use mce_simnet::{
    CwndAlg, FlowCtl, JobSpec, LinkPolicy, NetCondition, Program, SimArena, SimConfig, SimError,
    SimResult, TraceConfig,
};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// The scenario names `capture` understands, in presentation order.
pub const SCENARIOS: [&str; 3] = ["hotspot", "interference", "sharded"];

/// Default cube dimension per scenario (small enough that the HTML
/// lane view stays readable; pass an explicit `d` to scale up).
pub fn default_dimension(scenario: &str) -> u32 {
    match scenario {
        "hotspot" => 4,
        "interference" => 4,
        "sharded" => 6,
        other => panic!("unknown trace scenario {other:?} (try {SCENARIOS:?})"),
    }
}

/// One captured scenario: where the artifacts landed plus the headline
/// numbers the CLI prints.
#[derive(Debug)]
pub struct TraceCapture {
    /// Scenario name.
    pub scenario: String,
    /// Cube dimension.
    pub d: u32,
    /// Simulated finish time, µs.
    pub finish_us: f64,
    /// Events captured in the ring.
    pub events: usize,
    /// Events evicted from the ring (0 unless the capacity was hit).
    pub events_dropped: u64,
    /// Shard windows executed (always 0: tracing forces sequential).
    pub shard_windows: u64,
    /// Artifact paths, in `[perfetto, html, summary]` order.
    pub files: Vec<PathBuf>,
}

/// Inspector summaries serialized as the `_summary.json` sidecar.
#[derive(Debug, Serialize)]
struct TraceSummary {
    scenario: String,
    d: u32,
    finish_us: f64,
    events: usize,
    events_dropped: u64,
    shard_windows: u64,
    /// Per-dimension link-utilization timeline: each bucket holds the
    /// busy fraction of every dimension's directed-link capacity.
    link_utilization: Vec<UtilizationRow>,
    /// Longest wait spans, longest first.
    top_stalls: Vec<StallRow>,
    /// Greedy backward critical-path chain, chronological.
    critical_path: Vec<SpanRow>,
}

#[derive(Debug, Serialize)]
struct UtilizationRow {
    start_us: f64,
    end_us: f64,
    /// Busy fraction per dimension (index = dimension).
    busy_frac: Vec<f64>,
}

#[derive(Debug, Serialize)]
struct StallRow {
    node: u32,
    cause: String,
    start_us: f64,
    duration_us: f64,
}

#[derive(Debug, Serialize)]
struct SpanRow {
    label: String,
    start_us: f64,
    end_us: f64,
}

/// A partition of `d` into phase dimensions, 3s then the remainder —
/// shaped like the multiphase plans the figure sweeps favour.
fn default_partition(d: u32) -> Vec<u32> {
    let mut parts = Vec::new();
    let mut rem = d;
    while rem > 4 {
        parts.push(3);
        rem -= 3;
    }
    parts.push(rem);
    parts
}

/// Build the (config, programs, memories) of one named scenario.
fn scenario_spec(scenario: &str, d: u32) -> (SimConfig, Vec<Program>, Vec<Vec<u8>>) {
    match scenario {
        // Complete exchange in one full-mask phase against 4
        // phase-staggered background hotspot streams: maximal visible
        // contention per captured event.
        "hotspot" => {
            let m = 40usize;
            (
                SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 4)),
                build_multiphase_programs(d, &[d], m),
                stamped_memories(d, m),
            )
        }
        // E16-style interference cell: blocking study tenant plus a
        // staggered reactive co-tenant over a lossy link, shaped like
        // determinism workload 5 but parameterized over `d`.
        "interference" => {
            let m = 16usize;
            let study_parts = default_partition(d);
            let job0 = build_multiphase_programs(d, &study_parts, m);
            let job1 = build_multiphase_programs(d, &[d], m);
            let flow =
                FlowCtl { rto_ns: 50_000, max_retries: 200, cwnd: CwndAlg::Aimd { window_max: 8 } };
            let netcond = NetCondition::default()
                .with_link_policy(LinkPolicy::Lossy { loss_per_myriad: 500, seed: 0x5EED });
            (
                SimConfig::ipsc860(d).with_netcond(netcond).with_jobs(vec![
                    JobSpec::default().shaped(&study_parts, m),
                    JobSpec::at(200_000).with_flow(flow).shaped(&[d], m),
                ]),
                compose_programs(d, &[job0, job1]),
                compose_memories(d, &[stamped_memories(d, m), stamped_memories(d, m)]),
            )
        }
        // Window-eligible multiphase workload requesting 4 shards;
        // the trace sink forces the sequential path, and the capture
        // is the evidence (shard_windows = 0 in the summary).
        "sharded" => {
            let m = 40usize;
            let parts = default_partition(d);
            (
                SimConfig::ipsc860(d).with_shards(4),
                build_multiphase_programs(d, &parts, m),
                stamped_memories(d, m),
            )
        }
        other => panic!("unknown trace scenario {other:?} (try {SCENARIOS:?})"),
    }
}

/// One run of a scenario on a fresh arena, traced with the default
/// ring.
fn traced_run(scenario: &str, d: u32) -> Result<SimResult, SimError> {
    let (cfg, programs, memories) = scenario_spec(scenario, d);
    let trace = Some(TraceConfig::default());
    let spec = RunSpec { cfg, programs: Arc::new(programs), memories: memories.into(), trace };
    SimArena::new().run_spec(spec)
}

/// Run one scenario traced and write the three artifacts.
pub fn capture(scenario: &str, d: u32) -> TraceCapture {
    let result = traced_run(scenario, d).expect("trace scenario failed");
    let events = result.trace;

    let dir = output_dir();
    let stem = format!("trace_{scenario}_d{d}");
    let perfetto_path = dir.join(format!("{stem}.perfetto.json"));
    let html_path = dir.join(format!("{stem}.html"));
    let summary_path = dir.join(format!("{stem}_summary.json"));

    std::fs::write(&perfetto_path, export_perfetto_json(&events)).expect("perfetto write failed");
    let title = format!("{scenario} (d = {d})");
    std::fs::write(&html_path, export_html(&events, &title)).expect("html write failed");

    let summary = TraceSummary {
        scenario: scenario.to_string(),
        d,
        finish_us: result.finish_time.as_us(),
        events: events.len(),
        events_dropped: result.stats.trace_events_dropped,
        shard_windows: result.stats.shard_windows,
        link_utilization: link_utilization(&events, d, 24)
            .into_iter()
            .map(|b| UtilizationRow {
                start_us: b.start_ns as f64 / 1000.0,
                end_us: b.end_ns as f64 / 1000.0,
                busy_frac: b.busy_frac,
            })
            .collect(),
        top_stalls: top_stalls(&events, 10)
            .into_iter()
            .map(|s| StallRow {
                node: s.node.0,
                cause: s.cause.label().to_string(),
                start_us: s.start_ns as f64 / 1000.0,
                duration_us: s.duration_ns() as f64 / 1000.0,
            })
            .collect(),
        critical_path: critical_path(&events)
            .into_iter()
            .map(|c| SpanRow {
                label: c.label,
                start_us: c.start_ns as f64 / 1000.0,
                end_us: c.end_ns as f64 / 1000.0,
            })
            .collect(),
    };
    crate::report::write_json(&summary_path, &summary);

    TraceCapture {
        scenario: scenario.to_string(),
        d,
        finish_us: summary.finish_us,
        events: summary.events,
        events_dropped: summary.events_dropped,
        shard_windows: summary.shard_windows,
        files: vec![perfetto_path, html_path, summary_path],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_scenarios_produce_offline_artifacts() {
        for scenario in SCENARIOS {
            let d = default_dimension(scenario);
            let cap = capture(scenario, d);
            assert!(cap.events > 0, "{scenario}: empty capture");
            assert_eq!(cap.events_dropped, 0, "{scenario}: default ring overflowed");
            assert_eq!(cap.shard_windows, 0, "tracing must force the sequential path");
            for file in &cap.files {
                let meta = std::fs::metadata(file).unwrap_or_else(|e| {
                    panic!("{scenario}: missing artifact {}: {e}", file.display())
                });
                assert!(meta.len() > 0, "{scenario}: empty artifact {}", file.display());
            }
            let perfetto = std::fs::read_to_string(&cap.files[0]).unwrap();
            assert!(perfetto.contains("\"traceEvents\""));
            assert!(perfetto.contains("link "), "{scenario}: no link track");
            let html = std::fs::read_to_string(&cap.files[1]).unwrap();
            assert!(html.starts_with("<!DOCTYPE html>") && html.contains("<svg"));
        }
    }

    #[test]
    fn trace_interference_scenario_records_flow_instants() {
        let d = 4;
        let r = traced_run("interference", d).unwrap();
        use mce_simnet::TraceEvent;
        let flows = r.trace.iter().filter(|e| matches!(e, TraceEvent::Flow { .. })).count();
        assert!(flows > 0, "lossy interference cell must emit flow instants");
        assert!(r.stats.retransmissions > 0);
    }
}
