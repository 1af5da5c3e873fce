//! E15 — robustness of the multiphase-vs-standard comparison under
//! degraded networks.
//!
//! The paper's Figure-4-style sweeps assume a perfect, homogeneous
//! circuit-switched cube. This study re-runs the comparison — the hull
//! partitions plus Standard Exchange, over a block-size ladder — under
//! increasing network degradation from `mce_simnet::netcond`:
//!
//! * **slowdown ladders** (seeded heterogeneous link factors drawn
//!   from `[1, s]` for growing `s`),
//! * **hotspot ladders** (growing numbers of background-traffic
//!   streams piled onto the main diagonal), and
//! * **fault rows** (dead cables) — which demonstrate the *typed
//!   infeasibility* result: every complete exchange contains
//!   Hamming-distance-1 transfers, a single-bit mask has exactly one
//!   xor-mask decomposition, so any cable fault makes every partition
//!   unroutable (`SimError::Unroutable`, reported per row as
//!   `feasible = false`, not a hang).
//!
//! Each (scenario, partition, block-size) cell runs `replicates`
//! jitter-seeded replicates through one parallel
//! [`SimBatch`] and is summarized with
//! [`mce_simnet::batch::agg`]. Every feasible cell also carries the
//! netcond-aware analytic prediction (`mce_model::conditioned`, via
//! [`mce_simnet::conformance`]) and its relative error against the
//! simulated mean, so the artifact doubles as a conformance record:
//! per scenario it reports the simulated *and* the model-predicted
//! `{d}` takeover plus the worst per-cell model error. The report
//! records, per scenario, the best partition at every block size and
//! the block size where the singleton plan `{d}` takes over — the
//! paper's crossover — so the artifact shows directly how degradation
//! *shifts the optimal phase count*. Measured at d = 6: background hotspot traffic punishes the
//! long-circuit plans (which hold many links per transmission) and
//! pushes the `{6}` takeover from 160 B out to 280-360 B as traffic
//! grows, while seeded slowdowns stretch every plan's τ and δ terms
//! near-proportionally and leave the crossover in place — link
//! *contention*, not raw speed, is what moves the optimum.

use crate::figures::figure_partitions;
use mce_core::builder::build_multiphase_programs;
use mce_core::verify::{stamped_memories, verify_complete_exchange};
use mce_hypercube::NodeId;
use mce_model::MachineParams;
use mce_partitions::Partition;
use mce_simnet::batch::{agg, SimBatch};
use mce_simnet::conformance;
use mce_simnet::{NetCondition, Program, SimConfig, SimError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Study options. `quick` keeps CI smoke runs in the seconds range;
/// `full` matches the figure sweeps.
#[derive(Debug, Clone)]
pub struct RobustnessOptions {
    /// Cube dimension.
    pub d: u32,
    /// Block sizes (bytes) to sweep.
    pub sizes: Vec<usize>,
    /// Jitter-seeded replicates per cell.
    pub replicates: u64,
    /// Jitter fraction for the replicates.
    pub jitter: f64,
    /// Slowdown-scenario severities (factors drawn from `[1, s]`).
    pub slowdowns: Vec<f64>,
    /// Hotspot-scenario background-stream counts.
    pub hotspot_levels: Vec<u32>,
    /// Fault-scenario cable counts.
    pub fault_counts: Vec<usize>,
}

impl RobustnessOptions {
    /// Small grid for smoke tests and CI (`repro robustness --quick`).
    pub fn quick(d: u32) -> RobustnessOptions {
        RobustnessOptions {
            d,
            sizes: vec![16, 64, 160, 320],
            replicates: 2,
            jitter: 0.02,
            slowdowns: vec![2.0, 6.0],
            hotspot_levels: vec![4],
            fault_counts: vec![1],
        }
    }

    /// The full ladder.
    pub fn full(d: u32) -> RobustnessOptions {
        RobustnessOptions {
            d,
            sizes: (1..=10).map(|k| k * 40).collect(),
            replicates: 5,
            jitter: 0.02,
            slowdowns: vec![1.5, 2.0, 3.0, 5.0, 8.0],
            hotspot_levels: vec![2, 6, 12],
            fault_counts: vec![1, 4],
        }
    }
}

/// One (scenario, partition, block-size) cell of the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessRow {
    /// Scenario label (`baseline`, `slowdown_x2`, `hotspot_4`, ...).
    pub scenario: String,
    /// Partition in paper notation.
    pub partition: String,
    /// Number of phases of that partition.
    pub phases: usize,
    /// Block size, bytes.
    pub block_size: usize,
    /// Whether the scenario admits this workload at all (`false` =
    /// every replicate failed typed, e.g. `Unroutable` under faults).
    pub feasible: bool,
    /// Finish-time summary over the successful replicates, µs.
    pub finish_us: agg::MetricSummary,
    /// Conditioned-model prediction for this cell, µs
    /// (`mce_model::conditioned` via the scenario's condition summary;
    /// `None` for infeasible cells — the model prices runs, not typed
    /// routing failures).
    pub model_predicted_us: Option<f64>,
    /// Relative model error against the mean simulated finish time,
    /// `|pred - sim| / sim` (`None` for infeasible cells).
    pub model_rel_err: Option<f64>,
    /// Mean edge-contention events per run.
    pub edge_contention_events: f64,
    /// Mean background transmissions per run.
    pub background_transmissions: f64,
    /// Whether every successful replicate moved the data correctly.
    pub verified: bool,
}

/// Per-scenario winners: which partition is fastest at each size, and
/// where the singleton plan takes over.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSummary {
    /// Scenario label.
    pub scenario: String,
    /// Whether any partition is feasible under this scenario.
    pub feasible: bool,
    /// `(block_size, winning partition, its phase count)` per size.
    pub best_by_size: Vec<(usize, String, usize)>,
    /// Smallest block size from which `{d}` stays the winner
    /// (`None` = the singleton never takes over within the sweep).
    pub singleton_crossover_bytes: Option<usize>,
    /// The conditioned model's answer to the same question, from the
    /// per-cell predictions over the same grid — the artifact shows
    /// predicted and simulated crossovers side by side.
    pub model_crossover_bytes: Option<usize>,
    /// Largest `model_rel_err` over the scenario's feasible cells.
    pub model_max_rel_err: Option<f64>,
}

/// The full study artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Cube dimension.
    pub dimension: u32,
    /// Replicates per cell.
    pub replicates: u64,
    /// Partitions compared (hull + Standard Exchange).
    pub partitions: Vec<String>,
    /// Every cell.
    pub rows: Vec<RobustnessRow>,
    /// Per-scenario winner tables.
    pub scenarios: Vec<ScenarioSummary>,
}

/// The degradation scenarios of one study, in report order.
fn scenarios(opts: &RobustnessOptions) -> Vec<(String, NetCondition)> {
    let d = opts.d;
    let mut out = vec![("baseline".to_string(), NetCondition::default())];
    for &s in &opts.slowdowns {
        out.push((
            format!("slowdown_x{s}"),
            NetCondition::seeded_speeds(1.0, s, 0x5EED + d as u64),
        ));
    }
    for &level in &opts.hotspot_levels {
        // `level` streams piled onto the main diagonal, phase-staggered
        // across one period — the shared ladder shape of
        // `conformance::hotspot_condition` (its 150 × 600 µs schedule
        // outlasts the slowest cell with margin; the engine drains
        // queued injections after finish, so oversized counts are pure
        // post-finish work).
        out.push((format!("hotspot_{level}"), conformance::hotspot_condition(d, level)));
    }
    for &k in &opts.fault_counts {
        let mut nc = NetCondition::default();
        // Deterministic distinct cables along the low corner.
        for i in 0..k {
            nc = nc.with_fault(NodeId((i as u32) << 1), (i as u32) % d);
        }
        out.push((format!("faults_{k}"), nc));
    }
    out
}

/// Run the study: one parallel batch over every
/// (scenario × partition × size × replicate) cell.
pub fn robustness_study(opts: &RobustnessOptions) -> RobustnessReport {
    let params = MachineParams::ipsc860();
    let d = opts.d;
    let m_max = opts.sizes.iter().copied().max().unwrap_or(40);
    let parts: Vec<Partition> = figure_partitions(&params, d, m_max as f64);
    let scenarios = scenarios(opts);

    // Programs and memories are per (partition, size), shared across
    // scenarios and replicates.
    type Workload = (usize, Arc<Vec<Program>>, Arc<Vec<Vec<u8>>>);
    let workloads: Vec<Workload> = parts
        .iter()
        .flat_map(|p| {
            opts.sizes.iter().map(move |&m| {
                (
                    m,
                    Arc::new(build_multiphase_programs(d, p.parts(), m)),
                    Arc::new(stamped_memories(d, m)),
                )
            })
        })
        .collect();

    let mut batch = SimBatch::new(SimConfig::ipsc860(d));
    for (_, nc) in &scenarios {
        for (_, programs, memories) in &workloads {
            for rep in 0..opts.replicates {
                let cfg = SimConfig::ipsc860(d)
                    .with_jitter(opts.jitter, 0x1991 + rep)
                    .with_netcond(nc.clone());
                batch.push_with_config(cfg, Arc::clone(programs), memories);
            }
        }
    }
    let results = batch.run();

    // Fold results back by index arithmetic: scenarios × partitions ×
    // sizes × replicates, in push order.
    let reps = opts.replicates as usize;
    let sizes_n = opts.sizes.len();
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for (si, (label, nc)) in scenarios.iter().enumerate() {
        // The conditioned model's view of this scenario: one summary
        // extraction, jitter-free predictions per (partition, size).
        let model_cfg = SimConfig::ipsc860(d).with_netcond(nc.clone());
        let cond = conformance::condition_summary(&model_cfg);
        let mut best_by_size: Vec<(usize, String, usize)> = Vec::new();
        let mut model_best_by_size: Vec<(usize, String)> = Vec::new();
        let mut model_max_rel_err: Option<f64> = None;
        for (mi, &m) in opts.sizes.iter().enumerate() {
            let mut best: Option<(f64, &Partition)> = None;
            let mut model_best: Option<(f64, &Partition)> = None;
            for (pi, part) in parts.iter().enumerate() {
                let start = ((si * parts.len() + pi) * sizes_n + mi) * reps;
                let cell = &results[start..start + reps];
                let summary = agg::aggregate(cell);
                let feasible = summary.failures == 0;
                debug_assert!(
                    feasible || cell.iter().all(|r| matches!(r, Err(SimError::Unroutable { .. }))),
                    "only Unroutable may fail cells"
                );
                let verified = feasible
                    && cell.iter().all(|r| {
                        verify_complete_exchange(d, m, &r.as_ref().unwrap().memories).is_empty()
                    });
                let (model_predicted_us, model_rel_err) = if feasible {
                    let pred = conformance::predicted_us_with(&model_cfg, &cond, part.parts(), m);
                    let t = summary.finish_us.mean;
                    let err = (pred - t).abs() / t;
                    model_max_rel_err =
                        Some(model_max_rel_err.map_or(err, |worst: f64| worst.max(err)));
                    if model_best.is_none_or(|(bt, _)| pred < bt) {
                        model_best = Some((pred, part));
                    }
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, part));
                    }
                    (Some(pred), Some(err))
                } else {
                    (None, None)
                };
                rows.push(RobustnessRow {
                    scenario: label.clone(),
                    partition: part.to_string(),
                    phases: part.parts().len(),
                    block_size: m,
                    feasible,
                    finish_us: summary.finish_us,
                    model_predicted_us,
                    model_rel_err,
                    edge_contention_events: summary.edge_contention_events.mean,
                    background_transmissions: summary.background_transmissions.mean,
                    verified,
                });
            }
            if let Some((_, part)) = best {
                best_by_size.push((m, part.to_string(), part.parts().len()));
            }
            if let Some((_, part)) = model_best {
                model_best_by_size.push((m, part.to_string()));
            }
        }
        // Crossover: smallest size from which {d} stays the winner
        // (the shared definition in `conformance::singleton_takeover`).
        let singleton = format!("{{{d}}}");
        summaries.push(ScenarioSummary {
            scenario: label.clone(),
            feasible: !best_by_size.is_empty(),
            singleton_crossover_bytes: conformance::singleton_takeover(
                &singleton,
                best_by_size.iter().map(|(m, w, _)| (*m, w.as_str())),
            ),
            model_crossover_bytes: conformance::singleton_takeover(
                &singleton,
                model_best_by_size.iter().map(|(m, w)| (*m, w.as_str())),
            ),
            best_by_size,
            model_max_rel_err,
        });
    }
    RobustnessReport {
        dimension: d,
        replicates: opts.replicates,
        partitions: parts.iter().map(|p| p.to_string()).collect(),
        rows,
        scenarios: summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_produces_consistent_rows() {
        let opts = RobustnessOptions {
            d: 4,
            sizes: vec![16, 128],
            replicates: 2,
            jitter: 0.02,
            slowdowns: vec![4.0],
            hotspot_levels: vec![3],
            fault_counts: vec![1],
        };
        let report = robustness_study(&opts);
        assert!(!report.rows.is_empty());
        assert_eq!(
            report.rows.len(),
            report.partitions.len() * opts.sizes.len() * report.scenarios.len()
        );

        // Baseline and slowdown/hotspot scenarios are fully feasible
        // and verified; data movement survives degradation.
        for row in report.rows.iter().filter(|r| !r.scenario.starts_with("faults")) {
            assert!(row.feasible, "{row:?}");
            assert!(row.verified, "{row:?}");
        }
        // Fault scenarios: complete exchange is typed-infeasible for
        // every partition (distance-1 transfers cannot reroute).
        for row in report.rows.iter().filter(|r| r.scenario.starts_with("faults")) {
            assert!(!row.feasible, "{row:?}");
        }
        let faults = report.scenarios.iter().find(|s| s.scenario == "faults_1").unwrap();
        assert!(!faults.feasible);

        // Hotspot rows actually saw background traffic.
        assert!(report
            .rows
            .iter()
            .filter(|r| r.scenario == "hotspot_3" && r.feasible)
            .all(|r| r.background_transmissions > 0.0));

        // Every feasible cell carries a model prediction within the
        // conformance envelope (deterministic regimes tight, hotspot
        // loose); infeasible cells carry none.
        for row in &report.rows {
            assert_eq!(row.model_predicted_us.is_some(), row.feasible, "{row:?}");
            if let Some(err) = row.model_rel_err {
                let tolerance = if row.scenario.starts_with("hotspot") { 0.40 } else { 0.20 };
                assert!(err <= tolerance, "model error {err:.3} too large: {row:?}");
            }
        }
        for s in report.scenarios.iter().filter(|s| s.feasible) {
            assert!(s.model_max_rel_err.is_some(), "{s:?}");
            // Predicted and simulated takeovers sit within one ladder
            // step of each other on this quick grid.
            if let (Some(sim), Some(model)) = (s.singleton_crossover_bytes, s.model_crossover_bytes)
            {
                let sim_i = opts.sizes.iter().position(|&m| m == sim).unwrap();
                let model_i = opts.sizes.iter().position(|&m| m == model).unwrap();
                assert!(
                    sim_i.abs_diff(model_i) <= 1,
                    "takeover disagreement beyond one step: {s:?}"
                );
            }
        }

        // Degradation never beats the baseline on the same cell.
        for row in &report.rows {
            if row.scenario == "baseline" {
                continue;
            }
            if let Some(base) = report.rows.iter().find(|b| {
                b.scenario == "baseline"
                    && b.partition == row.partition
                    && b.block_size == row.block_size
            }) {
                if row.feasible {
                    assert!(
                        row.finish_us.mean >= base.finish_us.mean * 0.95,
                        "degraded run implausibly fast: {row:?} vs {base:?}"
                    );
                }
            }
        }
    }
}
