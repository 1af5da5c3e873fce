//! Model-vs-simulator conformance: extract a [`ConditionSummary`] from
//! a simulator configuration and check the conditioned analytic model
//! (`mce_model::conditioned`) against batched simulation runs.
//!
//! The analytic model and the discrete-event engine are this
//! repository's two independent accounts of the same machine. The
//! unconditioned halves are pinned against each other by
//! `predicted_vs_simulated_agreement` (within 1%); this module extends
//! that bridge to *degraded* networks, in the spirit of validating an
//! abstraction against concrete executions: every scenario runs both
//! sides over the same grid and reports per-cell relative error plus
//! winner (best-partition) agreement.
//!
//! * [`condition_summary`] compresses a [`SimConfig`]'s
//!   [`NetCondition`] into the per-dimension
//!   [`ConditionSummary`] the model prices against: resolved link
//!   speeds folded per dimension, background streams folded into
//!   per-dimension contention loads (route, occupancy duration under
//!   the configured switching mode, duty cycle).
//! * [`predicted_us`] prices one `(partition, block size)` cell under
//!   that summary, circuit-switched or store-and-forward to match the
//!   config.
//! * [`condition_fingerprint`] quantizes that summary into the stable
//!   integer cache key (`mce_model::ConditionFingerprint`) the planner
//!   (`mce_plan`) caches precomputed hulls under.
//! * [`run_scenario`] sweeps a partition × block-size grid through a
//!   [`SimBatch`], producing a [`ScenarioOutcome`] with per-cell
//!   errors and the two winner ladders — or a typed [`ScenarioError`]
//!   naming the first cell that failed to simulate.
//!
//! The harness proper lives in `crates/simnet/tests/model_conformance.rs`
//! (quick grid in the normal suite, full grid behind `--ignored`) and
//! the per-regime accuracy envelope it enforces is documented in
//! `crates/model/README.md`.

use crate::batch::SimBatch;
use crate::config::{SimConfig, SwitchingMode};
use crate::netcond::NetCondition;
use crate::program::Program;
use crate::SimError;
use mce_hypercube::routing::DirectedLink;
use mce_hypercube::NodeId;
use mce_model::{
    conditioned_multiphase_saf_time, conditioned_multiphase_time, AffineHullFace,
    ConditionFingerprint, ConditionSummary,
};
use mce_partitions::Partition;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Extract the per-dimension [`ConditionSummary`] of a configuration:
/// the model-side view of the config's [`NetCondition`]
/// (or a no-op summary when the config is unconditioned).
///
/// Link-speed distributions come from
/// [`NetCondition::resolve_speeds`] folded per dimension, so every
/// profile family and cable override is summarized exactly. Each
/// background stream contributes one touched directed link per
/// dimension of its route, occupied for the stream's conditioned
/// transmission duration out of every period (per-hop duration under
/// store and forward, where a hop holds only one link at a time).
/// Streams are assumed to outlast the run being predicted — the
/// convention of every hotspot ladder in this repository; `start_ns`
/// and `count` are not consulted.
///
/// Precondition: `cfg` passes [`SimConfig::validate`], which runs
/// [`NetCondition::validate`] for the cube. A condition that does not
/// — a stream endpoint outside the cube, a speed factor that is NaN,
/// zero or negative, more per-dimension factors than dimensions —
/// indexes past the link-factor table (a panic) or summarizes to NaN
/// and meaningless fields. The engine validates before it runs and the
/// planner before it summarizes (`PlanError::InvalidCondition`); a
/// caller that builds conditions from outside input does the same.
pub fn condition_summary(cfg: &SimConfig) -> ConditionSummary {
    let d = cfg.dimension;
    let Some(nc) = &cfg.netcond else {
        return ConditionSummary::noop(d);
    };
    let link_factors = nc.resolve_speeds(d);
    let mut summary = ConditionSummary::from_link_factors(d, &link_factors);
    for stream in &nc.background {
        let mask = stream.src.0 ^ stream.dst.0;
        if mask == 0 || stream.period_ns == 0 || stream.count == 0 {
            continue;
        }
        let (max_f, sum_f) = route_factors(d, stream.src, mask, &link_factors);
        let period_us = stream.period_ns as f64 / 1000.0;
        let busy_us = match cfg.switching {
            SwitchingMode::Circuit => {
                cfg.conditioned_transmission_ns(stream.bytes, max_f, sum_f) as f64 / 1000.0
            }
            SwitchingMode::StoreAndForward => {
                // One hop holds one link; use the mean per-hop duration.
                let hops = mask.count_ones() as f64;
                cfg.conditioned_transmission_ns(stream.bytes, sum_f / hops, sum_f / hops) as f64
                    / 1000.0
            }
        };
        summary.add_stream(mask, busy_us, period_us);
    }
    summary
}

/// The quantized cache key of a configuration's condition:
/// [`condition_summary`]`(cfg).fingerprint()`. This is the simulator
/// side of the planner's cache key — two configs whose resolved
/// conditions agree to within the fingerprint's quantization bound
/// (≈ 0.2% per field, `mce_model::FINGERPRINT_MANTISSA_BITS`) share a
/// key and therefore a cached optimality hull.
pub fn condition_fingerprint(cfg: &SimConfig) -> ConditionFingerprint {
    condition_summary(cfg).fingerprint()
}

/// `(max, sum)` slowdown factors along the e-cube route of
/// `(src, mask)`, from a flat `from * d + dim` factor table.
fn route_factors(d: u32, src: NodeId, mask: u32, link_factors: &[f64]) -> (f64, f64) {
    let dims = d as usize;
    let mut cur = src.0;
    let mut rem = mask;
    let (mut max_f, mut sum_f) = (0.0f64, 0.0f64);
    while rem != 0 {
        let bit = rem & rem.wrapping_neg();
        let link = DirectedLink { from: NodeId(cur), to: NodeId(cur ^ bit) };
        let f = link_factors[link.from.0 as usize * dims + link.dimension() as usize];
        max_f = max_f.max(f);
        sum_f += f;
        cur ^= bit;
        rem &= rem - 1;
    }
    (max_f, sum_f)
}

/// Price one `(partition, block size)` cell of `cfg` with the
/// conditioned analytic model: [`conditioned_multiphase_time`] under
/// circuit switching, [`conditioned_multiphase_saf_time`] under store
/// and forward, both against [`condition_summary`]`(cfg)`.
pub fn predicted_us(cfg: &SimConfig, dims: &[u32], m: usize) -> f64 {
    let cond = condition_summary(cfg);
    predicted_us_with(cfg, &cond, dims, m)
}

/// [`predicted_us`] against a precomputed summary (grids price many
/// cells under one condition; the summary extraction is per-scenario,
/// not per-cell).
pub fn predicted_us_with(cfg: &SimConfig, cond: &ConditionSummary, dims: &[u32], m: usize) -> f64 {
    match cfg.switching {
        SwitchingMode::Circuit => {
            conditioned_multiphase_time(&cfg.params, m as f64, cfg.dimension, dims, cond)
        }
        SwitchingMode::StoreAndForward => {
            conditioned_multiphase_saf_time(&cfg.params, m as f64, cfg.dimension, dims, cond)
        }
    }
}

/// One `(partition, block size)` cell: both accounts and their
/// relative disagreement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConformanceCell {
    /// Partition in paper notation, canonical order.
    pub partition: String,
    /// Block size, bytes.
    pub block_size: usize,
    /// Simulated finish time, µs.
    pub simulated_us: f64,
    /// Conditioned-model prediction, µs.
    pub predicted_us: f64,
}

impl ConformanceCell {
    /// Relative prediction error, against the simulated value.
    pub fn rel_err(&self) -> f64 {
        if self.simulated_us == 0.0 {
            return if self.predicted_us == 0.0 { 0.0 } else { f64::INFINITY };
        }
        (self.predicted_us - self.simulated_us).abs() / self.simulated_us
    }
}

/// Outcome of one scenario's grid: per-cell errors plus the simulated
/// and predicted winner ladders over the block sizes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Scenario label, e.g. `d5/hotspot_4`.
    pub label: String,
    /// Block-size ladder, bytes, ascending.
    pub sizes: Vec<usize>,
    /// Partitions compared, paper notation.
    pub partitions: Vec<String>,
    /// Every cell, partition-major in `partitions` × `sizes` order.
    pub cells: Vec<ConformanceCell>,
    /// Largest per-cell relative error.
    pub max_rel_err: f64,
    /// Index into `partitions` of the simulated winner per size.
    pub simulated_winner: Vec<usize>,
    /// Index into `partitions` of the predicted winner per size.
    pub predicted_winner: Vec<usize>,
}

impl ScenarioOutcome {
    /// Size indices where model and simulator *materially* disagree on
    /// the winning partition away from the crossover. A ladder step is
    /// exempt when:
    ///
    /// * the simulated winner changes at it or at an adjacent step —
    ///   at the crossover the candidates are within a hair of each
    ///   other and either answer is defensible (the paper's own
    ///   crossover is a band, not a point); or
    /// * the model's pick is a *statistical tie*: its simulated time
    ///   is within `margin_frac` of the simulated winner's, so the
    ///   "wrong" choice costs less than the margin (two plans can run
    ///   neck and neck across a whole ladder, e.g. `{2,1}` vs Standard
    ///   Exchange under store and forward).
    ///
    /// Everywhere else the winner must match exactly.
    pub fn winner_disagreements_off_crossover(&self, margin_frac: f64) -> Vec<usize> {
        let sim = &self.simulated_winner;
        (0..sim.len())
            .filter(|&i| {
                let near_boundary =
                    (i > 0 && sim[i] != sim[i - 1]) || (i + 1 < sim.len() && sim[i] != sim[i + 1]);
                if near_boundary || self.predicted_winner[i] == sim[i] {
                    return false;
                }
                let sim_time = |pi: usize| self.cells[pi * self.sizes.len() + i].simulated_us;
                let best = sim_time(sim[i]);
                let picked = sim_time(self.predicted_winner[i]);
                picked > best * (1.0 + margin_frac)
            })
            .collect()
    }

    /// Smallest ladder size from which the simulated winner stays the
    /// singleton `{d}` — the measured conditioned crossover (`None`
    /// when the singleton never takes over within the ladder).
    pub fn simulated_singleton_takeover(&self) -> Option<usize> {
        self.takeover(&self.simulated_winner)
    }

    /// The model-side counterpart of
    /// [`ScenarioOutcome::simulated_singleton_takeover`].
    pub fn predicted_singleton_takeover(&self) -> Option<usize> {
        self.takeover(&self.predicted_winner)
    }

    fn takeover(&self, winners: &[usize]) -> Option<usize> {
        let singleton = self.partitions.iter().find(|p| !p.contains(','))?;
        singleton_takeover(
            singleton,
            self.sizes.iter().zip(winners).map(|(&m, &w)| (m, self.partitions[w].as_str())),
        )
    }
}

/// Smallest ladder size from which `singleton` (the `{d}` plan, in
/// paper notation) *stays* the winner: a later size where it loses
/// resets the takeover. The one shared definition of the measured
/// crossover, used by [`ScenarioOutcome`], the robustness study and
/// the paper-claims pin — tweak it here and every consumer moves
/// together.
pub fn singleton_takeover<'a>(
    singleton: &str,
    winners: impl IntoIterator<Item = (usize, &'a str)>,
) -> Option<usize> {
    let mut takeover = None;
    for (m, winner) in winners {
        if winner == singleton {
            takeover.get_or_insert(m);
        } else {
            takeover = None;
        }
    }
    takeover
}

/// Map an analytic crossover block size onto a ladder, in
/// [`singleton_takeover`]'s terms: the smallest ladder size at or
/// beyond the crossover. The companion for comparing
/// `mce_model::conditioned_crossover_block_size` (or the raw Eq. 1/2
/// crossover) against measured takeovers, handling that function's
/// documented ends the way a winner ladder would:
///
/// * `f64::INFINITY` (or any non-finite value) — the challenger never
///   takes over: `None`, matching a ladder whose winner column never
///   settles on the singleton.
/// * `0.0` — takeover from the first byte: the ladder's smallest size.
/// * anything between — the first ladder size at or past the
///   crossover; `None` when the whole ladder sits below it.
pub fn crossover_takeover(crossover_bytes: f64, sizes: &[usize]) -> Option<usize> {
    if !crossover_bytes.is_finite() {
        return None;
    }
    sizes.iter().copied().find(|&m| m as f64 >= crossover_bytes)
}

/// A conformance cell failed to simulate: the grid coordinates of the
/// first failing cell plus the engine's typed [`SimError`].
///
/// Historically `run_scenario` panicked here. Conformance scenarios
/// are routable by construction, so a failure *is* a harness bug in
/// test context — but the planner (`mce_plan`) simulates the same
/// cells for live out-of-envelope queries and reports a failure in
/// this type, and a service degrades to its analytic answer rather
/// than aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Scenario label the failing grid belonged to.
    pub label: String,
    /// Partition of the failing cell, paper notation.
    pub partition: String,
    /// Block size of the failing cell, bytes.
    pub block_size: usize,
    /// The engine's failure.
    pub error: SimError,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conformance cell {} m={} of {} failed to simulate: {}",
            self.partition, self.block_size, self.label, self.error
        )
    }
}

impl std::error::Error for ScenarioError {}

/// Run one scenario: simulate every `(partition, block size)` cell of
/// the grid under `cfg` through a parallel [`SimBatch`] (jitter-free
/// and single-replicate — both sides are deterministic) and price the
/// same cells with the conditioned model. `build` compiles one cell's
/// workload: `(dimension, partition parts, block size)` to per-node
/// programs and initial memories (callers pass
/// `mce_core::builder::build_multiphase_programs` plus stamped
/// memories; the builder crate sits above this one).
///
/// # Errors
///
/// Returns a [`ScenarioError`] naming the first cell whose simulation
/// failed (e.g. an unroutable pair under a faulted condition). Test
/// harnesses unwrap it — their grids are routable by construction.
/// Every cell runs to completion: the harness and the perf ledger's
/// `simnet.conformance.scenario_s` probe need all of them. The
/// planner's fallback, which needs only the winner, runs the same
/// cells bounded (`mce_plan::fallback::simulate_answer`).
pub fn run_scenario(
    label: &str,
    cfg: &SimConfig,
    partitions: &[Partition],
    sizes: &[usize],
    build: impl Fn(u32, &[u32], usize) -> (Vec<Program>, Vec<Vec<u8>>),
) -> Result<ScenarioOutcome, ScenarioError> {
    assert!(!partitions.is_empty() && !sizes.is_empty(), "empty conformance grid");
    let cond = condition_summary(cfg);
    let mut batch = SimBatch::new(cfg.clone());
    let mut predicted = Vec::with_capacity(partitions.len() * sizes.len());
    for part in partitions {
        for &m in sizes {
            let (programs, memories) = build(cfg.dimension, part.parts(), m);
            batch.push_run(Arc::new(programs), memories);
            predicted.push(predicted_us_with(cfg, &cond, part.parts(), m));
        }
    }
    let results = batch.run();

    let mut cells = Vec::with_capacity(predicted.len());
    let mut max_rel_err = 0.0f64;
    for (i, (result, pred)) in results.into_iter().zip(&predicted).enumerate() {
        let sim = match result {
            Ok(r) => r.finish_time.as_us(),
            Err(error) => {
                return Err(ScenarioError {
                    label: label.to_string(),
                    partition: partitions[i / sizes.len()].to_string(),
                    block_size: sizes[i % sizes.len()],
                    error,
                })
            }
        };
        let cell = ConformanceCell {
            partition: partitions[i / sizes.len()].to_string(),
            block_size: sizes[i % sizes.len()],
            simulated_us: sim,
            predicted_us: *pred,
        };
        max_rel_err = max_rel_err.max(cell.rel_err());
        cells.push(cell);
    }

    let winner = |time: &dyn Fn(usize, usize) -> f64| -> Vec<usize> {
        (0..sizes.len())
            .map(|mi| {
                (0..partitions.len())
                    .min_by(|&a, &b| time(a, mi).total_cmp(&time(b, mi)))
                    .expect("at least one partition")
            })
            .collect()
    };
    let simulated_winner = winner(&|pi, mi| cells[pi * sizes.len() + mi].simulated_us);
    let predicted_winner = winner(&|pi, mi| cells[pi * sizes.len() + mi].predicted_us);

    Ok(ScenarioOutcome {
        label: label.to_string(),
        sizes: sizes.to_vec(),
        partitions: partitions.iter().map(|p| p.to_string()).collect(),
        cells,
        max_rel_err,
        simulated_winner,
        predicted_winner,
    })
}

/// The candidate-partition set every conformance grid compares: the
/// partitions of the clean hull of optimality that win at some whole
/// block size in `0..=m_max`, in hull order, plus Standard Exchange —
/// the same cast as the paper's figures and the robustness study.
///
/// A hull face is in the cast when the first whole byte count it
/// contains, `k = from.ceil()`, satisfies `k < to && k <= m_max`.
/// So `{d}` is in only once `m_max` reaches its takeover (at d = 6,
/// `m_max = 40` has no `{6}`), a face narrower than one byte between
/// two whole sizes is left out, and a NaN or negative `m_max` yields
/// Standard Exchange alone.
pub fn candidate_partitions(
    params: &mce_model::MachineParams,
    d: u32,
    m_max: f64,
) -> Vec<Partition> {
    let hull = mce_model::optimality_hull_affine_by(d, |m, part| {
        mce_model::multiphase_time(params, m, d, part.parts())
    });
    cast_of(&hull, d, m_max)
}

/// [`candidate_partitions`] over an already built clean hull.
fn cast_of(hull: &[AffineHullFace], d: u32, m_max: f64) -> Vec<Partition> {
    let mut parts: Vec<Partition> = hull
        .iter()
        .filter(|f| {
            let k = f.from.ceil();
            k < f.to && k <= m_max
        })
        .map(|f| f.partition.clone())
        .collect();
    let se = Partition::all_ones(d);
    if !parts.contains(&se) {
        parts.push(se);
    }
    parts
}

/// A hotspot [`NetCondition`]: `level` phase-staggered background
/// streams across the cube's main diagonals, the ladder shape shared
/// by the robustness study and the conformance grids. Streams
/// outlast any cell of a conformance run (`count` × `period_ns` covers
/// the slowest Standard Exchange cell with margin).
pub fn hotspot_condition(d: u32, level: u32) -> NetCondition {
    let n = 1u32 << d;
    let mut nc = NetCondition::default();
    for j in 0..level {
        let stream = crate::netcond::BackgroundStream {
            src: NodeId(j % n),
            dst: NodeId((j % n) ^ (n - 1)),
            bytes: 400,
            start_ns: 0,
            period_ns: 600_000,
            count: 150,
        };
        nc = nc.with_background(stream.staggered(j, level));
    }
    nc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netcond::{BackgroundStream, Cable};

    #[test]
    fn unconditioned_config_summarizes_to_noop() {
        let cfg = SimConfig::ipsc860(4);
        assert!(condition_summary(&cfg).is_noop());
        let noop = cfg.with_netcond(NetCondition::default());
        assert!(condition_summary(&noop).is_noop());
    }

    #[test]
    fn uniform_and_override_speeds_fold_per_dimension() {
        let nc = NetCondition::uniform_slowdown(2.0).with_override(Cable::new(NodeId(0), 1), 8.0);
        let cfg = SimConfig::ipsc860(3).with_netcond(nc);
        let s = condition_summary(&cfg);
        assert!(!s.is_noop());
        let f = s.factors();
        assert_eq!(f[0].mean, 2.0);
        assert_eq!(f[0].max, 2.0);
        // Dim 1: two of eight directed links overridden to 8.0.
        assert_eq!(f[1].max, 8.0);
        assert!((f[1].mean - (6.0 * 2.0 + 2.0 * 8.0) / 8.0).abs() < 1e-12);
    }

    #[test]
    fn streams_fold_into_touched_dimensions_only() {
        let stream = BackgroundStream {
            src: NodeId(0),
            dst: NodeId(0b101),
            bytes: 400,
            start_ns: 0,
            period_ns: 600_000,
            count: 100,
        };
        let cfg =
            SimConfig::ipsc860(3).with_netcond(NetCondition::default().with_background(stream));
        let s = condition_summary(&cfg);
        let c = s.contention();
        assert!(c[0].touch > 0.0 && c[2].touch > 0.0);
        assert_eq!(c[1].touch, 0.0, "dim 1 is not on the route");
        // One stream touches 1 of 8 directed links per crossed dim.
        assert!((c[0].touch - 1.0 / 8.0).abs() < 1e-12);
        // Occupancy: λ + τ·400 + δ·2 = 95 + 157.6 + 20.6 µs.
        assert!((c[0].busy_us - 273.2).abs() < 1e-9, "{}", c[0].busy_us);
        assert!((c[0].util - 273.2 / 600.0).abs() < 1e-9);
    }

    #[test]
    fn saf_streams_use_per_hop_occupancy() {
        let stream = BackgroundStream {
            src: NodeId(0),
            dst: NodeId(0b111),
            bytes: 100,
            start_ns: 0,
            period_ns: 600_000,
            count: 100,
        };
        let circuit =
            SimConfig::ipsc860(3).with_netcond(NetCondition::default().with_background(stream));
        let saf = circuit.clone().with_store_and_forward();
        let c_circuit = condition_summary(&circuit).contention()[0];
        let c_saf = condition_summary(&saf).contention()[0];
        // A circuit holds the link for the full 3-hop transmission; a
        // SAF hop holds it for one hop's worth.
        assert!(c_saf.busy_us < c_circuit.busy_us);
    }

    #[test]
    fn seeded_profile_summary_brackets_the_draws() {
        let cfg = SimConfig::ipsc860(4).with_netcond(NetCondition::seeded_speeds(1.0, 3.0, 77));
        let s = condition_summary(&cfg);
        for f in s.factors() {
            assert!(f.min >= 1.0 && f.max <= 3.0 && f.min <= f.mean && f.mean <= f.max);
        }
    }

    #[test]
    fn candidate_partitions_cover_figure_cast() {
        let params = mce_model::MachineParams::ipsc860();
        let parts = candidate_partitions(&params, 6, 400.0);
        let names: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
        assert!(names.contains(&"{6}".to_string()));
        assert!(names.contains(&"{1,1,1,1,1,1}".to_string()));
        assert!(names.len() >= 3);
    }

    /// The casts every caller draws, recorded while the cast was still
    /// read off a 1-byte scan of the hull: Figures 4-6 (`m_max` 400),
    /// the robustness and interference studies and their replays (the
    /// largest ladder size: 128, 320, 400, 800), and the planner's
    /// simulator fallback (`max(4m, 512)` at d5-d7).
    #[test]
    fn candidate_casts_are_the_recorded_ones() {
        let params = mce_model::MachineParams::ipsc860();
        let d4 = ["{2,2}", "{4}", "{1,1,1,1}"];
        let d5 = ["{3,2}", "{5}", "{1,1,1,1,1}"];
        let d6 = ["{2,2,2}", "{3,3}", "{6}", "{1,1,1,1,1,1}"];
        let d7 = ["{3,2,2}", "{4,3}", "{7}", "{1,1,1,1,1,1,1}"];
        let recorded: [(u32, &[f64], &[&str]); 5] = [
            (4, &[128.0, 320.0, 400.0], &d4),
            (5, &[320.0, 400.0, 512.0, 1600.0, 4096.0], &d5),
            (6, &[320.0, 400.0, 512.0, 800.0, 1600.0, 4096.0], &d6),
            (6, &[40.0], &["{2,2,2}", "{3,3}", "{1,1,1,1,1,1}"]),
            (7, &[320.0, 400.0, 512.0, 1600.0, 4096.0], &d7),
        ];
        for (d, sizes, cast) in recorded {
            for &m_max in sizes {
                let got: Vec<String> =
                    candidate_partitions(&params, d, m_max).iter().map(|p| p.to_string()).collect();
                assert_eq!(got, cast, "d{d} m_max {m_max}");
            }
        }
    }

    /// The cast is what the 1-byte scan it replaced named: the exact
    /// fold's winner at every whole size `0..=m_max`, merged into runs,
    /// plus Standard Exchange — for three machines, d1-d10 and every
    /// whole `m_max` up to 4096.
    #[test]
    fn candidate_cast_equals_the_per_byte_scan() {
        use mce_model::{
            best_partition, multiphase_time, optimality_hull_affine_by, MachineParams,
        };
        for params in
            [MachineParams::ipsc860(), MachineParams::ncube2_like(), MachineParams::hypothetical()]
        {
            for d in 1..=10u32 {
                let hull = optimality_hull_affine_by(d, |m, part| {
                    multiphase_time(&params, m, d, part.parts())
                });
                let se = Partition::all_ones(d);
                let mut runs: Vec<Partition> = Vec::new();
                for k in 0..=4096u32 {
                    let (winner, _) = best_partition(&params, k as f64, d);
                    if runs.last() != Some(&winner) {
                        runs.push(winner);
                    }
                    let mut scanned = runs.clone();
                    if !scanned.contains(&se) {
                        scanned.push(se.clone());
                    }
                    assert_eq!(
                        cast_of(&hull, d, k as f64),
                        scanned,
                        "{} d{d} m_max {k}",
                        params.name
                    );
                }
                for m_max in [f64::NAN, -1.0, -0.5] {
                    assert_eq!(cast_of(&hull, d, m_max), vec![se.clone()], "d{d} m_max {m_max}");
                }
            }
        }
    }

    #[test]
    fn fingerprint_extraction_matches_summary_and_buckets_configs() {
        let d = 4u32;
        let clean = SimConfig::ipsc860(d);
        assert_eq!(condition_fingerprint(&clean), condition_summary(&clean).fingerprint());
        // Two hotspot configs with the same condition share a key...
        let hot_a = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 4));
        let hot_b = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 4));
        assert_eq!(condition_fingerprint(&hot_a), condition_fingerprint(&hot_b));
        // ...and differ from the clean cube and from other levels.
        assert_ne!(condition_fingerprint(&hot_a), condition_fingerprint(&clean));
        let hot_c = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 8));
        assert_ne!(condition_fingerprint(&hot_a), condition_fingerprint(&hot_c));
    }

    #[test]
    fn crossover_takeover_handles_both_documented_ends() {
        let ladder = [20usize, 40, 80, 160, 320];
        // INFINITY — Standard never strictly beaten (incl. exact
        // ties) — maps to "no takeover", like a ladder whose winners
        // never settle on the singleton.
        assert_eq!(crossover_takeover(f64::INFINITY, &ladder), None);
        assert_eq!(crossover_takeover(f64::NAN, &ladder), None);
        // 0.0 — Optimal from the first byte — takes the whole ladder.
        assert_eq!(crossover_takeover(0.0, &ladder), Some(20));
        // Interior crossovers round up to the next ladder rung.
        assert_eq!(crossover_takeover(100.0, &ladder), Some(160));
        assert_eq!(crossover_takeover(160.0, &ladder), Some(160));
        // Past the ladder: indistinguishable from "never" at this
        // resolution.
        assert_eq!(crossover_takeover(400.0, &ladder), None);
        // Consistency with singleton_takeover on an idealized ladder:
        // winners = singleton from the crossover on.
        let cross = 100.0;
        let winners: Vec<(usize, &str)> = ladder
            .iter()
            .map(|&m| (m, if (m as f64) >= cross { "{6}" } else { "{3,3}" }))
            .collect();
        assert_eq!(singleton_takeover("{6}", winners), crossover_takeover(cross, &ladder));
    }

    #[test]
    fn faulted_scenario_returns_typed_error_not_panic() {
        // A fault on every dimension-0 link out of node 0 makes pairs
        // through it unroutable; run_scenario must surface the engine's
        // typed error with the failing cell's coordinates.
        let d = 3u32;
        let nc = NetCondition::default().with_fault(NodeId(0), 0);
        let cfg = SimConfig::ipsc860(d).with_netcond(nc);
        let parts = [Partition::new(vec![d])];
        let err = run_scenario("test/faulted", &cfg, &parts, &[32], build_cell).unwrap_err();
        assert_eq!(err.label, "test/faulted");
        assert_eq!(err.partition, "{3}");
        assert_eq!(err.block_size, 32);
        assert!(
            matches!(err.error, SimError::Unroutable { .. }),
            "expected Unroutable, got {:?}",
            err.error
        );
        // And the Display chain names the cell.
        let msg = err.to_string();
        assert!(msg.contains("{3}") && msg.contains("m=32"), "{msg}");
    }

    /// Minimal cell builder for the typed-error test: a one-way
    /// distance-1 send `0 -> 1` (killing that cable has no detour, so
    /// the run is unroutable up front). The real builder crates sit
    /// above this one; the error path only needs *a* cell that
    /// exercises the faulted link.
    fn build_cell(d: u32, _dims: &[u32], m: usize) -> (Vec<Program>, Vec<Vec<u8>>) {
        use crate::message::{MsgKind, Tag};
        use crate::program::Op;
        let n = 1usize << d;
        let mut programs = vec![Program::empty(); n];
        programs[0] = Program {
            ops: vec![Op::Send {
                dst: NodeId(1),
                from: 0..m,
                tag: Tag::data(0, 1),
                kind: MsgKind::Forced,
            }],
        };
        programs[1] = Program {
            ops: vec![
                Op::post_recv(NodeId(0), Tag::data(0, 1), 0..m),
                Op::wait_recv(NodeId(0), Tag::data(0, 1)),
            ],
        };
        let memories = (0..n).map(|_| vec![0u8; m.max(1)]).collect();
        (programs, memories)
    }
}
