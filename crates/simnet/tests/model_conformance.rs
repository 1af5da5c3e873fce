//! Model-vs-simulator conformance harness: the conditioned analytic
//! model (`mce_model::conditioned`) checked against batched simulator
//! runs over a grid of degraded-network scenarios.
//!
//! Two layers of assertion, per scenario:
//!
//! 1. every `(partition, block size)` cell's relative prediction error
//!    stays within the regime's documented tolerance (see
//!    `crates/model/README.md` for the measured envelope), and
//! 2. the *winner* — which partition is fastest — matches between
//!    model and simulator at every ladder step at least one step away
//!    from the simulated crossover (the paper's headline claim, now
//!    under degraded conditions).
//!
//! A third, exactness layer: a no-op `NetCondition` must reproduce the
//! unconditioned model bit for bit (the model-side mirror of the
//! engine's no-op guarantee in `netcond_properties`).
//!
//! The normal suite runs the quick grid (d ≤ 4, coarse ladder) so CI
//! fails fast; the full grid (d = 3..6, fine ladder, every regime) is
//! behind `#[ignore]`:
//!
//! ```text
//! cargo test -p mce-simnet --test model_conformance -- --ignored --nocapture
//! ```

use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_model::{crossover_block_size, multiphase_time, optimality_hull_affine_by, MachineParams};
use mce_simnet::conformance::{candidate_partitions, hotspot_condition, run_scenario};
use mce_simnet::netcond::SpeedProfile;
use mce_simnet::{NetCondition, Program, SimConfig};

/// Compile one conformance cell: the real multiphase exchange programs
/// (pairwise sync + per-phase barriers, as measured in the paper) over
/// stamped memories.
fn build(d: u32, dims: &[u32], m: usize) -> (Vec<Program>, Vec<Vec<u8>>) {
    (build_multiphase_programs(d, dims, m), stamped_memories(d, m))
}

/// One scenario: a label, the conditioned config, and the regime's
/// error tolerance.
struct Scenario {
    label: String,
    cfg: SimConfig,
    tolerance: f64,
}

/// Per-regime relative-error tolerances, as documented (and
/// re-measured) in `crates/model/README.md`. Deterministic slowdowns
/// are tight; seeded heterogeneity pays the per-dimension compression;
/// hotspot contention is a stochastic queueing estimate and gets the
/// widest band.
mod tol {
    /// No-op conditions: the unconditioned agreement bound.
    pub const NOOP: f64 = 0.02;
    /// Uniform and per-dimension slowdowns (exact factor maps).
    pub const DETERMINISTIC: f64 = 0.05;
    /// Seeded heterogeneous speeds (order-statistic compression; the
    /// error grows with the draw spread — 0.11 observed at `[1, 3]`,
    /// 0.15 at `[1, 6]`).
    pub const SEEDED: f64 = 0.18;
    /// Background-traffic hotspots (contention estimate).
    pub const HOTSPOT: f64 = 0.35;
    /// Store-and-forward variants of the above (seeded observed
    /// 0.08-0.16, growing with dimension).
    pub const SAF_DETERMINISTIC: f64 = 0.08;
    pub const SAF_SEEDED: f64 = 0.18;
}

/// A winner disagreement only counts when the model's pick is more
/// than this much slower (in *simulated* time) than the true winner —
/// plans closer than this run neck and neck and either answer is
/// defensible.
const WINNER_MARGIN: f64 = 0.05;

/// The scenario ladder of one dimension. `quick` keeps the set small
/// and the sizes coarse for the CI smoke run.
fn scenarios(d: u32, quick: bool) -> Vec<Scenario> {
    let base = SimConfig::ipsc860(d);
    let mut out = vec![
        Scenario {
            label: format!("d{d}/noop"),
            cfg: base.clone().with_netcond(NetCondition::default()),
            tolerance: tol::NOOP,
        },
        Scenario {
            label: format!("d{d}/uniform_x2"),
            cfg: base.clone().with_netcond(NetCondition::uniform_slowdown(2.0)),
            tolerance: tol::DETERMINISTIC,
        },
        Scenario {
            label: format!("d{d}/per_dimension_ramp"),
            cfg: base.clone().with_netcond(NetCondition {
                speed: SpeedProfile::PerDimension(
                    (0..d).map(|k| 1.0 + k as f64 * 2.0 / d as f64).collect(),
                ),
                ..Default::default()
            }),
            tolerance: tol::DETERMINISTIC,
        },
        Scenario {
            label: format!("d{d}/seeded_1_3"),
            cfg: base.clone().with_netcond(NetCondition::seeded_speeds(
                1.0,
                3.0,
                0x5EED + d as u64,
            )),
            tolerance: tol::SEEDED,
        },
        Scenario {
            label: format!("d{d}/hotspot_2"),
            cfg: base.clone().with_netcond(hotspot_condition(d, 2)),
            tolerance: tol::HOTSPOT,
        },
        Scenario {
            label: format!("d{d}/saf_uniform_x2"),
            cfg: base
                .clone()
                .with_store_and_forward()
                .with_netcond(NetCondition::uniform_slowdown(2.0)),
            tolerance: tol::SAF_DETERMINISTIC,
        },
    ];
    if !quick {
        out.push(Scenario {
            label: format!("d{d}/uniform_x4"),
            cfg: base.clone().with_netcond(NetCondition::uniform_slowdown(4.0)),
            tolerance: tol::DETERMINISTIC,
        });
        out.push(Scenario {
            label: format!("d{d}/seeded_1_6"),
            cfg: base.clone().with_netcond(NetCondition::seeded_speeds(
                1.0,
                6.0,
                0xFACE + d as u64,
            )),
            tolerance: tol::SEEDED,
        });
        out.push(Scenario {
            label: format!("d{d}/hotspot_6"),
            cfg: base.clone().with_netcond(hotspot_condition(d, 6)),
            tolerance: tol::HOTSPOT,
        });
        out.push(Scenario {
            label: format!("d{d}/saf_seeded_1_3"),
            cfg: base.clone().with_store_and_forward().with_netcond(NetCondition::seeded_speeds(
                1.0,
                3.0,
                0xBEEF + d as u64,
            )),
            tolerance: tol::SAF_SEEDED,
        });
    }
    out
}

/// A block-size ladder straddling the clean crossover of dimension
/// `d`, so winner agreement is exercised on both sides of it. The
/// reference point is the hull's singleton takeover when `{d}` has a
/// face (the winner boundary the grid must bracket; the first whole
/// block size on that face), the raw Eq. 1/2 crossover otherwise.
fn sizes(d: u32, quick: bool) -> Vec<usize> {
    let params = MachineParams::ipsc860();
    let raw = crossover_block_size(&params, d);
    let hull_takeover =
        optimality_hull_affine_by(d, |m, part| multiphase_time(&params, m, d, part.parts()))
            .into_iter()
            .find(|f| f.partition.parts() == [d])
            .map(|f| f.from.ceil());
    let cross = hull_takeover.unwrap_or(raw).max(raw).max(8.0);
    let steps: &[f64] =
        if quick { &[0.25, 0.75, 1.5, 3.0] } else { &[0.2, 0.5, 0.8, 1.1, 1.5, 2.2, 3.0] };
    let mut sizes: Vec<usize> = steps.iter().map(|s| ((cross * s) as usize).max(4)).collect();
    sizes.dedup();
    sizes
}

fn run_grid(dimensions: &[u32], quick: bool) {
    let params = MachineParams::ipsc860();
    for &d in dimensions {
        let parts = candidate_partitions(&params, d, 512.0);
        let sizes = sizes(d, quick);
        for scenario in scenarios(d, quick) {
            // Conformance grids are routable by construction, so a
            // typed ScenarioError here is a harness bug — unwrap it.
            let outcome = run_scenario(&scenario.label, &scenario.cfg, &parts, &sizes, build)
                .unwrap_or_else(|e| panic!("{e}"));
            println!(
                "{:<24} max_rel_err {:6.3} (tolerance {:.2}) sim takeover {:?} model takeover {:?}",
                outcome.label,
                outcome.max_rel_err,
                scenario.tolerance,
                outcome.simulated_singleton_takeover(),
                outcome.predicted_singleton_takeover(),
            );
            assert!(
                outcome.max_rel_err <= scenario.tolerance,
                "{}: relative error {:.3} exceeds tolerance {:.2}\ncells: {:#?}",
                outcome.label,
                outcome.max_rel_err,
                scenario.tolerance,
                outcome
                    .cells
                    .iter()
                    .map(|c| format!(
                        "{} m={}: sim {:.0} pred {:.0} err {:.3}",
                        c.partition,
                        c.block_size,
                        c.simulated_us,
                        c.predicted_us,
                        c.rel_err()
                    ))
                    .collect::<Vec<_>>()
            );
            let disagreements = outcome.winner_disagreements_off_crossover(WINNER_MARGIN);
            assert!(
                disagreements.is_empty(),
                "{}: winner mismatch away from the crossover at sizes {:?}\nsim winners {:?}\nmodel winners {:?}\nladder {:?}",
                outcome.label,
                disagreements.iter().map(|&i| outcome.sizes[i]).collect::<Vec<_>>(),
                outcome.simulated_winner,
                outcome.predicted_winner,
                outcome.sizes,
            );
        }
    }
}

/// CI smoke grid: d ≤ 4, coarse ladder, core regimes. Fails fast.
#[test]
fn quick_grid_conforms() {
    run_grid(&[3, 4], true);
}

/// The full grid: every dimension 3..6, fine ladder, every regime.
/// Run with `cargo test -p mce-simnet --test model_conformance --
/// --ignored --nocapture` (a few minutes of simulation).
#[test]
#[ignore = "full conformance grid; run explicitly via -- --ignored"]
fn full_grid_conforms() {
    run_grid(&[3, 4, 5, 6], false);
}

/// No-op conditions (every encoding family) reproduce the
/// unconditioned model *bit for bit* through the extraction path —
/// the model-side mirror of the engine's no-op bit-identity.
#[test]
fn noop_summary_is_bit_exact_through_extraction() {
    use mce_simnet::conformance::predicted_us;
    for d in 1..=6u32 {
        let noops = [
            NetCondition::default(),
            NetCondition::uniform_slowdown(1.0),
            NetCondition {
                speed: SpeedProfile::PerDimension(vec![1.0; d as usize]),
                ..Default::default()
            },
            NetCondition::seeded_speeds(1.0, 1.0, 0xD15EA5E),
        ];
        for nc in noops {
            let clean = SimConfig::ipsc860(d);
            let conditioned = clean.clone().with_netcond(nc);
            for dims in [vec![d], vec![1; d as usize]] {
                for m in [1usize, 40, 160] {
                    let a = predicted_us(&clean, &dims, m);
                    let b = predicted_us(&conditioned, &dims, m);
                    assert_eq!(a.to_bits(), b.to_bits(), "d={d} dims={dims:?} m={m}");
                }
            }
        }
    }
}
