//! Simulator-backed fallback for out-of-envelope conditions.
//!
//! The conditioned model's contention term is a dilute-traffic
//! estimate: dense anti-phased hotspot ladders can phase-lock
//! multi-hop circuits out of the network entirely, a cliff the
//! accuracy envelope in `crates/model/README.md` explicitly excludes.
//! When a query's condition looks like that regime, the engine prices
//! the candidate partitions by *running* them and answers from
//! measurement. The question is which candidate finishes first, so a
//! candidate is simulated only as far as the best finish time seen so
//! far, and not at all when its price floor already passes it: see
//! [`simulate_answer`].

use mce_core::builder::build_multiphase_programs;
use mce_model::ConditionSummary;
use mce_partitions::Partition;
use mce_simnet::conformance::{candidate_partitions, predicted_us_with, ScenarioError};
use mce_simnet::{finish_floor, SimArena, SimConfig, SimError, SimTime};

/// Whether a condition sits outside the model's accuracy envelope:
/// some dimension's *saturated hit rate* — the fraction of that
/// dimension's links a background stream touches, times its duty
/// cycle saturated at 2× utilization (the same saturation the
/// conditioned model's private `tuning::UTIL_SATURATION` applies) —
/// reaches `threshold`. Dense anti-phased ladders (many streams, high
/// duty) cross it; the dilute scenarios the conformance harness
/// certifies stay well under.
pub fn out_of_envelope(cond: &ConditionSummary, threshold: f64) -> bool {
    cond.contention().iter().any(|c| c.touch * (2.0 * c.util).min(1.0) >= threshold)
}

/// The measured winner of one query's candidate set.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulated {
    /// The candidate that finished first.
    pub partition: Partition,
    /// Its simulated finish time, µs.
    pub simulated_us: f64,
    /// Candidates abandoned at the incumbent's finish time instead of
    /// being run to completion, the skipped ones included.
    pub cut_runs: u32,
    /// Candidates never simulated: their price floor
    /// ([`mce_simnet::finish_floor`]) already passed the incumbent's
    /// finish time. Each is also one of the `cut_runs`.
    pub skipped: u32,
}

/// Simulate one query's candidate set at block size `m` under `cfg`,
/// whose condition `cond` summarizes, and return the measured winner.
///
/// Candidates are the same cast every conformance grid compares: the
/// clean hull's partitions plus Standard Exchange, and the answer is
/// the one `conformance::run_scenario` names over that cast at `[m]` —
/// the least `(finish time, cast index)` — without running the losers
/// out. The candidates run one after another on one arena, on
/// zero-filled memories, the one the model likes best first — bounded
/// only by [`SimTime::HORIZON`], so it stops when its programs do and
/// leaves the background streams' tail unsimulated — and each later
/// one only [until](SimArena::run_until) the best finish time so far:
/// a run cut there cannot be the minimum, and one that ties it
/// finishes and is compared by cast index, so the order decides what
/// the answer costs and never what it is. A later candidate whose
/// [price floor](mce_simnet::finish_floor) is already past that time
/// cannot finish by it either: it is skipped — never compiled or
/// simulated — and counted as cut.
///
/// # Errors
///
/// The typed [`ScenarioError`] of the first candidate in cast order
/// whose simulation failed (e.g. an unroutable pair under a faulted
/// condition; the floor reports the run's own) — the caller degrades
/// to the analytic hull answer. A failure hidden behind a cut or a
/// skip is not one: that candidate had lost.
pub fn simulate_answer(
    cfg: &SimConfig,
    cond: &ConditionSummary,
    m: usize,
) -> Result<Simulated, ScenarioError> {
    let m_max = (4 * m).max(512) as f64;
    let cast = candidate_partitions(&cfg.params, cfg.dimension, m_max);
    let predicted: Vec<f64> =
        cast.iter().map(|p| predicted_us_with(cfg, cond, p.parts(), m)).collect();
    let mut order: Vec<usize> = (0..cast.len()).collect();
    order.sort_by(|&a, &b| predicted[a].total_cmp(&predicted[b]));
    let ran = simulate_in_order(cfg, &cast, &order, m)?;
    Ok(Simulated {
        partition: cast[ran.winner].clone(),
        simulated_us: ran.finish.as_us(),
        cut_runs: ran.cut_runs,
        skipped: ran.skipped,
    })
}

/// What [`simulate_in_order`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ran {
    /// The winner's cast index.
    winner: usize,
    /// Its finish time.
    finish: SimTime,
    /// Runs cut at the incumbent, skipped ones included.
    cut_runs: u32,
    /// Candidates whose floor passed the incumbent.
    skipped: u32,
}

/// Run `cast`'s members in `order` (a permutation of its indices),
/// each bounded by the best finish time before it — or skipped when
/// its floor is already past that — and report the winner.
fn simulate_in_order(
    cfg: &SimConfig,
    cast: &[Partition],
    order: &[usize],
    m: usize,
) -> Result<Ran, ScenarioError> {
    let d = cfg.dimension;
    // The engine prices a transmission by its length alone and nothing
    // here reads a byte back, so memories of the stamped shape filled
    // with zeros finish every run exactly when stamped ones would.
    let n = 1usize << d;
    let memories = || vec![vec![0u8; n * m]; n];
    let mut arena = SimArena::new();
    let mut best: Option<(SimTime, usize)> = None;
    let mut failed: Option<(usize, SimError)> = None;
    let (mut cut_runs, mut skipped) = (0, 0);
    for &i in order {
        let programs = build_multiphase_programs(d, cast[i].parts(), m);
        let run = match best {
            // Nothing to beat yet: bounded by the horizon, the run stops
            // when its programs do instead of running the background
            // out.
            None => arena.run_until(cfg, &programs, memories(), SimTime::HORIZON),
            Some((finish, _)) => match finish_floor(cfg, &programs) {
                Ok(floor) if floor > finish => {
                    skipped += 1;
                    Ok(None)
                }
                Ok(_) => arena.run_until(cfg, &programs, memories(), finish),
                Err(error) => Err(error),
            },
        };
        match run {
            Ok(Some(run)) => {
                let key = (run.finish_time, i);
                if best.is_none_or(|incumbent| key < incumbent) {
                    best = Some(key);
                }
            }
            Ok(None) => cut_runs += 1,
            Err(error) if failed.as_ref().is_none_or(|&(first, _)| i < first) => {
                failed = Some((i, error));
            }
            Err(_) => {}
        }
    }
    if let Some((i, error)) = failed {
        return Err(ScenarioError {
            label: "plan/fallback".to_string(),
            partition: cast[i].to_string(),
            block_size: m,
            error,
        });
    }
    let (finish, winner) = best.expect("a cast is never empty, and no member failed");
    Ok(Ran { winner, finish, cut_runs, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_simnet::conformance::{condition_summary, hotspot_condition};

    #[test]
    fn dense_ladders_are_out_dilute_are_in() {
        let d = 3u32;
        let dense = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 8));
        assert!(out_of_envelope(&condition_summary(&dense), 0.5));
        let dilute = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 2));
        assert!(!out_of_envelope(&condition_summary(&dilute), 0.5));
        assert!(!out_of_envelope(&ConditionSummary::noop(d), 0.5));
    }

    #[test]
    fn the_order_of_the_runs_never_changes_the_answer() {
        // A cast with a tie built in: {2,1} twice, around the
        // singleton. Whichever runs first, the tie goes to the lower
        // cast index and the time is the exhaustive minimum.
        let d = 3u32;
        let cfg = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 8));
        let cast =
            [Partition::new(vec![2, 1]), Partition::new(vec![3]), Partition::new(vec![2, 1])];
        let alone = |i: usize| simulate_in_order(&cfg, &cast, &[i], 64).unwrap().finish;
        assert_eq!(alone(0), alone(2));
        assert!(alone(0) < alone(1), "the tied pair must be the one that wins");
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let ran = simulate_in_order(&cfg, &cast, &order, 64).unwrap();
            assert_eq!((ran.winner, ran.finish), (0, alone(0)), "order {order:?}");
            assert!(ran.cut_runs <= 1, "a tie finishes, it is not cut: order {order:?}");
            assert!(ran.skipped <= ran.cut_runs, "order {order:?}");
        }
    }

    #[test]
    fn simulated_winner_comes_from_the_candidate_cast() {
        let d = 3u32;
        let cfg = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 8));
        let won = simulate_answer(&cfg, &condition_summary(&cfg), 64).expect("routable scenario");
        assert_eq!(won.partition.total(), d);
        assert!(won.simulated_us > 0.0);
    }
}
