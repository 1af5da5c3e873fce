//! Planner-as-a-service A/B study: warm [`mce_plan::PlanEngine`]
//! queries against per-query `conditioned_best_partition` enumeration.
//!
//! This is the `repro plan` artifact, not the performance scoreboard:
//! planner throughput is tracked by the perf ledger (`benchmark/`,
//! workloads `plan_warm` · `work_per_s`, `plan.engine.memo_qps`,
//! `plan.engine.shuffled_qps` and `plan_cold` · `plan.engine.miss_s`,
//! `model.hull.search_s`). The study keeps an interleaved shape: the
//! container's wall clock drifts between sessions, so each round runs
//! **one** timed pass of every workload per side, alternating which
//! side goes first, and the scoreboard is the per-side median over all
//! rounds. Condition summaries are precomputed for *both* sides — the
//! uncached side pays only the model enumeration, which is exactly the
//! cost the hull cache claims to delete.
//!
//! Both sides answer the identical query stream (several network
//! conditions × a block-size sweep), and every warm answer's winning
//! partition is checked against the uncached fold before any timing —
//! a disagreement fails the study rather than skewing it.

use mce_model::{conditioned_best_partition, ConditionSummary, MachineParams};
use mce_plan::{FallbackPolicy, PlanEngine, PlanOptions, PlanQuery};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Study shape: which cube dimensions, which block sizes, how many
/// timed rounds.
pub struct PlanStudyOptions {
    /// Cube dimensions, one scoreboard row each.
    pub dims: Vec<u32>,
    /// Block sizes swept per condition.
    pub sizes: Vec<usize>,
    /// Timed rounds (median taken per side).
    pub rounds: usize,
}

impl PlanStudyOptions {
    /// The full A/B: d ∈ {6, 8, 10}, 50 sizes, 5 rounds.
    pub fn full() -> PlanStudyOptions {
        PlanStudyOptions {
            dims: vec![6, 8, 10],
            sizes: (0..50).map(|i| 1 + i * 8).collect(),
            rounds: 5,
        }
    }

    /// CI smoke shape: d = 6 only, a short sweep, 2 rounds.
    pub fn quick() -> PlanStudyOptions {
        PlanStudyOptions { dims: vec![6], sizes: (0..12).map(|i| 1 + i * 32).collect(), rounds: 2 }
    }
}

/// One scoreboard row (one cube dimension).
#[derive(Debug, Clone, Serialize)]
pub struct PlanRow {
    /// Cube dimension.
    pub d: u32,
    /// Distinct network conditions in the stream.
    pub conditions: usize,
    /// Queries per timed pass (`conditions × sizes`).
    pub queries: usize,
    /// Uncached side: full `conditioned_best_partition` enumerations
    /// per second.
    pub uncached_qps: f64,
    /// Warm side: cache-hit engine answers per second, queries grouped
    /// by condition (the service-shaped stream: consecutive answers
    /// probe the same shard and search the same hull).
    pub warm_qps: f64,
    /// Warm side with the condition changing every query: the same
    /// path — kept fingerprint, sharded-cache probe, face search —
    /// with a different shard and hull each time.
    pub warm_shuffled_qps: f64,
    /// `warm_qps / uncached_qps`.
    pub speedup: f64,
    /// `warm_shuffled_qps / uncached_qps`.
    pub shuffled_speedup: f64,
    /// One-time cost of building every hull in the stream
    /// (`answer_batch` on a fresh engine), milliseconds.
    pub cold_build_ms: f64,
    /// Hulls built during the cold pass (one per condition).
    pub hulls_built: u64,
}

/// A few representative answers, for the artifact's benefit.
#[derive(Debug, Clone, Serialize)]
pub struct PlanSample {
    /// Cube dimension.
    pub d: u32,
    /// Condition label.
    pub condition: String,
    /// Block size, bytes.
    pub m: f64,
    /// Winning partition (warm engine; checked equal to the fold).
    pub partition: String,
    /// Named-algorithm classification.
    pub algorithm: String,
    /// Predicted exchange time, µs.
    pub predicted_us: f64,
}

/// The study artifact (`target/repro/plan.json`).
#[derive(Debug, Clone, Serialize)]
pub struct PlanReport {
    /// Timed rounds behind every median.
    pub rounds: usize,
    /// Per-dimension scoreboard.
    pub rows: Vec<PlanRow>,
    /// Representative answers at m = 40 B.
    pub samples: Vec<PlanSample>,
}

/// The condition cast: nominal, two uniform slowdowns, heterogeneous
/// per-link factors, and two dilute background-stream mixes — all
/// inside the model's accuracy envelope, so both sides answer
/// analytically and the comparison is pure query cost.
pub fn study_conditions(d: u32) -> Vec<(String, ConditionSummary)> {
    let n = 1usize << d;
    let dims = d as usize;
    let uniform = |f: f64| ConditionSummary::from_link_factors(d, &vec![f; n * dims]);
    let hetero = {
        let factors: Vec<f64> = (0..n * dims)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
                1.0 + (h % 1500) as f64 / 1000.0
            })
            .collect();
        ConditionSummary::from_link_factors(d, &factors)
    };
    let streams = |count: u32, busy: f64| {
        let mut c = ConditionSummary::noop(d);
        for j in 0..count {
            let mask = 1 + (j * 7 + 3) % ((1u32 << d) - 1);
            c.add_stream(mask, busy, 2400.0);
        }
        c
    };
    vec![
        ("clean".into(), ConditionSummary::noop(d)),
        ("uniform_1.5x".into(), uniform(1.5)),
        ("uniform_3x".into(), uniform(3.0)),
        ("hetero_links".into(), hetero),
        ("streams_dilute".into(), streams(2, 120.0)),
        ("streams_busy".into(), streams(4, 420.0)),
    ]
}

/// Run the A/B and return the report. Panics if any warm answer's
/// winning partition disagrees with the direct enumeration fold —
/// the exactness contract is a precondition of the comparison.
pub fn plan_study(opts: &PlanStudyOptions) -> PlanReport {
    let machine = MachineParams::ipsc860();
    let mut rows = Vec::new();
    let mut samples = Vec::new();

    for &d in &opts.dims {
        let conditions = study_conditions(d);
        let queries: Vec<(usize, f64)> = conditions
            .iter()
            .enumerate()
            .flat_map(|(ci, _)| opts.sizes.iter().map(move |&m| (ci, m as f64)))
            .collect();
        let plan_queries: Vec<PlanQuery> = queries
            .iter()
            .map(|&(ci, m)| {
                PlanQuery::clean(d, m, machine.clone()).with_summary(conditions[ci].1.clone())
            })
            .collect();
        // Size-major order: the condition changes on every consecutive
        // query, so each answer probes another shard and searches
        // another hull than the one before it.
        let shuffled: Vec<&PlanQuery> = (0..opts.sizes.len())
            .flat_map(|si| (0..conditions.len()).map(move |ci| ci * opts.sizes.len() + si))
            .map(|i| &plan_queries[i])
            .collect();

        // Cold pass: a fresh engine builds every hull batch-parallel.
        let engine = PlanEngine::new(PlanOptions {
            fallback: FallbackPolicy::Never,
            ..PlanOptions::default()
        });
        let t0 = Instant::now();
        let cold_answers = engine.answer_batch(&plan_queries);
        let cold_build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let hulls_built = engine.stats().misses;

        // Agreement gate, outside any timer.
        for (&(ci, m), a) in queries.iter().zip(&cold_answers) {
            let (best, _) = conditioned_best_partition(&machine, m, d, &conditions[ci].1);
            assert_eq!(
                a.best_partition, best,
                "warm/uncached winner disagreement at d={d} cond={} m={m}",
                conditions[ci].0
            );
        }

        // Interleaved timed rounds over the pre-warmed engine.
        let mut uncached_s = Vec::with_capacity(opts.rounds);
        let mut warm_s = Vec::with_capacity(opts.rounds);
        let mut shuffled_s = Vec::with_capacity(opts.rounds);
        let run_uncached = || {
            let t = Instant::now();
            for &(ci, m) in &queries {
                black_box(conditioned_best_partition(&machine, m, d, &conditions[ci].1));
            }
            t.elapsed().as_secs_f64()
        };
        let run_warm = |stream: &[&PlanQuery]| {
            let t = Instant::now();
            for q in stream {
                black_box(engine.answer(q));
            }
            t.elapsed().as_secs_f64()
        };
        let grouped: Vec<&PlanQuery> = plan_queries.iter().collect();
        // Untimed warm-up of every side.
        run_uncached();
        run_warm(&grouped);
        run_warm(&shuffled);
        for round in 0..opts.rounds {
            if round % 2 == 0 {
                uncached_s.push(run_uncached());
                warm_s.push(run_warm(&grouped));
                shuffled_s.push(run_warm(&shuffled));
            } else {
                shuffled_s.push(run_warm(&shuffled));
                warm_s.push(run_warm(&grouped));
                uncached_s.push(run_uncached());
            }
        }

        let nq = queries.len() as f64;
        let uncached_qps = nq / median(&mut uncached_s);
        let warm_qps = nq / median(&mut warm_s);
        let warm_shuffled_qps = nq / median(&mut shuffled_s);
        rows.push(PlanRow {
            d,
            conditions: conditions.len(),
            queries: queries.len(),
            uncached_qps,
            warm_qps,
            warm_shuffled_qps,
            speedup: warm_qps / uncached_qps,
            shuffled_speedup: warm_shuffled_qps / uncached_qps,
            cold_build_ms,
            hulls_built,
        });

        for (label, cond) in &conditions {
            let q = PlanQuery::clean(d, 40.0, machine.clone()).with_summary(cond.clone());
            let a = engine.answer(&q);
            samples.push(PlanSample {
                d,
                condition: label.clone(),
                m: 40.0,
                partition: format!("{}", a.best_partition),
                algorithm: format!("{:?}", a.algorithm),
                predicted_us: a.predicted_us,
            });
        }
    }

    PlanReport { rounds: opts.rounds, rows, samples }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_plan::{AnswerSource, PlanHull};
    use mce_simnet::config::SwitchingMode;

    /// The perf ledger's `plan_warm` cast — d 6/8/10 × the six study
    /// conditions × 50 block sizes — answered one by one, as a batch,
    /// and by a reference that has no engine, cache or kept key at
    /// all: a hull built on the spot and its face read directly.
    #[test]
    fn warm_cast_answers_equal_a_cache_free_reference_bit_for_bit() {
        let machine = MachineParams::ipsc860();
        let cast: Vec<(u32, ConditionSummary, f64)> = [6u32, 8, 10]
            .into_iter()
            .flat_map(|d| study_conditions(d).into_iter().map(move |(_, cond)| (d, cond)))
            .flat_map(|(d, cond)| (0..50).map(move |i| (d, cond.clone(), (1 + i * 8) as f64)))
            .collect();
        assert_eq!(cast.len(), 900);
        let queries: Vec<PlanQuery> = cast
            .iter()
            .map(|(d, cond, m)| {
                PlanQuery::clean(*d, *m, machine.clone()).with_summary(cond.clone())
            })
            .collect();
        let engine = PlanEngine::new(PlanOptions {
            fallback: FallbackPolicy::Never,
            ..PlanOptions::default()
        });
        let batch = engine.answer_batch(&queries);
        let single: Vec<_> = queries.iter().map(|q| engine.answer(q)).collect();
        assert_eq!(batch, single);
        for ((d, cond, m), a) in cast.iter().zip(&single) {
            let hull = PlanHull::build(&machine, SwitchingMode::Circuit, *d, cond);
            let (part, us) = if hull.near_boundary(*m) {
                conditioned_best_partition(&machine, *m, *d, cond)
            } else {
                let face = hull.face(*m);
                (face.partition.clone(), face.time_at(*m))
            };
            assert_eq!(a.source, AnswerSource::Hull);
            assert_eq!(a.best_partition, part, "d{d} m={m}");
            assert_eq!(a.predicted_us.to_bits(), us.to_bits(), "d{d} m={m}");
        }
        assert_eq!(engine.stats().misses, 18);
    }

    #[test]
    fn quick_study_produces_consistent_rows() {
        let report = plan_study(&PlanStudyOptions::quick());
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.d, 6);
        assert_eq!(row.queries, row.conditions * 12);
        assert_eq!(row.hulls_built as usize, row.conditions);
        assert!(row.uncached_qps > 0.0 && row.warm_qps > 0.0);
        assert_eq!(report.samples.len(), row.conditions);
        // Every sample names a real partition of d.
        for s in &report.samples {
            assert!(s.partition.starts_with('{') && s.partition.ends_with('}'));
            assert!(s.predicted_us > 0.0);
        }
    }
}
