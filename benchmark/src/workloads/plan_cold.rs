//! `plan_cold` — planner queries that miss the hull cache, and queries
//! that fall through to the simulator.
//!
//! Per pass a fresh `PlanEngine::default()` answers 1 500
//! seed-generated d10 conditions with pairwise distinct fingerprints,
//! one by one: every answer is a miss that builds a hull
//! (`mce_model::conditioned`), and 1 500 exceeds the 1 024-hull
//! capacity, so the LRU evicts. Then eight dense hotspot-ladder `Net`
//! queries at d6 and d7 leave the model's accuracy envelope and are
//! answered by simulation (`conformance::run_scenario`). The warm path
//! is under 1 % of the pass.

use crate::harness::{Checked, Scale, Workload};
use crate::layers::{PASS, PLAN_FALLBACK, PLAN_MISS};
use crate::probes;
use crate::rng::SplitMix64;
use crate::span::Recorder;
use crate::stats::{median, percentile};
use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_model::{conditioned_best_partition, ConditionSummary, MachineParams};
use mce_plan::{AnswerSource, PlanAnswer, PlanEngine, PlanQuery, PlanStats};
use mce_simnet::conformance::{
    candidate_partitions, condition_summary, hotspot_condition, run_scenario,
};
use mce_simnet::SimConfig;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Oracle comparisons made after the measurement.
const ORACLE_SAMPLES: usize = 100;

/// `count` conditions of dimension `d` whose fingerprints are pairwise
/// distinct: per-dimension link slowdowns drawn from the seed, redrawn
/// on the (rare) fingerprint collision.
pub fn distinct_conditions(d: u32, count: usize, rng: &mut SplitMix64) -> Vec<ConditionSummary> {
    let links_per_dim = 1usize << d;
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        // Every link of dimension k runs `lo_k..hi_k` times slower.
        let spans: Vec<(f64, f64)> = (0..d)
            .map(|_| {
                let lo = rng.uniform(1.0, 3.0);
                (lo, lo + rng.uniform(0.0, 2.0))
            })
            .collect();
        let factors: Vec<f64> = (0..links_per_dim)
            .flat_map(|_| spans.clone())
            .map(|(lo, hi)| rng.uniform(lo, hi))
            .collect();
        let condition = ConditionSummary::from_link_factors(d, &factors);
        if seen.insert(condition.fingerprint().words().to_vec()) {
            out.push(condition);
        }
    }
    out
}

/// See the module docs.
pub struct PlanCold {
    machine: MachineParams,
    miss_d: u32,
    conditions: Vec<ConditionSummary>,
    misses: Vec<PlanQuery>,
    fallbacks: Vec<PlanQuery>,
    /// Answers and engine counters of the last pass.
    last: Vec<PlanAnswer>,
    stats: Option<PlanStats>,
    /// Per-query latencies over every pass so far.
    miss_us: Vec<f64>,
    fallback_ms: Vec<f64>,
}

impl Workload for PlanCold {
    const NAME: &'static str = "plan_cold";

    fn setup(seed: u64, scale: Scale) -> PlanCold {
        let (miss_d, count, fallback_dims): (u32, usize, &[u32]) = match scale {
            Scale::Full => (10, 1500, &[6, 7]),
            // Still past the default engine's 1 024-hull capacity.
            Scale::Quick => (6, 1100, &[5]),
        };
        let machine = MachineParams::ipsc860();
        let conditions = distinct_conditions(miss_d, count, &mut SplitMix64::new(seed, 0));
        let mut rng = SplitMix64::new(seed, 1);
        let misses = conditions
            .iter()
            .map(|cond| {
                PlanQuery::clean(miss_d, rng.uniform(1.0, 400.0).round(), machine.clone())
                    .with_summary(cond.clone())
            })
            .collect();
        // Dense ladders, 2^(d-1) to 2^d streams: out of the envelope.
        let fallbacks = fallback_dims
            .iter()
            .flat_map(|&d| {
                let n = 1u32 << d;
                [n / 2, 5 * n / 8, 3 * n / 4, n].map(|level| (d, level))
            })
            .map(|(d, level)| {
                let m = 8.0 * (2 + rng.below(7)) as f64;
                PlanQuery::clean(d, m, machine.clone()).with_netcond(hotspot_condition(d, level))
            })
            .collect();
        PlanCold {
            machine,
            miss_d,
            conditions,
            misses,
            fallbacks,
            last: Vec::new(),
            stats: None,
            miss_us: Vec::new(),
            fallback_ms: Vec::new(),
        }
    }

    fn layered_pass(&mut self, rec: &mut Recorder) {
        let open = rec.enter(PASS);
        let engine = PlanEngine::default();
        self.last.clear();
        for q in &self.misses {
            let t0 = Instant::now();
            let answer = rec.time(PLAN_MISS, || engine.answer(q));
            self.miss_us.push(t0.elapsed().as_secs_f64() * 1e6);
            self.last.push(answer);
        }
        for q in &self.fallbacks {
            let t0 = Instant::now();
            let answer = rec.time(PLAN_FALLBACK, || engine.answer(q));
            self.fallback_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.last.push(answer);
        }
        let stats = engine.stats();
        rec.count("plan.cache.hits", stats.hits as f64);
        rec.count("plan.cache.misses", stats.misses as f64);
        rec.count("plan.cache.evictions", stats.evictions as f64);
        rec.count("plan.fallback.count", stats.fallbacks as f64);
        rec.count("plan.fallback.errors", stats.fallback_errors as f64);
        self.stats = Some(stats);
        rec.exit(open);
    }

    fn check(&mut self, out: &mut Checked) {
        let stats = self.stats.expect("a pass ran");
        let (misses, fallbacks) = (self.misses.len() as u64, self.fallbacks.len() as u64);
        out.expect(
            stats.misses == misses
                && stats.hits == 0
                && stats.fallbacks == fallbacks
                && stats.fallback_errors == 0
                && stats.evictions > 0,
            || {
                format!(
                    "engine counted {stats:?}; generated {misses} misses, {fallbacks} fallbacks"
                )
            },
        );
        for (i, answer) in self.last.iter().enumerate() {
            let expected =
                if i < self.misses.len() { AnswerSource::Hull } else { AnswerSource::Fallback };
            out.expect(answer.source == expected && answer.predicted_us > 0.0, || {
                format!("query {i}: {answer:?}, expected a {expected:?} answer")
            });
            out.digest.float(answer.predicted_us);
            out.digest.text(&answer.best_partition.to_string());
        }
        out.digest.word(stats.evictions);
    }

    fn verify(&mut self, out: &mut Checked) {
        let stride = (self.misses.len() / ORACLE_SAMPLES).max(1);
        for i in (0..self.misses.len()).step_by(stride) {
            let q = &self.misses[i];
            let (best, _) =
                conditioned_best_partition(&self.machine, q.m, self.miss_d, &self.conditions[i]);
            out.expect(self.last[i].best_partition == best, || {
                format!("miss {i}: engine {} != fold {best}", self.last[i].best_partition)
            });
        }
    }

    fn work_per_pass(&self) -> u64 {
        (self.misses.len() + self.fallbacks.len()) as u64
    }

    fn extras(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            ("miss_p50_us", "us", median(&self.miss_us)),
            ("miss_p99_us", "us", percentile(&self.miss_us, 99.0)),
            ("fallback_p50_ms", "ms", median(&self.fallback_ms)),
        ]
    }

    fn probes(&mut self, metrics: &mut BTreeMap<String, f64>) {
        metrics.insert("plan.engine.miss_p50_us".into(), median(&self.miss_us));
        metrics.insert("plan.engine.miss_p99_us".into(), percentile(&self.miss_us, 99.0));
        metrics.insert("plan.fallback.p50_ms".into(), median(&self.fallback_ms));
        probes::planner_layers(self.miss_d, &self.conditions, metrics);

        // The simulator's share of the fallback answers: the same
        // conformance grids `mce_plan::fallback` runs, called directly.
        let (mut summary_s, mut scenario_s) = (0.0, 0.0);
        for q in &self.fallbacks {
            let mce_plan::QueryCondition::Net(nc) = &q.condition else { continue };
            let cfg = SimConfig::ipsc860(q.d).with_netcond(nc.clone());
            let t0 = Instant::now();
            std::hint::black_box(condition_summary(&cfg));
            summary_s += t0.elapsed().as_secs_f64();
            let m = q.m.round() as usize;
            let candidates = candidate_partitions(&cfg.params, q.d, (4 * m).max(512) as f64);
            let t0 = Instant::now();
            let outcome =
                run_scenario("plan/fallback", &cfg, &candidates, &[m], |d, dims, bytes| {
                    (build_multiphase_programs(d, dims, bytes), stamped_memories(d, bytes))
                });
            scenario_s += t0.elapsed().as_secs_f64();
            assert!(outcome.is_ok(), "fallback grid failed outside the engine: {outcome:?}");
        }
        metrics.insert("simnet.conformance.scenario_s".into(), scenario_s);
        // The engine summarizes inside `answer`, where no span reaches;
        // the directly measured total stands in for the span's self time.
        metrics.insert("simnet.conformance.summary_s".into(), summary_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_conditions_have_distinct_fingerprints_and_follow_the_seed() {
        let generate = |seed| distinct_conditions(6, 300, &mut SplitMix64::new(seed, 0));
        let a = generate(1991);
        let keys: HashSet<Vec<u64>> = a.iter().map(|c| c.fingerprint().words().to_vec()).collect();
        assert_eq!(keys.len(), 300, "every condition must own a cache key");
        assert!(a == generate(1991), "same seed, same conditions");
        assert!(a != generate(1992), "another seed, other conditions");
    }

    #[test]
    fn dense_ladders_leave_the_envelope_and_dilute_summaries_stay_in() {
        let w = PlanCold::setup(7, Scale::Quick);
        for q in &w.fallbacks {
            let mce_plan::QueryCondition::Net(nc) = &q.condition else { panic!("Net query") };
            let cfg = SimConfig::ipsc860(q.d).with_netcond(nc.clone());
            assert!(mce_plan::out_of_envelope(&condition_summary(&cfg), 0.5), "d{}", q.d);
        }
    }
}
