//! `plan_warm` — warm planner queries.
//!
//! A pre-warmed `PlanEngine` (`FallbackPolicy::Never`) holds 18 hulls:
//! d = 6, 8, 10 times the six conditions of
//! `plan_study::study_conditions`. A pass answers the 900-query stream
//! (18 conditions × 50 block sizes) `LOOPS` times grouped by condition —
//! the front memo serves it — and `LOOPS` times in a seed-shuffled
//! order — fingerprint plus sharded-cache fetch per query. The working
//! set is far below the cache capacity: the model, hull builds and the
//! simulator are bypassed, and a timed section that builds a hull is a
//! failure.

use crate::harness::{Checked, Scale, Workload};
use crate::layers::{self, PASS, PLAN_MEMO, PLAN_SHUFFLED};
use crate::probes;
use crate::rng::SplitMix64;
use crate::span::Recorder;
use mce_bench::plan_study::study_conditions;
use mce_model::{conditioned_best_partition, ConditionSummary, MachineParams};
use mce_plan::{
    AnswerSource, FallbackPolicy, PlanAnswer, PlanEngine, PlanOptions, PlanQuery, PlanStats,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// See the module docs.
pub struct PlanWarm {
    engine: PlanEngine,
    /// Queries grouped by condition, with their summary's index.
    queries: Vec<PlanQuery>,
    conditions: Vec<(u32, ConditionSummary)>,
    /// Indices into `queries`, shuffled by the seed.
    shuffled: Vec<usize>,
    loops: usize,
    batch_build_ms: f64,
    before: PlanStats,
    /// Answers of the last loop of each stream, and a fold of every
    /// answer's prediction.
    last_grouped: Vec<PlanAnswer>,
    last_shuffled: Vec<PlanAnswer>,
    fold: u64,
}

impl PlanWarm {
    fn stream<'a>(
        engine: &PlanEngine,
        loops: usize,
        queries: impl Iterator<Item = &'a PlanQuery> + Clone,
        last: &mut Vec<PlanAnswer>,
    ) -> u64 {
        let mut fold = 0u64;
        for _ in 1..loops {
            for q in queries.clone() {
                fold = fold.rotate_left(1) ^ engine.answer(q).predicted_us.to_bits();
            }
        }
        last.clear();
        last.extend(queries.map(|q| engine.answer(q)));
        last.iter().fold(fold, |f, a| f.rotate_left(1) ^ a.predicted_us.to_bits())
    }
}

impl Workload for PlanWarm {
    const NAME: &'static str = "plan_warm";

    fn setup(seed: u64, scale: Scale) -> PlanWarm {
        let (dims, sizes, loops): (&[u32], usize, usize) = match scale {
            Scale::Full => (&[6, 8, 10], 50, 400),
            Scale::Quick => (&[6, 8], 12, 40),
        };
        let machine = MachineParams::ipsc860();
        let conditions: Vec<(u32, ConditionSummary)> = dims
            .iter()
            .flat_map(|&d| study_conditions(d).into_iter().map(move |(_, c)| (d, c)))
            .collect();
        let queries: Vec<PlanQuery> = conditions
            .iter()
            .flat_map(|(d, cond)| {
                let machine = &machine;
                (0..sizes).map(move |i| {
                    PlanQuery::clean(*d, (1 + i * 8) as f64, machine.clone())
                        .with_summary(cond.clone())
                })
            })
            .collect();
        let mut shuffled: Vec<usize> = (0..queries.len()).collect();
        SplitMix64::new(seed, 0).shuffle(&mut shuffled);

        let engine = PlanEngine::new(PlanOptions {
            fallback: FallbackPolicy::Never,
            ..PlanOptions::default()
        });
        let t0 = Instant::now();
        engine.answer_batch(&queries);
        let batch_build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let before = engine.stats();
        PlanWarm {
            engine,
            queries,
            conditions,
            shuffled,
            loops,
            batch_build_ms,
            before,
            last_grouped: Vec::new(),
            last_shuffled: Vec::new(),
            fold: 0,
        }
    }

    fn layered_pass(&mut self, rec: &mut Recorder) {
        let open = rec.enter(PASS);
        self.before = self.engine.stats();
        let (engine, loops, queries) = (&self.engine, self.loops, &self.queries);
        let grouped = rec.time(PLAN_MEMO, || {
            PlanWarm::stream(engine, loops, queries.iter(), &mut self.last_grouped)
        });
        let shuffled = rec.time(PLAN_SHUFFLED, || {
            let order = self.shuffled.iter().map(|&i| &queries[i]);
            PlanWarm::stream(engine, loops, order, &mut self.last_shuffled)
        });
        self.fold = grouped ^ shuffled.rotate_left(32);
        let per_stream = (self.loops * self.queries.len()) as f64;
        rec.count(layers::MEMO_QUERIES, per_stream);
        rec.count(layers::SHUFFLED_QUERIES, per_stream);
        let after = self.engine.stats();
        rec.count("plan.cache.hits", (after.hits - self.before.hits) as f64);
        rec.count("plan.cache.misses", (after.misses - self.before.misses) as f64);
        rec.count("plan.cache.evictions", (after.evictions - self.before.evictions) as f64);
        rec.exit(open);
    }

    fn check(&mut self, out: &mut Checked) {
        let after = self.engine.stats();
        let answered = self.work_per_pass();
        // Not one hull may be built in a timed section.
        out.expect(
            after.misses == self.before.misses
                && after.evictions == self.before.evictions
                && after.fallbacks == 0
                && after.hits - self.before.hits == answered,
            || format!("warm pass moved the cache: {:?} -> {after:?}", self.before),
        );
        let all_hull = self
            .last_grouped
            .iter()
            .chain(&self.last_shuffled)
            .all(|a| a.source == AnswerSource::Hull && a.predicted_us > 0.0);
        out.expect(all_hull, || "a warm answer did not come from a hull".to_string());
        // Both streams ask the same questions and must get the same answers.
        let same =
            self.shuffled.iter().zip(&self.last_shuffled).all(|(&i, a)| *a == self.last_grouped[i]);
        out.expect(same, || "shuffled and grouped answers differ".to_string());
        out.pass(answered);
        out.digest.word(self.fold);
    }

    fn verify(&mut self, out: &mut Checked) {
        // Oracle, outside any timer: every answer names the partition
        // the direct enumeration fold picks.
        let per_condition = self.queries.len() / self.conditions.len();
        for (i, (q, a)) in self.queries.iter().zip(&self.last_grouped).enumerate() {
            let (d, cond) = &self.conditions[i / per_condition];
            let (best, _) = conditioned_best_partition(&q.machine, q.m, *d, cond);
            out.expect(a.best_partition == best, || {
                format!("d{d} m={}: engine {} != fold {best}", q.m, a.best_partition)
            });
        }
    }

    fn work_per_pass(&self) -> u64 {
        (2 * self.loops * self.queries.len()) as u64
    }

    fn probes(&mut self, metrics: &mut BTreeMap<String, f64>) {
        metrics.insert("plan.engine.batch_build_ms".into(), self.batch_build_ms);
        let d = self.conditions.last().expect("conditions exist").0;
        let top: Vec<ConditionSummary> =
            self.conditions.iter().filter(|(cd, _)| *cd == d).map(|(_, c)| c.clone()).collect();
        probes::planner_layers(d, &top, metrics);
    }
}
