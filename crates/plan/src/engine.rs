//! The query engine.

use crate::cache::{CacheKey, HullCache, MachineKey};
use crate::fallback::{out_of_envelope, simulate_answer};
use crate::hull::{price, PlanHull};
use crate::{
    Algorithm, AnswerSource, FallbackPolicy, PlanAnswer, PlanError, PlanOptions, PlanQuery,
    QueryCondition,
};
use mce_hypercube::MAX_DIMENSION;
use mce_model::{best_partition_by, ConditionSummary, MachineParams, StepTable};
use mce_simnet::config::SwitchingMode;
use mce_simnet::conformance::condition_summary;
use mce_simnet::SimConfig;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counter snapshot from [`PlanEngine::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Answers served from an already-cached hull.
    pub hits: u64,
    /// Hull builds (each is `2·p(d)` model evaluations).
    pub misses: u64,
    /// Hulls evicted by the LRU.
    pub evictions: u64,
    /// Answers served by the simulator fallback.
    pub fallbacks: u64,
    /// Fallback simulations that failed (typed) and degraded to the
    /// hull answer.
    pub fallback_errors: u64,
}

/// One query, resolved: the condition summarized, the cache key
/// derived, and (when possible) the config a fallback would simulate.
/// Borrows the query's own summary when it already carries one — the
/// warm path must not clone per query.
struct Resolved<'q> {
    summary: Cow<'q, ConditionSummary>,
    key: CacheKey,
    /// `Some` only for [`QueryCondition::Net`] — the fallback needs a
    /// real condition to run.
    sim_cfg: Option<SimConfig>,
}

/// Most-recently-used front memo: query streams have temporal locality
/// (a monitor re-prices one condition across many block sizes), and a
/// memo hit compares the raw summary directly — no quantization, no
/// hashing, no key allocation. Checked with `try_lock` so concurrent
/// queriers never serialize on it; a missed lock just takes the normal
/// sharded-cache path.
struct FrontMemo {
    machine: MachineParams,
    d: u32,
    switching: SwitchingMode,
    summary: ConditionSummary,
    hull: Arc<PlanHull>,
}

/// The planner: a long-running, shareable (all methods take `&self`)
/// query engine over the sharded hull cache.
pub struct PlanEngine {
    options: PlanOptions,
    cache: HullCache,
    front: Mutex<Option<FrontMemo>>,
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
    fallback_errors: AtomicU64,
}

impl Default for PlanEngine {
    fn default() -> Self {
        PlanEngine::new(PlanOptions::default())
    }
}

impl PlanEngine {
    /// An engine with the given options (see [`PlanOptions`]).
    pub fn new(options: PlanOptions) -> PlanEngine {
        let cache = HullCache::new(options.shards, options.per_shard_capacity);
        PlanEngine {
            options,
            cache,
            front: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            fallback_errors: AtomicU64::new(0),
        }
    }

    /// The engine's options.
    pub fn options(&self) -> &PlanOptions {
        &self.options
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.cache.evictions(),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            fallback_errors: self.fallback_errors.load(Ordering::Relaxed),
        }
    }

    /// Summarize and key one query that [`check`] has passed.
    fn resolve<'q>(&self, q: &'q PlanQuery) -> Resolved<'q> {
        let (summary, sim_cfg) = match &q.condition {
            QueryCondition::Clean => (Cow::Owned(ConditionSummary::noop(q.d)), None),
            QueryCondition::Net(nc) => {
                let mut cfg = SimConfig::ipsc860(q.d);
                cfg.params = q.machine.clone();
                cfg.switching = q.switching;
                let cfg = cfg.with_netcond(nc.clone());
                (Cow::Owned(condition_summary(&cfg)), Some(cfg))
            }
            QueryCondition::Summary(s) => (Cow::Borrowed(s), None),
        };
        let key = CacheKey {
            machine: MachineKey::of(&q.machine),
            d: q.d,
            saf: q.switching == mce_simnet::config::SwitchingMode::StoreAndForward,
            fingerprint: summary.fingerprint(),
        };
        Resolved { summary, key, sim_cfg }
    }

    /// The configuration to simulate when this resolved query should
    /// go to the simulator, `None` when it stays analytic. A block
    /// that rounds to zero bytes stays with the hull, whose first face
    /// starts at `m = 0`: there is nothing to simulate.
    fn fallback_cfg<'r>(&self, q: &PlanQuery, r: &'r Resolved) -> Option<&'r SimConfig> {
        let wanted = self.options.fallback == FallbackPolicy::Auto
            && q.m.round() >= 1.0
            && q.d <= self.options.max_fallback_dimension
            && out_of_envelope(&r.summary, self.options.dense_hit_threshold);
        r.sim_cfg.as_ref().filter(|_| wanted)
    }

    /// The simulator's answer to a fallback-bound query; `None` when
    /// the query is not fallback-bound, or when the simulation fails
    /// (typed) and the caller degrades to the analytic answer.
    fn try_fallback(&self, q: &PlanQuery, r: &Resolved) -> Option<PlanAnswer> {
        let cfg = self.fallback_cfg(q, r)?;
        match simulate_answer(cfg, q.m.round() as usize) {
            Ok((part, us)) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                Some(PlanAnswer {
                    algorithm: Algorithm::of(&part),
                    best_partition: part,
                    predicted_us: us,
                    source: AnswerSource::Fallback,
                })
            }
            Err(_) => {
                self.fallback_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memo fast path for summary-carrying queries (the only kind the
    /// memo can serve without resolving: `Clean` needs a no-op summary
    /// built and `Net` needs summarization either way, and neither can
    /// be fallback-eligible from the memo).
    fn front_get(&self, q: &PlanQuery, s: &ConditionSummary) -> Option<Arc<PlanHull>> {
        let guard = self.front.try_lock().ok()?;
        let memo = guard.as_ref()?;
        if memo.d == q.d
            && memo.switching == q.switching
            && memo.summary == *s
            && memo.machine == q.machine
        {
            Some(Arc::clone(&memo.hull))
        } else {
            None
        }
    }

    fn front_put(&self, q: &PlanQuery, s: &ConditionSummary, hull: &Arc<PlanHull>) {
        if let Ok(mut guard) = self.front.try_lock() {
            *guard = Some(FrontMemo {
                machine: q.machine.clone(),
                d: q.d,
                switching: q.switching,
                summary: s.clone(),
                hull: Arc::clone(hull),
            });
        }
    }

    /// Answer one query. Warm path: a raw-summary memo compare (query
    /// streams re-price one condition across many block sizes), or a
    /// fingerprint + one sharded-cache fetch; then one binary search
    /// and two float ops.
    ///
    /// # Panics
    ///
    /// With the [`PlanError`]'s message when the query is one
    /// [`PlanEngine::try_answer`] rejects.
    pub fn answer(&self, q: &PlanQuery) -> PlanAnswer {
        if let Err(e) = check(q) {
            panic!("{e}");
        }
        self.answer_checked(q)
    }

    /// [`PlanEngine::answer`] with a typed error instead of a panic
    /// for a query no plan exists for: `d = 0` or beyond
    /// [`MAX_DIMENSION`], a block size that is not a finite
    /// non-negative number, a summary of another cube.
    pub fn try_answer(&self, q: &PlanQuery) -> Result<PlanAnswer, PlanError> {
        check(q)?;
        Ok(self.answer_checked(q))
    }

    /// Answer a query that [`check`] has passed.
    fn answer_checked(&self, q: &PlanQuery) -> PlanAnswer {
        if let QueryCondition::Summary(s) = &q.condition {
            if let Some(hull) = self.front_get(q, s) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return self.answer_from_hull(q, s, &hull);
            }
        }
        let r = self.resolve(q);
        if let Some(answer) = self.try_fallback(q, &r) {
            return answer;
        }
        let hull = match self.cache.get(&r.key) {
            Some(hull) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                hull
            }
            None => self.build_and_insert(q, &r),
        };
        if let QueryCondition::Summary(s) = &q.condition {
            self.front_put(q, s, &hull);
        }
        self.answer_from_hull(q, &r.summary, &hull)
    }

    /// Batch entry point: groups the queries by cache key, builds every
    /// missing hull rayon-parallel (one build per distinct key), then
    /// answers the whole batch from cache. Fallback-bound queries skip
    /// the build phase and simulate individually.
    ///
    /// # Panics
    ///
    /// With the [`PlanError`]'s message when some query is one
    /// [`PlanEngine::try_answer_batch`] rejects.
    pub fn answer_batch(&self, queries: &[PlanQuery]) -> Vec<PlanAnswer> {
        self.try_answer_batch(queries).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PlanEngine::answer_batch`] with a typed error: the first
    /// query [`PlanEngine::try_answer`] would reject fails the batch,
    /// before any hull is built or any counter moves.
    pub fn try_answer_batch(&self, queries: &[PlanQuery]) -> Result<Vec<PlanAnswer>, PlanError> {
        queries.iter().try_for_each(check)?;
        let resolved: Vec<Resolved> = queries.iter().map(|q| self.resolve(q)).collect();
        // Distinct keys that need a hull and don't have one yet.
        let mut missing: Vec<(CacheKey, u32, usize)> = Vec::new();
        let mut seen: HashSet<CacheKey> = HashSet::new();
        for (i, (q, r)) in queries.iter().zip(&resolved).enumerate() {
            if self.fallback_cfg(q, r).is_some() {
                continue;
            }
            if !seen.contains(&r.key) && self.cache.get(&r.key).is_none() {
                seen.insert(r.key.clone());
                missing.push((r.key.clone(), q.d, i));
            }
        }
        let built: Vec<(CacheKey, Arc<PlanHull>)> = rayon::parallel_map(missing, |(key, d, i)| {
            let q = &queries[i];
            let hull = Arc::new(PlanHull::build(&q.machine, q.switching, d, &resolved[i].summary));
            (key, hull)
        });
        self.misses.fetch_add(built.len() as u64, Ordering::Relaxed);
        // The first answer drawn from a freshly built hull belongs to
        // its miss; every later one is a hit.
        let mut fresh: HashSet<CacheKey> = built.iter().map(|(k, _)| k.clone()).collect();
        for (key, hull) in built {
            self.cache.insert(key, hull);
        }
        Ok(queries
            .iter()
            .zip(&resolved)
            .map(|(q, r)| {
                if let Some(answer) = self.try_fallback(q, r) {
                    return answer;
                }
                let hull = match self.cache.get(&r.key) {
                    Some(hull) => {
                        if !fresh.remove(&r.key) {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                        }
                        hull
                    }
                    // Evicted between insert and answer (tiny cache
                    // under a huge batch): rebuild inline.
                    None => self.build_and_insert(q, r),
                };
                self.answer_from_hull(q, &r.summary, &hull)
            })
            .collect())
    }

    fn build_and_insert(&self, q: &PlanQuery, r: &Resolved) -> Arc<PlanHull> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let hull = Arc::new(PlanHull::build(&q.machine, q.switching, q.d, &r.summary));
        self.cache.insert(r.key.clone(), Arc::clone(&hull));
        hull
    }

    /// The hull-path answer, honoring the exactness contract: the
    /// winner is always the exact enumeration-fold winner (boundary
    /// bands re-run the fold; elsewhere the face label *is* that
    /// winner), and the prediction is either the face's affine value
    /// or, in exact mode, a direct model evaluation.
    fn answer_from_hull(
        &self,
        q: &PlanQuery,
        summary: &ConditionSummary,
        hull: &PlanHull,
    ) -> PlanAnswer {
        let (part, predicted) = if hull.near_boundary(q.m) {
            // Within the band two candidates are ~1e-6 apart: re-run
            // the exact fold so ties and float-level orderings match
            // `conditioned_best_partition` bit for bit.
            let table = StepTable::new(summary);
            best_partition_by(q.d, |p| price(&q.machine, q.switching, q.d, &table, q.m, p))
        } else {
            let face = hull.face(q.m);
            let predicted = if self.options.exact_predictions {
                price(&q.machine, q.switching, q.d, summary, q.m, &face.partition)
            } else {
                face.time_at(q.m)
            };
            (face.partition.clone(), predicted)
        };
        PlanAnswer {
            algorithm: Algorithm::of(&part),
            best_partition: part,
            predicted_us: predicted,
            source: AnswerSource::Hull,
        }
    }
}

/// Everything a caller can get wrong in a [`PlanQuery`], rejected
/// before the query reaches the memo, the cache or a table sized by
/// `d`. A check of its own rather than a fallible `resolve`: the warm
/// path runs it on every query, and handing the (large) resolved
/// query back through a `Result` cost `plan_warm` 12 % of its
/// `wall_s`, where the check alone costs it under 2 %.
fn check(q: &PlanQuery) -> Result<(), PlanError> {
    if q.d == 0 || q.d > MAX_DIMENSION {
        return Err(PlanError::DimensionOutOfRange(q.d));
    }
    if !(q.m.is_finite() && q.m >= 0.0) {
        return Err(PlanError::InvalidBlockSize(q.m));
    }
    match &q.condition {
        QueryCondition::Summary(s) if s.dimension() != q.d => {
            Err(PlanError::SummaryDimensionMismatch { summary: s.dimension(), query: q.d })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_hypercube::NodeId;
    use mce_model::{conditioned_best_partition, MachineParams};
    use mce_simnet::conformance::hotspot_condition;

    #[test]
    fn clean_query_names_the_paper_winner() {
        let engine = PlanEngine::default();
        // d = 6, m = 24: the paper's {2,4}-flavoured regime — the hull
        // says {3,3} wins at 24 B on the iPSC-860.
        let q = PlanQuery::clean(6, 24.0, MachineParams::ipsc860());
        let a = engine.answer(&q);
        let (expect, t) = conditioned_best_partition(
            &MachineParams::ipsc860(),
            24.0,
            6,
            &ConditionSummary::noop(6),
        );
        assert_eq!(a.best_partition, expect);
        assert!((a.predicted_us - t).abs() < 1e-9 * t);
        assert_eq!(a.source, AnswerSource::Hull);
        assert_eq!(a.algorithm, Algorithm::of(&expect));
        // Second identical query is a hit, not a rebuild.
        let _ = engine.answer(&q);
        let s = engine.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn exact_mode_is_bit_equal_to_the_model() {
        let engine =
            PlanEngine::new(PlanOptions { exact_predictions: true, ..PlanOptions::default() });
        let machine = MachineParams::ipsc860();
        let d = 5u32;
        let cond = {
            let mut c = ConditionSummary::noop(d);
            c.add_stream(0b11111, 250.0, 500.0);
            c
        };
        for m in [0.0, 3.0, 47.0, 160.0, 399.0] {
            let q = PlanQuery::clean(d, m, machine.clone()).with_summary(cond.clone());
            let a = engine.answer(&q);
            let (part, t) = conditioned_best_partition(&machine, m, d, &cond);
            assert_eq!(a.best_partition, part, "m={m}");
            assert_eq!(a.predicted_us.to_bits(), t.to_bits(), "m={m}");
        }
    }

    #[test]
    fn batch_builds_each_distinct_hull_once() {
        let engine = PlanEngine::default();
        let machine = MachineParams::ipsc860();
        let mut queries = Vec::new();
        for m in [10.0, 50.0, 200.0] {
            for level in [0u32, 2] {
                let mut q = PlanQuery::clean(5, m, machine.clone());
                if level > 0 {
                    q = q.with_netcond(hotspot_condition(5, level));
                }
                queries.push(q);
            }
        }
        let answers = engine.answer_batch(&queries);
        assert_eq!(answers.len(), queries.len());
        let s = engine.stats();
        // Two distinct conditions -> two builds; remaining answers hit.
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 4);
        // Per-query agreement with the sequential path.
        let sequential = PlanEngine::default();
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(&sequential.answer(q), a);
        }
    }

    #[test]
    fn dense_hotspot_goes_to_the_simulator() {
        let engine = PlanEngine::default();
        let d = 3u32;
        let q = PlanQuery::clean(d, 64.0, MachineParams::ipsc860())
            .with_netcond(hotspot_condition(d, 8));
        let a = engine.answer(&q);
        assert_eq!(a.source, AnswerSource::Fallback);
        assert!(a.predicted_us > 0.0);
        assert_eq!(engine.stats().fallbacks, 1);
        // Policy off: same query stays analytic.
        let never =
            PlanEngine::new(PlanOptions { fallback: FallbackPolicy::Never, ..Default::default() });
        assert_eq!(never.answer(&q).source, AnswerSource::Hull);
    }

    #[test]
    fn a_block_that_rounds_to_zero_is_answered_from_the_hull() {
        // Regression: an out-of-envelope `Net` query with m < 0.5 was
        // handed to the simulator as a 0-byte exchange and panicked in
        // the program builder ("block size must be positive").
        let d = 3u32;
        let tiny = PlanQuery::clean(d, 0.3, MachineParams::ipsc860())
            .with_netcond(hotspot_condition(d, 8));
        let engine = PlanEngine::default();
        let a = engine.answer(&tiny);
        assert_eq!(a.source, AnswerSource::Hull);
        let cond = condition_summary(&SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 8)));
        let (expect, _) = conditioned_best_partition(&MachineParams::ipsc860(), 0.3, d, &cond);
        assert_eq!(a.best_partition, expect);
        // The batch path decides the same way, and the first size that
        // rounds to a whole byte still goes to the simulator.
        let mut one_byte = tiny.clone();
        one_byte.m = 0.5;
        let batch = engine.answer_batch(&[tiny, one_byte]);
        assert_eq!(batch[0], a);
        assert_eq!(batch[1].source, AnswerSource::Fallback);
        let s = engine.stats();
        assert_eq!((s.fallbacks, s.fallback_errors), (1, 0));
    }

    #[test]
    fn malformed_queries_are_typed_errors_not_panics() {
        let machine = MachineParams::ipsc860();
        let cases = [
            (PlanQuery::clean(0, 64.0, machine.clone()), PlanError::DimensionOutOfRange(0)),
            (
                PlanQuery::clean(MAX_DIMENSION + 5, 64.0, machine.clone())
                    .with_summary(ConditionSummary::noop(MAX_DIMENSION + 5)),
                PlanError::DimensionOutOfRange(MAX_DIMENSION + 5),
            ),
            (
                PlanQuery::clean(4, f64::INFINITY, machine.clone()),
                PlanError::InvalidBlockSize(f64::INFINITY),
            ),
            (PlanQuery::clean(4, -1.0, machine.clone()), PlanError::InvalidBlockSize(-1.0)),
            (
                PlanQuery::clean(4, 64.0, machine.clone()).with_summary(ConditionSummary::noop(3)),
                PlanError::SummaryDimensionMismatch { summary: 3, query: 4 },
            ),
        ];
        let engine = PlanEngine::default();
        let good = PlanQuery::clean(4, 64.0, machine.clone());
        for (q, expect) in &cases {
            assert_eq!(engine.try_answer(q).as_ref(), Err(expect), "{q:?}");
            let batch = engine.try_answer_batch(&[good.clone(), q.clone()]);
            assert_eq!(batch.as_ref(), Err(expect), "batch with {q:?}");
        }
        // NaN is its own case: it never compares equal.
        let nan = engine.try_answer(&PlanQuery::clean(4, f64::NAN, machine.clone()));
        assert!(matches!(nan, Err(PlanError::InvalidBlockSize(m)) if m.is_nan()));
        // A rejected batch built nothing and counted nothing.
        assert_eq!((engine.stats().hits, engine.stats().misses), (0, 0));
        // The memo fast path sits behind the same check.
        let cond = ConditionSummary::from_link_factors(4, &[1.5; 64]);
        let warm = PlanQuery::clean(4, 64.0, machine).with_summary(cond);
        assert!(engine.try_answer(&warm).is_ok());
        let mut bad = warm.clone();
        bad.m = f64::NAN;
        assert!(matches!(engine.try_answer(&bad), Err(PlanError::InvalidBlockSize(_))));
        assert!(engine.try_answer(&warm).is_ok());
    }

    #[test]
    #[should_panic(expected = "summary dimension mismatch")]
    fn answer_panics_with_the_error_message() {
        let q = PlanQuery::clean(4, 64.0, MachineParams::ipsc860())
            .with_summary(ConditionSummary::noop(3));
        let _ = PlanEngine::default().answer(&q);
    }

    #[test]
    fn failed_fallback_degrades_to_the_hull() {
        // Dense hotspot plus a cut cable: out-of-envelope, but the
        // simulation fails typed (unroutable singleton plan) — the
        // engine must fall back to the analytic answer, not abort.
        let engine = PlanEngine::default();
        let d = 3u32;
        let nc = {
            let mut nc = hotspot_condition(d, 8);
            nc = nc.with_fault(NodeId(0), 0);
            nc
        };
        let q = PlanQuery::clean(d, 64.0, MachineParams::ipsc860()).with_netcond(nc);
        let a = engine.answer(&q);
        assert_eq!(a.source, AnswerSource::Hull);
        let s = engine.stats();
        assert_eq!((s.fallbacks, s.fallback_errors), (0, 1));
    }

    #[test]
    fn saf_queries_get_saf_hulls() {
        let engine = PlanEngine::default();
        let machine = MachineParams::ipsc860();
        let circuit = engine.answer(&PlanQuery::clean(4, 80.0, machine.clone()));
        let saf = engine.answer(&PlanQuery::clean(4, 80.0, machine).with_store_and_forward());
        // Distinct cache keys (2 misses) and distinct prices.
        assert_eq!(engine.stats().misses, 2);
        assert_ne!(circuit.predicted_us.to_bits(), saf.predicted_us.to_bits());
    }
}
