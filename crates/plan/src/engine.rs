//! The query engine.

use crate::cache::{CacheKey, HullCache, KeyRef, MachineKey};
use crate::fallback::{out_of_envelope, simulate_answer};
use crate::hull::{price, PlanHull};
use crate::{
    Algorithm, AnswerSource, FallbackPolicy, PlanAnswer, PlanError, PlanOptions, PlanQuery,
    QueryCondition,
};
use mce_hypercube::MAX_DIMENSION;
use mce_model::{best_partition_by, ConditionSummary, StepTable};
use mce_partitions::Partition;
use mce_simnet::config::SwitchingMode;
use mce_simnet::conformance::condition_summary;
use mce_simnet::SimConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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
    /// Candidate runs the fallback abandoned at the finish time of a
    /// better candidate instead of simulating them to the end.
    pub fallback_cut_runs: u64,
}

/// Most bytes of node memory (`4^d · m`: `2^d` nodes of `2^d` blocks)
/// one fallback simulation may stamp and move. The conformance grid
/// holds one such set per candidate in flight, and its run time grows
/// with it; 64 MiB is 4 KiB blocks at d = 7, an order of magnitude
/// above any grid the tests or the perf ledger simulate. Beyond it the
/// degraded analytic answer beats a stalled service, as beyond
/// [`PlanOptions::max_fallback_dimension`].
const MAX_FALLBACK_BYTES: f64 = (1u64 << 26) as f64;

/// A [`QueryCondition::Net`] condition, summarized, beside the
/// configuration a fallback would simulate.
type NetResolved = (ConditionSummary, SimConfig);

/// One query, resolved: the summary it is priced under — its own, the
/// shared no-op one, or its condition's — and, when it carries a real
/// condition, the configuration a fallback would simulate. All
/// borrowed: resolving a `Clean` or `Summary` query allocates nothing.
#[derive(Clone, Copy)]
struct Resolved<'q> {
    summary: &'q ConditionSummary,
    /// `Some` only for [`QueryCondition::Net`] — the fallback needs a
    /// real condition to run.
    sim_cfg: Option<&'q SimConfig>,
}

/// Summarize the condition of a query that carries a raw one.
fn resolve_net(q: &PlanQuery) -> Option<NetResolved> {
    let QueryCondition::Net(nc) = &q.condition else { return None };
    let mut cfg = SimConfig::ipsc860(q.d);
    cfg.params = q.machine.clone();
    cfg.switching = q.switching;
    let cfg = cfg.with_netcond(nc.clone());
    Some((condition_summary(&cfg), cfg))
}

/// The no-op summary every `Clean` query of dimension `d` borrows, so
/// that it is built and keyed once per process, not once per query.
fn clean_summary(d: u32) -> &'static ConditionSummary {
    static NOOPS: OnceLock<Vec<ConditionSummary>> = OnceLock::new();
    &NOOPS.get_or_init(|| (0..=MAX_DIMENSION).map(ConditionSummary::noop).collect())[d as usize]
}

impl<'q> Resolved<'q> {
    /// Resolve a query that [`check`] has passed; `net` is its
    /// [`resolve_net`].
    fn of(q: &'q PlanQuery, net: &'q Option<NetResolved>) -> Resolved<'q> {
        match (&q.condition, net) {
            (QueryCondition::Summary(s), _) => Resolved { summary: s, sim_cfg: None },
            (_, Some((summary, cfg))) => Resolved { summary, sim_cfg: Some(cfg) },
            (_, None) => Resolved { summary: clean_summary(q.d), sim_cfg: None },
        }
    }
}

/// The planner: a long-running, shareable (all methods take `&self`)
/// query engine over the sharded hull cache.
pub struct PlanEngine {
    options: PlanOptions,
    cache: HullCache,
    misses: AtomicU64,
    fallbacks: AtomicU64,
    fallback_errors: AtomicU64,
    fallback_cut_runs: AtomicU64,
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
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            fallback_errors: AtomicU64::new(0),
            fallback_cut_runs: AtomicU64::new(0),
        }
    }

    /// The engine's options.
    pub fn options(&self) -> &PlanOptions {
        &self.options
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            hits: self.cache.hits(),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.cache.evictions(),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            fallback_errors: self.fallback_errors.load(Ordering::Relaxed),
            fallback_cut_runs: self.fallback_cut_runs.load(Ordering::Relaxed),
        }
    }

    /// The configuration to simulate when this resolved query should
    /// go to the simulator, `None` when it stays analytic. A block
    /// that rounds to zero bytes stays with the hull, whose first face
    /// starts at `m = 0`: there is nothing to simulate; one past
    /// [`MAX_FALLBACK_BYTES`] stays with it because there is too much.
    fn fallback_cfg<'r>(&self, q: &PlanQuery, r: Resolved<'r>) -> Option<&'r SimConfig> {
        let cfg = r.sim_cfg?;
        let bytes = q.m.round();
        let wanted = self.options.fallback == FallbackPolicy::Auto
            && bytes >= 1.0
            && q.d <= self.options.max_fallback_dimension
            && bytes * (1u64 << (2 * q.d)) as f64 <= MAX_FALLBACK_BYTES
            && out_of_envelope(r.summary, self.options.dense_hit_threshold);
        wanted.then_some(cfg)
    }

    /// The simulator's answer to a fallback-bound query, `cfg` being
    /// its [`PlanEngine::fallback_cfg`]; `None` when the simulation
    /// fails (typed) and the caller degrades to the analytic answer.
    fn simulate(
        &self,
        q: &PlanQuery,
        cfg: &SimConfig,
        summary: &ConditionSummary,
    ) -> Option<PlanAnswer> {
        match simulate_answer(cfg, summary, q.m.round() as usize) {
            Ok(won) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.fallback_cut_runs.fetch_add(u64::from(won.cut_runs), Ordering::Relaxed);
                Some(PlanAnswer {
                    algorithm: Algorithm::of(&won.partition),
                    best_partition: won.partition,
                    predicted_us: won.simulated_us,
                    source: AnswerSource::Fallback,
                })
            }
            Err(_) => {
                self.fallback_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Answer one query. Warm path: the condition's kept fingerprint
    /// (quantized when the condition was first keyed, not now), one
    /// short critical section on a cache shard, and inside it a full
    /// key comparison, one binary search over the faces and two float
    /// ops — the only allocation is the answer's own partition.
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
    /// non-negative number, a summary of another cube or with a
    /// non-finite or negative field, a network condition that does
    /// not fit the cube.
    pub fn try_answer(&self, q: &PlanQuery) -> Result<PlanAnswer, PlanError> {
        check(q)?;
        Ok(self.answer_checked(q))
    }

    /// Answer a query that [`check`] has passed.
    fn answer_checked(&self, q: &PlanQuery) -> PlanAnswer {
        let net = resolve_net(q);
        let r = Resolved::of(q, &net);
        let simulated = self.fallback_cfg(q, r).and_then(|cfg| self.simulate(q, cfg, r.summary));
        if let Some(answer) = simulated {
            return answer;
        }
        let machine = MachineKey::of(&q.machine);
        self.answer_cached(q, r.summary, key_of(q, &machine, r.summary))
    }

    /// The hull-path answer to a query priced under `summary` whose
    /// hull is cached, or is to be, under `key`. A hit finds the face
    /// under the shard's lock ([`HullCache::serve`]) and takes its
    /// partition out; anything slow — the exact fold of a block in a
    /// boundary band, an exact-mode pricing — runs after the lock is
    /// released. A miss builds the hull, inserts it and answers from it.
    // Always inlined, as are `face_of` and `answer_on`: called out of
    // line, each hands its key or its answer over through memory, which
    // costs a warm answer about a fifth of its time (the perf ledger's
    // `plan_warm` stream on a 2-vCPU Xeon: ~80 ns inlined, ~100 ns with
    // this function and the face step out of line).
    #[inline(always)]
    fn answer_cached(
        &self,
        q: &PlanQuery,
        summary: &ConditionSummary,
        key: KeyRef<'_>,
    ) -> PlanAnswer {
        match self.cache.serve(key, |hull| face_of(q, hull)) {
            Some(on_face) => self.answer_on(q, summary, on_face),
            None => {
                let hull = self.build_and_insert(q, summary, key.to_key());
                self.answer_from_hull(q, summary, &hull)
            }
        }
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
        let nets: Vec<Option<NetResolved>> = queries.iter().map(resolve_net).collect();
        // Per query: what it is priced under, its cache key, and the
        // configuration to simulate when it is fallback-bound.
        let resolved: Vec<(Resolved, CacheKey, Option<&SimConfig>)> = queries
            .iter()
            .zip(&nets)
            .map(|(q, net)| {
                let r = Resolved::of(q, net);
                let key = key_of(q, &MachineKey::of(&q.machine), r.summary).to_key();
                (r, key, self.fallback_cfg(q, r))
            })
            .collect();
        // Distinct keys that need a hull and don't have one yet.
        let mut missing: Vec<usize> = Vec::new();
        let mut seen: HashSet<&CacheKey> = HashSet::new();
        for (i, (_, key, sim_cfg)) in resolved.iter().enumerate() {
            if sim_cfg.is_some() {
                continue;
            }
            if !seen.contains(key) && self.cache.get(key).is_none() {
                seen.insert(key);
                missing.push(i);
            }
        }
        let built: Vec<(usize, Arc<PlanHull>)> = rayon::parallel_map(missing, |i| {
            let q = &queries[i];
            (i, Arc::new(PlanHull::build(&q.machine, q.switching, q.d, resolved[i].0.summary)))
        });
        self.misses.fetch_add(built.len() as u64, Ordering::Relaxed);
        for (i, hull) in &built {
            self.cache.insert(resolved[*i].1.clone(), Arc::clone(hull));
        }
        // The query that asked for a build is answered from it, the
        // miss's answer; every other is served from the cache, a hit
        // (or, evicted since by a tiny cache under a huge batch, a
        // rebuild). `built` is in query order.
        let mut fresh = built.into_iter().peekable();
        Ok(queries
            .iter()
            .zip(&resolved)
            .enumerate()
            .map(|(i, (q, (r, key, sim_cfg)))| {
                let simulated = sim_cfg.and_then(|cfg| self.simulate(q, cfg, r.summary));
                if let Some(answer) = simulated {
                    return answer;
                }
                match fresh.next_if(|(at, _)| *at == i) {
                    Some((_, hull)) => self.answer_from_hull(q, r.summary, &hull),
                    None => self.answer_cached(q, r.summary, key.as_key_ref()),
                }
            })
            .collect())
    }

    fn build_and_insert(
        &self,
        q: &PlanQuery,
        summary: &ConditionSummary,
        key: CacheKey,
    ) -> Arc<PlanHull> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let hull = Arc::new(PlanHull::build(&q.machine, q.switching, q.d, summary));
        self.cache.insert(key, Arc::clone(&hull));
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
        self.answer_on(q, summary, face_of(q, hull))
    }

    /// The answer from what [`face_of`] found: the face's partition,
    /// predicted by its affine value or, in exact mode, by the model;
    /// with no face, the exact fold.
    #[inline(always)]
    fn answer_on(
        &self,
        q: &PlanQuery,
        summary: &ConditionSummary,
        on_face: Option<(Partition, f64)>,
    ) -> PlanAnswer {
        match on_face {
            Some((part, _)) if self.options.exact_predictions => {
                let predicted = price(&q.machine, q.switching, q.d, summary, q.m, &part);
                hull_answer(part, predicted)
            }
            Some((part, at_m)) => hull_answer(part, at_m),
            None => fold_answer(q, summary),
        }
    }
}

/// The partition of the face under `q.m` and its affine value there,
/// or `None` when `q.m` lies in a boundary band, where only
/// [`fold_answer`] may decide.
#[inline(always)]
fn face_of(q: &PlanQuery, hull: &PlanHull) -> Option<(Partition, f64)> {
    let (face, near_boundary) = hull.locate(q.m);
    (!near_boundary).then(|| (face.partition.clone(), face.time_at(q.m)))
}

/// The answer to a query whose block lies in a boundary band. Within
/// the band two candidates are ~1e-6 apart, so the exact fold re-runs
/// and ties and float-level orderings match
/// `conditioned_best_partition` bit for bit. It reads no hull.
fn fold_answer(q: &PlanQuery, summary: &ConditionSummary) -> PlanAnswer {
    let table = StepTable::new(summary);
    let (part, predicted) =
        best_partition_by(q.d, |p| price(&q.machine, q.switching, q.d, &table, q.m, p));
    hull_answer(part, predicted)
}

fn hull_answer(part: Partition, predicted_us: f64) -> PlanAnswer {
    PlanAnswer {
        algorithm: Algorithm::of(&part),
        best_partition: part,
        predicted_us,
        source: AnswerSource::Hull,
    }
}

/// The cache key of a checked query priced under `summary`, borrowed
/// from the two: nothing is quantized, cloned or allocated to name it.
fn key_of<'a>(q: &PlanQuery, machine: &'a MachineKey, summary: &'a ConditionSummary) -> KeyRef<'a> {
    KeyRef {
        machine,
        d: q.d,
        saf: q.switching == SwitchingMode::StoreAndForward,
        fingerprint: summary.fingerprint_ref(),
    }
}

/// Everything a caller can get wrong in a [`PlanQuery`], rejected
/// before the query reaches the cache or a table sized by `d`. A check
/// of its own rather than a fallible `resolve`: the warm path runs it
/// on every query, and handing the (large) resolved query back through
/// a `Result` cost `plan_warm` 12 % of its `wall_s`, where the check
/// alone costs it under 2 %. Whether a summary is well formed is
/// decided once per summary, with its fingerprint; here it is one flag.
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
        QueryCondition::Summary(s) if !s.is_well_formed() => Err(PlanError::InvalidSummary),
        QueryCondition::Net(nc) => nc.validate(q.d).map_err(PlanError::InvalidCondition),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_hypercube::NodeId;
    use mce_model::{conditioned_best_partition, MachineParams};
    use mce_simnet::conformance::hotspot_condition;
    use mce_simnet::{BackgroundStream, NetCondition, SpeedProfile};

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
        let hits_and_misses = || {
            let s = engine.stats();
            (s.hits, s.misses)
        };
        // Two distinct conditions -> two builds; remaining answers hit.
        assert_eq!(hits_and_misses(), (4, 2));
        // Per-query agreement with the sequential path.
        let sequential = PlanEngine::default();
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(&sequential.answer(q), a);
        }
        // Warm: every answer a hit, counted in its shard.
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(&engine.answer(q), a);
        }
        assert_eq!(hits_and_misses(), (10, 2));
        // Cached keys beside one new key, asked twice: one build, the
        // rest hits.
        let saf = |m: f64| PlanQuery::clean(5, m, machine.clone()).with_store_and_forward();
        let mixed = [queries[0].clone(), saf(30.0), queries[3].clone(), saf(90.0)];
        let again = engine.answer_batch(&mixed);
        assert_eq!(hits_and_misses(), (13, 3));
        for (q, a) in mixed.iter().zip(&again) {
            assert_eq!(&sequential.answer(q), a);
        }
    }

    #[test]
    fn a_panic_under_a_cache_lookup_leaves_the_shard_serving() {
        // One shard, so the panic poisons the lock every key takes.
        let engine = PlanEngine::new(PlanOptions { shards: 1, ..PlanOptions::default() });
        let q = PlanQuery::clean(4, 80.0, MachineParams::ipsc860());
        let first = engine.answer(&q);
        let machine = MachineKey::of(&q.machine);
        let key = key_of(&q, &machine, clean_summary(4));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.cache.serve(key, |_| panic!("a caller's closure fails"))
        }));
        assert!(panicked.is_err());
        // The lookup hit before its closure failed, and counts.
        assert_eq!((engine.stats().hits, engine.stats().misses), (1, 1));
        assert!(engine.cache.get(&key.to_key()).is_some());
        let saf = PlanQuery::clean(4, 80.0, MachineParams::ipsc860()).with_store_and_forward();
        let saf_key = key_of(&saf, &machine, clean_summary(4)).to_key();
        let hull = PlanHull::build(&saf.machine, saf.switching, 4, clean_summary(4));
        engine.cache.insert(saf_key, Arc::new(hull));
        assert_eq!(engine.cache.len(), 2);
        assert_eq!(engine.answer(&q), first);
        assert_eq!(engine.answer(&saf).source, AnswerSource::Hull);
        assert_eq!((engine.stats().hits, engine.stats().misses), (3, 1));
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
        // A condition `NetCondition::validate` rejects for a d3 cube:
        // the first indexed past the link table and panicked, the
        // second answered `Ok` with `predicted_us: NaN`, the last two
        // `Ok` with numbers that meant nothing.
        let bad_net = |nc: NetCondition| {
            let why = nc.validate(3).expect_err("malformed by construction");
            let q = PlanQuery::clean(3, 64.0, machine.clone()).with_netcond(nc);
            (q, PlanError::InvalidCondition(why))
        };
        let stray_stream = BackgroundStream {
            src: NodeId(100),
            dst: NodeId(1),
            bytes: 400,
            start_ns: 0,
            period_ns: 600_000,
            count: 10,
        };
        let per_dimension = |v: Vec<f64>| NetCondition {
            speed: SpeedProfile::PerDimension(v),
            ..NetCondition::default()
        };
        let cases = [
            bad_net(NetCondition::default().with_background(stray_stream)),
            bad_net(NetCondition::uniform_slowdown(f64::NAN)),
            bad_net(NetCondition::uniform_slowdown(0.0)),
            bad_net(per_dimension(vec![1.5; 9])),
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
            // A summary no constructor yields from sane inputs: these
            // answered `Ok` with `predicted_us: NaN` before.
            (
                PlanQuery::clean(3, 64.0, machine.clone())
                    .with_summary(ConditionSummary::from_link_factors(3, &[f64::NAN; 24])),
                PlanError::InvalidSummary,
            ),
            (
                PlanQuery::clean(3, 64.0, machine.clone())
                    .with_summary(ConditionSummary::from_link_factors(3, &[-1.5; 24])),
                PlanError::InvalidSummary,
            ),
            (
                PlanQuery::clean(3, 64.0, machine.clone()).with_summary({
                    let mut endless = ConditionSummary::noop(3);
                    endless.add_stream(0b011, f64::INFINITY, 1000.0);
                    endless
                }),
                PlanError::InvalidSummary,
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
        // A warm condition sits behind the same check, and a summary
        // is judged again after it changes.
        let cond = ConditionSummary::from_link_factors(4, &[1.5; 64]);
        let warm = PlanQuery::clean(4, 64.0, machine).with_summary(cond);
        assert!(engine.try_answer(&warm).is_ok());
        let mut bad = warm.clone();
        bad.m = f64::NAN;
        assert!(matches!(engine.try_answer(&bad), Err(PlanError::InvalidBlockSize(_))));
        assert!(engine.try_answer(&warm).is_ok());
        let QueryCondition::Summary(s) = &mut bad.condition else { unreachable!() };
        s.add_stream(0b1, f64::INFINITY, 1000.0);
        bad.m = 64.0;
        assert_eq!(engine.try_answer(&bad), Err(PlanError::InvalidSummary));
    }

    #[test]
    fn a_huge_block_is_answered_from_the_hull_not_simulated() {
        // Regression: the fallback built programs and stamped 4^d * m
        // bytes of node memory for any m — these two never returned.
        let d = 3u32;
        let dense = |m: f64| {
            PlanQuery::clean(d, m, MachineParams::ipsc860()).with_netcond(hotspot_condition(d, 8))
        };
        let engine = PlanEngine::default();
        let huge = [dense(1e13), dense(4e18)];
        for q in &huge {
            let a = engine.answer(q);
            assert_eq!(a.source, AnswerSource::Hull, "m = {}", q.m);
            assert!(a.predicted_us.is_finite() && a.predicted_us > 0.0);
            assert_eq!(engine.answer_batch(std::slice::from_ref(q)), [a]);
        }
        // One byte past the cap stays analytic too; nothing was run.
        let over = dense(MAX_FALLBACK_BYTES / 64.0 + 1.0);
        assert_eq!(engine.answer(&over).source, AnswerSource::Hull);
        let s = engine.stats();
        assert_eq!((s.fallbacks, s.fallback_errors), (0, 0));
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
