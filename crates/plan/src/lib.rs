//! Planner-as-a-service: answer "which complete-exchange algorithm and
//! partition wins for this `(d, m, machine, network condition)`?" at
//! service rates.
//!
//! Bokhari's result is ultimately a decision procedure, and the
//! conditioned model (`mce_model::conditioned`) prices any candidate
//! in microseconds — but a *query engine* cannot afford even that:
//! enumerating `p(d)` partitions per query is tens of microseconds to
//! milliseconds at the dimensions that matter. This crate converts the
//! model into a service:
//!
//! 1. **Condition fingerprints** — a query's
//!    [`ConditionSummary`] is quantized
//!    into a stable integer key
//!    ([`ConditionSummary::fingerprint`](mce_model::ConditionSummary::fingerprint),
//!    ≈ 0.2% buckets, an order of magnitude under the model's own
//!    accuracy envelope), so every network condition the model cannot
//!    tell apart shares one cache entry. A summary is quantized once
//!    and keeps its key (until `add_stream` changes it; clones share
//!    it), so asking again about a condition never re-derives it.
//! 2. **Sharded LRU hull cache** — per `(machine, d, switching,
//!    fingerprint)` the engine precomputes the *exact* hull of
//!    optimality once
//!    ([`conditioned_optimality_hull`](mce_model::conditioned_optimality_hull),
//!    the faces of
//!    [`optimality_hull_affine_by`](mce_model::optimality_hull_affine_by)
//!    under the conditioned model) and caches its faces with affine
//!    coefficients. A warm query is
//!    one short critical section on a cache shard, looked up by the
//!    query's borrowed parts ([`HullCache::serve`]: a one-word hash of
//!    the machine's and the fingerprint's precomputed digests, `d` and
//!    the switching bit, one shard lock, a full-key comparison), inside
//!    which the engine finds the face (a binary search) and its
//!    prediction (two float ops) and the shard counts the hit — no
//!    model evaluation, no reference count moved, and no allocation but
//!    the answer's partition
//!    (`tests/warm_path.rs` counts). There is no second, smaller cache
//!    in front of it.
//! 3. **Batch API** — [`PlanEngine::answer_batch`] groups queries by
//!    cache key and computes the missing hulls rayon-parallel before
//!    answering everything from cache.
//! 4. **Simulator fallback** — regimes the model's accuracy envelope
//!    excludes (dense anti-phased hotspot ladders; see
//!    `crates/model/README.md`) are answered from measurement, marked
//!    [`AnswerSource::Fallback`]: the candidate partitions are
//!    simulated one after another, the first until its programs
//!    finish, each later one only as far as the best finish time
//!    before it, and not at all when its price floor already passes
//!    that time ([`fallback::simulate_answer`]). A
//!    simulation *failure* (typed
//!    [`ScenarioError`](mce_simnet::conformance::ScenarioError))
//!    degrades to the analytic hull answer instead of aborting — the
//!    service stays up.
//!
//! A query the caller built wrong (`d = 0` or beyond
//! [`mce_hypercube::MAX_DIMENSION`], a block size that is not a finite
//! non-negative number, a summary of another cube or with a NaN,
//! infinite or negative field, a [`NetCondition`] that fails its own
//! `validate` for the cube) is a typed [`PlanError`] from [`PlanEngine::try_answer`] /
//! [`PlanEngine::try_answer_batch`]; [`PlanEngine::answer`] and
//! [`PlanEngine::answer_batch`] are the panicking forms.
//!
//! Exactness contract: the winning partition is always bit-equal to
//! [`conditioned_best_partition`](mce_model::conditioned_best_partition)
//! (boundary-adjacent queries re-run the exact enumeration fold);
//! predicted times are affine recombinations by default (≤ 1e-9
//! relative of the model) or, with
//! [`PlanOptions::exact_predictions`], direct model evaluations
//! bit-equal to `predicted_us_with`. Both pins are property-tested in
//! `tests/plan_properties.rs`.

pub mod cache;
pub mod engine;
pub mod fallback;
pub mod hull;

pub use cache::{CacheKey, HullCache, KeyRef, MachineKey};
pub use engine::{PlanEngine, PlanStats};
pub use fallback::out_of_envelope;
pub use hull::{PlanHull, BOUNDARY_REL_EPS};

use mce_model::{ConditionSummary, MachineParams};
use mce_partitions::Partition;
use mce_simnet::config::SwitchingMode;
use mce_simnet::NetCondition;
use serde::{Deserialize, Serialize};

/// The network-condition side of a query, in decreasing order of
/// rawness: nothing, a full [`NetCondition`], or an already-extracted
/// [`ConditionSummary`].
///
/// The simulator fallback needs a real `NetCondition` to run against,
/// so only [`QueryCondition::Net`] queries can ever be answered
/// [`AnswerSource::Fallback`]; a bare summary always takes the hull
/// path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryCondition {
    /// Pristine network: the unconditioned model (the conditioned
    /// entry points short-circuit to it bit-exactly on no-op
    /// summaries).
    Clean,
    /// A full network condition; summarized via
    /// `mce_simnet::conformance::condition_summary` and eligible for
    /// the simulator fallback when out of envelope.
    Net(NetCondition),
    /// A pre-extracted summary (e.g. shipped from a monitoring agent
    /// that never sees the raw condition).
    Summary(ConditionSummary),
}

/// One planning query: "best algorithm/partition and predicted time
/// for an `m`-byte-per-pair complete exchange on this machine's
/// dimension-`d` cube under this condition".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanQuery {
    /// Cube dimension.
    pub d: u32,
    /// Block size, bytes per node pair.
    pub m: f64,
    /// Machine timing parameters.
    pub machine: MachineParams,
    /// Network condition.
    pub condition: QueryCondition,
    /// Switching discipline (circuit by default).
    pub switching: SwitchingMode,
}

impl PlanQuery {
    /// A clean-network, circuit-switched query.
    pub fn clean(d: u32, m: f64, machine: MachineParams) -> Self {
        PlanQuery {
            d,
            m,
            machine,
            condition: QueryCondition::Clean,
            switching: SwitchingMode::Circuit,
        }
    }

    /// Attach a network condition.
    pub fn with_netcond(mut self, nc: NetCondition) -> Self {
        self.condition = QueryCondition::Net(nc);
        self
    }

    /// Attach a pre-extracted condition summary.
    pub fn with_summary(mut self, summary: ConditionSummary) -> Self {
        self.condition = QueryCondition::Summary(summary);
        self
    }

    /// Price under store-and-forward switching instead of circuit.
    pub fn with_store_and_forward(mut self) -> Self {
        self.switching = SwitchingMode::StoreAndForward;
        self
    }
}

/// Why a [`PlanQuery`] has no plan: the ways a caller-built query can
/// be malformed, reported by [`PlanEngine::try_answer`] and
/// [`PlanEngine::try_answer_batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// `d` is 0 or beyond [`mce_hypercube::MAX_DIMENSION`] (which
    /// also bounds the planner's per-build tables at `2^20` entries).
    DimensionOutOfRange(u32),
    /// The block size is NaN, infinite or negative.
    InvalidBlockSize(f64),
    /// A [`QueryCondition::Summary`] describes a cube of another
    /// dimension than the query's.
    SummaryDimensionMismatch {
        /// The summary's dimension.
        summary: u32,
        /// The query's `d`.
        query: u32,
    },
    /// A [`QueryCondition::Summary`] has a field that is NaN, infinite
    /// or negative
    /// ([`ConditionSummary::is_well_formed`](mce_model::ConditionSummary::is_well_formed)):
    /// every prediction under it would be NaN or meaningless.
    InvalidSummary,
    /// A [`QueryCondition::Net`] fails
    /// [`NetCondition::validate`] for the query's cube (a stream or
    /// cable outside it, a speed factor that is not finite and
    /// positive, more per-dimension factors than dimensions); the
    /// payload is that check's message. Summarizing such a condition
    /// would index outside the cube's link table or price with NaN.
    InvalidCondition(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::DimensionOutOfRange(d) => write!(
                f,
                "planning is defined for cube dimensions 1..={}, got d = {d}",
                mce_hypercube::MAX_DIMENSION
            ),
            PlanError::InvalidBlockSize(m) => {
                write!(f, "block size must be a finite, non-negative size, got {m}")
            }
            PlanError::SummaryDimensionMismatch { summary, query } => write!(
                f,
                "summary dimension mismatch: a dimension-{summary} summary on a d = {query} query"
            ),
            PlanError::InvalidSummary => {
                write!(f, "condition summary has a non-finite or negative field")
            }
            PlanError::InvalidCondition(why) => write!(f, "invalid network condition: {why}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Which of the paper's named algorithms the winning partition is —
/// classification of the partition's shape, for callers that dispatch
/// on algorithm rather than partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// `{1,1,...,1}`: Eq. 1, `d` single-dimension phases.
    StandardExchange,
    /// `{d}`: Eq. 2, one phase of full-distance circuits.
    OptimalCircuitSwitched,
    /// Any other partition: a true multiphase plan (Section 6).
    Multiphase,
}

impl Algorithm {
    /// Classify a partition.
    pub fn of(partition: &Partition) -> Algorithm {
        if partition.is_standard_exchange() {
            Algorithm::StandardExchange
        } else if partition.is_optimal_circuit_switched() {
            Algorithm::OptimalCircuitSwitched
        } else {
            Algorithm::Multiphase
        }
    }
}

/// Where an answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnswerSource {
    /// The cached (or just-built) optimality hull of the conditioned
    /// analytic model.
    Hull,
    /// Direct simulation through the out-of-envelope fallback.
    Fallback,
}

/// One planning answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanAnswer {
    /// The winning partition.
    pub best_partition: Partition,
    /// The winner's named-algorithm classification.
    pub algorithm: Algorithm,
    /// Predicted (or, for [`AnswerSource::Fallback`], simulated)
    /// complete-exchange time, µs.
    pub predicted_us: f64,
    /// Where the answer came from.
    pub source: AnswerSource,
}

/// When the engine may route a query through the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackPolicy {
    /// Simulate when the condition is out of the model's accuracy
    /// envelope ([`out_of_envelope`]), the query carries a real
    /// [`NetCondition`], the cube is small enough
    /// ([`PlanOptions::max_fallback_dimension`]) and so is the
    /// exchange (at most 64 MiB of node memory, `4^d · m`).
    Auto,
    /// Never simulate; every answer comes from the hull.
    Never,
}

/// Engine configuration. [`Default`] is the service configuration the
/// benchmarks measure; see `crates/plan/README.md` for sizing notes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanOptions {
    /// Cache shards (each an independently locked LRU map). More
    /// shards, less lock contention under concurrent queries.
    pub shards: usize,
    /// Hulls retained per shard; total capacity is
    /// `shards × per_shard_capacity`.
    pub per_shard_capacity: usize,
    /// `false` (default): warm predictions are affine recombinations
    /// from the cached face — no model evaluation, ≤ 1e-9 relative of
    /// the model's value. `true`: one direct model evaluation of the
    /// winner per answer, bit-equal to
    /// `mce_simnet::conformance::predicted_us_with`. The winning
    /// partition is exact either way.
    pub exact_predictions: bool,
    /// Simulator-fallback policy.
    pub fallback: FallbackPolicy,
    /// Out-of-envelope threshold on the per-dimension saturated hit
    /// rate (see [`out_of_envelope`]); `0.5` flags the dense hotspot
    /// ladders the accuracy envelope excludes.
    pub dense_hit_threshold: f64,
    /// Largest cube the fallback will simulate (a d=8 grid cell is
    /// milliseconds; beyond that a degraded analytic answer beats a
    /// stalled service).
    pub max_fallback_dimension: u32,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            shards: 16,
            per_shard_capacity: 64,
            exact_predictions: false,
            fallback: FallbackPolicy::Auto,
            dense_hit_threshold: 0.5,
            max_fallback_dimension: 8,
        }
    }
}
