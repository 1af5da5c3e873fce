//! Batch execution of independent simulator runs.
//!
//! Every figure, ablation row, property suite and verification pass in
//! this repository is a fan-out of *independent* deterministic runs.
//! One run on a fresh [`SimArena`] builds every pooled allocation
//! (payload buffers, event heap, wait-queue tables, link table,
//! per-node state) from scratch and compiles its programs; this module
//! batches the runs instead:
//!
//! * [`SimBatch`] is a builder: one base [`SimConfig`] template plus a
//!   list of variant runs — jitter-replicate seed sweeps
//!   ([`SimBatch::seed_sweep`]) or one run per call under the base
//!   config ([`SimBatch::push_run`]) or an explicit one
//!   ([`SimBatch::push_with_config`], how the robustness, switching
//!   and interference studies build their scenario lists).
//!   [`SimBatch::run`] executes them rayon-parallel with one
//!   [`SimArena`] per worker; results come back in push order.
//! * [`SimArena`] (re-exported from the engine) drives any number of
//!   runs over reused allocations. Program sets shared across runs via
//!   `Arc` are compiled once per process: the compile cache is
//!   process-wide (see [`crate::compile`]), not per arena.
//! * [`run_cells`] is the streaming fan-out for heterogeneous sweeps
//!   (one programs/memories build per cell): the build closure runs on
//!   the worker thread, so only ~one cell per core is materialized at
//!   a time — same peak memory as a hand-rolled parallel loop, with
//!   arena reuse on top.
//!
//! # When to use what
//!
//! * One run, or a handful driven by hand on one thread:
//!   [`SimArena::run`] (compile per run; a one-off run is
//!   `SimArena::new().run(..)`, its memories moved into the result) or
//!   [`SimArena::run_shared`] (`Arc`-shared set, compile cached);
//!   [`SimArena::run_spec`] takes a whole [`RunSpec`] and picks
//!   between the two itself. These three and [`SimArena::run_until`]
//!   are the only doors into the engine. Tracing is not a separate
//!   door but the [`RunSpec::trace`] field ([`SimBatch::push_traced`]
//!   in a batch), and a bound is not one either: `run_until` is `run`
//!   with one more argument, for a caller that compares runs and holds
//!   a finish time to beat.
//! * N runs of *shared* programs (seed and config sweeps): a
//!   [`SimBatch`] with `Arc`-shared programs and memories — compile
//!   once, simulate N times.
//! * N runs with per-run programs (figure grids, partition sweeps):
//!   [`run_cells`], or a [`SimBatch`] of owned specs when N is small.
//!
//! # Error contract and determinism
//!
//! Arena reuse is observationally invisible: every run starts from
//! fully reset state and produces bit-identical results to a run on a
//! fresh arena (pinned by the determinism-snapshot suite in
//! `mce-core`). Failures on every door are typed [`SimError`]s, never
//! panics: a self-send is rejected at compile time as
//! [`SimError::SelfSend`], and a bad config (a jitter fraction outside
//! `[0, 1)`, oversized dimension, wrong program/memory counts) is
//! [`SimError::InvalidConfig`] before any simulated time elapses.

use crate::config::SimConfig;
pub use crate::engine::SimArena;
use crate::engine::{SimError, SimResult};
use crate::program::Program;
use crate::trace::TraceConfig;
use std::ops::Range;
use std::sync::Arc;

pub mod agg;

/// Initial node memories of one run: either an `Arc`-shared template
/// cloned per run (sweeps where every replicate starts identically) or
/// a one-off owned set moved into the run.
pub enum Memories {
    /// Shared template; each run clones it.
    Shared(Arc<Vec<Vec<u8>>>),
    /// Owned set consumed by exactly one run.
    Owned(Vec<Vec<u8>>),
}

impl Memories {
    fn materialize(self) -> Vec<Vec<u8>> {
        match self {
            Memories::Shared(template) => Vec::clone(&template),
            Memories::Owned(memories) => memories,
        }
    }
}

impl From<Vec<Vec<u8>>> for Memories {
    fn from(memories: Vec<Vec<u8>>) -> Self {
        Memories::Owned(memories)
    }
}

impl From<Arc<Vec<Vec<u8>>>> for Memories {
    fn from(template: Arc<Vec<Vec<u8>>>) -> Self {
        Memories::Shared(template)
    }
}

impl From<&Arc<Vec<Vec<u8>>>> for Memories {
    fn from(template: &Arc<Vec<Vec<u8>>>) -> Self {
        Memories::Shared(Arc::clone(template))
    }
}

/// One fully-specified run within a batch.
pub struct RunSpec {
    /// Configuration of this run.
    pub cfg: SimConfig,
    /// Per-node programs, `Arc`-shared so sweeps over one program set
    /// hit the process-wide compile cache.
    pub programs: Arc<Vec<Program>>,
    /// Initial node memories.
    pub memories: Memories,
    /// Structured trace capture for this run (`None` = off); captured
    /// events come back in [`SimResult::trace`]. See [`crate::trace`].
    pub trace: Option<TraceConfig>,
}

impl SimArena {
    /// Execute one batch spec on this arena.
    pub fn run_spec(&mut self, spec: RunSpec) -> Result<SimResult, SimError> {
        let RunSpec { cfg, programs, memories, trace } = spec;
        // A spec that owns the last Arc to its program set can never
        // see that set again: compile uncached instead of pinning a
        // dead cache entry (run_cells grids build unique programs per
        // cell).
        let shared = (Arc::strong_count(&programs) > 1).then_some(&programs);
        self.run_one(&cfg, &programs, shared, memories.materialize(), trace.as_ref())
    }
}

/// A batch of independent simulation runs built from one [`SimConfig`]
/// template. See the [module docs](self) for the full contract.
///
/// # Example
///
/// ```
/// use mce_simnet::batch::SimBatch;
/// use mce_simnet::{Op, Program, SimConfig, Tag};
/// use mce_hypercube::NodeId;
/// use std::sync::Arc;
///
/// // Eight jitter replicates of a one-way transfer, in parallel.
/// let programs = Arc::new(vec![
///     Program { ops: vec![Op::send(NodeId(1), 0..64, Tag::data(0, 1))] },
///     Program {
///         ops: vec![
///             Op::post_recv(NodeId(0), Tag::data(0, 1), 0..64),
///             Op::wait_recv(NodeId(0), Tag::data(0, 1)),
///         ],
///     },
/// ]);
/// let memories = Arc::new(vec![vec![7u8; 64], vec![0u8; 64]]);
/// let mut batch = SimBatch::new(SimConfig::ipsc860(1));
/// batch.seed_sweep(0.05, 1..=8, &programs, &memories);
/// let results = batch.run();
/// assert_eq!(results.len(), 8);
/// assert!(results.iter().all(|r| r.is_ok()));
/// ```
pub struct SimBatch {
    base: SimConfig,
    runs: Vec<RunSpec>,
}

impl SimBatch {
    /// Empty batch whose sweeps derive their configs from `base`.
    pub fn new(base: SimConfig) -> Self {
        SimBatch { base, runs: Vec::new() }
    }

    /// The config template sweeps derive from.
    pub fn base(&self) -> &SimConfig {
        &self.base
    }

    /// Number of runs queued.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether no runs are queued.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Queue an explicit spec; returns its result index.
    pub fn push(&mut self, spec: RunSpec) -> usize {
        self.runs.push(spec);
        self.runs.len() - 1
    }

    /// Queue one run of the base config; returns its result index.
    pub fn push_run(
        &mut self,
        programs: Arc<Vec<Program>>,
        memories: impl Into<Memories>,
    ) -> usize {
        let cfg = self.base.clone();
        self.push_with_config(cfg, programs, memories)
    }

    /// Queue one run under an explicit config (block-size grids and
    /// ablations where every cell differs); returns its result index.
    pub fn push_with_config(
        &mut self,
        cfg: SimConfig,
        programs: Arc<Vec<Program>>,
        memories: impl Into<Memories>,
    ) -> usize {
        self.push(RunSpec { cfg, programs, memories: memories.into(), trace: None })
    }

    /// Queue one run under an explicit config with structured trace
    /// capture enabled — the per-cell opt-in for sweeps that want the
    /// event view of selected cells without tracing the whole batch.
    /// Returns the result index.
    pub fn push_traced(
        &mut self,
        cfg: SimConfig,
        programs: Arc<Vec<Program>>,
        memories: impl Into<Memories>,
        trace: TraceConfig,
    ) -> usize {
        self.push(RunSpec { cfg, programs, memories: memories.into(), trace: Some(trace) })
    }

    /// Queue one jitter replicate per seed: the base config with
    /// `jitter_frac` and that seed. Returns the result index range.
    pub fn seed_sweep(
        &mut self,
        jitter_frac: f64,
        seeds: impl IntoIterator<Item = u64>,
        programs: &Arc<Vec<Program>>,
        memories: &Arc<Vec<Vec<u8>>>,
    ) -> Range<usize> {
        let start = self.runs.len();
        for seed in seeds {
            let mut cfg = self.base.clone();
            cfg.jitter_frac = jitter_frac;
            cfg.seed = seed;
            self.push_with_config(cfg, Arc::clone(programs), memories);
        }
        start..self.runs.len()
    }

    /// Execute the batch rayon-parallel, one [`SimArena`] per worker
    /// thread. Results are in push order; each is exactly what
    /// [`SimArena::run_spec`] on a fresh arena returns for that spec.
    pub fn run(self) -> Vec<Result<SimResult, SimError>> {
        rayon::parallel_map_init(self.runs, SimArena::new, |arena, spec| arena.run_spec(spec))
    }

    /// Execute the batch sequentially on one caller-supplied arena, in
    /// push order. Useful for determinism tests and for callers that
    /// already parallelize one level up.
    pub fn run_on(self, arena: &mut SimArena) -> Vec<Result<SimResult, SimError>> {
        self.runs.into_iter().map(|spec| arena.run_spec(spec)).collect()
    }
}

/// Streaming fan-out over heterogeneous cells (figure grids, partition
/// sweeps): `build` turns a cell into a [`RunSpec`] *on the worker
/// thread* — so at most one cell's programs and memories per core are
/// alive at a time — and `finish` folds the cell and its result into
/// the output. Output order matches `cells` order; every worker reuses
/// one [`SimArena`] across its share of the cells.
pub fn run_cells<T: Send, U: Send>(
    cells: Vec<T>,
    build: impl Fn(&T) -> RunSpec + Sync,
    finish: impl Fn(T, Result<SimResult, SimError>) -> U + Sync,
) -> Vec<U> {
    rayon::parallel_map_init(cells, SimArena::new, |arena, cell| {
        let result = arena.run_spec(build(&cell));
        finish(cell, result)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgKind, Tag};
    use crate::netcond::{BackgroundStream, Cable, LinkPolicy, NetCondition};
    use crate::program::Op;
    use crate::time::SimTime;
    use crate::traffic::{compose_memories, compose_programs, CwndAlg, FlowCtl, JobSpec};
    use mce_hypercube::NodeId;

    /// Node 0 sends `bytes` to the far corner of a d-cube; others idle.
    fn one_way(d: u32, bytes: usize) -> (Arc<Vec<Program>>, Arc<Vec<Vec<u8>>>) {
        let n = 1usize << d;
        let dst = (n - 1) as u32;
        let mut programs = vec![Program::empty(); n];
        programs[0] = Program { ops: vec![Op::send(NodeId(dst), 0..bytes, Tag::data(0, 1))] };
        programs[dst as usize] = Program {
            ops: vec![
                Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
                Op::wait_recv(NodeId(0), Tag::data(0, 1)),
            ],
        };
        let mut memories = vec![vec![0u8; bytes]; n];
        memories[0] = vec![9u8; bytes];
        (Arc::new(programs), Arc::new(memories))
    }

    #[test]
    fn seed_sweep_is_deterministic_and_seed_sensitive() {
        let (programs, memories) = one_way(3, 200);
        let sweep = |seeds: Range<u64>| -> Vec<u64> {
            let mut batch = SimBatch::new(SimConfig::ipsc860(3));
            batch.seed_sweep(0.05, seeds, &programs, &memories);
            batch.run().into_iter().map(|r| r.unwrap().finish_time.as_ns()).collect()
        };
        let a = sweep(1..9);
        let b = sweep(1..9);
        assert_eq!(a, b, "same seeds, same results");
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 1, "different seeds must perturb timing: {a:?}");
    }

    #[test]
    fn narrow_nic_window_serializes_below_the_stagger() {
        // Two nodes exchange with a 50 µs stagger: a zero window
        // serializes, a huge window lets the transfers overlap.
        let bytes = 500usize;
        let mk = |other: u32, delay: u64| {
            let mut ops = vec![Op::post_recv(NodeId(other), Tag::data(0, 1), 0..bytes)];
            if delay > 0 {
                ops.push(Op::Compute { ns: delay });
            }
            ops.push(Op::send(NodeId(other), 0..bytes, Tag::data(0, 1)));
            ops.push(Op::wait_recv(NodeId(other), Tag::data(0, 1)));
            Program { ops }
        };
        let programs = Arc::new(vec![mk(1, 0), mk(0, 50_000)]);
        let memories = Arc::new(vec![vec![1u8; bytes]; 2]);
        let mut batch = SimBatch::new(SimConfig::ipsc860(1));
        for window in [0, 100_000_000] {
            let cfg = SimConfig { concurrency_window_ns: window, ..batch.base().clone() };
            batch.push_with_config(cfg, Arc::clone(&programs), &memories);
        }
        let results = batch.run();
        let narrow = results[0].as_ref().unwrap().finish_time;
        let wide = results[1].as_ref().unwrap().finish_time;
        assert!(narrow > wide, "narrow window must serialize: {narrow} vs {wide}");
    }

    #[test]
    fn parallel_and_sequential_batches_agree() {
        let (programs, memories) = one_way(3, 64);
        let build = |batch: &mut SimBatch| {
            batch.seed_sweep(0.03, 1..6, &programs, &memories);
            let narrow = SimConfig { concurrency_window_ns: 0, ..batch.base().clone() };
            batch.push_with_config(narrow, Arc::clone(&programs), &memories);
            batch.push_run(Arc::clone(&programs), &memories);
        };
        let mut parallel = SimBatch::new(SimConfig::ipsc860(3));
        build(&mut parallel);
        let mut sequential = SimBatch::new(SimConfig::ipsc860(3));
        build(&mut sequential);
        let mut arena = SimArena::new();
        let par: Vec<_> =
            parallel.run().into_iter().map(|r| r.unwrap().finish_time.as_ns()).collect();
        let seq: Vec<_> = sequential
            .run_on(&mut arena)
            .into_iter()
            .map(|r| r.unwrap().finish_time.as_ns())
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn invalid_jitter_is_a_typed_error_not_a_panic() {
        let (programs, memories) = one_way(2, 16);
        let mut batch = SimBatch::new(SimConfig::ipsc860(2));
        batch.seed_sweep(-0.5, [1], &programs, &memories);
        match batch.run().pop().unwrap() {
            Err(SimError::InvalidConfig { reason }) => {
                assert!(reason.contains("jitter"), "{reason}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let (programs, _) = one_way(2, 16);
        let mut arena = SimArena::new();
        let err = arena.run(&SimConfig::ipsc860(2), &programs, vec![vec![0u8; 16]; 3]).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn block_ladder_runs_every_size() {
        let sizes = [16usize, 64, 256];
        let mut batch = SimBatch::new(SimConfig::ipsc860(2));
        let indices: Vec<usize> = sizes
            .iter()
            .map(|&m| {
                let (programs, memories) = one_way(2, m);
                batch.push_run(programs, Vec::clone(&memories))
            })
            .collect();
        assert_eq!(indices, [0, 1, 2]);
        let results = batch.run();
        let times: Vec<u64> = results.into_iter().map(|r| r.unwrap().finish_time.as_ns()).collect();
        assert!(times[0] < times[1] && times[1] < times[2], "τm grows with m: {times:?}");
    }

    #[test]
    fn run_cells_streams_heterogeneous_workloads() {
        let cells: Vec<u32> = (1..=4).collect();
        let out = run_cells(
            cells,
            |&d| {
                let (programs, memories) = one_way(d, 32);
                RunSpec {
                    cfg: SimConfig::ipsc860(d),
                    programs,
                    memories: Memories::Shared(memories),
                    trace: None,
                }
            },
            |d, result| (d, result.unwrap().finish_time.as_us()),
        );
        assert_eq!(out.len(), 4);
        // δ per hop: farther corners take longer.
        for w in out.windows(2) {
            assert!(w[1].1 > w[0].1, "{out:?}");
        }
    }

    #[test]
    fn nested_faults_degrade_until_unroutable() {
        // One-way 0 -> 7 (3-bit mask) under nested dead-cable sets, row
        // `k` killing the first `k` cables in node-major order: light
        // damage reroutes, and once node 0 is cut off (its three
        // cables lead the order) every later row is unroutable too.
        let (programs, memories) = one_way(3, 64);
        let cables: Vec<Cable> = (0..8u32)
            .flat_map(|node| {
                (0..3)
                    .filter(move |&dim| node & (1 << dim) == 0)
                    .map(move |dim| Cable { node: NodeId(node), dim })
            })
            .collect();
        assert_eq!(cables.len(), 12, "2^(d-1) * d cables");
        let mut batch = SimBatch::new(SimConfig::ipsc860(3));
        for k in 0..=cables.len() {
            let nc = NetCondition { faults: cables[..k].to_vec(), ..NetCondition::default() };
            let cfg = batch.base().clone().with_netcond(nc);
            batch.push_with_config(cfg, Arc::clone(&programs), &memories);
        }
        let results = batch.run();
        // Row 0 is the undamaged network: identical to unconditioned.
        let clean = SimArena::new()
            .run_shared(&SimConfig::ipsc860(3), &programs, Vec::clone(&memories))
            .unwrap();
        let row0 = results[0].as_ref().unwrap();
        assert_eq!(row0.finish_time, clean.finish_time);
        assert_eq!(row0.memories, clean.memories);
        // Rows 1-2 leave node 0 an exit: rerouted, data intact.
        for row in &results[1..3] {
            assert_eq!(row.as_ref().unwrap().memories[7], vec![9u8; 64]);
        }
        // Feasibility is monotone along the nested ladder: from the
        // row that cuts node 0 off, every superset of faults is dead.
        for row in &results[3..] {
            assert!(matches!(row, Err(SimError::Unroutable { .. })), "{row:?}");
        }
    }

    #[test]
    fn seeded_degradation_ladder_slows_runs_down() {
        // Severity `s` draws every link's slowdown from `[1, s]` under
        // one seed: 1.0 is the nominal network, and stretching the same
        // draw further can only slow the transfer down.
        let (programs, memories) = one_way(4, 300);
        let mut batch = SimBatch::new(SimConfig::ipsc860(4));
        batch.push_run(Arc::clone(&programs), &memories);
        for severity in [1.0, 2.0, 8.0] {
            let cfg =
                batch.base().clone().with_netcond(NetCondition::seeded_speeds(1.0, severity, 11));
            batch.push_with_config(cfg, Arc::clone(&programs), &memories);
        }
        let times: Vec<u64> =
            batch.run().into_iter().map(|r| r.unwrap().finish_time.as_ns()).collect();
        assert_eq!(times[0], times[1], "severity 1.0 is the nominal network");
        assert!(times[1] <= times[2] && times[2] < times[3], "{times:?}");
    }

    #[test]
    fn aggregate_summarizes_seed_replicates() {
        let (programs, memories) = one_way(3, 200);
        let mut batch = SimBatch::new(SimConfig::ipsc860(3));
        let range = batch.seed_sweep(0.05, 1..=8, &programs, &memories);
        let results = batch.run();
        let agg = agg::aggregate_range(&results, range);
        assert_eq!(agg.runs, 8);
        assert_eq!(agg.failures, 0);
        assert_eq!(agg.finish_us.n, 8);
        assert!(agg.finish_us.min <= agg.finish_us.mean);
        assert!(agg.finish_us.mean <= agg.finish_us.max);
        assert!(agg.finish_us.stddev > 0.0, "jitter replicates must spread");
        assert_eq!(agg.transmissions.stddev, 0.0, "same workload, same count");
        // Scheduler telemetry rides along: every run has pending
        // events, and the deterministic workload pins the peak across
        // seed replicates (jitter shifts times, not event counts).
        assert!(agg.sched_peak_pending.min >= 1.0, "{:?}", agg.sched_peak_pending);
        assert_eq!(agg.sched_peak_pending.n, 8);
        assert_eq!(agg.sched_peak_pending.stddev, 0.0, "same workload, same queue shape");
        // Failures are counted, not folded.
        let mut batch = SimBatch::new(SimConfig::ipsc860(3));
        batch.seed_sweep(0.05, 1..=2, &programs, &memories);
        let mut results = batch.run();
        results.push(Err(SimError::Deadlock { stuck: Vec::new(), forced_drops: 0 }));
        let agg = agg::aggregate(&results);
        assert_eq!((agg.runs, agg.failures, agg.finish_us.n), (3, 1, 2));
    }

    /// Every node swaps `bytes` with its dimension-0 neighbour after a
    /// barrier: the second phase's sends leave every higher address bit
    /// free, so a run with shards opens windows there.
    fn pairwise_after_barrier(d: u32, bytes: usize) -> (Vec<Program>, Vec<Vec<u8>>) {
        let n = 1u32 << d;
        let tag = Tag::data(0, 1);
        let programs = (0..n)
            .map(|x| {
                let partner = NodeId(x ^ 1);
                Program {
                    ops: vec![
                        Op::Barrier,
                        Op::post_recv(partner, tag, bytes..2 * bytes),
                        Op::send(partner, 0..bytes, tag),
                        Op::wait_recv(partner, tag),
                    ],
                }
            })
            .collect();
        let memories = (0..n).map(|x| vec![x as u8; 2 * bytes]).collect();
        (programs, memories)
    }

    /// `senders` all send `bytes` to the far corner of a d-cube at
    /// once; their routes share the corner's last links, so they wait
    /// on each other.
    fn converge(d: u32, bytes: usize, senders: &[u32]) -> (Vec<Program>, Vec<Vec<u8>>) {
        let n = 1usize << d;
        let dst = (n - 1) as u32;
        let mut programs = vec![Program::empty(); n];
        let mut sink = Vec::new();
        for (k, &s) in senders.iter().enumerate() {
            let tag = Tag::data(0, k as u32 + 1);
            programs[s as usize] = Program { ops: vec![Op::send(NodeId(dst), 0..bytes, tag)] };
            sink.push(Op::post_recv(NodeId(s), tag, k * bytes..(k + 1) * bytes));
        }
        for (k, &s) in senders.iter().enumerate() {
            sink.push(Op::wait_recv(NodeId(s), Tag::data(0, k as u32 + 1)));
        }
        programs[dst as usize] = Program { ops: sink };
        let mut memories = vec![vec![7u8; bytes * senders.len()]; n];
        memories[dst as usize] = vec![0; bytes * senders.len()];
        (programs, memories)
    }

    type Outcome = Result<Option<SimResult>, SimError>;

    fn assert_same(a: &Outcome, b: &Outcome, case: &str) {
        match (a, b) {
            (Ok(Some(a)), Ok(Some(b))) => {
                assert_eq!(a.finish_time, b.finish_time, "{case}: finish_time");
                assert_eq!(a.node_finish, b.node_finish, "{case}: node_finish");
                assert_eq!(a.memories, b.memories, "{case}: memories");
                assert_eq!(a.stats, b.stats, "{case}: stats");
                assert_eq!(a.trace, b.trace, "{case}: trace");
            }
            (Ok(None), Ok(None)) => {}
            (Err(a), Err(b)) => assert_eq!(a, b, "{case}: error"),
            _ => panic!("{case}: reused arena {:?}, fresh arena {:?}", kind(a), kind(b)),
        }
    }

    fn kind(o: &Outcome) -> String {
        match o {
            Ok(Some(r)) => format!("finished at {}", r.finish_time),
            Ok(None) => "cut".into(),
            Err(e) => format!("{e}"),
        }
    }

    /// `n` nodes whose programs are given per node (the rest idle),
    /// every memory `bytes` long.
    fn programs_of(
        n: usize,
        bytes: usize,
        ops: Vec<(usize, Vec<Op>)>,
    ) -> (Vec<Program>, Vec<Vec<u8>>) {
        let mut programs = vec![Program::empty(); n];
        for (x, ops) in ops {
            programs[x] = Program { ops };
        }
        (programs, (0..n).map(|x| vec![x as u8; bytes]).collect())
    }

    #[test]
    fn arena_reuse_matches_fresh_arenas_across_mixed_workloads() {
        // One arena drives runs of different dimensions, program sets,
        // switching modes, bounds, failures, tracing, tenancy and shard
        // windows back to back, forwards, backwards and forwards again;
        // every outcome must equal a fresh-arena run of the same case.
        // The forward order leaves each run what a failed or windowed
        // run before it could leak: link speeds on the cable its route
        // crosses (6 → 7), a buffered UNFORCED payload (8 → 12's phase
        // mode), same-instant events (10 → 11), a dirty transmission
        // and a held link (11 → 12's window), NIC-window blocks in
        // window runtimes (12 → 15).
        type Case = (&'static str, Box<dyn Fn(&mut SimArena) -> Outcome>);
        let shared = |cfg: SimConfig, (p, m): (Arc<Vec<Program>>, Arc<Vec<Vec<u8>>>)| {
            Box::new(move |a: &mut SimArena| a.run_shared(&cfg, &p, Vec::clone(&m)).map(Some))
                as Box<dyn Fn(&mut SimArena) -> Outcome>
        };
        let owned = |cfg: SimConfig, (p, m): (Vec<Program>, Vec<Vec<u8>>)| {
            Box::new(move |a: &mut SimArena| a.run(&cfg, &p, m.clone()).map(Some))
                as Box<dyn Fn(&mut SimArena) -> Outcome>
        };
        let bounded = |cfg: SimConfig, (p, m): (Vec<Program>, Vec<Vec<u8>>), until: SimTime| {
            Box::new(move |a: &mut SimArena| a.run_until(&cfg, &p, m.clone(), until))
                as Box<dyn Fn(&mut SimArena) -> Outcome>
        };
        let traced = {
            let (p, m) = converge(3, 300, &[0, 3, 5]);
            let cfg = SimConfig::ipsc860(3);
            let trace = TraceConfig::default();
            Box::new(move |a: &mut SimArena| {
                a.run_one(&cfg, &p, None, m.clone(), Some(&trace)).map(Some)
            }) as Box<dyn Fn(&mut SimArena) -> Outcome>
        };
        let tag = |k: u32| Tag::data(0, k);
        // Two d2 jobs: job 0 holds the 0 -> 2 cable with a long
        // transfer, job 1's flow-controlled 1 -> 2 (via 0) arrives 1 µs
        // later and finds it busy.
        let two_jobs = |queue_limit: u32| {
            let hog = programs_of(
                4,
                20_000,
                vec![
                    (0, vec![Op::send(NodeId(2), 0..20_000, tag(1))]),
                    (
                        2,
                        vec![
                            Op::post_recv(NodeId(0), tag(1), 0..20_000),
                            Op::wait_recv(NodeId(0), tag(1)),
                        ],
                    ),
                ],
            );
            let late = programs_of(
                4,
                100,
                vec![
                    (1, vec![Op::send(NodeId(2), 0..100, tag(1))]),
                    (
                        2,
                        vec![
                            Op::post_recv(NodeId(1), tag(1), 0..100),
                            Op::wait_recv(NodeId(1), tag(1)),
                        ],
                    ),
                ],
            );
            let flow =
                FlowCtl { rto_ns: 100_000, max_retries: 64, cwnd: CwndAlg::Aimd { window_max: 8 } };
            let cfg = SimConfig::ipsc860(2)
                .with_netcond(
                    NetCondition::default().with_link_policy(LinkPolicy::DropTail { queue_limit }),
                )
                .with_jobs(vec![JobSpec::default(), JobSpec::at(1_000).with_flow(flow)]);
            let programs = compose_programs(2, &[hog.0, late.0]);
            (cfg, (programs, compose_memories(2, &[hog.1, late.1])))
        };
        let lossy = {
            let starved =
                FlowCtl { rto_ns: 5_000, max_retries: 2, cwnd: CwndAlg::Aimd { window_max: 4 } };
            let policy = LinkPolicy::Lossy { loss_per_myriad: 10_000, seed: 3 };
            SimConfig::ipsc860(3)
                .with_netcond(NetCondition::default().with_link_policy(policy))
                .with_jobs(vec![JobSpec::default().with_flow(starved)])
        };
        let background = SimConfig::ipsc860(3).with_netcond(
            NetCondition::default()
                .with_override(Cable { node: NodeId(1), dim: 1 }, 3.0)
                .with_background(BackgroundStream {
                    src: NodeId(1),
                    dst: NodeId(7),
                    bytes: 600,
                    start_ns: 0,
                    period_ns: 40_000,
                    count: 12,
                }),
        );
        let contended = || converge(3, 400, &[0, 1, 2, 4]);
        let contended_finish = {
            let (p, m) = contended();
            let cfg = SimConfig::ipsc860(3);
            let finish = SimArena::new().run(&cfg, &p, m).unwrap().finish_time;
            assert!(crate::finish_floor(&cfg, &p).unwrap() < finish, "the contended case waits");
            finish
        };
        // Node 0's UNFORCED message is buffered at node 1, which blocks
        // for good on a message nobody sends before posting it.
        let deadlock = programs_of(
            4,
            8,
            vec![
                (
                    0,
                    vec![Op::Send {
                        dst: NodeId(1),
                        from: 0..8,
                        tag: tag(1),
                        kind: MsgKind::Unforced,
                    }],
                ),
                (
                    1,
                    vec![
                        Op::post_recv(NodeId(2), tag(2), 0..8),
                        Op::wait_recv(NodeId(2), tag(2)),
                        Op::post_recv(NodeId(0), tag(1), 0..8),
                        Op::wait_recv(NodeId(0), tag(1)),
                    ],
                ),
            ],
        );
        // A swap whose second delivery (node 1 -> node 0, posted short)
        // fails in the instant the first one queued its wake-ups.
        let swap_mismatch = programs_of(
            2,
            100,
            vec![
                (
                    0,
                    vec![
                        Op::post_recv(NodeId(1), tag(1), 0..50),
                        Op::send(NodeId(1), 0..100, tag(1)),
                        Op::wait_recv(NodeId(1), tag(1)),
                    ],
                ),
                (
                    1,
                    vec![
                        Op::post_recv(NodeId(0), tag(1), 0..100),
                        Op::send(NodeId(0), 0..100, tag(1)),
                        Op::wait_recv(NodeId(0), tag(1)),
                    ],
                ),
            ],
        );
        // 3 -> 1 delivers short while 0 -> 2 still holds its cable,
        // 1 -> 2 (via 0) waits on it, and 2 -> 1 (via 3), just woken by
        // the release of 3 -> 1, waits in the dirty set.
        let blocked_mismatch = programs_of(
            4,
            20_000,
            vec![
                (0, vec![Op::send(NodeId(2), 0..20_000, tag(1))]),
                (
                    1,
                    vec![
                        Op::post_recv(NodeId(3), tag(2), 0..50),
                        Op::send(NodeId(2), 0..100, tag(3)),
                        Op::wait_recv(NodeId(3), tag(2)),
                    ],
                ),
                (
                    2,
                    vec![
                        Op::post_recv(NodeId(0), tag(1), 0..20_000),
                        Op::post_recv(NodeId(1), tag(3), 0..100),
                        Op::Compute { ns: 1_000 },
                        Op::send(NodeId(1), 0..100, tag(4)),
                        Op::wait_recv(NodeId(0), tag(1)),
                    ],
                ),
                (3, vec![Op::send(NodeId(1), 0..100, tag(2))]),
            ],
        );
        // Pairs (0, 1) and (2, 3) swap after a barrier, the second of
        // each 50 µs late: inside the window, the late send blocks on
        // the NIC concurrency window until the pair's receive ends.
        let nic_blocked = {
            let pair = |other: u32, late: bool| {
                let mut ops = vec![Op::post_recv(NodeId(other), tag(1), 0..500), Op::Barrier];
                if late {
                    ops.push(Op::Compute { ns: 50_000 });
                }
                ops.extend([
                    Op::send(NodeId(other), 0..500, tag(1)),
                    Op::wait_recv(NodeId(other), tag(1)),
                ]);
                ops
            };
            programs_of(
                4,
                500,
                vec![
                    (0, pair(1, false)),
                    (1, pair(0, true)),
                    (2, pair(3, false)),
                    (3, pair(2, true)),
                ],
            )
        };
        let cases: Vec<Case> = vec![
            ("d2 circuit", shared(SimConfig::ipsc860(2), one_way(2, 100))),
            (
                "d4 store-and-forward",
                shared(SimConfig::ipsc860(4).with_store_and_forward(), one_way(4, 300)),
            ),
            ("d3 jitter", shared(SimConfig::ipsc860(3).with_jitter(0.05, 7), one_way(3, 50))),
            ("d3 cut by its floor", bounded(SimConfig::ipsc860(3), contended(), SimTime(1))),
            (
                "d3 cut past until",
                bounded(SimConfig::ipsc860(3), contended(), SimTime(contended_finish.as_ns() - 1)),
            ),
            (
                "d3 bounded at its finish",
                bounded(SimConfig::ipsc860(3), contended(), contended_finish),
            ),
            ("d3 background traffic", owned(background, converge(3, 200, &[0, 2]))),
            ("d3 traced", traced),
            ("d2 deadlock", owned(SimConfig::ipsc860(2), deadlock)),
            ("d3 lossy retries exhausted", owned(lossy, converge(3, 64, &[0, 1, 2]))),
            ("d1 size mismatch", owned(SimConfig::ipsc860(1), swap_mismatch)),
            ("d2 size mismatch", owned(SimConfig::ipsc860(2), blocked_mismatch)),
            ("d2 NIC-blocked window", owned(SimConfig::ipsc860(2).with_shards(2), nic_blocked)),
            ("d2 two jobs, queue limit 1", {
                let (c, pm) = two_jobs(1);
                owned(c, pm)
            }),
            ("d2 two jobs, queue limit 0", {
                let (c, pm) = two_jobs(0);
                owned(c, pm)
            }),
            (
                "d4 shard windows",
                owned(SimConfig::ipsc860(4).with_shards(4), pairwise_after_barrier(4, 64)),
            ),
            ("d2 circuit again", shared(SimConfig::ipsc860(2), one_way(2, 100))),
        ];
        let fresh: Vec<Outcome> = cases.iter().map(|(_, run)| run(&mut SimArena::new())).collect();
        let finished = |i: usize| fresh[i].as_ref().unwrap().as_ref().unwrap();
        assert!(matches!(fresh[3], Ok(None)) && matches!(fresh[4], Ok(None)), "both bounds cut");
        assert!(matches!(fresh[5], Ok(Some(_))), "a bound at the finish is no cut");
        assert!(finished(6).stats.background_transmissions > 0, "background runs");
        assert!(!finished(7).trace.is_empty(), "the traced case captures events");
        assert!(matches!(fresh[8], Err(SimError::Deadlock { .. })), "{}", kind(&fresh[8]));
        assert!(matches!(fresh[9], Err(SimError::RetriesExhausted { .. })), "{}", kind(&fresh[9]));
        for i in [10, 11] {
            assert!(matches!(fresh[i], Err(SimError::SizeMismatch { .. })), "{}", kind(&fresh[i]));
        }
        let blocked = &finished(12).stats;
        assert!(
            blocked.shard_windows > 0 && blocked.nic_serialization_events > 0,
            "a window opens and blocks on the NIC window"
        );
        assert_eq!(finished(13).stats.flow_drops, 0, "a queue limit of 1 admits one waiter");
        assert!(finished(14).stats.flow_drops > 0, "a queue limit of 0 refuses");
        assert!(finished(15).stats.shard_windows > 0, "the sharded case opens windows");
        let mut arena = SimArena::new();
        let order = (0..cases.len()).chain((0..cases.len()).rev()).chain(0..cases.len());
        for i in order {
            let (case, run) = &cases[i];
            assert_same(&run(&mut arena), &fresh[i], case);
        }
    }
}
