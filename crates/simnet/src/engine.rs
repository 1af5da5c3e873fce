//! The discrete-event simulation engine.
//!
//! Nodes execute their [`Program`]s; the engine interleaves them in
//! simulated time, arbitrating directed-link circuits (edge
//! contention), the NIC send/receive concurrency window, FORCED /
//! UNFORCED delivery semantics and global barriers. Runs are
//! deterministic: events are ordered by `(time, sequence)` and all
//! iteration orders are fixed.
//!
//! # Hot-path internals
//!
//! The engine is the throughput ceiling for every figure, sweep and
//! property suite in this repository, so its inner loop avoids
//! per-event allocation and rescanning:
//!
//! * **Compiled programs** — before the run, each node's [`Op`](crate::Op) list
//!   is compiled once: every `(src, tag)` message key is resolved to a
//!   dense per-node *slot index* (receives are posted at most once per
//!   key, so a slot is a single-use cell holding the posted range, the
//!   delivered flag and any buffered UNFORCED payload), and every
//!   `Send` gets its e-cube path precomputed into an inline
//!   fixed-capacity link array (one hop per cube dimension) plus the receiver-side slot
//!   it will deliver into. The event loop then executes ops by
//!   reference — no `op.clone()`, no hash lookups.
//! * **Zero-copy payloads** — in circuit mode the sender blocks for
//!   the whole transmission, so payload bytes stay *in the sender's
//!   memory* until delivery: one copy, straight into the receiver's
//!   posted range. An inbound delivery that would overwrite the
//!   in-flight range materializes the payload first (copy-on-write),
//!   preserving frozen-at-issue semantics exactly. Store-and-forward
//!   sends (the sender is released after hop 0) and early-arriving
//!   UNFORCED buffers copy through pooled buffers instead.
//! * **Wait-queues** — a transmission that fails to start registers
//!   watchers on the directed links of its segment, on the NIC state
//!   of the affected endpoints, and (for the concurrency-window rule)
//!   on the earliest future time its blocking condition can lapse.
//!   A released link wakes only the transmissions actually blocked on
//!   it. Woken candidates are retried in global issue order, exactly
//!   reproducing the start order, one-shot blocking flags and wait
//!   accounting of the previous full-rescan implementation (see the
//!   determinism-snapshot suite in `mce-core`).
//! * **Same-instant FIFO** — events scheduled for the instant being
//!   drained (the bulk of the mix) append to a FIFO and never touch a
//!   queue; later events (and NIC-lapse wake-ups) wait in binary
//!   min-heaps ([`CalendarQueue`]) keyed by `(time, seq)`, so pops keep
//!   exact `(time, seq)` order (see the [`crate::sched`] module docs).
//! * **Block moves without `memcpy` calls** — a `Permute` scatters its
//!   blocks through one kernel, `copy_block`: a block of 8..=64 bytes
//!   moves as two fixed-width (8, 16 or 32 bytes), possibly
//!   overlapping copies of its two ends, which compile to plain loads
//!   and stores; other sizes keep `copy_from_slice`. Small-block
//!   exchanges are where multiphase wins, and their shuffles used to be
//!   one libc `memcpy` call per block (29 M of 8 bytes each in a d11,
//!   m = 8 pass of the perf ledger's `bigcube_cold`).

use crate::compile::{compile, shared_compiled_for, Compiled, CompiledOp, CompiledProgram};
use crate::config::{SimConfig, SwitchingMode};
use crate::floor::PriceFloor;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::link::{LinkTable, TransmissionId};
use crate::message::{MsgKind, Tag};
use crate::netcond::{
    background_tag, ecube_route_is_dead, lossy_coin, plan_route, BackgroundStream, FaultSet,
    LinkPolicy, NetCondition,
};
use crate::program::Program;
use crate::sched::CalendarQueue;
use crate::shard::{PhaseMode, ShardPlan};
use crate::stats::{JobStats, SimStats};
use crate::time::SimTime;
use crate::trace::{FlowKind, TraceConfig, TraceEvent, TraceSink, WaitCause};
use crate::traffic::{CwndState, FlowCtl};
use mce_hypercube::routing::DirectedLink;
use mce_hypercube::NodeId;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Event queue drained before every node finished its program.
    /// Lists each stuck node with a description of what it waits on.
    /// This is how the "fatal" scenarios of Section 7.3 (FORCED
    /// message discarded because its receive was not yet posted)
    /// manifest.
    Deadlock {
        /// `(node, reason)` pairs for every unfinished node.
        stuck: Vec<(NodeId, String)>,
        /// FORCED messages that were discarded during the run.
        forced_drops: u64,
    },
    /// A message was delivered into a posted buffer of a different
    /// size.
    SizeMismatch {
        /// Receiving node.
        node: NodeId,
        /// Offending message tag.
        tag: Tag,
        /// Bytes posted for the receive.
        posted: usize,
        /// Bytes actually sent.
        sent: usize,
    },
    /// A program failed static validation.
    InvalidProgram {
        /// Offending node.
        node: NodeId,
        /// Validator message.
        reason: String,
    },
    /// A program sends to its own node. Self-sends are not modelled
    /// (local data movement is `Permute`/`Compute`); the compile pass
    /// rejects them before any simulated time elapses.
    SelfSend {
        /// Offending node.
        node: NodeId,
        /// Index of the offending op in that node's program.
        op: usize,
    },
    /// The [`crate::SimConfig`] failed [`crate::SimConfig::validate`].
    InvalidConfig {
        /// Validator message.
        reason: String,
    },
    /// Under the configured link faults (see [`crate::netcond`]) no
    /// xor-mask decomposition routes `src` to `dst`: every
    /// dimension-correction order crosses a dead cable. Detected for
    /// every transmission of the compiled program — and every
    /// background stream — before any simulated time elapses.
    Unroutable {
        /// Transmitting node.
        src: NodeId,
        /// Unreachable node.
        dst: NodeId,
    },
    /// A flow-controlled source (see [`crate::traffic`]) exhausted its
    /// retry budget: the link policy kept dropping or refusing its
    /// transmission [`crate::traffic::FlowCtl::max_retries`] + 1
    /// times. The typed alternative to an unbounded retransmission
    /// loop — a starved reactive job surfaces here instead of
    /// spinning forever.
    RetriesExhausted {
        /// Index of the starved job in [`crate::SimConfig::jobs`].
        job: u32,
        /// The transmitting context (job · 2^d + node).
        src: NodeId,
        /// The intended receiver context.
        dst: NodeId,
        /// Attempts made (max_retries + 1).
        retries: u32,
    },
    /// The config carried [`crate::SimConfig::declared_sync`] but a
    /// shard window hit a NIC concurrency-window violation — the
    /// workload is not the FORCED-protocol exchange it was declared to
    /// be. Without the declaration the run would have transparently
    /// been rerun without windows; with it, the driver skips the input
    /// snapshot that rerun needs, so the violation is surfaced instead
    /// of risking silent divergence. Rerun without
    /// `with_declared_sync`.
    SyncDeclarationViolated,
}

impl SimError {
    /// The nodes a [`SimError::Deadlock`] reports as blocked, in node
    /// order; empty for every other error.
    pub fn blocked(&self) -> Vec<NodeId> {
        match self {
            SimError::Deadlock { stuck, .. } => stuck.iter().map(|(n, _)| *n).collect(),
            _ => Vec::new(),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { stuck, forced_drops } => {
                write!(
                    f,
                    "deadlock: {} node(s) stuck ({} forced drops):",
                    stuck.len(),
                    forced_drops
                )?;
                for (n, r) in stuck.iter().take(8) {
                    write!(f, " [{n}: {r}]")?;
                }
                Ok(())
            }
            SimError::SizeMismatch { node, tag, posted, sent } => write!(
                f,
                "size mismatch at node {node} tag {tag}: posted {posted} bytes, sent {sent}"
            ),
            SimError::InvalidProgram { node, reason } => {
                write!(f, "invalid program at node {node}: {reason}")
            }
            SimError::SelfSend { node, op } => {
                write!(
                    f,
                    "self-send at node {node} op {op}: use Permute/Compute for local data movement"
                )
            }
            SimError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            SimError::Unroutable { src, dst } => write!(
                f,
                "unroutable: no fault-avoiding xor-mask decomposition routes {src} to {dst}"
            ),
            SimError::RetriesExhausted { job, src, dst, retries } => write!(
                f,
                "retries exhausted: job {job} context {src} gave up sending to {dst} \
                 after {retries} dropped attempts"
            ),
            SimError::SyncDeclarationViolated => write!(
                f,
                "declared_sync violated: a shard window hit a NIC concurrency-window \
                 conflict, so the workload is not pairwise-synchronized; rerun without \
                 with_declared_sync"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of a successful run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Time the last node finished.
    pub finish_time: SimTime,
    /// Per-node finish times.
    pub node_finish: Vec<SimTime>,
    /// Final node memories.
    pub memories: Vec<Vec<u8>>,
    /// Aggregate statistics.
    pub stats: SimStats,
    /// Structured trace events (empty unless tracing was enabled; see
    /// [`crate::trace`]). When the bounded ring overflowed, the oldest
    /// events are missing and
    /// [`SimStats::trace_events_dropped`] counts them.
    pub trace: Vec<TraceEvent>,
}

/// Longest e-cube path the inline link array can hold: one hop per
/// cube dimension, matching `mce_hypercube::MAX_DIMENSION`.
pub(crate) const MAX_HOPS: usize = mce_hypercube::MAX_DIMENSION as usize;

/// Sentinel for "the receiver never posts this key".
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Stack buffer an e-cube route expands into (no heap allocation).
type RouteBuf = [DirectedLink; MAX_HOPS];

/// A route is fully determined by its source and the XOR mask of the
/// endpoints; this expands it hop by hop — correcting the lowest
/// differing bit first, identical to [`ecube_path`] — into `buf` and
/// returns the populated prefix.
#[inline]
fn expand_route(src: NodeId, mask: u32, buf: &mut RouteBuf) -> &[DirectedLink] {
    debug_assert!(mask.count_ones() as usize <= MAX_HOPS);
    let mut cur = src.0;
    let mut diff = mask;
    let mut len = 0usize;
    while diff != 0 {
        let next = cur ^ (diff & diff.wrapping_neg());
        buf[len] = DirectedLink { from: NodeId(cur), to: NodeId(next) };
        cur = next;
        diff &= diff - 1;
        len += 1;
    }
    &buf[..len]
}

#[inline]
fn fresh_route_buf() -> RouteBuf {
    [DirectedLink { from: NodeId(0), to: NodeId(0) }; MAX_HOPS]
}

/// Expand a route given an explicit dimension-correction order (a
/// fault-avoiding alternate decomposition of the xor mask).
#[inline]
fn expand_route_dims<'b>(src: NodeId, dims: &[u8], buf: &'b mut RouteBuf) -> &'b [DirectedLink] {
    debug_assert!(dims.len() <= MAX_HOPS);
    let mut cur = src.0;
    for (i, &dim) in dims.iter().enumerate() {
        let next = cur ^ (1u32 << dim);
        buf[i] = DirectedLink { from: NodeId(cur), to: NodeId(next) };
        cur = next;
    }
    &buf[..dims.len()]
}

/// The route of `(src, mask)` for this run: the fault-avoiding
/// override when the conditioned state holds one, the plain e-cube
/// expansion otherwise.
#[inline]
fn route_for<'b>(
    conditioned: Option<&Conditioned>,
    src: NodeId,
    mask: u32,
    buf: &'b mut RouteBuf,
) -> &'b [DirectedLink] {
    if let Some(cond) = conditioned {
        if let Some(dims) = cond.reroutes.get(&(src.0, mask)) {
            return expand_route_dims(src, dims, buf);
        }
    }
    expand_route(src, mask, buf)
}

/// Per-run state of a conditioned network (faults resolved to route
/// overrides, background-stream schedule). Built before any simulated
/// time elapses; `None` on unconditioned runs.
struct Conditioned {
    /// Fault-avoiding dimension orders for every `(src, mask)` whose
    /// e-cube route crosses a dead cable. Keyed by *physical* source
    /// node: multi-job contexts of one node share routes.
    reroutes: FxHashMap<(u32, u32), Vec<u8>>,
    /// Under [`NetCondition::skip_dead_pairs`]: every `(phys src,
    /// mask)` with *no* fault-avoiding route. Sends to these pairs are
    /// skipped (and counted per job) instead of failing the run;
    /// empty otherwise.
    dead_pairs: FxHashSet<(u32, u32)>,
    /// Background streams (copied out of the config).
    streams: Vec<BackgroundStream>,
    /// Injections left per stream (zeroed for streams whose pair is
    /// dead under `skip_dead_pairs`).
    remaining: Vec<u32>,
}

/// Fault-avoiding routes keyed by `(phys src, mask)`, and the pairs
/// skipped as dead (see [`Conditioned`]).
pub(crate) type FaultRoutes = (FxHashMap<(u32, u32), Vec<u8>>, FxHashSet<(u32, u32)>);

/// Resolve `nc`'s faults for every send of a program set — `sends`
/// yields `(context, destination)` in program order — and every
/// background stream: a fault-avoiding route for each pair whose
/// e-cube route crosses a dead cable, a dead pair under
/// [`NetCondition::skip_dead_pairs`] where none exists, or the first
/// such pair's [`SimError::Unroutable`]. The one resolution behind a
/// run's conditioned state and [`crate::floor::finish_floor`].
pub(crate) fn resolve_faults(
    cfg: &SimConfig,
    nc: &NetCondition,
    sends: impl IntoIterator<Item = (u32, u32)>,
) -> Result<FaultRoutes, SimError> {
    let mut reroutes: FxHashMap<(u32, u32), Vec<u8>> = Default::default();
    let mut dead_pairs: FxHashSet<(u32, u32)> = Default::default();
    // Multi-job contexts fold onto physical nodes: routes, faults and
    // dead pairs are all per-`(phys src, mask)`.
    let node_mask = cfg.num_nodes() as u32 - 1;
    let skip = nc.skip_dead_pairs;
    let faults = FaultSet::new(cfg.dimension, &nc.faults);
    if faults.any() {
        let mut resolve = |src: NodeId, dst: NodeId| -> Result<(), SimError> {
            let mask = src.0 ^ dst.0;
            if mask == 0
                || reroutes.contains_key(&(src.0, mask))
                || dead_pairs.contains(&(src.0, mask))
                || !ecube_route_is_dead(src, mask, &faults)
            {
                return Ok(());
            }
            match plan_route(src, mask, &faults) {
                Some(dims) => {
                    reroutes.insert((src.0, mask), dims);
                    Ok(())
                }
                None if skip => {
                    dead_pairs.insert((src.0, mask));
                    Ok(())
                }
                None => Err(SimError::Unroutable { src, dst }),
            }
        };
        for (x, dst) in sends {
            resolve(NodeId(x & node_mask), NodeId(dst & node_mask))?;
        }
        for stream in &nc.background {
            resolve(stream.src, stream.dst)?;
        }
    }
    Ok((reroutes, dead_pairs))
}

/// Resolve a [`NetCondition`] against a compiled program set: find a
/// fault-avoiding route for every send and every background stream (or
/// fail with [`SimError::Unroutable`]), and set up the injection
/// schedule.
fn build_conditioned(
    cfg: &SimConfig,
    compiled: &Compiled,
    nc: &NetCondition,
) -> Result<Conditioned, SimError> {
    let sends = compiled.programs.iter().enumerate().flat_map(|(x, program)| {
        program.ops(&compiled.ops).iter().filter_map(move |op| match op {
            CompiledOp::Send { dst, .. } => Some((x as u32, dst.0)),
            _ => None,
        })
    });
    let (reroutes, dead_pairs) = resolve_faults(cfg, nc, sends)?;
    // A dead background stream injects nothing instead of erroring.
    let remaining = nc
        .background
        .iter()
        .map(|s| if dead_pairs.contains(&(s.src.0, s.src.0 ^ s.dst.0)) { 0 } else { s.count })
        .collect();
    Ok(Conditioned { reroutes, dead_pairs, streams: nc.background.clone(), remaining })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    /// Waiting on the message bound to this slot of the node.
    Waiting(u32),
    InBarrier,
    Sending(TransmissionId),
    Done,
}

/// Single-use receive cell for one `(src, tag)` key: 12 bytes, packed
/// for the flat all-nodes slot table (d10 runs hold >10^5 slots, so
/// cell size is directly per-run allocation and reset traffic). The
/// rare early-arriving UNFORCED payload lives in a side map keyed by
/// global slot index, not here.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Posted receive range (valid when `POSTED` is set).
    start: u32,
    end: u32,
    flags: u8,
}

/// [`Slot::flags`]: a receive is posted and undelivered.
const SLOT_POSTED: u8 = 1;
/// [`Slot::flags`]: the message was delivered.
const SLOT_DELIVERED: u8 = 1 << 1;
/// [`Slot::flags`]: an UNFORCED payload is buffered in the side map.
const SLOT_BUFFERED: u8 = 1 << 2;

#[derive(Debug, Clone)]
struct NodeState {
    pc: usize,
    status: Status,
    /// Active outgoing transmission interval (id, start, end).
    outgoing: Option<(TransmissionId, SimTime, SimTime)>,
    /// Active incoming transmission intervals (id, start, end).
    incoming: Vec<(TransmissionId, SimTime, SimTime)>,
    finish: SimTime,
}

impl NodeState {
    fn new() -> Self {
        NodeState {
            pc: 0,
            status: Status::Ready,
            outgoing: None,
            incoming: Vec::new(),
            finish: SimTime::ZERO,
        }
    }

    /// Re-arm for a new run, keeping the interval allocation.
    fn reset(&mut self) {
        self.pc = 0;
        self.status = Status::Ready;
        self.outgoing = None;
        self.incoming.clear();
        self.finish = SimTime::ZERO;
    }
}

/// Copy one node's state across the shard-window boundary, reusing
/// the destination's interval allocation (a derived `clone` would
/// allocate a fresh `incoming` per node per window).
fn copy_quiescent(dst: &mut NodeState, src: &NodeState) {
    dst.pc = src.pc;
    dst.status = src.status;
    dst.outgoing = src.outgoing;
    dst.incoming.clear();
    dst.incoming.extend_from_slice(&src.incoming);
    dst.finish = src.finish;
}

/// One in-flight transmission. Field types are packed (u8 hop index,
/// flag bytes) to keep the struct at 72 bytes: the slab holds one per
/// send of the run — >10^5 at d10 — and every event reads or moves
/// entries, so struct size is slab traffic.
#[derive(Debug)]
struct Transmission {
    /// Owned payload bytes; empty when `inplace` carries the range.
    payload: Vec<u8>,
    /// Zero-copy payload: the bytes still live in the *sender's*
    /// memory at this range (circuit mode only — the sender is blocked
    /// for the whole transmission, so only inbound deliveries can
    /// touch its memory, and those materialize the payload first; see
    /// `materialize_overlap`). Saves the issue-side copy entirely —
    /// the single wire-to-memory copy happens at delivery.
    inplace: Option<(u32, u32)>,
    src: NodeId,
    dst: NodeId,
    /// XOR mask of the endpoints; the e-cube route expands from
    /// `(src, mask)` on demand.
    mask: u32,
    dst_slot: u32,
    tag: Tag,
    /// Circuit mode: total end-to-end duration. Store-and-forward
    /// mode: the duration of ONE hop.
    duration_ns: u64,
    requested_at: SimTime,
    /// Queue sequence of the current pending stint; orders retries the
    /// way the old full-rescan ordered its pending list.
    qseq: u64,
    kind: MsgKind,
    /// Next hop to acquire (store-and-forward); always 0 in circuit
    /// mode, where the whole path is acquired at once. `u8` fits
    /// `MAX_HOPS`.
    hop_idx: u8,
    blocked_by_link: bool,
    blocked_by_nic: bool,
    /// Whether the transmission is issued/requeued but not started.
    pending: bool,
    /// Background-traffic injection: occupies links like any circuit
    /// but bypasses NIC state, delivery and algorithm statistics.
    background: bool,
}

impl Transmission {
    /// Payload size in bytes, wherever the bytes live.
    #[inline]
    fn payload_len(&self) -> usize {
        match self.inplace {
            Some((s, e)) => (e - s) as usize,
            None => self.payload.len(),
        }
    }
}

/// A scheduled event, and its own heap key: the heap orders by
/// `(time, seq, event)` with `seq` unique per push, so the event never
/// decides the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    NodeReady(NodeId),
    TransmissionEnd(TransmissionId),
    /// Fire one injection of background stream `i`.
    Inject(u32),
    /// Re-issue a dropped flow-controlled transmission after its
    /// backoff (see [`crate::traffic`]).
    Retransmit(TransmissionId),
}

/// The way into the engine: drives any number of runs while
/// recycling the allocations a fresh arena would rebuild per run —
/// payload-buffer pools, the event heap and FIFO, wait-queue tables,
/// per-node state, the link table (per dimension) and permute scratch.
/// Four doors start a run: [`SimArena::run`], [`SimArena::run_until`],
/// [`SimArena::run_shared`] and [`SimArena::run_spec`]. A shared
/// program set's compilation comes from the process-wide cache (see
/// [`crate::compile`]); the arena keeps no compile cache of its own.
///
/// Every door ends in one driver loop over one master runtime, built
/// once per run: it seeds the events and drains them, and a run that
/// [`crate::shard`] admits holds each barrier to run the next phase
/// either globally or in concurrent subcube windows. Any other run
/// holds no barrier and leaves the loop after its first drain — the
/// sequential engine is that loop with no windows. A window that
/// breaks the determinism argument discards the attempt: the arena
/// restores the inputs and runs the same loop again without windows.
///
/// Arena reuse is invisible in the results: every run starts from
/// fully reset state, so outputs are bit-identical to a run on a fresh
/// arena (pinned by the determinism-snapshot suite in `mce-core`). An
/// arena is cheap to create: a one-off run is
/// `SimArena::new().run(..)`, and batch executors keep one per worker
/// thread.
#[derive(Default)]
pub struct SimArena {
    nodes: Vec<NodeState>,
    slots: Vec<Slot>,
    slot_base: Vec<u32>,
    buffered: FxHashMap<u32, Vec<u8>>,
    inplace_out: Vec<Option<TransmissionId>>,
    links: Option<(u32, LinkTable)>,
    transmissions: Vec<Option<Transmission>>,
    tr_slot_ids: Vec<TransmissionId>,
    tr_free: Vec<u32>,
    id_to_slot: Vec<u32>,
    dirty: Vec<(u64, TransmissionId)>,
    node_watch: Vec<Vec<TransmissionId>>,
    woken: Vec<TransmissionId>,
    pool: Vec<Vec<u8>>,
    scratch: Vec<u8>,
    sched: Scheduler,
    /// Per-shard sub-arenas recycling the window runtimes of the
    /// driver (see [`crate::shard`]); empty until a windowed phase
    /// runs on this arena.
    shard_arenas: Vec<SimArena>,
    /// Pooled full-size memory shell for shard windows (only used
    /// inside `shard_arenas` entries): one empty `Vec<u8>` per node,
    /// with the shard's own memories swapped in and out per window.
    shell: Vec<Vec<u8>>,
    /// Pooled node list of the shard's current window (only used
    /// inside `shard_arenas` entries).
    window_nodes: Vec<u32>,
    /// Pooled flat copy of the run's initial memories, kept for runs
    /// that may open windows so a window violation can rerun the
    /// original inputs without windows, without allocating the backup
    /// per run.
    pristine: Vec<u8>,
}

impl SimArena {
    /// Fresh arena with no recycled allocations yet.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Run one simulation, reusing this arena's allocations. Programs
    /// are compiled for this run only; for program sets shared across
    /// several runs prefer [`SimArena::run_shared`], whose compilation
    /// is cached process-wide.
    pub fn run(
        &mut self,
        cfg: &SimConfig,
        programs: &[Program],
        memories: Vec<Vec<u8>>,
    ) -> Result<SimResult, SimError> {
        self.run_one(cfg, programs, None, memories, None)
    }

    /// [`SimArena::run`] given a bound: the run is abandoned
    /// (`Ok(None)`) as soon as some program provably cannot finish by
    /// `until` — a context stepped at `t` whose remaining ops' price
    /// floor (see [`crate::floor`]) ends past `until` — and at the
    /// latest the first time simulated time would advance past `until`
    /// with some program unfinished. When every program finished by
    /// then (`until` itself included) the result carries the unbounded
    /// run's `finish_time`, memories and statistics, except for the
    /// background traffic: the bound shrinks to the instant the last
    /// program finishes, and what is injected after that is neither
    /// simulated nor counted (`background_*`; the `sched_*` telemetry
    /// follows the events actually queued) — unless a store-and-forward
    /// payload nobody waits for is still on its way to a memory, in
    /// which case the run goes on exactly until that payload lands.
    /// A bound of [`SimTime::HORIZON`] therefore bounds nothing but the
    /// background tail.
    ///
    /// For callers that compare runs and already hold a finish time to
    /// beat. The bound is an argument because it belongs to one
    /// question about a run, not to the machine a [`SimConfig`]
    /// describes; a bounded run is sequential whatever `cfg.shards`
    /// says, and an abandoned run leaves the arena as an errored one
    /// does: ready for the next. The floor costs a bounded run one
    /// compare per node step (and one pass over the ops to set it up);
    /// an unbounded run, and one bounded at the horizon (no floor can
    /// pass it), carries no floor state and pays one untaken branch per
    /// node step, nothing per event.
    ///
    /// # Errors
    ///
    /// The run's [`SimError`]. Errors found before any simulated time
    /// elapses (config, compile, horizon, [`SimError::Unroutable`])
    /// always surface; a runtime error the run would have met after
    /// the cut — past `until`, or between a floor cut and `until` —
    /// does not: that run had lost.
    pub fn run_until(
        &mut self,
        cfg: &SimConfig,
        programs: &[Program],
        memories: Vec<Vec<u8>>,
        until: SimTime,
    ) -> Result<Option<SimResult>, SimError> {
        self.run_bounded(cfg, programs, None, memories, None, Some(until))
    }

    /// Run a *shared* program set (identified by its `Arc`): the
    /// compile pass is cached process-wide, so seed sweeps and config
    /// sweeps over one program set compile once instead of once per
    /// run.
    pub fn run_shared(
        &mut self,
        cfg: &SimConfig,
        programs: &Arc<Vec<Program>>,
        memories: Vec<Vec<u8>>,
    ) -> Result<SimResult, SimError> {
        self.run_one(cfg, programs, Some(programs), memories, None)
    }

    /// The one run path behind every unbounded public door
    /// ([`SimArena::run`], [`SimArena::run_shared`] and
    /// [`SimArena::run_spec`]). `shared` is the compile-cache key: the
    /// `Arc` identity of `programs` when later runs may present the
    /// same set again, `None` to compile for this run only. `trace`
    /// enables structured event capture (`None` = off).
    pub(crate) fn run_one(
        &mut self,
        cfg: &SimConfig,
        programs: &[Program],
        shared: Option<&Arc<Vec<Program>>>,
        memories: Vec<Vec<u8>>,
        trace: Option<&TraceConfig>,
    ) -> Result<SimResult, SimError> {
        let out = self.run_bounded(cfg, programs, shared, memories, trace, None)?;
        Ok(out.expect("only a bounded run is abandoned"))
    }

    /// [`SimArena::run_one`] with the bound of [`SimArena::run_until`]
    /// (`None` = run to the end, which always yields a result).
    fn run_bounded(
        &mut self,
        cfg: &SimConfig,
        programs: &[Program],
        shared: Option<&Arc<Vec<Program>>>,
        memories: Vec<Vec<u8>>,
        trace: Option<&TraceConfig>,
        until: Option<SimTime>,
    ) -> Result<Option<SimResult>, SimError> {
        check_shape(cfg, programs.len(), memories.len())?;
        let t0 = std::time::Instant::now();
        let (compiled, hit) = match shared {
            Some(set) => shared_compiled_for(set, &memories)?,
            None => (Arc::new(compile(programs, &memories)?), false),
        };
        let compile_ns = t0.elapsed().as_nanos() as u64;
        let Some(mut out) = self.run_compiled(cfg, &compiled, memories, trace, until)? else {
            return Ok(None);
        };
        out.stats.compile_ns = compile_ns;
        if hit {
            out.stats.compile_shared_hits = 1;
        } else {
            out.stats.compile_misses = 1;
        }
        Ok(Some(out))
    }

    fn run_compiled(
        &mut self,
        cfg: &SimConfig,
        compiled: &Compiled,
        mut memories: Vec<Vec<u8>>,
        trace: Option<&TraceConfig>,
        until: Option<SimTime>,
    ) -> Result<Option<SimResult>, SimError> {
        check_horizon(cfg, compiled)?;
        if cfg.num_jobs() > 1 {
            // Jobs share links, never messages: a send whose xor-mask
            // leaves the physical-node bits would alias another job's
            // context. Rejected up front, like self-sends.
            let node_mask = cfg.num_nodes() as u32 - 1;
            for (x, p) in compiled.programs.iter().enumerate() {
                for op in p.ops(&compiled.ops) {
                    if let CompiledOp::Send { dst, .. } = op {
                        if (x as u32 ^ dst.0) > node_mask {
                            return Err(SimError::InvalidProgram {
                                node: NodeId(x as u32),
                                reason: format!(
                                    "cross-job send to context {dst}: jobs share the cube's \
                                     links, not messages"
                                ),
                            });
                        }
                    }
                }
            }
        }
        // A run `shard::eligible` admits holds every barrier, so the
        // driver can run the next phase in subcube windows; any other
        // run never holds one and is the plain sequential engine.
        let mut windows = crate::shard::eligible(cfg, trace.is_some(), until.is_some());
        // A windowed attempt consumes the memories; keep a pristine
        // copy so a window violation can rerun the original inputs
        // without windows (see [`crate::shard`]). Flat and pooled: one
        // backing buffer reused across runs instead of a fresh clone
        // per node. A `declared_sync` config waives the snapshot — the
        // declaration promises no NIC-window violation, and a broken
        // promise surfaces as a typed error.
        self.pristine.clear();
        if windows && !cfg.declared_sync {
            for m in &memories {
                self.pristine.extend_from_slice(m);
            }
        }
        // Resolve network conditions (fault-avoiding routes, injection
        // schedule) before any simulated time elapses; Unroutable
        // surfaces here.
        let mut conditioned = match &cfg.netcond {
            Some(nc) => Some(build_conditioned(cfg, compiled, nc)?),
            None => None,
        };
        let speeds = cfg.netcond.as_ref().map(|nc| nc.resolve_speeds(cfg.dimension));
        // The price floor (see [`crate::floor`]): what a bounded run
        // cuts on, and what a debug build checks every finished run
        // against. An unbounded release run prices nothing.
        let floor = (until.is_some() || cfg!(debug_assertions))
            .then(|| PriceFloor::new(cfg, speeds.as_deref()));
        loop {
            let mut rt = Runtime::from_arena(
                cfg,
                &compiled.programs,
                compiled.total_sends,
                memories,
                trace,
                self,
                None,
            );
            if let Some(speeds) = &speeds {
                rt.links.set_speeds(cfg.dimension, speeds);
                rt.conditioned = conditioned.take();
            }
            rt.floor = floor;
            rt.barrier_hold = windows;
            let out = rt.drive(compiled, until, &mut self.shard_arenas);
            memories = std::mem::take(&mut rt.memories);
            rt.reclaim(self);
            match out {
                Err(SimError::SyncDeclarationViolated) if windows && !cfg.declared_sync => {
                    // Node memory lengths never change during a run,
                    // so the flat backup restores in place.
                    let mut off = 0;
                    for m in &mut memories {
                        let len = m.len();
                        m.copy_from_slice(&self.pristine[off..off + len]);
                        off += len;
                    }
                    windows = false;
                }
                out => return out,
            }
        }
    }
}

/// Outcome of one shard window.
enum WindowEnd {
    /// All nodes entered their next barrier; it releases at the time
    /// carried here.
    Released(SimTime),
    /// The run ended inside the window (every node done, or stuck).
    Complete,
}

/// Shared config/shape validation for every arena-driven run.
pub(crate) fn check_shape(
    cfg: &SimConfig,
    num_programs: usize,
    num_memories: usize,
) -> Result<(), SimError> {
    cfg.validate().map_err(|reason| SimError::InvalidConfig { reason })?;
    let n = cfg.total_contexts();
    if num_programs != n || num_memories != n {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "cube of {} nodes x {} job(s) needs one program and one memory per node \
                 context ({n} total; got {num_programs} programs, {num_memories} memories)",
                cfg.num_nodes(),
                cfg.num_jobs(),
            ),
        });
    }
    Ok(())
}

/// Bound every duration the engine prices with unchecked `u64`
/// arithmetic within [`SimTime::HORIZON`], once per run and before any
/// simulated time elapses: the set's longest `Send` and a zero-byte
/// one (`λ` or `λ₀` + `τ·bytes` + `δ·d`, the UNFORCED reserve past its
/// threshold and the jitter's `1 + frac` included; background streams
/// count as sends), its longest `Permute` (`ρ·bytes`) and, if it has
/// one, a barrier (`barrier_per_dim·d`). Every hop count is taken as
/// `d`, so each price is an upper bound, computed in `u128`, where a
/// `u64` rate times a byte count cannot overflow. The error names the
/// largest term of the price that passes the horizon.
fn check_horizon(cfg: &SimConfig, compiled: &Compiled) -> Result<(), SimError> {
    let p = &cfg.params;
    let ns = |us: f64| u128::from(crate::time::us_to_ns(us));
    let d = u128::from(cfg.dimension);
    let horizon = u128::from(SimTime::HORIZON.as_ns());
    let past = |name: &str, what: String, price: u128| SimError::InvalidConfig {
        reason: format!(
            "{name}: {what} prices at {price} ns, past the simulated-time horizon ({horizon} ns)"
        ),
    };
    let streams = cfg.netcond.iter().flat_map(|nc| &nc.background).filter(|s| s.count > 0);
    let longest_send = (compiled.total_sends > 0)
        .then_some(compiled.max_send_bytes)
        .into_iter()
        .chain(streams.map(|s| s.bytes))
        .max();
    if let Some(longest) = longest_send {
        for bytes in [0, longest] {
            let reserve = u128::from(bytes > p.unforced_threshold);
            let terms = [
                if bytes == 0 {
                    ("lambda_zero", ns(p.lambda_zero))
                } else {
                    ("lambda", ns(p.lambda))
                },
                ("tau", ns(p.tau) * bytes as u128),
                ("delta", ns(p.delta) * d * (1 + 2 * reserve)),
                ("lambda_zero", 2 * ns(p.lambda_zero) * reserve),
            ];
            let price: u128 = terms.iter().map(|&(_, t)| t).sum();
            let what = || format!("a send of {bytes} bytes across a d{d} cube");
            if price > horizon {
                let (name, _) = terms.iter().max_by_key(|&&(_, t)| t).expect("four terms");
                return Err(past(name, what(), price));
            }
            // `jitter` scales in f64: below 2^63 it rounds to at most
            // 2^63 − 1024 ns.
            let jittered = price as f64 * (1.0 + cfg.jitter_frac);
            if cfg.jitter_frac > 0.0 && jittered >= horizon as f64 {
                return Err(past("jitter_frac", what(), jittered as u128));
            }
        }
    }
    let shuffle = ns(p.rho) * compiled.max_permute_bytes as u128;
    if shuffle > horizon {
        let what = format!("a permute of {} bytes", compiled.max_permute_bytes);
        return Err(past("rho", what, shuffle));
    }
    // Every program ends one segment, and every barrier one more.
    let has_barrier = compiled.segs.len() > compiled.programs.len();
    let barrier = ns(p.barrier_per_dim) * d;
    if has_barrier && barrier > horizon {
        return Err(past("barrier_per_dim", format!("a barrier on a d{d} cube"), barrier));
    }
    Ok(())
}

struct Runtime<'c> {
    cfg: &'c SimConfig,
    nodes: Vec<NodeState>,
    /// Flat receive-slot table over all nodes (one allocation; node
    /// `x`'s cells start at `slot_base[x]`).
    slots: Vec<Slot>,
    slot_base: Vec<u32>,
    /// Early-arriving UNFORCED payloads, keyed by global slot index.
    buffered: FxHashMap<u32, Vec<u8>>,
    /// Per node, the outstanding transmission whose payload is still
    /// in-place in that node's memory (at most one: a sender blocks on
    /// its send). Checked by every delivery into the node.
    inplace_out: Vec<Option<TransmissionId>>,
    memories: Vec<Vec<u8>>,
    links: LinkTable,
    /// Slab of *live* transmissions: completed entries are taken and
    /// their slots recycled through `tr_free`, so the slab stays at
    /// peak-concurrency size (cache-hot) instead of growing one entry
    /// per send of the run. Transmission *ids* stay the monotonic
    /// per-run counter — every ordering key and the jitter stream
    /// derive from them — and `id_to_slot` maps them to slab slots;
    /// `tr_slot_ids[slot]` names the id currently occupying a slot, so
    /// a stale id (a watcher registration outliving its transmission)
    /// is detected instead of aliasing the slot's new tenant.
    transmissions: Vec<Option<Transmission>>,
    tr_slot_ids: Vec<TransmissionId>,
    tr_free: Vec<u32>,
    id_to_slot: Vec<u32>,
    /// Pending transmissions due a start attempt, kept sorted by
    /// queue sequence (global issue order). Almost always one entry
    /// deep, so a sorted vector beats a tree.
    dirty: Vec<(u64, TransmissionId)>,
    /// Transmissions watching a node's NIC intervals. (Those watching
    /// a directed link for acquires/releases wait in `links`.)
    node_watch: Vec<Vec<TransmissionId>>,
    /// Scratch a wake-up drains wait lists into, so that the lists
    /// themselves keep their allocations.
    woken: Vec<TransmissionId>,
    /// Reusable payload buffers.
    pool: Vec<Vec<u8>>,
    /// Pool retention cap: scaled to the cube so a full wave of
    /// concurrent transmissions recycles without reallocating.
    pool_cap: usize,
    /// Reusable scratch for block permutations.
    scratch: Vec<u8>,
    /// The event scheduler (event heaps + same-time FIFO); one
    /// struct shared with [`SimArena`] so reclaim cannot drift from
    /// the run state.
    sched: Scheduler,
    /// Conditioned-network state (`None` on unconditioned runs).
    conditioned: Option<Conditioned>,
    /// Machine timing parameters pre-converted to integer nanoseconds
    /// once per run: the unconditioned pricing path runs per
    /// transmission and must not pay four float-to-int rounds each
    /// time. Identical values to the `SimConfig::*_ns` helpers.
    ns_lambda: u64,
    ns_lambda0: u64,
    ns_tau: u64,
    ns_delta: u64,
    /// The simulated time currently being drained.
    cur_t: SimTime,
    next_tid: TransmissionId,
    next_qseq: u64,
    /// Physical-node mask: context `c` of a multi-job run acts for
    /// node `c & node_mask` (always `num_nodes - 1`; on single-tenant
    /// runs contexts *are* nodes and the mask is the identity).
    node_mask: u32,
    /// Tenant jobs sharing the cube (1 on single-tenant runs).
    num_jobs: usize,
    /// Per-job barrier-entry counters (barriers are job-local: jobs
    /// never synchronize with each other).
    barrier_entered: Vec<u64>,
    /// Barrier-entry count that releases a job's barrier: the per-job
    /// node count on the master runtime, `u64::MAX` inside a shard
    /// window (a shard never releases a barrier on its own — the
    /// driver coordinates the release across shards; see
    /// [`crate::shard`]).
    barrier_target: u64,
    /// The run's link policy (copied out of the netcond); `None` =
    /// reliable links, and the flow-control fields below stay empty.
    link_policy: Option<LinkPolicy>,
    /// Per-job flow control; empty unless a link policy *and* at least
    /// one flow-controlled job are configured (the reactive machinery
    /// costs the legacy path nothing).
    flow: Vec<Option<FlowCtl>>,
    /// Per-context congestion-window state (parallel to `nodes`;
    /// empty when `flow` is).
    flow_cwnd: Vec<CwndState>,
    /// Per-context consecutive-drop counters (empty when `flow` is).
    flow_retries: Vec<u32>,
    /// First typed error raised outside an event handler's return path
    /// (a retry budget exhausted inside the pending scan); checked
    /// after every drained event.
    fatal: Option<SimError>,
    /// When set, a completed barrier records its release time in
    /// `held_release` instead of waking the nodes: the driver runs one
    /// barrier-delimited phase at a time and decides each phase's
    /// execution mode at the boundary. Off for every run that
    /// [`crate::shard`] does not admit, and for the rerun after a
    /// window violation.
    barrier_hold: bool,
    /// Release time of the barrier that completed under
    /// `barrier_hold` (last entry time + barrier cost).
    held_release: Option<SimTime>,
    /// Time of the most recent barrier entry; the driver takes the
    /// max across shards to time a windowed phase's release.
    last_barrier_entry: SimTime,
    /// NIC-lapse wake-ups pushed by this runtime. A shard window that
    /// pushed any is not provably bit-identical to the sequential
    /// engine (see [`crate::shard`]), so the driver discards the whole
    /// attempt and reruns the inputs without windows.
    lapse_pushes: u64,
    stats: SimStats,
    /// Structured trace sink; `None` (the default) keeps the traced
    /// paths down to one pointer test per emission site, so a
    /// trace-off run is bit-identical to a build without the sink.
    sink: Option<Box<TraceSink>>,
    /// The run's price floor: set on bounded runs, and on every run of
    /// a debug build (which checks it in [`Runtime::finish`]).
    floor: Option<PriceFloor>,
    /// Bounded runs only (empty otherwise): per context, the floor of
    /// the ops from the second field's pc on, settled lazily at each
    /// step (see [`Runtime::cut_by_floor`]).
    floor_left: Vec<(u64, u32)>,
    /// Set when a context's floor passed the bound: the run was
    /// abandoned mid-drain.
    floor_cut: bool,
    /// Bounded runs only: contexts not finished yet. When the last one
    /// finishes, the bound shrinks to that instant.
    unfinished: usize,
}

/// The engine's event scheduler: the main [`CalendarQueue`] heap over
/// `(time, seq, Event)`, the same-time FIFO (events scheduled for
/// the instant currently being drained skip the heap entirely — they
/// dominate the event mix), and the NIC-lapse heap of
/// `(time_ns, qseq, tid)` wake-ups for concurrency-window conditions
/// that expire by the passage of time alone.
///
/// Exactly one of these exists per run *and* per arena: `Runtime`
/// takes it from the [`SimArena`] and hands it back on reclaim, so the
/// run state and the recycled allocations are one struct and cannot
/// drift apart.
#[derive(Default)]
struct Scheduler {
    events: CalendarQueue<Event>,
    fifo: VecDeque<Event>,
    lapse: CalendarQueue<TransmissionId>,
    /// Sequence stamp of the last queued event; orders same-time
    /// entries by push order.
    seq: u64,
    /// A bounded run's last instant ([`SimArena::run_until`]):
    /// [`Scheduler::pop_next`] hands out no event scheduled after it.
    /// `None` — what every re-arm leaves — bounds nothing.
    until: Option<SimTime>,
}

impl Scheduler {
    /// Empty after a run (finished, failed or abandoned), so the next
    /// run starts from the `Default` state: drop all entries, zero the
    /// telemetry and the bound, keep every allocation.
    fn reset(&mut self) {
        self.events.clear();
        self.lapse.clear();
        self.fifo.clear();
        self.seq = 0;
        self.until = None;
    }

    /// Schedule `ev` at `at`, given the instant currently draining.
    #[inline]
    fn push(&mut self, at: SimTime, cur_t: SimTime, ev: Event) {
        if at == cur_t {
            // Same-time events keep sequence order by construction:
            // everything already queued for this instant was pushed
            // earlier (smaller sequence), everything pushed now
            // appends in order.
            self.fifo.push_back(ev);
        } else {
            self.seq += 1;
            self.events.push(at.as_ns(), self.seq, ev);
        }
    }

    /// Next event in exact `(time, seq)` order: queued entries for the
    /// current instant precede FIFO entries (they carry smaller
    /// sequence numbers), the FIFO drains next, and only then does
    /// time advance to the queue's next instant — unless that instant
    /// lies past `until`, where a bounded run stops with the event
    /// still queued. Time advances nowhere else, so the bound is
    /// tested once per instant, not once per event.
    #[inline]
    fn pop_next(&mut self, cur_t: &mut SimTime) -> Option<(SimTime, Event)> {
        if let Some((t, _, ev)) = self.events.pop_if_time(cur_t.as_ns()) {
            return Some((SimTime(t), ev));
        }
        if let Some(ev) = self.fifo.pop_front() {
            return Some((*cur_t, ev));
        }
        if let Some(until) = self.until {
            if self.events.peek()?.0 > until.as_ns() {
                return None;
            }
        }
        let (t, _, ev) = self.events.pop()?;
        *cur_t = SimTime(t);
        Some((SimTime(t), ev))
    }
}

impl<'c> Runtime<'c> {
    /// Assemble a runtime from the arena's recycled allocations; the
    /// arena is drained for the duration of the run and refilled by
    /// [`Runtime::reclaim`]. All recycled containers were left empty
    /// (or, for nodes/links, are reset here), so a run observes
    /// exactly the state a freshly-allocated runtime would.
    fn from_arena(
        cfg: &'c SimConfig,
        programs: &[CompiledProgram],
        total_sends: usize,
        memories: Vec<Vec<u8>>,
        trace: Option<&TraceConfig>,
        arena: &mut SimArena,
        shard: Option<&[u32]>,
    ) -> Self {
        let n = programs.len();
        let mut nodes = std::mem::take(&mut arena.nodes);
        if shard.is_some() {
            // Shard-window runtime: the driver overwrites the shard's
            // own nodes from the master right after construction and
            // never touches foreign entries, so stale state from the
            // previous window is fine — skip the per-node reset.
            nodes.resize_with(n, NodeState::new);
        } else {
            for i in 0..n {
                if i < nodes.len() {
                    nodes[i].reset();
                } else {
                    nodes.push(NodeState::new());
                }
            }
            nodes.truncate(n);
        }
        let mut slot_base = std::mem::take(&mut arena.slot_base);
        let mut slots = std::mem::take(&mut arena.slots);
        match shard {
            Some(list) => {
                // Packed shard-local slot table: only the shard's own
                // nodes get (local) base offsets, so the hot slot
                // state is contiguous and sized to the subcube — for
                // interleaved-coset shards as much as contiguous ones.
                // Stale foreign entries in `slot_base` are never read.
                slot_base.resize(n, 0);
                let mut local = 0u32;
                for &x in list {
                    slot_base[x as usize] = local;
                    local += programs[x as usize].num_slots;
                }
                // The split pass overwrites every cell from the
                // master, so only right-size — don't zero. Across
                // windows of equal size this keeps the allocation
                // untouched.
                if slots.len() != local as usize {
                    slots.clear();
                    slots.resize(local as usize, Slot::default());
                }
            }
            None => {
                slot_base.clear();
                let mut total_slots = 0u32;
                for p in programs {
                    slot_base.push(total_slots);
                    total_slots += p.num_slots;
                }
                slots.clear();
                slots.resize(total_slots as usize, Slot::default());
            }
        }
        let mut inplace_out = std::mem::take(&mut arena.inplace_out);
        inplace_out.clear();
        inplace_out.resize(n, None);
        // Full-cube link table, recycled through the arena (shard
        // runtimes too: a shard may sit on any coset of the cube, and
        // its nodes touch only their own rows, so the uniform layout
        // costs nothing and the allocation survives across windows).
        let links = match arena.links.take() {
            Some((dim, table)) if dim == cfg.dimension => table,
            _ => LinkTable::for_cube(cfg.dimension),
        };
        let mut id_to_slot = std::mem::take(&mut arena.id_to_slot);
        id_to_slot.reserve(total_sends);
        // NIC wait-watchers live at *physical* nodes: a multi-job
        // context blocked on a node's NIC state must wake when any
        // co-tenant context of that node changes it.
        let phys_n = cfg.num_nodes();
        let num_jobs = cfg.num_jobs();
        let mut node_watch = std::mem::take(&mut arena.node_watch);
        node_watch.resize_with(phys_n, Vec::new);
        let link_policy = cfg.netcond.as_ref().and_then(|nc| nc.link_policy);
        let (flow, flow_cwnd, flow_retries) =
            if link_policy.is_some() && cfg.jobs.iter().any(|j| j.flow.is_some()) {
                let flow: Vec<Option<FlowCtl>> = cfg.jobs.iter().map(|j| j.flow).collect();
                let mut cwnd = Vec::with_capacity(n);
                for j in &cfg.jobs {
                    let state = j.flow.unwrap_or_default().cwnd.instantiate();
                    for _ in 0..phys_n {
                        cwnd.push(state);
                    }
                }
                (flow, cwnd, vec![0u32; n])
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };
        let mut stats = SimStats::default();
        if shard.is_none() && !cfg.jobs.is_empty() {
            stats.jobs = cfg
                .jobs
                .iter()
                .enumerate()
                .map(|(j, spec)| JobStats {
                    job: j as u32,
                    start_ns: spec.start_ns,
                    ..JobStats::default()
                })
                .collect();
        }
        Runtime {
            cfg,
            nodes,
            slots,
            slot_base,
            buffered: std::mem::take(&mut arena.buffered),
            inplace_out,
            memories,
            links,
            transmissions: std::mem::take(&mut arena.transmissions),
            tr_slot_ids: std::mem::take(&mut arena.tr_slot_ids),
            tr_free: std::mem::take(&mut arena.tr_free),
            id_to_slot,
            dirty: std::mem::take(&mut arena.dirty),
            node_watch,
            woken: std::mem::take(&mut arena.woken),
            pool: std::mem::take(&mut arena.pool),
            pool_cap: (2 * n).max(64),
            scratch: std::mem::take(&mut arena.scratch),
            sched: std::mem::take(&mut arena.sched),
            conditioned: None,
            ns_lambda: crate::time::us_to_ns(cfg.params.lambda),
            ns_lambda0: crate::time::us_to_ns(cfg.params.lambda_zero),
            ns_tau: crate::time::us_to_ns(cfg.params.tau),
            ns_delta: crate::time::us_to_ns(cfg.params.delta),
            cur_t: SimTime(u64::MAX),
            next_tid: 1,
            next_qseq: 0,
            node_mask: phys_n as u32 - 1,
            num_jobs,
            barrier_entered: vec![0; num_jobs],
            barrier_target: phys_n as u64,
            barrier_hold: false,
            held_release: None,
            last_barrier_entry: SimTime::ZERO,
            lapse_pushes: 0,
            link_policy,
            flow,
            flow_cwnd,
            flow_retries,
            fatal: None,
            stats,
            sink: trace.map(|tc| Box::new(TraceSink::new(tc, n))),
            floor: None,
            floor_left: Vec::new(),
            floor_cut: false,
            unfinished: 0,
        }
    }

    /// The physical cube node a context acts for.
    #[inline]
    fn phys(&self, x: NodeId) -> NodeId {
        NodeId(x.0 & self.node_mask)
    }

    /// The tenant job a context belongs to.
    #[inline]
    fn job_of(&self, x: NodeId) -> usize {
        (x.0 >> self.cfg.dimension) as usize
    }

    /// This context's flow control, when the run's reactive machinery
    /// is active and the context's job opted in.
    #[inline]
    fn flow_of(&self, x: NodeId) -> Option<&FlowCtl> {
        self.flow.get(self.job_of(x)).and_then(Option::as_ref)
    }

    /// Return every recycled allocation to the arena, cleared of
    /// run-specific contents (stale wait-queue registrations, lapse
    /// wake-ups and unfinished transmissions from error runs must not
    /// leak into the next run). Payload pool and scratch survive
    /// as-is: their contents are overwritten before use. So do the slot
    /// table and its base offsets: [`Runtime::from_arena`] re-lays them
    /// for every run, and a shard window of the same shape as the last
    /// keeps the allocation untouched (the split pass overwrites every
    /// cell from the master).
    fn reclaim(self, arena: &mut SimArena) {
        let Runtime {
            nodes,
            slots,
            slot_base,
            mut buffered,
            mut inplace_out,
            mut links,
            mut transmissions,
            mut tr_slot_ids,
            mut tr_free,
            mut id_to_slot,
            mut dirty,
            mut node_watch,
            woken,
            pool,
            scratch,
            mut sched,
            cfg,
            ..
        } = self;
        buffered.clear();
        inplace_out.clear();
        transmissions.clear();
        tr_slot_ids.clear();
        tr_free.clear();
        id_to_slot.clear();
        dirty.clear();
        links.clear_watchers();
        for watchers in node_watch.iter_mut() {
            watchers.clear();
        }
        sched.reset();
        if links.busy_count() > 0 {
            links.clear();
        }
        if links.has_speeds() {
            links.clear_speeds();
        }
        arena.nodes = nodes;
        arena.slots = slots;
        arena.slot_base = slot_base;
        arena.buffered = buffered;
        arena.inplace_out = inplace_out;
        arena.links = Some((cfg.dimension, links));
        arena.transmissions = transmissions;
        arena.tr_slot_ids = tr_slot_ids;
        arena.tr_free = tr_free;
        arena.id_to_slot = id_to_slot;
        arena.dirty = dirty;
        arena.node_watch = node_watch;
        arena.woken = woken;
        arena.pool = pool;
        arena.scratch = scratch;
        arena.sched = sched;
    }

    fn push(&mut self, at: SimTime, ev: Event) {
        self.sched.push(at, self.cur_t, ev);
    }

    #[inline]
    fn tr(&self, id: TransmissionId) -> &Transmission {
        let slot = self.id_to_slot[(id - 1) as usize] as usize;
        debug_assert_eq!(self.tr_slot_ids[slot], id, "stale transmission id");
        self.transmissions[slot].as_ref().expect("unknown transmission")
    }

    #[inline]
    fn tr_mut(&mut self, id: TransmissionId) -> &mut Transmission {
        let slot = self.id_to_slot[(id - 1) as usize] as usize;
        debug_assert_eq!(self.tr_slot_ids[slot], id, "stale transmission id");
        self.transmissions[slot].as_mut().expect("unknown transmission")
    }

    /// The transmission of `id` when it is still live (a watcher
    /// registration can outlive its transmission; its slot may since
    /// have been recycled for a different id, or emptied).
    #[inline]
    fn tr_live(&self, id: TransmissionId) -> Option<&Transmission> {
        let slot = *self.id_to_slot.get((id - 1) as usize)? as usize;
        if self.tr_slot_ids[slot] != id {
            return None;
        }
        self.transmissions[slot].as_ref()
    }

    fn take_tr(&mut self, id: TransmissionId) -> Transmission {
        let slot = self.id_to_slot[(id - 1) as usize] as usize;
        debug_assert_eq!(self.tr_slot_ids[slot], id, "stale transmission id");
        self.tr_slot_ids[slot] = 0;
        self.tr_free.push(slot as u32);
        self.transmissions[slot].take().expect("unknown transmission")
    }

    /// Check a buffer out of the pool and fill it with a copy of
    /// `memories[node][range]` — the single pool-checkout-and-copy
    /// behind every path that materializes payload bytes out of a
    /// node's memory.
    fn copy_out_of_memory(&mut self, node: NodeId, range: Range<usize>) -> Vec<u8> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(&self.memories[node.index()][range]);
        buf
    }

    /// Return a payload buffer to the pool.
    fn recycle(&mut self, buf: Vec<u8>) {
        // Payloads within one run are near-uniform in size, so pooled
        // buffers are almost always reusable as-is; the cap tracks the
        // cube's concurrency (up to ~2·n buffers live at once when a
        // step's wave of sends overlaps the next).
        if buf.capacity() > 0 && self.pool.len() < self.pool_cap {
            self.pool.push(buf);
        }
    }

    /// The one driver loop behind every run: seed, drain, and at each
    /// held barrier (`barrier_hold`) pick the next phase's mode —
    /// globally serialized, or split into concurrent shard windows.
    /// A run that holds no barrier leaves the loop after its first
    /// drain: that is the sequential engine. Runs to the end or —
    /// bounded — to the first instant past `until`: `None` when that
    /// leaves a program unfinished. A window that pushed a NIC-lapse
    /// wake-up ends the attempt with
    /// [`SimError::SyncDeclarationViolated`]; the caller reruns the
    /// inputs without windows unless the config declared sync.
    fn drive(
        &mut self,
        compiled: &Compiled,
        until: Option<SimTime>,
        arenas: &mut Vec<SimArena>,
    ) -> Result<Option<SimResult>, SimError> {
        self.sched.until = until;
        if let Some(until) = until {
            self.unfinished = self.nodes.len();
            // Nothing finishes past the horizon, so no floor can pass
            // it: a run bounded there only stops with its programs.
            if until < SimTime::HORIZON {
                self.arm_floor(compiled);
            }
        }
        self.seed();
        'phases: loop {
            self.drain(compiled)?;
            // Queue drained with no held barrier: the run completed,
            // deadlocked or hit its bound.
            let Some(mut release) = self.held_release.take() else {
                break;
            };
            loop {
                match self.phase_mode(compiled) {
                    PhaseMode::Global { cross_sends } => {
                        self.stats.shard_barrier_stalls += 1;
                        self.stats.shard_cross_events += cross_sends;
                        self.seed_release(release);
                        continue 'phases;
                    }
                    PhaseMode::Windowed(plan) => {
                        self.stats.shard_windows += 1;
                        match self.run_window(compiled, release, plan, arenas)? {
                            WindowEnd::Complete => break 'phases,
                            WindowEnd::Released(next) => release = next,
                        }
                    }
                }
            }
        }
        if self.floor_cut {
            return Ok(None);
        }
        // Events left behind a drained scheduler are the ones a bound
        // held back.
        if !self.sched.events.is_empty() {
            if self.nodes.iter().any(|s| s.status != Status::Done) {
                return Ok(None);
            }
            // Every program finished by `until`, so `finish_time` is
            // settled and what is still queued is background traffic —
            // unless a store-and-forward payload nobody waits for is
            // still hopping towards a memory: that tail runs out, one
            // instant at a time, and the background only as far as it
            // does.
            while self.transmissions.iter().flatten().any(|tr| !tr.background) {
                let Some((next, ..)) = self.sched.events.peek() else { break };
                self.sched.until = Some(SimTime(next));
                self.drain(compiled)?;
            }
        }
        self.finish(compiled).map(Some)
    }

    /// Execute one windowed phase for [`Runtime::drive`], from the
    /// barrier it held: split this master runtime into per-shard
    /// window runtimes (recycled through `arenas`, one per shard),
    /// drain them concurrently, and merge the results back in
    /// shard-index order (every merge step is deterministic, and the
    /// shards' state is disjoint by the window invariant). The master
    /// queue stays empty throughout; the outcome says whether the next
    /// barrier releases or the run ended. A shard that pushed a
    /// NIC-lapse wake-up voids the attempt:
    /// [`SimError::SyncDeclarationViolated`].
    fn run_window(
        &mut self,
        compiled: &Compiled,
        release: SimTime,
        plan: ShardPlan,
        arenas: &mut Vec<SimArena>,
    ) -> Result<WindowEnd, SimError> {
        let count = plan.count as usize;
        let d = self.cfg.dimension;
        let n = self.nodes.len();
        while arenas.len() < count {
            arenas.push(SimArena::new());
        }
        // The system is quiescent at a barrier boundary: no pending
        // retries, no live circuits, no in-place payloads.
        debug_assert!(self.dirty.is_empty());
        debug_assert_eq!(self.links.busy_count(), 0);
        debug_assert!(self.inplace_out.iter().all(Option::is_none));
        let mut shard_rts: Vec<(Runtime<'c>, Vec<u32>)> = Vec::with_capacity(count);
        for (s, arena) in arenas.iter_mut().enumerate().take(count) {
            let mut list = std::mem::take(&mut arena.window_nodes);
            plan.nodes_of(d, s as u32, &mut list);
            let mut mems = std::mem::take(&mut arena.shell);
            mems.resize(n, Vec::new());
            for &x in &list {
                std::mem::swap(&mut mems[x as usize], &mut self.memories[x as usize]);
            }
            let mut srt = Runtime::from_arena(
                self.cfg,
                &compiled.programs,
                compiled.total_sends,
                mems,
                None,
                arena,
                Some(&list),
            );
            // A shard never releases a barrier on its own: its nodes
            // pile up in `barrier_entered` and the queue drains empty,
            // ending the window.
            srt.barrier_target = u64::MAX;
            for &x in &list {
                let xi = x as usize;
                copy_quiescent(&mut srt.nodes[xi], &self.nodes[xi]);
                let ns = compiled.programs[xi].num_slots as usize;
                let (gb, lb) = (self.slot_base[xi] as usize, srt.slot_base[xi] as usize);
                srt.slots[lb..lb + ns].copy_from_slice(&self.slots[gb..gb + ns]);
            }
            // Seed in node order — the projection of the sequential
            // barrier release onto this shard.
            for &x in &list {
                srt.push(release, Event::NodeReady(NodeId(x)));
            }
            shard_rts.push((srt, list));
        }
        let results = rayon::parallel_map(shard_rts, |(mut srt, list)| {
            let res = srt.drain(compiled);
            (srt, list, res)
        });
        let mut entered = 0u64;
        let mut last_entry = SimTime::ZERO;
        let mut violated = false;
        let mut first_err: Option<SimError> = None;
        for (s, (mut srt, list, res)) in results.into_iter().enumerate() {
            for &x in &list {
                let xi = x as usize;
                std::mem::swap(&mut self.memories[xi], &mut srt.memories[xi]);
                copy_quiescent(&mut self.nodes[xi], &srt.nodes[xi]);
                let ns = compiled.programs[xi].num_slots as usize;
                let (gb, lb) = (self.slot_base[xi] as usize, srt.slot_base[xi] as usize);
                self.slots[gb..gb + ns].copy_from_slice(&srt.slots[lb..lb + ns]);
            }
            // Cross-boundary UNFORCED buffering: carry early arrivals
            // into the master map, translating the shard's packed slot
            // indices back to global ones (shards own disjoint slots).
            // The next phase then runs globally.
            for (k, v) in srt.buffered.drain() {
                let owner = list
                    .iter()
                    .map(|&x| x as usize)
                    .find(|&xi| {
                        let lb = srt.slot_base[xi];
                        let ns = compiled.programs[xi].num_slots;
                        (lb..lb + ns).contains(&k)
                    })
                    .expect("buffered key outside shard slots");
                let gk = self.slot_base[owner] + (k - srt.slot_base[owner]);
                self.buffered.insert(gk, v);
            }
            self.stats.absorb(&srt.stats);
            entered += srt.barrier_entered[0];
            if srt.last_barrier_entry > last_entry {
                last_entry = srt.last_barrier_entry;
            }
            violated |= srt.lapse_pushes > 0;
            let peak = srt.sched.events.peak_pending();
            if peak > self.stats.shard_peak_pending {
                self.stats.shard_peak_pending = peak;
            }
            if first_err.is_none() {
                if let Err(e) = res {
                    first_err = Some(e);
                }
            }
            let shell = std::mem::take(&mut srt.memories);
            srt.reclaim(&mut arenas[s]);
            arenas[s].shell = shell;
            arenas[s].window_nodes = list;
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if violated {
            return Err(SimError::SyncDeclarationViolated);
        }
        if entered == n as u64 {
            self.stats.barriers += 1;
            return Ok(WindowEnd::Released(last_entry.plus_ns(self.cfg.barrier_ns())));
        }
        // Not every node reached a barrier: either the whole run is
        // done, or it deadlocked — `finish` tells them apart.
        Ok(WindowEnd::Complete)
    }

    /// Queue the run's initial events: every node context ready at its
    /// job's start offset (time zero on single-tenant runs), plus the
    /// first injection of each live background stream.
    fn seed(&mut self) {
        let staggered = !self.cfg.jobs.is_empty();
        let per_job = (self.node_mask + 1) as usize;
        for i in 0..self.nodes.len() {
            let at = if staggered {
                SimTime(self.cfg.jobs[i / per_job].start_ns)
            } else {
                SimTime::ZERO
            };
            self.push(at, Event::NodeReady(NodeId(i as u32)));
        }
        if let Some(cond) = &self.conditioned {
            let first: Vec<(u32, u64)> = cond
                .streams
                .iter()
                .enumerate()
                .filter(|&(i, _)| cond.remaining[i] > 0)
                .map(|(i, s)| (i as u32, s.start_ns))
                .collect();
            for (i, start_ns) in first {
                self.push(SimTime(start_ns), Event::Inject(i));
            }
        }
    }

    /// Dispatch events in `(time, seq)` order until the queue is
    /// empty — which means the run completed, deadlocked, or (under
    /// `barrier_hold`) reached a phase boundary.
    fn drain(&mut self, compiled: &Compiled) -> Result<(), SimError> {
        while let Some((t, ev)) = self.sched.pop_next(&mut self.cur_t) {
            match ev {
                Event::NodeReady(x) => self.step_node(x, t, compiled)?,
                Event::TransmissionEnd(id) => self.finish_transmission(id, t)?,
                Event::Inject(i) => self.inject_background(i as usize, t),
                Event::Retransmit(id) => self.fire_retransmit(id, t),
            }
            // Errors raised inside the pending scan (a flow-controlled
            // source out of retries) surface between events.
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Post-drain wrap-up: deadlock detection, scheduler telemetry,
    /// result assembly.
    fn finish(&mut self, compiled: &Compiled) -> Result<SimResult, SimError> {
        // All events drained: every node must be Done.
        let stuck: Vec<(NodeId, String)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status != Status::Done)
            .map(|(i, s)| {
                let reason = match s.status {
                    Status::Waiting(_) => match compiled.programs[i].ops(&compiled.ops).get(s.pc) {
                        Some(CompiledOp::WaitRecv { src, tag, .. }) => {
                            format!("waiting for ({src}, {tag})")
                        }
                        _ => "waiting".to_string(),
                    },
                    Status::InBarrier => "in barrier".to_string(),
                    Status::Sending(id) => format!("sending #{id}"),
                    other => format!("{other:?}"),
                };
                (NodeId(i as u32), reason)
            })
            .collect();
        if !stuck.is_empty() {
            return Err(SimError::Deadlock { stuck, forced_drops: self.stats.forced_drops });
        }
        if cfg!(debug_assertions) {
            self.assert_floor(compiled);
        }
        // Scheduler telemetry: peak pending of the main event heap.
        self.stats.sched_peak_pending = self.sched.events.peak_pending();
        let finish_time = self.nodes.iter().map(|s| s.finish).max().unwrap_or(SimTime::ZERO);
        // Per-job finish: the job's last context to complete.
        if !self.stats.jobs.is_empty() {
            let per_job = (self.node_mask + 1) as usize;
            for (j, js) in self.stats.jobs.iter_mut().enumerate() {
                js.finish_ns = self.nodes[j * per_job..(j + 1) * per_job]
                    .iter()
                    .map(|s| s.finish.as_ns())
                    .max()
                    .unwrap_or(0);
            }
        }
        let trace = match self.sink.as_mut() {
            Some(sink) => {
                self.stats.trace_events_dropped = sink.ring.dropped();
                sink.ring.drain()
            }
            None => Vec::new(),
        };
        Ok(SimResult {
            finish_time,
            node_finish: self.nodes.iter().map(|s| s.finish).collect(),
            memories: std::mem::take(&mut self.memories),
            stats: std::mem::take(&mut self.stats),
            trace,
        })
    }

    /// The floor of `ops`, context `x`'s ops from some pc on, under this
    /// run's prices and dead pairs.
    fn ops_floor(&self, floor: &PriceFloor, x: NodeId, ops: &[CompiledOp], c: &Compiled) -> u64 {
        ops.iter().fold(0u64, |sum, op| {
            let dead = |dst: u32| self.pair_is_dead(x, NodeId(dst));
            sum.saturating_add(floor.compiled_op_ns(x.0, op, &c.perms, dead))
        })
    }

    /// Bounded runs: every context's floor is its whole program's,
    /// settled at pc 0.
    fn arm_floor(&mut self, compiled: &Compiled) {
        let floor = self.floor.expect("a bounded run prices its floor");
        let programs = compiled.programs.iter().enumerate();
        let left = programs
            .map(|(xi, p)| {
                (self.ops_floor(&floor, NodeId(xi as u32), p.ops(&compiled.ops), compiled), 0)
            })
            .collect();
        self.floor_left = left;
    }

    /// Bounded runs, at each step of context `x` at `t`: take the ops
    /// it executed since its last step off its floor, and abandon the
    /// run when what is left cannot end by the bound — `t + left >
    /// until`, so the context cannot finish by `until` and neither can
    /// the run. The queue is emptied so that the drain ends at once,
    /// and `floor_cut` tells [`Runtime::drive`] why. Cutting here never
    /// changes the outcome of a run that finishes by `until`; a runtime
    /// error the run would have met before `until` reads as a loss.
    fn cut_by_floor(&mut self, x: NodeId, t: SimTime, compiled: &Compiled) -> bool {
        let (Some(floor), Some(until)) = (self.floor, self.sched.until) else {
            return false;
        };
        let xi = x.index();
        let pc = self.nodes[xi].pc;
        let (left, settled) = self.floor_left[xi];
        let ops = &compiled.programs[xi].ops(&compiled.ops)[settled as usize..pc];
        let left = left.saturating_sub(self.ops_floor(&floor, x, ops, compiled));
        self.floor_left[xi] = (left, pc as u32);
        if t.as_ns().saturating_add(left) <= until.as_ns() {
            return false;
        }
        self.floor_cut = true;
        self.sched.events.clear();
        self.sched.fifo.clear();
        true
    }

    /// Debug builds: no context of a finished run ended before its job's
    /// start plus its program's floor. Checks the floor's soundness on
    /// every run the debug suite finishes.
    fn assert_floor(&self, compiled: &Compiled) {
        let Some(floor) = self.floor else { return };
        let per_job = (self.node_mask + 1) as usize;
        for (xi, p) in compiled.programs.iter().enumerate() {
            let x = NodeId(xi as u32);
            let start = self.cfg.jobs.get(xi / per_job).map_or(0, |job| job.start_ns);
            let least =
                start.saturating_add(self.ops_floor(&floor, x, p.ops(&compiled.ops), compiled));
            let finish = self.nodes[xi].finish.as_ns();
            assert!(
                finish >= least,
                "context {x} finished at {finish} ns, before its floor {least} ns"
            );
        }
    }

    /// Push the barrier-release wakes for every node — what the
    /// sequential barrier handler does when it completes, deferred to
    /// the driver under `barrier_hold`.
    fn seed_release(&mut self, release: SimTime) {
        for i in 0..self.nodes.len() {
            self.push(release, Event::NodeReady(NodeId(i as u32)));
        }
    }

    /// Classify the phase that starts at the barrier just held: fold
    /// the precomputed send-mask unions of every node's current
    /// segment (e-cube routes never leave the mask `src ^ dst`, so any
    /// address bits outside the union are a valid shard axis) and pick
    /// the widest [`ShardPlan`] avoiding them. A phase whose sends
    /// cover every bit — or an UNFORCED payload buffered across the
    /// phase boundary — runs on the globally serialized path instead.
    fn phase_mode(&self, compiled: &Compiled) -> PhaseMode {
        let mut used = 0u32;
        for (i, st) in self.nodes.iter().enumerate() {
            if st.status == Status::Done {
                continue;
            }
            let p = &compiled.programs[i];
            let segs = &compiled.segs[p.segs_start as usize..p.segs_end as usize];
            // Last segment starting at or before the node's pc (at a
            // held barrier the pc sits exactly on a segment start).
            let k = segs.partition_point(|&(start, _)| start as usize <= st.pc);
            if k > 0 {
                used |= segs[k - 1].1;
            }
        }
        let plan = if self.buffered.is_empty() {
            ShardPlan::avoiding(self.cfg.dimension, self.cfg.shards, used)
        } else {
            None
        };
        match plan {
            Some(plan) => PhaseMode::Windowed(plan),
            None => PhaseMode::Global { cross_sends: self.cross_sends(compiled) },
        }
    }

    /// Cross-shard sends of the phase ahead under the *configured*
    /// top-bit layout — telemetry for phases forced onto the global
    /// path (the per-op walk only runs on that already-serialized
    /// path).
    fn cross_sends(&self, compiled: &Compiled) -> u64 {
        let plan = ShardPlan::new(self.cfg.dimension, self.cfg.shards);
        let mut cross = 0u64;
        for (i, st) in self.nodes.iter().enumerate() {
            if st.status == Status::Done {
                continue;
            }
            let ops = compiled.programs[i].ops(&compiled.ops);
            let home = plan.shard_of(i as u32);
            for op in &ops[st.pc..] {
                match op {
                    CompiledOp::Barrier => break,
                    CompiledOp::Send { dst, .. } if plan.shard_of(dst.0) != home => cross += 1,
                    _ => {}
                }
            }
        }
        cross
    }

    /// Execute ops at node `x` starting at time `t` until it blocks,
    /// yields, or finishes.
    fn step_node(&mut self, x: NodeId, t: SimTime, compiled: &Compiled) -> Result<(), SimError> {
        let xi = x.index();
        if self.nodes[xi].status == Status::Done {
            return Ok(()); // stale wake-up after completion
        }
        if !self.floor_left.is_empty() && self.cut_by_floor(x, t, compiled) {
            return Ok(());
        }
        self.nodes[xi].status = Status::Ready;
        loop {
            let pc = self.nodes[xi].pc;
            let Some(op) = compiled.programs[xi].ops(&compiled.ops).get(pc) else {
                self.nodes[xi].status = Status::Done;
                self.nodes[xi].finish = t;
                if self.sched.until.is_some() {
                    self.unfinished -= 1;
                    if self.unfinished == 0 {
                        // The finish time is settled: nothing past `t`
                        // can change the result.
                        self.sched.until = Some(t);
                    }
                }
                return Ok(());
            };
            match op {
                CompiledOp::PostRecv { slot, start, end, tag } => {
                    self.nodes[xi].pc += 1;
                    let slot = *slot as usize;
                    let gi = self.slot_base[xi] as usize + slot;
                    if self.slots[gi].flags & SLOT_BUFFERED != 0 {
                        // Late post of a buffered UNFORCED message.
                        let (tag, into) = (*tag, *start as usize..*end as usize);
                        self.slots[gi].flags &= !SLOT_BUFFERED;
                        let payload = self.buffered.remove(&(gi as u32)).expect("buffered payload");
                        self.deliver_into(x, slot, tag, &payload, into)?;
                        self.recycle(payload);
                    } else {
                        let s = &mut self.slots[gi];
                        s.start = *start;
                        s.end = *end;
                        s.flags |= SLOT_POSTED;
                    }
                }
                CompiledOp::Send { dst, start, end, dst_slot, tag, kind } => {
                    // Self-sends were rejected by the compile pass
                    // (`SimError::SelfSend`), so `dst != x` here.
                    let (dst, from, tag, kind, dst_slot) =
                        (*dst, *start as usize..*end as usize, *tag, *kind, *dst_slot);
                    if self.pair_is_dead(x, dst) {
                        // Partial-fault semantics: the pair's subcube
                        // offers no route — skip the send (the matching
                        // WaitRecv at the receiver skips too).
                        self.nodes[xi].pc += 1;
                        let job = self.job_of(x);
                        if let Some(js) = self.stats.jobs.get_mut(job) {
                            js.dead_pairs_skipped += 1;
                        }
                        continue;
                    }
                    self.nodes[xi].pc += 1;
                    let id = self.issue_transmission(x, dst, tag, kind, from, dst_slot, t);
                    self.nodes[xi].status = Status::Sending(id);
                    self.run_pending_scan(t);
                    return Ok(());
                }
                CompiledOp::WaitRecv { slot, src, .. } => {
                    if self.pair_is_dead(*src, x) {
                        // The sender skipped this pair; don't block on
                        // a message that will never arrive.
                        self.nodes[xi].pc += 1;
                        continue;
                    }
                    let gi = self.slot_base[xi] as usize + *slot as usize;
                    if self.slots[gi].flags & SLOT_DELIVERED != 0 {
                        self.nodes[xi].pc += 1;
                    } else {
                        self.nodes[xi].status = Status::Waiting(*slot);
                        return Ok(());
                    }
                }
                CompiledOp::Permute { perm_idx, block_bytes } => {
                    self.nodes[xi].pc += 1;
                    let perm = &compiled.perms[*perm_idx as usize];
                    let block_bytes = *block_bytes as usize;
                    let total = perm.len() * block_bytes;
                    apply_block_permutation(
                        &mut self.memories[xi],
                        perm,
                        block_bytes,
                        &mut self.scratch,
                    );
                    let dur = self.cfg.shuffle_ns(total);
                    self.push(t.plus_ns(dur), Event::NodeReady(x));
                    self.nodes[xi].status = Status::Ready;
                    return Ok(());
                }
                CompiledOp::Barrier => {
                    self.nodes[xi].pc += 1;
                    self.nodes[xi].status = Status::InBarrier;
                    // Barriers are job-local: only the entering job's
                    // contexts count toward (and wake from) it.
                    let job = self.job_of(x);
                    self.barrier_entered[job] += 1;
                    self.last_barrier_entry = t;
                    if let Some(sink) = self.sink.as_mut() {
                        sink.barrier_entry[xi] = t;
                    }
                    if self.barrier_entered[job] == self.barrier_target {
                        self.barrier_entered[job] = 0;
                        self.stats.barriers += 1;
                        let release = t.plus_ns(self.cfg.barrier_ns());
                        if self.sink.is_some() {
                            self.emit_barrier(job, t, release);
                        }
                        if self.barrier_hold {
                            // Sharded driver: stop at the phase
                            // boundary instead of waking the nodes; the
                            // event queue drains empty and the driver
                            // decides how the next phase executes.
                            self.held_release = Some(release);
                        } else {
                            let per_job = (self.node_mask + 1) as usize;
                            for i in job * per_job..(job + 1) * per_job {
                                self.push(release, Event::NodeReady(NodeId(i as u32)));
                            }
                        }
                    }
                    return Ok(());
                }
                CompiledOp::Compute { ns } => {
                    self.nodes[xi].pc += 1;
                    let Some(done) = t.checked_plus_ns(*ns) else {
                        return Err(SimError::InvalidProgram {
                            node: x,
                            reason: format!(
                                "Compute of {ns} ns at {} ns passes the simulated-time horizon \
                                 ({} ns)",
                                t.as_ns(),
                                SimTime::HORIZON.as_ns()
                            ),
                        });
                    };
                    self.push(done, Event::NodeReady(x));
                    return Ok(());
                }
                CompiledOp::Mark { label } => {
                    self.nodes[xi].pc += 1;
                    let entry = self.stats.marks.entry(*label).or_insert(t);
                    if *entry < t {
                        *entry = t;
                    }
                }
            }
        }
    }

    /// Whether `(src, dst)` is a dead pair under
    /// [`NetCondition::skip_dead_pairs`] (always false otherwise).
    #[inline]
    fn pair_is_dead(&self, src: NodeId, dst: NodeId) -> bool {
        match &self.conditioned {
            Some(c) if !c.dead_pairs.is_empty() => {
                c.dead_pairs.contains(&(src.0 & self.node_mask, (src.0 ^ dst.0) & self.node_mask))
            }
            _ => false,
        }
    }

    /// Trace hook (cold): emit the job-level barrier span plus one
    /// barrier-wait span per context of the job, from each context's
    /// recorded entry time to the release.
    fn emit_barrier(&mut self, job: usize, last_entry: SimTime, release: SimTime) {
        let per_job = (self.node_mask + 1) as usize;
        let Some(sink) = self.sink.as_mut() else { return };
        sink.emit(TraceEvent::Barrier { job: job as u32, start: last_entry, end: release });
        for i in job * per_job..(job + 1) * per_job {
            let start = sink.barrier_entry[i];
            sink.emit(TraceEvent::Wait {
                node: NodeId(i as u32),
                cause: WaitCause::Barrier,
                start,
                end: release,
            });
        }
    }

    /// A flow-controlled transmission was dropped (lossy link) or
    /// refused (drop-tail / NACK at circuit establishment): shrink the
    /// source's window, charge its retry budget, and schedule the
    /// go-back-n retransmission — or raise the typed
    /// [`SimError::RetriesExhausted`] when the budget is gone. `nack`
    /// selects the short fixed NACK delay over the cwnd-scaled
    /// backoff.
    fn drop_transmission(&mut self, id: TransmissionId, t: SimTime, nack: bool) {
        let (src, dst) = {
            let tr = self.tr(id);
            (tr.src, tr.dst)
        };
        let job = self.job_of(src);
        let ctx = src.index();
        self.stats.flow_drops += 1;
        if let Some(js) = self.stats.jobs.get_mut(job) {
            js.drops += 1;
        }
        let cwnd_before = self.flow_cwnd[ctx].cwnd();
        self.flow_cwnd[ctx].on_drop();
        let cwnd_after = self.flow_cwnd[ctx].cwnd();
        if let Some(sink) = self.sink.as_mut() {
            sink.emit(TraceEvent::Flow { job: job as u32, node: src, kind: FlowKind::Drop, at: t });
            if cwnd_after != cwnd_before {
                sink.emit(TraceEvent::Flow {
                    job: job as u32,
                    node: src,
                    kind: FlowKind::Cwnd { window: cwnd_after },
                    at: t,
                });
            }
        }
        self.flow_retries[ctx] += 1;
        // Off the pending list until the retransmission fires.
        self.tr_mut(id).pending = false;
        let fc = self.flow[job].expect("drop on a non-flow-controlled job");
        if self.flow_retries[ctx] > fc.max_retries {
            if self.fatal.is_none() {
                self.fatal = Some(SimError::RetriesExhausted {
                    job: job as u32,
                    src,
                    dst,
                    retries: self.flow_retries[ctx],
                });
            }
            return;
        }
        let delay = if nack { (fc.rto_ns / 8).max(1) } else { fc.backoff_ns(&self.flow_cwnd[ctx]) };
        let until = t.plus_ns(delay);
        if let Some(sink) = self.sink.as_mut() {
            sink.emit(TraceEvent::Flow {
                job: job as u32,
                node: src,
                kind: FlowKind::Backoff { until },
                at: t,
            });
        }
        self.push(until, Event::Retransmit(id));
    }

    /// Re-issue a dropped transmission: back onto the pending list
    /// under a fresh queue sequence, exactly as if it had just been
    /// issued (the payload — in-place or owned — never moved).
    fn fire_retransmit(&mut self, id: TransmissionId, t: SimTime) {
        let src = match self.tr_live(id) {
            Some(tr) => tr.src,
            None => return,
        };
        let job = self.job_of(src);
        self.stats.retransmissions += 1;
        if let Some(js) = self.stats.jobs.get_mut(job) {
            js.retransmissions += 1;
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.emit(TraceEvent::Flow {
                job: job as u32,
                node: src,
                kind: FlowKind::Retransmit,
                at: t,
            });
        }
        let qseq = self.next_qseq;
        self.next_qseq += 1;
        {
            let tr = self.tr_mut(id);
            tr.requested_at = t;
            tr.blocked_by_link = false;
            tr.blocked_by_nic = false;
            tr.qseq = qseq;
            tr.pending = true;
        }
        self.dirty_insert((qseq, id));
        self.run_pending_scan(t);
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_transmission(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: Tag,
        kind: MsgKind,
        from: Range<usize>,
        dst_slot: u32,
        t: SimTime,
    ) -> TransmissionId {
        if self.cfg.switching == SwitchingMode::Circuit {
            // Zero-copy: the sender blocks for the whole circuit, so
            // the bytes stay in its memory until delivery (or until an
            // inbound delivery into the range materializes them).
            let inplace = Some((from.start as u32, from.end as u32));
            let id =
                self.issue_payload(src, dst, tag, kind, Vec::new(), inplace, dst_slot, t, false);
            self.inplace_out[src.index()] = Some(id);
            return id;
        }
        // Store-and-forward frees the sender after hop 0 — its memory
        // may change while the message is in flight — so copy now.
        let payload = self.copy_out_of_memory(src, from);
        self.issue_payload(src, dst, tag, kind, payload, None, dst_slot, t, false)
    }

    /// Fire one injection of background stream `si`: a link-occupying
    /// transmission that bypasses NIC state and delivery. Schedules the
    /// stream's next injection.
    fn inject_background(&mut self, si: usize, t: SimTime) {
        let (src, dst, bytes, period_ns, remaining) = {
            let cond = self.conditioned.as_mut().expect("Inject event on unconditioned run");
            let s = cond.streams[si];
            cond.remaining[si] -= 1;
            (s.src, s.dst, s.bytes, s.period_ns, cond.remaining[si])
        };
        let mut payload = self.pool.pop().unwrap_or_default();
        payload.clear();
        payload.resize(bytes, 0);
        self.issue_payload(
            src,
            dst,
            background_tag(si),
            MsgKind::Forced,
            payload,
            None,
            NO_SLOT,
            t,
            true,
        );
        if remaining > 0 {
            self.push(t.plus_ns(period_ns), Event::Inject(si as u32));
        }
        self.run_pending_scan(t);
    }

    /// Price one transmission (or one store-and-forward hop) over
    /// conditioned links: duration, the UNFORCED reserve surcharge
    /// and jitter, as a pure function of `(bytes, kind, factors, id)`
    /// — the single source of truth shared by the issue path and the
    /// store-and-forward hop-repricing path, so the two cannot
    /// diverge. (The reserve-handshake *statistic* is counted once at
    /// issue, not here.)
    fn conditioned_priced_ns(
        &self,
        bytes: usize,
        kind: MsgKind,
        max_f: f64,
        sum_f: f64,
        id: TransmissionId,
    ) -> u64 {
        let mut dur = self.cfg.conditioned_transmission_ns(bytes, max_f, sum_f);
        if kind == MsgKind::Unforced && bytes > self.cfg.params.unforced_threshold {
            dur += self.cfg.conditioned_reserve_ack_ns(sum_f);
        }
        if self.cfg.jitter_frac > 0.0 {
            dur = jitter(dur, self.cfg.jitter_frac, self.cfg.seed, id);
        }
        dur
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_payload(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: Tag,
        kind: MsgKind,
        payload: Vec<u8>,
        inplace: Option<(u32, u32)>,
        dst_slot: u32,
        t: SimTime,
        background: bool,
    ) -> TransmissionId {
        let id = self.next_tid;
        self.next_tid += 1;
        let nbytes = match inplace {
            Some((s, e)) => (e - s) as usize,
            None => payload.len(),
        };
        // Same-job contexts differ only in physical-node bits, so the
        // xor-mask is the physical route mask; routes and links live on
        // the physical cube.
        let mask = src.0 ^ dst.0;
        let hops = mask.count_ones();
        let circuit = self.cfg.switching == SwitchingMode::Circuit;
        // Conditioned network: (max, sum) factors of the actual
        // (possibly fault-rerouted) path. For store-and-forward this
        // prices hop 0; later hops are re-priced as they queue.
        let factors = if self.links.has_speeds() {
            let mut buf = fresh_route_buf();
            let route = route_for(self.conditioned.as_ref(), self.phys(src), mask, &mut buf);
            Some(if circuit {
                self.links.segment_factors(route)
            } else {
                let f = self.links.factor(&route[0]);
                (f, f)
            })
        } else {
            None
        };
        if kind == MsgKind::Unforced && nbytes > self.cfg.params.unforced_threshold {
            self.stats.reserve_handshakes += 1;
        }
        let duration_ns = match factors {
            Some((max_f, sum_f)) => self.conditioned_priced_ns(nbytes, kind, max_f, sum_f, id),
            None => {
                // Integer pricing from the precomputed per-run rates;
                // bit-identical to `SimConfig::transmission_ns` (one
                // hop in store-and-forward mode) / `reserve_ack_ns`.
                let bytes = nbytes as u64;
                let lam = if bytes == 0 { self.ns_lambda0 } else { self.ns_lambda };
                let dur_hops = if circuit { hops as u64 } else { 1 };
                let mut dur = lam + self.ns_tau * bytes + self.ns_delta * dur_hops;
                if kind == MsgKind::Unforced && nbytes > self.cfg.params.unforced_threshold {
                    dur += 2 * (self.ns_lambda0 + self.ns_delta * dur_hops);
                }
                if self.cfg.jitter_frac > 0.0 {
                    dur = jitter(dur, self.cfg.jitter_frac, self.cfg.seed, id);
                }
                dur
            }
        };
        let qseq = self.next_qseq;
        self.next_qseq += 1;
        let tr = Transmission {
            payload,
            inplace,
            src,
            dst,
            mask,
            dst_slot,
            tag,
            duration_ns,
            requested_at: t,
            qseq,
            kind,
            hop_idx: 0,
            blocked_by_link: false,
            blocked_by_nic: false,
            pending: true,
            background,
        };
        let slot = match self.tr_free.pop() {
            Some(s) => {
                self.transmissions[s as usize] = Some(tr);
                s
            }
            None => {
                self.transmissions.push(Some(tr));
                self.tr_slot_ids.push(0);
                (self.transmissions.len() - 1) as u32
            }
        };
        self.tr_slot_ids[slot as usize] = id;
        debug_assert_eq!(self.id_to_slot.len() as u64, id - 1);
        self.id_to_slot.push(slot);
        self.dirty_insert((qseq, id));
        id
    }

    /// Sorted-unique insert into the dirty list.
    fn dirty_insert(&mut self, key: (u64, TransmissionId)) {
        match self.dirty.binary_search(&key) {
            Ok(_) => {}
            Err(i) => self.dirty.insert(i, key),
        }
    }

    /// Move every watcher of the segment's links onto the dirty set.
    /// Called for both acquires (a watcher may need its blocked-by-link
    /// flag and contention accounting updated) and releases (a watcher
    /// may now start).
    fn wake_link_watchers(&mut self, segment: &[DirectedLink]) {
        if !self.links.has_watchers() {
            return;
        }
        let mut woken = std::mem::take(&mut self.woken);
        self.links.drain_watchers(segment, &mut woken);
        self.mark_dirty(&mut woken);
        self.woken = woken;
    }

    /// Move every watcher of node `x`'s NIC state onto the dirty set.
    fn wake_node_watchers(&mut self, x: NodeId) {
        if self.node_watch[x.index()].is_empty() {
            return;
        }
        let mut woken = std::mem::take(&mut self.woken);
        woken.append(&mut self.node_watch[x.index()]);
        self.mark_dirty(&mut woken);
        self.woken = woken;
    }

    /// Empty `woken` onto the dirty set, skipping registrations that
    /// outlived their transmission or its wait.
    fn mark_dirty(&mut self, woken: &mut Vec<TransmissionId>) {
        for id in woken.drain(..) {
            if let Some(tr) = self.tr_live(id) {
                if tr.pending {
                    let key = (tr.qseq, id);
                    self.dirty_insert(key);
                }
            }
        }
    }

    /// Retry dirty pending transmissions in global queue order at time
    /// `t`. Equivalent to one pass of the old `try_start_pending`
    /// rescan: candidates dirtied *during* the pass join it only at
    /// positions after the current cursor (exactly the state a single
    /// in-order sweep would observe); earlier ones stay dirty for the
    /// next trigger.
    fn run_pending_scan(&mut self, t: SimTime) {
        // Time-lapse wake-ups: NIC-window conditions expired by t.
        while let Some((at, qseq, id)) = self.sched.lapse.peek() {
            if at > t.as_ns() {
                break;
            }
            self.sched.lapse.pop();
            if let Some(tr) = self.tr_live(id) {
                if tr.pending && tr.qseq == qseq {
                    self.dirty_insert((qseq, id));
                }
            }
        }
        let mut cursor: Option<(u64, TransmissionId)> = None;
        loop {
            // First dirty key strictly beyond the cursor; entries
            // dirtied mid-scan at earlier positions wait for the next
            // trigger, exactly like the old one-pass rescan.
            let idx = match cursor {
                None => 0,
                Some(c) => self.dirty.partition_point(|&k| k <= c),
            };
            if idx >= self.dirty.len() {
                break;
            }
            let key = self.dirty.remove(idx);
            cursor = Some(key);
            let (qseq, id) = key;
            let alive = matches!(
                self.tr_live(id),
                Some(tr) if tr.pending && tr.qseq == qseq
            );
            if alive {
                self.try_start(id, t);
            }
        }
    }

    /// Try to establish the next segment of transmission `id` at time
    /// `t`: the whole circuit in circuit mode, the next single hop in
    /// store-and-forward mode. On failure, registers the wait-queue
    /// watchers that will re-dirty the transmission.
    fn try_start(&mut self, id: TransmissionId, t: SimTime) -> bool {
        let saf = self.cfg.switching == SwitchingMode::StoreAndForward;
        let (src, dst, mask, hop_idx, background) = {
            let tr = self.tr(id);
            (tr.src, tr.dst, tr.mask, tr.hop_idx as usize, tr.background)
        };
        let mut route_buf = fresh_route_buf();
        let route = route_for(self.conditioned.as_ref(), self.phys(src), mask, &mut route_buf);
        let segment = if saf { &route[hop_idx..hop_idx + 1] } else { route };
        let links_free = self.links.all_free(segment);
        let first_hop = hop_idx == 0;
        let last_hop = !saf || hop_idx + 1 == route.len();
        if !links_free {
            // Reactive sources under a drop-tail/NACK policy: when the
            // blocking link's wait queue is already at the limit, the
            // switch refuses the circuit instead of queueing it.
            if !background && !saf {
                let limit = match self.link_policy {
                    Some(LinkPolicy::DropTail { queue_limit }) => Some((queue_limit, false)),
                    Some(LinkPolicy::Nack { queue_limit }) => Some((queue_limit, true)),
                    _ => None,
                };
                if let Some((queue_limit, nack)) = limit {
                    if self.flow_of(src).is_some() {
                        let queued = segment
                            .iter()
                            .filter(|l| !self.links.all_free(std::slice::from_ref(l)))
                            .map(|l| self.links.watchers(l))
                            .max()
                            .unwrap_or(0);
                        if queued as u32 >= queue_limit {
                            self.drop_transmission(id, t, nack);
                            return false;
                        }
                    }
                }
            }
            let tr = self.tr_mut(id);
            if !tr.blocked_by_link {
                tr.blocked_by_link = true;
                // Background injections contend but stay out of the
                // algorithm's contention statistics.
                if !background {
                    self.stats.edge_contention_events += 1;
                }
            }
            self.links.watch(segment, id);
            return false;
        }
        // NIC concurrency window (Section 7.2): outgoing at `src` may
        // not overlap an incoming unless their starts are within the
        // window; symmetrically for the receiver's active outgoing.
        // The NIC is physical-node hardware, so on multi-job runs the
        // intervals of every co-tenant context of the node count.
        // Background traffic models pass-through circuits from other
        // partitions: it occupies links only and bypasses the NIC rule.
        let window = self.cfg.concurrency_window_ns;
        let per_job = (self.node_mask + 1) as usize;
        let (phys_src, phys_dst) =
            ((src.0 & self.node_mask) as usize, (dst.0 & self.node_mask) as usize);
        let nic_conflict = !background && {
            let incoming_conflict = first_hop
                && (0..self.num_jobs).any(|j| {
                    self.nodes[j * per_job + phys_src]
                        .incoming
                        .iter()
                        .any(|&(_, start, end)| end > t && t.since(start) > window)
                });
            let outgoing_conflict = last_hop
                && (0..self.num_jobs).any(|j| match self.nodes[j * per_job + phys_dst].outgoing {
                    Some((_, start, end)) => end > t && t.since(start) > window,
                    None => false,
                });
            incoming_conflict || outgoing_conflict
        };
        if nic_conflict {
            {
                let tr = self.tr_mut(id);
                if !tr.blocked_by_nic {
                    tr.blocked_by_nic = true;
                    self.stats.nic_serialization_events += 1;
                }
            }
            // Wake when one of our links is touched, when the blocking
            // endpoints' NIC intervals change, or when the earliest
            // blocking interval lapses by the passage of time alone.
            self.links.watch(segment, id);
            let mut next_lapse = u64::MAX;
            if first_hop {
                if !self.node_watch[phys_src].contains(&id) {
                    self.node_watch[phys_src].push(id);
                }
                for j in 0..self.num_jobs {
                    for &(_, start, end) in &self.nodes[j * per_job + phys_src].incoming {
                        if end > t && t.since(start) > window {
                            next_lapse = next_lapse.min(end.as_ns());
                        }
                    }
                }
            }
            if last_hop {
                if !self.node_watch[phys_dst].contains(&id) {
                    self.node_watch[phys_dst].push(id);
                }
                for j in 0..self.num_jobs {
                    if let Some((_, start, end)) = self.nodes[j * per_job + phys_dst].outgoing {
                        if end > t && t.since(start) > window {
                            next_lapse = next_lapse.min(end.as_ns());
                        }
                    }
                }
            }
            if next_lapse != u64::MAX {
                let qseq = self.tr(id).qseq;
                self.lapse_pushes += 1;
                self.sched.lapse.push(next_lapse, qseq, id);
            }
            return false;
        }
        // Start: hold the segment for its duration.
        let (end, bytes, tag) = {
            let tr = self.tr_mut(id);
            tr.pending = false;
            (t.plus_ns(tr.duration_ns), tr.payload_len(), tr.tag)
        };
        self.links.acquire(segment, id);
        if background {
            if first_hop {
                self.stats.background_transmissions += 1;
                self.stats.background_bytes += bytes as u64;
            }
        } else {
            self.stats.link_crossings += segment.len() as u64;
            if first_hop {
                self.nodes[src.index()].outgoing = Some((id, t, end));
                self.wake_node_watchers(self.phys(src));
                self.stats.transmissions += 1;
                self.stats.bytes_moved += bytes as u64;
            }
            if last_hop {
                self.nodes[dst.index()].incoming.push((id, t, end));
                self.wake_node_watchers(self.phys(dst));
            }
            let tr = self.tr(id);
            let wait = t.since(tr.requested_at);
            let (by_link, by_nic) = (tr.blocked_by_link, tr.blocked_by_nic);
            if by_link {
                self.stats.edge_contention_wait_ns += wait;
            } else if by_nic {
                self.stats.nic_serialization_wait_ns += wait;
            }
            if !self.stats.jobs.is_empty() {
                let job = self.job_of(src);
                let js = &mut self.stats.jobs[job];
                if first_hop {
                    js.transmissions += 1;
                    js.bytes_moved += bytes as u64;
                }
                if by_link {
                    js.edge_contention_wait_ns += wait;
                } else if by_nic {
                    js.nic_wait_ns += wait;
                }
            }
        }
        // An acquire can flip a watcher's blocking cause; give link
        // watchers their in-order look at the new state.
        self.wake_link_watchers(segment);
        if self.sink.is_some() {
            let (requested_at, by_link, by_nic) = {
                let tr = self.tr(id);
                (tr.requested_at, tr.blocked_by_link, tr.blocked_by_nic)
            };
            let Some(sink) = self.sink.as_mut() else { unreachable!() };
            // The full hold extent is known at establishment, so every
            // span is emitted complete — no start/end pairing.
            for link in segment {
                sink.emit(TraceEvent::LinkHold {
                    from: link.from,
                    to: link.to,
                    start: t,
                    end,
                    tag,
                    bytes,
                    background,
                });
            }
            if !background {
                if first_hop {
                    sink.emit(TraceEvent::NicSend { node: src, start: t, end, tag, bytes });
                }
                if last_hop {
                    sink.emit(TraceEvent::NicRecv { node: dst, start: t, end, tag });
                }
                let wait = t.since(requested_at);
                if wait > 0 && (by_link || by_nic) {
                    let cause = if by_link { WaitCause::Contention } else { WaitCause::NicLapse };
                    sink.emit(TraceEvent::Wait { node: src, cause, start: requested_at, end: t });
                }
            }
        }
        self.push(end, Event::TransmissionEnd(id));
        true
    }

    fn finish_transmission(&mut self, id: TransmissionId, t: SimTime) -> Result<(), SimError> {
        if self.cfg.switching == SwitchingMode::StoreAndForward {
            // Release the completed hop; advance or deliver.
            let (done, was_first, hop, background) = {
                let mut route_buf = fresh_route_buf();
                let (src, mask) = {
                    let tr = self.tr(id);
                    (self.phys(tr.src), tr.mask)
                };
                let route = route_for(self.conditioned.as_ref(), src, mask, &mut route_buf);
                let tr = self.tr_mut(id);
                let hop = route[tr.hop_idx as usize];
                let was_first = tr.hop_idx == 0;
                tr.hop_idx += 1;
                let done = tr.hop_idx as usize == route.len();
                (done, was_first, hop, tr.background)
            };
            self.links.release(std::slice::from_ref(&hop), id);
            self.wake_link_watchers(std::slice::from_ref(&hop));
            if was_first && !background {
                // The sender's buffer is free once the message is
                // stored at the first intermediate node.
                let src = self.tr(id).src;
                self.nodes[src.index()].outgoing = None;
                self.wake_node_watchers(self.phys(src));
                self.push(t, Event::NodeReady(src));
            }
            if !done {
                // Queue the next hop (clear one-shot blocking flags so
                // each hop's wait is accounted once).
                let qseq = self.next_qseq;
                self.next_qseq += 1;
                if self.links.has_speeds() {
                    // Conditioned network: re-price the next hop by its
                    // own link factor (heterogeneous hops differ).
                    let (src, mask, hop_idx, bytes, kind) = {
                        let tr = self.tr(id);
                        (self.phys(tr.src), tr.mask, tr.hop_idx as usize, tr.payload_len(), tr.kind)
                    };
                    let mut route_buf = fresh_route_buf();
                    let route = route_for(self.conditioned.as_ref(), src, mask, &mut route_buf);
                    let f = self.links.factor(&route[hop_idx]);
                    let dur = self.conditioned_priced_ns(bytes, kind, f, f, id);
                    self.tr_mut(id).duration_ns = dur;
                }
                {
                    let tr = self.tr_mut(id);
                    tr.requested_at = t;
                    tr.blocked_by_link = false;
                    tr.blocked_by_nic = false;
                    tr.qseq = qseq;
                    tr.pending = true;
                }
                self.dirty_insert((qseq, id));
                self.run_pending_scan(t);
                return Ok(());
            }
            // Fall through to delivery below.
            let tr = self.take_tr(id);
            if !tr.background {
                let dst = tr.dst;
                self.nodes[dst.index()].incoming.retain(|&(iid, _, _)| iid != id);
                self.wake_node_watchers(self.phys(dst));
            }
            return self.deliver_and_wake(tr, t, false);
        }
        // Lossy-link policy: a flow-controlled circuit may complete its
        // full (priced) duration and still lose the payload. Decide
        // BEFORE taking the transmission out of the slab — a lost one
        // stays live (its in-place payload included) for the
        // retransmission.
        let lost = {
            let tr = self.tr(id);
            !tr.background
                && match self.link_policy {
                    Some(LinkPolicy::Lossy { loss_per_myriad, seed }) => {
                        // Retransmissions reuse the slab id, so mix the
                        // source's attempt count into the coin key —
                        // each retry draws a fresh coin instead of
                        // replaying the loss forever.
                        self.flow_of(tr.src).is_some()
                            && lossy_coin(
                                seed,
                                id.wrapping_add(
                                    (self.flow_retries[tr.src.index()] as u64)
                                        .wrapping_mul(crate::fxhash::SPLITMIX64_GOLDEN),
                                ),
                                loss_per_myriad,
                            )
                    }
                    _ => false,
                }
        };
        if lost {
            let (src, dst, mask) = {
                let tr = self.tr(id);
                (tr.src, tr.dst, tr.mask)
            };
            let mut route_buf = fresh_route_buf();
            let route = route_for(self.conditioned.as_ref(), self.phys(src), mask, &mut route_buf);
            self.links.release(route, id);
            self.wake_link_watchers(route);
            let src_state = &mut self.nodes[src.index()];
            debug_assert!(matches!(src_state.outgoing, Some((oid, _, _)) if oid == id));
            src_state.outgoing = None;
            self.wake_node_watchers(self.phys(src));
            self.nodes[dst.index()].incoming.retain(|&(iid, _, _)| iid != id);
            self.wake_node_watchers(self.phys(dst));
            self.drop_transmission(id, t, false);
            self.run_pending_scan(t);
            return Ok(());
        }
        let tr = self.take_tr(id);
        let mut route_buf = fresh_route_buf();
        let route =
            route_for(self.conditioned.as_ref(), self.phys(tr.src), tr.mask, &mut route_buf);
        self.links.release(route, id);
        self.wake_link_watchers(route);
        if !tr.background {
            let src_state = &mut self.nodes[tr.src.index()];
            debug_assert!(matches!(src_state.outgoing, Some((oid, _, _)) if oid == id));
            src_state.outgoing = None;
            self.wake_node_watchers(self.phys(tr.src));
            let dst_state = &mut self.nodes[tr.dst.index()];
            dst_state.incoming.retain(|&(iid, _, _)| iid != id);
            self.wake_node_watchers(self.phys(tr.dst));
            // Acknowledge the completed circuit to the source's
            // congestion window and re-arm its retry budget.
            if !self.flow.is_empty() && self.flow_of(tr.src).is_some() {
                let ctx = tr.src.index();
                let cwnd_before = self.flow_cwnd[ctx].cwnd();
                self.flow_cwnd[ctx].on_ack();
                let cwnd_after = self.flow_cwnd[ctx].cwnd();
                self.flow_retries[ctx] = 0;
                if cwnd_after != cwnd_before {
                    let job = self.job_of(tr.src) as u32;
                    if let Some(sink) = self.sink.as_mut() {
                        sink.emit(TraceEvent::Flow {
                            job,
                            node: tr.src,
                            kind: FlowKind::Cwnd { window: cwnd_after },
                            at: t,
                        });
                    }
                }
            }
        }

        let wake_sender = !tr.background;
        self.deliver_and_wake(tr, t, wake_sender)
    }

    /// Deliver a completed transmission's payload and wake the
    /// affected nodes. `wake_sender` is false in store-and-forward
    /// mode, where the sender was already released after hop 0.
    fn deliver_and_wake(
        &mut self,
        tr: Transmission,
        t: SimTime,
        wake_sender: bool,
    ) -> Result<(), SimError> {
        if tr.background {
            // Background payloads are never delivered: the bytes model
            // traffic from outside the partition. Freed links may
            // unblock pending circuits.
            self.recycle(tr.payload);
            self.run_pending_scan(t);
            return Ok(());
        }

        // Deliver the payload (moved — or copied straight out of the
        // sender's memory on the zero-copy path — never cloned twice).
        if tr.inplace.is_some() {
            self.inplace_out[tr.src.index()] = None;
        }
        let di = tr.dst.index();
        let slot = tr.dst_slot;
        let posted = if slot != NO_SLOT {
            let s = &mut self.slots[self.slot_base[di] as usize + slot as usize];
            if s.flags & SLOT_POSTED != 0 {
                s.flags &= !SLOT_POSTED;
                Some(s.start as usize..s.end as usize)
            } else {
                None
            }
        } else {
            None
        };
        if let Some(into) = posted {
            match tr.inplace {
                Some(range) => {
                    self.deliver_inplace(tr.src, range, tr.dst, slot as usize, tr.tag, into)?;
                }
                None => {
                    self.deliver_into(tr.dst, slot as usize, tr.tag, &tr.payload, into)?;
                    self.recycle(tr.payload);
                }
            }
            if self.nodes[di].status == Status::Waiting(slot) {
                self.push(t, Event::NodeReady(tr.dst));
            }
        } else {
            match tr.kind {
                MsgKind::Forced => {
                    self.stats.forced_drops += 1;
                    if let Some(sink) = self.sink.as_mut() {
                        sink.emit(TraceEvent::ForcedDrop {
                            src: tr.src,
                            dst: tr.dst,
                            tag: tr.tag,
                            at: t,
                        });
                    }
                    self.recycle(tr.payload);
                }
                MsgKind::Unforced => {
                    if slot != NO_SLOT {
                        // Buffering outlives the sender's blocked
                        // window: materialize an in-place payload now.
                        let payload = match tr.inplace {
                            Some((ps, pe)) => {
                                self.copy_out_of_memory(tr.src, ps as usize..pe as usize)
                            }
                            None => tr.payload,
                        };
                        let gi = self.slot_base[di] + slot;
                        self.slots[gi as usize].flags |= SLOT_BUFFERED;
                        self.buffered.insert(gi, payload);
                    } else {
                        // The receiver never posts this key; the bytes
                        // are unobservable.
                        self.recycle(tr.payload);
                    }
                }
            }
        }

        if wake_sender {
            // The blocking send completes: wake the sender.
            self.push(t, Event::NodeReady(tr.src));
        }
        // Freed links / NIC units may unblock pending circuits.
        self.run_pending_scan(t);
        Ok(())
    }

    /// A delivery is about to write `memories[x][into]`: if `x` has an
    /// outstanding in-place outgoing payload overlapping that range,
    /// copy its bytes out *first*, preserving the frozen-at-issue
    /// payload semantics of the copying engine exactly.
    fn materialize_overlap(&mut self, x: NodeId, into: &Range<usize>) {
        let xi = x.index();
        let Some(oid) = self.inplace_out[xi] else { return };
        let (ps, pe) = self.tr(oid).inplace.expect("inplace_out names an in-place transmission");
        if (ps as usize) < into.end && into.start < pe as usize {
            let buf = self.copy_out_of_memory(x, ps as usize..pe as usize);
            let tr = self.tr_mut(oid);
            tr.payload = buf;
            tr.inplace = None;
            self.inplace_out[xi] = None;
        }
    }

    /// Deliver a zero-copy payload: one copy, straight from the
    /// sender's memory range into the receiver's posted range.
    fn deliver_inplace(
        &mut self,
        src: NodeId,
        (ps, pe): (u32, u32),
        node: NodeId,
        slot: usize,
        tag: Tag,
        into: Range<usize>,
    ) -> Result<(), SimError> {
        let sent = (pe - ps) as usize;
        if into.len() != sent {
            return Err(SimError::SizeMismatch { node, tag, posted: into.len(), sent });
        }
        self.materialize_overlap(node, &into);
        let (si, di) = (src.index(), node.index());
        debug_assert_ne!(si, di, "self-sends are rejected at compile time");
        let (src_mem, dst_mem): (&[u8], &mut [u8]) = if si < di {
            let (left, right) = self.memories.split_at_mut(di);
            (&left[si], &mut right[0])
        } else {
            let (left, right) = self.memories.split_at_mut(si);
            (&right[0], &mut left[di])
        };
        dst_mem[into].copy_from_slice(&src_mem[ps as usize..pe as usize]);
        self.slots[self.slot_base[di] as usize + slot].flags |= SLOT_DELIVERED;
        Ok(())
    }

    /// Copy a payload into the slot's memory range and mark delivery.
    fn deliver_into(
        &mut self,
        node: NodeId,
        slot: usize,
        tag: Tag,
        payload: &[u8],
        into: Range<usize>,
    ) -> Result<(), SimError> {
        if into.len() != payload.len() {
            return Err(SimError::SizeMismatch {
                node,
                tag,
                posted: into.len(),
                sent: payload.len(),
            });
        }
        self.materialize_overlap(node, &into);
        self.memories[node.index()][into.clone()].copy_from_slice(payload);
        self.slots[self.slot_base[node.index()] as usize + slot].flags |= SLOT_DELIVERED;
        Ok(())
    }
}

/// Apply a block permutation in place: block `i` moves to `perm[i]`.
/// `scratch` is a reusable staging buffer (grown on demand) so the hot
/// path never allocates. When the permutation covers the whole memory
/// — every builder in this repository permutes full node memories —
/// the permuted scratch is *swapped* in wholesale instead of copied
/// back, halving the memory traffic of the shuffle phases.
fn apply_block_permutation(
    memory: &mut Vec<u8>,
    perm: &[u32],
    block_bytes: usize,
    scratch: &mut Vec<u8>,
) {
    if block_bytes == 0 || perm.is_empty() {
        return;
    }
    let total = perm.len() * block_bytes;
    if total == memory.len() {
        // Full-memory permute: scatter into scratch, swap buffers.
        // (After the first call scratch is a previous memory of the
        // same length, so the resize is a no-op, not a memset.)
        scratch.resize(total, 0);
        scatter_blocks(memory, perm, block_bytes, scratch);
        std::mem::swap(memory, scratch);
        return;
    }
    if scratch.len() < total {
        scratch.resize(total, 0);
    }
    let scratch = &mut scratch[..total];
    scatter_blocks(&memory[..total], perm, block_bytes, scratch);
    memory[..total].copy_from_slice(scratch);
}

/// Block `i` of `src` to block `perm[i]` of `dst` (both
/// `perm.len() * block_bytes` long).
#[inline]
fn scatter_blocks(src: &[u8], perm: &[u32], block_bytes: usize, dst: &mut [u8]) {
    for (block, &p) in src.chunks_exact(block_bytes).zip(perm) {
        let at = p as usize * block_bytes;
        copy_block(&mut dst[at..at + block_bytes], block);
    }
}

/// Copy one permute block (`dst.len() == src.len()`). A block of
/// 8..=64 bytes moves as two fixed-width copies of its first and last
/// `w` bytes (w = 8, 16 or 32, overlapping unless the block is exactly
/// 2w), each of which compiles to plain loads and stores; a
/// `copy_from_slice` of runtime length is a libc `memcpy` call, and
/// the shuffles of small-block exchanges make millions of them. Other
/// sizes take `copy_from_slice`.
#[inline(always)]
fn copy_block(dst: &mut [u8], src: &[u8]) {
    match src.len() {
        8..=16 => copy_ends::<8>(dst, src),
        17..=32 => copy_ends::<16>(dst, src),
        33..=64 => copy_ends::<32>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

/// `dst[..W]` and `dst[n - W..]` from the same ranges of `src`
/// (`W ≤ n = src.len() = dst.len()`): together every byte once or
/// twice, always with its own value.
#[inline(always)]
fn copy_ends<const W: usize>(dst: &mut [u8], src: &[u8]) {
    let n = src.len();
    dst[..W].copy_from_slice(&src[..W]);
    dst[n - W..n].copy_from_slice(&src[n - W..n]);
}

/// The per-block `copy_from_slice` body [`apply_block_permutation`]
/// had before [`copy_block`]: the differential's reference.
#[cfg(test)]
fn apply_block_permutation_reference(
    memory: &mut Vec<u8>,
    perm: &[u32],
    block_bytes: usize,
    scratch: &mut Vec<u8>,
) {
    if block_bytes == 0 || perm.is_empty() {
        return;
    }
    let total = perm.len() * block_bytes;
    if total == memory.len() {
        scratch.resize(total, 0);
        for (i, &p) in perm.iter().enumerate() {
            let srcr = i * block_bytes..(i + 1) * block_bytes;
            let dstr = p as usize * block_bytes..(p as usize + 1) * block_bytes;
            scratch[dstr].copy_from_slice(&memory[srcr]);
        }
        std::mem::swap(memory, scratch);
        return;
    }
    if scratch.len() < total {
        scratch.resize(total, 0);
    }
    let scratch = &mut scratch[..total];
    for (i, &p) in perm.iter().enumerate() {
        let srcr = i * block_bytes..(i + 1) * block_bytes;
        let dstr = p as usize * block_bytes..(p as usize + 1) * block_bytes;
        scratch[dstr].copy_from_slice(&memory[srcr]);
    }
    memory[..total].copy_from_slice(scratch);
}

/// Deterministic multiplicative jitter in `[1 - frac, 1 + frac]`,
/// derived from (seed, transmission id) by splitmix64.
fn jitter(base_ns: u64, frac: f64, seed: u64, id: TransmissionId) -> u64 {
    let z = crate::fxhash::splitmix64_mix(seed ^ id.wrapping_mul(crate::fxhash::SPLITMIX64_GOLDEN));
    // Map to [-1, 1).
    let u = (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
    let scaled = base_ns as f64 * (1.0 + frac * u);
    scaled.round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_hypercube::routing::ecube_path;

    #[test]
    fn block_permutation_applies() {
        let mut scratch = Vec::new();
        let mut mem: Vec<u8> = (0..12).collect();
        // 3 blocks of 4 bytes; rotate blocks right: i -> (i+1) % 3.
        apply_block_permutation(&mut mem, &[1, 2, 0], 4, &mut scratch);
        assert_eq!(mem, vec![8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn identity_permutation_is_noop() {
        let mut scratch = Vec::new();
        let mut mem: Vec<u8> = (0..16).collect();
        let before = mem.clone();
        apply_block_permutation(&mut mem, &[0, 1, 2, 3], 4, &mut scratch);
        assert_eq!(mem, before);
    }

    #[test]
    fn scratch_is_reused_across_calls() {
        let mut scratch = Vec::new();
        let mut mem: Vec<u8> = (0..32).collect();
        apply_block_permutation(&mut mem, &[1, 0], 16, &mut scratch);
        let cap = scratch.capacity();
        apply_block_permutation(&mut mem, &[1, 0], 16, &mut scratch);
        assert_eq!(scratch.capacity(), cap, "no reallocation on repeat");
        assert_eq!(mem, (0..32).collect::<Vec<u8>>());
    }

    /// `copy_block` against the per-block `copy_from_slice` reference:
    /// every block size 1..=130 (both sides of the 8/16/32/64 class
    /// edges), seeded random permutations of 1..=67 blocks, full-memory
    /// and partial calls, scratch shorter and longer than the span.
    /// Memory and scratch must match byte for byte afterwards.
    #[test]
    fn block_permutation_matches_reference_differentially() {
        let mut rng = proptest::TestRng::from_name("block-permutation-differential");
        let bytes = |rng: &mut proptest::TestRng, n: usize| -> Vec<u8> {
            (0..n).map(|_| rng.next_u64() as u8).collect()
        };
        for block in 1..=130usize {
            for blocks in 1..=67usize {
                let mut perm: Vec<u32> = (0..blocks as u32).collect();
                for i in (1..blocks).rev() {
                    perm.swap(i, rng.below(i as u128 + 1) as usize);
                }
                let span = blocks * block;
                let tail = 1 + rng.below(3 * block as u128) as usize;
                for mem_len in [span, span + tail] {
                    for scratch_len in [span / 2, span + tail + 5] {
                        let mem = bytes(&mut rng, mem_len);
                        let scratch = bytes(&mut rng, scratch_len);
                        let (mut m1, mut s1) = (mem.clone(), scratch.clone());
                        let (mut m2, mut s2) = (mem, scratch);
                        apply_block_permutation(&mut m1, &perm, block, &mut s1);
                        apply_block_permutation_reference(&mut m2, &perm, block, &mut s2);
                        let case = format!("block {block}, {blocks} blocks, memory {mem_len}, scratch {scratch_len}");
                        assert_eq!(m1, m2, "memory: {case}");
                        assert_eq!(s1, s2, "scratch: {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn expanded_route_matches_ecube_route() {
        for (s, t) in [(0u32, 0b10110u32), (5, 5), (31, 0), (2, 23)] {
            let mut buf = fresh_route_buf();
            let route = expand_route(NodeId(s), s ^ t, &mut buf);
            let expected: Vec<DirectedLink> = ecube_path(NodeId(s), NodeId(t)).links().collect();
            assert_eq!(route, &expected[..], "{s}->{t}");
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for id in 1..500u64 {
            let a = jitter(1_000_000, 0.05, 42, id);
            let b = jitter(1_000_000, 0.05, 42, id);
            assert_eq!(a, b);
            assert!((950_000..=1_050_000).contains(&a), "{a}");
        }
        // Different seeds give different streams.
        assert_ne!(jitter(1_000_000, 0.05, 1, 7), jitter(1_000_000, 0.05, 2, 7));
    }
}
