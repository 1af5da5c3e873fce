//! The discrete-event simulation engine.
//!
//! Nodes execute their [`Program`](crate::Program)s; the engine
//! interleaves them in simulated time, arbitrating directed-link
//! circuits (edge contention), the NIC send/receive concurrency window,
//! FORCED / UNFORCED delivery semantics and global barriers. Runs are
//! deterministic: events are ordered by `(time, sequence)` and all
//! iteration orders are fixed.
//!
//! # Modules
//!
//! One run is one `Runtime`, split by layer into modules that each own
//! the state only they touch; `crates/simnet/README.md` ("Engine
//! modules") maps each module to its layer and its state.
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
//!   `Send` carries its destination, so a transmission's route is
//!   `(src, mask = src ^ dst)`, expanded onto the stack whenever an
//!   attempt or a release needs it, plus the receiver-side slot it will
//!   deliver into. The event loop then executes ops by reference — no
//!   `op.clone()`, no hash lookups.
//! * **Zero-copy payloads** — in circuit mode the sender blocks for
//!   the whole transmission, so payload bytes stay *in the sender's
//!   memory* until delivery: one copy, straight into the receiver's
//!   posted range. An inbound delivery that would overwrite the
//!   in-flight range materializes the payload first (copy-on-write),
//!   preserving frozen-at-issue semantics exactly. Store-and-forward
//!   sends (the sender is released after hop 0) and early-arriving
//!   UNFORCED buffers copy through pooled buffers instead; background
//!   injections carry their length only.
//! * **Wait-queues** — a transmission that fails to start registers
//!   watchers on the directed links of its segment and on the NIC
//!   state of the affected endpoints. A released link wakes only the
//!   transmissions actually blocked on it, and a NIC interval that
//!   blocks under the concurrency-window rule wakes its node's
//!   watchers when it closes, at its end. The handler that woke them
//!   retries the candidates in global issue order, in passes until none
//!   is left (pinned by the determinism-snapshot suite in `mce-core`).
//! * **Same-instant FIFO** — events scheduled for the instant being
//!   drained (the bulk of the mix) append to a FIFO and never touch a
//!   queue; later events wait in a binary min-heap
//!   ([`CalendarQueue`](crate::CalendarQueue)) keyed by `(time, seq)`,
//!   so pops keep exact `(time, seq)` order (see the [`crate::sched`]
//!   module docs).
//! * **Block moves without `memcpy` calls** — a `Permute` scatters its
//!   blocks through one kernel, `copy_block`: a block of 8..=64 bytes
//!   moves as two fixed-width (8, 16 or 32 bytes), possibly
//!   overlapping copies of its two ends, which compile to plain loads
//!   and stores; other sizes keep `copy_from_slice`. Small-block
//!   exchanges are where multiphase wins, and their shuffles used to be
//!   one libc `memcpy` call per block (29 M of 8 bytes each in a d11,
//!   m = 8 pass of the perf ledger's `bigcube_cold`).

mod arbiter;
mod arena;
mod delivery;
mod driver;
mod flow;
mod node;

pub use arena::SimArena;
pub(crate) use arena::{check_shape, resolve_faults};

use crate::compile::Compiled;
use crate::config::SimConfig;
use crate::link::TransmissionId;
use crate::message::{MsgKind, Tag};
use crate::stats::{JobStats, SimStats};
use crate::time::SimTime;
use crate::trace::{TraceConfig, TraceEvent, TraceSink};
use arbiter::Arbiter;
use arena::Conditioned;
use delivery::Delivery;
use driver::{Bound, Scheduler};
use flow::Flow;
use mce_hypercube::NodeId;
use node::Barriers;

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

/// Longest e-cube path a route can hold: one hop per cube dimension,
/// matching `mce_hypercube::MAX_DIMENSION`.
pub(crate) const MAX_HOPS: usize = mce_hypercube::MAX_DIMENSION as usize;

/// Sentinel for "the receiver never posts this key".
pub(crate) const NO_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Status {
    #[default]
    Ready,
    /// Waiting on the message bound to this slot of the node.
    Waiting(u32),
    InBarrier,
    Sending(TransmissionId),
    Done,
}

#[derive(Debug, Clone, Default)]
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
    /// Re-arm for a new run, keeping the interval allocation.
    fn reset(&mut self) {
        self.pc = 0;
        self.status = Status::Ready;
        self.outgoing = None;
        self.incoming.clear();
        self.finish = SimTime::ZERO;
    }
}

/// Where a transmission's payload bytes are.
#[derive(Debug)]
enum Payload {
    /// Zero-copy: the bytes still live in the *sender's* memory at
    /// this range (circuit mode only — the sender is blocked for the
    /// whole transmission, so only inbound deliveries can touch its
    /// memory, and those materialize the payload first; see
    /// `materialize_overlap`). Saves the issue-side copy entirely —
    /// the single wire-to-memory copy happens at delivery.
    InPlace(u32, u32),
    /// Owned bytes, from the pool.
    Owned(Vec<u8>),
    /// A background injection: a length on the wire, no bytes.
    Len(usize),
}

impl Payload {
    /// Payload size in bytes, wherever the bytes live.
    #[inline]
    fn len(&self) -> usize {
        match *self {
            Payload::InPlace(s, e) => (e - s) as usize,
            Payload::Owned(ref buf) => buf.len(),
            Payload::Len(n) => n,
        }
    }
}

/// One in-flight transmission. Field types are packed (u8 hop index,
/// flag bytes) to keep the struct small: the slab holds one per live
/// send, and every event reads or moves entries, so struct size is
/// slab traffic.
#[derive(Debug)]
struct Transmission {
    payload: Payload,
    src: NodeId,
    dst: NodeId,
    /// XOR mask of the endpoints; the route expands from `(src, mask)`
    /// on demand.
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
}

impl Transmission {
    /// Background-traffic injection (a length-only payload): occupies
    /// links like any circuit but bypasses NIC state, delivery and
    /// algorithm statistics.
    #[inline]
    fn background(&self) -> bool {
        matches!(self.payload, Payload::Len(_))
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

/// Slab of *live* transmissions: completed entries are taken and their
/// slots recycled through `free`, so the slab stays at
/// peak-concurrency size (cache-hot) instead of growing one entry per
/// send of the run. Transmission *ids* stay the monotonic per-run
/// counter — every ordering key and the jitter stream derive from them
/// — and `id_to_slot` maps them to slab slots (so the next id is its
/// length plus one); `slot_ids[slot]` names the id currently occupying
/// a slot, so a stale id (a watcher registration outliving its
/// transmission) is detected instead of aliasing the slot's new tenant.
#[derive(Default)]
struct Slab {
    entries: Vec<Option<Transmission>>,
    slot_ids: Vec<TransmissionId>,
    free: Vec<u32>,
    id_to_slot: Vec<u32>,
}

impl Slab {
    /// The id the next [`Slab::insert`] assigns.
    #[inline]
    fn next_id(&self) -> TransmissionId {
        self.id_to_slot.len() as TransmissionId + 1
    }

    fn insert(&mut self, tr: Transmission) -> TransmissionId {
        let id = self.next_id();
        let slot = match self.free.pop() {
            Some(s) => {
                self.entries[s as usize] = Some(tr);
                s
            }
            None => {
                self.entries.push(Some(tr));
                self.slot_ids.push(0);
                (self.entries.len() - 1) as u32
            }
        };
        self.slot_ids[slot as usize] = id;
        self.id_to_slot.push(slot);
        id
    }

    /// The slab slot of live transmission `id`.
    #[inline]
    fn slot(&self, id: TransmissionId) -> usize {
        let slot = self.id_to_slot[(id - 1) as usize] as usize;
        debug_assert_eq!(self.slot_ids[slot], id, "stale transmission id");
        slot
    }

    #[inline]
    fn get(&self, id: TransmissionId) -> &Transmission {
        self.entries[self.slot(id)].as_ref().expect("unknown transmission")
    }

    #[inline]
    fn get_mut(&mut self, id: TransmissionId) -> &mut Transmission {
        let slot = self.slot(id);
        self.entries[slot].as_mut().expect("unknown transmission")
    }

    /// The transmission of `id` when it is still live (a watcher
    /// registration can outlive its transmission; its slot may since
    /// have been recycled for a different id, or emptied).
    #[inline]
    fn live(&self, id: TransmissionId) -> Option<&Transmission> {
        let slot = *self.id_to_slot.get((id - 1) as usize)? as usize;
        (self.slot_ids[slot] == id).then(|| self.entries[slot].as_ref())?
    }

    /// `id`'s transmission when it is live and still pending under
    /// queue sequence `qseq` — the wait it was registered for.
    #[inline]
    fn pending_as(&self, id: TransmissionId, qseq: u64) -> bool {
        matches!(self.live(id), Some(tr) if tr.pending && tr.qseq == qseq)
    }

    fn take(&mut self, id: TransmissionId) -> Transmission {
        let slot = self.slot(id);
        self.slot_ids[slot] = 0;
        self.free.push(slot as u32);
        self.entries[slot].take().expect("unknown transmission")
    }

    /// Drop every transmission, keeping the allocations.
    fn clear(&mut self) {
        self.entries.clear();
        self.slot_ids.clear();
        self.free.clear();
        self.id_to_slot.clear();
    }
}

/// Every allocation a run recycles: per-node state and each layer's
/// recycled state, moved whole from the arena into a [`Runtime`] and
/// back by [`Runtime::reclaim`]. Each part empties itself on the way
/// back, so a run on a reused arena starts from the state a fresh one
/// would.
#[derive(Default)]
struct Recycled {
    nodes: Vec<NodeState>,
    slab: Slab,
    arb: Arbiter,
    del: Delivery,
    sched: Scheduler,
}

/// One run, split by layer: each layer's state is its own struct,
/// owned by the module that touches it.
struct Runtime<'c> {
    cfg: &'c SimConfig,
    nodes: Vec<NodeState>,
    memories: Vec<Vec<u8>>,
    slab: Slab,
    arb: Arbiter,
    del: Delivery,
    sched: Scheduler,
    /// Conditioned-network state (`None` on unconditioned runs).
    conditioned: Option<Conditioned>,
    barriers: Barriers,
    flow: Flow,
    bound: Bound,
    /// Physical-node mask: context `c` of a multi-job run acts for
    /// node `c & node_mask` (always `num_nodes - 1`; on single-tenant
    /// runs contexts *are* nodes and the mask is the identity).
    node_mask: u32,
    /// Tenant jobs sharing the cube (1 on single-tenant runs).
    num_jobs: usize,
    stats: SimStats,
    /// Structured trace sink; `None` (the default) keeps the traced
    /// paths down to one pointer test per emission site, so a
    /// trace-off run is bit-identical to a build without the sink.
    sink: Option<Box<TraceSink>>,
    /// First typed error raised outside an event handler's return path
    /// (a retry budget exhausted inside the pending scan); checked
    /// after every drained event.
    fatal: Option<SimError>,
}

impl<'c> Runtime<'c> {
    /// Assemble a runtime from recycled state, which every previous
    /// run left empty; nodes, slot tables and the link table are
    /// re-laid here, so a run observes exactly the state a
    /// freshly-allocated runtime would. `shard` names a window
    /// runtime's nodes (see `driver`).
    fn new(
        cfg: &'c SimConfig,
        compiled: &Compiled,
        memories: Vec<Vec<u8>>,
        trace: Option<&TraceConfig>,
        recycled: Recycled,
        shard: Option<&[u32]>,
    ) -> Self {
        let Recycled { mut nodes, mut slab, mut arb, mut del, sched } = recycled;
        let programs = &compiled.programs;
        let n = programs.len();
        // A shard-window runtime skips the per-node reset: the driver
        // overwrites the shard's own nodes from the master right after
        // construction and never touches foreign entries, so stale
        // state from the previous window is fine.
        if shard.is_none() {
            nodes.truncate(n);
            nodes.iter_mut().for_each(NodeState::reset);
        }
        nodes.resize_with(n, NodeState::default);
        del.lay_out(programs, shard);
        slab.id_to_slot.reserve(compiled.total_sends);
        let phys_n = cfg.num_nodes();
        arb.lay_out(cfg);
        let num_jobs = cfg.num_jobs();
        // Per-job statistics live on the master runtime only.
        let jobs = cfg.jobs.iter().enumerate().filter(|_| shard.is_none());
        let jobs = jobs.map(|(j, spec)| JobStats {
            job: j as u32,
            start_ns: spec.start_ns,
            ..JobStats::default()
        });
        let stats = SimStats { jobs: jobs.collect(), ..SimStats::default() };
        Runtime {
            cfg,
            nodes,
            memories,
            slab,
            arb,
            del,
            sched,
            conditioned: None,
            barriers: Barriers {
                entered: vec![0; num_jobs],
                target: phys_n as u64,
                hold: false,
                held_release: None,
                last_entry: SimTime::ZERO,
            },
            flow: Flow::new(cfg, n),
            bound: Bound::default(),
            node_mask: phys_n as u32 - 1,
            num_jobs,
            stats,
            sink: trace.map(|tc| Box::new(TraceSink::new(tc, n))),
            fatal: None,
        }
    }

    /// Hand every recycled allocation back, each part emptied of
    /// run-specific contents (stale wait-queue registrations and
    /// unfinished transmissions from error runs must not leak into the
    /// next run).
    fn reclaim(self) -> Recycled {
        let Runtime { nodes, mut slab, mut arb, mut del, mut sched, .. } = self;
        slab.clear();
        arb.clear();
        del.clear();
        sched.reset();
        Recycled { nodes, slab, arb, del, sched }
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

    /// The contexts of tenant job `job`.
    #[inline]
    fn job_contexts(&self, job: usize) -> std::ops::Range<usize> {
        let per_job = (self.node_mask + 1) as usize;
        job * per_job..(job + 1) * per_job
    }
}

#[cfg(test)]
mod tests {
    use super::arbiter::{jitter, Route};
    use super::delivery::{apply_block_permutation, apply_block_permutation_reference};
    use super::*;
    use mce_hypercube::routing::{ecube_path, DirectedLink};

    #[test]
    fn a_payload_is_no_larger_than_the_two_fields_it_replaced() {
        let two_fields = std::mem::size_of::<Vec<u8>>() + std::mem::size_of::<Option<(u32, u32)>>();
        assert!(std::mem::size_of::<Payload>() <= two_fields);
    }

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
            let route = Route::ecube(NodeId(s), s ^ t);
            let expected: Vec<DirectedLink> = ecube_path(NodeId(s), NodeId(t)).links().collect();
            assert_eq!(&route[..], &expected[..], "{s}->{t}");
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
