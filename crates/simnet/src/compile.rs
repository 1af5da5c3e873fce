//! The program → engine compile pipeline.
//!
//! Before a run, every node's [`Op`] list is lowered into the flat
//! `Compiled` tables the event loop executes: `(src, tag)` message
//! keys become dense per-node slot indices, memory ranges become `u32`
//! bounds, shuffle permutations become indices into one shared side
//! table, and every `Send` carries the receiver-side slot it will
//! deliver into. The same walk performs static validation (mirroring
//! [`Program::validate`]'s checks and error strings), so a bad program
//! surfaces as a typed [`SimError`] before any simulated time elapses.
//!
//! # Pipeline structure
//!
//! Cold compiles at d11–d12 (2048–4096 node programs, millions of ops)
//! are startup-critical for every large-cube surface, so the pass is a
//! parallel two-stage pipeline over per-node buffers instead of one
//! sequential walk:
//!
//! 0. **Permutation prescan** (sequential, cheap): deduplicate the
//!    `Arc`-shared shuffle permutations by pointer identity in
//!    first-reference order and validate each distinct one's content
//!    exactly once. Ops then store a `u32` index into the resulting
//!    side table (`Compiled::perms`), keeping `CompiledOp` `Copy`
//!    and 32 bytes.
//! 1. **Chunked lowering** (rayon-parallel): the node range is split
//!    into one contiguous chunk per worker, and each chunk lowers its
//!    nodes into *shared chunk arenas* — one exact-capacity op buffer,
//!    one pooled slot-key/val table, and parallel send-fixup arrays
//!    for the whole chunk — instead of thousands of per-node `Vec`s.
//!    Slot tables are sorted key arrays (binary-searched by
//!    `slot_get`); each node's own `PostRecv`s additionally get a
//!    post-ordinal → slot array so lowering them never searches.
//! 2. **Concatenation**: a prefix-sum over the chunk buffer lengths
//!    builds the flat `ops`/`segs` allocations in node-index order —
//!    bit-identical to the sequential walk's layout by construction.
//!    With a single worker (chunk) the buffers are *moved*, not
//!    copied: on the 1-CPU bench container this stage is free.
//! 3. **Receiver-slot fixup**, two-phase: the deferred send keys are
//!    counting-sorted by destination (`O(sends + nodes)`) and resolved
//!    one hot destination slot table at a time; the resulting slots
//!    are then written back in *walk order*, so the pass over the
//!    multi-MB flat op table is a streaming ascending-index write
//!    rather than a random scatter.
//!
//! # Determinism and error selection
//!
//! The retained sequential reference (`compile_reference`, the old
//! single-walk implementation) reports the *first* error in node-major,
//! op-minor, check order. The parallel pipeline reproduces that choice
//! exactly: every node reports its own earliest error, the prescan
//! reports the first content-invalid permutation (attributed to the op
//! that first referenced it), and the pipeline returns the candidate
//! with the lowest `(node, rank)` — where a node's memory-size
//! pre-check ranks before its op 0, and an op's in-walk checks rank
//! before the prescan's content check of a permutation first seen at
//! that op. The differential proptest in this module and the
//! builder-program suite in `tests/compile_pipeline.rs` pin the
//! pipeline bit-identical to the reference on outputs *and* errors.
//!
//! # Process-wide shared compile cache
//!
//! `SimBatch` runs one [`crate::SimArena`] per worker, and every worker
//! used to compile a shared program set once per *arena*. The shared
//! cache (`shared_compiled_for`) makes it once per *process*: a
//! sharded `Mutex` map keyed on program-set `Arc` identity + memory
//! lengths, holding the `Arc<Vec<Program>>` alive so pointer identity
//! cannot be recycled while an entry lives. A miss compiles **under
//! the shard lock**, so concurrent workers asking for the same set
//! block and then hit — each distinct set is compiled exactly once
//! (pinned via the [`crate::SimStats`] compile telemetry). Entries
//! evict least-recently-stamped per shard; compile *errors* are never
//! cached. The per-arena cache in front of it is a lock-free memo, so
//! steady-state sweeps never touch the lock.

use crate::engine::{SimError, MAX_HOPS, NO_SLOT};
use crate::fxhash::FxHashMap;
use crate::message::{MsgKind, Tag};
use crate::program::{Op, Program};
use mce_hypercube::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A [`Program`] op with every per-event lookup resolved up front.
/// Memory ranges are stored as `u32` bounds (node memories are far
/// below 4 GiB) and permutations as indices into [`Compiled::perms`]
/// to keep the op `Copy` at 32 bytes — the compile pass writes and the
/// event loop reads millions of these per run at d11–d12, so op size
/// is directly memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CompiledOp {
    PostRecv { slot: u32, start: u32, end: u32, tag: Tag },
    Send { dst: NodeId, start: u32, end: u32, dst_slot: u32, tag: Tag, kind: MsgKind },
    WaitRecv { slot: u32, src: NodeId, tag: Tag },
    Permute { perm_idx: u32, block_bytes: u32 },
    Barrier,
    Compute { ns: u64 },
    Mark { label: u32 },
}

/// One node's compiled program: its op range in the flat shared op
/// table ([`Compiled::ops`]), its message-slot count, and its segment
/// range in the flat segment table ([`Compiled::segs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompiledProgram {
    pub(crate) ops_start: u32,
    pub(crate) ops_end: u32,
    pub(crate) num_slots: u32,
    pub(crate) segs_start: u32,
    pub(crate) segs_end: u32,
}

impl CompiledProgram {
    #[inline]
    pub(crate) fn ops<'a>(&self, flat: &'a [CompiledOp]) -> &'a [CompiledOp] {
        &flat[self.ops_start as usize..self.ops_end as usize]
    }
}

/// Everything the compile pass produces for one run.
#[derive(Debug)]
pub(crate) struct Compiled {
    pub(crate) programs: Vec<CompiledProgram>,
    /// All nodes' compiled ops in one flat allocation, indexed by the
    /// per-program ranges (one allocation instead of one per node).
    pub(crate) ops: Vec<CompiledOp>,
    /// Total `Send` ops across all nodes (capacity hint).
    pub(crate) total_sends: usize,
    /// All nodes' barrier-delimited op segments in one flat
    /// allocation, indexed by the per-program ranges: `(first_pc,
    /// union of send masks src^dst in the segment)`. The sharded
    /// driver folds these per phase to pick a shard axis that no send
    /// crosses, instead of re-walking every op at every barrier.
    pub(crate) segs: Vec<(u32, u32)>,
    /// Distinct shuffle permutations, deduplicated by `Arc` identity
    /// in first-reference order; `CompiledOp::Permute` stores indices
    /// into this table.
    pub(crate) perms: Vec<Arc<Vec<u32>>>,
}

/// Pack a `(src, tag)` message key into one flat word (`src` in bits
/// 64..96, the tag below).
#[inline]
fn pack_key(src: NodeId, tag: Tag) -> u128 {
    ((src.0 as u128) << 64) | tag.0 as u128
}

/// Compiled `block_bytes` is `u32`: a non-empty permutation's span is
/// bounded by the (< 4 GiB) memory check, and an empty permutation's
/// block size is never read by the run loop, so clamping is lossless
/// either way.
#[inline]
fn clamp_block(block_bytes: usize) -> u32 {
    block_bytes.min(u32::MAX as usize) as u32
}

/// Binary-search a node's sorted slot table (`keys` parallel to
/// `vals`) — the compiled replacement of the old per-node hash map.
/// A node's table is a pair of contiguous sub-slices of its chunk's
/// arena (~3 KB at d11), L1-resident while the fixup pass resolves a
/// destination's group; per-node hash maps alone cost tens of
/// megabytes of touched pages before the run even starts.
#[inline]
fn slot_get(keys: &[u128], vals: &[u32], key: u128) -> u32 {
    match keys.binary_search(&key) {
        Ok(i) => vals[i],
        Err(_) => NO_SLOT,
    }
}

/// Per-worker scratch reused across a chunk's nodes (allocated once
/// per worker, not once per node).
#[derive(Default)]
struct LowerScratch {
    /// Packed `(key << 32) | post_ordinal` words (keys use 96 bits),
    /// sorted to group duplicate keys with the earliest ordinal first.
    packed: Vec<u128>,
    /// First post ordinal per distinct key, parallel to the node's
    /// slice of [`ChunkLowered::slot_keys`].
    first_seq: Vec<u32>,
    /// Argsort scratch for first-post ranking.
    order: Vec<u32>,
    /// Slot id per post ordinal (a duplicate post maps to its key's
    /// slot, where the walk's posted-bit check rejects it — exactly
    /// the old hash-map behaviour).
    post_slots: Vec<u32>,
    /// Duplicate-post detection bits, one per slot.
    posted_bits: Vec<u64>,
}

/// One worker's contiguous node range, lowered into chunk-level
/// buffers. Buffers are chunk-granular rather than per-node so the
/// whole stage performs a handful of allocations — and the
/// single-worker case hands its exact-capacity op/seg buffers straight
/// to [`Compiled`] with no concatenation copy at all.
struct ChunkLowered {
    /// First node index covered by this chunk.
    first_node: u32,
    /// Compiled ops for the chunk's nodes in node-index order
    /// (chunk-relative indexing until stage 2 offsets them).
    ops: Vec<CompiledOp>,
    /// Barrier-delimited segments, chunk-relative.
    segs: Vec<(u32, u32)>,
    /// Per-node compiled programs with chunk-relative ranges.
    programs: Vec<CompiledProgram>,
    /// Deferred receiver-slot fixups as parallel arrays in walk
    /// (ascending chunk-relative op) order: destination node,
    /// chunk-relative op index, and the packed `(src, tag)` key to
    /// resolve in the destination's slot table.
    sends_dst: Vec<u32>,
    sends_idx: Vec<u32>,
    sends_key: Vec<u128>,
    /// Concatenated per-node sorted slot tables; `slot_ranges` slices
    /// them per node.
    slot_keys: Vec<u128>,
    slot_vals: Vec<u32>,
    slot_ranges: Vec<(u32, u32)>,
    /// Earliest `(node, rank, error)` in the chunk. Nodes after the
    /// first failing one are skipped: their node indices are strictly
    /// higher, so they can never win global error selection.
    err: Option<(u32, i64, SimError)>,
}

fn lower_chunk(
    first_node: u32,
    count: u32,
    programs: &[Program],
    memories: &[Vec<u8>],
    perm_ids: &FxHashMap<usize, u32>,
    scratch: &mut LowerScratch,
) -> ChunkLowered {
    let nodes = first_node as usize..(first_node + count) as usize;
    let ops_cap: usize = programs[nodes.clone()].iter().map(|p| p.ops.len()).sum();
    let mut chunk = ChunkLowered {
        first_node,
        ops: Vec::with_capacity(ops_cap),
        segs: Vec::new(),
        programs: Vec::with_capacity(count as usize),
        sends_dst: Vec::new(),
        sends_idx: Vec::new(),
        sends_key: Vec::new(),
        slot_keys: Vec::new(),
        slot_vals: Vec::new(),
        slot_ranges: Vec::with_capacity(count as usize),
        err: None,
    };
    for x in nodes {
        lower_node(x, &programs[x], memories[x].len(), perm_ids, scratch, &mut chunk);
        if chunk.err.is_some() {
            break;
        }
    }
    chunk
}

/// Stage 0 output: the distinct shuffle permutations of a program set,
/// deduplicated by `Arc` pointer identity in first-reference
/// (node-major, op-minor) order, plus the first content-invalid one.
struct PermScan {
    ids: FxHashMap<usize, u32>,
    perms: Vec<Arc<Vec<u32>>>,
    /// First content-invalid permutation, attributed to the `(node,
    /// op)` that first referenced it.
    invalid: Option<(u32, u32, SimError)>,
}

fn is_permutation(perm: &[u32], seen: &mut Vec<bool>) -> bool {
    seen.clear();
    seen.resize(perm.len(), false);
    for &p in perm {
        if p as usize >= perm.len() || seen[p as usize] {
            return false;
        }
        seen[p as usize] = true;
    }
    true
}

fn scan_perms(programs: &[Program]) -> PermScan {
    let mut scan = PermScan { ids: Default::default(), perms: Vec::new(), invalid: None };
    let mut seen: Vec<bool> = Vec::new();
    for (x, program) in programs.iter().enumerate() {
        for (i, op) in program.ops.iter().enumerate() {
            if let Op::Permute { perm, .. } = op {
                let ptr = Arc::as_ptr(perm) as usize;
                if scan.ids.contains_key(&ptr) {
                    continue;
                }
                scan.ids.insert(ptr, scan.perms.len() as u32);
                scan.perms.push(Arc::clone(perm));
                if scan.invalid.is_none() && !is_permutation(perm, &mut seen) {
                    scan.invalid = Some((
                        x as u32,
                        i as u32,
                        SimError::InvalidProgram {
                            node: NodeId(x as u32),
                            reason: format!("op {i}: perm is not a permutation"),
                        },
                    ));
                }
            }
        }
    }
    scan
}

/// Error-selection ranks within one node: the memory-size pre-check
/// runs before op 0, and each op's in-walk checks (range, duplicate
/// post, self-send, hop limit, permute size) run before the prescan's
/// content check of a permutation first referenced at that op —
/// mirroring the check order of the fused sequential walk.
const PRE_WALK_RANK: i64 = -1;
#[inline]
fn walk_rank(op: usize) -> i64 {
    op as i64 * 2
}
#[inline]
fn content_rank(op: usize) -> i64 {
    op as i64 * 2 + 1
}

/// Lower one node into its chunk's buffers: build the slot table,
/// walk-validate the ops (mirroring the reference's checks, strings,
/// and check order), emit compiled ops, and defer receiver-slot
/// fixups. On error the node's earliest `(rank, error)` is recorded in
/// `chunk.err` and the chunk stops.
fn lower_node(
    x: usize,
    program: &Program,
    memory_len: usize,
    perm_ids: &FxHashMap<usize, u32>,
    scratch: &mut LowerScratch,
    chunk: &mut ChunkLowered,
) {
    let invalid = |i: usize, msg: String| SimError::InvalidProgram {
        node: NodeId(x as u32),
        reason: format!("op {i}: {msg}"),
    };
    let fail = |chunk: &mut ChunkLowered, rank: i64, e: SimError| {
        chunk.err = Some((x as u32, rank, e));
    };
    // Compiled ops store memory ranges as u32 bounds.
    if memory_len > u32::MAX as usize {
        fail(
            chunk,
            PRE_WALK_RANK,
            SimError::InvalidProgram {
                node: NodeId(x as u32),
                reason: format!("memory of {memory_len} bytes exceeds 4 GiB"),
            },
        );
        return;
    }
    // Slot table: pack each posted key with its post ordinal ((key <<
    // 32) | seq fits: keys use 96 bits) and sort, grouping duplicate
    // keys with the earliest ordinal first. Slot id = rank of the
    // key's first post among all first posts, reproducing the old hash
    // map's insertion-order ids. `post_slots` additionally maps every
    // post ordinal straight to its slot, so the walk below never
    // searches for its own posts.
    let (ops_start, segs_start) = (chunk.ops.len() as u32, chunk.segs.len() as u32);
    let key_start = chunk.slot_keys.len();
    scratch.packed.clear();
    for op in &program.ops {
        if let Op::PostRecv { src, tag, .. } = op {
            scratch.packed.push((pack_key(*src, *tag) << 32) | scratch.packed.len() as u128);
        }
    }
    scratch.packed.sort_unstable();
    scratch.first_seq.clear();
    for &p in &scratch.packed {
        let key = p >> 32;
        if chunk.slot_keys.len() == key_start || *chunk.slot_keys.last().unwrap() != key {
            chunk.slot_keys.push(key);
            scratch.first_seq.push(p as u32);
        }
    }
    let nkeys = chunk.slot_keys.len() - key_start;
    scratch.order.clear();
    scratch.order.extend(0..nkeys as u32);
    scratch.order.sort_unstable_by_key(|&j| scratch.first_seq[j as usize]);
    chunk.slot_vals.resize(key_start + nkeys, 0);
    for (rank, &j) in scratch.order.iter().enumerate() {
        chunk.slot_vals[key_start + j as usize] = rank as u32;
    }
    scratch.post_slots.clear();
    scratch.post_slots.resize(scratch.packed.len(), 0);
    let mut ki = 0usize;
    for &p in &scratch.packed {
        // Both lists are sorted, so the distinct-key cursor only moves
        // forward.
        while chunk.slot_keys[key_start + ki] != p >> 32 {
            ki += 1;
        }
        scratch.post_slots[(p as u32) as usize] = chunk.slot_vals[key_start + ki];
    }
    chunk.slot_ranges.push((key_start as u32, chunk.slot_keys.len() as u32));
    scratch.posted_bits.clear();
    scratch.posted_bits.resize(nkeys.div_ceil(64), 0);
    let key_end = chunk.slot_keys.len();
    let mut post_ordinal = 0usize;
    let (mut seg_pc, mut seg_mask) = (0u32, 0u32);
    for (i, op) in program.ops.iter().enumerate() {
        match op {
            Op::Send { dst, .. } => seg_mask |= x as u32 ^ dst.0,
            Op::Barrier => {
                chunk.segs.push((seg_pc, seg_mask));
                (seg_pc, seg_mask) = (i as u32 + 1, 0);
            }
            _ => {}
        }
        let cop = match op {
            Op::PostRecv { src, tag, into } => {
                if into.end > memory_len {
                    fail(
                        chunk,
                        walk_rank(i),
                        invalid(i, format!("recv range {into:?} exceeds memory {memory_len}")),
                    );
                    return;
                }
                let slot = scratch.post_slots[post_ordinal];
                post_ordinal += 1;
                let (word, bit) = (slot as usize / 64, 1u64 << (slot % 64));
                if scratch.posted_bits[word] & bit != 0 {
                    fail(
                        chunk,
                        walk_rank(i),
                        invalid(i, format!("duplicate post for ({src}, {tag})")),
                    );
                    return;
                }
                scratch.posted_bits[word] |= bit;
                CompiledOp::PostRecv {
                    slot,
                    start: into.start as u32,
                    end: into.end as u32,
                    tag: *tag,
                }
            }
            Op::Send { dst, from, tag, kind } => {
                if dst.index() == x {
                    fail(chunk, walk_rank(i), SimError::SelfSend { node: NodeId(x as u32), op: i });
                    return;
                }
                if from.end > memory_len {
                    fail(
                        chunk,
                        walk_rank(i),
                        invalid(i, format!("send range {from:?} exceeds memory {memory_len}")),
                    );
                    return;
                }
                let mask = x as u32 ^ dst.0;
                if mask.count_ones() as usize > MAX_HOPS {
                    fail(
                        chunk,
                        walk_rank(i),
                        invalid(i, format!("send to {dst}: path exceeds {MAX_HOPS} hops")),
                    );
                    return;
                }
                chunk.sends_dst.push(dst.0);
                chunk.sends_idx.push(chunk.ops.len() as u32);
                chunk.sends_key.push(pack_key(NodeId(x as u32), *tag));
                CompiledOp::Send {
                    dst: *dst,
                    start: from.start as u32,
                    end: from.end as u32,
                    dst_slot: NO_SLOT, // resolved by the fixup pass
                    tag: *tag,
                    kind: *kind,
                }
            }
            Op::WaitRecv { src, tag } => {
                let slot = slot_get(
                    &chunk.slot_keys[key_start..key_end],
                    &chunk.slot_vals[key_start..key_end],
                    pack_key(*src, *tag),
                );
                let posted = slot != NO_SLOT
                    && scratch.posted_bits[slot as usize / 64] & (1u64 << (slot % 64)) != 0;
                if !posted {
                    fail(
                        chunk,
                        walk_rank(i),
                        invalid(i, format!("WaitRecv ({src}, {tag}) never posted")),
                    );
                    return;
                }
                CompiledOp::WaitRecv { slot, src: *src, tag: *tag }
            }
            Op::Permute { perm, block_bytes } => {
                let n = perm.len();
                if n * block_bytes > memory_len {
                    fail(
                        chunk,
                        walk_rank(i),
                        invalid(
                            i,
                            format!(
                                "permute covers {} bytes > memory {memory_len}",
                                n * block_bytes
                            ),
                        ),
                    );
                    return;
                }
                // Content was validated once per distinct Arc by the
                // prescan; here the pointer just resolves to its index.
                let perm_idx = perm_ids[&(Arc::as_ptr(perm) as usize)];
                CompiledOp::Permute { perm_idx, block_bytes: clamp_block(*block_bytes) }
            }
            Op::Barrier => CompiledOp::Barrier,
            Op::Compute { ns } => CompiledOp::Compute { ns: *ns },
            Op::Mark { label } => CompiledOp::Mark { label: *label },
        };
        chunk.ops.push(cop);
    }
    chunk.segs.push((seg_pc, seg_mask));
    chunk.programs.push(CompiledProgram {
        ops_start,
        ops_end: chunk.ops.len() as u32,
        num_slots: nkeys as u32,
        segs_start,
        segs_end: chunk.segs.len() as u32,
    });
}

/// Below this many total ops the pipeline's per-node machinery (chunk
/// arenas, packed-key sorts, the two-phase fixup) costs more than the
/// plain sequential walk it replaces — measured crossover on the bench
/// container: d5–d6 sets (~6 k ops) lose up to 2× warm, the d7 set
/// (~18 k ops) already wins. Output is bit-identical either way, so
/// this is purely a strategy pick.
const PIPELINE_MIN_OPS: usize = 8192;

/// Compile and validate a program set. Small sets take the sequential
/// walk ([`compile_reference`]'s algorithm); at scale — where cold
/// compiles actually hurt — the parallel two-stage pipeline
/// ([`compile_pipeline`], see the module docs) takes over. Both
/// produce bit-identical output, including which error is reported
/// when several programs are invalid (pinned by the differential
/// proptest, which drives the pipeline directly).
pub(crate) fn compile(programs: &[Program], memories: &[Vec<u8>]) -> Result<Compiled, SimError> {
    let total_ops: usize = programs.iter().map(|p| p.ops.len()).sum();
    if total_ops < PIPELINE_MIN_OPS {
        compile_reference(programs, memories)
    } else {
        compile_pipeline(programs, memories)
    }
}

/// The parallel two-stage compile pipeline (see the module docs).
pub(crate) fn compile_pipeline(
    programs: &[Program],
    memories: &[Vec<u8>],
) -> Result<Compiled, SimError> {
    debug_assert_eq!(programs.len(), memories.len());
    // Stage 0: permutation dedup + one content validation per distinct
    // Arc (sequential; distinct permutations are few).
    let scan = scan_perms(programs);
    // Stage 1: per-node lowering over contiguous node chunks, one
    // chunk per worker, with per-worker scratch. On the single-CPU
    // bench container this is one chunk lowered inline with zero
    // thread overhead — and zero concatenation copy below.
    let n = programs.len();
    let cores = rayon::current_num_threads();
    let per = n.div_ceil(cores.min(n).max(1)).max(1);
    let descs: Vec<(u32, u32)> =
        (0..n).step_by(per).map(|first| (first as u32, (n - first).min(per) as u32)).collect();
    let mut chunks: Vec<ChunkLowered> = rayon::parallel_map_init(
        descs,
        LowerScratch::default,
        |scratch: &mut LowerScratch, (first, count): (u32, u32)| {
            lower_chunk(first, count, programs, memories, &scan.ids, scratch)
        },
    );
    // Deterministic error selection: lowest (node, rank) wins, which
    // is exactly the first error the sequential reference encounters.
    let mut err: Option<(u32, i64, SimError)> =
        scan.invalid.map(|(node, op, e)| (node, content_rank(op as usize), e));
    for ch in &mut chunks {
        if let Some((node, rank, e)) = ch.err.take() {
            if err.as_ref().is_none_or(|(bn, br, _)| (node, rank) < (*bn, *br)) {
                err = Some((node, rank, e));
            }
        }
    }
    if let Some((_, _, e)) = err {
        return Err(e);
    }
    // Stage 2: assemble the flat tables. A single worker hands over
    // its exact-capacity buffers without copying a byte (the chunk
    // buffers ARE the flat tables); multiple workers pay one
    // prefix-sum concatenation (straight memcpys of Copy ops,
    // node-index order either way).
    let mut flat_ops: Vec<CompiledOp>;
    let mut flat_segs: Vec<(u32, u32)>;
    let compiled: Vec<CompiledProgram>;
    let mut op_offsets: Vec<u32> = Vec::with_capacity(chunks.len());
    if chunks.len() == 1 {
        let ch = &mut chunks[0];
        flat_ops = std::mem::take(&mut ch.ops);
        flat_segs = std::mem::take(&mut ch.segs);
        compiled = std::mem::take(&mut ch.programs);
        op_offsets.push(0);
    } else {
        flat_ops = Vec::with_capacity(chunks.iter().map(|c| c.ops.len()).sum());
        flat_segs = Vec::with_capacity(chunks.iter().map(|c| c.segs.len()).sum());
        let mut out = Vec::with_capacity(n);
        for ch in &chunks {
            let (op_off, seg_off) = (flat_ops.len() as u32, flat_segs.len() as u32);
            op_offsets.push(op_off);
            flat_ops.extend_from_slice(&ch.ops);
            flat_segs.extend_from_slice(&ch.segs);
            for p in &ch.programs {
                out.push(CompiledProgram {
                    ops_start: p.ops_start + op_off,
                    ops_end: p.ops_end + op_off,
                    num_slots: p.num_slots,
                    segs_start: p.segs_start + seg_off,
                    segs_end: p.segs_end + seg_off,
                });
            }
        }
        compiled = out;
    }
    // Stage 3: receiver-slot fixup. A `Send`'s receiver slot lives in
    // the *destination's* table; resolving inline would random-walk
    // between the nodes' tables in program order. Counting-sort the
    // deferred keys by destination (O(sends + nodes)) and resolve each
    // group against one hot table — then write the results back in
    // walk order, so the final pass *streams* the flat op table in
    // ascending index order instead of scattering cache misses across
    // it (at d11 the table is tens of megabytes; scattered writes were
    // most of the fixup cost).
    let mut starts = vec![0u32; n + 1];
    for ch in &chunks {
        for &d in &ch.sends_dst {
            starts[d as usize + 1] += 1;
        }
    }
    for i in 1..=n {
        starts[i] += starts[i - 1];
    }
    let total_sends = starts[n] as usize;
    let mut ord_key = vec![0u128; total_sends];
    // Where each walk-order record landed in destination-grouped order.
    let mut walk_to_ord = vec![0u32; total_sends];
    let mut cursor = starts.clone();
    let mut w = 0usize;
    for ch in &chunks {
        for (i, &d) in ch.sends_dst.iter().enumerate() {
            let pos = cursor[d as usize];
            cursor[d as usize] = pos + 1;
            ord_key[pos as usize] = ch.sends_key[i];
            walk_to_ord[w] = pos;
            w += 1;
        }
    }
    let mut results = vec![NO_SLOT; total_sends];
    for dst in 0..n {
        let ch = &chunks[dst / per];
        let (ks, ke) = ch.slot_ranges[dst - ch.first_node as usize];
        let keys = &ch.slot_keys[ks as usize..ke as usize];
        let vals = &ch.slot_vals[ks as usize..ke as usize];
        for pos in starts[dst]..starts[dst + 1] {
            results[pos as usize] = slot_get(keys, vals, ord_key[pos as usize]);
        }
    }
    // An unresolved key writes NO_SLOT over the placeholder — the same
    // bytes the reference leaves in place.
    let mut w = 0usize;
    for (ci, ch) in chunks.iter().enumerate() {
        let off = op_offsets[ci];
        for &rel in &ch.sends_idx {
            let slot = results[walk_to_ord[w] as usize];
            w += 1;
            if let CompiledOp::Send { dst_slot, .. } = &mut flat_ops[(off + rel) as usize] {
                *dst_slot = slot;
            }
        }
    }
    Ok(Compiled {
        programs: compiled,
        ops: flat_ops,
        total_sends,
        segs: flat_segs,
        perms: scan.perms,
    })
}

/// Map each node's posted `(src, tag)` keys to dense slot ids in
/// first-post order, as a hash map (reference implementation only; the
/// pipeline uses [`NodeSlots`]).
fn slot_map(program: &Program) -> FxHashMap<u128, u32> {
    let mut map: FxHashMap<u128, u32> = Default::default();
    map.reserve(program.ops.len() / 2);
    for op in &program.ops {
        if let Op::PostRecv { src, tag, .. } = op {
            let next = map.len() as u32;
            map.entry(pack_key(*src, *tag)).or_insert(next);
        }
    }
    map
}

/// The retained sequential reference compiler: the pre-pipeline
/// single-walk implementation, kept verbatim (hash slot maps, fused
/// validation, inline error returns) so the differential suites can
/// pin the parallel pipeline bit-identical to it. It is also the
/// production path for small sets (see [`PIPELINE_MIN_OPS`]).
pub(crate) fn compile_reference(
    programs: &[Program],
    memories: &[Vec<u8>],
) -> Result<Compiled, SimError> {
    let keys: Vec<FxHashMap<u128, u32>> = programs.iter().map(slot_map).collect();
    let slot_of =
        |node: usize, key: u128| -> u32 { keys[node].get(&key).copied().unwrap_or(NO_SLOT) };
    // Entries are `(dst, src, op_idx, tag)`.
    let mut send_fixes: Vec<(u32, u32, u32, Tag)> = Vec::new();
    // Shuffle permutations are shared (`Arc`) across nodes: validate
    // each distinct one once, in first-sight order — the same id
    // assignment as the pipeline's prescan.
    let mut perm_ids: FxHashMap<usize, u32> = Default::default();
    let mut perms: Vec<Arc<Vec<u32>>> = Vec::new();
    let mut total_sends = 0usize;
    let mut compiled = Vec::with_capacity(programs.len());
    let mut flat_ops: Vec<CompiledOp> =
        Vec::with_capacity(programs.iter().map(|p| p.ops.len()).sum());
    let mut flat_segs: Vec<(u32, u32)> = Vec::new();
    let mut posted_bits: Vec<u64> = Vec::new();
    for (x, program) in programs.iter().enumerate() {
        let memory_len = memories[x].len();
        let invalid = |i: usize, msg: String| SimError::InvalidProgram {
            node: NodeId(x as u32),
            reason: format!("op {i}: {msg}"),
        };
        if memory_len > u32::MAX as usize {
            return Err(SimError::InvalidProgram {
                node: NodeId(x as u32),
                reason: format!("memory of {memory_len} bytes exceeds 4 GiB"),
            });
        }
        posted_bits.clear();
        posted_bits.resize(keys[x].len().div_ceil(64), 0);
        let ops_start = flat_ops.len() as u32;
        let segs_start = flat_segs.len() as u32;
        let (mut seg_pc, mut seg_mask) = (0u32, 0u32);
        for (i, op) in program.ops.iter().enumerate() {
            match op {
                Op::Send { dst, .. } => seg_mask |= x as u32 ^ dst.0,
                Op::Barrier => {
                    flat_segs.push((seg_pc, seg_mask));
                    (seg_pc, seg_mask) = (i as u32 + 1, 0);
                }
                _ => {}
            }
            let cop = match op {
                Op::PostRecv { src, tag, into } => {
                    if into.end > memory_len {
                        return Err(invalid(
                            i,
                            format!("recv range {into:?} exceeds memory {memory_len}"),
                        ));
                    }
                    let slot = slot_of(x, pack_key(*src, *tag));
                    let (word, bit) = (slot as usize / 64, 1u64 << (slot % 64));
                    if posted_bits[word] & bit != 0 {
                        return Err(invalid(i, format!("duplicate post for ({src}, {tag})")));
                    }
                    posted_bits[word] |= bit;
                    CompiledOp::PostRecv {
                        slot,
                        start: into.start as u32,
                        end: into.end as u32,
                        tag: *tag,
                    }
                }
                Op::Send { dst, from, tag, kind } => {
                    if dst.index() == x {
                        return Err(SimError::SelfSend { node: NodeId(x as u32), op: i });
                    }
                    if from.end > memory_len {
                        return Err(invalid(
                            i,
                            format!("send range {from:?} exceeds memory {memory_len}"),
                        ));
                    }
                    let mask = x as u32 ^ dst.0;
                    if mask.count_ones() as usize > MAX_HOPS {
                        return Err(invalid(
                            i,
                            format!("send to {dst}: path exceeds {MAX_HOPS} hops"),
                        ));
                    }
                    total_sends += 1;
                    send_fixes.push((dst.0, x as u32, i as u32, *tag));
                    CompiledOp::Send {
                        dst: *dst,
                        start: from.start as u32,
                        end: from.end as u32,
                        dst_slot: NO_SLOT, // resolved by the fixup pass
                        tag: *tag,
                        kind: *kind,
                    }
                }
                Op::WaitRecv { src, tag } => {
                    let slot = slot_of(x, pack_key(*src, *tag));
                    let posted = slot != NO_SLOT
                        && posted_bits[slot as usize / 64] & (1u64 << (slot % 64)) != 0;
                    if !posted {
                        return Err(invalid(i, format!("WaitRecv ({src}, {tag}) never posted")));
                    }
                    CompiledOp::WaitRecv { slot, src: *src, tag: *tag }
                }
                Op::Permute { perm, block_bytes } => {
                    let n = perm.len();
                    if n * block_bytes > memory_len {
                        return Err(invalid(
                            i,
                            format!(
                                "permute covers {} bytes > memory {memory_len}",
                                n * block_bytes
                            ),
                        ));
                    }
                    let ptr = Arc::as_ptr(perm) as usize;
                    let perm_idx = match perm_ids.get(&ptr) {
                        Some(&idx) => idx,
                        None => {
                            let mut seen = vec![false; n];
                            for &p in perm.iter() {
                                if p as usize >= n || seen[p as usize] {
                                    return Err(invalid(
                                        i,
                                        "perm is not a permutation".to_string(),
                                    ));
                                }
                                seen[p as usize] = true;
                            }
                            let idx = perms.len() as u32;
                            perm_ids.insert(ptr, idx);
                            perms.push(Arc::clone(perm));
                            idx
                        }
                    };
                    CompiledOp::Permute { perm_idx, block_bytes: clamp_block(*block_bytes) }
                }
                Op::Barrier => CompiledOp::Barrier,
                Op::Compute { ns } => CompiledOp::Compute { ns: *ns },
                Op::Mark { label } => CompiledOp::Mark { label: *label },
            };
            flat_ops.push(cop);
        }
        flat_segs.push((seg_pc, seg_mask));
        compiled.push(CompiledProgram {
            ops_start,
            ops_end: flat_ops.len() as u32,
            num_slots: keys[x].len() as u32,
            segs_start,
            segs_end: flat_segs.len() as u32,
        });
    }
    // Receiver-slot fixup pass: counting-sort the sends by destination
    // (O(sends + nodes)), then resolve each group against one hot slot
    // table.
    let mut starts = vec![0u32; programs.len() + 1];
    for &(dst, ..) in &send_fixes {
        starts[dst as usize + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut ordered = vec![(0u32, 0u32, 0u32, Tag(0)); send_fixes.len()];
    let mut cursor = starts.clone();
    for &fix in &send_fixes {
        let c = &mut cursor[fix.0 as usize];
        ordered[*c as usize] = fix;
        *c += 1;
    }
    for (dst, src, op_idx, tag) in ordered {
        let slot = slot_of(dst as usize, pack_key(NodeId(src), tag));
        if slot != NO_SLOT {
            let flat_idx = compiled[src as usize].ops_start + op_idx;
            if let CompiledOp::Send { dst_slot, .. } = &mut flat_ops[flat_idx as usize] {
                *dst_slot = slot;
            }
        }
    }
    Ok(Compiled { programs: compiled, ops: flat_ops, total_sends, segs: flat_segs, perms })
}

/// Shards of the process-wide compile cache: contention is between a
/// handful of `SimBatch` workers, so a few shards suffice.
const SHARED_SHARDS: usize = 8;
/// Entries kept per shard. Entries pin their (possibly large) program
/// sets alive, so the cap is deliberately small; the per-arena memos
/// in front keep their own 32 entries each.
const SHARED_SHARD_CAP: usize = 8;

/// One shared-cache entry: the program set is kept alive so its
/// pointer identity cannot be recycled by a later allocation while the
/// entry exists.
struct SharedEntry {
    programs: Arc<Vec<Program>>,
    mem_lens: Vec<usize>,
    compiled: Arc<Compiled>,
    /// Last-touch stamp from [`SHARED_STAMP`]; the smallest stamp in a
    /// full shard is evicted.
    stamp: u64,
}

static SHARED_STAMP: AtomicU64 = AtomicU64::new(0);
static SHARED_CACHE: [Mutex<Vec<SharedEntry>>; SHARED_SHARDS] =
    [const { Mutex::new(Vec::new()) }; SHARED_SHARDS];

fn mem_lens_match(lens: &[usize], memories: &[Vec<u8>]) -> bool {
    lens.len() == memories.len() && lens.iter().zip(memories).all(|(&l, m)| l == m.len())
}

/// Process-wide cached compile keyed on program-set `Arc` identity +
/// memory lengths. Returns the compiled set and whether it was a hit.
/// A miss compiles **while holding the shard lock**, so concurrent
/// callers asking for the same set serialize into one compile + N−1
/// hits — the exactly-once guarantee `SimBatch` sweeps rely on.
/// Compile errors are returned, never cached.
pub(crate) fn shared_compiled_for(
    programs: &Arc<Vec<Program>>,
    memories: &[Vec<u8>],
) -> Result<(Arc<Compiled>, bool), SimError> {
    let ptr = Arc::as_ptr(programs) as usize as u64;
    let shard = (crate::fxhash::splitmix64_mix(ptr) % SHARED_SHARDS as u64) as usize;
    let mut entries = SHARED_CACHE[shard].lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = entries
        .iter_mut()
        .find(|e| Arc::ptr_eq(&e.programs, programs) && mem_lens_match(&e.mem_lens, memories))
    {
        e.stamp = SHARED_STAMP.fetch_add(1, Ordering::Relaxed);
        return Ok((Arc::clone(&e.compiled), true));
    }
    let compiled = Arc::new(compile(programs, memories)?);
    if entries.len() >= SHARED_SHARD_CAP {
        let oldest = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i)
            .expect("cap > 0");
        entries.swap_remove(oldest);
    }
    entries.push(SharedEntry {
        programs: Arc::clone(programs),
        mem_lens: memories.iter().map(Vec::len).collect(),
        compiled: Arc::clone(&compiled),
        stamp: SHARED_STAMP.fetch_add(1, Ordering::Relaxed),
    });
    Ok((compiled, false))
}

/// Run both compilers on one program set and describe their first
/// divergence (`None` = bit-identical outputs, or the same typed error
/// on the same node/op). Test support for the differential suites.
pub fn reference_divergence(programs: &[Program], memories: &[Vec<u8>]) -> Option<String> {
    match (compile_reference(programs, memories), compile_pipeline(programs, memories)) {
        (Err(a), Err(b)) => {
            (a != b).then(|| format!("error mismatch: reference {a:?}, pipeline {b:?}"))
        }
        (Ok(_), Err(e)) => Some(format!("reference Ok, pipeline Err({e:?})")),
        (Err(e), Ok(_)) => Some(format!("reference Err({e:?}), pipeline Ok")),
        (Ok(a), Ok(b)) => diff_compiled(&a, &b),
    }
}

fn diff_compiled(a: &Compiled, b: &Compiled) -> Option<String> {
    if a.total_sends != b.total_sends {
        return Some(format!("total_sends: {} vs {}", a.total_sends, b.total_sends));
    }
    if a.programs != b.programs {
        let x = a.programs.iter().zip(&b.programs).position(|(p, q)| p != q);
        return Some(format!(
            "program table differs (len {} vs {}, first at {x:?})",
            a.programs.len(),
            b.programs.len()
        ));
    }
    if a.ops != b.ops {
        let i = a.ops.iter().zip(&b.ops).position(|(p, q)| p != q);
        return Some(match i {
            Some(i) => format!("op {i}: {:?} vs {:?}", a.ops[i], b.ops[i]),
            None => format!("op count: {} vs {}", a.ops.len(), b.ops.len()),
        });
    }
    if a.segs != b.segs {
        return Some(format!("segment tables differ ({} vs {} segs)", a.segs.len(), b.segs.len()));
    }
    if a.perms.len() != b.perms.len()
        || a.perms.iter().zip(&b.perms).any(|(p, q)| !Arc::ptr_eq(p, q))
    {
        return Some(format!("perm tables differ ({} vs {} perms)", a.perms.len(), b.perms.len()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{proptest, ProptestConfig, TestRng};
    use std::ops::Range;

    fn post(src: u32, tag: Tag, into: Range<usize>) -> Op {
        Op::PostRecv { src: NodeId(src), tag, into }
    }
    fn send(dst: u32, from: Range<usize>, tag: Tag) -> Op {
        Op::Send { dst: NodeId(dst), from, tag, kind: MsgKind::Forced }
    }
    fn wait(src: u32, tag: Tag) -> Op {
        Op::WaitRecv { src: NodeId(src), tag }
    }

    fn assert_identical(programs: Vec<Program>, memories: Vec<Vec<u8>>) {
        if let Some(diff) = reference_divergence(&programs, &memories) {
            panic!("pipeline diverges from reference: {diff}");
        }
    }

    #[test]
    fn compile_slot_ids_follow_first_post_order() {
        // Posts arrive in scrambled key order; slot ids must be
        // first-post ranks, not sorted-key ranks.
        let p0 = Program {
            ops: vec![
                post(1, Tag::data(3, 1), 0..4),
                post(1, Tag::data(0, 1), 4..8),
                post(1, Tag::sync(1, 2), 0..0),
                post(1, Tag::data(1, 1), 8..12),
            ],
        };
        let programs = vec![p0, Program::empty()];
        let memories = vec![vec![0u8; 12], vec![]];
        let c = compile_pipeline(&programs, &memories).unwrap();
        let slots: Vec<u32> = c.programs[0]
            .ops(&c.ops)
            .iter()
            .map(|op| match op {
                CompiledOp::PostRecv { slot, .. } => *slot,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 2, 3], "dense ids in first-post order");
        assert_identical(programs, memories);
    }

    #[test]
    fn compile_duplicate_posts_share_a_slot_and_are_rejected() {
        let tag = Tag::data(0, 1);
        let programs = vec![Program {
            ops: vec![post(1, tag, 0..4), post(1, Tag::data(0, 2), 4..8), post(1, tag, 0..4)],
        }];
        let memories = vec![vec![0u8; 8]];
        let err = compile_pipeline(&programs, &memories).unwrap_err();
        assert_eq!(err, compile_reference(&programs, &memories).unwrap_err());
        match err {
            SimError::InvalidProgram { node, reason } => {
                assert_eq!(node, NodeId(0));
                assert!(reason.contains("op 2") && reason.contains("duplicate post"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compile_error_selection_is_node_major_op_minor() {
        // Node 2 references a content-invalid perm at op 0; node 1 has
        // a bad send range at op 1. The sequential walk hits node 1
        // first, so both compilers must report node 1.
        let bad_perm = Arc::new(vec![0u32, 0]);
        let programs = vec![
            Program::empty(),
            Program { ops: vec![post(0, Tag::data(0, 1), 0..4), send(0, 0..999, Tag::data(0, 1))] },
            Program { ops: vec![Op::Permute { perm: Arc::clone(&bad_perm), block_bytes: 1 }] },
        ];
        let memories = vec![vec![0u8; 8]; 3];
        let err = compile_pipeline(&programs, &memories).unwrap_err();
        assert_eq!(err, compile_reference(&programs, &memories).unwrap_err());
        assert!(
            matches!(&err, SimError::InvalidProgram { node, reason }
                if *node == NodeId(1) && reason.contains("send range")),
            "{err:?}"
        );

        // With node 1 clean, the perm content error surfaces, on the
        // op that first referenced the perm.
        let programs = vec![
            Program::empty(),
            Program::empty(),
            Program { ops: vec![Op::Permute { perm: bad_perm, block_bytes: 1 }] },
        ];
        let err = compile_pipeline(&programs, &memories).unwrap_err();
        assert_eq!(err, compile_reference(&programs, &memories).unwrap_err());
        assert!(
            matches!(&err, SimError::InvalidProgram { node, reason }
                if *node == NodeId(2) && reason.contains("not a permutation")),
            "{err:?}"
        );
    }

    #[test]
    fn compile_permute_size_check_precedes_content_check() {
        // The perm is both oversized for the memory *and*
        // content-invalid; the walk's size check runs first.
        let perm = Arc::new(vec![5u32, 5, 5]);
        let programs = vec![Program { ops: vec![Op::Permute { perm, block_bytes: 100 }] }];
        let memories = vec![vec![0u8; 8]];
        let err = compile_pipeline(&programs, &memories).unwrap_err();
        assert_eq!(err, compile_reference(&programs, &memories).unwrap_err());
        assert!(
            matches!(&err, SimError::InvalidProgram { reason, .. } if reason.contains("covers")),
            "{err:?}"
        );
    }

    #[test]
    fn compile_dedups_shared_perm_arcs_into_one_table_entry() {
        let shared = Arc::new(vec![1u32, 0]);
        let own = Arc::new(vec![1u32, 0]);
        let programs = vec![
            Program { ops: vec![Op::Permute { perm: Arc::clone(&shared), block_bytes: 2 }] },
            Program { ops: vec![Op::Permute { perm: Arc::clone(&shared), block_bytes: 2 }] },
            Program { ops: vec![Op::Permute { perm: Arc::clone(&own), block_bytes: 2 }] },
        ];
        let memories = vec![vec![0u8; 4]; 3];
        let c = compile_pipeline(&programs, &memories).unwrap();
        assert_eq!(c.perms.len(), 2, "identity-deduplicated, not content-deduplicated");
        assert!(Arc::ptr_eq(&c.perms[0], &shared) && Arc::ptr_eq(&c.perms[1], &own));
        let idxs: Vec<u32> = c
            .ops
            .iter()
            .map(|op| match op {
                CompiledOp::Permute { perm_idx, .. } => *perm_idx,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(idxs, vec![0, 0, 1], "indices follow first-reference order");
        assert_identical(programs, memories);
    }

    #[test]
    fn shared_cache_hits_on_identity_and_misses_on_memory_shape() {
        let programs = Arc::new(vec![
            Program { ops: vec![send(1, 0..4, Tag::data(0, 1))] },
            Program { ops: vec![post(0, Tag::data(0, 1), 0..4), wait(0, Tag::data(0, 1))] },
        ]);
        let memories = vec![vec![0u8; 8], vec![0u8; 8]];
        let (c1, hit1) = shared_compiled_for(&programs, &memories).unwrap();
        assert!(!hit1, "first sight compiles");
        let (c2, hit2) = shared_compiled_for(&programs, &memories).unwrap();
        assert!(hit2, "second sight hits");
        assert!(Arc::ptr_eq(&c1, &c2), "one compilation serves both");
        // Same set, different memory lengths: ranges re-validate, so
        // this is a distinct entry, not a hit.
        let longer = vec![vec![0u8; 16], vec![0u8; 16]];
        let (_, hit3) = shared_compiled_for(&programs, &longer).unwrap();
        assert!(!hit3, "memory shape is part of the key");
        // A clone of the *content* under a new Arc is a different set.
        let clone = Arc::new(Vec::clone(&programs));
        let (_, hit4) = shared_compiled_for(&clone, &memories).unwrap();
        assert!(!hit4, "identity-keyed, not content-keyed");
    }

    #[test]
    fn shared_cache_never_caches_errors() {
        let programs = Arc::new(vec![Program {
            // Self-send: always invalid.
            ops: vec![send(0, 0..4, Tag::data(0, 1))],
        }]);
        let memories = vec![vec![0u8; 8]];
        for _ in 0..2 {
            let err = shared_compiled_for(&programs, &memories).unwrap_err();
            assert!(matches!(err, SimError::SelfSend { .. }), "{err:?}");
        }
        // A valid set under the same Arc-count pressure still works.
        let ok = Arc::new(vec![Program::empty()]);
        assert!(shared_compiled_for(&ok, &[Vec::new()]).is_ok());
    }

    /// Deterministic random program-set generator for the differential
    /// proptest. Mixes valid and invalid constructs: scrambled post
    /// orders, duplicate posts, unposted waits, oversized ranges,
    /// self-sends, shared / per-node / content-invalid permutations.
    fn gen_set(seed: u64, mostly_valid: bool) -> (Vec<Program>, Vec<Vec<u8>>) {
        let mut rng = TestRng::from_name(&format!("compile-differential-{seed}"));
        let mut below = |n: u64| -> u64 { rng.below(n as u128) as u64 };
        let n = 1usize << (1 + below(3)); // 2, 4 or 8 nodes
        let mem_len = 32 + below(97) as usize;
        // A few shared permutation Arcs, some deliberately invalid.
        let perm_blocks = 4usize;
        let perm_pool: Vec<Arc<Vec<u32>>> = (0..3)
            .map(|_| {
                let mut p: Vec<u32> = (0..perm_blocks as u32).collect();
                for i in (1..p.len()).rev() {
                    let j = below(i as u64 + 1) as usize;
                    p.swap(i, j);
                }
                if !mostly_valid && below(4) == 0 {
                    p[0] = p[1]; // duplicate target: not a permutation
                }
                Arc::new(p)
            })
            .collect();
        let mut programs = Vec::with_capacity(n);
        for x in 0..n as u32 {
            let mut ops = Vec::new();
            // Keys this node has posted so far, so valid-mode waits can
            // reference a real post and valid-mode posts can avoid
            // duplicates.
            let mut posted: Vec<(u32, Tag)> = Vec::new();
            let num_ops = below(14) as usize;
            for _ in 0..num_ops {
                let partner = below(n as u64) as u32; // may equal x: self-send / self-post cases
                let tag = if below(2) == 0 {
                    Tag::data(below(3) as u32, below(4) as u32)
                } else {
                    Tag::sync(below(3) as u32, below(4) as u32)
                };
                let start = below(mem_len as u64) as usize;
                let len = below(16) as usize;
                let end = if mostly_valid { (start + len).min(mem_len) } else { start + len };
                match below(10) {
                    0..=2 => {
                        if mostly_valid && posted.contains(&(partner, tag)) {
                            continue; // would be a duplicate post
                        }
                        posted.push((partner, tag));
                        ops.push(post(partner, tag, start..end));
                    }
                    3..=5 => {
                        let dst = if mostly_valid && partner == x {
                            (partner + 1) % n as u32
                        } else {
                            partner
                        };
                        ops.push(send(dst, start..end, tag));
                    }
                    6 => {
                        let (src, tag) = if mostly_valid {
                            match posted.get(below(posted.len().max(1) as u64) as usize) {
                                Some(&key) => key,
                                None => continue, // nothing posted yet
                            }
                        } else {
                            (partner, tag)
                        };
                        ops.push(wait(src, tag));
                    }
                    7 => {
                        let perm = match below(4) {
                            0 => Arc::new((0..perm_blocks as u32).rev().collect()),
                            i => Arc::clone(&perm_pool[i as usize - 1]),
                        };
                        let block = 1 + below(if mostly_valid {
                            (mem_len / perm_blocks) as u64
                        } else {
                            mem_len as u64
                        }) as usize;
                        ops.push(Op::Permute { perm, block_bytes: block });
                    }
                    8 => ops.push(Op::Barrier),
                    _ => ops.push(if below(2) == 0 {
                        Op::Compute { ns: below(1000) }
                    } else {
                        Op::Mark { label: below(8) as u32 }
                    }),
                }
            }
            // Bias toward posts that make some waits legal: mirror a
            // prefix of the sends as posted receives on the target.
            programs.push(Program { ops });
        }
        // Waits rarely match posts in pure noise; append matched
        // post/wait pairs so the valid path gets real coverage.
        for (x, program) in programs.iter_mut().enumerate() {
            let partner = (x + 1) % n;
            let tag = Tag::data(7, x as u32);
            program.ops.insert(0, post(partner as u32, tag, 0..8));
            program.ops.push(wait(partner as u32, tag));
        }
        let memories = (0..n).map(|_| vec![0u8; mem_len]).collect();
        (programs, memories)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        /// The differential pin: over random valid and invalid program
        /// sets, the parallel pipeline is bit-identical to the
        /// sequential reference — flat ops (slot ids, receiver slots,
        /// perm indices included), program ranges, segment masks,
        /// `total_sends`, the perm table, and on failure the same
        /// typed error for the same node and op.
        #[test]
        fn compile_pipeline_matches_reference_differentially(
            seed in 0u64..u64::MAX / 2,
            mostly_valid in 0u8..2,
        ) {
            let (programs, memories) = gen_set(seed, mostly_valid == 1);
            if let Some(diff) = reference_divergence(&programs, &memories) {
                panic!("seed {seed} (mostly_valid={mostly_valid}): {diff}");
            }
        }
    }

    #[test]
    fn compile_differential_covers_both_outcomes() {
        // The proptest is only meaningful if the generator actually
        // produces both successful and failing sets.
        let (mut ok, mut err) = (0, 0);
        for seed in 0..64 {
            let (programs, memories) = gen_set(seed, seed % 2 == 0);
            match compile_reference(&programs, &memories) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        assert!(ok > 5 && err > 5, "generator collapsed: {ok} ok / {err} err");
    }
}
