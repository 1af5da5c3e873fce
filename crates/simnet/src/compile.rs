//! The program → engine compiler.
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
//! # The walk
//!
//! `compile` is one sequential pass, nodes in index order and each
//! node's ops in program order, then one pass over the sends:
//!
//! 1. **Slots as it walks**: each node numbers its posted `(src, tag)`
//!    keys into its own hash map during its own walk. A `PostRecv` takes
//!    the map's length as its slot through one `entry` probe (so slots
//!    follow first-post order; an occupied entry is a duplicate post),
//!    and a `WaitRecv` is one `get` (a missing key — never posted, or
//!    posted only later — is "never posted").
//! 2. **Fused validation and lowering**: one `match` per op checks it
//!    (byte ranges, duplicate posts, self-sends, the hop limit, the
//!    permute span) and emits its `CompiledOp`. The first failing check
//!    returns, so the error reported is the first in node-major,
//!    op-minor, check order.
//! 3. **Permutations** are deduplicated by `Arc` identity in
//!    first-reference order, and each distinct one's content is
//!    validated once, when first seen. Ops store a `u32` index into the
//!    side table (`Compiled::perms`), keeping `CompiledOp` `Copy` and
//!    32 bytes.
//! 4. **Receiver slots**: once every map is complete, one sequential
//!    pass over the compiled ops in node order looks each `Send`'s key
//!    up in its destination's map and writes the slot into the op in
//!    place (`NO_SLOT` if the receiver never posts it). A send to a
//!    node outside the set is reported here, after every check of the
//!    walk.
//!
//! A message key thus costs one probe where it is posted, one where it
//! is waited on and one where a send resolves it.
//!
//! PR 10's parallel two-stage pipeline used to take every set of
//! 8 192 ops or more; it was slower than this walk on every d5–d9
//! program set and no faster overall at d11–d12, so PR 25 deleted it
//! (timings in
//! `crates/simnet/README.md`, "Compiler"). The compiled tables are
//! pinned byte for byte by frozen digests ([`compiled_digest`]: this
//! module's tests and `tests/compile_pipeline.rs`), recorded while both
//! compilers existed and agreed (the d9 and d11 sets: on the walk
//! before it numbered slots as it went).
//!
//! # The compile cache
//!
//! A run of an `Arc`-shared program set ([`crate::SimArena::run_shared`],
//! or [`crate::SimArena::run_spec`] with a set other owners still hold)
//! takes its compilation from one process-wide cache
//! (`shared_compiled_for`), the only compile cache there is: `SimBatch`
//! runs one [`crate::SimArena`] per worker, and the cache makes a set
//! compile once per *process*, not once per arena. It is a sharded
//! `Mutex` map keyed on program-set `Arc` identity + memory lengths,
//! holding the `Arc<Vec<Program>>` alive so pointer identity cannot be
//! recycled while an entry lives. A miss compiles **under the shard
//! lock**, so concurrent workers asking for the same set block and then
//! hit — each distinct set is compiled exactly once (pinned via the
//! [`crate::SimStats`] compile telemetry). Entries evict
//! least-recently-stamped per shard; compile *errors* are never cached.
//! A hit costs one uncontended lock, small beside the run it serves.

use crate::engine::{SimError, MAX_HOPS, NO_SLOT};
use crate::fxhash::FxHashMap;
use crate::message::{MsgKind, Tag};
use crate::program::{permute_span_error, range_error, Op, Program};
use mce_hypercube::NodeId;
use std::collections::hash_map::Entry;
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
    /// The largest `Send` and `Permute` spans in bytes (0 without
    /// any): what the engine's `check_horizon` prices, once per run.
    pub(crate) max_send_bytes: usize,
    pub(crate) max_permute_bytes: usize,
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

/// Compile and validate a program set (see the module docs).
pub(crate) fn compile(programs: &[Program], memories: &[Vec<u8>]) -> Result<Compiled, SimError> {
    if memories.len() != programs.len() {
        let n = programs.len();
        let reason = format!("{n} programs need {n} memories, got {}", memories.len());
        return Err(SimError::InvalidConfig { reason });
    }
    // Per node, its posted `(src, tag)` keys numbered in first-post
    // order, filled by that node's own walk.
    let mut keys: Vec<FxHashMap<u128, u32>> = Vec::with_capacity(programs.len());
    // Shuffle permutations are shared (`Arc`) across nodes: validate
    // each distinct one once, in first-sight order.
    let mut perm_ids: FxHashMap<usize, u32> = Default::default();
    let mut perms: Vec<Arc<Vec<u32>>> = Vec::new();
    let (mut total_sends, mut max_send_bytes, mut max_permute_bytes) = (0usize, 0usize, 0usize);
    let mut compiled = Vec::with_capacity(programs.len());
    let mut flat_ops: Vec<CompiledOp> =
        Vec::with_capacity(programs.iter().map(|p| p.ops.len()).sum());
    let mut flat_segs: Vec<(u32, u32)> = Vec::new();
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
        // Nodes of one exchange post alike: size for the previous one's keys.
        let mut slots: FxHashMap<u128, u32> = FxHashMap::with_capacity_and_hasher(
            keys.last().map_or(0, FxHashMap::len),
            Default::default(),
        );
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
                    if let Some(msg) = range_error("recv", into, memory_len) {
                        return Err(invalid(i, msg));
                    }
                    let slot = slots.len() as u32;
                    let Entry::Vacant(entry) = slots.entry(pack_key(*src, *tag)) else {
                        return Err(invalid(i, format!("duplicate post for ({src}, {tag})")));
                    };
                    entry.insert(slot);
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
                    if let Some(msg) = range_error("send", from, memory_len) {
                        return Err(invalid(i, msg));
                    }
                    let mask = x as u32 ^ dst.0;
                    if mask.count_ones() as usize > MAX_HOPS {
                        return Err(invalid(
                            i,
                            format!("send to {dst}: path exceeds {MAX_HOPS} hops"),
                        ));
                    }
                    total_sends += 1;
                    max_send_bytes = max_send_bytes.max(from.len());
                    CompiledOp::Send {
                        dst: *dst,
                        start: from.start as u32,
                        end: from.end as u32,
                        dst_slot: NO_SLOT, // resolved by the receiver pass
                        tag: *tag,
                        kind: *kind,
                    }
                }
                Op::WaitRecv { src, tag } => {
                    let Some(&slot) = slots.get(&pack_key(*src, *tag)) else {
                        return Err(invalid(i, format!("WaitRecv ({src}, {tag}) never posted")));
                    };
                    CompiledOp::WaitRecv { slot, src: *src, tag: *tag }
                }
                Op::Permute { perm, block_bytes } => {
                    let n = perm.len();
                    if let Some(msg) = permute_span_error(n, *block_bytes, memory_len) {
                        return Err(invalid(i, msg));
                    }
                    max_permute_bytes = max_permute_bytes.max(n * block_bytes);
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
            num_slots: slots.len() as u32,
            segs_start,
            segs_end: flat_segs.len() as u32,
        });
        keys.push(slots);
    }
    // Receiver slots: one sequential pass over the ops, each send
    // looking its key up in its destination's map (`NO_SLOT` if never
    // posted there).
    for (x, program) in compiled.iter().enumerate() {
        let src = NodeId(x as u32);
        let ops = &mut flat_ops[program.ops_start as usize..program.ops_end as usize];
        for (i, op) in ops.iter_mut().enumerate() {
            if let CompiledOp::Send { dst, tag, dst_slot, .. } = op {
                let Some(receiver) = keys.get(dst.index()) else {
                    return Err(SimError::InvalidProgram {
                        node: src,
                        reason: format!("op {i}: send to {dst}: no such node"),
                    });
                };
                if let Some(&slot) = receiver.get(&pack_key(src, *tag)) {
                    *dst_slot = slot;
                }
            }
        }
    }
    Ok(Compiled {
        programs: compiled,
        ops: flat_ops,
        total_sends,
        max_send_bytes,
        max_permute_bytes,
        segs: flat_segs,
        perms,
    })
}

/// Shards of the process-wide compile cache: contention is between a
/// handful of `SimBatch` workers, so a few shards suffice.
const SHARED_SHARDS: usize = 8;
/// Entries kept per shard. Entries pin their (possibly large) program
/// sets alive, so the cap is deliberately small.
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

/// FNV-1a digest of what the compiler makes of a program set — test
/// support for the frozen-digest suites, which pin the compiled tables
/// byte for byte across commits. A success digests the `Debug` text of
/// the program table, the flat ops, the segments and `total_sends`,
/// then the permutation table as the `(node, op)` that first references
/// each entry (pointers are not stable across runs); an error digests
/// as its `Debug` text — `memories.len() != programs.len()` included,
/// which is a [`SimError::InvalidConfig`].
pub fn compiled_digest(programs: &[Program], memories: &[Vec<u8>]) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let written = match compile(programs, memories) {
        Err(e) => write!(h, "{e:?}"),
        Ok(c) => {
            let mut first_ref: FxHashMap<usize, (usize, usize)> = Default::default();
            for (x, program) in programs.iter().enumerate() {
                for (i, op) in program.ops.iter().enumerate() {
                    if let Op::Permute { perm, .. } = op {
                        first_ref.entry(Arc::as_ptr(perm) as usize).or_insert((x, i));
                    }
                }
            }
            let perms: Vec<_> =
                c.perms.iter().map(|p| first_ref.get(&(Arc::as_ptr(p) as usize))).collect();
            write!(h, "{:?}{:?}{:?}{}{perms:?}", c.programs, c.ops, c.segs, c.total_sends)
        }
    };
    written.expect("Fnv never fails");
    h.0
}

/// Streams formatted text through FNV-1a.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;
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

    fn invalid(node: u32, reason: impl Into<String>) -> SimError {
        SimError::InvalidProgram { node: NodeId(node), reason: reason.into() }
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
        let c = compile(&programs, &memories).unwrap();
        let slots: Vec<u32> = c.programs[0]
            .ops(&c.ops)
            .iter()
            .map(|op| match op {
                CompiledOp::PostRecv { slot, .. } => *slot,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 2, 3], "dense ids in first-post order");
    }

    #[test]
    fn compile_duplicate_posts_share_a_slot_and_are_rejected() {
        let tag = Tag::data(0, 1);
        let programs = vec![Program {
            ops: vec![post(1, tag, 0..4), post(1, Tag::data(0, 2), 4..8), post(1, tag, 0..4)],
        }];
        let memories = vec![vec![0u8; 8]];
        assert_eq!(
            compile(&programs, &memories).unwrap_err(),
            invalid(0, format!("op 2: duplicate post for ({}, {tag})", NodeId(1)))
        );
    }

    #[test]
    fn compile_wait_before_its_own_post_was_never_posted() {
        // The key is posted, but only after the wait: at the wait it has
        // not been posted yet.
        let tag = Tag::data(0, 1);
        let programs = vec![Program { ops: vec![wait(1, tag), post(1, tag, 0..4)] }];
        let memories = vec![vec![0u8; 4]];
        assert_eq!(
            compile(&programs, &memories).unwrap_err(),
            invalid(0, "op 0: WaitRecv (1, data:p0s1) never posted")
        );
    }

    #[test]
    fn compile_duplicate_post_after_a_wait_on_another_key_is_rejected() {
        let (a, b) = (Tag::data(0, 1), Tag::sync(0, 1));
        let programs = vec![Program {
            ops: vec![post(1, a, 0..4), post(1, b, 0..0), wait(1, b), post(1, a, 4..8)],
        }];
        let memories = vec![vec![0u8; 8]];
        assert_eq!(
            compile(&programs, &memories).unwrap_err(),
            invalid(0, "op 3: duplicate post for (1, data:p0s1)")
        );
    }

    #[test]
    fn compile_send_to_a_receiver_that_never_posts_keeps_no_slot() {
        // Node 1 posts the tag for source 2 only: node 0's send finds no
        // slot there, node 2's finds slot 0.
        let tag = Tag::data(0, 1);
        let programs = vec![
            Program { ops: vec![send(1, 0..4, tag)] },
            Program { ops: vec![post(2, tag, 0..4), wait(2, tag)] },
            Program { ops: vec![send(1, 0..4, tag)] },
            Program::empty(),
        ];
        let memories = vec![vec![0u8; 4]; 4];
        let c = compile(&programs, &memories).unwrap();
        let dst_slot = |node: usize| match c.programs[node].ops(&c.ops) {
            [CompiledOp::Send { dst_slot, .. }] => *dst_slot,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!((dst_slot(0), dst_slot(2)), (NO_SLOT, 0));
        assert_eq!(c.total_sends, 2);
    }

    #[test]
    fn compile_send_outside_the_set_is_a_typed_error_after_the_walk() {
        // Node 0 sends to node 2 of a two-node set; node 1 is clean.
        let programs = vec![
            Program { ops: vec![Op::Barrier, send(2, 0..4, Tag::data(0, 1))] },
            Program::empty(),
        ];
        let memories = vec![vec![0u8; 4]; 2];
        assert_eq!(
            compile(&programs, &memories).unwrap_err(),
            invalid(0, "op 1: send to 2: no such node")
        );
        // Every check of the walk comes first, as in any later node.
        let programs = vec![programs[0].clone(), Program { ops: vec![wait(0, Tag::data(0, 1))] }];
        assert_eq!(
            compile(&programs, &memories).unwrap_err(),
            invalid(1, "op 0: WaitRecv (0, data:p0s1) never posted")
        );
    }

    #[test]
    fn compile_rejects_mismatched_shapes_with_a_typed_error() {
        let programs = vec![Program::empty(), Program::empty()];
        let one = vec![Vec::new()];
        let err = SimError::InvalidConfig { reason: "2 programs need 2 memories, got 1".into() };
        assert_eq!(compile(&programs, &one).unwrap_err(), err);
        // The public digest digests it as its `Debug` text instead of
        // panicking.
        use std::fmt::Write;
        let mut expected = Fnv(0xcbf2_9ce4_8422_2325);
        write!(expected, "{err:?}").unwrap();
        assert_eq!(compiled_digest(&programs, &one), expected.0);
    }

    #[test]
    fn compile_error_selection_is_node_major_op_minor() {
        // Node 2 references a content-invalid perm at op 0; node 1 has
        // a bad send range at op 1. The walk hits node 1 first.
        let bad_perm = Arc::new(vec![0u32, 0]);
        let programs = vec![
            Program::empty(),
            Program { ops: vec![post(0, Tag::data(0, 1), 0..4), send(0, 0..999, Tag::data(0, 1))] },
            Program { ops: vec![Op::Permute { perm: Arc::clone(&bad_perm), block_bytes: 1 }] },
        ];
        let memories = vec![vec![0u8; 8]; 3];
        assert_eq!(
            compile(&programs, &memories).unwrap_err(),
            invalid(1, "op 1: send range 0..999 exceeds memory 8")
        );

        // With node 1 clean, the perm content error surfaces, on the
        // op that first referenced the perm.
        let programs = vec![
            Program::empty(),
            Program::empty(),
            Program { ops: vec![Op::Permute { perm: bad_perm, block_bytes: 1 }] },
        ];
        assert_eq!(
            compile(&programs, &memories).unwrap_err(),
            invalid(2, "op 0: perm is not a permutation")
        );
    }

    #[test]
    fn compile_permute_size_check_precedes_content_check() {
        // The perm is both oversized for the memory *and*
        // content-invalid; the walk's size check runs first.
        let perm = Arc::new(vec![5u32, 5, 5]);
        let programs = vec![Program { ops: vec![Op::Permute { perm, block_bytes: 100 }] }];
        let memories = vec![vec![0u8; 8]];
        assert_eq!(
            compile(&programs, &memories).unwrap_err(),
            invalid(0, "op 0: permute covers 300 bytes > memory 8")
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
        let c = compile(&programs, &memories).unwrap();
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

    /// Deterministic random program-set generator for the frozen
    /// digests. Mixes valid and invalid constructs: scrambled post
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

    /// [`compiled_digest`] of `gen_set(seed, mostly_valid)` for seeds
    /// 0..192, folded in seed order: `[noise, mostly valid]`.
    fn gen_set_digests() -> [u64; 2] {
        [false, true].map(|mostly_valid| {
            (0..192).fold(0xcbf2_9ce4_8422_2325u64, |acc, seed| {
                let (programs, memories) = gen_set(seed, mostly_valid);
                (acc ^ compiled_digest(&programs, &memories)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// Recorded on 39d0813, where the parallel pipeline and the
    /// sequential walk both existed and agreed on every one of these
    /// sets (outputs and errors).
    const GEN_SET_DIGESTS: [u64; 2] = [7556751799296695124, 17828970227485840375];

    /// The frozen pin: over 384 random valid and invalid program sets,
    /// the compiled tables — flat ops (slot ids, receiver slots, perm
    /// indices included), program ranges, segment masks,
    /// `total_sends`, the perm table — and on failure the typed error
    /// for its node and op are the ones recorded when two compilers
    /// still cross-checked each other. (The name is from those days; the
    /// test floor tracks tests by name.)
    #[test]
    fn compile_pipeline_matches_reference_differentially() {
        assert_eq!(gen_set_digests(), GEN_SET_DIGESTS, "regenerate with --ignored print_digests");
    }

    /// Prints [`GEN_SET_DIGESTS`] as source.
    #[test]
    #[ignore]
    fn print_digests() {
        println!("const GEN_SET_DIGESTS: [u64; 2] = {:?};", gen_set_digests());
    }

    #[test]
    fn compile_differential_covers_both_outcomes() {
        // The frozen digests are only meaningful if the generator
        // actually produces both successful and failing sets.
        let (mut ok, mut err) = (0, 0);
        for seed in 0..64 {
            let (programs, memories) = gen_set(seed, seed % 2 == 0);
            match compile(&programs, &memories) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        assert!(ok > 5 && err > 5, "generator collapsed: {ok} ok / {err} err");
    }
}
