//! Per-node programs: straight-line op lists executed by the engine.
//!
//! A [`Program`] is the simulator's analogue of the paper's C code
//! running under NX/2 on each iPSC-860 node: a deterministic sequence
//! of message-passing and data-permutation operations. The builders in
//! `mce-core` generate one program per node for each complete-exchange
//! algorithm.

use crate::message::{MsgKind, Tag};
use mce_hypercube::NodeId;
use std::ops::Range;
use std::sync::Arc;

/// One node operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Post a receive: a message from `src` with tag `tag` will be
    /// deposited into `into` (byte range of node memory). Free at run
    /// time; FORCED messages arriving without a matching post are
    /// discarded by the "operating system".
    PostRecv { src: NodeId, tag: Tag, into: Range<usize> },
    /// Send `from` (byte range of node memory) to `dst`. Blocks until
    /// the circuit releases (transmission complete). Routes e-cube;
    /// under a [`crate::NetCondition`] with dead cables the engine
    /// substitutes a fault-avoiding xor-mask decomposition at compile
    /// time, or rejects the run as
    /// [`crate::SimError::Unroutable`] when the subcube offers none.
    Send { dst: NodeId, from: Range<usize>, tag: Tag, kind: MsgKind },
    /// Block until the message (src, tag) has been delivered.
    WaitRecv { src: NodeId, tag: Tag },
    /// Apply a block permutation to node memory: block `i` of size
    /// `block_bytes` moves to position `perm[i]`. Costs `ρ` per byte.
    Permute { perm: Arc<Vec<u32>>, block_bytes: usize },
    /// Global synchronization across all nodes (cost `150·d` µs on the
    /// iPSC-860).
    Barrier,
    /// Local computation for a fixed duration.
    Compute { ns: u64 },
    /// Record the current simulated time under a label (free); used
    /// for per-phase timing breakdowns.
    Mark { label: u32 },
}

impl Op {
    /// Convenience constructor for [`Op::PostRecv`].
    pub fn post_recv(src: NodeId, tag: Tag, into: Range<usize>) -> Op {
        Op::PostRecv { src, tag, into }
    }

    /// Convenience constructor for a FORCED data send.
    pub fn send(dst: NodeId, from: Range<usize>, tag: Tag) -> Op {
        Op::Send { dst, from, tag, kind: MsgKind::Forced }
    }

    /// Convenience constructor for a zero-byte FORCED synchronization
    /// send.
    pub fn send_sync(dst: NodeId, tag: Tag) -> Op {
        Op::Send { dst, from: 0..0, tag, kind: MsgKind::Forced }
    }

    /// Convenience constructor for [`Op::WaitRecv`].
    pub fn wait_recv(src: NodeId, tag: Tag) -> Op {
        Op::WaitRecv { src, tag }
    }
}

/// A node's complete program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Operations, executed strictly in order.
    pub ops: Vec<Op>,
}

impl Program {
    /// Empty program. Barriers are global: a node running an empty
    /// program never enters a barrier, so pairing empty programs with
    /// barrier-using ones deadlocks (and is reported as such).
    pub fn empty() -> Program {
        Program { ops: Vec::new() }
    }

    /// Number of Send operations (transmission count, the paper's
    /// primary cost driver).
    pub fn num_sends(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, Op::Send { .. })).count()
    }

    /// Total bytes sent by this program.
    pub fn bytes_sent(&self) -> usize {
        self.ops
            .iter()
            .map(|o| match o {
                Op::Send { from, .. } => from.len(),
                _ => 0,
            })
            .sum()
    }

    /// Validate static properties: every `WaitRecv` and every expected
    /// delivery has a matching earlier `PostRecv`, and memory ranges
    /// are ordered and fit within `memory_len`.
    ///
    /// The engine's compiler (`compile.rs`) re-implements these checks
    /// fused with program compilation for speed (the range and
    /// permute-span checks are shared functions); when adding or
    /// changing a check here, mirror it there and extend the
    /// `compile_checks_match_program_validate` parity test.
    pub fn validate(&self, memory_len: usize) -> Result<(), String> {
        let mut posted: crate::fxhash::FxHashSet<(NodeId, Tag)> = Default::default();
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                Op::PostRecv { src, tag, into } => {
                    if let Some(msg) = range_error("recv", into, memory_len) {
                        return Err(format!("op {i}: {msg}"));
                    }
                    if !posted.insert((*src, *tag)) {
                        return Err(format!("op {i}: duplicate post for ({src}, {tag})"));
                    }
                }
                Op::Send { from, .. } => {
                    if let Some(msg) = range_error("send", from, memory_len) {
                        return Err(format!("op {i}: {msg}"));
                    }
                }
                Op::WaitRecv { src, tag } => {
                    if !posted.contains(&(*src, *tag)) {
                        return Err(format!("op {i}: WaitRecv ({src}, {tag}) never posted"));
                    }
                }
                Op::Permute { perm, block_bytes } => {
                    let n = perm.len();
                    if let Some(msg) = permute_span_error(n, *block_bytes, memory_len) {
                        return Err(format!("op {i}: {msg}"));
                    }
                    let mut seen = vec![false; n];
                    for &p in perm.iter() {
                        if p as usize >= n || seen[p as usize] {
                            return Err(format!("op {i}: perm is not a permutation"));
                        }
                        seen[p as usize] = true;
                    }
                }
                Op::Barrier | Op::Compute { .. } | Op::Mark { .. } => {}
            }
        }
        Ok(())
    }
}

/// The byte-range check [`Program::validate`] and the compiler share:
/// the reason (without its `op i: ` prefix) when `range` is reversed or
/// reaches past `memory_len`.
#[inline]
pub(crate) fn range_error(what: &str, range: &Range<usize>, memory_len: usize) -> Option<String> {
    if range.start > range.end {
        Some(format!("{what} range {range:?} is reversed"))
    } else if range.end > memory_len {
        Some(format!("{what} range {range:?} exceeds memory {memory_len}"))
    } else {
        None
    }
}

/// The permute-span check [`Program::validate`] and the compiler share:
/// the reason when `perm_len` blocks of `block_bytes` reach past
/// `memory_len`. The span is taken in `u128`, where the product of two
/// `usize`s cannot wrap back under the memory size.
#[inline]
pub(crate) fn permute_span_error(
    perm_len: usize,
    block_bytes: usize,
    memory_len: usize,
) -> Option<String> {
    let span = perm_len as u128 * block_bytes as u128;
    (span > memory_len as u128)
        .then(|| format!("permute covers {span} bytes > memory {memory_len}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        Program {
            ops: vec![
                Op::post_recv(NodeId(1), Tag::data(0, 1), 0..8),
                Op::Barrier,
                Op::send(NodeId(1), 8..16, Tag::data(0, 1)),
                Op::wait_recv(NodeId(1), Tag::data(0, 1)),
            ],
        }
    }

    #[test]
    fn counters() {
        let p = sample();
        assert_eq!(p.num_sends(), 1);
        assert_eq!(p.bytes_sent(), 8);
        assert_eq!(Program::empty().num_sends(), 0);
    }

    #[test]
    fn validate_accepts_sample() {
        assert!(sample().validate(16).is_ok());
    }

    #[test]
    fn validate_rejects_missing_post() {
        let p = Program { ops: vec![Op::wait_recv(NodeId(1), Tag::data(0, 9))] };
        assert!(p.validate(64).unwrap_err().contains("never posted"));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let p = Program { ops: vec![Op::send(NodeId(1), 0..100, Tag::data(0, 1))] };
        assert!(p.validate(64).unwrap_err().contains("exceeds memory"));
        let p = Program { ops: vec![Op::post_recv(NodeId(1), Tag::data(0, 1), 60..100)] };
        assert!(p.validate(64).unwrap_err().contains("exceeds memory"));
    }

    #[test]
    fn validate_rejects_duplicate_post() {
        let p = Program {
            ops: vec![
                Op::post_recv(NodeId(1), Tag::data(0, 1), 0..4),
                Op::post_recv(NodeId(1), Tag::data(0, 1), 4..8),
            ],
        };
        assert!(p.validate(64).unwrap_err().contains("duplicate post"));
    }

    #[test]
    fn validate_rejects_bad_permutation() {
        let p =
            Program { ops: vec![Op::Permute { perm: Arc::new(vec![0, 0, 1, 2]), block_bytes: 4 }] };
        assert!(p.validate(64).unwrap_err().contains("not a permutation"));
    }
}
