//! Complete-exchange correctness verification.
//!
//! Blocks carry *provenance stamps*: the block travelling from `src`
//! to `dst` is a pseudo-random byte stream keyed by `(src, dst)`.
//! After a run, every node's memory is checked slot by slot against
//! the expected stamps, so any mis-routed, mis-shuffled, duplicated or
//! corrupted block is detected.
//!
//! # The stamp is word-wide
//!
//! The stream is defined 8 bytes at a time: word `w` of the block is
//! [`stamp_word`]`(src, dst, w)`, one splitmix64-style mix of
//! `(src << 40) ^ (dst << 20) ^ w`, laid down little-endian; byte `k`
//! is byte `k % 8` of word `k / 8` ([`stamp_byte`]). A block of `m`
//! bytes is the first `m` bytes of that stream, so the stream for `m`
//! is a prefix of the stream for any `m' > m` (block ladders reuse
//! it). The three fields stay disjoint for word indices below 2²⁰
//! (blocks up to 8 MiB) and node labels below 2²⁰ (`d ≤ 20`); past
//! that, distinct triples may alias and a swap could go unnoticed.
//!
//! Stamping ([`fill_block`]) and checking ([`check_block`]) each spend
//! one mix per word and move whole words. `check_block` is the single
//! comparison kernel behind every verifier in this crate
//! ([`verify_complete_exchange`], [`verify_naive_exchange`],
//! [`crate::perm_router::verify_permutation`] and the
//! `crate::collectives::verify_*` family): every byte of every slot is
//! still compared, and a slot the memory is too short to hold — or a
//! node that is missing altogether — is a reported failure, never a
//! panic.
//!
//! An earlier definition mixed once per *byte* and kept 8 of the 64
//! bits it produced; stamping and checking were then over half of a
//! cold figure regeneration. Alternatives that would have kept those
//! bytes bit-identical were rejected:
//!
//! - a SIMD kernel: baseline x86-64 has no 64-bit vector multiply, so
//!   there is nothing to gain;
//! - a process-wide table of stamp streams, or verifying against the
//!   transpose of a retained copy of the initial memories: both add
//!   resident state (memory on d11 cubes) and a capacity question — a
//!   fork and a knob where a redefinition needs neither.

use mce_hypercube::NodeId;

/// Word `w` (bytes `8w .. 8w + 8`, little-endian) of the stamp stream
/// of the block `src -> dst`.
///
/// A splitmix64-style mix of the triple; distinct `(src, dst)` pairs
/// produce streams that differ with overwhelming probability in every
/// word — the first included — so comparing whole blocks catches
/// swaps even at `m < 8`.
#[inline]
pub fn stamp_word(src: NodeId, dst: NodeId, w: usize) -> u64 {
    let mut z = ((src.0 as u64) << 40) ^ ((dst.0 as u64) << 20) ^ w as u64 ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stamp byte for offset `k` of the block `src -> dst`: byte
/// `k % 8` of [`stamp_word`]`(src, dst, k / 8)`.
#[inline]
pub fn stamp_byte(src: NodeId, dst: NodeId, k: usize) -> u8 {
    stamp_word(src, dst, k / 8).to_le_bytes()[k % 8]
}

/// Fill one block buffer with the stamp of `src -> dst`.
pub fn fill_block(buf: &mut [u8], src: NodeId, dst: NodeId) {
    let mut words = buf.chunks_exact_mut(8);
    let mut w = 0;
    for word in &mut words {
        word.copy_from_slice(&stamp_word(src, dst, w).to_le_bytes());
        w += 1;
    }
    let tail = words.into_remainder();
    if !tail.is_empty() {
        tail.copy_from_slice(&stamp_word(src, dst, w).to_le_bytes()[..tail.len()]);
    }
}

/// Offset of the first byte of `buf` that differs from the stamp of
/// `src -> dst`, or `None` when the whole buffer carries it.
pub fn check_block(buf: &[u8], src: NodeId, dst: NodeId) -> Option<usize> {
    let first_bad = |w: usize, got: [u8; 8]| {
        let diff = u64::from_le_bytes(got) ^ stamp_word(src, dst, w);
        (diff != 0).then(|| 8 * w + diff.trailing_zeros() as usize / 8)
    };
    let mut words = buf.chunks_exact(8);
    for (w, word) in words.by_ref().enumerate() {
        let bad = first_bad(w, word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        if bad.is_some() {
            return bad;
        }
    }
    let tail = words.remainder();
    if tail.is_empty() {
        return None;
    }
    // Pad the bytes present with the expected ones, so only a byte
    // that is there can differ.
    let w = buf.len() / 8;
    let mut padded = stamp_word(src, dst, w).to_le_bytes();
    padded[..tail.len()].copy_from_slice(tail);
    first_bad(w, padded)
}

/// [`check_block`] on the `m`-byte slot at `offset` of node `node`'s
/// memory, for caller-supplied shapes: bytes the memory is too short
/// to hold (all of them when the node is missing) count as bad, so the
/// result is the first wrong *or absent* offset within the slot.
pub(crate) fn check_slot(
    memories: &[Vec<u8>],
    node: usize,
    offset: usize,
    m: usize,
    src: NodeId,
    dst: NodeId,
) -> Option<usize> {
    let present = memories.get(node).and_then(|mem| mem.get(offset..)).unwrap_or(&[]);
    let present = &present[..present.len().min(m)];
    check_block(present, src, dst).or((present.len() < m).then_some(present.len()))
}

/// Build the initial node memories for a complete exchange on a
/// dimension-`d` cube with `m`-byte blocks: node `x`, slot `q` holds
/// the stamped block `x -> q` (destination-major layout).
pub fn stamped_memories(d: u32, m: usize) -> Vec<Vec<u8>> {
    let n = 1usize << d;
    (0..n)
        .map(|x| {
            // Appended word by word, so each byte is written once.
            let mut mem = Vec::with_capacity(n * m);
            for q in 0..n {
                let (src, dst) = (NodeId(x as u32), NodeId(q as u32));
                for w in 0..m / 8 {
                    mem.extend_from_slice(&stamp_word(src, dst, w).to_le_bytes());
                }
                let tail = m % 8;
                if tail > 0 {
                    mem.extend_from_slice(&stamp_word(src, dst, m / 8).to_le_bytes()[..tail]);
                }
            }
            mem
        })
        .collect()
}

/// A verification failure at one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Node whose memory is wrong.
    pub node: NodeId,
    /// Slot (block index) within the node's memory.
    pub slot: usize,
    /// The source whose block should be there (`slot` itself in the
    /// source-major final layout).
    pub expected_src: NodeId,
    /// First differing byte offset within the block; for a slot the
    /// node's memory is too short to hold, the first absent offset.
    pub first_bad_byte: usize,
}

/// Every slot `p` of every node `x` of a `d`-cube that does not hold
/// block `p -> x` at byte `base + p·m`; `skip_self` leaves slot `x`
/// of node `x` unchecked.
fn exchange_mismatches(
    d: u32,
    m: usize,
    memories: &[Vec<u8>],
    base: usize,
    skip_self: bool,
) -> Vec<Mismatch> {
    let n = 1usize << d;
    let mut mismatches = Vec::new();
    for x in 0..n {
        for p in (0..n).filter(|&p| !(skip_self && p == x)) {
            let (src, dst) = (NodeId(p as u32), NodeId(x as u32));
            let offset = base.saturating_add(p.saturating_mul(m));
            if let Some(k) = check_slot(memories, x, offset, m, src, dst) {
                mismatches.push(Mismatch {
                    node: dst,
                    slot: p,
                    expected_src: src,
                    first_bad_byte: k,
                });
            }
        }
    }
    mismatches
}

/// Check the **final** layout: node `x`, slot `p` must hold the
/// stamped block `p -> x`. Returns all mismatches (empty = success).
///
/// Never panics on its input: a node missing from `memories`, or a
/// memory too short for a slot, is a [`Mismatch`] at the first absent
/// offset. Memories beyond the cube's `2^d` nodes are not looked at.
pub fn verify_complete_exchange(d: u32, m: usize, memories: &[Vec<u8>]) -> Vec<Mismatch> {
    exchange_mismatches(d, m, memories, 0, false)
}

/// Check a naive-layout result (see
/// [`crate::builder::build_naive_programs`]): the *second half* of
/// node `x`'s memory, slot `p != x`, must hold block `p -> x`.
/// Missing or short memories are mismatches, as in
/// [`verify_complete_exchange`].
pub fn verify_naive_exchange(d: u32, m: usize, memories: &[Vec<u8>]) -> Vec<Mismatch> {
    let half = (1usize << d).saturating_mul(m);
    exchange_mismatches(d, m, memories, half, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A correct final layout for `d`, `m`, built by hand.
    fn exchanged(d: u32, m: usize) -> Vec<Vec<u8>> {
        let n = 1usize << d;
        (0..n)
            .map(|x| {
                let mut mem = vec![0u8; n * m];
                for p in 0..n {
                    fill_block(&mut mem[p * m..(p + 1) * m], NodeId(p as u32), NodeId(x as u32));
                }
                mem
            })
            .collect()
    }

    #[test]
    fn stamps_differ_between_pairs() {
        let a: Vec<u8> = (0..32).map(|k| stamp_byte(NodeId(1), NodeId(2), k)).collect();
        let b: Vec<u8> = (0..32).map(|k| stamp_byte(NodeId(2), NodeId(1), k)).collect();
        let c: Vec<u8> = (0..32).map(|k| stamp_byte(NodeId(1), NodeId(3), k)).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Reversed and neighbouring pairs differ in the *first* word
        // already, so a swap is caught even in blocks of m < 8 bytes.
        let first = |s: u32, t: u32| stamp_word(NodeId(s), NodeId(t), 0);
        let mut seen = std::collections::HashSet::new();
        for s in 0..16 {
            for t in 0..16 {
                assert!(seen.insert(first(s, t)), "first word of {s} -> {t} repeats");
            }
        }
    }

    /// The kernel on every block length 0..=40 at every start offset
    /// 0..8 of a larger buffer: blocks are unaligned as a rule (slot
    /// `q` starts at byte `q·m`), and lengths cover whole words, a
    /// bare tail and both.
    #[test]
    fn fill_then_check_round_trips_at_every_length_and_offset() {
        let (src, dst) = (NodeId(5), NodeId(9));
        for len in 0..=40usize {
            for start in 0..8usize {
                let mut buf = vec![0xA5u8; start + len + 8];
                fill_block(&mut buf[start..start + len], src, dst);
                let block = &buf[start..start + len];
                assert_eq!(check_block(block, src, dst), None, "len {len} start {start}");
                for (k, &b) in block.iter().enumerate() {
                    assert_eq!(b, stamp_byte(src, dst, k), "len {len} start {start} byte {k}");
                }
                // Nothing outside the block was written.
                assert!(buf[..start].iter().chain(&buf[start + len..]).all(|&b| b == 0xA5));
                // Every single corrupt byte is found, tail included,
                // and reported at its own offset.
                for i in 0..len {
                    buf[start + i] ^= 0x40;
                    let found = check_block(&buf[start..start + len], src, dst);
                    assert_eq!(found, Some(i), "len {len} start {start} flipped {i}");
                    buf[start + i] ^= 0x40;
                }
                // With several bad bytes the *first* is reported.
                if len >= 2 {
                    let mid = (len - 1) / 2;
                    buf[start + len - 1] ^= 1;
                    buf[start + mid] ^= 1;
                    let found = check_block(&buf[start..start + len], src, dst);
                    assert_eq!(found, Some(mid), "len {len} start {start}");
                }
            }
        }
    }

    #[test]
    fn shorter_block_is_a_prefix_of_a_longer_one() {
        // Block ladders rely on it: the stream does not depend on `m`.
        let mut long = [0u8; 40];
        fill_block(&mut long, NodeId(3), NodeId(4));
        for m in 0..40 {
            let mut short = vec![0u8; m];
            fill_block(&mut short, NodeId(3), NodeId(4));
            assert_eq!(short, long[..m], "m {m}");
        }
    }

    #[test]
    fn initial_memories_have_destination_major_layout() {
        let mems = stamped_memories(3, 4);
        assert_eq!(mems.len(), 8);
        for (x, mem) in mems.iter().enumerate() {
            assert_eq!(mem.len(), 32);
            for q in 0..8 {
                for k in 0..4 {
                    assert_eq!(mem[q * 4 + k], stamp_byte(NodeId(x as u32), NodeId(q as u32), k));
                }
            }
        }
    }

    #[test]
    fn verify_detects_correct_exchange() {
        assert!(verify_complete_exchange(3, 4, &exchanged(3, 4)).is_empty());
    }

    #[test]
    fn verify_detects_swapped_blocks() {
        let d = 2u32;
        let m = 8usize;
        let mut finals = exchanged(d, m);
        // Swap the blocks in slots 0 and 1 at node 1.
        let (a, b) = finals[1].split_at_mut(m);
        a.swap_with_slice(&mut b[..m]);
        let bad = verify_complete_exchange(d, m, &finals);
        assert_eq!(bad.len(), 2, "both slots report: {bad:?}");
        assert!(bad.iter().all(|mm| mm.node == NodeId(1)));
    }

    #[test]
    fn verify_detects_single_corrupt_byte() {
        let d = 2u32;
        let m = 16usize;
        let mut finals = exchanged(d, m);
        finals[2][3 * m + 7] ^= 0xFF;
        let bad = verify_complete_exchange(d, m, &finals);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].node, NodeId(2));
        assert_eq!(bad[0].slot, 3);
        assert_eq!(bad[0].first_bad_byte, 7);
    }

    #[test]
    fn unexchanged_memories_fail_verification() {
        let d = 3u32;
        let m = 4usize;
        let mems = stamped_memories(d, m);
        let bad = verify_complete_exchange(d, m, &mems);
        // Every slot except the self-block (x -> x at slot x) is wrong.
        assert_eq!(bad.len(), 8 * 8 - 8);
    }

    #[test]
    fn missing_node_is_reported_not_a_panic() {
        let (d, m) = (2u32, 8usize);
        let mut finals = exchanged(d, m);
        finals.pop();
        let bad = verify_complete_exchange(d, m, &finals);
        // All four slots of the absent node 3, each absent from byte 0.
        assert_eq!(bad.len(), 4, "{bad:?}");
        for (p, mm) in bad.iter().enumerate() {
            assert_eq!((mm.node, mm.slot, mm.first_bad_byte), (NodeId(3), p, 0));
        }
        assert_eq!(verify_complete_exchange(d, m, &[]).len(), 16);
    }

    #[test]
    fn truncated_memory_is_reported_at_the_first_absent_offset() {
        let (d, m) = (2u32, 8usize);
        let mut finals = exchanged(d, m);
        finals[1].truncate(2 * m + 3); // slot 2 keeps 3 bytes, slot 3 none
        let bad = verify_complete_exchange(d, m, &finals);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert_eq!((bad[0].node, bad[0].slot, bad[0].first_bad_byte), (NodeId(1), 2, 3));
        assert_eq!((bad[1].node, bad[1].slot, bad[1].first_bad_byte), (NodeId(1), 3, 0));
        // A wrong byte in the part that is there still comes first.
        finals[1][2 * m + 1] ^= 0xFF;
        assert_eq!(verify_complete_exchange(d, m, &finals)[0].first_bad_byte, 1);
    }

    #[test]
    fn naive_verifier_reports_missing_and_short_memories() {
        let (d, m, n) = (2u32, 4usize, 4usize);
        // Naive layout: the exchanged blocks sit in the second half.
        let mut finals: Vec<Vec<u8>> =
            exchanged(d, m).into_iter().map(|mem| [vec![0u8; n * m], mem].concat()).collect();
        assert!(verify_naive_exchange(d, m, &finals).is_empty());
        finals[0].truncate(n * m + 3 * m + 1); // node 0 loses most of slot 3
        finals.pop(); // node 3 is gone: its slots 0, 1, 2 (no self-slot)
        let bad = verify_naive_exchange(d, m, &finals);
        let seen: Vec<_> = bad.iter().map(|mm| (mm.node.0, mm.slot, mm.first_bad_byte)).collect();
        assert_eq!(seen, [(0, 3, 1), (3, 0, 0), (3, 1, 0), (3, 2, 0)]);
    }

    #[test]
    fn zero_byte_blocks_verify_whatever_the_memories() {
        // With m = 0 there is no byte to be wrong or absent.
        assert!(verify_complete_exchange(3, 0, &stamped_memories(3, 0)).is_empty());
        assert!(verify_complete_exchange(3, 0, &[]).is_empty());
        assert!(verify_naive_exchange(3, 0, &[]).is_empty());
        assert_eq!(check_block(&[], NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn batched_exchange_runs_verify_across_block_ladder() {
        // The stamp check must hold for every run of a batched
        // block-size ladder: simulation moves real bytes, so any
        // cross-run state leakage in the arena would corrupt a stamp.
        use mce_simnet::batch::SimBatch;
        use mce_simnet::SimConfig;
        use std::sync::Arc;
        let d = 4u32;
        let sizes = [8usize, 16, 48];
        let mut batch = SimBatch::new(SimConfig::ipsc860(d));
        for &m in &sizes {
            let programs = crate::builder::build_multiphase_programs(d, &[2, 2], m);
            batch.push_run(Arc::new(programs), stamped_memories(d, m));
        }
        for (&m, r) in sizes.iter().zip(batch.run()) {
            let r = r.unwrap();
            assert!(verify_complete_exchange(d, m, &r.memories).is_empty(), "m={m}");
        }
    }
}
