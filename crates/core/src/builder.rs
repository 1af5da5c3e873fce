//! Program builders: compile an exchange plan into per-node simulator
//! programs.
//!
//! The generated programs follow the paper's iPSC-860 implementation
//! discipline (Section 7): per phase, every node posts FORCED receives
//! for all messages it expects, passes a global synchronization, runs
//! the pairwise-synchronized exchange steps, and applies the
//! inter-phase shuffle. Omitting the barrier or the pairwise sync
//! reproduces the failure modes the paper describes — builders for
//! those ablations are provided too.

use crate::layout::{shuffle_is_identity, shuffle_permutation};
use crate::schedule::multiphase_schedule;
use mce_simnet::{Op, Program, Tag};
use std::sync::Arc;

/// Options controlling program generation, mostly for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Exchange zero-byte pairwise synchronization messages before
    /// each data exchange (Section 7.2). Disabling this reproduces the
    /// NIC-serialization penalty.
    pub pairwise_sync: bool,
    /// Execute a global synchronization after posting each phase's
    /// receives (Section 7.3). Disabling it with FORCED messages is
    /// "fatal" (dropped messages, deadlock) whenever nodes drift.
    pub barrier_per_phase: bool,
    /// Insert `Mark` ops labelling phase boundaries for per-phase
    /// timing breakdowns.
    pub marks: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { pairwise_sync: true, barrier_per_phase: true, marks: true }
    }
}

/// Compile the multiphase complete exchange with partition `dims`
/// (phase order as given; phase 1 routes the top `dims[0]` bits) and
/// block size `m` bytes into one [`Program`] per node.
///
/// Node memories must be `2^d * m` bytes, laid out destination-major:
/// slot `q` holds the block bound for node `q`. On completion slot `p`
/// holds the block received from node `p`.
pub fn build_multiphase_programs(d: u32, dims: &[u32], m: usize) -> Vec<Program> {
    build_with_options(d, dims, m, BuildOptions::default())
}

/// The Standard Exchange algorithm: multiphase with `{1,1,...,1}`.
pub fn build_standard_exchange_programs(d: u32, m: usize) -> Vec<Program> {
    build_multiphase_programs(d, &vec![1; d as usize], m)
}

/// The Optimal Circuit Switched algorithm: multiphase with `{d}`.
pub fn build_optimal_cs_programs(d: u32, m: usize) -> Vec<Program> {
    build_multiphase_programs(d, &[d], m)
}

/// Full-control builder (see [`BuildOptions`]).
pub fn build_with_options(d: u32, dims: &[u32], m: usize, opts: BuildOptions) -> Vec<Program> {
    assert!(d >= 1, "need at least a 1-dimensional cube");
    assert!(m >= 1, "block size must be positive");
    let n = 1usize << d;
    let schedule = multiphase_schedule(d, dims);
    // One shuffle table per phase, shared by every node's Permute op
    // (`None` = identity shuffle, no op emitted): the shuffle is
    // node-independent, so sharing keeps generation O(2^d) bytes and
    // lets the compile pass validate each distinct permutation once.
    let phase_perms: Vec<Option<Arc<Vec<u32>>>> = schedule
        .iter()
        .map(|phase| {
            let di = phase.field.width();
            (!shuffle_is_identity(d, di)).then(|| Arc::new(shuffle_permutation(d, di)))
        })
        .collect();
    let mut programs = Vec::with_capacity(n);
    for x in 0..n as u32 {
        let mut ops = Vec::new();
        for (phase, phase_perm) in schedule.iter().zip(&phase_perms) {
            let pi = phase.phase;
            if opts.marks {
                ops.push(Op::Mark { label: pi });
            }
            let sb_bytes = phase.superblock_blocks * m;
            // Post all receives for this phase.
            for (j, _) in phase.steps.iter().enumerate() {
                let partner = phase.partner(x.into(), j);
                let sb = phase.superblock_index(x.into(), j) as usize;
                let range = sb * sb_bytes..(sb + 1) * sb_bytes;
                if opts.pairwise_sync {
                    ops.push(Op::post_recv(partner, Tag::sync(pi, j as u32 + 1), 0..0));
                }
                ops.push(Op::post_recv(partner, Tag::data(pi, j as u32 + 1), range));
            }
            if opts.barrier_per_phase {
                ops.push(Op::Barrier);
            }
            // Exchange steps.
            for (j, _) in phase.steps.iter().enumerate() {
                let partner = phase.partner(x.into(), j);
                let sb = phase.superblock_index(x.into(), j) as usize;
                let range = sb * sb_bytes..(sb + 1) * sb_bytes;
                if opts.pairwise_sync {
                    ops.push(Op::send_sync(partner, Tag::sync(pi, j as u32 + 1)));
                    ops.push(Op::wait_recv(partner, Tag::sync(pi, j as u32 + 1)));
                }
                ops.push(Op::send(partner, range, Tag::data(pi, j as u32 + 1)));
                ops.push(Op::wait_recv(partner, Tag::data(pi, j as u32 + 1)));
            }
            // Inter-phase shuffle.
            if let Some(perm) = phase_perm {
                ops.push(Op::Permute { perm: Arc::clone(perm), block_bytes: m });
            }
        }
        if opts.marks {
            ops.push(Op::Mark { label: schedule.len() as u32 });
        }
        programs.push(Program { ops });
    }
    programs
}

/// A deliberately naive all-to-all for the contention ablation: every
/// node sends its blocks to destinations in ring-offset order
/// (`dst = x + i mod n`) with no contention-avoiding schedule and no
/// pairwise synchronization — the pattern a programmer who "ignores
/// the details of the interconnection network" would write.
///
/// Memory layout: `2^d * m` bytes of send blocks followed by
/// `2^d * m` bytes of receive space (memories must be `2 * 2^d * m`
/// bytes). On completion, receive slot `p` holds the block from `p`.
pub fn build_naive_programs(d: u32, m: usize) -> Vec<Program> {
    assert!(d >= 1 && m >= 1);
    let n = 1usize << d;
    let half = n * m;
    let mut programs = Vec::with_capacity(n);
    for x in 0..n as u32 {
        let mut ops = Vec::new();
        // Post everything up front (FORCED discipline) and barrier.
        // Node `src` sends to us at its own step `i'` where
        // `(src + i') mod n = x`, and tags the message with `i'`.
        for i in 1..n as u32 {
            let src = (x + i) % n as u32;
            let step = (x + n as u32 - src) % n as u32;
            let range = half + src as usize * m..half + (src as usize + 1) * m;
            ops.push(Op::post_recv(src.into(), Tag::data(0, step), range));
        }
        ops.push(Op::Barrier);
        for i in 1..n as u32 {
            let dst = (x + i) % n as u32;
            ops.push(Op::send(
                dst.into(),
                dst as usize * m..(dst as usize + 1) * m,
                Tag::data(0, i),
            ));
        }
        for i in 1..n as u32 {
            let src = (x + i) % n as u32;
            let step = (x + n as u32 - src) % n as u32;
            ops.push(Op::wait_recv(src.into(), Tag::data(0, step)));
        }
        // Copy own block into its receive slot is skipped: x never
        // sends to itself, so receive slot x is left as-is.
        programs.push(Program { ops });
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_shapes() {
        let d = 4u32;
        let m = 8usize;
        let progs = build_multiphase_programs(d, &[2, 2], m);
        assert_eq!(progs.len(), 16);
        for p in &progs {
            // 2 phases × 3 steps each.
            assert_eq!(p.num_sends(), 2 * (3 + 3), "sync + data sends");
            // Bytes: 3 superblocks of 4 blocks × 8 B per phase.
            assert_eq!(p.bytes_sent(), 2 * 3 * 4 * 8);
            p.validate(16 * 8).unwrap();
        }
    }

    #[test]
    fn standard_and_ocs_are_special_cases() {
        let se = build_standard_exchange_programs(3, 4);
        let mp = build_multiphase_programs(3, &[1, 1, 1], 4);
        assert_eq!(se.len(), mp.len());
        assert_eq!(se[0].num_sends(), mp[0].num_sends());
        let ocs = build_optimal_cs_programs(3, 4);
        // 7 steps, sync + data each.
        assert_eq!(ocs[0].num_sends(), 14);
        // Single phase {3}: no Permute op (identity shuffle skipped).
        assert!(!ocs[0].ops.iter().any(|o| matches!(o, Op::Permute { .. })));
    }

    #[test]
    fn ablation_options_change_op_mix() {
        let base = build_with_options(3, &[3], 4, BuildOptions::default());
        let nosync = build_with_options(
            3,
            &[3],
            4,
            BuildOptions { pairwise_sync: false, ..Default::default() },
        );
        assert_eq!(nosync[0].num_sends(), base[0].num_sends() - 7, "7 sync sends dropped");
        let nobarrier = build_with_options(
            3,
            &[3],
            4,
            BuildOptions { barrier_per_phase: false, ..Default::default() },
        );
        assert!(!nobarrier[0].ops.iter().any(|o| matches!(o, Op::Barrier)));
    }

    #[test]
    fn naive_programs_validate() {
        let progs = build_naive_programs(3, 16);
        assert_eq!(progs.len(), 8);
        for p in &progs {
            assert_eq!(p.num_sends(), 7);
            p.validate(2 * 8 * 16).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn rejects_zero_block() {
        let _ = build_multiphase_programs(3, &[3], 0);
    }
}
