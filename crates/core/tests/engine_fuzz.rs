//! Fuzzing the two program executors against each other with random
//! (but deadlock-free) programs: the timed discrete-event engine and
//! the untimed lock-step executor must produce byte-identical final
//! memories for any program built from matched exchange pairs,
//! permutations, computes and barriers.

use mce_core::exec_data::execute;
use mce_hypercube::NodeId;
use mce_simnet::{Op, Program, SimArena, SimConfig, Tag};
use proptest::prelude::*;
use std::sync::Arc;

const MEM: usize = 256;
const BLOCK: usize = 16;
const NBLOCKS: usize = MEM / BLOCK;

/// Random deadlock-free round description for a d-cube: a dimension to
/// exchange across, plus a permutation/compute decoration.
#[derive(Debug, Clone)]
enum RoundKind {
    /// Pairwise exchange across `dim`, sending block `sb`, with
    /// pairwise sync first.
    Exchange { dim: u32, sb: usize },
    /// Every node rotates its block array by `r` block positions.
    Rotate { r: usize },
    /// Every node computes for `ns`.
    Compute { ns: u64 },
    /// Global barrier.
    Barrier,
}

fn arb_round(d: u32) -> impl Strategy<Value = RoundKind> {
    prop_oneof![
        (0..d, 0..NBLOCKS).prop_map(|(dim, sb)| RoundKind::Exchange { dim, sb }),
        (1..NBLOCKS).prop_map(|r| RoundKind::Rotate { r }),
        (1u64..50_000).prop_map(|ns| RoundKind::Compute { ns }),
        Just(RoundKind::Barrier),
    ]
}

/// Compile rounds into per-node programs. Exchanges post first, then a
/// barrier guards each exchange round (keeps FORCED messages safe for
/// arbitrary interleavings of computes).
fn compile(d: u32, rounds: &[RoundKind]) -> Vec<Program> {
    let n = 1usize << d;
    let mut programs: Vec<Program> = (0..n).map(|_| Program::empty()).collect();
    for (ri, round) in rounds.iter().enumerate() {
        let ri = ri as u32;
        match round {
            RoundKind::Exchange { dim, sb } => {
                for x in 0..n as u32 {
                    let partner = NodeId(x ^ (1 << dim));
                    let range = sb * BLOCK..(sb + 1) * BLOCK;
                    let ops = &mut programs[x as usize].ops;
                    ops.push(Op::post_recv(partner, Tag::sync(ri, 1), 0..0));
                    ops.push(Op::post_recv(partner, Tag::data(ri, 1), range.clone()));
                    ops.push(Op::Barrier);
                    ops.push(Op::send_sync(partner, Tag::sync(ri, 1)));
                    ops.push(Op::wait_recv(partner, Tag::sync(ri, 1)));
                    ops.push(Op::send(partner, range, Tag::data(ri, 1)));
                    ops.push(Op::wait_recv(partner, Tag::data(ri, 1)));
                }
            }
            RoundKind::Rotate { r } => {
                let perm: Arc<Vec<u32>> = Arc::new(
                    (0..NBLOCKS as u32).map(|i| (i + *r as u32) % NBLOCKS as u32).collect(),
                );
                for p in programs.iter_mut() {
                    p.ops.push(Op::Permute { perm: Arc::clone(&perm), block_bytes: BLOCK });
                }
            }
            RoundKind::Compute { ns } => {
                // Nodes compute different amounts: stresses alignment.
                for (i, p) in programs.iter_mut().enumerate() {
                    p.ops.push(Op::Compute { ns: ns + i as u64 * 97 });
                }
            }
            RoundKind::Barrier => {
                for p in programs.iter_mut() {
                    p.ops.push(Op::Barrier);
                }
            }
        }
    }
    programs
}

fn initial_memories(d: u32, seed: u64) -> Vec<Vec<u8>> {
    let n = 1usize << d;
    (0..n)
        .map(|x| {
            (0..MEM)
                .map(|k| {
                    let mut z = seed ^ ((x as u64) << 32) ^ k as u64;
                    z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (z >> 32) as u8
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Timed and untimed executors agree bit-for-bit on random
    /// programs, and the timed engine never drops or contends.
    #[test]
    fn executors_agree_on_random_programs(
        d in 1u32..=4,
        rounds in proptest::collection::vec(arb_round(4), 1..12),
        seed in 0u64..u64::MAX,
    ) {
        // Clamp exchange dims into range for the drawn d.
        let rounds: Vec<RoundKind> = rounds
            .into_iter()
            .map(|r| match r {
                RoundKind::Exchange { dim, sb } => RoundKind::Exchange { dim: dim % d, sb },
                other => other,
            })
            .collect();
        let programs = compile(d, &rounds);
        let mems = initial_memories(d, seed);
        let via_exec = execute(&programs, mems.clone()).unwrap();
        let result = SimArena::new().run(&SimConfig::ipsc860(d), &programs, mems).unwrap();
        prop_assert_eq!(via_exec, result.memories);
        prop_assert_eq!(result.stats.forced_drops, 0);
        prop_assert_eq!(result.stats.edge_contention_events, 0, "dim exchanges are neighbours");
    }

    /// Jitter perturbs timing but never data: the jittered engine's
    /// final memories match the untimed executor too (pairwise sync
    /// keeps the in-place exchange safe under drift).
    #[test]
    fn jitter_never_corrupts_data(
        rounds in proptest::collection::vec(arb_round(3), 1..8),
        seed in 0u64..u64::MAX,
    ) {
        let d = 3u32;
        let programs = compile(d, &rounds);
        let mems = initial_memories(d, seed);
        let via_exec = execute(&programs, mems.clone()).unwrap();
        let cfg = SimConfig::ipsc860(d).with_jitter(0.10, seed);
        let result = SimArena::new().run(&cfg, &programs, mems).unwrap();
        prop_assert_eq!(via_exec, result.memories);
    }
}
