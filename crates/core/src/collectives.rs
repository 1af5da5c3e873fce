//! Multiphase builders for the other §9 communication patterns:
//! all-to-all broadcast (allgather), one-to-all personalized
//! (scatter) and one-to-all broadcast.
//!
//! The paper closes by asking how these patterns respond to the
//! multiphase technique. Each builder accepts an arbitrary partition
//! of `d`, with `{1,…,1}` giving the classical binomial-tree /
//! recursive-doubling algorithms and `{d}` the flat circuit-switched
//! ones. The cost models live in `mce_model::patterns`; the empirical
//! finding (verified in the tests and reported in EXPERIMENTS.md) is
//! that unlike the complete exchange these three patterns have
//! *degenerate hulls* — `{1,…,1}` is optimal at every block size —
//! because their neighbour algorithms already move the minimum byte
//! count.
//!
//! Conventions: the root is node 0 for rooted patterns; allgather
//! phases consume label fields LSB→MSB (incoming regions stay
//! contiguous, no shuffles needed); rooted patterns consume MSB→LSB.

use crate::verify::check_slot;
use mce_hypercube::NodeId;
use mce_simnet::{Op, Program, Tag};

/// Multiphase **allgather**: every node starts with its own `m`-byte
/// block at slot `self` of an `2^d * m`-byte source-major array and
/// ends with all `2^d` blocks.
pub fn build_allgather_programs(d: u32, dims: &[u32], m: usize) -> Vec<Program> {
    let total: u32 = dims.iter().sum();
    assert_eq!(total, d, "partition {dims:?} does not sum to {d}");
    assert!(m >= 1);
    let n = 1usize << d;
    let mut programs = Vec::with_capacity(n);
    for x in 0..n as u32 {
        let mut ops = Vec::new();
        // Post every receive up front (incoming regions are disjoint
        // across phases), then one global synchronization.
        let mut lo = 0u32;
        for (pi, &w) in dims.iter().rev().enumerate() {
            let pi = pi as u32;
            let region_blocks = 1usize << lo;
            for j in 1..(1u32 << w) {
                let partner = NodeId(x ^ (j << lo));
                let p_base = ((partner.0 >> lo) << lo) as usize;
                ops.push(Op::post_recv(partner, Tag::sync(pi, j), 0..0));
                ops.push(Op::post_recv(
                    partner,
                    Tag::data(pi, j),
                    p_base * m..(p_base + region_blocks) * m,
                ));
            }
            lo += w;
        }
        ops.push(Op::Barrier);
        // LSB-first phase order.
        lo = 0;
        for (pi, &w) in dims.iter().rev().enumerate() {
            let pi = pi as u32;
            let region_blocks = 1usize << lo;
            let my_base = ((x >> lo) << lo) as usize;
            for j in 1..(1u32 << w) {
                let partner = NodeId(x ^ (j << lo));
                ops.push(Op::send_sync(partner, Tag::sync(pi, j)));
                ops.push(Op::wait_recv(partner, Tag::sync(pi, j)));
                ops.push(Op::send(
                    partner,
                    my_base * m..(my_base + region_blocks) * m,
                    Tag::data(pi, j),
                ));
                ops.push(Op::wait_recv(partner, Tag::data(pi, j)));
            }
            lo += w;
        }
        programs.push(Program { ops });
    }
    programs
}

/// Multiphase **scatter** from root 0: the root starts with `2^d`
/// blocks in destination-major order; node `q` ends with its block at
/// slot `q`. All nodes carry `2^d * m`-byte arrays (intermediate
/// holders stage sub-tree portions in place).
pub fn build_scatter_programs(d: u32, dims: &[u32], m: usize) -> Vec<Program> {
    let total: u32 = dims.iter().sum();
    assert_eq!(total, d, "partition {dims:?} does not sum to {d}");
    assert!(m >= 1);
    let n = 1usize << d;
    let mut programs = Vec::with_capacity(n);
    for x in 0..n as u32 {
        let mut ops = Vec::new();
        // A node receives exactly once: in the phase where its label's
        // highest unprocessed field becomes processed. Post that
        // receive, barrier once, then forward down the remaining
        // phases (pipelined; no per-phase barriers needed).
        let mut lo = d;
        let mut my_recv: Option<(NodeId, Tag)> = None;
        for (pi, &w) in dims.iter().enumerate() {
            let pi = pi as u32;
            lo -= w;
            let field_mask = ((1u32 << w) - 1) << lo;
            let processed_mask = !((1u64 << (lo + w)) as u32).wrapping_sub(1);
            let portion_blocks = 1usize << lo;
            let is_holder = x & !processed_mask == 0;
            let becomes_holder = !is_holder && (x & !(processed_mask | field_mask)) == 0;
            if becomes_holder {
                let sender = NodeId(x & !field_mask);
                let t = (x & field_mask) >> lo;
                let base = x as usize; // x already has zero bits below lo
                ops.push(Op::post_recv(
                    sender,
                    Tag::data(pi, t),
                    base * m..(base + portion_blocks) * m,
                ));
                my_recv = Some((sender, Tag::data(pi, t)));
            }
        }
        ops.push(Op::Barrier);
        lo = d;
        for (pi, &w) in dims.iter().enumerate() {
            let pi = pi as u32;
            lo -= w;
            let field_mask = ((1u32 << w) - 1) << lo;
            let processed_mask = !((1u64 << (lo + w)) as u32).wrapping_sub(1);
            let portion_blocks = 1usize << lo;
            let is_holder = x & !processed_mask == 0;
            let becomes_holder = !is_holder && (x & !(processed_mask | field_mask)) == 0;
            if becomes_holder {
                let (sender, tag) = my_recv.expect("post recorded above");
                ops.push(Op::wait_recv(sender, tag));
            }
            if is_holder {
                for t in 1..(1u32 << w) {
                    let dst = NodeId(x | (t << lo));
                    let base = dst.0 as usize;
                    ops.push(Op::send(
                        dst,
                        base * m..(base + portion_blocks) * m,
                        Tag::data(pi, t),
                    ));
                }
            }
        }
        programs.push(Program { ops });
    }
    programs
}

/// Multiphase **broadcast** from root 0: every node ends with the
/// root's `m`-byte message (node memories are `m` bytes).
pub fn build_broadcast_programs(d: u32, dims: &[u32], m: usize) -> Vec<Program> {
    let total: u32 = dims.iter().sum();
    assert_eq!(total, d, "partition {dims:?} does not sum to {d}");
    assert!(m >= 1);
    let n = 1usize << d;
    let mut programs = Vec::with_capacity(n);
    for x in 0..n as u32 {
        let mut ops = Vec::new();
        let mut lo = d;
        let mut my_recv: Option<(NodeId, Tag)> = None;
        for (pi, &w) in dims.iter().enumerate() {
            let pi = pi as u32;
            lo -= w;
            let field_mask = ((1u32 << w) - 1) << lo;
            let processed_mask = !((1u64 << (lo + w)) as u32).wrapping_sub(1);
            let is_holder = x & !processed_mask == 0;
            let becomes_holder = !is_holder && (x & !(processed_mask | field_mask)) == 0;
            if becomes_holder {
                let sender = NodeId(x & !field_mask);
                let t = (x & field_mask) >> lo;
                ops.push(Op::post_recv(sender, Tag::data(pi, t), 0..m));
                my_recv = Some((sender, Tag::data(pi, t)));
            }
        }
        ops.push(Op::Barrier);
        lo = d;
        for (pi, &w) in dims.iter().enumerate() {
            let pi = pi as u32;
            lo -= w;
            let field_mask = ((1u32 << w) - 1) << lo;
            let processed_mask = !((1u64 << (lo + w)) as u32).wrapping_sub(1);
            let is_holder = x & !processed_mask == 0;
            let becomes_holder = !is_holder && (x & !(processed_mask | field_mask)) == 0;
            if becomes_holder {
                let (sender, tag) = my_recv.expect("post recorded above");
                ops.push(Op::wait_recv(sender, tag));
            }
            if is_holder {
                for t in 1..(1u32 << w) {
                    let dst = NodeId(x | (t << lo));
                    ops.push(Op::send(dst, 0..m, Tag::data(pi, t)));
                }
            }
        }
        programs.push(Program { ops });
    }
    programs
}

/// Initial memories for allgather: node `x` holds its stamped block at
/// slot `x`, zeros elsewhere.
pub fn allgather_memories(d: u32, m: usize) -> Vec<Vec<u8>> {
    let n = 1usize << d;
    (0..n)
        .map(|x| {
            let mut mem = vec![0u8; n * m];
            crate::verify::fill_block(
                &mut mem[x * m..(x + 1) * m],
                NodeId(x as u32),
                NodeId(x as u32),
            );
            mem
        })
        .collect()
}

/// Verify allgather: every node holds block `(q -> q)` at slot `q`.
/// A missing node or a short memory fails the check (as for the two
/// verifiers below).
pub fn verify_allgather(d: u32, m: usize, memories: &[Vec<u8>]) -> bool {
    let n = 1usize << d;
    (0..n).all(|x| {
        (0..n).all(|q| {
            let own = NodeId(q as u32);
            check_slot(memories, x, q.saturating_mul(m), m, own, own).is_none()
        })
    })
}

/// Initial memories for scatter: root 0 holds stamped block `(0 -> q)`
/// at slot `q`; all other nodes zeroed.
pub fn scatter_memories(d: u32, m: usize) -> Vec<Vec<u8>> {
    let n = 1usize << d;
    let mut memories = vec![vec![0u8; n * m]; n];
    for q in 0..n {
        crate::verify::fill_block(
            &mut memories[0][q * m..(q + 1) * m],
            NodeId(0),
            NodeId(q as u32),
        );
    }
    memories
}

/// Verify scatter: node `q` holds block `(0 -> q)` at slot `q`.
pub fn verify_scatter(d: u32, m: usize, memories: &[Vec<u8>]) -> bool {
    (0..1usize << d).all(|q| {
        check_slot(memories, q, q.saturating_mul(m), m, NodeId(0), NodeId(q as u32)).is_none()
    })
}

/// Initial memories for broadcast: root 0 holds the stamped message.
pub fn broadcast_memories(d: u32, m: usize) -> Vec<Vec<u8>> {
    let n = 1usize << d;
    let mut memories = vec![vec![0u8; m]; n];
    crate::verify::fill_block(&mut memories[0], NodeId(0), NodeId(0));
    memories
}

/// Verify broadcast: every node holds the root's `m`-byte message.
pub fn verify_broadcast(d: u32, m: usize, memories: &[Vec<u8>]) -> bool {
    (0..1usize << d).all(|x| check_slot(memories, x, 0, m, NodeId(0), NodeId(0)).is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_model::patterns::{allgather_time, broadcast_time, scatter_time};
    use mce_model::MachineParams;
    use mce_simnet::batch::SimBatch;
    use mce_simnet::{Program, SimArena, SimConfig, SimResult};
    use std::sync::Arc;

    fn all_test_partitions(d: u32) -> Vec<Vec<u32>> {
        mce_partitions::partitions(d).into_iter().map(|p| p.parts().to_vec()).collect()
    }

    /// One batched run per partition of `d`: every partition's plan is
    /// an independent simulation, so the whole per-partition sweep
    /// executes as one SimBatch.
    fn run_per_partition(
        d: u32,
        build: impl Fn(&[u32]) -> (Vec<Program>, Vec<Vec<u8>>),
    ) -> Vec<(Vec<u32>, SimResult)> {
        let dims_list = all_test_partitions(d);
        let mut batch = SimBatch::new(SimConfig::ipsc860(d));
        for dims in &dims_list {
            let (programs, memories) = build(dims);
            batch.push_run(Arc::new(programs), memories);
        }
        dims_list
            .into_iter()
            .zip(batch.run())
            .map(|(dims, r)| {
                let r = r.unwrap_or_else(|e| panic!("dims {dims:?}: {e}"));
                (dims, r)
            })
            .collect()
    }

    #[test]
    fn allgather_correct_and_priced_for_every_partition() {
        let d = 4u32;
        let m = 16usize;
        let params = MachineParams::ipsc860();
        let runs = run_per_partition(d, |dims| {
            (build_allgather_programs(d, dims, m), allgather_memories(d, m))
        });
        for (dims, r) in runs {
            assert!(verify_allgather(d, m, &r.memories), "dims {dims:?} wrong data");
            let predicted = allgather_time(&params, m as f64, d, &dims);
            let err = (r.finish_time.as_us() - predicted).abs() / predicted;
            assert!(err < 0.02, "dims {dims:?}: sim {} model {predicted}", r.finish_time.as_us());
        }
    }

    #[test]
    fn scatter_correct_and_priced_for_every_partition() {
        let d = 4u32;
        let m = 16usize;
        let params = MachineParams::ipsc860();
        let runs = run_per_partition(d, |dims| {
            (build_scatter_programs(d, dims, m), scatter_memories(d, m))
        });
        for (dims, r) in runs {
            assert!(verify_scatter(d, m, &r.memories), "dims {dims:?} wrong data");
            let predicted = scatter_time(&params, m as f64, d, &dims);
            let err = (r.finish_time.as_us() - predicted).abs() / predicted;
            assert!(err < 0.02, "dims {dims:?}: sim {} model {predicted}", r.finish_time.as_us());
        }
    }

    #[test]
    fn broadcast_correct_and_priced_for_every_partition() {
        let d = 4u32;
        let m = 64usize;
        let params = MachineParams::ipsc860();
        let runs = run_per_partition(d, |dims| {
            (build_broadcast_programs(d, dims, m), broadcast_memories(d, m))
        });
        for (dims, r) in runs {
            assert!(verify_broadcast(d, m, &r.memories), "dims {dims:?} wrong data");
            let predicted = broadcast_time(&params, m as f64, d, &dims);
            let err = (r.finish_time.as_us() - predicted).abs() / predicted;
            assert!(err < 0.02, "dims {dims:?}: sim {} model {predicted}", r.finish_time.as_us());
        }
    }

    #[test]
    fn rooted_patterns_work_on_larger_cubes() {
        let d = 6u32;
        let m = 8usize;
        for dims in [vec![1u32; 6], vec![6], vec![3, 3], vec![2, 2, 2]] {
            let cfg = SimConfig::ipsc860(d);
            let programs = build_scatter_programs(d, &dims, m);
            let r = SimArena::new().run(&cfg, &programs, scatter_memories(d, m)).unwrap();
            assert!(verify_scatter(d, m, &r.memories), "{dims:?}");
            let programs = build_broadcast_programs(d, &dims, m);
            let r = SimArena::new().run(&cfg, &programs, broadcast_memories(d, m)).unwrap();
            assert!(verify_broadcast(d, m, &r.memories), "{dims:?}");
        }
    }

    #[test]
    fn allgather_matches_data_executor() {
        let d = 5u32;
        let m = 4usize;
        for dims in [vec![1u32; 5], vec![5], vec![2, 3]] {
            let programs = build_allgather_programs(d, &dims, m);
            let via_exec = crate::exec_data::execute(&programs, allgather_memories(d, m)).unwrap();
            assert!(verify_allgather(d, m, &via_exec), "{dims:?}");
        }
    }

    #[test]
    fn verifiers_fail_on_missing_or_short_memories() {
        let (d, m) = (2u32, 8usize);
        let run = |programs: Vec<Program>, memories| {
            crate::exec_data::execute(&programs, memories).unwrap()
        };
        type Verifier = fn(u32, usize, &[Vec<u8>]) -> bool;
        let cases: [(Vec<Vec<u8>>, Verifier); 3] = [
            (run(build_allgather_programs(d, &[2], m), allgather_memories(d, m)), verify_allgather),
            (run(build_scatter_programs(d, &[2], m), scatter_memories(d, m)), verify_scatter),
            (run(build_broadcast_programs(d, &[2], m), broadcast_memories(d, m)), verify_broadcast),
        ];
        for (i, (mems, verify)) in cases.into_iter().enumerate() {
            assert!(verify(d, m, &mems), "case {i}");
            let mut short = mems.clone();
            short[3].pop(); // the last byte every pattern delivers to node 3
            assert!(!verify(d, m, &short), "case {i}: truncated memory");
            assert!(!verify(d, m, &mems[..3]), "case {i}: missing node");
            assert!(verify(d, 0, &[]), "case {i}: nothing to deliver at m = 0");
        }
    }

    #[test]
    fn contention_free_throughout() {
        // No pattern run may record an edge contention event: all nine
        // (partition, pattern) combinations in one batch.
        let d = 5u32;
        let m = 32usize;
        let mut batch = SimBatch::new(SimConfig::ipsc860(d));
        let mut labels = Vec::new();
        for dims in [vec![1u32; 5], vec![5], vec![2, 3]] {
            for (programs, memories) in [
                (build_allgather_programs(d, &dims, m), allgather_memories(d, m)),
                (build_scatter_programs(d, &dims, m), scatter_memories(d, m)),
                (build_broadcast_programs(d, &dims, m), broadcast_memories(d, m)),
            ] {
                batch.push_run(Arc::new(programs), memories);
                labels.push(dims.clone());
            }
        }
        for (dims, r) in labels.into_iter().zip(batch.run()) {
            let r = r.unwrap();
            assert_eq!(r.stats.edge_contention_events, 0, "{dims:?}");
            assert_eq!(r.stats.forced_drops, 0, "{dims:?}");
        }
    }
}
