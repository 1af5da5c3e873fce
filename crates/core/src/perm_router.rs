//! Contention-free scheduling of arbitrary permutations.
//!
//! The paper's §9 poses as "an open theoretical issue" whether an
//! efficient multiphase-style algorithm exists "for a given arbitrary
//! communication requirement". This module gives the practical
//! engineering answer for permutations (the building block of any
//! requirement): decompose the circuit set into **rounds** of mutually
//! edge-disjoint e-cube paths by greedy first-fit colouring, and run
//! one round per barrier-separated step. Every XOR-relative
//! permutation needs exactly one round (the Schmiermund–Seidel case);
//! adversarial permutations like bit reversal need several.
//!
//! The empirical answer the simulator gives (see the tests and
//! EXPERIMENTS.md): round scheduling eliminates edge contention and
//! makes latency deterministic (`rounds × (λ + τm + δh + barrier)`),
//! but on a machine with the iPSC-860's expensive global
//! synchronization the *work-conserving FIFO serialization* of the
//! unscheduled run is often faster in wall-clock terms for a one-shot
//! permutation. Scheduling pays when the barrier can be amortized —
//! repeated permutations, or patterns dense enough that every round
//! is full — which is exactly why the complete-exchange schedules
//! (every step a full permutation) are the profitable case.

use crate::verify::check_slot;
use mce_hypercube::contention::analyze_permutation;
use mce_hypercube::routing::{ecube_path, DirectedLink};
use mce_hypercube::NodeId;
use mce_simnet::{Op, Program, Tag};

/// A round: pairs `(src, dst)` whose e-cube circuits are mutually
/// edge-disjoint and may be established concurrently.
pub type Round = Vec<(NodeId, NodeId)>;

/// Greedily decompose a permutation into contention-free rounds.
///
/// `perm[x]` is the destination of node `x`; fixed points are skipped.
/// Pairs are considered in node order and placed into the first round
/// whose links they do not touch — first-fit graph colouring on the
/// conflict graph, at most `Δ + 1` rounds where `Δ` is the maximum
/// number of circuits any circuit conflicts with.
pub fn greedy_rounds(perm: &[NodeId]) -> Vec<Round> {
    // Per-round occupancy as a flat bitmask over all directed links:
    // bit `from·d + dimension`. Membership tests are single word ops
    // instead of hash lookups, which is what makes the first-fit scan
    // cheap for large cubes. The index space is sized from the widest
    // node label actually present, so irregular inputs (sparse or
    // oversized destinations) stay in bounds.
    if perm.is_empty() {
        return Vec::new();
    }
    let max_label =
        perm.iter().map(|p| p.0).chain(std::iter::once(perm.len() as u32 - 1)).max().unwrap_or(0);
    let d = (32 - max_label.leading_zeros()).max(1) as usize;
    if d > mce_hypercube::MAX_DIMENSION as usize {
        // Degenerate labels (beyond any constructible cube) would blow
        // up the dense index space; fall back to set-based occupancy.
        return greedy_rounds_sparse(perm);
    }
    let words = ((1usize << d) * d).div_ceil(64);
    let link_bit = |l: &DirectedLink| -> usize { l.from.0 as usize * d + l.dimension() as usize };
    let mut rounds: Vec<(Round, Vec<u64>)> = Vec::new();
    let mut links: Vec<DirectedLink> = Vec::with_capacity(d);
    for (x, &dst) in perm.iter().enumerate() {
        let src = NodeId(x as u32);
        if src == dst {
            continue;
        }
        links.clear();
        links.extend(ecube_path(src, dst).links());
        let slot = rounds.iter().position(|(_, used)| {
            links.iter().all(|l| {
                let bit = link_bit(l);
                used[bit / 64] & (1u64 << (bit % 64)) == 0
            })
        });
        let i = match slot {
            Some(i) => i,
            None => {
                rounds.push((Vec::new(), vec![0u64; words]));
                rounds.len() - 1
            }
        };
        rounds[i].0.push((src, dst));
        for l in &links {
            let bit = link_bit(l);
            rounds[i].1[bit / 64] |= 1u64 << (bit % 64);
        }
    }
    rounds.into_iter().map(|(r, _)| r).collect()
}

/// Set-based first-fit identical to [`greedy_rounds`], used when node
/// labels exceed every constructible cube dimension.
fn greedy_rounds_sparse(perm: &[NodeId]) -> Vec<Round> {
    use std::collections::HashSet;
    let mut rounds: Vec<(Round, HashSet<DirectedLink>)> = Vec::new();
    for (x, &dst) in perm.iter().enumerate() {
        let src = NodeId(x as u32);
        if src == dst {
            continue;
        }
        let links: Vec<DirectedLink> = ecube_path(src, dst).links().collect();
        let slot = rounds.iter().position(|(_, used)| links.iter().all(|l| !used.contains(l)));
        match slot {
            Some(i) => {
                rounds[i].0.push((src, dst));
                rounds[i].1.extend(links);
            }
            None => {
                let mut used = HashSet::new();
                used.extend(links);
                rounds.push((vec![(src, dst)], used));
            }
        }
    }
    rounds.into_iter().map(|(r, _)| r).collect()
}

/// Lower bound on the number of rounds any schedule needs: the
/// maximum number of circuits sharing one directed link.
pub fn round_lower_bound(perm: &[NodeId]) -> usize {
    analyze_permutation(perm).max_link_load
}

/// Compile a scheduled permutation into per-node programs: all
/// receives posted, one barrier, then one send per round with barriers
/// between rounds. Each node's `m`-byte message sits at offset 0 and
/// is delivered to offset `m` of its destination (so sources that are
/// also destinations keep their outgoing data intact).
pub fn build_permutation_programs(d: u32, perm: &[NodeId], m: usize) -> Vec<Program> {
    let n = 1usize << d;
    assert_eq!(perm.len(), n, "permutation must cover all nodes");
    assert!(m >= 1);
    {
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(!seen[p.index()], "not a permutation");
            seen[p.index()] = true;
        }
    }
    let rounds = greedy_rounds(perm);
    let mut programs: Vec<Program> = (0..n).map(|_| Program::empty()).collect();
    // Posting pass: receiver learns its (sender, round) statically.
    for (ri, round) in rounds.iter().enumerate() {
        for &(src, dst) in round {
            programs[dst.index()].ops.push(Op::post_recv(src, Tag::data(ri as u32, 1), m..2 * m));
        }
    }
    for p in programs.iter_mut() {
        p.ops.push(Op::Barrier);
    }
    // Round passes, barrier-separated so rounds never overlap.
    for (ri, round) in rounds.iter().enumerate() {
        for &(src, dst) in round {
            programs[src.index()].ops.push(Op::send(dst, 0..m, Tag::data(ri as u32, 1)));
        }
        for &(src, dst) in round {
            programs[dst.index()].ops.push(Op::wait_recv(src, Tag::data(ri as u32, 1)));
        }
        if ri + 1 < rounds.len() {
            for p in programs.iter_mut() {
                p.ops.push(Op::Barrier);
            }
        }
    }
    programs
}

/// A naive single-shot version of the same permutation (everyone sends
/// immediately), for contention comparisons.
pub fn build_unscheduled_permutation_programs(d: u32, perm: &[NodeId], m: usize) -> Vec<Program> {
    let n = 1usize << d;
    assert_eq!(perm.len(), n);
    let mut programs: Vec<Program> = (0..n).map(|_| Program::empty()).collect();
    for (x, &dst) in perm.iter().enumerate() {
        let src = NodeId(x as u32);
        if src == dst {
            continue;
        }
        programs[dst.index()].ops.push(Op::post_recv(src, Tag::data(0, 1), m..2 * m));
    }
    for p in programs.iter_mut() {
        p.ops.push(Op::Barrier);
    }
    for (x, &dst) in perm.iter().enumerate() {
        let src = NodeId(x as u32);
        if src == dst {
            continue;
        }
        programs[x].ops.push(Op::send(dst, 0..m, Tag::data(0, 1)));
    }
    // Wait passes: each node waits for its inbound message if any.
    // The inverse permutation is built once instead of an O(n²)
    // `position` probe per node.
    let mut inverse = vec![0usize; n];
    for (x, &dst) in perm.iter().enumerate() {
        inverse[dst.index()] = x;
    }
    #[allow(clippy::needless_range_loop)] // x is a node label
    for x in 0..n {
        let inbound = inverse[x];
        if inbound != x {
            programs[x].ops.push(Op::wait_recv(NodeId(inbound as u32), Tag::data(0, 1)));
        }
    }
    programs
}

/// The bit-reversal permutation, a classic e-cube adversary.
pub fn bit_reversal(d: u32) -> Vec<NodeId> {
    (0..1u32 << d).map(|x| NodeId(x.reverse_bits() >> (32 - d))).collect()
}

/// Initial memories for a permutation run: sender's stamped block at
/// offset 0, receive space at offset `m`.
pub fn permutation_memories(d: u32, perm: &[NodeId], m: usize) -> Vec<Vec<u8>> {
    let n = 1usize << d;
    (0..n)
        .map(|x| {
            let mut mem = vec![0u8; 2 * m];
            crate::verify::fill_block(&mut mem[..m], NodeId(x as u32), perm[x]);
            mem
        })
        .collect()
}

/// Verify a permutation run: node `π(x)` holds block `(x -> π(x))` at
/// offset `m`. A destination missing from `memories`, or one whose
/// memory is shorter than `2m`, fails the check.
pub fn verify_permutation(perm: &[NodeId], m: usize, memories: &[Vec<u8>]) -> bool {
    perm.iter().enumerate().all(|(x, &dst)| {
        let src = NodeId(x as u32);
        src == dst || check_slot(memories, dst.index(), m, m, src, dst).is_none()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_hypercube::contention::analyze;
    use mce_simnet::batch::SimBatch;
    use mce_simnet::{SimArena, SimConfig};
    use std::sync::Arc;

    fn xor_perm(d: u32, mask: u32) -> Vec<NodeId> {
        (0..1u32 << d).map(|x| NodeId(x ^ mask)).collect()
    }

    #[test]
    fn xor_permutations_need_one_round() {
        for d in 2..=6u32 {
            for mask in [1u32, 3, (1 << d) - 1] {
                let rounds = greedy_rounds(&xor_perm(d, mask));
                assert_eq!(rounds.len(), 1, "d={d} mask={mask:#b}");
            }
        }
    }

    #[test]
    fn rounds_are_edge_disjoint() {
        for perm in [bit_reversal(5), xor_perm(5, 13), shift_perm(5, 7)] {
            for round in greedy_rounds(&perm) {
                let paths: Vec<_> = round.iter().map(|&(s, t)| ecube_path(s, t)).collect();
                assert!(analyze(&paths).is_edge_contention_free());
            }
        }
    }

    fn shift_perm(d: u32, k: u32) -> Vec<NodeId> {
        let n = 1u32 << d;
        (0..n).map(|x| NodeId((x + k) % n)).collect()
    }

    #[test]
    fn rounds_cover_every_pair_once() {
        let perm = bit_reversal(6);
        let rounds = greedy_rounds(&perm);
        let mut seen = std::collections::HashSet::new();
        for round in &rounds {
            for &(s, t) in round {
                assert_eq!(perm[s.index()], t);
                assert!(seen.insert(s), "duplicate source {s}");
            }
        }
        let moving = perm.iter().enumerate().filter(|(x, p)| NodeId(*x as u32) != **p).count();
        assert_eq!(seen.len(), moving);
    }

    #[test]
    fn bit_reversal_needs_multiple_rounds_but_respects_lower_bound() {
        for d in 4..=7u32 {
            let perm = bit_reversal(d);
            let rounds = greedy_rounds(&perm);
            let lb = round_lower_bound(&perm);
            assert!(lb >= 2, "bit reversal contends, d={d}");
            assert!(rounds.len() >= lb, "d={d}");
            // Greedy should stay within a small factor of the bound.
            assert!(rounds.len() <= 4 * lb, "d={d}: {} rounds vs bound {lb}", rounds.len());
        }
    }

    #[test]
    fn scheduled_permutation_simulates_correctly() {
        // Three independent permutation runs: one batch.
        let m = 64usize;
        let perms = [bit_reversal(5), shift_perm(5, 11), xor_perm(5, 21)];
        let mut batch = SimBatch::new(SimConfig::ipsc860(5));
        for perm in &perms {
            batch.push_run(
                Arc::new(build_permutation_programs(5, perm, m)),
                permutation_memories(5, perm, m),
            );
        }
        for (perm, r) in perms.iter().zip(batch.run()) {
            let r = r.unwrap();
            assert!(verify_permutation(perm, m, &r.memories));
            assert_eq!(r.stats.edge_contention_events, 0, "rounds must not contend");
        }
    }

    #[test]
    fn scheduled_vs_unscheduled_trade_off() {
        let d = 6u32;
        let m = 800usize;
        let perm = bit_reversal(d);
        let mems = Arc::new(permutation_memories(d, &perm, m));
        let mut batch = SimBatch::new(SimConfig::ipsc860(d));
        batch.push_run(Arc::new(build_permutation_programs(d, &perm, m)), &mems);
        batch.push_run(Arc::new(build_unscheduled_permutation_programs(d, &perm, m)), &mems);
        let mut results = batch.run().into_iter().map(|r| {
            let r = r.unwrap();
            assert!(verify_permutation(&perm, m, &r.memories));
            (r.finish_time.as_us(), r.stats.edge_contention_events)
        });
        let (t_sched, c_sched) = results.next().unwrap();
        let (t_naive, c_naive) = results.next().unwrap();
        // Scheduling buys zero contention and deterministic latency...
        assert_eq!(c_sched, 0);
        assert!(c_naive > 0, "bit reversal must contend unscheduled");
        // ...and its time is predictable from the round structure.
        let rounds = greedy_rounds(&perm).len() as f64;
        let barrier = 150.0 * d as f64;
        let step_min = 95.0 + 0.394 * m as f64; // + δh varies per round
        assert!(t_sched >= rounds * (step_min + barrier) - 1.0);
        // On this machine the barrier makes one-shot scheduling dearer
        // than FIFO serialization — the honest §9 finding.
        assert!(t_naive < t_sched, "naive {t_naive} vs scheduled {t_sched}");
        // Without the barrier overhead the scheduled rounds would win:
        let transfer_only = rounds * (95.0 + 0.394 * m as f64 + 10.3 * 6.0);
        assert!(transfer_only < t_naive, "rounds at circuit speed beat serialization");
    }

    #[test]
    fn verifier_fails_on_missing_or_short_memories() {
        let m = 8usize;
        let perm = xor_perm(2, 3); // every node moves
        let mut mems = vec![vec![0u8; 2 * m]; 4];
        for (x, &dst) in perm.iter().enumerate() {
            crate::verify::fill_block(&mut mems[dst.index()][m..], NodeId(x as u32), dst);
        }
        assert!(verify_permutation(&perm, m, &mems));
        let mut short = mems.clone();
        short[2].pop();
        assert!(!verify_permutation(&perm, m, &short));
        assert!(!verify_permutation(&perm, m, &mems[..3]));
        assert!(verify_permutation(&perm, 0, &[]), "nothing to deliver at m = 0");
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert!(greedy_rounds(&[]).is_empty());
        // Labels beyond any constructible cube take the sparse path.
        let weird = vec![NodeId(3_000_000_000), NodeId(0)];
        let rounds = greedy_rounds(&weird);
        assert_eq!(rounds.iter().map(|r| r.len()).sum::<usize>(), 2);
    }

    #[test]
    fn fixed_points_are_free() {
        let d = 3u32;
        let ident: Vec<NodeId> = (0..8u32).map(NodeId).collect();
        assert!(greedy_rounds(&ident).is_empty());
        let programs = build_permutation_programs(d, &ident, 8);
        let mems = permutation_memories(d, &ident, 8);
        let r = SimArena::new().run(&SimConfig::ipsc860(d), &programs, mems).unwrap();
        // Only the barrier remains.
        assert!((r.finish_time.as_us() - 450.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutations() {
        let bad: Vec<NodeId> = (0..8).map(|_| NodeId(0)).collect();
        let _ = build_permutation_programs(3, &bad, 8);
    }
}
