//! `SimArena::run_until` against the unbounded run it cuts short: over
//! random multiphase workloads (circuit and store-and-forward, with
//! and without jitter, with and without a hotspot ladder) and bounds
//! on both sides of the finish time, a bounded run yields a result
//! exactly when every program finishes by the bound, that result is
//! the unbounded run's, and an abandoned run leaves nothing behind in
//! the arena.

use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_hypercube::NodeId;
use mce_partitions::partitions;
use mce_simnet::conformance::hotspot_condition;
use mce_simnet::{MsgKind, Op, Program, SimArena, SimConfig, SimResult, SimTime, Tag};
use proptest::prelude::*;

/// What a finished bounded run must share with the unbounded one:
/// everything but the counters of background traffic (injections past
/// the bound are not simulated) and the scheduler's host telemetry.
fn assert_same_outcome(bounded: &SimResult, full: &SimResult) {
    assert_eq!(bounded.finish_time, full.finish_time);
    assert_eq!(bounded.node_finish, full.node_finish);
    assert!(bounded.memories == full.memories, "memories differ");
    let mut stats = full.stats.clone();
    stats.background_transmissions = bounded.stats.background_transmissions;
    stats.background_bytes = bounded.stats.background_bytes;
    stats.sched_peak_pending = bounded.stats.sched_peak_pending;
    assert_eq!(bounded.stats, stats);
    assert!(bounded.stats.background_transmissions <= full.stats.background_transmissions);
}

fn assert_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.finish_time, b.finish_time);
    assert_eq!(a.node_finish, b.node_finish);
    assert!(a.memories == b.memories, "memories differ");
    assert_eq!(a.stats, b.stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn a_bounded_run_is_the_unbounded_run_or_nothing(
        d in 3u32..=6,
        which_partition in 0usize..64,
        m in 1usize..48,
        saf in 0u8..2,
        jitter in 0u8..2,
        hotspot in 0u8..2,
        seed in 0u64..u64::MAX,
        bound_kind in 0u8..6,
    ) {
        let parts = partitions(d);
        let part = &parts[which_partition % parts.len()];
        let mut cfg = SimConfig::ipsc860(d);
        if saf == 1 {
            cfg = cfg.with_store_and_forward();
        }
        if jitter == 1 {
            cfg = cfg.with_jitter(0.05, seed);
        }
        if hotspot == 1 {
            cfg = cfg.with_netcond(hotspot_condition(d, 1 << (d - 1)));
        }
        let programs = build_multiphase_programs(d, part.parts(), m);
        let full = SimArena::new().run(&cfg, &programs, stamped_memories(d, m)).unwrap();
        let finish = full.finish_time.as_ns();
        let until = SimTime(match bound_kind {
            0 => 0,
            1 => finish - 1,
            2 => finish,
            3 => finish + 1,
            4 => seed % finish,
            _ => finish + seed % finish,
        });

        let mut arena = SimArena::new();
        let bounded = arena.run_until(&cfg, &programs, stamped_memories(d, m), until).unwrap();
        prop_assert_eq!(bounded.is_some(), full.finish_time <= until, "until {}", until);
        if let Some(bounded) = &bounded {
            assert_same_outcome(bounded, &full);
        }
        // Cut or finished, the arena's next run is a fresh arena's.
        let again = arena.run(&cfg, &programs, stamped_memories(d, m)).unwrap();
        assert_identical(&again, &full);
    }
}

#[test]
fn a_bounded_run_ignores_the_shard_count() {
    let (d, m) = (6u32, 24usize);
    let programs = build_multiphase_programs(d, &[3, 3], m);
    let sequential = SimConfig::ipsc860(d);
    let sharded = SimConfig::ipsc860(d).with_shards(4);
    let mut arena = SimArena::new();
    let unbounded = arena.run(&sharded, &programs, stamped_memories(d, m)).unwrap();
    assert!(unbounded.stats.shard_windows > 0, "the unbounded run does shard");
    let finish = unbounded.finish_time;
    for until in [SimTime(finish.as_ns() / 2), finish, SimTime(2 * finish.as_ns())] {
        let one = arena.run_until(&sequential, &programs, stamped_memories(d, m), until).unwrap();
        let four = arena.run_until(&sharded, &programs, stamped_memories(d, m), until).unwrap();
        assert_eq!(one.is_some(), finish <= until);
        assert_eq!(one.is_some(), four.is_some());
        if let (Some(one), Some(four)) = (one, four) {
            assert_identical(&one, &four);
            assert_eq!(four.stats.shard_windows, 0, "a bounded run stays sequential");
        }
    }
}

#[test]
fn payloads_nobody_waits_for_still_land_after_the_programs_finish() {
    // Store and forward releases the sender after the first hop, and
    // the receiver posts without waiting: every program is done long
    // before the payload reaches node 7's memory. A bound between the
    // two must not freeze the memories short of the delivery.
    let d = 3u32;
    let m = 64usize;
    let tag = Tag::data(0, 1);
    let mut programs = vec![Program::empty(); 1 << d];
    programs[0].ops.push(Op::Send { dst: NodeId(7), from: 0..m, tag, kind: MsgKind::Forced });
    programs[7].ops.push(Op::post_recv(NodeId(0), tag, 0..m));
    let memories = || (0..1u8 << d).map(|x| vec![x + 1; m]).collect::<Vec<_>>();
    let cfg = SimConfig::ipsc860(d).with_store_and_forward();
    let full = SimArena::new().run(&cfg, &programs, memories()).unwrap();
    assert_eq!(full.memories[7], vec![1u8; m], "the payload lands in the unbounded run");
    let bounded = SimArena::new()
        .run_until(&cfg, &programs, memories(), full.finish_time)
        .unwrap()
        .expect("every program finished by the bound");
    assert_identical(&bounded, &full);
}
