//! `SimArena::run_until` against the unbounded run it cuts short: over
//! random multiphase workloads (circuit and store-and-forward, with
//! and without jitter, with and without a hotspot ladder) and bounds
//! on both sides of the finish time, a bounded run yields a result
//! exactly when every program finishes by the bound, that result is
//! the unbounded run's, and an abandoned run leaves nothing behind in
//! the arena. The price floor a bounded run cuts on
//! (`mce_simnet::finish_floor`) is checked against the finish time of
//! runs over a wider space: link factors below and above 1, faults with
//! dead pairs skipped, heavy jitter, staggered tenant jobs, `Compute`
//! ops and UNFORCED sends.

use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_hypercube::NodeId;
use mce_partitions::partitions;
use mce_simnet::conformance::hotspot_condition;
use mce_simnet::traffic::{compose_memories, compose_programs};
use mce_simnet::{
    finish_floor, Cable, JobSpec, MsgKind, NetCondition, Op, Program, SimArena, SimConfig,
    SimResult, SimTime, SpeedProfile, Tag,
};
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
        bound_kind in 0u8..7,
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
            5 => finish + seed % finish,
            _ => SimTime::HORIZON.as_ns(),
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

/// The knobs of one floor workload beyond the exchange itself.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    saf: bool,
    /// 0: none, 1: 5 %, 2: 50 %.
    jitter: u8,
    /// 0: nominal, 1: uniform, 2: seeded in [0.3, 2.5], 3: one cable
    /// overridden.
    speed: u8,
    hotspot: bool,
    /// One dead cable, its unroutable pairs skipped.
    fault: bool,
    /// Two copies of the exchange as tenant jobs, the second staggered.
    jobs: bool,
    /// Data sends UNFORCED instead of FORCED.
    unforced: bool,
    /// A `Compute` of a node-dependent length after every barrier.
    compute: bool,
    seed: u64,
}

/// A multiphase exchange at `d`, `parts`, `m` under the machine and
/// condition `k` describes: its config, programs and memories.
fn floor_workload(
    d: u32,
    parts: &[u32],
    m: usize,
    k: Knobs,
) -> (SimConfig, Vec<Program>, Vec<Vec<u8>>) {
    let n = 1u32 << d;
    let seed = k.seed;
    let mut programs = build_multiphase_programs(d, parts, m);
    for (x, program) in programs.iter_mut().enumerate() {
        let mut ops = Vec::with_capacity(program.ops.len());
        for op in program.ops.drain(..) {
            let barrier = matches!(op, Op::Barrier);
            ops.push(match op {
                Op::Send { dst, from, tag, .. } if k.unforced && !from.is_empty() => {
                    Op::Send { dst, from, tag, kind: MsgKind::Unforced }
                }
                op => op,
            });
            if barrier && k.compute {
                ops.push(Op::Compute { ns: (seed ^ x as u64) % 20_000 });
            }
        }
        program.ops = ops;
    }
    let mut memories = stamped_memories(d, m);
    let mut cfg = SimConfig::ipsc860(d);
    if k.saf {
        cfg = cfg.with_store_and_forward();
    }
    match k.jitter {
        0 => {}
        1 => cfg = cfg.with_jitter(0.05, seed),
        _ => cfg = cfg.with_jitter(0.5, seed),
    }
    let mut nc = if k.hotspot { hotspot_condition(d, n / 2) } else { NetCondition::default() };
    let factor = [0.25, 0.5, 2.0, 2.5][(seed % 4) as usize];
    match k.speed {
        0 => {}
        1 => nc.speed = SpeedProfile::Uniform(factor),
        2 => nc.speed = SpeedProfile::Seeded { min: 0.3, max: 2.5, seed },
        _ => {
            let cable = Cable::new(NodeId((seed >> 8) as u32 % n), (seed >> 16) as u32 % d);
            nc = nc.with_override(cable, factor);
        }
    }
    if k.fault {
        nc = nc.with_fault(NodeId((seed >> 24) as u32 % n), (seed >> 32) as u32 % d);
        nc = nc.with_skip_dead_pairs();
    }
    if k.hotspot || k.speed > 0 || k.fault {
        cfg = cfg.with_netcond(nc);
    }
    if k.jobs {
        cfg = cfg.with_jobs(vec![JobSpec::default(), JobSpec::at(seed % 400_000)]);
        programs = compose_programs(d, &[programs.clone(), programs]);
        memories = compose_memories(d, &[memories.clone(), memories]);
    }
    (cfg, programs, memories)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_floor_never_passes_the_finish_time(
        d in 2u32..=5,
        which_partition in 0usize..64,
        m in 1usize..48,
        saf in 0u8..2,
        jitter in 0u8..3,
        speed in 0u8..4,
        hotspot in 0u8..2,
        fault in 0u8..2,
        jobs in 0u8..2,
        unforced in 0u8..2,
        compute in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let parts = partitions(d);
        let part = &parts[which_partition % parts.len()];
        let knobs = Knobs {
            saf: saf == 1,
            jitter,
            speed,
            hotspot: hotspot == 1,
            fault: fault == 1,
            jobs: jobs == 1,
            unforced: unforced == 1,
            compute: compute == 1,
            seed,
        };
        let (cfg, programs, memories) = floor_workload(d, part.parts(), m, knobs);
        let floor = finish_floor(&cfg, &programs).unwrap();
        let full = SimArena::new().run(&cfg, &programs, memories.clone()).unwrap();
        prop_assert!(floor <= full.finish_time, "floor {} past finish {}", floor, full.finish_time);

        // The cut never fires on a run that finishes by its bound ...
        let mut arena = SimArena::new();
        let at_finish = arena.run_until(&cfg, &programs, memories.clone(), full.finish_time);
        assert_same_outcome(&at_finish.unwrap().expect("finishes at its own finish time"), &full);
        // ... and a bound below the floor is always a loss, after which
        // the arena's next run is a fresh arena's.
        if floor > SimTime::ZERO {
            let below = SimTime(floor.as_ns() - 1);
            let cut = arena.run_until(&cfg, &programs, memories.clone(), below).unwrap();
            prop_assert!(cut.is_none(), "a run finished before its floor");
        }
        let again = arena.run(&cfg, &programs, memories).unwrap();
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

#[test]
fn a_horizon_bound_stops_the_background_when_the_programs_finish() {
    // Dense hotspot ladders keep injecting long after these exchanges
    // are over (d7, 128 streams, {3,2,2}: 4 164 of 19 200 injections
    // start by the finish). Bounded by the horizon, a run is the
    // unbounded run up to the instant its last context finishes, and
    // simulates none of the background tail after it.
    let cases: [(u32, u32, usize, bool, &[u32]); 6] = [
        (6, 32, 24, false, &[2, 2, 2]),
        (6, 32, 24, false, &[1, 1, 1, 1, 1, 1]),
        (7, 128, 16, false, &[3, 2, 2]),
        (7, 128, 16, false, &[4, 3]),
        (5, 16, 32, true, &[3, 2]),
        (5, 16, 32, true, &[5]),
    ];
    for (d, streams, m, saf, part) in cases {
        let mut cfg = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, streams));
        if saf {
            cfg = cfg.with_store_and_forward();
        }
        let programs = build_multiphase_programs(d, part, m);
        let full = SimArena::new().run(&cfg, &programs, stamped_memories(d, m)).unwrap();
        let bounded = SimArena::new()
            .run_until(&cfg, &programs, stamped_memories(d, m), SimTime::HORIZON)
            .unwrap()
            .expect("a run that finishes finishes by the horizon");
        assert_same_outcome(&bounded, &full);
        assert!(
            bounded.stats.background_transmissions < full.stats.background_transmissions,
            "d{d} {part:?}: {} of {} background injections",
            bounded.stats.background_transmissions,
            full.stats.background_transmissions
        );
    }
}

#[test]
fn a_payload_nobody_waits_for_drains_only_its_own_work() {
    // The payload of `payloads_nobody_waits_for_still_land_after_the_
    // programs_finish`, under a hotspot ladder whose streams outlive it
    // by far: the bounded run lands the payload, contending with the
    // background exactly as the unbounded run does, and stops there.
    let d = 3u32;
    let m = 64usize;
    let tag = Tag::data(0, 1);
    let mut programs = vec![Program::empty(); 1 << d];
    programs[0].ops.push(Op::Send { dst: NodeId(7), from: 0..m, tag, kind: MsgKind::Forced });
    programs[7].ops.push(Op::post_recv(NodeId(0), tag, 0..m));
    let memories = || (0..1u8 << d).map(|x| vec![x + 1; m]).collect::<Vec<_>>();
    let cfg = SimConfig::ipsc860(d).with_store_and_forward().with_netcond(hotspot_condition(d, 8));
    let full = SimArena::new().run(&cfg, &programs, memories()).unwrap();
    assert_eq!(full.memories[7], vec![1u8; m], "the payload lands in the unbounded run");
    for until in [full.finish_time, SimTime::HORIZON] {
        let bounded = SimArena::new()
            .run_until(&cfg, &programs, memories(), until)
            .unwrap()
            .expect("every program finished by the bound");
        assert_same_outcome(&bounded, &full);
        assert!(bounded.stats.background_transmissions < full.stats.background_transmissions);
    }
}
