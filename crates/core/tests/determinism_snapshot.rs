//! Determinism-regression snapshots: fixed workloads whose
//! `finish_time`, full `SimStats` and final-memory digest were
//! captured from the engine before the hot-path rewrite (wait-queues,
//! slot tables, zero-copy payloads). The optimized engine must
//! reproduce them bit-for-bit — any drift in event ordering, stats
//! accounting or payload movement fails here first.
//!
//! Regenerated once, on 2026-09-28, and only in the six
//! `memory_digest` literals: the provenance stamp was redefined
//! word-wide (see `mce_core::verify`), so the payload *bytes* changed.
//! Every `finish_ns` and every `SimStats` field stayed bit-identical,
//! and that change touched no code under `crates/simnet/src` (a few
//! doc-comment links only), so the new digests cannot hide engine
//! drift. Because a digest is opaque, each snapshot test also runs
//! its workload's own verifier on the final memories: every block is
//! where it belongs, whatever the stamp bytes are.

use mce_core::builder::{build_multiphase_programs, build_with_options, BuildOptions};
use mce_core::perm_router::{
    bit_reversal, build_unscheduled_permutation_programs, permutation_memories, verify_permutation,
};
use mce_core::verify::{stamped_memories, verify_complete_exchange};
use mce_hypercube::NodeId;
use mce_simnet::batch::{Memories, RunSpec, SimBatch};
use mce_simnet::traffic::{compose_memories, compose_programs};
use mce_simnet::{
    BackgroundStream, CwndAlg, FlowCtl, JobSpec, LinkPolicy, NetCondition, Program, SimArena,
    SimConfig, SimResult,
};
use std::sync::Arc;

/// FNV-1a over all node memories (length-prefixed per node).
fn memory_digest(memories: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for mem in memories {
        for b in (mem.len() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in mem {
            eat(b);
        }
    }
    h
}

/// The observable fingerprint of one run.
#[derive(Debug, PartialEq, Eq)]
struct Snapshot {
    finish_ns: u64,
    transmissions: u64,
    bytes_moved: u64,
    link_crossings: u64,
    edge_contention_events: u64,
    edge_contention_wait_ns: u64,
    nic_serialization_events: u64,
    nic_serialization_wait_ns: u64,
    forced_drops: u64,
    reserve_handshakes: u64,
    barriers: u64,
    background_transmissions: u64,
    retransmissions: u64,
    flow_drops: u64,
    memory_digest: u64,
}

fn snapshot(result: &SimResult) -> Snapshot {
    Snapshot {
        finish_ns: result.finish_time.as_ns(),
        transmissions: result.stats.transmissions,
        bytes_moved: result.stats.bytes_moved,
        link_crossings: result.stats.link_crossings,
        edge_contention_events: result.stats.edge_contention_events,
        edge_contention_wait_ns: result.stats.edge_contention_wait_ns,
        nic_serialization_events: result.stats.nic_serialization_events,
        nic_serialization_wait_ns: result.stats.nic_serialization_wait_ns,
        forced_drops: result.stats.forced_drops,
        reserve_handshakes: result.stats.reserve_handshakes,
        barriers: result.stats.barriers,
        background_transmissions: result.stats.background_transmissions,
        retransmissions: result.stats.retransmissions,
        flow_drops: result.stats.flow_drops,
        memory_digest: memory_digest(&result.memories),
    }
}

/// One of the six pinned workloads as a (config, programs, memories)
/// spec, shared by the fresh-arena, arena-reuse and batch paths. Built
/// per index so each test constructs only the workload it runs.
fn workload_spec(workload: usize) -> (SimConfig, Vec<Program>, Vec<Vec<u8>>) {
    match workload {
        0 => {
            let (d, m) = (6u32, 40usize);
            (
                SimConfig::ipsc860(d),
                build_multiphase_programs(d, &[3, 3], m),
                stamped_memories(d, m),
            )
        }
        1 => {
            let (d, m) = (6u32, 64usize);
            let perm = bit_reversal(d);
            (
                SimConfig::ipsc860(d),
                build_unscheduled_permutation_programs(d, &perm, m),
                permutation_memories(d, &perm, m),
            )
        }
        2 => {
            let (d, m) = (5u32, 40usize);
            (
                SimConfig::ipsc860(d).with_store_and_forward(),
                build_multiphase_programs(d, &[2, 3], m),
                stamped_memories(d, m),
            )
        }
        // No pairwise sync + jitter: exercises the NIC-serialization
        // and edge-contention accounting paths that the aligned
        // multiphase runs never hit.
        3 => {
            let (d, m) = (5u32, 200usize);
            let opts = BuildOptions { pairwise_sync: false, ..Default::default() };
            (
                SimConfig::ipsc860(d).with_jitter(0.05, 99),
                build_with_options(d, &[5], m, opts),
                stamped_memories(d, m),
            )
        }
        // Conditioned network (see `mce_simnet::netcond`): a dead
        // cable rerouted around (bit-reversal masks have even weight,
        // so every route survives one fault), heterogeneous seeded
        // link speeds, and a background-traffic hotspot contending
        // with the permutation.
        4 => {
            let (d, m) = (6u32, 64usize);
            let perm = bit_reversal(d);
            let netcond = NetCondition::seeded_speeds(1.0, 2.5, 0xC0DED)
                .with_fault(NodeId(0), 0)
                .with_background(BackgroundStream {
                    src: NodeId(0),
                    dst: NodeId(63),
                    bytes: 256,
                    start_ns: 100_000,
                    period_ns: 400_000,
                    count: 25,
                });
            (
                SimConfig::ipsc860(d).with_netcond(netcond),
                build_unscheduled_permutation_programs(d, &perm, m),
                permutation_memories(d, &perm, m),
            )
        }
        // Co-tenant traffic (see `mce_simnet::traffic`): two complete
        // exchanges share a d4 cube — job 0 blocking (policy-exempt),
        // job 1 staggered 200 µs behind it with go-back-n flow control
        // over a lossy link, so retransmission backoff, AIMD window
        // moves and the per-attempt loss coins are all pinned.
        5 => {
            let (d, m) = (4u32, 16usize);
            let job0 = build_multiphase_programs(d, &[2, 2], m);
            let job1 = build_multiphase_programs(d, &[4], m);
            let flow =
                FlowCtl { rto_ns: 50_000, max_retries: 200, cwnd: CwndAlg::Aimd { window_max: 8 } };
            let netcond = NetCondition::default()
                .with_link_policy(LinkPolicy::Lossy { loss_per_myriad: 500, seed: 0x5EED });
            (
                SimConfig::ipsc860(d).with_netcond(netcond).with_jobs(vec![
                    JobSpec::default().shaped(&[2, 2], m),
                    JobSpec::at(200_000).with_flow(flow).shaped(&[4], m),
                ]),
                compose_programs(d, &[job0, job1]),
                compose_memories(d, &[stamped_memories(d, m), stamped_memories(d, m)]),
            )
        }
        other => panic!("no workload {other}"),
    }
}

fn workload_specs() -> Vec<(SimConfig, Vec<Program>, Vec<Vec<u8>>)> {
    (0..6).map(workload_spec).collect()
}

/// The doors into the engine a snapshot is taken through. Every door
/// must reproduce the same literal.
#[derive(Debug, Clone, Copy)]
enum Door {
    /// `SimArena::run`: programs compiled for this run.
    Run,
    /// `SimArena::run_shared`: compilation from the process-wide cache.
    Shared,
    /// `SimArena::run_spec` of a set another owner still holds, with
    /// `Memories::Shared`: the cached compile and a cloned template.
    Spec,
}

/// Run `workload` on a fresh arena through `door`.
fn run_through(workload: usize, door: Door) -> SimResult {
    let (cfg, programs, memories) = workload_spec(workload);
    let mut arena = SimArena::new();
    let result = match door {
        Door::Run => arena.run(&cfg, &programs, memories),
        Door::Shared => arena.run_shared(&cfg, &Arc::new(programs), memories),
        Door::Spec => {
            let programs = Arc::new(programs);
            let memories = Memories::Shared(Arc::new(memories));
            arena.run_spec(RunSpec { cfg, programs: Arc::clone(&programs), memories, trace: None })
        }
    };
    result.unwrap_or_else(|e| panic!("workload {workload} through {door:?}: {e}"))
}

/// `workload` through each door in turn.
fn every_door(workload: usize) -> impl Iterator<Item = (Door, SimResult)> {
    [Door::Run, Door::Shared, Door::Spec]
        .into_iter()
        .map(move |door| (door, run_through(workload, door)))
}

fn one_shot(workload: usize) -> SimResult {
    run_through(workload, Door::Run)
}

#[test]
fn multiphase_d6_33_matches_snapshot() {
    for (door, result) in every_door(0) {
        assert_eq!(verify_complete_exchange(6, 40, &result.memories), [], "{door:?}");
        assert_eq!(
            snapshot(&result),
            Snapshot {
                finish_ns: 9309320,
                transmissions: 1792,
                bytes_moved: 286720,
                link_crossings: 3072,
                edge_contention_events: 0,
                edge_contention_wait_ns: 0,
                nic_serialization_events: 0,
                nic_serialization_wait_ns: 0,
                forced_drops: 0,
                reserve_handshakes: 0,
                barriers: 2,
                background_transmissions: 0,
                retransmissions: 0,
                flow_drops: 0,
                memory_digest: 13734434754980005560,
            },
            "{door:?}"
        );
    }
}

#[test]
fn bit_reversal_unscheduled_matches_snapshot() {
    for (door, result) in every_door(1) {
        assert!(verify_permutation(&bit_reversal(6), 64, &result.memories), "{door:?}");
        assert_eq!(
            snapshot(&result),
            Snapshot {
                finish_ns: 1586864,
                transmissions: 56,
                bytes_moved: 3584,
                link_crossings: 192,
                edge_contention_events: 32,
                edge_contention_wait_ns: 9368896,
                nic_serialization_events: 16,
                nic_serialization_wait_ns: 0,
                forced_drops: 0,
                reserve_handshakes: 0,
                barriers: 1,
                background_transmissions: 0,
                retransmissions: 0,
                flow_drops: 0,
                memory_digest: 11748996007258722359,
            },
            "{door:?}"
        );
    }
}

#[test]
fn store_and_forward_matches_snapshot() {
    for (door, result) in every_door(2) {
        assert_eq!(verify_complete_exchange(5, 40, &result.memories), [], "{door:?}");
        assert_eq!(
            snapshot(&result),
            Snapshot {
                finish_ns: 7312800,
                transmissions: 640,
                bytes_moved: 66560,
                link_crossings: 1024,
                edge_contention_events: 0,
                edge_contention_wait_ns: 0,
                nic_serialization_events: 0,
                nic_serialization_wait_ns: 0,
                forced_drops: 0,
                reserve_handshakes: 0,
                barriers: 2,
                background_transmissions: 0,
                retransmissions: 0,
                flow_drops: 0,
                memory_digest: 1816036644044764389,
            },
            "{door:?}"
        );
    }
}

#[test]
fn jittered_nosync_matches_snapshot() {
    for (door, result) in every_door(3) {
        assert_eq!(verify_complete_exchange(5, 200, &result.memories), [], "{door:?}");
        assert_eq!(
            snapshot(&result),
            Snapshot {
                finish_ns: 7878371,
                transmissions: 992,
                bytes_moved: 198400,
                link_crossings: 2560,
                edge_contention_events: 313,
                edge_contention_wait_ns: 11199023,
                nic_serialization_events: 286,
                nic_serialization_wait_ns: 9107858,
                forced_drops: 0,
                reserve_handshakes: 0,
                barriers: 1,
                background_transmissions: 0,
                retransmissions: 0,
                flow_drops: 0,
                memory_digest: 4703015163424812349,
            },
            "{door:?}"
        );
    }
}

/// The conditioned-network snapshot: a dead cable (rerouted), seeded
/// heterogeneous link speeds and a background hotspot over the
/// unscheduled bit-reversal workload. The memory digest equals the
/// unconditioned bit-reversal digest — degradation slows the run
/// (finish 2.04 ms vs 1.59 ms, more contention wait) but must never
/// corrupt data movement.
#[test]
fn conditioned_storm_matches_snapshot() {
    for (door, result) in every_door(4) {
        assert!(verify_permutation(&bit_reversal(6), 64, &result.memories), "{door:?}");
        assert_eq!(
            snapshot(&result),
            Snapshot {
                finish_ns: 2042388,
                transmissions: 56,
                bytes_moved: 3584,
                link_crossings: 192,
                edge_contention_events: 32,
                edge_contention_wait_ns: 13585275,
                nic_serialization_events: 20,
                nic_serialization_wait_ns: 0,
                forced_drops: 0,
                reserve_handshakes: 0,
                barriers: 1,
                background_transmissions: 25,
                retransmissions: 0,
                flow_drops: 0,
                memory_digest: 11748996007258722359,
            },
            "{door:?}"
        );
    }
}

/// The co-tenant traffic snapshot: two complete exchanges sharing a
/// d4 cube, job 1 staggered and flow-controlled over a lossy link.
/// Pins the whole reactive path — per-attempt loss coins, AIMD
/// backoff, retransmission ordering, per-job accounting — and checks
/// both tenants still deliver a correct complete exchange.
#[test]
fn co_tenant_lossy_matches_snapshot() {
    for (door, result) in every_door(5) {
        assert_eq!(
            snapshot(&result),
            Snapshot {
                finish_ns: 7447708,
                transmissions: 696,
                bytes_moved: 10160,
                link_crossings: 1326,
                edge_contention_events: 126,
                edge_contention_wait_ns: 11502807,
                nic_serialization_events: 99,
                nic_serialization_wait_ns: 4024420,
                forced_drops: 0,
                reserve_handshakes: 0,
                barriers: 3,
                background_transmissions: 0,
                retransmissions: 24,
                flow_drops: 24,
                memory_digest: 16245099395097047221,
            },
            "{door:?}"
        );
        // Per-job split: the blocking tenant is policy-exempt; the lossy
        // link's drops all land on (and are recovered by) the reactive one.
        let [j0, j1] = &result.stats.jobs[..] else { panic!("two jobs") };
        assert_eq!((j0.retransmissions, j0.drops, j0.finish_ns), (0, 0, 3355960));
        assert_eq!((j1.retransmissions, j1.drops, j1.finish_ns), (24, 24, 7447708));
        assert_eq!(j1.start_ns, 200_000);
        // Loss never corrupts data: each tenant's 16-node slice is a
        // correct complete exchange on its own.
        let (d, m, n) = (4u32, 16usize, 16usize);
        for job in 0..2 {
            let slice = result.memories[job * n..(job + 1) * n].to_vec();
            let mismatches = verify_complete_exchange(d, m, &slice);
            assert!(mismatches.is_empty(), "job {job} exchange corrupted: {mismatches:?}");
        }
    }
}

/// Batch determinism regression: `SimBatch` results must be
/// bit-identical to sequential fresh-arena runs for all six snapshot
/// workloads — arena reuse must not leak any state between runs.
#[test]
fn batch_results_are_bit_identical_to_one_shot_runs() {
    let one_shot_snaps: Vec<Snapshot> = (0..6).map(|i| snapshot(&one_shot(i))).collect();

    // Parallel batch path (per-worker arenas).
    let mut batch = SimBatch::new(SimConfig::ipsc860(6));
    for (cfg, programs, memories) in workload_specs() {
        batch.push_with_config(cfg, Arc::new(programs), memories);
    }
    let batch_snaps: Vec<Snapshot> =
        batch.run().into_iter().map(|r| snapshot(&r.unwrap())).collect();
    assert_eq!(batch_snaps, one_shot_snaps, "SimBatch drifted from one-shot runs");

    // One arena driving all four workloads back to back, twice: the
    // second pass runs on an arena warmed by every other workload, so
    // any cross-run leakage (pool payloads, wait-queue registrations,
    // slot state, link occupancy) would show up as a snapshot diff.
    let mut arena = SimArena::new();
    for pass in 0..2 {
        for (i, (cfg, programs, memories)) in workload_specs().into_iter().enumerate() {
            let r = arena.run(&cfg, &programs, memories).unwrap();
            assert_eq!(
                snapshot(&r),
                one_shot_snaps[i],
                "arena reuse leaked state (workload {i}, pass {pass})"
            );
        }
    }
}

/// Sharded-engine determinism regression: every pinned workload rerun
/// with subcube sharding enabled (see `mce_simnet::shard`) must
/// reproduce its sequential snapshot bit for bit. Workload 0 actually
/// exercises shard windows (low-dimension multiphase phases); workload
/// 1 is all cross-shard traffic (global phases); workloads 2-4 are
/// ineligible (store-and-forward, jitter, conditioned network,
/// multi-tenant jobs) and pin the sequential gate.
#[test]
fn sharded_engine_reproduces_all_snapshots() {
    for workload in 0..6 {
        let reference = snapshot(&one_shot(workload));
        for shards in [2u32, 4] {
            let (cfg, programs, memories) = workload_spec(workload);
            let cfg = cfg.with_shards(shards);
            assert_eq!(
                snapshot(&SimArena::new().run(&cfg, &programs, memories).unwrap()),
                reference,
                "workload {workload} diverged with shards = {shards}"
            );
        }
    }
}

/// Regenerator: `cargo test -p mce-core --test determinism_snapshot
/// -- --ignored --nocapture` prints the snapshot literals to paste
/// above when the engine's semantics change *intentionally*.
#[test]
#[ignore]
fn print_snapshots() {
    let names = [
        "multiphase_d6_33",
        "bit_reversal_unscheduled",
        "store_and_forward",
        "jittered_nosync",
        "conditioned_storm",
        "co_tenant_lossy",
    ];
    for (workload, name) in names.into_iter().enumerate() {
        let result = one_shot(workload);
        println!("{name}: {:#?}", snapshot(&result));
        if !result.stats.jobs.is_empty() {
            println!("{name} jobs: {:#?}", result.stats.jobs);
        }
    }
}
