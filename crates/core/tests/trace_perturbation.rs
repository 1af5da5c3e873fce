//! Zero-perturbation contract of the structured trace subsystem (see
//! `mce_simnet::trace`): enabling tracing must not move a single
//! simulation observable. Every determinism-snapshot workload is run
//! trace-off and trace-on and the full `SimStats`, finish time and
//! final-memory digest are compared bit for bit — the snapshots
//! themselves (in `determinism_snapshot.rs`) pin trace-off against
//! history, and this suite pins trace-on against trace-off, so the
//! two suites together guarantee tracing never regenerates anything.

use mce_core::builder::{build_multiphase_programs, build_with_options, BuildOptions};
use mce_core::perm_router::{
    bit_reversal, build_unscheduled_permutation_programs, permutation_memories,
};
use mce_core::verify::stamped_memories;
use mce_hypercube::NodeId;
use mce_simnet::batch::RunSpec;
use mce_simnet::{
    BackgroundStream, CwndAlg, FlowCtl, JobSpec, LinkPolicy, NetCondition, Program, SimArena,
    SimConfig, SimStats, TraceConfig,
};
use std::sync::Arc;

/// FNV-1a over all node memories (length-prefixed per node), matching
/// the determinism-snapshot digest.
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

/// The six pinned workload shapes of `determinism_snapshot.rs`,
/// rebuilt here (test binaries cannot share code, and the shapes are
/// the contract: no regeneration, same builders, same parameters).
fn workload_spec(workload: usize) -> (SimConfig, Vec<Program>, Vec<Vec<u8>>) {
    use mce_simnet::traffic::{compose_memories, compose_programs};
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
        3 => {
            let (d, m) = (5u32, 200usize);
            let opts = BuildOptions { pairwise_sync: false, ..Default::default() };
            (
                SimConfig::ipsc860(d).with_jitter(0.05, 99),
                build_with_options(d, &[5], m, opts),
                stamped_memories(d, m),
            )
        }
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

/// Run one workload shape, optionally traced, optionally sharded.
fn run(workload: usize, trace: bool, shards: u32) -> mce_simnet::SimResult {
    let (cfg, programs, memories) = workload_spec(workload);
    let cfg = if shards > 1 { cfg.with_shards(shards) } else { cfg };
    let trace = trace.then(TraceConfig::default);
    let spec = RunSpec { cfg, programs: Arc::new(programs), memories: memories.into(), trace };
    SimArena::new().run_spec(spec).unwrap()
}

/// Full-stats bit-identity between a trace-off and a trace-on run of
/// the same workload. `trace_events_dropped` describes the capture,
/// not the simulation, and is zero on both sides here (the default
/// ring holds 2^20 events; these workloads emit far fewer).
fn assert_trace_is_invisible(workload: usize) {
    let off = run(workload, false, 1);
    let on = run(workload, true, 1);
    assert_eq!(on.stats, off.stats, "workload {workload}: tracing perturbed SimStats");
    assert_eq!(on.finish_time, off.finish_time, "workload {workload}: tracing moved finish time");
    assert_eq!(
        memory_digest(&on.memories),
        memory_digest(&off.memories),
        "workload {workload}: tracing perturbed payload movement"
    );
    assert!(off.trace.is_empty(), "trace-off run captured events");
    assert!(!on.trace.is_empty(), "trace-on run captured nothing");
    assert_eq!(on.stats.trace_events_dropped, 0, "default ring overflowed on a small workload");
}

#[test]
fn trace_on_is_bit_identical_multiphase_d6_33() {
    assert_trace_is_invisible(0);
}

#[test]
fn trace_on_is_bit_identical_bit_reversal_unscheduled() {
    assert_trace_is_invisible(1);
}

#[test]
fn trace_on_is_bit_identical_store_and_forward() {
    assert_trace_is_invisible(2);
}

#[test]
fn trace_on_is_bit_identical_jittered_nosync() {
    assert_trace_is_invisible(3);
}

#[test]
fn trace_on_is_bit_identical_conditioned_storm() {
    assert_trace_is_invisible(4);
}

#[test]
fn trace_on_is_bit_identical_co_tenant_lossy() {
    assert_trace_is_invisible(5);
}

/// Blank the capture-side telemetry (scheduler, shard driver, trace
/// ring): the tracing doctrine guarantees the *simulation observables*
/// are identical; the execution-strategy telemetry legitimately
/// differs between the sharded and the trace-forced sequential path.
fn simulation_observables(mut stats: SimStats) -> SimStats {
    stats.sched_peak_pending = 0;
    stats.shard_windows = 0;
    stats.shard_barrier_stalls = 0;
    stats.shard_cross_events = 0;
    stats.shard_peak_pending = 0;
    stats.trace_events_dropped = 0;
    stats
}

/// Sharded pin: requesting `shards > 1` *and* tracing forces the
/// sequential path (`shard::eligible` gates on the trace sink), and
/// every simulation observable still matches the untraced sharded run
/// bit for bit. Workload 0 genuinely exercises shard windows when
/// untraced, so the gate is doing real work here.
#[test]
fn trace_forces_sequential_path_without_perturbing_sharded_observables() {
    let off = run(0, false, 4);
    let on = run(0, true, 4);
    assert!(off.stats.shard_windows > 0, "untraced workload 0 must run windowed");
    assert_eq!(on.stats.shard_windows, 0, "traced run must fall back to sequential");
    assert_eq!(
        simulation_observables(on.stats.clone()),
        simulation_observables(off.stats.clone()),
        "trace-forced sequential path perturbed simulation observables"
    );
    assert_eq!(on.finish_time, off.finish_time);
    assert_eq!(memory_digest(&on.memories), memory_digest(&off.memories));
    assert!(!on.trace.is_empty());
}
