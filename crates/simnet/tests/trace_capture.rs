//! Capture semantics of the structured trace subsystem: what the ring
//! records, how overflow is accounted, and how traces flow through the
//! batch layer. The zero-perturbation contract over the determinism
//! workloads lives in `mce-core` (`trace_perturbation.rs`), next to
//! the builders those workloads need.

use mce_hypercube::NodeId;
use mce_simnet::batch::{Memories, RunSpec, SimBatch};
use mce_simnet::{
    Op, Program, SimArena, SimConfig, SimResult, Tag, TraceConfig, TraceEvent, WaitCause,
};
use std::sync::Arc;

/// A d-cube complete-exchange-ish workload built in place: every node
/// sends `bytes` to its bit-complement with pairwise recv posting.
fn complement_exchange(d: u32, bytes: usize) -> (Vec<Program>, Vec<Vec<u8>>) {
    let n = 1usize << d;
    let mut programs = vec![Program::empty(); n];
    for (x, program) in programs.iter_mut().enumerate() {
        let peer = NodeId((n - 1 - x) as u32);
        *program = Program {
            ops: vec![
                Op::post_recv(peer, Tag::data(0, 1), 0..bytes),
                Op::Barrier,
                Op::send(peer, 0..bytes, Tag::data(0, 1)),
                Op::wait_recv(peer, Tag::data(0, 1)),
            ],
        };
    }
    (programs, vec![vec![0xA5u8; bytes]; n])
}

/// One run on a fresh arena with trace capture under `trace`.
fn run_traced(
    cfg: SimConfig,
    programs: Vec<Program>,
    mems: Vec<Vec<u8>>,
    trace: TraceConfig,
) -> SimResult {
    let spec =
        RunSpec { cfg, programs: Arc::new(programs), memories: mems.into(), trace: Some(trace) };
    SimArena::new().run_spec(spec).unwrap()
}

#[test]
fn trace_off_captures_nothing_and_costs_no_stats() {
    let (programs, mems) = complement_exchange(3, 64);
    let r = SimArena::new().run(&SimConfig::ipsc860(3), &programs, mems).unwrap();
    assert!(r.trace.is_empty());
    assert_eq!(r.stats.trace_events_dropped, 0);
}

#[test]
fn trace_records_link_nic_and_barrier_spans() {
    let (programs, mems) = complement_exchange(3, 64);
    let r = run_traced(SimConfig::ipsc860(3), programs, mems, TraceConfig::default());
    let mut holds = 0u64;
    let (mut sends, mut recvs, mut barriers, mut barrier_waits) = (0u64, 0u64, 0u64, 0u64);
    for e in &r.trace {
        match e {
            TraceEvent::LinkHold { start, end, background, .. } => {
                assert!(start < end, "zero-length hold");
                assert!(!background, "no background streams configured");
                holds += 1;
            }
            TraceEvent::NicSend { .. } => sends += 1,
            TraceEvent::NicRecv { .. } => recvs += 1,
            TraceEvent::Barrier { job, .. } => {
                assert_eq!(*job, 0);
                barriers += 1;
            }
            TraceEvent::Wait { cause: WaitCause::Barrier, .. } => barrier_waits += 1,
            _ => {}
        }
    }
    // Circuit switching: each transmission holds its whole d-hop path
    // once, so holds sum the path lengths exactly.
    assert_eq!(holds, r.stats.link_crossings);
    assert_eq!(sends, r.stats.transmissions);
    assert_eq!(recvs, r.stats.transmissions);
    assert_eq!(barriers, r.stats.barriers);
    assert_eq!(barrier_waits, r.stats.barriers * 8, "one barrier wait span per node");
}

#[test]
fn trace_ring_overflow_is_counted_in_stats() {
    let (programs, mems) = complement_exchange(4, 32);
    let r = run_traced(SimConfig::ipsc860(4), programs, mems, TraceConfig::with_capacity(8));
    assert_eq!(r.trace.len(), 8, "ring keeps exactly its capacity");
    assert!(r.stats.trace_events_dropped > 0, "overflow must be visible in SimStats");
    // Oldest-first eviction: the survivors are the chronologically
    // last events (emission order is non-decreasing in time).
    let first_kept = r.trace.first().unwrap().at_ns();
    assert!(r.trace.iter().all(|e| e.at_ns() >= first_kept || e.at_ns() == 0));
}

#[test]
fn trace_flows_through_the_batch_layer_per_cell() {
    let d = 3u32;
    let (programs, mems) = complement_exchange(d, 64);
    let programs = Arc::new(programs);
    let mut batch = SimBatch::new(SimConfig::ipsc860(d));
    let plain = batch.push_with_config(SimConfig::ipsc860(d), programs.clone(), mems.clone());
    let traced = batch.push_traced(
        SimConfig::ipsc860(d),
        programs,
        Memories::Shared(mems.into()),
        TraceConfig::default(),
    );
    let results = batch.run();
    let plain = results[plain].as_ref().unwrap();
    let traced = results[traced].as_ref().unwrap();
    assert!(plain.trace.is_empty(), "untraced cell must not capture");
    assert!(!traced.trace.is_empty(), "traced cell must capture");
    assert_eq!(plain.stats, traced.stats, "per-cell tracing perturbed the traced cell");
    assert_eq!(plain.finish_time, traced.finish_time);
    assert_eq!(plain.memories, traced.memories);
}
