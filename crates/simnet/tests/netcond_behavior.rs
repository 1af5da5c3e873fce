//! Behavioural tests of the network-conditions layer: heterogeneous
//! link speeds, dead cables with fault-avoiding rerouting, typed
//! unroutability, and deterministic background traffic.

use mce_hypercube::routing::DirectedLink;
use mce_hypercube::NodeId;
use mce_simnet::batch::RunSpec;
use mce_simnet::netcond::{background_tag, Cable, SpeedProfile};
use mce_simnet::{
    BackgroundStream, NetCondition, Op, Program, SimArena, SimConfig, SimError, Tag, TraceConfig,
    TraceEvent,
};
use std::sync::Arc;

fn empty_memories(n: usize, bytes: usize) -> Vec<Vec<u8>> {
    vec![vec![0u8; bytes]; n]
}

/// Node 0 sends `bytes` to `dst` in a d-cube; all other nodes idle.
fn one_way(d: u32, dst: u32, bytes: usize) -> (Vec<Program>, Vec<Vec<u8>>) {
    let n = 1usize << d;
    let mut programs = vec![Program::empty(); n];
    programs[0] = Program { ops: vec![Op::send(NodeId(dst), 0..bytes, Tag::data(0, 1))] };
    programs[dst as usize] = Program {
        ops: vec![
            Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
            Op::wait_recv(NodeId(0), Tag::data(0, 1)),
        ],
    };
    let mut mems = empty_memories(n, bytes);
    mems[0] = (0..bytes).map(|i| i as u8).collect();
    (programs, mems)
}

fn run(cfg: SimConfig, programs: Vec<Program>, mems: Vec<Vec<u8>>) -> mce_simnet::SimResult {
    SimArena::new().run(&cfg, &programs, mems).unwrap()
}

/// [`run`] with the default trace capture on.
fn run_traced(cfg: SimConfig, programs: Vec<Program>, mems: Vec<Vec<u8>>) -> mce_simnet::SimResult {
    let trace = Some(TraceConfig::default());
    let spec = RunSpec { cfg, programs: Arc::new(programs), memories: mems.into(), trace };
    SimArena::new().run_spec(spec).unwrap()
}

#[test]
fn uniform_slowdown_scales_tau_and_delta_but_not_lambda() {
    // 100 bytes over 3 hops at 2x: λ + 2·τm + 2·δ·3.
    let (programs, mems) = one_way(5, 7, 100);
    let cfg = SimConfig::ipsc860(5).with_netcond(NetCondition::uniform_slowdown(2.0));
    let r = run(cfg, programs, mems);
    let expect = 95.0 + 2.0 * 39.4 + 2.0 * 3.0 * 10.3;
    assert!((r.finish_time.as_us() - expect).abs() < 1e-6, "{}", r.finish_time.as_us());
    // Payload still arrives intact.
    assert_eq!(r.memories[7], (0..100).map(|i| i as u8).collect::<Vec<_>>());
}

#[test]
fn per_dimension_profile_only_affects_crossed_dimensions() {
    // Slow down dimension 2 by 4x; a route over dims {0, 1} is
    // untouched, a route over dim 2 pays.
    let nc = NetCondition {
        speed: SpeedProfile::PerDimension(vec![1.0, 1.0, 4.0]),
        ..Default::default()
    };
    let (programs, mems) = one_way(3, 3, 50);
    let r = run(SimConfig::ipsc860(3).with_netcond(nc.clone()), programs, mems);
    let nominal = 95.0 + 0.394 * 50.0 + 2.0 * 10.3;
    assert!((r.finish_time.as_us() - nominal).abs() < 1e-6, "{}", r.finish_time.as_us());

    let (programs, mems) = one_way(3, 4, 50);
    let r = run(SimConfig::ipsc860(3).with_netcond(nc), programs, mems);
    let slowed = 95.0 + 4.0 * 0.394 * 50.0 + 4.0 * 10.3;
    assert!((r.finish_time.as_us() - slowed).abs() < 1e-6, "{}", r.finish_time.as_us());
}

#[test]
fn cable_override_prices_the_bottleneck_link() {
    // Route 0 -> 3 crosses cables (0, dim0) and (1, dim1); pin the
    // second hop at 3x: τ scales by max factor 3, δ by 1 + 3.
    let nc = NetCondition::default().with_override(Cable::new(NodeId(1), 1), 3.0);
    let (programs, mems) = one_way(2, 3, 200);
    let r = run(SimConfig::ipsc860(2).with_netcond(nc), programs, mems);
    let expect = 95.0 + 3.0 * 0.394 * 200.0 + (1.0 + 3.0) * 10.3;
    assert!((r.finish_time.as_us() - expect).abs() < 1e-6, "{}", r.finish_time.as_us());
}

#[test]
fn seeded_speeds_are_deterministic_and_seed_sensitive() {
    let mk = |seed: u64| {
        let (programs, mems) = one_way(4, 15, 300);
        let cfg = SimConfig::ipsc860(4).with_netcond(NetCondition::seeded_speeds(1.0, 3.0, seed));
        run(cfg, programs, mems).finish_time
    };
    assert_eq!(mk(5), mk(5), "same seed, same network");
    assert_ne!(mk(5), mk(6), "different seed, different network");
}

#[test]
fn dead_cable_reroutes_around_the_fault() {
    // E-cube route 0 -> 3 is 0 -> 1 -> 3; kill cable 0-1. The send
    // must reroute 0 -> 2 -> 3 (alternate decomposition), same cost.
    let nc = NetCondition::default().with_fault(NodeId(0), 0);
    let (programs, mems) = one_way(2, 3, 80);
    let r = run_traced(SimConfig::ipsc860(2).with_netcond(nc), programs, mems);
    assert_eq!(r.memories[3], (0..80).map(|i| i as u8).collect::<Vec<_>>());
    let nominal = 95.0 + 0.394 * 80.0 + 2.0 * 10.3;
    assert!((r.finish_time.as_us() - nominal).abs() < 1e-6, "same hop count, same time");
    assert_eq!(r.stats.transmissions, 1);
}

#[test]
fn rerouted_circuit_occupies_the_detour_not_the_dead_path() {
    // With 0->3 rerouted via 2, a concurrent circuit 2->3 now
    // contends with it (it would not on the e-cube route via 1).
    let bytes = 500usize;
    let n = 4usize;
    let mut programs = vec![Program::empty(); n];
    programs[0] = Program { ops: vec![Op::send(NodeId(3), 0..bytes, Tag::data(0, 1))] };
    programs[2] = Program { ops: vec![Op::send(NodeId(3), 0..bytes, Tag::data(0, 2))] };
    programs[3] = Program {
        ops: vec![
            Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
            Op::post_recv(NodeId(2), Tag::data(0, 2), 0..bytes),
            Op::wait_recv(NodeId(0), Tag::data(0, 1)),
            Op::wait_recv(NodeId(2), Tag::data(0, 2)),
        ],
    };
    let mems = empty_memories(n, bytes);
    let clean = run(SimConfig::ipsc860(2), programs.clone(), mems.clone());
    assert_eq!(clean.stats.edge_contention_events, 0, "disjoint e-cube routes");
    let nc = NetCondition::default().with_fault(NodeId(0), 0);
    let faulted = run(SimConfig::ipsc860(2).with_netcond(nc), programs, mems);
    assert_eq!(faulted.stats.edge_contention_events, 1, "detour collides on 2->3");
    assert!(faulted.finish_time > clean.finish_time);
}

#[test]
fn unroutable_fault_is_a_typed_error_before_any_simulated_time() {
    // Distance-1 sends have a single decomposition: killing the cable
    // makes the program unroutable up front.
    let (programs, mems) = one_way(3, 1, 16);
    let nc = NetCondition::default().with_fault(NodeId(0), 0);
    match SimArena::new().run(&SimConfig::ipsc860(3).with_netcond(nc), &programs, mems) {
        Err(SimError::Unroutable { src, dst }) => {
            assert_eq!((src, dst), (NodeId(0), NodeId(1)));
        }
        other => panic!("expected Unroutable, got {other:?}"),
    }
}

#[test]
fn fully_cut_corner_is_unroutable_even_with_wide_masks() {
    // Kill both of node 0's exits within the {0,1}-subcube: 0 -> 3
    // has no live decomposition.
    let nc = NetCondition::default().with_fault(NodeId(0), 0).with_fault(NodeId(0), 1);
    let (programs, mems) = one_way(2, 3, 16);
    match SimArena::new().run(&SimConfig::ipsc860(2).with_netcond(nc), &programs, mems) {
        Err(SimError::Unroutable { src, dst }) => {
            assert_eq!((src, dst), (NodeId(0), NodeId(3)));
        }
        other => panic!("expected Unroutable, got {other:?}"),
    }
}

#[test]
fn background_stream_contends_and_is_counted_separately() {
    // A hotspot stream on 0 -> 1 grabs the link at t = 0; the
    // algorithm's send (issued at 10 µs) waits out the injection.
    let bytes = 200usize;
    let stream = BackgroundStream {
        src: NodeId(0),
        dst: NodeId(1),
        bytes: 1000,
        start_ns: 0,
        period_ns: 1_000_000,
        count: 1,
    };
    let (mut programs, mems) = one_way(1, 1, bytes);
    programs[0].ops.insert(0, Op::Compute { ns: 10_000 });
    let cfg = SimConfig::ipsc860(1).with_netcond(NetCondition::default().with_background(stream));
    let r = run(cfg, programs, mems);
    let t_bg = 95.0 + 0.394 * 1000.0 + 10.3;
    let t_msg = 95.0 + 0.394 * 200.0 + 10.3;
    assert!(
        (r.finish_time.as_us() - (t_bg + t_msg)).abs() < 1e-6,
        "send must wait out the background circuit: {} vs {}",
        r.finish_time.as_us(),
        t_bg + t_msg
    );
    assert_eq!(r.stats.transmissions, 1, "algorithm transmissions only");
    assert_eq!(r.stats.background_transmissions, 1);
    assert_eq!(r.stats.background_bytes, 1000);
    assert_eq!(r.stats.bytes_moved, bytes as u64);
    assert_eq!(r.stats.edge_contention_events, 1, "the algorithm's send waited");
    assert_eq!(r.memories[1], (0..bytes).map(|i| i as u8).collect::<Vec<_>>());
}

#[test]
fn background_traffic_bypasses_nic_state() {
    // A stream *from* node 0 does not trip node 0's NIC concurrency
    // rule for the node's own staggered receive (it models
    // pass-through circuits, not NX/2 sends).
    let bytes = 400usize;
    // Background on 0 -> 2 (dim 1); algorithm sends 1 -> 0 (dim 0):
    // link-disjoint, so any slowdown could only come from NIC
    // coupling — which background traffic must not introduce.
    let stream = BackgroundStream {
        src: NodeId(0),
        dst: NodeId(2),
        bytes: 2000,
        start_ns: 0,
        period_ns: 500_000,
        count: 20,
    };
    let n = 4usize;
    let mut programs = vec![Program::empty(); n];
    programs[1] = Program { ops: vec![Op::send(NodeId(0), 0..bytes, Tag::data(0, 1))] };
    programs[0] = Program {
        ops: vec![
            Op::post_recv(NodeId(1), Tag::data(0, 1), 0..bytes),
            Op::wait_recv(NodeId(1), Tag::data(0, 1)),
        ],
    };
    let mems = empty_memories(n, bytes);
    let clean = run(SimConfig::ipsc860(2), programs.clone(), mems.clone());
    let cfg = SimConfig::ipsc860(2).with_netcond(NetCondition::default().with_background(stream));
    let busy = run(cfg, programs, mems);
    assert_eq!(busy.finish_time, clean.finish_time, "link-disjoint traffic is free");
    assert_eq!(busy.stats.nic_serialization_events, 0);
}

#[test]
fn background_injections_follow_the_schedule() {
    let stream = BackgroundStream {
        src: NodeId(2),
        dst: NodeId(3),
        bytes: 10,
        start_ns: 50_000,
        period_ns: 250_000,
        count: 4,
    };
    let (programs, mems) = one_way(2, 1, 8);
    let cfg = SimConfig::ipsc860(2).with_netcond(NetCondition::default().with_background(stream));
    let r = run_traced(cfg, programs, mems);
    // The stream 2 -> 3 is one hop, so each injection is exactly one
    // background link-hold and hold starts map 1:1 to injections.
    let starts: Vec<u64> = r
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::LinkHold { tag, start, background: true, .. }
                if *tag == background_tag(0) =>
            {
                Some(start.as_ns())
            }
            _ => None,
        })
        .collect();
    assert_eq!(starts, vec![50_000, 300_000, 550_000, 800_000]);
    assert_eq!(r.stats.background_transmissions, 4);
}

/// Collect per-directed-link occupancy intervals from a trace (the
/// structured event model records one [`TraceEvent::LinkHold`] per
/// directed link per hold, so no path reconstruction is needed) and
/// assert no two transmissions ever hold one directed link at once.
fn assert_no_link_overlap(trace: &[TraceEvent]) {
    use std::collections::HashMap;
    let mut intervals: HashMap<DirectedLink, Vec<(u64, u64)>> = HashMap::new();
    for e in trace {
        if let TraceEvent::LinkHold { from, to, start, end, .. } = e {
            intervals
                .entry(DirectedLink { from: *from, to: *to })
                .or_default()
                .push((start.as_ns(), end.as_ns()));
        }
    }
    for (link, mut ivs) in intervals {
        ivs.sort_unstable();
        for w in ivs.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "transmissions overlap on {link}: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn conditioned_links_never_double_book() {
    // Heterogeneous speeds + a hotspot stream + an all-to-all-ish
    // workload: every directed link must still serve one circuit at a
    // time.
    let d = 3u32;
    let n = 1usize << d;
    let bytes = 120usize;
    let mut programs = vec![Program::empty(); n];
    // Every node sends to its bit-complement (full-mask circuits).
    for (x, program) in programs.iter_mut().enumerate() {
        let peer = NodeId((n - 1 - x) as u32);
        *program = Program {
            ops: vec![
                Op::post_recv(peer, Tag::data(0, 1), 0..bytes),
                Op::send(peer, 0..bytes, Tag::data(0, 1)),
                Op::wait_recv(peer, Tag::data(0, 1)),
            ],
        };
    }
    let nc = NetCondition::seeded_speeds(1.0, 3.0, 77).with_background(BackgroundStream {
        src: NodeId(0),
        dst: NodeId(7),
        bytes: 500,
        start_ns: 10_000,
        period_ns: 300_000,
        count: 10,
    });
    let cfg = SimConfig::ipsc860(d).with_netcond(nc);
    let r = run_traced(cfg, programs, empty_memories(n, bytes));
    assert!(r.stats.background_transmissions > 0);
    assert_no_link_overlap(&r.trace);
}

#[test]
fn storm_survives_store_and_forward_mode() {
    // Conditioned store-and-forward: per-hop re-pricing + background
    // + faults all compose; data still arrives.
    let nc = NetCondition::seeded_speeds(1.0, 2.0, 3).with_fault(NodeId(0), 0).with_background(
        BackgroundStream {
            src: NodeId(1),
            dst: NodeId(6),
            bytes: 100,
            start_ns: 0,
            period_ns: 200_000,
            count: 8,
        },
    );
    let (programs, mems) = one_way(3, 7, 90);
    let cfg = SimConfig::ipsc860(3).with_store_and_forward().with_netcond(nc);
    let r = run(cfg, programs, mems);
    assert_eq!(r.memories[7], (0..90).map(|i| i as u8).collect::<Vec<_>>());
    assert!(r.stats.background_transmissions > 0);
}

#[test]
fn noop_netcond_is_bit_identical_on_a_contended_workload() {
    // Beyond the property suite: a workload with real contention and
    // jitter, run with and without an attached no-op condition.
    let d = 3u32;
    let n = 1usize << d;
    let bytes = 250usize;
    let mut programs = vec![Program::empty(); n];
    for (x, program) in programs.iter_mut().enumerate() {
        let peer = NodeId((n - 1 - x) as u32);
        *program = Program {
            ops: vec![
                Op::post_recv(peer, Tag::data(0, 1), 0..bytes),
                Op::send(peer, 0..bytes, Tag::data(0, 1)),
                Op::wait_recv(peer, Tag::data(0, 1)),
            ],
        };
    }
    let base = SimConfig::ipsc860(d).with_jitter(0.04, 17);
    let plain = run(base.clone(), programs.clone(), empty_memories(n, bytes));
    let conditioned =
        run(base.with_netcond(NetCondition::default()), programs, empty_memories(n, bytes));
    assert_eq!(plain.finish_time, conditioned.finish_time);
    assert_eq!(plain.stats, conditioned.stats);
    assert_eq!(plain.memories, conditioned.memories);
}
