//! Store-and-forward mode: per-hop timing, link pipelining, and the
//! circuit-vs-SAF contrast underlying Seidel (1989), reference [15] of
//! the paper.

use mce_hypercube::NodeId;
use mce_simnet::{Op, Program, SimArena, SimConfig, Tag};

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
    let mut mems = vec![vec![0u8; bytes.max(1)]; n];
    mems[0] = (0..bytes.max(1)).map(|i| i as u8).collect();
    (programs, mems)
}

#[test]
fn saf_time_is_hops_times_hop_cost() {
    // h·(λ + τm + δ) for every (m, h).
    for (dst, hops) in [(1u32, 1u32), (3, 2), (7, 3), (15, 4), (31, 5)] {
        for bytes in [1usize, 100, 400] {
            let (programs, mems) = one_way(5, dst, bytes);
            let cfg = SimConfig::ipsc860(5).with_store_and_forward();
            let r = SimArena::new().run(&cfg, &programs, mems).unwrap();
            let hop = 95.0 + 0.394 * bytes as f64 + 10.3;
            let expect = hops as f64 * hop;
            assert!(
                (r.finish_time.as_us() - expect).abs() < 1e-6,
                "bytes={bytes} hops={hops}: {} vs {expect}",
                r.finish_time.as_us()
            );
            assert_eq!(
                r.memories[dst as usize][..bytes],
                (0..bytes).map(|i| i as u8).collect::<Vec<_>>()[..]
            );
        }
    }
}

#[test]
fn saf_sender_is_released_after_first_hop() {
    // Node 0 sends to node 7 (3 hops) then immediately sends to node 1
    // (1 hop). Under SAF the second send starts after hop 1 of the
    // first, not after full delivery.
    let bytes = 100usize;
    let n = 8usize;
    let mut programs = vec![Program::empty(); n];
    programs[0] = Program {
        ops: vec![
            Op::send(NodeId(7), 0..bytes, Tag::data(0, 1)),
            Op::send(NodeId(1), 0..bytes, Tag::data(0, 2)),
        ],
    };
    programs[7] = Program {
        ops: vec![
            Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
            Op::wait_recv(NodeId(0), Tag::data(0, 1)),
        ],
    };
    programs[1] = Program {
        ops: vec![
            Op::post_recv(NodeId(0), Tag::data(0, 2), 0..bytes),
            Op::wait_recv(NodeId(0), Tag::data(0, 2)),
        ],
    };
    let cfg = SimConfig::ipsc860(3).with_store_and_forward();
    let r = SimArena::new().run(&cfg, &programs, vec![vec![9u8; bytes]; n]).unwrap();
    let hop = 95.0 + 0.394 * 100.0 + 10.3; // 144.7
                                           // First message delivered at 3·hop = 434.1 (node 7 finish);
                                           // second send runs [hop, 2·hop], node 1 finishes at 289.4.
    assert!((r.node_finish[7].as_us() - 3.0 * hop).abs() < 1e-6);
    assert!((r.node_finish[1].as_us() - 2.0 * hop).abs() < 1e-6);
}

#[test]
fn saf_messages_pipeline_over_disjoint_hops() {
    // Two messages whose paths share no link proceed concurrently,
    // and a trailing message reuses a link as soon as the leading one
    // releases it hop by hop.
    let bytes = 200usize;
    let n = 8usize;
    // 0 -> 3 (links 0->1, 1->3) and 4 -> 7 (links 4->5, 5->7).
    let mut programs = vec![Program::empty(); n];
    programs[0] = Program { ops: vec![Op::send(NodeId(3), 0..bytes, Tag::data(0, 1))] };
    programs[4] = Program { ops: vec![Op::send(NodeId(7), 0..bytes, Tag::data(0, 2))] };
    programs[3] = Program {
        ops: vec![
            Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
            Op::wait_recv(NodeId(0), Tag::data(0, 1)),
        ],
    };
    programs[7] = Program {
        ops: vec![
            Op::post_recv(NodeId(4), Tag::data(0, 2), 0..bytes),
            Op::wait_recv(NodeId(4), Tag::data(0, 2)),
        ],
    };
    let cfg = SimConfig::ipsc860(3).with_store_and_forward();
    let r = SimArena::new().run(&cfg, &programs, vec![vec![1u8; bytes]; n]).unwrap();
    let hop = 95.0 + 0.394 * 200.0 + 10.3;
    assert!((r.finish_time.as_us() - 2.0 * hop).abs() < 1e-6, "fully concurrent");
    assert_eq!(r.stats.edge_contention_events, 0);
}

#[test]
fn circuit_beats_saf_for_long_distances() {
    // The motivation for circuit switching: an h-hop message costs
    // λ + τm + δh on a circuit but h(λ + τm + δ) stored-and-forwarded.
    let bytes = 400usize;
    for (dst, hops) in [(3u32, 2u32), (31, 5)] {
        let run = |saf: bool| {
            let (programs, mems) = one_way(5, dst, bytes);
            let cfg = if saf {
                SimConfig::ipsc860(5).with_store_and_forward()
            } else {
                SimConfig::ipsc860(5)
            };
            SimArena::new().run(&cfg, &programs, mems).unwrap().finish_time.as_us()
        };
        let circuit = run(false);
        let saf = run(true);
        assert!(
            (saf / circuit - hops as f64).abs() < 0.15 * hops as f64,
            "hops={hops}: saf {saf} vs circuit {circuit}"
        );
    }
}

#[test]
fn saf_contention_on_shared_hop_serializes() {
    // Paper Figure 1 pair: 0->31 and 2->23 share link 3->7; under SAF
    // the second message waits only for that hop, not the whole path.
    let bytes = 500usize;
    let n = 32usize;
    let mut programs = vec![Program::empty(); n];
    programs[0] = Program { ops: vec![Op::send(NodeId(31), 0..bytes, Tag::data(0, 1))] };
    programs[2] = Program { ops: vec![Op::send(NodeId(23), 0..bytes, Tag::data(0, 2))] };
    programs[31] = Program {
        ops: vec![
            Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
            Op::wait_recv(NodeId(0), Tag::data(0, 1)),
        ],
    };
    programs[23] = Program {
        ops: vec![
            Op::post_recv(NodeId(2), Tag::data(0, 2), 0..bytes),
            Op::wait_recv(NodeId(2), Tag::data(0, 2)),
        ],
    };
    let cfg = SimConfig::ipsc860(5).with_store_and_forward();
    let r = SimArena::new().run(&cfg, &programs, vec![vec![5u8; bytes]; n]).unwrap();
    // Under circuit switching these two paths collide disastrously on
    // edge 3-7 (see `edge_contention_serializes_circuits`). Under SAF
    // the hops pipeline: 2->23 crosses 3->7 during [s, 2s) and 0->31
    // during [2s, 3s) — disjoint windows, zero waiting. Store and
    // forward trades end-to-end latency for hop-level pipelining.
    let hop = 95.0 + 0.394 * 500.0 + 10.3;
    let t_23 = r.node_finish[23].as_us();
    let t_31 = r.node_finish[31].as_us();
    assert!((t_23 - 3.0 * hop).abs() < 1e-6, "2->23 unimpeded: {t_23}");
    assert!((t_31 - 5.0 * hop).abs() < 1e-6, "0->31 unimpeded: {t_31}");
    assert_eq!(r.stats.edge_contention_wait_ns, 0, "no time actually lost");
}
