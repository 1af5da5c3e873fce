//! Behavioural tests of the circuit-switched engine: timing laws,
//! contention, NIC serialization, FORCED/UNFORCED semantics, barriers.

use mce_hypercube::NodeId;
use mce_simnet::{MsgKind, Op, Program, SimArena, SimConfig, SimError, Tag};

fn empty_memories(n: usize, bytes: usize) -> Vec<Vec<u8>> {
    vec![vec![0u8; bytes]; n]
}

/// Build a minimal one-way send program pair: node 0 sends `bytes` to
/// node `dst` in a dimension-`d` cube; all other nodes idle.
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
    let mut mems = empty_memories(n, bytes.max(1));
    mems[0] = (0..bytes).map(|i| i as u8).collect::<Vec<_>>();
    if bytes == 0 {
        mems[0] = vec![0];
    }
    (programs, mems)
}

#[test]
fn message_time_law_lambda_tau_delta() {
    // t = λ + τ m + δ h for every (m, h) combination.
    for (dst, hops) in [(1u32, 1u32), (3, 2), (7, 3), (15, 4), (31, 5)] {
        for bytes in [1usize, 10, 100, 397] {
            let (programs, mems) = one_way(5, dst, bytes);
            let r = SimArena::new().run(&SimConfig::ipsc860(5), &programs, mems).unwrap();
            let expect = 95.0 + 0.394 * bytes as f64 + 10.3 * hops as f64;
            assert!(
                (r.finish_time.as_us() - expect).abs() < 1e-6,
                "bytes={bytes} hops={hops}: {} vs {expect}",
                r.finish_time.as_us()
            );
        }
    }
}

#[test]
fn zero_byte_message_uses_lambda_zero() {
    let (programs, mems) = one_way(5, 1, 0);
    let r = SimArena::new().run(&SimConfig::ipsc860(5), &programs, mems).unwrap();
    assert!((r.finish_time.as_us() - (82.5 + 10.3)).abs() < 1e-6);
}

#[test]
fn payload_is_delivered_intact() {
    let (programs, mems) = one_way(4, 11, 64);
    let r = SimArena::new().run(&SimConfig::ipsc860(4), &programs, mems).unwrap();
    let expect: Vec<u8> = (0..64).map(|i| i as u8).collect();
    assert_eq!(r.memories[11], expect);
    assert_eq!(r.stats.transmissions, 1);
    assert_eq!(r.stats.bytes_moved, 64);
    assert_eq!(r.stats.link_crossings, 3); // 0 -> 11 = 0b1011: 3 hops
}

#[test]
fn edge_contention_serializes_circuits() {
    // Paper Figure 1: 0->31 and 2->23 share edge 3-7. Started
    // together, the second circuit must wait for the full duration of
    // the first.
    let d = 5u32;
    let n = 1usize << d;
    let bytes = 1000usize;
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
    let r =
        SimArena::new().run(&SimConfig::ipsc860(d), &programs, empty_memories(n, bytes)).unwrap();
    let t1 = 95.0 + 0.394 * 1000.0 + 10.3 * 5.0; // 0->31, 5 hops
    let t2 = 95.0 + 0.394 * 1000.0 + 10.3 * 3.0; // 2->23, 3 hops
                                                 // Node 0's circuit wins (issue order); node 2 waits out t1.
    assert!((r.finish_time.as_us() - (t1 + t2)).abs() < 1e-6);
    assert_eq!(r.stats.edge_contention_events, 1);
    assert!(r.stats.edge_contention_wait_ns > 0);
}

#[test]
fn non_conflicting_circuits_run_concurrently() {
    // 0->31 and 14->11 share only node 15: both proceed in parallel.
    let d = 5u32;
    let n = 1usize << d;
    let bytes = 1000usize;
    let mut programs = vec![Program::empty(); n];
    programs[0] = Program { ops: vec![Op::send(NodeId(31), 0..bytes, Tag::data(0, 1))] };
    programs[14] = Program { ops: vec![Op::send(NodeId(11), 0..bytes, Tag::data(0, 2))] };
    programs[31] = Program {
        ops: vec![
            Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
            Op::wait_recv(NodeId(0), Tag::data(0, 1)),
        ],
    };
    programs[11] = Program {
        ops: vec![
            Op::post_recv(NodeId(14), Tag::data(0, 2), 0..bytes),
            Op::wait_recv(NodeId(14), Tag::data(0, 2)),
        ],
    };
    let r =
        SimArena::new().run(&SimConfig::ipsc860(d), &programs, empty_memories(n, bytes)).unwrap();
    let t1 = 95.0 + 0.394 * 1000.0 + 10.3 * 5.0;
    assert!((r.finish_time.as_us() - t1).abs() < 1e-6, "node contention is free");
    assert_eq!(r.stats.edge_contention_events, 0);
}

#[test]
fn unsynchronized_bidirectional_exchange_serializes() {
    // Node 0 and node 1 both Send then WaitRecv without pairwise sync,
    // but staggered: node 1 first computes for 50 µs. The NIC rule
    // serializes the two transmissions.
    let bytes = 500usize;
    let t_msg = 95.0 + 0.394 * 500.0 + 10.3; // 302.3 µs over 1 hop
    let programs = vec![
        Program {
            ops: vec![
                Op::post_recv(NodeId(1), Tag::data(0, 1), 0..bytes),
                Op::send(NodeId(1), 0..bytes, Tag::data(0, 1)),
                Op::wait_recv(NodeId(1), Tag::data(0, 1)),
            ],
        },
        Program {
            ops: vec![
                Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
                Op::Compute { ns: 50_000 },
                Op::send(NodeId(0), 0..bytes, Tag::data(0, 1)),
                Op::wait_recv(NodeId(0), Tag::data(0, 1)),
            ],
        },
    ];
    let r =
        SimArena::new().run(&SimConfig::ipsc860(1), &programs, empty_memories(2, bytes)).unwrap();
    // Node 0 transmits [0, 302.3). Node 1 wants to transmit at 50 µs
    // but its receiver has been busy since 0 (gap > window): it waits
    // until 302.3, then transmits until 604.6.
    assert!(
        (r.finish_time.as_us() - 2.0 * t_msg).abs() < 1e-6,
        "expected serialization: {} vs {}",
        r.finish_time.as_us(),
        2.0 * t_msg
    );
    assert_eq!(r.stats.nic_serialization_events, 1);
}

#[test]
fn synchronized_bidirectional_exchange_is_concurrent() {
    // With simultaneous starts (both nodes reach Send at t = 0), the
    // two transmissions overlap fully.
    let bytes = 500usize;
    let t_msg = 95.0 + 0.394 * 500.0 + 10.3;
    let mk = |other: u32| Program {
        ops: vec![
            Op::post_recv(NodeId(other), Tag::data(0, 1), 0..bytes),
            Op::send(NodeId(other), 0..bytes, Tag::data(0, 1)),
            Op::wait_recv(NodeId(other), Tag::data(0, 1)),
        ],
    };
    let programs = vec![mk(1), mk(0)];
    let r =
        SimArena::new().run(&SimConfig::ipsc860(1), &programs, empty_memories(2, bytes)).unwrap();
    assert!((r.finish_time.as_us() - t_msg).abs() < 1e-6, "{}", r.finish_time.as_us());
    assert_eq!(r.stats.nic_serialization_events, 0);
}

#[test]
fn pairwise_sync_recovers_concurrency_despite_stagger() {
    // The Section 7.2 recipe: exchange zero-byte sync messages first.
    // Even with a 50 µs stagger the data transfers end up concurrent.
    let bytes = 500usize;
    let mk = |other: u32, delay: u64| {
        let mut ops = vec![
            Op::post_recv(NodeId(other), Tag::sync(0, 1), 0..0),
            Op::post_recv(NodeId(other), Tag::data(0, 1), 0..bytes),
        ];
        if delay > 0 {
            ops.push(Op::Compute { ns: delay });
        }
        ops.extend([
            Op::send_sync(NodeId(other), Tag::sync(0, 1)),
            Op::wait_recv(NodeId(other), Tag::sync(0, 1)),
            Op::send(NodeId(other), 0..bytes, Tag::data(0, 1)),
            Op::wait_recv(NodeId(other), Tag::data(0, 1)),
        ]);
        Program { ops }
    };
    let programs = vec![mk(1, 0), mk(0, 50_000)];
    let r =
        SimArena::new().run(&SimConfig::ipsc860(1), &programs, empty_memories(2, bytes)).unwrap();
    let t_sync = 82.5 + 10.3;
    let t_data = 95.0 + 0.394 * 500.0 + 10.3;
    // Node 0's sync goes out at 0 and lands at 92.8; node 1's sync
    // (wanting to start at 50) is serialized until 92.8, landing at
    // 185.6; both then start data at 185.6 concurrently.
    let expect = 2.0 * t_sync + t_data;
    assert!((r.finish_time.as_us() - expect).abs() < 1e-6, "{} vs {expect}", r.finish_time.as_us());
}

#[test]
fn forced_message_without_posted_receive_is_dropped_and_deadlocks() {
    // Section 7.3: "Omission of the (expensive) global synchronization
    // step is fatal as it leads to messages arriving before their
    // corresponding receives have been posted."
    let bytes = 10usize;
    let programs = vec![
        Program { ops: vec![Op::send(NodeId(1), 0..bytes, Tag::data(0, 1))] },
        Program {
            ops: vec![
                Op::Compute { ns: 10_000_000 }, // posts the receive far too late
                Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
                Op::wait_recv(NodeId(0), Tag::data(0, 1)),
            ],
        },
    ];
    let err = SimArena::new()
        .run(&SimConfig::ipsc860(1), &programs, empty_memories(2, bytes))
        .unwrap_err();
    match &err {
        SimError::Deadlock { stuck, forced_drops } => {
            assert_eq!(*forced_drops, 1);
            assert_eq!(stuck.len(), 1);
            assert_eq!(stuck[0].0, NodeId(1));
            assert!(stuck[0].1.contains("waiting for"), "{}", stuck[0].1);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    assert_eq!(err.blocked(), vec![NodeId(1)]);
}

// Deadlock-regression suite: the event queue draining with unfinished
// nodes must always surface as a typed `SimError::Deadlock` naming
// every blocked node (`SimError::blocked()`), never a silent success,
// a hang or a panic — whatever combination of waits, barriers and
// network conditions starved the queue.

#[test]
fn mismatched_barrier_deadlocks_with_blocked_nodes_listed() {
    // Node 0 enters a barrier nobody else reaches: queue drains with
    // node 0 InBarrier (Program::empty documents this trap).
    let n = 4usize;
    let mut programs = vec![Program::empty(); n];
    programs[0] = Program { ops: vec![Op::Barrier] };
    let err =
        SimArena::new().run(&SimConfig::ipsc860(2), &programs, empty_memories(n, 1)).unwrap_err();
    match &err {
        SimError::Deadlock { stuck, forced_drops } => {
            assert_eq!(*forced_drops, 0);
            assert_eq!(stuck.len(), 1);
            assert_eq!(stuck[0].0, NodeId(0));
            assert!(stuck[0].1.contains("barrier"), "{}", stuck[0].1);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    assert_eq!(err.blocked(), vec![NodeId(0)]);
}

#[test]
fn wait_for_a_message_nobody_sends_deadlocks_every_blocked_node() {
    // Both nodes wait on receives that are never sent: every node is
    // blocked when the queue drains, and all are listed in node order.
    let bytes = 8usize;
    let mk = |other: u32| Program {
        ops: vec![
            Op::post_recv(NodeId(other), Tag::data(0, 1), 0..bytes),
            Op::wait_recv(NodeId(other), Tag::data(0, 1)),
        ],
    };
    let programs = vec![mk(1), mk(0)];
    let err = SimArena::new()
        .run(&SimConfig::ipsc860(1), &programs, empty_memories(2, bytes))
        .unwrap_err();
    assert_eq!(err.blocked(), vec![NodeId(0), NodeId(1)]);
    match err {
        SimError::Deadlock { forced_drops, .. } => assert_eq!(forced_drops, 0),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn deadlock_is_still_detected_under_background_traffic() {
    // A conditioned run whose background stream keeps the event queue
    // alive long after the nodes starve: once the (finite) injections
    // drain, the deadlock must surface exactly as in the quiet case.
    use mce_simnet::{BackgroundStream, NetCondition};
    let bytes = 10usize;
    let programs = vec![
        Program { ops: vec![Op::send(NodeId(1), 0..bytes, Tag::data(0, 1))] },
        Program {
            ops: vec![
                Op::Compute { ns: 10_000_000 },
                Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
                Op::wait_recv(NodeId(0), Tag::data(0, 1)),
            ],
        },
    ];
    let nc = NetCondition::default().with_background(BackgroundStream {
        src: NodeId(1),
        dst: NodeId(0),
        bytes: 64,
        start_ns: 0,
        period_ns: 5_000_000,
        count: 10, // injections continue past the 10 ms starvation point
    });
    let cfg = SimConfig::ipsc860(1).with_netcond(nc);
    let err = SimArena::new().run(&cfg, &programs, empty_memories(2, bytes)).unwrap_err();
    assert_eq!(err.blocked(), vec![NodeId(1)]);
    match err {
        SimError::Deadlock { forced_drops, .. } => {
            assert_eq!(forced_drops, 1, "background payloads are not FORCED drops")
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn blocked_is_empty_for_non_deadlock_errors() {
    let mismatch =
        SimError::SizeMismatch { node: NodeId(1), tag: Tag::data(0, 1), posted: 4, sent: 8 };
    assert!(mismatch.blocked().is_empty());
    assert!(SimError::Unroutable { src: NodeId(0), dst: NodeId(1) }.blocked().is_empty());
}

#[test]
fn unforced_message_is_buffered_across_late_post() {
    // Same scenario with UNFORCED type: the OS buffers the message and
    // the late post succeeds.
    let bytes = 10usize;
    let programs = vec![
        Program {
            ops: vec![Op::Send {
                dst: NodeId(1),
                from: 0..bytes,
                tag: Tag::data(0, 1),
                kind: MsgKind::Unforced,
            }],
        },
        Program {
            ops: vec![
                Op::Compute { ns: 10_000_000 },
                Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
                Op::wait_recv(NodeId(0), Tag::data(0, 1)),
            ],
        },
    ];
    let mut mems = empty_memories(2, bytes);
    mems[0] = vec![7u8; bytes];
    let r = SimArena::new().run(&SimConfig::ipsc860(1), &programs, mems).unwrap();
    assert_eq!(r.memories[1], vec![7u8; bytes]);
    assert_eq!(r.stats.forced_drops, 0);
    // 10 bytes < 100-byte threshold: no reserve handshake.
    assert_eq!(r.stats.reserve_handshakes, 0);
}

#[test]
fn large_unforced_message_pays_reserve_handshake() {
    let bytes = 400usize;
    let programs = vec![
        Program {
            ops: vec![Op::Send {
                dst: NodeId(1),
                from: 0..bytes,
                tag: Tag::data(0, 1),
                kind: MsgKind::Unforced,
            }],
        },
        Program {
            ops: vec![
                Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
                Op::wait_recv(NodeId(0), Tag::data(0, 1)),
            ],
        },
    ];
    let r =
        SimArena::new().run(&SimConfig::ipsc860(1), &programs, empty_memories(2, bytes)).unwrap();
    let base = 95.0 + 0.394 * 400.0 + 10.3;
    let handshake = 2.0 * (82.5 + 10.3);
    assert!((r.finish_time.as_us() - (base + handshake)).abs() < 1e-6);
    assert_eq!(r.stats.reserve_handshakes, 1);
}

#[test]
fn barrier_costs_150_per_dimension_and_aligns_nodes() {
    let d = 3u32;
    let n = 1usize << d;
    let mk = |stagger_ns: u64| Program { ops: vec![Op::Compute { ns: stagger_ns }, Op::Barrier] };
    let programs: Vec<Program> = (0..n).map(|i| mk(i as u64 * 1000)).collect();
    let r = SimArena::new().run(&SimConfig::ipsc860(d), &programs, empty_memories(n, 1)).unwrap();
    // Last node enters at 7 µs; release at 7 + 450 µs.
    assert!((r.finish_time.as_us() - (7.0 + 450.0)).abs() < 1e-6);
    assert_eq!(r.stats.barriers, 1);
    // Every node finishes at the same instant.
    assert!(r.node_finish.iter().all(|&t| t == r.finish_time));
}

#[test]
fn permute_rearranges_blocks_and_costs_rho() {
    // 4 blocks of 8 bytes, rotate-left-by-one block index map.
    let perm = std::sync::Arc::new(vec![1u32, 2, 3, 0]);
    let programs = vec![Program { ops: vec![Op::Permute { perm, block_bytes: 8 }] }];
    let mut mems = vec![(0..32u8).collect::<Vec<u8>>()];
    let cfg = SimConfig::ipsc860(0);
    let r = SimArena::new().run(&cfg, &programs, std::mem::take(&mut mems)).unwrap();
    // Block i moved to position (i+1) % 4: block 3 now first.
    let expect: Vec<u8> = (24..32).chain(0..24).collect();
    assert_eq!(r.memories[0], expect);
    assert!((r.finish_time.as_us() - 0.54 * 32.0).abs() < 1e-6);
}

#[test]
fn marks_record_phase_times() {
    let programs = vec![Program {
        ops: vec![Op::Mark { label: 0 }, Op::Compute { ns: 5000 }, Op::Mark { label: 1 }],
    }];
    let r = SimArena::new().run(&SimConfig::ipsc860(0), &programs, empty_memories(1, 1)).unwrap();
    assert_eq!(r.stats.marks[&0].as_ns(), 0);
    assert_eq!(r.stats.marks[&1].as_ns(), 5000);
}

#[test]
fn determinism_same_seed_same_result() {
    let cfg = SimConfig::ipsc860(5).with_jitter(0.05, 1234);
    let mk = || {
        let (programs, mems) = one_way(5, 31, 250);
        SimArena::new().run(&cfg, &programs, mems).unwrap().finish_time
    };
    assert_eq!(mk(), mk());
    let cfg2 = SimConfig::ipsc860(5).with_jitter(0.05, 99);
    let (programs, mems) = one_way(5, 31, 250);
    let other = SimArena::new().run(&cfg2, &programs, mems).unwrap().finish_time;
    assert_ne!(mk(), other, "different seed should perturb timing");
}

#[test]
fn size_mismatch_is_reported() {
    let programs = vec![
        Program { ops: vec![Op::send(NodeId(1), 0..10, Tag::data(0, 1))] },
        Program {
            ops: vec![
                Op::post_recv(NodeId(0), Tag::data(0, 1), 0..4),
                Op::wait_recv(NodeId(0), Tag::data(0, 1)),
            ],
        },
    ];
    match SimArena::new().run(&SimConfig::ipsc860(1), &programs, empty_memories(2, 16)) {
        Err(SimError::SizeMismatch { posted: 4, sent: 10, .. }) => {}
        other => panic!("expected size mismatch, got {other:?}"),
    }
}

/// Rerunning is neither an error nor a panic: the same inputs run again
/// on a spent arena yield the first run's result bit for bit. (The name
/// is kept from the one-shot `Simulator`, whose second `run` returned a
/// typed error; an arena has no spent state to report.)
#[test]
fn rerun_yields_already_ran_error_not_a_panic() {
    let (programs, mems) = one_way(3, 2, 32);
    let cfg = SimConfig::ipsc860(3);
    let mut arena = SimArena::new();
    let first = arena.run(&cfg, &programs, mems.clone()).unwrap();
    for _ in 0..2 {
        let again = arena.run(&cfg, &programs, mems.clone()).unwrap();
        assert_eq!(again.finish_time, first.finish_time);
        assert_eq!(again.memories, first.memories);
        assert_eq!(again.stats, first.stats);
    }
}

#[test]
fn self_send_rejected_at_compile_time_not_mid_run() {
    // Node 2 sends to itself after an expensive compute; the compile
    // pass must reject the program before any simulated time elapses
    // (previously this aborted mid-run via assert_ne!).
    let n = 4usize;
    let mut programs = vec![Program::empty(); n];
    programs[2] = Program {
        ops: vec![
            Op::Compute { ns: 1_000_000 },
            Op::send(NodeId(2), 0..8, Tag::data(0, 1)), // op index 1
        ],
    };
    match SimArena::new().run(&SimConfig::ipsc860(2), &programs, empty_memories(n, 8)) {
        Err(SimError::SelfSend { node, op }) => {
            assert_eq!(node, NodeId(2));
            assert_eq!(op, 1);
        }
        other => panic!("expected SelfSend, got {other:?}"),
    }
}

#[test]
fn invalid_config_rejected_up_front() {
    let mut cfg = SimConfig::ipsc860(2);
    cfg.jitter_frac = -0.25;
    let (programs, mems) = one_way(2, 1, 8);
    match SimArena::new().run(&cfg, &programs, mems) {
        Err(SimError::InvalidConfig { reason }) => assert!(reason.contains("jitter"), "{reason}"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn invalid_program_rejected_up_front() {
    let programs = vec![Program { ops: vec![Op::wait_recv(NodeId(1), Tag::data(0, 1))] }];
    match SimArena::new().run(&SimConfig::ipsc860(0), &programs, empty_memories(1, 1)) {
        Err(SimError::InvalidProgram { .. }) => {}
        other => panic!("expected invalid program, got {other:?}"),
    }
}

#[test]
fn compile_checks_match_program_validate() {
    // The engine's fused compile pass re-implements Program::validate
    // for speed; this pins the two to identical accept/reject
    // decisions and identical error strings so they cannot drift.
    let bad_programs: Vec<Program> = vec![
        // Recv range out of memory.
        Program { ops: vec![Op::post_recv(NodeId(1), Tag::data(0, 1), 60..100)] },
        // Duplicate post of the same key.
        Program {
            ops: vec![
                Op::post_recv(NodeId(1), Tag::data(0, 1), 0..4),
                Op::post_recv(NodeId(1), Tag::data(0, 1), 4..8),
            ],
        },
        // Send range out of memory.
        Program { ops: vec![Op::send(NodeId(1), 0..100, Tag::data(0, 1))] },
        // Wait for a never-posted key.
        Program { ops: vec![Op::wait_recv(NodeId(1), Tag::data(0, 9))] },
        // Permute exceeding memory.
        Program {
            ops: vec![Op::Permute {
                perm: std::sync::Arc::new((0..40u32).collect()),
                block_bytes: 4,
            }],
        },
        // Not a permutation.
        Program {
            ops: vec![Op::Permute { perm: std::sync::Arc::new(vec![0, 0, 1, 2]), block_bytes: 4 }],
        },
    ];
    let memory_len = 64usize;
    for bad in bad_programs {
        let expected = bad.validate(memory_len).expect_err("program must be invalid");
        let mut programs = vec![Program::empty(), Program::empty()];
        programs[0] = bad;
        match SimArena::new().run(&SimConfig::ipsc860(1), &programs, empty_memories(2, memory_len))
        {
            Err(SimError::InvalidProgram { node, reason }) => {
                assert_eq!(node, NodeId(0));
                assert_eq!(reason, expected, "engine and validator must agree verbatim");
            }
            other => panic!("expected InvalidProgram({expected}), got {other:?}"),
        }
    }
    // And a valid program passes both.
    let good = Program {
        ops: vec![
            Op::post_recv(NodeId(1), Tag::data(0, 1), 0..8),
            Op::send(NodeId(1), 8..16, Tag::data(0, 1)),
            Op::wait_recv(NodeId(1), Tag::data(0, 1)),
        ],
    };
    good.validate(memory_len).unwrap();
    let echo = Program {
        ops: vec![
            Op::post_recv(NodeId(0), Tag::data(0, 1), 0..8),
            Op::send(NodeId(0), 8..16, Tag::data(0, 1)),
            Op::wait_recv(NodeId(0), Tag::data(0, 1)),
        ],
    };
    SimArena::new()
        .run(&SimConfig::ipsc860(1), &[good, echo], empty_memories(2, memory_len))
        .unwrap();
}

/// A reversed byte range, and a permute span whose `usize` product
/// wraps back under the memory size, are rejected up front by both the
/// compiler and `Program::validate`, with one message. Before, the
/// reversed send underflowed mid-run (a panic in debug builds, a
/// nonsense `SizeMismatch` in release) and the wrapped span aborted
/// the process on a 16 GiB allocation.
#[test]
#[allow(clippy::reversed_empty_ranges)] // the reversed ranges are the input under test
fn reversed_ranges_and_overflowing_permute_spans_are_rejected_up_front() {
    let memory_len = 64usize;
    let block_bytes = usize::MAX / 4 + 2; // 4 blocks wrap to 4 bytes
    let span = 4 * block_bytes as u128;
    let cases = [
        (
            Op::send(NodeId(1), 8..4, Tag::data(0, 1)),
            "op 0: send range 8..4 is reversed".to_string(),
        ),
        (
            Op::post_recv(NodeId(1), Tag::data(0, 1), 12..8),
            "op 0: recv range 12..8 is reversed".to_string(),
        ),
        (
            Op::Permute { perm: std::sync::Arc::new((0..4u32).collect()), block_bytes },
            format!("op 0: permute covers {span} bytes > memory {memory_len}"),
        ),
    ];
    let mut arena = SimArena::new();
    for (op, expected) in cases {
        let bad = Program { ops: vec![op] };
        assert_eq!(bad.validate(memory_len), Err(expected.clone()));
        let programs = [bad, Program::empty()];
        match arena.run(&SimConfig::ipsc860(1), &programs, empty_memories(2, memory_len)) {
            Err(SimError::InvalidProgram { node, reason }) => {
                assert_eq!((node, reason), (NodeId(0), expected));
            }
            other => panic!("expected InvalidProgram({expected}), got {other:?}"),
        }
    }
}
