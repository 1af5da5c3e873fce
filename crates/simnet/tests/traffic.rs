//! Multi-tenant traffic integration tests: job composition, per-job
//! statistics, reactive flow control under link policies, dead-pair
//! skip semantics, and the co-tenancy batch sweeps. Every test name
//! carries the `traffic_` prefix so CI's fail-fast filter
//! (`cargo test -p mce-simnet traffic`) selects the whole file.

use mce_hypercube::NodeId;
use mce_simnet::batch::SimBatch;
use mce_simnet::traffic::{compose_memories, compose_programs};
use mce_simnet::{
    CwndAlg, FlowCtl, JobSpec, LinkPolicy, NetCondition, Op, Program, SimArena, SimConfig,
    SimError, SimTime, Tag,
};
use std::sync::Arc;

/// One job's workload on a d-cube: node 0 sends `bytes` of `fill` to
/// node 1 (their shared dimension-0 cable), everyone else idles.
fn one_way(d: u32, bytes: usize, fill: u8) -> (Vec<Program>, Vec<Vec<u8>>) {
    let n = 1usize << d;
    let mut programs = vec![Program::empty(); n];
    programs[0] = Program { ops: vec![Op::send(NodeId(1), 0..bytes, Tag::data(0, 1))] };
    programs[1] = Program {
        ops: vec![
            Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
            Op::wait_recv(NodeId(0), Tag::data(0, 1)),
        ],
    };
    let mut memories = vec![vec![0u8; bytes]; n];
    memories[0] = vec![fill; bytes];
    (programs, memories)
}

/// `count` back-to-back transfers 0 -> 1, distinct tags.
fn burst(d: u32, bytes: usize, count: u32, fill: u8) -> (Vec<Program>, Vec<Vec<u8>>) {
    let n = 1usize << d;
    let mut programs = vec![Program::empty(); n];
    let mut send_ops = Vec::new();
    let mut recv_ops = Vec::new();
    for k in 0..count {
        recv_ops.push(Op::post_recv(NodeId(0), Tag::data(0, k + 1), 0..bytes));
    }
    for k in 0..count {
        send_ops.push(Op::send(NodeId(1), 0..bytes, Tag::data(0, k + 1)));
        recv_ops.push(Op::wait_recv(NodeId(0), Tag::data(0, k + 1)));
    }
    programs[0] = Program { ops: send_ops };
    programs[1] = Program { ops: recv_ops };
    let mut memories = vec![vec![0u8; bytes]; n];
    memories[0] = vec![fill; bytes];
    (programs, memories)
}

fn run_composed(
    cfg: &SimConfig,
    per_job: &[(Vec<Program>, Vec<Vec<u8>>)],
) -> Result<mce_simnet::engine::SimResult, SimError> {
    let d = cfg.dimension;
    let programs: Vec<Vec<Program>> = per_job.iter().map(|(p, _)| p.clone()).collect();
    let memories: Vec<Vec<Vec<u8>>> = per_job.iter().map(|(_, m)| m.clone()).collect();
    SimArena::new().run(cfg, &compose_programs(d, &programs), compose_memories(d, &memories))
}

/// The standing no-op pin, API flavour: a single job with no flow
/// control and a zero start offset must be bit-identical to the
/// legacy single-tenant run — same finish, same memories, same stats
/// apart from the (purely additive) per-job block.
#[test]
fn traffic_single_job_api_is_bit_identical_to_legacy() {
    let d = 3;
    let (programs, memories) = one_way(d, 300, 9);
    let legacy = SimArena::new().run(&SimConfig::ipsc860(d), &programs, memories.clone()).unwrap();
    let cfg = SimConfig::ipsc860(d).with_jobs(vec![JobSpec::default()]);
    let tenant = SimArena::new().run(&cfg, &programs, memories).unwrap();
    assert_eq!(legacy.finish_time, tenant.finish_time);
    assert_eq!(legacy.memories, tenant.memories);
    assert_eq!(legacy.node_finish, tenant.node_finish);
    let mut scrubbed = tenant.stats.clone();
    assert_eq!(scrubbed.jobs.len(), 1, "jobs API reports its one job");
    assert_eq!(scrubbed.jobs[0].transmissions, 1);
    assert!(scrubbed.jobs[0].finish_ns > 0);
    scrubbed.jobs.clear();
    assert_eq!(legacy.stats, scrubbed);
}

/// Two co-tenant jobs share the 0-1 cable: both deliver their data,
/// each gets its own stats block, and exactly the later-arriving
/// circuit records the edge-contention wait.
#[test]
fn traffic_two_jobs_contend_on_the_shared_cable() {
    let d = 2;
    let n = 1usize << d;
    let cfg = SimConfig::ipsc860(d).with_jobs(vec![JobSpec::default(), JobSpec::default()]);
    let r = run_composed(&cfg, &[one_way(d, 400, 0xA1), one_way(d, 400, 0xB2)]).unwrap();
    assert_eq!(r.memories.len(), 2 * n);
    assert_eq!(r.memories[1], vec![0xA1; 400], "job 0 delivered");
    assert_eq!(r.memories[n + 1], vec![0xB2; 400], "job 1 delivered");
    assert_eq!(r.stats.jobs.len(), 2);
    assert!(r.stats.jobs.iter().all(|j| j.transmissions == 1 && j.bytes_moved == 400));
    let waits: Vec<u64> = r.stats.jobs.iter().map(|j| j.edge_contention_wait_ns).collect();
    assert!(
        waits.iter().filter(|&&w| w > 0).count() == 1,
        "exactly one job serializes behind the other: {waits:?}"
    );
    let slowdowns = r.stats.job_slowdowns();
    assert_eq!(slowdowns.len(), 2);
    assert!(slowdowns.iter().cloned().fold(0.0, f64::max) > 1.0, "{slowdowns:?}");
}

/// A staggered second job starts (and therefore finishes) later, and
/// `JobStats::makespan_ns` subtracts the offset back out.
#[test]
fn traffic_staggered_start_offsets_the_second_job() {
    let d = 2;
    let stagger = 5_000_000u64; // 5 ms: far beyond the transfer time.
    let cfg = SimConfig::ipsc860(d).with_jobs(vec![JobSpec::default(), JobSpec::at(stagger)]);
    let r = run_composed(&cfg, &[one_way(d, 200, 1), one_way(d, 200, 2)]).unwrap();
    let [a, b] = &r.stats.jobs[..] else { panic!("two jobs") };
    assert!(a.finish_ns < stagger, "job 0 done before job 1 starts");
    assert!(b.finish_ns > stagger);
    // With no overlap both jobs see an idle network: equal makespans.
    assert_eq!(a.makespan_ns(), b.makespan_ns());
    assert_eq!(r.stats.job_slowdowns(), vec![1.0, 1.0]);
    assert!((r.stats.jain_fairness() - 1.0).abs() < 1e-12);
}

/// Jobs are isolated address spaces: a program that names a context
/// outside its own job is rejected before any simulated time elapses.
#[test]
fn traffic_cross_job_send_is_rejected() {
    let d = 2;
    let n = 1usize << d;
    let (mut programs, memories) = one_way(d, 64, 7);
    programs.extend(vec![Program::empty(); n]);
    let mut memories2 = memories.clone();
    memories2.extend(vec![vec![0u8; 64]; n]);
    // Job 0's node 0 addresses job 1's node 1 (context 5).
    programs[0] = Program { ops: vec![Op::send(NodeId(n as u32 + 1), 0..64, Tag::data(0, 1))] };
    let cfg = SimConfig::ipsc860(d).with_jobs(vec![JobSpec::default(), JobSpec::default()]);
    let err = SimArena::new().run(&cfg, &programs, memories2).unwrap_err();
    match err {
        SimError::InvalidProgram { reason, .. } => {
            assert!(reason.contains("cross-job"), "{reason}")
        }
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
}

/// A drop-tail-starved reactive job fails with the typed
/// `RetriesExhausted`, never a deadlock: job 0 (blocking, policy-
/// exempt) holds the 0-1 cable with a huge transfer while job 1's
/// flow-controlled source burns its whole retry budget against the
/// busy link.
#[test]
fn traffic_drop_tail_starvation_is_a_typed_error_not_a_deadlock() {
    let d = 2;
    let flow = FlowCtl { rto_ns: 5_000, max_retries: 3, cwnd: CwndAlg::Aimd { window_max: 8 } };
    let cfg = SimConfig::ipsc860(d)
        .with_netcond(
            NetCondition::default().with_link_policy(LinkPolicy::DropTail { queue_limit: 0 }),
        )
        .with_jobs(vec![JobSpec::default(), JobSpec::at(1_000).with_flow(flow)]);
    let err = run_composed(&cfg, &[one_way(d, 50_000, 1), one_way(d, 100, 2)]).unwrap_err();
    match err {
        SimError::RetriesExhausted { job, retries, .. } => {
            assert_eq!(job, 1, "the flow-controlled tenant starves");
            assert_eq!(retries, 4, "max_retries + 1 attempts");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// With a budget that outlasts the hog, the same starved job backs
/// off (AIMD-stretched), retries, and eventually lands its transfer.
#[test]
fn traffic_drop_tail_recovers_once_the_cable_frees() {
    let d = 2;
    let n = 1usize << d;
    let flow = FlowCtl { rto_ns: 100_000, max_retries: 64, cwnd: CwndAlg::Aimd { window_max: 8 } };
    let cfg = SimConfig::ipsc860(d)
        .with_netcond(
            NetCondition::default().with_link_policy(LinkPolicy::DropTail { queue_limit: 0 }),
        )
        .with_jobs(vec![JobSpec::default(), JobSpec::at(1_000).with_flow(flow)]);
    let r = run_composed(&cfg, &[one_way(d, 20_000, 1), one_way(d, 100, 2)]).unwrap();
    assert_eq!(r.memories[n + 1], vec![2u8; 100], "retried transfer delivered");
    assert!(r.stats.flow_drops > 0, "the busy cable refused attempts");
    assert_eq!(r.stats.retransmissions, r.stats.flow_drops);
    let j1 = &r.stats.jobs[1];
    assert!(j1.drops > 0 && j1.retransmissions == j1.drops);
    assert_eq!(r.stats.jobs[0].drops, 0, "blocking job is policy-exempt");
}

/// NACK policy: same drop-tail refusal, but the sender learns
/// immediately and retries on the short fixed NACK delay instead of
/// the congestion-window backoff — so it recovers strictly earlier.
#[test]
fn traffic_nack_retries_faster_than_drop_tail() {
    let d = 2;
    let flow = FlowCtl { rto_ns: 400_000, max_retries: 200, cwnd: CwndAlg::Aimd { window_max: 8 } };
    let finish = |policy: LinkPolicy| {
        let cfg = SimConfig::ipsc860(d)
            .with_netcond(NetCondition::default().with_link_policy(policy))
            .with_jobs(vec![JobSpec::default(), JobSpec::at(1_000).with_flow(flow)]);
        let r = run_composed(&cfg, &[one_way(d, 20_000, 1), one_way(d, 100, 2)]).unwrap();
        assert!(r.stats.retransmissions > 0);
        r.stats.jobs[1].finish_ns
    };
    let nack = finish(LinkPolicy::Nack { queue_limit: 0 });
    let drop_tail = finish(LinkPolicy::DropTail { queue_limit: 0 });
    assert!(nack < drop_tail, "nack {nack} should beat drop-tail {drop_tail}");
}

/// A lossy cable corrupts some circuits end-to-end; the reactive
/// source redraws its coin per attempt and every payload still lands.
#[test]
fn traffic_lossy_link_retransmits_until_delivery() {
    let d = 2;
    let flow = FlowCtl::default();
    let cfg = SimConfig::ipsc860(d)
        .with_netcond(
            NetCondition::default()
                .with_link_policy(LinkPolicy::Lossy { loss_per_myriad: 4_000, seed: 0xBAD_CAB1E }),
        )
        .with_jobs(vec![JobSpec::default().with_flow(flow)]);
    let r = run_composed(&cfg, &[burst(d, 100, 16, 5)]).unwrap();
    assert_eq!(r.memories[1], vec![5u8; 100], "every burst message arrived");
    assert!(r.stats.retransmissions > 0, "40% loss over 16 transfers must hit");
    assert_eq!(r.stats.jobs[0].retransmissions, r.stats.retransmissions);
}

/// Link policies only touch flow-controlled jobs: blocking sources
/// model the NX/2 kernel's reliable circuit establishment and are
/// never dropped, even under the most aggressive drop-tail.
#[test]
fn traffic_policies_exempt_blocking_jobs() {
    let d = 2;
    let n = 1usize << d;
    let cfg = SimConfig::ipsc860(d)
        .with_netcond(
            NetCondition::default().with_link_policy(LinkPolicy::DropTail { queue_limit: 0 }),
        )
        .with_jobs(vec![JobSpec::default(), JobSpec::default()]);
    let r = run_composed(&cfg, &[one_way(d, 400, 3), one_way(d, 400, 4)]).unwrap();
    assert_eq!(r.stats.flow_drops, 0);
    assert_eq!(r.stats.retransmissions, 0);
    assert_eq!(r.memories[1], vec![3u8; 400]);
    assert_eq!(r.memories[n + 1], vec![4u8; 400]);
}

/// `skip_dead_pairs` downgrades an unroutable pair from a typed abort
/// to a per-job accounting line: the send and its wait are skipped,
/// the run completes, and the receiver keeps its hole.
#[test]
fn traffic_dead_pair_skip_reports_per_job() {
    let d = 2;
    // Mask-1 neighbours have a single route; killing cable 0-1 makes
    // the pair dead. Without the skip this is the classic typed abort.
    let strict = SimConfig::ipsc860(d)
        .with_netcond(NetCondition::default().with_fault(NodeId(0), 0))
        .with_jobs(vec![JobSpec::default()]);
    let (programs, memories) = one_way(d, 128, 6);
    let err = SimArena::new().run(&strict, &programs, memories.clone()).unwrap_err();
    assert!(matches!(err, SimError::Unroutable { src: NodeId(0), dst: NodeId(1) }), "{err}");
    // With the skip the job runs to completion around the hole.
    let lenient = SimConfig::ipsc860(d)
        .with_netcond(NetCondition::default().with_fault(NodeId(0), 0).with_skip_dead_pairs())
        .with_jobs(vec![JobSpec::default()]);
    let r = SimArena::new().run(&lenient, &programs, memories).unwrap();
    assert_eq!(r.stats.jobs[0].dead_pairs_skipped, 1);
    assert_eq!(r.stats.jobs[0].transmissions, 0, "the only send was skipped");
    assert_eq!(r.memories[1], vec![0u8; 128], "the hole stays unwritten");
}

/// Co-tenancy sweeps queued one run per cell: staggers derive per-run
/// configs off one shared program set, and a policy sweep answers
/// blocking vs reactive in one batch.
#[test]
fn traffic_batch_sweeps_cover_staggers_and_policies() {
    let d = 2;
    let jobs = vec![JobSpec::default(), JobSpec::default()];
    let (p0, m0) = one_way(d, 400, 1);
    let (p1, m1) = one_way(d, 400, 2);
    let programs = Arc::new(compose_programs(d, &[p0.clone(), p1.clone()]));
    let memories = Arc::new(compose_memories(d, &[m0.clone(), m1.clone()]));
    let base = SimConfig::ipsc860(d);
    let mut batch = SimBatch::new(base.clone());
    // Job `j` starts `j · s` in; the offsets live in the config, so one
    // program set serves every stagger.
    let staggers: Vec<usize> = [0u64, 10_000_000]
        .into_iter()
        .map(|s| {
            let staggered = jobs
                .iter()
                .enumerate()
                .map(|(j, job)| JobSpec { start_ns: j as u64 * s, ..job.clone() })
                .collect();
            batch.push_with_config(
                base.clone().with_jobs(staggered),
                Arc::clone(&programs),
                &memories,
            )
        })
        .collect();
    // One flow-controlled mix under each link policy (`None` = blocking
    // sources).
    let flow_jobs = vec![JobSpec::default().with_flow(FlowCtl::default()), JobSpec::default()];
    let policies: Vec<usize> = [None, Some(LinkPolicy::DropTail { queue_limit: 4 })]
        .into_iter()
        .map(|policy| {
            let mut cfg = base.clone().with_jobs(flow_jobs.clone());
            if let Some(p) = policy {
                cfg = cfg.with_netcond(NetCondition::default().with_link_policy(p));
            }
            batch.push_with_config(cfg, Arc::clone(&programs), &memories)
        })
        .collect();
    // A tenancy mix with its own composed programs.
    let mix = batch.push_with_config(
        base.clone().with_jobs(jobs.clone()),
        Arc::new(compose_programs(d, &[p0, p1])),
        compose_memories(d, &[m0, m1]),
    );
    assert_eq!((staggers, policies, mix), (vec![0, 1], vec![2, 3], 4));
    let results = batch.run();
    assert!(results.iter().all(Result::is_ok));
    // Overlapped co-tenants contend; fully staggered ones do not.
    let max_slowdown = |i: usize| {
        let r = results[i].as_ref().unwrap();
        r.stats.job_slowdowns().into_iter().fold(0.0, f64::max)
    };
    assert!(max_slowdown(0) > 1.0, "overlap serializes one job");
    assert_eq!(max_slowdown(1), 1.0, "10 ms stagger removes all contention");
    // The aggregate folds the fairness columns over tenant runs.
    let agg = mce_simnet::batch::agg::aggregate(&results);
    assert_eq!(agg.jain_fairness.n, results.len());
    assert!(agg.job_slowdown_max.max > 1.0);
}

/// A drop-tail / NACK switch refuses a circuit when the blocking
/// link's wait list already holds `queue_limit` transmissions, so the
/// refusal counts read the wait lists' lengths directly. Three
/// reactive tenants queue behind a blocking hog on the 0-1 cable; the
/// counts are the ones the engine produced when those lists were hash
/// map entries (commit 99f8196), and they hold on an arena whose
/// previous run was abandoned with the tenants still queued.
#[test]
fn traffic_queue_limit_counts_the_links_wait_list() {
    let d = 2;
    let flow =
        FlowCtl { rto_ns: 100_000, max_retries: 2000, cwnd: CwndAlg::Aimd { window_max: 8 } };
    let tenants =
        [one_way(d, 20_000, 1), one_way(d, 100, 2), one_way(d, 100, 3), one_way(d, 100, 4)];
    let programs: Vec<Vec<Program>> = tenants.iter().map(|(p, _)| p.clone()).collect();
    let programs = compose_programs(d, &programs);
    let memories: Vec<Vec<Vec<u8>>> = tenants.iter().map(|(_, m)| m.clone()).collect();
    let memories = compose_memories(d, &memories);
    let mut jobs = vec![JobSpec::default()];
    jobs.extend((1..=3u64).map(|k| JobSpec::at(1_000 * k).with_flow(flow)));
    // (queue_limit, nack) -> (retransmissions == flow_drops, finish ns).
    let pinned = [
        ((0, false), (39, 10_347_700)),
        ((0, true), (1953, 8_435_200)),
        ((1, false), (24, 8_891_400)),
        ((1, true), (1290, 8_419_400)),
        ((2, false), (12, 8_747_700)),
        ((2, true), (639, 8_419_400)),
    ];
    let mut used = SimArena::new();
    for ((queue_limit, nack), (drops, finish_ns)) in pinned {
        let policy = if nack {
            LinkPolicy::Nack { queue_limit }
        } else {
            LinkPolicy::DropTail { queue_limit }
        };
        let cfg = SimConfig::ipsc860(d)
            .with_netcond(NetCondition::default().with_link_policy(policy))
            .with_jobs(jobs.clone());
        let fresh = SimArena::new().run(&cfg, &programs, memories.clone()).unwrap();
        let seen = (fresh.stats.retransmissions, fresh.finish_time.as_ns());
        assert_eq!(seen, (drops, finish_ns), "{policy:?}");
        assert_eq!(fresh.stats.flow_drops, drops, "{policy:?}");
        // Abandon a run while the hog still holds the cable, then run
        // it again on the same arena.
        let cut = used.run_until(&cfg, &programs, memories.clone(), SimTime(4_000_000)).unwrap();
        assert!(cut.is_none(), "{policy:?}: the hog alone takes 8 ms");
        let again = used.run(&cfg, &programs, memories.clone()).unwrap();
        assert_eq!(again.stats, fresh.stats, "{policy:?} on a used arena");
        assert_eq!(again.finish_time, fresh.finish_time, "{policy:?} on a used arena");
    }
}
