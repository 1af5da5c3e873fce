//! Simulated time never wraps. Every instant a caller's input schedules
//! — the end of a `Compute`, a background stream's injections, a tenant
//! job's start, a flow-control backoff — must lie within
//! `SimTime::HORIZON` (2^63 − 1 ns), or the run is a typed error before
//! or at the offending instant, in debug and release builds alike. (An
//! unchecked `u64` add used to panic in debug builds and, in release
//! builds, return `Ok` with a `finish_time` wrapped past zero.) Inputs
//! right at the horizon still run: the half of the range above it is
//! headroom for the transmissions the engine adds on top.

use mce_hypercube::NodeId;
use mce_simnet::traffic::compose_programs;
use mce_simnet::{
    BackgroundStream, CwndAlg, FlowCtl, JobSpec, NetCondition, Op, Program, SimConfig, SimError,
    SimResult, SimTime, Simulator, Tag,
};

const BYTES: usize = 8;

fn run(cfg: SimConfig, programs: Vec<Program>) -> Result<SimResult, SimError> {
    let memories = vec![vec![0u8; BYTES]; programs.len()];
    Simulator::new(cfg, programs, memories).run()
}

/// Node 0 sends `BYTES` to node 1 of a d1 cube.
fn one_send() -> Vec<Program> {
    let tag = Tag::data(0, 1);
    vec![
        Program { ops: vec![Op::send(NodeId(1), 0..BYTES, tag)] },
        Program {
            ops: vec![Op::post_recv(NodeId(0), tag, 0..BYTES), Op::wait_recv(NodeId(0), tag)],
        },
    ]
}

fn assert_invalid_config(out: Result<SimResult, SimError>, what: &str) {
    match out {
        Err(SimError::InvalidConfig { reason }) => {
            assert!(reason.contains("horizon"), "{what}: {reason}")
        }
        other => panic!("{what}: expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn a_compute_past_the_horizon_is_an_invalid_program() {
    let programs = vec![
        Program { ops: vec![Op::Compute { ns: 10 }, Op::Compute { ns: u64::MAX - 3 }] },
        Program::empty(),
    ];
    match run(SimConfig::ipsc860(1), programs) {
        Err(SimError::InvalidProgram { node, reason }) => {
            assert_eq!(node, NodeId(0));
            assert!(reason.contains("Compute") && reason.contains("horizon"), "{reason}");
        }
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
    // A Compute of u64::MAX itself, and one ending just past the horizon.
    let h = SimTime::HORIZON.as_ns();
    for ns in [u64::MAX, h + 1] {
        let programs = vec![Program { ops: vec![Op::Compute { ns }] }, Program::empty()];
        assert!(matches!(
            run(SimConfig::ipsc860(1), programs),
            Err(SimError::InvalidProgram { .. })
        ));
    }
    // Ending exactly at the horizon is fine, and so is sending after.
    let mut programs = one_send();
    programs[0].ops.insert(0, Op::Compute { ns: h });
    let out = run(SimConfig::ipsc860(1), programs).expect("a run at the horizon");
    assert!(out.finish_time > SimTime::HORIZON, "{}", out.finish_time.as_ns());
}

#[test]
fn a_background_stream_past_the_horizon_is_an_invalid_config() {
    let h = SimTime::HORIZON.as_ns();
    let stream = |start_ns, period_ns, count| BackgroundStream {
        src: NodeId(0),
        dst: NodeId(1),
        bytes: BYTES,
        start_ns,
        period_ns,
        count,
    };
    let cfg = |s| SimConfig::ipsc860(1).with_netcond(NetCondition::default().with_background(s));
    for (s, what) in [
        (stream(u64::MAX, 1, 1), "start at u64::MAX"),
        (stream(h + 1, 1, 1), "start past the horizon"),
        (stream(0, u64::MAX, 3), "period × count overflows u64"),
        (stream(u64::MAX - 3, 10, 2), "start + period overflows u64"),
        (stream(2, h / 2, 3), "last injection one past the horizon"),
    ] {
        assert_invalid_config(run(cfg(s), one_send()), what);
    }
    // The last injection exactly at the horizon (1 + 2·⌊h/2⌋ = h) runs,
    // and a stream that never injects is never checked.
    let out = run(cfg(stream(1, h / 2, 3)), one_send()).expect("last injection at the horizon");
    assert_eq!(out.stats.background_transmissions, 3);
    let out = run(cfg(stream(u64::MAX, 1, 0)), one_send()).expect("an empty stream");
    assert_eq!(out.stats.background_transmissions, 0);
}

#[test]
fn a_job_start_past_the_horizon_is_an_invalid_config() {
    let programs = compose_programs(1, &[one_send(), one_send()]);
    let jobs = |start_ns| vec![JobSpec::at(0), JobSpec::at(start_ns)];
    for start_ns in [u64::MAX - 3, SimTime::HORIZON.as_ns() + 1] {
        let cfg = SimConfig::ipsc860(1).with_jobs(jobs(start_ns));
        assert_invalid_config(run(cfg, programs.clone()), "late job start");
    }
    let cfg = SimConfig::ipsc860(1).with_jobs(jobs(SimTime::HORIZON.as_ns()));
    let out = run(cfg, programs).expect("a job at the horizon");
    assert_eq!(out.stats.jobs[1].start_ns, SimTime::HORIZON.as_ns());
    assert!(out.stats.jobs[1].finish_ns > SimTime::HORIZON.as_ns());
}

#[test]
fn a_flow_control_backoff_past_the_horizon_is_an_invalid_config() {
    let programs = compose_programs(1, &[one_send()]);
    let flow =
        |rto_ns, window_max| FlowCtl { rto_ns, max_retries: 4, cwnd: CwndAlg::Aimd { window_max } };
    let h = SimTime::HORIZON.as_ns();
    for (f, what) in
        [(flow(u64::MAX, 2), "rto × window overflows u64"), (flow(h / 4 + 1, 4), "backoff")]
    {
        let cfg = SimConfig::ipsc860(1).with_jobs(vec![JobSpec::at(0).with_flow(f)]);
        assert_invalid_config(run(cfg, programs.clone()), what);
    }
    let cfg = SimConfig::ipsc860(1).with_jobs(vec![JobSpec::at(0).with_flow(flow(h / 4, 4))]);
    run(cfg, programs).expect("the longest backoff within the horizon");
}
