//! Simulated time never wraps. Every instant a caller's input schedules
//! — the end of a `Compute`, a background stream's injections, a tenant
//! job's start, a flow-control backoff — must lie within
//! `SimTime::HORIZON` (2^63 − 1 ns), or the run is a typed error before
//! or at the offending instant, in debug and release builds alike. (An
//! unchecked `u64` add used to panic in debug builds and, in release
//! builds, return `Ok` with a `finish_time` wrapped past zero.) Inputs
//! right at the horizon still run: the half of the range above it is
//! headroom for the transmissions the engine adds on top.
//!
//! The same holds for the durations the engine prices from the machine
//! parameters with integer products: a transmission (λ, λ₀, τ, δ, the
//! UNFORCED reserve, jitter), a shuffle (ρ) and a barrier
//! (barrier_per_dim). Each must price within the horizon, or the run is
//! an `InvalidConfig` naming the parameter; the largest value that
//! prices within it still runs. Out of scope: transmissions over
//! *conditioned* links (a `NetCondition` with link speeds) are priced
//! in `f64`, whose cast to `u64` saturates instead of wrapping, so a
//! conditioned price past `u64::MAX` ends in `SimTime::plus_ns`'s
//! panic rather than a silent wrap.

use mce_hypercube::NodeId;
use mce_simnet::time::us_to_ns;
use mce_simnet::traffic::compose_programs;
use mce_simnet::{
    BackgroundStream, CwndAlg, FlowCtl, JobSpec, MsgKind, NetCondition, Op, Program, SimArena,
    SimConfig, SimError, SimResult, SimTime, Tag,
};
use std::sync::Arc;

const BYTES: usize = 8;

fn run(cfg: SimConfig, programs: Vec<Program>) -> Result<SimResult, SimError> {
    run_mem(cfg, programs, BYTES)
}

/// `run` with `mem` bytes of memory per node.
fn run_mem(cfg: SimConfig, programs: Vec<Program>, mem: usize) -> Result<SimResult, SimError> {
    let memories = vec![vec![0u8; mem]; programs.len()];
    SimArena::new().run(&cfg, &programs, memories)
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

/// A d-cube machine whose timing parameters are all zero, so one
/// parameter at a time prices the run.
fn zero_machine(d: u32) -> SimConfig {
    let mut cfg = SimConfig::ipsc860(d);
    let p = &mut cfg.params;
    (p.lambda, p.lambda_zero, p.tau, p.delta, p.rho, p.barrier_per_dim) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    cfg
}

/// The largest parameter value in µs whose price (`price` of its rate
/// in ns) lies within the horizon: a bisection over the bit patterns of
/// the non-negative `f64`s, which order like their values.
fn largest_within_horizon(price: &impl Fn(u64) -> u128) -> f64 {
    let fits =
        |bits: u64| price(us_to_ns(f64::from_bits(bits))) <= SimTime::HORIZON.as_ns() as u128;
    let (mut lo, mut hi) = (0u64, f64::MAX.to_bits());
    assert!(fits(lo) && !fits(hi));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(lo)
}

/// Pins one parameter's bound on a d-cube: at the largest value that
/// prices within the horizon the run is `Ok` and finishes exactly at
/// that price; at the next `f64` above it the run is an
/// `InvalidConfig` naming the parameter.
fn pin_bound(
    (name, d): (&str, u32),
    set: impl Fn(&mut SimConfig, f64),
    price: impl Fn(u64) -> u128,
    programs: Vec<Program>,
    mem: usize,
) {
    let at = largest_within_horizon(&price);
    let with = |us| {
        let mut cfg = zero_machine(d);
        set(&mut cfg, us);
        run_mem(cfg, programs.clone(), mem)
    };
    let out = with(at).unwrap_or_else(|e| panic!("{name} = {at}: {e:?}"));
    assert_eq!(out.finish_time.as_ns() as u128, price(us_to_ns(at)), "{name} = {at}");
    assert!(
        out.finish_time.as_ns() > SimTime::HORIZON.as_ns() - (1 << 20),
        "{name}: a loose bound"
    );
    match with(at.next_up()) {
        Err(SimError::InvalidConfig { reason }) => {
            assert!(
                reason.starts_with(&format!("{name}:")) && reason.contains("horizon"),
                "{reason}"
            )
        }
        other => panic!("{name} = {}: expected InvalidConfig, got {other:?}", at.next_up()),
    }
}

#[test]
fn a_transmission_priced_past_the_horizon_is_an_invalid_config() {
    // One 8-byte FORCED send across the one hop of a d1 cube.
    let bytes = BYTES as u128;
    pin_bound(("lambda", 1), |c, us| c.params.lambda = us, u128::from, one_send(), BYTES);
    pin_bound(("tau", 1), |c, us| c.params.tau = us, |ns| ns as u128 * bytes, one_send(), BYTES);
    pin_bound(("delta", 1), |c, us| c.params.delta = us, u128::from, one_send(), BYTES);
    // An UNFORCED send past the threshold pays the reserve handshake,
    // two zero-byte messages: λ + τ·bytes + δ + 2·(λ₀ + δ).
    let tag = Tag::data(0, 1);
    let unforced = vec![
        Program {
            ops: vec![Op::Send { dst: NodeId(1), from: 0..200, tag, kind: MsgKind::Unforced }],
        },
        Program { ops: vec![Op::post_recv(NodeId(0), tag, 0..200), Op::wait_recv(NodeId(0), tag)] },
    ];
    let set = |c: &mut SimConfig, us| c.params.lambda_zero = us;
    pin_bound(("lambda_zero", 1), set, |ns| 2 * ns as u128, unforced, 200);
}

#[test]
fn jitter_counts_toward_the_transmission_bound() {
    let tau = largest_within_horizon(&|ns| ns as u128 * BYTES as u128);
    let mut cfg = zero_machine(1);
    cfg.params.tau = tau;
    run(cfg.clone(), one_send()).expect("τ at its bound, no jitter");
    match run(cfg.with_jitter(0.25, 7), one_send()) {
        Err(SimError::InvalidConfig { reason }) => {
            assert!(reason.starts_with("jitter_frac:"), "{reason}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn a_shuffle_priced_past_the_horizon_is_an_invalid_config() {
    // Two 4 096-byte blocks swapped: ρ·8 192.
    let perm = Arc::new(vec![1u32, 0]);
    let programs =
        vec![Program { ops: vec![Op::Permute { perm, block_bytes: 4096 }] }, Program::empty()];
    pin_bound(("rho", 1), |c, us| c.params.rho = us, |ns| ns as u128 * 8192, programs, 8192);
}

#[test]
fn a_barrier_priced_past_the_horizon_is_an_invalid_config() {
    // barrier_per_dim · d on a d2 cube.
    let programs = vec![Program { ops: vec![Op::Barrier] }; 4];
    let set = |c: &mut SimConfig, us| c.params.barrier_per_dim = us;
    pin_bound(("barrier_per_dim", 2), set, |ns| 2 * ns as u128, programs, BYTES);
    // A set without a barrier never pays for one.
    let mut cfg = zero_machine(1);
    cfg.params.barrier_per_dim = 1e30;
    run(cfg, one_send()).expect("no barrier, no bound");
}
