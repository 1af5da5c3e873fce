//! The price floor: a lower bound on every context's finish time that
//! holds whatever the network does.
//!
//! A context runs its ops one after another, and each op that takes
//! simulated time holds the context for a price fixed when it starts:
//!
//! * a blocking `Send` holds it from issue until its circuit ends (under
//!   store and forward, until its first hop ends). The price —
//!   `λ + τ·bytes·max_f + δ·Σf`, λ₀ for 0 bytes, times the jitter draw —
//!   is set at issue from the static link factors of the route and the
//!   transmission's id. Contention only delays when a circuit *starts*,
//!   never how long it holds its sender;
//! * a `Permute` holds it for `ρ·bytes`, a `Barrier` for at least
//!   `barrier_per_dim·d` after it enters, a `Compute` for its own ns;
//! * every other op is free.
//!
//! So a context cannot finish before its job's start plus the sum of
//! the smallest price each of its ops can have. For a send that is
//! `λ + ⌊τ·b·f_min⌋ + ⌊δ·h·f_min⌋` with `h = popcount(src ^ dst)` (no
//! route is shorter; `h = 1` under store and forward) and `f_min` the
//! smallest link factor of the run (1 on the nominal network). Every
//! float-priced term keeps 1 ns of slack, so that no summation order of
//! the route's factors lifts the floor above the engine's own rounded
//! price; under jitter the term is `⌊dur·(1 − frac)⌋ − 1`. A send to a
//! pair skipped as dead costs nothing. All sums saturate.
//!
//! The floor needs no claim that contention never speeds a partition
//! up: it is a sum of hold times, each of which contention cannot
//! shorten. On a run without contention it is exact up to that slack,
//! so a caller cutting on it must cut only when the floor is strictly
//! past its bound.
//!
//! Two users: [`finish_floor`] prices a program set without compiling
//! or running it, and a bounded run ([`crate::SimArena::run_until`])
//! stops as soon as some context provably cannot finish by its bound.
//! Debug builds also check the floor against every finished run.

use crate::compile::CompiledOp;
use crate::config::{SimConfig, SwitchingMode};
use crate::engine::{check_shape, resolve_faults};
use crate::program::{Op, Program};
use crate::time::{us_to_ns, SimTime};
use crate::SimError;
use std::sync::Arc;

/// The machine's prices in integer ns, lowered to what an op can cost
/// at the least under one run's condition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PriceFloor {
    lambda: u64,
    lambda0: u64,
    tau: u64,
    delta: u64,
    rho: u64,
    barrier: u64,
    /// The smallest link factor of a conditioned run; `None` on the
    /// nominal network, whose integer prices the floor matches exactly.
    f_min: Option<f64>,
    /// Store and forward holds the sender for the first hop only.
    circuit: bool,
    jitter_frac: f64,
}

impl PriceFloor {
    /// The floor of `cfg`'s prices; `speeds` are the run's resolved
    /// link factors (`NetCondition::resolve_speeds`), `None` on the
    /// nominal network.
    pub(crate) fn new(cfg: &SimConfig, speeds: Option<&[f64]>) -> Self {
        let p = &cfg.params;
        PriceFloor {
            lambda: us_to_ns(p.lambda),
            lambda0: us_to_ns(p.lambda_zero),
            tau: us_to_ns(p.tau),
            delta: us_to_ns(p.delta),
            rho: us_to_ns(p.rho),
            barrier: cfg.barrier_ns(),
            f_min: speeds.map(|s| s.iter().copied().fold(f64::INFINITY, f64::min)),
            circuit: cfg.switching == SwitchingMode::Circuit,
            jitter_frac: cfg.jitter_frac,
        }
    }

    /// The least time a send of `bytes` over xor mask `mask` holds its
    /// sender.
    fn send_ns(&self, bytes: usize, mask: u32) -> u64 {
        let hops = if self.circuit { mask.count_ones() } else { 1 };
        let lambda = if bytes == 0 { self.lambda0 } else { self.lambda };
        let dur = match self.f_min {
            None => lambda
                .saturating_add(self.tau.saturating_mul(bytes as u64))
                .saturating_add(self.delta.saturating_mul(u64::from(hops))),
            Some(f) => {
                // The engine's operand order, one ns of slack each.
                let tau = (self.tau as f64 * bytes as f64 * f).floor() as u64;
                let delta = (self.delta as f64 * (f64::from(hops) * f)).floor() as u64;
                lambda.saturating_add(tau.saturating_sub(1)).saturating_add(delta.saturating_sub(1))
            }
        };
        if self.jitter_frac > 0.0 {
            ((dur as f64 * (1.0 - self.jitter_frac)).floor() as u64).saturating_sub(1)
        } else {
            dur
        }
    }

    /// The time a permute of `bytes` holds its context.
    fn shuffle_ns(&self, bytes: usize) -> u64 {
        self.rho.saturating_mul(bytes as u64)
    }

    /// The floor of one compiled op of a context; `dead` says whether
    /// a send's pair is skipped as dead.
    pub(crate) fn compiled_op_ns(
        &self,
        x: u32,
        op: &CompiledOp,
        perms: &[Arc<Vec<u32>>],
        dead: impl Fn(u32) -> bool,
    ) -> u64 {
        match *op {
            CompiledOp::Send { dst, start, end, .. } if !dead(dst.0) => {
                self.send_ns((end - start) as usize, x ^ dst.0)
            }
            CompiledOp::Permute { perm_idx, block_bytes } => {
                self.shuffle_ns(perms[perm_idx as usize].len().saturating_mul(block_bytes as usize))
            }
            CompiledOp::Barrier => self.barrier,
            CompiledOp::Compute { ns } => ns,
            _ => 0,
        }
    }

    /// [`PriceFloor::compiled_op_ns`] of a program op.
    fn op_ns(&self, x: u32, op: &Op, dead: impl Fn(u32) -> bool) -> u64 {
        match op {
            Op::Send { dst, from, .. } if !dead(dst.0) => self.send_ns(from.len(), x ^ dst.0),
            Op::Permute { perm, block_bytes } => {
                self.shuffle_ns(perm.len().saturating_mul(*block_bytes))
            }
            Op::Barrier => self.barrier,
            Op::Compute { ns } => *ns,
            _ => 0,
        }
    }
}

/// The earliest time a run of `programs` under `cfg` can finish: the
/// largest context floor (see the [module docs](self)), without
/// compiling or running anything. Every completed run's `finish_time`
/// is at least this, and a run without contention finishes within a
/// few ns per send of it.
///
/// The condition is resolved exactly as a run resolves it — the same
/// fault-avoiding routes and dead pairs — so sends to pairs skipped as
/// dead count nothing.
///
/// # Errors
///
/// What the run returns before any simulated time elapses for a bad
/// config or shape, and its [`SimError::Unroutable`] for a pair no
/// route reaches. The programs themselves are not validated: that
/// stays with the compiler, and the floor of an invalid set means
/// nothing.
pub fn finish_floor(cfg: &SimConfig, programs: &[Program]) -> Result<SimTime, SimError> {
    // There are no memories to check: the programs stand in for both.
    check_shape(cfg, programs.len(), programs.len())?;
    let node_mask = cfg.num_nodes() as u32 - 1;
    let dead_pairs = match &cfg.netcond {
        Some(nc) => {
            let sends = programs.iter().enumerate().flat_map(|(x, p)| {
                p.ops.iter().filter_map(move |op| match op {
                    Op::Send { dst, .. } => Some((x as u32, dst.0)),
                    _ => None,
                })
            });
            resolve_faults(cfg, nc, sends)?.1
        }
        None => Default::default(),
    };
    let speeds = cfg.netcond.as_ref().map(|nc| nc.resolve_speeds(cfg.dimension));
    let floor = PriceFloor::new(cfg, speeds.as_deref());
    let per_job = cfg.num_nodes();
    let mut latest = 0u64;
    for (x, program) in programs.iter().enumerate() {
        let x32 = x as u32;
        let dead = |dst: u32| {
            !dead_pairs.is_empty()
                && dead_pairs.contains(&(x32 & node_mask, (x32 ^ dst) & node_mask))
        };
        let start = cfg.jobs.get(x / per_job).map_or(0, |job| job.start_ns);
        let done =
            program.ops.iter().fold(start, |at, op| at.saturating_add(floor.op_ns(x32, op, dead)));
        latest = latest.max(done);
    }
    Ok(SimTime(latest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgKind, Tag};
    use crate::netcond::NetCondition;
    use crate::traffic::JobSpec;
    use crate::SimArena;
    use mce_hypercube::NodeId;

    /// Node 0 sends `m` bytes to node 7 of a d3 cube, which waits for
    /// them: one contention-free three-hop circuit.
    fn lone_send(m: usize) -> (Vec<Program>, Vec<Vec<u8>>) {
        let tag = Tag::data(0, 1);
        let mut programs = vec![Program::empty(); 8];
        programs[0].ops.push(Op::Send { dst: NodeId(7), from: 0..m, tag, kind: MsgKind::Forced });
        programs[7].ops.push(Op::post_recv(NodeId(0), tag, 0..m));
        programs[7].ops.push(Op::wait_recv(NodeId(0), tag));
        (programs, vec![vec![1u8; m]; 8])
    }

    #[test]
    fn a_contention_free_run_finishes_at_its_floor() {
        let (programs, memories) = lone_send(100);
        let nominal = SimConfig::ipsc860(3);
        let run = SimArena::new().run(&nominal, &programs, memories.clone()).unwrap();
        assert_eq!(finish_floor(&nominal, &programs).unwrap(), run.finish_time, "integer prices");
        for factor in [0.3, 1.0, 2.5] {
            let cfg = nominal.clone().with_netcond(NetCondition::uniform_slowdown(factor));
            let run = SimArena::new().run(&cfg, &programs, memories.clone()).unwrap();
            let floor = finish_floor(&cfg, &programs).unwrap();
            assert!(floor <= run.finish_time, "factor {factor}");
            // Per float-priced term: floor instead of round, and the slack.
            assert!(run.finish_time.as_ns() - floor.as_ns() <= 4, "factor {factor}");
        }
        let staggered = SimConfig::ipsc860(3).with_jobs(vec![JobSpec::at(5_000)]);
        let late = finish_floor(&staggered, &programs).unwrap();
        assert_eq!(late.as_ns(), run.finish_time.as_ns() + 5_000, "the job's start counts");
    }

    #[test]
    fn a_faulted_floor_is_the_runs_unroutable_error_or_skips_the_dead_pair() {
        let (programs, memories) = lone_send(100);
        // All three of node 7's cables are cut: no route reaches it.
        let mut nc = NetCondition::default();
        for dim in 0..3 {
            nc = nc.with_fault(NodeId(7), dim);
        }
        let cfg = SimConfig::ipsc860(3).with_netcond(nc.clone());
        let run = SimArena::new().run(&cfg, &programs, memories.clone()).unwrap_err();
        assert_eq!(finish_floor(&cfg, &programs).unwrap_err(), run);
        assert!(matches!(run, SimError::Unroutable { .. }));
        let skip = SimConfig::ipsc860(3).with_netcond(nc.with_skip_dead_pairs());
        let run = SimArena::new().run(&skip, &programs, memories).unwrap();
        assert_eq!(finish_floor(&skip, &programs).unwrap(), SimTime::ZERO, "the send is skipped");
        assert_eq!(run.finish_time, SimTime::ZERO);
    }
}
