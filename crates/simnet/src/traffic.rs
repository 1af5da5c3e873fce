//! Multi-tenant traffic: job specifications, reactive flow control and
//! congestion windows.
//!
//! The base engine is single-tenant — one exchange workload owns every
//! node, and the only competing traffic is the passive background
//! streams of [`crate::netcond`]. This module promotes "the workload"
//! to a first-class value so one simulation runs **N concurrent
//! exchange jobs** sharing the cube:
//!
//! * a [`JobSpec`] names one job — its partition/block-size shape (for
//!   reporting and the batch sweep builders), its start offset, and an
//!   optional [`FlowCtl`] policy. A list of them goes on
//!   [`crate::SimConfig::jobs`];
//! * [`compose_programs`]/[`compose_memories`] stack the per-job
//!   program and memory sets into the single flat *context* list the
//!   engine executes: context `j·2^d + x` is node `x` acting for job
//!   `j`. Jobs never exchange messages, so every op's xor-mask
//!   `src ^ dst` has the job bits cancelled — routes, link occupancy
//!   and NIC state all live at the *physical* node `ctx & (2^d - 1)`,
//!   which is how jobs contend;
//! * [`FlowCtl`] makes a job's sources *reactive*: instead of blocking
//!   on a circuit forever, a flow-controlled send that is refused
//!   (drop-tail / NACK at circuit establishment) or lost (a lossy link
//!   corrupting the payload) is retransmitted go-back-n style after a
//!   deterministic backoff, paced by a [`CwndState`] congestion window.
//!   The engine's circuits complete synchronously end-to-end, so the
//!   go-back-n window degenerates to one outstanding frame per source
//!   (stop-and-wait); the congestion window instead modulates the
//!   retransmission backoff — `rto · w_max / cwnd` — so an AIMD-halved
//!   window ([`CwndAlg::Aimd`]) doubles the source's backoff under
//!   sustained loss. Retries are bounded: a source that exhausts
//!   [`FlowCtl::max_retries`] fails the run with the typed
//!   [`crate::SimError::RetriesExhausted`], never a deadlock.
//!
//! Which link events count as drops is the link's business, not the
//! job's: see [`crate::netcond::LinkPolicy`]. Policies apply **only**
//! to flow-controlled jobs — a blocking source models the NX/2
//! kernel's reliable circuit establishment (wait until the path is
//! free), so jobs without a [`FlowCtl`] are never dropped, and a
//! configuration with no jobs (or one job with no flow control and a
//! zero start offset) is bit-identical to the single-tenant engine —
//! the standing no-op pin, held by the determinism-snapshot suite.
//!
//! Determinism: everything here is a pure function of the
//! configuration. Drop coins are keyed by `(seed, transmission id)`,
//! backoffs by integer arithmetic on the congestion window, and
//! retransmissions re-enter the engine's issue-order queue under fresh
//! sequence numbers — same config, same bits.

use crate::program::{Op, Program};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Declarative choice of congestion algorithm for one job — the
/// serializable configuration form of a [`CwndState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CwndAlg {
    /// Fixed-window control: `cwnd` never moves, so backoff is a
    /// constant `rto`. The "dumb retransmitter" baseline.
    Fixed {
        /// The constant window.
        window: u32,
    },
    /// Additive-increase / multiplicative-decrease, starting at (and
    /// capped by) `window_max`: every ack grows the window by one,
    /// every drop halves it (down to one). A halved window doubles the
    /// retransmission backoff, so sources back off geometrically under
    /// sustained contention and recover linearly when circuits start
    /// completing again.
    Aimd {
        /// Window ceiling and initial value.
        window_max: u32,
    },
}

impl Default for CwndAlg {
    fn default() -> Self {
        CwndAlg::Fixed { window: 1 }
    }
}

impl CwndAlg {
    /// Instantiate the runtime window state machine.
    pub fn instantiate(&self) -> CwndState {
        let (window, adaptive) = match *self {
            CwndAlg::Fixed { window } => (window, false),
            CwndAlg::Aimd { window_max } => (window_max, true),
        };
        let window = window.max(1);
        CwndState { window, window_max: window, adaptive }
    }
}

/// Runtime congestion window of one source, built by
/// [`CwndAlg::instantiate`]: the engine notifies it of every
/// acknowledged circuit and every drop, and reads [`CwndState::cwnd`]
/// to pace retransmission backoff. A deterministic pure state machine,
/// `Copy` and allocation-free on the engine's hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CwndState {
    /// Current window, in `1..=window_max`.
    window: u32,
    /// Ceiling of the window (also its initial value).
    window_max: u32,
    /// AIMD moves the window; a fixed window never does.
    adaptive: bool,
}

impl CwndState {
    /// A circuit of this source completed end-to-end.
    pub fn on_ack(&mut self) {
        if self.adaptive {
            self.window = (self.window + 1).min(self.window_max);
        }
    }

    /// A transmission of this source was dropped or refused.
    pub fn on_drop(&mut self) {
        if self.adaptive {
            self.window = (self.window / 2).max(1);
        }
    }

    /// Current congestion window (≥ 1).
    pub fn cwnd(&self) -> u32 {
        self.window
    }

    /// Largest window this source can reach (the backoff scale
    /// reference: backoff = rto · `window_max` / `cwnd`).
    pub fn window_max(&self) -> u32 {
        self.window_max
    }
}

/// Reactive flow control of one job's sources: deterministic
/// go-back-n retransmission with bounded retries, paced by a
/// congestion window. See the [module docs](self) for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowCtl {
    /// Base retransmission timeout, ns: a dropped transmission is
    /// retried after `rto_ns · window_max / cwnd`.
    pub rto_ns: u64,
    /// Drops one source tolerates for one transmission before the run
    /// fails with [`crate::SimError::RetriesExhausted`].
    pub max_retries: u32,
    /// Congestion-window algorithm.
    pub cwnd: CwndAlg,
}

impl Default for FlowCtl {
    fn default() -> Self {
        FlowCtl { rto_ns: 100_000, max_retries: 64, cwnd: CwndAlg::Aimd { window_max: 8 } }
    }
}

impl FlowCtl {
    /// Backoff before the next attempt, given the source's current
    /// window: `rto · window_max / cwnd`, never zero.
    pub fn backoff_ns(&self, cwnd: &CwndState) -> u64 {
        (self.rto_ns * cwnd.window_max() as u64 / cwnd.cwnd().max(1) as u64).max(1)
    }

    /// Static validity: a zero `rto` would retry at the same instant
    /// forever, and the longest backoff (`rto · window_max`) must stay
    /// within [`SimTime::HORIZON`].
    pub fn validate(&self) -> Result<(), String> {
        if self.rto_ns == 0 {
            return Err("flow control rto_ns must be positive".into());
        }
        let window_max = u64::from(self.cwnd.instantiate().window_max());
        if self.rto_ns.checked_mul(window_max).is_none_or(|b| b > SimTime::HORIZON.as_ns()) {
            return Err(format!(
                "flow control backoff rto_ns · window_max passes the simulated-time horizon ({} ns)",
                SimTime::HORIZON.as_ns()
            ));
        }
        match self.cwnd {
            CwndAlg::Fixed { window: 0 } => Err("fixed congestion window must be ≥ 1".into()),
            CwndAlg::Aimd { window_max: 0 } => Err("AIMD window_max must be ≥ 1".into()),
            _ => Ok(()),
        }
    }
}

/// One tenant of a shared-cube run. The engine consumes `start_ns` and
/// `flow`; `partition` and `block_bytes` describe the job's workload
/// shape for reports and the batch sweep builders (the programs
/// themselves are built by `mce-core` and composed with
/// [`compose_programs`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Multiphase partition of the job's exchange (reporting only).
    pub partition: Vec<u32>,
    /// Block size in bytes (reporting only).
    pub block_bytes: usize,
    /// Simulated time at which this job's nodes start executing.
    pub start_ns: u64,
    /// Reactive flow control; `None` = blocking sources (the
    /// single-tenant engine's semantics).
    pub flow: Option<FlowCtl>,
}

impl JobSpec {
    /// A job with default shape metadata starting at `start_ns`.
    pub fn at(start_ns: u64) -> JobSpec {
        JobSpec { start_ns, ..Default::default() }
    }

    /// Attach reactive flow control.
    pub fn with_flow(mut self, flow: FlowCtl) -> JobSpec {
        self.flow = Some(flow);
        self
    }

    /// Record the workload shape (partition dims, block bytes).
    pub fn shaped(mut self, partition: &[u32], block_bytes: usize) -> JobSpec {
        self.partition = partition.to_vec();
        self.block_bytes = block_bytes;
        self
    }
}

/// Offset every node reference of `op` into job `job`'s context range
/// (`job · n`, with `n = 2^d` nodes per job).
fn offset_op(op: &Op, base: u32) -> Op {
    use mce_hypercube::NodeId;
    let shift = |x: NodeId| NodeId(x.0 + base);
    match op {
        Op::PostRecv { src, tag, into } => {
            Op::PostRecv { src: shift(*src), tag: *tag, into: into.clone() }
        }
        Op::Send { dst, from, tag, kind } => {
            Op::Send { dst: shift(*dst), from: from.clone(), tag: *tag, kind: *kind }
        }
        Op::WaitRecv { src, tag } => Op::WaitRecv { src: shift(*src), tag: *tag },
        other => other.clone(),
    }
}

/// Stack per-job program sets into the engine's flat context list:
/// job `j`'s node `x` becomes context `j·2^d + x`, with every node
/// reference inside its ops offset to match. Each set must have
/// exactly `2^d` programs.
pub fn compose_programs(d: u32, per_job: &[Vec<Program>]) -> Vec<Program> {
    let n = 1usize << d;
    let mut out = Vec::with_capacity(n * per_job.len());
    for (job, programs) in per_job.iter().enumerate() {
        assert_eq!(programs.len(), n, "job {job} must have 2^d = {n} programs");
        let base = (job * n) as u32;
        for p in programs {
            out.push(Program { ops: p.ops.iter().map(|op| offset_op(op, base)).collect() });
        }
    }
    out
}

/// Stack per-job memory sets into the flat context list, mirroring
/// [`compose_programs`].
pub fn compose_memories(d: u32, per_job: &[Vec<Vec<u8>>]) -> Vec<Vec<u8>> {
    let n = 1usize << d;
    let mut out = Vec::with_capacity(n * per_job.len());
    for (job, memories) in per_job.iter().enumerate() {
        assert_eq!(memories.len(), n, "job {job} must have 2^d = {n} memories");
        out.extend(memories.iter().cloned());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Tag;
    use mce_hypercube::NodeId;

    #[test]
    fn aimd_halves_on_drop_and_recovers_linearly() {
        let mut w = CwndAlg::Aimd { window_max: 8 }.instantiate();
        assert_eq!(w.cwnd(), 8);
        w.on_drop();
        assert_eq!(w.cwnd(), 4);
        w.on_drop();
        w.on_drop();
        w.on_drop();
        assert_eq!(w.cwnd(), 1, "never below one");
        w.on_ack();
        w.on_ack();
        assert_eq!(w.cwnd(), 3);
        for _ in 0..20 {
            w.on_ack();
        }
        assert_eq!(w.cwnd(), 8, "capped at window_max");
    }

    #[test]
    fn backoff_scales_inversely_with_cwnd() {
        let flow = FlowCtl { rto_ns: 1_000, max_retries: 4, cwnd: CwndAlg::Aimd { window_max: 8 } };
        let mut state = flow.cwnd.instantiate();
        assert_eq!(flow.backoff_ns(&state), 1_000, "full window: base rto");
        state.on_drop();
        assert_eq!(flow.backoff_ns(&state), 2_000, "halved window doubles backoff");
        state.on_drop();
        state.on_drop();
        assert_eq!(flow.backoff_ns(&state), 8_000);
        let fixed = FlowCtl { cwnd: CwndAlg::Fixed { window: 3 }, ..flow };
        let state = fixed.cwnd.instantiate();
        assert_eq!(fixed.backoff_ns(&state), 1_000, "fixed window: constant rto");
    }

    #[test]
    fn flow_validation_rejects_degenerate_knobs() {
        assert!(FlowCtl::default().validate().is_ok());
        let bad = FlowCtl { rto_ns: 0, ..Default::default() };
        assert!(bad.validate().unwrap_err().contains("rto"));
        let bad = FlowCtl { cwnd: CwndAlg::Fixed { window: 0 }, ..Default::default() };
        assert!(bad.validate().unwrap_err().contains("window"));
        let bad = FlowCtl { cwnd: CwndAlg::Aimd { window_max: 0 }, ..Default::default() };
        assert!(bad.validate().unwrap_err().contains("window_max"));
    }

    #[test]
    fn compose_offsets_every_node_reference() {
        let d = 2u32;
        let p = |other: u32| Program {
            ops: vec![
                Op::post_recv(NodeId(other), Tag::data(0, 1), 0..4),
                Op::send(NodeId(other), 0..4, Tag::data(0, 1)),
                Op::wait_recv(NodeId(other), Tag::data(0, 1)),
                Op::Barrier,
            ],
        };
        let job: Vec<Program> = vec![p(1), p(0), Program::empty(), Program::empty()];
        let composed = compose_programs(d, &[job.clone(), job.clone()]);
        assert_eq!(composed.len(), 8);
        // Job 0 is untouched.
        assert_eq!(composed[0], job[0]);
        // Job 1's references shift by 4.
        match &composed[4].ops[1] {
            Op::Send { dst, .. } => assert_eq!(*dst, NodeId(5)),
            other => panic!("unexpected op {other:?}"),
        }
        match &composed[5].ops[0] {
            Op::PostRecv { src, .. } => assert_eq!(*src, NodeId(4)),
            other => panic!("unexpected op {other:?}"),
        }
        // Barriers and empty programs pass through.
        assert_eq!(composed[4].ops[3], Op::Barrier);
        assert!(composed[6].ops.is_empty());

        let mems = vec![vec![vec![1u8; 4]; 4], vec![vec![2u8; 4]; 4]];
        let flat = compose_memories(d, &mems);
        assert_eq!(flat.len(), 8);
        assert_eq!(flat[3], vec![1u8; 4]);
        assert_eq!(flat[4], vec![2u8; 4]);
    }

    #[test]
    #[should_panic(expected = "2^d")]
    fn compose_rejects_wrong_program_count() {
        let _ = compose_programs(3, &[vec![Program::empty(); 4]]);
    }
}
