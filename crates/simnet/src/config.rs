//! Simulation configuration.

use crate::netcond::NetCondition;
use crate::time::{round_ns, us_to_ns, SimTime};
use crate::traffic::JobSpec;
use mce_model::MachineParams;
use serde::{Deserialize, Serialize};

/// Network switching discipline.
///
/// The paper's machines (iPSC-2/860, Ncube-2) are circuit switched;
/// their predecessors (iPSC/1) stored and forwarded whole messages at
/// every intermediate node. The Seidel (1989) comparison the paper
/// builds on contrasts the two — the store-and-forward mode lets this
/// simulator reproduce that contrast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SwitchingMode {
    /// A dedicated path is held end-to-end for the whole transmission:
    /// `λ + τm + δh` total.
    #[default]
    Circuit,
    /// The full message is received and retransmitted at every hop:
    /// `h·(λ + τm + δ)` total, one link held at a time.
    StoreAndForward,
}

/// Configuration of one simulation run: the cube, the machine's timing
/// parameters, and simulator-specific knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Hypercube dimension `d` (the machine has `2^d` nodes).
    pub dimension: u32,
    /// Timing parameters (λ, λ₀, τ, δ, ρ, barrier, ...).
    pub params: MachineParams,
    /// NIC concurrency window, ns: a node's transmit and receive
    /// proceed concurrently only when their starts fall within this
    /// window (Section 7.2 idiosyncrasy). Zero forces full
    /// serialization; a huge value makes the NIC ideally full-duplex.
    pub concurrency_window_ns: u64,
    /// Multiplicative jitter amplitude applied to every transmission
    /// duration, as a fraction (e.g. `0.03` = ±3%). `0.0` disables
    /// jitter and makes simulated times match the analytic model
    /// exactly. Jitter is deterministic given `seed`.
    pub jitter_frac: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Switching discipline (circuit by default).
    pub switching: SwitchingMode,
    /// Network conditions: link faults, heterogeneous link speeds and
    /// background traffic (see [`crate::netcond`]). `None` — and any
    /// no-op condition — leaves runs bit-identical to the base
    /// simulator.
    pub netcond: Option<NetCondition>,
    /// Number of subcube shards the engine may advance concurrently
    /// (see [`crate::shard`]): a power of two `2^k ≤ 2^d`, partitioning
    /// nodes by their top `k` address bits. `1` (the default) is the
    /// plain sequential engine; any value keeps results bit-identical
    /// to it — sharding is an execution strategy, not a model change.
    pub shards: u32,
    /// Concurrent tenant jobs sharing the cube (see
    /// [`crate::traffic`]). Empty (the default) is the single-tenant
    /// engine: the program list has one program per node. With `J`
    /// jobs the program list holds `J·2^d` contexts — job `j`'s node
    /// `x` at index `j·2^d + x`, as [`crate::traffic::compose_programs`]
    /// lays them out — and each job runs from its
    /// [`JobSpec::start_ns`] under its optional flow-control policy.
    /// A single job with zero start offset and no flow control is
    /// bit-identical to the empty list.
    pub jobs: Vec<JobSpec>,
}

impl SimConfig {
    /// iPSC-860 configuration with the paper's measured parameters,
    /// no jitter.
    pub fn ipsc860(dimension: u32) -> Self {
        SimConfig {
            dimension,
            params: MachineParams::ipsc860(),
            concurrency_window_ns: 2_000, // 2 µs
            jitter_frac: 0.0,
            seed: 0x5eed_1991,
            switching: SwitchingMode::Circuit,
            netcond: None,
            shards: 1,
            jobs: Vec::new(),
        }
    }

    /// The Section 4.3 hypothetical machine, no jitter.
    pub fn hypothetical(dimension: u32) -> Self {
        SimConfig { params: MachineParams::hypothetical(), ..SimConfig::ipsc860(dimension) }
    }

    /// Switch to store-and-forward message forwarding (iPSC/1 style).
    pub fn with_store_and_forward(mut self) -> Self {
        self.switching = SwitchingMode::StoreAndForward;
        self
    }

    /// Enable deterministic jitter, emulating the "much more complex"
    /// behaviour of real hardware that the paper observes around its
    /// model predictions. `frac` must lie in `[0, 1)`; any other value
    /// is stored as given and fails [`SimConfig::validate`], so a run
    /// of the config is a typed [`crate::SimError::InvalidConfig`].
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        self.jitter_frac = frac;
        self.seed = seed;
        self
    }

    /// Attach network conditions (degraded/heterogeneous links, dead
    /// cables, background traffic).
    pub fn with_netcond(mut self, netcond: NetCondition) -> Self {
        self.netcond = Some(netcond);
        self
    }

    /// Partition the run into `shards` subcube shards (see
    /// [`crate::shard`]). Must be a power of two no larger than the
    /// node count; results are bit-identical for every legal value.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// A no-op kept for callers that still declare their workload
    /// pairwise-synchronized: returns the config unchanged. Shard
    /// windows are exact for every workload (see [`crate::shard`]), so
    /// there is no input snapshot left to waive. A stored config that
    /// still carries a `declared_sync` key deserializes as if it had
    /// none.
    pub fn with_declared_sync(self) -> Self {
        self
    }

    /// Attach a tenant-job list (see [`crate::traffic`]): the run
    /// executes one `2^d`-program set per job, composed into a flat
    /// context list by [`crate::traffic::compose_programs`].
    pub fn with_jobs(mut self, jobs: Vec<JobSpec>) -> Self {
        self.jobs = jobs;
        self
    }

    /// Number of nodes `2^d`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        1usize << self.dimension
    }

    /// Number of tenant jobs this config runs (1 for the empty list —
    /// the single-tenant engine).
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.jobs.len().max(1)
    }

    /// Number of program contexts the engine executes:
    /// `num_jobs · 2^d`.
    #[inline]
    pub fn total_contexts(&self) -> usize {
        self.num_jobs() << self.dimension
    }

    /// Static validity check, run by the engine before any simulated
    /// time elapses: the dimension must fit the engine's inline e-cube
    /// route buffers (`mce_hypercube::MAX_DIMENSION` hops), the jitter
    /// fraction must be a finite value in `[0, 1)`, and every machine
    /// timing parameter must be finite and non-negative. The time
    /// conversions (`us_to_ns`, `SimTime::from_us`) only debug-assert,
    /// so this is the release-build gate keeping negative or NaN
    /// durations from silently saturating to 0 ns. Job starts,
    /// background injections and flow-control backoffs must stay
    /// within [`SimTime::HORIZON`].
    pub fn validate(&self) -> Result<(), String> {
        if self.dimension > mce_hypercube::MAX_DIMENSION {
            return Err(format!(
                "dimension {} exceeds MAX_DIMENSION {}",
                self.dimension,
                mce_hypercube::MAX_DIMENSION
            ));
        }
        if !(0.0..1.0).contains(&self.jitter_frac) {
            return Err(format!("jitter fraction {} outside [0, 1)", self.jitter_frac));
        }
        let timings = [
            ("lambda", self.params.lambda),
            ("lambda_zero", self.params.lambda_zero),
            ("tau", self.params.tau),
            ("delta", self.params.delta),
            ("rho", self.params.rho),
            ("barrier_per_dim", self.params.barrier_per_dim),
        ];
        for (name, us) in timings {
            if !us.is_finite() || us < 0.0 {
                return Err(format!(
                    "machine parameter {name} = {us} µs is not a finite \u{2265} 0 duration"
                ));
            }
        }
        if let Some(nc) = &self.netcond {
            nc.validate(self.dimension).map_err(|e| format!("netcond: {e}"))?;
        }
        if self.shards == 0 || !self.shards.is_power_of_two() {
            return Err(format!("shards = {} is not a power of two \u{2265} 1", self.shards));
        }
        if self.shards as usize > self.num_nodes() {
            return Err(format!(
                "shards = {} exceeds the cube's {} nodes",
                self.shards,
                self.num_nodes()
            ));
        }
        for (j, job) in self.jobs.iter().enumerate() {
            if SimTime(job.start_ns) > SimTime::HORIZON {
                return Err(format!(
                    "job {j} starts at {} ns, past the simulated-time horizon ({} ns)",
                    job.start_ns,
                    SimTime::HORIZON.as_ns()
                ));
            }
            if let Some(flow) = &job.flow {
                flow.validate().map_err(|e| format!("job {j}: {e}"))?;
            }
        }
        Ok(())
    }

    /// Duration in ns of a transmission of `bytes` across `hops`
    /// dimensions: `λ + τ·bytes + δ·hops`, with `λ₀` replacing `λ` for
    /// zero-byte (synchronization) messages.
    pub fn transmission_ns(&self, bytes: usize, hops: u32) -> u64 {
        let lambda = if bytes == 0 { self.params.lambda_zero } else { self.params.lambda };
        us_to_ns(lambda)
            + us_to_ns(self.params.tau) * bytes as u64
            + us_to_ns(self.params.delta) * hops as u64
    }

    /// Duration in ns of the UNFORCED reserve-acknowledge handshake
    /// (two zero-byte messages over the same circuit).
    pub fn reserve_ack_ns(&self, hops: u32) -> u64 {
        2 * (us_to_ns(self.params.lambda_zero) + us_to_ns(self.params.delta) * hops as u64)
    }

    /// Duration in ns of a transmission over *conditioned* links
    /// (see [`crate::netcond`]): `max_factor` is the largest slowdown
    /// factor along the path (the slowest link bottlenecks the
    /// per-byte stream) and `sum_factor` the sum of factors (each
    /// hop's switching delay stretches individually):
    /// `λ + τ·bytes·max_factor + δ·sum_factor`, λ₀ for zero-byte
    /// messages. With unit factors this equals
    /// [`SimConfig::transmission_ns`] exactly.
    pub fn conditioned_transmission_ns(
        &self,
        bytes: usize,
        max_factor: f64,
        sum_factor: f64,
    ) -> u64 {
        let lambda = if bytes == 0 { self.params.lambda_zero } else { self.params.lambda };
        us_to_ns(lambda)
            + round_ns(us_to_ns(self.params.tau) as f64 * bytes as f64 * max_factor)
            + round_ns(us_to_ns(self.params.delta) as f64 * sum_factor)
    }

    /// Conditioned-link version of [`SimConfig::reserve_ack_ns`]:
    /// `2·(λ₀ + δ·sum_factor)`.
    pub fn conditioned_reserve_ack_ns(&self, sum_factor: f64) -> u64 {
        2 * (us_to_ns(self.params.lambda_zero)
            + round_ns(us_to_ns(self.params.delta) as f64 * sum_factor))
    }

    /// Duration in ns of a global barrier.
    pub fn barrier_ns(&self) -> u64 {
        us_to_ns(self.params.barrier_per_dim) * self.dimension as u64
    }

    /// Duration in ns of permuting `bytes` bytes in local memory.
    pub fn shuffle_ns(&self, bytes: usize) -> u64 {
        us_to_ns(self.params.rho) * bytes as u64
    }

    /// The retired calendar queue's bucket width in `SimTime` ticks
    /// (ns): `g / 2^d` with `g = max(λ, λ₀) + δ·d`, clamped to
    /// `[16, 2^20]`. The engine no longer reads it; it stays for the
    /// perf ledger's scheduler probe, which passes it to
    /// [`crate::CalendarQueue::new`] (where it is ignored), until that
    /// probe's next revision.
    pub fn sched_bucket_width_ns(&self) -> u64 {
        let g = us_to_ns(self.params.lambda.max(self.params.lambda_zero))
            + us_to_ns(self.params.delta) * self.dimension.max(1) as u64;
        (g / self.num_nodes() as u64).clamp(16, 1 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Program, SimError};

    #[test]
    fn transmission_durations_match_paper_constants() {
        let c = SimConfig::ipsc860(5);
        // Zero-byte sync across 3 dims: 82.5 + 3×10.3 = 113.4 µs.
        assert_eq!(c.transmission_ns(0, 3), 113_400);
        // 100 bytes across 1 dim: 95 + 39.4 + 10.3 = 144.7 µs.
        assert_eq!(c.transmission_ns(100, 1), 144_700);
    }

    #[test]
    fn barrier_and_shuffle_durations() {
        let c = SimConfig::ipsc860(7);
        assert_eq!(c.barrier_ns(), 1_050_000);
        assert_eq!(c.shuffle_ns(1000), 540_000);
    }

    #[test]
    fn reserve_ack() {
        let c = SimConfig::ipsc860(4);
        assert_eq!(c.reserve_ack_ns(2), 2 * (82_500 + 20_600));
    }

    #[test]
    fn hypothetical_has_free_barrier() {
        let c = SimConfig::hypothetical(6);
        assert_eq!(c.barrier_ns(), 0);
        // λ₀ = 0 on the hypothetical machine.
        assert_eq!(c.transmission_ns(0, 1), 20_000);
    }

    #[test]
    fn rejects_bad_jitter() {
        let c = SimConfig::ipsc860(3).with_jitter(1.5, 1);
        assert_eq!(c.jitter_frac, 1.5, "the builder stores what it is given");
        let n = c.num_nodes();
        match crate::SimArena::new().run(&c, &vec![Program::empty(); n], vec![Vec::new(); n]) {
            Err(SimError::InvalidConfig { reason }) => {
                assert!(reason.contains("jitter"), "{reason}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn validate_accepts_all_stock_configs() {
        for d in 0..=10u32 {
            assert!(SimConfig::ipsc860(d).validate().is_ok());
            assert!(SimConfig::hypothetical(d).validate().is_ok());
            assert!(SimConfig::ipsc860(d).with_store_and_forward().validate().is_ok());
            assert!(SimConfig::ipsc860(d).with_jitter(0.05, 42).validate().is_ok());
        }
    }

    #[test]
    fn validate_rejects_negative_or_nan_jitter() {
        let mut c = SimConfig::ipsc860(4);
        c.jitter_frac = -0.1;
        assert!(c.validate().unwrap_err().contains("jitter"));
        c.jitter_frac = f64::NAN;
        assert!(c.validate().unwrap_err().contains("jitter"));
        c.jitter_frac = 1.0;
        assert!(c.validate().unwrap_err().contains("jitter"));
    }

    #[test]
    fn validate_rejects_bad_machine_timings() {
        // us_to_ns only debug-asserts, so validate() is what stops a
        // negative or NaN parameter from saturating to 0 ns in release.
        let mut c = SimConfig::ipsc860(4);
        c.params.tau = -0.01;
        assert!(c.validate().unwrap_err().contains("tau"));
        c.params.tau = f64::NAN;
        assert!(c.validate().unwrap_err().contains("tau"));
        c.params.tau = 0.394;
        c.params.barrier_per_dim = f64::INFINITY;
        assert!(c.validate().unwrap_err().contains("barrier_per_dim"));
    }

    #[test]
    fn conditioned_durations_match_nominal_at_unit_factors() {
        let c = SimConfig::ipsc860(5);
        for (bytes, hops) in [(0usize, 1u32), (40, 3), (397, 5)] {
            assert_eq!(
                c.conditioned_transmission_ns(bytes, 1.0, hops as f64),
                c.transmission_ns(bytes, hops),
                "bytes={bytes} hops={hops}"
            );
            assert_eq!(c.conditioned_reserve_ack_ns(hops as f64), c.reserve_ack_ns(hops));
        }
        // Slowdown scales τ by the bottleneck and δ by the sum.
        assert_eq!(c.conditioned_transmission_ns(100, 2.0, 5.0), 95_000 + 2 * 39_400 + 5 * 10_300);
    }

    #[test]
    fn validate_checks_netcond() {
        use crate::netcond::NetCondition;
        let mut c = SimConfig::ipsc860(3).with_netcond(NetCondition::uniform_slowdown(2.0));
        assert!(c.validate().is_ok());
        c.netcond = Some(NetCondition::uniform_slowdown(f64::NAN));
        assert!(c.validate().unwrap_err().contains("netcond"));
        c.netcond = Some(NetCondition::default().with_fault(mce_hypercube::NodeId(0), 7));
        assert!(c.validate().unwrap_err().contains("cable"));
    }

    #[test]
    fn validate_rejects_bad_shard_counts() {
        for bad in [0u32, 3, 6, 12] {
            let c = SimConfig::ipsc860(4).with_shards(bad);
            assert!(c.validate().unwrap_err().contains("power of two"), "{bad}");
        }
        // More shards than nodes is rejected; up to one-per-node is ok.
        assert!(SimConfig::ipsc860(2).with_shards(8).validate().unwrap_err().contains("nodes"));
        for ok in [1u32, 2, 4] {
            assert!(SimConfig::ipsc860(2).with_shards(ok).validate().is_ok(), "{ok}");
        }
    }

    #[test]
    fn validate_rejects_oversized_dimension() {
        let mut c = SimConfig::ipsc860(5);
        c.dimension = mce_hypercube::MAX_DIMENSION + 1;
        assert!(c.validate().unwrap_err().contains("dimension"));
        c.dimension = mce_hypercube::MAX_DIMENSION;
        assert!(c.validate().is_ok());
    }
}
