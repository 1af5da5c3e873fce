//! High-level facade: plan, simulate, verify in one call.

use crate::builder::{build_with_options, BuildOptions};
use crate::planner::{best_plan, Plan};
use crate::verify::{stamped_memories, verify_complete_exchange};
use mce_model::{multiphase_time, MachineParams};
use mce_simnet::{SimArena, SimConfig, SimError, SimStats};

/// Outcome of one simulated, verified complete exchange.
#[derive(Debug, Clone)]
pub struct ExchangeOutcome {
    /// The partition that was run.
    pub dims: Vec<u32>,
    /// Block size, bytes.
    pub block_size: usize,
    /// Simulated total time, µs.
    pub simulated_us: f64,
    /// Analytic model prediction, µs.
    pub predicted_us: f64,
    /// Whether every block arrived at the right place intact.
    pub verified: bool,
    /// Engine statistics.
    pub stats: SimStats,
}

impl ExchangeOutcome {
    /// Relative deviation of simulation from prediction.
    pub fn model_error(&self) -> f64 {
        if self.predicted_us == 0.0 {
            0.0
        } else {
            (self.simulated_us - self.predicted_us).abs() / self.predicted_us
        }
    }
}

/// A configured complete-exchange runner for one machine and cube.
#[derive(Debug, Clone)]
pub struct CompleteExchange {
    dimension: u32,
    config: SimConfig,
}

impl CompleteExchange {
    /// Exchange runner on an iPSC-860-parameterized cube.
    pub fn new(dimension: u32) -> Self {
        CompleteExchange { dimension, config: SimConfig::ipsc860(dimension) }
    }

    /// Replace the machine parameters (keeps other sim knobs).
    pub fn with_params(mut self, params: MachineParams) -> Self {
        self.config.params = params;
        self
    }

    /// Use a custom simulator configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        assert_eq!(config.dimension, self.dimension);
        self.config = config;
        self
    }

    /// Cube dimension.
    pub fn dimension(&self) -> u32 {
        self.dimension
    }

    /// The machine parameters in effect.
    pub fn params(&self) -> &MachineParams {
        &self.config.params
    }

    /// Choose the fastest partition for block size `m` by enumerating
    /// all `p(d)` partitions.
    pub fn plan(&self, m: usize) -> Plan {
        best_plan(&self.config.params, self.dimension, m)
    }

    /// Simulate the multiphase exchange with an explicit partition,
    /// moving stamped blocks and verifying the result.
    ///
    /// Pairwise synchronization in the generated programs follows
    /// `params().pairwise_sync`, keeping the simulation consistent
    /// with what the analytic model prices (the hypothetical machine
    /// of Section 4.3 models no sync messages, the iPSC-860 does).
    pub fn run(&self, m: usize, dims: &[u32]) -> Result<ExchangeOutcome, SimError> {
        let opts = BuildOptions {
            pairwise_sync: self.config.params.pairwise_sync,
            ..BuildOptions::default()
        };
        let programs = build_with_options(self.dimension, dims, m, opts);
        self.run_programs(m, dims, programs)
    }

    /// Simulate with explicit [`BuildOptions`] (ablations).
    pub fn run_with_options(
        &self,
        m: usize,
        dims: &[u32],
        opts: BuildOptions,
    ) -> Result<ExchangeOutcome, SimError> {
        let programs = build_with_options(self.dimension, dims, m, opts);
        self.run_programs(m, dims, programs)
    }

    /// Simulate the planner's choice for block size `m`.
    pub fn run_planned(&self, m: usize) -> Result<ExchangeOutcome, SimError> {
        let plan = self.plan(m);
        self.run(m, &plan.dims)
    }

    /// Simulate the Standard Exchange algorithm (`{1,...,1}`).
    pub fn run_standard(&self, m: usize) -> Result<ExchangeOutcome, SimError> {
        self.run(m, &vec![1; self.dimension as usize])
    }

    /// Simulate the Optimal Circuit Switched algorithm (`{d}`).
    pub fn run_optimal(&self, m: usize) -> Result<ExchangeOutcome, SimError> {
        self.run(m, &[self.dimension])
    }

    fn run_programs(
        &self,
        m: usize,
        dims: &[u32],
        programs: Vec<mce_simnet::Program>,
    ) -> Result<ExchangeOutcome, SimError> {
        let memories = stamped_memories(self.dimension, m);
        let result = SimArena::new().run(&self.config, &programs, memories)?;
        let verified = verify_complete_exchange(self.dimension, m, &result.memories).is_empty();
        Ok(ExchangeOutcome {
            dims: dims.to_vec(),
            block_size: m,
            simulated_us: result.finish_time.as_us(),
            predicted_us: multiphase_time(&self.config.params, m as f64, self.dimension, dims),
            verified,
            stats: result.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_verifies_and_matches_model() {
        let ex = CompleteExchange::new(4);
        for dims in [vec![4u32], vec![2, 2], vec![1, 1, 1, 1], vec![3, 1]] {
            let out = ex.run(16, &dims).unwrap();
            assert!(out.verified, "dims {dims:?} moved blocks incorrectly");
            assert!(
                out.model_error() < 0.01,
                "dims {dims:?}: sim {} vs model {}",
                out.simulated_us,
                out.predicted_us
            );
            assert_eq!(out.stats.forced_drops, 0);
            assert_eq!(out.stats.edge_contention_events, 0, "schedule must be contention-free");
        }
    }

    #[test]
    fn planned_run_beats_both_classics_at_paper_sweet_spot() {
        // d = 6, m = 24 (the Section 5.1 sweet spot, iPSC params).
        let ex = CompleteExchange::new(6);
        let planned = ex.run_planned(24).unwrap();
        let se = ex.run_standard(24).unwrap();
        let ocs = ex.run_optimal(24).unwrap();
        assert!(planned.verified && se.verified && ocs.verified);
        assert!(planned.simulated_us < se.simulated_us);
        assert!(planned.simulated_us < ocs.simulated_us);
    }

    #[test]
    fn outcome_error_metric() {
        let ex = CompleteExchange::new(3);
        let out = ex.run(8, &[3]).unwrap();
        assert!(out.model_error() < 0.01);
    }
}
