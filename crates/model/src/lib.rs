//! Analytic cost model for complete-exchange algorithms on
//! circuit-switched hypercubes.
//!
//! Implements the run-time expressions of Sections 4.3, 5.2 and 7.4 of
//! Bokhari (1991):
//!
//! * Eq. (1): Standard Exchange, `t_SE(m,d) = d(λ + (τ+2ρ) m 2^(d-1) + δ)`;
//! * Eq. (2): Optimal Circuit Switched,
//!   `t_OCS(m,d) = (2^d - 1)(λ + τ m + δ d 2^(d-1)/(2^d - 1))`;
//! * Eq. (3): a multiphase *partial exchange* on subcubes of dimension
//!   `d_i` inside a dimension-`d` cube, with effective block size
//!   `m 2^(d - d_i)`, per-phase shuffle `ρ m 2^d` and global barrier;
//! * the Standard-vs-Optimal crossover block size (Section 4.3);
//! * the *hull of optimality* over all partitions of `d` (Section 8).
//!
//! All times are in microseconds, matching the paper's parameter units.
//!
//! # Example: the paper's Section 5.1 worked example
//!
//! ```
//! use mce_model::{MachineParams, standard_exchange_time, multiphase_time};
//! use mce_partitions::Partition;
//!
//! let hypo = MachineParams::hypothetical();
//! // Standard Exchange, m = 24, d = 6: the paper computes 15144 µs.
//! assert_eq!(standard_exchange_time(&hypo, 24.0, 6).round() as u64, 15144);
//! // Two-phase {2,4}: 1832 (phase 1) + 5080 (phase 2) + 3072 (shuffles).
//! let t = multiphase_time(&hypo, 24.0, 6, Partition::new(vec![2, 4]).parts());
//! assert_eq!(t.round() as u64, 9984);
//! ```

pub mod conditioned;
pub mod crossover;
pub mod hull;
pub mod multiphase;
pub mod optimal;
pub mod params;
pub mod partial;
pub mod patterns;
pub mod saf;
pub mod standard;
pub mod sweep;

pub use conditioned::{
    conditioned_best_partition, conditioned_best_saf_partition, conditioned_crossover_block_size,
    conditioned_multiphase_saf_time, conditioned_multiphase_time, conditioned_optimal_cs_time,
    conditioned_optimality_hull, conditioned_partial_exchange_saf_time,
    conditioned_partial_exchange_time, conditioned_standard_exchange_time,
    conditioned_standard_wins, ConditionFingerprint, ConditionSummary, DimContention, DimFactor,
    StepSource, StepTable, FINGERPRINT_MANTISSA_BITS,
};
pub use crossover::{crossover_block_size, standard_wins};
pub use hull::{
    affine_face_index, best_partition, best_partition_by, optimality_hull_affine_by, AffineHullFace,
};
pub use multiphase::multiphase_time;
pub use optimal::optimal_cs_time;
pub use params::MachineParams;
pub use partial::{effective_block_size, partial_exchange_time};
pub use patterns::{
    allgather_time, broadcast_time, scatter_allgather_broadcast_time, scatter_time,
};
pub use saf::{best_saf_partition, multiphase_saf_time, saf_message_time};
pub use standard::standard_exchange_time;
pub use sweep::{sweep, sweep_by, SweepPoint, SweepRow};

/// Average circuit length over the steps of an XOR exchange schedule on
/// a dimension-`d` cube: `d 2^(d-1) / (2^d - 1)`.
///
/// At step `i` of the schedule every pair is at distance
/// `popcount(i)`; summed over `i = 1..2^d-1` the distances total
/// `d 2^(d-1)`, giving this average (paper, Section 4.3).
pub fn average_schedule_distance(d: u32) -> f64 {
    assert!(d >= 1);
    let n = (1u64 << d) as f64;
    (d as f64) * (n / 2.0) / (n - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_distance_is_mean_popcount() {
        for d in 1..=10u32 {
            let n = 1u64 << d;
            let total: u64 = (1..n).map(|i| i.count_ones() as u64).sum();
            let brute = total as f64 / (n - 1) as f64;
            assert!((average_schedule_distance(d) - brute).abs() < 1e-12, "d={d}");
        }
    }
}
