//! Plan selection: enumerate partitions and pick the fastest for a
//! given block size (paper, Section 6).
//!
//! "...it needs to be done only once and the optimal combination
//! stored for repeated future use" — the stored form is `mce_plan`'s
//! `PlanHull`, the exact hull of optimality answering lookups in
//! `O(log #faces)`; this module is the one-shot search.

use mce_model::{best_partition, MachineParams};
use serde::{Deserialize, Serialize};

/// A chosen exchange plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Subcube dimensions, largest first (canonical partition order).
    pub dims: Vec<u32>,
    /// Predicted time, µs, under the planner's machine parameters.
    pub predicted_us: f64,
}

impl Plan {
    /// Number of phases.
    pub fn phases(&self) -> usize {
        self.dims.len()
    }
}

/// One-shot plan choice by exhaustive enumeration of the `p(d)`
/// partitions.
pub fn best_plan(params: &MachineParams, d: u32, m: usize) -> Plan {
    let (part, t) = best_partition(params, m as f64, d);
    Plan { dims: part.parts().to_vec(), predicted_us: t }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_model::multiphase_time;

    /// The clean-model hull of `d` on `params`.
    fn hull(params: &MachineParams, d: u32) -> Vec<mce_model::AffineHullFace> {
        mce_model::optimality_hull_affine_by(d, |m, part| {
            multiphase_time(params, m, d, part.parts())
        })
    }

    #[test]
    fn planner_matches_one_shot_search() {
        // The stored hull's face and the one-shot search name the same
        // plan away from the breakpoints.
        let params = MachineParams::ipsc860();
        let faces = hull(&params, 6);
        for m in [0usize, 4, 24, 40, 100, 139, 141, 399] {
            let face = &faces[mce_model::affine_face_index(&faces, m as f64).unwrap()];
            let b = best_plan(&params, 6, m);
            assert_eq!(face.partition.parts(), b.dims, "m={m}");
            assert!((face.time_at(m as f64) - b.predicted_us).abs() < 1e-9 * b.predicted_us);
        }
    }

    #[test]
    fn planner_extends_beyond_table() {
        // Far beyond the paper's range the singleton must win, and the
        // last hull face already is the singleton.
        let params = MachineParams::ipsc860();
        assert_eq!(best_plan(&params, 7, 100_000).dims, vec![7]);
        assert_eq!(hull(&params, 7).last().unwrap().partition.parts(), [7]);
    }

    #[test]
    fn paper_headline_plan_d7_m40() {
        // Figure 6: at 40 bytes the best plan is {3,4}, over 2x faster
        // than either classical algorithm.
        let params = MachineParams::ipsc860();
        let plan = best_plan(&params, 7, 40);
        assert_eq!(plan.dims, vec![4, 3]);
        let t_se = multiphase_time(&params, 40.0, 7, &[1; 7]);
        let t_ocs = multiphase_time(&params, 40.0, 7, &[7]);
        assert!(t_se / plan.predicted_us > 2.0);
        assert!(t_ocs / plan.predicted_us > 2.0);
    }

    #[test]
    fn plan_phase_count() {
        let plan = Plan { dims: vec![3, 2, 2], predicted_us: 1.0 };
        assert_eq!(plan.phases(), 3);
    }
}
