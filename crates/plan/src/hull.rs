//! The cached value: one condition's exact hull of optimality with
//! affine per-face predictions.

use mce_model::{
    affine_face_index, conditioned_multiphase_saf_time, conditioned_multiphase_time,
    conditioned_optimality_hull, AffineHullFace, ConditionSummary, MachineParams, StepSource,
};
use mce_partitions::Partition;
use mce_simnet::config::SwitchingMode;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize};

/// Relative half-width of the boundary band around each face edge.
///
/// Inside the band the top candidates are within `~1e-6` relative of
/// each other — six orders of magnitude above float noise but close
/// enough that an affine recombination could order-flip against the
/// model's own evaluation order — so the engine re-runs the exact
/// enumeration fold there instead of trusting the face label. The band
/// has measure `~1e-6` of the query space; warm-path throughput is
/// unaffected.
pub const BOUNDARY_REL_EPS: f64 = 1e-6;

/// One condition's precomputed decision table: the exact hull of
/// optimality (faces with affine coefficients) for a `(machine, d,
/// switching, condition)` tuple. Serializable, so hulls can be
/// persisted and shipped ("stored for repeated future use", §6): this
/// is the one stored form of a hull. Deserializing checks what every
/// lookup relies on — faces that tile `[0, ∞)` in order, each naming a
/// partition of `d` — and reports a malformed table as a serde error.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlanHull {
    /// Cube dimension the hull plans for.
    pub d: u32,
    /// `true` when priced under store-and-forward switching.
    pub saf: bool,
    /// The faces, tiling `[0, ∞)`.
    pub faces: Vec<AffineHullFace>,
}

impl<'de> Deserialize<'de> for PlanHull {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        /// The serialized shape, checked before it becomes a hull.
        #[derive(Deserialize)]
        struct Stored {
            d: u32,
            saf: bool,
            faces: Vec<AffineHullFace>,
        }
        let Stored { d, saf, faces } = Stored::deserialize(deserializer)?;
        let tiles = faces.first().is_some_and(|f| f.from == 0.0)
            && faces.last().is_some_and(|f| f.to == f64::INFINITY)
            && faces.iter().all(|f| f.from < f.to)
            && faces.windows(2).all(|w| w[0].to == w[1].from);
        if !tiles {
            return Err(D::Error::custom("hull faces must tile [0, inf) in order"));
        }
        let of_d = |p: &Partition| {
            p.parts().iter().all(|&k| k > 0)
                && p.parts().iter().try_fold(0u32, |sum, &k| sum.checked_add(k)) == Some(d)
        };
        if let Some(f) = faces.iter().find(|f| !of_d(&f.partition)) {
            return Err(D::Error::custom(format_args!(
                "hull face names {:?}, not a partition of d = {d}",
                f.partition.parts()
            )));
        }
        Ok(PlanHull { d, saf, faces })
    }
}

/// Price one partition exactly as the conformance harness does
/// (`predicted_us_with` dispatches on the same switching mode to the
/// same two entry points) — the one pricing function shared by
/// exact-mode predictions and boundary re-enumeration, and bit-equal
/// to the lines a hull build prices (`conditioned_optimality_hull`), so
/// every path is bit-consistent with the model. `cond` is the summary
/// for a single price, or a [`StepTable`](mce_model::StepTable) of it
/// when many partitions are priced under one condition (same bits
/// either way).
pub fn price<S: StepSource>(
    machine: &MachineParams,
    switching: SwitchingMode,
    d: u32,
    cond: &S,
    m: f64,
    part: &Partition,
) -> f64 {
    match switching {
        SwitchingMode::Circuit => conditioned_multiphase_time(machine, m, d, part.parts(), cond),
        SwitchingMode::StoreAndForward => {
            conditioned_multiphase_saf_time(machine, m, d, part.parts(), cond)
        }
    }
}

impl PlanHull {
    /// Build the exact hull for one condition with
    /// [`conditioned_optimality_hull`]: one
    /// [`StepTable`](mce_model::StepTable) of the condition's `2^d`
    /// masks, each phase field of the partitions priced from it once
    /// at both sample sizes, and the certified envelope walk over the
    /// lines — the *only* place the warm path's model cost is ever
    /// paid, once per cache key. The table is dropped on return.
    ///
    /// Measured by the perf ledger's `plan_cold` (1 500 d10 spread
    /// conditions, one core, one traced run per side): a build fell
    /// from 179 µs to 52 µs (`plan.hull.build_us`) when the step table
    /// replaced per-mask loops, and from 112 µs to 53 µs when shared
    /// field pricing and the walk replaced per-partition pricing and
    /// the sorted sweep (on a slower day for the host: it read the
    /// first step's 52 µs as 112). Timed alone on one pinned core, a
    /// d10 build went from 74–84 µs to 36–43 µs: table 16–20 → 13–15
    /// µs, line pricing 28–32 → 17–19 µs, envelope 29–32 → 3–9 µs.
    pub fn build(
        machine: &MachineParams,
        switching: SwitchingMode,
        d: u32,
        cond: &ConditionSummary,
    ) -> PlanHull {
        let saf = switching == SwitchingMode::StoreAndForward;
        PlanHull { d, saf, faces: conditioned_optimality_hull(machine, d, cond, saf) }
    }

    /// The face containing block size `m` (clamped; hulls tile
    /// `[0, ∞)` so every finite `m` lands somewhere).
    pub fn face(&self, m: f64) -> &AffineHullFace {
        let i = affine_face_index(&self.faces, m)
            .expect("hulls are never empty: built from p(d) >= 1 lines, checked when read");
        &self.faces[i]
    }

    /// The face containing `m`, and whether `m` falls in the boundary
    /// band of any face edge — within [`BOUNDARY_REL_EPS`] relative
    /// (absolute near zero) of a breakpoint, where the engine must
    /// re-run the exact enumeration fold rather than trust the face
    /// label. The first face's `from = 0` counts too: lines excluded
    /// from the envelope can tie the winner exactly at `m = 0`.
    ///
    /// One search: faces tile `[0, ∞)` in order, so no breakpoint is
    /// nearer `m` than the two edges of its own face — if `m` is in
    /// the band of an edge further off (faces narrower than the band
    /// in between), it is in the band of its own face's edge too.
    pub fn locate(&self, m: f64) -> (&AffineHullFace, bool) {
        let i = affine_face_index(&self.faces, m)
            .expect("hulls are never empty: built from p(d) >= 1 lines, checked when read");
        let face = &self.faces[i];
        let tol = BOUNDARY_REL_EPS * m.abs().max(1.0);
        (face, (m - face.from).abs() <= tol || (m - face.to).abs() <= tol)
    }

    /// Whether `m` falls in a boundary band (see [`PlanHull::locate`]).
    pub fn near_boundary(&self, m: f64) -> bool {
        self.locate(m).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_model::conditioned_best_partition;

    #[test]
    fn hull_faces_tile_and_name_exact_winners() {
        let machine = MachineParams::ipsc860();
        let d = 6u32;
        let cond = ConditionSummary::noop(d);
        let hull = PlanHull::build(&machine, SwitchingMode::Circuit, d, &cond);
        assert_eq!(hull.faces[0].from, 0.0);
        assert_eq!(hull.faces.last().unwrap().to, f64::INFINITY);
        for m in [0.0, 5.0, 40.0, 140.0, 400.0, 5000.0] {
            if hull.near_boundary(m) {
                continue;
            }
            let face = hull.face(m);
            let (best, t) = conditioned_best_partition(&machine, m, d, &cond);
            assert_eq!(face.partition, best, "m={m}");
            assert!((face.time_at(m) - t).abs() < 1e-9 * t.max(1.0), "m={m}");
        }
    }

    #[test]
    fn boundary_band_brackets_breakpoints_only() {
        let machine = MachineParams::ipsc860();
        let d = 6u32;
        let hull = PlanHull::build(&machine, SwitchingMode::Circuit, d, &ConditionSummary::noop(d));
        // Every interior breakpoint is in its own band; far-off points
        // are not. m = 0 is always in band (exact-tie guard).
        assert!(hull.near_boundary(0.0));
        for f in &hull.faces {
            if f.to.is_finite() {
                assert!(hull.near_boundary(f.to));
                assert!(!hull.near_boundary(f.to + 2.0 * (1.0 + f.to * BOUNDARY_REL_EPS)));
            }
        }
    }

    #[test]
    fn saf_hulls_price_the_saf_model() {
        let machine = MachineParams::ipsc860();
        let d = 4u32;
        let cond = ConditionSummary::noop(d);
        let hull = PlanHull::build(&machine, SwitchingMode::StoreAndForward, d, &cond);
        assert!(hull.saf);
        let m = 64.0;
        let face = hull.face(m);
        let direct = price(&machine, SwitchingMode::StoreAndForward, d, &cond, m, &face.partition);
        assert!((face.time_at(m) - direct).abs() < 1e-9 * direct);
    }

    #[test]
    fn deserializing_rejects_malformed_hulls() {
        let machine = MachineParams::ipsc860();
        let hull = PlanHull::build(&machine, SwitchingMode::Circuit, 3, &ConditionSummary::noop(3));
        let json = serde_json::to_string(&hull).unwrap();
        assert_eq!(serde_json::from_str::<PlanHull>(&json).unwrap(), hull);
        // A well-formed one-face table, then one defect at a time.
        let face = |parts: &str, from: &str, to: &str| {
            format!(
                r#"{{"partition":{parts},"enum_index":0,"from":{from},"to":{to},"t0":1.0,"slope":1.0}}"#
            )
        };
        let table =
            |faces: &[String]| format!(r#"{{"d":3,"saf":false,"faces":[{}]}}"#, faces.join(","));
        assert!(serde_json::from_str::<PlanHull>(&table(&[face("[3]", "0.0", "null")])).is_ok());
        for (bad, why) in [
            (r#"{"d":3,"saf":false,"faces":[]}"#.to_string(), "no faces"),
            (table(&[face("[3]", "1.0", "null")]), "starts past 0"),
            (table(&[face("[3]", "0.0", "40.0")]), "stops short of infinity"),
            (table(&[face("[2,1]", "0.0", "40.0"), face("[3]", "41.0", "null")]), "gap"),
            (
                table(&[
                    face("[2,1]", "0.0", "40.0"),
                    face("[3]", "40.0", "40.0"),
                    face("[1,1,1]", "40.0", "null"),
                ]),
                "empty face",
            ),
            (table(&[face("[2,1]", "0.0", "40.0"), face("[3]", "20.0", "null")]), "overlap"),
            (table(&[face("[2,2]", "0.0", "null")]), "sums to 4"),
            (table(&[face("[3,0]", "0.0", "null")]), "zero part"),
            (table(&[face("[4294967295,4]", "0.0", "null")]), "sum overflows"),
        ] {
            assert!(serde_json::from_str::<PlanHull>(&bad).is_err(), "{why}: {bad}");
        }
    }
}
