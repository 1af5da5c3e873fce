//! The hull of optimality: which partition is fastest at each block
//! size (paper, Section 8).
//!
//! "Although we have measured the performance of all combinations, to
//! avoid congested plots we show only those combinations that form the
//! hull of optimality (i.e. only the best combination for every
//! blocksize)."

use crate::{multiphase_time, MachineParams};
use mce_partitions::{partitions, Partition};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// JSON has no infinity; map `f64::INFINITY <-> null` so hull tables
/// survive serialization ("stored for repeated future use", §6).
mod infinite_as_null {
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_finite() {
            s.serialize_some(v)
        } else {
            s.serialize_none()
        }
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        Ok(Option::<f64>::deserialize(d)?.unwrap_or(f64::INFINITY))
    }
}

/// Find the predicted-optimal partition for one block size by
/// exhaustive enumeration over all `p(d)` partitions (Section 6).
///
/// Ties are broken toward the earlier partition in reverse-lexicographic
/// enumeration order (i.e. toward fewer phases).
pub fn best_partition(p: &MachineParams, m: f64, d: u32) -> (Partition, f64) {
    best_partition_by(d, |part| multiphase_time(p, m, d, part.parts()))
}

/// [`best_partition`] under an arbitrary pricing function — the shared
/// enumeration core behind the clean model, the conditioned model
/// (`crate::conditioned`) and any future pricing variant. `price` must
/// be a pure function of the partition.
pub fn best_partition_by(d: u32, price: impl Fn(&Partition) -> f64 + Sync) -> (Partition, f64) {
    let candidates = partitions(d);
    // Fan candidate-plan evaluation across cores once the partition
    // count justifies thread startup (p(24) ≈ 1575); the reduction is
    // sequential either way, so the tie-break toward the earlier
    // partition is preserved exactly.
    let eval = |part: Partition| {
        let t = price(&part);
        (part, t)
    };
    let timed: Vec<(Partition, f64)> = if candidates.len() >= 1024 {
        candidates.into_par_iter().map(eval).collect()
    } else {
        candidates.into_iter().map(eval).collect()
    };
    let mut best: Option<(Partition, f64)> = None;
    for (part, t) in timed {
        match &best {
            Some((_, bt)) if *bt <= t => {}
            _ => best = Some((part, t)),
        }
    }
    best.expect("d >= 1 always yields at least one partition")
}

/// One face of the hull: the optimal partition on a half-open
/// block-size interval together with the affine coefficients of its
/// prediction, `t(m) = t0 + slope·m`, and its index in enumeration
/// order (for boundary tie-breaks). Produced by
/// [`optimality_hull_affine_by`]; `to = ∞` serializes as JSON `null`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AffineHullFace {
    /// The optimal partition on this interval.
    pub partition: Partition,
    /// The partition's index in `partitions(d)` enumeration order;
    /// ties at face boundaries resolve toward the lower index, exactly
    /// as [`best_partition_by`]'s fold does.
    pub enum_index: usize,
    /// Inclusive lower end of the block-size interval (bytes).
    pub from: f64,
    /// Exclusive upper end (bytes); `f64::INFINITY` for the last face.
    #[serde(with = "infinite_as_null")]
    pub to: f64,
    /// Predicted time of this face's partition at `m = 0`, µs.
    pub t0: f64,
    /// Predicted time growth, µs per byte.
    pub slope: f64,
}

impl AffineHullFace {
    /// The face's prediction at block size `m`: `t0 + slope·m`. Two
    /// float ops — this is what makes a warm planner query free of
    /// model evaluation; it reproduces the model to within float
    /// re-association of the affine form (≤ 1 ulp-scale, not bit-equal;
    /// the planner's exact mode re-evaluates the model instead).
    pub fn time_at(&self, m: f64) -> f64 {
        self.t0 + self.slope * m
    }
}

/// Index of the face containing block size `m`, by binary search over
/// the face intervals (`from` inclusive, `to` exclusive). `None` only
/// for an empty slice; `m` below the first face clamps to face 0 and
/// `m` at or above the last face's `to` clamps to the last face, so a
/// well-formed hull (first `from = 0`, last `to = ∞`) answers every
/// finite `m` in one `O(log faces)` lookup, with no model evaluation.
pub fn affine_face_index(faces: &[AffineHullFace], m: f64) -> Option<usize> {
    if faces.is_empty() {
        return None;
    }
    let i = faces.partition_point(|f| f.to <= m);
    Some(i.min(faces.len() - 1))
}

/// Compute the hull of optimality under the pricing `price(m,
/// partition)` as the *exact* lower envelope of lines over `[0, ∞)`.
/// Every pricing in this crate is affine in `m`, so each partition is
/// one line `t0 + slope·m` (sampled at `m = 0` and `m = 1`) and holds
/// at most one contiguous interval; the candidate breakpoints are the
/// pairwise line crossings at positive `m`, and probing the interior
/// of each inter-crossing interval (where no two lines tie) recovers
/// the envelope's winner per interval. The breakpoints are exact
/// intersections, and the faces carry their affine coefficients. This
/// is the one hull builder: the figures' casts, the planner's stored
/// hulls (`mce_plan`) and every study read it.
///
/// Ties inside an interval (coincident lines) resolve toward the
/// earlier partition in enumeration order, matching
/// [`best_partition_by`]. The winner *at* a breakpoint belongs to the
/// face starting there (callers needing exact tie semantics at a
/// boundary re-evaluate the two adjacent faces; the planner does).
pub fn optimality_hull_affine_by(
    d: u32,
    price: impl Fn(f64, &Partition) -> f64 + Sync,
) -> Vec<AffineHullFace> {
    let candidates = partitions(d);
    let eval = |part: Partition| {
        let t0 = price(0.0, &part);
        let slope = price(1.0, &part) - t0;
        (part, t0, slope)
    };
    let lines: Vec<(Partition, f64, f64)> = if candidates.len() >= 1024 {
        candidates.into_par_iter().map(eval).collect()
    } else {
        candidates.into_iter().map(eval).collect()
    };
    lower_envelope(&lines)
}

/// The lower envelope over `m >= 0` of the lines `(partition, t0,
/// slope)`, given in enumeration order.
fn lower_envelope(lines: &[(Partition, f64, f64)]) -> Vec<AffineHullFace> {
    // Candidate breakpoints: every pairwise crossing at m > 0. p(d)
    // grows slowly (p(20) = 627), so the quadratic pass is cheap next
    // to the 2·p(d) model evaluations that produced the lines.
    let mut cuts: Vec<f64> = Vec::new();
    for i in 0..lines.len() {
        for j in (i + 1)..lines.len() {
            let (_, a0, a_s) = lines[i];
            let (_, b0, b_s) = lines[j];
            if a_s != b_s {
                let x = (b0 - a0) / (a_s - b_s);
                if x.is_finite() && x > 0.0 {
                    cuts.push(x);
                }
            }
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    // A line that an earlier one dominates (intercept and slope both
    // no larger) never wins a probe: float `*` and `+` are monotone,
    // so at every m >= 0 the earlier line evaluates no higher, and
    // ties go to the lower index. Probing only the rest finds the same
    // winners among far fewer lines (42 -> ~16 on a degraded d10
    // cube). A dominated line's crossings stay in `cuts`: they place
    // the probes, and where near-coincident lines cross within ulps of
    // each other one of them can be the breakpoint the sweep reports.
    let mut live: Vec<(usize, f64, f64)> = Vec::new();
    for (j, &(_, t0, slope)) in lines.iter().enumerate() {
        if !live.iter().any(|&(_, a0, a_s)| a0 <= t0 && a_s <= slope) {
            live.push((j, t0, slope));
        }
    }
    let winner_at = |m: f64| -> usize {
        let (mut best, t0, slope) = live[0];
        let mut best_t = t0 + slope * m;
        for &(i, t0, slope) in &live[1..] {
            let t = t0 + slope * m;
            if t < best_t {
                best = i;
                best_t = t;
            }
        }
        best
    };
    let mut faces: Vec<AffineHullFace> = Vec::new();
    let mut from = 0.0f64;
    for k in 0..=cuts.len() {
        // Probe strictly inside (from, to): no line crossing lives
        // there, so one winner rules the whole interval.
        let (probe, to) = if k < cuts.len() {
            (0.5 * (from + cuts[k]), cuts[k])
        } else if cuts.is_empty() {
            (1.0, f64::INFINITY)
        } else {
            (cuts[k - 1] + 1.0, f64::INFINITY)
        };
        let w = winner_at(probe);
        match faces.last_mut() {
            Some(f) if f.enum_index == w => f.to = to,
            _ => {
                let (part, t0, slope) = &lines[w];
                faces.push(AffineHullFace {
                    partition: part.clone(),
                    enum_index: w,
                    from,
                    to,
                    t0: *t0,
                    slope: *slope,
                });
            }
        }
        from = to;
    }
    faces
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clean-model hull of dimension `d` on machine `p`.
    fn hull(p: &MachineParams, d: u32) -> Vec<AffineHullFace> {
        optimality_hull_affine_by(d, |m, part| multiphase_time(p, m, d, part.parts()))
    }

    fn hull_partitions(d: u32) -> Vec<String> {
        hull(&MachineParams::ipsc860(), d).iter().map(|f| f.partition.to_string()).collect()
    }

    /// The step-resolution scan the envelope replaced, kept as the
    /// reference it is checked against: the exact fold at `0, step,
    /// 2·step, ... <= m_max`, merged into runs `(partition, from, to)`,
    /// the last run open-ended.
    fn scanned_hull(
        d: u32,
        m_max: f64,
        step: f64,
        price: impl Fn(f64, &Partition) -> f64 + Sync,
    ) -> Vec<(Partition, f64, f64)> {
        let mut faces: Vec<(Partition, f64, f64)> = Vec::new();
        let mut m = 0.0;
        while m <= m_max {
            let (part, _) = best_partition_by(d, |part| price(m, part));
            match faces.last_mut() {
                Some(face) if face.0 == part => face.2 = m + step,
                _ => faces.push((part, m, m + step)),
            }
            m += step;
        }
        if let Some(last) = faces.last_mut() {
            last.2 = f64::INFINITY;
        }
        faces
    }

    /// Every scanned breakpoint is the first scanned size at or past the
    /// envelope's exact one: `exact` lies in `(scanned − step, scanned]`.
    fn assert_scan_brackets(exact: &[AffineHullFace], scanned: &[(Partition, f64, f64)]) {
        for (a, (part, _, to)) in exact.iter().zip(scanned) {
            assert_eq!(&a.partition, part);
            if to.is_finite() {
                assert!(a.to <= *to && a.to > to - 1.0, "exact {} vs scanned {to}", a.to);
            }
        }
    }

    #[test]
    fn figure_4_hull_d5() {
        // "When d = 5 (Figure 4) the combination {2,3} is optimal for
        // block sizes less than 100 bytes" then {5}.
        let faces = hull_partitions(5);
        assert_eq!(faces, vec!["{3,2}", "{5}"]);
        let breakpoint = hull(&MachineParams::ipsc860(), 5)[0].to;
        assert!(breakpoint > 60.0 && breakpoint < 140.0, "crossover near 100 B, got {breakpoint}");
    }

    #[test]
    fn figure_5_hull_d6() {
        // "For d = 6, three combinations are optimal: {2,2,2}, {3,3}
        // and {6}. The last of these is optimal for message sizes
        // beyond about 140 bytes. The first is optimal only for
        // extremely small sizes."
        let faces = hull_partitions(6);
        assert_eq!(faces, vec!["{2,2,2}", "{3,3}", "{6}"]);
        let hull = hull(&MachineParams::ipsc860(), 6);
        assert!(hull[0].to < 40.0, "{{2,2,2}} only for extremely small sizes");
        assert!(hull[1].to > 100.0 && hull[1].to < 200.0, "{{6}} beyond about 140 B");
    }

    #[test]
    fn figure_6_hull_d7() {
        // "we again have three optimal combinations {2,2,3}, {3,4} and
        // {7}, with {7} optimal beyond 160 bytes and {2,2,3} optimal
        // for 0 to 12 bytes."
        let faces = hull_partitions(7);
        assert_eq!(faces, vec!["{3,2,2}", "{4,3}", "{7}"]);
        let hull = hull(&MachineParams::ipsc860(), 7);
        assert!(hull[0].to < 30.0, "{{2,2,3}} for small sizes only, got {}", hull[0].to);
        assert!(
            hull[1].to > 120.0 && hull[1].to < 220.0,
            "{{7}} beyond ~160 B, got {}",
            hull[1].to
        );
    }

    #[test]
    fn standard_exchange_never_on_ipsc_hull() {
        // "The Standard Exchange Algorithm ... is never optimal on the
        // iPSC-860 for dimensions 5-7."
        for d in 5..=7u32 {
            assert!(
                !hull_partitions(d)
                    .iter()
                    .any(|s| s.chars().filter(|&c| c == '1').count() == d as usize),
                "d={d}"
            );
        }
    }

    #[test]
    fn best_partition_agrees_with_exhaustive_min() {
        let p = MachineParams::ipsc860();
        for m in [0.0, 10.0, 40.0, 100.0, 399.0] {
            let (part, t) = best_partition(&p, m, 6);
            for q in partitions(6) {
                assert!(multiphase_time(&p, m, 6, q.parts()) >= t - 1e-9, "m={m} {q} beats {part}");
            }
        }
    }

    #[test]
    fn faces_tile_the_range() {
        for p in
            [MachineParams::ipsc860(), MachineParams::ncube2_like(), MachineParams::hypothetical()]
        {
            for d in 1..=10u32 {
                let hull = hull(&p, d);
                assert_eq!(hull[0].from, 0.0);
                for w in hull.windows(2) {
                    assert_eq!(w[0].to, w[1].from);
                    assert!(w[0].from < w[0].to, "{} d={d}: empty face", p.name);
                }
                assert_eq!(hull.last().unwrap().to, f64::INFINITY);
            }
        }
    }

    #[test]
    fn large_blocks_favor_singleton() {
        let p = MachineParams::ipsc860();
        for d in 2..=8u32 {
            let (part, _) = best_partition(&p, 10_000.0, d);
            assert!(part.is_optimal_circuit_switched(), "d={d}: {part}");
        }
    }

    #[test]
    fn affine_hull_matches_scanned_hull() {
        // Same face sequence as the 1-byte scan, each exact breakpoint
        // in the byte below the scanned one.
        let p = MachineParams::ipsc860();
        for d in 5..=7u32 {
            let scanned =
                scanned_hull(d, 400.0, 1.0, |m, part| multiphase_time(&p, m, d, part.parts()));
            let exact = hull(&p, d);
            assert_eq!(exact.len(), scanned.len(), "d={d}");
            assert_scan_brackets(&exact, &scanned);
        }
    }

    #[test]
    fn affine_faces_carry_their_own_prediction() {
        let p = MachineParams::ipsc860();
        let d = 6u32;
        for face in &hull(&p, d) {
            let probe =
                if face.to.is_finite() { 0.5 * (face.from + face.to) } else { face.from + 50.0 };
            let direct = multiphase_time(&p, probe, d, face.partition.parts());
            assert!(
                (face.time_at(probe) - direct).abs() < 1e-9 * direct.max(1.0),
                "affine {} vs direct {direct}",
                face.time_at(probe)
            );
            // And the face's partition really is the winner there.
            let (best, _) = best_partition(&p, probe, d);
            assert_eq!(best, face.partition);
        }
    }

    #[test]
    fn face_lookup_clamps_and_finds() {
        let hull = hull(&MachineParams::ipsc860(), 6);
        assert_eq!(affine_face_index(&[], 10.0), None);
        assert_eq!(affine_face_index(&hull, -5.0), Some(0));
        assert_eq!(affine_face_index(&hull, 0.0), Some(0));
        assert_eq!(affine_face_index(&hull, 1e12), Some(hull.len() - 1));
        for (i, f) in hull.iter().enumerate() {
            // `from` is inclusive; just under `to` still belongs here.
            assert_eq!(affine_face_index(&hull, f.from), Some(i));
            let inside = if f.to.is_finite() { 0.5 * (f.from + f.to) } else { f.from + 1.0 };
            assert_eq!(affine_face_index(&hull, inside), Some(i));
            if f.to.is_finite() {
                // A breakpoint belongs to the face starting there.
                assert_eq!(affine_face_index(&hull, f.to), Some(i + 1));
            }
        }
    }

    /// The envelope sweep as it stood before dominated lines were
    /// dropped: every pair of lines contributes its crossing and every
    /// line is evaluated at every probe. Kept as the reference the
    /// pruned sweep must reproduce field for field.
    fn all_pairs_envelope(lines: &[(Partition, f64, f64)]) -> Vec<AffineHullFace> {
        let mut cuts: Vec<f64> = Vec::new();
        for i in 0..lines.len() {
            for j in (i + 1)..lines.len() {
                let (_, a0, a_s) = lines[i];
                let (_, b0, b_s) = lines[j];
                if a_s != b_s {
                    let x = (b0 - a0) / (a_s - b_s);
                    if x.is_finite() && x > 0.0 {
                        cuts.push(x);
                    }
                }
            }
        }
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        let winner_at = |m: f64| -> usize {
            let mut best = 0usize;
            let mut best_t = lines[0].1 + lines[0].2 * m;
            for (i, (_, t0, s)) in lines.iter().enumerate().skip(1) {
                let t = t0 + s * m;
                if t < best_t {
                    best = i;
                    best_t = t;
                }
            }
            best
        };
        let mut faces: Vec<AffineHullFace> = Vec::new();
        let mut from = 0.0f64;
        for k in 0..=cuts.len() {
            let (probe, to) = if k < cuts.len() {
                (0.5 * (from + cuts[k]), cuts[k])
            } else if cuts.is_empty() {
                (1.0, f64::INFINITY)
            } else {
                (cuts[k - 1] + 1.0, f64::INFINITY)
            };
            let w = winner_at(probe);
            match faces.last_mut() {
                Some(f) if f.enum_index == w => f.to = to,
                _ => {
                    let (part, t0, slope) = &lines[w];
                    faces.push(AffineHullFace {
                        partition: part.clone(),
                        enum_index: w,
                        from,
                        to,
                        t0: *t0,
                        slope: *slope,
                    });
                }
            }
            from = to;
        }
        faces
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Dropping dominated lines changes no face. Coefficients are
        /// drawn from a coarse grid, so a set is full of duplicate
        /// lines, parallel lines, equal intercepts (crossings at
        /// `m = 0`) and concurrent crossings; a third of the lines are
        /// nudged off the grid so generic position is covered too.
        #[test]
        fn pruned_envelope_equals_the_all_pairs_envelope(
            raw in proptest::collection::vec((0u32..10, 0u32..10, 0u32..900), 1..48),
        ) {
            let lines: Vec<(Partition, f64, f64)> = partitions(12)
                .into_iter()
                .zip(&raw)
                .map(|(part, &(a, b, nudge))| {
                    let off = if nudge < 600 { 0.0 } else { nudge as f64 / 997.0 };
                    (part, 100.0 + 7.5 * a as f64 + off, 0.25 * b as f64 + off / 64.0)
                })
                .collect();
            let pruned = lower_envelope(&lines);
            proptest::prop_assert_eq!(&pruned, &all_pairs_envelope(&lines));
            proptest::prop_assert_eq!(pruned[0].from, 0.0);
            proptest::prop_assert_eq!(pruned[pruned.len() - 1].to, f64::INFINITY);
        }
    }

    #[test]
    fn affine_hull_prices_conditioned_models_too() {
        // The planner builds conditioned hulls through the same entry
        // point: check the envelope against the conditioned scan on a
        // contended cube.
        use crate::conditioned::{conditioned_multiphase_time, ConditionSummary, StepTable};
        let p = MachineParams::ipsc860();
        let d = 6u32;
        let mut cond = ConditionSummary::noop(d);
        for _ in 0..6 {
            cond.add_stream(0x3F, 314.0, 600.0);
        }
        let table = StepTable::new(&cond);
        let price =
            |m: f64, part: &Partition| conditioned_multiphase_time(&p, m, d, part.parts(), &table);
        let scanned = scanned_hull(d, 400.0, 1.0, price);
        let exact = optimality_hull_affine_by(d, price);
        // The scan stops at 400 B; the exact envelope may keep
        // splitting beyond it. Compare the prefix the scan covers.
        assert!(exact.len() >= scanned.len());
        assert_scan_brackets(&exact, &scanned);
    }
}
