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
/// pairwise line crossings at positive `m`, and the envelope's winner
/// on each inter-crossing interval is the lines' float minimum at the
/// interval's midpoint (where no two lines tie). The breakpoints are
/// exact intersections, and the faces carry their affine coefficients.
/// The crossings are not sorted to get there: a walk along the
/// envelope, certified against those midpoints, evaluates only within
/// rounding of its boundaries. This is the one hull builder: the
/// figures' casts, the planner's stored hulls (`mce_plan`, through
/// [`crate::conditioned_optimality_hull`]) and every study read it.
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

/// Relative rounding margin of the envelope's certificate: a line
/// `w` is *certified* at `m` when every other live line `j` lies above
/// it there by more than `MARGIN·(|t0_j| + |t0_w| + (|s_j| + |s_w|)·m)`
/// — 64 machine epsilons of the lines' magnitudes, where evaluating
/// `t0 + slope·m` rounds by about one on either side and computing the
/// gap itself by a few more. A certified `w` is therefore the strict
/// float minimum at `m`, whatever the evaluation order; and the gap is
/// affine in `m`, so where `w` is certified is one interval.
const MARGIN: f64 = 64.0 * f64::EPSILON;

/// One line of the envelope: its index in enumeration order, its
/// intercept and its slope.
type Line = (usize, f64, f64);

/// A run of the envelope: the winning line's index and the block-size
/// interval `[from, to)` it wins.
type Run = (usize, f64, f64);

/// The lower envelope over `m >= 0` of the lines `(partition, t0,
/// slope)`, given in enumeration order: bit for bit the faces of the
/// sweep that probes the midpoint of every interval between two
/// consecutive pairwise crossings at `m > 0` (all lines', dominated
/// ones included) and takes the float minimum of the live lines there.
///
/// That sweep sorts every crossing (≈ 620 at d10) and evaluates the
/// live lines at every probe. [`walk`] sorts only the few crossings
/// within rounding of a boundary and evaluates only there; the hulls it
/// cannot certify go through [`sweep`], which evaluates only where a
/// certified winner runs out.
pub(crate) fn lower_envelope(lines: &[(Partition, f64, f64)]) -> Vec<AffineHullFace> {
    let live = live_lines(lines);
    let runs = walk(lines, &live).unwrap_or_else(|| sweep(lines, &live));
    faces(lines, runs)
}

/// The lines no earlier line dominates. A dominated line (intercept
/// and slope both no smaller than an earlier one's) never wins a probe:
/// float `*` and `+` are monotone, so at every m >= 0 the earlier line
/// evaluates no higher, and ties go to the lower index. Its crossings
/// still place the sweep's probes.
fn live_lines(lines: &[(Partition, f64, f64)]) -> Vec<Line> {
    let mut live: Vec<Line> = Vec::new();
    for (j, &(_, t0, slope)) in lines.iter().enumerate() {
        if !live.iter().any(|&(_, a0, a_s)| a0 <= t0 && a_s <= slope) {
            live.push((j, t0, slope));
        }
    }
    live
}

/// The faces of the envelope's runs.
fn faces(lines: &[(Partition, f64, f64)], runs: Vec<Run>) -> Vec<AffineHullFace> {
    runs.into_iter()
        .map(|(w, from, to)| {
            let (part, t0, slope) = &lines[w];
            AffineHullFace {
                partition: part.clone(),
                enum_index: w,
                from,
                to,
                t0: *t0,
                slope: *slope,
            }
        })
        .collect()
}

/// Where the earlier line `a` and the later line `b` cross, computed
/// the one way every envelope path computes it; `None` unless at a
/// finite `m > 0`.
fn crossing((a0, a_s): (f64, f64), (b0, b_s): (f64, f64)) -> Option<f64> {
    if a_s == b_s {
        return None;
    }
    let x = (b0 - a0) / (a_s - b_s);
    (x.is_finite() && x > 0.0).then_some(x)
}

/// Every pairwise crossing of `lines` (the sweep's cuts), unsorted.
fn crossings(lines: &[(Partition, f64, f64)]) -> impl Iterator<Item = f64> + '_ {
    lines.iter().enumerate().flat_map(move |(i, a)| {
        lines[i + 1..].iter().filter_map(move |b| crossing((a.1, a.2), (b.1, b.2)))
    })
}

/// The float minimum of the live lines at `m`, ties to the lower index.
fn winner_at(live: &[Line], m: f64) -> Line {
    let mut best = live[0];
    let mut best_t = best.1 + best.2 * m;
    for &line in &live[1..] {
        let t = line.1 + line.2 * m;
        if t < best_t {
            best = line;
            best_t = t;
        }
    }
    best
}

/// The gap `t_j(m) − t_w(m)` less the margin, as `(at m = 0, per
/// byte)`: positive exactly where `j` lets `w` be certified.
fn gap(w: Line, j: Line) -> (f64, f64) {
    let (a, s) = (j.1 - w.1, j.2 - w.2);
    (a - MARGIN * (j.1.abs() + w.1.abs()), s - MARGIN * (j.2.abs() + w.2.abs()))
}

/// Whether `w` is certified at `m` (see [`MARGIN`]).
fn certified(live: &[Line], w: Line, m: f64) -> bool {
    live.iter().all(|&j| {
        let (a, s) = gap(w, j);
        j.0 == w.0 || a + s * m > 0.0
    })
}

/// Where `w` is certified, `(from, to)`: the roots of its gaps. Each
/// root rounds once, by far less than the margin, so `w` certified at
/// some `m` is certified on all of `[m, to)` — what lets [`sweep`] skip
/// probes — while `from` only places [`walk`]'s bands, whose edges are
/// checked with [`certified`] itself.
fn certified_span(live: &[Line], w: Line) -> (f64, f64) {
    let (mut from, mut to) = (0.0f64, f64::INFINITY);
    for &j in live.iter().filter(|j| j.0 != w.0) {
        let (a, s) = gap(w, j);
        if s > 0.0 {
            from = from.max(-a / s);
        } else if s < 0.0 {
            to = to.min(-a / s);
        }
    }
    (from, to)
}

/// The envelope found by walking from line to line, checked against
/// the sweep's own probes; `None` when a check fails.
///
/// Just past `m = 0` the envelope is the live line of least intercept
/// (then least slope); at each boundary the line that overtakes it
/// first (of those crossing there, the one of least slope) takes over,
/// so slopes fall and the walk ends within `live.len()` lines.
///
/// Near a boundary the lines come within rounding of each other, and
/// the sweep's winners there are whatever float evaluation says. So
/// each boundary gets a band three times as wide as the window where
/// neither of its two lines is certified, and one unsorted pass over
/// all crossings collects the few inside a band (and the extreme
/// crossings, which place the sweep's first and last probes). Inside a
/// band the sweep's probes are evaluated as the sweep evaluates them.
/// Every other probe lies between two bands (or a band and an end),
/// within the points `0.5·(band edge + nearest cut inside the band)`
/// however the crossings outside fall; each line of the walk must be
/// certified at the two such points that bound its face, and the set
/// where a line is certified is an interval, so every probe between
/// has that line for its winner — the sweep's faces, and its
/// boundaries, are the walk's.
fn walk(lines: &[(Partition, f64, f64)], live: &[Line]) -> Option<Vec<Run>> {
    let first = live.iter().min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.total_cmp(&b.2)))?;
    let mut steps: Vec<(Line, f64)> = vec![(*first, 0.0)];
    loop {
        let (w, from) = steps[steps.len() - 1];
        let mut next: Option<(f64, Line)> = None;
        for &j in live.iter().filter(|j| j.2 < w.2) {
            let (a, b) = if j.0 < w.0 { (j, w) } else { (w, j) };
            let Some(x) = crossing((a.1, a.2), (b.1, b.2)).filter(|&x| x > from) else {
                continue;
            };
            if next.is_none_or(|(bx, bj)| x < bx || (x == bx && j.2 < bj.2)) {
                next = Some((x, j));
            }
        }
        let Some((x, j)) = next else { break };
        steps.push((j, x));
    }
    let spans: Vec<(f64, f64)> = steps.iter().map(|&(w, _)| certified_span(live, w)).collect();
    let bands: Vec<(f64, f64)> = (1..steps.len())
        .map(|i| {
            let x = steps[i].1;
            let half = 3.0 * (x - spans[i - 1].1).max(spans[i].0 - x).max(0.0);
            (x - half, x + half)
        })
        .collect();
    if bands.windows(2).any(|b| b[0].1 >= b[1].0) {
        return None;
    }
    let mut inside: Vec<f64> = Vec::new();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for c in crossings(lines) {
        lo = lo.min(c);
        hi = hi.max(c);
        // Without short-circuits: almost every crossing is in no band.
        if bands.iter().fold(false, |hit, &(from, to)| hit | ((from <= c) & (c <= to))) {
            inside.push(c);
        }
    }
    inside.sort_by(f64::total_cmp);
    inside.dedup();
    // Each band's cuts (never none: its boundary is a crossing).
    let mut rest = &inside[..];
    let cuts: Vec<&[f64]> = bands
        .iter()
        .map(|&(_, to)| {
            let (cuts, tail) = rest.split_at(rest.partition_point(|&c| c <= to));
            rest = tail;
            cuts
        })
        .collect();
    // The points bounding each face's probes: the sweep's first and
    // last probes, computed as it computes them, at the ends.
    let (first_probe, last_probe) =
        if lo <= hi { (0.5 * (0.0 + lo), hi + 1.0) } else { (1.0, 1.0) };
    let below = |i: usize| 0.5 * (bands[i].0.max(0.0) + cuts[i][0]);
    let above = |i: usize| 0.5 * (cuts[i][cuts[i].len() - 1] + bands[i].1);
    let k = bands.len();
    let certain = (0..=k).all(|f| {
        let (start, end) = (
            if f == 0 { first_probe } else { above(f - 1) },
            if f == k { last_probe } else { below(f) },
        );
        certified(live, steps[f].0, start) && certified(live, steps[f].0, end)
    });
    if !certain {
        return None;
    }
    let mut runs: Vec<Run> = vec![(steps[0].0 .0, 0.0, f64::INFINITY)];
    for (i, cuts) in cuts.iter().enumerate() {
        for (r, &c) in cuts.iter().enumerate() {
            let w = match cuts.get(r + 1) {
                Some(&next) => winner_at(live, 0.5 * (c + next)).0,
                None => steps[i + 1].0 .0,
            };
            let run = runs.last_mut().expect("runs start with the first line");
            if run.0 != w {
                run.2 = c;
                runs.push((w, c, f64::INFINITY));
            }
        }
    }
    Some(runs)
}

/// The sweep itself, for hulls the walk cannot certify: every crossing
/// sorted, each interval between two consecutive ones probed at its
/// midpoint (past the last one, one byte further) — except that once a
/// winner is certified, the probes up to the end of its
/// [certified span](certified_span) are not evaluated: no other line
/// comes near it there.
fn sweep(lines: &[(Partition, f64, f64)], live: &[Line]) -> Vec<Run> {
    let mut cuts: Vec<f64> = crossings(lines).collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut runs: Vec<Run> = Vec::new();
    let (mut w, mut until) = (live[0], f64::NEG_INFINITY);
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
        if probe >= until {
            w = winner_at(live, probe);
            until = if certified(live, w, probe) { certified_span(live, w).1 } else { probe };
        }
        match runs.last_mut() {
            Some(run) if run.0 == w.0 => run.2 = to,
            _ => runs.push((w.0, from, to)),
        }
        from = to;
    }
    runs
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

    /// The envelope sweep the certified walk replaced, verbatim: every
    /// positive crossing sorted, every interval probed at its midpoint
    /// against every live line. The walk must reproduce it field for
    /// field, floats bit for bit.
    fn lower_envelope_reference(lines: &[(Partition, f64, f64)]) -> Vec<AffineHullFace> {
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

    /// Faces equal field by field, floats by their bits.
    fn assert_same_faces(got: &[AffineHullFace], want: &[AffineHullFace], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: {got:?}\nvs {want:?}");
        for (g, w) in got.iter().zip(want) {
            let bits = |f: &AffineHullFace| {
                (f.enum_index, [f.from, f.to, f.t0, f.slope].map(f64::to_bits))
            };
            assert_eq!(g.partition, w.partition, "{what}");
            assert_eq!(bits(g), bits(w), "{what}: {g:?} vs {w:?}");
        }
    }

    /// `lines` through the envelope and through the sweep it replaced —
    /// and through the fallback sweep alone, whether or not the walk
    /// certifies these lines.
    fn assert_walk_is_the_sweep(lines: &[(Partition, f64, f64)], what: &str) {
        let reference = lower_envelope_reference(lines);
        assert_same_faces(&lower_envelope(lines), &reference, what);
        let swept = faces(lines, sweep(lines, &live_lines(lines)));
        assert_same_faces(&swept, &reference, &format!("{what}, swept"));
    }

    /// SplitMix64: a seeded stream for generated inputs.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random condition of a `d`-cube: seeded per-dimension slowdown
    /// spreads (uniform ones a fifth of the time) and, half the time,
    /// background streams.
    fn random_condition(d: u32, mix: &mut Mix) -> crate::ConditionSummary {
        let n = 1usize << d;
        let uniform = mix.below(5) == 0;
        let spans: Vec<(f64, f64)> = (0..d)
            .map(|_| {
                let lo = mix.uniform(1.0, 3.0);
                (lo, if uniform { lo } else { lo + mix.uniform(0.0, 2.0) })
            })
            .collect();
        let factors: Vec<f64> = (0..n)
            .flat_map(|_| spans.clone())
            .map(|(lo, hi)| if lo == hi { lo } else { mix.uniform(lo, hi) })
            .collect();
        let mut cond = crate::ConditionSummary::from_link_factors(d, &factors);
        if mix.below(2) == 0 {
            for _ in 0..1 + mix.below(4) {
                let mask = 1 + mix.below((1 << d) - 1) as u32;
                cond.add_stream(mask, mix.uniform(20.0, 400.0), mix.uniform(400.0, 2000.0));
            }
        }
        cond
    }

    #[test]
    fn the_walk_is_the_sweep_on_random_conditioned_hulls() {
        use crate::conditioned::{partition_lines, StepTable};
        let machines =
            [MachineParams::ipsc860(), MachineParams::ncube2_like(), MachineParams::hypothetical()];
        let mut mix = Mix(1991);
        for i in 0..5_000u64 {
            let d = 1 + (i % 10) as u32;
            let p = &machines[(i / 10 % 3) as usize];
            let saf = i / 30 % 2 == 1;
            let cond = random_condition(d, &mut mix);
            let lines = partition_lines(p, d, &StepTable::new(&cond), saf);
            assert_walk_is_the_sweep(&lines, &format!("hull {i}: {} d{d} saf {saf}", p.name));
        }
    }

    #[test]
    fn the_walk_is_the_sweep_on_clean_hulls_to_d16() {
        for p in
            [MachineParams::ipsc860(), MachineParams::ncube2_like(), MachineParams::hypothetical()]
        {
            for d in 1..=16u32 {
                for saf in [false, true] {
                    let lines: Vec<(Partition, f64, f64)> = partitions(d)
                        .into_iter()
                        .map(|part| {
                            let price = |m| match saf {
                                false => multiphase_time(&p, m, d, part.parts()),
                                true => crate::multiphase_saf_time(&p, m, d, part.parts()),
                            };
                            let t0 = price(0.0);
                            let slope = price(1.0) - t0;
                            (part, t0, slope)
                        })
                        .collect();
                    assert_walk_is_the_sweep(&lines, &format!("{} d{d} saf {saf}", p.name));
                }
            }
        }
    }

    #[test]
    fn the_walk_is_the_sweep_on_degenerate_line_sets() {
        let parts = partitions(12);
        let with = |coeffs: &[(f64, f64)]| -> Vec<(Partition, f64, f64)> {
            parts.iter().zip(coeffs).map(|(p, &(t0, s))| (p.clone(), t0, s)).collect()
        };
        let mut cases: Vec<(&str, Vec<(f64, f64)>)> = vec![
            ("a single line", vec![(5.0, 1.0)]),
            ("one line, duplicated", vec![(5.0, 1.0); 6]),
            ("all slopes equal", vec![(9.0, 2.0), (4.0, 2.0), (7.0, 2.0), (4.0, 2.0), (1.5, 2.0)]),
            ("no positive crossing", (1..8).map(|i| (i as f64, i as f64)).collect()),
            ("crossings only at m = 0", (1..8).map(|i| (3.0, 10.0 - i as f64)).collect()),
            (
                "an envelope with every line duplicated",
                [(1.0, 9.0), (5.0, 4.0), (20.0, 1.0), (40.0, 0.5)]
                    .iter()
                    .flat_map(|&l| [l, l])
                    .collect(),
            ),
            (
                "three lines through one point",
                vec![(10.0, 3.0), (20.0, 2.0), (30.0, 1.0), (15.0, 2.5), (60.0, 0.25)],
            ),
        ];
        let mut mix = Mix(7);
        for _ in 0..200 {
            // Coarse grids: duplicates, parallels, concurrent crossings.
            let n = 1 + mix.below(40) as usize;
            let coeffs =
                (0..n).map(|_| (mix.below(6) as f64 * 8.0, mix.below(5) as f64 * 0.5)).collect();
            cases.push(("coarse grid", coeffs));
        }
        for (what, coeffs) in &cases {
            assert_walk_is_the_sweep(&with(coeffs), what);
        }
    }

    /// Lines whose envelope has a boundary where a dominated line
    /// crosses within `ulps` units in the last place of it: the probe
    /// between the two crossings sits within rounding of a tie, and the
    /// sweep's winner there is whatever float evaluation says.
    fn near_tie(mix: &mut Mix) -> (Vec<(Partition, f64, f64)>, u64) {
        let ulps = 1 + mix.below(4);
        let nudge = |x: f64, by: u64| f64::from_bits(x.to_bits() + by);
        let a = (mix.uniform(50.0, 5_000.0), mix.uniform(5.0, 50.0));
        let b = (a.0 + mix.uniform(10.0, 5_000.0), a.1 * mix.uniform(0.05, 0.95));
        let c = (b.0 + mix.uniform(10.0, 5_000.0), b.1 * mix.uniform(0.05, 0.95));
        // A copy of `a` or `b`, a few ulps higher, steeper or both:
        // dominated by its original, crossing the next line within
        // ulps of where the original does.
        let original = if mix.below(2) == 0 { a } else { b };
        let copy = match mix.below(3) {
            0 => (nudge(original.0, ulps), original.1),
            1 => (original.0, nudge(original.1, ulps)),
            _ => (nudge(original.0, ulps), nudge(original.1, ulps)),
        };
        let mut coeffs = vec![a, b, c, copy];
        // Dominated bystanders above the envelope.
        for _ in 0..mix.below(6) {
            coeffs.push((c.0 + mix.uniform(1.0, 100.0), a.1 + mix.uniform(0.0, 10.0)));
        }
        let lines = partitions(12).into_iter().zip(coeffs).map(|(p, (t0, s))| (p, t0, s)).collect();
        (lines, ulps)
    }

    #[test]
    fn the_walk_is_the_sweep_on_near_ties() {
        let mut mix = Mix(28);
        for i in 0..2_000 {
            let (lines, ulps) = near_tie(&mut mix);
            assert_walk_is_the_sweep(&lines, &format!("near tie {i}, {ulps} ulps"));
        }
    }
}
