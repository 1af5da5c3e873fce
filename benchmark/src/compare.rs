//! `compare A.json B.json`: is B worse than A?
//!
//! One row per (metric, workload): both medians over the files' runs,
//! both quartile pairs, the bound, and a verdict. The bound applies to
//! the median. Where the run-to-run spread is wider than the bound and
//! the two sides' runs overlap, the row is `unresolved` — neither
//! "unchanged" nor "regressed" can be read off such data.

use crate::manifest::Manifest;
use crate::report::{Ledger, RunRecord};
use crate::stats::{median, quartiles};
use std::fmt::Write as _;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// B's median is better than A's by more than the bound.
    Improved,
    /// The spread is wider than the bound and the runs overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How a metric's bound is read.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    /// Share of A's median.
    Relative(f64),
    /// Absolute difference of the medians.
    Absolute(f64),
}

/// Extras carry the issue's bounds: planner latencies like the timings,
/// the model error by an absolute margin (it is a ratio near zero).
fn extra_bound(name: &str, timing_bound: f64) -> Bound {
    match name {
        "model_err_max" => Bound::Absolute(0.002),
        _ => Bound::Relative(timing_bound),
    }
}

/// Judge one row. `lower_is_better` orients "worse".
fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: Bound) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better { mb - ma } else { ma - mb };
    let (worse_by, spread) = match bound {
        Bound::Relative(_) => {
            let iqr = |v: &[f64]| {
                if v.len() < 2 {
                    return 0.0;
                }
                let (q1, q3) = quartiles(v);
                q3 - q1
            };
            (worse_by / ma.abs(), iqr(a).max(iqr(b)) / ma.abs())
        }
        Bound::Absolute(_) => (worse_by, 0.0),
    };
    let limit = match bound {
        Bound::Relative(l) | Bound::Absolute(l) => l,
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let overlap = min(a) <= max(b) && min(b) <= max(a);
    if spread > limit && overlap {
        Verdict::Unresolved
    } else if worse_by > limit {
        Verdict::Regressed
    } else if -worse_by > limit {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn untraced_runs<'l>(ledger: &'l Ledger, workload: &str) -> Vec<&'l RunRecord> {
    ledger.runs.iter().filter(|r| r.workload == workload && !r.traced).collect()
}

fn values(runs: &[&RunRecord], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().chain(&r.extras).find(|m| m.name == metric))
        .map(|m| m.value)
        .collect()
}

/// `q1..q3 (spread)`: the quartiles and their distance as a share of
/// the median — the run-to-run spread the bounds must stay above.
fn quartile_text(v: &[f64]) -> String {
    if v.len() < 2 {
        return "-".to_string();
    }
    let (q1, q3) = quartiles(v);
    format!("{q1:.4}..{q3:.4} ({:.1}%)", (q3 - q1) / median(v).abs() * 100.0)
}

/// Compare two ledgers. Returns the printed table and whether B is
/// acceptable: no row regressed and no workload's `fail_frac` rose.
pub fn compare(manifest: &Manifest, a: &Ledger, b: &Ledger) -> (String, bool) {
    let mut out = String::new();
    let mut acceptable = true;
    let _ =
        writeln!(
        out,
        "A: commit {} nproc {} {} ({} runs/workload)\nB: commit {} nproc {} {} ({} runs/workload)",
        a.commit, a.nproc, a.rustc, a.runs_per_workload, b.commit, b.nproc, b.rustc,
        b.runs_per_workload
    );
    let _ = writeln!(
        out,
        "{:<14} {:<16} {:>6} {:>12} {:>30} {:>12} {:>30} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A q1..q3 (spread)",
        "B median",
        "B q1..q3 (spread)",
        "B/A",
        "bound"
    );
    let timing_bound =
        manifest.end_to_end.iter().find(|m| m.name == "wall_s").map_or(0.1, |m| m.bound);
    for workload in &manifest.workloads {
        let (ra, rb) = (untraced_runs(a, &workload.name), untraced_runs(b, &workload.name));
        if ra.is_empty() || rb.is_empty() {
            let _ = writeln!(out, "{:<14} missing from one side", workload.name);
            acceptable = false;
            continue;
        }
        let mut rows: Vec<(String, String, bool, Bound)> = manifest
            .end_to_end
            .iter()
            .map(|m| {
                (m.name.clone(), m.unit.clone(), m.better == "lower", Bound::Relative(m.bound))
            })
            .collect();
        for extra in &ra[0].extras {
            let bound = extra_bound(&extra.name, timing_bound);
            rows.push((extra.name.clone(), extra.unit.clone(), true, bound));
        }
        for (metric, unit, lower, bound) in rows {
            let (va, vb) = (values(&ra, &metric), values(&rb, &metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, lower, bound);
            acceptable &= v != Verdict::Regressed;
            let bound_text = match bound {
                Bound::Relative(l) => format!("{:.0}%", l * 100.0),
                Bound::Absolute(l) => format!("+{l}"),
            };
            let _ = writeln!(
                out,
                "{:<14} {:<16} {:>6} {:>12.5} {:>30} {:>12.5} {:>30} {:>8.4} {:>7}  {}",
                workload.name,
                metric,
                unit,
                median(&va),
                quartile_text(&va),
                median(&vb),
                quartile_text(&vb),
                median(&vb) / median(&va),
                bound_text,
                v.label()
            );
        }
        // Failures have no noise to hide in: any rise rejects.
        let fail = |runs: &[&RunRecord]| runs.iter().map(|r| r.fail_frac).fold(0.0, f64::max);
        let (fa, fb) = (fail(&ra), fail(&rb));
        let risen = fb > fa;
        acceptable &= !risen;
        let _ = writeln!(
            out,
            "{:<14} {:<16} {:>6} {:>12.5} {:>30} {:>12.5} {:>30} {:>8} {:>7}  {}",
            workload.name,
            "fail_frac",
            "ratio",
            fa,
            "-",
            fb,
            "-",
            "-",
            "+0",
            if risen { "regressed" } else { "within" }
        );
        // Same seeds must simulate the same thing on both sides.
        let digests = |runs: &[&RunRecord]| -> Vec<(u64, String)> {
            runs.iter().map(|r| (r.seed, r.sim_digest.clone())).collect()
        };
        let (da, db) = (digests(&ra), digests(&rb));
        let shared: Vec<_> = da.iter().filter(|(s, _)| db.iter().any(|(t, _)| s == t)).collect();
        let differing = shared.iter().filter(|pair| !db.contains(pair)).count();
        let _ = writeln!(
            out,
            "{:<14} sim_digest: {} of {} shared seeds differ",
            workload.name,
            differing,
            shared.len()
        );
    }
    let _ = writeln!(out, "{}", if acceptable { "ACCEPT" } else { "REJECT" });
    (out, acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::manifest;
    use crate::report::MetricRow;

    const TEN: Bound = Bound::Relative(0.10);

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(&a, &[1.05, 1.04, 1.06, 1.05, 1.05], true, TEN), Verdict::Within);
        assert_eq!(verdict(&a, &[1.15, 1.16, 1.14, 1.15, 1.17], true, TEN), Verdict::Regressed);
        assert_eq!(verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], true, TEN), Verdict::Improved);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], false, TEN), Verdict::Regressed);
        // Spread wider than the bound with overlapping runs: no verdict.
        let noisy = [0.8, 1.0, 1.3, 0.9, 1.2];
        assert_eq!(verdict(&noisy, &[0.9, 1.2, 1.4, 1.0, 1.3], true, TEN), Verdict::Unresolved);
        // ... unless every run of one side beats every run of the other.
        assert_eq!(verdict(&noisy, &[0.5, 0.6, 0.7, 0.55, 0.65], true, TEN), Verdict::Improved);
        // Absolute bounds ignore the base.
        let abs = Bound::Absolute(0.002);
        assert_eq!(verdict(&[0.010], &[0.0115], true, abs), Verdict::Within);
        assert_eq!(verdict(&[0.010], &[0.0125], true, abs), Verdict::Regressed);
    }

    fn ledger(wall: f64, fail_frac: f64) -> Ledger {
        let m = manifest();
        let runs = m
            .workloads
            .iter()
            .flat_map(|w| {
                let m = &m;
                (0..3u64).map(move |i| RunRecord {
                    workload: w.name.clone(),
                    seed: i,
                    seconds: 1.0,
                    scale: "full".into(),
                    traced: false,
                    correct: fail_frac == 0.0,
                    attempted: 100,
                    failed: (fail_frac * 100.0) as u64,
                    fail_frac,
                    sim_digest: "0".into(),
                    failures: Vec::new(),
                    metrics: m
                        .end_to_end
                        .iter()
                        .map(|e| MetricRow {
                            name: e.name.clone(),
                            unit: e.unit.clone(),
                            value: (if e.name == "wall_s" { wall } else { 1.0 }) + i as f64 * 1e-3,
                        })
                        .collect(),
                    extras: Vec::new(),
                    samples: Vec::new(),
                })
            })
            .collect();
        Ledger {
            commit: "c".into(),
            nproc: 2,
            rustc: "r".into(),
            seed: 0,
            runs_per_workload: 3,
            runs,
        }
    }

    #[test]
    fn a_regression_or_a_new_failure_rejects() {
        let m = manifest();
        let (table, ok) = compare(&m, &ledger(1.0, 0.0), &ledger(1.02, 0.0));
        assert!(ok, "{table}");
        assert!(table.contains("within") && table.ends_with("ACCEPT\n"));
        let (table, ok) = compare(&m, &ledger(1.0, 0.0), &ledger(1.5, 0.0));
        assert!(!ok && table.contains("regressed"), "{table}");
        let (table, ok) = compare(&m, &ledger(1.0, 0.0), &ledger(1.0, 0.01));
        assert!(!ok && table.contains("fail_frac"), "{table}");
    }
}
