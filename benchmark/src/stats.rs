//! Order statistics used by every report: medians, quartiles and the
//! tail-percentile rule.

use serde::{Deserialize, Serialize};

/// Percentiles a tail may be reported at, in per mille, lowest first.
const TAIL_GRID_PER_MILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for even counts). Panics on
/// an empty slice: every caller has measured at least one pass.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the acceptance driver computes run-to-run spread that way, so
/// `compare` must agree with it digit for digit. Needs two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let v = sorted(samples);
    let ld = v.len();
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile `p` (0–100) of the samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    // Per-mille integer arithmetic: 0.9 × 100 must be rank 90, not 91.
    let rank = (v.len() * (p * 10.0).round() as usize).div_ceil(1000);
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the grid (p75, p90, p95, p99, p99.9) that
/// still has at least ten samples beyond its nearest-rank sample, or
/// `None` when even the lowest has fewer: a tail read off fewer samples
/// is one outlier, not a percentile.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_GRID_PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| n >= (n * pm).div_ceil(1000) + TAIL_MIN_BEYOND)
        .map(|&pm| pm as f64 / 10.0)
}

/// A timing as the ledger reports it: median, tail, sample count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timing {
    /// Median of the samples.
    pub median: f64,
    /// Percentile the tail was read at (see [`tail_percentile`]);
    /// `None` when there were too few samples for any.
    pub tail_p: Option<f64>,
    /// The sample at `tail_p`.
    pub tail: Option<f64>,
    /// Number of samples.
    pub n: usize,
}

impl Timing {
    /// Summarise `samples` (at least one).
    pub fn of(samples: &[f64]) -> Timing {
        let tail_p = tail_percentile(samples.len());
        Timing {
            median: median(samples),
            tail_p,
            tail: tail_p.map(|p| percentile(samples, p)),
            n: samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(8), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn timing_reports_median_tail_and_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Timing::of(&v);
        assert_eq!(t, Timing { median: 50.5, tail_p: Some(90.0), tail: Some(90.0), n: 100 });
        let few = Timing::of(&[1.0, 2.0, 3.0]);
        assert_eq!(few, Timing { median: 2.0, tail_p: None, tail: None, n: 3 });
    }
}
