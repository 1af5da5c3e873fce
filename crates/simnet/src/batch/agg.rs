//! Per-batch aggregation over replicate runs.
//!
//! Sweeps in this repository routinely run the same workload many
//! times — jitter seeds, conditioned-network severities, arena-reuse
//! replicates — and every consumer used to hand-roll its own
//! mean/min/max folding. [`aggregate`] folds a slice of batch results
//! into one [`RunAggregate`]: a [`MetricSummary`]
//! (mean/stddev/min/max/n) per metric of interest, computed over the
//! *successful* runs, with the failure count reported alongside.
//! Summaries are deterministic: samples are folded in result order.

use crate::engine::{SimError, SimResult};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Five-number summary of one metric over the successful runs of a
/// batch. `stddev` is the sample standard deviation (`n - 1`
/// denominator), `0.0` for fewer than two samples; all fields are
/// `0.0` for an empty sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Number of samples folded.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl MetricSummary {
    /// Summarize a sample slice. Internally folds through
    /// [`MetricAccumulator`] (Welford's single-pass recurrence), so
    /// large-mean/small-variance replicate sets — exactly what jitter
    /// sweeps produce, means in the tens of milliseconds with
    /// microsecond spreads — keep full precision, unlike the textbook
    /// `E[x²] - E[x]²` form whose subtraction cancels catastrophically
    /// there.
    pub fn from_samples(samples: &[f64]) -> MetricSummary {
        let mut acc = MetricAccumulator::default();
        for &s in samples {
            acc.push(s);
        }
        acc.finish()
    }

    /// Half-width of the `mean ± stddev/√n` band (standard error).
    pub fn stderr(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.stddev / (self.n as f64).sqrt()
        }
    }
}

/// Streaming Welford accumulator behind [`MetricSummary`]: one pass,
/// no sample buffer, numerically stable for any mean/variance ratio
/// (the running `m2` accumulates *centered* squares, so no
/// large-magnitude subtraction ever happens).
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricAccumulator {
    n: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl MetricAccumulator {
    /// Fold in one sample.
    pub fn push(&mut self, sample: f64) {
        if self.n == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.n += 1;
        let delta = sample - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (sample - self.mean);
    }

    /// The summary of everything pushed so far.
    pub fn finish(&self) -> MetricSummary {
        if self.n == 0 {
            return MetricSummary::default();
        }
        let stddev = if self.n < 2 { 0.0 } else { (self.m2 / (self.n - 1) as f64).sqrt() };
        MetricSummary { n: self.n, mean: self.mean, stddev, min: self.min, max: self.max }
    }
}

/// Aggregated metrics of one batch (or one replicate range of a
/// batch): summaries over the successful runs plus the failure count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunAggregate {
    /// Total results folded (successes + failures).
    pub runs: usize,
    /// Results that were `Err` (excluded from every summary).
    pub failures: usize,
    /// Finish time, µs.
    pub finish_us: MetricSummary,
    /// Transmissions started by the algorithm.
    pub transmissions: MetricSummary,
    /// Edge-contention events.
    pub edge_contention_events: MetricSummary,
    /// Edge-contention wait, µs.
    pub edge_contention_wait_us: MetricSummary,
    /// NIC serialization events.
    pub nic_serialization_events: MetricSummary,
    /// NIC serialization wait, µs.
    pub nic_serialization_wait_us: MetricSummary,
    /// FORCED messages dropped.
    pub forced_drops: MetricSummary,
    /// Background-traffic transmissions (conditioned runs).
    pub background_transmissions: MetricSummary,
    /// Scheduler queue pressure: peak simultaneously-pending events
    /// (see [`crate::sched`]); sweeps report it alongside finish times
    /// so queue load is visible per cell.
    pub sched_peak_pending: MetricSummary,
    /// Sharded-driver phases that ran windowed (see [`crate::shard`]);
    /// all-zero for sequential (`shards: 1`) or ineligible runs.
    pub shard_windows: MetricSummary,
    /// Sharded-driver phases forced to run globally serialized by
    /// cross-shard traffic (window-barrier stalls).
    pub shard_barrier_stalls: MetricSummary,
    /// Cross-shard sends seen in those globally serialized phases.
    pub shard_cross_events: MetricSummary,
    /// Flow-control retransmissions (see [`crate::traffic`]); all-zero
    /// without a link policy.
    pub retransmissions: MetricSummary,
    /// Transmissions dropped/refused by the link policy.
    pub flow_drops: MetricSummary,
    /// Trace events evicted from the bounded capture ring (see
    /// [`crate::trace`]); all-zero for untraced cells, and a nonzero
    /// mean flags sweeps whose trace capacity is too small for the
    /// workload.
    pub trace_events_dropped: MetricSummary,
    /// Host-side time each run spent obtaining its compiled program
    /// set, µs (see [`crate::stats::SimStats::compile_ns`]): near-zero
    /// means on cache hits, one cold spike per distinct set otherwise.
    pub compile_us: MetricSummary,
    /// Runs served by the process-wide compile cache (the mean is the
    /// hit *rate* of the batch).
    pub compile_shared_hits: MetricSummary,
    /// Runs that actually compiled. `mean * n` = distinct compilations
    /// of the batch; a sweep over one shared program set totals exactly
    /// 1 regardless of worker count.
    pub compile_misses: MetricSummary,
    /// Per-run worst job slowdown (`max_j makespan_j / min_k
    /// makespan_k`; see [`crate::stats::SimStats::job_slowdowns`]),
    /// folded over multi-tenant runs only — single-tenant runs carry no
    /// job stats and are excluded from the sample.
    pub job_slowdown_max: MetricSummary,
    /// Per-run best job slowdown (`1.0` unless every job's makespan is
    /// zero); multi-tenant runs only.
    pub job_slowdown_min: MetricSummary,
    /// Jain fairness index over per-job throughput (see
    /// [`crate::stats::SimStats::jain_fairness`]); multi-tenant runs
    /// only.
    pub jain_fairness: MetricSummary,
}

/// Fold a slice of batch results (as returned by
/// [`crate::batch::SimBatch::run`]) into per-metric summaries.
pub fn aggregate(results: &[Result<SimResult, SimError>]) -> RunAggregate {
    let ok: Vec<&SimResult> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let col = |f: &dyn Fn(&SimResult) -> f64| -> MetricSummary {
        let mut acc = MetricAccumulator::default();
        for r in &ok {
            acc.push(f(r));
        }
        acc.finish()
    };
    // Job-level metrics sample only the multi-tenant runs: a `None`
    // from the projection keeps single-tenant runs out of the fold
    // instead of polluting the fairness summaries with trivial 1.0s.
    let job_col = |f: &dyn Fn(&SimResult) -> Option<f64>| -> MetricSummary {
        let mut acc = MetricAccumulator::default();
        for r in &ok {
            if let Some(x) = f(r) {
                acc.push(x);
            }
        }
        acc.finish()
    };
    RunAggregate {
        runs: results.len(),
        failures: results.len() - ok.len(),
        finish_us: col(&|r| r.finish_time.as_us()),
        transmissions: col(&|r| r.stats.transmissions as f64),
        edge_contention_events: col(&|r| r.stats.edge_contention_events as f64),
        edge_contention_wait_us: col(&|r| r.stats.edge_contention_wait_ns as f64 / 1000.0),
        nic_serialization_events: col(&|r| r.stats.nic_serialization_events as f64),
        nic_serialization_wait_us: col(&|r| r.stats.nic_serialization_wait_ns as f64 / 1000.0),
        forced_drops: col(&|r| r.stats.forced_drops as f64),
        background_transmissions: col(&|r| r.stats.background_transmissions as f64),
        sched_peak_pending: col(&|r| r.stats.sched_peak_pending as f64),
        shard_windows: col(&|r| r.stats.shard_windows as f64),
        shard_barrier_stalls: col(&|r| r.stats.shard_barrier_stalls as f64),
        shard_cross_events: col(&|r| r.stats.shard_cross_events as f64),
        retransmissions: col(&|r| r.stats.retransmissions as f64),
        flow_drops: col(&|r| r.stats.flow_drops as f64),
        trace_events_dropped: col(&|r| r.stats.trace_events_dropped as f64),
        compile_us: col(&|r| r.stats.compile_ns as f64 / 1000.0),
        compile_shared_hits: col(&|r| r.stats.compile_shared_hits as f64),
        compile_misses: col(&|r| r.stats.compile_misses as f64),
        job_slowdown_max: job_col(&|r| r.stats.job_slowdowns().into_iter().reduce(f64::max)),
        job_slowdown_min: job_col(&|r| r.stats.job_slowdowns().into_iter().reduce(f64::min)),
        jain_fairness: job_col(&|r| {
            if r.stats.jobs.is_empty() {
                None
            } else {
                Some(r.stats.jain_fairness())
            }
        }),
    }
}

/// [`aggregate`] over one result-index range, as handed back by the
/// sweep builders ([`crate::batch::SimBatch::seed_sweep`] and
/// friends).
pub fn aggregate_range(
    results: &[Result<SimResult, SimError>],
    range: Range<usize>,
) -> RunAggregate {
    aggregate(&results[range])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimStats;
    use crate::time::SimTime;

    /// Shard telemetry flows through [`aggregate`] like any other
    /// metric: summarized over the successful replicates only, in
    /// result order.
    #[test]
    fn aggregate_summarizes_shard_telemetry() {
        let mk = |windows: u64, stalls: u64, cross: u64| {
            Ok(SimResult {
                finish_time: SimTime::from_us(1_000.0),
                node_finish: Vec::new(),
                memories: Vec::new(),
                trace: Vec::new(),
                stats: SimStats {
                    shard_windows: windows,
                    shard_barrier_stalls: stalls,
                    shard_cross_events: cross,
                    ..SimStats::default()
                },
            })
        };
        let failed = Err(SimError::Deadlock { stuck: Vec::new(), forced_drops: 0 });
        let results = vec![mk(2, 1, 64), mk(4, 3, 192), failed];
        let agg = aggregate(&results);
        assert_eq!((agg.runs, agg.failures), (3, 1));
        assert_eq!(agg.shard_windows.n, 2);
        assert_eq!(
            (agg.shard_windows.mean, agg.shard_windows.min, agg.shard_windows.max),
            (3.0, 2.0, 4.0)
        );
        assert_eq!(agg.shard_barrier_stalls.mean, 2.0);
        assert_eq!((agg.shard_cross_events.min, agg.shard_cross_events.max), (64.0, 192.0));
    }

    /// Compile telemetry folds like any other column: a batch of one
    /// miss + cached reruns shows exactly one compilation and the hit
    /// rate of the rest.
    #[test]
    fn aggregate_summarizes_compile_telemetry() {
        let mk = |ns: u64, shared: u64, miss: u64| {
            Ok(SimResult {
                finish_time: SimTime::from_us(1_000.0),
                node_finish: Vec::new(),
                memories: Vec::new(),
                trace: Vec::new(),
                stats: SimStats {
                    compile_ns: ns,
                    compile_shared_hits: shared,
                    compile_misses: miss,
                    ..SimStats::default()
                },
            })
        };
        // One cold compile, three cache hits.
        let results = vec![mk(80_000, 0, 1), mk(2_000, 1, 0), mk(500, 1, 0), mk(500, 1, 0)];
        let agg = aggregate(&results);
        assert_eq!(agg.compile_us.n, 4);
        assert_eq!((agg.compile_us.min, agg.compile_us.max), (0.5, 80.0));
        assert_eq!(agg.compile_misses.mean * agg.compile_misses.n as f64, 1.0);
        assert_eq!(agg.compile_shared_hits.mean, 0.75);
    }

    /// Fairness summaries sample only the multi-tenant runs: the
    /// single-tenant replicate contributes nothing to them while still
    /// counting toward the plain metrics.
    #[test]
    fn aggregate_summarizes_job_fairness_over_tenant_runs_only() {
        use crate::stats::JobStats;
        let job = |job, finish_ns, bytes| JobStats {
            job,
            finish_ns,
            bytes_moved: bytes,
            ..JobStats::default()
        };
        let mk = |jobs: Vec<JobStats>, retransmissions: u64| {
            Ok(SimResult {
                finish_time: SimTime::from_us(500.0),
                node_finish: Vec::new(),
                memories: Vec::new(),
                trace: Vec::new(),
                stats: SimStats { jobs, retransmissions, ..SimStats::default() },
            })
        };
        let results = vec![
            mk(Vec::new(), 0),                                       // single-tenant
            mk(vec![job(0, 1_000, 4_000), job(1, 2_000, 4_000)], 3), // 2x spread
            mk(vec![job(0, 1_000, 4_000), job(1, 4_000, 4_000)], 9), // 4x spread
        ];
        let agg = aggregate(&results);
        assert_eq!(agg.finish_us.n, 3, "plain metrics fold every run");
        assert_eq!(agg.job_slowdown_max.n, 2, "fairness folds tenant runs only");
        assert_eq!((agg.job_slowdown_max.min, agg.job_slowdown_max.max), (2.0, 4.0));
        assert_eq!(agg.job_slowdown_min.mean, 1.0);
        assert_eq!(agg.jain_fairness.n, 2);
        assert!(agg.jain_fairness.max < 1.0, "unequal service is unfair");
        assert_eq!((agg.retransmissions.mean, agg.retransmissions.n), (4.0, 3));
    }

    #[test]
    fn summary_of_known_samples() {
        let s = MetricSummary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample stddev of this classic set: sqrt(32/7).
        assert!((s.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.stderr() - s.stddev / 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_summaries() {
        assert_eq!(MetricSummary::from_samples(&[]), MetricSummary::default());
        let one = MetricSummary::from_samples(&[3.5]);
        assert_eq!((one.n, one.mean, one.stddev, one.min, one.max), (1, 3.5, 0.0, 3.5, 3.5));
    }

    /// Regression: large-mean/small-variance replicates — a jitter
    /// sweep's finish times in nanoseconds, means around 10^10 with
    /// single-digit spreads. The naive `E[x²] - E[x]²` form loses all
    /// significant digits there (`10^20 - 10^20`); Welford keeps the
    /// exact answer.
    #[test]
    fn welford_survives_large_mean_small_variance() {
        let base = 1.0e10;
        let samples: Vec<f64> = [0.0, 1.0, 2.0, 3.0, 4.0].iter().map(|o| base + o).collect();
        let s = MetricSummary::from_samples(&samples);
        // Exact values: mean = base + 2, sample variance = 2.5.
        assert_eq!(s.mean, base + 2.0);
        let expect = 2.5f64.sqrt();
        assert!(
            (s.stddev - expect).abs() < 1e-9,
            "stddev {} should be {expect} (naive form gives 0 or NaN here)",
            s.stddev
        );
        // Demonstrate the failure mode this pins against: the naive
        // two-accumulator form collapses to zero variance.
        let sum: f64 = samples.iter().sum();
        let sum_sq: f64 = samples.iter().map(|x| x * x).sum();
        let n = samples.len() as f64;
        let naive_var = (sum_sq - sum * sum / n) / (n - 1.0);
        assert!(
            naive_var <= 0.0 || (naive_var.sqrt() - expect).abs() > 0.3,
            "if the naive form ever becomes accurate here, drop this guard: {naive_var}"
        );

        // And the streaming accumulator matches the slice fold.
        let mut acc = MetricAccumulator::default();
        for &x in &samples {
            acc.push(x);
        }
        assert_eq!(acc.finish(), s);
    }
}
