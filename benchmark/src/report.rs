//! What a run writes down: the one-line result the acceptance driver
//! reads, and the machine-written ledger files under `results/`.

use crate::harness::Outcome;
use crate::manifest::Manifest;
use crate::span::Span;
use crate::stats::Timing;
use crate::{layers, sys};
use serde::ser::{Serialize, Serializer};
use serde::value::Value;
use serde::Deserialize;

/// One metric value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, Deserialize)]
pub struct MetricRow {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
}

/// One per-sample series with its summary.
#[derive(Debug, Clone, PartialEq, serde::Serialize, Deserialize)]
pub struct SampleRow {
    /// Series name (`wall_s`, `cpu_s`, `setup_s`, ...).
    pub name: String,
    /// Median, tail percentile and count.
    pub timing: Timing,
    /// Every sample, in measurement order.
    pub values: Vec<f64>,
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `full` or `quick`.
    pub scale: String,
    /// Whether this was a traced run (per-layer metrics).
    pub traced: bool,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `failed / attempted`.
    pub fail_frac: f64,
    /// Digest every pass agreed on, hex. A check, not a metric: equal
    /// seeds must give equal digests, on any commit that claims to
    /// leave simulated behaviour alone.
    pub sim_digest: String,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// The declared metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<MetricRow>,
    /// Workload-specific results (`model_err_max`, `miss_p50_us`, ...).
    pub extras: Vec<MetricRow>,
    /// Per-pass samples behind the medians.
    pub samples: Vec<SampleRow>,
}

/// A set of runs of one commit: what `all` writes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, Deserialize)]
pub struct Ledger {
    /// Commit measured (`-dirty` if the tree had local changes).
    pub commit: String,
    /// `available_parallelism` once the harness has pinned itself —
    /// the library's fan-outs use that many workers (1 unless the
    /// kernel refused the pin).
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// Seed of the first run of each workload; run `i` uses `seed + i`.
    pub seed: u64,
    /// Runs per workload.
    pub runs_per_workload: usize,
    /// Every run, in execution order (workloads interleaved).
    pub runs: Vec<RunRecord>,
}

/// A traced run with its spans: what `--trace 1 --json` writes.
#[derive(Debug, serde::Serialize)]
pub struct TraceFile {
    /// Commit measured.
    pub commit: String,
    /// `available_parallelism`.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// The run.
    pub run: RunRecord,
    /// Spans of the last traced pass: name, start, end, parent, pass.
    pub spans: Vec<Span>,
}

/// The metrics `BENCHMARK.json` declares for this kind of run, with
/// the outcome's values. A per-layer metric the workload bypasses reads
/// 0; a declared metric the harness does not know is a bug.
pub fn declared_metrics(manifest: &Manifest, outcome: &Outcome, traced: bool) -> Vec<MetricRow> {
    let row = |name: &str, unit: &str, value: f64| {
        assert!(value.is_finite(), "{name} = {value}");
        MetricRow { name: name.to_string(), unit: unit.to_string(), value }
    };
    if traced {
        let known = layers::all_metrics();
        manifest
            .per_layer
            .iter()
            .map(|m| {
                assert!(known.contains(&m.name.as_str()), "undeclared layer metric {}", m.name);
                row(&m.name, &m.unit, outcome.metrics.get(&m.name).copied().unwrap_or(0.0))
            })
            .collect()
    } else {
        manifest
            .end_to_end
            .iter()
            .map(|m| row(&m.name, &m.unit, outcome.metrics[&m.name]))
            .collect()
    }
}

/// Assemble the record of one run.
pub fn record(
    manifest: &Manifest,
    outcome: &Outcome,
    workload: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
    traced: bool,
) -> RunRecord {
    RunRecord {
        workload: workload.to_string(),
        seed,
        seconds,
        scale: if quick { "quick" } else { "full" }.to_string(),
        traced,
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        fail_frac: outcome.failed as f64 / outcome.attempted.max(1) as f64,
        sim_digest: format!("{:016x}", outcome.digest),
        failures: outcome.failures.clone(),
        metrics: declared_metrics(manifest, outcome, traced),
        extras: outcome
            .extras
            .iter()
            .map(|(name, unit, value)| MetricRow {
                name: name.to_string(),
                unit: unit.to_string(),
                value: *value,
            })
            .collect(),
        samples: outcome
            .samples
            .iter()
            .map(|(name, values)| SampleRow {
                name: name.to_string(),
                timing: Timing::of(values),
                values: values.clone(),
            })
            .collect(),
    }
}

/// Wrap a traced run's record with the facts that identify it.
pub fn trace_file(run: RunRecord, spans: Vec<Span>) -> TraceFile {
    TraceFile {
        commit: sys::commit(),
        nproc: sys::nproc(),
        rustc: sys::rustc_version(),
        run,
        spans,
    }
}

struct Raw(Value);

impl Serialize for Raw {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(self.0.clone())
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(run: &RunRecord) -> String {
    let metrics = run
        .metrics
        .iter()
        .map(|m| {
            let fields = vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ];
            (m.name.clone(), Value::Object(fields))
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(run.correct)),
        ("attempted".to_string(), Value::UInt(run.attempted.max(1))),
        ("failed".to_string(), Value::UInt(run.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&Raw(line)).expect("a value tree always prints")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> RunRecord {
        RunRecord {
            workload: "w".into(),
            seed: 1,
            seconds: 2.0,
            scale: "full".into(),
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            fail_frac: 0.0,
            sim_digest: "00000000000000ff".into(),
            failures: Vec::new(),
            metrics: vec![
                MetricRow { name: "wall_s".into(), unit: "s".into(), value: 1.2034 },
                MetricRow { name: "work_per_s".into(), unit: "1/s".into(), value: 4096.0 },
            ],
            extras: Vec::new(),
            samples: vec![SampleRow {
                name: "wall_s".into(),
                timing: Timing::of(&[1.0, 1.2034, 2.0]),
                values: vec![1.0, 1.2034, 2.0],
            }],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        assert_eq!(
            result_line(&sample_run()),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"wall_s\":{\"value\":1.2034,\"unit\":\"s\"},\
             \"work_per_s\":{\"value\":4096.0,\"unit\":\"1/s\"}}}"
        );
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let ledger = Ledger {
            commit: "abc".into(),
            nproc: 2,
            rustc: "rustc 1.0".into(),
            seed: 1991,
            runs_per_workload: 1,
            runs: vec![sample_run()],
        };
        let text = serde_json::to_string_pretty(&ledger).unwrap();
        let back: Ledger = serde_json::from_str(&text).unwrap();
        assert_eq!(back, ledger);
    }
}
