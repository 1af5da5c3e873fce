//! `BENCHMARK.json`, embedded at build time: the one place that names
//! the workloads, the metrics, their units, directions and regression
//! bounds. The harness reads everything it prints from here, so the
//! declaration and the output cannot drift apart.

use serde::Deserialize;

const TEXT: &str = include_str!("../../BENCHMARK.json");

/// A workload declaration.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadDecl {
    /// Workload name, as `--workload` takes it.
    pub name: String,
    /// Why the workload exists.
    pub why: String,
}

/// An end-to-end metric declaration.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndDecl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric declaration (no bound).
#[derive(Debug, Clone, Deserialize)]
pub struct LayerDecl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
}

/// The whole declaration.
#[derive(Debug, Clone, Deserialize)]
pub struct Manifest {
    /// Command the acceptance driver runs.
    pub command: Vec<String>,
    /// Directories that hold the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workloads.
    pub workloads: Vec<WorkloadDecl>,
    /// Bounded metrics a user of the system would see.
    pub end_to_end: Vec<EndToEndDecl>,
    /// Unbounded metrics of single layers.
    pub per_layer: Vec<LayerDecl>,
}

/// Parse the embedded declaration.
pub fn manifest() -> Manifest {
    serde_json::from_str(TEXT).expect("BENCHMARK.json is checked by this crate's tests")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use crate::workloads::NAMES;

    #[test]
    fn declares_exactly_the_workloads_the_harness_runs() {
        let m = manifest();
        let declared: Vec<&str> = m.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(declared, NAMES);
        assert!(m.workloads.iter().all(|w| !w.why.contains('\n') && w.why.len() <= 200));
    }

    #[test]
    fn declares_exactly_the_layer_metrics_the_harness_produces() {
        let m = manifest();
        let mut declared: Vec<&str> = m.per_layer.iter().map(|l| l.name.as_str()).collect();
        let mut produced = layers::all_metrics();
        declared.sort_unstable();
        produced.sort_unstable();
        assert_eq!(declared, produced);
        assert!(m.per_layer.iter().all(|l| l.better == "lower" || l.better == "higher"));
    }

    #[test]
    fn end_to_end_metrics_are_the_ones_a_run_measures() {
        let m = manifest();
        let mut declared: Vec<&str> = m.end_to_end.iter().map(|e| e.name.as_str()).collect();
        declared.sort_unstable();
        let mut measured = crate::harness::END_TO_END.to_vec();
        measured.sort_unstable();
        assert_eq!(declared, measured);
        for e in &m.end_to_end {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{e:?}");
            assert!(e.better == "lower" || e.better == "higher", "{e:?}");
        }
        let setup = m.end_to_end.iter().find(|e| e.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    }

    #[test]
    fn command_and_paths_stay_inside_the_benchmark() {
        let m = manifest();
        assert_eq!(m.paths, ["benchmark"]);
        assert!((1..=60).contains(&m.run_seconds));
        assert!(m.command.iter().all(|a| !a.starts_with('/') && !a.contains("..")));
    }
}
