//! Regeneration of Figures 4, 5 and 6: measured (simulated) and
//! predicted complete-exchange times vs block size for hypercube
//! dimensions 5, 6 and 7 on iPSC-860 parameters.

use mce_core::builder::build_multiphase_programs;
use mce_core::verify::{stamped_memories, verify_complete_exchange};
use mce_model::{multiphase_time, MachineParams};
use mce_partitions::Partition;
use mce_simnet::batch::{run_cells, Memories, RunSpec};
use mce_simnet::SimConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One figure sample: a (partition, block size) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigurePoint {
    /// Partition in paper notation, e.g. `{3,4}`.
    pub partition: String,
    /// Block size, bytes.
    pub block_size: usize,
    /// Analytic prediction (dashed lines in the paper), µs.
    pub predicted_us: f64,
    /// Simulated measurement (solid lines), µs.
    pub simulated_us: f64,
    /// Data verification outcome of the simulated run.
    pub verified: bool,
}

/// A regenerated figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// Paper figure number (4, 5 or 6).
    pub number: u32,
    /// Cube dimension (5, 6 or 7).
    pub dimension: u32,
    /// Partitions plotted: the hull of optimality plus Standard
    /// Exchange (shown "only for comparison", as in the paper).
    pub partitions: Vec<String>,
    /// All samples.
    pub points: Vec<FigurePoint>,
}

/// Which partitions a figure plots: the hull partitions that win at
/// some whole block size in `0..=m_max`, plus Standard Exchange (so
/// `{d}` only once `m_max` reaches its takeover). The conformance
/// grids' cast under the name the figure studies know it by.
pub use mce_simnet::conformance::candidate_partitions as figure_partitions;

/// Regenerate one figure. `jitter` adds deterministic measurement
/// noise so the "measured" curves sit near but not on the predictions,
/// as on the real machine. Block sizes sweep `step..=m_max` in `step`
/// increments (the paper's x-axis starts at 0; simulation needs at
/// least 1 byte, so the smallest simulated size is `step`).
pub fn regenerate_figure(number: u32, d: u32, m_max: usize, step: usize, jitter: f64) -> Figure {
    let params = MachineParams::ipsc860();
    let parts = figure_partitions(&params, d, m_max as f64);
    let sizes: Vec<usize> = (1..=m_max / step).map(|k| k * step).collect();
    let cells: Vec<(Partition, usize)> =
        parts.iter().flat_map(|p| sizes.iter().map(move |&m| (p.clone(), m))).collect();
    // Each (partition, block-size) cell is an independent simulation:
    // fan them out through the batch subsystem, building each cell's
    // programs and memories on the worker thread and reusing one
    // simulation arena per worker.
    let points: Vec<FigurePoint> = run_cells(
        cells,
        |(part, m)| {
            let cfg = if jitter > 0.0 {
                SimConfig::ipsc860(d).with_jitter(jitter, 0x1991 + *m as u64)
            } else {
                SimConfig::ipsc860(d)
            };
            RunSpec {
                cfg,
                programs: Arc::new(build_multiphase_programs(d, part.parts(), *m)),
                memories: Memories::Owned(stamped_memories(d, *m)),
                trace: None,
            }
        },
        |(part, m), result| {
            let result = result.expect("figure simulation failed");
            let verified = verify_complete_exchange(d, m, &result.memories).is_empty();
            FigurePoint {
                partition: part.to_string(),
                block_size: m,
                predicted_us: multiphase_time(&params, m as f64, d, part.parts()),
                simulated_us: result.finish_time.as_us(),
                verified,
            }
        },
    );
    Figure {
        number,
        dimension: d,
        partitions: parts.iter().map(|p| p.to_string()).collect(),
        points,
    }
}

/// Expectations from the paper's figure captions and Section 8 text,
/// used to report agreement.
pub struct PaperExpectation {
    /// Cube dimension.
    pub dimension: u32,
    /// Hull partitions as printed in the paper.
    pub hull: &'static [&'static str],
    /// Approximate block size (bytes) beyond which `{d}` wins.
    pub singleton_from: f64,
}

/// Paper-reported hulls for Figures 4-6 (canonical order: parts
/// non-increasing, so the paper's `{2,3}` prints as `{3,2}`).
pub fn paper_expectations(d: u32) -> PaperExpectation {
    match d {
        5 => PaperExpectation { dimension: 5, hull: &["{3,2}", "{5}"], singleton_from: 100.0 },
        6 => PaperExpectation {
            dimension: 6,
            hull: &["{2,2,2}", "{3,3}", "{6}"],
            singleton_from: 140.0,
        },
        7 => PaperExpectation {
            dimension: 7,
            hull: &["{3,2,2}", "{4,3}", "{7}"],
            singleton_from: 160.0,
        },
        _ => panic!("the paper only reports figures for d = 5, 6, 7"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hull_partitions_match_paper_for_all_three_figures() {
        let params = MachineParams::ipsc860();
        for d in 5..=7u32 {
            let expect = paper_expectations(d);
            let got: Vec<String> = mce_model::optimality_hull_affine_by(d, |m, part| {
                multiphase_time(&params, m, d, part.parts())
            })
            .iter()
            .map(|f| f.partition.to_string())
            .collect();
            assert_eq!(got, expect.hull, "d={d}");
        }
    }

    #[test]
    fn small_figure_regeneration_verifies_and_tracks_model() {
        let fig = regenerate_figure(4, 5, 128, 32, 0.0);
        assert!(fig.points.iter().all(|p| p.verified));
        for p in &fig.points {
            let err = (p.simulated_us - p.predicted_us).abs() / p.predicted_us;
            assert!(err < 0.01, "{} m={}: {err}", p.partition, p.block_size);
        }
        // Standard Exchange is included for comparison.
        assert!(fig.partitions.iter().any(|s| s == "{1,1,1,1,1}"));
    }

    #[test]
    fn jitter_moves_measurements_off_the_model() {
        let fig = regenerate_figure(4, 5, 64, 64, 0.05);
        assert!(fig
            .points
            .iter()
            .any(|p| (p.simulated_us - p.predicted_us).abs() / p.predicted_us > 0.001));
        assert!(fig.points.iter().all(|p| p.verified), "jitter must not break data movement");
    }
}
