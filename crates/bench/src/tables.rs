//! Regeneration of the paper's tables and in-text numeric claims.

use mce_core::schedule::multiphase_schedule;
use mce_hypercube::contention::{analyze, analyze_xor_step};
use mce_hypercube::routing::ecube_path;
use mce_hypercube::NodeId;
use mce_model::{
    crossover_block_size, multiphase_time, optimal_cs_time, partial_exchange_time,
    standard_exchange_time, MachineParams,
};
use mce_partitions::{count, partitions};
use mce_simnet::{Op, Program, SimArena, SimConfig, Tag};
use serde::{Deserialize, Serialize};

/// E3: the Section 6 partition-count table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionTableRow {
    /// Cube dimension.
    pub d: u32,
    /// `p(d)` from the pentagonal recurrence.
    pub p_d: u64,
    /// `p(d)` by explicit enumeration (consistency check).
    pub enumerated: u64,
    /// Value printed in the paper (None where the paper is silent).
    pub paper: Option<u64>,
}

/// Regenerate the Section 6 table plus surrounding values.
pub fn partition_table() -> Vec<PartitionTableRow> {
    let paper = |d: u32| match d {
        5 => Some(7u64),
        7 => Some(15),
        10 => Some(42),
        15 => Some(176),
        20 => Some(627),
        _ => None,
    };
    (1..=20u32)
        .map(|d| PartitionTableRow {
            d,
            p_d: count(d),
            enumerated: partitions(d).len() as u64,
            paper: paper(d),
        })
        .collect()
}

/// E1: the Section 4.3 hypothetical-machine analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrossoverReport {
    /// Computed crossover block size for d = 6 (paper: "less than 30").
    pub crossover_bytes_d6: f64,
    /// `t_SE(24, 6)` (paper: 15144 µs).
    pub t_standard_24: f64,
    /// `t_OCS(24, 6)` on the hypothetical machine.
    pub t_optimal_24: f64,
    /// Crossovers for other dimensions, `(d, bytes)`.
    pub sweep: Vec<(u32, f64)>,
}

/// Regenerate E1.
pub fn crossover_report() -> CrossoverReport {
    let hypo = MachineParams::hypothetical();
    CrossoverReport {
        crossover_bytes_d6: crossover_block_size(&hypo, 6),
        t_standard_24: standard_exchange_time(&hypo, 24.0, 6),
        t_optimal_24: optimal_cs_time(&hypo, 24.0, 6),
        sweep: (2..=10u32).map(|d| (d, crossover_block_size(&hypo, d))).collect(),
    }
}

/// E2: the Section 5.1 worked example, reproducing both the paper's
/// printed numbers and the formula-consistent ones (erratum).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Example51Report {
    /// Standard Exchange at m = 24, d = 6 (paper: 15144 µs).
    pub standard_us: f64,
    /// Phase {2} with 384-byte effective blocks (paper: 1832 µs).
    pub phase1_us: f64,
    /// Phase {4} with the formula's 96-byte blocks (5080 µs).
    pub phase2_formula_us: f64,
    /// Phase {4} with the paper's printed 160-byte blocks (6040 µs).
    pub phase2_paper_us: f64,
    /// Shuffle overhead for both phases (paper: 3072 µs).
    pub shuffle_us: f64,
    /// Two-phase total by the formula (9984 µs).
    pub total_formula_us: f64,
    /// Two-phase total as printed in the paper (10944 µs).
    pub total_paper_us: f64,
    /// The complete multiphase expression for {2,4} at m = 24.
    pub multiphase_total_us: f64,
}

/// Regenerate E2.
pub fn example51_report() -> Example51Report {
    let hypo = MachineParams::hypothetical();
    let phase1 = optimal_cs_time(&hypo, 384.0, 2);
    let phase2_formula = optimal_cs_time(&hypo, 96.0, 4);
    let phase2_paper = optimal_cs_time(&hypo, 160.0, 4);
    let shuffle = 2.0 * hypo.shuffle_time(24.0 * 64.0);
    Example51Report {
        standard_us: standard_exchange_time(&hypo, 24.0, 6),
        phase1_us: phase1,
        phase2_formula_us: phase2_formula,
        phase2_paper_us: phase2_paper,
        shuffle_us: shuffle,
        total_formula_us: phase1 + phase2_formula + shuffle,
        total_paper_us: phase1 + phase2_paper + shuffle,
        multiphase_total_us: multiphase_time(&hypo, 24.0, 6, &[2, 4]),
    }
}

/// E7: verify the simulator realizes the measured iPSC-860
/// message-time law `λ + τm + δh` (and `λ₀` for zero-byte messages).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamsReport {
    /// `(bytes, hops, simulated_us, law_us)` samples; all must agree.
    pub samples: Vec<(usize, u32, f64, f64)>,
    /// Worst relative deviation over the samples.
    pub max_rel_err: f64,
}

/// Regenerate E7 by timing one-way messages on the simulator.
pub fn params_report() -> ParamsReport {
    let params = MachineParams::ipsc860();
    let d = 5u32;
    let mut samples = Vec::new();
    let mut max_rel_err = 0.0f64;
    for hops in 1..=d {
        let dst = ((1u64 << hops) - 1) as u32; // distance = hops from node 0
        for bytes in [0usize, 8, 40, 100, 160, 400] {
            let n = 1usize << d;
            let mut programs = vec![Program::empty(); n];
            programs[0] = Program { ops: vec![Op::send(NodeId(dst), 0..bytes, Tag::data(0, 1))] };
            programs[dst as usize] = Program {
                ops: vec![
                    Op::post_recv(NodeId(0), Tag::data(0, 1), 0..bytes),
                    Op::wait_recv(NodeId(0), Tag::data(0, 1)),
                ],
            };
            let mems = vec![vec![7u8; bytes.max(1)]; n];
            let t = SimArena::new()
                .run(&SimConfig::ipsc860(d), &programs, mems)
                .expect("params run failed")
                .finish_time
                .as_us();
            let lambda = if bytes == 0 { params.lambda_zero } else { params.lambda };
            let law = lambda + params.tau * bytes as f64 + params.delta * hops as f64;
            let err = (t - law).abs() / law;
            max_rel_err = max_rel_err.max(err);
            samples.push((bytes, hops, t, law));
        }
    }
    ParamsReport { samples, max_rel_err }
}

/// E8: the Section 2 contention examples on the 32-node cube.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContentionReportOut {
    /// Paths (source, destination, length).
    pub paths: Vec<(u32, u32, usize)>,
    /// Whether 0->31 and 2->23 share an edge (paper: yes, edge 3-7).
    pub edge_conflict_0_31_vs_2_23: bool,
    /// The shared edge endpoints.
    pub shared_edge: Option<(u32, u32)>,
    /// Whether 0->31 and 14->11 share a node (paper: node 15).
    pub node_shared_0_31_vs_14_11: bool,
}

/// Regenerate E8.
pub fn contention_report() -> ContentionReportOut {
    let p0 = ecube_path(NodeId(0), NodeId(31));
    let p1 = ecube_path(NodeId(2), NodeId(23));
    let p2 = ecube_path(NodeId(14), NodeId(11));
    let report = analyze(&[p0.clone(), p1.clone(), p2.clone()]);
    let shared_edge =
        report.edge_conflicts.first().map(|c| (c.link.undirected().0 .0, c.link.undirected().1 .0));
    ContentionReportOut {
        paths: vec![(0, 31, p0.len()), (2, 23, p1.len()), (14, 11, p2.len())],
        edge_conflict_0_31_vs_2_23: !report.edge_conflicts.is_empty(),
        shared_edge,
        node_shared_0_31_vs_14_11: p0.nodes().contains(&NodeId(15))
            && p2.nodes().contains(&NodeId(15)),
    }
}

/// E9: audit every transmission step of every partition of a
/// dimension for edge contention.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleAudit {
    /// Cube dimension audited.
    pub dimension: u32,
    /// Partitions audited.
    pub partitions: u64,
    /// Total steps audited.
    pub steps: u64,
    /// Steps with any edge conflict (must be 0).
    pub conflicted_steps: u64,
}

/// Regenerate E9.
pub fn schedule_audit(d: u32) -> ScheduleAudit {
    let mut steps = 0u64;
    let mut conflicted = 0u64;
    let parts = partitions(d);
    for part in &parts {
        for phase in multiphase_schedule(d, part.parts()) {
            for &mask in &phase.steps {
                steps += 1;
                if !analyze_xor_step(d, mask).is_edge_contention_free() {
                    conflicted += 1;
                }
            }
        }
    }
    ScheduleAudit {
        dimension: d,
        partitions: parts.len() as u64,
        steps,
        conflicted_steps: conflicted,
    }
}

/// Per-phase timing check of eq. (3): simulate a single partial
/// exchange phase and compare with `partial_exchange_time`.
pub fn phase_times_vs_eq3(d: u32, dims: &[u32], m: usize) -> Vec<(u32, f64, f64)> {
    use mce_core::builder::build_multiphase_programs;
    use mce_core::verify::stamped_memories;
    let programs = build_multiphase_programs(d, dims, m);
    let result = SimArena::new()
        .run(&SimConfig::ipsc860(d), &programs, stamped_memories(d, m))
        .expect("phase timing run failed");
    let params = MachineParams::ipsc860();
    let mut out = Vec::new();
    let mut prev = 0.0f64;
    for (i, &di) in dims.iter().enumerate() {
        let end = result.stats.marks[&(i as u32 + 1)].as_us();
        let simulated = end - prev;
        prev = end;
        out.push((di, simulated, partial_exchange_time(&params, m as f64, di, d)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_table_matches_paper() {
        let table = partition_table();
        for row in &table {
            assert_eq!(row.p_d, row.enumerated, "d={}", row.d);
            if let Some(p) = row.paper {
                assert_eq!(row.p_d, p, "d={}", row.d);
            }
        }
    }

    #[test]
    fn crossover_matches_section_4_3() {
        let r = crossover_report();
        assert!(r.crossover_bytes_d6 > 29.0 && r.crossover_bytes_d6 < 30.0);
        assert_eq!(r.t_standard_24.round() as u64, 15144);
    }

    #[test]
    fn example51_numbers() {
        let r = example51_report();
        assert_eq!(r.phase1_us.round() as u64, 1832);
        assert_eq!(r.phase2_formula_us.round() as u64, 5080);
        assert_eq!(r.phase2_paper_us.round() as u64, 6040);
        assert_eq!(r.shuffle_us.round() as u64, 3072);
        assert_eq!(r.total_formula_us.round() as u64, 9984);
        assert_eq!(r.total_paper_us.round() as u64, 10944);
        assert!((r.multiphase_total_us - r.total_formula_us).abs() < 1e-9);
    }

    #[test]
    fn simulator_obeys_message_law() {
        let r = params_report();
        assert!(r.max_rel_err < 1e-9, "{}", r.max_rel_err);
    }

    #[test]
    fn contention_examples_match_paper() {
        let r = contention_report();
        assert_eq!(r.paths, vec![(0, 31, 5), (2, 23, 3), (14, 11, 2)]);
        assert!(r.edge_conflict_0_31_vs_2_23);
        assert_eq!(r.shared_edge, Some((3, 7)));
        assert!(r.node_shared_0_31_vs_14_11);
    }

    #[test]
    fn audits_are_clean_for_figure_dimensions() {
        for d in [5u32, 6] {
            let audit = schedule_audit(d);
            assert_eq!(audit.conflicted_steps, 0, "d={d}");
            assert!(audit.steps > 0);
        }
    }

    #[test]
    fn per_phase_times_match_eq3() {
        for (dims, m) in [(vec![2u32, 3], 32usize), (vec![3, 3], 24), (vec![2, 2, 2], 16)] {
            let d: u32 = dims.iter().sum();
            for (di, simulated, predicted) in phase_times_vs_eq3(d, &dims, m) {
                let err = (simulated - predicted).abs() / predicted;
                assert!(err < 0.01, "phase {di} of {dims:?}: sim {simulated} eq3 {predicted}");
            }
        }
    }
}
