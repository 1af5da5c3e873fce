//! Extension studies beyond the paper's evaluation: the §9 future-work
//! items, realized.
//!
//! * E11 — multiphase applied to the other collective patterns
//!   (allgather / scatter / broadcast);
//! * E12 — circuit switching vs store and forward (Seidel 1989);
//! * E13 — arbitrary-permutation round scheduling (§9's "open
//!   theoretical issue");
//! * E14 — projected Ncube-2 hulls (§9's "practical issue of
//!   interest").

use mce_core::builder::build_multiphase_programs;
use mce_core::collectives::{
    allgather_memories, broadcast_memories, build_allgather_programs, build_broadcast_programs,
    build_scatter_programs, scatter_memories, verify_allgather, verify_broadcast, verify_scatter,
};
use mce_core::perm_router::{
    bit_reversal, build_permutation_programs, build_unscheduled_permutation_programs,
    greedy_rounds, permutation_memories, round_lower_bound, verify_permutation,
};
use mce_core::verify::stamped_memories;
use mce_model::patterns::{allgather_time, best_pattern_partition, broadcast_time, scatter_time};
use mce_model::{
    best_saf_partition, multiphase_saf_time, multiphase_time, optimality_hull_affine_by,
    MachineParams,
};
use mce_simnet::batch::SimBatch;
use mce_simnet::SimConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// E11: one collective pattern at one block size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatternRow {
    /// Pattern name.
    pub pattern: String,
    /// Block size, bytes.
    pub block_size: usize,
    /// Best partition by the model.
    pub best_partition: Vec<u32>,
    /// Its predicted time, µs.
    pub predicted_us: f64,
    /// Simulated time of that plan, µs.
    pub simulated_us: f64,
    /// Time of the classical neighbour algorithm ({1,...,1}), µs
    /// (predicted).
    pub neighbor_us: f64,
    /// Time of the flat circuit-switched plan ({d}), µs (predicted).
    pub flat_us: f64,
    /// Data verified in simulation.
    pub verified: bool,
}

/// Run E11 for one dimension over several block sizes. Every
/// (size, pattern) cell is an independent run of the model's best
/// plan, so the study executes as one parallel [`SimBatch`].
pub fn patterns_study(d: u32, sizes: &[usize]) -> Vec<PatternRow> {
    let params = MachineParams::ipsc860();
    let ones = vec![1u32; d as usize];
    type CostFn = fn(&MachineParams, f64, u32, &[u32]) -> f64;
    let patterns: [(&str, CostFn); 3] = [
        ("allgather", allgather_time as CostFn),
        ("scatter", scatter_time as CostFn),
        ("broadcast", broadcast_time as CostFn),
    ];
    let mut batch = SimBatch::new(SimConfig::ipsc860(d));
    let mut cells = Vec::new();
    for &m in sizes {
        for (name, cost) in &patterns {
            let (best, predicted) = best_pattern_partition(&params, m as f64, d, cost);
            let (programs, memories) = match *name {
                "allgather" => (build_allgather_programs(d, &best, m), allgather_memories(d, m)),
                "scatter" => (build_scatter_programs(d, &best, m), scatter_memories(d, m)),
                _ => (build_broadcast_programs(d, &best, m), broadcast_memories(d, m)),
            };
            batch.push_run(Arc::new(programs), memories);
            cells.push((m, *name, *cost, best, predicted));
        }
    }
    cells
        .into_iter()
        .zip(batch.run())
        .map(|((m, name, cost, best, predicted), result)| {
            let result = result.expect("pattern run failed");
            let verified = match name {
                "allgather" => verify_allgather(d, m, &result.memories),
                "scatter" => verify_scatter(d, m, &result.memories),
                _ => verify_broadcast(d, m, &result.memories),
            };
            PatternRow {
                pattern: name.to_string(),
                block_size: m,
                best_partition: best,
                predicted_us: predicted,
                simulated_us: result.finish_time.as_us(),
                neighbor_us: cost(&params, m as f64, d, &ones),
                flat_us: cost(&params, m as f64, d, &[d]),
                verified,
            }
        })
        .collect()
}

/// E12: one switching-mode comparison cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwitchingRow {
    /// Block size, bytes.
    pub block_size: usize,
    /// Best circuit-switched partition and its simulated time, µs.
    pub circuit_best: Vec<u32>,
    /// Simulated time of the circuit best, µs.
    pub circuit_us: f64,
    /// Best store-and-forward partition (by the SAF model).
    pub saf_best: Vec<u32>,
    /// Simulated SAF time of that plan, µs.
    pub saf_us: f64,
    /// Simulated SAF time of the singleton plan {d}, µs — the
    /// distance-multiplied disaster.
    pub saf_flat_us: f64,
}

/// Run E12: simulate the complete exchange under both switching
/// modes. Three independent runs per block size (circuit best, SAF
/// best, SAF `{d}`), batched across all sizes.
pub fn switching_study(d: u32, sizes: &[usize]) -> Vec<SwitchingRow> {
    let params = MachineParams::ipsc860();
    let mut batch = SimBatch::new(SimConfig::ipsc860(d));
    let mut plans = Vec::new();
    for &m in sizes {
        let (circuit_best, _) = mce_model::best_partition(&params, m as f64, d);
        let circuit_best = circuit_best.parts().to_vec();
        let (saf_best, _) = best_saf_partition(&params, m as f64, d);
        // One stamp per size: the three runs start from the same
        // memories, so they share a template and each clones it as it
        // starts instead of all three sitting in the queue.
        let memories = Arc::new(stamped_memories(d, m));
        let mut queue = |dims: &[u32], saf: bool| {
            let cfg = if saf {
                SimConfig::ipsc860(d).with_store_and_forward()
            } else {
                SimConfig::ipsc860(d)
            };
            batch.push_with_config(
                cfg,
                Arc::new(build_multiphase_programs(d, dims, m)),
                Arc::clone(&memories),
            );
        };
        queue(&circuit_best, false);
        queue(&saf_best, true);
        queue(&[d], true);
        plans.push((m, circuit_best, saf_best));
    }
    let times: Vec<f64> = batch
        .run()
        .into_iter()
        .map(|r| r.expect("switching run failed").finish_time.as_us())
        .collect();
    plans
        .into_iter()
        .zip(times.chunks_exact(3))
        .map(|((block_size, circuit_best, saf_best), t)| SwitchingRow {
            block_size,
            circuit_best,
            circuit_us: t[0],
            saf_best,
            saf_us: t[1],
            saf_flat_us: t[2],
        })
        .collect()
}

/// E13: permutation-scheduling study for one permutation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PermutationRow {
    /// Permutation name.
    pub name: String,
    /// Rounds the greedy scheduler produced.
    pub rounds: usize,
    /// Lower bound (max directed-link load).
    pub lower_bound: usize,
    /// Scheduled run: time µs (zero contention by construction).
    pub scheduled_us: f64,
    /// Unscheduled run: time µs.
    pub unscheduled_us: f64,
    /// Unscheduled run: contention events.
    pub unscheduled_contention: u64,
}

/// Run E13 on bit reversal and a cyclic shift: four independent runs
/// (2 permutations × scheduled/unscheduled) in one batch.
pub fn permutation_study(d: u32, m: usize) -> Vec<PermutationRow> {
    let n = 1u32 << d;
    let shift: Vec<mce_hypercube::NodeId> =
        (0..n).map(|x| mce_hypercube::NodeId((x + 1) % n)).collect();
    let perms = [("bit_reversal", bit_reversal(d)), ("cyclic_shift", shift)];
    let mut batch = SimBatch::new(SimConfig::ipsc860(d));
    for (_, perm) in &perms {
        let memories = Arc::new(permutation_memories(d, perm, m));
        batch.push_run(Arc::new(build_permutation_programs(d, perm, m)), &memories);
        batch.push_run(Arc::new(build_unscheduled_permutation_programs(d, perm, m)), &memories);
    }
    let results = batch.run();
    perms
        .into_iter()
        .zip(results.chunks_exact(2))
        .map(|((name, perm), pair)| {
            let mut checked = pair.iter().map(|r| {
                let r = r.as_ref().expect("permutation run failed");
                assert!(verify_permutation(&perm, m, &r.memories));
                (r.finish_time.as_us(), r.stats.edge_contention_events)
            });
            let (scheduled_us, sched_contention) = checked.next().unwrap();
            let (unscheduled_us, unscheduled_contention) = checked.next().unwrap();
            assert_eq!(sched_contention, 0);
            PermutationRow {
                name: name.to_string(),
                rounds: greedy_rounds(&perm).len(),
                lower_bound: round_lower_bound(&perm),
                scheduled_us,
                unscheduled_us,
                unscheduled_contention,
            }
        })
        .collect()
}

/// E14: projected Ncube-2 hull faces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ncube2Row {
    /// Cube dimension.
    pub dimension: u32,
    /// Hull faces `(partition, from_bytes, to_bytes)`, tiling `[0, ∞)`;
    /// each breakpoint is the exact crossing of its two faces' model
    /// lines (`to = ∞` serializes as `null`).
    pub hull: Vec<(String, f64, f64)>,
    /// Simulated/predicted time of the best plan at 40 bytes.
    pub best_at_40_us: f64,
    /// Speedup over the better classical algorithm at 40 bytes.
    pub speedup_at_40: f64,
}

/// Run E14 with the projected Ncube-2 parameters.
pub fn ncube2_study() -> Vec<Ncube2Row> {
    let params = MachineParams::ncube2_like();
    (5..=7u32)
        .map(|d| {
            let hull = optimality_hull_affine_by(d, |m, part| {
                multiphase_time(&params, m, d, part.parts())
            })
            .into_iter()
            .map(|f| (f.partition.to_string(), f.from, f.to))
            .collect();
            let (_best, t_best) = mce_model::best_partition(&params, 40.0, d);
            let ones = vec![1u32; d as usize];
            let t_se = multiphase_time(&params, 40.0, d, &ones);
            let t_ocs = multiphase_time(&params, 40.0, d, &[d]);
            Ncube2Row {
                dimension: d,
                hull,
                best_at_40_us: t_best,
                speedup_at_40: t_se.min(t_ocs) / t_best,
            }
        })
        .collect()
}

/// Sanity check for E12 used by tests: SAF and circuit agree for the
/// all-ones partition (distance-1 transmissions only).
pub fn saf_circuit_agree_on_standard_exchange(d: u32, m: usize) -> (f64, f64) {
    let params = MachineParams::ipsc860();
    let ones = vec![1u32; d as usize];
    (multiphase_time(&params, m as f64, d, &ones), multiphase_saf_time(&params, m as f64, d, &ones))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_study_verifies_and_finds_neighbor_algorithms() {
        let rows = patterns_study(4, &[16, 128]);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.verified, "{row:?}");
            // All three patterns degenerate to the neighbour plan.
            assert_eq!(row.best_partition, vec![1, 1, 1, 1], "{}", row.pattern);
            assert!(row.flat_us > row.neighbor_us);
            let err = (row.simulated_us - row.predicted_us).abs() / row.predicted_us;
            assert!(err < 0.02, "{row:?}");
        }
    }

    #[test]
    fn switching_study_shows_saf_flat_disaster() {
        let rows = switching_study(5, &[40]);
        let row = &rows[0];
        assert!(row.saf_flat_us > 2.0 * row.saf_us, "{row:?}");
        assert!(row.circuit_us < row.saf_us, "{row:?}");
    }

    #[test]
    fn permutation_study_consistency() {
        let rows = permutation_study(5, 200);
        let br = rows.iter().find(|r| r.name == "bit_reversal").unwrap();
        assert!(br.rounds >= br.lower_bound);
        assert!(br.lower_bound >= 2);
        assert!(br.unscheduled_contention > 0);
        let shift = rows.iter().find(|r| r.name == "cyclic_shift").unwrap();
        assert!(shift.rounds >= 1);
    }

    #[test]
    fn ncube2_study_produces_hulls() {
        let rows = ncube2_study();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(!row.hull.is_empty());
            // The singleton plan ends every hull.
            assert_eq!(row.hull.last().unwrap().0, format!("{{{}}}", row.dimension));
            assert!(row.speedup_at_40 >= 1.0);
        }
    }

    #[test]
    fn ncube2_breakpoints_are_exact_crossings() {
        // Each breakpoint is where its two neighbouring faces' model
        // lines meet, not the next whole byte.
        let params = MachineParams::ncube2_like();
        let line = |d: u32, name: &str| {
            let part = mce_partitions::partitions(d)
                .into_iter()
                .find(|p| p.to_string() == name)
                .expect("a hull face names a partition of d");
            let t0 = multiphase_time(&params, 0.0, d, part.parts());
            (t0, multiphase_time(&params, 1.0, d, part.parts()) - t0)
        };
        for row in ncube2_study() {
            let d = row.dimension;
            for pair in row.hull.windows(2) {
                let ((left, _, to), (right, from, _)) = (&pair[0], &pair[1]);
                assert_eq!(to, from, "d={d}: faces must tile");
                let ((a0, a_slope), (b0, b_slope)) = (line(d, left), line(d, right));
                let crossing = (b0 - a0) / (a_slope - b_slope);
                assert!(
                    (to - crossing).abs() <= 1e-9 * crossing,
                    "d={d}: {left}|{right} breakpoint {to} vs crossing {crossing}"
                );
            }
        }
    }

    #[test]
    fn se_times_match_across_switching_modes() {
        let (circuit, saf) = saf_circuit_agree_on_standard_exchange(5, 64);
        assert!((circuit - saf).abs() < 1e-9);
    }
}
