//! Every quantitative claim in the paper, verified in one place.
//! This file is the machine-checkable companion to EXPERIMENTS.md.

use multiphase_exchange::exchange::api::CompleteExchange;
use multiphase_exchange::model::{
    crossover_block_size, multiphase_time, optimal_cs_time, optimality_hull_affine_by,
    standard_exchange_time, AffineHullFace, MachineParams,
};
use multiphase_exchange::partitions::count;

/// The iPSC-860 hull of optimality of dimension `d` (Figures 4-6).
fn ipsc_hull(d: u32) -> Vec<AffineHullFace> {
    let params = MachineParams::ipsc860();
    optimality_hull_affine_by(d, |m, part| multiphase_time(&params, m, d, part.parts()))
}

/// Abstract/§4: "the Standard Exchange approach that employs d
/// transmissions of size 2^(d-1) blocks each" and "the Optimal Circuit
/// Switched algorithm that employs 2^d - 1 transmissions of 1 block
/// each" — transmission counts on the built programs.
#[test]
fn transmission_counts_match_abstract() {
    use multiphase_exchange::exchange::schedule::{bytes_per_node, transmissions_per_node};
    for d in 1..=10u32 {
        assert_eq!(transmissions_per_node(&vec![1u32; d as usize]), d as u64);
        assert_eq!(transmissions_per_node(&[d]), (1u64 << d) - 1);
    }
    // SE moves (d·2^(d-1))·m bytes per node; OCS the minimal (2^d-1)·m.
    for d in 1..=8u32 {
        let m = 10usize;
        assert_eq!(
            bytes_per_node(d, &vec![1u32; d as usize], m),
            d as u64 * (1u64 << (d - 1)) * m as u64
        );
        assert_eq!(bytes_per_node(d, &[d], m), ((1u64 << d) - 1) * m as u64);
    }
}

/// §4.3: hypothetical machine (τ=ρ=1, λ=200, δ=20, d=6) — "the
/// Standard Exchange algorithm is better for blocks of size less than
/// 30" and "for 24 bytes the Standard algorithm takes 15144 µsec".
#[test]
fn section_4_3_numbers() {
    let hypo = MachineParams::hypothetical();
    let crossover = crossover_block_size(&hypo, 6);
    assert!(crossover < 30.0 && crossover > 29.0);
    assert_eq!(standard_exchange_time(&hypo, 24.0, 6).round() as u64, 15144);
}

/// §5.1: the worked example's phase costs (with the phase-2 erratum
/// reproduced both ways) and the conclusion that the two-phase plan is
/// "substantially faster".
#[test]
fn section_5_1_worked_example() {
    let hypo = MachineParams::hypothetical();
    assert_eq!(optimal_cs_time(&hypo, 384.0, 2).round() as u64, 1832);
    assert_eq!(optimal_cs_time(&hypo, 160.0, 4).round() as u64, 6040); // as printed
    assert_eq!(optimal_cs_time(&hypo, 96.0, 4).round() as u64, 5080); // per the formula
    let two_phase = multiphase_time(&hypo, 24.0, 6, &[2, 4]);
    assert_eq!(two_phase.round() as u64, 9984);
    let standard = standard_exchange_time(&hypo, 24.0, 6);
    assert!(two_phase < standard && 10944.0 < standard);
}

/// §6: p(d) values — p(5)=7, p(7)=15, p(10)=42, p(15)=176, p(20)=627
/// (quoted across the abstract, introduction and Section 6).
#[test]
fn partition_function_values() {
    assert_eq!(count(5), 7);
    assert_eq!(count(7), 15);
    assert_eq!(count(10), 42);
    assert_eq!(count(15), 176);
    assert_eq!(count(20), 627);
    // "p(20) = 672" appears once in the introduction as a typo for
    // 627; the Section 6 table and mathematics give 627.
}

/// §8: "For dimensions 5, 6 and 7, the number of combinations are 7,
/// 11 and 15."
#[test]
fn combination_counts_for_measured_dimensions() {
    assert_eq!(count(5), 7);
    assert_eq!(count(6), 11);
    assert_eq!(count(7), 15);
}

/// §8 / Figure 4: d=5 hull is {2,3} then {5}, with {2,3} "optimal for
/// block sizes less than 100 bytes".
#[test]
fn figure_4_claims() {
    let hull = ipsc_hull(5);
    let names: Vec<String> = hull.iter().map(|f| f.partition.to_string()).collect();
    assert_eq!(names, vec!["{3,2}", "{5}"]);
    assert!((hull[0].to - 100.0).abs() < 40.0, "crossover near 100 B, got {}", hull[0].to);
}

/// §8 / Figure 5: d=6 hull {2,2,2}, {3,3}, {6}; {6} beyond ~140 B;
/// {2,2,2} "only for extremely small sizes".
#[test]
fn figure_5_claims() {
    let hull = ipsc_hull(6);
    let names: Vec<String> = hull.iter().map(|f| f.partition.to_string()).collect();
    assert_eq!(names, vec!["{2,2,2}", "{3,3}", "{6}"]);
    assert!(hull[0].to < 40.0);
    assert!((hull[1].to - 140.0).abs() < 60.0);
}

/// §8 / Figure 6: d=7 hull {2,2,3}, {3,4}, {7}; {7} beyond ~160 B;
/// {2,2,3} optimal 0-12 B; at 40 B the multiphase {3,4} beats both
/// classical algorithms by more than 2x (0.016 s vs 0.037 s).
#[test]
fn figure_6_claims_model_and_simulation() {
    let hull = ipsc_hull(7);
    let names: Vec<String> = hull.iter().map(|f| f.partition.to_string()).collect();
    assert_eq!(names, vec!["{3,2,2}", "{4,3}", "{7}"]);
    assert!(hull[0].to < 30.0, "{{2,2,3}} small-size face ends near 12 B, got {}", hull[0].to);
    assert!((hull[1].to - 160.0).abs() < 60.0);

    // Simulated (not just modeled) headline numbers.
    let ex = CompleteExchange::new(7);
    let se = ex.run_standard(40).unwrap();
    let ocs = ex.run_optimal(40).unwrap();
    let mp = ex.run(40, &[3, 4]).unwrap();
    assert!(se.verified && ocs.verified && mp.verified);
    assert!((se.simulated_us / 1e6 - 0.037).abs() < 0.005, "SE {}", se.simulated_us);
    assert!((ocs.simulated_us / 1e6 - 0.037).abs() < 0.005, "OCS {}", ocs.simulated_us);
    assert!((mp.simulated_us / 1e6 - 0.016).abs() < 0.002, "MP {}", mp.simulated_us);
    assert!(se.simulated_us / mp.simulated_us > 2.0);
    assert!(ocs.simulated_us / mp.simulated_us > 2.0);
}

/// §7.4: effective pairwise-exchange constants λ_eff = 177.5 and
/// δ_eff = 20.6 derived from λ=95, λ₀=82.5, δ=10.3.
#[test]
fn section_7_4_effective_constants() {
    let p = MachineParams::ipsc860();
    assert!((p.lambda_eff() - 177.5).abs() < 1e-12);
    assert!((p.delta_eff() - 20.6).abs() < 1e-12);
    assert!((p.barrier_time(6) - 900.0).abs() < 1e-12);
}

/// Beyond the paper — the conditioned-crossover claim pinned by the
/// robustness study (E15, `repro robustness 6`): under a growing
/// hotspot ladder at d = 6 the simulated `{6}` takeover moves from
/// 160 B out to 280-360 B, while near-proportional slowdowns leave it
/// at 160 B. The netcond-aware analytic model
/// (`mce_model::conditioned`) must predict that shift — same
/// direction, within two 40-byte ladder steps of the recorded values —
/// from the condition summary alone, with no simulation in the loop.
#[test]
fn conditioned_crossover_matches_robustness_study() {
    use multiphase_exchange::model::conditioned_multiphase_time;
    use multiphase_exchange::partitions::Partition;
    use multiphase_exchange::simnet::conformance::{
        condition_summary, hotspot_condition, singleton_takeover,
    };
    use multiphase_exchange::simnet::{NetCondition, SimConfig};

    let params = MachineParams::ipsc860();
    let d = 6u32;
    // The study's cast and ladder: hull partitions + Standard
    // Exchange, 40..400 B in 40-byte steps.
    let parts: Vec<Partition> =
        [vec![2, 2, 2], vec![3, 3], vec![6], vec![1; 6]].into_iter().map(Partition::new).collect();
    let sizes: Vec<usize> = (1..=10).map(|k| k * 40).collect();
    let takeover = |nc: NetCondition| -> Option<usize> {
        let cond = condition_summary(&SimConfig::ipsc860(d).with_netcond(nc));
        let winners: Vec<(usize, String)> = sizes
            .iter()
            .map(|&m| {
                let best = parts
                    .iter()
                    .min_by(|a, b| {
                        conditioned_multiphase_time(&params, m as f64, d, a.parts(), &cond)
                            .total_cmp(&conditioned_multiphase_time(
                                &params,
                                m as f64,
                                d,
                                b.parts(),
                                &cond,
                            ))
                    })
                    .unwrap();
                (m, best.to_string())
            })
            .collect();
        singleton_takeover("{6}", winners.iter().map(|(m, w)| (*m, w.as_str())))
    };

    // Baseline: the clean crossover at 160 B, exactly as simulated.
    assert_eq!(takeover(NetCondition::default()), Some(160));
    // Near-proportional slowdowns leave the crossover in place.
    assert_eq!(takeover(NetCondition::uniform_slowdown(3.0)), Some(160));

    // The hotspot ladder: recorded simulated takeovers 280 / 280 / 360
    // (robustness study at d = 6, jitter-averaged). The model must
    // move the crossover the same way and land within ±2 ladder steps.
    let recorded = [(2u32, 280usize), (6, 280), (12, 360)];
    let mut last = 160;
    for (level, sim_takeover) in recorded {
        let predicted = takeover(hotspot_condition(d, level))
            .expect("hotspot must not push {6} out of the ladder entirely");
        assert!(predicted > 160, "hotspot_{level}: crossover must move out, got {predicted}");
        assert!(predicted >= last, "hotspot_{level}: shift must grow with traffic");
        let steps_off = (predicted as i64 - sim_takeover as i64).abs() / 40;
        assert!(
            steps_off <= 2,
            "hotspot_{level}: predicted {predicted} B vs simulated {sim_takeover} B \
             ({steps_off} ladder steps apart)"
        );
        last = predicted;
    }
}

/// §8: "In all cases there is good agreement between the predicted and
/// observed run times" — simulated vs model within 1% without jitter
/// over every hull partition and dimension.
#[test]
fn predicted_vs_simulated_agreement() {
    for d in 5..=7u32 {
        let ex = CompleteExchange::new(d);
        for face in ipsc_hull(d) {
            let m = 64usize;
            let out = ex.run(m, face.partition.parts()).unwrap();
            assert!(out.verified);
            assert!(out.model_error() < 0.01, "d={d} {}: {}", face.partition, out.model_error());
        }
    }
}
