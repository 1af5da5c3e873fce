//! End-to-end integration: paper claims verified across the whole
//! stack (model + simulator + algorithms + apps).

use multiphase_exchange::exchange::api::CompleteExchange;
use multiphase_exchange::model::{
    best_partition, multiphase_time, ConditionSummary, MachineParams,
};
use multiphase_exchange::partitions::{count, partitions};
use multiphase_exchange::plan::PlanHull;
use multiphase_exchange::simnet::config::SwitchingMode;

/// Abstract claim: the multiphase algorithm "can substantially improve
/// performance for block sizes in the 0-160 byte range".
#[test]
fn multiphase_wins_in_the_paper_byte_range() {
    let ex = CompleteExchange::new(7);
    for m in [8usize, 24, 40, 80, 120, 160] {
        let planned = ex.run_planned(m).unwrap();
        let se = ex.run_standard(m).unwrap();
        let ocs = ex.run_optimal(m).unwrap();
        assert!(planned.verified && se.verified && ocs.verified, "m={m}");
        let best_classic = se.simulated_us.min(ocs.simulated_us);
        assert!(
            planned.simulated_us <= best_classic,
            "m={m}: planned {} vs classic {best_classic}",
            planned.simulated_us
        );
        // "Substantially" in the middle of the range (the advantage
        // tapers toward 160 B where {d} takes over, as in Figure 6).
        if (24..=80).contains(&m) {
            assert!(
                best_classic / planned.simulated_us > 1.25,
                "m={m}: speedup only {:.2}",
                best_classic / planned.simulated_us
            );
        }
    }
}

/// Beyond the multiphase range, the singleton plan (OCS) must win and
/// the planner must say so.
#[test]
fn large_blocks_choose_ocs_and_match() {
    let ex = CompleteExchange::new(6);
    let plan = ex.plan(4000);
    assert_eq!(plan.dims, vec![6]);
    let planned = ex.run_planned(4000).unwrap();
    let ocs = ex.run_optimal(4000).unwrap();
    assert!((planned.simulated_us - ocs.simulated_us).abs() < 1e-6);
}

/// The planner's stored hull and the exhaustive search agree
/// everywhere, and the planner covers the paper's dimensions. Inside a
/// breakpoint's band the exact fold answers, as the plan engine does.
#[test]
fn planner_consistency_d5_to_d7() {
    for d in 5..=7u32 {
        let params = MachineParams::ipsc860();
        let hull = PlanHull::build(&params, SwitchingMode::Circuit, d, &ConditionSummary::noop(d));
        for m in (0..=400usize).step_by(7) {
            let m = m as f64;
            let (face, in_band) = hull.locate(m);
            let via_hull = if in_band { best_partition(&params, m, d).1 } else { face.time_at(m) };
            let t_best = partitions(d)
                .into_iter()
                .map(|p| multiphase_time(&params, m, d, p.parts()))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (via_hull - t_best).abs() < 1e-9,
                "d={d} m={m}: hull {via_hull} exhaustive {t_best}"
            );
        }
    }
}

/// Enumeration scale claim: "for a million node hypercube, the
/// enumeration of 627 partitions is quite viable".
#[test]
fn million_node_cube_enumeration_is_trivial() {
    assert_eq!(count(20), 627);
    let started = std::time::Instant::now();
    let all = partitions(20);
    assert_eq!(all.len(), 627);
    assert!(started.elapsed().as_millis() < 1000, "enumeration must be trivial");
}

/// Run the complete exchange on machines with different parameters:
/// the algorithm is correct regardless, only the plan changes.
#[test]
fn other_machine_presets() {
    for params in [MachineParams::hypothetical(), MachineParams::ncube2_like()] {
        let ex = CompleteExchange::new(5).with_params(params.clone());
        let out = ex.run_planned(24).unwrap();
        assert!(out.verified, "{} failed verification", params.name);
        assert!(out.model_error() < 0.02, "{}: {}", params.name, out.model_error());
    }
}

/// The simulator's timing is bit-deterministic run to run.
#[test]
fn deterministic_replay() {
    let ex = CompleteExchange::new(5);
    let a = ex.run(24, &[2, 3]).unwrap();
    let b = ex.run(24, &[2, 3]).unwrap();
    assert_eq!(a.simulated_us, b.simulated_us);
    assert_eq!(a.stats, b.stats);
}
