//! The incumbent-bounded fallback against the exhaustive grid it
//! replaced: over the dense hotspot ladders the perf ledger's
//! `plan_cold` falls back on, `simulate_answer` names the winner and
//! the simulated time of `conformance::run_scenario` run over every
//! candidate to completion, bit for bit — while cutting runs short, and
//! skipping on their price floor exactly candidates the bound would
//! have cut anyway.

use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_hypercube::NodeId;
use mce_plan::fallback::simulate_answer;
use mce_simnet::conformance::{
    candidate_partitions, condition_summary, hotspot_condition, predicted_us_with, run_scenario,
    ScenarioError,
};
use mce_simnet::{SimArena, SimConfig, SimTime};

/// The grid `mce_plan::fallback` used to run: every member of the
/// candidate cast at `m`, to completion.
fn exhaustive(cfg: &SimConfig, m: usize) -> Result<(String, f64), ScenarioError> {
    let cast = candidate_partitions(&cfg.params, cfg.dimension, (4 * m).max(512) as f64);
    let outcome = run_scenario("plan/fallback", cfg, &cast, &[m], |d, dims, bytes| {
        (build_multiphase_programs(d, dims, bytes), stamped_memories(d, bytes))
    })?;
    let w = outcome.simulated_winner[0];
    Ok((outcome.partitions[w].clone(), outcome.cells[w].simulated_us))
}

/// The cut count of `simulate_answer` as it was before the price
/// floor: the same order, every later candidate run under the bound of
/// the best finish time before it, none skipped.
fn cut_runs_without_the_floor(cfg: &SimConfig, m: usize) -> u32 {
    let d = cfg.dimension;
    let cond = condition_summary(cfg);
    let cast = candidate_partitions(&cfg.params, d, (4 * m).max(512) as f64);
    let predicted: Vec<f64> =
        cast.iter().map(|p| predicted_us_with(cfg, &cond, p.parts(), m)).collect();
    let mut order: Vec<usize> = (0..cast.len()).collect();
    order.sort_by(|&a, &b| predicted[a].total_cmp(&predicted[b]));
    let mut arena = SimArena::new();
    let mut best: Option<SimTime> = None;
    let mut cut_runs = 0;
    for i in order {
        let programs = build_multiphase_programs(d, cast[i].parts(), m);
        let memories = stamped_memories(d, m);
        let run = match best {
            None => arena.run(cfg, &programs, memories).map(Some),
            Some(finish) => arena.run_until(cfg, &programs, memories, finish),
        };
        match run.expect("routable ladder") {
            Some(run) => best = Some(best.map_or(run.finish_time, |b| b.min(run.finish_time))),
            None => cut_runs += 1,
        }
    }
    cut_runs
}

/// `plan_cold`'s four ladder levels at dimension `d`, block sizes 16
/// to 64: the same winner, the same time and the same cut count as
/// without the floor, and — from d6 up, where the singleton loses by a
/// wide margin — never without a cut. At d7 every level skips some
/// candidate on its floor.
fn bounded_answers_what_the_exhaustive_grid_answers(d: u32) {
    let n = 1u32 << d;
    for level in [n / 2, 5 * n / 8, 3 * n / 4, n] {
        let cfg = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, level));
        let cond = condition_summary(&cfg);
        let mut skipped = 0;
        for m in (16..=64).step_by(8) {
            let won = simulate_answer(&cfg, &cond, m).expect("routable ladder");
            let (partition, simulated_us) = exhaustive(&cfg, m).expect("routable ladder");
            let case = format!("d{d}, {level} streams, m {m}");
            assert_eq!(won.partition.to_string(), partition, "{case}");
            assert_eq!(won.simulated_us.to_bits(), simulated_us.to_bits(), "{case}");
            assert_eq!(won.cut_runs, cut_runs_without_the_floor(&cfg, m), "{case}");
            assert!(won.skipped <= won.cut_runs, "{case}");
            if d >= 6 {
                assert!(won.cut_runs >= 1, "{case}: every candidate ran to the end");
            }
            skipped += won.skipped;
        }
        if d >= 7 {
            assert!(skipped >= 1, "d{d}, {level} streams: every candidate was simulated");
        }
    }
}

// One test per dimension, so that the d7 grids (most of the suite's
// time) run beside the others.
#[test]
fn d5_ladders() {
    bounded_answers_what_the_exhaustive_grid_answers(5);
}

#[test]
fn d6_ladders() {
    bounded_answers_what_the_exhaustive_grid_answers(6);
}

#[test]
fn d7_ladders() {
    bounded_answers_what_the_exhaustive_grid_answers(7);
}

#[test]
fn a_faulted_condition_fails_with_the_exhaustive_grids_error() {
    // Dense ladder plus a cut cable: every candidate is unroutable, and
    // the fallback must name the cell the exhaustive grid names — the
    // first of the cast — whichever candidate it happened to run first.
    let d = 3u32;
    let cfg = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 8).with_fault(NodeId(0), 0));
    let bounded = simulate_answer(&cfg, &condition_summary(&cfg), 64).unwrap_err();
    let grid = exhaustive(&cfg, 64).unwrap_err();
    assert_eq!(bounded, grid);
    assert_eq!(bounded.block_size, 64);
}

#[test]
fn a_faulted_ladder_fails_with_the_exhaustive_grids_error() {
    // A d4 hotspot ladder with one cut cable. Every phase over the
    // cable's dimension sends across it, so every candidate is
    // unroutable, and the fallback must name the grid's cell: `{2,2}`
    // at m = 32, unroutable from node 1 to node 3.
    let d = 4u32;
    let cfg = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 8).with_fault(NodeId(3), 1));
    let bounded = simulate_answer(&cfg, &condition_summary(&cfg), 32).unwrap_err();
    let grid = exhaustive(&cfg, 32).unwrap_err();
    assert_eq!(bounded, grid);
}
