//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                  # everything below
//! repro figure <4|5|6>       # Figures 4-6 (d = 5, 6, 7 sweeps)
//! repro partitions           # Section 6 p(d) table          (E3)
//! repro crossover            # Section 4.3 analysis          (E1)
//! repro example51            # Section 5.1 worked example    (E2)
//! repro params               # Section 7.4 message-time law  (E7)
//! repro contention           # Section 2 path examples       (E8)
//! repro schedule-audit [d]   # contention-free audit         (E9)
//! repro ablation             # Section 7 ablations           (E10)
//! repro patterns             # §9 collectives study          (E11)
//! repro switching            # circuit vs store-and-forward  (E12)
//! repro permutation          # arbitrary-permutation rounds  (E13)
//! repro ncube2               # projected Ncube-2 hulls       (E14)
//! repro robustness [d] [--quick]  # degraded-network study   (E15)
//! repro interference [d] [--quick] # shared-cube co-tenancy   (E16)
//! repro trace [scenario] [d] # structured trace capture: Perfetto
//!                            # JSON + HTML timeline + inspector
//!                            # summary; scenario in {hotspot,
//!                            # interference, sharded, all}
//! repro plan [--quick]       # planner-as-a-service A/B: warm cached
//!                            # hull queries vs per-query enumeration
//! ```
//!
//! Figure artifacts (CSV + JSON) land in `target/repro/`.
//!
//! All simulation fan-outs (figure grids, ablation rows, study cells)
//! execute through `mce_simnet::batch`: rayon-parallel with per-worker
//! simulation arenas, bit-identical to the same runs on fresh arenas.

use mce_bench::figures::{paper_expectations, regenerate_figure, Figure};
use mce_bench::interference::{interference_study, InterferenceOptions};
use mce_bench::plan_study::{plan_study, PlanStudyOptions};
use mce_bench::report::{ascii_plot, write_csv, write_json, Curve};
use mce_bench::robustness::{robustness_study, RobustnessOptions};
use mce_bench::{ablation, extensions, output_dir, tables};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "all" => {
            cmd_partitions();
            cmd_crossover();
            cmd_example51();
            cmd_params();
            cmd_contention();
            cmd_schedule_audit(6);
            cmd_ablation();
            cmd_patterns();
            cmd_switching();
            cmd_permutation();
            cmd_ncube2();
            cmd_robustness(6, false);
            cmd_interference(6, false);
            for fig in [4u32, 5, 6] {
                cmd_figure(fig, false);
            }
            println!("\nAll artifacts written to {:?}", output_dir());
        }
        "figure" => {
            let n = number_arg(args.get(1), "figure number", "one of 4, 5, 6").unwrap_or(6);
            cmd_figure(n, true);
        }
        "partitions" => cmd_partitions(),
        "crossover" => cmd_crossover(),
        "example51" => cmd_example51(),
        "params" => cmd_params(),
        "contention" => cmd_contention(),
        "schedule-audit" => {
            let d = number_arg(args.get(1), "dimension", DIMENSION_FORM).unwrap_or(6);
            cmd_schedule_audit(d);
        }
        "ablation" => cmd_ablation(),
        "patterns" => cmd_patterns(),
        "switching" => cmd_switching(),
        "permutation" => cmd_permutation(),
        "ncube2" => cmd_ncube2(),
        "robustness" => {
            let (d, quick) = study_args(&args);
            cmd_robustness(d, quick);
        }
        "interference" => {
            let (d, quick) = study_args(&args);
            cmd_interference(d, quick);
        }
        "trace" => {
            let scenario = args.get(1).map(String::as_str).unwrap_or("all");
            if scenario != "all" && !mce_bench::trace::SCENARIOS.contains(&scenario) {
                eprintln!(
                    "unknown trace scenario {scenario:?}; valid scenarios: {}, all",
                    mce_bench::trace::SCENARIOS.join(", ")
                );
                std::process::exit(2);
            }
            let d = number_arg(args.get(2), "dimension", DIMENSION_FORM);
            cmd_trace(scenario, d);
        }
        "plan" => {
            let quick = args.iter().any(|a| a == "--quick");
            cmd_plan(quick);
        }
        other => {
            eprintln!("unknown subcommand {other:?}; see `repro` source header for usage");
            std::process::exit(2);
        }
    }
}

const DIMENSION_FORM: &str = "a cube dimension as a decimal integer, e.g. 6";

/// Parse an optional numeric argument. Anything that is not a number
/// names the expected form on stderr and exits 2, like the other
/// bad-input paths — never a panic.
fn number_arg(arg: Option<&String>, what: &str, form: &str) -> Option<u32> {
    arg.map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("invalid {what} {s:?}; expected {form}");
            std::process::exit(2)
        })
    })
}

/// `[d] [--quick]` of the study subcommands: the first non-flag
/// argument is the dimension (default 6, or 4 under `--quick`).
fn study_args(args: &[String]) -> (u32, bool) {
    let quick = args.iter().any(|a| a == "--quick");
    let d = args.iter().skip(1).find(|a| !a.starts_with("--"));
    (number_arg(d, "dimension", DIMENSION_FORM).unwrap_or(if quick { 4 } else { 6 }), quick)
}

fn banner(title: &str) {
    println!("\n=== {title} {}", "=".repeat(66usize.saturating_sub(title.len())));
}

/// E3.
fn cmd_partitions() {
    banner("E3: Section 6 partition-count table");
    let table = tables::partition_table();
    println!("{:>3} {:>10} {:>12} {:>8}", "d", "p(d)", "enumerated", "paper");
    for row in &table {
        let paper = row.paper.map(|p| p.to_string()).unwrap_or_else(|| "-".into());
        println!("{:>3} {:>10} {:>12} {:>8}", row.d, row.p_d, row.enumerated, paper);
        if let Some(p) = row.paper {
            assert_eq!(p, row.p_d, "paper disagreement at d={}", row.d);
        }
    }
    write_json(&output_dir().join("partition_table.json"), &table);
    println!("-> matches the paper at d = 5, 7, 10, 15, 20");
}

/// E1.
fn cmd_crossover() {
    banner("E1: Section 4.3 hypothetical-machine crossover");
    let r = tables::crossover_report();
    println!("crossover at d=6: {:.2} bytes   (paper: \"less than 30\")", r.crossover_bytes_d6);
    println!("t_SE(24, 6)  = {:>8.0} us       (paper: 15144)", r.t_standard_24);
    println!("t_OCS(24, 6) = {:>8.0} us", r.t_optimal_24);
    println!("\ncrossover sweep (d, bytes):");
    for (d, m) in &r.sweep {
        println!("  d={d:<2} {m:>8.1} B");
    }
    write_json(&output_dir().join("crossover.json"), &r);
}

/// E2.
fn cmd_example51() {
    banner("E2: Section 5.1 worked example (d=6, m=24, plan {2,4})");
    let r = tables::example51_report();
    println!("Standard Exchange:        {:>8.0} us  (paper: 15144)", r.standard_us);
    println!("phase {{2}} @ 384 B:        {:>8.0} us  (paper: 1832)", r.phase1_us);
    println!("phase {{4}} @ 96 B formula: {:>8.0} us  (erratum-corrected)", r.phase2_formula_us);
    println!("phase {{4}} @ 160 B paper:  {:>8.0} us  (paper: 6040)", r.phase2_paper_us);
    println!("shuffles (2 phases):      {:>8.0} us  (paper: 3072)", r.shuffle_us);
    println!("total (formula):          {:>8.0} us", r.total_formula_us);
    println!("total (paper numbers):    {:>8.0} us  (paper: 10944)", r.total_paper_us);
    println!(
        "\nEither way the two-phase plan beats Standard Exchange by {:.2}x-{:.2}x.",
        r.standard_us / r.total_paper_us,
        r.standard_us / r.total_formula_us
    );
    println!("See EXPERIMENTS.md for the 96-vs-160-byte erratum discussion.");
    write_json(&output_dir().join("example51.json"), &r);
}

/// E7.
fn cmd_params() {
    banner("E7: Section 7.4 message-time law on the simulator");
    let r = tables::params_report();
    println!("{:>7} {:>5} {:>14} {:>14}", "bytes", "hops", "simulated(us)", "law(us)");
    for (bytes, hops, sim, law) in &r.samples {
        println!("{bytes:>7} {hops:>5} {sim:>14.3} {law:>14.3}");
    }
    println!("max relative error: {:.2e} (exact by construction)", r.max_rel_err);
    write_json(&output_dir().join("params.json"), &r);
}

/// E8.
fn cmd_contention() {
    banner("E8: Section 2 contention examples (Figure 1 paths)");
    let r = tables::contention_report();
    for (s, t, len) in &r.paths {
        println!("path {s:>2} -> {t:>2}: length {len}");
    }
    println!(
        "0->31 vs 2->23 edge conflict: {} (shared edge {:?}; paper: edge 3-7)",
        r.edge_conflict_0_31_vs_2_23, r.shared_edge
    );
    println!(
        "0->31 vs 14->11 share node 15: {} (node contention, harmless)",
        r.node_shared_0_31_vs_14_11
    );
    write_json(&output_dir().join("contention.json"), &r);
}

/// E9.
fn cmd_schedule_audit(d: u32) {
    banner("E9: schedule contention audit");
    let audit = tables::schedule_audit(d);
    println!(
        "d={}: {} partitions, {} transmission steps, {} with edge contention",
        audit.dimension, audit.partitions, audit.steps, audit.conflicted_steps
    );
    assert_eq!(audit.conflicted_steps, 0, "schedules must be contention-free");
    println!("-> every step of every multiphase schedule is edge-contention-free");
    write_json(&output_dir().join(format!("schedule_audit_d{d}.json")), &audit);
}

/// E10.
fn cmd_ablation() {
    banner("E10: Section 7 implementation ablations (d=5, {5}, m=200)");
    let rows = ablation::ablation_suite(5, &[5], 200);
    println!(
        "{:<46} {:>9} {:>12} {:>9} {:>6} {:>6}",
        "configuration", "completed", "time(us)", "verified", "NICser", "drops"
    );
    for r in &rows {
        println!(
            "{:<46} {:>9} {:>12.1} {:>9} {:>6} {:>6}",
            r.config, r.completed, r.simulated_us, r.verified, r.nic_serializations, r.forced_drops
        );
        if !r.note.is_empty() {
            println!("    note: {}", r.note);
        }
    }
    write_json(&output_dir().join("ablation.json"), &rows);

    println!("\nFORCED vs UNFORCED one-way transfer (Section 7.1):");
    let msg = ablation::message_type_comparison();
    println!("{:>7} {:>12} {:>12}", "bytes", "forced(us)", "unforced(us)");
    for row in &msg {
        println!("{:>7} {:>12.1} {:>12.1}", row.bytes, row.forced_us, row.unforced_us);
    }
    println!("-> identical up to 100 B; reserve-acknowledge overhead beyond (paper 7.1)");
    write_json(&output_dir().join("message_types.json"), &msg);
}

/// E11.
fn cmd_patterns() {
    banner("E11: multiphase applied to the other patterns (d=6)");
    let rows = extensions::patterns_study(6, &[8, 40, 160, 400]);
    println!(
        "{:<10} {:>6} {:<16} {:>12} {:>12} {:>12} {:>12}",
        "pattern", "m(B)", "best plan", "model(us)", "sim(us)", "{1,..}(us)", "{d}(us)"
    );
    for r in &rows {
        assert!(r.verified);
        println!(
            "{:<10} {:>6} {:<16} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            r.pattern,
            r.block_size,
            format!("{:?}", r.best_partition),
            r.predicted_us,
            r.simulated_us,
            r.neighbor_us,
            r.flat_us
        );
    }
    println!(
        "
-> the hull DEGENERATES for these patterns: the binomial-tree /"
    );
    println!("   recursive-doubling plans already move minimal bytes, so the paper's");
    println!("   volume-vs-startup trade never opens up (see EXPERIMENTS.md E11).");
    write_json(&output_dir().join("patterns.json"), &rows);
}

/// E12.
fn cmd_switching() {
    banner("E12: circuit switching vs store-and-forward (d=6)");
    let rows = extensions::switching_study(6, &[8, 40, 160, 400]);
    println!(
        "{:>6} {:<14} {:>12} {:<14} {:>12} {:>14}",
        "m(B)", "circuit best", "circuit(us)", "SAF best", "SAF(us)", "SAF {d} (us)"
    );
    for r in &rows {
        println!(
            "{:>6} {:<14} {:>12.1} {:<14} {:>12.1} {:>14.1}",
            r.block_size,
            format!("{:?}", r.circuit_best),
            r.circuit_us,
            format!("{:?}", r.saf_best),
            r.saf_us,
            r.saf_flat_us
        );
    }
    println!(
        "
-> under store and forward every partition moves the same byte-hops;"
    );
    println!("   the {{d}}-style plans collapse (distance multiplies the whole message)");
    println!("   and the big multiphase win exists only with circuits (Seidel 1989).");
    write_json(&output_dir().join("switching.json"), &rows);
}

/// E13.
fn cmd_permutation() {
    banner("E13: arbitrary-permutation round scheduling (d=6, m=200)");
    let rows = extensions::permutation_study(6, 200);
    println!(
        "{:<14} {:>7} {:>11} {:>14} {:>16} {:>11}",
        "permutation", "rounds", "lower bnd", "scheduled(us)", "unscheduled(us)", "contention"
    );
    for r in &rows {
        println!(
            "{:<14} {:>7} {:>11} {:>14.1} {:>16.1} {:>11}",
            r.name,
            r.rounds,
            r.lower_bound,
            r.scheduled_us,
            r.unscheduled_us,
            r.unscheduled_contention
        );
    }
    println!(
        "
-> greedy rounds achieve zero contention and deterministic latency;"
    );
    println!("   with the iPSC-860's 150d-us barrier a one-shot permutation is still");
    println!("   cheaper serialized FIFO-style — the full answer to the paper's open");
    println!("   question is in EXPERIMENTS.md E13.");
    write_json(&output_dir().join("permutation.json"), &rows);
}

/// E14.
fn cmd_ncube2() {
    banner("E14: projected Ncube-2 hulls (the paper's final question)");
    let rows = extensions::ncube2_study();
    for r in &rows {
        println!("d = {} ({} nodes):", r.dimension, 1u64 << r.dimension);
        for (part, from, to) in &r.hull {
            let to = if to.is_finite() { format!("{to:.0}") } else { "inf".into() };
            println!("   {part:<12} optimal on [{from:.0}, {to}) B");
        }
        println!(
            "   best plan at 40 B: {:.0} us, {:.2}x over the better classic
",
            r.best_at_40_us, r.speedup_at_40
        );
    }
    write_json(&output_dir().join("ncube2.json"), &rows);
}

/// E15.
fn cmd_robustness(d: u32, quick: bool) {
    banner(&format!(
        "E15: multiphase vs standard under degraded networks (d = {d}{})",
        if quick { ", quick" } else { "" }
    ));
    let opts = if quick { RobustnessOptions::quick(d) } else { RobustnessOptions::full(d) };
    let started = std::time::Instant::now();
    let report = robustness_study(&opts);
    assert!(!report.rows.is_empty(), "robustness study produced no rows");
    println!(
        "simulated {} cells x {} replicates in {:?}",
        report.rows.len(),
        report.replicates,
        started.elapsed()
    );
    println!("partitions: {:?}", report.partitions);
    println!(
        "\n{:<16} {:>9} {:<36} {:>12} {:>12} {:>10}",
        "scenario",
        "feasible",
        "winner ladder (size: partition)",
        "sim takeover",
        "model pred",
        "max err"
    );
    for s in &report.scenarios {
        let ladder: Vec<String> =
            s.best_by_size.iter().map(|(m, p, _)| format!("{m}:{p}")).collect();
        let fmt_takeover = |t: Option<usize>| {
            t.map(|m| format!("{m} B")).unwrap_or_else(|| {
                if s.feasible {
                    ">range".into()
                } else {
                    "-".into()
                }
            })
        };
        println!(
            "{:<16} {:>9} {:<36} {:>12} {:>12} {:>10}",
            s.scenario,
            s.feasible,
            ladder.join(" "),
            fmt_takeover(s.singleton_crossover_bytes),
            fmt_takeover(s.model_crossover_bytes),
            s.model_max_rel_err.map(|e| format!("{e:.3}")).unwrap_or_else(|| "-".into()),
        );
    }
    println!("\n-> faults: every complete exchange contains distance-1 transfers, so any");
    println!("   dead cable is a typed Unroutable for every partition (no hang, no panic);");
    println!("   slowdowns and hotspots shift which phase count wins and move the {{d}}");
    println!("   crossover — the numbers above quantify by how much.");
    let dir = output_dir();
    write_json(&dir.join("robustness.json"), &report);
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.partition.clone(),
                r.phases.to_string(),
                r.block_size.to_string(),
                r.feasible.to_string(),
                format!("{:.1}", r.finish_us.mean),
                format!("{:.1}", r.finish_us.stddev),
                r.model_predicted_us.map(|v| format!("{v:.1}")).unwrap_or_default(),
                r.model_rel_err.map(|v| format!("{v:.4}")).unwrap_or_default(),
                format!("{:.1}", r.edge_contention_events),
                format!("{:.1}", r.background_transmissions),
                r.verified.to_string(),
            ]
        })
        .collect();
    write_csv(
        &dir.join("robustness.csv"),
        &[
            "scenario",
            "partition",
            "phases",
            "block_bytes",
            "feasible",
            "mean_us",
            "stddev_us",
            "model_us",
            "model_rel_err",
            "edge_contention",
            "background_tx",
            "verified",
        ],
        &rows,
    );
    println!("artifacts: target/repro/robustness.csv, target/repro/robustness.json");
}

/// E16.
fn cmd_interference(d: u32, quick: bool) {
    banner(&format!(
        "E16: shared-cube interference, multi-tenant jobs (d = {d}{})",
        if quick { ", quick" } else { "" }
    ));
    let opts = if quick { InterferenceOptions::quick(d) } else { InterferenceOptions::full(d) };
    let started = std::time::Instant::now();
    let report = interference_study(&opts);
    assert!(!report.rows.is_empty(), "interference study produced no rows");
    assert!(report.rows.iter().all(|r| r.verified), "all tenants must move data correctly");
    println!(
        "simulated {} (regime, partition, size) cells in {:?}",
        report.rows.len(),
        started.elapsed()
    );
    println!(
        "study partitions: {:?}   co-tenant: {} @ {} B",
        report.partitions, report.cotenant_partition, report.cotenant_block
    );
    println!(
        "\n{:<20} {:<36} {:>12} {:>7} {:>9} {:>8} {:>9}",
        "regime",
        "winner ladder (size: partition)",
        "{d} takeover",
        "shift",
        "slowdown",
        "jain",
        "retx"
    );
    for s in &report.regimes {
        let ladder: Vec<String> =
            s.best_by_size.iter().map(|(m, p, _)| format!("{m}:{p}")).collect();
        println!(
            "{:<20} {:<36} {:>12} {:>7} {:>9.3} {:>8.3} {:>9}",
            s.regime,
            ladder.join(" "),
            s.singleton_crossover_bytes
                .map(|m| format!("{m} B"))
                .unwrap_or_else(|| ">range".into()),
            s.crossover_shift_steps.map(|n| format!("{n:+}")).unwrap_or_else(|| "-".into()),
            s.mean_slowdown_max,
            s.mean_jain,
            s.retransmissions,
        );
    }
    println!("\n-> a blocking co-tenant pushes the {{d}} takeover several ladder steps");
    println!("   later: its camped circuits stall the singleton's d-hop paths hardest,");
    println!("   widening the multiphase window. Reactive link policies restore the");
    println!("   solo crossover — backed-off sources release cables between attempts —");
    println!("   trading silent wait-queue camping for visible, bounded retransmission");
    println!("   and per-job fairness that is now measurable (slowdown, Jain above).");
    let dir = output_dir();
    write_json(&dir.join("interference.json"), &report);
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.regime.clone(),
                r.partition.clone(),
                r.phases.to_string(),
                r.block_size.to_string(),
                format!("{:.1}", r.study_makespan_us),
                r.cotenant_makespan_us.map(|v| format!("{v:.1}")).unwrap_or_default(),
                format!("{:.4}", r.slowdown_max),
                format!("{:.4}", r.jain_fairness),
                r.retransmissions.to_string(),
                r.flow_drops.to_string(),
                r.verified.to_string(),
            ]
        })
        .collect();
    write_csv(
        &dir.join("interference.csv"),
        &[
            "regime",
            "partition",
            "phases",
            "block_bytes",
            "study_makespan_us",
            "cotenant_makespan_us",
            "slowdown_max",
            "jain_fairness",
            "retransmissions",
            "flow_drops",
            "verified",
        ],
        &rows,
    );
    println!("artifacts: target/repro/interference.csv, target/repro/interference.json");
}

/// Structured trace capture (see `mce_bench::trace`).
fn cmd_trace(scenario: &str, d: Option<u32>) {
    let scenarios: Vec<&str> =
        if scenario == "all" { mce_bench::trace::SCENARIOS.to_vec() } else { vec![scenario] };
    for name in scenarios {
        let d = d.unwrap_or_else(|| mce_bench::trace::default_dimension(name));
        banner(&format!("trace capture: {name} (d = {d})"));
        let started = std::time::Instant::now();
        let cap = mce_bench::trace::capture(name, d);
        println!(
            "captured {} events in {:?} (finish {:.1} us, dropped {}, shard windows {})",
            cap.events,
            started.elapsed(),
            cap.finish_us,
            cap.events_dropped,
            cap.shard_windows
        );
        for file in &cap.files {
            println!("  -> {}", file.display());
        }
        println!("open the .perfetto.json in ui.perfetto.dev, the .html anywhere");
    }
}

/// Planner-as-a-service A/B (see `mce_bench::plan_study`).
fn cmd_plan(quick: bool) {
    banner(&format!("plan: cached-hull planner A/B{}", if quick { " (quick)" } else { "" }));
    let opts = if quick { PlanStudyOptions::quick() } else { PlanStudyOptions::full() };
    let started = std::time::Instant::now();
    let report = plan_study(&opts);
    assert!(!report.rows.is_empty(), "plan study produced no rows");
    println!("ran {} rounds per side in {:?}", report.rounds, started.elapsed());
    println!(
        "\n{:>3} {:>8} {:>14} {:>12} {:>9} {:>13} {:>9} {:>14} {:>6}",
        "d",
        "queries",
        "uncached q/s",
        "warm q/s",
        "speedup",
        "shuffled q/s",
        "speedup",
        "cold build ms",
        "hulls"
    );
    for row in &report.rows {
        println!(
            "{:>3} {:>8} {:>14.0} {:>12.0} {:>8.0}x {:>13.0} {:>8.0}x {:>14.3} {:>6}",
            row.d,
            row.queries,
            row.uncached_qps,
            row.warm_qps,
            row.speedup,
            row.warm_shuffled_qps,
            row.shuffled_speedup,
            row.cold_build_ms,
            row.hulls_built
        );
    }
    println!("\nsample answers at 40 B (warm engine):");
    for s in report.samples.iter().filter(|s| s.d == report.rows.last().unwrap().d) {
        println!(
            "  d={} {:<16} -> {:<14} {:<24} {:>10.1} us",
            s.d,
            s.condition,
            s.partition,
            format!("({})", s.algorithm),
            s.predicted_us
        );
    }
    println!("\n-> a warm query is one cache probe under the key its condition already keeps");
    println!("   and a binary search over the cached hull's faces, in either order; the");
    println!("   uncached side re-enumerates p(d) partitions through the conditioned model");
    println!("   every time. Winners are checked identical before timing.");
    write_json(&output_dir().join("plan.json"), &report);
    println!("artifacts: target/repro/plan.json");
}

/// E4-E6.
fn cmd_figure(number: u32, verbose: bool) {
    let (d, m_max, step) = match number {
        4 => (5u32, 400usize, 8usize),
        5 => (6, 400, 8),
        6 => (7, 400, 8),
        other => {
            eprintln!("paper has figures 4, 5, 6 (got {other})");
            std::process::exit(2);
        }
    };
    banner(&format!("E{number}: Figure {number} (d = {d}, {} nodes)", 1u64 << d));
    let started = std::time::Instant::now();
    // 2% deterministic jitter plays the role of real-hardware noise.
    let fig = regenerate_figure(number, d, m_max, step, 0.02);
    println!(
        "simulated {} (partition, block-size) cells in {:?}",
        fig.points.len(),
        started.elapsed()
    );
    assert!(fig.points.iter().all(|p| p.verified), "all runs must move data correctly");

    write_figure_outputs(&fig);
    print_figure_summary(&fig, verbose);
}

fn write_figure_outputs(fig: &Figure) {
    let dir = output_dir();
    write_json(&dir.join(format!("figure{}.json", fig.number)), fig);
    let rows: Vec<Vec<String>> = fig
        .points
        .iter()
        .map(|p| {
            vec![
                p.partition.clone(),
                p.block_size.to_string(),
                format!("{:.1}", p.predicted_us),
                format!("{:.1}", p.simulated_us),
            ]
        })
        .collect();
    write_csv(
        &dir.join(format!("figure{}.csv", fig.number)),
        &["partition", "block_bytes", "predicted_us", "simulated_us"],
        &rows,
    );
}

fn print_figure_summary(fig: &Figure, verbose: bool) {
    let expect = paper_expectations(fig.dimension);
    println!("hull partitions: {:?}", &fig.partitions[..fig.partitions.len() - 1]);
    println!("paper hull:      {:?}", expect.hull);

    // Model-vs-simulation agreement.
    let max_err = fig
        .points
        .iter()
        .map(|p| (p.simulated_us - p.predicted_us).abs() / p.predicted_us)
        .fold(0.0f64, f64::max);
    println!("max |simulated - predicted| / predicted = {:.1}% (jittered runs)", max_err * 100.0);

    // Who wins where (simulated curves).
    let sizes: Vec<usize> = {
        let mut v: Vec<usize> = fig.points.iter().map(|p| p.block_size).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut crossover_to_singleton = None;
    let singleton = format!("{{{}}}", fig.dimension);
    for &m in &sizes {
        let best = fig
            .points
            .iter()
            .filter(|p| p.block_size == m)
            .min_by(|a, b| a.simulated_us.partial_cmp(&b.simulated_us).unwrap())
            .unwrap();
        if best.partition == singleton {
            if crossover_to_singleton.is_none() {
                crossover_to_singleton = Some(m);
            }
        } else {
            crossover_to_singleton = None;
        }
    }
    println!(
        "simulated crossover to {singleton}: ~{} B (paper: ~{:.0} B)",
        crossover_to_singleton.map(|m| m.to_string()).unwrap_or_else(|| ">range".into()),
        expect.singleton_from
    );

    // Figure 6 caption headline: {3,4} vs classics at m = 40.
    if fig.dimension == 7 {
        let at = |part: &str, m: usize| {
            fig.points
                .iter()
                .find(|p| p.partition == part && p.block_size == m)
                .map(|p| p.simulated_us)
        };
        if let (Some(se), Some(ocs), Some(mp)) =
            (at("{1,1,1,1,1,1,1}", 40), at("{7}", 40), at("{4,3}", 40))
        {
            println!(
                "at 40 B: SE {:.3} s, OCS {:.3} s, {{3,4}} {:.3} s -> {:.2}x (paper: 0.037/0.037/0.016, >2x)",
                se / 1e6,
                ocs / 1e6,
                mp / 1e6,
                se.min(ocs) / mp
            );
        }
    }

    // ASCII rendition of the figure.
    let curves: Vec<Curve> = fig
        .partitions
        .iter()
        .map(|part| Curve {
            label: part.clone(),
            points: fig
                .points
                .iter()
                .filter(|p| &p.partition == part)
                .map(|p| (p.block_size as f64, p.simulated_us / 1e6))
                .collect(),
        })
        .collect();
    if verbose {
        println!("\n{}", ascii_plot(&curves, 68, 22, "block size (bytes)", "time (s)"));
    }
    println!("artifacts: target/repro/figure{0}.csv, target/repro/figure{0}.json", fig.number);
}
