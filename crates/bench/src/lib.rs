//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! The `repro` binary (see `src/bin/repro.rs`) drives this experiment
//! index:
//!
//! | id | artifact | subcommand |
//! |----|----------|------------|
//! | E1 | §4.3 crossover (hypothetical machine) | `repro crossover` |
//! | E2 | §5.1 worked example | `repro example51` |
//! | E3 | §6 partition-count table | `repro partitions` |
//! | E4-E6 | Figures 4, 5, 6 (d = 5, 6, 7 sweeps) | `repro figure <n>` |
//! | E7 | §7.4 message-time law | `repro params` |
//! | E8 | §2 contention examples | `repro contention` |
//! | E9 | schedule contention audit | `repro schedule-audit` |
//! | E10 | §7.1-7.3 ablations | `repro ablation` |
//! | E15 | degraded-network robustness | `repro robustness` |
//! | E16 | shared-cube interference | `repro interference` |
//! | — | structured trace capture (Perfetto + HTML) | `repro trace` |
//! | — | planner-as-a-service A/B (cached hulls) | `repro plan` |
//!
//! Each figure run writes CSV and JSON under `target/repro/` and
//! prints a paper-vs-model-vs-simulation comparison.

pub mod ablation;
pub mod extensions;
pub mod figures;
pub mod interference;
pub mod plan_study;
pub mod report;
pub mod robustness;
pub mod tables;
pub mod trace;

/// Output directory for regenerated artifacts.
pub fn output_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("target/repro");
    std::fs::create_dir_all(&dir).expect("cannot create output directory");
    dir
}
