//! # Multiphase complete exchange on a circuit-switched hypercube
//!
//! Reproduction of the core contribution of Bokhari, *Multiphase
//! Complete Exchange on a Circuit Switched Hypercube* (ICPP 1991):
//! the complete exchange (all-to-all personalized communication,
//! `MPI_Alltoall` avant la lettre) on `2^d` nodes is performed as `k`
//! *partial exchanges* over subcubes of dimensions `d_1, ..., d_k`
//! (`Σ d_i = d`), with effective block size `m·2^(d-d_i)` per phase
//! and an index-rotation shuffle between phases.
//!
//! The two classical algorithms fall out as special cases:
//!
//! * `{1,1,...,1}` — the Standard Exchange algorithm (Johnsson & Ho):
//!   `d` nearest-neighbour exchanges of `m·2^(d-1)` bytes;
//! * `{d}` — the Optimal Circuit Switched algorithm (Schmiermund &
//!   Seidel): `2^d - 1` direct exchanges of `m` bytes.
//!
//! Intermediate partitions trade startup count against bytes moved,
//! and for small blocks (the 0–160 byte range on the iPSC-860) beat
//! both.
//!
//! ## Crate layout
//!
//! * [`layout`] — the block-array algebra: superblocks, inter-phase
//!   rotations, residency invariants;
//! * [`schedule`] — contention-free XOR exchange schedules;
//! * [`builder`] — compile a plan into per-node simulator programs
//!   (FORCED receives, barriers, pairwise sync), with ablation knobs;
//! * [`exec_data`] — an untimed lock-step executor cross-checking the
//!   discrete-event engine;
//! * [`fabric`] / [`thread_fabric`] — the algorithm over a generic
//!   transport, including real threads with crossbeam channels;
//! * [`planner`] — one-shot plan choice by partition enumeration (the
//!   stored hull of optimality is `mce_plan::PlanHull`);
//! * [`verify`] — provenance-stamped blocks and exchange verification;
//! * [`api`] — the [`CompleteExchange`] facade.
//!
//! ## Quick start
//!
//! ```
//! use mce_core::api::CompleteExchange;
//!
//! // A 16-node iPSC-860 exchanging 40-byte blocks.
//! let ex = CompleteExchange::new(4);
//! let plan = ex.plan(40);
//! let outcome = ex.run(40, &plan.dims).unwrap();
//! assert!(outcome.verified);
//! // The planned run beats the classical algorithms.
//! assert!(outcome.simulated_us <= ex.run_standard(40).unwrap().simulated_us);
//! assert!(outcome.simulated_us <= ex.run_optimal(40).unwrap().simulated_us);
//! ```

pub mod api;
pub mod builder;
pub mod collectives;
pub mod exec_data;
pub mod fabric;
pub mod layout;
pub mod perm_router;
pub mod planner;
pub mod schedule;
pub mod thread_fabric;
pub mod verify;

pub use api::{CompleteExchange, ExchangeOutcome};
pub use builder::{
    build_multiphase_programs, build_naive_programs, build_optimal_cs_programs,
    build_standard_exchange_programs, build_with_options, BuildOptions,
};
pub use collectives::{build_allgather_programs, build_broadcast_programs, build_scatter_programs};
pub use perm_router::{build_permutation_programs, greedy_rounds};
pub use planner::{best_plan, Plan};
pub use schedule::{multiphase_schedule, PhaseSchedule};
pub use verify::{stamped_memories, verify_complete_exchange};
