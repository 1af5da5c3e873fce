//! Black-box suite for the compiler (see `mce_simnet::compile`): the
//! compiled tables of the *real* exchange builders pinned by frozen
//! digests (d3–d9 in the default suite, the d11 `bigcube_cold` sets
//! behind `--ignored`), the LRU behaviour of the process-wide compile
//! cache (the only compile cache), and the exactly-once compile
//! guarantee under `SimBatch`.
//!
//! The file keeps the name it had when the repository had two
//! compilers (a parallel pipeline and a sequential reference) and this
//! suite cross-checked them; the digests below were recorded then.

use mce_core::builder::{
    build_multiphase_programs, build_naive_programs, build_with_options, BuildOptions,
};
use mce_simnet::batch::SimBatch;
use mce_simnet::compile::compiled_digest;
use mce_simnet::{Op, Program, SimArena, SimConfig};
use std::sync::Arc;

fn exchange_memories(d: u32, m: usize) -> Vec<Vec<u8>> {
    (0..1usize << d).map(|x| vec![x as u8; (1usize << d) * m]).collect()
}

/// Give every `Permute` op its own copy of its permutation table, so
/// the compile prescan sees one distinct `Arc` per node and phase
/// instead of the builder's one per phase. Content is unchanged.
fn unshare_perms(programs: &mut [Program]) {
    for op in programs.iter_mut().flat_map(|p| &mut p.ops) {
        if let Op::Permute { perm, .. } = op {
            *perm = Arc::new(perm.as_ref().clone());
        }
    }
}

/// The builder program sets the digests cover: multiphase partitions
/// (with their shared inter-phase shuffle permutations), the
/// no-pairwise-sync ablation, per-node permutation `Arc`s, and the
/// naive all-to-all.
fn builder_cases() -> Vec<(String, Vec<Program>, Vec<Vec<u8>>)> {
    let mut cases = Vec::new();
    let multiphase: &[(u32, &[u32])] =
        &[(3, &[1, 1, 1]), (4, &[2, 2]), (5, &[5]), (6, &[2, 3, 1]), (7, &[3, 4])];
    for &(d, dims) in multiphase {
        let programs = build_multiphase_programs(d, dims, 8);
        cases.push((format!("multiphase d{d} {dims:?}"), programs, exchange_memories(d, 8)));
    }
    let nosync = build_with_options(
        6,
        &[3, 3],
        4,
        BuildOptions { pairwise_sync: false, ..BuildOptions::default() },
    );
    cases.push(("nosync d6 [3, 3]".to_string(), nosync, exchange_memories(6, 4)));
    // Per-node permutation Arcs: every node carries its own table, so
    // the permutation table holds 2^d entries per phase instead of one.
    let shared = build_multiphase_programs(5, &[2, 3], 4);
    let mut per_node = shared.clone();
    unshare_perms(&mut per_node);
    assert_eq!(per_node, shared, "un-sharing must not change program content");
    cases.push(("per-node perms d5 [2, 3]".to_string(), per_node, exchange_memories(5, 4)));
    let naive = build_naive_programs(4, 8);
    let memories = (0..16).map(|x| vec![x as u8; 2 * 16 * 8]).collect::<Vec<_>>();
    cases.push(("naive d4".to_string(), naive, memories));
    cases
}

/// `compiled_digest` of every [`builder_cases`] set, recorded on
/// 39d0813, where the parallel pipeline and the sequential walk both
/// existed and agreed on each of them.
const BUILDER_DIGESTS: [(&str, u64); 8] = [
    ("multiphase d3 [1, 1, 1]", 11544603171634333006),
    ("multiphase d4 [2, 2]", 9546719235423998254),
    ("multiphase d5 [5]", 5957912569999186295),
    ("multiphase d6 [2, 3, 1]", 17095936150761725453),
    ("multiphase d7 [3, 4]", 1127053989977185315),
    ("nosync d6 [3, 3]", 3697755341806051965),
    ("per-node perms d5 [2, 3]", 4359921402803816027),
    ("naive d4", 670294430447412285),
];

/// The builder programs compile to the tables recorded when two
/// compilers still cross-checked each other, byte for byte. (The name
/// is from those days; the test floor tracks tests by name.)
#[test]
fn builder_programs_compile_identically_to_reference() {
    let cases = builder_cases();
    assert_eq!(cases.len(), BUILDER_DIGESTS.len(), "regenerate with --ignored print_digests");
    for ((label, programs, memories), (frozen_label, frozen)) in cases.iter().zip(BUILDER_DIGESTS) {
        assert_eq!(label, frozen_label);
        assert_eq!(compiled_digest(programs, memories), frozen, "{label}");
    }
}

/// A large multiphase set at m = 8 (the ledger's `bigcube_cold` block),
/// optionally with one permutation `Arc` per node and phase.
struct LargeCase {
    d: u32,
    dims: &'static [u32],
    per_node_perms: bool,
}

impl LargeCase {
    fn label(&self) -> String {
        let perms = if self.per_node_perms { " per-node perms" } else { "" };
        format!("multiphase d{} {:?}{perms}", self.d, self.dims)
    }

    /// Builds the set, digests it and drops it again, so at most one
    /// large set is alive at a time.
    fn digest(&self) -> u64 {
        let mut programs = build_multiphase_programs(self.d, self.dims, 8);
        if self.per_node_perms {
            unshare_perms(&mut programs);
        }
        compiled_digest(&programs, &exchange_memories(self.d, 8))
    }
}

/// The d9 sets, cheap enough for a debug build.
const D9_CASES: [LargeCase; 2] = [
    LargeCase { d: 9, dims: &[5, 4], per_node_perms: false },
    LargeCase { d: 9, dims: &[5, 4], per_node_perms: true },
];

/// The three `bigcube_cold` partitions (1.17 M, 1.17 M and 0.48 M ops).
const D11_CASES: [LargeCase; 3] = [
    LargeCase { d: 11, dims: &[5, 6], per_node_perms: false },
    LargeCase { d: 11, dims: &[6, 5], per_node_perms: false },
    LargeCase { d: 11, dims: &[4, 4, 3], per_node_perms: false },
];

/// `compiled_digest` of [`D9_CASES`] and [`D11_CASES`], recorded on
/// d0817c6 (the walk with a slot-map pre-pass and a counting-sorted
/// receiver fixup), before the compiler numbered slots as it walked.
const D9_DIGESTS: [(&str, u64); 2] = [
    ("multiphase d9 [5, 4]", 7329571951127674544),
    ("multiphase d9 [5, 4] per-node perms", 13423478855544742334),
];
const D11_DIGESTS: [(&str, u64); 3] = [
    ("multiphase d11 [5, 6]", 10955465116518331062),
    ("multiphase d11 [6, 5]", 8246309236180171400),
    ("multiphase d11 [4, 4, 3]", 9238644537722827516),
];

fn assert_large_digests(cases: &[LargeCase], frozen: &[(&str, u64)]) {
    assert_eq!(cases.len(), frozen.len(), "regenerate with --ignored print_digests");
    for (case, &(frozen_label, digest)) in cases.iter().zip(frozen) {
        assert_eq!(case.label(), frozen_label);
        assert_eq!(case.digest(), digest, "{frozen_label}");
    }
}

/// The d9 builder sets, shared and per-node permutations, compile to
/// the frozen tables.
#[test]
fn d9_builder_programs_compile_to_frozen_tables() {
    assert_large_digests(&D9_CASES, &D9_DIGESTS);
}

/// The d11 builder sets compile to the frozen tables. Ignored in the
/// default (debug) suite, where it takes about 3 s and over 100 MB,
/// ten times the rest of this file; CI runs it with `cargo test
/// --release -p mce-simnet --test compile_pipeline -- --ignored
/// d11_builder`.
#[test]
#[ignore]
fn d11_builder_programs_compile_to_frozen_tables() {
    assert_large_digests(&D11_CASES, &D11_DIGESTS);
}

/// Prints [`BUILDER_DIGESTS`], [`D9_DIGESTS`] and [`D11_DIGESTS`] as
/// source.
#[test]
#[ignore]
fn print_digests() {
    let cases = builder_cases();
    println!("const BUILDER_DIGESTS: [(&str, u64); {}] = [", cases.len());
    for (label, programs, memories) in &cases {
        println!("    ({label:?}, {}),", compiled_digest(programs, memories));
    }
    println!("];");
    for (name, large) in [("D9_DIGESTS", &D9_CASES[..]), ("D11_DIGESTS", &D11_CASES[..])] {
        println!("const {name}: [(&str, u64); {}] = [", large.len());
        for case in large {
            println!("    ({:?}, {}),", case.label(), case.digest());
        }
        println!("];");
    }
}

fn tiny_set(stamp: u8) -> (Arc<Vec<Program>>, Vec<Vec<u8>>) {
    // Distinct content per stamp so sets are genuinely different
    // workloads, not just different Arcs.
    let programs = Arc::new(build_multiphase_programs(2, &[1, 1], 1 + stamp as usize % 3));
    let memories = exchange_memories(2, 1 + stamp as usize % 3);
    (programs, memories)
}

/// Regression for the old FIFO eviction: a hot program set rerun
/// between interlopers must stay in the compile cache however many
/// distinct sets pass through (FIFO evicted it once its slots filled;
/// LRU never does, because every rerun touches it).
#[test]
fn hot_compile_survives_interloper_eviction_pressure() {
    let cfg = SimConfig::ipsc860(2);
    let mut arena = SimArena::new();
    let (hot, hot_mem) = tiny_set(0);
    let first = arena.run_shared(&cfg, &hot, hot_mem.clone()).unwrap();
    assert_eq!(first.stats.compile_misses, 1, "first sight compiles");
    // Keep the interloper Arcs alive so none of their cache entries
    // dangle (entries pin their sets, but dropping the last external
    // Arc would let a later allocation reuse the address).
    let mut keep = Vec::new();
    for i in 0..40u8 {
        let (interloper, mem) = tiny_set(i + 1);
        arena.run_shared(&cfg, &interloper, mem).unwrap();
        keep.push(interloper);
        let rerun = arena.run_shared(&cfg, &hot, hot_mem.clone()).unwrap();
        assert_eq!(rerun.stats.compile_misses, 0, "hot set evicted after {} interlopers", i + 1);
        assert_eq!(rerun.stats.compile_shared_hits, 1);
        assert_eq!(rerun.stats.compile_local_hits, 0, "there is no per-arena memo");
    }
}

/// The process-wide cache serves a set compiled by *another* arena:
/// the second arena's first run is a shared hit, not a compile.
#[test]
fn shared_cache_serves_sets_across_arenas() {
    let cfg = SimConfig::ipsc860(3);
    let programs = Arc::new(build_multiphase_programs(3, &[2, 1], 4));
    let memories = exchange_memories(3, 4);
    let mut first_arena = SimArena::new();
    let cold = first_arena.run_shared(&cfg, &programs, memories.clone()).unwrap();
    assert_eq!(cold.stats.compile_misses, 1);
    let mut second_arena = SimArena::new();
    let warm = second_arena.run_shared(&cfg, &programs, memories.clone()).unwrap();
    assert_eq!(
        (warm.stats.compile_shared_hits, warm.stats.compile_misses),
        (1, 0),
        "second arena must reuse the first arena's compilation"
    );
    // And the results agree bit for bit.
    assert_eq!(cold.stats, warm.stats);
    assert_eq!(cold.memories, warm.memories);
}

/// The acceptance pin: a `SimBatch` sweep performs exactly one compile
/// per distinct shared program set, no matter how many replicates or
/// worker arenas are involved.
#[test]
fn batch_sweep_compiles_each_distinct_set_exactly_once() {
    let d = 7u32;
    let m = 4usize;
    let sets = [
        Arc::new(build_multiphase_programs(d, &[3, 4], m)),
        Arc::new(build_multiphase_programs(d, &[4, 3], m)),
    ];
    let memories = Arc::new(exchange_memories(d, m));
    let mut batch = SimBatch::new(SimConfig::ipsc860(d));
    let ranges: Vec<_> = sets.iter().map(|s| batch.seed_sweep(0.02, 1..=3, s, &memories)).collect();
    let results = batch.run();
    for (set_idx, range) in ranges.into_iter().enumerate() {
        let stats: Vec<_> =
            results[range].iter().map(|r| r.as_ref().unwrap().stats.clone()).collect();
        let misses: u64 = stats.iter().map(|s| s.compile_misses).sum();
        let hits: u64 = stats.iter().map(|s| s.compile_shared_hits).sum();
        assert_eq!(misses, 1, "set {set_idx}: exactly one compile per distinct set");
        assert_eq!(hits, 2, "set {set_idx}: every other replicate hits a cache");
        assert!(stats.iter().all(|s| s.compile_ns > 0), "set {set_idx}: timing recorded");
    }
}
