//! The §9 future-work study, runnable: multiphase broadcast, scatter
//! and allgather, plus arbitrary-permutation round scheduling.
//!
//! ```text
//! cargo run --release --example collectives [dimension] [block_bytes]
//! ```

use multiphase_exchange::exchange::collectives::{
    allgather_memories, broadcast_memories, build_allgather_programs, build_broadcast_programs,
    build_scatter_programs, scatter_memories, verify_allgather, verify_broadcast, verify_scatter,
};
use multiphase_exchange::exchange::perm_router::{
    bit_reversal, build_permutation_programs, greedy_rounds, permutation_memories,
    round_lower_bound, verify_permutation,
};
use multiphase_exchange::model::patterns::{
    allgather_time, best_pattern_partition, broadcast_time, scatter_time,
};
use multiphase_exchange::model::MachineParams;
use multiphase_exchange::simnet::{SimArena, SimConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let d: u32 = args.next().map(|s| s.parse().expect("dimension")).unwrap_or(5);
    let m: usize = args.next().map(|s| s.parse().expect("block bytes")).unwrap_or(64);
    let params = MachineParams::ipsc860();

    println!("Collective patterns on a {}-node cube, {m}-byte blocks:\n", 1u64 << d);
    println!(
        "{:<11} {:<16} {:>12} {:>12} {:>9}",
        "pattern", "best partition", "model(us)", "sim(us)", "verified"
    );

    type CostFn = fn(&MachineParams, f64, u32, &[u32]) -> f64;
    let entries: [(&str, CostFn); 3] = [
        ("broadcast", broadcast_time as CostFn),
        ("scatter", scatter_time as CostFn),
        ("allgather", allgather_time as CostFn),
    ];
    for (name, cost) in entries {
        let (best, predicted) = best_pattern_partition(&params, m as f64, d, cost);
        let (programs, memories) = match name {
            "broadcast" => (build_broadcast_programs(d, &best, m), broadcast_memories(d, m)),
            "scatter" => (build_scatter_programs(d, &best, m), scatter_memories(d, m)),
            _ => (build_allgather_programs(d, &best, m), allgather_memories(d, m)),
        };
        let result = SimArena::new()
            .run(&SimConfig::ipsc860(d), &programs, memories)
            .expect("collective failed");
        let ok = match name {
            "broadcast" => verify_broadcast(d, m, &result.memories),
            "scatter" => verify_scatter(d, m, &result.memories),
            _ => verify_allgather(d, m, &result.memories),
        };
        println!(
            "{:<11} {:<16} {:>12.1} {:>12.1} {:>9}",
            name,
            format!("{best:?}"),
            predicted,
            result.finish_time.as_us(),
            if ok { "yes" } else { "NO" }
        );
    }

    println!("\nFinding: for these patterns the hull degenerates — the binomial-tree");
    println!("plans already move minimal bytes, so unlike the complete exchange there");
    println!("is no volume-vs-startup trade to exploit.\n");

    // Arbitrary permutation scheduling (the §9 open question).
    let perm = bit_reversal(d);
    let rounds = greedy_rounds(&perm);
    println!(
        "Bit-reversal permutation: {} circuits, {} contention-free rounds (lower bound {}).",
        perm.len(),
        rounds.len(),
        round_lower_bound(&perm)
    );
    let programs = build_permutation_programs(d, &perm, m);
    let r = SimArena::new()
        .run(&SimConfig::ipsc860(d), &programs, permutation_memories(d, &perm, m))
        .expect("permutation failed");
    assert!(verify_permutation(&perm, m, &r.memories));
    println!(
        "Scheduled run: {:.1} us, {} edge-contention events (guaranteed zero).",
        r.finish_time.as_us(),
        r.stats.edge_contention_events
    );
}
