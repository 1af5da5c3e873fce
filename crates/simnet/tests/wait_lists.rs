//! The per-link wait lists live in the arena's link table and are
//! recycled with it: registrations a run leaves behind (a watcher that
//! started through another link stays listed until that list is next
//! drained) must not reach the next run, of the same cube or another.
//! Nothing else a run leaves in the arena may either: the reused
//! arena's result, every `SimStats` field included, is a fresh one's.

use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_simnet::conformance::hotspot_condition;
use mce_simnet::{SimArena, SimConfig, SimResult};

fn contended(arena: &mut SimArena, d: u32, dims: &[u32]) -> SimResult {
    let cfg = SimConfig::ipsc860(d).with_netcond(hotspot_condition(d, 1 << (d - 1)));
    let programs = build_multiphase_programs(d, dims, 16);
    let out = arena.run(&cfg, &programs, stamped_memories(d, 16)).unwrap();
    assert!(out.stats.edge_contention_events > 0, "d{d} {dims:?} never waited on a link");
    out
}

#[test]
fn one_arena_across_runs_and_dimensions_is_a_fresh_arena_each_time() {
    let mut arena = SimArena::new();
    for (d, dims) in [(7u32, &[4u32, 3][..]), (5, &[5]), (7, &[7]), (7, &[4, 3])] {
        let reused = contended(&mut arena, d, dims);
        let fresh = contended(&mut SimArena::new(), d, dims);
        assert_eq!(reused.finish_time, fresh.finish_time, "d{d} {dims:?}");
        assert_eq!(reused.node_finish, fresh.node_finish, "d{d} {dims:?}");
        assert_eq!(reused.stats, fresh.stats, "d{d} {dims:?}");
        assert!(reused.memories == fresh.memories, "d{d} {dims:?}: memories differ");
    }
}
