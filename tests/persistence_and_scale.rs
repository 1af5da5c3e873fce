//! Planner persistence ("the optimal combination stored for repeated
//! future use", §6: a `PlanHull` through JSON) and large-scale
//! thread-fabric stress.

use multiphase_exchange::exchange::thread_fabric::thread_complete_exchange;
use multiphase_exchange::exchange::verify::{stamped_memories, verify_complete_exchange};
use multiphase_exchange::model::{ConditionSummary, MachineParams};
use multiphase_exchange::plan::PlanHull;
use multiphase_exchange::simnet::config::SwitchingMode;

/// The planner's hull serializes to JSON and answers identically after
/// a round trip — the paper's "done only once and stored" usage.
#[test]
fn planner_roundtrips_through_json() {
    let d = 7u32;
    let hull = PlanHull::build(
        &MachineParams::ipsc860(),
        SwitchingMode::Circuit,
        d,
        &ConditionSummary::noop(d),
    );
    let json = serde_json::to_string(&hull).expect("serialize");
    let back: PlanHull = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, hull);
    for m in (0..=400usize).step_by(13) {
        let (a, b) = (hull.face(m as f64), back.face(m as f64));
        assert_eq!(a.partition, b.partition, "m={m}");
        assert_eq!(a.time_at(m as f64).to_bits(), b.time_at(m as f64).to_bits(), "m={m}");
    }
    // The stored table is small: a handful of hull faces.
    assert!(hull.faces.len() <= 6);
}

/// 64 real OS threads exchanging simultaneously: the crossbeam fabric
/// must neither deadlock nor corrupt data at the paper's d=6 scale.
#[test]
fn thread_fabric_sixty_four_nodes() {
    let d = 6u32;
    let m = 32usize;
    for dims in [vec![3u32, 3], vec![6], vec![2, 2, 2]] {
        let out = thread_complete_exchange(d, &dims, stamped_memories(d, m), m);
        assert!(verify_complete_exchange(d, m, &out).is_empty(), "dims {dims:?} corrupted data");
    }
}

/// Repeated exchanges compose: running the complete exchange twice
/// returns every block to its origin (the exchange is an involution on
/// the (src, dst) labelling).
#[test]
fn double_exchange_is_involution() {
    use multiphase_exchange::exchange::fabric::lockstep;
    let d = 4u32;
    let m = 8usize;
    let initial = stamped_memories(d, m);
    let once = lockstep::run(d, &[2, 2], initial.clone(), m);
    let twice = lockstep::run(d, &[1, 3], once, m);
    assert_eq!(twice, initial);
}
