//! Edge contention demo: "very careful consideration of the
//! interconnection network is necessary if the full power of the
//! machine is to be utilized" (paper, Section 2).
//!
//! Compares three ways of doing the same all-to-all on the simulator:
//! a naive unscheduled all-to-all (ring-offset order, contends), the
//! contention-free Optimal Circuit Switched schedule, and the planned
//! multiphase schedule.
//!
//! ```text
//! cargo run --release --example contention_demo [dimension] [block_bytes]
//! ```

use multiphase_exchange::exchange::api::CompleteExchange;
use multiphase_exchange::exchange::builder::build_naive_programs;
use multiphase_exchange::exchange::verify::{stamped_memories, verify_naive_exchange};
use multiphase_exchange::simnet::{SimArena, SimConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let d: u32 = args.next().map(|s| s.parse().expect("dimension")).unwrap_or(5);
    let m: usize = args.next().map(|s| s.parse().expect("block bytes")).unwrap_or(100);
    let n = 1usize << d;

    println!("All-to-all of {m}-byte blocks on a {n}-node circuit-switched cube.\n");

    // Naive: no schedule, no pairwise sync — XOR-offset destinations
    // in ring order collide on e-cube links constantly.
    let programs = build_naive_programs(d, m);
    let mut memories = stamped_memories(d, m);
    // The naive layout wants double-size memories (send + recv areas).
    for mem in memories.iter_mut() {
        mem.resize(2 * n * m, 0);
    }
    let naive =
        SimArena::new().run(&SimConfig::ipsc860(d), &programs, memories).expect("naive run failed");
    assert!(verify_naive_exchange(d, m, &naive.memories).is_empty(), "naive data wrong");
    println!("naive unscheduled all-to-all:");
    println!("  time                   {:>10.1} us", naive.finish_time.as_us());
    println!("  edge contention events {:>10}", naive.stats.edge_contention_events);
    println!(
        "  time lost to waiting   {:>10.1} us",
        naive.stats.edge_contention_wait_ns as f64 / 1000.0
    );
    println!("  NIC serializations     {:>10}\n", naive.stats.nic_serialization_events);

    let ex = CompleteExchange::new(d);
    let ocs = ex.run_optimal(m).unwrap();
    println!("Optimal Circuit Switched schedule {{{d}}}:");
    println!("  time                   {:>10.1} us", ocs.simulated_us);
    println!("  edge contention events {:>10}", ocs.stats.edge_contention_events);
    println!("  verified               {:>10}\n", ocs.verified);

    let plan = ex.plan(m);
    let planned = ex.run_planned(m).unwrap();
    println!("planned multiphase {:?}:", plan.dims);
    println!("  time                   {:>10.1} us", planned.simulated_us);
    println!("  edge contention events {:>10}", planned.stats.edge_contention_events);
    println!("  verified               {:>10}\n", planned.verified);

    println!(
        "scheduled vs naive speedup: {:.2}x (OCS), {:.2}x (multiphase)",
        naive.finish_time.as_us() / ocs.simulated_us,
        naive.finish_time.as_us() / planned.simulated_us
    );
}
