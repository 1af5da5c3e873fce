//! Allocation guard for the warm path: once a condition's hull is
//! cached, answering a question about it allocates the answer's own
//! `Partition` and nothing else — no key, no quantized words, no
//! no-op summary, no copy of the query.
//!
//! The only test of this binary, so the counting allocator sees no
//! other test's threads; it counts per thread all the same.

use mce_model::{ConditionSummary, MachineParams};
use mce_plan::{FallbackPolicy, PlanEngine, PlanHull, PlanOptions, PlanQuery};
use mce_simnet::config::SwitchingMode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` (no allocation, no destructor), read with
// `try_with` so a thread being torn down is simply not counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Four conditions per dimension, none equal to another.
fn conditions(d: u32) -> Vec<ConditionSummary> {
    let links = (1usize << d) * d as usize;
    let hetero: Vec<f64> = (0..links).map(|i| 1.0 + (i % 7) as f64 * 0.2).collect();
    let mut streams = ConditionSummary::noop(d);
    streams.add_stream(0b101, 120.0, 2400.0);
    streams.add_stream((1 << d) - 1, 300.0, 2400.0);
    vec![
        ConditionSummary::noop(d),
        ConditionSummary::from_link_factors(d, &vec![1.5; links]),
        ConditionSummary::from_link_factors(d, &hetero),
        streams,
    ]
}

#[test]
fn a_warm_answer_allocates_only_its_partition() {
    let machine = MachineParams::ipsc860();
    let engine =
        PlanEngine::new(PlanOptions { fallback: FallbackPolicy::Never, ..PlanOptions::default() });
    // Size-major, dimension and condition changing on every query: no
    // answer can lean on the one before it.
    let mut queries = Vec::new();
    for i in 0..12 {
        let m = (3 + 8 * i) as f64;
        for d in [6u32, 8, 10] {
            for cond in conditions(d) {
                // A block in a boundary band re-runs the enumeration
                // fold, which allocates by design; none of these is.
                let hull = PlanHull::build(&machine, SwitchingMode::Circuit, d, &cond);
                assert!(!hull.near_boundary(m), "d{d} m={m} sits on a face edge");
                queries.push(PlanQuery::clean(d, m, machine.clone()).with_summary(cond));
            }
            queries.push(PlanQuery::clean(d, m, machine.clone()));
            queries.push(PlanQuery::clean(d, m, machine.clone()).with_store_and_forward());
        }
    }
    // One warming pass: every hull built, every summary keyed.
    let warmed: Vec<_> = queries.iter().map(|q| engine.answer(q)).collect();
    let before = engine.stats();

    for (q, expect) in queries.iter().zip(&warmed) {
        let start = allocations();
        let answer = engine.answer(q);
        let spent = allocations() - start;
        assert!(spent <= 1, "{spent} allocations answering d{} m={} {:?}", q.d, q.m, q.condition);
        assert_eq!(&answer, expect);
    }
    let after = engine.stats();
    assert_eq!(after.hits - before.hits, queries.len() as u64);
    assert_eq!(after.misses, before.misses);
}
