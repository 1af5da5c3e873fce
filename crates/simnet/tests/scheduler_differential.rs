//! The event queue's contract, pinned against a sorted-`Vec`
//! reference: for any interleaving of pushes, pops, peeks and
//! `pop_if_time` probes — duplicate times, duplicate `(time, seq)` keys
//! and times up to `u64::MAX` included — the queue hands out exactly
//! the reference's minimum by the full `(time, seq, item)` order, and a
//! reset queue behaves like a fresh one. The engine-level determinism
//! snapshots in `mce-core` depend on this holding for every stream.

use mce_simnet::sched::CalendarQueue;
use proptest::prelude::*;

type Entry = (u64, u64, u32);

/// The obviously correct priority queue: a `Vec` kept sorted
/// descending, so the minimum is its last element.
#[derive(Default)]
struct Reference(Vec<Entry>);

impl Reference {
    fn push(&mut self, e: Entry) {
        let at = self.0.partition_point(|x| *x > e);
        self.0.insert(at, e);
    }

    fn peek(&self) -> Option<Entry> {
        self.0.last().copied()
    }

    fn pop(&mut self) -> Option<Entry> {
        self.0.pop()
    }
}

/// A push time from a seed: mostly a small cluster (duplicate times),
/// sometimes far ahead, sometimes at the very top of the range.
fn time_of(seed: u64) -> u64 {
    match seed % 8 {
        0 => seed * 1_001,
        1 => u64::MAX - seed % 3,
        _ => seed % 512,
    }
}

/// Drive the queue and the reference through one op stream, checking
/// every answer. Per element `(seed, kind)`: `kind % 4 == 0` pops,
/// `kind % 4 == 1` probes `pop_if_time` (at the head's time when
/// `seed` is even, at `time_of(seed)` otherwise), anything else pushes
/// at `time_of(seed)`; every third push reuses the previous sequence
/// number so duplicate `(time, seq)` keys occur and the item breaks the
/// tie.
fn run_contract(q: &mut CalendarQueue<u32>, ops: &[(u64, u8)]) {
    let mut reference = Reference::default();
    let mut seq = 0u64;
    for &(seed, kind) in ops {
        match kind % 4 {
            0 => {
                let expect = reference.pop();
                assert_eq!(q.peek(), expect, "peek is not the minimum");
                assert_eq!(q.pop(), expect, "pop is not the minimum");
            }
            1 => {
                let head = reference.peek();
                let probe = match head {
                    Some((t, _, _)) if seed % 2 == 0 => t,
                    _ => time_of(seed),
                };
                let expect = match head {
                    Some(e) if e.0 == probe => reference.pop(),
                    _ => None,
                };
                assert_eq!(q.pop_if_time(probe), expect, "pop_if_time({probe}) with head {head:?}");
            }
            _ => {
                if kind % 3 != 0 {
                    seq += 1;
                }
                let e = (time_of(seed), seq, (seed % 11) as u32);
                q.push(e.0, e.1, e.2);
                reference.push(e);
            }
        }
        assert_eq!(q.len(), reference.0.len());
    }
    while let Some(expect) = reference.pop() {
        assert_eq!(q.pop(), Some(expect), "drain diverged");
    }
    assert!(q.is_empty());
    assert_eq!(q.pop(), None);
}

proptest! {
    #[test]
    fn scheduler_matches_sorted_vec_reference(
        ops in proptest::collection::vec((0u64..100_000, 0u8..8), 1..400),
        hint in 0usize..64,
    ) {
        run_contract(&mut CalendarQueue::new(0, hint), &ops);
    }

    /// Engine-shaped stream: monotone pops, each followed by a few
    /// pushes one duration ahead of the popped time.
    #[test]
    fn scheduler_matches_reference_on_monotone_streams(
        durs in proptest::collection::vec(1u64..300_000, 1..300),
    ) {
        let mut q: CalendarQueue<u32> = CalendarQueue::default();
        let mut reference = Reference::default();
        q.push(0, 0, 0);
        reference.push((0, 0, 0));
        let mut seq = 0u64;
        let mut i = 0usize;
        loop {
            let expect = reference.pop();
            assert_eq!(q.pop(), expect);
            let Some((t, _, _)) = expect else { break };
            while i < durs.len() && i % 3 != 2 {
                seq += 1;
                let e = (t + durs[i], seq, (i % 5) as u32);
                q.push(e.0, e.1, e.2);
                reference.push(e);
                i += 1;
            }
            if i < durs.len() {
                i += 1; // consume the "stop" draw
            }
        }
        assert!(q.is_empty());
    }
}

/// The reuse cycle the arena drives: a queue reset after any stream —
/// entries left pending included — behaves like a fresh queue, and its
/// peak restarts from zero.
#[test]
fn scheduler_reset_matches_fresh_queue() {
    let ops: Vec<(u64, u8)> =
        (0..200u64).map(|i| (i.wrapping_mul(0x9E37_79B9) % 65_536, (i % 7) as u8)).collect();
    let mut reused: CalendarQueue<u32> = CalendarQueue::new(64, 8);
    for round in 0..3 {
        // Leave entries behind before the reset.
        for k in 0..50u64 {
            reused.push(k * 13 % 7, k, round);
        }
        reused.reset(97, 4);
        assert!(reused.is_empty(), "round {round}");
        assert_eq!(reused.peak_pending(), 0, "round {round}");
        let mut fresh: CalendarQueue<u32> = CalendarQueue::new(97, 4);
        run_contract(&mut reused, &ops);
        run_contract(&mut fresh, &ops);
        assert_eq!(reused.peak_pending(), fresh.peak_pending(), "round {round}");
    }
}

/// `pop_if_time` takes the head only at the head's own time: not
/// earlier, not later, not from an empty queue.
#[test]
fn pop_if_time_takes_only_the_head_at_its_time() {
    let mut q: CalendarQueue<u32> = CalendarQueue::default();
    assert_eq!(q.pop_if_time(0), None);
    q.push(20, 2, 0);
    q.push(10, 1, 0);
    q.push(10, 3, 0);
    assert_eq!(q.pop_if_time(5), None);
    assert_eq!(q.pop_if_time(20), None, "20 is pending but not the head");
    assert_eq!(q.len(), 3);
    assert_eq!(q.pop_if_time(10), Some((10, 1, 0)));
    assert_eq!(q.pop_if_time(10), Some((10, 3, 0)));
    assert_eq!(q.pop_if_time(10), None);
    assert_eq!(q.pop_if_time(20), Some((20, 2, 0)));
    assert!(q.is_empty());
}

/// The top of the time range orders like any other time.
#[test]
fn u64_max_times_order_last() {
    let mut q: CalendarQueue<u32> = CalendarQueue::default();
    q.push(u64::MAX, 1, 0);
    q.push(u64::MAX, 0, 9);
    q.push(u64::MAX - 1, 5, 0);
    q.push(0, u64::MAX, 0);
    assert_eq!(q.peak_pending(), 4);
    assert_eq!(q.pop(), Some((0, u64::MAX, 0)));
    assert_eq!(q.pop(), Some((u64::MAX - 1, 5, 0)));
    assert_eq!(q.pop_if_time(u64::MAX), Some((u64::MAX, 0, 9)));
    assert_eq!(q.peek(), Some((u64::MAX, 1, 0)));
    assert_eq!(q.pop(), Some((u64::MAX, 1, 0)));
    assert_eq!(q.pop(), None);
}
