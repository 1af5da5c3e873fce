//! Event scheduling: one binary min-heap.
//!
//! The engine's pending events wait in one [`CalendarQueue`]: a
//! `BinaryHeap<Reverse<(time, seq, item)>>` that also records its
//! high-water length. Same-instant events never reach it — the
//! engine's FIFO takes them — so what the heap holds is the spread of
//! in-flight transmissions, barrier releases and background injections,
//! a few times the node count at most.
//!
//! **Determinism.** Pops return the minimum entry by the full
//! `(time, seq, item)` lexicographic order, for any interleaving of
//! pushes and pops, duplicate `(time, seq)` keys included (the item
//! breaks the tie). `crates/simnet/tests/scheduler_differential.rs`
//! pins that contract against a sorted-`Vec` reference.
//!
//! The type keeps the name of the calendar queue it replaced because
//! the perf ledger's scheduler probe constructs it as
//! `CalendarQueue::new(width, hint)`; `crates/simnet/README.md`, "Event
//! scheduler", says why the calendar lost.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// One scheduled entry: `(time, seq, item)`, ordered lexicographically.
type Entry<T> = (u64, u64, T);

/// A deterministic min-priority queue over `(time, seq, item)`
/// entries; see the module docs for the ordering contract.
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// Largest number of simultaneously pending entries since the last
    /// [`CalendarQueue::clear`].
    peak: usize,
}

impl<T: Ord> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue { heap: BinaryHeap::new(), peak: 0 }
    }
}

impl<T: Copy + Ord> CalendarQueue<T> {
    /// An empty queue with room for `hint` entries. `width` is ignored:
    /// it was the calendar's bucket width, and the argument stays until
    /// the perf ledger's probe, which passes it, stops doing so.
    pub fn new(width: u64, hint: usize) -> Self {
        let mut q = CalendarQueue::default();
        q.reset(width, hint);
        q
    }

    /// [`CalendarQueue::clear`], then make room for `hint` entries.
    /// `width` is ignored, as in [`CalendarQueue::new`].
    pub fn reset(&mut self, _width: u64, hint: usize) {
        self.clear();
        self.heap.reserve(hint);
    }

    /// Drop all entries and zero the peak, keeping the allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.peak = 0;
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of simultaneously pending entries since the last
    /// clear (see `SimStats::sched_peak_pending`).
    pub fn peak_pending(&self) -> u64 {
        self.peak as u64
    }

    /// Schedule `item` at `(time, seq)`.
    #[inline]
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        self.heap.push(Reverse((time, seq, item)));
        self.peak = self.peak.max(self.heap.len());
    }

    /// The minimum pending entry, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<Entry<T>> {
        self.heap.peek().map(|e| e.0)
    }

    /// Remove and return the minimum pending entry.
    #[inline]
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.heap.pop().map(|e| e.0)
    }

    /// Remove and return the minimum pending entry only when it is
    /// scheduled exactly at `time` — the event loop's "drain the
    /// current instant first" probe.
    #[inline]
    pub fn pop_if_time(&mut self, time: u64) -> Option<Entry<T>> {
        let top = self.heap.peek_mut()?;
        if top.0 .0 == time {
            Some(PeekMut::pop(top).0)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64 stream for in-module tests.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn drain<T: Copy + Ord>(q: &mut CalendarQueue<T>) -> Vec<Entry<T>> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn scheduler_pops_in_time_seq_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new(100, 8);
        let mut rng = Rng(7);
        let mut expect = Vec::new();
        for seq in 0..5_000u64 {
            let t = rng.next() % 1_000_000;
            q.push(t, seq, (seq % 17) as u32);
            expect.push((t, seq, (seq % 17) as u32));
        }
        expect.sort_unstable();
        assert_eq!(q.len(), 5_000);
        assert_eq!(drain(&mut q), expect);
        assert!(q.is_empty());
    }

    #[test]
    fn scheduler_orders_duplicate_times_by_seq_and_item() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new(10, 4);
        q.push(500, 3, 9);
        q.push(500, 1, 7);
        q.push(500, 2, 1);
        q.push(500, 1, 2); // duplicate (time, seq): item breaks the tie
        assert_eq!(drain(&mut q), vec![(500, 1, 2), (500, 1, 7), (500, 2, 1), (500, 3, 9)]);
    }

    #[test]
    fn scheduler_peek_matches_pop() {
        let mut q: CalendarQueue<u8> = CalendarQueue::new(50, 4);
        let mut rng = Rng(99);
        for seq in 0..300u64 {
            q.push(rng.next() % 10_000, seq, (seq % 3) as u8);
        }
        while !q.is_empty() {
            let peeked = q.peek();
            assert_eq!(peeked, q.pop());
        }
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn scheduler_interleaves_pushes_and_pops() {
        // Mirror the engine's pattern: pop an event, push a handful of
        // future events relative to it.
        let mut q: CalendarQueue<u32> = CalendarQueue::new(1_000, 8);
        let mut seq = 0u64;
        let mut rng = Rng(3);
        for n in 0..64u64 {
            q.push(n * 10, seq, n as u32);
            seq += 1;
        }
        let mut last = (0u64, 0u64);
        let mut popped = 0usize;
        while let Some((t, s, _)) = q.pop() {
            assert!((t, s) >= last, "pop went backwards: {:?} after {:?}", (t, s), last);
            last = (t, s);
            popped += 1;
            if popped < 5_000 {
                for _ in 0..(1 + rng.next() % 2) {
                    let dur = 1 + rng.next() % 500_000;
                    q.push(t + dur, seq, (seq % 1024) as u32);
                    seq += 1;
                }
            }
        }
        assert!(popped >= 5_000, "generator starved early: {popped}");
        assert!(q.peak_pending() >= 64);
    }

    #[test]
    fn scheduler_backtracks_for_out_of_order_pushes() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new(100, 8);
        for seq in 0..20u64 {
            q.push(seq * 100, seq, 0);
        }
        for _ in 0..10 {
            q.pop();
        }
        // Earlier than everything already popped.
        q.push(5, 100, 1);
        assert_eq!(q.pop(), Some((5, 100, 1)), "late push must still pop first");
        // Earlier than the remaining entries only.
        q.push(950, 101, 2);
        assert_eq!(q.pop(), Some((950, 101, 2)));
        assert_eq!(q.pop(), Some((1000, 10, 0)));
    }

    #[test]
    fn scheduler_reset_reuses_allocations_and_zeroes_telemetry() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new(10, 4);
        for seq in 0..500u64 {
            q.push(seq * 1_000, seq, 0);
        }
        drain(&mut q);
        assert_eq!(q.peak_pending(), 500);
        q.reset(20, 4);
        assert_eq!(q.peak_pending(), 0);
        assert!(q.is_empty());
        for seq in 0..10u64 {
            q.push(seq, seq, 1);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(drain(&mut q).len(), 10);
    }

    #[test]
    fn scheduler_default_is_usable() {
        let mut q: CalendarQueue<u64> = CalendarQueue::default();
        q.push(42, 0, 7);
        q.push(7, 1, 8);
        assert_eq!(q.pop(), Some((7, 1, 8)));
        assert_eq!(q.pop(), Some((42, 0, 7)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn scheduler_handles_huge_times() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new(1 << 40, 4);
        q.push(u64::MAX - 1, 0, 0);
        q.push(1, 1, 1);
        q.push(u64::MAX, 2, 2);
        assert_eq!(q.pop(), Some((1, 1, 1)));
        assert_eq!(q.pop(), Some((u64::MAX - 1, 0, 0)));
        assert_eq!(q.pop(), Some((u64::MAX, 2, 2)));
    }
}
