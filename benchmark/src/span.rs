//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! into each layer's public functions; nothing inside `crates/` is
//! instrumented. A span holds its name, start, end, the span that was
//! open when it started (its parent) and the pass it belongs to. A
//! layer's *self time* is its spans' duration minus the part covered by
//! their direct children. With the recorder off every call is one
//! branch, so the untraced passes of a traced run measure the driver
//! alone and their difference to the traced passes is the tracing
//! overhead.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Layer name (`simnet.engine`, `core.verify.check`, ...).
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Pass the span belongs to.
    pub pass: u32,
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<u32>);

/// Inclusive and self time of one layer, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct children, ns.
    pub self_ns: u64,
}

/// The recorder. See the module docs.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    counters: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Recorder {
        Recorder::new(true)
    }

    fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Drop the previous pass's spans and counters and start pass `pass`.
    pub fn begin_pass(&mut self, pass: u32) {
        assert!(self.open.is_empty(), "pass started with spans still open");
        self.pass = pass;
        self.spans.clear();
        self.counters.clear();
    }

    /// Open a span; it becomes the parent of spans opened before the
    /// matching [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close the span `open` refers to, which must be the innermost
    /// open one.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Record a child of the innermost open span from a duration the
    /// callee measured itself (`SimStats::compile_ns`): the child is
    /// laid at the parent's start and clipped to the parent's extent so
    /// far, which is all self-time arithmetic needs.
    pub fn child(&mut self, name: &'static str, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = *self.open.last().expect("a synthesized child needs an open parent");
        let start_ns = self.spans[parent as usize].start_ns;
        let end_ns = (start_ns + duration_ns).min(self.now_ns());
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), pass: self.pass });
    }

    /// Add `value` to the pass counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += value;
        }
    }

    /// Raise the pass counter `name` to at least `value`.
    pub fn count_max(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            let slot = self.counters.entry(name).or_insert(0.0);
            *slot = slot.max(value);
        }
    }

    /// Spans of the current pass, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Counters of the current pass.
    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    /// Per-layer inclusive and self time of the current pass.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        assert!(self.open.is_empty(), "layer times read with spans still open");
        layer_times(&self.spans)
    }
}

/// Per-layer inclusive and self time of a span list.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(covered) {
        let total = s.end_ns - s.start_ns;
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += total;
        layer.self_ns += total.saturating_sub(child_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, pass: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // pass [0,100) holds engine [10,70) and verify [70,90);
        // engine holds compile [10,30). Grandchildren are charged to
        // their parent only.
        let spans = vec![
            span("pass", 0, 100, None),
            span("engine", 10, 70, Some(0)),
            span("compile", 10, 30, Some(1)),
            span("verify", 70, 90, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["pass"], LayerTime { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["engine"], LayerTime { count: 1, total_ns: 60, self_ns: 40 });
        assert_eq!(t["compile"], LayerTime { count: 1, total_ns: 20, self_ns: 20 });
        assert_eq!(t["verify"], LayerTime { count: 1, total_ns: 20, self_ns: 20 });
        let self_sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 100, "self times tile the root span");
    }

    #[test]
    fn same_named_spans_accumulate() {
        let spans = vec![
            span("pass", 0, 50, None),
            span("engine", 0, 20, Some(0)),
            span("engine", 20, 45, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["engine"], LayerTime { count: 2, total_ns: 45, self_ns: 45 });
        assert_eq!(t["pass"].self_ns, 5);
    }

    #[test]
    fn recorder_nests_and_synthesizes_children() {
        let mut rec = Recorder::on();
        rec.begin_pass(3);
        let pass = rec.enter("pass");
        let engine = rec.enter("engine");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.child("compile", 1_000_000);
        rec.exit(engine);
        rec.time("verify", || ());
        rec.exit(pass);
        rec.count("runs", 2.0);
        rec.count("runs", 1.0);
        rec.count_max("peak", 4.0);
        rec.count_max("peak", 2.0);

        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent, s.pass)).collect();
        assert_eq!(
            names,
            [
                ("pass", None, 3),
                ("engine", Some(0), 3),
                ("compile", Some(1), 3),
                ("verify", Some(0), 3)
            ]
        );
        let t = rec.layer_times();
        assert_eq!(t["compile"].total_ns, 1_000_000);
        assert_eq!(t["engine"].self_ns, t["engine"].total_ns - 1_000_000);
        assert_eq!(rec.counters()["runs"], 3.0);
        assert_eq!(rec.counters()["peak"], 4.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::off();
        rec.begin_pass(0);
        let open = rec.enter("pass");
        rec.child("compile", 5);
        rec.count("runs", 1.0);
        rec.exit(open);
        assert_eq!(rec.time("x", || 7), 7);
        assert!(rec.spans().is_empty() && rec.counters().is_empty());
    }
}
