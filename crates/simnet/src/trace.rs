//! Structured, opt-in trace subsystem.
//!
//! The engine knows every circuit establishment, contention wait, NIC
//! serialization stall, retransmission backoff and barrier — but its
//! default output is aggregate [`SimStats`](crate::SimStats). This
//! module captures the per-event view as **track events**: every event
//! carries its full extent (start *and* end) at emission time, so
//! there is no start/end pairing to reconstruct:
//!
//! * [`TraceEvent::LinkHold`] — one span per directed link a circuit
//!   (or background stream) holds, for exactly the hold interval;
//! * [`TraceEvent::NicSend`] / [`TraceEvent::NicRecv`] — per-NIC
//!   serialization spans mirroring the engine's outgoing/incoming
//!   intervals (Section 7.2's concurrency rule);
//! * [`TraceEvent::Wait`] — per-node blocked spans, tagged with the
//!   cause (edge contention, NIC lapse, or barrier);
//! * [`TraceEvent::Barrier`] — the per-job barrier span (entry of the
//!   last straggler to release);
//! * [`TraceEvent::Flow`] — flow-control instants per job: drop,
//!   backoff, retransmit, congestion-window change;
//! * [`TraceEvent::ForcedDrop`] — a FORCED message discarded for want
//!   of a posted receive;
//! * [`TraceEvent::ShardWindow`] — reserved for shard window spans.
//!   Tracing forces the sequential engine path (see [`crate::shard`]),
//!   so current runs never emit it; the variant pins the track model
//!   for a future shard-merged sink.
//!
//! Events land in a bounded [`TraceRing`] (configurable capacity,
//! oldest-first eviction, overflow counted in
//! [`SimStats::trace_events_dropped`](crate::SimStats::trace_events_dropped)).
//! Tracing is **zero-perturbation**: with the sink disabled the engine
//! is bit-identical to an untraced build (pinned by the determinism
//! snapshots), and with it enabled the simulated behaviour —
//! stats and memories — is bit-identical to a trace-off run of the
//! same config.
//!
//! Two exporters turn a captured trace into offline artifacts:
//! [`export_perfetto_json`] writes Chrome/Perfetto trace-event JSON
//! (one track per link/NIC/node/job; loadable in `ui.perfetto.dev`
//! without network access), and [`export_html`] writes a fully
//! self-contained single-file HTML timeline (inline SVG lanes, native
//! hover tooltips, no scripts or external resources). The inspector
//! functions ([`link_utilization`], [`top_stalls`], [`critical_path`])
//! derive summary views: a per-dimension link-utilization timeline,
//! the top-k longest stalls, and a greedy critical-path chain of
//! blocking spans.
//!
//! # What an export may cost
//!
//! Both exporters write the trace **once**, into one output `String`
//! reserved from `events.len()`, and allocate nothing per event:
//!
//! * the distinct tracks are found in one hashing pass and only those
//!   few hundred are sorted (`TrackTable`); an event's lane is then an
//!   index, and its `"pid":P,"tid":T` a slice rendered once per track;
//! * an event's name is a `Display` streamed into the output through
//!   an escaping `fmt::Write` adapter — no name `String`, no escaped
//!   copy, no per-row `format!`;
//! * punctuation and `args` are literals, integers are pushed digit by
//!   digit, and a time is `ns / 1000 '.' ns % 1000` (see `push_us` for
//!   why that is the float formatting it replaces, byte for byte).
//!
//! A per-event `format!`, `to_string()` or `String::new()` in either
//! exporter's event loop is a regression against this contract. The
//! bytes themselves are pinned twice: against the past by the golden
//! digests in `crates/bench/tests/trace_golden.rs`, and against the
//! per-event-`String` implementation this one replaced, kept test-only
//! in `trace/reference.rs`, by a differential property test.

use crate::fxhash::FxHashMap;
use crate::message::Tag;
use crate::time::SimTime;
use mce_hypercube::NodeId;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};

#[cfg(test)]
mod reference;

/// Configuration of the trace sink: currently just the ring capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events retained; older events are evicted first and
    /// counted in [`SimStats::trace_events_dropped`](crate::SimStats::trace_events_dropped).
    pub capacity: usize,
}

impl Default for TraceConfig {
    /// One-mebi-event ring — comfortably more than any study scenario
    /// in this repository emits, so default captures are lossless.
    fn default() -> Self {
        TraceConfig { capacity: 1 << 20 }
    }
}

impl TraceConfig {
    /// A config with an explicit ring capacity (min 1).
    pub fn with_capacity(capacity: usize) -> TraceConfig {
        TraceConfig { capacity: capacity.max(1) }
    }
}

/// Why a node was blocked (the [`TraceEvent::Wait`] cause).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitCause {
    /// Waiting for a busy directed link (edge contention).
    Contention,
    /// Serialized by the NIC concurrency rule (Section 7.2).
    NicLapse,
    /// Waiting in a barrier for the other nodes of the job.
    Barrier,
}

impl WaitCause {
    /// Short human label, used by both exporters.
    pub fn label(self) -> &'static str {
        match self {
            WaitCause::Contention => "contention wait",
            WaitCause::NicLapse => "nic lapse",
            WaitCause::Barrier => "barrier wait",
        }
    }
}

/// A flow-control instant's kind (the [`TraceEvent::Flow`] payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// A transmission was refused or lost.
    Drop,
    /// The source backed off; the retransmission fires at `until`.
    Backoff {
        /// When the scheduled retransmission fires.
        until: SimTime,
    },
    /// A retransmission re-entered the issue queue.
    Retransmit,
    /// The source's congestion window changed.
    Cwnd {
        /// The new window value.
        window: u32,
    },
}

impl FlowKind {
    /// Short human label, used by both exporters.
    pub fn label(self) -> &'static str {
        match self {
            FlowKind::Drop => "drop",
            FlowKind::Backoff { .. } => "backoff",
            FlowKind::Retransmit => "retransmit",
            FlowKind::Cwnd { .. } => "cwnd",
        }
    }
}

/// One structured trace event. Spans carry both endpoints; instants
/// carry one timestamp. Node ids are engine *context* ids (equal to
/// physical node ids on single-job runs); link endpoints are always
/// physical nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transmission held the directed link `from -> to` for
    /// `[start, end]` (one event per link of the circuit's path, or
    /// per hop under store-and-forward).
    LinkHold {
        /// Link tail (physical node).
        from: NodeId,
        /// Link head (physical node).
        to: NodeId,
        /// Hold start.
        start: SimTime,
        /// Hold end (link release).
        end: SimTime,
        /// Message tag.
        tag: Tag,
        /// Payload size in bytes.
        bytes: usize,
        /// Whether this is background traffic (see [`crate::netcond`]).
        background: bool,
    },
    /// A node's NIC was busy sending for `[start, end]`.
    NicSend {
        /// Sending context.
        node: NodeId,
        /// Send start.
        start: SimTime,
        /// Send end.
        end: SimTime,
        /// Message tag.
        tag: Tag,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A node's NIC was busy receiving for `[start, end]`.
    NicRecv {
        /// Receiving context.
        node: NodeId,
        /// Receive start.
        start: SimTime,
        /// Receive end.
        end: SimTime,
        /// Message tag.
        tag: Tag,
    },
    /// A node was blocked for `[start, end]`.
    Wait {
        /// The blocked context.
        node: NodeId,
        /// Why it was blocked.
        cause: WaitCause,
        /// When it first wanted to proceed.
        start: SimTime,
        /// When it was released.
        end: SimTime,
    },
    /// One job's barrier: last entry at `start`, release at `end`.
    Barrier {
        /// Job index (0 on single-job runs).
        job: u32,
        /// Entry time of the last straggler.
        start: SimTime,
        /// Release time.
        end: SimTime,
    },
    /// A flow-control instant (see [`FlowKind`]).
    Flow {
        /// The job whose source reacted.
        job: u32,
        /// The source context.
        node: NodeId,
        /// What happened.
        kind: FlowKind,
        /// When.
        at: SimTime,
    },
    /// A FORCED message arrived with no posted receive and was
    /// discarded.
    ForcedDrop {
        /// Sending context.
        src: NodeId,
        /// Receiving context that discarded the message.
        dst: NodeId,
        /// Message tag.
        tag: Tag,
        /// Drop time.
        at: SimTime,
    },
    /// Reserved: one shard's phase window (never emitted today —
    /// tracing pins the sequential path; see the module docs).
    ShardWindow {
        /// Shard index.
        shard: u32,
        /// Window start.
        start: SimTime,
        /// Window end.
        end: SimTime,
    },
}

impl TraceEvent {
    /// The event's `[start, end]` interval in ns, or `None` for
    /// instants.
    pub fn span_ns(&self) -> Option<(u64, u64)> {
        match *self {
            TraceEvent::LinkHold { start, end, .. }
            | TraceEvent::NicSend { start, end, .. }
            | TraceEvent::NicRecv { start, end, .. }
            | TraceEvent::Wait { start, end, .. }
            | TraceEvent::Barrier { start, end, .. }
            | TraceEvent::ShardWindow { start, end, .. } => Some((start.as_ns(), end.as_ns())),
            TraceEvent::Flow { .. } | TraceEvent::ForcedDrop { .. } => None,
        }
    }

    /// The event's timestamp in ns: span start, or the instant time.
    pub fn at_ns(&self) -> u64 {
        match *self {
            TraceEvent::Flow { at, .. } | TraceEvent::ForcedDrop { at, .. } => at.as_ns(),
            _ => self.span_ns().expect("span").0,
        }
    }
}

/// Bounded event ring: oldest-first eviction, evictions counted.
#[derive(Debug, Default)]
pub struct TraceRing {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing { buf: VecDeque::with_capacity(capacity.min(4096)), capacity, dropped: 0 }
    }

    /// Append an event, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Move the retained events out, oldest first. The ring's buffer
    /// becomes the result (rotated in place if eviction wrapped it);
    /// no event is copied a second time.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::from(std::mem::take(&mut self.buf))
    }
}

/// The engine-side sink: the ring plus per-context scratch used to
/// reconstruct barrier-wait spans (entry time per context, emitted at
/// release). Built once per traced run by the engine.
#[derive(Debug)]
pub struct TraceSink {
    /// The event ring.
    pub ring: TraceRing,
    /// Barrier entry time per context (valid while the context sits in
    /// a barrier).
    pub(crate) barrier_entry: Vec<SimTime>,
}

impl TraceSink {
    /// A sink for `contexts` simulation contexts.
    pub fn new(cfg: &TraceConfig, contexts: usize) -> TraceSink {
        TraceSink {
            ring: TraceRing::new(cfg.capacity),
            barrier_entry: vec![SimTime::ZERO; contexts],
        }
    }

    /// Append one event.
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        self.ring.push(ev);
    }
}

/// Dimension of the directed link `from -> to` (they differ in exactly
/// one bit).
fn link_dim(from: NodeId, to: NodeId) -> u32 {
    (from.0 ^ to.0).trailing_zeros()
}

/// A display track: the `(process, thread)` lane an event renders on.
/// Lanes are laid out in this type's order (kind, then ids); its
/// `Display` is the human lane label (link lanes always contain the
/// word "link").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Track {
    Link { from: u32, to: u32 },
    NicSend { node: u32 },
    NicRecv { node: u32 },
    Node { node: u32 },
    Job { job: u32 },
    Shard { shard: u32 },
}

impl Track {
    fn of(ev: &TraceEvent) -> Track {
        match *ev {
            TraceEvent::LinkHold { from, to, .. } => Track::Link { from: from.0, to: to.0 },
            TraceEvent::NicSend { node, .. } => Track::NicSend { node: node.0 },
            TraceEvent::NicRecv { node, .. } => Track::NicRecv { node: node.0 },
            TraceEvent::Wait { node, .. } => Track::Node { node: node.0 },
            TraceEvent::ForcedDrop { dst, .. } => Track::Node { node: dst.0 },
            TraceEvent::Barrier { job, .. } | TraceEvent::Flow { job, .. } => Track::Job { job },
            TraceEvent::ShardWindow { shard, .. } => Track::Shard { shard },
        }
    }

    /// Perfetto process id grouping tracks of one kind (non-decreasing
    /// in track order).
    fn pid(&self) -> u32 {
        match self {
            Track::Link { .. } => 1,
            Track::NicSend { .. } | Track::NicRecv { .. } => 2,
            Track::Node { .. } => 3,
            Track::Job { .. } => 4,
            Track::Shard { .. } => 5,
        }
    }

    fn process_name(pid: u32) -> &'static str {
        match pid {
            1 => "links",
            2 => "nics",
            3 => "nodes",
            4 => "jobs",
            _ => "shards",
        }
    }
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Track::Link { from, to } => {
                write!(f, "link {from}->{to} (dim {})", link_dim(NodeId(from), NodeId(to)))
            }
            Track::NicSend { node } => write!(f, "nic {node} send"),
            Track::NicRecv { node } => write!(f, "nic {node} recv"),
            Track::Node { node } => write!(f, "node {node}"),
            Track::Job { job } => write!(f, "job {job}"),
            Track::Shard { shard } => write!(f, "shard {shard}"),
        }
    }
}

/// An event's display name, shared by both exporters and
/// [`critical_path`]. A `Display`, so an exporter streams it into its
/// output (through an escaping adapter) without an owned `String`.
struct EventName<'a>(&'a TraceEvent);

impl fmt::Display for EventName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            TraceEvent::LinkHold { tag, background: true, .. } => write!(f, "bg hold {tag:?}"),
            TraceEvent::LinkHold { tag, .. } => write!(f, "hold {tag:?}"),
            TraceEvent::NicSend { tag, .. } => write!(f, "send {tag:?}"),
            TraceEvent::NicRecv { tag, .. } => write!(f, "recv {tag:?}"),
            TraceEvent::Wait { cause, .. } => f.write_str(cause.label()),
            TraceEvent::Barrier { .. } => f.write_str("barrier"),
            TraceEvent::Flow { kind, .. } => match kind {
                FlowKind::Backoff { until } => write!(f, "backoff until {until}"),
                FlowKind::Cwnd { window } => write!(f, "cwnd={window}"),
                other => f.write_str(other.label()),
            },
            TraceEvent::ForcedDrop { src, tag, .. } => {
                write!(f, "forced drop {tag:?} from n{}", src.0)
            }
            TraceEvent::ShardWindow { .. } => f.write_str("window"),
        }
    }
}

/// Escapes what is written through it for a JSON string literal and
/// appends it to the wrapped buffer.
struct JsonEscaped<'a>(&'a mut String);

impl fmt::Write for JsonEscaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Every escaped character is ASCII, so cutting at its byte
        // keeps both halves valid UTF-8.
        let mut rest = s;
        while let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
            self.0.push_str(&rest[..i]);
            match rest.as_bytes()[i] {
                b'"' => self.0.push_str("\\\""),
                b'\\' => self.0.push_str("\\\\"),
                control => write!(self.0, "\\u{control:04x}")?,
            }
            rest = &rest[i + 1..];
        }
        self.0.push_str(rest);
        Ok(())
    }
}

/// Escapes what is written through it for HTML text content and
/// appends it to the wrapped buffer.
struct HtmlEscaped<'a>(&'a mut String);

impl fmt::Write for HtmlEscaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut rest = s;
        while let Some(i) = rest.bytes().position(|b| matches!(b, b'&' | b'<' | b'>')) {
            self.0.push_str(&rest[..i]);
            self.0.push_str(match rest.as_bytes()[i] {
                b'&' => "&amp;",
                b'<' => "&lt;",
                _ => "&gt;",
            });
            rest = &rest[i + 1..];
        }
        self.0.push_str(rest);
        Ok(())
    }
}

/// Why the exporters' `write!`s into their output are `expect`ed.
const INFALLIBLE: &str = "writing to a String cannot fail";

/// Append `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

/// Times below this many ns are written in fixed point by
/// [`push_us`]; see there for why the bound is safe.
const FIXED_POINT_BELOW_NS: u64 = 1 << 52;

/// Append `ns` as microseconds with three decimals: the bytes of
/// `format!("{:.3}", ns as f64 / 1000.0)`, the form both exporters'
/// timestamps have always had.
///
/// Below [`FIXED_POINT_BELOW_NS`] that is `ns / 1000`, a point and
/// `ns % 1000` zero-padded, with no float in sight: `ns as f64` is
/// exact below 2^53, the division rounds the exact quotient — which
/// has at most three decimals — by at most half an ulp, and below
/// 2^52 / 1000 < 2^43 half an ulp is at most 2^-11 < 0.0005, so
/// rounding the float to three decimals lands back on the exact
/// quotient. From the bound up (52 simulated days) the float path
/// itself is kept, so the output never depends on the argument.
fn push_us(out: &mut String, ns: u64) {
    if ns < FIXED_POINT_BELOW_NS {
        push_u64(out, ns / 1000);
        let frac = ns % 1000;
        let digit = |n: u64| b'0' + (n % 10) as u8;
        let point = [b'.', digit(frac / 100), digit(frac / 10), digit(frac)];
        out.push_str(std::str::from_utf8(&point).expect("ascii digits"));
    } else {
        write!(out, "{:.3}", ns as f64 / 1000.0).expect(INFALLIBLE);
    }
}

/// The distinct tracks of a trace in lane order and the lane of every
/// event, built in one pass over the events: tracks are numbered as
/// they first appear (one hash probe per event), and only the distinct
/// few hundred are sorted.
struct TrackTable {
    /// Distinct tracks, sorted; the index is the lane.
    tracks: Vec<Track>,
    /// `"pid":P,"tid":T` of each lane, `T` dense per pid in lane order.
    pid_tid: Vec<String>,
    /// Lane of each event, in event order.
    lane_of: Vec<u32>,
}

impl TrackTable {
    fn build(events: &[TraceEvent]) -> TrackTable {
        let mut first_seen: FxHashMap<Track, u32> = FxHashMap::default();
        let mut tracks: Vec<Track> = Vec::new();
        let mut lane_of: Vec<u32> = Vec::with_capacity(events.len());
        for ev in events {
            let track = Track::of(ev);
            lane_of.push(*first_seen.entry(track).or_insert_with(|| {
                tracks.push(track);
                tracks.len() as u32 - 1
            }));
        }
        let mut ranked: Vec<(Track, u32)> = tracks.into_iter().zip(0..).collect();
        ranked.sort_unstable();
        let mut lane_of_seen = vec![0u32; ranked.len()];
        for (lane, &(_, seen)) in ranked.iter().enumerate() {
            lane_of_seen[seen as usize] = lane as u32;
        }
        for lane in &mut lane_of {
            *lane = lane_of_seen[*lane as usize];
        }
        let tracks: Vec<Track> = ranked.into_iter().map(|(track, _)| track).collect();
        let mut pid_tid = Vec::with_capacity(tracks.len());
        let (mut pid, mut tid) = (0, 0);
        for track in &tracks {
            if track.pid() != pid {
                (pid, tid) = (track.pid(), 0);
            }
            pid_tid.push(format!("\"pid\":{pid},\"tid\":{tid}"));
            tid += 1;
        }
        TrackTable { tracks, pid_tid, lane_of }
    }
}

/// Output bytes reserved per event by [`export_perfetto_json`]: the
/// longest common row (a link hold with a two-word tag, six-digit
/// times and a three-digit lane) is about this long.
const PERFETTO_ROW_BYTES: usize = 136;

/// Export a trace as Chrome/Perfetto trace-event JSON (the
/// `traceEvents` array format). Tracks become `(pid, tid)` lanes with
/// `process_name`/`thread_name` metadata; spans are `"X"` complete
/// events and instants are `"i"` events, timestamps in microseconds.
/// The output loads offline in `ui.perfetto.dev` or `chrome://tracing`.
pub fn export_perfetto_json(events: &[TraceEvent]) -> String {
    let table = TrackTable::build(events);
    let mut out = String::with_capacity(
        64 + table.tracks.len() * PERFETTO_ROW_BYTES + events.len() * PERFETTO_ROW_BYTES,
    );
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    // Every row ends in a comma; the last one is taken back below.
    // Metadata: one process_name per pid, one thread_name per track.
    let mut named_pid = 0;
    for (track, pid_tid) in table.tracks.iter().zip(&table.pid_tid) {
        let pid = track.pid();
        if pid != named_pid {
            named_pid = pid;
            out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
            push_u64(&mut out, pid as u64);
            out.push_str(",\"tid\":0,\"args\":{\"name\":\"");
            out.push_str(Track::process_name(pid));
            out.push_str("\"}},");
        }
        out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",");
        out.push_str(pid_tid);
        out.push_str(",\"args\":{\"name\":\"");
        write!(JsonEscaped(&mut out), "{track}").expect(INFALLIBLE);
        out.push_str("\"}},");
    }
    for (ev, &lane) in events.iter().zip(&table.lane_of) {
        let pid_tid = &table.pid_tid[lane as usize];
        out.push_str("{\"name\":\"");
        write!(JsonEscaped(&mut out), "{}", EventName(ev)).expect(INFALLIBLE);
        match ev.span_ns() {
            Some((start, end)) => {
                out.push_str("\",\"ph\":\"X\",\"ts\":");
                push_us(&mut out, start);
                out.push_str(",\"dur\":");
                push_us(&mut out, end.saturating_sub(start));
                out.push(',');
                out.push_str(pid_tid);
                match *ev {
                    TraceEvent::LinkHold { bytes, background, .. } => {
                        out.push_str(",\"args\":{\"bytes\":");
                        push_u64(&mut out, bytes as u64);
                        out.push_str(if background {
                            ",\"background\":true}},"
                        } else {
                            ",\"background\":false}},"
                        });
                    }
                    TraceEvent::NicSend { bytes, .. } => {
                        out.push_str(",\"args\":{\"bytes\":");
                        push_u64(&mut out, bytes as u64);
                        out.push_str("}},");
                    }
                    _ => out.push_str(",\"args\":{}},"),
                }
            }
            None => {
                out.push_str("\",\"ph\":\"i\",\"ts\":");
                push_us(&mut out, ev.at_ns());
                out.push(',');
                out.push_str(pid_tid);
                out.push_str(",\"s\":\"t\",\"args\":{}},");
            }
        }
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("]}");
    out
}

/// Fill colour of one event's rendered rect.
fn event_color(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::LinkHold { background: true, .. } => "#b0a07a",
        TraceEvent::LinkHold { .. } => "#4c86c6",
        TraceEvent::NicSend { .. } => "#58a06c",
        TraceEvent::NicRecv { .. } => "#7cc08e",
        TraceEvent::Wait { cause: WaitCause::Contention, .. } => "#c65b4c",
        TraceEvent::Wait { cause: WaitCause::NicLapse, .. } => "#d6914a",
        TraceEvent::Wait { cause: WaitCause::Barrier, .. } => "#9a6fc0",
        TraceEvent::Barrier { .. } => "#6f4fa0",
        TraceEvent::Flow { .. } => "#c64c86",
        TraceEvent::ForcedDrop { .. } => "#a02020",
        TraceEvent::ShardWindow { .. } => "#808080",
    }
}

/// Output bytes reserved per event by [`export_html`] (a rect with its
/// tooltip).
const HTML_ROW_BYTES: usize = 176;

/// Export a trace as a fully self-contained single-file HTML timeline:
/// one inline-SVG lane per track, span rects with native `<title>`
/// hover detail, instant ticks, and no scripts, styles from the net,
/// or external resources — it opens offline in any browser.
pub fn export_html(events: &[TraceEvent], title: &str) -> String {
    let table = TrackTable::build(events);
    let tracks = &table.tracks;
    let (t0, t1) = events.iter().fold((u64::MAX, 0u64), |(lo, hi), ev| {
        let (a, b) = ev.span_ns().unwrap_or_else(|| (ev.at_ns(), ev.at_ns()));
        (lo.min(a), hi.max(b))
    });
    let (t0, t1) = if events.is_empty() { (0, 1) } else { (t0, t1.max(t0 + 1)) };
    let label_w = 170.0f64;
    let plot_w = 960.0f64;
    let lane_h = 16.0f64;
    let top = 24.0f64;
    let height = top + lane_h * tracks.len() as f64 + 24.0;
    let x_of = |ns: u64| label_w + (ns - t0) as f64 / (t1 - t0) as f64 * plot_w;
    let mut out = String::with_capacity(
        512 + 2 * title.len() + tracks.len() * HTML_ROW_BYTES + events.len() * HTML_ROW_BYTES,
    );
    out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>");
    HtmlEscaped(&mut out).write_str(title).expect(INFALLIBLE);
    out.push_str("</title></head>\n<body style=\"font-family:monospace\">\n<h2>");
    HtmlEscaped(&mut out).write_str(title).expect(INFALLIBLE);
    write!(
        out,
        "</h2>\n<p>{} events · {} tracks · window {:.1}..{:.1} us</p>\n\
         <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{height:.0}\" \
         font-family=\"monospace\" font-size=\"10\">\n",
        events.len(),
        tracks.len(),
        t0 as f64 / 1000.0,
        t1 as f64 / 1000.0,
        label_w + plot_w + 10.0,
    )
    .expect(INFALLIBLE);
    // Lane backgrounds + labels. The escaped labels are kept: every
    // tooltip ends in its lane's.
    let mut labels: Vec<String> = Vec::with_capacity(tracks.len());
    for (i, track) in tracks.iter().enumerate() {
        let y = top + i as f64 * lane_h;
        let shade = if i % 2 == 0 { "#f4f4f4" } else { "#ebebeb" };
        let mut label = String::new();
        write!(HtmlEscaped(&mut label), "{track}").expect(INFALLIBLE);
        write!(
            out,
            "<rect x=\"{label_w}\" y=\"{y:.1}\" width=\"{plot_w}\" height=\"{lane_h}\" \
             fill=\"{shade}\"/>\n<text x=\"4\" y=\"{:.1}\">{label}</text>\n",
            y + lane_h - 4.0,
        )
        .expect(INFALLIBLE);
        labels.push(label);
    }
    // Time axis endpoints (µs).
    write!(
        out,
        "<text x=\"{label_w}\" y=\"14\">{:.1} us</text>\n\
         <text x=\"{:.1}\" y=\"14\" text-anchor=\"end\">{:.1} us</text>\n",
        t0 as f64 / 1000.0,
        label_w + plot_w,
        t1 as f64 / 1000.0,
    )
    .expect(INFALLIBLE);
    // Events.
    let h = lane_h - 3.0;
    for (ev, &lane) in events.iter().zip(&table.lane_of) {
        let y = top + lane as f64 * lane_h + 1.5;
        let (a, b) = ev.span_ns().unwrap_or_else(|| (ev.at_ns(), ev.at_ns()));
        let x = x_of(a);
        let w = (x_of(b) - x).max(1.2);
        write!(
            out,
            "<rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" height=\"{h}\" fill=\"{}\"><title>",
            event_color(ev),
        )
        .expect(INFALLIBLE);
        write!(HtmlEscaped(&mut out), "{}", EventName(ev)).expect(INFALLIBLE);
        out.push_str(" [");
        push_us(&mut out, a);
        out.push_str("..");
        push_us(&mut out, b);
        out.push_str(" us] on ");
        out.push_str(&labels[lane as usize]);
        out.push_str("</title></rect>\n");
    }
    out.push_str("</svg>\n</body></html>\n");
    out
}

/// One bucket of the per-dimension link-utilization timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationBucket {
    /// Bucket start, ns.
    pub start_ns: u64,
    /// Bucket end, ns.
    pub end_ns: u64,
    /// Mean busy fraction of each dimension's directed links within
    /// this bucket (`busy_frac[dim]`, in `[0, 1]`).
    pub busy_frac: Vec<f64>,
}

/// Derive the per-dimension link-utilization timeline of a trace:
/// the hold time of every [`TraceEvent::LinkHold`] is spread over
/// `buckets` equal time slices and normalized by each dimension's
/// directed-link capacity (`2^d` links per dimension, saturating). A
/// row has `d` entries — at least one, at most the 32 dimensions a
/// `u32` node id can address — or more when the trace holds a link of
/// a dimension `d` does not cover: every observed dimension gets its
/// column, whatever `d` the caller passed.
pub fn link_utilization(events: &[TraceEvent], d: u32, buckets: usize) -> Vec<UtilizationBucket> {
    let buckets = buckets.max(1);
    let holds: Vec<(u64, u64, u32)> = events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::LinkHold { from, to, start, end, .. } => {
                Some((start.as_ns(), end.as_ns(), link_dim(from, to)))
            }
            _ => None,
        })
        .collect();
    if holds.is_empty() {
        return Vec::new();
    }
    let t0 = holds.iter().map(|h| h.0).min().unwrap();
    let t1 = holds.iter().map(|h| h.1).max().unwrap().max(t0 + 1);
    let observed = holds.iter().map(|h| h.2 + 1).max().unwrap_or(0);
    let dims = d.min(u32::BITS).max(observed).max(1) as usize;
    let links_per_dim = 1u64.checked_shl(d).unwrap_or(u64::MAX);
    let bucket_ns = (t1 - t0).div_ceil(buckets as u64).max(1);
    let mut busy = vec![vec![0u64; dims]; buckets];
    for (a, b, dim) in holds {
        let mut cur = a;
        while cur < b {
            let bi = (((cur - t0) / bucket_ns) as usize).min(buckets - 1);
            let bucket_end = t0 + (bi as u64 + 1) * bucket_ns;
            let slice = b.min(bucket_end) - cur;
            busy[bi][dim as usize] += slice;
            cur += slice.max(1);
        }
    }
    (0..buckets)
        .map(|bi| UtilizationBucket {
            start_ns: t0 + bi as u64 * bucket_ns,
            end_ns: (t0 + (bi as u64 + 1) * bucket_ns).min(t1),
            busy_frac: (0..dims)
                .map(|dim| busy[bi][dim] as f64 / links_per_dim.saturating_mul(bucket_ns) as f64)
                .collect(),
        })
        .collect()
}

/// One stall of the [`top_stalls`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stall {
    /// The blocked context.
    pub node: NodeId,
    /// Why it was blocked.
    pub cause: WaitCause,
    /// Stall start, ns.
    pub start_ns: u64,
    /// Stall end, ns.
    pub end_ns: u64,
}

impl Stall {
    /// Stall length, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The `k` longest [`TraceEvent::Wait`] spans, longest first (ties
/// broken by earlier start, then lower node id — deterministic).
pub fn top_stalls(events: &[TraceEvent], k: usize) -> Vec<Stall> {
    let mut stalls: Vec<Stall> = events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Wait { node, cause, start, end } => {
                Some(Stall { node, cause, start_ns: start.as_ns(), end_ns: end.as_ns() })
            }
            _ => None,
        })
        .collect();
    stalls.sort_by(|a, b| {
        b.duration_ns()
            .cmp(&a.duration_ns())
            .then(a.start_ns.cmp(&b.start_ns))
            .then(a.node.0.cmp(&b.node.0))
    });
    stalls.truncate(k);
    stalls
}

/// One link of the [`critical_path`] chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalSpan {
    /// What the span was (event display name + track).
    pub label: String,
    /// Span start, ns.
    pub start_ns: u64,
    /// Span end, ns.
    pub end_ns: u64,
}

/// A greedy critical-path heuristic: starting from the span that ends
/// last, repeatedly chain to the span with the latest end not after
/// the current span's start. The result (earliest first) is a chain of
/// non-overlapping blocking spans that "explains" the tail of the run.
pub fn critical_path(events: &[TraceEvent]) -> Vec<CriticalSpan> {
    // `(end, start, event)` of every span, sorted: "latest end ≤
    // cutoff" is a binary search. Spans equal in both times are told
    // apart by label, so the walk labels them — them and the chain,
    // not the whole trace.
    let mut spans: Vec<(u64, u64, usize)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, ev)| ev.span_ns().map(|(start, end)| (end, start, i)))
        .collect();
    spans.sort_unstable();
    // The chain link at sorted position `at`: of the spans with its
    // exact times (they sit together, ending at `at`), the one whose
    // label sorts last.
    let link_at = |at: usize| {
        let (end_ns, start_ns, _) = spans[at];
        let label = spans[..=at]
            .iter()
            .rev()
            .take_while(|s| (s.0, s.1) == (end_ns, start_ns))
            .map(|&(_, _, i)| format!("{} on {}", EventName(&events[i]), Track::of(&events[i])))
            .max()
            .expect("the span at `at` itself");
        CriticalSpan { label, start_ns, end_ns }
    };
    let mut chain: Vec<CriticalSpan> = Vec::new();
    let mut next = spans.len().checked_sub(1);
    while let Some(at) = next {
        let link = link_at(at);
        let cutoff = link.start_ns;
        chain.push(link);
        // `start < cutoff` guarantees strict progress (terminates); it
        // can only fail on zero-length spans at the cutoff itself.
        let ended = spans.partition_point(|s| s.0 <= cutoff);
        next = spans[..ended].iter().rposition(|s| s.1 < cutoff);
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hold(from: u32, to: u32, a: u64, b: u64) -> TraceEvent {
        TraceEvent::LinkHold {
            from: NodeId(from),
            to: NodeId(to),
            start: SimTime(a),
            end: SimTime(b),
            tag: Tag::data(0, 1),
            bytes: 64,
            background: false,
        }
    }

    fn wait(node: u32, cause: WaitCause, a: u64, b: u64) -> TraceEvent {
        TraceEvent::Wait { node: NodeId(node), cause, start: SimTime(a), end: SimTime(b) }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = TraceRing::new(4);
        for i in 0..6u64 {
            ring.push(hold(0, 1, i, i + 1));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2);
        let events = ring.drain();
        assert_eq!(events.len(), 4);
        // Oldest two (starts 0 and 1) were evicted.
        assert_eq!(events[0].at_ns(), 2);
        assert_eq!(events[3].at_ns(), 5);
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_capacity_is_never_zero() {
        let mut ring = TraceRing::new(0);
        ring.push(hold(0, 1, 0, 1));
        ring.push(hold(0, 1, 1, 2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn perfetto_export_has_link_tracks_and_events() {
        let events = vec![
            hold(0, 1, 1_000, 3_000),
            hold(1, 3, 2_000, 4_000),
            wait(2, WaitCause::Contention, 0, 2_000),
            TraceEvent::Flow { job: 0, node: NodeId(2), kind: FlowKind::Drop, at: SimTime(2_500) },
        ];
        let json = export_perfetto_json(&events);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("link 0->1 (dim 0)"), "{json}");
        assert!(json.contains("link 1->3 (dim 1)"), "{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"process_name\""));
        // Balanced braces — cheap well-formedness check without a
        // JSON parser (no string value here contains braces).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn html_export_is_self_contained() {
        let events = vec![hold(0, 2, 0, 5_000), wait(0, WaitCause::Barrier, 0, 4_000)];
        let html = export_html(&events, "test trace");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("</svg>"));
        assert!(html.contains("test trace"));
        assert!(html.contains("<title>"), "hover tooltips");
        assert!(!html.contains("http://") || html.contains("xmlns"), "no network deps");
        assert!(!html.contains("<script"));
    }

    #[test]
    fn utilization_buckets_normalize_by_dimension_capacity() {
        // d=1: 2 directed links per dimension. One link busy for the
        // whole window -> 0.5 utilization in every bucket.
        let events = vec![hold(0, 1, 0, 4_000)];
        let buckets = link_utilization(&events, 1, 4);
        assert_eq!(buckets.len(), 4);
        for b in &buckets {
            assert_eq!(b.busy_frac.len(), 1);
            assert!((b.busy_frac[0] - 0.5).abs() < 1e-9, "{:?}", b);
        }
        // Empty trace -> empty timeline.
        assert!(link_utilization(&[], 3, 8).is_empty());
    }

    #[test]
    fn utilization_splits_holds_across_buckets() {
        // Busy only in the first half of the window.
        let events = vec![hold(0, 1, 0, 2_000), hold(2, 3, 0, 4_000)];
        let buckets = link_utilization(&events, 1, 2);
        assert_eq!(buckets.len(), 2);
        assert!(buckets[0].busy_frac[0] > buckets[1].busy_frac[0]);
    }

    #[test]
    fn top_stalls_sorts_longest_first() {
        let events = vec![
            wait(0, WaitCause::Contention, 0, 1_000),
            wait(1, WaitCause::Barrier, 0, 5_000),
            wait(2, WaitCause::NicLapse, 100, 3_000),
        ];
        let stalls = top_stalls(&events, 2);
        assert_eq!(stalls.len(), 2);
        assert_eq!(stalls[0].node, NodeId(1));
        assert_eq!(stalls[0].duration_ns(), 5_000);
        assert_eq!(stalls[1].node, NodeId(2));
        assert!(top_stalls(&events, 10).len() == 3);
    }

    #[test]
    fn critical_path_chains_backward_from_the_last_span() {
        let events = vec![
            hold(0, 1, 0, 2_000),
            hold(1, 3, 2_000, 5_000),
            hold(0, 2, 0, 1_000), // not on the chain (superseded by 0->1)
            wait(3, WaitCause::Contention, 5_000, 9_000),
        ];
        let chain = critical_path(&events);
        assert!(!chain.is_empty());
        // Last element is the latest-ending span.
        assert_eq!(chain.last().unwrap().end_ns, 9_000);
        // Chain is ordered and non-overlapping.
        for w in chain.windows(2) {
            assert!(w[0].end_ns <= w[1].start_ns, "{chain:?}");
        }
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0].end_ns, 2_000);
    }

    #[test]
    fn trace_config_default_capacity_is_generous() {
        assert_eq!(TraceConfig::default().capacity, 1 << 20);
        assert_eq!(TraceConfig::with_capacity(0).capacity, 1);
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut json = String::new();
        JsonEscaped(&mut json).write_str("a\"b\\c").unwrap();
        assert_eq!(json, "a\\\"b\\\\c");
        // Quote, backslash and a control character, split over several
        // writes the way a `Display` delivers them, around multi-byte
        // text the cuts must not land in.
        let name = "hold \"µs\" \\ \u{1}→\ttail\u{1f}";
        let mut json = String::new();
        let (quote, backslash) = ('"', '\\');
        write!(JsonEscaped(&mut json), "{quote}{name}{backslash}").unwrap();
        assert_eq!(json, reference::json_escape(&format!("\"{name}\\")));
        assert!(json.contains("\\u0001") && json.contains("\\u0009") && json.contains("\\u001f"));
        let mut html = String::new();
        let tail = "µ&&>";
        write!(HtmlEscaped(&mut html), "a<b&c>{tail}").unwrap();
        assert_eq!(html, "a&lt;b&amp;c&gt;µ&amp;&amp;&gt;");
        assert_eq!(html, reference::html_escape("a<b&c>µ&&>"));
    }

    #[test]
    fn utilization_covers_dimensions_the_caller_did_not_declare() {
        // A d6-shaped trace (links of dimensions 0, 3 and 5) summarized
        // with a `d` that is too small, zero, and too large to shift by.
        let events = vec![hold(0, 1, 0, 4_000), hold(8, 0, 0, 2_000), hold(1, 33, 1_000, 4_000)];
        for d in [4, 0, 64, u32::MAX] {
            let buckets = link_utilization(&events, d, 4);
            assert_eq!(buckets.len(), 4, "d = {d}");
            for b in &buckets {
                assert_eq!(b.busy_frac.len(), d.clamp(6, 32) as usize, "d = {d}");
                assert!(b.busy_frac.iter().all(|f| (0.0..=1.0).contains(f)), "d = {d}: {b:?}");
            }
            assert!(buckets[0].busy_frac[3] > 0.0 && buckets[3].busy_frac[5] > 0.0, "d = {d}");
        }
        // A `d` that covers the trace reads as it always did.
        let exact = link_utilization(&events, 6, 4);
        assert_eq!(exact[0].busy_frac.len(), 6);
        assert!((exact[0].busy_frac[0] - 1.0 / 64.0).abs() < 1e-12, "{:?}", exact[0]);
    }

    fn push_us_string(ns: u64) -> String {
        let mut out = String::new();
        push_us(&mut out, ns);
        out
    }

    #[test]
    fn fixed_point_timestamps_match_float_formatting_at_the_edges() {
        let edges = [0, 1, 999, 1000, 999_999, 1_000_000, u64::MAX];
        let bound = FIXED_POINT_BELOW_NS;
        for ns in edges.into_iter().chain([bound - 1, bound, bound + 1, 1 << 53, (1 << 53) + 1]) {
            assert_eq!(push_us_string(ns), format!("{:.3}", ns as f64 / 1000.0), "ns = {ns}");
        }
        assert_eq!(push_us_string(1_002_030), "1002.030");
        assert_eq!(push_us_string(7), "0.007");
    }

    /// Times at every scale: ticks, a run's microseconds, the
    /// neighbourhood of the fixed-point bound, and far past it.
    fn arb_ns() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..64,
            0u64..5_000_000,
            (FIXED_POINT_BELOW_NS - 4096)..(FIXED_POINT_BELOW_NS + 4096),
            0u64..FIXED_POINT_BELOW_NS,
            0u64..(1u64 << 60),
        ]
    }

    /// Any of the eight variants, on a small cast of nodes, links and
    /// jobs so that tracks repeat.
    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        ((0u8..8, 0u32..24, 0u32..5), arb_ns(), arb_ns(), 0u64..u64::MAX).prop_map(
            |((variant, id, bit), at, len, word)| {
                let (node, start, end) = (NodeId(id), SimTime(at), SimTime(at.saturating_add(len)));
                let tag = Tag::raw(word >> (word % 64));
                match variant {
                    0 => TraceEvent::LinkHold {
                        from: node,
                        to: NodeId(id ^ (1 << bit)),
                        start,
                        end,
                        tag,
                        bytes: (word % 100_000) as usize,
                        background: word % 3 == 0,
                    },
                    1 => {
                        TraceEvent::NicSend { node, start, end, tag, bytes: (word % 4096) as usize }
                    }
                    2 => TraceEvent::NicRecv { node, start, end, tag },
                    3 => {
                        let cause =
                            [WaitCause::Contention, WaitCause::NicLapse, WaitCause::Barrier]
                                [bit as usize % 3];
                        TraceEvent::Wait { node, cause, start, end }
                    }
                    4 => TraceEvent::Barrier { job: bit, start, end },
                    5 => {
                        let kind = match word % 4 {
                            0 => FlowKind::Drop,
                            1 => FlowKind::Backoff { until: end },
                            2 => FlowKind::Retransmit,
                            _ => FlowKind::Cwnd { window: id },
                        };
                        TraceEvent::Flow { job: bit, node, kind, at: start }
                    }
                    6 => TraceEvent::ForcedDrop { src: node, dst: NodeId(bit), tag, at: start },
                    _ => TraceEvent::ShardWindow { shard: bit, start, end },
                }
            },
        )
    }

    fn assert_matches_reference(events: &[TraceEvent]) {
        assert_eq!(export_perfetto_json(events), reference::export_perfetto_json(events));
        let title = "t <&> \"q\"";
        assert_eq!(export_html(events, title), reference::export_html(events, title));
        assert_eq!(critical_path(events), reference::critical_path(events));
    }

    #[test]
    fn exporters_match_the_reference_on_empty_and_single_event_traces() {
        assert_matches_reference(&[]);
        assert_matches_reference(&[hold(0, 1, 0, 0)]);
        assert_matches_reference(&[TraceEvent::Flow {
            job: 3,
            node: NodeId(1),
            kind: FlowKind::Backoff { until: SimTime(1 << 55) },
            at: SimTime(5),
        }]);
    }

    proptest! {
        #[test]
        fn exporters_and_critical_path_match_the_reference(
            events in proptest::collection::vec(arb_event(), 0..120),
        ) {
            assert_matches_reference(&events);
        }

        /// Few distinct instants: many spans tie in both times, so the
        /// label tie-break decides the chain.
        #[test]
        fn critical_path_matches_the_reference_under_ties(
            spans in proptest::collection::vec((0u8..8, 0u32..6, 0u32..3, 0u64..6, 0u64..4), 1..80),
        ) {
            let events: Vec<TraceEvent> = spans
                .into_iter()
                .map(|(variant, id, bit, at, len)| {
                    let (node, start, end) = (NodeId(id), SimTime(at), SimTime(at + len));
                    match variant % 4 {
                        0 => TraceEvent::LinkHold {
                            from: node,
                            to: NodeId(id ^ (1 << bit)),
                            start,
                            end,
                            tag: Tag::raw(bit as u64),
                            bytes: 8,
                            background: variant >= 4,
                        },
                        1 => TraceEvent::NicRecv { node, start, end, tag: Tag::raw(bit as u64) },
                        2 => TraceEvent::Wait { node, cause: WaitCause::Contention, start, end },
                        _ => TraceEvent::Barrier { job: bit, start, end },
                    }
                })
                .collect();
            prop_assert_eq!(critical_path(&events), reference::critical_path(&events));
        }

        #[test]
        fn fixed_point_timestamps_match_float_formatting(ns in arb_ns(), raw in 0u64..u64::MAX) {
            for ns in [ns, raw, raw >> (raw % 64)] {
                prop_assert_eq!(push_us_string(ns), format!("{:.3}", ns as f64 / 1000.0));
            }
        }
    }
}
