//! Frozen trace artifacts: the bytes the two exporters and the
//! inspector summaries produce, for the three `repro trace` scenarios
//! and one hand-built trace that holds the variants no scenario emits.
//!
//! The exporter's own suites compare it against a reference of the
//! same build; this file compares it against the past. A change to how
//! the exporters assemble their output must leave every literal alone:
//! each one is the FNV-1a digest and the length of a whole artifact.
//! The literals were recorded on commit 3834e7c (per-event `format!`
//! assembly over a sorted per-event track list), except the hotspot
//! and interference rows, re-recorded when a transmission blocked by
//! the NIC window came to be retried by the handler that closes the
//! blocking interval (the same-instant order of NIC-window retries
//! moved; interference's lossy coins then cascade into its outcome).
//! To regenerate after an *intended* format change run
//! `cargo test -p mce-bench --test trace_golden -- --ignored --nocapture`.

use mce_bench::trace::capture;
use mce_hypercube::NodeId;
use mce_simnet::trace::{export_html, export_perfetto_json};
use mce_simnet::{FlowKind, SimTime, Tag, TraceEvent, WaitCause};
use serde::de::{Deserialize, Deserializer};
use serde::value::Value;
use std::collections::BTreeSet;

/// FNV-1a digest and length of one artifact.
fn digest(bytes: &[u8]) -> (u64, usize) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (digest, bytes.len())
}

/// `(scenario, d)` of every captured row, `repro trace`'s defaults.
const SCENARIOS: [(&str, u32); 3] = [("hotspot", 4), ("interference", 4), ("sharded", 6)];

/// `[perfetto, html, summary]` digests of one captured scenario.
fn scenario_digests(scenario: &str, d: u32) -> [(u64, usize); 3] {
    let cap = capture(scenario, d);
    [0, 1, 2].map(|i| digest(&std::fs::read(&cap.files[i]).expect("artifact written")))
}

/// The variants and shapes the scenarios never emit: a forced drop, a
/// shard window, a background hold, barriers of two jobs, and times on
/// both sides of the fixed-point timestamp bound (2^52 ns).
fn hand_built() -> Vec<TraceEvent> {
    let t = SimTime;
    vec![
        TraceEvent::LinkHold {
            from: NodeId(5),
            to: NodeId(7),
            start: t(1_000),
            end: t(3_250),
            tag: Tag::raw(7),
            bytes: 4096,
            background: true,
        },
        TraceEvent::LinkHold {
            from: NodeId(2),
            to: NodeId(0),
            start: t(0),
            end: t(999),
            tag: Tag::sync(1, 2),
            bytes: 0,
            background: false,
        },
        TraceEvent::NicSend {
            node: NodeId(2),
            start: t(0),
            end: t(999_999),
            tag: Tag::data(3, 4),
            bytes: 40,
        },
        TraceEvent::NicRecv {
            node: NodeId(0),
            start: t(12_345),
            end: t(1_000_000),
            tag: Tag::data(3, 4),
        },
        TraceEvent::Wait {
            node: NodeId(9),
            cause: WaitCause::NicLapse,
            start: t(500),
            end: t(501),
        },
        TraceEvent::Wait {
            node: NodeId(3),
            cause: WaitCause::Barrier,
            start: t(10),
            end: t(150_010),
        },
        TraceEvent::Barrier { job: 0, start: t(10), end: t(150_010) },
        TraceEvent::Barrier { job: 2, start: t(200_000), end: t(350_000) },
        TraceEvent::Flow { job: 2, node: NodeId(17), kind: FlowKind::Drop, at: t(210_000) },
        TraceEvent::Flow {
            job: 2,
            node: NodeId(17),
            kind: FlowKind::Backoff { until: t(260_007) },
            at: t(210_001),
        },
        TraceEvent::Flow { job: 1, node: NodeId(33), kind: FlowKind::Retransmit, at: t(260_007) },
        TraceEvent::Flow {
            job: 1,
            node: NodeId(33),
            kind: FlowKind::Cwnd { window: 4 },
            at: t(260_008),
        },
        TraceEvent::ForcedDrop {
            src: NodeId(6),
            dst: NodeId(9),
            tag: Tag::data(0, 1),
            at: t(77_777),
        },
        TraceEvent::ShardWindow { shard: 3, start: t(0), end: t(400_000) },
        TraceEvent::ShardWindow { shard: 0, start: t(400_000), end: t((1 << 52) + 1) },
        TraceEvent::Wait {
            node: NodeId(3),
            cause: WaitCause::Contention,
            start: t((1 << 52) - 1),
            end: t(1 << 53),
        },
    ]
}

/// `[perfetto, html]` digests of the hand-built trace.
fn hand_built_digests() -> [(u64, usize); 2] {
    let events = hand_built();
    [
        digest(export_perfetto_json(&events).as_bytes()),
        digest(export_html(&events, "hand-built <trace> & co").as_bytes()),
    ]
}

/// `GOLDEN[scenario][artifact]`, in the order of `SCENARIOS` and of
/// `TraceCapture::files`.
const GOLDEN: [[(u64, usize); 3]; 3] = [
    [(3977347617466863102, 574296), (3913073919738868068, 749206), (14649299719163725274, 51732)], // hotspot d4
    [(7842474630566209110, 546182), (5855848411558755159, 766472), (7940871866313077577, 19700)], // interference d4
    [(4781543581925101758, 822187), (18384639462672191683, 1137198), (4937143929922347435, 9397)], // sharded d6
];

const GOLDEN_HAND_BUILT: [(u64, usize); 2] =
    [(15113179285499945245, 2682), (9619150718821389375, 3824)];

#[test]
fn trace_artifacts_are_byte_identical_to_the_recorded_ones() {
    for ((scenario, d), expected) in SCENARIOS.into_iter().zip(GOLDEN) {
        let got = scenario_digests(scenario, d);
        for (i, artifact) in ["perfetto", "html", "summary"].into_iter().enumerate() {
            assert_eq!(got[i], expected[i], "{scenario} d{d}: {artifact} moved");
        }
    }
}

#[test]
fn hand_built_trace_is_byte_identical_to_the_recorded_one() {
    assert_eq!(hand_built_digests(), GOLDEN_HAND_BUILT);
}

#[test]
#[ignore = "prints the literals; run after an intended format change"]
fn print_golden() {
    for (scenario, d) in SCENARIOS {
        println!("    {:?}, // {scenario} d{d}", scenario_digests(scenario, d));
    }
    println!("const GOLDEN_HAND_BUILT: [(u64, usize); 2] = {:?};", hand_built_digests());
}

/// A parsed JSON document, kept as the vendored serde's value tree.
struct Doc(Value);

impl<'de> Deserialize<'de> for Doc {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Doc, D::Error> {
        d.take_value().map(Doc)
    }
}

fn field<'a>(object: &'a Value, name: &str) -> Option<&'a Value> {
    match object {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// Parse a Perfetto export and check its track bookkeeping: every
/// span or instant renders on a `(pid, tid)` that a `thread_name` row
/// declares, and the array is the metadata rows plus one row per event.
fn check_perfetto_tracks(events: &[TraceEvent]) {
    let json = export_perfetto_json(events);
    let Doc(doc) = serde_json::from_str(&json).expect("perfetto export parses as JSON");
    let Some(Value::Array(rows)) = field(&doc, "traceEvents") else {
        panic!("no traceEvents array");
    };
    let lane = |row: &Value| match (field(row, "pid"), field(row, "tid")) {
        (Some(Value::UInt(pid)), Some(Value::UInt(tid))) => (*pid, *tid),
        other => panic!("row without an integer pid/tid: {other:?}"),
    };
    let is_meta = |row: &&Value| field(row, "ph") == Some(&Value::Str("M".to_string()));
    let declared: BTreeSet<(u64, u64)> = rows
        .iter()
        .filter(is_meta)
        .filter(|row| field(row, "name") == Some(&Value::Str("thread_name".to_string())))
        .map(lane)
        .collect();
    let mut rendered = 0;
    for row in rows.iter().filter(|row| !is_meta(row)) {
        assert!(declared.contains(&lane(row)), "undeclared lane {:?}", lane(row));
        assert!(matches!(field(row, "name"), Some(Value::Str(_))), "unnamed row");
        rendered += 1;
    }
    assert_eq!(rendered, events.len());
    assert_eq!(rows.iter().filter(is_meta).count() + events.len(), rows.len());
}

#[test]
fn perfetto_export_parses_and_declares_every_lane() {
    check_perfetto_tracks(&hand_built());
    check_perfetto_tracks(&[]);
    check_perfetto_tracks(&hand_built()[..1]);
}
