//! The exporters and the critical-path walk as they stood on commit
//! 3834e7c, kept as the reference the streaming versions are compared
//! against (`super::tests`): one `String` per event name, per escape
//! and per row, a `Track` sorted per event, float-formatted times, a
//! label per span. Test-only; nothing here is reachable from a build.

use super::{event_color, link_dim, CriticalSpan, FlowKind, TraceEvent, Track};
use crate::time::SimTime;
use mce_hypercube::NodeId;

/// Human lane label (link lanes always contain the word "link").
fn track_name(track: &Track) -> String {
    match *track {
        Track::Link { from, to } => {
            format!("link {from}->{to} (dim {})", link_dim(NodeId(from), NodeId(to)))
        }
        Track::NicSend { node } => format!("nic {node} send"),
        Track::NicRecv { node } => format!("nic {node} recv"),
        Track::Node { node } => format!("node {node}"),
        Track::Job { job } => format!("job {job}"),
        Track::Shard { shard } => format!("shard {shard}"),
    }
}

/// Event display name shared by both exporters.
fn event_name(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::LinkHold { tag, background, .. } => {
            if *background {
                format!("bg hold {tag:?}")
            } else {
                format!("hold {tag:?}")
            }
        }
        TraceEvent::NicSend { tag, .. } => format!("send {tag:?}"),
        TraceEvent::NicRecv { tag, .. } => format!("recv {tag:?}"),
        TraceEvent::Wait { cause, .. } => cause.label().to_string(),
        TraceEvent::Barrier { .. } => "barrier".to_string(),
        TraceEvent::Flow { kind, .. } => match kind {
            FlowKind::Backoff { until } => format!("backoff until {until}"),
            FlowKind::Cwnd { window } => format!("cwnd={window}"),
            other => other.label().to_string(),
        },
        TraceEvent::ForcedDrop { src, tag, .. } => format!("forced drop {tag:?} from n{}", src.0),
        TraceEvent::ShardWindow { .. } => "window".to_string(),
    }
}

/// Escape a string for embedding in a JSON string literal.
pub(super) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Sorted distinct tracks of a trace, with a dense per-process thread
/// id for each (Perfetto tid / HTML lane index).
fn assign_tracks(events: &[TraceEvent]) -> Vec<Track> {
    let mut tracks: Vec<Track> = events.iter().map(Track::of).collect();
    tracks.sort();
    tracks.dedup();
    tracks
}

/// Export a trace as Chrome/Perfetto trace-event JSON (the
/// `traceEvents` array format). Tracks become `(pid, tid)` lanes with
/// `process_name`/`thread_name` metadata; spans are `"X"` complete
/// events and instants are `"i"` events, timestamps in microseconds.
/// The output loads offline in `ui.perfetto.dev` or `chrome://tracing`.
pub(super) fn export_perfetto_json(events: &[TraceEvent]) -> String {
    let tracks = assign_tracks(events);
    // Dense tid per pid, in sorted-track order (deterministic).
    let mut tids: Vec<u32> = Vec::with_capacity(tracks.len());
    {
        let mut next: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        for t in &tracks {
            let n = next.entry(t.pid()).or_insert(0);
            tids.push(*n);
            *n += 1;
        }
    }
    let tid_of = |track: &Track| -> (u32, u32) {
        let i = tracks.binary_search(track).expect("track assigned");
        (track.pid(), tids[i])
    };
    let us = |t: SimTime| format!("{:.3}", t.as_ns() as f64 / 1000.0);
    let dur_us = |a: SimTime, b: SimTime| format!("{:.3}", b.since(a) as f64 / 1000.0);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, item: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&item);
    };
    // Metadata: one process_name per pid, one thread_name per track.
    let mut seen_pid: Vec<u32> = Vec::new();
    for (i, t) in tracks.iter().enumerate() {
        let pid = t.pid();
        if !seen_pid.contains(&pid) {
            seen_pid.push(pid);
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    Track::process_name(pid)
                ),
            );
        }
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                tids[i],
                json_escape(&track_name(t))
            ),
        );
    }
    for ev in events {
        let (pid, tid) = tid_of(&Track::of(ev));
        let name = json_escape(&event_name(ev));
        match ev.span_ns() {
            Some(_) => {
                let (start, end) = match *ev {
                    TraceEvent::LinkHold { start, end, .. }
                    | TraceEvent::NicSend { start, end, .. }
                    | TraceEvent::NicRecv { start, end, .. }
                    | TraceEvent::Wait { start, end, .. }
                    | TraceEvent::Barrier { start, end, .. }
                    | TraceEvent::ShardWindow { start, end, .. } => (start, end),
                    _ => unreachable!(),
                };
                let args = match ev {
                    TraceEvent::LinkHold { bytes, background, .. } => {
                        format!("{{\"bytes\":{bytes},\"background\":{background}}}")
                    }
                    TraceEvent::NicSend { bytes, .. } => format!("{{\"bytes\":{bytes}}}"),
                    _ => "{}".to_string(),
                };
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                        us(start),
                        dur_us(start, end)
                    ),
                );
            }
            None => {
                let at = SimTime(ev.at_ns());
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\
                         \"tid\":{tid},\"s\":\"t\",\"args\":{{}}}}",
                        us(at)
                    ),
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// Export a trace as a fully self-contained single-file HTML timeline:
/// one inline-SVG lane per track, span rects with native `<title>`
/// hover detail, instant ticks, and no scripts, styles from the net,
/// or external resources — it opens offline in any browser.
pub(super) fn export_html(events: &[TraceEvent], title: &str) -> String {
    let tracks = assign_tracks(events);
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
    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
         font-family=\"monospace\" font-size=\"10\">\n",
        label_w + plot_w + 10.0,
        height
    ));
    // Lane backgrounds + labels.
    for (i, t) in tracks.iter().enumerate() {
        let y = top + i as f64 * lane_h;
        let shade = if i % 2 == 0 { "#f4f4f4" } else { "#ebebeb" };
        svg.push_str(&format!(
            "<rect x=\"{label_w}\" y=\"{y:.1}\" width=\"{plot_w}\" height=\"{lane_h}\" \
             fill=\"{shade}\"/>\n"
        ));
        svg.push_str(&format!(
            "<text x=\"4\" y=\"{:.1}\">{}</text>\n",
            y + lane_h - 4.0,
            html_escape(&track_name(t))
        ));
    }
    // Time axis endpoints (µs).
    svg.push_str(&format!("<text x=\"{label_w}\" y=\"14\">{:.1} us</text>\n", t0 as f64 / 1000.0));
    svg.push_str(&format!(
        "<text x=\"{:.1}\" y=\"14\" text-anchor=\"end\">{:.1} us</text>\n",
        label_w + plot_w,
        t1 as f64 / 1000.0
    ));
    // Events.
    for ev in events {
        let track = Track::of(ev);
        let lane = tracks.binary_search(&track).expect("track assigned");
        let y = top + lane as f64 * lane_h + 1.5;
        let h = lane_h - 3.0;
        let (a, b) = ev.span_ns().unwrap_or_else(|| (ev.at_ns(), ev.at_ns()));
        let x = x_of(a);
        let w = (x_of(b) - x).max(1.2);
        let tip = format!(
            "{} [{:.3}..{:.3} us] on {}",
            event_name(ev),
            a as f64 / 1000.0,
            b as f64 / 1000.0,
            track_name(&track)
        );
        svg.push_str(&format!(
            "<rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" height=\"{h}\" \
             fill=\"{}\"><title>{}</title></rect>\n",
            event_color(ev),
            html_escape(&tip)
        ));
    }
    svg.push_str("</svg>\n");
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>{t}</title></head>\n<body style=\"font-family:monospace\">\n\
         <h2>{t}</h2>\n<p>{n} events · {k} tracks · window {lo:.1}..{hi:.1} us</p>\n{svg}\
         </body></html>\n",
        t = html_escape(title),
        n = events.len(),
        k = tracks.len(),
        lo = t0 as f64 / 1000.0,
        hi = t1 as f64 / 1000.0,
        svg = svg
    )
}

/// Escape a string for embedding in HTML text content.
pub(super) fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// A greedy critical-path heuristic: starting from the span that ends
/// last, repeatedly chain to the span with the latest end not after
/// the current span's start. The result (earliest first) is a chain of
/// non-overlapping blocking spans that "explains" the tail of the run.
pub(super) fn critical_path(events: &[TraceEvent]) -> Vec<CriticalSpan> {
    let mut spans: Vec<CriticalSpan> = events
        .iter()
        .filter_map(|ev| {
            ev.span_ns().map(|(a, b)| CriticalSpan {
                label: format!("{} on {}", event_name(ev), track_name(&Track::of(ev))),
                start_ns: a,
                end_ns: b,
            })
        })
        .collect();
    // Sort by end (then start, then label) so "latest end ≤ cutoff" is
    // a deterministic scan from the back.
    spans.sort_by(|a, b| {
        a.end_ns.cmp(&b.end_ns).then(a.start_ns.cmp(&b.start_ns)).then(a.label.cmp(&b.label))
    });
    let mut chain: Vec<CriticalSpan> = Vec::new();
    let Some(last) = spans.last().cloned() else {
        return chain;
    };
    let mut cutoff = last.start_ns;
    chain.push(last);
    while cutoff > 0 {
        // `start < cutoff` guarantees strict progress (terminates).
        let Some(s) = spans.iter().rev().find(|s| s.end_ns <= cutoff && s.start_ns < cutoff) else {
            break;
        };
        cutoff = s.start_ns;
        chain.push(s.clone());
    }
    chain.reverse();
    chain
}
