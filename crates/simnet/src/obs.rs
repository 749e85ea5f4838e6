//! Structured observability: typed trace events, sinks, and exporters.
//!
//! The one trace stream of a run. When recording is enabled the kernel
//! emits one typed [`Event`] per interesting occurrence — dispatches,
//! sends, deliveries, timers, crashes, memory operations, leader changes,
//! plus actor-authored notes and span marks — each stamped with virtual
//! time, the executing actor, and (on the partitioned kernel) the
//! partition it was recorded on.
//!
//! Recording is **strictly read-only**: it draws no randomness, schedules
//! nothing, and never perturbs dispatch order, so a traced run is
//! bit-identical (virtual-time metrics, decisions, logs) to an untraced
//! one — the suite pins this. Disabled recording costs a single branch
//! per would-be event; every event body is built lazily behind that
//! branch.
//!
//! Four exporters turn a recorded event stream into artifacts:
//!
//! * [`to_text`] — one line per event, for reading and for golden
//!   fixtures.
//! * [`to_jsonl`] — one JSON object per line, for ad-hoc scripting.
//! * [`to_chrome_trace`] — Chrome trace-event JSON, loadable in Perfetto
//!   (`ui.perfetto.dev`) or `chrome://tracing`; per-actor tracks plus one
//!   synthesized duration slice per command span.
//! * [`to_html_timeline`] — a **self-contained** HTML timeline viewer:
//!   one file, data embedded, inline CSS/JS, zero network references, so
//!   a shrunk fuzz repro can be inspected on an air-gapped machine.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::ids::ActorId;
use crate::time::Time;

/// What one recorded [`Event`] describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventBody {
    /// The kernel dispatched a non-message event (`kind` is the event
    /// kind's wire name, e.g. `"start"`).
    Dispatch {
        /// Kind name as in [`EventKind::kind_name`](crate::EventKind::kind_name).
        kind: &'static str,
    },
    /// An actor handed a message to the network.
    Send {
        /// Destination actor.
        to: ActorId,
        /// When the link will deliver it (already sampled, so the arc is
        /// exact — recording reads the decision, it does not make one).
        deliver_at: Time,
    },
    /// A message was delivered to the recorded actor.
    Deliver {
        /// Sending actor.
        from: ActorId,
    },
    /// An actor armed a timer.
    TimerSet {
        /// The actor's purpose tag.
        tag: u64,
        /// When it will fire.
        fire_at: Time,
    },
    /// A live timer fired at the recorded actor.
    TimerFired {
        /// The actor's purpose tag.
        tag: u64,
    },
    /// The recorded actor crashed (takes no further steps).
    Crash,
    /// An event addressed to an already-crashed actor was dropped.
    Dropped {
        /// Kind name of the dropped event.
        kind: &'static str,
    },
    /// A memory operation was submitted by the recorded actor.
    MemOp {
        /// Operation name: `"read"`, `"write"`, `"read_range"`, or
        /// `"change_perm"`.
        op: &'static str,
    },
    /// The leader oracle announced a leader to the recorded actor.
    LeaderChange {
        /// The announced leader.
        leader: ActorId,
    },
    /// Free-form actor note — the escape hatch for layer-specific
    /// happenings (migrations, adversary activity, …).
    Note {
        /// The note text.
        text: Cow<'static, str>,
    },
    /// A lifecycle mark on a span (e.g. one client command): `span`
    /// identifies the span, `stage` is an application-defined stage code,
    /// `data` carries one application-defined word (the sharded layer
    /// stores the routing group).
    Mark {
        /// Span identity (the sharded layer uses the client command id).
        span: u64,
        /// Application-defined stage code (ordered along the lifecycle).
        stage: u8,
        /// Application-defined payload word.
        data: u64,
    },
}

impl EventBody {
    /// Short stable name of this body's kind (exporter vocabulary).
    pub fn kind(&self) -> &'static str {
        match self {
            EventBody::Dispatch { .. } => "dispatch",
            EventBody::Send { .. } => "send",
            EventBody::Deliver { .. } => "deliver",
            EventBody::TimerSet { .. } => "timer_set",
            EventBody::TimerFired { .. } => "timer",
            EventBody::Crash => "crash",
            EventBody::Dropped { .. } => "dropped",
            EventBody::MemOp { .. } => "mem_op",
            EventBody::LeaderChange { .. } => "leader",
            EventBody::Note { .. } => "note",
            EventBody::Mark { .. } => "mark",
        }
    }
}

/// One recorded observation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual time of the occurrence.
    pub at: Time,
    /// Kernel partition it was recorded on (0 on the monolithic kernel).
    pub partition: u32,
    /// Record sequence within the partition (total order of recording).
    pub seq: u64,
    /// The actor the occurrence is attributed to.
    pub actor: ActorId,
    /// What happened.
    pub body: EventBody,
}

/// A consumer of recorded events. The kernel's built-in buffer is always
/// filled when recording is enabled; a sink additionally sees each event
/// as it is recorded (streaming export, online assertions, …). Sinks are
/// `Send` so kernel state can move onto worker threads.
pub trait TraceSink: Send {
    /// Observes one event, in recording order.
    fn record(&mut self, ev: &Event);
}

/// The kernel-side recorder: a per-core buffer plus an optional sink.
/// Disabled by default; when disabled, [`ObsRecorder::record`] is a
/// single branch and the body closure never runs.
pub(crate) struct ObsRecorder {
    enabled: bool,
    partition: u32,
    seq: u64,
    buf: Vec<Event>,
    sink: Option<Box<dyn TraceSink>>,
}

impl ObsRecorder {
    pub(crate) fn new() -> ObsRecorder {
        ObsRecorder {
            enabled: false,
            partition: 0,
            seq: 0,
            buf: Vec::new(),
            sink: None,
        }
    }

    pub(crate) fn enable(&mut self) {
        self.enabled = true;
    }

    pub(crate) fn set_partition(&mut self, partition: u32) {
        self.partition = partition;
    }

    pub(crate) fn attach_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.enabled = true;
        self.sink = Some(sink);
    }

    /// Records one event; `body` runs only when recording is enabled.
    #[inline]
    pub(crate) fn record(&mut self, at: Time, actor: ActorId, body: impl FnOnce() -> EventBody) {
        if !self.enabled {
            return;
        }
        let ev = Event {
            at,
            partition: self.partition,
            seq: self.seq,
            actor,
            body: body(),
        };
        self.seq += 1;
        if let Some(sink) = &mut self.sink {
            sink.record(&ev);
        }
        self.buf.push(ev);
    }

    /// Drains the recorded buffer (recording order).
    pub(crate) fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.buf)
    }
}

/// Merges per-partition event buffers into one globally ordered stream:
/// sorted by `(time, partition, per-partition seq)`. Each partition's
/// stream is deterministic regardless of worker-thread count, so the
/// merged stream is too.
pub fn merge_events(buffers: Vec<Vec<Event>>) -> Vec<Event> {
    let mut all: Vec<Event> = buffers.into_iter().flatten().collect();
    all.sort_by_key(|e| (e.at, e.partition, e.seq));
    all
}

/// Escapes `s` for embedding inside a JSON string literal. `<` is also
/// escaped (as `<`) so exported JSON can be inlined into a
/// `<script>` block without ever forming a `</script>` terminator.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '<' => out.push_str("\\u003c"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one event as a single-line JSON object (no trailing newline).
fn event_json(e: &Event) -> String {
    let mut s = format!(
        "{{\"at\":{},\"part\":{},\"seq\":{},\"actor\":{},\"kind\":\"{}\"",
        e.at.0,
        e.partition,
        e.seq,
        e.actor.0,
        e.body.kind()
    );
    match &e.body {
        EventBody::Dispatch { kind } | EventBody::Dropped { kind } => {
            let _ = write!(s, ",\"of\":\"{kind}\"");
        }
        EventBody::Send { to, deliver_at } => {
            let _ = write!(s, ",\"to\":{},\"deliver_at\":{}", to.0, deliver_at.0);
        }
        EventBody::Deliver { from } => {
            let _ = write!(s, ",\"from\":{}", from.0);
        }
        EventBody::TimerSet { tag, fire_at } => {
            let _ = write!(s, ",\"tag\":{tag},\"fire_at\":{}", fire_at.0);
        }
        EventBody::TimerFired { tag } => {
            let _ = write!(s, ",\"tag\":{tag}");
        }
        EventBody::Crash => {}
        EventBody::MemOp { op } => {
            let _ = write!(s, ",\"op\":\"{op}\"");
        }
        EventBody::LeaderChange { leader } => {
            let _ = write!(s, ",\"leader\":{}", leader.0);
        }
        EventBody::Note { text } => {
            let _ = write!(s, ",\"text\":\"{}\"", json_escape(text));
        }
        EventBody::Mark { span, stage, data } => {
            let _ = write!(s, ",\"span\":{span},\"stage\":{stage},\"data\":{data}");
        }
    }
    s.push('}');
    s
}

/// Renders events as text, one `[time] actor what` line per event, in
/// stream order.
pub fn to_text(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = write!(
            out,
            "[{:>10}] {:<4} ",
            e.at.to_string(),
            e.actor.to_string()
        );
        let _ = match &e.body {
            EventBody::Dispatch { kind } => write!(out, "deliver {kind}"),
            EventBody::Send { to, deliver_at } => write!(out, "send to {to}, due {deliver_at}"),
            EventBody::Deliver { from } => write!(out, "deliver msg from {from}"),
            EventBody::TimerSet { tag, fire_at } => write!(out, "timer {tag} set for {fire_at}"),
            EventBody::TimerFired { tag } => write!(out, "deliver timer {tag}"),
            EventBody::Crash => write!(out, "CRASH"),
            EventBody::Dropped { kind } => write!(out, "dropped {kind} (crashed)"),
            EventBody::MemOp { op } => write!(out, "mem op {op}"),
            EventBody::LeaderChange { leader } => write!(out, "deliver leader {leader}"),
            EventBody::Note { text } => write!(out, "{text}"),
            EventBody::Mark { span, stage, data } => {
                write!(out, "mark span {span} stage {stage} data {data}")
            }
        };
        out.push('\n');
    }
    out
}

/// Exports events as JSON Lines: one object per event, in stream order.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_json(e));
        out.push('\n');
    }
    out
}

/// Exports events as Chrome trace-event JSON (the `traceEvents` array
/// format Perfetto and `chrome://tracing` load). Virtual-time ticks map
/// 1:1 to microseconds, so one network delay renders as 1 ms. Each event
/// becomes an instant on its actor's track (`pid` = partition, `tid` =
/// actor); in addition, every span id seen in [`EventBody::Mark`] events
/// is synthesized into one complete (`"X"`) slice from its first to its
/// last mark, on a dedicated `span` track.
pub fn to_chrome_trace(events: &[Event]) -> String {
    fn push(out: &mut String, first: &mut bool, s: &str) {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(s);
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut spans: BTreeMap<u64, (Time, Time)> = BTreeMap::new();
    for e in events {
        if let EventBody::Mark { span, .. } = e.body {
            let entry = spans.entry(span).or_insert((e.at, e.at));
            entry.0 = entry.0.min(e.at);
            entry.1 = entry.1.max(e.at);
        }
        let name = match &e.body {
            EventBody::Dispatch { kind } => format!("dispatch {kind}"),
            EventBody::Send { .. } => "send".to_string(),
            EventBody::Deliver { .. } => "deliver".to_string(),
            EventBody::TimerSet { .. } => "timer_set".to_string(),
            EventBody::TimerFired { tag } => format!("timer {tag}"),
            EventBody::Crash => "CRASH".to_string(),
            EventBody::Dropped { kind } => format!("dropped {kind}"),
            EventBody::MemOp { op } => format!("mem {op}"),
            EventBody::LeaderChange { leader } => format!("leader a{}", leader.0),
            EventBody::Note { text } => json_escape(text),
            EventBody::Mark { span, stage, .. } => format!("mark s{span}@{stage}"),
        };
        push(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{}}}",
                name,
                e.at.0,
                e.partition,
                e.actor.0,
                event_json(e)
            ),
        );
    }
    for (span, (lo, hi)) in spans {
        push(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"span {}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":\"spans\"}}",
                span,
                lo.0,
                (hi.0 - lo.0).max(1)
            ),
        );
    }
    out.push_str("]}");
    out
}

/// The inline viewer shell. `__TITLE__` and `__DATA__` are substituted;
/// everything else — CSS, JS, SVG rendering — is embedded verbatim, with
/// no external references whatsoever (offline constraint).
const HTML_TEMPLATE: &str = r#"<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
body { background: #14161a; color: #d8dce2; font: 13px monospace; margin: 0; }
h1 { font-size: 15px; padding: 10px 14px 0; margin: 0; }
#legend { padding: 4px 14px 8px; color: #8a93a0; }
#legend span { margin-right: 14px; }
#wrap { overflow-x: auto; }
svg { display: block; }
.lane { stroke: #262a31; stroke-width: 1; }
.lanelabel { fill: #8a93a0; font: 11px monospace; }
.t-deliver { fill: #4c9be8; }
.t-send { fill: #3a6ea5; }
.t-timer { fill: #777f3f; }
.t-mem_op { fill: #5b5f66; }
.t-leader { fill: #c9a227; }
.t-crash { fill: #e05252; }
.t-dropped { fill: #8a4a4a; }
.t-note { fill: #7ac77a; }
.t-mark { fill: #c678dd; }
.t-dispatch { fill: #5b5f66; }
.t-timer_set { fill: #4a4f3a; }
.msg { stroke: #3a6ea5; stroke-width: 0.6; opacity: 0.35; fill: none; }
.span-arc { stroke: #c678dd; stroke-width: 1.2; opacity: 0.8; fill: none; }
.crashline { stroke: #e05252; stroke-width: 1; stroke-dasharray: 3 3; }
#tip { position: fixed; background: #21252c; border: 1px solid #3a3f47;
       padding: 4px 8px; pointer-events: none; display: none; max-width: 60em; }
</style>
</head>
<body>
<h1>__TITLE__</h1>
<div id="legend"></div>
<div id="wrap"></div>
<div id="tip"></div>
<script>
var DATA = __DATA__;
(function () {
  var NS = "http://www.w3.org/2000/svg";
  var actors = [];
  DATA.forEach(function (e) {
    if (actors.indexOf(e.actor) < 0) actors.push(e.actor);
    if (e.kind === "send" && actors.indexOf(e.to) < 0) actors.push(e.to);
  });
  actors.sort(function (a, b) { return a - b; });
  var lane = {};
  actors.forEach(function (a, i) { lane[a] = i; });
  var tMax = 1;
  DATA.forEach(function (e) {
    tMax = Math.max(tMax, e.at, e.deliver_at || 0, e.fire_at || 0);
  });
  var LH = 18, LABEL = 64, H = actors.length * LH + 40;
  var W = Math.max(900, Math.min(16000, Math.round(tMax / 50)));
  var sx = function (t) { return LABEL + (t / tMax) * (W - LABEL - 10); };
  var sy = function (a) { return 24 + lane[a] * LH + LH / 2; };
  var svg = document.createElementNS(NS, "svg");
  svg.setAttribute("width", W); svg.setAttribute("height", H);
  function el(tag, attrs) {
    var n = document.createElementNS(NS, tag);
    for (var k in attrs) n.setAttribute(k, attrs[k]);
    svg.appendChild(n);
    return n;
  }
  actors.forEach(function (a) {
    el("line", { x1: LABEL, y1: sy(a), x2: W - 10, y2: sy(a), "class": "lane" });
    var t = el("text", { x: 4, y: sy(a) + 4, "class": "lanelabel" });
    t.textContent = "a" + a;
  });
  DATA.forEach(function (e) {
    if (e.kind === "send" && e.to !== undefined) {
      el("line", { x1: sx(e.at), y1: sy(e.actor),
                   x2: sx(e.deliver_at), y2: sy(e.to), "class": "msg" });
    }
  });
  var marks = {};
  DATA.forEach(function (e) {
    if (e.kind === "mark") {
      (marks[e.span] = marks[e.span] || []).push(e);
    }
  });
  Object.keys(marks).forEach(function (s) {
    var ms = marks[s];
    ms.sort(function (a, b) { return a.at - b.at || a.stage - b.stage; });
    var d = "";
    ms.forEach(function (m, i) {
      d += (i ? " L " : "M ") + sx(m.at) + " " + sy(m.actor);
    });
    if (ms.length > 1) el("path", { d: d, "class": "span-arc" });
  });
  var tip = document.getElementById("tip");
  DATA.forEach(function (e) {
    var attrs = { cx: sx(e.at), cy: sy(e.actor), r: e.kind === "mark" ? 3 :
                  (e.kind === "crash" ? 4 : 2), "class": "t-" + e.kind };
    var c = el("circle", attrs);
    if (e.kind === "crash") {
      el("line", { x1: sx(e.at), y1: 14, x2: sx(e.at), y2: H - 10, "class": "crashline" });
    }
    c.addEventListener("mousemove", function (ev) {
      tip.style.display = "block";
      tip.style.left = (ev.clientX + 12) + "px";
      tip.style.top = (ev.clientY + 12) + "px";
      tip.textContent = JSON.stringify(e);
    });
    c.addEventListener("mouseout", function () { tip.style.display = "none"; });
  });
  document.getElementById("wrap").appendChild(svg);
  var kinds = {};
  DATA.forEach(function (e) { kinds[e.kind] = (kinds[e.kind] || 0) + 1; });
  var legend = document.getElementById("legend");
  Object.keys(kinds).sort().forEach(function (k) {
    var s = document.createElement("span");
    s.textContent = k + " ×" + kinds[k];
    legend.appendChild(s);
  });
})();
</script>
</body>
</html>
"#;

/// Renders events into a **self-contained** HTML timeline: per-actor
/// lanes, message arcs (send → delivery), span arcs through their marks,
/// crash markers, and hover details — all data embedded, inline CSS/JS,
/// no network access required or attempted.
pub fn to_html_timeline(title: &str, events: &[Event]) -> String {
    let mut data = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            data.push(',');
        }
        data.push_str(&event_json(e));
    }
    data.push(']');
    HTML_TEMPLATE
        .replace("__TITLE__", &json_escape(title))
        .replace("__DATA__", &data)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A sink that counts the events it sees into a counter the test
    /// keeps.
    pub(crate) struct CountingSink(Arc<AtomicU64>);

    impl CountingSink {
        /// The sink, and the counter it counts into.
        pub(crate) fn new() -> (CountingSink, Arc<AtomicU64>) {
            let seen = Arc::new(AtomicU64::new(0));
            (CountingSink(seen.clone()), seen)
        }
    }

    impl TraceSink for CountingSink {
        fn record(&mut self, _: &Event) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn ev(at: u64, partition: u32, seq: u64, actor: u32, body: EventBody) -> Event {
        Event {
            at: Time(at),
            partition,
            seq,
            actor: ActorId(actor),
            body,
        }
    }

    #[test]
    fn disabled_recorder_runs_no_body() {
        let mut r = ObsRecorder::new();
        r.record(Time(1), ActorId(0), || panic!("must not run when disabled"));
        assert!(r.take().is_empty());
    }

    #[test]
    fn recorder_stamps_partition_and_seq() {
        let mut r = ObsRecorder::new();
        r.enable();
        r.set_partition(3);
        r.record(Time(5), ActorId(1), || EventBody::Crash);
        r.record(Time(7), ActorId(2), || EventBody::Deliver {
            from: ActorId(1),
        });
        let evs = r.take();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].partition, 3);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert!(r.take().is_empty(), "take drains");
    }

    #[test]
    fn sink_sees_events_in_order() {
        let mut r = ObsRecorder::new();
        let (sink, seen) = CountingSink::new();
        r.attach_sink(Box::new(sink));
        r.record(Time(1), ActorId(0), || EventBody::Crash);
        r.record(Time(2), ActorId(0), || EventBody::Crash);
        // The built-in buffer still fills alongside the sink.
        assert_eq!(r.take().len(), 2);
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn merge_orders_by_time_then_partition_then_seq() {
        let a = vec![
            ev(10, 0, 0, 1, EventBody::Crash),
            ev(30, 0, 1, 1, EventBody::Crash),
        ];
        let b = vec![
            ev(10, 1, 0, 2, EventBody::Crash),
            ev(20, 1, 1, 2, EventBody::Crash),
        ];
        let merged = merge_events(vec![a, b]);
        let key: Vec<(u64, u32)> = merged.iter().map(|e| (e.at.0, e.partition)).collect();
        assert_eq!(key, vec![(10, 0), (10, 1), (20, 1), (30, 0)]);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let evs = vec![
            ev(
                1,
                0,
                0,
                4,
                EventBody::Send {
                    to: ActorId(5),
                    deliver_at: Time(1001),
                },
            ),
            ev(
                1001,
                0,
                1,
                5,
                EventBody::Note {
                    text: Cow::Borrowed("hello \"world\""),
                },
            ),
        ];
        let out = to_jsonl(&evs);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"send\""));
        assert!(lines[0].contains("\"deliver_at\":1001"));
        assert!(lines[1].contains("\\\"world\\\""));
    }

    #[test]
    fn chrome_trace_has_span_slices() {
        let evs = vec![
            ev(
                100,
                0,
                0,
                9,
                EventBody::Mark {
                    span: 7,
                    stage: 0,
                    data: 0,
                },
            ),
            ev(
                400,
                0,
                1,
                9,
                EventBody::Mark {
                    span: 7,
                    stage: 4,
                    data: 0,
                },
            ),
        ];
        let out = to_chrome_trace(&evs);
        assert!(out.starts_with('{') && out.ends_with('}'));
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"dur\":300"));
    }

    #[test]
    fn html_is_self_contained() {
        let evs = vec![ev(
            5,
            0,
            0,
            1,
            EventBody::Note {
                text: Cow::Borrowed("</script><script>alert(1)</script>"),
            },
        )];
        let html = to_html_timeline("test run", &evs);
        assert!(html.contains("<!DOCTYPE html>"));
        // Offline constraint: no external references of any kind. The SVG
        // namespace URL inside the inline script is an identifier, not a
        // fetch, and is the only URL-shaped string allowed.
        assert!(
            !html.contains("http://") || {
                let stripped = html.replace("http://www.w3.org/2000/svg", "");
                !stripped.contains("http://")
            }
        );
        assert!(!html.contains("https://"));
        assert!(!html.contains("src="));
        assert!(!html.contains("href="));
        // The note's script terminator must have been neutralized.
        assert_eq!(html.matches("</script>").count(), 1);
    }
}
