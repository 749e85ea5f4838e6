//! Timeline artifacts for failing fuzz cases.
//!
//! A shrunk repro pins a violation, but *seeing* the violating schedule
//! is what makes it debuggable: which command was duplicated, which
//! group's failover re-submission raced which commit. This module
//! re-runs a (typically shrunk) scenario with observability recording
//! switched on and renders the run's event stream in every export
//! format [`simnet::obs`] offers — JSONL for grep, Chrome trace-event
//! JSON for Perfetto/`chrome://tracing`, and the self-contained HTML
//! timeline viewer.
//!
//! The re-run is safe *because observability is read-only*: enabling
//! recording never draws randomness or perturbs the schedule, so the
//! traced run reproduces the violating execution bit-for-bit — the
//! timeline shows the actual failure, not a lookalike. The `fuzz`
//! binary writes these artifacts next to each failure it reports.

use crate::harness::{run_sharded_with_events, ShardedScenario};
use simnet::obs;

/// Rendered exports of one scenario's observability stream.
#[derive(Clone, Debug)]
pub struct TimelineArtifacts {
    /// One JSON object per event, newline-delimited.
    pub jsonl: String,
    /// Chrome trace-event JSON (load in Perfetto or `chrome://tracing`).
    pub chrome: String,
    /// Self-contained HTML timeline (no external resources).
    pub html: String,
    /// Number of events recorded.
    pub events: usize,
}

/// Re-runs `sc` with event recording enabled and renders the
/// run's timeline in all three export formats. `title` labels the HTML
/// viewer (use the case seed and violation).
pub fn render_timeline(sc: &ShardedScenario, title: &str) -> TimelineArtifacts {
    let mut traced = sc.clone();
    traced.record_events = true;
    let (_report, events) = run_sharded_with_events(&traced);
    render_events(&events, title)
}

/// Renders an already-captured observability stream in all three export
/// formats — for callers that produced the events themselves, like the
/// schedule explorer ([`crate::explore`]) replaying a failing choice
/// vector under its kernel hook.
pub fn render_events(events: &[obs::Event], title: &str) -> TimelineArtifacts {
    TimelineArtifacts {
        jsonl: obs::to_jsonl(events),
        chrome: obs::to_chrome_trace(events),
        html: obs::to_html_timeline(title, events),
        events: events.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{check, Violation};
    use crate::sharded::WorkloadSpec;

    /// The oracle-demo schedule: failover re-submission with session
    /// dedup deliberately disabled — the reintroduced duplicate-commit
    /// bug the fuzz corpus pins (`tests/fuzz_regressions.rs`).
    fn dedup_bug_scenario() -> ShardedScenario {
        let mut sc = ShardedScenario::common_case(4, 3, 3, 33);
        sc.total_cmds = 300;
        sc.workload = WorkloadSpec::Zipf {
            keys: 1024,
            s: 0.99,
        };
        sc.window = 6;
        sc.batch = 2;
        sc.crash_leaders = vec![(0, 15), (2, 31)];
        sc.announce = vec![(0, 1, 70), (2, 1, 90)];
        sc.max_delays = 20_000;
        sc.disable_session_dedup = true;
        sc
    }

    #[test]
    fn shrunk_failing_case_renders_a_timeline_showing_the_duplicate() {
        let sc = dedup_bug_scenario();
        check(&sc).expect_err("oracle missed the injected bug");
        // What the fuzz driver exports: the *shrunk* scenario's timeline.
        let (shrunk, shrunk_violation) = crate::fuzz::shrink(&sc);
        let Violation::Duplicated { id, .. } = shrunk_violation else {
            panic!("expected a duplicated command, got: {shrunk_violation}");
        };
        let art = render_timeline(&shrunk, &format!("seed 33: {shrunk_violation}"));
        assert!(art.events > 0);
        // The duplicated command's lifecycle marks are in the stream:
        // its span appears in the JSONL export...
        let span_line = format!("\"kind\":\"mark\",\"span\":{id},");
        assert!(
            art.jsonl.lines().any(|l| l.contains(&span_line)),
            "duplicated command {id} has no span marks in the JSONL export"
        );
        // ...and the duplication itself is visible: some replica settles
        // the same command's span twice (two decide marks from one
        // actor — one per duplicated log slot). A healthy run has
        // exactly one decide mark per (actor, span).
        let decide_actors: Vec<&str> = art
            .jsonl
            .lines()
            .filter(|l| l.contains(&span_line) && l.contains("\"stage\":3,"))
            .filter_map(|l| {
                let at = l.find("\"actor\":")? + "\"actor\":".len();
                let end = l[at..].find(',')? + at;
                Some(&l[at..end])
            })
            .collect();
        let distinct: std::collections::BTreeSet<&str> = decide_actors.iter().copied().collect();
        assert!(
            decide_actors.len() > distinct.len(),
            "no replica decided command {id} twice: actors {decide_actors:?}"
        );
        // The other exports carry the same stream.
        assert!(art.chrome.contains("\"traceEvents\""));
        assert!(art.html.contains("<html"));
        assert!(art.html.contains("seed 33"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut sc = ShardedScenario::common_case(2, 3, 3, 7);
        sc.total_cmds = 40;
        sc.window = 4;
        let a = render_timeline(&sc, "t");
        let b = render_timeline(&sc, "t");
        assert_eq!(a.jsonl, b.jsonl);
        assert_eq!(a.chrome, b.chrome);
        assert_eq!(a.html, b.html);
    }
}
