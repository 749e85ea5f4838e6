//! Command-lifecycle spans over the sharded service.
//!
//! Every client command of a sharded run traverses the same stages:
//! **submit** (the router stamps its latency clock), **route** (the
//! router sends it to a group leader in a `Submit` batch), **propose**
//! (the leader writes it to the memories — crash PMP's phase-2 write or
//! Byzantine mode's non-equivocating broadcast), **decide** (a replica
//! settles it into the log) and **confirm** (the router counts it
//! committed — immediately for crash groups, at the `f + 1` quorum for
//! Byzantine ones). Byzantine groups additionally mark **deliver** — the
//! leader's own broadcast coming back around (self-delivery, or the
//! fast path's write ack) — making the pipeline's overlap visible
//! between propose and decide; crash groups never emit it.
//!
//! The protocol actors emit one [`simnet::obs::EventBody::Mark`] per
//! stage transition through [`simnet::Context::obs_mark`] — span id =
//! the command's dense 1-based id, `data` = the routing group where the
//! router knows it. Marks are strictly read-only observations: with the
//! recorder disabled (the default) they cost one branch, and enabling
//! them never draws randomness or perturbs the schedule, so traced and
//! untraced runs are bit-identical.
//!
//! [`aggregate_spans`] reduces a run's merged event stream to per-group,
//! per-stage latency histograms ([`GroupSpanStats`]). Span statistics are
//! a function of the event stream and nothing else: set
//! [`crate::harness::ShardedScenario::record_events`], run
//! [`crate::harness::run_sharded_with_events`], and aggregate the events
//! it returns — the run report itself is the same, traced or not. The
//! histograms keep their samples and answer percentiles exactly;
//! aggregation is deterministic and replay/thread-count invariant like
//! the stream it reads.

use simnet::obs::{Event, EventBody};

use crate::types::Value;

/// Stage code of a command's first submission (router, latency stamp).
pub const STAGE_SUBMIT: u8 = 0;
/// Stage code of a router → leader `Submit` send (first or re-route).
pub const STAGE_ROUTE: u8 = 1;
/// Stage code of the leader's replicated proposal (phase-2 write or
/// Byzantine broadcast).
pub const STAGE_PROPOSE: u8 = 2;
/// Stage code of a replica settling the command into its log.
pub const STAGE_DECIDE: u8 = 3;
/// Stage code of the router counting the command committed.
pub const STAGE_CONFIRM: u8 = 4;
/// Stage code of a Byzantine leader's broadcast coming back around:
/// self-delivery (read + copy + audit), or the fast path's write ack.
/// Sits between propose and decide in the lifecycle; crash groups never
/// emit it, so their histograms are untouched.
pub const STAGE_DELIVER: u8 = 5;

/// Number of distinct stage codes.
const STAGES: usize = 6;

/// The latency sample of one stage transition. Keeps every duration, so
/// percentiles are exact nearest-rank values (a protocol step that takes
/// exactly two delays reads 2.0, not a bucket bound). Samples are kept in
/// recording order; [`aggregate_spans`] records in command-id order, so
/// span statistics stay replay- and thread-count-invariant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Recorded durations, in ticks.
    samples: Vec<u64>,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one duration.
    pub fn record(&mut self, ticks: u64) {
        self.samples.push(ticks);
    }

    /// Total durations recorded.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// The `p`-th percentile (0.0 ..= 100.0) by nearest rank, in ticks (0
    /// when empty) — the service latencies' own
    /// [`percentile_ticks`](crate::sharded::metrics::percentile_ticks).
    pub fn percentile(&self, p: f64) -> u64 {
        crate::sharded::metrics::percentile_ticks(&self.samples, p)
    }

    /// Median duration, in ticks.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 99th-percentile duration, in ticks.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// One stage-transition latency distribution of a group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageLatency {
    /// Transition name: `"route"`, `"propose"`, `"deliver"` (Byzantine
    /// broadcast self-delivery), `"decide"`, `"confirm"` or `"total"`
    /// (submit → confirm).
    pub stage: &'static str,
    /// Latency distribution of the transition, in ticks.
    pub hist: LatencyHistogram,
}

/// Per-group command-lifecycle statistics of one sharded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupSpanStats {
    /// The group these commands were confirmed in.
    pub group: usize,
    /// Commands attributed to this group (with at least a submit and a
    /// confirm mark).
    pub spans: u64,
    /// One entry per stage transition, fixed order:
    /// route, propose, deliver, decide, confirm, total.
    pub stages: Vec<StageLatency>,
}

impl GroupSpanStats {
    fn new(group: usize) -> GroupSpanStats {
        GroupSpanStats {
            group,
            spans: 0,
            stages: TRANSITIONS
                .iter()
                .map(|&(_, _, stage)| StageLatency {
                    stage,
                    hist: LatencyHistogram::new(),
                })
                .collect(),
        }
    }

    /// The named transition's histogram, if present.
    pub fn stage(&self, name: &str) -> Option<&LatencyHistogram> {
        self.stages
            .iter()
            .find(|s| s.stage == name)
            .map(|s| &s.hist)
    }
}

/// The stage transitions a span report carries: `(from, to, name)`.
/// `deliver` (propose → broadcast self-delivery) only populates for
/// Byzantine groups; `decide` keeps its propose → decide endpoints so
/// crash-group histograms are identical with or without the stage.
const TRANSITIONS: [(u8, u8, &str); 6] = [
    (STAGE_SUBMIT, STAGE_ROUTE, "route"),
    (STAGE_ROUTE, STAGE_PROPOSE, "propose"),
    (STAGE_PROPOSE, STAGE_DELIVER, "deliver"),
    (STAGE_PROPOSE, STAGE_DECIDE, "decide"),
    (STAGE_DECIDE, STAGE_CONFIRM, "confirm"),
    (STAGE_SUBMIT, STAGE_CONFIRM, "total"),
];

/// Reduces a run's merged event stream to per-group span statistics.
///
/// For every client command id in `1 ..= total_cmds`, the *first* mark
/// per stage wins (re-routes and follower re-settles only ever move a
/// stage later, and the merged stream is time-ordered). A command is
/// attributed to the group its confirm mark carries (falling back to its
/// submit mark's group), so migrated commands land at their destination.
/// Commands missing a transition endpoint simply don't contribute to
/// that transition's histogram.
pub fn aggregate_spans(events: &[Event], groups: usize, total_cmds: usize) -> Vec<GroupSpanStats> {
    // first_mark[id][stage] = (ticks, group) of the id's earliest mark.
    let mut first_mark: Vec<[Option<(u64, u64)>; STAGES]> = vec![[None; STAGES]; total_cmds + 1];
    for ev in events {
        let EventBody::Mark { span, stage, data } = ev.body else {
            continue;
        };
        let (Some(id), stage) = (Value(span).client_id(total_cmds), stage as usize) else {
            continue;
        };
        if stage >= STAGES {
            continue;
        }
        if first_mark[id][stage].is_none() {
            first_mark[id][stage] = Some((ev.at.0, data));
        }
    }
    let mut stats: Vec<GroupSpanStats> = (0..groups).map(GroupSpanStats::new).collect();
    for marks in &first_mark[1..] {
        let confirm = marks[STAGE_CONFIRM as usize];
        let submit = marks[STAGE_SUBMIT as usize];
        let Some((_, group)) = confirm.or(submit) else {
            continue;
        };
        let g = group as usize;
        if g >= groups {
            continue;
        }
        if submit.is_some() && confirm.is_some() {
            stats[g].spans += 1;
        }
        for (t, &(from, to, _)) in TRANSITIONS.iter().enumerate() {
            let (Some((at_from, _)), Some((at_to, _))) = (marks[from as usize], marks[to as usize])
            else {
                continue;
            };
            if at_to >= at_from {
                stats[g].stages[t].hist.record(at_to - at_from);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{ActorId, Time};

    fn mark(at: u64, span: u64, stage: u8, data: u64) -> Event {
        Event {
            at: Time(at),
            partition: 0,
            seq: at,
            actor: ActorId(99),
            body: EventBody::Mark { span, stage, data },
        }
    }

    #[test]
    fn histogram_percentiles_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(10_000);
        for _ in 0..98 {
            h.record(100);
        }
        h.record(0);
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.p50(), 100);
        assert_eq!(h.p99(), 100);
        assert_eq!(h.percentile(100.0), 10_000);
        assert_eq!(LatencyHistogram::new().p50(), 0);
    }

    #[test]
    fn two_point_distribution_separates_p50_from_p99() {
        let mut h = LatencyHistogram::new();
        for ticks in [1_000, 1_000, 1_000, 4_000, 4_000] {
            h.record(ticks);
        }
        assert_eq!((h.p50(), h.p99()), (1_000, 4_000));
    }

    #[test]
    fn spans_aggregate_by_confirm_group_with_first_mark_wins() {
        let events = vec![
            mark(10, 1, STAGE_SUBMIT, 0),
            mark(10, 1, STAGE_ROUTE, 0),
            mark(20, 1, STAGE_PROPOSE, 0),
            mark(30, 1, STAGE_DECIDE, 0),
            mark(35, 1, STAGE_DECIDE, 0),  // follower re-settle: ignored
            mark(40, 1, STAGE_CONFIRM, 1), // confirmed at group 1 (migrated)
            // Command 2 never confirms: contributes route only.
            mark(12, 2, STAGE_SUBMIT, 0),
            mark(14, 2, STAGE_ROUTE, 0),
            // Out-of-range ids are ignored.
            mark(5, 99, STAGE_SUBMIT, 0),
        ];
        let stats = aggregate_spans(&events, 2, 2);
        assert_eq!(stats.len(), 2);
        // Command 1 landed in group 1 (its confirm group).
        assert_eq!(stats[1].spans, 1);
        assert_eq!(stats[1].stage("total").unwrap().count(), 1);
        assert_eq!(stats[1].stage("decide").unwrap().count(), 1);
        // Decide took 10 ticks, and reads 10.
        assert_eq!(stats[1].stage("decide").unwrap().p50(), 10);
        // Command 2 stayed in group 0 and only routed.
        assert_eq!(stats[0].spans, 0);
        assert_eq!(stats[0].stage("route").unwrap().count(), 1);
        assert_eq!(stats[0].stage("total").unwrap().count(), 0);
    }

    #[test]
    fn aggregation_is_input_order_invariant_for_distinct_times() {
        let a = vec![mark(10, 1, STAGE_SUBMIT, 0), mark(20, 1, STAGE_CONFIRM, 0)];
        let b: Vec<Event> = a.iter().rev().cloned().collect();
        // The merged stream is always time-ordered in practice; even
        // reversed, first-mark-wins keys on the recorded times here
        // because the stages differ.
        assert_eq!(aggregate_spans(&a, 1, 1), aggregate_spans(&b, 1, 1));
    }
}
