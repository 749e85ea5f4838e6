//! Per-run metrics.
//!
//! The benchmarks in this repository reproduce the paper's evaluation metric
//! — decision latency in network delays — plus auxiliary cost counters
//! (messages, memory operations, signatures) used by the signature-count and
//! throughput experiments.

use std::collections::BTreeMap;

use crate::ids::ActorId;
use crate::time::Time;

/// Dispatch counts broken out by event kind — `peak_queue_len`'s
/// companion: *what* the kernel was dispatching, not just how deep the
/// queue got. The fields sum to [`Metrics::events_dispatched`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    /// `Start` events dispatched.
    pub start: u64,
    /// Messages delivered to live actors.
    pub msg: u64,
    /// Timer events dispatched to live actors (stale ones included —
    /// they were scheduled and popped even if the actor never saw them).
    pub timer: u64,
    /// Leader-change announcements dispatched.
    pub leader: u64,
    /// Crash events executed.
    pub crash: u64,
    /// Events dropped because the recipient had crashed.
    pub dropped: u64,
}

impl DispatchCounts {
    /// Total dispatches across all kinds.
    pub fn total(&self) -> u64 {
        self.start + self.msg + self.timer + self.leader + self.crash + self.dropped
    }
}

/// Counters and timestamps accumulated over one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Events dispatched by the kernel (messages, timers, starts, leader
    /// changes, crashes, and drops to crashed actors). The denominator of
    /// the events/sec and allocations-per-event perf metrics.
    pub events_dispatched: u64,
    /// The same dispatches broken out per event kind.
    pub dispatches: DispatchCounts,
    /// Messages handed to the network (includes memory-operation legs).
    pub messages_sent: u64,
    /// Messages actually delivered (excludes those addressed to crashed actors).
    pub messages_delivered: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Memory read operations submitted (counted by the memory client).
    pub mem_reads: u64,
    /// Memory write operations submitted.
    pub mem_writes: u64,
    /// Memory range-read operations submitted.
    pub mem_range_reads: u64,
    /// Permission-change operations submitted.
    pub perm_changes: u64,
    /// Rows returned by range reads, summed over every memory's responses
    /// (counted by the memory actor). Per command it says how much each
    /// range read fetched — the deterministic proxy for the bytes a scan
    /// moves, flat in the log length when reads are window-bounded.
    pub mem_range_rows: u64,
    /// Deepest the kernel event queue ever got, in keys in its heap (one
    /// per scheduled event or crash). Large multi-group workloads (many
    /// actors, many in-flight messages) are where it grows; this exposes
    /// it to the perf snapshots.
    pub peak_queue_len: u64,
    /// When each actor first reported a decision, in event order.
    decisions: BTreeMap<ActorId, Time>,
}

impl Metrics {
    /// Creates an empty metrics record.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records that `actor` decided at `at`. Later reports for the same
    /// actor are ignored (decisions are irrevocable).
    pub fn record_decision(&mut self, actor: ActorId, at: Time) {
        self.decisions.entry(actor).or_insert(at);
    }

    /// The instant of the earliest decision, if any.
    ///
    /// A protocol is *k-deciding* if in common-case executions some process
    /// decides within k delays; this is the measured quantity.
    pub fn first_decision(&self) -> Option<Time> {
        self.decisions.values().copied().min()
    }

    /// The earliest decision expressed in network delays.
    pub fn first_decision_delays(&self) -> Option<f64> {
        self.first_decision().map(Time::as_delays)
    }

    /// All recorded decision instants, keyed by actor.
    pub fn decisions(&self) -> &BTreeMap<ActorId, Time> {
        &self.decisions
    }

    /// Total memory operations of all kinds.
    pub fn mem_ops(&self) -> u64 {
        self.mem_reads + self.mem_writes + self.mem_range_reads + self.perm_changes
    }

    /// Folds another partition's metrics into this record (the partitioned
    /// kernel keeps one [`Metrics`] per sub-kernel and merges at the end):
    /// event/message/memory counters sum; `peak_queue_len` takes the max —
    /// under partitioning there is no single global queue, so the merged
    /// value means "deepest any partition's queue got" and the per-partition
    /// peaks are reported alongside it; decision instants union,
    /// keeping the earliest per actor (decisions are irrevocable).
    pub fn absorb(&mut self, other: &Metrics) {
        self.events_dispatched += other.events_dispatched;
        self.dispatches.start += other.dispatches.start;
        self.dispatches.msg += other.dispatches.msg;
        self.dispatches.timer += other.dispatches.timer;
        self.dispatches.leader += other.dispatches.leader;
        self.dispatches.crash += other.dispatches.crash;
        self.dispatches.dropped += other.dispatches.dropped;
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.timers_fired += other.timers_fired;
        self.mem_reads += other.mem_reads;
        self.mem_writes += other.mem_writes;
        self.mem_range_reads += other.mem_range_reads;
        self.perm_changes += other.perm_changes;
        self.mem_range_rows += other.mem_range_rows;
        self.peak_queue_len = self.peak_queue_len.max(other.peak_queue_len);
        for (&actor, &at) in &other.decisions {
            self.decisions
                .entry(actor)
                .and_modify(|t| *t = (*t).min(at))
                .or_insert(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_decision_is_min() {
        let mut m = Metrics::new();
        assert_eq!(m.first_decision(), None);
        m.record_decision(ActorId(1), Time::from_delays(5));
        m.record_decision(ActorId(0), Time::from_delays(2));
        assert_eq!(m.first_decision(), Some(Time::from_delays(2)));
        assert_eq!(m.first_decision_delays(), Some(2.0));
    }

    #[test]
    fn decisions_are_irrevocable() {
        let mut m = Metrics::new();
        m.record_decision(ActorId(0), Time::from_delays(2));
        m.record_decision(ActorId(0), Time::from_delays(9));
        assert_eq!(m.decisions()[&ActorId(0)], Time::from_delays(2));
    }

    #[test]
    fn mem_ops_totals() {
        let mut m = Metrics::new();
        m.mem_reads = 2;
        m.mem_writes = 3;
        m.mem_range_reads = 1;
        m.perm_changes = 4;
        assert_eq!(m.mem_ops(), 10);
    }

    #[test]
    fn dispatch_counts_sum_and_absorb() {
        let mut a = Metrics::new();
        a.events_dispatched = 5;
        a.dispatches.msg = 3;
        a.dispatches.timer = 2;
        let mut b = Metrics::new();
        b.events_dispatched = 2;
        b.dispatches.start = 1;
        b.dispatches.crash = 1;
        a.absorb(&b);
        assert_eq!(a.dispatches.total(), 7);
        assert_eq!(a.dispatches.total(), a.events_dispatched);
    }
}
