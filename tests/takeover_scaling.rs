//! A crash takeover's cost is flat in the log's length.
//!
//! A successor reads only the undecided suffix `[at, ∞)` of the log, `at`
//! its first instance not known decided, plus every process's ballot
//! register (`protected`'s module docs). Under `DelayModel::Rdma` a
//! range read is priced by the bytes it returns, so a takeover that read
//! the whole log stalled the service longer the longer the log was: with
//! whole-log scans the commit gap below was 48.2 delays at a 2 000-entry
//! log and 120.4 at a 16 000-entry one (6 027 and 48 027 rows scanned);
//! it is 40.1 at both now (27 rows). Both checks are exact counts or
//! virtual times, so they repeat on any machine.

use agreement::harness::Scenario;
use agreement::protected::{ballot_reg, memory_actor, slot_reg};
use agreement::smr::SmrNode;
use agreement::types::{Instance, Msg, RegVal, Value};
use rdma_sim::MemoryActor;
use simnet::{ActorId, DelayModel, Duration, RdmaCost, Simulation, Time};

/// What one takeover cost.
struct Takeover {
    /// The longest time between two consecutive decisions the successor
    /// saw, in delays: the takeover's stall.
    max_gap: f64,
    /// Rows every range read of the run returned (a crash group reads
    /// ranges only when it takes over).
    scanned: u64,
    /// Rows at or above the successor's `at` on every memory when it took
    /// over, plus the ballot registers on every memory afterwards.
    suffix_and_ballots: u64,
}

fn node(sim: &Simulation<Msg>, p: ActorId) -> &SmrNode {
    sim.actor_as::<SmrNode>(p).expect("a replica")
}

/// Three replicas over three memories, batch 8, RDMA-priced links;
/// replica 0 leads until its log holds `entries` entries, then crashes,
/// and Ω names replica 1 thirty delays later.
fn takeover(entries: usize) -> Takeover {
    let mut s = Scenario::common_case(3, 3, 11);
    s.delay = DelayModel::Rdma(RdmaCost::write_optimized());
    let mut sim = s.cluster(
        |i, procs, mems| {
            let own = if i == 0 { entries + 64 } else { 64 };
            let workload = (0..own)
                .map(|c| Value(100_000 * (i as u64 + 1) + c as u64))
                .collect();
            let me = ActorId(i as u32);
            let node = SmrNode::new(
                me,
                procs,
                mems,
                ActorId(0),
                workload,
                1,
                Duration::from_delays(25),
            );
            Box::new(node.with_batch(8))
        },
        s.memories(|_| memory_actor(ActorId(0))),
    );
    let (procs, mems) = (s.procs(), s.mems());
    let limit = Time::from_delays(20 * entries as u64 + 1_000);
    sim.run_until(limit, |sim| node(sim, procs[0]).log_len() >= entries);
    assert!(
        node(&sim, procs[0]).log_len() >= entries,
        "the leader stalled"
    );
    let crash = sim.now();
    let announce = crash + Duration::from_delays(30);
    sim.crash_at(procs[0], crash);
    sim.announce_leader(announce, &procs, procs[1]);
    // Everything the crashed leader sent has landed well before Ω speaks.
    sim.run_until(crash + Duration::from_delays(29), |_| false);
    assert_eq!(
        sim.metrics().mem_range_rows,
        0,
        "a range read before the takeover"
    );
    let at = node(&sim, procs[1]).log_len() as u64;
    let mem = |sim: &Simulation<Msg>, m| {
        let mem = sim
            .actor_as::<MemoryActor<RegVal, Msg>>(m)
            .expect("a memory");
        let suffix = (at..at + 1_000).flat_map(|i| procs.iter().map(move |&p| (i, p)));
        suffix
            .filter(|&(i, p)| mem.register(slot_reg(Instance(i), p)).is_some())
            .count() as u64
    };
    let suffix: u64 = mems.iter().map(|&m| mem(&sim, m)).sum();
    let done = node(&sim, procs[1]).log_len() + 64;
    sim.run_until(announce + Duration::from_delays(2_000), |sim| {
        node(sim, procs[1]).log_len() >= done
    });
    assert!(
        node(&sim, procs[1]).log_len() >= done,
        "the successor stalled"
    );
    let ballots: u64 = (mems.iter())
        .flat_map(|&m| procs.iter().map(move |&p| (m, p)))
        .filter(|&(m, p)| {
            let mem = sim
                .actor_as::<MemoryActor<RegVal, Msg>>(m)
                .expect("a memory");
            mem.register(ballot_reg(p)).is_some()
        })
        .count() as u64;
    let times: Vec<Time> = node(&sim, procs[1])
        .decided_at()
        .iter()
        .map(|&(_, t)| t)
        .collect();
    let max_gap = times
        .windows(2)
        .map(|w| (w[1] - w[0]).as_delays())
        .fold(0.0, f64::max);
    Takeover {
        max_gap,
        scanned: sim.metrics().mem_range_rows,
        suffix_and_ballots: suffix + ballots,
    }
}

/// Eight times the log, the same stall (within a delay), and the
/// takeover reads exactly the rows at or above the successor's `at` and
/// the ballot registers.
#[test]
fn a_takeover_costs_the_same_whatever_the_log_length() {
    let (short, long) = (takeover(2_000), takeover(16_000));
    println!(
        "max commit gap {:.3} delays at 2 000 entries, {:.3} at 16 000; rows scanned {} and {}",
        short.max_gap, long.max_gap, short.scanned, long.scanned
    );
    for t in [&short, &long] {
        assert!(t.max_gap >= 30.0, "no takeover stall: {:.3}", t.max_gap);
        assert_eq!(
            t.scanned, t.suffix_and_ballots,
            "the takeover read rows below its `at`"
        );
    }
    assert!(
        (long.max_gap - short.max_gap).abs() < 1.0,
        "the takeover stall grew with the log: {:.3} -> {:.3} delays",
        short.max_gap,
        long.max_gap
    );
}
