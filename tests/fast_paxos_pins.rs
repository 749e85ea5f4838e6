//! Absolute pins for Fast Paxos, the message-passing baseline of §1: the
//! uncontended fast round at n = 3 and n = 5, two proposers colliding and
//! recovered by the coordinator's classic round, recovery handed to a new
//! coordinator by Ω after the first one crashed, and a proposal that
//! reaches an acceptor only after it promised (no fast vote then).
//!
//! Every value below was captured from `FastPaxosActor` while it still
//! kept its own classic-round acceptor state, and is never re-recorded: a
//! moved pin means the actor now votes, promises or decides differently.

use agreement::fast_paxos::FastPaxosActor;
use agreement::harness::{decisions, run_fast_paxos, RunReport, Scenario};
use agreement::types::Pid;
use simnet::{ActorId, DelayModel, Duration, Time};

/// `(first decision, messages, elapsed, decisions)`, times in tenths of a
/// delay so the pins are integers; decisions are the decided value of
/// process 0, 1, … (`0`: undecided).
type Pin = (Option<u64>, u64, u64, &'static [u64]);

/// What a run produced, in [`Pin`]'s shape.
type Fingerprint = (Option<u64>, u64, u64, Vec<u64>);

fn tenths(delays: f64) -> u64 {
    (delays * 10.0).round() as u64
}

fn check(what: &str, got: Fingerprint, want: Pin) {
    let (first, messages, elapsed, decisions) = want;
    assert_eq!(
        got,
        (first, messages, elapsed, decisions.to_vec()),
        "{what}: diverged from the pin"
    );
}

/// Runs `s` with every process in `proposers` proposing its input at
/// start, process 0 coordinating, until every correct process decided.
fn run(s: &Scenario, proposers: &[usize]) -> Fingerprint {
    let mut sim = s.cluster(
        |i, procs, _| {
            let (me, input) = (procs[i], Scenario::input(i));
            let (proposes, retry) = (proposers.contains(&i), Duration::from_delays(30));
            Box::new(FastPaxosActor::new(
                me,
                procs,
                input,
                proposes,
                ActorId(0),
                retry,
            ))
        },
        Vec::new(),
    );
    let (procs, correct) = (s.procs(), s.correct_procs());
    let correct: Vec<Pid> = correct.iter().map(|&i| procs[i]).collect();
    sim.run_until(Time::from_delays(s.max_delays), |sim| {
        (decisions(sim, &correct, FastPaxosActor::decision).iter()).all(Option::is_some)
    });
    let decided = decisions(&sim, &procs, FastPaxosActor::decision);
    let metrics = sim.metrics();
    (
        metrics.first_decision_delays().map(tenths),
        metrics.messages_sent,
        tenths(sim.now().as_delays()),
        decided.iter().map(|d| d.map_or(0, |v| v.0)).collect(),
    )
}

/// [`run_fast_paxos`]'s report in [`Fingerprint`]'s shape.
fn harness_fingerprint(s: &Scenario, r: &RunReport) -> Fingerprint {
    let decisions = (0..s.n as u32).map(|p| r.decisions.get(&ActorId(p)).map_or(0, |v| v.0));
    (
        r.first_decision_delays.map(tenths),
        r.messages,
        tenths(r.elapsed_delays),
        decisions.collect(),
    )
}

/// A single proposer: pinned directly and through the harness, which must
/// agree.
fn check_single(what: &str, s: &Scenario, proposer: usize, want: Pin) {
    check(what, run(s, &[proposer]), want);
    let report = run_fast_paxos(s, proposer);
    assert!(
        report.all_decided && report.agreement && report.validity,
        "{what}: {report:?}"
    );
    check(
        &format!("{what} (harness)"),
        harness_fingerprint(s, &report),
        want,
    );
}

#[test]
fn uncontended_fast_round_at_n3_and_n5() {
    let s = Scenario::common_case(3, 0, 1);
    check_single("n=3", &s, 1, (Some(20), 14, 20, &[101, 101, 101]));
    let s = Scenario::common_case(5, 0, 1);
    check_single("n=5", &s, 1, (Some(20), 44, 20, &[101, 101, 101, 101, 101]));
}

#[test]
fn two_colliding_proposers_are_recovered_by_the_coordinator() {
    // n = 3 needs all three fast votes: two proposers split them.
    let s = Scenario::common_case(3, 0, 2);
    check(
        "n=3 sync",
        run(&s, &[1, 2]),
        (Some(330), 28, 340, &[101, 101, 101]),
    );
    let mut s = Scenario::common_case(5, 0, 3);
    s.delay = DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(5),
    };
    check(
        "n=5 jitter",
        run(&s, &[1, 2]),
        (Some(389), 72, 414, &[101, 101, 101, 101, 101]),
    );
}

#[test]
fn omega_hands_recovery_to_a_new_coordinator() {
    // The coordinator is down from the start, so at n = 3 the fast round
    // cannot complete and nobody recovers until Ω names process 1.
    let mut s = Scenario::common_case(3, 0, 4);
    s.crash_procs = vec![(0, 0)];
    s.announce = vec![(40, 1)];
    check_single("handover", &s, 1, (Some(730), 19, 740, &[0, 101, 101]));
}

#[test]
fn a_proposal_that_arrives_after_a_promise_gets_no_fast_vote() {
    // Links of up to 60 delays: process 1's proposal reaches an acceptor
    // only after the coordinator's recovery round (at 30) made it promise.
    let mut s = Scenario::common_case(3, 0, 1);
    s.delay = DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(60),
    };
    check_single("late", &s, 1, (Some(985), 30, 1094, &[101, 101, 101]));
}
