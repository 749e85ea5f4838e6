//! Experiment E7 — the Figure 6 composition, end to end: whatever breaks
//! (leader crash at any moment, Byzantine silence, asynchrony, equivocating
//! leaders), correct Fast & Robust processes agree, and any Cheap Quorum
//! decision binds the backup (Lemma 4.8 — asserted inside the actor on
//! every step, so these sweeps double as composition-lemma checks).

use agreement::adversary::Scripted;
use agreement::fast_robust::{memory_actor, FastRobustActor};
use agreement::harness::{decisions, run_fast_robust, Scenario};
use agreement::types::Value;
use sigsim::SigAuthority;
use simnet::{ActorId, DelayModel, Duration, Time};

/// Crash the leader at every instant around the fast path's critical
/// window: before the write, mid-write, after decide, after helping.
#[test]
fn leader_crash_sweep_preserves_agreement() {
    for crash_at in 0..10u64 {
        for seed in 0..3u64 {
            let mut s = Scenario::common_case(3, 3, 1000 + seed);
            s.crash_procs = vec![(0, crash_at)];
            s.announce = vec![(60, 1)];
            s.max_delays = 30_000;
            let (report, _) = run_fast_robust(&s, 15);
            assert!(
                report.all_decided,
                "crash@{crash_at} seed {seed}: not all decided {report:?}"
            );
            assert!(report.agreement, "crash@{crash_at} seed {seed}: {report:?}");
            assert!(report.validity, "crash@{crash_at} seed {seed}: {report:?}");
        }
    }
}

/// If the leader's decision committed before the crash, the backup MUST
/// confirm that exact value (the composition lemma's observable face).
#[test]
fn committed_fast_decision_binds_the_backup() {
    // crash at 3 delays: the leader decided at 2, nobody replicated yet.
    let mut s = Scenario::common_case(3, 3, 4242);
    s.crash_procs = vec![(0, 3)];
    s.announce = vec![(60, 1)];
    s.max_delays = 30_000;
    let (report, _) = run_fast_robust(&s, 15);
    assert!(report.all_decided);
    for v in report.decisions.values() {
        assert_eq!(*v, Value(100), "backup diverged from the fast decision");
    }
}

/// Random asynchrony: timeouts misfire, panics cascade, still one value.
#[test]
fn jitter_sweep_many_seeds() {
    for seed in 0..12u64 {
        let mut s = Scenario::common_case(3, 3, 9000 + seed);
        s.delay = DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(7),
        };
        s.max_delays = 60_000;
        let (report, _) = run_fast_robust(&s, 10); // timeout far too tight
        assert!(report.all_decided, "seed {seed}: {report:?}");
        assert!(report.agreement, "seed {seed}: {report:?}");
        assert!(report.validity, "seed {seed}: {report:?}");
    }
}

/// Partial synchrony: chaos before GST, calm after; decisions after GST.
#[test]
fn partial_synchrony_recovers() {
    let mut s = Scenario::common_case(3, 3, 31337);
    s.delay = DelayModel::PartialSynchrony {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(20),
        gst: Time::from_delays(200),
        after: Duration::DELAY,
    };
    s.max_delays = 60_000;
    let (report, _) = run_fast_robust(&s, 12);
    assert!(report.all_decided, "{report:?}");
    assert!(report.agreement, "{report:?}");
}

/// An equivocating Byzantine leader under the full composition: followers
/// must converge on ONE value through the backup (or none at all) — and
/// weak validity does not apply (there IS a faulty process), but agreement
/// must hold.
#[test]
fn equivocating_leader_cannot_split_the_composition() {
    for seed in 0..6u64 {
        let s = Scenario::common_case(3, 3, seed);
        let mut auth = SigAuthority::new(seed ^ 0xAB);
        let signers: Vec<_> = s.procs().iter().map(|&p| auth.register(p)).collect();
        let mut sim = s.cluster(
            |i, procs, mems| match i {
                0 => Box::new(Scripted::cq_equivocating_leader(
                    procs[0],
                    mems,
                    1 + (seed as usize % 2),
                    Value(111),
                    Value(222),
                    signers[0].clone(),
                )),
                _ => Box::new(FastRobustActor::new(
                    procs[i],
                    procs,
                    mems,
                    ActorId(0),
                    Scenario::input(i),
                    signers[i].clone(),
                    auth.verifier(),
                    Duration::from_delays(1),
                    Duration::from_delays(15),
                    Duration::from_delays(120),
                )),
            },
            s.memories(|procs| memory_actor(procs, ActorId(0))),
        );
        // Ω settles on a correct process for the backup.
        let correct = &s.procs()[1..];
        sim.announce_leader(Time::from_delays(80), correct, ActorId(1));
        let decided = |sim: &_| decisions(sim, correct, FastRobustActor::decision);
        sim.run_until(Time::from_delays(40_000), |sim| {
            decided(sim).iter().all(Option::is_some)
        });
        let ds = decided(&sim);
        let got: Vec<Value> = ds.iter().flatten().copied().collect();
        assert_eq!(got.len(), 2, "seed {seed}: {ds:?}");
        assert_eq!(got[0], got[1], "seed {seed}: SPLIT! {ds:?}");
    }
}

/// Failover latency curve (recovery delay as a function of crash time):
/// the `paper_tables` example prints it as E7; here we just pin one point
/// — a crash before the leader's write lands never lets recovery beat the
/// timeout.
#[test]
fn failover_costs_at_least_the_timeout() {
    let timeout = 18u64;
    let mut s = Scenario::common_case(3, 3, 555);
    s.crash_procs = vec![(0, 1)]; // before the leader's write lands
    s.announce = vec![(40, 1)];
    s.max_delays = 30_000;
    let (report, _) = run_fast_robust(&s, timeout);
    assert!(report.all_decided);
    let first = report.first_decision_delays.unwrap();
    assert!(
        first >= timeout as f64,
        "decided at {first} < timeout {timeout}: fast path can't have fired"
    );
}

/// The common case again, through the public harness, pinning every
/// externally-visible number the paper quotes for the fast path.
#[test]
fn common_case_contract() {
    let (report, auth) = run_fast_robust(&Scenario::common_case(3, 3, 7), 60);
    assert!(report.all_decided && report.agreement && report.validity);
    assert_eq!(report.first_decision_delays, Some(2.0));
    // One signature before the fast decision is possible; the follower
    // copies/proofs add more afterwards, so just bound the total.
    assert!(auth.signatures_created() >= 1);
}
