//! Experiment E3 — the crash-failure algorithms under failure sweeps:
//! Protected Memory Paxos (Theorem 5.1) and the baselines it is measured
//! against, plus cross-protocol sanity on common scenarios.

use agreement::harness::{run_disk_paxos, run_fast_paxos, run_mp_paxos, run_protected, Scenario};
use agreement::protected::{memory_actor, ProtectedPaxosActor};
use agreement::smr::SmrNode;
use agreement::types::Value;
use simnet::{ActorId, DelayModel, Duration, Time};

/// PMP: every subset of processes containing the (eventual) leader decides.
#[test]
fn protected_crash_subset_sweep() {
    let n = 4;
    // Crash every non-empty subset of {1,2,3} (keep 0 alive as leader).
    for mask in 0u32..8 {
        let crash: Vec<(usize, u64)> = (0..3)
            .filter(|b| mask & (1 << b) != 0)
            .map(|b| (b + 1, 0))
            .collect();
        let mut s = Scenario::common_case(n, 3, 600 + mask as u64);
        s.crash_procs = crash.clone();
        let report = run_protected(&s);
        assert!(report.all_decided, "mask {mask:03b}: {report:?}");
        assert!(
            report.agreement && report.validity,
            "mask {mask:03b}: {report:?}"
        );
        // Survivor count never matters for PMP: the leader alone suffices.
        assert_eq!(report.first_decision_delays, Some(2.0), "mask {mask:03b}");
    }
}

/// PMP: leader crashes at every point in its 2-delay window; a successor
/// must finish with a single value.
#[test]
fn protected_leader_crash_window_sweep() {
    for crash_at in 0..6u64 {
        let mut s = Scenario::common_case(3, 3, 700 + crash_at);
        s.crash_procs = vec![(0, crash_at)];
        s.announce = vec![(15, 1)];
        s.max_delays = 5_000;
        let report = run_protected(&s);
        assert!(report.all_decided, "crash@{crash_at}: {report:?}");
        assert!(report.agreement, "crash@{crash_at}: {report:?}");
        assert!(report.validity, "crash@{crash_at}: {report:?}");
    }
}

/// PMP under link jitter plus dueling leaders: safety across seeds.
#[test]
fn protected_jitter_and_duel_sweep() {
    for seed in 0..10u64 {
        let mut s = Scenario::common_case(3, 3, 800 + seed);
        s.delay = DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(5),
        };
        s.announce = vec![(3, 1), (7, 2), (50, 1)];
        s.max_delays = 10_000;
        let report = run_protected(&s);
        assert!(report.agreement, "seed {seed}: {report:?}");
        assert!(report.all_decided, "seed {seed}: {report:?}");
    }
}

/// All four crash protocols agree with themselves on identical scenarios
/// (differential testing across protocol implementations).
#[test]
fn cross_protocol_differential() {
    for seed in 0..5u64 {
        let s = Scenario::common_case(3, 3, 900 + seed);
        for (name, report) in [
            ("mp", run_mp_paxos(&s)),
            ("fast", run_fast_paxos(&s, 0)),
            ("disk", run_disk_paxos(&s)),
            ("pmp", run_protected(&s)),
        ] {
            assert!(report.all_decided, "{name} seed {seed}: {report:?}");
            assert!(report.agreement, "{name} seed {seed}: {report:?}");
            assert!(report.validity, "{name} seed {seed}: {report:?}");
        }
    }
}

/// The ablation behind E2: dynamic permissions are exactly a 2-delay
/// advantage over Disk Paxos's verification read, across cluster sizes.
#[test]
fn permission_ablation_delay_gap() {
    for n in [2usize, 3, 5, 7] {
        for m in [3usize, 5] {
            let s = Scenario::common_case(n, m, 42);
            let pmp = run_protected(&s).first_decision_delays.unwrap();
            let disk = run_disk_paxos(&s).first_decision_delays.unwrap();
            assert_eq!(pmp, 2.0, "n={n} m={m}");
            assert_eq!(disk, 4.0, "n={n} m={m}");
        }
    }
}

/// SMR (multi-instance PMP): sustained throughput at one write per entry,
/// with a mid-stream leader change, stays fork-free — heavier version of
/// the module tests, at integration scale.
#[test]
fn smr_long_run_with_two_takeovers() {
    let s = Scenario::common_case(3, 3, 77);
    let procs = s.procs();
    let mut sim = s.cluster(
        |i, procs, mems| {
            let workload: Vec<Value> = (0..20)
                .map(|c| Value(10_000 * (i as u64 + 1) + c))
                .collect();
            let retry = Duration::from_delays(20);
            Box::new(SmrNode::new(
                procs[i],
                procs,
                mems,
                ActorId(0),
                workload,
                1,
                retry,
            ))
        },
        s.memories(|_| memory_actor(ActorId(0))),
    );
    sim.crash_at(ActorId(0), Time::from_delays(11));
    sim.announce_leader(Time::from_delays(30), &procs, ActorId(1));
    sim.crash_at(ActorId(1), Time::from_delays(90));
    sim.announce_leader(Time::from_delays(120), &procs, ActorId(2));
    sim.run_until(Time::from_delays(5_000), |s| {
        s.actor_as::<SmrNode>(ActorId(2))
            .is_some_and(|x| x.log_len() >= 15 && x.committed_own() >= 2)
    });
    let survivor = sim.actor_as::<SmrNode>(ActorId(2)).unwrap();
    assert!(
        survivor.log_len() >= 15,
        "log stalled: {}",
        survivor.log_len()
    );
    // Entries committed by all three leadership terms are present.
    let log = survivor.log();
    assert!(
        log.iter().any(|v| (10_000..20_000).contains(&v.0)),
        "term-0 entries lost"
    );
    assert!(
        log.iter().any(|v| (20_000..30_000).contains(&v.0)),
        "term-1 entries missing"
    );
    assert!(
        log.iter().any(|v| (30_000..40_000).contains(&v.0)),
        "term-2 entries missing"
    );
}

/// Memory crash mid-protocol (not just at start): the write quorum shrinks
/// but m - f_M still suffices.
#[test]
fn protected_memory_crash_mid_run() {
    for crash_at in [1u64, 2, 3] {
        let mut s = Scenario::common_case(3, 3, 1100 + crash_at);
        s.crash_mems = vec![(1, crash_at)];
        let report = run_protected(&s);
        assert!(report.all_decided, "mem crash@{crash_at}: {report:?}");
        assert!(report.agreement, "mem crash@{crash_at}: {report:?}");
    }
}

/// The actor API over a cluster of the caller's own making (inputs and
/// retry period that no `run_*` uses) still gives 2 delays — guards the
/// public API surface the examples rely on.
#[test]
fn direct_actor_api_contract() {
    let s = Scenario::common_case(2, 3, 1);
    let mut sim = s.cluster(
        |i, procs, mems| {
            let (input, retry) = (Value(5 + i as u64), Duration::from_delays(20));
            let inst = agreement::Instance(0);
            let a =
                ProtectedPaxosActor::new(procs[i], procs, mems, inst, input, ActorId(0), 1, retry);
            Box::new(a)
        },
        s.memories(|_| memory_actor(ActorId(0))),
    );
    sim.run_to_quiescence(Time::from_delays(100));
    let a0 = sim.actor_as::<ProtectedPaxosActor>(ActorId(0)).unwrap();
    assert_eq!(a0.decision(), Some(Value(5)));
    assert_eq!(sim.metrics().decisions()[&ActorId(0)].as_delays(), 2.0);
}
