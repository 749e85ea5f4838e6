//! Golden-schedule regression pins for the kernel.
//!
//! Two layers of protection:
//!
//! 1. **Recorded fixtures** — seeded runs (common-case, jittered,
//!    crash-and-failover) must keep producing exactly these decision
//!    times, message counts, memory-op counts, and trace dumps. If a
//!    kernel change shifts any schedule, these fail before anything
//!    subtler does. The pre-overhaul heap kernel once served as a live
//!    differential reference (the `Legacy` profile); it is retired —
//!    these pins, plus the scenario fuzzer's seed ranges
//!    (`tests/fuzz_regressions.rs`), now carry that role.
//! 2. **Repetition** — pinned scenarios are also run twice in fresh
//!    kernels, guarding the determinism contract itself (a pin could
//!    stay green by accident if the schedule were merely *usually* the
//!    recorded one).

use agreement::harness::{
    run_fast_robust, run_mp_paxos, run_protected, run_smr, RunReport, Scenario,
};
use agreement::protected::memory_actor;
use agreement::smr::SmrNode;
use agreement::types::{Msg, Value};
use simnet::{ActorId, DelayModel, Duration, Simulation, Time};

#[test]
fn golden_common_case_fixtures() {
    let s = Scenario::common_case(3, 3, 42);

    let mp = run_mp_paxos(&s);
    assert_eq!(mp.first_decision_delays, Some(2.0));
    assert_eq!(mp.messages, 6);
    assert_eq!(mp.mem_ops, 0);
    assert!(mp.all_decided && mp.agreement && mp.validity);

    let pmp = run_protected(&s);
    assert_eq!(pmp.first_decision_delays, Some(2.0));
    assert_eq!(pmp.messages, 8);
    assert_eq!(pmp.mem_ops, 3);
    assert!(pmp.all_decided && pmp.agreement && pmp.validity);

    let (fr, _) = run_fast_robust(&s, 60);
    assert_eq!(fr.first_decision_delays, Some(2.0));
    assert!(fr.all_decided && fr.agreement && fr.validity);
}

#[test]
fn golden_smr_schedule_fixture() {
    let mut s = Scenario::common_case(3, 3, 7);
    s.max_delays = 100;
    let r = run_smr(&s, 10, 1);
    assert_eq!(r.entries, 10);
    assert!(r.logs_agree);
    // One replicated write per entry: slot i decided at 2·(i+1) delays.
    let expected: Vec<f64> = (1..=10).map(|i| 2.0 * i as f64).collect();
    assert_eq!(r.decided_at_delays, expected);
    assert_eq!(r.log, (0..10).map(|c| Value(1000 + c)).collect::<Vec<_>>());
}

/// One run's schedule fingerprint — everything in the report a schedule
/// shift would move, in tenth-of-a-delay units so the pins are integers.
type Fingerprint = (Option<u64>, u64, u64, u64);

fn fingerprint(r: &RunReport) -> Fingerprint {
    (
        r.first_decision_delays.map(|d| (d * 10.0).round() as u64),
        r.messages,
        r.mem_ops,
        (r.elapsed_delays * 10.0).round() as u64,
    )
}

/// Fingerprints of the three pinned protocols on one scenario, asserting
/// every run decided correctly before anything is compared.
fn pins_for(s: &Scenario) -> [Fingerprint; 3] {
    let mp = run_mp_paxos(s);
    let pmp = run_protected(s);
    let (fr, _) = run_fast_robust(s, 60);
    for r in [&mp, &pmp, &fr] {
        assert!(r.all_decided && r.agreement, "{r:?}");
    }
    [fingerprint(&mp), fingerprint(&pmp), fingerprint(&fr)]
}

#[test]
fn golden_jittered_schedules_are_pinned() {
    // Uniform link jitter drives the seeded RNG on every send, so these
    // pins freeze dispatch order AND RNG draw order. Recorded on the
    // timing-wheel kernel and reproduced unchanged by the key heap;
    // `[mp_paxos, protected, fast_robust]` per seed.
    let recorded: [(u64, [Fingerprint; 3]); 3] = [
        (
            3,
            [
                (Some(48), 6, 0, 76),
                (Some(49), 8, 3, 78),
                (Some(54), 167, 84, 516),
            ],
        ),
        (
            9,
            [
                (Some(39), 6, 0, 53),
                (Some(42), 8, 3, 65),
                (Some(47), 180, 90, 552),
            ],
        ),
        (
            77,
            [
                (Some(47), 6, 0, 72),
                (Some(42), 8, 3, 79),
                (Some(67), 172, 87, 495),
            ],
        ),
    ];
    for (seed, expect) in recorded {
        let mut s = Scenario::common_case(3, 3, seed);
        s.delay = DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(4),
        };
        s.max_delays = 3_000;
        let got = pins_for(&s);
        assert_eq!(got, expect, "seed {seed}: schedule diverged from pin");
        assert_eq!(pins_for(&s), got, "seed {seed}: rerun diverged");
    }
}

#[test]
fn golden_crash_failover_schedules_are_pinned() {
    // A process crash, a memory crash, and an Ω re-announcement: the
    // failover path's schedule, frozen per seed.
    let recorded: [(u64, [Fingerprint; 3]); 2] = [
        (
            5,
            [
                (Some(20), 9, 0, 30),
                (Some(20), 9, 3, 30),
                (Some(20), 1620, 1224, 2600),
            ],
        ),
        (
            11,
            [
                (Some(20), 9, 0, 30),
                (Some(20), 9, 3, 30),
                (Some(20), 1620, 1224, 2600),
            ],
        ),
    ];
    for (seed, expect) in recorded {
        let mut s = Scenario::common_case(4, 3, seed);
        s.crash_procs = vec![(0, 6)];
        s.crash_mems = vec![(2, 9)];
        s.announce = vec![(15, 1)];
        s.max_delays = 2_000;
        let got = pins_for(&s);
        assert_eq!(got, expect, "seed {seed}: schedule diverged from pin");
        assert_eq!(pins_for(&s), got, "seed {seed}: rerun diverged");
    }
}

#[test]
fn golden_smr_trace_fixture() {
    // Full SMR cluster with tracing on and a mid-run memory crash: the
    // decision schedule, message/mem-op counts, and the byte-exact trace
    // dump are all pinned (and must reproduce across fresh kernels).
    let run = || {
        let n = 3u32;
        let m = 3u32;
        let mut sim: Simulation<Msg> = Simulation::new(11);
        sim.enable_obs();
        let procs: Vec<ActorId> = (0..n).map(ActorId).collect();
        let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
        for i in 0..n {
            let workload: Vec<Value> = (0..12).map(|c| Value(100 * (i as u64 + 1) + c)).collect();
            sim.add(SmrNode::new(
                ActorId(i),
                procs.clone(),
                mems.clone(),
                ActorId(0),
                workload,
                1,
                Duration::from_delays(20),
            ));
        }
        for _ in 0..m {
            sim.add(memory_actor(ActorId(0)));
        }
        // A mid-run crash of one memory exercises the drop-to-crashed
        // trace path.
        sim.crash_at(mems[2], Time::from_delays(9));
        sim.run_to_quiescence(Time::from_delays(60));
        let trace = simnet::obs::to_text(&sim.take_obs_events());
        let leader = sim.actor_as::<SmrNode>(ActorId(0)).unwrap();
        (
            leader.log(),
            leader.decided_at().to_vec(),
            sim.metrics().messages_sent,
            sim.metrics().mem_ops(),
            trace,
        )
    };
    let (log, decided, msgs, ops, trace) = run();
    assert_eq!(log, (0..12).map(|c| Value(100 + c)).collect::<Vec<_>>());
    assert_eq!(decided.len(), 12);
    assert_eq!((msgs, ops), (81, 36), "trace fixture schedule shifted");
    assert!(trace.contains("CRASH"));
    assert!(trace.contains("dropped msg (crashed)"));
    let (log2, decided2, msgs2, ops2, trace2) = run();
    assert_eq!((log, decided, msgs, ops), (log2, decided2, msgs2, ops2));
    assert_eq!(trace, trace2, "trace dumps diverged across runs");
}

#[test]
fn smr_batch1_wire_path_is_unchanged() {
    // batch=1 must take the exact pre-batching wire path: same message
    // count, same mem-op count, same per-entry decision times as the
    // recorded fixture.
    let mut s = Scenario::common_case(3, 3, 7);
    s.max_delays = 100;
    let r = run_smr(&s, 10, 1);
    assert_eq!(r.entries, 10);
    let expected: Vec<f64> = (1..=10).map(|i| 2.0 * i as f64).collect();
    assert_eq!(r.decided_at_delays, expected);
    // 10 entries × 3 memories, one write each; no extra ops.
    assert_eq!(r.mem_ops, 30);
}
