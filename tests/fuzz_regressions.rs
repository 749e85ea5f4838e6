//! The fuzzer's regression corpus and self-tests.
//!
//! Three layers:
//!
//! 1. **Corpus** — scenarios in the exact shape the fuzzer's shrinker
//!    emits ([`agreement::fuzz::to_literal`]), each re-expressing a
//!    failure class this codebase actually had (or deliberately
//!    exercises end to end): failover re-submission duplicates, an
//!    equivocating leader racing a migration, receipt forgery caught by
//!    the takeover scan's provenance check, thread-count invariance on
//!    the partitioned kernel. Every corpus entry must pass the full
//!    deep oracle on the current tree.
//! 2. **Self-tests** — the fuzzer itself is deterministic: a seed pins
//!    its scenario, verdict, and shrink result.
//! 3. **Oracle demo** — a deliberately injected safety bug (session
//!    dedup disabled) is caught by the checker and shrunk to a minimal
//!    scenario of at most 3 faults, proving the loop finds and
//!    minimizes real violations rather than vacuously passing.

use agreement::adversary::AdversaryKind;
use agreement::fuzz::{
    self, check, check_deep, fault_count, generate, run_campaign, to_literal, DeepChecks,
    FuzzConfig, Violation,
};
use agreement::harness::ShardedScenario;
use agreement::sharded::{GroupMode, KeyRange, ScriptedMigration, WorkloadSpec};
use simnet::{DelayModel, Duration};

const DEEP: DeepChecks = DeepChecks {
    replay: true,
    thread_sweep: true,
};

/// The historical nasty case, fuzzer-style: mid-stream leader crashes in
/// two of four groups with a full window in flight force the router's
/// at-least-once re-submission — the schedule that made client-session
/// dedup necessary (commands would otherwise commit twice).
fn failover_resubmission_corpus() -> ShardedScenario {
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
    sc
}

#[test]
fn corpus_failover_resubmission_duplicates() {
    let sc = failover_resubmission_corpus();
    let r = check_deep(&sc, DEEP).expect("corpus scenario regressed");
    assert!(
        r.duplicates_suppressed > 0,
        "the schedule no longer forces re-submissions — the corpus entry \
         stopped exercising the dedup path: {r:?}"
    );
}

#[test]
fn corpus_equivocating_leader_races_migration() {
    // An equivocating Byzantine leader is also the source of a scripted
    // migration; the seal first goes to the liar and must be recovered
    // through failover re-submission (tests/byzantine_determinism.rs
    // pins this schedule in detail — here it rides the fuzzer's oracle).
    let mut sc = ShardedScenario::common_case(4, 3, 3, 59);
    sc.total_cmds = 120;
    sc.window = 4;
    sc.batch = 2;
    sc.group_modes = vec![GroupMode::Byzantine; 4];
    sc.adversaries = vec![
        (0, 2, AdversaryKind::Silent),
        (1, 0, AdversaryKind::Equivocator),
    ];
    sc.announce = vec![(1, 1, 80)];
    sc.migrations = vec![ScriptedMigration {
        at_delays: 40,
        range: KeyRange { lo: 1024, hi: 1536 },
        to: 3,
    }];
    sc.workload = WorkloadSpec::Uniform { keys: 4096 };
    sc.max_delays = 40_000;
    let r = check_deep(&sc, DEEP).expect("corpus scenario regressed");
    assert_eq!(r.migrations_completed, 1);
    assert!(r.equivocations_blocked > 0 || r.byz_unconfirmed_claims > 0);
}

#[test]
fn corpus_forged_receipt_blocked_at_takeover() {
    // A receipt-forging follower colludes with its group's initial
    // leader; an Ω announcement later hands the group to replica 1,
    // whose takeover scan must reject the forged receipt by provenance
    // (the end-to-end form of the unit test in `smr::byz`).
    let mut sc = ShardedScenario::common_case(2, 3, 3, 101);
    sc.total_cmds = 80;
    sc.window = 4;
    sc.group_modes = vec![GroupMode::Byzantine, GroupMode::Byzantine];
    sc.adversaries = vec![(0, 2, AdversaryKind::ReceiptForger)];
    sc.announce = vec![(0, 1, 60)];
    sc.max_delays = 40_000;
    let r = check_deep(&sc, DEEP).expect("corpus scenario regressed");
    assert!(
        r.byz_receipts_rejected > 0,
        "the takeover scan never saw (or never rejected) the forged \
         receipt: {r:?}"
    );
}

#[test]
fn corpus_partitioned_jittered_crash_sweep() {
    // Jittered links + leader crash + the partitioned kernel: the deep
    // oracle's thread sweep re-runs this at 2 and 4 workers and demands
    // bit-identical reports.
    let mut sc = ShardedScenario::common_case(4, 3, 3, 47);
    sc.total_cmds = 200;
    sc.window = 6;
    sc.delay = DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(3),
    };
    sc.partitions = 4;
    sc.crash_leaders = vec![(1, 20)];
    sc.announce = vec![(1, 1, 80)];
    sc.max_delays = 40_000;
    check_deep(&sc, DEEP).expect("corpus scenario regressed");
}

#[test]
fn fuzzer_is_deterministic_end_to_end() {
    // Scenario: a seed pins the generated scenario exactly.
    for seed in [0u64, 17, 4242] {
        assert_eq!(generate(seed), generate(seed), "seed {seed}");
    }
    // Verdict + coverage: a whole campaign replays bit-for-bit.
    let cfg = FuzzConfig {
        start_seed: 0,
        cases: 40,
        shrink: true,
        replay_every: 8,
        sweep_every: 8,
    };
    let a = run_campaign(&cfg);
    let b = run_campaign(&cfg);
    assert_eq!(a, b, "same campaign, different outcome");
    assert!(a.failures.is_empty(), "campaign found violations: {a:?}");
    // Shrink: the same failing scenario shrinks to the same minimum.
    let bugged = injected_bug_scenario();
    let (s1, v1) = fuzz::shrink(&bugged);
    let (s2, v2) = fuzz::shrink(&bugged);
    assert_eq!((s1, v1), (s2, v2), "shrinking is nondeterministic");
}

/// The oracle-demo scenario: the failover re-submission schedule with
/// session dedup deliberately disabled — the historical duplicate-commit
/// bug reintroduced on purpose.
fn injected_bug_scenario() -> ShardedScenario {
    let mut sc = failover_resubmission_corpus();
    sc.disable_session_dedup = true;
    sc
}

#[test]
fn injected_dedup_bug_is_caught_and_shrunk() {
    let sc = injected_bug_scenario();
    let violation = check(&sc).expect_err("oracle missed the injected duplicate-commit bug");
    assert!(
        matches!(violation, Violation::Duplicated { .. }),
        "expected a duplicated command, got: {violation}"
    );
    let (shrunk, shrunk_violation) = fuzz::shrink(&sc);
    assert!(
        matches!(shrunk_violation, Violation::Duplicated { .. }),
        "shrinking wandered off the duplicate: {shrunk_violation}"
    );
    assert!(
        shrunk.disable_session_dedup,
        "the shrinker removed the injected bug itself"
    );
    assert!(
        fault_count(&shrunk) <= 3,
        "minimal scenario still has {} faults: {shrunk:?}",
        fault_count(&shrunk)
    );
    // The emitted repro is a self-contained pasteable expression naming
    // the injection switch.
    let repro = to_literal(&shrunk);
    assert!(repro.contains("disable_session_dedup = true"), "{repro}");
    assert!(repro.starts_with('{') && repro.ends_with('}'), "{repro}");
}

#[test]
fn clean_tree_passes_a_spot_campaign() {
    // A second, disjoint seed range from the CI gate's, so local runs
    // and CI together cover more of the space.
    let cfg = FuzzConfig {
        start_seed: 5_000,
        cases: 64,
        shrink: false,
        replay_every: 16,
        sweep_every: 16,
    };
    let r = run_campaign(&cfg);
    assert!(r.failures.is_empty(), "violations found: {:?}", r.failures);
    assert!(r.commands_committed > 0);
}
