//! Determinism and migration safety of Byzantine-mode sharded runs.
//!
//! The Byzantine path adds signatures, broadcast audits, adversary
//! actors, and router-side confirmation quorums on top of the crash
//! service — none of which may perturb the determinism contract:
//!
//! 1. **Thread invariance** — `(seed, partitions)` pins a Byzantine run
//!    (silent replicas, an equivocating leader, a key-range migration
//!    racing the equivocator's failover) bit-for-bit across 1/2/4 worker
//!    threads on the partitioned kernel, mirroring `tests/migration.rs`.
//! 2. **Golden schedule** — one fixed Byzantine run is pinned to its
//!    exact report numbers, so any accidental schedule change in the
//!    broadcast/adversary/confirmation machinery is caught at once.
//! 3. **Migrations stay exactly-once** when the source or destination
//!    group is Byzantine-mode — including a seal submitted to a lying
//!    leader and recovered through failover re-submission.

use agreement::adversary::AdversaryKind;
use agreement::harness::{run_sharded, ShardedRunReport, ShardedScenario};
use agreement::sharded::{GroupMode, KeyRange, ScriptedMigration};
use agreement::types::Value;

#[path = "byz_support.rs"]
mod byz_support;
use byz_support::{assert_exactly_once, is_client_id};

/// The adversarial scenario all three pins share: G=4 Byzantine groups,
/// a silent replica in group 0, an equivocating leader in group 1 whose
/// group is also the *source* of a key-range migration scripted before
/// its failover — the seal is first submitted to the liar, claims die at
/// the confirmation quorum, and the failover re-submission completes the
/// migration through the honest successor.
fn adversarial_scenario(seed: u64) -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(4, 3, 3, seed);
    sc.group_modes = vec![GroupMode::Byzantine; 4];
    sc.total_cmds = 120;
    sc.window = 4;
    sc.batch = 2;
    sc.max_delays = 40_000;
    sc.adversaries = vec![
        (0, 2, AdversaryKind::Silent),
        (1, 0, AdversaryKind::Equivocator),
    ];
    sc.announce = vec![(1, 1, 80)];
    // Group 1 owns [1024, 2048) under the even version-0 table; move a
    // slice of it to group 3 while group 1's leader is still the liar.
    sc.migrations = vec![ScriptedMigration {
        at_delays: 40,
        range: KeyRange { lo: 1024, hi: 1536 },
        to: 3,
    }];
    sc
}

fn assert_adversarial_outcome(sc: &ShardedScenario, r: &ShardedRunReport) {
    assert!(r.all_committed, "{r:?}");
    assert!(r.all_logs_agree, "replica logs diverged");
    assert!(r.no_cross_group_leak, "partition violated");
    assert_exactly_once(sc, r);
    assert_eq!(r.migrations_completed, 1, "migration lost: {r:?}");
    assert_eq!(r.routing_table_version, 1);
    assert!(
        r.byz_unconfirmed_claims > 0,
        "the invented commands left no trace"
    );
    assert!(
        r.byz_withheld_reports > 0,
        "the confirmation quorum did no work"
    );
}

#[test]
fn byzantine_adversarial_run_is_thread_count_invariant() {
    let mut sc = adversarial_scenario(59);
    sc.partitions = 4;
    let reports: Vec<ShardedRunReport> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let mut s = sc.clone();
            s.threads = threads;
            run_sharded(&s)
        })
        .collect();
    assert_adversarial_outcome(&sc, &reports[0]);
    assert_eq!(reports[0], reports[1], "2 threads changed the run");
    assert_eq!(reports[0], reports[2], "4 threads changed the run");
    // And the monolithic kernel decides the same service outcome.
    let mut mono = sc.clone();
    mono.partitions = 1;
    let m = run_sharded(&mono);
    assert_eq!(m.committed, reports[0].committed);
    assert_eq!(m.migrations_completed, reports[0].migrations_completed);
}

#[test]
fn byzantine_run_is_reproducible_and_seed_sensitive() {
    let sc = adversarial_scenario(61);
    let a = run_sharded(&sc);
    let b = run_sharded(&sc);
    assert_eq!(a, b, "same seed, different Byzantine run");
    let mut other = sc.clone();
    other.seed = 62;
    let c = run_sharded(&other);
    assert_ne!(a, c, "Byzantine runs ignored the seed");
}

/// The golden pin: the exact numbers of one fixed Byzantine run. The
/// constants are never re-recorded: a moved pin means the
/// broadcast/adversary schedule drifted, and a change that moves it on
/// purpose is its own issue, named with the reason.
#[test]
fn byzantine_golden_schedule_pin() {
    let sc = adversarial_scenario(59);
    let r = run_sharded(&sc);
    assert_adversarial_outcome(&sc, &r);
    println!(
        "GOLDEN committed={} elapsed={} total_entries={} equiv={} unconfirmed={} withheld={} dups={} rerouted={}",
        r.committed,
        r.elapsed_delays,
        r.total_entries,
        r.equivocations_blocked,
        r.byz_unconfirmed_claims,
        r.byz_withheld_reports,
        r.duplicates_suppressed,
        r.rerouted_commands,
    );
    assert_eq!(
        (
            r.committed,
            r.elapsed_delays,
            r.total_entries,
            r.equivocations_blocked,
            r.byz_unconfirmed_claims,
            r.byz_withheld_reports,
            r.duplicates_suppressed,
            r.rerouted_commands,
        ),
        (120, 483.0, 123, 2, 2, 125, 0, 11),
        "golden Byzantine schedule drifted"
    );
}

/// Migrations stay exactly-once when the *destination* is Byzantine-mode
/// and the source is crash-mode (and per-key order holds across the
/// flip): the snapshot primes the Byzantine replicas' dedup exactly as
/// it does the crash replicas'.
#[test]
fn migration_into_byzantine_group_is_exactly_once() {
    let mut sc = ShardedScenario::common_case(4, 3, 3, 17);
    sc.group_modes = vec![
        GroupMode::CrashPmp,
        GroupMode::Byzantine,
        GroupMode::CrashPmp,
        GroupMode::Byzantine,
    ];
    sc.total_cmds = 200;
    sc.window = 6;
    sc.batch = 2;
    sc.max_delays = 40_000;
    // Crash group 0 → Byzantine group 1, then Byzantine group 1's slice
    // onward to crash group 2: both directions in one run.
    sc.migrations = vec![
        ScriptedMigration {
            at_delays: 40,
            range: KeyRange { lo: 0, hi: 512 },
            to: 1,
        },
        ScriptedMigration {
            at_delays: 41,
            range: KeyRange { lo: 1536, hi: 2048 },
            to: 2,
        },
    ];
    let r = run_sharded(&sc);
    assert!(r.all_committed, "{r:?}");
    assert!(r.all_logs_agree && r.no_cross_group_leak);
    assert_eq!(r.migrations_completed, 2, "{r:?}");
    assert_eq!(r.routing_table_version, 2);
    assert_exactly_once(&sc, &r);
    // Per-key order across the flips: ids of any single key commit in
    // strictly increasing order across the whole service.
    let keys = {
        let mut keys = vec![u64::MAX];
        keys.extend(agreement::sharded::sample_keys(
            &sc.workload,
            sc.seed,
            sc.total_cmds,
        ));
        keys
    };
    let mut per_key: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for group in &r.groups {
        for &v in &group.log {
            if is_client_id(v) {
                per_key.entry(keys[v.0 as usize]).or_default().push(v.0);
            }
        }
    }
    for (key, ids) in per_key {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "key {key} commands reordered: {ids:?}");
    }
}

/// The pipelined variant of the adversarial scenario: same faults, but
/// Byzantine groups run a 4-deep broadcast window with the speculative
/// fast path on.
fn pipelined_adversarial_scenario(seed: u64) -> ShardedScenario {
    let mut sc = adversarial_scenario(seed);
    sc.byz_pipeline_window = 4;
    sc.byz_fast_path = true;
    sc
}

/// Thread invariance of the windowed + fast-path machinery: the pipeline
/// ring, write-ack settles, and router fast-confirm accounting are all
/// inside the deterministic simulation, so `(seed, partitions)` still
/// pins the run bit-for-bit across 1/2/4 worker threads.
#[test]
fn pipelined_fast_path_run_is_thread_count_invariant() {
    let mut sc = pipelined_adversarial_scenario(59);
    sc.partitions = 4;
    let reports: Vec<ShardedRunReport> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let mut s = sc.clone();
            s.threads = threads;
            run_sharded(&s)
        })
        .collect();
    assert_adversarial_outcome(&sc, &reports[0]);
    assert!(
        reports[0].byz_fast_commits > 0,
        "fast path never fired: {:?}",
        reports[0]
    );
    assert_eq!(reports[0], reports[1], "2 threads changed the run");
    assert_eq!(reports[0], reports[2], "4 threads changed the run");
}

/// Takeover out of a deep pipeline: an honest leader is demoted by Ω
/// mid-stream with a 4-deep window of unretired slots (fast path off →
/// some self-delivered; fast path on → some settled at the write ack), a
/// Byzantine replica has been forging delivery receipts all along, and
/// the successor's scan must (a) reject the forged receipts on
/// provenance, (b) adopt the receipted prefix, and (c) keep the service
/// exactly-once with agreeing logs. The demotion lands at 60 δ, while
/// commands are still uncommitted: at 120 δ it came after the last commit
/// (113 δ) once the service read only the leader's row, and tested no
/// takeover.
#[test]
fn windowed_takeover_adopts_receipted_prefix_exactly_once() {
    for fast in [false, true] {
        let mut sc = ShardedScenario::common_case(1, 3, 3, 23);
        sc.group_modes = vec![GroupMode::Byzantine];
        sc.total_cmds = 160;
        sc.window = 16;
        sc.batch = 2;
        sc.max_delays = 40_000;
        sc.byz_pipeline_window = 4;
        sc.byz_fast_path = fast;
        // Replica 2 forges receipts for wires it never delivered; the
        // scan's provenance check must strip their adoption preference.
        sc.adversaries = vec![(0, 2, AdversaryKind::ReceiptForger)];
        // Demote the (honest, pipelining) initial leader mid-stream.
        let demoted_at = 60;
        sc.announce = vec![(0, 1, demoted_at)];
        let r = run_sharded(&sc);
        assert!(r.all_committed, "fast={fast}: {r:?}");
        assert!(
            r.elapsed_delays > demoted_at as f64,
            "fast={fast}: everything committed before the demotion: {r:?}"
        );
        assert!(r.all_logs_agree, "fast={fast}: replica logs diverged");
        assert_exactly_once(&sc, &r);
        assert!(
            r.byz_receipts_rejected > 0,
            "fast={fast}: forged receipts were never caught: {r:?}"
        );
        if fast {
            assert!(
                r.byz_fast_commits > 0,
                "fast path never fired before the takeover: {r:?}"
            );
        }
    }
}

/// The hostile-`first` drill: group 0's initial leader signs one batch
/// for log position 2^40 and one for `u64::MAX`, and claims the first
/// decided. Nothing was equivocated, so every follower *delivers* both —
/// and must ignore them: no receipt, no settle, no log sized by the
/// attacker's number (a replica that trusted `first` would try to
/// allocate 16 TiB here, or overflow). The router never confirms the
/// claim, Ω fails over, the successor's scan ignores the same wires, and
/// the group's log comes out dense and exactly-once — at the classic
/// window and out of a deep fast-path pipeline alike.
#[test]
fn far_future_first_is_ignored_counted_and_failed_over() {
    for (window, fast) in [(1, false), (4, true)] {
        let mut sc = ShardedScenario::common_case(2, 3, 3, 71);
        sc.group_modes = vec![GroupMode::Byzantine; 2];
        sc.total_cmds = 80;
        sc.window = 4;
        sc.batch = 2;
        sc.max_delays = 40_000;
        sc.byz_pipeline_window = window;
        sc.byz_fast_path = fast;
        sc.adversaries = vec![(0, 0, AdversaryKind::FarFutureLeader)];
        sc.announce = vec![(0, 1, 80)];
        let r = run_sharded(&sc);
        assert!(r.all_committed, "window {window}: {r:?}");
        assert!(r.all_logs_agree, "window {window}: replica logs diverged");
        assert!(r.no_cross_group_leak);
        assert_exactly_once(&sc, &r);
        // Both followers turned both deliveries away, and the scan the
        // same wires (self-slots and audit copies) again.
        assert!(
            r.byz_entries_rejected >= 4,
            "window {window}: bogus batches were not counted: {r:?}"
        );
        assert!(
            r.byz_unconfirmed_claims >= 1,
            "window {window}: the router confirmed the bogus claim: {r:?}"
        );
        // Dense: the log holds the group's commands and the odd no-op
        // filler — nothing of the adversary's, and no 2^40-slot gap.
        let log = &r.groups[0].log;
        assert!(
            log.len() <= 2 * sc.total_cmds,
            "log sized by the wire: {}",
            log.len()
        );
        assert!(
            log.iter().all(|&v| is_client_id(v) || v == Value::NOOP),
            "window {window}: junk settled: {log:?}"
        );
        assert_eq!(
            run_sharded(&sc),
            r,
            "window {window}: drill is not deterministic"
        );
    }
}
