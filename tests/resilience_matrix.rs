//! Experiment E1 — the Table 1 row the paper adds: weak Byzantine
//! agreement with `n = 2·f_P + 1` (async, signatures, RDMA
//! non-equivocation), plus the crash-side bounds of §5.
//!
//! The matrix sweeps n and the number of faulty processes; at the bound the
//! protocols must terminate and agree, past the bound they must *stay safe*
//! (block rather than split).

use agreement::aligned::MemoryMode;
use agreement::harness::{
    run_aligned, run_disk_paxos, run_fast_robust, run_mp_paxos, run_protected, run_robust_backup,
    Scenario,
};

/// Fast & Robust at the bound: f = (n-1)/2 silent Byzantine processes.
#[test]
fn fast_robust_tolerates_f_byzantine_at_the_bound() {
    for n in [3usize, 5, 7] {
        let f = (n - 1) / 2;
        let mut s = Scenario::common_case(n, 3, 11 + n as u64);
        s.byz_silent = (n - f..n).collect();
        s.max_delays = 30_000;
        let (report, _) = run_fast_robust(&s, 25);
        assert!(report.all_decided, "n={n}, f={f}: {report:?}");
        assert!(report.agreement, "n={n}, f={f}: {report:?}");
        // Weak validity: no faulty process's junk decided (inputs only).
        assert!(report.validity, "n={n}, f={f}: {report:?}");
    }
}

/// One more Byzantine process than the bound: correct processes can no
/// longer all terminate (n - (f+1) < majority), but nothing diverges.
#[test]
fn fast_robust_blocks_safely_beyond_the_bound() {
    let n = 3;
    let mut s = Scenario::common_case(n, 3, 77);
    s.byz_silent = vec![1, 2]; // f+1 = 2 silent Byzantine
    s.max_delays = 4_000;
    let (report, _) = run_fast_robust(&s, 25);
    // The leader alone may fast-decide; the other correct processes are
    // gone (Byzantine), so "all_decided" can hold trivially here — the
    // meaningful assertion is agreement among whoever decided.
    assert!(report.agreement, "{report:?}");
}

/// Robust Backup alone at the bound (Theorem 4.4).
#[test]
fn robust_backup_tolerates_f_byzantine() {
    for n in [3usize, 5] {
        let f = (n - 1) / 2;
        let mut s = Scenario::common_case(n, 3, 5 + n as u64);
        s.byz_silent = (n - f..n).collect();
        s.max_delays = 30_000;
        let (report, _) = run_robust_backup(&s);
        assert!(report.all_decided, "n={n}: {report:?}");
        assert!(report.agreement, "n={n}: {report:?}");
    }
}

/// Protected Memory Paxos at the crash bound: n = f_P + 1 (all but one
/// process crash) and m = 2·f_M + 1 (minority of memories crash).
#[test]
fn protected_survives_n_minus_one_crashes_and_memory_minority() {
    for n in [2usize, 3, 5] {
        let mut s = Scenario::common_case(n, 5, 3 + n as u64);
        s.crash_procs = (1..n).map(|i| (i, 0)).collect();
        s.crash_mems = vec![(1, 0), (3, 0)]; // f_M = 2 of m = 5
        let report = run_protected(&s);
        assert!(report.all_decided, "n={n}: {report:?}");
        assert_eq!(report.decisions.len(), 1);
        assert!(report.validity);
    }
}

/// Message-passing Paxos needs a majority: f crashes fine, f+1 blocks.
#[test]
fn mp_paxos_majority_bound_is_tight() {
    let n = 5;
    // f = 2 crashes: fine.
    let mut s = Scenario::common_case(n, 0, 21);
    s.crash_procs = vec![(3, 0), (4, 0)];
    let report = run_mp_paxos(&s);
    assert!(report.all_decided && report.agreement, "{report:?}");
    // f + 1 = 3 crashes: blocked, but never wrong.
    let mut s = Scenario::common_case(n, 0, 22);
    s.crash_procs = vec![(2, 0), (3, 0), (4, 0)];
    s.max_delays = 1_500;
    let report = run_mp_paxos(&s);
    assert!(!report.all_decided, "{report:?}");
    assert!(report.decisions.is_empty(), "{report:?}");
}

/// Disk Paxos matches Protected Memory Paxos's resilience (but not speed).
#[test]
fn disk_paxos_survives_n_minus_one_crashes() {
    let mut s = Scenario::common_case(3, 3, 31);
    s.crash_procs = vec![(1, 0), (2, 0)];
    let report = run_disk_paxos(&s);
    assert!(report.all_decided, "{report:?}");
    assert_eq!(report.first_decision_delays, Some(4.0));
}

/// Memory-majority loss blocks the memory-based protocols without
/// violating safety.
#[test]
fn memory_majority_loss_blocks_safely() {
    let mut s = Scenario::common_case(2, 3, 41);
    s.crash_mems = vec![(0, 0), (1, 0)];
    s.max_delays = 1_000;
    let p = run_protected(&s);
    assert!(!p.all_decided && p.decisions.is_empty(), "{p:?}");
    let d = run_disk_paxos(&s);
    assert!(!d.all_decided && d.decisions.is_empty(), "{d:?}");
}

/// Aligned Paxos only cares about the combined count (teaser for E4; the
/// full grid lives in aligned_majority.rs).
#[test]
fn aligned_survives_what_would_kill_either_side() {
    // n=2, m=3 → 5 agents, majority 3. Kill 1 process + 1 memory: a
    // process-majority protocol (MP Paxos) and nothing-but-memories
    // protocols both have trouble; Aligned sails through.
    let mut s = Scenario::common_case(2, 3, 51);
    s.crash_procs = vec![(1, 0)];
    s.crash_mems = vec![(2, 0)];
    let report = run_aligned(&s, MemoryMode::DiskStyle);
    assert!(report.all_decided, "{report:?}");
    assert!(report.validity);
}

// ---------------------------------------------------------------------
// The sharded Byzantine matrix: the paper's n = 2f+1 bound, lifted into
// the production-facing service. Each Byzantine-mode group replicates
// through signed non-equivocating broadcast and the router confirms
// commits at f+1 distinct replica reports, so the sweeps below assert
// the service-level contract — every client command exactly once, no
// per-group divergence, no cross-group corruption — with f silent or
// equivocating actors per group.
// ---------------------------------------------------------------------

use agreement::adversary::AdversaryKind::{Equivocator, Silent};
use agreement::harness::{run_sharded, run_sharded_with_events, ShardedScenario};
use agreement::sharded::GroupMode;

#[path = "byz_support.rs"]
mod byz_support;
use byz_support::{assert_exactly_once, is_client_id};

/// A Byzantine-mode sharded scenario: every group runs the broadcast
/// protocol, sized so a sweep stays fast.
fn byz_sharded(groups: usize, n: usize, seed: u64) -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(groups, n, 3, seed);
    sc.group_modes = vec![GroupMode::Byzantine; groups];
    sc.total_cmds = 20 * groups;
    sc.window = 4;
    sc.batch = 2;
    sc.max_delays = 30_000;
    sc
}

/// f silent Byzantine replicas per group, across the shard-count sweep:
/// at the bound (n = 2f+1) every group still commits its whole share.
#[test]
fn sharded_byzantine_matrix_f_silent_per_group() {
    for &groups in &[1usize, 4, 8] {
        let mut sc = byz_sharded(groups, 3, 100 + groups as u64);
        // f = 1 of n = 3, in every group (a different replica slot per
        // group so the sweep covers follower positions).
        sc.adversaries = (0..groups).map(|g| (g, 1 + g % 2, Silent)).collect();
        let r = run_sharded(&sc);
        assert!(r.all_committed, "G={groups}: {r:?}");
        assert!(r.all_logs_agree, "G={groups}: replica logs diverged");
        assert!(r.no_cross_group_leak, "G={groups}: partition violated");
        assert_exactly_once(&sc, &r);
        for (g, group) in r.groups.iter().enumerate() {
            assert_eq!(group.mode, GroupMode::Byzantine);
            assert!(group.committed > 0, "G={groups} group {g} starved");
        }
    }
}

/// n = 5 with f = 2 silent Byzantine replicas: the bound holds at the
/// next matrix row too.
#[test]
fn sharded_byzantine_five_replicas_two_silent() {
    let mut sc = byz_sharded(2, 5, 131);
    sc.adversaries = vec![
        (0, 3, Silent),
        (0, 4, Silent),
        (1, 1, Silent),
        (1, 2, Silent),
    ];
    let r = run_sharded(&sc);
    assert!(r.all_committed, "{r:?}");
    assert!(r.all_logs_agree && r.no_cross_group_leak);
    assert_exactly_once(&sc, &r);
}

/// An equivocating Byzantine *leader* per Byzantine group, across the
/// shard-count sweep: its rewrite equivocation is blocked by the
/// broadcast audit, its fabricated commit claims die short of the f+1
/// confirmation quorum, and the scripted failover restores liveness —
/// every client command still commits exactly once.
#[test]
fn sharded_byzantine_matrix_equivocating_leaders() {
    for &groups in &[1usize, 4, 8] {
        let mut sc = byz_sharded(groups, 3, 200 + groups as u64);
        // The last group's initial leader is the adversary; Ω promotes
        // its second replica after the lies have been told.
        let g = groups - 1;
        sc.adversaries = vec![(g, 0, Equivocator)];
        sc.announce = vec![(g, 1, 80)];
        sc.record_events = true;
        let (r, events) = run_sharded_with_events(&sc);
        assert!(r.all_committed, "G={groups}: {r:?}");
        assert!(r.all_logs_agree, "G={groups}: replica logs diverged");
        assert!(r.no_cross_group_leak, "G={groups}: partition violated");
        assert_exactly_once(&sc, &r);
        assert!(
            r.byz_unconfirmed_claims > 0,
            "G={groups}: the adversary's invented commands left no trace: {r:?}"
        );
        assert!(
            r.byz_withheld_reports > 0,
            "G={groups}: the confirmation quorum did no work: {r:?}"
        );
        assert!(
            r.equivocations_blocked > 0,
            "G={groups}: nobody caught the rewrite equivocation: {r:?}"
        );
        // ... and whoever caught it said so in the run's one trace stream.
        let noted = events.iter().any(|e| match &e.body {
            simnet::obs::EventBody::Note { text } => text.contains("equivocated at k="),
            _ => false,
        });
        assert!(noted, "G={groups}: the catch left no note in the events");
    }
}

/// A *fully* Byzantine group (every replica silent) stalls itself — and
/// corrupts nothing else: sibling groups commit their complete shares
/// and their logs contain only their own commands.
#[test]
fn fully_byzantine_group_never_corrupts_sibling_groups() {
    let mut sc = byz_sharded(4, 3, 300);
    sc.adversaries = (0..3).map(|i| (2usize, i, Silent)).collect();
    sc.max_delays = 2_500; // the dead group holds the run open; cap it
    let r = run_sharded(&sc);
    assert!(!r.all_committed, "a dead group cannot commit its share");
    assert_eq!(r.groups[2].committed, 0, "silent group committed?!");
    assert_eq!(r.groups[2].entries, 0);
    // Every sibling drained its whole backlog, exactly once, and no
    // command of the dead group's key range leaked into a sibling log.
    let per_group_total: usize = r.groups.iter().map(|g| g.committed).sum();
    assert_eq!(
        per_group_total, r.committed,
        "per-group commit accounting is inconsistent"
    );
    assert!(r.all_logs_agree && r.no_cross_group_leak, "{r:?}");
    let mut seen = std::collections::BTreeSet::new();
    for group in &r.groups {
        for &v in &group.log {
            if is_client_id(v) {
                assert!(seen.insert(v.0), "command {} duplicated", v.0);
            }
        }
    }
    assert_eq!(seen.len(), r.committed);
}

/// Crash-mode and Byzantine-mode groups coexist behind one router: the
/// per-group `GroupMode` switch is local to the group.
#[test]
fn mixed_mode_deployment_commits_everything() {
    let mut sc = byz_sharded(4, 3, 400);
    sc.group_modes = vec![
        GroupMode::CrashPmp,
        GroupMode::Byzantine,
        GroupMode::CrashPmp,
        GroupMode::Byzantine,
    ];
    sc.adversaries = vec![(1, 2, Silent)];
    // A crash-mode leader failure rides along: both failure models in
    // one deployment, each handled by its own protocol.
    sc.crash_leaders = vec![(2, 15)];
    sc.announce = vec![(2, 1, 70)];
    let r = run_sharded(&sc);
    assert!(r.all_committed, "{r:?}");
    assert!(r.all_logs_agree && r.no_cross_group_leak);
    assert_exactly_once(&sc, &r);
    assert_eq!(r.groups[0].mode, GroupMode::CrashPmp);
    assert_eq!(r.groups[1].mode, GroupMode::Byzantine);
}
