//! Online key-range migration, end to end.
//!
//! The epoch-flip contract under test (see
//! `agreement::sharded::rebalance`):
//!
//! * **No lost commands** — every client command commits despite ranges
//!   moving mid-run (`all_committed`).
//! * **No duplicates** — no client command id appears twice across the
//!   whole service's logs (seal/install control entries excluded).
//! * **Per-key order across the flip** — a migrated key's commands
//!   commit in submission (id) order: its source-group commits all
//!   precede the seal entry, its destination-group commits all follow
//!   the install entry.
//! * **Determinism** — `(seed, partitions)` pins migrating runs
//!   bit-for-bit across 1/2/4 worker threads, and migrations compose
//!   with leader crashes in the source group.

use agreement::harness::{run_sharded, ShardedRunReport, ShardedScenario};
use agreement::sharded::rebalance::{decode_ctrl, CtrlEntry};
use agreement::sharded::{
    sample_keys, KeyRange, RebalanceConfig, RoutingTable, ScriptedMigration, WorkloadSpec,
};
use agreement::types::Value;

/// The per-id key map of a scenario's command stream (index 0 unused).
fn keys_of(sc: &ShardedScenario) -> Vec<u64> {
    let mut keys = vec![u64::MAX];
    keys.extend(sample_keys(&sc.workload, sc.seed, sc.total_cmds));
    keys
}

/// Client command ids of one group log, in log order, with the positions
/// of the seal/install entries of migration `mig`.
fn log_ids_and_ctrl(log: &[Value], mig: u64) -> (Vec<u64>, Option<usize>, Option<usize>) {
    let mut ids = Vec::new();
    let (mut seal_pos, mut install_pos) = (None, None);
    for (pos, &v) in log.iter().enumerate() {
        match decode_ctrl(v) {
            Some(CtrlEntry::Seal { mig: m }) if m == mig => seal_pos = Some(pos),
            Some(CtrlEntry::Install { mig: m }) if m == mig => install_pos = Some(pos),
            Some(_) => {}
            None => {
                if v != Value::NOOP {
                    ids.push(v.0);
                }
            }
        }
    }
    (ids, seal_pos, install_pos)
}

/// Asserts the service-wide exactly-once + per-key-order contract for a
/// finished run with one migration of `range` from `from` to `to`.
fn assert_flip_safety(
    sc: &ShardedScenario,
    r: &ShardedRunReport,
    range: KeyRange,
    from: usize,
    to: usize,
) {
    assert!(r.all_committed, "lost commands: {r:?}");
    assert!(r.all_logs_agree && r.no_cross_group_leak);
    assert_eq!(r.migrations_completed, 1);
    assert_eq!(r.routing_table_version, 1);
    assert_eq!(r.cross_epoch_commits, 0, "schedule raced the epoch flip");
    let keys = keys_of(sc);

    // Exactly-once across the whole service.
    let mut seen = std::collections::BTreeSet::new();
    for group in &r.groups {
        for &v in &group.log {
            if decode_ctrl(v).is_none() && v != Value::NOOP {
                assert!(seen.insert(v.0), "command {} committed twice", v.0);
            }
        }
    }
    assert_eq!(seen.len(), sc.total_cmds, "committed ids != workload");

    // The seal ends the range's history at the source; the install starts
    // it at the destination.
    let (src_ids, seal, _) = log_ids_and_ctrl(&r.groups[from].log, 0);
    let (dst_ids, _, install) = log_ids_and_ctrl(&r.groups[to].log, 0);
    let seal = seal.expect("seal entry missing from the source log");
    let install = install.expect("install entry missing from the destination log");
    for (pos, &v) in r.groups[from].log.iter().enumerate() {
        if decode_ctrl(v).is_none() && v != Value::NOOP && range.contains(keys[v.0 as usize]) {
            assert!(pos < seal, "range command {} committed after the seal", v.0);
        }
    }
    for (pos, &v) in r.groups[to].log.iter().enumerate() {
        if decode_ctrl(v).is_none() && v != Value::NOOP && range.contains(keys[v.0 as usize]) {
            assert!(
                pos > install,
                "range command {} committed before the install",
                v.0
            );
        }
    }

    // Per-key order across the flip: source history then destination
    // history, ids strictly increasing (ids are assigned in submission
    // order, and a single key's commands never reorder).
    let mut per_key: std::collections::BTreeMap<u64, Vec<u64>> = std::collections::BTreeMap::new();
    for &id in src_ids.iter().chain(&dst_ids) {
        if range.contains(keys[id as usize]) {
            per_key.entry(keys[id as usize]).or_default().push(id);
        }
    }
    for (key, ids) in per_key {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "key {key} commands reordered across the epoch flip: {ids:?}"
        );
    }
}

/// G=4 uniform closed-loop scenario; group 0 initially owns keys
/// [0, 1024) under the even version-0 table.
fn migration_scenario(seed: u64) -> (ShardedScenario, KeyRange) {
    let mut sc = ShardedScenario::common_case(4, 3, 3, seed);
    sc.total_cmds = 400;
    sc.window = 8;
    sc.batch = 4;
    sc.max_delays = 20_000;
    let range = KeyRange { lo: 0, hi: 512 };
    sc.migrations = vec![ScriptedMigration {
        at_delays: 40,
        range,
        to: 2,
    }];
    (sc, range)
}

#[test]
fn scripted_migration_is_safe_and_exactly_once() {
    let (sc, range) = migration_scenario(17);
    let r = run_sharded(&sc);
    assert!(r.rerouted_commands > 0, "nothing moved: {r:?}");
    assert_eq!(r.migration_windows_ticks.len(), 1);
    assert!(r.migration_windows_ticks[0] > 0);
    assert_flip_safety(&sc, &r, range, 0, 2);
    // The flip actually moved load: the destination committed its own
    // table share plus every re-routed command, the source lost exactly
    // that many.
    let table = RoutingTable::even(sc.workload.key_space(), sc.groups);
    let own = agreement::sharded::partition_with_table(
        &sc.workload,
        sc.seed,
        sc.total_cmds,
        &table,
        sc.groups,
    );
    let moved = r.rerouted_commands as usize;
    assert_eq!(r.groups[2].committed, own.backlogs[2].len() + moved);
    assert_eq!(r.groups[0].committed, own.backlogs[0].len() - moved);
}

#[test]
fn migration_racing_source_leader_crash_still_completes() {
    // The seal is submitted at t=40 to group 0's leader, which crashes
    // moments later with the seal (and a window of commands) in flight;
    // Ω elects the group's second replica at t=120. The re-submission
    // path must carry the control entry to the new leader, and the
    // takeover scan must hand it whatever the crashed leader had already
    // committed — the migration completes and the flip stays safe.
    let (mut sc, range) = migration_scenario(23);
    sc.crash_leaders = vec![(0, 42)];
    sc.announce = vec![(0, 1, 120)];
    let r = run_sharded(&sc);
    assert_flip_safety(&sc, &r, range, 0, 2);
    assert!(
        r.groups[0].max_commit_gap_ticks >= 50 * simnet::TICKS_PER_DELAY,
        "no failover stall visible: {:?}",
        r.groups[0].max_commit_gap_ticks
    );
}

#[test]
fn migrating_runs_are_thread_count_invariant() {
    // Determinism with migrations in flight: 4 kernel partitions, the
    // migration's source and destination on different partitions, plus a
    // leader crash in a third group — 1, 2 and 4 worker threads must
    // produce the bit-identical report.
    let (mut sc, _) = migration_scenario(31);
    sc.crash_leaders = vec![(3, 25)];
    sc.announce = vec![(3, 1, 90)];
    sc.partitions = 4;
    let reports: Vec<ShardedRunReport> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let mut s = sc.clone();
            s.threads = threads;
            run_sharded(&s)
        })
        .collect();
    assert!(reports[0].all_committed, "{:?}", reports[0]);
    assert_eq!(reports[0].migrations_completed, 1);
    assert_eq!(reports[0], reports[1], "2 threads changed the run");
    assert_eq!(reports[0], reports[2], "4 threads changed the run");
    // And the monolithic kernel agrees on everything but queue shape.
    let mut mono = sc.clone();
    mono.partitions = 1;
    let m = run_sharded(&mono);
    assert_eq!(m.committed, reports[0].committed);
    assert_eq!(m.migrations_completed, reports[0].migrations_completed);
    assert_eq!(m.routing_table_version, reports[0].routing_table_version);
}

#[test]
fn queued_migrations_apply_in_order() {
    // Two scripted migrations triggered back to back: the second waits
    // for the first to flip, then runs; both land, version reaches 2.
    // (The workload is sized to outlast both flips — a run that drains
    // first simply ends with the trailing migration unfinished.)
    let (mut sc, _) = migration_scenario(41);
    sc.total_cmds = 900;
    sc.migrations = vec![
        ScriptedMigration {
            at_delays: 40,
            range: KeyRange { lo: 0, hi: 256 },
            to: 2,
        },
        ScriptedMigration {
            at_delays: 41,
            range: KeyRange { lo: 1024, hi: 1100 },
            to: 3,
        },
    ];
    let r = run_sharded(&sc);
    assert!(r.all_committed && r.all_logs_agree && r.no_cross_group_leak);
    assert_eq!(r.migrations_completed, 2);
    assert_eq!(r.routing_table_version, 2);
    assert_eq!(r.migration_windows_ticks.len(), 2);
}

#[test]
fn static_range_routing_follows_the_table() {
    // range_routing alone (no migrations): the even table is the whole
    // story, and every commit lands in its table group.
    let mut sc = ShardedScenario::common_case(4, 3, 3, 13);
    sc.total_cmds = 300;
    sc.window = 8;
    sc.range_routing = true;
    let r = run_sharded(&sc);
    assert!(r.all_committed && r.all_logs_agree && r.no_cross_group_leak);
    assert_eq!(r.migrations_completed, 0);
    assert_eq!(r.routing_table_version, 0);
    let table = RoutingTable::even(sc.workload.key_space(), sc.groups);
    let keys = keys_of(&sc);
    for (g, group) in r.groups.iter().enumerate() {
        for &v in &group.log {
            if decode_ctrl(v).is_none() && v != Value::NOOP {
                assert_eq!(
                    table.group_of(keys[v.0 as usize]),
                    g,
                    "command {} off its table group",
                    v.0
                );
            }
        }
    }
}

#[test]
fn auto_rebalance_splits_the_hot_range_and_recovers_throughput() {
    // Zipf head ranks are contiguous keys, so the even range table pins
    // the whole head onto group 0 — the adversarial case for range
    // partitioning. The policy must detect it and migrate hot keys away,
    // beating the static range table on completion time.
    let mut sc = ShardedScenario::common_case(4, 3, 3, 7);
    sc.total_cmds = 2_000;
    sc.window = 12;
    sc.batch = 4;
    sc.max_delays = 100_000;
    sc.workload = WorkloadSpec::Zipf {
        keys: 4096,
        s: 0.99,
    };
    sc.range_routing = true;
    let static_run = run_sharded(&sc);
    assert!(static_run.all_committed, "{static_run:?}");

    let mut auto = sc.clone();
    auto.rebalance = Some(RebalanceConfig {
        check_every_delays: 100,
        cooldown_delays: 50,
        hot_group_permille: 400,
        hot_key_permille: 100,
        min_window_commits: 64,
        ..RebalanceConfig::default()
    });
    let r = run_sharded(&auto);
    assert!(r.all_committed, "{r:?}");
    assert!(r.all_logs_agree && r.no_cross_group_leak);
    assert!(r.migrations_completed >= 1, "policy never triggered: {r:?}");
    assert_eq!(r.routing_table_version as usize, r.migrations_completed);
    assert!(
        r.elapsed_delays < static_run.elapsed_delays,
        "auto-rebalance did not beat static range routing: {} vs {}",
        r.elapsed_delays,
        static_run.elapsed_delays
    );
    // Exactly-once still holds with policy-triggered migrations.
    let mut seen = std::collections::BTreeSet::new();
    for group in &r.groups {
        for &v in &group.log {
            if decode_ctrl(v).is_none() && v != Value::NOOP {
                assert!(seen.insert(v.0), "command {} committed twice", v.0);
            }
        }
    }
    // Reproducible: the same auto-rebalancing run is bit-identical.
    let again = run_sharded(&auto);
    assert_eq!(r, again, "auto-rebalancing run is not deterministic");
}
