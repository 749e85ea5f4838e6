//! Sharded-service determinism and safety.
//!
//! The sharded layer composes many single-group instances of the paper's
//! protocol on one kernel, so two properties must hold end to end:
//!
//! 1. **Determinism** — a seed fully determines the run: per-group logs,
//!    latency percentiles, stall windows, message counts — everything in
//!    the report — must be identical across repeated runs, including runs
//!    with mid-stream leader crashes and failover in several groups.
//! 2. **Per-group safety** — within every group, replica logs never
//!    diverge (prefix consistency), and the hash partition is respected:
//!    a command never commits in a group its key does not map to.

use agreement::harness::{run_sharded, run_sharded_with_events, ShardedRunReport, ShardedScenario};
use agreement::sharded::{KeyRange, ScriptedMigration, WorkloadSpec};
use agreement::spans::aggregate_spans;
use simnet::{DelayModel, Duration};

/// G=4 closed-loop Zipf run with leader crashes in 2 of the 4 groups.
fn crashy_scenario(seed: u64) -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(4, 3, 3, seed);
    sc.total_cmds = 300;
    sc.workload = WorkloadSpec::Zipf {
        keys: 1024,
        s: 0.99,
    };
    sc.window = 6;
    sc.batch = 2;
    sc.max_delays = 20_000;
    // Mid-stream: leaders of groups 0 and 2 crash at different times;
    // Ω elects each group's second replica shortly after.
    sc.crash_leaders = vec![(0, 15), (2, 31)];
    sc.announce = vec![(0, 1, 70), (2, 1, 90)];
    sc
}

fn assert_reports_identical(a: &ShardedRunReport, b: &ShardedRunReport) {
    // Field-by-field for readable failures before the catch-all.
    for (g, (ga, gb)) in a.groups.iter().zip(&b.groups).enumerate() {
        assert_eq!(ga.log, gb.log, "group {g} logs differ across runs");
        assert_eq!(ga, gb, "group {g} reports differ across runs");
    }
    assert_eq!(a, b, "aggregate reports differ across runs");
}

#[test]
fn same_seed_same_run_without_failures() {
    let mut sc = ShardedScenario::common_case(4, 3, 3, 21);
    sc.total_cmds = 240;
    sc.window = 8;
    sc.batch = 4;
    let a = run_sharded(&sc);
    let b = run_sharded(&sc);
    assert!(a.all_committed, "{a:?}");
    assert_reports_identical(&a, &b);
}

#[test]
fn same_seed_same_run_with_leader_crashes_in_two_groups() {
    let sc = crashy_scenario(33);
    let a = run_sharded(&sc);
    let b = run_sharded(&sc);
    assert!(a.all_committed, "{a:?}");
    assert!(a.all_logs_agree && a.no_cross_group_leak);
    assert_reports_identical(&a, &b);
}

#[test]
fn determinism_holds_under_jittered_links() {
    // Jittered delays drive the seeded RNG on every send; repeated runs
    // in fresh kernels must still produce the identical report, crashes
    // and failover included (the sharded analogue of the golden-schedule
    // repetition pins).
    let mut sc = crashy_scenario(47);
    sc.delay = DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(3),
    };
    sc.max_delays = 40_000;
    let a = run_sharded(&sc);
    let b = run_sharded(&sc);
    assert!(a.all_committed, "{a:?}");
    assert_reports_identical(&a, &b);
}

#[test]
fn per_group_safety_holds_under_crash_and_failover() {
    for seed in [1, 9, 77] {
        let sc = crashy_scenario(seed);
        let r = run_sharded(&sc);
        assert!(r.all_committed, "seed {seed}: {r:?}");
        assert!(r.all_logs_agree, "seed {seed}: replica logs diverged");
        assert!(r.no_cross_group_leak, "seed {seed}: partition violated");
        // Every group made progress and the crashed groups recovered:
        // each group committed exactly its share of unique commands.
        let per_group: Vec<usize> = r.groups.iter().map(|g| g.committed).collect();
        assert_eq!(per_group.iter().sum::<usize>(), 300, "seed {seed}");
        // At-least-once: a group's log may exceed its unique commands
        // (failover re-submission duplicates, no-op fillers) but never
        // undercut them.
        for (g, report) in r.groups.iter().enumerate() {
            assert!(
                report.entries >= report.committed,
                "seed {seed} group {g}: {report:?}"
            );
        }
    }
}

#[test]
fn partitioned_kernel_is_thread_count_invariant() {
    // The tentpole differential: a fixed (seed, partitions) pins the run
    // bit-for-bit; the worker-thread count must change wall-clock time
    // only. Includes mid-stream leader crashes + failover in two groups,
    // so the invariance covers re-submission, takeover scans, and dedup.
    let mut sc = crashy_scenario(59);
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
    assert!(reports[0].all_logs_agree && reports[0].no_cross_group_leak);
    assert_reports_identical(&reports[0], &reports[1]);
    assert_reports_identical(&reports[0], &reports[2]);
}

#[test]
fn partitioned_kernel_is_thread_count_invariant_under_jitter() {
    // Jittered links drive every partition's RNG stream on every send;
    // thread-count invariance must survive that too (lookahead = the
    // model's 1-delay minimum).
    let mut sc = crashy_scenario(61);
    sc.delay = DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(3),
    };
    sc.max_delays = 40_000;
    sc.partitions = 2;
    let mut a = sc.clone();
    a.threads = 1;
    let mut b = sc.clone();
    b.threads = 4;
    let ra = run_sharded(&a);
    let rb = run_sharded(&b);
    assert!(ra.all_committed, "{ra:?}");
    assert_reports_identical(&ra, &rb);
}

#[test]
fn partitioned_run_is_reproducible_and_seed_sensitive() {
    let mut sc = crashy_scenario(71);
    sc.partitions = 4;
    sc.threads = 2;
    let a = run_sharded(&sc);
    let b = run_sharded(&sc);
    assert_reports_identical(&a, &b);
    let mut other = sc.clone();
    other.seed = 72;
    let c = run_sharded(&other);
    assert_ne!(a, c, "partitioned runs ignored the seed");
    // The report carries one queue peak per partition.
    assert_eq!(a.partition_peak_queue_lens.len(), 4);
    assert_eq!(
        a.peak_queue_len,
        a.partition_peak_queue_lens.iter().copied().max().unwrap()
    );
}

#[test]
fn session_dedup_suppresses_failover_duplicates() {
    // A crashed leader with a full window in flight forces the router's
    // at-least-once re-submission; dedup must keep those commands from
    // becoming duplicate log entries, on both kernel paths identically.
    for partitions in [1usize, 4] {
        let mut sc = crashy_scenario(33);
        sc.partitions = partitions;
        let r = run_sharded(&sc);
        assert!(r.all_committed, "partitions={partitions}: {r:?}");
        assert!(
            r.duplicates_suppressed > 0,
            "partitions={partitions}: failover produced no re-submissions \
             to suppress: {r:?}"
        );
        // Exactly-once in the log for this schedule: no client command id
        // appears twice within a group's log (no-op fillers excluded).
        for (g, group) in r.groups.iter().enumerate() {
            let mut seen = std::collections::BTreeSet::new();
            for v in &group.log {
                if v.0 != u64::MAX {
                    assert!(
                        seen.insert(v.0),
                        "partitions={partitions} group {g}: command {} duplicated",
                        v.0
                    );
                }
            }
        }
    }
}

#[test]
fn tracing_is_invisible_to_the_run_across_thread_counts() {
    // Observer effect, pinned: enabling full tracing on a jittered
    // crash + migration run must leave the whole report — logs,
    // decisions, latency percentiles, kernel metrics — bit-identical to
    // the untraced run, with nothing blanked, at every partitioned-kernel
    // worker-thread count. And the recorded event stream itself must be
    // thread-count invariant (recording rides the deterministic
    // schedule, so threads may only change wall-clock time).
    let mut sc = crashy_scenario(83);
    sc.delay = DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(3),
    };
    sc.max_delays = 40_000;
    // A scripted migration racing group 0's crash + failover.
    sc.migrations = vec![ScriptedMigration {
        at_delays: 40,
        range: KeyRange { lo: 0, hi: 512 },
        to: 3,
    }];
    sc.partitions = 4;
    let mut streams = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut untraced = sc.clone();
        untraced.threads = threads;
        let base = run_sharded(&untraced);
        assert!(base.all_committed, "threads={threads}: {base:?}");
        assert!(base.all_logs_agree && base.no_cross_group_leak);

        let mut traced = untraced.clone();
        traced.record_events = true;
        let (report, events) = run_sharded_with_events(&traced);
        assert!(!events.is_empty(), "threads={threads}: nothing recorded");
        let spans = aggregate_spans(&events, sc.groups, sc.total_cmds);
        assert_eq!(spans.len(), sc.groups, "threads={threads}");
        assert_reports_identical(&base, &report);
        streams.push(events);
    }
    assert_eq!(
        streams[0], streams[1],
        "2 worker threads changed the traced event stream"
    );
    assert_eq!(
        streams[0], streams[2],
        "4 worker threads changed the traced event stream"
    );
}

#[test]
fn seeds_actually_change_the_schedule() {
    // Guard against a degenerate "deterministic because constant" world.
    let a = run_sharded(&crashy_scenario(100));
    let b = run_sharded(&crashy_scenario(101));
    assert_ne!(
        a.groups.iter().map(|g| g.log.clone()).collect::<Vec<_>>(),
        b.groups.iter().map(|g| g.log.clone()).collect::<Vec<_>>(),
        "different seeds produced identical sharded runs"
    );
}
