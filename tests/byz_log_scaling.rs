//! Log-length independence of the Byzantine steady state, as exact counts.
//!
//! The pipelined broadcast engine bounds every range read to the `k`
//! window it can use (`nebcast` module docs), so what a read returns —
//! and with it every per-command cost of the memory, replication and
//! broadcast layers — is a function of the pipeline window, not of how
//! long the log already is. Rows returned per command is the
//! deterministic proxy: it repeats exactly, on any machine.

use agreement::harness::{run_sharded, ShardedRunReport, ShardedScenario};
use agreement::sharded::GroupMode;
use simnet::{fnv1a, FNV1A_BASIS};

/// The repository benchmark's `byz_pipeline` workload shape (G = 1
/// Byzantine group of n = 3 over m = 3 memories, batch 8, router window
/// 64, pipeline window 8, leader fast path) at `cmds` commands.
fn byz_pipeline(cmds: usize) -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(1, 3, 3, 5);
    sc.total_cmds = cmds;
    sc.batch = 8;
    sc.window = 64;
    sc.group_modes = vec![GroupMode::Byzantine];
    sc.byz_pipeline_window = 8;
    sc.byz_fast_path = true;
    sc.max_delays = 40 * cmds as u64 + 10_000;
    sc
}

fn run(cmds: usize) -> ShardedRunReport {
    let r = run_sharded(&byz_pipeline(cmds));
    assert!(r.all_committed && r.all_logs_agree, "{cmds}: {r:?}");
    r
}

fn rows_per_cmd(r: &ShardedRunReport) -> f64 {
    r.mem_range_rows as f64 / r.committed as f64
}

/// FNV-1a over the group's log, in order.
fn log_hash(r: &ShardedRunReport) -> u64 {
    fnv1a(
        FNV1A_BASIS,
        r.groups[0].log.iter().flat_map(|v| v.0.to_le_bytes()),
    )
}

/// Four times the log, the same rows per command (within 10 %: the run's
/// fixed start-up and drain are amortised over more commands). At the
/// parent commit — whole-history audits — the ratio was about 4x.
#[test]
fn range_rows_per_command_do_not_grow_with_the_log() {
    let (short, long) = (run(1_500), run(6_000));
    let (a, b) = (rows_per_cmd(&short), rows_per_cmd(&long));
    println!("range rows per command: {a:.3} at 1500 commands, {b:.3} at 6000");
    assert!(a > 0.0, "the pipelined engine issued no range read");
    assert!(
        (b / a - 1.0).abs() <= 0.10,
        "range rows per command moved with the log length: {a:.3} -> {b:.3}"
    );
}

/// Bounding the reads changes what they return, not what the engine does
/// with it: schedule, operation counts and logs of the benchmark-sized
/// run are pinned. Captured with unbounded audits, and re-recorded three
/// times, on purpose, each time with the same log: when a follower's
/// copies and receipts of one handler became one batched write per memory
/// (899 delays instead of 1 887; 1.5898 commands per delay, 7 452 memory
/// operations, 22 002 events and 16 341 messages before), when the
/// leader's broadcasts held behind its write in flight became one write
/// per memory (637 delays instead of 899; 3.3370 commands per delay,
/// 4 044 memory operations, 12 260 events and 9 565 messages before), and
/// when the pipelined engine stopped reading any row but its leader's
/// (505 delays instead of 637; 4.7096 commands per delay, 2 619 memory
/// operations, 8 622 events and 6 715 messages before).
#[test]
fn the_3000_command_run_is_the_parent_commits_run() {
    let r = run(3_000);
    println!(
        "PIN cmds_per_delay={:?} elapsed={:?} mem_ops={} events={} messages={} entries={} log_hash={:#x}",
        r.committed_per_delay,
        r.elapsed_delays,
        r.mem_ops,
        r.events_dispatched,
        r.messages,
        r.total_entries,
        log_hash(&r),
    );
    assert_eq!(
        (
            r.committed_per_delay,
            r.elapsed_delays,
            r.mem_ops,
            r.events_dispatched,
            r.messages,
            r.total_entries,
            log_hash(&r),
        ),
        (
            5.9405940594059405,
            505.0,
            2019,
            7024,
            5515,
            3000,
            0x1358_1a9e_18ae_a054
        ),
        "the windowed engine left the parent commit's schedule"
    );
}
