//! Absolute pins for the traffic the replica shell carries.
//!
//! Scaled-down copies of the four repository-benchmark workload shapes
//! (`benchmark/src/workloads.rs`), the pipelined Byzantine shape without
//! its fast path, one mixed crash/Byzantine deployment with a takeover in
//! each mode and adaptive batching on, and a window-1 Byzantine takeover.
//! The first five fingerprints were captured at the commit *before*
//! `SmrNode` and `ByzSmrNode` became one `smr::Replica` shell over two
//! engines, the other two each at the commit before the change they
//! guard; like `byz_log_scaling`'s values they are never re-recorded — a
//! refactor of the shell, the engines or the PMP proposer that moves one
//! of them has changed the schedule, not just the code. The pipelined
//! Byzantine pins were re-recorded on purpose, with the logs captured
//! before, when a follower's copies and receipts of one handler became one
//! batched write per memory (the fast-path and mixed pins: about half the
//! events, memory operations and time), and when the leader's broadcasts
//! held behind its write in flight became one write per memory (all
//! three: about a third fewer events and memory operations). The two
//! pins with a crash takeover were re-recorded on purpose, with the same
//! logs, when a takeover began reading the undecided suffix and every
//! ballot register instead of the whole log (their doc comments hold the
//! values before).

use agreement::harness::{run_sharded, ShardedRunReport, ShardedScenario};
use agreement::sharded::{GroupMode, WorkloadSpec};
use simnet::{fnv1a, DelayModel, RdmaCost, FNV1A_BASIS, TICKS_PER_DELAY};

const SEED: u64 = 5;

/// What a run is pinned by: `(log FNV, events_dispatched, messages,
/// mem_ops, mem_range_rows, elapsed ticks, duplicates_suppressed,
/// byz_fast_commits)`.
type Fingerprint = (u64, u64, u64, u64, u64, u64, u64, u64);

/// FNV-1a over every group's log, in group then log order.
fn log_hash(r: &ShardedRunReport) -> u64 {
    let log = r.groups.iter().flat_map(|g| &g.log);
    fnv1a(FNV1A_BASIS, log.flat_map(|v| v.0.to_le_bytes()))
}

fn fingerprint(name: &str, sc: &ShardedScenario) -> Fingerprint {
    let r = run_sharded(sc);
    assert!(
        r.all_committed && r.all_logs_agree && r.no_cross_group_leak,
        "{name}: {r:?}"
    );
    let fp = (
        log_hash(&r),
        r.events_dispatched,
        r.messages,
        r.mem_ops,
        r.mem_range_rows,
        (r.elapsed_delays * TICKS_PER_DELAY as f64).round() as u64,
        r.duplicates_suppressed,
        r.byz_fast_commits,
    );
    println!("PIN {name} {fp:?}");
    fp
}

fn scenario(groups: usize, cmds: usize, batch: usize, window: usize) -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(groups, 3, 3, SEED);
    sc.total_cmds = cmds;
    sc.batch = batch;
    sc.window = window;
    sc.max_delays = 40 * cmds as u64 + 10_000;
    sc
}

/// `smr_b1` at 1/50: one PMP write per command.
#[test]
fn crash_steady_state_batch_1() {
    let sc = scenario(1, 2_000, 1, 4);
    assert_eq!(
        fingerprint("smr_b1", &sc),
        (1207534785824448472, 20604, 19997, 6000, 0, 4002000, 0, 0)
    );
}

/// `smr_b32` at 1/50: 32 commands per scatter-gather write.
#[test]
fn crash_steady_state_batch_32() {
    let sc = scenario(1, 4_000, 32, 128);
    assert_eq!(
        fingerprint("smr_b32", &sc),
        (11041571277239524208, 1290, 1247, 375, 0, 252000, 0, 0)
    );
}

/// `failover_paced` at 1/50: four groups, Zipf keys, paced arrivals over
/// RDMA-shaped links, two leader crashes whose takeovers read the
/// undecided suffix and the ballot registers, router re-submission and
/// session dedup. With whole-log takeover scans: `(…, 6989, 5826, 1380,
/// 888, 255604, 11, 0)` — 849 more range rows, 12 more events and
/// messages; the same log and memory operations.
#[test]
fn crash_paced_failover() {
    let mut sc = scenario(4, 2_000, 8, 64);
    sc.workload = WorkloadSpec::Zipf {
        keys: 4096,
        s: 0.99,
    };
    sc.delay = DelayModel::Rdma(RdmaCost::write_optimized());
    sc.arrival_rate_per_delay = 8.0;
    let span = sc.total_cmds as f64 / 8.0;
    let (first, second) = ((span * 0.16) as u64, (span * 0.48) as u64);
    sc.crash_leaders = vec![(0, first), (2, second)];
    sc.announce = vec![(0, 1, first + 30), (2, 1, second + 30)];
    assert_eq!(
        fingerprint("failover_paced", &sc),
        (3132409440839141692, 6977, 5814, 1380, 39, 255604, 11, 0)
    );
}

/// `byz_pipeline` at 1/5: signed pipelined broadcast, window 8, leader
/// fast path, every replica correct. Before followers batched their
/// copies and receipts: `(…, 4495, 3335, 1545, 3020, 387000, 0, 75)`;
/// before the leader sent its held broadcasts as one write: `(…, 2576,
/// 2005, 870, 1800, 191000, 0, 75)`; before the engine read only its
/// leader's row: `(…, 1793, 1399, 561, 1800, 133000, 0, 75)`; the same
/// log.
#[test]
fn byzantine_pipeline_fast_path() {
    let mut sc = scenario(1, 600, 8, 64);
    sc.group_modes = vec![GroupMode::Byzantine];
    sc.byz_pipeline_window = 8;
    sc.byz_fast_path = true;
    assert_eq!(
        fingerprint("byz_pipeline", &sc),
        (8266689179345589743, 1471, 1147, 435, 1800, 109000, 0, 75)
    );
}

/// `byz_pipeline` at 1/5 without the fast path: window 8, and the leader
/// settles its own batches at self-delivery, so its broadcast writes and
/// its reads of its own row share every memory's queue. Before the
/// leader sent its held broadcasts as one write: `(…, 3859, 2971, 1347,
/// 2673, 297000, 0, 0)`; before the engine read only its leader's row:
/// `(…, 2612, 2036, 882, 2760, 193000, 0, 0)`; the same log.
#[test]
fn byzantine_pipeline_conservative() {
    let mut sc = scenario(1, 600, 8, 64);
    sc.group_modes = vec![GroupMode::Byzantine];
    sc.byz_pipeline_window = 8;
    assert_eq!(
        fingerprint("byz_pipeline_conservative", &sc),
        (8266689179345589743, 1988, 1568, 645, 2820, 141000, 0, 0)
    );
}

/// One crash-mode and one Byzantine-mode group behind the same router,
/// adaptive doorbell batching on, each group's initial leader crashed
/// mid-run and replaced by Ω: both engines' takeover paths (PMP
/// permission grab + ballot register + undecided suffix, nebcast scan +
/// adopt) under one shell, in one schedule. Before the crash takeover read
/// the suffix and the ballot registers instead of the whole log: `(…,
/// 3143, 2307, 936, 2766, 345979, 16, 136)` — one read per memory fewer,
/// 384 range rows more. Before the Byzantine group's followers batched
/// their copies and receipts: `(…, 6061, 4392, 1995, 2880, 743858, 16,
/// 118)`; before its leaders sent their held broadcasts as one write:
/// `(…, 4290, 3254, 1413, 2415, 440699, 16, 129)`; before its engines
/// read only the leader's row: `(…, 3814, 2872, 1224, 2457, 396103, 16,
/// 131)`; the same log.
#[test]
fn mixed_modes_with_a_takeover_each() {
    let mut sc = scenario(2, 800, 4, 16);
    sc.group_modes = vec![GroupMode::CrashPmp, GroupMode::Byzantine];
    sc.delay = DelayModel::Rdma(RdmaCost::write_optimized());
    sc.adaptive_batch = 16;
    sc.byz_pipeline_window = 4;
    sc.byz_fast_path = true;
    sc.crash_leaders = vec![(0, 40), (1, 90)];
    sc.announce = vec![(0, 1, 70), (1, 2, 120)];
    assert_eq!(
        fingerprint("mixed", &sc),
        (11152018573274302320, 3149, 2313, 939, 2382, 345979, 16, 136)
    );
}

/// A Byzantine group at pipeline window 1 (the classic one-slot
/// protocol, no fast path) whose initial leader crashes mid-run and is
/// replaced by Ω: every broadcast write, copy and receipt goes out the
/// moment it is issued, so batching a pipelined follower's writes leaves
/// this schedule, takeover scan included, as it was.
#[test]
fn byzantine_window_1_with_a_takeover() {
    let mut sc = scenario(1, 300, 8, 64);
    sc.group_modes = vec![GroupMode::Byzantine];
    sc.crash_leaders = vec![(0, 120)];
    sc.announce = vec![(0, 1, 150)];
    assert_eq!(
        fingerprint("byz_w1_takeover", &sc),
        (11682051553599326978, 8579, 6460, 3198, 714, 997000, 0, 0)
    );
}
