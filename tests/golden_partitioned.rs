//! Absolute golden pins for the partitioned kernel.
//!
//! `tests/sharded_determinism.rs` pins partitioned runs *relative* to
//! each other (1/2/4 worker threads agree); this file pins what a
//! `(seed, partitions)` run **is**, so a kernel change that shifts every
//! thread count the same way still fails. The values were captured at
//! the commit before the two kernels were merged onto one dispatch
//! engine and must never be re-recorded to make a kernel change pass.

use agreement::harness::{run_sharded_with_events, ShardedScenario};
use agreement::types::Value;
use simnet::{fnv1a, DelayModel, Duration, FNV1A_BASIS};

/// Everything in a run a schedule shift would move, as integers.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    committed: usize,
    elapsed_ticks: u64,
    events_dispatched: u64,
    messages: u64,
    partition_peak_queue_lens: Vec<u64>,
    /// FNV-1a over each group's longest replica log.
    log_hashes: Vec<u64>,
    obs_events: usize,
}

fn log_hash(log: &[Value]) -> u64 {
    fnv1a(FNV1A_BASIS, log.iter().flat_map(|v| v.0.to_le_bytes()))
}

/// Runs `sc` at 1 and 2 worker threads, asserts both are safe and equal,
/// and returns the shared fingerprint.
fn pinned(sc: &ShardedScenario) -> Fingerprint {
    let [one, two] = [1usize, 2].map(|threads| {
        let mut s = sc.clone();
        s.threads = threads;
        s.record_events = true;
        let (r, events) = run_sharded_with_events(&s);
        assert!(r.all_committed && r.all_logs_agree && r.no_cross_group_leak);
        Fingerprint {
            committed: r.committed,
            elapsed_ticks: (r.elapsed_delays * simnet::TICKS_PER_DELAY as f64).round() as u64,
            events_dispatched: r.events_dispatched,
            messages: r.messages,
            partition_peak_queue_lens: r.partition_peak_queue_lens,
            log_hashes: r.groups.iter().map(|g| log_hash(&g.log)).collect(),
            obs_events: events.len(),
        }
    });
    assert_eq!(one, two, "thread count changed the run");
    one
}

/// Re-recorded on purpose, not for a kernel change, when a crash
/// takeover began reading every process's ballot register after its
/// suffix scan: one more round trip per memory in each of the two
/// takeovers. Before: `elapsed_ticks: 227_477`, `events_dispatched:
/// 1_697`, `messages: 1_550`, `obs_events: 5_838`; the same logs, queue
/// depths and commits.
#[test]
fn golden_p4_g4_failover_is_pinned() {
    // Jittered links (every partition's RNG stream is drawn on every
    // send), two leader crashes mid-stream, Ω takeover announcements.
    let mut sc = ShardedScenario::common_case(4, 3, 3, 59);
    sc.total_cmds = 300;
    sc.window = 6;
    sc.batch = 2;
    sc.max_delays = 20_000;
    sc.delay = DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(3),
    };
    sc.crash_leaders = vec![(0, 15), (2, 31)];
    sc.announce = vec![(0, 1, 70), (2, 1, 90)];
    sc.partitions = 4;
    assert_eq!(
        pinned(&sc),
        Fingerprint {
            committed: 300,
            elapsed_ticks: 228_831,
            events_dispatched: 1_705,
            messages: 1_561,
            partition_peak_queue_lens: vec![18, 9, 13, 9],
            log_hashes: vec![
                8909143536896859890,
                7568187543204602963,
                6432634737520030994,
                16368727622624231020,
            ],
            obs_events: 5_860,
        }
    );
}

#[test]
fn golden_p8_g8_open_loop_is_pinned() {
    // Open loop: each backlog preloaded into its group's leader, the
    // router only observes — one group per partition.
    let mut sc = ShardedScenario::common_case(8, 3, 3, 7);
    sc.total_cmds = 4_000;
    sc.window = 0;
    sc.batch = 8;
    sc.partitions = 8;
    assert_eq!(
        pinned(&sc),
        Fingerprint {
            committed: 4_000,
            elapsed_ticks: 139_000,
            events_dispatched: 4_720,
            messages: 4_527,
            partition_peak_queue_lens: vec![16, 9, 9, 9, 9, 9, 9, 9],
            log_hashes: vec![
                9347826783425558989,
                3786157135777595416,
                2775477536826570006,
                2832034888583400328,
                12192152970390698967,
                8533041018150357728,
                8636264686031549026,
                17592700307388842471,
            ],
            obs_events: 34_924,
        }
    );
}
