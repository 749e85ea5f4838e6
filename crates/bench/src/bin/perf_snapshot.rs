//! Headless perf-trajectory recorder: runs each BENCH section below — the
//! E10 cost table, the E10b replicated log, the sharded service at
//! G ∈ {1, 4, 16, 64}, the partitioned-kernel thread sweep, rebalancing
//! under skew, the Byzantine-mode service and its pipeline sweep, the
//! Byzantine log-scaling check, span observability and the RDMA cost-model
//! grid — writes machine-readable `BENCH_PR<PR>.json` at the repo root, and
//! gates it against the newest prior `BENCH_PR*.json` of the same workload
//! size.
//!
//! Every reported quantity is **virtual time** (`committed_per_delay`,
//! `delays_per_entry`, latencies in delays — deterministic per seed, the
//! paper's metric) or an **exact count** (events, messages, memory ops,
//! range rows, allocations): identical on every machine. The one exception
//! is `wall_secs`, a single run's wall clock kept per row for diagnosis and
//! never gated or compared — host time is the repository benchmark's job
//! (`python3 benchmark/run.py`: calibrated reference seconds, medians with
//! quartiles).
//!
//! The gate ([`gate`]) has one rule: every value the prior snapshot
//! recorded comes back the same — a row's field under its label, a
//! section's summary under its path (`byz_pipeline.headline_…`,
//! `rebalance.hotset_auto_vs_static_hash.service_p99`) — or the run exits
//! non-zero, printing each move on one line. A prior label or section
//! this run no longer measures is one move. Two exceptions are declared
//! once, in `bench::gate`: `wall_secs` is never compared, and the
//! allocator's three counts may fall and are compared only when both
//! snapshots' `rustc` headers match. A change that moves a value on
//! purpose names it in [`MOVED_OK`], committed beside [`PR`], as
//! `label.field` (or `section.path`), or as a bare `label` or section for
//! a retirement or any move of it; `PERF_GATE=off` skips the gate.
//!
//! ```sh
//! cargo run --release -p bench --bin perf_snapshot
//! PERF_SNAPSHOT_CMDS=200000 cargo run --release -p bench --bin perf_snapshot
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use agreement::adversary::AdversaryKind;
use agreement::harness::{
    run_disk_paxos, run_fast_robust, run_mp_paxos, run_protected, run_robust_backup, run_sharded,
    run_sharded_with_events, run_smr, RunReport, Scenario, ShardedRunReport, ShardedScenario,
    SmrRunReport,
};
use agreement::sharded::{group_of_key, GroupMode, RebalanceConfig, WorkloadSpec};
use agreement::spans::aggregate_spans;
use bench::{Fixed, Row, Section};
use simnet::{DelayModel, RdmaCost, TICKS_PER_DELAY};

/// The compiler that built this binary (`build.rs`), as `rustc -V` prints it.
const RUSTC: &str = env!("BENCH_RUSTC_VERSION");

/// This snapshot's PR number (names the output file and anchors the gate).
const PR: u32 = 51;

/// The snapshot [`MOVED_OK`] names moves against: the list applies only
/// when the gate compares with `BENCH_PR<MOVED_SINCE>.json`, so a list
/// left behind by an earlier PR excuses nothing.
const MOVED_SINCE: u32 = 50;

/// The values this snapshot moves on purpose against
/// `BENCH_PR<MOVED_SINCE>.json`: none.
const MOVED_OK: &[&str] = &[];

/// The moves named on purpose against `BENCH_PR<k>.json`.
fn moved_ok(k: u32) -> &'static [&'static str] {
    if k == MOVED_SINCE {
        MOVED_OK
    } else {
        &[]
    }
}

/// Allocation-counting wrapper around the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured run: its report, its allocation count, and one wall-clock
/// reading for diagnosis.
struct Measured<R> {
    label: String,
    /// Worker threads the run used (1 on the monolithic kernel).
    threads: usize,
    report: R,
    wall_secs: f64,
    allocs: u64,
}

type MeasuredShard = Measured<ShardedRunReport>;

fn measure<R>(label: String, threads: usize, run: impl FnOnce() -> R) -> Measured<R> {
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    let report = run();
    Measured {
        label,
        threads,
        report,
        wall_secs: start.elapsed().as_secs_f64(),
        allocs: ALLOCS.load(Ordering::Relaxed) - before,
    }
}

/// Measures one E10b-style replicated-log run and checks it committed
/// everything consistently.
fn measure_smr(label: String, s: &Scenario, cmds: usize, batch: usize) -> Measured<SmrRunReport> {
    let m = measure(label, 1, || run_smr(s, cmds, batch));
    let (label, r) = (&m.label, &m.report);
    assert_eq!(r.entries, cmds, "{label}: workload did not fully commit");
    assert!(r.logs_agree, "{label}: replicas diverged");
    m
}

/// Measures one sharded-service run and checks it was complete and safe.
fn measure_sharded(label: String, sc: &ShardedScenario) -> MeasuredShard {
    let m = measure(label, sc.threads, || run_sharded(sc));
    let (label, r) = (&m.label, &m.report);
    assert!(r.all_committed, "{label}: workload did not complete");
    assert!(r.all_logs_agree, "{label}: replica logs diverged");
    assert!(r.no_cross_group_leak, "{label}: partition violated");
    m
}

/// The E10b replicated log (n = 3, m = 3), budgeted for `batch` entries
/// per write. `run_smr` never quiesces (retry timers re-arm), so the budget *is* the
/// run's length: `round_delays` per batched write round plus a little
/// slack — just enough to commit everything, so the run measures the
/// commit pipeline rather than a post-workload timer tail.
fn smr_log(batch: usize, cmds: usize, round_delays: u64, slack: u64) -> Scenario {
    Scenario {
        max_delays: round_delays * (cmds as u64).div_ceil(batch as u64) + slack,
        ..Scenario::common_case(3, 3, 5)
    }
}

/// The sharded service every other row measures: 3 replicas and 3 memories
/// per group, seed 5, and a budget generous enough that the run stops at
/// completion, never at the cap (the slowest shape, a hot set serialised
/// through one group, needs about a fifth of a delay per command; the
/// Byzantine one-slot engine under one delay).
fn service(groups: usize, batch: usize, window: usize, cmds: usize) -> ShardedScenario {
    ShardedScenario {
        batch,
        window,
        total_cmds: cmds,
        max_delays: 40 * cmds as u64 + 10_000,
        ..ShardedScenario::common_case(groups, 3, 3, 5)
    }
}

/// The smaller size the Byzantine, observability and cost-model sections
/// run at: a Byzantine command costs the host an order of magnitude more
/// than a crash-mode one.
fn tenth(cmds: usize) -> usize {
    (cmds / 10).max(1_000)
}

/// The skewed key stream of the closed-loop and rebalancing rows.
const ZIPF: WorkloadSpec = WorkloadSpec::Zipf {
    keys: 4096,
    s: 0.99,
};

fn delays(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_DELAY as f64
}

/// The fields every replicated-log row carries.
fn smr_row(m: &Measured<SmrRunReport>) -> Row {
    let r = &m.report;
    let allocs_per_event = m.allocs as f64 / r.events_dispatched.max(1) as f64;
    Row::labeled(&m.label)
        .with("entries", r.entries)
        .with("events_dispatched", r.events_dispatched)
        .with("wall_secs", Fixed(m.wall_secs, 6))
        .with("allocations", m.allocs)
        .with("allocs_per_event", Fixed(allocs_per_event, 3))
        .with("messages", r.messages)
        .with("mem_ops", r.mem_ops)
        .with("elapsed_delays", Fixed(r.elapsed_delays, 1))
        .with("delays_per_entry", Fixed(r.delays_per_entry, 3))
}

/// The one sharded-service row: every section reports every field, so any
/// two rows of any two snapshots compare field by field (the console table
/// hides the columns a section leaves at zero).
fn sharded_row(m: &MeasuredShard) -> Row {
    let r = &m.report;
    let per_cmd = |count: u64| Fixed(count as f64 / r.committed as f64, 3);
    let in_delays = |ticks: u64| Fixed(delays(ticks), 1);
    let tail_committed_per_delay = Fixed(r.tail_committed_per_delay, 3);
    let partition_peaks = r.partition_peak_queue_lens.clone();
    Row::labeled(&m.label)
        .with("groups", r.groups.len())
        .with("threads", m.threads)
        .with("entries", r.committed)
        .with("total_log_entries", r.total_entries)
        .with("wall_secs", Fixed(m.wall_secs, 6))
        .with("committed_per_delay", Fixed(r.committed_per_delay, 3))
        .with("tail_committed_per_delay", tail_committed_per_delay)
        .with("elapsed_delays", Fixed(r.elapsed_delays, 1))
        .with("service_p50_delays", in_delays(r.service_p50_latency_ticks))
        .with("service_p99_delays", in_delays(r.service_p99_latency_ticks))
        .with("events_dispatched", r.events_dispatched)
        .with("messages", r.messages)
        .with("mem_ops", r.mem_ops)
        .with("range_rows", r.mem_range_rows)
        .with("range_rows_per_cmd", per_cmd(r.mem_range_rows))
        .with("allocations", m.allocs)
        .with("allocs_per_cmd", per_cmd(m.allocs))
        .with("peak_queue_len", r.peak_queue_len)
        .with("partition_peak_queue_lens", partition_peaks)
        .with("duplicates_suppressed", r.duplicates_suppressed)
        .with("migrations", r.migrations_completed)
        .with("rerouted_commands", r.rerouted_commands)
        .with("routing_table_version", r.routing_table_version)
        .with("equivocations_blocked", r.equivocations_blocked)
        .with("byz_unconfirmed_claims", r.byz_unconfirmed_claims)
        .with("byz_withheld_reports", r.byz_withheld_reports)
        .with("byz_fast_commits", r.byz_fast_commits)
        .with("byz_fast_confirms", r.byz_fast_confirms)
}

/// `base` on the partitioned kernel at 1, 2 and 4 worker threads, labeled
/// `<prefix>_p<partitions>_t<threads>`. Asserts the kernel's determinism
/// contract on the way: worker threads change wall-clock time only, so the
/// three reports must be equal, field for field.
fn thread_sweep(prefix: &str, partitions: usize, base: &ShardedScenario) -> [MeasuredShard; 3] {
    let sweep = [1usize, 2, 4].map(|threads| {
        let sc = ShardedScenario {
            partitions,
            threads,
            ..base.clone()
        };
        measure_sharded(format!("{prefix}_p{partitions}_t{threads}"), &sc)
    });
    for m in &sweep[1..] {
        let same = m.report == sweep[0].report;
        assert!(same, "{}: thread count changed the run", m.label);
    }
    sweep
}

fn e10_common_case(_cmds: usize) -> Section {
    let s = Scenario::common_case(3, 3, 1);
    let protocols = [
        ("mp_paxos", run_mp_paxos(&s)),
        ("disk_paxos", run_disk_paxos(&s)),
        ("protected_memory_paxos", run_protected(&s)),
        ("fast_robust", run_fast_robust(&s, 60).0),
        ("robust_backup", run_robust_backup(&s).0),
    ];
    let row = |(name, r): &(&str, RunReport)| {
        let first_decision = r.first_decision_delays.map(|d| Fixed(d, 1));
        Row::labeled(&format!("e10_{name}"))
            .with("first_decision_delays", first_decision)
            .with("messages", r.messages)
            .with("mem_ops", r.mem_ops)
            .with("all_decided", r.all_decided)
            .with("agreement", r.agreement)
    };
    Section {
        name: "e10_common_case",
        summary: Row::new(),
        tables: vec![("configs", protocols.iter().map(row).collect())],
    }
}

fn e10b_replicated_log(cmds: usize) -> Section {
    // Synchronous links: a batched write round is 2 delays.
    let rows = [1usize, 8, 32].map(|batch| {
        let label = format!("optimized_kernel_batch{batch}");
        smr_row(&measure_smr(
            label,
            &smr_log(batch, cmds, 2, 50),
            cmds,
            batch,
        ))
    });
    Section {
        name: "e10b_replicated_log",
        summary: Row::new(),
        tables: vec![("configs", rows.to_vec())],
    }
}

fn sharded_log(cmds: usize) -> Section {
    // Open loop (window 0) is the max-throughput configuration.
    let mut runs = Vec::from(
        [1usize, 4, 16, 64]
            .map(|g| measure_sharded(format!("sharded_g{g}_optimized"), &service(g, 8, 0, cmds))),
    );
    let scaling = (runs.iter()).fold(Row::new(), |row, m| {
        let vs_g1 = m.report.committed_per_delay / runs[0].report.committed_per_delay;
        row.with(format!("g{}", m.report.groups.len()), Fixed(vs_g1, 3))
    });
    // One closed-loop skewed config: the service-latency story.
    let zipf = ShardedScenario {
        workload: ZIPF,
        ..service(4, 8, 16, cmds)
    };
    let label = "sharded_g4_zipf_closed_loop".to_string();
    runs.push(measure_sharded(label, &zipf));
    Section {
        name: "sharded_log",
        summary: Row::new()
            .with("total_commands", cmds)
            .with("scaling_committed_per_delay_vs_g1", scaling),
        tables: vec![("configs", runs.iter().map(sharded_row).collect())],
    }
}

/// Partitioned-kernel thread sweep: the same open-loop service on the
/// partitioned parallel kernel (8 partitions, groups in contiguous blocks,
/// router on partition 0) with 1, 2 and 4 worker threads, next to the
/// monolithic kernel (`mono_g*`). The sweep's own t1 row already pays the
/// partitioning tax (windows, outboxes, per-partition locks), so whether
/// threads buy wall-clock time over not partitioning at all is read off
/// the `wall_secs` of `mono_g*` against `par_g*` — diagnosis, not a gated
/// number. What is asserted is that everything virtual-time is
/// bit-identical across the sweep.
fn parallel_kernel(cmds: usize) -> Section {
    let mut runs = Vec::new();
    for groups in [8usize, 16] {
        let open_loop = service(groups, 8, 0, cmds);
        runs.push(measure_sharded(format!("mono_g{groups}"), &open_loop));
        runs.extend(thread_sweep(&format!("par_g{groups}"), 8, &open_loop));
    }
    Section {
        name: "parallel_kernel",
        summary: Row::new(),
        tables: vec![("configs", runs.iter().map(sharded_row).collect())],
    }
}

/// Rebalancing under skew. Two adversarial key streams, each measured
/// under the three placements (static hash, static range table, range
/// table + auto-rebalancer):
///
/// * **zipf(0.99)** — the head ranks are *adjacent small keys*, so the
///   even version-0 range table pins the whole head onto group 0 (static
///   hash dodges this one by scattering adjacent keys).
/// * **hot set** — 80% of traffic on 8 hot keys picked to collide on ONE
///   group under the hash AND to sit inside one group's range: no static
///   placement survives it; only per-key migration can isolate each hot
///   key onto its own group ("the hot range splits").
///
/// `tail_committed_per_delay` (the run's last virtual-time quartile) is
/// the post-convergence rate — recovery after the splits — while
/// `committed_per_delay` still averages in the skewed transient.
fn rebalance(cmds: usize) -> Section {
    let cmds = (cmds / 2).max(1_000);
    // A deep window (64) lets queueing delay reach the hot leader — and
    // therefore the latency percentiles — instead of hiding entirely in
    // the router's backlog. Offered load is half the balanced capacity
    // (G·batch/2 = 32 cmds/delay): a balanced placement absorbs it easily,
    // while a group fed a hot set's 80%+ share saturates and its queue —
    // and the service latency tail — grows until the hot range splits.
    let paced = |workload: &WorkloadSpec| ShardedScenario {
        workload: workload.clone(),
        arrival_rate_per_delay: 16.0,
        ..service(8, 8, 64, cmds)
    };
    // With hysteresis: a migrated range holds its new placement for at
    // least `min_hold_delays`, so an oscillating hot key cannot ping-pong
    // between groups (hence the `_hold` in the auto labels).
    let auto = Some(RebalanceConfig {
        check_every_delays: 40,
        cooldown_delays: 15,
        hot_group_permille: 250,
        hot_key_permille: 30,
        min_window_commits: 64,
        min_hold_delays: 120,
    });
    // Eight keys inside the even table's group-0 range [0, 512) that all
    // hash to one group: hot under both static placements.
    let hash_target = group_of_key(0, 8);
    let hot_keys: Vec<u64> = (0..512)
        .filter(|&k| group_of_key(k, 8) == hash_target)
        .take(8)
        .collect();
    assert_eq!(hot_keys.len(), 8, "not enough hash-colliding keys");
    let hotset = WorkloadSpec::HotSet {
        keys: 4096,
        hot_keys,
        hot_permille: 800,
    };

    let mut runs = Vec::new();
    for (name, workload) in [("zipf", &ZIPF), ("hotset", &hotset)] {
        let range_static = ShardedScenario {
            range_routing: true,
            ..paced(workload)
        };
        let range_auto = ShardedScenario {
            rebalance: auto,
            ..paced(workload)
        };
        for (placement, sc) in [
            ("hash_static", paced(workload)),
            ("range_static", range_static),
            ("range_auto_hold", range_auto),
        ] {
            let label = format!("rebalance_{name}_{placement}");
            runs.push(measure_sharded(label, &sc));
        }
    }
    let [_, zipf_static, zipf_auto, hot_hash, _, hot_auto] = &runs[..] else {
        unreachable!("two workloads x three placements");
    };
    assert!(
        zipf_auto.report.migrations_completed >= 1 && hot_auto.report.migrations_completed >= 1,
        "rebalance: the policy never triggered"
    );
    let zipf_recovery =
        zipf_auto.report.committed_per_delay / zipf_static.report.committed_per_delay;
    let hot_recovery = hot_auto.report.committed_per_delay / hot_hash.report.committed_per_delay;
    assert!(
        zipf_recovery > 1.10,
        "rebalance regressed: zipf auto only {zipf_recovery:.2}x of static range routing"
    );
    assert!(
        hot_recovery > 1.10,
        "rebalance regressed: hot-set auto only {hot_recovery:.2}x of static hashing"
    );
    let hot_tail_recovery =
        hot_auto.report.tail_committed_per_delay / hot_hash.report.tail_committed_per_delay;
    let hot_p99_recovery = hot_hash.report.service_p99_latency_ticks as f64
        / hot_auto.report.service_p99_latency_ticks.max(1) as f64;
    let hotset_summary = Row::new()
        .with("committed_per_delay", Fixed(hot_recovery, 3))
        .with("tail_committed_per_delay", Fixed(hot_tail_recovery, 3))
        .with("service_p99", Fixed(hot_p99_recovery, 3));
    let summary = Row::new()
        .with("total_commands", cmds)
        .with(
            "zipf_auto_vs_static_range_committed_per_delay",
            Fixed(zipf_recovery, 3),
        )
        .with("hotset_auto_vs_static_hash", hotset_summary);

    // Determinism with migrations in flight: the hot-set auto config on
    // the partitioned kernel, across worker threads.
    let hotset_auto = ShardedScenario {
        rebalance: auto,
        ..paced(&hotset)
    };
    runs.extend(thread_sweep("rebalance_auto_hold", 4, &hotset_auto));
    Section {
        name: "rebalance",
        summary,
        tables: vec![("configs", runs.iter().map(sharded_row).collect())],
    }
}

/// The G=4, batch-8 service of the Byzantine and observability sections,
/// with every group in `mode`.
fn g4_service(cmds: usize, window: usize, mode: GroupMode) -> ShardedScenario {
    ShardedScenario {
        group_modes: vec![mode; 4],
        ..service(4, 8, window, cmds)
    }
}

/// Byzantine-mode sharded service: the G=4 service with every group
/// replicating through signed non-equivocating broadcast instead of crash
/// PMP. Three configs against a same-sized crash baseline: failure-free,
/// f = 1 silent Byzantine replica per group (the n = 2f+1 bound), and an
/// equivocating leader suppressed by the audit + confirmation quorum and
/// replaced by scripted failover. The crash/Byzantine throughput gap is the
/// paper's broadcast price (one delivery is ~6 delays, footnote 2).
fn byzantine(cmds: usize) -> Section {
    let cmds = tenth(cmds);
    let clean = g4_service(cmds, 16, GroupMode::Byzantine);
    let silent = ShardedScenario {
        adversaries: (0..4).map(|g| (g, 2, AdversaryKind::Silent)).collect(),
        ..clean.clone()
    };
    let equivocating = ShardedScenario {
        adversaries: vec![(3, 0, AdversaryKind::Equivocator)],
        announce: vec![(3, 1, 80)],
        ..clean.clone()
    };
    let runs = [
        ("crash_baseline", &g4_service(cmds, 16, GroupMode::CrashPmp)),
        ("clean", &clean),
        ("f1_silent", &silent),
        ("equivocating_leader", &equivocating),
    ]
    .map(|(name, sc)| measure_sharded(format!("byzantine_g4_{name}"), sc));
    let [baseline, clean, _, equivocated] = &runs;
    assert!(
        equivocated.report.equivocations_blocked > 0 && equivocated.report.byz_withheld_reports > 0,
        "byzantine: the adversary config exercised no suppression path"
    );
    let price = baseline.report.committed_per_delay / clean.report.committed_per_delay;
    Section {
        name: "byzantine",
        summary: Row::new()
            .with("total_commands", cmds)
            .with("crash_over_byzantine_committed_per_delay", Fixed(price, 3)),
        tables: vec![("configs", runs.iter().map(sharded_row).collect())],
    }
}

/// The headline config of [`byz_pipeline`]: the G=4 all-Byzantine
/// service at router window 64, pipeline window 8, leader fast path.
fn byz_pipelined_service(cmds: usize) -> ShardedScenario {
    ShardedScenario {
        byz_pipeline_window: 8,
        byz_fast_path: true,
        ..g4_service(cmds, 64, GroupMode::Byzantine)
    }
}

/// Pipelined signed broadcast: the G=4 all-Byzantine service swept across
/// pipeline windows {1, 2, 4, 8}, conservative versus speculative
/// fast-path commit, against a crash baseline at the same router window.
/// The router window is 64 here (not `byzantine`'s 16): a 16-command
/// window holds only two batches of 8 in flight, which starves any
/// pipeline deeper than 2 — the sweep would plateau at the router, not the
/// broadcast engine. Window 1 conservative is the classic one-slot engine.
/// The gap is the crash baseline's committed commands per delay over a
/// config's. The baseline is a crash log that keeps one round in flight
/// (`smr/pmp.rs`), so against a window-8 Byzantine log the gap is not the
/// paper's broadcast price: it says the pipelined Byzantine service
/// commits at least as fast as the one-round crash log of the same shape,
/// and the headline config (window 8 + fast path) is held to ≤ 1.0.
fn byz_pipeline(cmds: usize) -> Section {
    let cmds = tenth(cmds);
    let crash = g4_service(cmds, 64, GroupMode::CrashPmp);
    let label = "byz_pipeline_crash_baseline".to_string();
    let mut runs = vec![measure_sharded(label, &crash)];
    for window in [1usize, 2, 4, 8] {
        for (fast, commit) in [(false, "conservative"), (true, "fast")] {
            let sc = ShardedScenario {
                byz_pipeline_window: window,
                byz_fast_path: fast,
                ..byz_pipelined_service(cmds)
            };
            let label = format!("byz_pipeline_w{window}_{commit}");
            runs.push(measure_sharded(label, &sc));
        }
    }
    let gap = |m: &MeasuredShard| runs[0].report.committed_per_delay / m.report.committed_per_delay;
    let (w1_conservative, headline) = (&runs[1], &runs[8]);
    assert!(
        gap(headline) <= 1.0,
        "byz_pipeline: the headline config commits slower than the one-round crash log ({:.2}x)",
        gap(headline)
    );
    assert!(
        headline.report.byz_fast_commits > 0 && headline.report.byz_fast_confirms > 0,
        "byz_pipeline: the fast path never engaged in the headline config"
    );
    let rows = (runs.iter()).map(|m| sharded_row(m).with("gap_vs_crash", Fixed(gap(m), 3)));
    Section {
        name: "byz_pipeline",
        summary: Row::new()
            .with("total_commands", cmds)
            .with("headline_w8_fast_gap_vs_crash", Fixed(gap(headline), 3))
            .with(
                "w1_conservative_gap_vs_crash",
                Fixed(gap(w1_conservative), 3),
            ),
        tables: vec![("configs", rows.collect())],
    }
}

/// Log-length independence of the Byzantine steady state: the repository
/// benchmark's `byz_pipeline` shape at three log lengths. Every range read
/// of the pipelined engine is bounded to the `k` window it can use, so
/// allocations and range rows *per command* must not grow with the log
/// (they grew ~linearly — 423 / 827 / 1356 allocations per command at
/// 1 500 / 3 000 / 5 000 — while audits fetched the sender's whole
/// history). Exact counts, at sizes independent of the snapshot's.
fn byz_log_scaling(_cmds: usize) -> Section {
    let runs = [1_500usize, 3_000, 6_000].map(|n| {
        let sc = ShardedScenario {
            group_modes: vec![GroupMode::Byzantine],
            byz_pipeline_window: 8,
            byz_fast_path: true,
            ..service(1, 8, 64, n)
        };
        measure_sharded(format!("byz_log_scaling_{n}"), &sc)
    });
    let allocs_per_cmd = |m: &MeasuredShard| m.allocs as f64 / m.report.committed as f64;
    let growth = allocs_per_cmd(&runs[2]) / allocs_per_cmd(&runs[0]);
    assert!(
        growth <= 1.25,
        "byz_log_scaling: allocations per command grow with the log \
         ({growth:.3}x from 1500 to 6000 commands)"
    );
    Section {
        name: "byz_log_scaling",
        summary: Row::new().with("allocs_per_cmd_6000_over_1500", Fixed(growth, 3)),
        tables: vec![("configs", runs.iter().map(sharded_row).collect())],
    }
}

/// Observability: the G=4 crash and Byzantine services, and the
/// pipelined Byzantine one (`byz_pipeline`'s headline config), with event
/// recording switched on and their command-lifecycle spans aggregated
/// from the recorded stream. The per-stage latency percentiles show where
/// the Byzantine broadcast price lands, stage by stage. Tracing is
/// read-only, so the traced run's report must equal the untraced report
/// bit-for-bit; that is asserted on every snapshot.
fn observability(cmds: usize) -> Section {
    let cmds = tenth(cmds);
    let crash = g4_service(cmds, 16, GroupMode::CrashPmp);
    let untraced = measure_sharded("observability_g4_crash_untraced".to_string(), &crash);
    let traced = ShardedScenario {
        record_events: true,
        ..crash
    };
    let mut crash_spans = Vec::new();
    let label = "observability_g4_crash_traced".to_string();
    let traced = measure(label, traced.threads, || {
        let (report, events) = run_sharded_with_events(&traced);
        crash_spans = aggregate_spans(&events, traced.groups, traced.total_cmds);
        report
    });
    let unperturbed = traced.report == untraced.report;
    assert!(unperturbed, "observability: tracing perturbed the run");
    let byz = ShardedScenario {
        record_events: true,
        ..g4_service(cmds, 16, GroupMode::Byzantine)
    };
    let (_, byz_events) = run_sharded_with_events(&byz);
    let byz_spans = aggregate_spans(&byz_events, byz.groups, byz.total_cmds);
    let pipelined = ShardedScenario {
        record_events: true,
        ..byz_pipelined_service(cmds)
    };
    let (_, pipelined_events) = run_sharded_with_events(&pipelined);
    let pipelined_spans = aggregate_spans(&pipelined_events, pipelined.groups, cmds);

    let span_rows = [
        ("crash", &crash_spans),
        ("byzantine", &byz_spans),
        ("byz_pipeline_w8_fast", &pipelined_spans),
    ]
    .into_iter()
    .flat_map(|(config, groups)| {
        groups.iter().map(move |g| {
            let row = Row::labeled(&format!("spans_{config}_g{}", g.group))
                .with("config", config)
                .with("group", g.group)
                .with("spans", g.spans);
            g.stages.iter().fold(row, |row, stage| {
                let (name, hist) = (stage.stage, &stage.hist);
                row.with(format!("{name}_p50_delays"), Fixed(delays(hist.p50()), 2))
                    .with(format!("{name}_p99_delays"), Fixed(delays(hist.p99()), 2))
            })
        })
    });
    let configs = [&untraced, &traced].map(sharded_row);
    Section {
        name: "observability",
        summary: Row::new().with("total_commands", cmds),
        tables: vec![
            ("configs", configs.to_vec()),
            ("span_stages", span_rows.collect()),
        ],
    }
}

/// RDMA cost model: the E10b replicated log and the sharded G=4 open-loop
/// service under `DelayModel::Rdma` — a verb-cost grid (baseline /
/// write-optimized / congested) crossed with doorbell batch sizes {1, 8}.
/// Under this model the SMR write path's batched rounds are genuinely
/// RDMA-shaped: a burst of k slot writes is one `WriteMany` posting charged
/// one doorbell + k per-WR increments + payload, so batching shows up as
/// amortized *delay*, not just fewer messages. The headline claim —
/// doorbell-batched writes beat per-slot writes on cmds/delay — is
/// asserted per preset, and a 1/2/4-thread partitioned sweep pins
/// bit-identity under the model (its `min_cost()` is the lookahead the
/// partitioned kernel synchronizes on, a true lower bound over every
/// verb/size/batch charge). The pipelined Byzantine service
/// (`byz_pipeline`'s headline config) runs under each preset too.
fn cost_model(cmds: usize) -> Section {
    let cmds = tenth(cmds);
    let rdma = |cost: &RdmaCost, sc: ShardedScenario| ShardedScenario {
        delay: DelayModel::Rdma(cost.clone()),
        ..sc
    };
    let presets = [
        ("baseline", RdmaCost::baseline()),
        ("write_opt", RdmaCost::write_optimized()),
        ("congested", RdmaCost::congested()),
    ];
    let (mut e10b, mut g4) = (Vec::new(), Vec::new());
    let mut batched_over_per_slot = Row::new();
    for (name, cost) in &presets {
        let [(e1, g1), (e8, g8)] = [1usize, 8].map(|batch| {
            // The worst preset charges ~3.5 delays per round trip; 8 per
            // round keeps every log run long enough to commit everything.
            let log = Scenario {
                delay: DelayModel::Rdma(cost.clone()),
                ..smr_log(batch, cmds, 8, 500)
            };
            let open_loop = rdma(cost, service(4, batch, 0, cmds));
            (
                measure_smr(format!("cost_{name}_b{batch}_e10b"), &log, cmds, batch),
                measure_sharded(format!("cost_{name}_b{batch}_g4"), &open_loop),
            )
        });
        let ratio = g8.report.committed_per_delay / g1.report.committed_per_delay;
        assert!(
            ratio > 1.0,
            "cost_model: {name} batched writes did not beat per-slot writes ({ratio:.2}x)"
        );
        assert!(
            e8.report.delays_per_entry < e1.report.delays_per_entry,
            "cost_model: {name} batching did not amortize delays/entry on E10b"
        );
        batched_over_per_slot = batched_over_per_slot.with(*name, Fixed(ratio, 3));
        e10b.extend([e1, e8]);
        g4.extend([g1, g8]);
    }
    // The crash groups' batch raised to 16 at the headline preset, in a
    // closed loop whose backlog depth varies: like every batch, each round
    // packs min(backlog, 16) slots.
    let adaptive = ShardedScenario {
        adaptive_batch: 16,
        ..rdma(&presets[0].1, service(4, 1, 16, cmds))
    };
    let label = "cost_baseline_adaptive16_g4".to_string();
    g4.push(measure_sharded(label, &adaptive));
    let batched_open_loop = rdma(&presets[0].1, service(4, 8, 0, cmds));
    g4.extend(thread_sweep("cost_baseline_b8", 4, &batched_open_loop));
    // The pipelined Byzantine service under each preset: a batch of
    // broadcasts, copies or receipts pays one doorbell plus a per-WR
    // increment and the bytes of every slot it carries.
    let byz = presets.each_ref().map(|(name, cost)| {
        let label = format!("cost_{name}_byz_w8_fast_g4");
        measure_sharded(label, &rdma(cost, byz_pipelined_service(cmds)))
    });
    Section {
        name: "cost_model",
        summary: Row::new().with("total_commands", cmds).with(
            "batched_b8_over_b1_committed_per_delay",
            batched_over_per_slot,
        ),
        tables: vec![
            ("e10b_configs", e10b.iter().map(smr_row).collect()),
            ("sharded_g4_configs", g4.iter().map(sharded_row).collect()),
            (
                "byz_pipeline_configs",
                byz.iter().map(sharded_row).collect(),
            ),
        ],
    }
}

/// Every BENCH section, in snapshot order. Each builds its scenarios,
/// measures them, asserts its headline and returns its rows; a new section
/// is one function and one entry here.
const SECTIONS: [fn(usize) -> Section; 10] = [
    e10_common_case,
    e10b_replicated_log,
    sharded_log,
    parallel_kernel,
    rebalance,
    byzantine,
    byz_pipeline,
    byz_log_scaling,
    observability,
    cost_model,
];

/// Compares `json` against the newest prior snapshot under `root` (the one
/// rule of the module docs); returns whether the gate failed.
fn gate(root: &str, json: &str) -> bool {
    if std::env::var("PERF_GATE").is_ok_and(|mode| mode == "off") {
        println!("perf gate: PERF_GATE=off, skipping");
        return false;
    }
    let Some((k, path)) = bench::gate::latest_prior_snapshot(std::path::Path::new(root), PR) else {
        println!("perf gate: no prior BENCH_PR*.json to compare against");
        return false;
    };
    let prior = std::fs::read_to_string(&path).expect("read prior snapshot");
    let header = |field| [&*prior, json].map(|s| bench::gate::header(s, field).unwrap_or("none"));
    let [was, now] = header("workload_commands");
    if was != now {
        println!(
            "perf gate: BENCH_PR{k}.json measured {was} commands, this run {now}; \
             snapshots are incomparable, skipping"
        );
        return false;
    }
    let [was, now] = header("rustc");
    if was != now {
        println!(
            "perf gate: BENCH_PR{k}.json was built by {was}, this run by {now}; \
             allocation counts are not compared"
        );
    }
    let moves = bench::gate::moves(&prior, json, moved_ok(k));
    for m in &moves {
        println!("perf gate: MOVED {m}");
    }
    match moves.len() {
        0 => println!("perf gate: every field of BENCH_PR{k}.json came back exact"),
        n => println!("perf gate: {n} move(s); name each made on purpose in MOVED_OK"),
    }
    !moves.is_empty()
}

fn main() {
    let cmds: usize = std::env::var("PERF_SNAPSHOT_CMDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let sections: Vec<Section> = (SECTIONS.iter())
        .map(|run| run(cmds))
        .inspect(|section| print!("{}", section.to_text()))
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = bench::snapshot_json(PR, cmds, RUSTC, cores, &sections);
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = format!("{root}/BENCH_PR{PR}.json");
    std::fs::write(&out, &json).expect("write bench snapshot");
    println!("\nwrote {out}");
    // The snapshot is on disk before the gate runs, so a failing run still
    // leaves BENCH_PR*.json behind for diagnosis.
    if gate(root, &json) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCH_PR<PR>.json` passes the gate against the
    /// snapshot before it: a run that reproduces it passes too, so every
    /// value this PR moves on purpose is named in [`MOVED_OK`].
    #[test]
    fn the_committed_snapshot_moves_only_what_moved_ok_names() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |path| std::fs::read_to_string(path).expect("read a committed snapshot");
        let (k, prior) = bench::gate::latest_prior_snapshot(&root, PR).expect("a prior snapshot");
        let current = read(root.join(format!("BENCH_PR{PR}.json")));
        assert_eq!(
            bench::gate::moves(&read(prior), &current, moved_ok(k)),
            Vec::<String>::new()
        );
    }
}
