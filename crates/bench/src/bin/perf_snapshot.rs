//! Headless perf-trajectory recorder: runs the E10 cost table, the E10b
//! replicated-log workload, the sharded multi-group log service at
//! G ∈ {1, 4, 16, 64}, the RDMA cost-model sweep (verb-cost grid ×
//! doorbell batch size), and a kernel queue-stress microbench, then writes
//! machine-readable `BENCH_PR<PR>.json` at the repo root — and gates against
//! the newest prior `BENCH_PR*.json` (same workload size): >10% worsening
//! of a deterministic virtual-time metric or >50% wall-clock entries/sec
//! drop exits non-zero; wall-clock drops of 10–50% warn in every mode
//! (cross-machine noise band). `PERF_GATE=strict` hard-fails the
//! machine-independent extras — retired labels, the thread-sweep speedup
//! expectation — `warn` never fails, `off` skips the gate. A label the
//! prior snapshot measured
//! but this run no longer emits is a *retired label*: the gate warns
//! loudly (coverage silently lost is how regressions hide) and under
//! `PERF_GATE=strict` fails unless the comma-separated allowlist
//! `PERF_GATE_RETIRED_OK` names it.
//!
//! Reported quantities:
//!
//! * **entries/sec** — committed log entries per wall-clock second on the
//!   E10b workload; the end-to-end replicated-log throughput.
//! * **events/sec** — kernel events dispatched per wall-clock second; the
//!   direct dispatch-overhead measure, reported at batch=1 and on the
//!   queue-stress gossip where tens of thousands of events are in flight.
//! * **allocs/event** — global allocations per dispatched event, the
//!   zero-alloc-dispatch proxy.
//! * **range rows/cmd** — rows returned by range reads per committed
//!   command (`byz_log_scaling`): exact, machine-independent, and flat in
//!   the log length as long as the Byzantine engine's reads stay
//!   window-bounded — gated like a virtual-time metric.
//!
//! (Earlier snapshots also measured the retired pre-overhaul `Legacy`
//! kernel profile; its labels simply stop appearing from PR 6 on, which
//! the gate treats as a re-baseline, not a regression.)
//!
//! ```sh
//! cargo run --release -p bench --bin perf_snapshot
//! PERF_SNAPSHOT_CMDS=200000 cargo run --release -p bench --bin perf_snapshot
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use agreement::harness::{
    run_disk_paxos, run_fast_robust, run_mp_paxos, run_protected, run_robust_backup, run_sharded,
    run_smr, RunReport, Scenario, ShardedRunReport, ShardedScenario, SmrRunReport,
};
use agreement::sharded::{group_of_key, GroupMode, RebalanceConfig, WorkloadSpec};
use simnet::{
    Actor, ActorId, Context, DelayModel, Duration, EventKind, RdmaCost, Simulation, Time,
    TICKS_PER_DELAY,
};

/// This snapshot's PR number (names the output file and anchors the gate).
const PR: u32 = 16;

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

/// One measured E10b run.
struct Measured {
    label: String,
    report: SmrRunReport,
    wall_secs: f64,
    allocs: u64,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.report.events_dispatched as f64 / self.wall_secs
    }
    fn entries_per_sec(&self) -> f64 {
        self.report.entries as f64 / self.wall_secs
    }
    fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.report.events_dispatched.max(1) as f64
    }
}

/// Measured runs repeat `trials()` times and keep the fastest: the gate
/// compares against a committed snapshot from a possibly quieter moment,
/// so each configuration's noise *floor* is the comparable quantity.
fn trials() -> usize {
    std::env::var("PERF_SNAPSHOT_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

fn measure_smr(label: &'static str, batch: usize, cmds: usize) -> Measured {
    let mut s = Scenario::common_case(3, 3, 5);
    s.batch = batch;
    // Budget: just enough virtual time to commit everything (2 delays per
    // batched write round) plus slack, so the run measures the commit
    // pipeline rather than a post-workload timer tail.
    s.max_delays = 2 * (cmds as u64).div_ceil(batch as u64) + 50;
    measure_smr_scenario(label.to_string(), &s, cmds)
}

/// Best-of-`trials()` measurement of one explicit E10b-style scenario
/// (the cost-model sweep tweaks the delay model, so it cannot use
/// [`measure_smr`]'s synchronous 2-delays-per-round budget).
fn measure_smr_scenario(label: String, s: &Scenario, cmds: usize) -> Measured {
    let mut best: Option<Measured> = None;
    for _ in 0..trials() {
        let before = ALLOCS.load(Ordering::Relaxed);
        let start = Instant::now();
        let report = run_smr(s, cmds);
        let wall_secs = start.elapsed().as_secs_f64();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            report.entries, cmds,
            "{label}: workload did not fully commit"
        );
        assert!(report.logs_agree, "{label}: replicas diverged");
        if best.as_ref().is_none_or(|b| wall_secs < b.wall_secs) {
            best = Some(Measured {
                label: label.clone(),
                report,
                wall_secs,
                allocs,
            });
        }
    }
    best.expect("at least one trial")
}

/// One measured sharded-service run.
struct MeasuredShard {
    label: String,
    groups: usize,
    threads: usize,
    report: ShardedRunReport,
    /// Fastest trial (the noise floor the cross-snapshot gate compares).
    wall_secs: f64,
    /// Median trial: what same-run ratios between configurations use.
    median_wall_secs: f64,
    allocs: u64,
}

impl MeasuredShard {
    fn entries_per_sec(&self) -> f64 {
        self.report.committed as f64 / self.wall_secs
    }
    fn events_per_sec(&self) -> f64 {
        self.report.events_dispatched as f64 / self.wall_secs
    }
}

/// Best-of-`trials()` measurement of one sharded scenario; asserts every
/// trial completed safely before reporting it.
fn measure_scenario(label: String, sc: &ShardedScenario) -> MeasuredShard {
    let mut best: Option<MeasuredShard> = None;
    let mut walls = Vec::new();
    for _ in 0..trials() {
        let before = ALLOCS.load(Ordering::Relaxed);
        let start = Instant::now();
        let report = run_sharded(sc);
        let wall_secs = start.elapsed().as_secs_f64();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(report.all_committed, "{label}: workload did not complete");
        assert!(report.all_logs_agree, "{label}: replica logs diverged");
        assert!(report.no_cross_group_leak, "{label}: partition violated");
        walls.push(wall_secs);
        if best.as_ref().is_none_or(|b| wall_secs < b.wall_secs) {
            best = Some(MeasuredShard {
                label: label.clone(),
                groups: sc.groups,
                threads: sc.threads,
                report,
                wall_secs,
                median_wall_secs: wall_secs,
                allocs,
            });
        }
    }
    let mut best = best.expect("at least one trial");
    walls.sort_by(f64::total_cmp);
    best.median_wall_secs = walls[walls.len() / 2];
    best
}

/// Runs the sharded service (n=3, m=3 per group) and asserts the run was
/// complete and safe before reporting it. `partitions > 1` selects the
/// partitioned parallel kernel with `threads` workers.
#[allow(clippy::too_many_arguments)]
fn measure_sharded(
    label: String,
    groups: usize,
    batch: usize,
    window: usize,
    workload: WorkloadSpec,
    total_cmds: usize,
    partitions: usize,
    threads: usize,
) -> MeasuredShard {
    let mut sc = ShardedScenario::common_case(groups, 3, 3, 5);
    sc.batch = batch;
    sc.window = window;
    sc.workload = workload;
    sc.total_cmds = total_cmds;
    sc.partitions = partitions;
    sc.threads = threads;
    // Generous budget: the run stops at completion, not at the cap.
    sc.max_delays = 8 * (total_cmds as u64) / (groups as u64 * batch as u64).max(1) + 5_000;
    measure_scenario(label, &sc)
}

fn sharded_json(m: &MeasuredShard) -> String {
    format!(
        "{{ \"label\": \"{}\", \"groups\": {}, \"entries\": {}, \"total_log_entries\": {}, \"wall_secs\": {:.6}, \"entries_per_sec\": {:.0}, \"committed_per_delay\": {:.3}, \"elapsed_delays\": {:.1}, \"events_dispatched\": {}, \"events_per_sec\": {:.0}, \"peak_queue_len\": {}, \"allocations\": {} }}",
        m.label,
        m.groups,
        m.report.committed,
        m.report.total_entries,
        m.wall_secs,
        m.entries_per_sec(),
        m.report.committed_per_delay,
        m.report.elapsed_delays,
        m.report.events_dispatched,
        m.events_per_sec(),
        m.report.peak_queue_len,
        m.allocs,
    )
}

/// Queue-stress gossip: `n` actors, deep in-flight queues (tens of
/// thousands of scheduled events), jittered delays. This is where the
/// event-queue structure itself dominates: the legacy heap pays
/// O(log queue) payload moves per operation, the wheel O(1).
#[derive(Clone, Debug)]
struct Pkt {
    _pad: [u64; 12],
    hops: u32,
}

struct GossipNode {
    peers: u32,
    fanout: u32,
}

impl Actor<Pkt> for GossipNode {
    fn on_event(&mut self, ctx: &mut Context<'_, Pkt>, ev: EventKind<Pkt>) {
        match ev {
            EventKind::Start => {
                for i in 0..self.fanout {
                    let to = ActorId((ctx.me().0 + i + 1) % self.peers);
                    ctx.send(
                        to,
                        Pkt {
                            _pad: [0; 12],
                            hops: 12,
                        },
                    );
                }
            }
            EventKind::Msg { msg, .. } if msg.hops > 0 => {
                // Cheap deterministic peer scatter.
                let mix = (ctx.me().0 as u64)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(msg.hops as u64 * 40_503)
                    .wrapping_add(ctx.now().0);
                let to = ActorId((mix % self.peers as u64) as u32);
                ctx.send(
                    to,
                    Pkt {
                        _pad: msg._pad,
                        hops: msg.hops - 1,
                    },
                );
            }
            _ => {}
        }
    }
}

fn stress_run(n: u32, fanout: u32) -> (f64, u64) {
    let mut sim: Simulation<Pkt> = Simulation::new(7);
    sim.set_default_delay(DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(8),
    });
    for _ in 0..n {
        sim.add(GossipNode { peers: n, fanout });
    }
    let start = Instant::now();
    sim.run_to_quiescence(Time::from_delays(1_000_000));
    (
        start.elapsed().as_secs_f64(),
        sim.metrics().events_dispatched,
    )
}

struct StressResult {
    n: u32,
    events: u64,
    events_per_sec: f64,
}

fn measure_stress(n: u32, fanout: u32) -> StressResult {
    let _ = stress_run(n, fanout); // warmup
    let (t, e) = stress_run(n, fanout);
    StressResult {
        n,
        events: e,
        events_per_sec: e as f64 / t,
    }
}

fn smr_json(m: &Measured) -> String {
    format!(
        "{{\n      \"label\": \"{}\",\n      \"entries\": {},\n      \"events_dispatched\": {},\n      \"wall_secs\": {:.6},\n      \"events_per_sec\": {:.0},\n      \"entries_per_sec\": {:.0},\n      \"allocations\": {},\n      \"allocs_per_event\": {:.3},\n      \"messages\": {},\n      \"mem_ops\": {},\n      \"elapsed_delays\": {:.1},\n      \"delays_per_entry\": {:.3}\n    }}",
        m.label,
        m.report.entries,
        m.report.events_dispatched,
        m.wall_secs,
        m.events_per_sec(),
        m.entries_per_sec(),
        m.allocs,
        m.allocs_per_event(),
        m.report.messages,
        m.report.mem_ops,
        m.report.elapsed_delays,
        m.report.delays_per_entry,
    )
}

/// One measured rebalance configuration, with the migration quantities
/// next to the usual service metrics (latencies reported in delays).
fn rebalance_json(m: &MeasuredShard) -> String {
    format!(
        "{{ \"label\": \"{}\", \"groups\": {}, \"threads\": {}, \"entries\": {}, \"wall_secs\": {:.6}, \"entries_per_sec\": {:.0}, \"committed_per_delay\": {:.3}, \"tail_committed_per_delay\": {:.3}, \"elapsed_delays\": {:.1}, \"service_p50_delays\": {:.1}, \"service_p99_delays\": {:.1}, \"migrations\": {}, \"rerouted_commands\": {}, \"routing_table_version\": {}, \"events_dispatched\": {}, \"allocations\": {} }}",
        m.label,
        m.groups,
        m.threads,
        m.report.committed,
        m.wall_secs,
        m.entries_per_sec(),
        m.report.committed_per_delay,
        m.report.tail_committed_per_delay,
        m.report.elapsed_delays,
        m.report.service_p50_latency_ticks as f64 / TICKS_PER_DELAY as f64,
        m.report.service_p99_latency_ticks as f64 / TICKS_PER_DELAY as f64,
        m.report.migrations_completed,
        m.report.rerouted_commands,
        m.report.routing_table_version,
        m.report.events_dispatched,
        m.allocs,
    )
}

fn protocol_json(name: &str, r: &RunReport) -> String {
    format!(
        "{{ \"protocol\": \"{}\", \"first_decision_delays\": {}, \"messages\": {}, \"mem_ops\": {}, \"all_decided\": {}, \"agreement\": {} }}",
        name,
        r.first_decision_delays.map_or("null".to_string(), |d| format!("{d:.1}")),
        r.messages,
        r.mem_ops,
        r.all_decided,
        r.agreement,
    )
}

fn main() {
    let cmds: usize = std::env::var("PERF_SNAPSHOT_CMDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    // PERF_GATE is parsed once; the thread-sweep expectation and the
    // end-of-run regression gate must agree on what the mode means.
    let gate_mode = std::env::var("PERF_GATE").unwrap_or_default();
    let gate_strict = gate_mode == "strict";

    println!("perf_snapshot: E10 common-case table (n=3, m=3, seed=1)");
    let s = Scenario::common_case(3, 3, 1);
    let table: Vec<(&str, RunReport)> = vec![
        ("mp_paxos", run_mp_paxos(&s)),
        ("disk_paxos", run_disk_paxos(&s)),
        ("protected_memory_paxos", run_protected(&s)),
        ("fast_robust", run_fast_robust(&s, 60).0),
        ("robust_backup", run_robust_backup(&s).0),
    ];
    for (name, r) in &table {
        println!(
            "  {name:<24} {:>6} delays {:>8} msgs {:>6} mem ops",
            r.first_decision_delays
                .map_or("-".into(), |d| format!("{d:.1}")),
            r.messages,
            r.mem_ops
        );
    }

    println!("\nperf_snapshot: E10b replicated log, {cmds} commands (n=3, m=3)");
    // Warm-up run so cold-start effects (page faults, lazy init) do not
    // land on the first measured configuration.
    let _ = measure_smr("warmup", 1, cmds.min(10_000));

    let optimized = measure_smr("optimized_kernel_batch1", 1, cmds);
    let batched8 = measure_smr("optimized_kernel_batch8", 8, cmds);
    let batched32 = measure_smr("optimized_kernel_batch32", 32, cmds);

    for m in [&optimized, &batched8, &batched32] {
        println!(
            "  {:<26} {:>11.0} events/s {:>11.0} entries/s {:>7.3} allocs/event ({:.3}s)",
            m.label,
            m.events_per_sec(),
            m.entries_per_sec(),
            m.allocs_per_event(),
            m.wall_secs
        );
    }

    let speedup_b8 = batched8.entries_per_sec() / optimized.entries_per_sec();
    let speedup_b32 = batched32.entries_per_sec() / optimized.entries_per_sec();
    println!("\n  batching speedup (entries/sec, batch=8 vs 1):  {speedup_b8:.2}x");
    println!("  batching speedup (entries/sec, batch=32 vs 1): {speedup_b32:.2}x");

    println!(
        "\nperf_snapshot: sharded log service, {cmds} total commands (3x3 per group, batch=8)"
    );
    let mut sharded: Vec<MeasuredShard> = Vec::new();
    for &groups in &[1usize, 4, 16, 64] {
        sharded.push(measure_sharded(
            format!("sharded_g{groups}_optimized"),
            groups,
            8,
            0, // open loop: the max-throughput configuration
            WorkloadSpec::uniform(),
            cmds,
            1,
            1,
        ));
    }
    // One closed-loop skewed config: the service-latency story.
    let zipf = measure_sharded(
        "sharded_g4_zipf_closed_loop".to_string(),
        4,
        8,
        16,
        WorkloadSpec::Zipf {
            keys: 4096,
            s: 0.99,
        },
        cmds,
        1,
        1,
    );
    for m in sharded.iter().chain([&zipf]) {
        println!(
            "  {:<28} {:>11.0} entries/s {:>8.2} cmds/delay {:>10.0} events/s  peak-q {:>6} ({:.3}s)",
            m.label,
            m.entries_per_sec(),
            m.report.committed_per_delay,
            m.events_per_sec(),
            m.report.peak_queue_len,
            m.wall_secs,
        );
    }
    let shard_of = |groups: usize| {
        sharded
            .iter()
            .find(|m| m.label == format!("sharded_g{groups}_optimized"))
            .expect("measured")
    };
    let g1_ratio = shard_of(1).entries_per_sec() / batched8.entries_per_sec();
    println!("\n  G=1 open loop vs E10b batch=8 (entries/sec):  {g1_ratio:.2}x");
    for &groups in &[1usize, 4, 16, 64] {
        let scaling =
            shard_of(groups).report.committed_per_delay / shard_of(1).report.committed_per_delay;
        println!("  G={groups:<2} virtual-time scaling {scaling:.2}x vs G=1");
    }

    // Partitioned-kernel thread sweep: the same open-loop service on the
    // partitioned parallel kernel (8 partitions, groups in contiguous
    // blocks, router on partition 0) with 1, 2, and 4 worker threads.
    // Virtual-time metrics must be bit-identical across the sweep (the
    // kernel's determinism contract); wall-clock entries/sec is where the
    // threads show up — on hardware that has cores to give. This container
    // may be single-core, so the ≥1.5x 4-thread expectation is enforced
    // only when the host actually exposes ≥4 CPUs (PERF_GATE=strict makes
    // a miss fatal there).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nperf_snapshot: partitioned kernel thread sweep, {cmds} commands \
         (8 partitions, host has {cores} cpus)"
    );
    // Each G is also run on the monolithic kernel (`mono_g*`): the sweep's
    // own t1 row already pays the partitioning tax (windows, outboxes,
    // per-partition locks), so only the monolithic baseline shows whether
    // threads buy wall-clock time over not partitioning at all.
    let mut sweep: Vec<MeasuredShard> = Vec::new();
    for &groups in &[8usize, 16] {
        sweep.push(measure_sharded(
            format!("mono_g{groups}"),
            groups,
            8,
            0,
            WorkloadSpec::uniform(),
            cmds,
            1,
            1,
        ));
        for &threads in &[1usize, 2, 4] {
            sweep.push(measure_sharded(
                format!("par_g{groups}_p8_t{threads}"),
                groups,
                8,
                0,
                WorkloadSpec::uniform(),
                cmds,
                8,
                threads,
            ));
        }
    }
    for m in &sweep {
        println!(
            "  {:<20} {:>11.0} entries/s {:>8.2} cmds/delay {:>10.0} events/s ({:.3}s)",
            m.label,
            m.entries_per_sec(),
            m.report.committed_per_delay,
            m.events_per_sec(),
            m.wall_secs,
        );
    }
    let sweep_labeled = |label: String| sweep.iter().find(|m| m.label == label).expect("measured");
    let sweep_of =
        |groups: usize, threads: usize| sweep_labeled(format!("par_g{groups}_p8_t{threads}"));
    // Same-run ratio of median trials: > 1 means the partitioned kernel at
    // `threads` finished sooner than the monolithic one.
    let vs_mono = |groups: usize, threads: usize| {
        sweep_labeled(format!("mono_g{groups}")).median_wall_secs
            / sweep_of(groups, threads).median_wall_secs
    };
    let mut sweep_gate_failed = false;
    for &groups in &[8usize, 16] {
        let t1 = sweep_of(groups, 1);
        // Determinism across the sweep: everything virtual-time must match
        // the single-thread run exactly.
        for &threads in &[2usize, 4] {
            let tn = sweep_of(groups, threads);
            assert_eq!(
                t1.report.committed, tn.report.committed,
                "G={groups}: thread count changed committed"
            );
            assert_eq!(
                t1.report.elapsed_delays, tn.report.elapsed_delays,
                "G={groups}: thread count changed virtual time"
            );
            assert_eq!(
                t1.report.events_dispatched, tn.report.events_dispatched,
                "G={groups}: thread count changed the event schedule"
            );
            assert_eq!(
                t1.report.partition_peak_queue_lens, tn.report.partition_peak_queue_lens,
                "G={groups}: thread count changed queue dynamics"
            );
        }
        let s2 = sweep_of(groups, 2).entries_per_sec() / t1.entries_per_sec();
        let s4 = sweep_of(groups, 4).entries_per_sec() / t1.entries_per_sec();
        println!(
            "  G={groups:<2} virtual-time metrics thread-invariant; wall speedup \
             2t {s2:.2}x, 4t {s4:.2}x vs t1-partitioned; \
             t1 {:.2}x, 2t {:.2}x, 4t {:.2}x vs monolithic (median of {} trials)",
            vs_mono(groups, 1),
            vs_mono(groups, 2),
            vs_mono(groups, 4),
            trials(),
        );
        if s4 < 1.5 {
            if cores >= 4 {
                println!(
                    "  {}: G={groups} 4-thread speedup {s4:.2}x below the 1.5x \
                     target on a {cores}-cpu host",
                    if gate_strict { "REGRESSION" } else { "warning" },
                );
                sweep_gate_failed |= gate_strict;
            } else {
                println!(
                    "  note: G={groups} 4-thread speedup {s4:.2}x — host exposes \
                     only {cores} cpu(s), wall-clock scaling is not measurable here"
                );
            }
        }
    }
    // A strict-mode sweep miss is reported now but only fails the process
    // after the snapshot is written and the main regression gate has run,
    // so a failing run still leaves BENCH_PR*.json behind for diagnosis.

    // Rebalancing under skew. Two adversarial key streams, each measured
    // under the three placements (static hash, static range table, range
    // table + auto-rebalancer):
    //
    // * **zipf(0.99)** — the head ranks are *adjacent small keys*, so the
    //   even version-0 range table pins the whole head onto group 0
    //   (static hash dodges this one by scattering adjacent keys).
    // * **hot set** — 80% of traffic on 8 hot keys picked to collide on
    //   ONE group under the hash AND to sit inside one group's range: no
    //   static placement survives it; only per-key migration can isolate
    //   each hot key onto its own group ("the hot range splits").
    //
    // `tail_committed_per_delay` (the run's last virtual-time quartile)
    // is the post-convergence rate — recovery after the splits — while
    // committed_per_delay still averages in the skewed transient.
    let rebal_cmds = (cmds / 2).max(1_000);
    println!(
        "\nperf_snapshot: shard rebalancing, {rebal_cmds} commands \
         (G=8, batch=8, window=64)"
    );
    let rebal_scenario = |workload: WorkloadSpec| -> ShardedScenario {
        let mut sc = ShardedScenario::common_case(8, 3, 3, 5);
        sc.batch = 8;
        // A deep window lets queueing delay reach the hot leader (and
        // therefore the latency percentiles) instead of hiding entirely
        // in the router's backlog.
        sc.window = 64;
        sc.workload = workload;
        sc.total_cmds = rebal_cmds;
        // Offered load at half the balanced capacity (G·batch/2 = 32
        // cmds/delay): a balanced placement absorbs it easily, while a
        // group fed a hot set's 80%+ share saturates and its queue — and
        // therefore the service latency tail — grows until the hot range
        // splits.
        sc.arrival_rate_per_delay = 16.0;
        // The skewed static runs serialize most commands through one
        // group; budget for that worst case.
        sc.max_delays = rebal_cmds as u64 + 10_000;
        sc
    };
    // Hysteresis on (PR 6): a migrated range holds its new placement for
    // at least `min_hold_delays`, so an oscillating hot key cannot
    // ping-pong between groups. The auto labels carry a `_hold` suffix so
    // the gate re-baselines them instead of comparing against the
    // hysteresis-free PR 5 numbers.
    let auto_cfg = RebalanceConfig {
        check_every_delays: 40,
        cooldown_delays: 15,
        hot_group_permille: 250,
        hot_key_permille: 30,
        min_window_commits: 64,
        min_hold_delays: 120,
    };
    let zipf_wl = WorkloadSpec::Zipf {
        keys: 4096,
        s: 0.99,
    };
    // Eight keys inside the even table's group-0 range [0, 512) that all
    // hash to one group: hot under both static placements.
    let hash_target = group_of_key(0, 8);
    let hot_keys: Vec<u64> = (0..512)
        .filter(|&k| group_of_key(k, 8) == hash_target)
        .take(8)
        .collect();
    assert_eq!(hot_keys.len(), 8, "not enough hash-colliding keys");
    let hotset_wl = WorkloadSpec::HotSet {
        keys: 4096,
        hot_keys,
        hot_permille: 800,
    };
    let mut rebal: Vec<MeasuredShard> = Vec::new();
    for (wl_name, wl) in [("zipf", &zipf_wl), ("hotset", &hotset_wl)] {
        let sc = rebal_scenario(wl.clone());
        rebal.push(measure_scenario(
            format!("rebalance_{wl_name}_hash_static"),
            &sc,
        ));
        let mut sc = rebal_scenario(wl.clone());
        sc.range_routing = true;
        rebal.push(measure_scenario(
            format!("rebalance_{wl_name}_range_static"),
            &sc,
        ));
        let mut sc = rebal_scenario(wl.clone());
        sc.rebalance = Some(auto_cfg);
        rebal.push(measure_scenario(
            format!("rebalance_{wl_name}_range_auto_hold"),
            &sc,
        ));
    }
    // Determinism with migrations in flight: the hot-set auto config on
    // the partitioned kernel must be bit-identical across worker threads.
    let mut rebal_sweep: Vec<MeasuredShard> = Vec::new();
    for &threads in &[1usize, 2, 4] {
        let mut sc = rebal_scenario(hotset_wl.clone());
        sc.rebalance = Some(auto_cfg);
        sc.partitions = 4;
        sc.threads = threads;
        rebal_sweep.push(measure_scenario(
            format!("rebalance_auto_hold_p4_t{threads}"),
            &sc,
        ));
    }
    for m in rebal.iter().chain(&rebal_sweep) {
        println!(
            "  {:<30} {:>7.2} cmds/delay {:>7.2} tail {:>7.1} p99(d) {:>6.0} delays {:>3} migrations {:>5} rerouted ({:.3}s)",
            m.label,
            m.report.committed_per_delay,
            m.report.tail_committed_per_delay,
            m.report.service_p99_latency_ticks as f64 / TICKS_PER_DELAY as f64,
            m.report.elapsed_delays,
            m.report.migrations_completed,
            m.report.rerouted_commands,
            m.wall_secs,
        );
    }
    for (a, b) in [
        (&rebal_sweep[0], &rebal_sweep[1]),
        (&rebal_sweep[0], &rebal_sweep[2]),
    ] {
        assert_eq!(
            (
                a.report.committed,
                a.report.elapsed_delays,
                a.report.events_dispatched
            ),
            (
                b.report.committed,
                b.report.elapsed_delays,
                b.report.events_dispatched
            ),
            "rebalance: thread count changed the migrating run"
        );
        assert_eq!(
            (
                a.report.migrations_completed,
                a.report.routing_table_version
            ),
            (
                b.report.migrations_completed,
                b.report.routing_table_version
            ),
            "rebalance: thread count changed the migration history"
        );
    }
    let rebal_of = |label: &str| {
        rebal
            .iter()
            .find(|m| m.label == label)
            .expect("measured rebalance config")
    };
    let zipf_auto = rebal_of("rebalance_zipf_range_auto_hold");
    let zipf_static = rebal_of("rebalance_zipf_range_static");
    let hot_auto = rebal_of("rebalance_hotset_range_auto_hold");
    let hot_hash = rebal_of("rebalance_hotset_hash_static");
    assert!(
        zipf_auto.report.migrations_completed >= 1 && hot_auto.report.migrations_completed >= 1,
        "rebalance: the policy never triggered"
    );
    let zipf_recovery =
        zipf_auto.report.committed_per_delay / zipf_static.report.committed_per_delay;
    let hot_recovery = hot_auto.report.committed_per_delay / hot_hash.report.committed_per_delay;
    let hot_tail_recovery =
        hot_auto.report.tail_committed_per_delay / hot_hash.report.tail_committed_per_delay;
    let hot_p99_recovery = hot_hash.report.service_p99_latency_ticks as f64
        / hot_auto.report.service_p99_latency_ticks.max(1) as f64;
    println!(
        "\n  zipf: auto vs static range table {zipf_recovery:.2}x cmds/delay \
         ({} migrations)",
        zipf_auto.report.migrations_completed
    );
    println!(
        "  hot set: auto-rebalance vs static hash {hot_recovery:.2}x cmds/delay, \
         {hot_tail_recovery:.2}x tail, {hot_p99_recovery:.2}x p99 \
         ({} migrations, thread-sweep bit-identical)",
        hot_auto.report.migrations_completed
    );
    assert!(
        zipf_recovery > 1.10,
        "rebalance regressed: zipf auto only {zipf_recovery:.2}x of static range routing"
    );
    assert!(
        hot_recovery > 1.10,
        "rebalance regressed: hot-set auto only {hot_recovery:.2}x of static hashing"
    );

    // Byzantine-mode sharded service (new in PR 5): the same G=4 service
    // with every group replicating through signed non-equivocating
    // broadcast instead of crash PMP. Three configs against a same-sized
    // crash baseline: failure-free, f = 1 silent Byzantine replica per
    // group (the n = 2f+1 bound), and an equivocating leader suppressed
    // by the audit + confirmation quorum and replaced by scripted
    // failover. The crash/Byzantine throughput gap is the paper's
    // broadcast price (one delivery is ~6 delays, footnote 2) — recorded
    // here so the trajectory shows it honestly.
    let byz_cmds = (cmds / 10).max(1_000);
    println!(
        "\nperf_snapshot: Byzantine-mode sharded service, {byz_cmds} commands \
         (G=4, batch=8, window=16)"
    );
    let byz_scenario = |modes: Vec<GroupMode>| -> ShardedScenario {
        let mut sc = ShardedScenario::common_case(4, 3, 3, 5);
        sc.batch = 8;
        sc.window = 16;
        sc.total_cmds = byz_cmds;
        sc.group_modes = modes;
        // Byzantine commits cost ~10 delays per batch pipeline stage;
        // budget generously so the run ends at completion, not the cap.
        sc.max_delays = 60 * (byz_cmds as u64) / 32 + 10_000;
        sc
    };
    let all_byz = vec![GroupMode::Byzantine; 4];
    let byz_baseline = measure_scenario(
        "byzantine_g4_crash_baseline".to_string(),
        &byz_scenario(Vec::new()),
    );
    let byz_clean = measure_scenario(
        "byzantine_g4_clean".to_string(),
        &byz_scenario(all_byz.clone()),
    );
    let byz_silent = {
        let mut sc = byz_scenario(all_byz.clone());
        sc.byz_silent = (0..4).map(|g| (g, 2)).collect();
        measure_scenario("byzantine_g4_f1_silent".to_string(), &sc)
    };
    let byz_equiv = {
        let mut sc = byz_scenario(all_byz);
        sc.byz_equivocators = vec![(3, 0)];
        sc.announce = vec![(3, 1, 80)];
        measure_scenario("byzantine_g4_equivocating_leader".to_string(), &sc)
    };
    let byz_all = [&byz_baseline, &byz_clean, &byz_silent, &byz_equiv];
    for m in byz_all {
        println!(
            "  {:<32} {:>8.2} cmds/delay {:>7.1} p99(d) {:>7.0} delays {:>4} equiv-blocked {:>5} unconfirmed ({:.3}s)",
            m.label,
            m.report.committed_per_delay,
            m.report.service_p99_latency_ticks as f64 / TICKS_PER_DELAY as f64,
            m.report.elapsed_delays,
            m.report.equivocations_blocked,
            m.report.byz_unconfirmed_claims,
            m.wall_secs,
        );
    }
    let byz_price = byz_baseline.report.committed_per_delay / byz_clean.report.committed_per_delay;
    println!(
        "\n  crash PMP vs Byzantine broadcast (virtual-time throughput): {byz_price:.2}x \
         — the paper's non-equivocation price"
    );
    assert!(
        byz_equiv.report.equivocations_blocked > 0 && byz_equiv.report.byz_withheld_reports > 0,
        "byzantine: the adversary config exercised no suppression path"
    );

    // Pipelined signed broadcast (new in PR 8): the same G=4 all-Byzantine
    // service swept across pipeline windows {1, 2, 4, 8}, conservative
    // versus speculative fast-path commit, against a crash baseline at the
    // same router window. The router window is 64 here (not the section
    // above's 16): a 16-command window holds only two batches of 8 in
    // flight, which starves any pipeline deeper than 2 — the sweep would
    // plateau at the router, not the broadcast engine. Window 1
    // conservative is the classic one-slot engine (bit-identical to PR 7);
    // the headline config (window 8 + fast path) is gated at ≤3x the
    // crash baseline — the ISSUE 8 target for closing the Byzantine
    // throughput gap.
    println!(
        "\nperf_snapshot: pipelined Byzantine broadcast, {byz_cmds} commands \
         (G=4, batch=8, window=64)"
    );
    let pipe_scenario = |pipeline: usize, fast: bool| -> ShardedScenario {
        let mut sc = byz_scenario(vec![GroupMode::Byzantine; 4]);
        sc.window = 64;
        sc.byz_pipeline_window = pipeline;
        sc.byz_fast_path = fast;
        sc
    };
    let pipe_crash = {
        let mut sc = byz_scenario(Vec::new());
        sc.window = 64;
        measure_scenario("byz_pipeline_crash_baseline".to_string(), &sc)
    };
    let mut pipe: Vec<MeasuredShard> = Vec::new();
    for &w in &[1usize, 2, 4, 8] {
        for &fast in &[false, true] {
            let label = format!(
                "byz_pipeline_w{w}_{}",
                if fast { "fast" } else { "conservative" }
            );
            pipe.push(measure_scenario(label, &pipe_scenario(w, fast)));
        }
    }
    let pipe_gap =
        |m: &MeasuredShard| pipe_crash.report.committed_per_delay / m.report.committed_per_delay;
    println!(
        "  {:<28} {:>8.2} cmds/delay          (crash baseline)",
        pipe_crash.label, pipe_crash.report.committed_per_delay,
    );
    for m in &pipe {
        println!(
            "  {:<28} {:>8.2} cmds/delay {:>6.2}x gap {:>6} fast-commits {:>6} fast-confirms ({:.3}s)",
            m.label,
            m.report.committed_per_delay,
            pipe_gap(m),
            m.report.byz_fast_commits,
            m.report.byz_fast_confirms,
            m.wall_secs,
        );
    }
    let headline = pipe.last().expect("w8 fast measured");
    let headline_gap = pipe_gap(headline);
    println!(
        "\n  headline (window 8 + fast path): {headline_gap:.2}x of crash \
         (target ≤3x; window-1 conservative was {:.2}x)",
        pipe_gap(&pipe[0]),
    );
    assert!(
        headline_gap <= 3.0,
        "byz_pipeline: headline gap {headline_gap:.2}x exceeds the 3x target"
    );
    assert!(
        headline.report.byz_fast_commits > 0 && headline.report.byz_fast_confirms > 0,
        "byz_pipeline: the fast path never engaged in the headline config"
    );

    // Log-length independence of the Byzantine steady state (new in
    // PR 15): the repository benchmark's `byz_pipeline` shape at three log
    // lengths. Every range read of the pipelined engine is bounded to the
    // `k` window it can use, so allocations and range rows *per command*
    // must not grow with the log (they grew ~linearly — 423 / 827 / 1356
    // allocations per command at 1 500 / 3 000 / 5 000 — while audits
    // fetched the sender's whole history). Exact counts, no wall clock.
    println!(
        "\nperf_snapshot: Byzantine log scaling (G=1, batch=8, window=64, pipeline 8 + fast path)"
    );
    let log_scaling: Vec<MeasuredShard> = [1_500usize, 3_000, 6_000]
        .iter()
        .map(|&n| {
            let mut sc = ShardedScenario::common_case(1, 3, 3, 5);
            sc.total_cmds = n;
            sc.batch = 8;
            sc.window = 64;
            sc.group_modes = vec![GroupMode::Byzantine];
            sc.byz_pipeline_window = 8;
            sc.byz_fast_path = true;
            sc.max_delays = 40 * n as u64 + 10_000;
            measure_scenario(format!("byz_log_scaling_{n}"), &sc)
        })
        .collect();
    let per_cmd = |count: u64, m: &MeasuredShard| count as f64 / m.report.committed as f64;
    for m in &log_scaling {
        println!(
            "  {:<22} {:>8.2} allocs/cmd {:>7.3} range rows/cmd {:>7.3} cmds/delay",
            m.label,
            per_cmd(m.allocs, m),
            per_cmd(m.report.mem_range_rows, m),
            m.report.committed_per_delay,
        );
    }
    let scaling_ratio = per_cmd(log_scaling[2].allocs, &log_scaling[2])
        / per_cmd(log_scaling[0].allocs, &log_scaling[0]);
    println!("  allocs/cmd at 6000 over 1500 commands: {scaling_ratio:.3}x (target ≤1.25x)");
    assert!(
        scaling_ratio <= 1.25,
        "byz_log_scaling: allocations per command grow with the log ({scaling_ratio:.3}x from 1500 to 6000 commands)"
    );

    // Observability (new in PR 7): the same G=4 crash and Byzantine
    // services with command-lifecycle span recording switched on. Two
    // quantities: the per-stage latency histograms (where the Byzantine
    // broadcast price lands, stage by stage), and the wall-clock price of
    // tracing itself — the fully traced run (events + spans recorded)
    // re-measured against the untraced one. Tracing is read-only, so the
    // traced report stripped of its span stats must equal the untraced
    // report bit-for-bit; that is asserted here on every snapshot. The
    // *disabled*-instrumentation cost (span marks compiled in but guarded
    // off) is what every other configuration in this snapshot now pays,
    // so it is gated against BENCH_PR6 by the ordinary per-label gate.
    println!("\nperf_snapshot: observability, {byz_cmds} commands (G=4, batch=8, spans on)");
    let obs_crash_sc = byz_scenario(Vec::new());
    let obs_untraced =
        measure_scenario("observability_g4_crash_untraced".to_string(), &obs_crash_sc);
    let obs_traced = {
        let mut sc = obs_crash_sc.clone();
        sc.record_events = true;
        sc.record_spans = true;
        measure_scenario("observability_g4_crash_traced".to_string(), &sc)
    };
    {
        let mut stripped = obs_traced.report.clone();
        stripped.span_stats = Vec::new();
        assert_eq!(
            stripped, obs_untraced.report,
            "observability: tracing perturbed the run"
        );
    }
    let trace_overhead = obs_untraced.entries_per_sec() / obs_traced.entries_per_sec();
    let crash_spans = obs_traced.report.span_stats.clone();
    let byz_spans = {
        let mut sc = byz_scenario(vec![GroupMode::Byzantine; 4]);
        sc.record_spans = true;
        run_sharded(&sc).span_stats
    };
    println!(
        "  traced vs untraced (crash G=4): {:.0} vs {:.0} entries/s \
         ({trace_overhead:.2}x full-tracing cost; virtual-time bit-identical)",
        obs_traced.entries_per_sec(),
        obs_untraced.entries_per_sec(),
    );
    println!("  config     stage    group-0 p50(d)  p99(d)   (all groups in the JSON)");
    for (cfg, stats) in [("crash", &crash_spans), ("byzantine", &byz_spans)] {
        let g0 = stats.first().expect("G=4 span stats");
        for stage in &g0.stages {
            println!(
                "  {cfg:<9}  {:<8} {:>14.2}  {:>6.2}",
                stage.stage,
                stage.hist.p50() as f64 / TICKS_PER_DELAY as f64,
                stage.hist.p99() as f64 / TICKS_PER_DELAY as f64,
            );
        }
    }

    // RDMA cost model (new in PR 10): the E10b replicated log and the
    // sharded G=4 open-loop service re-measured under DelayModel::Rdma —
    // a verb-cost grid (baseline / write-optimized / congested) crossed
    // with doorbell batch sizes {1, 8}. Under this model the SMR write
    // path's batched rounds are genuinely RDMA-shaped: a burst of k slot
    // writes is one WriteMany posting charged one doorbell + k per-WR
    // increments + payload, so batching shows up as amortized *delay*,
    // not just fewer messages. The headline claim — doorbell-batched
    // writes beat per-slot writes on cmds/delay — is asserted per preset,
    // and a 1/2/4-thread partitioned sweep pins bit-identity under the
    // new model (its min_cost() is the lookahead the partitioned kernel
    // synchronizes on).
    let cost_cmds = (cmds / 10).max(1_000);
    println!(
        "\nperf_snapshot: RDMA cost model sweep, {cost_cmds} commands \
         (verb-cost grid x doorbell batch, E10b + sharded G=4)"
    );
    let cost_presets: [(&str, RdmaCost); 3] = [
        ("baseline", RdmaCost::baseline()),
        ("write_opt", RdmaCost::write_optimized()),
        ("congested", RdmaCost::congested()),
    ];
    let cost_batches = [1usize, 8];
    let mut cost_smr: Vec<Measured> = Vec::new();
    let mut cost_shard: Vec<MeasuredShard> = Vec::new();
    for (name, preset) in &cost_presets {
        for &batch in &cost_batches {
            let mut s = Scenario::common_case(3, 3, 5);
            s.delay = DelayModel::Rdma(preset.clone());
            s.batch = batch;
            // Worst preset charges ~3.5 delays per round trip; budget on
            // that ceiling so every run ends at completion, not the cap.
            s.max_delays = 8 * (cost_cmds as u64).div_ceil(batch as u64) + 500;
            cost_smr.push(measure_smr_scenario(
                format!("cost_{name}_b{batch}_e10b"),
                &s,
                cost_cmds,
            ));
            let mut sc = ShardedScenario::common_case(4, 3, 3, 5);
            sc.delay = DelayModel::Rdma(preset.clone());
            sc.batch = batch;
            sc.window = 0; // open loop: the max-throughput configuration
            sc.total_cmds = cost_cmds;
            sc.max_delays = 16 * (cost_cmds as u64) / (4 * batch as u64) + 5_000;
            cost_shard.push(measure_scenario(format!("cost_{name}_b{batch}_g4"), &sc));
        }
    }
    // Adaptive doorbell batching at the headline preset: a closed loop
    // whose backlog depth varies, so rounds pack min(backlog, cap) slots.
    let cost_adaptive = {
        let mut sc = ShardedScenario::common_case(4, 3, 3, 5);
        sc.delay = DelayModel::Rdma(RdmaCost::baseline());
        sc.batch = 1;
        sc.adaptive_batch = 16;
        sc.window = 16;
        sc.total_cmds = cost_cmds;
        sc.max_delays = 16 * (cost_cmds as u64) + 5_000;
        measure_scenario("cost_baseline_adaptive16_g4".to_string(), &sc)
    };
    for m in &cost_smr {
        println!(
            "  {:<26} {:>8.3} delays/entry {:>11.0} entries/s ({:.3}s)",
            m.label,
            m.report.delays_per_entry,
            m.entries_per_sec(),
            m.wall_secs
        );
    }
    for m in cost_shard.iter().chain([&cost_adaptive]) {
        println!(
            "  {:<26} {:>8.2} cmds/delay {:>11.0} entries/s ({:.3}s)",
            m.label,
            m.report.committed_per_delay,
            m.entries_per_sec(),
            m.wall_secs
        );
    }
    let cost_g4_of = |label: String| {
        cost_shard
            .iter()
            .find(|m| m.label == label)
            .expect("measured cost config")
    };
    let cost_e10b_of = |label: String| {
        cost_smr
            .iter()
            .find(|m| m.label == label)
            .expect("measured cost config")
    };
    let mut cost_ratios: Vec<String> = Vec::new();
    for (name, _) in &cost_presets {
        let b1 = cost_g4_of(format!("cost_{name}_b1_g4"));
        let b8 = cost_g4_of(format!("cost_{name}_b8_g4"));
        let ratio = b8.report.committed_per_delay / b1.report.committed_per_delay;
        println!("  {name}: doorbell-batched (b8) vs per-slot (b1) on G=4: {ratio:.2}x cmds/delay");
        assert!(
            ratio > 1.0,
            "cost_model: {name} batched writes did not beat per-slot writes ({ratio:.2}x)"
        );
        let e1 = cost_e10b_of(format!("cost_{name}_b1_e10b"));
        let e8 = cost_e10b_of(format!("cost_{name}_b8_e10b"));
        assert!(
            e8.report.delays_per_entry < e1.report.delays_per_entry,
            "cost_model: {name} batching did not amortize delays/entry on E10b"
        );
        cost_ratios.push(format!("\"{name}\": {ratio:.3}"));
    }
    // Partitioned-kernel bit-identity under the RDMA cost model: the
    // lookahead is RdmaCost::min_cost(), a true lower bound over every
    // verb/size/batch charge — so 1, 2, and 4 worker threads must
    // produce the identical run.
    let mut cost_sweep: Vec<MeasuredShard> = Vec::new();
    for &threads in &[1usize, 2, 4] {
        let mut sc = ShardedScenario::common_case(4, 3, 3, 5);
        sc.delay = DelayModel::Rdma(RdmaCost::baseline());
        sc.batch = 8;
        sc.window = 0;
        sc.total_cmds = cost_cmds;
        sc.partitions = 4;
        sc.threads = threads;
        sc.max_delays = 16 * (cost_cmds as u64) / 32 + 5_000;
        cost_sweep.push(measure_scenario(
            format!("cost_baseline_b8_p4_t{threads}"),
            &sc,
        ));
    }
    for tn in &cost_sweep[1..] {
        let t1 = &cost_sweep[0];
        assert_eq!(
            (
                t1.report.committed,
                t1.report.elapsed_delays,
                t1.report.events_dispatched,
                &t1.report.partition_peak_queue_lens,
            ),
            (
                tn.report.committed,
                tn.report.elapsed_delays,
                tn.report.events_dispatched,
                &tn.report.partition_peak_queue_lens,
            ),
            "cost_model: thread count changed the run under DelayModel::Rdma"
        );
    }
    println!(
        "  partitioned sweep (p4, t1/2/4) bit-identical under RDMA model; \
         adaptive cap 16 vs fixed b8 closed-loop: {:.2}x cmds/delay",
        cost_adaptive.report.committed_per_delay
            / cost_g4_of("cost_baseline_b8_g4".to_string())
                .report
                .committed_per_delay
    );

    println!("\nperf_snapshot: kernel queue stress (gossip, deep in-flight queues)");
    let stress: Vec<StressResult> = vec![measure_stress(5_000, 40), measure_stress(20_000, 60)];
    for r in &stress {
        println!(
            "  n={:<6} events={:<9} {:>9.0} ev/s",
            r.n, r.events, r.events_per_sec,
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench-snapshot-v1\",\n");
    let _ = writeln!(json, "  \"pr\": {PR},");
    json.push_str(&format!("  \"workload_commands\": {cmds},\n"));
    json.push_str("  \"e10_common_case\": [\n");
    let rows: Vec<String> = table
        .iter()
        .map(|(name, r)| format!("    {}", protocol_json(name, r)))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str("  \"e10b_replicated_log\": {\n");
    let _ = writeln!(
        json,
        "    \"optimized_kernel_batch1\": {},",
        smr_json(&optimized)
    );
    let _ = writeln!(
        json,
        "    \"optimized_kernel_batch8\": {},",
        smr_json(&batched8)
    );
    let _ = writeln!(
        json,
        "    \"optimized_kernel_batch32\": {},",
        smr_json(&batched32)
    );
    let _ = writeln!(
        json,
        "    \"batching_speedup_entries_per_sec_b8\": {speedup_b8:.3},"
    );
    let _ = writeln!(
        json,
        "    \"batching_speedup_entries_per_sec_b32\": {speedup_b32:.3}"
    );
    json.push_str("  },\n");
    json.push_str("  \"sharded_log\": {\n");
    let _ = writeln!(json, "    \"total_commands\": {cmds},");
    json.push_str("    \"configs\": [\n");
    let rows: Vec<String> = sharded
        .iter()
        .chain([&zipf])
        .map(|m| format!("      {}", sharded_json(m)))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ],\n");
    let _ = writeln!(
        json,
        "    \"g1_open_loop_vs_e10b_batch8_ratio\": {g1_ratio:.3},"
    );
    let scaling: Vec<String> = [1usize, 4, 16, 64]
        .iter()
        .map(|&g| {
            format!(
                "\"g{g}\": {:.3}",
                shard_of(g).report.committed_per_delay / shard_of(1).report.committed_per_delay
            )
        })
        .collect();
    let _ = writeln!(
        json,
        "    \"scaling_committed_per_delay_vs_g1\": {{ {} }}",
        scaling.join(", ")
    );
    json.push_str("  },\n");
    json.push_str("  \"parallel_kernel\": {\n");
    let _ = writeln!(json, "    \"available_parallelism\": {cores},");
    json.push_str("    \"partitions\": 8,\n");
    json.push_str("    \"configs\": [\n");
    let rows: Vec<String> = sweep
        .iter()
        .map(|m| {
            let peaks: Vec<String> = m
                .report
                .partition_peak_queue_lens
                .iter()
                .map(u64::to_string)
                .collect();
            format!(
                "      {{ \"label\": \"{}\", \"groups\": {}, \"threads\": {}, \"entries\": {}, \"wall_secs\": {:.6}, \"entries_per_sec\": {:.0}, \"committed_per_delay\": {:.3}, \"elapsed_delays\": {:.1}, \"events_dispatched\": {}, \"events_per_sec\": {:.0}, \"partition_peak_queue_lens\": [{}] }}",
                m.label,
                m.groups,
                m.threads,
                m.report.committed,
                m.wall_secs,
                m.entries_per_sec(),
                m.report.committed_per_delay,
                m.report.elapsed_delays,
                m.report.events_dispatched,
                m.events_per_sec(),
                peaks.join(", "),
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ],\n");
    let sweep_speedups: Vec<String> = [8usize, 16]
        .iter()
        .map(|&g| {
            format!(
                "\"g{g}_2t\": {:.3}, \"g{g}_4t\": {:.3}",
                sweep_of(g, 2).entries_per_sec() / sweep_of(g, 1).entries_per_sec(),
                sweep_of(g, 4).entries_per_sec() / sweep_of(g, 1).entries_per_sec()
            )
        })
        .collect();
    let _ = writeln!(
        json,
        "    \"wall_speedup_vs_1_thread\": {{ {} }},",
        sweep_speedups.join(", ")
    );
    let mono_speedups: Vec<String> = [8usize, 16]
        .iter()
        .flat_map(|&g| [1usize, 2, 4].map(|t| format!("\"g{g}_{t}t\": {:.3}", vs_mono(g, t))))
        .collect();
    let _ = writeln!(json, "    \"wall_speedup_trials\": {},", trials());
    let _ = writeln!(
        json,
        "    \"wall_speedup_vs_monolithic\": {{ {} }}",
        mono_speedups.join(", ")
    );
    json.push_str("  },\n");
    json.push_str("  \"rebalance\": {\n");
    let _ = writeln!(json, "    \"total_commands\": {rebal_cmds},");
    json.push_str("    \"configs\": [\n");
    let rows: Vec<String> = rebal
        .iter()
        .chain(&rebal_sweep)
        .map(|m| format!("      {}", rebalance_json(m)))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ],\n");
    let _ = writeln!(
        json,
        "    \"zipf_auto_vs_static_range_committed_per_delay\": {zipf_recovery:.3},"
    );
    let _ = writeln!(
        json,
        "    \"hotset_auto_vs_static_hash\": {{ \"committed_per_delay\": {hot_recovery:.3}, \"tail_committed_per_delay\": {hot_tail_recovery:.3}, \"service_p99\": {hot_p99_recovery:.3} }}"
    );
    json.push_str("  },\n");
    json.push_str("  \"byzantine\": {\n");
    let _ = writeln!(json, "    \"total_commands\": {byz_cmds},");
    json.push_str("    \"configs\": [\n");
    let rows: Vec<String> = byz_all
        .iter()
        .map(|m| {
            format!(
                "      {{ \"label\": \"{}\", \"groups\": {}, \"entries\": {}, \"wall_secs\": {:.6}, \"entries_per_sec\": {:.0}, \"committed_per_delay\": {:.3}, \"elapsed_delays\": {:.1}, \"service_p50_delays\": {:.1}, \"service_p99_delays\": {:.1}, \"duplicates_suppressed\": {}, \"equivocations_blocked\": {}, \"byz_unconfirmed_claims\": {}, \"byz_withheld_reports\": {}, \"events_dispatched\": {}, \"allocations\": {} }}",
                m.label,
                m.groups,
                m.report.committed,
                m.wall_secs,
                m.entries_per_sec(),
                m.report.committed_per_delay,
                m.report.elapsed_delays,
                m.report.service_p50_latency_ticks as f64 / TICKS_PER_DELAY as f64,
                m.report.service_p99_latency_ticks as f64 / TICKS_PER_DELAY as f64,
                m.report.duplicates_suppressed,
                m.report.equivocations_blocked,
                m.report.byz_unconfirmed_claims,
                m.report.byz_withheld_reports,
                m.report.events_dispatched,
                m.allocs,
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ],\n");
    let _ = writeln!(
        json,
        "    \"crash_over_byzantine_committed_per_delay\": {byz_price:.3}"
    );
    json.push_str("  },\n");
    json.push_str("  \"byz_pipeline\": {\n");
    let _ = writeln!(json, "    \"total_commands\": {byz_cmds},");
    json.push_str("    \"router_window\": 64,\n");
    json.push_str("    \"configs\": [\n");
    let rows: Vec<String> = [&pipe_crash]
        .into_iter()
        .chain(&pipe)
        .map(|m| {
            format!(
                "      {{ \"label\": \"{}\", \"groups\": {}, \"entries\": {}, \"wall_secs\": {:.6}, \"entries_per_sec\": {:.0}, \"committed_per_delay\": {:.3}, \"elapsed_delays\": {:.1}, \"gap_vs_crash\": {:.3}, \"byz_fast_commits\": {}, \"byz_fast_confirms\": {}, \"duplicates_suppressed\": {}, \"events_dispatched\": {}, \"allocations\": {} }}",
                m.label,
                m.groups,
                m.report.committed,
                m.wall_secs,
                m.entries_per_sec(),
                m.report.committed_per_delay,
                m.report.elapsed_delays,
                pipe_gap(m),
                m.report.byz_fast_commits,
                m.report.byz_fast_confirms,
                m.report.duplicates_suppressed,
                m.report.events_dispatched,
                m.allocs,
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ],\n");
    let _ = writeln!(
        json,
        "    \"headline_w8_fast_gap_vs_crash\": {headline_gap:.3},"
    );
    let _ = writeln!(
        json,
        "    \"w1_conservative_gap_vs_crash\": {:.3}",
        pipe_gap(&pipe[0])
    );
    json.push_str("  },\n");
    json.push_str("  \"byz_log_scaling\": {\n");
    json.push_str(
        "    \"shape\": \"G=1 Byzantine, n=3, m=3, batch 8, router window 64, pipeline window 8, fast path\",\n",
    );
    json.push_str("    \"configs\": [\n");
    let rows: Vec<String> = log_scaling
        .iter()
        .map(|m| {
            format!(
                "      {{ \"label\": \"{}\", \"entries\": {}, \"committed_per_delay\": {:.3}, \"elapsed_delays\": {:.1}, \"events_dispatched\": {}, \"mem_ops\": {}, \"allocations\": {}, \"allocs_per_cmd\": {:.3}, \"range_rows\": {}, \"range_rows_per_cmd\": {:.3} }}",
                m.label,
                m.report.committed,
                m.report.committed_per_delay,
                m.report.elapsed_delays,
                m.report.events_dispatched,
                m.report.mem_ops,
                m.allocs,
                per_cmd(m.allocs, m),
                m.report.mem_range_rows,
                per_cmd(m.report.mem_range_rows, m),
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ],\n");
    let _ = writeln!(
        json,
        "    \"allocs_per_cmd_6000_over_1500\": {scaling_ratio:.3}"
    );
    json.push_str("  },\n");
    json.push_str("  \"observability\": {\n");
    let _ = writeln!(json, "    \"total_commands\": {byz_cmds},");
    json.push_str("    \"configs\": [\n");
    let rows: Vec<String> = [&obs_untraced, &obs_traced]
        .iter()
        .map(|m| format!("      {}", sharded_json(m)))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ],\n");
    let _ = writeln!(
        json,
        "    \"untraced_over_traced_entries_per_sec\": {trace_overhead:.3},"
    );
    json.push_str("    \"span_stages\": [\n");
    let rows: Vec<String> = [("crash", &crash_spans), ("byzantine", &byz_spans)]
        .iter()
        .flat_map(|(cfg, stats)| {
            stats.iter().map(move |g| {
                let stages: Vec<String> = g
                    .stages
                    .iter()
                    .map(|st| {
                        format!(
                            "\"{0}_p50_delays\": {1:.2}, \"{0}_p99_delays\": {2:.2}",
                            st.stage,
                            st.hist.p50() as f64 / TICKS_PER_DELAY as f64,
                            st.hist.p99() as f64 / TICKS_PER_DELAY as f64,
                        )
                    })
                    .collect();
                format!(
                    "      {{ \"label\": \"spans_{cfg}_g{}\", \"config\": \"{cfg}\", \"group\": {}, \"spans\": {}, {} }}",
                    g.group,
                    g.group,
                    g.spans,
                    stages.join(", "),
                )
            })
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"cost_model\": {\n");
    let _ = writeln!(json, "    \"total_commands\": {cost_cmds},");
    json.push_str("    \"verb_cost_configs\": [\"baseline\", \"write_opt\", \"congested\"],\n");
    json.push_str("    \"doorbell_batch_sizes\": [1, 8],\n");
    json.push_str("    \"e10b_configs\": [\n");
    let rows: Vec<String> = cost_smr
        .iter()
        .map(|m| format!("      {}", smr_json(m)))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ],\n");
    json.push_str("    \"sharded_g4_configs\": [\n");
    let rows: Vec<String> = cost_shard
        .iter()
        .chain([&cost_adaptive])
        .chain(&cost_sweep)
        .map(|m| format!("      {}", sharded_json(m)))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ],\n");
    let _ = writeln!(
        json,
        "    \"batched_b8_over_b1_committed_per_delay\": {{ {} }}",
        cost_ratios.join(", ")
    );
    json.push_str("  },\n");
    json.push_str("  \"kernel_queue_stress\": [\n");
    let rows: Vec<String> = stress
        .iter()
        .map(|r| {
            format!(
                "    {{ \"actors\": {}, \"events\": {}, \"optimized_events_per_sec\": {:.0} }}",
                r.n, r.events, r.events_per_sec,
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = format!("{root}/BENCH_PR{PR}.json");
    std::fs::write(&out, &json).expect("write bench snapshot");
    println!("\nwrote {out}");

    // Per-PR regression gate (ROADMAP next-target (d)): compare against
    // the newest prior snapshot. Two tiers, matching what each metric can
    // prove:
    //
    // * Virtual-time metrics (committed_per_delay, delays_per_entry) are
    //   deterministic per seed and machine-independent — any worsening
    //   >10% is a real schedule regression and FAILS.
    // * Wall-clock entries/sec swings tens of percent between runs for
    //   byte-identical code on shared/virtualized hosts (measured on this
    //   repo's own seed: 582k -> 362k entries/sec minutes apart), so
    //   drops in the 10–50% band only WARN — in every mode, including
    //   strict, because wall-clock is never machine-independent and CI
    //   compares against a snapshot from a different machine; >50% is
    //   beyond plausible noise and FAILS. `PERF_GATE=strict` hard-fails
    //   every *machine-independent* signal instead: retired labels
    //   (below) and the thread-sweep speedup expectation. `warn` never
    //   fails; `off` skips.
    let mut gate_failed = sweep_gate_failed;
    if gate_mode == "off" {
        println!("perf gate: PERF_GATE=off, skipping");
        gate_failed = false;
    } else {
        match bench::gate::latest_prior_snapshot(std::path::Path::new(root), PR) {
            None => println!("perf gate: no prior BENCH_PR*.json to compare against"),
            Some((k, path)) => {
                let prior = std::fs::read_to_string(&path).expect("read prior snapshot");
                let prior_cmds = bench::gate::top_field(&prior, "workload_commands");
                if prior_cmds != Some(cmds as f64) {
                    println!(
                        "perf gate: BENCH_PR{k}.json measured {prior_cmds:?} commands, this run {cmds}; \
                         snapshots are incomparable, skipping"
                    );
                } else {
                    let regs = bench::gate::regressions(&prior, &json, 0.10);
                    let mut hard_regression = false;
                    for r in &regs {
                        let wall_clock = r.metric == "entries_per_sec";
                        let hard = !wall_clock || r.drop_frac > 0.50;
                        hard_regression |= hard && gate_mode != "warn";
                        println!(
                            "perf gate: {} {} {}: {:.3} -> {:.3} ({:.1}% worse{})",
                            if hard { "REGRESSION" } else { "warning" },
                            r.label,
                            r.metric,
                            r.prior,
                            r.current,
                            100.0 * r.drop_frac,
                            if hard {
                                ""
                            } else {
                                "; within cross-machine wall-clock noise"
                            },
                        );
                    }
                    // Retired labels: a configuration the prior snapshot
                    // measured that this run no longer emits. regressions()
                    // cannot see these (it only compares shared labels), so
                    // a rename or drop would silently lose gate coverage.
                    // Warn loudly always; under strict, fail unless the
                    // retirement is explicitly allowlisted.
                    let retired = bench::gate::retired_labels(&prior, &json);
                    let allow_env = std::env::var("PERF_GATE_RETIRED_OK").unwrap_or_default();
                    let allowed: Vec<&str> = allow_env
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .collect();
                    for label in &retired {
                        let ok = allowed.iter().any(|a| a == label);
                        let hard = gate_strict && !ok;
                        hard_regression |= hard;
                        println!(
                            "perf gate: {} label \"{label}\" from BENCH_PR{k}.json has \
                             DISAPPEARED from this snapshot — its regression coverage is lost{}",
                            if hard { "REGRESSION" } else { "warning" },
                            if ok {
                                " (allowlisted via PERF_GATE_RETIRED_OK)"
                            } else {
                                "; name it in PERF_GATE_RETIRED_OK if the retirement is intentional"
                            },
                        );
                    }
                    gate_failed |= hard_regression;
                    if !hard_regression {
                        println!("perf gate: no hard regression vs BENCH_PR{k}.json");
                    }
                }
            }
        }
    }
    if gate_failed {
        std::process::exit(1);
    }
}
