//! One-call experiment builders: assemble a cluster, run a protocol under a
//! scripted failure scenario, and report the paper's metrics.
//!
//! Every benchmark, example and integration test goes through this module,
//! so experiment definitions stay in one place (ARCHITECTURE.md's
//! experiment index, E1–E10, points here).

pub mod scenario;

pub use scenario::ShardedScenario;

use std::collections::BTreeMap;

use sigsim::SigAuthority;
use simnet::{
    Actor, ActorId, AnyActor, DelayModel, Duration, Metrics, ParSimulation, Simulation, Time,
};
use swmr::quorum::tolerated;

use crate::adversary;
use crate::aligned::{self, AlignedPaxosActor, MemoryMode};
use crate::disk_paxos::{self, DiskPaxosActor};
use crate::fast_paxos::FastPaxosActor;
use crate::fast_robust::{self, FastRobustActor};
use crate::nebcast;
use crate::paxos::PaxosActor;
use crate::protected::{self, ProtectedPaxosActor};
use crate::robust_backup::RobustPaxosActor;
use crate::sharded::{self, GroupMode, GroupTopology, RebalancePolicy, RouterActor, RoutingTable};
use crate::smr::{ByzSmrNode, ReplicaState, SmrNode};
use crate::types::{Instance, Msg, Pid, RegVal, Value};

/// A scripted run: cluster shape, failures, leadership and timing.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Number of processes.
    pub n: usize,
    /// Number of memories (ignored by the message-passing baselines).
    pub m: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Link behaviour.
    pub delay: DelayModel,
    /// `(process index, crash time in delays)`.
    pub crash_procs: Vec<(usize, u64)>,
    /// `(memory index, crash time in delays)`.
    pub crash_mems: Vec<(usize, u64)>,
    /// Process indices replaced by silent Byzantine actors (Byzantine
    /// protocols only; crash protocols treat them as crashed-from-start).
    pub byz_silent: Vec<usize>,
    /// Scripted Ω announcements: `(time in delays, leader index)`.
    pub announce: Vec<(u64, usize)>,
    /// Virtual-time budget, in delays.
    pub max_delays: u64,
}

impl Scenario {
    /// The synchronous failure-free common case.
    pub fn common_case(n: usize, m: usize, seed: u64) -> Scenario {
        Scenario {
            n,
            m,
            seed,
            delay: DelayModel::synchronous(),
            crash_procs: Vec::new(),
            crash_mems: Vec::new(),
            byz_silent: Vec::new(),
            announce: Vec::new(),
            max_delays: 5_000,
        }
    }

    /// Process ids `0..n`.
    pub fn procs(&self) -> Vec<Pid> {
        (0..self.n as u32).map(ActorId).collect()
    }

    /// Memory ids `n..n+m`.
    pub fn mems(&self) -> Vec<ActorId> {
        (self.n as u32..(self.n + self.m) as u32)
            .map(ActorId)
            .collect()
    }

    /// Indices of processes expected to decide (correct, never-crashed).
    pub fn correct_procs(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|i| {
                !self.byz_silent.contains(i) && !self.crash_procs.iter().any(|(c, _)| c == i)
            })
            .collect()
    }

    /// The input value of process `i` (fixed convention: `100 + i`).
    pub fn input(i: usize) -> Value {
        Value(100 + i as u64)
    }

    /// `m` memories, each built by `one` for the processes.
    pub fn memories(&self, one: impl Fn(&[Pid]) -> Memory) -> Vec<Memory> {
        let procs = self.procs();
        (0..self.m).map(|_| one(&procs)).collect()
    }

    /// The one single-shot deployment (§3's M&M model), built and not yet
    /// run: the simulation from the seed and link model; the processes at
    /// `0..n`, each `process(i, procs, mems)` — any actor, a scripted
    /// villain included — except an [`adversary::Scripted::silent`] at
    /// every [`Scenario::byz_silent`] index (which is also what "crashed
    /// from the start" means to a crash protocol); the `memories` at
    /// `n..n+m` (none for a message-passing protocol); then the scripted
    /// process crashes, memory crashes and Ω announcements, in that order.
    pub fn cluster(
        &self,
        mut process: impl FnMut(usize, Vec<Pid>, Vec<ActorId>) -> Box<dyn AnyActor<Msg>>,
        memories: Vec<Memory>,
    ) -> Simulation<Msg> {
        let mut sim = Simulation::new(self.seed);
        sim.set_default_delay(self.delay.clone());
        let (procs, mems) = (self.procs(), self.mems());
        for i in 0..self.n {
            if self.byz_silent.contains(&i) {
                sim.add(adversary::Scripted::silent());
            } else {
                sim.add_boxed(process(i, procs.clone(), mems.clone()));
            }
        }
        for memory in memories {
            sim.add(memory);
        }
        for &(i, t) in &self.crash_procs {
            sim.crash_at(procs[i], Time::from_delays(t));
        }
        for &(j, t) in &self.crash_mems {
            sim.crash_at(mems[j], Time::from_delays(t));
        }
        for &(t, l) in &self.announce {
            sim.announce_leader(Time::from_delays(t), &procs, procs[l]);
        }
        sim
    }
}

/// The decision of each of `procs`, read through `decision` off its `A`
/// (`None`: undecided, or not an `A` — a silent stand-in, say).
pub fn decisions<A: 'static>(
    sim: &Simulation<Msg>,
    procs: &[Pid],
    decision: impl Fn(&A) -> Option<Value>,
) -> Vec<Option<Value>> {
    (procs.iter())
        .map(|&p| sim.actor_as::<A>(p).and_then(&decision))
        .collect()
}

/// Metrics extracted from one run — the quantities the paper reports.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Decisions of the processes expected to decide.
    pub decisions: BTreeMap<Pid, Value>,
    /// Whether every expected process decided within the budget.
    pub all_decided: bool,
    /// Whether all reached decisions are equal.
    pub agreement: bool,
    /// Whether the decision is some process's input (validity; meaningful
    /// in runs without Byzantine processes).
    pub validity: bool,
    /// Delay of the earliest decision, in network delays (the k in
    /// "k-deciding").
    pub first_decision_delays: Option<f64>,
    /// Messages put on the network (includes memory-operation legs).
    pub messages: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// Signatures created / verified (0 for unsigned protocols).
    pub signatures: (u64, u64),
    /// Virtual time when the run stopped, in delays.
    pub elapsed_delays: f64,
}

/// The memory actor of every protocol in this crate.
pub type Memory = rdma_sim::MemoryActor<RegVal, Msg>;

/// The one single-shot run path under every `run_*` below: builds the
/// [`Scenario::cluster`] of `process`es and `memories`, runs until every
/// process expected to decide has (or the budget ends), and reports.
fn run_single_shot<A: Actor<Msg>>(
    scenario: &Scenario,
    auth: Option<&SigAuthority>,
    mut process: impl FnMut(usize, Vec<Pid>, Vec<ActorId>) -> A,
    memories: Vec<Memory>,
    decision_of: impl Fn(&A) -> Option<Value>,
) -> RunReport {
    let mut sim = scenario.cluster(|i, procs, mems| Box::new(process(i, procs, mems)), memories);
    let expected: Vec<Pid> = (scenario.correct_procs().iter())
        .map(|&i| ActorId(i as u32))
        .collect();
    let decision = |s: &Simulation<Msg>, p: Pid| s.actor_as::<A>(p).and_then(&decision_of);
    sim.run_until(Time::from_delays(scenario.max_delays), |s| {
        expected.iter().all(|&p| decision(s, p).is_some())
    });
    let decisions: BTreeMap<Pid, Value> = (expected.iter())
        .filter_map(|&p| Some((p, decision(&sim, p)?)))
        .collect();
    let vals: Vec<Value> = decisions.values().copied().collect();
    let valid_inputs: Vec<Value> = (0..scenario.n).map(Scenario::input).collect();
    RunReport {
        all_decided: decisions.len() == expected.len(),
        agreement: vals.windows(2).all(|w| w[0] == w[1]),
        validity: vals.iter().all(|v| valid_inputs.contains(v)),
        first_decision_delays: sim.metrics().first_decision_delays(),
        messages: sim.metrics().messages_sent,
        mem_ops: sim.metrics().mem_ops(),
        signatures: auth.map_or((0, 0), |a| (a.signatures_created(), a.verifications())),
        elapsed_delays: sim.now().as_delays(),
        decisions,
    }
}

/// Process 0: the initial leader of every single-shot run.
const LEADER: Pid = ActorId(0);

/// Runs message-passing Paxos (baseline; memories unused).
pub fn run_mp_paxos(scenario: &Scenario) -> RunReport {
    let retry = Duration::from_delays(25);
    let process = |i, procs, _| {
        PaxosActor::new(
            ActorId(i as u32),
            procs,
            Scenario::input(i),
            Some(LEADER),
            retry,
        )
    };
    run_single_shot(scenario, None, process, Vec::new(), PaxosActor::decision)
}

/// Runs Fast Paxos (baseline; `proposer` proposes at start).
pub fn run_fast_paxos(scenario: &Scenario, proposer: usize) -> RunReport {
    let retry = Duration::from_delays(30);
    let process = |i, procs, _| {
        let (me, input) = (ActorId(i as u32), Scenario::input(i));
        FastPaxosActor::new(me, procs, input, i == proposer, LEADER, retry)
    };
    run_single_shot(
        scenario,
        None,
        process,
        Vec::new(),
        FastPaxosActor::decision,
    )
}

/// Runs Disk Paxos (baseline).
pub fn run_disk_paxos(scenario: &Scenario) -> RunReport {
    let retry = Duration::from_delays(25);
    let process = |i, procs, mems| {
        let (me, input) = (ActorId(i as u32), Scenario::input(i));
        DiskPaxosActor::new(me, procs, mems, Instance(0), input, Some(LEADER), retry)
    };
    let disks = scenario.memories(disk_paxos::disk_actor);
    run_single_shot(scenario, None, process, disks, DiskPaxosActor::decision)
}

/// Runs Protected Memory Paxos (Theorem 5.1).
pub fn run_protected(scenario: &Scenario) -> RunReport {
    let (f_m, retry) = (tolerated(scenario.m), Duration::from_delays(25));
    let process = |i, procs, mems| {
        let (me, input) = (ActorId(i as u32), Scenario::input(i));
        ProtectedPaxosActor::new(me, procs, mems, Instance(0), input, LEADER, f_m, retry)
    };
    let mems = scenario.memories(|_| protected::memory_actor(LEADER));
    run_single_shot(scenario, None, process, mems, ProtectedPaxosActor::decision)
}

/// Runs Aligned Paxos (§5.2) in the given memory mode.
pub fn run_aligned(scenario: &Scenario, mode: MemoryMode) -> RunReport {
    let retry = Duration::from_delays(30);
    let process = |i, procs, mems| {
        let (me, input) = (ActorId(i as u32), Scenario::input(i));
        AlignedPaxosActor::new(me, procs, mems, Instance(0), input, LEADER, mode, retry)
    };
    let mems = scenario.memories(|procs| aligned::memory_actor(mode, procs, LEADER));
    run_single_shot(scenario, None, process, mems, AlignedPaxosActor::decision)
}

/// A signing authority with every process of `scenario` registered, in id
/// order (Byzantine stand-ins included: they hold a key and stay silent).
fn signers(scenario: &Scenario, salt: u64) -> (SigAuthority, Vec<sigsim::Signer>) {
    let mut auth = SigAuthority::new(scenario.seed ^ salt);
    let signers = (scenario.procs().iter())
        .map(|&p| auth.register(p))
        .collect();
    (auth, signers)
}

/// Runs the composed Fast & Robust protocol (Theorem 4.9).
pub fn run_fast_robust(scenario: &Scenario, timeout: u64) -> (RunReport, SigAuthority) {
    let (auth, signers) = signers(scenario, 0xBEEF);
    let process = |i: usize, procs, mems| {
        FastRobustActor::new(
            ActorId(i as u32),
            procs,
            mems,
            LEADER,
            Scenario::input(i),
            signers[i].clone(),
            auth.verifier(),
            Duration::from_delays(1),
            Duration::from_delays(timeout),
            Duration::from_delays(120),
        )
    };
    let mems = scenario.memories(|procs| fast_robust::memory_actor(procs, LEADER));
    let decision_of = FastRobustActor::decision;
    let report = run_single_shot(scenario, Some(&auth), process, mems, decision_of);
    (report, auth)
}

/// Runs the slow path alone: Robust Backup over trusted channels
/// (Theorem 4.4).
pub fn run_robust_backup(scenario: &Scenario) -> (RunReport, SigAuthority) {
    let (auth, signers) = signers(scenario, 0xD00D);
    let process = |i: usize, procs, mems| {
        RobustPaxosActor::robust_backup(
            ActorId(i as u32),
            procs,
            mems,
            Scenario::input(i),
            Some(LEADER),
            signers[i].clone(),
            auth.verifier(),
            Duration::from_delays(1),
            Duration::from_delays(80),
        )
    };
    let mems = scenario.memories(nebcast::memory_actor);
    let decision_of = RobustPaxosActor::decision;
    let report = run_single_shot(scenario, Some(&auth), process, mems, decision_of);
    (report, auth)
}

/// What a replicated-log run produced (the E10b quantities).
#[derive(Clone, Debug)]
pub struct SmrRunReport {
    /// Length of the leader's contiguous decided prefix.
    pub entries: usize,
    /// The leader's log.
    pub log: Vec<Value>,
    /// Whether every correct replica's log is a prefix-consistent match.
    pub logs_agree: bool,
    /// Virtual time when the run stopped, in delays.
    pub elapsed_delays: f64,
    /// Virtual-time cost per committed entry, in delays.
    pub delays_per_entry: f64,
    /// Kernel events dispatched over the run (wall-clock denominator).
    pub events_dispatched: u64,
    /// Messages put on the network.
    pub messages: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// When the leader decided each slot, in delays.
    pub decided_at_delays: Vec<f64>,
}

/// Builds crash-mode replica `i` of the group `procs` over `mems`, led
/// by `procs[0]` — the one constructor path of [`run_smr`] and the
/// sharded crash arm. Either list may be handed over or lent (a slice is
/// copied).
fn crash_replica(
    procs: impl Into<Vec<Pid>>,
    mems: impl Into<Vec<ActorId>>,
    i: usize,
    workload: Vec<Value>,
) -> SmrNode {
    let (procs, mems) = (procs.into(), mems.into());
    let (me, leader) = (procs[i], procs[0]);
    let (f_m, retry) = (tolerated(mems.len()), Duration::from_delays(20));
    SmrNode::new(me, procs, mems, leader, workload, f_m, retry)
}

/// Runs the replicated log (SMR over Protected Memory Paxos): every node
/// wants `cmds_per_node` commands committed; process 0 leads and packs up
/// to `batch` log entries into each replicated write (`1` is the paper's
/// unbatched protocol).
pub fn run_smr(scenario: &Scenario, cmds_per_node: usize, batch: usize) -> SmrRunReport {
    let memories = (0..scenario.m)
        .map(|_| protected::memory_actor(LEADER))
        .collect();
    let mut sim = scenario.cluster(
        |i, procs, mems| {
            let workload: Vec<Value> = (0..cmds_per_node)
                .map(|c| Value(1000 * (i as u64 + 1) + c as u64))
                .collect();
            Box::new(crash_replica(procs, mems, i, workload).with_batch(batch))
        },
        memories,
    );
    sim.run_to_quiescence(Time::from_delays(scenario.max_delays));

    let leader = sim.actor_as::<SmrNode>(ActorId(0)).expect("leader exists");
    let log = leader.log();
    let mut decided = leader.decided_at().to_vec();
    decided.sort_by_key(|&(instance, _)| instance);
    let decided_at_delays: Vec<f64> = decided.iter().map(|&(_, t)| t.as_delays()).collect();
    let logs_agree = scenario.correct_procs().iter().all(|&i| {
        let other = sim
            .actor_as::<SmrNode>(ActorId(i as u32))
            .expect("replica exists")
            .log();
        let common = log.len().min(other.len());
        log[..common] == other[..common]
    });
    let entries = log.len();
    SmrRunReport {
        entries,
        logs_agree,
        elapsed_delays: sim.now().as_delays(),
        delays_per_entry: sim.now().as_delays() / entries.max(1) as f64,
        events_dispatched: sim.metrics().events_dispatched,
        messages: sim.metrics().messages_sent,
        mem_ops: sim.metrics().mem_ops(),
        decided_at_delays,
        log,
    }
}

/// What one group of a sharded run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardGroupReport {
    /// Log length of the group's longest replica log (no-op fillers and
    /// at-least-once duplicates included).
    pub entries: usize,
    /// Unique client commands observed committed by this group.
    pub committed: usize,
    /// Median decision latency (submission → first observed commit), in
    /// ticks.
    pub p50_latency_ticks: u64,
    /// 99th-percentile decision latency, in ticks.
    pub p99_latency_ticks: u64,
    /// Longest gap between consecutive observed commits, in ticks — a
    /// failover's stall window lands here.
    pub max_commit_gap_ticks: u64,
    /// Whether every replica's log is a prefix of the group's longest log.
    pub logs_agree: bool,
    /// The failure mode this group ran under.
    pub mode: GroupMode,
    /// The group's longest replica log.
    pub log: Vec<Value>,
}

/// Aggregate metrics of a sharded run.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedRunReport {
    /// Per-group outcomes, indexed by group.
    pub groups: Vec<ShardGroupReport>,
    /// Sum of group log lengths (includes no-ops and duplicates).
    pub total_entries: usize,
    /// Unique client commands observed committed, across all groups.
    pub committed: usize,
    /// Whether every client command was observed committed in budget.
    pub all_committed: bool,
    /// Whether every group's replica logs agree.
    pub all_logs_agree: bool,
    /// Whether every committed command landed in the group the routing
    /// (key hash, or the range table's final assignment) maps it to — no
    /// cross-group leakage. Runs with `cross_epoch_commits > 0` tolerate
    /// that many mismatches: a commit notification racing an epoch flip
    /// legitimately leaves one entry under the pre-flip assignment.
    pub no_cross_group_leak: bool,
    /// Virtual time when the run stopped, in delays.
    pub elapsed_delays: f64,
    /// Aggregate virtual-time throughput: unique committed commands per
    /// delay — the quantity that scales with `groups`.
    pub committed_per_delay: f64,
    /// Throughput over the run's last virtual-time quartile. For a
    /// rebalancing run this is the *post-convergence* rate — what the
    /// service sustains once the hot range has split — where the whole-run
    /// average still carries the skewed transient.
    pub tail_committed_per_delay: f64,
    /// Kernel events dispatched (wall-clock denominator).
    pub events_dispatched: u64,
    /// Messages put on the network.
    pub messages: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// Rows returned by range reads, summed over every memory's
    /// responses ([`Metrics::mem_range_rows`]). Divided by the commands
    /// committed it is exact and flat in the log length when range reads
    /// are window-bounded — the strict-gateable proxy for scan cost.
    pub mem_range_rows: u64,
    /// Deepest any kernel event queue got during the run (on the
    /// partitioned kernel: the max across partitions — there is no single
    /// global queue; see `partition_peak_queue_lens` for the breakdown).
    pub peak_queue_len: u64,
    /// Per-partition peak event-queue depths, indexed by partition (a
    /// single entry on the monolithic kernel).
    pub partition_peak_queue_lens: Vec<u64>,
    /// Duplicate proposals suppressed by client-session dedup across all
    /// replicas (the at-least-once failover re-submissions that did *not*
    /// become duplicate log entries; 0 in failure-free runs).
    pub duplicates_suppressed: u64,
    /// Service-level median decision latency, in ticks (all groups' raw
    /// latencies pooled — the hot group weighs in by its command count).
    pub service_p50_latency_ticks: u64,
    /// Service-level 99th-percentile decision latency, in ticks. The
    /// headline number rebalancing is judged by: per-group p99s can look
    /// healthy while the hot group drags the service tail.
    pub service_p99_latency_ticks: u64,
    /// Key-range migrations completed (0 without rebalancing).
    pub migrations_completed: usize,
    /// Trigger → epoch-flip duration of each completed migration, in
    /// ticks (the window during which the migrating range was held).
    pub migration_windows_ticks: Vec<u64>,
    /// Final routing-table version (0: the static partition never flips).
    pub routing_table_version: u64,
    /// Commands re-routed across epoch flips (straddling in-flight
    /// commands replayed at the destination + held/backlog moves).
    pub rerouted_commands: u64,
    /// Commits observed in a group the command was no longer assigned to
    /// (late notifications racing an epoch flip; 0 on FIFO schedules).
    pub cross_epoch_commits: u64,
    /// Byzantine suppression: senders caught equivocating and blocked by
    /// the broadcast audit, summed over every Byzantine-mode replica
    /// (0 in all-crash deployments).
    pub equivocations_blocked: u64,
    /// Byzantine suppression: delivery receipts whose provenance check
    /// failed during takeover scans — a receipt credited to a broadcast
    /// the claimed broadcaster's unforgeable self-slot never made,
    /// summed over every Byzantine-mode replica (0 without a
    /// receipt-forging adversary).
    pub byz_receipts_rejected: u64,
    /// Byzantine suppression: validly signed batches ignored because they
    /// started beyond any dense log — deliveries past the receiving
    /// replica's settled frontier and scanned wires past the takeover
    /// scan's own size — summed over every Byzantine-mode replica (0
    /// unless a leader signs a far-future `first`).
    pub byz_entries_rejected: u64,
    /// Byzantine suppression: commit claims from Byzantine-mode groups
    /// that *never* reached the router's `f + 1` confirmation quorum by
    /// the end of the run — a lying leader's wholly invented commands
    /// land here (0 in all-crash deployments).
    pub byz_unconfirmed_claims: u64,
    /// Byzantine suppression: reports from Byzantine-mode groups
    /// withheld from the commit path pending their confirmation quorum,
    /// cumulative — the work the `f + 1` rule did, fabricated claims
    /// included (0 in all-crash deployments).
    pub byz_withheld_reports: u64,
    /// Byzantine pipeline: batches leaders settled at the broadcast
    /// write ack instead of self-delivery, summed over every
    /// Byzantine-mode replica (0 unless
    /// [`ShardedScenario::byz_fast_path`] is set).
    pub byz_fast_commits: u64,
    /// Byzantine pipeline: confirmations whose `f + 1` quorum the
    /// fast-path leader's speculative write-ack report completed (0
    /// unless [`ShardedScenario::byz_fast_path`] is set).
    pub byz_fast_confirms: u64,
}

/// Runs the sharded multi-group replicated-log service.
///
/// Builds `groups` disjoint SMR groups plus the router (actor ids per
/// [`ShardedScenario::topology`]), injects the scripted per-group leader
/// crashes and Ω announcements, runs until every command is observed
/// committed (or the budget ends), and reduces the router's observations
/// to a [`ShardedRunReport`].
pub fn run_sharded(scenario: &ShardedScenario) -> ShardedRunReport {
    run_sharded_with_events(scenario).0
}

/// [`run_sharded`], also returning the run's typed observability events
/// (empty unless the scenario set [`ShardedScenario::record_events`]). The
/// stream is merged across kernel partitions in deterministic
/// `(time, partition, seq)` order, ready for [`simnet::obs::to_jsonl`],
/// [`simnet::obs::to_chrome_trace`], [`simnet::obs::to_html_timeline`] or
/// [`crate::spans::aggregate_spans`].
pub fn run_sharded_with_events(
    scenario: &ShardedScenario,
) -> (ShardedRunReport, Vec<simnet::obs::Event>) {
    if scenario.partitions <= 1 {
        return run_sharded_instrumented(scenario, |_| {});
    }
    let parts = scenario.partitions.clamp(1, scenario.groups.max(1));
    run_sharded_on::<ParSimulation<Msg>>(parts, scenario, |_| {})
}

/// [`run_sharded_with_events`] on the monolithic kernel, with pre-run
/// access to the built [`Simulation`] — how the schedule explorer
/// ([`crate::explore`]) installs its [`simnet::ChoiceHook`] before the
/// first dispatch. Panics on partitioned scenarios (`partitions > 1`):
/// the choice hook is a monolithic-kernel instrument.
pub fn run_sharded_instrumented(
    scenario: &ShardedScenario,
    setup: impl FnOnce(&mut Simulation<Msg>),
) -> (ShardedRunReport, Vec<simnet::obs::Event>) {
    assert!(
        scenario.partitions <= 1,
        "instrumented runs use the monolithic kernel (partitions must be 1)"
    );
    run_sharded_on::<Simulation<Msg>>(1, scenario, setup)
}

/// Builds a scenario's per-group workload partition.
fn partitioned_workload(scenario: &ShardedScenario) -> sharded::PartitionedWorkload {
    if scenario.dynamic_routing() {
        let table = RoutingTable::even(scenario.workload.key_space(), scenario.groups);
        sharded::partition_with_table(
            &scenario.workload,
            scenario.seed,
            scenario.total_cmds,
            &table,
            scenario.groups,
        )
    } else {
        sharded::partition(
            &scenario.workload,
            scenario.seed,
            scenario.total_cmds,
            scenario.groups,
        )
    }
}

/// Builds the router for a sharded run, wiring in dynamic routing when
/// the scenario migrates (scripted or policy-driven).
fn build_router(
    scenario: &ShardedScenario,
    topo: &GroupTopology,
    workload: sharded::PartitionedWorkload,
) -> RouterActor {
    let paced = scenario.arrival_rate_per_delay > 0.0;
    let interval_ticks = (simnet::TICKS_PER_DELAY as f64
        / scenario.arrival_rate_per_delay.max(f64::MIN_POSITIVE))
    .round()
    .max(1.0) as u64;
    let keys = (scenario.dynamic_routing()).then(|| workload.keys.clone());
    let mut router = RouterActor::new(*topo, workload, scenario.window);
    if let Some(keys) = keys {
        let table = RoutingTable::even(scenario.workload.key_space(), scenario.groups);
        let policy = scenario
            .rebalance
            .map(|cfg| RebalancePolicy::new(cfg, scenario.groups));
        router = router.with_rebalance(table, keys, policy, scenario.migrations.clone());
    }
    if scenario.has_byzantine() {
        router = router.with_group_modes(scenario.group_modes.clone(), scenario.n);
        if scenario.byz_fast_path {
            router = router.with_byz_fast_path();
        }
    }
    if paced {
        router = router.with_paced_arrivals(interval_ticks);
    }
    router
}

/// The signing infrastructure of a deployment with Byzantine-mode
/// groups: one authority per run, every Byzantine-group replica
/// registered in id order (adversaries receive their own signer — they
/// can lie as themselves, never as a correct replica).
struct ByzAuth {
    auth: SigAuthority,
    signers: BTreeMap<Pid, sigsim::Signer>,
}

/// Builds the signing authority for a scenario, registering every
/// replica of every Byzantine-mode group. `None` for all-crash
/// deployments (whose schedules must stay bit-identical to the
/// pre-Byzantine harness).
fn byz_auth(scenario: &ShardedScenario, topo: &GroupTopology) -> Option<ByzAuth> {
    if !scenario.has_byzantine() {
        return None;
    }
    let mut auth = SigAuthority::new(scenario.seed ^ 0xB12A);
    let mut signers = BTreeMap::new();
    for g in 0..scenario.groups {
        if scenario.mode_of(g) != GroupMode::Byzantine {
            continue;
        }
        for p in topo.procs(g) {
            signers.insert(p, auth.register(p));
        }
    }
    Some(ByzAuth { auth, signers })
}

/// Builds one replica of group `g` for a sharded run — the scenario's
/// adversary placements first, then the group's [`GroupMode`] protocol
/// node — and places it on `kernel`'s partition `part`.
#[allow(clippy::too_many_arguments)]
fn place_sharded_replica<K: ShardedKernel>(
    kernel: &mut K,
    part: usize,
    scenario: &ShardedScenario,
    topo: &GroupTopology,
    byz: Option<&ByzAuth>,
    backlog: &[Value],
    g: usize,
    i: usize,
) -> ActorId {
    let procs = topo.procs(g);
    let mems = topo.mems(g);
    let leader = topo.initial_leader(g);
    if let Some(kind) = scenario.adversary_at(g, i) {
        let byz = byz.expect("validated: adversaries sit in Byzantine-mode groups");
        let signer = |p: Pid| &byz.signers[&p];
        let villain = kind.villain(
            g,
            procs[i],
            mems,
            topo.router(),
            signer(procs[i]),
            (leader, signer(leader)),
        );
        return kernel.place(part, villain);
    }
    // Open loop preloads the whole backlog into the initial leader;
    // closed loop starts everyone empty and the router submits.
    let preload = if scenario.window == 0 && i == 0 {
        backlog.to_vec()
    } else {
        Vec::new()
    };
    match scenario.mode_of(g) {
        GroupMode::CrashPmp => {
            let batch = match scenario.adaptive_batch {
                0 => scenario.batch,
                cap => cap,
            };
            let mut node = crash_replica(&procs[..], &mems[..], i, preload)
                .with_batch(batch)
                .with_observer(topo.router());
            if !scenario.disable_session_dedup {
                node = node.with_session_dedup();
            }
            kernel.place(part, node)
        }
        GroupMode::Byzantine => {
            let byz = byz.expect("Byzantine group without an authority");
            let mut node = ByzSmrNode::new(
                procs[i],
                procs.clone(),
                mems,
                leader,
                preload,
                byz.signers[&procs[i]].clone(),
                byz.auth.verifier(),
                Duration::from_delays(1),
            )
            .with_batch(scenario.batch)
            .with_pipeline_window(scenario.byz_pipeline_window)
            .with_fast_path(scenario.byz_fast_path)
            .with_observer(topo.router());
            if !scenario.disable_session_dedup {
                node = node.with_session_dedup();
            }
            kernel.place(part, node)
        }
    }
}

/// Builds group `g`'s memory actor for its failure mode: the PMP
/// permission-protected region (crash) or the non-equivocating broadcast
/// rows (Byzantine).
fn sharded_memory(scenario: &ShardedScenario, topo: &GroupTopology, g: usize) -> Memory {
    match scenario.mode_of(g) {
        GroupMode::CrashPmp => protected::memory_actor(topo.initial_leader(g)),
        GroupMode::Byzantine => nebcast::memory_actor(&topo.procs(g)),
    }
}

/// A finished run's kernel-side numbers, as [`reduce_sharded`] reads them.
struct KernelTotals {
    elapsed: Time,
    events_dispatched: u64,
    messages: u64,
    mem_ops: u64,
    mem_range_rows: u64,
    /// Peak event-queue depth of each partition (one entry on the
    /// monolithic kernel).
    partition_peak_queue_lens: Vec<u64>,
}

impl KernelTotals {
    fn new(elapsed: Time, metrics: &Metrics, partition_peak_queue_lens: Vec<u64>) -> KernelTotals {
        KernelTotals {
            elapsed,
            events_dispatched: metrics.events_dispatched,
            messages: metrics.messages_sent,
            mem_ops: metrics.mem_ops(),
            mem_range_rows: metrics.mem_range_rows,
            partition_peak_queue_lens,
        }
    }
}

/// What [`run_sharded_on`] needs of a kernel; implemented for the
/// monolithic [`Simulation`] (one partition, whatever index is asked for)
/// and the partitioned [`ParSimulation`].
trait ShardedKernel {
    /// An empty kernel for `scenario` (seed, links, event recording) split
    /// into `parts` partitions.
    fn for_scenario(scenario: &ShardedScenario, parts: usize) -> Self;
    /// Registers `actor` on `partition`; ids are dense in call order.
    fn place<T: Actor<Msg> + Send>(&mut self, partition: usize, actor: T) -> ActorId;
    fn crash_at(&mut self, actor: ActorId, at: Time);
    fn announce_leader(&mut self, at: Time, targets: &[ActorId], leader: ActorId);
    /// Runs until the router reports every command committed or virtual
    /// time passes `max`.
    fn run_until_done(&mut self, max: Time, router: ActorId);
    fn take_obs_events(&mut self) -> Vec<simnet::obs::Event>;
    /// Reads actor `id` as a `T` (`None`: no such actor, or another type).
    fn read<T: 'static, R>(&mut self, id: ActorId, f: impl FnOnce(&T) -> R) -> Option<R>;
    fn totals(&mut self) -> KernelTotals;
}

impl ShardedKernel for Simulation<Msg> {
    fn for_scenario(scenario: &ShardedScenario, _parts: usize) -> Self {
        let mut sim = Simulation::new(scenario.seed);
        sim.set_default_delay(scenario.delay.clone());
        if scenario.record_events {
            sim.enable_obs();
        }
        sim
    }
    fn place<T: Actor<Msg> + Send>(&mut self, _partition: usize, actor: T) -> ActorId {
        self.add(actor)
    }
    fn crash_at(&mut self, actor: ActorId, at: Time) {
        Simulation::crash_at(self, actor, at);
    }
    fn announce_leader(&mut self, at: Time, targets: &[ActorId], leader: ActorId) {
        Simulation::announce_leader(self, at, targets, leader);
    }
    fn run_until_done(&mut self, max: Time, router: ActorId) {
        self.run_until(max, |k| k.actor_as(router).is_some_and(RouterActor::done));
    }
    fn take_obs_events(&mut self) -> Vec<simnet::obs::Event> {
        Simulation::take_obs_events(self)
    }
    fn read<T: 'static, R>(&mut self, id: ActorId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.actor_as(id).map(f)
    }
    fn totals(&mut self) -> KernelTotals {
        let peak = self.metrics().peak_queue_len;
        KernelTotals::new(self.now(), self.metrics(), vec![peak])
    }
}

impl ShardedKernel for ParSimulation<Msg> {
    fn for_scenario(scenario: &ShardedScenario, parts: usize) -> Self {
        let mut sim = ParSimulation::new(scenario.seed, parts, scenario.delay.min_delay());
        sim.set_threads(scenario.threads);
        sim.set_default_delay(scenario.delay.clone());
        if scenario.record_events {
            sim.enable_obs();
        }
        sim
    }
    fn place<T: Actor<Msg> + Send>(&mut self, partition: usize, actor: T) -> ActorId {
        self.add_to(partition, actor)
    }
    fn crash_at(&mut self, actor: ActorId, at: Time) {
        ParSimulation::crash_at(self, actor, at);
    }
    fn announce_leader(&mut self, at: Time, targets: &[ActorId], leader: ActorId) {
        ParSimulation::announce_leader(self, at, targets, leader);
    }
    fn run_until_done(&mut self, max: Time, router: ActorId) {
        self.run_until(max, |k| k.actor_as(router).is_some_and(RouterActor::done));
    }
    fn take_obs_events(&mut self) -> Vec<simnet::obs::Event> {
        ParSimulation::take_obs_events(self)
    }
    fn read<T: 'static, R>(&mut self, id: ActorId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.with_actors(|view| view.actor_as(id).map(f))
    }
    fn totals(&mut self) -> KernelTotals {
        let peaks = self.partition_peak_queue_lens();
        KernelTotals::new(self.now(), &self.merged_metrics(), peaks)
    }
}

/// The one sharded run path: checks the scenario's preconditions
/// ([`ShardedScenario::validate`]; a violated one panics with its
/// message), builds the deployment on a kernel `K` (each group's replicas
/// and memories on the partition [`GroupTopology::partition_of_group`]
/// assigns it out of `parts`, the router on partition 0), scripts the
/// leader crashes and Ω announcements, lets `setup` instrument the built
/// kernel before the first dispatch, runs until the router is done, and
/// reduces.
fn run_sharded_on<K: ShardedKernel>(
    parts: usize,
    scenario: &ShardedScenario,
    setup: impl FnOnce(&mut K),
) -> (ShardedRunReport, Vec<simnet::obs::Event>) {
    scenario
        .validate()
        .unwrap_or_else(|broken| panic!("{broken}"));
    let mut kernel = K::for_scenario(scenario, parts);
    let topo = &scenario.topology();
    let workload = partitioned_workload(scenario);
    let byz = byz_auth(scenario, topo);
    for g in 0..scenario.groups {
        let part = topo.partition_of_group(g, parts);
        for i in 0..scenario.n {
            let expect = topo.procs(g)[i];
            let backlog = &workload.backlogs[g];
            let id = place_sharded_replica(
                &mut kernel,
                part,
                scenario,
                topo,
                byz.as_ref(),
                backlog,
                g,
                i,
            );
            debug_assert_eq!(id, expect);
        }
        for &mem in &topo.mems(g) {
            let id = kernel.place(part, sharded_memory(scenario, topo, g));
            debug_assert_eq!(id, mem);
        }
    }
    let router_id = kernel.place(0, build_router(scenario, topo, workload));
    assert_eq!(router_id, topo.router(), "router must be the last actor");

    for &(g, t) in &scenario.crash_leaders {
        kernel.crash_at(topo.initial_leader(g), Time::from_delays(t));
    }
    for &(g, i, t) in &scenario.announce {
        let mut targets = topo.procs(g);
        targets.push(topo.router());
        kernel.announce_leader(Time::from_delays(t), &targets, topo.procs(g)[i]);
    }
    setup(&mut kernel);

    kernel.run_until_done(Time::from_delays(scenario.max_delays), router_id);

    let events = kernel.take_obs_events();
    // Per group, per replica; adversary-occupied slots read as empty.
    let replicas: Vec<Vec<ReplicaState>> = (0..scenario.groups)
        .map(|g| {
            let state_of = |&p: &Pid| match scenario.mode_of(g) {
                GroupMode::CrashPmp => kernel.read(p, SmrNode::replica_state),
                GroupMode::Byzantine => kernel.read(p, ByzSmrNode::replica_state),
            };
            (topo.procs(g).iter().map(state_of))
                .map(Option::unwrap_or_default)
                .collect()
        })
        .collect();
    let totals = kernel.totals();
    let report = kernel
        .read(router_id, |router| {
            reduce_sharded(scenario, router, &replicas, totals)
        })
        .expect("router exists");
    (report, events)
}

/// Reduces one sharded run's raw outcome (per-group replica states + the
/// router's observations + the kernel's totals) to a [`ShardedRunReport`].
fn reduce_sharded(
    scenario: &ShardedScenario,
    router: &RouterActor,
    replicas: &[Vec<ReplicaState>],
    kernel: KernelTotals,
) -> ShardedRunReport {
    // The router's *final* assignment: migrated ids point at their
    // destination group, everything else at its workload partition. A
    // migrated id may legitimately sit in its old source log too — if it
    // committed there pre-flip the router usually never re-assigned it,
    // but a commit notification racing the flip (counted as
    // `cross_epoch_commits`) re-assigns an id whose source commit was
    // legitimate. Each such race explains at most one mismatched log
    // entry, so the leak verdict tolerates exactly that many.
    let group_of = router.group_assignment();
    let mut groups = Vec::with_capacity(scenario.groups);
    let mut assignment_mismatches = 0u64;
    let mut all_latencies: Vec<Vec<u64>> = Vec::with_capacity(scenario.groups);
    for (g, group) in replicas.iter().enumerate() {
        let logs = || group.iter().map(|r| &r.log);
        let longest = logs().max_by_key(|l| l.len()).cloned().unwrap_or_default();
        let logs_agree = logs().all(|l| longest[..l.len()] == l[..]);
        for v in &longest {
            let id = v.client_id(scenario.total_cmds);
            if id.is_some_and(|id| group_of[id] as usize != g) {
                assignment_mismatches += 1;
            }
        }
        let mut lat = router.group_latencies_ticks(g).to_vec();
        lat.sort_unstable();
        groups.push(ShardGroupReport {
            entries: longest.len(),
            committed: router.group_committed(g),
            p50_latency_ticks: sharded::metrics::percentile_sorted_ticks(&lat, 50.0),
            p99_latency_ticks: sharded::metrics::percentile_sorted_ticks(&lat, 99.0),
            max_commit_gap_ticks: sharded::metrics::max_gap_ticks(router.group_commit_times(g)),
            logs_agree,
            mode: scenario.mode_of(g),
            log: longest,
        });
        all_latencies.push(lat);
    }
    let service = sharded::metrics::merged_sorted_ticks(&all_latencies);
    let committed = router.committed_total();
    let sum_over_replicas =
        |counter: fn(&ReplicaState) -> u64| replicas.iter().flatten().map(counter).sum::<u64>();
    let elapsed = kernel.elapsed;
    let elapsed_delays = elapsed.as_delays();
    // Last-quartile throughput: commits observed after 3/4 of the run's
    // virtual time, over the remaining quarter.
    let tail_start = Time(elapsed.0 - elapsed.0 / 4);
    let tail_commits: usize = (0..scenario.groups)
        .map(|g| {
            let times = router.group_commit_times(g);
            times.len() - times.partition_point(|&t| t < tail_start)
        })
        .sum();
    let tail_committed_per_delay =
        tail_commits as f64 / (elapsed_delays / 4.0).max(f64::MIN_POSITIVE);
    ShardedRunReport {
        total_entries: groups.iter().map(|g| g.entries).sum(),
        committed,
        all_committed: committed >= scenario.total_cmds,
        all_logs_agree: groups.iter().all(|g| g.logs_agree),
        no_cross_group_leak: assignment_mismatches <= router.cross_epoch_commits(),
        elapsed_delays,
        committed_per_delay: committed as f64 / elapsed_delays.max(f64::MIN_POSITIVE),
        tail_committed_per_delay,
        events_dispatched: kernel.events_dispatched,
        messages: kernel.messages,
        mem_ops: kernel.mem_ops,
        mem_range_rows: kernel.mem_range_rows,
        peak_queue_len: (kernel.partition_peak_queue_lens.iter().copied().max()).unwrap_or(0),
        partition_peak_queue_lens: kernel.partition_peak_queue_lens,
        duplicates_suppressed: sum_over_replicas(|r| r.duplicates_suppressed),
        service_p50_latency_ticks: sharded::metrics::percentile_sorted_ticks(&service, 50.0),
        service_p99_latency_ticks: sharded::metrics::percentile_sorted_ticks(&service, 99.0),
        migrations_completed: router.migrations_completed(),
        migration_windows_ticks: router.migration_windows_ticks(),
        routing_table_version: router.routing_version(),
        rerouted_commands: router.rerouted_commands(),
        cross_epoch_commits: router.cross_epoch_commits(),
        equivocations_blocked: sum_over_replicas(|r| r.equivocations_blocked),
        byz_receipts_rejected: sum_over_replicas(|r| r.receipts_rejected),
        byz_entries_rejected: sum_over_replicas(|r| r.entries_rejected),
        byz_unconfirmed_claims: router.byz_unconfirmed_claims(),
        byz_withheld_reports: router.byz_withheld_reports(),
        byz_fast_commits: sum_over_replicas(|r| r.fast_commits),
        byz_fast_confirms: router.byz_fast_confirms(),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_delay_numbers() {
        // The E2 table in one test: who is k-deciding for which k.
        let s = Scenario::common_case(3, 3, 42);
        assert_eq!(run_mp_paxos(&s).first_decision_delays, Some(2.0));
        assert_eq!(run_fast_paxos(&s, 1).first_decision_delays, Some(2.0));
        assert_eq!(run_disk_paxos(&s).first_decision_delays, Some(4.0));
        assert_eq!(run_protected(&s).first_decision_delays, Some(2.0));
        assert_eq!(run_fast_robust(&s, 60).0.first_decision_delays, Some(2.0));
        assert!(run_robust_backup(&s).0.first_decision_delays.unwrap() > 6.0);
    }

    #[test]
    fn reports_flag_agreement_and_validity() {
        let s = Scenario::common_case(3, 3, 7);
        for report in [
            run_mp_paxos(&s),
            run_disk_paxos(&s),
            run_protected(&s),
            run_aligned(&s, MemoryMode::DiskStyle),
            run_fast_robust(&s, 60).0,
        ] {
            assert!(report.all_decided, "{report:?}");
            assert!(report.agreement, "{report:?}");
            assert!(report.validity, "{report:?}");
        }
    }

    #[test]
    fn crash_runners_treat_byz_silent_as_crashed_from_the_start() {
        // Every crash runner reports a silenced pair exactly as it reports
        // the same pair crashed at time zero...
        let fingerprint = |r: RunReport| {
            let counts = (r.messages, r.mem_ops, r.elapsed_delays);
            (r.decisions, r.first_decision_delays, counts)
        };
        let mut silent = Scenario::common_case(3, 3, 9);
        silent.max_delays = 200;
        let mut crashed = silent.clone();
        silent.byz_silent = vec![1, 2];
        crashed.crash_procs = vec![(1, 0), (2, 0)];
        let runners: [fn(&Scenario) -> RunReport; 6] = [
            run_mp_paxos,
            |s| run_fast_paxos(s, 0),
            run_disk_paxos,
            run_protected,
            |s| run_aligned(s, MemoryMode::Protected),
            |s| run_aligned(s, MemoryMode::DiskStyle),
        ];
        for (i, run) in runners.into_iter().enumerate() {
            let (silent, crashed) = (run(&silent), run(&crashed));
            assert_eq!(fingerprint(silent), fingerprint(crashed), "runner {i}");
        }
        // ... so message-passing Paxos, left without a majority, blocks —
        // it used to decide, with the "silent" processes voting.
        assert!(run_mp_paxos(&silent).decisions.is_empty());
        assert_eq!(run_protected(&silent).decisions.len(), 1);
    }

    #[test]
    fn smr_harness_batching_preserves_log_and_speeds_commit() {
        let mut s = Scenario::common_case(3, 3, 5);
        s.max_delays = 400;
        let unbatched = run_smr(&s, 40, 1);
        assert_eq!(unbatched.entries, 40);
        assert!(unbatched.logs_agree);

        let batched = run_smr(&s, 40, 8);
        assert_eq!(batched.entries, 40);
        assert!(batched.logs_agree);
        // Identical committed history; only the commit cadence changes.
        assert_eq!(batched.log, unbatched.log);
        let t_batched = batched.decided_at_delays.last().copied().unwrap();
        let t_unbatched = unbatched.decided_at_delays.last().copied().unwrap();
        assert_eq!(t_unbatched, 80.0); // 2 delays per entry
        assert_eq!(t_batched, 10.0); // 2 delays per batch of 8
        assert!(batched.mem_ops < unbatched.mem_ops / 4);
    }

    #[test]
    fn sharded_open_loop_g1_keeps_the_single_group_pipeline() {
        let mut sc = ShardedScenario::common_case(1, 3, 3, 5);
        sc.total_cmds = 40;
        sc.window = 0; // open loop: preloaded leader, router observes
        sc.max_delays = 400;
        let r = run_sharded(&sc);
        assert!(r.all_committed, "{r:?}");
        assert!(r.all_logs_agree && r.no_cross_group_leak);
        assert_eq!(r.groups[0].entries, 40);
        assert_eq!(r.groups[0].committed, 40);
        // The group keeps run_smr's cadence: one entry per replicated
        // write, two delays each; the router observes one delay later.
        assert_eq!(
            r.groups[0].max_commit_gap_ticks,
            2 * simnet::TICKS_PER_DELAY
        );
        assert_eq!(r.elapsed_delays, 81.0);
    }

    #[test]
    fn sharded_closed_loop_commits_everything_across_groups() {
        let mut sc = ShardedScenario::common_case(4, 3, 3, 11);
        sc.total_cmds = 200;
        sc.batch = 4;
        sc.window = 8;
        let r = run_sharded(&sc);
        assert!(r.all_committed, "{r:?}");
        assert!(r.all_logs_agree && r.no_cross_group_leak);
        assert_eq!(r.committed, 200);
        assert_eq!(r.groups.iter().map(|g| g.committed).sum::<usize>(), 200);
        for (g, report) in r.groups.iter().enumerate() {
            assert!(report.committed > 0, "group {g} starved: {report:?}");
            assert!(report.p50_latency_ticks > 0);
            assert!(report.p99_latency_ticks >= report.p50_latency_ticks);
        }
    }

    #[test]
    fn sharded_failover_stalls_one_group_and_spares_the_rest() {
        let mut sc = ShardedScenario::common_case(3, 3, 3, 13);
        sc.total_cmds = 150;
        sc.window = 4;
        sc.max_delays = 5_000;
        sc.crash_leaders = vec![(1, 9)];
        sc.announce = vec![(1, 1, 60)];
        let r = run_sharded(&sc);
        assert!(r.all_committed, "{r:?}");
        assert!(r.all_logs_agree && r.no_cross_group_leak);
        // The crashed group's failover window dominates its commit gaps;
        // untouched groups never stall anywhere near it.
        let stalled = r.groups[1].max_commit_gap_ticks;
        assert!(
            stalled >= 50 * simnet::TICKS_PER_DELAY,
            "no failover stall visible: {stalled}"
        );
        for g in [0, 2] {
            assert!(
                r.groups[g].max_commit_gap_ticks < stalled / 2,
                "group {g} stalled too: {:?}",
                r.groups[g].max_commit_gap_ticks
            );
        }
    }

    #[test]
    fn event_stream_spans_cover_the_lifecycle_and_leave_the_run_untouched() {
        let mut sc = ShardedScenario::common_case(2, 3, 3, 21);
        sc.total_cmds = 60;
        sc.window = 8;
        sc.group_modes = vec![GroupMode::CrashPmp, GroupMode::Byzantine];
        let (base, untraced) = run_sharded_with_events(&sc);
        assert!(base.all_committed, "{base:?}");
        assert!(untraced.is_empty(), "recording off by default");

        let mut traced = sc.clone();
        traced.record_events = true;
        let (r, events) = run_sharded_with_events(&traced);
        assert!(!events.is_empty(), "recording produced events");
        // Observation is read-only: the traced run's report equals the
        // untraced one.
        assert_eq!(r, base);
        let spans = crate::spans::aggregate_spans(&events, sc.groups, sc.total_cmds);
        // Both groups' commands traversed every stage.
        assert_eq!(spans.len(), 2);
        for (g, stats) in spans.iter().enumerate() {
            assert_eq!(stats.group, g);
            assert_eq!(
                stats.spans as usize, r.groups[g].committed,
                "group {g}: every committed command spans submit→confirm"
            );
            let total = stats.stage("total").unwrap();
            assert_eq!(total.count(), stats.spans);
            assert!(total.p99() >= total.p50());
            for name in ["route", "propose", "decide", "confirm"] {
                assert!(
                    stats.stage(name).unwrap().count() > 0,
                    "group {g}: no {name} transitions"
                );
            }
        }
        // The Byzantine group's confirm stage carries the f + 1 quorum
        // wait; the crash group's confirm is one observer notification.
        let byz_confirm = spans[1].stage("confirm").unwrap().p50();
        let crash_confirm = spans[0].stage("confirm").unwrap().p50();
        assert!(
            byz_confirm >= crash_confirm,
            "byz confirm {byz_confirm} < crash confirm {crash_confirm}"
        );
    }

    #[test]
    fn cluster_builds_the_deployment_and_queues_its_script_unrun() {
        use simnet::obs::EventBody;
        let mut s = Scenario::common_case(3, 2, 4);
        s.byz_silent = vec![1];
        s.crash_procs = vec![(2, 0)];
        s.crash_mems = vec![(1, 0)];
        s.announce = vec![(0, 0)];
        let mut sim = s.cluster(
            |i, procs, mems| {
                assert_eq!((procs.clone(), mems), (s.procs(), s.mems()));
                let retry = Duration::from_delays(25);
                Box::new(PaxosActor::new(
                    procs[i],
                    procs,
                    Scenario::input(i),
                    None,
                    retry,
                ))
            },
            s.memories(|_| protected::memory_actor(LEADER)),
        );
        // Processes at 0..n, a silent stand-in at every `byz_silent`
        // slot, memories at n..n+m, and nothing else.
        let is_paxos = |p| sim.actor_as::<PaxosActor>(p).is_some();
        assert!(is_paxos(ActorId(0)) && is_paxos(ActorId(2)));
        assert!(sim.actor_as::<adversary::Scripted>(ActorId(1)).is_some());
        assert_eq!(s.mems(), [ActorId(3), ActorId(4)]);
        assert!(s
            .mems()
            .iter()
            .all(|&m| sim.actor_as::<Memory>(m).is_some()));
        assert!(sim.actor_as::<Memory>(ActorId(5)).is_none());
        // Built, not run.
        assert_eq!(
            (sim.now(), sim.metrics().events_dispatched),
            (Time::ZERO, 0)
        );
        // The script is queued ahead of every start, in `crash_procs`,
        // `crash_mems`, `announce` order: all at time zero, so the queue's
        // own order is what dispatches them.
        sim.enable_obs();
        sim.run_to_quiescence(Time::ZERO);
        let script: Vec<(u32, EventBody)> = (sim.take_obs_events().into_iter())
            .map(|e| (e.actor.0, e.body))
            .take(5)
            .collect();
        let elected = || EventBody::LeaderChange { leader: LEADER };
        let dropped = EventBody::Dropped { kind: "leader" };
        let (crashed, mem_crashed) = ((2, EventBody::Crash), (4, EventBody::Crash));
        let want = [
            crashed,
            mem_crashed,
            (0, elected()),
            (1, elected()),
            (2, dropped),
        ];
        assert_eq!(script, want);
    }

    #[test]
    fn a_cluster_run_by_hand_reports_what_its_run_function_does() {
        // A failover: the leader crashes mid-write, a memory dies, Ω moves.
        let mut s = Scenario::common_case(3, 3, 12);
        s.crash_procs = vec![(0, 1)];
        s.crash_mems = vec![(2, 1)];
        s.announce = vec![(20, 1)];
        let mut sim = s.cluster(
            |i, procs, mems| {
                let (input, retry) = (Scenario::input(i), Duration::from_delays(25));
                let f_m = tolerated(mems.len());
                let a = ProtectedPaxosActor::new(
                    procs[i],
                    procs,
                    mems,
                    Instance(0),
                    input,
                    LEADER,
                    f_m,
                    retry,
                );
                Box::new(a)
            },
            s.memories(|_| protected::memory_actor(LEADER)),
        );
        let correct = [ActorId(1), ActorId(2)];
        let decided = |sim: &_| decisions(sim, &correct, ProtectedPaxosActor::decision);
        sim.run_until(Time::from_delays(s.max_delays), |sim| {
            decided(sim).iter().all(Option::is_some)
        });
        let report = run_protected(&s);
        assert!(report.all_decided && report.agreement, "{report:?}");
        let by_hand = (
            correct
                .into_iter()
                .zip(decided(&sim).into_iter().flatten())
                .collect(),
            sim.metrics().first_decision_delays(),
            (sim.metrics().messages_sent, sim.metrics().mem_ops()),
            sim.now().as_delays(),
        );
        let counts = (report.messages, report.mem_ops);
        let reported = (
            report.decisions,
            report.first_decision_delays,
            counts,
            report.elapsed_delays,
        );
        assert_eq!(by_hand, reported);
    }

    #[test]
    fn scenario_accounting() {
        let mut s = Scenario::common_case(5, 3, 1);
        s.crash_procs.push((4, 0));
        s.byz_silent.push(3);
        assert_eq!(s.correct_procs(), vec![0, 1, 2]);
        assert_eq!(s.procs().len(), 5);
        assert_eq!(s.mems().len(), 3);
        assert_eq!(s.mems()[0], ActorId(5));
    }
}
