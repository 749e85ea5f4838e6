//! The router: the sharded service's client-facing actor.
//!
//! One router fronts all `G` groups. It owns the partitioned command
//! backlogs, tracks each group's current leader (from the same Ω
//! announcements the replicas receive), keeps up to `window` commands in
//! flight per group ([`Msg::Submit`] batches to the leader), and observes
//! commits through the leaders' `Decided`/`DecidedMany` notifications
//! (it is registered as an observer on every replica). From those
//! observations it derives the service-level metrics: per-command decision
//! latency, per-group commit timelines, and completion.
//!
//! **Failover.** When Ω announces a new leader for a group, the router
//! re-submits every in-flight (submitted, not yet observed committed)
//! command of that group to the new leader. A command the crashed leader
//! actually committed may therefore appear twice in the group's log —
//! at-least-once delivery, the standard client-retry contract; the state
//! machine dedups. Latency and completion metrics count each command
//! once, at its first observed commit, timed from its *first* submission
//! (so failover stalls show up in the tail).
//!
//! **Session tagging.** Every command carries its client-session tag
//! `(client_id, seq)` in the value itself: the router is the service's
//! single client (`client_id` is implicitly 0) and the dense 1-based
//! command id assigned by the workload generator is the session sequence
//! number. Replicas with [`crate::smr::SmrNode::with_session_dedup`]
//! enabled use that tag to suppress re-proposals of already-decided
//! commands, upgrading the failover path to exactly-once application; the
//! harness surfaces the count as `duplicates_suppressed`.
//!
//! **Rebalancing** ([`RouterActor::with_rebalance`]). Instead of the
//! static key hash, routing follows a versioned
//! [`rebalance::RoutingTable`] the router mutates at run time: scripted
//! and policy-triggered key-range migrations run the seal → snapshot →
//! install → flip protocol described in [`rebalance`], with the control
//! entries committed through the source and destination groups' own
//! replicated logs. During a migration the router holds back the
//! migrating range's commands; at the epoch flip it re-routes them — plus
//! any in-flight commands that straddled the epoch — to the destination,
//! preserving per-key order and (via the session-dedup ids) exactly-once
//! application. Off by default: without it the router is bit-identical to
//! the static-hash service.

use std::collections::{BTreeMap, VecDeque};

use simnet::{Actor, Context, Duration, EventKind, Time};
use swmr::quorum::tolerated;

use crate::types::{Cmds, Msg, Pid, Value};

use super::rebalance::{
    self, CtrlEntry, KeyRange, MigrationSpec, RebalancePolicy, RoutingTable, ScriptedMigration,
};
use super::workload::PartitionedWorkload;
use super::{GroupMode, GroupTopology};

/// Timer tag of the rebalance policy's periodic load check.
const POLICY_TAG: u64 = 1;
/// Timer tag of the arrival pump (paced-arrival mode only).
const ARRIVAL_TAG: u64 = 2;
/// Timer tags `SCRIPT_TAG_BASE + i` fire scripted migration `i`.
const SCRIPT_TAG_BASE: u64 = 16;

/// How often the arrival pump wakes the router to release newly arrived
/// commands, in ticks (a quarter network delay: fine-grained enough that
/// pacing granularity never shows in whole-delay metrics).
const ARRIVAL_PUMP_TICKS: u64 = simnet::TICKS_PER_DELAY / 4;

/// Per-group routing and progress state.
#[derive(Debug)]
struct GroupState {
    /// The replica the router currently believes leads this group.
    leader: Pid,
    /// The group's failure mode ([`RouterActor::with_group_modes`]).
    mode: GroupMode,
    /// Commands assigned to this group, not yet submitted.
    backlog: VecDeque<Value>,
    /// Commands submitted at least once, in first-submission order
    /// (append-only except for epoch flips, which move straddling
    /// commands out; commits are tracked by id, not by removal).
    submitted: Vec<Value>,
    /// Migration control entries (seal/install) submitted to this group
    /// and not yet observed committed; re-sent on failover like any
    /// in-flight command.
    ctrl_in_flight: Vec<Value>,
    /// Decision latency of each command, in ticks, first-commit order.
    latencies_ticks: Vec<u64>,
    /// When each unique commit was observed (the group's commit timeline):
    /// one entry per unique command observed committed.
    commit_times: Vec<Time>,
}

impl GroupState {
    /// Unique commands observed committed.
    fn committed(&self) -> usize {
        self.commit_times.len()
    }

    fn in_flight(&self) -> usize {
        self.submitted.len() - self.committed()
    }
}

/// One completed migration, for the run report.
#[derive(Clone, Copy, Debug)]
struct MigrationRecord {
    triggered: Time,
    completed: Time,
}

/// The in-progress migration.
#[derive(Debug)]
struct ActiveMigration {
    spec: MigrationSpec,
    /// Sealing: waiting for the seal to commit at the source.
    /// Installing (`sealed == true`): waiting for the install at the
    /// destination.
    sealed: bool,
    triggered: Time,
    /// Commands for the migrating range encountered (and held) while the
    /// migration runs, in id order.
    held: Vec<Value>,
}

/// Dynamic-routing state: present iff the router was built
/// [`RouterActor::with_rebalance`].
#[derive(Debug)]
struct RebalanceState {
    table: RoutingTable,
    /// Key of command id `i` (from the partitioned workload).
    keys: Vec<u64>,
    policy: Option<RebalancePolicy>,
    scripted: Vec<ScriptedMigration>,
    active: Option<ActiveMigration>,
    /// Triggers that arrived while another migration was active.
    queued: VecDeque<(KeyRange, usize)>,
    next_mig_id: u64,
    completed: Vec<MigrationRecord>,
    /// Commands re-routed across an epoch flip (straddlers + held +
    /// backlog moves).
    rerouted: u64,
    /// Commits observed in a group the command was no longer assigned to
    /// (a late notification racing the epoch flip; 0 on FIFO schedules).
    /// Each such race may leave one duplicate log entry at the
    /// destination (its replicas' dedup was never primed with the id)
    /// and shrinks the destination's effective window by one — the
    /// documented residue of router-side snapshots; the counter bounds
    /// both effects.
    cross_epoch_commits: u64,
}

/// Byzantine-commit confirmation: present iff any group runs
/// [`GroupMode::Byzantine`]. In a Byzantine group a single replica's
/// `Decided` notification proves nothing (the sender may be lying), so
/// the router buffers per-value reporter sets and forwards an observation
/// to the normal commit path only once `f + 1` *distinct* replicas of the
/// group have reported it — at least one of them is then correct.
///
/// A `(group, value)` pair's reporters live in one of two places. The
/// pairs the service produces by the thousand — a client command reported
/// by the group it is currently assigned to — sit in `own`, one mask per
/// command id, sized by the workload. Everything else a replica may
/// report (fillers, control entries, junk, ids above the workload, another
/// group's commands) sits in the ordered `other` map. An epoch flip moves
/// a re-assigned id's entries between the two ([`reassign`]), so
/// every pair always has exactly one home.
#[derive(Debug)]
struct ByzConfirm {
    /// Reports needed before an observation counts (`f + 1`).
    quorum: u32,
    /// `own[id]`: the distinct reporters of command `id` from the group
    /// `group_of[id]` names, as a bitmask with bit `i` for the replica at
    /// position `i` of the group's id block; 0 before any report,
    /// [`CONFIRMED`] once confirmed (which keeps a straggling post-quorum
    /// report from re-opening the entry). Index 0 is unused.
    own: Vec<u64>,
    /// `(group, value) → reporters`, in the same encoding, for every pair
    /// `own` does not hold.
    other: BTreeMap<(usize, u64), u64>,
    /// Reports withheld from the commit path pending their quorum (the
    /// cumulative work the confirmation layer did; every fabricated
    /// claim lands here at least once).
    withheld: u64,
    /// Whether the deployment's Byzantine leaders run the speculative
    /// fast path (their report arrives at the broadcast write ack rather
    /// than self-delivery). Purely observational at the router: the
    /// `f + 1` distinct-report quorum is never relaxed — the fast path
    /// moves the *leader's* report earlier, and this flag tracks how
    /// often that early report was load-bearing.
    fast_path: bool,
    /// Confirmations where the group leader's speculative report was
    /// already in the reporter set when a follower's corroboration
    /// completed the quorum — the commits the fast path confirmed at the
    /// earliest sound point.
    fast_confirms: u64,
}

/// A reporter mask that has been confirmed. No open mask equals it: an
/// open mask has fewer than `f + 1 ≤ 32` bits set in a group of at most 64.
const CONFIRMED: u64 = u64::MAX;

/// The router actor. Build with [`RouterActor::new`], register it *after*
/// all group replicas and memories so its id matches
/// [`GroupTopology::router`].
#[derive(Debug)]
pub struct RouterActor {
    topo: GroupTopology,
    /// Per-group in-flight window; `0` means open-loop (the harness
    /// preloaded every backlog into the initial leaders, and the router
    /// only observes).
    window: usize,
    groups: Vec<GroupState>,
    /// Current group assignment of command id `i` (from the partitioned
    /// workload; epoch flips re-assign migrated ids).
    group_of: Vec<u32>,
    /// First-submission time of command id `i`, in ticks.
    submit_ticks: Vec<u64>,
    /// Whether command id `i` has been observed committed.
    committed: Vec<bool>,
    committed_total: usize,
    total: usize,
    rebalance: Option<RebalanceState>,
    /// Paced-arrival mode: command `i` arrives (becomes eligible, and
    /// starts its latency clock) at tick `(i - 1) · interval`. `0` is the
    /// classic everything-at-time-zero run.
    arrival_interval_ticks: u64,
    /// Byzantine-group commit confirmation (absent in all-crash
    /// deployments — the zero-cost default path).
    byz: Option<ByzConfirm>,
}

impl RouterActor {
    /// Creates the router for `topo`, owning `workload`'s backlogs.
    pub fn new(topo: GroupTopology, workload: PartitionedWorkload, window: usize) -> RouterActor {
        let total = workload.total();
        let groups = workload
            .backlogs
            .iter()
            .enumerate()
            .map(|(g, backlog)| GroupState {
                leader: topo.initial_leader(g),
                mode: GroupMode::CrashPmp,
                backlog: backlog.iter().copied().collect(),
                submitted: Vec::new(),
                ctrl_in_flight: Vec::new(),
                latencies_ticks: Vec::new(),
                commit_times: Vec::new(),
            })
            .collect();
        RouterActor {
            topo,
            window,
            groups,
            group_of: workload.group_of,
            submit_ticks: vec![0; total + 1],
            committed: vec![false; total + 1],
            committed_total: 0,
            total,
            rebalance: None,
            arrival_interval_ticks: 0,
            byz: None,
        }
    }

    /// Declares per-group failure modes (index = group; missing entries
    /// default to [`GroupMode::CrashPmp`]). Observations from Byzantine
    /// groups are held until `f + 1` distinct replicas of the group report
    /// the same value, where `n ≥ 2f + 1` is the per-group replica count
    /// (`swmr::quorum::tolerated`). A no-op when every group is crash-mode.
    ///
    /// # Panics
    ///
    /// If a Byzantine group has more than 64 replicas: reporters are kept
    /// as one bit per replica position in a `u64`, and a wider group would
    /// alias two replicas onto one bit.
    pub fn with_group_modes(mut self, modes: Vec<GroupMode>, n: usize) -> RouterActor {
        for (state, &mode) in self.groups.iter_mut().zip(&modes) {
            state.mode = mode;
        }
        if modes.contains(&GroupMode::Byzantine) {
            assert!(
                n <= u64::BITS as usize,
                "a Byzantine group's reporters are a 64-bit mask: n = {n} replicas do not fit"
            );
            self.byz = Some(ByzConfirm {
                quorum: (tolerated(n) + 1) as u32,
                own: vec![0; self.total + 1],
                other: BTreeMap::new(),
                withheld: 0,
                fast_path: false,
                fast_confirms: 0,
            });
        }
        self
    }

    /// Declares that Byzantine-mode leaders run the speculative fast
    /// path, so their reports arrive at the broadcast write ack. The
    /// confirmation quorum is unchanged (reducing it below `f + 1`
    /// distinct reports would let a lying leader plus stragglers commit
    /// fabricated claims); the router just counts how often the leader's
    /// early report completed a quorum ([`RouterActor::byz_fast_confirms`]).
    /// Call after [`RouterActor::with_group_modes`]; a no-op on all-crash
    /// deployments.
    pub fn with_byz_fast_path(mut self) -> RouterActor {
        if let Some(byz) = self.byz.as_mut() {
            byz.fast_path = true;
        }
        self
    }

    /// Whether group `g`'s observations need Byzantine confirmation.
    fn byz_group(&self, g: usize) -> bool {
        self.groups[g].mode == GroupMode::Byzantine
    }

    /// Runs one raw observation through Byzantine confirmation. Returns
    /// true exactly when the observation should enter the normal commit
    /// path: immediately for crash groups, at the `f + 1`-th distinct
    /// reporter for Byzantine ones (later duplicates are dropped — the
    /// commit path already ran).
    fn confirm(&mut self, g: usize, from: Pid, v: Value) -> bool {
        if !self.byz_group(g) {
            return true;
        }
        let leader = self.groups[g].leader;
        let block = self.topo.block() as u32;
        let bit = |p: Pid| 1u64 << (p.0 % block);
        let total = self.total;
        let own = v
            .client_id(total)
            .filter(|&id| self.group_of[id] as usize == g);
        let byz = self.byz.as_mut().expect("byz_group implies state");
        let reporters = match own {
            Some(id) => &mut byz.own[id],
            None => byz.other.entry((g, v.0)).or_insert(0),
        };
        if *reporters == CONFIRMED {
            return false; // already confirmed; stale re-report
        }
        let new_reporter = *reporters & bit(from) == 0;
        *reporters |= bit(from);
        if reporters.count_ones() >= byz.quorum {
            if byz.fast_path && from != leader && *reporters & bit(leader) != 0 {
                // The leader's speculative write-ack report was already
                // banked when this follower corroboration closed the
                // quorum: the fast path bought this commit its headroom.
                byz.fast_confirms += 1;
            }
            *reporters = CONFIRMED;
            return true;
        }
        if new_reporter {
            byz.withheld += 1;
        }
        false
    }

    /// Observed claims from Byzantine groups still short of their `f + 1`
    /// confirmation quorum — a lying leader's claims for commits *no
    /// honest quorum ever backed* end the run here. (On a run cut off at
    /// its `max_delays` budget this can also include honest reports whose
    /// corroboration was still in flight; completed runs drain those.)
    pub fn byz_unconfirmed_claims(&self) -> u64 {
        self.byz.as_ref().map_or(0, |b| {
            let open = |&&r: &&u64| r != 0 && r != CONFIRMED;
            (b.own.iter().filter(open).count() + b.other.values().filter(open).count()) as u64
        })
    }

    /// Reports from Byzantine groups withheld from the commit path
    /// pending their confirmation quorum, cumulative over the run.
    pub fn byz_withheld_reports(&self) -> u64 {
        self.byz.as_ref().map_or(0, |b| b.withheld)
    }

    /// Confirmations where a fast-path leader's speculative write-ack
    /// report was load-bearing — already in the reporter set when a
    /// follower's corroboration completed the `f + 1` quorum (0 unless
    /// [`RouterActor::with_byz_fast_path`] is on).
    pub fn byz_fast_confirms(&self) -> u64 {
        self.byz.as_ref().map_or(0, |b| b.fast_confirms)
    }

    /// Enables paced arrivals: command `i` becomes eligible for
    /// submission at tick `(i - 1) · interval_ticks`, and its decision
    /// latency is measured from that arrival — so time spent queued in
    /// the router (e.g. behind a hot shard) lands in the latency tail.
    /// Requires a closed-loop window.
    pub fn with_paced_arrivals(mut self, interval_ticks: u64) -> RouterActor {
        assert!(self.window > 0, "paced arrivals need a closed-loop window");
        self.arrival_interval_ticks = interval_ticks.max(1);
        self
    }

    /// Paced-arrival tick of command id `i` (0 when pacing is off).
    fn arrival_tick(&self, id: u64) -> u64 {
        self.arrival_interval_ticks * id.saturating_sub(1)
    }

    /// Enables dynamic routing: `table` must be the (version 0) table the
    /// workload was partitioned with ([`super::partition_with_table`]) and
    /// `keys` the workload's id → key map. `scripted` migrations fire at
    /// their scripted times; `policy`, if any, watches the commit stream
    /// and triggers its own. Requires a closed-loop window (the router
    /// must mediate every submission to hold a sealing range back).
    pub fn with_rebalance(
        mut self,
        table: RoutingTable,
        keys: Vec<u64>,
        policy: Option<RebalancePolicy>,
        scripted: Vec<ScriptedMigration>,
    ) -> RouterActor {
        assert!(
            self.window > 0,
            "rebalancing needs a closed-loop window (router-mediated submission)"
        );
        assert_eq!(
            keys.len(),
            self.total + 1,
            "id → key map must cover the workload"
        );
        self.rebalance = Some(RebalanceState {
            table,
            keys,
            policy,
            scripted,
            active: None,
            queued: VecDeque::new(),
            next_mig_id: 0,
            completed: Vec::new(),
            rerouted: 0,
            cross_epoch_commits: 0,
        });
        self
    }

    /// Whether every command has been observed committed.
    pub fn done(&self) -> bool {
        self.committed_total >= self.total
    }

    /// Unique commands observed committed so far.
    pub fn committed_total(&self) -> usize {
        self.committed_total
    }

    /// Unique commands group `g` has committed.
    pub fn group_committed(&self, g: usize) -> usize {
        self.groups[g].committed()
    }

    /// Decision latencies of group `g`'s commands, in ticks, in
    /// first-commit order.
    pub fn group_latencies_ticks(&self, g: usize) -> &[u64] {
        &self.groups[g].latencies_ticks
    }

    /// Group `g`'s commit-observation timeline.
    pub fn group_commit_times(&self, g: usize) -> &[Time] {
        &self.groups[g].commit_times
    }

    /// The current (post-migration) group assignment of every command id
    /// (index 0 unused). Without rebalancing this is the workload's static
    /// partition.
    pub fn group_assignment(&self) -> &[u32] {
        &self.group_of
    }

    /// Completed migrations so far.
    pub fn migrations_completed(&self) -> usize {
        self.rebalance.as_ref().map_or(0, |rb| rb.completed.len())
    }

    /// Trigger → epoch-flip duration of each completed migration, in ticks.
    pub fn migration_windows_ticks(&self) -> Vec<u64> {
        self.rebalance.as_ref().map_or_else(Vec::new, |rb| {
            rb.completed
                .iter()
                .map(|m| m.completed.0.saturating_sub(m.triggered.0))
                .collect()
        })
    }

    /// The routing table's current version (0 without rebalancing: the
    /// static partition never flips an epoch).
    pub fn routing_version(&self) -> u64 {
        self.rebalance.as_ref().map_or(0, |rb| rb.table.version())
    }

    /// Commands re-routed across epoch flips.
    pub fn rerouted_commands(&self) -> u64 {
        self.rebalance.as_ref().map_or(0, |rb| rb.rerouted)
    }

    /// Commits observed in a group the command was no longer assigned to
    /// (late notifications racing an epoch flip; 0 on FIFO schedules).
    pub fn cross_epoch_commits(&self) -> u64 {
        self.rebalance
            .as_ref()
            .map_or(0, |rb| rb.cross_epoch_commits)
    }

    /// Sends up to `window - in_flight` backlog commands of group `g` to
    /// its current leader, as one `Submit` batch. Commands of a range
    /// that is mid-migration are held back instead (released at the flip).
    fn refill(&mut self, ctx: &mut Context<'_, Msg>, g: usize) {
        if self.window == 0 {
            return; // open loop: everything was preloaded at build time
        }
        // The sealing range, if this group is a migration's source.
        let sealing: Option<KeyRange> = self.rebalance.as_ref().and_then(|rb| {
            rb.active
                .as_ref()
                .filter(|m| m.spec.from == g)
                .map(|m| m.spec.range)
        });
        let state = &mut self.groups[g];
        let room = self.window.saturating_sub(state.in_flight());
        if room == 0 || state.backlog.is_empty() {
            return;
        }
        let now = ctx.now().0;
        // Unpaced, the whole room is sent: size the run exactly. Paced,
        // the pump comes by every quarter delay and most visits release
        // none to two commands, so the run starts inline and grows with
        // what is taken.
        let mut cmds = Cmds::with_capacity(if self.arrival_interval_ticks > 0 {
            0
        } else {
            room.min(state.backlog.len())
        });
        while cmds.len() < room {
            // Paced arrivals: the backlog is released front-gated — the
            // group submits nothing past its first not-yet-arrived
            // command (the backlog is id-ordered up to epoch-flip moves,
            // and a key's ids arrive in order, so this never reorders a
            // key).
            if self.arrival_interval_ticks > 0 {
                match state.backlog.front() {
                    Some(v) if self.arrival_interval_ticks * (v.0 - 1) > now => break,
                    _ => {}
                }
            }
            let Some(v) = state.backlog.pop_front() else {
                break;
            };
            if let Some(range) = sealing {
                let rb = self.rebalance.as_ref().expect("sealing implies rebalance");
                if range.contains(rb.keys[v.0 as usize]) {
                    // Mid-migration: hold the command for the destination.
                    self.rebalance
                        .as_mut()
                        .expect("checked")
                        .active
                        .as_mut()
                        .expect("checked")
                        .held
                        .push(v);
                    continue;
                }
            }
            // First submission stamps the latency clock — at the
            // command's *arrival* when pacing is on (queue wait counts),
            // at submission otherwise. Straddlers re-routed through a
            // later backlog keep their original stamp.
            if self.submit_ticks[v.0 as usize] == 0 {
                self.submit_ticks[v.0 as usize] = if self.arrival_interval_ticks > 0 {
                    self.arrival_interval_ticks * (v.0 - 1)
                } else {
                    now
                };
                ctx.obs_mark(v.0, crate::spans::STAGE_SUBMIT, g as u64);
            }
            state.submitted.push(v);
            cmds.push(v);
        }
        // `state` was reborrowed away by the hold path; fetch it again.
        let state = &mut self.groups[g];
        if !cmds.is_empty() {
            for v in cmds.iter() {
                ctx.obs_mark(v.0, crate::spans::STAGE_ROUTE, g as u64);
            }
            let leader = state.leader;
            ctx.send(leader, Msg::Submit { cmds });
        }
    }

    /// Marks `v` committed by group `g` (first observation only).
    fn observe_commit(&mut self, ctx: &mut Context<'_, Msg>, g: usize, v: Value) {
        let now = ctx.now();
        // Fillers, control entries and junk carry no client command.
        let Some(id) = v.client_id(self.total).filter(|&id| !self.committed[id]) else {
            return;
        };
        match &mut self.rebalance {
            None => debug_assert_eq!(
                self.group_of[id] as usize, g,
                "command leaked across groups"
            ),
            Some(rb) => {
                if self.group_of[id] as usize != g {
                    // A late source-side commit racing the epoch flip: the
                    // command was re-assigned to the destination but the
                    // source committed it first (or its notification was
                    // in flight at the flip). Count it once for the
                    // service, drop the stale copy from the destination's
                    // backlog, and keep per-group accounting out of it.
                    rb.cross_epoch_commits += 1;
                    self.committed[id] = true;
                    self.committed_total += 1;
                    ctx.obs_mark(v.0, crate::spans::STAGE_CONFIRM, g as u64);
                    let dest = self.group_of[id] as usize;
                    self.groups[dest].backlog.retain(|&b| b != v);
                    return;
                }
                if let Some(policy) = &mut rb.policy {
                    policy.observe(rb.keys[id], g);
                }
            }
        }
        self.committed[id] = true;
        self.committed_total += 1;
        ctx.obs_mark(v.0, crate::spans::STAGE_CONFIRM, g as u64);
        let state = &mut self.groups[g];
        state
            .latencies_ticks
            .push(now.0.saturating_sub(self.submit_ticks[id]));
        state.commit_times.push(now);
    }

    /// Re-submits every in-flight command of group `g` to its (new)
    /// leader: the at-least-once failover path. Pending migration control
    /// entries ride along, after the commands they were queued behind.
    fn resubmit_in_flight(&mut self, ctx: &mut Context<'_, Msg>, g: usize) {
        let state = &self.groups[g];
        let submitted = state.submitted.iter().copied();
        let cmds: Cmds = submitted
            .filter(|v| !self.committed[v.0 as usize])
            .chain(state.ctrl_in_flight.iter().copied())
            .collect();
        if !cmds.is_empty() {
            for v in cmds.iter() {
                ctx.obs_mark(v.0, crate::spans::STAGE_ROUTE, g as u64);
            }
            let leader = state.leader;
            ctx.send(leader, Msg::Submit { cmds });
        }
    }

    /// Submits a migration control entry through group `g`'s log.
    fn send_ctrl(&mut self, ctx: &mut Context<'_, Msg>, g: usize, v: Value) {
        self.groups[g].ctrl_in_flight.push(v);
        let leader = self.groups[g].leader;
        let cmds = Cmds::from_iter([v]);
        ctx.send(leader, Msg::Submit { cmds });
    }

    /// Starts (or queues) a migration of `range` to group `to`. Silently
    /// drops triggers the routing table rejects (no single owner, or the
    /// range already lives on `to`).
    fn trigger_migration(&mut self, ctx: &mut Context<'_, Msg>, range: KeyRange, to: usize) {
        let Some(rb) = &mut self.rebalance else {
            return;
        };
        if to >= self.groups.len() {
            return;
        }
        if rb.active.is_some() {
            rb.queued.push_back((range, to));
            return;
        }
        let Some(from) = rb.table.owner_of(range) else {
            return;
        };
        if from == to {
            return;
        }
        let spec = MigrationSpec {
            id: rb.next_mig_id,
            range,
            from,
            to,
        };
        rb.next_mig_id += 1;
        rb.active = Some(ActiveMigration {
            spec,
            sealed: false,
            triggered: ctx.now(),
            held: Vec::new(),
        });
        self.send_ctrl(ctx, from, rebalance::seal_value(spec.id));
    }

    /// Handles an observed migration control-entry commit in group `g`.
    fn observe_ctrl(&mut self, ctx: &mut Context<'_, Msg>, g: usize, ctrl: CtrlEntry, v: Value) {
        self.groups[g].ctrl_in_flight.retain(|&c| c != v);
        let Some(rb) = &mut self.rebalance else {
            return;
        };
        let Some(active) = &mut rb.active else {
            return; // stale re-commit of a finished migration
        };
        let spec = active.spec;
        match ctrl {
            CtrlEntry::Seal { mig } if mig == spec.id && g == spec.from && !active.sealed => {
                active.sealed = true;
                // The deterministic snapshot of decided state for the
                // sealed keys: every range command observed committed at
                // the source, in id order.
                let seen: Vec<u64> = (1..=self.total as u64)
                    .filter(|&id| {
                        self.committed[id as usize] && spec.range.contains(rb.keys[id as usize])
                    })
                    .collect();
                for &p in &self.topo.procs(spec.to) {
                    ctx.send(
                        p,
                        Msg::InstallSnapshot {
                            mig: spec.id,
                            seen: seen.clone(),
                        },
                    );
                }
                self.send_ctrl(ctx, spec.to, rebalance::install_value(spec.id));
            }
            CtrlEntry::Install { mig } if mig == spec.id && g == spec.to && active.sealed => {
                self.flip_epoch(ctx);
            }
            _ => {}
        }
    }

    /// The epoch flip: bump the routing table, move everything the
    /// migration displaced to the destination, and resume both groups.
    fn flip_epoch(&mut self, ctx: &mut Context<'_, Msg>) {
        let rb = self.rebalance.as_mut().expect("flip without rebalance");
        let active = rb.active.take().expect("flip without active migration");
        let spec = active.spec;
        rb.table
            .migrate(spec.range, spec.to)
            .expect("owner validated at trigger time");

        // Straddlers: submitted to the source, never observed committed.
        // The seal commit proves the source will not decide them as ours
        // anymore (their history there ended at the seal), so they replay
        // at the destination — exactly-once via the session-dedup ids.
        let src = &mut self.groups[spec.from];
        let mut straddlers: Vec<Value> = Vec::new();
        src.submitted.retain(|&v| {
            let straddles =
                !self.committed[v.0 as usize] && spec.range.contains(rb.keys[v.0 as usize]);
            if straddles {
                straddlers.push(v);
            }
            !straddles
        });
        // Backlog commands for the range that were never submitted.
        let mut moved: Vec<Value> = Vec::new();
        src.backlog.retain(|&v| {
            let moves = spec.range.contains(rb.keys[v.0 as usize]);
            if moves {
                moved.push(v);
            }
            !moves
        });

        // Destination receives: straddlers (oldest), held (skipped during
        // sealing), then the unsubmitted backlog — per-key id order is
        // preserved because each class is in id order and a key's ids
        // never interleave across classes out of order.
        let dest = &mut self.groups[spec.to];
        for v in straddlers
            .iter()
            .chain(active.held.iter())
            .chain(moved.iter())
        {
            reassign(&mut self.group_of, &mut self.byz, v.0 as usize, spec.to);
            rb.rerouted += 1;
            dest.backlog.push_back(*v);
        }
        // A straddler first submitted at tick 0 carries the stamp refill
        // uses as its "never stamped" sentinel; nudge it to tick 1 (a
        // thousandth of a delay) so the re-submission keeps the original
        // clock instead of restarting it.
        for v in &straddlers {
            if self.submit_ticks[v.0 as usize] == 0 {
                self.submit_ticks[v.0 as usize] = 1;
            }
        }

        rb.completed.push(MigrationRecord {
            triggered: active.triggered,
            completed: ctx.now(),
        });
        let queued = rb.queued.pop_front();
        self.refill(ctx, spec.from);
        self.refill(ctx, spec.to);
        if let Some((range, to)) = queued {
            self.trigger_migration(ctx, range, to);
        }
    }
}

/// Assigns command `id` to group `to` at an epoch flip. Its reports from
/// the group it leaves move from `own` to `other`, and any reports `to`
/// already made move the other way.
fn reassign(group_of: &mut [u32], byz: &mut Option<ByzConfirm>, id: usize, to: usize) {
    if let Some(byz) = byz {
        let was = std::mem::take(&mut byz.own[id]);
        if was != 0 {
            byz.other.insert((group_of[id] as usize, id as u64), was);
        }
        if let Some(reporters) = byz.other.remove(&(to, id as u64)) {
            byz.own[id] = reporters;
        }
    }
    group_of[id] = to as u32;
}

impl Actor<Msg> for RouterActor {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                if let Some(rb) = &self.rebalance {
                    for (i, m) in rb.scripted.iter().enumerate() {
                        ctx.set_timer(
                            Duration::from_delays(m.at_delays),
                            SCRIPT_TAG_BASE + i as u64,
                        );
                    }
                    if let Some(policy) = &rb.policy {
                        ctx.set_timer(
                            Duration::from_delays(policy.check_every_delays()),
                            POLICY_TAG,
                        );
                    }
                }
                if self.window == 0 {
                    // Open loop: the harness preloaded the backlogs into
                    // the initial leaders; account for them as submitted
                    // at time zero.
                    for g in 0..self.groups.len() {
                        let state = &mut self.groups[g];
                        while let Some(v) = state.backlog.pop_front() {
                            state.submitted.push(v);
                            ctx.obs_mark(v.0, crate::spans::STAGE_SUBMIT, g as u64);
                        }
                    }
                } else {
                    for g in 0..self.groups.len() {
                        self.refill(ctx, g);
                    }
                    if self.arrival_interval_ticks > 0 {
                        ctx.set_timer(Duration(ARRIVAL_PUMP_TICKS), ARRIVAL_TAG);
                    }
                }
            }
            EventKind::Timer {
                tag: ARRIVAL_TAG, ..
            } => {
                // The arrival pump: release newly arrived commands into
                // idle groups; runs until the last command has arrived
                // (after that, commit-driven refills cover everything).
                for g in 0..self.groups.len() {
                    self.refill(ctx, g);
                }
                if self.arrival_tick(self.total as u64) > ctx.now().0 {
                    ctx.set_timer(Duration(ARRIVAL_PUMP_TICKS), ARRIVAL_TAG);
                }
            }
            EventKind::Timer {
                tag: POLICY_TAG, ..
            } => {
                let Some(rb) = &mut self.rebalance else {
                    return;
                };
                let migrating = rb.active.is_some();
                let decision = match &mut rb.policy {
                    Some(policy) => {
                        let next = Duration::from_delays(policy.check_every_delays());
                        ctx.set_timer(next, POLICY_TAG);
                        // One migration at a time: while one runs, the
                        // window still resets but nothing triggers — and
                        // no cooldown is consumed on the dropped check.
                        if migrating {
                            policy.skip_window();
                            None
                        } else {
                            policy.decide(&rb.table, ctx.now())
                        }
                    }
                    None => None,
                };
                if let Some((range, to)) = decision {
                    self.trigger_migration(ctx, range, to);
                }
            }
            EventKind::Timer { tag, .. } if tag >= SCRIPT_TAG_BASE => {
                let idx = (tag - SCRIPT_TAG_BASE) as usize;
                let scripted = self
                    .rebalance
                    .as_ref()
                    .and_then(|rb| rb.scripted.get(idx).copied());
                if let Some(m) = scripted {
                    self.trigger_migration(ctx, m.range, m.to);
                }
            }
            EventKind::Timer { .. } => {}
            EventKind::LeaderChange { leader } => {
                let Some(g) = self.topo.group_of_actor(leader) else {
                    return;
                };
                if self.groups[g].leader != leader {
                    self.groups[g].leader = leader;
                    self.resubmit_in_flight(ctx, g);
                }
            }
            EventKind::Msg { from, msg } => {
                let Some(g) = self.topo.group_of_actor(from) else {
                    return;
                };
                match msg {
                    Msg::Decided { value, .. } => {
                        if self.confirm(g, from, value) {
                            self.observe_value(ctx, g, value);
                        }
                        self.refill(ctx, g);
                    }
                    Msg::DecidedMany { values, .. } => {
                        for &v in values.iter() {
                            if self.confirm(g, from, v) {
                                self.observe_value(ctx, g, v);
                            }
                        }
                        self.refill(ctx, g);
                    }
                    _ => {}
                }
            }
        }
    }
}

impl RouterActor {
    /// Routes one observed decided value: migration control entries drive
    /// the migration state machine, everything else is a client commit.
    fn observe_value(&mut self, ctx: &mut Context<'_, Msg>, g: usize, v: Value) {
        match rebalance::decode_ctrl(v) {
            Some(ctrl) => self.observe_ctrl(ctx, g, ctrl, v),
            None => self.observe_commit(ctx, g, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::ActorId;

    /// Two groups of 5 replicas + 3 memories: group 0 crash-mode, group 1
    /// Byzantine (`f + 1` = 3), so group 1's replicas are actors 8..13 and
    /// its initial leader is actor 8.
    fn router(fast_path: bool) -> RouterActor {
        let topo = GroupTopology {
            groups: 2,
            n: 5,
            m: 3,
        };
        let workload = PartitionedWorkload {
            backlogs: vec![Vec::new(), Vec::new()],
            group_of: vec![0],
            keys: vec![0],
        };
        let r = RouterActor::new(topo, workload, 4)
            .with_group_modes(vec![GroupMode::CrashPmp, GroupMode::Byzantine], 5);
        if fast_path {
            r.with_byz_fast_path()
        } else {
            r
        }
    }

    fn replica(i: u32) -> Pid {
        ActorId(8 + i)
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn a_byzantine_group_wider_than_the_mask_is_refused() {
        let topo = GroupTopology {
            groups: 1,
            n: 65,
            m: 1,
        };
        let workload = PartitionedWorkload {
            backlogs: vec![Vec::new()],
            group_of: vec![0],
            keys: vec![0],
        };
        let _ =
            RouterActor::new(topo, workload, 4).with_group_modes(vec![GroupMode::Byzantine], 65);
    }

    #[test]
    fn sixty_four_replicas_fill_the_mask_without_aliasing() {
        let topo = GroupTopology {
            groups: 2,
            n: 64,
            m: 3,
        };
        let workload = PartitionedWorkload {
            backlogs: vec![Vec::new(), Vec::new()],
            group_of: vec![0],
            keys: vec![0],
        };
        let mut r = RouterActor::new(topo, workload, 4)
            .with_group_modes(vec![GroupMode::Byzantine, GroupMode::Byzantine], 64);
        // Group 1's replicas are actors 67..131; f + 1 = 32.
        for q in 0..31 {
            assert!(!r.confirm(1, ActorId(67 + 33 + q), Value(1)));
        }
        assert!(
            !r.confirm(1, ActorId(67 + 63), Value(1)),
            "position 63 repeated"
        );
        assert!(
            r.confirm(1, ActorId(67), Value(1)),
            "position 0 is distinct"
        );
        assert_eq!(r.byz_withheld_reports(), 31);
    }

    #[test]
    fn crash_group_reports_pass_straight_through() {
        let mut r = router(false);
        assert!(r.confirm(0, ActorId(1), Value(7)));
        assert!(r.confirm(0, ActorId(1), Value(7)));
        assert_eq!(r.byz_withheld_reports(), 0);
        assert_eq!(r.byz_unconfirmed_claims(), 0);
    }

    #[test]
    fn one_replica_reporting_twice_never_completes_a_quorum() {
        let mut r = router(false);
        for _ in 0..4 {
            assert!(!r.confirm(1, replica(1), Value(7)));
        }
        assert!(!r.confirm(1, replica(2), Value(7)));
        assert!(!r.confirm(1, replica(2), Value(7)));
        assert_eq!(r.byz_unconfirmed_claims(), 1);
        assert!(
            r.confirm(1, replica(3), Value(7)),
            "third distinct reporter"
        );
        assert_eq!(r.byz_unconfirmed_claims(), 0);
    }

    #[test]
    fn a_report_after_the_quorum_stays_dropped() {
        let mut r = router(false);
        for q in 0..2 {
            assert!(!r.confirm(1, replica(q), Value(9)));
        }
        assert!(r.confirm(1, replica(2), Value(9)));
        for q in [0, 2, 3, 4, 4] {
            assert!(!r.confirm(1, replica(q), Value(9)), "tombstone reopened");
        }
        assert_eq!(r.byz_withheld_reports(), 2);
        assert_eq!(r.byz_unconfirmed_claims(), 0);
        // Another value of the same group is untouched by the tombstone.
        assert!(!r.confirm(1, replica(4), Value(10)));
        assert_eq!(r.byz_unconfirmed_claims(), 1);
    }

    #[test]
    fn withheld_counts_only_new_reporters() {
        let mut r = router(false);
        for q in [1, 1, 1, 2, 1, 2] {
            assert!(!r.confirm(1, replica(q), Value(5)));
        }
        assert_eq!(r.byz_withheld_reports(), 2);
        for q in [0, 0] {
            assert!(!r.confirm(1, replica(q), Value(6)));
        }
        assert_eq!(r.byz_withheld_reports(), 3);
        assert_eq!(r.byz_unconfirmed_claims(), 2);
    }

    #[test]
    fn fast_confirms_count_a_leader_report_that_came_first() {
        let mut r = router(true);
        // Leader first, then two followers: the follower closing the
        // quorum finds the leader's report banked.
        for (q, closes) in [(0, false), (1, false), (2, true)] {
            assert_eq!(r.confirm(1, replica(q), Value(1)), closes);
        }
        assert_eq!(r.byz_fast_confirms(), 1);
        // Followers first, the leader's report closes the quorum itself.
        for (q, closes) in [(1, false), (2, false), (0, true)] {
            assert_eq!(r.confirm(1, replica(q), Value(2)), closes);
        }
        assert_eq!(r.byz_fast_confirms(), 1);
        // No leader report at all.
        for (q, closes) in [(3, false), (1, false), (4, true)] {
            assert_eq!(r.confirm(1, replica(q), Value(3)), closes);
        }
        assert_eq!(r.byz_fast_confirms(), 1);
        // The leader between two followers still came first.
        for (q, closes) in [(4, false), (0, false), (3, true)] {
            assert_eq!(r.confirm(1, replica(q), Value(4)), closes);
        }
        assert_eq!(r.byz_fast_confirms(), 2);
    }

    /// The confirmation as it was written over one ordered map keyed by
    /// `(group, value)`, confirmed entries kept as `None` tombstones: the
    /// reference the dense per-id masks are checked against.
    struct OrderedConfirm {
        modes: Vec<GroupMode>,
        quorum: u32,
        fast_path: bool,
        pending: BTreeMap<(usize, u64), Option<u64>>,
        withheld: u64,
        fast_confirms: u64,
    }

    impl OrderedConfirm {
        fn confirm(&mut self, r: &RouterActor, g: usize, from: Pid, v: Value) -> bool {
            if self.modes.get(g).copied().unwrap_or_default() != GroupMode::Byzantine {
                return true;
            }
            let leader = r.groups[g].leader;
            let block = r.topo.block() as u32;
            let bit = |p: Pid| 1u64 << (p.0 % block);
            let entry = self.pending.entry((g, v.0)).or_insert(Some(0));
            let Some(reporters) = entry else {
                return false;
            };
            let new_reporter = *reporters & bit(from) == 0;
            *reporters |= bit(from);
            if reporters.count_ones() >= self.quorum {
                if self.fast_path && from != leader && *reporters & bit(leader) != 0 {
                    self.fast_confirms += 1;
                }
                *entry = None;
                return true;
            }
            if new_reporter {
                self.withheld += 1;
            }
            false
        }

        fn unconfirmed(&self) -> u64 {
            self.pending.values().filter(|r| r.is_some()).count() as u64
        }
    }

    /// Random report streams through both confirmations: two Byzantine
    /// groups and a crash group of five replicas, twelve commands spread
    /// over them, reports of own-group ids, other groups' ids, fillers,
    /// control entries, junk and ids above the workload, each value
    /// reported by a burst of replicas with repeats and the leader first,
    /// last or absent, the fast path on and off, leaders changing and
    /// commands moving between groups at epoch flips. Every verdict and
    /// every counter must match the ordered map's.
    #[test]
    fn dense_confirmation_matches_the_ordered_map() {
        use crate::sharded::workload::splitmix64;
        const TOTAL: usize = 12;
        for seed in 0..300u64 {
            let mut rng = seed;
            let mut draw = |bound: u64| splitmix64(&mut rng) % bound;
            let topo = GroupTopology {
                groups: 3,
                n: 5,
                m: 3,
            };
            let group_of: Vec<u32> = (0..=TOTAL).map(|_| draw(3) as u32).collect();
            let workload = PartitionedWorkload {
                backlogs: vec![Vec::new(); 3],
                group_of,
                keys: vec![0; TOTAL + 1],
            };
            let modes = vec![
                GroupMode::Byzantine,
                GroupMode::Byzantine,
                GroupMode::CrashPmp,
            ];
            let fast_path = seed % 2 == 1;
            let mut r = RouterActor::new(topo, workload, 4).with_group_modes(modes.clone(), 5);
            if fast_path {
                r = r.with_byz_fast_path();
            }
            let mut model = OrderedConfirm {
                modes,
                quorum: 3,
                fast_path,
                pending: BTreeMap::new(),
                withheld: 0,
                fast_confirms: 0,
            };
            let mut flips = 0;
            for _ in 0..120 {
                match draw(16) {
                    0 => {
                        // An epoch flip moves one command to another group.
                        let id = 1 + draw(TOTAL as u64) as usize;
                        let to = (r.group_of[id] as usize + 1 + draw(2) as usize) % 3;
                        reassign(&mut r.group_of, &mut r.byz, id, to);
                        flips += 1;
                        continue;
                    }
                    1 => {
                        // Ω moves a group's leadership.
                        let g = draw(3) as usize;
                        r.groups[g].leader = topo.procs(g)[draw(5) as usize];
                        continue;
                    }
                    _ => {}
                }
                let g = draw(3) as usize;
                let own: Vec<u64> = (1..=TOTAL as u64)
                    .filter(|&id| r.group_of[id as usize] as usize == g)
                    .collect();
                let v = Value(match draw(8) {
                    0..=3 if !own.is_empty() => own[draw(own.len() as u64) as usize],
                    0..=4 => 1 + draw(TOTAL as u64),
                    5 => [0, Value::NOOP.0][draw(2) as usize],
                    6 => Value::CTRL_BIT | draw(3),
                    _ => {
                        [Value::JUNK_FLOOR + draw(3), TOTAL as u64 + 1 + draw(3)][draw(2) as usize]
                    }
                });
                let procs = topo.procs(g);
                let leader = r.groups[g].leader;
                let mut burst: Vec<Pid> =
                    (0..1 + draw(5)).map(|_| procs[draw(5) as usize]).collect();
                match draw(3) {
                    0 => burst.insert(0, leader),
                    1 => burst.push(leader),
                    _ => burst.retain(|&p| p != leader),
                }
                for from in burst {
                    let want = model.confirm(&r, g, from, v);
                    assert_eq!(
                        r.confirm(g, from, v),
                        want,
                        "seed {seed}: {from} reports {v:?} to group {g}"
                    );
                    assert_eq!(r.byz_withheld_reports(), model.withheld, "seed {seed}");
                    assert_eq!(r.byz_fast_confirms(), model.fast_confirms, "seed {seed}");
                    assert_eq!(
                        r.byz_unconfirmed_claims(),
                        model.unconfirmed(),
                        "seed {seed}"
                    );
                }
            }
            assert!(flips > 0, "seed {seed} never flipped an epoch");
        }
    }

    /// A command that moves at an epoch flip keeps its reports from the
    /// group it left, and the group it joined starts from the reports it
    /// had already made.
    #[test]
    fn an_epoch_flip_carries_a_commands_reports_to_its_new_home() {
        let topo = GroupTopology {
            groups: 2,
            n: 5,
            m: 3,
        };
        let workload = PartitionedWorkload {
            backlogs: vec![Vec::new(), Vec::new()],
            group_of: vec![0, 0],
            keys: vec![0, 0],
        };
        let modes = vec![GroupMode::Byzantine, GroupMode::Byzantine];
        let mut r = RouterActor::new(topo, workload, 4).with_group_modes(modes, 5);
        let (a, b) = (topo.procs(0), topo.procs(1));
        assert!(!r.confirm(0, a[1], Value(1)));
        assert!(!r.confirm(1, b[1], Value(1)), "a cross-group claim");
        reassign(&mut r.group_of, &mut r.byz, 1, 1);
        assert_eq!(r.byz_unconfirmed_claims(), 2);
        assert!(!r.confirm(0, a[2], Value(1)), "group 0 holds two reports");
        assert!(!r.confirm(1, b[2], Value(1)), "group 1 holds two reports");
        assert!(
            r.confirm(0, a[3], Value(1)),
            "the old group confirms at f + 1"
        );
        assert!(r.confirm(1, b[3], Value(1)), "so does the new one");
        assert!(!r.confirm(1, b[4], Value(1)), "confirmed once");
        assert_eq!(r.byz_unconfirmed_claims(), 0);
        assert_eq!(r.byz_withheld_reports(), 4);
    }

    #[test]
    fn fast_confirms_stay_zero_without_the_fast_path() {
        let mut r = router(false);
        for (q, closes) in [(0, false), (1, false), (2, true)] {
            assert_eq!(r.confirm(1, replica(q), Value(1)), closes);
        }
        assert_eq!(r.byz_fast_confirms(), 0);
    }
}
