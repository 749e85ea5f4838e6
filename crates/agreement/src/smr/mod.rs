//! State machine replication over Protected Memory Paxos.
//!
//! The paper's crash-consensus algorithm is single-decree, but its closing
//! remark points at exactly this construction: *"the code shows one
//! instance of consensus, with p1 as initial leader. With many consensus
//! instances, the leader terminates one instance and becomes the default
//! leader in the next."* [`SmrNode`] implements that: a totally-ordered
//! command log where slot `i` is decided by Protected Memory Paxos instance
//! `i` over the same memories (slot registers are instance-indexed), and
//! the decider of instance `i` starts instance `i+1` phase-1-free.
//!
//! This is the shape of the RDMA replication systems the paper inspired
//! (DARE, APUS, and later Mu): a stable leader commits one log entry per
//! *single* replicated write — two network delays per command.
//!
//! **Write batching.** With [`SmrNode::with_batch`], a stable leader packs
//! up to `batch` pending commands into consecutive instances and commits
//! them with one scatter-gather write per memory
//! ([`rdma_sim::MemRequest::WriteMany`]): one memory round trip — and one
//! `DecidedMany` message per follower — amortized over `batch` log
//! entries. `batch = 1` (the default) takes the exact single-write wire
//! path and is schedule-identical to the pre-batching implementation; the
//! golden-schedule tests pin that. Takeover scans see batched entries as
//! ordinary per-instance slot registers; runs of *consecutive* recovered
//! instances are re-committed as one scatter-gather round (each instance
//! still carries its own highest-accepted value, so Paxos safety is
//! untouched), and followers apply a `DecidedMany` batch in one pass —
//! one log resize, one decided-prefix walk and one decision mark per
//! batch rather than per entry.
//!
//! **Sharded service hooks.** A node may also receive commands at run time
//! ([`Msg::Submit`], routed by the sharded service layer in
//! [`crate::sharded`]) and may carry *observers* — actors outside the
//! replica ring (the sharded router) that receive the same decision
//! notifications followers do. Both default to off and change nothing for
//! single-group deployments.
//!
//! **Migration control entries.** Key-range migrations
//! ([`crate::sharded::rebalance`]) ride the log as ordinary values: the
//! source group commits a *seal* entry ending the range's history there,
//! the destination commits an *install* entry starting it. Replicas treat
//! them as opaque ids — total order is all the protocol owes them. The
//! migration's state snapshot arrives out of the log
//! ([`Msg::InstallSnapshot`]) and lands in the session-dedup seen-set, so
//! a command the source already committed is suppressed if it is ever
//! re-proposed at the destination.
//!
//! Failure handling: when Ω nominates a new leader, it runs the full
//! three-step acquisition (permission grab, ballot write, **whole-log slot
//! scan**); every value a previous leader may have accepted anywhere in the
//! log is recovered and re-committed under the new leader's epoch before
//! fresh commands continue, so no decided entry is ever lost. Ballots are
//! `(epoch, pid)` with one epoch per leadership term — the standard
//! Multi-Paxos discipline that keeps a deposed leader's in-flight writes
//! below every later term.

use std::collections::BTreeMap;

use rdma_sim::{MemResponse, MemoryClient, Permission};
use simnet::{Actor, ActorId, Context, Duration, EventKind, Time};

use crate::protected::{slot_reg, REGION};
use crate::types::{Ballot, Instance, Msg, PaxSlot, Pid, RegVal, Value};

pub mod byz;
pub mod core;

pub use byz::{byz_memory_actor, ByzSmrNode};
pub use core::{LogCore, ReplicaState};

const RETRY_TAG: u64 = 50;

/// Max scan-row buffers kept in the per-node scratch pool.
const SLOT_POOL_CAP: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StepKind {
    Perm,
    Write1,
    Scan,
    Write2,
}

#[derive(Clone, Copy, Debug)]
struct ScannedSlot {
    instance: u64,
    slot: PaxSlot,
}

#[derive(Clone, Debug, Default)]
struct MemIter {
    write1: Option<bool>,
    slots: Option<Vec<ScannedSlot>>,
    write2: Option<bool>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Idle,
    One,
    Two,
}

/// A replica serving a totally-ordered command log.
#[derive(Debug)]
pub struct SmrNode {
    me: Pid,
    procs: Vec<Pid>,
    mems: Vec<ActorId>,
    /// Actors outside the replica ring (e.g. the sharded router) that also
    /// receive `Decided`/`DecidedMany` notifications from this node when it
    /// commits as leader.
    observers: Vec<ActorId>,
    f_m: usize,
    retry_every: Duration,
    /// Max log entries committed per replicated write (≥ 1).
    batch: usize,
    client: MemoryClient<RegVal, Msg>,
    /// The protocol-independent log/workload state machine (decided
    /// slots, session dedup, batching cursors) shared with the Byzantine
    /// node — see [`LogCore`]. Commands carry their session tag in the
    /// value itself (the sharded router's dense 1-based command id is the
    /// single client's sequence number), so the dedup seen-set is just
    /// the decided ids.
    core: LogCore,
    // Leadership / proposer state for the current instance.
    is_leader: bool,
    /// True once this leader has acquired permissions since its election
    /// (the grab covers the whole region, i.e. all instances).
    holds_permission: bool,
    instance: u64,
    attempt: u64,
    /// This leadership term's epoch (ballot round, fixed for the term).
    epoch: u64,
    max_epoch_seen: u64,
    /// Values recovered from the takeover scan: instance → highest
    /// accepted (ballot, value); must be re-committed before new commands.
    recover: BTreeMap<u64, (Ballot, Value)>,
    ballot: Option<Ballot>,
    phase: Phase,
    /// Values proposed this round for instances
    /// `instance .. instance + values.len()` (empty when idle).
    values: Vec<Value>,
    proposing_own: bool,
    /// Adaptive doorbell-batch cap; `0` = fixed `batch` only (see
    /// [`SmrNode::with_adaptive_batch`]).
    adaptive_cap: usize,
    /// Per-memory progress of the current round. Small linear vec: its
    /// capacity survives the per-round `clear()`, unlike a map's nodes.
    iters: Vec<(ActorId, MemIter)>,
    /// In-flight op → (attempt, memory, step). Linear small-vec for the
    /// same reason; at most a few entries per memory.
    op_map: Vec<(rdma_sim::OpId, (u64, ActorId, StepKind))>,
    /// Scratch pool for takeover-scan row buffers (the swmr recycle
    /// pattern): `Vec<ScannedSlot>` capacity is returned here when a round
    /// ends instead of being dropped, so repeated takeover scans stop
    /// allocating per response.
    spare_slots: Vec<Vec<ScannedSlot>>,
}

impl SmrNode {
    /// Creates a replica. `workload` is the sequence of commands this node
    /// proposes when it leads; `initial_leader` owns the instance-0
    /// permissions.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        mems: Vec<ActorId>,
        initial_leader: Pid,
        workload: Vec<Value>,
        f_m: usize,
        retry_every: Duration,
    ) -> SmrNode {
        SmrNode {
            me,
            procs,
            mems,
            observers: Vec::new(),
            f_m,
            retry_every,
            batch: 1,
            adaptive_cap: 0,
            client: MemoryClient::new(),
            core: LogCore::new(workload),
            is_leader: me == initial_leader,
            holds_permission: me == initial_leader,
            instance: 0,
            attempt: 0,
            epoch: 0,
            max_epoch_seen: 0,
            recover: BTreeMap::new(),
            ballot: None,
            phase: Phase::Idle,
            values: Vec::new(),
            proposing_own: false,
            iters: Vec::new(),
            op_map: Vec::new(),
            spare_slots: Vec::new(),
        }
    }

    /// Sets how many log entries a stable leader commits per replicated
    /// write (clamped to ≥ 1). `1` reproduces the unbatched protocol
    /// exactly, down to the wire.
    pub fn with_batch(mut self, batch: usize) -> SmrNode {
        self.batch = batch.max(1);
        self
    }

    /// Enables adaptive doorbell batching: each round packs however many
    /// commands are actually pending, up to `cap` work requests per
    /// posting, instead of the fixed [`SmrNode::with_batch`] size. A
    /// shallow backlog commits immediately in a small burst (latency); a
    /// deep one fills the cap and amortizes the doorbell (throughput).
    /// Only meaningful under [`simnet::DelayModel::Rdma`], where a burst
    /// of `k` writes is charged one doorbell plus `k` per-WR increments;
    /// `0` (the default) disables it.
    pub fn with_adaptive_batch(mut self, cap: usize) -> SmrNode {
        self.adaptive_cap = cap;
        self
    }

    /// Enables client-session dedup: this node, when leading, suppresses
    /// proposals of command ids it has already seen decided. Upgrades the
    /// sharded router's at-least-once re-submission to exactly-once *in
    /// the log* for the common failover path (a command committed by the
    /// crashed leader, learned by the successor through its takeover
    /// scan, then re-submitted by the router). A narrow race remains —
    /// a command recovered-but-not-yet-recommitted can be proposed into
    /// an earlier hole before its recovered copy settles — so the state
    /// machine contract stays "observably exactly-once, log may rarely
    /// duplicate"; [`SmrNode::duplicates_suppressed`] counts the
    /// suppressions. Off by default: single-group deployments have no
    /// retrying client, and dedup off reproduces the pre-dedup schedule
    /// bit-for-bit.
    pub fn with_session_dedup(mut self) -> SmrNode {
        self.core.dedup = true;
        self
    }

    /// Duplicate proposals suppressed so far (see
    /// [`SmrNode::with_session_dedup`]).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.core.duplicates_suppressed
    }

    /// Registers an observer: an actor outside the replica ring that
    /// receives this node's `Decided`/`DecidedMany` notifications when it
    /// commits as leader (the sharded router tracks per-group commit
    /// progress this way).
    pub fn with_observer(mut self, observer: ActorId) -> SmrNode {
        self.observers.push(observer);
        self
    }

    /// The contiguous decided prefix of the log.
    pub fn log(&self) -> Vec<Value> {
        self.core.log()
    }

    /// This replica's state for a run report (the Byzantine-only
    /// counters stay 0).
    pub fn replica_state(&self) -> ReplicaState {
        ReplicaState {
            log: self.log(),
            duplicates_suppressed: self.duplicates_suppressed(),
            ..ReplicaState::default()
        }
    }

    /// Length of the contiguous decided prefix (O(1)).
    pub fn log_len(&self) -> usize {
        self.core.log_len()
    }

    /// The decided value of `instance`, if any (including beyond a hole).
    pub fn decided(&self, instance: u64) -> Option<Value> {
        self.core.decided(instance)
    }

    /// Number of own commands committed so far.
    pub fn committed_own(&self) -> usize {
        self.core.next_cmd
    }

    /// `(instance, time)` each log slot was decided at this node, in
    /// decision order (instance order under a stable leader).
    pub fn decided_at(&self) -> &[(u64, Time)] {
        &self.core.decided_at
    }

    fn quorum(&self) -> usize {
        self.mems.len() - self.f_m
    }

    /// Fills `values` for the round starting at `self.instance`. Recovered
    /// values (from the takeover scan) take precedence over new commands:
    /// a run of *consecutive* recovered instances is re-committed as one
    /// batch — each instance still carries its own highest-accepted value,
    /// so this is ordinary per-instance Paxos phase 2, just amortized onto
    /// one scatter-gather write. Fresh commands fill a batch but stop
    /// before any recovered instance (which must head its own round). When
    /// neither is available but the caller decided to propose anyway (a
    /// hole below pending recovered values), a no-op fills the slot.
    fn fill_values(&mut self) {
        self.values.clear();
        // Adaptive mode lets the round grow to the backlog (capped);
        // otherwise the configured fixed batch applies.
        let limit = if self.adaptive_cap > 0 {
            self.adaptive_cap
        } else {
            self.batch
        };
        if self.recover.contains_key(&self.instance) {
            self.proposing_own = false;
            for j in 0..limit as u64 {
                match self.recover.get(&(self.instance + j)) {
                    Some((_, v)) => self.values.push(*v),
                    None => break,
                }
            }
        } else {
            self.proposing_own = true;
            let recover = &self.recover;
            self.core.fill_own(
                limit,
                self.instance,
                |i| recover.contains_key(&i),
                |_| false, // one slot in flight: settles before the next fill
                &mut self.values,
            );
        }
    }

    /// Whether the takeover scan left values at or above the current
    /// instance still waiting to be re-committed.
    fn recovery_pending(&self) -> bool {
        self.recover.range(self.instance..).next_back().is_some()
    }

    /// Picks the next undecided instance and proposes (leader only).
    fn drive(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.is_leader || self.phase != Phase::Idle {
            return;
        }
        // Move past instances already known decided.
        while self.decided(self.instance).is_some() {
            self.instance += 1;
        }
        if self.core.workload_drained() && self.holds_permission && !self.recovery_pending() {
            // Nothing left to propose and nothing to recover; stay quiet.
            // (A fuller system would no-op-fill holes; our workload model
            // always proposes.) Without the recovery check a leader whose
            // own workload drained — e.g. a sharded follower promoted
            // before the router re-submits — would stall mid-recovery.
            return;
        }
        self.attempt += 1;
        self.reset_iters();
        if self.holds_permission {
            // Steady state: straight to phase 2.
            let b = Ballot {
                round: self.epoch,
                pid: self.me,
            };
            self.ballot = Some(b);
            self.fill_values();
            self.phase = Phase::Two;
            self.send_phase2(ctx);
            return;
        }
        // Takeover: acquire permission, stamp the new epoch into this
        // instance's slot, and scan the WHOLE log for values to recover.
        self.epoch = self.epoch.max(self.max_epoch_seen) + 1;
        let b = Ballot {
            round: self.epoch,
            pid: self.me,
        };
        self.ballot = Some(b);
        self.phase = Phase::One;
        let reg = slot_reg(Instance(self.instance), self.me);
        for i in 0..self.mems.len() {
            let mem = self.mems[i];
            self.iters.push((mem, MemIter::default()));
            let p =
                self.client
                    .change_perm(ctx, mem, REGION, Permission::exclusive_writer(self.me));
            self.op_map.push((p, (self.attempt, mem, StepKind::Perm)));
            let w = self
                .client
                .write(ctx, mem, REGION, reg, RegVal::Slot(PaxSlot::phase1(b)));
            self.op_map.push((w, (self.attempt, mem, StepKind::Write1)));
            let r = self.client.read_range(ctx, mem, REGION, None);
            self.op_map.push((r, (self.attempt, mem, StepKind::Scan)));
        }
    }

    /// Ends the current round's per-memory progress, returning scan-row
    /// buffers to the scratch pool instead of dropping them.
    fn reset_iters(&mut self) {
        let mut iters = std::mem::take(&mut self.iters);
        for (_, it) in iters.drain(..) {
            if let Some(mut s) = it.slots {
                if self.spare_slots.len() < SLOT_POOL_CAP {
                    s.clear();
                    self.spare_slots.push(s);
                }
            }
        }
        self.iters = iters;
    }

    fn send_phase2(&mut self, ctx: &mut Context<'_, Msg>) {
        let b = self.ballot.expect("phase 2 without ballot");
        assert!(!self.values.is_empty(), "phase 2 without values");
        for (j, v) in self.values.iter().enumerate() {
            ctx.obs_mark(v.0, crate::spans::STAGE_PROPOSE, self.instance + j as u64);
        }
        self.reset_iters();
        for i in 0..self.mems.len() {
            let mem = self.mems[i];
            self.iters.push((mem, MemIter::default()));
            let w = if self.values.len() == 1 {
                // Unbatched: the exact pre-batching wire request.
                let reg = slot_reg(Instance(self.instance), self.me);
                let slot = RegVal::Slot(PaxSlot::phase2(b, self.values[0]));
                self.client.write(ctx, mem, REGION, reg, slot)
            } else {
                // One scatter-gather round trip covering the whole batch.
                let writes: Vec<_> = self
                    .values
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| {
                        let reg = slot_reg(Instance(self.instance + j as u64), self.me);
                        (reg, RegVal::Slot(PaxSlot::phase2(b, v)))
                    })
                    .collect();
                self.client.write_many(ctx, mem, REGION, writes)
            };
            self.op_map.push((w, (self.attempt, mem, StepKind::Write2)));
        }
    }

    fn abandon(&mut self) {
        self.phase = Phase::Idle;
        self.holds_permission = false; // be conservative: re-acquire
    }

    fn phase1_step(&mut self, ctx: &mut Context<'_, Msg>) {
        let complete: Vec<&MemIter> = self
            .iters
            .iter()
            .map(|(_, i)| i)
            .filter(|i| i.write1.is_some() && i.slots.is_some())
            .collect();
        if complete.len() < self.quorum() {
            return;
        }
        let ballot = self.ballot.expect("phase without ballot");
        if complete.iter().any(|i| i.write1 == Some(false)) {
            self.abandon();
            return;
        }
        // Whole-log recovery: for every instance, remember the value
        // accepted at the highest ballot (quorum intersection guarantees
        // any decided value appears here).
        self.recover.clear();
        let mut higher = false;
        for it in &complete {
            for (reg, s) in it
                .slots
                .as_ref()
                .expect("filtered")
                .iter()
                .map(|s| (s.instance, s.slot))
            {
                self.max_epoch_seen = self.max_epoch_seen.max(s.min_prop.round);
                if s.min_prop > ballot {
                    higher = true;
                }
                if let (Some(ap), Some(v)) = (s.acc_prop, s.value) {
                    let entry = self.recover.entry(reg).or_insert((ap, v));
                    if ap > entry.0 {
                        *entry = (ap, v);
                    }
                }
            }
        }
        if higher {
            self.abandon();
            return;
        }
        self.fill_values();
        // The acquisition succeeded on a quorum; phase-2 writes will tell
        // us if anyone raced us.
        self.holds_permission = true;
        self.phase = Phase::Two;
        self.attempt += 1;
        self.send_phase2(ctx);
    }

    fn phase2_step(&mut self, ctx: &mut Context<'_, Msg>) {
        let complete: Vec<&MemIter> = self
            .iters
            .iter()
            .map(|(_, i)| i)
            .filter(|i| i.write2.is_some())
            .collect();
        if complete.len() < self.quorum() {
            return;
        }
        if complete.iter().any(|i| i.write2 == Some(false)) {
            self.abandon();
            return;
        }
        assert!(!self.values.is_empty(), "phase 2 without values");
        let first = self.instance;
        let values = std::mem::take(&mut self.values);
        self.settle_many(ctx, first, &values);
        if self.proposing_own {
            // Every consumed workload slot advances the cursor: proposed
            // values equal consumed slots minus dedup-suppressed ones
            // (without dedup the two counts coincide, reproducing the
            // pre-dedup accounting exactly).
            self.core.commit_own_round();
        }
        self.phase = Phase::Idle;
        for i in 0..self.procs.len() + self.observers.len() {
            let q = if i < self.procs.len() {
                self.procs[i]
            } else {
                self.observers[i - self.procs.len()]
            };
            if q == self.me {
                continue;
            }
            if values.len() == 1 {
                ctx.send(
                    q,
                    Msg::Decided {
                        instance: Instance(first),
                        value: values[0],
                    },
                );
            } else {
                ctx.send(
                    q,
                    Msg::DecidedMany {
                        first: Instance(first),
                        values: values.clone(),
                    },
                );
            }
        }
        // Steady state: next instance immediately.
        self.drive(ctx);
    }

    fn settle(&mut self, ctx: &mut Context<'_, Msg>, instance: u64, v: Value) {
        if self.core.settle(ctx.now(), instance, v) {
            ctx.obs_mark(v.0, crate::spans::STAGE_DECIDE, instance);
            ctx.mark_decided();
        }
    }

    /// Applies a contiguous decided run `first .. first + values.len()` in
    /// one pass (one log resize, one decided-prefix walk and one decision
    /// mark for the whole batch — see [`LogCore::settle_many`]). Slots
    /// already decided (a raced `Decided` from another path) are skipped,
    /// exactly as per-entry [`SmrNode::settle`] would.
    fn settle_many(&mut self, ctx: &mut Context<'_, Msg>, first: u64, values: &[Value]) {
        if self.core.settle_many(ctx.now(), first, values) {
            for (j, v) in values.iter().enumerate() {
                ctx.obs_mark(v.0, crate::spans::STAGE_DECIDE, first + j as u64);
            }
            ctx.mark_decided();
        }
    }
}

impl Actor<Msg> for SmrNode {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                self.drive(ctx);
                ctx.set_timer(self.retry_every, RETRY_TAG);
            }
            EventKind::Timer { tag: RETRY_TAG, .. } => {
                if self.is_leader && self.phase == Phase::Idle {
                    self.drive(ctx);
                }
                ctx.set_timer(self.retry_every, RETRY_TAG);
            }
            EventKind::Timer { .. } => {}
            EventKind::LeaderChange { leader } => {
                let was = self.is_leader;
                self.is_leader = leader == self.me;
                if self.is_leader && !was {
                    self.holds_permission = false; // must re-acquire
                    self.phase = Phase::Idle;
                    self.drive(ctx);
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let Some(c) = self.client.on_wire(ctx, from, wire) else {
                    return;
                };
                let Some(op_ix) = self.op_map.iter().position(|&(op, _)| op == c.op) else {
                    return;
                };
                let (_, (attempt, mem, step)) = self.op_map.swap_remove(op_ix);
                if attempt != self.attempt || self.phase == Phase::Idle {
                    return;
                }
                let Some((_, iter)) = self.iters.iter_mut().find(|(m, _)| *m == mem) else {
                    return;
                };
                match (step, c.resp) {
                    (StepKind::Perm, _) => {}
                    (StepKind::Write1, MemResponse::Ack) => iter.write1 = Some(true),
                    (StepKind::Write1, _) => iter.write1 = Some(false),
                    (StepKind::Scan, MemResponse::Range(rows)) => {
                        // Reuse a pooled row buffer: takeover scans arrive
                        // once per memory per attempt and their capacity
                        // recurs, so the pool makes them allocation-free
                        // once warm.
                        let mut slots = self.spare_slots.pop().unwrap_or_default();
                        slots.extend(rows.into_iter().filter_map(|(reg, v)| match v {
                            RegVal::Slot(s) => Some(ScannedSlot {
                                instance: reg.a,
                                slot: s,
                            }),
                            _ => None,
                        }));
                        iter.slots = Some(slots);
                    }
                    (StepKind::Scan, _) => {
                        iter.slots = Some(self.spare_slots.pop().unwrap_or_default())
                    }
                    (StepKind::Write2, MemResponse::Ack) => iter.write2 = Some(true),
                    (StepKind::Write2, _) => iter.write2 = Some(false),
                }
                match self.phase {
                    Phase::One => self.phase1_step(ctx),
                    Phase::Two => self.phase2_step(ctx),
                    Phase::Idle => {}
                }
            }
            EventKind::Msg {
                msg: Msg::Decided { instance, value },
                ..
            } => {
                self.settle(ctx, instance.0, value);
                if self.is_leader && self.phase == Phase::Idle {
                    self.drive(ctx);
                }
            }
            EventKind::Msg {
                msg: Msg::DecidedMany { first, values },
                ..
            } => {
                self.settle_many(ctx, first.0, &values);
                if self.is_leader && self.phase == Phase::Idle {
                    self.drive(ctx);
                }
            }
            EventKind::Msg {
                msg: Msg::InstallSnapshot { seen, .. },
                ..
            } => {
                // A key-range migration's snapshot (this node is in the
                // destination group): prime session dedup with the ids the
                // source group already committed for the sealed range.
                self.core.install_snapshot(seen);
            }
            EventKind::Msg {
                msg: Msg::Submit { mut cmds },
                ..
            } => {
                // Routed client commands (sharded service): append to the
                // proposal workload and, if we lead and are idle, propose
                // immediately.
                self.core.submit(&mut cmds);
                if self.is_leader && self.phase == Phase::Idle {
                    self.drive(ctx);
                }
            }
            EventKind::Msg { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protected::memory_actor;
    use simnet::Simulation;

    fn build(
        n: u32,
        m: u32,
        seed: u64,
        cmds_per_node: usize,
    ) -> (Simulation<Msg>, Vec<Pid>, Vec<ActorId>) {
        build_batched(n, m, seed, cmds_per_node, 1)
    }

    fn build_batched(
        n: u32,
        m: u32,
        seed: u64,
        cmds_per_node: usize,
        batch: usize,
    ) -> (Simulation<Msg>, Vec<Pid>, Vec<ActorId>) {
        let mut sim = Simulation::new(seed);
        let procs: Vec<Pid> = (0..n).map(ActorId).collect();
        let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
        for i in 0..n {
            let workload: Vec<Value> = (0..cmds_per_node)
                .map(|c| Value(1000 * (i as u64 + 1) + c as u64))
                .collect();
            sim.add(
                SmrNode::new(
                    ActorId(i),
                    procs.clone(),
                    mems.clone(),
                    ActorId(0),
                    workload,
                    (m as usize - 1) / 2,
                    Duration::from_delays(25),
                )
                .with_batch(batch),
            );
        }
        for _ in 0..m {
            sim.add(memory_actor(ActorId(0)));
        }
        (sim, procs, mems)
    }

    #[test]
    fn stable_leader_commits_at_two_delays_per_entry() {
        let (mut sim, procs, _) = build(3, 3, 1, 5);
        sim.run_until(Time::from_delays(200), |s| {
            s.actor_as::<SmrNode>(procs[0]).unwrap().log_len() >= 5
        });
        let leader = sim.actor_as::<SmrNode>(procs[0]).unwrap();
        assert_eq!(leader.log_len(), 5);
        // Entry i decided at 2·(i+1) delays: one replicated write each.
        for (i, (_, t)) in leader.decided_at().iter().enumerate() {
            assert_eq!(t.as_delays(), 2.0 * (i as f64 + 1.0), "entry {i}");
        }
        // All of the leader's own commands, in order.
        assert_eq!(
            leader.log(),
            vec![
                Value(1000),
                Value(1001),
                Value(1002),
                Value(1003),
                Value(1004)
            ]
        );
    }

    #[test]
    fn batched_leader_amortizes_one_write_over_k_entries() {
        let (mut sim, procs, _) = build_batched(3, 3, 1, 8, 4);
        sim.run_until(Time::from_delays(200), |s| {
            s.actor_as::<SmrNode>(procs[0]).unwrap().log_len() >= 8
        });
        let leader = sim.actor_as::<SmrNode>(procs[0]).unwrap();
        assert_eq!(leader.log_len(), 8);
        // Two batched rounds of 4: entries 0..4 decide at 2 delays,
        // entries 4..8 at 4 — still one round trip per *write*, now
        // amortized over 4 entries each.
        for (i, (_, t)) in leader.decided_at().iter().enumerate() {
            let round = (i / 4 + 1) as f64;
            assert_eq!(t.as_delays(), 2.0 * round, "entry {i}");
        }
        // Same committed values and order as the unbatched protocol.
        let expected: Vec<Value> = (0..8).map(|c| Value(1000 + c)).collect();
        assert_eq!(leader.log(), expected);
        // 2 batched write rounds × 3 memories, instead of 8 × 3.
        assert_eq!(sim.metrics().mem_writes, 6);
    }

    #[test]
    fn batched_followers_learn_the_same_log() {
        let (mut sim, procs, _) = build_batched(3, 3, 2, 10, 3);
        sim.run_until(Time::from_delays(300), |s| {
            procs
                .iter()
                .all(|&p| s.actor_as::<SmrNode>(p).unwrap().log_len() >= 10)
        });
        let logs: Vec<Vec<Value>> = procs
            .iter()
            .map(|&p| sim.actor_as::<SmrNode>(p).unwrap().log())
            .collect();
        assert_eq!(logs[0].len(), 10);
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
    }

    #[test]
    fn batched_leader_crash_recovery_preserves_log() {
        let (mut sim, procs, _) = build_batched(3, 3, 3, 12, 4);
        sim.crash_at(ActorId(0), Time::from_delays(3)); // one batch in
        sim.announce_leader(Time::from_delays(20), &procs, ActorId(1));
        sim.run_until(Time::from_delays(2000), |s| {
            s.actor_as::<SmrNode>(procs[1]).unwrap().log_len() >= 10
        });
        let l1 = sim.actor_as::<SmrNode>(procs[1]).unwrap().log();
        let l2 = sim.actor_as::<SmrNode>(procs[2]).unwrap().log();
        assert!(l1.len() >= 10, "new leader made progress: {l1:?}");
        let common = l1.len().min(l2.len());
        assert_eq!(l1[..common], l2[..common]);
        // The crashed leader's first batch survived the takeover scan.
        assert_eq!(l1[0], Value(1000));
    }

    #[test]
    fn takeover_recommits_consecutive_recovered_entries_in_one_round() {
        // The leader's first batch lands on the memories but the leader
        // crashes before learning; the successor's takeover scan recovers
        // all four entries and re-commits them as ONE scatter-gather round.
        let (mut sim, procs, _) = build_batched(3, 3, 4, 4, 4);
        sim.crash_at(ActorId(0), Time::from_delays(2));
        sim.announce_leader(Time::from_delays(20), &procs, ActorId(1));
        sim.run_until(Time::from_delays(2000), |s| {
            s.actor_as::<SmrNode>(procs[1]).unwrap().log_len() >= 8
        });
        let l1 = sim.actor_as::<SmrNode>(procs[1]).unwrap();
        let log = l1.log();
        assert_eq!(
            &log[..4],
            &[Value(1000), Value(1001), Value(1002), Value(1003)],
            "crashed leader's batch survived"
        );
        let at = |inst: u64| {
            l1.decided_at()
                .iter()
                .find(|&&(i, _)| i == inst)
                .expect("instance decided")
                .1
        };
        // A single decision timestamp covers instances 0..4 on the new
        // leader: the recovery was batched, not one instance at a time.
        for i in 1..4 {
            assert_eq!(at(i), at(0), "instance {i} recovered in a later round");
        }
        // The successor's own four commands follow in the next rounds.
        assert_eq!(
            &log[4..8],
            &(0..4).map(|c| Value(2000 + c)).collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn submitted_commands_are_proposed_and_batched() {
        // Nodes start with empty workloads; a scripted Submit supplies the
        // leader's commands at run time (the sharded router's path).
        let (mut sim, procs, _) = build_batched(3, 3, 1, 0, 4);
        sim.schedule(
            Time::from_delays(5),
            procs[0],
            EventKind::Msg {
                from: ActorId(99),
                msg: Msg::Submit {
                    cmds: vec![Value(7), Value(8), Value(9)],
                },
            },
        );
        sim.run_until(Time::from_delays(100), |s| {
            s.actor_as::<SmrNode>(procs[0]).unwrap().log_len() >= 3
        });
        let leader = sim.actor_as::<SmrNode>(procs[0]).unwrap();
        assert_eq!(leader.log(), vec![Value(7), Value(8), Value(9)]);
        // All three commands fit one batch: one shared decision timestamp.
        assert_eq!(leader.decided_at().len(), 3);
        let t0 = leader.decided_at()[0].1;
        assert!(leader.decided_at().iter().all(|&(_, t)| t == t0));
    }

    /// Records decision notifications, standing in for the sharded router.
    struct Observer {
        decided: Vec<(u64, Vec<Value>)>,
    }
    impl simnet::Actor<Msg> for Observer {
        fn on_event(&mut self, _ctx: &mut simnet::Context<'_, Msg>, ev: EventKind<Msg>) {
            match ev {
                EventKind::Msg {
                    msg: Msg::Decided { instance, value },
                    ..
                } => self.decided.push((instance.0, vec![value])),
                EventKind::Msg {
                    msg: Msg::DecidedMany { first, values },
                    ..
                } => self.decided.push((first.0, values)),
                _ => {}
            }
        }
    }

    #[test]
    fn observers_receive_decision_notifications() {
        let n = 3u32;
        let m = 3u32;
        let mut sim = Simulation::new(9);
        let procs: Vec<Pid> = (0..n).map(ActorId).collect();
        let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
        let observer_id = ActorId(n + m);
        for i in 0..n {
            let workload: Vec<Value> = (0..6).map(|c| Value(1000 * (i as u64 + 1) + c)).collect();
            sim.add(
                SmrNode::new(
                    ActorId(i),
                    procs.clone(),
                    mems.clone(),
                    ActorId(0),
                    workload,
                    1,
                    Duration::from_delays(25),
                )
                .with_batch(3)
                .with_observer(observer_id),
            );
        }
        for _ in 0..m {
            sim.add(memory_actor(ActorId(0)));
        }
        let obs = sim.add(Observer {
            decided: Vec::new(),
        });
        assert_eq!(obs, observer_id);
        sim.run_until(Time::from_delays(200), |s| {
            s.actor_as::<Observer>(obs)
                .unwrap()
                .decided
                .iter()
                .map(|(_, vs)| vs.len())
                .sum::<usize>()
                >= 6
        });
        let observer = sim.actor_as::<Observer>(obs).unwrap();
        let seen: Vec<Value> = observer
            .decided
            .iter()
            .flat_map(|(_, vs)| vs.iter().copied())
            .collect();
        assert_eq!(seen, (0..6).map(|c| Value(1000 + c)).collect::<Vec<_>>());
    }

    #[test]
    fn followers_learn_the_same_log() {
        let (mut sim, procs, _) = build(3, 3, 2, 4);
        sim.run_until(Time::from_delays(300), |s| {
            procs
                .iter()
                .all(|&p| s.actor_as::<SmrNode>(p).unwrap().log_len() >= 4)
        });
        let logs: Vec<Vec<Value>> = procs
            .iter()
            .map(|&p| sim.actor_as::<SmrNode>(p).unwrap().log())
            .collect();
        assert_eq!(logs[0].len(), 4);
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
    }

    #[test]
    fn leader_crash_preserves_log_prefix_and_new_leader_continues() {
        let (mut sim, procs, _) = build(3, 3, 3, 10);
        sim.crash_at(ActorId(0), Time::from_delays(7)); // ~3 entries in
        sim.announce_leader(Time::from_delays(20), &procs, ActorId(1));
        sim.run_until(Time::from_delays(2000), |s| {
            s.actor_as::<SmrNode>(procs[1]).unwrap().log_len() >= 8
        });
        let l1 = sim.actor_as::<SmrNode>(procs[1]).unwrap().log();
        let l2 = sim.actor_as::<SmrNode>(procs[2]).unwrap().log();
        // The new leader made progress past the crash point...
        assert!(l1.len() >= 8, "new leader made progress: {l1:?}");
        // ...logs agree on the shared prefix (the last entry may still be
        // in flight to the other follower)...
        let common = l1.len().min(l2.len());
        assert!(common + 1 >= l1.len().min(8));
        assert_eq!(l1[..common], l2[..common]);
        // ...and the old leader's committed entries survived the takeover.
        assert_eq!(l1[0], Value(1000));
    }

    #[test]
    fn competing_leaders_never_fork_the_log() {
        for seed in 0..10 {
            let (mut sim, procs, _) = build(3, 3, seed, 6);
            sim.announce_leader(Time::from_delays(4), &procs[1..2], ActorId(1));
            sim.announce_leader(Time::from_delays(9), &procs[..1], ActorId(0));
            sim.announce_leader(Time::from_delays(40), &procs, ActorId(1));
            sim.run_to_quiescence(Time::from_delays(4000));
            let logs: Vec<Vec<Value>> = procs
                .iter()
                .map(|&p| sim.actor_as::<SmrNode>(p).unwrap().log())
                .collect();
            for a in &logs {
                for b in &logs {
                    let common = a.len().min(b.len());
                    assert_eq!(a[..common], b[..common], "seed {seed}: fork {logs:?}");
                }
            }
        }
    }
}
