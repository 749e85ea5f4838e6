//! Protected Memory Paxos (Algorithm 7, Theorem 5.1).
//!
//! The paper's headline crash-failure result: consensus with `n ≥ f_P + 1`
//! processes and `m ≥ 2·f_M + 1` memories that decides in **two delays** in
//! the common case — resilience of Disk Paxos at half its latency.
//!
//! The trick is the *uncontended instantaneous guarantee* from dynamic
//! permissions: each memory has a single region writable by exactly one
//! process at a time; a leader taking over first acquires exclusive write
//! permission (revoking its predecessor's). A successful write therefore
//! proves no other leader has taken over — the verification read that costs
//! Disk Paxos two extra delays becomes unnecessary. The initial leader owns
//! the permission from the start, so in the common case its single slot
//! write (one parallel round trip to the memories) decides.
//!
//! The `legalChange` policy admits only the acquire-exclusive shape, and
//! each memory grants write access to the *most recent* acquirer (Lemma
//! D.3's premise).
//!
//! # One proposer, two drivers
//!
//! `PmpProposer` is Algorithm 7's proposer and nothing else: the
//! three-step acquisition (permission grab, ballot write, slot scan), the
//! phase-1 quorum rule, the phase-2 write (or one `WriteMany` burst) and
//! the phase-2 quorum rule, driven in the repo's `(ctx, client)` engine
//! idiom and reporting a `PmpOutcome` per memory completion. It knows
//! neither what is being decided nor who leads. [`ProtectedPaxosActor`]
//! drives it for one instance (instance-pattern scan, one value); the
//! crash-mode replicated log ([`crate::smr::SmrNode`]) drives the same
//! proposer over the whole log (whole-region scan, batched writes) — the
//! paper's closing remark that "the leader terminates one instance and
//! becomes the default leader in the next" is one proposer, not two.

use rdma_sim::{
    Completion, LegalChange, MemResponse, MemoryActor, MemoryClient, OpId, Permission, RegId,
    RegionId, RegionSpec,
};
use simnet::{Actor, ActorId, Context, Duration, EventKind, Time};

use crate::types::{spaces, Ballot, Instance, Msg, PaxSlot, Pid, RegVal, Value};

/// The single per-memory region of Protected Memory Paxos.
pub const REGION: RegionId = RegionId(0x5000);

/// The slot of process `p` in `instance`.
pub fn slot_reg(instance: Instance, p: Pid) -> RegId {
    RegId::two(spaces::PMP, instance.0, p.0 as u64)
}

/// The `legalChange` policy: any process may acquire exclusive write
/// permission (becoming the unique writer); nothing else is legal.
pub fn legal_change(
    requester: ActorId,
    _region: RegionId,
    _old: &Permission,
    new: &Permission,
) -> bool {
    *new == Permission::exclusive_writer(requester)
}

/// Builds one Protected Memory Paxos memory with `initial_leader` owning
/// the write permission.
pub fn memory_actor(initial_leader: Pid) -> MemoryActor<RegVal, Msg> {
    MemoryActor::new(LegalChange::Policy(legal_change)).with_region(
        REGION,
        RegionSpec::Space(spaces::PMP),
        Permission::exclusive_writer(initial_leader),
    )
}

const RETRY_TAG: u64 = 1;

/// The tracked operations of a proposal (a permission grab's outcome
/// shows in the writes queued behind it, so it is not).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StepKind {
    Write1,
    Scan,
    Write2,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Idle,
    One,
    Two,
}

/// What a memory completion meant for the proposal in flight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PmpOutcome {
    /// Phase 1 passed its quorum rule: the driver picks what to propose
    /// (the scan's accepted values were handed to it as they arrived) and
    /// calls [`PmpProposer::accept`].
    Acquired,
    /// Phase 2 passed its quorum rule: the proposed values are decided.
    Accepted,
    /// A write was refused or a higher ballot was seen: the proposal is
    /// dead and the proposer idle; the driver retries with
    /// [`PmpProposer::acquire`] when it still leads.
    Abandoned,
}

/// Algorithm 7's proposer (see the module docs): one proposal in flight
/// over `mems`, acks counted in place.
#[derive(Debug)]
pub(crate) struct PmpProposer {
    me: Pid,
    mems: Vec<ActorId>,
    /// Tolerated memory crashes (quorum is `m - f_M` completed memories).
    f_m: usize,
    /// Bumped per phase started; completions of older ones are stale.
    attempt: u64,
    phase: Phase,
    /// Whether this process holds the write permission as far as it
    /// knows: it owned it from the start or acquired it, and no write of
    /// its own has been refused since. Holding it, a driver may
    /// [`PmpProposer::accept`] without acquiring — a successful write
    /// proves nobody took over.
    holds_permission: bool,
    /// The current ballot `(round, me)`; one round per acquisition, so a
    /// deposed leader's in-flight writes sit below every later term.
    ballot: Ballot,
    max_round_seen: u64,
    /// Memories that completed the current phase, and whether any of
    /// them refused a write.
    done: usize,
    nack: bool,
    /// Phase 1, over the memories counted in `done`: the highest
    /// `minProp` scanned (starting from our own ballot).
    seen: Ballot,
    /// Phase 1: memories that refused the ballot write, remembered until
    /// the scan queued behind it on the same memory completes the memory.
    refused: Vec<ActorId>,
    /// In-flight op → (attempt, memory, step). Linear small-vec: a few
    /// entries per memory, capacity kept across rounds.
    op_map: Vec<(OpId, (u64, ActorId, StepKind))>,
}

impl PmpProposer {
    /// A proposer for `me` over `mems`, idle, at ballot `(0, me)` — the
    /// lowest possible, which is why the process that owns the permission
    /// from the start (`holds_permission`) needs no phase 1.
    pub(crate) fn new(
        me: Pid,
        mems: Vec<ActorId>,
        f_m: usize,
        holds_permission: bool,
    ) -> PmpProposer {
        PmpProposer {
            me,
            mems,
            f_m,
            attempt: 0,
            phase: Phase::Idle,
            holds_permission,
            ballot: Ballot::initial(me),
            max_round_seen: 0,
            done: 0,
            nack: false,
            seen: Ballot::initial(me),
            refused: Vec::new(),
            op_map: Vec::new(),
        }
    }

    /// Whether no proposal is in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.phase == Phase::Idle
    }

    /// Whether phase 1 can be skipped (see the field).
    pub(crate) fn holds_permission(&self) -> bool {
        self.holds_permission
    }

    /// A new leadership term: drops the proposal in flight (its
    /// completions become stale) and, conservatively, the permission.
    pub(crate) fn reset(&mut self) {
        self.phase = Phase::Idle;
        self.holds_permission = false;
    }

    fn begin(&mut self, phase: Phase) {
        self.attempt += 1;
        self.phase = phase;
        self.done = 0;
        self.nack = false;
        self.seen = self.ballot;
        self.refused.clear();
    }

    /// Starts phase 1 under a fresh ballot: on every memory, acquire the
    /// exclusive write permission, stamp the ballot into `instance`'s
    /// slot, and scan the registers `within` the region (`None`: all of
    /// it) for what earlier leaders accepted.
    pub(crate) fn acquire(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        instance: Instance,
        within: Option<RegionSpec>,
    ) {
        self.ballot.round = self.ballot.round.max(self.max_round_seen) + 1;
        self.begin(Phase::One);
        let slot = RegVal::Slot(PaxSlot::phase1(self.ballot));
        let reg = slot_reg(instance, self.me);
        for i in 0..self.mems.len() {
            let mem = self.mems[i];
            client.change_perm(ctx, mem, REGION, Permission::exclusive_writer(self.me));
            let w = client.write(ctx, mem, REGION, reg, slot.clone());
            let r = client.read_range(ctx, mem, REGION, within);
            self.op_map.push((w, (self.attempt, mem, StepKind::Write1)));
            self.op_map.push((r, (self.attempt, mem, StepKind::Scan)));
        }
    }

    /// Starts phase 2 under the current ballot: `values[j]` into instance
    /// `first + j`, one write per memory — a plain `Write` for a single
    /// value (the paper's wire), one scatter-gather `WriteMany` otherwise.
    pub(crate) fn accept(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        first: u64,
        values: &[Value],
    ) {
        assert!(!values.is_empty(), "phase 2 without values");
        self.begin(Phase::Two);
        let b = self.ballot;
        let write = |j: usize, v: Value| {
            let reg = slot_reg(Instance(first + j as u64), self.me);
            (reg, RegVal::Slot(PaxSlot::phase2(b, v)))
        };
        for i in 0..self.mems.len() {
            let mem = self.mems[i];
            let w = if let [v] = values {
                let (reg, slot) = write(0, *v);
                client.write(ctx, mem, REGION, reg, slot)
            } else {
                let writes = values.iter().enumerate().map(|(j, &v)| write(j, v));
                client.write_many(ctx, mem, REGION, writes.collect())
            };
            self.op_map.push((w, (self.attempt, mem, StepKind::Write2)));
        }
    }

    /// Feeds one memory completion to the proposal in flight. A phase-1
    /// scan hands every accepted `(instance, ballot, value)` it returned
    /// to `accepted` as it arrives — the driver folds them by highest
    /// ballot and discards the fold unless this phase ends
    /// [`PmpOutcome::Acquired`]. Each phase is judged once, when the
    /// `m - f_M`-th memory completes it.
    pub(crate) fn on_completion(
        &mut self,
        c: Completion<RegVal>,
        mut accepted: impl FnMut(u64, Ballot, Value),
    ) -> Option<PmpOutcome> {
        let ix = self.op_map.iter().position(|&(op, _)| op == c.op)?;
        let (_, (attempt, mem, step)) = self.op_map.swap_remove(ix);
        if attempt != self.attempt || self.phase == Phase::Idle {
            return None; // stale: belongs to an abandoned proposal
        }
        let acked = matches!(c.resp, MemResponse::Ack);
        match step {
            StepKind::Write1 => {
                if !acked {
                    self.refused.push(mem);
                }
                return None;
            }
            StepKind::Scan => {
                // The client runs one operation per memory at a time, in
                // order: this memory's ballot write has already answered.
                let wrote = !self.refused.contains(&mem);
                self.nack |= !wrote;
                if let (true, MemResponse::Range(rows)) = (wrote, c.resp) {
                    for (reg, v) in rows {
                        let RegVal::Slot(s) = v else { continue };
                        self.seen = self.seen.max(s.min_prop);
                        if let (Some(ap), Some(v)) = (s.acc_prop, s.value) {
                            accepted(reg.a, ap, v);
                        }
                    }
                }
            }
            StepKind::Write2 => self.nack |= !acked,
        }
        self.done += 1;
        if self.done < self.mems.len() - self.f_m {
            return None;
        }
        let phase = std::mem::replace(&mut self.phase, Phase::Idle);
        if phase == Phase::One && !self.nack {
            self.max_round_seen = self.max_round_seen.max(self.seen.round);
        }
        // "if (!writeSuccess[i] for some i) then continue"; "if
        // (localInfo[i,q].minProp > propNr for some i,q) continue".
        // Either way be conservative: re-acquire.
        if self.nack || self.seen > self.ballot {
            self.holds_permission = false;
            return Some(PmpOutcome::Abandoned);
        }
        // A quorum took the acquisition; the phase-2 writes will tell if
        // anyone raced us.
        self.holds_permission = true;
        Some(match phase {
            Phase::One => PmpOutcome::Acquired,
            _ => PmpOutcome::Accepted,
        })
    }
}

/// A Protected Memory Paxos process: one instance, one input.
#[derive(Debug)]
pub struct ProtectedPaxosActor {
    me: Pid,
    procs: Vec<Pid>,
    instance: Instance,
    input: Value,
    initial_leader: Pid,
    retry_every: Duration,
    client: MemoryClient<RegVal, Msg>,
    pmp: PmpProposer,
    is_leader: bool,
    /// The accepted value of the highest `accProp` the phase-1 scan in
    /// flight has returned so far.
    adopted: Option<(Ballot, Value)>,
    /// The value phase 2 is writing.
    value: Option<Value>,
    decided: Option<Value>,
    /// When this process decided, if it has.
    pub decided_at: Option<Time>,
}

impl ProtectedPaxosActor {
    /// Creates a process. `f_m` is the assumed bound on memory crashes
    /// (`mems.len() ≥ 2·f_m + 1` must hold).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        mems: Vec<ActorId>,
        instance: Instance,
        input: Value,
        initial_leader: Pid,
        f_m: usize,
        retry_every: Duration,
    ) -> ProtectedPaxosActor {
        assert!(mems.len() > 2 * f_m, "m >= 2 f_M + 1 required");
        ProtectedPaxosActor {
            me,
            procs,
            instance,
            input,
            initial_leader,
            retry_every,
            client: MemoryClient::new(),
            pmp: PmpProposer::new(me, mems, f_m, me == initial_leader),
            is_leader: false,
            adopted: None,
            value: None,
            decided: None,
            decided_at: None,
        }
    }

    /// This process's decision, if reached.
    pub fn decision(&self) -> Option<Value> {
        self.decided
    }

    fn start_attempt(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.is_leader || self.decided.is_some() {
            return;
        }
        if self.pmp.holds_permission() {
            // Fast path (the initial leader's first attempt): permission
            // is pre-owned and ballot (0, me) is the lowest possible, so
            // phase 1 is unnecessary — write and decide.
            self.propose(ctx, self.input);
            return;
        }
        self.adopted = None;
        let this_instance = RegionSpec::Pattern {
            space: spaces::PMP,
            a: Some(self.instance.0),
            b: None,
            c: None,
        };
        self.pmp
            .acquire(ctx, &mut self.client, self.instance, Some(this_instance));
    }

    fn propose(&mut self, ctx: &mut Context<'_, Msg>, v: Value) {
        self.value = Some(v);
        self.pmp
            .accept(ctx, &mut self.client, self.instance.0, &[v]);
    }

    fn decide(&mut self, ctx: &mut Context<'_, Msg>, v: Value) {
        self.decided = Some(v);
        self.decided_at = Some(ctx.now());
        ctx.mark_decided();
    }
}

impl Actor<Msg> for ProtectedPaxosActor {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                self.is_leader = self.initial_leader == self.me;
                if self.is_leader {
                    self.start_attempt(ctx);
                }
                ctx.set_timer(self.retry_every, RETRY_TAG);
            }
            EventKind::Timer { tag: RETRY_TAG, .. } => {
                if self.decided.is_none() {
                    // An abandoned proposal retries here (with a higher
                    // ballot), provided Ω still nominates us.
                    if self.is_leader && self.pmp.is_idle() {
                        self.start_attempt(ctx);
                    }
                    ctx.set_timer(self.retry_every, RETRY_TAG);
                }
            }
            EventKind::Timer { .. } => {}
            EventKind::LeaderChange { leader } => {
                let was = self.is_leader;
                self.is_leader = leader == self.me;
                if self.is_leader && !was && self.pmp.is_idle() {
                    self.start_attempt(ctx);
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let Some(c) = self.client.on_wire(ctx, from, wire) else {
                    return;
                };
                let adopted = &mut self.adopted;
                let outcome = self.pmp.on_completion(c, |_, ap, v| {
                    if adopted.is_none_or(|(best, _)| ap > best) {
                        *adopted = Some((ap, v));
                    }
                });
                match outcome {
                    // Adopt the accepted value of the highest accProp,
                    // else our input.
                    Some(PmpOutcome::Acquired) => {
                        let v = self.adopted.map_or(self.input, |(_, v)| v);
                        self.propose(ctx, v);
                    }
                    Some(PmpOutcome::Accepted) => {
                        let v = self.value.expect("phase 2 without value");
                        self.decide(ctx, v);
                        for &q in &self.procs {
                            if q != self.me {
                                let instance = self.instance;
                                ctx.send(q, Msg::Decided { instance, value: v });
                            }
                        }
                    }
                    Some(PmpOutcome::Abandoned) | None => {}
                }
            }
            EventKind::Msg {
                msg: Msg::Decided { instance, value },
                ..
            } => {
                if instance == self.instance && self.decided.is_none() {
                    self.decide(ctx, value);
                }
            }
            EventKind::Msg { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Simulation;

    fn build(n: u32, m: u32, seed: u64) -> (Simulation<Msg>, Vec<Pid>, Vec<ActorId>) {
        let mut sim = Simulation::new(seed);
        let procs: Vec<Pid> = (0..n).map(ActorId).collect();
        let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
        for i in 0..n {
            sim.add(ProtectedPaxosActor::new(
                ActorId(i),
                procs.clone(),
                mems.clone(),
                Instance(0),
                Value(100 + i as u64),
                ActorId(0),
                (m as usize - 1) / 2,
                Duration::from_delays(25),
            ));
        }
        let added: Vec<ActorId> = (0..m).map(|_| sim.add(memory_actor(ActorId(0)))).collect();
        assert_eq!(added, mems);
        (sim, procs, mems)
    }

    fn decisions(sim: &Simulation<Msg>, procs: &[Pid]) -> Vec<Option<Value>> {
        procs
            .iter()
            .map(|&p| sim.actor_as::<ProtectedPaxosActor>(p).unwrap().decision())
            .collect()
    }

    #[test]
    fn common_case_decides_in_two_delays() {
        let (mut sim, procs, _) = build(3, 3, 1);
        sim.run_to_quiescence(Time::from_delays(30));
        let ds = decisions(&sim, &procs);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
        // One parallel slot write: 2 delays — the Theorem 5.1 headline.
        assert_eq!(sim.metrics().first_decision_delays(), Some(2.0));
    }

    #[test]
    fn single_survivor_decides_n_equals_f_plus_one() {
        let (mut sim, procs, _) = build(3, 3, 2);
        sim.crash_at(ActorId(1), Time::ZERO);
        sim.crash_at(ActorId(2), Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(100));
        assert_eq!(decisions(&sim, &procs)[0], Some(Value(100)));
    }

    #[test]
    fn tolerates_minority_memory_crashes() {
        let (mut sim, procs, mems) = build(2, 5, 3);
        sim.crash_at(mems[0], Time::ZERO);
        sim.crash_at(mems[2], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(100));
        let ds = decisions(&sim, &procs);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn majority_memory_crash_blocks_safely() {
        let (mut sim, procs, mems) = build(2, 3, 4);
        sim.crash_at(mems[0], Time::ZERO);
        sim.crash_at(mems[1], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(500));
        assert_eq!(decisions(&sim, &procs), vec![None, None]);
    }

    #[test]
    fn takeover_revokes_old_leader_and_preserves_value() {
        // p0 decides at 2 delays; p1 takes over and must adopt p0's value.
        let (mut sim, procs, _) = build(3, 3, 5);
        sim.crash_at(ActorId(0), Time::from_delays(3));
        sim.announce_leader(Time::from_delays(10), &procs, ActorId(1));
        sim.run_to_quiescence(Time::from_delays(300));
        let ds = decisions(&sim, &procs);
        assert_eq!(ds[1], Some(Value(100)), "{ds:?}");
        assert_eq!(ds[2], Some(Value(100)), "{ds:?}");
    }

    #[test]
    fn takeover_before_initial_leader_writes_blocks_its_write() {
        // p1 grabs permissions before p0 (the initial leader) gets its
        // write out: p0's write naks and p0 must not decide its own value
        // unless it re-runs and adopts.
        let (mut sim, procs, _) = build(2, 3, 6);
        // Delay p0's phase-2 writes by 50 delays.
        sim.set_delay_hook(Box::new(|_, from, _, m| {
            if from == ActorId(0) {
                if let Msg::Mem(rdma_sim::MemWire::Req {
                    req: rdma_sim::MemRequest::Write { .. },
                    ..
                }) = m
                {
                    return Some(Duration::from_delays(50));
                }
            }
            None
        }));
        sim.announce_leader(Time::from_delays(5), &procs, ActorId(1));
        sim.run_to_quiescence(Time::from_delays(1000));
        let ds = decisions(&sim, &procs);
        // Everyone agrees (p1's value wins; p0's blocked write naks).
        assert!(ds.iter().all(|d| *d == Some(Value(101))), "{ds:?}");
    }

    #[test]
    fn contending_leaders_stay_safe_many_seeds() {
        for seed in 0..15 {
            let (mut sim, procs, _) = build(3, 3, seed);
            sim.announce_leader(Time::from_delays(1), &procs[1..2], ActorId(1));
            sim.announce_leader(Time::from_delays(2), &procs[2..3], ActorId(2));
            sim.announce_leader(Time::from_delays(80), &procs, ActorId(2));
            sim.run_to_quiescence(Time::from_delays(2000));
            let got: Vec<Value> = decisions(&sim, &procs).into_iter().flatten().collect();
            assert!(!got.is_empty(), "seed {seed}: nobody decided");
            assert!(got.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {got:?}");
        }
    }
}
