//! Aligned Paxos (§5.2, Algorithms 9–15).
//!
//! Shows that processes and memories are *equivalent agents*: consensus is
//! possible as long as a majority of the **combined** set of agents
//! (`n + m`) stays alive — strictly better than requiring a process
//! majority or a memory majority separately.
//!
//! Structure (Algorithm 9): a classic two-phase proposer whose
//! communicate / hear-back / analyze steps are implemented per agent kind:
//!
//! * **Process agents** speak Paxos: `Prepare`/`Promise`,
//!   `Accept`/`Accepted` ([`AlMsg`]).
//! * **Memory agents** hold one slot per process. Two implementations of
//!   the memory leg are provided, mirroring the paper's footnote 4:
//!   * [`MemoryMode::Protected`] — Algorithm 10's `changePermission` then
//!     write; a successful phase-2 write needs no read-back (dynamic
//!     permissions, as in Protected Memory Paxos).
//!   * [`MemoryMode::DiskStyle`] — write own slot then read all slots
//!     (Disk-Paxos style, **no permissions needed**); phase 2 re-reads to
//!     verify no interference.
//!
//! A phase completes when a majority of all agents answered successfully;
//! any `Nack`, higher `minProp`, or failed write aborts the attempt.

use std::collections::BTreeMap;

use rdma_sim::{
    LegalChange, MemResponse, MemoryActor, MemoryClient, Permission, RegId, RegionId, RegionSpec,
    Window,
};
use simnet::{Actor, ActorId, Context, Duration, EventKind, Time};

use crate::types::{spaces, Ballot, Instance, Msg, PaxSlot, Pid, RegVal, Value};

/// Process-agent messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AlMsg {
    /// Phase-1 communicate to a process agent.
    Prepare {
        /// The ballot.
        b: Ballot,
    },
    /// Phase-1 hear-back from a process agent.
    Promise {
        /// The promised ballot.
        b: Ballot,
        /// The agent's accepted pair, if any.
        acc: Option<(Ballot, Value)>,
    },
    /// Phase-2 communicate to a process agent.
    Accept {
        /// The ballot.
        b: Ballot,
        /// The value.
        v: Value,
    },
    /// Phase-2 hear-back from a process agent.
    Accepted {
        /// The ballot.
        b: Ballot,
    },
    /// Rejection (the agent promised a higher ballot).
    Nack {
        /// The rejected ballot.
        b: Ballot,
    },
}

/// How the memory leg is implemented (footnote 4 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemoryMode {
    /// Acquire exclusive write permission, then write; phase-2 write
    /// success alone certifies no interference.
    Protected,
    /// Static per-process slots; every phase writes then reads all slots
    /// back (permissions unused).
    DiskStyle,
}

/// Region id for the exclusive whole-space region (Protected mode).
pub const EXCL_REGION: RegionId = RegionId(0x6000);

/// Region id of process `p`'s slot row (DiskStyle mode).
pub fn row_region(p: Pid) -> RegionId {
    RegionId(0x6100 + p.0)
}

/// Region id of the read-only whole-space region.
pub const ALL_REGION: RegionId = RegionId(0x61FF);

/// The slot of process `p` in `instance`.
pub fn slot_reg(instance: Instance, p: Pid) -> RegId {
    RegId::two(spaces::ALN, instance.0, p.0 as u64)
}

/// Builds one Aligned Paxos memory for the given mode.
pub fn memory_actor(
    mode: MemoryMode,
    procs: &[Pid],
    initial_leader: Pid,
) -> MemoryActor<RegVal, Msg> {
    match mode {
        MemoryMode::Protected => {
            MemoryActor::new(LegalChange::Policy(crate::protected::legal_change)).with_region(
                EXCL_REGION,
                RegionSpec::Space(spaces::ALN),
                Permission::exclusive_writer(initial_leader),
            )
        }
        MemoryMode::DiskStyle => {
            let mut mem = MemoryActor::new(LegalChange::Static);
            for &p in procs {
                mem.add_region(
                    row_region(p),
                    RegionSpec::Pattern {
                        space: spaces::ALN,
                        a: None,
                        b: Some(Window::exact(p.0 as u64)),
                        c: None,
                    },
                    Permission::exclusive_writer(p),
                );
            }
            mem.add_region(
                ALL_REGION,
                RegionSpec::Space(spaces::ALN),
                Permission::read_only(),
            );
            mem
        }
    }
}

const RETRY_TAG: u64 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Idle,
    One,
    Two,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StepKind {
    Perm,
    Write,
    Scan,
}

#[derive(Clone, Debug, Default)]
struct MemAgent {
    wrote: Option<bool>,
    slots: Option<Vec<PaxSlot>>,
    /// DiskStyle phase 2 verification scan outcome.
    verify: Option<Vec<PaxSlot>>,
}

/// An Aligned Paxos process: always an acceptor agent; a proposer when Ω
/// nominates it.
#[derive(Debug)]
pub struct AlignedPaxosActor {
    me: Pid,
    procs: Vec<Pid>,
    mems: Vec<ActorId>,
    instance: Instance,
    input: Value,
    initial_leader: Pid,
    mode: MemoryMode,
    retry_every: Duration,
    client: MemoryClient<RegVal, Msg>,
    // Acceptor agent state.
    promised: Option<Ballot>,
    accepted: Option<(Ballot, Value)>,
    // Proposer state.
    is_leader: bool,
    attempt: u64,
    round: u64,
    max_round_seen: u64,
    ballot: Option<Ballot>,
    phase: Phase,
    value: Option<Value>,
    promises: BTreeMap<Pid, Option<(Ballot, Value)>>,
    accepteds: BTreeMap<Pid, ()>,
    nacked: bool,
    mem_agents: BTreeMap<ActorId, MemAgent>,
    op_map: BTreeMap<rdma_sim::OpId, (u64, ActorId, StepKind)>,
    decided: Option<Value>,
    /// When this process decided, if it has.
    pub decided_at: Option<Time>,
}

impl AlignedPaxosActor {
    /// Creates a process.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        mems: Vec<ActorId>,
        instance: Instance,
        input: Value,
        initial_leader: Pid,
        mode: MemoryMode,
        retry_every: Duration,
    ) -> AlignedPaxosActor {
        AlignedPaxosActor {
            me,
            procs,
            mems,
            instance,
            input,
            initial_leader,
            mode,
            retry_every,
            client: MemoryClient::new(),
            promised: None,
            accepted: None,
            is_leader: false,
            attempt: 0,
            round: 0,
            max_round_seen: 0,
            ballot: None,
            phase: Phase::Idle,
            value: None,
            promises: BTreeMap::new(),
            accepteds: BTreeMap::new(),
            nacked: false,
            mem_agents: BTreeMap::new(),
            op_map: BTreeMap::new(),
            decided: None,
            decided_at: None,
        }
    }

    /// This process's decision, if reached.
    pub fn decision(&self) -> Option<Value> {
        self.decided
    }

    /// Majority of the combined agent set (processes + memories).
    fn agent_majority(&self) -> usize {
        (self.procs.len() + self.mems.len()) / 2 + 1
    }

    fn write_region(&self) -> RegionId {
        match self.mode {
            MemoryMode::Protected => EXCL_REGION,
            MemoryMode::DiskStyle => row_region(self.me),
        }
    }

    fn scan_region(&self) -> RegionId {
        match self.mode {
            MemoryMode::Protected => EXCL_REGION,
            MemoryMode::DiskStyle => ALL_REGION,
        }
    }

    fn instance_pattern(&self) -> RegionSpec {
        RegionSpec::Pattern {
            space: spaces::ALN,
            a: Some(self.instance.0),
            b: None,
            c: None,
        }
    }

    fn start_attempt(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.is_leader || self.decided.is_some() {
            return;
        }
        self.attempt += 1;
        self.round = self.round.max(self.max_round_seen) + 1;
        let b = Ballot {
            round: self.round,
            pid: self.me,
        };
        self.ballot = Some(b);
        self.phase = Phase::One;
        self.promises.clear();
        self.accepteds.clear();
        self.nacked = false;
        self.mem_agents.clear();
        // Communicate phase 1 to process agents (including ourselves,
        // locally and instantaneously).
        for &q in &self.procs.clone() {
            if q != self.me {
                ctx.send(q, Msg::Aligned(AlMsg::Prepare { b }));
            }
        }
        if let Some(reply) = self.acceptor_on(AlMsg::Prepare { b }) {
            self.proposer_on(ctx, self.me, reply);
        }
        // Communicate phase 1 to memory agents.
        let reg = slot_reg(self.instance, self.me);
        for &mem in &self.mems.clone() {
            self.mem_agents.insert(mem, MemAgent::default());
            if self.mode == MemoryMode::Protected {
                let p = self.client.change_perm(
                    ctx,
                    mem,
                    EXCL_REGION,
                    Permission::exclusive_writer(self.me),
                );
                self.op_map.insert(p, (self.attempt, mem, StepKind::Perm));
            }
            let w = self.client.write(
                ctx,
                mem,
                self.write_region(),
                reg,
                RegVal::Slot(PaxSlot::phase1(b)),
            );
            self.op_map.insert(w, (self.attempt, mem, StepKind::Write));
            let r =
                self.client
                    .read_range(ctx, mem, self.scan_region(), Some(self.instance_pattern()));
            self.op_map.insert(r, (self.attempt, mem, StepKind::Scan));
        }
    }

    /// The acceptor-agent half (runs on every process).
    fn acceptor_on(&mut self, m: AlMsg) -> Option<AlMsg> {
        match m {
            AlMsg::Prepare { b } => {
                self.max_round_seen = self.max_round_seen.max(b.round);
                if self.promised.is_none_or(|p| b >= p) {
                    self.promised = Some(b);
                    Some(AlMsg::Promise {
                        b,
                        acc: self.accepted,
                    })
                } else {
                    Some(AlMsg::Nack { b })
                }
            }
            AlMsg::Accept { b, v } => {
                self.max_round_seen = self.max_round_seen.max(b.round);
                if self.promised.is_none_or(|p| b >= p) {
                    self.promised = Some(b);
                    self.accepted = Some((b, v));
                    Some(AlMsg::Accepted { b })
                } else {
                    Some(AlMsg::Nack { b })
                }
            }
            _ => None,
        }
    }

    /// The proposer half: absorbs hear-backs from process agents.
    fn proposer_on(&mut self, ctx: &mut Context<'_, Msg>, from: Pid, m: AlMsg) {
        let Some(ballot) = self.ballot else { return };
        match m {
            AlMsg::Promise { b, acc } if b == ballot && self.phase == Phase::One => {
                self.promises.insert(from, acc);
                self.phase1_step(ctx);
            }
            AlMsg::Accepted { b } if b == ballot && self.phase == Phase::Two => {
                self.accepteds.insert(from, ());
                self.phase2_step(ctx);
            }
            AlMsg::Nack { b } if b == ballot => {
                self.max_round_seen = self.max_round_seen.max(b.round);
                self.nacked = true;
                self.abandon();
            }
            _ => {}
        }
    }

    fn abandon(&mut self) {
        self.phase = Phase::Idle;
    }

    fn completed_mem_agents_phase1(&self) -> Vec<&MemAgent> {
        self.mem_agents
            .values()
            .filter(|a| a.wrote.is_some() && a.slots.is_some())
            .collect()
    }

    fn phase1_step(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.phase != Phase::One {
            return;
        }
        let ballot = self.ballot.expect("phase without ballot");
        let mems = self.completed_mem_agents_phase1();
        let ok_mems: Vec<_> = mems.iter().filter(|a| a.wrote == Some(true)).collect();
        // Analyze 1 (Algorithm 12): any failed write or higher minProp
        // aborts; otherwise adopt the highest accepted value.
        let mut max_seen = 0;
        let mut higher = false;
        let mut best: Option<(Ballot, Value)> = None;
        for a in &ok_mems {
            for s in a.slots.as_ref().expect("completed") {
                max_seen = max_seen.max(s.min_prop.round);
                if s.min_prop > ballot {
                    higher = true;
                }
                if let (Some(ap), Some(v)) = (s.acc_prop, s.value) {
                    if best.is_none_or(|(bb, _)| ap > bb) {
                        best = Some((ap, v));
                    }
                }
            }
        }
        let any_failed_write = mems.iter().any(|a| a.wrote == Some(false));
        let responded = self.promises.len() + mems.len();
        if responded < self.agent_majority() {
            self.max_round_seen = self.max_round_seen.max(max_seen);
            return;
        }
        self.max_round_seen = self.max_round_seen.max(max_seen);
        if higher || any_failed_write {
            self.abandon();
            return;
        }
        // Merge process promises into the adoption rule.
        for acc in self.promises.values().flatten() {
            if best.is_none_or(|(bb, _)| acc.0 > bb) {
                best = Some(*acc);
            }
        }
        let v = best.map(|(_, v)| v).unwrap_or(self.input);
        self.value = Some(v);
        self.phase = Phase::Two;
        self.attempt += 1;
        self.accepteds.clear();
        // Communicate phase 2.
        for &q in &self.procs.clone() {
            if q != self.me {
                ctx.send(q, Msg::Aligned(AlMsg::Accept { b: ballot, v }));
            }
        }
        if let Some(reply) = self.acceptor_on(AlMsg::Accept { b: ballot, v }) {
            self.proposer_on(ctx, self.me, reply);
        }
        let reg = slot_reg(self.instance, self.me);
        for &mem in &self.mems.clone() {
            self.mem_agents.insert(mem, MemAgent::default());
            let w = self.client.write(
                ctx,
                mem,
                self.write_region(),
                reg,
                RegVal::Slot(PaxSlot::phase2(ballot, v)),
            );
            self.op_map.insert(w, (self.attempt, mem, StepKind::Write));
            if self.mode == MemoryMode::DiskStyle {
                let r = self.client.read_range(
                    ctx,
                    mem,
                    self.scan_region(),
                    Some(self.instance_pattern()),
                );
                self.op_map.insert(r, (self.attempt, mem, StepKind::Scan));
            }
        }
    }

    fn phase2_step(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.phase != Phase::Two {
            return;
        }
        let ballot = self.ballot.expect("phase without ballot");
        let complete: Vec<&MemAgent> = self
            .mem_agents
            .values()
            .filter(|a| match self.mode {
                MemoryMode::Protected => a.wrote.is_some(),
                MemoryMode::DiskStyle => a.wrote.is_some() && a.verify.is_some(),
            })
            .collect();
        let mut ok_mems = 0;
        let mut failed = false;
        for a in &complete {
            if a.wrote != Some(true) {
                failed = true;
                continue;
            }
            match self.mode {
                MemoryMode::Protected => ok_mems += 1,
                MemoryMode::DiskStyle => {
                    let slots = a.verify.as_ref().expect("completed");
                    if slots.iter().any(|s| s.min_prop > ballot) {
                        failed = true;
                    } else {
                        ok_mems += 1;
                    }
                }
            }
        }
        if failed {
            self.abandon();
            return;
        }
        if self.accepteds.len() + ok_mems < self.agent_majority() {
            return;
        }
        let v = self.value.expect("phase 2 without value");
        self.decided = Some(v);
        self.decided_at = Some(ctx.now());
        self.phase = Phase::Idle;
        ctx.mark_decided();
        for &q in &self.procs.clone() {
            if q != self.me {
                ctx.send(
                    q,
                    Msg::Decided {
                        instance: self.instance,
                        value: v,
                    },
                );
            }
        }
    }
}

impl Actor<Msg> for AlignedPaxosActor {
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
                    if self.is_leader && self.phase == Phase::Idle {
                        self.start_attempt(ctx);
                    }
                    ctx.set_timer(self.retry_every, RETRY_TAG);
                }
            }
            EventKind::Timer { .. } => {}
            EventKind::LeaderChange { leader } => {
                let was = self.is_leader;
                self.is_leader = leader == self.me;
                if self.is_leader && !was && self.phase == Phase::Idle {
                    self.start_attempt(ctx);
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Aligned(m),
            } => {
                // Acceptor-agent half first (Prepare/Accept), proposer half
                // for hear-backs.
                match m {
                    AlMsg::Prepare { .. } | AlMsg::Accept { .. } => {
                        if let Some(reply) = self.acceptor_on(m) {
                            ctx.send(from, Msg::Aligned(reply));
                        }
                    }
                    _ => self.proposer_on(ctx, from, m),
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let Some(c) = self.client.on_wire(ctx, from, wire) else {
                    return;
                };
                let Some((attempt, mem, step)) = self.op_map.remove(&c.op) else {
                    return;
                };
                if attempt != self.attempt || self.phase == Phase::Idle {
                    return;
                }
                let phase = self.phase;
                let Some(agent) = self.mem_agents.get_mut(&mem) else {
                    return;
                };
                match (step, c.resp) {
                    (StepKind::Perm, _) => {} // advisory; write outcome decides
                    (StepKind::Write, MemResponse::Ack) => agent.wrote = Some(true),
                    (StepKind::Write, _) => agent.wrote = Some(false),
                    (StepKind::Scan, MemResponse::Range(rows)) => {
                        let slots: Vec<PaxSlot> = rows
                            .into_iter()
                            .filter_map(|(_, v)| match v {
                                RegVal::Slot(s) => Some(s),
                                _ => None,
                            })
                            .collect();
                        match phase {
                            Phase::One => agent.slots = Some(slots),
                            Phase::Two => agent.verify = Some(slots),
                            Phase::Idle => {}
                        }
                    }
                    (StepKind::Scan, _) => match phase {
                        Phase::One => agent.slots = Some(Vec::new()),
                        Phase::Two => agent.verify = Some(Vec::new()),
                        Phase::Idle => {}
                    },
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
                if instance == self.instance && self.decided.is_none() {
                    self.decided = Some(value);
                    self.decided_at = Some(ctx.now());
                    ctx.mark_decided();
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

    fn build(
        n: u32,
        m: u32,
        seed: u64,
        mode: MemoryMode,
    ) -> (Simulation<Msg>, Vec<Pid>, Vec<ActorId>) {
        let mut sim = Simulation::new(seed);
        let procs: Vec<Pid> = (0..n).map(ActorId).collect();
        let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
        for i in 0..n {
            sim.add(AlignedPaxosActor::new(
                ActorId(i),
                procs.clone(),
                mems.clone(),
                Instance(0),
                Value(100 + i as u64),
                ActorId(0),
                mode,
                Duration::from_delays(30),
            ));
        }
        for _ in 0..m {
            sim.add(memory_actor(mode, &procs, ActorId(0)));
        }
        (sim, procs, mems)
    }

    fn decisions(sim: &Simulation<Msg>, procs: &[Pid]) -> Vec<Option<Value>> {
        procs
            .iter()
            .map(|&p| sim.actor_as::<AlignedPaxosActor>(p).unwrap().decision())
            .collect()
    }

    #[test]
    fn decides_in_common_case_both_modes() {
        for mode in [MemoryMode::Protected, MemoryMode::DiskStyle] {
            let (mut sim, procs, _) = build(3, 2, 1, mode);
            sim.run_to_quiescence(Time::from_delays(60));
            let ds = decisions(&sim, &procs);
            assert!(
                ds.iter().all(|d| *d == Some(Value(100))),
                "{mode:?}: {ds:?}"
            );
        }
    }

    #[test]
    fn survives_combined_minority_failures() {
        // n=3, m=2 → 5 agents, majority 3. Kill 1 process + 1 memory.
        let (mut sim, procs, mems) = build(3, 2, 2, MemoryMode::DiskStyle);
        sim.crash_at(ActorId(2), Time::ZERO);
        sim.crash_at(mems[1], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(200));
        let ds = decisions(&sim, &procs[..2]);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn survives_all_memories_down_if_process_majority() {
        // n=4, m=3 → 7 agents, majority 4 = all processes.
        let (mut sim, procs, mems) = build(4, 3, 3, MemoryMode::DiskStyle);
        for &d in &mems {
            sim.crash_at(d, Time::ZERO);
        }
        sim.run_to_quiescence(Time::from_delays(200));
        let ds = decisions(&sim, &procs);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn survives_all_but_one_process_if_memory_rich() {
        // n=2, m=5 → 7 agents, majority 4 = 1 process + 3 memories... the
        // proposer plus 3 memories reach quorum with the peer crashed.
        let (mut sim, procs, mems) = build(2, 5, 4, MemoryMode::DiskStyle);
        sim.crash_at(ActorId(1), Time::ZERO);
        sim.crash_at(mems[0], Time::ZERO);
        sim.crash_at(mems[1], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(200));
        assert_eq!(decisions(&sim, &procs)[0], Some(Value(100)));
    }

    #[test]
    fn combined_majority_failure_blocks_safely() {
        // n=3, m=2 → majority 3; kill 2 processes + 1 memory (3 agents).
        let (mut sim, procs, mems) = build(3, 2, 5, MemoryMode::DiskStyle);
        sim.crash_at(ActorId(1), Time::ZERO);
        sim.crash_at(ActorId(2), Time::ZERO);
        sim.crash_at(mems[0], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(800));
        assert_eq!(decisions(&sim, &procs)[0], None);
    }

    #[test]
    fn takeover_preserves_value_both_modes() {
        for mode in [MemoryMode::Protected, MemoryMode::DiskStyle] {
            let (mut sim, procs, _) = build(3, 3, 6, mode);
            sim.crash_at(ActorId(0), Time::from_delays(8));
            sim.announce_leader(Time::from_delays(15), &procs, ActorId(1));
            sim.run_to_quiescence(Time::from_delays(400));
            let ds = decisions(&sim, &procs[1..]);
            let got: Vec<Value> = ds.iter().flatten().copied().collect();
            assert!(!got.is_empty(), "{mode:?}: nobody decided");
            assert!(got.iter().all(|v| *v == got[0]), "{mode:?}: {got:?}");
        }
    }

    #[test]
    fn contention_stays_safe_many_seeds() {
        for seed in 0..10 {
            for mode in [MemoryMode::Protected, MemoryMode::DiskStyle] {
                let (mut sim, procs, _) = build(3, 2, seed, mode);
                sim.announce_leader(Time::from_delays(2), &procs[1..2], ActorId(1));
                sim.announce_leader(Time::from_delays(4), &procs[2..3], ActorId(2));
                sim.announce_leader(Time::from_delays(100), &procs, ActorId(1));
                sim.run_to_quiescence(Time::from_delays(3000));
                let got: Vec<Value> = decisions(&sim, &procs).into_iter().flatten().collect();
                assert!(!got.is_empty(), "{mode:?} seed {seed}: nobody decided");
                assert!(
                    got.windows(2).all(|w| w[0] == w[1]),
                    "{mode:?} seed {seed}: {got:?}"
                );
            }
        }
    }
}
