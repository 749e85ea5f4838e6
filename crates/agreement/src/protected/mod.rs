//! Protected Memory Paxos (Algorithm 7, Theorem 5.1) — and the one
//! two-phase proposer and single-decree actor every crash-side
//! shared-memory protocol in the crate runs on (Algorithm 9).
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
//! # Algorithm 9 once
//!
//! §5.2 presents the crash-side algorithms as one two-phase proposer whose
//! communicate / hear-back / analyze steps are implemented per agent kind,
//! "processes and memories being equivalent agents". `Proposer` is that
//! proposer, driven in the repo's `(ctx, client)` engine idiom: one ballot
//! per acquisition, every operation stamped with its attempt, and each
//! phase judged **once**, when the quorum-th agent has answered — any
//! refused write, `Nack` or higher `minProp` abandons, otherwise phase 1
//! hands the driver every accepted `(instance, accProp, value)` to adopt
//! the highest of. It knows neither what is being decided nor who leads.
//!
//! * A **memory agent** is spoken to through a [`MemoryLeg`]:
//!   [`Protected`] (`changePermission` → ballot write → scan; a successful
//!   phase-2 write alone certifies) or [`crate::disk_paxos::Static`]
//!   (own-row write + read-back in both phases, no permissions).
//! * A **process agent** is another process's [`Acceptor`], asked in
//!   [`PaxosMsg`]; its `Promise` / `Accepted` / `Nack` counts toward the
//!   same quorum.
//!
//! [`SingleDecree`] is the one actor over it — Ω, the retry timer, the
//! acceptor role, `Decided` fan-out and adoption — and the three
//! single-decree protocols are what they *declare*:
//!
//! | | agents | leg | quorum | pre-owned first ballot skips phase 1 |
//! |---|---|---|---|---|
//! | [`crate::disk_paxos::DiskPaxosActor`] | memories | `Static` | `⌊m/2⌋+1` | yes |
//! | [`ProtectedPaxosActor`] | memories | `Protected` | `m − f_M` | yes |
//! | [`crate::aligned::AlignedPaxosActor`] | processes + memories | by [`crate::aligned::MemoryMode`] | `⌊(n+m)/2⌋+1` | no |
//!
//! The crash-mode replicated log ([`crate::smr::SmrNode`]) drives the same
//! proposer over the whole log (`Protected` leg, no process agents, a
//! ballot register plus the undecided suffix on takeover, batched
//! writes) — the paper's closing remark that "the leader terminates one
//! instance and becomes the default leader in the next" is one proposer,
//! not two.
//!
//! # The log's acquisition: one ballot register, the undecided suffix
//!
//! A single-decree acquisition stamps `{b, ⊥, ⊥}` into its own slot of the
//! one instance and reads that instance's row, which holds every
//! competitor's stamp: one read checks `minProp > propNr` and finds what to
//! adopt. The crash log runs one instance per slot, and a successor only
//! proposes from `at`, its first instance not known decided: every
//! instance below is decided and never proposed again, so
//! `Proposer::acquire_suffix` reads the undecided suffix `[at, ∞)` and
//! nothing below it — a takeover costs what the log holds above `at`, not
//! the log's length.
//!
//! The stamp cannot stay in slot `(at, me)`: leaders acquire at different
//! `at`. Take a competitor C with a higher round whose `at` is below ours,
//! which acquired and then landed one phase-2 write at an instance ≥ our
//! `at` on a memory outside our quorum. A suffix scan misses C's stamp, we
//! decide over that write at a lower ballot, and a later leader whose
//! quorum includes that memory adopts C's value, since its ballot is
//! higher: the log forks. So each process has one **ballot register** for
//! the whole log ([`ballot_reg`]), in the spirit of Multi-Paxos's single
//! prepare. On every memory the acquisition grabs the permission, stamps
//! its ballot into its ballot register, scans the suffix, and then reads
//! every process's ballot register.
//!
//! Why that is as safe as the whole-log scan it replaces. On one memory,
//! every slot's `minProp` is at most its writer's ballot register there:
//! a phase-2 write carries the ballot its writer stamped into its register
//! on that memory earlier in the same permission tenure (a process's
//! operations reach a memory in order, and a write acked means no
//! acquisition came between), or the pre-owned round-0 ballot, which is
//! below every acquired one; and a register only grows. Reading the
//! registers *after* the suffix therefore bounds every slot's `minProp` as
//! of the suffix read. A memory that passes the check here passes it under
//! a whole-log scan taken at the suffix read's instant, which returns the
//! same values at `at` and above; below `at` it returns values the
//! successor never proposes over.
//!
//! The single-decree protocols keep their row stamp, though every
//! Protected Memory Paxos memory covers the ballot registers: for one
//! instance the row *is* the set of ballot registers, read by the
//! acquisition's one scan, and moving the stamp would add a read — a round
//! trip to every memory — to every single-decree takeover and check
//! nothing more. The registers live in their own sparse space
//! ([`spaces::PMP_BALLOT`]): in the log space a lone row would reserve a
//! whole log page. One region covers every register of a memory, so one
//! permission guards both spaces.

use std::fmt;
use std::sync::Arc;

use rdma_sim::{
    Completion, LegalChange, MemResponse, MemoryActor, MemoryClient, OpId, Permission, RegId,
    RegionId, RegionSpec, Window,
};
use simnet::{Actor, ActorId, Context, Duration, EventKind};

use crate::paxos::{Acceptor, PaxosMsg};
use crate::types::{spaces, Ballot, Instance, Msg, PaxSlot, Pid, RegVal, Value};

/// The single per-memory region of Protected Memory Paxos.
pub const REGION: RegionId = RegionId(0x5000);

/// The slot of process `p` in `instance`.
pub fn slot_reg(instance: Instance, p: Pid) -> RegId {
    RegId::two(spaces::PMP, instance.0, p.0 as u64)
}

/// Process `p`'s ballot register: where each of its log acquisitions
/// stamps its ballot (see the module docs).
pub fn ballot_reg(p: Pid) -> RegId {
    RegId::two(spaces::PMP_BALLOT, 0, p.0 as u64)
}

/// Every process's ballot register.
pub(crate) const BALLOTS: RegionSpec = RegionSpec::space(spaces::PMP_BALLOT);

/// Every process's slot in every instance from `at` on: the log's
/// undecided suffix as a takeover scans it.
pub(crate) fn suffix(at: Instance) -> RegionSpec {
    RegionSpec {
        a: Window::suffix(at.0),
        ..RegionSpec::space(spaces::PMP)
    }
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
/// the write permission. [`slot_reg`] makes the space a log along the
/// instance, one column per proposer, and the memory is told so. The one
/// region holds every register, the slots and the [`ballot_reg`]s alike.
pub fn memory_actor(initial_leader: Pid) -> MemoryActor<RegVal, Msg> {
    MemoryActor::new(LegalChange::Policy(legal_change))
        .with_log_space(spaces::PMP)
        .with_region(
            REGION,
            RegionSpec::ALL,
            Permission::exclusive_writer(initial_leader),
        )
}

/// Where a memory leg keeps the proposers' slots `slot[instance, p]`, and
/// how a write to one is certified.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Dynamic permissions: phase 1 opens with a `changePermission`, and a
    /// write that succeeds proves nobody took over since. Without them
    /// every write is followed by a read-back of all slots.
    pub dynamic: bool,
    /// Register namespace of the slots.
    pub space: u16,
    /// The region a process writes its own slot through.
    pub write: RegionId,
    /// The region scans read every process's slot through.
    pub scan: RegionId,
}

/// How the proposer speaks to a memory agent (the paper's footnote 4: the
/// memory half of Algorithm 9 has a dynamic-permission and a static
/// implementation).
pub trait MemoryLeg: Copy + fmt::Debug + 'static {
    /// The layout as process `me` uses it.
    fn layout(self, me: Pid) -> Layout;
}

/// The dynamic-permission leg (Algorithm 10): one region per memory,
/// writable by the latest process to acquire it.
#[derive(Clone, Copy, Debug)]
pub struct Protected;

impl MemoryLeg for Protected {
    fn layout(self, _me: Pid) -> Layout {
        Layout {
            dynamic: true,
            space: spaces::PMP,
            write: REGION,
            scan: REGION,
        }
    }
}

const RETRY_TAG: u64 = 1;

/// The tracked memory operations of a phase (a permission grab's outcome
/// shows in the write queued behind it, so it is not).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StepKind {
    /// A write with scans queued behind it on the same memory.
    Write,
    /// A scan with the memory's last scan queued behind it: the log's
    /// suffix scan, which the ballot registers' read follows.
    LeadingScan,
    /// The scan that completes its memory for the phase.
    Scan,
    /// That scan, once the write before it was refused.
    ScanAfterRefusal,
    /// A `Protected` phase-2 write: completes its memory by itself.
    LoneWrite,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Idle,
    One,
    Two,
}

/// What an agent's answer meant for the proposal in flight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Outcome {
    /// Phase 1 passed its quorum rule: the driver picks what to propose
    /// (the accepted values were handed to it as they arrived) and calls
    /// [`Proposer::accept`].
    Acquired,
    /// Phase 2 passed its quorum rule: the proposed values are decided.
    Accepted,
    /// An agent refused or a higher ballot was seen: the proposal is dead
    /// and the proposer idle; the driver retries with
    /// [`Proposer::acquire`] when it still leads.
    Abandoned,
}

/// Algorithm 9's proposer (see the module docs): one proposal in flight
/// over `peers` and `mems`, answers counted in place.
#[derive(Debug)]
pub(crate) struct Proposer<L> {
    leg: L,
    me: Pid,
    /// The other processes, when processes are agents too.
    peers: Vec<Pid>,
    mems: Vec<ActorId>,
    /// Answered agents that complete a phase.
    quorum: usize,
    /// Bumped per phase started; completions of older ones are stale.
    attempt: u64,
    phase: Phase,
    /// Whether phase 1 can be skipped: the ballot was pre-owned or
    /// acquired, and no agent has refused it since. Under the `Protected`
    /// leg this is holding the write permission as far as this process
    /// knows — a successful write proves nobody took over.
    holds_permission: bool,
    /// The current ballot `(round, me)`; one round per acquisition, so a
    /// deposed leader's in-flight writes sit below every later term.
    ballot: Ballot,
    max_round_seen: u64,
    /// Agents that answered the current phase, and whether any refused.
    done: usize,
    nack: bool,
    /// Over the memories counted in `done`: the highest `minProp` scanned
    /// (starting from our own ballot).
    seen: Ballot,
    /// In-flight op → (attempt, memory, step). Linear small-vec: a few
    /// entries per memory, capacity kept across rounds.
    op_map: Vec<(OpId, (u64, ActorId, StepKind))>,
}

impl<L: MemoryLeg> Proposer<L> {
    /// A proposer for `me`, idle, at ballot `(0, me)` — the lowest
    /// possible, which is why a process that owns it from the start
    /// (`holds_permission`) needs no phase 1.
    pub(crate) fn new(
        leg: L,
        me: Pid,
        peers: Vec<Pid>,
        mems: Vec<ActorId>,
        quorum: usize,
        holds_permission: bool,
    ) -> Proposer<L> {
        Proposer {
            leg,
            me,
            peers,
            mems,
            quorum,
            attempt: 0,
            phase: Phase::Idle,
            holds_permission,
            ballot: Ballot::initial(me),
            max_round_seen: 0,
            done: 0,
            nack: false,
            seen: Ballot::initial(me),
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

    /// A ballot another proposer is running: the next acquisition goes
    /// above it.
    fn observe(&mut self, b: Ballot) {
        self.max_round_seen = self.max_round_seen.max(b.round);
    }

    /// The registers of `instance` (every process's slot).
    fn row(&self, instance: u64) -> RegionSpec {
        RegionSpec::row(self.leg.layout(self.me).space, instance)
    }

    fn begin(&mut self, phase: Phase) {
        self.attempt += 1;
        self.phase = phase;
        self.done = 0;
        self.nack = false;
        self.seen = self.ballot;
    }

    /// Starts phase 1 of a single-decree proposal for `instance` under a
    /// fresh ballot: `Prepare` to every peer, and on every memory (acquire
    /// the write permission,) stamp the ballot into this process's slot of
    /// `instance` and scan the instance's row for what earlier leaders
    /// accepted.
    pub(crate) fn acquire(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        instance: Instance,
    ) {
        let stamp = RegId::two(self.leg.layout(self.me).space, instance.0, self.me.0 as u64);
        self.start_phase_one(ctx, client, stamp, &[self.row(instance.0)]);
    }

    /// Phase 1 under a fresh ballot: `Prepare` to every peer, and on every
    /// memory (acquire the write permission,) stamp the ballot into
    /// `stamp`, then scan each of `scans` in turn.
    fn start_phase_one(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        stamp: RegId,
        scans: &[RegionSpec],
    ) {
        self.ballot.round = self.ballot.round.max(self.max_round_seen) + 1;
        self.begin(Phase::One);
        let b = self.ballot;
        for &q in &self.peers {
            ctx.send(q, Msg::Paxos(PaxosMsg::Prepare { b }));
        }
        let lay = self.leg.layout(self.me);
        let slot = RegVal::Slot(PaxSlot::phase1(b));
        for i in 0..self.mems.len() {
            let mem = self.mems[i];
            if lay.dynamic {
                client.change_perm(ctx, mem, lay.write, Permission::exclusive_writer(self.me));
            }
            let w = client.write(ctx, mem, lay.write, stamp, slot.clone());
            self.op_map.push((w, (self.attempt, mem, StepKind::Write)));
            for (j, &within) in scans.iter().enumerate() {
                let r = client.read_range(ctx, mem, lay.scan, within, Vec::new());
                let step = if j + 1 < scans.len() {
                    StepKind::LeadingScan
                } else {
                    StepKind::Scan
                };
                self.op_map.push((r, (self.attempt, mem, step)));
            }
        }
    }

    /// Starts phase 2 under the current ballot: `values[j]` into instance
    /// `first + j`, one write per memory — a plain `Write` for a single
    /// value (the paper's wire), one scatter-gather `WriteMany` otherwise,
    /// whose rows are built once and shared by the memories' requests.
    /// Peers are single-decree acceptors and a static leg reads one
    /// instance back: either carries `values[0]` alone.
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
        for &q in &self.peers {
            ctx.send(q, Msg::Paxos(PaxosMsg::Accept { b, v: values[0] }));
        }
        let lay = self.leg.layout(self.me);
        let read_back = RegionSpec::row(lay.space, first);
        let write = |j: usize, v: Value| {
            let reg = RegId::two(lay.space, first + j as u64, self.me.0 as u64);
            (reg, RegVal::Slot(PaxSlot::phase2(b, v)))
        };
        // A batch's rows are built once, whatever the number of memories.
        let batch: Option<Arc<[(RegId, RegVal)]>> = (values.len() > 1).then(|| {
            let rows = values.iter().enumerate().map(|(j, &v)| write(j, v));
            rows.collect()
        });
        for i in 0..self.mems.len() {
            let mem = self.mems[i];
            let w = match &batch {
                Some(rows) => client.write_many(ctx, mem, lay.write, rows.clone()),
                None => {
                    let (reg, slot) = write(0, values[0]);
                    client.write(ctx, mem, lay.write, reg, slot)
                }
            };
            if lay.dynamic {
                self.op_map
                    .push((w, (self.attempt, mem, StepKind::LoneWrite)));
                continue;
            }
            let r = client.read_range(ctx, mem, lay.scan, read_back, Vec::new());
            self.op_map.push((w, (self.attempt, mem, StepKind::Write)));
            self.op_map.push((r, (self.attempt, mem, StepKind::Scan)));
        }
    }

    /// Feeds one memory completion to the proposal in flight. A scan hands
    /// every accepted `(instance, ballot, value)` it returned to
    /// `accepted` as it arrives — the driver folds them by highest ballot
    /// and discards the fold unless this phase ends
    /// [`Outcome::Acquired`].
    pub(crate) fn on_completion(
        &mut self,
        c: Completion<RegVal>,
        mut accepted: impl FnMut(u64, Ballot, Value),
    ) -> Option<Outcome> {
        let ix = self.op_map.iter().position(|&(op, _)| op == c.op)?;
        let (_, (attempt, mem, step)) = self.op_map.swap_remove(ix);
        if attempt != self.attempt || self.phase == Phase::Idle {
            return None; // stale: belongs to an abandoned proposal
        }
        let acked = matches!(c.resp, MemResponse::Ack);
        match step {
            StepKind::Write => {
                if !acked {
                    // The client runs one operation per memory at a time,
                    // in order: this memory's last scan is still queued
                    // behind us, and is what completes the memory.
                    let scan = (attempt, mem, StepKind::Scan);
                    if let Some(e) = self.op_map.iter_mut().find(|e| e.1 == scan) {
                        e.1 .2 = StepKind::ScanAfterRefusal;
                    }
                }
                return None;
            }
            StepKind::LeadingScan | StepKind::Scan => {
                // Slots and ballot registers alike: every `minProp` counts,
                // and a ballot register holds no accepted value.
                if let MemResponse::Range(rows) = c.resp {
                    for (reg, v) in rows {
                        let RegVal::Slot(s) = v else { continue };
                        self.seen = self.seen.max(s.min_prop);
                        if let (Some(ap), Some(v)) = (s.acc_prop, s.value) {
                            accepted(reg.a, ap, v);
                        }
                    }
                }
                if step == StepKind::LeadingScan {
                    return None;
                }
            }
            StepKind::ScanAfterRefusal => self.nack = true,
            StepKind::LoneWrite => self.nack |= !acked,
        }
        self.answered()
    }

    /// Feeds one process agent's answer to the proposal in flight; a
    /// `Promise`'s accepted pair goes to `accepted`.
    fn on_answer(
        &mut self,
        answer: PaxosMsg,
        accepted: impl FnOnce(Ballot, Value),
    ) -> Option<Outcome> {
        match (self.phase, answer) {
            (Phase::One, PaxosMsg::Promise { b, accepted: acc }) if b == self.ballot => {
                if let Some((ap, v)) = acc {
                    accepted(ap, v);
                }
            }
            (Phase::Two, PaxosMsg::Accepted { b, .. }) if b == self.ballot => {}
            (Phase::One | Phase::Two, PaxosMsg::Nack { b }) if b == self.ballot => {
                self.nack = true;
            }
            _ => return None, // stale, or not an answer
        }
        self.answered()
    }

    /// One more agent answered the phase in flight, which is judged once,
    /// when the quorum-th does.
    fn answered(&mut self) -> Option<Outcome> {
        self.done += 1;
        if self.done < self.quorum {
            return None;
        }
        let phase = std::mem::replace(&mut self.phase, Phase::Idle);
        if !self.nack {
            self.max_round_seen = self.max_round_seen.max(self.seen.round);
        }
        // "if (!writeSuccess[i] for some i) then continue"; "if
        // (localInfo[i,q].minProp > propNr for some i,q) continue".
        // Either way be conservative: re-acquire.
        if self.nack || self.seen > self.ballot {
            self.holds_permission = false;
            return Some(Outcome::Abandoned);
        }
        // A quorum took the phase; the phase-2 answers will tell if anyone
        // raced us.
        self.holds_permission = true;
        Some(match phase {
            Phase::One => Outcome::Acquired,
            _ => Outcome::Accepted,
        })
    }
}

impl Proposer<Protected> {
    /// Algorithm 7's proposer: memories are the only agents, and all but
    /// the `f_m` that may have crashed must answer.
    pub(crate) fn pmp(me: Pid, mems: Vec<ActorId>, f_m: usize, owns_permission: bool) -> Self {
        let quorum = mems.len() - f_m;
        Proposer::new(Protected, me, Vec::new(), mems, quorum, owns_permission)
    }

    /// Starts the crash log's phase 1 under a fresh ballot: on every
    /// memory grab the write permission, stamp the ballot into this
    /// process's [`ballot_reg`], scan the slots of every instance from
    /// `at` on, then read every process's ballot register (see the module
    /// docs for why in that order).
    pub(crate) fn acquire_suffix(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        at: Instance,
    ) {
        self.start_phase_one(ctx, client, ballot_reg(self.me), &[suffix(at), BALLOTS]);
    }
}

/// The one single-decree actor over the proposer: one instance, one
/// input. See the module docs for the three protocols it is.
#[derive(Debug)]
pub struct SingleDecree<L> {
    procs: Vec<Pid>,
    instance: Instance,
    input: Value,
    initial_leader: Option<Pid>,
    retry_every: Duration,
    client: MemoryClient<RegVal, Msg>,
    proposer: Proposer<L>,
    /// This process's own agent role, when processes are agents.
    acceptor: Option<Acceptor>,
    is_leader: bool,
    /// The accepted value of the highest `accProp` phase 1 has heard back
    /// so far.
    adopted: Option<(Ballot, Value)>,
    /// The value phase 2 is proposing.
    value: Option<Value>,
    decided: Option<Value>,
}

/// A Protected Memory Paxos process.
pub type ProtectedPaxosActor = SingleDecree<Protected>;

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
        let proposer = Proposer::pmp(me, mems, f_m, me == initial_leader);
        let leader = Some(initial_leader);
        SingleDecree::over(proposer, None, procs, instance, input, leader, retry_every)
    }
}

impl<L: MemoryLeg> SingleDecree<L> {
    /// The actor driving `proposer` for `instance`; with an `acceptor`,
    /// this process answers its peers' proposers as an agent too.
    pub(crate) fn over(
        proposer: Proposer<L>,
        acceptor: Option<Acceptor>,
        procs: Vec<Pid>,
        instance: Instance,
        input: Value,
        initial_leader: Option<Pid>,
        retry_every: Duration,
    ) -> SingleDecree<L> {
        SingleDecree {
            procs,
            instance,
            input,
            initial_leader,
            retry_every,
            client: MemoryClient::new(),
            proposer,
            acceptor,
            is_leader: false,
            adopted: None,
            value: None,
            decided: None,
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
        if self.proposer.holds_permission() {
            // Fast path (the initial leader's first attempt): ballot
            // (0, me) is pre-owned and the lowest possible, so phase 1 is
            // unnecessary.
            self.propose(ctx, self.input);
            return;
        }
        self.adopted = None;
        self.proposer.acquire(ctx, &mut self.client, self.instance);
        let b = self.proposer.ballot;
        self.ask_self(ctx, |a| a.on_prepare(b));
    }

    fn propose(&mut self, ctx: &mut Context<'_, Msg>, v: Value) {
        self.value = Some(v);
        self.proposer
            .accept(ctx, &mut self.client, self.instance.0, &[v]);
        let b = self.proposer.ballot;
        self.ask_self(ctx, |a| a.on_accept(b, v));
    }

    /// This process is an agent of its own proposer: its answer is local
    /// and instantaneous.
    fn ask_self(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        ask: impl FnOnce(&mut Acceptor) -> PaxosMsg,
    ) {
        if let Some(answer) = self.acceptor.as_mut().map(ask) {
            self.on_answer(ctx, answer);
        }
    }

    fn on_answer(&mut self, ctx: &mut Context<'_, Msg>, answer: PaxosMsg) {
        let adopted = &mut self.adopted;
        let outcome = self
            .proposer
            .on_answer(answer, |ap, v| adopt(adopted, ap, v));
        self.on_outcome(ctx, outcome);
    }

    fn on_outcome(&mut self, ctx: &mut Context<'_, Msg>, outcome: Option<Outcome>) {
        match outcome {
            // Adopt the accepted value of the highest accProp, else our
            // input.
            Some(Outcome::Acquired) => {
                let v = self.adopted.map_or(self.input, |(_, v)| v);
                self.propose(ctx, v);
            }
            Some(Outcome::Accepted) => {
                let value = self.value.expect("phase 2 without value");
                self.decide(ctx, value);
                // Outside the pure shared-memory model: tell everyone (the
                // paper's "easy to extend it so all correct processes
                // decide").
                let instance = self.instance;
                let me = self.proposer.me;
                for &q in self.procs.iter().filter(|&&q| q != me) {
                    ctx.send(q, Msg::Decided { instance, value });
                }
            }
            // An abandoned proposal retries on the timer (with a higher
            // ballot), provided Ω still nominates us.
            Some(Outcome::Abandoned) | None => {}
        }
    }

    fn decide(&mut self, ctx: &mut Context<'_, Msg>, v: Value) {
        self.decided = Some(v);
        ctx.mark_decided();
    }
}

/// Folds one accepted pair into the highest seen so far.
fn adopt(best: &mut Option<(Ballot, Value)>, ap: Ballot, v: Value) {
    if best.is_none_or(|(b, _)| ap > b) {
        *best = Some((ap, v));
    }
}

impl<L: MemoryLeg> Actor<Msg> for SingleDecree<L> {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                self.is_leader = self.initial_leader == Some(self.proposer.me);
                self.start_attempt(ctx);
                ctx.set_timer(self.retry_every, RETRY_TAG);
            }
            EventKind::Timer { tag: RETRY_TAG, .. } => {
                if self.decided.is_none() {
                    if self.proposer.is_idle() {
                        self.start_attempt(ctx);
                    }
                    ctx.set_timer(self.retry_every, RETRY_TAG);
                }
            }
            EventKind::Timer { .. } => {}
            EventKind::LeaderChange { leader } => {
                let was = self.is_leader;
                self.is_leader = leader == self.proposer.me;
                if !was && self.proposer.is_idle() {
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
                let outcome = self
                    .proposer
                    .on_completion(c, |_, ap, v| adopt(adopted, ap, v));
                self.on_outcome(ctx, outcome);
            }
            EventKind::Msg {
                from,
                msg: Msg::Paxos(m),
            } => {
                let Some(acceptor) = &mut self.acceptor else {
                    return;
                };
                // The agent half answers requests; everything else is an
                // answer to our own proposer.
                let reply = match m {
                    PaxosMsg::Prepare { b } => {
                        self.proposer.observe(b);
                        acceptor.on_prepare(b)
                    }
                    PaxosMsg::Accept { b, v } => {
                        self.proposer.observe(b);
                        acceptor.on_accept(b, v)
                    }
                    answer => return self.on_answer(ctx, answer),
                };
                ctx.send(from, Msg::Paxos(reply));
            }
            EventKind::Msg {
                from,
                msg: Msg::Decided { instance, value },
            } => {
                // Only a member of the group can have decided for it.
                let known = self.procs.contains(&from);
                if known && instance == self.instance && self.decided.is_none() {
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
    use crate::harness::{decisions, Scenario};
    use simnet::{Simulation, Time};

    fn build(n: usize, m: usize, seed: u64) -> (Simulation<Msg>, Vec<Pid>, Vec<ActorId>) {
        let s = Scenario::common_case(n, m, seed);
        let sim = s.cluster(
            |i, procs, mems| {
                let (me, input) = (ActorId(i as u32), Scenario::input(i));
                let (f_m, retry) = ((m - 1) / 2, Duration::from_delays(25));
                let inst = Instance(0);
                let a =
                    ProtectedPaxosActor::new(me, procs, mems, inst, input, ActorId(0), f_m, retry);
                Box::new(a)
            },
            s.memories(|_| memory_actor(ActorId(0))),
        );
        (sim, s.procs(), s.mems())
    }

    #[test]
    fn common_case_decides_in_two_delays() {
        let (mut sim, procs, _) = build(3, 3, 1);
        sim.run_to_quiescence(Time::from_delays(30));
        let ds = decisions(&sim, &procs, ProtectedPaxosActor::decision);
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
        assert_eq!(
            decisions(&sim, &procs, ProtectedPaxosActor::decision)[0],
            Some(Value(100))
        );
    }

    #[test]
    fn tolerates_minority_memory_crashes() {
        let (mut sim, procs, mems) = build(2, 5, 3);
        sim.crash_at(mems[0], Time::ZERO);
        sim.crash_at(mems[2], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(100));
        let ds = decisions(&sim, &procs, ProtectedPaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn majority_memory_crash_blocks_safely() {
        let (mut sim, procs, mems) = build(2, 3, 4);
        sim.crash_at(mems[0], Time::ZERO);
        sim.crash_at(mems[1], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(500));
        assert_eq!(
            decisions(&sim, &procs, ProtectedPaxosActor::decision),
            vec![None, None]
        );
    }

    #[test]
    fn takeover_revokes_old_leader_and_preserves_value() {
        // p0 decides at 2 delays; p1 takes over and must adopt p0's value.
        let (mut sim, procs, _) = build(3, 3, 5);
        sim.crash_at(ActorId(0), Time::from_delays(3));
        sim.announce_leader(Time::from_delays(10), &procs, ActorId(1));
        sim.run_to_quiescence(Time::from_delays(300));
        let ds = decisions(&sim, &procs, ProtectedPaxosActor::decision);
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
        let ds = decisions(&sim, &procs, ProtectedPaxosActor::decision);
        // Everyone agrees (p1's value wins; p0's blocked write naks).
        assert!(ds.iter().all(|d| *d == Some(Value(101))), "{ds:?}");
    }

    /// Drives one `Proposer::accept` at `Start`; the "memories" it writes
    /// to only keep what they were sent.
    struct Accepts(Proposer<Protected>, MemoryClient<RegVal, Msg>, Vec<Value>);
    impl Actor<Msg> for Accepts {
        fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
            if let EventKind::Start = ev {
                self.0.accept(ctx, &mut self.1, 7, &self.2);
            }
        }
    }
    #[derive(Default)]
    struct Inbox(Vec<rdma_sim::MemRequest<RegVal>>);
    impl Actor<Msg> for Inbox {
        fn on_event(&mut self, _ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
            if let EventKind::Msg {
                msg: Msg::Mem(rdma_sim::MemWire::Req { req, .. }),
                ..
            } = ev
            {
                self.0.push(req);
            }
        }
    }

    /// What `accept` sent each of three memories for `values`.
    fn accepted_requests(values: &[u64]) -> Vec<rdma_sim::MemRequest<RegVal>> {
        let mut sim = Simulation::new(1);
        let mems: Vec<ActorId> = (1..4).map(ActorId).collect();
        let values = values.iter().map(|&v| Value(v)).collect();
        let pmp = Proposer::pmp(ActorId(0), mems.clone(), 1, true);
        sim.add(Accepts(pmp, MemoryClient::new(), values));
        for _ in &mems {
            sim.add(Inbox::default());
        }
        sim.run_to_quiescence(Time::from_delays(5));
        let inbox = |&m| sim.actor_as::<Inbox>(m).unwrap().0.clone();
        let reqs: Vec<_> = mems.iter().flat_map(inbox).collect();
        assert_eq!(reqs.len(), 3, "one request per memory");
        reqs
    }

    #[test]
    fn a_batched_round_s_rows_are_one_allocation_shared_by_the_memories() {
        use rdma_sim::MemRequest::{Write, WriteMany};
        let reqs = accepted_requests(&[10, 11, 12]);
        let [WriteMany { writes: a, .. }, WriteMany { writes: b, .. }, WriteMany { writes: c, .. }] =
            &reqs[..]
        else {
            panic!("a batch is one WriteMany per memory: {reqs:?}");
        };
        assert!(Arc::ptr_eq(a, b) && Arc::ptr_eq(b, c));
        let b0 = Ballot::initial(ActorId(0));
        for (j, (reg, slot)) in a.iter().enumerate() {
            assert_eq!(*reg, slot_reg(Instance(7 + j as u64), ActorId(0)));
            let value = Value(10 + j as u64);
            assert_eq!(*slot, RegVal::Slot(PaxSlot::phase2(b0, value)));
        }
        // Batch 1 stays the paper's wire: a plain write of the one slot.
        for req in accepted_requests(&[10]) {
            let (region, reg) = (REGION, slot_reg(Instance(7), ActorId(0)));
            let value = RegVal::Slot(PaxSlot::phase2(b0, Value(10)));
            assert_eq!(req, Write { region, reg, value });
        }
    }

    #[test]
    fn decided_from_outside_the_group_is_refused() {
        // Nobody leads, so only a `Decided` can make p1 decide: a memory's
        // (not a member of `procs`) is refused, p0's is adopted.
        let (mut sim, procs, mems) = build(2, 3, 8);
        sim.crash_at(ActorId(0), Time::ZERO);
        let decided = |from, v| EventKind::Msg {
            from,
            msg: Msg::Decided {
                instance: Instance(0),
                value: Value(v),
            },
        };
        sim.schedule(Time::from_delays(1), procs[1], decided(mems[0], 999));
        sim.run_to_quiescence(Time::from_delays(10));
        assert_eq!(
            decisions(&sim, &procs, ProtectedPaxosActor::decision)[1],
            None
        );
        sim.schedule(Time::from_delays(11), procs[1], decided(procs[0], 100));
        sim.run_to_quiescence(Time::from_delays(20));
        assert_eq!(
            decisions(&sim, &procs, ProtectedPaxosActor::decision)[1],
            Some(Value(100))
        );
    }

    #[test]
    fn contending_leaders_stay_safe_many_seeds() {
        for seed in 0..15 {
            let (mut sim, procs, _) = build(3, 3, seed);
            sim.announce_leader(Time::from_delays(1), &procs[1..2], ActorId(1));
            sim.announce_leader(Time::from_delays(2), &procs[2..3], ActorId(2));
            sim.announce_leader(Time::from_delays(80), &procs, ActorId(2));
            sim.run_to_quiescence(Time::from_delays(2000));
            let got: Vec<Value> = decisions(&sim, &procs, ProtectedPaxosActor::decision)
                .into_iter()
                .flatten()
                .collect();
            assert!(!got.is_empty(), "seed {seed}: nobody decided");
            assert!(got.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {got:?}");
        }
    }
}
