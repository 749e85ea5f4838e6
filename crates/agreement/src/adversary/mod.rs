//! Byzantine adversary implementations.
//!
//! A Byzantine process in the model can deviate arbitrarily — *except* that
//! it cannot forge signatures (it holds only its own [`sigsim::Signer`]) and
//! cannot bypass memory permissions (the memory checks every operation).
//! Each adversary here exercises one of the attack surfaces the paper's
//! mechanisms close:
//!
//! * [`SilentActor`] — omission/crash behaviour, the residual power a
//!   Byzantine process has once non-equivocation and history checking
//!   confine it.
//! * [`NebEquivocator`] — attempts classic equivocation through the
//!   *replicated* broadcast slots: different (validly signed!) values for
//!   the same sequence number on different memory replicas. Non-equivocating
//!   broadcast must never let two correct processes deliver different
//!   values (Lemma 4.1, property 2).
//! * [`BadHistoryActor`] — speaks the trusted-channel protocol but sends a
//!   Paxos message its history cannot justify (an `Accept` with no promise
//!   quorum). The conformance checker must reject it everywhere.
//! * [`FarFutureLeader`] — a sharded-service group leader that signs a
//!   batch for a log position 2^40 entries away. Nothing is forged and
//!   nothing equivocated, so every audit passes; the replicas' density
//!   bounds must keep one wire from sizing anybody's log.
//! * [`CqEquivocatingLeader`] — a Byzantine Cheap Quorum leader that writes
//!   *different signed values* to different replicas of the leader region,
//!   trying to make followers decide differently. Unanimity (all `n`
//!   matching copies + `n` proofs) must prevent any split decision.

use rdma_sim::{MemoryClient, OpId};
use sigsim::Signer;
use simnet::{Actor, ActorId, Context, EventKind};

use crate::cheap_quorum;
use crate::nebcast::{self, NebSlot};
use crate::paxos::{Dest, PaxosMsg};
use crate::trusted::{HistEntry, RbPayload, TWire};
use crate::types::{sigtags, Ballot, CqSigned, Msg, Pid, RegVal, Value};

/// The adversaries a sharded scenario can install in a Byzantine-mode
/// group ([`crate::harness::ShardedScenario::adversaries`] lists
/// `(group, replica, kind)`), with the placement rules every reader of
/// that list shares: harness validation and placement, the fuzzer's
/// generator, shrinker and repro printer. A new scripted villain is one
/// arm here plus its actor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AdversaryKind {
    /// [`SilentActor`]: a replica that never takes a step.
    Silent,
    /// [`LogEquivocator`]: rewrite-equivocates its broadcast slot and
    /// fabricates commit claims; blocked by the broadcast audit and the
    /// router's `f + 1` confirmation quorum.
    Equivocator,
    /// [`ReceiptForger`]: a follower that writes a delivery receipt for a
    /// value its group's initial leader never broadcast; blocked by the
    /// takeover scan's receipt-provenance check
    /// ([`crate::harness::ShardedRunReport::byz_receipts_rejected`]).
    ReceiptForger,
    /// [`FarFutureLeader`]: signs batches for far-future log positions;
    /// every audit passes, the replicas' density bounds ignore them
    /// ([`crate::harness::ShardedRunReport::byz_entries_rejected`]).
    FarFutureLeader,
}

impl AdversaryKind {
    /// Whether this kind may sit at its group's initial-leader slot
    /// (replica 0). The receipt forger may not: it colludes with that
    /// leader — holds a copy of its signer — so it cannot *be* it.
    pub fn may_lead(self) -> bool {
        self != AdversaryKind::ReceiptForger
    }

    /// Whether this kind *is* its group's lying initial leader: it must
    /// sit at replica 0, it never commits a client command, so the
    /// scenario scripts an Ω announcement electing a correct successor —
    /// and removing the adversary takes the group's announcements with it.
    pub fn must_lead(self) -> bool {
        matches!(
            self,
            AdversaryKind::Equivocator | AdversaryKind::FarFutureLeader
        )
    }

    /// Base of the junk command ids this kind signs in group `g`: far
    /// above any client command id and below the control-entry bit (so a
    /// group that settles one corrupts nobody's accounting), one band per
    /// kind so a leaked value is attributable. [`AdversaryKind::Silent`]
    /// signs nothing.
    pub fn junk_base(self, g: usize) -> u64 {
        let band = match self {
            AdversaryKind::Silent => return 0,
            AdversaryKind::Equivocator => 40,
            AdversaryKind::ReceiptForger => 41,
            AdversaryKind::FarFutureLeader => 42,
        };
        1u64 << band | (g as u64) << 8
    }
}

/// A Byzantine process that never takes a step (pure omission).
#[derive(Debug)]
pub struct SilentActor;

impl Actor<Msg> for SilentActor {
    fn on_event(&mut self, _ctx: &mut Context<'_, Msg>, _ev: EventKind<Msg>) {}
}

/// Signs `wire` as `me`'s `k`-th broadcast and writes it to `me`'s own
/// slot on every memory — what an adversary that broadcasts *honestly
/// formatted* wires does, unreplicated-engine style.
fn broadcast_signed(
    ctx: &mut Context<'_, Msg>,
    client: &mut MemoryClient<RegVal, Msg>,
    signer: &Signer,
    (me, mems): (Pid, &[ActorId]),
    k: u64,
    wire: TWire,
) {
    let slot = RegVal::Neb(NebSlot::signed(signer, k, wire));
    let reg = nebcast::slot_reg(me, k, me);
    for &mem in mems {
        client.write(ctx, mem, nebcast::row_region(me), reg, slot.clone());
    }
}

/// Tries to equivocate at the broadcast layer: writes signed value `a` to
/// the first `split` memories and signed value `b` to the rest, all in its
/// own slot `slots[me, 1, me]`.
pub struct NebEquivocator {
    me: Pid,
    mems: Vec<ActorId>,
    split: usize,
    a: Value,
    b: Value,
    signer: Signer,
    client: MemoryClient<RegVal, Msg>,
}

impl NebEquivocator {
    /// Creates the adversary.
    pub fn new(
        me: Pid,
        mems: Vec<ActorId>,
        split: usize,
        a: Value,
        b: Value,
        signer: Signer,
    ) -> NebEquivocator {
        NebEquivocator {
            me,
            mems,
            split,
            a,
            b,
            signer,
            client: MemoryClient::new(),
        }
    }

    fn slot_for(&self, v: Value) -> RegVal {
        let wire = TWire {
            dest: Dest::All,
            payload: RbPayload::Setup {
                value: v,
                evidence: Default::default(),
            },
            history: Vec::new(),
        };
        RegVal::Neb(NebSlot::signed(&self.signer, 1, wire))
    }
}

impl Actor<Msg> for NebEquivocator {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                let reg = nebcast::slot_reg(self.me, 1, self.me);
                let region = nebcast::row_region(self.me);
                let (a, b) = (self.slot_for(self.a), self.slot_for(self.b));
                for (i, mem) in self.mems.clone().into_iter().enumerate() {
                    let val = if i < self.split { a.clone() } else { b.clone() };
                    self.client.write(ctx, mem, region, reg, val);
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let _ = self.client.on_wire(ctx, from, wire);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for NebEquivocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NebEquivocator({})", self.me)
    }
}

/// Broadcasts a protocol-illegal Paxos `Accept` (no promise quorum in its
/// history) through a *correctly formatted* trusted wire. Every correct
/// receiver's conformance check must reject and distrust it.
pub struct BadHistoryActor {
    me: Pid,
    mems: Vec<ActorId>,
    v: Value,
    signer: Signer,
    client: MemoryClient<RegVal, Msg>,
}

impl BadHistoryActor {
    /// Creates the adversary.
    pub fn new(me: Pid, mems: Vec<ActorId>, v: Value, signer: Signer) -> BadHistoryActor {
        BadHistoryActor {
            me,
            mems,
            v,
            signer,
            client: MemoryClient::new(),
        }
    }
}

impl Actor<Msg> for BadHistoryActor {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                // An Accept for our own ballot with an empty history: no
                // Setup, no promises — flagrantly non-conformant, but
                // correctly signed and sequenced.
                let wire = TWire {
                    dest: Dest::All,
                    payload: RbPayload::Paxos(PaxosMsg::Accept {
                        b: Ballot {
                            round: 1,
                            pid: self.me,
                        },
                        v: self.v,
                    }),
                    history: Vec::<HistEntry>::new(),
                };
                let slot = RegVal::Neb(NebSlot::signed(&self.signer, 1, wire));
                let reg = nebcast::slot_reg(self.me, 1, self.me);
                let region = nebcast::row_region(self.me);
                for mem in self.mems.clone() {
                    self.client.write(ctx, mem, region, reg, slot.clone());
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let _ = self.client.on_wire(ctx, from, wire);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for BadHistoryActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BadHistoryActor({})", self.me)
    }
}

/// A Byzantine Cheap Quorum leader: writes signed value `a` to the leader
/// region on the first `split` memories and signed value `b` to the rest,
/// hoping different followers adopt different values.
pub struct CqEquivocatingLeader {
    me: Pid,
    mems: Vec<ActorId>,
    split: usize,
    a: Value,
    b: Value,
    signer: Signer,
    client: MemoryClient<RegVal, Msg>,
    ops: Vec<OpId>,
}

impl CqEquivocatingLeader {
    /// Creates the adversary (it must be the configured leader to hold the
    /// write permission).
    pub fn new(
        me: Pid,
        mems: Vec<ActorId>,
        split: usize,
        a: Value,
        b: Value,
        signer: Signer,
    ) -> CqEquivocatingLeader {
        CqEquivocatingLeader {
            me,
            mems,
            split,
            a,
            b,
            signer,
            client: MemoryClient::new(),
            ops: Vec::new(),
        }
    }

    fn signed(&self, v: Value) -> RegVal {
        let sig = self.signer.sign(&(sigtags::CQ_VALUE, v));
        RegVal::CqValue(CqSigned {
            value: v,
            leader_sig: sig,
            own_sig: sig,
        })
    }
}

impl Actor<Msg> for CqEquivocatingLeader {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                let (a, b) = (self.signed(self.a), self.signed(self.b));
                for (i, mem) in self.mems.clone().into_iter().enumerate() {
                    let val = if i < self.split { a.clone() } else { b.clone() };
                    let op = self.client.write(
                        ctx,
                        mem,
                        cheap_quorum::LEADER_REGION,
                        cheap_quorum::VALUE_L,
                        val,
                    );
                    self.ops.push(op);
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let _ = self.client.on_wire(ctx, from, wire);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for CqEquivocatingLeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CqEquivocatingLeader({})", self.me)
    }
}

/// Broadcasts a legal first message, then a second message whose attached
/// history **misrepresents the first** (claims it sent a different value).
/// The trusted layer's actual-broadcast cross-check must reject message 2
/// at every correct receiver, while message 1 stays usable.
pub struct HistoryRewriter {
    me: Pid,
    mems: Vec<ActorId>,
    /// The value actually broadcast at k=1.
    pub real: Value,
    /// The value the k=2 history pretends was sent at k=1.
    pub fake: Value,
    signer: Signer,
    client: MemoryClient<RegVal, Msg>,
}

impl HistoryRewriter {
    /// Creates the adversary.
    pub fn new(
        me: Pid,
        mems: Vec<ActorId>,
        real: Value,
        fake: Value,
        signer: Signer,
    ) -> HistoryRewriter {
        HistoryRewriter {
            me,
            mems,
            real,
            fake,
            signer,
            client: MemoryClient::new(),
        }
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, Msg>, k: u64, wire: TWire) {
        let to = (self.me, &self.mems[..]);
        broadcast_signed(ctx, &mut self.client, &self.signer, to, k, wire);
    }
}

impl Actor<Msg> for HistoryRewriter {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                // k=1: a perfectly legal Setup broadcast of `real`.
                let first = TWire {
                    dest: Dest::All,
                    payload: RbPayload::Setup {
                        value: self.real,
                        evidence: Default::default(),
                    },
                    history: Vec::new(),
                };
                self.broadcast(ctx, 1, first);
                // k=2: a Paxos Prepare whose history claims the k=1 send
                // carried `fake` instead of `real`.
                let lying_history = vec![HistEntry::Sent {
                    k: 1,
                    dest: Dest::All,
                    payload: RbPayload::Setup {
                        value: self.fake,
                        evidence: Default::default(),
                    },
                }];
                let second = TWire {
                    dest: Dest::All,
                    payload: RbPayload::Paxos(PaxosMsg::Prepare {
                        b: Ballot {
                            round: 1,
                            pid: self.me,
                        },
                    }),
                    history: lying_history,
                };
                self.broadcast(ctx, 2, second);
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let _ = self.client.on_wire(ctx, from, wire);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for HistoryRewriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HistoryRewriter({})", self.me)
    }
}

/// A Byzantine *group leader* for the sharded Byzantine-mode service
/// ([`crate::smr::ByzSmrNode`] groups): it holds the leader role of its
/// replication group and attacks on both fronts the mode must close.
///
/// * **Log equivocation (rewrite attack).** At start it broadcasts a
///   validly-signed `LogEntries` wire committing junk value `a` at
///   instance 0, then after `rewrite_after` overwrites the same broadcast
///   slot with junk value `b` — the classic attack on a replicated SWMR
///   register. Non-equivocating broadcast confines it: early auditors may
///   deliver `a`, but every auditor that sees both (the earlier copies
///   replicate to a memory majority) blocks the sender forever, counted
///   in the report as `equivocations_blocked`. No two correct replicas
///   ever settle different values for the instance.
/// * **Fabricated commits.** Every routed [`Msg::Submit`] batch is
///   answered with `Decided` claims to the router — for the routed
///   commands it never committed anywhere, *plus* one claim per batch
///   for a command id that does not exist at all. The router's `f + 1`
///   confirmation quorum withholds every one (`byz_withheld_reports`);
///   the claims for real commands are eventually out-voted by honest
///   reports after failover, while the invented ids stay unconfirmed
///   forever (`byz_unconfirmed_claims`).
///
/// It never commits a real client command, so scripted Ω failover is what
/// restores the group's liveness — exactly the role a silent-after-lying
/// Byzantine leader plays in the paper's model.
pub struct LogEquivocator {
    me: Pid,
    mems: Vec<ActorId>,
    /// The router it lies to.
    router: ActorId,
    /// Junk committed at instance 0 first...
    a: Value,
    /// ...then rewritten to this (same broadcast slot, new signature).
    b: Value,
    rewrite_after: simnet::Duration,
    signer: Signer,
    client: MemoryClient<RegVal, Msg>,
    next_claim_instance: u64,
    fabricated: u64,
}

impl LogEquivocator {
    /// Creates the adversary (install it as its group's initial leader).
    pub fn new(
        me: Pid,
        mems: Vec<ActorId>,
        router: ActorId,
        a: Value,
        b: Value,
        rewrite_after: simnet::Duration,
        signer: Signer,
    ) -> LogEquivocator {
        LogEquivocator {
            me,
            mems,
            router,
            a,
            b,
            rewrite_after,
            signer,
            client: MemoryClient::new(),
            next_claim_instance: 0,
            fabricated: 0,
        }
    }

    fn log_slot(&self, v: Value) -> RegVal {
        let wire = crate::smr::byz::log_entries_wire(0, 0, vec![v]);
        RegVal::Neb(NebSlot::signed(&self.signer, 1, wire))
    }

    fn write_everywhere(&mut self, ctx: &mut Context<'_, Msg>, val: RegVal) {
        let reg = nebcast::slot_reg(self.me, 1, self.me);
        let region = nebcast::row_region(self.me);
        for mem in self.mems.clone() {
            self.client.write(ctx, mem, region, reg, val.clone());
        }
    }
}

impl Actor<Msg> for LogEquivocator {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                let a = self.log_slot(self.a);
                self.write_everywhere(ctx, a);
                ctx.set_timer(self.rewrite_after, 1);
            }
            EventKind::Timer { tag: 1, .. } => {
                // The rewrite: same sequence number, different signed
                // value. Anyone who audits from here on sees the earlier
                // copies and blocks us.
                let b = self.log_slot(self.b);
                self.write_everywhere(ctx, b);
            }
            EventKind::Msg {
                msg: Msg::Submit { cmds },
                ..
            } => {
                // Lie to the router: claim every routed command decided,
                // without writing a thing — plus one wholly invented
                // command id per batch (a counter in bits disjoint from
                // the junk base's set bits, well above any client id),
                // which no honest replica can ever corroborate.
                self.fabricated += 1;
                let invented = Value((self.a.0 | 1 << 50) + (self.fabricated << 16));
                for v in cmds.into_iter().chain([invented]) {
                    let instance = self.next_claim_instance;
                    self.next_claim_instance += 1;
                    ctx.send(
                        self.router,
                        Msg::Decided {
                            instance: crate::types::Instance(instance),
                            value: v,
                        },
                    );
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let _ = self.client.on_wire(ctx, from, wire);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for LogEquivocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LogEquivocator({})", self.me)
    }
}

/// A Byzantine *group leader* that equivocates nothing and forges
/// nothing: it signs `LogEntries` batches for log positions no dense log
/// can reach — one at `first = 2^40`, one at `first = u64::MAX` (whose end
/// does not even fit the instance space) — and claims the first decided
/// to the router. Both wires pass every broadcast audit, so every correct
/// follower *delivers* them; a replica that sized its log by the
/// delivered `first` would allocate terabytes (or overflow) on one wire.
/// [`crate::smr::ByzSmrNode`] instead ignores any batch that starts
/// beyond its settled frontier, and its takeover scan ignores wires
/// beyond what the scan itself could make dense — both counted as
/// `byz_entries_rejected` in the sharded report. The claim never reaches
/// the router's `f + 1` quorum, and since it commits nothing real,
/// scripted Ω failover restores the group's liveness.
pub struct FarFutureLeader {
    me: Pid,
    mems: Vec<ActorId>,
    /// The router it claims the bogus batch to.
    router: ActorId,
    /// The value its bogus batches carry.
    junk: Value,
    signer: Signer,
    client: MemoryClient<RegVal, Msg>,
}

/// Where [`FarFutureLeader`]'s first bogus batch claims to start: 2^40
/// eight-byte log slots are 16 TiB.
pub const FAR_FUTURE_FIRST: u64 = 1 << 40;

impl FarFutureLeader {
    /// Creates the adversary (install it as its group's initial leader).
    pub fn new(
        me: Pid,
        mems: Vec<ActorId>,
        router: ActorId,
        junk: Value,
        signer: Signer,
    ) -> FarFutureLeader {
        FarFutureLeader {
            me,
            mems,
            router,
            junk,
            signer,
            client: MemoryClient::new(),
        }
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, Msg>, k: u64, first: u64, values: Vec<Value>) {
        let wire = crate::smr::byz::log_entries_wire(first, 0, values);
        let to = (self.me, &self.mems[..]);
        broadcast_signed(ctx, &mut self.client, &self.signer, to, k, wire);
    }
}

impl Actor<Msg> for FarFutureLeader {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                self.broadcast(ctx, 1, FAR_FUTURE_FIRST, vec![self.junk]);
                self.broadcast(ctx, 2, u64::MAX, vec![self.junk, self.junk]);
                ctx.send(
                    self.router,
                    Msg::Decided {
                        instance: crate::types::Instance(FAR_FUTURE_FIRST),
                        value: self.junk,
                    },
                );
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let _ = self.client.on_wire(ctx, from, wire);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for FarFutureLeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FarFutureLeader({})", self.me)
    }
}

/// A Byzantine *follower* in a sharded Byzantine-mode group that forges
/// delivery receipts. Colluding with its group's initial leader — it
/// holds a copy of that leader's [`sigsim::Signer`], double-signing being
/// the one extra capability the signature model grants a coalition — it
/// writes into its own row a receipt crediting the leader with a
/// validly-signed broadcast the leader never made. Without a provenance
/// check a takeover scan would *prefer* the forged "delivered" value over
/// genuine candidates; [`crate::smr::ByzSmrNode`]'s scan instead matches
/// every receipt against the claimed broadcaster's unforgeable self-slot,
/// demotes the forgery, and counts it (surfaced as
/// `byz_receipts_rejected` in the sharded report). Beyond the forgery it
/// is silent, so Ω failover past it behaves like failover past a silent
/// replica.
pub struct ReceiptForger {
    me: Pid,
    mems: Vec<ActorId>,
    /// The never-broadcast value the forged receipt vouches for.
    forged: Value,
    write_after: simnet::Duration,
    /// The colluding leader's signer (the forgery must verify as the
    /// leader's own broadcast).
    leader_signer: Signer,
    leader: Pid,
    client: MemoryClient<RegVal, Msg>,
}

/// Sequence number of the forged broadcast: far above anything a real
/// leader reaches, so the forgery never collides with a genuine self-slot
/// (which would merely make it an equivocation-rewrite race instead).
const FORGED_K: u64 = 9_999;

impl ReceiptForger {
    /// Creates the adversary (install it at a *follower* slot of the
    /// group whose initial leader `leader` is).
    pub fn new(
        me: Pid,
        mems: Vec<ActorId>,
        forged: Value,
        write_after: simnet::Duration,
        leader_signer: Signer,
        leader: Pid,
    ) -> ReceiptForger {
        ReceiptForger {
            me,
            mems,
            forged,
            write_after,
            leader_signer,
            leader,
            client: MemoryClient::new(),
        }
    }
}

impl Actor<Msg> for ReceiptForger {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                ctx.set_timer(self.write_after, 1);
            }
            EventKind::Timer { tag: 1, .. } => {
                // The forgery: a receipt in OUR row claiming the leader
                // broadcast `forged` at instance 0 — signed with the
                // leader's key, so every signature check passes.
                let wire = crate::smr::byz::log_entries_wire(0, 0, vec![self.forged]);
                let slot = RegVal::Neb(NebSlot::signed(&self.leader_signer, FORGED_K, wire));
                let reg = nebcast::receipt_reg(self.me, FORGED_K, self.leader);
                let region = nebcast::row_region(self.me);
                for mem in self.mems.clone() {
                    self.client.write(ctx, mem, region, reg, slot.clone());
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let _ = self.client.on_wire(ctx, from, wire);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for ReceiptForger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReceiptForger({})", self.me)
    }
}
