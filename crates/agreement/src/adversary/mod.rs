//! Byzantine adversaries, as data.
//!
//! A Byzantine process in the model can deviate arbitrarily — *except* that
//! it cannot forge signatures (it holds only its own [`sigsim::Signer`]) and
//! cannot bypass memory permissions (the memory checks every operation).
//! Within those two constraints everything a villain does is a list of
//! packets, so every villain here is one [`Scripted`] actor playing a
//! script of [`Act`]s: the acts it runs at `Start`, `(after, acts)` steps
//! each fired by one timer armed at `Start`, and — for the lying log
//! leader only — a rule that answers each routed [`Msg::Submit`] with
//! `Decided` claims. Each named constructor builds one villain, every
//! value signed when the villain is built:
//!
//! | villain | attack | what closes it |
//! |---|---|---|
//! | [`Scripted::silent`] | never takes a step (omission) | nothing needs to: once non-equivocation and history checking confine a Byzantine process, this is its residual power |
//! | [`Scripted::neb_equivocator`] | different validly signed values for the same broadcast slot on different memory replicas | non-equivocating broadcast: no two correct processes deliver different values (Lemma 4.1, property 2) |
//! | [`Scripted::bad_history`] | a correctly signed and sequenced Paxos `Accept` with no promise quorum in its history | the trusted layer's conformance check: every correct receiver distrusts it |
//! | [`Scripted::history_rewriter`] | a legal first broadcast, then a second whose history claims the first carried another value | the trusted layer's cross-check of claimed sends against actual broadcasts |
//! | [`Scripted::cq_equivocating_leader`] | a Cheap Quorum leader writes different signed values to different replicas of the leader region | unanimity: all `n` matching copies and `n` proofs, so no split decision |
//! | [`Scripted::log_equivocator`] | a sharded group leader rewrites its broadcast slot and claims commits it never made | the broadcast audit (`equivocations_blocked`) and the router's `f + 1` confirmation quorum |
//! | [`Scripted::far_future_leader`] | a sharded group leader signs batches at log positions 2^40 and `u64::MAX` | the replicas' density bounds (`byz_entries_rejected`) |
//! | [`Scripted::receipt_forger`] | a follower holding its leader's signer writes a receipt for a broadcast that leader never made | the takeover scan's receipt-provenance check (`byz_receipts_rejected`) |
//!
//! The sharded service places villains by [`AdversaryKind`];
//! [`AdversaryKind::villain`] is the one place each kind's parameters are
//! chosen.

use rdma_sim::{MemoryClient, RegId, RegionId};
use sigsim::Signer;
use simnet::{Actor, ActorId, Context, Duration, EventKind};

use crate::cheap_quorum;
use crate::nebcast::{self, NebSlot};
use crate::paxos::{Dest, PaxosMsg};
use crate::smr::byz::log_entries_wire;
use crate::trusted::{HistEntry, RbPayload, TWire};
use crate::types::{sigtags, Ballot, CqSigned, Instance, Msg, Pid, RegVal, Value};

/// The adversaries a sharded scenario can install in a Byzantine-mode
/// group ([`crate::harness::ShardedScenario::adversaries`] lists
/// `(group, replica, kind)`), with the placement rules every reader of
/// that list shares: harness validation and placement, the fuzzer's
/// generator, shrinker and repro printer. A new villain is one arm here
/// plus its script.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AdversaryKind {
    /// [`Scripted::silent`]: a replica that never takes a step.
    Silent,
    /// [`Scripted::log_equivocator`]: rewrite-equivocates its broadcast
    /// slot and fabricates commit claims; blocked by the broadcast audit
    /// and the router's `f + 1` confirmation quorum.
    Equivocator,
    /// [`Scripted::receipt_forger`]: a follower that writes a delivery
    /// receipt for a value its group's initial leader never broadcast;
    /// blocked by the takeover scan's receipt-provenance check
    /// ([`crate::harness::ShardedRunReport::byz_receipts_rejected`]).
    ReceiptForger,
    /// [`Scripted::far_future_leader`]: signs batches for far-future log
    /// positions; every audit passes, the replicas' density bounds ignore
    /// them ([`crate::harness::ShardedRunReport::byz_entries_rejected`]).
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

    /// Base of the junk command ids this kind signs in group `g`: one
    /// band `Value::JUNK_FLOOR << band` per kind, so a leaked value is
    /// attributable (see [`Value`] for the id space).
    /// [`AdversaryKind::Silent`] signs nothing.
    pub fn junk_base(self, g: usize) -> u64 {
        let band = match self {
            AdversaryKind::Silent => return 0,
            AdversaryKind::Equivocator => 0,
            AdversaryKind::ReceiptForger => 1,
            AdversaryKind::FarFutureLeader => 2,
        };
        Value::JUNK_FLOOR << band | (g as u64) << 8
    }

    /// This kind's villain at replica `me` of group `g` (memories `mems`,
    /// the service's `router`), signing as itself with `own_signer` — or,
    /// for the receipt forger, as its colluding initial `leader`.
    pub fn villain(
        self,
        g: usize,
        me: Pid,
        mems: Vec<ActorId>,
        router: ActorId,
        own_signer: &Signer,
        (leader, leader_signer): (Pid, &Signer),
    ) -> Scripted {
        let junk = |low: u64| Value(self.junk_base(g) | low);
        match self {
            AdversaryKind::Silent => Scripted::silent(),
            AdversaryKind::Equivocator => Scripted::log_equivocator(
                me,
                mems,
                router,
                junk(1),
                junk(2),
                Duration::from_delays(4),
                own_signer.clone(),
            ),
            AdversaryKind::ReceiptForger => Scripted::receipt_forger(
                me,
                mems,
                junk(1),
                Duration::from_delays(3),
                leader_signer.clone(),
                leader,
            ),
            AdversaryKind::FarFutureLeader => {
                Scripted::far_future_leader(me, mems, router, junk(1), own_signer.clone())
            }
        }
    }
}

/// One thing a villain does.
#[derive(Debug)]
pub enum Act {
    /// Writes `value` into register `reg` of `region` on memory `mem`,
    /// through the villain's own memory client (so the memory checks the
    /// villain's permissions like anyone's).
    Write {
        /// The memory written.
        mem: ActorId,
        /// The region the write claims permission for.
        region: RegionId,
        /// The register written.
        reg: RegId,
        /// What is written.
        value: RegVal,
    },
    /// Sends `msg` to `to`.
    Send {
        /// The receiver.
        to: ActorId,
        /// The message.
        msg: Msg,
    },
}

impl Act {
    /// `value` written into `reg` of `region` on each of `mems`, in order.
    pub fn write_all(mems: &[ActorId], region: RegionId, reg: RegId, value: RegVal) -> Vec<Act> {
        split_write(mems, mems.len(), (region, reg), value.clone(), value)
    }
}

/// `a` written into `reg` of `region` on the first `split` of `mems`, `b`
/// on the rest.
fn split_write(
    mems: &[ActorId],
    split: usize,
    (region, reg): (RegionId, RegId),
    a: RegVal,
    b: RegVal,
) -> Vec<Act> {
    (mems.iter().enumerate())
        .map(|(i, &mem)| Act::Write {
            mem,
            region,
            reg,
            value: if i < split { a.clone() } else { b.clone() },
        })
        .collect()
}

/// `me`'s `k`-th broadcast of `wire`, signed by `signer`, written to
/// `me`'s own slot on every memory — an *honestly formatted* broadcast.
fn broadcast(signer: &Signer, (me, mems): (Pid, &[ActorId]), k: u64, wire: TWire) -> Vec<Act> {
    let slot = RegVal::Neb(NebSlot::signed(signer, k, wire));
    let reg = nebcast::slot_reg(me, k, me);
    Act::write_all(mems, nebcast::row_region(me), reg, slot)
}

/// A broadcast `Setup` of `value` with no evidence and no history.
fn setup_wire(value: Value) -> TWire {
    TWire {
        dest: Dest::All,
        payload: RbPayload::Setup {
            value,
            evidence: Default::default(),
        },
        history: Vec::new(),
    }
}

/// Where [`Scripted::far_future_leader`]'s first bogus batch claims to
/// start: 2^40 eight-byte log slots are 16 TiB.
pub const FAR_FUTURE_FIRST: u64 = 1 << 40;

/// Sequence number of [`Scripted::receipt_forger`]'s forged broadcast: far
/// above anything a real leader reaches, so the forgery never collides
/// with a genuine self-slot (which would merely make it an
/// equivocation-rewrite race instead).
const FORGED_K: u64 = 9_999;

/// The lying log leader's answer to routed commands: every routed
/// [`Msg::Submit`] batch is claimed decided to `router`, plus one wholly
/// invented command id per batch.
struct Claims {
    router: ActorId,
    /// The junk value the invented ids are derived from.
    base: Value,
    next_instance: u64,
    batches: u64,
}

impl Claims {
    fn answer(&mut self, ctx: &mut Context<'_, Msg>, cmds: &[Value]) {
        // The invented id is a counter in bits disjoint from the junk
        // base's set bits, well above any client id, which no honest
        // replica can ever corroborate.
        self.batches += 1;
        let invented = Value((self.base.0 | 1 << 50) + (self.batches << 16));
        for value in cmds.iter().copied().chain([invented]) {
            let instance = Instance(self.next_instance);
            self.next_instance += 1;
            ctx.send(self.router, Msg::Decided { instance, value });
        }
    }
}

/// A Byzantine process that plays a script: its `start` acts at `Start`,
/// then each `(after, acts)` step when the timer armed for it at `Start`
/// fires (step `i` on timer tag `i + 1`), answering routed commands with
/// lies if it has a claims rule. It reads nothing: a memory completion
/// only keeps its client's pipeline moving.
pub struct Scripted {
    /// What `Debug` prints, with `me` in parentheses.
    name: &'static str,
    me: Option<Pid>,
    start: Vec<Act>,
    steps: Vec<(Duration, Vec<Act>)>,
    claims: Option<Claims>,
    client: MemoryClient<RegVal, Msg>,
}

impl Scripted {
    /// A villain named `name` at `me` playing `start` at `Start` and each
    /// of `steps` `after` its timer.
    pub fn new(
        name: &'static str,
        me: Pid,
        start: Vec<Act>,
        steps: Vec<(Duration, Vec<Act>)>,
    ) -> Scripted {
        Scripted {
            name,
            me: Some(me),
            start,
            steps,
            claims: None,
            client: MemoryClient::new(),
        }
    }

    /// A Byzantine process that never takes a step (pure omission).
    pub fn silent() -> Scripted {
        Scripted {
            me: None,
            ..Scripted::new("SilentActor", ActorId(0), Vec::new(), Vec::new())
        }
    }

    /// Tries to equivocate at the broadcast layer: writes signed value `a`
    /// to the first `split` memories and signed value `b` to the rest, all
    /// in its own slot `slots[me, 1, me]`.
    pub fn neb_equivocator(
        me: Pid,
        mems: Vec<ActorId>,
        split: usize,
        a: Value,
        b: Value,
        signer: Signer,
    ) -> Scripted {
        let slot = |v| RegVal::Neb(NebSlot::signed(&signer, 1, setup_wire(v)));
        let at = (nebcast::row_region(me), nebcast::slot_reg(me, 1, me));
        let start = split_write(&mems, split, at, slot(a), slot(b));
        Scripted::new("NebEquivocator", me, start, Vec::new())
    }

    /// Broadcasts a protocol-illegal Paxos `Accept` for its own ballot
    /// with an empty history — no Setup, no promises — through a
    /// *correctly formatted*, signed and sequenced trusted wire. Every
    /// correct receiver's conformance check must reject and distrust it.
    pub fn bad_history(me: Pid, mems: Vec<ActorId>, v: Value, signer: Signer) -> Scripted {
        let wire = TWire {
            dest: Dest::All,
            payload: RbPayload::Paxos(PaxosMsg::Accept {
                b: Ballot { round: 1, pid: me },
                v,
            }),
            history: Vec::new(),
        };
        let start = broadcast(&signer, (me, &mems), 1, wire);
        Scripted::new("BadHistoryActor", me, start, Vec::new())
    }

    /// A Byzantine Cheap Quorum leader: writes signed value `a` to the
    /// leader region on the first `split` memories and signed value `b`
    /// to the rest, hoping different followers adopt different values (it
    /// must be the configured leader to hold the write permission).
    pub fn cq_equivocating_leader(
        me: Pid,
        mems: Vec<ActorId>,
        split: usize,
        a: Value,
        b: Value,
        signer: Signer,
    ) -> Scripted {
        let signed = |value| {
            let sig = signer.sign(&(sigtags::CQ_VALUE, value));
            RegVal::CqValue(CqSigned {
                value,
                leader_sig: sig,
                own_sig: sig,
            })
        };
        let at = (cheap_quorum::LEADER_REGION, cheap_quorum::VALUE_L);
        let start = split_write(&mems, split, at, signed(a), signed(b));
        Scripted::new("CqEquivocatingLeader", me, start, Vec::new())
    }

    /// Broadcasts a legal Setup of `real` at k = 1, then at k = 2 a Paxos
    /// `Prepare` whose attached history **misrepresents the first**
    /// (claims it carried `fake`). The trusted layer's actual-broadcast
    /// cross-check must reject message 2 at every correct receiver, while
    /// message 1 stays usable.
    pub fn history_rewriter(
        me: Pid,
        mems: Vec<ActorId>,
        real: Value,
        fake: Value,
        signer: Signer,
    ) -> Scripted {
        let lying_history = vec![HistEntry::Sent {
            k: 1,
            dest: Dest::All,
            payload: setup_wire(fake).payload,
        }];
        let second = TWire {
            dest: Dest::All,
            payload: RbPayload::Paxos(PaxosMsg::Prepare {
                b: Ballot { round: 1, pid: me },
            }),
            history: lying_history,
        };
        let mut start = broadcast(&signer, (me, &mems), 1, setup_wire(real));
        start.extend(broadcast(&signer, (me, &mems), 2, second));
        Scripted::new("HistoryRewriter", me, start, Vec::new())
    }

    /// A Byzantine *group leader* for the sharded Byzantine-mode service
    /// ([`crate::smr::ByzSmrNode`] groups): it holds the leader role of
    /// its replication group and attacks on both fronts the mode must
    /// close (install it as its group's initial leader).
    ///
    /// * **Log equivocation (rewrite attack).** At start it broadcasts a
    ///   validly-signed `LogEntries` wire committing junk value `a` at
    ///   instance 0, then after `rewrite_after` overwrites the same
    ///   broadcast slot with junk value `b` — the classic attack on a
    ///   replicated SWMR register. Non-equivocating broadcast confines it:
    ///   early auditors may deliver `a`, but every auditor that sees both
    ///   (the earlier copies replicate to a memory majority) blocks the
    ///   sender forever, counted in the report as `equivocations_blocked`.
    ///   No two correct replicas ever settle different values for the
    ///   instance.
    /// * **Fabricated commits.** Every routed [`Msg::Submit`] batch is
    ///   answered with `Decided` claims to `router` — for the routed
    ///   commands it never committed anywhere, *plus* one claim per batch
    ///   for a command id that does not exist at all. The router's `f + 1`
    ///   confirmation quorum withholds every one (`byz_withheld_reports`);
    ///   the claims for real commands are eventually out-voted by honest
    ///   reports after failover, while the invented ids stay unconfirmed
    ///   forever (`byz_unconfirmed_claims`).
    ///
    /// It never commits a real client command, so scripted Ω failover is
    /// what restores the group's liveness — exactly the role a
    /// silent-after-lying Byzantine leader plays in the paper's model.
    pub fn log_equivocator(
        me: Pid,
        mems: Vec<ActorId>,
        router: ActorId,
        a: Value,
        b: Value,
        rewrite_after: Duration,
        signer: Signer,
    ) -> Scripted {
        let commit = |v| broadcast(&signer, (me, &mems), 1, log_entries_wire(0, 0, [v].into()));
        let start = commit(a);
        // The rewrite: same sequence number, different signed value.
        // Anyone who audits from then on sees the earlier copies and
        // blocks us.
        let steps = vec![(rewrite_after, commit(b))];
        Scripted {
            claims: Some(Claims {
                router,
                base: a,
                next_instance: 0,
                batches: 0,
            }),
            ..Scripted::new("LogEquivocator", me, start, steps)
        }
    }

    /// A Byzantine *group leader* that equivocates nothing and forges
    /// nothing: it signs `LogEntries` batches of `junk` for log positions
    /// no dense log can reach — one at `first =` [`FAR_FUTURE_FIRST`], one
    /// at `first = u64::MAX` (whose end does not even fit the instance
    /// space) — and claims the first decided to `router`. Both wires pass
    /// every broadcast audit, so every correct follower *delivers* them; a
    /// replica that sized its log by the delivered `first` would allocate
    /// terabytes (or overflow) on one wire. [`crate::smr::ByzSmrNode`]
    /// instead ignores any batch that starts beyond its settled frontier,
    /// and its takeover scan ignores wires beyond what the scan itself
    /// could make dense — both counted as `byz_entries_rejected` in the
    /// sharded report. The claim never reaches the router's `f + 1`
    /// quorum, and since it commits nothing real, scripted Ω failover
    /// restores the group's liveness (install it as its group's initial
    /// leader).
    pub fn far_future_leader(
        me: Pid,
        mems: Vec<ActorId>,
        router: ActorId,
        junk: Value,
        signer: Signer,
    ) -> Scripted {
        let batch = |k, first, values: Vec<Value>| {
            broadcast(
                &signer,
                (me, &mems),
                k,
                log_entries_wire(first, 0, values.into()),
            )
        };
        let mut start = batch(1, FAR_FUTURE_FIRST, vec![junk]);
        start.extend(batch(2, u64::MAX, vec![junk, junk]));
        start.push(Act::Send {
            to: router,
            msg: Msg::Decided {
                instance: Instance(FAR_FUTURE_FIRST),
                value: junk,
            },
        });
        Scripted::new("FarFutureLeader", me, start, Vec::new())
    }

    /// A Byzantine *follower* in a sharded Byzantine-mode group that forges
    /// a delivery receipt (install it at a *follower* slot of the group
    /// whose initial leader `leader` is). Colluding with that leader — it
    /// holds a copy of the leader's [`sigsim::Signer`], double-signing
    /// being the one extra capability the signature model grants a
    /// coalition — it writes into its own row, `write_after` into the run,
    /// a receipt crediting the leader with a validly-signed broadcast of
    /// `forged` at instance 0 the leader never made. Without a provenance
    /// check a takeover scan would *prefer* the forged "delivered" value
    /// over genuine candidates; [`crate::smr::ByzSmrNode`]'s scan instead
    /// matches every receipt against the claimed broadcaster's unforgeable
    /// self-slot, demotes the forgery, and counts it (surfaced as
    /// `byz_receipts_rejected` in the sharded report). Beyond the forgery
    /// it is silent, so Ω failover past it behaves like failover past a
    /// silent replica.
    pub fn receipt_forger(
        me: Pid,
        mems: Vec<ActorId>,
        forged: Value,
        write_after: Duration,
        leader_signer: Signer,
        leader: Pid,
    ) -> Scripted {
        let wire = log_entries_wire(0, 0, [forged].into());
        let slot = RegVal::Neb(NebSlot::signed(&leader_signer, FORGED_K, wire));
        let reg = nebcast::receipt_reg(me, FORGED_K, leader);
        let forgery = Act::write_all(&mems, nebcast::row_region(me), reg, slot);
        Scripted::new(
            "ReceiptForger",
            me,
            Vec::new(),
            vec![(write_after, forgery)],
        )
    }

    fn play(&mut self, ctx: &mut Context<'_, Msg>, acts: Vec<Act>) {
        for act in acts {
            match act {
                Act::Write {
                    mem,
                    region,
                    reg,
                    value,
                } => {
                    self.client.write(ctx, mem, region, reg, value);
                }
                Act::Send { to, msg } => ctx.send(to, msg),
            }
        }
    }
}

impl Actor<Msg> for Scripted {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                let start = std::mem::take(&mut self.start);
                self.play(ctx, start);
                for (tag, (after, _)) in (1..).zip(&self.steps) {
                    ctx.set_timer(*after, tag);
                }
            }
            EventKind::Timer { tag, .. } => {
                let step = (tag as usize).checked_sub(1);
                if let Some((_, acts)) = step.and_then(|i| self.steps.get_mut(i)) {
                    let acts = std::mem::take(acts);
                    self.play(ctx, acts);
                }
            }
            EventKind::Msg {
                msg: Msg::Submit { cmds },
                ..
            } => {
                if let Some(claims) = &mut self.claims {
                    claims.answer(ctx, &cmds);
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

impl std::fmt::Debug for Scripted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.me {
            Some(me) => write!(f, "{}({me})", self.name),
            None => f.write_str(self.name),
        }
    }
}
