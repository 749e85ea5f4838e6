//! Shared vocabulary of the agreement protocols: process ids, values,
//! ballots, register layouts and the unified simulation message type.

use std::fmt;
use std::sync::Arc;

use rdma_sim::{MemEmbed, MemWire, WireSize};
use sigsim::Signature;
use simnet::ActorId;

/// A process identity (an actor id that the harness designated a process).
pub type Pid = ActorId;

/// A proposable value.
///
/// Protocols are agnostic to payload semantics, so a compact numeric id
/// keeps simulations deterministic and cheap; applications (see the
/// `replicated_log` example) map ids to real commands out of band.
///
/// A replicated log's values split the id space four ways, declared
/// here and nowhere else:
/// * client command ids, dense from 1 ([`Value::client_id`]; 0 is none);
/// * adversary junk, in `[JUNK_FLOOR, CTRL_BIT)`
///   ([`crate::adversary::AdversaryKind::junk_base`]);
/// * migration control entries, tagged by [`Value::CTRL_BIT`]
///   ([`crate::sharded::rebalance::decode_ctrl`]);
/// * the no-op filler [`Value::NOOP`], which is none of the above.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(pub u64);

impl Value {
    /// The no-op filler a log leader commits when it has no command of
    /// its own. It carries no command and is no control entry.
    pub const NOOP: Value = Value(u64::MAX);
    /// The bit tagging a migration control entry.
    pub const CTRL_BIT: u64 = 1 << 63;
    /// The lowest adversary junk value: far above any client command id,
    /// and below [`Value::CTRL_BIT`].
    pub const JUNK_FLOOR: u64 = 1 << 40;

    /// The client command id this value carries in a run of `total`
    /// commands (`1..=total`), or `None` for everything else.
    pub fn client_id(self, total: usize) -> Option<usize> {
        (1..=total as u64)
            .contains(&self.0)
            .then_some(self.0 as usize)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A Paxos-style ballot (proposal number), totally ordered with the owning
/// process id as tie-breaker so two processes never share a ballot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// Monotone per-proposer round counter.
    pub round: u64,
    /// The proposer owning this ballot.
    pub pid: Pid,
}

impl Ballot {
    /// The initial ballot owned by the default leader, letting it skip
    /// phase 1 ("the leader terminates one instance and becomes the default
    /// leader in the next").
    pub fn initial(leader: Pid) -> Ballot {
        Ballot {
            round: 0,
            pid: leader,
        }
    }
}

impl fmt::Debug for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.pid.0)
    }
}

/// A consensus instance id, for running many instances (state machine
/// replication) over the same memories.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instance(pub u64);

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

/// Register namespaces (the `space` coordinate of [`rdma_sim::RegId`]).
pub mod spaces {
    /// Non-equivocating broadcast slots `slots[p, k, q]`.
    pub const NEB: u16 = 1;
    /// Cheap Quorum per-process registers (`b` picks Value/Panic/Proof).
    pub const CQ: u16 = 2;
    /// Cheap Quorum leader proposal register.
    pub const CQ_LEADER: u16 = 3;
    /// Protected Memory Paxos slots `slot[instance, p]` (and Aligned
    /// Paxos's in protected mode).
    pub const PMP: u16 = 4;
    /// The crash log's ballot registers `ballot[p]`, one per process for
    /// the whole log (`protected::ballot_reg`). Sparse: a register in the
    /// log space [`PMP`] would reserve a whole log page.
    pub const PMP_BALLOT: u16 = 6;
    /// Disk Paxos blocks `block[instance, p]` (and Aligned Paxos's in
    /// disk mode).
    pub const DISK: u16 = 5;
    /// Lower-bound strawman flags `flag[p]`.
    pub const LB: u16 = 7;
}

/// The slot record of Protected Memory Paxos, Aligned Paxos and Disk Paxos
/// (Algorithm 7: `(minProp, accProp, value)`; Gafni–Lamport's block
/// `(mbal, bal, inp)`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct PaxSlot {
    /// Highest proposal number written in phase 1.
    pub min_prop: Ballot,
    /// Proposal number of the accepted value, if any.
    pub acc_prop: Option<Ballot>,
    /// The accepted value, if any.
    pub value: Option<Value>,
}

impl PaxSlot {
    /// A phase-1 slot: `{propNr, ⊥, ⊥}`.
    pub fn phase1(prop: Ballot) -> PaxSlot {
        PaxSlot {
            min_prop: prop,
            acc_prop: None,
            value: None,
        }
    }

    /// A phase-2 slot: `{propNr, propNr, value}`.
    pub fn phase2(prop: Ballot, value: Value) -> PaxSlot {
        PaxSlot {
            min_prop: prop,
            acc_prop: Some(prop),
            value: Some(value),
        }
    }
}

/// A value signed for Cheap Quorum: carries the leader's signature (class-M
/// evidence for Definition 3) and the copying process's own signature (one
/// share of a unanimity proof).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct CqSigned {
    /// The proposed value.
    pub value: Value,
    /// The leader's signature over `(CQ_VALUE_TAG, value)`.
    pub leader_sig: Signature,
    /// The writing process's signature over `(CQ_VALUE_TAG, value)`.
    pub own_sig: Signature,
}

/// Domain-separation tags for signatures.
pub mod sigtags {
    /// Cheap Quorum value signatures.
    pub const CQ_VALUE: u64 = 0xC0_01;
    /// Cheap Quorum unanimity proof (outer signature).
    pub const CQ_PROOF: u64 = 0xC0_02;
    /// Non-equivocating broadcast slot signatures.
    pub const NEB: u64 = 0xC0_03;
}

/// Definition 3's priority classes for the inputs Preferential Paxos
/// receives after a Cheap Quorum abort. Higher is stronger:
/// `Proven` (contains a correct unanimity proof) > `LeaderSigned` (carries
/// the leader's signature) > `Bare` (everything else).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PriorityClass {
    /// Set `B`: no evidence.
    Bare = 0,
    /// Set `M`: signed by the Cheap Quorum leader.
    LeaderSigned = 1,
    /// Set `T`: accompanied by a correct unanimity proof.
    Proven = 2,
}

/// A Cheap Quorum unanimity proof: the same value signed by all `n`
/// processes, assembled and counter-signed by one process (§4.2).
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct UnanimityProof {
    /// The unanimous value.
    pub value: Value,
    /// `(process, signature over (CQ_VALUE, value))` for every process.
    pub shares: Vec<(Pid, Signature)>,
    /// Who assembled the proof.
    pub assembler: Pid,
    /// The assembler's signature over `(CQ_PROOF, value, shares)`.
    pub outer_sig: Signature,
}

/// Everything a register can hold across all protocols in this crate.
///
/// A register holds whatever its writer put there; readers pattern-match and
/// treat unexpected variants the way they treat garbage from a Byzantine
/// writer (ignore / nak-equivalent). Equality is by value for every
/// variant, the shared broadcast slot included: a register is evidence by
/// what it holds, never by which allocation holds it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RegVal {
    /// A non-equivocating broadcast slot (signed `(k, body)`), built once
    /// by its broadcaster and shared by every memory row, read, copy and
    /// receipt of it (ARCHITECTURE.md, "What a register costs on the wire
    /// and what it occupies, and why").
    Neb(Arc<crate::nebcast::NebSlot>),
    /// A Cheap Quorum Value register.
    CqValue(CqSigned),
    /// A Cheap Quorum Panic register.
    CqPanic(bool),
    /// A Cheap Quorum Proof register.
    CqProof(UnanimityProof),
    /// A Protected Memory Paxos / Disk Paxos / Aligned Paxos slot.
    Slot(PaxSlot),
    /// A lower-bound strawman flag.
    LbFlag(Value),
}

/// Every register is priced as one 144-byte value, whatever it holds —
/// the inline size of the largest one, a broadcast slot with its wire and
/// signature. The price is declared, not read off the host layout: a slot
/// behind its `Arc` is charged as the slot it stands for, and a Paxos slot
/// as much as a broadcast slot, so no charge under `DelayModel::Rdma` (and
/// no virtual time) depends on how or by which protocol a register is
/// held.
impl WireSize for RegVal {
    const WIRE_BYTES: u32 = 144;
}

/// The commands of one [`Msg::Submit`], in submission order: a run of up
/// to [`Cmds::INLINE`] is held in the message itself, so routing it
/// allocates nothing; a longer run is one `Vec`. Reads as a slice and
/// prints as one (`[v1, v2]`), whichever way it is held.
#[derive(Clone)]
pub struct Cmds(CmdsRepr);

#[derive(Clone)]
enum CmdsRepr {
    Inline {
        len: u8,
        values: [Value; Cmds::INLINE],
    },
    Spilled(Vec<Value>),
}

impl Cmds {
    /// The longest run held inline.
    pub const INLINE: usize = 8;

    /// An empty run with room for `n` commands: inline up to
    /// [`Cmds::INLINE`], else one `Vec` of exactly that capacity.
    pub fn with_capacity(n: usize) -> Cmds {
        Cmds(if n <= Cmds::INLINE {
            CmdsRepr::Inline {
                len: 0,
                values: [Value(0); Cmds::INLINE],
            }
        } else {
            CmdsRepr::Spilled(Vec::with_capacity(n))
        })
    }

    /// Appends `v`, moving the run to a `Vec` when it outgrows the inline
    /// room.
    pub fn push(&mut self, v: Value) {
        match &mut self.0 {
            CmdsRepr::Inline { len, values } if (*len as usize) < Cmds::INLINE => {
                values[*len as usize] = v;
                *len += 1;
            }
            CmdsRepr::Inline { values, .. } => {
                let mut spilled = Vec::with_capacity(2 * Cmds::INLINE);
                spilled.extend_from_slice(values);
                spilled.push(v);
                self.0 = CmdsRepr::Spilled(spilled);
            }
            CmdsRepr::Spilled(values) => values.push(v),
        }
    }
}

impl std::ops::Deref for Cmds {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match &self.0 {
            CmdsRepr::Inline { len, values } => &values[..*len as usize],
            CmdsRepr::Spilled(values) => values,
        }
    }
}

impl FromIterator<Value> for Cmds {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Cmds {
        let iter = iter.into_iter();
        let mut cmds = Cmds::with_capacity(iter.size_hint().0);
        for v in iter {
            cmds.push(v);
        }
        cmds
    }
}

impl fmt::Debug for Cmds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// The unified simulation message type for every protocol in this crate.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Memory wire protocol (requests/responses to [`rdma_sim::MemoryActor`]).
    Mem(MemWire<RegVal>),
    /// Message-passing Paxos (baseline), and Aligned Paxos's
    /// process-agent traffic.
    Paxos(crate::paxos::PaxosMsg),
    /// Fast Paxos (baseline).
    FastPaxos(crate::fast_paxos::FpMsg),
    /// Cheap Quorum panic relay ("Panic messages can be relayed using RDMA
    /// message sends", §7).
    Panic {
        /// The panicking process.
        who: Pid,
    },
    /// Decision dissemination so every correct process decides.
    Decided {
        /// Consensus instance.
        instance: Instance,
        /// The decided value.
        value: Value,
    },
    /// Batched decision dissemination: `values[j]` decided instance
    /// `first + j`. Sent by an SMR leader committing multiple log entries
    /// per replicated write (`batch > 1`), amortizing dissemination the
    /// same way the write itself is amortized.
    DecidedMany {
        /// First instance of the contiguous decided range.
        first: Instance,
        /// The decided values, in instance order: one payload, shared by
        /// every recipient of the notification.
        values: Arc<[Value]>,
    },
    /// A batch of client commands routed to a group leader by the sharded
    /// service's router ([`crate::sharded`]). The receiving replica appends
    /// them to its proposal workload; commands are committed at-least-once
    /// (the router re-submits in-flight commands on failover).
    Submit {
        /// The routed commands, in submission order.
        cmds: Cmds,
    },
    /// A key-range migration's state snapshot, sent by the router to every
    /// replica of the *destination* group once the source group committed
    /// the seal entry (see [`crate::sharded::rebalance`]). Carries the ids
    /// of the migrating range's commands already observed committed at the
    /// source; replicas fold them into their session-dedup seen-set so a
    /// source-committed command is never re-applied at the destination.
    InstallSnapshot {
        /// The migration this snapshot belongs to.
        mig: u64,
        /// Sorted ids decided at the source for the sealed range.
        seen: Vec<u64>,
    },
}

impl MemEmbed<RegVal> for Msg {
    fn from_wire(wire: MemWire<RegVal>) -> Self {
        Msg::Mem(wire)
    }
    fn into_wire(self) -> Result<MemWire<RegVal>, Self> {
        match self {
            Msg::Mem(w) => Ok(w),
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One size here is priced and the rest are watched. Priced: the
    /// declared `RegVal::WIRE_BYTES`, so `rdma_sim`'s wire charges
    /// `size_of::<RegId>() + 144` per register carried
    /// (`wire::entry_bytes`) — under `DelayModel::Rdma` that sum moves
    /// virtual time, and nothing else below does. Watched: `size_of`, the
    /// host layout — `RegVal` (a broadcast slot is one `Arc` pointer, so a
    /// Paxos slot or a Cheap Quorum proof sizes the enum), `Option<RegVal>`
    /// as a row of the memory's paged log store, `MemRequest<RegVal>` /
    /// `Msg` as what a handler builds and matches on per event,
    /// `RegionSpec` as every memory's region map entry and every range
    /// read's filter (8 more bytes there raised `peak_live_bytes`), and
    /// `EventKind<Msg>` as what a slot of the kernel's event slab holds —
    /// host time and `peak_live_bytes`, never a delay.
    /// (A `WriteMany`'s shared rows and a `DecidedMany`'s shared values are
    /// thin behind their `Arc`s; `Write` carrying a `RegVal` inline is
    /// what sizes both enums.)
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn register_and_message_sizes_are_what_the_wire_prices() {
        use std::mem::size_of;
        assert_eq!(RegVal::WIRE_BYTES, 144, "priced");
        assert_eq!(
            size_of::<rdma_sim::RegId>() as u32 + RegVal::WIRE_BYTES,
            176
        );
        assert_eq!(size_of::<RegVal>(), 64, "watched");
        assert_eq!(size_of::<Option<RegVal>>(), 64, "watched: a log row");
        assert_eq!(
            size_of::<rdma_sim::RegionSpec>(),
            56,
            "watched: a region map's entry and a range read's filter"
        );
        assert_eq!(size_of::<rdma_sim::MemRequest<RegVal>>(), 104, "watched");
        assert_eq!(size_of::<Msg>(), 112, "watched");
        assert_eq!(
            size_of::<simnet::EventKind<Msg>>(),
            120,
            "watched: what a slab slot holds, copied once in and once out per event"
        );
        assert_eq!(
            size_of::<Option<simnet::EventKind<Msg>>>(),
            120,
            "the slot itself"
        );
    }

    /// What every leg of the memory wire is charged under
    /// `DelayModel::Rdma`, in bytes and work requests, with a register of
    /// each shape in it: a signed broadcast slot, a Paxos slot and a Cheap
    /// Quorum proof all cost one 176-byte entry (a 32-byte `RegId` and a
    /// 144-byte value), so the kind of register never moves virtual time.
    /// (The slot goes into its register through `.into()`, which holds
    /// whatever the register keeps a slot behind.)
    #[test]
    #[allow(clippy::useless_conversion)]
    fn every_register_is_priced_as_one_176_byte_entry_on_every_leg() {
        use crate::paxos::Dest;
        use crate::trusted::{RbPayload, TWire};
        use rdma_sim::{MemRequest, MemResponse, OpId, RegId, RegionId};
        use sigsim::Signature;
        use simnet::{CostClass, Verb};

        let sig = Signature::forged(ActorId(0), 7);
        let wire = TWire {
            dest: Dest::All,
            payload: RbPayload::LogEntries {
                first: 0,
                epoch: 0,
                values: vec![Value(1), Value(2), Value(3)].into(),
            },
            history: Vec::new(),
        };
        let b = Ballot::initial(ActorId(0));
        let values = [
            RegVal::Neb(crate::nebcast::NebSlot { k: 1, wire, sig }.into()),
            RegVal::Slot(PaxSlot::phase2(b, Value(9))),
            RegVal::CqProof(UnanimityProof {
                value: Value(9),
                shares: vec![(ActorId(0), sig), (ActorId(1), sig), (ActorId(2), sig)],
                assembler: ActorId(1),
                outer_sig: sig,
            }),
        ];
        let (region, reg, op) = (RegionId(0), RegId::scalar(0), OpId(1));
        let priced = |wire: MemWire<RegVal>| {
            let c = wire.cost_class();
            (c.verb, c.bytes, c.wrs)
        };
        let req = |req| priced(MemWire::Req { op, req });
        let resp = |resp| priced(MemWire::Resp { op, resp });
        for value in values {
            let row = (reg, value.clone());
            assert_eq!(req(MemRequest::Read { region, reg }), (Verb::Read, 176, 1));
            let write = MemRequest::Write {
                region,
                reg,
                value: value.clone(),
            };
            assert_eq!(req(write), (Verb::Write, 176, 1), "{value:?}");
            let writes = vec![row.clone(); 5].into();
            let many = MemRequest::WriteMany { region, writes };
            assert_eq!(req(many), (Verb::Write, 880, 5), "{value:?}");
            let within = rdma_sim::RegionSpec::ALL;
            let range = MemRequest::ReadRange {
                region,
                within,
                into: Vec::new(),
            };
            assert_eq!(req(range), (Verb::Read, 176, 1));
            let one = MemResponse::Value(Some(value.clone()));
            assert_eq!(resp(one), (Verb::Send, 176, 1), "{value:?}");
            let rows = MemResponse::Range(vec![row; 4]);
            assert_eq!(resp(rows), (Verb::Send, 704, 1), "{value:?}");
        }
        assert_eq!(MemResponse::<RegVal>::Ack.cost_class(), CostClass::SEND);
    }

    /// A `Submit` reads and prints exactly as it did while its commands
    /// were a `Vec`, held inline or spilled, so every transcript that
    /// prints one reads the same.
    #[test]
    fn submit_commands_read_and_print_as_the_vec_they_replace() {
        /// `Msg::Submit` as it was declared (read by its `Debug` alone).
        #[derive(Debug)]
        #[allow(dead_code)]
        enum Was {
            Submit { cmds: Vec<Value> },
        }
        for n in [0, 1, 7, 8, 9, 16, 17, 40] {
            let want: Vec<Value> = (1..=n).map(Value).collect();
            let mut pushed = Cmds::with_capacity(3);
            want.iter().for_each(|&v| pushed.push(v));
            let filtered: Cmds = want.iter().copied().filter(|_| true).collect();
            let sized: Cmds = want.iter().copied().collect();
            let was = Was::Submit { cmds: want.clone() };
            for cmds in [pushed, filtered, sized] {
                assert_eq!(&*cmds, &want[..]);
                let is = Msg::Submit { cmds };
                assert_eq!(format!("{is:?}"), format!("{was:?}"));
                assert_eq!(format!("{is:#?}"), format!("{was:#?}"));
            }
        }
        // A run stays inline up to its room, and a run sized past it is
        // one exact `Vec`.
        let inline: Cmds = (1..=8).map(Value).collect();
        assert!(matches!(inline.0, CmdsRepr::Inline { len: 8, .. }));
        let spilled = Cmds::with_capacity(32);
        assert!(matches!(&spilled.0, CmdsRepr::Spilled(v) if v.capacity() == 32));
    }

    #[test]
    fn ballot_ordering() {
        let p0 = ActorId(0);
        let p1 = ActorId(1);
        assert!(Ballot { round: 1, pid: p0 } > Ballot { round: 0, pid: p1 });
        assert!(Ballot { round: 1, pid: p1 } > Ballot { round: 1, pid: p0 });
        assert_eq!(Ballot::initial(p0), Ballot { round: 0, pid: p0 });
    }

    #[test]
    fn slot_constructors() {
        let b = Ballot {
            round: 3,
            pid: ActorId(1),
        };
        let s1 = PaxSlot::phase1(b);
        assert_eq!(s1.acc_prop, None);
        let s2 = PaxSlot::phase2(b, Value(9));
        assert_eq!(s2.acc_prop, Some(b));
        assert_eq!(s2.value, Some(Value(9)));
    }

    #[test]
    fn msg_wire_embedding() {
        let wire: MemWire<RegVal> = MemWire::Resp {
            op: rdma_sim::OpId(1),
            resp: rdma_sim::MemResponse::Ack,
        };
        let msg = Msg::from_wire(wire.clone());
        match msg.into_wire() {
            Ok(w) => assert_eq!(w, wire),
            Err(_) => panic!("round trip failed"),
        }
        let non_wire = Msg::Panic { who: ActorId(0) };
        assert!(non_wire.into_wire().is_err());
    }

    /// Every producer of log values stays in its own band of the id
    /// space: workload ids, migration control entries, the no-op filler
    /// and every adversary kind's junk cannot be mistaken for each other.
    #[test]
    fn log_value_producers_never_collide() {
        use crate::adversary::AdversaryKind;
        use crate::sharded::rebalance::{decode_ctrl, install_value, seal_value};
        use crate::sharded::{partition, WorkloadSpec};

        let total = 500;
        let w = partition(&WorkloadSpec::Uniform { keys: 64 }, 7, total, 4);
        let mut ids: Vec<u64> = w.backlogs.concat().iter().map(|v| v.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=total as u64).collect::<Vec<_>>());
        for id in ids {
            assert_eq!(Value(id).client_id(total), Some(id as usize));
            assert_eq!(decode_ctrl(Value(id)), None);
        }
        assert_eq!(Value(0).client_id(total), None);
        assert_eq!(Value(total as u64 + 1).client_id(total), None);

        // Any total the junk floor leaves room for.
        let widest = Value::JUNK_FLOOR as usize - 1;
        for mig in [0, 1, 7, (1 << 62) - 2] {
            for v in [seal_value(mig), install_value(mig)] {
                assert!(decode_ctrl(v).is_some(), "{v:?}");
                assert_eq!(v.client_id(widest), None);
            }
        }
        assert_eq!(Value::NOOP.client_id(widest), None);
        assert_eq!(decode_ctrl(Value::NOOP), None);

        let kinds = [
            AdversaryKind::Equivocator,
            AdversaryKind::ReceiptForger,
            AdversaryKind::FarFutureLeader,
        ];
        for kind in kinds {
            for g in 0..256 {
                for low in 0..256 {
                    let v = Value(kind.junk_base(g) | low);
                    assert!((Value::JUNK_FLOOR..Value::CTRL_BIT).contains(&v.0), "{v:?}");
                    assert_eq!(v.client_id(widest), None);
                    assert_eq!(decode_ctrl(v), None);
                }
            }
        }
    }
}
