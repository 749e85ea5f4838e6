//! Experiment E9 — the model itself (Figure 1 / §3 / §7 semantics), probed
//! through the same register/permission vocabulary the protocols use:
//! permission naks, region confinement, `legalChange` policies, overlap,
//! and the Byzantine-cannot-bypass-permissions invariant.

use agreement::cheap_quorum;
use agreement::nebcast;
use agreement::protected;
use agreement::types::{sigtags, CqSigned, Msg, PaxSlot, Pid, RegVal, Value};
use rdma_sim::{
    MemRequest, MemResponse, MemWire, MemoryActor, MemoryClient, OpId, Permission, RegId,
    RegionSpec,
};
use sigsim::SigAuthority;
use simnet::{Actor, ActorId, Context, EventKind, Simulation, Time};

/// Fires a scripted request list at one memory, recording responses.
struct Probe {
    mem: ActorId,
    script: Vec<MemRequest<RegVal>>,
    client: MemoryClient<RegVal, Msg>,
    responses: Vec<(OpId, MemResponse<RegVal>)>,
}

impl Probe {
    fn new(mem: ActorId, script: Vec<MemRequest<RegVal>>) -> Probe {
        Probe {
            mem,
            script,
            client: MemoryClient::new(),
            responses: Vec::new(),
        }
    }
}

impl Actor<Msg> for Probe {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                for req in self.script.drain(..) {
                    self.client.submit(ctx, self.mem, req);
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                if let Some(c) = self.client.on_wire(ctx, from, wire) {
                    self.responses.push((c.op, c.resp));
                }
            }
            _ => {}
        }
    }
}

fn run_probe(
    mem: MemoryActor<RegVal, Msg>,
    script: Vec<MemRequest<RegVal>>,
) -> Vec<MemResponse<RegVal>> {
    let mut sim: Simulation<Msg> = Simulation::new(1);
    let mem_id = sim.add(mem);
    let probe = sim.add(Probe::new(mem_id, script));
    sim.run_to_quiescence(Time::from_delays(200));
    let mut r = sim.actor_as::<Probe>(probe).unwrap().responses.clone();
    r.sort_by_key(|(op, _)| *op);
    r.into_iter().map(|(_, resp)| resp).collect()
}

fn sample_cq_value(auth: &mut SigAuthority, signer_id: Pid, v: Value) -> RegVal {
    let s = auth.register(signer_id);
    let sig = s.sign(&(sigtags::CQ_VALUE, v));
    RegVal::CqValue(CqSigned {
        value: v,
        leader_sig: sig,
        own_sig: sig,
    })
}

/// §3: a process "cannot operate on memories without the required
/// permission" — probing as the WRONG process naks.
#[test]
fn byzantine_cannot_write_someone_elses_cq_region() {
    // The probe is actor 1; Cheap Quorum region layout for procs {2,3}
    // with leader 2: the probe owns nothing.
    let procs = vec![ActorId(2), ActorId(3)];
    let mem = cheap_quorum::memory_actor(&procs, ActorId(2));
    let mut auth = SigAuthority::new(1);
    let junk = sample_cq_value(&mut auth, ActorId(1), Value(9));
    let out = run_probe(
        mem,
        vec![
            MemRequest::Write {
                region: cheap_quorum::proc_region(ActorId(2)),
                reg: cheap_quorum::value_reg(ActorId(2)),
                value: junk.clone(),
            },
            MemRequest::Write {
                region: cheap_quorum::LEADER_REGION,
                reg: cheap_quorum::VALUE_L,
                value: junk,
            },
            // Reading is fine (SWMR: everyone reads).
            MemRequest::Read {
                region: cheap_quorum::proc_region(ActorId(2)),
                reg: cheap_quorum::value_reg(ActorId(2)),
            },
        ],
    );
    assert_eq!(out[0], MemResponse::Nak);
    assert_eq!(out[1], MemResponse::Nak);
    assert_eq!(out[2], MemResponse::Value(None));
}

/// Cheap Quorum's `legalChange`: ONLY the revoke-leader-write shape passes.
#[test]
fn cq_legal_change_admits_only_the_revocation() {
    let probe_id = ActorId(1);
    let procs = vec![ActorId(2), ActorId(3)];
    let out = run_probe(
        cheap_quorum::memory_actor(&procs, ActorId(2)),
        vec![
            // Attempt to grab the leader region for ourselves: rejected.
            MemRequest::ChangePerm {
                region: cheap_quorum::LEADER_REGION,
                new: Permission::exclusive_writer(probe_id),
            },
            // Attempt to open someone's private region: rejected.
            MemRequest::ChangePerm {
                region: cheap_quorum::proc_region(ActorId(3)),
                new: Permission::open(),
            },
            // The one legal move: revoke the leader's write permission.
            MemRequest::ChangePerm {
                region: cheap_quorum::LEADER_REGION,
                new: Permission::read_only(),
            },
        ],
    );
    assert_eq!(out[0], MemResponse::PermNak);
    assert_eq!(out[1], MemResponse::PermNak);
    assert_eq!(out[2], MemResponse::PermAck);
}

/// Protected Memory Paxos's `legalChange`: any acquire-exclusive passes,
/// anything else is rejected; the write permission really moves.
#[test]
fn pmp_permission_handoff_semantics() {
    let probe_id = ActorId(1); // sim layout: mem=0, probe=1
    let slot_mine = protected::slot_reg(agreement::Instance(0), probe_id);
    let out = run_probe(
        protected::memory_actor(ActorId(9)), // someone else holds it
        vec![
            // Writing while not owner: nak.
            MemRequest::Write {
                region: protected::REGION,
                reg: slot_mine,
                value: RegVal::Slot(PaxSlot::phase1(agreement::Ballot {
                    round: 1,
                    pid: probe_id,
                })),
            },
            // Illegal shapes rejected.
            MemRequest::ChangePerm {
                region: protected::REGION,
                new: Permission::open(),
            },
            // Acquire-exclusive: accepted...
            MemRequest::ChangePerm {
                region: protected::REGION,
                new: Permission::exclusive_writer(probe_id),
            },
            // ...and now the write lands.
            MemRequest::Write {
                region: protected::REGION,
                reg: slot_mine,
                value: RegVal::Slot(PaxSlot::phase1(agreement::Ballot {
                    round: 1,
                    pid: probe_id,
                })),
            },
        ],
    );
    assert_eq!(out[0], MemResponse::Nak);
    assert_eq!(out[1], MemResponse::PermNak);
    assert_eq!(out[2], MemResponse::PermAck);
    assert_eq!(out[3], MemResponse::Ack);
}

/// §7's overlapping registration: the whole broadcast array is readable
/// through one region while rows stay write-exclusive through another —
/// the same register is in both.
#[test]
fn nebcast_overlapping_regions() {
    let probe_id = ActorId(1);
    let procs = vec![probe_id, ActorId(2)];
    let mem = nebcast::memory_actor(&procs);
    let my_slot = nebcast::slot_reg(probe_id, 1, probe_id);
    let their_slot = nebcast::slot_reg(ActorId(2), 1, ActorId(2));
    let out = run_probe(
        mem,
        vec![
            // Write own slot through own row region: ok.
            MemRequest::Write {
                region: nebcast::row_region(probe_id),
                reg: my_slot,
                value: RegVal::LbFlag(Value(1)), // payload type irrelevant here
            },
            // Write own slot through the ALL region: nak (read-only).
            MemRequest::Write {
                region: nebcast::ALL_REGION,
                reg: my_slot,
                value: RegVal::LbFlag(Value(2)),
            },
            // Write someone else's slot through their row: nak.
            MemRequest::Write {
                region: nebcast::row_region(ActorId(2)),
                reg: their_slot,
                value: RegVal::LbFlag(Value(3)),
            },
            // Read own slot through the ALL region: ok, sees the row write.
            MemRequest::Read {
                region: nebcast::ALL_REGION,
                reg: my_slot,
            },
            // Range-read the whole array: exactly one register written.
            MemRequest::ReadRange {
                region: nebcast::ALL_REGION,
                within: RegionSpec::ALL,
                into: Vec::new(),
            },
        ],
    );
    assert_eq!(out[0], MemResponse::Ack);
    assert_eq!(out[1], MemResponse::Nak);
    assert_eq!(out[2], MemResponse::Nak);
    assert_eq!(out[3], MemResponse::Value(Some(RegVal::LbFlag(Value(1)))));
    match &out[4] {
        MemResponse::Range(rows) => assert_eq!(rows.len(), 1),
        other => panic!("expected range, got {other:?}"),
    }
}

/// Register-outside-region confinement: naming the wrong region naks even
/// with write permission on that region.
#[test]
fn region_confinement() {
    let probe_id = ActorId(1);
    let procs = vec![probe_id];
    let mem = nebcast::memory_actor(&procs);
    // A CQ register accessed through a nebcast row region: nak.
    let out = run_probe(
        mem,
        vec![MemRequest::Write {
            region: nebcast::row_region(probe_id),
            reg: RegId::two(agreement::types::spaces::CQ, 1, 0),
            value: RegVal::LbFlag(Value(1)),
        }],
    );
    assert_eq!(out[0], MemResponse::Nak);
}

/// A crashed memory hangs (never answers) — callers cannot distinguish it
/// from a slow one, per §3.
#[test]
fn crashed_memory_is_silent() {
    let mut sim: Simulation<Msg> = Simulation::new(1);
    let mem = sim.add(protected::memory_actor(ActorId(1)));
    let probe = sim.add(Probe::new(
        mem,
        vec![MemRequest::Read {
            region: protected::REGION,
            reg: protected::slot_reg(agreement::Instance(0), ActorId(1)),
        }],
    ));
    sim.crash_at(mem, Time::ZERO);
    sim.run_to_quiescence(Time::from_delays(300));
    assert!(sim.actor_as::<Probe>(probe).unwrap().responses.is_empty());
}

/// MemWire embedding round-trips through the unified message type.
#[test]
fn wire_embedding_round_trip() {
    use rdma_sim::MemEmbed;
    let wire: MemWire<RegVal> = MemWire::Resp {
        op: OpId(9),
        resp: MemResponse::Value(None),
    };
    let msg = Msg::from_wire(wire);
    assert!(msg.into_wire().is_ok());
}
