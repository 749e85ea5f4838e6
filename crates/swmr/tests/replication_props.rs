//! Property tests of the replicated-register layer: regularity of the
//! logical register under crashes and jitter, and quorum-tracker laws.

use proptest::prelude::*;
use rdma_sim::{
    LegalChange, MemEmbed, MemWire, MemoryActor, MemoryClient, Permission, RegId, RegionId,
    RegionSpec,
};
use simnet::{Actor, ActorId, Context, DelayModel, Duration, EventKind, Simulation, Time};
use swmr::{QuorumStatus, QuorumTracker, RepEngine, RepResult};

#[derive(Clone, Debug, PartialEq, Eq)]
enum TMsg {
    Mem(MemWire<u64>),
}
impl MemEmbed<u64> for TMsg {
    fn from_wire(wire: MemWire<u64>) -> Self {
        TMsg::Mem(wire)
    }
    fn into_wire(self) -> Result<MemWire<u64>, Self> {
        let TMsg::Mem(w) = self;
        Ok(w)
    }
}

const REGION: RegionId = RegionId(0);
const REG: RegId = RegId {
    space: 0,
    a: 0,
    b: 0,
    c: 0,
};

/// Writes a sequence of values (waiting for each WriteOk), then reads.
struct SeqWriter {
    mems: Vec<ActorId>,
    values: Vec<u64>,
    client: MemoryClient<u64, TMsg>,
    engine: Option<RepEngine<u64, TMsg>>,
    idx: usize,
    reading: bool,
    result: Option<Option<u64>>,
}

impl Actor<TMsg> for SeqWriter {
    fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
        match ev {
            EventKind::Start => {
                let mut engine = RepEngine::new(self.mems.clone());
                engine.write(ctx, &mut self.client, REGION, REG, self.values[0]);
                self.engine = Some(engine);
            }
            EventKind::Msg {
                from,
                msg: TMsg::Mem(wire),
            } => {
                let Some(c) = self.client.on_wire(ctx, from, wire) else {
                    return;
                };
                let engine = self.engine.as_mut().expect("started");
                // Every op on this client is the engine's, and is its until
                // the completion is fed.
                let op = c.op;
                assert!(engine.owns(op), "{op:?} not owned before its completion");
                let done = engine.on_completion(c);
                assert!(!engine.owns(op), "{op:?} still owned after its completion");
                let Some(done) = done else {
                    return;
                };
                match done.result {
                    RepResult::WriteOk => {
                        self.idx += 1;
                        if self.idx < self.values.len() {
                            engine.write(ctx, &mut self.client, REGION, REG, self.values[self.idx]);
                        } else if !self.reading {
                            self.reading = true;
                            engine.read(ctx, &mut self.client, REGION, REG);
                        }
                    }
                    RepResult::ReadOk(v) => self.result = Some(v),
                    other => panic!("unexpected completion {other:?}"),
                }
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential writes followed by a read return the LAST completed
    /// write — for any values, any minority crash set, any jitter, any
    /// seed. (This is regularity specialized to non-concurrent ops.)
    #[test]
    fn read_returns_last_completed_write(
        values in proptest::collection::vec(0u64..1000, 1..6),
        seed in 0u64..5_000,
        dead in proptest::collection::btree_set(0usize..5, 0..3),
        jitter in 0u64..4,
    ) {
        let m = 5u32;
        prop_assume!(dead.len() <= 2); // f_M < majority
        let mut sim: Simulation<TMsg> = Simulation::new(seed);
        sim.set_default_delay(DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(1 + jitter),
        });
        let mems: Vec<ActorId> = (1..=m).map(ActorId).collect();
        let writer = SeqWriter {
            mems: mems.clone(),
            values: values.clone(),
            client: MemoryClient::new(),
            engine: None,
            idx: 0,
            reading: false,
            result: None,
        };
        let w = sim.add(writer);
        prop_assert_eq!(w, ActorId(0));
        for _ in 0..m {
            sim.add(MemoryActor::<u64, TMsg>::new(LegalChange::Static).with_region(
                REGION,
                RegionSpec::space(0),
                Permission::exclusive_writer(ActorId(0)),
            ));
        }
        for &d in &dead {
            sim.crash_at(mems[d], Time::ZERO);
        }
        sim.run_to_quiescence(Time::from_delays(50_000));
        let got = sim.actor_as::<SeqWriter>(w).unwrap().result;
        prop_assert_eq!(got, Some(Some(*values.last().unwrap())));
    }

    /// QuorumTracker laws: status is a function of (yes, no) counts;
    /// Reached and Impossible are mutually exclusive; adding yes votes
    /// never moves away from Reached.
    #[test]
    fn quorum_tracker_laws(
        total in 1usize..10,
        votes in proptest::collection::vec(any::<bool>(), 0..10),
    ) {
        let mut t = QuorumTracker::majority(total);
        let needed = t.needed();
        prop_assert_eq!(needed, total / 2 + 1);
        let mut yes = 0;
        let mut no = 0;
        for &v in votes.iter().take(total) {
            let status = if v { yes += 1; t.vote_yes() } else { no += 1; t.vote_no() };
            let expect = if yes >= needed {
                QuorumStatus::Reached
            } else if no > total - needed {
                QuorumStatus::Impossible
            } else {
                QuorumStatus::Pending
            };
            prop_assert_eq!(status, expect);
            prop_assert_eq!(t.yes_count(), yes);
            prop_assert_eq!(t.no_count(), no);
        }
        // Mutual exclusion at the end.
        let reached = t.status() == QuorumStatus::Reached;
        let impossible = t.status() == QuorumStatus::Impossible;
        prop_assert!(!(reached && impossible));
    }
}
