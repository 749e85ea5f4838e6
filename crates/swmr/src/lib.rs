//! # swmr — fault-tolerant SWMR regular registers over fail-prone memories
//!
//! The paper's algorithms are developed against reliable Single-Writer
//! Multi-Reader *regular* registers, then lifted to the fail-prone
//! message-and-memory model by replicating every register across
//! `m ≥ 2·f_M + 1` memories (§4.1, "Non-equivocation in our model"):
//!
//! > "To implement an SWMR register, a process writes or reads all
//! > memories, and waits for a majority to respond. When reading, if p sees
//! > exactly one distinct non-⊥ value v across the memories, it returns v;
//! > otherwise, it returns ⊥."
//!
//! [`RepEngine`] packages that construction as a sub-state-machine usable
//! from any actor: start logical writes/reads/permission changes, feed it
//! every memory completion, consume [`RepEvent`]s. [`QuorumTracker`] is the
//! underlying vote counter. [`quorum::majority`] and [`quorum::tolerated`]
//! are the one statement of the quorum sizes every protocol in the
//! workspace counts to.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
pub mod quorum;

pub use engine::{RepEngine, RepEvent, RepId, RepResult};
pub use quorum::{QuorumStatus, QuorumTracker};

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::{
        LegalChange, MemEmbed, MemWire, MemoryActor, MemoryClient, PermSet, Permission, RegId,
        RegionId, RegionSpec,
    };
    use simnet::{Actor, ActorId, Context, EventKind, Simulation, Time};

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
        space: 1,
        a: 0,
        b: 0,
        c: 0,
    };

    /// Writes 7 to the replicated register, then reads it back.
    struct WriteThenRead {
        client: MemoryClient<u64, TMsg>,
        engine: RepEngine<u64, TMsg>,
        write_id: Option<RepId>,
        read_id: Option<RepId>,
        write_done_at: Option<Time>,
        read_result: Option<Option<u64>>,
        read_done_at: Option<Time>,
    }
    impl WriteThenRead {
        fn new(memories: Vec<ActorId>) -> Self {
            WriteThenRead {
                client: MemoryClient::new(),
                engine: RepEngine::new(memories),
                write_id: None,
                read_id: None,
                write_done_at: None,
                read_result: None,
                read_done_at: None,
            }
        }
    }
    impl Actor<TMsg> for WriteThenRead {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    self.write_id = Some(self.engine.write(ctx, &mut self.client, REGION, REG, 7));
                }
                EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } => {
                    let Some(c) = self.client.on_wire(ctx, from, wire) else {
                        return;
                    };
                    let Some(done) = self.engine.on_completion(c) else {
                        return;
                    };
                    if Some(done.id) == self.write_id {
                        assert_eq!(done.result, RepResult::WriteOk);
                        self.write_done_at = Some(ctx.now());
                        self.read_id = Some(self.engine.read(ctx, &mut self.client, REGION, REG));
                    } else if Some(done.id) == self.read_id {
                        let RepResult::ReadOk(v) = done.result else {
                            panic!("read failed")
                        };
                        self.read_result = Some(v);
                        self.read_done_at = Some(ctx.now());
                    }
                }
                _ => {}
            }
        }
    }

    fn memories(sim: &mut Simulation<TMsg>, m: usize, perm: Permission) -> Vec<ActorId> {
        (0..m)
            .map(|_| {
                sim.add(
                    MemoryActor::<u64, TMsg>::new(LegalChange::Static).with_region(
                        REGION,
                        RegionSpec::Space(1),
                        perm.clone(),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn write_read_round_trip_over_three_memories() {
        let mut sim: Simulation<TMsg> = Simulation::new(11);
        let mems = memories(&mut sim, 3, Permission::open());
        let a = sim.add(WriteThenRead::new(mems));
        sim.run_to_quiescence(Time::from_delays(100));
        let actor = sim.actor_as::<WriteThenRead>(a).unwrap();
        // A replicated write is one parallel round trip: 2 delays.
        assert_eq!(actor.write_done_at, Some(Time::from_delays(2)));
        assert_eq!(actor.read_result, Some(Some(7)));
        assert_eq!(actor.read_done_at, Some(Time::from_delays(4)));
    }

    #[test]
    fn tolerates_minority_memory_crashes() {
        // m = 5, f_M = 2: both ops still complete.
        let mut sim: Simulation<TMsg> = Simulation::new(11);
        let mems = memories(&mut sim, 5, Permission::open());
        sim.crash_at(mems[0], Time::ZERO);
        sim.crash_at(mems[4], Time::ZERO);
        let a = sim.add(WriteThenRead::new(mems));
        sim.run_to_quiescence(Time::from_delays(100));
        let actor = sim.actor_as::<WriteThenRead>(a).unwrap();
        assert_eq!(actor.read_result, Some(Some(7)));
    }

    #[test]
    fn majority_crash_blocks_without_wrong_answers() {
        // m = 3, 2 crashed: the write can never complete, but nothing lies.
        let mut sim: Simulation<TMsg> = Simulation::new(11);
        let mems = memories(&mut sim, 3, Permission::open());
        sim.crash_at(mems[0], Time::ZERO);
        sim.crash_at(mems[1], Time::ZERO);
        let a = sim.add(WriteThenRead::new(mems));
        sim.run_to_quiescence(Time::from_delays(1000));
        let actor = sim.actor_as::<WriteThenRead>(a).unwrap();
        assert_eq!(actor.write_done_at, None);
        assert_eq!(actor.read_result, None);
    }

    #[test]
    fn write_fails_cleanly_without_permission() {
        // Register writable only by a stranger: WriteFailed, not a hang.
        struct WriteOnly {
            client: MemoryClient<u64, TMsg>,
            engine: RepEngine<u64, TMsg>,
            result: Option<RepResult<u64>>,
        }
        impl Actor<TMsg> for WriteOnly {
            fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
                match ev {
                    EventKind::Start => {
                        self.engine.write(ctx, &mut self.client, REGION, REG, 1);
                    }
                    EventKind::Msg {
                        from,
                        msg: TMsg::Mem(wire),
                    } => {
                        if let Some(c) = self.client.on_wire(ctx, from, wire) {
                            if let Some(done) = self.engine.on_completion(c) {
                                self.result = Some(done.result);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut sim: Simulation<TMsg> = Simulation::new(11);
        let stranger_only = Permission {
            read: PermSet::Everybody,
            write: PermSet::Nobody,
            rw: PermSet::only([ActorId(99)]),
        };
        let mems = memories(&mut sim, 3, stranger_only);
        let a = sim.add(WriteOnly {
            client: MemoryClient::new(),
            engine: RepEngine::new(mems),
            result: None,
        });
        sim.run_to_quiescence(Time::from_delays(100));
        let actor = sim.actor_as::<WriteOnly>(a).unwrap();
        assert_eq!(actor.result, Some(RepResult::WriteFailed));
    }

    /// A (Byzantine-style) split write: different values to different
    /// replicas. Readers must get one of the values or ⊥ — never a third.
    struct SplitWriter {
        mems: Vec<ActorId>,
        client: MemoryClient<u64, TMsg>,
    }
    impl Actor<TMsg> for SplitWriter {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    for (i, mem) in self.mems.clone().into_iter().enumerate() {
                        let v = if i == 0 { 1 } else { 2 };
                        self.client.write(ctx, mem, REGION, REG, v);
                    }
                }
                EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } => {
                    let _ = self.client.on_wire(ctx, from, wire);
                }
                _ => {}
            }
        }
    }

    struct LateReader {
        client: MemoryClient<u64, TMsg>,
        engine: RepEngine<u64, TMsg>,
        result: Option<Option<u64>>,
    }
    impl Actor<TMsg> for LateReader {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    // Delay the read until the split writes have landed.
                    ctx.set_timer(simnet::Duration::from_delays(5), 0);
                }
                EventKind::Timer { .. } => {
                    self.engine.read(ctx, &mut self.client, REGION, REG);
                }
                EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } => {
                    if let Some(c) = self.client.on_wire(ctx, from, wire) {
                        if let Some(done) = self.engine.on_completion(c) {
                            let RepResult::ReadOk(v) = done.result else {
                                panic!()
                            };
                            self.result = Some(v);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn split_replica_write_reads_as_bot_or_one_value() {
        let mut sim: Simulation<TMsg> = Simulation::new(11);
        let mems = memories(&mut sim, 3, Permission::open());
        sim.add(SplitWriter {
            mems: mems.clone(),
            client: MemoryClient::new(),
        });
        let r = sim.add(LateReader {
            client: MemoryClient::new(),
            engine: RepEngine::new(mems),
            result: None,
        });
        sim.run_to_quiescence(Time::from_delays(100));
        let got = sim.actor_as::<LateReader>(r).unwrap().result.unwrap();
        // Replicas disagree (1 at one memory, 2 at two): the majority the
        // reader happens to contact yields either a unique value or ⊥.
        assert!(
            got.is_none() || got == Some(2) || got == Some(1),
            "impossible value {got:?}"
        );
    }
}
