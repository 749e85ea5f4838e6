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
mod window;

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
    use std::collections::{BTreeMap, BTreeSet};

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

    /// One step of a [`Steps`] script.
    enum Step {
        /// A replicated batched write.
        WriteMany(Vec<(RegId, u64)>),
        /// A replicated range read over `REGION`.
        Range(Option<RegionSpec>),
        /// A range read of the first memory alone, straight through the
        /// client, whose buffer already holds these rows.
        RawRange(Vec<(RegId, u64)>),
    }

    /// Runs `steps` one after the other, each once the one before it has
    /// finished, and records every outcome with its instant. A range
    /// read's rows are recorded, then handed back to the engine, so the
    /// next range read fills the same buffers.
    struct Steps {
        client: MemoryClient<u64, TMsg>,
        engine: RepEngine<u64, TMsg>,
        steps: std::collections::VecDeque<Step>,
        results: Vec<(Time, RepResult<u64>)>,
    }

    impl Steps {
        fn new(memories: Vec<ActorId>, steps: Vec<Step>) -> Steps {
            Steps {
                client: MemoryClient::new(),
                engine: RepEngine::new(memories),
                steps: steps.into(),
                results: Vec::new(),
            }
        }

        fn next(&mut self, ctx: &mut Context<'_, TMsg>) {
            let (client, engine) = (&mut self.client, &mut self.engine);
            match self.steps.pop_front() {
                Some(Step::WriteMany(writes)) => {
                    engine.write_many(ctx, client, REGION, writes.into());
                }
                Some(Step::Range(within)) => {
                    engine.read_range(ctx, client, REGION, within);
                }
                Some(Step::RawRange(into)) => {
                    let mem = engine.memories()[0];
                    client.read_range(ctx, mem, REGION, None, into);
                }
                None => {}
            }
        }
    }

    impl Actor<TMsg> for Steps {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => self.next(ctx),
                EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } => {
                    let Some(c) = self.client.on_wire(ctx, from, wire) else {
                        return;
                    };
                    let result = if self.engine.owns(c.op) {
                        match self.engine.on_completion(c) {
                            Some(done) => done.result,
                            None => return,
                        }
                    } else {
                        let rdma_sim::MemResponse::Range(rows) = c.resp else {
                            panic!("the raw read was refused")
                        };
                        RepResult::RangeOk(rows)
                    };
                    self.results.push((ctx.now(), result.clone()));
                    if let RepResult::RangeOk(rows) = result {
                        self.engine.recycle_rows(rows);
                    }
                    self.next(ctx);
                }
                _ => {}
            }
        }
    }

    /// Runs `steps` over `m` memories, crashing those at `crashed` from
    /// the start, and returns the outcomes.
    fn run_steps(
        m: usize,
        crashed: &[usize],
        perm: Permission,
        steps: Vec<Step>,
    ) -> Vec<(Time, RepResult<u64>)> {
        let mut sim: Simulation<TMsg> = Simulation::new(11);
        let mems = memories(&mut sim, m, perm);
        for &i in crashed {
            sim.crash_at(mems[i], Time::ZERO);
        }
        let a = sim.add(Steps::new(mems, steps));
        sim.run_to_quiescence(Time::from_delays(100));
        sim.actor_as::<Steps>(a).unwrap().results.clone()
    }

    #[test]
    fn write_many_completes_at_a_majority_in_one_round_trip() {
        let rows: Vec<(RegId, u64)> = (0..5).map(|b| (RegId::one(1, b), 10 + b)).collect();
        let out = run_steps(
            3,
            &[2],
            Permission::open(),
            vec![Step::WriteMany(rows.clone()), Step::Range(None)],
        );
        // One round trip whatever the batch carries, although one memory
        // never answers; every row is there for a majority read.
        assert_eq!(out[0], (Time::from_delays(2), RepResult::WriteOk));
        assert_eq!(out[1], (Time::from_delays(4), RepResult::RangeOk(rows)));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn write_many_fails_at_a_majority_of_naks() {
        // One row outside the region: every memory refuses the whole
        // batch, and nothing of it was written.
        let outside = RegId::one(2, 0);
        let batch = vec![(RegId::one(1, 0), 1), (outside, 2)];
        let out = run_steps(
            3,
            &[],
            Permission::open(),
            vec![Step::WriteMany(batch), Step::Range(None)],
        );
        assert_eq!(out[0].1, RepResult::WriteFailed);
        assert_eq!(out[1].1, RepResult::RangeOk(Vec::new()));
        // No write permission: the same, with one memory crashed (two
        // naks are a majority of three).
        let stranger_only = Permission {
            read: PermSet::Everybody,
            write: PermSet::Nobody,
            rw: PermSet::only([ActorId(99)]),
        };
        let out = run_steps(
            3,
            &[0],
            stranger_only,
            vec![Step::WriteMany(vec![(RegId::one(1, 0), 1); 2])],
        );
        assert_eq!(out, vec![(Time::from_delays(2), RepResult::WriteFailed)]);
    }

    /// A range read's rows land in a buffer an earlier read filled and the
    /// reader handed back: the answer holds only what the memories hold
    /// now and what the read asks for — also when the buffer arrives at a
    /// memory still holding rows.
    #[test]
    fn a_recycled_range_buffer_never_returns_rows_from_an_earlier_read() {
        let all: Vec<(RegId, u64)> = (0..6).map(|b| (RegId::new(1, 0, b, 0), 100 + b)).collect();
        let first_two = Some(RegionSpec::Pattern {
            space: 1,
            a: Some(rdma_sim::Window::exact(0)),
            b: Some(rdma_sim::Window::span(0, 2)),
            c: Some(0),
        });
        let junk = vec![(RegId::new(1, 0, 9, 0), 999), (RegId::new(1, 0, 1, 0), 7)];
        let out = run_steps(
            3,
            &[],
            Permission::open(),
            vec![
                Step::WriteMany(all.clone()),
                Step::Range(None),
                Step::Range(first_two),
                Step::Range(Some(RegionSpec::Space(2))),
                Step::RawRange(junk),
            ],
        );
        let rows: Vec<_> = out.into_iter().map(|(_, r)| r).collect();
        assert_eq!(
            rows,
            vec![
                RepResult::WriteOk,
                RepResult::RangeOk(all.clone()),
                RepResult::RangeOk(all[..2].to_vec()),
                RepResult::RangeOk(Vec::new()),
                RepResult::RangeOk(all),
            ]
        );
    }

    /// Drives two engines over one shared memory client — so each sees
    /// gaps in the op ids it gets — against three memories, one of them
    /// crashed, and checks engine `a` against ordered maps after every
    /// completion: `owns` answers for every op it issued, each logical op
    /// finishes once, and `in_flight` counts what has not. A ring of 8
    /// ids makes the crashed memory's never-answered ops age into the
    /// side map all the time.
    struct SharedClient {
        client: MemoryClient<u64, TMsg>,
        a: RepEngine<u64, TMsg>,
        b: RepEngine<u64, TMsg>,
        rng: u64,
        /// Memory ops issued through the client so far (its op ids are
        /// `1..=issued`).
        issued: u64,
        /// `a`'s memory ops not yet answered, and their logical op.
        children: BTreeMap<u64, RepId>,
        /// `a`'s logical ops not yet finished.
        pending: BTreeSet<RepId>,
        started: usize,
        finished: usize,
    }

    impl SharedClient {
        fn draw(&mut self, bound: u64) -> u64 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng % bound
        }

        /// Starts one or two logical ops on either engine.
        fn issue(&mut self, ctx: &mut Context<'_, TMsg>) {
            for _ in 0..1 + self.draw(2) {
                if self.started >= 400 {
                    return;
                }
                let on_a = self.draw(3) > 0;
                let write = self.draw(2) == 0;
                let engine = if on_a { &mut self.a } else { &mut self.b };
                let id = if write {
                    engine.write(ctx, &mut self.client, REGION, REG, 7)
                } else {
                    engine.read(ctx, &mut self.client, REGION, REG)
                };
                let m = engine.memories().len() as u64;
                if on_a {
                    self.started += 1;
                    self.pending.insert(id);
                    for op in self.issued + 1..=self.issued + m {
                        self.children.insert(op, id);
                    }
                }
                self.issued += m;
            }
        }

        fn check(&self) {
            assert_eq!(self.a.in_flight(), self.pending.len());
            // Every op still owed an answer, and the newest ops either side.
            let recent = self.issued.saturating_sub(24)..=self.issued + 3;
            for op in self.children.keys().copied().chain(recent) {
                let owned = self.children.contains_key(&op);
                assert_eq!(self.a.owns(rdma_sim::OpId(op)), owned, "op {op}");
            }
        }
    }

    impl Actor<TMsg> for SharedClient {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => self.issue(ctx),
                EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } => {
                    let Some(c) = self.client.on_wire(ctx, from, wire) else {
                        return;
                    };
                    if self.a.owns(c.op) {
                        let parent = self.children.remove(&c.op.0).expect("a's op");
                        if let Some(done) = self.a.on_completion(c) {
                            assert_eq!(done.id, parent);
                            assert!(
                                self.pending.remove(&done.id),
                                "{:?} finished twice",
                                done.id
                            );
                            self.finished += 1;
                        }
                    } else {
                        assert!(!self.children.contains_key(&c.op.0));
                        assert!(self.b.owns(c.op));
                        self.b.on_completion(c);
                    }
                    self.check();
                    self.issue(ctx);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn windowed_tables_answer_as_ordered_maps_over_a_shared_client() {
        for seed in 1..=8u64 {
            let mut sim: Simulation<TMsg> = Simulation::new(seed);
            let mems = memories(&mut sim, 3, Permission::open());
            sim.crash_at(mems[2], Time::ZERO);
            let actor = sim.add(SharedClient {
                client: MemoryClient::new(),
                a: RepEngine::with_span(mems.clone(), 8),
                b: RepEngine::with_span(mems, 8),
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                issued: 0,
                children: BTreeMap::new(),
                pending: BTreeSet::new(),
                started: 0,
                finished: 0,
            });
            sim.run_to_quiescence(Time::from_delays(100_000));
            let run = sim.actor_as::<SharedClient>(actor).unwrap();
            assert_eq!(run.started, 400, "seed {seed}");
            assert_eq!(run.finished, 400, "a majority answers every op");
            assert!(run.pending.is_empty() && run.a.in_flight() == 0);
            // What is left is exactly the crashed memory's ops: one per
            // logical op.
            assert_eq!(run.children.len(), 400);
            run.check();
        }
    }
}
