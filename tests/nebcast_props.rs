//! Experiment E8 — Lemma 4.1: the three properties of non-equivocating
//! broadcast, under honest broadcasters, an equivocating Byzantine
//! broadcaster, memory crashes, and randomized schedules (proptest).

use std::collections::VecDeque;
use std::sync::Arc;

use agreement::adversary::{Act, Scripted};
use agreement::nebcast::{self, NebEngine, NebSlot};
use agreement::paxos::Dest;
use agreement::trusted::{RbPayload, SetupEvidence, TWire};
use agreement::types::{Msg, Pid, RegVal, Value};
use proptest::prelude::*;
use rdma_sim::MemoryClient;
use sigsim::{SigAuthority, SigVerifier, Signer};
use simnet::{Actor, ActorId, Context, DelayModel, Duration, EventKind, Simulation, Time};

/// When a [`NebTester`] makes one of its focus changes.
#[derive(Clone, Copy)]
enum When {
    /// Once it has delivered from this sender.
    Delivered(Pid),
    /// At its first handler at or after this instant.
    At(Time),
}

/// A minimal honest participant: broadcasts a scripted list of values and
/// records everything it delivers; it makes the focus changes of
/// `refocus` in order, each once it is due.
struct NebTester {
    engine: NebEngine,
    client: MemoryClient<RegVal, Msg>,
    to_broadcast: Vec<Value>,
    delivered: Vec<(Pid, u64, Value)>,
    refocus: VecDeque<(When, Pid)>,
}

impl NebTester {
    fn new(
        me: Pid,
        procs: Vec<Pid>,
        mems: Vec<ActorId>,
        signer: Signer,
        verifier: SigVerifier,
        to_broadcast: Vec<Value>,
    ) -> NebTester {
        NebTester {
            engine: NebEngine::new(me, procs, mems, signer, verifier),
            client: MemoryClient::new(),
            to_broadcast,
            delivered: Vec::new(),
            refocus: VecDeque::new(),
        }
    }

    /// The tester probing `focus`'s row `depth` slots ahead.
    fn pipelined(mut self, depth: usize, focus: Pid) -> NebTester {
        self.engine.set_pipeline_depth(depth);
        self.engine.set_focus(focus);
        self
    }

    /// Records the deliveries, then sends the handler's batched copies.
    fn drain(&mut self, ctx: &mut Context<'_, Msg>) {
        while let Some(d) = self.engine.next_delivery() {
            if let RbPayload::Setup { value, .. } = d.slot.wire.payload {
                self.delivered.push((d.from, d.slot.k, value));
            }
        }
        self.engine.post(ctx, &mut self.client);
        while let Some(&(when, to)) = self.refocus.front() {
            let due = match when {
                When::Delivered(from) => self.delivered.iter().any(|&(f, _, _)| f == from),
                When::At(at) => ctx.now() >= at,
            };
            if !due {
                break;
            }
            self.engine.set_focus(to);
            self.refocus.pop_front();
        }
    }
}

/// The wire a [`NebTester`] broadcasts for `value`.
fn setup_wire(value: Value) -> TWire {
    TWire {
        dest: Dest::All,
        payload: RbPayload::Setup {
            value,
            evidence: SetupEvidence::default(),
        },
        history: Vec::new(),
    }
}

impl Actor<Msg> for NebTester {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                for v in self.to_broadcast.clone() {
                    self.engine.broadcast(ctx, &mut self.client, setup_wire(v));
                }
                self.engine.poll(ctx, &mut self.client);
                ctx.set_timer(Duration::from_delays(1), 0);
            }
            EventKind::Timer { .. } => {
                self.engine.poll(ctx, &mut self.client);
                self.drain(ctx);
                ctx.set_timer(Duration::from_delays(1), 0);
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                if let Some(c) = self.client.on_wire(ctx, from, wire) {
                    self.engine.on_completion(ctx, &mut self.client, c);
                    self.drain(ctx);
                }
            }
            _ => {}
        }
    }
}

/// Property 1: a correct broadcaster's messages are delivered by every
/// correct process, in sequence order.
#[test]
fn property_one_correct_broadcasts_reach_everyone() {
    let (n, m) = (3u32, 3u32);
    let mut sim: Simulation<Msg> = Simulation::new(5);
    let procs: Vec<Pid> = (0..n).map(ActorId).collect();
    let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
    let mut auth = SigAuthority::new(1);
    for i in 0..n {
        let signer = auth.register(ActorId(i));
        let vals: Vec<Value> = (0..4).map(|k| Value(100 * i as u64 + k)).collect();
        sim.add(NebTester::new(
            ActorId(i),
            procs.clone(),
            mems.clone(),
            signer,
            auth.verifier(),
            vals,
        ));
    }
    for _ in 0..m {
        sim.add(nebcast::memory_actor(&procs));
    }
    sim.run_until(Time::from_delays(400), |s| {
        (0..n).all(|i| s.actor_as::<NebTester>(ActorId(i)).unwrap().delivered.len() >= 12)
    });
    for i in 0..n {
        let t = sim.actor_as::<NebTester>(ActorId(i)).unwrap();
        assert_eq!(
            t.delivered.len(),
            12,
            "process {i} delivered {:?}",
            t.delivered
        );
        // Per-sender sequence order.
        for q in 0..n {
            let ks: Vec<u64> = t
                .delivered
                .iter()
                .filter(|(f, _, _)| *f == ActorId(q))
                .map(|(_, k, _)| *k)
                .collect();
            assert_eq!(ks, vec![1, 2, 3, 4], "process {i} from {q}");
        }
    }
}

/// Property 3: deliveries only happen for values the sender actually
/// broadcast (nobody can inject into another's row: permissions).
#[test]
fn property_three_no_spoofed_deliveries() {
    let (n, m) = (2u32, 3u32);
    let mut sim: Simulation<Msg> = Simulation::new(9);
    let procs: Vec<Pid> = (0..n).map(ActorId).collect();
    let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
    let mut auth = SigAuthority::new(2);
    let s0 = auth.register(ActorId(0));
    let _s1 = auth.register(ActorId(1));
    sim.add(NebTester::new(
        ActorId(0),
        procs.clone(),
        mems.clone(),
        s0,
        auth.verifier(),
        vec![Value(7)],
    ));
    // Process 1 broadcasts nothing; it only listens.
    sim.add(NebTester::new(
        ActorId(1),
        procs.clone(),
        mems.clone(),
        _s1,
        auth.verifier(),
        vec![],
    ));
    for _ in 0..m {
        sim.add(nebcast::memory_actor(&procs));
    }
    sim.run_until(Time::from_delays(100), |s| {
        !s.actor_as::<NebTester>(ActorId(1))
            .unwrap()
            .delivered
            .is_empty()
    });
    let t1 = sim.actor_as::<NebTester>(ActorId(1)).unwrap();
    assert_eq!(t1.delivered, vec![(ActorId(0), 1, Value(7))]);
}

/// Slots compare by value: an audit copy holding the broadcaster's slot
/// rebuilt field by field into a fresh allocation — as a memory keeping
/// its own copy, or an auditor that re-serialised it, would hold — is the
/// same slot, not an equivocation, under the per-slot audit (depth 1) and
/// the shared column audit (pipelined) alike. Auditing by allocation
/// instead would block an honest broadcaster here.
#[test]
fn an_audit_copy_equal_by_value_in_a_fresh_allocation_is_no_equivocation() {
    for depth in [1, 4] {
        let (n, m) = (3u32, 3u32);
        let mut sim: Simulation<Msg> = Simulation::new(11);
        let procs: Vec<Pid> = (0..n).map(ActorId).collect();
        let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
        let mut auth = SigAuthority::new(4);
        let s0 = auth.register(ActorId(0));
        let s2 = auth.register(ActorId(2));
        let wire = setup_wire(Value(7));
        let sig = s0.sign(&wire.sign_view(1));
        let copy = RegVal::Neb(Arc::new(NebSlot { k: 1, wire, sig }));
        let verifier = auth.verifier();
        let (p0, p1, p2) = (ActorId(0), ActorId(1), ActorId(2));
        sim.add(NebTester::new(
            p0,
            procs.clone(),
            mems.clone(),
            s0,
            verifier.clone(),
            vec![Value(7)],
        ));
        // p1 writes the copy into its audit slot for p0's k = 1 on every
        // memory at Start, and does nothing else.
        let audit_copy = Act::write_all(
            &mems,
            nebcast::row_region(p1),
            nebcast::slot_reg(p1, 1, p0),
            copy,
        );
        sim.add(Scripted::new("RowWriter", p1, audit_copy, Vec::new()));
        let auditor = NebTester::new(p2, procs.clone(), mems.clone(), s2, verifier, vec![]);
        sim.add(auditor.pipelined(depth, p0));
        for _ in 0..m {
            sim.add(nebcast::memory_actor(&procs));
        }
        sim.run_until(Time::from_delays(100), |s| {
            !s.actor_as::<NebTester>(p2).unwrap().delivered.is_empty()
        });
        let t2 = sim.actor_as::<NebTester>(p2).unwrap();
        assert_eq!(t2.engine.blocked_at(p0), None, "depth {depth}");
        assert_eq!(t2.delivered, vec![(p0, 1, Value(7))], "depth {depth}");
    }
}

/// The pipeline depths the properties run at, each with the broadcaster
/// focused: 1 is the classic head-of-line loop, 4 and 8 the shared row
/// probe and column audit.
const DEPTHS: [usize; 3] = [1, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 2 under attack: an equivocator split-writes two signed
    /// values across replicas; no two correct processes may ever deliver
    /// different values for the same (sender, k) — under any seed, split
    /// point, link jitter and pipeline depth. At depths 4 and 8 each
    /// listener moves its focus from the equivocator to process 1 `away`
    /// delays in, and back `back` delays later, so the copies a refocus
    /// leaves in flight finish through the shared audit beside a row that
    /// is read.
    #[test]
    fn property_two_no_divergent_deliveries(
        seed in 0u64..1000,
        split in 1usize..3,
        jitter in 1u64..4,
        away in 1u64..12,
        back in 1u64..8,
    ) {
        for depth in DEPTHS {
            let (n, m) = (3u32, 3u32);
            let mut sim: Simulation<Msg> = Simulation::new(seed);
            sim.set_default_delay(DelayModel::Uniform {
                lo: Duration::from_delays(1),
                hi: Duration::from_delays(jitter),
            });
            let procs: Vec<Pid> = (0..n).map(ActorId).collect();
            let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
            let mut auth = SigAuthority::new(seed ^ 0xE0);
            let byz_signer = auth.register(ActorId(0));
            // Process 0 is the equivocator; 1 and 2 are honest listeners.
            sim.add(Scripted::neb_equivocator(
                ActorId(0),
                mems.clone(),
                split,
                Value(111),
                Value(222),
                byz_signer,
            ));
            for i in 1..n {
                let signer = auth.register(ActorId(i));
                let tester = NebTester::new(
                    ActorId(i),
                    procs.clone(),
                    mems.clone(),
                    signer,
                    auth.verifier(),
                    vec![],
                );
                let mut tester = tester.pipelined(depth, ActorId(0));
                if depth > 1 {
                    let away = Time::from_delays(away);
                    tester.refocus.push_back((When::At(away), ActorId(1)));
                    let back = away + Duration::from_delays(back);
                    tester.refocus.push_back((When::At(back), ActorId(0)));
                }
                sim.add(tester);
            }
            for _ in 0..m {
                sim.add(nebcast::memory_actor(&procs));
            }
            sim.run_to_quiescence(Time::from_delays(150));
            // Collect what the two honest processes delivered from the
            // equivocator at k = 1.
            let mut seen = Vec::new();
            for i in 1..n {
                let t = sim.actor_as::<NebTester>(ActorId(i)).unwrap();
                for (f, k, v) in &t.delivered {
                    if *f == ActorId(0) && *k == 1 {
                        seen.push(*v);
                    }
                }
            }
            // Lemma 4.1 property 2: all deliveries (if any) agree.
            prop_assert!(seen.windows(2).all(|w| w[0] == w[1]), "depth {}: diverged: {:?}", depth, seen);
        }
    }

    /// Property 1 resilience: minority memory crashes never block honest
    /// broadcast delivery, at any pipeline depth. A pipelined engine
    /// delivers its focus's broadcasts, so at depths 4 and 8 each process
    /// moves its focus from process 0 to process 1 once process 0's
    /// broadcast is delivered.
    #[test]
    fn property_one_with_memory_crashes(seed in 0u64..500, dead in 0usize..2) {
        for depth in DEPTHS {
            let (n, m) = (2u32, 5u32);
            let mut sim: Simulation<Msg> = Simulation::new(seed);
            let procs: Vec<Pid> = (0..n).map(ActorId).collect();
            let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
            let mut auth = SigAuthority::new(seed);
            for i in 0..n {
                let signer = auth.register(ActorId(i));
                let tester = NebTester::new(
                    ActorId(i),
                    procs.clone(),
                    mems.clone(),
                    signer,
                    auth.verifier(),
                    vec![Value(10 + i as u64)],
                );
                // Each focuses on process 0's row; at depth 1 process 1's
                // row takes the head-slot path beside it.
                let mut tester = tester.pipelined(depth, ActorId(0));
                if depth > 1 {
                    let delivered = When::Delivered(ActorId(0));
                    tester.refocus.push_back((delivered, ActorId(1)));
                }
                sim.add(tester);
            }
            for _ in 0..m {
                sim.add(nebcast::memory_actor(&procs));
            }
            // Crash up to f_M = 2 memories, chosen by the seed.
            for k in 0..=dead {
                sim.crash_at(mems[(seed as usize + k) % m as usize], Time::ZERO);
            }
            sim.run_until(Time::from_delays(300), |s| {
                (0..n).all(|i| s.actor_as::<NebTester>(ActorId(i)).unwrap().delivered.len() >= 2)
            });
            for i in 0..n {
                let t = sim.actor_as::<NebTester>(ActorId(i)).unwrap();
                prop_assert_eq!(
                    t.delivered.len(), 2, "depth {}: process {} delivered {:?}", depth, i, &t.delivered
                );
            }
        }
    }
}
