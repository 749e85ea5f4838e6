//! Theorem 6.1, executable: **no 2-deciding consensus exists in shared
//! memory with static permissions** — dynamic permissions are necessary,
//! not just convenient.
//!
//! The proof constructs an adversarial (but legal, asynchronous) schedule
//! against *any* algorithm whose process `p` decides after two delays. Two
//! delays buy exactly one parallel batch of memory operations, issued
//! without awaiting any response; let `W` be the registers `p` writes and
//! `R` those it reads (`W ∩ R = ∅`). The adversary:
//!
//! 1. lets `p`'s *reads* complete but delays its *writes* indefinitely
//!    (legal: asynchronous operations may take arbitrarily long);
//! 2. `p` sees only initial values, and — being 2-deciding — decides its
//!    own value `v`;
//! 3. now runs `p′` alone: with static permissions nothing distinguishes
//!    this from a solo execution, so `p′` eventually decides its own
//!    `v′ ≠ v`;
//! 4. finally delivers `p`'s stale writes. Agreement is violated.
//!
//! [`StrawmanActor`] is the canonical 2-deciding shape (write own flag,
//! read the others, decide if all ⊥); [`run_strawman_demo`] executes the
//! schedule above and reports the violation. The companion
//! [`run_protected_contrast`] replays the *same* adversarial delay against
//! Protected Memory Paxos: the late write arrives **after** the new
//! leader's `changePermission`, gets nak'd by the memory, and agreement
//! survives — the paper's §5.1 mechanism, demonstrated on the §6 schedule.

use std::collections::BTreeMap;

use rdma_sim::{
    LegalChange, MemRequest, MemResponse, MemWire, MemoryActor, MemoryClient, Permission, RegId,
    RegionId, RegionSpec,
};
use simnet::{Actor, ActorId, Context, Duration, EventKind, Simulation, Time};

use crate::protected::{self, ProtectedPaxosActor};
use crate::types::{spaces, Instance, Msg, Pid, RegVal, Value};

/// Region of process `p`'s flag (SWMR, static).
pub fn flag_region(p: Pid) -> RegionId {
    RegionId(0x7000 + p.0)
}

/// The flag register of process `p`.
pub fn flag_reg(p: Pid) -> RegId {
    RegId::one(spaces::LB, p.0 as u64)
}

/// Builds the static-permission memory hosting one process's flag.
pub fn flag_memory(procs: &[Pid]) -> MemoryActor<RegVal, Msg> {
    let mut mem = MemoryActor::new(LegalChange::Static);
    for &p in procs {
        mem.add_region(
            flag_region(p),
            RegionSpec::Pattern {
                space: spaces::LB,
                a: Some(p.0 as u64),
                b: None,
                c: None,
            },
            Permission::exclusive_writer(p),
        );
    }
    mem
}

/// A 2-deciding protocol shape in static-permission shared memory: at its
/// start time it issues, in one step, a write of its own flag and reads of
/// everyone else's; if every read returns ⊥ it decides its own value.
///
/// (Each flag lives on its own memory so the batch respects the
/// one-outstanding-op-per-memory rule and completes in two delays.)
#[derive(Debug)]
pub struct StrawmanActor {
    me: Pid,
    peers: Vec<Pid>,
    /// flag\[q\] is hosted on `memory_of[q]`.
    memory_of: BTreeMap<Pid, ActorId>,
    input: Value,
    start_after: Duration,
    client: MemoryClient<RegVal, Msg>,
    reads_pending: usize,
    saw_nonbot: bool,
    /// The decision, if reached.
    pub decided: Option<Value>,
    /// When the decision happened.
    pub decided_at: Option<Time>,
}

impl StrawmanActor {
    /// Creates the actor; it proposes `start_after` its Start event.
    pub fn new(
        me: Pid,
        peers: Vec<Pid>,
        memory_of: BTreeMap<Pid, ActorId>,
        input: Value,
        start_after: Duration,
    ) -> StrawmanActor {
        StrawmanActor {
            me,
            peers,
            memory_of,
            input,
            start_after,
            client: MemoryClient::new(),
            reads_pending: 0,
            saw_nonbot: false,
            decided: None,
            decided_at: None,
        }
    }
}

impl Actor<Msg> for StrawmanActor {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                ctx.set_timer(self.start_after, 0);
            }
            EventKind::Timer { .. } => {
                // One step: write own flag and read all others, no waiting.
                let own_mem = self.memory_of[&self.me];
                self.client.write(
                    ctx,
                    own_mem,
                    flag_region(self.me),
                    flag_reg(self.me),
                    RegVal::LbFlag(self.input),
                );
                for q in self.peers.clone() {
                    if q == self.me {
                        continue;
                    }
                    self.reads_pending += 1;
                    self.client
                        .read(ctx, self.memory_of[&q], flag_region(q), flag_reg(q));
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let Some(c) = self.client.on_wire(ctx, from, wire) else {
                    return;
                };
                // Non-Value responses are the write ack (or a nak —
                // impossible here).
                if let MemResponse::Value(v) = c.resp {
                    self.reads_pending -= 1;
                    if v.is_some() {
                        self.saw_nonbot = true;
                    }
                    if self.reads_pending == 0 && !self.saw_nonbot {
                        // All ⊥: uncontended, decide own value — the
                        // only way any algorithm can be 2-deciding.
                        self.decided = Some(self.input);
                        self.decided_at = Some(ctx.now());
                        ctx.mark_decided();
                    }
                }
            }
            EventKind::Msg { .. } => {}
            EventKind::LeaderChange { .. } => {}
        }
    }
}

/// Result of one lower-bound schedule run.
#[derive(Clone, Debug)]
pub struct DemoReport {
    /// Per-process decisions.
    pub decisions: Vec<(Pid, Option<Value>)>,
    /// Whether two processes decided different values.
    pub agreement_violated: bool,
    /// Delay (in network delays) after which the first process decided.
    pub first_decision_delays: Option<f64>,
}

fn delayed_writes_hook(victim: Pid, delay: Duration) -> simnet::DelayHook<Msg> {
    Box::new(move |_, from, _, m| {
        if from != victim {
            return None;
        }
        match m {
            Msg::Mem(MemWire::Req {
                req: MemRequest::Write { .. },
                ..
            }) => Some(delay),
            _ => None,
        }
    })
}

/// Executes the Theorem 6.1 schedule against the strawman: returns a report
/// in which **agreement is violated** — as it must be for any 2-deciding
/// static-permission algorithm.
pub fn run_strawman_demo(seed: u64) -> DemoReport {
    let mut sim: Simulation<Msg> = Simulation::new(seed);
    let p0 = ActorId(0);
    let p1 = ActorId(1);
    let procs = vec![p0, p1];
    let memory_of: BTreeMap<Pid, ActorId> = [(p0, ActorId(2)), (p1, ActorId(3))].into();
    sim.add(StrawmanActor::new(
        p0,
        procs.clone(),
        memory_of.clone(),
        Value(0),
        Duration::ZERO,
    ));
    sim.add(StrawmanActor::new(
        p1,
        procs.clone(),
        memory_of.clone(),
        Value(1),
        Duration::from_delays(10), // p′ starts after p has decided
    ));
    sim.add(flag_memory(&procs));
    sim.add(flag_memory(&procs));
    // The adversary: p0's writes hang in the network for a long time.
    sim.set_delay_hook(delayed_writes_hook(p0, Duration::from_delays(100)));
    sim.run_to_quiescence(Time::from_delays(300));
    let decisions: Vec<(Pid, Option<Value>)> = [p0, p1]
        .iter()
        .map(|&p| (p, sim.actor_as::<StrawmanActor>(p).unwrap().decided))
        .collect();
    let reached: Vec<Value> = decisions.iter().filter_map(|(_, d)| *d).collect();
    DemoReport {
        agreement_violated: reached.len() == 2 && reached[0] != reached[1],
        first_decision_delays: sim.metrics().first_decision_delays(),
        decisions,
    }
}

/// Replays the same adversarial write-delay against Protected Memory Paxos:
/// the delayed write arrives after the takeover's `changePermission` and is
/// nak'd, so agreement holds — dynamic permissions close the Theorem 6.1
/// gap exactly as §5.1 claims.
pub fn run_protected_contrast(seed: u64) -> DemoReport {
    let mut sim: Simulation<Msg> = Simulation::new(seed);
    let procs: Vec<Pid> = vec![ActorId(0), ActorId(1)];
    let mems: Vec<ActorId> = vec![ActorId(2), ActorId(3), ActorId(4)];
    for i in 0..2u32 {
        sim.add(ProtectedPaxosActor::new(
            ActorId(i),
            procs.clone(),
            mems.clone(),
            Instance(0),
            Value(i as u64),
            ActorId(0),
            1,
            Duration::from_delays(25),
        ));
    }
    for _ in 0..3 {
        sim.add(protected::memory_actor(ActorId(0)));
    }
    sim.set_delay_hook(delayed_writes_hook(ActorId(0), Duration::from_delays(100)));
    // p1 takes over while p0's (delayed) fast-path write is in flight.
    sim.announce_leader(Time::from_delays(5), &procs, ActorId(1));
    sim.run_to_quiescence(Time::from_delays(1000));
    let decisions: Vec<(Pid, Option<Value>)> = procs
        .iter()
        .map(|&p| {
            (
                p,
                sim.actor_as::<ProtectedPaxosActor>(p).unwrap().decision(),
            )
        })
        .collect();
    let reached: Vec<Value> = decisions.iter().filter_map(|(_, d)| *d).collect();
    DemoReport {
        agreement_violated: reached.windows(2).any(|w| w[0] != w[1]),
        first_decision_delays: sim.metrics().first_decision_delays(),
        decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strawman_violates_agreement_under_theorem_schedule() {
        let report = run_strawman_demo(7);
        assert!(report.agreement_violated, "{report:?}");
        // And it really was 2-deciding, which is what makes it vulnerable.
        assert_eq!(report.first_decision_delays, Some(2.0));
    }

    #[test]
    fn strawman_decides_correctly_without_adversary() {
        // Sanity: solo proposer, no delay hook → decides own value in 2.
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let p0 = ActorId(0);
        let p1 = ActorId(1);
        let procs = vec![p0, p1];
        let memory_of: BTreeMap<Pid, ActorId> = [(p0, ActorId(2)), (p1, ActorId(3))].into();
        sim.add(StrawmanActor::new(
            p0,
            procs.clone(),
            memory_of.clone(),
            Value(0),
            Duration::ZERO,
        ));
        sim.add(crate::adversary::Scripted::silent());
        sim.add(flag_memory(&procs));
        sim.add(flag_memory(&procs));
        sim.run_to_quiescence(Time::from_delays(50));
        let a = sim.actor_as::<StrawmanActor>(p0).unwrap();
        assert_eq!(a.decided, Some(Value(0)));
        assert_eq!(a.decided_at, Some(Time::from_delays(2)));
    }

    #[test]
    fn protected_paxos_survives_the_same_schedule() {
        let report = run_protected_contrast(7);
        assert!(!report.agreement_violated, "{report:?}");
        // Someone still decides (liveness after takeover).
        assert!(
            report.decisions.iter().any(|(_, d)| d.is_some()),
            "{report:?}"
        );
    }

    #[test]
    fn contrast_is_deterministic_per_seed() {
        let a = run_strawman_demo(3);
        let b = run_strawman_demo(3);
        assert_eq!(a.agreement_violated, b.agreement_violated);
        assert_eq!(a.first_decision_delays, b.first_decision_delays);
    }
}
