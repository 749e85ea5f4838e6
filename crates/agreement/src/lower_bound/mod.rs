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
    RegionId, RegionSpec, Window,
};
use simnet::{Actor, ActorId, Context, Duration, EventKind, Simulation, Time};

use crate::harness::{self, Scenario};
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
                a: Some(Window::exact(p.0 as u64)),
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

/// Process `i` of the scenario's strawman pair proposes `Value(i)`, `10·i`
/// delays after its start (so `p′` starts after `p` has decided), its
/// flag on memory `i`.
fn strawman_cluster(scenario: &Scenario) -> Simulation<Msg> {
    let memory_of: BTreeMap<Pid, ActorId> =
        scenario.procs().into_iter().zip(scenario.mems()).collect();
    scenario.cluster(
        |i, procs, _| {
            let (me, input) = (procs[i], Value(i as u64));
            let start_after = Duration::from_delays(10 * i as u64);
            Box::new(StrawmanActor::new(
                me,
                procs,
                memory_of.clone(),
                input,
                start_after,
            ))
        },
        scenario.memories(flag_memory),
    )
}

/// What a finished demo run decided, read off each process's `A`.
fn demo_report<A: 'static>(
    sim: &Simulation<Msg>,
    procs: &[Pid],
    decision: impl Fn(&A) -> Option<Value>,
) -> DemoReport {
    let decided = harness::decisions(sim, procs, decision);
    let reached: Vec<Value> = decided.iter().flatten().copied().collect();
    DemoReport {
        agreement_violated: reached.windows(2).any(|w| w[0] != w[1]),
        first_decision_delays: sim.metrics().first_decision_delays(),
        decisions: procs.iter().copied().zip(decided).collect(),
    }
}

/// Executes the Theorem 6.1 schedule against the strawman: returns a report
/// in which **agreement is violated** — as it must be for any 2-deciding
/// static-permission algorithm.
pub fn run_strawman_demo(seed: u64) -> DemoReport {
    let s = Scenario::common_case(2, 2, seed);
    let mut sim = strawman_cluster(&s);
    // The adversary: p0's writes hang in the network for a long time.
    sim.set_delay_hook(delayed_writes_hook(ActorId(0), Duration::from_delays(100)));
    sim.run_to_quiescence(Time::from_delays(300));
    demo_report(&sim, &s.procs(), |a: &StrawmanActor| a.decided)
}

/// Replays the same adversarial write-delay against Protected Memory Paxos:
/// the delayed write arrives after the takeover's `changePermission` and is
/// nak'd, so agreement holds — dynamic permissions close the Theorem 6.1
/// gap exactly as §5.1 claims.
pub fn run_protected_contrast(seed: u64) -> DemoReport {
    let s = Scenario::common_case(2, 3, seed);
    let mut sim = s.cluster(
        |i, procs, mems| {
            let (me, input, retry) = (procs[i], Value(i as u64), Duration::from_delays(25));
            let leader = ActorId(0);
            let a = ProtectedPaxosActor::new(me, procs, mems, Instance(0), input, leader, 1, retry);
            Box::new(a)
        },
        s.memories(|_| protected::memory_actor(ActorId(0))),
    );
    sim.set_delay_hook(delayed_writes_hook(ActorId(0), Duration::from_delays(100)));
    // p1 takes over while p0's (delayed) fast-path write is in flight.
    sim.announce_leader(Time::from_delays(5), &s.procs(), ActorId(1));
    sim.run_to_quiescence(Time::from_delays(1000));
    demo_report(&sim, &s.procs(), ProtectedPaxosActor::decision)
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
        let mut s = Scenario::common_case(2, 2, 1);
        s.byz_silent = vec![1];
        let mut sim = strawman_cluster(&s);
        sim.run_to_quiescence(Time::from_delays(50));
        let p0 = ActorId(0);
        assert_eq!(
            sim.actor_as::<StrawmanActor>(p0).unwrap().decided,
            Some(Value(0))
        );
        assert_eq!(sim.metrics().decisions()[&p0], Time::from_delays(2));
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
