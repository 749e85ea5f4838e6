//! The message-passing Paxos actor: the classic crash-tolerant baseline
//! (`n ≥ 2·f_P + 1`, no memories), driven over plain links.

use simnet::{Actor, Context, Duration, EventKind};

use crate::paxos::{Dest, PaxosConfig, PaxosEngine, PaxosMsg};
use crate::types::{Msg, Pid, Value};

/// Timer tag for proposer retries.
const RETRY_TAG: u64 = 1;

/// A process running message-passing Paxos.
#[derive(Debug)]
pub struct PaxosActor {
    engine: PaxosEngine,
    input: Value,
    initial_leader: Option<Pid>,
    retry_every: Duration,
}

impl PaxosActor {
    /// Creates the actor. `initial_leader` both seeds Ω and owns the
    /// phase-1-free first ballot.
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        input: Value,
        initial_leader: Option<Pid>,
        retry_every: Duration,
    ) -> PaxosActor {
        PaxosActor {
            engine: PaxosEngine::new(PaxosConfig {
                me,
                procs,
                initial_leader,
                confined: false,
            }),
            input,
            initial_leader,
            retry_every,
        }
    }

    /// This process's decision, if reached.
    pub fn decision(&self) -> Option<Value> {
        self.engine.decision()
    }

    /// Transmits engine output, looping broadcasts back through the engine
    /// (synchronous self-delivery) until the output queue drains.
    fn pump(&mut self, ctx: &mut Context<'_, Msg>, mut queue: Vec<(Dest, PaxosMsg)>) {
        let me = self.engine.config().me;
        let procs = self.engine.config().procs.clone();
        while let Some((dest, msg)) = queue.pop() {
            match dest {
                Dest::All => {
                    for &q in &procs {
                        if q != me {
                            ctx.send(q, Msg::Paxos(msg));
                        }
                    }
                    let mut out = Vec::new();
                    self.engine.on_msg(me, msg, &mut out);
                    queue.extend(out);
                }
                Dest::One(p) if p == me => {
                    let mut out = Vec::new();
                    self.engine.on_msg(me, msg, &mut out);
                    queue.extend(out);
                }
                Dest::One(p) => ctx.send(p, Msg::Paxos(msg)),
            }
        }
        if self.engine.decision().is_some() {
            ctx.mark_decided();
        }
    }
}

impl Actor<Msg> for PaxosActor {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                let mut out = Vec::new();
                if let Some(l) = self.initial_leader {
                    self.engine.set_leader(l, &mut out);
                }
                self.engine.propose(self.input, &mut out);
                self.pump(ctx, out);
                ctx.set_timer(self.retry_every, RETRY_TAG);
            }
            EventKind::Timer { tag: RETRY_TAG, .. } => {
                if self.engine.decision().is_none() {
                    let mut out = Vec::new();
                    self.engine.poke(&mut out);
                    self.pump(ctx, out);
                    ctx.set_timer(self.retry_every, RETRY_TAG);
                }
            }
            EventKind::Timer { .. } => {}
            EventKind::Msg {
                from,
                msg: Msg::Paxos(m),
            } => {
                let mut out = Vec::new();
                self.engine.on_msg(from, m, &mut out);
                self.pump(ctx, out);
            }
            EventKind::Msg { .. } => {}
            EventKind::LeaderChange { leader } => {
                let mut out = Vec::new();
                self.engine.set_leader(leader, &mut out);
                self.pump(ctx, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{decisions, Scenario};
    use simnet::{ActorId, DelayModel, Simulation, Time};

    /// `n` processes led by process 0.
    fn build(n: usize, seed: u64) -> (Simulation<Msg>, Vec<Pid>) {
        let s = Scenario::common_case(n, 0, seed);
        let sim = s.cluster(
            |i, procs, _| {
                let (me, input) = (ActorId(i as u32), Scenario::input(i));
                let retry = Duration::from_delays(20);
                Box::new(PaxosActor::new(me, procs, input, Some(ActorId(0)), retry))
            },
            Vec::new(),
        );
        (sim, s.procs())
    }

    #[test]
    fn common_case_decides_in_two_delays() {
        let (mut sim, procs) = build(3, 1);
        sim.run_to_quiescence(Time::from_delays(15));
        let ds = decisions(&sim, &procs, PaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
        // The leader observes an Accepted majority two delays after Start.
        assert_eq!(sim.metrics().first_decision_delays(), Some(2.0));
    }

    #[test]
    fn survives_leader_crash_with_new_leader() {
        let (mut sim, procs) = build(3, 2);
        sim.crash_at(ActorId(0), Time::from_delays(1)); // mid-broadcast
        sim.announce_leader(Time::from_delays(30), &procs, ActorId(1));
        sim.run_to_quiescence(Time::from_delays(500));
        let ds = decisions(&sim, &procs[1..], PaxosActor::decision);
        assert!(ds.iter().all(|d| d.is_some()), "{ds:?}");
        assert_eq!(ds[0], ds[1]);
    }

    #[test]
    fn value_accepted_by_old_leader_survives_takeover() {
        // Crash the leader after its Accept lands: the value may be chosen;
        // the new leader must not decide anything else.
        let (mut sim, procs) = build(5, 3);
        sim.crash_at(ActorId(0), Time::from_delays(3));
        sim.announce_leader(Time::from_delays(40), &procs, ActorId(2));
        sim.run_to_quiescence(Time::from_delays(500));
        let ds = decisions(&sim, &procs, PaxosActor::decision);
        let reached: Vec<Value> = ds.iter().flatten().copied().collect();
        assert!(!reached.is_empty());
        assert!(reached.iter().all(|v| *v == Value(100)), "{ds:?}");
    }

    #[test]
    fn agreement_under_random_delays_and_dueling_leaders() {
        for seed in 0..20 {
            let (mut sim, procs) = build(5, seed);
            sim.set_default_delay(DelayModel::Uniform {
                lo: Duration::from_delays(1),
                hi: Duration::from_delays(8),
            });
            // Conflicting leader views for a while, then stabilize.
            sim.announce_leader(Time::from_delays(5), &procs[..2], ActorId(1));
            sim.announce_leader(Time::from_delays(9), &procs[2..], ActorId(3));
            sim.announce_leader(Time::from_delays(120), &procs, ActorId(3));
            sim.run_to_quiescence(Time::from_delays(3000));
            let ds = decisions(&sim, &procs, PaxosActor::decision);
            let reached: Vec<Value> = ds.iter().flatten().copied().collect();
            assert_eq!(
                reached.len(),
                procs.len(),
                "seed {seed}: not all decided {ds:?}"
            );
            assert!(
                reached.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: disagreement {ds:?}"
            );
            // Validity: decided value is some process's input.
            assert!((100..105).contains(&reached[0].0), "seed {seed}");
        }
    }

    #[test]
    fn tolerates_minority_crashes() {
        let (mut sim, procs) = build(5, 4);
        sim.crash_at(ActorId(3), Time::ZERO);
        sim.crash_at(ActorId(4), Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(100));
        let ds = decisions(&sim, &procs[..3], PaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn blocks_without_majority_but_stays_safe() {
        let (mut sim, procs) = build(3, 5);
        sim.crash_at(ActorId(1), Time::ZERO);
        sim.crash_at(ActorId(2), Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(2000));
        assert_eq!(decisions(&sim, &procs, PaxosActor::decision)[0], None);
    }
}
