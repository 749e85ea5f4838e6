//! Robust Backup (Definition 2, Theorems 4.2 / 4.4): the backup stage of
//! Figure 6.
//!
//! `RobustBackup(A)`: take a message-passing consensus algorithm `A` that
//! tolerates crash failures (here: single-decree Paxos), and replace every
//! send/receive with T-send/T-receive over non-equivocating broadcast. The
//! result solves **weak Byzantine agreement** with `n ≥ 2·f_P + 1`
//! processes and `m ≥ 2·f_M + 1` memories — impossible for pure message
//! passing, where even with signatures asynchronous Byzantine agreement
//! needs `n ≥ 3·f_P + 1` \[15\].
//!
//! Everything here rides on the `trusted` layer; the Paxos engine runs
//! `confined` (everyone is a learner, and decisions come only from
//! self-observed `Accepted` quorums).
//!
//! [`RobustCore`] is the whole stage: the wrapped Paxos, its trusted
//! channel, and — for the configurations that enter through one —
//! Algorithm 8's set-up phase (T-send a prioritized value, wait for
//! `n − f`, adopt by [`pref_paxos::adopt`], propose). It is driven by
//! [`crate::fast_robust::FastRobustActor`].

use rdma_sim::{Completion, MemoryClient};
use sigsim::SigVerifier;
use simnet::{ActorId, Context};
use swmr::quorum::tolerated;

use crate::cheap_quorum::AbortOutcome;
use crate::nebcast::NebEngine;
use crate::paxos::{Dest, PaxosConfig, PaxosEngine, PaxosMsg};
use crate::pref_paxos;
use crate::trusted::{PaxosChecker, RbPayload, TrustedPeer};
use crate::types::{Msg, Pid, RegVal, Value};

/// Robust Backup under the one Byzantine single-decree actor: Definition 2
/// alone, entered at Start by proposing the input.
pub type RobustPaxosActor = crate::fast_robust::FastRobustActor;

/// The Robust Backup machinery: a Paxos engine speaking through a
/// [`TrustedPeer`], optionally entered through Algorithm 8's set-up phase.
pub struct RobustCore {
    engine: PaxosEngine,
    peer: TrustedPeer,
    verifier: SigVerifier,
    /// Set-ups received so far, each with the evidence that ranks it.
    setups: Vec<AbortOutcome>,
    /// Set once this process T-sent its own set-up (Algorithm 8 line 2): the
    /// Cheap Quorum leader whose signature certifies class M in the ranking.
    adopt_against: Option<Pid>,
    /// The wrapped Paxos has been given a value.
    proposed: bool,
}

impl std::fmt::Debug for RobustCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RobustCore")
            .field("decision", &self.engine.decision())
            .field("setups", &self.setups.len())
            .finish()
    }
}

impl RobustCore {
    /// Creates the core for process `me`.
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        memories: Vec<ActorId>,
        initial_leader: Option<Pid>,
        signer: sigsim::Signer,
        verifier: SigVerifier,
    ) -> RobustCore {
        let engine = PaxosEngine::new(PaxosConfig {
            me,
            procs: procs.clone(),
            initial_leader,
            // Everyone observes phase-2 quorums directly: a Byzantine
            // process must not be able to announce a decision.
            confined: true,
        });
        let neb = NebEngine::new(me, procs.clone(), memories, signer, verifier.clone());
        let checker = PaxosChecker {
            procs,
            initial_leader,
        };
        let peer = TrustedPeer::new(me, verifier.clone(), checker, neb);
        RobustCore {
            engine,
            peer,
            verifier,
            setups: Vec::new(),
            adopt_against: None,
            proposed: false,
        }
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<Value> {
        self.engine.decision()
    }

    /// Whether this process has entered the stage (sent its set-up or
    /// proposed); until then it only receives.
    pub fn entered(&self) -> bool {
        self.adopt_against.is_some() || self.proposed
    }

    /// Enters through the set-up phase, once: T-sends this process's
    /// prioritized value (Algorithm 8 line 2). When `n − f` set-ups are in,
    /// the best — class M judged against `cq_leader`'s signature — is
    /// proposed.
    pub fn send_setup(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        AbortOutcome { value, evidence }: AbortOutcome,
        cq_leader: Pid,
    ) {
        self.adopt_against = Some(cq_leader);
        self.peer
            .t_send(ctx, client, Dest::All, RbPayload::Setup { value, evidence });
    }

    /// Proposes a value to the wrapped Paxos instance.
    pub fn propose(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        v: Value,
    ) {
        self.proposed = true;
        let mut out = Vec::new();
        self.engine.propose(v, &mut out);
        self.pump(ctx, client, out);
    }

    /// Announces the configured initial leader (Ω's seed) to the wrapped
    /// Paxos; call at Start.
    pub fn start(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        if let Some(l) = self.engine.config().initial_leader {
            self.set_leader(ctx, client, l);
        }
    }

    /// Feeds an Ω announcement.
    pub fn set_leader(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        leader: Pid,
    ) {
        let mut out = Vec::new();
        self.engine.set_leader(leader, &mut out);
        self.pump(ctx, client, out);
    }

    /// Retry hook (arm on a timer).
    pub fn poke(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        let mut out = Vec::new();
        self.engine.poke(&mut out);
        self.pump(ctx, client, out);
    }

    /// Drives broadcast delivery attempts (arm on a poll timer).
    pub fn poll(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        self.peer.poll(ctx, client);
        self.process_deliveries(ctx, client);
    }

    /// Routes a memory completion. Returns true if consumed.
    pub fn on_completion(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        completion: Completion<RegVal>,
    ) -> bool {
        if !self.peer.on_completion(ctx, client, completion) {
            return false;
        }
        self.process_deliveries(ctx, client);
        true
    }

    fn process_deliveries(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
    ) {
        for d in self.peer.drain(ctx) {
            match d.payload {
                RbPayload::Setup { value, evidence } => {
                    self.setups.push(AbortOutcome { value, evidence });
                }
                RbPayload::Paxos(m) => {
                    let mut out = Vec::new();
                    self.engine.on_msg(d.from, m, &mut out);
                    self.pump(ctx, client, out);
                }
                // Replicated-log traffic (Byzantine-mode SMR) is not part
                // of the single-decree protocol; ignore it.
                RbPayload::LogEntries { .. } => {}
            }
        }
        self.maybe_adopt(ctx, client);
    }

    /// Algorithm 8 lines 3–5: once `n − f` set-ups are in (own one sent),
    /// adopt the highest-priority value and propose it.
    fn maybe_adopt(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        let Some(cq_leader) = self.adopt_against else {
            return;
        };
        let procs = &self.engine.config().procs;
        if self.proposed || self.setups.len() < procs.len() - tolerated(procs.len()) {
            return;
        }
        let best = pref_paxos::adopt(&self.setups, procs, cq_leader, &self.verifier)
            .expect("n − f ≥ 1 set-ups collected");
        self.propose(ctx, client, best);
    }

    fn pump(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        out: Vec<(Dest, PaxosMsg)>,
    ) {
        for (dest, msg) in out {
            self.peer.t_send(ctx, client, dest, RbPayload::Paxos(msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{decisions, Scenario};
    use crate::nebcast;
    use sigsim::SigAuthority;
    use simnet::Simulation;
    use simnet::{Duration, Time};

    /// Builds n processes (silent stand-ins at `silent`) + m memories;
    /// returns (sim, procs, mems, auth).
    fn build(
        n: usize,
        m: usize,
        seed: u64,
        silent: &[usize],
    ) -> (Simulation<Msg>, Vec<Pid>, Vec<ActorId>, SigAuthority) {
        let mut s = Scenario::common_case(n, m, seed);
        s.byz_silent = silent.to_vec();
        let mut auth = SigAuthority::new(seed ^ 0xABCD);
        let signers: Vec<_> = s.procs().iter().map(|&p| auth.register(p)).collect();
        let sim = s.cluster(
            |i, procs, mems| {
                Box::new(RobustPaxosActor::robust_backup(
                    procs[i],
                    procs,
                    mems,
                    Scenario::input(i),
                    Some(ActorId(0)),
                    signers[i].clone(),
                    auth.verifier(),
                    Duration::from_delays(1),
                    Duration::from_delays(80),
                ))
            },
            s.memories(nebcast::memory_actor),
        );
        (sim, s.procs(), s.mems(), auth)
    }

    #[test]
    fn all_correct_decide_leader_value() {
        let (mut sim, procs, _, _) = build(3, 3, 1, &[]);
        let done = |s: &Simulation<Msg>| {
            decisions(s, &procs, RobustPaxosActor::decision)
                .iter()
                .all(|d| d.is_some())
        };
        sim.run_until(Time::from_delays(400), done);
        let ds = decisions(&sim, &procs, RobustPaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
        // The trusted path is slow: strictly more than 2 delays (nebcast
        // costs ≥ 6 per hop — footnote 2 of the paper).
        assert!(sim.metrics().first_decision_delays().unwrap() > 6.0);
    }

    #[test]
    fn decides_with_f_silent_byzantine() {
        // n = 3 = 2f+1 with f = 1 silent Byzantine process.
        let (mut sim, procs, _, _) = build(3, 3, 2, &[2]);
        let correct = [procs[0], procs[1]];
        sim.run_until(Time::from_delays(600), |s| {
            decisions(s, &correct, RobustPaxosActor::decision)
                .iter()
                .all(|d| d.is_some())
        });
        let ds = decisions(&sim, &correct, RobustPaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn tolerates_memory_crashes() {
        let (mut sim, procs, mems, _) = build(3, 5, 3, &[]);
        sim.crash_at(mems[0], Time::ZERO);
        sim.crash_at(mems[3], Time::ZERO);
        sim.run_until(Time::from_delays(600), |s| {
            decisions(s, &procs, RobustPaxosActor::decision)
                .iter()
                .all(|d| d.is_some())
        });
        let ds = decisions(&sim, &procs, RobustPaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn leader_crash_then_takeover() {
        let (mut sim, procs, _, _) = build(3, 3, 4, &[]);
        sim.crash_at(ActorId(0), Time::from_delays(3));
        sim.announce_leader(Time::from_delays(150), &procs, ActorId(1));
        let tail = [procs[1], procs[2]];
        sim.run_until(Time::from_delays(2500), |s| {
            decisions(s, &tail, RobustPaxosActor::decision)
                .iter()
                .all(|d| d.is_some())
        });
        let ds = decisions(&sim, &tail, RobustPaxosActor::decision);
        assert!(ds.iter().all(|d| d.is_some()), "{ds:?}");
        assert_eq!(ds[0], ds[1]);
    }

    #[test]
    fn five_processes_two_silent_byzantine() {
        // n = 5 = 2f+1 with f = 2.
        let (mut sim, procs, _, _) = build(5, 3, 5, &[3, 4]);
        let correct = [procs[0], procs[1], procs[2]];
        sim.run_until(Time::from_delays(900), |s| {
            decisions(s, &correct, RobustPaxosActor::decision)
                .iter()
                .all(|d| d.is_some())
        });
        let ds = decisions(&sim, &correct, RobustPaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }
}
