//! A transport-agnostic single-decree Paxos engine.
//!
//! This is the crash-tolerant message-passing consensus algorithm `A` that
//! the paper's Robust Backup transformation wraps (Definition 2), and —
//! driven directly over links — the classic message-passing baseline
//! requiring `n ≥ 2·f_P + 1`.
//!
//! The engine is a pure state machine: feeding it events yields a list of
//! `(Dest, PaxosMsg)` to transmit. Callers choose the transport — plain
//! links ([`PaxosActor`]) or the trusted T-send/T-receive channels of the
//! Robust Backup (`crate::robust_backup`).
//!
//! Design notes:
//! * Every process is proposer + acceptor + learner. How it learns is one
//!   rule ([`PaxosConfig::confined`]): the crash baseline sends `Accepted`
//!   to the ballot leader, which announces the decision; under the
//!   Byzantine-confinement wrapper `Accepted` is broadcast, so every
//!   process observes phase-2 quorums directly and decides without
//!   trusting anyone's `Decide` announcement.
//! * The configured initial leader owns ballot `(0, leader)` and skips
//!   phase 1 on its first attempt (the standard steady-state optimization);
//!   every other attempt runs both phases.
//!
//! [`PaxosActor`]: crate::paxos::PaxosActor

use std::collections::BTreeMap;

use swmr::quorum::majority;

use crate::types::{Ballot, Pid, Value};

/// Paxos wire messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PaxosMsg {
    /// Phase-1a: leader solicits promises for ballot `b`.
    Prepare {
        /// The ballot.
        b: Ballot,
    },
    /// Phase-1b: acceptor promises `b` and reports its accepted pair.
    Promise {
        /// The promised ballot.
        b: Ballot,
        /// The acceptor's highest accepted (ballot, value), if any.
        accepted: Option<(Ballot, Value)>,
    },
    /// Phase-2a: leader asks acceptors to accept `v` at `b`.
    Accept {
        /// The ballot.
        b: Ballot,
        /// The proposed value.
        v: Value,
    },
    /// Phase-2b: acceptor accepted `v` at `b` (broadcast to all learners).
    Accepted {
        /// The ballot.
        b: Ballot,
        /// The accepted value.
        v: Value,
    },
    /// The acceptor rejected ballot `b` (it promised something higher).
    Nack {
        /// The rejected ballot.
        b: Ballot,
    },
    /// Decision announcement (trusted only in crash-failure deployments).
    Decide {
        /// The decided value.
        v: Value,
    },
}

/// Where an emitted message should go.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Dest {
    /// Every process, *including the sender* (transports must loop back).
    All,
    /// One process.
    One(Pid),
}

/// Static configuration of one engine.
#[derive(Clone, Debug)]
pub struct PaxosConfig {
    /// This process.
    pub me: Pid,
    /// All processes (including `me`).
    pub procs: Vec<Pid>,
    /// Owner of ballot `(0, leader)`, entitled to skip phase 1 once.
    pub initial_leader: Option<Pid>,
    /// The learner rule. Unconfined (the crash-only baseline): phase-2b
    /// votes go to the ballot leader only, which decides after one round
    /// trip and announces, and `Decide` is adopted. Confined (Robust
    /// Backup): votes are broadcast so *every* process observes the quorum
    /// itself, and `Decide` is ignored — a Byzantine leader then cannot
    /// announce a wrong decision.
    pub confined: bool,
}

/// The acceptor role of one process: what it promised and what it
/// accepted, and the answer either request gets. The one acceptor in the
/// crate — [`PaxosEngine`] runs it for the message-passing protocol,
/// Aligned Paxos ([`crate::aligned`]) runs it as the *process agent* its
/// proposer counts beside the memories, and Fast Paxos
/// ([`crate::fast_paxos`]) runs its classic recovery round on it.
#[derive(Clone, Debug, Default)]
pub struct Acceptor {
    promised: Option<Ballot>,
    accepted: Option<(Ballot, Value)>,
}

impl Acceptor {
    /// The highest ballot promised, if any.
    pub fn promised(&self) -> Option<Ballot> {
        self.promised
    }

    /// Phase 1b: promises `b` unless something higher was promised.
    pub fn on_prepare(&mut self, b: Ballot) -> PaxosMsg {
        if self.promised.is_some_and(|p| b < p) {
            return PaxosMsg::Nack { b };
        }
        self.promised = Some(b);
        let accepted = self.accepted;
        PaxosMsg::Promise { b, accepted }
    }

    /// Phase 2b: accepts `v` at `b` unless something higher was promised.
    pub fn on_accept(&mut self, b: Ballot, v: Value) -> PaxosMsg {
        if self.promised.is_some_and(|p| b < p) {
            return PaxosMsg::Nack { b };
        }
        self.promised = Some(b);
        self.accepted = Some((b, v));
        PaxosMsg::Accepted { b, v }
    }
}

#[derive(Clone, Debug)]
enum Proposer {
    Idle,
    Phase1 {
        ballot: Ballot,
        promises: BTreeMap<Pid, Option<(Ballot, Value)>>,
    },
    Phase2,
}

/// The Paxos state machine. See the module docs for the driving contract.
#[derive(Clone, Debug)]
pub struct PaxosEngine {
    cfg: PaxosConfig,
    input: Option<Value>,
    is_leader: bool,
    used_initial: bool,
    round: u64,
    max_round_seen: u64,
    proposer: Proposer,
    acceptor: Acceptor,
    learner: BTreeMap<Ballot, BTreeMap<Pid, Value>>,
    decided: Option<Value>,
}

impl PaxosEngine {
    /// Creates an engine; no messages flow until [`PaxosEngine::propose`]
    /// and leadership.
    pub fn new(cfg: PaxosConfig) -> PaxosEngine {
        PaxosEngine {
            cfg,
            input: None,
            is_leader: false,
            used_initial: false,
            round: 0,
            max_round_seen: 0,
            proposer: Proposer::Idle,
            acceptor: Acceptor::default(),
            learner: BTreeMap::new(),
            decided: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &PaxosConfig {
        &self.cfg
    }

    /// The decision, once reached. Irrevocable.
    pub fn decision(&self) -> Option<Value> {
        self.decided
    }

    /// Sets this process's input and starts proposing if it leads.
    pub fn propose(&mut self, v: Value, out: &mut Vec<(Dest, PaxosMsg)>) {
        if self.input.is_none() {
            self.input = Some(v);
        }
        self.try_start(out);
    }

    /// Feeds an Ω announcement.
    pub fn set_leader(&mut self, leader: Pid, out: &mut Vec<(Dest, PaxosMsg)>) {
        self.is_leader = leader == self.cfg.me;
        self.try_start(out);
    }

    /// Timeout hook: abandon a stalled attempt and retry with a higher
    /// ballot (no-op unless this process leads and is undecided).
    pub fn poke(&mut self, out: &mut Vec<(Dest, PaxosMsg)>) {
        if !self.is_leader || self.decided.is_some() || self.input.is_none() {
            return;
        }
        // Abandon whatever attempt was running.
        self.proposer = Proposer::Idle;
        self.try_start(out);
    }

    fn try_start(&mut self, out: &mut Vec<(Dest, PaxosMsg)>) {
        if !self.is_leader || self.decided.is_some() {
            return;
        }
        let Some(_input) = self.input else { return };
        if !matches!(self.proposer, Proposer::Idle) {
            return;
        }
        if self.cfg.initial_leader == Some(self.cfg.me) && !self.used_initial {
            // Steady-state fast path: ballot (0, me) is pre-owned; go
            // straight to phase 2 with our own input.
            self.used_initial = true;
            let ballot = Ballot::initial(self.cfg.me);
            self.proposer = Proposer::Phase2;
            let v = self.input.expect("input checked above");
            out.push((Dest::All, PaxosMsg::Accept { b: ballot, v }));
            return;
        }
        self.round = self.round.max(self.max_round_seen) + 1;
        let ballot = Ballot {
            round: self.round,
            pid: self.cfg.me,
        };
        self.proposer = Proposer::Phase1 {
            ballot,
            promises: BTreeMap::new(),
        };
        out.push((Dest::All, PaxosMsg::Prepare { b: ballot }));
    }

    /// Feeds a received message (transports must also loop broadcast
    /// messages back to the sender).
    pub fn on_msg(&mut self, from: Pid, msg: PaxosMsg, out: &mut Vec<(Dest, PaxosMsg)>) {
        match msg {
            PaxosMsg::Prepare { b } => {
                self.max_round_seen = self.max_round_seen.max(b.round);
                out.push((Dest::One(b.pid), self.acceptor.on_prepare(b)));
            }
            PaxosMsg::Promise { b, accepted } => {
                let majority = majority(self.cfg.procs.len());
                let Proposer::Phase1 { ballot, promises } = &mut self.proposer else {
                    return;
                };
                if *ballot != b {
                    return;
                }
                promises.insert(from, accepted);
                if promises.len() >= majority {
                    // Adopt the value accepted at the highest ballot, else
                    // our own input.
                    let adopted = promises
                        .values()
                        .flatten()
                        .max_by_key(|(ab, _)| *ab)
                        .map(|(_, v)| *v)
                        .unwrap_or_else(|| self.input.expect("proposing without input"));
                    let ballot = *ballot;
                    self.proposer = Proposer::Phase2;
                    out.push((
                        Dest::All,
                        PaxosMsg::Accept {
                            b: ballot,
                            v: adopted,
                        },
                    ));
                }
            }
            PaxosMsg::Accept { b, v } => {
                self.max_round_seen = self.max_round_seen.max(b.round);
                let reply = self.acceptor.on_accept(b, v);
                let accepted = matches!(reply, PaxosMsg::Accepted { .. });
                let dest = if accepted && self.cfg.confined {
                    Dest::All
                } else {
                    Dest::One(b.pid)
                };
                out.push((dest, reply));
            }
            PaxosMsg::Accepted { b, v } => {
                self.max_round_seen = self.max_round_seen.max(b.round);
                let tally = self.learner.entry(b).or_default();
                tally.insert(from, v);
                let votes = tally.values().filter(|x| **x == v).count();
                if votes >= majority(self.cfg.procs.len()) && self.decided.is_none() {
                    self.decided = Some(v);
                    out.push((Dest::All, PaxosMsg::Decide { v }));
                }
            }
            PaxosMsg::Nack { b } => {
                self.max_round_seen = self.max_round_seen.max(b.round);
                // Stay put; the retry timer will start a higher ballot.
            }
            PaxosMsg::Decide { v } => {
                if !self.cfg.confined && self.decided.is_none() {
                    self.decided = Some(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::ActorId;

    fn cfg(me: u32, n: u32, initial_leader: Option<u32>) -> PaxosConfig {
        PaxosConfig {
            me: ActorId(me),
            procs: (0..n).map(ActorId).collect(),
            initial_leader: initial_leader.map(ActorId),
            confined: true,
        }
    }

    /// Drives a set of engines to quiescence by synchronously delivering
    /// every emitted message (no failures, no delays).
    fn pump(engines: &mut [PaxosEngine], mut queue: Vec<(Pid, Dest, PaxosMsg)>) {
        while let Some((from, dest, msg)) = queue.pop() {
            let targets: Vec<Pid> = match dest {
                Dest::All => engines.iter().map(|e| e.cfg.me).collect(),
                Dest::One(p) => vec![p],
            };
            for t in targets {
                let mut out = Vec::new();
                let idx = t.0 as usize;
                engines[idx].on_msg(from, msg, &mut out);
                let me = engines[idx].cfg.me;
                queue.extend(out.into_iter().map(|(d, m)| (me, d, m)));
            }
        }
    }

    #[test]
    fn initial_leader_skips_phase_one() {
        let mut e = PaxosEngine::new(cfg(0, 3, Some(0)));
        let mut out = Vec::new();
        e.set_leader(ActorId(0), &mut out);
        e.propose(Value(7), &mut out);
        assert_eq!(out.len(), 1);
        assert!(
            matches!(out[0], (Dest::All, PaxosMsg::Accept { b, v: Value(7) })
            if b == Ballot::initial(ActorId(0)))
        );
    }

    #[test]
    fn non_initial_leader_runs_phase_one() {
        let mut e = PaxosEngine::new(cfg(1, 3, Some(0)));
        let mut out = Vec::new();
        e.set_leader(ActorId(1), &mut out);
        e.propose(Value(7), &mut out);
        assert!(matches!(out[0], (Dest::All, PaxosMsg::Prepare { .. })));
    }

    #[test]
    fn full_round_decides_leaders_value() {
        let n = 3;
        let mut engines: Vec<_> = (0..n)
            .map(|i| PaxosEngine::new(cfg(i, n, Some(0))))
            .collect();
        let mut queue = Vec::new();
        for (i, e) in engines.iter_mut().enumerate() {
            let mut out = Vec::new();
            e.set_leader(ActorId(0), &mut out);
            e.propose(Value(100 + i as u64), &mut out);
            queue.extend(out.into_iter().map(|(d, m)| (ActorId(i as u32), d, m)));
        }
        pump(&mut engines, queue);
        for e in &engines {
            assert_eq!(e.decision(), Some(Value(100)));
        }
    }

    #[test]
    fn new_leader_adopts_accepted_value() {
        // Acceptor 1 accepted (b0, v=7); leader 2 must adopt 7, not its own.
        let mut e = PaxosEngine::new(cfg(2, 3, Some(0)));
        let mut out = Vec::new();
        e.set_leader(ActorId(2), &mut out);
        e.propose(Value(9), &mut out);
        let (_, PaxosMsg::Prepare { b }) = out[0] else {
            panic!()
        };
        out.clear();
        e.on_msg(
            ActorId(0),
            PaxosMsg::Promise { b, accepted: None },
            &mut out,
        );
        assert!(out.is_empty());
        let acc = Some((Ballot::initial(ActorId(0)), Value(7)));
        e.on_msg(ActorId(1), PaxosMsg::Promise { b, accepted: acc }, &mut out);
        assert!(matches!(
            out[0],
            (Dest::All, PaxosMsg::Accept { v: Value(7), .. })
        ));
    }

    #[test]
    fn acceptor_rejects_lower_ballot_after_promise() {
        let mut e = PaxosEngine::new(cfg(1, 3, None));
        let mut out = Vec::new();
        let high = Ballot {
            round: 5,
            pid: ActorId(2),
        };
        e.on_msg(ActorId(2), PaxosMsg::Prepare { b: high }, &mut out);
        out.clear();
        let low = Ballot {
            round: 3,
            pid: ActorId(0),
        };
        e.on_msg(ActorId(0), PaxosMsg::Prepare { b: low }, &mut out);
        assert!(matches!(out[0], (Dest::One(p), PaxosMsg::Nack { .. }) if p == ActorId(0)));
        out.clear();
        e.on_msg(
            ActorId(0),
            PaxosMsg::Accept {
                b: low,
                v: Value(1),
            },
            &mut out,
        );
        assert!(matches!(out[0], (Dest::One(_), PaxosMsg::Nack { .. })));
    }

    #[test]
    fn decision_requires_majority_of_accepted() {
        let mut e = PaxosEngine::new(cfg(0, 5, None));
        let b = Ballot {
            round: 1,
            pid: ActorId(1),
        };
        let mut out = Vec::new();
        e.on_msg(ActorId(1), PaxosMsg::Accepted { b, v: Value(4) }, &mut out);
        e.on_msg(ActorId(2), PaxosMsg::Accepted { b, v: Value(4) }, &mut out);
        assert_eq!(e.decision(), None);
        e.on_msg(ActorId(3), PaxosMsg::Accepted { b, v: Value(4) }, &mut out);
        assert_eq!(e.decision(), Some(Value(4)));
    }

    #[test]
    fn duplicate_accepted_votes_not_double_counted() {
        let mut e = PaxosEngine::new(cfg(0, 5, None));
        let b = Ballot {
            round: 1,
            pid: ActorId(1),
        };
        let mut out = Vec::new();
        for _ in 0..5 {
            e.on_msg(ActorId(1), PaxosMsg::Accepted { b, v: Value(4) }, &mut out);
        }
        assert_eq!(e.decision(), None);
    }

    #[test]
    fn untrusted_decide_is_ignored() {
        let mut e = PaxosEngine::new(cfg(0, 3, None));
        let mut out = Vec::new();
        e.on_msg(ActorId(1), PaxosMsg::Decide { v: Value(3) }, &mut out);
        assert_eq!(e.decision(), None);
    }

    #[test]
    fn unconfined_learner_adopts_decide_and_votes_to_the_leader() {
        let mut e = PaxosEngine::new(PaxosConfig {
            confined: false,
            ..cfg(1, 3, None)
        });
        let mut out = Vec::new();
        let b = Ballot::initial(ActorId(0));
        e.on_msg(ActorId(0), PaxosMsg::Accept { b, v: Value(3) }, &mut out);
        assert!(matches!(out[0], (Dest::One(p), PaxosMsg::Accepted { .. }) if p == ActorId(0)));
        e.on_msg(ActorId(0), PaxosMsg::Decide { v: Value(3) }, &mut out);
        assert_eq!(e.decision(), Some(Value(3)));
    }

    #[test]
    fn poke_retries_with_higher_ballot() {
        let mut e = PaxosEngine::new(cfg(1, 3, None));
        let mut out = Vec::new();
        e.set_leader(ActorId(1), &mut out);
        e.propose(Value(1), &mut out);
        let (_, PaxosMsg::Prepare { b: b1 }) = out[0] else {
            panic!()
        };
        out.clear();
        // Observe contention from a higher round, then retry.
        e.on_msg(
            ActorId(2),
            PaxosMsg::Nack {
                b: Ballot {
                    round: 9,
                    pid: ActorId(2),
                },
            },
            &mut out,
        );
        e.poke(&mut out);
        let (_, PaxosMsg::Prepare { b: b2 }) = out[0] else {
            panic!()
        };
        assert!(b2 > b1);
        assert!(b2.round > 9);
    }
}
