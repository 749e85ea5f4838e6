//! Fast Paxos (Lamport \[38\]) — the message-passing baseline the paper's
//! introduction contrasts with: it decides in **two delays** in common
//! executions, but "it requires n ≥ 2·f_P + 1 processes" (and its fast path
//! needs larger quorums, so it tolerates fewer failures while staying fast).
//!
//! Implementation outline (single fast round + coordinated recovery):
//! * Any proposer broadcasts its value directly to all acceptors
//!   ([`FpMsg::FastPropose`]). An acceptor casts at most one fast vote and
//!   broadcasts [`FpMsg::FastAccepted`]; a value with a **fast quorum**
//!   `q_f` of votes is decided — two delays end to end.
//! * On collision (no fast quorum), the coordinator runs a classic round:
//!   `Prepare` / `Promise` (promises report fast votes), then picks the only
//!   possibly-chosen value: any `v` with at least `q_c + q_f − n` votes among
//!   a classic quorum `q_c` of promises must be chosen; otherwise the choice
//!   is free. `Accept` / `Accepted` with classic majority completes. The
//!   classic round's acceptor is [`crate::paxos::Acceptor`], the crate's
//!   one; a ballot it refuses gets no answer. The fast vote is Fast
//!   Paxos's own, and is not cast once the acceptor has promised.
//!
//! Quorum sizes: `q_c = ⌊n/2⌋ + 1` (crash resilience `n ≥ 2·f_P + 1`) and
//! the smallest `q_f` with `q_c + 2·q_f ≥ 2n + 1`, so any two fast quorums
//! and any classic quorum intersect. Two values can never both reach the
//! pick threshold `q_c + q_f − n` within one classic quorum (that would need
//! `q_c + 2·q_f ≤ 2n`), so recovery is deterministic.

use std::collections::{BTreeMap, BTreeSet};

use simnet::{Actor, Context, Duration, EventKind};
use swmr::quorum::majority;

use crate::paxos::{Acceptor, PaxosMsg};
use crate::types::{Ballot, Msg, Pid, Value};

/// Fast Paxos wire messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FpMsg {
    /// Proposer → acceptors: vote for `v` in the fast round.
    FastPropose {
        /// The proposed value.
        v: Value,
    },
    /// Acceptor → all: its fast-round vote.
    FastAccepted {
        /// The voted value.
        v: Value,
    },
    /// Coordinator → acceptors: start classic recovery round `b`.
    Prepare {
        /// The classic ballot.
        b: Ballot,
    },
    /// Acceptor → coordinator: promise for `b`, reporting both its fast
    /// vote and any classic accepted pair.
    Promise {
        /// The promised ballot.
        b: Ballot,
        /// The acceptor's fast-round vote, if it cast one.
        fast: Option<Value>,
        /// The acceptor's classic accepted pair, if any.
        classic: Option<(Ballot, Value)>,
    },
    /// Coordinator → acceptors: classic phase 2.
    Accept {
        /// The classic ballot.
        b: Ballot,
        /// The recovered value.
        v: Value,
    },
    /// Acceptor → all: classic accept vote.
    Accepted {
        /// The ballot.
        b: Ballot,
        /// The value.
        v: Value,
    },
    /// Decision announcement (crash model: trusted).
    Decide {
        /// The decided value.
        v: Value,
    },
}

/// Fast quorum size: smallest `q_f` with `q_c + 2 q_f ≥ 2n + 1`, where the
/// classic quorum `q_c` is a majority.
fn q_fast(n: usize) -> usize {
    let need = 2 * n + 1 - majority(n);
    need / 2 + (need % 2)
}

/// Timer tags.
const RECOVERY_TAG: u64 = 1;

/// A follower's phase-1b report: `(fast vote, accepted (ballot, value))`.
type PromiseInfo = (Option<Value>, Option<(Ballot, Value)>);

/// A Fast Paxos process (proposer+acceptor+learner; the configured
/// coordinator also runs recovery).
#[derive(Debug)]
pub struct FastPaxosActor {
    me: Pid,
    procs: Vec<Pid>,
    input: Value,
    /// Whether this process proposes at start (harness-controlled, so the
    /// common case has one proposer and collision tests have several).
    propose_at_start: bool,
    coordinator: Pid,
    recovery_after: Duration,
    // Acceptor state.
    fast_vote: Option<Value>,
    acceptor: Acceptor,
    // Learner state.
    fast_tally: BTreeMap<Value, BTreeSet<Pid>>,
    classic_tally: BTreeMap<(Ballot, Value), BTreeSet<Pid>>,
    // Coordinator state.
    round: u64,
    promises: BTreeMap<Pid, PromiseInfo>,
    recovery_ballot: Option<Ballot>,
    decided: Option<Value>,
}

impl FastPaxosActor {
    /// Creates a Fast Paxos process.
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        input: Value,
        propose_at_start: bool,
        coordinator: Pid,
        recovery_after: Duration,
    ) -> FastPaxosActor {
        FastPaxosActor {
            me,
            procs,
            input,
            propose_at_start,
            coordinator,
            recovery_after,
            fast_vote: None,
            acceptor: Acceptor::default(),
            fast_tally: BTreeMap::new(),
            classic_tally: BTreeMap::new(),
            round: 0,
            promises: BTreeMap::new(),
            recovery_ballot: None,
            decided: None,
        }
    }

    /// This process's decision, if reached.
    pub fn decision(&self) -> Option<Value> {
        self.decided
    }

    fn n(&self) -> usize {
        self.procs.len()
    }

    fn broadcast(&self, ctx: &mut Context<'_, Msg>, m: FpMsg) {
        for &q in &self.procs {
            if q != self.me {
                ctx.send(q, Msg::FastPaxos(m));
            }
        }
    }

    fn decide(&mut self, ctx: &mut Context<'_, Msg>, v: Value) {
        if self.decided.is_none() {
            self.decided = Some(v);
            ctx.mark_decided();
            self.broadcast(ctx, FpMsg::Decide { v });
        }
    }

    /// Handles one message, including self-delivered ones.
    fn handle(&mut self, ctx: &mut Context<'_, Msg>, from: Pid, m: FpMsg) {
        match m {
            FpMsg::FastPropose { v } => {
                // Cast at most one fast vote, and none after joining a
                // classic round.
                if self.fast_vote.is_none() && self.acceptor.promised().is_none() {
                    self.fast_vote = Some(v);
                    self.broadcast(ctx, FpMsg::FastAccepted { v });
                    self.handle(ctx, self.me, FpMsg::FastAccepted { v });
                }
            }
            FpMsg::FastAccepted { v } => {
                self.fast_tally.entry(v).or_default().insert(from);
                if self.fast_tally[&v].len() >= q_fast(self.n()) {
                    self.decide(ctx, v);
                }
            }
            FpMsg::Prepare { b } => {
                if let PaxosMsg::Promise { b, accepted } = self.acceptor.on_prepare(b) {
                    let reply = FpMsg::Promise {
                        b,
                        fast: self.fast_vote,
                        classic: accepted,
                    };
                    if b.pid == self.me {
                        self.handle(ctx, self.me, reply);
                    } else {
                        ctx.send(b.pid, Msg::FastPaxos(reply));
                    }
                }
            }
            FpMsg::Promise { b, fast, classic } => {
                if self.recovery_ballot != Some(b) {
                    return;
                }
                self.promises.insert(from, (fast, classic));
                if self.promises.len() == majority(self.n()) {
                    let v = self.pick_recovery_value();
                    let accept = FpMsg::Accept { b, v };
                    self.broadcast(ctx, accept);
                    self.handle(ctx, self.me, accept);
                }
            }
            FpMsg::Accept { b, v } => {
                if let PaxosMsg::Accepted { b, v } = self.acceptor.on_accept(b, v) {
                    let vote = FpMsg::Accepted { b, v };
                    self.broadcast(ctx, vote);
                    self.handle(ctx, self.me, vote);
                }
            }
            FpMsg::Accepted { b, v } => {
                self.classic_tally.entry((b, v)).or_default().insert(from);
                if self.classic_tally[&(b, v)].len() >= majority(self.n()) {
                    self.decide(ctx, v);
                }
            }
            FpMsg::Decide { v } => {
                if self.decided.is_none() {
                    self.decided = Some(v);
                    ctx.mark_decided();
                }
            }
        }
    }

    /// Lamport's recovery rule over the collected classic quorum.
    fn pick_recovery_value(&self) -> Value {
        // Highest classic accepted pair wins outright (multi-round safety).
        if let Some((_, v)) = self
            .promises
            .values()
            .filter_map(|(_, c)| *c)
            .max_by_key(|(b, _)| *b)
        {
            return v;
        }
        // Fast-vote counting: a value with ≥ q_c + q_f − n votes among the
        // quorum may have been fast-chosen and must be picked.
        let threshold = majority(self.n()) + q_fast(self.n()) - self.n();
        let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
        for (fast, _) in self.promises.values() {
            if let Some(v) = fast {
                *counts.entry(*v).or_default() += 1;
            }
        }
        if let Some((&v, _)) = counts.iter().find(|(_, &c)| c >= threshold) {
            return v;
        }
        // Free choice: any reported vote, else own input.
        counts.keys().next().copied().unwrap_or(self.input)
    }

    fn start_recovery(&mut self, ctx: &mut Context<'_, Msg>) {
        self.round += 1;
        let b = Ballot {
            round: self.round,
            pid: self.me,
        };
        self.recovery_ballot = Some(b);
        self.promises.clear();
        let prep = FpMsg::Prepare { b };
        self.broadcast(ctx, prep);
        self.handle(ctx, self.me, prep);
    }
}

impl Actor<Msg> for FastPaxosActor {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                if self.propose_at_start {
                    let m = FpMsg::FastPropose { v: self.input };
                    self.broadcast(ctx, m);
                    self.handle(ctx, self.me, m);
                }
                if self.me == self.coordinator {
                    ctx.set_timer(self.recovery_after, RECOVERY_TAG);
                }
            }
            EventKind::Timer {
                tag: RECOVERY_TAG, ..
            } => {
                if self.decided.is_none() {
                    self.start_recovery(ctx);
                    ctx.set_timer(self.recovery_after, RECOVERY_TAG);
                }
            }
            EventKind::Timer { .. } => {}
            EventKind::Msg {
                from,
                msg: Msg::FastPaxos(m),
            } => self.handle(ctx, from, m),
            EventKind::Msg { .. } => {}
            EventKind::LeaderChange { leader } => {
                // Ω hands recovery duty to a new coordinator.
                self.coordinator = leader;
                if leader == self.me && self.decided.is_none() {
                    ctx.set_timer(self.recovery_after, RECOVERY_TAG);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{decisions, Scenario};
    use simnet::{ActorId, DelayModel, Simulation, Time};

    /// `n` processes coordinated by process 0; the `proposers` propose at
    /// start.
    fn build(n: usize, seed: u64, proposers: &[usize]) -> (Simulation<Msg>, Vec<Pid>) {
        let s = Scenario::common_case(n, 0, seed);
        let sim = s.cluster(
            |i, procs, _| {
                let (me, input) = (ActorId(i as u32), Scenario::input(i));
                let (proposes, retry) = (proposers.contains(&i), Duration::from_delays(30));
                Box::new(FastPaxosActor::new(
                    me,
                    procs,
                    input,
                    proposes,
                    ActorId(0),
                    retry,
                ))
            },
            Vec::new(),
        );
        (sim, s.procs())
    }

    #[test]
    fn quorum_sizes_satisfy_intersection() {
        for n in 3..=12usize {
            let qc = majority(n);
            let qf = q_fast(n);
            assert!(qc + 2 * qf > 2 * n, "n={n}");
            assert!(qf <= n, "n={n}");
            // Pick threshold positive and unambiguous.
            let t = qc + qf - n;
            assert!(t >= 1, "n={n}");
            assert!(2 * t > qc, "n={n}: two values could both hit the threshold");
        }
    }

    #[test]
    fn uncontended_fast_path_decides_in_two_delays() {
        let (mut sim, procs) = build(3, 1, &[1]);
        sim.run_to_quiescence(Time::from_delays(20));
        let ds = decisions(&sim, &procs, FastPaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(101))), "{ds:?}");
        // Propose (1 delay) + FastAccepted (1 delay): the proposer itself
        // needs votes back from the other acceptors, so 2 delays.
        assert_eq!(sim.metrics().first_decision_delays(), Some(2.0));
    }

    #[test]
    fn collision_recovers_through_coordinator() {
        let (mut sim, procs) = build(5, 2, &[1, 2, 3]);
        sim.run_to_quiescence(Time::from_delays(500));
        let ds = decisions(&sim, &procs, FastPaxosActor::decision);
        assert!(ds.iter().all(|d| d.is_some()), "{ds:?}");
        let v0 = ds[0].unwrap();
        assert!(ds.iter().all(|d| *d == Some(v0)), "{ds:?}");
        // Validity: one of the proposers' inputs.
        assert!([Value(101), Value(102), Value(103)].contains(&v0));
    }

    #[test]
    fn collision_under_random_delays_many_seeds() {
        for seed in 0..25 {
            let (mut sim, procs) = build(5, seed, &[0, 1, 2, 3, 4]);
            sim.set_default_delay(DelayModel::Uniform {
                lo: Duration::from_delays(1),
                hi: Duration::from_delays(5),
            });
            sim.run_to_quiescence(Time::from_delays(3000));
            let ds = decisions(&sim, &procs, FastPaxosActor::decision);
            let got: Vec<Value> = ds.iter().flatten().copied().collect();
            assert_eq!(got.len(), 5, "seed {seed}: {ds:?}");
            assert!(got.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {ds:?}");
        }
    }

    #[test]
    fn fast_path_needs_full_fast_quorum_with_n3() {
        // n=3 → q_f = 3: one crashed acceptor forces recovery.
        let (mut sim, procs) = build(3, 3, &[1]);
        sim.crash_at(ActorId(2), Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(500));
        let ds = decisions(&sim, &procs[..2], FastPaxosActor::decision);
        assert!(ds.iter().all(|d| d.is_some()), "{ds:?}");
        assert_eq!(ds[0], ds[1]);
        // Decided later than the 2-delay fast path.
        assert!(sim.metrics().first_decision_delays().unwrap() > 2.0);
    }

    #[test]
    fn fast_chosen_value_survives_recovery() {
        // All 5 vote fast for proposer 1's value, but the Decide messages
        // are lost to a crash... simulate by having the coordinator start
        // recovery anyway: it must pick the fast-chosen value.
        let (mut sim, procs) = build(5, 4, &[1]);
        // Slow the proposer's links so votes trickle; coordinator recovery
        // fires concurrently with fast votes.
        sim.set_default_delay(DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(40),
        });
        sim.run_to_quiescence(Time::from_delays(5000));
        let ds = decisions(&sim, &procs, FastPaxosActor::decision);
        let got: Vec<Value> = ds.iter().flatten().copied().collect();
        assert!(!got.is_empty());
        assert!(got.iter().all(|v| *v == Value(101)), "{ds:?}");
    }
}
