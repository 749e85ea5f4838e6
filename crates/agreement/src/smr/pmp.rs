//! The crash-mode replication engine: the log over Protected Memory Paxos.
//!
//! [`PmpLog`] drives the one `protected::Proposer` (the `Protected` leg,
//! memories only) over the whole log. Slot registers are instance-indexed,
//! the permission grab covers the whole region (all instances), and the
//! decider of instance `i` starts instance `i + 1` phase-1-free: a stable
//! leader's round is one phase-2 write per memory — a plain write at batch
//! 1, one scatter-gather [`rdma_sim::MemRequest::WriteMany`] (and one
//! `DecidedMany` per follower) for a batch.
//!
//! Failure handling: when Ω nominates a new leader it runs the four-step
//! acquisition (permission grab, a write of its **ballot register**, a
//! scan of the **undecided suffix** `[at, ∞)` — `at` its first instance
//! not known decided —, a read of every process's ballot register);
//! every value a previous leader may have accepted at `at` or above is
//! folded by highest ballot into the shell's recovery plan and
//! re-committed under the new leader's epoch before fresh commands
//! continue, so no decided entry is ever lost. Below `at` every instance
//! is decided and never proposed again, so a takeover reads what the log
//! holds above `at`, whatever the log's length. The ballot registers are
//! what make the suffix alone safe: a competitor with a higher round and a
//! lower `at` stamped one on a quorum, so this acquisition sees it
//! whatever that competitor wrote where (`protected`'s module docs carry
//! the argument; `a_takeover_sees_a_competitor_that_acquired_below_its_suffix`
//! below is the run that forks without them). Takeover scans see batched
//! entries as ordinary per-instance slot registers. Ballots are
//! `(epoch, pid)` with one epoch per acquisition — the standard
//! Multi-Paxos discipline that keeps a deposed leader's in-flight writes
//! below every later term.

use std::collections::BTreeMap;

use rdma_sim::Completion;
use simnet::{ActorId, Context, Duration};

use super::{Engine, Replica, Round, Shell, SmrNode};
use crate::protected::{Outcome, Proposer, Protected};
use crate::types::{Ballot, Instance, Msg, Pid, RegVal, Value};

/// The crash-mode engine (see the module docs).
#[derive(Debug)]
pub struct PmpLog {
    pmp: Proposer<Protected>,
    /// The next instance to propose at (decided ones are skipped).
    instance: u64,
    /// The round phase 2 is writing, if any: crash mode is a window-1
    /// pipeline.
    round: Option<Round>,
    /// The acquisition scan in flight, folded as it arrives: instance →
    /// highest accepted `(ballot, value)`. Quorum intersection guarantees
    /// any decided value appears here.
    scanned: BTreeMap<u64, (Ballot, Value)>,
}

impl SmrNode {
    /// Creates a replica. `workload` is the sequence of commands this node
    /// proposes when it leads; `initial_leader` owns the instance-0
    /// permissions; `f_m` is the tolerated number of memory crashes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        mems: Vec<ActorId>,
        initial_leader: Pid,
        workload: Vec<Value>,
        f_m: usize,
        retry_every: Duration,
    ) -> SmrNode {
        let engine = PmpLog {
            pmp: Proposer::pmp(me, mems, f_m, me == initial_leader),
            instance: 0,
            round: None,
            scanned: BTreeMap::new(),
        };
        Replica::over(engine, me, procs, initial_leader, workload, retry_every)
    }

    /// Number of own commands committed so far.
    pub fn committed_own(&self) -> usize {
        let in_flight = self.engine.round.as_ref().map_or(0, |r| r.consumed);
        self.sh.core.next_cmd - in_flight
    }
}

impl PmpLog {
    /// Builds and phase-2-writes the next round at the cursor.
    fn propose(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>, force: bool) {
        // One round in flight: it settles before the next fill, so no
        // unsettled id can be pending.
        let Some(round) = sh.next_round(ctx, self.instance, force, |_| false) else {
            // Nothing left to propose and nothing to recover; stay quiet.
            // (A leader whose own workload drained mid-recovery — e.g. a
            // sharded follower promoted before the router re-submits —
            // still gets its recovered runs and hole fillers above.)
            return;
        };
        self.pmp
            .accept(ctx, &mut sh.client, round.first, &round.values);
        self.round = Some(round);
    }

    /// The proposal in flight died: its round, if it had one, goes back
    /// to the workload.
    fn abandon(&mut self, sh: &mut Shell) {
        if let Some(round) = self.round.take() {
            sh.abandon(round);
        }
    }
}

impl Engine for PmpLog {
    const TICK_TAG: u64 = 50;
    const PEERS_DECIDE: bool = true;

    fn drive(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>) {
        if !sh.is_leader || !self.pmp.is_idle() {
            return;
        }
        // Move past instances already known decided.
        while sh.core.decided(self.instance).is_some() {
            self.instance += 1;
        }
        if self.pmp.holds_permission() {
            // Steady state: straight to phase 2.
            self.propose(sh, ctx, false);
            return;
        }
        // Takeover: acquire permission, stamp the new epoch into our
        // ballot register, scan the undecided suffix for values to
        // recover, then read every ballot register.
        self.scanned.clear();
        let at = Instance(self.instance);
        self.pmp.acquire_suffix(ctx, &mut sh.client, at);
    }

    fn on_leader_change(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Context<'_, Msg>,
        _leader: Pid,
        promoted: bool,
    ) {
        if promoted {
            self.abandon(sh);
            self.pmp.reset(); // must re-acquire
            self.drive(sh, ctx);
        }
    }

    fn on_completion(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>, c: Completion<RegVal>) {
        let scanned = &mut self.scanned;
        let outcome = self.pmp.on_completion(c, |instance, ap, v| {
            let best = scanned.entry(instance).or_insert((ap, v));
            if ap > best.0 {
                *best = (ap, v);
            }
        });
        match outcome {
            None => {}
            Some(Outcome::Abandoned) => self.abandon(sh),
            Some(Outcome::Acquired) => {
                sh.recover = (self.scanned.iter().map(|(&i, &(_, v))| (i, v))).collect();
                self.scanned.clear();
                self.propose(sh, ctx, true);
            }
            Some(Outcome::Accepted) => {
                let round = self.round.take().expect("phase 2 without a round");
                sh.decide(ctx, round.first, round.values.as_slice());
                sh.commit(round);
                // Steady state: next instance immediately.
                self.drive(sh, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scenario;
    use crate::protected::memory_actor;
    use simnet::{Simulation, Time};

    /// Three replicas over three memories; replica `i` wants
    /// `cmds_per_node` commands `1000·(i+1) + c` committed; replica 0 leads.
    fn build(seed: u64, cmds_per_node: usize, batch: usize) -> (Simulation<Msg>, Vec<Pid>) {
        let s = Scenario::common_case(3, 3, seed);
        let sim = s.cluster(
            |i, procs, mems| {
                let workload: Vec<Value> = (0..cmds_per_node)
                    .map(|c| Value(1000 * (i as u64 + 1) + c as u64))
                    .collect();
                let (me, retry) = (ActorId(i as u32), Duration::from_delays(25));
                let node = SmrNode::new(me, procs, mems, ActorId(0), workload, 1, retry);
                Box::new(node.with_batch(batch))
            },
            s.memories(|_| memory_actor(ActorId(0))),
        );
        (sim, s.procs())
    }

    fn node(sim: &Simulation<Msg>, p: Pid) -> &SmrNode {
        sim.actor_as::<SmrNode>(p).unwrap()
    }

    #[test]
    fn stable_leader_commits_at_two_delays_per_entry() {
        let (mut sim, procs) = build(1, 5, 1);
        sim.run_until(Time::from_delays(200), |s| node(s, procs[0]).log_len() >= 5);
        let leader = node(&sim, procs[0]);
        assert_eq!(leader.log_len(), 5);
        // Entry i decided at 2·(i+1) delays: one replicated write each.
        for (i, (_, t)) in leader.decided_at().iter().enumerate() {
            assert_eq!(t.as_delays(), 2.0 * (i as f64 + 1.0), "entry {i}");
        }
        // All of the leader's own commands, in order.
        let expected: Vec<Value> = (0..5).map(|c| Value(1000 + c)).collect();
        assert_eq!(leader.log(), expected);
    }

    #[test]
    fn batched_leader_amortizes_one_write_over_k_entries() {
        let (mut sim, procs) = build(1, 8, 4);
        sim.run_until(Time::from_delays(200), |s| node(s, procs[0]).log_len() >= 8);
        let leader = node(&sim, procs[0]);
        assert_eq!(leader.log_len(), 8);
        // Two batched rounds of 4: entries 0..4 decide at 2 delays,
        // entries 4..8 at 4 — still one round trip per *write*, now
        // amortized over 4 entries each.
        for (i, (_, t)) in leader.decided_at().iter().enumerate() {
            let round = (i / 4 + 1) as f64;
            assert_eq!(t.as_delays(), 2.0 * round, "entry {i}");
        }
        // Same committed values and order as the unbatched protocol.
        let expected: Vec<Value> = (0..8).map(|c| Value(1000 + c)).collect();
        assert_eq!(leader.log(), expected);
        // 2 batched write rounds × 3 memories, instead of 8 × 3.
        assert_eq!(sim.metrics().mem_writes, 6);
    }

    #[test]
    fn followers_learn_the_same_log() {
        for (batch, cmds) in [(1, 4), (3, 10)] {
            let (mut sim, procs) = build(2, cmds, batch);
            sim.run_until(Time::from_delays(300), |s| {
                procs.iter().all(|&p| node(s, p).log_len() >= cmds)
            });
            let logs: Vec<Vec<Value>> = procs.iter().map(|&p| node(&sim, p).log()).collect();
            assert_eq!(logs[0].len(), cmds, "batch {batch}");
            assert_eq!(logs[0], logs[1], "batch {batch}");
            assert_eq!(logs[1], logs[2], "batch {batch}");
        }
    }

    #[test]
    fn leader_crash_preserves_log_prefix_and_new_leader_continues() {
        // Unbatched with ~3 entries in, and batched one batch in.
        for (batch, cmds, crash_at, want) in [(1, 10, 7, 8), (4, 12, 3, 10)] {
            let (mut sim, procs) = build(3, cmds, batch);
            sim.crash_at(ActorId(0), Time::from_delays(crash_at));
            sim.announce_leader(Time::from_delays(20), &procs, ActorId(1));
            sim.run_until(Time::from_delays(2000), |s| {
                node(s, procs[1]).log_len() >= want
            });
            let (l1, l2) = (node(&sim, procs[1]).log(), node(&sim, procs[2]).log());
            // The new leader made progress past the crash point...
            assert!(l1.len() >= want, "batch {batch}: no progress: {l1:?}");
            // ...logs agree on the shared prefix (the last round may still
            // be in flight to the other follower)...
            let common = l1.len().min(l2.len());
            assert!(common + batch >= want, "batch {batch}");
            assert_eq!(l1[..common], l2[..common], "batch {batch}");
            // ...and the old leader's committed entries survived the takeover.
            assert_eq!(l1[0], Value(1000), "batch {batch}");
        }
    }

    #[test]
    fn takeover_recommits_consecutive_recovered_entries_in_one_round() {
        // The leader's first batch lands on the memories but the leader
        // crashes before learning; the successor's takeover scan recovers
        // all four entries and re-commits them as ONE scatter-gather round.
        let (mut sim, procs) = build(4, 4, 4);
        sim.crash_at(ActorId(0), Time::from_delays(2));
        sim.announce_leader(Time::from_delays(20), &procs, ActorId(1));
        sim.run_until(Time::from_delays(2000), |s| {
            node(s, procs[1]).log_len() >= 8
        });
        let l1 = node(&sim, procs[1]);
        let log = l1.log();
        assert_eq!(
            &log[..4],
            &[Value(1000), Value(1001), Value(1002), Value(1003)],
            "crashed leader's batch survived"
        );
        let decided_at = l1.decided_at();
        let at = |inst: u64| {
            let decided = decided_at.iter().find(|&&(i, _)| i == inst);
            decided.expect("instance decided").1
        };
        // A single decision timestamp covers instances 0..4 on the new
        // leader: the recovery was batched, not one instance at a time.
        for i in 1..4 {
            assert_eq!(at(i), at(0), "instance {i} recovered in a later round");
        }
        // The successor's own four commands follow in the next rounds.
        let own: Vec<Value> = (0..4).map(|c| Value(2000 + c)).collect();
        assert_eq!(&log[4..8], &own[..]);
        assert_eq!(l1.committed_own(), 4);
    }

    /// A takeover whose suffix starts above a competitor's `at` still
    /// sees that competitor through the ballot registers. Four processes
    /// over three memories `m0 m1 m2`; process 0 leads and commits
    /// instances 0 to 4, and its write of instance 5 reaches `m0` alone
    /// before it crashes. B (process 1) hears every decision, so its `at`
    /// is 5; C (process 2) and D (process 3) hear none, so theirs is 0.
    /// C takes over twice (round 2), recovers 0..=5 and re-commits them,
    /// and its write of instance 5 again reaches `m0` alone. Then B takes
    /// over through `m1` and `m2` only — its suffix holds nothing of C's,
    /// but both its ballot registers hold C's round 2 —, and later D
    /// through `m0` and `m1`, where C's write and B's meet at instance 5.
    /// Reading the suffix without the ballot registers, B decides its own
    /// command at instance 5 under round 1, below C's round, and D adopts
    /// C's write over it: the log forks.
    #[test]
    fn a_takeover_sees_a_competitor_that_acquired_below_its_suffix() {
        use crate::protected::{ballot_reg, slot_reg};
        use crate::types::{spaces, Ballot, PaxSlot};
        use rdma_sim::{MemRequest, MemWire, MemoryActor};

        const K: u64 = 5;
        let s = Scenario::common_case(4, 3, 1);
        let mut sim = s.cluster(
            |i, procs, mems| {
                let workload = (0..30).map(|c| Value(1000 * (i as u64 + 1) + c)).collect();
                let (me, retry) = (ActorId(i as u32), Duration::from_delays(25));
                Box::new(SmrNode::new(
                    me,
                    procs,
                    mems,
                    ActorId(0),
                    workload,
                    1,
                    retry,
                ))
            },
            s.memories(|_| memory_actor(ActorId(0))),
        );
        let (procs, mems) = (s.procs(), s.mems());
        let [p0, b, c, d] = procs[..] else {
            unreachable!()
        };
        let [m0, m1, m2] = mems[..] else {
            unreachable!()
        };
        let lost = Some(Duration::from_delays(1_000_000));
        sim.set_delay_hook(Box::new(move |_, from, to, msg| {
            let slot_at_or_above_k = match msg {
                Msg::Mem(MemWire::Req {
                    req: MemRequest::Write { reg, .. },
                    ..
                }) => reg.space == spaces::PMP && reg.a >= K,
                _ => false,
            };
            let lose = (from.0 < 4 && (to == c || to == d))
                || ((from == p0 || from == c) && (to == m1 || to == m2) && slot_at_or_above_k)
                || (from == b && to == m0)
                || (from == d && to == m2);
            if lose {
                lost
            } else {
                None
            }
        }));
        sim.crash_at(p0, Time::from_delays(12));
        for (t, leader) in [(14, c), (15, p0), (16, c)] {
            sim.announce_leader(Time::from_delays(t), &[c], leader);
        }
        sim.announce_leader(Time::from_delays(60), &[b], b);
        sim.announce_leader(Time::from_delays(200), &procs, d);
        sim.run_until(Time::from_delays(800), |s| {
            node(s, d).log_len() > K as usize + 2
        });

        let mem = |m| sim.actor_as::<MemoryActor<RegVal, Msg>>(m).unwrap();
        let round = |m, p| match mem(m).register(ballot_reg(p)) {
            Some(RegVal::Slot(slot)) => slot.min_prop.round,
            other => panic!("no ballot of {p:?} on {m:?}: {other:?}"),
        };
        // The setup: C, at round 2, wrote instance K on `m0` alone.
        let c_round = round(m0, c);
        assert_eq!(c_round, 2);
        let c_ballot = Ballot { round: 2, pid: c };
        assert_eq!(
            mem(m0).register(slot_reg(Instance(K), c)),
            Some(&RegVal::Slot(PaxSlot::phase2(c_ballot, Value(1000 + K))))
        );
        assert_eq!(mem(m1).register(slot_reg(Instance(K), c)), None);
        assert_eq!(mem(m2).register(slot_reg(Instance(K), c)), None);
        // B decided its own command at K, and D keeps it.
        let (lb, ld) = (node(&sim, b).log(), node(&sim, d).log());
        assert_eq!(lb[K as usize], Value(2000));
        assert!(
            ld.len() > K as usize,
            "D never reached instance {K}: {ld:?}"
        );
        let common = lb.len().min(ld.len());
        assert_eq!(lb[..common], ld[..common], "the log forked");
        // B abandoned its first ballot and retried above C's round.
        assert!(
            round(m1, b) > c_round,
            "B decided under round {}",
            round(m1, b)
        );
    }

    #[test]
    fn competing_leaders_never_fork_the_log() {
        for seed in 0..10 {
            let (mut sim, procs) = build(seed, 6, 1);
            sim.announce_leader(Time::from_delays(4), &procs[1..2], ActorId(1));
            sim.announce_leader(Time::from_delays(9), &procs[..1], ActorId(0));
            sim.announce_leader(Time::from_delays(40), &procs, ActorId(1));
            sim.run_to_quiescence(Time::from_delays(4000));
            let logs: Vec<Vec<Value>> = procs.iter().map(|&p| node(&sim, p).log()).collect();
            for a in &logs {
                for b in &logs {
                    let common = a.len().min(b.len());
                    assert_eq!(a[..common], b[..common], "seed {seed}: fork {logs:?}");
                }
            }
        }
    }
}
