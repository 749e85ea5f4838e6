//! Fast & Robust (§4.3, Figure 6, Theorem 4.9): the paper's headline
//! Byzantine result — a **2-deciding** weak Byzantine agreement protocol
//! with only `n ≥ 2·f_P + 1` processes and `m ≥ 2·f_M + 1` memories.
//!
//! Composition (after the Abstract framework \[7\]):
//!
//! ```text
//!                 commit value                       commit value
//!  Cheap Quorum ───────────────►  ...  ◄─────────────── Preferential Paxos
//!       │                                                      ▲
//!       └──── abort value (+ evidence, Definition 3) ──────────┘
//!                          Robust Backup / nebcast
//! ```
//!
//! Every process runs Cheap Quorum; in the common case the leader decides
//! after one replicated write (2 delays) and followers decide through
//! unanimity proofs. Any failure or asynchrony triggers panic: processes
//! abort with evidence-bearing values, which seed Preferential Paxos with
//! Definition-3 priorities. Lemma 4.8 (asserted *at run time* here): if any
//! correct process decided `v` in Cheap Quorum, `v` is the only value
//! Preferential Paxos can decide.
//!
//! This module holds the figure itself: [`FastRobustActor`] is the one
//! Byzantine single-decree actor — a fast stage ([`CqCore`]), a backup
//! stage ([`RobustCore`]) and the arrow between them. Each smaller protocol
//! is the figure with a stage left out, fixed by the constructor:
//!
//! | constructor | fast stage | backup stage, entered | timers armed |
//! |---|---|---|---|
//! | [`FastRobustActor::new`] | yes | on Cheap Quorum's abort, by its set-up | poll, retry, timeout |
//! | [`FastRobustActor::cheap_quorum`] | yes | none: the abort is the outcome | poll, timeout |
//! | [`FastRobustActor::pref_paxos`] | no | at Start, by a prioritized set-up (Algorithm 8) | poll, retry |
//! | [`FastRobustActor::robust_backup`] | no | at Start, by proposing the input (Definition 2) | poll, retry |

use rdma_sim::{LegalChange, MemoryActor, MemoryClient};
use sigsim::{SigVerifier, Signer};
use simnet::{Actor, ActorId, Context, Duration, EventKind, Time};

use crate::cheap_quorum::{self, AbortOutcome, CqCore};
use crate::nebcast;
use crate::robust_backup::RobustCore;
use crate::trusted::SetupEvidence;
use crate::types::{Msg, Pid, RegVal, Value};

/// Which sub-protocol produced the decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Via {
    /// The Cheap Quorum fast path.
    Fast,
    /// The Robust Backup (Preferential Paxos) path.
    Backup,
}

/// Builds a ready-to-add Fast & Robust memory: both Cheap Quorum's and the
/// broadcast's regions.
pub fn memory_actor(procs: &[Pid], leader: Pid) -> MemoryActor<RegVal, Msg> {
    // Cheap Quorum's legalChange already admits only the leader-region
    // revocation; broadcast regions are static, so the same policy is
    // correct for the combined region set.
    let mut mem = MemoryActor::new(LegalChange::Policy(cheap_quorum::legal_change));
    cheap_quorum::configure_memory(&mut mem, procs, leader);
    nebcast::configure_memory(&mut mem, procs);
    mem
}

const POLL_TAG: u64 = 40;
const TIMEOUT_TAG: u64 = 41;
const RETRY_TAG: u64 = 42;

/// How a backup stage without a fast stage before it is entered at Start.
#[derive(Debug)]
enum AtStart {
    /// The input, proposed straight to the wrapped Paxos (Definition 2).
    Propose(Value),
    /// A prioritized set-up, ranked against `cq_leader`'s signature
    /// (Algorithm 8).
    Setup { input: AbortOutcome, cq_leader: Pid },
}

/// The one Byzantine single-decree process: Figure 6 with the stage set
/// its constructor chose (see the module table).
#[derive(Debug)]
pub struct FastRobustActor {
    me: Pid,
    procs: Vec<Pid>,
    client: MemoryClient<RegVal, Msg>,
    fast: Option<CqCore>,
    backup: Option<RobustCore>,
    /// Taken at Start; `None` leaves the backup to Cheap Quorum's abort.
    at_start: Option<AtStart>,
    poll_every: Duration,
    /// Cheap Quorum's timeout (read only with a fast stage).
    timeout: Duration,
    /// The backup's ballot retry period (read only with a backup stage).
    retry_every: Duration,
    relayed_panic: bool,
    decided: Option<Value>,
    /// Which path decided first.
    pub via: Option<Via>,
    /// When this process decided, if it has.
    pub decided_at: Option<Time>,
    // One flag per timer: the poll chain stops as soon as the process is
    // finished, the 120-delay retry chain only when its pending tick sees
    // that — a late panic must restart exactly the chains that ended.
    poll_armed: bool,
    retry_armed: bool,
}

impl FastRobustActor {
    /// The full composition (Figure 6). `leader` is both the Cheap Quorum
    /// leader and the initial Robust Backup leader.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        memories: Vec<ActorId>,
        leader: Pid,
        input: Value,
        signer: Signer,
        verifier: SigVerifier,
        poll_every: Duration,
        timeout: Duration,
        retry_every: Duration,
    ) -> FastRobustActor {
        let fast = CqCore::new(
            me,
            procs.clone(),
            memories.clone(),
            leader,
            input,
            signer.clone(),
            verifier.clone(),
        );
        let backup = RobustCore::new(me, procs.clone(), memories, Some(leader), signer, verifier);
        FastRobustActor {
            timeout,
            retry_every,
            ..FastRobustActor::stages(me, procs, Some(fast), Some(backup), poll_every)
        }
    }

    /// Cheap Quorum alone (Algorithms 4 / 5): the fast stage and no
    /// backup, so a process that panics ends with [`Self::abort`]'s value.
    #[allow(clippy::too_many_arguments)]
    pub fn cheap_quorum(
        me: Pid,
        procs: Vec<Pid>,
        memories: Vec<ActorId>,
        leader: Pid,
        input: Value,
        signer: Signer,
        verifier: SigVerifier,
        poll_every: Duration,
        timeout: Duration,
    ) -> FastRobustActor {
        let fast = CqCore::new(me, procs.clone(), memories, leader, input, signer, verifier);
        FastRobustActor {
            timeout,
            ..FastRobustActor::stages(me, procs, Some(fast), None, poll_every)
        }
    }

    /// Preferential Paxos alone (Algorithm 8): the backup stage, entered at
    /// Start by T-sending `input` with `evidence`; class M is judged
    /// against `cq_leader`'s signature, `backup_leader` seeds Ω.
    #[allow(clippy::too_many_arguments)]
    pub fn pref_paxos(
        me: Pid,
        procs: Vec<Pid>,
        memories: Vec<ActorId>,
        input: Value,
        evidence: SetupEvidence,
        backup_leader: Option<Pid>,
        cq_leader: Pid,
        signer: Signer,
        verifier: SigVerifier,
        poll_every: Duration,
        retry_every: Duration,
    ) -> FastRobustActor {
        let backup = RobustCore::new(me, procs.clone(), memories, backup_leader, signer, verifier);
        FastRobustActor {
            at_start: Some(AtStart::Setup {
                input: AbortOutcome {
                    value: input,
                    evidence,
                },
                cq_leader,
            }),
            retry_every,
            ..FastRobustActor::stages(me, procs, None, Some(backup), poll_every)
        }
    }

    /// Robust Backup alone (Definition 2; weak Byzantine agreement with
    /// `n ≥ 2·f_P + 1`): the backup stage, entered at Start by proposing
    /// `input`.
    #[allow(clippy::too_many_arguments)]
    pub fn robust_backup(
        me: Pid,
        procs: Vec<Pid>,
        memories: Vec<ActorId>,
        input: Value,
        initial_leader: Option<Pid>,
        signer: Signer,
        verifier: SigVerifier,
        poll_every: Duration,
        retry_every: Duration,
    ) -> FastRobustActor {
        let backup = RobustCore::new(
            me,
            procs.clone(),
            memories,
            initial_leader,
            signer,
            verifier,
        );
        FastRobustActor {
            at_start: Some(AtStart::Propose(input)),
            retry_every,
            ..FastRobustActor::stages(me, procs, None, Some(backup), poll_every)
        }
    }

    /// A process with this stage set; each constructor fills in what its
    /// configuration adds.
    fn stages(
        me: Pid,
        procs: Vec<Pid>,
        fast: Option<CqCore>,
        backup: Option<RobustCore>,
        poll_every: Duration,
    ) -> FastRobustActor {
        FastRobustActor {
            me,
            procs,
            client: MemoryClient::new(),
            fast,
            backup,
            at_start: None,
            poll_every,
            timeout: Duration::ZERO,
            retry_every: Duration::ZERO,
            relayed_panic: false,
            decided: None,
            via: None,
            decided_at: None,
            poll_armed: false,
            retry_armed: false,
        }
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<Value> {
        self.decided
    }

    /// Whether this process entered panic mode.
    pub fn panicked(&self) -> bool {
        self.fast.as_ref().is_some_and(CqCore::panicked)
    }

    /// Cheap Quorum's abort outcome, if panic mode completed — where the
    /// protocol ends without a backup stage.
    pub fn abort(&self) -> Option<&AbortOutcome> {
        self.fast.as_ref()?.abort()
    }

    /// Nothing left to drive: the stage the outcome rests on is done — the
    /// backup once the fast stage handed over to it (or is absent), Cheap
    /// Quorum (settled: replicated, or aborted) otherwise.
    fn finished(&self) -> bool {
        let handed_over = self.fast.as_ref().is_none_or(CqCore::panicked);
        match &self.backup {
            Some(rb) if handed_over => rb.decision().is_some(),
            _ => self.fast.as_ref().is_some_and(CqCore::settled),
        }
    }

    fn after_step(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(cq) = &self.fast {
            // Propagate panic exactly once (register write happens in
            // CqCore; the message relay is §7's panic-message optimization).
            if cq.panicked() && !self.relayed_panic {
                self.relayed_panic = true;
                for &q in &self.procs {
                    if q != self.me {
                        ctx.send(q, Msg::Panic { who: self.me });
                    }
                }
            }
            // Feed the abort value into Preferential Paxos (Figure 6's
            // arrow).
            if let (Some(ab), Some(rb)) = (cq.abort(), &mut self.backup) {
                if !rb.entered() {
                    rb.send_setup(ctx, &mut self.client, ab.clone(), cq.leader());
                }
            }
        }
        // Record decisions; Lemma 4.8 lets us assert cross-path agreement.
        let fast_d = self.fast.as_ref().and_then(CqCore::decision);
        let backup_d = self.backup.as_ref().and_then(RobustCore::decision);
        if self.decided.is_none() {
            if let Some(v) = fast_d {
                self.decided = Some(v);
                self.via = Some(Via::Fast);
            } else if let Some(v) = backup_d {
                self.decided = Some(v);
                self.via = Some(Via::Backup);
            }
            if self.decided.is_some() {
                self.decided_at = Some(ctx.now());
                ctx.mark_decided();
            }
        }
        if let (Some(d), Some(c)) = (self.decided, fast_d) {
            assert_eq!(
                d, c,
                "composition broken: fast path diverged at {}",
                self.me
            );
        }
        if let (Some(d), Some(p)) = (self.decided, backup_d) {
            assert_eq!(d, p, "composition broken: backup diverged at {}", self.me);
        }
    }

    /// Arms whichever of the poll chain and the backup's retry chain is
    /// not running (the one place either is started).
    fn arm_timers(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.poll_armed {
            self.poll_armed = true;
            ctx.set_timer(self.poll_every, POLL_TAG);
        }
        if self.backup.is_some() && !self.retry_armed {
            self.retry_armed = true;
            ctx.set_timer(self.retry_every, RETRY_TAG);
        }
    }
}

impl Actor<Msg> for FastRobustActor {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                if let Some(rb) = &mut self.backup {
                    rb.start(ctx, &mut self.client);
                    if let Some(entry) = self.at_start.take() {
                        match entry {
                            AtStart::Propose(v) => rb.propose(ctx, &mut self.client, v),
                            AtStart::Setup { input, cq_leader } => {
                                rb.send_setup(ctx, &mut self.client, input, cq_leader)
                            }
                        }
                        rb.poll(ctx, &mut self.client);
                    }
                }
                if let Some(cq) = &mut self.fast {
                    cq.start(ctx, &mut self.client);
                    cq.poll(ctx, &mut self.client);
                }
                self.arm_timers(ctx);
                if self.fast.is_some() {
                    ctx.set_timer(self.timeout, TIMEOUT_TAG);
                }
                self.after_step(ctx);
            }
            EventKind::Timer { tag: POLL_TAG, .. } => {
                if !self.finished() {
                    // Drive whichever stages still need progress.
                    if let Some(cq) = self.fast.as_mut().filter(|cq| !cq.settled()) {
                        cq.poll(ctx, &mut self.client);
                    }
                    if let Some(rb) = self.backup.as_mut().filter(|rb| rb.entered()) {
                        rb.poll(ctx, &mut self.client);
                    }
                    self.after_step(ctx);
                    ctx.set_timer(self.poll_every, POLL_TAG);
                } else {
                    self.poll_armed = false;
                }
            }
            EventKind::Timer { tag: RETRY_TAG, .. } => {
                if !self.finished() {
                    if let Some(rb) = &mut self.backup {
                        if rb.entered() && rb.decision().is_none() {
                            rb.poke(ctx, &mut self.client);
                            self.after_step(ctx);
                        }
                    }
                    ctx.set_timer(self.retry_every, RETRY_TAG);
                } else {
                    self.retry_armed = false;
                }
            }
            EventKind::Timer {
                tag: TIMEOUT_TAG, ..
            } => {
                // The paper's timeout: an upper bound on common-case
                // delays; expiry without a decision means panic.
                if let Some(cq) = &mut self.fast {
                    if cq.decision().is_none() && !cq.panicked() {
                        cq.panic(ctx, &mut self.client);
                        self.after_step(ctx);
                    }
                }
            }
            EventKind::Timer { .. } => {}
            // A panic relay counts only from a member speaking for itself:
            // anyone else could knock a correct process off the 2-delay
            // path.
            EventKind::Msg {
                from,
                msg: Msg::Panic { who },
            } if who == from && self.procs.contains(&from) => {
                if let Some(cq) = &mut self.fast {
                    cq.panic(ctx, &mut self.client);
                    // The backup this panic leads to needs its chains
                    // running again if the fast path had let them end
                    // (panic mode itself is completion-driven).
                    if self.backup.is_some() {
                        self.arm_timers(ctx);
                    }
                    self.after_step(ctx);
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                if let Some(c) = self.client.on_wire(ctx, from, wire) {
                    // Both stages issue through `self.client`: the
                    // completion moves to the stage whose op it answers.
                    match (&mut self.fast, &mut self.backup) {
                        (Some(cq), _) if cq.owns(&c) => cq.on_completion(ctx, &mut self.client, c),
                        (_, Some(rb)) => {
                            rb.on_completion(ctx, &mut self.client, c);
                        }
                        _ => {}
                    }
                    self.after_step(ctx);
                }
            }
            EventKind::Msg { .. } => {}
            EventKind::LeaderChange { leader } => {
                if let Some(rb) = &mut self.backup {
                    rb.set_leader(ctx, &mut self.client, leader);
                    self.after_step(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{decisions, Scenario};
    use sigsim::SigAuthority;
    use simnet::Simulation;

    pub(crate) struct Built {
        pub sim: Simulation<Msg>,
        pub procs: Vec<Pid>,
        pub mems: Vec<ActorId>,
    }

    /// Runs until every one of `procs` decided (or `max` delays), and
    /// reads their decisions.
    fn run_until_decided(sim: &mut Simulation<Msg>, procs: &[Pid], max: u64) -> Vec<Option<Value>> {
        let decided = |sim: &_| decisions(sim, procs, FastRobustActor::decision);
        sim.run_until(Time::from_delays(max), |sim| {
            decided(sim).iter().all(Option::is_some)
        });
        decided(sim)
    }

    /// `s`'s processes built by `make(i, procs, mems, signer, verifier)`
    /// over `s.m` Fast & Robust memories (both region sets, whatever the
    /// stages). Every slot holds a key, silent stand-ins included.
    fn build_with(
        s: &Scenario,
        make: impl Fn(usize, Vec<Pid>, Vec<ActorId>, Signer, SigVerifier) -> FastRobustActor,
    ) -> Built {
        let mut auth = SigAuthority::new(s.seed ^ 0xF00D);
        let signers: Vec<_> = s.procs().iter().map(|&p| auth.register(p)).collect();
        let sim = s.cluster(
            |i, procs, mems| Box::new(make(i, procs, mems, signers[i].clone(), auth.verifier())),
            s.memories(|procs| memory_actor(procs, ActorId(0))),
        );
        Built {
            sim,
            procs: s.procs(),
            mems: s.mems(),
        }
    }

    /// Fast & Robust over `s`, the fast path panicking after `timeout`.
    fn build_on(s: &Scenario, timeout: u64) -> Built {
        build_with(s, |i, procs, mems, signer, verifier| {
            FastRobustActor::new(
                ActorId(i as u32),
                procs,
                mems,
                ActorId(0),
                Scenario::input(i),
                signer,
                verifier,
                Duration::from_delays(1),
                Duration::from_delays(timeout),
                Duration::from_delays(120),
            )
        })
    }

    fn build(n: usize, m: usize, seed: u64, timeout: u64) -> Built {
        build_on(&Scenario::common_case(n, m, seed), timeout)
    }

    #[test]
    fn common_case_two_delays_no_backup() {
        let mut b = build(3, 3, 1, 60);
        let ds = run_until_decided(&mut b.sim, &b.procs, 59);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
        assert_eq!(b.sim.metrics().first_decision_delays(), Some(2.0));
        // Everyone decided on the fast path.
        for &p in &b.procs {
            let a = b.sim.actor_as::<FastRobustActor>(p).unwrap();
            assert_eq!(a.via, Some(Via::Fast));
            assert!(!a.panicked());
        }
    }

    #[test]
    fn leader_crash_before_propose_falls_back_to_backup() {
        let mut b = build(3, 3, 2, 20);
        b.sim.crash_at(ActorId(0), Time::ZERO);
        let tail = [ActorId(1), ActorId(2)];
        // Ω converges on a correct process (the standard liveness
        // assumption for the backup's Paxos).
        b.sim
            .announce_leader(Time::from_delays(60), &tail, ActorId(1));
        let ds = run_until_decided(&mut b.sim, &tail, 3000);
        assert!(ds.iter().all(|d| d.is_some()), "{ds:?}");
        assert_eq!(ds[0], ds[1], "agreement across backup deciders");
        for &p in &tail {
            assert_eq!(
                b.sim.actor_as::<FastRobustActor>(p).unwrap().via,
                Some(Via::Backup)
            );
        }
    }

    #[test]
    fn leader_decides_then_crashes_backup_confirms_same_value() {
        // The composition lemma end-to-end: the leader decides v=100 on the
        // fast path and crashes; followers panic (timeout), abort with
        // leader-signed values, and the backup must decide 100.
        let mut b = build(3, 3, 3, 15);
        b.sim.crash_at(ActorId(0), Time::from_delays(3));
        let tail = [ActorId(1), ActorId(2)];
        b.sim
            .announce_leader(Time::from_delays(60), &tail, ActorId(1));
        let ds = run_until_decided(&mut b.sim, &tail, 4000);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn silent_byzantine_follower_fast_leader_still_decides() {
        // n = 3 = 2f+1, f = 1: one silent Byzantine follower. The leader
        // still 2-decides; correct follower panics (no unanimity) and the
        // backup confirms the leader's value.
        let mut b = build_with_byzantine(4, 17);
        let correct = [ActorId(0), ActorId(1)];
        let ds = run_until_decided(&mut b.sim, &correct, 5000);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    /// n=3 with process 2 replaced by a silent Byzantine.
    fn build_with_byzantine(seed: u64, timeout: u64) -> Built {
        let mut s = Scenario::common_case(3, 3, seed);
        s.byz_silent = vec![2];
        build_on(&s, timeout)
    }

    #[test]
    fn asynchrony_triggers_abort_but_agreement_holds() {
        for seed in 0..8 {
            let mut b = build(3, 3, seed, 12);
            // Slow, jittery network violates the timeout assumption.
            b.sim.set_default_delay(simnet::DelayModel::Uniform {
                lo: Duration::from_delays(1),
                hi: Duration::from_delays(6),
            });
            let ds = run_until_decided(&mut b.sim, &b.procs, 30_000);
            let got: Vec<Value> = ds.iter().flatten().copied().collect();
            assert_eq!(got.len(), 3, "seed {seed}: {ds:?}");
            assert!(got.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {ds:?}");
            // Validity (weak): some process's input.
            assert!((100..103).contains(&got[0].0), "seed {seed}");
        }
    }

    #[test]
    fn memory_minority_crash_keeps_fast_path() {
        let mut b = build(3, 5, 9, 60);
        let (m0, m3) = (b.mems[0], b.mems[3]);
        b.sim.crash_at(m0, Time::ZERO);
        b.sim.crash_at(m3, Time::ZERO);
        let ds = run_until_decided(&mut b.sim, &b.procs, 59);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
        assert_eq!(b.sim.metrics().first_decision_delays(), Some(2.0));
    }

    /// A `Msg::Panic` from `from` claiming `who`, delivered to `to` at `at`.
    fn inject_panic(sim: &mut Simulation<Msg>, at: u64, to: Pid, from: ActorId, who: Pid) {
        let msg = Msg::Panic { who };
        sim.schedule(Time::from_delays(at), to, EventKind::Msg { from, msg });
    }

    /// `(set at, fires at)` in delays of every `tag` timer `actor` armed,
    /// and when each fired.
    fn timers(events: &[simnet::obs::Event], actor: Pid, tag: u64) -> (Vec<(f64, f64)>, Vec<f64>) {
        use simnet::obs::EventBody;
        let (mut set, mut fired) = (Vec::new(), Vec::new());
        for e in events.iter().filter(|e| e.actor == actor) {
            match e.body {
                EventBody::TimerSet { tag: t, fire_at } if t == tag => {
                    set.push((e.at.as_delays(), fire_at.as_delays()));
                }
                EventBody::TimerFired { tag: t } if t == tag => fired.push(e.at.as_delays()),
                _ => {}
            }
        }
        (set, fired)
    }

    #[test]
    fn late_panic_restarts_only_the_timer_chains_that_ended() {
        // Everyone settles on the fast path within 20 delays, which ends p0's poll
        // chain; its first retry tick (t = 120) is still pending when a
        // panic reaches it at t = 50. One armed flag for both timers used
        // to start a second retry chain there — (50 → 170) next to
        // (0 → 120) — and each chain's poke abandoned the leader's ballot.
        let mut b = build(3, 3, 1, 60);
        b.sim.enable_obs();
        inject_panic(&mut b.sim, 50, ActorId(0), ActorId(1), ActorId(1));
        b.sim.run_to_quiescence(Time::from_delays(5000));
        let events = b.sim.take_obs_events();
        let (set, fired) = timers(&events, ActorId(0), RETRY_TAG);
        assert_eq!(set, [(0.0, 120.0), (120.0, 240.0)]);
        assert_eq!(fired, [120.0, 240.0]);
        // The poll chain had ended and is the one that restarts.
        let (polls, _) = timers(&events, ActorId(0), POLL_TAG);
        assert!(polls.contains(&(50.0, 51.0)), "{polls:?}");
        let ds = decisions(&b.sim, &b.procs, FastRobustActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn panic_counts_only_from_a_member_speaking_for_itself() {
        // A memory, and a member claiming to be another member: neither
        // may knock a correct process off the 2-delay path.
        let mut b = build(3, 3, 1, 60);
        let outsider = b.mems[0];
        inject_panic(&mut b.sim, 1, ActorId(0), outsider, outsider);
        inject_panic(&mut b.sim, 1, ActorId(1), outsider, ActorId(2));
        inject_panic(&mut b.sim, 1, ActorId(2), ActorId(1), ActorId(0));
        b.sim.run_to_quiescence(Time::from_delays(5000));
        assert_eq!(b.sim.metrics().first_decision_delays(), Some(2.0));
        for &p in &b.procs {
            let a = b.sim.actor_as::<FastRobustActor>(p).unwrap();
            assert_eq!((a.decision(), a.via), (Some(Value(100)), Some(Via::Fast)));
            assert!(!a.panicked(), "{p} panicked on a forged relay");
        }
        // The same message from the member it names still panics.
        let mut b = build(3, 3, 1, 60);
        inject_panic(&mut b.sim, 1, ActorId(2), ActorId(1), ActorId(1));
        b.sim.run_to_quiescence(Time::from_delays(5000));
        let a = b.sim.actor_as::<FastRobustActor>(ActorId(2)).unwrap();
        assert!(a.panicked());
        let ds = decisions(&b.sim, &b.procs, FastRobustActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn each_stage_arms_only_its_own_timers() {
        // Cheap Quorum alone has no ballot to retry; Robust Backup alone
        // has no fast path to time out.
        let tags_armed = |mut b: Built| {
            b.sim.enable_obs();
            b.sim.run_to_quiescence(Time::from_delays(2000));
            let ds = decisions(&b.sim, &b.procs, FastRobustActor::decision);
            assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
            let mut tags: Vec<u64> = (b.sim.take_obs_events().iter())
                .filter_map(|e| match e.body {
                    simnet::obs::EventBody::TimerSet { tag, .. } => Some(tag),
                    _ => None,
                })
                .collect();
            tags.sort();
            tags.dedup();
            tags
        };
        let (leader, delays) = (ActorId(0), Duration::from_delays);
        let common = Scenario::common_case(3, 3, 7);
        let fast_only = build_with(&common, |i, procs, mems, signer, verifier| {
            let (me, input) = (ActorId(i as u32), Scenario::input(i));
            FastRobustActor::cheap_quorum(
                me,
                procs,
                mems,
                leader,
                input,
                signer,
                verifier,
                delays(1),
                delays(60),
            )
        });
        assert_eq!(tags_armed(fast_only), [POLL_TAG, TIMEOUT_TAG]);
        let backup_only = build_with(&common, |i, procs, mems, signer, verifier| {
            let (me, input) = (ActorId(i as u32), Scenario::input(i));
            FastRobustActor::robust_backup(
                me,
                procs,
                mems,
                input,
                Some(leader),
                signer,
                verifier,
                delays(1),
                delays(80),
            )
        });
        assert_eq!(tags_armed(backup_only), [POLL_TAG, RETRY_TAG]);
    }
}
