//! State machine replication: one replica shell over two replication
//! engines.
//!
//! The paper's crash-consensus algorithm is single-decree, but its closing
//! remark points at exactly this construction: *"the code shows one
//! instance of consensus, with p1 as initial leader. With many consensus
//! instances, the leader terminates one instance and becomes the default
//! leader in the next."* A [`Replica`] serves a totally-ordered command
//! log where slot `i` is consensus instance `i`; *how* an instance is
//! decided is its [`Engine`]:
//!
//! * [`SmrNode`] = `Replica<`[`PmpLog`]`>` — crash failures. Instance `i`
//!   is Protected Memory Paxos instance `i` over the same memories, driven
//!   through the one [`crate::protected`] proposer: a stable leader commits
//!   one log entry per *single* replicated write — two network delays per
//!   command, the shape of DARE, APUS and Mu. See [`pmp`].
//! * [`ByzSmrNode`] = `Replica<`[`NebLog`]`>` — Byzantine failures at
//!   `n ≥ 2f + 1`. The leader broadcasts batches through signed
//!   non-equivocating broadcast and replicas settle what they deliver.
//!   See [`byz`].
//!
//! # The shell ↔ engine contract
//!
//! The shell owns everything *around* a decision, once: ids and observers,
//! the [`rdma_sim::MemoryClient`], the [`LogCore`] (dense log, session
//! dedup, workload queue), the leadership edge, the retry/poll timer, and
//! the single `Actor` impl — `Start` and the timer tick, `LeaderChange`,
//! `Msg::Mem` → `client.on_wire` → engine, [`Msg::Submit`],
//! [`Msg::InstallSnapshot`] and peer `Decided`/`DecidedMany`. Engines are
//! driven in the repo's `(ctx, client)` idiom, widened to `(ctx, shell)`,
//! and call back into three shell services:
//!
//! * `Shell::next_round` builds the next proposal: a run of *consecutive*
//!   recovered instances first (a takeover's recovery plan is re-committed
//!   before fresh commands, one batch per run — each instance keeps its
//!   own recovered value, so this is ordinary per-instance phase 2, just
//!   amortized), otherwise up to `batch` fresh commands from the workload
//!   (dedup-filtered, a no-op filler when a hole must close), and marks
//!   [`crate::spans::STAGE_PROPOSE`].
//! * `Shell::decide` is the one settle → mark → notify path: new slots
//!   get [`crate::spans::STAGE_DECIDE`] marks and the kernel decision
//!   mark, then `Decided` (one value) or `DecidedMany` goes out.
//! * `Shell::commit` / `Shell::abandon` close a round's workload
//!   accounting. There is **one** accounting: a round takes its consumed
//!   workload slots when it is built ([`LogCore::fill_own`]), banks
//!   its dedup suppressions when it commits and rolls the cursor back
//!   when it is abandoned — crash mode is simply a window-1 pipeline.
//!
//! The orderings every pinned schedule relies on, stated once: **marks
//! before sends** (a round's propose marks precede its memory writes, a
//! settle's decide marks precede its notifications); **peers before
//! observers** (the crash leader notifies `procs` in order, then
//! `observers`); **engine tick before timer re-arm** (on `Start` and on
//! every tick the engine polls, then proposes, and only then is the timer
//! set again).
//!
//! What differs between the modes is declared, not re-implemented:
//! [`Engine::PEERS_DECIDE`] says whether a peer's `Decided` is evidence
//! (crash: the leader's say-so settles followers, and it notifies peers
//! and observers alike; Byzantine: every replica reports only its own
//! settles, to observers, and ignores peers' claims).
//!
//! # Service hooks
//!
//! **Write batching** ([`Replica::with_batch`]): up to `batch` commands
//! per round; `1` (the default) is the paper's unbatched protocol down to
//! the wire, which the golden-schedule tests pin. **Sharded service**:
//! [`Msg::Submit`] appends routed commands at run time, and *observers*
//! ([`Replica::with_observer`], the sharded router) receive decision
//! notifications. **Migration control entries**
//! ([`crate::sharded::rebalance`]) ride the log as opaque values; the
//! migration's state snapshot arrives out of the log
//! ([`Msg::InstallSnapshot`]) and primes session dedup, so a command the
//! source group already committed is suppressed if it is ever re-proposed
//! at the destination.

use std::collections::VecDeque;
use std::sync::Arc;

use rdma_sim::{Completion, MemoryClient};
use simnet::{Actor, ActorId, Context, Duration, EventKind, Time};

use crate::spans::{STAGE_DECIDE, STAGE_PROPOSE};
use crate::types::{Instance, Msg, Pid, RegVal, Value};

pub mod byz;
pub mod core;
pub mod pmp;

pub use byz::NebLog;
pub use core::{LogCore, ReplicaState};
pub use pmp::PmpLog;

/// The crash-mode replica: the log over Protected Memory Paxos ([`pmp`]).
pub type SmrNode = Replica<PmpLog>;
/// The Byzantine-mode replica: the log over non-equivocating broadcast
/// ([`byz`]).
pub type ByzSmrNode = Replica<NebLog>;

/// How a [`Replica`] gets log instances decided (see the module docs for
/// the contract). Every method runs inside the shell's actor handler.
pub trait Engine: Sized + 'static {
    /// Tag of the shell's periodic timer (kept per engine: traces show it).
    const TICK_TAG: u64;
    /// Whether a group member's `Decided`/`DecidedMany` settles this
    /// replica — and, symmetrically, whether this replica's decisions are
    /// sent to its peers (always) or to observers alone (when new).
    const PEERS_DECIDE: bool;

    /// Proposes while this replica leads and the engine has room.
    fn drive(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>);

    /// The periodic tick (and `Start`), before the shell drives.
    fn on_tick(&mut self, _sh: &mut Shell, _ctx: &mut Context<'_, Msg>) {}

    /// Ω announced `leader`; `promoted` is this replica's rising edge.
    fn on_leader_change(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Context<'_, Msg>,
        leader: Pid,
        promoted: bool,
    );

    /// One of this replica's memory operations completed.
    fn on_completion(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>, c: Completion<RegVal>);

    /// Adds the engine's own counters to a run report.
    fn report(&self, _sh: &Shell, _state: &mut ReplicaState) {}
}

/// How many finished rounds' value buffers a shell keeps for reuse: a
/// Byzantine pipeline holds at most 8 rounds in flight, crash mode one.
const SPARE_ROUNDS_CAP: usize = 8;

/// One proposal round: `values[j]` proposed for instance `first + j`.
#[derive(Debug)]
pub(crate) struct Round {
    pub(crate) first: u64,
    pub(crate) values: Vec<Value>,
    /// Workload slots consumed and duplicates suppressed building the
    /// round ([`LogCore::fill_own`]); both 0 for a recovery
    /// re-proposal, which takes nothing from the workload.
    consumed: usize,
    suppressed: u64,
}

/// The engine-independent half of a replica, as engines see it.
#[derive(Debug)]
pub struct Shell {
    pub(crate) me: Pid,
    pub(crate) procs: Vec<Pid>,
    /// Actors outside the replica ring (the sharded router) that receive
    /// this replica's decision notifications.
    observers: Vec<ActorId>,
    /// Max log entries per round (≥ 1).
    batch: usize,
    tick_every: Duration,
    pub(crate) client: MemoryClient<RegVal, Msg>,
    /// Decided log, session dedup, workload queue. Commands carry their
    /// session tag in the value itself (the sharded router's dense 1-based
    /// command id), so the dedup seen-set is just the decided ids.
    pub(crate) core: LogCore,
    pub(crate) is_leader: bool,
    /// [`Engine::PEERS_DECIDE`] of the engine this shell sits over.
    peers_decide: bool,
    /// A takeover's recovery plan: `(instance, value)` ascending, to be
    /// re-committed before fresh commands reach those instances.
    pub(crate) recover: VecDeque<(u64, Value)>,
    /// Wire input refused: a `Decided*` from outside the group, or (set by
    /// the Byzantine engine) a validly signed batch beyond any dense log.
    pub(crate) entries_rejected: u64,
    /// Value buffers of committed and abandoned rounds, empty, for
    /// `next_round` to fill again: a warm replica allocates no round.
    spare_rounds: Vec<Vec<Value>>,
}

impl Shell {
    /// Builds the next round proposing at instance `at`, or `None` when
    /// there is nothing to propose: the recovered run starting at `at` if
    /// the plan has one, else fresh workload — stopping before the plan's
    /// next instance, skipping ids `pending` in an unsettled earlier round
    /// like ids already seen decided. `force` proposes even with the
    /// workload drained (a no-op filler: a new leader's first round must
    /// land so its acquisition is tested by a write).
    pub(crate) fn next_round(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        at: u64,
        force: bool,
        pending: impl Fn(Value) -> bool,
    ) -> Option<Round> {
        while self.recover.front().is_some_and(|&(i, _)| i < at) {
            self.recover.pop_front(); // decided meanwhile through another path
        }
        if !force && self.core.workload_drained() && self.recover.is_empty() {
            return None;
        }
        // The round's values are built once, so sized once: by what there
        // is to propose (a recovered run or the backlog), up to `batch`,
        // in a finished round's buffer when there is one.
        let backlog = (self.core.workload.len()).saturating_sub(self.core.next_cmd);
        let room = self.batch.min(self.recover.len().max(backlog)).max(1);
        let mut values = self.spare_rounds.pop().unwrap_or_default();
        values.reserve_exact(room);
        let (mut consumed, mut suppressed) = (0, 0);
        while values.len() < self.batch {
            match self.recover.front() {
                Some(&(i, v)) if i == at + values.len() as u64 => values.push(v),
                _ => break,
            }
            self.recover.pop_front();
        }
        if values.is_empty() {
            let plan = &self.recover;
            let barred = |i: u64| plan.binary_search_by_key(&i, |r| r.0).is_ok();
            let core = &mut self.core;
            (consumed, suppressed) = core.fill_own(self.batch, at, barred, pending, &mut values);
        }
        for (j, v) in values.iter().enumerate() {
            ctx.obs_mark(v.0, STAGE_PROPOSE, at + j as u64);
        }
        Some(Round {
            first: at,
            values,
            consumed,
            suppressed,
        })
    }

    /// Banks a committed round's accounting (its values are in the log).
    pub(crate) fn commit(&mut self, round: Round) {
        self.core.bank_suppressed(round.suppressed);
        self.recycle(round.values);
    }

    /// Rolls an abandoned round's workload slots back, so its commands
    /// are re-proposed (or dedup-suppressed) by a later round.
    pub(crate) fn abandon(&mut self, round: Round) {
        self.core.unconsume(round.consumed);
        self.recycle(round.values);
    }

    /// Keeps a finished round's buffer for the next one.
    fn recycle(&mut self, mut values: Vec<Value>) {
        if self.spare_rounds.len() < SPARE_ROUNDS_CAP {
            values.clear();
            self.spare_rounds.push(values);
        }
    }

    /// Applies the decided run `first .. first + values.len()` (slots
    /// already decided are skipped); marks what is new. Returns whether
    /// anything was.
    fn settle(&mut self, ctx: &mut Context<'_, Msg>, first: u64, values: &[Value]) -> bool {
        let new = self.core.settle_many(ctx.now(), first, values);
        if new {
            for (j, v) in values.iter().enumerate() {
                ctx.obs_mark(v.0, STAGE_DECIDE, first + j as u64);
            }
            ctx.mark_decided();
        }
        new
    }

    /// Settles a run this replica's engine decided and notifies: peers
    /// then observers, unconditionally, under [`Engine::PEERS_DECIDE`];
    /// observers alone, and only of something new, otherwise. A run of
    /// several values is notified as one shared `Arc<[Value]>`: `values`
    /// is one already when the engine holds it so (the Byzantine wire's),
    /// and is copied into one otherwise.
    pub(crate) fn decide<R>(&mut self, ctx: &mut Context<'_, Msg>, first: u64, values: R)
    where
        R: AsRef<[Value]> + Into<Arc<[Value]>>,
    {
        let new = self.settle(ctx, first, values.as_ref());
        let peers: &[Pid] = match (self.peers_decide, new) {
            (true, _) => &self.procs,
            (false, true) => &[],
            (false, false) => return,
        };
        // One payload, however many recipients.
        let msg = match *values.as_ref() {
            [value] => Msg::Decided {
                instance: Instance(first),
                value,
            },
            _ => Msg::DecidedMany {
                first: Instance(first),
                values: values.into(),
            },
        };
        for &q in peers.iter().chain(&self.observers) {
            if q != self.me {
                ctx.send(q, msg.clone());
            }
        }
    }
}

/// A replica serving a totally-ordered command log through engine `E`.
#[derive(Debug)]
pub struct Replica<E> {
    sh: Shell,
    engine: E,
}

impl<E: Engine> Replica<E> {
    fn over(
        engine: E,
        me: Pid,
        procs: Vec<Pid>,
        initial_leader: Pid,
        workload: Vec<Value>,
        tick_every: Duration,
    ) -> Replica<E> {
        let sh = Shell {
            me,
            procs,
            observers: Vec::new(),
            batch: 1,
            tick_every,
            client: MemoryClient::new(),
            core: LogCore::new(workload),
            is_leader: me == initial_leader,
            peers_decide: E::PEERS_DECIDE,
            recover: VecDeque::new(),
            entries_rejected: 0,
            spare_rounds: Vec::new(),
        };
        Replica { sh, engine }
    }

    /// Sets how many log entries a leader commits per round (clamped to
    /// ≥ 1). `1` reproduces the unbatched protocol exactly, down to the
    /// wire.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.sh.batch = batch.max(1);
        self
    }

    /// Enables client-session dedup: this node, when leading, suppresses
    /// proposals of command ids it has already seen decided. Upgrades the
    /// sharded router's at-least-once re-submission to exactly-once *in
    /// the log* for the common failover path (a command committed by the
    /// crashed leader, learned by the successor through its takeover
    /// scan, then re-submitted by the router). A narrow race remains —
    /// a command recovered-but-not-yet-recommitted can be proposed into
    /// an earlier hole before its recovered copy settles — so the state
    /// machine contract stays "observably exactly-once, log may rarely
    /// duplicate"; [`Replica::duplicates_suppressed`] counts the
    /// suppressions. Off by default: single-group deployments have no
    /// retrying client, and dedup off reproduces the pre-dedup schedule
    /// bit-for-bit.
    pub fn with_session_dedup(mut self) -> Self {
        self.sh.core.dedup = true;
        self
    }

    /// Registers an observer: an actor outside the replica ring (the
    /// sharded router) that receives this replica's decision
    /// notifications — the leader's commits in crash mode, every
    /// replica's own settles in Byzantine mode (the router confirms a
    /// commit only at `f + 1` matching reports, so a lying leader cannot
    /// fake one).
    pub fn with_observer(mut self, observer: ActorId) -> Self {
        self.sh.observers.push(observer);
        self
    }

    /// The contiguous decided prefix of the log.
    pub fn log(&self) -> Vec<Value> {
        self.sh.core.log()
    }

    /// Length of the contiguous decided prefix (O(1)).
    pub fn log_len(&self) -> usize {
        self.sh.core.log_len()
    }

    /// The decided value of `instance`, if any (including beyond a hole).
    pub fn decided(&self, instance: u64) -> Option<Value> {
        self.sh.core.decided(instance)
    }

    /// `(instance, time)` each instance was first decided at this node,
    /// in decision order (instance order under a stable leader). The core
    /// keeps one record per decided run, so this builds the per-instance
    /// list on each call; run reports and tests read it once, at the end.
    pub fn decided_at(&self) -> Vec<(u64, Time)> {
        self.sh.core.decided_at()
    }

    /// Duplicate proposals suppressed so far (see
    /// [`Replica::with_session_dedup`]).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.sh.core.duplicates_suppressed
    }

    /// This replica's state for a run report (counters the engine does
    /// not have stay 0).
    pub fn replica_state(&self) -> ReplicaState {
        let mut state = ReplicaState {
            log: self.log(),
            duplicates_suppressed: self.duplicates_suppressed(),
            entries_rejected: self.sh.entries_rejected,
            ..ReplicaState::default()
        };
        self.engine.report(&self.sh, &mut state);
        state
    }

    /// `Start` and every timer tick: engine first, timer re-arm last.
    fn tick(&mut self, ctx: &mut Context<'_, Msg>) {
        self.engine.on_tick(&mut self.sh, ctx);
        self.engine.drive(&mut self.sh, ctx);
        ctx.set_timer(self.sh.tick_every, E::TICK_TAG);
    }

    /// A `Decided`/`DecidedMany` claim from `from`. Group members are
    /// crash-only in a mode that trusts peers at all, so membership is the
    /// trust line: anyone else's claim is refused and counted, never
    /// applied — its index is an outsider's number. (No frontier bound:
    /// members' notifications legitimately arrive out of order.)
    fn on_peer_decided(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ActorId,
        first: u64,
        values: &[Value],
    ) {
        if !self.sh.peers_decide {
            return; // Byzantine mode trusts nothing it did not deliver itself
        }
        if !self.sh.procs.contains(&from) {
            self.sh.entries_rejected += 1;
            return;
        }
        self.sh.settle(ctx, first, values);
        self.engine.drive(&mut self.sh, ctx);
    }
}

impl<E: Engine> Actor<Msg> for Replica<E> {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        let (sh, engine) = (&mut self.sh, &mut self.engine);
        match ev {
            EventKind::Start => self.tick(ctx),
            EventKind::Timer { tag, .. } if tag == E::TICK_TAG => self.tick(ctx),
            EventKind::Timer { .. } => {}
            EventKind::LeaderChange { leader } => {
                let was = sh.is_leader;
                sh.is_leader = leader == sh.me;
                engine.on_leader_change(sh, ctx, leader, sh.is_leader && !was);
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                if let Some(c) = sh.client.on_wire(ctx, from, wire) {
                    engine.on_completion(sh, ctx, c);
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Decided { instance, value },
            } => self.on_peer_decided(ctx, from, instance.0, &[value]),
            EventKind::Msg {
                from,
                msg: Msg::DecidedMany { first, values },
            } => self.on_peer_decided(ctx, from, first.0, &values),
            EventKind::Msg {
                msg: Msg::InstallSnapshot { seen, .. },
                ..
            } => {
                // A key-range migration's snapshot (this node is in the
                // destination group): prime session dedup with the ids the
                // source group already committed for the sealed range.
                sh.core.install_snapshot(seen);
            }
            EventKind::Msg {
                msg: Msg::Submit { cmds },
                ..
            } => {
                // Routed client commands (sharded service): append to the
                // proposal workload and propose if there is room.
                sh.core.submit(&cmds);
                engine.drive(sh, ctx);
            }
            EventKind::Msg { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    //! What the shell does is the same under both engines, so each
    //! behaviour is tested once, over a table of the two.

    use super::*;
    use crate::harness::Scenario;
    use crate::protected::memory_actor;
    use sigsim::SigAuthority;
    use simnet::{AnyActor, Simulation};

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mode {
        Crash,
        Byz,
    }
    const MODES: [Mode; 2] = [Mode::Crash, Mode::Byz];

    /// What a test sets per cluster; replica 0 leads.
    struct Spec {
        seed: u64,
        batch: usize,
        dedup: bool,
        /// Replica `i`'s preloaded workload.
        workload: fn(u32) -> Vec<Value>,
        observer: bool,
    }

    /// Three replicas over three memories under `mode`'s engine (ids
    /// 0..3 and 3..6; the observer, if any, must be added next as 6).
    fn cluster(mode: Mode, spec: &Spec) -> (Simulation<Msg>, Vec<Pid>) {
        fn finish<E: Engine>(spec: &Spec, node: Replica<E>) -> Box<dyn AnyActor<Msg>> {
            let node = node.with_batch(spec.batch);
            let node = if spec.dedup {
                node.with_session_dedup()
            } else {
                node
            };
            if spec.observer {
                Box::new(node.with_observer(ActorId(6)))
            } else {
                Box::new(node)
            }
        }
        let s = Scenario::common_case(3, 3, spec.seed);
        let mut auth = SigAuthority::new(spec.seed ^ 0xB12A);
        let process = |i, procs, mems| {
            let (me, w) = (ActorId(i as u32), (spec.workload)(i as u32));
            match mode {
                Mode::Crash => {
                    let tick = Duration::from_delays(25);
                    let node = SmrNode::new(me, procs, mems, ActorId(0), w, 1, tick);
                    finish(spec, node)
                }
                Mode::Byz => {
                    let (signer, tick) = (auth.register(me), Duration::from_delays(1));
                    let verifier = auth.verifier();
                    let node =
                        ByzSmrNode::new(me, procs, mems, ActorId(0), w, signer, verifier, tick);
                    finish(spec, node)
                }
            }
        };
        let memories = s.memories(|procs| match mode {
            Mode::Crash => memory_actor(ActorId(0)),
            Mode::Byz => crate::nebcast::memory_actor(procs),
        });
        (s.cluster(process, memories), s.procs())
    }

    /// Replica `p`'s report state and settle times, whichever engine.
    fn state(sim: &Simulation<Msg>, p: Pid) -> (ReplicaState, Vec<(u64, Time)>) {
        fn of<E: Engine>(n: &Replica<E>) -> (ReplicaState, Vec<(u64, Time)>) {
            (n.replica_state(), n.decided_at().to_vec())
        }
        (sim.actor_as::<SmrNode>(p).map(of))
            .or_else(|| sim.actor_as::<ByzSmrNode>(p).map(of))
            .expect("a replica")
    }

    fn log_of(sim: &Simulation<Msg>, p: Pid) -> Vec<Value> {
        state(sim, p).0.log
    }

    fn submit(sim: &mut Simulation<Msg>, at: u64, to: Pid, cmds: &[u64]) {
        let cmds = cmds.iter().map(|&c| Value(c)).collect();
        let msg = Msg::Submit { cmds };
        let from = ActorId(99);
        sim.schedule(Time::from_delays(at), to, EventKind::Msg { from, msg });
    }

    fn empty(_: u32) -> Vec<Value> {
        Vec::new()
    }

    #[test]
    fn submitted_commands_are_proposed_and_batched() {
        // Nodes start with empty workloads; a scripted Submit supplies the
        // leader's commands at run time (the sharded router's path).
        for mode in MODES {
            let spec = Spec {
                seed: 1,
                batch: 4,
                dedup: false,
                workload: empty,
                observer: false,
            };
            let (mut sim, procs) = cluster(mode, &spec);
            submit(&mut sim, 5, procs[0], &[7, 8, 9]);
            sim.run_until(Time::from_delays(400), |s| log_of(s, procs[0]).len() >= 3);
            let (leader, decided_at) = state(&sim, procs[0]);
            assert_eq!(leader.log, vec![Value(7), Value(8), Value(9)], "{mode:?}");
            // All three commands fit one batch: one shared decision time.
            assert_eq!(decided_at.len(), 3, "{mode:?}");
            assert!(decided_at.iter().all(|&(_, t)| t == decided_at[0].1));
        }
    }

    #[test]
    fn session_dedup_suppresses_resubmitted_commands() {
        // Replica 1 takes over and is (re-)submitted a command the old
        // leader already committed: dedup must suppress the duplicate.
        for mode in MODES {
            let spec = Spec {
                seed: 5,
                batch: 1,
                dedup: true,
                workload: |i| if i == 0 { vec![Value(41)] } else { Vec::new() },
                observer: false,
            };
            let (mut sim, procs) = cluster(mode, &spec);
            sim.crash_at(ActorId(0), Time::from_delays(40));
            sim.announce_leader(Time::from_delays(60), &procs, ActorId(1));
            // The "router" re-submits the already-committed 41 plus a new 42.
            submit(&mut sim, 61, procs[1], &[41, 42]);
            sim.run_until(Time::from_delays(2_000), |s| {
                log_of(s, procs[1]).contains(&Value(42))
            });
            let node = state(&sim, procs[1]).0;
            assert_eq!(
                node.log.iter().filter(|&&v| v == Value(41)).count(),
                1,
                "{mode:?}: duplicate not suppressed: {:?}",
                node.log
            );
            assert_eq!(node.duplicates_suppressed, 1, "{mode:?}");
        }
    }

    /// Records decision notifications, standing in for the sharded router.
    struct Observer {
        decided: Vec<(Pid, u64, Vec<Value>)>,
    }
    impl Actor<Msg> for Observer {
        fn on_event(&mut self, _ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
            match ev {
                EventKind::Msg {
                    from,
                    msg: Msg::Decided { instance, value },
                } => self.decided.push((from, instance.0, vec![value])),
                EventKind::Msg {
                    from,
                    msg: Msg::DecidedMany { first, values },
                } => self.decided.push((from, first.0, values.to_vec())),
                _ => {}
            }
        }
    }

    #[test]
    fn observers_receive_decision_notifications() {
        // Crash mode: the leader's commits are the group's word. Byzantine
        // mode: every replica reports its own settles (the router counts
        // f + 1 matching reports).
        for (mode, reporters) in [(Mode::Crash, 0..1), (Mode::Byz, 0..3)] {
            let spec = Spec {
                seed: 9,
                batch: 3,
                dedup: false,
                workload: |i| (0..6).map(|c| Value(1000 * (i as u64 + 1) + c)).collect(),
                observer: true,
            };
            let (mut sim, _) = cluster(mode, &spec);
            let obs = sim.add(Observer {
                decided: Vec::new(),
            });
            assert_eq!(obs, ActorId(6));
            let expected: Vec<Value> = (0..6).map(|c| Value(1000 + c)).collect();
            let stream_of = |s: &Simulation<Msg>, from: u32| -> Vec<Value> {
                let decided = &s.actor_as::<Observer>(obs).unwrap().decided;
                let of_sender = decided.iter().filter(|(q, ..)| *q == ActorId(from));
                of_sender.flat_map(|(.., vs)| vs.iter().copied()).collect()
            };
            sim.run_until(Time::from_delays(400), |s| {
                reporters.clone().all(|q| stream_of(s, q).len() >= 6)
            });
            for q in 0..3 {
                let want = if reporters.contains(&q) {
                    &expected[..]
                } else {
                    &[]
                };
                assert_eq!(stream_of(&sim, q), want, "{mode:?}: reports of {q}");
            }
        }
    }

    #[test]
    fn takeover_preserves_committed_prefix() {
        // The leader commits a few batches and crashes; Ω promotes
        // replica 1, whose takeover must recover the decided prefix before
        // its own (empty) workload — then a Submit drives fresh commands.
        for mode in MODES {
            let spec = Spec {
                seed: 3,
                batch: 2,
                dedup: false,
                workload: |i| match i {
                    0 => (0..4).map(|c| Value(1000 + c)).collect(),
                    _ => Vec::new(),
                },
                observer: false,
            };
            let (mut sim, procs) = cluster(mode, &spec);
            sim.crash_at(ActorId(0), Time::from_delays(40));
            sim.announce_leader(Time::from_delays(60), &procs, ActorId(1));
            submit(&mut sim, 61, procs[1], &[7, 8]);
            sim.run_until(Time::from_delays(2_000), |s| log_of(s, procs[1]).len() >= 6);
            let (l1, l2) = (log_of(&sim, procs[1]), log_of(&sim, procs[2]));
            assert!(
                l1.len() >= 6,
                "{mode:?}: no progress after takeover: {l1:?}"
            );
            // The crashed leader's entries survived, in order, without
            // duplication, and the successor's commands follow.
            let client: Vec<u64> = l1.iter().map(|v| v.0).filter(|&v| v != u64::MAX).collect();
            assert_eq!(client, vec![1000, 1001, 1002, 1003, 7, 8], "{mode:?}");
            // Correct replicas agree on the shared prefix.
            let common = l1.len().min(l2.len());
            assert_eq!(l1[..common], l2[..common], "{mode:?}");
        }
    }

    #[test]
    fn decided_claims_from_outside_the_group_are_refused() {
        // A crash replica takes `Decided*` on its peers' word — so the
        // word must be a peer's. An outsider's claim (in a mixed
        // deployment: an adversary of some Byzantine group) carries an
        // index of its choosing; applied, `1 << 40` sizes the log by it.
        let spec = Spec {
            seed: 2,
            batch: 1,
            dedup: false,
            workload: |i| {
                if i == 0 {
                    vec![Value(1), Value(2)]
                } else {
                    Vec::new()
                }
            },
            observer: false,
        };
        let (mut sim, procs) = cluster(Mode::Crash, &spec);
        let far = Instance(1 << 40);
        let claims = [
            Msg::Decided {
                instance: far,
                value: Value(666),
            },
            Msg::DecidedMany {
                first: far,
                values: [Value(666), Value(667)].into(),
            },
        ];
        for msg in claims {
            let from = ActorId(99);
            sim.schedule(Time::from_delays(1), procs[1], EventKind::Msg { from, msg });
        }
        sim.run_until(Time::from_delays(100), |s| log_of(s, procs[1]).len() >= 2);
        let follower = state(&sim, procs[1]).0;
        assert_eq!(follower.log, vec![Value(1), Value(2)]);
        assert_eq!(follower.entries_rejected, 2);
        let node = sim.actor_as::<SmrNode>(procs[1]).unwrap();
        assert_eq!(node.decided(far.0), None);
    }
}
