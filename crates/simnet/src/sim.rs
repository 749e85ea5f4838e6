//! The simulation kernel: event queue, dispatch loop, and the [`Context`]
//! through which actors act on the world.

use std::borrow::Cow;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, AnyActor};
use crate::delay::{CostClass, DelayModel};
use crate::engine::Engine;
use crate::event::EventKind;
use crate::ids::{ActorId, TimerId};
use crate::metrics::Metrics;
use crate::obs::{Event, EventBody, ObsRecorder, TraceSink};
use crate::queue::{EventSlab, Key, KeyQueue};
use crate::time::{Duration, Time};

/// A hook that can override the sampled delay of a specific message.
///
/// Receives `(send time, from, to, &message)` and returns `Some(duration)` to
/// pin that message's latency, or `None` to defer to the link's delay model.
/// This is how the Theorem 6.1 adversary delays a victim's writes while
/// letting everything else flow: the asynchronous model permits *any* finite
/// delay, so any hook-constructed schedule is a legal execution.
///
/// Hooks are `Send` so kernel state can move onto worker threads in the
/// partitioned kernel ([`crate::ParSimulation`]); adversary hooks capture
/// only plain data, so this costs nothing in practice.
pub type DelayHook<M> = Box<dyn Fn(Time, ActorId, ActorId, &M) -> Option<Duration> + Send>;

/// One ripe event offered to a [`ChoiceHook`]: an entry scheduled for the
/// current virtual tick, in kernel (`seq`) order among its alternatives.
///
/// `seq` is the kernel-assigned scheduling sequence number — stable across
/// replays of the same choice vector, which is what lets an explorer
/// identify "the same event" between runs that share a prefix.
pub struct Choice<'a, M> {
    /// The tick every offered alternative is scheduled for.
    pub at: Time,
    /// Kernel scheduling sequence number (the default tie-break key).
    pub seq: u64,
    /// The destination actor.
    pub to: ActorId,
    /// What would be dispatched.
    pub payload: ChoicePayload<'a, M>,
}

/// The payload of a [`Choice`]: a deliverable event or a scheduled crash.
pub enum ChoicePayload<'a, M> {
    /// An event delivery (message, timer, start, leader change).
    Deliver(&'a EventKind<M>),
    /// A scheduled crash of the destination actor.
    Crash,
}

/// A schedule-choice hook (see [`Simulation::set_choice_hook`]).
///
/// While installed, the kernel calls it on **every** dispatch with the
/// full slate of events ripe at the current tick, in ascending `seq`
/// order, and dispatches the alternative whose index it returns
/// (out-of-range indices clamp to the last alternative). Calls with a
/// single alternative are forced — the return value is ignored — but are
/// still made, so an explorer can observe the complete dispatch sequence
/// (sleep-set bookkeeping needs the forced events too).
///
/// Determinism contract: a hook that always returns 0 reproduces the
/// unhooked `(time, seq)` order bit-for-bit, and replaying any fixed
/// choice vector is bit-deterministic.
pub type ChoiceHook<M> = Box<dyn FnMut(Time, &[Choice<'_, M>]) -> usize>;

/// Generation-stamped timer slots: O(1) arm/cancel/fire with bounded
/// memory. A [`TimerId`] encodes `(slot, generation)`; cancelling or
/// firing bumps the slot's generation, so stale ids from already-fired or
/// already-cancelled timers are recognized without any tombstone set (the
/// retired pre-overhaul kernel's `BTreeSet<TimerId>` leaked an entry per
/// cancel-after-fire, growing without bound in long adversary runs).
#[derive(Debug, Default)]
pub(crate) struct TimerTable {
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl TimerTable {
    fn encode(slot: u32, gen: u32) -> TimerId {
        TimerId(((gen as u64) << 32) | slot as u64)
    }

    fn decode(id: TimerId) -> (u32, u32) {
        (id.0 as u32, (id.0 >> 32) as u32)
    }

    /// Arms a timer, returning its id.
    fn arm(&mut self) -> TimerId {
        match self.free.pop() {
            Some(slot) => Self::encode(slot, self.gens[slot as usize]),
            None => {
                let slot = self.gens.len() as u32;
                self.gens.push(0);
                Self::encode(slot, 0)
            }
        }
    }

    /// Retires a timer id if it is still live; returns whether it was.
    pub(crate) fn retire(&mut self, id: TimerId) -> bool {
        let (slot, gen) = Self::decode(id);
        match self.gens.get_mut(slot as usize) {
            Some(g) if *g == gen => {
                *g = g.wrapping_add(1);
                self.free.push(slot);
                true
            }
            _ => false,
        }
    }

    /// Live (armed, not yet fired or cancelled) timer count.
    fn live(&self) -> usize {
        self.gens.len() - self.free.len()
    }
}

/// The per-kernel dispatch state shared by [`Simulation`] (one instance)
/// and the partitioned kernel (one instance per partition, each with its
/// own RNG stream): randomness, metrics, the event recorder, the link
/// model, timers, the slab every queued event lives in, and the
/// pending-effects buffer a [`Context`] writes into.
pub(crate) struct Core<M> {
    pub(crate) rng: StdRng,
    pub(crate) metrics: Metrics,
    pub(crate) obs: ObsRecorder,
    pub(crate) default_delay: DelayModel,
    pub(crate) delay_hook: Option<DelayHook<M>>,
    pub(crate) timers: TimerTable,
    /// Home of every event between its send and its dispatch.
    pub(crate) slab: EventSlab<M>,
    /// Keys of the events emitted by the currently-dispatching actor (the
    /// events are already in `slab`), enqueued after it returns.
    pub(crate) pending: Vec<Key>,
}

impl<M> Core<M> {
    /// A fresh dispatch core drawing randomness from `rng`.
    pub(crate) fn new(rng: StdRng) -> Core<M> {
        Core {
            rng,
            metrics: Metrics::new(),
            obs: ObsRecorder::new(),
            default_delay: DelayModel::synchronous(),
            delay_hook: None,
            timers: TimerTable::default(),
            slab: EventSlab::new(),
            pending: Vec::new(),
        }
    }
}

/// The handle through which an actor affects the simulated world during one
/// event dispatch. All effects become visible only after the handler returns.
pub struct Context<'a, M> {
    me: ActorId,
    now: Time,
    core: &'a mut Core<M>,
}

impl<'a, M> Context<'a, M> {
    /// Builds the dispatch handle for one event delivery (kernel-internal:
    /// only the dispatch engine constructs these).
    pub(crate) fn new(me: ActorId, now: Time, core: &'a mut Core<M>) -> Context<'a, M> {
        Context { me, now, core }
    }

    /// The actor currently executing.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to `to` over the link, with latency from the link's delay
    /// model (or the delay hook, if installed and it claims the message).
    /// The message is charged as a plain inline send
    /// ([`CostClass::SEND`]); traffic modelling a specific RDMA verb
    /// should use [`Context::send_classed`].
    #[inline]
    pub fn send(&mut self, to: ActorId, msg: M) {
        self.send_classed(to, msg, CostClass::SEND);
    }

    /// Sends `msg` to `to`, charged under the link's delay model as cost
    /// class `class` (verb, payload size, doorbell batch width). Only
    /// [`DelayModel::Rdma`](crate::DelayModel::Rdma) links distinguish
    /// classes; under every other model this is exactly [`Context::send`],
    /// including RNG draws. A delay hook, if installed, still takes
    /// precedence over the model.
    pub fn send_classed(&mut self, to: ActorId, msg: M, class: CostClass) {
        let hooked = self
            .core
            .delay_hook
            .as_ref()
            .and_then(|h| h(self.now, self.me, to, &msg));
        let delay = match hooked {
            Some(d) => d,
            None => {
                // Split borrows: the model is read from one field while the
                // RNG (a different field) advances — no per-send clone.
                let Core {
                    default_delay, rng, ..
                } = &mut *self.core;
                default_delay.sample_classed(self.now, class, rng)
            }
        };
        self.core.metrics.messages_sent += 1;
        let from = self.me;
        let deliver_at = self.now + delay;
        // Observability reads the already-sampled delay; it never draws
        // randomness or alters scheduling.
        let (now, me) = (self.now, self.me);
        self.core
            .obs
            .record(now, me, || EventBody::Send { to, deliver_at });
        let Core { slab, pending, .. } = &mut *self.core;
        let (slot, cell) = slab.vacancy();
        *cell = Some(EventKind::Msg { from, msg });
        pending.push(Key::new(deliver_at, to, slot));
    }

    /// Arms a one-shot timer firing after `after`; `tag` distinguishes
    /// purposes within the actor. Returns an id usable with
    /// [`Context::cancel_timer`].
    pub fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId {
        let id = self.core.timers.arm();
        let fire_at = self.now + after;
        let (now, me) = (self.now, self.me);
        self.core
            .obs
            .record(now, me, || EventBody::TimerSet { tag, fire_at });
        let slot = self.core.slab.insert(EventKind::Timer { id, tag });
        self.core.pending.push(Key::timer(fire_at, self.me, slot));
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired (or
    /// already-cancelled) timer is a no-op and costs no memory.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.timers.retire(id);
    }

    /// Records that this actor decided (for the k-deciding latency metric).
    pub fn mark_decided(&mut self) {
        let (me, now) = (self.me, self.now);
        self.core.metrics.record_decision(me, now);
    }

    /// The run's deterministic random source.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Mutable access to the run metrics (used by substrate layers to count
    /// memory operations).
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Records a span lifecycle mark ([`EventBody::Mark`]) if structured
    /// recording is enabled: `span` identifies the span (e.g. a client
    /// command id), `stage` the lifecycle stage, `data` one
    /// application-defined word. Free when recording is disabled.
    pub fn obs_mark(&mut self, span: u64, stage: u8, data: u64) {
        let (me, now) = (self.me, self.now);
        self.core
            .obs
            .record(now, me, || EventBody::Mark { span, stage, data });
    }

    /// Records a free-form note ([`EventBody::Note`]) — the escape hatch
    /// for layer-specific happenings. Prefer [`Context::note_with`] on hot
    /// paths: this variant's argument is built by the caller even when
    /// recording is off.
    pub fn note(&mut self, text: impl Into<Cow<'static, str>>) {
        self.note_with(|| text);
    }

    /// Records a lazily-built note; `f` runs only when structured
    /// recording is enabled.
    pub fn note_with<T: Into<Cow<'static, str>>>(&mut self, f: impl FnOnce() -> T) {
        let (me, now) = (self.me, self.now);
        let body = || EventBody::Note { text: f().into() };
        self.core.obs.record(now, me, body);
    }

    /// Records a memory-operation observation ([`EventBody::MemOp`]);
    /// called by the memory-client substrate alongside its op counters.
    pub fn obs_mem_op(&mut self, op: &'static str) {
        let (me, now) = (self.me, self.now);
        self.core.obs.record(now, me, || EventBody::MemOp { op });
    }
}

/// Why a [`Simulation::run_until`] loop stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The event queue drained: nothing will ever happen again.
    Quiescent,
    /// The caller's predicate returned true.
    Predicate,
    /// Virtual time exceeded the given bound.
    TimeLimit,
}

/// A deterministic discrete-event simulation over message type `M`.
///
/// # Examples
///
/// ```
/// use simnet::{Actor, Context, EventKind, Simulation, Time};
///
/// struct Echo;
/// impl Actor<&'static str> for Echo {
///     fn on_event(&mut self, ctx: &mut Context<'_, &'static str>, ev: EventKind<&'static str>) {
///         if let EventKind::Msg { from, msg } = ev {
///             if msg == "ping" {
///                 ctx.send(from, "pong");
///             }
///         }
///     }
/// }
///
/// struct Probe { got_pong: bool }
/// impl Actor<&'static str> for Probe {
///     fn on_event(&mut self, ctx: &mut Context<'_, &'static str>, ev: EventKind<&'static str>) {
///         match ev {
///             EventKind::Start => ctx.send(simnet::ActorId(0), "ping"),
///             EventKind::Msg { msg: "pong", .. } => self.got_pong = true,
///             _ => {}
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(1);
/// let echo = sim.add(Echo);
/// let probe = sim.add(Probe { got_pong: false });
/// sim.run_to_quiescence(Time::from_delays(10));
/// assert!(sim.actor_as::<Probe>(probe).unwrap().got_pong);
/// assert_eq!(echo, simnet::ActorId(0));
/// // One delay out, one delay back:
/// assert_eq!(sim.now(), Time::from_delays(2));
/// ```
pub struct Simulation<M> {
    engine: Engine<M, dyn AnyActor<M>>,
    started: bool,
    /// Recycled buffer holding the keys of the current tick's ripe events
    /// while a choice hook picks among them.
    ripe_scratch: Vec<Key>,
    choice_hook: Option<ChoiceHook<M>>,
}

impl<M: 'static> Simulation<M> {
    /// Creates an empty simulation with a seeded random source and
    /// synchronous (one-delay) links.
    pub fn new(seed: u64) -> Simulation<M> {
        Simulation {
            engine: Engine::new(StdRng::seed_from_u64(seed)),
            started: false,
            ripe_scratch: Vec::new(),
            choice_hook: None,
        }
    }

    /// Registers an actor, returning its id. Ids are dense and assigned in
    /// registration order.
    pub fn add<T: Actor<M>>(&mut self, actor: T) -> ActorId {
        self.add_boxed(Box::new(actor))
    }

    /// Registers a boxed actor.
    pub fn add_boxed(&mut self, actor: Box<dyn AnyActor<M>>) -> ActorId {
        assert!(
            !self.started,
            "cannot add actors after the simulation started"
        );
        let id = ActorId(self.engine.slots() as u32);
        self.engine.add_slot(Some(actor));
        id
    }

    /// Sets the delay model of every link.
    pub fn set_default_delay(&mut self, model: DelayModel) {
        self.engine.core.default_delay = model;
    }

    /// Installs a per-message delay override hook (see [`DelayHook`]).
    pub fn set_delay_hook(&mut self, hook: DelayHook<M>) {
        self.engine.core.delay_hook = Some(hook);
    }

    /// Installs a schedule-choice hook (see [`ChoiceHook`]): on each
    /// dispatch the hook is offered every event ripe at the current tick
    /// and picks which one runs next. Same-tick ordering is the only
    /// schedule freedom the kernel has — events at different ticks stay
    /// time-ordered — so a hook enumerates exactly the legal schedules.
    pub fn set_choice_hook(&mut self, hook: ChoiceHook<M>) {
        self.choice_hook = Some(hook);
    }

    /// Enables structured event recording (see [`crate::obs`]). Strictly
    /// read-only: a recording run is bit-identical to a non-recording one.
    pub fn enable_obs(&mut self) {
        self.engine.core.obs.enable();
    }

    /// Enables structured recording and streams every event into `sink`
    /// as it is recorded (the in-kernel buffer still fills too).
    pub fn attach_obs_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.engine.core.obs.attach_sink(sink);
    }

    /// Drains the structured events recorded so far, in recording order.
    pub fn take_obs_events(&mut self) -> Vec<Event> {
        self.engine.core.obs.take()
    }

    /// Schedules an event for delivery to `to` at `at` (clamped to now).
    /// This is how harnesses inject leader-oracle announcements or any
    /// scripted stimulus.
    pub fn schedule(&mut self, at: Time, to: ActorId, ev: EventKind<M>) {
        let at = at.max(self.now());
        self.engine.push(at, to, ev);
    }

    /// Schedules `actor` to crash at `at`. From that instant the actor
    /// receives no further events: a crashed process takes no steps, and a
    /// crashed memory hangs (its clients' outstanding operations never
    /// complete) — exactly the paper's failure semantics.
    pub fn crash_at(&mut self, actor: ActorId, at: Time) {
        let at = at.max(self.now());
        self.engine.push_crash(at, actor);
    }

    /// Announces `leader` to every actor in `targets` at time `at`,
    /// emulating the Ω leader oracle.
    pub fn announce_leader(&mut self, at: Time, targets: &[ActorId], leader: ActorId) {
        for &t in targets {
            self.schedule(at, t, EventKind::LeaderChange { leader });
        }
    }

    /// Whether `actor` has crashed.
    pub fn is_crashed(&self, actor: ActorId) -> bool {
        self.engine.is_crashed(actor)
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.engine.core.metrics
    }

    /// Live (armed, not yet fired or cancelled) timers, for leak tests.
    pub fn live_timers(&self) -> usize {
        self.engine.core.timers.live()
    }

    /// Downcasts actor `id` to its concrete type for inspection.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.engine.actor_as(id)
    }

    /// Mutable variant of [`Simulation::actor_as`].
    pub fn actor_as_mut<T: 'static>(&mut self, id: ActorId) -> Option<&mut T> {
        self.engine.actor_as_mut(id)
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.engine.slots() {
            let now = self.now();
            self.engine.push(now, ActorId(i as u32), EventKind::Start);
        }
    }

    /// Dispatches the next event. Returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Simulation {
            engine,
            ripe_scratch,
            choice_hook,
            ..
        } = self;
        engine.step(
            |queue, slab| match choice_hook {
                Some(hook) => pop_chosen(queue, slab, ripe_scratch, hook),
                None => queue.pop(),
            },
            |engine, _, key| engine.push_key(key),
        )
    }

    /// Runs until the predicate holds (checked between events), the queue
    /// drains, or virtual time passes `max`.
    pub fn run_until(
        &mut self,
        max: Time,
        mut pred: impl FnMut(&Simulation<M>) -> bool,
    ) -> RunOutcome {
        self.ensure_started();
        loop {
            if pred(self) {
                return RunOutcome::Predicate;
            }
            match self.engine.next_time() {
                None => return RunOutcome::Quiescent,
                Some(next) if next > max => return RunOutcome::TimeLimit,
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Runs until no events remain or virtual time passes `max`.
    pub fn run_to_quiescence(&mut self, max: Time) -> RunOutcome {
        self.run_until(max, |_| false)
    }
}

/// Pops the key of the event a [`ChoiceHook`] selects among everything
/// ripe at the next tick; the hook reads the events themselves through
/// `slab`, where they stay. Unchosen alternatives are pushed straight
/// back with the seqs they had, so future pops (and any same-tick events
/// the dispatch emits, which get strictly larger seqs) keep the canonical
/// order.
fn pop_chosen<M>(
    queue: &mut KeyQueue,
    slab: &EventSlab<M>,
    ripe: &mut Vec<Key>,
    hook: &mut ChoiceHook<M>,
) -> Option<Key> {
    let t = queue.peek()?.at;
    debug_assert!(ripe.is_empty());
    while queue.peek().is_some_and(|key| key.at == t) {
        ripe.push(queue.pop().expect("peeked"));
    }
    let choices: Vec<Choice<'_, M>> = ripe
        .iter()
        .map(|key| Choice {
            at: key.at,
            seq: key.seq,
            to: key.to,
            payload: match slab.get(key.slot) {
                Some(ev) => ChoicePayload::Deliver(ev),
                None => ChoicePayload::Crash,
            },
        })
        .collect();
    let idx = hook(t, &choices).min(ripe.len() - 1);
    drop(choices);
    let chosen = ripe.remove(idx);
    for rest in ripe.drain(..) {
        queue.push(rest);
    }
    Some(chosen)
}

impl<M: 'static> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .field("actors", &self.engine.slots())
            .field("crashed", &self.engine.crashed_ids().collect::<Vec<_>>())
            .field("queued", &self.engine.queued())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    enum TMsg {
        Ping(u32),
        Pong(u32),
    }

    struct Ponger {
        pongs_sent: u32,
    }
    impl Actor<TMsg> for Ponger {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            if let EventKind::Msg {
                from,
                msg: TMsg::Ping(n),
            } = ev
            {
                self.pongs_sent += 1;
                ctx.send(from, TMsg::Pong(n));
            }
        }
    }

    struct Pinger {
        target: ActorId,
        rounds: u32,
        pongs: Vec<u32>,
        decided_at: Option<Time>,
    }
    impl Actor<TMsg> for Pinger {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => ctx.send(self.target, TMsg::Ping(0)),
                EventKind::Msg {
                    msg: TMsg::Pong(n), ..
                } => {
                    self.pongs.push(n);
                    if n + 1 < self.rounds {
                        ctx.send(self.target, TMsg::Ping(n + 1));
                    } else {
                        ctx.mark_decided();
                        self.decided_at = Some(ctx.now());
                    }
                }
                _ => {}
            }
        }
    }

    fn build(rounds: u32) -> (Simulation<TMsg>, ActorId, ActorId) {
        let mut sim = Simulation::new(99);
        let ponger = sim.add(Ponger { pongs_sent: 0 });
        let pinger = sim.add(Pinger {
            target: ponger,
            rounds,
            pongs: Vec::new(),
            decided_at: None,
        });
        (sim, ponger, pinger)
    }

    #[test]
    fn ping_pong_latency_is_two_delays_per_round() {
        let (mut sim, _, pinger) = build(3);
        let out = sim.run_to_quiescence(Time::from_delays(100));
        assert_eq!(out, RunOutcome::Quiescent);
        let p = sim.actor_as::<Pinger>(pinger).unwrap();
        assert_eq!(p.pongs, vec![0, 1, 2]);
        // 3 round trips at 2 delays each.
        assert_eq!(p.decided_at, Some(Time::from_delays(6)));
        assert_eq!(sim.metrics().first_decision_delays(), Some(6.0));
        assert_eq!(sim.metrics().messages_sent, 6);
        assert_eq!(sim.metrics().messages_delivered, 6);
    }

    #[test]
    fn crashed_actor_receives_nothing() {
        let (mut sim, ponger, pinger) = build(5);
        sim.crash_at(ponger, Time::from_delays(3));
        sim.run_to_quiescence(Time::from_delays(100));
        let p = sim.actor_as::<Pinger>(pinger).unwrap();
        // Rounds complete at 2 and 4... but the ping landing after t=3 is
        // dropped, so only the first round's pong (t=2) arrives.
        assert_eq!(p.pongs, vec![0]);
        assert!(sim.is_crashed(ponger));
        assert_eq!(sim.metrics().first_decision(), None);
    }

    #[test]
    fn run_until_predicate() {
        let (mut sim, _, pinger) = build(10);
        let out = sim.run_until(Time::from_delays(1000), |s| {
            s.actor_as::<Pinger>(pinger)
                .is_some_and(|p| p.pongs.len() >= 2)
        });
        assert_eq!(out, RunOutcome::Predicate);
        assert_eq!(sim.now(), Time::from_delays(4));
    }

    #[test]
    fn time_limit_respected() {
        let (mut sim, _, _) = build(1_000);
        let out = sim.run_to_quiescence(Time::from_delays(7));
        assert_eq!(out, RunOutcome::TimeLimit);
        assert!(sim.now() <= Time::from_delays(7));
    }

    #[test]
    fn determinism_across_identical_runs() {
        let mk = || {
            let mut sim: Simulation<TMsg> = Simulation::new(5);
            sim.set_default_delay(DelayModel::Uniform {
                lo: Duration::from_delays(1),
                hi: Duration::from_delays(4),
            });
            let ponger = sim.add(Ponger { pongs_sent: 0 });
            let pinger = sim.add(Pinger {
                target: ponger,
                rounds: 8,
                pongs: Vec::new(),
                decided_at: None,
            });
            sim.run_to_quiescence(Time::from_delays(10_000));
            sim.actor_as::<Pinger>(pinger).unwrap().decided_at
        };
        assert_eq!(mk(), mk());
    }

    struct TimerActor {
        fired: Vec<u64>,
        cancel_second: bool,
    }
    impl Actor<TMsg> for TimerActor {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    ctx.set_timer(Duration::from_delays(1), 1);
                    let t2 = ctx.set_timer(Duration::from_delays(2), 2);
                    ctx.set_timer(Duration::from_delays(3), 3);
                    if self.cancel_second {
                        ctx.cancel_timer(t2);
                    }
                }
                EventKind::Timer { tag, .. } => self.fired.push(tag),
                _ => {}
            }
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut sim: Simulation<TMsg> = Simulation::new(1);
        let a = sim.add(TimerActor {
            fired: Vec::new(),
            cancel_second: true,
        });
        sim.run_to_quiescence(Time::from_delays(10));
        assert_eq!(sim.actor_as::<TimerActor>(a).unwrap().fired, vec![1, 3]);
    }

    /// Cancelling timers that already fired must not accumulate state
    /// (the retired pre-overhaul kernel leaked a tombstone per such
    /// cancel).
    struct CancelAfterFire {
        last: Option<TimerId>,
        rounds: u32,
    }
    impl Actor<TMsg> for CancelAfterFire {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    self.last = Some(ctx.set_timer(Duration::from_delays(1), 0));
                }
                EventKind::Timer { .. } => {
                    // The timer that just fired is cancelled retroactively —
                    // a no-op semantically, a leak in the legacy kernel.
                    if let Some(id) = self.last.take() {
                        ctx.cancel_timer(id);
                    }
                    if self.rounds > 0 {
                        self.rounds -= 1;
                        self.last = Some(ctx.set_timer(Duration::from_delays(1), 0));
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cancel_after_fire_does_not_leak() {
        let mut sim: Simulation<TMsg> = Simulation::new(1);
        sim.add(CancelAfterFire {
            last: None,
            rounds: 500,
        });
        sim.run_to_quiescence(Time::from_delays(10_000));
        assert_eq!(sim.live_timers(), 0, "timer slots leaked");
    }

    /// A 192-byte message, bigger than the service's (112 bytes).
    type Wide = [u64; 24];

    /// Spends a budget of seeded actions, one per event it is handed:
    /// up to three sends (same tick, or 1–40 delays, so that the queue
    /// holds ticks far apart), and a timer set, set and
    /// cancelled, or an old one — live or already fired — cancelled.
    struct Churn {
        peers: u32,
        rng: u64,
        budget: u32,
        timers: Vec<TimerId>,
        /// Most events one dispatch of this actor emitted.
        max_emitted: usize,
    }
    impl Churn {
        fn draw(&mut self) -> u64 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng
        }
        fn after(&mut self) -> Duration {
            match self.draw() % 4 {
                0 => Duration::ZERO,
                _ => Duration::from_delays(1 + self.draw() % 40),
            }
        }
    }
    impl Actor<Wide> for Churn {
        fn on_event(&mut self, ctx: &mut Context<'_, Wide>, _ev: EventKind<Wide>) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let mut emitted = 0;
            for _ in 0..self.draw() % 4 {
                let to = ActorId((self.draw() % self.peers as u64) as u32);
                let mut msg = [0u64; 24];
                msg[0] = self.after().0;
                ctx.send(to, msg);
                emitted += 1;
            }
            match self.draw() % 4 {
                0 => {}
                1 => {
                    let after = self.after();
                    self.timers.push(ctx.set_timer(after, 0));
                    emitted += 1;
                }
                2 => {
                    let after = self.after();
                    let id = ctx.set_timer(after, 1);
                    ctx.cancel_timer(id);
                    emitted += 1;
                }
                _ => {
                    if !self.timers.is_empty() {
                        let i = (self.draw() % self.timers.len() as u64) as usize;
                        ctx.cancel_timer(self.timers.swap_remove(i));
                    }
                }
            }
            self.max_emitted = self.max_emitted.max(emitted);
        }
    }

    const CHURN_CRASHES: [(u32, u64); 2] = [(1, 25), (2, 90)];

    fn build_churn(seed: u64) -> Simulation<Wide> {
        let n = 6;
        let mut sim: Simulation<Wide> = Simulation::new(seed);
        sim.set_delay_hook(Box::new(|_, _, _, m: &Wide| Some(Duration(m[0]))));
        for id in 0..n {
            sim.add(Churn {
                peers: n,
                rng: (seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1,
                budget: 300,
                timers: Vec::new(),
                max_emitted: 0,
            });
        }
        for (actor, at) in CHURN_CRASHES {
            sim.crash_at(ActorId(actor), Time::from_delays(at));
        }
        for (i, at) in [0u64, 5, 25, 33, 70, 200].into_iter().enumerate() {
            let to = ActorId(i as u32 % n);
            sim.schedule(
                Time::from_delays(at),
                to,
                EventKind::Msg {
                    from: to,
                    msg: [0; 24],
                },
            );
        }
        sim
    }

    /// Every queued entry but a crash owns exactly one slot.
    fn assert_slots_match_queue(sim: &Simulation<Wide>) {
        let queued_crashes = (CHURN_CRASHES.iter())
            .filter(|c| !sim.is_crashed(ActorId(c.0)))
            .count();
        assert_eq!(
            sim.engine.core.slab.live(),
            sim.engine.queued() - queued_crashes,
            "at {:?}",
            sim.now()
        );
    }

    #[test]
    fn slab_slots_track_the_queue_at_every_step_and_drain_to_zero() {
        let mut sim = build_churn(7);
        assert_slots_match_queue(&sim);
        let mut stimulated = false;
        while sim.step() {
            assert_slots_match_queue(&sim);
            if !stimulated && sim.now() >= Time::from_delays(20) {
                stimulated = true;
                sim.announce_leader(Time::from_delays(3), &[ActorId(0), ActorId(1)], ActorId(0));
                sim.announce_leader(Time::from_delays(60), &[ActorId(3)], ActorId(0));
                assert_slots_match_queue(&sim);
            }
        }
        let m = sim.metrics();
        assert!(m.dispatches.dropped > 100, "few drops at crashed targets");
        assert!(
            m.dispatches.timer > m.timers_fired,
            "no cancelled timer popped"
        );
        assert!(m.events_dispatched > 2_000);
        // Quiescent: events dropped at a crashed target and cancelled
        // timers gave their slots back too.
        assert_eq!(sim.engine.queued(), 0);
        assert_eq!(sim.engine.core.slab.live(), 0, "event slots leaked");
        assert_eq!(sim.live_timers(), 0);
        // Bounded memory: last-vacated-first reuse means the slab never
        // held more slots than the deepest queue plus what one dispatch
        // emitted on top of it — not one per event ever sent.
        let max_emitted = (0..6)
            .map(|id| sim.actor_as::<Churn>(ActorId(id)).unwrap().max_emitted)
            .max()
            .unwrap();
        let bound = sim.metrics().peak_queue_len as usize + max_emitted;
        assert!(
            sim.engine.core.slab.slots() <= bound,
            "{} slots for a peak queue of {} (+{max_emitted})",
            sim.engine.core.slab.slots(),
            sim.metrics().peak_queue_len
        );
    }

    #[test]
    fn events_left_past_the_time_limit_keep_their_slots() {
        let mut sim = build_churn(7);
        let out = sim.run_to_quiescence(Time::from_delays(30));
        assert_eq!(out, RunOutcome::TimeLimit);
        assert!(sim.engine.queued() > 10);
        assert_slots_match_queue(&sim);
        // And they are still delivered when the run resumes.
        assert_eq!(sim.run_to_quiescence(Time(u64::MAX)), RunOutcome::Quiescent);
        assert_eq!(sim.engine.core.slab.live(), 0);
    }

    #[test]
    fn timer_ids_are_reused_without_confusion() {
        // Arm/cancel churn: generation stamps must keep stale ids inert.
        struct Churn {
            fired: u32,
        }
        impl Actor<TMsg> for Churn {
            fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
                match ev {
                    EventKind::Start => {
                        for _ in 0..100 {
                            let id = ctx.set_timer(Duration::from_delays(1), 7);
                            ctx.cancel_timer(id);
                            // Double-cancel is a no-op.
                            ctx.cancel_timer(id);
                        }
                        ctx.set_timer(Duration::from_delays(2), 9);
                    }
                    EventKind::Timer { tag, .. } => {
                        assert_eq!(tag, 9, "a cancelled timer fired");
                        self.fired += 1;
                    }
                    _ => {}
                }
            }
        }
        let mut sim: Simulation<TMsg> = Simulation::new(1);
        let a = sim.add(Churn { fired: 0 });
        sim.run_to_quiescence(Time::from_delays(10));
        assert_eq!(sim.actor_as::<Churn>(a).unwrap().fired, 1);
        assert_eq!(sim.live_timers(), 0);
    }

    #[test]
    fn sends_take_the_lane_and_timers_wait_in_the_heap() {
        // On a constant link every send is due in the order it was sent.
        // The timer armed first is due long after all of them: queued in
        // the lane, it would turn every later send away.
        struct Chatter {
            left: u32,
        }
        impl Actor<TMsg> for Chatter {
            fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
                if let EventKind::Start = ev {
                    ctx.set_timer(Duration::from_delays(100), 0);
                }
                if self.left > 0 {
                    self.left -= 1;
                    let me = ctx.me();
                    ctx.send(me, TMsg::Ping(self.left));
                }
            }
        }
        let mut sim: Simulation<TMsg> = Simulation::new(1);
        sim.add(Chatter { left: 10 });
        for _ in 0..10 {
            assert!(sim.step());
            assert_eq!(sim.engine.queued_parts(), (1, 1));
        }
        assert!(sim.step());
        assert_eq!(sim.engine.queued_parts(), (0, 1));
        sim.run_to_quiescence(Time::from_delays(1_000));
        assert_eq!(sim.metrics().timers_fired, 1);
        assert_eq!(sim.now(), Time::from_delays(100));
    }

    #[test]
    fn peak_queue_len_is_recorded() {
        let (mut sim, _, _) = build(5);
        assert_eq!(sim.metrics().peak_queue_len, 0);
        sim.run_to_quiescence(Time::from_delays(100));
        // Both Start events were queued before the first dispatch.
        assert!(sim.metrics().peak_queue_len >= 2);
    }

    #[test]
    fn leader_change_is_delivered() {
        struct L {
            leader: Option<ActorId>,
        }
        impl Actor<TMsg> for L {
            fn on_event(&mut self, _ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
                if let EventKind::LeaderChange { leader } = ev {
                    self.leader = Some(leader);
                }
            }
        }
        let mut sim: Simulation<TMsg> = Simulation::new(1);
        let a = sim.add(L { leader: None });
        sim.announce_leader(Time::from_delays(2), &[a], ActorId(9));
        sim.run_to_quiescence(Time::from_delays(10));
        assert_eq!(sim.actor_as::<L>(a).unwrap().leader, Some(ActorId(9)));
    }

    #[test]
    fn delay_hook_overrides_link() {
        let mut sim = Simulation::new(1);
        let ponger = sim.add(Ponger { pongs_sent: 0 });
        let pinger = sim.add(Pinger {
            target: ponger,
            rounds: 1,
            pongs: Vec::new(),
            decided_at: None,
        });
        // Delay all pings by 10 delays; pongs use the default 1.
        sim.set_delay_hook(Box::new(|_, _, _, m| match m {
            TMsg::Ping(_) => Some(Duration::from_delays(10)),
            _ => None,
        }));
        sim.run_to_quiescence(Time::from_delays(100));
        let p = sim.actor_as::<Pinger>(pinger).unwrap();
        assert_eq!(p.decided_at, Some(Time::from_delays(11)));
    }

    #[test]
    fn obs_records_typed_events_and_stays_read_only() {
        use crate::obs::EventBody;
        let traced = || {
            let (mut sim, ponger, _) = build(4);
            sim.enable_obs();
            sim.crash_at(ponger, Time::from_delays(3));
            sim.run_to_quiescence(Time::from_delays(100));
            let evs = sim.take_obs_events();
            (evs, sim.now(), sim.metrics().events_dispatched)
        };
        let untraced = || {
            let (mut sim, ponger, _) = build(4);
            sim.crash_at(ponger, Time::from_delays(3));
            sim.run_to_quiescence(Time::from_delays(100));
            (sim.now(), sim.metrics().events_dispatched)
        };
        let (evs, now, dispatched) = traced();
        // Read-only contract: recording changes nothing observable.
        assert_eq!((now, dispatched), untraced());
        let (evs2, ..) = traced();
        assert_eq!(evs, evs2, "typed events are deterministic");
        assert!(evs.iter().any(|e| matches!(e.body, EventBody::Crash)));
        assert!(evs.iter().any(|e| matches!(e.body, EventBody::Send { .. })));
        assert!(evs
            .iter()
            .any(|e| matches!(e.body, EventBody::Deliver { .. })));
        assert!(evs
            .iter()
            .any(|e| matches!(e.body, EventBody::Dropped { .. })));
        // Monolithic kernel: everything is partition 0, seqs are dense.
        assert!(evs.iter().all(|e| e.partition == 0));
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn obs_sink_streams_alongside_buffer() {
        use crate::obs::CountingSink;
        let (mut sim, _, _) = build(3);
        sim.attach_obs_sink(Box::new(CountingSink::new()));
        sim.run_to_quiescence(Time::from_delays(100));
        let buffered = sim.take_obs_events().len();
        assert!(buffered > 0);
    }

    #[test]
    fn per_kind_dispatch_counts_sum_to_total() {
        let (mut sim, ponger, _) = build(4);
        sim.crash_at(ponger, Time::from_delays(3));
        sim.run_to_quiescence(Time::from_delays(100));
        let m = sim.metrics();
        assert_eq!(m.dispatches.total(), m.events_dispatched);
        assert!(m.dispatches.msg > 0);
        assert_eq!(m.dispatches.crash, 1);
        assert!(m.dispatches.dropped > 0);
    }

    /// Two peers ping a shared collector at the same tick every round, so
    /// every round is a genuine same-tick choice point at the collector.
    struct Fanner {
        target: ActorId,
        id: u32,
        rounds: u32,
    }
    impl Actor<TMsg> for Fanner {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => ctx.send(self.target, TMsg::Ping(self.id)),
                EventKind::Msg {
                    msg: TMsg::Pong(n), ..
                } if n + 1 < self.rounds => {
                    ctx.send(self.target, TMsg::Ping(self.id));
                }
                _ => {}
            }
        }
    }
    struct FanCollector {
        arrivals: Vec<u32>,
        round: u32,
    }
    impl Actor<TMsg> for FanCollector {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            if let EventKind::Msg {
                from,
                msg: TMsg::Ping(id),
            } = ev
            {
                self.arrivals.push(id);
                ctx.send(from, TMsg::Pong(self.round / 2));
                self.round += 1;
            }
        }
    }

    fn build_fan(rounds: u32) -> (Simulation<TMsg>, ActorId) {
        let mut sim: Simulation<TMsg> = Simulation::new(17);
        let collector = sim.add(FanCollector {
            arrivals: Vec::new(),
            round: 0,
        });
        for id in 0..2 {
            sim.add(Fanner {
                target: collector,
                id,
                rounds,
            });
        }
        (sim, collector)
    }

    fn fan_outcome(sim: &mut Simulation<TMsg>, collector: ActorId) -> (Vec<u32>, Time, u64, u64) {
        sim.enable_obs();
        sim.run_to_quiescence(Time::from_delays(1_000));
        let arrivals = sim
            .actor_as::<FanCollector>(collector)
            .unwrap()
            .arrivals
            .clone();
        let mut h = 0xcbf29ce484222325u64;
        for byte in crate::obs::to_text(&sim.take_obs_events()).bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x100000001b3);
        }
        (arrivals, sim.now(), sim.metrics().events_dispatched, h)
    }

    #[test]
    fn zero_choice_hook_reproduces_unhooked_run_bit_for_bit() {
        let (mut plain, collector) = build_fan(4);
        let plain_out = fan_outcome(&mut plain, collector);
        let (mut hooked, collector) = build_fan(4);
        let state = std::rc::Rc::new(std::cell::RefCell::new((0u32, 0u32)));
        let s = state.clone();
        hooked.set_choice_hook(Box::new(move |_, choices| {
            let mut st = s.borrow_mut();
            st.0 += 1;
            if choices.len() == 1 {
                st.1 += 1;
            }
            // Alternatives arrive in ascending seq order.
            assert!(choices.windows(2).all(|w| w[0].seq < w[1].seq));
            0
        }));
        let hooked_out = fan_outcome(&mut hooked, collector);
        assert_eq!(plain_out, hooked_out, "always-0 hook must be the identity");
        let (calls, forced) = *state.borrow();
        // The hook sees every dispatch (forced single-option ones too).
        assert_eq!(calls as u64, plain_out.2);
        assert!(forced > 0, "expected some forced dispatches");
        assert!(calls > forced, "expected some real choice points");
    }

    /// Replays a choice vector: positions beyond the vector take index 0.
    fn run_fan_with_vector(vector: &[usize], rounds: u32) -> (Vec<u32>, Time, u64, u64) {
        let (mut sim, collector) = build_fan(rounds);
        let v = vector.to_vec();
        let mut pos = 0usize;
        sim.set_choice_hook(Box::new(move |_, choices| {
            if choices.len() == 1 {
                return 0;
            }
            let idx = v.get(pos).copied().unwrap_or(0);
            pos += 1;
            idx
        }));
        fan_outcome(&mut sim, collector)
    }

    #[test]
    fn choice_vector_replay_is_bit_deterministic() {
        for vector in [&[][..], &[1][..], &[1, 1][..], &[0, 1, 1][..]] {
            let a = run_fan_with_vector(vector, 4);
            let b = run_fan_with_vector(vector, 4);
            assert_eq!(a, b, "replay of {vector:?} diverged");
        }
    }

    #[test]
    fn choice_hook_reorders_same_tick_events() {
        // Choice points 0 and 1 order the three Start events; point 2 is
        // the collector's first same-tick ping pair. Index 0 there = seq
        // order = fanner 0's ping first; index 1 flips the arrival order.
        let zero = run_fan_with_vector(&[], 4);
        let one = run_fan_with_vector(&[0, 0, 1], 4);
        assert_eq!(zero.0[..2], [0, 1]);
        assert_eq!(one.0[..2], [1, 0]);
        // Same multiset of work, different interleaving.
        assert_eq!(zero.2, one.2, "same events dispatched");
        assert_ne!(zero.3, one.3, "trace must differ");
        // Out-of-range choice clamps to the last alternative.
        let clamped = run_fan_with_vector(&[0, 0, 99], 4);
        assert_eq!(clamped.0, one.0);
    }

    #[test]
    fn trace_records_crash_and_dropped_delivery() {
        let run = || {
            let (mut sim, ponger, _) = build(4);
            sim.enable_obs();
            sim.crash_at(ponger, Time::from_delays(3));
            sim.run_to_quiescence(Time::from_delays(100));
            crate::obs::to_text(&sim.take_obs_events())
        };
        let a = run();
        assert_eq!(a, run(), "trace is part of the determinism contract");
        assert!(a.contains("CRASH"));
        assert!(a.contains("dropped msg (crashed)"));
    }
}
