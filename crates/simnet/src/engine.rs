//! The dispatch engine both kernels run on.
//!
//! An [`Engine`] is one complete event-at-a-time kernel minus any policy
//! about *which* event runs next or *where* emitted events go: it owns the
//! actors, crash flags, calendar queue, scheduling-sequence counter, clock
//! and dispatch [`Core`], and its single [`Engine::step`] is the only place
//! in the crate an event is applied (crash / drop / timer-retire / metrics
//! / obs / handler). The two drivers supply the rest:
//!
//! * [`crate::Simulation`] — one engine; its `pop` consults the schedule
//!   choice hook, and every emitted event re-enters the engine's own queue.
//! * [`crate::ParSimulation`] — one engine per partition; plain `pop`
//!   inside a conservative window, and emitted events addressed to another
//!   partition are staged into an outbox instead of the local queue.
//!
//! Both closures are generic parameters of `step`, so each driver gets its
//! own monomorphised copy of the loop body with no indirection.

use rand::rngs::StdRng;

use crate::actor::AnyActor;
use crate::event::EventKind;
use crate::ids::ActorId;
use crate::obs::EventBody;
use crate::queue::{Payload, Scheduled, WheelQueue};
use crate::sim::{Context, Core};
use crate::time::Time;

/// An event emitted by a handler: `(arrival time, target, event)`.
pub(crate) type Emitted<M> = (Time, ActorId, EventKind<M>);

/// Per-kernel state plus the dispatch body, generic over the actor box
/// `A` (`dyn AnyActor<M>` for the monolithic kernel, `dyn AnyActor<M> +
/// Send` for partitions that move across worker threads).
pub(crate) struct Engine<M, A: ?Sized> {
    /// Actor storage, indexed by (global) actor id; `None` for ids this
    /// engine does not own and, transiently, for the actor being run.
    actors: Vec<Option<Box<A>>>,
    /// Crash flags, indexed densely by actor.
    crashed: Vec<bool>,
    queue: WheelQueue<M>,
    seq: u64,
    now: Time,
    /// Recycled buffer that `core.pending` swaps with during dispatch, so
    /// dispatch never reallocates it.
    pending_scratch: Vec<Emitted<M>>,
    pub(crate) core: Core<M>,
}

impl<M, A: ?Sized + AnyActor<M>> Engine<M, A> {
    /// An empty engine drawing randomness from `rng`.
    pub(crate) fn new(rng: StdRng) -> Engine<M, A> {
        Engine {
            actors: Vec::new(),
            crashed: Vec::new(),
            queue: WheelQueue::new(),
            seq: 0,
            now: Time::ZERO,
            pending_scratch: Vec::new(),
            core: Core::new(rng),
        }
    }

    /// Appends the next actor slot (`None`: the id lives on another engine).
    pub(crate) fn add_slot(&mut self, actor: Option<Box<A>>) {
        self.actors.push(actor);
        self.crashed.push(false);
    }

    /// Number of actor slots.
    pub(crate) fn slots(&self) -> usize {
        self.actors.len()
    }

    /// Enqueues `payload` for `to` at `at` under the next sequence number.
    pub(crate) fn push(&mut self, at: Time, to: ActorId, payload: Payload<M>) {
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq: self.seq,
            to,
            payload,
        });
    }

    /// Time of the last dispatched event.
    pub(crate) fn now(&self) -> Time {
        self.now
    }

    /// Time of the earliest queued event.
    pub(crate) fn next_time(&mut self) -> Option<Time> {
        self.queue.next_time()
    }

    /// Queued events.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether `actor` has crashed.
    pub(crate) fn is_crashed(&self, actor: ActorId) -> bool {
        self.crashed.get(actor.index()).copied().unwrap_or(false)
    }

    /// Ids of the crashed actors, ascending.
    pub(crate) fn crashed_ids(&self) -> impl Iterator<Item = ActorId> + '_ {
        (self.crashed.iter().enumerate())
            .filter(|&(_, &c)| c)
            .map(|(i, _)| ActorId(i as u32))
    }

    fn mark_crashed(&mut self, actor: ActorId) {
        if self.crashed.len() <= actor.index() {
            // Crash scheduled for an unregistered id: remember it anyway.
            self.crashed.resize(actor.index() + 1, false);
        }
        self.crashed[actor.index()] = true;
    }

    /// Downcasts actor `id` to its concrete type for inspection.
    pub(crate) fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actors
            .get(id.index())?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable variant of [`Engine::actor_as`].
    pub(crate) fn actor_as_mut<T: 'static>(&mut self, id: ActorId) -> Option<&mut T> {
        self.actors
            .get_mut(id.index())?
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Dispatches one event: `pop` takes it off the queue (returning
    /// `None` ends the step with `false`), and every event the handler
    /// emits is handed, in emission order, to `emit` along with the
    /// engine (to `push` it locally) and the emitting actor.
    pub(crate) fn step(
        &mut self,
        pop: impl FnOnce(&mut WheelQueue<M>) -> Option<Scheduled<M>>,
        mut emit: impl FnMut(&mut Self, ActorId, Emitted<M>),
    ) -> bool {
        let depth = self.queue.len() as u64;
        if depth > self.core.metrics.peak_queue_len {
            self.core.metrics.peak_queue_len = depth;
        }
        let Some(sched) = pop(&mut self.queue) else {
            return false;
        };
        debug_assert!(sched.at >= self.now, "event queue went backwards");
        self.now = sched.at;
        self.core.metrics.events_dispatched += 1;
        self.core.metrics.sample_queue_depth(self.now, depth);
        let (now, to) = (self.now, sched.to);
        let ev = match sched.payload {
            Payload::Crash => {
                self.mark_crashed(to);
                self.core.metrics.dispatches.crash += 1;
                self.core.obs.record(now, to, || EventBody::Crash);
                return true;
            }
            Payload::Deliver(ev) => ev,
        };
        if self.is_crashed(to) {
            self.core.metrics.dispatches.dropped += 1;
            let kind = ev.kind_name();
            self.core
                .obs
                .record(now, to, || EventBody::Dropped { kind });
            // Never-delivered timers still release their slot.
            if let EventKind::Timer { id, .. } = ev {
                self.core.timers.retire(id);
            }
            return true;
        }
        let body = match &ev {
            EventKind::Start => {
                self.core.metrics.dispatches.start += 1;
                EventBody::Dispatch { kind: "start" }
            }
            EventKind::Msg { from, .. } => {
                self.core.metrics.dispatches.msg += 1;
                self.core.metrics.messages_delivered += 1;
                EventBody::Deliver { from: *from }
            }
            EventKind::Timer { id, tag } => {
                self.core.metrics.dispatches.timer += 1;
                if !self.core.timers.retire(*id) {
                    return true; // cancelled
                }
                self.core.metrics.timers_fired += 1;
                EventBody::TimerFired { tag: *tag }
            }
            EventKind::LeaderChange { leader } => {
                self.core.metrics.dispatches.leader += 1;
                EventBody::LeaderChange { leader: *leader }
            }
        };
        self.core.obs.record(now, to, || body);
        let mut actor = self.actors[to.index()]
            .take()
            .expect("actor dispatched on the wrong engine or re-entrantly");
        actor.on_event(&mut Context::new(to, now, &mut self.core), ev);
        self.actors[to.index()] = Some(actor);
        // Swap the pending buffer out, drain it, swap it back: its
        // capacity is reused across every dispatch.
        let mut batch = std::mem::replace(
            &mut self.core.pending,
            std::mem::take(&mut self.pending_scratch),
        );
        for emitted in batch.drain(..) {
            emit(self, to, emitted);
        }
        self.pending_scratch = batch;
        true
    }
}
