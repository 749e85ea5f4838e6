//! The dispatch engine both kernels run on.
//!
//! An [`Engine`] is one complete event-at-a-time kernel minus any policy
//! about *which* event runs next or *where* emitted events go: it owns the
//! actors, crash flags, key queue, scheduling-sequence counter, clock and
//! dispatch [`Core`], and its single [`Engine::step`] is the only place
//! in the crate an event is applied (crash / drop / timer-retire / metrics
//! / obs / handler). The two drivers supply the rest:
//!
//! * [`crate::Simulation`] — one engine; its `pop` consults the schedule
//!   choice hook, and every emitted key re-enters the engine's own queue.
//! * [`crate::ParSimulation`] — one engine per partition; plain `pop`
//!   inside a conservative window, and an emitted event addressed to
//!   another partition is taken out of the slab and staged into an outbox
//!   instead of the local queue.
//!
//! Both closures are generic parameters of `step`, so each driver gets its
//! own monomorphised copy of the loop body with no indirection.
//!
//! ## Where an event is between send and dispatch
//!
//! In one slot of the engine's [`EventSlab`] (`core.slab`), from the
//! `Context::send` / `set_timer` / [`Engine::push`] that wrote it there to
//! the `step` that takes it out and hands it to its handler — also when
//! the step drops it at a crashed target or finds its timer cancelled.
//! What `pending`, the [`KeyQueue`] and the drivers' closures pass around
//! is its [`Key`].
//!
//! ## Which part of the queue a key joins
//!
//! The key of a send a handler emitted may take the queue's FIFO lane
//! ([`Engine::push_key`]); every other key goes to its heap — a timer
//! (marked by [`Key::timer`] when it is armed), a harness-scheduled event
//! or cross-partition arrival ([`Engine::push`]), a crash, and a choice
//! hook's push-back (`pop_chosen`). Which part holds a key changes
//! nothing but the host time: the queue pops in `(at, seq)` order either
//! way.

use rand::rngs::StdRng;

use crate::actor::AnyActor;
use crate::event::EventKind;
use crate::ids::ActorId;
use crate::obs::EventBody;
use crate::queue::{EventSlab, Key, KeyQueue};
use crate::sim::{Context, Core};
use crate::time::Time;

/// Per-kernel state plus the dispatch body, generic over the actor box
/// `A` (`dyn AnyActor<M>` for the monolithic kernel, `dyn AnyActor<M> +
/// Send` for partitions that move across worker threads).
pub(crate) struct Engine<M, A: ?Sized> {
    /// Actor storage, indexed by (global) actor id; `None` for ids this
    /// engine does not own and, transiently, for the actor being run.
    actors: Vec<Option<Box<A>>>,
    /// Crash flags, indexed densely by actor.
    crashed: Vec<bool>,
    /// Every queued key; pops in ascending `(at, seq)` order.
    queue: KeyQueue,
    seq: u64,
    now: Time,
    pub(crate) core: Core<M>,
}

impl<M, A: ?Sized + AnyActor<M>> Engine<M, A> {
    /// An empty engine drawing randomness from `rng`.
    pub(crate) fn new(rng: StdRng) -> Engine<M, A> {
        Engine {
            actors: Vec::new(),
            crashed: Vec::new(),
            queue: KeyQueue::new(),
            seq: 0,
            now: Time::ZERO,
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

    /// Enqueues `ev` for `to` at `at` under the next sequence number: a
    /// harness-scheduled event or a cross-partition arrival, queued in the
    /// heap.
    pub(crate) fn push(&mut self, at: Time, to: ActorId, ev: EventKind<M>) {
        let slot = self.core.slab.insert(ev);
        let key = self.sequenced(Key::new(at, to, slot));
        self.queue.push(key);
    }

    /// Enqueues a crash of `to` at `at` under the next sequence number.
    pub(crate) fn push_crash(&mut self, at: Time, to: ActorId) {
        let key = self.sequenced(Key::new(at, to, Key::CRASH));
        self.queue.push(key);
    }

    /// Enqueues the key of an event a handler emitted under the next
    /// sequence number: a send may take the lane, a timer
    /// ([`Key::timer`]) goes to the heap.
    #[inline]
    pub(crate) fn push_key(&mut self, key: Key) {
        let timer = key.seq == Key::TIMER;
        let key = self.sequenced(key);
        if timer {
            self.queue.push(key);
        } else {
            self.queue.push_send(key);
        }
    }

    /// `key` under the next sequence number.
    #[inline(always)]
    fn sequenced(&mut self, mut key: Key) -> Key {
        self.seq += 1;
        key.seq = self.seq;
        key
    }

    /// Time of the last dispatched event.
    pub(crate) fn now(&self) -> Time {
        self.now
    }

    /// Time of the earliest queued event.
    pub(crate) fn next_time(&self) -> Option<Time> {
        self.queue.peek().map(|key| key.at)
    }

    /// Queued events.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Queued keys in the lane and in the heap.
    #[cfg(test)]
    pub(crate) fn queued_parts(&self) -> (usize, usize) {
        self.queue.parts()
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

    /// Dispatches one event: `pop` takes its key off the queue (it may
    /// read the queued events through the slab; returning `None` ends the
    /// step with `false`), and the key of every event the handler emits
    /// is handed, in emission order, to `emit` along with the engine (to
    /// [`Engine::push_key`] it locally, or to take the event out of
    /// `core.slab` and send it elsewhere) and the emitting actor.
    pub(crate) fn step(
        &mut self,
        pop: impl FnOnce(&mut KeyQueue, &EventSlab<M>) -> Option<Key>,
        mut emit: impl FnMut(&mut Self, ActorId, Key),
    ) -> bool {
        let depth = self.queue.len() as u64;
        if depth > self.core.metrics.peak_queue_len {
            self.core.metrics.peak_queue_len = depth;
        }
        let Some(key) = pop(&mut self.queue, &self.core.slab) else {
            return false;
        };
        debug_assert!(key.at >= self.now, "event queue went backwards");
        self.now = key.at;
        self.core.metrics.events_dispatched += 1;
        let (now, to) = (self.now, key.to);
        if key.slot == Key::CRASH {
            self.mark_crashed(to);
            self.core.metrics.dispatches.crash += 1;
            self.core.obs.record(now, to, || EventBody::Crash);
            return true;
        }
        if self.is_crashed(to) {
            let ev = self.core.slab.take(key.slot);
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
        // Counted and recorded through a reference into the slab; the
        // event itself is read out once, as the handler's argument.
        let queued = self.core.slab.get(key.slot);
        let body = match queued.expect("a queued key names an occupied slot") {
            EventKind::Start => {
                self.core.metrics.dispatches.start += 1;
                EventBody::Dispatch { kind: "start" }
            }
            EventKind::Msg { from, .. } => {
                self.core.metrics.dispatches.msg += 1;
                self.core.metrics.messages_delivered += 1;
                EventBody::Deliver { from: *from }
            }
            &EventKind::Timer { id, tag } => {
                self.core.metrics.dispatches.timer += 1;
                if !self.core.timers.retire(id) {
                    self.core.slab.take(key.slot); // cancelled
                    return true;
                }
                self.core.metrics.timers_fired += 1;
                EventBody::TimerFired { tag }
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
        // Taken right at the call (a local that is inspected first gets
        // copied again into the argument): the slot is vacant before the
        // handler can send, so its first send reuses it.
        let ev = self.core.slab.take(key.slot);
        actor.on_event(&mut Context::new(to, now, &mut self.core), ev);
        self.actors[to.index()] = Some(actor);
        // Keys are `Copy`: read each out by index, so `emit` can have the
        // whole engine and the buffer keeps its capacity across dispatches.
        for i in 0..self.core.pending.len() {
            let key = self.core.pending[i];
            emit(self, to, key);
        }
        self.core.pending.clear();
        true
    }
}
