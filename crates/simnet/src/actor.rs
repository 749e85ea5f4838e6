//! The actor abstraction.
//!
//! A simulation is a set of actors — processes and memories — that take
//! steps only in reaction to events. Per the paper's model (§3), in each
//! step an actor may send messages / invoke memory operations (by emitting
//! further events through the [`Context`]) and update its local state;
//! computation is instantaneous.

use std::any::Any;

use crate::event::EventKind;
use crate::sim::Context;

/// A deterministic event-driven state machine living inside a simulation.
///
/// Implementations must be deterministic functions of (current state, event,
/// context randomness) for runs to be reproducible from a seed.
pub trait Actor<M>: 'static {
    /// Reacts to one event. All effects (sends, timers, metric marks) go
    /// through `ctx`; they are applied after the handler returns.
    fn on_event(&mut self, ctx: &mut Context<'_, M>, ev: EventKind<M>);
}

/// Object-safe wrapper adding downcasting to [`Actor`]; implemented for every
/// actor automatically. Harnesses use it to inspect actor state after a run.
pub trait AnyActor<M>: Actor<M> {
    /// Upcasts to [`Any`] for downcasting by concrete type.
    fn as_any(&self) -> &dyn Any;
}

impl<M, T: Actor<M> + Any> AnyActor<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}
