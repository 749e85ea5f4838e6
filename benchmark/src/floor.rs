//! Kernel-only probe: what one event costs when the handlers do nothing.
//! Trivial actors pass tokens around a ring under the workload's delay
//! model, with as many tokens in flight as the workload's deepest queue, so
//! the number covers queue push/pop, delay sampling and dispatch and nothing
//! of the protocol layers above.

use std::time::Instant;

use simnet::{Actor, ActorId, Context, DelayModel, EventKind, Simulation, Time};

/// Forwards every token to the next actor of the ring.
struct Ping {
    next: ActorId,
    tokens: u64,
}

impl Actor<u64> for Ping {
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, ev: EventKind<u64>) {
        match ev {
            EventKind::Start => (0..self.tokens).for_each(|t| ctx.send(self.next, t)),
            EventKind::Msg { msg, .. } => ctx.send(self.next, msg + 1),
            _ => {}
        }
    }
}

/// Host nanoseconds per dispatched event of a ring of `actors` actors
/// keeping about `in_flight` tokens queued, over `events` events.
pub fn ns_per_event(delay: &DelayModel, actors: usize, in_flight: u64, events: u64) -> f64 {
    let mut sim: Simulation<u64> = Simulation::new(1);
    sim.set_default_delay(delay.clone());
    let actors = actors.max(2);
    for i in 0..actors {
        sim.add(Ping {
            next: ActorId(((i + 1) % actors) as u32),
            tokens: in_flight.div_ceil(actors as u64).max(1),
        });
    }
    let start = Instant::now();
    sim.run_until(Time(u64::MAX), |s| s.metrics().events_dispatched >= events);
    start.elapsed().as_nanos() as f64 / sim.metrics().events_dispatched as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_dispatches_what_it_was_asked_to() {
        let ns = ns_per_event(&DelayModel::synchronous(), 7, 9, 10_000);
        assert!(ns.is_finite() && ns > 0.0);
    }
}
