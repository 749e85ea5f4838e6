//! Kernel throughput smoke test: the dispatch loop must sustain a floor
//! of events per wall-clock second, for a one-word message and for one
//! the size of the service's (112 bytes — what the kernel pays to queue a
//! message depends on its size only if it moves the message around).
//! `#[ignore]`d by default — wall-clock assertions don't belong in CI's
//! default lane (run with `cargo test -p simnet --release -- --ignored`).

use std::time::Instant;

use simnet::{Actor, ActorId, Context, EventKind, Simulation, Time};

/// A countdown message: the count, plus whatever padding `M` carries.
trait Countdown: Sized + 'static {
    fn start(count: u64) -> Self;
    /// The reply, or `None` when the count has run out.
    fn next(self) -> Option<Self>;
}

impl Countdown for u64 {
    fn start(count: u64) -> u64 {
        count
    }
    fn next(self) -> Option<u64> {
        self.checked_sub(1)
    }
}

/// 112 bytes, the size of `agreement::types::Msg`.
struct Wide([u64; 14]);

impl Countdown for Wide {
    fn start(count: u64) -> Wide {
        let mut words = [0x5a5a_5a5a_5a5a_5a5a; 14];
        words[0] = count;
        Wide(words)
    }
    fn next(mut self) -> Option<Wide> {
        self.0[0] = self.0[0].checked_sub(1)?;
        Some(self)
    }
}

struct Pinger {
    peer: ActorId,
    remaining: u64,
}

impl<M: Countdown> Actor<M> for Pinger {
    fn on_event(&mut self, ctx: &mut Context<'_, M>, ev: EventKind<M>) {
        match ev {
            EventKind::Start if ctx.me() == ActorId(0) => {
                ctx.send(self.peer, M::start(self.remaining));
            }
            EventKind::Msg { from, msg } => {
                if let Some(reply) = msg.next() {
                    ctx.send(from, reply);
                }
            }
            _ => {}
        }
    }
}

/// Dispatches `events` ping-pong messages of type `M` and returns the
/// wall seconds.
fn pingpong_secs<M: Countdown>(events: u64) -> f64 {
    let mut sim: Simulation<M> = Simulation::new(1);
    let a = ActorId(0);
    let b = ActorId(1);
    sim.add(Pinger {
        peer: b,
        remaining: events,
    });
    sim.add(Pinger {
        peer: a,
        remaining: events,
    });
    let start = Instant::now();
    sim.run_to_quiescence(Time(u64::MAX));
    let secs = start.elapsed().as_secs_f64();
    assert!(
        sim.metrics().events_dispatched > events,
        "workload did not run"
    );
    secs
}

/// ≥ 2M dispatched events within a 10-second wall budget (release builds
/// do this in well under a second; the slack absorbs debug builds and
/// loaded CI machines).
fn assert_sustains_event_rate<M: Countdown>(what: &str) {
    const EVENTS: u64 = 2_000_000;
    const BUDGET_SECS: f64 = 10.0;
    let secs = pingpong_secs::<M>(EVENTS);
    eprintln!("{EVENTS} {what} messages: {secs:.3}s");
    assert!(
        secs < BUDGET_SECS,
        "dispatched {EVENTS} {what} messages in {secs:.2}s (budget {BUDGET_SECS}s)"
    );
}

#[test]
#[ignore = "wall-clock sensitive; run explicitly"]
fn kernel_sustains_event_rate() {
    assert_sustains_event_rate::<u64>("one-word");
}

/// The same budget for a message the size of the service's.
#[test]
#[ignore = "wall-clock sensitive; run explicitly"]
fn kernel_sustains_event_rate_with_service_sized_messages() {
    assert_eq!(std::mem::size_of::<Wide>(), 112);
    assert_sustains_event_rate::<Wide>("112-byte");
}
