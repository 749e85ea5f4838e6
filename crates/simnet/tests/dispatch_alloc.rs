//! Steady-state dispatch allocates nothing.
//!
//! Once a run has seen its deepest queue, the kernel owns every buffer it
//! will need: the event slab and its vacancy list, the key heap, the
//! handler's outbox. This test counts the allocations a relay workload
//! makes after a warm-up and requires none. It is its own test binary
//! because it installs a counting `#[global_allocator]`; only the thread
//! that armed the counter is counted, so the test harness's own threads
//! do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;
use simnet::{
    Actor, ActorId, Context, DelayModel, Duration, EventKind, RunOutcome, Simulation, Time,
};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps a counter, and `count`
// allocates nothing (a `const`-initialised thread local and an atomic).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout, handed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout, handed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout` (every allocation
        // above is `System`'s).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const RELAYS: u32 = 16;
/// Tokens each relay puts in flight at start: 576 in all, the deepest
/// queue of any `perf_snapshot` row.
const TOKENS_PER_RELAY: u64 = 36;

/// Forwards every token it receives to a peer drawn from the kernel's RNG.
struct Relay;

impl Actor<u64> for Relay {
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, ev: EventKind<u64>) {
        let hops = match ev {
            EventKind::Start => 0..TOKENS_PER_RELAY,
            EventKind::Msg { msg, .. } => msg..msg + 1,
            _ => return,
        };
        for hop in hops {
            let to = ActorId(ctx.rng().gen_range(0..RELAYS));
            ctx.send(to, hop + 1);
        }
    }
}

#[test]
fn steady_state_dispatch_makes_no_allocation() {
    let mut sim: Simulation<u64> = Simulation::new(7);
    sim.set_default_delay(DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(40),
    });
    for _ in 0..RELAYS {
        sim.add(Relay);
    }
    let warm = sim.run_to_quiescence(Time::from_delays(2_000));
    assert_eq!(warm, RunOutcome::TimeLimit);
    let events_before = sim.metrics().events_dispatched;
    let allocations = allocations_in(|| {
        sim.run_to_quiescence(Time::from_delays(4_000));
    });
    let events = sim.metrics().events_dispatched - events_before;
    assert!(events > 50_000, "only {events} events in the measured span");
    assert_eq!(
        allocations, 0,
        "{allocations} allocations in {events} steady-state events"
    );
}
