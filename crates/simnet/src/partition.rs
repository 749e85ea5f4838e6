//! Partitioned parallel simulation kernel: deterministic multi-threaded
//! discrete-event execution.
//!
//! [`Simulation`] dispatches every event on one OS thread, so experiments
//! whose *virtual-time* throughput scales (e.g. the sharded multi-group SMR
//! service: disjoint groups sharing no state) are still wall-clock-bound by
//! single-core dispatch. [`ParSimulation`] removes that bound while keeping
//! the kernel's defining property — every run is a pure function of its
//! seed — *independently of how many worker threads execute it*.
//!
//! # Synchronization protocol (conservative windows)
//!
//! Actors are placed onto `P` partitions (the [`Partitioning`] map). Each
//! partition is a complete sub-kernel — an instance of the same dispatch
//! engine [`Simulation`] runs on (`engine.rs`): its own key queue, its own
//! scheduling-sequence counter, its own generation-stamped
//! timer table, its own metrics and trace, and its own RNG stream (split
//! from the run seed by partition index). The run alternates two phases:
//!
//! 1. **Window execution.** Let `T` be the minimum next-event time across
//!    all partitions and `L` the *lookahead* — a lower bound on every
//!    cross-partition link delay. Each partition independently dispatches
//!    all of its events with time `< T + L`. Sends to co-located actors go
//!    straight into the local queue (any delay, including sub-lookahead
//!    timers and same-tick messages, is fine; the event stays in the
//!    partition's slab and only its key is queued); sends to remote
//!    actors are taken out of the slab and staged into a per-destination
//!    **outbox** in emission order.
//! 2. **Barrier merge.** After every partition reaches the window end, the
//!    coordinator drains all outboxes into the destination partitions'
//!    queues (and slabs) in a fixed order (source partition 0..P, emission
//!    order within each), assigning destination-local sequence numbers;
//!    then the next window is computed, the caller's stop predicate is
//!    evaluated, and the cycle repeats.
//!
//! # Why the result is thread-count-invariant
//!
//! A cross-partition message sent at `t ≥ T` arrives at `t + d ≥ T + L`,
//! i.e. strictly after the current window — so within a window, partitions
//! are causally independent and each sub-kernel's execution is a pure
//! function of its own pre-window state. Worker threads only ever execute
//! *whole partitions within one window*; the assignment of partitions to
//! threads affects nothing observable. Every remaining source of order —
//! intra-partition `(time, seq)` dispatch, merge order at barriers, RNG
//! streams, window boundaries, predicate checks — is fixed by the seed and
//! the partitioning alone. Hence: same seed + same partitioning ⇒
//! bit-identical runs (states, metrics, traces) for **any** thread count,
//! which `tests/` pins with 1-vs-2-vs-4-thread differential runs.
//!
//! The price is the lookahead requirement: every cross-partition send must
//! sample a delay `≥ L` (checked at staging time; violating it panics
//! rather than silently reordering), and `L` must be positive. Placement
//! therefore matters: co-locate tightly-coupled actors (a replication
//! group's replicas and memories), and let only latency-tolerant traffic
//! (a router's submissions and commit observations) cross partitions.
//!
//! # Example
//!
//! ```
//! use simnet::{Actor, Context, Duration, EventKind, ParSimulation, Time};
//!
//! struct Echo;
//! impl Actor<u32> for Echo {
//!     fn on_event(&mut self, ctx: &mut Context<'_, u32>, ev: EventKind<u32>) {
//!         if let EventKind::Msg { from, msg } = ev {
//!             if msg < 3 {
//!                 ctx.send(from, msg + 1); // crosses partitions: 1 delay ≥ L
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim: ParSimulation<u32> = ParSimulation::new(7, 2, Duration::DELAY);
//! let a = sim.add_to(0, Echo);
//! let b = sim.add_to(1, Echo);
//! sim.schedule(Time::ZERO, a, EventKind::Msg { from: b, msg: 0 });
//! sim.set_threads(2);
//! sim.run_to_quiescence(Time::from_delays(100));
//! assert_eq!(sim.merged_metrics().messages_delivered, 4);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, AnyActor};
use crate::delay::DelayModel;
use crate::engine::Engine;
use crate::event::EventKind;
use crate::ids::ActorId;
use crate::metrics::Metrics;
use crate::obs;
use crate::sim::RunOutcome;
use crate::time::{Duration, Time};

/// The actor → partition placement of a [`ParSimulation`].
///
/// Built incrementally by [`ParSimulation::add_to`]; actor ids stay dense
/// and global (assigned in registration order, exactly as in
/// [`crate::Simulation`]) — partitioning changes *where* an actor executes,
/// never its identity.
#[derive(Clone, Debug)]
pub struct Partitioning {
    parts: usize,
    of: Vec<u32>,
}

impl Partitioning {
    /// An empty placement over `parts` partitions.
    pub fn new(parts: usize) -> Partitioning {
        assert!(parts >= 1, "need at least one partition");
        Partitioning {
            parts,
            of: Vec::new(),
        }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Number of placed actors.
    pub fn len(&self) -> usize {
        self.of.len()
    }

    /// Whether no actor has been placed yet.
    pub fn is_empty(&self) -> bool {
        self.of.is_empty()
    }

    /// Places the next actor (dense id order) on `partition`, returning
    /// its id.
    pub fn place(&mut self, partition: usize) -> ActorId {
        assert!(partition < self.parts, "partition out of range");
        let id = ActorId(self.of.len() as u32);
        self.of.push(partition as u32);
        id
    }

    /// The partition actor `a` executes on.
    pub fn partition_of(&self, a: ActorId) -> usize {
        self.of[a.index()] as usize
    }

    /// The raw placement map, indexed by actor id.
    pub fn map(&self) -> &[u32] {
        &self.of
    }
}

/// An event on its way to another partition: `(arrival time, target,
/// event)`. Crossing is the one place an event leaves its slab between
/// send and dispatch — taken out of the sender's, written into the
/// destination's at the barrier merge.
type Staged<M> = (Time, ActorId, EventKind<M>);

/// One partition: a complete dispatch [`Engine`] (queue, sequence counter,
/// timers, RNG stream, metrics, trace, actors) plus the per-destination
/// outboxes its cross-partition sends are staged into.
struct SubKernel<M> {
    part: usize,
    engine: Engine<M, dyn AnyActor<M> + Send>,
    /// Events staged for other partitions during the current window, in
    /// emission order, one queue per destination partition.
    outbox: Vec<Vec<Staged<M>>>,
}

impl<M: 'static> SubKernel<M> {
    fn new(part: usize, parts: usize, rng: StdRng) -> SubKernel<M> {
        let mut engine = Engine::new(rng);
        // Events this sub-kernel records carry its partition index, so a
        // merged stream stays attributable (and deterministically ordered).
        engine.core.obs.set_partition(part as u32);
        SubKernel {
            part,
            engine,
            outbox: (0..parts).map(|_| Vec::new()).collect(),
        }
    }

    /// Dispatches every queued event with time `< window_end` — the heart
    /// of a window's parallel phase. Local sends re-enter the queue,
    /// remote sends are staged for the barrier merge.
    fn step_window(&mut self, window_end: Time, placement: &[u32], lookahead: Duration) {
        let SubKernel {
            part,
            engine,
            outbox,
        } = self;
        while engine.next_time().is_some_and(|t| t < window_end) {
            engine.step(
                |queue, _| queue.pop(),
                |engine, from, key| {
                    let (at, to) = (key.at, key.to);
                    let dest = placement[to.index()] as usize;
                    if dest == *part {
                        engine.push_key(key);
                    } else {
                        assert!(
                            at >= engine.now() + lookahead,
                            "cross-partition send {from} -> {to} at {at:?} beats the \
                             lookahead {lookahead:?}: the partitioning is unsound for \
                             this delay model",
                        );
                        outbox[dest].push((at, to, engine.core.slab.take(key.slot)));
                    }
                },
            );
        }
    }
}

/// Read access to every actor of a [`ParSimulation`] at a barrier (the
/// stop predicate's view) or after a run ([`ParSimulation::with_actors`]).
pub struct ParActors<'a, M> {
    guards: Vec<MutexGuard<'a, SubKernel<M>>>,
    of: &'a [u32],
}

impl<'a, M: 'static> ParActors<'a, M> {
    /// Locks every partition (callers hold no partition lock).
    fn lock_all(parts: &'a [Mutex<SubKernel<M>>], of: &'a [u32]) -> ParActors<'a, M> {
        let guards = parts.iter().map(|m| m.lock().expect(UNPOISONED)).collect();
        ParActors { guards, of }
    }

    /// Downcasts actor `id` to its concrete type for inspection.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        let part = *self.of.get(id.index())? as usize;
        self.guards[part].engine.actor_as(id)
    }
}

/// Why locking a partition cannot fail: a panic inside a window poisons
/// its partition's mutex, but it also propagates out of
/// [`ParSimulation::run_until`] before anything locks that partition again.
const UNPOISONED: &str = "no partition lock is taken after a panicking window";

/// Reusable hybrid barrier: spins briefly (multi-core fast path), then
/// yields (so oversubscribed runs — more threads than cores — stay
/// correct, merely slower). Sense-reversing via a generation counter.
///
/// A participant that panics never arrives, which would strand the others
/// forever; each participant therefore holds a [`PoisonOnPanic`] guard,
/// and [`SpinBarrier::wait`] gives up as soon as the barrier is poisoned.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    /// Set once by a panicking participant. Publishes no data (the panic
    /// payload travels through the thread join), so any ordering works;
    /// it rides the Release/Acquire pair the spin loop already uses.
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Waits for all `n` participants; `false` means one of them panicked
    /// and the caller must stop using the barrier and unwind the run.
    #[must_use]
    fn wait(&self) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return true;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            spins = spins.saturating_add(1);
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        true
    }
}

/// Held by every barrier participant for as long as it takes part:
/// unwinding through it poisons the barrier, releasing the other
/// participants from [`SpinBarrier::wait`].
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

/// Per-round control published by the coordinator to the worker threads.
struct RoundCtl {
    window_end: AtomicU64,
    stop: AtomicBool,
    barrier: SpinBarrier,
}

/// What the coordinator decided at a barrier.
enum Ctl {
    Stop(RunOutcome),
    Window(Time),
}

/// A deterministic discrete-event simulation over message type `M`, split
/// into partitions that execute in parallel. See the [module docs]
/// (self) for the synchronization protocol and the determinism argument.
///
/// Differences from [`crate::Simulation`]:
///
/// * Actors are registered with an explicit partition
///   ([`ParSimulation::add_to`]) and must be `Send`.
/// * Randomness is split per partition, and the stop predicate is
///   evaluated at window barriers rather than between single events — so a
///   partitioned run is a *different* (equally legal) schedule than the
///   monolithic kernel's for the same seed. What is guaranteed is
///   invariance in the thread count: for a fixed seed and partitioning,
///   runs with 1, 2, or any number of worker threads are bit-identical.
/// * Delay hooks are unsupported (they could undercut the lookahead),
///   and the schedule-choice hook is a monolithic-kernel instrument with
///   no counterpart here.
pub struct ParSimulation<M> {
    parts: Vec<Mutex<SubKernel<M>>>,
    plan: Partitioning,
    lookahead: Duration,
    threads: usize,
    started: bool,
    reached: Time,
    /// Merge scratch: staged events collected per destination partition.
    inbound: Vec<Vec<Staged<M>>>,
}

impl<M: Send + 'static> ParSimulation<M> {
    /// Creates an empty partitioned simulation: `parts` sub-kernels whose
    /// RNG streams are split from `seed`, synchronized with the given
    /// `lookahead` (a lower bound on every cross-partition link delay;
    /// must be positive — with zero lookahead no two partitions could
    /// ever safely run in parallel).
    pub fn new(seed: u64, parts: usize, lookahead: Duration) -> ParSimulation<M> {
        assert!(parts >= 1, "need at least one partition");
        assert!(
            lookahead > Duration::ZERO,
            "partitioned execution needs a positive lookahead"
        );
        let kernels = (0..parts)
            .map(|p| {
                // SplitMix-style stream separation: partition p's stream is
                // a function of (seed, p) only, never of the thread count.
                let stream = seed.wrapping_add((p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Mutex::new(SubKernel::new(p, parts, StdRng::seed_from_u64(stream)))
            })
            .collect();
        ParSimulation {
            parts: kernels,
            plan: Partitioning::new(parts),
            lookahead,
            threads: 1,
            started: false,
            reached: Time::ZERO,
            inbound: (0..parts).map(|_| Vec::new()).collect(),
        }
    }

    /// Every partition's engine, in partition order (no run in progress).
    fn engines(&mut self) -> impl Iterator<Item = &mut Engine<M, dyn AnyActor<M> + Send>> {
        (self.parts.iter_mut()).map(|k| &mut k.get_mut().expect(UNPOISONED).engine)
    }

    /// The engine `actor` is placed on.
    fn engine_of(&mut self, actor: ActorId) -> &mut Engine<M, dyn AnyActor<M> + Send> {
        let p = self.plan.partition_of(actor);
        &mut self.parts[p].get_mut().expect(UNPOISONED).engine
    }

    /// Sets how many OS threads execute windows (clamped to
    /// `1..=partitions` at run time). The thread count never affects
    /// results — only wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The lookahead this simulation synchronizes on.
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    /// Registers `actor` on `partition`, returning its (global, dense)
    /// id. Ids are assigned in registration order across all partitions,
    /// exactly as in [`crate::Simulation::add`]; every sub-kernel keeps a
    /// global-length actor table (`None` for actors it does not own) so
    /// dispatch indexes by global id with no translation.
    pub fn add_to<T: Actor<M> + Send>(&mut self, partition: usize, actor: T) -> ActorId {
        assert!(!self.started, "cannot add actors after the run started");
        let id = self.plan.place(partition);
        let mut boxed: Option<Box<dyn AnyActor<M> + Send>> = Some(Box::new(actor));
        for (p, engine) in self.engines().enumerate() {
            engine.add_slot(if p == partition { boxed.take() } else { None });
        }
        id
    }

    /// Sets the delay model of every link, on every partition.
    /// Cross-partition links must never sample below the lookahead; that
    /// is checked per message at staging time.
    pub fn set_default_delay(&mut self, model: DelayModel) {
        for engine in self.engines() {
            engine.core.default_delay = model.clone();
        }
    }

    /// Schedules an event for delivery to `to` at `at` (clamped to the
    /// time the run has reached), e.g. scripted Ω announcements.
    pub fn schedule(&mut self, at: Time, to: ActorId, ev: EventKind<M>) {
        let at = at.max(self.reached);
        self.engine_of(to).push(at, to, ev);
    }

    /// Schedules `actor` to crash at `at`: from that instant it receives
    /// no further events (the paper's failure semantics, exactly as in
    /// [`crate::Simulation::crash_at`]).
    pub fn crash_at(&mut self, actor: ActorId, at: Time) {
        let at = at.max(self.reached);
        self.engine_of(actor).push_crash(at, actor);
    }

    /// Announces `leader` to every actor in `targets` at time `at`,
    /// emulating the Ω leader oracle.
    pub fn announce_leader(&mut self, at: Time, targets: &[ActorId], leader: ActorId) {
        for &t in targets {
            self.schedule(at, t, EventKind::LeaderChange { leader });
        }
    }

    /// The latest virtual time any partition has reached.
    pub fn now(&self) -> Time {
        self.reached
    }

    /// All partitions' metrics merged into one record: counters summed,
    /// queue peaks maxed, decision instants unioned (earliest wins).
    pub fn merged_metrics(&mut self) -> Metrics {
        let mut merged = Metrics::new();
        for engine in self.engines() {
            merged.absorb(&engine.core.metrics);
        }
        merged
    }

    /// Enables structured event recording (see [`crate::obs`]) on every
    /// partition. Strictly read-only: recording never perturbs the run.
    pub fn enable_obs(&mut self) {
        for engine in self.engines() {
            engine.core.obs.enable();
        }
    }

    /// Drains every partition's recorded events into one stream, ordered
    /// by `(time, partition, per-partition seq)` — identical for any
    /// worker-thread count, since each partition's stream is.
    pub fn take_obs_events(&mut self) -> Vec<obs::Event> {
        obs::merge_events(self.engines().map(|e| e.core.obs.take()).collect())
    }

    /// Per-partition peak event-queue depths, indexed by partition. Under
    /// partitioning a single global "peak queue length" is ambiguous
    /// (no global queue exists); this is the honest quantity, with
    /// [`ParSimulation::merged_metrics`]' `peak_queue_len` reporting their
    /// max.
    pub fn partition_peak_queue_lens(&mut self) -> Vec<u64> {
        (self.engines().map(|e| e.core.metrics.peak_queue_len)).collect()
    }

    /// Locks every partition and hands the caller a read view of all
    /// actors (post-run state extraction).
    pub fn with_actors<R>(&mut self, f: impl FnOnce(&ParActors<'_, M>) -> R) -> R {
        f(&ParActors::lock_all(&self.parts, self.plan.map()))
    }

    /// Whether `actor` has crashed.
    pub fn is_crashed(&mut self, actor: ActorId) -> bool {
        self.engine_of(actor).is_crashed(actor)
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.plan.len() {
            let to = ActorId(i as u32);
            self.engine_of(to).push(Time::ZERO, to, EventKind::Start);
        }
    }

    /// Runs until the predicate holds (checked at window barriers), every
    /// queue drains, or virtual time passes `max`. The outcome — and every
    /// bit of kernel and actor state — is identical for any thread count.
    ///
    /// A panic inside any window (an actor's `assert!`, an undercut
    /// lookahead) propagates to the caller with its original payload,
    /// whichever thread it happened on.
    pub fn run_until<F>(&mut self, max: Time, mut pred: F) -> RunOutcome
    where
        F: FnMut(&ParActors<'_, M>) -> bool,
    {
        self.ensure_started();
        let threads = self.threads.clamp(1, self.parts.len());
        let lookahead = self.lookahead;
        // Split borrows once: workers share `parts`, the coordinator also
        // uses the merge scratch and placement map.
        let parts = &self.parts;
        let plan_of = self.plan.map();
        let inbound = &mut self.inbound;
        let reached = &mut self.reached;
        let ctl = RoundCtl {
            window_end: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            barrier: SpinBarrier::new(threads),
        };
        // Worker `w`'s share of one window: partitions w, w + threads, …
        // Which thread runs a partition is unobservable, so any thread
        // count (one included: the barrier then never waits) is the same
        // run.
        let run_window = |w: usize, end: Time| {
            for kernel in parts.iter().skip(w).step_by(threads) {
                let mut k = kernel.lock().expect(UNPOISONED);
                k.step_window(end, plan_of, lookahead);
            }
        };
        std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads)
                .map(|w| {
                    let (ctl, run_window) = (&ctl, &run_window);
                    scope.spawn(move || {
                        let _poison = PoisonOnPanic(&ctl.barrier);
                        // Round start: the coordinator has published the
                        // window (or the stop flag) before releasing this.
                        while ctl.barrier.wait() && !ctl.stop.load(Ordering::Acquire) {
                            run_window(w, Time(ctl.window_end.load(Ordering::Acquire)));
                            // Round end: hand the partitions back to the
                            // coordinator for the barrier merge.
                            if !ctl.barrier.wait() {
                                return;
                            }
                        }
                    })
                })
                .collect();
            // Coordinator (doubles as worker 0). Workers are parked at the
            // round-start barrier whenever control runs, so locks are free.
            let poison = PoisonOnPanic(&ctl.barrier);
            let outcome = loop {
                match Self::control(parts, plan_of, inbound, reached, max, lookahead, &mut pred) {
                    Ctl::Stop(outcome) => {
                        ctl.stop.store(true, Ordering::Release);
                        // Release the workers into their exit.
                        break ctl.barrier.wait().then_some(outcome);
                    }
                    Ctl::Window(end) => {
                        ctl.window_end.store(end.0, Ordering::Release);
                        if !ctl.barrier.wait() {
                            break None;
                        }
                        run_window(0, end);
                        if !ctl.barrier.wait() {
                            break None;
                        }
                    }
                }
            };
            drop(poison);
            // Joining by hand (rather than letting the scope do it) keeps a
            // worker's own panic payload instead of the scope's generic one.
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            outcome.expect("the barrier is only poisoned by a panicking worker")
        })
    }

    /// Runs until no events remain or virtual time passes `max`.
    pub fn run_to_quiescence(&mut self, max: Time) -> RunOutcome {
        self.run_until(max, |_| false)
    }

    /// The coordinator's barrier step: merge all outboxes (fixed source
    /// order ⇒ deterministic destination sequence numbers), advance the
    /// reached time, evaluate the stop predicate, and pick the next
    /// window `[T, T + lookahead)` from the global minimum next-event
    /// time `T`.
    #[allow(clippy::too_many_arguments)]
    fn control<F>(
        parts: &[Mutex<SubKernel<M>>],
        plan_of: &[u32],
        inbound: &mut [Vec<Staged<M>>],
        reached: &mut Time,
        max: Time,
        lookahead: Duration,
        pred: &mut F,
    ) -> Ctl
    where
        F: FnMut(&ParActors<'_, M>) -> bool,
    {
        // Pass 1: collect every partition's staged events, per destination,
        // in source-partition order (append preserves emission order).
        for kernel in parts {
            let mut k = kernel.lock().expect(UNPOISONED);
            for (dest, staged) in inbound.iter_mut().enumerate() {
                if !k.outbox[dest].is_empty() {
                    staged.append(&mut k.outbox[dest]);
                }
            }
        }
        // Pass 2: deliver inbound events (assigning destination-local
        // sequence numbers in the fixed merge order), find the global
        // minimum next-event time, and advance the reached clock.
        let mut next: Option<Time> = None;
        for (dest, kernel) in parts.iter().enumerate() {
            let engine = &mut kernel.lock().expect(UNPOISONED).engine;
            for (at, to, ev) in inbound[dest].drain(..) {
                engine.push(at, to, ev);
            }
            if let Some(t) = engine.next_time() {
                next = Some(next.map_or(t, |n: Time| n.min(t)));
            }
            *reached = (*reached).max(engine.now());
        }
        // Stop checks, in the same order as `Simulation::run_until`:
        // predicate first, then quiescence, then the time budget.
        if pred(&ParActors::lock_all(parts, plan_of)) {
            return Ctl::Stop(RunOutcome::Predicate);
        }
        match next {
            None => Ctl::Stop(RunOutcome::Quiescent),
            Some(t) if t > max => Ctl::Stop(RunOutcome::TimeLimit),
            // Cap the window at the budget: events past `max` stay queued,
            // exactly as the monolithic kernel leaves them undispatched.
            Some(t) => Ctl::Window(Time((t + lookahead).0.min(max.0 + 1))),
        }
    }
}

impl<M: Send + 'static> std::fmt::Debug for ParSimulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParSimulation")
            .field("partitions", &self.parts.len())
            .field("actors", &self.plan.len())
            .field("threads", &self.threads)
            .field("lookahead", &self.lookahead)
            .field("reached", &self.reached)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Context;

    #[derive(Debug, Clone)]
    enum TMsg {
        Ping(u32),
        Pong(u32),
    }

    struct Ponger {
        seen: Vec<u32>,
    }
    impl Actor<TMsg> for Ponger {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            if let EventKind::Msg {
                from,
                msg: TMsg::Ping(n),
            } = ev
            {
                self.seen.push(n);
                ctx.send(from, TMsg::Pong(n));
            }
        }
    }

    struct Pinger {
        target: ActorId,
        rounds: u32,
        pongs: Vec<u32>,
        done_at: Option<Time>,
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
                        self.done_at = Some(ctx.now());
                    }
                }
                _ => {}
            }
        }
    }

    /// A jittered many-to-many gossip spanning every partition; each node
    /// also arms (and half the time cancels) a local timer per message, so
    /// the run exercises queues, timers, RNG draws and cross-partition
    /// staging together.
    struct Gossip {
        peers: u32,
        fanout: u32,
        received: u64,
        last_timer: Option<crate::TimerId>,
    }
    impl Actor<TMsg> for Gossip {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    for i in 0..self.fanout {
                        let to = ActorId((ctx.me().0 + i + 1) % self.peers);
                        ctx.send(to, TMsg::Ping(6));
                    }
                }
                EventKind::Msg {
                    msg: TMsg::Ping(h), ..
                } if h > 0 => {
                    self.received += 1;
                    let mix = (ctx.me().0 as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(ctx.now().0)
                        .wrapping_add(h as u64);
                    let to = ActorId((mix % self.peers as u64) as u32);
                    ctx.send(to, TMsg::Ping(h - 1));
                    if let Some(id) = self.last_timer.take() {
                        ctx.cancel_timer(id);
                    }
                    if mix.is_multiple_of(2) {
                        self.last_timer =
                            Some(ctx.set_timer(Duration::from_delays(1 + (mix % 5)), h as u64));
                    }
                }
                EventKind::Msg { .. } => self.received += 1,
                _ => {}
            }
        }
    }

    fn gossip_run(threads: usize, parts: usize) -> (Vec<u64>, Metrics, Time) {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(42, parts, Duration::from_delays(1));
        sim.set_default_delay(DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(4),
        });
        let n = 24u32;
        for i in 0..n {
            sim.add_to(
                i as usize % parts,
                Gossip {
                    peers: n,
                    fanout: 3,
                    received: 0,
                    last_timer: None,
                },
            );
        }
        sim.set_threads(threads);
        let out = sim.run_to_quiescence(Time::from_delays(10_000));
        assert_eq!(out, RunOutcome::Quiescent);
        let received = sim.with_actors(|v| {
            (0..n)
                .map(|i| v.actor_as::<Gossip>(ActorId(i)).unwrap().received)
                .collect()
        });
        let metrics = sim.merged_metrics();
        let now = sim.now();
        (received, metrics, now)
    }

    #[test]
    fn thread_count_never_changes_the_run() {
        let baseline = gossip_run(1, 4);
        for threads in [2, 3, 4, 8] {
            let run = gossip_run(threads, 4);
            assert_eq!(baseline.0, run.0, "{threads} threads: actor states differ");
            assert_eq!(
                baseline.1.events_dispatched, run.1.events_dispatched,
                "{threads} threads: event counts differ"
            );
            assert_eq!(baseline.1.messages_sent, run.1.messages_sent);
            assert_eq!(baseline.1.messages_delivered, run.1.messages_delivered);
            assert_eq!(baseline.1.timers_fired, run.1.timers_fired);
            assert_eq!(baseline.1.peak_queue_len, run.1.peak_queue_len);
            assert_eq!(baseline.2, run.2, "{threads} threads: clocks differ");
        }
    }

    #[test]
    fn partition_count_is_part_of_the_seed_contract() {
        // Different partitionings are different (each deterministic) runs.
        let a = gossip_run(1, 2);
        let b = gossip_run(2, 2);
        assert_eq!(a.0, b.0);
        let c = gossip_run(1, 4);
        assert_eq!(
            a.1.messages_delivered, c.1.messages_delivered,
            "gossip volume is fixed by fanout, not partitioning"
        );
    }

    #[test]
    fn cross_partition_round_trip_keeps_latency() {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(1, 2, Duration::DELAY);
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        let pinger = sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 3,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        sim.set_threads(2);
        let out = sim.run_to_quiescence(Time::from_delays(100));
        assert_eq!(out, RunOutcome::Quiescent);
        sim.with_actors(|v| {
            let p = v.actor_as::<Pinger>(pinger).unwrap();
            assert_eq!(p.pongs, vec![0, 1, 2]);
            // Same delay accounting as the monolithic kernel: 2 delays per
            // round trip, barriers add no virtual time.
            assert_eq!(p.done_at, Some(Time::from_delays(6)));
        });
        assert_eq!(sim.merged_metrics().first_decision_delays(), Some(6.0));
    }

    #[test]
    fn crash_silences_remote_actor() {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(1, 2, Duration::DELAY);
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        let pinger = sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 5,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        sim.crash_at(ponger, Time::from_delays(3));
        sim.set_threads(2);
        sim.run_to_quiescence(Time::from_delays(100));
        assert!(sim.is_crashed(ponger));
        sim.with_actors(|v| {
            let p = v.actor_as::<Pinger>(pinger).unwrap();
            // The ping landing at t=3 is dropped: only round 0 completes.
            assert_eq!(p.pongs, vec![0]);
        });
    }

    #[test]
    fn predicate_stops_at_a_barrier() {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(9, 2, Duration::DELAY);
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        let pinger = sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 50,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        let out = sim.run_until(Time::from_delays(1_000), |v| {
            v.actor_as::<Pinger>(pinger)
                .is_some_and(|p| p.pongs.len() >= 2)
        });
        assert_eq!(out, RunOutcome::Predicate);
        assert!(sim.now() < Time::from_delays(1_000));
    }

    #[test]
    fn time_limit_respected() {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(9, 2, Duration::DELAY);
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 1_000,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        let out = sim.run_to_quiescence(Time::from_delays(7));
        assert_eq!(out, RunOutcome::TimeLimit);
        assert!(sim.now() <= Time::from_delays(7));
    }

    /// Runs `sim` on a watchdog thread and returns the message it panicked
    /// with; a run that neither returns nor panics within five seconds
    /// (the bug this guards: a panicking window stranding the other
    /// threads at the barrier) fails the test instead of hanging it.
    fn panic_message_of(mut sim: ParSimulation<TMsg>) -> String {
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let run = std::thread::spawn(move || {
            let _signal_on_exit = done; // dropped on return *and* on unwind
            sim.run_to_quiescence(Time::from_delays(100));
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(5));
        assert_ne!(
            waited,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "a panicking window hung the run"
        );
        let panic = run.join().expect_err("the run must panic");
        match panic.downcast::<String>() {
            Ok(text) => *text,
            Err(panic) => panic.downcast::<&str>().map_or_else(
                |_| String::from("<non-string panic>"),
                |text| (*text).to_string(),
            ),
        }
    }

    #[test]
    fn undercutting_the_lookahead_is_detected() {
        // Links sample 1 delay but the caller claims a 2-delay lookahead:
        // the first cross-partition send must panic, not reorder silently
        // — on the coordinator's own partition here, at any thread count.
        for threads in [1, 2] {
            let mut sim: ParSimulation<TMsg> = ParSimulation::new(3, 2, Duration::from_delays(2));
            let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
            sim.add_to(
                0,
                Pinger {
                    target: ponger,
                    rounds: 1,
                    pongs: Vec::new(),
                    done_at: None,
                },
            );
            sim.set_threads(threads);
            let message = panic_message_of(sim);
            assert!(message.contains("beats the lookahead"), "{message}");
        }
    }

    struct Bomb;
    impl Actor<TMsg> for Bomb {
        fn on_event(&mut self, _ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            if let EventKind::Msg { .. } = ev {
                panic!("bomb went off");
            }
        }
    }

    #[test]
    fn a_panicking_actor_on_a_worker_partition_fails_the_run() {
        // Partition 1 runs on the spawned worker at 2 threads, so the
        // panic starts off the coordinator and must still surface, with
        // the actor's own message, on the thread that called `run_*`.
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(3, 2, Duration::DELAY);
        let bomb = sim.add_to(1, Bomb);
        sim.add_to(
            0,
            Pinger {
                target: bomb,
                rounds: 1,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        sim.set_threads(2);
        assert_eq!(panic_message_of(sim), "bomb went off");
    }

    #[test]
    fn placement_api_is_dense_and_queryable() {
        let mut plan = Partitioning::new(3);
        assert!(plan.is_empty());
        assert_eq!(plan.place(2), ActorId(0));
        assert_eq!(plan.place(0), ActorId(1));
        assert_eq!(plan.place(2), ActorId(2));
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.parts(), 3);
        assert_eq!(plan.partition_of(ActorId(0)), 2);
        assert_eq!(plan.partition_of(ActorId(1)), 0);
        assert_eq!(plan.map(), &[2, 0, 2]);
    }

    #[test]
    fn obs_events_are_thread_count_invariant() {
        let traced_run = |threads: usize| {
            let mut sim: ParSimulation<TMsg> = ParSimulation::new(42, 4, Duration::from_delays(1));
            sim.set_default_delay(DelayModel::Uniform {
                lo: Duration::from_delays(1),
                hi: Duration::from_delays(4),
            });
            let n = 24u32;
            for i in 0..n {
                sim.add_to(
                    i as usize % 4,
                    Gossip {
                        peers: n,
                        fanout: 3,
                        received: 0,
                        last_timer: None,
                    },
                );
            }
            sim.enable_obs();
            sim.set_threads(threads);
            sim.run_to_quiescence(Time::from_delays(10_000));
            (
                sim.take_obs_events(),
                sim.merged_metrics().events_dispatched,
            )
        };
        let (events1, dispatched1) = traced_run(1);
        assert!(!events1.is_empty());
        // Recording is read-only: the untraced gossip baseline dispatches
        // the same events.
        assert_eq!(dispatched1, gossip_run(1, 4).1.events_dispatched);
        for threads in [2, 4] {
            let (events_t, _) = traced_run(threads);
            assert_eq!(
                events1, events_t,
                "{threads} threads: merged obs streams differ"
            );
        }
    }

    #[test]
    fn merged_metrics_take_max_of_partition_peaks() {
        let mut sim: ParSimulation<TMsg> = ParSimulation::new(5, 2, Duration::DELAY);
        let ponger = sim.add_to(1, Ponger { seen: Vec::new() });
        sim.add_to(
            0,
            Pinger {
                target: ponger,
                rounds: 4,
                pongs: Vec::new(),
                done_at: None,
            },
        );
        sim.run_to_quiescence(Time::from_delays(100));
        let peaks = sim.partition_peak_queue_lens();
        assert_eq!(peaks.len(), 2);
        assert_eq!(
            sim.merged_metrics().peak_queue_len,
            peaks.iter().copied().max().unwrap()
        );
    }
}
