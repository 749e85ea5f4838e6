//! # simnet — deterministic discrete-event simulation kernel
//!
//! The substrate on which this workspace reproduces *The Impact of RDMA on
//! Agreement* (Aguilera et al., PODC 2019). The paper's model (§3) is a
//! **message-and-memory** (M&M) system: `n` processes and `m` shared
//! memories, where processes communicate both by sending messages and by
//! reading/writing remote memory. This crate provides the common kernel —
//! actors, virtual time, links, failures — while the RDMA-specific memory
//! semantics live in the `rdma-sim` crate (memories are just actors here).
//!
//! ## Fidelity to the paper's model
//!
//! * **Asynchrony.** Delays are arbitrary per-message values chosen by a
//!   seeded adversary ([`DelayModel`], [`DelayHook`]). Safety tests run under
//!   adversarial schedules; liveness tests add partial synchrony
//!   ([`DelayModel::PartialSynchrony`]).
//! * **Delay metric.** The paper's performance unit: a message takes one
//!   delay; a memory operation takes two (request + response legs, each a
//!   message here). [`Time::as_delays`] and [`Metrics::first_decision_delays`]
//!   expose decision latency in exactly those units. An optional
//!   RDMA-faithful refinement ([`DelayModel::Rdma`]) charges per-verb
//!   costs (send/WRITE/READ/CAS), payload serialization, and doorbell
//!   batching instead of a uniform per-hop price; senders classify
//!   traffic via [`Context::send_classed`] and [`CostClass`].
//! * **Failures.** [`Simulation::crash_at`] silences an actor: a crashed
//!   process takes no more steps, a crashed memory hangs without responding
//!   (indistinguishable from a slow one, as §3 requires). Byzantine behaviour
//!   is modelled by registering a malicious [`Actor`] implementation; the
//!   *trusted* components (memories enforcing permissions, the signature
//!   authority) are separate actors/objects a Byzantine process cannot
//!   subvert.
//! * **Determinism.** Every run is a pure function of its seed: the event
//!   queue breaks ties by scheduling order and randomness flows from one
//!   seeded generator.
//!
//! ## Performance model
//!
//! Kernel dispatch is the wall-clock floor under every experiment, so the
//! hot path is engineered around three rules:
//!
//! * **Queue structure.** The event queue orders 24-byte keys `(time,
//!   seq, target, slot)` in two parts: a FIFO lane, held inline, for the
//!   sends that arrive already in order (on a constant-delay link, all of
//!   them), and a `std` binary heap for timers and everything else; a pop
//!   takes the earlier of the two fronts. The event a key stands for
//!   sits in one slot of a per-kernel slab from the moment it is sent to
//!   the moment it is dispatched — written once, read once — so queueing
//!   a 112-byte service message moves 24 bytes (a cross-partition send
//!   moves the event itself, out of one kernel's slab and into another's).
//!   The queue is shallow: at most 57 keys on the repository benchmark's
//!   workloads and 576 on any `perf_snapshot` row, where a heap is ten
//!   levels of cache-resident compares (the queue module says why timers
//!   stay out of the lane, and why not a timing wheel).
//! * **Allocation rules.** Steady-state dispatch performs no heap
//!   allocation (`tests/dispatch_alloc.rs` counts them: none over ~56 000
//!   events of a warmed relay workload): the key queue, the slab and its
//!   vacancy list are sized up front and keep what they grow to, link delays
//!   are sampled by reference (no per-send model clone), recorded event
//!   bodies are built lazily (kernel events and [`Context::note_with`]
//!   alike) so disabled recording costs one branch, timers use
//!   generation-stamped slots (O(1) arm/cancel/fire, bounded memory — the
//!   old cancelled-timer tombstone set grew forever), event slots are
//!   recycled last-vacated-first (the slab stays the size of the queue's
//!   depth), the per-dispatch pending buffer is reused, and crash flags
//!   live in a dense bitvector.
//! * **Determinism contract.** Events dispatch in strictly ascending
//!   `(time, seq)` order, where `seq` is the kernel-assigned scheduling
//!   sequence number; RNG draws happen in dispatch order. Any conforming
//!   queue implementation is therefore observationally identical (which
//!   slab slot an event occupies is not observable at all); the
//!   golden-schedule suite pins recorded decisions, metrics, and traces
//!   so any schedule drift fails loudly. (The pre-overhaul heap kernel,
//!   once kept as a `Legacy` profile for differential testing, is
//!   retired: the scenario fuzzer's golden pins cover that role.)
//!
//! ## Partitioned parallel execution
//!
//! For workloads made of loosely-coupled actor clusters (the sharded SMR
//! service's disjoint replication groups), [`ParSimulation`] splits the
//! kernel into per-partition sub-kernels — each with its own key queue,
//! timer table, metrics, and RNG stream — executed on a scoped
//! thread pool under conservative window synchronization: partitions run
//! independently for one *lookahead* (the minimum cross-partition link
//! delay) of virtual time, then exchange staged cross-partition messages
//! at a barrier in a fixed merge order. Results are bit-identical for any
//! worker-thread count; see the [`partition`](ParSimulation) module docs
//! for the protocol and the determinism argument.
//!
//! ## Example
//!
//! ```
//! use simnet::{Actor, Context, EventKind, Simulation, Time};
//!
//! struct Counter { seen: u32 }
//! impl Actor<u32> for Counter {
//!     fn on_event(&mut self, _ctx: &mut Context<'_, u32>, ev: EventKind<u32>) {
//!         if let EventKind::Msg { msg, .. } = ev { self.seen += msg; }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let counter = sim.add(Counter { seen: 0 });
//! sim.schedule(Time::ZERO, counter, EventKind::Msg { from: counter, msg: 41 });
//! sim.run_to_quiescence(Time::from_delays(10));
//! assert_eq!(sim.actor_as::<Counter>(counter).unwrap().seen, 41);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod actor;
mod delay;
mod engine;
mod event;
mod ids;
mod metrics;
pub mod obs;
mod partition;
mod queue;
mod sim;
mod time;

pub use actor::{Actor, AnyActor};
pub use delay::{CostClass, DelayModel, RdmaCost, Verb};
pub use event::EventKind;
pub use ids::{ActorId, TimerId};
pub use metrics::Metrics;
pub use partition::{ParActors, ParSimulation, Partitioning};
pub use sim::{Choice, ChoiceHook, ChoicePayload, Context, DelayHook, RunOutcome, Simulation};
pub use time::{Duration, Time, TICKS_PER_DELAY};
