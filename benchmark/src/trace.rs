//! The traced repetition: which layer the host time went to, and exact
//! per-stage virtual latencies.
//!
//! Everything here observes from outside, through the `obs` stream the
//! kernel already emits. A [`TraceSink`] stamps the host clock whenever a
//! handler starts and charges the interval since the previous start to the
//! layer of the actor that was running; counts and stage latencies are
//! computed afterwards from the recorded events. Tracing never changes the
//! schedule, so the traced report must equal the untraced one — the caller
//! checks that.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use agreement::harness::{run_sharded_instrumented, ShardedRunReport, ShardedScenario};
use agreement::sharded::{GroupMode, GroupTopology};
use agreement::spans::{
    STAGE_CONFIRM, STAGE_DECIDE, STAGE_DELIVER, STAGE_PROPOSE, STAGE_ROUTE, STAGE_SUBMIT,
};
use simnet::obs::{Event, EventBody, TraceSink};
use simnet::{ActorId, TICKS_PER_DELAY};

/// The layers host time is split into, named after the modules that run
/// them. A replica's handler also runs the `swmr` and `sigsim` code it
/// calls; those cannot be told apart from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `sharded::RouterActor`.
    Sharded,
    /// `smr::SmrNode`, the crash-mode (Protected Memory Paxos) replica.
    Smr,
    /// `smr::ByzSmrNode` over `nebcast`, the Byzantine-mode replica.
    Nebcast,
    /// `rdma_sim::MemoryActor`.
    RdmaSim,
}

/// Every layer, in `Layer as usize` order.
pub const LAYERS: [Layer; 4] = [Layer::Sharded, Layer::Smr, Layer::Nebcast, Layer::RdmaSim];

impl Layer {
    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sharded => "sharded",
            Layer::Smr => "smr",
            Layer::Nebcast => "nebcast",
            Layer::RdmaSim => "rdma-sim",
        }
    }
}

/// The layer that runs actor `a` of a deployment laid out by `topo`, whose
/// group `g` runs in mode `mode_of(g)`.
pub fn classify(topo: &GroupTopology, mode_of: impl Fn(usize) -> GroupMode, a: ActorId) -> Layer {
    assert!(
        a.index() < topo.total_actors(),
        "actor {a:?} outside the deployment"
    );
    if a == topo.router() {
        return Layer::Sharded;
    }
    match topo.group_of_actor(a) {
        Some(g) => match mode_of(g) {
            GroupMode::CrashPmp => Layer::Smr,
            GroupMode::Byzantine => Layer::Nebcast,
        },
        // Inside the deployment, neither the router nor a replica.
        None => Layer::RdmaSim,
    }
}

/// The layer of every actor of `sc`'s deployment, by actor index.
fn layers_of(sc: &ShardedScenario) -> Vec<Layer> {
    let topo = sc.topology();
    (0..topo.total_actors())
        .map(|i| classify(&topo, |g| sc.mode_of(g), ActorId(i as u32)))
        .collect()
}

/// Whether the kernel records `body` right before it runs a handler.
fn starts_handler(body: &EventBody) -> bool {
    matches!(
        body,
        EventBody::Dispatch { .. }
            | EventBody::Deliver { .. }
            | EventBody::TimerFired { .. }
            | EventBody::LeaderChange { .. }
    )
}

/// What the sink saw, handed back when the kernel drops it.
struct WallTotals {
    busy_ns: [u64; LAYERS.len()],
    first_start: Instant,
    last_start: Instant,
}

/// Charges host time between consecutive handler starts to the layer whose
/// handler was running. The interval holds the handler itself plus the
/// kernel's work to queue what it sent and pop the next event, plus the
/// recorder's own cost: a layer's share is "host time while this layer was
/// the one being served".
struct WallSink {
    layer_of: Vec<Layer>,
    busy_ns: [u64; LAYERS.len()],
    running: Option<(Layer, Instant)>,
    first_start: Option<Instant>,
    out: Arc<Mutex<Option<WallTotals>>>,
}

impl TraceSink for WallSink {
    fn record(&mut self, ev: &Event) {
        if !starts_handler(&ev.body) {
            return;
        }
        let now = Instant::now();
        match self.running {
            Some((layer, since)) => {
                self.busy_ns[layer as usize] += now.duration_since(since).as_nanos() as u64
            }
            None => self.first_start = Some(now),
        }
        self.running = Some((self.layer_of[ev.actor.index()], now));
    }
}

impl Drop for WallSink {
    fn drop(&mut self) {
        let (Some(first_start), Some((_, last_start))) = (self.first_start, self.running) else {
            return;
        };
        // A poisoned lock means the run already panicked; nothing to report.
        if let Ok(mut out) = self.out.lock() {
            *out = Some(WallTotals {
                busy_ns: self.busy_ns,
                first_start,
                last_start,
            });
        }
    }
}

/// One traced repetition.
pub struct TracedRep {
    /// The run's report; must equal the untraced one.
    pub report: ShardedRunReport,
    /// The recorded stream.
    pub events: Vec<Event>,
    /// Host nanoseconds of the whole call.
    pub wall_ns: f64,
    /// Call entry → first handler start: building the deployment.
    pub build_ns: f64,
    /// Last handler start → return: reducing the run to its report.
    pub reduce_ns: f64,
    /// Host nanoseconds charged to each layer, by `Layer as usize`.
    pub busy_ns: [f64; LAYERS.len()],
}

/// Runs `sc` once with event recording on and the wall-clock sink attached.
pub fn traced_rep(sc: &ShardedScenario) -> TracedRep {
    let mut sc = sc.clone();
    sc.record_events = true;
    let out = Arc::new(Mutex::new(None));
    let sink = WallSink {
        layer_of: layers_of(&sc),
        busy_ns: [0; LAYERS.len()],
        running: None,
        first_start: None,
        out: Arc::clone(&out),
    };
    let entry = Instant::now();
    let (report, events) = run_sharded_instrumented(&sc, |sim| sim.attach_obs_sink(Box::new(sink)));
    let returned = Instant::now();
    let totals = out
        .lock()
        .expect("the sink never panics while holding the lock")
        .take()
        .expect("the kernel drops its sink before the run returns");
    TracedRep {
        report,
        events,
        wall_ns: returned.duration_since(entry).as_nanos() as f64,
        build_ns: totals.first_start.duration_since(entry).as_nanos() as f64,
        reduce_ns: returned.duration_since(totals.last_start).as_nanos() as f64,
        busy_ns: totals.busy_ns.map(|ns| ns as f64),
    }
}

/// Counts and exact stage latencies of one recorded stream. Latencies are
/// ascending tick vectors, one entry per command that reached both ends of
/// the stage (first mark per stage wins, as in `spans::aggregate_spans`).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events in the stream.
    pub recorded: u64,
    /// Handlers started, by `Layer as usize`.
    pub handler_starts: [u64; LAYERS.len()],
    /// Live timers fired.
    pub timers_fired: u64,
    /// Events dropped at a crashed actor.
    pub dropped: u64,
    /// Memory operations submitted: write, read, read_range, change_perm.
    pub mem_ops: [u64; 4],
    /// `propose` marks, and the handlers that emitted at least one.
    pub proposed: u64,
    pub propose_batches: u64,
    /// `route` marks beyond each command's first: failover re-submissions.
    pub rerouted: u64,
    /// Due (arrival on a paced schedule, else first submit) → first route.
    pub route_wait: Vec<u64>,
    /// First route → first propose.
    pub propose: Vec<u64>,
    /// First propose → first broadcast delivery (Byzantine groups only).
    pub deliver: Vec<u64>,
    /// First propose → first decide.
    pub decide: Vec<u64>,
    /// First decide → confirm at the router.
    pub confirm: Vec<u64>,
    /// Longest time a group went without a confirm after its leader crashed
    /// (counted from the crash or a straggling commit already in flight).
    pub takeover_max_ticks: u64,
}

/// Index of a memory-operation name in [`StreamStats::mem_ops`].
fn mem_op_slot(op: &str) -> Option<usize> {
    ["write", "read", "read_range", "change_perm"]
        .iter()
        .position(|&name| name == op)
}

const UNSEEN: u64 = u64::MAX;

/// Reduces the stream of a run of `sc`.
pub fn analyse(events: &[Event], sc: &ShardedScenario) -> StreamStats {
    let topo = sc.topology();
    let layer_of = layers_of(sc);
    let mut s = StreamStats {
        recorded: events.len() as u64,
        ..StreamStats::default()
    };
    // first[id][stage] = tick of the command's earliest mark of that stage.
    let mut first = vec![[UNSEEN; 6]; sc.total_cmds + 1];
    let (mut route_marks, mut routed_cmds) = (0u64, 0u64);
    let mut handler = 0u64;
    let mut last_propose_handler = UNSEEN;
    // (group, tick of its leader's crash or of its latest confirm since).
    let mut recovering: Vec<(u64, u64)> = Vec::new();
    for ev in events {
        if starts_handler(&ev.body) {
            handler += 1;
            s.handler_starts[layer_of[ev.actor.index()] as usize] += 1;
        }
        match ev.body {
            EventBody::TimerFired { .. } => s.timers_fired += 1,
            EventBody::Dropped { .. } => s.dropped += 1,
            EventBody::MemOp { op } => {
                if let Some(slot) = mem_op_slot(op) {
                    s.mem_ops[slot] += 1;
                }
            }
            EventBody::Crash => {
                if let Some(g) = topo.group_of_actor(ev.actor) {
                    recovering.push((g as u64, ev.at.0));
                }
            }
            EventBody::Mark { span, stage, data } => {
                let id = span as usize;
                if id == 0 || id > sc.total_cmds || stage as usize >= first[id].len() {
                    continue;
                }
                match stage {
                    STAGE_ROUTE => route_marks += 1,
                    STAGE_PROPOSE => {
                        s.proposed += 1;
                        if last_propose_handler != handler {
                            last_propose_handler = handler;
                            s.propose_batches += 1;
                        }
                    }
                    STAGE_CONFIRM => {
                        for (_, last) in recovering.iter_mut().filter(|(g, _)| *g == data) {
                            s.takeover_max_ticks = s.takeover_max_ticks.max(ev.at.0 - *last);
                            *last = ev.at.0;
                        }
                    }
                    _ => {}
                }
                let slot = &mut first[id][stage as usize];
                if *slot == UNSEEN {
                    *slot = ev.at.0;
                }
            }
            _ => {}
        }
    }
    let due = |id: usize, marks: &[u64; 6]| {
        if sc.arrival_rate_per_delay > 0.0 {
            // The workload's arrival schedule: command `id` is due at
            // `(id - 1) / rate` delays.
            ((id - 1) as f64 * TICKS_PER_DELAY as f64 / sc.arrival_rate_per_delay).round() as u64
        } else {
            marks[STAGE_SUBMIT as usize]
        }
    };
    for (id, marks) in first.iter().enumerate().skip(1) {
        let at = |stage: u8| marks[stage as usize];
        if at(STAGE_ROUTE) != UNSEEN {
            routed_cmds += 1;
        }
        let stage = |out: &mut Vec<u64>, from: u64, to: u64| {
            if from != UNSEEN && to != UNSEEN && to >= from {
                out.push(to - from);
            }
        };
        stage(&mut s.route_wait, due(id, marks), at(STAGE_ROUTE));
        stage(&mut s.propose, at(STAGE_ROUTE), at(STAGE_PROPOSE));
        stage(&mut s.deliver, at(STAGE_PROPOSE), at(STAGE_DELIVER));
        stage(&mut s.decide, at(STAGE_PROPOSE), at(STAGE_DECIDE));
        stage(&mut s.confirm, at(STAGE_DECIDE), at(STAGE_CONFIRM));
    }
    s.rerouted = route_marks - routed_cmds;
    for v in [
        &mut s.route_wait,
        &mut s.propose,
        &mut s.deliver,
        &mut s.decide,
        &mut s.confirm,
    ] {
        v.sort_unstable();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Time;

    #[test]
    fn classifier_follows_the_topology_for_one_and_four_groups() {
        for groups in [1usize, 4] {
            let topo = GroupTopology { groups, n: 3, m: 3 };
            // Odd groups Byzantine, so G = 4 exercises both replica layers.
            let mode = |g: usize| {
                if g % 2 == 1 {
                    GroupMode::Byzantine
                } else {
                    GroupMode::CrashPmp
                }
            };
            let mut seen = 0;
            for g in 0..groups {
                let replica = if g % 2 == 1 {
                    Layer::Nebcast
                } else {
                    Layer::Smr
                };
                for p in topo.procs(g) {
                    assert_eq!(classify(&topo, mode, p), replica);
                    seen += 1;
                }
                for mem in topo.mems(g) {
                    assert_eq!(classify(&topo, mode, mem), Layer::RdmaSim);
                    seen += 1;
                }
            }
            assert_eq!(classify(&topo, mode, topo.router()), Layer::Sharded);
            assert_eq!(seen + 1, topo.total_actors(), "every actor has a layer");
        }
    }

    #[test]
    #[should_panic(expected = "outside the deployment")]
    fn classifier_rejects_ids_outside_the_deployment() {
        let topo = GroupTopology {
            groups: 1,
            n: 3,
            m: 3,
        };
        classify(&topo, |_| GroupMode::CrashPmp, ActorId(7));
    }

    fn ev(at: u64, actor: u32, body: EventBody) -> Event {
        Event {
            at: Time(at),
            partition: 0,
            seq: 0,
            actor: ActorId(actor),
            body,
        }
    }

    fn mark(at: u64, actor: u32, span: u64, stage: u8) -> Event {
        ev(
            at,
            actor,
            EventBody::Mark {
                span,
                stage,
                data: 0,
            },
        )
    }

    #[test]
    fn stream_reduces_to_counts_stages_batches_and_takeover() {
        // G = 1: replicas 0..3, memories 3..6, router 6.
        let mut sc = ShardedScenario::common_case(1, 3, 3, 1);
        sc.total_cmds = 2;
        let deliver = |at, to, from| {
            ev(
                at,
                to,
                EventBody::Deliver {
                    from: ActorId(from),
                },
            )
        };
        let events = vec![
            ev(0, 6, EventBody::Dispatch { kind: "start" }),
            mark(0, 6, 1, STAGE_SUBMIT),
            mark(0, 6, 1, STAGE_ROUTE),
            mark(0, 6, 2, STAGE_SUBMIT),
            mark(0, 6, 2, STAGE_ROUTE),
            deliver(1000, 0, 6),
            mark(1000, 0, 1, STAGE_PROPOSE),
            mark(1000, 0, 2, STAGE_PROPOSE), // same handler: one batch of two
            ev(1000, 0, EventBody::MemOp { op: "write" }),
            deliver(2000, 3, 0),
            deliver(3000, 0, 3),
            mark(3000, 0, 1, STAGE_DECIDE),
            ev(3500, 0, EventBody::Crash),
            ev(3600, 0, EventBody::Dropped { kind: "msg" }),
            ev(4000, 6, EventBody::TimerFired { tag: 1 }),
            mark(4000, 6, 1, STAGE_ROUTE),   // re-submission
            mark(4000, 6, 1, STAGE_CONFIRM), // straggler decided before the crash
            mark(9000, 6, 2, STAGE_CONFIRM), // first commit of the successor
        ];
        let s = analyse(&events, &sc);
        assert_eq!(s.recorded, events.len() as u64);
        assert_eq!(s.handler_starts[Layer::Sharded as usize], 2);
        assert_eq!(s.handler_starts[Layer::Smr as usize], 2);
        assert_eq!(s.handler_starts[Layer::RdmaSim as usize], 1);
        assert_eq!((s.timers_fired, s.dropped), (1, 1));
        assert_eq!(s.mem_ops, [1, 0, 0, 0]);
        assert_eq!((s.proposed, s.propose_batches), (2, 1));
        assert_eq!(s.rerouted, 1);
        assert_eq!(s.route_wait, vec![0, 0]);
        assert_eq!(s.propose, vec![1000, 1000]);
        assert_eq!(s.decide, vec![2000]);
        assert_eq!(s.confirm, vec![1000]);
        assert!(s.deliver.is_empty());
        assert_eq!(s.takeover_max_ticks, 5000);
    }

    #[test]
    fn paced_route_wait_starts_at_the_due_time() {
        let mut sc = ShardedScenario::common_case(1, 3, 3, 1);
        sc.total_cmds = 2;
        sc.arrival_rate_per_delay = 8.0; // due every 125 ticks
        let events = vec![
            mark(0, 6, 1, STAGE_SUBMIT),
            mark(0, 6, 1, STAGE_ROUTE),
            mark(400, 6, 2, STAGE_SUBMIT),
            mark(400, 6, 2, STAGE_ROUTE),
        ];
        assert_eq!(analyse(&events, &sc).route_wait, vec![0, 275]);
    }
}
