//! Kernel-level properties: determinism, causality (time never runs
//! backwards), delivery guarantees (integrity, no-loss), and crash
//! semantics — the model properties every protocol above relies on.

use proptest::prelude::*;
use simnet::{Actor, ActorId, Context, DelayModel, Duration, EventKind, Simulation, Time};

/// Gossiping actor: relays each received token to a pseudo-random peer a
/// bounded number of times, recording receipt times.
struct Gossip {
    peers: Vec<ActorId>,
    received: Vec<(Time, u64)>,
    forwards_left: u32,
}

impl Actor<u64> for Gossip {
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, ev: EventKind<u64>) {
        match ev {
            EventKind::Start if ctx.me() == ActorId(0) => {
                ctx.send(self.peers[1 % self.peers.len()], 1);
            }
            EventKind::Msg { msg, .. } => {
                self.received.push((ctx.now(), msg));
                if self.forwards_left > 0 {
                    self.forwards_left -= 1;
                    use rand::Rng;
                    let n = self.peers.len();
                    let to = self.peers[ctx.rng().gen_range(0..n)];
                    ctx.send(to, msg + 1);
                }
            }
            _ => {}
        }
    }
}

fn run_gossip(seed: u64, n: usize, jitter: u64) -> (Vec<Vec<(Time, u64)>>, u64, u64) {
    let mut sim: Simulation<u64> = Simulation::new(seed);
    sim.set_default_delay(DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(1 + jitter),
    });
    let peers: Vec<ActorId> = (0..n as u32).map(ActorId).collect();
    for _ in 0..n {
        sim.add(Gossip {
            peers: peers.clone(),
            received: Vec::new(),
            forwards_left: 30,
        });
    }
    sim.run_to_quiescence(Time::from_delays(100_000));
    let histories = peers
        .iter()
        .map(|&p| sim.actor_as::<Gossip>(p).unwrap().received.clone())
        .collect();
    (
        histories,
        sim.metrics().messages_sent,
        sim.metrics().messages_delivered,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Identical seeds produce bit-identical histories.
    #[test]
    fn determinism(seed in 0u64..10_000, n in 2usize..6, jitter in 0u64..5) {
        let a = run_gossip(seed, n, jitter);
        let b = run_gossip(seed, n, jitter);
        prop_assert_eq!(a, b);
    }

    /// Receipt times are non-decreasing per actor (causality) and total
    /// messages received equals messages sent (integrity + no-loss, no
    /// crashes).
    #[test]
    fn causality_and_conservation(seed in 0u64..10_000, n in 2usize..6) {
        let (histories, sent, delivered) = run_gossip(seed, n, 3);
        for h in &histories {
            for w in h.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time ran backwards: {w:?}");
            }
        }
        let received: u64 = histories.iter().map(|h| h.len() as u64).sum();
        // No loss, no duplication: every sent message is delivered exactly
        // once and lands in exactly one history.
        prop_assert_eq!(received, delivered);
        prop_assert_eq!(sent, delivered);
    }

    /// Crashing an actor at time t suppresses exactly its deliveries
    /// after t and nothing else.
    #[test]
    fn crash_cuts_delivery(seed in 0u64..10_000, crash_at in 0u64..20) {
        let n = 4usize;
        let run = |crash: Option<u64>| {
            let mut sim: Simulation<u64> = Simulation::new(seed);
            let peers: Vec<ActorId> = (0..n as u32).map(ActorId).collect();
            for _ in 0..n {
                sim.add(Gossip { peers: peers.clone(), received: Vec::new(), forwards_left: 20 });
            }
            if let Some(t) = crash {
                sim.crash_at(ActorId(1), Time::from_delays(t));
            }
            sim.run_to_quiescence(Time::from_delays(100_000));
            sim.actor_as::<Gossip>(ActorId(1)).unwrap().received.clone()
        };
        let with_crash = run(Some(crash_at));
        for (t, _) in &with_crash {
            prop_assert!(*t <= Time::from_delays(crash_at));
        }
        // Prefix property: the crashed run's history is a prefix of the
        // uncrashed run's (the schedule is identical up to the crash).
        let without = run(None);
        prop_assert!(without.starts_with(&with_crash));
    }
}

// ---------------------------------------------------------------------------
// Fat payloads: what the queue carries between send and dispatch.
//
// The service's `Msg` is 112 bytes; the gossip above sends a `u64`, which
// a queue could mangle in ways no test here would see. This workload
// sends a self-checking 192-byte message (bigger than the service's, and
// kept at the size the transcripts below were captured with) through
// every road an event can take — same-tick sends, 1–40-delay sends (the
// long ones reach past 2^15 ticks ≈ 32.8 delays, the window of the timing
// wheel the kernel once ordered its keys in, where they detoured through a
// far-future heap), timers set / cancelled / cancelled after firing,
// scheduled crashes (one of them far-future) and `schedule()` stimuli
// before and in the middle of the run — and checks that each message
// arrives exactly once and intact, or is dropped at a crashed target; on
// the monolithic kernel plain and under a seeded choice hook, and on the
// partitioned kernel.
// One transcript hash per configuration is pinned below, captured before
// the queue's payload storage changed (PR 22): never re-record them.
// ---------------------------------------------------------------------------

use simnet::{ChoicePayload, ParSimulation, TimerId};

const PAD_WORDS: usize = 21;

/// A message that can tell whether it arrived as it was sent.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fat {
    serial: u64,
    sender: u32,
    sent_at: u64,
    /// The delay the sender wants, in ticks (`u64::MAX`: the link's
    /// model decides). Read by the monolithic runs' delay hook only.
    hop: u64,
    sum: u64,
    pad: [u64; PAD_WORDS],
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Fat {
    fn checksum(serial: u64, sender: u32, sent_at: u64) -> u64 {
        mix(serial ^ mix(sender as u64 ^ mix(sent_at)))
    }

    fn new(serial: u64, sender: u32, sent_at: Time, hop: u64) -> Fat {
        let sum = Fat::checksum(serial, sender, sent_at.0);
        let mut pad = [0u64; PAD_WORDS];
        for (i, w) in pad.iter_mut().enumerate() {
            *w = sum.rotate_left(i as u32 + 1) ^ i as u64;
        }
        Fat {
            serial,
            sender,
            sent_at: sent_at.0,
            hop,
            sum,
            pad,
        }
    }

    fn intact(&self) -> bool {
        *self == Fat::new(self.serial, self.sender, Time(self.sent_at), self.hop)
    }
}

/// One thing an actor saw, in the order it saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Seen {
    Start,
    Msg {
        serial: u64,
        from: u32,
        sent_at: u64,
    },
    Timer {
        tag: u64,
    },
    Leader {
        leader: u32,
    },
}

/// Serials of `schedule()`d stimuli carry this sender.
const STIMULUS: u32 = u32::MAX;

/// Spends a budget of seeded actions — sends, timers, cancels — one per
/// event it receives, and records everything it sees.
struct Node {
    peers: u32,
    rng: u64,
    budget: u32,
    next_serial: u64,
    next_tag: u64,
    /// `(serial, to, sent at)` of every message this actor sent.
    sent: Vec<(u64, u32, u64)>,
    log: Vec<(Time, Seen)>,
    /// Timers armed and neither fired nor cancelled yet.
    armed: Vec<(TimerId, u64)>,
    /// Ids of timers that already fired (cancel-after-fire material).
    fired: Vec<TimerId>,
    cancelled_tags: Vec<u64>,
    violations: Vec<String>,
}

impl Node {
    fn new(seed: u64, id: u32, peers: u32, budget: u32) -> Node {
        Node {
            peers,
            rng: mix(seed ^ mix(id as u64 + 1)) | 1,
            budget,
            next_serial: 0,
            next_tag: 0,
            sent: Vec::new(),
            log: Vec::new(),
            armed: Vec::new(),
            fired: Vec::new(),
            cancelled_tags: Vec::new(),
            violations: Vec::new(),
        }
    }

    fn draw(&mut self) -> u64 {
        // xorshift64*: private to the actor, so what it does depends only
        // on the sequence of events it was handed.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// 0 (same tick) a quarter of the time, else 1–40 whole delays.
    fn draw_after(&mut self) -> Duration {
        let r = self.draw();
        if r.is_multiple_of(4) {
            Duration::ZERO
        } else {
            Duration::from_delays(1 + (r >> 8) % 40)
        }
    }

    fn act(&mut self, ctx: &mut Context<'_, Fat>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let me = ctx.me().0;
        for _ in 0..self.draw() % 4 {
            let to = (self.draw() % self.peers as u64) as u32;
            let hop = match self.draw() % 4 {
                0 => u64::MAX,
                _ => self.draw_after().0,
            };
            let serial = (me as u64) << 32 | self.next_serial;
            self.next_serial += 1;
            self.sent.push((serial, to, ctx.now().0));
            ctx.send(ActorId(to), Fat::new(serial, me, ctx.now(), hop));
        }
        match self.draw() % 4 {
            0 => {}
            1 => {
                let after = self.draw_after();
                let id = ctx.set_timer(after, self.next_tag);
                self.armed.push((id, self.next_tag));
                self.next_tag += 1;
            }
            2 => {
                let after = self.draw_after();
                let id = ctx.set_timer(after, self.next_tag);
                ctx.cancel_timer(id);
                self.cancelled_tags.push(self.next_tag);
                self.next_tag += 1;
            }
            _ => {
                // Cancel one of: a live timer, or one that already fired
                // (a no-op the kernel must not mistake for a live one).
                let n = self.armed.len() + self.fired.len();
                if n > 0 {
                    let i = (self.draw() % n as u64) as usize;
                    if i < self.armed.len() {
                        let (id, tag) = self.armed.swap_remove(i);
                        ctx.cancel_timer(id);
                        self.cancelled_tags.push(tag);
                    } else {
                        ctx.cancel_timer(self.fired[i - self.armed.len()]);
                    }
                }
            }
        }
    }
}

impl Actor<Fat> for Node {
    fn on_event(&mut self, ctx: &mut Context<'_, Fat>, ev: EventKind<Fat>) {
        let seen = match ev {
            EventKind::Start => Seen::Start,
            EventKind::Msg { from, msg } => {
                if !msg.intact() {
                    self.violations
                        .push(format!("message {:#x} arrived damaged", msg.serial));
                }
                if msg.sender != STIMULUS && msg.sender != from.0 {
                    self.violations
                        .push(format!("message {:#x} changed sender", msg.serial));
                }
                Seen::Msg {
                    serial: msg.serial,
                    from: from.0,
                    sent_at: msg.sent_at,
                }
            }
            EventKind::Timer { id, tag } => {
                match self.armed.iter().position(|&(i, t)| (i, t) == (id, tag)) {
                    Some(i) => {
                        self.armed.swap_remove(i);
                        self.fired.push(id);
                    }
                    None if self.cancelled_tags.contains(&tag) => {
                        self.violations.push(format!("cancelled timer {tag} fired"));
                    }
                    None => self
                        .violations
                        .push(format!("timer {tag} fired twice or was never set")),
                }
                Seen::Timer { tag }
            }
            EventKind::LeaderChange { leader } => Seen::Leader { leader: leader.0 },
        };
        if self.log.last().is_some_and(|(t, _)| *t > ctx.now()) {
            self.violations
                .push(format!("time ran backwards at {:?}", ctx.now()));
        }
        self.log.push((ctx.now(), seen));
        self.act(ctx);
    }
}

/// What the two kernels share of the set-up surface.
trait Kernel {
    fn schedule_ev(&mut self, at: Time, to: ActorId, ev: EventKind<Fat>);
    fn crash(&mut self, actor: ActorId, at: Time);
    fn announce(&mut self, at: Time, targets: &[ActorId], leader: ActorId);
}

impl Kernel for Simulation<Fat> {
    fn schedule_ev(&mut self, at: Time, to: ActorId, ev: EventKind<Fat>) {
        self.schedule(at, to, ev);
    }
    fn crash(&mut self, actor: ActorId, at: Time) {
        self.crash_at(actor, at);
    }
    fn announce(&mut self, at: Time, targets: &[ActorId], leader: ActorId) {
        self.announce_leader(at, targets, leader);
    }
}

impl Kernel for ParSimulation<Fat> {
    fn schedule_ev(&mut self, at: Time, to: ActorId, ev: EventKind<Fat>) {
        self.schedule(at, to, ev);
    }
    fn crash(&mut self, actor: ActorId, at: Time) {
        self.crash_at(actor, at);
    }
    fn announce(&mut self, at: Time, targets: &[ActorId], leader: ActorId) {
        self.announce_leader(at, targets, leader);
    }
}

/// The two scheduled crashes: one mid-run within 2^15 ticks, one
/// scheduled past them (on the timing wheel, the crash entry itself took
/// the far-future heap).
const CRASHES: [(u32, u64); 2] = [(1, 25), (2, 90)];
/// Where the run is paused to inject the second batch of stimuli.
const PAUSE_DELAYS: u64 = 20;

/// Injects stimulus messages at `delays` (one per target in rotation)
/// and returns their `(serial, to, sent at)` rows. `sent_at` is the
/// requested time; a time in the past is clamped by the kernel.
fn inject(k: &mut impl Kernel, n: u32, first_serial: u64, delays: &[u64]) -> Vec<(u64, u32, u64)> {
    let mut rows = Vec::new();
    for (i, &d) in delays.iter().enumerate() {
        let to = (i as u32 * 5 + 1) % n;
        let serial = (STIMULUS as u64) << 32 | (first_serial + i as u64);
        let at = Time::from_delays(d);
        let msg = Fat::new(serial, STIMULUS, at, u64::MAX);
        k.schedule_ev(
            at,
            ActorId(to),
            EventKind::Msg {
                from: ActorId(to),
                msg,
            },
        );
        rows.push((serial, to, at.0));
    }
    rows
}

fn before_run(k: &mut impl Kernel, n: u32) -> Vec<(u64, u32, u64)> {
    for (actor, at) in CRASHES {
        k.crash(ActorId(actor), Time::from_delays(at));
    }
    let all: Vec<ActorId> = (0..n).map(ActorId).collect();
    k.announce(Time::from_delays(10), &all, ActorId(0));
    k.announce(Time::from_delays(50), &all, ActorId(n - 1));
    // Time zero, in-window, the crash's own tick, just past the window
    // (32.768 delays), far past it.
    inject(k, n, 0, &[0, 5, 25, 25, 33, 70, 200])
}

fn at_pause(k: &mut impl Kernel, n: u32) -> Vec<(u64, u32, u64)> {
    // In the past (clamped to now), now, soon, and past the window again.
    inject(k, n, 100, &[3, PAUSE_DELAYS, 21, 60, 120])
}

/// Everything a run produced that another run of the same configuration
/// must reproduce bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FatOutcome {
    logs: Vec<Vec<(Time, Seen)>>,
    sent: Vec<(u64, u32, u64)>,
    violations: Vec<String>,
    /// Timers still armed at quiescence, per actor.
    left_armed: Vec<usize>,
    now: Time,
    events: u64,
    msgs_sent: u64,
    msgs_delivered: u64,
    timers_fired: u64,
    dropped: u64,
    crashes: u64,
    peak_queue_len: u64,
}

impl FatOutcome {
    fn gather<'a>(
        nodes: impl Iterator<Item = &'a Node>,
        stimuli: Vec<(u64, u32, u64)>,
        now: Time,
        m: &simnet::Metrics,
    ) -> FatOutcome {
        let mut out = FatOutcome {
            logs: Vec::new(),
            sent: stimuli,
            violations: Vec::new(),
            left_armed: Vec::new(),
            now,
            events: m.events_dispatched,
            msgs_sent: m.messages_sent,
            msgs_delivered: m.messages_delivered,
            timers_fired: m.timers_fired,
            dropped: m.dispatches.dropped,
            crashes: m.dispatches.crash,
            peak_queue_len: m.peak_queue_len,
        };
        for node in nodes {
            out.logs.push(node.log.clone());
            out.sent.extend_from_slice(&node.sent);
            out.violations.extend(node.violations.iter().cloned());
            out.left_armed.push(node.armed.len());
        }
        out
    }

    /// FNV-1a over the per-actor logs and the run's counters.
    fn transcript_hash(&self) -> u64 {
        let mut h = simnet::FNV1A_BASIS;
        let mut eat = |x: u64| h = simnet::fnv1a(h, x.to_le_bytes());
        for (actor, log) in self.logs.iter().enumerate() {
            eat(actor as u64);
            eat(log.len() as u64);
            for (t, seen) in log {
                eat(t.0);
                match seen {
                    Seen::Start => eat(1),
                    Seen::Msg {
                        serial,
                        from,
                        sent_at,
                    } => {
                        eat(2);
                        eat(*serial);
                        eat(*from as u64);
                        eat(*sent_at);
                    }
                    Seen::Timer { tag } => {
                        eat(3);
                        eat(*tag);
                    }
                    Seen::Leader { leader } => {
                        eat(4);
                        eat(*leader as u64);
                    }
                }
            }
        }
        for x in [
            self.now.0,
            self.events,
            self.msgs_sent,
            self.msgs_delivered,
            self.timers_fired,
            self.dropped,
            self.crashes,
            self.peak_queue_len,
        ] {
            eat(x);
        }
        h
    }

    /// The delivery contract, checked against what every actor recorded.
    fn check(&self) -> Result<(), String> {
        if let Some(v) = self.violations.first() {
            return Err(v.clone());
        }
        let crash_time =
            |actor: u32| (CRASHES.iter().find(|c| c.0 == actor)).map(|c| Time::from_delays(c.1));
        let mut receipts = std::collections::BTreeMap::new();
        for (actor, log) in self.logs.iter().enumerate() {
            for (t, seen) in log {
                if crash_time(actor as u32).is_some_and(|c| *t > c) {
                    return Err(format!("actor {actor} saw {seen:?} after its crash"));
                }
                if let Seen::Msg {
                    serial, sent_at, ..
                } = seen
                {
                    if receipts.insert(*serial, (actor as u32, *sent_at)).is_some() {
                        return Err(format!("message {serial:#x} delivered twice"));
                    }
                }
            }
        }
        for &(serial, to, sent_at) in &self.sent {
            match receipts.remove(&serial) {
                Some(got) if got == (to, sent_at) => {}
                Some(got) => {
                    return Err(format!(
                        "message {serial:#x} for {to} sent at {sent_at} arrived as {got:?}"
                    ))
                }
                None if crash_time(to).is_some() => {}
                None => return Err(format!("message {serial:#x} for {to} was lost")),
            }
        }
        if let Some(serial) = receipts.keys().next() {
            return Err(format!("message {serial:#x} was never sent"));
        }
        let delivered = (self.logs.iter().flatten())
            .filter(|(_, s)| matches!(s, Seen::Msg { .. }))
            .count() as u64;
        if delivered != self.msgs_delivered {
            return Err(format!(
                "{delivered} receipts but {} deliveries counted",
                self.msgs_delivered
            ));
        }
        for (actor, &left) in self.left_armed.iter().enumerate() {
            if left > 0 && crash_time(actor as u32).is_none() {
                return Err(format!("actor {actor}: {left} live timers never fired"));
            }
        }
        if self.crashes != CRASHES.len() as u64 {
            return Err(format!("{} crashes executed", self.crashes));
        }
        Ok(())
    }
}

const FAT_BUDGET: u32 = 300;
const FAT_HORIZON: Time = Time(u64::MAX / 2);

/// How the links of a fat run price a message.
#[derive(Clone, Copy, Debug)]
enum Link {
    /// 1–40 delays, uniform; on the monolithic kernel a message's own
    /// `hop` overrides the draw. Sends arrive in any order.
    Jittered,
    /// Exactly one delay, `hop` ignored: every send arrives in the order
    /// it was sent, while timers of 0–40 delays land among and behind the
    /// sends — the service's common case.
    Constant,
}

impl Link {
    fn model(self) -> DelayModel {
        match self {
            Link::Jittered => DelayModel::Uniform {
                lo: Duration::from_delays(1),
                hi: Duration::from_delays(40),
            },
            Link::Constant => DelayModel::synchronous(),
        }
    }
}

/// One monolithic run on jittered links; `hook_seed` installs a seeded
/// choice hook.
fn fat_mono(seed: u64, n: u32, hook_seed: Option<u64>) -> FatOutcome {
    fat_mono_on(Link::Jittered, seed, n, hook_seed)
}

/// One monolithic run on `link`.
fn fat_mono_on(link: Link, seed: u64, n: u32, hook_seed: Option<u64>) -> FatOutcome {
    let mut sim: Simulation<Fat> = Simulation::new(seed);
    sim.set_default_delay(link.model());
    if let Link::Jittered = link {
        sim.set_delay_hook(Box::new(|_, _, _, m: &Fat| {
            (m.hop != u64::MAX).then_some(Duration(m.hop))
        }));
    }
    for id in 0..n {
        sim.add(Node::new(seed, id, n, FAT_BUDGET));
    }
    if let Some(hs) = hook_seed {
        let mut state = mix(hs) | 1;
        sim.set_choice_hook(Box::new(move |_, choices| {
            for c in choices {
                if let ChoicePayload::Deliver(EventKind::Msg { msg, .. }) = &c.payload {
                    assert!(msg.intact(), "the hook was shown a damaged message");
                }
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % choices.len() as u64) as usize
        }));
    }
    let mut stimuli = before_run(&mut sim, n);
    sim.run_to_quiescence(Time::from_delays(PAUSE_DELAYS));
    stimuli.extend(at_pause(&mut sim, n));
    sim.run_to_quiescence(FAT_HORIZON);
    let nodes = (0..n).map(|id| sim.actor_as::<Node>(ActorId(id)).unwrap());
    FatOutcome::gather(nodes, stimuli, sim.now(), sim.metrics())
}

/// One partitioned run on jittered links (actor `i` on partition
/// `i % parts`).
fn fat_par(seed: u64, n: u32, parts: usize, threads: usize) -> FatOutcome {
    fat_par_on(Link::Jittered, seed, n, parts, threads)
}

/// One partitioned run on `link`.
fn fat_par_on(link: Link, seed: u64, n: u32, parts: usize, threads: usize) -> FatOutcome {
    let mut sim: ParSimulation<Fat> = ParSimulation::new(seed, parts, Duration::from_delays(1));
    sim.set_default_delay(link.model());
    for id in 0..n {
        sim.add_to(id as usize % parts, Node::new(seed, id, n, FAT_BUDGET));
    }
    sim.set_threads(threads);
    let mut stimuli = before_run(&mut sim, n);
    sim.run_to_quiescence(Time::from_delays(PAUSE_DELAYS));
    stimuli.extend(at_pause(&mut sim, n));
    sim.run_to_quiescence(FAT_HORIZON);
    let metrics = sim.merged_metrics();
    let now = sim.now();
    sim.with_actors(|v| {
        let nodes = (0..n).map(|id| v.actor_as::<Node>(ActorId(id)).unwrap());
        FatOutcome::gather(nodes, stimuli, now, &metrics)
    })
}

/// The workload really takes every road: the pins below would be weak if
/// a configuration stopped dropping, cancelling or crossing the window.
#[test]
fn fat_workload_covers_the_queue() {
    assert!(std::mem::size_of::<Fat>() >= 112, "as big as the service's");
    let out = fat_mono(7, 6, None);
    out.check().unwrap();
    assert!(out.dropped > 0, "nothing was dropped at a crashed target");
    assert!(out.timers_fired > 0);
    let far = (out.logs.iter().flatten())
        .filter(|(t, s)| matches!(s, Seen::Msg { sent_at, .. } if t.0 - sent_at > 32_768))
        .count();
    assert!(far > 10, "only {far} messages crossed 2^15 ticks");
    let same_tick = (out.logs.iter().flatten())
        .filter(|(t, s)| matches!(s, Seen::Msg { sent_at, .. } if t.0 == *sent_at))
        .count();
    assert!(same_tick > 10, "only {same_tick} same-tick deliveries");
}

#[test]
fn fat_transcripts_are_pinned() {
    let plain = fat_mono(7, 6, None);
    plain.check().unwrap();
    assert_eq!(plain, fat_mono(7, 6, None), "replay diverged");
    assert_eq!(plain.transcript_hash(), PIN_PLAIN);

    let hooked = fat_mono(7, 6, Some(11));
    hooked.check().unwrap();
    assert_ne!(hooked.logs, plain.logs, "the hook reordered nothing");
    assert_eq!(hooked.transcript_hash(), PIN_HOOKED);

    for (parts, pin) in [(2, PIN_PAR2), (4, PIN_PAR4)] {
        let one = fat_par(7, 6, parts, 1);
        one.check().unwrap();
        assert_eq!(
            one,
            fat_par(7, 6, parts, 2),
            "{parts} partitions: threads differ"
        );
        assert_eq!(one.transcript_hash(), pin, "{parts} partitions");
    }
}

/// On constant links the sends reach the queue in the order they are due,
/// with timers of every length from 0 to 40 delays mixed in: the path a
/// queue may take for in-order traffic, pinned on its own.
#[test]
fn fat_constant_delay_transcripts_are_pinned() {
    let plain = fat_mono_on(Link::Constant, 7, 6, None);
    plain.check().unwrap();
    assert_eq!(
        plain,
        fat_mono_on(Link::Constant, 7, 6, None),
        "replay diverged"
    );
    assert!(
        plain.timers_fired > 20,
        "{} timers fired",
        plain.timers_fired
    );
    assert!(plain.dropped > 0, "nothing was dropped at a crashed target");
    assert_eq!(plain.transcript_hash(), PIN_CONST_PLAIN);

    let hooked = fat_mono_on(Link::Constant, 7, 6, Some(11));
    hooked.check().unwrap();
    assert_ne!(hooked.logs, plain.logs, "the hook reordered nothing");
    assert_eq!(hooked.transcript_hash(), PIN_CONST_HOOKED);

    let one = fat_par_on(Link::Constant, 7, 6, 2, 1);
    one.check().unwrap();
    assert_eq!(
        one,
        fat_par_on(Link::Constant, 7, 6, 2, 2),
        "threads differ"
    );
    assert_eq!(one.transcript_hash(), PIN_CONST_PAR2);
}

// Captured at commit a333e49 (the payload-carrying `WheelQueue<M>`); every
// queue since, the wheel of keys and then the key heap, reproduces them.
const PIN_PLAIN: u64 = 0xfeca_15b0_bbfc_b5ca;
const PIN_HOOKED: u64 = 0x7136_9641_0020_be41;
const PIN_PAR2: u64 = 0x40f7_7ef6_1638_26ee;
const PIN_PAR4: u64 = 0xac58_12b9_b817_fb1f;

// Captured on the single key heap, before in-order sends had a queue
// path of their own.
const PIN_CONST_PLAIN: u64 = 0x4cdc_1f34_2e8d_572d;
const PIN_CONST_HOOKED: u64 = 0x7c1e_ab9e_200f_2861;
const PIN_CONST_PAR2: u64 = 0xd8e9_63e7_e5f9_366c;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The delivery contract over seeds and cluster sizes, on every
    /// configuration the pins cover.
    #[test]
    fn fat_payloads_arrive_once_and_intact(seed in 0u64..10_000, n in 3u32..8, hook in 0u64..1_000) {
        let plain = fat_mono(seed, n, None);
        prop_assert_eq!(plain.check(), Ok(()));
        prop_assert_eq!(fat_mono(seed, n, Some(hook)).check(), Ok(()));
        for parts in [2usize, 4] {
            let one = fat_par(seed, n, parts, 1);
            prop_assert_eq!(one.check(), Ok(()));
            prop_assert_eq!(&one, &fat_par(seed, n, parts, 2));
        }
    }

    /// The same contract on constant links, where sends arrive in order.
    #[test]
    fn fat_payloads_on_constant_links_arrive_once_and_intact(
        seed in 0u64..10_000, n in 3u32..8, hook in 0u64..1_000,
    ) {
        let plain = fat_mono_on(Link::Constant, seed, n, None);
        prop_assert_eq!(plain.check(), Ok(()));
        prop_assert_eq!(fat_mono_on(Link::Constant, seed, n, Some(hook)).check(), Ok(()));
        let one = fat_par_on(Link::Constant, seed, n, 2, 1);
        prop_assert_eq!(one.check(), Ok(()));
        prop_assert_eq!(&one, &fat_par_on(Link::Constant, seed, n, 2, 2));
    }
}
