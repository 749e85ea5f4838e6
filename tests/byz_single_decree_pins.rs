//! Absolute pins for the Byzantine single-decree protocols — Robust
//! Backup (Definition 2), Preferential Paxos (Algorithm 8; bare inputs and
//! one leader-signed input), Cheap Quorum alone (Algorithms 4 / 5) and the
//! Fast & Robust composition (Figure 6).
//!
//! Every value below was captured at the commit *before* the four
//! protocols moved onto one actor, from the four separate actors
//! (`RobustPaxosActor`, `PrefPaxosActor`, `CheapQuorumActor`,
//! `FastRobustActor`), and is never re-recorded: a moved pin means the one
//! actor sends, signs, arms a timer or decides at a different instant than
//! the shell it replaced. Every run goes to quiescence, so `events` and
//! `elapsed` also pin when each process's timers stop.
//! `golden_schedule` pins three jittered `fast_robust` rows and nothing
//! of the other three protocols.

use agreement::cheap_quorum::{self, CheapQuorumActor};
use agreement::fast_robust::{self, FastRobustActor, Via};
use agreement::nebcast;
use agreement::pref_paxos::PrefPaxosActor;
use agreement::robust_backup::RobustPaxosActor;
use agreement::trusted::SetupEvidence;
use agreement::types::{sigtags, Msg, Pid, RegVal, Value};
use rdma_sim::{LegalChange, MemoryActor};
use sigsim::{SigAuthority, SigVerifier, Signer};
use simnet::{Actor, ActorId, DelayModel, Duration, Simulation, Time};

/// One run on one line: `first` decision, `msgs` sent, memory `ops`,
/// `sigs` created/verified, `elapsed` at quiescence, kernel `events`, then
/// per process `value@instant/tail`. Times are in tenths of a delay so the
/// pins are integers; `-` is no decision, an undecided process reads
/// `0@0/_`. The tail is the abort value for Cheap Quorum (`0`: no abort),
/// the deciding path for Fast & Robust (`1` fast, `2` backup, `0`
/// undecided) and `0` for the other two.
type Pin = &'static str;

const ROBUST: &str = "robust_backup";
const PREF_BARE: &str = "pref_bare";
const PREF_SIGNED: &str = "pref_signed";
const CHEAP: &str = "cheap_quorum";
const FAST_ROBUST: &str = "fast_robust";

/// One scripted run; process 0 is the leader of every stage.
struct Spec {
    n: u32,
    m: u32,
    seed: u64,
    jitter: bool,
    /// `(process, crash time in delays)`.
    crash_procs: Vec<(u32, u64)>,
    /// `(memory index, crash time in delays)`.
    crash_mems: Vec<(u32, u64)>,
    /// Processes replaced by a silent Byzantine actor.
    silent: Vec<u32>,
    /// Ω announcements `(time in delays, leader)`.
    announce: Vec<(u64, u32)>,
    /// Cheap Quorum's timeout, in delays (protocols with a fast stage).
    timeout: u64,
}

impl Spec {
    fn common(n: u32, m: u32, seed: u64) -> Spec {
        Spec {
            n,
            m,
            seed,
            jitter: false,
            crash_procs: Vec::new(),
            crash_mems: Vec::new(),
            silent: Vec::new(),
            announce: Vec::new(),
            timeout: 60,
        }
    }
}

const LEADER: Pid = ActorId(0);

fn tenths(t: Time) -> u64 {
    (t.as_delays() * 10.0).round() as u64
}

fn delays(d: u64) -> Duration {
    Duration::from_delays(d)
}

/// A memory holding only the broadcast regions (Robust Backup and
/// Preferential Paxos alone).
fn neb_memory(procs: &[Pid]) -> MemoryActor<RegVal, Msg> {
    let mut mem = MemoryActor::new(LegalChange::Static);
    nebcast::configure_memory(&mut mem, procs);
    mem
}

/// Places `spec`'s processes (built by `process(i, procs, mems, signer,
/// verifier)`) and memories, scripts its failures, runs to quiescence and
/// reads each process through `read` (`(decision, decided_at, tail)`).
fn run<A: Actor<Msg>>(
    spec: &Spec,
    auth: SigAuthority,
    signers: Vec<Signer>,
    mut process: impl FnMut(usize, Vec<Pid>, Vec<ActorId>, Signer, SigVerifier) -> A,
    memory: impl Fn(&[Pid]) -> MemoryActor<RegVal, Msg>,
    read: impl Fn(&A) -> (Option<Value>, Option<Time>, u64),
) -> String {
    let mut sim: Simulation<Msg> = Simulation::new(spec.seed);
    if spec.jitter {
        // `golden_schedule`'s jitter: every send draws from the seeded RNG.
        sim.set_default_delay(DelayModel::Uniform {
            lo: delays(1),
            hi: delays(4),
        });
    }
    let procs: Vec<Pid> = (0..spec.n).map(ActorId).collect();
    let mems: Vec<ActorId> = (spec.n..spec.n + spec.m).map(ActorId).collect();
    for i in 0..spec.n {
        if spec.silent.contains(&i) {
            sim.add(agreement::adversary::Scripted::silent());
        } else {
            let signer = signers[i as usize].clone();
            sim.add(process(
                i as usize,
                procs.clone(),
                mems.clone(),
                signer,
                auth.verifier(),
            ));
        }
    }
    for _ in 0..spec.m {
        sim.add(memory(&procs));
    }
    for &(p, t) in &spec.crash_procs {
        sim.crash_at(ActorId(p), Time::from_delays(t));
    }
    for &(j, t) in &spec.crash_mems {
        sim.crash_at(mems[j as usize], Time::from_delays(t));
    }
    for &(t, l) in &spec.announce {
        sim.announce_leader(Time::from_delays(t), &procs, ActorId(l));
    }
    let outcome = sim.run_to_quiescence(Time::from_delays(20_000));
    assert_eq!(outcome, simnet::RunOutcome::Quiescent, "run did not settle");
    let per_process: Vec<String> = (procs.iter())
        .map(|&p| match sim.actor_as::<A>(p) {
            None => "0@0/0".to_string(),
            Some(a) => {
                let (decision, at, tail) = read(a);
                let (v, at) = (decision.map_or(0, |v| v.0), at.map_or(0, tenths));
                format!("{v}@{at}/{tail}")
            }
        })
        .collect();
    let metrics = sim.metrics();
    format!(
        "first={} msgs={} ops={} sigs={}/{} elapsed={} events={} | {}",
        (metrics.first_decision()).map_or("-".to_string(), |t| tenths(t).to_string()),
        metrics.messages_sent,
        metrics.mem_ops(),
        auth.signatures_created(),
        auth.verifications(),
        tenths(sim.now()),
        metrics.events_dispatched,
        per_process.join(" "),
    )
}

fn input(i: usize) -> Value {
    Value(100 + i as u64)
}

fn fingerprint(protocol: &str, spec: &Spec) -> String {
    let mut auth = SigAuthority::new(spec.seed ^ 0x5EED);
    let signers: Vec<Signer> = (0..spec.n).map(|i| auth.register(ActorId(i))).collect();
    match protocol {
        ROBUST => run(
            spec,
            auth,
            signers,
            |i, procs, mems, signer, verifier| {
                let me = ActorId(i as u32);
                RobustPaxosActor::robust_backup(
                    me,
                    procs,
                    mems,
                    input(i),
                    Some(LEADER),
                    signer,
                    verifier,
                    delays(1),
                    delays(80),
                )
            },
            neb_memory,
            |a: &RobustPaxosActor| (a.decision(), a.decided_at, 0),
        ),
        PREF_BARE | PREF_SIGNED => {
            // Signed: process 1 enters with a value carrying the Cheap
            // Quorum leader's signature (class M); everyone else is bare.
            let signed = Value(7);
            let evidence = SetupEvidence {
                proof: None,
                leader_sig: Some(signers[0].sign(&(sigtags::CQ_VALUE, signed))),
            };
            let with_signed = protocol == PREF_SIGNED;
            run(
                spec,
                auth,
                signers,
                |i, procs, mems, signer, verifier| {
                    let (v, e) = if with_signed && i == 1 {
                        (signed, evidence.clone())
                    } else {
                        (input(i), SetupEvidence::default())
                    };
                    PrefPaxosActor::pref_paxos(
                        ActorId(i as u32),
                        procs,
                        mems,
                        v,
                        e,
                        Some(LEADER),
                        LEADER,
                        signer,
                        verifier,
                        delays(1),
                        delays(80),
                    )
                },
                neb_memory,
                |a: &PrefPaxosActor| (a.decision(), a.decided_at, 0),
            )
        }
        CHEAP => run(
            spec,
            auth,
            signers,
            |i, procs, mems, signer, verifier| {
                let me = ActorId(i as u32);
                CheapQuorumActor::cheap_quorum(
                    me,
                    procs,
                    mems,
                    LEADER,
                    input(i),
                    signer,
                    verifier,
                    delays(1),
                    delays(spec.timeout),
                )
            },
            |procs| cheap_quorum::memory_actor(procs, LEADER),
            |a: &CheapQuorumActor| {
                let abort = a.abort().map_or(0, |x| x.value.0);
                (a.decision(), a.decided_at, abort)
            },
        ),
        FAST_ROBUST => run(
            spec,
            auth,
            signers,
            |i, procs, mems, signer, verifier| {
                let me = ActorId(i as u32);
                FastRobustActor::new(
                    me,
                    procs,
                    mems,
                    LEADER,
                    input(i),
                    signer,
                    verifier,
                    delays(1),
                    delays(spec.timeout),
                    delays(120),
                )
            },
            |procs| fast_robust::memory_actor(procs, LEADER),
            |a: &FastRobustActor| {
                let via = match a.via {
                    None => 0,
                    Some(Via::Fast) => 1,
                    Some(Via::Backup) => 2,
                };
                (a.decision(), a.decided_at, via)
            },
        ),
        other => panic!("unknown protocol {other}"),
    }
}

fn check(what: &str, spec: &Spec, want: &[(&str, Pin)]) {
    for &(protocol, pin) in want {
        let got = fingerprint(protocol, spec);
        assert_eq!(
            got, pin,
            "{what} {protocol}: diverged from the four-actor pin"
        );
        let again = fingerprint(protocol, spec);
        assert_eq!(again, got, "{what} {protocol}: rerun diverged");
    }
}

#[test]
fn common_case_is_pinned() {
    #[rustfmt::skip]
    let recorded: [(u32, [(&str, Pin); 5]); 2] = [
        (3, [
            (ROBUST, "first=360 msgs=384 ops=192 sigs=7/21 elapsed=800 events=503 | 100@380/0 100@360/0 100@360/0"),
            (PREF_BARE, "first=620 msgs=618 ops=309 sigs=11/63 elapsed=800 events=815 | 101@640/0 101@620/0 101@620/0"),
            (PREF_SIGNED, "first=620 msgs=618 ops=309 sigs=11/66 elapsed=800 events=815 | 7@640/0 7@620/0 7@620/0"),
            (CHEAP, "first=20 msgs=162 ops=81 sigs=7/47 elapsed=600 events=223 | 100@20/0 100@180/0 100@160/0"),
            (FAST_ROBUST, "first=20 msgs=162 ops=81 sigs=7/47 elapsed=1200 events=226 | 100@20/1 100@180/1 100@160/1"),
        ]),
        (5, [
            (ROBUST, "first=580 msgs=1026 ops=513 sigs=11/55 elapsed=800 events=1331 | 100@600/0 100@580/0 100@580/0 100@580/0 100@580/0"),
            (PREF_BARE, "first=1000 msgs=1764 ops=882 sigs=23/265 elapsed=1600 events=2286 | 102@1040/0 102@1000/0 102@1000/0 102@1000/0 102@1000/0"),
            (PREF_SIGNED, "first=1000 msgs=1764 ops=882 sigs=23/270 elapsed=1600 events=2286 | 7@1040/0 7@1000/0 7@1000/0 7@1000/0 7@1000/0"),
            (CHEAP, "first=20 msgs=390 ops=195 sigs=11/179 elapsed=600 events=531 | 100@20/0 100@260/0 100@260/0 100@260/0 100@240/0"),
            (FAST_ROBUST, "first=20 msgs=390 ops=195 sigs=11/179 elapsed=1200 events=536 | 100@20/1 100@260/1 100@260/1 100@260/1 100@240/1"),
        ]),
    ];
    for (n, want) in recorded {
        check(&format!("common n={n}"), &Spec::common(n, 3, 42), &want);
    }
}

#[test]
fn jittered_schedules_are_pinned() {
    // `golden_schedule`'s three jittered seeds: link jitter draws from the
    // seeded RNG on every send, so these freeze send ORDER as well as
    // counts. (The `fast_robust` rows' first decision, messages and memory
    // ops are `golden_schedule`'s own; its `elapsed` stops at the last
    // decision, this one at quiescence.)
    #[rustfmt::skip]
    let recorded: [(u64, [(&str, Pin); 5]); 3] = [
        (3, [
            (ROBUST, "first=919 msgs=462 ops=231 sigs=10/29 elapsed=1600 events=763 | 100@946/0 100@1012/0 100@919/0"),
            (PREF_BARE, "first=1503 msgs=678 ops=339 sigs=15/88 elapsed=2400 events=1156 | 101@1503/0 101@1527/0 101@1605/0"),
            (PREF_SIGNED, "first=1503 msgs=678 ops=339 sigs=15/91 elapsed=2400 events=1156 | 7@1503/0 7@1527/0 7@1605/0"),
            (CHEAP, "first=54 msgs=168 ops=84 sigs=7/47 elapsed=600 events=315 | 100@54/0 100@516/0 100@400/0"),
            (FAST_ROBUST, "first=54 msgs=168 ops=84 sigs=7/47 elapsed=1200 events=318 | 100@54/1 100@516/1 100@400/1"),
        ]),
        (9, [
            (ROBUST, "first=981 msgs=480 ops=240 sigs=11/27 elapsed=1600 events=803 | 100@1046/0 100@981/0 100@1064/0"),
            (PREF_BARE, "first=1543 msgs=702 ops=351 sigs=15/88 elapsed=2400 events=1190 | 101@1578/0 101@1543/0 101@1616/0"),
            (PREF_SIGNED, "first=1543 msgs=702 ops=351 sigs=15/91 elapsed=2400 events=1190 | 7@1578/0 7@1543/0 7@1616/0"),
            (CHEAP, "first=47 msgs=180 ops=90 sigs=7/47 elapsed=600 events=343 | 100@47/0 100@552/0 100@487/0"),
            (FAST_ROBUST, "first=47 msgs=180 ops=90 sigs=7/47 elapsed=1200 events=346 | 100@47/1 100@552/1 100@487/1"),
        ]),
        (77, [
            (ROBUST, "first=999 msgs=468 ops=234 sigs=10/25 elapsed=1600 events=786 | 100@999/0 100@1040/0 100@1013/0"),
            (PREF_BARE, "first=1495 msgs=684 ops=342 sigs=15/88 elapsed=2109 events=1148 | 101@1507/0 101@1495/0 101@1501/0"),
            (PREF_SIGNED, "first=1495 msgs=684 ops=342 sigs=15/91 elapsed=2109 events=1148 | 7@1507/0 7@1495/0 7@1501/0"),
            (CHEAP, "first=67 msgs=174 ops=87 sigs=7/47 elapsed=600 events=329 | 100@67/0 100@495/0 100@472/0"),
            (FAST_ROBUST, "first=67 msgs=174 ops=87 sigs=7/47 elapsed=1200 events=332 | 100@67/1 100@495/1 100@472/1"),
        ]),
    ];
    for (seed, want) in recorded {
        let mut s = Spec::common(3, 3, seed);
        s.jitter = true;
        check(&format!("jitter seed={seed}"), &s, &want);
    }
}

#[test]
fn leader_crash_with_takeover_is_pinned() {
    // The leader crashes before its Cheap Quorum write could start (t = 0)
    // or after the write landed and it decided (t = 3); Ω names process 1
    // at t = 60. Cheap Quorum alone has no takeover: its followers abort —
    // with their inputs, or with the leader's value once it was written.
    #[rustfmt::skip]
    let recorded: [(u64, [(&str, Pin); 5]); 2] = [
        (0, [
            (ROBUST, "first=2040 msgs=1266 ops=633 sigs=14/102 elapsed=2400 events=1692 | 0@0/0 101@2060/0 101@2040/0"),
            (PREF_BARE, "first=2000 msgs=1242 ops=621 sigs=17/150 elapsed=2400 events=1660 | 0@0/0 102@2020/0 102@2000/0"),
            (PREF_SIGNED, "first=2000 msgs=1242 ops=621 sigs=17/152 elapsed=2400 events=1660 | 0@0/0 7@2020/0 7@2000/0"),
            (CHEAP, "first=- msgs=184 ops=90 sigs=0/0 elapsed=600 events=256 | 0@0/0 0@0/101 0@0/102"),
            (FAST_ROBUST, "first=1620 msgs=1042 ops=519 sigs=13/104 elapsed=2400 events=1388 | 0@0/0 102@1680/2 102@1620/2"),
        ]),
        (3, [
            (ROBUST, "first=380 msgs=276 ops=144 sigs=5/10 elapsed=800 events=368 | 0@0/0 100@380/0 100@380/0"),
            (PREF_BARE, "first=2000 msgs=1254 ops=633 sigs=18/174 elapsed=2400 events=1676 | 0@0/0 101@2020/0 101@2000/0"),
            (PREF_SIGNED, "first=2000 msgs=1254 ops=633 sigs=18/176 elapsed=2400 events=1676 | 0@0/0 7@2020/0 7@2000/0"),
            (CHEAP, "first=20 msgs=184 ops=90 sigs=6/24 elapsed=600 events=256 | 100@20/0 0@0/100 0@0/100"),
            (FAST_ROBUST, "first=20 msgs=1078 ops=537 sigs=19/144 elapsed=2400 events=1437 | 100@20/1 100@1720/2 100@1660/2"),
        ]),
    ];
    for (crash_at, want) in recorded {
        let mut s = Spec::common(3, 3, 5);
        s.crash_procs = vec![(0, crash_at)];
        s.announce = vec![(60, 1)];
        s.timeout = 20;
        check(&format!("leader crash@{crash_at}"), &s, &want);
    }
}

#[test]
fn silent_byzantine_follower_is_pinned() {
    // n = 3 = 2f + 1 with process 2 silent: no unanimity, so the correct
    // follower times out; the leader's 2-delay decision stands.
    let mut s = Spec::common(3, 3, 17);
    s.silent = vec![2];
    s.timeout = 25;
    #[rustfmt::skip]
    let want: [(&str, Pin); 5] = [
        (ROBUST, "first=360 msgs=258 ops=129 sigs=5/10 elapsed=800 events=340 | 100@380/0 100@360/0 0@0/0"),
        (PREF_BARE, "first=620 msgs=414 ops=207 sigs=8/26 elapsed=800 events=548 | 101@640/0 101@620/0 0@0/0"),
        (PREF_SIGNED, "first=620 msgs=414 ops=207 sigs=8/28 elapsed=800 events=548 | 7@640/0 7@620/0 0@0/0"),
        (CHEAP, "first=20 msgs=208 ops=102 sigs=3/5 elapsed=340 events=284 | 100@20/100 0@0/100 0@0/0"),
        (FAST_ROBUST, "first=20 msgs=622 ops=309 sigs=10/35 elapsed=1200 events=826 | 100@20/1 100@960/2 0@0/0"),
    ];
    check("silent follower", &s, &want);
}

#[test]
fn memory_minority_crash_is_pinned() {
    let mut s = Spec::common(3, 5, 9);
    s.crash_mems = vec![(0, 0), (3, 0)];
    #[rustfmt::skip]
    let want: [(&str, Pin); 5] = [
        (ROBUST, "first=360 msgs=390 ops=320 sigs=7/21 elapsed=800 events=513 | 100@380/0 100@360/0 100@360/0"),
        (PREF_BARE, "first=620 msgs=624 ops=515 sigs=11/63 elapsed=800 events=825 | 101@640/0 101@620/0 101@620/0"),
        (PREF_SIGNED, "first=620 msgs=624 ops=515 sigs=11/66 elapsed=800 events=825 | 7@640/0 7@620/0 7@620/0"),
        (CHEAP, "first=20 msgs=168 ops=135 sigs=7/47 elapsed=600 events=233 | 100@20/0 100@180/0 100@160/0"),
        (FAST_ROBUST, "first=20 msgs=168 ops=135 sigs=7/47 elapsed=1200 events=236 | 100@20/1 100@180/1 100@160/1"),
    ];
    check("memory minority crash", &s, &want);
}

#[test]
fn followers_panicking_after_the_leader_decided_is_pinned() {
    // A 4-delay timeout fires at the followers while they still collect
    // copies; the leader decided at 2. Protocols with a fast stage only.
    let mut s = Spec::common(3, 3, 23);
    s.timeout = 4;
    #[rustfmt::skip]
    let want: [(&str, Pin); 2] = [
        (CHEAP, "first=20 msgs=138 ops=66 sigs=5/5 elapsed=200 events=191 | 100@20/100 0@0/100 0@0/100"),
        (FAST_ROBUST, "first=20 msgs=798 ops=396 sigs=15/77 elapsed=1200 events=1056 | 100@20/1 100@820/2 100@820/2"),
    ];
    check("short timeout", &s, &want);
}
