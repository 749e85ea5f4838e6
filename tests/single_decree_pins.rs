//! Absolute pins for the single-decree crash protocols — Disk Paxos,
//! Protected Memory Paxos, Aligned Paxos in both memory modes, and the
//! message-passing Paxos baseline whose acceptor Aligned's process agents
//! share.
//!
//! Every value below was captured at the commit *before* the three
//! protocols moved onto one two-phase proposer and one actor shell, and
//! is never re-recorded: a moved pin means the shared proposer sends,
//! counts or judges differently from the implementation it replaced.
//!
//! Three rows are marked `FIXED PARENT`. The old `AlignedPaxosActor`
//! judged phase 2's self-accept against the memory agents of *phase 1*,
//! so in protected mode, whenever phase 1 had needed a memory, it decided
//! the instant phase 1 ended — before any other agent had accepted
//! anything (`aligned::tests::protected_mode_decides_only_on_a_phase_two_quorum`
//! turns that into a disagreement). Those rows hold what the old
//! implementation produced with that one defect repaired (its
//! `mem_agents` cleared on entering phase 2) — still not a value taken
//! from the code under test; the other 57 rows are the parent's as it
//! was.
//! `golden_schedule` pins only `mp_paxos` / `protected` / `fast_robust`;
//! Disk and Aligned had no schedule pin at all before this file.

use agreement::aligned::{self, AlignedPaxosActor, MemoryMode};
use agreement::disk_paxos::{self, DiskPaxosActor};
use agreement::harness::{
    run_aligned, run_disk_paxos, run_mp_paxos, run_protected, RunReport, Scenario,
};
use agreement::paxos::PaxosActor;
use agreement::protected::{self, ProtectedPaxosActor};
use agreement::types::{Instance, Msg, Pid, Value};
use simnet::{ActorId, DelayModel, Duration, Simulation, Time};

/// `(first decision, messages, memory ops, elapsed, decisions)`, times in
/// tenths of a delay so the pins are integers; decisions are the decided
/// value of process 0, 1, … (`0`: undecided).
type Pin = (Option<u64>, u64, u64, u64, &'static [u64]);

/// What a run produced, in [`Pin`]'s shape.
type Fingerprint = (Option<u64>, u64, u64, u64, Vec<u64>);

const PROTOCOLS: [&str; 5] = [
    "disk",
    "protected",
    "aligned_protected",
    "aligned_disk",
    "mp_paxos",
];

fn tenths(delays: f64) -> u64 {
    (delays * 10.0).round() as u64
}

fn check(what: &str, got: &Fingerprint, want: Pin) {
    let (first, messages, mem_ops, elapsed, decisions) = want;
    assert_eq!(
        *got,
        (first, messages, mem_ops, elapsed, decisions.to_vec()),
        "{what}: diverged from the pre-refactor pin"
    );
}

fn run_harness(protocol: &str, s: &Scenario) -> RunReport {
    match protocol {
        "disk" => run_disk_paxos(s),
        "protected" => run_protected(s),
        "aligned_protected" => run_aligned(s, MemoryMode::Protected),
        "aligned_disk" => run_aligned(s, MemoryMode::DiskStyle),
        "mp_paxos" => run_mp_paxos(s),
        other => panic!("unknown protocol {other}"),
    }
}

fn harness_pins(what: &str, s: &Scenario, want: [Pin; 5]) {
    for (protocol, pin) in PROTOCOLS.into_iter().zip(want) {
        let r = run_harness(protocol, s);
        assert!(r.agreement && r.validity, "{what} {protocol}: {r:?}");
        let decisions = (0..s.n as u32)
            .map(|p| r.decisions.get(&ActorId(p)).map_or(0, |v| v.0))
            .collect();
        let got = (
            r.first_decision_delays.map(tenths),
            r.messages,
            r.mem_ops,
            tenths(r.elapsed_delays),
            decisions,
        );
        check(&format!("{what} {protocol}"), &got, pin);
    }
}

#[test]
fn common_case_is_pinned() {
    let recorded: [(usize, [Pin; 5]); 3] = [
        (
            3,
            [
                (Some(40), 14, 6, 50, &[100, 100, 100]),
                (Some(20), 8, 3, 30, &[100, 100, 100]),
                // FIXED PARENT (as it was: Some(60), 31, 12, 70).
                (Some(80), 34, 12, 90, &[100, 100, 100]),
                (Some(80), 34, 12, 90, &[100, 100, 100]),
                (Some(20), 6, 0, 30, &[100, 100, 100]),
            ],
        ),
        (
            5,
            [
                (Some(40), 16, 6, 50, &[100, 100, 100, 100, 100]),
                (Some(20), 10, 3, 30, &[100, 100, 100, 100, 100]),
                (Some(40), 35, 12, 50, &[100, 100, 100, 100, 100]),
                (Some(40), 35, 12, 50, &[100, 100, 100, 100, 100]),
                (Some(20), 12, 0, 30, &[100, 100, 100, 100, 100]),
            ],
        ),
        (
            7,
            [
                (Some(40), 18, 6, 50, &[100, 100, 100, 100, 100, 100, 100]),
                (Some(20), 12, 3, 30, &[100, 100, 100, 100, 100, 100, 100]),
                (Some(40), 45, 12, 50, &[100, 100, 100, 100, 100, 100, 100]),
                (Some(40), 45, 12, 50, &[100, 100, 100, 100, 100, 100, 100]),
                (Some(20), 18, 0, 30, &[100, 100, 100, 100, 100, 100, 100]),
            ],
        ),
    ];
    for (n, want) in recorded {
        let s = Scenario::common_case(n, 3, 42);
        harness_pins(&format!("common case n={n}"), &s, want);
    }
}

#[test]
fn jittered_schedules_are_pinned() {
    // `golden_schedule`'s three jittered seeds: link jitter draws from the
    // seeded RNG on every send, so these freeze send ORDER as well as
    // counts.
    let recorded: [(u64, [Pin; 5]); 3] = [
        (
            3,
            [
                (Some(101), 14, 6, 125, &[100, 100, 100]),
                (Some(49), 8, 3, 78, &[100, 100, 100]),
                // FIXED PARENT (as it was: Some(132), 31, 12, 167).
                (Some(183), 34, 12, 215, &[100, 100, 100]),
                (Some(177), 34, 12, 209, &[100, 100, 100]),
                (Some(48), 6, 0, 76, &[100, 100, 100]),
            ],
        ),
        (
            9,
            [
                (Some(97), 14, 6, 118, &[100, 100, 100]),
                (Some(42), 8, 3, 65, &[100, 100, 100]),
                (Some(190), 34, 12, 228, &[100, 100, 100]),
                (Some(163), 33, 12, 176, &[100, 100, 100]),
                (Some(39), 6, 0, 53, &[100, 100, 100]),
            ],
        ),
        (
            77,
            [
                (Some(112), 14, 6, 127, &[100, 100, 100]),
                (Some(42), 8, 3, 79, &[100, 100, 100]),
                (Some(172), 33, 12, 207, &[100, 100, 100]),
                (Some(166), 32, 12, 200, &[100, 100, 100]),
                (Some(47), 6, 0, 72, &[100, 100, 100]),
            ],
        ),
    ];
    for (seed, want) in recorded {
        let mut s = Scenario::common_case(3, 3, seed);
        s.delay = DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(4),
        };
        s.max_delays = 3_000;
        harness_pins(&format!("jittered seed {seed}"), &s, want);
    }
}

#[test]
fn crash_failover_schedules_are_pinned() {
    // `golden_schedule`'s failover shape — the leader crashes at 6, a
    // memory at 9, Ω names process 1 at 15 — which every protocol here
    // survives by deciding before the crash, and the same shape with the
    // crashes at 1 and 3, where process 1 has to take over mid-protocol.
    let recorded: [((u64, u64), u64, [Pin; 5]); 4] = [
        (
            (6, 9),
            5,
            [
                (Some(40), 15, 6, 50, &[0, 100, 100, 100]),
                (Some(20), 9, 3, 30, &[0, 100, 100, 100]),
                (Some(40), 30, 12, 50, &[0, 100, 100, 100]),
                (Some(40), 30, 12, 50, &[0, 100, 100, 100]),
                (Some(20), 9, 0, 30, &[0, 100, 100, 100]),
            ],
        ),
        (
            (6, 9),
            11,
            [
                (Some(40), 15, 6, 50, &[0, 100, 100, 100]),
                (Some(20), 9, 3, 30, &[0, 100, 100, 100]),
                (Some(40), 30, 12, 50, &[0, 100, 100, 100]),
                (Some(40), 30, 12, 50, &[0, 100, 100, 100]),
                (Some(20), 9, 0, 30, &[0, 100, 100, 100]),
            ],
        ),
        (
            (1, 3),
            5,
            [
                (Some(230), 26, 18, 240, &[0, 100, 100, 100]),
                (Some(230), 26, 15, 240, &[0, 100, 100, 100]),
                (Some(230), 42, 21, 240, &[0, 101, 101, 101]),
                (Some(230), 42, 18, 240, &[0, 101, 101, 101]),
                (Some(190), 19, 0, 200, &[0, 100, 100, 100]),
            ],
        ),
        (
            (1, 3),
            11,
            [
                (Some(230), 26, 18, 240, &[0, 100, 100, 100]),
                (Some(230), 26, 15, 240, &[0, 100, 100, 100]),
                (Some(230), 42, 21, 240, &[0, 101, 101, 101]),
                (Some(230), 42, 18, 240, &[0, 101, 101, 101]),
                (Some(190), 19, 0, 200, &[0, 100, 100, 100]),
            ],
        ),
    ];
    for ((leader_dies, memory_dies), seed, want) in recorded {
        let mut s = Scenario::common_case(4, 3, seed);
        s.crash_procs = vec![(0, leader_dies)];
        s.crash_mems = vec![(2, memory_dies)];
        s.announce = vec![(15, 1)];
        s.max_delays = 2_000;
        let what = format!("crash failover at {leader_dies}/{memory_dies} seed {seed}");
        harness_pins(&what, &s, want);
    }
}

/// A duel: two early Ω announcements that each reach only the process
/// they name (so up to three processes believe they lead at once), then a
/// late announcement to everyone.
struct Duel {
    n: u32,
    m: u32,
    seed: u64,
    /// Link jitter `Uniform{1..hi}`; `1` is synchronous.
    jitter_hi: u64,
    early: [(u64, u32); 2],
    late: (u64, u32),
}

/// Builds `protocol` directly over the public actor API (the harness
/// scripts only global announcements), runs the duel to quiescence and
/// fingerprints it.
fn run_duel(protocol: &str, d: &Duel) -> Fingerprint {
    let mut sim: Simulation<Msg> = Simulation::new(d.seed);
    sim.set_default_delay(DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(d.jitter_hi),
    });
    let procs: Vec<Pid> = (0..d.n).map(ActorId).collect();
    let mems: Vec<ActorId> = (d.n..d.n + d.m).map(ActorId).collect();
    let mode = match protocol {
        "aligned_protected" => MemoryMode::Protected,
        _ => MemoryMode::DiskStyle,
    };
    let leader = ActorId(0);
    let retry = Duration::from_delays(25);
    for (i, &p) in procs.iter().enumerate() {
        let (procs, mems) = (procs.clone(), mems.clone());
        let input = Scenario::input(i);
        match protocol {
            "disk" => {
                let inst = Instance(0);
                sim.add(DiskPaxosActor::new(
                    p,
                    procs,
                    mems,
                    inst,
                    input,
                    Some(leader),
                    retry,
                ));
            }
            "protected" => {
                let f_m = (d.m as usize - 1) / 2;
                sim.add(ProtectedPaxosActor::new(
                    p,
                    procs,
                    mems,
                    Instance(0),
                    input,
                    leader,
                    f_m,
                    retry,
                ));
            }
            "aligned_protected" | "aligned_disk" => {
                sim.add(AlignedPaxosActor::new(
                    p,
                    procs,
                    mems,
                    Instance(0),
                    input,
                    leader,
                    mode,
                    retry,
                ));
            }
            "mp_paxos" => {
                sim.add(PaxosActor::new(p, procs, input, Some(leader), retry));
            }
            other => panic!("unknown protocol {other}"),
        }
    }
    for _ in 0..d.m {
        match protocol {
            "disk" => sim.add(disk_paxos::disk_actor(&procs)),
            "protected" => sim.add(protected::memory_actor(leader)),
            "mp_paxos" => break,
            _ => sim.add(aligned::memory_actor(mode, &procs, leader)),
        };
    }
    for (at, who) in d.early {
        sim.announce_leader(Time::from_delays(at), &[ActorId(who)], ActorId(who));
    }
    sim.announce_leader(Time::from_delays(d.late.0), &procs, ActorId(d.late.1));
    sim.run_to_quiescence(Time::from_delays(5_000));
    let decisions: Vec<u64> = procs
        .iter()
        .map(|&p| {
            let decided: Option<Value> = match protocol {
                "disk" => sim.actor_as::<DiskPaxosActor>(p).unwrap().decision(),
                "protected" => sim.actor_as::<ProtectedPaxosActor>(p).unwrap().decision(),
                "mp_paxos" => sim.actor_as::<PaxosActor>(p).unwrap().decision(),
                _ => sim.actor_as::<AlignedPaxosActor>(p).unwrap().decision(),
            };
            decided.map_or(0, |v| v.0)
        })
        .collect();
    assert!(
        decisions.windows(2).all(|w| w[0] == w[1]) && decisions[0] != 0,
        "{protocol}: duel broke agreement or termination: {decisions:?}"
    );
    let metrics = sim.metrics();
    (
        metrics.first_decision_delays().map(tenths),
        metrics.messages_sent,
        metrics.mem_ops(),
        tenths(sim.now().as_delays()),
        decisions,
    )
}

#[test]
fn duelling_leaders_are_pinned() {
    let sync = Duel {
        n: 3,
        m: 3,
        seed: 1,
        jitter_hi: 1,
        early: [(1, 1), (3, 2)],
        late: (80, 2),
    };
    let jittered = Duel {
        n: 4,
        m: 3,
        seed: 21,
        jitter_hi: 4,
        early: [(2, 1), (5, 2)],
        late: (120, 3),
    };
    let recorded: [(&str, &Duel, [Pin; 5]); 2] = [
        (
            "synchronous",
            &sync,
            [
                (Some(110), 50, 24, 800, &[100, 100, 100]),
                (Some(20), 52, 24, 800, &[100, 100, 100]),
                // FIXED PARENT (as it was: Some(90), 78, 30, 800).
                (Some(110), 78, 30, 800, &[102, 102, 102]),
                (Some(110), 66, 24, 800, &[102, 102, 102]),
                (Some(20), 22, 0, 800, &[100, 100, 100]),
            ],
        ),
        (
            "jittered",
            &jittered,
            [
                (Some(231), 90, 42, 1200, &[100, 100, 100, 100]),
                (Some(65), 54, 24, 1200, &[100, 100, 100, 100]),
                (Some(176), 87, 30, 1200, &[102, 102, 102, 102]),
                (Some(171), 75, 24, 1200, &[102, 102, 102, 102]),
                (Some(71), 33, 0, 1200, &[100, 100, 100, 100]),
            ],
        ),
    ];
    for (name, duel, want) in recorded {
        for (protocol, pin) in PROTOCOLS.into_iter().zip(want) {
            let got = run_duel(protocol, duel);
            check(&format!("{name} duel {protocol}"), &got, pin);
            assert_eq!(run_duel(protocol, duel), got, "{protocol}: rerun diverged");
        }
    }
}
