//! Byzantine fire drill: what the paper's mechanisms do under live attack.
//!
//! Three scenarios, printed as a narrative:
//!
//! 1. An **equivocating Cheap Quorum leader** split-writes two signed
//!    values across the memory replicas. Unanimity fails, followers panic,
//!    revoke the leader's permission and abort — no two correct processes
//!    ever decide differently.
//! 2. A **silent Byzantine follower** under the full Fast & Robust stack:
//!    the correct leader still 2-decides; the backup confirms its value.
//! 3. A **protocol-violating sender** over trusted channels: its Accept
//!    with no promise quorum is rejected by every history checker — the
//!    Byzantine process is confined to a crash.
//!
//! ```sh
//! cargo run --example byzantine_drill
//! ```

use agreement::adversary::Scripted;
use agreement::cheap_quorum::{memory_actor as cq_memory, CheapQuorumActor};
use agreement::harness::{decisions, run_fast_robust, Scenario};
use agreement::nebcast;
use agreement::robust_backup::RobustPaxosActor;
use agreement::types::Value;
use sigsim::SigAuthority;
use simnet::obs::EventBody;
use simnet::{ActorId, Duration, Time};

fn main() {
    drill_equivocating_leader();
    drill_silent_follower();
    drill_bad_history();
}

fn drill_equivocating_leader() {
    println!("== drill 1: equivocating Cheap Quorum leader ==");
    let s = Scenario::common_case(3, 3, 7);
    let mut auth = SigAuthority::new(99);
    let signers: Vec<_> = s.procs().iter().map(|&p| auth.register(p)).collect();
    let mut sim = s.cluster(
        |i, procs, mems| match i {
            // The Byzantine leader writes v=111 to one replica, v=222 to the rest.
            0 => Box::new(Scripted::cq_equivocating_leader(
                procs[0],
                mems,
                1,
                Value(111),
                Value(222),
                signers[0].clone(),
            )),
            _ => Box::new(CheapQuorumActor::cheap_quorum(
                procs[i],
                procs,
                mems,
                ActorId(0),
                Scenario::input(i),
                signers[i].clone(),
                auth.verifier(),
                Duration::from_delays(1),
                Duration::from_delays(25),
            )),
        },
        s.memories(|procs| cq_memory(procs, ActorId(0))),
    );
    sim.run_to_quiescence(Time::from_delays(400));
    let mut decisions = Vec::new();
    for i in 1..s.n as u32 {
        let a = sim.actor_as::<CheapQuorumActor>(ActorId(i)).unwrap();
        println!(
            "  follower {}: decision={:?} abort={:?}",
            i,
            a.decision(),
            a.abort().map(|x| x.value)
        );
        if let Some(d) = a.decision() {
            decisions.push(d);
        }
    }
    assert!(
        decisions.windows(2).all(|w| w[0] == w[1]),
        "correct processes decided differently!"
    );
    println!("  -> no split decision; followers panicked and aborted with evidence\n");
}

fn drill_silent_follower() {
    println!("== drill 2: silent Byzantine follower under Fast & Robust ==");
    let mut scenario = Scenario::common_case(3, 3, 11);
    scenario.byz_silent.push(2);
    scenario.max_delays = 20_000;
    let (report, _) = run_fast_robust(&scenario, 20);
    println!(
        "  correct processes decided: {:?} (agreement={}, first at {:.1} delays)",
        report.decisions.values().collect::<Vec<_>>(),
        report.agreement,
        report.first_decision_delays.unwrap()
    );
    assert!(report.agreement && report.all_decided);
    println!("  -> the leader's fast path still won; the backup confirmed it\n");
}

fn drill_bad_history() {
    println!("== drill 3: protocol-violating sender vs. history checking ==");
    let s = Scenario::common_case(3, 3, 13);
    let mut auth = SigAuthority::new(5);
    let signers: Vec<_> = s.procs().iter().map(|&p| auth.register(p)).collect();
    let mut sim = s.cluster(
        |i, procs, mems| match i {
            // Broadcasts Accept{b=(1,p2)} with an empty history: illegal.
            2 => Box::new(Scripted::bad_history(
                procs[2],
                mems,
                Value(666),
                signers[2].clone(),
            )),
            _ => Box::new(RobustPaxosActor::robust_backup(
                procs[i],
                procs,
                mems,
                Scenario::input(i),
                Some(ActorId(0)),
                signers[i].clone(),
                auth.verifier(),
                Duration::from_delays(1),
                Duration::from_delays(80),
            )),
        },
        s.memories(nebcast::memory_actor),
    );
    sim.enable_obs();
    let correct = [ActorId(0), ActorId(1)];
    sim.run_until(Time::from_delays(2_000), |sim| {
        let decided = decisions(sim, &correct, RobustPaxosActor::decision);
        decided.iter().all(Option::is_some)
    });
    for i in [0u32, 1] {
        let a = sim.actor_as::<RobustPaxosActor>(ActorId(i)).unwrap();
        println!("  correct process {}: decision={:?}", i, a.decision());
        assert_eq!(a.decision(), Some(Value(100)));
    }
    // Let the forged Accept reach everyone, then read who distrusted whom.
    sim.run_to_quiescence(Time::from_delays(2_000));
    let lie = "trusted: distrust a2 at k=1";
    let mut noted: Vec<(ActorId, String)> = (sim.take_obs_events().into_iter())
        .filter_map(|e| match e.body {
            EventBody::Note { text } if text.starts_with("trusted:") => {
                Some((e.actor, text.into_owned()))
            }
            _ => None,
        })
        .collect();
    noted.sort();
    let both = [(ActorId(0), lie.to_string()), (ActorId(1), lie.to_string())];
    assert_eq!(noted, both, "the forged Accept was not rejected everywhere");
    println!("  both correct processes noted \"{lie}\"");
    println!("  -> the forged Accept was rejected everywhere; Byzantine == crashed");
    println!("     (its value 666 never appears)");
}
