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
use agreement::harness::{run_fast_robust, Scenario};
use agreement::nebcast;
use agreement::robust_backup::RobustPaxosActor;
use agreement::types::{Msg, Value};
use rdma_sim::{LegalChange, MemoryActor};
use sigsim::SigAuthority;
use simnet::obs::EventBody;
use simnet::{ActorId, Duration, Simulation, Time};

fn main() {
    drill_equivocating_leader();
    drill_silent_follower();
    drill_bad_history();
}

fn drill_equivocating_leader() {
    println!("== drill 1: equivocating Cheap Quorum leader ==");
    let (n, m) = (3u32, 3u32);
    let mut sim: Simulation<Msg> = Simulation::new(7);
    let procs: Vec<ActorId> = (0..n).map(ActorId).collect();
    let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
    let mut auth = SigAuthority::new(99);
    let leader_signer = auth.register(ActorId(0));
    // The Byzantine leader writes v=111 to one replica, v=222 to the rest.
    sim.add(Scripted::cq_equivocating_leader(
        ActorId(0),
        mems.clone(),
        1,
        Value(111),
        Value(222),
        leader_signer,
    ));
    for i in 1..n {
        let signer = auth.register(ActorId(i));
        sim.add(CheapQuorumActor::cheap_quorum(
            ActorId(i),
            procs.clone(),
            mems.clone(),
            ActorId(0),
            Value(100 + i as u64),
            signer,
            auth.verifier(),
            Duration::from_delays(1),
            Duration::from_delays(25),
        ));
    }
    for _ in 0..m {
        sim.add(cq_memory(&procs, ActorId(0)));
    }
    sim.run_to_quiescence(Time::from_delays(400));
    let mut decisions = Vec::new();
    for i in 1..n {
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
    let (n, m) = (3u32, 3u32);
    let mut sim: Simulation<Msg> = Simulation::new(13);
    let procs: Vec<ActorId> = (0..n).map(ActorId).collect();
    let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
    let mut auth = SigAuthority::new(5);
    for i in 0..n {
        let signer = auth.register(ActorId(i));
        if i == 2 {
            // Broadcasts Accept{b=(1,p2)} with an empty history: illegal.
            sim.add(Scripted::bad_history(
                ActorId(2),
                mems.clone(),
                Value(666),
                signer,
            ));
            continue;
        }
        sim.add(RobustPaxosActor::robust_backup(
            ActorId(i),
            procs.clone(),
            mems.clone(),
            Value(100 + i as u64),
            Some(ActorId(0)),
            signer,
            auth.verifier(),
            Duration::from_delays(1),
            Duration::from_delays(80),
        ));
    }
    for _ in 0..m {
        let mut mem = MemoryActor::new(LegalChange::Static);
        nebcast::configure_memory(&mut mem, &procs);
        sim.add(mem);
    }
    sim.enable_obs();
    sim.run_until(Time::from_delays(2_000), |s| {
        [0u32, 1].iter().all(|&i| {
            s.actor_as::<RobustPaxosActor>(ActorId(i))
                .unwrap()
                .decision()
                .is_some()
        })
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
