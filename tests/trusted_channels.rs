//! The trusted-channel layer (Algorithm 3) under direct attack: claimed
//! histories that misrepresent past broadcasts, sequence-number games, and
//! the end-to-end effect on Robust Backup. Complements the conformance
//! checker's unit suite in `agreement::trusted`.

use agreement::adversary::Scripted;
use agreement::nebcast;
use agreement::robust_backup::RobustPaxosActor;
use agreement::types::{Msg, Pid, Value};
use rdma_sim::{LegalChange, MemoryActor};
use sigsim::SigAuthority;
use simnet::obs::{Event, EventBody};
use simnet::{ActorId, Duration, RunOutcome, Simulation, Time};

fn neb_memory(procs: &[Pid]) -> MemoryActor<agreement::RegVal, Msg> {
    let mut mem = MemoryActor::new(LegalChange::Static);
    nebcast::configure_memory(&mut mem, procs);
    mem
}

/// A sender that lies about its own past broadcast is distrusted from the
/// lying message on; correct processes still reach consensus without it.
#[test]
fn rewritten_history_is_rejected_and_sender_distrusted() {
    let (n, m) = (3u32, 3u32);
    let mut sim: Simulation<Msg> = Simulation::new(3);
    let procs: Vec<Pid> = (0..n).map(ActorId).collect();
    let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
    let mut auth = SigAuthority::new(17);
    for i in 0..n {
        let signer = auth.register(ActorId(i));
        if i == 2 {
            sim.add(Scripted::history_rewriter(
                ActorId(2),
                mems.clone(),
                Value(666), // actually broadcast at k=1
                Value(777), // claimed in the k=2 history
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
        sim.add(neb_memory(&procs));
    }
    sim.enable_obs();
    sim.run_until(Time::from_delays(3_000), |s| {
        [0u32, 1].iter().all(|&i| {
            s.actor_as::<RobustPaxosActor>(ActorId(i))
                .unwrap()
                .decision()
                .is_some()
        })
    });
    for i in [0u32, 1] {
        let a = sim.actor_as::<RobustPaxosActor>(ActorId(i)).unwrap();
        // Consensus completed on a correct value...
        assert_eq!(a.decision(), Some(Value(100)), "process {i}");
    }
    // ...and the lying k = 2 wire, delivered only after the decisions,
    // is where both correct processes stop trusting the liar: its claimed
    // k = 1 send does not match what it actually broadcast.
    let outcome = sim.run_to_quiescence(Time::from_delays(3_000));
    assert_eq!(outcome, RunOutcome::Quiescent);
    let lie = "trusted: distrust a2 at k=2";
    assert_eq!(
        trusted_notes(&sim.take_obs_events()),
        [(ActorId(0), lie.to_string()), (ActorId(1), lie.to_string())]
    );
}

/// Every `trusted:` note in `events`, as `(actor, text)` sorted by actor.
fn trusted_notes(events: &[Event]) -> Vec<(ActorId, String)> {
    let mut notes: Vec<(ActorId, String)> = (events.iter())
        .filter_map(|e| match &e.body {
            EventBody::Note { text } if text.starts_with("trusted:") => {
                Some((e.actor, text.to_string()))
            }
            _ => None,
        })
        .collect();
    notes.sort();
    notes
}

/// Under the same attack, determinism holds: re-running yields identical
/// outcomes (regression guard for the validation order).
#[test]
fn attack_runs_are_deterministic() {
    let run = |seed: u64| {
        let (n, m) = (3u32, 3u32);
        let mut sim: Simulation<Msg> = Simulation::new(seed);
        let procs: Vec<Pid> = (0..n).map(ActorId).collect();
        let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
        let mut auth = SigAuthority::new(seed);
        for i in 0..n {
            let signer = auth.register(ActorId(i));
            if i == 2 {
                sim.add(Scripted::history_rewriter(
                    ActorId(2),
                    mems.clone(),
                    Value(1),
                    Value(2),
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
            sim.add(neb_memory(&procs));
        }
        sim.run_to_quiescence(Time::from_delays(2_500));
        (
            sim.actor_as::<RobustPaxosActor>(ActorId(0))
                .unwrap()
                .decision(),
            sim.metrics().messages_sent,
        )
    };
    assert_eq!(run(9), run(9));
}

/// Baseline sanity for the attack scaffolding: with the adversary replaced
/// by a silent process, the same cluster still decides — the rejection in
/// the first test is about the *lie*, not about having a third process.
#[test]
fn silent_third_process_control_group() {
    let (n, m) = (3u32, 3u32);
    let mut sim: Simulation<Msg> = Simulation::new(3);
    let procs: Vec<Pid> = (0..n).map(ActorId).collect();
    let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
    let mut auth = SigAuthority::new(17);
    for i in 0..n {
        let signer = auth.register(ActorId(i));
        if i == 2 {
            sim.add(Scripted::silent());
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
        sim.add(neb_memory(&procs));
    }
    sim.run_until(Time::from_delays(3_000), |s| {
        [0u32, 1].iter().all(|&i| {
            s.actor_as::<RobustPaxosActor>(ActorId(i))
                .unwrap()
                .decision()
                .is_some()
        })
    });
    assert_eq!(
        sim.actor_as::<RobustPaxosActor>(ActorId(0))
            .unwrap()
            .decision(),
        Some(Value(100))
    );
}
