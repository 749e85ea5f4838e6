//! The trusted-channel layer (Algorithm 3) under direct attack: claimed
//! histories that misrepresent past broadcasts, sequence-number games, and
//! the end-to-end effect on Robust Backup. Complements the conformance
//! checker's unit suite in `agreement::trusted`.

use agreement::adversary::Scripted;
use agreement::harness::{decisions, Scenario};
use agreement::nebcast;
use agreement::robust_backup::RobustPaxosActor;
use agreement::types::{Msg, Pid, Value};
use sigsim::{SigAuthority, Signer};
use simnet::obs::{Event, EventBody};
use simnet::{ActorId, AnyActor, Duration, RunOutcome, Simulation, Time};

/// Robust Backup at processes 0 and 1 (keys from `auth`, seed `seed`),
/// process 2 built by `third(procs, mems, signer)`, over three broadcast
/// memories.
fn cluster(
    seed: u64,
    auth: &mut SigAuthority,
    third: impl Fn(Vec<Pid>, Vec<ActorId>, Signer) -> Box<dyn AnyActor<Msg>>,
) -> Simulation<Msg> {
    let s = Scenario::common_case(3, 3, seed);
    let signers: Vec<_> = s.procs().iter().map(|&p| auth.register(p)).collect();
    s.cluster(
        |i, procs, mems| match i {
            2 => third(procs, mems, signers[2].clone()),
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
    )
}

/// Runs until processes 0 and 1 decided (or `max` delays), and reads
/// their decisions.
fn run_correct(sim: &mut Simulation<Msg>, max: u64) -> Vec<Option<Value>> {
    let correct = [ActorId(0), ActorId(1)];
    let decided = |sim: &Simulation<Msg>| decisions(sim, &correct, RobustPaxosActor::decision);
    sim.run_until(Time::from_delays(max), |sim| {
        decided(sim).iter().all(Option::is_some)
    });
    decided(sim)
}

/// A sender that lies about its own past broadcast is distrusted from the
/// lying message on; correct processes still reach consensus without it.
#[test]
fn rewritten_history_is_rejected_and_sender_distrusted() {
    let mut sim = cluster(3, &mut SigAuthority::new(17), |_, mems, signer| {
        Box::new(Scripted::history_rewriter(
            ActorId(2),
            mems,
            Value(666), // actually broadcast at k=1
            Value(777), // claimed in the k=2 history
            signer,
        ))
    });
    sim.enable_obs();
    // Consensus completed on a correct value...
    assert_eq!(run_correct(&mut sim, 3_000), [Some(Value(100)); 2]);
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
        let mut sim = cluster(seed, &mut SigAuthority::new(seed), |_, mems, signer| {
            Box::new(Scripted::history_rewriter(
                ActorId(2),
                mems,
                Value(1),
                Value(2),
                signer,
            ))
        });
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
    let mut sim = cluster(3, &mut SigAuthority::new(17), |_, _, _| {
        Box::new(Scripted::silent())
    });
    assert_eq!(run_correct(&mut sim, 3_000)[0], Some(Value(100)));
}
