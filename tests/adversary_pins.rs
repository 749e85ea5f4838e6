//! Transcript pins for the Byzantine villains of `agreement::adversary`:
//! every message each acting villain puts on the network — one
//! `(send tick, destination, message)` line per send, over a whole run —
//! pinned by its line count and an FNV-1a hash of the lines.
//!
//! The lines are recorded through a delay hook that always answers
//! `None`, so every delay is still sampled from the link model and the
//! recorder cannot move the run it records. Four villains play against a
//! 3 + 3 single-decree cluster (Robust Backup, or Cheap Quorum for the
//! equivocating leader) on `Uniform` 1–3 δ links; the three sharded ones
//! sit in the deployments `tests/byzantine_determinism.rs` drills.
//!
//! The values were captured before the villains' actors changed shape.
//! They are never re-recorded: a moved pin is its own issue, named with
//! the reason.

use std::sync::{Arc, Mutex};

use agreement::adversary::{AdversaryKind, Scripted};
use agreement::cheap_quorum::{self, CheapQuorumActor};
use agreement::harness::{run_sharded, run_sharded_instrumented, ShardedScenario};
use agreement::nebcast;
use agreement::robust_backup::RobustPaxosActor;
use agreement::sharded::GroupMode;
use agreement::types::{Msg, Pid, Value};
use rdma_sim::{LegalChange, MemoryActor};
use sigsim::{SigAuthority, Signer};
use simnet::{
    fnv1a, Actor, ActorId, DelayHook, DelayModel, Duration, Simulation, Time, FNV1A_BASIS,
};

/// The lines one villain sent, in send order.
type Transcript = Arc<Mutex<Vec<String>>>;

/// A delay hook that records every message `villain` sends and overrides
/// no delay.
fn recorder(villain: Pid) -> (Transcript, DelayHook<Msg>) {
    let lines = Transcript::default();
    let sink = Arc::clone(&lines);
    let hook: DelayHook<Msg> = Box::new(move |now, from, to, msg| {
        if from == villain {
            (sink.lock().unwrap()).push(format!("({}, {to}, {msg:?})", now.0));
        }
        None
    });
    (lines, hook)
}

/// `(line count, FNV-1a over the lines, each newline-terminated)`.
fn fingerprint(name: &str, lines: &Transcript) -> (usize, u64) {
    let lines = lines.lock().unwrap();
    let bytes = (lines.iter()).flat_map(|line| line.bytes().chain([b'\n']));
    let hash = fnv1a(FNV1A_BASIS, bytes);
    for line in lines.iter() {
        println!("{name} {line}");
    }
    println!("PIN {name} ({}, {hash})", lines.len());
    (lines.len(), hash)
}

/// A 3 + 3 cluster on `Uniform` 1–3 δ links with the villain at `byz`:
/// `villain(signer, mems)` builds it, `correct(i, procs, mems, signer,
/// auth)` each correct process, `memory(procs)` each memory. Runs to
/// quiescence (bounded) and returns what the villain sent.
fn single_decree<V, P, M>(
    seed: u64,
    byz: u32,
    villain: impl FnOnce(Signer, Vec<ActorId>) -> V,
    mut correct: impl FnMut(u32, Vec<Pid>, Vec<ActorId>, Signer, &SigAuthority) -> P,
    memory: impl Fn(&[Pid]) -> M,
) -> Transcript
where
    V: Actor<Msg> + 'static,
    P: Actor<Msg> + 'static,
    M: Actor<Msg> + 'static,
{
    let (n, m) = (3u32, 3u32);
    let mut sim: Simulation<Msg> = Simulation::new(seed);
    sim.set_default_delay(DelayModel::Uniform {
        lo: Duration::from_delays(1),
        hi: Duration::from_delays(3),
    });
    let procs: Vec<Pid> = (0..n).map(ActorId).collect();
    let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
    let mut auth = SigAuthority::new(seed ^ 0xAD);
    let mut villain = Some(villain);
    for i in 0..n {
        let signer = auth.register(ActorId(i));
        if i == byz {
            let build = villain.take().expect("one villain");
            sim.add(build(signer, mems.clone()));
        } else {
            sim.add(correct(i, procs.clone(), mems.clone(), signer, &auth));
        }
    }
    for _ in 0..m {
        sim.add(memory(&procs));
    }
    let (lines, hook) = recorder(ActorId(byz));
    sim.set_delay_hook(hook);
    sim.run_to_quiescence(Time::from_delays(2_000));
    lines
}

/// A correct Robust Backup process with p0 as its initial leader.
fn robust_backup(
    i: u32,
    procs: Vec<Pid>,
    mems: Vec<ActorId>,
    signer: Signer,
    auth: &SigAuthority,
) -> RobustPaxosActor {
    RobustPaxosActor::robust_backup(
        ActorId(i),
        procs,
        mems,
        Value(100 + i as u64),
        Some(ActorId(0)),
        signer,
        auth.verifier(),
        Duration::from_delays(1),
        Duration::from_delays(80),
    )
}

fn neb_memory(procs: &[Pid]) -> MemoryActor<agreement::RegVal, Msg> {
    let mut mem = MemoryActor::new(LegalChange::Static);
    nebcast::configure_memory(&mut mem, procs);
    mem
}

#[test]
fn neb_equivocator_transcript() {
    let villain = |signer, mems| {
        Scripted::neb_equivocator(ActorId(2), mems, 1, Value(666), Value(777), signer)
    };
    let lines = single_decree(31, 2, villain, robust_backup, neb_memory);
    assert_eq!(
        fingerprint("neb_equivocator", &lines),
        (3, 6529424626523430211)
    );
}

#[test]
fn bad_history_transcript() {
    let villain = |signer, mems| Scripted::bad_history(ActorId(2), mems, Value(666), signer);
    let lines = single_decree(32, 2, villain, robust_backup, neb_memory);
    assert_eq!(fingerprint("bad_history", &lines), (3, 6793116633575241360));
}

#[test]
fn history_rewriter_transcript() {
    let villain =
        |signer, mems| Scripted::history_rewriter(ActorId(2), mems, Value(666), Value(777), signer);
    let lines = single_decree(33, 2, villain, robust_backup, neb_memory);
    assert_eq!(
        fingerprint("history_rewriter", &lines),
        (6, 12876948728218706138)
    );
}

#[test]
fn cq_equivocating_leader_transcript() {
    let villain = |signer, mems| {
        Scripted::cq_equivocating_leader(ActorId(0), mems, 1, Value(111), Value(222), signer)
    };
    let follower = |i: u32, procs, mems, signer, auth: &SigAuthority| {
        CheapQuorumActor::cheap_quorum(
            ActorId(i),
            procs,
            mems,
            ActorId(0),
            Value(100 + i as u64),
            signer,
            auth.verifier(),
            Duration::from_delays(1),
            Duration::from_delays(25),
        )
    };
    let memory = |procs: &[Pid]| cheap_quorum::memory_actor(procs, ActorId(0));
    let lines = single_decree(34, 0, villain, follower, memory);
    assert_eq!(
        fingerprint("cq_equivocating_leader", &lines),
        (3, 11866319507364385888)
    );
}

/// Runs a sharded scenario on the monolithic kernel and returns what the
/// adversary at `(group, replica)` sent.
fn sharded(sc: &ShardedScenario, (g, i): (usize, usize)) -> Transcript {
    let (lines, hook) = recorder(sc.topology().procs(g)[i]);
    let (r, _) = run_sharded_instrumented(sc, |sim| sim.set_delay_hook(hook));
    assert!(r.all_committed && r.all_logs_agree, "{r:?}");
    assert_eq!(r, run_sharded(sc), "the recorder moved the run");
    lines
}

/// `tests/byzantine_determinism.rs`'s adversarial scenario at seed 59: a
/// silent replica in group 0 and the equivocating leader of group 1, whose
/// range migrates before Ω fails it over.
#[test]
fn log_equivocator_transcript() {
    let mut sc = ShardedScenario::common_case(4, 3, 3, 59);
    sc.group_modes = vec![GroupMode::Byzantine; 4];
    sc.total_cmds = 120;
    sc.window = 4;
    sc.batch = 2;
    sc.max_delays = 40_000;
    sc.adversaries = vec![
        (0, 2, AdversaryKind::Silent),
        (1, 0, AdversaryKind::Equivocator),
    ];
    sc.announce = vec![(1, 1, 80)];
    sc.migrations = vec![agreement::sharded::ScriptedMigration {
        at_delays: 40,
        range: agreement::sharded::KeyRange { lo: 1024, hi: 1536 },
        to: 3,
    }];
    let lines = sharded(&sc, (1, 0));
    assert_eq!(
        fingerprint("log_equivocator", &lines),
        (13, 15170410268055764766)
    );
}

/// The hostile-`first` drill's classic-window shape (seed 71).
#[test]
fn far_future_leader_transcript() {
    let mut sc = ShardedScenario::common_case(2, 3, 3, 71);
    sc.group_modes = vec![GroupMode::Byzantine; 2];
    sc.total_cmds = 80;
    sc.window = 4;
    sc.batch = 2;
    sc.max_delays = 40_000;
    sc.adversaries = vec![(0, 0, AdversaryKind::FarFutureLeader)];
    sc.announce = vec![(0, 1, 80)];
    let lines = sharded(&sc, (0, 0));
    assert_eq!(
        fingerprint("far_future_leader", &lines),
        (7, 794355366916617664)
    );
}

/// The windowed-takeover drill without the fast path (seed 23): replica 2
/// forges a receipt while the honest leader pipelines.
#[test]
fn receipt_forger_transcript() {
    let mut sc = ShardedScenario::common_case(1, 3, 3, 23);
    sc.group_modes = vec![GroupMode::Byzantine];
    sc.total_cmds = 160;
    sc.window = 16;
    sc.batch = 2;
    sc.max_delays = 40_000;
    sc.byz_pipeline_window = 4;
    sc.adversaries = vec![(0, 2, AdversaryKind::ReceiptForger)];
    sc.announce = vec![(0, 1, 120)];
    let lines = sharded(&sc, (0, 2));
    assert_eq!(
        fingerprint("receipt_forger", &lines),
        (3, 7603900015514536677)
    );
}
