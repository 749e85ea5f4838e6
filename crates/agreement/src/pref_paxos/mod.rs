//! Preferential Paxos (Algorithm 8, Lemma 4.7): the arrow of Figure 6
//! that carries Cheap Quorum's abort values into Robust Backup.
//!
//! The wrapper that makes Robust Backup composable with Cheap Quorum: a
//! set-up phase in which every process T-sends its prioritized input, waits
//! for `n − f` set-up messages, **adopts the highest-priority value seen**,
//! and only then proposes to `RobustBackup(Paxos)`.
//!
//! Priorities follow Definition 3 and are *computed from evidence*, never
//! trusted: a unanimity proof puts a value in class T, the Cheap Quorum
//! leader's signature in class M, anything else in class B. Because at most
//! `f` of the `n − f` collected set-ups can come from Byzantine processes,
//! every correct process adopts one of the `f + 1` highest-priority inputs
//! — which is exactly what the composition lemma (Lemma 4.8) needs.
//!
//! This module holds the adoption rule ([`adopt`]) and its Lemma 4.7
//! tests. Sending the set-up and waiting for `n − f` happen where the
//! deliveries are processed, in [`crate::robust_backup::RobustCore`];
//! [`PrefPaxosActor`] is the one Byzantine single-decree actor with the
//! backup stage only, entered at Start through the set-up phase.

use sigsim::SigVerifier;

use crate::cheap_quorum::AbortOutcome;
use crate::types::{Pid, Value};

/// Preferential Paxos under the one Byzantine single-decree actor.
pub type PrefPaxosActor = crate::fast_robust::FastRobustActor;

/// Algorithm 8 line 4: the value to adopt from the collected `setups` —
/// the greatest by (Definition-3 class, value), each class recomputed from
/// the attached evidence as `procs`, the Cheap Quorum leader's signature
/// and `verifier` support it. `None` only for no set-ups.
pub fn adopt(
    setups: &[AbortOutcome],
    procs: &[Pid],
    cq_leader: Pid,
    verifier: &SigVerifier,
) -> Option<Value> {
    let ranked = (setups.iter()).map(|s| (s.class(procs, cq_leader, verifier), s.value));
    ranked.max().map(|(_, value)| value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheap_quorum::verify_unanimity;
    use crate::harness::{decisions, Scenario};
    use crate::nebcast;
    use crate::trusted::SetupEvidence;
    use crate::types::Msg;
    use crate::types::{sigtags, UnanimityProof};
    use sigsim::{SigAuthority, Signer};
    use simnet::Simulation;
    use simnet::{ActorId, Duration, Time};

    /// PP over one process per input, process `i` proposing `inputs[i]`
    /// and signing with `signers[i]`, over three broadcast memories.
    fn build(
        seed: u64,
        auth: &SigAuthority,
        signers: &[Signer],
        inputs: &[(Value, SetupEvidence)],
    ) -> (Simulation<Msg>, Vec<Pid>) {
        let s = Scenario::common_case(inputs.len(), 3, seed);
        let sim = s.cluster(
            |i, procs, mems| {
                let (v, e) = inputs[i].clone();
                Box::new(PrefPaxosActor::pref_paxos(
                    procs[i],
                    procs,
                    mems,
                    v,
                    e,
                    Some(ActorId(0)),
                    ActorId(0),
                    signers[i].clone(),
                    auth.verifier(),
                    Duration::from_delays(1),
                    Duration::from_delays(80),
                ))
            },
            s.memories(nebcast::memory_actor),
        );
        (sim, s.procs())
    }

    /// Runs until every process decided (or `max` delays), and reads the
    /// decisions.
    fn run(sim: &mut Simulation<Msg>, procs: &[Pid], max: u64) -> Vec<Option<Value>> {
        sim.run_until(Time::from_delays(max), |s| {
            decisions(s, procs, PrefPaxosActor::decision)
                .iter()
                .all(Option::is_some)
        });
        decisions(sim, procs, PrefPaxosActor::decision)
    }

    #[test]
    fn all_bare_inputs_agree_on_some_input() {
        let inputs: Vec<_> = (0..3)
            .map(|i| (Value(100 + i), SetupEvidence::default()))
            .collect();
        let mut auth = SigAuthority::new(1 ^ 0x1234);
        let signers: Vec<_> = (0..3).map(|p| auth.register(ActorId(p))).collect();
        let (mut sim, procs) = build(1, &auth, &signers, &inputs);
        let ds = run(&mut sim, &procs, 600);
        let v = ds[0].expect("decided");
        assert!(ds.iter().all(|d| *d == Some(v)), "{ds:?}");
        assert!((100..103).contains(&v.0));
    }

    #[test]
    fn leader_signed_value_beats_bare_values() {
        // Process 1 carries the (genuine) CQ leader's signature on its
        // value; with f = 1, Lemma 4.7 says the decision must come from the
        // top f+1 = 2 priority inputs — and only one input is class M, the
        // other candidates are class B. Run several seeds: the decision is
        // never a bare value when the signed one is in every quorum... the
        // lemma's guarantee is membership in the top-2 set.
        for seed in 0..5 {
            let mut auth = SigAuthority::new(99);
            let signers: Vec<_> = (0..3).map(|p| auth.register(ActorId(p))).collect();
            let s0 = &signers[0]; // CQ leader signer
            let signed = Value(7);
            let evidence = SetupEvidence {
                proof: None,
                leader_sig: Some(s0.sign(&(sigtags::CQ_VALUE, signed))),
            };
            let inputs: Vec<_> = (0..3)
                .map(|i| match i {
                    1 => (signed, evidence.clone()),
                    _ => (Value(100 + i), SetupEvidence::default()),
                })
                .collect();
            let (mut sim, procs) = build(seed, &auth, &signers, &inputs);
            let ds = run(&mut sim, &procs, 800);
            let v = ds[0].expect("decided");
            assert!(ds.iter().all(|d| *d == Some(v)), "seed {seed}: {ds:?}");
            // Top-2 priority set = {signed (M), max bare}: the bare values
            // are 100 and 102; top bare by (class,value) order is 102.
            assert!(
                v == signed || v == Value(102),
                "seed {seed}: decided {v:?}, outside the top-(f+1) priority set"
            );
        }
    }

    #[test]
    fn forged_class_claims_are_downgraded() {
        // A (Byzantine-ish) process attaches a *forged* unanimity proof to
        // a junk value. Receivers must compute class B for it, so it cannot
        // displace honestly-signed values from the top of the order...
        let mut auth = SigAuthority::new(50);
        let s0 = auth.register(ActorId(0));
        let s1 = auth.register(ActorId(1));
        let s2 = auth.register(ActorId(2));
        let junk = Value(666);
        let fake_proof = UnanimityProof {
            value: junk,
            shares: vec![
                (ActorId(0), sigsim::Signature::forged(ActorId(0), 1)),
                (ActorId(1), sigsim::Signature::forged(ActorId(1), 2)),
                (ActorId(2), s2.sign(&(sigtags::CQ_VALUE, junk))),
            ],
            assembler: ActorId(2),
            outer_sig: sigsim::Signature::forged(ActorId(2), 3),
        };
        assert!(!verify_unanimity(
            &fake_proof,
            &[ActorId(0), ActorId(1), ActorId(2)],
            &auth.verifier()
        ));

        let real = Value(7);
        let m_evidence = SetupEvidence {
            proof: None,
            leader_sig: Some(s0.sign(&(sigtags::CQ_VALUE, real))),
        };
        let junk_evidence = SetupEvidence {
            proof: Some(fake_proof),
            leader_sig: None,
        };
        let inputs = [
            (real, m_evidence.clone()),
            (real, m_evidence),
            (junk, junk_evidence),
        ];
        let (mut sim, procs) = build(3, &auth, &[s0, s1, s2], &inputs);
        let ds = run(&mut sim, &procs, 800);
        // The forged proof is class B; the genuine class-M value must win
        // any (class, value) comparison it appears in. Decision ∈ top-2 =
        // {real (M, from two processes), junk (B)}: with two M entries, at
        // least one M entry is in every n−f = 2 subset... the decision must
        // be the real value.
        assert!(ds.iter().all(|d| *d == Some(real)), "{ds:?}");
    }
}
