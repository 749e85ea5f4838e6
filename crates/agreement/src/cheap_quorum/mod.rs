//! Cheap Quorum (Algorithms 4 and 5, §4.2): the fast stage of Figure 6.
//!
//! The 2-deciding Byzantine fast path. In synchronous, failure-free
//! executions the leader signs its value, writes it to the leader region
//! (one replicated write — two delays) and decides: dynamic permissions
//! guarantee that a successful write means nobody revoked it, so no
//! read-back is needed, and the fast path costs **one signature** (versus
//! `6·f_P + 2` for the best prior 2-deciding protocol \[7\]).
//!
//! Followers copy the leader's signed value into their own region, wait for
//! all `n` copies, assemble a **unanimity proof** (the value signed by every
//! process), replicate the proof, and decide once `n` valid proofs exist.
//!
//! Under asynchrony or failures, a process **panics** (Algorithm 5): it
//! raises its panic flag (register + relayed message, §7), *revokes the
//! leader's write permission* — the only change `legalChange` admits — and
//! aborts with the best-evidenced value it holds: own replicated value
//! (with proof, if assembled), else the leader's value, else its input.
//! The abort value and evidence seed Preferential Paxos (Definition 3).
//!
//! Key agreement lemmas exercised by the tests here and in
//! `tests/fast_robust.rs`:
//! * Lemma 4.5 — two correct processes never decide differently.
//! * Lemma 4.6 — if p decides v and q aborts, q's abort value is v (and
//!   carries a correct unanimity proof when p is a follower).
//! * Lemma B.6 — Cheap Quorum is 2-deciding.

use std::collections::{BTreeMap, BTreeSet};

use rdma_sim::{
    Completion, LegalChange, MemoryActor, MemoryClient, Permission, RegId, RegionId, RegionSpec,
};
use sigsim::{SigVerifier, Signature, Signer};
use simnet::{ActorId, Context};

use crate::trusted::SetupEvidence;
use crate::types::{
    sigtags, spaces, CqSigned, Msg, Pid, PriorityClass, RegVal, UnanimityProof, Value,
};
use swmr::{RepEngine, RepId, RepResult};

/// Region id of the leader's proposal region (`Region[ℓ]`).
pub const LEADER_REGION: RegionId = RegionId(0x2FFF);

/// Region id of `Region[p]` (holds `Value[p]`, `Panic[p]`, `Proof[p]`).
pub fn proc_region(p: Pid) -> RegionId {
    RegionId(0x2000 + p.0)
}

/// The leader proposal register `Value[ℓ]`.
pub const VALUE_L: RegId = RegId {
    space: spaces::CQ_LEADER,
    a: 0,
    b: 0,
    c: 0,
};

/// `Value[p]`.
pub fn value_reg(p: Pid) -> RegId {
    RegId::two(spaces::CQ, p.0 as u64, 0)
}

/// `Panic[p]`.
pub fn panic_reg(p: Pid) -> RegId {
    RegId::two(spaces::CQ, p.0 as u64, 1)
}

/// `Proof[p]`.
pub fn proof_reg(p: Pid) -> RegId {
    RegId::two(spaces::CQ, p.0 as u64, 2)
}

/// Cheap Quorum's `legalChange`: the only permission change ever allowed is
/// revoking write access to the leader region (any process may do it; the
/// result is read-only-for-everyone).
pub fn legal_change(
    _requester: ActorId,
    region: RegionId,
    _old: &Permission,
    new: &Permission,
) -> bool {
    region == LEADER_REGION && *new == Permission::read_only()
}

/// Configures one memory for Cheap Quorum.
pub fn configure_memory(mem: &mut MemoryActor<RegVal, Msg>, procs: &[Pid], leader: Pid) {
    mem.add_region(
        LEADER_REGION,
        RegionSpec::space(spaces::CQ_LEADER),
        Permission::exclusive_writer(leader),
    );
    for &p in procs {
        mem.add_region(
            proc_region(p),
            RegionSpec::row(spaces::CQ, p.0 as u64),
            Permission::exclusive_writer(p),
        );
    }
}

/// Builds a ready-to-add Cheap Quorum memory.
pub fn memory_actor(procs: &[Pid], leader: Pid) -> MemoryActor<RegVal, Msg> {
    let mut mem = MemoryActor::new(LegalChange::Policy(legal_change));
    configure_memory(&mut mem, procs, leader);
    mem
}

/// Hashable view of a unanimity proof's outer signature.
#[derive(Hash)]
struct ProofView<'a> {
    tag: u64,
    value: Value,
    shares: &'a [(Pid, Signature)],
}

/// Checks a unanimity proof: every process's valid signature over the value,
/// plus the assembler's outer signature.
pub fn verify_unanimity(proof: &UnanimityProof, procs: &[Pid], verifier: &SigVerifier) -> bool {
    let mut seen: Vec<Pid> = proof.shares.iter().map(|(p, _)| *p).collect();
    seen.sort();
    seen.dedup();
    let mut all: Vec<Pid> = procs.to_vec();
    all.sort();
    if seen != all {
        return false;
    }
    for (p, sig) in &proof.shares {
        if !verifier.valid(*p, &(sigtags::CQ_VALUE, proof.value), sig) {
            return false;
        }
    }
    let view = ProofView {
        tag: sigtags::CQ_PROOF,
        value: proof.value,
        shares: &proof.shares,
    };
    verifier.valid(proof.assembler, &view, &proof.outer_sig)
}

/// The abort output of Cheap Quorum: a value plus the evidence that fixes
/// its Definition-3 priority class.
#[derive(Clone, Debug)]
pub struct AbortOutcome {
    /// The abort value.
    pub value: Value,
    /// Evidence (proof ⇒ class T; leader signature ⇒ class M; none ⇒ B).
    pub evidence: SetupEvidence,
}

impl AbortOutcome {
    /// The priority class this evidence supports, as a *correct* process
    /// computes it (receivers re-verify).
    pub fn class(&self, procs: &[Pid], leader: Pid, verifier: &SigVerifier) -> PriorityClass {
        if let Some(p) = &self.evidence.proof {
            if p.value == self.value && verify_unanimity(p, procs, verifier) {
                return PriorityClass::Proven;
            }
        }
        if let Some(sig) = &self.evidence.leader_sig {
            if verifier.valid(leader, &(sigtags::CQ_VALUE, self.value), sig) {
                return PriorityClass::LeaderSigned;
            }
        }
        PriorityClass::Bare
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tag {
    LeaderWrite,
    LeaderValRead,
    CopyWrite,
    CopyRead(Pid),
    ProofWrite,
    ProofRead(Pid),
    PanicFlagWrite,
    PanicRevoke,
    PanicReadOwnValue,
    PanicReadOwnProof,
    PanicReadLeader,
}

/// Cheap Quorum alone under the one Byzantine single-decree actor: the
/// fast stage with no backup, so an abort is the outcome.
pub type CheapQuorumActor = crate::fast_robust::FastRobustActor;

/// The Cheap Quorum state machine (the fast stage of
/// [`crate::fast_robust::FastRobustActor`]).
pub struct CqCore {
    me: Pid,
    procs: Vec<Pid>,
    leader: Pid,
    input: Value,
    signer: Signer,
    verifier: SigVerifier,
    rep: RepEngine<RegVal, Msg>,
    tags: BTreeMap<RepId, Tag>,
    /// The leader's signed value, once seen/written.
    v: Option<Value>,
    leader_sig: Option<Signature>,
    copy_started: bool,
    wrote_copy: bool,
    waiting_leader_read: bool,
    copies: BTreeMap<Pid, CqSigned>,
    copy_reads_out: BTreeSet<Pid>,
    my_proof: Option<UnanimityProof>,
    proofs: BTreeMap<Pid, UnanimityProof>,
    proof_reads_out: BTreeSet<Pid>,
    decided: Option<Value>,
    panicked: bool,
    panic_own_value: Option<CqSigned>,
    abort: Option<AbortOutcome>,
}

impl std::fmt::Debug for CqCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CqCore")
            .field("me", &self.me)
            .field("decided", &self.decided)
            .field("panicked", &self.panicked)
            .field("abort", &self.abort.as_ref().map(|a| a.value))
            .finish()
    }
}

impl CqCore {
    /// Creates the state machine for one process.
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        memories: Vec<ActorId>,
        leader: Pid,
        input: Value,
        signer: Signer,
        verifier: SigVerifier,
    ) -> CqCore {
        CqCore {
            me,
            procs,
            leader,
            input,
            signer,
            verifier,
            rep: RepEngine::new(memories),
            tags: BTreeMap::new(),
            v: None,
            leader_sig: None,
            copy_started: false,
            wrote_copy: false,
            waiting_leader_read: false,
            copies: BTreeMap::new(),
            copy_reads_out: BTreeSet::new(),
            my_proof: None,
            proofs: BTreeMap::new(),
            proof_reads_out: BTreeSet::new(),
            decided: None,
            panicked: false,
            panic_own_value: None,
            abort: None,
        }
    }

    /// The leader whose region the fast path writes and whose signature
    /// certifies class M downstream.
    pub fn leader(&self) -> Pid {
        self.leader
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<Value> {
        self.decided
    }

    /// The abort outcome, once panic mode finished.
    pub fn abort(&self) -> Option<&AbortOutcome> {
        self.abort.as_ref()
    }

    /// Whether panic mode has been entered.
    pub fn panicked(&self) -> bool {
        self.panicked
    }

    /// Whether this core has nothing further to do (decided and fully
    /// replicated, or abort computed).
    pub fn settled(&self) -> bool {
        self.abort.is_some()
            || (self.decided.is_some()
                && !self.panicked
                && self.my_proof.is_some()
                && self.proofs.len() >= self.procs.len())
    }

    /// Leader: propose (Algorithm 4 leader code). Followers: no-op.
    pub fn start(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        if self.me != self.leader {
            return;
        }
        let v = self.input;
        let sig = self.signer.sign(&(sigtags::CQ_VALUE, v));
        self.leader_sig = Some(sig);
        let signed = CqSigned {
            value: v,
            leader_sig: sig,
            own_sig: sig,
        };
        let rep = self
            .rep
            .write(ctx, client, LEADER_REGION, VALUE_L, RegVal::CqValue(signed));
        self.tags.insert(rep, Tag::LeaderWrite);
    }

    /// Drives the follower loops (call on a poll timer).
    pub fn poll(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        if self.panicked {
            return; // panic mode is completion-driven
        }
        if self.v.is_none() {
            if self.me != self.leader && !self.waiting_leader_read {
                self.waiting_leader_read = true;
                let rep = self.rep.read(ctx, client, LEADER_REGION, VALUE_L);
                self.tags.insert(rep, Tag::LeaderValRead);
            }
            return;
        }
        if !self.copy_started {
            self.copy_started = true;
            self.write_copy(ctx, client);
            return;
        }
        if !self.wrote_copy {
            return; // copy write in flight
        }
        if self.my_proof.is_none() {
            // Collect Value[q] from everyone we have not yet matched.
            for q in self.procs.clone() {
                if !self.copies.contains_key(&q) && self.copy_reads_out.insert(q) {
                    let rep = self.rep.read(ctx, client, proc_region(q), value_reg(q));
                    self.tags.insert(rep, Tag::CopyRead(q));
                }
            }
            return;
        }
        if self.proofs.len() < self.procs.len() {
            for q in self.procs.clone() {
                if !self.proofs.contains_key(&q) && self.proof_reads_out.insert(q) {
                    let rep = self.rep.read(ctx, client, proc_region(q), proof_reg(q));
                    self.tags.insert(rep, Tag::ProofRead(q));
                }
            }
        }
    }

    /// Enters panic mode (Algorithm 5). Idempotent. The wrapper should also
    /// relay `Msg::Panic` to the other processes.
    pub fn panic(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        if self.panicked {
            return;
        }
        self.panicked = true;
        let rep = self.rep.write(
            ctx,
            client,
            proc_region(self.me),
            panic_reg(self.me),
            RegVal::CqPanic(true),
        );
        self.tags.insert(rep, Tag::PanicFlagWrite);
    }

    /// Whether `completion` answers a memory operation this core issued
    /// (and has not been fed yet): lets an owner that shares one memory
    /// client with another stage route the completion by value.
    pub(crate) fn owns(&self, completion: &Completion<RegVal>) -> bool {
        self.rep.owns(completion.op)
    }

    /// Feeds a memory completion answering an operation this core issued.
    pub fn on_completion(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        completion: Completion<RegVal>,
    ) {
        let Some(done) = self.rep.on_completion(completion) else {
            return;
        };
        let Some(tag) = self.tags.remove(&done.id) else {
            return;
        };
        match (tag, done.result) {
            (Tag::LeaderWrite, RepResult::WriteOk) => {
                // The uncontended instantaneous guarantee: a successful
                // write proves no revocation — decide now (2 delays), with
                // the single signature made at propose time. The next poll
                // continues the follower protocol (copy, proof) so others
                // can reach unanimity.
                self.v = Some(self.input);
                if self.decided.is_none() {
                    self.decided = Some(self.input);
                }
            }
            (Tag::LeaderWrite, _) => self.panic(ctx, client),
            (Tag::LeaderValRead, RepResult::ReadOk(Some(RegVal::CqValue(cs)))) => {
                self.waiting_leader_read = false;
                if self
                    .verifier
                    .valid(self.leader, &(sigtags::CQ_VALUE, cs.value), &cs.leader_sig)
                {
                    self.v = Some(cs.value);
                    self.leader_sig = Some(cs.leader_sig);
                }
            }
            (Tag::LeaderValRead, _) => self.waiting_leader_read = false,
            (Tag::CopyWrite, RepResult::WriteOk) => {
                self.wrote_copy = true;
            }
            (Tag::CopyWrite, _) => self.panic(ctx, client),
            (Tag::CopyRead(q), RepResult::ReadOk(Some(RegVal::CqValue(cs)))) => {
                self.copy_reads_out.remove(&q);
                let v = self.v.expect("collecting before adopting");
                if cs.value == v && self.verifier.valid(q, &(sigtags::CQ_VALUE, v), &cs.own_sig) {
                    self.copies.insert(q, cs);
                    if self.copies.len() >= self.procs.len() && self.my_proof.is_none() {
                        self.assemble_proof(ctx, client);
                    }
                }
            }
            (Tag::CopyRead(q), _) => {
                self.copy_reads_out.remove(&q);
            }
            (Tag::ProofWrite, RepResult::WriteOk) => {
                let p = self.my_proof.clone().expect("wrote proof");
                self.proofs.insert(self.me, p);
            }
            (Tag::ProofWrite, _) => self.panic(ctx, client),
            (Tag::ProofRead(q), RepResult::ReadOk(Some(RegVal::CqProof(pf)))) => {
                self.proof_reads_out.remove(&q);
                let v = self.v.expect("collecting before adopting");
                if pf.value == v && verify_unanimity(&pf, &self.procs, &self.verifier) {
                    self.proofs.insert(q, pf);
                    if self.proofs.len() >= self.procs.len() && self.decided.is_none() {
                        self.decided = Some(v);
                    }
                }
            }
            (Tag::ProofRead(q), _) => {
                self.proof_reads_out.remove(&q);
            }
            // Panic mode (Algorithm 5) is one chain: each step is issued
            // when the one before it completes, whatever its result.
            (Tag::PanicFlagWrite, _) => {
                let rep = self
                    .rep
                    .change_perm(ctx, client, LEADER_REGION, Permission::read_only());
                self.tags.insert(rep, Tag::PanicRevoke);
            }
            (Tag::PanicRevoke, _) => {
                let rep = self
                    .rep
                    .read(ctx, client, proc_region(self.me), value_reg(self.me));
                self.tags.insert(rep, Tag::PanicReadOwnValue);
            }
            (Tag::PanicReadOwnValue, r) => {
                if let RepResult::ReadOk(Some(RegVal::CqValue(cs))) = r {
                    self.panic_own_value = Some(cs);
                }
                let rep = self
                    .rep
                    .read(ctx, client, proc_region(self.me), proof_reg(self.me));
                self.tags.insert(rep, Tag::PanicReadOwnProof);
            }
            (Tag::PanicReadOwnProof, r) => {
                if let Some(own) = self.panic_own_value {
                    // Abort with our replicated value (+ proof if present).
                    let proof = match r {
                        RepResult::ReadOk(Some(RegVal::CqProof(pf))) => Some(pf),
                        _ => None,
                    };
                    self.abort = Some(AbortOutcome {
                        value: own.value,
                        evidence: SetupEvidence {
                            proof,
                            leader_sig: Some(own.leader_sig),
                        },
                    });
                } else {
                    let rep = self.rep.read(ctx, client, LEADER_REGION, VALUE_L);
                    self.tags.insert(rep, Tag::PanicReadLeader);
                }
            }
            (Tag::PanicReadLeader, r) => {
                if let RepResult::ReadOk(Some(RegVal::CqValue(cs))) = r {
                    if self.verifier.valid(
                        self.leader,
                        &(sigtags::CQ_VALUE, cs.value),
                        &cs.leader_sig,
                    ) {
                        self.abort = Some(AbortOutcome {
                            value: cs.value,
                            evidence: SetupEvidence {
                                proof: None,
                                leader_sig: Some(cs.leader_sig),
                            },
                        });
                        return;
                    }
                }
                self.abort = Some(AbortOutcome {
                    value: self.input,
                    evidence: SetupEvidence::default(),
                });
            }
        }
    }

    fn write_copy(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        let v = self.v.expect("copying before adopting");
        let own_sig = self.signer.sign(&(sigtags::CQ_VALUE, v));
        let signed = CqSigned {
            value: v,
            leader_sig: self.leader_sig.expect("leader sig known"),
            own_sig,
        };
        let rep = self.rep.write(
            ctx,
            client,
            proc_region(self.me),
            value_reg(self.me),
            RegVal::CqValue(signed),
        );
        self.tags.insert(rep, Tag::CopyWrite);
    }

    fn assemble_proof(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
    ) {
        let v = self.v.expect("proof before value");
        let shares: Vec<(Pid, Signature)> =
            self.copies.iter().map(|(q, cs)| (*q, cs.own_sig)).collect();
        let view = ProofView {
            tag: sigtags::CQ_PROOF,
            value: v,
            shares: &shares,
        };
        let outer_sig = self.signer.sign(&view);
        let proof = UnanimityProof {
            value: v,
            shares,
            assembler: self.me,
            outer_sig,
        };
        self.my_proof = Some(proof.clone());
        let rep = self.rep.write(
            ctx,
            client,
            proc_region(self.me),
            proof_reg(self.me),
            RegVal::CqProof(proof),
        );
        self.tags.insert(rep, Tag::ProofWrite);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{decisions, Scenario};
    use sigsim::SigAuthority;
    use simnet::{Duration, Simulation, Time};

    struct Built {
        sim: Simulation<Msg>,
        procs: Vec<Pid>,
        mems: Vec<ActorId>,
    }

    /// `n` processes with signers from `auth`, proposing `input(i)` with
    /// a `timeout` before panicking, over `s.m` Cheap Quorum memories.
    fn cluster(
        s: &Scenario,
        auth: &mut SigAuthority,
        input: impl Fn(usize) -> Value,
        timeout: u64,
    ) -> Simulation<Msg> {
        s.cluster(
            |i, procs, mems| {
                let (me, signer) = (procs[i], auth.register(procs[i]));
                Box::new(CheapQuorumActor::cheap_quorum(
                    me,
                    procs,
                    mems,
                    ActorId(0),
                    input(i),
                    signer,
                    auth.verifier(),
                    Duration::from_delays(1),
                    Duration::from_delays(timeout),
                ))
            },
            s.memories(|procs| memory_actor(procs, ActorId(0))),
        )
    }

    fn build(n: usize, m: usize, seed: u64, timeout: u64) -> Built {
        let s = Scenario::common_case(n, m, seed);
        let mut auth = SigAuthority::new(seed ^ 0x77);
        let sim = cluster(&s, &mut auth, Scenario::input, timeout);
        Built {
            sim,
            procs: s.procs(),
            mems: s.mems(),
        }
    }

    fn outcomes(b: &Built) -> Vec<(Option<Value>, Option<Value>)> {
        b.procs
            .iter()
            .map(|&p| {
                let a = b.sim.actor_as::<CheapQuorumActor>(p).unwrap();
                (a.decision(), a.abort().map(|x| x.value))
            })
            .collect()
    }

    #[test]
    fn leader_decides_in_two_delays_everyone_decides() {
        let mut b = build(3, 3, 1, 60);
        b.sim.run_until(Time::from_delays(50), |s| {
            let decided = decisions(s, &b.procs, CheapQuorumActor::decision);
            decided.iter().all(Option::is_some)
        });
        let out = outcomes(&b);
        assert!(out.iter().all(|(d, _)| *d == Some(Value(100))), "{out:?}");
        // Lemma B.6: the leader decides after one replicated write.
        assert_eq!(b.sim.metrics().first_decision_delays(), Some(2.0));
        // Nobody panicked in the synchronous failure-free run (Lemma B.3).
        assert!(out.iter().all(|(_, a)| a.is_none()), "{out:?}");
    }

    #[test]
    fn one_signature_on_the_leader_fast_path() {
        for n in [3, 5, 7] {
            let mut auth = SigAuthority::new(5);
            let s = Scenario::common_case(n, 3, 9);
            let mut sim = cluster(&s, &mut auth, |_| Value(7), 60);
            // Run only until the leader decides.
            sim.run_until(Time::from_delays(1000), |s| {
                s.metrics().first_decision().is_some()
            });
            // The fast decision required exactly one signature (the
            // leader's sign(v)) whatever n — the §4.2 claim versus 6f+2
            // for prior protocols.
            assert_eq!(auth.signatures_created(), 1, "n={n}");
            assert_eq!(sim.metrics().first_decision_delays(), Some(2.0), "n={n}");
        }
    }

    #[test]
    fn leader_crash_before_write_aborts_everyone_with_inputs() {
        let mut b = build(3, 3, 2, 30);
        b.sim.crash_at(ActorId(0), Time::ZERO);
        b.sim.run_to_quiescence(Time::from_delays(300));
        let out = outcomes(&b);
        // Followers timed out and aborted with their own inputs (class B).
        assert_eq!(out[1], (None, Some(Value(101))));
        assert_eq!(out[2], (None, Some(Value(102))));
    }

    #[test]
    fn leader_crash_after_write_aborts_with_leader_value() {
        // The leader decides (write lands) then crashes before helping the
        // followers reach unanimity; they abort carrying v with the
        // leader's signature (Lemma 4.6, leader case).
        let mut b = build(3, 3, 3, 30);
        b.sim.crash_at(ActorId(0), Time::from_delays(3));
        b.sim.run_to_quiescence(Time::from_delays(300));
        let out = outcomes(&b);
        assert_eq!(out[0].0, Some(Value(100)), "leader decided before crash");
        for i in [1usize, 2] {
            let (d, a) = &out[i];
            assert_eq!(*d, None);
            assert_eq!(*a, Some(Value(100)), "abort value must match decision");
            let actor = b
                .sim
                .actor_as::<CheapQuorumActor>(ActorId(i as u32))
                .unwrap();
            let ab = actor.abort().unwrap();
            assert!(ab.evidence.leader_sig.is_some());
        }
    }

    #[test]
    fn follower_crash_blocks_unanimity_but_leader_decision_survives() {
        let mut b = build(3, 3, 4, 25);
        b.sim.crash_at(ActorId(2), Time::ZERO);
        b.sim.run_to_quiescence(Time::from_delays(300));
        let out = outcomes(&b);
        // Leader decided on the fast path.
        assert_eq!(out[0].0, Some(Value(100)));
        // The correct follower cannot reach n copies; it panics and aborts
        // with the leader's value.
        assert_eq!(out[1].1, Some(Value(100)));
        // Lemma 4.6 (abort agreement): abort value equals the decision.
    }

    #[test]
    fn follower_decision_carries_unanimity_and_aborters_get_proofs() {
        // All correct and synchronous, but crash the leader right after
        // followers decided; then a late panic must still find proofs.
        let mut b = build(3, 3, 5, 18);
        // Let the run go: all three decide (followers via proofs).
        b.sim.run_until(Time::from_delays(17), |s| {
            let decided = decisions(s, &b.procs, CheapQuorumActor::decision);
            decided.iter().all(Option::is_some)
        });
        let followers_decided = (1..3)
            .filter(|&i| {
                b.sim
                    .actor_as::<CheapQuorumActor>(ActorId(i))
                    .unwrap()
                    .decision()
                    .is_some()
            })
            .count();
        assert!(followers_decided > 0, "some follower decided via proofs");
        // Now force a panic at one follower: its abort must carry the value
        // and a correct unanimity proof (Lemma 4.6, follower case).
        b.sim.run_to_quiescence(Time::from_delays(100));
        let a1 = b.sim.actor_as::<CheapQuorumActor>(ActorId(1)).unwrap();
        if let Some(ab) = a1.abort() {
            assert_eq!(ab.value, Value(100));
            assert!(ab.evidence.proof.is_some());
        }
    }

    #[test]
    fn revocation_defeats_slow_leader_write() {
        // Delay the leader's replicated write; a follower panics first and
        // revokes; the leader's write must fail and the leader abort.
        let mut b = build(2, 3, 6, 8);
        b.sim.set_delay_hook(Box::new(|_, from, _, m| {
            if from == ActorId(0) {
                if let Msg::Mem(rdma_sim::MemWire::Req {
                    req: rdma_sim::MemRequest::Write { region, .. },
                    ..
                }) = m
                {
                    if *region == LEADER_REGION {
                        return Some(Duration::from_delays(40));
                    }
                }
            }
            None
        }));
        b.sim.run_to_quiescence(Time::from_delays(400));
        let out = outcomes(&b);
        // Nobody decides; both abort (leader with its input after nak).
        assert_eq!(out[0].0, None, "{out:?}");
        assert!(out[0].1.is_some(), "{out:?}");
        assert!(out[1].1.is_some(), "{out:?}");
    }

    #[test]
    fn memory_crashes_tolerated_on_fast_path() {
        let mut b = build(3, 5, 7, 60);
        let m0 = b.mems[0];
        let m4 = b.mems[4];
        b.sim.crash_at(m0, Time::ZERO);
        b.sim.crash_at(m4, Time::ZERO);
        b.sim.run_until(Time::from_delays(59), |s| {
            let decided = decisions(s, &b.procs, CheapQuorumActor::decision);
            decided.iter().all(Option::is_some)
        });
        let out = outcomes(&b);
        assert!(out.iter().all(|(d, _)| *d == Some(Value(100))), "{out:?}");
    }
}
