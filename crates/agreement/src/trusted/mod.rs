//! Trusted message passing — T-send / T-receive (Algorithm 3, after
//! Clement et al. \[20\]).
//!
//! The Robust Backup transformation needs channels over which a Byzantine
//! process is *confined to crash behaviour*: it can stay silent, but it
//! cannot equivocate or send messages the protocol would never send. Two
//! mechanisms combine to give this:
//!
//! 1. **Non-equivocating broadcast** carries every message, so all correct
//!    processes agree on the sequence of messages each sender emitted
//!    (`crate::nebcast`).
//! 2. **Signed histories**: each message carries its sender's full history
//!    (sends and receives). Receivers verify that (a) every claimed receive
//!    bears the original sender's signature — unforgeable, so receives
//!    cannot be invented; (b) claimed past sends match what the sender
//!    *actually* broadcast (nebcast delivers in order, so the receiver has
//!    already seen them all); and (c) the sent sequence is **protocol
//!    conformant** — the [`PaxosChecker`] re-derives, from the history, that
//!    each send was one the crash-tolerant protocol `A` could have made
//!    (promise only after prepare, accept only with a promise quorum and
//!    the forced value rule, one accept per ballot, ...).
//!
//! A message failing any check is dropped; since every subsequent message
//! embeds the same history prefix, a process that cheats once is ignored
//! forever — i.e., it has crashed as far as correct processes are
//! concerned. This is the paper's reduction of Byzantine failures to crash
//! failures with only `n ≥ 2·f_P + 1`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rdma_sim::MemoryClient;
use sigsim::{SigVerifier, Signature};
use simnet::Context;
use swmr::quorum::majority;

use crate::nebcast::{NebEngine, NebSlot};
use crate::paxos::{Dest, PaxosMsg};
use crate::types::{sigtags, Msg, Pid, RegVal, UnanimityProof, Value};

/// Evidence attached to a Preferential Paxos set-up value. Receivers
/// *compute* the Definition-3 priority class from the evidence — a
/// Byzantine sender cannot claim a class it cannot prove.
#[derive(Clone, PartialEq, Eq, Debug, Hash, Default)]
pub struct SetupEvidence {
    /// A unanimity proof (class T if it verifies).
    pub proof: Option<UnanimityProof>,
    /// The Cheap Quorum leader's signature over the value (class M if it
    /// verifies and there is no proof).
    pub leader_sig: Option<sigsim::Signature>,
}

/// Application payloads carried over trusted channels: the Preferential
/// Paxos set-up exchange and the Robust Backup Paxos traffic.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum RbPayload {
    /// Preferential Paxos set-up (Algorithm 8): the sender's input plus
    /// priority evidence.
    Setup {
        /// The input value.
        value: Value,
        /// Evidence determining the priority class.
        evidence: SetupEvidence,
    },
    /// Robust Backup Paxos traffic.
    Paxos(PaxosMsg),
    /// A Byzantine-mode replicated-log batch
    /// ([`crate::smr::ByzSmrNode`]): the leader of epoch `epoch` proposes
    /// `values[j]` for instance `first + j`. Carried over plain
    /// non-equivocating broadcast (not the trusted-history channels), so
    /// the Paxos conformance checker simply rejects it.
    LogEntries {
        /// First instance of the contiguous proposed range.
        first: u64,
        /// The proposing leader's epoch (its takeover count).
        epoch: u64,
        /// The proposed values, in instance order: one run, shared by every
        /// copy of the wire and every decision notification made from it.
        values: Arc<[Value]>,
    },
}

/// One entry of a process's trusted history.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum HistEntry {
    /// "I broadcast (k, dest, payload)".
    Sent {
        /// Sequence number of the broadcast.
        k: u64,
        /// Addressee tag.
        dest: Dest,
        /// The payload.
        payload: RbPayload,
    },
    /// "I received (k, dest, payload) from `from`", with the original
    /// broadcaster's signature as unforgeable evidence.
    Recv {
        /// The original broadcaster.
        from: Pid,
        /// Its sequence number.
        k: u64,
        /// Addressee tag.
        dest: Dest,
        /// The payload.
        payload: RbPayload,
        /// Digest of the broadcaster's attached history (part of the signed
        /// view).
        hd: u64,
        /// The broadcaster's signature over its [`TWire::sign_view`].
        sig: Signature,
    },
}

/// What travels inside a non-equivocating broadcast: the addressed payload
/// plus the sender's full history at send time.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct TWire {
    /// Addressee tag (everyone sees every message; non-addressees record
    /// but do not act).
    pub dest: Dest,
    /// The payload.
    pub payload: RbPayload,
    /// The sender's history before this send.
    pub history: Vec<HistEntry>,
}

/// Digest of a history (keeps signed views O(1) instead of nesting whole
/// histories recursively, which Clement et al.'s presentation glosses over).
pub fn hist_digest(history: &[HistEntry]) -> u64 {
    let mut h = DefaultHasher::new();
    history.hash(&mut h);
    h.finish()
}

/// The signed view of a broadcast: what the broadcaster's signature covers.
#[derive(Hash)]
pub struct SignView<'a> {
    tag: u64,
    k: u64,
    dest: &'a Dest,
    payload: &'a RbPayload,
    hd: u64,
}

impl TWire {
    /// The view signed by the broadcaster for sequence number `k`.
    pub fn sign_view(&self, k: u64) -> SignView<'_> {
        SignView {
            tag: sigtags::NEB,
            k,
            dest: &self.dest,
            payload: &self.payload,
            hd: hist_digest(&self.history),
        }
    }
}

/// A validated, addressed-to-us delivery out of the trusted layer.
#[derive(Clone, Debug)]
pub struct TDelivery {
    /// The (validated) sender.
    pub from: Pid,
    /// The payload.
    pub payload: RbPayload,
}

/// Re-derives protocol conformance of a sender's history (check (c) above).
#[derive(Clone, Debug)]
pub struct PaxosChecker {
    /// All processes (quorum arithmetic).
    pub procs: Vec<Pid>,
    /// Owner of the phase-1-free initial ballot, if any.
    pub initial_leader: Option<Pid>,
}

#[derive(Default)]
struct CheckState {
    any_sent: bool,
    setup_sent: bool,
    last_prepare_round: Option<u64>,
    promised: Option<crate::types::Ballot>,
    accepted: Option<(crate::types::Ballot, Value)>,
    accepts_sent: BTreeMap<crate::types::Ballot, Value>,
    prepares_recv: BTreeSet<crate::types::Ballot>,
    promises_recv:
        BTreeMap<crate::types::Ballot, BTreeMap<Pid, Option<(crate::types::Ballot, Value)>>>,
    accepts_recv: BTreeSet<(crate::types::Ballot, Value)>,
}

impl PaxosChecker {
    /// Validates that `history` followed by a send of `next` is a legal
    /// behaviour of the wrapped crash-tolerant protocol for `sender`.
    pub fn conforms(&self, sender: Pid, history: &[HistEntry], next: &RbPayload) -> bool {
        let mut st = CheckState::default();
        for entry in history {
            match entry {
                HistEntry::Sent { payload, .. } => {
                    if !self.check_send(sender, &mut st, payload) {
                        return false;
                    }
                }
                HistEntry::Recv { from, payload, .. } => self.apply_recv(&mut st, *from, payload),
            }
        }
        self.check_send(sender, &mut st, next)
    }

    fn apply_recv(&self, st: &mut CheckState, from: Pid, payload: &RbPayload) {
        let RbPayload::Paxos(m) = payload else { return };
        match *m {
            PaxosMsg::Prepare { b } if b.pid == from => {
                st.prepares_recv.insert(b);
            }
            PaxosMsg::Promise { b, accepted } => {
                st.promises_recv
                    .entry(b)
                    .or_default()
                    .insert(from, accepted);
            }
            PaxosMsg::Accept { b, v } if b.pid == from => {
                st.accepts_recv.insert((b, v));
            }
            _ => {}
        }
    }

    fn check_send(&self, sender: Pid, st: &mut CheckState, payload: &RbPayload) -> bool {
        match payload {
            RbPayload::Setup { .. } => {
                // The set-up exchange is each process's first and only
                // non-Paxos send.
                if st.any_sent || st.setup_sent {
                    return false;
                }
                st.setup_sent = true;
                st.any_sent = true;
                true
            }
            // Log batches never ride the trusted-history channels; a
            // process claiming one in a Paxos history is non-conformant.
            RbPayload::LogEntries { .. } => false,
            RbPayload::Paxos(m) => {
                st.any_sent = true;
                match *m {
                    PaxosMsg::Prepare { b } => {
                        if b.pid != sender || b.round == 0 {
                            return false;
                        }
                        if st.last_prepare_round.is_some_and(|r| b.round <= r) {
                            return false;
                        }
                        st.last_prepare_round = Some(b.round);
                        true
                    }
                    PaxosMsg::Promise { b, accepted } => {
                        if !st.prepares_recv.contains(&b) {
                            return false;
                        }
                        if st.promised.is_some_and(|p| p > b) {
                            return false;
                        }
                        if accepted != st.accepted {
                            return false;
                        }
                        st.promised = Some(b);
                        true
                    }
                    PaxosMsg::Accept { b, v } => {
                        if b.pid != sender {
                            return false;
                        }
                        // One value per ballot, ever (anti-equivocation).
                        if let Some(prev) = st.accepts_sent.get(&b) {
                            return *prev == v;
                        }
                        if b.round == 0 {
                            // The phase-1-free initial ballot: value free.
                            if self.initial_leader != Some(sender) {
                                return false;
                            }
                        } else {
                            let Some(promises) = st.promises_recv.get(&b) else {
                                return false;
                            };
                            if promises.len() < majority(self.procs.len()) {
                                return false;
                            }
                            let forced = promises
                                .values()
                                .flatten()
                                .max_by_key(|(ab, _)| *ab)
                                .map(|(_, fv)| *fv);
                            if let Some(fv) = forced {
                                if fv != v {
                                    return false;
                                }
                            }
                        }
                        st.accepts_sent.insert(b, v);
                        true
                    }
                    PaxosMsg::Accepted { b, v } => {
                        if !st.accepts_recv.contains(&(b, v)) {
                            return false;
                        }
                        if st.promised.is_some_and(|p| p > b) {
                            return false;
                        }
                        st.promised = Some(b);
                        st.accepted = Some((b, v));
                        true
                    }
                    // Nack is advisory; Decide is ignored by untrusting
                    // engines. Neither can corrupt state.
                    PaxosMsg::Nack { .. } | PaxosMsg::Decide { .. } => true,
                }
            }
        }
    }
}

/// The trusted endpoint of one process: T-send / T-receive over
/// non-equivocating broadcast, with history validation.
pub struct TrustedPeer {
    me: Pid,
    verifier: SigVerifier,
    checker: PaxosChecker,
    neb: NebEngine,
    history: Vec<HistEntry>,
    /// What each sender actually broadcast, by sequence number (used to
    /// cross-check claimed histories; filled in delivery order).
    got: BTreeMap<(Pid, u64), (Dest, RbPayload)>,
    /// Senders that failed validation (ignored thereafter).
    distrusted: BTreeSet<Pid>,
}

impl std::fmt::Debug for TrustedPeer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedPeer")
            .field("me", &self.me)
            .field("history_len", &self.history.len())
            .field("distrusted", &self.distrusted)
            .finish()
    }
}

impl TrustedPeer {
    /// Creates the endpoint.
    pub fn new(me: Pid, verifier: SigVerifier, checker: PaxosChecker, neb: NebEngine) -> Self {
        TrustedPeer {
            me,
            verifier,
            checker,
            neb,
            history: Vec::new(),
            got: BTreeMap::new(),
            distrusted: BTreeSet::new(),
        }
    }

    /// T-send: broadcast `(dest, payload)` with the full history attached.
    pub fn t_send(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        dest: Dest,
        payload: RbPayload,
    ) {
        let wire = TWire {
            dest,
            payload: payload.clone(),
            history: self.history.clone(),
        };
        let k = self.neb.broadcast(ctx, client, wire);
        self.history.push(HistEntry::Sent { k, dest, payload });
    }

    /// Drives delivery attempts (call on a poll timer).
    pub fn poll(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        self.neb.poll(ctx, client);
    }

    /// Routes a memory completion into the broadcast layer. Returns true if
    /// it was consumed.
    pub fn on_completion(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        completion: rdma_sim::Completion<RegVal>,
    ) -> bool {
        self.neb.on_completion(ctx, client, completion)
    }

    /// T-receive: validates and returns newly delivered messages addressed
    /// to this process. Also appends matching `Recv` entries to the local
    /// history, in delivery order, and notes each sender it starts to
    /// distrust in the run's event stream.
    pub fn drain(&mut self, ctx: &mut Context<'_, Msg>) -> Vec<TDelivery> {
        let mut out = Vec::new();
        while let Some(d) = self.neb.next_delivery() {
            let from = d.from;
            let NebSlot { k, ref wire, sig } = *d.slot;
            // Record what the sender actually broadcast regardless of
            // validity: later history cross-checks need it.
            self.got
                .insert((from, k), (wire.dest, wire.payload.clone()));
            if self.distrusted.contains(&from) {
                continue;
            }
            if !self.validate(from, k, wire) {
                ctx.note_with(|| format!("trusted: distrust {from} at k={k}"));
                self.distrusted.insert(from);
                continue;
            }
            let addressed_to_me = match wire.dest {
                Dest::All => true,
                Dest::One(p) => p == self.me,
            };
            // Everyone records every validated broadcast it saw (the
            // history must justify counting quorums of broadcast votes).
            self.history.push(HistEntry::Recv {
                from,
                k,
                dest: wire.dest,
                payload: wire.payload.clone(),
                hd: hist_digest(&wire.history),
                sig,
            });
            if addressed_to_me {
                out.push(TDelivery {
                    from,
                    payload: wire.payload.clone(),
                });
            }
        }
        out
    }

    /// Validation steps (a), (b), (c) from the module docs.
    fn validate(&self, from: Pid, k: u64, wire: &TWire) -> bool {
        // (a) Claimed receives carry genuine signatures.
        for entry in &wire.history {
            if let HistEntry::Recv {
                from: f,
                k,
                dest,
                payload,
                hd,
                sig,
            } = entry
            {
                // Rebuild the signed view with the claimed history digest.
                let v = SignView {
                    tag: sigtags::NEB,
                    k: *k,
                    dest,
                    payload,
                    hd: *hd,
                };
                if !self.verifier.valid(*f, &v, sig) {
                    return false;
                }
            }
        }
        // (b) Claimed sends are exactly the sender's actual broadcasts
        // 1..k-1, in order.
        let mut expect_k = 1;
        for entry in &wire.history {
            if let HistEntry::Sent {
                k: sk,
                dest,
                payload,
            } = entry
            {
                if *sk != expect_k {
                    return false;
                }
                match self.got.get(&(from, *sk)) {
                    Some((gd, gp)) if gd == dest && gp == payload => {}
                    _ => return false,
                }
                expect_k += 1;
            }
        }
        if expect_k != k {
            return false; // skipped or invented sends
        }
        // (c) Protocol conformance of the send sequence, ending with this
        // message.
        self.checker.conforms(from, &wire.history, &wire.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Ballot;
    use simnet::ActorId;

    fn checker(n: u32) -> PaxosChecker {
        PaxosChecker {
            procs: (0..n).map(ActorId).collect(),
            initial_leader: Some(ActorId(0)),
        }
    }

    fn b(round: u64, pid: u32) -> Ballot {
        Ballot {
            round,
            pid: ActorId(pid),
        }
    }

    #[test]
    fn initial_leader_may_accept_freely() {
        let c = checker(3);
        let next = RbPayload::Paxos(PaxosMsg::Accept {
            b: b(0, 0),
            v: Value(7),
        });
        assert!(c.conforms(ActorId(0), &[], &next));
        // ...but nobody else may use round 0.
        assert!(!c.conforms(ActorId(1), &[], &next));
    }

    #[test]
    fn promise_requires_received_prepare() {
        let c = checker(3);
        let next = RbPayload::Paxos(PaxosMsg::Promise {
            b: b(1, 0),
            accepted: None,
        });
        assert!(!c.conforms(ActorId(1), &[], &next));
        let hist = [HistEntry::Recv {
            from: ActorId(0),
            k: 1,
            dest: Dest::All,
            payload: RbPayload::Paxos(PaxosMsg::Prepare { b: b(1, 0) }),
            hd: 0,
            sig: Signature::forged(ActorId(0), 0),
        }];
        assert!(c.conforms(ActorId(1), &hist, &next));
    }

    #[test]
    fn promise_must_report_true_accepted_state() {
        let c = checker(3);
        // Sender accepted (b0, v7) earlier, then promises b1 claiming None.
        let hist = [
            HistEntry::Recv {
                from: ActorId(0),
                k: 1,
                dest: Dest::All,
                payload: RbPayload::Paxos(PaxosMsg::Accept {
                    b: b(0, 0),
                    v: Value(7),
                }),
                hd: 0,
                sig: Signature::forged(ActorId(0), 0),
            },
            HistEntry::Sent {
                k: 1,
                dest: Dest::All,
                payload: RbPayload::Paxos(PaxosMsg::Accepted {
                    b: b(0, 0),
                    v: Value(7),
                }),
            },
            HistEntry::Recv {
                from: ActorId(2),
                k: 1,
                dest: Dest::All,
                payload: RbPayload::Paxos(PaxosMsg::Prepare { b: b(1, 2) }),
                hd: 0,
                sig: Signature::forged(ActorId(2), 0),
            },
        ];
        let lie = RbPayload::Paxos(PaxosMsg::Promise {
            b: b(1, 2),
            accepted: None,
        });
        assert!(!c.conforms(ActorId(1), &hist, &lie));
        let truth = RbPayload::Paxos(PaxosMsg::Promise {
            b: b(1, 2),
            accepted: Some((b(0, 0), Value(7))),
        });
        assert!(c.conforms(ActorId(1), &hist, &truth));
    }

    #[test]
    fn accept_requires_promise_quorum_and_forced_value() {
        let c = checker(3);
        let ballot = b(1, 1);
        let mk_promise = |from: u32, acc| HistEntry::Recv {
            from: ActorId(from),
            k: 1,
            dest: Dest::One(ActorId(1)),
            payload: RbPayload::Paxos(PaxosMsg::Promise {
                b: ballot,
                accepted: acc,
            }),
            hd: 0,
            sig: Signature::forged(ActorId(from), 0),
        };
        // No quorum: reject.
        let h1 = [mk_promise(0, None)];
        let acc = RbPayload::Paxos(PaxosMsg::Accept {
            b: ballot,
            v: Value(5),
        });
        assert!(!c.conforms(ActorId(1), &h1, &acc));
        // Quorum, no prior accepts: free choice allowed.
        let h2 = [mk_promise(0, None), mk_promise(2, None)];
        assert!(c.conforms(ActorId(1), &h2, &acc));
        // Quorum with a reported accepted value: forced.
        let h3 = [
            mk_promise(0, Some((b(0, 0), Value(9)))),
            mk_promise(2, None),
        ];
        assert!(!c.conforms(ActorId(1), &h3, &acc));
        let forced = RbPayload::Paxos(PaxosMsg::Accept {
            b: ballot,
            v: Value(9),
        });
        assert!(c.conforms(ActorId(1), &h3, &forced));
    }

    #[test]
    fn two_accepts_same_ballot_different_values_rejected() {
        let c = checker(3);
        let ballot = b(1, 1);
        let mk_promise = |from: u32| HistEntry::Recv {
            from: ActorId(from),
            k: 1,
            dest: Dest::One(ActorId(1)),
            payload: RbPayload::Paxos(PaxosMsg::Promise {
                b: ballot,
                accepted: None,
            }),
            hd: 0,
            sig: Signature::forged(ActorId(from), 0),
        };
        let hist = [
            mk_promise(0),
            mk_promise(2),
            HistEntry::Sent {
                k: 1,
                dest: Dest::All,
                payload: RbPayload::Paxos(PaxosMsg::Accept {
                    b: ballot,
                    v: Value(5),
                }),
            },
        ];
        let equivocation = RbPayload::Paxos(PaxosMsg::Accept {
            b: ballot,
            v: Value(6),
        });
        assert!(!c.conforms(ActorId(1), &hist, &equivocation));
        let repeat = RbPayload::Paxos(PaxosMsg::Accept {
            b: ballot,
            v: Value(5),
        });
        assert!(c.conforms(ActorId(1), &hist, &repeat));
    }

    #[test]
    fn accepted_requires_received_accept() {
        let c = checker(3);
        let fake = RbPayload::Paxos(PaxosMsg::Accepted {
            b: b(1, 0),
            v: Value(3),
        });
        assert!(!c.conforms(ActorId(1), &[], &fake));
    }

    #[test]
    fn promise_after_higher_promise_rejected() {
        let c = checker(3);
        let hist = [
            HistEntry::Recv {
                from: ActorId(2),
                k: 1,
                dest: Dest::All,
                payload: RbPayload::Paxos(PaxosMsg::Prepare { b: b(5, 2) }),
                hd: 0,
                sig: Signature::forged(ActorId(2), 0),
            },
            HistEntry::Recv {
                from: ActorId(0),
                k: 2,
                dest: Dest::All,
                payload: RbPayload::Paxos(PaxosMsg::Prepare { b: b(1, 0) }),
                hd: 0,
                sig: Signature::forged(ActorId(0), 0),
            },
            HistEntry::Sent {
                k: 1,
                dest: Dest::One(ActorId(2)),
                payload: RbPayload::Paxos(PaxosMsg::Promise {
                    b: b(5, 2),
                    accepted: None,
                }),
            },
        ];
        let backslide = RbPayload::Paxos(PaxosMsg::Promise {
            b: b(1, 0),
            accepted: None,
        });
        assert!(!c.conforms(ActorId(1), &hist, &backslide));
    }

    #[test]
    fn setup_only_first() {
        let c = checker(3);
        let setup = RbPayload::Setup {
            value: Value(1),
            evidence: SetupEvidence::default(),
        };
        assert!(c.conforms(ActorId(1), &[], &setup));
        let hist = [HistEntry::Sent {
            k: 1,
            dest: Dest::All,
            payload: setup.clone(),
        }];
        assert!(!c.conforms(ActorId(1), &hist, &setup));
    }
}
