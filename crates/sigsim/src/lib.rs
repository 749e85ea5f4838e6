//! # sigsim — simulated unforgeable signatures
//!
//! The paper's algorithms (§3 *Signatures*) assume primitives `sign(v)` and
//! `sValid(p, v)`: unforgeable signatures where only process `p` can produce
//! a signature attributable to `p`, and anyone can verify one.
//!
//! For a protocol-logic reproduction, cryptographic hardness is unnecessary:
//! what matters is that the *simulation* cannot contain a forged signature.
//! This crate enforces unforgeability **by construction**:
//!
//! * The [`SigAuthority`] holds one secret 64-bit key per identity. Keys are
//!   never exposed.
//! * A process signs through its [`Signer`], handed out by the harness for
//!   that process's identity only. Byzantine actor implementations receive a
//!   `Signer` for their own id and therefore can *sign anything as
//!   themselves* (lie, equivocate at the application layer) but cannot mint
//!   a valid signature attributable to a correct process.
//! * Verification recomputes a keyed digest over the value's canonical
//!   [`Hash`] feed. Digests are 64-bit [`SipHash`] outputs — plenty for an
//!   in-process simulation; this is documented as simulation-grade, not
//!   cryptography.
//!
//! Signature creations and verifications are counted, feeding the paper's
//! "one signature in the common case" measurement for Cheap Quorum (§4.2).
//!
//! ```
//! use sigsim::{SigAuthority, SigVerifier};
//! use simnet::ActorId;
//!
//! let mut auth = SigAuthority::new(7);
//! let alice = auth.register(ActorId(0));
//! let bob = auth.register(ActorId(1));
//! let verifier = auth.verifier();
//!
//! let sig = alice.sign(&"attack at dawn");
//! assert!(verifier.valid(ActorId(0), &"attack at dawn", &sig));
//! assert!(!verifier.valid(ActorId(0), &"retreat", &sig)); // altered value
//! assert!(!verifier.valid(ActorId(1), &"attack at dawn", &sig)); // wrong signer
//! drop(bob);
//! ```
//!
//! [`SipHash`]: std::collections::hash_map::DefaultHasher

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use simnet::ActorId;

/// A signature over a value, attributable to one identity.
///
/// Opaque to protocols: its only uses are carrying it in messages/registers
/// and passing it to [`SigVerifier::valid`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature {
    signer: ActorId,
    tag: u64,
}

impl Signature {
    /// A syntactically well-formed but invalid signature, as a Byzantine
    /// process might fabricate. Useful in adversary implementations and
    /// tests; verification always rejects it (up to 64-bit digest collision,
    /// which the constructor avoids by construction for the authority's
    /// keyspace only probabilistically — in practice tests never collide).
    pub fn forged(claimed: ActorId, junk: u64) -> Signature {
        Signature {
            signer: claimed,
            tag: junk,
        }
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig[{}:{:08x}]", self.signer, self.tag as u32)
    }
}

/// Usage counters. Atomics (relaxed — they are statistics, not
/// synchronization) so signer/verifier handles stay `Send + Sync` and
/// signed actors can execute on the partitioned parallel kernel's worker
/// threads.
#[derive(Debug, Default)]
struct Counters {
    created: AtomicU64,
    verified: AtomicU64,
    rejected: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    keys: RwLock<BTreeMap<ActorId, u64>>,
    counters: Counters,
}

impl Inner {
    fn digest<T: Hash + ?Sized>(&self, signer: ActorId, value: &T) -> Option<u64> {
        let key = *self.keys.read().expect("key table poisoned").get(&signer)?;
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        signer.hash(&mut h);
        value.hash(&mut h);
        Some(h.finish())
    }
}

/// The trusted signing authority: registers identities and issues
/// [`Signer`]s and [`SigVerifier`]s.
///
/// One authority is shared per simulation. It is the analogue of the PKI the
/// paper assumes when it assumes unforgeable signatures.
#[derive(Debug)]
pub struct SigAuthority {
    inner: Arc<Inner>,
    rng: StdRng,
}

impl SigAuthority {
    /// Creates an authority with a seeded key generator.
    pub fn new(seed: u64) -> SigAuthority {
        SigAuthority {
            inner: Arc::new(Inner {
                keys: RwLock::new(BTreeMap::new()),
                counters: Counters::default(),
            }),
            rng: StdRng::seed_from_u64(seed ^ 0x5169_5349_4d5f_4b45), // "SIGSIM_KE"
        }
    }

    /// Registers `id` and returns its private [`Signer`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered (identities are unique).
    pub fn register(&mut self, id: ActorId) -> Signer {
        let key: u64 = self.rng.gen();
        let prev = self
            .inner
            .keys
            .write()
            .expect("key table poisoned")
            .insert(id, key);
        assert!(prev.is_none(), "identity {id} registered twice");
        Signer {
            inner: Arc::clone(&self.inner),
            me: id,
        }
    }

    /// Returns a verifier handle. Any number may be created; they share the
    /// authority's counters.
    pub fn verifier(&self) -> SigVerifier {
        SigVerifier {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Total signatures created so far.
    pub fn signatures_created(&self) -> u64 {
        self.inner.counters.created.load(Ordering::Relaxed)
    }

    /// Total verification checks performed so far.
    pub fn verifications(&self) -> u64 {
        self.inner.counters.verified.load(Ordering::Relaxed)
    }

    /// Verification checks that returned false.
    pub fn rejections(&self) -> u64 {
        self.inner.counters.rejected.load(Ordering::Relaxed)
    }
}

/// The private signing capability of one identity.
///
/// Holding a `Signer` is what it means to *be* that identity; the harness
/// gives each actor exactly its own.
#[derive(Clone)]
pub struct Signer {
    inner: Arc<Inner>,
    me: ActorId,
}

impl Signer {
    /// The identity this signer signs as.
    pub fn id(&self) -> ActorId {
        self.me
    }

    /// Signs `value` (the paper's `sign(v)`).
    pub fn sign<T: Hash + ?Sized>(&self, value: &T) -> Signature {
        self.inner.counters.created.fetch_add(1, Ordering::Relaxed);
        let tag = self
            .inner
            .digest(self.me, value)
            .expect("signer identity vanished from authority");
        Signature {
            signer: self.me,
            tag,
        }
    }
}

impl fmt::Debug for Signer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signer({})", self.me)
    }
}

/// A verification handle (the paper's `sValid(p, v)`).
#[derive(Clone)]
pub struct SigVerifier {
    inner: Arc<Inner>,
}

impl SigVerifier {
    /// Returns true iff `sig` is a valid signature by `signer` over `value`.
    pub fn valid<T: Hash + ?Sized>(&self, signer: ActorId, value: &T, sig: &Signature) -> bool {
        self.inner.counters.verified.fetch_add(1, Ordering::Relaxed);
        let ok = sig.signer == signer && (self.inner.digest(signer, value) == Some(sig.tag));
        if !ok {
            self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }
}

impl fmt::Debug for SigVerifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SigVerifier({} identities)",
            self.inner.keys.read().expect("key table poisoned").len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Signer, Signer, SigVerifier, SigAuthority) {
        let mut auth = SigAuthority::new(123);
        let a = auth.register(ActorId(0));
        let b = auth.register(ActorId(1));
        let v = auth.verifier();
        (a, b, v, auth)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (a, _, v, _) = setup();
        let sig = a.sign(&(1u64, "x"));
        assert!(v.valid(ActorId(0), &(1u64, "x"), &sig));
    }

    #[test]
    fn altered_value_rejected() {
        let (a, _, v, _) = setup();
        let sig = a.sign(&42u64);
        assert!(!v.valid(ActorId(0), &43u64, &sig));
    }

    #[test]
    fn cross_signer_rejected() {
        let (a, b, v, _) = setup();
        let sa = a.sign(&7u64);
        let sb = b.sign(&7u64);
        // b cannot pass off its signature as a's, nor vice versa.
        assert!(!v.valid(ActorId(0), &7u64, &sb));
        assert!(!v.valid(ActorId(1), &7u64, &sa));
    }

    #[test]
    fn forged_signature_rejected() {
        let (_, _, v, _) = setup();
        for junk in [0u64, 1, u64::MAX, 0xdead_beef] {
            let f = Signature::forged(ActorId(0), junk);
            assert!(!v.valid(ActorId(0), &7u64, &f));
        }
    }

    #[test]
    fn unknown_identity_rejected() {
        let (a, _, v, _) = setup();
        let sig = a.sign(&7u64);
        assert!(!v.valid(ActorId(9), &7u64, &sig));
    }

    #[test]
    fn counters_track_usage() {
        let (a, _, v, auth) = setup();
        let sig = a.sign(&1u8);
        let _ = a.sign(&2u8);
        assert!(v.valid(ActorId(0), &1u8, &sig));
        assert!(!v.valid(ActorId(0), &9u8, &sig));
        assert_eq!(auth.signatures_created(), 2);
        assert_eq!(auth.verifications(), 2);
        assert_eq!(auth.rejections(), 1);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut auth = SigAuthority::new(1);
        let _a = auth.register(ActorId(0));
        let _b = auth.register(ActorId(0));
    }

    #[test]
    fn deterministic_keys_from_seed() {
        let mk = || {
            let mut auth = SigAuthority::new(77);
            let s = auth.register(ActorId(3));
            s.sign(&"v")
        };
        assert_eq!(mk(), mk());
    }
}
