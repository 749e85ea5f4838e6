//! # agreement — the algorithms of *The Impact of RDMA on Agreement*
//!
//! A from-scratch reproduction of Aguilera, Ben-David, Guerraoui, Marathe
//! and Zablotchi (PODC 2019) on a simulated message-and-memory substrate:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Non-equivocating broadcast (Alg. 2, Lemma 4.1) | [`nebcast`] |
//! | T-send/T-receive + history checking (Alg. 3) | [`trusted`] |
//! | Robust Backup (Def. 2, Thm 4.2/4.4) | [`robust_backup`] |
//! | Cheap Quorum (Alg. 4/5, Lemmas 4.5/4.6, B.6) | [`cheap_quorum`] |
//! | Preferential Paxos (Alg. 8, Lemma 4.7) | [`pref_paxos`] |
//! | Fast & Robust composition (§4.3, Thm 4.9) | [`fast_robust`] |
//! | Protected Memory Paxos (Alg. 7, Thm 5.1); the one two-phase proposer of the crash side (Alg. 9) | [`protected`] |
//! | Aligned Paxos (§5.2, Algs. 9–15) | [`aligned`] |
//! | Lower bound (Thm 6.1) | [`lower_bound`] |
//! | Replicated log on PMP (multi-instance) | [`smr`] |
//! | Sharded multi-group log service (router + groups) | [`sharded`] |
//! | Baselines: Paxos, Disk Paxos, Fast Paxos | [`paxos`], [`disk_paxos`], [`fast_paxos`] |
//! | Byzantine adversaries | [`adversary`] |
//! | One-call experiment builders | [`harness`] |
//! | Scenario fuzzer + safety oracle + shrinker | [`fuzz`] |
//! | Systematic schedule exploration (DPOR-lite) | [`explore`] |
//! | Command-lifecycle spans + latency histograms | [`spans`] |
//!
//! # Example
//!
//! Run the headline Byzantine protocol in its common case and observe the
//! paper's 2-delay decision:
//!
//! ```
//! use agreement::harness::{run_fast_robust, Scenario};
//!
//! let scenario = Scenario::common_case(3, 3, 42); // n=3 procs, m=3 mems
//! let (report, _signatures) = run_fast_robust(&scenario, 60);
//! assert!(report.all_decided && report.agreement && report.validity);
//! assert_eq!(report.first_decision_delays, Some(2.0)); // Theorem 4.9
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod aligned;
pub mod cheap_quorum;
pub mod disk_paxos;
pub mod explore;
pub mod fast_paxos;
pub mod fast_robust;
pub mod fuzz;
pub mod harness;
pub mod lower_bound;
pub mod nebcast;
pub mod paxos;
pub mod pref_paxos;
pub mod protected;
pub mod robust_backup;
pub mod sharded;
pub mod smr;
pub mod spans;
pub mod trusted;
pub mod types;

pub use types::{Ballot, Instance, Msg, Pid, PriorityClass, RegVal, Value};
