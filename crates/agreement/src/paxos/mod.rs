//! Classic single-decree Paxos: the crash-tolerant message-passing protocol
//! (`n ≥ 2·f_P + 1`) used three ways in this reproduction —
//!
//! 1. directly over links, as the message-passing baseline
//!    ([`PaxosActor`]);
//! 2. as the algorithm `A` inside Robust Backup (Definition 2), driven over
//!    trusted T-send/T-receive channels (`crate::robust_backup`);
//! 3. as the skeleton that Protected Memory Paxos and Aligned Paxos
//!    restructure around memories (`crate::protected`, `crate::aligned`).

mod actor;
mod engine;

pub use actor::PaxosActor;
pub use engine::{Acceptor, Dest, PaxosConfig, PaxosEngine, PaxosMsg};
