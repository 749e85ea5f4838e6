//! # rdma-sim — the paper's RDMA memory model, simulated
//!
//! Implements the shared-memory half of the message-and-memory model from
//! *The Impact of RDMA on Agreement* (§3, §7):
//!
//! * **Memories** ([`MemoryActor`]) hold registers ([`RegId`]) grouped into
//!   **regions** ([`RegionSpec`]) with **permissions** ([`Permission`]:
//!   disjoint read / write / read-write process sets).
//! * `read` / `write` name the region through which access is claimed; the
//!   memory naks operations lacking permission. This check is the trusted
//!   component: Byzantine processes cannot bypass it, just as a real NIC
//!   enforces protection-domain registration without CPU involvement.
//! * `changePermission` is gated by the algorithm's [`LegalChange`] policy
//!   (the paper's `legalChange` predicate) — `Static` forbids all changes,
//!   `AnyChange` allows them (crash-only algorithms), `Policy` captures
//!   shapes like "only revoking the leader's write permission".
//! * **Failures**: memories crash (scheduled by the harness); a crashed
//!   memory hangs without responding, indistinguishable from a slow one.
//! * The [`MemoryClient`] enforces "at most one outstanding operation per
//!   memory" per process and surfaces completions; each operation costs two
//!   network delays (request + response), the paper's cost model.
//!
//! Real-RDMA correspondence (§7): a region with read permission for all and
//! write for one process models a memory region registered read-only in
//! every peer's protection domain plus read-write in the owner's;
//! `changePermission` models (de)registering a region; [`MemRequest::ReadRange`]
//! models a one-shot RDMA read of a registered slot array.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod memory;
mod page_list;
mod perm;
mod reg;
mod region;
mod wire;

pub use client::{Completion, MemoryClient};
pub use memory::{MemoryActor, LOG_PAGE_ROWS, SPARSE_PAGE_ROWS};
pub use page_list::PageList;
pub use perm::{LegalChange, LegalChangeFn, PermSet, Permission};
pub use reg::RegId;
pub use region::{RegionId, RegionSpec, Window};
pub use wire::{MemEmbed, MemRequest, MemResponse, MemWire, OpId, WireSize};
