//! The wire protocol between processes and memories.
//!
//! A memory operation is a request/response round trip — two network delays,
//! matching the paper's cost model ("a memory operation takes two delays
//! because its hardware implementation requires a round trip"). Requests and
//! responses travel as ordinary simulation messages; protocols embed them in
//! their own message enums through [`MemEmbed`].

use std::fmt;
use std::sync::Arc;

use simnet::{CostClass, Verb};

use crate::perm::Permission;
use crate::reg::RegId;
use crate::region::{RegionId, RegionSpec};

/// Correlates a memory response with its request. Unique per client.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl fmt::Debug for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A memory operation request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemRequest<V> {
    /// `read(mr, r)` — returns the register value if the caller has read
    /// permission on `region` and `reg ∈ region`.
    Read {
        /// Region through which access is claimed.
        region: RegionId,
        /// Register to read.
        reg: RegId,
    },
    /// `write(mr, r, v)`.
    Write {
        /// Region through which access is claimed.
        region: RegionId,
        /// Register to write.
        reg: RegId,
        /// Value to store.
        value: V,
    },
    /// Writes several registers of one region in a single round trip.
    ///
    /// Models RDMA scatter-gather / doorbell batching: the NIC applies one
    /// work request covering multiple registered locations, so the cost —
    /// two network delays, one memory operation — is that of a single
    /// write no matter how many registers it covers. Permission checking
    /// is all-or-nothing: if the caller lacks write permission or any
    /// register falls outside the region, nothing is written and the
    /// memory naks.
    WriteMany {
        /// Region through which access is claimed.
        region: RegionId,
        /// `(register, value)` pairs, applied atomically in order. Shared:
        /// a process posting one batch to several memories builds the
        /// rows once (one registered buffer, several remotes) and each
        /// memory copies out what it stores.
        writes: Arc<[(RegId, V)]>,
    },
    /// Reads every currently-written register of `region` in one round trip
    /// that is also in `within`.
    ///
    /// This models an RDMA read of a registered buffer (one DMA fetch of a
    /// whole slot array — or a strided column of it — as §7 describes: "the
    /// process can register the two dimensional array of values in read-only
    /// mode"). Registers never written (still ⊥) are absent from the
    /// response, which lists the rest in `RegId` order. A `within`
    /// that pins a `b` window is the (address, length) form of
    /// the read: the memory answers it from an ordered key index in time
    /// proportional to the window, not to the table
    /// ([`MemoryActor`](crate::MemoryActor)).
    ReadRange {
        /// Region to scan (permission is checked against this region).
        region: RegionId,
        /// Only registers also in this set are returned
        /// ([`RegionSpec::ALL`] for the whole region).
        within: RegionSpec,
        /// The reader's buffer the rows land in, as an RDMA READ names its
        /// local scatter-gather target: the memory clears it, fills it and
        /// sends it back as the [`MemResponse::Range`], so a reader that
        /// hands back the buffers of earlier reads allocates nothing per
        /// read. What it held before is never part of the answer.
        into: Vec<(RegId, V)>,
    },
    /// `changePermission(mr, new_perm)`, subject to the memory's
    /// `legalChange` policy.
    ChangePerm {
        /// Region whose permission should change.
        region: RegionId,
        /// Requested new permission triple.
        new: Permission,
    },
}

impl<V> MemRequest<V> {
    /// Short tag for tracing.
    pub fn kind_name(&self) -> &'static str {
        match self {
            MemRequest::Read { .. } => "read",
            MemRequest::Write { .. } => "write",
            MemRequest::WriteMany { .. } => "write_many",
            MemRequest::ReadRange { .. } => "read_range",
            MemRequest::ChangePerm { .. } => "change_perm",
        }
    }
}

impl<V: WireSize> MemRequest<V> {
    /// Cost classification of the request leg under
    /// [`simnet::DelayModel::Rdma`]: reads map to the READ verb, writes to
    /// WRITE (a [`MemRequest::WriteMany`] of `k` entries is one doorbell
    /// batch of `k` work requests), and permission changes to the atomic
    /// CAS verb. Each register carried costs its id plus the size its
    /// value type declares ([`WireSize`]), however the host holds it.
    pub fn cost_class(&self) -> CostClass {
        let entry = entry_bytes::<V>();
        match self {
            MemRequest::Read { .. } => CostClass::new(Verb::Read, entry, 1),
            MemRequest::Write { .. } => CostClass::new(Verb::Write, entry, 1),
            MemRequest::WriteMany { writes, .. } => {
                let k = writes.len().max(1) as u32;
                CostClass::new(Verb::Write, k.saturating_mul(entry), k)
            }
            // The request leg of a range read carries only the filter;
            // the payload comes back on the response leg.
            MemRequest::ReadRange { .. } => CostClass::new(Verb::Read, entry, 1),
            MemRequest::ChangePerm { .. } => {
                CostClass::new(Verb::Cas, std::mem::size_of::<Permission>() as u32, 1)
            }
        }
    }
}

/// What one register value adds to a verb's payload under
/// [`simnet::DelayModel::Rdma`]: a size the value type declares, not the
/// size of the host object that holds it. A value kept behind a shared
/// handle costs on the wire what it would cost inline, so how a value is
/// held never moves virtual time.
pub trait WireSize {
    /// Bytes one value occupies on the wire.
    const WIRE_BYTES: u32;
}

impl WireSize for u64 {
    const WIRE_BYTES: u32 = 8;
}

/// Serialized size of one `(register, value)` entry.
fn entry_bytes<V: WireSize>() -> u32 {
    std::mem::size_of::<RegId>() as u32 + V::WIRE_BYTES
}

/// A memory operation response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemResponse<V> {
    /// Successful read; `None` is the initial value ⊥.
    Value(Option<V>),
    /// Successful range read: the written registers of the region.
    Range(Vec<(RegId, V)>),
    /// Successful write.
    Ack,
    /// Permission or region check failed (the paper's `nak`).
    Nak,
    /// Permission change applied.
    PermAck,
    /// Permission change rejected by `legalChange` (it "becomes a no-op";
    /// we additionally tell the caller so protocols can observe it).
    PermNak,
}

impl<V> MemResponse<V> {
    /// Whether this response indicates the operation took effect.
    pub fn is_ok(&self) -> bool {
        !matches!(self, MemResponse::Nak | MemResponse::PermNak)
    }
}

impl<V: WireSize> MemResponse<V> {
    /// Cost classification of the response leg: a completion travelling
    /// back as an inline send, sized by the payload it returns (one value
    /// for [`MemResponse::Value`], the whole written slice for
    /// [`MemResponse::Range`], nothing for acks/naks).
    pub fn cost_class(&self) -> CostClass {
        let entry = entry_bytes::<V>();
        match self {
            MemResponse::Value(Some(_)) => CostClass::new(Verb::Send, entry, 1),
            MemResponse::Range(rows) => {
                CostClass::new(Verb::Send, (rows.len() as u32).saturating_mul(entry), 1)
            }
            _ => CostClass::SEND,
        }
    }
}

/// A memory-protocol message: either leg of the round trip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemWire<V> {
    /// Process → memory.
    Req {
        /// Correlation id chosen by the client.
        op: OpId,
        /// The operation.
        req: MemRequest<V>,
    },
    /// Memory → process.
    Resp {
        /// Correlation id echoed back.
        op: OpId,
        /// The outcome.
        resp: MemResponse<V>,
    },
}

impl<V: WireSize> MemWire<V> {
    /// Cost classification of this leg (request or response) under
    /// [`simnet::DelayModel::Rdma`].
    pub fn cost_class(&self) -> CostClass {
        match self {
            MemWire::Req { req, .. } => req.cost_class(),
            MemWire::Resp { resp, .. } => resp.cost_class(),
        }
    }
}

/// Embedding of the memory wire protocol into a protocol's message type.
///
/// Protocol crates define one message enum per simulation and give it a
/// variant wrapping [`MemWire`]; the [`MemoryActor`] then works for any such
/// enum.
///
/// [`MemoryActor`]: crate::MemoryActor
pub trait MemEmbed<V>: Sized + Clone + fmt::Debug + 'static {
    /// Wraps a wire message.
    fn from_wire(wire: MemWire<V>) -> Self;
    /// Unwraps a wire message, or returns the original if this message is
    /// not part of the memory protocol.
    fn into_wire(self) -> Result<MemWire<V>, Self>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_ok_classification() {
        assert!(MemResponse::<u8>::Value(None).is_ok());
        assert!(MemResponse::<u8>::Range(vec![]).is_ok());
        assert!(MemResponse::<u8>::Ack.is_ok());
        assert!(MemResponse::<u8>::PermAck.is_ok());
        assert!(!MemResponse::<u8>::Nak.is_ok());
        assert!(!MemResponse::<u8>::PermNak.is_ok());
    }

    #[test]
    fn request_kind_names() {
        let r: MemRequest<u8> = MemRequest::Read {
            region: RegionId(0),
            reg: RegId::scalar(0),
        };
        assert_eq!(r.kind_name(), "read");
        let r: MemRequest<u8> = MemRequest::ReadRange {
            region: RegionId(0),
            within: RegionSpec::ALL,
            into: Vec::new(),
        };
        assert_eq!(r.kind_name(), "read_range");
    }

    #[test]
    fn cost_classes_tag_verbs_and_batch_width() {
        let w: MemRequest<u64> = MemRequest::Write {
            region: RegionId(0),
            reg: RegId::scalar(0),
            value: 9,
        };
        assert_eq!(w.cost_class().verb, Verb::Write);
        assert_eq!(w.cost_class().wrs, 1);
        assert_eq!(w.cost_class().bytes, 32 + 8, "a register id and a u64");

        let many: MemRequest<u64> = MemRequest::WriteMany {
            region: RegionId(0),
            writes: (0..5u64).map(|i| (RegId::scalar(i as u16), i)).collect(),
        };
        let c = many.cost_class();
        assert_eq!(c.verb, Verb::Write);
        assert_eq!(c.wrs, 5);
        assert_eq!(c.bytes, 5 * w.cost_class().bytes);

        let perm: MemRequest<u64> = MemRequest::ChangePerm {
            region: RegionId(0),
            new: Permission::open(),
        };
        assert_eq!(perm.cost_class().verb, Verb::Cas);

        let range: MemResponse<u64> = MemResponse::Range(vec![(RegId::scalar(0), 1); 4]);
        assert_eq!(range.cost_class().verb, Verb::Send);
        assert_eq!(range.cost_class().bytes, 4 * w.cost_class().bytes);
        assert_eq!(MemResponse::<u64>::Ack.cost_class(), CostClass::SEND);
    }
}
