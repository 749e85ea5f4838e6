//! The per-process memory client.
//!
//! Enforces the model constraint that a process has **at most one
//! outstanding operation on each memory** (§3 "Executions and steps"):
//! operations to a busy memory are queued FIFO and dispatched as responses
//! arrive; operations to distinct memories proceed in parallel.

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use simnet::{ActorId, Context};

use crate::perm::Permission;
use crate::reg::RegId;
use crate::region::RegionId;
use crate::wire::{MemEmbed, MemRequest, MemResponse, MemWire, OpId, WireSize};

/// Per-memory FIFO of operations waiting for the in-flight one.
type WaitQueue<V> = VecDeque<(OpId, MemRequest<V>)>;

/// A completed memory operation, as surfaced to the protocol.
#[derive(Clone, Debug)]
pub struct Completion<V> {
    /// The operation's id (returned by the submit call).
    pub op: OpId,
    /// Which memory answered.
    pub mem: ActorId,
    /// The outcome.
    pub resp: MemResponse<V>,
}

/// Issues memory operations on behalf of one process, respecting the
/// one-outstanding-op-per-memory rule.
pub struct MemoryClient<V, M> {
    next_op: u64,
    /// Operation currently in flight per memory. A client talks to a
    /// handful of memories, so a linear small-vec beats an ordered map on
    /// the per-operation hot path (and never allocates once warm).
    busy: Vec<(ActorId, OpId)>,
    /// Waiting operations per memory; entries are created on first use and
    /// retained (capacity included) for the client's lifetime.
    queues: Vec<(ActorId, WaitQueue<V>)>,
    _msg: PhantomData<M>,
}

impl<V, M> fmt::Debug for MemoryClient<V, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryClient")
            .field("busy", &self.busy)
            .field(
                "queued",
                &self.queues.iter().map(|(_, q)| q.len()).sum::<usize>(),
            )
            .finish()
    }
}

impl<V, M> Default for MemoryClient<V, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, M> MemoryClient<V, M> {
    /// Creates an idle client.
    pub fn new() -> MemoryClient<V, M> {
        MemoryClient {
            next_op: 0,
            busy: Vec::new(),
            queues: Vec::new(),
            _msg: PhantomData,
        }
    }
}

impl<V, M> MemoryClient<V, M>
where
    V: Clone + fmt::Debug + WireSize + 'static,
    M: MemEmbed<V>,
{
    /// Submits an operation to `mem`. If the memory is busy the operation is
    /// queued; either way the operation's id is returned immediately.
    pub fn submit(&mut self, ctx: &mut Context<'_, M>, mem: ActorId, req: MemRequest<V>) -> OpId {
        self.next_op += 1;
        let op = OpId(self.next_op);
        let op_name = match &req {
            MemRequest::Read { .. } => {
                ctx.metrics().mem_reads += 1;
                "read"
            }
            // A batched write is one memory operation (one round trip),
            // exactly like a single write — that is the point of batching.
            MemRequest::Write { .. } | MemRequest::WriteMany { .. } => {
                ctx.metrics().mem_writes += 1;
                "write"
            }
            MemRequest::ReadRange { .. } => {
                ctx.metrics().mem_range_reads += 1;
                "read_range"
            }
            MemRequest::ChangePerm { .. } => {
                ctx.metrics().perm_changes += 1;
                "change_perm"
            }
        };
        ctx.obs_mem_op(op_name);
        if self.is_busy(mem) {
            match self.queues.iter_mut().find(|(m, _)| *m == mem) {
                Some((_, q)) => q.push_back((op, req)),
                None => {
                    let mut q = VecDeque::new();
                    q.push_back((op, req));
                    self.queues.push((mem, q));
                }
            }
        } else {
            self.busy.push((mem, op));
            let class = req.cost_class();
            ctx.send_classed(mem, M::from_wire(MemWire::Req { op, req }), class);
        }
        op
    }

    /// Sugar for [`MemoryClient::submit`] with a read request.
    pub fn read(
        &mut self,
        ctx: &mut Context<'_, M>,
        mem: ActorId,
        region: RegionId,
        reg: RegId,
    ) -> OpId {
        self.submit(ctx, mem, MemRequest::Read { region, reg })
    }

    /// Sugar for [`MemoryClient::submit`] with a write request.
    pub fn write(
        &mut self,
        ctx: &mut Context<'_, M>,
        mem: ActorId,
        region: RegionId,
        reg: RegId,
        value: V,
    ) -> OpId {
        self.submit(ctx, mem, MemRequest::Write { region, reg, value })
    }

    /// Sugar for [`MemoryClient::submit`] with a batched multi-register
    /// write (one round trip covering all of `writes`, which the caller
    /// may share between the memories it posts the batch to).
    pub fn write_many(
        &mut self,
        ctx: &mut Context<'_, M>,
        mem: ActorId,
        region: RegionId,
        writes: Arc<[(RegId, V)]>,
    ) -> OpId {
        self.submit(ctx, mem, MemRequest::WriteMany { region, writes })
    }

    /// Sugar for [`MemoryClient::submit`] with a range read whose rows
    /// come back in `into` (cleared first; pass `Vec::new()` for a fresh
    /// buffer).
    pub fn read_range(
        &mut self,
        ctx: &mut Context<'_, M>,
        mem: ActorId,
        region: RegionId,
        within: crate::RegionSpec,
        into: Vec<(RegId, V)>,
    ) -> OpId {
        let req = MemRequest::ReadRange {
            region,
            within,
            into,
        };
        self.submit(ctx, mem, req)
    }

    /// Sugar for [`MemoryClient::submit`] with a permission change.
    pub fn change_perm(
        &mut self,
        ctx: &mut Context<'_, M>,
        mem: ActorId,
        region: RegionId,
        new: Permission,
    ) -> OpId {
        self.submit(ctx, mem, MemRequest::ChangePerm { region, new })
    }

    /// Feeds an incoming message to the client. Returns the completion if
    /// the message was the response to one of this client's operations; the
    /// next queued operation for that memory (if any) is dispatched.
    ///
    /// Protocols call this for every [`MemWire`] message they receive.
    pub fn on_wire(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: ActorId,
        wire: MemWire<V>,
    ) -> Option<Completion<V>> {
        let MemWire::Resp { op, resp } = wire else {
            return None;
        };
        match self.busy.iter().position(|&(m, o)| m == from && o == op) {
            Some(ix) => {
                self.busy.swap_remove(ix);
            }
            // A response we no longer expect (e.g. after a protocol-level
            // reset): ignore it but keep the pipeline moving.
            None => return None,
        }
        if let Some((_, queue)) = self.queues.iter_mut().find(|(m, _)| *m == from) {
            if let Some((next_op, req)) = queue.pop_front() {
                self.busy.push((from, next_op));
                let class = req.cost_class();
                ctx.send_classed(from, M::from_wire(MemWire::Req { op: next_op, req }), class);
            }
        }
        Some(Completion {
            op,
            mem: from,
            resp,
        })
    }

    /// Whether an operation is currently in flight to `mem`.
    pub fn is_busy(&self, mem: ActorId) -> bool {
        self.busy.iter().any(|&(m, _)| m == mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryActor;
    use crate::perm::LegalChange;
    use crate::region::RegionSpec;
    use simnet::{Actor, EventKind, Simulation, Time};

    #[derive(Clone, Debug, PartialEq, Eq)]
    enum TMsg {
        Mem(MemWire<u64>),
    }
    impl MemEmbed<u64> for TMsg {
        fn from_wire(wire: MemWire<u64>) -> Self {
            TMsg::Mem(wire)
        }
        fn into_wire(self) -> Result<MemWire<u64>, Self> {
            let TMsg::Mem(w) = self;
            Ok(w)
        }
    }

    const REGION: RegionId = RegionId(0);

    /// Issues `count` writes to one memory at Start, all at once; records
    /// completion times to verify FIFO serialization.
    struct Burst {
        mem: ActorId,
        count: u64,
        client: MemoryClient<u64, TMsg>,
        completions: Vec<(OpId, Time)>,
    }
    impl Actor<TMsg> for Burst {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    for i in 0..self.count {
                        self.client
                            .write(ctx, self.mem, REGION, RegId::one(1, i), i);
                    }
                }
                EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } => {
                    if let Some(c) = self.client.on_wire(ctx, from, wire) {
                        self.completions.push((c.op, ctx.now()));
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn serializes_ops_to_one_memory() {
        let mut sim: Simulation<TMsg> = Simulation::new(1);
        let mem = sim.add(
            MemoryActor::<u64, TMsg>::new(LegalChange::Static).with_region(
                REGION,
                RegionSpec::space(1),
                Permission::open(),
            ),
        );
        let b = sim.add(Burst {
            mem,
            count: 3,
            client: MemoryClient::new(),
            completions: vec![],
        });
        sim.run_to_quiescence(Time::from_delays(100));
        let burst = sim.actor_as::<Burst>(b).unwrap();
        // Each op is a 2-delay round trip and they must not overlap.
        let times: Vec<_> = burst.completions.iter().map(|(_, t)| *t).collect();
        assert_eq!(
            times,
            vec![
                Time::from_delays(2),
                Time::from_delays(4),
                Time::from_delays(6)
            ]
        );
        // FIFO order.
        let ops: Vec<_> = burst.completions.iter().map(|(op, _)| op.0).collect();
        assert_eq!(ops, vec![1, 2, 3]);
        assert_eq!(sim.metrics().mem_writes, 3);
    }

    /// Issues one write to each of several memories at Start.
    struct FanOut {
        mems: Vec<ActorId>,
        client: MemoryClient<u64, TMsg>,
        completions: Vec<(ActorId, Time)>,
    }
    impl Actor<TMsg> for FanOut {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    for mem in self.mems.clone() {
                        self.client.write(ctx, mem, REGION, RegId::one(1, 0), 9);
                    }
                }
                EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } => {
                    if let Some(c) = self.client.on_wire(ctx, from, wire) {
                        self.completions.push((c.mem, ctx.now()));
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn parallel_across_memories() {
        let mut sim: Simulation<TMsg> = Simulation::new(1);
        let mems: Vec<_> = (0..3)
            .map(|_| {
                sim.add(
                    MemoryActor::<u64, TMsg>::new(LegalChange::Static).with_region(
                        REGION,
                        RegionSpec::space(1),
                        Permission::open(),
                    ),
                )
            })
            .collect();
        let f = sim.add(FanOut {
            mems,
            client: MemoryClient::new(),
            completions: vec![],
        });
        sim.run_to_quiescence(Time::from_delays(100));
        let fan = sim.actor_as::<FanOut>(f).unwrap();
        // All three complete at 2 delays: parallel round trips.
        assert_eq!(fan.completions.len(), 3);
        for (_, t) in &fan.completions {
            assert_eq!(*t, Time::from_delays(2));
        }
    }

    #[test]
    fn stale_response_ignored() {
        // Drive on_wire directly with a response for an op we never sent.
        let mut sim: Simulation<TMsg> = Simulation::new(1);
        struct Probe {
            client: MemoryClient<u64, TMsg>,
            got: Vec<OpId>,
        }
        impl Actor<TMsg> for Probe {
            fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
                if let EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } = ev
                {
                    if let Some(c) = self.client.on_wire(ctx, from, wire) {
                        self.got.push(c.op);
                    }
                }
            }
        }
        let p = sim.add(Probe {
            client: MemoryClient::new(),
            got: vec![],
        });
        sim.schedule(
            Time::ZERO,
            p,
            EventKind::Msg {
                from: simnet::ActorId(42),
                msg: TMsg::Mem(MemWire::Resp {
                    op: OpId(7),
                    resp: MemResponse::Ack,
                }),
            },
        );
        sim.run_to_quiescence(Time::from_delays(10));
        assert!(sim.actor_as::<Probe>(p).unwrap().got.is_empty());
    }
}
