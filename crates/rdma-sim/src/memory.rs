//! The memory actor: a simulated RDMA-capable memory node.
//!
//! The memory is a **trusted** component: it enforces region permissions and
//! the `legalChange` policy on every operation, so a Byzantine process
//! "cannot operate on memories without the required permission" (§3). Its
//! failure mode is a crash (scheduled by the harness through
//! [`Simulation::crash_at`]), after which operations hang — never wrong
//! answers.
//!
//! [`Simulation::crash_at`]: simnet::Simulation::crash_at

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::marker::PhantomData;

use simnet::{Actor, ActorId, Context, EventKind};

use crate::perm::{LegalChange, Permission};
use crate::reg::RegId;
use crate::region::{RegionId, RegionSpec, Window};
use crate::wire::{MemEmbed, MemRequest, MemResponse, MemWire};

/// A simulated memory with registers, regions and permissions.
///
/// Type parameters: `V` is the register value type; `M` the simulation
/// message type embedding [`MemWire<V>`].
pub struct MemoryActor<V, M> {
    regions: BTreeMap<RegionId, (RegionSpec, Permission)>,
    /// Hash-indexed register store: writes are the per-log-entry hot path,
    /// so O(1) insert beats ordered storage (an ordered store costs the
    /// crash path a node allocation every few writes; ARCHITECTURE.md has
    /// the numbers). Un-windowed range reads (takeover scans, the
    /// single-shot protocols' instance scans) filter the whole map, clone
    /// each matching row once and sort, so responses come back in `RegId`
    /// order.
    registers: HashMap<RegId, V>,
    /// Ordered index of the written keys, serving *windowed* range reads
    /// (`within` pins a `b` window) in O(matches · log n) instead of a
    /// full-table scan. Absent until this memory answers its first
    /// windowed read, which builds it from `registers`; every write after
    /// that keeps it current. A memory that is never asked (the crash
    /// path) never pays for it.
    index: Option<BTreeSet<RegId>>,
    legal: LegalChange,
    _msg: PhantomData<M>,
}

impl<V, M> fmt::Debug for MemoryActor<V, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryActor")
            .field("regions", &self.regions.len())
            .field("registers", &self.registers.len())
            .field("legal", &self.legal)
            .finish()
    }
}

impl<V, M> MemoryActor<V, M>
where
    V: Clone + fmt::Debug + 'static,
    M: MemEmbed<V>,
{
    /// Creates a memory with no regions and the given permission-change
    /// policy.
    pub fn new(legal: LegalChange) -> MemoryActor<V, M> {
        MemoryActor {
            regions: BTreeMap::new(),
            registers: HashMap::new(),
            index: None,
            legal,
            _msg: PhantomData,
        }
    }

    /// Declares a region. Regions are fixed at setup; only their permissions
    /// change at run time (through `changePermission`).
    pub fn add_region(&mut self, id: RegionId, spec: RegionSpec, perm: Permission) -> &mut Self {
        let prev = self.regions.insert(id, (spec, perm));
        assert!(prev.is_none(), "region {id:?} declared twice");
        self
    }

    /// Builder-style variant of [`MemoryActor::add_region`].
    pub fn with_region(mut self, id: RegionId, spec: RegionSpec, perm: Permission) -> Self {
        self.add_region(id, spec, perm);
        self
    }

    /// Current permission of a region (for tests and assertions).
    pub fn permission(&self, id: RegionId) -> Option<&Permission> {
        self.regions.get(&id).map(|(_, p)| p)
    }

    /// Direct register inspection (for tests and assertions).
    pub fn register(&self, reg: RegId) -> Option<&V> {
        self.registers.get(&reg)
    }

    fn handle(&mut self, from: ActorId, req: MemRequest<V>) -> MemResponse<V> {
        match req {
            MemRequest::Read { region, reg } => match self.regions.get(&region) {
                Some((spec, perm)) if spec.contains(reg) && perm.allows_read(from) => {
                    MemResponse::Value(self.registers.get(&reg).cloned())
                }
                _ => MemResponse::Nak,
            },
            MemRequest::Write { region, reg, value } => match self.regions.get(&region) {
                Some((spec, perm)) if spec.contains(reg) && perm.allows_write(from) => {
                    if let Some(index) = &mut self.index {
                        index.insert(reg);
                    }
                    self.registers.insert(reg, value);
                    MemResponse::Ack
                }
                _ => MemResponse::Nak,
            },
            MemRequest::WriteMany { region, writes } => match self.regions.get(&region) {
                Some((spec, perm))
                    if perm.allows_write(from) && writes.iter().all(|(r, _)| spec.contains(*r)) =>
                {
                    // The index is brought up to date before the insert
                    // loop, not inside it: a branch in that loop costs the
                    // crash path's batched writes ~15 % of a whole run.
                    if let Some(index) = &mut self.index {
                        index.extend(writes.iter().map(|(reg, _)| *reg));
                    }
                    for (reg, value) in writes {
                        self.registers.insert(reg, value);
                    }
                    MemResponse::Ack
                }
                _ => MemResponse::Nak,
            },
            MemRequest::ReadRange { region, within } => match self.regions.get(&region) {
                Some((spec, perm)) if perm.allows_read(from) => {
                    let hit = |r: RegId| spec.contains(r) && within.is_none_or(|w| w.contains(r));
                    let rows = match within {
                        Some(RegionSpec::Pattern {
                            space,
                            a,
                            b: Some(window),
                            ..
                        }) => {
                            let registers = &self.registers;
                            let index = self
                                .index
                                .get_or_insert_with(|| registers.keys().copied().collect());
                            // Index order is `RegId` order: no sort.
                            let mut rows = Vec::new();
                            scan_window(index, space, a, window, |r| {
                                if hit(r) {
                                    rows.push((r, registers[&r].clone()));
                                }
                            });
                            rows
                        }
                        _ => {
                            let mut rows: Vec<(RegId, V)> = (self.registers.iter())
                                .filter(|(r, _)| hit(**r))
                                .map(|(r, v)| (*r, v.clone()))
                                .collect();
                            rows.sort_unstable_by_key(|(r, _)| *r);
                            rows
                        }
                    };
                    MemResponse::Range(rows)
                }
                _ => MemResponse::Nak,
            },
            MemRequest::ChangePerm { region, new } => match self.regions.get_mut(&region) {
                Some((_, perm)) => {
                    if self.legal.allows(from, region, perm, &new) {
                        *perm = new;
                        MemResponse::PermAck
                    } else {
                        MemResponse::PermNak
                    }
                }
                None => MemResponse::PermNak,
            },
        }
    }
}

/// Visits the keys of `index` in `space` whose `b` lies in `window` and
/// whose `a` is the given one (every `a` when `None`), in `RegId` order —
/// a skip-scan: one seek per distinct `a`, then a walk over that row's
/// window, so the cost is O((rows + matches) · log n) however many
/// registers lie outside the window.
fn scan_window(
    index: &BTreeSet<RegId>,
    space: u16,
    a: Option<u64>,
    window: Window,
    mut visit: impl FnMut(RegId),
) {
    let mut row = a.unwrap_or(0);
    loop {
        // Where the walk leaves this row decides the next seek.
        let mut next_row = None;
        for &r in index.range(RegId::new(space, row, window.start(), 0)..) {
            if r.space != space {
                break;
            }
            if r.a != row {
                next_row = Some(r.a);
                break;
            }
            if !window.contains(r.b) {
                next_row = row.checked_add(1);
                break;
            }
            visit(r);
        }
        match next_row {
            Some(next) if a.is_none() => row = next,
            _ => return,
        }
    }
}

impl<V, M> Actor<M> for MemoryActor<V, M>
where
    V: Clone + fmt::Debug + 'static,
    M: MemEmbed<V>,
{
    fn on_event(&mut self, ctx: &mut Context<'_, M>, ev: EventKind<M>) {
        let EventKind::Msg { from, msg } = ev else {
            return;
        };
        let Ok(MemWire::Req { op, req }) = msg.into_wire() else {
            return;
        };
        let resp = self.handle(from, req);
        if let MemResponse::Range(rows) = &resp {
            ctx.metrics().mem_range_rows += rows.len() as u64;
        }
        let class = resp.cost_class();
        ctx.send_classed(from, M::from_wire(MemWire::Resp { op, resp }), class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::PermSet;
    use crate::wire::OpId;
    use simnet::{Simulation, Time};

    /// Minimal message type for exercising the memory actor directly.
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

    /// Driver that fires a scripted list of requests at one memory and
    /// collects responses.
    struct Driver {
        mem: ActorId,
        script: Vec<MemRequest<u64>>,
        responses: Vec<(OpId, MemResponse<u64>)>,
    }
    impl Actor<TMsg> for Driver {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    for (i, req) in self.script.drain(..).enumerate() {
                        ctx.send(
                            self.mem,
                            TMsg::Mem(MemWire::Req {
                                op: OpId(i as u64),
                                req,
                            }),
                        );
                    }
                }
                EventKind::Msg {
                    msg: TMsg::Mem(MemWire::Resp { op, resp }),
                    ..
                } => {
                    self.responses.push((op, resp));
                }
                _ => {}
            }
        }
    }

    const REGION: RegionId = RegionId(0);
    const LOCKED: RegionId = RegionId(1);

    fn run_script(
        legal: LegalChange,
        perm: Permission,
        script: Vec<MemRequest<u64>>,
    ) -> Vec<(OpId, MemResponse<u64>)> {
        let mut sim: Simulation<TMsg> = Simulation::new(3);
        let mem = MemoryActor::<u64, TMsg>::new(legal)
            .with_region(REGION, RegionSpec::Space(1), perm)
            .with_region(LOCKED, RegionSpec::Space(2), Permission::read_only());
        let mem_id = sim.add(mem);
        let drv = sim.add(Driver {
            mem: mem_id,
            script,
            responses: Vec::new(),
        });
        sim.run_to_quiescence(Time::from_delays(100));
        let mut out = sim.actor_as::<Driver>(drv).unwrap().responses.clone();
        out.sort_by_key(|(op, _)| *op);
        out
    }

    #[test]
    fn write_then_read_round_trip() {
        let out = run_script(
            LegalChange::Static,
            Permission::open(),
            vec![
                MemRequest::Write {
                    region: REGION,
                    reg: RegId::one(1, 0),
                    value: 42,
                },
                MemRequest::Read {
                    region: REGION,
                    reg: RegId::one(1, 0),
                },
                MemRequest::Read {
                    region: REGION,
                    reg: RegId::one(1, 1),
                },
            ],
        );
        assert_eq!(out[0].1, MemResponse::Ack);
        assert_eq!(out[1].1, MemResponse::Value(Some(42)));
        // Unwritten register reads as ⊥.
        assert_eq!(out[2].1, MemResponse::Value(None));
    }

    #[test]
    fn write_without_permission_naks() {
        // Region writable only by actor 5; the driver is actor 1.
        let perm = Permission {
            read: PermSet::Everybody,
            write: PermSet::Nobody,
            rw: PermSet::only([ActorId(5)]),
        };
        let out = run_script(
            LegalChange::Static,
            perm,
            vec![
                MemRequest::Write {
                    region: REGION,
                    reg: RegId::one(1, 0),
                    value: 1,
                },
                MemRequest::Read {
                    region: REGION,
                    reg: RegId::one(1, 0),
                },
            ],
        );
        assert_eq!(out[0].1, MemResponse::Nak);
        // The write did not take effect.
        assert_eq!(out[1].1, MemResponse::Value(None));
    }

    #[test]
    fn register_outside_region_naks() {
        let out = run_script(
            LegalChange::Static,
            Permission::open(),
            vec![
                // Register in space 2 accessed through the space-1 region.
                MemRequest::Write {
                    region: REGION,
                    reg: RegId::one(2, 0),
                    value: 1,
                },
                MemRequest::Read {
                    region: REGION,
                    reg: RegId::one(2, 0),
                },
            ],
        );
        assert_eq!(out[0].1, MemResponse::Nak);
        assert_eq!(out[1].1, MemResponse::Nak);
    }

    #[test]
    fn unknown_region_naks() {
        let out = run_script(
            LegalChange::Static,
            Permission::open(),
            vec![MemRequest::Read {
                region: RegionId(99),
                reg: RegId::one(1, 0),
            }],
        );
        assert_eq!(out[0].1, MemResponse::Nak);
    }

    #[test]
    fn write_many_is_atomic_and_permission_checked() {
        let out = run_script(
            LegalChange::Static,
            Permission::open(),
            vec![
                MemRequest::WriteMany {
                    region: REGION,
                    writes: vec![(RegId::one(1, 0), 1), (RegId::one(1, 1), 2)],
                },
                MemRequest::Read {
                    region: REGION,
                    reg: RegId::one(1, 1),
                },
                // One register outside the region: nothing is applied.
                MemRequest::WriteMany {
                    region: REGION,
                    writes: vec![(RegId::one(1, 2), 3), (RegId::one(2, 0), 4)],
                },
                MemRequest::Read {
                    region: REGION,
                    reg: RegId::one(1, 2),
                },
            ],
        );
        assert_eq!(out[0].1, MemResponse::Ack);
        assert_eq!(out[1].1, MemResponse::Value(Some(2)));
        assert_eq!(out[2].1, MemResponse::Nak);
        assert_eq!(out[3].1, MemResponse::Value(None));
    }

    #[test]
    fn range_read_returns_written_registers() {
        let out = run_script(
            LegalChange::Static,
            Permission::open(),
            vec![
                MemRequest::Write {
                    region: REGION,
                    reg: RegId::one(1, 3),
                    value: 30,
                },
                MemRequest::Write {
                    region: REGION,
                    reg: RegId::one(1, 1),
                    value: 10,
                },
                MemRequest::ReadRange {
                    region: REGION,
                    within: None,
                },
            ],
        );
        let MemResponse::Range(rows) = &out[2].1 else {
            panic!("expected range")
        };
        assert_eq!(rows, &vec![(RegId::one(1, 1), 10), (RegId::one(1, 3), 30)]);
    }

    #[test]
    fn static_permissions_reject_changes() {
        let out = run_script(
            LegalChange::Static,
            Permission::open(),
            vec![
                MemRequest::ChangePerm {
                    region: REGION,
                    new: Permission::read_only(),
                },
                MemRequest::Write {
                    region: REGION,
                    reg: RegId::one(1, 0),
                    value: 7,
                },
            ],
        );
        assert_eq!(out[0].1, MemResponse::PermNak);
        // Change was a no-op; write still allowed.
        assert_eq!(out[1].1, MemResponse::Ack);
    }

    #[test]
    fn any_change_applies_and_takes_effect() {
        let out = run_script(
            LegalChange::AnyChange,
            Permission::open(),
            vec![
                MemRequest::ChangePerm {
                    region: REGION,
                    new: Permission::read_only(),
                },
                MemRequest::Write {
                    region: REGION,
                    reg: RegId::one(1, 0),
                    value: 7,
                },
                MemRequest::Read {
                    region: REGION,
                    reg: RegId::one(1, 0),
                },
            ],
        );
        assert_eq!(out[0].1, MemResponse::PermAck);
        // Own write permission revoked by the change.
        assert_eq!(out[1].1, MemResponse::Nak);
        assert_eq!(out[2].1, MemResponse::Value(None));
    }

    #[test]
    fn crashed_memory_hangs() {
        let mut sim: Simulation<TMsg> = Simulation::new(3);
        let mem = MemoryActor::<u64, TMsg>::new(LegalChange::Static).with_region(
            REGION,
            RegionSpec::Space(1),
            Permission::open(),
        );
        let mem_id = sim.add(mem);
        let drv = sim.add(Driver {
            mem: mem_id,
            script: vec![MemRequest::Read {
                region: REGION,
                reg: RegId::one(1, 0),
            }],
            responses: Vec::new(),
        });
        sim.crash_at(mem_id, Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(100));
        assert!(sim.actor_as::<Driver>(drv).unwrap().responses.is_empty());
    }
}
