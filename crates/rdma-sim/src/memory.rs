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

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

use simnet::{Actor, ActorId, Context, EventKind};

use crate::page_list::PageList;
use crate::perm::{LegalChange, Permission};
use crate::reg::RegId;
use crate::region::{RegionId, RegionSpec, Window};
use crate::wire::{MemEmbed, MemRequest, MemResponse, MemWire, WireSize};

/// Rows per page of a log-shaped register space
/// ([`MemoryActor::with_log_space`]).
///
/// A constant, never derived from a coordinate: one write allocates at
/// most one page whether its `a` is 7 or `u64::MAX`. Sized by the exact
/// allocation counts of the repository benchmark — a page is one
/// allocation, so 4 096 rows keep the pages of a 200 000-entry log under
/// 0.2 % of the run's allocations (64-row pages would add 12 %).
pub const LOG_PAGE_ROWS: usize = 4096;

/// Rows per page of every other register space: consecutive `b` of one
/// `(space, a, c)` column, such as one row's copies of one broadcaster's
/// slots (`slots[p, k, q]` for 32 consecutive `k`).
///
/// A constant, never derived from a coordinate: one write allocates at
/// most one page (2 kB of 64-byte register values) whether its `b` is 7,
/// a receipt's `1 << 63 | 7` or `u64::MAX`, so a writer that picks its
/// own coordinates — a Byzantine broadcaster in its row — costs a memory
/// no more per write than an honest one.
pub const SPARSE_PAGE_ROWS: usize = 32;

/// Consecutive rows of one column. Allocated once at its page size and
/// never regrown; its length is the highest row written plus one, so a
/// short column neither initialises nor scans the rest of its page.
struct Rows<V>(Vec<Option<V>>);

impl<V> Rows<V> {
    fn new(page_rows: usize) -> Rows<V> {
        Rows(Vec::with_capacity(page_rows))
    }

    fn get(&self, off: usize) -> Option<&V> {
        self.0.get(off)?.as_ref()
    }

    fn put(&mut self, off: usize, value: V) {
        if off >= self.0.len() {
            self.0.resize_with(off + 1, || None);
        }
        self.0[off] = Some(value);
    }

    /// The written rows, in order, each with its offset in the page.
    fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let rows = self.0.iter().enumerate();
        rows.filter_map(|(off, v)| Some((off as u64, v.as_ref()?)))
    }
}

/// The first register of `reg`'s page, and `reg`'s row in that page.
fn page_of(reg: RegId) -> (RegId, usize) {
    let off = reg.a % LOG_PAGE_ROWS as u64;
    let a = reg.a - off;
    (RegId { a, ..reg }, off as usize)
}

/// The paged store of the log-shaped register space.
struct PagedLog<V> {
    /// The space declared a log: one at most, until a second layout is
    /// one.
    space: Option<u16>,
    /// `LOG_PAGE_ROWS` consecutive `a` of one `(b, c)` column each, keyed
    /// by the register of row 0. Pages of one column never overlap, so
    /// `RegId` order on that key is page order; the page written last is
    /// where a leader filling one instance after the other writes next.
    pages: PageList<RegId, Rows<V>>,
}

impl<V> PagedLog<V> {
    fn holds(&self, space: u16) -> bool {
        self.space == Some(space)
    }

    fn get(&self, reg: RegId) -> Option<&V> {
        let (first, off) = page_of(reg);
        self.pages.get(first)?.get(off)
    }

    fn insert(&mut self, reg: RegId, value: V) {
        let (first, off) = page_of(reg);
        let page = self
            .pages
            .get_or_insert_with(first, || Rows::new(LOG_PAGE_ROWS));
        page.put(off, value);
    }

    /// The written registers, a page at a time.
    fn iter(&self) -> impl Iterator<Item = (RegId, &V)> {
        self.pages.iter().flat_map(|(first, rows)| {
            (rows.iter()).map(move |(off, v)| {
                (
                    RegId {
                        a: first.a + off,
                        ..first
                    },
                    v,
                )
            })
        })
    }
}

/// Where a sparse register's page lies: `(space, a, c, b / SPARSE_PAGE_ROWS)`.
/// In this order a column's pages are adjacent and in `b` order, so with
/// `c` fixed, key order is `RegId` order.
type SparseKey = (u16, u64, u64, u64);

/// The key of `reg`'s sparse page, and `reg`'s row in that page.
fn sparse_page_of(reg: RegId) -> (SparseKey, usize) {
    let page_rows = SPARSE_PAGE_ROWS as u64;
    let key = (reg.space, reg.a, reg.c, reg.b / page_rows);
    (key, (reg.b % page_rows) as usize)
}

/// The register a sparse page's row `off` stands for.
fn sparse_reg((space, a, c, page): SparseKey, off: u64) -> RegId {
    RegId::new(space, a, page * SPARSE_PAGE_ROWS as u64 + off, c)
}

/// The registers of a memory. Which of the two stores holds a register is
/// a function of its space alone; [`Store::get`] is the one lookup and
/// [`Store::insert`] the one store every operation goes through. Both
/// stores are pages of one constant size each, kept in order, so neither
/// needs an index beside it. ARCHITECTURE.md, "Which register space lives
/// where", has the sizes and the measurements.
struct Store<V> {
    /// Every space not declared a log: pages of [`SPARSE_PAGE_ROWS`]
    /// consecutive `b` (a broadcast slot's `b` is its sequence number, a
    /// receipt's carries bit 63) of one `(space, a, c)` column, in one
    /// ordered map that a windowed range read walks ([`scan_window`]).
    sparse: BTreeMap<SparseKey, Rows<V>>,
    /// The space declared a log ([`MemoryActor::with_log_space`]): an
    /// in-order slot write is an indexed store into the page written
    /// last — no hash, no rehash, no copy-on-grow.
    log: PagedLog<V>,
}

impl<V> Store<V> {
    fn get(&self, reg: RegId) -> Option<&V> {
        if self.log.holds(reg.space) {
            self.log.get(reg)
        } else {
            let (key, off) = sparse_page_of(reg);
            self.sparse.get(&key)?.get(off)
        }
    }

    fn insert(&mut self, reg: RegId, value: V) {
        if self.log.holds(reg.space) {
            self.log.insert(reg, value);
        } else {
            let (key, off) = sparse_page_of(reg);
            let page = self.sparse.entry(key);
            page.or_insert_with(|| Rows::new(SPARSE_PAGE_ROWS))
                .put(off, value);
        }
    }

    /// The written registers of both stores, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (RegId, &V)> {
        let sparse = (self.sparse.iter())
            .flat_map(|(&key, rows)| rows.iter().map(move |(off, v)| (sparse_reg(key, off), v)));
        sparse.chain(self.log.iter())
    }
}

/// A simulated memory with registers, regions and permissions.
///
/// Every write is one `Store::insert` per register and keeps nothing
/// else current: a *windowed* range read (`within` pins a `b` window and
/// a `c` of a space that is not a log) walks the sparse store's pages
/// itself, and every other range read filters both stores and sorts.
///
/// Type parameters: `V` is the register value type; `M` the simulation
/// message type embedding [`MemWire<V>`].
pub struct MemoryActor<V, M> {
    regions: BTreeMap<RegionId, (RegionSpec, Permission)>,
    store: Store<V>,
    legal: LegalChange,
    /// A windowed range read's rows, gathered before its response is
    /// allocated; empty between operations.
    hits: Vec<(RegId, V)>,
    _msg: PhantomData<M>,
}

impl<V, M> fmt::Debug for MemoryActor<V, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryActor")
            .field("regions", &self.regions.len())
            .field("registers", &self.store.iter().count())
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
            store: Store {
                sparse: BTreeMap::new(),
                log: PagedLog {
                    space: None,
                    pages: PageList::default(),
                },
            },
            legal,
            hits: Vec::new(),
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

    /// Declares `space` a log along `a`: an array of slots filled one `a`
    /// after the other by few writers (Algorithm 7's `slot[instance, p]`).
    /// Its registers are kept in pages of [`LOG_PAGE_ROWS`] consecutive
    /// `a` per `(b, c)` column instead of the sparse store's short pages
    /// along `b`, which changes what a write costs and nothing any
    /// operation answers. Declared where the space's layout is defined, by
    /// someone who knows its writers: a write far from every other still
    /// costs a whole page (and never more), so a space whose dense
    /// coordinate an adversary picks stays undeclared. A memory has at most
    /// one.
    pub fn with_log_space(mut self, space: u16) -> Self {
        let prev = self.store.log.space.replace(space);
        assert!(prev.is_none(), "a memory has one log space");
        self
    }

    /// Current permission of a region (for tests and assertions).
    pub fn permission(&self, id: RegionId) -> Option<&Permission> {
        self.regions.get(&id).map(|(_, p)| p)
    }

    /// Direct register inspection (for tests and assertions).
    pub fn register(&self, reg: RegId) -> Option<&V> {
        self.store.get(reg)
    }

    fn handle(&mut self, from: ActorId, req: MemRequest<V>) -> MemResponse<V> {
        match req {
            MemRequest::Read { region, reg } => match self.regions.get(&region) {
                Some((spec, perm)) if spec.contains(reg) && perm.allows_read(from) => {
                    MemResponse::Value(self.register(reg).cloned())
                }
                _ => MemResponse::Nak,
            },
            MemRequest::Write { region, reg, value } => match self.regions.get(&region) {
                Some((spec, perm)) if spec.contains(reg) && perm.allows_write(from) => {
                    self.store.insert(reg, value);
                    MemResponse::Ack
                }
                _ => MemResponse::Nak,
            },
            MemRequest::WriteMany { region, writes } => match self.regions.get(&region) {
                Some((spec, perm))
                    if perm.allows_write(from) && writes.iter().all(|(r, _)| spec.contains(*r)) =>
                {
                    for (reg, value) in writes.iter() {
                        self.store.insert(*reg, value.clone());
                    }
                    MemResponse::Ack
                }
                _ => MemResponse::Nak,
            },
            MemRequest::ReadRange { region, within } => match self.regions.get(&region) {
                Some((spec, perm)) if perm.allows_read(from) => {
                    let hit = |r: RegId| spec.contains(r) && within.is_none_or(|w| w.contains(r));
                    let store = &self.store;
                    let rows = match within {
                        Some(RegionSpec::Pattern {
                            space,
                            a,
                            b: Some(window),
                            c: Some(c),
                        }) if !store.log.holds(space) => {
                            // Page order is `RegId` order: no sort. The hits
                            // gather in the reused buffer, so the response
                            // is allocated once, at its final length.
                            let hits = &mut self.hits;
                            scan_window(&store.sparse, (space, a, c), window, |r, v| {
                                if hit(r) {
                                    hits.push((r, v.clone()));
                                }
                            });
                            let mut rows = Vec::with_capacity(hits.len());
                            rows.append(hits);
                            rows
                        }
                        _ => {
                            let hits = store.iter().filter(|(r, _)| hit(*r));
                            let mut rows: Vec<_> = hits.map(|(r, v)| (r, v.clone())).collect();
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

/// Visits the registers of `sparse` in column `(space, a, c)` whose `b`
/// lies in `window` (every `a` when `a` is `None`), in `RegId` order, each
/// with its value. A column's pages are adjacent in the map and in `b`
/// order, so each row costs one seek, then a walk over the pages the
/// window touches that steps over the first page's rows below the window
/// and stops at the first row past it: no register is looked up.
fn scan_window<V>(
    sparse: &BTreeMap<SparseKey, Rows<V>>,
    (space, a, c): (u16, Option<u64>, u64),
    window: Window,
    mut visit: impl FnMut(RegId, &V),
) {
    let first_page = window.start() / SPARSE_PAGE_ROWS as u64;
    let mut row = a.unwrap_or(0);
    loop {
        // Where the walk leaves this row decides the next seek.
        let mut next_row = None;
        'pages: for (&key, rows) in sparse.range((space, row, c, first_page)..) {
            let (s, pa, pc, _) = key;
            if s != space {
                break;
            }
            if pa != row {
                next_row = Some(pa);
                break;
            }
            if pc != c {
                next_row = row.checked_add(1);
                break;
            }
            for (off, v) in rows.iter() {
                let r = sparse_reg(key, off);
                if r.b < window.start() {
                    continue;
                }
                if !window.contains(r.b) {
                    next_row = row.checked_add(1);
                    break 'pages;
                }
                visit(r, v);
            }
        }
        match next_row {
            Some(next) if a.is_none() => row = next,
            _ => return,
        }
    }
}

impl<V, M> Actor<M> for MemoryActor<V, M>
where
    V: Clone + fmt::Debug + WireSize + 'static,
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
                    writes: [(RegId::one(1, 0), 1), (RegId::one(1, 1), 2)].into(),
                },
                MemRequest::Read {
                    region: REGION,
                    reg: RegId::one(1, 1),
                },
                // One register outside the region: nothing is applied.
                MemRequest::WriteMany {
                    region: REGION,
                    writes: [(RegId::one(1, 2), 3), (RegId::one(2, 0), 4)].into(),
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

    /// A log space's pages are sized by a constant, not by the coordinate
    /// written: the far end of the coordinate space costs one page.
    #[test]
    fn a_log_space_write_allocates_at_most_one_page_wherever_it_lands() {
        let mut mem = MemoryActor::<u64, TMsg>::new(LegalChange::Static)
            .with_log_space(1)
            .with_region(REGION, RegionSpec::All, Permission::open());
        let me = ActorId(1);
        let far = [RegId::one(1, 1 << 40), RegId::one(1, u64::MAX)];
        for (pages, reg) in far.into_iter().enumerate() {
            let (region, value) = (REGION, reg.a);
            let resp = mem.handle(me, MemRequest::Write { region, reg, value });
            assert_eq!(resp, MemResponse::Ack);
            let log = &mem.store.log.pages;
            assert_eq!(log.iter().count(), pages + 1);
            assert!(log
                .iter()
                .all(|(_, rows)| rows.0.capacity() == LOG_PAGE_ROWS));
            let resp = mem.handle(me, MemRequest::Read { region, reg });
            assert_eq!(resp, MemResponse::Value(Some(value)));
        }
        // A sparse register beside them: `Debug` counts both stores.
        let (region, reg) = (REGION, RegId::one(2, 0));
        mem.handle(
            me,
            MemRequest::Write {
                region,
                reg,
                value: 9,
            },
        );
        assert!(mem.store.sparse.len() == 1 && mem.store.log.pages.iter().count() == 2);
        assert!(format!("{mem:?}").contains("registers: 3"), "{mem:?}");
    }

    /// A sparse space's pages are sized by a constant too: a write at the
    /// first `b`, in the receipt plane or at the last `b` of the space
    /// costs one page of `SPARSE_PAGE_ROWS` rows, never one sized by `b`.
    #[test]
    fn a_sparse_write_allocates_at_most_one_page_wherever_it_lands() {
        let mut mem = MemoryActor::<u64, TMsg>::new(LegalChange::Static).with_region(
            REGION,
            RegionSpec::All,
            Permission::open(),
        );
        let me = ActorId(1);
        let far = [7, 1 << 63 | 7, u64::MAX].map(|b| RegId::new(2, 3, b, 4));
        for (pages, reg) in far.into_iter().enumerate() {
            let (region, value) = (REGION, reg.b);
            let resp = mem.handle(me, MemRequest::Write { region, reg, value });
            assert_eq!(resp, MemResponse::Ack);
            let sparse = &mem.store.sparse;
            assert_eq!(sparse.len(), pages + 1);
            let page = &sparse[&sparse_page_of(reg).0];
            assert_eq!(page.0.capacity(), SPARSE_PAGE_ROWS);
            assert!(page.0.len() <= SPARSE_PAGE_ROWS);
            let resp = mem.handle(me, MemRequest::Read { region, reg });
            assert_eq!(resp, MemResponse::Value(Some(value)));
        }
        // A windowed read walks the pages in `b` order; `[0, u64::MAX)`
        // ends one short of the last `b`.
        let within = Some(RegionSpec::Pattern {
            space: 2,
            a: None,
            b: Some(Window::span(0, u64::MAX)),
            c: Some(4),
        });
        let resp = mem.handle(
            me,
            MemRequest::ReadRange {
                region: REGION,
                within,
            },
        );
        let rows: Vec<_> = far[..2].iter().map(|r| (*r, r.b)).collect();
        assert_eq!(resp, MemResponse::Range(rows));
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
