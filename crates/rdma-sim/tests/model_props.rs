//! Property tests of the memory model: permission algebra, region
//! membership, and the data-path invariant that unauthorized operations
//! never change state.

use proptest::prelude::*;
use rdma_sim::{PermSet, Permission, RegId, RegionSpec, Window};
use simnet::ActorId;

fn arb_pid() -> impl Strategy<Value = ActorId> {
    (0u32..8).prop_map(ActorId)
}

fn arb_permset() -> impl Strategy<Value = PermSet> {
    prop_oneof![
        Just(PermSet::Nobody),
        Just(PermSet::Everybody),
        proptest::collection::btree_set(arb_pid(), 0..4).prop_map(PermSet::Only),
        proptest::collection::btree_set(arb_pid(), 0..4).prop_map(PermSet::AllBut),
    ]
}

fn arb_reg() -> impl Strategy<Value = RegId> {
    (0u16..4, 0u64..4, 0u64..4, 0u64..4).prop_map(|(s, a, b, c)| RegId::new(s, a, b, c))
}

proptest! {
    /// AllBut is the complement of Only over any probe set.
    #[test]
    fn permset_complement(ids in proptest::collection::btree_set(arb_pid(), 0..4), p in arb_pid()) {
        let only = PermSet::Only(ids.clone());
        let allbut = PermSet::AllBut(ids);
        prop_assert_eq!(only.contains(p), !allbut.contains(p));
    }

    /// exclusive_writer: the writer can read and write; everyone else can
    /// only read — for every probe identity.
    #[test]
    fn exclusive_writer_law(w in arb_pid(), p in arb_pid()) {
        let perm = Permission::exclusive_writer(w);
        prop_assert!(perm.allows_read(p));
        prop_assert_eq!(perm.allows_write(p), p == w);
    }

    /// An arbitrary read set governs reads exactly; with no write or rw
    /// grants, writes are always denied.
    #[test]
    fn arbitrary_read_set_governs_reads(ps in arb_permset(), p in arb_pid()) {
        let perm = Permission { read: ps.clone(), write: PermSet::Nobody, rw: PermSet::Nobody };
        prop_assert_eq!(perm.allows_read(p), ps.contains(p));
        prop_assert!(!perm.allows_write(p));
    }

    /// read_only and open are constant functions of the probe.
    #[test]
    fn constant_permissions(p in arb_pid()) {
        let ro = Permission::read_only();
        prop_assert!(ro.allows_read(p) && !ro.allows_write(p));
        let open = Permission::open();
        prop_assert!(open.allows_read(p) && open.allows_write(p));
    }

    /// Region membership laws: All ⊇ Space ⊇ row ⊇ Exact, for matching
    /// registers.
    #[test]
    fn region_containment_chain(reg in arb_reg()) {
        prop_assert!(RegionSpec::All.contains(reg));
        prop_assert!(RegionSpec::Space(reg.space).contains(reg));
        prop_assert!(RegionSpec::row(reg.space, reg.a).contains(reg));
        prop_assert!(RegionSpec::Exact(reg).contains(reg));
    }

    /// A pattern with all coordinates pinned is equivalent to Exact.
    #[test]
    fn full_pattern_is_exact(reg in arb_reg(), probe in arb_reg()) {
        let pat = RegionSpec::Pattern {
            space: reg.space,
            a: Some(Window::exact(reg.a)),
            b: Some(Window::exact(reg.b)),
            c: Some(reg.c),
        };
        prop_assert_eq!(pat.contains(probe), RegionSpec::Exact(reg).contains(probe));
    }

    /// The window form at width 1 *is* the exact form, and at any width
    /// it is the half-open interval test (checked in 128-bit arithmetic,
    /// so windows reaching the top of the coordinate space are covered).
    #[test]
    fn window_form_agrees_with_exact_and_with_the_interval(
        reg in arb_reg(),
        probe in arb_reg(),
        high in any::<bool>(),
        len in 0u64..6,
    ) {
        // Move both `b`s next to the top of the space half the time.
        let lift = |b: u64| if high { u64::MAX - 3 + b } else { b };
        let (start, x) = (lift(reg.b), lift(probe.b));
        prop_assert_eq!(Window::span(start, 1), Window::exact(start));
        let in_interval = (start as u128..start as u128 + len as u128).contains(&(x as u128));
        prop_assert_eq!(Window::span(start, len).contains(x), in_interval);
        let probe = RegId::new(probe.space, probe.a, x, probe.c);
        let spec = |b| RegionSpec::Pattern {
            space: reg.space, a: Some(Window::exact(reg.a)), b: Some(b), c: None,
        };
        prop_assert_eq!(
            spec(Window::span(start, len)).contains(probe),
            probe.space == reg.space && probe.a == reg.a && in_interval
        );
    }

    /// Wildcards only widen: if a pattern with pinned coordinate matches,
    /// the same pattern with that coordinate wild also matches.
    #[test]
    fn wildcard_monotone(reg in arb_reg(), probe in arb_reg()) {
        let a = Some(Window::exact(reg.a));
        let pinned = RegionSpec::Pattern {
            space: reg.space, a, b: Some(Window::exact(reg.b)), c: Some(reg.c),
        };
        let wild_b = RegionSpec::Pattern {
            space: reg.space, a, b: None, c: Some(reg.c),
        };
        if pinned.contains(probe) {
            prop_assert!(wild_b.contains(probe));
        }
    }
}

mod data_path {
    use rdma_sim::{
        LegalChange, MemEmbed, MemResponse, MemWire, MemoryActor, MemoryClient, Permission, RegId,
        RegionId, RegionSpec,
    };
    use simnet::{Actor, ActorId, Context, EventKind, Simulation, Time};

    use proptest::prelude::*;

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

    const OWNED: RegionId = RegionId(0);
    const FOREIGN: RegionId = RegionId(1);

    /// Issues an arbitrary interleaving of reads/writes against an owned
    /// and a foreign region; tracks the model's answer against a local
    /// oracle of what the register must contain.
    struct Fuzzer {
        mem: ActorId,
        script: Vec<(bool /*write*/, bool /*owned*/, u64)>,
        client: MemoryClient<u64, TMsg>,
        oracle: Option<u64>,
        violations: usize,
        pending: std::collections::BTreeMap<rdma_sim::OpId, (bool, bool, u64)>,
    }

    impl Actor<TMsg> for Fuzzer {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    for (w, owned, v) in self.script.clone() {
                        let region = if owned { OWNED } else { FOREIGN };
                        let reg = if owned {
                            RegId::one(0, 0)
                        } else {
                            RegId::one(1, 0)
                        };
                        let op = if w {
                            self.client.write(ctx, self.mem, region, reg, v)
                        } else {
                            self.client.read(ctx, self.mem, region, reg)
                        };
                        self.pending.insert(op, (w, owned, v));
                    }
                }
                EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } => {
                    let Some(c) = self.client.on_wire(ctx, from, wire) else {
                        return;
                    };
                    let (w, owned, v) = self.pending.remove(&c.op).expect("tracked");
                    match (w, owned, c.resp) {
                        // Owned write must ack and becomes the oracle value
                        // (ops are FIFO per memory, so order matches).
                        (true, true, MemResponse::Ack) => self.oracle = Some(v),
                        (true, true, _) => self.violations += 1,
                        // Foreign write must nak.
                        (true, false, MemResponse::Nak) => {}
                        (true, false, _) => self.violations += 1,
                        // Owned read must match the oracle exactly.
                        (false, true, MemResponse::Value(got)) => {
                            if got != self.oracle {
                                self.violations += 1;
                            }
                        }
                        (false, true, _) => self.violations += 1,
                        // Foreign reads are allowed (read: everybody).
                        (false, false, MemResponse::Value(_)) => {}
                        (false, false, _) => self.violations += 1,
                    }
                }
                _ => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Under any op interleaving: owned ops linearize FIFO, foreign
        /// writes never take effect, reads reflect exactly the acked
        /// writes.
        #[test]
        fn permission_and_fifo_invariants(
            script in proptest::collection::vec((any::<bool>(), any::<bool>(), 0u64..100), 1..24),
            seed in 0u64..1000,
        ) {
            let mut sim: Simulation<TMsg> = Simulation::new(seed);
            let mem = sim.add(
                MemoryActor::<u64, TMsg>::new(LegalChange::Static)
                    .with_region(OWNED, RegionSpec::Space(0), Permission::exclusive_writer(ActorId(1)))
                    .with_region(FOREIGN, RegionSpec::Space(1), Permission::exclusive_writer(ActorId(99))),
            );
            let f = sim.add(Fuzzer {
                mem,
                script,
                client: MemoryClient::new(),
                oracle: None,
                violations: 0,
                pending: Default::default(),
            });
            sim.run_to_quiescence(Time::from_delays(10_000));
            let fz = sim.actor_as::<Fuzzer>(f).unwrap();
            prop_assert!(fz.pending.is_empty(), "ops lost");
            prop_assert_eq!(fz.violations, 0);
        }
    }
}

mod range_reads {
    //! Every answer of a memory equals a `BTreeMap<RegId, u64>` model's:
    //! `ReadRange` is `sort(filter(all registers))` whether the memory
    //! scans its stores or walks its sparse pages for a window, point
    //! reads see exactly the acked writes, and a refused `WriteMany` leaves
    //! none of its rows behind — in the paged store of a log space and in
    //! the sparse pages alike.

    use std::collections::BTreeMap;
    use std::sync::Arc;

    use rdma_sim::{
        LegalChange, MemEmbed, MemRequest, MemResponse, MemWire, MemoryActor, MemoryClient, OpId,
        Permission, RegId, RegionId, RegionSpec, Window,
    };
    use simnet::{Actor, ActorId, Context, EventKind, Simulation, Time};

    use proptest::prelude::*;

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

    /// Everything, open to all: the region single writes go through.
    const WHOLE: RegionId = RegionId(0);
    /// One row of space 1, so a read's region filter is not always
    /// trivial and a batch can hold a register outside its region.
    const ROW: RegionId = RegionId(1);
    /// Everything again, writable by nobody: a writer without permission.
    const LOCKED: RegionId = RegionId(2);
    const ROW_SPEC: RegionSpec = RegionSpec::Pattern {
        space: 1,
        a: Some(Window::exact(2)),
        b: None,
        c: None,
    };

    fn spec_of(region: RegionId) -> RegionSpec {
        if region == ROW {
            ROW_SPEC
        } else {
            RegionSpec::All
        }
    }

    /// `a` is drawn on both sides of the log space's first page boundary.
    const PAGE: u64 = rdma_sim::LOG_PAGE_ROWS as u64;

    #[derive(Clone, Debug)]
    enum Step {
        Write(RegId, u64),
        /// One batch, then a point read of each of its rows: acked or
        /// refused, every row must read as the model says.
        WriteMany(RegionId, Vec<(RegId, u64)>),
        Read(RegId),
        ReadRange(RegionId, Option<RegionSpec>),
    }

    /// First coordinates: mostly a few small rows (so patterns hit and
    /// writes overwrite), then a spread of instances, the first page
    /// boundary, and numbers no allocation may be sized by.
    fn arb_a() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..4,
            0u64..4,
            0u64..300,
            (0u64..3).prop_map(|d| PAGE - 1 + d),
            Just(1 << 40),
            Just(u64::MAX),
        ]
    }

    /// `b` is drawn on both sides of the sparse spaces' page boundaries.
    const SPARSE_PAGE: u64 = rdma_sim::SPARSE_PAGE_ROWS as u64;

    /// Second coordinates: a small sequence number, one next to the first
    /// or second sparse page boundary, one carrying the high
    /// (receipt-style) bit, or one of the last coordinates of the space.
    fn arb_b() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..12,
            0u64..12,
            (0u64..4).prop_map(|d| SPARSE_PAGE - 2 + d),
            (0u64..4).prop_map(|d| 2 * SPARSE_PAGE - 2 + d),
            (0u64..12).prop_map(|k| k | 1 << 63),
            (0u64..4).prop_map(|d| (SPARSE_PAGE - 2 + d) | 1 << 63),
            (0u64..2).prop_map(|d| u64::MAX - d),
        ]
    }

    /// Registers over three spaces, so the paged space 1 sits between two
    /// that are not paged.
    fn arb_reg() -> impl Strategy<Value = RegId> {
        (0u16..3, arb_a(), arb_b(), 0u64..3).prop_map(|(space, a, b, c)| RegId::new(space, a, b, c))
    }

    fn arb_opt<S: Strategy<Value = u64> + 'static>(some: S) -> impl Strategy<Value = Option<u64>> {
        prop_oneof![Just(None), some.prop_map(Some)]
    }

    /// First-coordinate windows: the wildcard, one instance, a few from
    /// any instance or across the log space's first page boundary, or a
    /// suffix from an instance on — what a takeover scans.
    fn arb_a_window() -> impl Strategy<Value = Option<Window>> {
        prop_oneof![
            Just(None),
            arb_a().prop_map(|a| Some(Window::exact(a))),
            (arb_a(), 0u64..6).prop_map(|(a, len)| Some(Window::span(a, len))),
            (0u64..4, 0u64..8).prop_map(|(d, len)| Some(Window::span(PAGE - 2 + d, len))),
            arb_a().prop_map(Window::suffix),
        ]
    }

    /// Windows inside the first page, starting on either side of a page
    /// boundary, spanning a whole page and more, in the receipt plane, and
    /// at the top of the space.
    fn arb_window() -> impl Strategy<Value = Window> {
        prop_oneof![
            (0u64..12, 0u64..8).prop_map(|(start, len)| Window::span(start, len)),
            (0u64..4, 0u64..8).prop_map(|(d, len)| Window::span(SPARSE_PAGE - 2 + d, len)),
            (0u64..12, 0u64..3).prop_map(|(start, d)| Window::span(start, SPARSE_PAGE - 1 + d)),
            (0u64..4, 0u64..40).prop_map(|(d, len)| Window::span(2 * SPARSE_PAGE - 2 + d, len)),
            (0u64..12).prop_map(|k| Window::exact(k | 1 << 63)),
            (0u64..4, 0u64..6)
                .prop_map(|(d, len)| Window::span((SPARSE_PAGE - 2 + d) | 1 << 63, len)),
            (0u64..12).prop_map(|k| Window::span(k, u64::MAX)),
            (0u64..3).prop_map(|k| Window::span(u64::MAX - k, 2)),
        ]
    }

    fn arb_within() -> impl Strategy<Value = Option<RegionSpec>> {
        prop_oneof![
            Just(None),
            (0u16..3).prop_map(|s| Some(RegionSpec::Space(s))),
            // Un-windowed pattern: served by the scan.
            (0u16..3, arb_a_window(), arb_opt(0u64..3)).prop_map(|(space, a, c)| Some(
                RegionSpec::Pattern {
                    space,
                    a,
                    b: None,
                    c
                }
            )),
            // Windowed patterns (twice as likely): with `c` pinned, the
            // form the memory serves by walking its sparse pages; with `c`
            // wild, the filter-and-sort form.
            (0u16..3, arb_a_window(), arb_window(), arb_opt(0u64..3)).prop_map(
                |(space, a, b, c)| Some(RegionSpec::Pattern {
                    space,
                    a,
                    b: Some(b),
                    c
                })
            ),
            (0u16..3, arb_a_window(), arb_window(), arb_opt(0u64..3)).prop_map(
                |(space, a, b, c)| Some(RegionSpec::Pattern {
                    space,
                    a,
                    b: Some(b),
                    c
                })
            ),
        ]
    }

    /// A run of consecutive `b` in one `(space, a, c)` column, as a
    /// broadcaster or an auditor fills its row: from a small sequence
    /// number, from just below a sparse page boundary, or in the receipt
    /// plane, so windows see several rows and pages of one column.
    fn arb_run() -> impl Strategy<Value = Vec<(RegId, u64)>> {
        let start = prop_oneof![
            0u64..4,
            (0u64..6).prop_map(|d| SPARSE_PAGE - 4 + d),
            (0u64..4).prop_map(|d| (SPARSE_PAGE - 4 + d) | 1 << 63),
        ];
        let column = (0u16..3, 0u64..4, 0u64..3);
        (column, start, 1u64..12, 0u64..1000).prop_map(|((space, a, c), start, len, v)| {
            let row = |i: u64| (RegId::new(space, a, start + i, c), v + i);
            (0..len).map(row).collect()
        })
    }

    /// A batch through the whole memory (acked, rows in every space,
    /// scattered or one column's run), through the locked region
    /// (refused: no permission), through the row region with arbitrary
    /// rows (refused unless all happen to lie in it) or with every row
    /// moved into it (acked).
    fn arb_batch() -> impl Strategy<Value = Step> {
        let rows = || proptest::collection::vec((arb_reg(), 0u64..1000), 1..6);
        prop_oneof![
            rows().prop_map(|rows| Step::WriteMany(WHOLE, rows)),
            arb_run().prop_map(|rows| Step::WriteMany(WHOLE, rows)),
            arb_run().prop_map(|rows| Step::WriteMany(WHOLE, rows)),
            rows().prop_map(|rows| Step::WriteMany(LOCKED, rows)),
            rows().prop_map(|rows| Step::WriteMany(ROW, rows)),
            rows().prop_map(|rows| {
                let into_row = |(r, v): (RegId, u64)| (RegId::new(1, 2, r.b, r.c), v);
                Step::WriteMany(ROW, rows.into_iter().map(into_row).collect())
            }),
        ]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (arb_reg(), 0u64..1000).prop_map(|(r, v)| Step::Write(r, v)),
            (arb_reg(), 0u64..1000).prop_map(|(r, v)| Step::Write(r, v)),
            arb_batch(),
            arb_reg().prop_map(Step::Read),
            (any::<bool>(), arb_within())
                .prop_map(|(row, w)| Step::ReadRange(if row { ROW } else { WHOLE }, w)),
            (any::<bool>(), arb_within())
                .prop_map(|(row, w)| Step::ReadRange(if row { ROW } else { WHOLE }, w)),
        ]
    }

    /// Turns the steps into the requests they stand for and, applying
    /// them to the naive model in the same order, the response each must
    /// get.
    fn expand(steps: &[Step]) -> Vec<(MemRequest<u64>, MemResponse<u64>)> {
        let mut model: BTreeMap<RegId, u64> = BTreeMap::new();
        let mut script = Vec::new();
        let read = |model: &BTreeMap<RegId, u64>, reg: RegId| {
            let req = MemRequest::Read { region: WHOLE, reg };
            (req, MemResponse::Value(model.get(&reg).copied()))
        };
        for step in steps {
            match step.clone() {
                Step::Write(reg, value) => {
                    model.insert(reg, value);
                    let region = WHOLE;
                    script.push((MemRequest::Write { region, reg, value }, MemResponse::Ack));
                }
                Step::WriteMany(region, writes) => {
                    let spec = spec_of(region);
                    let ok = region != LOCKED && writes.iter().all(|(r, _)| spec.contains(*r));
                    if ok {
                        model.extend(writes.iter().copied());
                    }
                    let resp = if ok {
                        MemResponse::Ack
                    } else {
                        MemResponse::Nak
                    };
                    let writes: Arc<[(RegId, u64)]> = writes.into();
                    let batch = MemRequest::WriteMany {
                        region,
                        writes: writes.clone(),
                    };
                    script.push((batch, resp));
                    script.extend(writes.iter().map(|(reg, _)| read(&model, *reg)));
                }
                Step::Read(reg) => script.push(read(&model, reg)),
                Step::ReadRange(region, within) => {
                    let spec = spec_of(region);
                    let hit = |r: RegId| spec.contains(r) && within.is_none_or(|w| w.contains(r));
                    let rows = model.iter().filter(|(r, _)| hit(**r));
                    let rows = rows.map(|(r, v)| (*r, *v)).collect();
                    // The reader's buffer still holds an earlier read's
                    // row: the answer is the memory's rows alone.
                    let into = vec![(RegId::new(9, 9, 9, 9), 999)];
                    script.push((
                        MemRequest::ReadRange {
                            region,
                            within,
                            into,
                        },
                        MemResponse::Range(rows),
                    ));
                }
            }
        }
        script
    }

    /// Fires the requests at one memory (FIFO per memory, so they are
    /// applied in script order) and keeps every response.
    struct Driver {
        mem: ActorId,
        script: Vec<MemRequest<u64>>,
        client: MemoryClient<u64, TMsg>,
        answers: BTreeMap<OpId, MemResponse<u64>>,
        ops: Vec<OpId>,
    }

    impl Actor<TMsg> for Driver {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    for req in std::mem::take(&mut self.script) {
                        let op = self.client.submit(ctx, self.mem, req);
                        self.ops.push(op);
                    }
                }
                EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } => {
                    if let Some(c) = self.client.on_wire(ctx, from, wire) {
                        self.answers.insert(c.op, c.resp);
                    }
                }
                _ => {}
            }
        }
    }

    /// The memory under test: space 1 is paged, spaces 0 and 2 are not.
    fn memory() -> MemoryActor<u64, TMsg> {
        MemoryActor::new(LegalChange::Static)
            .with_log_space(1)
            .with_region(WHOLE, RegionSpec::All, Permission::open())
            .with_region(ROW, ROW_SPEC, Permission::open())
            .with_region(LOCKED, RegionSpec::All, Permission::read_only())
    }

    /// Runs `steps` against one memory and checks every answer against
    /// the model's, and the range-rows counter against the rows the
    /// model's range answers hold.
    fn answers_match_the_model(steps: &[Step]) -> TestCaseResult {
        let script = expand(steps);
        let mut sim: Simulation<TMsg> = Simulation::new(7);
        let mem = sim.add(memory());
        let d = sim.add(Driver {
            mem,
            script: script.iter().map(|(req, _)| req.clone()).collect(),
            client: MemoryClient::new(),
            answers: BTreeMap::new(),
            ops: Vec::new(),
        });
        sim.run_to_quiescence(Time::from_delays(10_000));
        let driver = sim.actor_as::<Driver>(d).unwrap();
        prop_assert_eq!(driver.ops.len(), script.len());
        let mut rows_expected = 0;
        for ((req, expected), op) in script.iter().zip(&driver.ops) {
            prop_assert_eq!(driver.answers.get(op), Some(expected), "{:?}", req);
            if let MemResponse::Range(rows) = expected {
                rows_expected += rows.len() as u64;
            }
        }
        // The rows counter is bumped beside every range response.
        prop_assert_eq!(sim.metrics().mem_range_rows, rows_expected);
        Ok(())
    }

    /// Column runs, scattered writes and `c`-pinned windowed reads over a
    /// few columns only, so most windows hold rows of several `a` and
    /// pages: the form the memory answers by walking its sparse pages.
    fn arb_column_step() -> impl Strategy<Value = Step> {
        let windowed = || {
            let a = prop_oneof![
                Just(None),
                (0u64..4).prop_map(|a| Some(Window::exact(a))),
                (0u64..4, 0u64..4).prop_map(|(a, len)| Some(Window::span(a, len))),
            ];
            (0u16..3, a, arb_window(), 0u64..3).prop_map(|(space, a, b, c)| {
                let within = RegionSpec::Pattern {
                    space,
                    a,
                    b: Some(b),
                    c: Some(c),
                };
                Step::ReadRange(WHOLE, Some(within))
            })
        };
        prop_oneof![
            arb_run().prop_map(|rows| Step::WriteMany(WHOLE, rows)),
            arb_run().prop_map(|rows| Step::WriteMany(WHOLE, rows)),
            (arb_reg(), 0u64..1000).prop_map(|(r, v)| Step::Write(r, v)),
            windowed(),
            windowed(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn every_range_read_is_the_sorted_naive_filter(
            steps in proptest::collection::vec(arb_step(), 1..60),
        ) {
            answers_match_the_model(&steps)?;
        }

        #[test]
        fn every_windowed_read_of_a_column_is_the_sorted_naive_filter(
            steps in proptest::collection::vec(arb_column_step(), 1..40),
        ) {
            answers_match_the_model(&steps)?;
        }
    }
}
