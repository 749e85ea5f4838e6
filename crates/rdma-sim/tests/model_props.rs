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
            a: Some(reg.a),
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
        let spec = |b| RegionSpec::Pattern { space: reg.space, a: Some(reg.a), b: Some(b), c: None };
        prop_assert_eq!(
            spec(Window::span(start, len)).contains(probe),
            probe.space == reg.space && probe.a == reg.a && in_interval
        );
    }

    /// Wildcards only widen: if a pattern with pinned coordinate matches,
    /// the same pattern with that coordinate wild also matches.
    #[test]
    fn wildcard_monotone(reg in arb_reg(), probe in arb_reg()) {
        let pinned = RegionSpec::Pattern {
            space: reg.space, a: Some(reg.a), b: Some(Window::exact(reg.b)), c: Some(reg.c),
        };
        let wild_b = RegionSpec::Pattern {
            space: reg.space, a: Some(reg.a), b: None, c: Some(reg.c),
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
    //! Every `ReadRange` answer equals `sort(filter(all registers))`,
    //! whether the memory scans its hash map or walks the ordered key
    //! index it builds on the first windowed read.

    use std::collections::BTreeMap;

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

    /// Everything, open to all: the region writes go through.
    const WHOLE: RegionId = RegionId(0);
    /// One row of space 1, so a read's region filter is not always trivial.
    const ROW: RegionId = RegionId(1);
    const ROW_SPEC: RegionSpec = RegionSpec::Pattern {
        space: 1,
        a: Some(2),
        b: None,
        c: None,
    };

    #[derive(Clone, Debug)]
    enum Step {
        Write(RegId, u64),
        Read(RegionId, Option<RegionSpec>),
    }

    /// Registers over two spaces and a few rows, with `b` either a small
    /// sequence number or one carrying the high (receipt-style) bit.
    fn arb_reg() -> impl Strategy<Value = RegId> {
        (1u16..3, 0u64..4, (0u64..12, any::<bool>()), 0u64..3).prop_map(
            |(space, a, (k, high), c)| RegId::new(space, a, if high { k | 1 << 63 } else { k }, c),
        )
    }

    fn arb_opt(range: std::ops::Range<u64>) -> impl Strategy<Value = Option<u64>> {
        prop_oneof![Just(None), range.prop_map(Some)]
    }

    fn arb_window() -> impl Strategy<Value = Window> {
        prop_oneof![
            (0u64..12, 0u64..8).prop_map(|(start, len)| Window::span(start, len)),
            (0u64..12).prop_map(|k| Window::exact(k | 1 << 63)),
            (0u64..12).prop_map(|k| Window::span(k, u64::MAX)),
        ]
    }

    fn arb_within() -> impl Strategy<Value = Option<RegionSpec>> {
        prop_oneof![
            Just(None),
            (1u16..3).prop_map(|s| Some(RegionSpec::Space(s))),
            // Un-windowed pattern: served by the scan.
            (1u16..3, arb_opt(0..4), arb_opt(0..3)).prop_map(|(space, a, c)| Some(
                RegionSpec::Pattern {
                    space,
                    a,
                    b: None,
                    c
                }
            )),
            // Windowed patterns (twice as likely): served by the index.
            (1u16..3, arb_opt(0..4), arb_window(), arb_opt(0..3)).prop_map(
                |(space, a, b, c)| Some(RegionSpec::Pattern {
                    space,
                    a,
                    b: Some(b),
                    c
                })
            ),
            (1u16..3, arb_opt(0..4), arb_window(), arb_opt(0..3)).prop_map(
                |(space, a, b, c)| Some(RegionSpec::Pattern {
                    space,
                    a,
                    b: Some(b),
                    c
                })
            ),
        ]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (arb_reg(), 0u64..1000).prop_map(|(r, v)| Step::Write(r, v)),
            (arb_reg(), 0u64..1000).prop_map(|(r, v)| Step::Write(r, v)),
            (any::<bool>(), arb_within())
                .prop_map(|(row, w)| Step::Read(if row { ROW } else { WHOLE }, w)),
        ]
    }

    /// Fires the script at one memory (FIFO per memory, so it is applied
    /// in script order) and keeps each range read's rows.
    struct Driver {
        mem: ActorId,
        script: Vec<Step>,
        client: MemoryClient<u64, TMsg>,
        answers: BTreeMap<OpId, Vec<(RegId, u64)>>,
        ops: Vec<OpId>,
    }

    impl Actor<TMsg> for Driver {
        fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
            match ev {
                EventKind::Start => {
                    for step in self.script.clone() {
                        let req = match step {
                            Step::Write(reg, value) => MemRequest::Write {
                                region: WHOLE,
                                reg,
                                value,
                            },
                            Step::Read(region, within) => MemRequest::ReadRange { region, within },
                        };
                        let op = self.client.submit(ctx, self.mem, req);
                        self.ops.push(op);
                    }
                }
                EventKind::Msg {
                    from,
                    msg: TMsg::Mem(wire),
                } => {
                    if let Some(c) = self.client.on_wire(ctx, from, wire) {
                        if let MemResponse::Range(rows) = c.resp {
                            self.answers.insert(c.op, rows);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn every_range_read_is_the_sorted_naive_filter(
            script in proptest::collection::vec(arb_step(), 1..60),
        ) {
            let mut sim: Simulation<TMsg> = Simulation::new(7);
            let mem = sim.add(
                MemoryActor::<u64, TMsg>::new(LegalChange::Static)
                    .with_region(WHOLE, RegionSpec::All, Permission::open())
                    .with_region(ROW, ROW_SPEC, Permission::open()),
            );
            let d = sim.add(Driver {
                mem,
                script: script.clone(),
                client: MemoryClient::new(),
                answers: BTreeMap::new(),
                ops: Vec::new(),
            });
            sim.run_to_quiescence(Time::from_delays(10_000));
            let driver = sim.actor_as::<Driver>(d).unwrap();
            prop_assert_eq!(driver.ops.len(), script.len());
            // The naive model: an ordered map, filtered per read.
            let mut model: BTreeMap<RegId, u64> = BTreeMap::new();
            let mut rows_expected = 0;
            for (step, op) in script.iter().zip(&driver.ops) {
                match step {
                    Step::Write(reg, v) => {
                        model.insert(*reg, *v);
                    }
                    Step::Read(region, within) => {
                        let spec = if *region == ROW { ROW_SPEC } else { RegionSpec::All };
                        let expected: Vec<(RegId, u64)> = model
                            .iter()
                            .filter(|(r, _)| spec.contains(**r) && within.is_none_or(|w| w.contains(**r)))
                            .map(|(r, v)| (*r, *v))
                            .collect();
                        rows_expected += expected.len() as u64;
                        prop_assert_eq!(driver.answers.get(op), Some(&expected), "{:?}", step);
                    }
                }
            }
            // The rows counter is bumped beside every range response.
            prop_assert_eq!(sim.metrics().mem_range_rows, rows_expected);
        }
    }
}
