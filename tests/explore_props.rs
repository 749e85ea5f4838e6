//! Property tests for the schedule explorer's independence relation
//! (`agreement::explore::independence`).
//!
//! The relation licenses the explorer to prune one order of a pair of
//! same-tick events; that is sound only if swapping an
//! independent-classified pair really is unobservable. The properties
//! drive a *real* [`rdma_sim::MemoryActor`] with pairs of generated
//! requests, delivered in both orders via the kernel's choice hook:
//!
//! 1. **Independent ⇒ bit-identical outcomes**: the memory's final
//!    register state and both requesters' responses are equal across
//!    the two orders.
//! 2. **Outcome-differing ⇒ conflicting** (contrapositive of 1, checked
//!    directly so a miss is reported as the ordering that exposes it):
//!    any pair the swap *can* distinguish must be classified as a
//!    conflict, i.e. never pruned.
//!
//! 3. **Provably disjoint ⇒ disjoint answers**: for generated pattern
//!    pairs — windowed `a` and `b` coordinates included — whenever the relation
//!    calls two patterns disjoint, range reads of a fully populated
//!    memory through them share no register (and patterns differing only
//!    in their windows are called disjoint exactly when the answers are).
//!
//! Plus direct classification pins for the pairs the relation must
//! never prune: same-register write/write and write/read, permission
//! changes against everything on the memory.

use agreement::explore::independence::{
    conflicts, footprint, independent, may_overlap, EventClass, ExploredEvent, RegAccess,
};
use agreement::types::{RegVal, Value};
use proptest::prelude::*;
use rdma_sim::{
    LegalChange, MemEmbed, MemRequest, MemResponse, MemWire, MemoryActor, OpId, Permission, RegId,
    RegionId, RegionSpec, Window,
};
use simnet::{Actor, ActorId, Context, EventKind, Simulation, Time};

/// Minimal message type embedding the memory wire protocol.
#[derive(Clone, Debug, PartialEq)]
enum TMsg {
    Mem(MemWire<RegVal>),
}
impl MemEmbed<RegVal> for TMsg {
    fn from_wire(wire: MemWire<RegVal>) -> Self {
        TMsg::Mem(wire)
    }
    fn into_wire(self) -> Result<MemWire<RegVal>, Self> {
        let TMsg::Mem(w) = self;
        Ok(w)
    }
}

/// Fires its scripted requests at the memory (in order, ops numbered
/// from 0) and records the responses.
struct Driver {
    mem: ActorId,
    script: Vec<MemRequest<RegVal>>,
    responses: Vec<(OpId, MemResponse<RegVal>)>,
}
impl Actor<TMsg> for Driver {
    fn on_event(&mut self, ctx: &mut Context<'_, TMsg>, ev: EventKind<TMsg>) {
        match ev {
            EventKind::Start => {
                for (i, req) in self.script.drain(..).enumerate() {
                    let op = OpId(i as u64);
                    ctx.send(self.mem, TMsg::Mem(MemWire::Req { op, req }));
                }
            }
            EventKind::Msg {
                msg: TMsg::Mem(MemWire::Resp { op, resp }),
                ..
            } => self.responses.push((op, resp)),
            _ => {}
        }
    }
}

/// The single region every generated request addresses: all registers,
/// open to everybody, permission changes allowed (so `ChangePerm` is an
/// *effective* operation the swap can observe).
const REGION: RegionId = RegionId(0);

/// Everything observable about one ordering of the pair: the memory's
/// final register state over the generated universe plus both drivers'
/// responses.
type Outcome = (
    Vec<Option<RegVal>>,
    Vec<(OpId, MemResponse<RegVal>)>,
    Vec<(OpId, MemResponse<RegVal>)>,
);

/// Runs `[a_req from driver A, b_req from driver B]` against one
/// memory, forcing the same-tick delivery order with the kernel choice
/// hook: `swapped` delivers B's request first.
fn run_pair(a_req: &MemRequest<RegVal>, b_req: &MemRequest<RegVal>, swapped: bool) -> Outcome {
    let mut sim: Simulation<TMsg> = Simulation::new(5);
    let mem_id = sim.add(
        MemoryActor::<RegVal, TMsg>::new(LegalChange::AnyChange).with_region(
            REGION,
            RegionSpec::All,
            Permission::open(),
        ),
    );
    let a = sim.add(Driver {
        mem: mem_id,
        script: vec![a_req.clone()],
        responses: Vec::new(),
    });
    let b = sim.add(Driver {
        mem: mem_id,
        script: vec![b_req.clone()],
        responses: Vec::new(),
    });
    // Choice points: two from the 3-way Start slate, then the request
    // pair at the memory — position 2 picks the delivery order.
    let vector = [0usize, 0, usize::from(swapped)];
    let mut pos = 0usize;
    sim.set_choice_hook(Box::new(move |_t, choices| {
        if choices.len() == 1 {
            return 0;
        }
        let pick = vector.get(pos).copied().unwrap_or(0);
        pos += 1;
        pick
    }));
    sim.run_to_quiescence(Time::from_delays(50));
    let mem = sim
        .actor_as::<MemoryActor<RegVal, TMsg>>(mem_id)
        .expect("memory actor");
    let registers = universe()
        .into_iter()
        .map(|r| mem.register(r).cloned())
        .collect();
    let resp = |id: ActorId| {
        sim.actor_as::<Driver>(id)
            .expect("driver")
            .responses
            .clone()
    };
    (registers, resp(a), resp(b))
}

/// Every register a generated request can touch.
fn universe() -> Vec<RegId> {
    let mut out = Vec::new();
    for space in 1u16..=2 {
        for x in 0u64..3 {
            for y in 0u64..3 {
                for z in 0u64..3 {
                    out.push(RegId::new(space, x, y, z));
                }
            }
        }
    }
    out
}

/// Decodes a generated request from small integers (the proptest shim's
/// native strategies).
fn decode(kind: usize, space: u16, x: u64, y: u64, z: u64, val: u64) -> MemRequest<RegVal> {
    let reg = RegId::new(space, x, y, z);
    match kind {
        0 => MemRequest::Read {
            region: REGION,
            reg,
        },
        1 => MemRequest::Write {
            region: REGION,
            reg,
            value: RegVal::LbFlag(Value(val)),
        },
        2 => MemRequest::WriteMany {
            region: REGION,
            writes: [
                (reg, RegVal::LbFlag(Value(val))),
                // A second register in the same row.
                (
                    RegId::new(space, x, y, (z + 1) % 3),
                    RegVal::LbFlag(Value(val + 1)),
                ),
            ]
            .into(),
        },
        3 => MemRequest::ReadRange {
            region: REGION,
            within: match val % 7 {
                0 => None,
                1 => Some(RegionSpec::All),
                2 => Some(RegionSpec::Space(space)),
                3 => Some(RegionSpec::row(space, x)),
                // Window-bounded reads: a column window over every row,
                // and one row's window (`z` widths include the empty one).
                4 => Some(windowed(space, None, y, z + 1, Some(z))),
                5 => Some(windowed(space, Some(Window::exact(x)), y, z, None)),
                // A takeover's suffix scan: every row from `x` on.
                _ => Some(windowed(space, Window::suffix(x), 0, 3, None)),
            },
            into: Vec::new(),
        },
        _ => MemRequest::ChangePerm {
            region: REGION,
            new: if val.is_multiple_of(2) {
                Permission::open()
            } else {
                Permission::read_only()
            },
        },
    }
}

/// A pattern whose `b` coordinate is the window `[start, start + len)`.
fn windowed(space: u16, a: Option<Window>, start: u64, len: u64, c: Option<u64>) -> RegionSpec {
    RegionSpec::Pattern {
        space,
        a,
        b: Some(Window::span(start, len)),
        c,
    }
}

/// The registers a range read through `within` returns from a memory
/// holding the whole [`universe`], as the real actor answers it (the
/// first windowed read builds the key index, later ones reuse it).
fn range_answers(withins: &[RegionSpec]) -> Vec<Vec<RegId>> {
    let mut sim: Simulation<TMsg> = Simulation::new(5);
    let mem = sim.add(
        MemoryActor::<RegVal, TMsg>::new(LegalChange::Static).with_region(
            REGION,
            RegionSpec::All,
            Permission::open(),
        ),
    );
    let fill = MemRequest::WriteMany {
        region: REGION,
        writes: (universe().into_iter())
            .map(|r| (r, RegVal::LbFlag(Value(r.b))))
            .collect(),
    };
    let reads = withins.iter().map(|&w| MemRequest::ReadRange {
        region: REGION,
        within: Some(w),
        into: Vec::new(),
    });
    let driver = sim.add(Driver {
        mem,
        script: std::iter::once(fill).chain(reads).collect(),
        responses: Vec::new(),
    });
    sim.run_to_quiescence(Time::from_delays(50));
    let mut responses = sim
        .actor_as::<Driver>(driver)
        .expect("driver")
        .responses
        .clone();
    responses.sort_by_key(|(op, _)| *op);
    (responses.into_iter().skip(1))
        .map(|(_, resp)| match resp {
            MemResponse::Range(rows) => rows.into_iter().map(|(r, _)| r).collect(),
            other => panic!("range read answered {other:?}"),
        })
        .collect()
}

/// Wraps a request as the explorer's event summary: a memory request
/// arriving at the memory actor, from distinct requesters.
fn as_event(seq: u64, from: u32, req: &MemRequest<RegVal>) -> ExploredEvent {
    ExploredEvent {
        seq,
        // Both requests land on the same memory actor — the same-actor
        // case where only the footprint carve-out can declare
        // independence.
        to: ActorId(0),
        kind: EventClass::MemReq {
            from: ActorId(from),
            fp: footprint(req),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Independent-classified pairs commute observably; pairs the swap
    /// distinguishes are classified as conflicts (never pruned).
    #[test]
    fn independence_classification_matches_real_memory(
        a_kind in 0usize..5,
        a_space in 1u16..3,
        a_x in 0u64..3,
        a_y in 0u64..3,
        a_z in 0u64..3,
        a_val in 0u64..8,
        b_kind in 0usize..5,
        b_space in 1u16..3,
        b_x in 0u64..3,
        b_y in 0u64..3,
        b_z in 0u64..3,
        b_val in 0u64..8,
    ) {
        let a_req = decode(a_kind, a_space, a_x, a_y, a_z, a_val);
        let b_req = decode(b_kind, b_space, b_x, b_y, b_z, b_val);
        let forward = run_pair(&a_req, &b_req, false);
        let swapped = run_pair(&a_req, &b_req, true);
        let commute = forward == swapped;
        let ind = independent(&as_event(1, 10, &a_req), &as_event(2, 11, &b_req));
        // Soundness: a pruned (independent) order is unobservable.
        prop_assert!(
            !ind || commute,
            "classified independent but orders differ:\n  a = {a_req:?}\n  b = {b_req:?}"
        );
        // Equivalently: any observable pair must be kept (conflict).
        if !commute {
            prop_assert!(
                conflicts(&footprint(&a_req), &footprint(&b_req)),
                "orders observably differ yet footprints do not conflict:\n  \
                 a = {a_req:?}\n  b = {b_req:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pattern-against-pattern arm, windows included, against the
    /// real memory's answers: "provably disjoint" must mean the two
    /// reads share no register, and when only the windows differ the
    /// verdict is exact.
    #[test]
    fn disjoint_patterns_read_disjoint_registers(
        space in 1u16..3,
        p_a in 0u64..6, p_start in 0u64..3, p_len in 0u64..4, p_c in 0u64..4,
        q_a in 0u64..6, q_start in 0u64..3, q_len in 0u64..4, q_c in 0u64..4,
        q_other_space in any::<bool>(),
    ) {
        // 3 decodes to the wildcard, 0..3 to that fixed coordinate.
        let opt = |v: u64| (v < 3).then_some(v);
        // `a` the same way, and 4, 5 to the suffixes from 1 and 2.
        let rows = |v: u64| match v {
            0..3 => Some(Window::exact(v)),
            3 => None,
            _ => Window::suffix(v - 3),
        };
        let p = windowed(space, rows(p_a), p_start, p_len, opt(p_c));
        let q_space = if q_other_space { 3 - space } else { space };
        let q = windowed(q_space, rows(q_a), q_start, q_len, opt(q_c));
        // Same rows and columns, different windows: nothing left to
        // over-approximate, so the verdict is the answer.
        let same_but_window = windowed(space, rows(p_a), q_start, q_len, opt(p_c));
        let answers = range_answers(&[p, q, same_but_window]);
        let shares = |other: usize| answers[0].iter().any(|r| answers[other].contains(r));
        let verdict = may_overlap(RegAccess::Pattern(p), RegAccess::Pattern(q));
        prop_assert!(
            verdict || !shares(1),
            "called disjoint, both read a register:\n  {p:?}\n  {q:?}"
        );
        let verdict = may_overlap(RegAccess::Pattern(p), RegAccess::Pattern(same_but_window));
        prop_assert_eq!(verdict, shares(2), "window verdict is not exact:\n  {:?}\n  {:?}", p, same_but_window);
    }
}

/// The pairs the relation must never prune, pinned explicitly (the
/// property above only exercises what the generator happens to draw).
#[test]
fn conflicting_pairs_are_never_classified_independent() {
    let reg = RegId::new(1, 0, 0, 0);
    let write = MemRequest::Write {
        region: REGION,
        reg,
        value: RegVal::LbFlag(Value(1)),
    };
    let write2 = MemRequest::Write {
        region: REGION,
        reg,
        value: RegVal::LbFlag(Value(2)),
    };
    let read = MemRequest::Read {
        region: REGION,
        reg,
    };
    let scan_all = MemRequest::ReadRange {
        region: REGION,
        within: None,
        into: Vec::new(),
    };
    let perm = MemRequest::ChangePerm {
        region: REGION,
        new: Permission::read_only(),
    };
    for (x, y) in [
        (&write, &write2),
        (&write, &read),
        (&write, &scan_all),
        (&perm, &read),
        (&perm, &write),
        (&perm, &scan_all),
    ] {
        assert!(
            !independent(&as_event(1, 10, x), &as_event(2, 11, y)),
            "must conflict: {x:?} vs {y:?}"
        );
        assert!(
            !independent(&as_event(2, 11, y), &as_event(1, 10, x)),
            "conflict must be symmetric: {y:?} vs {x:?}"
        );
    }
    // Same-tick events at *different* actors always commute, whatever
    // they carry — the per-actor state partition of the kernel.
    let at_other_memory = ExploredEvent {
        to: ActorId(1),
        ..as_event(3, 12, &write)
    };
    assert!(independent(&as_event(1, 10, &write), &at_other_memory));
}
