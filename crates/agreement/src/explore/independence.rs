//! The explorer's independence relation over ripe kernel events.
//!
//! Two same-tick events are *independent* when dispatching them in
//! either order yields the same state and the same future behaviour —
//! the Mazurkiewicz-trace equivalence a partial-order reduction prunes
//! by. The relation here is deliberately conservative (sound for
//! pruning: anything *possibly* conflicting is declared dependent):
//!
//! * **Different destination actors ⇒ independent.** An actor's handler
//!   reads and writes only its own state plus the [`Context`] effects it
//!   emits; two dispatches at different actors touch disjoint state.
//!   Swapping them relabels the kernel sequence numbers of the events
//!   they emit — but same-tick ordering is exactly the freedom the
//!   explorer already enumerates, and cross-tick order is fixed by
//!   virtual time, so the relabeling never changes what any later
//!   choice point can choose *among*, only its default order.
//! * **Same actor ⇒ dependent**, with one carve-out: two memory-wire
//!   *requests* arriving at a memory actor with disjoint register
//!   footprints and no permission change commute — the memory applies
//!   each against unrelated registers and the responses (sent to the
//!   original requesters) carry the same values either way. This is the
//!   reduction of Abdulla et al.'s RDMA-program verification work: most
//!   same-memory traffic lands on distinct registers (per-slot log
//!   writes, per-process broadcast rows), so this carve-out is where
//!   the pruning actually bites.
//!
//! Footprints over-approximate: a `ReadRange` reads its whole `within`
//! pattern (the region's own spec is memory-side configuration the wire
//! does not carry) — for a window-bounded read that is the window, so it
//! commutes with writes outside it and with reads of disjoint windows —
//! and `ChangePerm` conflicts with everything on that
//! memory — permissions gate every other request's Nak-or-apply
//! outcome.
//!
//! [`Context`]: simnet::Context

use std::collections::BTreeSet;

use rdma_sim::{MemRequest, MemWire, RegId, RegionSpec, Window};
use simnet::{ActorId, Choice, ChoicePayload, EventKind};

use crate::types::{Msg, RegVal};

/// An order-stable summary of one ripe kernel event, as the explorer's
/// sleep sets and child seeds store it. `seq` is the kernel scheduling
/// sequence number — identical across replays of a shared choice-vector
/// prefix, which is what makes summaries comparable between runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploredEvent {
    /// Kernel scheduling sequence number (replay-stable identity).
    pub seq: u64,
    /// Destination actor.
    pub to: ActorId,
    /// What the event is, as far as independence cares.
    pub kind: EventClass,
}

/// The independence-relevant classification of an event.
#[derive(Clone, Debug, PartialEq)]
pub enum EventClass {
    /// An actor's `Start` event.
    Start,
    /// A timer firing with the given tag.
    Timer {
        /// The timer's purpose tag.
        tag: u64,
    },
    /// A leader-oracle announcement.
    LeaderChange,
    /// A scheduled crash of the destination actor.
    Crash,
    /// A message delivery that is not a memory request (protocol
    /// messages, memory *responses*, anything opaque).
    Msg {
        /// The sender.
        from: ActorId,
    },
    /// A memory-wire request arriving at a memory actor, with its
    /// register footprint.
    MemReq {
        /// The requesting process.
        from: ActorId,
        /// Registers the request reads/writes.
        fp: Footprint,
    },
}

/// The register sets a memory request touches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Footprint {
    /// Registers (or register patterns) read.
    pub reads: Vec<RegAccess>,
    /// Registers written.
    pub writes: Vec<RegAccess>,
    /// Whether the request changes a region's permission — which gates
    /// every other request on the memory, so it conflicts with all.
    pub perm: bool,
}

/// One element of a footprint: a single register or a pattern of them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RegAccess {
    /// Exactly one register.
    Exact(RegId),
    /// Every register a [`RegionSpec`] matches (the `ReadRange`
    /// over-approximation).
    Pattern(RegionSpec),
}

/// Summarizes a kernel [`Choice`] for the independence relation. `mems`
/// is the deployment's set of memory-actor ids ([`GroupTopology::mems`]
/// over every group): only requests *to a memory* get footprints —
/// the same wire message delivered to a process is protocol input and
/// stays order-dependent.
///
/// [`GroupTopology::mems`]: crate::sharded::GroupTopology::mems
pub fn summarize_choice(c: &Choice<'_, Msg>, mems: &BTreeSet<ActorId>) -> ExploredEvent {
    let kind = match &c.payload {
        ChoicePayload::Crash => EventClass::Crash,
        ChoicePayload::Deliver(ev) => match ev {
            EventKind::Start => EventClass::Start,
            EventKind::Timer { tag, .. } => EventClass::Timer { tag: *tag },
            EventKind::LeaderChange { .. } => EventClass::LeaderChange,
            EventKind::Msg { from, msg } => match msg {
                Msg::Mem(MemWire::Req { req, .. }) if mems.contains(&c.to) => EventClass::MemReq {
                    from: *from,
                    fp: footprint(req),
                },
                _ => EventClass::Msg { from: *from },
            },
        },
    };
    ExploredEvent {
        seq: c.seq,
        to: c.to,
        kind,
    }
}

/// The register footprint of one memory request.
pub fn footprint(req: &MemRequest<RegVal>) -> Footprint {
    let mut fp = Footprint::default();
    match req {
        MemRequest::Read { reg, .. } => fp.reads.push(RegAccess::Exact(*reg)),
        MemRequest::Write { reg, .. } => fp.writes.push(RegAccess::Exact(*reg)),
        MemRequest::WriteMany { writes, .. } => {
            fp.writes
                .extend(writes.iter().map(|(r, _)| RegAccess::Exact(*r)));
        }
        MemRequest::ReadRange { within, .. } => {
            // The region's own spec lives memory-side; the wildcard is
            // the sound over-approximation.
            fp.reads
                .push(RegAccess::Pattern(within.unwrap_or(RegionSpec::All)));
        }
        MemRequest::ChangePerm { .. } => fp.perm = true,
    }
    fp
}

/// Whether two same-tick events commute (see the module docs).
pub fn independent(a: &ExploredEvent, b: &ExploredEvent) -> bool {
    if a.to != b.to {
        return true;
    }
    match (&a.kind, &b.kind) {
        (EventClass::MemReq { fp: fa, .. }, EventClass::MemReq { fp: fb, .. }) => {
            !conflicts(fa, fb)
        }
        _ => false,
    }
}

/// Whether two footprints interfere: a permission change on either
/// side, or a write overlapping the other's reads or writes.
pub fn conflicts(a: &Footprint, b: &Footprint) -> bool {
    if a.perm || b.perm {
        return true;
    }
    let hit = |xs: &[RegAccess], ys: &[RegAccess]| {
        xs.iter().any(|x| ys.iter().any(|y| may_overlap(*x, *y)))
    };
    hit(&a.writes, &b.writes) || hit(&a.writes, &b.reads) || hit(&a.reads, &b.writes)
}

/// Whether two footprint elements can name a common register
/// (conservative: `true` unless provably disjoint).
pub fn may_overlap(a: RegAccess, b: RegAccess) -> bool {
    match (a, b) {
        (RegAccess::Exact(r), RegAccess::Exact(s)) => r == s,
        (RegAccess::Exact(r), RegAccess::Pattern(spec))
        | (RegAccess::Pattern(spec), RegAccess::Exact(r)) => spec.contains(r),
        (RegAccess::Pattern(p), RegAccess::Pattern(q)) => specs_may_overlap(p, q),
    }
}

/// Whether two region specs can share a register. Distinct namespaces,
/// incompatible fixed coordinates and disjoint `b` windows are provably
/// disjoint; everything else is assumed to overlap.
fn specs_may_overlap(p: RegionSpec, q: RegionSpec) -> bool {
    use RegionSpec::*;
    let coord = |x: Option<u64>, y: Option<u64>| match (x, y) {
        (Some(a), Some(b)) => a == b,
        _ => true,
    };
    let window = |x: Option<Window>, y: Option<Window>| match (x, y) {
        (Some(v), Some(w)) => v.overlaps(&w),
        _ => true,
    };
    match (p, q) {
        (All, _) | (_, All) => true,
        (Exact(r), other) | (other, Exact(r)) => other.contains(r),
        (Space(s), Space(t)) => s == t,
        (Space(s), Pattern { space, .. }) | (Pattern { space, .. }, Space(s)) => s == space,
        (
            Pattern {
                space: s1,
                a: a1,
                b: b1,
                c: c1,
            },
            Pattern {
                space: s2,
                a: a2,
                b: b2,
                c: c2,
            },
        ) => s1 == s2 && coord(a1, a2) && window(b1, b2) && coord(c1, c2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::RegionId;

    fn ev(seq: u64, to: u32, kind: EventClass) -> ExploredEvent {
        ExploredEvent {
            seq,
            to: ActorId(to),
            kind,
        }
    }

    fn mem_req(seq: u64, to: u32, req: &MemRequest<RegVal>) -> ExploredEvent {
        ev(
            seq,
            to,
            EventClass::MemReq {
                from: ActorId(0),
                fp: footprint(req),
            },
        )
    }

    const MR: RegionId = RegionId(0);

    fn write(reg: RegId) -> MemRequest<RegVal> {
        MemRequest::Write {
            region: MR,
            reg,
            value: RegVal::LbFlag(crate::types::Value(0)),
        }
    }

    fn read(reg: RegId) -> MemRequest<RegVal> {
        MemRequest::Read { region: MR, reg }
    }

    #[test]
    fn different_actors_always_commute() {
        let a = ev(1, 3, EventClass::Msg { from: ActorId(9) });
        let b = ev(2, 4, EventClass::Msg { from: ActorId(9) });
        assert!(independent(&a, &b));
        let c = ev(3, 4, EventClass::Crash);
        assert!(independent(&a, &c));
    }

    #[test]
    fn same_actor_non_mem_events_conflict() {
        let a = ev(1, 3, EventClass::Msg { from: ActorId(9) });
        let b = ev(2, 3, EventClass::Timer { tag: 1 });
        assert!(!independent(&a, &b));
        let c = ev(3, 3, EventClass::Crash);
        assert!(!independent(&a, &c));
    }

    #[test]
    fn disjoint_register_requests_commute() {
        let a = mem_req(1, 7, &write(RegId::one(1, 0)));
        let b = mem_req(2, 7, &write(RegId::one(1, 1)));
        assert!(independent(&a, &b));
        let c = mem_req(3, 7, &read(RegId::one(1, 2)));
        assert!(independent(&a, &c));
    }

    #[test]
    fn same_register_write_conflicts_with_read_and_write() {
        let w = mem_req(1, 7, &write(RegId::one(1, 5)));
        let w2 = mem_req(2, 7, &write(RegId::one(1, 5)));
        let r = mem_req(3, 7, &read(RegId::one(1, 5)));
        assert!(!independent(&w, &w2));
        assert!(!independent(&w, &r));
        // Two reads of the same register commute.
        let r2 = mem_req(4, 7, &read(RegId::one(1, 5)));
        assert!(independent(&r, &r2));
    }

    #[test]
    fn range_read_conflicts_with_matching_writes_only() {
        let scan = mem_req(
            1,
            7,
            &MemRequest::ReadRange {
                region: MR,
                within: Some(RegionSpec::row(2, 4)),
                into: Vec::new(),
            },
        );
        let hit = mem_req(2, 7, &write(RegId::new(2, 4, 9, 0)));
        let miss_row = mem_req(3, 7, &write(RegId::new(2, 5, 9, 0)));
        let miss_space = mem_req(4, 7, &write(RegId::new(3, 4, 9, 0)));
        assert!(!independent(&scan, &hit));
        assert!(independent(&scan, &miss_row));
        assert!(independent(&scan, &miss_space));
        // An unrestricted scan conflicts with every write.
        let full = mem_req(
            5,
            7,
            &MemRequest::ReadRange {
                region: MR,
                within: None,
                into: Vec::new(),
            },
        );
        assert!(!independent(&full, &miss_space));
    }

    #[test]
    fn windowed_range_read_conflicts_inside_its_window_only() {
        let windowed = |start, len| RegionSpec::Pattern {
            space: 2,
            a: None,
            b: Some(Window::span(start, len)),
            c: Some(1),
        };
        let scan = mem_req(
            1,
            7,
            &MemRequest::ReadRange {
                region: MR,
                within: Some(windowed(10, 4)),
                into: Vec::new(),
            },
        );
        assert!(!independent(
            &scan,
            &mem_req(2, 7, &write(RegId::new(2, 0, 13, 1)))
        ));
        assert!(independent(
            &scan,
            &mem_req(3, 7, &write(RegId::new(2, 0, 14, 1)))
        ));
        assert!(independent(
            &scan,
            &mem_req(4, 7, &write(RegId::new(2, 0, 9, 1)))
        ));
        assert!(independent(
            &scan,
            &mem_req(5, 7, &write(RegId::new(2, 0, 12, 0)))
        ));
        // Receipts carry the high bit: outside every slot window.
        assert!(independent(
            &scan,
            &mem_req(6, 7, &write(RegId::new(2, 0, 12 | 1 << 63, 1)))
        ));
        // Pattern against pattern: disjoint windows are provably disjoint,
        // touching ones are not, and a wildcard `b` overlaps any window.
        use RegAccess::Pattern;
        assert!(!may_overlap(
            Pattern(windowed(10, 4)),
            Pattern(windowed(14, 4))
        ));
        assert!(may_overlap(
            Pattern(windowed(10, 4)),
            Pattern(windowed(13, 4))
        ));
        assert!(may_overlap(
            Pattern(windowed(10, 4)),
            Pattern(RegionSpec::Pattern {
                space: 2,
                a: Some(0),
                b: None,
                c: None,
            })
        ));
    }

    #[test]
    fn perm_change_conflicts_with_everything_on_the_memory() {
        let perm = mem_req(
            1,
            7,
            &MemRequest::ChangePerm {
                region: MR,
                new: rdma_sim::Permission::read_only(),
            },
        );
        let r = mem_req(2, 7, &read(RegId::one(1, 0)));
        let w = mem_req(3, 7, &write(RegId::one(9, 9)));
        assert!(!independent(&perm, &r));
        assert!(!independent(&perm, &w));
        // ...but not with traffic at a different memory.
        let elsewhere = mem_req(4, 8, &read(RegId::one(1, 0)));
        assert!(independent(&perm, &elsewhere));
    }

    #[test]
    fn pattern_pattern_overlap_is_conservative() {
        use RegAccess::Pattern;
        // Same space, compatible coords: may overlap.
        assert!(may_overlap(
            Pattern(RegionSpec::row(1, 3)),
            Pattern(RegionSpec::Space(1))
        ));
        // Fixed differing coordinate: provably disjoint.
        assert!(!may_overlap(
            Pattern(RegionSpec::row(1, 3)),
            Pattern(RegionSpec::row(1, 4))
        ));
        // Different spaces: disjoint.
        assert!(!may_overlap(
            Pattern(RegionSpec::Space(1)),
            Pattern(RegionSpec::Space(2))
        ));
    }
}
