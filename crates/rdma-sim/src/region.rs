//! Memory regions, and the one shape of a set of registers.
//!
//! Accessing a register requires naming the region through which access is
//! claimed (paper §3: "when reading or writing data, a process specifies the
//! region and the register, and the system uses the region to determine if
//! access is allowed"). A region is a set of registers; so is a range
//! read's filter and a register set the explorer compares. All of them are
//! a [`RegionSpec`]: four optional filters, one per coordinate. Whether
//! two sets can share a register ([`RegionSpec::overlaps`]) is decided
//! here and nowhere else. Regions may overlap in the model; the paper's
//! algorithms (and ours) use disjoint regions.

use std::fmt;
use std::num::NonZeroU64;

use crate::reg::RegId;

/// Identifies a memory region within one memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mr{}", self.0)
    }
}

/// A half-open window `[start, start + len)` on one register coordinate.
///
/// The one form a [`RegionSpec`] pins its `a` and `b` coordinates
/// with: an exact coordinate `k` is the width-1 window
/// `[k, k + 1)` ([`Window::exact`]). Stored as start and length, so a
/// window reaching the top of the coordinate space needs no
/// `u64::MAX + 1` end point. The length is clipped at the top and never
/// 0, so an `Option<Window>` is no wider than a window; the empty window
/// is the one start and length no clipped window has (`Window::EMPTY`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Window {
    start: u64,
    len: NonZeroU64,
}

impl Window {
    /// The window holding nothing: it would run past the top of the space.
    const EMPTY: Window = Window {
        start: u64::MAX,
        len: NonZeroU64::MAX,
    };

    /// The width-1 window holding exactly `k`.
    pub const fn exact(k: u64) -> Window {
        Window::span(k, 1)
    }

    /// The window `[start, start + len)` (empty when `len` is 0; clipped
    /// at the top of the coordinate space).
    pub const fn span(start: u64, len: u64) -> Window {
        let room = (u64::MAX - start).saturating_add(1);
        match NonZeroU64::new(if len < room { len } else { room }) {
            Some(len) => Window { start, len },
            None => Window::EMPTY,
        }
    }

    /// Every coordinate from `start` on, as a filter pins it: `None`,
    /// the wildcard, from 0 (a window holds at most `u64::MAX`
    /// coordinates, one short of the whole space).
    pub fn suffix(start: u64) -> Option<Window> {
        (start > 0).then(|| Window::span(start, u64::MAX - start + 1))
    }

    /// The window's first coordinate.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Membership test.
    pub fn contains(&self, x: u64) -> bool {
        *self != Window::EMPTY
            && x.checked_sub(self.start)
                .is_some_and(|d| d < self.len.get())
    }

    /// Whether the two windows share a coordinate: two intervals
    /// intersect exactly when one holds the other's first point.
    pub fn overlaps(&self, other: &Window) -> bool {
        *self != Window::EMPTY
            && *other != Window::EMPTY
            && (self.contains(other.start) || other.contains(self.start))
    }
}

/// A set of registers: those whose coordinates pass all four filters,
/// where `None` passes everything.
///
/// The one shape every set of registers takes — a region of a memory, a
/// range read's filter, a footprint the explorer compares. Regions must
/// describe unbounded register sets (e.g. "all broadcast slots written by
/// process p", for every sequence number), so they are filters rather
/// than explicit sets. Each filter constrains one coordinate alone, so
/// two sets share a register exactly when each pair of filters can
/// ([`RegionSpec::overlaps`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegionSpec {
    /// Required namespace, or any.
    pub space: Option<u16>,
    /// Required window of the first coordinate, or any.
    pub a: Option<Window>,
    /// Required window of the second coordinate, or any.
    pub b: Option<Window>,
    /// Required third coordinate, or any.
    pub c: Option<u64>,
}

impl RegionSpec {
    /// Every register of the memory (the Disk Paxos disk shape, and the
    /// Protected Memory Paxos per-memory region).
    pub const ALL: RegionSpec = RegionSpec {
        space: None,
        a: None,
        b: None,
        c: None,
    };

    /// All registers in namespace `space`.
    pub const fn space(space: u16) -> RegionSpec {
        RegionSpec {
            space: Some(space),
            ..RegionSpec::ALL
        }
    }

    /// All registers in `space` with first coordinate `a` (e.g. "process
    /// p's row of broadcast slots").
    pub const fn row(space: u16, a: u64) -> RegionSpec {
        RegionSpec {
            a: Some(Window::exact(a)),
            ..RegionSpec::space(space)
        }
    }

    /// Exactly the register `reg`.
    pub const fn exact(reg: RegId) -> RegionSpec {
        RegionSpec {
            b: Some(Window::exact(reg.b)),
            c: Some(reg.c),
            ..RegionSpec::row(reg.space, reg.a)
        }
    }

    /// Membership test.
    pub fn contains(&self, reg: RegId) -> bool {
        self.space.is_none_or(|s| s == reg.space)
            && self.a.is_none_or(|w| w.contains(reg.a))
            && self.b.is_none_or(|w| w.contains(reg.b))
            && self.c.is_none_or(|c| c == reg.c)
    }

    /// Whether the two sets share a register: every coordinate's filters
    /// do, a missing filter sharing everything. The one rule for whether
    /// two register sets can meet.
    pub fn overlaps(&self, other: &RegionSpec) -> bool {
        fn meet<T>(x: Option<T>, y: Option<T>, f: impl FnOnce(T, T) -> bool) -> bool {
            x.zip(y).is_none_or(|(x, y)| f(x, y))
        }
        meet(self.space, other.space, |s, t| s == t)
            && meet(self.a, other.a, |v, w| v.overlaps(&w))
            && meet(self.b, other.b, |v, w| v.overlaps(&w))
            && meet(self.c, other.c, |x, y| x == y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_everything() {
        assert!(RegionSpec::ALL.contains(RegId::new(9, 1, 2, 3)));
    }

    #[test]
    fn exact_matches_one() {
        let spec = RegionSpec::exact(RegId::one(1, 5));
        assert!(spec.contains(RegId::one(1, 5)));
        assert!(!spec.contains(RegId::one(1, 6)));
    }

    #[test]
    fn space_matches_namespace() {
        let spec = RegionSpec::space(4);
        assert!(spec.contains(RegId::new(4, 9, 9, 9)));
        assert!(!spec.contains(RegId::new(5, 9, 9, 9)));
    }

    #[test]
    fn row_pattern() {
        let spec = RegionSpec::row(2, 7);
        assert!(spec.contains(RegId::new(2, 7, 0, 0)));
        assert!(spec.contains(RegId::new(2, 7, 123, 456)));
        assert!(!spec.contains(RegId::new(2, 8, 0, 0)));
        assert!(!spec.contains(RegId::new(3, 7, 0, 0)));
    }

    #[test]
    fn windows_are_half_open_and_clip_at_the_top() {
        let w = Window::span(4, 3);
        assert!(!w.contains(3) && w.contains(4) && w.contains(6) && !w.contains(7));
        assert!(!Window::span(4, 0).contains(4));
        assert!(Window::exact(u64::MAX).contains(u64::MAX));
        let top = Window::span(u64::MAX - 1, 10);
        assert!(top.contains(u64::MAX) && !top.contains(0));
        assert_eq!(top, Window::span(u64::MAX - 1, 2), "clipped at the top");
        let suffix = Window::suffix(5).unwrap();
        assert!(!suffix.contains(4) && suffix.contains(5) && suffix.contains(u64::MAX));
        assert_eq!(Window::suffix(0), None, "from 0 on is the wildcard");
        assert!(w.overlaps(&Window::span(6, 9)) && Window::span(6, 9).overlaps(&w));
        assert!(!w.overlaps(&Window::span(7, 9)));
        assert!(
            !w.overlaps(&Window::span(5, 0)),
            "an empty window matches nothing"
        );
        let empty = Window::span(u64::MAX, 0);
        assert!(!empty.contains(u64::MAX) && !empty.overlaps(&Window::exact(u64::MAX)));
        assert!(!Window::exact(u64::MAX).overlaps(&empty));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_windowed_first_coordinate_costs_a_pattern_no_byte() {
        // Every memory's region map and every replicated read's region
        // hold a `RegionSpec`: a window with a niche keeps `Option<Window>`
        // at a window's 16 bytes (24 without), and the four filters at 56
        // (64 while `a` was an `Option<u64>`, 72 with a niche-less window).
        use std::mem::size_of;
        assert_eq!(size_of::<Option<Window>>(), size_of::<Window>());
        assert_eq!(size_of::<RegionSpec>(), 56, "watched");
    }

    #[test]
    fn windowed_pattern_matches_its_span_only() {
        let spec = RegionSpec {
            space: Some(1),
            a: None,
            b: Some(Window::span(10, 4)),
            c: Some(2),
        };
        assert!(spec.contains(RegId::new(1, 7, 10, 2)));
        assert!(spec.contains(RegId::new(1, 0, 13, 2)));
        assert!(!spec.contains(RegId::new(1, 0, 14, 2)));
        assert!(!spec.contains(RegId::new(1, 0, 9, 2)));
        assert!(!spec.contains(RegId::new(1, 0, 10, 3)));
        assert!(!spec.contains(RegId::new(1, 0, 10 | 1 << 63, 2)));
    }

    #[test]
    fn a_windowed_first_coordinate_matches_its_span_only() {
        let suffix = RegionSpec {
            space: Some(4),
            a: Window::suffix(7),
            b: None,
            c: None,
        };
        assert!(
            suffix.contains(RegId::two(4, 7, 0)) && suffix.contains(RegId::two(4, u64::MAX, 2))
        );
        assert!(!suffix.contains(RegId::two(4, 6, 0)) && !suffix.contains(RegId::two(5, 9, 0)));
    }

    #[test]
    fn full_pattern() {
        let spec = RegionSpec {
            space: Some(1),
            a: Some(Window::exact(2)),
            b: None,
            c: Some(4),
        };
        assert!(spec.contains(RegId::new(1, 2, 99, 4)));
        assert!(!spec.contains(RegId::new(1, 2, 99, 5)));
        let any_space = RegionSpec {
            space: None,
            ..spec
        };
        assert!(any_space.contains(RegId::new(7, 2, 99, 4)));
    }

    /// Two sets share a register exactly when each coordinate's filters
    /// do: for a set of one register, overlap is membership, and for two,
    /// equality.
    #[test]
    fn overlap_is_membership_for_one_register_and_equality_for_two() {
        let regs: Vec<RegId> = (0..24u64)
            .map(|i| RegId::new((i % 2) as u16, i / 2 % 3, i / 6 % 2 * 9, i / 12))
            .collect();
        let specs = [
            RegionSpec::ALL,
            RegionSpec::space(1),
            RegionSpec::row(0, 2),
            RegionSpec {
                b: Some(Window::span(5, 10)),
                c: Some(1),
                ..RegionSpec::ALL
            },
            RegionSpec {
                a: Window::suffix(1),
                b: Some(Window::span(0, 0)),
                ..RegionSpec::space(0)
            },
        ];
        for &r in &regs {
            let one = RegionSpec::exact(r);
            for &s in &regs {
                assert_eq!(one.overlaps(&RegionSpec::exact(s)), r == s, "{r:?} {s:?}");
            }
            for spec in &specs {
                assert_eq!(one.overlaps(spec), spec.contains(r), "{r:?} {spec:?}");
                assert_eq!(spec.overlaps(&one), spec.contains(r), "{r:?} {spec:?}");
            }
        }
    }
}
