//! Memory regions: named, permission-bearing subsets of a memory's registers.
//!
//! Accessing a register requires naming the region through which access is
//! claimed (paper §3: "when reading or writing data, a process specifies the
//! region and the register, and the system uses the region to determine if
//! access is allowed"). Regions may overlap in the model; the paper's
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
/// The one form a [`RegionSpec::Pattern`] pins its `a` and `b`
/// coordinates with: an exact coordinate `k` is the width-1 window
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

    /// Every coordinate from `start` on, as a pattern pins it: `None`,
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

/// Which registers a region contains.
///
/// Regions must describe unbounded register sets (e.g. "all broadcast slots
/// written by process p", for every sequence number), so they are patterns
/// rather than explicit sets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionSpec {
    /// Every register of the memory (the Disk Paxos disk shape, and the
    /// Protected Memory Paxos per-memory region).
    All,
    /// Exactly one register.
    Exact(RegId),
    /// All registers in a namespace.
    Space(u16),
    /// All registers in a namespace whose present coordinates match.
    /// `None` coordinates are wildcards.
    Pattern {
        /// Namespace to match.
        space: u16,
        /// Required window of the first coordinate, or wildcard.
        a: Option<Window>,
        /// Required window of the second coordinate, or wildcard.
        b: Option<Window>,
        /// Required third coordinate, or wildcard.
        c: Option<u64>,
    },
}

impl RegionSpec {
    /// All registers in `space` with first coordinate `a` (e.g. "process
    /// p's row of broadcast slots").
    pub fn row(space: u16, a: u64) -> RegionSpec {
        RegionSpec::Pattern {
            space,
            a: Some(Window::exact(a)),
            b: None,
            c: None,
        }
    }

    /// Membership test.
    pub fn contains(&self, reg: RegId) -> bool {
        match *self {
            RegionSpec::All => true,
            RegionSpec::Exact(r) => r == reg,
            RegionSpec::Space(s) => s == reg.space,
            RegionSpec::Pattern { space, a, b, c } => {
                space == reg.space
                    && a.is_none_or(|w| w.contains(reg.a))
                    && b.is_none_or(|w| w.contains(reg.b))
                    && c.is_none_or(|v| v == reg.c)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_everything() {
        assert!(RegionSpec::All.contains(RegId::new(9, 1, 2, 3)));
    }

    #[test]
    fn exact_matches_one() {
        let spec = RegionSpec::Exact(RegId::one(1, 5));
        assert!(spec.contains(RegId::one(1, 5)));
        assert!(!spec.contains(RegId::one(1, 6)));
    }

    #[test]
    fn space_matches_namespace() {
        let spec = RegionSpec::Space(4);
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
        // at a window's 16 bytes (24 without), and the pattern at 56 (64
        // while `a` was an `Option<u64>`, 72 with a niche-less window).
        use std::mem::size_of;
        assert_eq!(size_of::<Option<Window>>(), size_of::<Window>());
        assert_eq!(size_of::<RegionSpec>(), 56, "watched");
    }

    #[test]
    fn windowed_pattern_matches_its_span_only() {
        let spec = RegionSpec::Pattern {
            space: 1,
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
        let suffix = RegionSpec::Pattern {
            space: 4,
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
        let spec = RegionSpec::Pattern {
            space: 1,
            a: Some(Window::exact(2)),
            b: None,
            c: Some(4),
        };
        assert!(spec.contains(RegId::new(1, 2, 99, 4)));
        assert!(!spec.contains(RegId::new(1, 2, 99, 5)));
    }
}
