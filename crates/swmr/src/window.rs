//! A table keyed by a monotone id: [`Window`].

use std::collections::{BTreeMap, VecDeque};

/// How many ids a [`Window`]'s ring spans before its oldest live entry
/// moves to the ordered side map. Far above what a replication engine
/// keeps in flight: in a healthy run the ring never reaches it.
pub(crate) const WINDOW_SPAN: usize = 4096;

/// A map from `u64` ids to `T`, built for ids inserted in increasing order
/// (with gaps: ids other users of a shared counter took) and removed in
/// any order: a ring of slots from the oldest live id on, so a lookup is
/// an index and a warm table allocates nothing.
///
/// An entry that stays while `span` newer ids arrive — the op a crashed
/// memory never answers — moves from the ring's front to an ordered side
/// map, where it stays until it is removed. The ring never spans more than
/// `span` ids, and an entry is found wherever it lives.
#[derive(Debug)]
pub(crate) struct Window<T> {
    /// The id of `ring[0]`.
    base: u64,
    /// `ring[i]` holds id `base + i`; the front slot is live whenever the
    /// ring is not empty.
    ring: VecDeque<Option<T>>,
    /// Entries older than `base`.
    aged: BTreeMap<u64, T>,
    /// Live entries, ring and side map together.
    len: usize,
    span: usize,
}

impl<T> Window<T> {
    /// An empty table whose ring spans at most `span` ids (at least 1).
    pub(crate) fn new(span: usize) -> Window<T> {
        Window {
            base: 0,
            ring: VecDeque::new(),
            aged: BTreeMap::new(),
            len: 0,
            span: span.max(1),
        }
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts `value` at `id`. Ids above every id inserted before are the
    /// fast case; any other id is kept too, as an ordered map would.
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        if self.ring.is_empty() && id >= self.base {
            self.base = id; // every aged id lies below the old base
        }
        if id < self.base {
            if self.aged.insert(id, value).is_none() {
                self.len += 1;
            }
            return;
        }
        if let Some(at) = self.slot(id) {
            if self.ring[at].replace(value).is_none() {
                self.len += 1;
            }
            return;
        }
        // Age the front out until `id` fits in the span.
        while id - self.base >= self.span as u64 {
            match self.ring.pop_front() {
                Some(slot) => {
                    if let Some(value) = slot {
                        self.aged.insert(self.base, value);
                    }
                    self.base += 1;
                }
                None => self.base = id,
            }
        }
        let end = self.base + self.ring.len() as u64;
        self.ring.extend((end..id).map(|_| None));
        self.ring.push_back(Some(value));
        self.len += 1;
        self.trim();
    }

    /// The ring slot of `id`, if the ring covers it.
    fn slot(&self, id: u64) -> Option<usize> {
        let at = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (at < self.ring.len()).then_some(at)
    }

    /// Whether `id` is live.
    pub(crate) fn contains(&self, id: u64) -> bool {
        match self.slot(id) {
            Some(at) => self.ring[at].is_some(),
            None => id < self.base && self.aged.contains_key(&id),
        }
    }

    /// The entry at `id`, if live.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        match self.slot(id) {
            Some(at) => self.ring[at].as_mut(),
            None if id < self.base => self.aged.get_mut(&id),
            None => None,
        }
    }

    /// Removes and returns the entry at `id`, if live.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let value = match self.slot(id) {
            Some(at) => self.ring[at].take(),
            None if id < self.base => self.aged.remove(&id),
            None => None,
        }?;
        self.len -= 1;
        self.trim();
        Some(value)
    }

    /// Drops vacated slots off the ring's front.
    fn trim(&mut self) {
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.base += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a script: insert at the next id after a gap, insert
    /// again at the `n`-th id issued so far (out of order), remove the
    /// `n`-th live id (an answered op), or look the `n`-th id issued so
    /// far up.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Insert { gap: u64, orphan: bool },
        Again(usize),
        Remove(usize),
        Probe(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u64..3, 0u64..6).prop_map(|(gap, o)| Step::Insert {
                gap,
                orphan: o == 0
            }),
            (0usize..64).prop_map(Step::Again),
            (0usize..64).prop_map(Step::Remove),
            (0usize..64).prop_map(Step::Probe),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Monotone inserts with gaps, a few out of order, removes in any
        /// order and orphans that are never removed, against an ordered
        /// map, with a span small enough that orphans age out of the ring
        /// all the time.
        #[test]
        fn a_window_answers_as_the_ordered_map(
            span in 1usize..9,
            script in proptest::collection::vec(step(), 0..200),
        ) {
            let mut w: Window<u64> = Window::new(span);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut issued: Vec<u64> = Vec::new();
            let mut orphans: Vec<u64> = Vec::new();
            let mut next = 1u64;
            for step in script {
                match step {
                    Step::Insert { gap, orphan } => {
                        let id = next + gap;
                        next = id + 1;
                        w.insert(id, id * 10);
                        model.insert(id, id * 10);
                        issued.push(id);
                        if orphan {
                            orphans.push(id);
                        }
                    }
                    Step::Again(n) => {
                        if let Some(&id) = issued.get(n % issued.len().max(1)) {
                            w.insert(id, id * 10 + 1);
                            model.insert(id, id * 10 + 1);
                        }
                    }
                    Step::Remove(n) => {
                        let live: Vec<u64> =
                            model.keys().copied().filter(|id| !orphans.contains(id)).collect();
                        if let Some(&id) = live.get(n % live.len().max(1)) {
                            prop_assert_eq!(w.remove(id), model.remove(&id));
                            prop_assert_eq!(w.remove(id), None, "removed twice");
                        }
                    }
                    Step::Probe(n) => {
                        if let Some(&id) = issued.get(n % issued.len().max(1)) {
                            prop_assert_eq!(w.contains(id), model.contains_key(&id));
                            prop_assert_eq!(w.get_mut(id).copied(), model.get(&id).copied());
                        }
                        prop_assert!(!w.contains(next), "an id not yet issued");
                        prop_assert!(!w.contains(0));
                    }
                }
                prop_assert_eq!(w.len(), model.len());
                prop_assert!(w.ring.len() <= span, "the ring spans {} ids", w.ring.len());
                prop_assert!(w.ring.front().is_none_or(Option::is_some), "a vacated front slot");
            }
            // Every orphan is still found, wherever it aged to.
            for id in orphans {
                prop_assert_eq!(w.remove(id), model.remove(&id));
            }
        }
    }

    /// A warm window allocates no more: ids that come and go at a steady
    /// distance reuse the ring's buffer.
    #[test]
    fn a_steady_window_reuses_its_ring() {
        let mut w: Window<u64> = Window::new(64);
        for id in 1..=16 {
            w.insert(id, id);
        }
        let mut cap = None;
        for id in 17..10_000 {
            w.insert(id, id);
            assert_eq!(w.remove(id - 16), Some(id - 16));
            assert_eq!(*cap.get_or_insert(w.ring.capacity()), w.ring.capacity());
        }
        assert!(w.aged.is_empty());
        assert_eq!(w.len(), 16);
    }
}
