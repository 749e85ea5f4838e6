//! The event queue of the simulation kernel.
//!
//! Two structures, one per job. A `BinaryHeap` of [`Key`]s, held by the
//! engine, *orders*: one 24-byte key `(at, seq, to, slot)` per queued
//! entry and nothing of the event itself. [`EventSlab`] *stores*: the
//! event a key stands for sits in slab slot `key.slot` from the moment it
//! is sent until the moment it is dispatched — written once, read once —
//! while only the key moves through `pending`, the heap and the choice
//! hook's pop-and-push-back. (The queue used to carry the events
//! themselves: a service message was 192 bytes then, and every queued
//! event was copied six to seven times on its way to its handler.) A
//! scheduled crash has no event: its key carries the sentinel slot
//! [`Key::CRASH`].
//!
//! [`EventSlab`] is a `Vec` of optional events plus a LIFO list of vacant
//! slots: the slot a dispatch just emptied is the one the handler's first
//! send fills, so the slab never grows past the deepest the queue got
//! plus one dispatch's emissions, and the hot slots stay in cache.
//!
//! ## Why a heap
//!
//! The queue is shallow. Its deepest point is 9 / 9 / 57 / 21 keys on the
//! repository benchmark's four workloads and 576 on any `perf_snapshot`
//! row (`sharded_g64`). A heap of 576 keys is 14 kB and ten levels deep,
//! so a push or a pop is a few compares in cache, and the heap is sized
//! once, with the slab ([`SLAB_SLOTS`]). A timing wheel (one bucket per
//! tick over a 2^15-tick window, an occupancy bitmap, a far-future heap)
//! is built for tens of thousands of queued events, and at these depths
//! it costs more than it saves: its 1 MB of bucket headers plus a buffer
//! per touched tick outgrow a 2 MiB L2 and evict every actor's data, a
//! bucket allocates the first time its tick is used, and every engine
//! builds and drops the array. Replacing one with this heap ran the
//! kernel-bound `smr_b1` workload 1.37x as fast.
//!
//! ## Determinism contract
//!
//! Keys pop in strictly ascending `(at, seq)` order, where `seq` is the
//! kernel-assigned scheduling sequence number. [`Key`]'s `Ord` is that
//! order inverted, for `std`'s max-heap. `seq` is unique within an engine,
//! so no two queued keys compare equal and the pop order is total,
//! whatever order the keys were pushed in — including the choice hook's
//! push-back of the alternatives it did not pick. Which slot an event
//! occupies is never observable: no order, sequence number or RNG draw
//! depends on it.

use std::cmp::Ordering;

use crate::event::EventKind;
use crate::ids::ActorId;
use crate::time::Time;

/// One queued entry: when, in which order, for whom, and where its event
/// is kept.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Key {
    pub(crate) at: Time,
    /// Scheduling sequence number; 0 until the engine enqueues the key.
    pub(crate) seq: u64,
    pub(crate) to: ActorId,
    /// Slab slot of the event to deliver, or [`Key::CRASH`].
    pub(crate) slot: u32,
}

impl Key {
    /// A key not yet enqueued (the engine assigns `seq` when it is).
    #[inline]
    pub(crate) fn new(at: Time, to: ActorId, slot: u32) -> Key {
        Key {
            at,
            seq: 0,
            to,
            slot,
        }
    }

    /// The slot of an entry that crashes its target instead of delivering
    /// an event. Never a real slot: [`EventSlab::insert`] stops short of it.
    pub(crate) const CRASH: u32 = u32::MAX;
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties deterministically in scheduling order.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Slots the slab, its vacancy list and the engine's key heap are sized
/// for at construction: twice the deepest queue of any benchmark workload
/// (9 / 9 / 57 / 21 entries), so a service run pays no growth step for any
/// of the three.
pub(crate) const SLAB_SLOTS: usize = 128;

/// Where queued events live between send and dispatch (see the module
/// docs).
pub(crate) struct EventSlab<M> {
    slots: Vec<Option<EventKind<M>>>,
    /// Vacant slots, most recently vacated last.
    free: Vec<u32>,
}

impl<M> EventSlab<M> {
    pub(crate) fn new() -> EventSlab<M> {
        EventSlab {
            slots: Vec::with_capacity(SLAB_SLOTS),
            free: Vec::with_capacity(SLAB_SLOTS),
        }
    }

    /// Appends a vacant slot.
    #[cold]
    fn grow(&mut self) -> u32 {
        let slot = self.slots.len();
        assert!(slot < Key::CRASH as usize, "event slab is full");
        self.slots.push(None);
        slot as u32
    }

    /// A vacant slot for the caller to fill, and its index. Everything
    /// that can call out or panic happens in here, so that a caller
    /// writing `*cell = Some(EventKind::Msg { from, msg })` next builds
    /// the event in the slot instead of on its stack.
    #[inline(always)]
    pub(crate) fn vacancy(&mut self) -> (u32, &mut Option<EventKind<M>>) {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => self.grow(),
        };
        let cell = &mut self.slots[slot as usize];
        assert!(cell.is_none(), "the vacancy list named an occupied slot");
        (slot, cell)
    }

    /// Stores `ev` in a vacant slot and returns the slot.
    pub(crate) fn insert(&mut self, ev: EventKind<M>) -> u32 {
        let (slot, cell) = self.vacancy();
        *cell = Some(ev);
        slot
    }

    /// The event in `slot`; `None` for [`Key::CRASH`].
    pub(crate) fn get(&self, slot: u32) -> Option<&EventKind<M>> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Moves the event out of `slot` and vacates it.
    #[inline(always)]
    pub(crate) fn take(&mut self, slot: u32) -> EventKind<M> {
        // Listed as vacant first: nothing may sit between reading the
        // event out and handing it on, or it is copied twice.
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("a queued key names an occupied slot")
    }

    /// Occupied slots.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever created: the most that were occupied at once.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, BinaryHeap};

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn a_key_is_three_words() {
        // What the heap and `pending` hold per entry, whatever the message
        // type.
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn slab_recycles_the_last_vacated_slot_first() {
        let msg = |n: u8| EventKind::Msg {
            from: ActorId(0),
            msg: n,
        };
        let mut slab: EventSlab<u8> = EventSlab::new();
        let (a, b, c) = (
            slab.insert(msg(1)),
            slab.insert(msg(2)),
            slab.insert(msg(3)),
        );
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!((slab.live(), slab.slots()), (3, 3));
        assert!(matches!(slab.get(b), Some(EventKind::Msg { msg: 2, .. })));
        assert!(slab.get(Key::CRASH).is_none(), "a crash has no event");
        assert!(matches!(slab.take(a), EventKind::Msg { msg: 1, .. }));
        assert!(matches!(slab.take(c), EventKind::Msg { msg: 3, .. }));
        assert_eq!((slab.live(), slab.slots()), (1, 3));
        // Vacated a then c: c is reused first, then a; only then growth.
        assert_eq!(slab.insert(msg(4)), c);
        assert_eq!(slab.insert(msg(5)), a);
        assert_eq!(slab.insert(msg(6)), 3);
        assert_eq!((slab.live(), slab.slots()), (4, 4));
        assert!(matches!(slab.take(c), EventKind::Msg { msg: 4, .. }));
    }

    #[test]
    #[should_panic(expected = "names an occupied slot")]
    fn taking_a_vacant_slot_is_a_kernel_bug() {
        let mut slab: EventSlab<u8> = EventSlab::new();
        let slot = slab.insert(EventKind::Start);
        slab.take(slot);
        slab.take(slot);
    }

    // --- The queue against an ordered-set model -------------------------

    /// The queue under test, seen through the three operations the engine
    /// performs on it.
    type Queue = BinaryHeap<Key>;

    fn queue() -> Queue {
        BinaryHeap::with_capacity(SLAB_SLOTS)
    }

    fn next_time(q: &mut Queue) -> Option<Time> {
        q.peek().map(|k| k.at)
    }

    /// 2^15 ticks: the window of the timing wheel the heap replaced.
    /// Scripts push across its edges, both absolute and relative to the
    /// last popped tick.
    const WINDOW: u64 = 1 << 15;

    /// Absolute ticks on the window's edges over three revolutions.
    const EDGES: [u64; 6] = [
        WINDOW - 1,
        WINDOW,
        2 * WINDOW - 1,
        2 * WINDOW,
        3 * WINDOW - 1,
        3 * WINDOW,
    ];

    /// One step of a script. `Push(recipe, r)` picks its tick from the
    /// last popped tick `now` and `r` (see [`tick`]); `PopRipe(r)` is
    /// `pop_chosen`'s pattern, keeping alternative `r % ripe`.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Push(u32, u64),
        Pop,
        NextTime,
        PopRipe(u64),
    }

    /// The tick a push lands on. Never behind `now`: the engine never
    /// schedules into the past.
    fn tick(recipe: u32, r: u64, now: u64) -> u64 {
        match recipe {
            // Anywhere in the first three revolutions.
            0 => r.max(now),
            // The tick just popped.
            1 => now,
            // The near future, where same-tick ties pile up.
            2 => now + r % 64,
            // One short of, on and one past the window's edge ahead.
            3 => now + WINDOW - 1 + r % 3,
            // An absolute window edge.
            4 => EDGES[(r % EDGES.len() as u64) as usize].max(now),
            // One to three whole revolutions ahead.
            _ => now + WINDOW * (1 + r % 3),
        }
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        // Pushes are listed twice, so that the queue grows over a script.
        prop_oneof![
            (0u32..6, 0u64..3 * WINDOW).prop_map(|(k, r)| Step::Push(k, r)),
            (0u32..6, 0u64..3 * WINDOW).prop_map(|(k, r)| Step::Push(k, r)),
            Just(Step::Pop),
            Just(Step::NextTime),
            (0u64..8).prop_map(Step::PopRipe),
        ]
    }

    /// A key whose `to` and `slot` are derived from its `seq`, so that a
    /// popped key can be checked whole.
    fn keyed(at: u64, seq: u64) -> Key {
        Key {
            at: Time(at),
            seq,
            to: ActorId(seq as u32),
            slot: seq as u32,
        }
    }

    fn whole(k: Key) -> (u64, u64, u32, u32) {
        (k.at.0, k.seq, k.to.0, k.slot)
    }

    fn pop_at_seq(q: &mut Queue) -> Option<(u64, u64)> {
        q.pop().map(|k| (k.at.0, k.seq))
    }

    // --- Hand-scripted schedules on the window's edges ------------------

    #[test]
    fn wheel_matches_heap_on_scattered_schedule() {
        // Ticks inside, on and past the window's edge and far beyond it,
        // pushed out of order with ties on equal ticks. The queue must pop
        // them in ascending (at, seq) order: the script sorted.
        let script: Vec<(u64, u64)> = vec![
            (5, 1),
            (0, 2),
            (5, 3),
            (40_000, 4),
            (WINDOW - 1, 5),
            (WINDOW, 6),
            (1_000, 7),
            (0, 8),
            (999_999, 9),
            (40_000, 10),
        ];
        let mut q = queue();
        for &(at, seq) in &script {
            q.push(keyed(at, seq));
        }
        assert_eq!(q.len(), script.len());
        let got: Vec<_> = std::iter::from_fn(|| pop_at_seq(&mut q)).collect();
        let mut sorted = script.clone();
        sorted.sort();
        assert_eq!(got, sorted);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = queue();
        q.push(keyed(10, 1));
        q.push(keyed(20, 2));
        assert_eq!(next_time(&mut q), Some(Time(10)));
        assert_eq!(pop_at_seq(&mut q), Some((10, 1)));
        // Schedule at the tick just popped and far ahead.
        q.push(keyed(10, 3));
        q.push(keyed(100_000, 4));
        assert_eq!(pop_at_seq(&mut q), Some((10, 3)));
        assert_eq!(pop_at_seq(&mut q), Some((20, 2)));
        assert_eq!(next_time(&mut q), Some(Time(100_000)));
        assert_eq!(pop_at_seq(&mut q), Some((100_000, 4)));
        assert_eq!(pop_at_seq(&mut q), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_events_merge_into_correct_tick_order() {
        // Two keys on the tick one past the first window, one pushed
        // before and one after the queue has moved on to tick 1: they
        // still pop in seq order.
        let mut q = queue();
        q.push(keyed(WINDOW, 1));
        q.push(keyed(1, 2));
        assert_eq!(pop_at_seq(&mut q), Some((1, 2)));
        q.push(keyed(WINDOW, 3));
        assert_eq!(pop_at_seq(&mut q), Some((WINDOW, 1)));
        assert_eq!(pop_at_seq(&mut q), Some((WINDOW, 3)));
    }

    #[test]
    fn window_revolution_wraps_cleanly() {
        // Ticks 20 000 apart march through several whole windows.
        let mut q = queue();
        let expect: Vec<(u64, u64)> = (0..10u64).map(|i| (i * 20_000, i)).collect();
        for &(at, seq) in &expect {
            q.push(keyed(at, seq));
        }
        let got: Vec<_> = std::iter::from_fn(|| pop_at_seq(&mut q)).collect();
        assert_eq!(got, expect);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any script of pushes, pops, peeks and choice-hook pops sees the
        /// queue behave like a `BTreeSet` of `(at, seq)`: the same next
        /// time, the same key popped, the same ripe slate, the same length.
        #[test]
        fn queue_pops_like_an_ordered_set(
            script in proptest::collection::vec(arb_step(), 1..400),
        ) {
            let mut q = queue();
            let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for (i, &step) in script.iter().enumerate() {
                match step {
                    Step::Push(recipe, r) => {
                        seq += 1;
                        let at = tick(recipe, r, now);
                        q.push(keyed(at, seq));
                        model.insert((at, seq));
                    }
                    Step::Pop => {
                        let want = model.pop_first().map(|(at, seq)| whole(keyed(at, seq)));
                        prop_assert_eq!(q.pop().map(whole), want, "step {}: pop", i);
                        if let Some((at, ..)) = want {
                            now = at;
                        }
                    }
                    Step::NextTime => {
                        let want = model.first().map(|&(at, _)| Time(at));
                        prop_assert_eq!(next_time(&mut q), want, "step {}: next_time", i);
                    }
                    Step::PopRipe(r) => {
                        let Some(t) = next_time(&mut q) else {
                            prop_assert!(model.is_empty(), "step {}: next_time is None", i);
                            continue;
                        };
                        let mut ripe = Vec::new();
                        while next_time(&mut q) == Some(t) {
                            ripe.push(q.pop().expect("next_time promised a key"));
                        }
                        let want: Vec<_> = model
                            .iter()
                            .take_while(|&&(at, _)| at == t.0)
                            .map(|&(at, seq)| whole(keyed(at, seq)))
                            .collect();
                        let got: Vec<_> = ripe.iter().map(|&k| whole(k)).collect();
                        prop_assert_eq!(got, want, "step {}: ripe slate at {}", i, t.0);
                        let chosen = ripe.remove(r as usize % ripe.len());
                        model.remove(&(chosen.at.0, chosen.seq));
                        for rest in ripe {
                            q.push(rest);
                        }
                        now = t.0;
                    }
                }
                prop_assert_eq!(q.len(), model.len(), "step {}: len", i);
            }
            // Drained, the queue yields the model's remaining order.
            let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(whole).collect();
            let want: Vec<_> = model.iter().map(|&(at, seq)| whole(keyed(at, seq))).collect();
            prop_assert_eq!(rest, want);
        }
    }
}
