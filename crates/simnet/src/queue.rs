//! The event queue of the simulation kernel.
//!
//! Two structures, one per job. [`WheelQueue`] *orders*: it holds one
//! 24-byte [`Key`] `(at, seq, to, slot)` per queued entry and nothing of
//! the event itself. [`EventSlab`] *stores*: the event a key stands for
//! sits in slab slot `key.slot` from the moment it is sent until the
//! moment it is dispatched — written once, read once — while only the key
//! moves through `pending`, buckets, the far heap, the arrival sort and
//! the choice hook's pop-and-push-back. (The queue used to carry the
//! events themselves: a service message was 192 bytes then, and every
//! queued event was copied six to seven times on its way to its handler.) A
//! scheduled crash has no event: its key carries the sentinel slot
//! [`Key::CRASH`].
//!
//! [`WheelQueue`] is a bucketed calendar queue ("timing wheel") of
//! one-tick buckets over a 2^15-tick near-future window, with a two-level
//! occupancy bitmap to find the next non-empty tick in a handful of word
//! operations, and a [`BinaryHeap`] fallback for far-future entries (they
//! migrate into the wheel as virtual time approaches them). Push and pop
//! are O(1) in the common case. (The pre-overhaul kernel used a plain
//! [`BinaryHeap`]; the tests below still pop one against the wheel to pin
//! the identical `(time, seq)` order.)
//!
//! [`EventSlab`] is a `Vec` of optional events plus a LIFO list of vacant
//! slots: the slot a dispatch just emptied is the one the handler's first
//! send fills, so the slab never grows past the deepest the queue got
//! plus one dispatch's emissions, and the hot slots stay in cache.
//!
//! ## Determinism contract
//!
//! Keys pop in strictly ascending `(at, seq)` order, where `seq` is the
//! kernel-assigned scheduling sequence number. The wheel guarantees this
//! by (a) advancing its cursor tick-to-tick through the occupancy bitmaps,
//! and (b) sorting each bucket by `seq` when the cursor arrives on it
//! (buckets can receive keys out of sequence order when far-future
//! entries drain in next to directly-scheduled ones; the sort is
//! O(k log k) over tiny, mostly-sorted buckets). Keys scheduled for the
//! tick currently being dispatched always carry a higher `seq` than
//! anything already in the bucket, so appends preserve sortedness. Which
//! slot an event occupies is never observable: no order, sequence number
//! or RNG draw depends on it.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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

/// Slots the slab and its vacancy list are sized for at construction:
/// twice the deepest queue of any benchmark workload (9 / 9 / 57 / 21
/// entries), so a service run pays no growth step for either vector.
const SLAB_SLOTS: usize = 128;

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

/// log2 of the wheel window, in ticks. 2^15 = 32768 ticks ≈ 32 network
/// delays: every common-case message (1–4 delays) and retry timer (20–30
/// delays) lands in the wheel; only long failure-detection timeouts and
/// scripted far-future stimuli take the heap detour.
const RING_BITS: u32 = 15;
const RING: usize = 1 << RING_BITS;
const RING_MASK: u64 = (RING - 1) as u64;
const WORDS: usize = RING / 64;
const SUMMARY_WORDS: usize = WORDS / 64;

/// Bucketed calendar queue with far-future heap fallback.
pub(crate) struct WheelQueue {
    /// One bucket per tick of the window `[cursor, cursor + RING)`,
    /// indexed by `tick & RING_MASK`.
    buckets: Box<[VecDeque<Key>]>,
    /// Bit per bucket: bucket may be non-empty. Only the cursor's own bit
    /// can be stale (cleared lazily when the cursor advances).
    occupied: Box<[u64]>,
    /// Bit per `occupied` word: word is non-zero.
    summary: [u64; SUMMARY_WORDS],
    /// Current tick: every event before it has been popped.
    cursor: u64,
    /// Entries at `cursor + RING` or later, ordered like the legacy heap.
    far: BinaryHeap<Key>,
    /// Memoized [`WheelQueue::next_time`] result; invalidated by any push
    /// or pop. The run loop peeks before every step, so this halves the
    /// bitmap scans.
    cached_next: Option<Option<Time>>,
    len: usize,
}

impl WheelQueue {
    pub(crate) fn new() -> WheelQueue {
        WheelQueue {
            buckets: (0..RING).map(|_| VecDeque::new()).collect(),
            occupied: vec![0u64; WORDS].into_boxed_slice(),
            summary: [0; SUMMARY_WORDS],
            cursor: 0,
            far: BinaryHeap::new(),
            cached_next: None,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn set_bit(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occupied[w] |= 1u64 << (slot & 63);
        self.summary[w >> 6] |= 1u64 << (w & 63);
    }

    fn clear_bit(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occupied[w] &= !(1u64 << (slot & 63));
        if self.occupied[w] == 0 {
            self.summary[w >> 6] &= !(1u64 << (w & 63));
        }
    }

    /// Absolute tick of an occupied `slot`, given that all ring content
    /// lies in `[cursor, cursor + RING)`.
    fn tick_of(&self, slot: usize) -> u64 {
        let offset = (slot as u64).wrapping_sub(self.cursor) & RING_MASK;
        self.cursor + offset
    }

    /// First word index in `w_lo..w_hi` whose occupancy word is non-zero,
    /// found through the summary bitmap (a handful of word operations
    /// regardless of gap size).
    fn scan_words(&self, w_lo: usize, w_hi: usize) -> Option<usize> {
        if w_lo >= w_hi {
            return None;
        }
        let s0 = w_lo >> 6;
        let s_end = (w_hi - 1) >> 6;
        // Partial first summary word.
        let mut m = self.summary[s0] & (u64::MAX << (w_lo & 63));
        let mut s = s0;
        while m == 0 && s < s_end {
            s += 1;
            m = self.summary[s];
        }
        if m == 0 {
            return None;
        }
        let w = (s << 6) + m.trailing_zeros() as usize;
        (w < w_hi).then_some(w)
    }

    /// Next occupied slot strictly after `start` in circular ring order
    /// (i.e. the nearest future tick's slot).
    fn next_occupied_after(&self, start: usize) -> Option<usize> {
        let w0 = start >> 6;
        let b0 = start & 63;
        // Remaining bits of the start word, excluding `start` itself.
        let mask = if b0 == 63 { 0 } else { u64::MAX << (b0 + 1) };
        let m = self.occupied[w0] & mask;
        if m != 0 {
            return Some((w0 << 6) + m.trailing_zeros() as usize);
        }
        // Later words, then wrap around; rechecking w0 on the wrapped pass
        // picks up bits below b0 (ticks in the next window revolution).
        let w = self
            .scan_words(w0 + 1, WORDS)
            .or_else(|| self.scan_words(0, w0 + 1))?;
        Some((w << 6) + self.occupied[w].trailing_zeros() as usize)
    }

    fn ring_insert(&mut self, ev: Key) {
        let slot = (ev.at.0 & RING_MASK) as usize;
        self.buckets[slot].push_back(ev);
        self.set_bit(slot);
    }

    /// Moves far-future events that have come inside the window into the
    /// ring. Heap pops arrive in `(at, seq)` order, so same-tick runs land
    /// in a bucket already sorted relative to each other.
    fn drain_far(&mut self) {
        let horizon = self.cursor + RING as u64;
        while self.far.peek().is_some_and(|top| top.at.0 < horizon) {
            let ev = self.far.pop().expect("peeked");
            self.ring_insert(ev);
        }
    }

    pub(crate) fn push(&mut self, ev: Key) {
        debug_assert!(
            ev.at.0 >= self.cursor,
            "event scheduled behind the wheel cursor"
        );
        self.len += 1;
        // Cheap cache maintenance: a known next time only improves; an
        // unknown one (None) stays unknown.
        match self.cached_next {
            Some(Some(t)) if ev.at < t => self.cached_next = Some(Some(ev.at)),
            Some(None) => self.cached_next = Some(Some(ev.at)),
            _ => {}
        }
        if ev.at.0 >= self.cursor + RING as u64 {
            self.far.push(ev);
        } else {
            self.ring_insert(ev);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Key> {
        if self.len == 0 {
            return None;
        }
        self.cached_next = None;
        self.drain_far();
        loop {
            let cslot = (self.cursor & RING_MASK) as usize;
            if let Some(ev) = self.buckets[cslot].pop_front() {
                self.len -= 1;
                return Some(ev);
            }
            // Current tick exhausted: retire its (possibly stale) bit and
            // advance the cursor to the next occupied tick.
            self.clear_bit(cslot);
            match self.next_occupied_after(cslot) {
                Some(slot) => {
                    self.cursor = self.tick_of(slot);
                    let bucket = &mut self.buckets[slot];
                    if bucket.len() > 1 {
                        bucket.make_contiguous().sort_unstable_by_key(|e| e.seq);
                    }
                }
                None => {
                    // Ring empty; jump to the far heap (non-empty, since
                    // len > 0) and pull its head tick in.
                    self.cursor = self.far.peek()?.at.0;
                    self.drain_far();
                }
            }
        }
    }

    /// Virtual time of the next event, without consuming it or moving the
    /// cursor. Memoized between mutations.
    pub(crate) fn next_time(&mut self) -> Option<Time> {
        if let Some(cached) = self.cached_next {
            return cached;
        }
        let next = self.compute_next_time();
        self.cached_next = Some(next);
        next
    }

    fn compute_next_time(&mut self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        self.drain_far();
        let cslot = (self.cursor & RING_MASK) as usize;
        if !self.buckets[cslot].is_empty() {
            return Some(Time(self.cursor));
        }
        if let Some(slot) = self.next_occupied_after(cslot) {
            if !self.buckets[slot].is_empty() {
                return Some(Time(self.tick_of(slot)));
            }
        }
        self.far.peek().map(|ev| ev.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, seq: u64) -> Key {
        Key {
            at: Time(at),
            seq,
            to: ActorId(0),
            slot: Key::CRASH,
        }
    }

    #[test]
    fn a_key_is_three_words() {
        // What every bucket, the far heap and `pending` hold per entry,
        // whatever the message type.
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

    #[test]
    fn wheel_matches_heap_on_scattered_schedule() {
        // Ticks spanning in-window, boundary, and far-future ranges,
        // deliberately inserted out of order with seq ties on equal ticks.
        // A plain binary heap (the pre-overhaul queue) is the ordering
        // reference: both must pop in identical ascending (at, seq) order.
        let script: Vec<(u64, u64)> = vec![
            (5, 1),
            (0, 2),
            (5, 3),
            (40_000, 4), // beyond the 32768-tick window: heap fallback
            (32_767, 5), // last in-window tick
            (32_768, 6), // first out-of-window tick
            (1_000, 7),
            (0, 8),
            (999_999, 9),
            (40_000, 10),
        ];
        let mut wheel = WheelQueue::new();
        let mut heap: BinaryHeap<Key> = BinaryHeap::new();
        for &(at, seq) in &script {
            wheel.push(ev(at, seq));
            heap.push(ev(at, seq));
        }
        assert_eq!(wheel.len(), script.len());
        let mut w = Vec::new();
        while let Some(e) = wheel.pop() {
            w.push((e.at.0, e.seq));
        }
        let mut h = Vec::new();
        while let Some(e) = heap.pop() {
            h.push((e.at.0, e.seq));
        }
        assert_eq!(w, h);
        // And the order really is ascending (at, seq).
        let mut sorted = w.clone();
        sorted.sort();
        assert_eq!(w, sorted);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = WheelQueue::new();
        q.push(ev(10, 1));
        q.push(ev(20, 2));
        assert_eq!(q.next_time(), Some(Time(10)));
        let first = q.pop().unwrap();
        assert_eq!((first.at.0, first.seq), (10, 1));
        // Schedule at the current tick (cursor == 10) and far ahead.
        q.push(ev(10, 3));
        q.push(ev(100_000, 4));
        assert_eq!(q.pop().map(|e| (e.at.0, e.seq)), Some((10, 3)));
        assert_eq!(q.pop().map(|e| (e.at.0, e.seq)), Some((20, 2)));
        assert_eq!(q.next_time(), Some(Time(100_000)));
        assert_eq!(q.pop().map(|e| (e.at.0, e.seq)), Some((100_000, 4)));
        assert_eq!(q.pop().map(|e| (e.at.0, e.seq)), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_events_merge_into_correct_tick_order() {
        let mut q = WheelQueue::new();
        // Tick 32768 is one past the initial window: seq 1 starts in the
        // far heap. After the cursor advances to 1 the window covers it,
        // so seq 3 goes straight to the ring bucket — which then receives
        // far-drained seq 1 *after* seq 3. The arrival sort must restore
        // seq order.
        q.push(ev(32_768, 1));
        q.push(ev(1, 2));
        assert_eq!(q.pop().map(|e| (e.at.0, e.seq)), Some((1, 2)));
        q.push(ev(32_768, 3));
        assert_eq!(q.pop().map(|e| (e.at.0, e.seq)), Some((32_768, 1)));
        assert_eq!(q.pop().map(|e| (e.at.0, e.seq)), Some((32_768, 3)));
    }

    #[test]
    fn window_revolution_wraps_cleanly() {
        let mut q = WheelQueue::new();
        let mut expect = Vec::new();
        // March the cursor through several full window revolutions.
        for i in 0..10u64 {
            let at = i * 20_000;
            q.push(ev(at, i));
            expect.push((at, i));
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push((e.at.0, e.seq));
        }
        assert_eq!(got, expect);
    }
}
