//! The replication engine: logical operations on registers replicated
//! across `m` fail-prone memories.
//!
//! Implements the construction the paper cites in §4.1 (from Afek et al.,
//! Attiya–Bar-Noy–Dolev, and Jayanti et al.): *"To implement an SWMR
//! register, a process writes or reads all memories, and waits for a
//! majority to respond. When reading, if p sees exactly one distinct non-⊥
//! value v across the memories, it returns v; otherwise, it returns ⊥."*
//!
//! With `m ≥ 2·f_M + 1` memories of which at most `f_M` crash, every
//! operation completes, and the resulting logical register is a **regular**
//! SWMR register: a read concurrent with a write may return either the old
//! value (⊥, since our protocols never overwrite) or the new one.
//!
//! The engine is a sub-state-machine: protocols start logical operations,
//! feed it every memory completion, and receive [`RepEvent`]s when logical
//! operations finish.

use std::fmt;
use std::sync::Arc;

use rdma_sim::{
    Completion, MemEmbed, MemResponse, MemoryClient, OpId, Permission, RegId, RegionId, WireSize,
};
use simnet::{ActorId, Context};

use crate::quorum::{QuorumStatus, QuorumTracker};
use crate::window::{Window, WINDOW_SPAN};

/// Identifies a logical (replicated) operation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RepId(pub u64);

impl fmt::Debug for RepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rep{}", self.0)
    }
}

/// Outcome of a logical operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepResult<V> {
    /// The write reached a majority of memories.
    WriteOk,
    /// A majority of acknowledgements is no longer possible (permission
    /// naks). This is how a deposed Cheap Quorum leader learns its write
    /// permission was revoked.
    WriteFailed,
    /// Read completed; `None` is ⊥ (no value, or no unique value).
    ReadOk(Option<V>),
    /// A majority of read responses is no longer possible.
    ReadFailed,
    /// Range read completed: the registers whose value was unique across
    /// the majority, as rows sorted strictly ascending by `RegId`
    /// (registers with conflicting replicas are omitted, i.e. read as ⊥;
    /// look one up with `binary_search_by_key`).
    RangeOk(Vec<(RegId, V)>),
    /// A majority of range-read responses is no longer possible.
    RangeFailed,
    /// The permission change was applied by a majority of memories.
    PermOk,
    /// The permission change was rejected by a majority-blocking set.
    PermFailed,
}

/// A finished logical operation.
#[derive(Clone, Debug)]
pub struct RepEvent<V> {
    /// The id returned when the operation was started.
    pub id: RepId,
    /// The outcome.
    pub result: RepResult<V>,
}

enum Pending<V> {
    Vote(QuorumTracker, VoteKind),
    Read {
        tracker: QuorumTracker,
        values: Vec<Option<V>>,
    },
    Range {
        tracker: QuorumTracker,
        snapshots: Vec<Vec<(RegId, V)>>,
    },
}

#[derive(Clone, Copy)]
enum VoteKind {
    Write,
    Perm,
}

/// How many finished-operation buffers the engine keeps for reuse. In
/// steady state a protocol has a handful of logical operations in flight
/// per engine; the cap only bounds pathological bursts.
const SCRATCH_POOL_CAP: usize = 16;

/// The most rows a range buffer may hold room for and still be kept for
/// reuse: a windowed read fetches a few dozen, while a whole-space scan's
/// buffers are dropped rather than held for the engine's lifetime.
const SPARE_ROWS_MAX: usize = 1024;

/// Replicates register operations across a fixed set of memories.
pub struct RepEngine<V, M> {
    memories: Vec<ActorId>,
    next: u64,
    /// The logical operation of each memory operation not yet answered,
    /// by `OpId`: the client numbers its operations in order, whoever
    /// issues them, so this engine's ids rise with gaps.
    child_to_parent: Window<RepId>,
    /// Unfinished logical operations, by `RepId` (dense: this engine
    /// numbers them).
    pending: Window<Pending<V>>,
    /// Recycled read-value buffers: replication allocates nothing per slot
    /// once warm.
    spare_values: Vec<Vec<Option<V>>>,
    /// Recycled range-snapshot buffers.
    spare_snapshots: Vec<Vec<Vec<(RegId, V)>>>,
    /// Recycled rows: each range read sends one to every memory as its
    /// `into` buffer, and replica snapshots, merged results the caller
    /// hands back ([`RepEngine::recycle_rows`]) and answers that arrive
    /// after the quorum return here.
    spare_rows: Vec<Vec<(RegId, V)>>,
    _msg: std::marker::PhantomData<M>,
}

impl<V, M> fmt::Debug for RepEngine<V, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RepEngine")
            .field("memories", &self.memories)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<V, M> RepEngine<V, M>
where
    V: Clone + Eq + fmt::Debug + WireSize + 'static,
    M: MemEmbed<V>,
{
    /// An engine replicating over `memories`. For fault tolerance `f_M`,
    /// callers must supply `m ≥ 2·f_M + 1` memories.
    ///
    /// # Panics
    ///
    /// Panics if `memories` is empty.
    pub fn new(memories: Vec<ActorId>) -> RepEngine<V, M> {
        RepEngine::with_span(memories, WINDOW_SPAN)
    }

    /// [`RepEngine::new`] with tables whose rings span `span` ids.
    pub(crate) fn with_span(memories: Vec<ActorId>, span: usize) -> RepEngine<V, M> {
        assert!(!memories.is_empty(), "need at least one memory");
        RepEngine {
            memories,
            next: 0,
            child_to_parent: Window::new(span),
            pending: Window::new(span),
            spare_values: Vec::new(),
            spare_snapshots: Vec::new(),
            spare_rows: Vec::new(),
            _msg: std::marker::PhantomData,
        }
    }

    /// The replica set.
    pub fn memories(&self) -> &[ActorId] {
        &self.memories
    }

    fn fresh(&mut self) -> RepId {
        self.next += 1;
        RepId(self.next)
    }

    /// Starts a logical operation waiting on `pending`: one memory
    /// operation per memory, each issued by `issue`.
    fn start(
        &mut self,
        ctx: &mut Context<'_, M>,
        client: &mut MemoryClient<V, M>,
        pending: Pending<V>,
        mut issue: impl FnMut(&mut Context<'_, M>, &mut MemoryClient<V, M>, ActorId) -> OpId,
    ) -> RepId {
        let id = self.fresh();
        self.pending.insert(id.0, pending);
        for i in 0..self.memories.len() {
            let op = issue(ctx, client, self.memories[i]);
            self.child_to_parent.insert(op.0, id);
        }
        id
    }

    fn tracker(&self) -> QuorumTracker {
        QuorumTracker::majority(self.memories.len())
    }

    /// Starts a logical write of `value` to `reg` (through `region`).
    pub fn write(
        &mut self,
        ctx: &mut Context<'_, M>,
        client: &mut MemoryClient<V, M>,
        region: RegionId,
        reg: RegId,
        value: V,
    ) -> RepId {
        let pending = Pending::Vote(self.tracker(), VoteKind::Write);
        self.start(ctx, client, pending, |ctx, client, mem| {
            client.write(ctx, mem, region, reg, value.clone())
        })
    }

    /// Starts a logical write of every `(register, value)` of `writes`
    /// (through `region`): one batched write per memory — one round trip
    /// whatever it carries, all or nothing at each memory — sharing the
    /// one buffer, and complete at a majority of acks like
    /// [`RepEngine::write`].
    pub fn write_many(
        &mut self,
        ctx: &mut Context<'_, M>,
        client: &mut MemoryClient<V, M>,
        region: RegionId,
        writes: Arc<[(RegId, V)]>,
    ) -> RepId {
        let pending = Pending::Vote(self.tracker(), VoteKind::Write);
        self.start(ctx, client, pending, |ctx, client, mem| {
            client.write_many(ctx, mem, region, writes.clone())
        })
    }

    /// Starts a logical read of `reg` (through `region`).
    pub fn read(
        &mut self,
        ctx: &mut Context<'_, M>,
        client: &mut MemoryClient<V, M>,
        region: RegionId,
        reg: RegId,
    ) -> RepId {
        let tracker = self.tracker();
        let values = self.spare_values.pop().unwrap_or_default();
        let pending = Pending::Read { tracker, values };
        self.start(ctx, client, pending, |ctx, client, mem| {
            client.read(ctx, mem, region, reg)
        })
    }

    /// Starts a logical range read of the registers of `region` that are
    /// also in `within`.
    pub fn read_range(
        &mut self,
        ctx: &mut Context<'_, M>,
        client: &mut MemoryClient<V, M>,
        region: RegionId,
        within: rdma_sim::RegionSpec,
    ) -> RepId {
        let id = self.fresh();
        let tracker = self.tracker();
        let snapshots = self.spare_snapshots.pop().unwrap_or_default();
        self.pending
            .insert(id.0, Pending::Range { tracker, snapshots });
        for i in 0..self.memories.len() {
            let into = self.spare_rows.pop().unwrap_or_default();
            let op = client.read_range(ctx, self.memories[i], region, within, into);
            self.child_to_parent.insert(op.0, id);
        }
        id
    }

    /// Starts a logical permission change on `region`.
    pub fn change_perm(
        &mut self,
        ctx: &mut Context<'_, M>,
        client: &mut MemoryClient<V, M>,
        region: RegionId,
        new: Permission,
    ) -> RepId {
        let pending = Pending::Vote(self.tracker(), VoteKind::Perm);
        self.start(ctx, client, pending, |ctx, client, mem| {
            client.change_perm(ctx, mem, region, new.clone())
        })
    }

    /// Takes back a range read's rows once the caller is done with them
    /// (a [`RepResult::RangeOk`]'s): the next range read sends the buffer
    /// to a memory to fill, so a steady stream of reads allocates nothing.
    pub fn recycle_rows(&mut self, rows: Vec<(RegId, V)>) {
        keep_rows(&mut self.spare_rows, rows);
    }

    /// Logical operations started and not finished yet.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Whether `op` is a memory operation this engine issued and has not
    /// been fed the completion of yet.
    pub fn owns(&self, op: OpId) -> bool {
        self.child_to_parent.contains(op.0)
    }

    /// Feeds one memory completion. Returns the logical completion if this
    /// response finished a logical operation.
    pub fn on_completion(&mut self, c: Completion<V>) -> Option<RepEvent<V>> {
        let id = self.child_to_parent.remove(c.op.0)?;
        let Some(pending) = self.pending.get_mut(id.0) else {
            // An answer after the quorum: only its buffer is of use.
            if let MemResponse::Range(rows) = c.resp {
                keep_rows(&mut self.spare_rows, rows);
            }
            return None;
        };
        let event = match pending {
            Pending::Vote(tracker, kind) => {
                let ok = c.resp.is_ok();
                let status = if ok {
                    tracker.vote_yes()
                } else {
                    tracker.vote_no()
                };
                let kind = *kind;
                match status {
                    QuorumStatus::Pending => None,
                    QuorumStatus::Reached => Some(match kind {
                        VoteKind::Write => RepResult::WriteOk,
                        VoteKind::Perm => RepResult::PermOk,
                    }),
                    QuorumStatus::Impossible => Some(match kind {
                        VoteKind::Write => RepResult::WriteFailed,
                        VoteKind::Perm => RepResult::PermFailed,
                    }),
                }
            }
            Pending::Read { tracker, values } => match c.resp {
                MemResponse::Value(v) => {
                    values.push(v);
                    match tracker.vote_yes() {
                        QuorumStatus::Reached => {
                            Some(RepResult::ReadOk(unique_value(values.iter().cloned())))
                        }
                        QuorumStatus::Impossible => Some(RepResult::ReadFailed),
                        QuorumStatus::Pending => None,
                    }
                }
                _ => match tracker.vote_no() {
                    QuorumStatus::Impossible => Some(RepResult::ReadFailed),
                    _ => None,
                },
            },
            Pending::Range { tracker, snapshots } => match c.resp {
                MemResponse::Range(rows) => {
                    snapshots.push(rows);
                    match tracker.vote_yes() {
                        QuorumStatus::Reached => {
                            let rows = merged(snapshots, &mut self.spare_rows);
                            Some(RepResult::RangeOk(rows))
                        }
                        QuorumStatus::Impossible => Some(RepResult::RangeFailed),
                        QuorumStatus::Pending => None,
                    }
                }
                _ => match tracker.vote_no() {
                    QuorumStatus::Impossible => Some(RepResult::RangeFailed),
                    _ => None,
                },
            },
        };
        event.map(|result| {
            if let Some(done) = self.pending.remove(id.0) {
                self.recycle(done);
            }
            RepEvent { id, result }
        })
    }

    /// Returns a finished operation's buffers to the scratch pools.
    fn recycle(&mut self, done: Pending<V>) {
        match done {
            Pending::Vote(..) => {}
            Pending::Read { mut values, .. } => {
                if self.spare_values.len() < SCRATCH_POOL_CAP {
                    values.clear();
                    self.spare_values.push(values);
                }
            }
            Pending::Range { mut snapshots, .. } => {
                for rows in snapshots.drain(..) {
                    keep_rows(&mut self.spare_rows, rows);
                }
                if self.spare_snapshots.len() < SCRATCH_POOL_CAP {
                    self.spare_snapshots.push(snapshots);
                }
            }
        }
    }
}

/// The paper's read rule: exactly one distinct non-⊥ value, else ⊥.
fn unique_value<V: Eq>(values: impl Iterator<Item = Option<V>>) -> Option<V> {
    let mut unique: Option<V> = None;
    for v in values.flatten() {
        match &unique {
            None => unique = Some(v),
            Some(u) if *u == v => {}
            Some(_) => return None, // two distinct non-⊥ values
        }
    }
    unique
}

/// Keeps `rows`' buffer in `spare` for a later range read, emptied, unless
/// the pool is full or the buffer is too large to be worth holding.
fn keep_rows<V>(spare: &mut Vec<Vec<(RegId, V)>>, mut rows: Vec<(RegId, V)>) {
    if spare.len() < SCRATCH_POOL_CAP && (1..=SPARE_ROWS_MAX).contains(&rows.capacity()) {
        rows.clear();
        spare.push(rows);
    }
}

/// The unique-value rule over a quorum's range snapshots, merged into a
/// spare buffer; every snapshot's buffer goes back to `spare`, and
/// `snapshots` is left empty.
fn merged<V: Eq>(
    snapshots: &mut Vec<Vec<(RegId, V)>>,
    spare: &mut Vec<Vec<(RegId, V)>>,
) -> Vec<(RegId, V)> {
    let mut out = spare.pop().unwrap_or_default();
    merge_ranges(snapshots, &mut out);
    for rows in snapshots.drain(..) {
        keep_rows(spare, rows);
    }
    out
}

/// Applies the unique-value rule per register across replica snapshots,
/// each sorted strictly ascending by `RegId` (a memory answers a range
/// read in register order), into `out` (emptied first): a k-way merge
/// from the top that moves every value off the snapshots into `out`,
/// never cloning one, and leaves each snapshot empty with its buffer
/// intact. `out` ends in the snapshots' ascending order. A register
/// absent from a snapshot counts as ⊥ there (and ⊥ never conflicts); a
/// register with two distinct replica values is dropped, however many
/// replicas agree with either.
fn merge_ranges<V: Eq>(snapshots: &mut [Vec<(RegId, V)>], out: &mut Vec<(RegId, V)>) {
    let tail = |s: &Vec<(RegId, V)>| s.last().map(|(r, _)| *r);
    out.clear();
    // Replicas that agree hold the same rows: the largest snapshot is the
    // exact size of the merge unless a register is missing from it.
    out.reserve(snapshots.iter().map(Vec::len).max().unwrap_or(0));
    while let Some(reg) = snapshots.iter().filter_map(tail).max() {
        // `None` until a replica holds `reg`; `Some(None)` once two
        // replicas disagree.
        let mut unique: Option<Option<V>> = None;
        for s in snapshots.iter_mut() {
            if tail(s) != Some(reg) {
                continue;
            }
            let (_, v) = s.pop().expect("a tail was peeked");
            match &unique {
                None => unique = Some(Some(v)),
                Some(Some(u)) if *u != v => unique = Some(None),
                Some(_) => {}
            }
        }
        debug_assert!(
            snapshots.iter().filter_map(tail).all(|r| r < reg),
            "a range snapshot is not strictly ascending"
        );
        if let Some(Some(v)) = unique {
            out.push((reg, v));
        }
    }
    out.reverse();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn unique_value_rule() {
        assert_eq!(unique_value::<u8>([None, None].into_iter()), None);
        assert_eq!(unique_value([Some(1), None, Some(1)].into_iter()), Some(1));
        assert_eq!(unique_value([Some(1), Some(2)].into_iter()), None);
        assert_eq!(unique_value([None, Some(3)].into_iter()), Some(3));
    }

    /// Runs the merge over whole snapshots, and checks that it moved
    /// every row out of them.
    fn merge<V: Eq>(mut snaps: Vec<Vec<(RegId, V)>>) -> Vec<(RegId, V)> {
        let mut out = Vec::new();
        merge_ranges(&mut snaps, &mut out);
        assert!(snaps.iter().all(Vec::is_empty));
        out
    }

    /// Looks a register up in merged rows.
    fn get<V>(rows: &[(RegId, V)], reg: RegId) -> Option<&V> {
        let at = rows.binary_search_by_key(&reg, |(r, _)| *r).ok()?;
        Some(&rows[at].1)
    }

    #[test]
    fn merge_ranges_unique_per_register() {
        let r1 = RegId::one(1, 1);
        let r2 = RegId::one(1, 2);
        let snaps = vec![
            vec![(r1, 10), (r2, 20)],
            vec![(r1, 10)],
            vec![(r1, 11), (r2, 20)], // r1 conflicts here
        ];
        let merged = merge(snaps);
        assert_eq!(get(&merged, r1), None);
        assert_eq!(get(&merged, r2), Some(&20));
    }

    /// The merge takes the snapshots by value, so it works for values
    /// that cannot be cloned at all — and a conflict still reads ⊥ even
    /// when later replicas agree with the first again.
    #[test]
    fn merge_ranges_moves_values_and_conflicts_stay_bot() {
        #[derive(PartialEq, Eq, Debug)]
        struct NoClone(u8);
        let r1 = RegId::one(1, 1);
        let r2 = RegId::one(1, 2);
        let r3 = RegId::one(1, 3);
        let snaps = vec![
            vec![(r1, NoClone(1)), (r3, NoClone(3))],
            vec![(r1, NoClone(9)), (r2, NoClone(2))],
            vec![(r1, NoClone(1)), (r3, NoClone(3))],
        ];
        let merged = merge(snaps);
        assert_eq!(
            get(&merged, r1),
            None,
            "9 conflicted; a third vote cannot revive it"
        );
        assert_eq!(
            get(&merged, r2),
            Some(&NoClone(2)),
            "absent replicas are ⊥, never a conflict"
        );
        assert_eq!(get(&merged, r3), Some(&NoClone(3)));
        assert_eq!(merged.len(), 2);
    }

    /// The merge as it was written over ordered maps: the reference the
    /// k-way merge is checked against.
    fn reference_merge<V: Eq>(
        snapshots: impl Iterator<Item = Vec<(RegId, V)>>,
    ) -> BTreeMap<RegId, V> {
        use std::collections::btree_map::Entry;
        let mut out: BTreeMap<RegId, Option<V>> = BTreeMap::new();
        for (reg, v) in snapshots.flatten() {
            match out.entry(reg) {
                Entry::Vacant(slot) => {
                    slot.insert(Some(v));
                }
                Entry::Occupied(mut slot) => {
                    if slot.get().as_ref().is_some_and(|u| *u != v) {
                        slot.insert(None); // conflicting replicas: reads as ⊥
                    }
                }
            }
        }
        out.into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    use proptest::collection::{btree_map, vec};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Up to five replica snapshots over twelve registers in two
        /// spaces, three values each: registers every replica agrees on,
        /// registers some replicas lack, and registers replicas disagree
        /// on all occur.
        #[test]
        fn merge_ranges_matches_the_ordered_map_merge(
            snaps in vec(btree_map((1u16..3, 0u64..2, 0u64..3), 0u32..3, 0..12), 1..6),
        ) {
            let snaps: Vec<Vec<(RegId, u32)>> = snaps
                .into_iter()
                .map(|m| m.into_iter().map(|((s, a, b), v)| (RegId::new(s, a, b, 0), v)).collect())
                .collect();
            let want: Vec<(RegId, u32)> = reference_merge(snaps.clone().into_iter()).into_iter().collect();
            let got = merge(snaps);
            prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "not strictly ascending: {got:?}");
            prop_assert_eq!(got, want);
        }
    }
}
