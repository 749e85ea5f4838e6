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

use std::{fmt, vec};

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
        snapshots: Vec<vec::IntoIter<(RegId, V)>>,
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
    spare_snapshots: Vec<Vec<vec::IntoIter<(RegId, V)>>>,
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

    /// Starts a logical write of `value` to `reg` (through `region`).
    pub fn write(
        &mut self,
        ctx: &mut Context<'_, M>,
        client: &mut MemoryClient<V, M>,
        region: RegionId,
        reg: RegId,
        value: V,
    ) -> RepId {
        let id = self.fresh();
        let tracker = QuorumTracker::majority(self.memories.len());
        self.pending
            .insert(id.0, Pending::Vote(tracker, VoteKind::Write));
        for i in 0..self.memories.len() {
            let mem = self.memories[i];
            let op = client.write(ctx, mem, region, reg, value.clone());
            self.child_to_parent.insert(op.0, id);
        }
        id
    }

    /// Starts a logical read of `reg` (through `region`).
    pub fn read(
        &mut self,
        ctx: &mut Context<'_, M>,
        client: &mut MemoryClient<V, M>,
        region: RegionId,
        reg: RegId,
    ) -> RepId {
        let id = self.fresh();
        let tracker = QuorumTracker::majority(self.memories.len());
        let values = self.spare_values.pop().unwrap_or_default();
        self.pending.insert(id.0, Pending::Read { tracker, values });
        for i in 0..self.memories.len() {
            let mem = self.memories[i];
            let op = client.read(ctx, mem, region, reg);
            self.child_to_parent.insert(op.0, id);
        }
        id
    }

    /// Starts a logical range read of `region`, optionally filtered to a
    /// sub-pattern of registers.
    pub fn read_range(
        &mut self,
        ctx: &mut Context<'_, M>,
        client: &mut MemoryClient<V, M>,
        region: RegionId,
        within: Option<rdma_sim::RegionSpec>,
    ) -> RepId {
        let id = self.fresh();
        let tracker = QuorumTracker::majority(self.memories.len());
        let snapshots = self.spare_snapshots.pop().unwrap_or_default();
        self.pending
            .insert(id.0, Pending::Range { tracker, snapshots });
        for i in 0..self.memories.len() {
            let mem = self.memories[i];
            let op = client.read_range(ctx, mem, region, within);
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
        let id = self.fresh();
        let tracker = QuorumTracker::majority(self.memories.len());
        self.pending
            .insert(id.0, Pending::Vote(tracker, VoteKind::Perm));
        for i in 0..self.memories.len() {
            let mem = self.memories[i];
            let op = client.change_perm(ctx, mem, region, new.clone());
            self.child_to_parent.insert(op.0, id);
        }
        id
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
        let pending = self.pending.get_mut(id.0)?;
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
                    snapshots.push(rows.into_iter());
                    match tracker.vote_yes() {
                        QuorumStatus::Reached => Some(RepResult::RangeOk(merge_ranges(snapshots))),
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
                if self.spare_snapshots.len() < SCRATCH_POOL_CAP {
                    // The per-replica rows came off the wire and were
                    // consumed by the merge (or are dropped here on
                    // failure); the outer buffer's capacity is what
                    // recurs every slot.
                    snapshots.clear();
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

/// Applies the unique-value rule per register across replica snapshots,
/// each sorted strictly ascending by `RegId` (a memory answers a range
/// read in register order): a k-way merge that moves every value off the
/// wire into the result, never cloning one, and returns rows in the same
/// order. A register absent from a snapshot counts as ⊥ there (and ⊥
/// never conflicts); a register with two distinct replica values is
/// dropped, however many replicas agree with either.
fn merge_ranges<V: Eq>(snapshots: &mut [vec::IntoIter<(RegId, V)>]) -> Vec<(RegId, V)> {
    let head = |s: &vec::IntoIter<(RegId, V)>| s.as_slice().first().map(|(r, _)| *r);
    // Replicas that agree hold the same rows: the largest snapshot is the
    // exact size of the merge unless a register is missing from it.
    let widest = snapshots.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(widest);
    while let Some(reg) = snapshots.iter().filter_map(head).min() {
        // `None` until a replica holds `reg`; `Some(None)` once two
        // replicas disagree.
        let mut unique: Option<Option<V>> = None;
        for s in snapshots.iter_mut() {
            if head(s) != Some(reg) {
                continue;
            }
            let (_, v) = s.next().expect("a head was peeked");
            match &unique {
                None => unique = Some(Some(v)),
                Some(Some(u)) if *u != v => unique = Some(None),
                Some(_) => {}
            }
        }
        debug_assert!(
            snapshots.iter().filter_map(head).all(|r| r > reg),
            "a range snapshot is not strictly ascending"
        );
        if let Some(Some(v)) = unique {
            out.push((reg, v));
        }
    }
    out
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

    /// Runs the merge over whole snapshots.
    fn merge<V: Eq>(snaps: Vec<Vec<(RegId, V)>>) -> Vec<(RegId, V)> {
        let mut snaps: Vec<_> = snaps.into_iter().map(Vec::into_iter).collect();
        merge_ranges(&mut snaps)
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
