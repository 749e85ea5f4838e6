//! The log and workload state of a replicated-log node.
//!
//! [`LogCore`] is the data half of the replica shell
//! ([`Replica`](super::Replica)): the decided log, client-session dedup,
//! the run-time workload queue ([`crate::types::Msg::Submit`]), write
//! batching's fill-a-batch bookkeeping, and migration-snapshot folding
//! ([`crate::types::Msg::InstallSnapshot`]). It is the same under both
//! engines, so the sharded service's per-group [`GroupMode`] switch
//! changes the consensus protocol and nothing else.
//!
//! The workload cursor has one owner: [`LogCore::fill_own`] advances it
//! past the slots a round consumes and hands the round its
//! `(consumed, suppressed)` pair, which the round carries until it is
//! banked ([`LogCore::bank_suppressed`]) or rolled back
//! ([`LogCore::unconsume`]). Nothing about an in-flight round is kept
//! here.
//!
//! The decided log is stored as what it is in steady state, one dense
//! run from instance 0: a settle that reaches the end of that run appends
//! its undecided tail in one copy and records one `(first, len, time)`
//! run, never an entry at a time. What a settle decides past a hole waits
//! in an ordered map until the hole closes, and an instance far past the
//! log costs its own entries, not its index.
//!
//! [`GroupMode`]: crate::sharded::GroupMode

use std::collections::BTreeMap;

use simnet::Time;

use crate::types::Value;

/// Ids per page of an [`IdSet`]: one bit each, 512 bytes a page.
const ID_PAGE_BITS: u64 = 4096;

/// [`ID_PAGE_BITS`] consecutive ids, one bit each.
#[derive(Debug)]
struct IdPage {
    /// `id / ID_PAGE_BITS` of every id in the page.
    number: u64,
    bits: [u64; (ID_PAGE_BITS / 64) as usize],
}

/// The page `id` falls in, and its word and bit there.
fn id_bit(id: u64) -> (u64, usize, u64) {
    let bit = id % ID_PAGE_BITS;
    (id / ID_PAGE_BITS, (bit / 64) as usize, 1 << (bit % 64))
}

/// A set of command ids, shaped for what the ids are: the sharded
/// router's dense 1-based sequence, inserted roughly in order — so a
/// bitmap, in pages (the page list of `rdma-sim`'s paged log store). A
/// page is a constant size and added by the first id that falls in it,
/// never sized by the id: a sparse id (a migration control entry at bit
/// 63, whatever a Byzantine leader got decided) costs one page and no
/// more.
#[derive(Debug, Default)]
struct IdSet {
    /// Sorted by page number: a miss of the last-page cache is a binary
    /// search. Pages sit in the list itself, so the set's only allocations
    /// are the list's doublings (five for 200 000 dense ids).
    pages: Vec<IdPage>,
    /// The page last inserted into — where the next id of a dense sequence
    /// falls.
    last: usize,
}

impl IdSet {
    fn find(&self, number: u64) -> Result<usize, usize> {
        match self.pages.get(self.last) {
            Some(page) if page.number == number => Ok(self.last),
            _ => self.pages.binary_search_by_key(&number, |page| page.number),
        }
    }

    fn contains(&self, id: u64) -> bool {
        let (number, word, mask) = id_bit(id);
        (self.find(number)).is_ok_and(|at| self.pages[at].bits[word] & mask != 0)
    }

    fn insert(&mut self, id: u64) {
        let (number, word, mask) = id_bit(id);
        self.last = self.find(number).unwrap_or_else(|at| {
            let bits = [0; (ID_PAGE_BITS / 64) as usize];
            self.pages.insert(at, IdPage { number, bits });
            at
        });
        self.pages[self.last].bits[word] |= mask;
    }

    fn extend(&mut self, ids: impl IntoIterator<Item = u64>) {
        ids.into_iter().for_each(|id| self.insert(id));
    }
}

/// One replica's post-run state as run reports read it: the decided log
/// and the suppression counters, filled by
/// [`Replica::replica_state`](super::Replica::replica_state). The
/// `Default` is what a slot occupied by an adversary reports; counters an
/// engine does not have stay 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaState {
    /// The contiguous decided prefix of the log.
    pub log: Vec<Value>,
    /// Duplicate proposals suppressed by client-session dedup.
    pub duplicates_suppressed: u64,
    /// Peers caught equivocating and blocked (Byzantine mode).
    pub equivocations_blocked: u64,
    /// Receipts that failed the takeover provenance check (Byzantine mode).
    pub receipts_rejected: u64,
    /// Wire input refused unapplied: validly signed batches that started
    /// beyond any dense log (Byzantine mode; see [`super::byz`]'s threat
    /// model) and `Decided*` claims from outside the group (crash mode).
    pub entries_rejected: u64,
    /// Batches settled at the fast path's write ack (Byzantine mode).
    pub fast_commits: u64,
}

/// The log + workload state machine shared by every SMR protocol.
///
/// Nothing here touches the network: the shell calls
/// [`LogCore::settle_many`] when its engine decides instances, and
/// [`LogCore::fill_own`] to build each proposal round, closed by
/// [`LogCore::bank_suppressed`] (committed) or [`LogCore::unconsume`]
/// (abandoned). Both halves return enough for the shell to drive
/// notifications and metrics.
#[derive(Debug)]
pub struct LogCore {
    /// Commands this node wants committed (its client workload).
    pub workload: Vec<Value>,
    /// Workload entries committed (or dedup-consumed) so far.
    pub next_cmd: usize,
    /// Client-session dedup: when enabled, a leader skips proposing
    /// commands whose ids it has already seen decided — the at-least-once
    /// duplicates a retrying client (the sharded router) creates by
    /// re-submitting in-flight commands on failover.
    pub dedup: bool,
    /// Ids observed decided (populated only when `dedup` is on).
    seen_cmds: IdSet,
    /// Total duplicate proposals suppressed over the run (committed
    /// rounds only; abandoned rounds re-evaluate from scratch).
    pub duplicates_suppressed: u64,
    /// The contiguous decided prefix of the log: instance `i` at index `i`.
    prefix: Vec<Value>,
    /// Instances decided past the first hole, drained onto `prefix` as the
    /// hole closes. Empty in steady state.
    beyond: BTreeMap<u64, Value>,
    /// One past the highest instance a settle has reached.
    top: u64,
    /// `(first, len, time)` of each run of instances a settle newly
    /// decided, in decision order: one record per settle in steady state.
    runs: Vec<(u64, u64, Time)>,
}

impl LogCore {
    /// Creates the core with this node's initial proposal workload.
    pub fn new(workload: Vec<Value>) -> LogCore {
        LogCore {
            workload,
            next_cmd: 0,
            dedup: false,
            seen_cmds: IdSet::default(),
            duplicates_suppressed: 0,
            prefix: Vec::new(),
            beyond: BTreeMap::new(),
            top: 0,
            runs: Vec::new(),
        }
    }

    /// The contiguous decided prefix of the log.
    pub fn log(&self) -> Vec<Value> {
        self.prefix.clone()
    }

    /// Length of the contiguous decided prefix (O(1)).
    pub fn log_len(&self) -> usize {
        self.prefix.len()
    }

    /// The decided value of `instance`, if any (including beyond a hole).
    pub fn decided(&self, instance: u64) -> Option<Value> {
        match usize::try_from(instance) {
            Ok(at) if at < self.prefix.len() => Some(self.prefix[at]),
            _ => self.beyond.get(&instance).copied(),
        }
    }

    /// One past the highest instance a settle has reached — the settled
    /// frontier a dense wire may start at or below.
    pub fn settled_top(&self) -> u64 {
        self.top
    }

    /// `(instance, time)` each instance was first decided at this node, in
    /// decision order (instance order under a stable leader).
    pub fn decided_at(&self) -> Vec<(u64, Time)> {
        let entries = self.runs.iter().map(|&(_, len, _)| len as usize).sum();
        let mut out = Vec::with_capacity(entries);
        for &(first, len, t) in &self.runs {
            out.extend((first..first + len).map(|i| (i, t)));
        }
        out
    }

    /// Whether the proposal workload has been fully consumed.
    pub fn workload_drained(&self) -> bool {
        self.next_cmd >= self.workload.len()
    }

    /// Appends run-time routed commands to the proposal workload.
    pub fn submit(&mut self, cmds: &[Value]) {
        self.workload.extend_from_slice(cmds);
    }

    /// Folds a key-range migration snapshot into the dedup seen-set (the
    /// ids the source group already committed for the sealed range).
    pub fn install_snapshot(&mut self, seen: Vec<u64>) {
        if self.dedup {
            self.seen_cmds.extend(seen);
        }
    }

    /// Fills `out` with up to `batch` fresh workload commands for the
    /// round proposing instances `first_instance ..`, consuming workload
    /// slots and skipping already-seen ids when dedup is on. `barred`
    /// marks instances that must not be filled from the workload (a
    /// recovered value waits there); filling stops at the first barred
    /// instance. `pending` marks values already carried by an unsettled
    /// in-flight round (a pipelined leader's earlier slots, or adopted
    /// recovery values not yet re-committed) — with dedup on they are
    /// suppressed exactly like seen ids, since at window 1 every such
    /// value settles into `seen_cmds` before a fresh fill can observe
    /// it. When everything available was a duplicate, a no-op filler is
    /// emitted so the round still advances the log.
    ///
    /// The round takes what it consumed, so another round can start while
    /// this one is still replicating: the workload cursor advances past
    /// every consumed slot — the next fill reads fresh commands — and
    /// `(consumed, suppressed)` is returned for the round to carry.
    /// Proposed values equal consumed slots minus dedup-suppressed ones
    /// (without dedup the two coincide). On commit the owner banks the
    /// suppression count ([`LogCore::bank_suppressed`]); on abandonment it
    /// rolls the cursor back ([`LogCore::unconsume`]).
    pub fn fill_own(
        &mut self,
        batch: usize,
        first_instance: u64,
        barred: impl Fn(u64) -> bool,
        pending: impl Fn(Value) -> bool,
        out: &mut Vec<Value>,
    ) -> (usize, u64) {
        let (mut consumed, mut suppressed) = (0, 0);
        while out.len() < batch && self.next_cmd + consumed < self.workload.len() {
            // A recovered value downstream ends the batch: it must
            // head its own round.
            if barred(first_instance + out.len() as u64) {
                break;
            }
            let v = self.workload[self.next_cmd + consumed];
            consumed += 1;
            // Session dedup: skip commands already seen decided (the
            // router's at-least-once failover re-submissions). The
            // skipped slot is still consumed from the workload.
            if self.dedup && v != Value::NOOP && (self.seen_cmds.contains(v.0) || pending(v)) {
                suppressed += 1;
                continue;
            }
            out.push(v);
        }
        if out.is_empty() {
            // No command of our own (or all remaining were
            // duplicates): commit a no-op filler.
            out.push(Value::NOOP);
        }
        self.next_cmd += consumed;
        (consumed, suppressed)
    }

    /// Banks a committed round's dedup-suppression count (the cursor
    /// already advanced in [`LogCore::fill_own`]).
    pub fn bank_suppressed(&mut self, suppressed: u64) {
        self.duplicates_suppressed += suppressed;
    }

    /// Rolls the workload cursor back over an abandoned round's consumed
    /// slots, so a later round re-proposes them.
    pub fn unconsume(&mut self, consumed: usize) {
        debug_assert!(consumed <= self.next_cmd, "rollback past the cursor");
        self.next_cmd -= consumed.min(self.next_cmd);
    }

    /// Marks `instance` decided as `v` (first decision wins): the
    /// one-value case of [`LogCore::settle_many`], with its guard.
    pub fn settle(&mut self, now: Time, instance: u64, v: Value) -> bool {
        self.settle_many(now, instance, &[v])
    }

    /// Applies a contiguous decided run `first .. first + values.len()`.
    /// Instances already decided are skipped, exactly as per-entry
    /// [`LogCore::settle`] would. Returns true if anything was new. A run
    /// whose end is not a representable index settles nothing (`first`
    /// may come off the wire; the shell admits it only from group members
    /// and the Byzantine engine bounds it by the settled frontier before
    /// it gets here, see [`super::byz`]).
    ///
    /// While no hole is open, a run that starts at or below the end of the
    /// log appends its undecided tail in one copy and records one run;
    /// every other run goes entry by entry.
    pub fn settle_many(&mut self, now: Time, first: u64, values: &[Value]) -> bool {
        let Some(end) = (usize::try_from(first).ok()).and_then(|f| f.checked_add(values.len()))
        else {
            return false;
        };
        self.top = self.top.max(end as u64);
        let len = self.prefix.len();
        if self.beyond.is_empty() && first as usize <= len {
            let tail = &values[(len - first as usize).min(values.len())..];
            if tail.is_empty() {
                return false;
            }
            self.prefix.extend_from_slice(tail);
            self.see(tail);
            self.record(now, len as u64, tail.len() as u64);
            return true;
        }
        let mut any_new = false;
        for (instance, &v) in (first..).zip(values) {
            if self.decided(instance).is_some() {
                continue;
            }
            if instance == self.prefix.len() as u64 {
                self.prefix.push(v);
                // What waited past the hole joins the prefix as it closes.
                while let Some(w) = self.beyond.remove(&(self.prefix.len() as u64)) {
                    self.prefix.push(w);
                }
            } else {
                self.beyond.insert(instance, v);
            }
            self.see(&[v]);
            self.record(now, instance, 1);
            any_new = true;
        }
        any_new
    }

    /// Records `first .. first + len` as decided at `now`, extending the
    /// last run when this one continues it at the same time (the
    /// per-instance list reads the same either way).
    fn record(&mut self, now: Time, first: u64, len: u64) {
        match self.runs.last_mut() {
            Some((start, n, at)) if *at == now && *start + *n == first => *n += len,
            _ => self.runs.push((first, len, now)),
        }
    }

    /// Records newly decided values in the dedup seen-set: every value
    /// but [`Value::NOOP`], control entries included, so a control entry
    /// re-sent after a failover is suppressed like a command.
    fn see(&mut self, values: &[Value]) {
        if self.dedup {
            let ids = values.iter().filter(|&&v| v != Value::NOOP);
            self.seen_cmds.extend(ids.map(|v| v.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settle_prefix_and_holes() {
        let mut c = LogCore::new(Vec::new());
        assert!(c.settle(Time(1), 0, Value(10)));
        assert!(c.settle(Time(2), 2, Value(30)));
        assert_eq!(c.log(), vec![Value(10)]);
        assert_eq!(c.log_len(), 1);
        assert!(c.settle(Time(3), 1, Value(20)));
        assert_eq!(c.log(), vec![Value(10), Value(20), Value(30)]);
        // First decision wins.
        assert!(!c.settle(Time(4), 1, Value(99)));
        assert_eq!(c.decided(1), Some(Value(20)));
    }

    #[test]
    fn settle_many_refuses_an_unrepresentable_run() {
        let mut c = LogCore::new(Vec::new());
        assert!(!c.settle_many(Time(1), u64::MAX, &[Value(1), Value(2)]));
        assert!(!c.settle(Time(1), u64::MAX, Value(1)), "same guard");
        assert_eq!((c.settled_top(), c.decided_at()), (0, Vec::new()));
        assert!(c.settle_many(Time(2), 0, &[Value(1), Value(2)]));
        assert_eq!(c.log(), vec![Value(1), Value(2)]);
    }

    /// A run far past the log costs its own entries, not its index: on a
    /// log indexed by instance, this settle asked for 16 TiB.
    #[test]
    fn a_run_far_past_the_log_costs_its_entries_not_its_index() {
        let mut c = LogCore::new(Vec::new());
        let far = 1 << 40;
        assert!(c.settle(Time(1), far, Value(7)));
        assert_eq!(c.log_len(), 0);
        assert_eq!(c.decided(far), Some(Value(7)));
        assert_eq!(c.settled_top(), far + 1);
        assert_eq!(c.decided_at(), vec![(far, Time(1))]);
        assert!(c.settle_many(Time(2), 0, &[Value(1), Value(2)]));
        assert_eq!(
            (c.log(), c.decided(far)),
            (vec![Value(1), Value(2)], Some(Value(7)))
        );
    }

    /// In steady state a settle is one copy and one record, however long
    /// its run; re-settling decided instances records nothing.
    #[test]
    fn a_dense_settle_appends_its_undecided_tail_as_one_run() {
        let mut c = LogCore::new(Vec::new());
        let batch: Vec<Value> = (0..32).map(Value).collect();
        assert!(c.settle_many(Time(1), 0, &batch));
        assert!(c.settle_many(Time(2), 16, &batch));
        assert!(!c.settle_many(Time(3), 8, &batch[..8]));
        assert_eq!(c.runs, vec![(0, 32, Time(1)), (32, 16, Time(2))]);
        assert!(c.beyond.is_empty());
        assert_eq!((c.log_len(), c.decided(47)), (48, Some(Value(31))));
    }

    /// The seen-set's pages are a constant size, allocated by the ids
    /// that fall in them and never sized by an id — the ids are values a
    /// Byzantine leader can get decided. The top of the id space neither
    /// panics (debug) nor wraps onto another id (release).
    #[test]
    fn id_set_allocates_a_page_per_4096_dense_ids_and_one_per_far_id() {
        let mut dense = IdSet::default();
        dense.extend(1..=3 * ID_PAGE_BITS);
        assert_eq!(dense.pages.len(), 4, "ids 1..=12288 span pages 0..=3");
        assert!((1..=3 * ID_PAGE_BITS).all(|id| dense.contains(id)));
        assert!(!dense.contains(0) && !dense.contains(3 * ID_PAGE_BITS + 1));

        let far = [
            u64::MAX,
            1 << 40,
            u64::MAX - ID_PAGE_BITS,
            1 << 63,
            1 << 63 | 1 << 62,
            7,
        ];
        let mut sparse = IdSet::default();
        for (k, &id) in far.iter().enumerate() {
            assert!(!sparse.contains(id), "{id} before its insert");
            sparse.insert(id);
            sparse.insert(id); // idempotent
            assert_eq!(sparse.pages.len(), k + 1, "one page for {id}");
            assert!(
                sparse.pages.capacity() <= (2 * k).max(4),
                "room for {k} ids"
            );
        }
        assert!(sparse.pages.windows(2).all(|w| w[0].number < w[1].number));
        assert!(far.iter().all(|&id| sparse.contains(id)));
        // Neighbours in a far id's page, and the ids it would alias if
        // page or bit arithmetic wrapped, are absent.
        for absent in [
            u64::MAX - 1,
            0,
            ID_PAGE_BITS - 1,
            (1 << 40) + 1,
            (1 << 63) - 1,
        ] {
            assert!(!sparse.contains(absent), "{absent}");
        }
        let bytes = std::mem::size_of_val(&sparse.pages[0].bits);
        assert_eq!(bytes as u64, ID_PAGE_BITS / 8);
    }

    #[test]
    fn fill_own_dedups_and_fills_noop() {
        let mut c = LogCore::new(vec![Value(1), Value(2), Value(3)]);
        c.dedup = true;
        c.seen_cmds.insert(1);
        c.seen_cmds.insert(2);
        c.seen_cmds.insert(3);
        let mut out = Vec::new();
        let (consumed, suppressed) = c.fill_own(4, 0, |_| false, |_| false, &mut out);
        assert_eq!(out, vec![Value(u64::MAX)], "all duplicates -> filler");
        assert_eq!((consumed, suppressed), (3, 3));
        assert_eq!(c.next_cmd, 3);
        c.bank_suppressed(suppressed);
        assert_eq!(c.duplicates_suppressed, 3);
        assert!(c.workload_drained());
    }

    #[test]
    fn fill_own_stops_at_barred_instance() {
        let mut c = LogCore::new(vec![Value(1), Value(2), Value(3)]);
        let mut out = Vec::new();
        let (consumed, _) = c.fill_own(4, 10, |i| i == 12, |_| false, &mut out);
        assert_eq!(out, vec![Value(1), Value(2)]);
        assert_eq!((consumed, c.next_cmd), (2, 2));
    }
}
