//! Dynamic shard rebalancing: the versioned routing table, key-range
//! migrations, and the load-watching policy that triggers them.
//!
//! PR 2's router froze the key → group map at startup (a hash partition),
//! so a skewed workload pins its hot keys to whatever groups the hash
//! chose — forever. This module makes the map a first-class, *versioned*
//! object the router owns and mutates at run time:
//!
//! * [`RoutingTable`] — an explicit key-range → group table (sorted,
//!   non-overlapping, totally covering the key space). Every mutation
//!   bumps the table's version; version `v` is the routing **epoch** and
//!   the property tests pin that versions are strictly monotone and that
//!   every key maps to exactly one group at every epoch.
//! * [`MigrationSpec`] / [`ScriptedMigration`] — one online key-range
//!   migration: move `range` from its current owner to `to`. Migrations
//!   ride the groups' own replicated logs as control entries (below), in
//!   the spirit of keeping reconfiguration in-band rather than as
//!   out-of-band state transfer.
//! * [`RebalancePolicy`] + [`RebalanceConfig`] — watches the commit
//!   stream's per-group and per-key load and, past a threshold (with a
//!   cooldown), picks the hottest key of the hottest group and migrates
//!   it to the coldest group: the hot range splits, one key at a time.
//!
//! # The migration protocol (router-driven)
//!
//! ```text
//!  trigger          seal committed       install committed
//!     │   SEAL──►src    │  snapshot──►dst replicas │   table.migrate()
//!     ▼                 ▼  INSTALL──►dst leader    ▼   (epoch flip)
//!  [hold range cmds]  [compute snapshot]        [replay straddlers,
//!                                                move backlog, resume]
//! ```
//!
//! 1. **Seal.** The router stops submitting commands for `range` (they
//!    are held) and submits a [`seal_value`] control entry to the source
//!    group — through its ordinary replicated log, so the seal is totally
//!    ordered against every command the source ever committed for the
//!    range: everything before the seal is source history, nothing after
//!    it can be.
//! 2. **Snapshot.** When the router observes the seal commit, it
//!    materializes the deterministic snapshot of decided state for the
//!    sealed keys — the set of command ids it has observed committed for
//!    `range` (the router is the service's state observer; a full KV
//!    system would ship the key values alongside). The snapshot goes to
//!    *every* destination replica ([`crate::types::Msg::InstallSnapshot`])
//!    so it survives a destination failover, and primes their session
//!    dedup: a source-committed command can never be re-applied at the
//!    destination.
//! 3. **Install.** An [`install_value`] control entry is committed
//!    through the destination group's log, marking where the range's
//!    history resumes.
//! 4. **Flip.** On observing the install commit the router bumps the
//!    routing table ([`RoutingTable::migrate`]), re-routes the in-flight
//!    commands that straddle the epoch (submitted to the source, never
//!    observed committed — replayed to the destination, exactly-once by
//!    the PR 3 session-dedup ids), moves the held and backlogged range
//!    commands over, and resumes. Per-key order is preserved: all of a
//!    key's destination commits come after the install entry, all its
//!    source commits before the seal entry, and the router releases
//!    nothing to the destination until the flip.
//!
//! Control entries are ordinary log values from the replicas' point of
//! view (the log is opaque ids); [`decode_ctrl`] is how the router — and
//! the tests — tell them apart.

use std::collections::BTreeMap;

use simnet::Time;

use crate::types::Value;

/// A half-open key range `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct KeyRange {
    /// First key of the range.
    pub lo: u64,
    /// One past the last key of the range.
    pub hi: u64,
}

impl KeyRange {
    /// The range covering exactly `key`.
    pub fn single(key: u64) -> KeyRange {
        KeyRange {
            lo: key,
            hi: key + 1,
        }
    }

    /// Whether `key` lies in `[lo, hi)`.
    pub fn contains(&self, key: u64) -> bool {
        self.lo <= key && key < self.hi
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// The versioned key-range → group routing table.
///
/// Invariants (pinned by `tests/rebalance_props.rs`):
///
/// * entries are sorted by range start, starts are strictly increasing,
///   and the first entry starts at key 0 — so every `u64` key maps to
///   **exactly one** group at every version;
/// * [`RoutingTable::migrate`] is the only mutation and bumps
///   [`RoutingTable::version`] by exactly 1 on success (and not at all on
///   a rejected migration) — versions are strictly monotone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingTable {
    /// Routing epoch: bumped by every successful migration.
    version: u64,
    /// `(start, group)`, sorted by start; entry `i` covers
    /// `[start_i, start_{i+1})`, the last entry through `u64::MAX`.
    entries: Vec<(u64, u32)>,
}

impl RoutingTable {
    /// The initial (version 0) table: `key_space` keys split into `groups`
    /// contiguous, evenly sized ranges, group `g` owning the `g`-th.
    /// Keys at or above `key_space` route to the last group.
    pub fn even(key_space: u64, groups: usize) -> RoutingTable {
        assert!(groups > 0, "need at least one group");
        let groups = groups as u64;
        let span = key_space.div_ceil(groups).max(1);
        let entries = (0..groups)
            .map(|g| (g * span, g as u32))
            .take_while(|&(start, g)| g == 0 || start < key_space.max(1))
            .collect();
        RoutingTable {
            version: 0,
            entries,
        }
    }

    /// The current routing epoch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The table's `(range, group)` rows, in key order.
    pub fn ranges(&self) -> Vec<(KeyRange, usize)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, &(start, g))| {
                let hi = self.entries.get(i + 1).map_or(u64::MAX, |&(s, _)| s);
                (KeyRange { lo: start, hi }, g as usize)
            })
            .collect()
    }

    /// The group `key` routes to at the current version.
    pub fn group_of(&self, key: u64) -> usize {
        let i = self.entries.partition_point(|&(start, _)| start <= key);
        self.entries[i - 1].1 as usize
    }

    /// The single group owning *all* of `range`, if there is one.
    pub fn owner_of(&self, range: KeyRange) -> Option<usize> {
        if range.is_empty() {
            return None;
        }
        let g = self.group_of(range.lo);
        // The covering entry must extend through range.hi - 1 (a missing
        // next entry means the cover runs through u64::MAX).
        let i = self
            .entries
            .partition_point(|&(start, _)| start <= range.lo);
        let entry_hi = self.entries.get(i).map_or(u64::MAX, |&(s, _)| s);
        (range.hi <= entry_hi).then_some(g)
    }

    /// Re-routes `range` to group `to`, bumping the version: the epoch
    /// flip at the end of a migration. Fails (leaving version and routing
    /// untouched) if the range is empty, spans more than one owner, or
    /// already routes to `to`. Returns the previous owner.
    pub fn migrate(&mut self, range: KeyRange, to: usize) -> Result<usize, &'static str> {
        let from = self.owner_of(range).ok_or("range spans group boundaries")?;
        if from == to {
            return Err("range already routes to the target group");
        }
        // The owning entry, and what follows the carved-out span.
        let i = self
            .entries
            .partition_point(|&(start, _)| start <= range.lo)
            - 1;
        let entry_start = self.entries[i].0;
        let mut splice: Vec<(u64, u32)> = Vec::with_capacity(3);
        if entry_start < range.lo {
            splice.push((entry_start, from as u32));
        }
        splice.push((range.lo, to as u32));
        let entry_hi = self.entries.get(i + 1).map_or(u64::MAX, |&(s, _)| s);
        if range.hi < entry_hi {
            splice.push((range.hi, from as u32));
        }
        self.entries.splice(i..=i, splice);
        self.version += 1;
        Ok(from)
    }
}

/// One key-range migration, fully specified: move `range` (owned by
/// `from` at trigger time) to group `to`. `id` names the migration in the
/// control entries of both groups' logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationSpec {
    /// Dense migration id (assigned by the router, starting at 0).
    pub id: u64,
    /// The migrating key range.
    pub range: KeyRange,
    /// Source group (the range's owner when the migration triggered).
    pub from: usize,
    /// Destination group.
    pub to: usize,
}

/// A test- or operator-scripted one-shot migration: at virtual time
/// `at_delays`, migrate `range` from its current owner to group `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptedMigration {
    /// Trigger time, in network delays.
    pub at_delays: u64,
    /// The key range to move.
    pub range: KeyRange,
    /// Destination group.
    pub to: usize,
}

// ---------------------------------------------------------------------
// Control entries: migrations ride the replicated logs as ordinary
// values tagged by `Value::CTRL_BIT` (see `Value` for the id space).
// ---------------------------------------------------------------------

/// Second bit distinguishes INSTALL from SEAL.
const CTRL_INSTALL_BIT: u64 = 1 << 62;
/// Migration ids lie below this: the install entry of the next id would
/// be every bit set, which is [`Value::NOOP`].
const MIG_LIMIT: u64 = CTRL_INSTALL_BIT - 1;

/// A decoded control entry (see [`decode_ctrl`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrlEntry {
    /// `SEAL(mig)`: ends the migrating range's history in the source log.
    Seal {
        /// The migration this seal belongs to.
        mig: u64,
    },
    /// `INSTALL(mig)`: starts the range's history in the destination log.
    Install {
        /// The migration this install belongs to.
        mig: u64,
    },
}

/// The source group's seal entry for migration `mig`.
pub fn seal_value(mig: u64) -> Value {
    debug_assert!(mig < MIG_LIMIT);
    Value(Value::CTRL_BIT | mig)
}

/// The destination group's install entry for migration `mig`.
pub fn install_value(mig: u64) -> Value {
    debug_assert!(mig < MIG_LIMIT);
    Value(Value::CTRL_BIT | CTRL_INSTALL_BIT | mig)
}

/// Decodes a log value as a control entry; `None` for client commands and
/// [`Value::NOOP`].
pub fn decode_ctrl(v: Value) -> Option<CtrlEntry> {
    if v.0 & Value::CTRL_BIT == 0 || v == Value::NOOP {
        return None;
    }
    let mig = v.0 & !(Value::CTRL_BIT | CTRL_INSTALL_BIT);
    Some(if v.0 & CTRL_INSTALL_BIT != 0 {
        CtrlEntry::Install { mig }
    } else {
        CtrlEntry::Seal { mig }
    })
}

// ---------------------------------------------------------------------
// The automatic rebalancer.
// ---------------------------------------------------------------------

/// Thresholds and cadence of the automatic rebalancer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalanceConfig {
    /// How often the policy inspects its load window, in delays.
    pub check_every_delays: u64,
    /// Minimum delays between triggered migrations.
    pub cooldown_delays: u64,
    /// A group is *hot* when its share of the window's commits exceeds
    /// this (per mille). Fair share is `1000 / groups`.
    pub hot_group_permille: u32,
    /// Within a hot group, the hottest key must itself carry at least
    /// this share of the group's window commits (per mille) to be worth
    /// moving — a diffusely hot group has no single range to split off.
    pub hot_key_permille: u32,
    /// Windows with fewer commits than this are ignored (cold start,
    /// drain phase).
    pub min_window_commits: u64,
    /// Per-range move hysteresis: a key that just migrated may not be
    /// picked again for this many delays. `0` (the default, and the
    /// pre-hysteresis behaviour) lets a hot range bounce between two
    /// groups under a fast cadence — each move makes the *destination*
    /// hot, so the policy immediately moves the range back. The hold
    /// gives the load window time to forget the transient.
    pub min_hold_delays: u64,
}

impl Default for RebalanceConfig {
    fn default() -> RebalanceConfig {
        RebalanceConfig {
            check_every_delays: 200,
            cooldown_delays: 100,
            hot_group_permille: 300,
            hot_key_permille: 100,
            min_window_commits: 64,
            min_hold_delays: 0,
        }
    }
}

/// Watches the commit stream and decides when (and what) to migrate.
///
/// All state is fed from the router's deterministic commit observations
/// and stored in ordered containers, so the policy's decisions are part
/// of the run's determinism contract (bit-identical across worker thread
/// counts on the partitioned kernel).
#[derive(Clone, Debug)]
pub struct RebalancePolicy {
    cfg: RebalanceConfig,
    /// Commits per group in the current window.
    win_group: Vec<u64>,
    /// Commits per key in the current window (ordered: deterministic
    /// iteration for the hottest-key argmax).
    win_keys: BTreeMap<u64, u64>,
    /// No trigger before this time (cooldown).
    quiet_until: Time,
    /// Per-range move history: when each key was last migrated (and how
    /// often) — the hysteresis state behind
    /// [`RebalanceConfig::min_hold_delays`].
    moved_at: BTreeMap<u64, Time>,
    move_counts: BTreeMap<u64, u32>,
}

impl RebalancePolicy {
    /// A policy over `groups` groups with thresholds `cfg`.
    pub fn new(cfg: RebalanceConfig, groups: usize) -> RebalancePolicy {
        RebalancePolicy {
            cfg,
            win_group: vec![0; groups],
            win_keys: BTreeMap::new(),
            quiet_until: Time(0),
            moved_at: BTreeMap::new(),
            move_counts: BTreeMap::new(),
        }
    }

    /// How many times the policy has migrated `key` so far.
    pub fn moves_of(&self, key: u64) -> u32 {
        self.move_counts.get(&key).copied().unwrap_or(0)
    }

    /// The policy's cadence, in delays.
    pub fn check_every_delays(&self) -> u64 {
        self.cfg.check_every_delays
    }

    /// Feeds one observed commit (key `key`, committed by group `group`)
    /// into the current window.
    pub fn observe(&mut self, key: u64, group: usize) {
        self.win_group[group] += 1;
        *self.win_keys.entry(key).or_insert(0) += 1;
    }

    /// Discards the current window without deciding anything — the
    /// check-tick path while a migration is already in flight (deciding
    /// would burn the cooldown on a trigger the router must drop).
    pub fn skip_window(&mut self) {
        self.win_keys.clear();
        self.win_group.iter_mut().for_each(|c| *c = 0);
    }

    /// Inspects the window and proposes a migration if the load is skewed
    /// enough: the hottest key of the hottest group moves to the coldest
    /// group. Resets the window either way. Deterministic: candidates
    /// come from ordered containers and every tie-break is fixed.
    pub fn decide(&mut self, table: &RoutingTable, now: Time) -> Option<(KeyRange, usize)> {
        let total: u64 = self.win_group.iter().sum();
        let groups = self.win_group.len();
        let win_keys = std::mem::take(&mut self.win_keys);
        let win_group = std::mem::replace(&mut self.win_group, vec![0; groups]);
        if total < self.cfg.min_window_commits || now < self.quiet_until {
            return None;
        }
        let hot = (0..win_group.len()).max_by_key(|&g| win_group[g])?;
        if win_group[hot] * 1000 < self.cfg.hot_group_permille as u64 * total {
            return None;
        }
        // Hottest key currently routed to the hot group — skipping keys
        // still under their post-move hold (the hysteresis that stops a
        // hot range bouncing between two groups under a fast cadence).
        let hold_ticks = self.cfg.min_hold_delays * simnet::TICKS_PER_DELAY;
        let (key, count) = win_keys
            .iter()
            .filter(|&(&k, _)| table.group_of(k) == hot)
            .filter(|&(&k, _)| {
                hold_ticks == 0
                    || self
                        .moved_at
                        .get(&k)
                        .is_none_or(|&t| now.0 >= t.0 + hold_ticks)
            })
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&k, &c)| (k, c))?;
        if count * 1000 < self.cfg.hot_key_permille as u64 * win_group[hot] {
            return None;
        }
        let cold = (0..win_group.len())
            .filter(|&g| g != hot)
            .min_by_key(|&g| win_group[g])?;
        self.quiet_until = Time(now.0 + self.cfg.cooldown_delays * simnet::TICKS_PER_DELAY);
        self.moved_at.insert(key, now);
        *self.move_counts.entry(key).or_insert(0) += 1;
        Some((KeyRange::single(key), cold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_table_covers_the_key_space() {
        let t = RoutingTable::even(4096, 4);
        assert_eq!(t.version(), 0);
        assert_eq!(t.group_of(0), 0);
        assert_eq!(t.group_of(1023), 0);
        assert_eq!(t.group_of(1024), 1);
        assert_eq!(t.group_of(4095), 3);
        assert_eq!(
            t.group_of(u64::MAX),
            3,
            "out-of-space keys route to the last group"
        );
        assert_eq!(t.ranges().len(), 4);
    }

    #[test]
    fn migrate_splits_and_bumps_version() {
        let mut t = RoutingTable::even(4096, 4);
        let from = t.migrate(KeyRange::single(5), 2).unwrap();
        assert_eq!(from, 0);
        assert_eq!(t.version(), 1);
        assert_eq!(t.group_of(5), 2);
        assert_eq!(t.group_of(4), 0);
        assert_eq!(t.group_of(6), 0);
        // A wider interior range.
        let from = t.migrate(KeyRange { lo: 1100, hi: 1200 }, 3).unwrap();
        assert_eq!(from, 1);
        assert_eq!(t.version(), 2);
        assert_eq!(t.group_of(1099), 1);
        assert_eq!(t.group_of(1150), 3);
        assert_eq!(t.group_of(1200), 1);
    }

    #[test]
    fn migrate_rejects_split_owners_and_noops() {
        let mut t = RoutingTable::even(4096, 4);
        assert!(t.migrate(KeyRange { lo: 1000, hi: 1100 }, 3).is_err());
        assert!(t.migrate(KeyRange::single(5), 0).is_err());
        assert!(t.migrate(KeyRange { lo: 9, hi: 9 }, 1).is_err());
        assert_eq!(
            t.version(),
            0,
            "rejected migrations must not bump the version"
        );
    }

    #[test]
    fn ctrl_encoding_round_trips_and_avoids_reserved_values() {
        assert_eq!(decode_ctrl(seal_value(7)), Some(CtrlEntry::Seal { mig: 7 }));
        assert_eq!(
            decode_ctrl(install_value(7)),
            Some(CtrlEntry::Install { mig: 7 })
        );
        assert_eq!(
            decode_ctrl(Value(u64::MAX)),
            None,
            "no-op filler is not ctrl"
        );
        assert_eq!(decode_ctrl(Value(0)), None);
        assert_eq!(decode_ctrl(Value(123_456)), None);
    }

    #[test]
    fn policy_moves_the_hot_key_to_the_cold_group() {
        let table = RoutingTable::even(4096, 4);
        let mut p = RebalancePolicy::new(
            RebalanceConfig {
                min_window_commits: 10,
                ..RebalanceConfig::default()
            },
            4,
        );
        // Key 3 (group 0) dominates; group 2 is coldest.
        for _ in 0..50 {
            p.observe(3, 0);
        }
        for _ in 0..9 {
            p.observe(2000, 1);
            p.observe(3000, 2);
            p.observe(3100, 3);
        }
        p.observe(3000, 2); // break the 1/3 tie: 2 is not coldest
        let got = p
            .decide(&table, Time(1_000_000))
            .expect("skew should trigger");
        assert_eq!(got, (KeyRange::single(3), 1));
        // Window reset: an immediate re-check has nothing to act on.
        assert_eq!(p.decide(&table, Time(1_000_001)), None);
    }

    #[test]
    fn policy_respects_cooldown_and_min_window() {
        let table = RoutingTable::even(4096, 2);
        let cfg = RebalanceConfig {
            min_window_commits: 100,
            cooldown_delays: 50,
            ..RebalanceConfig::default()
        };
        let mut p = RebalancePolicy::new(cfg, 2);
        for _ in 0..99 {
            p.observe(1, 0);
        }
        assert_eq!(p.decide(&table, Time(0)), None, "below min window");
        for _ in 0..200 {
            p.observe(1, 0);
        }
        assert!(p.decide(&table, Time(0)).is_some());
        for _ in 0..200 {
            p.observe(1, 0);
        }
        let in_cooldown = Time(10 * simnet::TICKS_PER_DELAY);
        assert_eq!(p.decide(&table, in_cooldown), None, "cooldown ignored");
    }
}
