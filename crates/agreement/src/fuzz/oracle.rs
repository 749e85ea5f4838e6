//! The fuzzer's oracle: runs a scenario and audits the report against
//! the service's safety contract.
//!
//! Everything here is stated over the *committed logs* (plus the
//! harness's own invariant flags), so the oracle is independent of how
//! the run was scheduled:
//!
//! - **Nothing lost** — every client command id `1..=total_cmds`
//!   appears in some group's log within the (generous) budget.
//! - **Nothing duplicated** — no client id appears twice across all
//!   logs (exactly-once, the session-dedup contract).
//! - **No per-key reordering** — two same-key commands separated by at
//!   least a full closed-loop window are causally ordered (the earlier
//!   one was confirmed before the later was submitted), so their log
//!   order must match id order. Same-key commands *within* one window
//!   are concurrent — any order linearizes — and are not constrained.
//! - **Replica agreement & partition respect** — the report's
//!   `all_logs_agree` / `no_cross_group_leak` flags hold.
//! - **Determinism** (sampled) — replaying the same scenario yields a
//!   bit-identical report, and on the partitioned kernel the worker
//!   thread count never changes the run.
//!
//! The per-key order check is skipped under dynamic routing: a migration
//! replays held commands at the destination, which re-orders histories
//! across the seal/install boundary by design; exactly-once and the leak
//! check still apply there.

use std::collections::BTreeMap;
use std::fmt;

use crate::harness::{run_sharded, ShardedRunReport, ShardedScenario};
use crate::sharded::{group_of_key, sample_keys, GroupMode};

/// A safety-contract violation found by the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The run ended inside its budget with commands never committed.
    Stalled {
        /// Unique commands committed.
        committed: usize,
        /// Commands submitted.
        total: usize,
    },
    /// Some replica's log diverged from its group's longest log.
    LogsDiverged {
        /// The offending group.
        group: usize,
    },
    /// A client command id appears more than once across the logs.
    Duplicated {
        /// The duplicated command id.
        id: u64,
        /// The group whose log holds the second occurrence.
        group: usize,
    },
    /// A command id vanished even though the report claims completion.
    Lost {
        /// The missing command id.
        id: u64,
    },
    /// A committed command landed in a group the routing does not map
    /// it to.
    CrossGroupLeak,
    /// Two same-key commands separated by a full window committed in
    /// the wrong order.
    PerKeyReorder {
        /// The shared key.
        key: u64,
        /// The group whose log shows the inversion.
        group: usize,
        /// The earlier (smaller) command id.
        earlier: u64,
        /// The later command id, found ahead of `earlier` in the log.
        later: u64,
    },
    /// Byzantine suppression counters are nonzero in an all-crash run.
    PhantomByzActivity,
    /// Re-running the identical scenario produced a different report.
    NondeterministicReplay,
    /// A partitioned run changed under a different worker-thread count.
    ThreadSweepDiverged {
        /// The thread count whose report diverged from single-threaded.
        threads: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::Stalled { committed, total } => {
                write!(
                    f,
                    "stalled: {committed}/{total} commands committed in budget"
                )
            }
            Violation::LogsDiverged { group } => {
                write!(f, "replica logs diverged in group {group}")
            }
            Violation::Duplicated { id, group } => {
                write!(
                    f,
                    "command {id} committed twice (second copy in group {group})"
                )
            }
            Violation::Lost { id } => write!(f, "command {id} lost"),
            Violation::CrossGroupLeak => write!(f, "command committed in a wrong group"),
            Violation::PerKeyReorder {
                key,
                group,
                earlier,
                later,
            } => write!(
                f,
                "key {key}: command {later} committed before {earlier} in group {group} \
                 despite a full-window separation"
            ),
            Violation::PhantomByzActivity => {
                write!(
                    f,
                    "Byzantine suppression counters nonzero in an all-crash run"
                )
            }
            Violation::NondeterministicReplay => {
                write!(f, "same seed, different run")
            }
            Violation::ThreadSweepDiverged { threads } => {
                write!(f, "partitioned run changed at {threads} worker threads")
            }
        }
    }
}

/// Which sampled (expensive) checks [`check_deep`] performs on top of
/// the single-run audit.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeepChecks {
    /// Re-run the scenario and require a bit-identical report.
    pub replay: bool,
    /// On partitioned scenarios, re-run at 2 and 4 worker threads and
    /// require bit-identical reports.
    pub thread_sweep: bool,
}

/// Runs `sc` once and audits the report. `Ok` carries the report so
/// callers can aggregate statistics.
pub fn check(sc: &ShardedScenario) -> Result<ShardedRunReport, Violation> {
    let r = run_sharded(sc);
    audit_report(sc, &r)?;
    Ok(r)
}

/// [`check`] plus the sampled determinism checks in `deep`.
pub fn check_deep(sc: &ShardedScenario, deep: DeepChecks) -> Result<ShardedRunReport, Violation> {
    let r = check(sc)?;
    if deep.replay && run_sharded(sc) != r {
        return Err(Violation::NondeterministicReplay);
    }
    if deep.thread_sweep && sc.partitions > 1 {
        for threads in [2usize, 4] {
            let mut swept = sc.clone();
            swept.threads = threads;
            if run_sharded(&swept) != r {
                return Err(Violation::ThreadSweepDiverged { threads });
            }
        }
    }
    Ok(r)
}

/// Audits one report against the safety contract without re-running
/// anything — the single-run half of [`check`], exposed so callers that
/// already hold a report (the schedule explorer audits every explored
/// interleaving) can reuse the exact same contract.
pub fn audit_report(sc: &ShardedScenario, r: &ShardedRunReport) -> Result<(), Violation> {
    for (g, group) in r.groups.iter().enumerate() {
        if !group.logs_agree {
            return Err(Violation::LogsDiverged { group: g });
        }
    }

    // Exactly-once across the whole service.
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for (g, group) in r.groups.iter().enumerate() {
        for &v in &group.log {
            if v.client_id(sc.total_cmds).is_some() && seen.insert(v.0, g).is_some() {
                return Err(Violation::Duplicated { id: v.0, group: g });
            }
        }
    }

    if !r.all_committed {
        return Err(Violation::Stalled {
            committed: r.committed,
            total: sc.total_cmds,
        });
    }
    for id in 1..=sc.total_cmds as u64 {
        if !seen.contains_key(&id) {
            return Err(Violation::Lost { id });
        }
    }

    if !r.no_cross_group_leak {
        return Err(Violation::CrossGroupLeak);
    }

    if sc.group_modes.iter().all(|&m| m == GroupMode::CrashPmp)
        && (r.equivocations_blocked != 0
            || r.byz_receipts_rejected != 0
            || r.byz_entries_rejected != 0
            || r.byz_unconfirmed_claims != 0
            || r.byz_fast_commits != 0
            || r.byz_fast_confirms != 0)
    {
        return Err(Violation::PhantomByzActivity);
    }

    if !sc.dynamic_routing() {
        per_key_order(sc, r)?;
    }
    Ok(())
}

/// The per-key order check (static routing only; see the module doc).
fn per_key_order(sc: &ShardedScenario, r: &ShardedRunReport) -> Result<(), Violation> {
    let keys = sample_keys(&sc.workload, sc.seed, sc.total_cmds);
    // Submission position of each command within its group's backlog
    // (backlogs are cut in global id order under the static key hash, so
    // per-group position is just an occurrence count).
    let mut pos: BTreeMap<u64, usize> = BTreeMap::new();
    let mut next_pos = vec![0usize; sc.groups];
    for id in 1..=sc.total_cmds as u64 {
        let g = group_of_key(keys[id as usize - 1], sc.groups);
        pos.insert(id, next_pos[g]);
        next_pos[g] += 1;
    }
    for (g, group) in r.groups.iter().enumerate() {
        // Per key, the ids committed in log order.
        let mut by_key: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &v in &group.log {
            if let Some(id) = v.client_id(sc.total_cmds) {
                by_key.entry(keys[id - 1]).or_default().push(v.0);
            }
        }
        for (key, ids) in by_key {
            for (i, &later) in ids.iter().enumerate() {
                for &earlier in &ids[i + 1..] {
                    // `earlier` appears *after* `later` in the log; that
                    // is only legal while they were concurrently in
                    // flight, i.e. within one closed-loop window.
                    if earlier < later && pos[&later].saturating_sub(pos[&earlier]) >= sc.window {
                        return Err(Violation::PerKeyReorder {
                            key,
                            group: g,
                            earlier,
                            later,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}
