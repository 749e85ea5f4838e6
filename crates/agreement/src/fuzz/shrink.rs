//! Automatic shrinking: delta-debug a failing scenario down to a
//! minimal still-failing one.
//!
//! The shrinker repeatedly proposes simplifications — delete a fault
//! (crash, adversary, migration, the rebalancer), drop a complexity
//! dimension (jitter, pacing, partitioning, batching, workload skew),
//! halve the command stream — and keeps any candidate on which the deep
//! oracle still reports *a* violation (not necessarily the original
//! one; chasing a fixed violation through a shrink is a rabbit hole the
//! literature avoids too). Greedy first-improvement with a bounded run
//! budget: wholly deterministic, so the same failing scenario always
//! shrinks to the same minimal scenario.

use simnet::DelayModel;

use super::oracle::{check_deep, DeepChecks, Violation};
use super::repro::scenario_defaults;
use crate::harness::ShardedScenario;
use crate::sharded::WorkloadSpec;

/// How many faults a scenario injects — the number the shrinker drives
/// down, and the headline "minimal failing scenario has k faults".
/// Counts crashes, adversaries, migrations, the rebalancer, and the
/// dedup-disable switch; the paired Ω announcements ride along free.
pub fn fault_count(sc: &ShardedScenario) -> usize {
    sc.crash_leaders.len()
        + sc.byz_silent.len()
        + sc.byz_equivocators.len()
        + sc.byz_receipt_forgers.len()
        + sc.byz_far_future_leaders.len()
        + sc.migrations.len()
        + usize::from(sc.rebalance.is_some())
        + usize::from(sc.disable_session_dedup)
}

/// What [`shrink_with_budget`] produced.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimal still-failing scenario reached.
    pub scenario: ShardedScenario,
    /// The violation the minimal scenario exhibits.
    pub violation: Violation,
    /// Whether the run budget expired with candidate simplifications
    /// still untried — the result may not be a local minimum. Callers
    /// surface this as an infrastructure failure (the `fuzz` bin exits
    /// non-zero on it): a fixed-point claim was never reached.
    pub budget_exhausted: bool,
}

/// Shrinks `sc` (which must fail the deep oracle) to a minimal
/// still-failing scenario; returns it with its violation.
///
/// # Panics
///
/// Panics if `sc` passes the oracle — shrinking a passing scenario is a
/// caller bug, not a recoverable condition.
pub fn shrink(sc: &ShardedScenario) -> (ShardedScenario, Violation) {
    let out = shrink_with_budget(sc, 200);
    (out.scenario, out.violation)
}

/// [`shrink`] with an explicit candidate-run budget, reporting whether
/// the budget expired before the greedy descent reached a fixed point.
///
/// # Panics
///
/// Panics if `sc` passes the oracle, like [`shrink`].
pub fn shrink_with_budget(sc: &ShardedScenario, mut runs: usize) -> ShrinkOutcome {
    let deep = DeepChecks {
        replay: true,
        thread_sweep: true,
    };
    let mut current = sc.clone();
    let mut violation = check_deep(&current, deep)
        .expect_err("shrink() called on a scenario that passes the oracle");
    // Each candidate costs up to four runs (replay + sweep); the budget
    // bounds total shrink cost on pathological scenarios.
    loop {
        let mut improved = false;
        for cand in candidates(&current) {
            if runs == 0 {
                // A candidate was still pending: no fixed-point claim.
                return ShrinkOutcome {
                    scenario: current,
                    violation,
                    budget_exhausted: true,
                };
            }
            runs -= 1;
            if let Err(v) = check_deep(&cand, deep) {
                current = cand;
                violation = v;
                improved = true;
                break;
            }
        }
        if !improved {
            return ShrinkOutcome {
                scenario: current,
                violation,
                budget_exhausted: false,
            };
        }
    }
}

/// All one-step simplifications of `sc`, most aggressive first (fault
/// deletions before knob resets, so the fault count falls fastest).
fn candidates(sc: &ShardedScenario) -> Vec<ShardedScenario> {
    let mut out = Vec::new();
    for i in 0..sc.migrations.len() {
        let mut c = sc.clone();
        c.migrations.remove(i);
        out.push(c);
    }
    if sc.rebalance.is_some() {
        let mut c = sc.clone();
        c.rebalance = None;
        out.push(c);
    }
    for i in 0..sc.byz_silent.len() {
        let mut c = sc.clone();
        c.byz_silent.remove(i);
        out.push(c);
    }
    for i in 0..sc.byz_receipt_forgers.len() {
        let mut c = sc.clone();
        c.byz_receipt_forgers.remove(i);
        out.push(c);
    }
    for i in 0..sc.byz_equivocators.len() {
        // The equivocator's recovery announcement goes with it.
        let mut c = sc.clone();
        let (g, _) = c.byz_equivocators.remove(i);
        c.announce.retain(|&(ag, _, _)| ag != g);
        out.push(c);
    }
    for i in 0..sc.byz_far_future_leaders.len() {
        // Likewise a lying leader of the far-future kind.
        let mut c = sc.clone();
        let (g, _) = c.byz_far_future_leaders.remove(i);
        c.announce.retain(|&(ag, _, _)| ag != g);
        out.push(c);
    }
    for i in 0..sc.crash_leaders.len() {
        let mut c = sc.clone();
        let (g, _) = c.crash_leaders.remove(i);
        // Drop the paired announcement unless another fault in the
        // group still needs it.
        if !c.crash_leaders.iter().any(|&(cg, _)| cg == g)
            && !(c.byz_equivocators.iter())
                .chain(&c.byz_far_future_leaders)
                .any(|&(eg, _)| eg == g)
        {
            c.announce.retain(|&(ag, _, _)| ag != g);
        }
        out.push(c);
    }
    if sc.disable_session_dedup {
        let mut c = sc.clone();
        c.disable_session_dedup = false;
        out.push(c);
    }
    // Complexity dimensions, cheapest-to-understand scenario first.
    if sc.byz_fast_path {
        let mut c = sc.clone();
        c.byz_fast_path = false;
        out.push(c);
    }
    if sc.byz_pipeline_window > 1 {
        let mut c = sc.clone();
        c.byz_pipeline_window = 1;
        out.push(c);
    }
    if sc.partitions > 1 {
        let mut c = sc.clone();
        c.partitions = 1;
        c.threads = 1;
        out.push(c);
    }
    if !matches!(sc.delay, DelayModel::Constant(_)) {
        let mut c = sc.clone();
        c.delay = DelayModel::synchronous();
        out.push(c);
    }
    if sc.arrival_rate_per_delay > 0.0 {
        let mut c = sc.clone();
        c.arrival_rate_per_delay = 0.0;
        out.push(c);
    }
    let defaults = scenario_defaults(sc);
    if sc.workload != defaults.workload {
        let mut c = sc.clone();
        c.workload = WorkloadSpec::Uniform {
            keys: sc.workload.key_space(),
        };
        if c.workload != sc.workload {
            out.push(c);
        }
    }
    if sc.batch > 1 {
        let mut c = sc.clone();
        c.batch = 1;
        out.push(c);
    }
    if sc.total_cmds > 20 {
        let mut c = sc.clone();
        c.total_cmds = (sc.total_cmds / 2).max(20);
        out.push(c);
    }
    out
}
