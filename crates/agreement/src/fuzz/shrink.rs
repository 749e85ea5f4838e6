//! Automatic shrinking: delta-debug a failing scenario down to a
//! minimal still-failing one.
//!
//! The shrinker repeatedly proposes simplifications — delete a fault
//! (crash, adversary, migration, the rebalancer), drop a complexity
//! dimension (jitter, pacing, partitioning, batching, workload skew),
//! halve the command stream: the one-step candidates of the scenario's
//! knob table ([`ShardedScenario::simplifications`]), most aggressive
//! first — and keeps any candidate on which the deep oracle still
//! reports *a* violation (not necessarily the original one; chasing a
//! fixed violation through a shrink is a rabbit hole the literature
//! avoids too). Greedy first-improvement with a bounded run
//! budget: wholly deterministic, so the same failing scenario always
//! shrinks to the same minimal scenario.

use super::oracle::{check_deep, DeepChecks, Violation};
use crate::harness::ShardedScenario;

/// How many faults a scenario injects ([`ShardedScenario::fault_count`])
/// — the number the shrinker drives down, and the headline "minimal
/// failing scenario has k faults".
pub fn fault_count(sc: &ShardedScenario) -> usize {
    sc.fault_count()
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
        for cand in current.simplifications() {
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
