//! Deterministic scenario fuzzer for the sharded service.
//!
//! The sharded harness composes every feature of the reproduction —
//! multi-group topologies, crash and Byzantine failure modes, adversary
//! actors, jittered links, scripted migrations racing failovers,
//! automatic rebalancing, paced arrivals, the partitioned parallel
//! kernel — and the space of their *combinations* is far larger than any
//! hand-written test matrix. This module walks that space mechanically:
//!
//! 1. [`generate`] maps a case seed to a whole [`ShardedScenario`] —
//!    topology, per-group modes, fault timelines, adversary placements,
//!    workload mix — drawn from a [`SplitMix64`] stream so the same seed
//!    always produces byte-identical scenarios.
//! 2. [`oracle::check`] runs the scenario and audits the report against
//!    the service's safety contract: nothing lost, nothing duplicated,
//!    no per-key reordering, no replica divergence, no cross-group
//!    leakage — plus (sampled) determinism replays and worker-thread
//!    sweeps on the partitioned kernel.
//! 3. On a violation, [`shrink::shrink`] delta-debugs the scenario down
//!    to a minimal still-failing case and [`repro::to_literal`] renders
//!    it as a Rust expression pasteable into a regression test
//!    (`tests/fuzz_regressions.rs` holds the corpus);
//!    [`artifacts::render_timeline`] re-runs the shrunk case with
//!    tracing on and exports its timeline (JSONL / Chrome trace / HTML)
//!    so the violating schedule can be inspected visually.
//!
//! [`run_campaign`] drives the loop over a seed range; the
//! `fuzz` binary in `crates/bench` wraps it for the command line and CI.

pub mod artifacts;
pub mod gen;
pub mod oracle;
pub mod repro;
pub mod shrink;

pub use artifacts::{render_events, render_timeline, TimelineArtifacts};
pub use gen::generate;
pub use oracle::{audit_report, check, check_deep, DeepChecks, Violation};
pub use repro::to_literal;
pub use shrink::{fault_count, shrink, shrink_with_budget, ShrinkOutcome};

use crate::harness::ShardedScenario;

/// SplitMix64, the fuzzer's deterministic bit source. It takes the
/// workload generator's step (`sharded::workload::splitmix64`) over its
/// own state and seeding, so generator draws can never be perturbed by
/// changes to the workload's stream.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded by `seed` (every seed is valid, including 0).
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 {
            state: seed ^ 0x5CE1_4A11_0F0E_57ED,
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        crate::sharded::workload::splitmix64(&mut self.state)
    }

    /// A uniform draw in `[0, n)`; `n = 0` returns 0.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// A uniform draw in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `permille / 1000`.
    pub fn chance(&mut self, permille: u64) -> bool {
        self.below(1000) < permille
    }
}

/// Campaign parameters: a contiguous seed range plus sampling cadences
/// for the expensive deep checks.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// First case seed (cases run over `start_seed .. start_seed + cases`).
    pub start_seed: u64,
    /// Number of scenarios to generate and check.
    pub cases: u64,
    /// Shrink failures to minimal scenarios (off = report raw failures;
    /// useful when a campaign is purely a smoke gate).
    pub shrink: bool,
    /// Replay every k-th case a second time and require an identical
    /// report (0 disables the determinism replay).
    pub replay_every: u64,
    /// Re-run every k-th *partitioned* case at 2 and 4 worker threads and
    /// require bit-identical reports (0 disables the sweep).
    pub sweep_every: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            start_seed: 0,
            cases: 256,
            shrink: true,
            replay_every: 16,
            sweep_every: 8,
        }
    }
}

/// One failing case: the raw scenario, its shrunk form, and a pasteable
/// repro.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseFailure {
    /// The case seed that produced the failure ([`generate`] replays it).
    pub case_seed: u64,
    /// The violation the oracle reported on the raw scenario.
    pub violation: Violation,
    /// The generated scenario as checked.
    pub scenario: ShardedScenario,
    /// The minimal still-failing scenario (equals `scenario` when
    /// shrinking is disabled or removed nothing).
    pub shrunk: ShardedScenario,
    /// The violation the *shrunk* scenario exhibits (shrinking accepts
    /// any violation, so it may differ from the original).
    pub shrunk_violation: Violation,
    /// Rust expression rebuilding `shrunk`, for a regression test.
    pub repro: String,
    /// Whether shrinking this failure ran out of its candidate budget
    /// before reaching a fixed point (`shrunk` may not be minimal).
    pub shrink_budget_exhausted: bool,
}

/// Aggregate outcome of a campaign: failures plus coverage counters
/// (how often each scenario dimension was actually exercised).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignReport {
    /// Scenarios checked.
    pub cases: u64,
    /// Failing cases, in seed order.
    pub failures: Vec<CaseFailure>,
    /// Scenarios with at least one leader crash.
    pub crash_cases: u64,
    /// Scenarios with at least one Byzantine-mode group.
    pub byz_cases: u64,
    /// Scenarios with at least one injected adversary actor.
    pub adversary_cases: u64,
    /// Scenarios with scripted migrations.
    pub migration_cases: u64,
    /// Scenarios running the automatic rebalancer.
    pub rebalance_cases: u64,
    /// Scenarios with paced (open-arrival) workloads.
    pub paced_cases: u64,
    /// Scenarios on the partitioned parallel kernel.
    pub partitioned_cases: u64,
    /// Scenarios with jittered links.
    pub jittered_cases: u64,
    /// Determinism replays performed.
    pub replays: u64,
    /// Worker-thread sweeps performed.
    pub sweeps: u64,
    /// Total client commands committed across all passing cases.
    pub commands_committed: u64,
    /// Failures whose shrink ran out of budget before a fixed point —
    /// an infrastructure failure even in non-strict campaigns (see
    /// [`campaign_exit_code`]).
    pub shrink_budget_exhausted: u64,
}

/// Runs `cfg.cases` generated scenarios through the oracle, shrinking
/// each failure. Fully deterministic: the same config always yields the
/// same report.
pub fn run_campaign(cfg: &FuzzConfig) -> CampaignReport {
    let mut report = CampaignReport::default();
    for case in 0..cfg.cases {
        let case_seed = cfg.start_seed + case;
        let sc = generate(case_seed);
        report.cases += 1;
        report.crash_cases += u64::from(!sc.crash_leaders.is_empty());
        report.byz_cases += u64::from(sc.has_byzantine());
        report.adversary_cases += u64::from(!sc.adversaries.is_empty());
        report.migration_cases += u64::from(!sc.migrations.is_empty());
        report.rebalance_cases += u64::from(sc.rebalance.is_some());
        report.paced_cases += u64::from(sc.arrival_rate_per_delay > 0.0);
        report.partitioned_cases += u64::from(sc.partitions > 1);
        report.jittered_cases += u64::from(!matches!(sc.delay, simnet::DelayModel::Constant(_)));
        let deep = DeepChecks {
            replay: cfg.replay_every > 0 && case % cfg.replay_every == 0,
            thread_sweep: cfg.sweep_every > 0 && case % cfg.sweep_every == 0,
        };
        report.replays += u64::from(deep.replay);
        report.sweeps += u64::from(deep.thread_sweep && sc.partitions > 1);
        match check_deep(&sc, deep) {
            Ok(run) => report.commands_committed += run.committed as u64,
            Err(violation) => {
                let (shrunk, shrunk_violation, budget_exhausted) = if cfg.shrink {
                    let out = shrink_with_budget(&sc, 200);
                    (out.scenario, out.violation, out.budget_exhausted)
                } else {
                    (sc.clone(), violation.clone(), false)
                };
                report.shrink_budget_exhausted += u64::from(budget_exhausted);
                let repro = to_literal(&shrunk);
                report.failures.push(CaseFailure {
                    case_seed,
                    violation,
                    scenario: sc,
                    shrunk,
                    shrunk_violation,
                    repro,
                    shrink_budget_exhausted: budget_exhausted,
                });
            }
        }
    }
    report
}

/// Maps a campaign outcome to the `fuzz` bin's process exit code:
///
/// * `0` — clean, or violations found in a non-strict campaign with
///   every shrink reaching a fixed point;
/// * `1` — violations in a strict campaign;
/// * `2` — shrinking itself failed (a shrink budget expired before a
///   fixed point), in any campaign mode. The shrinker's "minimal
///   scenario" claim is unreliable, so this is an infrastructure
///   failure, not a mere finding — unless strict violations (code 1)
///   already dominate.
pub fn campaign_exit_code(strict: bool, report: &CampaignReport) -> u8 {
    if strict && !report.failures.is_empty() {
        1
    } else if report.shrink_budget_exhausted > 0 {
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exit-code contract pinned (ISSUE 9 satellite): shrink-budget
    /// exhaustion is non-zero even when the campaign is not strict.
    #[test]
    fn exit_codes_are_pinned() {
        let clean = CampaignReport::default();
        assert_eq!(campaign_exit_code(false, &clean), 0);
        assert_eq!(campaign_exit_code(true, &clean), 0);

        let sc = generate(0);
        let failure = CaseFailure {
            case_seed: 0,
            violation: Violation::CrossGroupLeak,
            scenario: sc.clone(),
            shrunk: sc,
            shrunk_violation: Violation::CrossGroupLeak,
            repro: String::new(),
            shrink_budget_exhausted: false,
        };
        let mut failing = CampaignReport::default();
        failing.failures.push(failure.clone());
        assert_eq!(campaign_exit_code(false, &failing), 0);
        assert_eq!(campaign_exit_code(true, &failing), 1);

        let mut exhausted = CampaignReport::default();
        exhausted.failures.push(CaseFailure {
            shrink_budget_exhausted: true,
            ..failure
        });
        exhausted.shrink_budget_exhausted = 1;
        assert_eq!(campaign_exit_code(false, &exhausted), 2);
        // Strict violations dominate the shrink-infrastructure code.
        assert_eq!(campaign_exit_code(true, &exhausted), 1);
    }

    /// A zero shrink budget must flag exhaustion (the scenario is the
    /// historical dedup bug, so candidates are pending when the budget
    /// dies; `tests/fuzz_regressions.rs` covers the fixed-point side).
    #[test]
    fn shrink_budget_exhaustion_is_reported() {
        let mut sc = crate::harness::ShardedScenario::common_case(4, 3, 3, 33);
        sc.total_cmds = 300;
        sc.workload = crate::sharded::WorkloadSpec::Zipf {
            keys: 1024,
            s: 0.99,
        };
        sc.window = 6;
        sc.batch = 2;
        sc.crash_leaders = vec![(0, 15), (2, 31)];
        sc.announce = vec![(0, 1, 70), (2, 1, 90)];
        sc.max_delays = 20_000;
        sc.disable_session_dedup = true;
        let out = shrink_with_budget(&sc, 0);
        assert!(out.budget_exhausted, "zero budget must report exhaustion");
    }
}
