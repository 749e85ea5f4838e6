//! Seed → scenario: the fuzzer's generator.
//!
//! Every draw comes from one [`SplitMix64`] stream seeded by the case
//! seed, so a seed fully determines its scenario. The generator is
//! *liveness-aware*: it only emits combinations the service is supposed
//! to survive within the (generous) virtual-time budget it also picks —
//! every leader crash is paired with an Ω announcement, adversaries are
//! confined to Byzantine-mode groups at slots the harness accepts, at
//! most one adversary occupies a group, migrated ranges are disjoint
//! slices of their even-table owner, and partitioned-kernel cases always
//! carry the positive-minimum link delay the lookahead needs. A scenario
//! that stalls anyway is therefore a finding, not generator noise.

use simnet::{DelayModel, Duration, RdmaCost};

use super::SplitMix64;
use crate::adversary::AdversaryKind;
use crate::harness::ShardedScenario;
use crate::sharded::{GroupMode, KeyRange, RebalanceConfig, ScriptedMigration, WorkloadSpec};

/// Keys in every generated workload; kept fixed so migrated ranges and
/// hot keys are easy to reason about across scenarios.
pub const KEY_SPACE: u64 = 1024;

/// Maps `case_seed` to a complete scenario (deterministically).
pub fn generate(case_seed: u64) -> ShardedScenario {
    let mut rng = SplitMix64::new(case_seed);
    let groups = rng.range(1, 4) as usize;
    let n = rng.range(3, 4) as usize;
    let mut sc = ShardedScenario::common_case(groups, n, 3, case_seed);
    sc.total_cmds = rng.range(40, 160) as usize;
    sc.window = rng.range(2, 8) as usize;
    sc.batch = rng.range(1, 3) as usize;
    sc.workload = match rng.below(3) {
        0 => WorkloadSpec::Uniform { keys: KEY_SPACE },
        1 => WorkloadSpec::Zipf {
            keys: KEY_SPACE,
            s: 0.99,
        },
        _ => WorkloadSpec::HotShard {
            keys: KEY_SPACE,
            hot_key: rng.below(KEY_SPACE),
            hot_permille: rng.range(200, 600) as u32,
        },
    };

    // Links: synchronous, uniformly jittered (lo = 1 delay), or an RDMA
    // verb-cost model — every preset keeps min_delay() positive, so the
    // partitioned kernel's lookahead stays legal under all of them.
    if rng.chance(400) {
        sc.delay = DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration::from_delays(rng.range(2, 4)),
        };
    } else if rng.chance(350) {
        sc.delay = DelayModel::Rdma(match rng.below(3) {
            0 => RdmaCost::baseline(),
            1 => RdmaCost::write_optimized(),
            _ => RdmaCost::congested(),
        });
        // Half the RDMA cases also exercise adaptive doorbell batching.
        if rng.chance(500) {
            sc.adaptive_batch = [4, 8, 16][rng.below(3) as usize];
        }
    }
    if groups > 1 && rng.chance(300) {
        sc.partitions = rng.range(2, groups as u64) as usize;
        sc.threads = 1; // the campaign itself runs single-threaded;
                        // the oracle's sweep re-runs at 2 and 4.
        if matches!(sc.delay, DelayModel::Constant(d) if d < Duration::from_delays(1)) {
            sc.delay = DelayModel::synchronous();
        }
    }

    // Per-group failure modes, then mode-respecting fault timelines.
    sc.group_modes = (0..groups)
        .map(|_| {
            if rng.chance(350) {
                GroupMode::Byzantine
            } else {
                GroupMode::CrashPmp
            }
        })
        .collect();
    // Byzantine pipelining knobs (window 1 without the fast path is the
    // classic engine, bit-identical to pre-pipelining runs — kept in the
    // pool so the fuzzer still exercises the pinned configuration).
    if sc.group_modes.contains(&GroupMode::Byzantine) {
        sc.byz_pipeline_window = [1, 2, 4, 8][rng.below(4) as usize];
        sc.byz_fast_path = rng.chance(500);
    }
    for g in 0..groups {
        match sc.group_modes[g] {
            GroupMode::CrashPmp => {
                // A crashing initial leader, paired with the Ω
                // announcement that restores the group's liveness.
                if rng.chance(250) {
                    let at = rng.range(10, 50);
                    sc.crash_leaders.push((g, at));
                    sc.announce.push((g, 1, at + rng.range(30, 70)));
                }
            }
            GroupMode::Byzantine => {
                // At most one adversary per group — two can push a
                // 3-replica group below its correctness threshold,
                // which would be a liveness non-finding.
                let kind = match rng.below(100) {
                    0..=24 => AdversaryKind::Silent,
                    25..=39 => AdversaryKind::Equivocator,
                    40..=54 => AdversaryKind::ReceiptForger,
                    _ => continue,
                };
                if kind.must_lead() {
                    // A lying initial leader; Ω later elects an honest
                    // successor.
                    sc.adversaries.push((g, 0, kind));
                    sc.announce.push((g, 1, rng.range(60, 120)));
                } else {
                    let follower = rng.range(1, n as u64 - 1) as usize;
                    sc.adversaries.push((g, follower, kind));
                }
            }
        }
    }

    // Dynamic routing: scripted migrations racing the faults above, or
    // (exclusively) the automatic rebalancer.
    if groups > 1 && rng.chance(300) {
        let count = rng.range(1, 2);
        let mut used: Vec<usize> = Vec::new();
        for _ in 0..count {
            let from = (0..groups).find(|g| !used.contains(g));
            let Some(from) = from else { break };
            used.push(from);
            // A slice strictly inside `from`'s even version-0 range
            // (same span arithmetic as `RoutingTable::even`), so the
            // range has a single owner at trigger time.
            let span = KEY_SPACE.div_ceil(groups as u64);
            let lo = span * from as u64;
            let hi = (span * (from as u64 + 1)).min(KEY_SPACE);
            let cut_lo = rng.range(lo, hi - 1);
            let cut_hi = rng.range(cut_lo + 1, hi);
            let mut to = rng.below(groups as u64) as usize;
            if to == from {
                to = (to + 1) % groups;
            }
            sc.migrations.push(ScriptedMigration {
                at_delays: rng.range(30, 130),
                range: KeyRange {
                    lo: cut_lo,
                    hi: cut_hi,
                },
                to,
            });
        }
    } else if groups > 1 && rng.chance(200) {
        sc.rebalance = Some(RebalanceConfig {
            check_every_delays: rng.range(30, 60),
            cooldown_delays: rng.range(10, 25),
            hot_group_permille: rng.range(250, 400) as u32,
            hot_key_permille: rng.range(30, 100) as u32,
            min_window_commits: 32,
            min_hold_delays: 120,
        });
    }

    // Paced arrivals (open loop at the router, closed loop per group).
    if rng.chance(200) {
        sc.arrival_rate_per_delay = rng.range(5, 25) as f64 / 100.0;
    }

    sc.max_delays = budget(&sc);
    sc
}

/// A generous virtual-time budget for `sc`: enough that any stall within
/// it indicates a liveness defect rather than a tight clock. Scales with
/// the scenario's fault count — each failover or migration may cost a
/// retry round — and with the span of a paced arrival schedule.
pub fn budget(sc: &ShardedScenario) -> u64 {
    let faults = sc.fault_count();
    let pacing = if sc.arrival_rate_per_delay > 0.0 {
        (sc.total_cmds as f64 / sc.arrival_rate_per_delay) as u64
    } else {
        0
    };
    30_000 + 15_000 * faults as u64 + pacing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scenario() {
        for seed in 0..64 {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn seeds_change_scenarios() {
        let distinct: std::collections::BTreeSet<String> =
            (0..32).map(|s| format!("{:?}", generate(s))).collect();
        assert!(distinct.len() > 16, "generator barely varies");
    }

    #[test]
    fn generated_scenarios_respect_harness_preconditions() {
        for seed in 0..512 {
            let sc = generate(seed);
            // Everything the harness itself insists on (adversary slots,
            // lookahead under partitioning, closed loop under pacing).
            if let Err(broken) = sc.validate() {
                panic!("seed {seed}: {broken}");
            }
            // The generator's own policy on top of that.
            assert!(sc.window > 0, "seed {seed}: open loop generated");
            assert!(
                [1, 2, 4, 8].contains(&sc.byz_pipeline_window),
                "seed {seed}: bad pipeline window {}",
                sc.byz_pipeline_window
            );
            if !sc.group_modes.contains(&GroupMode::Byzantine) {
                assert_eq!(sc.byz_pipeline_window, 1, "seed {seed}");
                assert!(!sc.byz_fast_path, "seed {seed}");
            }
            for &(g, _) in &sc.crash_leaders {
                assert_eq!(sc.group_modes[g], GroupMode::CrashPmp, "seed {seed}");
                assert!(
                    sc.announce.iter().any(|&(ag, _, _)| ag == g),
                    "seed {seed}: crash without announcement in group {g}"
                );
            }
            for &(g, _, kind) in &sc.adversaries {
                assert!(
                    !kind.must_lead() || sc.announce.iter().any(|&(ag, _, _)| ag == g),
                    "seed {seed}: {kind:?} without a successor announcement in group {g}"
                );
            }
            if sc.adaptive_batch > 0 {
                assert!(
                    matches!(sc.delay, DelayModel::Rdma(_)),
                    "seed {seed}: adaptive batching drawn without an RDMA cost model"
                );
            }
            assert!(
                sc.migrations.is_empty() || sc.rebalance.is_none(),
                "seed {seed}: scripted migrations and rebalancer together"
            );
            for m in &sc.migrations {
                assert!(m.range.lo < m.range.hi && m.range.hi <= KEY_SPACE);
                assert!(m.to < sc.groups);
            }
        }
    }
}
