//! The four service workloads. Each is one `ShardedScenario` (n = 3 replicas,
//! m = 3 memories per group) generated from the run's seed; the `why` lines
//! are the ones `BENCHMARK.json` carries.

use agreement::harness::ShardedScenario;
use agreement::sharded::{GroupMode, WorkloadSpec};
use simnet::{DelayModel, RdmaCost};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["smr_b1", "smr_b32", "failover_paced", "byz_pipeline"];

/// Paced arrivals of `failover_paced`, in commands per delay: about half of
/// what its four groups sustain, so an outage builds a backlog that drains.
const PACED_RATE: f64 = 8.0;

/// Ω announces the successor this many delays after a leader crash.
const ANNOUNCE_AFTER: u64 = 30;

/// Builds workload `name` at `1/shrink` of its full size (`shrink = 1` is
/// what the benchmark measures; the smoke test uses 50). `None` for an
/// unknown name.
pub fn scenario(name: &str, seed: u64, shrink: usize) -> Option<ShardedScenario> {
    let cmds = |full: usize| (full / shrink).max(1);
    let mut sc;
    match name {
        // The paper's per-command path: one PMP write per command, so every
        // command pays ~10 kernel events, 3 memory operations, ~10 messages.
        "smr_b1" => {
            sc = ShardedScenario::common_case(1, 3, 3, seed);
            sc.total_cmds = cmds(100_000);
            sc.batch = 1;
            sc.window = 4;
        }
        // Same cluster, 32 commands per replicated write: per-batch costs
        // amortise 32x and per-command value handling is what is left.
        "smr_b32" => {
            sc = ShardedScenario::common_case(1, 3, 3, seed);
            sc.total_cmds = cmds(200_000);
            sc.batch = 32;
            sc.window = 128;
        }
        // Four groups behind the router, skewed keys, arrivals on a schedule,
        // RDMA-shaped link costs, and two leader crashes with Ω-driven
        // takeover: router, dedup, takeover scans and time without service.
        "failover_paced" => {
            sc = ShardedScenario::common_case(4, 3, 3, seed);
            sc.total_cmds = cmds(100_000);
            sc.batch = 8;
            sc.window = 64;
            sc.workload = WorkloadSpec::Zipf {
                keys: 4096,
                s: 0.99,
            };
            sc.delay = DelayModel::Rdma(RdmaCost::write_optimized());
            sc.arrival_rate_per_delay = PACED_RATE;
            // Crashes at 16 % and 48 % of the arrival schedule (2000 and 6000
            // delays at full size), so both land while requests are due.
            let span = sc.total_cmds as f64 / PACED_RATE;
            let (first, second) = ((span * 0.16) as u64, (span * 0.48) as u64);
            sc.crash_leaders = vec![(0, first), (2, second)];
            sc.announce = vec![
                (0, 1, first + ANNOUNCE_AFTER),
                (2, 1, second + ANNOUNCE_AFTER),
            ];
        }
        // The n = 2f+1 path: signed non-equivocating broadcast, pipelined,
        // leader fast path on, every replica correct.
        "byz_pipeline" => {
            sc = ShardedScenario::common_case(1, 3, 3, seed);
            sc.total_cmds = cmds(3_000);
            sc.batch = 8;
            sc.window = 64;
            sc.group_modes = vec![GroupMode::Byzantine];
            sc.byz_pipeline_window = 8;
            sc.byz_fast_path = true;
        }
        _ => return None,
    }
    // Generous virtual-time budget: a run that needs it has stalled, and the
    // stall is reported as failed commands, never as a timeout of the host.
    sc.max_delays = 40 * sc.total_cmds as u64 + 10_000;
    Some(sc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_and_the_seed_reaches_the_scenario() {
        for name in NAMES {
            let sc = scenario(name, 9, 1).expect("listed name");
            assert_eq!((sc.n, sc.m, sc.seed, sc.partitions), (3, 3, 9, 1));
            assert!(sc.window > 0, "{name} is router-mediated");
        }
        assert!(scenario("nope", 1, 1).is_none());
    }

    #[test]
    fn shrinking_keeps_the_crashes_inside_the_arrival_schedule() {
        let sc = scenario("failover_paced", 5, 50).unwrap();
        let span = sc.total_cmds as u64 / PACED_RATE as u64;
        for &(_, at) in &sc.crash_leaders {
            assert!(at > 0 && at < span);
        }
    }
}
