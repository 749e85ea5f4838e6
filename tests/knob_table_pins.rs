//! Absolute pins for what sits on top of the `ShardedScenario` knobs: the
//! fuzzer's seed → scenario map, a campaign's coverage, and the
//! shrinker's greedy descent.
//!
//! The values were captured at the commit *before* the scenario's knobs
//! moved into one table (`harness::scenario`) and its four adversary
//! vectors became one `adversaries` list; like `replica_shell_pins` they
//! are never re-recorded. A change to how a knob is declared, rendered,
//! budgeted or shrunk that moves one of them has changed what a seed
//! means or where a failing scenario shrinks to — not just the code.

use agreement::adversary::AdversaryKind;
use agreement::fuzz::{self, fault_count, generate, run_campaign, FuzzConfig};
use agreement::harness::ShardedScenario;
use agreement::sharded::WorkloadSpec;
use simnet::{fnv1a, FNV1A_BASIS};

/// A scenario's adversary placements as sorted `(group, replica,
/// kind-code)`: silent 0, equivocator 1, receipt forger 2, far-future
/// leader 3. The one projection the refactor may re-spell.
fn adversary_placements(sc: &ShardedScenario) -> Vec<(usize, usize, u8)> {
    let code = |kind| match kind {
        AdversaryKind::Silent => 0,
        AdversaryKind::Equivocator => 1,
        AdversaryKind::ReceiptForger => 2,
        AdversaryKind::FarFutureLeader => 3,
    };
    let mut placed: Vec<(usize, usize, u8)> = (sc.adversaries.iter())
        .map(|&(g, i, kind)| (g, i, code(kind)))
        .collect();
    placed.sort_unstable();
    placed
}

/// Everything the generator draws, rendered canonically.
fn drawn(sc: &ShardedScenario) -> String {
    format!(
        "{:?}",
        (
            (sc.groups, sc.n, sc.total_cmds, sc.window, sc.batch),
            (sc.adaptive_batch, sc.partitions, &sc.group_modes),
            (&sc.crash_leaders, &sc.announce, &sc.migrations),
            (sc.rebalance.is_some(), sc.arrival_rate_per_delay.to_bits()),
            (sc.byz_pipeline_window, sc.byz_fast_path, sc.max_delays),
            adversary_placements(sc),
        )
    )
}

/// Seeds `0..512` map to the scenarios they always mapped to (one FNV-1a
/// per block of 128 seeds, so a mismatch names its neighbourhood).
#[test]
fn generator_seed_to_scenario_map() {
    let blocks: Vec<u64> = (0..4u64)
        .map(|b| {
            (b * 128..(b + 1) * 128).fold(FNV1A_BASIS, |h, seed| {
                fnv1a(h, drawn(&generate(seed)).into_bytes())
            })
        })
        .collect();
    println!("PIN generator {blocks:?}");
    assert_eq!(
        blocks,
        [
            13443971778258488097,
            4249781365821435386,
            9876166137828236845,
            16506748598149080490
        ]
    );
}

/// A 200-case campaign exercises each scenario dimension exactly as often
/// as it did, and commits the same number of commands.
#[test]
fn campaign_coverage_counters() {
    let r = run_campaign(&FuzzConfig {
        start_seed: 0,
        cases: 200,
        shrink: false,
        ..FuzzConfig::default()
    });
    assert!(r.failures.is_empty(), "violations: {:?}", r.failures);
    let coverage = [
        r.crash_cases,
        r.byz_cases,
        r.adversary_cases,
        r.migration_cases,
        r.rebalance_cases,
        r.paced_cases,
        r.partitioned_cases,
        r.jittered_cases,
    ];
    println!("PIN campaign {coverage:?} {}", r.commands_committed);
    assert_eq!(
        (coverage, r.commands_committed),
        ([70, 122, 81, 44, 24, 42, 38, 130], 20174)
    );
}

/// The injected-dedup-bug corpus of `tests/fuzz_regressions.rs` shrinks to
/// the same minimal scenario: the order in which simplifications are
/// proposed kept the greedy descent.
#[test]
fn injected_dedup_bug_shrinks_to_the_same_minimum() {
    let mut sc = ShardedScenario::common_case(4, 3, 3, 33);
    sc.total_cmds = 300;
    sc.workload = WorkloadSpec::Zipf {
        keys: 1024,
        s: 0.99,
    };
    sc.window = 6;
    sc.batch = 2;
    sc.crash_leaders = vec![(0, 15), (2, 31)];
    sc.announce = vec![(0, 1, 70), (2, 1, 90)];
    sc.max_delays = 20_000;
    sc.disable_session_dedup = true;
    let (shrunk, _) = fuzz::shrink(&sc);
    println!("PIN shrunk {}", fuzz::to_literal(&shrunk));

    let mut expected = ShardedScenario::common_case(4, 3, 3, 33);
    expected.total_cmds = 75;
    expected.workload = WorkloadSpec::Uniform { keys: 1024 };
    expected.window = 6;
    expected.crash_leaders = vec![(2, 31)];
    expected.announce = vec![(2, 1, 90)];
    expected.disable_session_dedup = true;
    expected.max_delays = 20_000;
    assert_eq!(shrunk, expected);
    assert_eq!(fault_count(&shrunk), 2);
}
