//! Experiment E5 — Theorem 6.1 as an executable artifact: the adversarial
//! schedule kills every 2-deciding static-permission algorithm, and
//! dynamic permissions (Protected Memory Paxos) survive the identical
//! schedule.

use agreement::lower_bound::{run_protected_contrast, run_strawman_demo};

/// The strawman is genuinely 2-deciding... and therefore breakable.
#[test]
fn theorem_6_1_schedule_breaks_every_seed() {
    for seed in 0..20 {
        let report = run_strawman_demo(seed);
        assert!(
            report.agreement_violated,
            "seed {seed}: the adversary failed to split the strawman: {report:?}"
        );
        assert_eq!(
            report.first_decision_delays,
            Some(2.0),
            "seed {seed}: the strawman stopped being 2-deciding"
        );
    }
}

/// Dynamic permissions close the gap: same adversary, no violation, still
/// lively.
#[test]
fn protected_memory_paxos_survives_every_seed() {
    for seed in 0..20 {
        let report = run_protected_contrast(seed);
        assert!(!report.agreement_violated, "seed {seed}: {report:?}");
        assert!(
            report.decisions.iter().any(|(_, d)| d.is_some()),
            "seed {seed}: nobody decided: {report:?}"
        );
    }
}

/// The two sides of the theorem, juxtaposed (the `paper_tables` example
/// prints this as E5).
#[test]
fn the_contrast_in_one_place() {
    let broken = run_strawman_demo(1);
    let safe = run_protected_contrast(1);
    assert!(broken.agreement_violated && !safe.agreement_violated);
}
