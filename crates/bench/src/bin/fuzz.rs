//! Scenario-fuzzer driver: generate, check, and shrink seeded sharded
//! scenarios from the command line (see `agreement::fuzz`).
//!
//! ```text
//! cargo run --release --bin fuzz -- [--start N] [--cases N] [--strict] [--no-shrink]
//! ```
//!
//! - `--start N` / `--cases N`: the contiguous case-seed range to fuzz
//!   (defaults 0 and 1000). The same range always reproduces the same
//!   campaign bit-for-bit.
//! - `--strict`: exit nonzero when any case fails — the CI gate mode.
//! - `--no-shrink`: report raw failures without minimizing them (faster
//!   triage sweeps).
//!
//! Every failure prints its case seed, the violation, the shrunk
//! scenario's fault count, and a Rust block expression rebuilding the
//! minimal scenario — paste it into `tests/fuzz_regressions.rs` to pin
//! the bug. Each failure also re-runs its shrunk scenario with tracing
//! enabled and writes the timeline next to the repro under
//! `target/fuzz-artifacts/` (`seed-N.jsonl`, `seed-N.trace.json`,
//! `seed-N.html`) so the violating schedule can be inspected in a
//! browser or Perfetto.

use std::path::Path;
use std::process::ExitCode;

use agreement::fuzz::{
    campaign_exit_code, fault_count, render_timeline, run_campaign, CaseFailure, FuzzConfig,
};
use bench::write_timeline;

/// Writes the shrunk scenario's timeline exports for one failure.
/// Artifact I/O must never mask the violation itself, so errors are
/// reported and swallowed.
fn write_artifacts(dir: &Path, failure: &CaseFailure) {
    let title = format!(
        "fuzz seed {}: {}",
        failure.case_seed, failure.shrunk_violation
    );
    let art = render_timeline(&failure.shrunk, &title);
    let name = format!("seed-{}", failure.case_seed);
    if let Err(e) = write_timeline(dir, &name, &art) {
        eprintln!("  ({e})");
    }
}

fn main() -> ExitCode {
    let mut cfg = FuzzConfig {
        start_seed: 0,
        cases: 1000,
        shrink: true,
        replay_every: 16,
        sweep_every: 8,
    };
    let mut strict = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--start" => {
                cfg.start_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--start needs an integer");
            }
            "--cases" => {
                cfg.cases = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cases needs an integer");
            }
            "--strict" => strict = true,
            "--no-shrink" => cfg.shrink = false,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "fuzzing seeds {}..{} (shrink: {}, strict: {strict})",
        cfg.start_seed,
        cfg.start_seed + cfg.cases,
        cfg.shrink
    );
    let report = run_campaign(&cfg);
    println!(
        "{} cases: {} crash, {} adversarial, {} migrating, {} rebalancing, \
         {} paced, {} partitioned, {} jittered",
        report.cases,
        report.crash_cases,
        report.adversary_cases,
        report.migration_cases,
        report.rebalance_cases,
        report.paced_cases,
        report.partitioned_cases,
        report.jittered_cases,
    );
    println!(
        "{} commands committed; {} determinism replays, {} thread sweeps",
        report.commands_committed, report.replays, report.sweeps
    );

    if report.shrink_budget_exhausted > 0 {
        eprintln!(
            "WARNING: {} shrink(s) ran out of budget before reaching a \
             fixed point (repros below may not be minimal)",
            report.shrink_budget_exhausted
        );
    }
    if report.failures.is_empty() {
        println!("no violations");
    } else {
        let artifact_dir = Path::new("target").join("fuzz-artifacts");
        for failure in &report.failures {
            println!();
            println!(
                "VIOLATION seed={} : {}",
                failure.case_seed, failure.violation
            );
            println!(
                "  shrunk to {} fault(s) ({}){}, repro:",
                fault_count(&failure.shrunk),
                failure.shrunk_violation,
                if failure.shrink_budget_exhausted {
                    " [shrink budget exhausted]"
                } else {
                    ""
                }
            );
            println!("{}", failure.repro);
            write_artifacts(&artifact_dir, failure);
        }
        println!();
        println!("{} of {} cases failed", report.failures.len(), report.cases);
    }
    // Exit-code contract (pinned by `agreement::fuzz` unit tests):
    // 0 clean, 1 strict-mode violations, 2 shrink budget exhausted.
    ExitCode::from(campaign_exit_code(strict, &report))
}
