//! Systematic schedule-exploration driver (see `agreement::explore`).
//!
//! ```text
//! cargo run --release --bin explore -- --scenario NAME \
//!     [--max-schedules N] [--max-depth N] [--strict] [--naive]
//! ```
//!
//! Scenarios:
//!
//! - `tiny_pmp` — n=3 crash-mode PMP group, two commands. Exhaustively
//!   enumerable: every inequivalent same-tick delivery order runs.
//! - `tiny_byz` — n=3 Byzantine-mode group (signed broadcasts), two
//!   commands.
//! - `tiny_migration` — two groups with a scripted key-range migration
//!   racing a leader failover.
//! - `dedup` — the historical duplicate-commit bug
//!   (`disable_session_dedup`) on a failover schedule: the explorer must
//!   *find* failing interleavings, shrink the first to a minimal choice
//!   vector, and write its timeline under `target/explore-artifacts/`.
//! - `medium` — a budgeted (non-exhaustive) sweep of a larger config.
//! - `all` — the CI lane: every scenario above with its expected
//!   outcome enforced.
//!
//! `--strict` (the CI gate) additionally enforces, per scenario: the
//! expected violations (none, or some for `dedup`), exhaustiveness where
//! promised, bit-deterministic repeat runs, and that sleep-set pruning
//! is load-bearing (prunes > 0 and at least halves the naive schedule
//! count). `--naive` disables pruning for one-off measurements.

use std::path::Path;
use std::process::ExitCode;

use agreement::explore::{
    explore, render_schedule_timeline, shrink_choices, ExploreConfig, ExploreReport,
};
use agreement::harness::ShardedScenario;
use agreement::sharded::{GroupMode, KeyRange, ScriptedMigration};
use bench::write_timeline;

/// What strict mode requires of a target's sweep.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    /// Frontier drained, nothing truncated, zero violations: the whole
    /// schedule space is enumerated and safe.
    Exhaustive,
    /// Frontier drained within the depth cap (truncated runs allowed),
    /// zero violations: every schedule of the bounded prefix region.
    BoundedExhaustive,
    /// Budgeted sample, zero violations.
    Budgeted,
    /// The injected bug: exhaustive, and the oracle must reject some
    /// schedules *and* pass others — the violation is genuinely
    /// schedule-dependent, invisible to a single default run.
    FindsBug,
}

/// A named exploration target with its strict-mode expectations.
struct Target {
    name: &'static str,
    scenario: ShardedScenario,
    /// Depth-cap override (`tiny_byz`'s space is unbounded-ish in
    /// practice; a cap makes its prefix region enumerable).
    max_depth: Option<usize>,
    expect: Expect,
}

/// n=3 crash-mode PMP group, two commands: the hand-countable config.
fn tiny_pmp() -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(1, 3, 1, 7);
    sc.total_cmds = 2;
    sc.window = 1;
    sc.max_delays = 4_000;
    sc
}

/// n=3 Byzantine-mode group, two commands.
fn tiny_byz() -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(1, 3, 1, 9);
    sc.group_modes = vec![GroupMode::Byzantine];
    sc.total_cmds = 2;
    sc.window = 1;
    sc.max_delays = 8_000;
    sc
}

/// Two groups; a scripted migration of group 0's keys races group 0's
/// leader failover.
fn tiny_migration() -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(2, 3, 1, 11);
    sc.total_cmds = 4;
    sc.window = 2;
    sc.max_delays = 8_000;
    sc.crash_leaders = vec![(0, 20)];
    sc.announce = vec![(0, 1, 40)];
    sc.migrations = vec![ScriptedMigration {
        at_delays: 25,
        range: KeyRange { lo: 0, hi: 512 },
        to: 1,
    }];
    sc
}

/// The reintroduced duplicate-commit bug on a failover schedule, tuned
/// so the *default* `(time, seq)` schedule passes: only systematic
/// exploration of the same-tick orders around the crash exposes the
/// missing session dedup (about half of the 79 inequivalent schedules
/// commit a command twice).
fn dedup() -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(1, 3, 1, 33);
    sc.total_cmds = 4;
    sc.window = 1;
    sc.max_delays = 8_000;
    sc.crash_leaders = vec![(0, 9)];
    sc.announce = vec![(0, 1, 23)];
    sc.disable_session_dedup = true;
    sc
}

/// A larger config the sweep only samples (budgeted, never exhaustive).
fn medium() -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(2, 3, 3, 5);
    sc.total_cmds = 24;
    sc.window = 4;
    sc.max_delays = 20_000;
    sc.crash_leaders = vec![(1, 25)];
    sc.announce = vec![(1, 1, 60)];
    sc
}

fn targets(which: &str) -> Vec<Target> {
    let all = [
        Target {
            name: "tiny_pmp",
            scenario: tiny_pmp(),
            max_depth: None,
            expect: Expect::Exhaustive,
        },
        Target {
            name: "tiny_byz",
            scenario: tiny_byz(),
            max_depth: Some(10),
            expect: Expect::BoundedExhaustive,
        },
        Target {
            name: "tiny_migration",
            scenario: tiny_migration(),
            max_depth: None,
            expect: Expect::Exhaustive,
        },
        Target {
            name: "dedup",
            scenario: dedup(),
            max_depth: None,
            expect: Expect::FindsBug,
        },
        Target {
            name: "medium",
            scenario: medium(),
            max_depth: None,
            expect: Expect::Budgeted,
        },
    ];
    all.into_iter()
        .filter(|t| which == "all" || t.name == which)
        .collect()
}

fn print_report(name: &str, r: &ExploreReport) {
    println!(
        "{name}: {} schedules ({} redundant, {} truncated), {} pruned, \
         exhausted: {}, oracle: {} pass / {} fail, {} fingerprints, \
         max branching {}, {} choice points",
        r.schedules_run,
        r.schedules_redundant,
        r.truncated_runs,
        r.schedules_pruned,
        r.frontier_exhausted,
        r.oracle_pass,
        r.failures_found,
        r.fingerprints.len(),
        r.max_branching,
        r.choice_points,
    );
}

/// Writes a failing schedule's timeline exports. I/O errors are
/// reported, never fatal — the violation itself already counted.
fn write_artifacts(dir: &Path, name: &str, sc: &ShardedScenario, choices: &[usize], title: &str) {
    let art = render_schedule_timeline(sc, choices, title);
    if let Err(e) = write_timeline(dir, name, &art) {
        eprintln!("  ({e})");
    }
}

fn main() -> ExitCode {
    let mut which = String::from("all");
    let mut cfg = ExploreConfig::default();
    let mut strict = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => {
                which = args.next().expect("--scenario needs a name");
            }
            "--max-schedules" => {
                cfg.max_schedules = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-schedules needs an integer");
            }
            "--max-depth" => {
                cfg.max_depth = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-depth needs an integer");
            }
            "--strict" => strict = true,
            "--naive" => cfg.prune = false,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let targets = targets(&which);
    if targets.is_empty() {
        eprintln!("unknown scenario: {which}");
        return ExitCode::FAILURE;
    }

    let artifact_dir = Path::new("target").join("explore-artifacts");
    let mut failed = false;
    for t in &targets {
        let tcfg = ExploreConfig {
            max_depth: t.max_depth.unwrap_or(cfg.max_depth),
            ..cfg
        };
        let report = explore(&t.scenario, &tcfg);
        print_report(t.name, &report);

        for f in &report.failures {
            println!("  VIOLATION {}: {} @ {:?}", t.name, f.violation, f.choices);
        }
        if let Some(first) = report.failures.first() {
            let (min, v) = shrink_choices(&t.scenario, &first.choices);
            println!(
                "  shrunk {} -> {} choices: {v} @ {min:?}",
                first.choices.len(),
                min.len()
            );
            write_artifacts(
                &artifact_dir,
                t.name,
                &t.scenario,
                &min,
                &format!("explore {}: {v}", t.name),
            );
        }

        if !strict {
            continue;
        }
        let mut bad = |msg: String| {
            eprintln!("  STRICT {}: {msg}", t.name);
            failed = true;
        };
        // Expected outcome.
        match t.expect {
            Expect::Exhaustive | Expect::BoundedExhaustive | Expect::Budgeted => {
                if report.failures_found > 0 {
                    bad(format!("{} unexpected violations", report.failures_found));
                }
            }
            Expect::FindsBug => {
                if report.failures_found == 0 {
                    bad("injected bug not found".into());
                }
                if report.oracle_pass == 0 {
                    bad("bug not schedule-dependent (every schedule failed)".into());
                }
            }
        }
        let exhaustive = report.frontier_exhausted && report.truncated_runs == 0;
        match t.expect {
            Expect::Exhaustive | Expect::FindsBug if !exhaustive => {
                bad(format!(
                    "expected exhaustive (exhausted: {}, truncated: {})",
                    report.frontier_exhausted, report.truncated_runs
                ));
            }
            Expect::BoundedExhaustive if !report.frontier_exhausted => {
                bad("expected depth-bounded frontier to drain".into());
            }
            _ => {}
        }
        // Determinism: a repeat sweep reproduces counts and outcomes.
        let again = explore(&t.scenario, &tcfg);
        if again.schedules_run != report.schedules_run
            || again.schedules_pruned != report.schedules_pruned
            || again.fingerprints != report.fingerprints
            || again.failures_found != report.failures_found
        {
            bad("repeat sweep diverged".into());
        }
        // Pruning is load-bearing: at least twice the naive schedule
        // count is saved (the naive sweep shares the budget, so the
        // bound holds even when naive alone would blow it).
        if tcfg.prune {
            if report.schedules_pruned == 0 {
                bad("pruning never fired".into());
            }
            let naive = explore(
                &t.scenario,
                &ExploreConfig {
                    prune: false,
                    ..tcfg
                },
            );
            println!(
                "  naive: {} schedules (exhausted: {}, truncated: {})",
                naive.schedules_run, naive.frontier_exhausted, naive.truncated_runs
            );
            let useful = report.schedules_run - report.schedules_redundant;
            if naive.schedules_run < 2 * useful {
                bad(format!(
                    "pruning not load-bearing ({} naive vs {} useful pruned)",
                    naive.schedules_run, useful
                ));
            }
            // Sound reduction: when both sweeps are complete, the pruned
            // frontier reaches every final state the naive one reaches.
            if exhaustive
                && naive.frontier_exhausted
                && naive.truncated_runs == 0
                && report.fingerprints != naive.fingerprints
            {
                bad("pruned/naive fingerprint sets differ".into());
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
