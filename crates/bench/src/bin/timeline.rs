//! Timeline renderer: run any sharded scenario with tracing enabled and
//! export its event stream as JSONL, Chrome trace-event JSON, and the
//! self-contained HTML timeline viewer.
//!
//! ```text
//! cargo run --release --bin timeline -- [--scenario sharded|corpus] \
//!     [--fuzz-seed N] [--out DIR]
//! ```
//!
//! - `--scenario sharded` (default): the `sharded_log` example scenario —
//!   four crash-PMP groups, a Zipf workload, one leader crash + failover.
//! - `--scenario corpus`: the fuzz corpus's failover-resubmission
//!   schedule (`tests/fuzz_regressions.rs`), the densest known-good case.
//! - `--fuzz-seed N`: render the scenario `agreement::fuzz::generate(N)`
//!   produces instead (any case seed works, failing or not).
//! - `--out DIR`: output directory (default `target/timelines`).
//!
//! Each run writes `<name>.jsonl`, `<name>.trace.json` (load in Perfetto
//! or `chrome://tracing`), and `<name>.html` (open directly in a
//! browser; no network access needed), then prints the per-group span
//! histograms the same run produced.

use std::path::PathBuf;
use std::process::ExitCode;

use agreement::fuzz::render_events;
use agreement::harness::{run_sharded_with_events, ShardedScenario};
use agreement::sharded::WorkloadSpec;
use agreement::spans::aggregate_spans;
use bench::write_timeline;
use simnet::TICKS_PER_DELAY;

/// The `sharded_log` example schedule: crash + failover on group 1.
fn sharded_scenario() -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(4, 3, 3, 2026);
    sc.total_cmds = 2_000;
    sc.workload = WorkloadSpec::Zipf {
        keys: 4096,
        s: 0.99,
    };
    sc.window = 8;
    sc.batch = 4;
    sc.max_delays = 20_000;
    sc.crash_leaders = vec![(1, 50)];
    sc.announce = vec![(1, 1, 120)];
    sc
}

/// The fuzz corpus's failover-resubmission schedule (two crashes, two
/// failovers; see `tests/fuzz_regressions.rs`).
fn corpus_scenario() -> ShardedScenario {
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
    sc
}

fn main() -> ExitCode {
    let mut out = PathBuf::from("target").join("timelines");
    let mut name = String::from("sharded");
    let mut sc = sharded_scenario();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => {
                let which = args.next().expect("--scenario needs a name");
                sc = match which.as_str() {
                    "sharded" => sharded_scenario(),
                    "corpus" => corpus_scenario(),
                    other => {
                        eprintln!("unknown scenario: {other} (use sharded|corpus)");
                        return ExitCode::FAILURE;
                    }
                };
                name = which;
            }
            "--fuzz-seed" => {
                let seed: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--fuzz-seed needs an integer");
                sc = agreement::fuzz::generate(seed);
                name = format!("fuzz-{seed}");
            }
            "--out" => {
                out = PathBuf::from(args.next().expect("--out needs a directory"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "timeline: {name} — {} groups x (n={}, m={}), {} commands, {} partition(s)",
        sc.groups, sc.n, sc.m, sc.total_cmds, sc.partitions
    );
    let title = format!("{name}: {} groups, {} commands", sc.groups, sc.total_cmds);
    sc.record_events = true;
    let (_report, events) = run_sharded_with_events(&sc);
    let art = render_events(&events, &title);
    if let Err(e) = write_timeline(&out, &name, &art) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    // The same traced run's per-stage span histograms, per group.
    println!("\n  group  spans  stage      p50(d)  p99(d)");
    for stats in &aggregate_spans(&events, sc.groups, sc.total_cmds) {
        for stage in &stats.stages {
            println!(
                "  {:>5}  {:>5}  {:<9}  {:>6.2}  {:>6.2}",
                stats.group,
                stats.spans,
                stage.stage,
                stage.hist.p50() as f64 / TICKS_PER_DELAY as f64,
                stage.hist.p99() as f64 / TICKS_PER_DELAY as f64,
            );
        }
    }
    ExitCode::SUCCESS
}
