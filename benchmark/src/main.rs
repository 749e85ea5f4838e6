//! The repository's benchmark: one workload per invocation.
//!
//! ```sh
//! benchmark --workload smr_b1 --seed 5 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A table of
//! everything measured goes to standard error. The exit code is 0 only when
//! every repetition was safe, deterministic and complete. See `README.md`.

mod alloc;
mod calib;
mod floor;
mod measure;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use measure::{Metric, Opts, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: benchmark --workload <name> [--seed <u64>] [--seconds <s>] \
                     [--reps <n>] [--trace <0|1>]";

/// Parses the command line. No environment variable changes a run.
fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 5,
        seconds: 20.0,
        reps: None,
        trace: false,
        shrink: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?
            }
            "--reps" => {
                opts.reps = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 2)
                        .ok_or_else(|| bad("a repetition count of at least 2"))?,
                )
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if !workloads::NAMES.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}\n{USAGE}",
            workloads::NAMES
        ));
    }
    Ok(opts)
}

/// The result line of the contract.
fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = measure::run(&opts).expect("parse checked the workload name");
    eprintln!("workload {} seed {}", opts.workload, opts.seed);
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        eprintln!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let reported = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!("{}", result_json(&outcome, reported));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAILED: safety, determinism or completeness was off ({} of {} commands failed)",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = parse(&args("--workload smr_b32 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds),
            ("smr_b32", 7, 10.0)
        );
        assert!(o.trace && o.reps.is_none());
        let o = parse(&args("--workload smr_b1 --reps 12")).unwrap();
        assert_eq!((o.seed, o.reps, o.trace), (5, Some(12), false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload smr_b1 --seed x",
            "--workload smr_b1 --trace 2",
            "--workload smr_b1 --reps 1",
            "--workload smr_b1 --seconds -1",
            "--workload smr_b1 --seconds",
            "--workload smr_b1 --frobnicate 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }

    /// Every workload at 1/50 size: every metric `BENCHMARK.json` names is
    /// reported, finite, and the ones that come from the deterministic
    /// simulation repeat exactly from run to run.
    #[test]
    fn smoke_every_workload_reports_every_declared_metric() {
        let declared = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        // Host-clock numbers vary by nature; the allocation counters are
        // process-wide, and `cargo test` runs other tests beside this one.
        let varies = |name: &str| {
            name == "setup_s"
                || name.contains("alloc")
                || name == "peak_live_bytes"
                || name == "cmds_per_ref_sec"
                || name.contains("ref_ns")
                || name.contains("share")
                || name.starts_with("harness.")
                || name == "obs.tracing_overhead_rel"
        };
        let mut names = 0;
        for workload in workloads::NAMES {
            assert!(declared.contains(&format!("\"name\": \"{workload}\"")));
            let opts = Opts {
                workload: workload.to_string(),
                seed: 5,
                seconds: 0.0,
                reps: Some(3),
                trace: true,
                shrink: 50,
            };
            let a = measure::run(&opts).unwrap();
            let b = measure::run(&opts).unwrap();
            assert!(
                a.correct && a.failed == 0 && a.attempted > 0,
                "{workload}: {a:?}"
            );
            let all = |o: &Outcome| -> Vec<Metric> {
                o.end_to_end.iter().chain(&o.per_layer).cloned().collect()
            };
            names = all(&a).len();
            for (x, y) in all(&a).iter().zip(all(&b)) {
                assert!(x.value.is_finite(), "{workload}: {} not finite", x.name);
                assert!(
                    declared.contains(&format!(
                        "\"name\": \"{}\", \"unit\": \"{}\"",
                        x.name, x.unit
                    )),
                    "{} [{}] is not declared in BENCHMARK.json",
                    x.name,
                    x.unit
                );
                if !varies(&x.name) {
                    assert_eq!(*x, y, "{workload}: {} did not repeat", x.name);
                }
            }
            // The layers partition the traced call's host time.
            let shares: f64 = a
                .per_layer
                .iter()
                .filter(|m| m.name.ends_with(".busy_share"))
                .map(|m| m.value)
                .sum();
            assert!(
                (0.95..=1.05).contains(&shares),
                "{workload}: shares sum to {shares}"
            );
        }
        // Nothing declared that the benchmark does not report.
        let declared_metrics = declared.matches("\"unit\":").count();
        assert_eq!(declared_metrics, names);
    }
}
