//! Repro emission: render a scenario as a Rust expression.
//!
//! A shrunk failing scenario is only useful if it survives the fuzzing
//! session, so [`to_literal`] prints a self-contained block expression
//! that rebuilds it — start from `common_case`, assign every field that
//! differs from the defaults, yield the scenario. Paste the block into
//! `tests/fuzz_regressions.rs`, feed it to `fuzz::check`, and the
//! failure is pinned forever. The expression expects these imports:
//!
//! ```text
//! use agreement::harness::ShardedScenario;
//! use agreement::sharded::{GroupMode, KeyRange, RebalanceConfig,
//!                          ScriptedMigration, WorkloadSpec};
//! use simnet::{DelayModel, Duration, RdmaCost};
//! ```

use std::fmt::Write as _;

use simnet::DelayModel;

use crate::harness::ShardedScenario;
use crate::sharded::WorkloadSpec;

/// The `common_case` baseline `sc` would diff against (same topology and
/// seed, every other field at its default).
pub fn scenario_defaults(sc: &ShardedScenario) -> ShardedScenario {
    ShardedScenario::common_case(sc.groups, sc.n, sc.m, sc.seed)
}

/// Renders `sc` as a block expression rebuilding it (see module doc).
pub fn to_literal(sc: &ShardedScenario) -> String {
    let d = scenario_defaults(sc);
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(
        s,
        "    let mut sc = ShardedScenario::common_case({}, {}, {}, {});",
        sc.groups, sc.n, sc.m, sc.seed
    );
    if sc.total_cmds != d.total_cmds {
        let _ = writeln!(s, "    sc.total_cmds = {};", sc.total_cmds);
    }
    if sc.workload != d.workload {
        let _ = writeln!(s, "    sc.workload = {};", workload(&sc.workload));
    }
    if sc.window != d.window {
        let _ = writeln!(s, "    sc.window = {};", sc.window);
    }
    if sc.batch != d.batch {
        let _ = writeln!(s, "    sc.batch = {};", sc.batch);
    }
    if sc.adaptive_batch != d.adaptive_batch {
        let _ = writeln!(s, "    sc.adaptive_batch = {};", sc.adaptive_batch);
    }
    if sc.delay != d.delay {
        let _ = writeln!(s, "    sc.delay = {};", delay(&sc.delay));
    }
    if sc.partitions != d.partitions {
        let _ = writeln!(s, "    sc.partitions = {};", sc.partitions);
    }
    if sc.threads != d.threads {
        let _ = writeln!(s, "    sc.threads = {};", sc.threads);
    }
    if sc.group_modes != d.group_modes {
        let modes: Vec<String> = sc
            .group_modes
            .iter()
            .map(|m| format!("GroupMode::{m:?}"))
            .collect();
        let _ = writeln!(s, "    sc.group_modes = vec![{}];", modes.join(", "));
    }
    if sc.crash_leaders != d.crash_leaders {
        let _ = writeln!(s, "    sc.crash_leaders = vec!{:?};", sc.crash_leaders);
    }
    if sc.announce != d.announce {
        let _ = writeln!(s, "    sc.announce = vec!{:?};", sc.announce);
    }
    if sc.byz_silent != d.byz_silent {
        let _ = writeln!(s, "    sc.byz_silent = vec!{:?};", sc.byz_silent);
    }
    if sc.byz_equivocators != d.byz_equivocators {
        let _ = writeln!(
            s,
            "    sc.byz_equivocators = vec!{:?};",
            sc.byz_equivocators
        );
    }
    if sc.byz_receipt_forgers != d.byz_receipt_forgers {
        let _ = writeln!(
            s,
            "    sc.byz_receipt_forgers = vec!{:?};",
            sc.byz_receipt_forgers
        );
    }
    if sc.byz_far_future_leaders != d.byz_far_future_leaders {
        let _ = writeln!(
            s,
            "    sc.byz_far_future_leaders = vec!{:?};",
            sc.byz_far_future_leaders
        );
    }
    if sc.byz_pipeline_window != d.byz_pipeline_window {
        let _ = writeln!(
            s,
            "    sc.byz_pipeline_window = {};",
            sc.byz_pipeline_window
        );
    }
    if sc.byz_fast_path != d.byz_fast_path {
        let _ = writeln!(s, "    sc.byz_fast_path = {};", sc.byz_fast_path);
    }
    if sc.migrations != d.migrations {
        let migs: Vec<String> = sc
            .migrations
            .iter()
            .map(|m| {
                format!(
                    "ScriptedMigration {{ at_delays: {}, range: KeyRange {{ lo: {}, hi: {} }}, \
                     to: {} }}",
                    m.at_delays, m.range.lo, m.range.hi, m.to
                )
            })
            .collect();
        let _ = writeln!(s, "    sc.migrations = vec![{}];", migs.join(", "));
    }
    if sc.rebalance != d.rebalance {
        match &sc.rebalance {
            None => {
                let _ = writeln!(s, "    sc.rebalance = None;");
            }
            Some(cfg) => {
                let _ = writeln!(
                    s,
                    "    sc.rebalance = Some(RebalanceConfig {{ check_every_delays: {}, \
                     cooldown_delays: {}, hot_group_permille: {}, hot_key_permille: {}, \
                     min_window_commits: {}, min_hold_delays: {} }});",
                    cfg.check_every_delays,
                    cfg.cooldown_delays,
                    cfg.hot_group_permille,
                    cfg.hot_key_permille,
                    cfg.min_window_commits,
                    cfg.min_hold_delays
                );
            }
        }
    }
    if sc.range_routing != d.range_routing {
        let _ = writeln!(s, "    sc.range_routing = {};", sc.range_routing);
    }
    if sc.arrival_rate_per_delay != d.arrival_rate_per_delay {
        let _ = writeln!(
            s,
            "    sc.arrival_rate_per_delay = {:?};",
            sc.arrival_rate_per_delay
        );
    }
    if sc.disable_session_dedup != d.disable_session_dedup {
        let _ = writeln!(
            s,
            "    sc.disable_session_dedup = {};",
            sc.disable_session_dedup
        );
    }
    if sc.max_delays != d.max_delays {
        let _ = writeln!(s, "    sc.max_delays = {};", sc.max_delays);
    }
    let _ = writeln!(s, "    sc");
    s.push('}');
    s
}

fn workload(w: &WorkloadSpec) -> String {
    match *w {
        WorkloadSpec::Uniform { keys } => format!("WorkloadSpec::Uniform {{ keys: {keys} }}"),
        WorkloadSpec::Zipf { keys, s } => {
            format!("WorkloadSpec::Zipf {{ keys: {keys}, s: {s:?} }}")
        }
        WorkloadSpec::HotShard {
            keys,
            hot_key,
            hot_permille,
        } => format!(
            "WorkloadSpec::HotShard {{ keys: {keys}, hot_key: {hot_key}, \
             hot_permille: {hot_permille} }}"
        ),
        WorkloadSpec::HotSet {
            keys,
            ref hot_keys,
            hot_permille,
        } => format!(
            "WorkloadSpec::HotSet {{ keys: {keys}, hot_keys: vec!{hot_keys:?}, \
             hot_permille: {hot_permille} }}"
        ),
    }
}

/// A `Duration` expression; whole-delay values print via `from_delays`,
/// anything else falls back to raw ticks.
fn dur(d: simnet::Duration) -> String {
    if d.0.is_multiple_of(simnet::TICKS_PER_DELAY) {
        format!("Duration::from_delays({})", d.0 / simnet::TICKS_PER_DELAY)
    } else {
        format!("Duration({})", d.0)
    }
}

fn delay(d: &DelayModel) -> String {
    match d {
        DelayModel::Constant(c) => format!("DelayModel::Constant({})", dur(*c)),
        DelayModel::Uniform { lo, hi } => {
            format!(
                "DelayModel::Uniform {{ lo: {}, hi: {} }}",
                dur(*lo),
                dur(*hi)
            )
        }
        DelayModel::PartialSynchrony { lo, hi, gst, after } => format!(
            "DelayModel::PartialSynchrony {{ lo: {}, hi: {}, gst: Time({}), after: {} }}",
            dur(*lo),
            dur(*hi),
            gst.0,
            dur(*after)
        ),
        DelayModel::Rdma(c) => {
            // The fuzzer only draws the named presets; emit the matching
            // constructor when one fits, a field literal otherwise.
            for (name, preset) in [
                ("baseline", simnet::RdmaCost::baseline()),
                ("write_optimized", simnet::RdmaCost::write_optimized()),
                ("congested", simnet::RdmaCost::congested()),
            ] {
                if *c == preset {
                    return format!("DelayModel::Rdma(RdmaCost::{name}())");
                }
            }
            format!(
                "DelayModel::Rdma(RdmaCost {{ send: {}, write: {}, read: {}, cas: {}, \
                 doorbell: {}, per_wr: {}, per_kb: {}, jitter: {} }})",
                dur(c.send),
                dur(c.write),
                dur(c.read),
                dur(c.cas),
                dur(c.doorbell),
                dur(c.per_wr),
                dur(c.per_kb),
                dur(c.jitter)
            )
        }
    }
}
