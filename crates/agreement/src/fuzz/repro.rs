//! Repro emission: render a scenario as a Rust expression.
//!
//! A shrunk failing scenario is only useful if it survives the fuzzing
//! session, so [`to_literal`] prints a self-contained block expression
//! that rebuilds it — start from `common_case`, assign every field that
//! differs from the defaults, yield the scenario. Which fields are
//! printed, and how each value renders, is the scenario's knob table
//! ([`ShardedScenario::assignments`]). Paste the block into
//! `tests/fuzz_regressions.rs`, feed it to `fuzz::check`, and the
//! failure is pinned forever. The expression expects these imports:
//!
//! ```text
//! use agreement::adversary::AdversaryKind;
//! use agreement::harness::ShardedScenario;
//! use agreement::sharded::{GroupMode, KeyRange, RebalanceConfig,
//!                          ScriptedMigration, WorkloadSpec};
//! use simnet::{DelayModel, Duration, RdmaCost};
//! ```

use std::fmt::Write as _;

use crate::harness::ShardedScenario;

/// Renders `sc` as a block expression rebuilding it (see module doc).
pub fn to_literal(sc: &ShardedScenario) -> String {
    let mut s = format!(
        "{{\n    let mut sc = ShardedScenario::common_case({}, {}, {}, {});\n",
        sc.groups, sc.n, sc.m, sc.seed
    );
    for (field, value) in sc.assignments() {
        let _ = writeln!(s, "    sc.{field} = {value};");
    }
    s.push_str("    sc\n}");
    s
}
