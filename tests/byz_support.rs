//! Shared assertions of the Byzantine-mode service tests (included via
//! `#[path]` by `resilience_matrix.rs` and `byzantine_determinism.rs`,
//! which are separate test crates).

use agreement::harness::{ShardedRunReport, ShardedScenario};
use agreement::types::Value;

/// Whether a log value is a client command: below adversary junk, and so
/// below every control entry and the no-op filler (see [`Value`]).
pub fn is_client_id(v: Value) -> bool {
    v.0 < Value::JUNK_FLOOR
}

/// Service-wide exactly-once: no client command id appears twice across
/// all groups' logs, and every command landed somewhere.
pub fn assert_exactly_once(sc: &ShardedScenario, r: &ShardedRunReport) {
    let mut seen = std::collections::BTreeSet::new();
    for (g, group) in r.groups.iter().enumerate() {
        for &v in &group.log {
            if is_client_id(v) {
                assert!(seen.insert(v.0), "command {} duplicated (group {g})", v.0);
            }
        }
    }
    assert_eq!(seen.len(), sc.total_cmds, "committed ids != workload");
}
