//! `LogCore`'s session dedup against a `BTreeSet` model.
//!
//! What a replica remembers of the ids it has seen decided is observable
//! only through what [`LogCore::fill_own`] refuses to propose again, so the
//! test drives the public surface — `settle_many`, `install_snapshot`,
//! `submit` + `fill_own` with dedup on — and checks every fill against the
//! model. Ids are drawn where a set keyed by id can go wrong: the router's
//! dense 1-based ids, both sides of id 4 096, far-apart ids, migration
//! control entries (`1 << 63 | mig`, [`agreement::sharded::rebalance`]) and
//! the top of the id space; the `u64::MAX` filler is never recorded.

use std::collections::BTreeSet;

use agreement::smr::LogCore;
use agreement::types::Value;
use proptest::prelude::*;
use simnet::Time;

const FILLER: u64 = u64::MAX;

fn arb_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..300,
        1u64..300,
        1u64..300,
        4095u64..4098,
        Just(1 << 40),
        (0u64..3).prop_map(|mig| 1 << 63 | mig),
        (0u64..3).prop_map(|mig| 1 << 63 | 1 << 62 | mig),
        Just(u64::MAX - 1),
        Just(FILLER),
    ]
}

#[derive(Clone, Debug)]
enum Step {
    /// A decided run starting `back` instances before the first undecided
    /// one: with `back > 0` its head lands on decided slots, whose first
    /// decision stands — those ids are *not* seen.
    Settle { back: u64, ids: Vec<u64> },
    /// A migration snapshot's ids.
    Install(Vec<u64>),
    /// Submits `ids` and fills one round over all of them, with `pending`
    /// standing in for an unsettled earlier round's values.
    Fill { ids: Vec<u64>, pending: Vec<u64> },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let ids = |max| proptest::collection::vec(arb_id(), 1..max);
    prop_oneof![
        (0u64..4, ids(8)).prop_map(|(back, ids)| Step::Settle { back, ids }),
        (0u64..4, ids(8)).prop_map(|(back, ids)| Step::Settle { back, ids }),
        ids(6).prop_map(Step::Install),
        (ids(12), proptest::collection::vec(arb_id(), 0..3))
            .prop_map(|(ids, pending)| Step::Fill { ids, pending }),
        (ids(12), proptest::collection::vec(arb_id(), 0..3))
            .prop_map(|(ids, pending)| Step::Fill { ids, pending }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dedup_suppresses_exactly_the_model_s_seen_ids(
        steps in proptest::collection::vec(arb_step(), 1..40),
    ) {
        let mut core = LogCore::new(Vec::new());
        core.dedup = true;
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        // Settles are contiguous from 0, so the model's log has no holes.
        let mut log: Vec<u64> = Vec::new();
        let (mut consumed_total, mut suppressed_total) = (0usize, 0u64);
        for (t, step) in steps.into_iter().enumerate() {
            let frontier = log.len() as u64;
            match step {
                Step::Settle { back, ids } => {
                    let first = frontier.saturating_sub(back);
                    let undecided = ids.iter().skip((frontier - first) as usize);
                    log.extend(undecided.clone());
                    seen.extend(undecided.filter(|&&id| id != FILLER));
                    let values: Vec<Value> = ids.iter().map(|&id| Value(id)).collect();
                    let new = core.settle_many(Time(t as u64), first, &values);
                    prop_assert_eq!(new, log.len() as u64 > frontier);
                    for at in first..first + ids.len() as u64 {
                        let decided = core.decided(at).map(|v| v.0);
                        prop_assert_eq!(decided, log.get(at as usize).copied());
                    }
                }
                Step::Install(ids) => {
                    seen.extend(ids.iter().copied());
                    core.install_snapshot(ids);
                }
                Step::Fill { ids, pending } => {
                    let fresh = |id: &u64| {
                        *id == FILLER || !(seen.contains(id) || pending.contains(id))
                    };
                    let mut expected: Vec<Value> =
                        ids.iter().filter(|id| fresh(id)).map(|&id| Value(id)).collect();
                    let suppressed = (ids.len() - expected.len()) as u64;
                    if expected.is_empty() {
                        expected.push(Value(FILLER));
                    }
                    core.submit(&ids.iter().map(|&id| Value(id)).collect::<Vec<_>>());
                    let mut out = Vec::new();
                    let is_pending = |v: Value| pending.contains(&v.0);
                    let taken = core.fill_own(ids.len(), frontier, |_| false, is_pending, &mut out);
                    prop_assert_eq!(&out, &expected, "seen {:?}", seen);
                    prop_assert_eq!(taken, (ids.len(), suppressed));
                    core.bank_suppressed(suppressed);
                    consumed_total += ids.len();
                    suppressed_total += suppressed;
                    // Proposing is not deciding: nothing was recorded.
                    prop_assert!(core.workload_drained());
                }
            }
            prop_assert_eq!(core.log_len(), log.len());
        }
        prop_assert_eq!(core.next_cmd, consumed_total);
        prop_assert_eq!(core.duplicates_suppressed, suppressed_total);
        let decided: Vec<u64> = core.log().into_iter().map(|v| v.0).collect();
        prop_assert_eq!(decided, log);
    }
}
