//! `LogCore` against a model: session dedup against a `BTreeSet`, the
//! decided log against a `BTreeMap` of instances.
//!
//! What a replica remembers of the ids it has seen decided is observable
//! only through what [`LogCore::fill_own`] refuses to propose again, so the
//! test drives the public surface — `settle_many`, `install_snapshot`,
//! `submit` + `fill_own` with dedup on — and checks every fill against the
//! model. Ids are drawn where a set keyed by id can go wrong: the router's
//! dense 1-based ids, both sides of id 4 096, far-apart ids, migration
//! control entries (`1 << 63 | mig`, [`agreement::sharded::rebalance`]) and
//! the top of the id space; the `u64::MAX` filler is never recorded.
//!
//! Runs start below, at or past the first undecided instance, so the log
//! opens holes, decides entries beyond them and closes them again. After
//! every settle the model checks `log()`, `log_len()`, `decided(i)` over
//! the run and around it, `settled_top()` and the `decided_at()` list: each
//! instance once, at the time of the settle that first decided it, in
//! decision order.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

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
    /// A decided run starting `ahead` instances past the first undecided
    /// one: it opens a hole (or lands beyond one already open), and its
    /// entries are decided, and their ids seen, before the log reaches
    /// them.
    SettleAhead { ahead: u64, ids: Vec<u64> },
    /// A run from the first undecided instance that closes the open hole
    /// exactly, then runs `over` instances on into whatever lies past it.
    CloseHole { over: u64, ids: Vec<u64> },
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
        (1u64..6, ids(8)).prop_map(|(ahead, ids)| Step::SettleAhead { ahead, ids }),
        (0u64..3, ids(8)).prop_map(|(over, ids)| Step::CloseHole { over, ids }),
        ids(6).prop_map(Step::Install),
        (ids(12), proptest::collection::vec(arb_id(), 0..3))
            .prop_map(|(ids, pending)| Step::Fill { ids, pending }),
        (ids(12), proptest::collection::vec(arb_id(), 0..3))
            .prop_map(|(ids, pending)| Step::Fill { ids, pending }),
    ]
}

/// What the replica should hold: every decided instance, and the same
/// facts `LogCore` derives from them.
#[derive(Default)]
struct Model {
    decided: BTreeMap<u64, u64>,
    seen: BTreeSet<u64>,
    /// `(instance, time)` in decision order.
    decided_at: Vec<(u64, Time)>,
    /// One past the highest instance any run reached.
    top: u64,
}

impl Model {
    /// The first undecided instance.
    fn frontier(&self) -> u64 {
        let mut at = 0;
        while self.decided.contains_key(&at) {
            at += 1;
        }
        at
    }

    fn log(&self) -> Vec<u64> {
        (0..self.frontier()).map(|at| self.decided[&at]).collect()
    }

    /// The decided instance after the open hole, if one is open.
    fn hole_end(&self) -> Option<u64> {
        self.decided
            .range(self.frontier()..)
            .next()
            .map(|(&at, _)| at)
    }

    /// First decision wins; returns whether anything was new.
    fn settle(&mut self, now: Time, first: u64, ids: &[u64]) -> bool {
        let mut new = false;
        for (at, &id) in (first..).zip(ids) {
            if let Entry::Vacant(slot) = self.decided.entry(at) {
                slot.insert(id);
                self.decided_at.push((at, now));
                if id != FILLER {
                    self.seen.insert(id);
                }
                new = true;
            }
        }
        self.top = self.top.max(first + ids.len() as u64);
        new
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dedup_suppresses_exactly_the_model_s_seen_ids(
        steps in proptest::collection::vec(arb_step(), 1..40),
    ) {
        let mut core = LogCore::new(Vec::new());
        core.dedup = true;
        let mut model = Model::default();
        let (mut consumed_total, mut suppressed_total) = (0usize, 0u64);
        for (t, step) in steps.into_iter().enumerate() {
            let now = Time(t as u64);
            let frontier = model.frontier();
            let run = match step {
                Step::Settle { back, ids } => Some((frontier.saturating_sub(back), ids)),
                Step::SettleAhead { ahead, ids } => Some((frontier + ahead, ids)),
                Step::CloseHole { over, ids } => {
                    let gap = model.hole_end().map_or(0, |end| end - frontier);
                    let len = (gap + over).max(1) as usize;
                    Some((frontier, ids.iter().copied().cycle().take(len).collect()))
                }
                Step::Install(ids) => {
                    model.seen.extend(ids.iter().copied());
                    core.install_snapshot(ids);
                    None
                }
                Step::Fill { ids, pending } => {
                    let fresh = |id: &u64| {
                        *id == FILLER || !(model.seen.contains(id) || pending.contains(id))
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
                    prop_assert_eq!(&out, &expected, "seen {:?}", model.seen);
                    prop_assert_eq!(taken, (ids.len(), suppressed));
                    core.bank_suppressed(suppressed);
                    consumed_total += ids.len();
                    suppressed_total += suppressed;
                    // Proposing is not deciding: nothing was recorded.
                    prop_assert!(core.workload_drained());
                    None
                }
            };
            if let Some((first, ids)) = run {
                let values: Vec<Value> = ids.iter().map(|&id| Value(id)).collect();
                let new = core.settle_many(now, first, &values);
                prop_assert_eq!(new, model.settle(now, first, &ids));
                let end = first + ids.len() as u64;
                for at in first.saturating_sub(2)..end + 2 {
                    let decided = core.decided(at).map(|v| v.0);
                    prop_assert_eq!(decided, model.decided.get(&at).copied(), "instance {}", at);
                }
                prop_assert_eq!(core.settled_top(), model.top);
                prop_assert_eq!(core.decided_at(), model.decided_at.clone());
                let log: Vec<u64> = core.log().into_iter().map(|v| v.0).collect();
                prop_assert_eq!(log, model.log());
            }
            prop_assert_eq!(core.log_len() as u64, model.frontier());
        }
        prop_assert_eq!(core.next_cmd, consumed_total);
        prop_assert_eq!(core.duplicates_suppressed, suppressed_total);
        for (&at, &id) in &model.decided {
            prop_assert_eq!(core.decided(at), Some(Value(id)), "instance {}", at);
        }
    }
}
