//! [`ShardedScenario`] and its knob table: the one place a sharded-run
//! knob is declared.
//!
//! A knob is a public field of [`ShardedScenario`] plus **one row** of
//! the table at the bottom of this file. The row says what the tools
//! around a scenario need to know about the field:
//!
//! * its `common_case` default — [`ShardedScenario::common_case`] *is*
//!   the table's default column, a struct literal naming every field, so
//!   a field without a row does not compile;
//! * its **role**: `Shape` is the deployment a failure is minimised *on*
//!   (`common_case`'s arguments, the loop and its depth, the groups'
//!   failure modes, the budget) — printed by the repro, never shrunk;
//!   `Load` (what clients offer), `Fault` (what fails) and `Tuning` (how
//!   the service carries the load) are printed and shrunk; `Observation`
//!   changes what is recorded or how fast the host runs it, never the
//!   run — neither printed nor shrunk;
//! * how a non-default value prints as Rust
//!   ([`ShardedScenario::assignments`], under
//!   [`crate::fuzz::to_literal`]): the field's `Debug` form unless the row
//!   overrides it;
//! * its one-step simplifications
//!   ([`ShardedScenario::simplifications`], under
//!   [`crate::fuzz::shrink()`]): one step back to the default unless the
//!   row overrides it, so no knob is out of the shrinker's reach by
//!   omission. Row order is shrink priority: fault deletions first, so
//!   the fault count falls fastest, then complexity dimensions,
//!   cheapest-to-understand scenario first;
//! * the faults it injects ([`ShardedScenario::fault_count`], which the
//!   fuzzer's virtual-time budget shares);
//! * its precondition ([`ShardedScenario::validate`], which the run path
//!   enforces).
//!
//! Adding a knob is therefore two hunks in this file — the field, the
//! row — and no edit anywhere else.
//!
//! Two things stay outside the table on purpose. The fuzzer's
//! *generator* ([`crate::fuzz::gen`]) draws its fields by hand: the order of its
//! draws is the seed → scenario contract that recorded seeds, the CI fuzz
//! lane and `tests/knob_table_pins.rs` rest on, and a table-driven draw
//! order would change with every new row. And the fields stay *flat*
//! rather than grouped into sub-configs: the frozen repository benchmark
//! assigns 14 of them by name (`benchmark/README.md`, "What the benchmark
//! imports"), so regrouping waits for a benchmark-only change.

use simnet::{DelayModel, Duration};

use crate::adversary::AdversaryKind;
use crate::sharded::{GroupMode, GroupTopology, RebalanceConfig, ScriptedMigration, WorkloadSpec};

/// A scripted sharded-service run: `groups` independent SMR groups over a
/// hash-partitioned key space, fronted by one router
/// (see [`crate::sharded`] for the architecture). Mirrors
/// [`super::Scenario`]: build one, tweak fields, hand it to
/// [`super::run_sharded`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedScenario {
    /// Number of groups (shards).
    pub groups: usize,
    /// Replicas per group.
    pub n: usize,
    /// Memories per group.
    pub m: usize,
    /// Simulation seed (also seeds the workload's key stream).
    pub seed: u64,
    /// Link behaviour.
    pub delay: DelayModel,
    /// Total client commands across all groups.
    pub total_cmds: usize,
    /// Key distribution of the command stream.
    pub workload: WorkloadSpec,
    /// Per-group closed-loop window (commands in flight). `0` switches to
    /// open loop: every backlog is preloaded into its group's initial
    /// leader and the router only observes — the max-throughput
    /// configuration, wire-identical per group to [`super::run_smr`].
    pub window: usize,
    /// Log entries per replicated write (as [`super::run_smr`]'s `batch`).
    pub batch: usize,
    /// The crash-mode groups' batch, overriding `batch` there (`0` = no
    /// override): the harness passes it to
    /// [`crate::smr::Replica::with_batch`] in place of `batch`. Like every
    /// batch, each round packs `min(backlog, batch)` commands, so a
    /// shallow backlog commits at once in a small burst and a deep one
    /// fills it; Byzantine groups keep `batch`.
    pub adaptive_batch: usize,
    /// `(group, crash time in delays)`: crash that group's initial leader.
    pub crash_leaders: Vec<(usize, u64)>,
    /// `(group, replica index, time in delays)`: Ω announces that replica
    /// as the group's leader, to the group and the router.
    pub announce: Vec<(usize, usize, u64)>,
    /// Virtual-time budget, in delays.
    pub max_delays: u64,
    /// Kernel partitions the deployment is split into. `1` (the default)
    /// runs the monolithic kernel exactly as before. `> 1` runs the
    /// partitioned parallel kernel ([`simnet::ParSimulation`]): groups are
    /// placed in contiguous blocks via
    /// [`GroupTopology::partition_of_group`] (each group's replicas and
    /// memories co-located), the router on partition 0. The partition
    /// count is part of the determinism contract — `(seed, partitions)`
    /// pins the run bit-for-bit; `threads` never affects results.
    pub partitions: usize,
    /// Worker threads executing the partitioned kernel (ignored when
    /// `partitions == 1`). Changes wall-clock time only, never the run.
    pub threads: usize,
    /// Route by the versioned key-range table
    /// ([`crate::sharded::RoutingTable::even`]) instead of the static key
    /// hash. Implied by `migrations` / `rebalance`; set it alone to
    /// measure static range routing (the rebalancer's baseline). Requires
    /// a closed-loop `window`.
    pub range_routing: bool,
    /// Scripted one-shot key-range migrations (each fires at its virtual
    /// time; implies `range_routing`).
    pub migrations: Vec<ScriptedMigration>,
    /// Automatic rebalancing policy: watch per-group/per-key load and
    /// migrate hot ranges (implies `range_routing`).
    pub rebalance: Option<RebalanceConfig>,
    /// Offered load, in commands per delay. `0.0` (the default) is the
    /// classic drain-the-backlog run: every command is eligible at time
    /// zero and latency starts at submission. `> 0.0` paces arrivals:
    /// command `i` arrives at `i / rate` and its latency clock starts at
    /// *arrival* — router-queue wait counts, so a hot shard's growing
    /// backlog shows up in the latency tail, as it would for real
    /// clients. Requires a closed-loop `window`.
    pub arrival_rate_per_delay: f64,
    /// Per-group failure mode (index = group; missing entries default to
    /// [`GroupMode::CrashPmp`]). Empty — the default — is the all-crash
    /// service, bit-identical to the pre-Byzantine harness. A
    /// [`GroupMode::Byzantine`] group replicates through signed
    /// non-equivocating broadcast and the router confirms its commits at
    /// `f + 1` distinct replica reports.
    pub group_modes: Vec<GroupMode>,
    /// Adversary injection: `(group, replica index, kind)` slots replaced
    /// by a Byzantine actor of that [`AdversaryKind`] (at most one per
    /// slot; the first listed wins). Placements must land in
    /// Byzantine-mode groups and respect the kind's slot rules
    /// ([`AdversaryKind::may_lead`], [`AdversaryKind::must_lead`]): a
    /// lying leader sits at replica 0 and wants a scripted Ω announcement
    /// to a correct replica to restore the group's liveness; a receipt
    /// forger sits at a follower slot.
    pub adversaries: Vec<(usize, usize, AdversaryKind)>,
    /// Record typed observability events ([`simnet::obs::Event`]) during
    /// the run: [`super::run_sharded_with_events`] returns the merged,
    /// deterministically ordered stream (ready for the exporters in
    /// [`simnet::obs`], and for [`crate::spans::aggregate_spans`], which
    /// reduces it to per-group, per-stage command-lifecycle latency
    /// histograms). Off — the default — records nothing and is
    /// bit-identical to the pre-observability harness. Recording is
    /// strictly read-only: enabling it never changes a run's schedule,
    /// metrics or report.
    pub record_events: bool,
    /// Byzantine pipeline window: how many signed broadcasts each
    /// Byzantine-mode leader keeps in flight before stalling on
    /// self-delivery ([`crate::smr::ByzSmrNode::with_pipeline_window`]).
    /// `1` — the default — is the classic one-slot protocol, bit-identical
    /// to the pre-pipeline harness. Ignored by crash-mode groups.
    pub byz_pipeline_window: usize,
    /// Speculative fast path for Byzantine-mode leaders: settle own
    /// batches at the broadcast write ack instead of self-delivery
    /// ([`crate::smr::ByzSmrNode::with_fast_path`]); the router counts the
    /// commits whose confirmation quorum the early report completed
    /// ([`super::ShardedRunReport::byz_fast_confirms`]). Off by default.
    pub byz_fast_path: bool,
    /// **Fault-injection switch for the fuzzer's oracle demo**: when set,
    /// replicas are built *without* client-session dedup, reintroducing
    /// the pre-dedup bug where the router's at-least-once re-submission
    /// after a failover duplicates committed commands in the log. Never
    /// set outside tests — it exists so the checker can prove it catches
    /// (and the shrinker minimizes) a real safety violation.
    pub disable_session_dedup: bool,
}

impl ShardedScenario {
    /// Group `g`'s failure mode (missing entries are crash-mode).
    pub fn mode_of(&self, g: usize) -> GroupMode {
        self.group_modes.get(g).copied().unwrap_or_default()
    }

    /// Whether any group runs in Byzantine mode.
    pub fn has_byzantine(&self) -> bool {
        self.group_modes.contains(&GroupMode::Byzantine)
    }

    /// The deployment's actor-id layout.
    pub fn topology(&self) -> GroupTopology {
        GroupTopology {
            groups: self.groups,
            n: self.n,
            m: self.m,
        }
    }

    /// Whether this scenario routes by the versioned range table (and may
    /// therefore migrate ranges at run time).
    pub fn dynamic_routing(&self) -> bool {
        self.range_routing || !self.migrations.is_empty() || self.rebalance.is_some()
    }

    /// The adversary occupying replica `i` of group `g`, if any.
    pub fn adversary_at(&self, g: usize, i: usize) -> Option<AdversaryKind> {
        (self.adversaries.iter())
            .find(|&&(ag, ai, _)| (ag, ai) == (g, i))
            .map(|&(_, _, kind)| kind)
    }

    /// Whether group `g` loses its initial leader — to a scripted crash or
    /// to an adversary that *is* that leader — and therefore needs an Ω
    /// announcement electing a successor.
    fn needs_successor(&self, g: usize) -> bool {
        self.crash_leaders.iter().any(|&(cg, _)| cg == g)
            || (self.adversaries.iter()).any(|&(ag, _, kind)| ag == g && kind.must_lead())
    }

    /// The `common_case` baseline of the same deployment (same topology
    /// and seed, every other field at its default): what repro printing
    /// and shrinking diff against.
    pub fn baseline(&self) -> ShardedScenario {
        ShardedScenario::common_case(self.groups, self.n, self.m, self.seed)
    }

    /// Checks every knob's precondition; the first violated one is the
    /// error. The run entry points panic with it.
    pub fn validate(&self) -> Result<(), String> {
        KNOBS.iter().try_for_each(|knob| (knob.check)(self))
    }

    /// How many faults the scenario injects — the number the shrinker
    /// drives down, and what the fuzzer's virtual-time budget scales
    /// with. Counts crashes, adversaries, migrations, the rebalancer and
    /// the dedup-disable switch; the paired Ω announcements ride along
    /// free.
    pub fn fault_count(&self) -> usize {
        KNOBS.iter().map(|knob| (knob.faults)(self)).sum()
    }

    /// `(field, Rust expression)` for every printed knob that differs
    /// from the [`baseline`](Self::baseline), in table order: the
    /// assignments that rebuild this scenario from `common_case`.
    pub fn assignments(&self) -> Vec<(&'static str, String)> {
        let base = self.baseline();
        (KNOBS.iter())
            .filter(|knob| knob.role != Role::Observation && (knob.differs)(self, &base))
            .map(|knob| (knob.name, (knob.literal)(self)))
            .collect()
    }

    /// Every one-step simplification of the scenario, in table order
    /// (most aggressive first).
    pub fn simplifications(&self) -> Vec<ShardedScenario> {
        let base = self.baseline();
        let mut out = Vec::new();
        for knob in KNOBS {
            if !matches!(knob.role, Role::Shape | Role::Observation) {
                (knob.steps)(self, &base, &mut out);
            }
        }
        out
    }
}

/// What a knob is for (see the module docs).
#[derive(PartialEq)]
enum Role {
    Shape,
    Observation,
    Load,
    Fault,
    Tuning,
}

/// One row of the knob table. Every column has a default generated from
/// the field (see `knob_table!`); a row states the ones that differ.
struct Knob {
    name: &'static str,
    role: Role,
    /// Whether the field differs between two scenarios.
    differs: fn(&ShardedScenario, &ShardedScenario) -> bool,
    /// The field as a Rust expression. Default: its `Debug` form, which is
    /// one for numbers, flags and the plain-data config structs.
    literal: fn(&ShardedScenario) -> String,
    /// Pushes the field's one-step simplifications of the first scenario,
    /// most aggressive first; the second is its baseline. Followed to
    /// their end they leave the field at its simplest value. Default: one
    /// step, straight back to the baseline's value — so a new knob is
    /// within the shrinker's reach unless its row says otherwise.
    steps: fn(&ShardedScenario, &ShardedScenario, &mut Vec<ShardedScenario>),
    /// Faults the field injects. Default: none.
    faults: fn(&ShardedScenario) -> usize,
    /// The field's precondition. Default: none.
    check: fn(&ShardedScenario) -> Result<(), String>,
}

/// Expands the table: `common_case` from the default column, `KNOBS`
/// from the rest. A row is `field = default => role, column: value, ...;`.
macro_rules! knob_table {
    (
        $(#[$ctor_doc:meta])*
        fn $ctor:ident($($arg:ident: $arg_ty:ty),*);
        $($field:ident = $default:expr => $role:ident $(, $column:ident: $value:expr)*;)*
    ) => {
        impl ShardedScenario {
            $(#[$ctor_doc])*
            pub fn $ctor($($arg: $arg_ty),*) -> ShardedScenario {
                ShardedScenario { $($field: $default),* }
            }
        }

        static KNOBS: &[Knob] = &[$(Knob {
            $($column: $value,)*
            ..Knob {
                name: stringify!($field),
                role: Role::$role,
                differs: |a, b| a.$field != b.$field,
                literal: |sc| format!("{:?}", sc.$field),
                steps: |sc, base, out| {
                    if sc.$field != base.$field {
                        out.push(edited(sc, |c| c.$field = base.$field.clone()));
                    }
                },
                faults: |_| 0,
                check: |_| Ok(()),
            }
        }),*];
    };
}

/// `sc` with `edit` applied: one shrink candidate.
fn edited(sc: &ShardedScenario, edit: impl FnOnce(&mut ShardedScenario)) -> ShardedScenario {
    let mut c = sc.clone();
    edit(&mut c);
    c
}

/// One candidate per element of a list field: the scenario with element
/// `i` gone, `removed(candidate, i)` doing the removal.
fn each_removed(
    sc: &ShardedScenario,
    out: &mut Vec<ShardedScenario>,
    len: usize,
    removed: impl Fn(&mut ShardedScenario, usize),
) {
    out.extend((0..len).map(|i| edited(sc, |c| removed(c, i))));
}

/// Drops group `g`'s Ω announcements once no fault there needs a
/// successor any more.
fn drop_idle_announcements(c: &mut ShardedScenario, g: usize) {
    if !c.needs_successor(g) {
        c.announce.retain(|&(ag, _, _)| ag != g);
    }
}

fn ensure(holds: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(message())
    }
}

fn vec_literal<T>(items: &[T], item: impl Fn(&T) -> String) -> String {
    let items: Vec<String> = items.iter().map(item).collect();
    format!("vec![{}]", items.join(", "))
}

/// A `Duration` expression; whole-delay values print via `from_delays`,
/// anything else falls back to raw ticks.
fn dur(d: Duration) -> String {
    if d.0.is_multiple_of(simnet::TICKS_PER_DELAY) {
        format!("Duration::from_delays({})", d.0 / simnet::TICKS_PER_DELAY)
    } else {
        format!("Duration({})", d.0)
    }
}

fn delay_literal(d: &DelayModel) -> String {
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

knob_table! {
    /// A failure-free closed-loop run with synchronous links and a window
    /// sized to keep batched pipelines full.
    fn common_case(groups: usize, n: usize, m: usize, seed: u64);

    // The deployment. `common_case`'s arguments never differ from the
    // baseline; the repro prints them in the constructor call.
    groups = groups => Shape;
    n = n => Shape;
    m = m => Shape;
    seed = seed => Shape;
    window = 16 => Shape;
    group_modes = Vec::new() => Shape,
        literal: |sc| vec_literal(&sc.group_modes, |m| format!("GroupMode::{m:?}"));
    max_delays = 50_000 => Shape;

    // Faults, deleted one at a time.
    migrations = Vec::new() => Fault,
        steps: |sc, _, out| each_removed(sc, out, sc.migrations.len(), |c, i| {
            c.migrations.remove(i);
        }),
        literal: |sc| format!("vec!{:?}", sc.migrations),
        faults: |sc| sc.migrations.len();
    rebalance = None => Fault,
        faults: |sc| usize::from(sc.rebalance.is_some());
    adversaries = Vec::new() => Fault,
        // A lying leader's recovery announcement goes with it.
        steps: |sc, _, out| each_removed(sc, out, sc.adversaries.len(), |c, i| {
            let (g, _, _) = c.adversaries.remove(i);
            drop_idle_announcements(c, g);
        }),
        literal: |sc| {
            let slot = |&(g, i, kind): &_| format!("({g}, {i}, AdversaryKind::{kind:?})");
            vec_literal(&sc.adversaries, slot)
        },
        faults: |sc| sc.adversaries.len(),
        check: |sc| sc.adversaries.iter().try_for_each(|&(g, i, kind)| {
            ensure(sc.mode_of(g) == GroupMode::Byzantine, || format!(
                "adversary placement (group {g}, replica {i}) outside a Byzantine-mode group"
            ))?;
            ensure(i < sc.n, || format!("adversary replica index {i} out of range"))?;
            // Open loop preloads each backlog into the initial-leader
            // slot; an adversary there would silently discard the group's
            // whole workload and the run would just burn its budget.
            ensure(sc.window > 0 || i != 0, || format!(
                "adversary at the initial-leader slot of group {g} needs a closed-loop \
                 window (open loop would preload the backlog into the adversary)"
            ))?;
            ensure(kind.may_lead() || i != 0, || format!(
                "{kind:?} cannot occupy group {g}'s initial-leader slot"
            ))?;
            ensure(!kind.must_lead() || i == 0, || format!(
                "{kind:?} acts as group {g}'s initial leader: place it at replica 0, not {i}"
            ))
        });
    crash_leaders = Vec::new() => Fault,
        // The paired announcement goes too, unless another fault in the
        // group still needs it.
        steps: |sc, _, out| each_removed(sc, out, sc.crash_leaders.len(), |c, i| {
            let (g, _) = c.crash_leaders.remove(i);
            drop_idle_announcements(c, g);
        }),
        literal: |sc| format!("vec!{:?}", sc.crash_leaders),
        faults: |sc| sc.crash_leaders.len();
    // Announcements ride along free with the fault that needs them; only
    // one no fault needs (a scripted demotion of a healthy leader) is a
    // simplification of its own.
    announce = Vec::new() => Fault,
        steps: |sc, _, out| {
            for (i, &(g, _, _)) in sc.announce.iter().enumerate() {
                if !sc.needs_successor(g) {
                    out.push(edited(sc, |c| {
                        c.announce.remove(i);
                    }));
                }
            }
        },
        literal: |sc| format!("vec!{:?}", sc.announce);
    disable_session_dedup = false => Fault,
        faults: |sc| usize::from(sc.disable_session_dedup);

    // Complexity dimensions, cheapest-to-understand scenario first.
    byz_fast_path = false => Tuning;
    byz_pipeline_window = 1 => Tuning,
        check: |sc| ensure(sc.byz_pipeline_window >= 1, || {
            "the Byzantine pipeline window is 1-based (1 = the classic one-slot protocol)".into()
        });
    partitions = 1 => Tuning,
        check: |sc| ensure(
            sc.partitions <= 1 || sc.delay.min_delay() > Duration::ZERO,
            || "partitioned execution needs links with a positive minimum delay".into(),
        );
    // Synchronous links take the crash groups' batch override with them:
    // `fuzz::gen` draws it only beside an RDMA cost model.
    delay = DelayModel::synchronous() => Tuning,
        steps: |sc, base, out| {
            if sc.delay != base.delay {
                out.push(edited(sc, |c| {
                    c.delay = base.delay.clone();
                    c.adaptive_batch = 0;
                }));
            }
        },
        literal: |sc| delay_literal(&sc.delay);
    adaptive_batch = 0 => Tuning;
    arrival_rate_per_delay = 0.0 => Load,
        check: |sc| ensure(sc.arrival_rate_per_delay <= 0.0 || sc.window > 0, || {
            "paced arrivals need a closed-loop window (router-mediated submission)".into()
        });
    range_routing = false => Tuning;
    // Simplest is uniform over the *same* key space: scripted migrations
    // name keys.
    workload = WorkloadSpec::uniform() => Load,
        steps: |sc, _, out| {
            let uniform = WorkloadSpec::Uniform { keys: sc.workload.key_space() };
            if sc.workload != uniform {
                out.push(edited(sc, |c| c.workload = uniform));
            }
        },
        // The spec's `Debug` form is its literal but for the enum path and
        // the hot-key `Vec`.
        literal: |sc| {
            format!("WorkloadSpec::{:?}", sc.workload).replace("hot_keys: [", "hot_keys: vec![")
        };
    batch = 1 => Tuning;
    // Halved down to the 20 commands a failover schedule needs to show
    // anything, not back up to the default's 1 000.
    total_cmds = 1_000 => Load,
        steps: |sc, _, out| {
            if sc.total_cmds > 20 {
                out.push(edited(sc, |c| c.total_cmds = (sc.total_cmds / 2).max(20)));
            }
        };

    threads = 1 => Observation;
    record_events = false => Observation;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::generate;

    fn shrinks(knob: &Knob) -> bool {
        !matches!(knob.role, Role::Shape | Role::Observation)
    }

    /// Scenarios that together set every shrinkable knob off its default:
    /// the generator's first 256 seeds, plus the knobs it never draws.
    fn samples() -> Vec<ShardedScenario> {
        let mut samples: Vec<ShardedScenario> = (0..256).map(generate).collect();
        let mut sc = ShardedScenario::common_case(2, 3, 3, 7);
        sc.group_modes = vec![GroupMode::Byzantine; 2];
        sc.adversaries = vec![
            (0, 0, AdversaryKind::FarFutureLeader),
            (1, 2, AdversaryKind::ReceiptForger),
        ];
        sc.announce = vec![(0, 1, 80), (1, 1, 60)];
        sc.range_routing = true;
        sc.disable_session_dedup = true;
        sc.workload = WorkloadSpec::HotSet {
            keys: 64,
            hot_keys: vec![1, 2],
            hot_permille: 500,
        };
        samples.push(sc);
        samples
    }

    #[test]
    fn every_shrinkable_knob_descends_to_its_simplest_value() {
        let samples = samples();
        for knob in KNOBS.iter().filter(|k| shrinks(k)) {
            let moved = |sc: &ShardedScenario| (knob.differs)(sc, &sc.baseline());
            assert!(
                samples.iter().any(moved),
                "{}: no sample sets it, the walk below proves nothing",
                knob.name
            );
        }
        for sample in &samples {
            // Follow first candidates to the fixed point (no oracle: every
            // step is taken), as the shrinker would on a scenario that
            // keeps failing.
            let mut sc = sample.clone();
            let mut steps = 0;
            while let Some(next) = sc.simplifications().into_iter().next() {
                sc = next;
                steps += 1;
                assert!(steps < 200, "descent does not terminate: {sample:?}");
            }
            sc.validate()
                .expect("a simplification broke a precondition");
            let left: Vec<&str> = sc.assignments().into_iter().map(|(name, _)| name).collect();
            for knob in KNOBS.iter().filter(|k| left.contains(&k.name)) {
                match knob.name {
                    // The two rows whose simplest value is not the default.
                    "total_cmds" => assert!(sc.total_cmds <= 20, "{sc:?}"),
                    "workload" => assert!(matches!(sc.workload, WorkloadSpec::Uniform { .. })),
                    name => assert!(
                        !shrinks(knob),
                        "{name} is shrinkable, yet no step restores its default: {sc:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn synchronous_links_take_adaptive_batching_with_them() {
        let mut sc = ShardedScenario::common_case(1, 3, 3, 1);
        sc.delay = DelayModel::Rdma(simnet::RdmaCost::baseline());
        sc.adaptive_batch = 8;
        let synchronous = (sc.simplifications().into_iter())
            .find(|c| c.delay == DelayModel::synchronous())
            .expect("no synchronous-links step");
        assert_eq!(synchronous.adaptive_batch, 0);
    }

    #[test]
    fn roles_decide_what_is_printed_and_counted() {
        let mut sc = ShardedScenario::common_case(2, 3, 3, 9);
        assert!(sc.assignments().is_empty());
        assert_eq!(sc.fault_count(), 0);
        sc.total_cmds = 20; // as small as the shrinker makes it
        assert!(sc.simplifications().is_empty());
        sc.total_cmds = 1_000;
        // Observation-only knobs: not printed, not shrunk, not faults.
        sc.threads = 4;
        sc.record_events = true;
        assert!(sc.assignments().is_empty());
        assert_eq!(sc.simplifications().len(), 1, "halving the commands");
        // Shape is printed and left alone.
        sc.window = 4;
        sc.group_modes = vec![GroupMode::CrashPmp, GroupMode::Byzantine];
        assert_eq!(sc.simplifications().len(), 1);
        // Faults count; the Ω announcement rides along free.
        sc.adversaries = vec![(1, 0, AdversaryKind::Equivocator)];
        sc.crash_leaders = vec![(0, 10)];
        sc.announce = vec![(0, 1, 60), (1, 1, 80)];
        sc.rebalance = Some(RebalanceConfig::default());
        assert_eq!(sc.fault_count(), 3);
        let printed: Vec<String> = (sc.assignments().iter())
            .map(|(name, expr)| format!("{name} = {expr}"))
            .collect();
        assert_eq!(
            printed[..4],
            [
                "window = 4",
                "group_modes = vec![GroupMode::CrashPmp, GroupMode::Byzantine]",
                "rebalance = Some(RebalanceConfig { check_every_delays: 200, \
                 cooldown_delays: 100, hot_group_permille: 300, hot_key_permille: 100, \
                 min_window_commits: 64, min_hold_delays: 0 })",
                "adversaries = vec![(1, 0, AdversaryKind::Equivocator)]",
            ]
        );
        // Removing the lying leader takes its group's announcement along;
        // removing the crash takes the other.
        let without_liar = &sc.simplifications()[1];
        assert!(without_liar.adversaries.is_empty());
        assert_eq!(without_liar.announce, vec![(0, 1, 60)]);
    }

    #[test]
    fn values_print_as_the_rust_that_rebuilds_them() {
        use crate::sharded::KeyRange;
        let mut sc = ShardedScenario::common_case(2, 3, 3, 9);
        sc.migrations = vec![ScriptedMigration {
            at_delays: 40,
            range: KeyRange { lo: 8, hi: 16 },
            to: 1,
        }];
        sc.crash_leaders = vec![(0, 15)];
        sc.announce = vec![(0, 1, 70)];
        sc.delay = DelayModel::Uniform {
            lo: Duration::from_delays(1),
            hi: Duration(2_500),
        };
        sc.arrival_rate_per_delay = 0.25;
        sc.workload = WorkloadSpec::HotSet {
            keys: 64,
            hot_keys: vec![1, 2],
            hot_permille: 500,
        };
        let printed: Vec<String> = (sc.assignments().iter())
            .map(|(name, expr)| format!("{name} = {expr}"))
            .collect();
        assert_eq!(
            printed,
            [
                "migrations = vec![ScriptedMigration { at_delays: 40, \
                 range: KeyRange { lo: 8, hi: 16 }, to: 1 }]",
                "crash_leaders = vec![(0, 15)]",
                "announce = vec![(0, 1, 70)]",
                "delay = DelayModel::Uniform { lo: Duration::from_delays(1), hi: Duration(2500) }",
                "arrival_rate_per_delay = 0.25",
                "workload = WorkloadSpec::HotSet { keys: 64, hot_keys: vec![1, 2], \
                 hot_permille: 500 }",
            ]
        );
        sc.delay = DelayModel::Rdma(simnet::RdmaCost::congested());
        sc.workload = WorkloadSpec::Zipf { keys: 64, s: 0.99 };
        let printed = sc.assignments();
        assert_eq!(printed[3].1, "DelayModel::Rdma(RdmaCost::congested())");
        assert_eq!(printed[5].1, "WorkloadSpec::Zipf { keys: 64, s: 0.99 }");
    }

    #[test]
    fn preconditions_name_the_offending_placement() {
        let mut sc = ShardedScenario::common_case(2, 3, 3, 3);
        sc.group_modes = vec![GroupMode::Byzantine, GroupMode::CrashPmp];
        assert_eq!(sc.validate(), Ok(()));
        for (slot, needle) in [
            (
                (1, 1, AdversaryKind::Silent),
                "outside a Byzantine-mode group",
            ),
            ((0, 3, AdversaryKind::Silent), "out of range"),
            ((0, 0, AdversaryKind::ReceiptForger), "initial-leader slot"),
            ((0, 1, AdversaryKind::Equivocator), "place it at replica 0"),
        ] {
            sc.adversaries = vec![slot];
            let err = sc.validate().expect_err("placement accepted");
            assert!(err.contains(needle), "{slot:?}: {err}");
        }
        sc.adversaries = vec![(0, 0, AdversaryKind::FarFutureLeader)];
        assert_eq!(sc.validate(), Ok(()));
        sc.window = 0;
        assert!(sc.validate().unwrap_err().contains("closed-loop"));
    }
}
