//! Bounded systematic schedule exploration (DPOR-lite) over the
//! kernel's delivery choices.
//!
//! The deterministic kernel dispatches same-tick events in `(time, seq)`
//! order; with a [`simnet::Simulation::set_choice_hook`] installed, that
//! tie-break becomes a *choice point* the explorer controls. A schedule
//! is then a **choice vector** — the index picked at each multi-option
//! slate, in order — and replaying a vector is bit-deterministic.
//!
//! [`explore`] enumerates inequivalent vectors by depth-first frontier
//! search with **sleep-set pruning** (Godefroid): after exploring one
//! branch of a choice point, the branched-over alternatives are put to
//! sleep in the sibling branches and never re-explored until some
//! *dependent* event (per [`independence`]) wakes the state. Sleep sets
//! alone are a sound reduction — every Mazurkiewicz trace keeps at least
//! one representative — without the bookkeeping of full persistent-set
//! DPOR; redundant runs that wake no new behaviour are detected
//! (sleep-blocked) and their subtrees cut.
//!
//! Every explored schedule runs the full scenario and is audited by the
//! fuzzer's oracle ([`crate::fuzz::audit_report`]); failures carry their
//! choice vector, shrink to a minimal vector ([`shrink_choices`]), and
//! render as timelines ([`render_schedule_timeline`]). The `explore`
//! bench binary drives exhaustive sweeps of tiny configurations.

pub mod independence;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use simnet::{ActorId, Choice, DelayModel, Simulation};

use crate::fuzz::{audit_report, Violation};
use crate::harness::{run_sharded_instrumented, ShardedRunReport, ShardedScenario};
use crate::types::Msg;
use independence::{independent, summarize_choice, ExploredEvent};

/// Budgets and switches for one [`explore`] sweep.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Maximum schedules to run before abandoning the frontier.
    pub max_schedules: usize,
    /// Maximum choice points a single run branches at; deeper slates
    /// fall back to default order (the run still completes, but is
    /// marked truncated and grows no children past the cap).
    pub max_depth: usize,
    /// Sleep-set pruning on (the default). Off enumerates the full
    /// naive product of slate sizes — the baseline pruning is measured
    /// against.
    pub prune: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 10_000,
            max_depth: 64,
            prune: true,
        }
    }
}

/// One recorded multi-option choice point of a run.
#[derive(Clone, Debug)]
pub struct ChoicePoint {
    /// The slate offered, in ascending kernel `seq` order.
    pub options: Vec<ExploredEvent>,
    /// The sleep set on arrival at this point (empty when pruning is
    /// off or the point is inside a replayed prefix).
    pub sleep: Vec<ExploredEvent>,
    /// The index dispatched.
    pub chosen: usize,
}

/// One schedule's execution under the explorer's hook.
#[derive(Debug)]
pub struct ScheduleRun {
    /// The run's report (auditable by [`crate::fuzz::audit_report`]).
    pub report: ShardedRunReport,
    /// The multi-option choice points encountered, in order.
    pub points: Vec<ChoicePoint>,
    /// The index taken at each point (`points[i].chosen`, flattened —
    /// replaying this vector reproduces the run bit-for-bit).
    pub taken: Vec<usize>,
    /// Whether the run hit the depth cap (choices past it defaulted).
    pub truncated: bool,
    /// Whether the run went sleep-blocked: it dispatched an event its
    /// sleep set proves commutes back into an already-explored trace,
    /// so the whole continuation is redundant.
    pub redundant: bool,
    /// Alternatives discarded at the sleep-blocking point, if any (they
    /// are not recorded as a [`ChoicePoint`], so the explorer counts
    /// them as pruned from here).
    pub block_pruned: u64,
    /// Observability events, when the scenario records them (the
    /// timeline path); empty otherwise.
    pub events: Vec<simnet::obs::Event>,
}

/// A schedule the oracle rejected.
#[derive(Clone, Debug)]
pub struct ScheduleFailure {
    /// The failing choice vector (trailing default choices trimmed;
    /// replay with [`run_schedule`]).
    pub choices: Vec<usize>,
    /// What the oracle reported.
    pub violation: Violation,
}

/// What one [`explore`] sweep found.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Schedules executed (sleep-blocked redundant runs included).
    pub schedules_run: u64,
    /// Branches never executed because their event slept (plus the
    /// unexplored alternatives of sleep-blocked points) — the work the
    /// independence relation saved.
    pub schedules_pruned: u64,
    /// Runs that went sleep-blocked (duplicates of explored traces).
    pub schedules_redundant: u64,
    /// Runs that hit the depth cap.
    pub truncated_runs: u64,
    /// Whether the frontier drained within `max_schedules` — together
    /// with `truncated_runs == 0` this makes the sweep *exhaustive*.
    pub frontier_exhausted: bool,
    /// Schedules the oracle passed.
    pub oracle_pass: u64,
    /// Schedules the oracle rejected (total; the first
    /// [`ExploreReport::MAX_STORED_FAILURES`] are kept in `failures`).
    pub failures_found: u64,
    /// The stored failing schedules.
    pub failures: Vec<ScheduleFailure>,
    /// Distinct final-state fingerprints over all runs (see
    /// [`fingerprint`]).
    pub fingerprints: BTreeSet<u64>,
    /// Widest slate offered at any choice point.
    pub max_branching: usize,
    /// Total multi-option choice points recorded across all runs.
    pub choice_points: u64,
}

impl ExploreReport {
    /// Cap on failing schedules kept in [`ExploreReport::failures`].
    pub const MAX_STORED_FAILURES: usize = 32;
}

/// Mutable state behind the kernel choice hook for one run.
struct HookState {
    /// Memory-actor ids (footprints only apply to requests at these).
    mems: BTreeSet<ActorId>,
    /// Frozen prefix to replay; free choice beyond it.
    vector: Vec<usize>,
    /// Multi-option points consumed so far.
    pos: usize,
    /// Depth cap on *free* choice points.
    max_depth: usize,
    /// Sleep-set pruning on.
    prune: bool,
    /// The live sleep set (seq-identified events).
    sleep: Vec<ExploredEvent>,
    points: Vec<ChoicePoint>,
    taken: Vec<usize>,
    truncated: bool,
    /// Set when the run goes sleep-blocked; recording stops.
    blocked: bool,
    /// Alternatives discarded at the blocking point.
    block_pruned: u64,
    max_branching: usize,
}

impl HookState {
    fn slept(&self, ev: &ExploredEvent) -> bool {
        self.sleep.iter().any(|z| z.seq == ev.seq)
    }

    fn on_choices(&mut self, choices: &[Choice<'_, Msg>]) -> usize {
        if choices.len() == 1 {
            // Forced dispatch: no choice, but the sleep set must see it —
            // a forced event that is itself asleep proves the whole
            // continuation replays an explored trace.
            if self.pos >= self.vector.len() && !self.blocked && self.prune {
                let ev = summarize_choice(&choices[0], &self.mems);
                if self.slept(&ev) {
                    self.blocked = true;
                } else {
                    self.sleep.retain(|z| independent(z, &ev));
                }
            }
            return 0;
        }
        let p = self.pos;
        let free = p >= self.vector.len();
        if free && p >= self.max_depth {
            self.truncated = true;
            return 0;
        }
        self.pos += 1;
        let options: Vec<ExploredEvent> = choices
            .iter()
            .map(|c| summarize_choice(c, &self.mems))
            .collect();
        self.max_branching = self.max_branching.max(options.len());
        let chosen = if !free {
            // Replaying the parent's prefix; the inherited sleep set was
            // computed at the branch point and needs no updates here.
            self.vector[p].min(options.len() - 1)
        } else if self.blocked {
            0
        } else if self.prune {
            match (0..options.len()).find(|&i| !self.slept(&options[i])) {
                Some(i) => {
                    let sleep_snapshot = self.sleep.clone();
                    self.sleep.retain(|z| independent(z, &options[i]));
                    self.points.push(ChoicePoint {
                        options,
                        sleep: sleep_snapshot,
                        chosen: i,
                    });
                    self.taken.push(i);
                    return i;
                }
                None => {
                    // Every alternative is asleep: this state is fully
                    // covered by already-explored traces.
                    self.blocked = true;
                    self.block_pruned += options.len() as u64 - 1;
                    return 0;
                }
            }
        } else {
            0
        };
        if !self.blocked {
            self.points.push(ChoicePoint {
                options,
                sleep: self.sleep.clone(),
                chosen,
            });
            self.taken.push(chosen);
        }
        chosen
    }
}

/// Clones `sc` into the explorer's normalized form: the monolithic
/// single-threaded kernel with observability off.
///
/// # Panics
///
/// Panics unless the scenario's delay model is constant — under jitter
/// the schedule space is the delay space, not the same-tick tie-break
/// the explorer enumerates.
fn normalize(sc: &ShardedScenario) -> ShardedScenario {
    assert!(
        matches!(sc.delay, DelayModel::Constant(_)),
        "explore() needs a constant delay model: same-tick ordering is \
         the only schedule freedom it enumerates"
    );
    let mut norm = sc.clone();
    norm.partitions = 1;
    norm.threads = 1;
    norm.record_events = false;
    norm
}

/// The memory-actor id set of `sc`'s deployment.
fn memory_ids(sc: &ShardedScenario) -> BTreeSet<ActorId> {
    let topo = sc.topology();
    (0..sc.groups).flat_map(|g| topo.mems(g)).collect()
}

/// Executes one schedule: replay `vector` at the first choice points,
/// then free-run (first non-slept alternative under pruning, default
/// order otherwise) with `sleep` as the inherited sleep set.
fn run_one(
    sc: &ShardedScenario,
    mems: &BTreeSet<ActorId>,
    cfg: &ExploreConfig,
    vector: Vec<usize>,
    sleep: Vec<ExploredEvent>,
) -> ScheduleRun {
    let state = Rc::new(RefCell::new(HookState {
        mems: mems.clone(),
        vector,
        pos: 0,
        max_depth: cfg.max_depth,
        prune: cfg.prune,
        sleep,
        points: Vec::new(),
        taken: Vec::new(),
        truncated: false,
        blocked: false,
        block_pruned: 0,
        max_branching: 0,
    }));
    let hook_state = state.clone();
    let (report, events) = run_sharded_instrumented(sc, move |sim: &mut Simulation<Msg>| {
        sim.set_choice_hook(Box::new(move |_t, choices| {
            hook_state.borrow_mut().on_choices(choices)
        }));
    });
    let mut st = state.borrow_mut();
    ScheduleRun {
        report,
        points: std::mem::take(&mut st.points),
        taken: std::mem::take(&mut st.taken),
        truncated: st.truncated,
        redundant: st.blocked,
        block_pruned: st.block_pruned,
        events,
    }
}

/// Replays one choice vector against `sc` (normalized as [`explore`]
/// normalizes it) and returns the run. Entry `i` picks the alternative
/// at the `i`-th multi-option choice point (out-of-range indices clamp);
/// points past the vector take default `(time, seq)` order.
pub fn run_schedule(sc: &ShardedScenario, choices: &[usize]) -> ScheduleRun {
    let norm = normalize(sc);
    let mems = memory_ids(&norm);
    let cfg = ExploreConfig {
        // Honor arbitrarily long replay vectors; the depth cap only
        // gates free branching.
        max_depth: usize::MAX,
        prune: true,
        ..ExploreConfig::default()
    };
    run_one(&norm, &mems, &cfg, choices.to_vec(), Vec::new())
}

/// The sleep set a child branch inherits: everything already explored
/// from this point (the run's own choice plus earlier-enumerated
/// siblings) joined with the point's arrival sleep set, kept only where
/// independent of the branch event — dependent events *wake*.
fn child_sleep(pt: &ChoicePoint, branch: usize) -> Vec<ExploredEvent> {
    let b = &pt.options[branch];
    let mut seen = BTreeSet::new();
    pt.sleep
        .iter()
        .chain(pt.options[..branch].iter())
        .chain(std::iter::once(&pt.options[pt.chosen]))
        .filter(|ev| seen.insert(ev.seq) && independent(ev, b))
        .cloned()
        .collect()
}

/// A frontier entry: a schedule prefix awaiting execution.
struct FrontierItem {
    vector: Vec<usize>,
    sleep: Vec<ExploredEvent>,
}

/// Systematically explores `sc`'s schedule space under `cfg`, auditing
/// every schedule with the fuzzer's oracle. Deterministic: the same
/// `(scenario, config)` always yields the same report, including the
/// order failures are found in.
pub fn explore(sc: &ShardedScenario, cfg: &ExploreConfig) -> ExploreReport {
    let norm = normalize(sc);
    let mems = memory_ids(&norm);
    let mut report = ExploreReport {
        frontier_exhausted: true,
        ..ExploreReport::default()
    };
    let mut stack = vec![FrontierItem {
        vector: Vec::new(),
        sleep: Vec::new(),
    }];
    while let Some(item) = stack.pop() {
        if report.schedules_run as usize >= cfg.max_schedules {
            report.frontier_exhausted = false;
            break;
        }
        let run = run_one(&norm, &mems, cfg, item.vector.clone(), item.sleep);
        report.schedules_run += 1;
        report.truncated_runs += u64::from(run.truncated);
        report.schedules_redundant += u64::from(run.redundant);
        report.max_branching = report.max_branching.max(
            run.points
                .iter()
                .map(|p| p.options.len())
                .max()
                .unwrap_or(0),
        );
        report.choice_points += run.points.len() as u64;
        report.fingerprints.insert(fingerprint(&run.report));
        match audit_report(&norm, &run.report) {
            Ok(()) => report.oracle_pass += 1,
            Err(v) => {
                report.failures_found += 1;
                if report.failures.len() < ExploreReport::MAX_STORED_FAILURES {
                    let mut choices = run.taken.clone();
                    while choices.last() == Some(&0) {
                        choices.pop();
                    }
                    report.failures.push(ScheduleFailure {
                        choices,
                        violation: v,
                    });
                }
            }
        }
        // Branch every free choice point (prefix points were branched by
        // the ancestors that froze them). A sleep-blocked run records no
        // points past the block, cutting the redundant subtree.
        let mut children = Vec::new();
        for p in item.vector.len()..run.points.len() {
            let pt = &run.points[p];
            for a in 0..pt.options.len() {
                if a == pt.chosen {
                    continue;
                }
                if cfg.prune && pt.sleep.iter().any(|z| z.seq == pt.options[a].seq) {
                    report.schedules_pruned += 1;
                    continue;
                }
                let mut vector = run.taken[..p].to_vec();
                vector.push(a);
                children.push(FrontierItem {
                    vector,
                    sleep: if cfg.prune {
                        child_sleep(pt, a)
                    } else {
                        Vec::new()
                    },
                });
            }
        }
        // Account the blocking point's unexplored alternatives.
        report.schedules_pruned += run.block_pruned;
        // LIFO stack: push reversed for in-order depth-first traversal.
        for c in children.into_iter().rev() {
            stack.push(c);
        }
    }
    report
}

/// FNV-1a over a report's *safety-relevant* state: the committed logs,
/// the invariant flags, and the suppression/migration counters — not
/// latencies or queue depths. Two schedules with equal fingerprints
/// reached the same observable outcome.
pub fn fingerprint(r: &ShardedRunReport) -> u64 {
    let mut h = simnet::FNV1A_BASIS;
    let mut put = |v: u64| h = simnet::fnv1a(h, v.to_le_bytes());
    for g in &r.groups {
        put(g.entries as u64);
        put(g.committed as u64);
        put(u64::from(g.logs_agree));
        for v in &g.log {
            put(v.0);
        }
        put(u64::MAX); // group separator
    }
    put(r.total_entries as u64);
    put(r.committed as u64);
    put(u64::from(r.all_committed));
    put(u64::from(r.all_logs_agree));
    put(u64::from(r.no_cross_group_leak));
    put(r.duplicates_suppressed);
    put(r.equivocations_blocked);
    put(r.byz_receipts_rejected);
    put(r.byz_unconfirmed_claims);
    put(r.byz_withheld_reports);
    put(r.byz_fast_commits);
    put(r.byz_fast_confirms);
    put(r.migrations_completed as u64);
    put(r.routing_table_version);
    put(r.rerouted_commands);
    put(r.cross_epoch_commits);
    h
}

/// Shrinks a failing choice vector to a minimal one: first the shortest
/// failing prefix, then greedily resetting entries to the default
/// choice, to a fixed point. Wholly deterministic.
///
/// # Panics
///
/// Panics if `choices` does not fail on `sc` — shrinking a passing
/// schedule is a caller bug.
pub fn shrink_choices(sc: &ShardedScenario, choices: &[usize]) -> (Vec<usize>, Violation) {
    let norm = normalize(sc);
    let fails = |v: &[usize]| -> Option<Violation> {
        let run = run_schedule(&norm, v);
        audit_report(&norm, &run.report).err()
    };
    let mut violation =
        fails(choices).expect("shrink_choices() called on a schedule that passes the oracle");
    let mut current: Vec<usize> = choices.to_vec();
    // Phase 1: shortest failing prefix (points past the prefix take
    // default order, so a prefix is a complete schedule).
    for k in 0..current.len() {
        if let Some(v) = fails(&current[..k]) {
            violation = v;
            current.truncate(k);
            break;
        }
    }
    // Phase 2: zero entries greedily, restarting on success, until no
    // single entry can be defaulted.
    'outer: loop {
        for i in 0..current.len() {
            if current[i] == 0 {
                continue;
            }
            let mut cand = current.clone();
            cand[i] = 0;
            if let Some(v) = fails(&cand) {
                violation = v;
                current = cand;
                continue 'outer;
            }
        }
        break;
    }
    while current.last() == Some(&0) {
        current.pop();
    }
    (current, violation)
}

/// Replays a failing choice vector with observability recording on and
/// renders the run's timeline — the explorer's analogue of
/// [`crate::fuzz::render_timeline`], showing the *schedule-induced*
/// failure rather than a scenario-induced one.
pub fn render_schedule_timeline(
    sc: &ShardedScenario,
    choices: &[usize],
    title: &str,
) -> crate::fuzz::TimelineArtifacts {
    let mut traced = normalize(sc);
    traced.record_events = true;
    let mems = memory_ids(&traced);
    let cfg = ExploreConfig {
        max_depth: usize::MAX,
        ..ExploreConfig::default()
    };
    let run = run_one(&traced, &mems, &cfg, choices.to_vec(), Vec::new());
    crate::fuzz::render_events(&run.events, title)
}
