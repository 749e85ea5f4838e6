//! One benchmark run of one workload: set-up rounds, calibrated timed
//! repetitions, and (with tracing) the per-layer pass.

use std::hint::black_box;
use std::time::Instant;

use agreement::fuzz::oracle::audit_report;
use agreement::harness::{run_sharded, ShardedRunReport, ShardedScenario};
use simnet::TICKS_PER_DELAY;

use crate::alloc::{self, AllocDelta};
use crate::calib::{to_ref, Calibrator};
use crate::stats::{iqr_rel, median, percentile_sorted, quartiles};
use crate::trace::{analyse, traced_rep, StreamStats, TracedRep, LAYERS};
use crate::{floor, workloads};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Fewest timed repetitions a time-bounded run makes.
const MIN_REPS: usize = 11;
/// Traced repetitions (and floor probes); per-layer numbers are medians.
const TRACED_REPS: usize = 3;
/// Events one floor probe dispatches.
const FLOOR_EVENTS: u64 = 300_000;

/// What to run.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Keep making timed repetitions until this much host time is spent
    /// (and at least [`MIN_REPS`] are made).
    pub seconds: f64,
    /// Exact repetition count instead of the time bound.
    pub reps: Option<usize>,
    /// Also make the traced pass and report per-layer metrics.
    pub trace: bool,
    /// `1` measures the full workload; the smoke test shrinks it.
    pub shrink: usize,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Safety and determinism held on every repetition and nothing failed.
    pub correct: bool,
    /// Commands submitted over all repetitions.
    pub attempted: u64,
    /// Commands not committed.
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless [`Opts::trace`].
    pub per_layer: Vec<Metric>,
}

/// Checks every repetition's report: the service's safety flags on each,
/// the full oracle audit on the first, and bit-equality with the first on
/// all later ones (which makes the audit's verdict theirs too).
struct Checker {
    first: Option<ShardedRunReport>,
    safety_ok: bool,
    determinism_ok: bool,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn admit(&mut self, sc: &ShardedScenario, r: ShardedRunReport) {
        self.attempted += sc.total_cmds as u64;
        self.failed += sc.total_cmds.saturating_sub(r.committed) as u64;
        self.safety_ok &= r.all_committed && r.all_logs_agree && r.no_cross_group_leak;
        match &self.first {
            Some(first) => self.determinism_ok &= r == *first,
            None => {
                self.safety_ok &= audit_report(sc, &r).is_ok();
                self.first = Some(r);
            }
        }
    }
}

/// Host cost of the timed repetitions of one run.
struct Timed {
    /// Reference seconds per repetition.
    ref_s: Vec<f64>,
    /// Raw seconds per repetition.
    wall_s: Vec<f64>,
    /// Calibrations: one before the first repetition, one after each.
    calib_ns: Vec<f64>,
    /// Allocation counts of the last repetition.
    alloc: AllocDelta,
}

/// Times `f` between two calibrations: `last` is the calibration that ended
/// right before the call and is replaced by the one taken right after.
/// Returns (value, raw seconds, mean of the two calibrations in ns).
fn bracketed<T>(cal: &mut Calibrator, last: &mut f64, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let start = Instant::now();
    let out = black_box(f());
    let wall = start.elapsed().as_secs_f64();
    let before = std::mem::replace(last, cal.run());
    (out, wall, (before + *last) / 2.0)
}

fn timed_reps(
    sc: &ShardedScenario,
    opts: &Opts,
    cal: &mut Calibrator,
    check: &mut Checker,
) -> Timed {
    let mut last = cal.run();
    let mut t = Timed {
        ref_s: Vec::new(),
        wall_s: Vec::new(),
        calib_ns: vec![last],
        alloc: AllocDelta::default(),
    };
    let began = Instant::now();
    loop {
        let done = match opts.reps {
            Some(n) => t.ref_s.len() >= n,
            None => t.ref_s.len() >= MIN_REPS && began.elapsed().as_secs_f64() >= opts.seconds,
        };
        if done {
            return t;
        }
        let ((report, delta), wall, calib) =
            bracketed(cal, &mut last, || alloc::scoped(|| run_sharded(sc)));
        t.alloc = delta;
        t.wall_s.push(wall);
        t.ref_s.push(to_ref(wall, calib));
        t.calib_ns.push(last);
        check.admit(sc, report);
    }
}

/// Runs the workload and reports. `Err` only for an unknown workload name.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let build = || {
        workloads::scenario(&opts.workload, opts.seed, opts.shrink.max(1))
            .ok_or_else(|| format!("unknown workload {:?}", opts.workload))
    };
    let mut sc = build()?;
    let mut cal = Calibrator::new();
    let mut check = Checker {
        first: None,
        safety_ok: true,
        determinism_ok: true,
        attempted: 0,
        failed: 0,
    };

    // Set-up: generate the inputs from the seed and run the scenario once,
    // untimed by the throughput metric. The first round also warms the
    // process (page faults, allocator arenas); the median ignores it.
    let mut setup_ref_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut last = cal.run();
    for _ in 0..SETUP_ROUNDS {
        let (report, wall, calib) = bracketed(&mut cal, &mut last, || {
            sc = build().expect("name checked above");
            run_sharded(&sc)
        });
        setup_ref_s.push(to_ref(wall, calib));
        check.admit(&sc, report);
    }

    let timed = timed_reps(&sc, opts, &mut cal, &mut check);
    let cmds = sc.total_cmds as f64;
    let delays = |ticks: u64| ticks as f64 / TICKS_PER_DELAY as f64;
    // The per-run estimate of a repetition's cost: the median (the noise
    // study found it steadier across runs than the lower quartile).
    let rep_ref_s = median(&timed.ref_s);

    let traced = opts.trace.then(|| traced_pass(&sc, &mut cal, &mut check));

    let first = check.first.as_ref().expect("set-up admitted a report");
    let per_layer = match &traced {
        Some(traced) => layer_metrics(&sc, first, &timed, rep_ref_s, traced, &check),
        None => Vec::new(),
    };
    let gap = first
        .groups
        .iter()
        .map(|g| g.max_commit_gap_ticks)
        .max()
        .unwrap_or(0);
    let flag = |ok: bool| if ok { 1.0 } else { 0.0 };
    let m = metric;
    let end_to_end = vec![
        m("setup_s", "s", median(&setup_ref_s)),
        m("cmds_per_ref_sec", "cmds/ref_s", cmds / rep_ref_s),
        m("cmds_per_delay", "cmds/delay", first.committed_per_delay),
        m(
            "commit_latency_p50_delays",
            "delays",
            delays(first.service_p50_latency_ticks),
        ),
        m(
            "commit_latency_p99_delays",
            "delays",
            delays(first.service_p99_latency_ticks),
        ),
        m("unavailable_delays_max", "delays", delays(gap)),
        m("allocs_per_cmd", "1/cmd", timed.alloc.calls as f64 / cmds),
        m(
            "alloc_bytes_per_cmd",
            "bytes/cmd",
            timed.alloc.bytes as f64 / cmds,
        ),
        m(
            "peak_live_bytes",
            "bytes",
            timed.alloc.peak_live_bytes as f64,
        ),
        m("safety_ok", "flag", flag(check.safety_ok)),
        m("determinism_ok", "flag", flag(check.determinism_ok)),
    ];
    Ok(Outcome {
        correct: check.safety_ok && check.determinism_ok && check.failed == 0,
        attempted: check.attempted,
        failed: check.failed,
        end_to_end,
        per_layer,
    })
}

/// Median over the traced repetitions of `f(rep)`.
fn med<T>(reps: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// The host-time parts of one traced repetition, in reference ns.
struct Cost {
    wall: f64,
    build: f64,
    reduce: f64,
    busy: [f64; LAYERS.len()],
}

/// What the traced pass measured.
struct Traced {
    /// Kernel floor probes, reference ns per event.
    floor_ref_ns: Vec<f64>,
    reps: Vec<Cost>,
    /// The recorded stream's counts and latencies (identical on every rep).
    stats: StreamStats,
}

/// The traced pass: kernel floor probes, then traced repetitions.
fn traced_pass(sc: &ShardedScenario, cal: &mut Calibrator, check: &mut Checker) -> Traced {
    let first = check.first.as_ref().expect("set-up admitted a report");
    let (in_flight, events) = (first.peak_queue_len, first.events_dispatched);
    let mut last = cal.run();
    let mut floor_ref_ns = Vec::new();
    for _ in 0..TRACED_REPS {
        let (ns, _, calib) = bracketed(cal, &mut last, || {
            floor::ns_per_event(
                &sc.delay,
                sc.topology().total_actors(),
                in_flight,
                FLOOR_EVENTS.min(events.max(1_000)),
            )
        });
        floor_ref_ns.push(to_ref(ns, calib));
    }

    let mut reps = Vec::new();
    let mut stats: Option<StreamStats> = None;
    for _ in 0..TRACED_REPS {
        let (rep, _, calib) = bracketed(cal, &mut last, || traced_rep(sc));
        let TracedRep {
            report,
            events,
            wall_ns,
            build_ns,
            reduce_ns,
            busy_ns,
        } = rep;
        reps.push(Cost {
            wall: to_ref(wall_ns, calib),
            build: to_ref(build_ns, calib),
            reduce: to_ref(reduce_ns, calib),
            busy: busy_ns.map(|ns| to_ref(ns, calib)),
        });
        let s = analyse(&events, sc);
        check.determinism_ok &= stats.as_ref().is_none_or(|first| *first == s);
        stats.get_or_insert(s);
        check.admit(sc, report);
    }
    Traced {
        floor_ref_ns,
        reps,
        stats: stats.expect("at least one traced repetition"),
    }
}

/// The per-layer metrics, from the first report, the timed repetitions and
/// the traced pass.
fn layer_metrics(
    sc: &ShardedScenario,
    report: &ShardedRunReport,
    timed: &Timed,
    rep_ref_s: f64,
    traced: &Traced,
    check: &Checker,
) -> Vec<Metric> {
    let cmds = sc.total_cmds as f64;
    let events = report.events_dispatched as f64;
    let floor = median(&traced.floor_ref_ns);
    let s = &traced.stats;
    let traced = &traced.reps;
    let per_cmd = |count: u64| count as f64 / cmds;
    let p = |v: &[u64], pct: f64| percentile_sorted(v, pct) as f64 / TICKS_PER_DELAY as f64;
    let m = metric;
    let rep_ref_ns = rep_ref_s * 1e9;
    let mut out = vec![
        m("simnet.events_per_cmd", "1/cmd", events / cmds),
        m("simnet.msgs_per_cmd", "1/cmd", per_cmd(report.messages)),
        m(
            "simnet.timers_fired_per_cmd",
            "1/cmd",
            per_cmd(s.timers_fired),
        ),
        m("simnet.dropped_per_cmd", "1/cmd", per_cmd(s.dropped)),
        m(
            "simnet.peak_queue_len",
            "count",
            report.peak_queue_len as f64,
        ),
        m("simnet.ref_ns_per_event", "ref_ns", rep_ref_ns / events),
        m("simnet.floor_ref_ns_per_event", "ref_ns", floor),
        m("simnet.floor_share", "share", floor * events / rep_ref_ns),
        m("rdma-sim.mem_ops_per_cmd", "1/cmd", per_cmd(report.mem_ops)),
        m("rdma-sim.write_per_cmd", "1/cmd", per_cmd(s.mem_ops[0])),
        m("rdma-sim.read_per_cmd", "1/cmd", per_cmd(s.mem_ops[1])),
        m(
            "rdma-sim.read_range_per_cmd",
            "1/cmd",
            per_cmd(s.mem_ops[2]),
        ),
        m(
            "rdma-sim.change_perm_per_cmd",
            "1/cmd",
            per_cmd(s.mem_ops[3]),
        ),
        m(
            "smr.cmds_per_batch",
            "cmds",
            s.proposed as f64 / s.propose_batches.max(1) as f64,
        ),
        m("smr.propose_p50_delays", "delays", p(&s.propose, 50.0)),
        m("smr.decide_p50_delays", "delays", p(&s.decide, 50.0)),
        m(
            "smr.duplicates_suppressed",
            "count",
            report.duplicates_suppressed as f64,
        ),
        m(
            "smr.takeover_delays_max",
            "delays",
            s.takeover_max_ticks as f64 / TICKS_PER_DELAY as f64,
        ),
        m(
            "nebcast.fast_commits_per_cmd",
            "1/cmd",
            per_cmd(report.byz_fast_commits),
        ),
        m(
            "nebcast.fast_confirms_per_cmd",
            "1/cmd",
            per_cmd(report.byz_fast_confirms),
        ),
        m("nebcast.deliver_p50_delays", "delays", p(&s.deliver, 50.0)),
        m(
            "nebcast.unconfirmed_claims",
            "count",
            report.byz_unconfirmed_claims as f64,
        ),
        m(
            "nebcast.equivocations_blocked",
            "count",
            report.equivocations_blocked as f64,
        ),
        m(
            "sharded.route_wait_p50_delays",
            "delays",
            p(&s.route_wait, 50.0),
        ),
        m(
            "sharded.route_wait_p99_delays",
            "delays",
            p(&s.route_wait, 99.0),
        ),
        m("sharded.confirm_p50_delays", "delays", p(&s.confirm, 50.0)),
        m("sharded.rerouted_per_cmd", "1/cmd", per_cmd(s.rerouted)),
    ];
    for layer in LAYERS {
        let (i, name) = (layer as usize, layer.name());
        out.push(m(
            &format!("{name}.dispatches_per_cmd"),
            "1/cmd",
            per_cmd(s.handler_starts[i]),
        ));
        out.push(m(
            &format!("{name}.busy_ref_ns_per_cmd"),
            "ref_ns",
            med(traced, |t| t.busy[i] / cmds),
        ));
        out.push(m(
            &format!("{name}.busy_share"),
            "share",
            med(traced, |t| t.busy[i] / t.wall),
        ));
    }
    let [q1, _, _] = quartiles(&timed.ref_s);
    out.extend([
        m(
            "harness.build_ref_ns_per_cmd",
            "ref_ns",
            med(traced, |t| t.build / cmds),
        ),
        m(
            "harness.reduce_ref_ns_per_cmd",
            "ref_ns",
            med(traced, |t| t.reduce / cmds),
        ),
        m(
            "harness.busy_share",
            "share",
            med(traced, |t| (t.build + t.reduce) / t.wall),
        ),
        m(
            "harness.wall_cmds_per_sec_raw",
            "cmds/s",
            cmds / median(&timed.wall_s),
        ),
        m("harness.rep_iqr_rel", "share", iqr_rel(&timed.ref_s)),
        m("harness.rep_q1_over_median", "ratio", q1 / rep_ref_s),
        m("harness.calib_ns_median", "ns", median(&timed.calib_ns)),
        m("harness.timed_reps", "count", timed.ref_s.len() as f64),
        m(
            "harness.failed_share",
            "share",
            check.failed as f64 / check.attempted.max(1) as f64,
        ),
        m("obs.events_recorded_per_cmd", "1/cmd", per_cmd(s.recorded)),
        m(
            "obs.tracing_overhead_rel",
            "ratio",
            med(traced, |t| t.wall) / rep_ref_ns - 1.0,
        ),
    ]);
    out
}
