//! What a committed command costs the host in heap allocations and
//! allocated bytes, at the margin.
//!
//! Each service shape runs twice, at `N` and at `2N` commands, and the
//! difference in allocations (or bytes) over the difference in commands is
//! the command path's own cost: setup, first-touch buffers and anything else
//! paid once cancel out. The bounds are what the command path reaches
//! today plus a small stated headroom, so a new per-command allocation on
//! the router → replica → memory → router path fails here before any
//! benchmark is run. It is its own test binary because it installs a
//! counting `#[global_allocator]`; each thread counts its own allocations
//! and the bytes they ask for while it has armed the count, so the tests,
//! running side by side, and the test harness's own threads do not
//! disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use agreement::harness::{run_sharded, ShardedScenario};
use agreement::sharded::{GroupMode, WorkloadSpec};
use simnet::{DelayModel, RdmaCost};

struct Counting;

/// Allocations and the bytes they asked for (a `realloc` counts its new
/// size, as the benchmark's allocator does).
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    allocations: u64,
    bytes: u64,
}

thread_local! {
    /// This thread's counts while armed; `None` while not.
    static COUNTS: Cell<Option<Counts>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    COUNTS.with(|n| {
        n.set(n.get().map(|c| Counts {
            allocations: c.allocations + 1,
            bytes: c.bytes + bytes as u64,
        }))
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps a counter, and `count`
// allocates nothing (a `const`-initialised thread local).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout, handed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout, handed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout` (every allocation
        // above is `System`'s).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a whole run of `sc` allocates on this thread, after checking that
/// it committed every command.
fn counts_of(sc: &ShardedScenario) -> Counts {
    COUNTS.with(|n| n.set(Some(Counts::default())));
    let report = run_sharded(sc);
    let counts = COUNTS.with(|n| n.take()).expect("armed above");
    assert!(report.all_committed && report.all_logs_agree, "{report:?}");
    assert_eq!(report.committed, sc.total_cmds);
    counts
}

/// Allocations and allocated bytes per committed command between a run of
/// `cmds` commands and one of `2 · cmds`, after one warm-up run.
fn marginal_per_cmd(shape: impl Fn(usize) -> ShardedScenario, cmds: usize) -> (f64, f64) {
    counts_of(&shape(cmds));
    let once = counts_of(&shape(cmds));
    let twice = counts_of(&shape(2 * cmds));
    let per_cmd = |n: u64| n as f64 / cmds as f64;
    (
        per_cmd(twice.allocations - once.allocations),
        per_cmd(twice.bytes - once.bytes),
    )
}

/// The benchmark's `smr_b1` shape: one PMP write per command, window 4.
fn crash_batch_1(cmds: usize) -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(1, 3, 3, 5);
    sc.total_cmds = cmds;
    sc.batch = 1;
    sc.window = 4;
    sc.max_delays = 40 * cmds as u64 + 10_000;
    sc
}

/// The benchmark's `smr_b32` shape: 32 commands per replicated write,
/// window 128.
fn crash_batch_32(cmds: usize) -> ShardedScenario {
    let mut sc = crash_batch_1(cmds);
    sc.batch = 32;
    sc.window = 128;
    sc
}

/// The benchmark's `byz_pipeline` shape: signed broadcast, eight batches
/// of eight in flight, the leader's fast path on.
fn byzantine_pipelined(cmds: usize) -> ShardedScenario {
    let mut sc = crash_batch_1(cmds);
    sc.batch = 8;
    sc.window = 64;
    sc.group_modes = vec![GroupMode::Byzantine];
    sc.byz_pipeline_window = 8;
    sc.byz_fast_path = true;
    sc
}

/// The benchmark's `failover_paced` shape without its leader crashes:
/// four groups behind the router, Zipf keys, RDMA-priced links, and
/// arrivals on a schedule that the router's pump releases every quarter
/// delay.
fn paced_g4(cmds: usize) -> ShardedScenario {
    let mut sc = ShardedScenario::common_case(4, 3, 3, 5);
    sc.total_cmds = cmds;
    sc.batch = 8;
    sc.window = 64;
    sc.workload = WorkloadSpec::Zipf {
        keys: 4096,
        s: 0.99,
    };
    sc.delay = DelayModel::Rdma(RdmaCost::write_optimized());
    sc.arrival_rate_per_delay = 8.0;
    sc.max_delays = cmds as u64 + 10_000;
    sc
}

/// A warm crash replica, its memories and the router route, propose,
/// write, decide and confirm a command without one allocation: the
/// router's `Submit` holds its commands inline, and the leader refills a
/// finished round's buffer. Measured 0.0035 (the log's vectors doubling);
/// headroom to 0.05.
#[test]
fn a_batch_1_crash_command_allocates_nothing_at_the_margin() {
    let (per_cmd, _) = marginal_per_cmd(crash_batch_1, 4_000);
    assert!(per_cmd <= 0.05, "{per_cmd:.4} allocations per command");
}

/// What a pipelined Byzantine command still allocates is protocol data:
/// each batch's signed slot's `Arc` and its one value run (the wire and
/// every replica's decided notification share it), a batch of copies
/// and receipts, or of the leader's held broadcasts, when no posted
/// buffer of its length is free, the merged rows of range reads whose
/// replicas disagree, and the memories' pages, one per 32 broadcasts of a
/// column. No bookkeeping: no reporter set or tombstone, no op-id or
/// pending map, no round buffer, no per-poll vector, no ordered-map node
/// per stored register or per slot in flight, no entry per `k` of a
/// broadcast write, and no range buffer — a read's rows land in a buffer
/// the reader recycles. Measured 0.3267 (0.3200 while the engine also
/// read rows other than its leader's: more memory operations in all,
/// fewer allocations per command at the margin; 0.3233 while the leader
/// sent every broadcast as its own write; 0.665 while every copy and
/// receipt was its own write and every range response its own
/// allocation; 0.93 while the memories kept an ordered map of registers
/// and nebcast ordered maps per `(sender, k)`; 2.25 before the router's
/// dense masks, the replication engine's windowed tables, the shared
/// value run and nebcast's reused buffers); headroom to 0.345, about
/// 5.6 %.
#[test]
fn a_pipelined_byzantine_command_allocates_only_protocol_data() {
    let (per_cmd, _) = marginal_per_cmd(byzantine_pipelined, 600);
    assert!(per_cmd <= 0.345, "{per_cmd:.4} allocations per command");
}

/// A paced router visits each group on every pump tick and sends only the
/// commands that arrived since, so a refill holds what it takes: nothing
/// when nothing is due, inline up to eight. Sizing it for the whole
/// window of 64 instead cost 2.705 allocations per command. Measured
/// 0.461; headroom to 0.55.
#[test]
fn a_paced_refill_allocates_only_what_it_sends() {
    let (per_cmd, _) = marginal_per_cmd(paced_g4, 4_000);
    assert!(per_cmd <= 0.55, "{per_cmd:.4} allocations per command");
}

/// Every replica keeps its decided log as one dense run of values and one
/// `(first, len, time)` record per run it decides, so what a command adds
/// to the log is its 8-byte value on each of three replicas, asked for
/// about twice over as the run's vector doubles. The rest is the memories'
/// log pages and the router's books. A 16-byte `Option<Value>` slot and a
/// 16-byte `(instance, time)` pair per entry on every replica measured
/// 666.0 bytes per command here; the dense run measures 523.2. Bound 560,
/// so per-entry bookkeeping cannot creep back.
#[test]
fn a_batch_32_crash_command_allocates_no_per_entry_bookkeeping() {
    let (_, bytes) = marginal_per_cmd(crash_batch_32, 16_000);
    assert!(bytes <= 560.0, "{bytes:.1} bytes per command");
}
