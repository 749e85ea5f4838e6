//! What a committed command costs the host in heap allocations, at the
//! margin.
//!
//! Each service shape runs twice, at `N` and at `2N` commands, and the
//! difference in allocations over the difference in commands is the
//! command path's own cost: setup, first-touch buffers and anything else
//! paid once cancel out. The bounds are what the command path reaches
//! today plus a small stated headroom, so a new per-command allocation on
//! the router → replica → memory → router path fails here before any
//! benchmark is run. It is its own test binary because it installs a
//! counting `#[global_allocator]`; each thread counts its own allocations
//! while it has armed the count, so the two tests, running side by side,
//! and the test harness's own threads do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use agreement::harness::{run_sharded, ShardedScenario};
use agreement::sharded::GroupMode;

struct Counting;

thread_local! {
    /// This thread's allocations while armed; `None` while not.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps a counter, and `count`
// allocates nothing (a `const`-initialised thread local).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout, handed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout, handed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Allocations a whole run of `sc` makes on this thread, after checking
/// that it committed every command.
fn allocations_of(sc: &ShardedScenario) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let report = run_sharded(sc);
    let allocations = ALLOCATIONS.with(|n| n.take()).expect("armed above");
    assert!(report.all_committed && report.all_logs_agree, "{report:?}");
    assert_eq!(report.committed, sc.total_cmds);
    allocations
}

/// Allocations per committed command between a run of `cmds` commands and
/// one of `2 · cmds`, after one warm-up run.
fn marginal_allocs_per_cmd(shape: impl Fn(usize) -> ShardedScenario, cmds: usize) -> f64 {
    allocations_of(&shape(cmds));
    let once = allocations_of(&shape(cmds));
    let twice = allocations_of(&shape(2 * cmds));
    (twice - once) as f64 / cmds as f64
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

/// A warm crash replica, its memories and the router route, propose,
/// write, decide and confirm a command without one allocation: the
/// router's `Submit` holds its commands inline, and the leader refills a
/// finished round's buffer. Measured 0.0035 (the log's vectors doubling);
/// headroom to 0.05.
#[test]
fn a_batch_1_crash_command_allocates_nothing_at_the_margin() {
    let per_cmd = marginal_allocs_per_cmd(crash_batch_1, 4_000);
    assert!(per_cmd <= 0.05, "{per_cmd:.4} allocations per command");
}

/// What a pipelined Byzantine command still allocates is protocol data
/// (each batch's signed slot and its wire, the decided run every replica
/// reports, the memory's range responses and the rows it stores), not
/// bookkeeping: no reporter set, no merge map, no round buffer. Measured
/// 2.25; headroom to 2.40.
#[test]
fn a_pipelined_byzantine_command_allocates_only_protocol_data() {
    let per_cmd = marginal_allocs_per_cmd(byzantine_pipelined, 600);
    assert!(per_cmd <= 2.40, "{per_cmd:.4} allocations per command");
}
