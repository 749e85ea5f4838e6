//! Quickstart: run the paper's two headline algorithms once each and print
//! what happened.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! * **Fast & Robust** (Byzantine, Theorem 4.9): `n = 2f+1` processes,
//!   `m = 2f_M+1` memories, leader decides after ONE replicated RDMA write.
//! * **Protected Memory Paxos** (crash, Theorem 5.1): same 2-delay decision
//!   with only `n = f+1` processes.

use agreement::harness::{run_fast_robust, run_protected, Scenario};

fn main() {
    println!("== The Impact of RDMA on Agreement — quickstart ==\n");

    // --- Byzantine: Fast & Robust --------------------------------------
    let scenario = Scenario::common_case(3, 3, 42);
    let (report, auth) = run_fast_robust(&scenario, 60);
    println!("Fast & Robust  (n=3 processes, m=3 memories, f_P=1 Byzantine tolerated)");
    println!("  all decided : {}", report.all_decided);
    println!("  agreement   : {}", report.agreement);
    println!(
        "  decision    : {:?}",
        report.decisions.values().next().unwrap()
    );
    println!(
        "  first decision after {:.1} network delays (paper: 2-deciding)",
        report.first_decision_delays.unwrap()
    );
    println!(
        "  signatures  : {} created / {} verified (fast path needs 1)",
        auth.signatures_created(),
        auth.verifications()
    );

    // --- Crash: Protected Memory Paxos ----------------------------------
    let report = run_protected(&scenario);
    println!("\nProtected Memory Paxos  (n=3, m=3, tolerates n-1 process crashes)");
    println!("  all decided : {}", report.all_decided);
    println!("  agreement   : {}", report.agreement);
    println!(
        "  first decision after {:.1} network delays (paper: 2-deciding; Disk Paxos needs 4)",
        report.first_decision_delays.unwrap()
    );
    println!("  memory ops  : {}", report.mem_ops);

    println!("\nSee `cargo run --example paper_tables` for the paper's full tables.");
}
