//! Regenerates the paper's headline trade-off as a table: common-case
//! decision latency (network delays) versus failure resilience, for every
//! protocol in the repository (experiment E2 of ARCHITECTURE.md's
//! experiment index).
//!
//! ```sh
//! cargo run --example delay_table
//! ```

use agreement::aligned::MemoryMode;
use agreement::harness::{
    run_aligned, run_disk_paxos, run_fast_paxos, run_fast_robust, run_mp_paxos, run_protected,
    run_robust_backup, Scenario,
};

fn main() {
    println!("Common-case decision latency vs. resilience (synchronous, failure-free)");
    println!("n = processes, m = memories; latency in network delays\n");
    println!(
        "{:<28} {:>7} {:>12} {:>22} {:>16}",
        "protocol", "delays", "msgs+ops", "process resilience", "failure model"
    );
    println!("{}", "-".repeat(92));

    for n in [3usize, 5, 7] {
        let m = 3;
        let s = Scenario::common_case(n, m, 7);

        let r = run_mp_paxos(&s);
        row(&format!("Paxos (messages) n={n}"), &r, "n >= 2f+1", "crash");

        let r = run_fast_paxos(&s, 1);
        row(
            &format!("Fast Paxos n={n}"),
            &r,
            "n >= 2f+1 (fast: less)",
            "crash",
        );

        let r = run_disk_paxos(&s);
        row(&format!("Disk Paxos n={n},m={m}"), &r, "n >= f+1", "crash");

        let r = run_protected(&s);
        row(
            &format!("Protected Mem Paxos n={n}"),
            &r,
            "n >= f+1",
            "crash",
        );

        let r = run_aligned(&s, MemoryMode::DiskStyle);
        row(
            &format!("Aligned Paxos n={n} (disk)"),
            &r,
            "majority of n+m",
            "crash",
        );

        let r = run_aligned(&s, MemoryMode::Protected);
        row(
            &format!("Aligned Paxos n={n} (perm)"),
            &r,
            "majority of n+m",
            "crash",
        );

        let (r, _) = run_fast_robust(&s, 60);
        row(
            &format!("Fast & Robust n={n}"),
            &r,
            "n >= 2f+1",
            "Byzantine",
        );

        let (r, _) = run_robust_backup(&s);
        row(
            &format!("Robust Backup n={n}"),
            &r,
            "n >= 2f+1",
            "Byzantine",
        );

        println!();
    }

    println!("Paper's claims: Protected Memory Paxos & Fast & Robust decide in 2;");
    println!("Disk Paxos needs >= 4 (Theorem 6.1: no static-permission algorithm");
    println!("can do 2); Robust Backup alone pays >= 6 delays per broadcast hop.");
}

fn row(name: &str, r: &agreement::harness::RunReport, resilience: &str, model: &str) {
    println!(
        "{:<28} {:>7.1} {:>12} {:>22} {:>16}",
        name,
        r.first_decision_delays.unwrap_or(f64::NAN),
        r.messages,
        resilience,
        model
    );
    assert!(r.agreement, "agreement violated in {name}");
}
