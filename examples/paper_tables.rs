//! Regenerates the paper's evidence as tables — experiments E1–E7 of
//! ARCHITECTURE.md's experiment index — and asserts the claim each table
//! prints:
//!
//! * E1: Table 1's new row, weak Byzantine agreement at `n = 2f_P + 1`;
//! * E2: common-case decision latency vs. resilience for every protocol,
//!   and the m-sweep ablation (dynamic permissions vs. a verification read);
//! * E3: Theorem 5.1's crash resilience sweep;
//! * E4: §5.2's agent majority (Aligned Paxos failure grids);
//! * E5: Theorem 6.1's schedule, static vs. dynamic permissions;
//! * E6: §4.2's one signature on the Cheap Quorum fast path;
//! * E7: Figure 6 under a leader crash.
//!
//! Every number is virtual time or an exact count, the same on every
//! machine.
//!
//! ```sh
//! cargo run --release -p suite --example paper_tables
//! ```

use agreement::aligned::MemoryMode;
use agreement::cheap_quorum::{memory_actor, CheapQuorumActor};
use agreement::harness::{
    decisions, run_aligned, run_disk_paxos, run_fast_paxos, run_fast_robust, run_mp_paxos,
    run_protected, run_robust_backup, RunReport, Scenario,
};
use agreement::lower_bound::{run_protected_contrast, run_strawman_demo};
use agreement::types::Value;
use sigsim::SigAuthority;
use simnet::{ActorId, Duration, Time};

fn main() {
    table1_resilience();
    delay_table();
    permission_ablation();
    crash_resilience();
    aligned_majority(3, 2);
    aligned_majority(2, 5);
    lower_bound();
    signature_count();
    failover();
}

/// Prints a section header.
fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats an `Option<f64>` delay for table cells.
fn fmt_delay(d: Option<f64>) -> String {
    match d {
        Some(x) => format!("{x:.1}"),
        None => "-".to_string(),
    }
}

/// Formats a boolean for table cells.
fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// E1 — Table 1's new row: weak Byzantine agreement with `n = 2·f_P + 1`
/// in an asynchronous system with signatures and RDMA non-equivocation.
/// Per (n, f), whether all correct processes decided and agreed with `f`
/// silent Byzantine processes — at the bound and one past it.
fn table1_resilience() {
    section("E1: Table 1 row — Byzantine resilience at n = 2f+1 (RDMA non-equiv)");
    println!(
        "{:<16} {:>4} {:>4} {:>12} {:>10} {:>10}",
        "protocol", "n", "f", "all decided", "agreement", "at bound?"
    );
    for &(n, f) in &[(3usize, 1usize), (5, 2), (7, 3)] {
        let mut s = Scenario::common_case(n, 3, 42 + n as u64);
        s.byz_silent = (n - f..n).collect();
        s.max_delays = 40_000;
        let (r, _) = run_fast_robust(&s, 25);
        println!(
            "{:<16} {:>4} {:>4} {:>12} {:>10} {:>10}",
            "Fast & Robust",
            n,
            f,
            tick(r.all_decided),
            tick(r.agreement),
            "n = 2f+1"
        );
        assert!(
            r.all_decided && r.agreement,
            "E1: Fast & Robust n={n} f={f}: {r:?}"
        );
    }
    for &(n, f) in &[(3usize, 1usize), (5, 2)] {
        let mut s = Scenario::common_case(n, 3, 17 + n as u64);
        s.byz_silent = (n - f..n).collect();
        s.max_delays = 40_000;
        let (r, _) = run_robust_backup(&s);
        println!(
            "{:<16} {:>4} {:>4} {:>12} {:>10} {:>10}",
            "Robust Backup",
            n,
            f,
            tick(r.all_decided),
            tick(r.agreement),
            "n = 2f+1"
        );
        assert!(
            r.all_decided && r.agreement,
            "E1: Robust Backup n={n} f={f}: {r:?}"
        );
    }
    // One past the bound: the leader is the only correct process and may
    // fast-decide alone, so "all decided" can hold trivially here; the
    // claim is agreement among whoever decided.
    let mut s = Scenario::common_case(3, 3, 99);
    s.byz_silent = vec![1, 2];
    s.max_delays = 3_000;
    let (r, _) = run_fast_robust(&s, 25);
    println!(
        "{:<16} {:>4} {:>4} {:>12} {:>10} {:>10}",
        "Fast & Robust",
        3,
        2,
        tick(r.all_decided),
        tick(r.agreement),
        "f = n-1, leader alone"
    );
    assert!(r.agreement, "E1: Fast & Robust past the bound: {r:?}");
    println!("\npaper: async + signatures + non-equivocation => 2f+1 (Table 1, last row);");
    println!("message passing alone would need 3f+1 even with signatures [15].");
}

/// E2 — the paper's headline trade-off: common-case decision latency
/// (network delays) versus failure resilience, for every protocol.
fn delay_table() {
    section("E2: common-case decision latency vs. resilience");
    println!("Common-case decision latency vs. resilience (synchronous, failure-free)");
    println!("n = processes, m = memories; latency in network delays\n");
    println!(
        "{:<28} {:>7} {:>12} {:>22} {:>16}",
        "protocol", "delays", "msgs+ops", "process resilience", "failure model"
    );
    println!("{}", "-".repeat(92));

    for n in [3usize, 5, 7, 9] {
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
        let disk = row(&format!("Disk Paxos n={n},m={m}"), &r, "n >= f+1", "crash");

        let r = run_protected(&s);
        let pmp = row(
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
        let fast_robust = row(
            &format!("Fast & Robust n={n}"),
            &r,
            "n >= 2f+1",
            "Byzantine",
        );

        let (r, _) = run_robust_backup(&s);
        let backup = row(
            &format!("Robust Backup n={n}"),
            &r,
            "n >= 2f+1",
            "Byzantine",
        );

        println!();
        assert!(
            pmp == 2.0 && fast_robust == 2.0 && disk >= 4.0 && backup >= 6.0,
            "E2 n={n}: PMP {pmp}, F&R {fast_robust}, Disk {disk}, Robust Backup {backup}"
        );
    }

    println!("Paper's claims: Protected Memory Paxos & Fast & Robust decide in 2;");
    println!("Disk Paxos needs >= 4 (Theorem 6.1: no static-permission algorithm");
    println!("can do 2); Robust Backup alone pays >= 6 delays per broadcast hop.");
}

/// Prints one E2 row, asserts its agreement and returns its delays.
fn row(name: &str, r: &RunReport, resilience: &str, model: &str) -> f64 {
    let delays = r.first_decision_delays.unwrap_or(f64::NAN);
    println!(
        "{:<28} {:>7.1} {:>12} {:>22} {:>16}",
        name, delays, r.messages, resilience, model
    );
    assert!(r.agreement, "agreement violated in {name}");
    delays
}

/// E2's ablation: the permission switch saves Disk Paxos' verification
/// read at every memory count.
fn permission_ablation() {
    section("E2 ablation: dynamic permissions vs verification read (m sweep)");
    println!(
        "{:<10} {:>14} {:>12}",
        "memories", "PMP (delays)", "Disk (delays)"
    );
    for m in [3usize, 5, 7] {
        let s = Scenario::common_case(3, m, 1);
        let pmp = run_protected(&s).first_decision_delays;
        let disk = run_disk_paxos(&s).first_decision_delays;
        println!("{:<10} {:>14} {:>12}", m, fmt_delay(pmp), fmt_delay(disk));
        assert_eq!((pmp, disk), (Some(2.0), Some(4.0)), "E2 ablation m={m}");
    }
}

/// E3 — Theorem 5.1's resilience: Protected Memory Paxos keeps deciding
/// in 2 delays with `n = f_P + 1` processes (kill all but one) and
/// `m = 2·f_M + 1` memories (kill a minority), while the message-passing
/// baseline needs a process majority.
fn crash_resilience() {
    section("E3: crash resilience sweep (n processes, dead = crashed at t=0)");
    println!(
        "{:<26} {:>4} {:>6} {:>6} {:>12} {:>8}",
        "protocol", "n", "dead_p", "dead_m", "all decided", "delays"
    );
    for n in [2usize, 3, 5] {
        for dead_p in 0..n {
            let mut s = Scenario::common_case(n, 5, 5);
            s.crash_procs = (1..=dead_p).map(|i| (i, 0)).collect();
            s.crash_mems = vec![(0, 0), (2, 0)];
            s.max_delays = 2_000;
            let r = run_protected(&s);
            println!(
                "{:<26} {:>4} {:>6} {:>6} {:>12} {:>8}",
                "Protected Memory Paxos",
                n,
                dead_p,
                2,
                tick(r.all_decided),
                fmt_delay(r.first_decision_delays)
            );
            assert!(
                r.all_decided && r.first_decision_delays == Some(2.0),
                "E3: PMP n={n} dead_p={dead_p}: {r:?}"
            );
        }
    }
    // The contrast: MP Paxos dies at a process minority.
    for dead_p in [1usize, 2, 3] {
        let mut s = Scenario::common_case(5, 0, 6);
        s.crash_procs = (1..=dead_p).map(|i| (i, 0)).collect();
        s.max_delays = 1_200;
        let r = run_mp_paxos(&s);
        println!(
            "{:<26} {:>4} {:>6} {:>6} {:>12} {:>8}",
            "Paxos (messages)",
            5,
            dead_p,
            0,
            tick(r.all_decided),
            fmt_delay(r.first_decision_delays)
        );
        assert_eq!(r.all_decided, dead_p <= 2, "E3: Paxos dead_p={dead_p}");
    }
    println!("\npaper: PMP lives with a single surviving process (n >= f_P + 1);");
    println!("message passing needs n >= 2 f_P + 1.");
}

/// E4 — §5.2: Aligned Paxos is live iff a majority of the combined agent
/// set (processes + memories) survives. Prints the full failure grid with
/// the theoretical boundary marked.
fn aligned_majority(n: usize, m: usize) {
    let majority = (n + m) / 2 + 1;
    section(&format!(
        "E4: Aligned Paxos failure grid — n={n} procs + m={m} mems (majority {majority})"
    ));
    println!("rows: dead processes (leader kept alive); cols: dead memories");
    print!("{:>8}", "");
    for dm in 0..=m {
        print!("{dm:>8}");
    }
    println!();
    for dp in 0..n {
        print!("{dp:>8}");
        for dm in 0..=m {
            let alive = n + m - dp - dm;
            let mut s = Scenario::common_case(n, m, (dp * 13 + dm) as u64);
            s.crash_procs = (1..=dp).map(|i| (i, 0)).collect();
            s.crash_mems = (0..dm).map(|j| (j, 0)).collect();
            s.max_delays = 2_000;
            let r = run_aligned(&s, MemoryMode::DiskStyle);
            let expect = alive >= majority;
            let got = r.all_decided;
            let cell = match (expect, got) {
                (true, true) => "live",
                (false, false) => "block",
                _ => "?!",
            };
            assert!(r.agreement, "safety violated at dp={dp} dm={dm}");
            assert_eq!(expect, got, "boundary mismatch at dp={dp} dm={dm}");
            print!("{cell:>8}");
        }
        println!();
    }
    println!(
        "expected boundary: alive agents >= {majority} ⇔ live — {}",
        tick(true)
    );
}

/// E5 — Theorem 6.1: the adversarial schedule splits any 2-deciding
/// static-permission algorithm; the identical schedule cannot split
/// Protected Memory Paxos (dynamic permissions).
fn lower_bound() {
    section("E5: Theorem 6.1 schedule — static vs dynamic permissions");
    println!(
        "{:<6} {:>26} {:>26}",
        "seed", "static 2-decider violated?", "PMP violated? (same sched)"
    );
    let mut broke = 0;
    let mut held = 0;
    for seed in 0..10u64 {
        let a = run_strawman_demo(seed);
        let b = run_protected_contrast(seed);
        if a.agreement_violated {
            broke += 1;
        }
        if !b.agreement_violated {
            held += 1;
        }
        println!(
            "{:<6} {:>26} {:>26}",
            seed,
            tick(a.agreement_violated),
            tick(b.agreement_violated)
        );
    }
    println!("\nstatic-permission strawman split {broke}/10 runs (theorem: always);");
    println!("Protected Memory Paxos held agreement in {held}/10 runs (theorem: always).");
    assert_eq!((broke, held), (10, 10), "E5: the theorem says always");
}

/// Runs Cheap Quorum until the first (leader) decision and reports
/// signatures created by then, then runs to full completion.
fn count_signatures(n: usize, seed: u64) -> (u64, u64, f64) {
    let s = Scenario::common_case(n, 3, seed);
    let mut auth = SigAuthority::new(seed);
    let mut sim = s.cluster(
        |i, procs, mems| {
            let signer = auth.register(procs[i]);
            Box::new(CheapQuorumActor::cheap_quorum(
                procs[i],
                procs,
                mems,
                ActorId(0),
                Value(100),
                signer,
                auth.verifier(),
                Duration::from_delays(1),
                Duration::from_delays(200),
            ))
        },
        s.memories(|procs| memory_actor(procs, ActorId(0))),
    );
    sim.run_until(Time::from_delays(5_000), |s| {
        s.metrics().first_decision().is_some()
    });
    let at_first_decision = auth.signatures_created();
    let first_delay = sim.metrics().first_decision_delays().unwrap_or(f64::NAN);
    sim.run_until(Time::from_delays(5_000), |sim| {
        let decided = decisions(sim, &s.procs(), CheapQuorumActor::decision);
        decided.iter().all(Option::is_some)
    });
    (at_first_decision, auth.signatures_created(), first_delay)
}

/// E6 — §4.2's efficiency claim: the Cheap Quorum fast path needs **one
/// signature** for a fast decision, versus `6·f_P + 2` for the best prior
/// 2-deciding Byzantine protocol [7]. Signatures created up to the first
/// decision and for the full run, over n.
fn signature_count() {
    section("E6: signatures on the Cheap Quorum fast path");
    println!(
        "{:<4} {:>18} {:>16} {:>14} {:>12}",
        "n", "sigs @ 1st decide", "sigs full run", "prior work*", "delays"
    );
    for n in [3u32, 5, 7] {
        let f = (n - 1) / 2_u32;
        let (first, full, delay) = count_signatures(n as usize, 11);
        println!(
            "{:<4} {:>18} {:>16} {:>14} {:>12.1}",
            n,
            first,
            full,
            6 * f + 2,
            delay
        );
        assert_eq!((first, delay), (1, 2.0), "E6: n={n}");
    }
    println!("\n* best prior 2-deciding Byzantine protocol needs 6f+2 signatures [7];");
    println!("  Cheap Quorum's fast decision needs exactly 1 (the leader's sign(v)).");

    section("E6b: signature totals for the full Fast & Robust composition");
    for n in [3usize, 5] {
        let (r, auth) = run_fast_robust(&Scenario::common_case(n, 3, 3), 60);
        println!(
            "n={n}: created {:>4}, verified {:>5}, first decision {:.1} delays",
            auth.signatures_created(),
            auth.verifications(),
            r.first_decision_delays.unwrap()
        );
        assert!(
            r.agreement && r.first_decision_delays == Some(2.0),
            "E6b: n={n}: {r:?}"
        );
    }
}

/// One Fast & Robust run at n = m = 3, the leader crashing at `crash_at`
/// (if any) and Ω re-electing at t = 60.
fn failover_run(crash_at: Option<u64>, timeout: u64, seed: u64) -> RunReport {
    let mut s = Scenario::common_case(3, 3, seed);
    if let Some(t) = crash_at {
        s.crash_procs = vec![(0, t)];
        s.announce = vec![(60, 1)];
    }
    s.max_delays = 60_000;
    run_fast_robust(&s, timeout).0
}

/// E7 — the composition under fire (Figure 6): decision latency of Fast &
/// Robust as a function of when the leader crashes.
fn failover() {
    let timeout = 15;
    section("E7: Fast & Robust failover — decision latency vs leader crash time");
    println!("timeout = {timeout} delays; Ω re-elects at t=60\n");
    println!(
        "{:<14} {:>14} {:>12} {:>10}",
        "leader crash", "1st decision", "all decided", "agreement"
    );
    let r = failover_run(None, timeout, 1);
    println!(
        "{:<14} {:>14} {:>12} {:>10}",
        "never",
        fmt_delay(r.first_decision_delays),
        r.all_decided,
        r.agreement
    );
    assert!(r.all_decided && r.agreement && r.first_decision_delays == Some(2.0));
    for crash_at in [0u64, 1, 2, 3, 5, 8] {
        let r = failover_run(Some(crash_at), timeout, 1);
        println!(
            "{:<14} {:>14} {:>12} {:>10}",
            format!("t={crash_at}"),
            fmt_delay(r.first_decision_delays),
            r.all_decided,
            r.agreement
        );
        assert!(
            r.all_decided && r.agreement,
            "E7: crash at t={crash_at}: {r:?}"
        );
        // The write's ack lands at t = 2, and a crash scheduled for that
        // tick is dispatched before it: only from t = 3 on has the leader
        // fast-decided.
        let first = r.first_decision_delays.unwrap();
        if crash_at <= 2 {
            assert!(
                first > timeout as f64,
                "E7: crash at t={crash_at} decided at {first}"
            );
        } else {
            assert_eq!(first, 2.0, "E7: crash at t={crash_at}");
        }
    }
    println!("\nshape: crash after the leader's write (t >= 3) leaves a 2-delay fast");
    println!("decision in place; earlier crashes push everyone through panic +");
    println!("Preferential Paxos, costing timeout + backup rounds.");
}
