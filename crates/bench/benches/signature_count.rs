//! Experiment E6 — §4.2's efficiency claim: the Cheap Quorum fast path
//! needs **one signature** for a fast decision, versus `6·f_P + 2` for the
//! best prior 2-deciding Byzantine protocol [7]. Prints signatures
//! created up to the first decision and for the full run, over n.

use bench::section;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use agreement::cheap_quorum::{memory_actor, CheapQuorumActor};
use agreement::harness::{run_fast_robust, Scenario};
use agreement::types::{Msg, Pid, Value};
use sigsim::SigAuthority;
use simnet::{ActorId, Duration, Simulation, Time};

/// Runs Cheap Quorum until the first (leader) decision and reports
/// signatures created by then, then runs to full completion.
fn count_signatures(n: u32, seed: u64) -> (u64, u64, f64) {
    let m = 3u32;
    let mut sim: Simulation<Msg> = Simulation::new(seed);
    let procs: Vec<Pid> = (0..n).map(ActorId).collect();
    let mems: Vec<ActorId> = (n..n + m).map(ActorId).collect();
    let mut auth = SigAuthority::new(seed);
    for i in 0..n {
        let signer = auth.register(ActorId(i));
        sim.add(CheapQuorumActor::cheap_quorum(
            ActorId(i),
            procs.clone(),
            mems.clone(),
            ActorId(0),
            Value(100),
            signer,
            auth.verifier(),
            Duration::from_delays(1),
            Duration::from_delays(200),
        ));
    }
    for _ in 0..m {
        sim.add(memory_actor(&procs, ActorId(0)));
    }
    sim.run_until(Time::from_delays(5_000), |s| {
        s.metrics().first_decision().is_some()
    });
    let at_first_decision = auth.signatures_created();
    let first_delay = sim.metrics().first_decision_delays().unwrap_or(f64::NAN);
    sim.run_until(Time::from_delays(5_000), |s| {
        (0..n).all(|i| {
            s.actor_as::<CheapQuorumActor>(ActorId(i))
                .is_some_and(|a| a.decision().is_some())
        })
    });
    (at_first_decision, auth.signatures_created(), first_delay)
}

fn print_table() {
    section("E6: signatures on the Cheap Quorum fast path");
    println!(
        "{:<4} {:>18} {:>16} {:>14} {:>12}",
        "n", "sigs @ 1st decide", "sigs full run", "prior work*", "delays"
    );
    for n in [3u32, 5, 7] {
        let f = (n - 1) / 2_u32;
        let (first, full, delay) = count_signatures(n, 11);
        println!(
            "{:<4} {:>18} {:>16} {:>14} {:>12.1}",
            n,
            first,
            full,
            6 * f + 2,
            delay
        );
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
    }
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut g = c.benchmark_group("signatures");
    g.sample_size(20);
    for n in [3u32, 5] {
        g.bench_with_input(BenchmarkId::new("cheap_quorum_full", n), &n, |b, &n| {
            b.iter(|| count_signatures(n, 11))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
