//! A replicated key-value command log on Protected Memory Paxos — the
//! system the paper's crash-failure section enables (the DARE/APUS/Mu
//! lineage): one committed log entry per single replicated RDMA write.
//!
//! Three replicas order a stream of KV commands; the leader crashes
//! mid-stream; Ω elects a successor which recovers the log from the
//! memories (the undecided suffix of the log, behind one ballot register
//! per process) and keeps committing. Every surviving replica ends with
//! the same log and the same materialized store.
//!
//! ```sh
//! cargo run --example replicated_log
//! ```

use std::collections::BTreeMap;

use agreement::harness::Scenario;
use agreement::protected::memory_actor;
use agreement::smr::SmrNode;
use agreement::types::Value;
use simnet::{ActorId, Duration, Time};

/// A tiny command codec: `set(key, val)` packed into the `Value` id space.
fn cmd(key: u8, val: u8) -> Value {
    Value(0x5E7_0000 + ((key as u64) << 8) + val as u64)
}

fn decode(v: Value) -> Option<(u8, u8)> {
    (v.0 & !0xFFFF == 0x5E7_0000).then_some((((v.0 >> 8) & 0xFF) as u8, (v.0 & 0xFF) as u8))
}

fn main() {
    let s = Scenario::common_case(3, 3, 2026);
    let procs = s.procs();
    let mut sim = s.cluster(
        |i, procs, mems| {
            // Each replica has its own client workload of set() commands.
            let workload: Vec<Value> = (0..6).map(|c| cmd(c, 10 * (i as u8 + 1) + c)).collect();
            Box::new(SmrNode::new(
                procs[i],
                procs,
                mems,
                ActorId(0),
                workload,
                1, // f_M
                Duration::from_delays(20),
            ))
        },
        s.memories(|_| memory_actor(ActorId(0))),
    );

    // Let the initial leader commit a few entries, then kill it.
    sim.crash_at(ActorId(0), Time::from_delays(9));
    // Ω eventually nominates replica 1.
    sim.announce_leader(Time::from_delays(25), &procs, ActorId(1));

    sim.run_until(Time::from_delays(3_000), |s| {
        s.actor_as::<SmrNode>(ActorId(1))
            .is_some_and(|node| node.log_len() >= 9)
    });

    println!("== replicated_log: 3 replicas, leader crash at t=9 delays ==\n");
    let mut logs = Vec::new();
    for &p in &procs[1..] {
        let node = sim.actor_as::<SmrNode>(p).unwrap();
        println!(
            "replica {p}: {} entries, own commands committed: {}",
            node.log_len(),
            node.committed_own()
        );
        logs.push(node.log());
    }

    // Replay the common prefix into a KV store.
    let common = logs.iter().map(Vec::len).min().unwrap();
    assert_eq!(logs[0][..common], logs[1][..common], "logs diverged!");
    let mut store: BTreeMap<u8, u8> = BTreeMap::new();
    println!("\ncommitted log (common prefix, {common} entries):");
    for (i, v) in logs[0][..common].iter().enumerate() {
        match decode(*v) {
            Some((k, val)) => {
                store.insert(k, val);
                println!("  [{i:>2}] set({k}, {val})");
            }
            None => println!("  [{i:>2}] no-op"),
        }
    }
    println!("\nmaterialized store: {store:?}");
    println!("\nNote the leader's pre-crash entries survive the takeover: the new");
    println!("leader recovered them from the memories' slots before continuing.");
}
