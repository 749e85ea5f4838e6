//! Disk Paxos (Gafni–Lamport \[28\]) — the shared-memory baseline.
//!
//! The paper positions Disk Paxos as the high-resilience/low-speed corner of
//! the trade-off: it needs only `n ≥ f_P + 1` processes and `m ≥ 2·f_M + 1`
//! memories (disks), but "it takes at least four delays" in the common case
//! — and by Theorem 6.1 no static-permission shared-memory algorithm can do
//! better than four. Protected Memory Paxos (same resilience) beats it to
//! two delays using dynamic permissions; that gap is Experiment E2.
//!
//! Implementation: each process `p` owns one block per disk,
//! `block[d, p] = (mbal, bal, inp)`, writable only by `p` (static SWMR
//! permissions — the disk model's "single region that always permits all
//! processes" is refined to per-row regions, which only strengthens the
//! baseline). A ballot attempt runs two phases; each phase writes the
//! process's block to every disk and reads *all* blocks from a majority of
//! disks (one range read per disk). Seeing a higher `mbal` aborts the
//! attempt. Phase 1 adopts the value of the highest `bal`; phase 2 commits
//! it; a phase-2 round completed without interference decides.
//!
//! The initial leader owns ballot `(0, leader)` and starts directly in
//! phase 2, but — lacking a permission signal — it still must read back to
//! check for interference: write (2 delays) + read (2 delays) = 4 delays.

use std::collections::BTreeMap;

use rdma_sim::{
    LegalChange, MemoryActor, MemoryClient, Permission, RegId, RegionId, RegionSpec, Window,
};
use simnet::{Actor, ActorId, Context, Duration, EventKind, Time};

use crate::types::{spaces, Ballot, DiskBlock, Instance, Msg, Pid, RegVal, Value};

/// Region id of process `p`'s row of blocks on each disk.
pub fn row_region(p: Pid) -> RegionId {
    RegionId(0x4000 + p.0)
}

/// Region id of the read-everything region on each disk.
pub const ALL_REGION: RegionId = RegionId(0x4FFF);

/// The block register of process `p` in `instance`.
pub fn block_reg(instance: Instance, p: Pid) -> RegId {
    RegId::two(spaces::DISK, instance.0, p.0 as u64)
}

/// Configures one disk (memory) for Disk Paxos: per-process write rows plus
/// a global read region.
pub fn configure_disk(mem: &mut MemoryActor<RegVal, Msg>, procs: &[Pid]) {
    for &p in procs {
        mem.add_region(
            row_region(p),
            RegionSpec::Pattern {
                space: spaces::DISK,
                a: None,
                b: Some(Window::exact(p.0 as u64)),
                c: None,
            },
            Permission::exclusive_writer(p),
        );
    }
    mem.add_region(
        ALL_REGION,
        RegionSpec::Space(spaces::DISK),
        Permission::read_only(),
    );
}

/// Builds a ready-to-add disk actor.
pub fn disk_actor(procs: &[Pid]) -> MemoryActor<RegVal, Msg> {
    let mut mem = MemoryActor::new(LegalChange::Static);
    configure_disk(&mut mem, procs);
    mem
}

const RETRY_TAG: u64 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Idle,
    One,
    Two,
}

#[derive(Clone, Debug, Default)]
struct DiskProgress {
    wrote: bool,
    blocks: Option<Vec<(RegId, DiskBlock)>>,
}

/// A Disk Paxos process.
#[derive(Debug)]
pub struct DiskPaxosActor {
    me: Pid,
    procs: Vec<Pid>,
    disks: Vec<ActorId>,
    instance: Instance,
    input: Value,
    initial_leader: Option<Pid>,
    retry_every: Duration,
    client: MemoryClient<RegVal, Msg>,
    is_leader: bool,
    used_initial: bool,
    attempt: u64,
    round: u64,
    max_round_seen: u64,
    ballot: Option<Ballot>,
    phase: Phase,
    value: Option<Value>,
    progress: BTreeMap<ActorId, DiskProgress>,
    op_map: BTreeMap<rdma_sim::OpId, (u64, ActorId, bool /* is_write */)>,
    decided: Option<Value>,
    /// When this process decided, if it has.
    pub decided_at: Option<Time>,
}

impl DiskPaxosActor {
    /// Creates a Disk Paxos process. `initial_leader` seeds Ω and owns the
    /// phase-1-free first ballot.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        disks: Vec<ActorId>,
        instance: Instance,
        input: Value,
        initial_leader: Option<Pid>,
        retry_every: Duration,
    ) -> DiskPaxosActor {
        DiskPaxosActor {
            me,
            procs,
            disks,
            instance,
            input,
            initial_leader,
            retry_every,
            client: MemoryClient::new(),
            is_leader: false,
            used_initial: false,
            attempt: 0,
            round: 0,
            max_round_seen: 0,
            ballot: None,
            phase: Phase::Idle,
            value: None,
            progress: BTreeMap::new(),
            op_map: BTreeMap::new(),
            decided: None,
            decided_at: None,
        }
    }

    /// This process's decision, if reached.
    pub fn decision(&self) -> Option<Value> {
        self.decided
    }

    fn majority(&self) -> usize {
        self.disks.len() / 2 + 1
    }

    fn start_attempt(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.is_leader || self.decided.is_some() {
            return;
        }
        self.attempt += 1;
        self.progress.clear();
        let (ballot, phase) = if self.initial_leader == Some(self.me) && !self.used_initial {
            // Ballot (0, me) is pre-owned: start in phase 2 with own input.
            self.used_initial = true;
            self.value = Some(self.input);
            (Ballot::initial(self.me), Phase::Two)
        } else {
            self.round = self.round.max(self.max_round_seen) + 1;
            (
                Ballot {
                    round: self.round,
                    pid: self.me,
                },
                Phase::One,
            )
        };
        self.ballot = Some(ballot);
        self.phase = phase;
        let block = match phase {
            Phase::One => DiskBlock {
                mbal: ballot,
                bal: None,
                inp: None,
            },
            Phase::Two => DiskBlock {
                mbal: ballot,
                bal: Some(ballot),
                inp: self.value,
            },
            Phase::Idle => unreachable!(),
        };
        self.write_and_scan(ctx, block);
    }

    /// One phase's disk traffic: write own block to every disk, then read
    /// the whole block array back (the reads queue FIFO behind the writes).
    fn write_and_scan(&mut self, ctx: &mut Context<'_, Msg>, block: DiskBlock) {
        let reg = block_reg(self.instance, self.me);
        for &d in &self.disks.clone() {
            self.progress.insert(d, DiskProgress::default());
            let w = self
                .client
                .write(ctx, d, row_region(self.me), reg, RegVal::Disk(block));
            self.op_map.insert(w, (self.attempt, d, true));
            let r = self.client.read_range(
                ctx,
                d,
                ALL_REGION,
                Some(RegionSpec::Pattern {
                    space: spaces::DISK,
                    a: Some(self.instance.0),
                    b: None,
                    c: None,
                }),
            );
            self.op_map.insert(r, (self.attempt, d, false));
        }
    }

    fn phase_step(&mut self, ctx: &mut Context<'_, Msg>) {
        let complete: Vec<_> = self
            .progress
            .values()
            .filter(|p| p.wrote && p.blocks.is_some())
            .collect();
        if complete.len() < self.majority() {
            return;
        }
        let ballot = self.ballot.expect("phase without ballot");
        // Abort if any disk shows a higher mbal (someone else is trying).
        let mut all_blocks: Vec<DiskBlock> = Vec::new();
        for p in &complete {
            for (_, b) in p.blocks.as_ref().expect("filtered above") {
                all_blocks.push(*b);
            }
        }
        for b in &all_blocks {
            self.max_round_seen = self.max_round_seen.max(b.mbal.round);
        }
        if all_blocks.iter().any(|b| b.mbal > ballot) {
            // Abandoned: retry via the timer (if still leader).
            self.phase = Phase::Idle;
            return;
        }
        match self.phase {
            Phase::One => {
                // Adopt the committed value of the highest bal, else own input.
                let adopted = all_blocks
                    .iter()
                    .filter_map(|b| b.bal.map(|bal| (bal, b.inp)))
                    .max_by_key(|(bal, _)| *bal)
                    .and_then(|(_, inp)| inp)
                    .unwrap_or(self.input);
                self.value = Some(adopted);
                self.phase = Phase::Two;
                self.attempt += 1;
                self.progress.clear();
                let block = DiskBlock {
                    mbal: ballot,
                    bal: Some(ballot),
                    inp: Some(adopted),
                };
                self.write_and_scan(ctx, block);
            }
            Phase::Two => {
                let v = self.value.expect("phase 2 without value");
                self.decided = Some(v);
                self.decided_at = Some(ctx.now());
                self.phase = Phase::Idle;
                ctx.mark_decided();
                // Outside the pure disk model: tell everyone (the paper's
                // "easy to extend it so all correct processes decide").
                for &q in &self.procs.clone() {
                    if q != self.me {
                        ctx.send(
                            q,
                            Msg::Decided {
                                instance: self.instance,
                                value: v,
                            },
                        );
                    }
                }
            }
            Phase::Idle => {}
        }
    }
}

impl Actor<Msg> for DiskPaxosActor {
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
        match ev {
            EventKind::Start => {
                self.is_leader = self.initial_leader == Some(self.me);
                if self.is_leader {
                    self.start_attempt(ctx);
                }
                ctx.set_timer(self.retry_every, RETRY_TAG);
            }
            EventKind::Timer { tag: RETRY_TAG, .. } => {
                if self.decided.is_none() {
                    if self.is_leader && self.phase == Phase::Idle {
                        self.start_attempt(ctx);
                    }
                    ctx.set_timer(self.retry_every, RETRY_TAG);
                }
            }
            EventKind::Timer { .. } => {}
            EventKind::LeaderChange { leader } => {
                let was = self.is_leader;
                self.is_leader = leader == self.me;
                if self.is_leader && !was && self.phase == Phase::Idle {
                    self.start_attempt(ctx);
                }
            }
            EventKind::Msg {
                from,
                msg: Msg::Mem(wire),
            } => {
                let Some(c) = self.client.on_wire(ctx, from, wire) else {
                    return;
                };
                let Some((attempt, disk, is_write)) = self.op_map.remove(&c.op) else {
                    return;
                };
                if attempt != self.attempt || self.phase == Phase::Idle {
                    return; // stale response from an abandoned attempt
                }
                let Some(prog) = self.progress.get_mut(&disk) else {
                    return;
                };
                if is_write {
                    match c.resp {
                        rdma_sim::MemResponse::Ack => prog.wrote = true,
                        _ => return, // nak impossible under static SWMR; ignore
                    }
                } else {
                    match c.resp {
                        rdma_sim::MemResponse::Range(rows) => {
                            let blocks = rows
                                .into_iter()
                                .filter_map(|(r, v)| match v {
                                    RegVal::Disk(b) => Some((r, b)),
                                    _ => None,
                                })
                                .collect();
                            prog.blocks = Some(blocks);
                        }
                        _ => return,
                    }
                }
                self.phase_step(ctx);
            }
            EventKind::Msg {
                msg: Msg::Decided { instance, value },
                ..
            } => {
                if instance == self.instance && self.decided.is_none() {
                    self.decided = Some(value);
                    self.decided_at = Some(ctx.now());
                    ctx.mark_decided();
                }
            }
            EventKind::Msg { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Simulation;

    fn build(n: u32, m: u32, seed: u64) -> (Simulation<Msg>, Vec<Pid>, Vec<ActorId>) {
        let mut sim = Simulation::new(seed);
        let procs: Vec<Pid> = (0..n).map(ActorId).collect();
        for i in 0..n {
            // Actors 0..n-1 are processes; disks come after.
            let disks: Vec<ActorId> = (n..n + m).map(ActorId).collect();
            sim.add(DiskPaxosActor::new(
                ActorId(i),
                procs.clone(),
                disks,
                Instance(0),
                Value(100 + i as u64),
                Some(ActorId(0)),
                Duration::from_delays(25),
            ));
        }
        let disks: Vec<ActorId> = (0..m).map(|_| sim.add(disk_actor(&procs))).collect();
        assert_eq!(disks, (n..n + m).map(ActorId).collect::<Vec<_>>());
        (sim, procs, disks)
    }

    fn decisions(sim: &Simulation<Msg>, procs: &[Pid]) -> Vec<Option<Value>> {
        procs
            .iter()
            .map(|&p| sim.actor_as::<DiskPaxosActor>(p).unwrap().decision())
            .collect()
    }

    #[test]
    fn common_case_decides_in_four_delays() {
        let (mut sim, procs, _) = build(3, 3, 1);
        sim.run_to_quiescence(Time::from_delays(30));
        let ds = decisions(&sim, &procs);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
        // write (2) + verification read (2): Disk Paxos cannot skip the
        // read-back — this is the paper's "at least four delays".
        assert_eq!(sim.metrics().first_decision_delays(), Some(4.0));
    }

    #[test]
    fn single_survivor_process_decides() {
        // n ≥ f_P + 1: every process but the leader may crash.
        let (mut sim, procs, _) = build(3, 3, 2);
        sim.crash_at(ActorId(1), Time::ZERO);
        sim.crash_at(ActorId(2), Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(100));
        assert_eq!(decisions(&sim, &procs)[0], Some(Value(100)));
    }

    #[test]
    fn tolerates_minority_disk_crashes() {
        let (mut sim, procs, disks) = build(2, 5, 3);
        sim.crash_at(disks[1], Time::ZERO);
        sim.crash_at(disks[3], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(100));
        let ds = decisions(&sim, &procs);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn majority_disk_crash_blocks_safely() {
        let (mut sim, procs, disks) = build(2, 3, 4);
        sim.crash_at(disks[0], Time::ZERO);
        sim.crash_at(disks[1], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(500));
        assert_eq!(decisions(&sim, &procs), vec![None, None]);
    }

    #[test]
    fn leader_takeover_preserves_committed_value() {
        let (mut sim, procs, _) = build(3, 3, 5);
        // Let the initial leader commit (decides at 4 delays), then crash
        // it before new leader p1 starts; p1 must adopt value 100.
        sim.crash_at(ActorId(0), Time::from_delays(5));
        sim.announce_leader(Time::from_delays(10), &procs, ActorId(1));
        sim.run_to_quiescence(Time::from_delays(300));
        let ds = decisions(&sim, &procs);
        assert_eq!(ds[1], Some(Value(100)), "{ds:?}");
        assert_eq!(ds[2], Some(Value(100)), "{ds:?}");
    }

    #[test]
    fn contending_leaders_stay_safe() {
        for seed in 0..10 {
            let (mut sim, procs, _) = build(4, 3, seed);
            // Everyone believes they lead at some point.
            sim.announce_leader(Time::from_delays(3), &procs[1..2], ActorId(1));
            sim.announce_leader(Time::from_delays(6), &procs[2..3], ActorId(2));
            sim.announce_leader(Time::from_delays(60), &procs, ActorId(3));
            sim.run_to_quiescence(Time::from_delays(2000));
            let got: Vec<Value> = decisions(&sim, &procs).into_iter().flatten().collect();
            assert!(!got.is_empty(), "seed {seed}: nobody decided");
            assert!(got.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {got:?}");
        }
    }
}
