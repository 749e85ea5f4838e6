//! Disk Paxos (Gafni–Lamport \[28\]) — the shared-memory baseline.
//!
//! The paper positions Disk Paxos as the high-resilience/low-speed corner of
//! the trade-off: it needs only `n ≥ f_P + 1` processes and `m ≥ 2·f_M + 1`
//! memories (disks), but "it takes at least four delays" in the common case
//! — and by Theorem 6.1 no static-permission shared-memory algorithm can do
//! better than four. Protected Memory Paxos (same resilience) beats it to
//! two delays using dynamic permissions; that gap is Experiment E2.
//!
//! Implementation: the crate's one two-phase proposer and single-decree
//! actor ([`crate::protected`], "Algorithm 9 once") over the [`Static`]
//! memory leg. Each process `p` owns one block per disk,
//! `block[d, p] = (mbal, bal, inp)` — the same record as Protected Memory
//! Paxos's slot `(minProp, accProp, value)` — writable only by `p` (static
//! SWMR permissions — the disk model's "single region that always permits
//! all processes" is refined to per-row regions, which only strengthens
//! the baseline). A ballot attempt runs two phases; each phase writes the
//! process's block to every disk and reads *all* blocks from a majority of
//! disks (one range read per disk). Seeing a higher `mbal` aborts the
//! attempt. Phase 1 adopts the value of the highest `bal`; phase 2 commits
//! it; a phase-2 round completed without interference decides.
//!
//! The initial leader owns ballot `(0, leader)` and starts directly in
//! phase 2, but — lacking a permission signal — it still must read back to
//! check for interference: write (2 delays) + read (2 delays) = 4 delays.

use rdma_sim::{LegalChange, MemoryActor, Permission, RegionId, RegionSpec, Window};
use simnet::{ActorId, Duration};
use swmr::quorum::majority;

use crate::protected::{Layout, MemoryLeg, Proposer, SingleDecree};
use crate::types::{spaces, Instance, Msg, Pid, RegVal, Value};

/// Region id of process `p`'s row of blocks on each disk.
pub fn row_region(p: Pid) -> RegionId {
    RegionId(0x4000 + p.0)
}

/// Region id of the read-everything region on each disk.
pub const ALL_REGION: RegionId = RegionId(0x4FFF);

/// The static-permission leg: every process writes its own row and reads
/// everyone's back, in both phases; permissions never change.
#[derive(Clone, Copy, Debug)]
pub struct Static;

impl MemoryLeg for Static {
    fn layout(self, me: Pid) -> Layout {
        Layout {
            dynamic: false,
            space: spaces::DISK,
            write: row_region(me),
            scan: ALL_REGION,
        }
    }
}

/// Builds a ready-to-add disk (memory): per-process write rows plus a
/// global read region.
pub fn disk_actor(procs: &[Pid]) -> MemoryActor<RegVal, Msg> {
    let mut mem = MemoryActor::new(LegalChange::Static);
    for &p in procs {
        mem.add_region(
            row_region(p),
            RegionSpec {
                b: Some(Window::exact(p.0 as u64)),
                ..RegionSpec::space(spaces::DISK)
            },
            Permission::exclusive_writer(p),
        );
    }
    mem.add_region(
        ALL_REGION,
        RegionSpec::space(spaces::DISK),
        Permission::read_only(),
    );
    mem
}

/// A Disk Paxos process.
pub type DiskPaxosActor = SingleDecree<Static>;

impl DiskPaxosActor {
    /// Creates a Disk Paxos process. `initial_leader` seeds Ω and owns the
    /// phase-1-free first ballot.
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        disks: Vec<ActorId>,
        instance: Instance,
        input: Value,
        initial_leader: Option<Pid>,
        retry_every: Duration,
    ) -> DiskPaxosActor {
        let (majority, owns) = (majority(disks.len()), initial_leader == Some(me));
        let proposer = Proposer::new(Static, me, Vec::new(), disks, majority, owns);
        SingleDecree::over(
            proposer,
            None,
            procs,
            instance,
            input,
            initial_leader,
            retry_every,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{decisions, Scenario};
    use simnet::{Simulation, Time};

    fn build(n: usize, m: usize, seed: u64) -> (Simulation<Msg>, Vec<Pid>, Vec<ActorId>) {
        let s = Scenario::common_case(n, m, seed);
        let sim = s.cluster(
            |i, procs, disks| {
                let (me, input) = (ActorId(i as u32), Scenario::input(i));
                let (leader, retry) = (Some(ActorId(0)), Duration::from_delays(25));
                let a = DiskPaxosActor::new(me, procs, disks, Instance(0), input, leader, retry);
                Box::new(a)
            },
            s.memories(disk_actor),
        );
        (sim, s.procs(), s.mems())
    }

    #[test]
    fn common_case_decides_in_four_delays() {
        let (mut sim, procs, _) = build(3, 3, 1);
        sim.run_to_quiescence(Time::from_delays(30));
        let ds = decisions(&sim, &procs, DiskPaxosActor::decision);
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
        assert_eq!(
            decisions(&sim, &procs, DiskPaxosActor::decision)[0],
            Some(Value(100))
        );
    }

    #[test]
    fn tolerates_minority_disk_crashes() {
        let (mut sim, procs, disks) = build(2, 5, 3);
        sim.crash_at(disks[1], Time::ZERO);
        sim.crash_at(disks[3], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(100));
        let ds = decisions(&sim, &procs, DiskPaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn majority_disk_crash_blocks_safely() {
        let (mut sim, procs, disks) = build(2, 3, 4);
        sim.crash_at(disks[0], Time::ZERO);
        sim.crash_at(disks[1], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(500));
        assert_eq!(
            decisions(&sim, &procs, DiskPaxosActor::decision),
            vec![None, None]
        );
    }

    #[test]
    fn leader_takeover_preserves_committed_value() {
        let (mut sim, procs, _) = build(3, 3, 5);
        // Let the initial leader commit (decides at 4 delays), then crash
        // it before new leader p1 starts; p1 must adopt value 100.
        sim.crash_at(ActorId(0), Time::from_delays(5));
        sim.announce_leader(Time::from_delays(10), &procs, ActorId(1));
        sim.run_to_quiescence(Time::from_delays(300));
        let ds = decisions(&sim, &procs, DiskPaxosActor::decision);
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
            let got: Vec<Value> = decisions(&sim, &procs, DiskPaxosActor::decision)
                .into_iter()
                .flatten()
                .collect();
            assert!(!got.is_empty(), "seed {seed}: nobody decided");
            assert!(got.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {got:?}");
        }
    }
}
