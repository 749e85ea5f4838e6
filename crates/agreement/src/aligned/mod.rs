//! Aligned Paxos (§5.2, Algorithms 9–15).
//!
//! Shows that processes and memories are *equivalent agents*: consensus is
//! possible as long as a majority of the **combined** set of agents
//! (`n + m`) stays alive — strictly better than requiring a process
//! majority or a memory majority separately.
//!
//! Structure (Algorithm 9): a classic two-phase proposer whose
//! communicate / hear-back / analyze steps are implemented per agent kind —
//! the crate's one proposer and single-decree actor ([`crate::protected`],
//! "Algorithm 9 once"), here with both kinds of agent at once:
//!
//! * **Process agents** speak Paxos: every process runs the one
//!   [`Acceptor`] and answers `Prepare` / `Accept` in
//!   [`crate::paxos::PaxosMsg`].
//! * **Memory agents** hold one slot per process. Both implementations of
//!   the memory leg are available, mirroring the paper's footnote 4:
//!   * [`MemoryMode::Protected`] — Algorithm 10's `changePermission` then
//!     write; a successful phase-2 write needs no read-back (dynamic
//!     permissions, the [`Protected`] leg and memories of Protected Memory
//!     Paxos).
//!   * [`MemoryMode::DiskStyle`] — write own slot then read all slots
//!     (the [`Static`] leg and disks of Disk Paxos, **no permissions
//!     needed**); phase 2 re-reads to verify no interference.
//!
//! A phase completes when a majority of all agents answered, and is judged
//! then: any `Nack`, higher `minProp`, or failed write aborts the attempt.
//! Every attempt runs both phases — no process pre-owns a ballot at its
//! peers' acceptors.

use rdma_sim::MemoryActor;
use simnet::{ActorId, Duration};
use swmr::quorum::majority;

use crate::disk_paxos::{self, Static};
use crate::paxos::Acceptor;
use crate::protected::{self, Layout, MemoryLeg, Proposer, Protected, SingleDecree};
use crate::types::{Instance, Msg, Pid, RegVal, Value};

/// How the memory leg is implemented (footnote 4 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemoryMode {
    /// Acquire exclusive write permission, then write; phase-2 write
    /// success alone certifies no interference.
    Protected,
    /// Static per-process slots; every phase writes then reads all slots
    /// back (permissions unused).
    DiskStyle,
}

impl MemoryLeg for MemoryMode {
    fn layout(self, me: Pid) -> Layout {
        match self {
            MemoryMode::Protected => Protected.layout(me),
            MemoryMode::DiskStyle => Static.layout(me),
        }
    }
}

/// Builds one Aligned Paxos memory for the given mode.
pub fn memory_actor(
    mode: MemoryMode,
    procs: &[Pid],
    initial_leader: Pid,
) -> MemoryActor<RegVal, Msg> {
    match mode {
        MemoryMode::Protected => protected::memory_actor(initial_leader),
        MemoryMode::DiskStyle => disk_paxos::disk_actor(procs),
    }
}

/// An Aligned Paxos process: always an acceptor agent; a proposer when Ω
/// nominates it.
pub type AlignedPaxosActor = SingleDecree<MemoryMode>;

impl AlignedPaxosActor {
    /// Creates a process.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        mems: Vec<ActorId>,
        instance: Instance,
        input: Value,
        initial_leader: Pid,
        mode: MemoryMode,
        retry_every: Duration,
    ) -> AlignedPaxosActor {
        // Majority of the combined agent set (processes + memories).
        let majority = majority(procs.len() + mems.len());
        let peers = procs.iter().copied().filter(|&q| q != me).collect();
        let proposer = Proposer::new(mode, me, peers, mems, majority, false);
        let (agent, leader) = (Some(Acceptor::default()), Some(initial_leader));
        SingleDecree::over(proposer, agent, procs, instance, input, leader, retry_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{decisions, Scenario};
    use simnet::{Simulation, Time};

    fn build(
        n: usize,
        m: usize,
        seed: u64,
        mode: MemoryMode,
    ) -> (Simulation<Msg>, Vec<Pid>, Vec<ActorId>) {
        let s = Scenario::common_case(n, m, seed);
        let sim = s.cluster(
            |i, procs, mems| {
                let (me, input) = (ActorId(i as u32), Scenario::input(i));
                let retry = Duration::from_delays(30);
                let leader = ActorId(0);
                let a = AlignedPaxosActor::new(
                    me,
                    procs,
                    mems,
                    Instance(0),
                    input,
                    leader,
                    mode,
                    retry,
                );
                Box::new(a)
            },
            s.memories(|procs| memory_actor(mode, procs, ActorId(0))),
        );
        (sim, s.procs(), s.mems())
    }

    #[test]
    fn decides_in_common_case_both_modes() {
        for mode in [MemoryMode::Protected, MemoryMode::DiskStyle] {
            let (mut sim, procs, _) = build(3, 2, 1, mode);
            sim.run_to_quiescence(Time::from_delays(60));
            let ds = decisions(&sim, &procs, AlignedPaxosActor::decision);
            assert!(
                ds.iter().all(|d| *d == Some(Value(100))),
                "{mode:?}: {ds:?}"
            );
        }
    }

    #[test]
    fn survives_combined_minority_failures() {
        // n=3, m=2 → 5 agents, majority 3. Kill 1 process + 1 memory.
        let (mut sim, procs, mems) = build(3, 2, 2, MemoryMode::DiskStyle);
        sim.crash_at(ActorId(2), Time::ZERO);
        sim.crash_at(mems[1], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(200));
        let ds = decisions(&sim, &procs[..2], AlignedPaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn survives_all_memories_down_if_process_majority() {
        // n=4, m=3 → 7 agents, majority 4 = all processes.
        let (mut sim, procs, mems) = build(4, 3, 3, MemoryMode::DiskStyle);
        for &d in &mems {
            sim.crash_at(d, Time::ZERO);
        }
        sim.run_to_quiescence(Time::from_delays(200));
        let ds = decisions(&sim, &procs, AlignedPaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(100))), "{ds:?}");
    }

    #[test]
    fn survives_all_but_one_process_if_memory_rich() {
        // n=2, m=5 → 7 agents, majority 4 = 1 process + 3 memories... the
        // proposer plus 3 memories reach quorum with the peer crashed.
        let (mut sim, procs, mems) = build(2, 5, 4, MemoryMode::DiskStyle);
        sim.crash_at(ActorId(1), Time::ZERO);
        sim.crash_at(mems[0], Time::ZERO);
        sim.crash_at(mems[1], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(200));
        assert_eq!(
            decisions(&sim, &procs, AlignedPaxosActor::decision)[0],
            Some(Value(100))
        );
    }

    #[test]
    fn combined_majority_failure_blocks_safely() {
        // n=3, m=2 → majority 3; kill 2 processes + 1 memory (3 agents).
        let (mut sim, procs, mems) = build(3, 2, 5, MemoryMode::DiskStyle);
        sim.crash_at(ActorId(1), Time::ZERO);
        sim.crash_at(ActorId(2), Time::ZERO);
        sim.crash_at(mems[0], Time::ZERO);
        sim.run_to_quiescence(Time::from_delays(800));
        assert_eq!(
            decisions(&sim, &procs, AlignedPaxosActor::decision)[0],
            None
        );
    }

    #[test]
    fn takeover_preserves_value_both_modes() {
        for mode in [MemoryMode::Protected, MemoryMode::DiskStyle] {
            let (mut sim, procs, _) = build(3, 3, 6, mode);
            sim.crash_at(ActorId(0), Time::from_delays(8));
            sim.announce_leader(Time::from_delays(15), &procs, ActorId(1));
            sim.run_to_quiescence(Time::from_delays(400));
            let ds = decisions(&sim, &procs[1..], AlignedPaxosActor::decision);
            let got: Vec<Value> = ds.iter().flatten().copied().collect();
            assert!(!got.is_empty(), "{mode:?}: nobody decided");
            assert!(got.iter().all(|v| *v == got[0]), "{mode:?}: {got:?}");
        }
    }

    #[test]
    fn protected_mode_decides_only_on_a_phase_two_quorum() {
        // p1 takes over at 3: late enough that p0's phase 1 still passes
        // (its ballot write and scan reach every memory before p1's
        // permission grab and ballot do), early enough that p0's phase 2
        // is refused by every memory and nacked by p1 and p2. p0 neither
        // hears p1's ballot in time nor gets a verdict of its own out, so
        // nothing but the phase-2 quorum rule stands between p0 and a
        // decision no other agent ever accepted.
        let (mut sim, procs, _) = build(3, 3, 7, MemoryMode::Protected);
        sim.set_delay_hook(Box::new(|_, from, to, m| match m {
            Msg::Paxos(_) if (from, to) == (ActorId(1), ActorId(0)) => {
                Some(Duration::from_delays(20))
            }
            Msg::Decided { .. } if from == ActorId(0) => Some(Duration::from_delays(50)),
            _ => None,
        }));
        sim.announce_leader(Time::from_delays(3), &procs[1..2], ActorId(1));
        sim.run_to_quiescence(Time::from_delays(400));
        let ds = decisions(&sim, &procs, AlignedPaxosActor::decision);
        assert!(ds.iter().all(|d| *d == Some(Value(101))), "{ds:?}");
    }

    #[test]
    fn contention_stays_safe_many_seeds() {
        for seed in 0..10 {
            for mode in [MemoryMode::Protected, MemoryMode::DiskStyle] {
                let (mut sim, procs, _) = build(3, 2, seed, mode);
                sim.announce_leader(Time::from_delays(2), &procs[1..2], ActorId(1));
                sim.announce_leader(Time::from_delays(4), &procs[2..3], ActorId(2));
                sim.announce_leader(Time::from_delays(100), &procs, ActorId(1));
                sim.run_to_quiescence(Time::from_delays(3000));
                let got: Vec<Value> = decisions(&sim, &procs, AlignedPaxosActor::decision)
                    .into_iter()
                    .flatten()
                    .collect();
                assert!(!got.is_empty(), "{mode:?} seed {seed}: nobody decided");
                assert!(
                    got.windows(2).all(|w| w[0] == w[1]),
                    "{mode:?} seed {seed}: {got:?}"
                );
            }
        }
    }
}
