//! Non-equivocating broadcast (Algorithm 2 of the paper).
//!
//! The primitive that lets RDMA beat the `3·f_P + 1` Byzantine bound: a
//! Byzantine process cannot deliver *different* values for the same sequence
//! number to different correct processes.
//!
//! Layout: a 3-dimensional array of SWMR registers, `slots[p, k, q]`, all
//! replicated over the `m` memories (see `swmr`). Per §7, each memory
//! registers the whole array read-only for everyone (region [`ALL_REGION`])
//! plus each process's row write-exclusive for that process (overlapping
//! regions, exactly as RDMA protection domains allow).
//!
//! * `broadcast(k, m)`: `p` writes `sign((k, m))` into `slots[p, k, p]`.
//! * `try_deliver(q)`: `p` (1) reads `slots[q, k, q]` — retrying later if
//!   ⊥, badly signed, or mis-keyed; (2) copies the signed value into its own
//!   audit slot `slots[p, k, q]`; (3) reads the whole `(k, q)` column (one
//!   strided range read). If any *validly signed, same-key, different-value*
//!   copy exists, `q` equivocated and delivery is withheld forever;
//!   otherwise `p` delivers and advances `Last[q]`.
//!
//! Cost: the broadcast write is 2 delays; a delivery is read + copy + audit
//! = **6 delays** — the footnote-2 figure that explains why Robust Backup
//! alone cannot be 2-deciding, and why Cheap Quorum exists.
//!
//! The engine below is a sub-state-machine (like [`swmr::RepEngine`]):
//! actors call [`NebEngine::poll`] periodically, feed every replication
//! event through `NebEngine::on_rep_event`, and drain deliveries.
//!
//! Delivery attempts are keyed `(sender, k)`, so the engine can probe a
//! *window* of a sender's upcoming slots concurrently
//! ([`NebEngine::set_pipeline_depth`] / [`NebEngine::set_focus`]) while
//! still releasing deliveries strictly in per-sender sequence order —
//! audited slots that complete out of order wait in a ready buffer until
//! `Last[q]` reaches them. At the default depth 1 the engine is
//! move-for-move identical to the classic head-of-line loop.
//!
//! Pipelining must respect the model's scarcest resource: a process may
//! have **one outstanding operation per memory** (§3), and replicated
//! operations go to *all* memories, so every logical op — useful or not —
//! serializes through the same per-memory FIFO at a full round-trip each.
//! Naive depth-`W` probing (`W` speculative reads per poll) floods that
//! FIFO with ⊥-reads and makes deeper windows *slower*. In pipelined mode
//! (`depth > 1`) the engine therefore spends ops only where they pay:
//!
//! * **Row-probe discovery** — the focused sender's row is scanned with a
//!   single strided range read (one op discovers every written slot in
//!   the window, and the returned values skip the per-slot read entirely,
//!   going straight to the copy step).
//! * **Shared column audit** — one range read over the sender's columns
//!   audits every pending copy at once, amortizing the audit across the
//!   window (the copy-before-audit order each slot needs is preserved: a
//!   slot is only covered by an audit read issued after its copy
//!   completed).
//! * **Window-bounded reads** — both range reads ask for the `k` window
//!   `[Last[q], Last[q] + 2·depth)` only (an RDMA READ names an address
//!   and a length, and its cost follows the bytes fetched), never the
//!   sender's whole history. That is everything the engine can use: every
//!   slot in flight for `q` lies in `[Last[q], Last[q] + depth)` (slots
//!   are adopted inside that range and `Last[q]` only grows), so every
//!   covered `k` is inside the window; a read releases at most those
//!   `depth` slots before its result is folded in, so the range
//!   `adopt_row` may admit at completion, `[Last'[q], Last'[q] + depth)`,
//!   ends by `Last[q] + 2·depth`; and receipts ([`RECEIPT_BIT`]) lie
//!   outside any such window, as they were skipped before. Detection
//!   power is unchanged — an audit still reads every process's copy of
//!   every `(k, q)` column it covers — and a delivery costs the same
//!   operations whether the log holds ten entries or ten million.
//! * **Idle-row backoff** — rows that read ⊥ are re-probed with
//!   exponential backoff (capped), so rows that are idle in steady state
//!   (followers never broadcast) stop consuming FIFO slots.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use rdma_sim::{MemoryClient, Permission, RegId, RegionId, RegionSpec, Window};
use sigsim::{SigVerifier, Signature, Signer};
use simnet::{ActorId, Context};
use swmr::{RepEngine, RepEvent, RepId, RepResult};

use crate::trusted::TWire;
use crate::types::{spaces, Msg, Pid, RegVal};

/// Region id of process `p`'s writable row on each memory.
pub fn row_region(p: Pid) -> RegionId {
    RegionId(0x1000 + p.0)
}

/// Region id of the read-only whole-array region on each memory.
pub const ALL_REGION: RegionId = RegionId(0x1FFF);

/// The register `slots[i, k, q]`.
pub fn slot_reg(i: Pid, k: u64, q: Pid) -> RegId {
    RegId::new(spaces::NEB, i.0 as u64, k, q.0 as u64)
}

/// Marks a *delivery receipt* register: the `k` coordinate of
/// [`receipt_reg`] carries this bit so receipts never collide with (or
/// match audit reads of) the broadcast slots themselves.
pub const RECEIPT_BIT: u64 = 1 << 63;

/// The register holding `i`'s delivery receipt for `(q, k)` — written
/// via [`NebEngine::acknowledge`] after `i` delivers *and accepts* `q`'s
/// `k`-th broadcast, holding the delivered slot verbatim. Receipts live in
/// the deliverer's own writable row, so a Byzantine broadcaster cannot
/// forge a receipt for a correct process; a takeover scan
/// ([`crate::smr::ByzSmrNode`]) uses them to prefer values some correct
/// process actually settled over values that were merely written.
pub fn receipt_reg(i: Pid, k: u64, q: Pid) -> RegId {
    RegId::new(spaces::NEB, i.0 as u64, k | RECEIPT_BIT, q.0 as u64)
}

/// A register of the broadcast space decoded: the inverse of
/// [`slot_reg`] and [`receipt_reg`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    /// The row's owner, the one process that can write the register.
    pub row: Pid,
    /// The broadcast's sequence number.
    pub k: u64,
    /// The broadcaster.
    pub sender: Pid,
    /// Whether the register is a delivery receipt rather than a slot.
    pub receipt: bool,
}

impl Cell {
    /// Decodes `reg`, a register of the broadcast space.
    pub fn of(reg: RegId) -> Cell {
        Cell {
            row: ActorId(reg.a as u32),
            k: reg.b & !RECEIPT_BIT,
            sender: ActorId(reg.c as u32),
            receipt: reg.b & RECEIPT_BIT != 0,
        }
    }

    /// Whether this is a broadcaster's self-slot: its own broadcast in its
    /// own row, the one register that records what it actually sent.
    pub fn is_self_slot(self) -> bool {
        !self.receipt && self.row == self.sender
    }
}

/// Builds a ready-to-add broadcast memory: the broadcast regions with
/// static permissions — nothing over this memory ever revokes, a
/// Byzantine-mode replica out-audits instead.
pub fn memory_actor(procs: &[Pid]) -> rdma_sim::MemoryActor<RegVal, Msg> {
    let mut mem = rdma_sim::MemoryActor::new(rdma_sim::LegalChange::Static);
    configure_memory(&mut mem, procs);
    mem
}

/// Declares the broadcast regions on a memory actor (row regions overlap
/// the all-region, as §7's protection-domain construction does).
pub fn configure_memory(mem: &mut rdma_sim::MemoryActor<RegVal, Msg>, procs: &[Pid]) {
    for &p in procs {
        mem.add_region(
            row_region(p),
            RegionSpec::row(spaces::NEB, p.0 as u64),
            Permission::exclusive_writer(p),
        );
    }
    mem.add_region(
        ALL_REGION,
        RegionSpec::Space(spaces::NEB),
        Permission::read_only(),
    );
}

/// A slot value: the signed `(k, wire)` pair written by a broadcaster (and
/// copied verbatim by auditors).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NebSlot {
    /// The sequence number.
    pub k: u64,
    /// The broadcast content.
    pub wire: TWire,
    /// The broadcaster's signature over [`TWire::sign_view`] at `k`.
    pub sig: Signature,
}

impl NebSlot {
    /// `wire` signed by `signer` as its `k`-th broadcast: the one
    /// allocation that every memory's row, read, audit copy and receipt of
    /// this broadcast shares.
    pub fn signed(signer: &Signer, k: u64, wire: TWire) -> Arc<NebSlot> {
        let sig = signer.sign(&wire.sign_view(k));
        Arc::new(NebSlot { k, wire, sig })
    }
}

/// A delivered broadcast.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The broadcaster.
    pub from: Pid,
    /// The audited slot — its sequence number, content and the
    /// broadcaster's signature (evidence for trusted histories) — shared
    /// with the memories' rows and, once acknowledged, the receipt.
    pub slot: Arc<NebSlot>,
}

/// One in-flight shared column audit.
struct ColAudit {
    rep: RepId,
    /// `Last[q]` when the read was issued: where its `k` window starts.
    head: u64,
    /// The slots it covers; each one's copy completed before the read
    /// was issued, preserving Algorithm 2's copy-then-audit order.
    covered: Vec<(u64, Arc<NebSlot>)>,
}

enum Attempt {
    ReadSlot(RepId),
    Copy { slot: Arc<NebSlot>, rep: RepId },
    Audit { slot: Arc<NebSlot>, rep: RepId },
}

/// The non-equivocating broadcast state machine for one process.
pub struct NebEngine {
    me: Pid,
    procs: Vec<Pid>,
    signer: Signer,
    verifier: SigVerifier,
    rep: RepEngine<RegVal, Msg>,
    next_k: u64,
    last: BTreeMap<Pid, u64>,
    /// In-flight delivery attempts, keyed `(sender, k)` — up to
    /// `depth` concurrent slots for the focused sender, one for the rest.
    attempts: BTreeMap<(Pid, u64), Attempt>,
    /// Senders caught equivocating; no further deliveries are attempted.
    blocked: BTreeMap<Pid, u64>,
    deliveries: VecDeque<Delivery>,
    /// How many of the focused sender's slots to probe concurrently
    /// (1 = the classic head-of-line loop).
    depth: usize,
    /// The one sender probed `depth` slots ahead (the group's leader —
    /// followers' rows stay at depth 1 to avoid read amplification on
    /// rows that are idle in steady state).
    focus: Option<Pid>,
    /// The leader fast path. Off (the default) is Algorithm 2 verbatim.
    /// On, [`NebEngine::broadcast`] write acks are tracked and surfaced
    /// through [`NebEngine::next_written`] — the owner settles
    /// own broadcasts at the write ack — and this process runs no
    /// delivery attempts on its *own* row: its self-audit is vacuous, as
    /// the copy target `slots[p, k, p]` *is* the broadcast register, and
    /// a correct process never equivocates against itself.
    fast_path: bool,
    /// Outstanding broadcast writes being tracked: completion id → k.
    bcast_writes: BTreeMap<RepId, u64>,
    /// Sequence numbers whose broadcast write has been acknowledged by a
    /// replication quorum, not yet drained by the owner.
    written: VecDeque<u64>,
    /// Audited-but-unreleased deliveries: slots that passed their audit
    /// out of order, waiting for `Last[q]` to reach them.
    ready: BTreeMap<(Pid, u64), Delivery>,
    /// Poll ticks seen (the idle-row backoff clock).
    polls: u64,
    /// Pipelined discovery: at most one in-flight windowed row read per
    /// focused sender, replacing per-slot probes (with the `Last[q]` its
    /// window started at).
    row_probe: BTreeMap<Pid, (RepId, u64)>,
    /// Completed copies awaiting the next shared column audit.
    await_audit: BTreeMap<(Pid, u64), Arc<NebSlot>>,
    /// At most one in-flight shared column audit per sender.
    col_audit: BTreeMap<Pid, ColAudit>,
    /// Emptied `ColAudit::covered` buffers, for the next audit to fill.
    spare_covered: Vec<Vec<(u64, Arc<NebSlot>)>>,
    /// Idle-row backoff (pipelined mode only): earliest poll tick at
    /// which a sender's row may be probed again, and the current backoff.
    idle_until: BTreeMap<Pid, u64>,
    idle_backoff: BTreeMap<Pid, u64>,
}

/// Longest the idle-row backoff may defer a probe, in poll ticks. Bounds
/// the extra discovery latency on a cold row (e.g. a brand-new leader's
/// first broadcast) while keeping steady-state waste negligible.
const IDLE_BACKOFF_CAP: u64 = 16;

/// How many emptied audit buffers an engine keeps: one audit is in flight
/// per sender, and only the focused sender's run back to back.
const SPARE_COVERED_CAP: usize = 4;

impl std::fmt::Debug for NebEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NebEngine")
            .field("me", &self.me)
            .field("next_k", &self.next_k)
            .field("last", &self.last)
            .field("blocked", &self.blocked)
            .finish()
    }
}

impl NebEngine {
    /// Creates the engine for process `me` over the given memories.
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        memories: Vec<simnet::ActorId>,
        signer: Signer,
        verifier: SigVerifier,
    ) -> NebEngine {
        let last = procs.iter().map(|&q| (q, 1)).collect();
        NebEngine {
            me,
            procs,
            signer,
            verifier,
            rep: RepEngine::new(memories),
            next_k: 1,
            last,
            attempts: BTreeMap::new(),
            blocked: BTreeMap::new(),
            deliveries: VecDeque::new(),
            depth: 1,
            focus: None,
            fast_path: false,
            bcast_writes: BTreeMap::new(),
            written: VecDeque::new(),
            ready: BTreeMap::new(),
            polls: 0,
            row_probe: BTreeMap::new(),
            await_audit: BTreeMap::new(),
            col_audit: BTreeMap::new(),
            spare_covered: Vec::new(),
            idle_until: BTreeMap::new(),
            idle_backoff: BTreeMap::new(),
        }
    }

    /// Sets how many of the focused sender's slots are probed
    /// concurrently (clamped to at least 1; 1 is the classic loop).
    pub fn set_pipeline_depth(&mut self, depth: usize) {
        self.depth = depth.max(1);
    }

    /// Sets the one sender probed `depth` slots ahead (the group's
    /// current leader; everyone else stays at depth 1).
    pub fn set_focus(&mut self, focus: Option<Pid>) {
        self.focus = focus;
    }

    /// Enables or disables the leader fast path (see the `fast_path`
    /// field): broadcast write acks surface through
    /// [`NebEngine::next_written`] in place of delivery
    /// attempts on this process's own row.
    pub(crate) fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
    }

    /// The oldest sequence number whose broadcast write has completed and
    /// that has not been taken yet (never any unless the fast path is on).
    pub fn next_written(&mut self) -> Option<u64> {
        self.written.pop_front()
    }

    /// Writes this process's delivery receipt for `d` (a fire-and-forget
    /// replicated write of the delivered slot — the same shared slot —
    /// into [`receipt_reg`]).
    ///
    /// Deliberately *not* automatic: a receipt asserts "a correct process
    /// accepted this broadcast", so the application must acknowledge only
    /// deliveries it actually acts on — [`crate::smr::ByzSmrNode`] calls
    /// this for batches it settles, never for parked wires from senders
    /// Ω has not designated leader (an engine-level delivery alone proves
    /// ordering, not acceptance).
    pub fn acknowledge(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        d: &Delivery,
    ) {
        self.rep.write(
            ctx,
            client,
            row_region(self.me),
            receipt_reg(self.me, d.slot.k, d.from),
            RegVal::Neb(d.slot.clone()),
        );
    }

    /// The next sequence number this process will broadcast with.
    pub fn next_k(&self) -> u64 {
        self.next_k
    }

    /// Broadcasts `wire`, returning the sequence number used.
    pub fn broadcast(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        wire: TWire,
    ) -> u64 {
        let k = self.next_k;
        self.next_k += 1;
        let rep = self.rep.write(
            ctx,
            client,
            row_region(self.me),
            slot_reg(self.me, k, self.me),
            RegVal::Neb(NebSlot::signed(&self.signer, k, wire)),
        );
        if self.fast_path {
            self.bcast_writes.insert(rep, k);
        }
        k
    }

    /// Starts delivery attempts for every sender slot in window without
    /// one in flight. Call periodically (this is Algorithm 2's outer
    /// `while true` loop, paced by the caller's timer).
    pub fn poll(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        self.polls += 1;
        for i in 0..self.procs.len() {
            self.launch_attempts(ctx, client, self.procs[i]);
        }
    }

    /// Launches missing delivery attempts on `q`'s row. In pipelined mode
    /// the focused sender's row is discovered by a single range read (see
    /// the module docs); everyone else gets the classic head-slot probe,
    /// deferred by the idle backoff when the row keeps reading ⊥.
    fn launch_attempts(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        q: Pid,
    ) {
        if self.blocked.contains_key(&q) || (self.fast_path && q == self.me) {
            return;
        }
        if self.depth > 1 && self.focus == Some(q) {
            // The shared column audit's range read also returns q's own
            // row, so it doubles as discovery; the dedicated row probe
            // only runs when q's pipeline is completely dry (nothing in
            // flight whose completion would discover new slots).
            let busy = self.col_audit.contains_key(&q)
                || self.attempts.range((q, 0)..=(q, u64::MAX)).next().is_some()
                || self
                    .await_audit
                    .range((q, 0)..=(q, u64::MAX))
                    .next()
                    .is_some();
            if !busy && !self.row_probe.contains_key(&q) {
                let head = self.last[&q];
                let rep = self.rep.read_range(
                    ctx,
                    client,
                    ALL_REGION,
                    Some(RegionSpec::Pattern {
                        space: spaces::NEB,
                        a: Some(q.0 as u64),
                        b: Some(self.read_window(head)),
                        c: Some(q.0 as u64),
                    }),
                );
                self.row_probe.insert(q, (rep, head));
            }
            self.maybe_launch_audit(ctx, client, q);
            return;
        }
        if self.depth > 1 {
            // Copies orphaned by a focus change still need their audit.
            if self.await_audit.keys().any(|&(aq, _)| aq == q) {
                self.maybe_launch_audit(ctx, client, q);
            }
            if self.polls < self.idle_until.get(&q).copied().unwrap_or(0) {
                return;
            }
        }
        let head = self.last[&q];
        if self.attempts.contains_key(&(q, head))
            || self.ready.contains_key(&(q, head))
            || self.await_audit.contains_key(&(q, head))
        {
            return;
        }
        let rep = self.rep.read(ctx, client, ALL_REGION, slot_reg(q, head, q));
        self.attempts.insert((q, head), Attempt::ReadSlot(rep));
    }

    /// The `k` window a pipelined range read issued at `Last[q] = head`
    /// asks for (see the module docs for why `2·depth` slots suffice).
    fn read_window(&self, head: u64) -> Window {
        Window::span(head, (self.depth as u64).saturating_mul(2))
    }

    /// Adopts the slots of `q`'s own row returned by a range read whose
    /// window started at `issued_head`: every validly signed, in-window,
    /// not-yet-attempted slot goes straight to the copy step (the read
    /// already fetched its value).
    fn adopt_row(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        q: Pid,
        issued_head: u64,
        rows: impl IntoIterator<Item = (RegId, RegVal)>,
    ) {
        if self.blocked.contains_key(&q) {
            return;
        }
        let depth = if self.depth > 1 && self.focus == Some(q) {
            self.depth as u64
        } else {
            1
        };
        let head = self.last[&q];
        debug_assert!(
            issued_head <= head && head - issued_head <= self.depth as u64,
            "the read's window [{issued_head}, +2·{}) no longer covers Last[{q}] = {head}",
            self.depth
        );
        let covered = |s: &Self, k: u64| {
            s.col_audit
                .get(&q)
                .is_some_and(|audit| audit.covered.iter().any(|&(ck, _)| ck == k))
        };
        for (reg, val) in rows {
            let Cell { k, receipt, .. } = Cell::of(reg);
            if receipt {
                continue; // q's self-receipts share the row; not slots
            }
            if k < head
                || k >= head + depth
                || self.attempts.contains_key(&(q, k))
                || self.ready.contains_key(&(q, k))
                || self.await_audit.contains_key(&(q, k))
                || covered(self, k)
            {
                continue;
            }
            let RegVal::Neb(slot) = val else { continue };
            if !self.signed_by(q, k, &slot) {
                continue;
            }
            let rep = self.rep.write(
                ctx,
                client,
                row_region(self.me),
                slot_reg(self.me, k, q),
                RegVal::Neb(slot.clone()),
            );
            self.attempts.insert((q, k), Attempt::Copy { slot, rep });
        }
    }

    /// Issues the shared column audit for `q` if none is in flight and
    /// copies are waiting: one range read over the window of `q`'s columns
    /// covers every pending slot at once.
    fn maybe_launch_audit(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        q: Pid,
    ) {
        let row = (q, 0)..=(q, u64::MAX);
        if self.col_audit.contains_key(&q) || self.await_audit.range(row.clone()).next().is_none() {
            return;
        }
        let mut covered = self.spare_covered.pop().unwrap_or_default();
        let waiting = self.await_audit.extract_if(row, |_, _| true);
        covered.extend(waiting.map(|((_, k), slot)| (k, slot)));
        let head = self.last[&q];
        let rep = self.rep.read_range(
            ctx,
            client,
            ALL_REGION,
            Some(RegionSpec::Pattern {
                space: spaces::NEB,
                a: None,
                b: Some(self.read_window(head)),
                c: Some(q.0 as u64),
            }),
        );
        self.col_audit.insert(q, ColAudit { rep, head, covered });
    }

    /// Drops every in-flight structure for `q` after it was caught
    /// equivocating — nothing from an equivocator is ever delivered.
    fn purge(&mut self, q: Pid) {
        self.attempts.retain(|&(aq, _), _| aq != q);
        self.ready.retain(|&(rq, _), _| rq != q);
        self.await_audit.retain(|&(aq, _), _| aq != q);
        self.row_probe.remove(&q);
        self.col_audit.remove(&q);
    }

    /// Moves `ready` slots at the head of `q`'s sequence into the delivery
    /// queue; returns whether anything was released.
    fn release_ready(&mut self, q: Pid) -> bool {
        let mut released = false;
        loop {
            let head = self.last[&q];
            let Some(d) = self.ready.remove(&(q, head)) else {
                break;
            };
            self.deliveries.push_back(d);
            *self.last.get_mut(&q).expect("known sender") += 1;
            released = true;
        }
        released
    }

    /// Step 1's check: `slot` is keyed `k` and validly signed by `q`.
    fn signed_by(&self, q: Pid, k: u64, slot: &NebSlot) -> bool {
        slot.k == k && self.verifier.valid(q, &slot.wire.sign_view(k), &slot.sig)
    }

    /// The audit's check: `other`, a copy read from the `(k, q)` column,
    /// convicts `q` of equivocating against `slot` — validly signed by `q`
    /// for the same `k`, a different wire. Compared by value: a copy
    /// convicts by what it says, never by which allocation holds it (every
    /// memory may hold its own).
    fn convicts(&self, q: Pid, k: u64, slot: &NebSlot, other: &NebSlot) -> bool {
        other.k == k && other.wire != slot.wire && self.signed_by(q, k, other)
    }

    /// Whether `q` has been caught equivocating (at which sequence number).
    pub fn blocked_at(&self, q: Pid) -> Option<u64> {
        self.blocked.get(&q).copied()
    }

    /// Whether `completion` answers a memory operation this engine issued
    /// (and has not been fed yet): lets an owner that shares one memory
    /// client between engines route the completion by value.
    pub fn owns(&self, completion: &rdma_sim::Completion<RegVal>) -> bool {
        self.rep.owns(completion.op)
    }

    /// Feeds a memory completion through the replication layer. Returns
    /// true if it finished one of this engine's logical operations
    /// (deliveries, if any, are queued — drain with
    /// [`NebEngine::next_delivery`]); false if it did not, including
    /// when the completion is not this engine's.
    pub fn on_completion(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        completion: rdma_sim::Completion<RegVal>,
    ) -> bool {
        let Some(ev) = self.rep.on_completion(completion) else {
            return false;
        };
        self.on_rep_event(ctx, client, ev);
        true
    }

    fn on_rep_event(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        ev: RepEvent<RegVal>,
    ) {
        // Tracked broadcast write acks surface to the owner (empty map —
        // the default — makes this a no-op).
        if let Some(k) = self.bcast_writes.remove(&ev.id) {
            if matches!(ev.result, RepResult::WriteOk) {
                self.written.push_back(k);
            }
            return;
        }
        // Row-probe completions (pipelined discovery).
        if let Some((&q, &(_, head))) = self.row_probe.iter().find(|(_, &(r, _))| r == ev.id) {
            self.row_probe.remove(&q);
            if let RepResult::RangeOk(rows) = ev.result {
                self.adopt_row(ctx, client, q, head, rows);
            }
            return; // the next poll tick relaunches the probe
        }
        // Shared column-audit completions.
        if let Some((&q, _)) = self.col_audit.iter().find(|(_, a)| a.rep == ev.id) {
            let ColAudit {
                head, mut covered, ..
            } = self.col_audit.remove(&q).expect("found above");
            self.on_col_audit(ctx, client, q, head, &mut covered, ev.result);
            if self.spare_covered.len() < SPARE_COVERED_CAP {
                covered.clear();
                self.spare_covered.push(covered);
            }
            return;
        }
        // Find which delivery attempt this event advances.
        let Some((&(q, k), _)) = self.attempts.iter().find(|(_, a)| match a {
            Attempt::ReadSlot(r) | Attempt::Copy { rep: r, .. } | Attempt::Audit { rep: r, .. } => {
                *r == ev.id
            }
        }) else {
            return;
        };
        let attempt = self.attempts.remove(&(q, k)).expect("found above");
        match (attempt, ev.result) {
            (Attempt::ReadSlot(_), RepResult::ReadOk(Some(RegVal::Neb(slot)))) => {
                // Step 1 checks: signed by q, keyed k.
                if !self.signed_by(q, k, &slot) {
                    return; // pretend we saw nothing; retry next poll
                }
                if self.depth > 1 {
                    self.idle_backoff.insert(q, 1); // the row woke up
                }
                let rep = self.rep.write(
                    ctx,
                    client,
                    row_region(self.me),
                    slot_reg(self.me, k, q),
                    RegVal::Neb(slot.clone()),
                );
                self.attempts.insert((q, k), Attempt::Copy { slot, rep });
            }
            (Attempt::ReadSlot(_), _) => {
                // ⊥ / junk / failed: retry later. In pipelined mode an
                // idle row backs off exponentially — speculative reads
                // compete with useful ops for the per-memory FIFO slots.
                if self.depth > 1 && self.focus != Some(q) {
                    let b = self.idle_backoff.entry(q).or_insert(1);
                    self.idle_until.insert(q, self.polls + *b);
                    *b = (*b * 2).min(IDLE_BACKOFF_CAP);
                }
            }
            (Attempt::Copy { slot, .. }, RepResult::WriteOk) => {
                if self.depth > 1 && self.focus == Some(q) {
                    // Pipelined: join the next shared column audit.
                    self.await_audit.insert((q, k), slot);
                    self.maybe_launch_audit(ctx, client, q);
                    return;
                }
                let rep = self.rep.read_range(
                    ctx,
                    client,
                    ALL_REGION,
                    Some(RegionSpec::Pattern {
                        space: spaces::NEB,
                        a: None,
                        b: Some(Window::exact(k)),
                        c: Some(q.0 as u64),
                    }),
                );
                self.attempts.insert((q, k), Attempt::Audit { slot, rep });
            }
            (Attempt::Copy { .. }, _) => {} // copy failed: retry later
            (Attempt::Audit { slot, .. }, RepResult::RangeOk(column)) => {
                for (_, other) in column {
                    let RegVal::Neb(other) = other else { continue };
                    if self.convicts(q, k, &slot, &other) {
                        // q signed two different messages for k: equivocation.
                        ctx.note_with(|| format!("nebcast: {q} equivocated at k={k}"));
                        self.blocked.insert(q, k);
                        // Abandon the rest of q's window: nothing from an
                        // equivocator is ever delivered (no-ops at depth 1).
                        self.purge(q);
                        return;
                    }
                }
                // Audited out-of-order slots wait in the ready buffer;
                // deliveries are released strictly in sequence order.
                self.ready.insert((q, k), Delivery { from: q, slot });
                let released = self.release_ready(q);
                // Per-slot completion chaining: a released head frees
                // window room — probe q's next slots now instead of
                // waiting for the timer (classic depth keeps the timer
                // cadence, bit-identical to the head-of-line loop).
                if released && self.depth > 1 {
                    self.launch_attempts(ctx, client, q);
                }
            }
            (Attempt::Audit { .. }, _) => {} // audit failed: retry later
        }
    }

    /// Resolves a completed shared column audit (issued at `Last[q] =
    /// head`): checks every covered slot's column for a validly signed
    /// conflicting copy, then releases the survivors in sequence order.
    /// Takes the slots out of `covered`.
    fn on_col_audit(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        q: Pid,
        head: u64,
        covered: &mut Vec<(u64, Arc<NebSlot>)>,
        result: RepResult<RegVal>,
    ) {
        let RepResult::RangeOk(all) = result else {
            // Audit read failed: the covered slots rejoin the queue and
            // the next poll retries.
            for (k, slot) in covered.drain(..) {
                self.await_audit.insert((q, k), slot);
            }
            return;
        };
        if self.blocked.contains_key(&q) {
            return;
        }
        for (k, slot) in covered.drain(..) {
            // The `(k, q)` column: one register per process's row.
            for &i in &self.procs {
                let reg = slot_reg(i, k, q);
                let Ok(at) = all.binary_search_by_key(&reg, |(r, _)| *r) else {
                    continue;
                };
                let RegVal::Neb(other) = &all[at].1 else {
                    continue;
                };
                if self.convicts(q, k, &slot, other) {
                    ctx.note_with(|| format!("nebcast: {q} equivocated at k={k}"));
                    self.blocked.insert(q, k);
                    self.purge(q);
                    return;
                }
            }
            self.ready.insert((q, k), Delivery { from: q, slot });
        }
        self.release_ready(q);
        // The audit read covered the window of q's whole column space,
        // including q's own row — adopt any newly written in-window slots
        // from it directly (audit doubles as discovery).
        let own_row = (all.into_iter()).filter(|(reg, _)| {
            let cell = Cell::of(*reg);
            cell.is_self_slot() && cell.row == q
        });
        self.adopt_row(ctx, client, q, head, own_row);
        // Chain the next round of work for q (the row probe if the
        // pipeline drained, and an audit for any copies that completed
        // while this one was in flight).
        self.launch_attempts(ctx, client, q);
        self.maybe_launch_audit(ctx, client, q);
    }

    /// The oldest queued delivery (deliveries come in per-sender
    /// sequence order).
    pub fn next_delivery(&mut self) -> Option<Delivery> {
        self.deliveries.pop_front()
    }
}
