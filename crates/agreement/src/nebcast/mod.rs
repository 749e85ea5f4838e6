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
//! audited slots that complete out of order wait in their row until
//! `Last[q]` reaches them. At the default depth 1 the engine is
//! move-for-move identical to the classic head-of-line loop.
//!
//! **What an engine delivers.** The engine has two modes.
//!
//! * **Depth 1** is Algorithm 2's loop over every sender: each row's head
//!   slot is read, copied and audited alone. Lemma 4.1 holds whole: a
//!   correct sender's broadcasts reach every correct process (property
//!   1), no two correct processes deliver different values for one `(q,
//!   k)` (property 2), and nothing is delivered from a correct sender that
//!   it did not broadcast (property 3).
//! * **Depth > 1** reads the focus's row and no other
//!   ([`NebEngine::set_focus`]; an engine with no focus reads nothing). A
//!   row that loses the focus finishes the copies it has in flight through
//!   its shared audit and adopts nothing more; a new focus's row is probed
//!   at the next poll. So another sender's broadcasts are delivered once
//!   that sender becomes the focus: properties 2 and 3 hold, and property
//!   1 holds for the focus.
//!
//! The Byzantine log ([`crate::smr::ByzSmrNode`]) focuses on Ω's leader
//! and settles only its deliveries, so a read of another row never paid
//! for its memory slot.
//!
//! State is kept per sender: one `Row` for each process, at its position
//! in the group, holding `Last[q]`, whether `q` was caught equivocating,
//! its one row probe and one column audit in flight, and one table of its
//! slots in flight, sorted by `k`, each in the one `Stage` of Algorithm 2
//! it has reached: reading, copying, audited alone, waiting for the
//! shared audit, covered by it, or audited and waiting for release. A slot is in the table once, so "is `k` in flight?" is
//! one lookup wherever it is asked. A completion is routed by looking
//! through the rows for the operation it answers, and catching an
//! equivocator clears its row and no other.
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
//! * **The focus's row only** — no other row is read, copied from or
//!   audited slot by slot, so rows that are idle in steady state
//!   (followers never broadcast) take no FIFO slot: a read queued ahead
//!   of a copy, an audit or a held broadcast delays it a round trip.
//! * **Group commit of the broadcaster's slots** — at most one broadcast
//!   write is in flight. A broadcast issued meanwhile is signed at once
//!   and held; when the write completes, acknowledged or not, everything
//!   held goes out as one write into this process's row (one
//!   [`swmr::RepEngine::write_many`], or a plain write for one slot). A
//!   write carries consecutive sequence numbers, so it is tracked as its
//!   first `k` and a count, and under the fast path its one ack surfaces
//!   every `k` it carried, in order. Issued one by one, a window of
//!   broadcasts would queue at every memory: the last of 8 waited 16
//!   delays for its 2-delay write.
//! * **One write per memory per handler** — every write into this
//!   process's own row that one handler issues (the copies of every slot
//!   `adopt_row` takes in, and the receipts [`NebEngine::acknowledge`]
//!   writes) joins one batch, which the owner sends with
//!   [`NebEngine::post`] after draining deliveries: one
//!   [`swmr::RepEngine::write_many`] — a `WriteMany` per memory, one
//!   round trip whatever it carries, complete at a majority — or a plain
//!   write for a batch of one. All copies of a batch move to the shared
//!   audit together, and one audit covers them; a slot is still covered
//!   only by an audit issued after its copy completed.
//!
//! So a pipelined burst — every slot of the focused sender's window that
//! one read found — costs three round trips per memory whatever its size:
//! the read that found it (a row probe, or the previous audit), the batch
//! of copies (with the receipts of what the previous audit released), and
//! the shared audit, which finds the next burst. Issued one by one, those
//! copies and receipts would queue behind one another at every memory
//! (§3's one outstanding operation per memory): up to six writes, 12
//! delays, between the read and the audit. The rows a range read returns
//! land in buffers the replication engine recycles, and the engine hands
//! each result back after use ([`swmr::RepEngine::recycle_rows`]), so a
//! burst allocates nothing once warm but a batch buffer when none of its
//! length is free to reuse.
//!
//! At depth 1 every write, broadcasts included, goes out the moment it is
//! issued, and [`NebEngine::post`] has nothing to send: the classic loop
//! is unchanged.

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
        RegionSpec::space(spaces::NEB),
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

/// The Algorithm 2 step one of a sender's slots is in. A slot enters its
/// sender's table when a read of it is issued (or a range read fetched it)
/// and leaves when it is released as a delivery, when an operation on it
/// fails (a later poll starts it again), or when its sender is blocked.
enum Stage {
    /// Step 1, at depth 1: reading `slots[q, k, q]`.
    Read(RepId),
    /// Step 2: copying the signed value into this process's audit slot
    /// `slots[p, k, q]` — in pipelined mode as one row of the handler's
    /// batch, whose id is [`QUEUED`] until [`NebEngine::post`] sends it.
    Copy { slot: Arc<NebSlot>, rep: RepId },
    /// Step 3, alone, at depth 1: reading the `(k, q)` column.
    Audit { slot: Arc<NebSlot>, rep: RepId },
    /// Copied, in pipelined mode; waiting for the sender's next shared
    /// column audit.
    Await(Arc<NebSlot>),
    /// Covered by the sender's shared column audit in flight, which was
    /// issued after this copy completed (Algorithm 2's copy-then-audit
    /// order).
    Covered(Arc<NebSlot>),
    /// Audited; waiting for `Last[q]` to reach it.
    Ready(Arc<NebSlot>),
}

impl Stage {
    /// The operation of this slot's own that the stage waits for.
    fn rep(&self) -> Option<RepId> {
        match self {
            Stage::Read(rep) | Stage::Copy { rep, .. } | Stage::Audit { rep, .. } => Some(*rep),
            Stage::Await(_) | Stage::Covered(_) | Stage::Ready(_) => None,
        }
    }
}

/// One sender's slots in flight, each in its stage, sorted by sequence
/// number: few are ever held at once (every one lies in `[Last[q],
/// Last[q] + depth)`), and each `k` is held once, so "is `k` in flight?"
/// is one lookup.
struct Slots(Vec<(u64, Stage)>);

impl Slots {
    fn find(&self, k: u64) -> Result<usize, usize> {
        self.0.binary_search_by_key(&k, |&(x, _)| x)
    }

    fn contains(&self, k: u64) -> bool {
        self.find(k).is_ok()
    }

    /// Holds `k`, which is not in flight, in `stage`.
    fn insert(&mut self, k: u64, stage: Stage) {
        let at = self.find(k).expect_err("a slot is in flight once");
        self.0.insert(at, (k, stage));
    }

    fn remove(&mut self, k: u64) -> Option<Stage> {
        Some(self.0.remove(self.find(k).ok()?).1)
    }

    /// Makes room for a window of `depth` slots at once, rather than
    /// doubling up to it.
    fn reserve_window(&mut self, depth: usize) {
        self.0.reserve_exact(depth.saturating_sub(self.0.len()));
    }
}

/// Everything the engine keeps about one sender `q`: its delivery
/// frontier and its broadcasts in flight through read → copy → audit →
/// release.
struct Row {
    /// `Last[q]`: the next sequence number to deliver.
    last: u64,
    /// The sequence number at which `q` was caught equivocating; no further
    /// deliveries are attempted.
    blocked: Option<u64>,
    /// Every slot in flight, in its stage — one at depth 1; above it, up
    /// to `depth` for the focused sender and the copies a focus change
    /// left in flight for the rest.
    slots: Slots,
    /// Pipelined discovery: the one in-flight windowed read of the focus's
    /// row, replacing per-slot probes, with the `Last[q]` its window
    /// started at.
    probe: Option<(RepId, u64)>,
    /// The one in-flight shared column audit, with the `Last[q]` its
    /// window started at. It covers the slots in [`Stage::Covered`].
    audit: Option<(RepId, u64)>,
}

impl Row {
    fn new() -> Row {
        Row {
            last: 1,
            blocked: None,
            slots: Slots(Vec::new()),
            probe: None,
            audit: None,
        }
    }
}

/// Which of a row's operations a replication event completes: its probe,
/// its audit, a write of copies (one slot's, or a whole batch's), or
/// another operation of one slot's.
enum Op {
    Probe { head: u64 },
    Audit { head: u64 },
    Copies,
    Slot { k: u64 },
}

/// The operation id of a copy in this handler's batch, not yet posted:
/// the replication engine numbers its operations from 1.
const QUEUED: RepId = RepId(0);

/// How many posted batch buffers an engine keeps for reuse, by length.
const SPARE_BATCHES_CAP: usize = 8;

/// Writes `rows` into `me`'s own row, emptying `rows`: one write per
/// memory, a plain write for one row, else one
/// [`swmr::RepEngine::write_many`] over a buffer from `spares`. `None`
/// when there is nothing to write.
fn write_rows(
    rep: &mut RepEngine<RegVal, Msg>,
    ctx: &mut Context<'_, Msg>,
    client: &mut MemoryClient<RegVal, Msg>,
    me: Pid,
    rows: &mut Vec<(RegId, RegVal)>,
    spares: &mut Vec<Arc<[(RegId, RegVal)]>>,
) -> Option<RepId> {
    let region = row_region(me);
    Some(match rows.len() {
        0 => return None,
        1 => {
            let (reg, val) = rows.pop().expect("one row");
            rep.write(ctx, client, region, reg, val)
        }
        _ => rep.write_many(ctx, client, region, shared_buffer(spares, rows)),
    })
}

/// `rows` as one shared buffer, emptying `rows`: a buffer of `spares` of
/// the same length that no memory holds any more is overwritten in place,
/// and a fresh one is kept among `spares` for later batches.
fn shared_buffer(
    spares: &mut Vec<Arc<[(RegId, RegVal)]>>,
    rows: &mut Vec<(RegId, RegVal)>,
) -> Arc<[(RegId, RegVal)]> {
    let len = rows.len();
    let free = |b: &&mut Arc<[_]>| Arc::strong_count(b) == 1;
    if let Some(buffer) = spares.iter_mut().find(|b| b.len() == len && free(b)) {
        let slots = Arc::get_mut(buffer).expect("no other holder");
        for (slot, write) in slots.iter_mut().zip(rows.drain(..)) {
            *slot = write;
        }
        return buffer.clone();
    }
    let fresh: Arc<[(RegId, RegVal)]> = rows.drain(..).collect();
    if spares.is_empty() {
        spares.reserve_exact(SPARE_BATCHES_CAP);
    }
    if spares.len() < SPARE_BATCHES_CAP {
        spares.push(fresh.clone());
    } else if let Some(old) = spares.iter_mut().find(free) {
        *old = fresh.clone();
    }
    fresh
}

/// The non-equivocating broadcast state machine for one process.
pub struct NebEngine {
    me: Pid,
    procs: Vec<Pid>,
    signer: Signer,
    verifier: SigVerifier,
    rep: RepEngine<RegVal, Msg>,
    next_k: u64,
    /// One per sender, at the sender's position in `procs`.
    rows: Vec<Row>,
    deliveries: VecDeque<Delivery>,
    /// How many of the focused sender's slots to probe concurrently
    /// (1 = the classic head-of-line loop).
    depth: usize,
    /// The one sender probed `depth` slots ahead (the group's leader); in
    /// pipelined mode no other sender's row is read, and with none set
    /// no row is.
    focus: Option<Pid>,
    /// The leader fast path. Off (the default) is Algorithm 2 verbatim.
    /// On, [`NebEngine::broadcast`] write acks surface through
    /// [`NebEngine::next_written`] — the owner settles own broadcasts at
    /// the write ack — and this process runs no delivery attempts on its
    /// *own* row: its self-audit is vacuous, as the copy target
    /// `slots[p, k, p]` *is* the broadcast register, and a correct process
    /// never equivocates against itself.
    fast_path: bool,
    /// Outstanding broadcast writes being tracked (every one in pipelined
    /// mode, where there is at most one; under the fast path at depth 1):
    /// the write's id, its first sequence number and how many consecutive
    /// ones it carries.
    bcast_writes: Vec<(RepId, u64, u64)>,
    /// Pipelined mode: broadcasts signed while a broadcast write was in
    /// flight, in `k` order up to `next_k`, held until it completes.
    held: Vec<(RegId, RegVal)>,
    /// Sequence numbers whose broadcast write has been acknowledged by a
    /// replication quorum, not yet drained by the owner: one `[next, end)`
    /// run per acknowledged write.
    written: VecDeque<(u64, u64)>,
    /// Pipelined mode: this handler's writes into this process's own row
    /// — copies and receipts — waiting for [`NebEngine::post`].
    batch: Vec<(RegId, RegVal)>,
    /// Batch buffers posted before, each reused for a batch of its length
    /// once every memory has dropped its share.
    spare_batches: Vec<Arc<[(RegId, RegVal)]>>,
}

impl std::fmt::Debug for NebEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let senders = || self.procs.iter().zip(&self.rows);
        let last: BTreeMap<Pid, u64> = senders().map(|(&q, row)| (q, row.last)).collect();
        let blocked: BTreeMap<Pid, u64> = senders()
            .filter_map(|(&q, row)| Some((q, row.blocked?)))
            .collect();
        f.debug_struct("NebEngine")
            .field("me", &self.me)
            .field("next_k", &self.next_k)
            .field("last", &last)
            .field("blocked", &blocked)
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
        let rows = procs.iter().map(|_| Row::new()).collect();
        NebEngine {
            me,
            procs,
            signer,
            verifier,
            rep: RepEngine::new(memories),
            next_k: 1,
            rows,
            deliveries: VecDeque::new(),
            depth: 1,
            focus: None,
            fast_path: false,
            bcast_writes: Vec::new(),
            held: Vec::new(),
            written: VecDeque::new(),
            batch: Vec::new(),
            spare_batches: Vec::new(),
        }
    }

    /// Sets how many of the focused sender's slots are probed
    /// concurrently (clamped to at least 1; 1 is the classic loop). Above
    /// 1 the owner sends each handler's own-row writes with
    /// [`NebEngine::post`], and broadcasts wait behind the one broadcast
    /// write in flight (see [`NebEngine::broadcast`]).
    pub fn set_pipeline_depth(&mut self, depth: usize) {
        self.depth = depth.max(1);
    }

    /// How many of the focused sender's slots are probed concurrently.
    pub(crate) fn pipeline_depth(&self) -> usize {
        self.depth
    }

    /// Sets the one sender probed `depth` slots ahead (the group's
    /// current leader). In pipelined mode no other row is read, and the
    /// new focus's row is probed at the next poll.
    pub fn set_focus(&mut self, focus: Pid) {
        self.focus = Some(focus);
    }

    /// The one sender probed `depth` slots ahead, if any.
    pub(crate) fn focus(&self) -> Option<Pid> {
        self.focus
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
        let (next, end) = self.written.front_mut()?;
        let k = *next;
        *next += 1;
        if next == end {
            self.written.pop_front();
        }
        Some(k)
    }

    /// Writes this process's delivery receipt for `d` (a fire-and-forget
    /// replicated write of the delivered slot — the same shared slot —
    /// into [`receipt_reg`]; in pipelined mode a row of the handler's
    /// batch, sent by [`NebEngine::post`]).
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
        let reg = receipt_reg(self.me, d.slot.k, d.from);
        self.own_write(ctx, client, reg, RegVal::Neb(d.slot.clone()));
    }

    /// Writes `val` to `reg` of this process's own row: at once at depth 1,
    /// or as a row of the handler's batch in pipelined mode ([`QUEUED`]
    /// until posted).
    fn own_write(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        reg: RegId,
        val: RegVal,
    ) -> RepId {
        if self.depth > 1 {
            self.batch.push((reg, val));
            return QUEUED;
        }
        self.rep.write(ctx, client, row_region(self.me), reg, val)
    }

    /// Sends the handler's batch of own-row writes (pipelined mode; a
    /// no-op when nothing is queued): one write per memory, a plain write
    /// for a batch of one. Every copy in it moves on when the one write
    /// completes. The owner calls this once per handler, after draining
    /// deliveries and acknowledging the ones it acts on.
    pub fn post(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        let (rows, spares) = (&mut self.batch, &mut self.spare_batches);
        let Some(rep) = write_rows(&mut self.rep, ctx, client, self.me, rows, spares) else {
            return;
        };
        for row in &mut self.rows {
            for (_, stage) in &mut row.slots.0 {
                if let Stage::Copy { rep: queued, .. } = stage {
                    if *queued == QUEUED {
                        *queued = rep;
                    }
                }
            }
        }
    }

    /// The next sequence number this process will broadcast with.
    pub fn next_k(&self) -> u64 {
        self.next_k
    }

    /// Broadcasts `wire`, returning the sequence number used. In
    /// pipelined mode a broadcast issued while another broadcast write is
    /// in flight is signed at once and held: everything held goes out as
    /// one write when that write completes (see `send_held`).
    pub fn broadcast(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        wire: TWire,
    ) -> u64 {
        let k = self.next_k;
        self.next_k += 1;
        let reg = slot_reg(self.me, k, self.me);
        let val = RegVal::Neb(NebSlot::signed(&self.signer, k, wire));
        if self.depth == 1 {
            let rep = self.rep.write(ctx, client, row_region(self.me), reg, val);
            if self.fast_path {
                self.bcast_writes.push((rep, k, 1));
            }
            return k;
        }
        if self.held.is_empty() {
            self.held.reserve_exact(self.depth); // a window's worth, once
        }
        self.held.push((reg, val));
        if self.bcast_writes.is_empty() {
            self.send_held(ctx, client);
        }
        k
    }

    /// Sends every held broadcast (pipelined mode; a no-op when none is
    /// held) as one write into this process's own row: one
    /// [`swmr::RepEngine::write_many`], or a plain write for one slot.
    fn send_held(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        let count = self.held.len() as u64;
        let (rows, spares) = (&mut self.held, &mut self.spare_batches);
        if let Some(rep) = write_rows(&mut self.rep, ctx, client, self.me, rows, spares) {
            self.bcast_writes.push((rep, self.next_k - count, count));
        }
    }

    /// Starts delivery attempts for every sender slot in window without
    /// one in flight (in pipelined mode, the focus's only).
    /// Call periodically (this is Algorithm 2's outer `while true` loop,
    /// paced by the caller's timer).
    pub fn poll(&mut self, ctx: &mut Context<'_, Msg>, client: &mut MemoryClient<RegVal, Msg>) {
        for i in 0..self.rows.len() {
            self.launch_attempts(ctx, client, i);
        }
    }

    /// Launches missing delivery attempts on the row of sender `i` (its
    /// position in `procs`). At depth 1 every row gets the classic
    /// head-slot read. In pipelined mode only the focus's row is read, by
    /// a single range read (see the module docs) when its pipeline is dry,
    /// and every row's copies waiting for their audit get one.
    fn launch_attempts(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        i: usize,
    ) {
        let q = self.procs[i];
        let row = &self.rows[i];
        if row.blocked.is_some() || (self.fast_path && q == self.me) {
            return;
        }
        if self.depth > 1 {
            // The shared column audit's range read also returns q's own
            // row, so it doubles as discovery; the dedicated row probe
            // only runs when the focus's pipeline is completely dry
            // (nothing in flight whose completion would discover new
            // slots).
            let dry = row.probe.is_none()
                && row.audit.is_none()
                && (row.slots.0.iter()).all(|(_, stage)| matches!(stage, Stage::Ready(_)));
            if dry && self.focus == Some(q) {
                let head = row.last;
                let rep = self.read_cells(ctx, client, Some(q), q, self.read_window(head));
                self.rows[i].probe = Some((rep, head));
            }
            self.maybe_launch_audit(ctx, client, i);
            return;
        }
        let head = row.last;
        if row.slots.contains(head) {
            return;
        }
        let rep = self.rep.read(ctx, client, ALL_REGION, slot_reg(q, head, q));
        self.rows[i].slots.insert(head, Stage::Read(rep));
    }

    /// The `k` window a pipelined range read issued at `Last[q] = head`
    /// asks for (see the module docs for why `2·depth` slots suffice).
    fn read_window(&self, head: u64) -> Window {
        Window::span(head, (self.depth as u64).saturating_mul(2))
    }

    /// One range read of sender `q`'s cells `slots[i, k, q]` for every
    /// `k` in `window`: in one row `i` (a row probe, `owner = Some(q)`), or
    /// in every process's row (a column audit, `None`).
    fn read_cells(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        owner: Option<Pid>,
        q: Pid,
        window: Window,
    ) -> RepId {
        let cells = RegionSpec {
            space: Some(spaces::NEB),
            a: owner.map(|i| Window::exact(i.0 as u64)),
            b: Some(window),
            c: Some(q.0 as u64),
        };
        self.rep.read_range(ctx, client, ALL_REGION, cells)
    }

    /// Adopts the slots of the focus's own row (sender `i`) returned by a
    /// range read whose window started at `issued_head`: every validly
    /// signed, in-window, not-yet-attempted slot goes straight to the copy
    /// step (the read already fetched its value). A row that lost the
    /// focus adopts nothing.
    fn adopt_row<'a>(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        i: usize,
        issued_head: u64,
        rows: impl IntoIterator<Item = &'a (RegId, RegVal)>,
    ) {
        let q = self.procs[i];
        if self.rows[i].blocked.is_some() || self.focus != Some(q) {
            return;
        }
        let head = self.rows[i].last;
        let depth = self.depth as u64;
        self.rows[i].slots.reserve_window(self.depth);
        debug_assert!(
            issued_head <= head && head - issued_head <= depth,
            "the read's window [{issued_head}, +2·{}) no longer covers Last[{q}] = {head}",
            self.depth
        );
        for (reg, val) in rows {
            let Cell { k, receipt, .. } = Cell::of(*reg);
            if receipt {
                continue; // q's self-receipts share the row; not slots
            }
            if k < head || k >= head + depth || self.rows[i].slots.contains(k) {
                continue;
            }
            let RegVal::Neb(slot) = val else { continue };
            if !self.signed_by(q, k, slot) {
                continue;
            }
            self.copy(ctx, client, i, k, slot.clone());
        }
    }

    /// Step 2 for `slot`, sender `i`'s `k`-th broadcast: copies it into
    /// this process's audit slot (see [`NebEngine::own_write`]).
    fn copy(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        i: usize,
        k: u64,
        slot: Arc<NebSlot>,
    ) {
        let reg = slot_reg(self.me, k, self.procs[i]);
        let rep = self.own_write(ctx, client, reg, RegVal::Neb(slot.clone()));
        self.rows[i].slots.insert(k, Stage::Copy { slot, rep });
    }

    /// Issues the shared column audit for sender `i` if none is in flight
    /// and copies are waiting: one range read over the window of `q`'s
    /// columns covers every waiting slot at once.
    fn maybe_launch_audit(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        i: usize,
    ) {
        let row = &mut self.rows[i];
        if row.audit.is_some() {
            return;
        }
        let mut covered = false;
        for (_, stage) in &mut row.slots.0 {
            if let Stage::Await(slot) = stage {
                *stage = Stage::Covered(slot.clone());
                covered = true;
            }
        }
        if !covered {
            return;
        }
        let head = row.last;
        let rep = self.read_cells(ctx, client, None, self.procs[i], self.read_window(head));
        self.rows[i].audit = Some((rep, head));
    }

    /// Drops every in-flight structure of sender `i` after it was caught
    /// equivocating at `k` — nothing from an equivocator is ever
    /// delivered.
    fn block(&mut self, ctx: &mut Context<'_, Msg>, i: usize, k: u64) {
        let q = self.procs[i];
        ctx.note_with(|| format!("nebcast: {q} equivocated at k={k}"));
        let last = self.rows[i].last;
        self.rows[i] = Row {
            last,
            blocked: Some(k),
            ..Row::new()
        };
    }

    /// Moves the run of [`Stage::Ready`] slots at the head of sender `i`'s
    /// sequence into the delivery queue.
    fn release_ready(&mut self, i: usize) {
        let q = self.procs[i];
        let row = &mut self.rows[i];
        let run = (row.slots.0.iter().zip(row.last..))
            .take_while(|((k, stage), next)| k == next && matches!(stage, Stage::Ready(_)))
            .count();
        if self.depth > 1 && self.deliveries.capacity() == 0 {
            self.deliveries.reserve_exact(self.depth); // a window's release, once
        }
        for (_, stage) in row.slots.0.drain(..run) {
            if let Stage::Ready(slot) = stage {
                self.deliveries.push_back(Delivery { from: q, slot });
            }
        }
        row.last += run as u64;
    }

    /// Step 1's check: `slot` is keyed `k` and validly signed by `q`.
    fn signed_by(&self, q: Pid, k: u64, slot: &NebSlot) -> bool {
        slot.k == k && self.verifier.valid(q, &slot.wire.sign_view(k), &slot.sig)
    }

    /// The audit's verdict on `slot`, `q`'s `k`-th broadcast, from `read`
    /// — rows sorted by register that span the `(k, q)` column, one
    /// register per process's row: whether some process's copy convicts
    /// `q` of equivocating, validly signed by `q` for the same `k` with a
    /// different wire. Compared by value: a copy convicts by what it says,
    /// never by which allocation holds it (every memory may hold its own).
    fn convicted(&self, q: Pid, k: u64, slot: &NebSlot, read: &[(RegId, RegVal)]) -> bool {
        self.procs.iter().any(|&p| {
            let Ok(at) = read.binary_search_by_key(&slot_reg(p, k, q), |(r, _)| *r) else {
                return false;
            };
            matches!(&read[at].1, RegVal::Neb(other)
                if other.k == k && other.wire != slot.wire && self.signed_by(q, k, other))
        })
    }

    /// Whether `q` has been caught equivocating (at which sequence number);
    /// `None` for a process this engine does not know.
    pub fn blocked_at(&self, q: Pid) -> Option<u64> {
        let i = self.procs.iter().position(|&p| p == q)?;
        self.rows[i].blocked
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

    /// The sender whose row issued operation `id`, and which operation
    /// it is; `None` for an operation no row still waits for (the rows of
    /// a blocked sender drop theirs).
    fn route(&self, id: RepId) -> Option<(usize, Op)> {
        self.rows.iter().enumerate().find_map(|(i, row)| {
            let op = match (row.probe, row.audit) {
                (Some((rep, head)), _) if rep == id => Op::Probe { head },
                (_, Some((rep, head))) if rep == id => Op::Audit { head },
                _ => match (row.slots.0.iter()).find(|(_, s)| s.rep() == Some(id))? {
                    (_, Stage::Copy { .. }) => Op::Copies,
                    &(k, _) => Op::Slot { k },
                },
            };
            Some((i, op))
        })
    }

    fn on_rep_event(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        ev: RepEvent<RegVal>,
    ) {
        // A tracked broadcast write: under the fast path its acks surface
        // to the owner, every `k` it carried in order; in pipelined mode
        // the broadcasts held behind it go out now, acked or not.
        if let Some(at) = (self.bcast_writes.iter()).position(|&(id, ..)| id == ev.id) {
            let (_, first, count) = self.bcast_writes.remove(at);
            if self.fast_path && matches!(ev.result, RepResult::WriteOk) {
                self.written.push_back((first, first + count));
            }
            self.send_held(ctx, client);
            return;
        }
        let Some((i, op)) = self.route(ev.id) else {
            return;
        };
        let k = match op {
            // Row-probe completions (pipelined discovery).
            Op::Probe { head } => {
                self.rows[i].probe = None;
                if let RepResult::RangeOk(rows) = ev.result {
                    self.adopt_row(ctx, client, i, head, &rows);
                    self.rep.recycle_rows(rows);
                }
                return; // the next poll tick relaunches the probe
            }
            // Shared column-audit completions.
            Op::Audit { head } => {
                self.rows[i].audit = None;
                self.on_col_audit(ctx, client, i, head, ev.result);
                return;
            }
            Op::Copies => {
                let ok = matches!(ev.result, RepResult::WriteOk);
                self.on_copied(ctx, client, ev.id, ok);
                return;
            }
            Op::Slot { k } => k,
        };
        let q = self.procs[i];
        let stage = self.rows[i].slots.remove(k).expect("routed above");
        match (stage, ev.result) {
            (Stage::Read(_), RepResult::ReadOk(Some(RegVal::Neb(slot)))) => {
                // Step 1 checks: signed by q, keyed k.
                if !self.signed_by(q, k, &slot) {
                    return; // pretend we saw nothing; retry next poll
                }
                self.copy(ctx, client, i, k, slot);
            }
            (Stage::Audit { slot, .. }, RepResult::RangeOk(column)) => {
                let convicted = self.convicted(q, k, &slot, &column);
                self.rep.recycle_rows(column);
                if convicted {
                    // q signed two different messages for k: equivocation,
                    // and nothing from an equivocator is ever delivered.
                    self.block(ctx, i, k);
                    return;
                }
                // The next slot is read at the next poll (the timer
                // cadence of the head-of-line loop).
                self.rows[i].slots.insert(k, Stage::Ready(slot));
                self.release_ready(i);
            }
            // ⊥, junk, or any other failed read, copy or audit: the slot
            // leaves the table, and a later poll starts it again.
            _ => {}
        }
    }

    /// Moves every copy written by operation `id` on, in every row: on
    /// failure out of the table (a later poll starts it again); else, in
    /// pipelined mode, a row's copies join its next shared column audit
    /// together, and at depth 1 the one copy is audited alone.
    fn on_copied(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        id: RepId,
        ok: bool,
    ) {
        let shared = self.depth > 1;
        for i in 0..self.rows.len() {
            let mut joined = false;
            let mut at = 0;
            while let Some((k, stage)) = self.rows[i].slots.0.get(at) {
                let (k, slot) = match stage {
                    Stage::Copy { slot, rep } if *rep == id => (*k, slot.clone()),
                    _ => {
                        at += 1;
                        continue;
                    }
                };
                if !ok {
                    self.rows[i].slots.0.remove(at);
                    continue;
                }
                let next = if shared {
                    joined = true;
                    Stage::Await(slot)
                } else {
                    let rep = self.read_cells(ctx, client, None, self.procs[i], Window::exact(k));
                    Stage::Audit { slot, rep }
                };
                self.rows[i].slots.0[at].1 = next;
                at += 1;
            }
            if joined {
                self.maybe_launch_audit(ctx, client, i);
            }
        }
    }

    /// Resolves a completed shared column audit of sender `i` (issued at
    /// `Last[q] = head`): checks every covered slot's column for a validly
    /// signed conflicting copy, then releases the survivors in sequence
    /// order.
    fn on_col_audit(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        client: &mut MemoryClient<RegVal, Msg>,
        i: usize,
        head: u64,
        result: RepResult<RegVal>,
    ) {
        let q = self.procs[i];
        let RepResult::RangeOk(all) = result else {
            // Audit read failed: the covered slots wait for the next
            // audit, which the next poll issues.
            for (_, stage) in &mut self.rows[i].slots.0 {
                if let Stage::Covered(slot) = stage {
                    *stage = Stage::Await(slot.clone());
                }
            }
            return;
        };
        for at in 0..self.rows[i].slots.0.len() {
            let (k, Stage::Covered(slot)) = &self.rows[i].slots.0[at] else {
                continue;
            };
            let (k, slot) = (*k, slot.clone());
            if self.convicted(q, k, &slot, &all) {
                self.rep.recycle_rows(all);
                self.block(ctx, i, k);
                return;
            }
            self.rows[i].slots.0[at].1 = Stage::Ready(slot);
        }
        self.release_ready(i);
        // The audit read covered the window of q's whole column space,
        // including q's own row — adopt any newly written in-window slots
        // from it directly (audit doubles as discovery).
        let own_row = all.iter().filter(|(reg, _)| {
            let cell = Cell::of(*reg);
            cell.is_self_slot() && cell.row == q
        });
        self.adopt_row(ctx, client, i, head, own_row);
        self.rep.recycle_rows(all);
        // Chain the next round of work for q: the row probe if the
        // focus's pipeline drained, and an audit for any copies that
        // completed while this one was in flight.
        self.launch_attempts(ctx, client, i);
    }

    /// The oldest queued delivery (deliveries come in per-sender
    /// sequence order).
    pub fn next_delivery(&mut self) -> Option<Delivery> {
        self.deliveries.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Act, Scripted};
    use crate::paxos::Dest;
    use crate::trusted::{RbPayload, SetupEvidence};
    use crate::types::Value;
    use rdma_sim::{MemRequest, MemResponse, MemWire};
    use sigsim::SigAuthority;
    use simnet::{Actor, AnyActor, Duration, EventKind, Simulation, Time};
    use std::sync::Mutex;

    /// What moves a [`Tester`]'s focus once it holds.
    type Trigger = Box<dyn Fn(&Tester) -> bool>;

    /// An honest participant: broadcasts its values at start, polls every
    /// delay, records what it delivers and which of its broadcast writes
    /// were acknowledged when (the fast path), broadcasts `then_broadcast`
    /// at its first acknowledgement, posts its batched copies and makes
    /// the focus changes of `then_focus` in order, each once its trigger
    /// holds. It records when it made each, and which slots of the old
    /// focus's row were left waiting for the next shared audit.
    struct Tester {
        engine: NebEngine,
        client: MemoryClient<RegVal, Msg>,
        to_broadcast: Vec<Value>,
        then_broadcast: Vec<Value>,
        delivered: Vec<(Pid, u64, Value)>,
        written: Vec<(Time, u64)>,
        then_focus: VecDeque<(Trigger, Pid)>,
        refocused: Vec<(Time, Vec<u64>)>,
    }

    impl Row {
        /// The sequence numbers of the slots in a stage `is` accepts.
        fn ks(&self, is: impl Fn(&Stage) -> bool) -> Vec<u64> {
            (self.slots.0.iter())
                .filter(|(_, s)| is(s))
                .map(|&(k, _)| k)
                .collect()
        }

        /// Slots with an operation of their own in flight: a read, a copy
        /// or an audit alone.
        fn attempts(&self) -> Vec<u64> {
            self.ks(|s| s.rep().is_some())
        }

        fn awaiting_audit(&self) -> Vec<u64> {
            self.ks(|s| matches!(s, Stage::Await(_)))
        }

        fn ready(&self) -> Vec<u64> {
            self.ks(|s| matches!(s, Stage::Ready(_)))
        }
    }

    fn wire(value: Value) -> TWire {
        let evidence = SetupEvidence::default();
        let payload = RbPayload::Setup { value, evidence };
        TWire {
            dest: Dest::All,
            payload,
            history: Vec::new(),
        }
    }

    impl Tester {
        fn row(&self, q: Pid) -> &Row {
            let i = self.engine.procs.iter().position(|&p| p == q).unwrap();
            &self.engine.rows[i]
        }

        fn after_event(&mut self, ctx: &mut Context<'_, Msg>) {
            while let Some(k) = self.engine.next_written() {
                self.written.push((ctx.now(), k));
            }
            if !self.written.is_empty() {
                for v in std::mem::take(&mut self.then_broadcast) {
                    self.engine.broadcast(ctx, &mut self.client, wire(v));
                }
            }
            while let Some(d) = self.engine.next_delivery() {
                if let RbPayload::Setup { value, .. } = d.slot.wire.payload {
                    self.delivered.push((d.from, d.slot.k, value));
                }
            }
            self.engine.post(ctx, &mut self.client);
            if self
                .then_focus
                .front()
                .is_some_and(|(holds, _)| holds(self))
            {
                let (_, focus) = self.then_focus.pop_front().expect("checked");
                let old = self.engine.focus.map(|q| self.row(q).awaiting_audit());
                self.engine.set_focus(focus);
                self.refocused.push((ctx.now(), old.unwrap_or_default()));
            }
        }

        fn from(&self, q: Pid) -> Vec<(u64, Value)> {
            let from_q = self.delivered.iter().filter(|(f, _, _)| *f == q);
            from_q.map(|&(_, k, v)| (k, v)).collect()
        }
    }

    impl Actor<Msg> for Tester {
        fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
            match ev {
                EventKind::Start => {
                    for v in std::mem::take(&mut self.to_broadcast) {
                        self.engine.broadcast(ctx, &mut self.client, wire(v));
                    }
                    self.engine.poll(ctx, &mut self.client);
                    ctx.set_timer(Duration::from_delays(1), 0);
                }
                EventKind::Timer { .. } => {
                    self.engine.poll(ctx, &mut self.client);
                    ctx.set_timer(Duration::from_delays(1), 0);
                }
                EventKind::Msg {
                    from,
                    msg: Msg::Mem(wire),
                } => {
                    if let Some(c) = self.client.on_wire(ctx, from, wire) {
                        self.engine.on_completion(ctx, &mut self.client, c);
                    }
                }
                _ => {}
            }
            self.after_event(ctx);
        }
    }

    /// What builds process `me` of a cluster: it sees the group, the
    /// memories, every process's signer (a villain signs for its
    /// accomplices) and the verifier.
    type Build<'a> =
        dyn FnMut(Pid, &[Pid], &[ActorId], &[Signer], SigVerifier) -> Box<dyn AnyActor<Msg>> + 'a;

    /// What builds a broadcast memory, from its position among the
    /// memories and the group.
    type BuildMemory<'a> = dyn FnMut(usize, &[Pid]) -> Box<dyn AnyActor<Msg>> + 'a;

    /// A cluster of `n` processes, each built by `build`, and three
    /// broadcast memories.
    fn cluster(n: u32, build: &mut Build<'_>) -> Simulation<Msg> {
        cluster_with(n, build, &mut |_, procs| Box::new(memory_actor(procs)))
    }

    /// [`cluster`] with the three memories built by `memory`.
    fn cluster_with(
        n: u32,
        build: &mut Build<'_>,
        memory: &mut BuildMemory<'_>,
    ) -> Simulation<Msg> {
        let mut sim = Simulation::new(17);
        let procs: Vec<Pid> = (0..n).map(ActorId).collect();
        let mems: Vec<ActorId> = (n..n + 3).map(ActorId).collect();
        let mut auth = SigAuthority::new(5);
        let signers: Vec<Signer> = procs.iter().map(|&p| auth.register(p)).collect();
        for &p in &procs {
            sim.add_boxed(build(p, &procs, &mems, &signers, auth.verifier()));
        }
        for at in 0..mems.len() {
            sim.add_boxed(memory(at, &procs));
        }
        sim
    }

    /// A broadcast memory that naks the first request `refuse` picks out
    /// (by its sender) and serves every other request as the memory it
    /// wraps; one that starts `refused` naks nothing.
    struct RefusingMemory {
        mem: rdma_sim::MemoryActor<RegVal, Msg>,
        refuse: fn(Pid, &MemRequest<RegVal>) -> bool,
        refused: bool,
    }

    impl Actor<Msg> for RefusingMemory {
        fn on_event(&mut self, ctx: &mut Context<'_, Msg>, ev: EventKind<Msg>) {
            if let EventKind::Msg {
                from,
                msg: Msg::Mem(MemWire::Req { op, req }),
            } = &ev
            {
                if !self.refused && (self.refuse)(*from, req) {
                    self.refused = true;
                    let resp = MemWire::Resp {
                        op: *op,
                        resp: MemResponse::Nak,
                    };
                    ctx.send(*from, Msg::Mem(resp));
                    return;
                }
            }
            self.mem.on_event(ctx, ev);
        }
    }

    /// Whether `req` is a shared column audit of `q`: a range read of
    /// `q`'s columns over more than one `k`.
    fn shared_audit_of(q: Pid, req: &MemRequest<RegVal>) -> bool {
        let MemRequest::ReadRange {
            within:
                RegionSpec {
                    a: None,
                    b: Some(w),
                    c,
                    ..
                },
            ..
        } = req
        else {
            return false;
        };
        *c == Some(q.0 as u64) && *w != Window::exact(w.start())
    }

    fn tester(
        me: Pid,
        procs: &[Pid],
        mems: &[ActorId],
        signer: &Signer,
        verifier: SigVerifier,
    ) -> Tester {
        let engine = NebEngine::new(me, procs.to_vec(), mems.to_vec(), signer.clone(), verifier);
        Tester {
            engine,
            client: MemoryClient::new(),
            to_broadcast: Vec::new(),
            then_broadcast: Vec::new(),
            delivered: Vec::new(),
            written: Vec::new(),
            then_focus: VecDeque::new(),
            refocused: Vec::new(),
        }
    }

    /// What `reader` asked of one memory about `q`'s slots, by `k`: its
    /// single-slot reads of `slots[q, k, q]`, its copies into
    /// `slots[reader, k, q]` (alone or in a batch) and its single-column
    /// audits of `(k, q)`; and when it sent each copy and each range probe
    /// of `q`'s row.
    #[derive(Default)]
    struct SlotOps {
        reads: BTreeMap<u64, usize>,
        copies: BTreeMap<u64, usize>,
        audits: BTreeMap<u64, usize>,
        copies_sent: Vec<(Time, u64)>,
        probes: Vec<Time>,
    }

    impl SlotOps {
        fn copied(&mut self, at: Time, k: u64) {
            *self.copies.entry(k).or_default() += 1;
            self.copies_sent.push((at, k));
        }
    }

    /// Counts [`SlotOps`] from the requests `reader` sends to `mem`: each
    /// replicated operation sends one request to every memory.
    fn count_slot_ops(
        sim: &mut Simulation<Msg>,
        reader: Pid,
        q: Pid,
        mem: ActorId,
    ) -> Arc<Mutex<SlotOps>> {
        let ops = Arc::new(Mutex::new(SlotOps::default()));
        let sink = Arc::clone(&ops);
        sim.set_delay_hook(Box::new(move |at, from, to, msg| {
            let Msg::Mem(MemWire::Req { req, .. }) = msg else {
                return None;
            };
            if from != reader || to != mem {
                return None;
            }
            let mut ops = sink.lock().unwrap();
            let copy = |reg: &RegId| *reg == slot_reg(reader, Cell::of(*reg).k, q);
            match req {
                MemRequest::Read { reg, .. } if *reg == slot_reg(q, Cell::of(*reg).k, q) => {
                    *ops.reads.entry(Cell::of(*reg).k).or_default() += 1;
                }
                MemRequest::Write { reg, .. } if copy(reg) => ops.copied(at, Cell::of(*reg).k),
                MemRequest::WriteMany { writes, .. } => {
                    for (reg, _) in writes.iter().filter(|(reg, _)| copy(reg)) {
                        ops.copied(at, Cell::of(*reg).k);
                    }
                }
                MemRequest::ReadRange {
                    within:
                        RegionSpec {
                            a: None,
                            b: Some(w),
                            c,
                            ..
                        },
                    ..
                } if *c == Some(q.0 as u64) && *w == Window::exact(w.start()) => {
                    *ops.audits.entry(w.start()).or_default() += 1;
                }
                MemRequest::ReadRange {
                    within: RegionSpec { a, c, .. },
                    ..
                } if *a == Some(Window::exact(q.0 as u64)) && *c == Some(q.0 as u64) => {
                    ops.probes.push(at)
                }
                _ => {}
            }
            None
        }));
        ops
    }

    /// Copies waiting for the focused sender's next shared audit — as
    /// they are once an audit that covered them fails: here two memories
    /// of three nak p2's first shared audit of p0 — are left behind when
    /// the focus moves to p1. They still get their audit and every slot is
    /// delivered once, in order, with no one blocked; a slot waiting for
    /// the shared audit at the refocus is neither read, copied nor audited
    /// alone again, and no slot is left behind below `Last[q]`. The focus
    /// comes back to p0 once p1's two broadcasts are delivered, and p0's
    /// row is never read one slot at a time: a pipelined engine reads no
    /// row but its focus's.
    #[test]
    fn a_focus_change_with_copies_waiting_for_their_audit_delivers_everything_in_order() {
        let (p0, p1, p2) = (ActorId(0), ActorId(1), ActorId(2));
        let values = |base: u64, n: u64| (1..=n).map(|k| Value(base + k)).collect::<Vec<_>>();
        let mut build = |me, procs: &[Pid], mems: &[ActorId], signers: &[Signer], verifier| {
            let mut t = tester(me, procs, mems, &signers[me.0 as usize], verifier);
            if me == p0 {
                t.to_broadcast = values(100, 6);
            } else if me == p1 {
                t.to_broadcast = values(200, 2);
            } else {
                t.engine.set_pipeline_depth(4);
                t.engine.set_focus(p0);
                let waiting: Trigger = Box::new(move |t| !t.row(p0).awaiting_audit().is_empty());
                t.then_focus.push_back((waiting, p1));
                let back: Trigger = Box::new(move |t| t.from(p1).len() == 2);
                t.then_focus.push_back((back, p0));
            }
            Box::new(t) as Box<dyn AnyActor<Msg>>
        };
        // p2's first shared audit of p0.
        let refuse = |from, req: &_| from == ActorId(2) && shared_audit_of(ActorId(0), req);
        let mut sim = cluster_with(3, &mut build, &mut |at, procs| {
            Box::new(RefusingMemory {
                mem: memory_actor(procs),
                refuse,
                refused: at == 2,
            })
        });
        let ops = count_slot_ops(&mut sim, p2, p0, ActorId(3));
        sim.run_until(Time::from_delays(400), |s| {
            let t = s.actor_as::<Tester>(p2).unwrap();
            t.from(p0).len() == 6 && t.from(p1).len() == 2
        });
        let t = sim.actor_as::<Tester>(p2).unwrap();
        let Some((_, shared_at_refocus)) = t.refocused.first() else {
            panic!("the focus never moved");
        };
        let expect = |base, n| (1..=n).zip(values(base, n)).collect::<Vec<_>>();
        assert_eq!(t.from(p0), expect(100, 6));
        assert_eq!(t.from(p1), expect(200, 2));
        assert!(procs_unblocked(&t.engine));
        assert!(t.row(p0).awaiting_audit().is_empty() && t.row(p0).audit.is_none());
        for (&q, row) in t.engine.procs.iter().zip(&t.engine.rows) {
            let below = row.ks(|_| true).into_iter().filter(|&k| k < row.last);
            assert_eq!(
                below.collect::<Vec<_>>(),
                [],
                "{q}'s row at Last = {}",
                row.last
            );
        }
        // Every slot of p0's was copied once; those waiting for the
        // shared audit at the refocus were read by the row probe and
        // audited by a shared audit, never again one by one.
        let ops = ops.lock().unwrap();
        let once: BTreeMap<u64, usize> = (1..=6).map(|k| (k, 1)).collect();
        assert_eq!(ops.copies, once);
        for k in shared_at_refocus {
            let again = (ops.reads.get(k), ops.audits.get(k));
            assert_eq!(again, (None, None), "k = {k}");
        }
        assert_eq!(t.refocused.len(), 2, "the focus never came back");
        assert_eq!(ops.reads, BTreeMap::new(), "p0's slots read one by one");
    }

    /// A pipelined reader's batch of copies torn by a memory crash — it
    /// lands on one memory of three, which then crashes, while the other
    /// two receive it 1 000 delays later — is a write no majority
    /// acknowledged: none of its slots is audited or delivered until the
    /// other two memories hold it, and then all of them are, in order.
    #[test]
    fn a_multi_slot_copy_torn_by_a_memory_crash_is_never_delivered_from_a_minority() {
        let (p0, p2) = (ActorId(0), ActorId(2));
        let (mem_a, slow) = (ActorId(3), [ActorId(4), ActorId(5)]);
        let values: Vec<Value> = (1..=4).map(|k| Value(100 + k)).collect();
        let mut sim = cluster(3, &mut |me, procs, mems, signers, verifier| {
            let mut t = tester(me, procs, mems, &signers[me.0 as usize], verifier);
            if me == p0 {
                t.to_broadcast = values.clone();
            } else if me == p2 {
                t.engine.set_pipeline_depth(4);
                t.engine.set_focus(p0);
            }
            Box::new(t)
        });
        // The first batch of two or more of p2's copies of p0's slots:
        // its first register, once seen.
        let torn: Arc<Mutex<Option<RegId>>> = Arc::default();
        let seen = Arc::clone(&torn);
        sim.set_delay_hook(Box::new(move |_, from, to, msg| {
            let Msg::Mem(MemWire::Req {
                req: MemRequest::WriteMany { writes, .. },
                ..
            }) = msg
            else {
                return None;
            };
            let copy = |reg: &RegId| {
                let cell = Cell::of(*reg);
                !cell.receipt && cell.row == p2 && cell.sender == p0
            };
            if from != p2 || writes.len() < 2 || !writes.iter().all(|(r, _)| copy(r)) {
                return None;
            }
            let first = *seen.lock().unwrap().get_or_insert(writes[0].0);
            (first == writes[0].0 && slow.contains(&to)).then(|| Duration::from_delays(1000))
        }));
        sim.run_until(Time::from_delays(200), |s| {
            let first = *torn.lock().unwrap();
            let mem = s
                .actor_as::<rdma_sim::MemoryActor<RegVal, Msg>>(mem_a)
                .unwrap();
            first.is_some_and(|r| mem.register(r).is_some())
        });
        let first = torn.lock().unwrap().expect("p2 batched two copies or more");
        sim.crash_at(mem_a, sim.now());
        let k0 = Cell::of(first).k;
        let copied_at = |s: &Simulation<Msg>, mem: ActorId| {
            let mem = s
                .actor_as::<rdma_sim::MemoryActor<RegVal, Msg>>(mem)
                .unwrap();
            mem.register(first).is_some()
        };
        // Torn: the copy is at one memory of three, and stays so.
        sim.run_until(Time::from_delays(900), |_| false);
        assert!(copied_at(&sim, mem_a) && !slow.iter().any(|&m| copied_at(&sim, m)));
        let t = sim.actor_as::<Tester>(p2).unwrap();
        assert!(
            t.from(p0).iter().all(|&(k, _)| k < k0),
            "delivered from a minority's copy: {:?}",
            t.from(p0)
        );
        assert_eq!(t.row(p0).last, k0);
        // Once the other two memories hold the batch, everything is
        // delivered, in order.
        sim.run_until(Time::from_delays(1200), |s| {
            s.actor_as::<Tester>(p2).unwrap().from(p0).len() == 4
        });
        let t = sim.actor_as::<Tester>(p2).unwrap();
        assert!(sim.now() >= Time::from_delays(1000));
        assert_eq!(t.from(p0), (1..=4).zip(values).collect::<Vec<_>>());
        assert!(procs_unblocked(&t.engine));
    }

    /// One request a process sent a memory, by the broadcast cells it
    /// names.
    #[derive(Debug, PartialEq)]
    enum Sent {
        Write(Cell),
        WriteMany(Vec<Cell>),
        Read(Cell),
        Range,
    }

    /// Logs every request `from` sends, per memory, in the order each
    /// memory is sent them.
    fn log_requests(
        sim: &mut Simulation<Msg>,
        from: Pid,
    ) -> Arc<Mutex<BTreeMap<ActorId, Vec<Sent>>>> {
        let log = Arc::new(Mutex::new(BTreeMap::new()));
        let sink = Arc::clone(&log);
        sim.set_delay_hook(Box::new(move |_, sender, to, msg| {
            let Msg::Mem(MemWire::Req { req, .. }) = msg else {
                return None;
            };
            if sender == from {
                let sent = match req {
                    MemRequest::Write { reg, .. } => Sent::Write(Cell::of(*reg)),
                    MemRequest::WriteMany { writes, .. } => {
                        Sent::WriteMany(writes.iter().map(|(reg, _)| Cell::of(*reg)).collect())
                    }
                    MemRequest::Read { reg, .. } => Sent::Read(Cell::of(*reg)),
                    _ => Sent::Range,
                };
                sink.lock()
                    .unwrap()
                    .entry(to)
                    .or_insert_with(Vec::new)
                    .push(sent);
            }
            None
        }));
        log
    }

    /// `p`'s `k`-th broadcast slot.
    fn own(p: Pid, k: u64) -> Cell {
        Cell::of(slot_reg(p, k, p))
    }

    /// The broadcast writes among `sent`: the requests that name `p`'s
    /// own slots.
    fn broadcasts(p: Pid, sent: &[Sent]) -> Vec<&Sent> {
        let mine = |cell: &Cell| cell.is_self_slot() && cell.row == p;
        (sent.iter())
            .filter(|s| match s {
                Sent::Write(cell) => mine(cell),
                Sent::WriteMany(cells) => cells.iter().all(mine),
                _ => false,
            })
            .collect()
    }

    /// Three processes and three memories: p0 broadcasts `values` at
    /// start at pipeline `depth`, under the fast path, focused on itself;
    /// p1 and p2 follow p0's row at depth 4.
    fn leader_cluster(depth: usize, values: Vec<Value>) -> Simulation<Msg> {
        cluster(3, &mut |me, procs, mems, signers, verifier| {
            let mut t = tester(me, procs, mems, &signers[me.0 as usize], verifier);
            t.engine.set_focus(ActorId(0));
            if me == ActorId(0) {
                t.engine.set_pipeline_depth(depth);
                t.engine.set_fast_path(true);
                t.to_broadcast = values.clone();
            } else {
                t.engine.set_pipeline_depth(4);
            }
            Box::new(t)
        })
    }

    fn values(n: u64) -> Vec<Value> {
        (1..=n).map(|k| Value(100 + k)).collect()
    }

    /// A pipelined broadcaster whose first broadcast write is in flight
    /// holds the next ones and sends them, when it completes, as one
    /// `WriteMany` per memory; every follower delivers all of them, in
    /// order.
    #[test]
    fn broadcasts_held_behind_a_write_in_flight_go_out_as_one_write_per_memory() {
        let p0 = ActorId(0);
        let mut sim = leader_cluster(4, values(6));
        let log = log_requests(&mut sim, p0);
        sim.run_until(Time::from_delays(200), |s| {
            (1..3).all(|p| s.actor_as::<Tester>(ActorId(p)).unwrap().from(p0).len() == 6)
        });
        let expect: Vec<(u64, Value)> = (1..=6).zip(values(6)).collect();
        for p in 1..3 {
            assert_eq!(sim.actor_as::<Tester>(ActorId(p)).unwrap().from(p0), expect);
        }
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 3, "p0 wrote to every memory");
        for (mem, sent) in log.iter() {
            let batch = Sent::WriteMany((2..=6).map(|k| own(p0, k)).collect());
            assert_eq!(
                broadcasts(p0, sent),
                [&Sent::Write(own(p0, 1)), &batch],
                "memory {mem}"
            );
        }
    }

    /// Under the fast path, the ack of a write that carried several
    /// broadcasts surfaces every one of them at once, in `k` order.
    #[test]
    fn one_ack_surfaces_every_k_its_write_carried_in_order() {
        let mut sim = leader_cluster(4, values(6));
        sim.run_until(Time::from_delays(200), |s| {
            s.actor_as::<Tester>(ActorId(0)).unwrap().written.len() == 6
        });
        let written = &sim.actor_as::<Tester>(ActorId(0)).unwrap().written;
        let ks: Vec<u64> = written.iter().map(|&(_, k)| k).collect();
        assert_eq!(ks, [1, 2, 3, 4, 5, 6]);
        let batch_acked = written[1].0;
        assert!(written[0].0 < batch_acked);
        assert!(
            written[1..].iter().all(|&(at, _)| at == batch_acked),
            "{written:?}"
        );
    }

    /// p2 of [`two_senders`].
    fn tester_of(sim: &Simulation<Msg>) -> &Tester {
        sim.actor_as::<Tester>(ActorId(2)).unwrap()
    }

    /// Three processes and three memories: p0 and p1 broadcast six
    /// values each at start; p2 follows p0's row at depth 4 and moves its
    /// focus to p1 once `refocus` holds (never, if `None`). The counts are
    /// p2's requests about p1's row at one memory.
    fn two_senders(refocus: Option<Trigger>) -> (Simulation<Msg>, Arc<Mutex<SlotOps>>) {
        let mut refocus = refocus.map(|holds| (holds, ActorId(1)));
        let mut sim = cluster(3, &mut |me, procs, mems, signers, verifier| {
            let mut t = tester(me, procs, mems, &signers[me.0 as usize], verifier);
            if me == ActorId(2) {
                t.engine.set_pipeline_depth(4);
                t.engine.set_focus(ActorId(0));
                t.then_focus.extend(refocus.take());
            } else {
                t.to_broadcast = (1..=6)
                    .map(|k| Value(100 * (me.0 as u64 + 1) + k))
                    .collect();
            }
            Box::new(t)
        });
        let ops = count_slot_ops(&mut sim, ActorId(2), ActorId(1), ActorId(3));
        (sim, ops)
    }

    /// A pipelined engine with a focus reads no other sender's row, even
    /// while that sender broadcasts: p2 delivers p0's six broadcasts and
    /// sends no request about p1's, which are all written.
    #[test]
    fn a_focused_pipelined_engine_reads_no_other_senders_row() {
        let (p0, p1) = (ActorId(0), ActorId(1));
        let (mut sim, ops) = two_senders(None);
        sim.run_until(Time::from_delays(100), |_| false);
        let t = tester_of(&sim);
        let expect: Vec<(u64, Value)> = (1..=6).map(|k| (k, Value(100 + k))).collect();
        assert_eq!(t.from(p0), expect);
        assert_eq!(t.from(p1), []);
        let mem = sim
            .actor_as::<rdma_sim::MemoryActor<RegVal, Msg>>(ActorId(3))
            .unwrap();
        assert!((1..=6).all(|k| mem.register(slot_reg(p1, k, p1)).is_some()));
        let ops = ops.lock().unwrap();
        assert_eq!(ops.reads, BTreeMap::new(), "p1's head slots read");
        assert_eq!(ops.probes, [], "p1's row probed");
        assert!(ops.copies.is_empty() && ops.audits.is_empty());
    }

    /// A refocus wakes the new focus's row at once: p1's row, never read
    /// before, is probed by the next poll after the focus moves to p1, and
    /// every broadcast of p1's is then copied and delivered once, in
    /// order.
    #[test]
    fn a_refocus_reads_the_new_focuss_row_at_the_next_poll_and_delivers_it_all() {
        let (p0, p1) = (ActorId(0), ActorId(1));
        let (mut sim, ops) = two_senders(Some(Box::new(move |t| t.from(p0).len() == 6)));
        sim.run_until(Time::from_delays(200), |s| {
            !tester_of(s).refocused.is_empty()
        });
        let [(refocused, _)] = tester_of(&sim).refocused[..] else {
            panic!("never refocused");
        };
        assert_eq!(ops.lock().unwrap().probes, [], "p1's row probed before");
        // The poll after the refocus, one delay later at most.
        sim.run_until(refocused + Duration::from_delays(1), |_| false);
        assert!(
            tester_of(&sim).row(p1).probe.is_some(),
            "p1's row not probed"
        );
        sim.run_until(Time::from_delays(200), |s| tester_of(s).from(p1).len() == 6);
        let t = tester_of(&sim);
        let expect = |base| (1..=6).map(|k| (k, Value(base + k))).collect::<Vec<_>>();
        assert_eq!(t.from(p0), expect(100));
        assert_eq!(t.from(p1), expect(200));
        assert_eq!(t.refocused.len(), 1);
        let ops = ops.lock().unwrap();
        let once: BTreeMap<u64, usize> = (1..=6).map(|k| (k, 1)).collect();
        assert_eq!(ops.copies, once);
        assert_eq!(ops.reads, BTreeMap::new());
    }

    /// A broadcast batch two of three memories nak fails: none of its
    /// `k`s surfaces as written, and the broadcasts held behind it still
    /// go out — as one write — and surface when acknowledged.
    #[test]
    fn a_batch_a_majority_naks_surfaces_none_of_its_ks_and_what_it_held_back_still_goes_out() {
        let p0 = ActorId(0);
        let mut sim = cluster_with(
            3,
            &mut |me, procs, mems, signers, verifier| {
                let mut t = tester(me, procs, mems, &signers[me.0 as usize], verifier);
                if me == p0 {
                    t.engine.set_pipeline_depth(4);
                    t.engine.set_fast_path(true);
                    t.to_broadcast = values(3);
                    t.then_broadcast = vec![Value(201), Value(202)];
                }
                Box::new(t)
            },
            // p0's first broadcast batch, at two memories of three.
            &mut |at, procs| {
                let refuse = |from, req: &MemRequest<RegVal>| {
                    from == ActorId(0) && matches!(req, MemRequest::WriteMany { .. })
                };
                Box::new(RefusingMemory {
                    mem: memory_actor(procs),
                    refuse,
                    refused: at == 2,
                })
            },
        );
        let log = log_requests(&mut sim, p0);
        sim.run_until(Time::from_delays(200), |s| {
            s.actor_as::<Tester>(p0).unwrap().written.len() == 3
        });
        let t = sim.actor_as::<Tester>(p0).unwrap();
        let ks: Vec<u64> = t.written.iter().map(|&(_, k)| k).collect();
        assert_eq!(ks, [1, 4, 5]);
        for (mem, sent) in log.lock().unwrap().iter() {
            let batch = |ks: [u64; 2]| Sent::WriteMany(ks.map(|k| own(p0, k)).to_vec());
            assert_eq!(
                broadcasts(p0, sent),
                [&Sent::Write(own(p0, 1)), &batch([2, 3]), &batch([4, 5])],
                "memory {mem}"
            );
        }
    }

    /// At depth 1 a broadcast goes out the moment it is issued, each as
    /// its own write, whatever is in flight.
    #[test]
    fn at_depth_1_every_broadcast_is_its_own_write() {
        let p0 = ActorId(0);
        let mut sim = leader_cluster(1, values(6));
        let log = log_requests(&mut sim, p0);
        sim.run_until(Time::from_delays(200), |s| {
            s.actor_as::<Tester>(p0).unwrap().written.len() == 6
        });
        for (mem, sent) in log.lock().unwrap().iter() {
            let writes: Vec<Sent> = (1..=6).map(|k| Sent::Write(own(p0, k))).collect();
            assert_eq!(
                broadcasts(p0, sent),
                writes.iter().collect::<Vec<_>>(),
                "memory {mem}"
            );
        }
    }

    fn procs_unblocked(engine: &NebEngine) -> bool {
        engine.rows.iter().all(|row| row.blocked.is_none())
    }

    /// An equivocator caught in the middle of its pipelined window loses
    /// its whole row — and only its row: another sender's attempt in
    /// flight at that instant goes on, and all its slots are delivered.
    /// The focus moves from p0 to p3 while p0's copy of k = 2 is in
    /// flight, so p3's row is read beside p0's copies, which p0's shared
    /// audit covers. A row that lost the focus adopts nothing: p2 sends no
    /// copy of a p0 slot after the refocus.
    #[test]
    fn an_equivocator_caught_mid_window_purges_only_its_own_row() {
        let (p0, p1, p2, p3) = (ActorId(0), ActorId(1), ActorId(2), ActorId(3));
        let mut sim = cluster(4, &mut |me, procs, mems, signers, verifier| {
            // p0 broadcasts k = 1, 2, 3 identically on every memory, and
            // signs a second value for k = 2, which its accomplice p1
            // plants as its audit copy.
            let signed = |k, v| RegVal::Neb(NebSlot::signed(&signers[0], k, wire(Value(v))));
            if me == p0 {
                let row = row_region(p0);
                let writes = (1..=3)
                    .flat_map(|k| Act::write_all(mems, row, slot_reg(p0, k, p0), signed(k, k)));
                return Box::new(Scripted::new(
                    "Equivocator",
                    p0,
                    writes.collect(),
                    Vec::new(),
                ));
            }
            if me == p1 {
                let copy = Act::write_all(mems, row_region(p1), slot_reg(p1, 2, p0), signed(2, 99));
                return Box::new(Scripted::new("Accomplice", p1, copy, Vec::new()));
            }
            let mut t = tester(me, procs, mems, &signers[me.0 as usize], verifier);
            if me == p2 {
                t.engine.set_pipeline_depth(4);
                t.engine.set_focus(p0);
                let copying: Trigger = Box::new(move |t| t.row(p0).attempts().contains(&2));
                t.then_focus.push_back((copying, p3));
            } else {
                t.to_broadcast = (1..=6).map(|k| Value(300 + k)).collect();
            }
            Box::new(t)
        });
        let ops = count_slot_ops(&mut sim, p2, p0, ActorId(4));
        sim.run_until(Time::from_delays(400), |s| {
            let t = s.actor_as::<Tester>(p2).unwrap();
            t.engine.blocked_at(p0).is_some()
        });
        let t = sim.actor_as::<Tester>(p2).unwrap();
        assert_eq!(t.engine.blocked_at(p0), Some(2));
        let [(refocused, _)] = t.refocused[..] else {
            panic!("the focus never moved to p3");
        };
        // p0's copies, by when p2 sent them: none after the refocus, and
        // none audited alone.
        let ops = ops.lock().unwrap();
        let copies = &ops.copies_sent;
        assert!(copies.iter().any(|&(_, k)| k == 2), "{copies:?}");
        let late = copies.iter().filter(|&&(at, _)| at > refocused);
        assert_eq!(late.count(), 0, "refocused at {refocused:?}: {copies:?}");
        assert_eq!(ops.audits, BTreeMap::new(), "p0's slots audited alone");
        drop(ops);
        let purged = t.row(p0);
        assert!(purged.attempts().is_empty() && purged.ready().is_empty());
        assert!(
            purged.awaiting_audit().is_empty() && purged.probe.is_none() && purged.audit.is_none()
        );
        // The instant p0 was blocked, p3's row had an attempt in flight.
        let in_flight = t.row(p3).attempts();
        assert!(
            !in_flight.is_empty(),
            "p3's row was idle when p0 was caught"
        );
        // Nothing of p0's past k = 1 was delivered, and p3's row goes on.
        assert!(t.from(p0).iter().all(|&(k, _)| k == 1), "{:?}", t.from(p0));
        sim.run_until(Time::from_delays(400), |s| {
            s.actor_as::<Tester>(p2).unwrap().from(p3).len() == 6
        });
        let t = sim.actor_as::<Tester>(p2).unwrap();
        let expect: Vec<(u64, Value)> = (1..=6).map(|k| (k, Value(300 + k))).collect();
        assert_eq!(t.from(p3), expect);
        assert_eq!(t.engine.blocked_at(p3), None);
        assert_eq!(t.engine.blocked_at(p0), Some(2));
        // A process outside the broadcast group was never blocked.
        assert_eq!(t.engine.blocked_at(ActorId(99)), None);
    }

    /// A row that loses the focus adopts nothing: p2 moves its focus from
    /// p0 to p1 while its first probe of p0's row is in flight, and sends
    /// no copy of any of p0's six broadcasts, although that probe finds
    /// them; p1's are delivered, in order.
    #[test]
    fn a_row_that_lost_the_focus_adopts_nothing_its_probe_finds() {
        let (p0, p1, p2) = (ActorId(0), ActorId(1), ActorId(2));
        let mut sim = cluster(3, &mut |me, procs, mems, signers, verifier| {
            let mut t = tester(me, procs, mems, &signers[me.0 as usize], verifier);
            if me == p2 {
                t.engine.set_pipeline_depth(4);
                t.engine.set_focus(p0);
                let probing: Trigger = Box::new(move |t| t.row(p0).probe.is_some());
                t.then_focus.push_back((probing, p1));
            } else {
                t.to_broadcast = (1..=6)
                    .map(|k| Value(100 * (me.0 as u64 + 1) + k))
                    .collect();
            }
            Box::new(t)
        });
        let ops = count_slot_ops(&mut sim, p2, p0, ActorId(3));
        sim.run_until(Time::from_delays(200), |s| tester_of(s).from(p1).len() == 6);
        let t = tester_of(&sim);
        assert_eq!(t.refocused.len(), 1);
        assert_eq!(t.from(p0), []);
        let expect: Vec<(u64, Value)> = (1..=6).map(|k| (k, Value(200 + k))).collect();
        assert_eq!(t.from(p1), expect);
        let ops = ops.lock().unwrap();
        assert_eq!(ops.probes.len(), 1, "p0's row probed after the refocus");
        assert_eq!(ops.copies_sent, [], "p0's slots copied after the refocus");
        assert!(ops.reads.is_empty() && ops.audits.is_empty());
    }
}
