//! Byzantine-mode state machine replication over non-equivocating
//! broadcast.
//!
//! [`NebLog`] is the Byzantine-mode [`Engine`] under
//! [`ByzSmrNode`]: the same replica shell as crash mode (batching,
//! session dedup, observers, migration snapshots — the sharded service
//! cannot tell the two apart), but the *decision* path runs through the
//! paper's headline Byzantine machinery instead of crash PMP:
//!
//! * The leader of the current epoch **broadcasts** each batch of log
//!   entries through [`crate::nebcast`] (Algorithm 2): one signed
//!   [`RbPayload::LogEntries`] wire per batch, written to the leader's
//!   SWMR row on every memory. Non-equivocation confines a Byzantine
//!   leader to crash behaviour per sequence number — it cannot make two
//!   correct replicas deliver different values for the same broadcast.
//! * Replicas **settle only what they deliver**, and only from the
//!   replica Ω currently designates leader; deliveries from deposed or
//!   not-yet-announced leaders are parked (and replayed if Ω later
//!   confirms the sender). There is no replica-to-replica `Decided`
//!   traffic to trust: the broadcast *is* the log. Settled deliveries
//!   are acknowledged with [`crate::nebcast::receipt_reg`] receipts
//!   ([`crate::nebcast::NebEngine::acknowledge`]) so an *accepted* value
//!   is durably distinguishable from a merely-written (or merely parked)
//!   one.
//! * A replica promoted by Ω runs a **takeover scan**: one replicated
//!   range read of the whole broadcast space (completing at a memory
//!   majority, so it intersects every receipt and audit-copy majority),
//!   then adopts, per instance, the validly-signed candidate preferring
//!   *receipted* wires (those some correct process delivered), breaking
//!   remaining ties by (highest epoch, then lowest sequence number and
//!   value — a live deposed leader's own settle must win). Adopted values
//!   are re-broadcast under the new leader's epoch before fresh commands
//!   continue, so a command the old leader committed anywhere survives.
//!
//! The leader learns commitment the same way followers do — by
//! delivering its own broadcast — so a batch costs one broadcast write
//! (2 delays) plus one delivery (read + copy + audit ≈ 6 delays):
//! Byzantine mode trades the crash protocol's 2-delay commits for
//! footnote-2's broadcast latency, which is exactly the paper's price for
//! tolerating `f` Byzantine replicas with only `n ≥ 2f + 1`.
//!
//! # Pipelined broadcasts and the speculative fast path
//!
//! Nothing in Algorithm 2 forces the leader to stall on that ≈6-delay
//! self-delivery before broadcasting again — sequence numbers already
//! totally order its wires. [`ByzSmrNode::with_pipeline_window`] lets the
//! leader keep up to `W` broadcasts in flight, one pipeline slot per
//! sequence number (broadcast-written → self-delivered → retired), with
//! slots *retired strictly in order* so the dense log prefix, workload
//! cursor and session dedup behave exactly as the one-slot protocol; the
//! broadcast engine probes the leader's row the same `W` slots ahead on
//! every replica, so follower deliveries (and their receipts) pipeline
//! too. `W = 1` is bit-identical to the classic stall-and-wait loop.
//!
//! [`ByzSmrNode::with_fast_path`] additionally lets the leader settle
//! its own batch at the broadcast *write ack* (2 delays) instead of its
//! self-delivery (≈6): sound because the leader's self-delivery only
//! audits the leader against itself — its copy target is the broadcast
//! register, and a correct leader never equivocates against itself —
//! while *commitment* evidence never came from the leader's say-so in
//! the first place: the router's `f + 1` distinct-report quorum still
//! requires a correct follower's genuine audited delivery, follower
//! receipts still carry all takeover durability, and every follower
//! still runs the full read + copy + audit path. A Byzantine leader
//! gains nothing: speculating on its own batch only changes what *it*
//! claims, and its claims were never sufficient. On demotion or takeover
//! the speculative slots are discarded exactly like conservative
//! unretired slots (the scan re-adopts from receipts), so every
//! adversary drill runs unchanged.
//!
//! In a pipeline the broadcast engine keeps one broadcast write in flight
//! and sends the broadcasts issued meanwhile as one write when it
//! completes ([`crate::nebcast`]'s group commit), so a write may carry
//! several batches, and its one ack settles every batch it carried, in
//! broadcast order.
//!
//! # Modeled threat
//!
//! The adversaries this node is hardened (and tested) against are the
//! ones the sharded scenarios inject ([`crate::adversary`]): **silent**
//! replicas (pure omission — the residual power non-equivocation leaves),
//! **equivocating leaders** (split or rewritten broadcast slots,
//! fabricated commit notifications — suppressed by the audit and by the
//! router's `f + 1` confirmation quorum), and **receipt-forging
//! followers** ([`crate::adversary::Scripted::receipt_forger`] — a delivery receipt
//! for a wire the claimed broadcaster never sent, signed by a colluding
//! leader). The takeover scan closes the latter with a *provenance
//! check*: a receipt is credited only when the claimed broadcaster's own
//! self-slot — the one register in its exclusive-writer row nobody else
//! can touch — holds exactly the receipted slot; receipts a sender wrote
//! for its own broadcasts are ignored outright, and provenance failures
//! are demoted to unreceipted candidates and counted
//! ([`ReplicaState::receipts_rejected`]).
//!
//! A fourth one needs no forgery at all: a **far-future leader**
//! ([`crate::adversary::Scripted::far_future_leader`]) signs one `LogEntries` wire
//! whose `first` is astronomically large. It equivocated nothing, so the
//! broadcast audit passes and every follower delivers it; taken at face
//! value it would size the log (and a successor's dense recovery plan) by
//! an attacker-chosen number. The protocol's own shape closes it — **a
//! correct leader's wires are dense and delivered in per-sender order**,
//! so a genuine batch never starts beyond the settled frontier of the
//! replica settling it (`first ≤ settled_top()`), and no instance a dense
//! log can reach lies beyond the number of values a takeover scan
//! returned. Batches outside those bounds are ignored — no receipt, no
//! settle, no allocation — and counted ([`ReplicaState::entries_rejected`]).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use rdma_sim::{Completion, RegionSpec};
use sigsim::{SigVerifier, Signer};
use simnet::{ActorId, Context, Duration};
use swmr::{RepEngine, RepId, RepResult};

use super::{ByzSmrNode, Engine, Replica, ReplicaState, Round, Shell};
use crate::nebcast::{self, Cell, NebEngine};
use crate::paxos::Dest;
use crate::spans::STAGE_DELIVER;
use crate::trusted::{RbPayload, TWire};
use crate::types::{Msg, Pid, RegVal, Value};

/// The broadcast wire shape of one replicated-log batch: `values[j]`
/// proposed for instance `first + j` under `epoch`. One constructor for
/// the protocol, the adversaries, and the tests, so the signed shape can
/// never drift apart between them.
pub(crate) fn log_entries_wire(first: u64, epoch: u64, values: Arc<[Value]>) -> TWire {
    TWire {
        dest: Dest::All,
        payload: RbPayload::LogEntries {
            first,
            epoch,
            values,
        },
        history: Vec::new(),
    }
}

/// One candidate value for an instance, collected by the takeover scan.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    /// Whether some process other than the broadcaster wrote a delivery
    /// receipt for the wire carrying this value.
    receipted: bool,
    epoch: u64,
    k: u64,
    value: Value,
}

impl Candidate {
    /// Adoption preference, minimized: receipted wires (delivered by some
    /// correct process) beat unreceipted ones; then the **highest** epoch
    /// (Paxos-style — a later correct leader may have settled its own
    /// proposal via self-delivery, whose self-receipt the scan rightly
    /// ignores, so its value must outrank a dead predecessor's leftover);
    /// within an epoch the earliest sequence number (matching followers'
    /// FIFO settle order), then the lowest value.
    fn key(&self) -> (u8, u64, u64, u64) {
        (
            u8::from(!self.receipted),
            u64::MAX - self.epoch,
            self.k,
            self.value.0,
        )
    }
}

/// One in-flight pipelined broadcast: a batch the leader has broadcast
/// and not yet retired (see the module docs' pipeline section).
#[derive(Debug)]
struct PipeSlot {
    /// The broadcast sequence number carrying this batch.
    k: u64,
    /// The batch and its workload accounting.
    round: Round,
    /// The batch's values as the wire carries them: the fast path's
    /// write-ack settle notifies from this run.
    values: Arc<[Value]>,
    /// Whether the batch has settled at this leader (self-delivery, or
    /// the fast path's write ack). Slots retire from the front of the
    /// pipeline only once delivered, in broadcast order.
    delivered: bool,
}

/// The Byzantine-mode engine (see the module docs for the protocol).
#[derive(Debug)]
pub struct NebLog {
    /// The broadcast engine. Its focus is the Ω-current leader, and its
    /// pipeline depth is how many broadcasts the leader keeps in flight
    /// (1 = the classic stall-on-self-delivery protocol, bit-identical to
    /// pre-pipeline).
    neb: NebEngine,
    verifier: SigVerifier,
    /// Dedicated replication engine for takeover scans (the broadcast
    /// engine's operations stay untouched by a scan in flight).
    scan_rep: RepEngine<RegVal, Msg>,
    /// This leadership term's epoch (takeover count, carried in wires).
    epoch: u64,
    /// The broadcasts in flight, in broadcast order: up to the pipeline
    /// depth of unretired slots (the pipeline ring).
    pipeline: VecDeque<PipeSlot>,
    /// Batches settled via the fast path's write ack over the run.
    fast_commits: u64,
    /// Next instance fresh commands are proposed at.
    next_instance: u64,
    /// A promoted leader's pending scan, if one is in flight.
    scanning: Option<RepId>,
    /// Scan needed (set on promotion, retried if a scan fails).
    need_scan: bool,
    /// Deliveries from senders Ω has not (or no longer) designated
    /// leader, in delivery order (kept whole so a later replay can still
    /// acknowledge them). Replayed if the sender is announced leader.
    parked: Vec<nebcast::Delivery>,
    /// Receipts whose provenance check failed during takeover scans (a
    /// receipt crediting a broadcast the claimed broadcaster's self-slot
    /// never made — forged, or racing an equivocation rewrite).
    receipts_rejected: u64,
}

impl ByzSmrNode {
    /// Creates a replica. `workload` is the sequence of commands this
    /// node proposes when it leads; `initial_leader` broadcasts epoch 0.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: Pid,
        procs: Vec<Pid>,
        mems: Vec<ActorId>,
        initial_leader: Pid,
        workload: Vec<Value>,
        signer: Signer,
        verifier: SigVerifier,
        poll_every: Duration,
    ) -> ByzSmrNode {
        let mut neb = NebEngine::new(me, procs.clone(), mems.clone(), signer, verifier.clone());
        neb.set_focus(initial_leader);
        let engine = NebLog {
            neb,
            verifier,
            scan_rep: RepEngine::new(mems),
            epoch: 0,
            pipeline: VecDeque::new(),
            fast_commits: 0,
            next_instance: 0,
            scanning: None,
            need_scan: false,
            parked: Vec::new(),
            receipts_rejected: 0,
        };
        Replica::over(engine, me, procs, initial_leader, workload, poll_every)
    }

    /// Sets the leader's pipeline window: up to `window` broadcasts kept
    /// in flight before stalling on self-delivery (clamped to ≥ 1; 1 is
    /// the classic one-slot protocol, bit-identical to pre-pipeline
    /// behaviour). The broadcast engine probes the current leader's row
    /// the same `window` slots ahead on every replica.
    pub fn with_pipeline_window(mut self, window: usize) -> ByzSmrNode {
        self.engine.neb.set_pipeline_depth(window);
        self
    }

    /// Enables the speculative fast path: the leader settles own batches
    /// at the broadcast write ack (2 delays) instead of its ≈6-delay
    /// self-delivery (see the module docs for why this is sound; every
    /// follower still runs the full audited delivery path).
    pub fn with_fast_path(mut self, on: bool) -> ByzSmrNode {
        self.engine.neb.set_fast_path(on);
        self
    }
}

impl NebLog {
    /// Whether a batch starting at `first` lies beyond this replica's
    /// settled frontier. Every correct leader's wires are dense and reach
    /// a replica in per-sender order, so only a Byzantine leader signs
    /// one, and settling it would size the log by a number the attacker
    /// chose.
    fn past_frontier(sh: &Shell, first: u64) -> bool {
        first > sh.core.settled_top()
    }

    /// Settles one delivered batch from the Ω-current leader and
    /// acknowledges it with a receipt — the durable mark a correct process
    /// *accepted* the wire. A batch [`NebLog::past_frontier`] is neither:
    /// it is counted and otherwise ignored. Returns whether the batch was
    /// accepted.
    fn accept(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Context<'_, Msg>,
        d: &nebcast::Delivery,
    ) -> bool {
        let RbPayload::LogEntries {
            first, ref values, ..
        } = d.slot.wire.payload
        else {
            return false; // single-decree traffic from another protocol: not ours
        };
        if Self::past_frontier(sh, first) {
            debug_assert!(d.from != sh.me, "own wire k={} is not dense", d.slot.k);
            sh.entries_rejected += 1;
            ctx.note_with(|| format!("byz-smr: ignored {}'s batch at far-future {first}", d.from));
            return false;
        }
        self.neb.acknowledge(ctx, &mut sh.client, d);
        sh.decide(ctx, first, values.clone());
        true
    }

    /// The pipeline's overlap, per stage: the leader's own wire came back
    /// around (read-only mark; see [`crate::spans`]).
    fn mark_delivered(ctx: &mut Context<'_, Msg>, first: u64, values: &[Value]) {
        for (j, v) in values.iter().enumerate() {
            ctx.obs_mark(v.0, STAGE_DELIVER, first + j as u64);
        }
    }

    /// Handles one broadcast delivery: entries from the Ω-current leader
    /// settle (see [`NebLog::accept`]); everything else is parked
    /// unacknowledged (a deposed leader's stragglers, or a new leader's
    /// wires arriving before its announcement).
    fn on_delivery(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>, d: nebcast::Delivery) {
        let RbPayload::LogEntries {
            first, ref values, ..
        } = d.slot.wire.payload
        else {
            return; // not ours: not even parked
        };
        if self.neb.focus() != Some(d.from) {
            self.parked.push(d);
            return;
        }
        if d.from == sh.me {
            Self::mark_delivered(ctx, first, values);
        }
        if !self.accept(sh, ctx, &d) {
            return;
        }
        // Self-delivery completes the slot's proposal: the batch is
        // committed (any correct replica's audit now intersects ours).
        // Retirement stays in broadcast order behind earlier slots.
        if d.from == sh.me {
            if let Some(slot) = self.undelivered(d.slot.k) {
                slot.delivered = true;
                self.retire_ready(sh);
                self.drive(sh, ctx);
            }
        }
    }

    /// The in-flight slot broadcast as `k`, if it has not settled yet.
    fn undelivered(&mut self, k: u64) -> Option<&mut PipeSlot> {
        (self.pipeline.iter_mut()).find(|s| s.k == k && !s.delivered)
    }

    /// Retires delivered slots from the pipeline's front, banking their
    /// dedup accounting. Slots retire strictly in broadcast order, so a
    /// later batch's settle never outruns an earlier batch's bookkeeping.
    fn retire_ready(&mut self, sh: &mut Shell) {
        while self.pipeline.front().is_some_and(|s| s.delivered) {
            let slot = self.pipeline.pop_front().expect("front checked");
            sh.commit(slot.round);
        }
    }

    /// Discards every in-flight pipeline slot (demotion or takeover):
    /// delivered slots bank their accounting — their values are settled
    /// in the log — while undelivered slots roll the workload cursor
    /// back so the commands are re-proposed (or dedup-suppressed) later,
    /// exactly as the one-slot protocol abandoned its in-flight round.
    fn clear_pipeline(&mut self, sh: &mut Shell) {
        for slot in std::mem::take(&mut self.pipeline) {
            if slot.delivered {
                sh.commit(slot.round);
            } else {
                sh.abandon(slot.round);
            }
        }
    }

    /// Handles a broadcast write ack under the fast path: the leader's
    /// batch settles at the 2-delay write-commit point instead of its
    /// ≈6-delay self-delivery (see the module docs for the soundness
    /// argument — commitment evidence still comes from follower quorums).
    /// Only a fast-path broadcast engine surfaces write acks.
    fn on_written(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>, k: u64) {
        if !sh.is_leader {
            return; // stale ack from before a demotion: slot already cleared
        }
        let Some(slot) = self.undelivered(k) else {
            return;
        };
        slot.delivered = true;
        let (first, values) = (slot.round.first, slot.values.clone());
        debug_assert!(
            !Self::past_frontier(sh, first),
            "own wire k={k} is not dense"
        );
        Self::mark_delivered(ctx, first, &values);
        sh.decide(ctx, first, values);
        self.fast_commits += 1;
        self.retire_ready(sh);
        self.drive(sh, ctx);
    }

    /// Replays parked deliveries from the (new) current leader, in their
    /// original delivery order (acknowledging them as they settle).
    fn replay_parked(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>) {
        let mut parked = std::mem::take(&mut self.parked);
        for d in parked.drain(..) {
            if self.neb.focus() == Some(d.from) {
                self.accept(sh, ctx, &d);
            } else {
                self.parked.push(d);
            }
        }
    }

    /// Starts the takeover scan: one replicated range read of the whole
    /// broadcast space. Completing at a memory majority is enough — every
    /// delivered value's receipt (and audit copy) was itself written to a
    /// majority, so the scan's read quorum intersects it.
    fn start_scan(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>) {
        self.clear_pipeline(sh);
        sh.recover.clear();
        let all = nebcast::ALL_REGION;
        let scan = (self.scan_rep).read_range(ctx, &mut sh.client, all, RegionSpec::ALL);
        self.scanning = Some(scan);
    }

    /// Folds the scan result into an adoption map and opens the new
    /// epoch (see the module docs for the adoption rule).
    fn adopt(&mut self, sh: &mut Shell, rows: Vec<(rdma_sim::RegId, RegVal)>) {
        self.need_scan = false;
        // Receipt provenance pre-pass: a broadcaster's *self-slot* — its
        // own sequence number in its own exclusive-writer row, the one
        // register nobody else can write — is the unforgeable record of
        // what it actually broadcast. Collect the validly-signed ones; a
        // receipt is credited below only if it holds exactly the slot the
        // claimed broadcaster's self-slot holds. This blocks a follower
        // forging receipts with a colluding leader's double-signature:
        // the signature verifies, but no matching self-slot exists.
        let mut self_slots: BTreeMap<(Pid, u64), Arc<nebcast::NebSlot>> = BTreeMap::new();
        // The same pass bounds how far a dense log can reach: every
        // instance below a genuine wire's `first` was settled by a correct
        // replica (this one, or one whose majority-written audit copy or
        // own broadcast the scan's quorum intersects) or broadcast earlier
        // by the same correct leader, so it is carried by a scanned row —
        // `first` cannot exceed the values the scan returned plus what is
        // settled here. A Byzantine leader's far-future `first` does, and
        // would otherwise size the recovery plan below.
        let settled_top = sh.core.settled_top();
        let mut dense_cap = settled_top;
        for (reg, val) in &rows {
            let RegVal::Neb(slot) = val else { continue };
            if let RbPayload::LogEntries { values, .. } = &slot.wire.payload {
                dense_cap = dense_cap.saturating_add(values.len() as u64);
            }
            let cell = Cell::of(*reg);
            if !cell.is_self_slot() || slot.k != cell.k || !sh.procs.contains(&cell.sender) {
                continue;
            }
            if self
                .verifier
                .valid(cell.sender, &slot.wire.sign_view(slot.k), &slot.sig)
            {
                self_slots.insert((cell.sender, cell.k), slot.clone());
            }
        }
        let mut best: BTreeMap<u64, Candidate> = BTreeMap::new();
        let mut max_epoch = self.epoch;
        for (reg, val) in rows {
            let RegVal::Neb(slot) = val else { continue };
            let Cell {
                row,
                k,
                sender,
                receipt: mut receipted,
            } = Cell::of(reg);
            if slot.k != k || !sh.procs.contains(&sender) {
                continue;
            }
            // A broadcaster's receipt for its own wire proves nothing —
            // only other rows' receipts witness a delivery.
            if receipted && row == sender {
                continue;
            }
            if !self
                .verifier
                .valid(sender, &slot.wire.sign_view(slot.k), &slot.sig)
            {
                continue;
            }
            if receipted && !self_slots.get(&(sender, k)).is_some_and(|own| *own == slot) {
                // Provenance failed: demote rather than discard — the
                // value still competes as an (audit-grade) unreceipted
                // candidate, it just loses the adoption *preference* a
                // genuine delivery witness earns.
                self.receipts_rejected += 1;
                receipted = false;
            }
            let RbPayload::LogEntries {
                first,
                epoch,
                values,
            } = &slot.wire.payload
            else {
                continue;
            };
            if *first > dense_cap || first.checked_add(values.len() as u64).is_none() {
                sh.entries_rejected += 1;
                continue;
            }
            max_epoch = max_epoch.max(*epoch);
            for (j, &v) in values.iter().enumerate() {
                let cand = Candidate {
                    receipted,
                    epoch: *epoch,
                    k,
                    value: v,
                };
                let inst = first + j as u64;
                best.entry(inst)
                    .and_modify(|b| {
                        if cand.key() < b.key() {
                            *b = cand;
                        }
                    })
                    .or_insert(cand);
            }
        }
        // Rebuild the dense recovery plan: everything this replica has
        // itself settled wins outright (a correct replica's log is, by
        // non-equivocation + the parking rule, consistent with every
        // other correct settle); scan candidates fill the rest; holes
        // below the frontier become explicit no-op fillers so follower
        // prefixes can always close.
        let scanned_top = best.keys().next_back().map_or(0, |&i| i + 1);
        let top = settled_top.max(scanned_top);
        sh.recover.clear();
        sh.recover.extend((0..top).map(|i| {
            let v = (sh.core.decided(i))
                .or_else(|| best.get(&i).map(|c| c.value))
                .unwrap_or(Value::NOOP);
            (i, v)
        }));
        self.next_instance = top;
        // Saturating: a scanned wire may carry any epoch its signer chose.
        self.epoch = max_epoch.saturating_add(1);
    }
}

impl Engine for NebLog {
    const TICK_TAG: u64 = 60;
    const PEERS_DECIDE: bool = false;

    /// Proposes batches until the pipeline window is full: adopted
    /// recovery values first (re-broadcast under the new epoch), then
    /// fresh workload.
    fn drive(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>) {
        if !sh.is_leader || self.scanning.is_some() || self.need_scan {
            return;
        }
        while self.pipeline.len() < self.neb.pipeline_depth() {
            let recovering = sh.recover.front().map(|&(i, _)| i);
            let at = recovering.unwrap_or(self.next_instance);
            // A deep pipeline overlaps fresh fills with rounds whose
            // values have not settled yet — bar their ids so a router
            // re-submission can't ride into a second instance.
            let pipeline = &self.pipeline;
            let in_flight = |v| pipeline.iter().any(|s| s.round.values.contains(&v));
            let Some(round) = sh.next_round(ctx, at, false, in_flight) else {
                return;
            };
            if recovering.is_none() {
                self.next_instance += round.values.len() as u64;
            }
            let values: Arc<[Value]> = round.values.as_slice().into();
            let wire = log_entries_wire(round.first, self.epoch, values.clone());
            let k = self.neb.broadcast(ctx, &mut sh.client, wire);
            self.pipeline.push_back(PipeSlot {
                k,
                round,
                values,
                delivered: false,
            });
        }
    }

    fn on_tick(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>) {
        self.neb.poll(ctx, &mut sh.client);
        while let Some(d) = self.neb.next_delivery() {
            self.on_delivery(sh, ctx, d);
        }
        self.neb.post(ctx, &mut sh.client);
        // A failed scan (memory churn) retries here.
        if sh.is_leader && self.need_scan && self.scanning.is_none() {
            self.start_scan(sh, ctx);
        }
    }

    fn on_leader_change(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Context<'_, Msg>,
        leader: Pid,
        promoted: bool,
    ) {
        // The broadcast engine's focus is the Ω-current leader: its
        // deliveries settle, and its row is the one worth probing ahead.
        self.neb.set_focus(leader);
        if promoted {
            self.need_scan = true;
            self.start_scan(sh, ctx);
        } else if !sh.is_leader {
            self.clear_pipeline(sh);
            self.scanning = None;
            self.need_scan = false;
            sh.recover.clear();
        }
        self.replay_parked(sh, ctx);
        self.neb.post(ctx, &mut sh.client);
    }

    fn on_completion(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Msg>, c: Completion<RegVal>) {
        // Both engines issue through `sh.client`, so an op id is the one
        // engine's or the other's: the completion moves to its owner.
        if self.neb.owns(&c) {
            if self.neb.on_completion(ctx, &mut sh.client, c) {
                while let Some(k) = self.neb.next_written() {
                    self.on_written(sh, ctx, k);
                }
                while let Some(d) = self.neb.next_delivery() {
                    self.on_delivery(sh, ctx, d);
                }
                // This handler's copies and receipts, in one write per
                // memory.
                self.neb.post(ctx, &mut sh.client);
                self.drive(sh, ctx);
            }
            return;
        }
        let Some(ev) = self.scan_rep.on_completion(c) else {
            return;
        };
        if Some(ev.id) == self.scanning {
            self.scanning = None;
            match ev.result {
                RepResult::RangeOk(rows) => {
                    self.adopt(sh, rows);
                    self.drive(sh, ctx);
                }
                // Scan failed (memory churn): retry at the next tick.
                _ => self.need_scan = true,
            }
        }
    }

    fn report(&self, sh: &Shell, state: &mut ReplicaState) {
        // Peers the broadcast layer has caught equivocating (and blocked
        // forever).
        let blocked = |&&q: &&Pid| self.neb.blocked_at(q).is_some();
        state.equivocations_blocked = sh.procs.iter().filter(blocked).count() as u64;
        state.receipts_rejected = self.receipts_rejected;
        state.fast_commits = self.fast_commits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scenario;
    use sigsim::SigAuthority;
    use simnet::{Simulation, Time};
    use std::collections::VecDeque;

    /// Three replicas over three broadcast memories, silent stand-ins at
    /// `silent`; replica 0 leads with `cmds_leader` commands.
    fn build(
        seed: u64,
        cmds_leader: usize,
        batch: usize,
        silent: &[usize],
    ) -> (Simulation<Msg>, Vec<Pid>) {
        let mut s = Scenario::common_case(3, 3, seed);
        s.byz_silent = silent.to_vec();
        // Every slot holds a key, stand-ins included, issued in id order.
        let mut auth = SigAuthority::new(seed ^ 0xB12A);
        let signers: Vec<_> = s.procs().iter().map(|&p| auth.register(p)).collect();
        let sim = s.cluster(
            |i, procs, mems| {
                let workload: Vec<Value> = if i == 0 {
                    (0..cmds_leader).map(|c| Value(1000 + c as u64)).collect()
                } else {
                    Vec::new()
                };
                let (me, signer) = (ActorId(i as u32), signers[i].clone());
                let tick = Duration::from_delays(1);
                let node = ByzSmrNode::new(
                    me,
                    procs,
                    mems,
                    ActorId(0),
                    workload,
                    signer,
                    auth.verifier(),
                    tick,
                );
                Box::new(node.with_batch(batch))
            },
            s.memories(nebcast::memory_actor),
        );
        (sim, s.procs())
    }

    fn log_of(sim: &Simulation<Msg>, p: Pid) -> Vec<Value> {
        sim.actor_as::<ByzSmrNode>(p).unwrap().log()
    }

    /// Runs the takeover scan's fold over `rows` on a bare replica.
    fn adopt(node: &mut ByzSmrNode, rows: BTreeMap<rdma_sim::RegId, RegVal>) {
        node.engine.adopt(&mut node.sh, rows.into_iter().collect());
    }

    /// What the recovery plan holds for `instance`.
    fn recovered(node: &ByzSmrNode, instance: u64) -> Option<Value> {
        let plan: &VecDeque<(u64, Value)> = &node.sh.recover;
        plan.iter().find(|r| r.0 == instance).map(|r| r.1)
    }

    /// Builds a validly-signed broadcast slot for `sender`.
    fn log_wire(
        signer: &sigsim::Signer,
        k: u64,
        first: u64,
        epoch: u64,
        values: Vec<Value>,
    ) -> RegVal {
        RegVal::Neb(nebcast::NebSlot::signed(
            signer,
            k,
            log_entries_wire(first, epoch, values.into()),
        ))
    }

    /// The takeover-scan adoption rule, pinned directly: among
    /// unreceipted candidates the HIGHEST epoch wins (a live deposed
    /// leader may have settled its own proposal, and the scan ignores
    /// self-receipts — its value must outrank a dead predecessor's
    /// leftover), while a receipt from another process outranks epochs
    /// entirely (somebody provably delivered that value).
    #[test]
    fn adoption_prefers_receipts_then_highest_epoch() {
        let procs: Vec<Pid> = (0..3).map(ActorId).collect();
        let mems: Vec<ActorId> = (3..6).map(ActorId).collect();
        let mut auth = SigAuthority::new(99 ^ 0xB12A);
        let s0 = auth.register(ActorId(0));
        let s1 = auth.register(ActorId(1));
        let _s2 = auth.register(ActorId(2));
        let mut node = ByzSmrNode::new(
            ActorId(2),
            procs,
            mems,
            ActorId(0),
            Vec::new(),
            _s2.clone(),
            auth.verifier(),
            Duration::from_delays(1),
        );
        // Old leader L0 (epoch 0) left value A at instance 1; promoted
        // L1 (epoch 1) proposed C there and may have settled it via
        // self-delivery. Nobody else delivered either.
        let a = log_wire(&s0, 2, 1, 0, vec![Value(100)]);
        let c = log_wire(&s1, 1, 1, 1, vec![Value(200)]);
        let mut rows = BTreeMap::new();
        rows.insert(nebcast::slot_reg(ActorId(0), 2, ActorId(0)), a.clone());
        rows.insert(nebcast::slot_reg(ActorId(1), 1, ActorId(1)), c.clone());
        adopt(&mut node, rows.clone());
        assert_eq!(
            recovered(&node, 1),
            Some(Value(200)),
            "highest epoch must win among unreceipted candidates"
        );
        assert_eq!(node.engine.epoch, 2, "new epoch opens above the max seen");

        // A delivery receipt for A from a third replica flips the
        // preference: a provably-delivered value beats any epoch.
        rows.insert(nebcast::receipt_reg(ActorId(2), 2, ActorId(0)), a);
        adopt(&mut node, rows.clone());
        assert_eq!(
            recovered(&node, 1),
            Some(Value(100)),
            "a receipted value must outrank higher unreceipted epochs"
        );

        // A broadcaster's receipt for its OWN wire proves nothing.
        rows.remove(&nebcast::receipt_reg(ActorId(2), 2, ActorId(0)));
        rows.insert(nebcast::receipt_reg(ActorId(0), 2, ActorId(0)), c);
        adopt(&mut node, rows);
        assert_eq!(
            recovered(&node, 1),
            Some(Value(200)),
            "self-receipts must stay ignored"
        );
    }

    /// The receipt-provenance check, pinned directly: a forged receipt —
    /// a Byzantine follower crediting the leader with a broadcast the
    /// leader never made, signed with the colluding leader's own key —
    /// must fail provenance (no matching self-slot), be demoted out of
    /// the receipted preference class, and be counted. Without the check
    /// its higher epoch would hijack the adoption outright.
    #[test]
    fn forged_receipts_fail_provenance_and_are_counted() {
        let procs: Vec<Pid> = (0..3).map(ActorId).collect();
        let mems: Vec<ActorId> = (3..6).map(ActorId).collect();
        let mut auth = SigAuthority::new(7 ^ 0xB12A);
        let s0 = auth.register(ActorId(0));
        let _s1 = auth.register(ActorId(1));
        let s2 = auth.register(ActorId(2));
        let mut node = ByzSmrNode::new(
            ActorId(2),
            procs,
            mems,
            ActorId(0),
            Vec::new(),
            s2,
            auth.verifier(),
            Duration::from_delays(1),
        );
        // Genuine history: leader 0 broadcast A at k=1 (self-slot in its
        // own row), replica 2's receipt witnesses the delivery.
        let real = log_wire(&s0, 1, 0, 0, vec![Value(100)]);
        let mut rows = BTreeMap::new();
        rows.insert(nebcast::slot_reg(ActorId(0), 1, ActorId(0)), real.clone());
        rows.insert(nebcast::receipt_reg(ActorId(2), 1, ActorId(0)), real);
        // The forgery, in follower 1's row: a receipt crediting 0 with
        // junk at instance 0 under a higher epoch and a sequence number
        // 0 never used — validly signed with 0's key (collusion).
        let forged = log_wire(&s0, 9, 0, 5, vec![Value(666)]);
        rows.insert(nebcast::receipt_reg(ActorId(1), 9, ActorId(0)), forged);
        adopt(&mut node, rows);
        assert_eq!(
            node.replica_state().receipts_rejected,
            1,
            "exactly the forged receipt must be rejected (not the real one)"
        );
        assert_eq!(
            recovered(&node, 0),
            Some(Value(100)),
            "the genuinely receipted value must keep instance 0"
        );
    }

    /// The provenance check compares slots by value: a receipt holding the
    /// self-slot rebuilt field by field into a fresh allocation — as a
    /// memory keeping its own copy would hold it — is credited exactly like
    /// one sharing the self-slot's `Arc`, and keeps its instance against a
    /// higher-epoch rival that only an uncredited receipt would lose to.
    #[test]
    fn provenance_credits_a_receipt_equal_by_value_in_a_fresh_allocation() {
        let procs: Vec<Pid> = (0..3).map(ActorId).collect();
        let mems: Vec<ActorId> = (3..6).map(ActorId).collect();
        let mut auth = SigAuthority::new(21 ^ 0xB12A);
        let s0 = auth.register(ActorId(0));
        let s1 = auth.register(ActorId(1));
        let s2 = auth.register(ActorId(2));
        let mut node = ByzSmrNode::new(
            ActorId(2),
            procs,
            mems,
            ActorId(0),
            Vec::new(),
            s2,
            auth.verifier(),
            Duration::from_delays(1),
        );
        let real = log_wire(&s0, 1, 0, 0, vec![Value(100)]);
        let RegVal::Neb(slot) = &real else {
            unreachable!("log_wire builds a broadcast slot")
        };
        let rebuilt = RegVal::Neb(Arc::new(nebcast::NebSlot {
            k: slot.k,
            wire: slot.wire.clone(),
            sig: slot.sig,
        }));
        let rival = log_wire(&s1, 1, 0, 1, vec![Value(200)]);
        let mut rows = BTreeMap::new();
        rows.insert(nebcast::slot_reg(ActorId(0), 1, ActorId(0)), real);
        rows.insert(nebcast::receipt_reg(ActorId(2), 1, ActorId(0)), rebuilt);
        rows.insert(nebcast::slot_reg(ActorId(1), 1, ActorId(1)), rival);
        adopt(&mut node, rows);
        assert_eq!(node.replica_state().receipts_rejected, 0);
        assert_eq!(
            recovered(&node, 0),
            Some(Value(100)),
            "the receipted value must outrank the higher unreceipted epoch"
        );
    }

    /// The takeover scan's density bound, pinned directly: validly signed
    /// wires that start beyond anything the scan could make dense — or
    /// whose end overflows the instance space — are counted and ignored,
    /// so the recovery plan is sized by the genuine wires alone; and an
    /// epoch at the top of its range cannot overflow the new one.
    #[test]
    fn far_future_scanned_wires_are_rejected_and_cannot_size_the_plan() {
        let procs: Vec<Pid> = (0..3).map(ActorId).collect();
        let mems: Vec<ActorId> = (3..6).map(ActorId).collect();
        let mut auth = SigAuthority::new(13 ^ 0xB12A);
        let s0 = auth.register(ActorId(0));
        let _s1 = auth.register(ActorId(1));
        let s2 = auth.register(ActorId(2));
        let mut node = ByzSmrNode::new(
            ActorId(2),
            procs,
            mems,
            ActorId(0),
            Vec::new(),
            s2,
            auth.verifier(),
            Duration::from_delays(1),
        );
        let mut rows = BTreeMap::new();
        let mut put = |k, first, epoch, values: Vec<u64>| {
            let values = values.into_iter().map(Value).collect();
            rows.insert(
                nebcast::slot_reg(ActorId(0), k, ActorId(0)),
                log_wire(&s0, k, first, epoch, values),
            );
        };
        put(1, 0, 0, vec![100, 101]);
        put(2, 1 << 40, 0, vec![666]);
        put(3, u64::MAX, 0, vec![666, 667]);
        put(4, 2, u64::MAX, vec![102]);
        adopt(&mut node, rows);
        assert_eq!(
            node.replica_state().entries_rejected,
            2,
            "exactly the two bogus wires"
        );
        let plan = Vec::from(node.sh.recover.clone());
        assert_eq!(
            plan,
            vec![(0, Value(100)), (1, Value(101)), (2, Value(102))]
        );
        assert_eq!(node.engine.next_instance, 3);
        assert_eq!(
            node.engine.epoch,
            u64::MAX,
            "epoch saturates instead of overflowing"
        );
    }

    #[test]
    fn failure_free_log_replicates_in_order() {
        let (mut sim, procs) = build(1, 6, 2, &[]);
        sim.run_until(Time::from_delays(400), |s| {
            procs
                .iter()
                .all(|&p| s.actor_as::<ByzSmrNode>(p).unwrap().log_len() >= 6)
        });
        let expected: Vec<Value> = (0..6).map(|c| Value(1000 + c)).collect();
        for &p in &procs {
            assert_eq!(log_of(&sim, p), expected, "replica {p}");
        }
    }

    #[test]
    fn f_silent_replicas_do_not_block_commitment() {
        // n = 3 = 2f+1 with f = 1 silent Byzantine replica: the log only
        // needs the memories, so the leader and the one correct follower
        // still commit everything.
        let (mut sim, procs) = build(2, 5, 1, &[2]);
        let correct = [procs[0], procs[1]];
        sim.run_until(Time::from_delays(600), |s| {
            correct
                .iter()
                .all(|&p| s.actor_as::<ByzSmrNode>(p).unwrap().log_len() >= 5)
        });
        let expected: Vec<Value> = (0..5).map(|c| Value(1000 + c)).collect();
        for &p in &correct {
            assert_eq!(log_of(&sim, p), expected, "replica {p}");
        }
    }
}
