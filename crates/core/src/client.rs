//! The CoRM client library — the Table 2 API.
//!
//! A [`CormClient`] holds a connection to a CoRM node: an RPC path for
//! `Alloc`/`Free`/`Read`/`Write`/`ReleasePtr` and a reliable queue pair for
//! one-sided `DirectRead`/`ScanRead` — its own, or one several clients
//! share as an `Arc<QueuePair>` ([`CormClient::connect_shared`], the
//! Fig. 21 scale mode). Every verb is a call on that [`QueuePair`].
//! One-sided reads validate the fetched object client-side
//! (§3.2.2–§3.2.3): cacheline versions must agree, the lock bits must be
//! clear, and the object ID must match the pointer. On an ID mismatch the
//! client recovers by either an RPC read (server-side correction) or a
//! [`ScanRead`](CormClient::scan_read) of the whole block, then fixes the
//! pointer's offset hint in place. One recovery loop applies these rules
//! to one pointer ([`CormClient::direct_read_with_recovery`]) and to many
//! ([`CormClient::read_batch`]); the two differ only in their wire, a
//! READ verb per pointer or one doorbell per round.

use std::sync::Arc;

use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::{QueuePair, RdmaError, ReadReq, ReadResult};
use corm_trace::{Stage, TraceHandle, Track};

use crate::consistency::{self, ReadFailure};
use crate::header::{ObjectHeader, HEADER_BYTES};
use crate::ptr::GlobalPtr;
use crate::server::{CormError, CormServer};
use crate::Timed;

/// How a client repairs a failed DirectRead whose object moved (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixStrategy {
    /// Issue an RPC read; the server corrects the pointer.
    RpcRead,
    /// RDMA-read the whole block and scan it client-side.
    ScanRead,
}

/// Seed of every client's worker-selection stream.
const WORKER_SEED: u64 = 0xC11E;

/// Backoff before a torn or locked read is repeated (§3.2.3: "the read is
/// repeated after a backoff period").
pub const READ_BACKOFF: SimDuration = SimDuration::from_micros(5);
/// Attempts one read operation gets — first try included — before a torn,
/// locked or moving object surfaces as an error.
const MAX_ATTEMPTS: usize = 64;
/// QP reconnects one operation gets (§3.5: a break is survivable but costs
/// milliseconds — a persistently broken fabric must surface as an error).
const MAX_RECONNECTS: usize = 8;
/// Backoff before an operation's first reconnect; doubles with each
/// further one, up to [`RECONNECT_BACKOFF_CAP`].
const RECONNECT_BACKOFF: SimDuration = SimDuration::from_micros(50);
const RECONNECT_BACKOFF_CAP: SimDuration = SimDuration::from_millis(1);

/// Result classification of a raw DirectRead attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The object was read consistently; payload bytes copied out.
    Ok(usize),
    /// The read failed validation (relocated / locked / torn / freed).
    Invalid(ReadFailure),
}

/// The one-sided operation in flight, and all the recovery loop knows:
/// what it has been charged so far and how many reconnects it spent.
/// Every one-sided entry point starts one with [`CormClient::begin`],
/// charges it through [`CormClient::charge`] and closes it with
/// [`CormClient::finish`]; the recovery loop ([`CormClient::read_rounds`],
/// under [`CormClient::direct_read_with_recovery`] and
/// [`CormClient::read_batch`]) adds [`CormClient::recover`].
#[derive(Default)]
struct OpState {
    /// Monotone per-client op number; the op's own span and every leaf
    /// charge carry it so exporters can reconcile leaf sums against op
    /// totals. An op that errors out leaves its leaves without an op span;
    /// the reconciler only audits ops that produced a total.
    id: u64,
    /// When the operation started.
    start: SimTime,
    /// `start` plus everything charged so far.
    clock: SimTime,
    /// Everything charged so far: the cost the caller is handed.
    total: SimDuration,
    /// QP reconnects spent.
    reconnects: usize,
}

/// The recycled buffers of the recovery loop, so that a read — retries
/// and repairs included — allocates nothing after warm-up (a multi-get:
/// nothing but its result).
#[derive(Default)]
struct BatchScratch {
    /// A doorbell round's request records, one slot-image buffer per
    /// request, the results, and the completion-order permutation.
    reqs: Vec<ReadReq>,
    out: Vec<Vec<u8>>,
    results: Vec<ReadResult>,
    order: Vec<usize>,
    /// Entries this round posts, and those the next one will.
    pending: Vec<usize>,
    retry: Vec<usize>,
    /// Moved entries this round repairs by a ScanRead each.
    scan: Vec<usize>,
    /// Entries routed to the repair RPC, and its pointer, buffer and
    /// outcome arguments.
    repair: Vec<usize>,
    repair_ptrs: Vec<GlobalPtr>,
    repair_bufs: Vec<Vec<u8>>,
    repaired: Vec<Result<usize, CormError>>,
}

/// A connected CoRM client.
pub struct CormClient {
    server: Arc<CormServer>,
    /// The client's queue pair: its own, or one several clients share
    /// (Fig. 21's DCT-style mode, O(1) connection state per client).
    qp: Arc<QueuePair>,
    /// Tenant the QoS scheduler charges this client's multi-gets to.
    tenant: u32,
    /// Recovery strategy for relocated objects.
    fix_strategy: FixStrategy,
    rng: DetRng,
    /// Trace recorder, shared with the server node (disabled by default).
    trace: TraceHandle,
    op: OpState,
    /// DirectReads that failed validation (Fig. 13's conflict counter).
    pub failed_direct_reads: u64,
    /// QP breaks this client recovered from by reconnecting (§3.5).
    pub qp_recoveries: u64,
    batch: BatchScratch,
    /// Recycled slot/block image for DirectRead and ScanRead: the DMA
    /// fully overwrites the fetched range and validation happens before
    /// any payload copy, so reuse is invisible to callers.
    image: Vec<u8>,
}

impl std::fmt::Debug for CormClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CormClient").finish()
    }
}

impl CormClient {
    /// Connects to a server (CreateCtx in Table 2); moved objects are
    /// repaired with [`FixStrategy::ScanRead`].
    pub fn connect(server: Arc<CormServer>) -> Self {
        Self::connect_with(server, FixStrategy::ScanRead)
    }

    /// Connects with an explicit repair strategy for moved objects.
    pub fn connect_with(server: Arc<CormServer>, fix_strategy: FixStrategy) -> Self {
        let qp = Arc::new(QueuePair::connect(server.rnic().clone()));
        Self::with_qp(server, fix_strategy, qp, 0)
    }

    /// Connects over a DCT-style shared connection (Fig. 21 scale mode):
    /// the client rides `qp`, a queue pair connected to
    /// [`CormServer::rnic`] that other clients hold too, as `tenant`,
    /// instead of owning one, dropping its host connection state to O(1).
    pub fn connect_shared(server: Arc<CormServer>, qp: Arc<QueuePair>, tenant: u32) -> Self {
        Self::with_qp(server, FixStrategy::ScanRead, qp, tenant)
    }

    fn with_qp(
        server: Arc<CormServer>,
        fix_strategy: FixStrategy,
        qp: Arc<QueuePair>,
        tenant: u32,
    ) -> Self {
        let rng = stream_rng(WORKER_SEED, 0);
        let trace = server.trace().clone();
        CormClient {
            server,
            qp,
            tenant,
            fix_strategy,
            rng,
            trace,
            op: OpState::default(),
            failed_direct_reads: 0,
            qp_recoveries: 0,
            batch: BatchScratch::default(),
            image: Vec::new(),
        }
    }

    /// The server this client talks to.
    pub fn server(&self) -> &Arc<CormServer> {
        &self.server
    }

    /// The client's queue pair (diagnostics) — its own, or the shared one.
    pub fn qp(&self) -> &QueuePair {
        &self.qp
    }

    fn pick_worker(&mut self) -> usize {
        let workers = self.server.config().workers;
        rand::Rng::gen_range(&mut self.rng, 0..workers)
    }

    // ------------------------------------------------------------------
    // The operation state machine
    // ------------------------------------------------------------------

    /// Starts a one-sided operation at `now`.
    fn begin(&mut self, now: SimTime) {
        self.op = OpState { id: self.op.id + 1, start: now, clock: now, ..OpState::default() };
    }

    /// Charges `d` of `stage` to the operation: one leaf span at the
    /// operation's clock, which advances past it.
    fn charge(&mut self, stage: Stage, d: SimDuration) {
        self.trace.span(Track::Client, stage, self.op.id, self.op.clock, d);
        self.op.total += d;
        self.op.clock += d;
    }

    /// Whether an RDMA error is survivable by reconnecting the QP: the
    /// connection broke (or a transient NIC/PCIe fault broke it), but the
    /// region, keys, and data are intact.
    fn recoverable(e: &RdmaError) -> bool {
        matches!(e, RdmaError::QpBroken | RdmaError::InjectedFault | RdmaError::RegionBusy(_))
    }

    /// Reconnects the QP after a recoverable fault, charging the operation
    /// a backoff that doubles with each of its reconnects up to the cap,
    /// then the §3.5 reconnect cost. Errors out once the operation has
    /// spent its [`MAX_RECONNECTS`].
    fn recover(&mut self) -> Result<(), CormError> {
        if self.op.reconnects >= MAX_RECONNECTS {
            return Err(CormError::Rdma(RdmaError::QpBroken));
        }
        let backoff = RECONNECT_BACKOFF * (1u64 << self.op.reconnects);
        let reconnect = self.qp.reconnect();
        self.charge(Stage::Backoff, backoff.min(RECONNECT_BACKOFF_CAP));
        self.charge(Stage::Reconnect, reconnect);
        self.qp_recoveries += 1;
        self.op.reconnects += 1;
        Ok(())
    }

    /// Closes the operation: its own span over everything charged, and
    /// `value` at that cost.
    fn finish<T>(&self, value: T) -> Timed<T> {
        self.trace.span(Track::Client, Stage::ClientOp, self.op.id, self.op.start, self.op.total);
        Timed::new(value, self.op.total)
    }

    fn rpc_wire(&self, payload: usize) -> SimDuration {
        self.server.model().rpc_latency(payload)
    }

    /// Gross slot size of the pointer's class, validated — a corrupted or
    /// forged class byte is a client error, not a panic.
    fn slot_bytes(&self, ptr: &GlobalPtr) -> Result<usize, CormError> {
        let classes = self.server.classes();
        if (ptr.class as usize) >= classes.len() {
            return Err(CormError::BadPointer);
        }
        Ok(classes.size_of(corm_alloc::ClassId(ptr.class as u16)))
    }

    // ------------------------------------------------------------------
    // RPC operations
    // ------------------------------------------------------------------

    /// Allocates an object of `len` bytes (Table 2 `Alloc`).
    pub fn alloc(&mut self, len: usize) -> Result<Timed<GlobalPtr>, CormError> {
        let w = self.pick_worker();
        let t = self.server.alloc(w, len)?;
        Ok(t.add_cost(self.rpc_wire(16)))
    }

    /// Frees the object (Table 2 `Free`). Corrects the pointer if needed.
    pub fn free(&mut self, ptr: &mut GlobalPtr) -> Result<Timed<()>, CormError> {
        let w = self.pick_worker();
        let t = self.server.free(w, ptr)?;
        Ok(t.add_cost(self.rpc_wire(16)))
    }

    /// Reads up to `buf.len()` bytes over RPC (Table 2 `Read`).
    pub fn read(&mut self, ptr: &mut GlobalPtr, buf: &mut [u8]) -> Result<Timed<usize>, CormError> {
        let w = self.pick_worker();
        let t = self.server.read(w, ptr, buf)?;
        let wire = self.rpc_wire(t.value);
        Ok(t.add_cost(wire))
    }

    /// Writes `data` to the object over RPC (Table 2 `Write`).
    pub fn write(&mut self, ptr: &mut GlobalPtr, data: &[u8]) -> Result<Timed<()>, CormError> {
        let w = self.pick_worker();
        let t = self.server.write(w, ptr, data)?;
        Ok(t.add_cost(self.rpc_wire(data.len())))
    }

    /// Releases an old pointer after correcting all copies (Table 2
    /// `ReleasePtr`, §3.3). Returns the fresh pointer and rewrites `ptr`.
    pub fn release_ptr(&mut self, ptr: &mut GlobalPtr) -> Result<Timed<GlobalPtr>, CormError> {
        let w = self.pick_worker();
        let t = self.server.release_ptr(w, ptr)?;
        *ptr = t.value;
        Ok(t.add_cost(self.rpc_wire(16)))
    }

    // ------------------------------------------------------------------
    // One-sided operations
    // ------------------------------------------------------------------

    /// One raw DirectRead attempt (Table 2 `DirectRead`): a single
    /// one-sided RDMA read plus client-side validation. No retries, no
    /// pointer correction — the outcome tells the caller what happened.
    pub fn direct_read(
        &mut self,
        ptr: &GlobalPtr,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<Timed<ReadOutcome>, RdmaError> {
        self.begin(now);
        let outcome = self.read_slot(ptr, buf)?;
        Ok(self.finish(outcome))
    }

    /// One DirectRead attempt within the operation in flight: the READ of
    /// the slot at the pointer's hint and its validation, both charged.
    fn read_slot(&mut self, ptr: &GlobalPtr, buf: &mut [u8]) -> Result<ReadOutcome, RdmaError> {
        let Ok(slot_bytes) = self.slot_bytes(ptr) else {
            // Signal through the validation channel: a bad class byte can
            // never match a live object.
            self.failed_direct_reads += 1;
            return Ok(ReadOutcome::Invalid(ReadFailure::NotValid));
        };
        self.image.resize(slot_bytes, 0);
        let verb = self.qp.read(ptr.rkey, ptr.vaddr, &mut self.image, self.op.clock)?;
        self.charge(Stage::Verb, verb.latency);
        self.charge(Stage::VersionCheck, self.server.model().version_check_cost(slot_bytes));
        Ok(match consistency::gather_into(&self.image, Some(ptr.obj_id), buf) {
            Ok((_, n)) => ReadOutcome::Ok(n),
            Err(failure) => {
                self.failed_direct_reads += 1;
                ReadOutcome::Invalid(failure)
            }
        })
    }

    /// ScanRead (Table 2): RDMA-reads the whole block containing the
    /// object and scans it client-side for the object's ID, fixing the
    /// pointer hint (§3.2.2 option 2).
    pub fn scan_read(
        &mut self,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<Timed<usize>, CormError> {
        self.begin(now);
        let n = self.scan_block(ptr, buf)?;
        Ok(self.finish(n))
    }

    /// One ScanRead within the operation in flight. Only a scan that finds
    /// the object is charged; a failed one leaves the operation as it was.
    fn scan_block(&mut self, ptr: &mut GlobalPtr, buf: &mut [u8]) -> Result<usize, CormError> {
        let block_bytes = self.server.block_bytes();
        let slot_bytes = self.slot_bytes(ptr)?;
        let base = ptr.block_base(block_bytes);
        self.image.resize(block_bytes, 0);
        let verb = self.qp.read(ptr.rkey, base, &mut self.image, self.op.clock)?;
        let model = self.server.model();
        let slots = block_bytes / slot_bytes;
        // Everything past the wire: the header sweep plus each candidate's
        // version check.
        let mut scan = model.scan_cost(slots);
        for slot in 0..slots {
            let off = slot * slot_bytes;
            let slice = &self.image[off..off + slot_bytes];
            let header =
                ObjectHeader::from_bytes(slice[..HEADER_BYTES].try_into().expect("header"));
            if !header.valid || header.obj_id != ptr.obj_id {
                continue;
            }
            scan += model.version_check_cost(slot_bytes);
            match consistency::gather_into(slice, Some(ptr.obj_id), buf) {
                Ok((_, n)) => {
                    ptr.correct_offset(block_bytes, off);
                    self.charge(Stage::Verb, verb.latency);
                    self.charge(Stage::Scan, scan);
                    return Ok(n);
                }
                Err(ReadFailure::Locked) | Err(ReadFailure::TornRead) => {
                    // Racing a write/compaction on the right object: the
                    // caller backs off and retries.
                    return Err(CormError::ObjectLocked);
                }
                Err(_) => continue,
            }
        }
        Err(CormError::ObjectNotFound)
    }

    /// DirectRead with full recovery (the paper's client loop): retries
    /// torn/locked reads after a backoff, repairs relocated objects via the
    /// configured [`FixStrategy`] (correcting the pointer in place), and
    /// survives QP breaks — including injected transient NIC/PCIe faults
    /// and `rereg_mr` busy windows — by reconnecting with capped
    /// exponential backoff (§3.5). Every retry, backoff, and reconnect is
    /// charged to the returned [`Timed`] cost. This is the recovery loop
    /// over one pointer, on a single READ verb per round.
    ///
    /// When the 64 rounds run out the object was locked or torn at the
    /// last look: the error is [`CormError::ObjectLocked`] (the caller
    /// should back off and try again), never a spurious `ObjectNotFound`.
    pub fn direct_read_with_recovery(
        &mut self,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<Timed<usize>, CormError> {
        let mut len = [0];
        self.read_rounds(false, std::slice::from_mut(ptr), &mut [buf], &mut len, now)?;
        Ok(self.finish(len[0]))
    }

    /// Batched DirectRead (multi-get, the FaRM-style client pattern CoRM
    /// §4.2 benchmarks against): the recovery loop over many pointers, each
    /// round's READs under one doorbell so they share its cost and pipeline
    /// through the RNIC inbound engine. Only failed entries are repaired,
    /// by the rules of [`Self::direct_read_with_recovery`]; a broken verb
    /// reconnects the QP once and re-posts every failed and flushed WQE in
    /// posting order — flushed WQEs never reached the NIC, so the
    /// fault-injector draw sequence is that of sequential reads.
    ///
    /// Returns the per-entry payload lengths. The charged cost is the
    /// batch *makespan* (last completion) plus validation, repair, backoff,
    /// and reconnect costs — not the sum of per-entry latencies, which is
    /// exactly why multi-get beats `ptrs.len()` sequential DirectReads.
    pub fn read_batch(
        &mut self,
        ptrs: &mut [GlobalPtr],
        bufs: &mut [Vec<u8>],
        now: SimTime,
    ) -> Result<Timed<Vec<usize>>, CormError> {
        assert_eq!(ptrs.len(), bufs.len(), "one buffer per pointer");
        let mut lens = vec![0usize; ptrs.len()];
        if ptrs.is_empty() {
            return Ok(Timed::new(lens, SimDuration::ZERO));
        }
        self.read_rounds(true, ptrs, bufs, &mut lens, now)?;
        Ok(self.finish(lens))
    }

    /// The recovery loop (§3.2.2–§3.2.3, §3.5), as one operation from
    /// `now`: reads each pointer into its buffer, its payload length into
    /// `lens`. Each round posts the pending entries and files each as done,
    /// locked or torn, moved, or broken; repairs the moved ones; reconnects
    /// the QP if any broke, or else backs off if any are left to retry.
    fn read_rounds<B: AsMut<[u8]>>(
        &mut self,
        doorbell: bool,
        ptrs: &mut [GlobalPtr],
        bufs: &mut [B],
        lens: &mut [usize],
        now: SimTime,
    ) -> Result<(), CormError> {
        self.begin(now);
        self.batch.pending.clear();
        self.batch.pending.extend(0..ptrs.len());
        for _ in 0..MAX_ATTEMPTS {
            let s = &mut self.batch;
            s.retry.clear();
            s.scan.clear();
            s.repair.clear();
            let mut broken = self.post(doorbell, ptrs, bufs, lens)?;
            for k in 0..self.batch.scan.len() {
                let i = self.batch.scan[k];
                match self.scan_block(&mut ptrs[i], bufs[i].as_mut()) {
                    Ok(n) => lens[i] = n,
                    Err(CormError::ObjectLocked) => self.batch.retry.push(i),
                    // A scan needs the slot size a corrupt class byte does
                    // not name; the RPC resolves the object by address.
                    Err(CormError::BadPointer) => self.batch.repair.push(i),
                    Err(CormError::Rdma(ref e)) if Self::recoverable(e) => {
                        broken = true;
                        self.batch.retry.push(i);
                    }
                    Err(e) => return Err(e),
                }
            }
            if !self.batch.repair.is_empty() {
                self.repair_rpc(ptrs, bufs, lens)?;
            }
            if broken {
                self.recover()?;
            } else if !self.batch.retry.is_empty() {
                // Short of a break, only a lock or a tear sends an entry
                // round again: the object is there (§3.2.3).
                self.charge(Stage::Backoff, READ_BACKOFF);
            }
            let s = &mut self.batch;
            if s.retry.is_empty() {
                return Ok(());
            }
            // Re-post in posting (index) order so retried WQEs draw from
            // the fault stream exactly as one-pointer reads would.
            s.retry.sort_unstable();
            std::mem::swap(&mut s.pending, &mut s.retry);
        }
        // Breaks are capped far below the rounds, so every entry still
        // pending was last seen locked or torn.
        Err(CormError::ObjectLocked)
    }

    /// Posts the round's pending entries on the wire `doorbell` picks — the
    /// loop's only branch on its entry point — and files each; returns
    /// whether any verb broke. One pointer: a READ verb each, charged
    /// `verb` + `version_check`. Many: one doorbell through
    /// [`QueuePair::read_batch_into`], slot images DMA'd into recycled
    /// buffers and validated in virtual completion order (the order
    /// `poll_cq` would deliver them), charged one `batch_window`: the
    /// slowest completion, then every image's check back to back.
    fn post<B: AsMut<[u8]>>(
        &mut self,
        doorbell: bool,
        ptrs: &[GlobalPtr],
        bufs: &mut [B],
        lens: &mut [usize],
    ) -> Result<bool, CormError> {
        let mut broken = false;
        if !doorbell {
            for k in 0..self.batch.pending.len() {
                let i = self.batch.pending[k];
                match self.read_slot(&ptrs[i], bufs[i].as_mut()) {
                    Ok(ReadOutcome::Ok(n)) => lens[i] = n,
                    Ok(ReadOutcome::Invalid(failure)) => self.file(i, failure),
                    Err(e) if Self::recoverable(&e) => {
                        broken = true;
                        self.batch.retry.push(i);
                    }
                    Err(e) => return Err(CormError::Rdma(e)),
                }
            }
            return Ok(broken);
        }
        self.batch.reqs.clear();
        for k in 0..self.batch.pending.len() {
            let i = self.batch.pending[k];
            let Ok(slot_bytes) = self.slot_bytes(&ptrs[i]) else {
                // As in `read_slot`: it can never match a live object.
                self.failed_direct_reads += 1;
                self.file(i, ReadFailure::NotValid);
                continue;
            };
            // Multi-gets ride the latency class, charged to this client's
            // tenant.
            self.batch.reqs.push(ReadReq {
                tenant: self.tenant,
                ..ReadReq::new(i as u64, ptrs[i].rkey, ptrs[i].vaddr, slot_bytes)
            });
        }
        let s = &mut self.batch;
        let posted = s.reqs.len();
        if posted == 0 {
            return Ok(false);
        }
        if s.out.len() < posted {
            s.out.resize_with(posted, Vec::new);
        }
        self.qp.read_batch_into(&s.reqs, &mut s.out[..posted], self.op.clock, &mut s.results);
        s.order.clear();
        s.order.extend(0..posted);
        let results = &s.results;
        s.order.sort_by_key(|&k| results[k].completed_at);
        let mut batch_end = self.op.clock;
        let mut checks = SimDuration::ZERO;
        for j in 0..posted {
            let k = self.batch.order[j];
            let r = &self.batch.results[k];
            batch_end = batch_end.max(r.completed_at);
            let i = r.wr_id as usize;
            match r.result {
                Err(ref e) if Self::recoverable(e) => {
                    broken = true;
                    self.batch.retry.push(i);
                }
                Err(ref e) => return Err(CormError::Rdma(e.clone())),
                Ok(_) => {
                    let image = &self.batch.out[k];
                    checks += self.server.model().version_check_cost(image.len());
                    match consistency::gather_into(image, Some(ptrs[i].obj_id), bufs[i].as_mut()) {
                        Ok((_, n)) => lens[i] = n,
                        Err(failure) => {
                            self.failed_direct_reads += 1;
                            self.file(i, failure);
                        }
                    }
                }
            }
        }
        self.charge(Stage::BatchWindow, batch_end.saturating_since(self.op.clock) + checks);
        Ok(broken)
    }

    /// Files entry `i`, whose slot image failed validation. A locked or
    /// torn object is there: it goes round again. A mismatching ID *or* a
    /// vacant slot both mean "not at the hint" — relocated, its old slot
    /// maybe freed or reused — and only the repair, by the client's
    /// [`FixStrategy`], can tell relocated from truly gone (§3.2.2).
    fn file(&mut self, i: usize, failure: ReadFailure) {
        let s = &mut self.batch;
        match failure {
            ReadFailure::Locked | ReadFailure::TornRead => s.retry.push(i),
            ReadFailure::IdMismatch { .. } | ReadFailure::NotValid => match self.fix_strategy {
                FixStrategy::ScanRead => s.scan.push(i),
                FixStrategy::RpcRead => s.repair.push(i),
            },
        }
    }

    /// Repairs the round's RPC-routed entries with one `read_many`, which
    /// corrects their pointers in place: one wire round trip for all,
    /// charged after the handlers' summed time. Its arguments are staged in
    /// recycled scratch.
    fn repair_rpc<B: AsMut<[u8]>>(
        &mut self,
        ptrs: &mut [GlobalPtr],
        bufs: &mut [B],
        lens: &mut [usize],
    ) -> Result<(), CormError> {
        let w = self.pick_worker();
        let s = &mut self.batch;
        let n = s.repair.len();
        s.repair_ptrs.clear();
        s.repair_ptrs.extend(s.repair.iter().map(|&i| ptrs[i]));
        if s.repair_bufs.len() < n {
            s.repair_bufs.resize_with(n, Vec::new);
        }
        for (rb, &i) in s.repair_bufs.iter_mut().zip(&s.repair) {
            rb.clear();
            rb.resize(bufs[i].as_mut().len(), 0);
        }
        let handlers =
            self.server.read_many(w, &mut s.repair_ptrs, &mut s.repair_bufs[..n], &mut s.repaired);
        let bytes = s.repaired.iter().map(|r| *r.as_ref().unwrap_or(&0)).sum();
        self.charge(Stage::RepairRpc, handlers);
        self.charge(Stage::RpcWire, self.rpc_wire(bytes));
        let s = &mut self.batch;
        for (k, &i) in s.repair.iter().enumerate() {
            ptrs[i] = s.repair_ptrs[k];
            match &s.repaired[k] {
                Ok(m) => {
                    bufs[i].as_mut()[..*m].copy_from_slice(&s.repair_bufs[k][..*m]);
                    lens[i] = *m;
                }
                Err(CormError::ObjectLocked) => s.retry.push(i),
                Err(e) => return Err(e.clone()),
            }
        }
        Ok(())
    }

    /// Local read through the CoRM API (Fig. 11's local path): same
    /// validation as a DirectRead but no network, using load instructions.
    pub fn local_read(
        &mut self,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
    ) -> Result<Timed<usize>, CormError> {
        let slot_bytes = self.slot_bytes(ptr)?;
        self.image.resize(slot_bytes, 0);
        self.server.aspace().read(ptr.vaddr, &mut self.image)?;
        let cost = self.server.model().local_read_cost(slot_bytes);
        match consistency::gather_into(&self.image, Some(ptr.obj_id), buf) {
            Ok((_, n)) => Ok(Timed::new(n, cost)),
            Err(ReadFailure::IdMismatch { .. } | ReadFailure::NotValid) => {
                // Not at the hint (relocated, or its old slot was freed):
                // fall back to an RPC read, which corrects the pointer.
                let t = self.read(ptr, buf)?;
                Ok(Timed::new(t.value, cost + t.cost))
            }
            Err(_) => Err(CormError::ObjectLocked),
        }
    }
}
