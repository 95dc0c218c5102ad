//! The CoRM client library — the Table 2 API.
//!
//! A [`CormClient`] holds a connection to a CoRM node: an RPC path for
//! `Alloc`/`Free`/`Read`/`Write`/`ReleasePtr` and a reliable queue pair for
//! one-sided `DirectRead`/`ScanRead`. One-sided reads validate the fetched
//! object client-side (§3.2.2–§3.2.3): cacheline versions must agree, the
//! lock bits must be clear, and the object ID must match the pointer. On an
//! ID mismatch the client recovers by either an RPC read (server-side
//! correction) or a [`ScanRead`](CormClient::scan_read) of the whole block,
//! then fixes the pointer's offset hint in place.

use std::sync::Arc;

use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::{MuxTenant, QueuePair, RdmaError, ReadReq, ReadResult, VerbOutcome};
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

/// Client-side configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Recovery strategy for relocated objects.
    pub fix_strategy: FixStrategy,
    /// Retries for torn/locked reads before giving up.
    pub max_retries: usize,
    /// Backoff between retries (§3.2.3: "the read is repeated after a
    /// backoff period").
    pub backoff: SimDuration,
    /// QP reconnect attempts per operation before giving up (§3.5: a break
    /// is survivable but costs milliseconds — a persistently broken fabric
    /// must eventually surface as an error).
    pub max_reconnects: usize,
    /// Base backoff before a QP reconnect; doubles per consecutive
    /// reconnect within one operation, capped at `reconnect_backoff_cap`.
    pub reconnect_backoff: SimDuration,
    /// Upper bound on the exponential reconnect backoff.
    pub reconnect_backoff_cap: SimDuration,
    /// Seed for worker selection.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            fix_strategy: FixStrategy::ScanRead,
            max_retries: 64,
            backoff: SimDuration::from_micros(5),
            max_reconnects: 8,
            reconnect_backoff: SimDuration::from_micros(50),
            reconnect_backoff_cap: SimDuration::from_millis(1),
            seed: 0xC11E,
        }
    }
}

/// The client's connection to the node: a dedicated reliable QP (the
/// default, O(QP) host state per client), or one tenant slot on a
/// DCT-style shared connection ([`MuxTenant`], O(1) state per client) —
/// the Fig. 21 scale mode. Both expose the same verb surface, and the
/// dedicated arm delegates straight to [`QueuePair`], so a client built
/// without mux behaves bit-identically to one predating this enum.
// A client embeds exactly one `Conn` — never collections of them — so the
// Own/Mux size disparity wastes nothing, while boxing the QP would put an
// indirection on every verb.
#[allow(clippy::large_enum_variant)]
enum Conn {
    /// A dedicated queue pair owned by this client.
    Own(QueuePair),
    /// A tenant slot on a shared [`corm_sim_rdma::MuxQp`].
    Mux(MuxTenant),
}

impl Conn {
    fn read(
        &self,
        rkey: u32,
        va: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<VerbOutcome, RdmaError> {
        match self {
            Conn::Own(qp) => qp.read(rkey, va, buf, now),
            Conn::Mux(t) => t.read(rkey, va, buf, now),
        }
    }

    fn write(
        &self,
        rkey: u32,
        va: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<VerbOutcome, RdmaError> {
        match self {
            Conn::Own(qp) => qp.write(rkey, va, data, now),
            Conn::Mux(t) => t.write(rkey, va, data, now),
        }
    }

    fn read_batch_into(
        &self,
        reqs: &[ReadReq],
        outs: &mut [Vec<u8>],
        now: SimTime,
        results: &mut Vec<ReadResult>,
    ) {
        match self {
            Conn::Own(qp) => qp.read_batch_into(reqs, outs, now, results),
            Conn::Mux(t) => t.read_batch_into(reqs, outs, now, results),
        }
    }

    /// Re-establishes the connection after a break. On a shared
    /// connection only the first tenant through pays ([`MuxTenant`] is
    /// idempotent-by-state); a dedicated QP always pays, as before.
    fn reconnect(&self) -> SimDuration {
        match self {
            Conn::Own(qp) => qp.reconnect(),
            Conn::Mux(t) => t.reconnect(),
        }
    }

    /// The underlying queue pair — the client's own, or the shared one.
    fn qp(&self) -> &QueuePair {
        match self {
            Conn::Own(qp) => qp,
            Conn::Mux(t) => t.mux().qp(),
        }
    }

    /// Host connection-state bytes attributable to *this* client: the
    /// whole QP when dedicated, the per-tenant share when multiplexed.
    fn state_bytes(&self) -> usize {
        match self {
            Conn::Own(qp) => qp.state_bytes(),
            Conn::Mux(t) => t.mux().bytes_per_tenant(),
        }
    }
}

/// Result classification of a raw DirectRead attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The object was read consistently; payload bytes copied out.
    Ok(usize),
    /// The read failed validation (relocated / locked / torn / freed).
    Invalid(ReadFailure),
}

/// A connected CoRM client.
pub struct CormClient {
    server: Arc<CormServer>,
    conn: Conn,
    config: ClientConfig,
    rng: DetRng,
    /// Trace recorder, shared with the server node (disabled by default).
    trace: TraceHandle,
    /// Monotone per-client op counter; spans of one operation (the op
    /// itself plus every leaf charge) share this id so exporters can
    /// reconcile leaf sums against op totals.
    op_seq: u64,
    /// DirectReads that failed validation (Fig. 13's conflict counter).
    pub failed_direct_reads: u64,
    /// QP breaks this client recovered from by reconnecting (§3.5).
    pub qp_recoveries: u64,
    /// Scratch for the batched read path, recycled across calls so the
    /// hot loop posts, serves, and validates without allocating: the
    /// request records, one slot-image buffer per request, the results,
    /// and the completion-order permutation.
    batch_reqs: Vec<ReadReq>,
    batch_out: Vec<Vec<u8>>,
    batch_results: Vec<ReadResult>,
    batch_order: Vec<usize>,
    /// Scratch for the batch retry/repair bookkeeping: the pending and
    /// next-round index lists, the indices routed to the repair RPC, and
    /// that RPC's pointer/buffer arguments. Recycled like the batch
    /// scratch above so a retrying multi-get allocates nothing after
    /// warm-up.
    batch_pending: Vec<usize>,
    batch_retry: Vec<usize>,
    repair_idx: Vec<usize>,
    repair_ptrs: Vec<GlobalPtr>,
    repair_bufs: Vec<Vec<u8>>,
    /// Recycled slot/block image for DirectRead and ScanRead: the DMA
    /// fully overwrites the fetched range and validation happens before
    /// any payload copy, so reuse is invisible to callers.
    image_scratch: Vec<u8>,
}

impl std::fmt::Debug for CormClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CormClient").finish()
    }
}

impl CormClient {
    /// Connects to a server (CreateCtx in Table 2).
    pub fn connect(server: Arc<CormServer>) -> Self {
        Self::connect_with(server, ClientConfig::default())
    }

    /// Connects with explicit client configuration.
    pub fn connect_with(server: Arc<CormServer>, config: ClientConfig) -> Self {
        let conn = Conn::Own(QueuePair::connect(server.rnic().clone()));
        Self::with_conn(server, config, conn)
    }

    /// Connects over a DCT-style shared connection (Fig. 21 scale mode):
    /// the client occupies one tenant slot of a
    /// [`corm_sim_rdma::MuxQp`] instead of owning a queue pair, dropping
    /// its host connection state to O(1). Attach the tenant with
    /// [`corm_sim_rdma::MuxQp::attach`] on a mux connected to
    /// [`CormServer::rnic`].
    pub fn connect_mux(server: Arc<CormServer>, tenant: MuxTenant) -> Self {
        Self::connect_mux_with(server, ClientConfig::default(), tenant)
    }

    /// [`Self::connect_mux`] with explicit client configuration.
    pub fn connect_mux_with(
        server: Arc<CormServer>,
        config: ClientConfig,
        tenant: MuxTenant,
    ) -> Self {
        Self::with_conn(server, config, Conn::Mux(tenant))
    }

    fn with_conn(server: Arc<CormServer>, config: ClientConfig, conn: Conn) -> Self {
        let rng = stream_rng(config.seed, 0);
        let trace = server.trace().clone();
        CormClient {
            server,
            conn,
            config,
            rng,
            trace,
            op_seq: 0,
            failed_direct_reads: 0,
            qp_recoveries: 0,
            batch_reqs: Vec::new(),
            batch_out: Vec::new(),
            batch_results: Vec::new(),
            batch_order: Vec::new(),
            batch_pending: Vec::new(),
            batch_retry: Vec::new(),
            repair_idx: Vec::new(),
            repair_ptrs: Vec::new(),
            repair_bufs: Vec::new(),
            image_scratch: Vec::new(),
        }
    }

    /// The server this client talks to.
    pub fn server(&self) -> &Arc<CormServer> {
        &self.server
    }

    /// The client's queue pair (diagnostics) — its own, or the shared one
    /// when connected through a mux.
    pub fn qp(&self) -> &QueuePair {
        self.conn.qp()
    }

    /// Whether this client rides a DCT-style shared connection.
    pub fn is_mux(&self) -> bool {
        matches!(self.conn, Conn::Mux(_))
    }

    /// Host connection-state bytes attributable to this client (the
    /// Fig. 21 per-client memory curve): its whole QP when dedicated, its
    /// share of the mux when multiplexed.
    pub fn conn_state_bytes(&self) -> usize {
        self.conn.state_bytes()
    }

    fn pick_worker(&mut self) -> usize {
        let workers = self.server.config().workers;
        rand::Rng::gen_range(&mut self.rng, 0..workers)
    }

    /// Allocates the next client-op id for trace spans. Ops that error out
    /// simply leave their leaves without an op span; the reconciler only
    /// audits ops that produced a total.
    fn begin_op(&mut self) -> u64 {
        self.op_seq += 1;
        self.op_seq
    }

    /// Whether an RDMA error is survivable by reconnecting the QP: the
    /// connection broke (or a transient NIC/PCIe fault broke it), but the
    /// region, keys, and data are intact.
    fn recoverable(e: &RdmaError) -> bool {
        matches!(e, RdmaError::QpBroken | RdmaError::InjectedFault | RdmaError::RegionBusy(_))
    }

    /// Reconnects the QP after a recoverable fault, charging an
    /// exponentially-backed-off delay (doubling per consecutive attempt,
    /// capped) plus the §3.5 reconnect cost to the operation. Errors out
    /// once `max_reconnects` attempts are spent.
    fn recover_qp(
        &mut self,
        op: u64,
        attempt: &mut usize,
        total: &mut SimDuration,
        clock: &mut SimTime,
    ) -> Result<(), CormError> {
        if *attempt >= self.config.max_reconnects {
            return Err(CormError::Rdma(RdmaError::QpBroken));
        }
        let shift = (*attempt).min(10) as u32;
        let mut backoff = self.config.reconnect_backoff * (1u64 << shift);
        if backoff > self.config.reconnect_backoff_cap {
            backoff = self.config.reconnect_backoff_cap;
        }
        let reconnect = self.conn.reconnect();
        self.trace.span(Track::Client, Stage::Backoff, op, *clock, backoff);
        self.trace.span(Track::Client, Stage::Reconnect, op, *clock + backoff, reconnect);
        let cost = backoff + reconnect;
        *total += cost;
        *clock += cost;
        self.qp_recoveries += 1;
        *attempt += 1;
        Ok(())
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
        let op = self.begin_op();
        let t = self.direct_read_at(ptr, buf, now, op)?;
        self.trace.span(Track::Client, Stage::ClientOp, op, now, t.cost);
        Ok(t)
    }

    /// [`Self::direct_read`] body, tagging leaf spans with `op` so recovery
    /// loops can charge attempts to their enclosing operation.
    fn direct_read_at(
        &mut self,
        ptr: &GlobalPtr,
        buf: &mut [u8],
        now: SimTime,
        op: u64,
    ) -> Result<Timed<ReadOutcome>, RdmaError> {
        let mut image = std::mem::take(&mut self.image_scratch);
        let r = self.direct_read_inner(ptr, buf, now, op, &mut image);
        self.image_scratch = image;
        r
    }

    fn direct_read_inner(
        &mut self,
        ptr: &GlobalPtr,
        buf: &mut [u8],
        now: SimTime,
        op: u64,
        image: &mut Vec<u8>,
    ) -> Result<Timed<ReadOutcome>, RdmaError> {
        let slot_bytes = match self.slot_bytes(ptr) {
            Ok(n) => n,
            // Signal through the validation channel: a bad class byte can
            // never match a live object.
            Err(_) => {
                self.failed_direct_reads += 1;
                return Ok(Timed::new(
                    ReadOutcome::Invalid(ReadFailure::NotValid),
                    SimDuration::ZERO,
                ));
            }
        };
        image.resize(slot_bytes, 0);
        let verb = self.conn.read(ptr.rkey, ptr.vaddr, &mut image[..], now)?;
        let check = self.server.model().version_check_cost(slot_bytes);
        self.trace.span(Track::Client, Stage::Verb, op, now, verb.latency);
        self.trace.span(Track::Client, Stage::VersionCheck, op, now + verb.latency, check);
        let cost = verb.latency + check;
        match consistency::gather_into(image, Some(ptr.obj_id), buf) {
            Ok((_, n)) => Ok(Timed::new(ReadOutcome::Ok(n), cost)),
            Err(failure) => {
                self.failed_direct_reads += 1;
                Ok(Timed::new(ReadOutcome::Invalid(failure), cost))
            }
        }
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
        let op = self.begin_op();
        let t = self.scan_read_at(ptr, buf, now, op)?;
        self.trace.span(Track::Client, Stage::ClientOp, op, now, t.cost);
        Ok(t)
    }

    /// [`Self::scan_read`] body, tagging leaf spans with `op`.
    fn scan_read_at(
        &mut self,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
        now: SimTime,
        op: u64,
    ) -> Result<Timed<usize>, CormError> {
        let mut image = std::mem::take(&mut self.image_scratch);
        let r = self.scan_read_inner(ptr, buf, now, op, &mut image);
        self.image_scratch = image;
        r
    }

    fn scan_read_inner(
        &mut self,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
        now: SimTime,
        op: u64,
        image: &mut Vec<u8>,
    ) -> Result<Timed<usize>, CormError> {
        let block_bytes = self.server.block_bytes();
        let slot_bytes = self.slot_bytes(ptr)?;
        let base = ptr.block_base(block_bytes);
        image.resize(block_bytes, 0);
        let verb = self.conn.read(ptr.rkey, base, &mut image[..], now)?;
        let model = self.server.model();
        let slots = block_bytes / slot_bytes;
        let mut cost = verb.latency + model.scan_cost(slots);
        for slot in 0..slots {
            let off = slot * slot_bytes;
            let slice = &image[off..off + slot_bytes];
            let header =
                ObjectHeader::from_bytes(slice[..HEADER_BYTES].try_into().expect("header"));
            if !header.valid || header.obj_id != ptr.obj_id {
                continue;
            }
            cost += model.version_check_cost(slot_bytes);
            match consistency::gather_into(slice, Some(ptr.obj_id), buf) {
                Ok((_, n)) => {
                    ptr.correct_offset(block_bytes, off);
                    // One Scan leaf covers everything past the wire: the
                    // header sweep plus each candidate's version check.
                    self.trace.span(Track::Client, Stage::Verb, op, now, verb.latency);
                    self.trace.span(
                        Track::Client,
                        Stage::Scan,
                        op,
                        now + verb.latency,
                        cost.saturating_sub(verb.latency),
                    );
                    return Ok(Timed::new(n, cost));
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
    /// charged to the returned [`Timed`] cost.
    ///
    /// When retries run out the error reflects the *last* observed state:
    /// [`CormError::ObjectLocked`] if the object was transiently locked or
    /// torn (the caller should back off and try again), never a spurious
    /// `ObjectNotFound`.
    pub fn direct_read_with_recovery(
        &mut self,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<Timed<usize>, CormError> {
        let op = self.begin_op();
        let mut total = SimDuration::ZERO;
        let mut clock = now;
        let mut reconnects = 0usize;
        let mut locked_last = false;
        for _ in 0..self.config.max_retries {
            let attempt = match self.direct_read_at(ptr, buf, clock, op) {
                Ok(t) => t,
                Err(e) if Self::recoverable(&e) => {
                    self.recover_qp(op, &mut reconnects, &mut total, &mut clock)?;
                    continue;
                }
                Err(e) => return Err(CormError::Rdma(e)),
            };
            total += attempt.cost;
            clock += attempt.cost;
            match attempt.value {
                ReadOutcome::Ok(n) => {
                    self.trace.span(Track::Client, Stage::ClientOp, op, now, total);
                    return Ok(Timed::new(n, total));
                }
                ReadOutcome::Invalid(ReadFailure::Locked)
                | ReadOutcome::Invalid(ReadFailure::TornRead) => {
                    locked_last = true;
                    self.trace.span(Track::Client, Stage::Backoff, op, clock, self.config.backoff);
                    total += self.config.backoff;
                    clock += self.config.backoff;
                }
                // A mismatching ID *or* a vacant slot both mean "the object
                // is not at the hint" — it may have been relocated while
                // its old slot was freed or reused. Only the repair path
                // can distinguish relocated from truly gone.
                ReadOutcome::Invalid(ReadFailure::IdMismatch { .. } | ReadFailure::NotValid) => {
                    locked_last = false;
                    // The object moved: repair per strategy (§3.2.2).
                    match self.config.fix_strategy {
                        FixStrategy::ScanRead => match self.scan_read_at(ptr, buf, clock, op) {
                            Ok(t) => {
                                total += t.cost;
                                self.trace.span(Track::Client, Stage::ClientOp, op, now, total);
                                return Ok(Timed::new(t.value, total));
                            }
                            Err(CormError::ObjectLocked) => {
                                locked_last = true;
                                self.trace.span(
                                    Track::Client,
                                    Stage::Backoff,
                                    op,
                                    clock,
                                    self.config.backoff,
                                );
                                total += self.config.backoff;
                                clock += self.config.backoff;
                            }
                            Err(CormError::Rdma(e)) if Self::recoverable(&e) => {
                                self.recover_qp(op, &mut reconnects, &mut total, &mut clock)?;
                            }
                            Err(e) => return Err(e),
                        },
                        FixStrategy::RpcRead => match self.read(ptr, buf) {
                            Ok(t) => {
                                // The RPC's virtual time counts toward the
                                // op like every other repair cost.
                                self.trace.span(Track::Client, Stage::RepairRpc, op, clock, t.cost);
                                total += t.cost;
                                clock += t.cost;
                                self.trace.span(Track::Client, Stage::ClientOp, op, now, total);
                                return Ok(Timed::new(t.value, total));
                            }
                            Err(CormError::ObjectLocked) => {
                                locked_last = true;
                                self.trace.span(
                                    Track::Client,
                                    Stage::Backoff,
                                    op,
                                    clock,
                                    self.config.backoff,
                                );
                                total += self.config.backoff;
                                clock += self.config.backoff;
                            }
                            Err(e) => return Err(e),
                        },
                    }
                }
            }
        }
        Err(if locked_last { CormError::ObjectLocked } else { CormError::ObjectNotFound })
    }

    /// Batched DirectRead (multi-get, the FaRM-style client pattern CoRM
    /// §4.2 benchmarks against): issues one READ per pointer under a
    /// single doorbell so the whole batch shares one doorbell cost and
    /// pipelines through the RNIC inbound engine, then validates every
    /// completion per §3.2.2–§3.2.3. The wire work runs through the
    /// synchronous [`QueuePair::read_batch_into`] path — slot images DMA
    /// into client-recycled scratch buffers with virtual-time, fault, and
    /// statistics semantics identical to post/doorbell/poll.
    ///
    /// Only failed entries are repaired, and each failure class keeps its
    /// sequential-path semantics:
    /// - torn/locked entries are re-posted after the §3.2.3 backoff;
    /// - relocated entries (ID mismatch / vacant slot, including corrupt
    ///   class bytes) are repaired through **one batched RPC**
    ///   ([`CormServer::read_many`]) that corrects their pointers in place;
    /// - verb failures reconnect the QP once and re-post every failed and
    ///   flushed WQE in posting order — flushed WQEs never reached the NIC,
    ///   so the fault-injector draw sequence is byte-identical to the
    ///   sequential recovery loop.
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
        let n = ptrs.len();
        let mut lens = vec![0usize; n];
        if n == 0 {
            return Ok(Timed::new(lens, SimDuration::ZERO));
        }
        let op = self.begin_op();
        // Clone the Arc, not the ~400-byte model: the reference must
        // outlive mutable borrows of the batch scratch fields below.
        let server = Arc::clone(&self.server);
        let model = server.model();
        let mut total = SimDuration::ZERO;
        let mut clock = now;
        let mut reconnects = 0usize;
        let mut locked_last = false;
        // The round-trip bookkeeping lives in recycled client scratch:
        // taken out for the duration of the call (so the borrow checker
        // sees plain locals) and restored before returning.
        let mut pending = std::mem::take(&mut self.batch_pending);
        let mut next_pending = std::mem::take(&mut self.batch_retry);
        let mut repair = std::mem::take(&mut self.repair_idx);
        pending.clear();
        pending.extend(0..n);
        let outcome = 'retry: {
            for _ in 0..self.config.max_retries {
                // A corrupt class byte can never match a live object: such
                // entries skip the wire and go straight to the repair RPC,
                // like the sequential path's NotValid route.
                repair.clear();
                next_pending.clear();
                self.batch_reqs.clear();
                for &i in pending.iter() {
                    match self.slot_bytes(&ptrs[i]) {
                        Ok(slot_bytes) => {
                            // Multi-gets ride the latency class; on a shared
                            // connection the mux re-tags the tenant itself.
                            self.batch_reqs.push(ReadReq::new(
                                i as u64,
                                ptrs[i].rkey,
                                ptrs[i].vaddr,
                                slot_bytes,
                            ));
                        }
                        Err(_) => {
                            self.failed_direct_reads += 1;
                            repair.push(i);
                        }
                    }
                }
                let mut need_reconnect = false;
                let mut locked_any = false;
                let posted = self.batch_reqs.len();
                if posted > 0 {
                    // Slot images DMA straight into the client's recycled
                    // scratch buffers — the synchronous path with identical
                    // virtual-time and fault semantics to post/doorbell/poll.
                    while self.batch_out.len() < posted {
                        self.batch_out.push(Vec::new());
                    }
                    self.conn.read_batch_into(
                        &self.batch_reqs,
                        &mut self.batch_out[..posted],
                        clock,
                        &mut self.batch_results,
                    );
                    debug_assert_eq!(self.batch_results.len(), posted);
                    // Walk results in virtual completion order — the order
                    // poll_cq would have delivered them — so the repair and
                    // retry lists keep their queued-path ordering.
                    self.batch_order.clear();
                    self.batch_order.extend(0..posted);
                    let results = &self.batch_results;
                    self.batch_order.sort_by_key(|&k| results[k].completed_at);
                    let mut batch_end = clock;
                    let mut checks = SimDuration::ZERO;
                    for &k in self.batch_order.iter() {
                        let r = &self.batch_results[k];
                        batch_end = batch_end.max(r.completed_at);
                        let i = r.wr_id as usize;
                        match r.result {
                            Err(ref e) if Self::recoverable(e) => {
                                need_reconnect = true;
                                next_pending.push(i);
                            }
                            Err(ref e) => break 'retry Err(CormError::Rdma(e.clone())),
                            Ok(_) => {
                                let image = &self.batch_out[k];
                                checks += model.version_check_cost(image.len());
                                match consistency::gather_into(
                                    image,
                                    Some(ptrs[i].obj_id),
                                    &mut bufs[i],
                                ) {
                                    Ok((_, m)) => lens[i] = m,
                                    Err(ReadFailure::Locked) | Err(ReadFailure::TornRead) => {
                                        self.failed_direct_reads += 1;
                                        locked_any = true;
                                        next_pending.push(i);
                                    }
                                    Err(_) => {
                                        self.failed_direct_reads += 1;
                                        repair.push(i);
                                    }
                                }
                            }
                        }
                    }
                    // The client is blocked until the slowest completion
                    // lands, then validates all images back-to-back on the
                    // CPU.
                    let makespan = batch_end.saturating_since(clock) + checks;
                    self.trace.span(Track::Client, Stage::BatchWindow, op, clock, makespan);
                    total += makespan;
                    clock += makespan;
                }
                if !repair.is_empty() {
                    let w = self.pick_worker();
                    // The repair RPC's arguments come from recycled scratch
                    // too: pointers are copied in, and each entry's staging
                    // buffer is re-zeroed in place (no per-entry Vec).
                    self.repair_ptrs.clear();
                    self.repair_ptrs.extend(repair.iter().map(|&i| ptrs[i]));
                    while self.repair_bufs.len() < repair.len() {
                        self.repair_bufs.push(Vec::new());
                    }
                    for (k, &i) in repair.iter().enumerate() {
                        let rb = &mut self.repair_bufs[k];
                        rb.clear();
                        rb.resize(bufs[i].len(), 0);
                    }
                    let t = server.read_many(
                        w,
                        &mut self.repair_ptrs,
                        &mut self.repair_bufs[..repair.len()],
                    );
                    // One RPC carries the whole repair batch: a single wire
                    // round trip amortized over every repaired entry.
                    let repaired: usize = t.value.iter().map(|r| *r.as_ref().unwrap_or(&0)).sum();
                    let wire = self.rpc_wire(repaired);
                    self.trace.span(Track::Client, Stage::RepairRpc, op, clock, t.cost);
                    self.trace.span(Track::Client, Stage::RpcWire, op, clock + t.cost, wire);
                    let cost = t.cost + wire;
                    total += cost;
                    clock += cost;
                    let mut fatal = None;
                    for (k, &i) in repair.iter().enumerate() {
                        ptrs[i] = self.repair_ptrs[k];
                        match &t.value[k] {
                            Ok(m) => {
                                bufs[i][..*m].copy_from_slice(&self.repair_bufs[k][..*m]);
                                lens[i] = *m;
                            }
                            Err(CormError::ObjectLocked) => {
                                locked_any = true;
                                next_pending.push(i);
                            }
                            Err(e) => {
                                fatal = Some(e.clone());
                                break;
                            }
                        }
                    }
                    if let Some(e) = fatal {
                        break 'retry Err(e);
                    }
                }
                if need_reconnect {
                    if let Err(e) = self.recover_qp(op, &mut reconnects, &mut total, &mut clock) {
                        break 'retry Err(e);
                    }
                }
                if next_pending.is_empty() {
                    self.trace.span(Track::Client, Stage::ClientOp, op, now, total);
                    break 'retry Ok(total);
                }
                if locked_any && !need_reconnect {
                    self.trace.span(Track::Client, Stage::Backoff, op, clock, self.config.backoff);
                    total += self.config.backoff;
                    clock += self.config.backoff;
                }
                locked_last = locked_any;
                // Re-post in posting (index) order so retried WQEs draw
                // from the fault stream exactly as the sequential loop
                // would.
                next_pending.sort_unstable();
                std::mem::swap(&mut pending, &mut next_pending);
            }
            Err(if locked_last { CormError::ObjectLocked } else { CormError::ObjectNotFound })
        };
        self.batch_pending = pending;
        self.batch_retry = next_pending;
        self.repair_idx = repair;
        outcome.map(|total| Timed::new(lens, total))
    }

    /// One-sided write with full recovery: fetches the slot image to learn
    /// the current version, validates it, then writes back the re-scattered
    /// image with a bumped version. Retries locked/torn images after a
    /// backoff, falls back to an RPC write when the object was relocated
    /// (which also corrects the pointer), and survives QP breaks by
    /// reconnecting with capped exponential backoff — all charged to the
    /// returned [`Timed`] cost.
    ///
    /// Like FaRM-style one-sided writes, this assumes the caller is the
    /// object's single writer; concurrent writers to the *same object* must
    /// coordinate through the RPC path.
    pub fn write_with_recovery(
        &mut self,
        ptr: &mut GlobalPtr,
        data: &[u8],
        now: SimTime,
    ) -> Result<Timed<()>, CormError> {
        let mut image = std::mem::take(&mut self.image_scratch);
        let r = self.write_with_recovery_inner(ptr, data, now, &mut image);
        self.image_scratch = image;
        r
    }

    /// [`Self::write_with_recovery`] body over the recycled slot image:
    /// the read verb fully overwrites it and the write-back re-scatters it
    /// in place, so one buffer serves every retry without allocating.
    fn write_with_recovery_inner(
        &mut self,
        ptr: &mut GlobalPtr,
        data: &[u8],
        now: SimTime,
        image: &mut Vec<u8>,
    ) -> Result<Timed<()>, CormError> {
        let slot_bytes = self.slot_bytes(ptr)?;
        if data.len() > consistency::layout(slot_bytes).capacity {
            return Err(CormError::PayloadTooLarge(data.len()));
        }
        let op = self.begin_op();
        // Clone the Arc, not the ~400-byte model: the reference must
        // outlive mutable borrows of the batch scratch fields below.
        let server = Arc::clone(&self.server);
        let model = server.model();
        let mut total = SimDuration::ZERO;
        let mut clock = now;
        let mut reconnects = 0usize;
        let mut locked_last = false;
        for _ in 0..self.config.max_retries {
            image.resize(slot_bytes, 0);
            let verb = match self.conn.read(ptr.rkey, ptr.vaddr, &mut image[..], clock) {
                Ok(v) => v,
                Err(e) if Self::recoverable(&e) => {
                    self.recover_qp(op, &mut reconnects, &mut total, &mut clock)?;
                    continue;
                }
                Err(e) => return Err(CormError::Rdma(e)),
            };
            let check = model.version_check_cost(slot_bytes);
            self.trace.span(Track::Client, Stage::Verb, op, clock, verb.latency);
            self.trace.span(Track::Client, Stage::VersionCheck, op, clock + verb.latency, check);
            let cost = verb.latency + check;
            total += cost;
            clock += cost;
            match consistency::gather_into(image, Some(ptr.obj_id), &mut []) {
                Ok((header, _)) => {
                    // Re-scatter in place: the validated image is dead
                    // after the header is extracted.
                    consistency::scatter_into(header.bump_version(), data, slot_bytes, image);
                    match self.conn.write(ptr.rkey, ptr.vaddr, image, clock) {
                        Ok(v) => {
                            let copy = model.copy_cost(data.len());
                            self.trace.span(Track::Client, Stage::Verb, op, clock, v.latency);
                            self.trace.span(
                                Track::Client,
                                Stage::Copy,
                                op,
                                clock + v.latency,
                                copy,
                            );
                            total += v.latency + copy;
                            self.trace.span(Track::Client, Stage::ClientOp, op, now, total);
                            return Ok(Timed::new((), total));
                        }
                        Err(e) if Self::recoverable(&e) => {
                            // The write never completed; loop back to
                            // re-read so a retry stays idempotent.
                            self.recover_qp(op, &mut reconnects, &mut total, &mut clock)?;
                        }
                        Err(e) => return Err(CormError::Rdma(e)),
                    }
                }
                Err(ReadFailure::Locked) | Err(ReadFailure::TornRead) => {
                    locked_last = true;
                    self.trace.span(Track::Client, Stage::Backoff, op, clock, self.config.backoff);
                    total += self.config.backoff;
                    clock += self.config.backoff;
                }
                Err(ReadFailure::IdMismatch { .. }) | Err(ReadFailure::NotValid) => {
                    // Relocated: the RPC write finds the object server-side
                    // and corrects the pointer.
                    match self.write(ptr, data) {
                        Ok(t) => {
                            self.trace.span(Track::Client, Stage::RepairRpc, op, clock, t.cost);
                            total += t.cost;
                            clock += t.cost;
                            self.trace.span(Track::Client, Stage::ClientOp, op, now, total);
                            return Ok(Timed::new((), total));
                        }
                        Err(CormError::ObjectLocked) => {
                            locked_last = true;
                            self.trace.span(
                                Track::Client,
                                Stage::Backoff,
                                op,
                                clock,
                                self.config.backoff,
                            );
                            total += self.config.backoff;
                            clock += self.config.backoff;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Err(if locked_last { CormError::ObjectLocked } else { CormError::ObjectNotFound })
    }

    /// Local read through the CoRM API (Fig. 11's local path): same
    /// validation as a DirectRead but no network, using load instructions.
    pub fn local_read(
        &mut self,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
    ) -> Result<Timed<usize>, CormError> {
        let mut image = std::mem::take(&mut self.image_scratch);
        let r = self.local_read_inner(ptr, buf, &mut image);
        self.image_scratch = image;
        r
    }

    /// [`Self::local_read`] body over the recycled slot image.
    fn local_read_inner(
        &mut self,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
        image: &mut Vec<u8>,
    ) -> Result<Timed<usize>, CormError> {
        let slot_bytes = self.slot_bytes(ptr)?;
        image.resize(slot_bytes, 0);
        self.server.aspace().read(ptr.vaddr, image)?;
        let cost = self.server.model().local_read_cost(slot_bytes);
        match consistency::gather_into(image, Some(ptr.obj_id), buf) {
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
