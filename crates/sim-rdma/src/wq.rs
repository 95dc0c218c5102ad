//! Work-queue elements and completions for the batched verb path.
//!
//! Real RNICs are asynchronous: the driver appends work-queue elements
//! (WQEs) to a send queue in host memory, rings a doorbell once (an MMIO
//! write), and the NIC fetches and executes the whole batch, pushing one
//! completion-queue entry per WQE. Throughput comes from keeping many WQEs
//! in flight so the per-verb doorbell/fetch overhead is amortized and the
//! inbound engine never idles — the effect behind CoRM's Fig. 11/12
//! plateaus. CoRM's clients post one-sided READs only (writes travel by
//! RPC, §3.2), so a WQE is a [`ReadReq`].
//! [`crate::QueuePair::read_batch_into`] rings one doorbell over a
//! caller-held batch and hands back [`ReadResult`]s;
//! [`crate::QueuePair::post`] enqueues one WQE,
//! [`crate::QueuePair::ring_doorbell`] runs the same doorbell over the
//! queue, and [`crate::QueuePair::poll_cq`] drains [`Completion`]s in
//! virtual-time order.

use corm_sim_core::time::SimTime;

use crate::rnic::{RdmaError, VerbOutcome};
use crate::sched::TrafficClass;

/// A completion-queue entry: the outcome of one executed (or flushed) WQE.
///
/// Per reliable-connection semantics, the first failing WQE moves the QP to
/// the error state and every later WQE of the batch completes *flushed*
/// with [`RdmaError::QpBroken`] — without ever reaching the NIC (flushed
/// WQEs consume no fault-injector draws, so replay determinism matches the
/// sequential path, which would not have issued them either).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The `wr_id` of the WQE this completion belongs to.
    pub wr_id: u64,
    /// Virtual time at which the verb completed (engine service plus the
    /// remaining wire latency). For failed/flushed WQEs this is the batch
    /// arrival time: errors are reported as soon as the NIC sees them.
    pub completed_at: SimTime,
    /// Verb outcome, or the error that failed/flushed the WQE.
    pub result: Result<VerbOutcome, RdmaError>,
    /// Payload read by the WQE (empty for failures), owned by the caller.
    pub data: Vec<u8>,
}

impl Completion {
    /// Whether the WQE completed successfully.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// A READ work-queue element: one entry of a send queue awaiting a doorbell,
/// or of a synchronous batch ([`crate::QueuePair::read_batch_into`]). A
/// copyable record, so batches can live in a caller-recycled vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadReq {
    /// Caller-chosen identifier echoed back in the matching result.
    pub wr_id: u64,
    /// Remote key of the target region.
    pub rkey: u32,
    /// Target virtual address.
    pub va: u64,
    /// Number of bytes to read.
    pub len: usize,
    /// Tenant the request is charged to by the QoS scheduler.
    pub tenant: u32,
    /// SLO class the request rides under the QoS scheduler.
    pub class: TrafficClass,
}

impl ReadReq {
    /// A latency-class request of the default tenant — the common case for
    /// unshared QPs.
    pub fn new(wr_id: u64, rkey: u32, va: u64, len: usize) -> Self {
        ReadReq { wr_id, rkey, va, len, tenant: 0, class: TrafficClass::Latency }
    }
}

/// The outcome of one synchronous READ-batch entry: a [`Completion`]
/// without the payload, which lands directly in the caller's buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// The `wr_id` of the request this result belongs to.
    pub wr_id: u64,
    /// Virtual time at which the verb completed; same semantics as
    /// [`Completion::completed_at`], including failed/flushed entries
    /// completing at batch arrival.
    pub completed_at: SimTime,
    /// Verb outcome, or the error that failed/flushed the request.
    pub result: Result<VerbOutcome, RdmaError>,
}

impl ReadResult {
    /// `req` flushed at `at` with [`RdmaError::QpBroken`], never having
    /// reached the NIC.
    pub(crate) fn flushed(req: &ReadReq, at: SimTime) -> Self {
        ReadResult { wr_id: req.wr_id, completed_at: at, result: Err(RdmaError::QpBroken) }
    }
}
