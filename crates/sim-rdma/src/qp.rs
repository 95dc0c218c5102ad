//! Reliable queue pairs.
//!
//! CoRM only uses reliable QPs (the only kind supporting one-sided reads).
//! The property that matters for the paper is failure semantics: an access
//! with an invalid `r_key` — e.g. during a `rereg_mr` window — moves the QP
//! to the error state, and recovering the connection costs milliseconds
//! (§3.5). CoRM's whole remapping design exists to never trigger this.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use corm_sim_core::time::{SimDuration, SimTime};
use corm_trace::Stage;

use crate::rnic::{RdmaError, Rnic, VerbOutcome};
use crate::wq::{Completion, ReadReq, ReadResult};

/// Connection state of a queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Ready to send/receive.
    Connected,
    /// A failed access moved the QP to the error state; it must be
    /// reconnected before further use.
    Error,
}

/// A reliable connected queue pair bound to a remote NIC.
pub struct QueuePair {
    rnic: Arc<Rnic>,
    state: Mutex<QpState>,
    reconnects: AtomicU64,
    breaks: AtomicU64,
    /// Send queue of the façade: WQEs posted but not yet admitted by a
    /// doorbell.
    sq: Mutex<Vec<ReadReq>>,
    /// Completion queue of the façade: executed/flushed WQEs awaiting
    /// `poll_cq`.
    cq: Mutex<VecDeque<Completion>>,
}

impl std::fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuePair").field("state", &*self.state.lock()).finish()
    }
}

impl QueuePair {
    /// Creates a connected QP targeting `rnic`.
    pub fn connect(rnic: Arc<Rnic>) -> Self {
        QueuePair {
            rnic,
            state: Mutex::new(QpState::Connected),
            reconnects: AtomicU64::new(0),
            breaks: AtomicU64::new(0),
            sq: Mutex::default(),
            cq: Mutex::new(VecDeque::new()),
        }
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        *self.state.lock()
    }

    /// The remote NIC this QP targets.
    pub fn rnic(&self) -> &Arc<Rnic> {
        &self.rnic
    }

    /// One-sided READ through this QP. On any access error the QP breaks.
    pub fn read(
        &self,
        rkey: u32,
        va: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<VerbOutcome, RdmaError> {
        if *self.state.lock() == QpState::Error {
            return Err(RdmaError::QpBroken);
        }
        // Access faults break the connection; memory-bounds errors from
        // the simulated DMA do too (they model PCIe faults).
        self.rnic.read(rkey, va, buf, now).inspect_err(|_| {
            *self.state.lock() = QpState::Error;
            self.breaks.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Enqueues a READ WQE on the send queue as a latency-class request of
    /// the default tenant: shorthand for [`QueuePair::post`].
    pub fn post_read(&self, rkey: u32, va: u64, len: usize, wr_id: u64) {
        self.post(ReadReq::new(wr_id, rkey, va, len));
    }

    /// Enqueues a WQE on the send queue. Nothing executes until
    /// [`QueuePair::ring_doorbell`]; `wr_id` is echoed in the completion.
    ///
    /// `post`, [`QueuePair::post_read`], [`QueuePair::ring_doorbell`] and
    /// [`QueuePair::poll_cq`] are a queued façade over
    /// [`QueuePair::read_batch_into`]'s doorbell. They stay only because
    /// the benchmark's `sim_rdma.batch_queued_ns_per_wqe` cell calls them,
    /// and go with that cell.
    pub fn post(&self, req: ReadReq) {
        self.count_posted(1);
        self.sq.lock().push(req);
    }

    /// Counts `n` WQEs as posted. Posting is free in virtual time (the
    /// doorbell pays); the trace counts the WQEs under `Stage::WqePost`.
    fn count_posted(&self, n: usize) {
        self.rnic.trace().add(Stage::WqePost, n as u64);
    }

    /// One doorbell over `reqs`: the NIC lands request `k`'s payload in
    /// `outs[k]` and appends one result per request to `results`, in
    /// posting order, and a failed WQE moves the QP to the error state; if
    /// the QP is *already* broken, every WQE completes flushed at `now`
    /// without reaching the NIC.
    fn doorbell(
        &self,
        reqs: &[ReadReq],
        now: SimTime,
        outs: &mut [Vec<u8>],
        results: &mut Vec<ReadResult>,
    ) {
        if *self.state.lock() == QpState::Error {
            results.extend(reqs.iter().map(|req| ReadResult::flushed(req, now)));
        } else if self.rnic.serve_doorbell(reqs, now, outs, results) {
            *self.state.lock() = QpState::Error;
            self.breaks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rings the doorbell over the façade's send queue (see
    /// [`QueuePair::post`]): the entire queue is handed to the NIC as one
    /// batch through [`QueuePair::read_batch_into`]'s doorbell. Each
    /// payload lands in a fresh buffer that its [`Completion`] then owns,
    /// and completions are appended to the completion queue for
    /// [`QueuePair::poll_cq`] sorted by completion time (stable, so ties
    /// keep posting order). Returns the number of completions produced.
    pub fn ring_doorbell(&self, now: SimTime) -> usize {
        let wqes = std::mem::take(&mut *self.sq.lock());
        let n = wqes.len();
        if n == 0 {
            return 0;
        }
        let mut outs = vec![Vec::new(); n];
        let mut results = Vec::with_capacity(n);
        let mut cq = self.cq.lock();
        let waiting = cq.len();
        self.doorbell(&wqes, now, &mut outs, &mut results);
        cq.extend(results.into_iter().zip(outs).map(|(r, data)| Completion {
            wr_id: r.wr_id,
            completed_at: r.completed_at,
            data: if r.result.is_ok() { data } else { Vec::new() },
            result: r.result,
        }));
        cq.make_contiguous()[waiting..].sort_by_key(|c| c.completed_at);
        n
    }

    /// One doorbell over a caller-held batch, landing each payload
    /// directly in `outs[k]` (resized to the request's length). The batch
    /// pays a single doorbell cost plus per-WQE engine service. If any WQE
    /// fails the QP moves to the error state and the rest of the batch is
    /// flushed; if the QP is *already* broken, every WQE completes flushed
    /// without reaching the NIC. `results` is cleared and refilled **in
    /// posting order**; callers needing virtual-completion order sort
    /// stably by `completed_at`.
    pub fn read_batch_into(
        &self,
        reqs: &[ReadReq],
        outs: &mut [Vec<u8>],
        now: SimTime,
        results: &mut Vec<ReadResult>,
    ) {
        results.clear();
        if reqs.is_empty() {
            return;
        }
        assert!(outs.len() >= reqs.len(), "one output buffer per request");
        self.count_posted(reqs.len());
        self.doorbell(reqs, now, outs, results);
    }

    /// Drains up to `max` completions from the façade's completion queue
    /// (see [`QueuePair::post`]), oldest (earliest virtual completion
    /// time) first.
    pub fn poll_cq(&self, max: usize) -> Vec<Completion> {
        let mut cq = self.cq.lock();
        let k = max.min(cq.len());
        cq.drain(..k).collect()
    }

    /// Queue depth a reliable connection provisions at creation time:
    /// real verbs providers allocate the send/completion rings from
    /// `max_send_wr` at `ibv_create_qp`, before any traffic flows, so the
    /// host footprint of an RC connection is charged at this depth even
    /// while the simulator's lazily-grown vectors are still small.
    const PROVISIONED_DEPTH: usize = 128;

    /// Bytes of connection state this QP pins on the host: the fixed
    /// struct plus the send/completion rings at provisioned depth (or the
    /// actual backing storage once traffic has grown past it). This is
    /// the per-client cost that clients sharing one QP amortize.
    pub fn state_bytes(&self) -> usize {
        let sq = self.sq.lock().capacity().max(Self::PROVISIONED_DEPTH);
        let cq = self.cq.lock().capacity().max(Self::PROVISIONED_DEPTH);
        std::mem::size_of::<Self>()
            + sq * std::mem::size_of::<ReadReq>()
            + cq * std::mem::size_of::<Completion>()
    }

    /// Re-establishes a broken connection. Returns the recovery cost
    /// ("a few milliseconds", §3.5). A connected QP has nothing to
    /// re-establish: it costs nothing and counts no reconnect, so of the
    /// clients sharing a broken QP the first to recover heals it and the
    /// rest find it up.
    pub fn reconnect(&self) -> SimDuration {
        let mut state = self.state.lock();
        if *state == QpState::Connected {
            return SimDuration::ZERO;
        }
        *state = QpState::Connected;
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        self.rnic.model().qp_reconnect
    }

    /// Number of reconnects performed.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Number of times the QP broke.
    pub fn breaks(&self) -> u64 {
        self.breaks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rnic::RnicConfig;
    use corm_sim_mem::{AddressSpace, PhysicalMemory};

    fn setup() -> (Arc<AddressSpace>, Arc<Rnic>, u64) {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        (aspace, rnic, va)
    }

    #[test]
    fn read_through_connected_qp() {
        let (aspace, rnic, va) = setup();
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let qp = QueuePair::connect(rnic);
        aspace.write(va, b"ping").unwrap();
        let mut buf = [0u8; 4];
        qp.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"ping");
        assert_eq!(qp.state(), QpState::Connected);
        assert_eq!(qp.breaks(), 0);
    }

    #[test]
    fn invalid_rkey_breaks_qp_until_reconnect() {
        let (_aspace, rnic, va) = setup();
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let qp = QueuePair::connect(rnic);
        let mut buf = [0u8; 4];
        assert!(matches!(
            qp.read(0xbad, va, &mut buf, SimTime::ZERO),
            Err(RdmaError::InvalidKey(_))
        ));
        assert_eq!(qp.state(), QpState::Error);
        // Further ops — even valid ones — fail until reconnect.
        assert_eq!(qp.read(mr.rkey, va, &mut buf, SimTime::ZERO), Err(RdmaError::QpBroken));
        let cost = qp.reconnect();
        assert!(cost.as_secs_f64() >= 0.001, "reconnect should cost ms");
        qp.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(qp.reconnects(), 1);
        assert_eq!(qp.breaks(), 1);
    }

    #[test]
    fn reconnect_pays_only_on_a_broken_qp() {
        let (_aspace, rnic, va) = setup();
        let qp = QueuePair::connect(rnic.clone());
        assert_eq!(qp.reconnect(), SimDuration::ZERO);
        assert_eq!(qp.reconnects(), 0);
        let mut buf = [0u8; 4];
        assert!(qp.read(0xbad, va, &mut buf, SimTime::ZERO).is_err());
        assert_eq!(qp.reconnect(), rnic.model().qp_reconnect);
        assert_eq!(qp.reconnects(), 1);
        // Healed: a second sharer's reconnect finds it up and pays nothing.
        assert_eq!(qp.reconnect(), SimDuration::ZERO);
        assert_eq!(qp.reconnects(), 1);
    }

    fn batch_setup(pages: usize) -> (Arc<AddressSpace>, Arc<Rnic>, u64) {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(pages).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        (aspace, rnic, va)
    }

    #[test]
    fn batch_round_trip_preserves_data_and_order() {
        let (aspace, rnic, va) = batch_setup(8);
        let (mr, _) = rnic.register(va, 8, false).unwrap();
        let qp = QueuePair::connect(rnic.clone());
        for i in 0..8u64 {
            aspace.write(va + i * 4096, &[i as u8; 16]).unwrap();
            qp.post_read(mr.rkey, va + i * 4096, 16, i);
        }
        let now = SimTime::from_micros(5);
        assert_eq!(qp.ring_doorbell(now), 8);
        // The doorbell took the whole send queue.
        assert_eq!(qp.ring_doorbell(now), 0);
        let comps = qp.poll_cq(usize::MAX);
        assert_eq!(comps.len(), 8);
        let mut last = SimTime::ZERO;
        for c in &comps {
            assert!(c.is_ok());
            assert_eq!(c.data, vec![c.wr_id as u8; 16]);
            assert!(c.completed_at >= last, "completions must be time-ordered");
            assert!(c.completed_at > now);
            last = c.completed_at;
        }
        assert_eq!(rnic.stats.wqes.load(Ordering::Relaxed), 8);
        assert_eq!(rnic.stats.doorbells.load(Ordering::Relaxed), 1);
        assert_eq!(rnic.engine_admitted(), 8);
        assert!(rnic.engine_busy() > SimDuration::ZERO);
    }

    #[test]
    fn batch_amortizes_doorbell_and_wire_latency() {
        // 8 pipelined reads must finish in far less virtual time than 8
        // sequential round trips: each WQE only adds engine service, not a
        // full wire RTT.
        let (_a1, rnic_b, va_b) = batch_setup(1);
        let (mr_b, _) = rnic_b.register(va_b, 1, false).unwrap();
        let qp_b = QueuePair::connect(rnic_b.clone());
        let reqs: Vec<ReadReq> = (0..8u64).map(|i| ReadReq::new(i, mr_b.rkey, va_b, 32)).collect();
        let mut outs = vec![Vec::new(); 8];
        let mut results = Vec::new();
        qp_b.read_batch_into(&reqs, &mut outs, SimTime::ZERO, &mut results);
        let batch_end = results.iter().map(|r| r.completed_at).max().unwrap();

        let (_a2, rnic_s, va_s) = batch_setup(1);
        let (mr_s, _) = rnic_s.register(va_s, 1, false).unwrap();
        let qp_s = QueuePair::connect(rnic_s);
        let mut seq = SimDuration::ZERO;
        let mut buf = [0u8; 32];
        for _ in 0..8 {
            seq += qp_s.read(mr_s.rkey, va_s, &mut buf, SimTime::ZERO + seq).unwrap().latency;
        }
        let batch = batch_end.saturating_since(SimTime::ZERO);
        assert!(
            batch.as_nanos() * 2 < seq.as_nanos(),
            "batch {batch} should be well under half of sequential {seq}"
        );
        // But batching is not free: the makespan still covers one full
        // round trip plus all the engine service.
        let single = rnic_b.model().rdma_read_latency(32, true);
        assert!(batch > single, "batch {batch} must exceed one RTT {single}");
    }

    #[test]
    fn mid_batch_fault_flushes_rest_without_draws() {
        use crate::fault::{FaultConfig, FaultKind, ScheduledFault};
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let cfg = RnicConfig {
            faults: Some(FaultConfig::scripted(vec![ScheduledFault {
                at_op: 2,
                kind: FaultKind::Transient,
            }])),
            ..RnicConfig::default()
        };
        let rnic = Arc::new(Rnic::new(aspace, cfg));
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let qp = QueuePair::connect(rnic.clone());
        let reqs: Vec<ReadReq> = (0..5u64).map(|i| ReadReq::new(i, mr.rkey, va, 8)).collect();
        let mut outs = vec![Vec::new(); 5];
        let mut results = Vec::new();
        qp.read_batch_into(&reqs, &mut outs, SimTime::ZERO, &mut results);
        assert_eq!(results.len(), 5);
        let ok: Vec<u64> = results.iter().filter(|r| r.result.is_ok()).map(|r| r.wr_id).collect();
        assert_eq!(ok, vec![0, 1]);
        let failed: Vec<_> = results
            .iter()
            .filter(|r| r.result.is_err())
            .map(|r| (r.wr_id, r.result.clone()))
            .collect();
        assert_eq!(failed[0], (2, Err(RdmaError::InjectedFault)));
        assert_eq!(failed[1], (3, Err(RdmaError::QpBroken)));
        assert_eq!(failed[2], (4, Err(RdmaError::QpBroken)));
        // Failures surface at batch arrival, i.e. before the successes.
        let arrival = results[2].completed_at;
        assert!(results[2..].iter().all(|r| r.completed_at == arrival));
        assert!(results[..2].iter().all(|r| r.completed_at > arrival));
        assert_eq!(qp.state(), QpState::Error);
        assert_eq!(qp.breaks(), 1);
        // Flushed WQEs never reached the NIC: only ops 0..=2 drew from the
        // fault stream, so a reconnect-and-repost lands on draw index 3.
        assert_eq!(rnic.stats.wqes.load(Ordering::Relaxed), 3);
        qp.reconnect();
        qp.read_batch_into(&reqs[2..], &mut outs, SimTime::from_micros(50), &mut results);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.result.is_ok()));
        assert_eq!(rnic.fault_log(), vec![(2, FaultKind::Transient)]);
    }

    #[test]
    fn doorbell_on_broken_qp_flushes_everything() {
        let (_aspace, rnic, va) = batch_setup(1);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let qp = QueuePair::connect(rnic.clone());
        let mut buf = [0u8; 4];
        assert!(qp.read(0xbad, va, &mut buf, SimTime::ZERO).is_err());
        assert_eq!(qp.state(), QpState::Error);
        let reqs = [ReadReq::new(7, mr.rkey, va, 4), ReadReq::new(8, mr.rkey, va, 4)];
        let mut outs = vec![Vec::new(); 2];
        let mut results = Vec::new();
        qp.read_batch_into(&reqs, &mut outs, SimTime::ZERO, &mut results);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.result == Err(RdmaError::QpBroken)));
        // The batch never reached the NIC.
        assert_eq!(rnic.stats.wqes.load(Ordering::Relaxed), 0);
        assert_eq!(rnic.stats.doorbells.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn poll_cq_respects_max_and_empty_doorbell_is_noop() {
        let (_aspace, rnic, va) = batch_setup(1);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let qp = QueuePair::connect(rnic);
        assert_eq!(qp.ring_doorbell(SimTime::ZERO), 0);
        for i in 0..4u64 {
            qp.post_read(mr.rkey, va, 8, i);
        }
        qp.ring_doorbell(SimTime::ZERO);
        assert_eq!(qp.poll_cq(3).len(), 3);
        assert_eq!(qp.poll_cq(3).len(), 1);
        assert_eq!(qp.poll_cq(3).len(), 0);
    }

    #[test]
    fn access_during_rereg_window_breaks_qp() {
        let (aspace, rnic, va) = setup();
        let pm = aspace.phys().clone();
        let f_new = pm.alloc().unwrap();
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        let qp = QueuePair::connect(rnic.clone());
        let t0 = SimTime::from_micros(10);
        rnic.rereg(mr.rkey, t0).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(qp.read(mr.rkey, va, &mut buf, t0), Err(RdmaError::RegionBusy(_))));
        assert_eq!(qp.state(), QpState::Error);
    }
}
