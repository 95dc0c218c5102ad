//! DCT-style shared connections: many tenants over one queue pair.
//!
//! A reliable QP's host state is O(clients): each connection owns a send
//! queue, a completion queue, and counters — ~kilobytes per client once
//! the queues have seen a deep batch. At 10⁵–10⁶ clients that state is the
//! scaling limit, which is why Mellanox ships Dynamically Connected
//! Transport (and why NP-RDMA argues for keeping NIC-resident state small
//! and bounded). [`MuxQp`] models that discipline: up to K tenants share
//! one [`QueuePair`]'s send/recv machinery, and each tenant keeps only a
//! [`MuxTenant`] handle plus a ~16-byte accounting slot — per-client
//! memory is O(1) while the wire behaviour (doorbells, engine service,
//! fault draws, break/flush semantics) is exactly the shared QP's.
//!
//! Completion routing works like DCT's: every WQE's `wr_id` is tagged with
//! the issuing tenant's slot in the high bits, and results are routed back
//! with the tag stripped, so callers see the same `wr_id`s they posted.
//! Faults keep reliable-connection semantics on the *shared* connection: a
//! QP break fails every tenant's in-flight WQEs, and one reconnect — by
//! whichever tenant's recovery path gets there first — restores all of
//! them ([`MuxTenant::reconnect`] is idempotent by state, so the remaining
//! tenants' recovery loops find the connection already up and pay
//! nothing).

use std::sync::Arc;

use parking_lot::Mutex;

use corm_sim_core::time::{SimDuration, SimTime};

use crate::qp::{QpState, QueuePair};
use crate::rnic::{RdmaError, Rnic, VerbOutcome};
use crate::wq::{ReadReq, ReadResult};

/// Number of low bits of a `wr_id` left to the tenant; the slot tag lives
/// above them.
const WR_ID_BITS: u32 = 48;
const WR_ID_MASK: u64 = (1 << WR_ID_BITS) - 1;

/// Per-tenant accounting: the only per-client state the shared connection
/// keeps, deliberately a fraction of a cache line. It needs no completion
/// count: `read_batch_into` returns exactly one result per request,
/// flushed ones included.
#[derive(Debug, Clone, Copy, Default)]
struct TenantSlot {
    /// WQEs this tenant posted through the shared QP.
    posted: u64,
}

/// A shared connection multiplexing up to `max_tenants` tenants over one
/// queue pair. Create with [`MuxQp::connect`], then hand each client a
/// [`MuxTenant`] from [`MuxQp::attach`].
#[derive(Debug)]
pub struct MuxQp {
    qp: QueuePair,
    tenants: Mutex<Vec<TenantSlot>>,
    /// Scratch for re-tagging request batches, recycled across calls.
    scratch: Mutex<Vec<ReadReq>>,
    max_tenants: usize,
}

impl MuxQp {
    /// Creates a shared connection to `rnic` admitting up to `max_tenants`
    /// tenants.
    pub fn connect(rnic: Arc<Rnic>, max_tenants: usize) -> Arc<MuxQp> {
        Arc::new(MuxQp {
            qp: QueuePair::connect(rnic),
            tenants: Mutex::new(Vec::new()),
            scratch: Mutex::new(Vec::new()),
            max_tenants: max_tenants.max(1),
        })
    }

    /// Attaches one more tenant, or `None` if the connection is full.
    pub fn attach(self: &Arc<MuxQp>) -> Option<MuxTenant> {
        let mut tenants = self.tenants.lock();
        if tenants.len() >= self.max_tenants {
            return None;
        }
        let slot = tenants.len() as u32;
        tenants.push(TenantSlot::default());
        Some(MuxTenant { mux: Arc::clone(self), slot })
    }

    /// Number of tenants attached.
    pub fn tenants(&self) -> usize {
        self.tenants.lock().len()
    }

    /// The underlying shared queue pair (diagnostics: breaks, reconnects).
    pub fn qp(&self) -> &QueuePair {
        &self.qp
    }

    /// Total bytes of connection state pinned for *all* attached tenants:
    /// the one shared QP plus every tenant's accounting slot and the
    /// re-tagging scratch. Divide by [`MuxQp::tenants`] for the per-client
    /// cost the mux mode is buying down.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.qp.state_bytes()
            + self.tenants.lock().capacity() * std::mem::size_of::<TenantSlot>()
            + self.scratch.lock().capacity() * std::mem::size_of::<ReadReq>()
    }
}

/// One tenant's handle onto a shared [`MuxQp`]. API-compatible with the
/// slice of [`QueuePair`] the client hot paths use, so a client can run
/// over either interchangeably.
#[derive(Debug, Clone)]
pub struct MuxTenant {
    mux: Arc<MuxQp>,
    slot: u32,
}

impl MuxTenant {
    /// This tenant's slot index — also its tenant id for QoS accounting.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The shared connection this tenant rides.
    pub fn mux(&self) -> &Arc<MuxQp> {
        &self.mux
    }

    /// One-sided READ through the shared QP. Errors break the shared
    /// connection for every tenant, per reliable-connection semantics.
    pub fn read(
        &self,
        rkey: u32,
        va: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<VerbOutcome, RdmaError> {
        self.mux.qp.read(rkey, va, buf, now)
    }

    /// Synchronous READ batch through the shared QP, with DCT-style
    /// completion routing: requests are re-tagged with this tenant's slot
    /// (high `wr_id` bits + the QoS tenant field) on the way in, and
    /// results come back with the caller's original `wr_id`s — semantics
    /// otherwise identical to [`QueuePair::read_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if a `wr_id` uses the top 16 bits reserved for the
    /// slot tag.
    pub fn read_batch_into(
        &self,
        reqs: &[ReadReq],
        outs: &mut [Vec<u8>],
        now: SimTime,
        results: &mut Vec<ReadResult>,
    ) {
        let tag = (self.slot as u64) << WR_ID_BITS;
        let mut scratch = self.mux.scratch.lock();
        scratch.clear();
        scratch.extend(reqs.iter().map(|r| {
            debug_assert_eq!(r.wr_id & !WR_ID_MASK, 0, "wr_id collides with the slot tag");
            ReadReq { wr_id: tag | (r.wr_id & WR_ID_MASK), tenant: self.slot, ..*r }
        }));
        self.mux.qp.read_batch_into(&scratch, outs, now, results);
        drop(scratch);
        // Route completions back to this tenant: strip the slot tag so the
        // caller sees its own ids.
        for r in results.iter_mut() {
            debug_assert_eq!((r.wr_id >> WR_ID_BITS) as u32, self.slot, "foreign completion");
            r.wr_id &= WR_ID_MASK;
        }
        self.mux.tenants.lock()[self.slot as usize].posted += reqs.len() as u64;
    }

    /// Recovers the shared connection after a break. The first tenant
    /// through pays the §3.5 reconnect cost and restores *every* tenant;
    /// later tenants find the QP already connected and pay nothing —
    /// which is what lets each tenant run the ordinary client backoff
    /// path unchanged.
    pub fn reconnect(&self) -> SimDuration {
        if self.mux.qp.state() == QpState::Error {
            self.mux.qp.reconnect()
        } else {
            SimDuration::ZERO
        }
    }

    /// Connection state of the shared QP.
    pub fn state(&self) -> QpState {
        self.mux.qp.state()
    }

    /// WQEs this tenant posted; each got exactly one result back.
    pub fn posted(&self) -> u64 {
        self.mux.tenants.lock()[self.slot as usize].posted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rnic::RnicConfig;
    use corm_sim_mem::{AddressSpace, PhysicalMemory};

    fn setup(pages: usize, cfg: RnicConfig) -> (Arc<AddressSpace>, Arc<Rnic>, u64) {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(pages).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), cfg));
        (aspace, rnic, va)
    }

    #[test]
    fn tenants_share_one_qp_with_routed_completions() {
        let (aspace, rnic, va) = setup(4, RnicConfig::default());
        let (mr, _) = rnic.register(va, 4, false).unwrap();
        for i in 0..4u64 {
            aspace.write(va + i * 4096, &[i as u8 + 1; 16]).unwrap();
        }
        let mux = MuxQp::connect(rnic, 8);
        let a = mux.attach().unwrap();
        let b = mux.attach().unwrap();
        assert_eq!((a.slot(), b.slot()), (0, 1));
        let mut outs = vec![Vec::new(); 2];
        let mut results = Vec::new();
        // Tenant A reads pages 0-1 with its own small wr_ids...
        let reqs_a: Vec<ReadReq> =
            (0..2u64).map(|i| ReadReq::new(i, mr.rkey, va + i * 4096, 16)).collect();
        a.read_batch_into(&reqs_a, &mut outs, SimTime::ZERO, &mut results);
        assert_eq!(results.iter().map(|r| r.wr_id).collect::<Vec<_>>(), vec![0, 1]);
        assert!(results.iter().all(|r| r.result.is_ok()));
        assert_eq!(outs[0], [1u8; 16]);
        // ...and tenant B reuses the same wr_ids without collision.
        let reqs_b: Vec<ReadReq> =
            (0..2u64).map(|i| ReadReq::new(i, mr.rkey, va + (i + 2) * 4096, 16)).collect();
        b.read_batch_into(&reqs_b, &mut outs, SimTime::from_micros(9), &mut results);
        assert_eq!(results.iter().map(|r| r.wr_id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(outs[0], [3u8; 16]);
        assert_eq!((a.posted(), b.posted()), (2, 2));
        // One QP absorbed both tenants' traffic.
        let stats = &mux.qp().rnic().stats;
        assert_eq!(stats.wqes.load(std::sync::atomic::Ordering::Relaxed), 4);
        assert_eq!(stats.doorbells.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn attach_refuses_past_capacity() {
        let (_a, rnic, _va) = setup(1, RnicConfig::default());
        let mux = MuxQp::connect(rnic, 2);
        assert!(mux.attach().is_some());
        assert!(mux.attach().is_some());
        assert!(mux.attach().is_none());
        assert_eq!(mux.tenants(), 2);
    }

    #[test]
    fn state_is_o1_per_tenant() {
        // The O(1)-memory claim: per-tenant bytes on a loaded shared
        // connection must be a small fraction of one dedicated QP's state.
        let (_a, rnic, va) = setup(1, RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mux = MuxQp::connect(rnic.clone(), 1024);
        let tenants: Vec<MuxTenant> = (0..1024).map(|_| mux.attach().unwrap()).collect();
        // Dedicated-QP baseline pushed through the same batch shape.
        let own = QueuePair::connect(rnic);
        let reqs: Vec<ReadReq> = (0..16u64).map(|i| ReadReq::new(i, mr.rkey, va, 8)).collect();
        let mut outs = vec![Vec::new(); 16];
        let mut results = Vec::new();
        own.read_batch_into(&reqs, &mut outs, SimTime::ZERO, &mut results);
        for t in tenants.iter().take(4) {
            t.read_batch_into(&reqs, &mut outs, SimTime::ZERO, &mut results);
        }
        let per_tenant = mux.state_bytes().div_ceil(mux.tenants());
        assert!(
            per_tenant * 50 <= own.state_bytes(),
            "per-tenant state {per_tenant} must be ≤ 1/50 of a dedicated QP {}",
            own.state_bytes()
        );
    }

    #[test]
    fn qp_break_fails_all_tenants_and_one_reconnect_recovers_them() {
        use crate::fault::{FaultConfig, FaultKind, ScheduledFault};
        let cfg = RnicConfig {
            faults: Some(FaultConfig::scripted(vec![ScheduledFault {
                at_op: 1,
                kind: FaultKind::QpBreak,
            }])),
            ..RnicConfig::default()
        };
        let (_a, rnic, va) = setup(1, cfg);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mux = MuxQp::connect(rnic, 4);
        let a = mux.attach().unwrap();
        let b = mux.attach().unwrap();
        let mut outs = vec![Vec::new(); 2];
        let mut results = Vec::new();
        let reqs: Vec<ReadReq> = (0..2u64).map(|i| ReadReq::new(i, mr.rkey, va, 8)).collect();
        // Tenant A's second WQE draws the QP break; the shared connection
        // is down for everyone.
        a.read_batch_into(&reqs, &mut outs, SimTime::ZERO, &mut results);
        assert!(results[1].result.is_err());
        assert_eq!(a.state(), QpState::Error);
        // Tenant B's traffic flushes without reaching the NIC.
        b.read_batch_into(&reqs, &mut outs, SimTime::from_micros(5), &mut results);
        assert!(results.iter().all(|r| r.result == Err(RdmaError::QpBroken)));
        // B recovers first and pays the reconnect; A then finds the
        // connection already up and pays nothing.
        assert!(b.reconnect() > SimDuration::ZERO);
        assert_eq!(a.reconnect(), SimDuration::ZERO);
        assert_eq!(mux.qp().reconnects(), 1);
        // Both tenants are live again.
        a.read_batch_into(&reqs, &mut outs, SimTime::from_micros(90), &mut results);
        assert!(results.iter().all(|r| r.result.is_ok()));
        b.read_batch_into(&reqs, &mut outs, SimTime::from_micros(95), &mut results);
        assert!(results.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn fault_replay_is_identical_with_mux_on_and_off() {
        use crate::fault::FaultConfig;
        // Same seeded fault stream, same verb sequence: the NIC must draw
        // identically whether the client rides a dedicated QP or a shared
        // one — the mux re-tags ids, it never changes what reaches the NIC.
        let cfg = || RnicConfig {
            faults: Some(FaultConfig {
                seed: 0xFA57,
                transient_prob: 0.05,
                ..FaultConfig::default()
            }),
            ..RnicConfig::default()
        };
        let run = |mux_mode: bool| {
            let (_a, rnic, va) = setup(2, cfg());
            let (mr, _) = rnic.register(va, 2, false).unwrap();
            let reqs: Vec<ReadReq> =
                (0..4u64).map(|i| ReadReq::new(i, mr.rkey, va + (i % 2) * 4096, 16)).collect();
            let mut outs = vec![Vec::new(); 4];
            let mut results = Vec::new();
            let mut timeline = Vec::new();
            if mux_mode {
                let mux = MuxQp::connect(rnic.clone(), 2);
                let t = mux.attach().unwrap();
                for round in 0..40u64 {
                    t.read_batch_into(
                        &reqs,
                        &mut outs,
                        SimTime::from_micros(round * 40),
                        &mut results,
                    );
                    timeline.extend(
                        results.iter().map(|r| (r.wr_id, r.completed_at, r.result.clone())),
                    );
                    if t.state() == QpState::Error {
                        t.reconnect();
                    }
                }
            } else {
                let qp = QueuePair::connect(rnic.clone());
                for round in 0..40u64 {
                    qp.read_batch_into(
                        &reqs,
                        &mut outs,
                        SimTime::from_micros(round * 40),
                        &mut results,
                    );
                    timeline.extend(
                        results.iter().map(|r| (r.wr_id, r.completed_at, r.result.clone())),
                    );
                    if qp.state() == QpState::Error {
                        qp.reconnect();
                    }
                }
            }
            (timeline, rnic.fault_log())
        };
        let (t_own, log_own) = run(false);
        let (t_mux, log_mux) = run(true);
        assert!(!log_own.is_empty(), "the seeded stream should fire at p=0.05 over 160 verbs");
        assert_eq!(log_own, log_mux, "fault draws must be byte-identical");
        assert_eq!(t_own, t_mux, "completion timelines must be byte-identical");
    }
}
