//! The client's recovery policy, pinned (§3.2.2, §3.2.3, §3.5): how many
//! times a read is retried, what each retry, repair and reconnect is
//! charged, which error surfaces when the budget runs out, and the exact
//! trace spans of every case — for `direct_read_with_recovery` and for a
//! depth-4 `read_batch`. The expected span lists are literals recorded at
//! commit 23eb98b; a change to the recovery loop that moves one span, one
//! nanosecond or one fault draw fails here.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use corm::core::client::{CormClient, FixStrategy};
use corm::core::header::{LockState, ObjectHeader};
use corm::core::server::{CormError, CormServer, ServerConfig};
use corm::core::GlobalPtr;
use corm::sim_core::time::{SimDuration, SimTime};
use corm::sim_rdma::{FaultConfig, FaultKind, RdmaError, RnicConfig, ScheduledFault};
use corm_trace::TraceHandle;

const SIZE: usize = 48;
const OBJECTS: usize = 8;
/// Ops start off zero so a span stamped with the wrong clock shows.
const START: SimTime = SimTime::from_nanos(1_000_000);
/// The object the single read targets, and the batch's four.
const ONE: usize = 3;
const BATCH: std::ops::Range<usize> = 2..6;
/// Attempts before a torn or locked read gives up.
const ATTEMPTS: u64 = 64;

fn payload(key: usize) -> Vec<u8> {
    (0..SIZE).map(|i| (key * 31 + i) as u8).collect()
}

struct Rig {
    server: Arc<CormServer>,
    client: CormClient,
    ptrs: Vec<GlobalPtr>,
    trace: TraceHandle,
}

/// One worker (so all objects share a block), `breaks` consecutive scripted
/// QP breaks from the first one-sided verb on, eight written objects, and
/// a recorder drained of the set-up's spans.
fn rig(breaks: u64, fix_strategy: FixStrategy) -> Rig {
    let trace = TraceHandle::recording();
    let schedule =
        (0..breaks).map(|at_op| ScheduledFault { at_op, kind: FaultKind::QpBreak }).collect();
    let server = Arc::new(CormServer::new(ServerConfig {
        workers: 1,
        rnic: RnicConfig { faults: Some(FaultConfig::scripted(schedule)), ..RnicConfig::default() },
        trace: trace.clone(),
        ..ServerConfig::default()
    }));
    let mut client = CormClient::connect_with(server.clone(), fix_strategy);
    let ptrs = (0..OBJECTS)
        .map(|key| {
            let mut ptr = client.alloc(SIZE).expect("alloc").value;
            client.write(&mut ptr, &payload(key)).expect("write");
            ptr
        })
        .collect();
    trace.drain();
    Rig { server, client, ptrs, trace }
}

impl Rig {
    /// `direct_read_with_recovery` of object [`ONE`]: cost and pointer.
    fn single(&mut self) -> Result<(SimDuration, GlobalPtr), CormError> {
        let mut ptr = self.ptrs[ONE];
        let mut buf = vec![0u8; SIZE];
        let t = self.client.direct_read_with_recovery(&mut ptr, &mut buf, START)?;
        assert_eq!(t.value, SIZE);
        assert_eq!(buf, payload(ONE));
        Ok((t.cost, ptr))
    }

    /// Depth-4 `read_batch` of objects [`BATCH`]: cost and pointers.
    fn batch(&mut self) -> Result<(SimDuration, Vec<GlobalPtr>), CormError> {
        let mut ptrs = self.ptrs[BATCH].to_vec();
        let mut bufs = vec![vec![0u8; SIZE]; ptrs.len()];
        let t = self.client.read_batch(&mut ptrs, &mut bufs, START)?;
        for (key, buf) in BATCH.zip(&bufs) {
            assert_eq!(buf, &payload(key), "entry {key}");
        }
        assert_eq!(t.value, vec![SIZE; ptrs.len()]);
        Ok((t.cost, ptrs))
    }

    /// Every span since the last call, one `stage at duration` line each,
    /// in the recorder's (time-major) order.
    fn spans(&self) -> String {
        let lines: Vec<String> = self
            .trace
            .drain()
            .iter()
            .map(|e| format!("{} {} {}", e.stage.name(), e.start.as_nanos(), e.dur.as_nanos()))
            .collect();
        lines.join("\n")
    }

    /// Each object now carries the other's offset hint: a read of either
    /// finds a live slot holding the wrong ID, as after a compaction.
    fn cross_hints(&mut self, a: usize, b: usize) {
        let (va, vb) = (self.ptrs[a].vaddr, self.ptrs[b].vaddr);
        self.ptrs[a].vaddr = vb;
        self.ptrs[b].vaddr = va;
    }

    /// Leaves the object `WriteLocked`, as a writer that never finishes.
    fn write_lock(&self, key: usize) {
        let mut header = [0u8; 8];
        let va = self.ptrs[key].vaddr;
        self.server.aspace().read(va, &mut header).expect("header");
        let locked = ObjectHeader::from_bytes(header).with_lock(LockState::WriteLocked);
        self.server.aspace().write(va, &locked.to_bytes()).expect("header");
    }

    fn free(&mut self, key: usize) {
        let mut ptr = self.ptrs[key];
        self.client.free(&mut ptr).expect("free");
        self.trace.drain();
    }

    /// Single READ verbs, batched WQEs and doorbells the NIC has served.
    fn nic_counts(&self) -> (u64, u64, u64) {
        let s = &self.server.rnic().stats;
        (s.reads.load(Relaxed), s.wqes.load(Relaxed), s.doorbells.load(Relaxed))
    }
}

/// Σ min(50 µs · 2^i, 1 ms) over the first `k` reconnects of one op.
fn reconnect_backoffs(k: u64) -> SimDuration {
    (0..k).fold(SimDuration::ZERO, |sum, i| {
        sum + SimDuration::from_micros(50 << i).min(SimDuration::from_millis(1))
    })
}

/// `first`, then 63 retry rounds `period` apart from `second` on, each
/// with `round`'s spans: stage, offset from the round's start, duration.
fn with_retries(first: &str, second: u64, period: u64, round: &[(&str, u64, u64)]) -> String {
    let mut lines = vec![first.to_string()];
    for at in (0..ATTEMPTS - 1).map(|i| second + i * period) {
        lines.extend(round.iter().map(|(stage, off, dur)| format!("{stage} {} {dur}", at + off)));
    }
    lines.join("\n")
}

/// A retried single read: READ, version check, §3.2.3 backoff.
const SINGLE_RETRY: [(&str, u64, u64); 3] =
    [("verb", 0, 1710), ("version_check", 1710, 1), ("backoff", 1711, 5000)];
/// A retried batch of one: doorbell, the window it opens, service, backoff.
const BATCH_RETRY: [(&str, u64, u64); 4] = [
    ("doorbell", 0, 250),
    ("batch_window", 0, 1961),
    ("engine_service", 250, 456),
    ("backoff", 1961, 5000),
];

// (a) k consecutive QP breaks, then success: each break is charged its
// doubling, capped backoff and one reconnect, and nothing else changes.

#[test]
fn single_read_charges_each_break_its_backoff_and_reconnect() {
    let clean = rig(0, FixStrategy::ScanRead).single().expect("clean read").0;
    for (k, spans) in [(1, SINGLE_1_BREAKS), (3, SINGLE_3_BREAKS), (6, SINGLE_6_BREAKS)] {
        let mut r = rig(k, FixStrategy::ScanRead);
        let (cost, _) = r.single().expect("recovers");
        let reconnect = r.server.model().qp_reconnect;
        assert_eq!(cost, reconnect_backoffs(k) + reconnect * k + clean, "k = {k}");
        assert_eq!(r.client.qp_recoveries, k);
        assert_eq!(r.client.qp().breaks(), k);
        assert_eq!(r.spans(), spans, "k = {k}");
    }
}

#[test]
fn batch_charges_each_break_its_doorbell_backoff_and_reconnect() {
    let clean = rig(0, FixStrategy::ScanRead).batch().expect("clean batch").0;
    for (k, spans) in [(1, BATCH_1_BREAKS), (3, BATCH_3_BREAKS), (6, BATCH_6_BREAKS)] {
        let mut r = rig(k, FixStrategy::ScanRead);
        let (cost, _) = r.batch().expect("recovers");
        // A broken round still rang its doorbell: the failing WQE completes
        // at the batch's arrival and the other three are flushed there.
        let per_break = r.server.model().qp_reconnect + r.server.model().doorbell_cost;
        assert_eq!(cost, reconnect_backoffs(k) + per_break * k + clean, "k = {k}");
        assert_eq!(r.client.qp_recoveries, k);
        // One WQE per broken round reached the NIC, then all four.
        assert_eq!(r.nic_counts(), (4, k + 4, k + 1));
        assert_eq!(r.spans(), spans, "k = {k}");
    }
}

// (b) the ninth consecutive break finds the eight reconnects spent.

#[test]
fn ninth_consecutive_break_is_fatal() {
    let mut r = rig(9, FixStrategy::ScanRead);
    assert_eq!(r.single().unwrap_err(), CormError::Rdma(RdmaError::QpBroken));
    assert_eq!(r.client.qp_recoveries, 8);
    assert_eq!(r.spans(), SINGLE_9_BREAKS);

    let mut r = rig(9, FixStrategy::ScanRead);
    assert_eq!(r.batch().unwrap_err(), CormError::Rdma(RdmaError::QpBroken));
    assert_eq!(r.client.qp_recoveries, 8);
    assert_eq!(r.spans(), BATCH_9_BREAKS);
}

// (c) an object that stays locked is `ObjectLocked` after exactly 64
// attempts, whichever route the last attempt took; a freed one is
// `ObjectNotFound` at once.

#[test]
fn locked_object_is_object_locked_after_64_attempts() {
    let expected = with_retries(SINGLE_LOCKED_FIRST, 1_007_561, 6711, &SINGLE_RETRY);
    for fix in [FixStrategy::ScanRead, FixStrategy::RpcRead] {
        let mut r = rig(0, fix);
        r.write_lock(ONE);
        assert_eq!(r.single().unwrap_err(), CormError::ObjectLocked);
        assert_eq!(r.nic_counts(), (ATTEMPTS, 0, 0));
        assert_eq!(r.client.failed_direct_reads, ATTEMPTS);
        assert_eq!(r.spans(), expected, "{fix:?}");

        // Moved *and* locked: every attempt reads the wrong slot and goes to
        // its repair route, which finds the object locked. A failed repair
        // is not charged, so the spans are those of the plain locked case.
        let mut r = rig(0, fix);
        r.cross_hints(ONE, 6);
        r.write_lock(6);
        assert_eq!(r.single().unwrap_err(), CormError::ObjectLocked);
        let scans = if fix == FixStrategy::ScanRead { ATTEMPTS } else { 0 };
        assert_eq!(r.nic_counts(), (ATTEMPTS + scans, 0, 0));
        assert_eq!(r.client.failed_direct_reads, ATTEMPTS);
        assert_eq!(r.spans(), expected, "{fix:?}, moved");
    }
}

#[test]
fn locked_batch_entry_is_object_locked_after_64_rounds() {
    let mut r = rig(0, FixStrategy::ScanRead);
    r.write_lock(ONE);
    assert_eq!(r.batch().unwrap_err(), CormError::ObjectLocked);
    // Four WQEs in the first round, the locked entry alone in 63 more.
    assert_eq!(r.nic_counts(), (ATTEMPTS + 3, ATTEMPTS + 3, ATTEMPTS));
    assert_eq!(r.client.failed_direct_reads, ATTEMPTS);
    assert_eq!(r.spans(), with_retries(BATCH_LOCKED_FIRST, 1_008_452, 6961, &BATCH_RETRY));

    // Moved and locked: the first round's repair RPC corrects the hint and
    // reports the lock; from then on the entry is a plain locked one.
    let mut r = rig(0, FixStrategy::ScanRead);
    r.cross_hints(ONE, 6);
    r.write_lock(6);
    assert_eq!(r.batch().unwrap_err(), CormError::ObjectLocked);
    assert_eq!(r.nic_counts(), (ATTEMPTS + 3, ATTEMPTS + 3, ATTEMPTS));
    assert_eq!(r.client.failed_direct_reads, ATTEMPTS);
    assert_eq!(r.spans(), with_retries(BATCH_MOVED_LOCKED_FIRST, 1_010_952, 6961, &BATCH_RETRY));
}

#[test]
fn freed_object_is_not_found() {
    for fix in [FixStrategy::ScanRead, FixStrategy::RpcRead] {
        let mut r = rig(0, fix);
        r.free(ONE);
        assert_eq!(r.single().unwrap_err(), CormError::ObjectNotFound, "{fix:?}");
        assert_eq!(r.client.failed_direct_reads, 1);
        assert_eq!(r.spans(), SINGLE_FREED, "{fix:?}");
    }
    let mut r = rig(0, FixStrategy::ScanRead);
    r.free(ONE);
    assert_eq!(r.batch().unwrap_err(), CormError::ObjectNotFound);
    assert_eq!(r.nic_counts(), (4, 4, 1));
    assert_eq!(r.spans(), BATCH_FREED);
}

// (d) a moved object is repaired once, by the configured route, and the
// caller's pointer comes back corrected.

#[test]
fn moved_object_is_repaired_once_and_its_pointer_corrected() {
    for (fix, reads, spans) in
        [(FixStrategy::ScanRead, 2, SINGLE_MOVED_SCAN), (FixStrategy::RpcRead, 1, SINGLE_MOVED_RPC)]
    {
        let mut r = rig(0, fix);
        let home = r.ptrs[ONE].vaddr;
        r.cross_hints(ONE, 6);
        let (_, ptr) = r.single().expect("repaired");
        assert_eq!(ptr.vaddr, home, "{fix:?}");
        assert!(ptr.references_old_block());
        assert_eq!(r.nic_counts(), (reads, 0, 0));
        assert_eq!(r.client.failed_direct_reads, 1);
        assert_eq!(r.spans(), spans, "{fix:?}");
    }

    let mut r = rig(0, FixStrategy::ScanRead);
    let homes: Vec<u64> = r.ptrs[BATCH].iter().map(|p| p.vaddr).collect();
    r.cross_hints(ONE, 4);
    let (_, ptrs) = r.batch().expect("repaired");
    assert_eq!(ptrs.iter().map(|p| p.vaddr).collect::<Vec<_>>(), homes);
    // One doorbell, and one `read_many` RPC for both crossed entries.
    assert_eq!(r.nic_counts(), (4, 4, 1));
    assert_eq!(r.client.failed_direct_reads, 2);
    assert_eq!(r.spans(), BATCH_MOVED);
}

const SINGLE_1_BREAKS: &str = "\
fault_draw 1000000 0
backoff 1000000 50000
client_op 1000000 3052561
reconnect 1050000 3000000
mtt_miss 4050000 0
verb 4050000 2560
version_check 4052560 1";

const SINGLE_3_BREAKS: &str = "\
fault_draw 1000000 0
backoff 1000000 50000
client_op 1000000 9352561
reconnect 1050000 3000000
fault_draw 4050000 0
backoff 4050000 100000
reconnect 4150000 3000000
fault_draw 7150000 0
backoff 7150000 200000
reconnect 7350000 3000000
mtt_miss 10350000 0
verb 10350000 2560
version_check 10352560 1";

const SINGLE_6_BREAKS: &str = "\
fault_draw 1000000 0
backoff 1000000 50000
client_op 1000000 20552561
reconnect 1050000 3000000
fault_draw 4050000 0
backoff 4050000 100000
reconnect 4150000 3000000
fault_draw 7150000 0
backoff 7150000 200000
reconnect 7350000 3000000
fault_draw 10350000 0
backoff 10350000 400000
reconnect 10750000 3000000
fault_draw 13750000 0
backoff 13750000 800000
reconnect 14550000 3000000
fault_draw 17550000 0
backoff 17550000 1000000
reconnect 18550000 3000000
mtt_miss 21550000 0
verb 21550000 2560
version_check 21552560 1";

const SINGLE_9_BREAKS: &str = "\
fault_draw 1000000 0
backoff 1000000 50000
reconnect 1050000 3000000
fault_draw 4050000 0
backoff 4050000 100000
reconnect 4150000 3000000
fault_draw 7150000 0
backoff 7150000 200000
reconnect 7350000 3000000
fault_draw 10350000 0
backoff 10350000 400000
reconnect 10750000 3000000
fault_draw 13750000 0
backoff 13750000 800000
reconnect 14550000 3000000
fault_draw 17550000 0
backoff 17550000 1000000
reconnect 18550000 3000000
fault_draw 21550000 0
backoff 21550000 1000000
reconnect 22550000 3000000
fault_draw 25550000 0
backoff 25550000 1000000
reconnect 26550000 3000000
fault_draw 29550000 0";

const BATCH_1_BREAKS: &str = "\
batch_window 1000000 250
doorbell 1000000 250
client_op 1000000 3053702
fault_draw 1000250 0
backoff 1000250 50000
reconnect 1050250 3000000
doorbell 4050250 250
batch_window 4050250 3452
mtt_miss 4050500 0
engine_service 4050500 576
engine_service 4051076 456
engine_service 4051532 456
engine_service 4051988 456";

const BATCH_3_BREAKS: &str = "\
batch_window 1000000 250
doorbell 1000000 250
client_op 1000000 9354202
fault_draw 1000250 0
backoff 1000250 50000
reconnect 1050250 3000000
batch_window 4050250 250
doorbell 4050250 250
fault_draw 4050500 0
backoff 4050500 100000
reconnect 4150500 3000000
batch_window 7150500 250
doorbell 7150500 250
fault_draw 7150750 0
backoff 7150750 200000
reconnect 7350750 3000000
doorbell 10350750 250
batch_window 10350750 3452
mtt_miss 10351000 0
engine_service 10351000 576
engine_service 10351576 456
engine_service 10352032 456
engine_service 10352488 456";

const BATCH_6_BREAKS: &str = "\
batch_window 1000000 250
doorbell 1000000 250
client_op 1000000 20554952
fault_draw 1000250 0
backoff 1000250 50000
reconnect 1050250 3000000
batch_window 4050250 250
doorbell 4050250 250
fault_draw 4050500 0
backoff 4050500 100000
reconnect 4150500 3000000
batch_window 7150500 250
doorbell 7150500 250
fault_draw 7150750 0
backoff 7150750 200000
reconnect 7350750 3000000
batch_window 10350750 250
doorbell 10350750 250
fault_draw 10351000 0
backoff 10351000 400000
reconnect 10751000 3000000
batch_window 13751000 250
doorbell 13751000 250
fault_draw 13751250 0
backoff 13751250 800000
reconnect 14551250 3000000
batch_window 17551250 250
doorbell 17551250 250
fault_draw 17551500 0
backoff 17551500 1000000
reconnect 18551500 3000000
doorbell 21551500 250
batch_window 21551500 3452
mtt_miss 21551750 0
engine_service 21551750 576
engine_service 21552326 456
engine_service 21552782 456
engine_service 21553238 456";

const BATCH_9_BREAKS: &str = "\
batch_window 1000000 250
doorbell 1000000 250
fault_draw 1000250 0
backoff 1000250 50000
reconnect 1050250 3000000
batch_window 4050250 250
doorbell 4050250 250
fault_draw 4050500 0
backoff 4050500 100000
reconnect 4150500 3000000
batch_window 7150500 250
doorbell 7150500 250
fault_draw 7150750 0
backoff 7150750 200000
reconnect 7350750 3000000
batch_window 10350750 250
doorbell 10350750 250
fault_draw 10351000 0
backoff 10351000 400000
reconnect 10751000 3000000
batch_window 13751000 250
doorbell 13751000 250
fault_draw 13751250 0
backoff 13751250 800000
reconnect 14551250 3000000
batch_window 17551250 250
doorbell 17551250 250
fault_draw 17551500 0
backoff 17551500 1000000
reconnect 18551500 3000000
batch_window 21551500 250
doorbell 21551500 250
fault_draw 21551750 0
backoff 21551750 1000000
reconnect 22551750 3000000
batch_window 25551750 250
doorbell 25551750 250
fault_draw 25552000 0
backoff 25552000 1000000
reconnect 26552000 3000000
batch_window 29552000 250
doorbell 29552000 250
fault_draw 29552250 0";

const SINGLE_LOCKED_FIRST: &str = "\
mtt_miss 1000000 0
verb 1000000 2560
version_check 1002560 1
backoff 1002561 5000";

const BATCH_LOCKED_FIRST: &str = "\
doorbell 1000000 250
batch_window 1000000 3452
mtt_miss 1000250 0
engine_service 1000250 576
engine_service 1000826 456
engine_service 1001282 456
engine_service 1001738 456
backoff 1003452 5000";

const BATCH_MOVED_LOCKED_FIRST: &str = "\
doorbell 1000000 250
batch_window 1000000 3452
mtt_miss 1000250 0
engine_service 1000250 576
engine_service 1000826 456
engine_service 1001282 456
engine_service 1001738 456
repair_rpc 1003452 0
rpc_wire 1003452 2500
backoff 1005952 5000";

const SINGLE_FREED: &str = "\
mtt_miss 1000000 0
verb 1000000 2560
version_check 1002560 1";

const BATCH_FREED: &str = "\
doorbell 1000000 250
batch_window 1000000 3452
mtt_miss 1000250 0
engine_service 1000250 576
engine_service 1000826 456
engine_service 1001282 456
engine_service 1001738 456
repair_rpc 1003452 0
rpc_wire 1003452 2500";

const SINGLE_MOVED_SCAN: &str = "\
mtt_miss 1000000 0
verb 1000000 2560
client_op 1000000 5004
version_check 1002560 1
verb 1002561 2314
scan 1004875 129";

const SINGLE_MOVED_RPC: &str = "\
mtt_miss 1000000 0
verb 1000000 2560
client_op 1000000 5973
version_check 1002560 1
repair_rpc 1002561 3412";

const BATCH_MOVED: &str = "\
doorbell 1000000 250
batch_window 1000000 3452
client_op 1000000 7776
mtt_miss 1000250 0
engine_service 1000250 576
engine_service 1000826 456
engine_service 1001282 456
engine_service 1001738 456
repair_rpc 1003452 1810
rpc_wire 1005262 2514";
