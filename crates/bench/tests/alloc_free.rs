//! Proof that a steady-state fig12 op, and a steady-state alloc/write/free
//! cycle, are allocation-free.
//!
//! The whole test binary runs under a counting `#[global_allocator]`: after
//! a warm-up phase fills every scratch buffer, the event heap, translation
//! cache, and latency histogram, the measured phase replays the fig12 hot
//! loop's op pipeline — workload draw, event-queue schedule/pop, the four
//! stages of `CormServer::hint`, one-sided `direct_read`, RPC-path
//! `server.write`, FIFO-station admits, torn-read bookkeeping, latency
//! recording — and asserts the allocation counter does not move. Any
//! `vec![..]`/`Box::new`/map-growth regression on the hot path fails this
//! test with the exact allocation count. The second test
//! holds `CormServer::{alloc, write, free}` to the same standard while no
//! block is fetched or released, the third holds a steady
//! `CormClient::read_batch` to exactly one allocation per call, the vector
//! it returns, and the fourth
//! (`steady_direct_read_with_recovery_allocates_nothing`) holds a steady
//! `CormClient::direct_read_with_recovery` to none — a healthy read, and a
//! moved object repaired under each `FixStrategy`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use corm_bench::populate_server;
use corm_bench::simspeed::{FIG12_OBJECTS, FIG12_SIZE, SEED};
use corm_core::client::{CormClient, FixStrategy};
use corm_core::server::{CormServer, ServerConfig};
use corm_core::{GlobalPtr, ReadOutcome};
use corm_sim_core::hash::FastHashMap;
use corm_sim_core::queue::EventQueue;
use corm_sim_core::resource::FifoResource;
use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::stats::Histogram;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_workloads::ycsb::{KeyDist, Mix, Op, Workload};

/// Delegates to the system allocator, counting every allocation (including
/// growth reallocs). Frees are not counted: the invariant under test is
/// "zero allocator round trips per steady-state op", and a free without a
/// matching alloc cannot happen.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static TRAP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn trap_hit(size: usize) {
    // Runs inside the allocator: report without allocating, then abort so
    // the run stops at the offending call site (visible under a debugger).
    let mut msg = *b"TRAP alloc size=00000000\n";
    let mut n = size;
    for i in (16..24).rev() {
        msg[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    unsafe { libc_write(2, msg.as_ptr(), msg.len()) };
    std::process::abort();
}

unsafe fn libc_write(fd: i32, buf: *const u8, len: usize) {
    std::arch::asm!(
        "syscall",
        in("rax") 1usize, in("rdi") fd as usize, in("rsi") buf as usize,
        in("rdx") len, out("rcx") _, out("r11") _,
    );
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRAP.load(Ordering::Relaxed) {
            trap_hit(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRAP.load(Ordering::Relaxed) {
            trap_hit(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The counter is the process's: one measured window at a time.
static WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Allocator round trips `measured` makes, with the `ALLOC_TRAP` debugging
/// aid armed if asked for.
fn allocations_during(measured: impl FnOnce()) -> u64 {
    if std::env::var_os("ALLOC_TRAP").is_some() {
        TRAP.store(true, Ordering::Relaxed);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    measured();
    TRAP.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// One fig12-shaped op: draw from the workload, pay the queue churn, run
/// the real client/server handler, and record the outcome — the same
/// stations `run_closed_loop` drives, minus the parts that only shape
/// virtual time. Returns the op's completion time for requeueing.
#[allow(clippy::too_many_arguments)]
fn one_op(
    op: Op,
    now: SimTime,
    client: &mut CormClient,
    server: &CormServer,
    ptrs: &mut [GlobalPtr],
    buf: &mut [u8],
    payload: &[u8],
    ingress: &mut FifoResource,
    workers: &mut FifoResource,
    nic: &mut FifoResource,
    write_busy: &mut FastHashMap<u64, (SimTime, SimTime)>,
    hist: &mut Histogram,
) -> SimTime {
    let service = SimDuration::from_nanos(500);
    // The loop's lookahead: all four stages of the handler-chain hint.
    for stage in 0..4 {
        server.hint(&ptrs[op.key() as usize], stage);
    }
    match op {
        Op::Write(k) => {
            let ingress_done = ingress.admit(now, service);
            nic.admit(now, service);
            let mut ptr = ptrs[k as usize];
            let t = server.write(0, &mut ptr, payload).expect("steady-state write");
            ptrs[k as usize] = ptr;
            let worker_done = workers.admit(ingress_done, t.cost);
            write_busy.insert(k, (ingress_done, worker_done));
            worker_done
        }
        Op::Read(k) => {
            let ptr = ptrs[k as usize];
            let t = client.direct_read(&ptr, buf, now).expect("qp healthy");
            let torn = match write_busy.get(&k) {
                Some(&(s, e)) if now < e => now + t.cost > s,
                Some(_) => {
                    write_busy.remove(&k);
                    false
                }
                None => false,
            };
            if !torn {
                assert!(matches!(t.value, ReadOutcome::Ok(_)), "steady-state read must validate");
            }
            let done = nic.admit(now, service) + t.cost;
            hist.record_duration(done - now);
            done
        }
    }
}

#[test]
fn steady_state_fig12_op_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let store = populate_server(ServerConfig::default(), FIG12_OBJECTS, FIG12_SIZE);
    let server = store.server.clone();
    let mut ptrs = store.ptrs;
    let mut client = CormClient::connect(server.clone());
    let workload = Workload::new(FIG12_OBJECTS as u64, KeyDist::Zipf(0.99), Mix::BALANCED);
    let mut rng = stream_rng(SEED, 0);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut ingress = FifoResource::new(1);
    let mut workers = FifoResource::new(server.config().workers);
    let mut nic = FifoResource::new(1);
    let mut write_busy: FastHashMap<u64, (SimTime, SimTime)> = FastHashMap::default();
    let mut hist = Histogram::new();
    // The latency histogram (one entry per distinct latency, and a rare
    // queueing delay is a new one) and the write-window map (whose
    // population of written-but-not-yet-reread keys keeps drifting to new
    // highs) are the growers in the loop's bookkeeping; reserve them up
    // front so the measured window stays at exactly zero allocator round
    // trips.
    hist.reserve(64 * 1024);
    write_busy.reserve(2 * FIG12_OBJECTS);
    let mut buf = vec![0u8; FIG12_SIZE];
    let payload = vec![0xA5u8; FIG12_SIZE];

    let mut clock = SimTime::ZERO;
    let run = |ops: usize,
               clock: &mut SimTime,
               client: &mut CormClient,
               ptrs: &mut [GlobalPtr],
               rng: &mut DetRng,
               queue: &mut EventQueue<u32>,
               ingress: &mut FifoResource,
               workers: &mut FifoResource,
               nic: &mut FifoResource,
               write_busy: &mut FastHashMap<u64, (SimTime, SimTime)>,
               hist: &mut Histogram,
               buf: &mut [u8]| {
        queue.schedule(*clock, 0);
        for _ in 0..ops {
            let (now, cid) = queue.pop().expect("queue never drains mid-run");
            *clock = now;
            let op = workload.next_op(rng);
            let done = one_op(
                op, now, client, &server, ptrs, buf, &payload, ingress, workers, nic, write_busy,
                hist,
            );
            queue.schedule(done.max(now + SimDuration::from_nanos(1)), cid);
        }
        // Drain the final requeue so the next phase starts from an empty
        // queue; its timestamp is the queue's notion of "now".
        if let Some((t, _)) = queue.pop() {
            *clock = t;
        }
    };

    // Warm-up: fill scratch vectors, the event heap, the RNIC translation
    // cache (4096 objects × 32 B spans a bounded page set), the histogram's
    // common latencies, and the write-busy map to its steady-state capacity.
    run(
        20_000,
        &mut clock,
        &mut client,
        &mut ptrs,
        &mut rng,
        &mut queue,
        &mut ingress,
        &mut workers,
        &mut nic,
        &mut write_busy,
        &mut hist,
        &mut buf,
    );

    let allocations = allocations_during(|| {
        run(
            20_000,
            &mut clock,
            &mut client,
            &mut ptrs,
            &mut rng,
            &mut queue,
            &mut ingress,
            &mut workers,
            &mut nic,
            &mut write_busy,
            &mut hist,
            &mut buf,
        )
    });
    assert_eq!(
        allocations, 0,
        "steady-state fig12 ops hit the allocator {allocations} times in 20k ops"
    );
}

/// Frees a random quarter of the store, then allocates and writes the same
/// keys back. Key `k` lives in a block of worker `k % workers` and is put
/// back through that worker, so every bin regains exactly the room it lost:
/// no block is fetched; and no block of 85 slots loses all of them to a
/// one-in-four draw, so none is released.
fn churn_cycle(
    server: &CormServer,
    ptrs: &mut [GlobalPtr],
    order: &mut [usize],
    rng: &mut DetRng,
    payload: &[u8],
) {
    let workers = server.config().workers;
    let freed = order.len() / 4;
    for i in 0..freed {
        let j = rand::Rng::gen_range(rng, i..order.len());
        order.swap(i, j);
    }
    for (i, &key) in order[..freed].iter().enumerate() {
        server.free(i % workers, &mut ptrs[key]).expect("steady-state free");
    }
    for &key in &order[..freed] {
        let worker = key % workers;
        ptrs[key] = server.alloc(worker, payload.len()).expect("steady-state alloc").value;
        server.write(worker, &mut ptrs[key], payload).expect("steady-state write");
    }
}

#[test]
fn steady_state_alloc_write_free_cycle_allocates_nothing() {
    const OBJECTS: usize = 32 * 1024;
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let server = CormServer::new(ServerConfig::default());
    let workers = server.config().workers;
    let payload = vec![0x5Au8; FIG12_SIZE];
    let mut ptrs: Vec<GlobalPtr> = (0..OBJECTS)
        .map(|key| server.alloc(key % workers, payload.len()).expect("populate").value)
        .collect();
    let mut order: Vec<usize> = (0..OBJECTS).collect();
    let mut rng = stream_rng(SEED, 1);
    // Warm-up: the handlers' scratch image, and every table at the size the
    // cycle takes it to.
    churn_cycle(&server, &mut ptrs, &mut order, &mut rng, &payload);

    let refills = || server.stats.refills.load(Ordering::Relaxed);
    let blocks = server.active_bytes();
    let refills_before = refills();
    let allocations = allocations_during(|| {
        for _ in 0..3 {
            churn_cycle(&server, &mut ptrs, &mut order, &mut rng, &payload);
        }
    });
    assert_eq!(refills(), refills_before, "the cycle must not fetch a block");
    assert_eq!(server.active_bytes(), blocks, "the cycle must not release a block");
    let ops = 3 * 3 * (OBJECTS / 4);
    assert_eq!(
        allocations, 0,
        "steady-state alloc/write/free hit the allocator {allocations} times in {ops} ops"
    );
}

#[test]
fn steady_state_read_batch_allocates_only_its_result() {
    const DEPTH: usize = 16;
    const CALLS: usize = 2_000;
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let store = populate_server(ServerConfig::default(), FIG12_OBJECTS, FIG12_SIZE);
    let mut client = CormClient::connect(store.server.clone());
    let mut rng = stream_rng(SEED, 2);
    let mut batch = Vec::with_capacity(DEPTH);
    let mut bufs = vec![vec![0u8; FIG12_SIZE]; DEPTH];
    let mut clock = SimTime::ZERO;
    let mut run = |calls: usize| {
        for _ in 0..calls {
            batch.clear();
            batch.extend(
                (0..DEPTH).map(|_| store.ptrs[rand::Rng::gen_range(&mut rng, 0..FIG12_OBJECTS)]),
            );
            let t = client.read_batch(&mut batch, &mut bufs, clock).expect("qp healthy");
            assert_eq!(t.value, [FIG12_SIZE; DEPTH]);
            clock += t.cost;
        }
    };
    // Warm-up: the client's batch scratch and the translation cache.
    run(CALLS);
    let allocations = allocations_during(|| run(CALLS));
    assert_eq!(
        allocations, CALLS as u64,
        "a steady read_batch allocates its `lens` vector and nothing else: {allocations} allocations in {CALLS} calls"
    );
}

#[test]
fn steady_direct_read_with_recovery_allocates_nothing() {
    const CALLS: usize = 2_000;
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let store = populate_server(ServerConfig::default(), FIG12_OBJECTS, FIG12_SIZE);
    // Object 0 carrying the hint of another object of its block: a read
    // finds a live slot holding the wrong ID, as after a compaction.
    let block_bytes = store.server.block_bytes();
    let home = store.ptrs[0];
    let neighbour = store.ptrs[1..]
        .iter()
        .find(|p| p.block_base(block_bytes) == home.block_base(block_bytes))
        .expect("a second object in the first block");
    let stale = GlobalPtr { vaddr: neighbour.vaddr, ..home };
    for fix in [FixStrategy::ScanRead, FixStrategy::RpcRead] {
        let mut client = CormClient::connect_with(store.server.clone(), fix);
        let mut buf = vec![0u8; FIG12_SIZE];
        let mut clock = SimTime::ZERO;
        for (case, ptr) in [("healthy", home), ("moved", stale)] {
            let mut run = |calls: usize| {
                for _ in 0..calls {
                    // A fresh stale copy per call: every call repairs.
                    let mut ptr = ptr;
                    let t = client
                        .direct_read_with_recovery(&mut ptr, &mut buf, clock)
                        .expect("qp healthy");
                    assert_eq!(t.value, FIG12_SIZE);
                    assert_eq!(ptr.vaddr, home.vaddr);
                    clock += t.cost;
                }
            };
            // Warm-up: the client's slot image and scratch, the translation
            // cache.
            run(CALLS);
            let allocations = allocations_during(|| run(CALLS));
            assert_eq!(
                allocations, 0,
                "a steady direct_read_with_recovery ({case}, {fix:?}) hit the allocator {allocations} times in {CALLS} calls"
            );
        }
    }
}
