//! Threaded execution mode (§2.2.2).
//!
//! Real worker threads poll per-worker RPC queues, exactly as the paper
//! describes CoRM's workers doing. This is the mode the examples and
//! concurrency tests run in: CPU writers, the compaction leader, and
//! one-sided "NIC" readers (client threads calling into the simulated RNIC)
//! genuinely race, so the consistency machinery is exercised for real.
//!
//! Each worker owns one queue *per traffic class*; clients spray requests
//! round-robin across their class's queues, and a worker whose own queues
//! run dry steals from its siblings before blocking. This keeps workers
//! off a single shared channel lock (throughput scales with `workers`)
//! without ever stranding a request behind a busy worker.
//!
//! When several classes have work queued at one worker, the worker picks
//! by **deficit-weighted virtual time**: the non-empty class with the
//! least `served_ns / weight` serves next, with weights from the node's
//! [`QosConfig`] (`ServerConfig::qos`). A latency-only workload — every
//! workload predating the classes — always finds exactly one non-empty
//! class, so its serve order is the legacy order regardless of weights.
//! Stealing is priority-aware: a worker steals only when *all* of its own
//! queues are dry (so it is provably idle, never backlogged), and scans
//! sibling queues latency class first.
//!
//! Virtual time is kept by a shared Lamport-style clock that advances with
//! each operation's cost, so `rereg_mr` busy windows behave sensibly even
//! without an event loop.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::rpc::{sharded_rpc_channel, Envelope, RpcClient, RpcQueue};
use corm_sim_rdma::TrafficClass;
use corm_trace::{Stage, Track};

use crate::ptr::GlobalPtr;
use crate::server::{CormError, CormServer};

/// RPC request wire format.
#[derive(Debug, Clone)]
pub enum Request {
    /// Allocate `len` bytes.
    Alloc {
        /// Payload length.
        len: usize,
    },
    /// Free the object.
    Free {
        /// Object pointer.
        ptr: GlobalPtr,
    },
    /// Read up to `len` bytes.
    Read {
        /// Object pointer.
        ptr: GlobalPtr,
        /// Bytes wanted.
        len: usize,
    },
    /// Overwrite the object with `data`.
    Write {
        /// Object pointer.
        ptr: GlobalPtr,
        /// New contents.
        data: Vec<u8>,
    },
    /// Release an old pointer (§3.3).
    ReleasePtr {
        /// Object pointer.
        ptr: GlobalPtr,
    },
}

/// RPC response wire format. Successful responses carry the (possibly
/// corrected) pointer back to the client.
#[derive(Debug, Clone)]
pub enum Response {
    /// Alloc/ReleasePtr result.
    Ptr(GlobalPtr),
    /// Read result: corrected pointer + data.
    Data {
        /// Corrected pointer.
        ptr: GlobalPtr,
        /// Object contents.
        data: Vec<u8>,
    },
    /// Free/Write result: corrected pointer.
    Done(GlobalPtr),
    /// Failure.
    Err(CormError),
}

/// How workers map an op's virtual cost onto wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Serve as fast as the host allows (tests, examples). The virtual
    /// clock still advances by each op's cost; it just has no wall-clock
    /// counterpart.
    #[default]
    None,
    /// Each worker stays occupied for the op's virtual cost (a real
    /// `sleep`) before replying. A worker then behaves like one of the
    /// paper's service stations: a single worker serializes its ops'
    /// service times while N workers overlap N of them, so *wall-clock*
    /// throughput scales with worker count even on a single host core.
    /// Used by the scalability benchmarks; the host's sleep granularity
    /// (tens of µs) inflates every op equally and cancels out of
    /// speedup ratios.
    Virtual,
}

/// How many queued RPCs the compaction leader serves per pause-bounded
/// yield before resuming the pass. Bounds the pause the yield itself adds:
/// the pass never stalls behind an unbounded backlog.
const YIELD_SERVE_BURST: usize = 32;

/// Per-worker queue sets, one per traffic class: `queues[class][worker]`.
type ClassedQueues = Vec<Arc<[RpcQueue<Request, Response>]>>;

/// A running threaded CoRM node.
pub struct ThreadedServer {
    server: Arc<CormServer>,
    /// One spraying client per traffic class; index = `TrafficClass`.
    clients: Vec<RpcClient<Request, Response>>,
    queues: ClassedQueues,
    shutdown: Arc<AtomicBool>,
    clock_ns: Arc<AtomicU64>,
    handles: Vec<JoinHandle<u64>>,
}

impl ThreadedServer {
    /// Starts `config.workers` worker threads, each polling its own RPC
    /// queues and stealing from siblings when idle.
    pub fn start(server: Arc<CormServer>) -> Self {
        Self::start_with_pacing(server, Pacing::None)
    }

    /// Starts the workers with an explicit [`Pacing`] mode.
    pub fn start_with_pacing(server: Arc<CormServer>, pacing: Pacing) -> Self {
        let workers = server.config().workers;
        let mut clients = Vec::with_capacity(TrafficClass::COUNT);
        let mut queues: ClassedQueues = Vec::with_capacity(TrafficClass::COUNT);
        for _ in TrafficClass::ALL {
            let (client, qs) = sharded_rpc_channel::<Request, Response>(workers);
            clients.push(client);
            queues.push(qs.into());
        }
        let weights = server
            .config()
            .qos
            .as_ref()
            .map(|q| q.class_weights.map(|w| w.max(1)))
            .unwrap_or([1; TrafficClass::COUNT]);
        let shutdown = Arc::new(AtomicBool::new(false));
        let clock_ns = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queues = queues.clone();
            let server = server.clone();
            let shutdown = shutdown.clone();
            let clock = clock_ns.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(w, server, queues, weights, shutdown, clock, pacing)
            }));
        }
        ThreadedServer { server, clients, queues, shutdown, clock_ns, handles }
    }

    /// A handle clients use to issue RPCs. Requests ride the latency
    /// class — the semantics every caller predating traffic classes gets.
    pub fn rpc_client(&self) -> RpcClient<Request, Response> {
        self.clients[TrafficClass::Latency.index()].clone()
    }

    /// A handle issuing RPCs under an explicit traffic class: bulk-scan
    /// tenants and compaction MTT-sync traffic tag themselves so the
    /// deficit-weighted worker schedule can keep them from crowding out
    /// latency-sensitive gets.
    pub fn rpc_client_class(&self, class: TrafficClass) -> RpcClient<Request, Response> {
        self.clients[class.index()].clone()
    }

    /// The underlying server (for DirectReads via its RNIC and for
    /// compaction control).
    pub fn server(&self) -> &Arc<CormServer> {
        &self.server
    }

    /// Current virtual time (advanced by each served operation's cost).
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.clock_ns.load(Ordering::Relaxed))
    }

    /// Triggers a compaction pass on the leader at the current virtual
    /// time.
    ///
    /// With a configured `compaction_budget` the pass is pause-bounded:
    /// at every yield the leader advances the shared clock by the finished
    /// chunk and serves a bounded burst of queued RPCs itself before the
    /// pass resumes, so requests arriving mid-pass wait at most one budget
    /// (plus the burst) instead of the whole pass. Without a budget the
    /// pass runs to completion exactly as before.
    pub fn compact_class(
        &self,
        class: corm_alloc::ClassId,
    ) -> Result<crate::server::CompactionReport, CormError> {
        let start = self.now();
        let mut advanced = SimDuration::ZERO;
        let timed = {
            let server = &self.server;
            let queues = &self.queues;
            let clock = &self.clock_ns;
            let mut on_yield = |chunk: SimDuration| {
                clock.fetch_add(chunk.as_nanos(), Ordering::Relaxed);
                advanced += chunk;
                for _ in 0..YIELD_SERVE_BURST {
                    // Latency-class work drains first at a yield: the
                    // pause-bounded pass exists to bound exactly that
                    // class's wait.
                    let Some(envelope) = TrafficClass::ALL
                        .iter()
                        .find_map(|c| queues[c.index()].iter().find_map(|q| q.try_poll()))
                    else {
                        break;
                    };
                    server
                        .trace()
                        .wall_ns(Stage::RpcQueueWait, envelope.queue_wait().as_nanos() as u64);
                    let (request, reply) = envelope.into_parts();
                    let (response, _cost) = serve(0, server, clock, request);
                    reply.send(response);
                }
            };
            server.compact_class_with(class, start, &mut on_yield)?
        };
        // Chunks already charged at yields; add the remainder (collection
        // plus the final chunk) so the clock lands exactly at start + cost.
        self.clock_ns.fetch_add((timed.cost - advanced).as_nanos(), Ordering::Relaxed);
        Ok(timed.value)
    }

    /// Stops the workers and returns the number of requests each served.
    ///
    /// Only this handle's RPC sender is dropped; calls issued through
    /// still-live [`Self::rpc_client`] clones after shutdown are not
    /// served and time out with [`corm_sim_rdma::rpc::RpcError::Timeout`].
    /// Drop all clones before (or treat timeouts as disconnection).
    pub fn shutdown(self) -> Vec<u64> {
        self.shutdown.store(true, Ordering::Relaxed);
        drop(self.clients);
        self.handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    }
}

/// Among this worker's own class queues with work, the one owed service:
/// minimal `served_ns / weight`, compared exactly by cross-multiplication,
/// ties to the higher-priority (lower-index) class. `None` when all own
/// queues are dry.
fn pick_class(
    queues: &ClassedQueues,
    home: usize,
    served_ns: &[u64; TrafficClass::COUNT],
    weights: &[u64; TrafficClass::COUNT],
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for c in 0..TrafficClass::COUNT {
        if queues[c][home].is_empty() {
            continue;
        }
        best = Some(match best {
            None => c,
            Some(b) => {
                // served_ns[c]/weights[c] < served_ns[b]/weights[b] ?
                if (served_ns[c] as u128) * (weights[b] as u128)
                    < (served_ns[b] as u128) * (weights[c] as u128)
                {
                    c
                } else {
                    b
                }
            }
        });
    }
    best
}

fn worker_loop(
    worker: usize,
    server: Arc<CormServer>,
    queues: ClassedQueues,
    weights: [u64; TrafficClass::COUNT],
    shutdown: Arc<AtomicBool>,
    clock: Arc<AtomicU64>,
    pacing: Pacing,
) -> u64 {
    let n = queues[0].len();
    let home = worker % n;
    let mut served = 0u64;
    // Virtual service time this worker has granted each class — the
    // deficit-weighted schedule's state.
    let mut served_ns = [0u64; TrafficClass::COUNT];
    let handle = |envelope: Envelope<Request, Response>| {
        // Queue wait is host-scheduling time with no virtual meaning: it
        // feeds the secondary (wall) aggregate only, never the event stream.
        server.trace().wall_ns(Stage::RpcQueueWait, envelope.queue_wait().as_nanos() as u64);
        let (request, reply) = envelope.into_parts();
        let (response, cost) = serve(worker, &server, &clock, request);
        if let Pacing::Virtual = pacing {
            // Model this worker as a real service station: it stays
            // occupied for the op's virtual cost before the reply goes
            // out, so wall-clock throughput reflects overlapped worker
            // occupancy rather than host scheduling artifacts.
            if cost > SimDuration::ZERO {
                std::thread::sleep(Duration::from_nanos(cost.as_nanos()));
            }
        }
        reply.send(response);
        cost
    };
    while !shutdown.load(Ordering::Relaxed) {
        // Own queues first, deficit-weighted across classes; steal from
        // siblings only when every own queue is dry.
        if let Some(c) = pick_class(&queues, home, &served_ns, &weights) {
            if let Some(envelope) = queues[c][home].try_poll() {
                // Charge at least 1ns so zero-cost error replies still
                // rotate the schedule instead of pinning their class.
                served_ns[c] += handle(envelope).as_nanos().max(1);
                served += 1;
            }
            // A dry poll means a sibling stole the entry between the
            // emptiness check and the poll; re-evaluate either way.
            continue;
        }
        // All own queues dry, so this worker is provably idle — stealing
        // latency-class work can never pull it into a backlog. Scan
        // latency first so the highest-priority class migrates first.
        let stolen = TrafficClass::ALL.iter().find_map(|class| {
            let c = class.index();
            (1..n).find_map(|k| queues[c][(home + k) % n].try_poll().map(|e| (c, e)))
        });
        if let Some((c, envelope)) = stolen {
            server.trace().count(Stage::QosSteal);
            served_ns[c] += handle(envelope).as_nanos().max(1);
            served += 1;
            continue;
        }
        // Block briefly on the home latency queue so an idle fleet parks
        // on its own condvars instead of spinning. Bulk and sync arrivals
        // at a fully idle node are picked up within the poll timeout by
        // the next loop iteration.
        let c = TrafficClass::Latency.index();
        if let Some(envelope) = queues[c][home].poll(Duration::from_millis(5)) {
            served_ns[c] += handle(envelope).as_nanos().max(1);
            served += 1;
        }
    }
    // Drain every queue (all classes, latency first) so no accepted
    // request loses its reply on shutdown, even if its home worker
    // already exited.
    loop {
        let mut drained = false;
        for class in TrafficClass::ALL {
            let c = class.index();
            for k in 0..n {
                while let Some(envelope) = queues[c][(home + k) % n].try_poll() {
                    handle(envelope);
                    served += 1;
                    drained = true;
                }
            }
        }
        if !drained {
            break;
        }
    }
    served
}

/// Serves one request, advancing the shared virtual clock by the op's
/// cost. Returns the response and that cost (so a paced worker can model
/// its occupancy).
fn serve(
    worker: usize,
    server: &CormServer,
    clock: &AtomicU64,
    request: Request,
) -> (Response, SimDuration) {
    let advance = |cost: SimDuration| {
        // fetch_add returns the clock *before* this op, which is exactly
        // the span's start on the worker's Lamport timeline.
        let before = clock.fetch_add(cost.as_nanos(), Ordering::Relaxed);
        server.trace().span(
            Track::Worker(worker as u32),
            Stage::WorkerServe,
            0,
            SimTime::from_nanos(before),
            cost,
        );
        cost
    };
    match request {
        Request::Alloc { len } => match server.alloc(worker, len) {
            Ok(t) => (Response::Ptr(t.value), advance(t.cost)),
            Err(e) => (Response::Err(e), SimDuration::ZERO),
        },
        Request::Free { mut ptr } => match server.free(worker, &mut ptr) {
            Ok(t) => (Response::Done(ptr), advance(t.cost)),
            Err(e) => (Response::Err(e), SimDuration::ZERO),
        },
        Request::Read { mut ptr, len } => {
            let mut buf = vec![0u8; len];
            match server.read(worker, &mut ptr, &mut buf) {
                Ok(t) => {
                    let cost = advance(t.cost);
                    buf.truncate(t.value);
                    (Response::Data { ptr, data: buf }, cost)
                }
                Err(e) => (Response::Err(e), SimDuration::ZERO),
            }
        }
        Request::Write { mut ptr, data } => match server.write(worker, &mut ptr, &data) {
            Ok(t) => (Response::Done(ptr), advance(t.cost)),
            Err(e) => (Response::Err(e), SimDuration::ZERO),
        },
        Request::ReleasePtr { mut ptr } => match server.release_ptr(worker, &mut ptr) {
            Ok(t) => (Response::Ptr(t.value), advance(t.cost)),
            Err(e) => (Response::Err(e), SimDuration::ZERO),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;

    fn start() -> ThreadedServer {
        let server =
            Arc::new(CormServer::new(ServerConfig { workers: 4, ..ServerConfig::default() }));
        ThreadedServer::start(server)
    }

    #[test]
    fn alloc_write_read_free_over_rpc() {
        let ts = start();
        let client = ts.rpc_client();
        let ptr = match client.call(Request::Alloc { len: 64 }).unwrap() {
            Response::Ptr(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        match client.call(Request::Write { ptr, data: b"hello threaded corm".to_vec() }).unwrap() {
            Response::Done(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        match client.call(Request::Read { ptr, len: 19 }).unwrap() {
            Response::Data { data, .. } => assert_eq!(&data, b"hello threaded corm"),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(Request::Free { ptr }).unwrap() {
            Response::Done(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        match client.call(Request::Read { ptr, len: 4 }).unwrap() {
            // The freed object is gone; if it was the block's last object
            // the whole block (and its vaddr) was released too.
            Response::Err(CormError::ObjectNotFound | CormError::UnknownBlock(_)) => {}
            other => panic!("freed object should be gone, got {other:?}"),
        }
        let served: u64 = ts.shutdown().iter().sum();
        assert_eq!(served, 5);
    }

    #[test]
    fn concurrent_clients_hammer_the_queue() {
        let ts = start();
        let mut threads = Vec::new();
        for t in 0..8 {
            let client = ts.rpc_client();
            threads.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let ptr = match client.call(Request::Alloc { len: 32 }).unwrap() {
                        Response::Ptr(p) => p,
                        other => panic!("{other:?}"),
                    };
                    let data = format!("t{t}i{i}").into_bytes();
                    match client.call(Request::Write { ptr, data: data.clone() }).unwrap() {
                        Response::Done(_) => {}
                        other => panic!("{other:?}"),
                    }
                    match client.call(Request::Read { ptr, len: data.len() }).unwrap() {
                        Response::Data { data: got, .. } => assert_eq!(got, data),
                        other => panic!("{other:?}"),
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let server = ts.server().clone();
        let elapsed = ts.now();
        let served: u64 = ts.shutdown().iter().sum();
        assert_eq!(server.stats.allocs.load(Ordering::Relaxed), 400);
        // Every request was served exactly once across all workers …
        assert_eq!(served, 8 * 50 * 3);
        // … and the shared virtual clock genuinely advanced while doing
        // so (each served op adds its cost).
        assert!(
            elapsed > SimTime::ZERO,
            "virtual clock must advance while serving 1200 RPCs, got {elapsed:?}"
        );
    }

    #[test]
    fn budgeted_compaction_yields_and_advances_the_clock() {
        let server = Arc::new(CormServer::new(ServerConfig {
            workers: 2,
            compaction_budget: Some(SimDuration::from_micros(1)),
            alloc: corm_alloc::AllocConfig {
                block_bytes: 4096,
                file_bytes: 16 << 20,
                ..Default::default()
            },
            ..ServerConfig::default()
        }));
        let class = crate::consistency::class_for_payload(server.classes(), 32).unwrap();
        let slots = server.block_bytes() / server.classes().size_of(class);
        let ts = ThreadedServer::start(server);
        let client = ts.rpc_client();
        // Fill four blocks, then thin them to 2/5 so the pass has several
        // merges — a 1µs budget yields at every merge boundary.
        let mut ptrs = Vec::new();
        for _ in 0..4 * slots {
            match client.call(Request::Alloc { len: 32 }).unwrap() {
                Response::Ptr(p) => ptrs.push(p),
                other => panic!("{other:?}"),
            }
        }
        for (i, ptr) in ptrs.into_iter().enumerate() {
            if i % 5 >= 2 {
                match client.call(Request::Free { ptr }).unwrap() {
                    Response::Done(_) => {}
                    other => panic!("{other:?}"),
                }
            }
        }
        let before = ts.now();
        let report = ts.compact_class(class).unwrap();
        assert!(report.merges >= 2, "need several merges, got {}", report.merges);
        assert_eq!(report.yields, report.merges - 1, "a 1µs budget yields at every boundary");
        // The queues were idle at every yield, so the clock advanced by
        // exactly the pass's total virtual cost (chunks at yields plus the
        // remainder at the end).
        assert_eq!(ts.now(), before + report.total_cost());
        ts.shutdown();
    }

    #[test]
    fn classed_clients_all_complete_under_one_worker() {
        // One worker, all three classes live at once: the deficit-weighted
        // schedule must stay work-conserving (every request served exactly
        // once) no matter how the weights skew the interleaving.
        let server = Arc::new(CormServer::new(ServerConfig {
            workers: 1,
            qos: Some(corm_sim_rdma::QosConfig::default()),
            ..ServerConfig::default()
        }));
        let ts = ThreadedServer::start(server);
        let mut threads = Vec::new();
        for class in
            [TrafficClass::Bulk, TrafficClass::Bulk, TrafficClass::Sync, TrafficClass::Latency]
        {
            let client = ts.rpc_client_class(class);
            threads.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    match client.call(Request::Alloc { len: 16 }).unwrap() {
                        Response::Ptr(_) => {}
                        other => panic!("{other:?}"),
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let served: u64 = ts.shutdown().iter().sum();
        assert_eq!(served, 200);
    }

    #[test]
    fn bulk_and_sync_classes_round_trip_without_qos_config() {
        // Classed clients work on a node with no QoS config at all: the
        // schedule falls back to equal weights.
        let ts = start();
        let bulk = ts.rpc_client_class(TrafficClass::Bulk);
        let ptr = match bulk.call(Request::Alloc { len: 24 }).unwrap() {
            Response::Ptr(p) => p,
            other => panic!("{other:?}"),
        };
        let sync = ts.rpc_client_class(TrafficClass::Sync);
        match sync.call(Request::Write { ptr, data: b"classed".to_vec() }).unwrap() {
            Response::Done(_) => {}
            other => panic!("{other:?}"),
        }
        match bulk.call(Request::Read { ptr, len: 7 }).unwrap() {
            Response::Data { data, .. } => assert_eq!(&data, b"classed"),
            other => panic!("{other:?}"),
        }
        let served: u64 = ts.shutdown().iter().sum();
        assert_eq!(served, 3);
    }

    #[test]
    fn virtual_clock_advances() {
        let ts = start();
        let client = ts.rpc_client();
        let before = ts.now();
        client.call(Request::Alloc { len: 8 }).unwrap();
        assert!(ts.now() > before);
        ts.shutdown();
    }
}
