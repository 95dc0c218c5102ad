//! Threaded execution mode (§2.2.2).
//!
//! Real worker threads poll per-worker RPC queues, exactly as the paper
//! describes CoRM's workers doing. This is the mode the examples and
//! concurrency tests run in: CPU writers, the compaction leader, and
//! one-sided "NIC" readers (client threads calling into the simulated RNIC)
//! genuinely race, so the consistency machinery is exercised for real.
//!
//! Each worker owns one queue; clients spray requests round-robin across
//! the queues, and a worker whose own queue runs dry steals from its
//! siblings before blocking. This keeps workers off a single shared
//! queue lock (throughput scales with `workers`) without ever stranding
//! a request behind a busy worker. RPCs carry no traffic class: the paper
//! never arbitrates between them, and SLO-class arbitration between
//! *verbs* lives in the RNIC's scheduler (DESIGN §13).
//!
//! Each call carries its own one-slot reply channel, so a call whose
//! request is dropped unserved learns so at once instead of waiting out its
//! deadline. The event-driven figure harness does not come through here —
//! it calls the handlers directly and charges virtual time — so the queues
//! carry no latency model of their own.
//!
//! Virtual time is kept by a shared Lamport-style clock that advances with
//! each operation's cost, so `rereg_mr` busy windows behave sensibly even
//! without an event loop.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use corm_sim_core::time::{SimDuration, SimTime};
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

/// How long [`RpcClient::call`] waits for a reply to a queued request.
const CALL_DEADLINE: Duration = Duration::from_secs(30);

/// A queued request and where its reply goes.
struct Call {
    request: Request,
    /// Wall-clock enqueue time. Queue wait is a host-scheduling quantity
    /// with no virtual-time meaning, so it feeds the secondary (wall)
    /// aggregate only, never events.
    enqueued: Instant,
    reply: SyncSender<Response>,
}

/// One worker's queue. `None` once closed: the shutdown drain takes the
/// deque under the lock, so a push either lands before the drain (and is
/// served by it) or finds the queue closed.
struct Queue {
    calls: Mutex<Option<VecDeque<Call>>>,
    ready: Condvar,
}

impl Queue {
    fn open() -> Self {
        Queue { calls: Mutex::new(Some(VecDeque::new())), ready: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, Option<VecDeque<Call>>> {
        // Every critical section is one push, pop or take, each of which
        // leaves the deque valid even if it panics: poisoning is ignored.
        self.calls.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `call`; `false` (and the call dropped) if the queue is closed.
    fn push(&self, call: Call) -> bool {
        let mut calls = self.lock();
        let Some(queue) = calls.as_mut() else {
            return false;
        };
        queue.push_back(call);
        drop(calls);
        self.ready.notify_one();
        true
    }

    /// Non-blocking pop (also the steal primitive for sibling workers).
    fn try_pop(&self) -> Option<Call> {
        self.lock().as_mut()?.pop_front()
    }

    /// Pops, waiting up to `timeout` for a call to arrive.
    fn pop_timeout(&self, timeout: Duration) -> Option<Call> {
        let (mut calls, _) = self
            .ready
            .wait_timeout_while(self.lock(), timeout, |calls| {
                calls.as_ref().is_some_and(VecDeque::is_empty)
            })
            .unwrap_or_else(PoisonError::into_inner);
        calls.as_mut()?.pop_front()
    }

    /// Closes the queue and returns what it held.
    fn close(&self) -> VecDeque<Call> {
        self.lock().take().unwrap_or_default()
    }
}

/// The workers' queues, indexed by worker.
type Queues = Arc<[Queue]>;

/// Errors from a blocking RPC call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The server shut down, or dropped the request unserved.
    Disconnected,
    /// No reply within the deadline.
    Timeout,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Disconnected => write!(f, "rpc server disconnected"),
            RpcError::Timeout => write!(f, "rpc call timed out"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Client side of the RPC queues. Requests are sprayed round-robin across
/// the workers' queues; clones share the rotation counter so concurrent
/// clients spread load rather than marching in step.
#[derive(Clone)]
pub struct RpcClient {
    queues: Queues,
    next: Arc<AtomicUsize>,
}

impl RpcClient {
    /// A client over `workers` fresh queues (at least one).
    fn connect(workers: usize) -> Self {
        let queues = (0..workers.max(1)).map(|_| Queue::open()).collect();
        RpcClient { queues, next: Arc::default() }
    }

    /// Issues a blocking call and waits up to 30 s for the reply.
    pub fn call(&self, request: Request) -> Result<Response, RpcError> {
        self.call_within(request, CALL_DEADLINE)
    }

    fn call_within(&self, request: Request, deadline: Duration) -> Result<Response, RpcError> {
        let (reply, response) = sync_channel(1);
        let queue = &self.queues[self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len()];
        if !queue.push(Call { request, enqueued: Instant::now(), reply }) {
            return Err(RpcError::Disconnected);
        }
        // The worker holds the only sender: a call dropped unserved
        // disconnects the channel rather than leaving it to time out.
        response.recv_timeout(deadline).map_err(|e| match e {
            RecvTimeoutError::Timeout => RpcError::Timeout,
            RecvTimeoutError::Disconnected => RpcError::Disconnected,
        })
    }
}

/// A running threaded CoRM node.
pub struct ThreadedServer {
    server: Arc<CormServer>,
    client: RpcClient,
    shutdown: Arc<AtomicBool>,
    clock_ns: Arc<AtomicU64>,
    handles: Vec<JoinHandle<u64>>,
}

impl ThreadedServer {
    /// Starts `config.workers` worker threads, each polling its own RPC
    /// queue and stealing from siblings when idle.
    pub fn start(server: Arc<CormServer>) -> Self {
        Self::start_with_pacing(server, Pacing::None)
    }

    /// Starts the workers with an explicit [`Pacing`] mode.
    pub fn start_with_pacing(server: Arc<CormServer>, pacing: Pacing) -> Self {
        let workers = server.config().workers;
        let client = RpcClient::connect(workers);
        let shutdown = Arc::new(AtomicBool::new(false));
        let clock_ns = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queues = client.queues.clone();
            let server = server.clone();
            let shutdown = shutdown.clone();
            let clock = clock_ns.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(w, server, queues, shutdown, clock, pacing)
            }));
        }
        ThreadedServer { server, client, shutdown, clock_ns, handles }
    }

    /// A handle clients use to issue RPCs.
    pub fn rpc_client(&self) -> RpcClient {
        self.client.clone()
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
            let queues = &self.client.queues;
            let clock = &self.clock_ns;
            let mut on_yield = |chunk: SimDuration| {
                clock.fetch_add(chunk.as_nanos(), Ordering::Relaxed);
                advanced += chunk;
                for _ in 0..YIELD_SERVE_BURST {
                    let Some(call) = queues.iter().find_map(Queue::try_pop) else {
                        break;
                    };
                    serve(0, server, clock, Pacing::None, call);
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
    /// Every call queued before the workers close the queues is answered;
    /// a call issued through a still-live [`Self::rpc_client`] clone after
    /// that returns [`RpcError::Disconnected`] at once.
    pub fn shutdown(self) -> Vec<u64> {
        self.shutdown.store(true, Ordering::Relaxed);
        self.handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    }
}

fn worker_loop(
    worker: usize,
    server: Arc<CormServer>,
    queues: Queues,
    shutdown: Arc<AtomicBool>,
    clock: Arc<AtomicU64>,
    pacing: Pacing,
) -> u64 {
    let n = queues.len();
    let mut served = 0u64;
    let mut handle = |call| {
        serve(worker, &server, &clock, pacing, call);
        served += 1;
    };
    let sibling = |k: usize| &queues[(worker + k) % n];
    while !shutdown.load(Ordering::Relaxed) {
        // Own queue first; a worker steals only when it is dry, so it is
        // provably idle and stealing can never pull it into a backlog.
        if let Some(call) = queues[worker].try_pop() {
            handle(call);
        } else if let Some(call) = (1..n).find_map(|k| sibling(k).try_pop()) {
            server.trace().count(Stage::RpcSteal);
            handle(call);
        } else if let Some(call) = queues[worker].pop_timeout(Duration::from_millis(5)) {
            // Blocked briefly on the own queue, so an idle fleet parks on
            // its condvars instead of spinning.
            handle(call);
        }
    }
    // Close every queue and serve what it held, so no accepted request
    // loses its reply on shutdown, even if its home worker already exited;
    // a queue another worker closed first comes back empty.
    for k in 0..n {
        for call in sibling(k).close() {
            handle(call);
        }
    }
    served
}

/// Serves one queued request as `worker`: runs its handler, advances the
/// shared virtual clock by the op's cost, and sends the reply.
fn serve(worker: usize, server: &CormServer, clock: &AtomicU64, pacing: Pacing, call: Call) {
    server.trace().wall_ns(Stage::RpcQueueWait, call.enqueued.elapsed().as_nanos() as u64);
    let served = match call.request {
        Request::Alloc { len } => {
            server.alloc(worker, len).map(|t| (Response::Ptr(t.value), t.cost))
        }
        Request::Free { mut ptr } => {
            server.free(worker, &mut ptr).map(|t| (Response::Done(ptr), t.cost))
        }
        Request::Read { mut ptr, len } => {
            let mut buf = vec![0u8; len];
            server.read(worker, &mut ptr, &mut buf).map(|t| {
                buf.truncate(t.value);
                (Response::Data { ptr, data: buf }, t.cost)
            })
        }
        Request::Write { mut ptr, data } => {
            server.write(worker, &mut ptr, &data).map(|t| (Response::Done(ptr), t.cost))
        }
        Request::ReleasePtr { mut ptr } => {
            server.release_ptr(worker, &mut ptr).map(|t| (Response::Ptr(t.value), t.cost))
        }
    };
    let response = match served {
        Ok((response, cost)) => {
            // fetch_add returns the clock *before* this op, which is exactly
            // the span's start on the worker's Lamport timeline.
            let before = clock.fetch_add(cost.as_nanos(), Ordering::Relaxed);
            let start = SimTime::from_nanos(before);
            server.trace().span(Track::Worker(worker as u32), Stage::WorkerServe, 0, start, cost);
            if pacing == Pacing::Virtual && cost > SimDuration::ZERO {
                // Model this worker as a real service station: it stays
                // occupied for the op's virtual cost before the reply goes
                // out, so wall-clock throughput reflects overlapped worker
                // occupancy rather than host scheduling artifacts.
                std::thread::sleep(Duration::from_nanos(cost.as_nanos()));
            }
            response
        }
        Err(e) => Response::Err(e),
    };
    // A caller whose deadline passed has gone; its reply dies here.
    let _ = call.reply.send(response);
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
        let ts = ThreadedServer::start(server.clone());
        // Fill four blocks, then thin them to 2/5 so the pass has several
        // merges — a 1µs budget yields at every merge boundary. The fill
        // runs on one worker's allocator, not through the queues: which
        // worker serves an RPC is scheduled, and a fill split unevenly
        // between the two can leave a single merge.
        let mut ptrs = Vec::new();
        for _ in 0..4 * slots {
            ptrs.push(server.alloc(0, 32).unwrap().value);
        }
        for (i, mut ptr) in ptrs.into_iter().enumerate() {
            if i % 5 >= 2 {
                server.free(0, &mut ptr).unwrap();
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
    fn dry_worker_steals_from_a_sibling_and_shutdown_drains_every_queue() {
        // Two queues, and at most one worker alive at a time, so which
        // worker serves what is forced, not scheduled.
        let trace = corm_trace::TraceHandle::recording();
        let server = Arc::new(CormServer::new(ServerConfig {
            workers: 2,
            trace: trace.clone(),
            ..ServerConfig::default()
        }));
        let client = RpcClient::connect(2);
        let shutdown = Arc::new(AtomicBool::new(false));
        let clock = Arc::new(AtomicU64::new(0));
        let worker0 = {
            let (server, queues, shutdown, clock) =
                (server.clone(), client.queues.clone(), shutdown.clone(), clock.clone());
            std::thread::spawn(move || {
                worker_loop(0, server, queues, shutdown, clock, Pacing::None)
            })
        };
        // The client rotates 0, 1, 0, 1: every second call parks on queue
        // 1, whose worker does not exist. Worker 0 can only reach it by
        // stealing, and the caller is synchronous, so its own queue is dry
        // whenever it does.
        for _ in 0..4 {
            match client.call(Request::Alloc { len: 16 }).unwrap() {
                Response::Ptr(_) => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(trace.counter(Stage::RpcSteal), 2);
        shutdown.store(true, Ordering::Relaxed);
        assert_eq!(worker0.join().unwrap(), 4);
        // Worker 0's drain closed both queues, so a later call is refused.
        assert!(matches!(client.call(Request::Alloc { len: 16 }), Err(RpcError::Disconnected)));

        // No worker is left on four fresh queues: eight blocked callers
        // park two requests on each, because clones share the rotation. A
        // worker that starts after `shutdown` was raised skips its serving
        // loop, so only the drain can answer them.
        let client = RpcClient::connect(4);
        let callers: Vec<_> = (0..8)
            .map(|_| {
                let client = client.clone();
                std::thread::spawn(move || client.call(Request::Alloc { len: 16 }))
            })
            .collect();
        let queued = |q: &Queue| q.lock().as_ref().map_or(0, VecDeque::len);
        while client.queues.iter().map(queued).sum::<usize>() < 8 {
            std::thread::yield_now();
        }
        assert_eq!(client.queues.iter().map(queued).collect::<Vec<_>>(), [2, 2, 2, 2]);
        let queues = client.queues.clone();
        assert_eq!(worker_loop(1, server, queues, shutdown, clock, Pacing::None), 8);
        for caller in callers {
            assert!(matches!(caller.join().unwrap(), Ok(Response::Ptr(_))));
        }
    }

    #[test]
    fn a_call_dropped_unserved_is_disconnected_at_once() {
        let client = RpcClient::connect(1);
        let caller = {
            let client = client.clone();
            std::thread::spawn(move || {
                let start = Instant::now();
                (client.call(Request::Alloc { len: 16 }), start.elapsed())
            })
        };
        let call = loop {
            if let Some(call) = client.queues[0].try_pop() {
                break call;
            }
            std::thread::yield_now();
        };
        assert!(matches!(call.request, Request::Alloc { len: 16 }));
        drop(call);
        let (result, waited) = caller.join().unwrap();
        assert!(matches!(result, Err(RpcError::Disconnected)), "{result:?}");
        assert!(waited < Duration::from_secs(1), "waited {waited:?} for a dropped call");
    }

    #[test]
    fn a_call_nobody_serves_times_out() {
        // The queue keeps the call, and with it the reply's sender.
        let client = RpcClient::connect(1);
        let result = client.call_within(Request::Alloc { len: 16 }, Duration::from_millis(50));
        assert!(matches!(result, Err(RpcError::Timeout)), "{result:?}");
    }

    #[test]
    fn calls_racing_shutdown_are_answered_or_refused_at_once() {
        let ts = start();
        let go = Arc::new(std::sync::Barrier::new(5));
        let callers: Vec<_> = (0..4)
            .map(|_| {
                let (client, go) = (ts.rpc_client(), go.clone());
                std::thread::spawn(move || {
                    go.wait();
                    let mut answered = 0u64;
                    loop {
                        let start = Instant::now();
                        let result = client.call(Request::Alloc { len: 16 });
                        let waited = start.elapsed();
                        assert!(waited < Duration::from_secs(1), "a call waited {waited:?}");
                        match result {
                            Ok(_) => answered += 1,
                            Err(RpcError::Disconnected) => return answered,
                            Err(e) => panic!("{e}"),
                        }
                    }
                })
            })
            .collect();
        go.wait();
        let served: u64 = ts.shutdown().iter().sum();
        let answered: u64 = callers.into_iter().map(|c| c.join().unwrap()).sum();
        // Every call the workers served reached its caller, and every other
        // call was refused: none was left to time out.
        assert_eq!(answered, served);
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
