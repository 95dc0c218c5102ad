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
//! channel lock (throughput scales with `workers`) without ever stranding
//! a request behind a busy worker. RPCs carry no traffic class: the paper
//! never arbitrates between them, and SLO-class arbitration between
//! *verbs* lives in the RNIC's scheduler (DESIGN §13).
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

/// The workers' queues, indexed by worker.
type Queues = Arc<[RpcQueue<Request, Response>]>;

/// A running threaded CoRM node.
pub struct ThreadedServer {
    server: Arc<CormServer>,
    client: RpcClient<Request, Response>,
    queues: Queues,
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
        let (client, queues) = sharded_rpc_channel::<Request, Response>(workers);
        let queues: Queues = queues.into();
        let shutdown = Arc::new(AtomicBool::new(false));
        let clock_ns = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queues = queues.clone();
            let server = server.clone();
            let shutdown = shutdown.clone();
            let clock = clock_ns.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(w, server, queues, shutdown, clock, pacing)
            }));
        }
        ThreadedServer { server, client, queues, shutdown, clock_ns, handles }
    }

    /// A handle clients use to issue RPCs.
    pub fn rpc_client(&self) -> RpcClient<Request, Response> {
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
            let queues = &self.queues;
            let clock = &self.clock_ns;
            let mut on_yield = |chunk: SimDuration| {
                clock.fetch_add(chunk.as_nanos(), Ordering::Relaxed);
                advanced += chunk;
                for _ in 0..YIELD_SERVE_BURST {
                    let Some(envelope) = queues.iter().find_map(|q| q.try_poll()) else {
                        break;
                    };
                    serve(0, server, clock, Pacing::None, envelope);
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
        drop(self.client);
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
    let mut handle = |envelope| {
        serve(worker, &server, &clock, pacing, envelope);
        served += 1;
    };
    let steal = |from: usize| (from..n).find_map(|k| queues[(worker + k) % n].try_poll());
    while !shutdown.load(Ordering::Relaxed) {
        // Own queue first; a worker steals only when it is dry, so it is
        // provably idle and stealing can never pull it into a backlog.
        if let Some(envelope) = queues[worker].try_poll() {
            handle(envelope);
        } else if let Some(envelope) = steal(1) {
            server.trace().count(Stage::RpcSteal);
            handle(envelope);
        } else if let Some(envelope) = queues[worker].poll(Duration::from_millis(5)) {
            // Blocked briefly on the own queue, so an idle fleet parks on
            // its condvars instead of spinning.
            handle(envelope);
        }
    }
    // Drain every queue so no accepted request loses its reply on
    // shutdown, even if its home worker already exited.
    while let Some(envelope) = steal(0) {
        handle(envelope);
    }
    served
}

/// Serves one queued request as `worker`: runs its handler, advances the
/// shared virtual clock by the op's cost, and sends the reply.
fn serve(
    worker: usize,
    server: &CormServer,
    clock: &AtomicU64,
    pacing: Pacing,
    envelope: Envelope<Request, Response>,
) {
    // Queue wait is host-scheduling time with no virtual meaning: it
    // feeds the secondary (wall) aggregate only, never the event stream.
    server.trace().wall_ns(Stage::RpcQueueWait, envelope.queue_wait().as_nanos() as u64);
    let (request, reply) = envelope.into_parts();
    let served = match request {
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
    reply.send(response);
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
    fn dry_worker_steals_from_a_sibling_and_shutdown_drains_every_queue() {
        // Two queues, and at most one worker alive at a time, so which
        // worker serves what is forced, not scheduled.
        let trace = corm_trace::TraceHandle::recording();
        let server = Arc::new(CormServer::new(ServerConfig {
            workers: 2,
            trace: trace.clone(),
            ..ServerConfig::default()
        }));
        let (client, queues) = sharded_rpc_channel::<Request, Response>(2);
        let queues: Queues = queues.into();
        let shutdown = Arc::new(AtomicBool::new(false));
        let clock = Arc::new(AtomicU64::new(0));
        let worker0 = {
            let (server, queues, shutdown, clock) =
                (server.clone(), queues.clone(), shutdown.clone(), clock.clone());
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

        // No worker is left: four blocked callers park two requests on
        // each queue. A worker that starts after `shutdown` was raised
        // skips its serving loop, so only the drain can answer them.
        let callers: Vec<_> = (0..4)
            .map(|_| {
                let client = client.clone();
                std::thread::spawn(move || client.call(Request::Alloc { len: 16 }))
            })
            .collect();
        while queues.iter().map(|q| q.len()).sum::<usize>() < 4 {
            std::thread::yield_now();
        }
        assert_eq!((queues[0].len(), queues[1].len()), (2, 2));
        assert_eq!(worker_loop(1, server, queues, shutdown, clock, Pacing::None), 4);
        for caller in callers {
            assert!(matches!(caller.join().unwrap(), Ok(Response::Ptr(_))));
        }
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
