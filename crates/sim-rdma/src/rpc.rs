//! Two-sided SEND/RECV RPC fabric.
//!
//! CoRM serves memory-management operations (Alloc, Free, Write, RPC reads,
//! ReleasePtr) over RPC: requests land in per-worker queues drained by the
//! server's worker threads (§2.2.2). This module provides that fabric for
//! the *threaded* execution mode: clients hold an [`RpcClient`] and block
//! on replies; worker threads drain their own [`RpcQueue`] and steal from
//! siblings when idle.
//!
//! The fabric is sharded: [`sharded_rpc_channel`] creates one queue per
//! worker and a client that sprays requests round-robin across them, so N
//! workers do not contend on a single channel lock. Queues are cheaply
//! cloneable MPMC handles — handing every worker the full queue vector is
//! what enables work stealing. [`rpc_channel`] is the single-queue special
//! case and behaves exactly as before.
//!
//! The event-driven figure harness does not use channels — it calls server
//! handlers directly and charges virtual time — so this fabric carries no
//! latency model of its own.

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request paired with its reply channel.
pub struct Envelope<Req, Resp> {
    /// The request payload.
    pub request: Req,
    reply_to: Sender<Resp>,
    /// Wall-clock send time, for queue-wait metrics. This is the *secondary*
    /// clock: queue wait is a host-scheduling quantity with no virtual-time
    /// meaning, so it feeds aggregate trace counters only — never events.
    enqueued: Instant,
}

impl<Req, Resp> Envelope<Req, Resp> {
    /// Sends the reply to the waiting client. Returns `false` if the client
    /// has gone away.
    pub fn reply(self, response: Resp) -> bool {
        self.reply_to.send(response).is_ok()
    }

    /// Splits the envelope into the request (by move — no clone needed to
    /// serve it) and a handle for replying later.
    pub fn into_parts(self) -> (Req, ReplyHandle<Resp>) {
        (self.request, ReplyHandle { reply_to: self.reply_to })
    }

    /// Wall-clock time this request has spent enqueued so far.
    pub fn queue_wait(&self) -> Duration {
        self.enqueued.elapsed()
    }
}

/// The reply half of a split [`Envelope`].
pub struct ReplyHandle<Resp> {
    reply_to: Sender<Resp>,
}

impl<Resp> ReplyHandle<Resp> {
    /// Sends the reply to the waiting client. Returns `false` if the client
    /// has gone away.
    pub fn send(self, response: Resp) -> bool {
        self.reply_to.send(response).is_ok()
    }
}

/// A stash of recycled one-shot reply channels shared by an `RpcClient`
/// and its clones.
type ReplyPool<Resp> = Arc<parking_lot::Mutex<Vec<(Sender<Resp>, Receiver<Resp>)>>>;

/// Client side of the RPC fabric. Requests are sprayed round-robin across
/// the server's worker queues; clones share the rotation counter so
/// concurrent clients spread load rather than marching in step.
pub struct RpcClient<Req, Resp> {
    txs: Arc<[Sender<Envelope<Req, Resp>>]>,
    next: Arc<AtomicUsize>,
    /// Recycled one-shot reply channels. A call pops a pair (or creates
    /// one on a cold start), keeps its own sender clone, and returns the
    /// pair after a successful reply — the channel is provably empty
    /// again. Pairs from timed-out calls are dropped instead: a late
    /// reply must die with its channel, never surface on a future call.
    reply_pool: ReplyPool<Resp>,
}

impl<Req, Resp> Clone for RpcClient<Req, Resp> {
    fn clone(&self) -> Self {
        RpcClient {
            txs: self.txs.clone(),
            next: self.next.clone(),
            reply_pool: self.reply_pool.clone(),
        }
    }
}

/// Errors from a blocking RPC call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The server's queue is closed (server shut down).
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

impl<Req, Resp> RpcClient<Req, Resp> {
    /// Issues a blocking call and waits for the reply.
    pub fn call(&self, request: Req) -> Result<Resp, RpcError> {
        self.call_timeout(request, Duration::from_secs(30))
    }

    /// Issues a blocking call with an explicit deadline.
    ///
    /// Reply channels are recycled through the client's pool, so a
    /// steady-state call allocates nothing. The pool keeps a sender clone
    /// alive for the call's duration; an envelope dropped unserved
    /// therefore surfaces as [`RpcError::Timeout`] rather than an early
    /// disconnect — a closed *request* queue still reports
    /// [`RpcError::Disconnected`] immediately at send time.
    pub fn call_timeout(&self, request: Req, timeout: Duration) -> Result<Resp, RpcError> {
        let (reply_tx, reply_rx) = self.reply_pool.lock().pop().unwrap_or_else(|| bounded(1));
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.txs.len();
        if self.txs[shard]
            .send(Envelope { request, reply_to: reply_tx.clone(), enqueued: Instant::now() })
            .is_err()
        {
            // The envelope (and its sender) never left this thread: the
            // channel is still empty and safe to recycle.
            self.reply_pool.lock().push((reply_tx, reply_rx));
            return Err(RpcError::Disconnected);
        }
        match reply_rx.recv_timeout(timeout) {
            Ok(resp) => {
                // Served: the worker's sender is consumed and the buffer
                // drained, so the pair is empty again — recycle it.
                self.reply_pool.lock().push((reply_tx, reply_rx));
                Ok(resp)
            }
            Err(RecvTimeoutError::Timeout) => Err(RpcError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RpcError::Disconnected),
        }
    }

    /// Number of server queues this client sprays over.
    pub fn shards(&self) -> usize {
        self.txs.len()
    }
}

/// Server side: one worker's request queue. Clones are MPMC handles onto
/// the same queue, so idle workers can steal from a sibling's queue.
#[derive(Clone)]
pub struct RpcQueue<Req, Resp> {
    rx: Receiver<Envelope<Req, Resp>>,
}

impl<Req, Resp> RpcQueue<Req, Resp> {
    /// Blocks for the next request, with a poll timeout so workers can
    /// check for shutdown.
    pub fn poll(&self, timeout: Duration) -> Option<Envelope<Req, Resp>> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking poll (also the steal primitive for sibling workers).
    pub fn try_poll(&self) -> Option<Envelope<Req, Resp>> {
        self.rx.try_recv().ok()
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }
}

/// Creates a client connected to `shards` per-worker queues (clamped to
/// ≥ 1). The client rotates across the queues per call.
pub fn sharded_rpc_channel<Req, Resp>(
    shards: usize,
) -> (RpcClient<Req, Resp>, Vec<RpcQueue<Req, Resp>>) {
    let n = shards.max(1);
    let mut txs = Vec::with_capacity(n);
    let mut queues = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        txs.push(tx);
        queues.push(RpcQueue { rx });
    }
    (
        RpcClient {
            txs: txs.into(),
            next: Arc::new(AtomicUsize::new(0)),
            reply_pool: Arc::new(parking_lot::Mutex::new(Vec::new())),
        },
        queues,
    )
}

/// Creates a connected client/queue pair (the single-queue special case of
/// [`sharded_rpc_channel`]).
pub fn rpc_channel<Req, Resp>() -> (RpcClient<Req, Resp>, RpcQueue<Req, Resp>) {
    let (client, mut queues) = sharded_rpc_channel(1);
    (client, queues.pop().expect("one shard"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn call_and_reply() {
        let (client, queue) = rpc_channel::<u32, u32>();
        let server = thread::spawn(move || {
            let env = queue.poll(Duration::from_secs(1)).unwrap();
            let req = env.request;
            assert!(env.reply(req * 2));
        });
        assert_eq!(client.call(21).unwrap(), 42);
        server.join().unwrap();
    }

    #[test]
    fn into_parts_serves_by_move() {
        // Request type is deliberately not Clone: serving must not need it.
        struct NotClone(u32);
        let (client, queue) = rpc_channel::<NotClone, u32>();
        let server = thread::spawn(move || {
            let env = queue.poll(Duration::from_secs(1)).unwrap();
            let (req, reply) = env.into_parts();
            assert!(reply.send(req.0 + 1));
        });
        assert_eq!(client.call(NotClone(9)).unwrap(), 10);
        server.join().unwrap();
    }

    #[test]
    fn multiple_workers_drain_shared_queue() {
        let (client, queue) = rpc_channel::<u64, u64>();
        let mut workers = Vec::new();
        for _ in 0..4 {
            let q = queue.clone();
            workers.push(thread::spawn(move || {
                let mut served = 0;
                while let Some(env) = q.poll(Duration::from_millis(200)) {
                    let r = env.request;
                    env.reply(r + 1);
                    served += 1;
                }
                served
            }));
        }
        let client2 = client.clone();
        let issuer = thread::spawn(move || {
            for i in 0..100u64 {
                assert_eq!(client2.call(i).unwrap(), i + 1);
            }
        });
        issuer.join().unwrap();
        drop(client);
        let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn sharded_client_round_robins_across_queues() {
        let (client, queues) = sharded_rpc_channel::<u32, u32>(4);
        assert_eq!(client.shards(), 4);
        assert_eq!(queues.len(), 4);
        // Fire 8 calls from a helper thread; each queue must see exactly 2.
        let issuer = {
            let client = client.clone();
            thread::spawn(move || {
                for i in 0..8u32 {
                    assert_eq!(client.call(i).unwrap(), i);
                }
            })
        };
        let mut per_queue = [0usize; 4];
        let mut served = 0;
        while served < 8 {
            for (q, count) in queues.iter().zip(per_queue.iter_mut()) {
                if let Some(env) = q.try_poll() {
                    let r = env.request;
                    env.reply(r);
                    *count += 1;
                    served += 1;
                }
            }
            thread::yield_now();
        }
        issuer.join().unwrap();
        assert_eq!(per_queue, [2, 2, 2, 2]);
    }

    #[test]
    fn idle_worker_steals_from_sibling_queue() {
        let (client, queues) = sharded_rpc_channel::<u32, u32>(2);
        // Queue 1's worker never polls; a worker owning queue 0 serves
        // everything by stealing from queue 1 when its own queue is dry.
        let thief = {
            let queues = queues.clone();
            thread::spawn(move || {
                let mut served = 0;
                while served < 10 {
                    let env = queues[0].try_poll().or_else(|| queues[1].try_poll());
                    if let Some(env) = env {
                        let r = env.request;
                        env.reply(r * 3);
                        served += 1;
                    } else {
                        thread::yield_now();
                    }
                }
            })
        };
        for i in 0..10u32 {
            assert_eq!(client.call(i).unwrap(), i * 3);
        }
        thief.join().unwrap();
    }

    #[test]
    fn reply_channels_recycle_through_pool() {
        let (client, queue) = rpc_channel::<u32, u32>();
        let server = thread::spawn(move || {
            for _ in 0..3 {
                let env = queue.poll(Duration::from_secs(1)).unwrap();
                let r = env.request;
                env.reply(r);
            }
        });
        for i in 0..3 {
            assert_eq!(client.call(i).unwrap(), i);
        }
        server.join().unwrap();
        // All three calls shared one recycled pair: the pool holds exactly
        // it, not three.
        assert_eq!(client.reply_pool.lock().len(), 1);
    }

    #[test]
    fn disconnected_server_reports_error() {
        let (client, queue) = rpc_channel::<u8, u8>();
        drop(queue);
        assert_eq!(client.call(1), Err(RpcError::Disconnected));
    }

    #[test]
    fn timeout_when_server_ignores() {
        let (client, _queue) = rpc_channel::<u8, u8>();
        // Server never polls; keep _queue alive so send succeeds.
        assert_eq!(client.call_timeout(1, Duration::from_millis(50)), Err(RpcError::Timeout));
    }

    #[test]
    fn try_poll_and_len() {
        let (client, queue) = rpc_channel::<u8, u8>();
        assert!(queue.try_poll().is_none());
        assert!(queue.is_empty());
        let t = thread::spawn(move || client.call_timeout(7, Duration::from_millis(200)));
        // Wait for the request to arrive.
        let env = loop {
            if let Some(e) = queue.try_poll() {
                break e;
            }
            thread::yield_now();
        };
        assert_eq!(env.request, 7);
        env.reply(8);
        assert_eq!(t.join().unwrap().unwrap(), 8);
    }
}
