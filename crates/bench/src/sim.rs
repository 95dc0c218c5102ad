//! Closed-loop event-driven simulation of remote clients.
//!
//! Drives the *real* `corm-core` server/client code: every simulated
//! operation executes the actual handler (allocation metadata, pointer
//! correction, cacheline validation, RNIC translation cache) while virtual
//! time advances through three queueing stations, mirroring the paper's
//! hardware:
//!
//! - the **RPC ingress** (shared request queue + receive path) — a single
//!   server whose occupancy caps aggregate RPC throughput (~700 Kreq/s,
//!   Fig. 12);
//! - the **worker pool** — `workers` servers, each busy for the handler's
//!   measured cost;
//! - the **NIC inbound engine** — a single server that one-sided reads
//!   occupy for their engine service and every two-sided request for its
//!   receive (`rpc_nic_service`).
//!
//! Clients are closed-loop with one outstanding request (§4.2.1). Writes
//! always travel the RPC path; reads go via RPC or one-sided RDMA per the
//! spec. Read-write conflicts are detected by interval overlap: a
//! DirectRead whose fetch overlaps an in-flight write to the same key
//! observes mismatched cacheline versions and retries after a backoff —
//! the failure counted by Fig. 13.

use std::sync::Arc;

use corm_core::client::{CormClient, FixStrategy, READ_BACKOFF};
use corm_core::server::{CormServer, CorrectionStrategy};
use corm_core::{GlobalPtr, Lookahead, ReadOutcome};
use corm_sim_core::hash::FastHashMap;
use corm_sim_core::prefetch_read;
use corm_sim_core::queue::EventQueue;
use corm_sim_core::resource::FifoResource;
use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::stats::{Histogram, TimeSeries};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_workloads::ycsb::{Op, Workload};

/// How reads reach the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Two-sided RPC reads.
    Rpc,
    /// One-sided DirectReads (with client-side validation).
    Rdma,
}

/// Specification of a closed-loop run.
pub struct ClosedLoopSpec {
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Measurement window (after warmup).
    pub duration: SimDuration,
    /// Warmup (ops complete but are not counted).
    pub warmup: SimDuration,
    /// The key/mix generator.
    pub workload: Workload,
    /// Read transport.
    pub read_path: ReadPath,
    /// Object payload length (reads fetch this many bytes).
    pub value_len: usize,
    /// Recovery strategy for relocated objects on the RDMA path.
    pub fix_strategy: FixStrategy,
    /// Optional throughput timeline bucket width (Fig. 16).
    pub timeline_bucket: Option<SimDuration>,
    /// Optional compaction trigger: (time, class) — Fig. 16.
    pub compaction_at: Option<(SimTime, corm_alloc::ClassId)>,
    /// RNG seed.
    pub seed: u64,
}

impl ClosedLoopSpec {
    /// A sane default spec over `workload`.
    pub fn new(workload: Workload, clients: usize) -> Self {
        ClosedLoopSpec {
            clients,
            duration: SimDuration::from_millis(600),
            warmup: SimDuration::from_millis(150),
            workload,
            read_path: ReadPath::Rdma,
            value_len: 32,
            fix_strategy: FixStrategy::ScanRead,
            timeline_bucket: None,
            compaction_at: None,
            seed: 0xBEEF,
        }
    }
}

/// Aggregated results of a run.
#[derive(Debug)]
pub struct SimOutput {
    /// Operations completed inside the measurement window.
    pub completed: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// DirectReads that failed validation from read-write races (Fig. 13).
    pub conflicts: u64,
    /// Pointer corrections performed (relocated objects repaired).
    pub corrections: u64,
    /// Aggregate throughput in Kreq/s.
    pub kreqs: f64,
    /// Read latency samples (µs).
    pub read_latency: Histogram,
    /// Optional per-bucket completion counts (Fig. 16).
    pub timeline: Option<TimeSeries>,
    /// The compaction window, if one ran.
    pub compaction_window: Option<(SimTime, SimTime)>,
    /// Busy intervals of the pass, chunked by the pause budget. Without a
    /// budget this is the single whole-pass window; the intervals tile
    /// `compaction_window` back to back.
    compaction_chunks: Vec<(SimTime, SimTime)>,
    /// The pass's report, if one ran (yields, pause chunks, remap batching
    /// counters).
    pub compaction_report: Option<corm_core::server::CompactionReport>,
    /// Read latency samples issued while the pass was running (µs).
    pub read_latency_during: Histogram,
    /// Read latency samples issued outside the pass (µs).
    pub read_latency_outside: Histogram,
    /// Discrete events processed (queue pops), including warmup — the
    /// work count `simspeed` prints for its fig12 cell.
    pub events: u64,
}

impl SimOutput {
    /// Median read latency in µs.
    pub(crate) fn median_read_us(&self) -> f64 {
        self.read_latency.median().unwrap_or(0.0)
    }
}

/// A pending event: the client, and the op it issues when the event fires —
/// its next draw, or the conflicted DirectRead it retries.
type Ev = (usize, Op);

/// The closed loop's three queueing stations and the walks through them.
struct Stations<'a> {
    server: &'a CormServer,
    ingress: FifoResource,
    workers: FifoResource,
    nic: FifoResource,
    /// Requests taken so far: they go to the workers in turn.
    next_worker: usize,
}

/// When a two-sided request leaves the ingress and its worker, and its reply.
struct RpcDone {
    ingress: SimTime,
    worker: SimTime,
    reply: SimTime,
}

impl<'a> Stations<'a> {
    /// The walk of a two-sided request of `len` bytes arriving at `now`:
    /// the ingress, the NIC's receive pipeline, then the next worker in
    /// turn, which runs `handler` for its cost and, when a correction waits
    /// for the compaction leader, the time to start no earlier than.
    fn rpc(
        &mut self,
        now: SimTime,
        len: usize,
        handler: impl FnOnce(usize) -> (SimDuration, Option<SimTime>),
    ) -> RpcDone {
        let worker = self.next_worker % self.server.config().workers;
        self.next_worker += 1;
        let (cost, stall) = handler(worker);
        let m = self.server.model();
        let ingress = self.ingress.admit(now, m.rpc_ingress_service);
        self.nic.admit(now, m.rpc_nic_service);
        let start = stall.map_or(ingress, |until| until.max(ingress));
        let worker_done = self.workers.admit(start, cost);
        // The wire share not covered by ingress/worker occupancy.
        let wire = m
            .rpc_latency(len)
            .saturating_sub(m.rpc_ingress_service)
            .saturating_sub(m.rpc_worker_service);
        RpcDone { ingress, worker: worker_done, reply: worker_done + wire }
    }

    /// The walk of a one-sided read issued at `now` that takes `cost` in
    /// all, `service` of it in the NIC's engine. Returns its completion.
    fn one_sided(&mut self, now: SimTime, cost: SimDuration, service: SimDuration) -> SimTime {
        self.nic.admit(now, service) + cost.saturating_sub(service)
    }
}

/// Runs the closed-loop simulation over a populated server.
pub fn run_closed_loop(
    server: &Arc<CormServer>,
    ptrs: &mut [GlobalPtr],
    spec: &ClosedLoopSpec,
) -> SimOutput {
    let model = server.model();
    let mut stations = Stations {
        server,
        ingress: FifoResource::new(1),
        workers: FifoResource::new(server.config().workers),
        nic: FifoResource::new(1),
        next_worker: 0,
    };
    // Whether a correction stalls on a running pass (`correction_stall_end`).
    let thread_messaging = server.config().correction == CorrectionStrategy::ThreadMessaging;
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut rngs: Vec<DetRng> =
        (0..spec.clients).map(|c| stream_rng(spec.seed, c as u64)).collect();
    let mut client = CormClient::connect_with(server.clone(), spec.fix_strategy);

    let end = SimTime::ZERO + spec.warmup + spec.duration;
    let warmup_end = SimTime::ZERO + spec.warmup;
    let mut out = SimOutput {
        completed: 0,
        reads: 0,
        writes: 0,
        conflicts: 0,
        corrections: 0,
        kreqs: 0.0,
        read_latency: Histogram::new(),
        timeline: spec.timeline_bucket.map(TimeSeries::new),
        compaction_window: None,
        compaction_chunks: Vec::new(),
        compaction_report: None,
        read_latency_during: Histogram::new(),
        read_latency_outside: Histogram::new(),
        events: 0,
    };
    // Per key, the window in which its latest write is in flight: a
    // one-sided read overlapping it is torn. Only one-sided reads look, so
    // RPC-read runs record nothing.
    let mut write_busy: FastHashMap<u64, (SimTime, SimTime)> = FastHashMap::default();
    let mut compaction_pending = spec.compaction_at;
    let mut buf = vec![0u8; spec.value_len];
    let payload = vec![0xA5u8; spec.value_len];
    let slot_bytes = {
        let class = corm_core::consistency::class_for_payload(server.classes(), spec.value_len)
            .expect("value length fits a class");
        server.classes().size_of(class)
    };

    // A client's next op is drawn when its event is scheduled, not when it
    // fires: the same draws from the same per-client stream in the same
    // order, so nothing simulated moves, but the op is known for as many
    // iterations as there are events ahead of it. Its pointer is hinted at
    // once, and, an iteration later, a server handler's chain of dependent
    // lines behind the pointer step by step (DESIGN §12). One-sided reads
    // stop at the pointer: walking the handler's chain for them costs more
    // than their own path saves.
    let mut ahead = Lookahead::default();
    let mut draw = |cid: usize, ptrs: &[GlobalPtr], ahead: &mut Lookahead| {
        let op = spec.workload.next_op(&mut rngs[cid]);
        prefetch_read(&ptrs[op.key() as usize]);
        if matches!(op, Op::Write(_)) || spec.read_path == ReadPath::Rpc {
            ahead.push(op.key());
        }
        op
    };
    // Closed loop, one outstanding request per client: the queue never
    // holds more than one event per client. `EventQueue` is sized for that
    // (sim-core's `queue.rs`; DESIGN §12), so it is asserted at each schedule.
    let schedule = |queue: &mut EventQueue<Ev>, at: SimTime, ev: Ev| {
        queue.schedule(at, ev);
        debug_assert!(queue.len() <= spec.clients);
    };

    for c in 0..spec.clients {
        schedule(&mut queue, SimTime::from_nanos(c as u64 * 100), (c, draw(c, ptrs, &mut ahead)));
    }

    while let Some(next_at) = queue.peek_time() {
        if next_at > end {
            break;
        }
        // Fig. 16: fire the compaction pass once its trigger time passes.
        if let Some((at, class)) = compaction_pending {
            if next_at >= at {
                let timed =
                    server.compact_class(class, at).expect("compaction in sim must not fail");
                let report = timed.value;
                // The leader (one worker) is busy for the whole pass; one
                // admission covers it, since the chunks tile the window
                // back to back. (Per-chunk admissions would drag the
                // station's FIFO arrival clamp to the window's end and
                // penalize every read issued during the pass.) The chunk
                // windows — where stalled corrections release under a
                // pause budget — are laid out arithmetically; collection
                // rides the first chunk's window.
                stations.workers.admit(at, timed.cost);
                let mut t = at;
                for (i, &chunk) in report.chunks.iter().enumerate() {
                    let dur = if i == 0 { report.collection_cost + chunk } else { chunk };
                    out.compaction_chunks.push((t, t + dur));
                    t += dur;
                }
                out.compaction_window = Some((at, at + timed.cost));
                out.compaction_report = Some(report);
                compaction_pending = None;
            }
        }
        let (now, (cid, op)) = queue.pop().expect("peeked");
        out.events += 1;
        ahead.advance(server, ptrs);
        let completion;
        let mut read_latency = None;

        match op {
            Op::Write(k) => {
                let mut ptr = ptrs[k as usize];
                let done = stations.rpc(now, spec.value_len, |worker| {
                    let t = server.write(worker, &mut ptr, &payload);
                    (t.unwrap_or_else(|e| panic!("sim write failed on key {k}: {e}")).cost, None)
                });
                ptrs[k as usize] = ptr;
                if spec.read_path == ReadPath::Rdma {
                    write_busy.insert(k, (done.ingress, done.worker));
                }
                completion = done.reply;
                if now >= warmup_end && completion <= end {
                    out.writes += 1;
                }
            }
            Op::Read(k) => {
                match spec.read_path {
                    ReadPath::Rpc => {
                        let mut ptr = ptrs[k as usize];
                        let stall = correction_stall_end(now, &out).filter(|_| thread_messaging);
                        let done = stations.rpc(now, spec.value_len, |worker| {
                            let cost = match server.read(worker, &mut ptr, &mut buf) {
                                Ok(t) => t.cost,
                                Err(e) => panic!("sim rpc read failed on key {k}: {e}"),
                            };
                            // A correction moves the pointer to the object's new slot.
                            (cost, stall.filter(|_| ptr != ptrs[k as usize]))
                        });
                        out.corrections += u64::from(ptr != ptrs[k as usize]);
                        ptrs[k as usize] = ptr;
                        completion = done.reply;
                        read_latency = Some(completion - now);
                    }
                    ReadPath::Rdma => {
                        let ptr = ptrs[k as usize];
                        let attempt =
                            client.direct_read(&ptr, &mut buf, now).expect("qp healthy in sim");
                        // A racing write to the same key within the fetch
                        // window tears the read.
                        let torn = match write_busy.get(&k) {
                            Some(&(s, e)) if now < e => now + attempt.cost > s,
                            // Event time is monotone: a window that has
                            // ended can never tear a read again.
                            Some(_) => {
                                write_busy.remove(&k);
                                false
                            }
                            None => false,
                        };
                        let outcome = if torn {
                            ReadOutcome::Invalid(corm_core::consistency::ReadFailure::TornRead)
                        } else {
                            attempt.value
                        };
                        match outcome {
                            ReadOutcome::Ok(_) => {
                                // Infer the translation-cache outcome from
                                // the verb latency: a miss adds a fixed
                                // extra, so anything above the hit-path
                                // latency was a miss (and occupies the
                                // engine for longer).
                                let hit_latency = model.rdma_read_latency(slot_bytes, true)
                                    + model.version_check_cost(slot_bytes);
                                let cache_hit = attempt.cost <= hit_latency;
                                let service = model.rdma_read_service(spec.value_len, cache_hit);
                                completion = stations.one_sided(now, attempt.cost, service);
                                read_latency = Some(completion - now);
                            }
                            ReadOutcome::Invalid(
                                corm_core::consistency::ReadFailure::IdMismatch { .. },
                            ) => {
                                // Relocated object: recover per strategy.
                                out.corrections += 1;
                                let mut ptr = ptrs[k as usize];
                                match spec.fix_strategy {
                                    FixStrategy::ScanRead => {
                                        let block = server.block_bytes();
                                        let scan = client
                                            .scan_read(&mut ptr, &mut buf, now)
                                            .expect("scan finds relocated object");
                                        let service = model.rdma_read_service(block, true);
                                        completion = stations.one_sided(now, scan.cost, service);
                                    }
                                    FixStrategy::RpcRead => {
                                        let stall = correction_stall_end(now, &out)
                                            .filter(|_| thread_messaging);
                                        let done = stations.rpc(now, spec.value_len, |worker| {
                                            let read = server.read(worker, &mut ptr, &mut buf);
                                            (read.expect("rpc correction read").cost, stall)
                                        });
                                        completion = done.reply;
                                    }
                                }
                                ptrs[k as usize] = ptr;
                                read_latency = Some(completion - now);
                            }
                            ReadOutcome::Invalid(_) => {
                                // Torn or locked: count the conflict and
                                // retry after a backoff (§3.2.3).
                                if now >= warmup_end {
                                    out.conflicts += 1;
                                }
                                schedule(&mut queue, now + attempt.cost + READ_BACKOFF, (cid, op));
                                continue;
                            }
                        }
                    }
                }
                if now >= warmup_end && completion <= end {
                    out.reads += 1;
                }
            }
        }

        if now >= warmup_end && completion <= end {
            out.completed += 1;
            if let Some(l) = read_latency {
                out.read_latency.record_duration(l);
                let during =
                    out.compaction_window.map(|(w0, w1)| now >= w0 && now < w1).unwrap_or(false);
                if during {
                    out.read_latency_during.record_duration(l);
                } else {
                    out.read_latency_outside.record_duration(l);
                }
            }
            if let Some(ts) = &mut out.timeline {
                ts.record(completion);
            }
        }
        if completion <= end {
            schedule(&mut queue, completion, (cid, draw(cid, ptrs, &mut ahead)));
        }
    }

    out.kreqs = out.completed as f64 / spec.duration.as_secs_f64() / 1_000.0;
    out
}

/// §4.3.2 (Fig. 16 top): with thread-messaging correction the owner of
/// compacted blocks is the busy leader, so a correction issued mid-pass
/// stalls until the leader next yields — the end of the *current* pause
/// chunk. Without a budget the single chunk is the whole pass, reproducing
/// the stall-to-pass-end behaviour exactly. Returns `None` outside a pass.
fn correction_stall_end(now: SimTime, out: &SimOutput) -> Option<SimTime> {
    let (w0, w1) = out.compaction_window?;
    if now < w0 || now >= w1 {
        return None;
    }
    out.compaction_chunks
        .iter()
        .find(|&&(cs, ce)| now >= cs && now < ce)
        .map(|&(_, ce)| ce)
        .or(Some(w1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::populate_server;
    use corm_core::server::ServerConfig;
    use corm_workloads::ycsb::{KeyDist, Mix};

    fn quick_spec(read_path: ReadPath, mix: Mix, clients: usize) -> ClosedLoopSpec {
        let workload = Workload::new(2_000, KeyDist::Uniform, mix);
        ClosedLoopSpec {
            duration: SimDuration::from_millis(50),
            warmup: SimDuration::from_millis(10),
            read_path,
            ..ClosedLoopSpec::new(workload, clients)
        }
    }

    #[test]
    fn rdma_beats_rpc_for_read_only() {
        let mut store = populate_server(ServerConfig::default(), 2_000, 32);
        let rdma = run_closed_loop(
            &store.server,
            &mut store.ptrs,
            &quick_spec(ReadPath::Rdma, Mix::READ_ONLY, 8),
        );
        let rpc = run_closed_loop(
            &store.server,
            &mut store.ptrs,
            &quick_spec(ReadPath::Rpc, Mix::READ_ONLY, 8),
        );
        assert!(rdma.completed > 0 && rpc.completed > 0);
        assert!(rdma.kreqs > rpc.kreqs, "rdma {} vs rpc {}", rdma.kreqs, rpc.kreqs);
    }

    #[test]
    fn rpc_throughput_plateaus_near_700k() {
        let mut store = populate_server(ServerConfig::default(), 2_000, 32);
        let few = run_closed_loop(
            &store.server,
            &mut store.ptrs,
            &quick_spec(ReadPath::Rpc, Mix::READ_ONLY, 1),
        );
        let many = run_closed_loop(
            &store.server,
            &mut store.ptrs,
            &quick_spec(ReadPath::Rpc, Mix::READ_ONLY, 16),
        );
        assert!(many.kreqs > few.kreqs, "more clients, more throughput");
        assert!((550.0..=800.0).contains(&many.kreqs), "RPC plateau ≈700K, got {}", many.kreqs);
    }

    #[test]
    fn balanced_mix_counts_reads_and_writes() {
        let mut store = populate_server(ServerConfig::default(), 2_000, 32);
        let out = run_closed_loop(
            &store.server,
            &mut store.ptrs,
            &quick_spec(ReadPath::Rdma, Mix::BALANCED, 4),
        );
        assert!(out.reads > 0 && out.writes > 0);
        let frac = out.reads as f64 / (out.reads + out.writes) as f64;
        assert!((frac - 0.5).abs() < 0.05, "read fraction {frac}");
    }

    /// Every field of a [`SimOutput`] as a named integer (times in whole
    /// nanoseconds, the timeline folded), so two runs compare field by
    /// field and a mismatch names the field.
    fn fields(out: &SimOutput) -> Vec<(&'static str, u64)> {
        let ns = |us: f64| (us * 1_000.0).round() as u64;
        let hist = |h: &Histogram| (h.len() as u64, ns(h.mean()), ns(h.p99().unwrap_or(0.0)));
        let (window_start, window_end) =
            out.compaction_window.map_or((0, 0), |(a, b)| (a.as_nanos(), b.as_nanos()));
        let report = out.compaction_report.as_ref();
        let (all, during, outside) = (
            hist(&out.read_latency),
            hist(&out.read_latency_during),
            hist(&out.read_latency_outside),
        );
        vec![
            ("completed", out.completed),
            ("reads", out.reads),
            ("writes", out.writes),
            ("conflicts", out.conflicts),
            ("corrections", out.corrections),
            ("events", out.events),
            ("req_per_s", (out.kreqs * 1_000.0).round() as u64),
            ("read_n", all.0),
            ("read_mean_ns", all.1),
            ("read_median_ns", ns(out.median_read_us())),
            ("read_p99_ns", all.2),
            ("during_n", during.0),
            ("during_mean_ns", during.1),
            ("during_p99_ns", during.2),
            ("outside_n", outside.0),
            ("outside_mean_ns", outside.1),
            ("outside_p99_ns", outside.2),
            (
                "timeline_fold",
                out.timeline
                    .as_ref()
                    .map_or(0, |t| t.counts().iter().fold(0, |h, &c| crate::simspeed::mix(h, c))),
            ),
            ("window_start_ns", window_start),
            ("window_end_ns", window_end),
            ("chunks", out.compaction_chunks.len() as u64),
            ("merges", report.map_or(0, |r| r.merges as u64)),
            ("objects_copied", report.map_or(0, |r| r.objects_copied as u64)),
            ("objects_relocated", report.map_or(0, |r| r.objects_relocated as u64)),
        ]
    }

    /// A fig16-shaped run at test size: a fragmented store, four clients
    /// on a balanced mix, and a compaction pass of the whole class in the
    /// middle of the window — so ops drawn and hinted before the pass run
    /// after it, on pointers whose blocks were merged away in between.
    fn compaction_panel(
        correction: CorrectionStrategy,
        read_path: ReadPath,
        fix_strategy: FixStrategy,
    ) -> SimOutput {
        let config = ServerConfig { correction, ..ServerConfig::default() };
        let mut store = populate_server(config, 8_192, 32);
        let mut ptrs: Vec<GlobalPtr> =
            store.fragment(0.75, 13).into_iter().map(|(_, p)| p).collect();
        let class = corm_core::consistency::class_for_payload(store.server.classes(), 32).unwrap();
        let workload = Workload::new(ptrs.len() as u64, KeyDist::Uniform, Mix::BALANCED);
        let spec = ClosedLoopSpec {
            duration: SimDuration::from_millis(30),
            warmup: SimDuration::from_millis(2),
            read_path,
            fix_strategy,
            timeline_bucket: Some(SimDuration::from_millis(1)),
            compaction_at: Some((SimTime::from_millis(8), class)),
            ..ClosedLoopSpec::new(workload, 4)
        };
        run_closed_loop(&store.server, &mut ptrs, &spec)
    }

    /// What the parent commit — ops drawn at the pop, nothing hinted —
    /// produced for the same spec, in [`fields`] order.
    fn assert_fields(out: &SimOutput, parent: [u64; 24], what: &str) {
        let got = fields(out);
        assert_eq!(got.len(), parent.len());
        for ((name, got), want) in got.into_iter().zip(parent) {
            assert_eq!(got, want, "{what}: {name}");
        }
    }

    #[test]
    fn hinted_pointers_going_stale_mid_flight_change_no_simulated_value() {
        use CorrectionStrategy::{BlockScan, ThreadMessaging};
        #[rustfmt::skip]
        let panels = [
            ((ThreadMessaging, ReadPath::Rpc, FixStrategy::ScanRead), [
                19133, 9586, 9547, 0, 340, 20538, 637767, 9586, 6508, 5720, 15720, 4, 1825076,
                2442958, 9582, 5749, 15720, 206991125639354811, 8000000, 10438098, 1, 72, 1312, 691,
            ]),
            ((ThreadMessaging, ReadPath::Rdma, FixStrategy::ScanRead), [
                39264, 19619, 19645, 10, 335, 41931, 1308800, 19619, 1934, 1861, 2701, 1335, 2063,
                3270, 18284, 1924, 2615, 546266455192388200, 8000000, 10438098, 1, 72, 1312, 691,
            ]),
            ((BlockScan, ReadPath::Rpc, FixStrategy::ScanRead), [
                20975, 10516, 10459, 0, 338, 22380, 699167, 10516, 5720, 5720, 5890, 839, 5722,
                5890, 9677, 5720, 5890, 13473049161570297593, 8000000, 10438098, 1, 72, 1312, 691,
            ]),
            // Recorded after the lookahead, unlike the three above: the
            // corrected read's fallback RPC now occupies the NIC's receive
            // pipeline like every other two-sided request (it skipped it
            // before `Stations::rpc`), so the one-sided reads behind its
            // 333 corrections queue a little longer. Same value with the
            // lookahead on and with it stubbed out.
            ((BlockScan, ReadPath::Rdma, FixStrategy::RpcRead), [
                39353, 19658, 19695, 9, 333, 42019, 1311767, 19658, 1959, 1846, 4290, 1413, 2345,
                5890, 18245, 1929, 2615, 6228779974556458647, 8000000, 10438098, 1, 72, 1312, 691,
            ]),
        ];
        for ((correction, path, fix), parent) in panels {
            let out = compaction_panel(correction, path, fix);
            assert!(out.corrections > 0, "the pass must leave stale pointers behind");
            assert_fields(&out, parent, &format!("{correction:?}/{path:?}/{fix:?}"));
        }
    }

    /// ROADMAP item 8, fourth debt: a one-sided read that finds its object
    /// relocated falls back to an RPC read, and that RPC occupies the NIC's
    /// receive pipeline like any two-sided request. One key, relocated by
    /// the pass at time zero; client 0 reads it at 0 and is corrected,
    /// client 1 reads it at 100 ns through the corrected pointer and must
    /// wait at the NIC station for the rest of the RPC's `rpc_nic_service`.
    #[test]
    fn corrected_rpc_read_delays_the_one_sided_read_behind_it_at_the_nic() {
        let config =
            ServerConfig { correction: CorrectionStrategy::BlockScan, ..ServerConfig::default() };
        let build = || {
            let mut store = populate_server(config.clone(), 2_048, 32);
            let survivors = store.fragment(0.75, 13);
            (store, survivors)
        };
        let class = |store: &crate::setup::PopulatedStore| {
            corm_core::consistency::class_for_payload(store.server.classes(), 32).unwrap()
        };
        // A scout store finds a survivor the pass relocates; the run gets a
        // twin of it, still uncompacted, holding that one (stale-to-be)
        // pointer.
        let (scout, survivors) = build();
        scout.server.compact_class(class(&scout), SimTime::ZERO).unwrap();
        let mut buf = [0u8; 32];
        let relocated = survivors
            .iter()
            .position(|&(_, before)| {
                let mut ptr = before;
                scout.server.read(0, &mut ptr, &mut buf).unwrap();
                ptr != before
            })
            .expect("the pass relocates some survivor");
        let (store, survivors) = build();
        let mut ptrs = [survivors[relocated].1];

        // 2.5 µs: the only op to complete inside the window is client 1's
        // first read (client 0's corrected read takes an RPC's ≈ 2.7 µs, a
        // second one-sided read ends past 3.4 µs).
        let stagger = SimDuration::from_nanos(100);
        let spec = ClosedLoopSpec {
            duration: SimDuration::from_nanos(2_500),
            warmup: SimDuration::ZERO,
            read_path: ReadPath::Rdma,
            fix_strategy: FixStrategy::RpcRead,
            compaction_at: Some((SimTime::ZERO, class(&store))),
            ..ClosedLoopSpec::new(Workload::new(1, KeyDist::Uniform, Mix::READ_ONLY), 2)
        };
        let out = run_closed_loop(&store.server, &mut ptrs, &spec);
        assert_eq!(out.corrections, 1, "client 0's read is the one correction");
        assert_ne!(ptrs[0], survivors[relocated].1, "and it repaired the pointer");
        assert_eq!((out.reads, out.read_latency.len()), (1, 1));

        // Client 1's read alone costs a hit or a miss; queued behind the
        // RPC it costs that plus what was left of the RPC's NIC occupancy.
        let model = store.server.model();
        let slot = store.server.classes().size_of(class(&store));
        let queued = model.rpc_nic_service - stagger;
        let latency = SimDuration::from_nanos((out.median_read_us() * 1_000.0).round() as u64);
        let alone = [true, false]
            .map(|hit| model.rdma_read_latency(slot, hit) + model.version_check_cost(slot));
        assert!(
            alone.contains(&(latency - queued)),
            "read behind a corrected read took {latency:?}: want {queued:?} of NIC queueing \
             on top of one of {alone:?}"
        );
    }

    #[test]
    fn one_client_loop_without_lookahead_distance_changes_no_simulated_value() {
        // One client: its next op is drawn when the only event is
        // scheduled and runs at the very next pop, while the ring has given
        // it no more than the pointer's wait.
        #[rustfmt::skip]
        let parents = [
            (ReadPath::Rpc, [
                19935, 9850, 10085, 0, 0, 23924, 398700, 9850, 2508, 2508, 2508, 0, 0, 0, 9850,
                2508, 2508, 0, 0, 0, 0, 0, 0, 0,
            ]),
            (ReadPath::Rdma, [
                23670, 11709, 11961, 0, 0, 28411, 473400, 11709, 1708, 1708, 1708, 0, 0, 0, 11709,
                1708, 1708, 0, 0, 0, 0, 0, 0, 0,
            ]),
        ];
        for (path, parent) in parents {
            let mut store = populate_server(ServerConfig::default(), 2_000, 32);
            let spec = quick_spec(path, Mix::BALANCED, 1);
            let out = run_closed_loop(&store.server, &mut store.ptrs, &spec);
            assert_fields(&out, parent, &format!("one client, {path:?}"));
        }
    }

    #[test]
    fn conflicts_appear_under_skewed_mixed_load() {
        let mut store = populate_server(ServerConfig::default(), 2_000, 32);
        let spec = ClosedLoopSpec {
            duration: SimDuration::from_millis(60),
            warmup: SimDuration::from_millis(10),
            read_path: ReadPath::Rdma,
            ..ClosedLoopSpec::new(Workload::new(2_000, KeyDist::Zipf(0.99), Mix::BALANCED), 16)
        };
        let out = run_closed_loop(&store.server, &mut store.ptrs, &spec);
        assert!(out.conflicts > 0, "hot-key races must tear some reads");
        // ... but only a small fraction of reads (paper: <0.1% at 32
        // clients; our scaled-down run stays well under 2%).
        assert!(
            (out.conflicts as f64) < 0.02 * out.reads as f64,
            "conflicts {} vs reads {}",
            out.conflicts,
            out.reads
        );
    }
}
