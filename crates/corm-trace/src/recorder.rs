//! The span/event recorder behind [`TraceHandle`].
//!
//! Hot-path contract (this is what keeps seeded replay byte-identical):
//!
//! - recording is **purely observational** — every timestamp is a
//!   caller-supplied [`SimTime`]/[`SimDuration`] that already existed in the
//!   simulation; the recorder never reads a wall clock into an event, never
//!   draws randomness, and never adds virtual time;
//! - the hot path is **lock-free**: each thread appends into its own
//!   fixed-capacity buffer (a `thread_local` it exclusively owns) and only
//!   touches the shared sink at collection points — when its buffer fills,
//!   when the thread exits, or when [`TraceHandle::drain`] flushes the
//!   calling thread;
//! - a **disabled** handle (the default) is a `None` check per call site.
//!
//! The shared sink is bounded ([`SINK_CAP`]); events past the cap are
//! dropped (newest-first) and counted, never silently lost. [`TraceHandle::
//! drain`] sorts the merged events by their full value (time first), so the
//! drained order is a deterministic function of the event *multiset* — two
//! seeded runs that recorded the same events drain identically no matter
//! how threads interleaved their flushes.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use corm_sim_core::time::{SimDuration, SimTime};
use parking_lot::Mutex;

use crate::stage::{Stage, Track};

/// Events buffered per thread before a flush to the shared sink.
const THREAD_BUF_CAP: usize = 8_192;

/// Maximum events retained in the shared sink; extra events are dropped
/// (and counted in [`TraceHandle::dropped`]).
const SINK_CAP: usize = 1 << 21;

/// One recorded span. `dur == 0` encodes an instantaneous event.
///
/// Field order matters: the derived `Ord` sorts by start time first, which
/// is the deterministic drain order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    /// Virtual-time start of the span.
    pub start: SimTime,
    /// Virtual-time extent of the span (zero for instantaneous events).
    pub dur: SimDuration,
    /// Timeline the span belongs to.
    pub track: Track,
    /// Taxonomy stage.
    pub stage: Stage,
    /// Client op sequence number the span is attributed to (0 = none).
    pub op: u64,
}

/// Count + total for one stage of the duration-sample registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTotal {
    /// Stage the totals belong to.
    pub stage: Stage,
    /// Number of samples.
    pub count: u64,
    /// Sum of sample durations in nanoseconds.
    pub total_ns: u64,
}

#[derive(Default)]
struct AtomicTotal {
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl AtomicTotal {
    fn add(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn snapshot(&self, stage: Stage) -> StageTotal {
        StageTotal {
            stage,
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

struct Inner {
    id: u64,
    sink: Mutex<Vec<Event>>,
    dropped: AtomicU64,
    counters: [AtomicU64; Stage::COUNT],
    samples: [AtomicTotal; Stage::COUNT],
    wall: [AtomicTotal; Stage::COUNT],
}

impl Inner {
    fn new() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO_U64: AtomicU64 = AtomicU64::new(0);
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO_TOTAL: AtomicTotal =
            AtomicTotal { count: AtomicU64::new(0), sum_ns: AtomicU64::new(0) };
        Inner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            sink: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            counters: [ZERO_U64; Stage::COUNT],
            samples: [ZERO_TOTAL; Stage::COUNT],
            wall: [ZERO_TOTAL; Stage::COUNT],
        }
    }

    /// Moves a thread buffer's events into the shared sink, honouring the
    /// sink cap.
    fn absorb(&self, buf: &mut Vec<Event>) {
        if buf.is_empty() {
            return;
        }
        let mut sink = self.sink.lock();
        let room = SINK_CAP.saturating_sub(sink.len());
        if buf.len() > room {
            self.dropped.fetch_add((buf.len() - room) as u64, Ordering::Relaxed);
            buf.truncate(room);
        }
        sink.append(buf);
    }
}

/// A thread's private buffer for one recorder; flushed on fill and on
/// thread exit.
struct ThreadBuf {
    recorder: Weak<Inner>,
    recorder_id: u64,
    events: Vec<Event>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if let Some(inner) = self.recorder.upgrade() {
            inner.absorb(&mut self.events);
        } else {
            self.events.clear();
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    /// Per-thread buffers, one per live recorder this thread has touched.
    /// Almost always length 1, so the lookup is a one-element scan.
    static THREAD_BUFS: RefCell<Vec<ThreadBuf>> = const { RefCell::new(Vec::new()) };
}

fn with_thread_buf(inner: &Arc<Inner>, f: impl FnOnce(&mut ThreadBuf)) {
    THREAD_BUFS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        if let Some(buf) = bufs.iter_mut().find(|b| b.recorder_id == inner.id) {
            f(buf);
            return;
        }
        // Buffers of recorders gone would be scanned past by every event.
        bufs.retain(|b| b.recorder.strong_count() > 0);
        bufs.push(ThreadBuf {
            recorder: Arc::downgrade(inner),
            recorder_id: inner.id,
            events: Vec::with_capacity(THREAD_BUF_CAP),
        });
        let buf = bufs.last_mut().expect("just pushed");
        f(buf);
    });
}

/// Cheap-clone handle to a trace recorder; the disabled default is a no-op.
///
/// Lives inside `RnicConfig`/`ServerConfig` so every layer can record
/// without extra plumbing; `Default` (disabled) keeps all existing
/// `..Config::default()` construction sites working unchanged.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<Inner>>);

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(inner) => write!(f, "TraceHandle(recording #{})", inner.id),
            None => write!(f, "TraceHandle(disabled)"),
        }
    }
}

impl TraceHandle {
    /// A disabled handle: every recording call is a `None` check.
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A fresh recording handle with its own sink and counter registry.
    pub fn recording() -> Self {
        TraceHandle(Some(Arc::new(Inner::new())))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records a span `[start, start + dur)` on `track`, attributed to
    /// client op `op` (0 when the span belongs to no specific op).
    #[inline]
    pub fn span(&self, track: Track, stage: Stage, op: u64, start: SimTime, dur: SimDuration) {
        if let Some(inner) = &self.0 {
            let ev = Event { start, dur, track, stage, op };
            with_thread_buf(inner, |buf| {
                buf.events.push(ev);
                if buf.events.len() >= THREAD_BUF_CAP {
                    buf.flush();
                }
            });
        }
    }

    /// Records an instantaneous event at `at`.
    #[inline]
    pub fn event(&self, track: Track, stage: Stage, op: u64, at: SimTime) {
        self.span(track, stage, op, at, SimDuration::ZERO);
    }

    /// Increments the stage counter by one.
    #[inline]
    pub fn count(&self, stage: Stage) {
        self.add(stage, 1);
    }

    /// Increments the stage counter by `n`.
    #[inline]
    pub fn add(&self, stage: Stage, n: u64) {
        if let Some(inner) = &self.0 {
            inner.counters[stage.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records a virtual-duration sample for a stage with no clock of its
    /// own (e.g. server handlers, which return costs rather than seeing
    /// `now`).
    #[inline]
    pub fn sample(&self, stage: Stage, dur: SimDuration) {
        if let Some(inner) = &self.0 {
            inner.samples[stage.index()].add(dur.as_nanos());
        }
    }

    /// Records a pre-measured wall-clock duration in nanoseconds.
    #[inline]
    pub fn wall_ns(&self, stage: Stage, ns: u64) {
        if let Some(inner) = &self.0 {
            inner.wall[stage.index()].add(ns);
        }
    }

    /// Flushes the calling thread's buffer and returns every event recorded
    /// so far, in deterministic (time-major) order.
    ///
    /// Threads other than the caller flush when their buffer fills and when
    /// they exit, so call this after worker threads have been joined (the
    /// benches drain after `shutdown()`).
    pub fn drain(&self) -> Vec<Event> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        with_thread_buf(inner, |buf| buf.flush());
        let mut events = std::mem::take(&mut *inner.sink.lock());
        events.sort_unstable();
        events
    }

    /// Current value of one stage counter.
    pub fn counter(&self, stage: Stage) -> u64 {
        match &self.0 {
            Some(inner) => inner.counters[stage.index()].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// All non-zero stage counters, in stage order.
    pub fn counters(&self) -> Vec<(Stage, u64)> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        Stage::ALL
            .iter()
            .map(|&s| (s, inner.counters[s.index()].load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Non-empty virtual-duration sample totals, in stage order.
    pub fn sample_totals(&self) -> Vec<StageTotal> {
        self.totals_of(|inner, s| inner.samples[s.index()].snapshot(s))
    }

    /// Non-empty wall-clock sample totals, in stage order.
    pub fn wall_totals(&self) -> Vec<StageTotal> {
        self.totals_of(|inner, s| inner.wall[s.index()].snapshot(s))
    }

    fn totals_of(&self, get: impl Fn(&Inner, Stage) -> StageTotal) -> Vec<StageTotal> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        Stage::ALL.iter().map(|&s| get(inner, s)).filter(|t| t.count > 0).collect()
    }

    /// Events dropped because the shared sink hit its cap of 2²¹ events.
    pub fn dropped(&self) -> u64 {
        match &self.0 {
            Some(inner) => inner.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(us: u64, stage: Stage) -> Event {
        Event {
            start: SimTime::from_micros(us),
            dur: SimDuration::from_micros(1),
            track: Track::Client,
            stage,
            op: us,
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tr = TraceHandle::disabled();
        tr.span(Track::Client, Stage::Verb, 1, SimTime::ZERO, SimDuration::from_micros(1));
        tr.count(Stage::MttLookup);
        tr.sample(Stage::WorkerServe, SimDuration::from_micros(2));
        assert!(!tr.is_enabled());
        assert!(tr.drain().is_empty());
        assert!(tr.counters().is_empty());
        assert!(tr.sample_totals().is_empty());
    }

    #[test]
    fn drain_sorts_by_time_and_is_deterministic() {
        let tr = TraceHandle::recording();
        for us in [5u64, 1, 3, 2, 4] {
            let e = ev(us, Stage::Verb);
            tr.span(e.track, e.stage, e.op, e.start, e.dur);
        }
        let drained = tr.drain();
        let starts: Vec<u64> = drained.iter().map(|e| e.start.as_nanos()).collect();
        assert_eq!(starts, [1_000, 2_000, 3_000, 4_000, 5_000]);
        // Drained once; a second drain is empty.
        assert!(tr.drain().is_empty());
    }

    #[test]
    fn cross_thread_events_merge_on_drain() {
        let tr = TraceHandle::recording();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let tr = tr.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    tr.span(
                        Track::Worker(t as u32),
                        Stage::WorkerServe,
                        0,
                        SimTime::from_nanos(t * 1000 + i),
                        SimDuration::from_nanos(1),
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let drained = tr.drain();
        assert_eq!(drained.len(), 400);
        assert!(drained.windows(2).all(|w| w[0] <= w[1]), "drain order is sorted");
    }

    #[test]
    fn counters_and_sample_totals() {
        let tr = TraceHandle::recording();
        tr.count(Stage::MttLookup);
        tr.add(Stage::MttLookup, 2);
        tr.sample(Stage::FaultDelay, SimDuration::from_micros(7));
        tr.sample(Stage::FaultDelay, SimDuration::from_micros(3));
        tr.wall_ns(Stage::RpcQueueWait, 1234);
        assert_eq!(tr.counter(Stage::MttLookup), 3);
        assert_eq!(tr.counters(), vec![(Stage::MttLookup, 3)]);
        let totals = tr.sample_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].stage, Stage::FaultDelay);
        assert_eq!(totals[0].count, 2);
        assert_eq!(totals[0].total_ns, 10_000);
        assert_eq!(tr.wall_totals()[0].count, 1);
    }

    #[test]
    fn two_recorders_do_not_share_buffers() {
        let a = TraceHandle::recording();
        let b = TraceHandle::recording();
        a.event(Track::Nic, Stage::FaultDraw, 0, SimTime::from_micros(1));
        b.event(Track::Nic, Stage::FaultDraw, 0, SimTime::from_micros(2));
        b.event(Track::Nic, Stage::FaultDraw, 0, SimTime::from_micros(3));
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 2);
    }

    #[test]
    fn a_thread_keeps_no_buffer_of_a_dropped_recorder() {
        // A thread of its own: the test harness may reuse this one.
        std::thread::spawn(|| {
            for us in 0..16 {
                let dropped = TraceHandle::recording();
                dropped.event(Track::Nic, Stage::Doorbell, 0, SimTime::from_micros(us));
            }
            let live = TraceHandle::recording();
            live.event(Track::Nic, Stage::Doorbell, 0, SimTime::ZERO);
            assert_eq!(THREAD_BUFS.with(|bufs| bufs.borrow().len()), 1);
            assert_eq!(live.drain().len(), 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn thread_exit_flushes_partial_buffers() {
        let tr = TraceHandle::recording();
        let t2 = tr.clone();
        std::thread::spawn(move || {
            // Fewer events than THREAD_BUF_CAP: only the exit flush moves
            // them to the sink.
            for i in 0..10 {
                t2.event(Track::Nic, Stage::Doorbell, 0, SimTime::from_nanos(i));
            }
        })
        .join()
        .unwrap();
        assert_eq!(tr.drain().len(), 10);
    }
}
