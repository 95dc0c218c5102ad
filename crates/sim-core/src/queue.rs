//! Future-event list for discrete-event simulations.
//!
//! [`EventQueue`] orders user events by timestamp and, for ties, by insertion
//! order (FIFO). Popping an event advances the queue's notion of "now"; the
//! queue refuses to schedule events in the past so simulations stay causal.
//!
//! Internally this is a *calendar queue* (a bucketed future-event list):
//! events hash into `buckets.len()` fixed-width "days" by timestamp, so
//! schedule is O(1) and pop scans only the handful of events sharing the
//! current day, instead of paying a `BinaryHeap`'s log-n sift on every
//! operation. The pop order is the exact total order `(at, key)` — the same
//! order the heap produced — so seeded simulations replay byte-identically
//! across the swap. Two structural refinements keep every operation
//! O(current-day occupancy):
//!
//! - the cached minimum remembers its bucket *and slot*, so pop extracts it
//!   with one `swap_remove` instead of a linear rescan of its bucket;
//! - events more than a full bucket cycle ahead live in a separate
//!   min-heap (`far`) rather than wrapping around the calendar, so the
//!   sparse-calendar fallback is a heap peek, never a full-calendar scan.
//!   Because a far event's day is at least a cycle past `now`, every near
//!   event precedes every far event, and far events migrate into the
//!   calendar as `now` advances toward them.
//!
//! Payloads do not ride in the buckets: they live in a generation-tagged
//! [`SlabArena`], and buckets (and the far heap) carry only 24-byte POD
//! [`Entry`] records — `(SimTime, ordering key, slab handle)`. The calendar
//! swap loop and growth rehash therefore move `Copy` records regardless of
//! how large the event enum is, and steady-state schedule/pop churn recycles
//! slab slots through the arena's free list without touching the allocator.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use crate::arena::{SlabArena, SlabHandle};
use crate::time::SimTime;

/// Bucket width is `1 << WIDTH_SHIFT` nanoseconds: 512 ns, on the order of
/// the inter-event spacing of a closed-loop run with a handful of clients,
/// so the current day holds only a few events.
const WIDTH_SHIFT: u32 = 9;

/// Initial number of buckets (one cycle spans `64 * 512 ns = 32.8 µs`,
/// comfortably past the per-op latencies events are scheduled ahead by).
const INITIAL_BUCKETS: usize = 64;

/// Bucket-count cap: growth is for occupancy, and a million-bucket calendar
/// would cost more to cycle over than it saves.
const MAX_BUCKETS: usize = 1 << 20;

/// A monotonic future-event list.
///
/// Events carry an arbitrary payload `E`. Ties on the timestamp are broken by
/// insertion order so that, e.g., two clients whose requests complete at the
/// same instant are served in the order they were enqueued.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events within one bucket cycle of `now` ("near"), hashed by day.
    /// Buckets hold only POD ordering records; payloads live in `arena`.
    buckets: Vec<Vec<Entry>>,
    /// `buckets.len() - 1`; the length is always a power of two.
    mask: usize,
    /// Number of events resident in `buckets`.
    near_len: usize,
    /// Events at least one full bucket cycle ahead of `now`, as a min-heap
    /// on `(at, key)`. Strictly later than every near event.
    far: BinaryHeap<Far>,
    /// Payload storage; entries reference it by generation-tagged handle.
    arena: SlabArena<E>,
    seq: u64,
    now: SimTime,
    /// Location of the pending minimum — maintained eagerly so
    /// [`EventQueue::peek_time`] stays O(1) and pop extracts the entry
    /// without a fresh search.
    next: Option<NextRef>,
}

/// POD ordering record: when the event fires, how ties break, and where the
/// payload lives. 24 bytes, `Copy` — bucket swaps and rehashes are memmoves.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    key: u64,
    handle: SlabHandle,
}

/// Where the pending minimum lives.
#[derive(Debug, Clone, Copy)]
enum NextRef {
    /// In `buckets[bucket][slot]`, with ordering key `(at, key)`.
    Near { at: SimTime, key: u64, bucket: usize, slot: usize },
    /// At the top of the `far` heap (only when no near event pends).
    Far,
}

/// Max-heap adapter: reversed `(at, key)` order turns `BinaryHeap` into the
/// min-heap the far set needs. Only the ordering fields participate in
/// comparisons.
#[derive(Debug, Clone, Copy)]
struct Far(Entry);

impl PartialEq for Far {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.key == other.0.key
    }
}

impl Eq for Far {}

impl PartialOrd for Far {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Far {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.0.at, other.0.key).cmp(&(self.0.at, self.0.key))
    }
}

/// The day (bucket-cycle index) a timestamp falls in.
#[inline]
fn day(at: SimTime) -> u64 {
    at.as_nanos() >> WIDTH_SHIFT
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            mask: INITIAL_BUCKETS - 1,
            near_len: 0,
            far: BinaryHeap::new(),
            arena: SlabArena::new(),
            seq: 0,
            now: SimTime::ZERO,
            next: None,
        }
    }

    /// The timestamp of the most recently popped event (time zero initially).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time, which
    /// would break causality.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule event in the past: at={at} now={}", self.now);
        let key = self.seq;
        self.seq += 1;
        self.insert(at, key, event);
    }

    /// Schedules `event` at `at` with an explicit tie-breaking `key` in
    /// place of the internal insertion counter: equal-timestamp events pop
    /// in ascending key order regardless of insertion order. This makes
    /// the tie-break sequence an input: a schedule explorer permutes it to
    /// enumerate the orders equal-time events can take. Callers own key
    /// uniqueness per timestamp; mixing with [`EventQueue::schedule`] on one
    /// queue compares caller keys against internal counters and is almost
    /// never what you want.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        assert!(at >= self.now, "cannot schedule event in the past: at={at} now={}", self.now);
        self.insert(at, key, event);
    }

    #[inline]
    fn insert(&mut self, at: SimTime, key: u64, event: E) {
        if self.near_len > self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.grow();
        }
        let handle = self.arena.insert(event);
        let entry = Entry { at, key, handle };
        let cycle = self.buckets.len() as u64;
        if day(at) >= day(self.now) + cycle {
            self.far.push(Far(entry));
            if self.next.is_none() {
                self.next = Some(NextRef::Far);
            }
        } else {
            let b = (day(at) as usize) & self.mask;
            let slot = self.buckets[b].len();
            self.buckets[b].push(entry);
            self.near_len += 1;
            let replace = match self.next {
                None | Some(NextRef::Far) => true,
                Some(NextRef::Near { at: nat, key: nkey, .. }) => (at, key) < (nat, nkey),
            };
            if replace {
                self.next = Some(NextRef::Near { at, key, bucket: b, slot });
            }
        }
    }

    /// Pops the earliest pending event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self.next? {
            NextRef::Near { at, key, bucket, slot } => {
                let e = self.buckets[bucket].swap_remove(slot);
                debug_assert!(e.at == at && e.key == key, "cached minimum out of place");
                self.near_len -= 1;
                self.now = at;
                self.migrate_far();
                self.recompute_next();
                Some((at, self.arena.take(e.handle)))
            }
            NextRef::Far => {
                let Far(e) = self.far.pop().expect("NextRef::Far with empty far heap");
                self.now = e.at;
                self.migrate_far();
                self.recompute_next();
                Some((e.at, self.arena.take(e.handle)))
            }
        }
    }

    /// Pops the earliest pending event only if it fires strictly before
    /// `horizon`: drains the window `[now, horizon)` and no further.
    #[inline]
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? >= horizon {
            return None;
        }
        self.pop()
    }

    /// The timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.next? {
            NextRef::Near { at, .. } => Some(at),
            NextRef::Far => self.far.peek().map(|f| f.0.at),
        }
    }

    /// Moves far-heap events that `now` has come within a bucket cycle of
    /// into the calendar, preserving the invariant that every far event is
    /// later than every near event.
    fn migrate_far(&mut self) {
        let cycle = self.buckets.len() as u64;
        let limit = day(self.now) + cycle;
        while self.far.peek().is_some_and(|f| day(f.0.at) < limit) {
            let Far(e) = self.far.pop().expect("peeked entry present");
            let b = (day(e.at) as usize) & self.mask;
            self.buckets[b].push(e);
            self.near_len += 1;
        }
    }

    /// Re-establishes the cached minimum after a pop: walk day-indexed
    /// buckets from the current day (nothing pends earlier — `schedule`
    /// refuses the past) and take the `(at, key)` minimum of the first day
    /// holding one. Near events always precede far ones, so when the
    /// calendar is empty the minimum is the far heap's top.
    fn recompute_next(&mut self) {
        self.next = None;
        if self.near_len == 0 {
            if !self.far.is_empty() {
                self.next = Some(NextRef::Far);
            }
            return;
        }
        let start = day(self.now);
        let cycle = self.buckets.len() as u64;
        for d in start..start + cycle {
            let b = (d as usize) & self.mask;
            let mut best: Option<(SimTime, u64, usize)> = None;
            for (slot, e) in self.buckets[b].iter().enumerate() {
                if day(e.at) == d {
                    let cand = (e.at, e.key, slot);
                    if best.is_none_or(|(bat, bkey, _)| (cand.0, cand.1) < (bat, bkey)) {
                        best = Some(cand);
                    }
                }
            }
            if let Some((at, key, slot)) = best {
                self.next = Some(NextRef::Near { at, key, bucket: b, slot });
                return;
            }
        }
        unreachable!("near_len > 0 but no event within one bucket cycle of now");
    }

    /// Doubles the bucket count and redistributes. Order is untouched —
    /// bucketing is pure routing; `(at, key)` decides everything. The wider
    /// cycle may make far events near, and the rehash moves slots, so both
    /// the far boundary and the cached minimum are re-established. Only the
    /// 24-byte ordering records move; payloads stay put in the arena.
    fn grow(&mut self) {
        let new_n = self.buckets.len() * 2;
        let mut new_buckets: Vec<Vec<Entry>> = (0..new_n).map(|_| Vec::new()).collect();
        let new_mask = new_n - 1;
        for bucket in self.buckets.drain(..) {
            for e in bucket {
                new_buckets[(day(e.at) as usize) & new_mask].push(e);
            }
        }
        self.buckets = new_buckets;
        self.mask = new_mask;
        self.migrate_far();
        self.recompute_next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(3), "c");
        q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), ());
        q.pop();
        q.schedule(SimTime::from_micros(1), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(1), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_micros(1), 1));
        // Scheduling relative to the popped time is the common closed-loop
        // client pattern.
        q.schedule(t + crate::SimDuration::from_micros(4), 2);
        q.schedule(t + crate::SimDuration::from_micros(2), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn far_future_events_survive_sparse_calendars() {
        // More than a full bucket cycle ahead (and several cycles apart):
        // exercises the far-heap path end to end.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), "z");
        q.schedule(SimTime::from_millis(500), "y");
        q.schedule(SimTime::from_nanos(10), "x");
        assert_eq!(q.pop().unwrap().1, "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(500)));
        assert_eq!(q.pop().unwrap().1, "y");
        assert_eq!(q.pop().unwrap().1, "z");
        assert!(q.pop().is_none());
    }

    #[test]
    fn sparse_calendar_stress() {
        // Clustered bursts separated by gaps of many empty bucket cycles,
        // scheduled in a scrambled order, with interleaved pops: far events
        // must migrate into the calendar exactly once and in order, and
        // `len` must account for both sets throughout.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new(); // (at_ns, id)
        let mut id = 0u64;
        for cluster in 0u64..40 {
            // ~1 ms apart: dozens of 32.8 µs cycles of dead air between.
            let base = cluster * 1_000_000;
            for j in 0u64..5 {
                expect.push((base + j * 37, id));
                id += 1;
            }
        }
        // Scramble deterministically: schedule clusters back-to-front but
        // events within a cluster in insertion order, so far/near routing
        // and FIFO ties both get exercised.
        for chunk in expect.chunks(5).rev() {
            for &(at, i) in chunk {
                q.schedule(SimTime::from_nanos(at), i);
            }
        }
        assert_eq!(q.len(), expect.len());
        // FIFO tie-break means equal timestamps pop in schedule order;
        // timestamps here are unique, so (at) alone decides.
        let mut order: Vec<(u64, u64)> = Vec::new();
        while let Some((t, e)) = q.pop() {
            order.push((t.as_nanos(), e));
            assert_eq!(q.len() + order.len(), expect.len());
        }
        let mut sorted = expect.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn keyed_schedule_orders_ties_by_key() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(2);
        // Insertion order deliberately disagrees with key order.
        q.schedule_keyed(t, 30, "c");
        q.schedule_keyed(t, 10, "a");
        q.schedule_keyed(SimTime::from_micros(1), 99, "first");
        q.schedule_keyed(t, 20, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["first", "a", "b", "c"]);
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), 1);
        q.schedule(SimTime::from_nanos(200), 2);
        q.schedule(SimTime::from_nanos(300), 3);
        // Horizon is exclusive: an event exactly at it must wait.
        assert_eq!(q.pop_before(SimTime::from_nanos(100)), None);
        assert_eq!(q.pop_before(SimTime::from_nanos(201)).unwrap().1, 1);
        assert_eq!(q.pop_before(SimTime::from_nanos(201)).unwrap().1, 2);
        assert_eq!(q.pop_before(SimTime::from_nanos(201)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(SimTime::MAX).unwrap().1, 3);
        assert!(q.is_empty());
    }

    #[test]
    fn growth_rehash_preserves_order() {
        // Push far past the initial bucket count so the calendar doubles
        // several times mid-stream.
        let mut q = EventQueue::new();
        let n = 4_096u64;
        for i in 0..n {
            // Deliberately colliding buckets: timestamps descend as seq
            // ascends, so every (time, fifo) edge is exercised.
            q.schedule(SimTime::from_nanos((n - i) * 100), i);
        }
        let mut popped: Vec<(SimTime, u64)> = Vec::new();
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        assert_eq!(popped.len(), n as usize);
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated: {w:?}");
        }
        let times: Vec<u64> = popped.iter().map(|&(_, e)| e).collect();
        let expect: Vec<u64> = (0..n).rev().collect();
        assert_eq!(times, expect);
    }

    #[test]
    fn steady_state_churn_recycles_arena_slots() {
        // A closed-loop workload keeps a bounded number of events in
        // flight; after warm-up the arena must stop growing — the
        // zero-allocation invariant the hot loop relies on.
        let mut q = EventQueue::new();
        for i in 0u64..8 {
            q.schedule(SimTime::from_nanos(i * 64), i);
        }
        let mut warm_cap = 0;
        for round in 0u64..10_000 {
            let (t, e) = q.pop().unwrap();
            q.schedule(t + crate::SimDuration::from_nanos(512 + (e % 7) * 64), e);
            if round == 100 {
                warm_cap = q.arena.capacity();
            }
        }
        assert_eq!(q.len(), 8);
        assert_eq!(
            q.arena.capacity(),
            warm_cap,
            "steady-state schedule/pop churn must recycle slab slots, not grow the arena"
        );
    }

    /// S2 property test: against randomized interleavings of schedules and
    /// pops, the calendar queue pops in exactly the `(at, seq)` order of a
    /// straightforward reference model — equal timestamps in insertion
    /// order, times monotone, `now` monotone.
    #[test]
    fn differential_against_reference_model() {
        use crate::rng::root_rng;
        use rand::Rng;

        let mut rng = root_rng(0xCA1E);
        for round in 0u64..50 {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: Vec<(SimTime, u64, u64)> = Vec::new(); // (at, seq, ev)
            let mut seq = 0u64;
            let mut last_now = SimTime::ZERO;
            for step in 0u64..400 {
                let do_pop = !model.is_empty() && rng.gen_bool(0.45);
                if do_pop {
                    let min_idx = (0..model.len())
                        .min_by_key(|&i| (model[i].0, model[i].1))
                        .expect("model non-empty");
                    let (at, _, ev) = model.swap_remove(min_idx);
                    let got = q.pop().expect("queue agrees model is non-empty");
                    assert_eq!(got, (at, ev), "round {round} step {step}");
                    assert!(q.now() >= last_now, "now must be monotone");
                    last_now = q.now();
                } else {
                    // Mostly near-future, occasionally same-instant (tie)
                    // or far-future (sparse-calendar) schedules.
                    let offset = match rng.gen_range(0..10u32) {
                        0 => 0,
                        1 => rng.gen_range(0..4u64) * 512,
                        2 => rng.gen_range(0..10_000_000u64),
                        _ => rng.gen_range(0..20_000u64),
                    };
                    let at = q.now() + crate::SimDuration::from_nanos(offset);
                    q.schedule(at, step);
                    model.push((at, seq, step));
                    seq += 1;
                }
                assert_eq!(q.len(), model.len());
                let model_min = model.iter().map(|&(at, s, _)| (at, s)).min().map(|(at, _)| at);
                assert_eq!(q.peek_time(), model_min, "round {round} step {step}");
            }
            // Drain: the full remaining order must match.
            let mut rest: Vec<(SimTime, u64, u64)> = std::mem::take(&mut model);
            rest.sort_by_key(|&(at, s, _)| (at, s));
            for (at, _, ev) in rest {
                assert_eq!(q.pop(), Some((at, ev)));
            }
            assert!(q.pop().is_none());
        }
    }
}
