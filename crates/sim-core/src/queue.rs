//! Future-event list for discrete-event simulations.
//!
//! [`EventQueue`] orders user events by timestamp and, for ties, by insertion
//! order (FIFO). Popping an event advances the queue's notion of "now"; the
//! queue refuses to schedule events in the past so simulations stay causal.
//!
//! It is one [`BinaryHeap`] whose entries own their payloads. The one caller
//! outside tests, `corm_bench::sim::run_closed_loop`, keeps one event per
//! closed-loop client pending — 1 to 32 in every figure and workload — so a
//! sift is a handful of compares, and steady-state schedule/pop churn reuses
//! the heap's retained capacity without touching the allocator. DESIGN §12
//! says what would justify a calendar queue instead.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A monotonic future-event list.
///
/// Events carry an arbitrary payload `E`. Ties on the timestamp are broken by
/// insertion order so that, e.g., two clients whose requests complete at the
/// same instant are served in the order they were enqueued.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// The insertion counter [`EventQueue::schedule`] breaks ties with.
    seq: u64,
    now: SimTime,
}

/// One pending event: when it fires, how ties break, and the payload.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    key: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reversed `(at, key)` order: `BinaryHeap` is a max-heap, the event list
/// pops its minimum. The payload takes no part in comparisons.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: SimTime::ZERO }
    }

    /// The timestamp of the most recently popped event (time zero initially).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time, which
    /// would break causality.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = self.seq;
        self.seq += 1;
        self.schedule_keyed(at, key, event);
    }

    /// Schedules `event` at `at` with an explicit tie-breaking `key` in
    /// place of the internal insertion counter: equal-timestamp events pop
    /// in ascending key order regardless of insertion order. This makes
    /// the tie-break sequence an input: a schedule explorer permutes it to
    /// enumerate the orders equal-time events can take. Nothing calls it
    /// yet besides [`EventQueue::schedule`], which is built from it; it is
    /// public because ROADMAP item 2's explorer names it as its reorder
    /// point. Callers own key uniqueness per timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        assert!(at >= self.now, "cannot schedule event in the past: at={at} now={}", self.now);
        self.heap.push(Entry { at, key, event });
    }

    /// Pops the earliest pending event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { at, event, .. } = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }

    /// The timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
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
    fn far_future_events_pop_in_order() {
        // Seconds, milliseconds and nanoseconds ahead on one queue.
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
    fn sparse_cluster_stress() {
        // Clustered bursts separated by long gaps, scheduled in a scrambled
        // order: every event must pop exactly once and in order, and `len`
        // must account for all of them throughout.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new(); // (at_ns, id)
        let mut id = 0u64;
        for cluster in 0u64..40 {
            // ~1 ms apart, against 37 ns inside a cluster.
            let base = cluster * 1_000_000;
            for j in 0u64..5 {
                expect.push((base + j * 37, id));
                id += 1;
            }
        }
        // Scramble deterministically: schedule clusters back-to-front but
        // events within a cluster in insertion order.
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
    fn descending_times_pop_in_order() {
        // Far more events than any figure keeps pending, so the heap's
        // storage reallocates several times mid-stream.
        let mut q = EventQueue::new();
        let n = 4_096u64;
        for i in 0..n {
            // Timestamps descend as seq ascends, so every push sifts to
            // the top.
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
    fn steady_state_churn_keeps_heap_capacity() {
        // A closed-loop workload keeps a bounded number of events in
        // flight; after warm-up the heap must stop growing — the
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
                warm_cap = q.heap.capacity();
            }
        }
        assert_eq!(q.len(), 8);
        assert_eq!(
            q.heap.capacity(),
            warm_cap,
            "steady-state schedule/pop churn must reuse the heap's capacity, not grow it"
        );
    }

    #[test]
    fn payloads_are_owned_by_their_entries() {
        // An entry owns its event: a popped payload comes back by value, a
        // pending one is dropped with the queue, and nothing else holds
        // either.
        use std::rc::Rc;
        let token = Rc::new(());
        let mut q = EventQueue::new();
        for i in 0u64..6 {
            q.schedule(SimTime::from_nanos(i * 10), (i, Rc::clone(&token)));
        }
        assert_eq!(Rc::strong_count(&token), 7);
        for i in 0u64..3 {
            let (_, (id, payload)) = q.pop().unwrap();
            assert_eq!(id, i);
            assert!(Rc::ptr_eq(&payload, &token));
            drop(payload);
            assert_eq!(Rc::strong_count(&token), 6 - i as usize);
        }
        assert_eq!(q.len(), 3);
        drop(q);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    /// S2 property test: against randomized interleavings of schedules and
    /// pops, the queue pops in exactly the `(at, seq)` order of a
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
                    // or far-future schedules.
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
