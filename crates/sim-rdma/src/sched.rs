//! The RNIC's verb engines and their one admission path: round-robin over
//! per-unit FIFOs, or weighted SLO-class-aware sharing.
//!
//! Plain round-robin WQE dispatch treats every verb alike, so a tenant
//! spraying bulk scans starves latency-sensitive gets: once the per-unit
//! FIFO backlogs, a get queues behind the whole scan window. Real RNICs
//! (and the NP-RDMA discipline this simulator's verb costs are anchored to)
//! arbitrate between flows, so the scheduler can also run deficit-weighted
//! in *virtual time*: every verb belongs to a flow — a `(tenant, class)`
//! pair — and the scheduler rations the engines' aggregate service
//! capacity across the *backlogged* flows in proportion to their weights.
//!
//! # Disciplines
//!
//! The scheduler must answer each admission immediately (the simulator
//! charges a verb its completion time the moment it is admitted), which
//! rules out exact packetized WFQ: a verb's true finish time depends on
//! arrivals that have not happened yet. Two disciplines cover the two
//! regimes:
//!
//! * **Uniform** — when every flow weight is equal there is nothing to
//!   arbitrate: per-unit FIFO engines with round-robin WQE assignment.
//!   This is what a NIC without a QoS config runs, so an equal-weight
//!   config replays it byte for byte by construction, and work
//!   conservation is the FIFO's own.
//!
//! * **Weighted** — with skewed weights the scheduler runs the fluid
//!   (GPS-style) limit of deficit-weighted round robin. Each flow owns a
//!   virtual clock `next_start`; a verb of flow `f` with weight `w_f`
//!   admitted at `now` for `service` starts at `max(now, next_start[f])`,
//!   completes one service later, and advances the clock by
//!   `service × W_active / (w_f × capacity)`, where `W_active` sums the
//!   weights of the flows backlogged at `now` (maintained incrementally
//!   with a drain heap, so admission stays `O(log flows)` even with 10⁵
//!   tenants). Isolation falls out: a saturating bulk flow only drives
//!   *its own* clock into the future, so a latency-class verb still starts
//!   at its arrival — that is the fig21 `p99 ≤ 2× unloaded` gate. While
//!   every flow stays backlogged the admitted work completes at exactly
//!   the aggregate capacity (no idle units — pinned by test); once a flow
//!   drains mid-backlog the remaining flows keep their frozen shares
//!   until real time catches up with their clocks, a conservative
//!   (never-overcommitting) artifact of answering admissions immediately.
//!
//! The weights come from `RnicConfig::qos`; without one the NIC runs the
//! uniform discipline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use corm_sim_core::hash::FastHashMap;
use corm_sim_core::resource::FifoResource;
use corm_sim_core::time::{SimDuration, SimTime};

/// The SLO class of a verb or RPC: which service curve it rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TrafficClass {
    /// Latency-sensitive gets (DirectRead / small READ verbs). Default.
    #[default]
    Latency = 0,
    /// Bulk scans and large transfers.
    Bulk = 1,
    /// Compaction MTT-sync and other maintenance traffic.
    Sync = 2,
}

impl TrafficClass {
    /// Number of classes (sizes per-class arrays).
    pub const COUNT: usize = 3;

    /// Every class, in priority order (latency first).
    pub const ALL: [TrafficClass; TrafficClass::COUNT] =
        [TrafficClass::Latency, TrafficClass::Bulk, TrafficClass::Sync];

    /// Dense index for per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake-case name used by metrics exporters.
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::Latency => "latency",
            TrafficClass::Bulk => "bulk",
            TrafficClass::Sync => "sync",
        }
    }
}

/// Configuration of the weighted scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosConfig {
    /// Per-class weights, indexed by [`TrafficClass`]: the weight of every
    /// `(tenant, class)` flow of that class, so tenants of one class share
    /// equally. The defaults prioritize gets over scans over maintenance
    /// sync.
    class_weights: [u64; TrafficClass::COUNT],
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig { class_weights: [8, 2, 1] }
    }
}

impl QosConfig {
    /// A configuration with every class weighted equally: the uniform
    /// discipline a NIC without a QoS config runs.
    pub fn equal_weights() -> Self {
        QosConfig { class_weights: [1; TrafficClass::COUNT] }
    }

    /// Whether every flow ends up with the same weight, which selects the
    /// round-robin FIFO dispatch.
    fn is_uniform(&self) -> bool {
        self.class_weights.iter().all(|&w| w == self.class_weights[0])
    }
}

/// One flow's scheduling state (weighted discipline).
#[derive(Debug, Clone, Copy)]
struct FlowState {
    /// Earliest virtual time the flow's next verb may start service.
    next_start: SimTime,
    /// The flow's weight: its class's.
    weight: u64,
    /// Whether the flow is currently counted in the active weight sum.
    active: bool,
}

/// Admission result for one verb.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QosAdmission {
    /// Instant the verb's engine service completes.
    pub(crate) done: SimTime,
    /// Scheduler-imposed wait between arrival and service start — time the
    /// verb spent held back by its flow's share, not by engine backlog.
    /// Always zero in the uniform discipline.
    pub(crate) class_wait: SimDuration,
    /// Processing unit charged with the service (names the trace track).
    pub(crate) unit: usize,
}

#[derive(Debug)]
enum Discipline {
    /// Per-unit FIFO engines, round-robin assignment.
    Uniform { engines: Vec<FifoResource> },
    /// Fluid deficit-weighted sharing across backlogged flows.
    Weighted {
        flows: FastHashMap<u64, FlowState>,
        /// Drain heap of `(next_start, flow)` used to deactivate flows
        /// whose clocks real time has caught up with. Entries are lazily
        /// deleted: a flow's clock is monotone, so an entry is current
        /// iff it equals the flow's stored `next_start`.
        drain: BinaryHeap<Reverse<(SimTime, u64)>>,
        /// Sum of the weights of currently-backlogged flows.
        w_active: u64,
        /// Processing-order clamp, mirroring [`FifoResource`]: admissions
        /// stay causal even if a caller's clock lags.
        last_admit: SimTime,
    },
}

/// The RNIC's inbound engines behind their scheduler. See the module docs
/// for the two disciplines it runs.
#[derive(Debug)]
pub(crate) struct QosScheduler {
    config: QosConfig,
    discipline: Discipline,
    /// Round-robin cursor over the units.
    next_unit: usize,
    units: usize,
    /// Verbs admitted.
    admitted: u64,
    /// Aggregate service time admitted (for utilization metrics).
    busy: SimDuration,
}

#[inline]
fn flow_key(tenant: u32, class: TrafficClass) -> u64 {
    ((tenant as u64) << 2) | class.index() as u64
}

impl QosScheduler {
    /// Creates a scheduler rationing `units` single-server engines
    /// (clamped to ≥ 1).
    pub(crate) fn new(config: QosConfig, units: usize) -> Self {
        let units = units.max(1);
        let discipline = if config.is_uniform() {
            Discipline::Uniform { engines: (0..units).map(|_| FifoResource::new(1)).collect() }
        } else {
            Discipline::Weighted {
                flows: FastHashMap::default(),
                drain: BinaryHeap::new(),
                w_active: 0,
                last_admit: SimTime::ZERO,
            }
        };
        QosScheduler {
            config,
            discipline,
            next_unit: 0,
            units,
            admitted: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// Admits one verb of `(tenant, class)` arriving at `now` needing
    /// `service` time, and returns when it completes.
    pub(crate) fn admit(
        &mut self,
        tenant: u32,
        class: TrafficClass,
        now: SimTime,
        service: SimDuration,
    ) -> QosAdmission {
        let unit = self.next_unit;
        self.next_unit = if unit + 1 == self.units { 0 } else { unit + 1 };
        // Aggregate engine capacity: one server per unit.
        let capacity = self.units as u64;
        let adm = match &mut self.discipline {
            Discipline::Uniform { engines } => QosAdmission {
                done: engines[unit].admit(now, service),
                class_wait: SimDuration::ZERO,
                unit,
            },
            Discipline::Weighted { flows, drain, w_active, last_admit } => {
                let now = now.max(*last_admit);
                *last_admit = now;
                // Deactivate flows whose clocks real time has caught up
                // with: they are no longer backlogged and stop diluting
                // everyone else's share.
                while let Some(&Reverse((t, k))) = drain.peek() {
                    if t > now {
                        break;
                    }
                    drain.pop();
                    if let Some(f) = flows.get_mut(&k) {
                        if f.active && f.next_start == t {
                            f.active = false;
                            *w_active -= f.weight;
                        }
                    }
                }
                let key = flow_key(tenant, class);
                let weight = self.config.class_weights[class.index()].max(1);
                let flow = flows.entry(key).or_insert(FlowState {
                    next_start: SimTime::ZERO,
                    weight,
                    active: false,
                });
                if !flow.active {
                    flow.active = true;
                    *w_active += flow.weight;
                }
                let start = flow.next_start.max(now);
                let done = start + service;
                let spacing =
                    service.as_nanos().saturating_mul(*w_active).div_ceil(flow.weight * capacity);
                flow.next_start = start + SimDuration::from_nanos(spacing);
                drain.push(Reverse((flow.next_start, key)));
                QosAdmission { done, class_wait: start.saturating_since(now), unit }
            }
        };
        self.admitted += 1;
        self.busy += service;
        adm
    }

    /// Verbs admitted so far.
    pub(crate) fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Aggregate service time admitted (the engines' busy time).
    pub(crate) fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Mean utilization of the engines over `[0, horizon]`.
    pub(crate) fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        // One server per unit, under either discipline.
        self.busy.as_secs_f64() / (horizon.as_secs_f64() * self.units as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    /// The oracle of the uniform discipline — round-robin across per-unit
    /// FIFO engines, as the NIC dispatched before it had a scheduler.
    struct LegacyDispatch {
        engines: Vec<FifoResource>,
        next: usize,
    }

    impl LegacyDispatch {
        fn new(units: usize) -> Self {
            LegacyDispatch { engines: (0..units).map(|_| FifoResource::new(1)).collect(), next: 0 }
        }
        fn admit(&mut self, now: SimTime, service: SimDuration) -> (SimTime, usize) {
            let unit = self.next % self.engines.len();
            self.next += 1;
            (self.engines[unit].admit(now, service), unit)
        }
    }

    #[test]
    fn equal_weights_match_legacy_dispatch_exactly() {
        // Determinism pin: a uniform scheduler must reproduce the legacy
        // round-robin event order byte for byte — any class mix, any unit
        // count, any (causal) arrival pattern.
        for units in [1, 3, 4] {
            let mut qos = QosScheduler::new(QosConfig::equal_weights(), units);
            let mut legacy = LegacyDispatch::new(units);
            let mut seed = 0x51EEDu64;
            let mut now = 0u64;
            for i in 0..500 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                now += seed >> 58; // small pseudo-random arrival steps
                let service = us(1 + (seed >> 60));
                let class = TrafficClass::ALL[(seed >> 32) as usize % TrafficClass::COUNT];
                let tenant = (seed >> 16) as u32 % 7;
                let q = qos.admit(tenant, class, at(now), service);
                let (done, unit) = legacy.admit(at(now), service);
                assert_eq!((q.done, q.unit), (done, unit), "op {i} diverged at {units} units");
                assert_eq!(q.class_wait, SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn saturating_bulk_does_not_delay_latency_class() {
        // Isolation: bulk backlogs its own clock far ahead; a latency verb
        // still starts at its arrival and completes in one service.
        let mut qos = QosScheduler::new(QosConfig::default(), 1);
        let s = us(10);
        for _ in 0..1000 {
            qos.admit(7, TrafficClass::Bulk, at(0), s);
        }
        let get = qos.admit(1, TrafficClass::Latency, at(50), us(2));
        assert_eq!(get.done, at(52), "latency verb must not queue behind bulk");
        assert_eq!(get.class_wait, SimDuration::ZERO);
    }

    #[test]
    fn backlogged_flows_split_capacity_by_weight() {
        // Two backlogged flows with class weights 3:1 — over a long window
        // the heavier flow completes ~3x the verbs of the lighter one at
        // equal service times.
        let cfg = QosConfig { class_weights: [3, 1, 1] };
        assert!(!cfg.is_uniform());
        assert!(QosConfig::equal_weights().is_uniform());
        let mut qos = QosScheduler::new(cfg, 1);
        let s = us(1);
        let horizon = at(4_000);
        let (mut heavy, mut light) = (0u64, 0u64);
        for _ in 0..4000 {
            if qos.admit(1, TrafficClass::Latency, at(0), s).done <= horizon {
                heavy += 1;
            }
            if qos.admit(2, TrafficClass::Bulk, at(0), s).done <= horizon {
                light += 1;
            }
        }
        let ratio = heavy as f64 / light as f64;
        assert!((2.5..=3.5).contains(&ratio), "weights 3:1 must yield ~3x: {ratio}");
    }

    #[test]
    fn tenants_of_one_class_are_separate_flows_with_equal_shares() {
        // Flows are keyed by (tenant, class): a tenant that backlogs its
        // own bulk clock does not hold back another tenant's bulk verbs,
        // and two backlogged tenants of one class split its share evenly.
        let mut qos = QosScheduler::new(QosConfig::default(), 1);
        let s = us(1);
        for _ in 0..1000 {
            qos.admit(1, TrafficClass::Bulk, at(0), s);
        }
        let other = qos.admit(2, TrafficClass::Bulk, at(50), s);
        assert_eq!(other.class_wait, SimDuration::ZERO, "tenant 2 queued behind tenant 1");

        let mut qos = QosScheduler::new(QosConfig::default(), 1);
        let horizon = at(2_000);
        let (mut a, mut b) = (0u64, 0u64);
        for _ in 0..2000 {
            a += u64::from(qos.admit(1, TrafficClass::Bulk, at(0), s).done <= horizon);
            b += u64::from(qos.admit(2, TrafficClass::Bulk, at(0), s).done <= horizon);
        }
        assert!(a.abs_diff(b) <= 1, "equal-weight tenants must split evenly: {a} vs {b}");
    }

    #[test]
    fn uniform_discipline_is_work_conserving_exactly() {
        // Work conservation, equal weights: an all-backlogged batch
        // finishes exactly at the FIFO makespan — no unit idles while any
        // class has runnable WQEs.
        let mut qos = QosScheduler::new(QosConfig::equal_weights(), 2);
        let mut fifo = LegacyDispatch::new(2);
        let s = us(4);
        let mut qos_last = SimTime::ZERO;
        let mut fifo_last = SimTime::ZERO;
        for i in 0..300 {
            let class = TrafficClass::ALL[i % TrafficClass::COUNT];
            qos_last = qos_last.max(qos.admit(0, class, at(0), s).done);
            fifo_last = fifo_last.max(fifo.admit(at(0), s).0);
        }
        assert_eq!(qos_last, fifo_last);
    }

    #[test]
    fn weighted_discipline_serves_at_capacity_while_all_backlogged() {
        // Work conservation, skewed weights: while every flow still has
        // runnable WQEs the engines complete work at full capacity — the
        // completed service in [0, T] tracks T with no idle gap.
        let mut qos = QosScheduler::new(QosConfig::default(), 1);
        let s = us(4);
        let mut dones = Vec::new();
        for i in 0..300 {
            let class = TrafficClass::ALL[i % TrafficClass::COUNT];
            dones.push(qos.admit(0, class, at(0), s).done);
        }
        dones.sort();
        // All three flows stay backlogged until the latency flow's last
        // completion; up to there, completions must arrive at one per
        // service time (within one slot of slack for the fluid rounding).
        let all_backlogged_until = dones[99]; // 100 latency verbs at weight 8 finish first
        let within = dones.iter().filter(|&&d| d <= all_backlogged_until).count() as u64;
        let expect = all_backlogged_until.as_nanos() / s.as_nanos();
        assert!(
            within + 1 >= expect,
            "engines idled while all classes backlogged: {within} completions by \
             {all_backlogged_until}, capacity allows {expect}"
        );
        // ... and never overcommit: no window may complete more work than
        // the engines physically can.
        assert!(within <= expect + 1, "overcommitted: {within} > {expect}");
    }

    #[test]
    fn weighted_flows_reactivate_after_draining() {
        // A flow that drains (real time passes its clock) stops diluting
        // others: after bulk's backlog is long gone, latency runs at full
        // rate again and bulk restarts cleanly.
        let mut qos = QosScheduler::new(QosConfig::default(), 1);
        let s = us(2);
        for _ in 0..10 {
            qos.admit(0, TrafficClass::Bulk, at(0), s);
        }
        // Far past bulk's frozen clock: bulk is inactive, a lone latency
        // flow gets the whole engine (FIFO recurrence).
        let a = qos.admit(1, TrafficClass::Latency, at(10_000), s);
        let b = qos.admit(1, TrafficClass::Latency, at(10_000), s);
        assert_eq!(a.done, at(10_002));
        assert_eq!(b.done, at(10_004), "drained bulk flow must not dilute latency");
    }

    #[test]
    fn class_names_and_indices_are_stable() {
        assert_eq!(TrafficClass::ALL.map(|c| c.index()), [0, 1, 2]);
        assert_eq!(TrafficClass::ALL.map(|c| c.name()), ["latency", "bulk", "sync"]);
        assert_eq!(TrafficClass::default(), TrafficClass::Latency);
    }

    #[test]
    fn per_class_counters_accumulate() {
        let mut qos = QosScheduler::new(QosConfig::default(), 1);
        let get = qos.admit(0, TrafficClass::Latency, at(0), us(1));
        qos.admit(0, TrafficClass::Bulk, at(0), us(2));
        let second_bulk = qos.admit(0, TrafficClass::Bulk, at(0), us(2));
        assert_eq!(qos.admitted(), 3);
        assert_eq!(qos.busy(), us(5));
        // The second bulk verb waited behind bulk's own clock.
        assert!(second_bulk.class_wait > SimDuration::ZERO);
        assert_eq!(get.class_wait, SimDuration::ZERO);
    }
}
