//! Deterministic fault injection for the simulated RNIC.
//!
//! Real RDMA deployments see transient NIC/PCIe faults, latency spikes from
//! ICM/MTT cache pressure, and outright QP breaks — the failure modes CoRM's
//! recovery machinery (§3.5) must absorb. This module injects those faults
//! *reproducibly*: every injector draws from a seeded [`DetRng`] stream and
//! consumes a fixed number of random draws per verb, so a run with the same
//! seed and the same (single-threaded) verb sequence replays the exact same
//! fault schedule. Scripted faults pinned to specific verb indices layer on
//! top of the probabilistic stream without perturbing it.
//!
//! Injection is off by default ([`RnicConfig::faults`](crate::RnicConfig) is
//! `None`), in which case the NIC's behaviour — including its virtual-time
//! latencies — is bit-identical to a build without this module.

use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::time::SimDuration;
use parking_lot::Mutex;
use rand::Rng;

/// The kinds of fault the injector can produce on a one-sided verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The verb fails with a transient NIC/PCIe fault. Under reliable-
    /// connection semantics the completion error still moves the QP to the
    /// error state, but the underlying region and data are intact — a
    /// reconnect fully recovers.
    Transient,
    /// The verb completes, but its latency is inflated by the configured
    /// spike (e.g. PFC pause frames or PCIe backpressure).
    DelaySpike,
    /// The verb's MTT-cache translations are evicted first, forcing the
    /// cache-miss latency path (ICM cache pressure).
    CacheMiss,
    /// The QP breaks outright before the verb executes (link flap, remote
    /// reset). The verb fails with [`RdmaError::QpBroken`](crate::RdmaError).
    QpBreak,
}

/// A fault pinned to a specific verb index (0-based, counted across all
/// one-sided verbs the owning NIC serves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// The verb index at which the fault fires.
    pub at_op: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Latency added to a verb hit by a [`FaultKind::DelaySpike`] fault.
pub const DELAY_SPIKE: SimDuration = SimDuration::from_micros(50);

/// Configuration for a [`FaultInjector`].
///
/// Probabilities are per one-sided verb and checked in fixed precedence
/// order: scripted schedule, then `qp_break_prob`, `transient_prob`,
/// `delay_prob`, `cache_miss_prob`. At most one fault fires per verb.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Probability a verb fails with a transient NIC/PCIe fault.
    pub transient_prob: f64,
    /// Probability a verb's completion is delayed by [`DELAY_SPIKE`].
    pub delay_prob: f64,
    /// Probability a verb is forced down the MTT-cache-miss path.
    pub cache_miss_prob: f64,
    /// Probability the QP breaks outright before the verb.
    pub qp_break_prob: f64,
    /// Faults pinned to exact verb indices; these override the
    /// probabilistic draws (which are still consumed, keeping the RNG
    /// stream aligned whether or not a script entry fires).
    pub schedule: Vec<ScheduledFault>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            transient_prob: 0.0,
            delay_prob: 0.0,
            cache_miss_prob: 0.0,
            qp_break_prob: 0.0,
            schedule: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// A purely scripted config: no probabilistic faults, only `schedule`.
    pub fn scripted(schedule: Vec<ScheduledFault>) -> Self {
        FaultConfig { schedule, ..FaultConfig::default() }
    }
}

struct FaultState {
    rng: DetRng,
    /// One-sided verbs decided so far (= the next verb's index).
    op: u64,
    /// Cursor into the sorted schedule.
    next_sched: usize,
    /// Every fault fired, as `(verb index, kind)` — the replay log.
    fired: Vec<(u64, FaultKind)>,
}

/// Seeded fault source consulted once per one-sided verb.
pub struct FaultInjector {
    config: FaultConfig,
    state: Mutex<FaultState>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("FaultInjector")
            .field("config", &self.config)
            .field("ops", &state.op)
            .field("fired", &state.fired.len())
            .finish()
    }
}

/// Stream label decorrelating the injector's RNG from workload RNGs that
/// may share the experiment's root seed.
const FAULT_STREAM: u64 = 0xFA17;

impl FaultInjector {
    /// Builds an injector. The schedule is sorted by verb index.
    pub fn new(mut config: FaultConfig) -> Self {
        config.schedule.sort_by_key(|s| s.at_op);
        let rng = stream_rng(config.seed, FAULT_STREAM);
        FaultInjector {
            config,
            state: Mutex::new(FaultState { rng, op: 0, next_sched: 0, fired: Vec::new() }),
        }
    }

    /// Opens a block-drawing session for a doorbell batch: the injector
    /// lock is taken once for the whole batch instead of once per verb.
    ///
    /// Draws remain strictly per-verb and on demand — a verb the batch
    /// never serves (flushed after an earlier failure, injected *or not*)
    /// consumes no draws. That makes a batch's draws byte-for-byte those
    /// of one single-verb block per verb it serves, which is the invariant
    /// seeded replays depend on. (An eager pre-draw of the whole block
    /// could not honor it: a mid-batch `InvalidKey` aborts the batch after
    /// consuming draws only up to the failing verb.)
    pub(crate) fn begin_block(&self) -> FaultBlock<'_> {
        FaultBlock { config: &self.config, state: self.state.lock() }
    }

    /// The per-verb decision procedure, under the state lock.
    fn decide_locked(cfg: &FaultConfig, st: &mut FaultState) -> Option<FaultKind> {
        let op = st.op;
        st.op += 1;
        let qp_break = st.rng.gen_bool(cfg.qp_break_prob);
        let transient = st.rng.gen_bool(cfg.transient_prob);
        let delay = st.rng.gen_bool(cfg.delay_prob);
        let miss = st.rng.gen_bool(cfg.cache_miss_prob);

        let mut scripted = None;
        while st.next_sched < cfg.schedule.len() && cfg.schedule[st.next_sched].at_op <= op {
            if cfg.schedule[st.next_sched].at_op == op && scripted.is_none() {
                scripted = Some(cfg.schedule[st.next_sched].kind);
            }
            st.next_sched += 1;
        }

        let kind = scripted.or(if qp_break {
            Some(FaultKind::QpBreak)
        } else if transient {
            Some(FaultKind::Transient)
        } else if delay {
            Some(FaultKind::DelaySpike)
        } else if miss {
            Some(FaultKind::CacheMiss)
        } else {
            None
        });
        if let Some(k) = kind {
            st.fired.push((op, k));
        }
        kind
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Number of one-sided verbs decided so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().op
    }

    /// The replay log: every fault fired, in order, as `(verb index, kind)`.
    /// Two runs from the same seed over the same verb sequence produce
    /// identical logs.
    pub fn fired(&self) -> Vec<(u64, FaultKind)> {
        self.state.lock().fired.clone()
    }
}

/// A block-drawing session over a [`FaultInjector`], from
/// [`FaultInjector::begin_block`]: holds the injector lock for a whole
/// doorbell batch while keeping draws per-verb and on demand.
pub(crate) struct FaultBlock<'a> {
    config: &'a FaultConfig,
    state: parking_lot::MutexGuard<'a, FaultState>,
}

impl FaultBlock<'_> {
    /// Decides the fate of the next one-sided verb.
    ///
    /// Exactly four random draws are consumed per call regardless of the
    /// outcome, so editing probabilities or the script never shifts the
    /// stream for unrelated verbs.
    pub(crate) fn decide(&mut self) -> Option<FaultKind> {
        FaultInjector::decide_locked(self.config, &mut self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(inj: &FaultInjector, ops: u64) -> Vec<(u64, FaultKind)> {
        for _ in 0..ops {
            inj.begin_block().decide();
        }
        inj.fired()
    }

    #[test]
    fn disabled_config_never_fires() {
        let inj = FaultInjector::new(FaultConfig::default());
        assert!(drain(&inj, 10_000).is_empty());
    }

    #[test]
    fn same_seed_replays_identically() {
        let cfg = FaultConfig {
            seed: 42,
            transient_prob: 0.01,
            delay_prob: 0.02,
            cache_miss_prob: 0.05,
            qp_break_prob: 0.001,
            ..FaultConfig::default()
        };
        let a = drain(&FaultInjector::new(cfg.clone()), 50_000);
        let b = drain(&FaultInjector::new(cfg), 50_000);
        assert!(!a.is_empty(), "probs this high must fire in 50k ops");
        assert_eq!(a, b, "same seed must replay byte-for-byte");
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| FaultConfig { seed, transient_prob: 0.05, ..FaultConfig::default() };
        let a = drain(&FaultInjector::new(mk(1)), 10_000);
        let b = drain(&FaultInjector::new(mk(2)), 10_000);
        assert_ne!(a, b);
    }

    #[test]
    fn scripted_faults_fire_at_exact_ops() {
        let inj = FaultInjector::new(FaultConfig::scripted(vec![
            ScheduledFault { at_op: 7, kind: FaultKind::QpBreak },
            ScheduledFault { at_op: 3, kind: FaultKind::Transient },
            ScheduledFault { at_op: 3, kind: FaultKind::DelaySpike }, // dup: first wins
        ]));
        let log = drain(&inj, 10);
        assert_eq!(log, vec![(3, FaultKind::Transient), (7, FaultKind::QpBreak)]);
    }

    #[test]
    fn script_overrides_probabilistic_draw_without_shifting_stream() {
        let base = FaultConfig { seed: 9, delay_prob: 0.1, ..FaultConfig::default() };
        let plain = drain(&FaultInjector::new(base.clone()), 1000);
        let scripted_cfg = FaultConfig {
            schedule: vec![ScheduledFault { at_op: 0, kind: FaultKind::QpBreak }],
            ..base
        };
        let scripted = drain(&FaultInjector::new(scripted_cfg), 1000);
        // Op 0 is overridden; every later probabilistic decision is
        // unchanged because the draw count per op is constant.
        assert_eq!(scripted[0], (0, FaultKind::QpBreak));
        let tail: Vec<_> = scripted.iter().filter(|(op, _)| *op > 0).copied().collect();
        let plain_tail: Vec<_> = plain.iter().filter(|(op, _)| *op > 0).copied().collect();
        assert_eq!(tail, plain_tail);
    }

    #[test]
    fn block_draws_replay_identically_to_one_at_a_time() {
        let cfg = FaultConfig {
            seed: 77,
            transient_prob: 0.01,
            delay_prob: 0.03,
            cache_miss_prob: 0.05,
            qp_break_prob: 0.002,
            schedule: vec![
                ScheduledFault { at_op: 5, kind: FaultKind::DelaySpike },
                ScheduledFault { at_op: 100, kind: FaultKind::Transient },
            ],
        };
        let seq = FaultInjector::new(cfg.clone());
        let blk = FaultInjector::new(cfg);
        // Irregular batch sizes, with every third batch cut short mid-way
        // (a flushed tail, which must not consume draws): the sequential
        // twin mirrors each truncation with one single-verb block per verb.
        let sizes = [1usize, 16, 7, 1, 64, 3, 16, 16, 100, 5];
        let mut seq_decisions = Vec::new();
        let mut blk_decisions = Vec::new();
        for (round, &size) in sizes.iter().enumerate() {
            let served = if round % 3 == 2 { size / 2 } else { size };
            for _ in 0..served {
                seq_decisions.push(seq.begin_block().decide());
            }
            let mut block = blk.begin_block();
            for _ in 0..served {
                blk_decisions.push(block.decide());
            }
        }
        assert_eq!(seq_decisions, blk_decisions, "block draws must replay the stream");
        assert_eq!(seq.fired(), blk.fired());
        assert_eq!(seq.ops(), blk.ops());
        assert!(!seq.fired().is_empty(), "probs this high must fire in 150+ ops");
    }

    #[test]
    fn precedence_qp_break_beats_others() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 5,
            transient_prob: 1.0,
            delay_prob: 1.0,
            cache_miss_prob: 1.0,
            qp_break_prob: 1.0,
            ..FaultConfig::default()
        });
        assert_eq!(inj.begin_block().decide(), Some(FaultKind::QpBreak));
    }
}
