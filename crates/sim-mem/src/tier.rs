//! Far-tier transport: the cost model and byte store behind
//! [`Residency::Far`](crate::phys::Residency).
//!
//! CoRM pins every block for its lifetime, so the server can never hold
//! more logical data than physical DRAM. NP-RDMA shows commodity RNICs can
//! serve one-sided reads to *unpinned* memory by taking a dynamic-pin
//! fault on an MTT miss; with that fault path priced, cold pages can live
//! in a cheaper far tier (CXL-attached memory, NVMe swap) and DRAM becomes
//! a cache. This module supplies the tier itself:
//!
//! - [`TierConfig`]: fetch/spill latency plus inverse bandwidth, with
//!   CXL-ish and NVMe-ish presets, and the fault-path charges (dynamic
//!   pin, pinned-only hard miss) the simulated RNIC applies.
//! - [`FarTier`]: a deterministic byte store keyed by frame id, fronted by
//!   a [`FifoResource`] so concurrent spills and fetches queue on the
//!   tier's channels in virtual time. Spill/fetch preserve frame contents
//!   byte-exactly (the DRAM copy is poisoned while spilled, so accesses
//!   that skip the fetch path are observable).
//!
//! Everything here is virtual-time-exact: costs are computed from the
//! config, admission order is the caller's deterministic event order, and
//! no wall-clock or RNG enters the model — a seeded run with tiering
//! enabled replays byte-identically.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_core::{FastHashMap, FifoResource};
use parking_lot::Mutex;

use crate::phys::{DmaSession, FrameId, MemError, Residency, PAGE_SIZE};

/// Cost model of one far tier: device latency, inverse bandwidth, channel
/// parallelism, and the RNIC-side fault charges that gate access to
/// unpinned memory.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Device latency to fetch one page, before bandwidth and queueing.
    fetch_base: SimDuration,
    /// Device latency to spill one page, before bandwidth and queueing.
    spill_base: SimDuration,
    /// Inverse bandwidth of one channel (transfer time per byte, in ns).
    ns_per_byte: f64,
    /// Independent transfer channels (servers of the [`FifoResource`]).
    pub(crate) channels: usize,
    /// NIC-side dynamic-pin fault: the MTT-miss-triggered host round trip
    /// that pins a resident page so DMA may proceed (NP-RDMA's fault path;
    /// a few microseconds on commodity hardware).
    dynamic_pin: SimDuration,
    /// Extra charge for the pinned-only baseline's hard miss: a NIC
    /// without ODP or dynamic pinning cannot touch unpinned memory, so the
    /// access faults to the host, which services the page synchronously
    /// (interrupt, swap-in wait, re-pin, re-registration) while the verb
    /// stalls. Charged on top of the tier fetch.
    hard_miss_extra: SimDuration,
}

impl TierConfig {
    /// CXL-attached memory: sub-microsecond device latency, tens of GB/s.
    pub fn cxl() -> Self {
        TierConfig {
            fetch_base: SimDuration::from_nanos(900),
            spill_base: SimDuration::from_nanos(900),
            ns_per_byte: 0.045, // ~22 GB/s per channel
            channels: 4,
            dynamic_pin: SimDuration::from_nanos(3_500),
            hard_miss_extra: SimDuration::from_micros(60),
        }
    }

    /// NVMe swap: tens-of-microseconds device latency, a few GB/s.
    pub fn nvme() -> Self {
        TierConfig {
            fetch_base: SimDuration::from_micros(18),
            spill_base: SimDuration::from_micros(25),
            ns_per_byte: 0.36, // ~2.8 GB/s per channel
            channels: 2,
            dynamic_pin: SimDuration::from_nanos(3_500),
            hard_miss_extra: SimDuration::from_micros(250),
        }
    }

    /// Channel occupancy of one page transfer (bandwidth term only).
    fn transfer_time(&self) -> SimDuration {
        SimDuration::from_nanos((PAGE_SIZE as f64 * self.ns_per_byte).round() as u64)
    }

    /// Full service time of one page fetch (latency + bandwidth).
    pub fn fetch_cost(&self) -> SimDuration {
        self.fetch_base + self.transfer_time()
    }

    /// The NIC-side dynamic-pin fault's charge: the host round trip that
    /// pins a resident page so DMA may proceed.
    pub fn dynamic_pin(&self) -> SimDuration {
        self.dynamic_pin
    }

    /// The pinned-only hard miss's charge on top of the tier fetch: the
    /// host services the page synchronously while the verb stalls.
    pub fn hard_miss_extra(&self) -> SimDuration {
        self.hard_miss_extra
    }

    /// Full service time of one page spill (latency + bandwidth).
    fn spill_cost(&self) -> SimDuration {
        self.spill_base + self.transfer_time()
    }
}

/// Monotonic counters of tier activity, snapshot via [`FarTier::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Pages spilled out of DRAM.
    pub spills: u64,
    /// Pages fetched back from the tier.
    pub fetches: u64,
    /// NP-RDMA dynamic-pin faults taken by the NIC.
    pub pin_faults: u64,
    /// Hard misses taken by the pinned-only baseline.
    pub hard_misses: u64,
    /// Bytes moved out to the tier.
    pub bytes_spilled: u64,
    /// Bytes moved back from the tier.
    pub bytes_fetched: u64,
}

/// The far tier: spilled page bytes plus the queueing station that charges
/// their movement in virtual time.
///
/// Lock discipline: `store` and `bw` are leaf locks — they are taken with
/// the frame-table read guard (and, on the NIC path, MTT shard locks)
/// already held, and never the other way around, so they extend the global
/// lock order without cycles.
pub struct FarTier {
    config: TierConfig,
    /// Spilled bytes keyed by frame index. An entry can be superseded
    /// without a fetch when a freed frame id is recycled and later spilled
    /// again; `alloc` resets recycled frames to `Pinned`, so a stale entry
    /// is never fetched — the next spill of that id simply overwrites it.
    store: Mutex<FastHashMap<u32, Box<[u8]>>>,
    bw: Mutex<FifoResource>,
    /// The host's synchronous page-fault path — a single server, because
    /// the kernel services pinned-only hard misses (swap-in + re-pin +
    /// re-registration) one at a time. NIC-side dynamic-pin and ODP
    /// fetches bypass it and only contend for `bw` channels; this
    /// serialization is the mechanical reason the pinned-only baseline
    /// collapses under oversubscription while NP-RDMA-style pinless
    /// serving does not.
    host: Mutex<FifoResource>,
    spills: AtomicU64,
    fetches: AtomicU64,
    pin_faults: AtomicU64,
    hard_misses: AtomicU64,
}

impl fmt::Debug for FarTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FarTier")
            .field("config", &self.config)
            .field("stored_frames", &self.stored_frames())
            .field("stats", &self.stats())
            .finish()
    }
}

impl FarTier {
    /// Creates a tier with the given cost model.
    pub fn new(config: TierConfig) -> Self {
        let channels = config.channels.max(1);
        FarTier {
            config,
            store: Mutex::new(FastHashMap::default()),
            bw: Mutex::new(FifoResource::new(channels)),
            host: Mutex::new(FifoResource::new(1)),
            spills: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            pin_faults: AtomicU64::new(0),
            hard_misses: AtomicU64::new(0),
        }
    }

    /// The tier's cost model.
    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// Pages currently held by the tier.
    pub fn stored_frames(&self) -> usize {
        self.store.lock().len()
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> TierStats {
        TierStats {
            spills: self.spills.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            pin_faults: self.pin_faults.load(Ordering::Relaxed),
            hard_misses: self.hard_misses.load(Ordering::Relaxed),
            bytes_spilled: self.spills.load(Ordering::Relaxed) * PAGE_SIZE as u64,
            bytes_fetched: self.fetches.load(Ordering::Relaxed) * PAGE_SIZE as u64,
        }
    }

    /// Records a dynamic-pin fault (counter only; the caller charges
    /// [`TierConfig::dynamic_pin`] into its own latency).
    pub fn note_pin_fault(&self) {
        self.pin_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Services a pinned-only hard miss at `now`: the host handles the
    /// fault synchronously — swap-in if the page is far, then re-pin and
    /// re-register — while the verb stalls. The whole operation occupies
    /// the host's single-server fault path, so concurrent hard misses
    /// serialize (a doorbell batch of faulting reads pays them back to
    /// back, not overlapped). Restores the page's bytes when it was far
    /// and leaves it [`Residency::Resident`]; the caller re-pins. Returns
    /// the stall, queueing included.
    pub fn hard_miss_with(
        &self,
        dma: &DmaSession<'_>,
        frame: FrameId,
        now: SimTime,
    ) -> Result<SimDuration, MemError> {
        let mut service = self.config.hard_miss_extra;
        if dma.residency(frame) == Some(Residency::Far) {
            self.restore(dma, frame)?;
            service += self.config.fetch_cost();
        }
        self.hard_misses.fetch_add(1, Ordering::Relaxed);
        let done = self.host.lock().admit(now, service);
        Ok(done - now)
    }

    /// Spills a live frame's page to the tier at `now`, through the held
    /// DMA session: bytes move into the store, the DRAM copy is poisoned,
    /// the frame goes [`Residency::Far`], and the transfer occupies a tier
    /// channel. Returns the virtual time until the spill completes
    /// (queueing included).
    pub fn spill(
        &self,
        dma: &DmaSession<'_>,
        frame: FrameId,
        now: SimTime,
    ) -> Result<SimDuration, MemError> {
        let bytes = dma.spill_out(frame)?;
        self.store.lock().insert(frame.0, bytes);
        self.spills.fetch_add(1, Ordering::Relaxed);
        let done = self.bw.lock().admit(now, self.config.spill_cost());
        Ok(done - now)
    }

    /// Fetches a far frame's page back into DRAM at `now`, restoring its
    /// bytes exactly and leaving it [`Residency::Resident`]. Returns the
    /// virtual time until the page is available (queueing included).
    pub fn fetch_with(
        &self,
        dma: &DmaSession<'_>,
        frame: FrameId,
        now: SimTime,
    ) -> Result<SimDuration, MemError> {
        self.restore(dma, frame)?;
        let done = self.bw.lock().admit(now, self.config.fetch_cost());
        Ok(done - now)
    }

    /// Fetches a far frame without a clock: the server's CPU paths charge
    /// the raw fetch cost into their RPC totals but do not occupy tier
    /// channels (they have no admission timestamp; only NIC-side and
    /// eviction-side transfers contend for bandwidth).
    pub fn fetch_untimed(
        &self,
        dma: &DmaSession<'_>,
        frame: FrameId,
    ) -> Result<SimDuration, MemError> {
        self.restore(dma, frame)?;
        Ok(self.config.fetch_cost())
    }

    fn restore(&self, dma: &DmaSession<'_>, frame: FrameId) -> Result<(), MemError> {
        match self.store.lock().remove(&frame.0) {
            Some(bytes) => dma.fetch_in(frame, &bytes)?,
            // Far residency with no stored bytes cannot happen through the
            // spill path; tolerate it as a bookkeeping-only flip so a
            // half-constructed test setup fails loudly on content checks
            // (the frame keeps its poison) rather than panicking here.
            None => {
                dma.set_residency(frame, Residency::Resident)?;
            }
        }
        self.fetches.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phys::PhysicalMemory;

    #[test]
    fn spill_fetch_round_trips_bytes_and_charges_costs() {
        let pm = PhysicalMemory::new();
        let tier = FarTier::new(TierConfig::nvme());
        let f = pm.alloc().unwrap();
        let pattern: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        pm.write(f, 0, &pattern).unwrap();

        let t0 = SimTime::ZERO;
        let spill = tier.spill(&pm.dma(), f, t0).unwrap();
        assert_eq!(spill, TierConfig::nvme().spill_cost());
        assert_eq!(pm.residency(f), Residency::Far);
        assert_eq!(tier.stored_frames(), 1);

        let dma = pm.dma();
        let fetch = tier.fetch_with(&dma, f, t0 + spill).unwrap();
        assert_eq!(fetch, TierConfig::nvme().fetch_cost());
        let mut out = vec![0u8; PAGE_SIZE];
        dma.read(f, 0, &mut out).unwrap();
        assert_eq!(out, pattern);
        assert_eq!(dma.residency(f), Some(Residency::Resident));
        drop(dma);

        let stats = tier.stats();
        assert_eq!((stats.spills, stats.fetches), (1, 1));
        assert_eq!(stats.bytes_spilled, PAGE_SIZE as u64);
        assert_eq!(tier.stored_frames(), 0);
    }

    #[test]
    fn concurrent_transfers_queue_on_channels() {
        // One channel: the second spill admitted at the same instant waits
        // for the first, so its completion time includes the queueing.
        let pm = PhysicalMemory::new();
        let config = TierConfig { channels: 1, ..TierConfig::cxl() };
        let cost = config.spill_cost();
        let tier = FarTier::new(config);
        let frames = pm.alloc_n(2).unwrap();
        let a = tier.spill(&pm.dma(), frames[0], SimTime::ZERO).unwrap();
        let b = tier.spill(&pm.dma(), frames[1], SimTime::ZERO).unwrap();
        assert_eq!(a, cost);
        assert_eq!(b, cost * 2);
    }

    #[test]
    fn presets_order_sensibly() {
        assert!(TierConfig::cxl().fetch_cost() < TierConfig::nvme().fetch_cost());
        assert!(TierConfig::cxl().hard_miss_extra < TierConfig::nvme().hard_miss_extra);
        // The whole oversubscription story needs the dynamic pin to be far
        // cheaper than the hard miss it replaces.
        for cfg in [TierConfig::cxl(), TierConfig::nvme()] {
            assert!(cfg.dynamic_pin * 10 < cfg.hard_miss_extra);
        }
    }
}
