//! Emulated FaRM (§4.2, footnote 2).
//!
//! "FaRM is not open-source, therefore, we emulated FaRM (including its
//! cacheline consistency check) following the publicly available
//! information." We do the same, reusing the CoRM substrate with
//! compaction disabled: the same two-level allocator, the same cacheline
//! versioning for lock-free one-sided reads, the block size the caller's
//! config gives (FaRM's is 1 MiB, §4.4.1), and no way to reclaim fragmented
//! blocks — which is exactly the deficiency Figs. 14 and 17 quantify.

use std::sync::Arc;

use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::{CormError, GlobalPtr, Timed};
use corm_sim_core::time::SimTime;

/// An emulated FaRM node: CoRM's data path with compaction disabled.
pub struct FarmServer {
    inner: Arc<CormServer>,
}

impl FarmServer {
    /// Boots an emulated FaRM node. The configuration's compaction knobs
    /// are ignored — compaction never runs.
    pub fn new(mut config: ServerConfig) -> Self {
        // FaRM has no per-object IDs; disabling compaction makes the ID
        // machinery inert, so the data path matches FaRM's.
        config.frag_threshold = f64::INFINITY;
        FarmServer { inner: Arc::new(CormServer::new(config)) }
    }

    /// The underlying server (shares the CoRM data path).
    pub fn server(&self) -> &Arc<CormServer> {
        &self.inner
    }

    /// Connects a client. FaRM clients never need pointer correction —
    /// objects never move.
    pub fn connect(&self) -> FarmClient {
        FarmClient { inner: CormClient::connect(self.inner.clone()) }
    }
}

/// A client of the emulated FaRM node.
pub struct FarmClient {
    inner: CormClient,
}

impl FarmClient {
    /// Allocates an object.
    pub fn alloc(&mut self, len: usize) -> Result<Timed<GlobalPtr>, CormError> {
        self.inner.alloc(len)
    }

    /// Frees an object.
    pub fn free(&mut self, ptr: &mut GlobalPtr) -> Result<Timed<()>, CormError> {
        self.inner.free(ptr)
    }

    /// Writes an object over RPC.
    pub fn write(&mut self, ptr: &mut GlobalPtr, data: &[u8]) -> Result<Timed<()>, CormError> {
        self.inner.write(ptr, data)
    }

    /// One-sided read with FaRM's cacheline consistency check. Objects
    /// never move, so there is no correction path — failures are only
    /// torn/locked reads, retried with backoff.
    pub fn read(
        &mut self,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<Timed<usize>, CormError> {
        self.inner.direct_read_with_recovery(ptr, buf, now)
    }

    /// Local read through the FaRM API (Fig. 11 right).
    pub fn local_read(
        &mut self,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
    ) -> Result<Timed<usize>, CormError> {
        self.inner.local_read(ptr, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_round_trip() {
        let farm = FarmServer::new(ServerConfig::default());
        let mut client = farm.connect();
        let mut ptr = client.alloc(64).unwrap().value;
        client.write(&mut ptr, b"farm object").unwrap();
        let mut buf = [0u8; 11];
        let n = client.read(&mut ptr, &mut buf, SimTime::ZERO).unwrap().value;
        assert_eq!(&buf[..n], b"farm object");
        client.free(&mut ptr).unwrap();
    }

    #[test]
    fn farm_never_compacts() {
        let farm = FarmServer::new(ServerConfig { workers: 1, ..ServerConfig::default() });
        let mut client = farm.connect();
        // Fragment heavily.
        let mut ptrs: Vec<_> = (0..256).map(|_| client.alloc(48).unwrap().value).collect();
        for p in ptrs.iter_mut().skip(1) {
            client.free(p).unwrap();
        }
        // The compaction trigger does nothing under an infinite threshold.
        let reports = farm.server().compact_if_fragmented(SimTime::ZERO).unwrap();
        assert!(reports.is_empty(), "FaRM must never compact");
        assert_eq!(farm.server().stats.compactions.load(std::sync::atomic::Ordering::Relaxed), 0);
    }
}
