//! Common experiment setup: server population, fragmentation, and the
//! batched-read stream the multi-get figures share.

use std::sync::Arc;

use rand::Rng;

use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::GlobalPtr;
use corm_sim_core::rng::stream_rng;
use corm_sim_core::time::{SimDuration, SimTime};

/// A populated server plus the pointers clients hold.
pub struct PopulatedStore {
    /// The server.
    pub server: Arc<CormServer>,
    /// One pointer per key (index = key).
    pub ptrs: Vec<GlobalPtr>,
}

/// Boots a server and loads `objects` objects of `size` payload bytes,
/// writing a per-key pattern. Returns the store with key→pointer mapping.
pub fn populate_server(config: ServerConfig, objects: usize, size: usize) -> PopulatedStore {
    let server = Arc::new(CormServer::new(config));
    let mut client = CormClient::connect(server.clone());
    let mut ptrs = Vec::with_capacity(objects);
    let mut payload = vec![0u8; size];
    for key in 0..objects {
        let mut ptr = client
            .alloc(size)
            .unwrap_or_else(|e| panic!("populate alloc failed at {key}: {e}"))
            .value;
        fill_pattern(&mut payload, key as u64);
        client
            .write(&mut ptr, &payload)
            .unwrap_or_else(|e| panic!("populate write failed at {key}: {e}"));
        ptrs.push(ptr);
    }
    PopulatedStore { server, ptrs }
}

/// The deterministic payload pattern for `key` (verifiable by readers).
pub fn fill_pattern(buf: &mut [u8], key: u64) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (key as usize).wrapping_mul(31).wrapping_add(i) as u8;
    }
}

/// One doorbell batch of a [`read_stream`], as the stream's hook sees it.
pub struct Batch<'a> {
    /// Position of the batch in the stream.
    pub index: usize,
    /// The keys it read.
    pub keys: &'a [usize],
    /// One payload per key.
    pub payloads: &'a [Vec<u8>],
    /// What `read_batch` charged: makespan plus validation and repair.
    pub cost: SimDuration,
    /// The stream's clock after the batch.
    pub done: SimTime,
}

/// Reads `keys` in order as multi-gets of `depth` through
/// [`CormClient::read_batch`], `clients` taking turns batch by batch, each
/// batch issued when the previous one completed: `clock` advances by every
/// batch's cost, and `each` runs after every batch. Every entry must
/// return `size` payload bytes. Pointers are copied out of `ptrs` per
/// batch, so a correction never outlives its batch; the pointer and
/// payload buffers are allocated once.
pub fn read_stream(
    clients: &mut [CormClient],
    ptrs: &[GlobalPtr],
    keys: &[usize],
    depth: usize,
    size: usize,
    clock: &mut SimTime,
    mut each: impl FnMut(Batch<'_>),
) {
    let mut batch_ptrs: Vec<GlobalPtr> = Vec::with_capacity(depth);
    let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; size]; depth];
    let turns = clients.len();
    for (index, chunk) in keys.chunks(depth).enumerate() {
        batch_ptrs.clear();
        batch_ptrs.extend(chunk.iter().map(|&k| ptrs[k]));
        let payloads = &mut bufs[..chunk.len()];
        let timed = clients[index % turns]
            .read_batch(&mut batch_ptrs, payloads, *clock)
            .unwrap_or_else(|e| panic!("batch {index} of the read stream failed: {e}"));
        assert!(timed.value.iter().all(|&n| n == size), "short read in batch {index}");
        *clock += timed.cost;
        each(Batch { index, keys: chunk, payloads, cost: timed.cost, done: *clock });
    }
}

impl PopulatedStore {
    /// Frees a uniformly random `fraction` of the population (the paper's
    /// fragmentation setup, §4.2.4/§4.3.2). Freed keys' pointers are
    /// removed; returns the surviving (key, ptr) pairs.
    pub fn fragment(&mut self, fraction: f64, seed: u64) -> Vec<(u64, GlobalPtr)> {
        let mut client = CormClient::connect(self.server.clone());
        let mut rng = stream_rng(seed, 99);
        let n = self.ptrs.len();
        let k = (n as f64 * fraction).round() as usize;
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        let freed: std::collections::HashSet<usize> = idx[..k].iter().copied().collect();
        for &i in &idx[..k] {
            let mut ptr = self.ptrs[i];
            client.free(&mut ptr).unwrap_or_else(|e| panic!("fragment free failed: {e}"));
        }
        (0..n).filter(|i| !freed.contains(i)).map(|i| (i as u64, self.ptrs[i])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_sim_core::time::SimTime;

    #[test]
    fn populate_and_verify() {
        let store =
            populate_server(ServerConfig { workers: 2, ..ServerConfig::default() }, 100, 32);
        let mut client = CormClient::connect(store.server.clone());
        let mut expect = vec![0u8; 32];
        for key in [0usize, 50, 99] {
            let mut ptr = store.ptrs[key];
            let mut buf = vec![0u8; 32];
            let n =
                client.direct_read_with_recovery(&mut ptr, &mut buf, SimTime::ZERO).unwrap().value;
            fill_pattern(&mut expect, key as u64);
            assert_eq!(&buf[..n], &expect[..]);
        }
    }

    #[test]
    fn fragment_frees_requested_fraction() {
        let mut store =
            populate_server(ServerConfig { workers: 2, ..ServerConfig::default() }, 200, 32);
        let before = store.server.stats.frees.load(std::sync::atomic::Ordering::Relaxed);
        let survivors = store.fragment(0.75, 1);
        let after = store.server.stats.frees.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(after - before, 150);
        assert_eq!(survivors.len(), 50);
    }
}
