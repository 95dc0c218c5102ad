//! A caching service over CoRM — the "caching services" use case from the
//! paper's introduction.
//!
//! Builds a small LRU cache whose values live in CoRM remote memory: the
//! client keeps only keys and 128-bit pointers; values are fetched with
//! one-sided RDMA reads. Evictions free remote objects, fragmenting the
//! heap exactly like the paper's Redis traces — and CoRM's compaction
//! recovers the memory while every cached pointer keeps working.
//!
//! Run: `cargo run --release --example kv_cache`

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use corm::core::server::{CormServer, ServerConfig};
use corm::core::{CormClient, GlobalPtr};
use corm::sim_core::time::SimTime;

struct RemoteLruCache {
    client: CormClient,
    index: HashMap<String, GlobalPtr>,
    order: VecDeque<String>,
    capacity: usize,
}

impl RemoteLruCache {
    fn new(server: Arc<CormServer>, capacity: usize) -> Self {
        RemoteLruCache {
            client: CormClient::connect(server),
            index: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn put(&mut self, key: &str, value: &[u8]) {
        if let Some(mut old) = self.index.remove(key) {
            self.client.free(&mut old).expect("free old value");
            self.order.retain(|k| k != key);
        }
        while self.index.len() >= self.capacity {
            let victim = self.order.pop_front().expect("cache not empty");
            let mut ptr = self.index.remove(&victim).expect("indexed");
            self.client.free(&mut ptr).expect("evict");
        }
        let mut ptr = self.client.alloc(value.len()).expect("alloc").value;
        self.client.write(&mut ptr, value).expect("write");
        self.index.insert(key.to_string(), ptr);
        self.order.push_back(key.to_string());
    }

    fn get(&mut self, key: &str) -> Option<Vec<u8>> {
        let ptr = self.index.get_mut(key)?;
        let mut buf = vec![0u8; 256];
        let n = self
            .client
            .direct_read_with_recovery(ptr, &mut buf, SimTime::from_millis(1))
            .ok()?
            .value;
        buf.truncate(n);
        Some(buf)
    }
}

fn main() {
    let server = Arc::new(CormServer::new(ServerConfig::default()));
    let mut cache = RemoteLruCache::new(server.clone(), 64);

    // Three generations of entries with churn: plenty of evictions.
    for generation in 0..3 {
        for i in 0..256 {
            let key = format!("user:{i}");
            let value = format!("profile-data-gen{generation}-user{i}-{}", "x".repeat(40));
            cache.put(&key, value.as_bytes());
        }
    }
    let before = server.active_bytes();
    println!(
        "after churn: {} entries cached, {} KiB active remote memory",
        cache.index.len(),
        before / 1024
    );

    // Compact the fragmented heap.
    let reports = server.compact_if_fragmented(SimTime::ZERO).expect("compact");
    let freed: usize = reports.iter().map(|r| r.merges).sum();
    let after = server.active_bytes();
    println!(
        "compaction freed {} blocks: {} KiB -> {} KiB ({:.1}x)",
        freed,
        before / 1024,
        after / 1024,
        before as f64 / after.max(1) as f64
    );

    // Every cached value is still fetchable over one-sided RDMA.
    let mut checked = 0;
    for i in 192..256 {
        let key = format!("user:{i}");
        let value = cache.get(&key).expect("cached value readable");
        assert!(value.starts_with(format!("profile-data-gen2-user{i}").as_bytes()));
        checked += 1;
    }
    println!("verified {checked} cached values after compaction — no pointer broke");
    println!(
        "pointer corrections performed along the way: {}",
        server.stats.corrections.load(std::sync::atomic::Ordering::Relaxed)
    );
}
