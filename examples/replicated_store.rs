//! A replicated store across several CoRM nodes, on the public single-node
//! API — the deployment the paper's introduction motivates (a memory space
//! of many nodes, each fighting its own fragmentation) with the fault
//! tolerance its §3.2.4 leaves as future work.
//!
//! CoRM proper is one node. Everything multi-node lives in this file: a
//! node table, handles that keep the node index *beside* each pointer
//! (nothing is stolen from the 128-bit pointer), round-robin placement on
//! `r` distinct nodes, write-all / read-one with failover, and a boolean
//! "node is down". Each node compacts independently; a replica pointer made
//! indirect by its node's compaction is corrected on that node exactly as
//! in the single-node protocol, so replication and compaction never
//! interfere. (The library once carried this as `cluster.rs` and
//! `replication.rs`; DESIGN §4 records why it does not any more.)
//!
//! Run: `cargo run --release --example replicated_store`

use std::sync::Arc;

use corm::core::server::{CormServer, ServerConfig};
use corm::core::{CormClient, GlobalPtr};
use corm::sim_core::rng::split_mix64;
use corm::sim_core::time::SimTime;

/// One CoRM node, this client's connection to it, and whether it is up.
/// A down node keeps its memory: this models a partition or a paused
/// process, not data loss.
struct Node {
    server: Arc<CormServer>,
    client: CormClient,
    alive: bool,
}

/// A replicated object: `(node, pointer)` per copy, primary first.
struct Handle {
    copies: Vec<(usize, GlobalPtr)>,
}

/// Write-all / read-one replication over a table of nodes.
struct Store {
    nodes: Vec<Node>,
    replicas: usize,
    next: usize,
}

impl Store {
    /// Boots `n` nodes (seeds derived per node, so object IDs differ across
    /// nodes) and connects to each.
    fn new(n: usize, replicas: usize) -> Store {
        assert!((1..=n).contains(&replicas), "replication factor exceeds cluster size");
        let nodes = (0..n as u64)
            .map(|i| {
                let base = ServerConfig::default();
                let config = ServerConfig { seed: split_mix64(base.seed ^ i), ..base };
                let server = Arc::new(CormServer::new(config));
                Node { client: CormClient::connect(server.clone()), server, alive: true }
            })
            .collect();
        Store { nodes, replicas, next: 0 }
    }

    /// Allocates on the next `replicas` live nodes, round-robin.
    fn alloc(&mut self, len: usize) -> Handle {
        let n = self.nodes.len();
        let first = self.next;
        self.next += 1;
        let mut copies = Vec::with_capacity(self.replicas);
        for node in (0..n).map(|probe| (first + probe) % n) {
            if self.nodes[node].alive && copies.len() < self.replicas {
                copies.push((node, self.nodes[node].client.alloc(len).expect("alloc").value));
            }
        }
        assert_eq!(copies.len(), self.replicas, "too few live nodes");
        Handle { copies }
    }

    /// Writes every live copy; returns how many there were. A dead minority
    /// is tolerated, any other failure would leave the copies divergent.
    fn write(&mut self, h: &mut Handle, data: &[u8]) -> usize {
        let mut written = 0;
        for (node, ptr) in h.copies.iter_mut() {
            let node = &mut self.nodes[*node];
            if node.alive {
                node.client.write(ptr, data).expect("write");
                written += 1;
            }
        }
        assert!(written > 0, "no live replica");
        written
    }

    /// One-sided read of the first live copy (read-one with failover);
    /// pointer corrections land in the handle.
    fn read(&mut self, h: &mut Handle, buf: &mut [u8], now: SimTime) -> usize {
        let (node, ptr) =
            h.copies.iter_mut().find(|(node, _)| self.nodes[*node].alive).expect("no live replica");
        let client = &mut self.nodes[*node].client;
        client.direct_read_with_recovery(ptr, buf, now).expect("read").value
    }

    /// Frees every live copy. Copies on dead nodes are abandoned (a real
    /// system would reap them on recovery).
    fn free(&mut self, h: &mut Handle) {
        for (node, ptr) in h.copies.iter_mut() {
            let node = &mut self.nodes[*node];
            if node.alive {
                node.client.free(ptr).expect("free");
            }
        }
    }

    fn active_kib(&self) -> u64 {
        self.nodes.iter().map(|n| n.server.active_bytes()).sum::<u64>() / 1024
    }
}

fn main() {
    let mut store = Store::new(3, 2);

    // Write a replicated dataset: 600 records, 2 copies each, 3 nodes.
    let mut records: Vec<(u32, Handle)> = (0..600u32)
        .map(|i| {
            let mut h = store.alloc(48);
            store.write(&mut h, format!("record-{i:04}-v1").as_bytes());
            (i, h)
        })
        .collect();
    for (n, node) in store.nodes.iter().enumerate() {
        println!("node {n}: {} KiB active", node.server.active_bytes() / 1024);
    }

    // Update a third, then delete 75% — the fragmentation spike.
    for (i, h) in records.iter_mut().filter(|(i, _)| i % 3 == 0) {
        store.write(h, format!("record-{i:04}-v2").as_bytes());
    }
    for (_, h) in records.iter_mut().filter(|(i, _)| i % 4 != 0) {
        store.free(h);
    }
    records.retain(|(i, _)| i % 4 == 0);
    let before = store.active_kib();

    // Every node compacts its fragmented classes on its own schedule.
    let reports: Vec<_> = store
        .nodes
        .iter()
        .flat_map(|n| n.server.compact_if_fragmented(SimTime::ZERO).expect("compact"))
        .collect();
    println!(
        "compaction: {} passes across nodes, {} blocks freed, {before} KiB -> {} KiB",
        reports.len(),
        reports.iter().map(|r| r.merges).sum::<usize>(),
        store.active_kib()
    );
    assert!(reports.iter().any(|r| r.objects_relocated > 0), "compaction moved nothing");

    // Kill one node. Every record stays readable through its backup, with
    // the right version, even where compaction relocated it.
    store.nodes[0].alive = false;
    println!("node 0 FAILED — reading everything through live replicas…");
    let mut buf = [0u8; 14];
    let failovers = records.iter().filter(|(_, h)| h.copies[0].0 == 0).count();
    for (i, h) in records.iter_mut() {
        let n = store.read(h, &mut buf, SimTime::from_millis(1));
        let version = if *i % 3 == 0 { "v2" } else { "v1" };
        assert_eq!(
            &buf[..n],
            format!("record-{i:04}-{version}").as_bytes(),
            "record {i} lost or stale"
        );
    }
    assert!(failovers > 0, "no read had to fail over");
    let corrected =
        records.iter().flat_map(|(_, h)| &h.copies).filter(|(_, p)| p.references_old_block());
    println!(
        "all {} records verified with correct versions; {failovers} reads failed over, {} pointers corrected",
        records.len(),
        corrected.count()
    );

    // Recover the node; writes reach both replicas again.
    store.nodes[0].alive = true;
    let (i0, h0) = &mut records[0];
    let written = store.write(h0, format!("record-{i0:04}-v3").as_bytes());
    assert_eq!(written, 2);
    println!("node 0 recovered; next write reached {written} replicas");
}
