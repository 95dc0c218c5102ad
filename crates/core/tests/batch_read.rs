//! Batched DirectRead (multi-get) coverage: byte-identity with the
//! sequential path, selective repair of failed entries, fault-replay
//! determinism under batching, and the pipelining throughput win over
//! single-outstanding-request reads.

use std::sync::Arc;

use corm_check::{check, ensure_eq};

use corm_core::client::{CormClient, FixStrategy};
use corm_core::server::{CormServer, ServerConfig};
use corm_core::{GlobalPtr, ReadOutcome};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::{FaultConfig, RnicConfig};

/// The per-key payload pattern (mirrors the bench harness's).
fn fill_pattern(buf: &mut [u8], key: u64) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (key as usize).wrapping_mul(31).wrapping_add(i) as u8;
    }
}

/// Boots a server and populates `objects` objects of `size` payload bytes
/// over RPC (RPC population consumes no one-sided fault draws, so the
/// fault stream starts exactly at the first DirectRead).
fn populate(
    config: ServerConfig,
    objects: usize,
    size: usize,
) -> (Arc<CormServer>, Vec<GlobalPtr>) {
    let server = Arc::new(CormServer::new(config));
    let mut client = CormClient::connect(server.clone());
    let mut ptrs = Vec::with_capacity(objects);
    let mut payload = vec![0u8; size];
    for key in 0..objects {
        let mut ptr = client.alloc(size).expect("populate alloc").value;
        fill_pattern(&mut payload, key as u64);
        client.write(&mut ptr, &payload).expect("populate write");
        ptrs.push(ptr);
    }
    (server, ptrs)
}

/// `read_batch` over any pick sequence returns byte-identical payloads
/// and lengths to sequential `direct_read_with_recovery` calls over
/// the same pointers.
#[test]
fn batch_matches_sequential_bytes() {
    check(16, |g| {
        let (size, objects) = (g.range(8usize..600), g.range(8usize..48));
        let picks = g.vec(1..40, |g| g.range(0..=usize::MAX));
        let (server, ptrs) = populate(ServerConfig::default(), objects, size);
        let mut client = CormClient::connect(server);
        let picks: Vec<usize> = picks.into_iter().map(|p| p % objects).collect();

        // Sequential reference.
        let mut seq_bufs: Vec<Vec<u8>> = vec![vec![0u8; size]; picks.len()];
        let mut seq_lens = Vec::with_capacity(picks.len());
        for (k, &key) in picks.iter().enumerate() {
            let mut ptr = ptrs[key];
            let n = client
                .direct_read_with_recovery(&mut ptr, &mut seq_bufs[k], SimTime::ZERO)
                .unwrap()
                .value;
            seq_lens.push(n);
        }

        // Batched multi-get over the same picks.
        let mut bptrs: Vec<GlobalPtr> = picks.iter().map(|&key| ptrs[key]).collect();
        let mut bbufs: Vec<Vec<u8>> = vec![vec![0u8; size]; picks.len()];
        let t = client.read_batch(&mut bptrs, &mut bbufs, SimTime::ZERO).unwrap();

        ensure_eq!(&t.value, &seq_lens);
        for k in 0..picks.len() {
            ensure_eq!(&bbufs[k], &seq_bufs[k]);
            let mut expect = vec![0u8; size];
            fill_pattern(&mut expect, picks[k] as u64);
            ensure_eq!(&bbufs[k][..seq_lens[k]], &expect[..seq_lens[k]]);
        }
        Ok(())
    });
}

/// Entries whose offset hint is stale (the slot holds a different object)
/// fail validation individually and are repaired by the client's
/// `FixStrategy` — a ScanRead each, or one batched RPC — which corrects
/// their pointers in place, without disturbing the healthy entries of the
/// batch.
#[test]
fn batch_repairs_stale_hints_selectively() {
    let size = 64usize;
    let (server, ptrs) = populate(ServerConfig { workers: 1, ..ServerConfig::default() }, 16, size);
    for fix in [FixStrategy::ScanRead, FixStrategy::RpcRead] {
        let mut client = CormClient::connect_with(server.clone(), fix);
        let mut bptrs: Vec<GlobalPtr> = ptrs[..8].to_vec();
        // Cross two hints: each now points at the other's slot, so
        // validation sees an ID mismatch (the slot is live, but holds the
        // wrong object).
        let (a, b) = (2usize, 5usize);
        let (va, vb) = (bptrs[a].vaddr, bptrs[b].vaddr);
        bptrs[a].vaddr = vb;
        bptrs[b].vaddr = va;

        let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; size]; bptrs.len()];
        let t = client.read_batch(&mut bptrs, &mut bufs, SimTime::ZERO).unwrap();
        let mut expect = vec![0u8; size];
        for (k, buf) in bufs.iter().enumerate() {
            assert_eq!(t.value[k], size);
            fill_pattern(&mut expect, k as u64);
            assert_eq!(buf, &expect, "{fix:?}: entry {k} must return its own payload");
        }
        // The repair corrected the crossed hints back to the true slots.
        assert_eq!(bptrs[a].vaddr, va, "{fix:?}");
        assert_eq!(bptrs[b].vaddr, vb, "{fix:?}");
        assert_eq!(client.failed_direct_reads, 2, "{fix:?}");
    }
}

/// A corrupt class byte routes the entry straight to the RPC repair (it
/// can never match a live object) while the rest of the batch reads
/// one-sided — the sequential path's NotValid semantics, batched.
#[test]
fn batch_survives_corrupt_class_byte() {
    let size = 32usize;
    let (server, ptrs) = populate(ServerConfig::default(), 8, size);
    let mut client = CormClient::connect(server);
    let mut bptrs: Vec<GlobalPtr> = ptrs.clone();
    bptrs[3].class = 0xFF;
    let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; size]; bptrs.len()];
    let t = client.read_batch(&mut bptrs, &mut bufs, SimTime::ZERO).unwrap();
    let mut expect = vec![0u8; size];
    for (k, buf) in bufs.iter().enumerate() {
        assert_eq!(t.value[k], size);
        fill_pattern(&mut expect, k as u64);
        assert_eq!(buf, &expect);
    }
}

/// A one-pointer read routes a corrupt class byte as a batch does — to the
/// RPC repair, which resolves the object by address — under either
/// strategy: a scan would need the slot size the class byte names.
#[test]
fn single_read_survives_corrupt_class_byte() {
    let size = 32usize;
    let mut expect = vec![0u8; size];
    fill_pattern(&mut expect, 3);
    for fix in [FixStrategy::ScanRead, FixStrategy::RpcRead] {
        let (server, ptrs) = populate(ServerConfig::default(), 8, size);
        let mut client = CormClient::connect_with(server, fix);
        let mut ptr = ptrs[3];
        ptr.class = 0xFF;
        let mut buf = vec![0u8; size];
        let t = client.direct_read_with_recovery(&mut ptr, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(t.value, size, "{fix:?}");
        assert_eq!(buf, expect, "{fix:?}");
        assert_eq!(client.failed_direct_reads, 1, "{fix:?}");
    }
}

/// The acceptance property for fault injection: the same seed and schedule
/// produce an identical fired log whether the client reads sequentially
/// (with recovery) or through doorbell-batched multi-gets. Flushed WQEs
/// consume no draws and failed WQEs are re-posted in order, so the draw
/// sequence is byte-identical.
#[test]
fn fault_replay_identical_batched_vs_sequential() {
    let faults = FaultConfig {
        seed: 0xFEED,
        transient_prob: 0.02,
        delay_prob: 0.05,
        cache_miss_prob: 0.05,
        qp_break_prob: 0.01,
        ..FaultConfig::default()
    };
    let config = ServerConfig {
        rnic: RnicConfig { faults: Some(faults), ..RnicConfig::default() },
        ..ServerConfig::default()
    };
    let size = 48usize;
    let objects = 64usize;
    let ops = 240usize;
    let keys: Vec<usize> = {
        let mut rng = corm_sim_core::rng::stream_rng(7, 3);
        (0..ops).map(|_| rand::Rng::gen_range(&mut rng, 0..objects)).collect()
    };
    // Sequential run.
    let (server_a, ptrs_a) = populate(config.clone(), objects, size);
    let mut client_a = CormClient::connect_with(server_a.clone(), FixStrategy::RpcRead);
    let mut bufs_a: Vec<Vec<u8>> = vec![vec![0u8; size]; ops];
    let mut clock = SimTime::ZERO;
    for (k, &key) in keys.iter().enumerate() {
        let mut ptr = ptrs_a[key];
        let t = client_a
            .direct_read_with_recovery(&mut ptr, &mut bufs_a[k], clock)
            .expect("sequential read");
        clock += t.cost;
    }
    let log_a = server_a.rnic().fault_log();

    // Batched run over an identically-populated, identically-seeded server.
    let (server_b, ptrs_b) = populate(config, objects, size);
    let mut client_b = CormClient::connect_with(server_b.clone(), FixStrategy::RpcRead);
    let mut bufs_b: Vec<Vec<u8>> = vec![vec![0u8; size]; ops];
    let mut clock = SimTime::ZERO;
    for (chunk_idx, chunk) in keys.chunks(8).enumerate() {
        let mut bptrs: Vec<GlobalPtr> = chunk.iter().map(|&key| ptrs_b[key]).collect();
        let base = chunk_idx * 8;
        let mut bb: Vec<Vec<u8>> = vec![vec![0u8; size]; chunk.len()];
        let t = client_b.read_batch(&mut bptrs, &mut bb, clock).expect("batched read");
        clock += t.cost;
        for (j, buf) in bb.into_iter().enumerate() {
            bufs_b[base + j] = buf;
        }
    }
    let log_b = server_b.rnic().fault_log();

    assert!(!log_a.is_empty(), "the fault schedule must actually fire");
    assert_eq!(log_a, log_b, "fired logs must be identical batched vs unbatched");
    assert_eq!(bufs_a, bufs_b, "payloads must be identical batched vs unbatched");
    assert!(client_b.qp_recoveries > 0, "the batched client must have survived breaks");
}

/// The acceptance bar for the batched path: on the fig11 workload
/// shape (uniform keys, miss-dominated, 512-entry translation cache),
/// multi-get with depth 16 must deliver at least 3× the Kreq/s of
/// single-outstanding-request DirectReads.
#[test]
fn batch_depth16_triples_miss_dominated_throughput() {
    let size = 512usize;
    let cache_entries = 512usize;
    let working_set: usize = 16 << 20;
    let gross = {
        let cfg = ServerConfig::default();
        let class =
            corm_core::consistency::class_for_payload(&cfg.alloc.classes, size).expect("class");
        cfg.alloc.classes.size_of(class)
    };
    let objects = working_set / gross;
    let config = ServerConfig {
        rnic: RnicConfig { cache_entries, ..RnicConfig::default() },
        ..ServerConfig::default()
    };
    let (server, ptrs) = populate(config, objects, size);
    let mut client = CormClient::connect(server);
    let ops = 2_048usize;
    let depth = 16usize;
    let mut rng = corm_sim_core::rng::stream_rng(0xF16, 0);
    let keys: Vec<usize> = (0..ops).map(|_| rand::Rng::gen_range(&mut rng, 0..objects)).collect();

    // Single outstanding request (the fig11 loop).
    let mut buf = vec![0u8; size];
    let mut seq_total = SimDuration::ZERO;
    let mut clock = SimTime::ZERO;
    for &key in &keys {
        let d = client.direct_read(&ptrs[key], &mut buf, clock).expect("qp");
        assert!(matches!(d.value, ReadOutcome::Ok(_)));
        seq_total += d.cost;
        clock += d.cost;
    }

    // Depth-16 multi-get over the same key sequence.
    let mut batch_total = SimDuration::ZERO;
    for chunk in keys.chunks(depth) {
        let mut bptrs: Vec<GlobalPtr> = chunk.iter().map(|&key| ptrs[key]).collect();
        let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; size]; chunk.len()];
        let t = client.read_batch(&mut bptrs, &mut bufs, clock).expect("batch");
        assert!(t.value.iter().all(|&n| n == size));
        batch_total += t.cost;
        clock += t.cost;
    }

    let seq_kreqs = ops as f64 / seq_total.as_secs_f64() / 1e3;
    let batch_kreqs = ops as f64 / batch_total.as_secs_f64() / 1e3;
    let speedup = batch_kreqs / seq_kreqs;
    assert!(
        speedup >= 3.0,
        "depth-{depth} multi-get must be >= 3x sequential: {batch_kreqs:.0} vs {seq_kreqs:.0} Kreq/s ({speedup:.2}x)"
    );
}
