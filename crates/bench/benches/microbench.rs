//! Criterion microbenchmarks of the hot paths behind every figure:
//! allocation, one-sided reads, pointer correction, compaction merges,
//! conflict checks, the probability math, the translation cache, and the
//! Zipfian sampler. These measure *real* wall-clock performance of the
//! implementation (the figure binaries measure virtual time).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use corm_compact::{compact_blocks, corm_probability, BlockModel, ConflictRule};
use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::{consistency, header::ObjectHeader};
use corm_sim_core::time::SimTime;
use corm_workloads::zipf::Zipfian;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_alloc_free(c: &mut Criterion) {
    let server = Arc::new(CormServer::new(ServerConfig::default()));
    let mut client = CormClient::connect(server);
    let mut g = c.benchmark_group("alloc_free");
    g.throughput(Throughput::Elements(1));
    g.bench_function("alloc_free_64B", |b| {
        b.iter(|| {
            let mut ptr = client.alloc(64).unwrap().value;
            client.free(&mut ptr).unwrap();
        })
    });
    g.finish();
}

fn bench_reads(c: &mut Criterion) {
    let server = Arc::new(CormServer::new(ServerConfig::default()));
    let mut client = CormClient::connect(server);
    let mut ptr = client.alloc(64).unwrap().value;
    client.write(&mut ptr, &[7u8; 64]).unwrap();
    let mut buf = [0u8; 64];
    let mut g = c.benchmark_group("reads");
    g.throughput(Throughput::Elements(1));
    g.bench_function("direct_read_64B", |b| {
        b.iter(|| client.direct_read(&ptr, &mut buf, SimTime::ZERO).unwrap())
    });
    g.bench_function("rpc_read_64B", |b| b.iter(|| client.read(&mut ptr, &mut buf).unwrap()));
    g.bench_function("rpc_write_64B", |b| b.iter(|| client.write(&mut ptr, &buf).unwrap()));
    g.finish();
}

fn bench_read_batch(c: &mut Criterion) {
    let server = Arc::new(CormServer::new(ServerConfig::default()));
    let mut client = CormClient::connect(server);
    let mut ptrs: Vec<_> = (0..64).map(|_| client.alloc(64).unwrap().value).collect();
    for p in ptrs.iter_mut() {
        client.write(p, &[3u8; 64]).unwrap();
    }
    let mut g = c.benchmark_group("read_batch");
    // The engine clamps admissions to its last admit time, so the virtual
    // clock must keep advancing across iterations.
    let mut clock = SimTime::ZERO;
    for depth in [1usize, 8, 32] {
        g.throughput(Throughput::Elements(depth as u64));
        g.bench_function(&format!("multi_get_64B_depth{depth}"), |b| {
            let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; 64]; depth];
            b.iter(|| {
                let mut bptrs: Vec<_> = ptrs[..depth].to_vec();
                let t = client.read_batch(&mut bptrs, &mut bufs, clock).unwrap();
                clock += t.cost;
            })
        });
    }
    g.finish();
}

fn bench_scatter_gather(c: &mut Criterion) {
    let header = ObjectHeader::new(42, 3, 7);
    let payload = vec![0xEEu8; consistency::layout(2048).capacity];
    let mut image = Vec::new();
    let mut out = vec![0u8; payload.len()];
    let mut g = c.benchmark_group("consistency");
    g.throughput(Throughput::Bytes(2048));
    g.bench_function("scatter_2KiB", |b| {
        b.iter(|| consistency::scatter_into(header, &payload, 2048, &mut image))
    });
    g.bench_function("gather_2KiB", |b| {
        b.iter(|| consistency::gather_into(&image, Some(42), &mut out).unwrap())
    });
    g.finish();
}

fn bench_compaction(c: &mut Criterion) {
    let mut g = c.benchmark_group("compaction");
    // Greedy pass over 64 half-empty blocks of 64 slots.
    g.bench_function("greedy_pass_64_blocks", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let blocks: Vec<BlockModel> =
            (0..64).map(|_| BlockModel::random(&mut rng, 64, 1 << 16, 16)).collect();
        b.iter_batched(
            || blocks.clone(),
            |blocks| compact_blocks(blocks, ConflictRule::Ids),
            BatchSize::SmallInput,
        )
    });
    // A real server-side merge of two fragmented 4 KiB blocks.
    g.bench_function("server_merge_pass", |b| {
        b.iter_batched(
            || {
                let server = Arc::new(CormServer::new(ServerConfig {
                    workers: 1,
                    ..ServerConfig::default()
                }));
                let mut client = CormClient::connect(server.clone());
                let mut ptrs: Vec<_> = (0..128).map(|_| client.alloc(48).unwrap().value).collect();
                for (i, p) in ptrs.iter_mut().enumerate() {
                    if i % 8 != 0 {
                        client.free(p).unwrap();
                    }
                }
                let class =
                    corm_core::consistency::class_for_payload(server.classes(), 48).unwrap();
                (server, class)
            },
            |(server, class)| server.compact_class(class, SimTime::ZERO).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_conflict_checks(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let a = BlockModel::random(&mut rng, 4096, 1 << 16, 1024);
    let b = BlockModel::random(&mut rng, 4096, 1 << 16, 1024);
    let mut g = c.benchmark_group("conflict_checks");
    g.bench_function("corm_compactable_4096_slots", |bch| bch.iter(|| a.corm_compactable(&b)));
    g.bench_function("mesh_compactable_4096_slots", |bch| bch.iter(|| a.mesh_compactable(&b)));
    g.finish();
}

fn bench_probability(c: &mut Criterion) {
    c.bench_function("compaction_probability_closed_form", |b| {
        b.iter(|| corm_probability(16, 512, 200, 150))
    });
}

fn bench_zipf(c: &mut Criterion) {
    let z = Zipfian::new(8 << 20, 0.99).scrambled();
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("zipf_sample_8M_keys", |b| b.iter(|| z.sample(&mut rng)));
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_alloc_free,
    bench_reads,
    bench_read_batch,
    bench_scatter_gather,
    bench_compaction,
    bench_conflict_checks,
    bench_probability,
    bench_zipf
);
criterion_main!(benches);
