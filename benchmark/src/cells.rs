//! Layer cells: each public function the ledger names, timed on its own.
//!
//! A cell runs on the workload's own store, and every call takes a fresh key
//! of the workload's distribution, so the function sees the cache footprint
//! it has in the rounds. One `Instant` pair brackets a batch of calls and the
//! batches' 10th percentile, the estimator the rounds use, gives the ns/call; each cell makes about a million calls (a
//! million entries, for the batched verbs). The cells run after the rounds
//! and the verification: nothing reads the store after them, so the last
//! few are free to overwrite payloads and to allocate.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use corm_alloc::{AllocConfig, ProcessAllocator, ThreadAllocator};
use corm_compact::BlockModel;
use corm_core::client::CormClient;
use corm_core::consistency::{self, gather_into, scatter_into};
use corm_core::header::ObjectHeader;
use corm_core::server::registry::BlockRegistry;
use corm_core::GlobalPtr;
use corm_sim_core::queue::EventQueue;
use corm_sim_core::resource::FifoResource;
use corm_sim_core::rng::stream_rng;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_mem::{AddressSpace, FrameId, PhysicalMemory, PAGE_SIZE};
use corm_sim_rdma::{QueuePair, ReadReq};
use corm_workloads::ycsb::{KeyDist, Mix, Workload};

use crate::stats::p10;
use crate::workloads::{Bench, OBJECT_BYTES};

const BATCHES: usize = 1024;
const CALLS: usize = 1024;
/// Calls per cell, and keys drawn for them.
const KEYS: usize = BATCHES * CALLS;
/// Slot images the gather cell cycles through: few enough to stay in cache,
/// as the image a read has just fetched is.
const HOT_IMAGES: usize = 64;
/// Standing population of the private allocator.
const PRIVATE_OBJECTS: usize = 1 << 16;
/// Scratch frames the DMA-write cell spreads its stores over (16 MiB).
const SCRATCH_FRAMES: usize = 4096;
/// Reads per doorbell in the batched-verb cells.
const DEPTH: usize = 16;
const KEY_STREAM: u64 = 0x63656C;

/// The cells' metric names, in the order [`run_all`] returns them.
pub const NAMES: [&str; 23] = [
    "workloads.next_op_ns",
    "sim_core.queue_cycle_ns",
    "sim_core.fifo_admit_ns",
    "sim_mem.dma_read_ns",
    "sim_mem.dma_write_ns",
    "sim_mem.translate_ns",
    "sim_mem.remap_ns",
    "sim_rdma.qp_read_ns",
    "sim_rdma.batch_sync_ns_per_wqe",
    "sim_rdma.batch_queued_ns_per_wqe",
    "corm_alloc.alloc_ns",
    "corm_alloc.free_ns",
    "corm_compact.compactable_ns",
    "core.direct_read_ns",
    "core.recovery_read_ns",
    "core.gather_ns",
    "core.scatter_ns",
    "core.server_read_ns",
    "core.registry_resolve_ns",
    "core.read_batch_ns_per_entry",
    "core.server_write_ns",
    "core.server_alloc_ns",
    "core.server_free_ns",
];

/// Runs `batches` timed batches of `calls` calls; the 10th percentile of the
/// batches' ns per call. `f` gets the running call index.
fn time_cell(batches: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    let mut i = 0;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..calls {
            f(i);
            i += 1;
        }
        per_call.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    p10(&per_call)
}

/// Two cells that undo each other, such as alloc and free: `f(true)` makes
/// `CALLS` calls of the first, `f(false)` undoes them with `CALLS` calls of
/// the second, [`BATCHES`] times over. Returns both cells' ns per call.
fn time_pair(mut f: impl FnMut(bool)) -> (f64, f64) {
    let (mut first, mut second) = (Vec::with_capacity(BATCHES), Vec::with_capacity(BATCHES));
    for _ in 0..BATCHES {
        for (phase, per_call) in [(true, &mut first), (false, &mut second)] {
            let start = Instant::now();
            f(phase);
            per_call.push(start.elapsed().as_nanos() as f64 / CALLS as f64);
        }
    }
    (p10(&first), p10(&second))
}

/// Every cell's `(metric name, ns/call)`.
pub fn run_all(bench: &mut Bench, seed: u64) -> Vec<(&'static str, f64)> {
    // The key and mix generator: the workload's own where it has one.
    let ycsb = match bench {
        Bench::Ycsb(w) => w.workload().clone(),
        _ => Workload::new(bench.store().ptrs.len() as u64, KeyDist::Uniform, Mix::BALANCED),
    };
    let mut rng = stream_rng(seed, KEY_STREAM);
    let store = bench.store();
    let server = store.server.clone();
    let key_ptrs: Vec<GlobalPtr> =
        (0..KEYS).map(|_| store.ptrs[ycsb.next_key(&mut rng) as usize]).collect();
    let ptr_of = move |i: usize| key_ptrs[i % KEYS];
    let slot_bytes = {
        let class = consistency::class_for_payload(server.classes(), OBJECT_BYTES)
            .expect("a class fits the payload");
        server.classes().size_of(class)
    };
    let workers = server.config().workers;
    let aspace = server.aspace().clone();
    let phys = server.phys().clone();
    // Far beyond any round's clock, so the RNIC engine is idle.
    let mut now = SimTime::from_secs(1_000_000);
    let step = SimDuration::from_micros(50);
    let mut buf = [0u8; OBJECT_BYTES];
    let mut out = Vec::new();

    out.push((
        "workloads.next_op_ns",
        time_cell(BATCHES, CALLS, |_| {
            black_box(ycsb.next_op(&mut rng));
        }),
    ));

    // Sixteen events in flight, like the closed loop's sixteen clients.
    let mut queue: EventQueue<usize> = EventQueue::new();
    for c in 0..16 {
        queue.schedule(SimTime::from_nanos(c as u64 * 100), c);
    }
    out.push((
        "sim_core.queue_cycle_ns",
        time_cell(BATCHES, CALLS, |i| {
            let (at, c) = queue.pop().expect("sixteen events in flight");
            queue.schedule(at + SimDuration::from_nanos(7_000 + (i % 7) as u64 * 100), c);
        }),
    ));

    let mut station = FifoResource::new(1);
    let mut arrival = SimTime::ZERO;
    out.push((
        "sim_core.fifo_admit_ns",
        time_cell(BATCHES, CALLS, |_| {
            arrival += SimDuration::from_nanos(500);
            black_box(station.admit(arrival, SimDuration::from_nanos(300)));
        }),
    ));

    // Where each key's slot lives.
    let slots: Vec<(FrameId, usize)> = (0..KEYS)
        .map(|i| {
            let va = ptr_of(i).vaddr;
            (aspace.translate(va).expect("live slot is mapped").frame, va as usize % PAGE_SIZE)
        })
        .collect();
    let mut image = vec![0u8; slot_bytes];
    out.push((
        "sim_mem.dma_read_ns",
        time_cell(BATCHES, CALLS, |i| {
            let (frame, off) = slots[i % KEYS];
            phys.read(frame, off, &mut image).expect("frame is live");
        }),
    ));
    let mut images = vec![0u8; HOT_IMAGES * slot_bytes];
    for (i, chunk) in images.chunks_exact_mut(slot_bytes).enumerate() {
        let (frame, off) = slots[i];
        phys.read(frame, off, chunk).expect("frame is live");
    }
    // Stores of one slot image each, at the keys' offsets, into frames of
    // the store's memory that hold no object.
    let scratch = phys.alloc_n(SCRATCH_FRAMES).expect("no memory cap");
    out.push((
        "sim_mem.dma_write_ns",
        time_cell(BATCHES, CALLS, |i| {
            let frame = scratch[i.wrapping_mul(0x9E37_79B9) % SCRATCH_FRAMES];
            phys.write(frame, slots[i % KEYS].1, &image).expect("frame is live");
        }),
    ));
    for &f in &scratch {
        phys.release(f);
    }
    out.push((
        "sim_mem.translate_ns",
        time_cell(BATCHES, CALLS, |i| {
            black_box(aspace.translate(ptr_of(i).vaddr).expect("mapped"));
        }),
    ));

    // One page of the store's own address space, flipped between two frames.
    let frames = phys.alloc_n(2).expect("two frames");
    let va = aspace.mmap(&frames[..1]).expect("fresh mapping");
    out.push((
        "sim_mem.remap_ns",
        time_cell(BATCHES, CALLS, |i| {
            aspace.remap(va, &[frames[(i + 1) % 2]]).expect("page is mapped");
        }),
    ));
    aspace.munmap(va, 1).expect("page is mapped");
    for &f in &frames {
        phys.release(f);
    }

    let qp = QueuePair::connect(server.rnic().clone());
    out.push((
        "sim_rdma.qp_read_ns",
        time_cell(BATCHES, CALLS, |i| {
            let p = ptr_of(i);
            qp.read(p.rkey, p.vaddr, &mut image, now).expect("qp is healthy");
        }),
    ));

    let mut reqs: Vec<ReadReq> = Vec::with_capacity(DEPTH);
    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); DEPTH];
    let mut results = Vec::with_capacity(DEPTH);
    let per_doorbell = time_cell(BATCHES, CALLS / DEPTH, |i| {
        reqs.clear();
        reqs.extend((0..DEPTH).map(|k| {
            let p = ptr_of(i * DEPTH + k);
            ReadReq::new(k as u64, p.rkey, p.vaddr, slot_bytes)
        }));
        qp.read_batch_into(&reqs, &mut outs, now, &mut results);
        now += step;
    });
    out.push(("sim_rdma.batch_sync_ns_per_wqe", per_doorbell / DEPTH as f64));

    let per_doorbell = time_cell(BATCHES, CALLS / DEPTH, |i| {
        for k in 0..DEPTH {
            let p = ptr_of(i * DEPTH + k);
            qp.post_read(p.rkey, p.vaddr, slot_bytes, k as u64);
        }
        qp.ring_doorbell(now);
        black_box(qp.poll_cq(DEPTH));
        now += step;
    });
    out.push(("sim_rdma.batch_queued_ns_per_wqe", per_doorbell / DEPTH as f64));

    // A private allocator: the server's thread allocators are not public.
    // 1,024 objects are allocated, then freed, over a standing population.
    let config = AllocConfig::default();
    let private_phys = Arc::new(PhysicalMemory::new());
    let private_aspace = Arc::new(AddressSpace::new(private_phys.clone()));
    let proc = ProcessAllocator::new(private_phys, private_aspace, config.clone());
    let class = consistency::class_for_payload(&config.classes, OBJECT_BYTES).expect("class");
    let mut talloc = ThreadAllocator::new(0, config.classes.len());
    for _ in 0..PRIVATE_OBJECTS {
        talloc.alloc(class, &proc, &mut rng).expect("private allocator has no cap");
    }
    let mut held = Vec::with_capacity(CALLS);
    let (alloc_ns, free_ns) = time_pair(|allocating| {
        if allocating {
            for _ in 0..CALLS {
                held.push(talloc.alloc(class, &proc, &mut rng).expect("private allocator"));
            }
        } else {
            for o in held.drain(..) {
                black_box(o.block.lock().free_slot(o.slot));
            }
        }
    });
    out.push(("corm_alloc.alloc_ns", alloc_ns));
    out.push(("corm_alloc.free_ns", free_ns));

    // Block pairs at the occupancy a 60 % free leaves behind.
    let block_slots = config.block_bytes / slot_bytes;
    let models: Vec<BlockModel> = (0..256)
        .map(|_| BlockModel::random(&mut rng, block_slots, config.id_space(), block_slots * 4 / 10))
        .collect();
    out.push((
        "corm_compact.compactable_ns",
        time_cell(BATCHES, CALLS, |i| {
            black_box(models[i % 256].corm_compactable(&models[(i / 256 + i + 1) % 256]));
        }),
    ));

    let mut client = CormClient::connect(server.clone());
    out.push((
        "core.direct_read_ns",
        time_cell(BATCHES, CALLS, |i| {
            black_box(client.direct_read(&ptr_of(i), &mut buf, now).expect("qp is healthy"));
        }),
    ));
    out.push((
        "core.recovery_read_ns",
        time_cell(BATCHES, CALLS, |i| {
            let mut p = ptr_of(i);
            client.direct_read_with_recovery(&mut p, &mut buf, now).expect("object is live");
        }),
    ));
    out.push((
        "core.gather_ns",
        time_cell(BATCHES, CALLS, |i| {
            let at = i % HOT_IMAGES;
            let image = &images[at * slot_bytes..(at + 1) * slot_bytes];
            black_box(gather_into(image, Some(ptr_of(at).obj_id), &mut buf).expect("valid"));
        }),
    ));
    let header = ObjectHeader::new(7, 1, 0);
    let payload = [0x5Au8; OBJECT_BYTES];
    let mut scratch = Vec::new();
    out.push((
        "core.scatter_ns",
        time_cell(BATCHES, CALLS, |_| {
            scatter_into(header, black_box(&payload), slot_bytes, &mut scratch);
        }),
    ));

    out.push((
        "core.server_read_ns",
        time_cell(BATCHES, CALLS, |i| {
            let mut p = ptr_of(i);
            server.read(i % workers, &mut p, &mut buf).expect("object is live");
        }),
    ));
    // The server's registry is not public. A private one gets an entry per
    // block of the store, at made-up bases, sharing the private allocator's
    // blocks: the look-up sees the real table size without the memory.
    let registry = BlockRegistry::new();
    let private_blocks = talloc.blocks_in_class(class);
    let bases: Vec<u64> = (0..server.active_bytes() / config.block_bytes as u64)
        .map(|i| {
            let base = AddressSpace::MMAP_BASE + i * config.block_bytes as u64;
            registry.insert_block(base, private_blocks[i as usize % private_blocks.len()].clone());
            base
        })
        .collect();
    out.push((
        "core.registry_resolve_ns",
        time_cell(BATCHES, CALLS, |i| {
            black_box(registry.resolve(bases[i * 7 % bases.len()]).expect("registered"));
        }),
    ));

    let mut batch_ptrs: Vec<GlobalPtr> = Vec::with_capacity(DEPTH);
    let mut bufs = vec![vec![0u8; OBJECT_BYTES]; DEPTH];
    let per_batch = time_cell(BATCHES, CALLS / DEPTH, |i| {
        batch_ptrs.clear();
        batch_ptrs.extend((0..DEPTH).map(|k| ptr_of(i * DEPTH + k)));
        client.read_batch(&mut batch_ptrs, &mut bufs, now).expect("objects are live");
        now += step;
    });
    out.push(("core.read_batch_ns_per_entry", per_batch / DEPTH as f64));

    // Last, the cells that change the store: payloads, then the allocator.
    out.push((
        "core.server_write_ns",
        time_cell(BATCHES, CALLS, |i| {
            let mut p = ptr_of(i);
            server.write(i % workers, &mut p, &payload).expect("object is live");
        }),
    ));
    let mut fresh: Vec<GlobalPtr> = Vec::with_capacity(CALLS);
    let (alloc_ns, free_ns) = time_pair(|allocating| {
        if allocating {
            for i in 0..CALLS {
                fresh.push(server.alloc(i % workers, OBJECT_BYTES).expect("no memory cap").value);
            }
        } else {
            for (i, mut p) in fresh.drain(..).enumerate() {
                server.free(i % workers, &mut p).expect("just allocated");
            }
        }
    });
    out.push(("core.server_alloc_ns", alloc_ns));
    out.push(("core.server_free_ns", free_ns));
    assert!(out.iter().map(|c| c.0).eq(NAMES), "cells and NAMES disagree");
    out
}
