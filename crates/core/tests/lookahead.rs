//! A [`Lookahead`] is inert: on a store that has been through frees, a
//! compaction pass and a pin-budget enforcement — aliases, merged-away
//! sources, freed slots, relocated objects behind stale pointers, far
//! frames — walking the ring over every pointer a client could hold and a
//! few no client could changes nothing that can be observed: counters,
//! trace, tier state, pointer bytes, memory bytes. So do its DMA hints on
//! frames released and reused since the ring read them. And it stays so,
//! and always returns, while another thread takes the same blocks' locks
//! as fast as it can.
//!
//! (The deterministic form of the last statement — the walk returns while
//! another thread *holds* the block's lock — needs the lock itself, which
//! nothing outside the crate can reach: it is a unit test beside the walk
//! in `server/lookahead.rs`.)

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};

use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::{GlobalPtr, Lookahead};
use corm_sim_core::time::SimTime;
use corm_sim_mem::{ResidencySnapshot, TierConfig, TierStats, PAGE_SIZE};
use corm_trace::{Stage, StageTotal, TraceHandle};

const SIZE: usize = 32;
const OBJECTS: usize = 4096;
/// More advances than an op takes to go through the ring.
const DRAIN: usize = 16;

fn payload_for(key: usize) -> [u8; SIZE] {
    std::array::from_fn(|b| (key * 31 + b) as u8)
}

/// A store in the state the closed loop's hints meet at their worst, and
/// the pointers into it.
struct Store {
    server: Arc<CormServer>,
    trace: TraceHandle,
    /// `(key, pointer as allocated)` of every surviving object. None has
    /// been used since the pass, so those of relocated objects are stale.
    live: Vec<(usize, GlobalPtr)>,
    /// The same objects' pointers as a read corrected them.
    corrected: Vec<GlobalPtr>,
    /// Pointers of freed objects: before the pass (their blocks merged
    /// away, released or refilled since) and after it.
    freed: Vec<GlobalPtr>,
}

/// A tiered server holding [`OBJECTS`] stamped objects, keys in
/// allocation order.
fn populated() -> (Arc<CormServer>, TraceHandle, CormClient, Vec<GlobalPtr>) {
    let trace = TraceHandle::recording();
    let server = Arc::new(CormServer::new(ServerConfig {
        workers: 2,
        // The director exists from boot, its budget unbounded until the
        // footprint is known, so heat accumulates from the first
        // allocation.
        tier: Some(TierConfig::cxl()),
        trace: trace.clone(),
        ..ServerConfig::default()
    }));
    let mut client = CormClient::connect(server.clone());
    let ptrs = alloc_stamped(&mut client, 0..OBJECTS);
    (server, trace, client, ptrs)
}

fn alloc_stamped(client: &mut CormClient, keys: std::ops::Range<usize>) -> Vec<GlobalPtr> {
    keys.map(|key| {
        let mut p = client.alloc(SIZE).expect("alloc").value;
        client.write(&mut p, &payload_for(key)).expect("stamp payload");
        p
    })
    .collect()
}

/// Frees three objects in four, evenly, so every block is a merge
/// candidate, and compacts the class. Returns the freed pointers.
fn free_and_compact(
    server: &CormServer,
    client: &mut CormClient,
    ptrs: &[GlobalPtr],
) -> Vec<GlobalPtr> {
    let mut freed = Vec::new();
    for (key, ptr) in ptrs.iter().enumerate() {
        if key % 4 != 0 {
            let mut p = *ptr;
            client.free(&mut p).expect("free");
            freed.push(p);
        }
    }
    let class = corm_core::consistency::class_for_payload(server.classes(), SIZE).unwrap();
    let report = server.compact_class(class, SimTime::ZERO).expect("compaction").value;
    assert!(report.objects_relocated > 0, "the pass must leave stale pointers behind");
    assert!(server.alias_count() > 0, "the pass must leave aliases behind");
    freed
}

fn build() -> Store {
    let (server, trace, mut client, ptrs) = populated();
    let mut freed = free_and_compact(&server, &mut client, &ptrs);

    // A few more frees after the pass: freed slots inside merged blocks.
    let mut live = Vec::new();
    for (key, ptr) in ptrs.iter().enumerate().filter(|(key, _)| key % 4 == 0) {
        if key % 64 == 0 {
            let mut p = *ptr;
            client.free(&mut p).expect("free after the pass");
            freed.push(*ptr);
        } else {
            live.push((key, *ptr));
        }
    }
    let mut buf = [0u8; SIZE];
    let corrected: Vec<GlobalPtr> = live
        .iter()
        .map(|&(key, mut p)| {
            server.read(0, &mut p, &mut buf).expect("survivor reads");
            assert_eq!(buf, payload_for(key));
            p
        })
        .collect();
    assert!(
        live.iter().zip(&corrected).any(|((_, stale), fixed)| stale != fixed),
        "some survivor's pointer must have needed correction"
    );

    // Half the footprint spilled: the hints meet far frames too.
    let (total, _) = server.block_frames();
    assert!(server.set_pin_budget((total as usize / 2).max(1)), "director must exist");
    server.enforce_pin_budget(SimTime::ZERO).expect("enforcement");
    assert!(server.phys().residency_counts().far > 0, "the budget must have spilled frames");
    Store { server, trace, live, corrected, freed }
}

/// Pointers no allocation returned.
fn fabricated(store: &Store) -> Vec<GlobalPtr> {
    let real = store.live[0].1;
    let at = |vaddr: u64| GlobalPtr { vaddr, ..real };
    let base = real.block_base(store.server.block_bytes());
    let classes = store.server.classes();
    let slot = classes.size_of(corm_core::consistency::class_for_payload(classes, SIZE).unwrap());
    vec![
        at(0),
        at(1),
        at(u64::MAX),
        at(base - 1),
        // Inside a live block: between two slots, on its last byte, past
        // its last whole slot.
        at(base + 1),
        at(base + PAGE_SIZE as u64 - 1),
        at(base + (PAGE_SIZE - PAGE_SIZE % slot) as u64),
        // Far above anything mapped.
        at(base + (1 << 40)),
        GlobalPtr { obj_id: !real.obj_id, ..real },
        GlobalPtr { rkey: !real.rkey, class: u8::MAX, flags: u8::MAX, ..real },
    ]
}

/// Everything observable about the store that a handler could have moved.
#[derive(Debug, PartialEq)]
struct Observed {
    server_stats: String,
    rnic_stats: String,
    counters: Vec<(Stage, u64)>,
    samples: Vec<StageTotal>,
    wall: Vec<StageTotal>,
    events: usize,
    residency: ResidencySnapshot,
    tier: TierStats,
    tier_stored: usize,
    /// `(heat, base)` ascending: the order the budget would evict in.
    heat_order: Vec<(u64, u64)>,
    evictions: Vec<u64>,
    aliases: usize,
    active_bytes: u64,
    pointers: Vec<[u8; 16]>,
}

/// The bytes behind every block any of `ptrs` names, far frames' poison
/// included; `None` where nothing is mapped.
fn memory(server: &CormServer, ptrs: &[GlobalPtr]) -> Vec<(u64, Option<Vec<u8>>)> {
    let block_bytes = server.block_bytes();
    let mut bases: Vec<u64> = ptrs.iter().map(|p| p.block_base(block_bytes)).collect();
    bases.sort_unstable();
    bases.dedup();
    bases
        .into_iter()
        // `AddressSpace::read` takes addresses a mapping could have.
        .filter(|base| base.checked_add(block_bytes as u64).is_some())
        .map(|base| {
            let mut bytes = vec![0u8; block_bytes];
            (base, server.aspace().read(base, &mut bytes).ok().map(|()| bytes))
        })
        .collect()
}

fn observe(store: &Store, ptrs: &[GlobalPtr]) -> Observed {
    let server = &store.server;
    let director = server.tiering().expect("tiering is on");
    let block_bytes = server.block_bytes();
    let mut heat_order: Vec<(u64, u64)> = ptrs
        .iter()
        .map(|p| p.block_base(block_bytes))
        .map(|base| (director.heat_of(base), base))
        .collect();
    heat_order.sort_unstable();
    heat_order.dedup();
    Observed {
        server_stats: format!("{:?}", server.stats),
        rnic_stats: format!("{:?}", server.rnic().stats),
        counters: store.trace.counters(),
        samples: store.trace.sample_totals(),
        wall: store.trace.wall_totals(),
        events: store.trace.drain().len(),
        residency: server.phys().residency_counts(),
        tier: director.tier().stats(),
        tier_stored: director.tier().stored_frames(),
        heat_order,
        evictions: director.eviction_log(),
        aliases: server.alias_count(),
        active_bytes: server.active_bytes(),
        pointers: ptrs.iter().map(|p| p.to_bytes()).collect(),
    }
}

/// Walks `ptrs` through a ring as the closed loop does, one pushed per
/// advance, then drains it.
fn through_the_ring(server: &CormServer, ptrs: &[GlobalPtr]) {
    let mut ahead = Lookahead::default();
    for key in 0..ptrs.len() {
        ahead.push(key as u64);
        ahead.advance(server, ptrs);
    }
    for _ in 0..DRAIN {
        ahead.advance(server, ptrs);
    }
}

fn every_pointer(store: &Store) -> Vec<GlobalPtr> {
    let mut ptrs: Vec<GlobalPtr> = store.live.iter().map(|&(_, p)| p).collect();
    ptrs.extend(&store.corrected);
    ptrs.extend(&store.freed);
    ptrs.extend(fabricated(store));
    ptrs
}

#[test]
fn every_stage_of_the_hint_for_every_pointer_changes_nothing() {
    let store = build();
    let ptrs = every_pointer(&store);
    // The first observation drains the events the set-up recorded.
    observe(&store, &ptrs);
    let before = (observe(&store, &ptrs), memory(&store.server, &ptrs));
    assert!(before.0.counters.iter().any(|&(s, n)| s == Stage::RegistryResolve && n > 0));
    assert_eq!(before.0.events, 0);

    // Each pointer alone, then in the order the loop issues them.
    for key in 0..ptrs.len() {
        through_the_ring(&store.server, &ptrs[key..=key]);
    }
    through_the_ring(&store.server, &ptrs);

    let after = (observe(&store, &ptrs), memory(&store.server, &ptrs));
    assert_eq!(before.0, after.0);
    assert!(before.1 == after.1, "a hint changed a byte of block memory");

    // The store still serves every survivor, by either pointer.
    let mut buf = [0u8; SIZE];
    for (&(key, stale), &fixed) in store.live.iter().zip(&store.corrected) {
        for mut p in [stale, fixed] {
            store.server.read(1, &mut p, &mut buf).expect("survivor reads after the hints");
            assert_eq!(buf, payload_for(key));
            assert_eq!(p, fixed, "either pointer ends up as the corrected one");
        }
    }
}

#[test]
fn hints_racing_a_writer_for_the_same_blocks_return_and_count_nothing() {
    let store = build();
    let server = &store.server;
    // The writer takes each block's lock once per write and holds it for
    // the whole handler; the hints run against exactly those blocks.
    let targets: Vec<(usize, GlobalPtr)> = store.live.iter().copied().take(64).collect();
    let writes_before = server.stats.writes.load(Ordering::Relaxed);
    let resolves_before = store.trace.counter(Stage::RegistryResolve);
    let start = Barrier::new(2);
    const ROUNDS: usize = 200;

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            start.wait();
            for round in 0..ROUNDS {
                for &(key, mut ptr) in &targets {
                    server.write(0, &mut ptr, &payload_for(key + round)).expect("write");
                }
            }
        });
        start.wait();
        let ptrs: Vec<GlobalPtr> = targets.iter().map(|&(_, ptr)| ptr).collect();
        // At least one full sweep even if the writer wins every race to
        // the finish; a writer that panics ends the sweeps too.
        loop {
            through_the_ring(server, &ptrs);
            if writer.is_finished() {
                break;
            }
        }
        writer.join().expect("writer");
    });

    let writes = (ROUNDS * targets.len()) as u64;
    assert_eq!(server.stats.writes.load(Ordering::Relaxed) - writes_before, writes);
    assert_eq!(
        store.trace.counter(Stage::RegistryResolve) - resolves_before,
        writes,
        "one resolve per write and none per hint"
    );
    let mut buf = [0u8; SIZE];
    for &(key, mut ptr) in &targets {
        server.read(1, &mut ptr, &mut buf).expect("read");
        assert_eq!(buf, payload_for(key + ROUNDS - 1), "the last write's payload, whole");
    }
}

/// The frame backing `ptr`'s first byte, as the page table has it.
fn frame_of(server: &CormServer, ptr: &GlobalPtr) -> u32 {
    server.aspace().translate(ptr.vaddr).expect("mapped").frame.0
}

#[test]
fn dma_hints_on_frames_released_and_reused_mid_walk_change_nothing() {
    let (server, trace, mut client, ptrs) = populated();
    // One ring per op, each stopped after a different number of steps,
    // every number up to a drained ring: some are stopped between reading
    // where their slot's bytes lie and hinting them.
    let mut rings: Vec<(usize, Lookahead)> = (0..ptrs.len())
        .map(|key| {
            let mut ahead = Lookahead::default();
            ahead.push(key as u64);
            let stop = key % DRAIN;
            for _ in 0..stop {
                ahead.advance(&server, &ptrs);
            }
            (stop, ahead)
        })
        .collect();
    // Each op's frame, and the base of the block it backed then.
    let block_bytes = server.block_bytes();
    let frames: Vec<u32> = ptrs.iter().map(|p| frame_of(&server, p)).collect();
    let owner: HashMap<u32, u64> =
        frames.iter().zip(&ptrs).map(|(&frame, p)| (frame, p.block_base(block_bytes))).collect();

    // Then the pass merges blocks away and releases their frames, and
    // fresh blocks take them again.
    let freed = free_and_compact(&server, &mut client, &ptrs);
    let fresh = alloc_stamped(&mut client, OBJECTS..2 * OBJECTS);
    let reused: HashSet<u32> = fresh
        .iter()
        .map(|p| (frame_of(&server, p), p.block_base(block_bytes)))
        .filter(|(frame, base)| owner.get(frame).is_some_and(|was| was != base))
        .map(|(frame, _)| frame)
        .collect();
    for stop in 0..DRAIN {
        assert!(
            (stop..ptrs.len()).step_by(DRAIN).any(|key| reused.contains(&frames[key])),
            "a fresh block must back itself with a frame the pass released, for a ring \
             stopped after {stop} advances"
        );
    }

    let store = Store { server, trace, live: Vec::new(), corrected: Vec::new(), freed };
    let mut all = ptrs.clone();
    all.extend(&fresh);
    observe(&store, &all);
    let before = (observe(&store, &all), memory(&store.server, &all));
    for (stop, ahead) in &mut rings {
        for _ in *stop..DRAIN {
            ahead.advance(&store.server, &ptrs);
        }
    }
    let after = (observe(&store, &all), memory(&store.server, &all));
    assert_eq!(before.0, after.0);
    assert!(before.1 == after.1, "a DMA hint changed a byte of block memory");

    // The fresh objects, on reused frames, read back whole.
    let mut buf = [0u8; SIZE];
    for (key, &ptr) in (OBJECTS..).zip(&fresh) {
        let mut p = ptr;
        store.server.read(1, &mut p, &mut buf).expect("fresh object reads");
        assert_eq!(buf, payload_for(key));
    }
}
