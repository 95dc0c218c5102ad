//! Tiering integration: an oversubscribed store behind a pin budget must
//! (a) replay a seeded serving run byte-identically — virtual costs,
//! payload bytes, and eviction order are all a pure function of the
//! config — and (b) keep every pointer resolvable through compaction
//! while the budget keeps spilling blocks out from under it, under each
//! §3.5 MTT strategy.

use std::sync::Arc;

use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::GlobalPtr;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_mem::TierConfig;
use corm_sim_rdma::{LatencyModel, MttUpdateStrategy, RnicConfig};

const STRATEGIES: [MttUpdateStrategy; 3] =
    [MttUpdateStrategy::Rereg, MttUpdateStrategy::Odp, MttUpdateStrategy::OdpPrefetch];

const SIZE: usize = 64;

fn payload_for(key: usize) -> Vec<u8> {
    (0..SIZE).map(|b| (key * 31 + b) as u8).collect()
}

fn boot(strategy: MttUpdateStrategy, dynamic_pin: bool) -> Arc<CormServer> {
    Arc::new(CormServer::new(ServerConfig {
        workers: 1,
        mtt_strategy: strategy,
        // The director exists from boot, its budget unbounded until the
        // footprint is measured, so heat accumulates from the first
        // allocation.
        tier: Some(TierConfig::nvme()),
        alloc: corm_alloc::AllocConfig {
            block_bytes: 4096,
            file_bytes: 16 << 20,
            ..Default::default()
        },
        rnic: RnicConfig { model: LatencyModel::connectx5(), dynamic_pin, ..RnicConfig::default() },
        ..ServerConfig::default()
    }))
}

/// FNV-1a-style fold (the workspace's standard fingerprint mix).
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100000001b3)
}

/// Allocates `objects` payload-stamped objects and returns their pointers.
fn populate(client: &mut CormClient, objects: usize) -> Vec<GlobalPtr> {
    (0..objects)
        .map(|key| {
            let mut p = client.alloc(SIZE).expect("alloc").value;
            client.write(&mut p, &payload_for(key)).expect("stamp payload");
            p
        })
        .collect()
}

/// One seeded serving run at 2x oversubscription: a strided read sweep
/// with periodic background enforcement, folded into a fingerprint that
/// covers every virtual timestamp, every payload byte, the eviction
/// order, and the final residency split.
fn tiered_run() -> (u64, u64) {
    let server = boot(MttUpdateStrategy::Rereg, true);
    let mut client = CormClient::connect(server.clone());
    let ptrs = populate(&mut client, 2048);

    let (total, _) = server.block_frames();
    assert!(server.set_pin_budget((total as usize / 2).max(1)), "director must exist");
    let mut clock = SimTime::ZERO;
    server.enforce_pin_budget(clock).expect("initial enforcement");

    let mut fp = 0xcbf29ce484222325u64;
    let mut buf = vec![0u8; SIZE];
    for i in 0..1024usize {
        // Deterministic non-uniform sweep: a co-prime stride revisits the
        // low keys often enough for heat to separate hot from cold.
        let key = (i * 97) % if i % 3 == 0 { 64 } else { ptrs.len() };
        let mut p = ptrs[key];
        let t = client
            .direct_read_with_recovery(&mut p, &mut buf, clock)
            .expect("tiered read must succeed");
        assert_eq!(&buf[..t.value], &payload_for(key)[..], "payload intact for key {key}");
        clock += t.cost;
        fp = mix(fp, clock.as_nanos());
        for w in buf.chunks_exact(8) {
            fp = mix(fp, u64::from_le_bytes(w.try_into().unwrap()));
        }
        server.note_access(&ptrs[key]);
        if i % 64 == 63 {
            let evicted = server.enforce_pin_budget(clock).expect("periodic enforcement");
            fp = mix(fp, evicted.value as u64);
            fp = mix(fp, evicted.cost.as_nanos());
        }
    }

    let tiering = server.tiering().expect("tiering configured");
    for base in tiering.eviction_log() {
        fp = mix(fp, base);
    }
    let (total, in_dram) = server.block_frames();
    fp = mix(fp, total);
    fp = mix(fp, in_dram);
    (fp, tiering.evictions())
}

#[test]
fn seeded_tiered_run_replays_byte_identically() {
    let (fp_a, ev_a) = tiered_run();
    let (fp_b, ev_b) = tiered_run();
    assert!(ev_a > 0, "2x oversubscription must actually evict");
    assert_eq!(ev_a, ev_b, "eviction counts replay");
    assert_eq!(fp_a, fp_b, "costs, payloads, and eviction order replay byte for byte");
}

#[test]
fn compaction_under_pin_pressure_keeps_pointers_resolvable() {
    for strategy in STRATEGIES {
        // Pinless dynamic pinning rides classic registration; the ODP
        // strategies model the lazy-fault world and never re-pin.
        let dynamic_pin = strategy == MttUpdateStrategy::Rereg;
        let server = boot(strategy, dynamic_pin);
        let mut client = CormClient::connect(server.clone());
        let class = corm_core::consistency::class_for_payload(server.classes(), SIZE).unwrap();
        let slots = server.block_bytes() / server.classes().size_of(class);

        // 12 full blocks, then free 3 of every 4 objects so compaction has
        // plenty of sparse merge sources.
        let blocks = 12;
        let mut ptrs = populate(&mut client, blocks * slots);
        let mut kept: Vec<(GlobalPtr, usize)> = Vec::new();
        for (key, p) in ptrs.iter_mut().enumerate() {
            if key % 4 == 0 {
                kept.push((*p, key));
            } else {
                client.free(p).expect("free filler");
            }
        }

        // Bind the budget below the live footprint and spill the overflow
        // *before* compacting: the planner must rank spilled-cold blocks
        // as sources and the merge path must fetch them back losslessly.
        let (total, _) = server.block_frames();
        assert!(server.set_pin_budget((total as usize / 2).max(1)));
        let mut clock = SimTime::ZERO;
        let evicted = server.enforce_pin_budget(clock).expect("pre-compaction enforcement");
        assert!(evicted.value > 0, "pressure must spill blocks ({strategy:?})");
        clock += evicted.cost;

        // Heat the kept objects so the heat-aware planner sees non-zero
        // temperature on the survivor blocks.
        for (p, _) in &kept {
            server.note_access(p);
        }
        let pass = server.compact_class(class, clock).expect("compact under pressure");
        assert!(pass.value.merges >= 1, "sparse blocks must merge ({strategy:?})");
        clock += pass.cost;

        // Re-enforce after compaction: merged survivors may exceed the
        // budget again, spilling blocks that now hold remapped objects.
        server.enforce_pin_budget(clock).expect("post-compaction enforcement");
        let after = clock + SimDuration::from_millis(1);

        let mut buf = vec![0u8; SIZE];
        for &(ptr, key) in &kept {
            let want = payload_for(key);
            // One-sided read via the original pointer: the alias chain
            // must resolve even when the destination frame was spilled.
            let mut p = ptr;
            let t = client
                .direct_read_with_recovery(&mut p, &mut buf, after)
                .expect("compacted+spilled object must stay readable one-sided");
            assert_eq!(&buf[..t.value], &want[..], "one-sided payload intact ({strategy:?})");
            // Two-sided read: the server CPU path fetches far frames
            // before touching the bytes.
            let mut p = ptr;
            let n = server
                .read(0, &mut p, &mut buf)
                .expect("compacted+spilled object must stay readable over RPC")
                .value;
            assert_eq!(&buf[..n], &want[..], "rpc payload intact ({strategy:?})");
        }
    }
}
