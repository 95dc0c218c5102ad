//! Placement under churn is pinned, pointer by pointer.
//!
//! Three cycles of free 60 % → `compact_if_fragmented` → read every
//! survivor with recovery → allocate and write the freed keys back, on a
//! 4 Ki-object store, under each MTT-update strategy. Every pointer the
//! server returns or corrects folds into a digest; the digests and the
//! active bytes below are what the allocator produced when each bin was
//! scanned newest-first and each block kept a `BlockModel`. Work on the
//! allocator's speed must leave them alone: a different block choice, slot,
//! object ID or RNG draw anywhere in the run moves the digest.

use std::sync::Arc;

use rand::Rng;

use corm_core::server::{CormServer, ServerConfig};
use corm_core::{CormClient, GlobalPtr};
use corm_sim_core::rng::stream_rng;
use corm_sim_core::time::SimTime;
use corm_sim_rdma::MttUpdateStrategy;

const OBJECTS: usize = 4096;
const FREED: usize = OBJECTS * 6 / 10;
const PAYLOAD: usize = 32;

fn fold(digest: &mut u64, ptr: &GlobalPtr) {
    for word in [ptr.vaddr, ptr.rkey as u64, ptr.obj_id as u64, ptr.class as u64, ptr.flags as u64]
    {
        *digest = (*digest ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn pattern(key: usize) -> [u8; PAYLOAD] {
    std::array::from_fn(|i| (key * 31 + i) as u8)
}

/// `(digest of every pointer, active bytes at the end)`.
fn churn(mtt_strategy: MttUpdateStrategy) -> (u64, u64) {
    let server =
        Arc::new(CormServer::new(ServerConfig { mtt_strategy, ..ServerConfig::default() }));
    let mut client = CormClient::connect(server.clone());
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut clock = SimTime::ZERO;
    let place = |client: &mut CormClient, digest: &mut u64, key: usize| {
        let mut ptr = client.alloc(PAYLOAD).expect("alloc").value;
        client.write(&mut ptr, &pattern(key)).expect("write");
        fold(digest, &ptr);
        ptr
    };
    let mut ptrs: Vec<GlobalPtr> =
        (0..OBJECTS).map(|key| place(&mut client, &mut digest, key)).collect();
    let mut order: Vec<usize> = (0..OBJECTS).collect();
    let mut rng = stream_rng(0xC4, 7);
    let mut buf = [0u8; PAYLOAD];
    for _ in 0..3 {
        for i in 0..FREED {
            let j = rng.gen_range(i..OBJECTS);
            order.swap(i, j);
        }
        let (freed, survivors) = order.split_at(FREED);
        for &key in freed {
            client.free(&mut ptrs[key]).expect("free");
        }
        for report in server.compact_if_fragmented(clock).expect("compaction") {
            clock += report.total_cost();
        }
        for &key in survivors {
            let read = client.direct_read_with_recovery(&mut ptrs[key], &mut buf, clock);
            clock += read.expect("survivor is readable").cost;
            assert_eq!(buf, pattern(key), "survivor {key}");
            fold(&mut digest, &ptrs[key]);
        }
        for &key in freed {
            ptrs[key] = place(&mut client, &mut digest, key);
        }
    }
    (digest, server.active_bytes())
}

#[test]
fn pointers_and_active_bytes_match_the_linear_scan_allocator() {
    // The strategy decides how the NIC learns of a remap, never where an
    // object lives or what key its pointer carries: one pin serves all.
    let pinned = (0x3f87_0b3a_d9ae_0aae_u64, 212_992_u64);
    for strategy in
        [MttUpdateStrategy::Rereg, MttUpdateStrategy::Odp, MttUpdateStrategy::OdpPrefetch]
    {
        assert_eq!(churn(strategy), pinned, "{strategy:?}");
    }
}
