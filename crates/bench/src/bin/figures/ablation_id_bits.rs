//! Ablation: object-ID width on the *real data path*.
//!
//! Figs. 7/17 sweep ID widths analytically and over the block model; this
//! ablation runs the actual server — allocation, headers, compaction,
//! pointer correction — at 8/12/16-bit IDs over the same fragmented
//! population, and reports how much physical memory each width recovers
//! plus how many objects had to relocate (indirect pointers created).

use std::sync::Arc;

use corm_bench::report::Sheet;
use corm_bench::setup::fill_pattern;
use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_sim_core::time::SimTime;

use crate::run::Run;

const OBJECTS: usize = 8_192;
const PAYLOAD: usize = 24; // 40-byte class → 102 slots per 4 KiB block
const DEALLOC: f64 = 0.75;

fn compact_at(id_bits: u32) -> (usize, usize, usize) {
    let mut config = ServerConfig { workers: 1, ..ServerConfig::default() };
    config.alloc.id_bits = id_bits;
    let server = Arc::new(CormServer::new(config));
    let mut client = CormClient::connect(server.clone());
    let mut ptrs = Vec::with_capacity(OBJECTS);
    let mut payload = vec![0u8; PAYLOAD];
    for key in 0..OBJECTS {
        let mut p = client.alloc(PAYLOAD).unwrap().value;
        fill_pattern(&mut payload, key as u64);
        client.write(&mut p, &payload).unwrap();
        ptrs.push(p);
    }
    let keep_every = (1.0 / (1.0 - DEALLOC)).round() as usize;
    for (i, p) in ptrs.iter_mut().enumerate() {
        if i % keep_every != 0 {
            client.free(p).unwrap();
        }
    }
    let before = server.process_allocator().blocks_in_use();
    let class = corm_core::consistency::class_for_payload(server.classes(), PAYLOAD).unwrap();
    let report = server.compact_class(class, SimTime::ZERO).unwrap().value;
    let after = server.process_allocator().blocks_in_use();

    // Every survivor must still be readable (with recovery).
    let mut expect = vec![0u8; PAYLOAD];
    let mut buf = vec![0u8; PAYLOAD];
    for i in (0..OBJECTS).step_by(keep_every) {
        let n = client
            .direct_read_with_recovery(&mut ptrs[i], &mut buf, SimTime::from_millis(1))
            .unwrap()
            .value;
        fill_pattern(&mut expect, i as u64);
        assert_eq!(&buf[..n], &expect[..], "id_bits={id_bits} object {i}");
    }
    (before, after, report.objects_relocated)
}

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Ablation: ID width on the real data path (8192 x 24 B, 75% freed, 4 KiB blocks)",
        &["id_bits", "blocks_before", "blocks_after", "reduction", "objects_relocated"],
    );
    for id_bits in [8u32, 12, 16] {
        let (before, after, relocated) = compact_at(id_bits);
        t.row(&[
            u64::from(id_bits).into(),
            before.into(),
            after.into(),
            format!("{:.2}x", before as f64 / after as f64).into(),
            relocated.into(),
        ]);
    }
    run.emit("ablation_id_bits", &t);
    let after: Vec<f64> = t.rows().map(|r| r.num("blocks_after")).collect();
    run.gate(
        after[0] > after[1] && after[1] > after[2] && after[2] == 16.0,
        "wider IDs recover more blocks, and 16 bits reach the 4x ceiling of a 75%-freed store",
    );
}
