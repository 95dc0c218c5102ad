//! Quickstart: the Table 2 API end to end.
//!
//! Boots a CoRM node over the simulated substrate, allocates objects,
//! reads them over RPC and one-sided RDMA, fragments the heap, runs
//! compaction, and shows that every pointer still resolves afterwards.
//!
//! Run: `cargo run --release --example quickstart`

use std::sync::Arc;

use corm::core::server::{CormServer, ServerConfig};
use corm::core::CormClient;
use corm::sim_core::time::SimTime;

fn main() {
    // CreateCtx: boot a node and connect.
    let server = Arc::new(CormServer::new(ServerConfig::default()));
    let mut client = CormClient::connect(server.clone());

    // Alloc + Write.
    let mut ptr = client.alloc(48).expect("alloc").value;
    client.write(&mut ptr, b"CoRM: compactable remote memory").expect("write");
    println!("allocated object: id={:#06x} vaddr={:#x}", ptr.obj_id, ptr.vaddr);

    // Read via RPC and via one-sided RDMA (DirectRead).
    let mut buf = [0u8; 31];
    let rpc = client.read(&mut ptr, &mut buf).expect("rpc read");
    println!("RPC read      : {:?} ({})", str::from_utf8(&buf).unwrap(), rpc.cost);
    let direct =
        client.direct_read_with_recovery(&mut ptr, &mut buf, SimTime::ZERO).expect("direct read");
    println!("DirectRead    : {:?} ({})", str::from_utf8(&buf).unwrap(), direct.cost);

    // Fragment: allocate a burst, free most of it.
    let mut burst: Vec<_> = (0..512).map(|_| client.alloc(48).expect("alloc").value).collect();
    for p in burst.iter_mut().skip(1) {
        client.free(p).expect("free");
    }
    let before = server.active_bytes();

    // Compact every fragmented class.
    let reports = server.compact_if_fragmented(SimTime::ZERO).expect("compaction");
    let after = server.active_bytes();
    for r in &reports {
        println!(
            "compacted class {:?}: {} blocks collected, {} freed, {} objects moved ({})",
            r.class,
            r.collected,
            r.merges,
            r.objects_relocated,
            r.total_cost(),
        );
    }
    println!(
        "active memory: {} KiB -> {} KiB ({:.1}x reduction)",
        before / 1024,
        after / 1024,
        before as f64 / after as f64
    );

    // Every surviving pointer still works — RDMA access was never revoked.
    let n = client
        .direct_read_with_recovery(&mut ptr, &mut buf, SimTime::from_millis(1))
        .expect("read after compaction")
        .value;
    println!(
        "after compaction, DirectRead still returns: {:?}",
        str::from_utf8(&buf[..n]).unwrap()
    );
    let survivor = &mut burst[0];
    let mut small = [0u8; 8];
    client
        .direct_read_with_recovery(survivor, &mut small, SimTime::from_millis(1))
        .expect("survivor readable");
    println!("burst survivor readable too; qp breaks: {}", client.qp().breaks());
}
