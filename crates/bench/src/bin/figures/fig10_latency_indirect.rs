//! Fig. 10: median latency with *indirect* pointers — objects relocated by
//! compaction — plus the ReleasePtr cost.
//!
//! Left panel: RPC Read/Write to moved objects (correction is transparent,
//! §3.2.1) and the two client-side recovery paths for a failed DirectRead:
//! DirectRead + RPC-read vs DirectRead + ScanRead (§3.2.2). Right panel:
//! ReleasePtr (§3.3) vs the RPC baseline. Paper anchors: RPC read/write of
//! indirect pointers ≈ direct; ScanRead cheaper than RPC backup at 4 KiB
//! blocks; ReleasePtr ≈ RPC + 0.3 µs, size-independent.

use std::sync::Arc;

use corm_bench::report::{f2, median_us, Sheet};
use corm_core::client::{CormClient, FixStrategy};
use corm_core::server::{CormServer, CorrectionStrategy, ServerConfig};
use corm_core::{GlobalPtr, ReadOutcome};
use corm_sim_core::stats::Histogram;
use corm_sim_core::time::SimTime;

use crate::run::Run;

const SIZES: [usize; 9] = [8, 16, 32, 64, 128, 256, 512, 1024, 2000];

/// Builds a population where every surviving object has been *relocated*
/// to a different offset: two interleaved blocks are compacted with
/// guaranteed offset conflicts. Returns stale (pre-compaction) pointers.
fn relocated_population(size: usize) -> (Arc<CormServer>, Vec<(GlobalPtr, GlobalPtr)>) {
    let server = Arc::new(CormServer::new(ServerConfig {
        workers: 1, // deterministic slot layout
        correction: CorrectionStrategy::ThreadMessaging,
        ..ServerConfig::default()
    }));
    let mut client = CormClient::connect(server.clone());
    let class =
        corm_core::consistency::class_for_payload(server.classes(), size).expect("size in classes");
    let slot_bytes = server.classes().size_of(class);
    let slots = server.block_bytes() / slot_bytes;
    if slots < 2 {
        return (server, Vec::new()); // class too large for offset conflicts
    }
    // Fill two blocks fully.
    let mut ptrs: Vec<GlobalPtr> =
        (0..2 * slots).map(|_| client.alloc(size).expect("alloc").value).collect();
    let payload = vec![0xABu8; size];
    for p in ptrs.iter_mut() {
        client.write(p, &payload).expect("write");
    }
    // Keep slot 0 of both blocks (guaranteed offset conflict); free the
    // rest.
    for (i, p) in ptrs.iter_mut().enumerate() {
        if i != 0 && i != slots {
            client.free(p).expect("free");
        }
    }
    let stale = vec![ptrs[0], ptrs[slots]];
    server.compact_class(class, SimTime::ZERO).expect("compaction");
    // Exactly one of the two survivors moved; find it by probing.
    let mut moved = Vec::new();
    for ptr in stale {
        let mut buf = vec![0u8; size];
        let out = client.direct_read(&ptr, &mut buf, SimTime::from_millis(1)).unwrap();
        if matches!(out.value, ReadOutcome::Invalid(_)) {
            let mut fixed = ptr;
            // Learn the corrected pointer (for ReleasePtr measurements).
            let mut c2 = CormClient::connect(server.clone());
            c2.read(&mut fixed, &mut buf).expect("correcting read");
            moved.push((ptr, fixed));
        }
    }
    (server, moved)
}

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Fig. 10: median latency with indirect pointers (us)",
        &[
            "size",
            "rpc_read",
            "rpc_write",
            "direct+rpc_read",
            "direct+scan_read",
            "release_ptr",
            "rpc_base",
        ],
    );
    let mut indirect_vs_direct = Vec::new();
    for size in SIZES {
        let (server, moved) = relocated_population(size);
        if moved.is_empty() {
            continue;
        }
        let mut h_read = Histogram::new();
        let mut h_write = Histogram::new();
        let mut h_fix_rpc = Histogram::new();
        let mut h_fix_scan = Histogram::new();
        let mut h_release = Histogram::new();
        let mut h_direct = Histogram::new();
        let payload = vec![0xCDu8; size];
        let mut buf = vec![0u8; size];
        let (stale, fixed) = moved[0];

        // Start past the compaction's rereg window, then advance the
        // virtual clock with every measured op.
        let mut clock = SimTime::from_millis(1);
        for _ in 0..200 {
            // RPC read/write through the *stale* pointer: correction is
            // transparent; re-use a fresh stale copy every time.
            let mut p = stale;
            let mut c = CormClient::connect(server.clone());
            let read_cost = c.read(&mut p, &mut buf).expect("read").cost;
            h_read.record_duration(read_cost);
            clock += read_cost;
            let mut p = stale;
            let write_cost = c.write(&mut p, &payload).expect("write").cost;
            h_write.record_duration(write_cost);
            clock += write_cost;
            // The same read through the corrected pointer, off the clock:
            // the yardstick for "correction is transparent".
            let mut p = fixed;
            h_direct.record_duration(c.read(&mut p, &mut buf).expect("direct read").cost);

            // DirectRead + RPC-read recovery.
            let mut c = CormClient::connect_with(server.clone(), FixStrategy::RpcRead);
            let mut p = stale;
            let fix_rpc_cost =
                c.direct_read_with_recovery(&mut p, &mut buf, clock).expect("recovery").cost;
            h_fix_rpc.record_duration(fix_rpc_cost);
            clock += fix_rpc_cost;

            // DirectRead + ScanRead recovery.
            let mut c = CormClient::connect_with(server.clone(), FixStrategy::ScanRead);
            let mut p = stale;
            let fix_scan_cost =
                c.direct_read_with_recovery(&mut p, &mut buf, clock).expect("recovery").cost;
            h_fix_scan.record_duration(fix_scan_cost);
            clock += fix_scan_cost;
        }

        // ReleasePtr permanently re-homes the object (and may release the
        // old vaddr), so each sample needs a fresh population.
        for _ in 0..20 {
            let (server, moved) = relocated_population(size);
            let Some(&(stale, _)) = moved.first() else { continue };
            let mut c = CormClient::connect(server.clone());
            let mut p = stale;
            c.read(&mut p, &mut buf).expect("correct first");
            h_release.record_duration(c.release_ptr(&mut p).expect("release").cost);
        }

        indirect_vs_direct.push((median_us(&h_read), median_us(&h_direct)));
        t.row(&[
            size.into(),
            f2(median_us(&h_read)),
            f2(median_us(&h_write)),
            f2(median_us(&h_fix_rpc)),
            f2(median_us(&h_fix_scan)),
            f2(median_us(&h_release)),
            f2(server.model().rpc_latency(size).as_micros_f64()),
        ]);
    }
    run.emit("fig10_latency_indirect", &t);

    run.gate(
        t.rows().all(|r| r.num("rpc_read") == r.num("rpc_write"))
            && indirect_vs_direct.iter().all(|(stale, direct)| (stale / direct - 1.0).abs() < 0.01),
        "an RPC read or write through a stale pointer costs what it costs through the corrected one",
    );
    run.gate(
        t.rows().all(|r| r.num("direct+scan_read") < r.num("direct+rpc_read")),
        "with 4 KiB blocks ScanRead recovery is cheaper than RPC recovery at every size",
    );
    run.gate(
        t.rows().all(|r| (r.num("release_ptr") - 2.8).abs() < 0.005),
        "ReleasePtr is RPC + 0.3 us = 2.80 us, independent of object size",
    );
}
