#![allow(clippy::needless_range_loop)] // survivor indices are meaningful ranks
//! End-to-end tests of the full CoRM story: allocate, fragment, compact,
//! and keep every pointer working — over RDMA — without invalidating keys.

use std::sync::Arc;

use corm_core::client::FixStrategy;
use corm_core::server::{CormServer, CorrectionStrategy, ServerConfig};
use corm_core::{CormClient, CormError, GlobalPtr, ReadOutcome};
use corm_sim_core::time::SimTime;
use corm_sim_rdma::MttUpdateStrategy;

fn server_with(mtt: MttUpdateStrategy, correction: CorrectionStrategy) -> Arc<CormServer> {
    Arc::new(CormServer::new(ServerConfig {
        workers: 1, // deterministic block layout for slot-level assertions
        mtt_strategy: mtt,
        correction,
        ..ServerConfig::default()
    }))
}

/// Allocates `n` objects of `size` payload bytes, writing a recognizable
/// pattern into each.
fn populate(client: &mut CormClient, n: usize, size: usize) -> Vec<(GlobalPtr, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let mut ptr = client.alloc(size).unwrap().value;
            let data: Vec<u8> = (0..size).map(|j| ((i * 31 + j) % 251) as u8).collect();
            client.write(&mut ptr, &data).unwrap();
            (ptr, data)
        })
        .collect()
}

#[test]
fn compaction_frees_blocks_and_preserves_every_object() {
    let server = server_with(MttUpdateStrategy::OdpPrefetch, CorrectionStrategy::BlockScan);
    let mut client = CormClient::connect(server.clone());

    // 512 objects of 48 payload bytes → class 64; 64 objects per 4 KiB
    // block → 8 blocks. Free 75% to fragment.
    let mut objs = populate(&mut client, 512, 48);
    let before_blocks = server.process_allocator().blocks_in_use();
    for i in (0..objs.len()).filter(|i| i % 4 != 0) {
        let (ref mut ptr, _) = objs[i];
        client.free(ptr).unwrap();
    }
    let survivors: Vec<_> = (0..objs.len()).step_by(4).collect();

    let report = server
        .compact_class(
            corm_core::consistency::class_for_payload(server.classes(), 48).unwrap(),
            SimTime::ZERO,
        )
        .expect("compaction runs")
        .value;
    assert!(report.merges > 0, "fragmented blocks must merge");
    let after_blocks = server.process_allocator().blocks_in_use();
    assert!(
        after_blocks < before_blocks,
        "physical blocks must shrink: {before_blocks} -> {after_blocks}"
    );

    // Every surviving object is still readable — via RPC and one-sided.
    for &i in &survivors {
        let (ref mut ptr, ref data) = objs[i];
        let mut buf = vec![0u8; data.len()];
        let n = client.read(ptr, &mut buf).unwrap().value;
        assert_eq!(&buf[..n], &data[..], "RPC read of object {i}");

        let mut buf2 = vec![0u8; data.len()];
        let n2 = client
            .direct_read_with_recovery(ptr, &mut buf2, SimTime::from_millis(10))
            .unwrap()
            .value;
        assert_eq!(&buf2[..n2], &data[..], "DirectRead of object {i}");
    }
    assert_eq!(client.qp().breaks(), 0, "ODP strategies never break QPs");
}

#[test]
fn direct_read_detects_relocation_and_scan_read_recovers() {
    let server = server_with(MttUpdateStrategy::OdpPrefetch, CorrectionStrategy::BlockScan);
    let mut client = CormClient::connect_with(server.clone(), FixStrategy::ScanRead);

    // Two blocks of 64-byte-class objects with deliberate offset overlap:
    // fill block A fully, free most of it; same for B; compact.
    let mut objs = populate(&mut client, 128, 48);
    for i in 0..objs.len() {
        // Keep slots 0 and 1 of the first block, slots 0 and 2 of the second
        // (offset conflict at slot 0 forces relocation).
        let keep = matches!(i, 0 | 1 | 64 | 66);
        if !keep {
            let (ref mut ptr, _) = objs[i];
            client.free(ptr).unwrap();
        }
    }
    let report = server
        .compact_class(
            corm_core::consistency::class_for_payload(server.classes(), 48).unwrap(),
            SimTime::ZERO,
        )
        .unwrap()
        .value;
    assert_eq!(report.merges, 1);
    assert!(report.objects_relocated >= 1, "slot-0 conflict must relocate an object");

    // At least one surviving pointer is now indirect: a raw DirectRead
    // reports IdMismatch, and recovery via ScanRead fixes the hint.
    let mut saw_indirect = false;
    for &i in &[0usize, 1, 64, 66] {
        let (ref mut ptr, ref data) = objs[i];
        let mut buf = vec![0u8; data.len()];
        let raw = client.direct_read(ptr, &mut buf, SimTime::from_millis(1)).unwrap();
        if matches!(raw.value, ReadOutcome::Invalid(_)) {
            saw_indirect = true;
            let fixed =
                client.direct_read_with_recovery(ptr, &mut buf, SimTime::from_millis(1)).unwrap();
            assert_eq!(&buf[..fixed.value], &data[..]);
            assert!(ptr.references_old_block(), "corrected ptr flagged");
            // After correction, a raw DirectRead succeeds directly.
            let again = client.direct_read(ptr, &mut buf, SimTime::from_millis(2)).unwrap();
            assert!(matches!(again.value, ReadOutcome::Ok(_)));
        }
    }
    assert!(saw_indirect, "relocation must make some pointer indirect");
}

#[test]
fn rpc_reads_correct_pointers_transparently() {
    for correction in [CorrectionStrategy::ThreadMessaging, CorrectionStrategy::BlockScan] {
        let server = server_with(MttUpdateStrategy::OdpPrefetch, correction);
        let mut client = CormClient::connect(server.clone());
        let mut objs = populate(&mut client, 128, 48);
        for i in 0..objs.len() {
            if !matches!(i, 0 | 1 | 64 | 66) {
                let (ref mut ptr, _) = objs[i];
                client.free(ptr).unwrap();
            }
        }
        server
            .compact_class(
                corm_core::consistency::class_for_payload(server.classes(), 48).unwrap(),
                SimTime::ZERO,
            )
            .unwrap();
        for &i in &[0usize, 1, 64, 66] {
            let (ref mut ptr, ref data) = objs[i];
            let mut buf = vec![0u8; data.len()];
            let n = client.read(ptr, &mut buf).unwrap().value;
            assert_eq!(&buf[..n], &data[..], "strategy {correction:?}");
        }
        // Write through a (possibly corrected) pointer still works.
        let (ref mut ptr, _) = objs[0];
        client.write(ptr, b"rewritten").unwrap();
        let mut buf = [0u8; 9];
        client.read(ptr, &mut buf).unwrap();
        assert_eq!(&buf, b"rewritten");
    }
}

#[test]
fn rereg_strategy_breaks_qp_during_window_and_recovers() {
    let server = server_with(MttUpdateStrategy::Rereg, CorrectionStrategy::BlockScan);
    let mut client = CormClient::connect(server.clone());
    let mut objs = populate(&mut client, 128, 48);
    for i in 2..64 {
        let (ref mut ptr, _) = objs[i];
        client.free(ptr).unwrap();
    }
    for i in 66..128 {
        let (ref mut ptr, _) = objs[i];
        client.free(ptr).unwrap();
    }
    let t0 = SimTime::from_millis(5);
    let report = server
        .compact_class(corm_core::consistency::class_for_payload(server.classes(), 48).unwrap(), t0)
        .unwrap();
    assert_eq!(report.value.merges, 1);

    // A DirectRead inside the rereg window breaks the QP...
    let (ptr, data) = objs[0].clone();
    let mut buf = vec![0u8; data.len()];
    let during = client.direct_read(&ptr, &mut buf, t0);
    // The read targets the *source* block only if object 0's block was the
    // source; either way, reading both survivors inside the window must
    // break at least one QP access or succeed against the dest block.
    let mut broke = during.is_err();
    if !broke {
        let (ptr2, data2) = objs[64].clone();
        let mut buf2 = vec![0u8; data2.len()];
        broke = client.direct_read(&ptr2, &mut buf2, t0).is_err();
    }
    assert!(broke, "rereg window must break a one-sided access");
    assert_eq!(client.qp().state(), corm_sim_rdma::QpState::Error);

    // Reconnect (costs milliseconds) and read well after the window.
    let recovery = client.qp().reconnect();
    assert!(recovery.as_secs_f64() >= 0.001);
    let late = t0 + corm_sim_core::time::SimDuration::from_millis(50);
    let mut ptr0 = objs[0].0;
    let n = client.direct_read_with_recovery(&mut ptr0, &mut buf, late).unwrap().value;
    assert_eq!(&buf[..n], &objs[0].1[..]);
}

#[test]
fn vaddr_released_after_all_homed_objects_freed() {
    let server = server_with(MttUpdateStrategy::OdpPrefetch, CorrectionStrategy::BlockScan);
    let mut client = CormClient::connect(server.clone());
    let mut objs = populate(&mut client, 128, 48);
    // Fragment and compact so one block becomes an alias.
    for i in 2..64 {
        let (ref mut ptr, _) = objs[i];
        client.free(ptr).unwrap();
    }
    for i in 66..128 {
        let (ref mut ptr, _) = objs[i];
        client.free(ptr).unwrap();
    }
    server
        .compact_class(
            corm_core::consistency::class_for_payload(server.classes(), 48).unwrap(),
            SimTime::ZERO,
        )
        .unwrap();
    let released_before = server.stats.vaddrs_released.load(std::sync::atomic::Ordering::Relaxed);

    // Free the survivors homed in the alias block: its vaddr is released.
    for &i in &[0usize, 1, 64, 65] {
        let (ref mut ptr, _) = objs[i];
        client.free(ptr).unwrap();
    }
    let released_after = server.stats.vaddrs_released.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        released_after > released_before,
        "alias vaddr must be released once its homed objects are gone"
    );
}

#[test]
fn release_ptr_rehomes_and_returns_fresh_pointer() {
    let server = server_with(MttUpdateStrategy::OdpPrefetch, CorrectionStrategy::BlockScan);
    let mut client = CormClient::connect(server.clone());
    let mut objs = populate(&mut client, 128, 48);
    for i in 0..objs.len() {
        if !matches!(i, 0 | 1 | 64 | 66) {
            let (ref mut ptr, _) = objs[i];
            client.free(ptr).unwrap();
        }
    }
    server
        .compact_class(
            corm_core::consistency::class_for_payload(server.classes(), 48).unwrap(),
            SimTime::ZERO,
        )
        .unwrap();
    let alias_count_before =
        server.stats.vaddrs_released.load(std::sync::atomic::Ordering::Relaxed);

    // Release every survivor's old pointer: each gets re-homed at its
    // current block, and the old block's vaddr becomes reusable.
    for &i in &[0usize, 1, 64, 66] {
        let (ref mut ptr, ref data) = objs[i];
        let fresh = client.release_ptr(ptr).unwrap().value;
        assert!(!fresh.references_old_block());
        // The fresh pointer reads directly.
        let mut buf = vec![0u8; data.len()];
        let mut fresh_mut = fresh;
        let n = client
            .direct_read_with_recovery(&mut fresh_mut, &mut buf, SimTime::from_millis(1))
            .unwrap()
            .value;
        assert_eq!(&buf[..n], &data[..]);
    }
    let released = server.stats.vaddrs_released.load(std::sync::atomic::Ordering::Relaxed);
    assert!(released > alias_count_before, "old vaddr released via ReleasePtr");
}

#[test]
fn free_of_stale_pointer_after_release_fails_cleanly() {
    let server = server_with(MttUpdateStrategy::OdpPrefetch, CorrectionStrategy::BlockScan);
    let mut client = CormClient::connect(server.clone());
    let mut ptr = client.alloc(16).unwrap().value;
    client.free(&mut ptr).unwrap();
    // Double free: either the object is gone or the whole block was
    // recycled.
    let err = client.free(&mut ptr).unwrap_err();
    assert!(matches!(err, CormError::ObjectNotFound | CormError::UnknownBlock(_)), "got {err:?}");
}

#[test]
fn aliases_share_frames_and_mtt_agrees_with_page_table() {
    // DESIGN.md §5: after compaction, source and destination vaddrs
    // translate to the same physical frame, and the NIC's MTT agrees with
    // the page table once the update strategy completes.
    for mtt in [MttUpdateStrategy::Rereg, MttUpdateStrategy::OdpPrefetch] {
        let server = server_with(mtt, CorrectionStrategy::BlockScan);
        let mut client = CormClient::connect(server.clone());
        let mut objs = populate(&mut client, 128, 48);
        for i in 0..objs.len() {
            if !matches!(i, 0 | 64) {
                let (ref mut ptr, _) = objs[i];
                client.free(ptr).unwrap();
            }
        }
        let block_bytes = server.block_bytes();
        let src_base_a = objs[0].0.block_base(block_bytes);
        let src_base_b = objs[64].0.block_base(block_bytes);
        server
            .compact_class(
                corm_core::consistency::class_for_payload(server.classes(), 48).unwrap(),
                SimTime::ZERO,
            )
            .unwrap();
        let aspace = server.aspace();
        let ta = aspace.translate(src_base_a).unwrap();
        let tb = aspace.translate(src_base_b).unwrap();
        assert_eq!(ta.frame, tb.frame, "{mtt:?}: vaddrs must alias one frame");
        // The NIC's MTT resolves both bases to the same frame as the OS.
        let rnic = server.rnic();
        assert_eq!(rnic.mtt_lookup(src_base_a), Some(ta.frame), "{mtt:?}");
        assert_eq!(rnic.mtt_lookup(src_base_b), Some(tb.frame), "{mtt:?}");
    }
}
