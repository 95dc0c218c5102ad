//! Error-path coverage for every server handler and client operation.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use corm_alloc::ClassId;
use corm_core::client::CormClient;
use corm_core::header::LockState;
use corm_core::server::{CormError, CormServer, ServerConfig};
use corm_core::{GlobalPtr, ObjectHeader};
use corm_sim_core::time::SimTime;

fn server() -> Arc<CormServer> {
    Arc::new(CormServer::new(ServerConfig { workers: 2, ..ServerConfig::default() }))
}

#[test]
fn payload_too_large_rejected_on_alloc_and_write() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let err = client.alloc(1 << 20).unwrap_err();
    assert!(matches!(err, CormError::PayloadTooLarge(_)), "{err:?}");
    // A write larger than the object's class capacity is rejected too.
    let mut ptr = client.alloc(16).unwrap().value;
    let big = vec![0u8; 4096];
    let err = client.write(&mut ptr, &big).unwrap_err();
    assert!(matches!(err, CormError::PayloadTooLarge(_)), "{err:?}");
    // The object is untouched by the failed write.
    client.write(&mut ptr, b"ok").unwrap();
    let mut buf = [0u8; 2];
    client.read(&mut ptr, &mut buf).unwrap();
    assert_eq!(&buf, b"ok");
}

#[test]
fn unknown_block_for_never_allocated_address() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    // Allocate once so the mmap arena exists, then forge a pointer far
    // beyond it.
    let real = client.alloc(16).unwrap().value;
    let mut forged = GlobalPtr { vaddr: real.vaddr + (1 << 30), ..real };
    let mut buf = [0u8; 8];
    let err = client.read(&mut forged, &mut buf).unwrap_err();
    assert!(matches!(err, CormError::UnknownBlock(_)), "{err:?}");
    let err = client.free(&mut forged).unwrap_err();
    assert!(matches!(err, CormError::UnknownBlock(_)), "{err:?}");
}

#[test]
fn bad_pointer_for_misaligned_offset() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let real = client.alloc(48).unwrap().value; // 64-byte class
    let mut misaligned = GlobalPtr { vaddr: real.vaddr + 3, ..real };
    let mut buf = [0u8; 8];
    let err = client.read(&mut misaligned, &mut buf).unwrap_err();
    assert!(matches!(err, CormError::BadPointer), "{err:?}");
}

#[test]
fn wrong_id_on_live_slot_reports_not_found() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let real = client.alloc(48).unwrap().value;
    // Same slot, fabricated ID that exists nowhere in the block.
    let mut wrong = GlobalPtr { obj_id: real.obj_id.wrapping_add(1), ..real };
    let mut buf = [0u8; 8];
    let err = client.read(&mut wrong, &mut buf).unwrap_err();
    assert!(matches!(err, CormError::ObjectNotFound), "{err:?}");
    // DirectRead with recovery also lands on ObjectNotFound, not a hang.
    let err = client.direct_read_with_recovery(&mut wrong, &mut buf, SimTime::ZERO).unwrap_err();
    assert!(matches!(err, CormError::ObjectNotFound), "{err:?}");
}

#[test]
fn release_ptr_of_direct_pointer_is_noop_cheap_and_safe() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let mut ptr = client.alloc(48).unwrap().value;
    client.write(&mut ptr, b"stable").unwrap();
    let released_before = server.stats.vaddrs_released.load(std::sync::atomic::Ordering::Relaxed);
    let fresh = client.release_ptr(&mut ptr).unwrap().value;
    // Same block: nothing to re-home, no vaddr released.
    assert_eq!(fresh.vaddr, ptr.vaddr);
    assert_eq!(
        server.stats.vaddrs_released.load(std::sync::atomic::Ordering::Relaxed),
        released_before
    );
    let mut buf = [0u8; 6];
    client.read(&mut ptr, &mut buf).unwrap();
    assert_eq!(&buf, b"stable");
}

#[test]
fn zero_length_reads_and_writes_are_fine() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let mut ptr = client.alloc(16).unwrap().value;
    client.write(&mut ptr, b"").unwrap();
    let mut empty: [u8; 0] = [];
    assert_eq!(client.read(&mut ptr, &mut empty).unwrap().value, 0);
    let n = client.direct_read_with_recovery(&mut ptr, &mut empty, SimTime::ZERO).unwrap().value;
    assert_eq!(n, 0);
}

#[test]
fn compacting_an_untouched_class_is_a_cheap_noop() {
    let server = server();
    let report = server.compact_class(corm_alloc::ClassId(0), SimTime::ZERO).unwrap().value;
    assert_eq!(report.collected, 0);
    assert_eq!(report.merges, 0);
}

#[test]
fn reads_larger_than_object_capacity_are_truncated() {
    let server = server();
    let mut client = CormClient::connect(server.clone());
    let mut ptr = client.alloc(16).unwrap().value; // 24-byte class
    client.write(&mut ptr, b"0123456789").unwrap();
    let mut buf = [0xFFu8; 64];
    let n = client.read(&mut ptr, &mut buf).unwrap().value;
    assert!(n < 64, "read must be capped at the class capacity");
    assert_eq!(&buf[..10], b"0123456789");
}

/// Every RPC handler backs off from a slot the compaction leader holds and,
/// once its attempts are spent, gives up with `ObjectLocked` and leaves the
/// object as it found it; the same call goes through once the slot is free.
#[test]
fn handlers_give_up_on_a_compaction_locked_slot_and_leave_it_untouched() {
    for handler in ["read", "write", "free", "release_ptr"] {
        let server = server();
        // One object in worker 0's block, two in worker 1's: the pass
        // merges the sparser block into the other, so the lone object
        // moves and its old base stays an alias that homes it alone — a
        // home count dropping to 0 would release the alias.
        let mut ptr = server.alloc(0, 48).unwrap().value;
        server.write(0, &mut ptr, b"payload").unwrap();
        for _ in 0..2 {
            server.alloc(1, 48).unwrap();
        }
        let class = ClassId(u16::from(ptr.class));
        assert_eq!(server.compact_class(class, SimTime::ZERO).unwrap().value.merges, 1);
        assert_eq!(server.alias_count(), 1);
        // The object's slot now, reached through the alias.
        let mut moved = ptr;
        server.read(0, &mut moved, &mut []).unwrap();
        let image = || {
            let mut image = vec![0u8; server.classes().size_of(class)];
            server.aspace().read(moved.vaddr, &mut image).unwrap();
            image
        };
        let live = || server.fragmentation_report().classes.iter().map(|c| c.live).sum::<usize>();
        let (before, live_before) = (image(), live());
        let header = ObjectHeader::from_bytes(before[..8].try_into().unwrap());
        let locked = header.with_lock(LockState::CompactionLocked).to_bytes();
        server.aspace().write(moved.vaddr, &locked).unwrap();

        let call = |mut ptr: GlobalPtr| match handler {
            "read" => server.read(0, &mut ptr, &mut [0u8; 8]).map(drop),
            "write" => server.write(0, &mut ptr, b"lost").map(drop),
            "free" => server.free(0, &mut ptr).map(drop),
            _ => server.release_ptr(0, &mut ptr).map(drop),
        };
        let retries = server.stats.rpc_lock_retries.load(Ordering::Relaxed);
        assert_eq!(call(ptr), Err(CormError::ObjectLocked), "{handler}");
        let retried = server.stats.rpc_lock_retries.load(Ordering::Relaxed) - retries;
        assert_eq!(retried, 100_000, "{handler}: one back-off per attempt");
        assert_eq!(image()[8..], before[8..], "{handler}: the bytes past the header");
        server.aspace().write(moved.vaddr, &before[..8]).unwrap();
        assert_eq!(server.alias_count(), 1, "{handler}: the alias still homes the object");
        assert_eq!(live(), live_before, "{handler}");

        call(ptr).unwrap_or_else(|e| panic!("{handler} after the restore: {e:?}"));
        // What the alias's home count does on success, which the failed
        // call did not do.
        let rehomed = matches!(handler, "free" | "release_ptr");
        assert_eq!(server.alias_count(), usize::from(!rehomed), "{handler}");
    }
}
