//! Property-based tests of the core codecs and the end-to-end store.

use corm_check::{check, ensure, ensure_eq, Gen};

use corm_core::consistency::{self, ReadFailure};
use corm_core::header::{LockState, ObjectHeader};
use corm_core::ptr::GlobalPtr;

fn scatter(header: ObjectHeader, payload: &[u8], slot_bytes: usize) -> Vec<u8> {
    let mut image = Vec::new();
    consistency::scatter_into(header, payload, slot_bytes, &mut image);
    image
}

/// 128-bit pointer encoding is lossless for any field values.
#[test]
fn ptr_codec_roundtrip() {
    check(128, |g| {
        let p = GlobalPtr {
            vaddr: g.range(0..=u64::MAX),
            rkey: g.range(0..=u32::MAX),
            obj_id: g.range(0..=u16::MAX),
            class: g.range(0..=u8::MAX),
            flags: g.range(0..=u8::MAX),
        };
        ensure_eq!(GlobalPtr::decode(p.encode()), p);
        ensure_eq!(GlobalPtr::from_bytes(p.to_bytes()), p);
        Ok(())
    });
}

/// Header encoding is lossless for any in-range values.
#[test]
fn header_codec_roundtrip() {
    check(128, |g| {
        let (obj_id, version) = (g.range(0..=u16::MAX), g.range(0..=u8::MAX));
        let mut h = ObjectHeader::new(obj_id, version, g.range(0u32..(1 << 28)));
        h.lock = match g.range(0u8..3) {
            0 => LockState::Free,
            1 => LockState::WriteLocked,
            _ => LockState::CompactionLocked,
        };
        h.valid = g.bool();
        ensure_eq!(ObjectHeader::decode(h.encode()), h);
        Ok(())
    });
}

/// scatter → gather is the identity on payloads for any slot size and
/// payload that fits.
#[test]
fn scatter_gather_identity() {
    check(128, |g| {
        let slot_exp = g.range(4usize..12); // 16 B – 4 KiB slots (8-aligned below)
        let payload = g.vec(0..2048, |g| g.range(0..=u8::MAX));
        let (version, id) = (g.range(0..=u8::MAX), g.range(0..=u16::MAX));
        let slot = (1usize << slot_exp).max(16);
        let cap = consistency::layout(slot).capacity;
        let payload = &payload[..payload.len().min(cap)];
        let header = ObjectHeader::new(id, version, 1);
        let image = scatter(header, payload, slot);
        ensure_eq!(image.len(), slot);
        let mut got = vec![0u8; payload.len()];
        let (h, n) = consistency::gather_into(&image, Some(id), &mut got).unwrap();
        ensure_eq!(&got[..n], payload);
        ensure_eq!(h.version, version);
        Ok(())
    });
}

/// Any single-byte corruption of a version byte (or the header's
/// version) is detected — the read never silently returns mixed data.
#[test]
fn torn_cachelines_always_detected() {
    check(128, |g| {
        let (line, delta) = (g.range(1usize..8), g.range(1u8..=255));
        let slot = 512; // 8 cachelines
        let cap = consistency::layout(slot).capacity;
        let payload = vec![0x44u8; cap];
        let header = ObjectHeader::new(9, 100, 1);
        let mut image = scatter(header, &payload, slot);
        image[line * 64] = image[line * 64].wrapping_add(delta);
        ensure_eq!(
            consistency::gather_into(&image, Some(9), &mut vec![0u8; cap]),
            Err(ReadFailure::TornRead)
        );
        Ok(())
    });
}

/// Pointer offset correction stays within the block and round-trips
/// the block base.
#[test]
fn correction_preserves_block() {
    check(128, |g| {
        let base_blocks = g.range(0u64..1_000_000);
        let (off, new_off) = (g.range(0usize..4096), g.range(0usize..4096));
        let block_bytes = 4096usize;
        let vaddr = 0x0000_1000_0000_0000u64 + base_blocks * block_bytes as u64 + off as u64;
        let mut p = GlobalPtr { vaddr, rkey: 1, obj_id: 2, class: 3, flags: 0 };
        let base = p.block_base(block_bytes);
        p.correct_offset(block_bytes, new_off);
        ensure_eq!(p.block_base(block_bytes), base);
        ensure_eq!(p.block_offset(block_bytes), new_off);
        ensure!(p.references_old_block());
        Ok(())
    });
}

mod store_model {
    use super::*;
    use corm_core::client::CormClient;
    use corm_core::server::{CormServer, ServerConfig};
    use corm_sim_core::time::SimTime;
    use std::sync::Arc;

    /// Random alloc/free/write/compact sequences: a model-based test that
    /// every live object remains recoverable with its latest contents —
    /// the paper's core guarantee.
    #[derive(Debug, Clone)]
    enum Action {
        Alloc { size: usize },
        Free { pick: usize },
        Write { pick: usize, byte: u8 },
        ReadCheck { pick: usize },
        Compact,
    }

    fn arb_action(g: &mut Gen) -> Action {
        match g.weighted(&[3, 2, 2, 2, 1]) {
            0 => Action::Alloc { size: g.range(8usize..300) },
            1 => Action::Free { pick: g.range(0..=usize::MAX) },
            2 => Action::Write { pick: g.range(0..=usize::MAX), byte: g.range(0..=u8::MAX) },
            3 => Action::ReadCheck { pick: g.range(0..=usize::MAX) },
            _ => Action::Compact,
        }
    }

    /// Runs `actions` against a fresh two-worker server, checking every
    /// read against the latest bytes written, then reads every live
    /// object back via RPC and via RDMA.
    fn check_actions(actions: Vec<Action>) -> Result<(), String> {
        let server =
            Arc::new(CormServer::new(ServerConfig { workers: 2, ..ServerConfig::default() }));
        let mut client = CormClient::connect(server.clone());
        let mut live: Vec<(corm_core::GlobalPtr, Vec<u8>)> = Vec::new();
        let mut now = SimTime::ZERO;

        for action in actions {
            match action {
                Action::Alloc { size } => {
                    let mut ptr = client.alloc(size).unwrap().value;
                    let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
                    client.write(&mut ptr, &data).unwrap();
                    live.push((ptr, data));
                }
                Action::Free { pick } if !live.is_empty() => {
                    let (mut ptr, _) = live.swap_remove(pick % live.len());
                    client.free(&mut ptr).unwrap();
                }
                Action::Write { pick, byte } if !live.is_empty() => {
                    let idx = pick % live.len();
                    let len = live[idx].1.len();
                    let data = vec![byte; len];
                    client.write(&mut live[idx].0, &data).unwrap();
                    live[idx].1 = data;
                }
                Action::ReadCheck { pick } if !live.is_empty() => {
                    let idx = pick % live.len();
                    let expect = live[idx].1.clone();
                    let mut buf = vec![0u8; expect.len()];
                    let n = client
                        .direct_read_with_recovery(&mut live[idx].0, &mut buf, now)
                        .unwrap()
                        .value;
                    ensure_eq!(&buf[..n], &expect[..]);
                }
                Action::Compact => {
                    let reports = server.compact_if_fragmented(now).unwrap();
                    for r in &reports {
                        now += r.total_cost();
                    }
                    now += corm_sim_core::time::SimDuration::from_millis(1);
                }
                _ => {}
            }
        }
        // Final sweep: every live object recoverable via RPC *and* RDMA.
        for (ptr, expect) in &live {
            let mut p = *ptr;
            let mut buf = vec![0u8; expect.len()];
            let n = client.read(&mut p, &mut buf).unwrap().value;
            ensure_eq!(&buf[..n], &expect[..]);
            let mut p2 = *ptr;
            let n2 = client.direct_read_with_recovery(&mut p2, &mut buf, now).unwrap().value;
            ensure_eq!(&buf[..n2], &expect[..]);
        }
        Ok(())
    }

    #[test]
    fn live_objects_always_recoverable() {
        check(24, |g| check_actions(g.vec(1..120, arb_action)));
    }

    /// The case a shrinker once reduced a failure to: two frees after a
    /// compaction, then a recovery read of a survivor.
    #[test]
    fn recorded_case_frees_after_compaction_then_reads() {
        use Action::*;
        let actions = vec![
            Alloc { size: 8 },
            Alloc { size: 177 },
            Write { pick: 8312816757527036457, byte: 209 },
            Free { pick: 9636221048100202093 },
            Alloc { size: 97 },
            Free { pick: 6097808193488304063 },
            Alloc { size: 288 },
            Alloc { size: 177 },
            Alloc { size: 53 },
            Alloc { size: 98 },
            Free { pick: 275638545270586565 },
            Write { pick: 18401664357791139864, byte: 152 },
            Alloc { size: 227 },
            Free { pick: 14286289601205731485 },
            Free { pick: 14812121599893524178 },
            Free { pick: 2519663095915398008 },
            Alloc { size: 220 },
            Alloc { size: 201 },
            Alloc { size: 180 },
            Free { pick: 7265413437649010524 },
            Compact,
            Free { pick: 13376633823957880649 },
            Free { pick: 7633166062949578607 },
            Free { pick: 8981618003801982203 },
            ReadCheck { pick: 11066302010622354872 },
        ];
        if let Err(e) = check_actions(actions) {
            panic!("{e}");
        }
    }
}
