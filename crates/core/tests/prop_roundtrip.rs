//! Property-based tests of the core codecs and the end-to-end store.

use proptest::prelude::*;

use corm_core::consistency::{self, ReadFailure};
use corm_core::header::{LockState, ObjectHeader};
use corm_core::ptr::GlobalPtr;

fn scatter(header: ObjectHeader, payload: &[u8], slot_bytes: usize) -> Vec<u8> {
    let mut image = Vec::new();
    consistency::scatter_into(header, payload, slot_bytes, &mut image);
    image
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// 128-bit pointer encoding is lossless for any field values.
    #[test]
    fn ptr_codec_roundtrip(
        vaddr in any::<u64>(),
        rkey in any::<u32>(),
        obj_id in any::<u16>(),
        class in any::<u8>(),
        flags in any::<u8>(),
    ) {
        let p = GlobalPtr { vaddr, rkey, obj_id, class, flags };
        prop_assert_eq!(GlobalPtr::decode(p.encode()), p);
        prop_assert_eq!(GlobalPtr::from_bytes(p.to_bytes()), p);
    }

    /// Header encoding is lossless for any in-range values.
    #[test]
    fn header_codec_roundtrip(
        obj_id in any::<u16>(),
        version in any::<u8>(),
        home in 0u32..(1 << 28),
        lock in 0u8..3,
        valid in any::<bool>(),
    ) {
        let mut h = ObjectHeader::new(obj_id, version, home);
        h.lock = match lock {
            0 => LockState::Free,
            1 => LockState::WriteLocked,
            _ => LockState::CompactionLocked,
        };
        h.valid = valid;
        prop_assert_eq!(ObjectHeader::decode(h.encode()), h);
    }

    /// scatter → gather is the identity on payloads for any slot size and
    /// payload that fits.
    #[test]
    fn scatter_gather_identity(
        slot_exp in 4usize..12, // 16 B – 4 KiB slots (8-aligned below)
        payload in prop::collection::vec(any::<u8>(), 0..2048),
        version in any::<u8>(),
        id in any::<u16>(),
    ) {
        let slot = (1usize << slot_exp).max(16);
        let cap = consistency::layout(slot).capacity;
        let payload = &payload[..payload.len().min(cap)];
        let header = ObjectHeader::new(id, version, 1);
        let image = scatter(header, payload, slot);
        prop_assert_eq!(image.len(), slot);
        let mut got = vec![0u8; payload.len()];
        let (h, n) = consistency::gather_into(&image, Some(id), &mut got).unwrap();
        prop_assert_eq!(&got[..n], payload);
        prop_assert_eq!(h.version, version);
    }

    /// Any single-byte corruption of a version byte (or the header's
    /// version) is detected — the read never silently returns mixed data.
    #[test]
    fn torn_cachelines_always_detected(
        line in 1usize..8,
        delta in 1u8..=255,
    ) {
        let slot = 512; // 8 cachelines
        let cap = consistency::layout(slot).capacity;
        let payload = vec![0x44u8; cap];
        let header = ObjectHeader::new(9, 100, 1);
        let mut image = scatter(header, &payload, slot);
        image[line * 64] = image[line * 64].wrapping_add(delta);
        prop_assert_eq!(
            consistency::gather_into(&image, Some(9), &mut vec![0u8; cap]),
            Err(ReadFailure::TornRead)
        );
    }

    /// Pointer offset correction stays within the block and round-trips
    /// the block base.
    #[test]
    fn correction_preserves_block(
        base_blocks in 0u64..1_000_000,
        off in 0usize..4096,
        new_off in 0usize..4096,
    ) {
        let block_bytes = 4096usize;
        let vaddr = 0x0000_1000_0000_0000u64
            + base_blocks * block_bytes as u64
            + off as u64;
        let mut p = GlobalPtr { vaddr, rkey: 1, obj_id: 2, class: 3, flags: 0 };
        let base = p.block_base(block_bytes);
        p.correct_offset(block_bytes, new_off);
        prop_assert_eq!(p.block_base(block_bytes), base);
        prop_assert_eq!(p.block_offset(block_bytes), new_off);
        prop_assert!(p.references_old_block());
    }
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

    fn arb_action() -> impl Strategy<Value = Action> {
        prop_oneof![
            3 => (8usize..300).prop_map(|size| Action::Alloc { size }),
            2 => any::<usize>().prop_map(|pick| Action::Free { pick }),
            2 => (any::<usize>(), any::<u8>())
                .prop_map(|(pick, byte)| Action::Write { pick, byte }),
            2 => any::<usize>().prop_map(|pick| Action::ReadCheck { pick }),
            1 => Just(Action::Compact),
        ]
    }

    /// Runs `actions` against a fresh two-worker server, checking every
    /// read against the latest bytes written, then reads every live
    /// object back via RPC and via RDMA.
    fn check_actions(actions: Vec<Action>) -> Result<(), TestCaseError> {
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
                    prop_assert_eq!(&buf[..n], &expect[..]);
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
            prop_assert_eq!(&buf[..n], &expect[..]);
            let mut p2 = *ptr;
            let n2 = client.direct_read_with_recovery(&mut p2, &mut buf, now).unwrap().value;
            prop_assert_eq!(&buf[..n2], &expect[..]);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn live_objects_always_recoverable(actions in prop::collection::vec(arb_action(), 1..120)) {
            check_actions(actions)?;
        }
    }

    /// The case real proptest once shrank a failure to: two frees after a
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
