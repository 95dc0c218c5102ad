//! Alias-chain remap coverage: a destination that accumulated alias
//! vaddrs in one compaction pass is itself merged away in a later pass, so
//! the whole chain must be re-pointed at the new destination and re-synced
//! into the MTT — under every §3.5 strategy, one verb per remap target,
//! without breaking a single pointer clients still hold.
//!
//! The chain is built in two passes: pass 1 funnels `slots` one-object
//! blocks into a single destination, which ends up exactly full and
//! carrying the source vaddrs as aliases. Fresh anchor allocations then
//! open a new (more utilized) block while the survivor is thinned, so
//! pass 2's greedy pairing merges the alias-carrying survivor away —
//! every surviving alias is an extra remap target.

use std::sync::Arc;

use corm_core::client::CormClient;
use corm_core::server::{CompactionReport, CormServer, ServerConfig};
use corm_core::{GlobalPtr, Timed};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::{FaultConfig, LatencyModel, MttUpdateStrategy, RnicConfig};

const STRATEGIES: [MttUpdateStrategy; 3] =
    [MttUpdateStrategy::Rereg, MttUpdateStrategy::Odp, MttUpdateStrategy::OdpPrefetch];

struct Chain {
    server: Arc<CormServer>,
    client: CormClient,
    /// Original (pre-compaction) pointers of the surviving objects, with
    /// the payload each must still read back through the alias chain.
    kept: Vec<(GlobalPtr, Vec<u8>)>,
    pass1: Timed<CompactionReport>,
    pass2: Timed<CompactionReport>,
}

fn payload_for(i: usize) -> Vec<u8> {
    (0..32).map(|b| (i * 31 + b) as u8).collect()
}

fn build_chain(strategy: MttUpdateStrategy, faults: Option<FaultConfig>) -> Chain {
    let server = Arc::new(CormServer::new(ServerConfig {
        workers: 1,
        mtt_strategy: strategy,
        alloc: corm_alloc::AllocConfig {
            block_bytes: 4096,
            file_bytes: 16 << 20,
            ..Default::default()
        },
        rnic: RnicConfig { model: LatencyModel::connectx5(), faults, ..RnicConfig::default() },
        ..ServerConfig::default()
    }));
    let mut client = CormClient::connect(server.clone());
    let class = corm_core::consistency::class_for_payload(server.classes(), 32).unwrap();
    let slots = server.block_bytes() / server.classes().size_of(class);
    // `slots` blocks of one object each: fill every block, then free the
    // fillers, so freed slots are never refilled.
    let mut firsts: Vec<GlobalPtr> = Vec::new();
    let mut fillers = Vec::new();
    for _ in 0..slots {
        for s in 0..slots {
            let p = client.alloc(32).expect("alloc").value;
            if s == 0 {
                firsts.push(p);
            } else {
                fillers.push(p);
            }
        }
    }
    for (i, p) in firsts.iter().enumerate() {
        let mut scratch = *p;
        client.write(&mut scratch, &payload_for(i)).expect("write payload");
    }
    for p in &mut fillers {
        client.free(p).expect("free filler");
    }
    let pass1 = server.compact_class(class, SimTime::ZERO).expect("pass 1");
    assert_eq!(pass1.value.merges, slots - 1, "pass 1 must funnel into one block");
    // The survivor is exactly full, so the anchors open a new block; it is
    // made more utilized than the thinned survivor so pass 2 merges the
    // alias carrier away. Only interior objects are kept: their home
    // blocks are pass-1 sources under either collection order, so their
    // alias vaddrs stay alive.
    let _anchors: Vec<GlobalPtr> =
        (0..48).map(|_| client.alloc(32).expect("alloc anchor").value).collect();
    let mut kept = Vec::new();
    for (i, p) in firsts.iter_mut().enumerate() {
        if (1..=16).contains(&i) {
            kept.push((*p, payload_for(i)));
        } else {
            client.free(p).expect("free survivor object");
        }
    }
    let pass2 = server.compact_class(class, SimTime::ZERO + pass1.cost).expect("pass 2");
    assert_eq!(pass2.value.merges, 1, "pass 2 merges the alias-carrying survivor away");
    Chain { server, client, kept, pass1, pass2 }
}

#[test]
fn chain_resolves_reads_under_every_strategy() {
    for strategy in STRATEGIES {
        let mut c = build_chain(strategy, None);
        let after = SimTime::ZERO + c.pass1.cost + c.pass2.cost + SimDuration::from_millis(1);
        assert!(
            c.pass2.value.extra_remaps >= 8,
            "pass 2 must remap an alias chain, got {} ({strategy:?})",
            c.pass2.value.extra_remaps
        );
        let mut buf = vec![0u8; 32];
        for (ptr, want) in c.kept.clone() {
            // One-sided read via the original pointer: the alias region
            // (key preserved) now maps the final destination's frames; the
            // fix strategy repairs the stale offset hint.
            let mut p = ptr;
            let t = c
                .client
                .direct_read_with_recovery(&mut p, &mut buf, after)
                .expect("twice-compacted object must stay readable one-sided");
            assert_eq!(&buf[..t.value], &want[..], "payload intact ({strategy:?})");
            // Two-sided read: transparent pointer correction resolves the
            // alias hop in the registry.
            let mut p = ptr;
            let n = c
                .server
                .read(0, &mut p, &mut buf)
                .expect("twice-compacted object must stay readable over RPC")
                .value;
            assert_eq!(&buf[..n], &want[..], "rpc payload intact ({strategy:?})");
        }
    }
}

#[test]
fn each_alias_target_pays_one_remap_and_one_sync() {
    let model = LatencyModel::connectx5();
    for strategy in STRATEGIES {
        let c = build_chain(strategy, None);
        // Pass 1 has no aliases yet: every merge has one target.
        assert_eq!(c.pass1.value.extra_remaps, 0);
        let pass2 = &c.pass2.value;
        let extra = pass2.extra_remaps;
        assert!(extra >= 8, "alias-heavy pass expected, got {extra} extra remaps");
        // Pass 2 is one one-page merge: the base merge covers the primary
        // target, and every alias target adds its own mmap and MTT update.
        let slot = c.server.classes().size_of(pass2.class);
        let copied = pass2.objects_copied;
        let want = model.block_compaction_cost(strategy, 1, copied * slot, copied)
            + (model.mmap_cost(1) + model.mtt_update_cost(strategy, 1)) * extra;
        assert_eq!(
            pass2.compaction_cost, want,
            "base merge + extra_remaps x (mmap + mtt_update) ({strategy:?})"
        );
    }
}

#[test]
fn seeded_fault_replay_is_byte_identical() {
    let faults = FaultConfig {
        seed: 77,
        transient_prob: 0.02,
        delay_prob: 0.02,
        cache_miss_prob: 0.05,
        qp_break_prob: 0.005,
        ..FaultConfig::default()
    };
    let run = || {
        let mut c = build_chain(MttUpdateStrategy::OdpPrefetch, Some(faults.clone()));
        let mut clock = SimTime::ZERO + c.pass1.cost + c.pass2.cost;
        let mut buf = vec![0u8; 32];
        let mut total = SimDuration::ZERO;
        for _round in 0..6 {
            for (ptr, want) in c.kept.clone() {
                let mut p = ptr;
                let t = c
                    .client
                    .direct_read_with_recovery(&mut p, &mut buf, clock)
                    .expect("reads must survive injected faults");
                assert_eq!(&buf[..t.value], &want[..]);
                total += t.cost;
                clock += t.cost;
            }
        }
        (c.server.rnic().fault_log(), total, c.pass1.cost, c.pass2.cost)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "same seed, same fault schedule across the compacted store");
    assert_eq!(a.1, b.1, "recovery costs replay byte for byte");
    assert_eq!((a.2, a.3), (b.2, b.3), "pass costs replay byte for byte");
}
