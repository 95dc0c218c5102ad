//! Differential test of the block directory against a naive reference: one
//! `BTreeMap` from every base in use to the live base it reaches (itself
//! while it is live), its home count and its region key.
//!
//! Random insert / demote / `home_inc` / `home_dec` / `take_unhomed_alias`
//! / `remove_live` sequences run against both, released bases being issued
//! again as a real address space would. After every step the two must
//! agree, for every base ever issued, on the block it resolves to, its
//! alias info and its home count; on `len`, `alias_count` and the number of
//! live blocks; and every demote must return exactly the aliases the
//! reference re-points. That last check, and a final sweep that demotes
//! every live base onto one, is what holds the back-edges to the flat
//! invariant: an alias's block is a live entry's block, and that entry
//! names the alias.
//!
//! A second test races real threads against a chain of demotes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier};

use corm_check::{check, ensure, ensure_eq};
use parking_lot::Mutex;

use corm_alloc::process::SharedBlock;
use corm_alloc::{Block, BlockId, ClassId};
use corm_core::server::registry::BlockRegistry;
use corm_sim_mem::{FileId, FrameId};

fn mk_block(base: u64) -> SharedBlock {
    let frames = vec![FrameId(0)];
    Arc::new(Mutex::new(Block::new(
        BlockId(base),
        ClassId(0),
        16,
        base,
        1,
        FileId(1),
        0,
        frames,
        1 << 16,
        0,
    )))
}

/// What the reference keeps per base in use.
#[derive(Clone, Copy)]
struct RefEntry {
    /// The live base this one reaches: itself, or its alias target.
    reaches: u64,
    homed: u64,
    /// Region key and pages, once demoted.
    region: (u32, usize),
}

#[derive(Default)]
struct Reference(BTreeMap<u64, RefEntry>);

impl Reference {
    fn live(&self) -> Vec<u64> {
        self.0.iter().filter(|(b, e)| e.reaches == **b).map(|(b, _)| *b).collect()
    }

    fn aliases_of(&self, live: u64) -> Vec<u64> {
        self.0.iter().filter(|(b, e)| e.reaches == live && **b != live).map(|(b, _)| *b).collect()
    }

    /// Demotes `src` onto `dst`; returns the aliases that moved with it.
    fn demote(&mut self, src: u64, dst: u64, region: (u32, usize)) -> Vec<u64> {
        let moved = self.aliases_of(src);
        self.0.get_mut(&src).unwrap().region = region;
        self.0.values_mut().filter(|e| e.reaches == src).for_each(|e| e.reaches = dst);
        moved
    }
}

/// The directory and the reference side by side, with every base ever
/// issued and the block last inserted at it.
struct Pair {
    reg: BlockRegistry,
    refr: Reference,
    blocks: BTreeMap<u64, SharedBlock>,
}

impl Pair {
    fn demote(&mut self, src: u64, dst: u64, region: (u32, usize)) -> Result<(), String> {
        let got = self.reg.demote_to_alias(src, dst, region.0, region.1);
        let want = self.refr.demote(src, dst, region);
        let mut got_bases: Vec<u64> = got.iter().map(|r| r.0).collect();
        got_bases.sort_unstable();
        ensure_eq!(got_bases, want);
        for (base, info) in got {
            let region = self.refr.0[&base].region;
            ensure_eq!((info.target, info.rkey, info.pages), (dst, region.0, region.1));
        }
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        let live = self.refr.live().len();
        ensure_eq!(self.reg.len(), self.refr.0.len());
        ensure_eq!(self.reg.is_empty(), self.refr.0.is_empty());
        ensure_eq!(self.reg.alias_count(), self.refr.0.len() - live);
        ensure_eq!(self.reg.live_blocks().len(), live);
        for &base in self.blocks.keys() {
            let want = self.refr.0.get(&base);
            let got = self.reg.resolve(base);
            ensure_eq!(got.is_some(), want.is_some(), "base {:#x}", base);
            ensure_eq!(self.reg.homed(base), want.map_or(0, |e| e.homed));
            let info = self.reg.alias_info(base).map(|i| (i.target, (i.rkey, i.pages)));
            let want_info = want.filter(|e| e.reaches != base).map(|e| (e.reaches, e.region));
            ensure_eq!(info, want_info);
            if let (Some(got), Some(want)) = (got, want) {
                ensure!(Arc::ptr_eq(&got, &self.blocks[&want.reaches]), "base {:#x}", base);
            }
        }
        Ok(())
    }
}

#[test]
fn directory_matches_the_reference() {
    check(64, |g| {
        let ops =
            g.vec(1..300, |g| (g.range(0u8..12), g.range(0..=u16::MAX), g.range(0..=u16::MAX)));
        let mut p =
            Pair { reg: BlockRegistry::new(), refr: Reference::default(), blocks: BTreeMap::new() };
        let pick = |from: &[u64], n: u16| from[n as usize % from.len()];
        for (step, (op, a, b)) in ops.into_iter().enumerate() {
            let in_use: Vec<u64> = p.refr.0.keys().copied().collect();
            let live = p.refr.live();
            match op {
                0..=2 => {
                    // A fresh base, or one released earlier.
                    let released: Vec<u64> =
                        p.blocks.keys().copied().filter(|b| !p.refr.0.contains_key(b)).collect();
                    let base = if a % 3 == 0 && !released.is_empty() {
                        pick(&released, b)
                    } else {
                        (p.blocks.len() as u64 + 1) * 0x1_0000
                    };
                    let block = mk_block(base);
                    p.reg.insert_block(base, block.clone());
                    p.blocks.insert(base, block);
                    p.refr.0.insert(base, RefEntry { reaches: base, homed: 0, region: (0, 0) });
                }
                3 | 4 if live.len() >= 2 => {
                    let src = pick(&live, a);
                    let others: Vec<u64> = live.iter().copied().filter(|&l| l != src).collect();
                    p.demote(src, pick(&others, b), (step as u32 + 1, 1 + a as usize % 4))?;
                }
                5 | 6 if !in_use.is_empty() => {
                    let base = pick(&in_use, a);
                    p.reg.home_inc(base);
                    p.refr.0.get_mut(&base).unwrap().homed += 1;
                }
                7 | 8 => {
                    let homing: Vec<u64> =
                        in_use.iter().copied().filter(|b| p.refr.0[b].homed > 0).collect();
                    if !homing.is_empty() {
                        let base = pick(&homing, a);
                        let entry = p.refr.0.get_mut(&base).unwrap();
                        entry.homed -= 1;
                        ensure_eq!(p.reg.home_dec(base), entry.homed);
                    }
                }
                // Any base ever issued: live, alias, homing or not, gone.
                9 | 10 if !p.blocks.is_empty() => {
                    let issued: Vec<u64> = p.blocks.keys().copied().collect();
                    let base = pick(&issued, a);
                    let want = p
                        .refr
                        .0
                        .get(&base)
                        .filter(|e| e.reaches != base && e.homed == 0)
                        .map(|e| (e.reaches, e.region));
                    let got = p.reg.take_unhomed_alias(base).map(|i| (i.target, (i.rkey, i.pages)));
                    ensure_eq!(got, want);
                    if want.is_some() {
                        p.refr.0.remove(&base);
                    }
                }
                11 => {
                    let removable: Vec<u64> = live
                        .iter()
                        .copied()
                        .filter(|&l| p.refr.0[&l].homed == 0 && p.refr.aliases_of(l).is_empty())
                        .collect();
                    if !removable.is_empty() {
                        let base = pick(&removable, a);
                        p.reg.remove_live(base);
                        p.refr.0.remove(&base);
                    }
                }
                _ => {}
            }
            p.check()?;
        }
        // Every back-edge accounted for: funnel all live bases into one.
        let live = p.refr.live();
        if let Some((&last, rest)) = live.split_last() {
            for &src in rest {
                p.demote(src, last, (u32::MAX, 1))?;
            }
            p.check()?;
            ensure_eq!(p.reg.live_blocks().len(), 1);
        }
        Ok(())
    });
}

/// Resolvers, home counters and alias takers race a chain of demotes on
/// real threads. The chain's first base homes an object throughout, so it
/// must resolve at every instant, to a block further down the chain each
/// time, and in the end to the last hop's. Every other demoted base loses
/// its one homed object at some point: it must then be taken exactly once,
/// and never before — the counter's `home_dec` would find it gone and
/// panic.
#[test]
fn threads_race_a_demote_chain() {
    const HOPS: usize = 24;
    let reg = BlockRegistry::new();
    let hops: Vec<u64> = (1..=HOPS as u64).map(|i| i * 0x1_0000).collect();
    let blocks: Vec<SharedBlock> = hops.iter().map(|&b| mk_block(b)).collect();
    for (&base, block) in hops.iter().zip(&blocks) {
        reg.insert_block(base, block.clone());
        reg.home_inc(base);
    }
    let taken: Vec<AtomicU32> = (0..HOPS).map(|_| AtomicU32::new(0)).collect();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(6);
    let hop_of = |vaddr: u64| hops.iter().position(|&h| h == vaddr).expect("a hop's block");

    std::thread::scope(|s| {
        let resolvers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let mut at = 0;
                    while !stop.load(Ordering::SeqCst) {
                        let block = reg.resolve(hops[0]).expect("first base always resolves");
                        let now = hop_of(block.lock().vaddr());
                        assert!(now >= at, "resolved hop {now} after hop {at}");
                        at = now;
                    }
                })
            })
            .collect();
        let takers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    while !stop.load(Ordering::SeqCst) {
                        for (i, &base) in hops.iter().enumerate() {
                            if reg.take_unhomed_alias(base).is_some() {
                                taken[i].fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                })
            })
            .collect();
        // The home counter: objects come and go at every hop but the
        // first, live or already an alias, and the last one goes for good.
        let counter = s.spawn(|| {
            start.wait();
            for &base in &hops[1..] {
                for _ in 0..8 {
                    reg.home_inc(base);
                    assert!(reg.home_dec(base) >= 1);
                }
                assert_eq!(reg.home_dec(base), 0);
            }
        });
        start.wait();
        for w in hops.windows(2) {
            reg.demote_to_alias(w[0], w[1], w[0] as u32, 1);
            std::thread::yield_now();
        }
        counter.join().expect("home counter");
        stop.store(true, Ordering::SeqCst);
        for t in resolvers.into_iter().chain(takers) {
            t.join().expect("racing thread");
        }
    });

    let last = HOPS - 1;
    assert!(Arc::ptr_eq(&reg.resolve(hops[0]).unwrap(), &blocks[last]));
    assert_eq!(reg.take_unhomed_alias(hops[0]), None, "the first base still homes an object");
    assert_eq!(reg.take_unhomed_alias(hops[last]), None, "the last hop is live");
    for i in 1..last {
        let swept = reg.take_unhomed_alias(hops[i]).is_some() as u32;
        assert_eq!(taken[i].load(Ordering::SeqCst) + swept, 1, "hop {i} taken exactly once");
        assert!(reg.resolve(hops[i]).is_none());
    }
    assert_eq!((reg.len(), reg.alias_count()), (2, 1));
}
