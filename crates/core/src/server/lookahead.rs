//! The closed loop's lookahead (DESIGN §12): a ring of the requests a
//! caller knows are coming, each walked one dependent line of the chain
//! [`CormServer::read`] and [`CormServer::write`] will walk further per
//! call, so that their misses overlap instead of queueing in the handler.
//! The walk is inert: it never waits for a block's lock (a held one ends
//! it), counts nothing, feeds no heat, fetches no far frame, corrects no
//! pointer and charges no virtual time. The ring keeps keys and frame
//! numbers, never a handle or a guard: a block or frame freed, merged away
//! or reused after its step wastes a hint and nothing else.

use corm_alloc::Block;
use corm_sim_mem::{FrameId, PAGE_SIZE};

use super::CormServer;
use crate::ptr::GlobalPtr;

/// Depth of the ring: an op takes one step per call, so it is through all
/// of them by the time this many ops have followed it in.
const RING: usize = 6;

/// The step an op in the ring is due next, in the handlers' order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Due {
    /// Nothing: the caller's hint of the pointer is landing.
    Pointer,
    /// The directory entry of the pointer's base and every line of its block.
    Directory,
    /// The block's `slot_id` entry for the slot and the frame of its page.
    Slot,
    /// Nothing hinted: reads where the slot's first and last byte lie.
    Frames,
    /// The frame-table entries of those two bytes, `(frame, offset)` each.
    Entries([(FrameId, usize); 2]),
    /// The lines of those two bytes.
    Payload([(FrameId, usize); 2]),
    #[default]
    Done,
}

/// The last `RING` pushed ops, each as its key and the step it is due.
#[derive(Default)]
pub struct Lookahead {
    ring: [(u64, Due); RING],
    pushed: usize,
}

impl Lookahead {
    /// Enters the op on `key`, an index into the pointers [`Self::advance`]
    /// is given, in place of the oldest. The caller hints the pointer.
    pub fn push(&mut self, key: u64) {
        self.ring[self.pushed % RING] = (key, Due::Pointer);
        self.pushed += 1;
    }

    /// Takes every op in the ring one step further: a step's lines are
    /// named by the lines of the one before, which it finds loaded a call
    /// ago. The DMA steps share one frame-table session, opened after the
    /// walks have let go of every directory and block lock (DESIGN §8).
    pub fn advance(&mut self, server: &CormServer, ptrs: &[GlobalPtr]) {
        // Which ops were due a DMA step before this call: a walk below can
        // make more, whose entries are due only on the next one.
        let mut dma_due = [false; RING];
        for ((key, due), dma) in self.ring.iter_mut().zip(&mut dma_due) {
            match *due {
                Due::Pointer => *due = Due::Directory,
                Due::Directory => {
                    server.registry.hint(ptrs[*key as usize].block_base(server.block_bytes()));
                    *due = Due::Slot;
                }
                Due::Slot => {
                    server.try_slot(&ptrs[*key as usize], |b, slot| b.hint_slot(slot));
                    *due = Due::Frames;
                }
                Due::Frames => {
                    let bytes = server.try_slot(&ptrs[*key as usize], |b, slot| {
                        let first = b.slot_offset(slot);
                        let at = |o: usize| Some((*b.frames().get(o / PAGE_SIZE)?, o % PAGE_SIZE));
                        Some([at(first)?, at(first + b.obj_size() - 1)?])
                    });
                    *due = bytes.flatten().map_or(Due::Done, Due::Entries);
                }
                Due::Entries(_) | Due::Payload(_) => *dma = true,
                Due::Done => {}
            }
        }
        if !dma_due.contains(&true) {
            return;
        }
        let dma = server.phys().dma();
        for ((_, due), _) in self.ring.iter_mut().zip(dma_due).filter(|(_, dma)| *dma) {
            match *due {
                Due::Entries(bytes) => {
                    for (frame, _) in bytes {
                        dma.prefetch_entry(frame);
                    }
                    *due = Due::Payload(bytes);
                }
                Due::Payload(bytes) => {
                    for (frame, offset) in bytes {
                        dma.prefetch(frame, offset);
                    }
                    *due = Due::Done;
                }
                _ => {}
            }
        }
    }
}

impl CormServer {
    /// `f` on the block `ptr` resolves to, locked, and the pointer's slot;
    /// `None`, without waiting, where the lock is held or the pointer leads
    /// nowhere. It re-walks the earlier steps' lines, cached by then.
    fn try_slot<R>(&self, ptr: &GlobalPtr, f: impl FnOnce(&Block, u32) -> R) -> Option<R> {
        let block_bytes = self.block_bytes();
        // Not `self.resolve`: that one counts `Stage::RegistryResolve`.
        let block = self.registry.resolve(ptr.block_base(block_bytes))?;
        let b = block.try_lock()?;
        Some(f(&b, b.slot_of_offset(ptr.block_offset(block_bytes))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::class_for_payload;
    use crate::server::ServerConfig;
    use corm_sim_core::time::SimTime;
    use corm_sim_mem::TierConfig;
    use std::sync::mpsc;

    /// What the ring carries into its DMA steps for each of `ptrs`, pushed
    /// one per advance as the closed loop pushes them.
    fn carried(server: &CormServer, ptrs: &[GlobalPtr]) -> Vec<Option<[(FrameId, usize); 2]>> {
        let mut ahead = Lookahead::default();
        let mut carried = vec![None; ptrs.len()];
        for key in 0..ptrs.len() + RING {
            if key < ptrs.len() {
                ahead.push(key as u64);
            }
            ahead.advance(server, ptrs);
            for &(key, due) in &ahead.ring {
                if let Due::Entries(bytes) = due {
                    carried[key as usize] = Some(bytes);
                }
            }
        }
        carried
    }

    /// The frames and in-page offsets the page table gives the first and
    /// last byte of each of `ptrs`' `size`-byte slots.
    fn mapped(
        server: &CormServer,
        ptrs: &[GlobalPtr],
        size: usize,
    ) -> Vec<Option<[(FrameId, usize); 2]>> {
        let at = |va: u64| {
            let frame = server.aspace().translate(va).expect("mapped").frame;
            (frame, va as usize % PAGE_SIZE)
        };
        ptrs.iter().map(|p| Some([at(p.vaddr), at(p.vaddr + size as u64 - 1)])).collect()
    }

    /// The inertness tests in `tests/lookahead.rs` drive the ring over a
    /// store after frees, a compaction pass and a pin-budget spill, and
    /// cannot see how far each op gets. Here every live pointer, on a fresh
    /// store and on such a one, by the pointer it was allocated with and by
    /// the one a read corrected it to, reaches the DMA steps with the right
    /// frames.
    #[test]
    fn every_live_pointer_reaches_the_dma_steps_before_and_after_a_pass_and_a_spill() {
        const OBJECTS: usize = 4096;
        let server = CormServer::new(ServerConfig {
            tier: Some(TierConfig::cxl()),
            ..ServerConfig::default()
        });
        let class = class_for_payload(server.classes(), 32).expect("a class");
        let size = server.classes().size_of(class);
        let ptrs: Vec<GlobalPtr> =
            (0..OBJECTS).map(|_| server.alloc(0, 32).expect("alloc").value).collect();
        assert_eq!(carried(&server, &ptrs), mapped(&server, &ptrs, size), "fresh store");

        let mut live = Vec::new();
        for (key, mut ptr) in ptrs.iter().copied().enumerate() {
            if key % 4 == 0 {
                live.push(ptr);
            } else {
                server.free(0, &mut ptr).expect("free");
            }
        }
        let report = server.compact_class(class, SimTime::ZERO).expect("compaction").value;
        assert!(report.objects_relocated > 0 && server.alias_count() > 0);
        let mut buf = [0u8; 32];
        let corrected: Vec<GlobalPtr> = live
            .iter()
            .map(|&ptr| {
                let mut ptr = ptr;
                server.read(0, &mut ptr, &mut buf).expect("survivor reads");
                ptr
            })
            .collect();
        assert_ne!(live, corrected, "some survivor's pointer needed correction");
        let (total, _) = server.block_frames();
        assert!(server.set_pin_budget((total as usize / 2).max(1)), "director must exist");
        server.enforce_pin_budget(SimTime::ZERO).expect("enforcement");
        assert!(server.phys().residency_counts().far > 0, "the budget must spill frames");
        for ptrs in [&live, &corrected] {
            assert_eq!(carried(&server, ptrs), mapped(&server, ptrs, size), "after the pass");
        }
    }

    /// A walk that waited for the lock would never return here: the holder
    /// lets go only once every step has.
    #[test]
    fn hint_returns_at_once_while_another_thread_holds_the_block() {
        let server = CormServer::new(ServerConfig::default());
        let ptr = server.alloc(0, 32).expect("alloc").value;
        let ptrs = [ptr];
        let block = server.registry.resolve(ptr.block_base(server.block_bytes())).expect("live");
        let (locked, is_locked) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let mut ahead = Lookahead::default();
        std::thread::scope(|s| {
            let block = &block;
            s.spawn(move || {
                let _held = block.lock();
                locked.send(()).expect("main thread waits");
                released.recv().expect("main thread releases");
            });
            is_locked.recv().expect("holder locks");
            ahead.push(0);
            for step in 0..RING {
                ahead.advance(&server, &ptrs);
                assert!(
                    !matches!(ahead.ring[0].1, Due::Entries(_)),
                    "step {step} past a held lock"
                );
            }
            assert_eq!(ahead.ring[0].1, Due::Done, "a held lock ends the walk");
            assert!(block.try_lock().is_none(), "held throughout");
            release.send(()).expect("holder waits");
        });
        // Free again, the walk gets through to its end and carries the
        // frame of the slot's bytes, both ends, into the DMA steps.
        let (frame, obj_size) = {
            let b = block.lock();
            (b.frames()[0], b.obj_size())
        };
        let first = ptr.block_offset(server.block_bytes());
        assert!(first + obj_size <= PAGE_SIZE, "the first object sits in the first page");
        ahead.push(0);
        let mut carried = Vec::new();
        for _ in 0..RING {
            ahead.advance(&server, &ptrs);
            carried.push(ahead.ring[1].1);
        }
        let bytes = [(frame, first), (frame, first + obj_size - 1)];
        use Due::*;
        assert_eq!(carried, [Directory, Slot, Frames, Entries(bytes), Payload(bytes), Done]);
        assert!(block.try_lock().is_some(), "no step kept the lock");
    }
}
