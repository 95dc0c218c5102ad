//! Per-process virtual address space.
//!
//! The page table here is the OS-side source of truth for virtual-to-
//! physical translations. The simulated RNIC keeps its *own* Memory
//! Translation Table that is only synchronized at registration time (or
//! lazily, via ODP) — the divergence between the two after a [`remap`]
//! is precisely the hazard CoRM's §3.5 strategies manage.
//!
//! Per-page epochs increment on every translation change; the RNIC's ODP
//! logic compares epochs to detect stale entries.
//!
//! [`remap`]: AddressSpace::remap

use std::num::NonZeroU64;
use std::ops::{Deref, DerefMut, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::paged::PagedTable;
use crate::phys::{DmaSession, FrameId, MemError, PhysicalMemory, PAGE_SIZE};

/// A window `[va, va + len)` onto a run of contiguous virtual pages whose
/// backing frames the caller already holds: `frames[i]` backs the page at
/// `base_va + i * PAGE_SIZE`. The span borrows that list, so it lives no
/// longer than whatever keeps the list in sync with the page table (a CoRM
/// block's lock, for the block's own frame list).
///
/// Reads and writes through the span cost zero translations; they bounds-
/// check against the window and go straight to physical frames through a
/// caller-held [`DmaSession`].
#[derive(Debug, Clone, Copy)]
pub struct PageSpan<'a> {
    va: u64,
    len: usize,
    base_va: u64,
    frames: &'a [FrameId],
}

impl<'a> PageSpan<'a> {
    /// A span over `[va, va + len)` of the region `frames` backs from
    /// `base_va` on. Returns `None` when the frames do not cover the
    /// window, or `base_va` is not page-aligned.
    #[inline]
    pub fn from_frames(
        va: u64,
        len: usize,
        base_va: u64,
        frames: &'a [FrameId],
    ) -> Option<PageSpan<'a>> {
        if !base_va.is_multiple_of(PAGE_SIZE as u64)
            || va < base_va
            || va + len as u64 > base_va + (frames.len() * PAGE_SIZE) as u64
        {
            return None;
        }
        Some(PageSpan { va, len, base_va, frames })
    }

    /// Walks `[va, va + len)` one page at a time, or fails if it leaves
    /// the span: `f` gets each page's frame, the access's offset in it and
    /// the range of the access that page holds. The one loop that crosses
    /// pages: every multi-page read or write in the workspace goes through
    /// a span.
    #[inline]
    fn walk(
        &self,
        va: u64,
        len: usize,
        mut f: impl FnMut(FrameId, usize, Range<usize>) -> Result<(), MemError>,
    ) -> Result<(), MemError> {
        if va < self.va || va + len as u64 > self.va + self.len as u64 {
            return Err(MemError::Unmapped(va));
        }
        let mut done = 0;
        while done < len {
            let addr = va + done as u64;
            let off = (addr % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(len - done);
            let frame = self.frames[((addr - self.base_va) / PAGE_SIZE as u64) as usize];
            f(frame, off, done..done + n)?;
            done += n;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `va` (which must lie inside the span)
    /// through the held DMA session.
    #[inline]
    pub fn read(&self, dma: &DmaSession<'_>, va: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.walk(va, buf.len(), |frame, off, chunk| dma.read(frame, off, &mut buf[chunk]))
    }

    /// Writes `data` at `va` (which must lie inside the span) through the
    /// held DMA session.
    #[inline]
    pub fn write(&self, dma: &DmaSession<'_>, va: u64, data: &[u8]) -> Result<(), MemError> {
        self.walk(va, data.len(), |frame, off, chunk| dma.write(frame, off, &data[chunk]))
    }
}

/// Frames a [`FrameBuf`] holds without touching the heap.
const INLINE_FRAMES: usize = 8;

/// The frames backing a run of pages, filled by a translation loop and
/// walked by a [`PageSpan`]: on the stack for up to eight pages, on the
/// heap beyond.
pub struct FrameBuf {
    inline: [FrameId; INLINE_FRAMES],
    spill: Vec<FrameId>,
    len: usize,
}

impl FrameBuf {
    /// A buffer of `pages` frames, each `FrameId(0)` until filled.
    #[inline]
    pub fn new(pages: usize) -> FrameBuf {
        let spill = if pages > INLINE_FRAMES { vec![FrameId(0); pages] } else { Vec::new() };
        FrameBuf { inline: [FrameId(0); INLINE_FRAMES], spill, len: pages }
    }
}

impl Deref for FrameBuf {
    type Target = [FrameId];

    #[inline]
    fn deref(&self) -> &[FrameId] {
        if self.len <= INLINE_FRAMES {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl DerefMut for FrameBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [FrameId] {
        if self.len <= INLINE_FRAMES {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

/// A resolved translation of one virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The backing physical frame.
    pub frame: FrameId,
    /// Epoch of this page's mapping; bumped on every remap.
    pub epoch: u64,
}

/// One page-table entry. Epochs start at 1, so a vacant slot of the table
/// is the all-zero entry and four entries share a cache line.
#[derive(Debug, Clone, Copy)]
struct Pte {
    frame: FrameId,
    epoch: NonZeroU64,
}

const _: () = assert!(std::mem::size_of::<Option<Pte>>() == 16);

/// A per-process virtual address space with mmap/munmap/remap.
///
/// Virtual addresses are handed out by a bump allocator starting well above
/// zero; addresses released with [`AddressSpace::munmap`] can be re-bound
/// with [`AddressSpace::mmap_fixed`], which is how CoRM reuses virtual
/// addresses after a `ReleasePtr` (§3.3).
pub struct AddressSpace {
    phys: Arc<PhysicalMemory>,
    /// Indexed by virtual page number.
    table: RwLock<PagedTable<Pte>>,
    next_va: AtomicU64,
    epoch_counter: AtomicU64,
    remaps: AtomicU64,
}

impl std::fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressSpace")
            .field("mapped_pages", &self.mapped_pages())
            .field("remaps", &self.remaps())
            .finish()
    }
}

impl AddressSpace {
    /// Base of the mmap arena. Chosen so the low address space is obviously
    /// invalid, like a real process layout.
    pub const MMAP_BASE: u64 = 0x0000_1000_0000_0000;

    /// Creates an address space over the given physical memory.
    pub fn new(phys: Arc<PhysicalMemory>) -> Self {
        AddressSpace {
            phys,
            table: RwLock::new(PagedTable::default()),
            next_va: AtomicU64::new(Self::MMAP_BASE),
            epoch_counter: AtomicU64::new(1),
            remaps: AtomicU64::new(0),
        }
    }

    /// The physical memory this address space maps.
    pub fn phys(&self) -> &Arc<PhysicalMemory> {
        &self.phys
    }

    fn page_of(va: u64) -> u64 {
        va / PAGE_SIZE as u64
    }

    /// A fresh entry for `frame`, stamped with the next epoch.
    fn next_pte(&self, frame: FrameId) -> Pte {
        let epoch = self.epoch_counter.fetch_add(1, Ordering::Relaxed);
        Pte { frame, epoch: NonZeroU64::new(epoch).expect("the epoch counter starts at 1") }
    }

    /// Maps `frames` at a fresh, page-aligned virtual address (like `mmap`
    /// of a memfd file region). Each frame gains a reference.
    pub fn mmap(&self, frames: &[FrameId]) -> Result<u64, MemError> {
        let len = (frames.len() * PAGE_SIZE) as u64;
        let va = self.next_va.fetch_add(len.max(PAGE_SIZE as u64), Ordering::Relaxed);
        self.mmap_fixed(va, frames)?;
        Ok(va)
    }

    /// Maps `frames` at the given virtual address (like `MAP_FIXED`). Used
    /// to reuse released virtual addresses.
    ///
    /// Lock order: frame references are taken *before* the page-table lock
    /// and dropped *after* it. The frame table must never be acquired under
    /// `table` — the RNIC's DMA sessions hold the frame table while
    /// resolving translations, so the opposite order would deadlock.
    pub fn mmap_fixed(&self, va: u64, frames: &[FrameId]) -> Result<(), MemError> {
        if !va.is_multiple_of(PAGE_SIZE as u64) {
            return Err(MemError::Unaligned(va));
        }
        let base = Self::page_of(va);
        // Pin every frame up front; the extra refs keep them alive while the
        // table is updated and are rolled back if validation fails.
        for (i, &frame) in frames.iter().enumerate() {
            if let Err(e) = self.phys.add_ref(frame) {
                for &f in &frames[..i] {
                    self.phys.release(f);
                }
                return Err(e);
            }
        }
        let mut table = self.table.write();
        for i in 0..frames.len() as u64 {
            if table.get(base + i).is_some() {
                drop(table);
                for &f in frames {
                    self.phys.release(f);
                }
                return Err(MemError::AlreadyMapped(va + i * PAGE_SIZE as u64));
            }
        }
        for (i, &frame) in frames.iter().enumerate() {
            table.insert(base + i as u64, self.next_pte(frame));
        }
        Ok(())
    }

    /// Unmaps `pages` pages starting at `va`, dropping frame references.
    pub fn munmap(&self, va: u64, pages: usize) -> Result<(), MemError> {
        if !va.is_multiple_of(PAGE_SIZE as u64) {
            return Err(MemError::Unaligned(va));
        }
        let base = Self::page_of(va);
        let mut table = self.table.write();
        // Validate first so the operation is atomic.
        for i in 0..pages as u64 {
            if table.get(base + i).is_none() {
                return Err(MemError::Unmapped(va + i * PAGE_SIZE as u64));
            }
        }
        let freed: Vec<FrameId> = (0..pages as u64)
            .map(|i| table.remove(base + i).expect("validated above").frame)
            .collect();
        // Release outside the table lock (see `mmap_fixed` on lock order).
        drop(table);
        for frame in freed {
            self.phys.release(frame);
        }
        Ok(())
    }

    /// Rebinds `pages` pages at `va` to `new_frames`, releasing the old
    /// frames and bumping epochs. This is the compaction step: after it, the
    /// source block's virtual address aliases the destination block's
    /// physical frames, while any RNIC MTT snapshot still points at the old
    /// (now possibly freed) frames until explicitly updated.
    pub fn remap(&self, va: u64, new_frames: &[FrameId]) -> Result<(), MemError> {
        if !va.is_multiple_of(PAGE_SIZE as u64) {
            return Err(MemError::Unaligned(va));
        }
        let base = Self::page_of(va);
        // Pin the destination frames before touching the table, and release
        // the displaced frames only after dropping it (see `mmap_fixed` on
        // lock order).
        for (i, &frame) in new_frames.iter().enumerate() {
            if let Err(e) = self.phys.add_ref(frame) {
                for &f in &new_frames[..i] {
                    self.phys.release(f);
                }
                return Err(e);
            }
        }
        let mut table = self.table.write();
        for i in 0..new_frames.len() as u64 {
            if table.get(base + i).is_none() {
                drop(table);
                for &f in new_frames {
                    self.phys.release(f);
                }
                return Err(MemError::Unmapped(va + i * PAGE_SIZE as u64));
            }
        }
        let mut displaced = Vec::with_capacity(new_frames.len());
        for (i, &frame) in new_frames.iter().enumerate() {
            let pte = table.get_mut(base + i as u64).expect("validated above");
            displaced.push(std::mem::replace(pte, self.next_pte(frame)).frame);
        }
        drop(table);
        for frame in displaced {
            self.phys.release(frame);
        }
        self.remaps.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Resolves the translation of the page containing `va`.
    pub fn translate(&self, va: u64) -> Result<Translation, MemError> {
        let table = self.table.read();
        let pte = table.get(Self::page_of(va)).ok_or(MemError::Unmapped(va))?;
        Ok(Translation { frame: pte.frame, epoch: pte.epoch.get() })
    }

    /// Whether the page containing `va` is mapped.
    pub fn is_mapped(&self, va: u64) -> bool {
        self.table.read().get(Self::page_of(va)).is_some()
    }

    /// CPU read through the MMU; may cross page boundaries.
    ///
    /// The whole range is validated (every page resolved) under a single
    /// page-table lock acquisition before any byte moves, so partial reads
    /// don't happen; the copy then runs against the resolved frames without
    /// re-translating per page.
    #[inline]
    pub fn read(&self, va: u64, buf: &mut [u8]) -> Result<(), MemError> {
        if buf.is_empty() {
            return Ok(());
        }
        let (base, frames) = self.resolve_pages(va, buf.len())?;
        let span = PageSpan::from_frames(va, buf.len(), base, &frames).expect("pages resolved");
        span.read(&self.phys.dma(), va, buf)
    }

    /// CPU write through the MMU; may cross page boundaries.
    ///
    /// Validation mirrors [`AddressSpace::read`]: every page resolves under
    /// one table lock before any byte is stored, so partial writes don't
    /// happen.
    #[inline]
    pub fn write(&self, va: u64, buf: &[u8]) -> Result<(), MemError> {
        if buf.is_empty() {
            return Ok(());
        }
        let (base, frames) = self.resolve_pages(va, buf.len())?;
        let span = PageSpan::from_frames(va, buf.len(), base, &frames).expect("pages resolved");
        span.write(&self.phys.dma(), va, buf)
    }

    /// The frames backing every page of the non-empty `[va, va + len)`,
    /// with the address of the first page, resolved in one page-table lock
    /// acquisition: [`Self::read`] and [`Self::write`] validate the whole
    /// range before any byte moves. The list is a snapshot — a concurrent
    /// [`Self::remap`] of these pages is not observed, like the stale-MTT
    /// hazard the RNIC models.
    #[inline]
    fn resolve_pages(&self, va: u64, len: usize) -> Result<(u64, FrameBuf), MemError> {
        let (first_vpn, last_vpn) = (Self::page_of(va), Self::page_of(va + len as u64 - 1));
        let mut frames = FrameBuf::new((last_vpn - first_vpn + 1) as usize);
        let table = self.table.read();
        for (vpn, frame) in (first_vpn..).zip(frames.iter_mut()) {
            // Report the same address a per-page walk would: the requested
            // va for the first page, the page base after.
            let page_va = if vpn == first_vpn { va } else { vpn * PAGE_SIZE as u64 };
            *frame = table.get(vpn).ok_or(MemError::Unmapped(page_va))?.frame;
        }
        Ok((first_vpn * PAGE_SIZE as u64, frames))
    }

    /// Number of mapped pages.
    fn mapped_pages(&self) -> usize {
        self.table.read().len()
    }

    /// Resident page-table leaves.
    #[cfg(test)]
    fn table_leaves(&self) -> usize {
        self.table.read().leaves()
    }

    /// Number of remap operations performed.
    pub fn remaps(&self) -> u64 {
        self.remaps.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(pages: usize) -> (Arc<PhysicalMemory>, AddressSpace, Vec<FrameId>) {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(pages).unwrap();
        let aspace = AddressSpace::new(pm.clone());
        (pm, aspace, frames)
    }

    #[test]
    fn mmap_translate_read_write() {
        let (_pm, aspace, frames) = setup(2);
        let va = aspace.mmap(&frames).unwrap();
        assert_eq!(va % PAGE_SIZE as u64, 0);
        assert_eq!(aspace.translate(va).unwrap().frame, frames[0]);
        assert_eq!(aspace.translate(va + PAGE_SIZE as u64).unwrap().frame, frames[1]);
        aspace.write(va + 10, b"corm").unwrap();
        let mut buf = [0u8; 4];
        aspace.read(va + 10, &mut buf).unwrap();
        assert_eq!(&buf, b"corm");
    }

    #[test]
    fn cross_page_access() {
        let (_pm, aspace, frames) = setup(2);
        let va = aspace.mmap(&frames).unwrap();
        let data: Vec<u8> = (0..100).collect();
        let addr = va + PAGE_SIZE as u64 - 50;
        aspace.write(addr, &data).unwrap();
        let mut buf = vec![0u8; 100];
        aspace.read(addr, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn munmap_releases_and_rejects_access() {
        let (pm, aspace, frames) = setup(1);
        let va = aspace.mmap(&frames).unwrap();
        assert_eq!(pm.ref_count(frames[0]), 2);
        aspace.munmap(va, 1).unwrap();
        assert_eq!(pm.ref_count(frames[0]), 1);
        assert!(matches!(aspace.translate(va), Err(MemError::Unmapped(_))));
        let mut buf = [0u8; 1];
        assert!(aspace.read(va, &mut buf).is_err());
    }

    #[test]
    fn remap_aliases_two_vaddrs_to_one_frame() {
        // The compaction scenario: block1's vaddr gets remapped onto
        // block2's frame; both vaddrs then read the same bytes.
        let (pm, aspace, frames) = setup(2);
        let va1 = aspace.mmap(&frames[..1]).unwrap();
        let va2 = aspace.mmap(&frames[1..]).unwrap();
        aspace.write(va2, b"dest").unwrap();
        let epoch_before = aspace.translate(va1).unwrap().epoch;

        aspace.remap(va1, &frames[1..]).unwrap();

        assert_eq!(aspace.translate(va1).unwrap().frame, frames[1]);
        assert!(aspace.translate(va1).unwrap().epoch > epoch_before);
        let mut buf = [0u8; 4];
        aspace.read(va1, &mut buf).unwrap();
        assert_eq!(&buf, b"dest");
        // Old frame lost the page-table ref; only the allocator ref remains.
        assert_eq!(pm.ref_count(frames[0]), 1);
        // Dest frame now referenced by allocator + two mappings.
        assert_eq!(pm.ref_count(frames[1]), 3);
        assert_eq!(aspace.remaps(), 1);
    }

    #[test]
    fn mmap_fixed_reuses_released_vaddr() {
        let (_pm, aspace, frames) = setup(2);
        let va = aspace.mmap(&frames[..1]).unwrap();
        aspace.munmap(va, 1).unwrap();
        aspace.mmap_fixed(va, &frames[1..]).unwrap();
        assert_eq!(aspace.translate(va).unwrap().frame, frames[1]);
    }

    #[test]
    fn mmap_fixed_rejects_overlap_and_misalignment() {
        let (_pm, aspace, frames) = setup(2);
        let va = aspace.mmap(&frames[..1]).unwrap();
        assert!(matches!(aspace.mmap_fixed(va, &frames[1..]), Err(MemError::AlreadyMapped(_))));
        assert!(matches!(aspace.mmap_fixed(va + 1, &frames[1..]), Err(MemError::Unaligned(_))));
    }

    #[test]
    fn distinct_mmaps_get_disjoint_ranges() {
        let (_pm, aspace, frames) = setup(2);
        let va1 = aspace.mmap(&frames[..1]).unwrap();
        let va2 = aspace.mmap(&frames[1..]).unwrap();
        assert!(va2 >= va1 + PAGE_SIZE as u64);
    }

    #[test]
    fn remap_of_unmapped_page_fails() {
        let (_pm, aspace, frames) = setup(1);
        assert!(matches!(
            aspace.remap(AddressSpace::MMAP_BASE, &frames),
            Err(MemError::Unmapped(_))
        ));
    }

    #[test]
    fn far_fixed_mapping_costs_one_leaf() {
        let (_pm, aspace, frames) = setup(1);
        let va = AddressSpace::MMAP_BASE + (1 << 40);
        aspace.mmap_fixed(va, &frames).unwrap();
        assert_eq!((aspace.mapped_pages(), aspace.table_leaves()), (1, 1));
        assert_eq!(aspace.translate(va + 5).unwrap().frame, frames[0]);
        assert!(!aspace.is_mapped(va - PAGE_SIZE as u64));
        aspace.munmap(va, 1).unwrap();
        assert_eq!((aspace.mapped_pages(), aspace.table_leaves()), (0, 0));
    }

    #[test]
    fn sliding_window_keeps_the_table_bounded() {
        // Vaddrs are never reused: 100 K pages pass through a 1 K-page
        // window, and the table holds the window, not the history.
        const WINDOW: usize = 1_000;
        let (_pm, aspace, frames) = setup(1);
        let mut live = std::collections::VecDeque::new();
        for _ in 0..100_000 {
            live.push_back(aspace.mmap(&frames).unwrap());
            if live.len() > WINDOW {
                aspace.munmap(live.pop_front().unwrap(), 1).unwrap();
            }
            assert_eq!(aspace.mapped_pages(), live.len());
            assert!(aspace.table_leaves() <= WINDOW / crate::paged::LEAF_SLOTS + 2);
        }
        assert!(live.iter().all(|&va| aspace.is_mapped(va)));
        assert!(!aspace.is_mapped(live[0] - PAGE_SIZE as u64));
    }

    #[test]
    fn failed_remap_and_munmap_name_the_first_bad_page_and_change_nothing() {
        let (pm, aspace, frames) = setup(3);
        let va = aspace.mmap(&frames).unwrap();
        let page = PAGE_SIZE as u64;
        aspace.munmap(va + page, 1).unwrap();
        let before = aspace.translate(va).unwrap();
        assert_eq!(aspace.munmap(va, 3), Err(MemError::Unmapped(va + page)));
        assert_eq!(aspace.remap(va, &frames), Err(MemError::Unmapped(va + page)));
        assert_eq!(
            aspace.mmap_fixed(va + page, &frames[..2]),
            Err(MemError::AlreadyMapped(va + 2 * page))
        );
        assert_eq!(aspace.translate(va).unwrap(), before);
        assert_eq!((aspace.mapped_pages(), aspace.remaps()), (2, 0));
        // allocator ref + one mapping each for the mapped pages, allocator only for the hole
        assert_eq!(frames.iter().map(|&f| pm.ref_count(f)).collect::<Vec<_>>(), [2, 1, 2]);
    }

    #[test]
    fn stale_frame_read_after_remap_sees_poison() {
        // A reader holding the *frame id* (like a stale MTT entry) reads
        // poison after the frame is fully released.
        let pm = Arc::new(PhysicalMemory::new());
        let aspace = AddressSpace::new(pm.clone());
        let f1 = pm.alloc().unwrap();
        let f2 = pm.alloc().unwrap();
        let va = aspace.mmap(&[f1]).unwrap();
        aspace.write(va, b"live").unwrap();
        let stale = aspace.translate(va).unwrap().frame;
        aspace.remap(va, &[f2]).unwrap();
        pm.release(f1); // allocator drops its ref; frame now dead
        let mut buf = [0u8; 4];
        pm.read(stale, 0, &mut buf).unwrap();
        assert_eq!(buf, [POISON_BYTE; 4]);
    }

    use crate::phys::POISON_BYTE;
}
