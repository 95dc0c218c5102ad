//! Physical frame table.
//!
//! Frames are 4 KiB, reference counted (a frame can back several virtual
//! pages after compaction aliases block addresses), and poisoned on free so
//! that reads through stale translations return recognizable garbage instead
//! of silently looking valid.

use std::fmt;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicU8, Ordering};

use corm_sim_core::prefetch_read;
use parking_lot::{Mutex, RwLock};

/// Size of a physical frame / virtual page, matching the paper's 4 KiB
/// normal-sized pages.
pub const PAGE_SIZE: usize = 4096;

/// Byte pattern written over freed frames. Reads through stale translations
/// surface this pattern, making use-after-remap bugs observable in tests.
pub(crate) const POISON_BYTE: u8 = 0xDF;

/// Index of a physical frame in the frame table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

/// Where a live frame's contents currently sit in the tiering lattice.
///
/// `Pinned > Resident > Far`: a *pinned* frame is DRAM-resident and
/// registered for DMA (the only state that existed before tiering — every
/// allocation starts here, so nothing changes unless a pin budget demotes
/// frames). A *resident* frame holds its bytes in DRAM but is not pinned:
/// the CPU may touch it freely, while a one-sided NIC access must first pin
/// it (NP-RDMA's dynamic-pin fault) or take a host fault. A *far* frame's
/// bytes live in the far tier (see [`crate::tier::FarTier`]); its DRAM
/// words are poisoned so any access that skips the fetch path is
/// observable, exactly like reads through stale translations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Residency {
    /// DRAM-resident and DMA-registered; the pre-tiering default.
    Pinned = 0,
    /// DRAM-resident but unpinned: NIC access requires a pin fault.
    Resident = 1,
    /// Spilled to the far tier; DRAM words are poison until fetched.
    Far = 2,
}

impl Residency {
    fn from_u8(v: u8) -> Residency {
        match v {
            0 => Residency::Pinned,
            1 => Residency::Resident,
            _ => Residency::Far,
        }
    }
}

/// Gauge counters for the residency lattice, one per [`Residency`] state.
/// They count *live* frames only; freed frames leave the gauge.
#[derive(Default)]
struct ResidencyCounts {
    pinned: AtomicU64,
    resident: AtomicU64,
    far: AtomicU64,
}

impl ResidencyCounts {
    fn slot(&self, r: Residency) -> &AtomicU64 {
        match r {
            Residency::Pinned => &self.pinned,
            Residency::Resident => &self.resident,
            Residency::Far => &self.far,
        }
    }

    fn transition(&self, from: Residency, to: Residency) {
        if from != to {
            self.slot(from).fetch_sub(1, Ordering::Relaxed);
            self.slot(to).fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Snapshot of the residency gauges (live frames per state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencySnapshot {
    /// Live frames in [`Residency::Pinned`].
    pub pinned: u64,
    /// Live frames in [`Residency::Resident`].
    pub resident: u64,
    /// Live frames in [`Residency::Far`].
    pub far: u64,
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// Errors from the simulated memory subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The physical memory capacity limit was reached.
    OutOfMemory,
    /// The frame id does not refer to a live frame.
    DeadFrame(FrameId),
    /// An access crossed the end of a frame.
    FrameBounds {
        /// Offset of the access within the frame.
        offset: usize,
        /// Length of the access.
        len: usize,
    },
    /// The virtual address is not mapped.
    Unmapped(u64),
    /// The virtual address is already mapped.
    AlreadyMapped(u64),
    /// A virtual address that is not page aligned was supplied.
    Unaligned(u64),
    /// A memfd file has fewer unpopulated pages left than were asked for.
    FileFull,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory => write!(f, "simulated physical memory exhausted"),
            MemError::DeadFrame(id) => write!(f, "access to dead {id}"),
            MemError::FrameBounds { offset, len } => {
                write!(f, "frame access out of bounds: offset={offset} len={len}")
            }
            MemError::Unmapped(va) => write!(f, "unmapped virtual address {va:#x}"),
            MemError::AlreadyMapped(va) => write!(f, "virtual address already mapped {va:#x}"),
            MemError::Unaligned(va) => write!(f, "virtual address not page aligned {va:#x}"),
            MemError::FileFull => write!(f, "memfd file has no pages left to populate"),
        }
    }
}

impl std::error::Error for MemError {}

/// Frame bytes are stored as little-endian u64 words so the data plane
/// moves 8 bytes per atomic instead of 1 — DMA loops are the simulator's
/// hottest memory traffic. The byte-addressed read/write API is unchanged;
/// partial words at the edges of an access use a masked CAS on writes so
/// racing writers to *different* bytes of one word both land, like the
/// per-byte representation allowed.
const FRAME_WORDS: usize = PAGE_SIZE / 8;

/// [`POISON_BYTE`] replicated across one word.
const POISON_WORD: u64 = 0x0101010101010101u64.wrapping_mul(POISON_BYTE as u64);

/// 32 bytes, aligned so that no entry of the frame table straddles a
/// cacheline: the line a hint loads for an entry holds its sequence word.
#[repr(align(32))]
struct Frame {
    data: Box<[AtomicU64]>,
    /// Number of virtual pages (or other owners, e.g. a memfd file) holding
    /// this frame. Zero means the frame is on the free list.
    refs: u32,
    /// [`Residency`] as a `u8`, atomic so tier transitions (spill/fetch/pin)
    /// can flip it under the shared frame-table read guard the data plane
    /// already holds — taking the write lock there would deadlock a DMA
    /// session against itself.
    residency: AtomicU8,
    /// Sequence word of the frame's data-plane writes: odd while a write
    /// stores into one line, bumped by two per line written. A read copies
    /// again if the word moved meanwhile, so it never sees part of a write
    /// inside a line, as a DMA engine reads a whole cacheline.
    seq: AtomicU32,
}

const _: () = assert!(std::mem::size_of::<Frame>() == 32);

impl Frame {
    fn new() -> Self {
        let data = (0..FRAME_WORDS).map(|_| AtomicU64::new(0)).collect();
        Frame {
            data,
            refs: 1,
            residency: AtomicU8::new(Residency::Pinned as u8),
            seq: AtomicU32::new(0),
        }
    }

    /// Runs `copy` once; whether no line write overlapped it (a seqlock
    /// read).
    #[inline]
    fn try_read(&self, copy: impl FnOnce()) -> bool {
        // Pairs with `write_line`'s closing Release store: a copy that
        // starts after a write sees all of it.
        let seq = self.seq.load(Ordering::Acquire);
        seq & 1 == 0 && {
            copy();
            // Pairs with `write_line`'s Release fence: a copy that saw any
            // store of a write also sees the word that write made odd.
            fence(Ordering::Acquire);
            self.seq.load(Ordering::Relaxed) == seq
        }
    }

    /// Runs `copy` until no line write overlapped it. Spins first, then
    /// yields, so a writer descheduled mid-line gets the CPU back.
    fn read_line(&self, mut copy: impl FnMut()) {
        let mut spins = 0;
        while !self.try_read(&mut copy) {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Runs `store` with the sequence word odd. The writes to one frame
    /// are serialized by the lock of the block that owns it, so the word
    /// only tells readers to retry; it excludes no writer.
    #[inline]
    fn write_line(&self, store: impl FnOnce()) {
        let seq = self.seq.load(Ordering::Relaxed);
        debug_assert!(seq & 1 == 0, "two writes to one frame at once");
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        // Orders the odd word before the data stores for a reader whose
        // loads see any of them.
        fence(Ordering::Release);
        store();
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Copies the bytes at `pos..pos + out.len()` a word at a time.
    fn load(&self, mut pos: usize, mut out: &mut [u8]) {
        let head = pos % 8;
        if head != 0 && !out.is_empty() {
            let w = self.data[pos / 8].load(Ordering::Relaxed).to_le_bytes();
            let n = (8 - head).min(out.len());
            out[..n].copy_from_slice(&w[head..head + n]);
            pos += n;
            out = &mut out[n..];
        }
        // Zipping aligned words against 8-byte output chunks hoists every
        // bounds check out of the loop.
        let whole = out.len() / 8;
        if whole > 0 {
            let words = &self.data[pos / 8..pos / 8 + whole];
            let (chunks, _) = out.as_chunks_mut::<8>();
            for (w, dst) in words.iter().zip(chunks.iter_mut()) {
                *dst = w.load(Ordering::Relaxed).to_le_bytes();
            }
            pos += whole * 8;
            out = &mut out[whole * 8..];
        }
        if !out.is_empty() {
            let w = self.data[pos / 8].load(Ordering::Relaxed).to_le_bytes();
            let n = out.len();
            out.copy_from_slice(&w[..n]);
        }
    }

    /// Stores `src` at `pos` a word at a time.
    fn store(&self, mut pos: usize, mut src: &[u8]) {
        let head = pos % 8;
        if head != 0 && !src.is_empty() {
            let n = (8 - head).min(src.len());
            store_partial(&self.data[pos / 8], head, &src[..n]);
            pos += n;
            src = &src[n..];
        }
        let whole = src.len() / 8;
        if whole > 0 {
            let words = &self.data[pos / 8..pos / 8 + whole];
            let (chunks, _) = src.as_chunks::<8>();
            for (w, s) in words.iter().zip(chunks.iter()) {
                w.store(u64::from_le_bytes(*s), Ordering::Relaxed);
            }
            pos += whole * 8;
            src = &src[whole * 8..];
        }
        if !src.is_empty() {
            store_partial(&self.data[pos / 8], 0, src);
        }
    }

    fn fill(&self, word: u64) {
        for w in self.data.iter() {
            w.store(word, Ordering::Relaxed);
        }
    }

    fn residency(&self) -> Residency {
        Residency::from_u8(self.residency.load(Ordering::Relaxed))
    }
}

/// The unit a DMA read sees whole: a 64-byte line of a frame.
const LINE: usize = 64;

/// Bytes of a `len`-byte access at frame offset `pos` up to the end of its
/// first line.
fn line_part(pos: usize, len: usize) -> usize {
    len.min(LINE - pos % LINE)
}

/// Read-modify-writes `bytes` into `word` at byte offset `byte_off`,
/// preserving the word's other bytes even against concurrent writers.
fn store_partial(word: &AtomicU64, byte_off: usize, bytes: &[u8]) {
    debug_assert!(byte_off + bytes.len() <= 8);
    let mut mask = 0u64;
    let mut val = 0u64;
    for (k, &b) in bytes.iter().enumerate() {
        mask |= 0xFFu64 << ((byte_off + k) * 8);
        val |= (b as u64) << ((byte_off + k) * 8);
    }
    let mut cur = word.load(Ordering::Relaxed);
    loop {
        let next = (cur & !mask) | val;
        match word.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// The machine's physical memory: a growable, optionally capped frame table.
///
/// All bookkeeping (refcounts, free list) is behind locks; the data plane
/// (reads/writes of frame bytes) is relaxed atomics under a per-frame
/// sequence word, so that the simulated RNIC races with CPU writers like
/// real DMA does: a read sees each 64-byte line whole, while the lines of
/// a longer read may come from different writes.
pub struct PhysicalMemory {
    frames: RwLock<Vec<Frame>>,
    free_list: Mutex<Vec<u32>>,
    capacity: Option<usize>,
    live: AtomicU64,
    res: ResidencyCounts,
}

impl fmt::Debug for PhysicalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalMemory")
            .field("live_frames", &self.live_frames())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Default for PhysicalMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl PhysicalMemory {
    /// Creates an unbounded physical memory.
    pub fn new() -> Self {
        PhysicalMemory {
            frames: RwLock::new(Vec::new()),
            free_list: Mutex::new(Vec::new()),
            capacity: None,
            live: AtomicU64::new(0),
            res: ResidencyCounts::default(),
        }
    }

    /// Creates a physical memory capped at `frames` live frames. Allocation
    /// beyond the cap fails with [`MemError::OutOfMemory`] — the trigger for
    /// CoRM's allocation-failure compaction policy.
    pub fn with_capacity(frames: usize) -> Self {
        PhysicalMemory { capacity: Some(frames), ..Self::new() }
    }

    /// Allocates a zeroed frame.
    pub fn alloc(&self) -> Result<FrameId, MemError> {
        if let Some(cap) = self.capacity {
            if self.live.load(Ordering::Relaxed) as usize >= cap {
                return Err(MemError::OutOfMemory);
            }
        }
        let id = if let Some(idx) = self.free_list.lock().pop() {
            let frames = self.frames.read();
            let frame = &frames[idx as usize];
            debug_assert_eq!(frame.refs, 0);
            frame.fill(0);
            frame.residency.store(Residency::Pinned as u8, Ordering::Relaxed);
            drop(frames);
            self.frames.write()[idx as usize].refs = 1;
            FrameId(idx)
        } else {
            let mut frames = self.frames.write();
            frames.push(Frame::new());
            FrameId((frames.len() - 1) as u32)
        };
        self.res.pinned.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Allocates `n` zeroed frames, rolling back on failure.
    pub fn alloc_n(&self, n: usize) -> Result<Vec<FrameId>, MemError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.alloc() {
                Ok(f) => out.push(f),
                Err(e) => {
                    for f in out {
                        self.release(f);
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Adds a reference to a live frame (a new virtual page now aliases it).
    pub(crate) fn add_ref(&self, id: FrameId) -> Result<(), MemError> {
        let mut frames = self.frames.write();
        let frame = frames.get_mut(id.0 as usize).ok_or(MemError::DeadFrame(id))?;
        if frame.refs == 0 {
            return Err(MemError::DeadFrame(id));
        }
        frame.refs += 1;
        Ok(())
    }

    /// Drops a reference; when the last reference goes the frame is poisoned
    /// and recycled. Returns `true` if the frame was freed.
    pub fn release(&self, id: FrameId) -> bool {
        let mut frames = self.frames.write();
        let frame = match frames.get_mut(id.0 as usize) {
            Some(f) if f.refs > 0 => f,
            _ => panic!("release of dead {id}"),
        };
        frame.refs -= 1;
        if frame.refs == 0 {
            frame.fill(POISON_WORD);
            let res = frame.residency();
            drop(frames);
            self.res.slot(res).fetch_sub(1, Ordering::Relaxed);
            self.free_list.lock().push(id.0);
            self.live.fetch_sub(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Current reference count of a frame (0 if freed).
    pub fn ref_count(&self, id: FrameId) -> u32 {
        self.frames.read().get(id.0 as usize).map(|f| f.refs).unwrap_or(0)
    }

    /// Opens a DMA session: one frame-table lock acquisition amortized over
    /// any number of reads/writes. The RNIC holds a session for a whole
    /// doorbell batch; frame alloc/free block for the session's duration,
    /// exactly as if the batch's accesses had interleaved with them.
    pub fn dma(&self) -> DmaSession<'_> {
        DmaSession { frames: self.frames.read(), res: &self.res }
    }

    /// Current residency of a frame. Freed frames report their last state;
    /// callers gate on liveness separately (residency only matters for live
    /// frames — the gauges in [`Self::residency_counts`] track live frames
    /// only).
    pub fn residency(&self, id: FrameId) -> Residency {
        self.frames.read().get(id.0 as usize).map(|f| f.residency()).unwrap_or(Residency::Pinned)
    }

    /// Live-frame gauges per residency state.
    pub fn residency_counts(&self) -> ResidencySnapshot {
        ResidencySnapshot {
            pinned: self.res.pinned.load(Ordering::Relaxed),
            resident: self.res.resident.load(Ordering::Relaxed),
            far: self.res.far.load(Ordering::Relaxed),
        }
    }

    /// Reads `buf.len()` bytes at `offset` within the frame.
    ///
    /// Deliberately permitted on freed frames: a stale RNIC translation
    /// *does* read recycled memory on real hardware. Freed-but-not-reused
    /// frames return poison bytes (`0xDF`).
    pub fn read(&self, id: FrameId, offset: usize, buf: &mut [u8]) -> Result<(), MemError> {
        self.dma().read(id, offset, buf)
    }

    /// Writes `buf` at `offset` within the frame.
    pub fn write(&self, id: FrameId, offset: usize, buf: &[u8]) -> Result<(), MemError> {
        self.dma().write(id, offset, buf)
    }

    /// Number of live (referenced) frames.
    pub fn live_frames(&self) -> usize {
        self.live.load(Ordering::Relaxed) as usize
    }
}

/// A borrowed view of the frame table for repeated data-plane accesses
/// without per-access locking. See [`PhysicalMemory::dma`].
pub struct DmaSession<'a> {
    frames: parking_lot::RwLockReadGuard<'a, Vec<Frame>>,
    res: &'a ResidencyCounts,
}

impl DmaSession<'_> {
    /// Residency of a frame, or `None` if the id is out of range.
    pub fn residency(&self, id: FrameId) -> Option<Residency> {
        self.frames.get(id.0 as usize).map(|f| f.residency())
    }

    /// Moves a live frame to `to` in the residency lattice under the held
    /// session, returning the previous state. Data movement is the
    /// caller's job ([`FarTier`]'s spill and fetch are the byte-preserving
    /// transitions); this is the bookkeeping-only flip used for pin/unpin,
    /// which never touches the frame's bytes. The simulated RNIC uses it to
    /// pin a resident page mid-batch (NP-RDMA's dynamic-pin fault) without
    /// re-acquiring the frame-table lock it already holds.
    ///
    /// [`FarTier`]: crate::FarTier
    pub fn set_residency(&self, id: FrameId, to: Residency) -> Result<Residency, MemError> {
        let frame = self.frames.get(id.0 as usize).ok_or(MemError::DeadFrame(id))?;
        if frame.refs == 0 {
            return Err(MemError::DeadFrame(id));
        }
        let prev = Residency::from_u8(frame.residency.swap(to as u8, Ordering::Relaxed));
        self.res.transition(prev, to);
        Ok(prev)
    }

    /// Evicts a live frame's bytes out of DRAM: copies the full page into
    /// the returned buffer, poisons the frame (so any access that skips the
    /// fetch path observably reads garbage), and marks it [`Residency::Far`].
    /// The caller owns the bytes — handing them to a far-tier store and
    /// restoring them via [`Self::fetch_in`] round-trips byte-exactly.
    pub(crate) fn spill_out(&self, id: FrameId) -> Result<Box<[u8]>, MemError> {
        let frame = self.frames.get(id.0 as usize).ok_or(MemError::DeadFrame(id))?;
        if frame.refs == 0 {
            return Err(MemError::DeadFrame(id));
        }
        let mut bytes = vec![0u8; PAGE_SIZE].into_boxed_slice();
        let (chunks, _) = bytes.as_chunks_mut::<8>();
        for (w, dst) in frame.data.iter().zip(chunks.iter_mut()) {
            *dst = w.load(Ordering::Relaxed).to_le_bytes();
        }
        frame.fill(POISON_WORD);
        self.set_residency(id, Residency::Far)?;
        Ok(bytes)
    }

    /// Restores a far frame's bytes into DRAM and marks it
    /// [`Residency::Resident`] (unpinned — pinning is a separate,
    /// bookkeeping-only step charged by the caller's cost model).
    pub(crate) fn fetch_in(&self, id: FrameId, bytes: &[u8]) -> Result<(), MemError> {
        if bytes.len() != PAGE_SIZE {
            return Err(MemError::FrameBounds { offset: 0, len: bytes.len() });
        }
        let frame = self.frames.get(id.0 as usize).ok_or(MemError::DeadFrame(id))?;
        if frame.refs == 0 {
            return Err(MemError::DeadFrame(id));
        }
        let (chunks, _) = bytes.as_chunks::<8>();
        for (w, src) in frame.data.iter().zip(chunks.iter()) {
            w.store(u64::from_le_bytes(*src), Ordering::Relaxed);
        }
        self.set_residency(id, Residency::Resident)?;
        Ok(())
    }

    /// Hints that a read at `offset` within the frame is coming: starts
    /// loading the line the read begins on. Reads no frame byte and checks
    /// nothing — an id or offset out of range is ignored, a freed frame is
    /// as good as a live one — so the read that follows behaves the same
    /// with or without it.
    #[inline]
    pub fn prefetch(&self, id: FrameId, offset: usize) {
        if let Some(word) = self.frames.get(id.0 as usize).and_then(|f| f.data.get(offset / 8)) {
            prefetch_read(word);
        }
    }

    /// Hints that an access to the frame is coming: starts loading its
    /// frame-table entry, the line [`Self::prefetch`] and every read and
    /// write load before they can name a data line. As inert as
    /// [`Self::prefetch`]: an id out of range is ignored.
    #[inline]
    pub fn prefetch_entry(&self, id: FrameId) {
        if let Some(frame) = self.frames.get(id.0 as usize) {
            prefetch_read(frame);
        }
    }

    /// Reads `buf.len()` bytes at `offset` within the frame; semantics of
    /// [`PhysicalMemory::read`].
    pub fn read(&self, id: FrameId, offset: usize, buf: &mut [u8]) -> Result<(), MemError> {
        let frame = self.frames.get(id.0 as usize).ok_or(MemError::DeadFrame(id))?;
        let end = offset
            .checked_add(buf.len())
            .ok_or(MemError::FrameBounds { offset, len: buf.len() })?;
        if end > PAGE_SIZE {
            return Err(MemError::FrameBounds { offset, len: buf.len() });
        }
        // Whole when no write landed meanwhile, else line by line.
        if frame.try_read(|| frame.load(offset, buf)) {
            return Ok(());
        }
        let (mut pos, mut rest) = (offset, buf);
        while !rest.is_empty() {
            let n = line_part(pos, rest.len());
            let (line, tail) = std::mem::take(&mut rest).split_at_mut(n);
            frame.read_line(|| frame.load(pos, line));
            (pos, rest) = (pos + line.len(), tail);
        }
        Ok(())
    }

    /// Writes `buf` at `offset` within the frame; semantics of
    /// [`PhysicalMemory::write`].
    pub fn write(&self, id: FrameId, offset: usize, buf: &[u8]) -> Result<(), MemError> {
        let frame = self.frames.get(id.0 as usize).ok_or(MemError::DeadFrame(id))?;
        if frame.refs == 0 {
            return Err(MemError::DeadFrame(id));
        }
        let end = offset
            .checked_add(buf.len())
            .ok_or(MemError::FrameBounds { offset, len: buf.len() })?;
        if end > PAGE_SIZE {
            return Err(MemError::FrameBounds { offset, len: buf.len() });
        }
        let (mut pos, mut rest) = (offset, buf);
        while !rest.is_empty() {
            let (line, tail) = rest.split_at(line_part(pos, rest.len()));
            frame.write_line(|| frame.store(pos, line));
            (pos, rest) = (pos + line.len(), tail);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroes_and_rw_round_trips() {
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        let mut buf = [1u8; 16];
        pm.read(f, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        pm.write(f, 100, b"hello").unwrap();
        let mut out = [0u8; 5];
        pm.read(f, 100, &mut out).unwrap();
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn free_poisons_and_reuse_zeroes() {
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        pm.write(f, 0, b"data").unwrap();
        assert!(pm.release(f));
        // Stale read of the freed frame sees poison.
        let mut buf = [0u8; 4];
        pm.read(f, 0, &mut buf).unwrap();
        assert_eq!(buf, [POISON_BYTE; 4]);
        // Reuse returns the same slot zeroed.
        let g = pm.alloc().unwrap();
        assert_eq!(g, f);
        pm.read(g, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn refcounting_keeps_frame_alive() {
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        pm.add_ref(f).unwrap();
        assert_eq!(pm.ref_count(f), 2);
        assert!(!pm.release(f));
        assert_eq!(pm.live_frames(), 1);
        assert!(pm.release(f));
        assert_eq!(pm.live_frames(), 0);
        assert!(pm.add_ref(f).is_err());
    }

    #[test]
    fn capacity_cap_enforced_and_rolls_back() {
        let pm = PhysicalMemory::with_capacity(2);
        let a = pm.alloc().unwrap();
        let _b = pm.alloc().unwrap();
        assert_eq!(pm.alloc(), Err(MemError::OutOfMemory));
        pm.release(a);
        assert!(pm.alloc().is_ok());
        // alloc_n larger than remaining capacity must not leak frames.
        let before = pm.live_frames();
        assert_eq!(pm.alloc_n(5), Err(MemError::OutOfMemory));
        assert_eq!(pm.live_frames(), before);
    }

    #[test]
    fn unaligned_accesses_round_trip_across_word_edges() {
        // Every (offset, len) combination straddling word boundaries must
        // behave exactly like the old per-byte representation.
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        let backdrop: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 241) as u8).collect();
        pm.write(f, 0, &backdrop).unwrap();
        for offset in 0..24 {
            for len in 0..24 {
                let pattern: Vec<u8> = (0..len).map(|i| (0xA0 + offset + i) as u8).collect();
                pm.write(f, offset, &pattern).unwrap();
                let mut around = vec![0u8; len + 16];
                pm.read(f, offset.saturating_sub(8), &mut around).unwrap();
                let lead = offset - offset.saturating_sub(8);
                // Bytes before and after the write keep the backdrop.
                for (i, &b) in around.iter().enumerate() {
                    let abs = offset.saturating_sub(8) + i;
                    if i < lead || i >= lead + len {
                        assert_eq!(b, backdrop[abs], "offset={offset} len={len} abs={abs}");
                    } else {
                        assert_eq!(b, pattern[i - lead], "offset={offset} len={len}");
                    }
                }
                pm.write(f, offset, &backdrop[offset..offset + len]).unwrap();
            }
        }
    }

    #[test]
    fn a_read_never_sees_part_of_a_line_write() {
        use std::sync::atomic::AtomicBool;
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        let stop = AtomicBool::new(false);
        let torn = std::thread::scope(|s| {
            s.spawn(|| {
                for gen in (0..=u8::MAX).cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Lines 1 and 2 whole, then the halves either side of
                    // their boundary.
                    pm.write(f, 64, &[gen; 128]).unwrap();
                    pm.write(f, 96, &[gen; 64]).unwrap();
                }
            });
            let mut buf = [0u8; 64];
            let mut torn = 0;
            for offset in [64, 128].repeat(10_000) {
                pm.read(f, offset, &mut buf).unwrap();
                torn += usize::from(buf.iter().any(|&b| b != buf[0]));
            }
            stop.store(true, Ordering::Relaxed);
            torn
        });
        assert_eq!(torn, 0, "reads of one line saw two writes");
    }

    #[test]
    fn bounds_checked() {
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        let mut buf = [0u8; 8];
        assert!(matches!(pm.read(f, PAGE_SIZE - 4, &mut buf), Err(MemError::FrameBounds { .. })));
        assert!(matches!(pm.write(f, PAGE_SIZE, b"x"), Err(MemError::FrameBounds { .. })));
    }

    #[test]
    fn hints_take_live_freed_and_unknown_frames_and_change_nothing() {
        let pm = PhysicalMemory::new();
        let live = pm.alloc().unwrap();
        let freed = pm.alloc().unwrap();
        pm.write(live, 0, b"payload").unwrap();
        pm.dma().set_residency(live, Residency::Resident).unwrap();
        pm.release(freed);
        let before = (pm.residency_counts(), pm.live_frames());
        let dma = pm.dma();
        for id in [live, freed, FrameId(2), FrameId(u32::MAX)] {
            dma.prefetch_entry(id);
            for offset in [0, 7, PAGE_SIZE - 1, PAGE_SIZE, usize::MAX] {
                dma.prefetch(id, offset);
            }
        }
        drop(dma);
        assert_eq!((pm.residency_counts(), pm.live_frames()), before);
        let mut buf = [0u8; 7];
        pm.read(live, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        pm.read(freed, 0, &mut buf).unwrap();
        assert_eq!(buf, [POISON_BYTE; 7]);
    }

    #[test]
    fn writes_to_freed_frame_rejected() {
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        pm.release(f);
        assert_eq!(pm.write(f, 0, b"x"), Err(MemError::DeadFrame(f)));
    }

    #[test]
    fn residency_defaults_pinned_and_gauges_track_transitions() {
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        assert_eq!(pm.residency(f), Residency::Pinned);
        assert_eq!(pm.residency_counts(), ResidencySnapshot { pinned: 1, resident: 0, far: 0 });
        assert_eq!(pm.dma().set_residency(f, Residency::Resident).unwrap(), Residency::Pinned);
        assert_eq!(pm.residency_counts(), ResidencySnapshot { pinned: 0, resident: 1, far: 0 });
        // Freeing a demoted frame drains the right gauge; reuse re-pins.
        pm.release(f);
        assert_eq!(pm.residency_counts(), ResidencySnapshot { pinned: 0, resident: 0, far: 0 });
        let g = pm.alloc().unwrap();
        assert_eq!(g, f);
        assert_eq!(pm.residency(g), Residency::Pinned);
        assert_eq!(pm.residency_counts().pinned, 1);
    }

    #[test]
    fn spill_poisons_and_fetch_restores_byte_exactly() {
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        let pattern: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 249) as u8).collect();
        pm.write(f, 0, &pattern).unwrap();

        let dma = pm.dma();
        let bytes = dma.spill_out(f).unwrap();
        assert_eq!(&bytes[..], &pattern[..]);
        assert_eq!(dma.residency(f), Some(Residency::Far));
        // A read that skips the fetch path sees poison, not stale data.
        let mut probe = [0u8; 8];
        dma.read(f, 64, &mut probe).unwrap();
        assert_eq!(probe, [POISON_BYTE; 8]);

        dma.fetch_in(f, &bytes).unwrap();
        assert_eq!(dma.residency(f), Some(Residency::Resident));
        let mut out = vec![0u8; PAGE_SIZE];
        dma.read(f, 0, &mut out).unwrap();
        assert_eq!(out, pattern);
        drop(dma);
        assert_eq!(pm.residency_counts(), ResidencySnapshot { pinned: 0, resident: 1, far: 0 });
    }

    #[test]
    fn tier_transitions_reject_dead_frames() {
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        pm.release(f);
        let dma = pm.dma();
        assert_eq!(dma.set_residency(f, Residency::Far), Err(MemError::DeadFrame(f)));
        assert!(dma.spill_out(f).is_err());
        assert!(dma.fetch_in(f, &vec![0u8; PAGE_SIZE]).is_err());
    }
}
