//! The process-wide block allocator (§2.1.1, §3.1.1).
//!
//! Physical memory is acquired in 16 MiB memfd files ("to reduce the number
//! of allocated file descriptors") and carved into blocks — multiples of
//! 4 KiB pages — identified by (file, page offset). Thread-local allocators
//! fetch whole blocks from here, which is the only globally synchronized
//! step of the allocation path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use corm_sim_mem::{AddressSpace, FileId, FrameId, MemError, MemFile, PhysicalMemory, PAGE_SIZE};

use crate::block::{Block, BlockId};
use crate::classes::{ClassId, SizeClasses};

/// Shared handle to a block. The "owned by at most one thread" invariant is
/// logical (tracked by `Block::owner`); the mutex makes handoffs during
/// compaction safe.
pub type SharedBlock = Arc<Mutex<Block>>;

/// Allocator configuration.
#[derive(Debug, Clone)]
pub struct AllocConfig {
    /// Block size in bytes (must be a multiple of the 4 KiB page).
    /// The paper uses 4 KiB for the latency/throughput experiments and
    /// 1 MiB (FaRM's block size) for the memory experiments.
    pub block_bytes: usize,
    /// memfd file size in bytes (16 MiB in the paper).
    pub file_bytes: usize,
    /// Object-identifier width in bits (16 by default, §3.1.2).
    pub id_bits: u32,
    /// The size-class table.
    pub classes: SizeClasses,
}

impl Default for AllocConfig {
    fn default() -> Self {
        AllocConfig {
            block_bytes: 4096,
            file_bytes: 16 * 1024 * 1024,
            id_bits: 16,
            classes: SizeClasses::standard(),
        }
    }
}

impl AllocConfig {
    /// Pages per block.
    fn block_pages(&self) -> usize {
        self.block_bytes / PAGE_SIZE
    }

    /// Identifier-space size.
    pub fn id_space(&self) -> usize {
        1usize << self.id_bits
    }

    fn validate(&self) {
        assert!(
            self.block_bytes.is_multiple_of(PAGE_SIZE) && self.block_bytes > 0,
            "block size must be a positive multiple of {PAGE_SIZE}"
        );
        assert!(
            self.file_bytes.is_multiple_of(self.block_bytes),
            "file size must be a multiple of the block size"
        );
        assert!(self.id_bits <= 20, "id width beyond 20 bits is untested");
    }
}

/// Allocation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Physical memory exhausted (triggers compaction under CoRM's policy).
    OutOfMemory,
    /// The payload exceeds the largest size class.
    PayloadTooLarge(usize),
    /// Underlying memory error.
    Mem(MemError),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "out of physical memory"),
            AllocError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds classes"),
            AllocError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl std::error::Error for AllocError {}

impl From<MemError> for AllocError {
    fn from(e: MemError) -> Self {
        match e {
            MemError::OutOfMemory => AllocError::OutOfMemory,
            other => AllocError::Mem(other),
        }
    }
}

/// A run of physical pages carved from a memfd file — the currency the
/// process-wide allocator deals in.
#[derive(Debug)]
pub struct PhysBlock {
    /// Owning file.
    pub(crate) file: FileId,
    /// First page within the file.
    pub(crate) page: usize,
    /// The frames backing the run.
    pub(crate) frames: Vec<FrameId>,
}

#[derive(Debug, Default)]
struct PoolInner {
    files: Vec<MemFile>,
    /// Free blocks, LIFO for locality.
    free: Vec<PhysBlock>,
}

/// The process-wide allocator.
pub struct ProcessAllocator {
    phys: Arc<PhysicalMemory>,
    aspace: Arc<AddressSpace>,
    config: AllocConfig,
    inner: Mutex<PoolInner>,
    next_block_id: AtomicU64,
    blocks_in_use: AtomicU64,
}

impl std::fmt::Debug for ProcessAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessAllocator")
            .field("blocks_in_use", &self.blocks_in_use())
            .field("block_bytes", &self.config.block_bytes)
            .finish()
    }
}

impl ProcessAllocator {
    /// Creates a process-wide allocator over the given memory.
    pub fn new(phys: Arc<PhysicalMemory>, aspace: Arc<AddressSpace>, config: AllocConfig) -> Self {
        config.validate();
        ProcessAllocator {
            phys,
            aspace,
            config,
            inner: Mutex::new(PoolInner::default()),
            next_block_id: AtomicU64::new(1),
            blocks_in_use: AtomicU64::new(0),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AllocConfig {
        &self.config
    }

    /// The address space blocks are mapped into.
    pub fn aspace(&self) -> &Arc<AddressSpace> {
        &self.aspace
    }

    /// The physical memory backing everything.
    pub fn phys(&self) -> &Arc<PhysicalMemory> {
        &self.phys
    }

    /// Acquires a physical block: recycled from the free list or carved
    /// from a memfd file by populating its next pages (creating a new
    /// 16 MiB file when the current one is exhausted). Only carving
    /// allocates frames, so a capped memory runs out at the first block
    /// that does not fit.
    pub fn alloc_phys_block(&self) -> Result<PhysBlock, AllocError> {
        let mut inner = self.inner.lock();
        if let Some(pb) = inner.free.pop() {
            self.blocks_in_use.fetch_add(1, Ordering::Relaxed);
            return Ok(pb);
        }
        let pages_per_block = self.config.block_pages();
        if inner.files.last().is_none_or(|f| f.populated() + pages_per_block > f.pages()) {
            inner.files.push(MemFile::create(self.config.file_bytes / PAGE_SIZE));
        }
        let file = inner.files.last_mut().expect("file just ensured");
        let page = file.populated();
        let frames = file.populate(&self.phys, pages_per_block)?.to_vec();
        let file_id = file.id();
        self.blocks_in_use.fetch_add(1, Ordering::Relaxed);
        Ok(PhysBlock { file: file_id, page, frames })
    }

    /// Returns a physical block to the pool for reuse.
    pub fn release_phys_block(&self, pb: PhysBlock) {
        self.blocks_in_use.fetch_sub(1, Ordering::Relaxed);
        self.inner.lock().free.push(pb);
    }

    /// Creates a fully-formed, mapped block of a size class, owned by
    /// worker `owner`. Registration with the NIC is the caller's job.
    pub fn create_block(&self, class: ClassId, owner: u16) -> Result<Block, AllocError> {
        let pb = self.alloc_phys_block()?;
        let vaddr = match self.aspace.mmap(&pb.frames) {
            Ok(va) => va,
            Err(e) => {
                self.release_phys_block(pb);
                return Err(e.into());
            }
        };
        let obj_size = self.config.classes.size_of(class);
        let id = BlockId(self.next_block_id.fetch_add(1, Ordering::Relaxed));
        Ok(Block::new(
            id,
            class,
            obj_size,
            vaddr,
            self.config.block_pages(),
            pb.file,
            pb.page,
            pb.frames,
            self.config.id_space(),
            owner,
        ))
    }

    /// Releases the *physical* side of a compacted or emptied block. The
    /// caller decides what happens to the vaddr (unmap for empty blocks;
    /// keep-as-alias for compaction sources).
    pub fn release_block_phys(&self, file: FileId, page: usize, frames: Vec<FrameId>) {
        self.release_phys_block(PhysBlock { file, page, frames });
    }

    /// Blocks currently held by thread allocators (the paper's "active
    /// memory" numerator is this times the block size).
    pub fn blocks_in_use(&self) -> usize {
        self.blocks_in_use.load(Ordering::Relaxed) as usize
    }

    /// Bytes in blocks currently held.
    pub fn active_bytes(&self) -> u64 {
        self.blocks_in_use() as u64 * self.config.block_bytes as u64
    }

    /// Total bytes granted by the (simulated) OS to this process.
    pub fn granted_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.files.iter().map(|f| f.len_bytes() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(block_bytes: usize, cap_frames: Option<usize>) -> ProcessAllocator {
        let phys = Arc::new(match cap_frames {
            Some(n) => PhysicalMemory::with_capacity(n),
            None => PhysicalMemory::new(),
        });
        let aspace = Arc::new(AddressSpace::new(phys.clone()));
        ProcessAllocator::new(
            phys,
            aspace,
            AllocConfig { block_bytes, file_bytes: 64 * 1024, ..AllocConfig::default() },
        )
    }

    #[test]
    fn carves_blocks_from_files() {
        let pa = mk(4096, None);
        let a = pa.alloc_phys_block().unwrap();
        let b = pa.alloc_phys_block().unwrap();
        assert_eq!(a.file, b.file, "same file while it lasts");
        assert_eq!(a.page, 0);
        assert_eq!(b.page, 1);
        assert_eq!(pa.blocks_in_use(), 2);
        // 64 KiB file = 16 one-page blocks; the 17th opens a new file.
        for _ in 2..16 {
            pa.alloc_phys_block().unwrap();
        }
        let c = pa.alloc_phys_block().unwrap();
        assert_ne!(c.file, a.file);
        assert_eq!(pa.granted_bytes(), 2 * 64 * 1024);
    }

    #[test]
    fn free_list_recycled_lifo() {
        let pa = mk(4096, None);
        let a = pa.alloc_phys_block().unwrap();
        let (file, page) = (a.file, a.page);
        pa.release_phys_block(a);
        assert_eq!(pa.blocks_in_use(), 0);
        let b = pa.alloc_phys_block().unwrap();
        assert_eq!((b.file, b.page), (file, page));
    }

    #[test]
    fn multi_page_blocks() {
        let pa = mk(16384, None);
        let a = pa.alloc_phys_block().unwrap();
        assert_eq!(a.frames.len(), 4);
        let b = pa.alloc_phys_block().unwrap();
        assert_eq!(b.page, 4);
    }

    #[test]
    fn out_of_memory_surfaces() {
        // Capacity of 8 frames; files are 16 pages, backed block by block →
        // 8 one-page blocks fit, the ninth does not.
        let pa = mk(4096, Some(8));
        for page in 0..8 {
            assert_eq!(pa.alloc_phys_block().unwrap().page, page);
        }
        assert_eq!(pa.alloc_phys_block().unwrap_err(), AllocError::OutOfMemory);
        assert_eq!((pa.phys().live_frames(), pa.blocks_in_use()), (8, 8));
    }

    #[test]
    fn create_block_maps_and_builds() {
        let pa = mk(4096, None);
        let block = pa.create_block(ClassId(2), 5).unwrap();
        assert_eq!(block.owner(), 5);
        assert_eq!(block.obj_size(), SizeClasses::standard().size_of(ClassId(2)));
        assert!(pa.aspace().is_mapped(block.vaddr()));
        assert!(block.slots() > 0);
        // Distinct blocks get distinct ids and vaddrs.
        let b2 = pa.create_block(ClassId(2), 5).unwrap();
        assert_ne!(b2.id(), block.id());
        assert_ne!(b2.vaddr(), block.vaddr());
    }

    #[test]
    #[should_panic(expected = "multiple of the block size")]
    fn invalid_config_rejected() {
        let phys = Arc::new(PhysicalMemory::new());
        let aspace = Arc::new(AddressSpace::new(phys.clone()));
        ProcessAllocator::new(
            phys,
            aspace,
            AllocConfig { block_bytes: 12288, file_bytes: 64 * 1024, ..AllocConfig::default() },
        );
    }
}
