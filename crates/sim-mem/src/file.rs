//! memfd-style anonymous files.
//!
//! CoRM allocates physical memory through `memfd_create` so that physical
//! pages have a stable identity — a (file descriptor, page offset) tuple —
//! independent of any virtual mapping (§3.1.1). The paper uses 16 MiB files
//! to bound the number of descriptors. [`MemFile`] reproduces exactly that:
//! a named sequence of physical frames that virtual pages can be mapped to.
//! Like a Linux memfd, whose pages are backed on first touch, a file holds
//! no frame until its pages are populated.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::phys::{FrameId, MemError, PhysicalMemory, PAGE_SIZE};

/// Identifier of a simulated anonymous file (the "file descriptor").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

static NEXT_FILE_ID: AtomicU32 = AtomicU32::new(1);

/// A memfd-style anonymous file of `pages` pages, backed front to back by
/// [`Self::populate`]. The file holds one reference to each frame it has
/// populated; mappings add more.
#[derive(Debug)]
pub struct MemFile {
    id: FileId,
    pages: usize,
    /// Frames of pages `[0, frames.len())`, the populated prefix.
    frames: Vec<FrameId>,
}

impl MemFile {
    /// Creates an anonymous file of `pages` pages. No frame is allocated.
    pub fn create(pages: usize) -> Self {
        MemFile {
            id: FileId(NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)),
            pages,
            frames: Vec::new(),
        }
    }

    /// The file's descriptor.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Number of pages in the file, populated or not.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// File length in bytes, populated or not.
    pub fn len_bytes(&self) -> usize {
        self.pages * PAGE_SIZE
    }

    /// Pages backed so far; the next [`Self::populate`] starts here.
    pub fn populated(&self) -> usize {
        self.frames.len()
    }

    /// Backs the file's next `n` pages with fresh frames and returns them.
    /// Backs nothing if fewer than `n` pages are left
    /// ([`MemError::FileFull`]) or the memory runs out.
    pub fn populate(&mut self, phys: &PhysicalMemory, n: usize) -> Result<&[FrameId], MemError> {
        let start = self.frames.len();
        if start + n > self.pages {
            return Err(MemError::FileFull);
        }
        self.frames.extend(phys.alloc_n(n)?);
        Ok(&self.frames[start..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_allocates_nothing() {
        let pm = PhysicalMemory::new();
        let a = MemFile::create(4);
        let b = MemFile::create(2);
        assert_ne!(a.id(), b.id());
        assert_eq!((a.pages(), a.len_bytes(), a.populated()), (4, 4 * PAGE_SIZE, 0));
        assert_eq!(pm.live_frames(), 0);
    }

    #[test]
    fn populate_allocates_exactly_n_frames_in_order() {
        let pm = PhysicalMemory::new();
        let mut f = MemFile::create(8);
        assert_eq!(f.populate(&pm, 3).unwrap(), &[FrameId(0), FrameId(1), FrameId(2)]);
        assert_eq!(pm.live_frames(), 3);
        assert_eq!(f.populate(&pm, 2).unwrap(), &[FrameId(3), FrameId(4)]);
        assert_eq!((f.populated(), pm.live_frames()), (5, 5));
        assert_eq!(pm.ref_count(FrameId(4)), 1, "the file holds one reference");
        assert_eq!(f.len_bytes(), 8 * PAGE_SIZE);
    }

    #[test]
    fn populating_past_the_end_is_refused() {
        let pm = PhysicalMemory::new();
        let mut f = MemFile::create(4);
        f.populate(&pm, 3).unwrap();
        assert_eq!(f.populate(&pm, 2), Err(MemError::FileFull));
        assert_eq!((f.populated(), pm.live_frames()), (3, 3));
        assert_eq!(f.populate(&pm, 1).unwrap(), &[FrameId(3)]);
        assert_eq!(f.populate(&pm, 1), Err(MemError::FileFull));
    }

    #[test]
    fn capped_memory_fails_at_populate_not_create() {
        let pm = PhysicalMemory::with_capacity(2);
        let mut f = MemFile::create(4);
        assert_eq!(f.populate(&pm, 3), Err(MemError::OutOfMemory));
        assert_eq!((f.populated(), pm.live_frames()), (0, 0));
        assert_eq!(f.populate(&pm, 2).unwrap().len(), 2);
        assert_eq!(f.populate(&pm, 1), Err(MemError::OutOfMemory));
        assert_eq!(f.populated(), 2);
    }
}
