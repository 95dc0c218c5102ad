//! memfd-style anonymous files.
//!
//! CoRM allocates physical memory through `memfd_create` so that physical
//! pages have a stable identity — a (file descriptor, page offset) tuple —
//! independent of any virtual mapping (§3.1.1). The paper uses 16 MiB files
//! to bound the number of descriptors. [`MemFile`] reproduces exactly that:
//! a named sequence of physical frames that virtual pages can be mapped to.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::phys::{FrameId, MemError, PhysicalMemory, PAGE_SIZE};

/// Identifier of a simulated anonymous file (the "file descriptor").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

static NEXT_FILE_ID: AtomicU32 = AtomicU32::new(1);

/// A memfd-style anonymous file: `pages` physical frames that live in RAM
/// and can be memory-mapped. The file itself holds one reference to each
/// frame; mappings add more.
#[derive(Debug)]
pub struct MemFile {
    id: FileId,
    frames: Vec<FrameId>,
}

impl MemFile {
    /// Creates an anonymous file of `pages` pages backed by fresh frames.
    pub fn create(phys: &PhysicalMemory, pages: usize) -> Result<Self, MemError> {
        let frames = phys.alloc_n(pages)?;
        Ok(MemFile { id: FileId(NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)), frames })
    }

    /// The file's descriptor.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Number of pages in the file.
    pub fn pages(&self) -> usize {
        self.frames.len()
    }

    /// File length in bytes.
    pub fn len_bytes(&self) -> usize {
        self.frames.len() * PAGE_SIZE
    }

    /// The frames backing pages `[page, page + n)`.
    pub fn frames_at(&self, page: usize, n: usize) -> Option<&[FrameId]> {
        self.frames.get(page..page + n)
    }

    /// Closes the file, dropping its reference on every frame. Frames that
    /// are still mapped somewhere stay alive until unmapped.
    pub fn close(self, phys: &PhysicalMemory) {
        for f in self.frames {
            phys.release(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_allocates_pages_with_unique_ids() {
        let pm = PhysicalMemory::new();
        let a = MemFile::create(&pm, 4).unwrap();
        let b = MemFile::create(&pm, 2).unwrap();
        assert_ne!(a.id(), b.id());
        assert_eq!(a.pages(), 4);
        assert_eq!(a.len_bytes(), 4 * PAGE_SIZE);
        assert_eq!(pm.live_frames(), 6);
        assert!(a.frames_at(3, 1).is_some());
        assert!(a.frames_at(4, 1).is_none());
    }

    #[test]
    fn frames_at_slices() {
        let pm = PhysicalMemory::new();
        let f = MemFile::create(&pm, 8).unwrap();
        assert_eq!(f.frames_at(2, 3).unwrap().len(), 3);
        assert!(f.frames_at(6, 3).is_none());
    }

    #[test]
    fn close_releases_unmapped_frames() {
        let pm = PhysicalMemory::new();
        let f = MemFile::create(&pm, 4).unwrap();
        let kept = f.frames_at(0, 1).unwrap()[0];
        pm.add_ref(kept).unwrap(); // simulate a live mapping
        f.close(&pm);
        assert_eq!(pm.live_frames(), 1);
        assert_eq!(pm.ref_count(kept), 1);
        pm.release(kept);
        assert_eq!(pm.live_frames(), 0);
    }

    #[test]
    fn create_respects_capacity() {
        let pm = PhysicalMemory::with_capacity(2);
        assert!(MemFile::create(&pm, 3).is_err());
        assert_eq!(pm.live_frames(), 0);
    }
}
