//! The 8-byte on-memory object header.
//!
//! Every object slot starts with a header packing the metadata the paper
//! stores "in the header of each object":
//! - the block-local object ID (§3.1.2), used to detect relocated objects;
//! - the object version (§3.2.3), mirrored into the first byte of every
//!   subsequent cacheline for lock-free consistency checks;
//! - a 2-bit lock state (§3.2.3): compaction locks objects before moving
//!   them, and RPC writes lock them briefly;
//! - the *home block index* (§3.3): which block vaddr the object was first
//!   allocated in, enabling virtual-address reuse once every object homed
//!   at an address is gone. The paper sizes this at 28 bits.
//! - a valid bit distinguishing allocated slots from free ones.
//!
//! Bit layout of the little-endian u64:
//! ```text
//!  bits  0..16  object ID
//!  bits 16..24  version
//!  bits 24..26  lock state
//!  bit  26      valid
//!  bits 27..55  home block index (28 bits)
//!  bits 55..64  reserved
//! ```

/// Size of the header in bytes.
pub(crate) const HEADER_BYTES: usize = 8;

/// Lock states stored in the 2-bit lock field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockState {
    /// Unlocked: readable.
    Free = 0,
    /// Locked by a writer (RPC write in flight).
    WriteLocked = 1,
    /// Locked by the compaction leader (object under migration).
    CompactionLocked = 2,
}

impl LockState {
    fn from_bits(bits: u64) -> LockState {
        match bits & 0b11 {
            0 => LockState::Free,
            1 => LockState::WriteLocked,
            2 => LockState::CompactionLocked,
            _ => LockState::CompactionLocked, // 3 is unused; treat as locked
        }
    }
}

/// Decoded object header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectHeader {
    /// Block-local object ID.
    pub obj_id: u16,
    /// Object version (wraps at 256; mirrored into cacheline version
    /// bytes).
    pub version: u8,
    /// Lock state.
    pub lock: LockState,
    /// Whether the slot holds a live object.
    pub valid: bool,
    /// Index of the home block (block-size units above the mmap base).
    pub(crate) home_block: u32,
}

impl ObjectHeader {
    /// Maximum representable home-block index (28 bits).
    const MAX_HOME_BLOCK: u32 = (1 << 28) - 1;

    /// Creates a fresh, unlocked, valid header.
    pub fn new(obj_id: u16, version: u8, home_block: u32) -> Self {
        assert!(home_block <= Self::MAX_HOME_BLOCK, "home index overflow");
        ObjectHeader { obj_id, version, lock: LockState::Free, valid: true, home_block }
    }

    /// Packs the header into its on-memory u64.
    pub fn encode(self) -> u64 {
        (self.obj_id as u64)
            | ((self.version as u64) << 16)
            | ((self.lock as u64) << 24)
            | ((self.valid as u64) << 26)
            | ((self.home_block as u64 & 0x0FFF_FFFF) << 27)
    }

    /// Unpacks a header from its on-memory u64.
    pub fn decode(raw: u64) -> Self {
        ObjectHeader {
            obj_id: raw as u16,
            version: (raw >> 16) as u8,
            lock: LockState::from_bits(raw >> 24),
            valid: (raw >> 26) & 1 == 1,
            home_block: ((raw >> 27) & 0x0FFF_FFFF) as u32,
        }
    }

    /// On-memory byte form (little endian).
    pub fn to_bytes(self) -> [u8; HEADER_BYTES] {
        self.encode().to_le_bytes()
    }

    /// Parses the on-memory byte form.
    pub fn from_bytes(bytes: [u8; HEADER_BYTES]) -> Self {
        Self::decode(u64::from_le_bytes(bytes))
    }

    /// Whether a lock-free reader may use this object.
    pub fn readable(&self) -> bool {
        self.valid && self.lock == LockState::Free
    }

    /// Returns the header with the version bumped (wrapping).
    pub(crate) fn bump_version(mut self) -> Self {
        self.version = self.version.wrapping_add(1);
        self
    }

    /// Returns the header with the given lock state.
    pub fn with_lock(mut self, lock: LockState) -> Self {
        self.lock = lock;
        self
    }

    /// Returns the header marked invalid (freed slot).
    pub(crate) fn invalidated(mut self) -> Self {
        self.valid = false;
        self
    }
}

/// Converts a block base vaddr to a home-block index, given the mmap base
/// and block size.
pub(crate) fn home_index(block_base: u64, mmap_base: u64, block_bytes: usize) -> u32 {
    debug_assert!(block_base >= mmap_base);
    let idx = (block_base - mmap_base) / block_bytes as u64;
    debug_assert!(idx <= ObjectHeader::MAX_HOME_BLOCK as u64, "vaddr space overflow");
    idx as u32
}

/// Converts a home-block index back to the block base vaddr.
pub(crate) fn home_base(index: u32, mmap_base: u64, block_bytes: usize) -> u64 {
    mmap_base + index as u64 * block_bytes as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let h = ObjectHeader::new(0xBEEF, 42, 12345);
        assert_eq!(ObjectHeader::decode(h.encode()), h);
        assert_eq!(ObjectHeader::from_bytes(h.to_bytes()), h);
    }

    #[test]
    fn lock_states_round_trip() {
        for lock in [LockState::Free, LockState::WriteLocked, LockState::CompactionLocked] {
            let h = ObjectHeader::new(1, 1, 1).with_lock(lock);
            assert_eq!(ObjectHeader::decode(h.encode()).lock, lock);
        }
    }

    #[test]
    fn readable_requires_valid_and_unlocked() {
        let h = ObjectHeader::new(1, 1, 0);
        assert!(h.readable());
        assert!(!h.with_lock(LockState::WriteLocked).readable());
        assert!(!h.with_lock(LockState::CompactionLocked).readable());
        assert!(!h.invalidated().readable());
    }

    #[test]
    fn version_wraps() {
        let h = ObjectHeader::new(1, 255, 0).bump_version();
        assert_eq!(h.version, 0);
    }

    #[test]
    fn max_home_block_fits_28_bits() {
        let h = ObjectHeader::new(7, 1, ObjectHeader::MAX_HOME_BLOCK);
        let d = ObjectHeader::decode(h.encode());
        assert_eq!(d.home_block, ObjectHeader::MAX_HOME_BLOCK);
        assert_eq!(d.obj_id, 7, "no field bleed");
    }

    #[test]
    #[should_panic(expected = "home index overflow")]
    fn oversized_home_index_rejected() {
        ObjectHeader::new(1, 1, 1 << 28);
    }

    #[test]
    fn home_index_round_trips() {
        let base = 0x0000_1000_0000_0000u64;
        for blocks in [4096usize, 1 << 20] {
            for i in [0u32, 1, 77, 10_000] {
                let vaddr = home_base(i, base, blocks);
                assert_eq!(home_index(vaddr, base, blocks), i);
            }
        }
    }

    #[test]
    fn freed_header_keeps_id_for_diagnostics() {
        let h = ObjectHeader::new(0x1234, 9, 5).invalidated();
        let d = ObjectHeader::decode(h.encode());
        assert!(!d.valid);
        assert_eq!(d.obj_id, 0x1234);
        assert_eq!(d.version, 9);
    }
}
