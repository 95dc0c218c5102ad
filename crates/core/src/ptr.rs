//! 128-bit object pointers (§3, Table 2).
//!
//! "Allocations return 128-bit pointers that can be used to access objects.
//! Those pointers include the actual 64-bit object address and RDMA-related
//! metadata such as the r_key." CoRM additionally needs the object's
//! block-local ID (to detect relocation, §3.1.2) and — because clients
//! issue one-sided reads of the whole object — its size class.
//!
//! The virtual address doubles as the *offset hint* (§3.2): the object is
//! expected at `vaddr`, but after compaction it may sit at a different
//! offset of the same (remapped) block. Pointer correction rewrites the
//! hint in place, turning an indirect pointer back into a direct one.

/// A 128-bit CoRM object pointer.
///
/// Layout of the wire encoding (little-endian u128):
/// - bits   0..64: object virtual address (block base + offset hint)
/// - bits  64..96: `r_key` of the block's memory region
/// - bits 96..112: block-local object ID
/// - bits 112..120: size class
/// - bits 120..128: flags (bit 0: the pointer has been corrected at least
///   once and still references its original, now-aliased, block address)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalPtr {
    /// Object virtual address: block base plus the offset hint.
    pub vaddr: u64,
    /// Remote key of the registered block.
    pub rkey: u32,
    /// Block-local random object ID.
    pub obj_id: u16,
    /// Size class index of the object.
    pub class: u8,
    /// Flag bits.
    pub flags: u8,
}

impl GlobalPtr {
    /// Flag: the pointer was corrected after its object moved (it still
    /// references the old block address; see §3.3 on releasing it).
    const FLAG_OLD_BLOCK: u8 = 0b1;

    /// Packs the pointer into its 128-bit wire form.
    pub fn encode(self) -> u128 {
        (self.vaddr as u128)
            | ((self.rkey as u128) << 64)
            | ((self.obj_id as u128) << 96)
            | ((self.class as u128) << 112)
            | ((self.flags as u128) << 120)
    }

    /// Unpacks a pointer from its 128-bit wire form.
    pub fn decode(raw: u128) -> Self {
        GlobalPtr {
            vaddr: raw as u64,
            rkey: (raw >> 64) as u32,
            obj_id: (raw >> 96) as u16,
            class: (raw >> 112) as u8,
            flags: (raw >> 120) as u8,
        }
    }

    /// Byte-array form (for embedding in messages).
    pub fn to_bytes(self) -> [u8; 16] {
        self.encode().to_le_bytes()
    }

    /// Parses the byte-array form.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Self::decode(u128::from_le_bytes(bytes))
    }

    /// The base virtual address of the block this pointer references,
    /// given the server's block size.
    pub fn block_base(&self, block_bytes: usize) -> u64 {
        debug_assert!(block_bytes.is_power_of_two());
        self.vaddr & !(block_bytes as u64 - 1)
    }

    /// Byte offset of the hint within its block.
    pub fn block_offset(&self, block_bytes: usize) -> usize {
        (self.vaddr - self.block_base(block_bytes)) as usize
    }

    /// Rewrites the offset hint to `new_offset` within the same block and
    /// marks the pointer as referencing its old block (pointer correction,
    /// §3.2).
    pub fn correct_offset(&mut self, block_bytes: usize, new_offset: usize) {
        debug_assert!(new_offset < block_bytes);
        self.vaddr = self.block_base(block_bytes) + new_offset as u64;
        self.flags |= Self::FLAG_OLD_BLOCK;
    }

    /// Whether the pointer references an old (aliased) block address.
    pub fn references_old_block(&self) -> bool {
        self.flags & Self::FLAG_OLD_BLOCK != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GlobalPtr {
        GlobalPtr {
            vaddr: 0x0000_1000_0012_3480,
            rkey: 0xdead_beef,
            obj_id: 0xab12,
            class: 7,
            flags: 0,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = sample();
        assert_eq!(GlobalPtr::decode(p.encode()), p);
        assert_eq!(GlobalPtr::from_bytes(p.to_bytes()), p);
    }

    #[test]
    fn wire_form_is_128_bits_with_expected_fields() {
        let p = sample();
        let raw = p.encode();
        assert_eq!(raw as u64, p.vaddr);
        assert_eq!((raw >> 64) as u32, p.rkey);
        assert_eq!((raw >> 96) as u16, p.obj_id);
        assert_eq!((raw >> 112) as u8, p.class);
    }

    #[test]
    fn block_base_and_offset() {
        let p = sample();
        assert_eq!(p.block_base(4096), 0x0000_1000_0012_3000);
        assert_eq!(p.block_offset(4096), 0x480);
        assert_eq!(p.block_base(1 << 20), 0x0000_1000_0010_0000);
    }

    #[test]
    fn correct_offset_moves_hint_and_sets_flag() {
        let mut p = sample();
        assert!(!p.references_old_block());
        p.correct_offset(4096, 0x100);
        assert_eq!(p.vaddr, 0x0000_1000_0012_3100);
        assert!(p.references_old_block());
        assert_eq!(p.block_base(4096), 0x0000_1000_0012_3000, "same block");
    }

    #[test]
    fn all_ones_fields_survive() {
        let p = GlobalPtr {
            vaddr: u64::MAX,
            rkey: u32::MAX,
            obj_id: u16::MAX,
            class: u8::MAX,
            flags: u8::MAX,
        };
        assert_eq!(GlobalPtr::decode(p.encode()), p);
    }
}
