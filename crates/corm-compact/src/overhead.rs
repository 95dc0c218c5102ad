//! Per-object metadata accounting (§4.4.1, Table 3).
//!
//! CoRM stores, in every object header, the virtual address of the block
//! where the object was first allocated (28 bits with 48-bit pointers and
//! 20-bit-aligned 1 MiB blocks, §3.3) plus the object identifier (0–20
//! bits). Mesh stores nothing. These bits are what the memory experiments
//! charge against each strategy's compaction gains.

/// Bits needed to store the home-block virtual address: 48-bit virtual
/// pointers minus 20 bits of 1 MiB block alignment.
const HOME_VADDR_BITS: u32 = 28;

/// Per-object header bits for a compaction scheme with `id_bits`-bit object
/// IDs (Table 3). `None` models Mesh, which stores no per-object metadata.
pub fn header_bits(id_bits: Option<u32>) -> u32 {
    match id_bits {
        None => 0,
        Some(bits) => HOME_VADDR_BITS + bits,
    }
}

/// Header bits rounded up to whole bytes, which is how the space overhead
/// lands in an actual allocation.
pub fn header_bytes(id_bits: Option<u32>) -> usize {
    (header_bits(id_bits) as usize).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_bit_counts() {
        // Table 3: Mesh 0 / CoRM-0 28 / CoRM-8 36 / CoRM-12 40 / CoRM-16 44.
        assert_eq!(header_bits(None), 0);
        assert_eq!(header_bits(Some(0)), 28);
        assert_eq!(header_bits(Some(8)), 36);
        assert_eq!(header_bits(Some(12)), 40);
        assert_eq!(header_bits(Some(16)), 44);
    }

    #[test]
    fn header_bytes_round_up() {
        assert_eq!(header_bytes(None), 0);
        assert_eq!(header_bytes(Some(0)), 4); // 28 bits → 4 bytes
        assert_eq!(header_bytes(Some(8)), 5); // 36 bits → 5 bytes
        assert_eq!(header_bytes(Some(16)), 6); // 44 bits → 6 bytes
        assert_eq!(header_bytes(Some(20)), 6); // 48 bits → 6 bytes
    }
}
