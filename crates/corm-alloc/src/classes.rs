//! Size classes (§3.1.1).
//!
//! "The allocator supports a list of distinct 8-byte aligned sizes, that
//! are chosen to reduce the average internal fragmentation due to round up
//! to the nearest size class." The default table below uses a ~1.25–1.5×
//! progression, the same shape as jemalloc/Hoard-style allocators, covering
//! every object size the evaluation touches (8 B payloads to 16 KiB
//! values) once the 8-byte object header is added.

/// Bytes of the on-object header the CoRM data plane prepends to every
/// object (object ID, version, lock bits, home-block address — see
/// `corm-core`'s header layout).
const OBJECT_HEADER_BYTES: usize = 8;

/// Index of a size class in a [`SizeClasses`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u16);

/// An ordered table of gross (header-inclusive) object sizes.
#[derive(Debug, Clone)]
pub struct SizeClasses {
    sizes: Vec<usize>,
}

impl Default for SizeClasses {
    fn default() -> Self {
        Self::standard()
    }
}

impl SizeClasses {
    /// The default class table: 8-byte aligned, ~1.25–1.5× spacing, from 16
    /// bytes (smallest object + header) to 16 KiB + header room.
    pub fn standard() -> Self {
        SizeClasses {
            sizes: vec![
                16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1280, 1536, 2048, 2560,
                3072, 4096, 5120, 6144, 8192, 10240, 12288, 16384, 20480,
            ],
        }
    }

    /// Builds a custom table. Sizes must be ascending, distinct, 8-byte
    /// aligned, and at least 16: the 8-byte object header plus 8.
    pub fn new(sizes: Vec<usize>) -> Self {
        assert!(!sizes.is_empty(), "empty class table");
        let mut prev = 0;
        for &s in &sizes {
            assert!(s % 8 == 0, "class size {s} not 8-byte aligned");
            assert!(s > prev, "class sizes must be strictly ascending");
            assert!(s >= OBJECT_HEADER_BYTES + 8, "class size {s} too small");
            prev = s;
        }
        SizeClasses { sizes }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Gross object size of a class.
    pub fn size_of(&self, class: ClassId) -> usize {
        self.sizes[class.0 as usize]
    }

    /// The smallest class whose gross size fits `payload` bytes plus the
    /// object header; `None` if the payload exceeds the largest class.
    pub fn class_for_payload(&self, payload: usize) -> Option<ClassId> {
        let need = payload + OBJECT_HEADER_BYTES;
        let idx = self.sizes.partition_point(|&s| s < need);
        (idx < self.sizes.len()).then_some(ClassId(idx as u16))
    }

    /// Iterates `(ClassId, gross size)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, usize)> + '_ {
        self.sizes.iter().enumerate().map(|(i, &s)| (ClassId(i as u16), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_is_valid() {
        let t = SizeClasses::standard();
        assert!(t.len() > 20);
        let mut prev = 0;
        for (_, s) in t.iter() {
            assert_eq!(s % 8, 0);
            assert!(s > prev);
            prev = s;
        }
    }

    #[test]
    fn class_for_payload_rounds_up_with_header() {
        let t = SizeClasses::standard();
        // 8-byte payload + 8-byte header = 16 → first class.
        assert_eq!(t.class_for_payload(8), Some(ClassId(0)));
        // 9-byte payload needs 17 → next class (24).
        let c = t.class_for_payload(9).unwrap();
        assert_eq!(t.size_of(c), 24);
        // 2048-byte payload + header = 2056 → 2560 class.
        let c = t.class_for_payload(2048).unwrap();
        assert_eq!(t.size_of(c), 2560);
    }

    #[test]
    fn oversized_payload_rejected() {
        let t = SizeClasses::standard();
        assert!(t.class_for_payload(1 << 20).is_none());
        assert!(t.class_for_payload(20480 - 8).is_some());
    }

    #[test]
    fn largest_payload_of_each_class_maps_back_to_it() {
        let t = SizeClasses::standard();
        for (class, size) in t.iter() {
            assert_eq!(t.class_for_payload(size - OBJECT_HEADER_BYTES), Some(class));
        }
    }

    #[test]
    fn internal_waste_below_class_spacing() {
        let t = SizeClasses::standard();
        // The table's growth factor keeps waste under ~34% of the payload.
        for payload in (8..16000).step_by(97) {
            let class = t.class_for_payload(payload).unwrap();
            let waste = t.size_of(class) - OBJECT_HEADER_BYTES - payload;
            assert!(
                (waste as f64) <= 0.34 * payload as f64 + 16.0,
                "payload {payload} wastes {waste}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not 8-byte aligned")]
    fn unaligned_custom_class_rejected() {
        SizeClasses::new(vec![20]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn non_ascending_rejected() {
        SizeClasses::new(vec![32, 24]);
    }
}
