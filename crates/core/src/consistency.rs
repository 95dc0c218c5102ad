//! FaRM-style cacheline versioning (§3.2.3).
//!
//! One-sided RDMA readers cannot take locks, so CoRM (like FaRM) embeds the
//! object version in the header *and* in the first byte of every subsequent
//! 64-byte cacheline. A writer bumps the version and rewrites all version
//! bytes; a reader accepts an object only if every cacheline carries the
//! header's version and the header is valid and unlocked. Any interleaving
//! with a concurrent write or compaction therefore either matches (the read
//! saw a complete object) or is rejected and retried.
//!
//! **Residual ABA window.** Versions are 8 bits (one byte per cacheline),
//! so a reader whose fetch is interleaved by *exactly* a multiple of 256
//! writes to the same object observes matching version bytes over mixed
//! generations. With real DMA (a few microseconds per fetch) and per-write
//! costs in the same range this cannot happen; it is reachable in this
//! simulation only when the reading thread is descheduled mid-copy, and is
//! bounded and asserted in the race-test suite. FaRM inherits the same
//! property; widening the per-line version trades payload capacity for a
//! smaller window.
//!
//! Slot layout for a class of gross size `S` (a multiple of 8):
//! ```text
//!  line 0: [8-byte header][payload ...]
//!  line k>0: [1-byte version][payload ...]
//! ```
//! so the payload capacity is `S - 8 - (ceil(S/64) - 1)` bytes.

use crate::header::{ObjectHeader, HEADER_BYTES};

/// Cacheline size the versioning scheme assumes (cache-coherent DMA).
const CACHELINE: usize = 64;

/// Why a lock-free read of a slot image was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFailure {
    /// The slot's header carries a different object ID than requested —
    /// the object was relocated by compaction (pointer correction needed).
    IdMismatch {
        /// ID found in the slot (if the slot is valid).
        found: u16,
    },
    /// The slot holds no live object.
    NotValid,
    /// The object is locked (write or compaction in progress).
    Locked,
    /// Cacheline versions disagree — the read raced a write; retry.
    TornRead,
}

impl std::fmt::Display for ReadFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFailure::IdMismatch { found } => write!(f, "object id mismatch (found {found})"),
            ReadFailure::NotValid => write!(f, "slot not valid"),
            ReadFailure::Locked => write!(f, "object locked"),
            ReadFailure::TornRead => write!(f, "torn read (version mismatch)"),
        }
    }
}

/// Geometry of an object slot under cacheline versioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLayout {
    /// Gross slot size in bytes.
    pub(crate) slot_bytes: usize,
    /// Number of cachelines the slot spans (last may be partial).
    pub(crate) lines: usize,
    /// Usable payload bytes.
    pub capacity: usize,
}

/// Computes the layout of a slot of `slot_bytes` gross bytes.
pub fn layout(slot_bytes: usize) -> SlotLayout {
    assert!(slot_bytes >= HEADER_BYTES + 8, "slot too small: {slot_bytes}");
    let lines = slot_bytes.div_ceil(CACHELINE);
    SlotLayout { slot_bytes, lines, capacity: slot_bytes - HEADER_BYTES - (lines - 1) }
}

/// Builds the full slot image for an object in `out` — header, version
/// bytes, and payload scattered around them. `out` is cleared and
/// zero-filled first, so a recycled buffer produces an image byte-identical
/// to a fresh allocation.
///
/// # Panics
///
/// Panics if the payload exceeds the slot's capacity.
pub fn scatter_into(header: ObjectHeader, payload: &[u8], slot_bytes: usize, out: &mut Vec<u8>) {
    let lay = layout(slot_bytes);
    assert!(
        payload.len() <= lay.capacity,
        "payload {} exceeds capacity {}",
        payload.len(),
        lay.capacity
    );
    out.clear();
    out.resize(slot_bytes, 0);
    let image = &mut out[..];
    image[..HEADER_BYTES].copy_from_slice(&header.to_bytes());
    let mut src = 0;
    let mut dst = HEADER_BYTES;
    while src < payload.len() {
        if dst.is_multiple_of(CACHELINE) {
            image[dst] = header.version;
            dst += 1;
            continue;
        }
        let line_end = (dst / CACHELINE + 1) * CACHELINE;
        let n = (line_end - dst).min(payload.len() - src);
        image[dst..dst + n].copy_from_slice(&payload[src..src + n]);
        src += n;
        dst += n;
    }
    // Stamp version bytes of lines beyond the payload too, so short
    // payloads still validate over the whole slot.
    for line in 1..lay.lines {
        image[line * CACHELINE] = header.version;
    }
}

/// Validates a slot image read lock-free and copies up to `out.len()`
/// payload bytes straight into `out` (the caller-owned buffer). `expect_id`
/// enables the relocation check of §3.2.2. Returns the header and the bytes
/// written.
pub fn gather_into(
    image: &[u8],
    expect_id: Option<u16>,
    out: &mut [u8],
) -> Result<(ObjectHeader, usize), ReadFailure> {
    assert!(image.len() >= HEADER_BYTES + 8, "image too small");
    let lay = layout(image.len());
    let header = ObjectHeader::from_bytes(image[..HEADER_BYTES].try_into().expect("8-byte header"));
    if !header.valid {
        return Err(ReadFailure::NotValid);
    }
    if let Some(id) = expect_id {
        if header.obj_id != id {
            return Err(ReadFailure::IdMismatch { found: header.obj_id });
        }
    }
    if !header.readable() {
        return Err(ReadFailure::Locked);
    }
    // Consistency: every cacheline's version byte must match the header.
    for line in 1..lay.lines {
        if image[line * CACHELINE] != header.version {
            return Err(ReadFailure::TornRead);
        }
    }
    let take = out.len().min(lay.capacity);
    let mut written = 0;
    let mut src = HEADER_BYTES;
    while written < take {
        if src.is_multiple_of(CACHELINE) {
            src += 1;
            continue;
        }
        let line_end = (src / CACHELINE + 1) * CACHELINE;
        let n = (line_end.min(image.len()) - src).min(take - written);
        out[written..written + n].copy_from_slice(&image[src..src + n]);
        written += n;
        src += n;
    }
    Ok((header, written))
}

/// The smallest gross slot size (from `classes`' gross sizes) whose
/// versioned capacity fits `payload` bytes.
pub fn class_for_payload(
    classes: &corm_alloc::SizeClasses,
    payload: usize,
) -> Option<corm_alloc::ClassId> {
    classes.iter().find(|&(_, size)| layout(size).capacity >= payload).map(|(class, _)| class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::LockState;

    fn hdr(id: u16, version: u8) -> ObjectHeader {
        ObjectHeader::new(id, version, 3)
    }

    fn scatter(header: ObjectHeader, payload: &[u8], slot_bytes: usize) -> Vec<u8> {
        let mut image = Vec::new();
        scatter_into(header, payload, slot_bytes, &mut image);
        image
    }

    fn gather(
        image: &[u8],
        expect_id: Option<u16>,
        want: usize,
    ) -> Result<(ObjectHeader, Vec<u8>), ReadFailure> {
        let mut payload = vec![0u8; want];
        let (header, n) = gather_into(image, expect_id, &mut payload)?;
        payload.truncate(n);
        Ok((header, payload))
    }

    #[test]
    fn layout_capacities() {
        assert_eq!(layout(16).capacity, 8); // 1 line
        assert_eq!(layout(64).capacity, 56); // 1 line
        assert_eq!(layout(128).capacity, 128 - 8 - 1); // 2 lines
        assert_eq!(layout(2560).capacity, 2560 - 8 - 39); // 40 lines
    }

    #[test]
    fn scatter_gather_round_trip_small() {
        let payload = b"tiny".to_vec();
        let image = scatter(hdr(7, 1), &payload, 16);
        let (h, got) = gather(&image, Some(7), payload.len()).unwrap();
        assert_eq!(got, payload);
        assert_eq!(h.version, 1);
    }

    #[test]
    fn scatter_gather_round_trip_multiline() {
        for slot in [64usize, 128, 256, 1024, 2560] {
            let cap = layout(slot).capacity;
            let payload: Vec<u8> = (0..cap).map(|i| (i * 7 % 251) as u8).collect();
            let image = scatter(hdr(9, 5), &payload, slot);
            assert_eq!(image.len(), slot);
            let (_, got) = gather(&image, Some(9), cap).unwrap();
            assert_eq!(got, payload, "slot {slot}");
        }
    }

    #[test]
    fn version_bytes_placed_at_line_starts() {
        let payload = vec![0xAA; layout(256).capacity];
        let image = scatter(hdr(1, 42), &payload, 256);
        for line in 1..4 {
            assert_eq!(image[line * 64], 42, "line {line} version byte");
        }
    }

    #[test]
    fn torn_read_detected() {
        let payload = vec![1u8; layout(256).capacity];
        let mut image = scatter(hdr(1, 7), &payload, 256);
        image[128] = 8; // a cacheline from a newer write
        assert_eq!(gather(&image, Some(1), 10), Err(ReadFailure::TornRead));
    }

    #[test]
    fn id_mismatch_detected_before_lock_or_tear() {
        let payload = vec![1u8; 8];
        let image = scatter(hdr(5, 1).with_lock(LockState::WriteLocked), &payload, 128);
        assert_eq!(gather(&image, Some(6), 8), Err(ReadFailure::IdMismatch { found: 5 }));
    }

    #[test]
    fn locked_object_rejected() {
        for lock in [LockState::WriteLocked, LockState::CompactionLocked] {
            let image = scatter(hdr(5, 1).with_lock(lock), b"x", 64);
            assert_eq!(gather(&image, Some(5), 1), Err(ReadFailure::Locked));
        }
    }

    #[test]
    fn invalid_slot_rejected() {
        let image = scatter(hdr(5, 1).invalidated(), b"", 64);
        assert_eq!(gather(&image, Some(5), 1), Err(ReadFailure::NotValid));
        // Without an ID expectation, still rejected as not valid.
        assert_eq!(gather(&image, None, 1), Err(ReadFailure::NotValid));
    }

    #[test]
    fn short_read_returns_prefix() {
        let cap = layout(256).capacity;
        let payload: Vec<u8> = (0..cap as u32).map(|i| i as u8).collect();
        let image = scatter(hdr(2, 3), &payload, 256);
        let (_, got) = gather(&image, Some(2), 10).unwrap();
        assert_eq!(got, payload[..10]);
    }

    #[test]
    fn class_selection_accounts_for_version_bytes() {
        let classes = corm_alloc::SizeClasses::standard();
        // 2048-byte payload cannot fit class 2048 (capacity 2009) → 2560.
        let c = class_for_payload(&classes, 2048).unwrap();
        assert_eq!(classes.size_of(c), 2560);
        // 8-byte payload fits the smallest class.
        let c = class_for_payload(&classes, 8).unwrap();
        assert_eq!(classes.size_of(c), 16);
        assert!(class_for_payload(&classes, 1 << 20).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_payload_panics() {
        scatter(hdr(1, 1), &[0u8; 60], 64);
    }
}
