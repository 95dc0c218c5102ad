//! Which blocks of a bin have room.
//!
//! A thread allocator serves an allocation from the newest block of the
//! bin that has a free slot. Scanning for it costs a lock per full block;
//! instead every block reports, under its own lock, when it turns full or
//! gets room again, and the allocator reads the answer here. Frees reach a
//! block from any thread and never pass through the allocator, so the map
//! is shared: the allocator holds one [`BinRoom`] per bin and every block
//! of the bin holds the same one, beside its position.
//!
//! Lock order: a block's lock, then the room's. The room's lock is a leaf;
//! nothing is acquired under it.

use parking_lot::Mutex;

/// One bit per bin position, set while the block there has a free slot.
#[derive(Debug, Default)]
pub(crate) struct BinRoom(Mutex<RoomMap>);

/// `words` holds the bits; bit `w` of `summary` is set while `words[w]` is
/// non-zero, so the highest set bit is two `leading_zeros` away for bins of
/// up to 4,096 blocks, and one more word read per further 4,096.
#[derive(Debug, Default)]
struct RoomMap {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl BinRoom {
    /// Records whether the block at `pos` has room.
    pub(crate) fn set(&self, pos: usize, has_room: bool) {
        let mut map = self.0.lock();
        let (w, bit) = (pos / 64, 1u64 << (pos % 64));
        if w >= map.words.len() {
            if !has_room {
                return;
            }
            map.words.resize(w + 1, 0);
            map.summary.resize(w / 64 + 1, 0);
        }
        let (s, sbit) = (w / 64, 1u64 << (w % 64));
        if has_room {
            map.words[w] |= bit;
            map.summary[s] |= sbit;
        } else {
            map.words[w] &= !bit;
            if map.words[w] == 0 {
                map.summary[s] &= !sbit;
            }
        }
    }

    /// The highest position whose block has room.
    pub(crate) fn newest(&self) -> Option<usize> {
        let map = self.0.lock();
        let top = |word: u64| 63 - word.leading_zeros() as usize;
        let s = map.summary.iter().rposition(|&word| word != 0)?;
        let w = s * 64 + top(map.summary[s]);
        Some(w * 64 + top(map.words[w]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newest_is_the_highest_position_with_room() {
        let room = BinRoom::default();
        assert_eq!(room.newest(), None);
        room.set(3, false);
        assert_eq!(room.newest(), None, "clearing past the end is a no-op");
        for pos in [3, 64, 5000] {
            room.set(pos, true);
        }
        assert_eq!(room.newest(), Some(5000));
        room.set(5000, false);
        assert_eq!(room.newest(), Some(64));
        room.set(64, false);
        room.set(64, false);
        assert_eq!(room.newest(), Some(3));
        room.set(4100, true);
        assert_eq!(room.newest(), Some(4100), "second summary word");
        room.set(4100, false);
        room.set(3, false);
        assert_eq!(room.newest(), None);
    }
}
