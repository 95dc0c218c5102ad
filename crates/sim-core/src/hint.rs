//! Cache hints for the simulator's own memory traffic.
//!
//! The simulated NIC serves a doorbell's requests one after another, and
//! each request walks a chain of lines that depend on one another. A real
//! RNIC overlaps those walks; the host CPU does too, once it is told about
//! the lines of every chain before any of them is needed.

/// Bytes in a cache line of every x86_64 CPU.
const LINE: usize = 64;

/// Asks the CPU to start loading the cache line `addr` lies in.
#[inline(always)]
fn prefetch_addr(addr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` is part of SSE, which every x86_64 CPU has,
        // so the instruction exists wherever this compiles. It cannot
        // fault and changes no architectural state for any address, mapped
        // or not; both callers pass one inside a live reference's referent
        // besides.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(addr.cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

/// Asks the CPU to start loading the cache line `r` points into, without
/// waiting for it. A hint only: it reads nothing, orders nothing, and the
/// program behaves the same whether or not the line ever arrives. Does
/// nothing on targets other than x86_64.
#[inline(always)]
pub fn prefetch_read<T: ?Sized>(r: &T) {
    prefetch_addr(std::ptr::from_ref(r).cast::<u8>());
}

/// [`prefetch_read`] for every line the referent of `r` covers, from the
/// one its first byte lies in to the one its last byte lies in: a
/// `Mutex<Block>` spans four, and its reader wants the lock word in the
/// first as much as the fields in the last. A zero-sized referent covers
/// no line.
#[inline(always)]
pub fn prefetch_lines<T: ?Sized>(r: &T) {
    let first = std::ptr::from_ref(r).cast::<u8>();
    for offset in line_offsets(first as usize, std::mem::size_of_val(r)) {
        prefetch_addr(first.wrapping_add(offset));
    }
}

/// One offset from `addr` into each line that `[addr, addr + len)` covers.
fn line_offsets(addr: usize, len: usize) -> impl Iterator<Item = usize> {
    // The first offset is 0; the following ones are the line starts.
    let lead = addr % LINE;
    (0..len.min(1)).chain((LINE - lead..len).step_by(LINE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hinting_reads_and_changes_nothing() {
        let sized = 7u64;
        let slice: &[u8] = &[1, 2, 3];
        let empty: &[u64] = &[];
        prefetch_read(&sized);
        prefetch_read(slice);
        prefetch_read(empty);
        prefetch_read("str");
        assert_eq!((sized, slice, empty.len()), (7, &[1u8, 2, 3][..], 0));
    }

    #[test]
    fn hinting_every_line_reads_and_changes_nothing() {
        let wide = [3u64; 40];
        let slice: &[u8] = &[1, 2, 3];
        let empty: &[u64] = &[];
        prefetch_lines(&wide);
        prefetch_lines(&wide[1..39]);
        prefetch_lines(slice);
        prefetch_lines(empty);
        prefetch_lines("str");
        prefetch_lines(&());
        assert_eq!((wide, slice, empty.len()), ([3u64; 40], &[1u8, 2, 3][..], 0));
    }

    #[test]
    fn every_covered_line_is_hinted_once() {
        let lines = |addr: usize, len: usize| -> Vec<usize> {
            line_offsets(addr, len).map(|o| (addr + o) / LINE).collect()
        };
        // 256 bytes on a line boundary: four lines; off it: five.
        assert_eq!(lines(0x1000, 256), vec![0x40, 0x41, 0x42, 0x43]);
        assert_eq!(lines(0x1010, 256), vec![0x40, 0x41, 0x42, 0x43, 0x44]);
        // The last byte decides the last line.
        assert_eq!(lines(0x1010, 48), vec![0x40]);
        assert_eq!(lines(0x1010, 49), vec![0x40, 0x41]);
        assert_eq!(lines(0x103f, 1), vec![0x40]);
        assert_eq!(lines(0x103f, 2), vec![0x40, 0x41]);
        assert_eq!(lines(0x1000, 64), vec![0x40]);
        assert_eq!(lines(0x1000, 65), vec![0x40, 0x41]);
        assert_eq!(lines(0x1020, 0), Vec::<usize>::new());
        // Exhaustively against the definition, for small cases.
        for addr in 0..130usize {
            for len in 0..200usize {
                let want: Vec<usize> = if len == 0 {
                    vec![]
                } else {
                    (addr / LINE..=(addr + len - 1) / LINE).collect()
                };
                assert_eq!(lines(addr, len), want, "addr {addr} len {len}");
            }
        }
    }
}
