//! Cache hints for the simulator's own memory traffic.
//!
//! The simulated NIC serves a doorbell's requests one after another, and
//! each request walks a chain of lines that depend on one another. A real
//! RNIC overlaps those walks; the host CPU does too, once it is told about
//! the lines of every chain before any of them is needed.

/// Asks the CPU to start loading the cache line `r` points into, without
/// waiting for it. A hint only: it reads nothing, orders nothing, and the
/// program behaves the same whether or not the line ever arrives. Does
/// nothing on targets other than x86_64.
#[inline(always)]
pub fn prefetch_read<T: ?Sized>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` is part of SSE, which every x86_64 CPU has,
        // so the instruction exists wherever this compiles. It cannot
        // fault and changes no architectural state for any address; this
        // one is a live reference's besides.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(r).cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
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
}
