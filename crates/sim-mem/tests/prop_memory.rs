//! Property-based tests of the simulated memory subsystem.

use std::sync::Arc;

use corm_check::{check, ensure, ensure_eq};

use corm_sim_mem::{AddressSpace, MemError, PhysicalMemory, PAGE_SIZE};

/// CPU reads always return the last CPU write, for arbitrary offsets
/// and lengths, including page-crossing accesses.
#[test]
fn read_your_writes() {
    check(64, |g| {
        let (pages, offset) = (g.range(1usize..4), g.range(0usize..8192));
        let data = g.vec(1..512, |g| g.range(0..=u8::MAX));
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(pages).unwrap();
        let aspace = AddressSpace::new(pm);
        let va = aspace.mmap(&frames).unwrap();
        let span = pages * PAGE_SIZE;
        let offset = offset % span;
        if offset + data.len() > span {
            // Out-of-mapping access must fail without partial effects.
            ensure!(aspace.write(va + offset as u64, &data).is_err());
            return Ok(());
        }
        aspace.write(va + offset as u64, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        aspace.read(va + offset as u64, &mut buf).unwrap();
        ensure_eq!(buf, data);
        Ok(())
    });
}

/// Remapping sequences keep refcounts exact: after unmapping
/// everything, only allocator references remain.
#[test]
fn refcounts_balance() {
    check(64, |g| {
        let ops = g.vec(1..30, |g| g.range(0usize..3));
        let pm = Arc::new(PhysicalMemory::new());
        let f1 = pm.alloc().unwrap();
        let f2 = pm.alloc().unwrap();
        let aspace = AddressSpace::new(pm.clone());
        let va = aspace.mmap(&[f1]).unwrap();
        for op in ops {
            match op {
                0 => aspace.remap(va, &[f2]).unwrap(),
                1 => aspace.remap(va, &[f1]).unwrap(),
                _ => {
                    let t = aspace.translate(va).unwrap();
                    let mut b = [0u8; 1];
                    pm.read(t.frame, 0, &mut b).unwrap();
                }
            }
        }
        aspace.munmap(va, 1).unwrap();
        ensure_eq!(pm.ref_count(f1), 1);
        ensure_eq!(pm.ref_count(f2), 1);
        ensure!(aspace.translate(va).is_err());
        Ok(())
    });
}

/// Epochs strictly increase across remaps of the same page.
#[test]
fn epochs_monotonic() {
    check(64, |g| {
        let n = g.range(1usize..20);
        let pm = Arc::new(PhysicalMemory::new());
        let f1 = pm.alloc().unwrap();
        let f2 = pm.alloc().unwrap();
        let aspace = AddressSpace::new(pm);
        let va = aspace.mmap(&[f1]).unwrap();
        let mut last = aspace.translate(va).unwrap().epoch;
        for i in 0..n {
            let target = if i % 2 == 0 { f2 } else { f1 };
            aspace.remap(va, &[target]).unwrap();
            let e = aspace.translate(va).unwrap().epoch;
            ensure!(e > last);
            last = e;
        }
        Ok(())
    });
}

/// Frame bounds are enforced exactly.
#[test]
fn frame_bounds() {
    check(64, |g| {
        let (offset, len) = (g.range(0usize..5000), g.range(0usize..5000));
        let pm = PhysicalMemory::new();
        let f = pm.alloc().unwrap();
        let mut buf = vec![0u8; len];
        let result = pm.read(f, offset, &mut buf);
        if offset + len <= PAGE_SIZE {
            ensure!(result.is_ok());
        } else {
            let bounds = matches!(result, Err(MemError::FrameBounds { .. }));
            ensure!(bounds);
        }
        Ok(())
    });
}
