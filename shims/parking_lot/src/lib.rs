//! Offline stand-in for `parking_lot`.
//!
//! Implements `parking_lot`'s non-poisoning API (`lock()`/`read()`/
//! `write()` return guards directly instead of `Result`s) over raw atomic
//! word locks rather than wrapping `std::sync`: an uncontended acquire is
//! one compare-exchange. DESIGN §12 lists the same API over `std::sync`
//! among its measured non-leads.
//! Contended acquires spin briefly with exponential backoff, then yield to
//! the scheduler — critical sections in this workspace are short (a map
//! lookup, a frame copy), so parking infrastructure would buy nothing.
//!
//! Like real `parking_lot`, these locks do not poison: a panic while a
//! guard is live simply releases the lock on unwind.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Spin-then-yield backoff for contended acquires: a handful of
/// exponentially growing `spin_loop` bursts (cheap if the holder is
/// mid-critical-section on another core), then `yield_now` so a
/// same-core holder can run.
#[inline]
fn backoff(step: &mut u32) {
    if *step < 6 {
        for _ in 0..(1u32 << *step) {
            std::hint::spin_loop();
        }
        *step += 1;
    } else {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// A mutual-exclusion lock that does not poison.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// Safety: the lock serializes access to `value`; moving the mutex itself
// only needs the payload to be Send.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// Guard for [`Mutex`]. Releases the lock on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    // Keep the guard on the acquiring thread, matching std/parking_lot.
    _not_send: PhantomData<*mut ()>,
}

// Safety: sharing `&MutexGuard` only hands out `&T`.
unsafe impl<T: ?Sized + Sync> Sync for MutexGuard<'_, T> {}

impl<T> Mutex<T> {
    /// Creates the lock.
    pub const fn new(value: T) -> Self {
        Mutex { locked: AtomicBool::new(false), value: UnsafeCell::new(value) }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.lock_contended();
        }
        MutexGuard { lock: self, _not_send: PhantomData }
    }

    #[cold]
    fn lock_contended(&self) {
        let mut step = 0;
        loop {
            // Spin on a plain load first so the line stays shared until
            // the holder releases.
            while self.locked.load(Ordering::Relaxed) {
                backoff(&mut step);
            }
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if self.locked.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok() {
            Some(MutexGuard { lock: self, _not_send: PhantomData })
        } else {
            None
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: the guard holds the lock.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // Safety: the guard holds the lock exclusively.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// Writer-held sentinel in the reader-count word.
const WRITER: u32 = u32::MAX;
/// Reader-count ceiling; acquiring past this would alias [`WRITER`].
const MAX_READERS: u32 = WRITER - 1;

/// A reader-writer lock that does not poison.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    /// 0 = free, [`WRITER`] = writer held, otherwise live reader count.
    state: AtomicU32,
    value: UnsafeCell<T>,
}

// Safety: readers share `&T` (needs Sync), the writer moves `&mut T`
// between threads (needs Send).
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    _not_send: PhantomData<*mut ()>,
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    _not_send: PhantomData<*mut ()>,
}

// Safety: sharing either guard only hands out `&T`.
unsafe impl<T: ?Sized + Sync> Sync for RwLockReadGuard<'_, T> {}
unsafe impl<T: ?Sized + Sync> Sync for RwLockWriteGuard<'_, T> {}

impl<T> RwLock<T> {
    /// Creates the lock.
    pub const fn new(value: T) -> Self {
        RwLock { state: AtomicU32::new(0), value: UnsafeCell::new(value) }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared access.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let s = self.state.load(Ordering::Relaxed);
        if s >= MAX_READERS
            || self
                .state
                .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.read_contended();
        }
        RwLockReadGuard { lock: self, _not_send: PhantomData }
    }

    #[cold]
    fn read_contended(&self) {
        let mut step = 0;
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s < MAX_READERS {
                if self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
            } else {
                backoff(&mut step);
            }
        }
    }

    /// Attempts shared access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let mut s = self.state.load(Ordering::Relaxed);
        while s < MAX_READERS {
            match self.state.compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => return Some(RwLockReadGuard { lock: self, _not_send: PhantomData }),
                Err(cur) => s = cur,
            }
        }
        None
    }

    /// Acquires exclusive access.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if self.state.compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed).is_err() {
            self.write_contended();
        }
        RwLockWriteGuard { lock: self, _not_send: PhantomData }
    }

    #[cold]
    fn write_contended(&self) {
        let mut step = 0;
        loop {
            while self.state.load(Ordering::Relaxed) != 0 {
                backoff(&mut step);
            }
            if self
                .state
                .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Attempts exclusive access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        if self.state.compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed).is_ok() {
            Some(RwLockWriteGuard { lock: self, _not_send: PhantomData })
        } else {
            None
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: the guard holds a shared acquisition.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.state.fetch_sub(1, Ordering::Release);
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: the guard holds the exclusive acquisition.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // Safety: the guard holds the exclusive acquisition.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.state.store(0, Ordering::Release);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a, *b);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn try_lock_respects_holders() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());

        let l = RwLock::new(0);
        let r = l.read();
        assert!(l.try_write().is_none());
        assert!(l.try_read().is_some());
        drop(r);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn no_poisoning_after_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: the lock is still usable.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn contended_mutex_counts_exactly() {
        let m = Arc::new(Mutex::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*m.lock(), 80_000);
    }

    #[test]
    fn contended_rwlock_is_consistent() {
        let l = Arc::new(RwLock::new((0u64, 0u64)));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let l = l.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let mut g = l.write();
                        g.0 += 1;
                        g.1 += 1;
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let l = l.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let g = l.read();
                        // Writers keep the halves in lockstep; a reader
                        // observing a torn pair means mutual exclusion
                        // broke.
                        assert_eq!(g.0, g.1);
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        assert_eq!(l.read().0, 20_000);
    }
}
