//! # nexus-sync
//!
//! Std-only synchronization primitives with a `parking_lot`-style API.
//!
//! The workspace builds hermetically — no crates.io dependencies — so this
//! crate wraps [`std::sync::Mutex`] and [`std::sync::RwLock`] behind the
//! no-poison interface the rest of NEXUS was written against:
//! `mutex.lock()` returns a guard directly (no `Result`), as do
//! `rwlock.read()` and `rwlock.write()`.
//!
//! Poisoning is deliberately ignored. A poisoned lock means some thread
//! panicked while holding it; every NEXUS structure guarded by these locks
//! (storage maps, RNG state, accounting counters) remains structurally
//! valid after an arbitrary interruption, so recovering the inner value is
//! safe and matches `parking_lot` semantics. Lock *state*, not lock
//! *acquisition*, carries the invariants.

use std::fmt;
use std::sync::{self, TryLockError};

/// A mutual-exclusion lock that never poisons.
///
/// `lock()` returns the guard directly; if a previous holder panicked, the
/// inner data is recovered and handed out as-is.
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard for [`Mutex`]; releases the lock on drop.
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Mutex<T> {
        Mutex::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_tuple("Mutex").field(&&*guard).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// A reader-writer lock that never poisons.
///
/// `read()` and `write()` return guards directly, recovering the inner
/// value if a previous writer panicked.
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// RAII shared-read guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;

/// RAII exclusive-write guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a new unlocked reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts to acquire exclusive write access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T> From<T> for RwLock<T> {
    fn from(value: T) -> RwLock<T> {
        RwLock::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(guard) => f.debug_tuple("RwLock").field(&&*guard).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_basic_exclusion() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn mutex_survives_panicked_holder() {
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // No-poison API: the data is still reachable.
        assert_eq!(*m.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(5u32);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 10);
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn rwlock_survives_panicked_writer() {
        let l = Arc::new(RwLock::new(41u32));
        let l2 = Arc::clone(&l);
        let _ = thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison the lock");
        })
        .join();
        *l.write() += 1;
        assert_eq!(*l.read(), 42);
    }

    #[test]
    fn try_variants_report_contention() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());

        let l = RwLock::new(());
        let r = l.read();
        assert!(l.try_read().is_some());
        assert!(l.try_write().is_none());
        drop(r);
        assert!(l.try_write().is_some());
    }
}
