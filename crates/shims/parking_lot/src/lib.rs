//! Vendored stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access to a crates registry, so
//! this workspace ships a minimal API-compatible shim over `std::sync`.
//! Only the surface the workspace uses is provided: [`Mutex`] /
//! [`MutexGuard`] with a non-poisoning `lock()` (a poisoned std mutex
//! is recovered, matching parking_lot's no-poison policy).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A mutual-exclusion primitive (non-poisoning `lock`).
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available. Never
    /// poisons: a panic in another holder is recovered.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            Err(std::sync::TryLockError::Poisoned(p)) => f
                .debug_struct("Mutex")
                .field("data", &&*p.into_inner())
                .finish(),
            Err(std::sync::TryLockError::WouldBlock) => {
                f.debug_struct("Mutex").field("data", &"<locked>").finish()
            }
        }
    }
}

/// RAII guard of a [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_lock_roundtrip() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn no_poisoning_after_panic() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 1); // still lockable
    }
}
