//! A transparent wrapper for tests that need to see, or to interrupt, the
//! exact sequence of storage calls a client makes.
//!
//! [`HookedBackend`] forwards everything to the backend it wraps. On the
//! way it logs every call (method and object names, a batch as one entry),
//! which is what a call-budget test counts; and it can run a one-shot hook
//! right before a chosen call is forwarded, which is how a test forces
//! another client's whole operation into a precise gap of this client's —
//! between a `stat` and the `get` that follows it, or just before a `lock`
//! is granted — without threads or sleeps.

use std::sync::Arc;
use std::time::Duration;

use nexus_sync::Mutex;

use crate::backend::{IoStats, ObjectStat, StorageBackend, StorageError};

/// One [`StorageBackend`] method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Call {
    /// `put`
    Put,
    /// `get`
    Get,
    /// `get_range`
    GetRange,
    /// `delete`
    Delete,
    /// `exists`
    Exists,
    /// `stat`
    Stat,
    /// `list`
    List,
    /// `lock`
    Lock,
    /// `unlock`
    Unlock,
    /// `get_many`
    GetMany,
    /// `put_many`
    PutMany,
    /// `stat_many`
    StatMany,
}

type When = Box<dyn FnMut(Call, &[String]) -> bool + Send>;
type Run = Box<dyn FnOnce() + Send>;

/// `B` with every call logged and, when armed, one call preceded by a hook.
pub struct HookedBackend<B> {
    inner: Arc<B>,
    log: Mutex<Vec<(Call, Vec<String>)>>,
    hook: Mutex<Option<(When, Run)>>,
}

impl<B> std::fmt::Debug for HookedBackend<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HookedBackend { .. }")
    }
}

impl<B: StorageBackend> HookedBackend<B> {
    /// Wraps `inner`; other clients may keep using `inner` directly.
    pub fn new(inner: Arc<B>) -> HookedBackend<B> {
        HookedBackend { inner, log: Mutex::default(), hook: Mutex::default() }
    }

    /// Every call since the last `take_calls`, in order, with the objects
    /// it named.
    pub fn take_calls(&self) -> Vec<(Call, Vec<String>)> {
        std::mem::take(&mut *self.log.lock())
    }

    /// Arms the hook: `when` is asked about every call from now on, and the
    /// first call it accepts is held while `run` executes, then forwarded.
    /// One shot; arming again replaces a hook that has not fired.
    pub fn before(
        &self,
        when: impl FnMut(Call, &[String]) -> bool + Send + 'static,
        run: impl FnOnce() + Send + 'static,
    ) {
        *self.hook.lock() = Some((Box::new(when), Box::new(run)));
    }

    /// True while an armed hook has not fired.
    pub fn is_armed(&self) -> bool {
        self.hook.lock().is_some()
    }

    fn enter(&self, call: Call, paths: &[String]) {
        self.log.lock().push((call, paths.to_vec()));
        let fired = {
            let mut hook = self.hook.lock();
            let accepts = hook.as_mut().is_some_and(|(when, _)| when(call, paths));
            if accepts { hook.take() } else { None }
        };
        // Outside both locks: the hook usually drives another client
        // through this very wrapper.
        if let Some((_, run)) = fired {
            run();
        }
    }

    fn enter_one(&self, call: Call, path: &str) {
        self.enter(call, &[path.to_string()]);
    }
}

impl<B: StorageBackend> StorageBackend for HookedBackend<B> {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.enter_one(Call::Put, path);
        self.inner.put(path, data)
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.enter_one(Call::Get, path);
        self.inner.get(path)
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        self.enter_one(Call::GetRange, path);
        self.inner.get_range(path, offset, len)
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.enter_one(Call::Delete, path);
        self.inner.delete(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.enter_one(Call::Exists, path);
        self.inner.exists(path)
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.enter_one(Call::Stat, path);
        self.inner.stat(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.enter_one(Call::List, prefix);
        self.inner.list(prefix)
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        self.enter_one(Call::Lock, path);
        self.inner.lock(path, owner)
    }

    fn unlock(&self, path: &str, owner: u64) {
        self.enter_one(Call::Unlock, path);
        self.inner.unlock(path, owner)
    }

    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        self.enter(Call::GetMany, paths);
        self.inner.get_many(paths)
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        let paths: Vec<String> = items.iter().map(|(path, _)| path.clone()).collect();
        self.enter(Call::PutMany, &paths);
        self.inner.put_many(items)
    }

    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        self.enter(Call::StatMany, paths);
        self.inner.stat_many(paths)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn simulated_time(&self) -> Duration {
        self.inner.simulated_time()
    }

    fn audit_storage(&self) -> Vec<String> {
        self.inner.audit_storage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemBackend;

    #[test]
    fn logs_calls_and_fires_the_hook_once_before_the_chosen_call() {
        let mem = Arc::new(MemBackend::new());
        let hooked = HookedBackend::new(mem.clone());
        hooked.put("a", b"1").unwrap();
        let other = mem.clone();
        hooked.before(
            |call, paths| call == Call::Get && paths == ["a"],
            move || other.put("a", b"2").unwrap(),
        );
        assert!(hooked.stat("a").is_ok(), "not the chosen call");
        assert!(hooked.is_armed());
        assert_eq!(hooked.get("a").unwrap(), b"2", "the hook ran before the get was forwarded");
        assert!(!hooked.is_armed());
        assert_eq!(hooked.get("a").unwrap(), b"2");
        hooked.stat_many(&["a".into(), "b".into()]);
        let calls = hooked.take_calls();
        let kinds: Vec<Call> = calls.iter().map(|(call, _)| *call).collect();
        assert_eq!(kinds, [Call::Put, Call::Stat, Call::Get, Call::Get, Call::StatMany]);
        assert_eq!(calls[4].1, ["a", "b"]);
        assert!(hooked.take_calls().is_empty());
    }
}
