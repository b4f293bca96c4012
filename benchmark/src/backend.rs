//! The storage wrapper every workload runs through: it counts calls and
//! the bytes put and fetched always (one or two relaxed adds), and while
//! the tracer is on records one span per call.

use std::sync::Arc;
use std::time::Duration;

use nexus_storage::{IoStats, ObjectStat, StorageBackend, StorageError};

use crate::trace::{Call, Tracer};

/// `B` with every call counted and, when tracing, timed.
pub struct Metered<B: StorageBackend + ?Sized> {
    inner: Arc<B>,
    tracer: Arc<Tracer>,
}

impl<B: StorageBackend + ?Sized> Metered<B> {
    /// Wraps `inner`, reporting to `tracer`.
    pub fn new(inner: Arc<B>, tracer: Arc<Tracer>) -> Metered<B> {
        Metered { inner, tracer }
    }

    fn call<R>(
        &self,
        call: Call,
        objects: usize,
        put_bytes: u64,
        f: impl FnOnce(&B) -> R,
        got_bytes: impl FnOnce(&R) -> u64,
    ) -> R {
        let start = self
            .tracer
            .count_call(put_bytes)
            .then(|| self.tracer.now_ns());
        let out = f(&self.inner);
        let got = got_bytes(&out);
        self.tracer.count_got(got);
        if let Some(start) = start {
            self.tracer
                .record_call(call, objects as u32, put_bytes + got, start);
        }
        out
    }
}

fn len_of(r: &Result<Vec<u8>, StorageError>) -> u64 {
    r.as_ref().map_or(0, |d| d.len() as u64)
}

impl<B: StorageBackend + ?Sized> StorageBackend for Metered<B> {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.call(
            Call::Put,
            1,
            data.len() as u64,
            |b| b.put(path, data),
            |_| 0,
        )
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.call(Call::Get, 1, 0, |b| b.get(path), len_of)
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        self.call(
            Call::GetRange,
            1,
            0,
            |b| b.get_range(path, offset, len),
            len_of,
        )
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.call(Call::Delete, 1, 0, |b| b.delete(path), |_| 0)
    }

    fn exists(&self, path: &str) -> bool {
        self.call(Call::Exists, 1, 0, |b| b.exists(path), |_| 0)
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.call(Call::Stat, 1, 0, |b| b.stat(path), |_| 0)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.call(Call::List, 1, 0, |b| b.list(prefix), |_| 0)
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        self.call(Call::Lock, 1, 0, |b| b.lock(path, owner), |_| 0)
    }

    fn unlock(&self, path: &str, owner: u64) {
        self.call(Call::Unlock, 1, 0, |b| b.unlock(path, owner), |_| 0)
    }

    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        self.call(
            Call::GetMany,
            paths.len(),
            0,
            |b| b.get_many(paths),
            |out| out.iter().map(len_of).sum(),
        )
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        let bytes = items.iter().map(|(_, d)| d.len() as u64).sum();
        self.call(
            Call::PutMany,
            items.len(),
            bytes,
            |b| b.put_many(items),
            |_| 0,
        )
    }

    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        self.call(
            Call::StatMany,
            paths.len(),
            0,
            |b| b.stat_many(paths),
            |_| 0,
        )
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
