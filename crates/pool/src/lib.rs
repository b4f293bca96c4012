//! # nexus-pool
//!
//! A std-only scoped worker pool for the NEXUS data path.
//!
//! NEXUS seals every 1 MB file chunk under an independent key
//! ([`ChunkContext`] in `nexus-core`), so the chunk loops of
//! `fs_write`/`fs_decrypt` are embarrassingly parallel. This crate
//! provides the one primitive those loops need — [`ThreadPool::par_map_indexed`],
//! and its exclusive-item form [`ThreadPool::par_map_indexed_mut`] through
//! which each worker fills its own slot of one output buffer — without
//! pulling `rayon` into the hermetic zero-dependency workspace
//! (DESIGN.md §7).
//!
//! Design:
//!
//! - **Scoped workers.** Each `par_map_indexed` call runs its closures on
//!   worker threads spawned inside a [`std::thread::scope`], so borrows of
//!   the caller's stack (the plaintext, the chunk contexts) flow in without
//!   `Arc` or `'static` bounds. The pool object fixes the worker *count*;
//!   workers live for the duration of one call.
//! - **Chunked work queue.** Workers claim contiguous index ranges from a
//!   single atomic cursor, amortizing contention to a handful of
//!   fetch-adds per worker while still load-balancing uneven items.
//! - **Deterministic output.** Results land in per-index slots, so the
//!   returned vector is byte-identical to the serial loop regardless of
//!   worker count or scheduling — the property the data-path tests pin.
//! - **Panic propagation.** A panicking closure aborts the queue (other
//!   workers stop claiming work) and the panic resurfaces on the calling
//!   thread *with its original payload* — workers catch the unwind and
//!   hand the payload back, because `std::thread::scope`'s own re-panic
//!   replaces it with a generic "a scoped thread panicked" message that
//!   benchmark harnesses cannot attribute to a client.
//! - **`NEXUS_THREADS` override.** [`ThreadPool::from_env`] and the
//!   process-wide [`global`] pool honour `NEXUS_THREADS`; `NEXUS_THREADS=1`
//!   forces the serial in-line path (no threads are spawned at all).
//!
//! ```
//! let pool = nexus_pool::ThreadPool::new(4);
//! let squares = pool.par_map_indexed(&[1u64, 2, 3, 4], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// A fixed-width worker pool; see the crate docs for the design.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// Creates a pool that runs `workers` closures concurrently.
    /// `workers` is clamped to at least 1; a 1-worker pool never spawns.
    pub fn new(workers: usize) -> ThreadPool {
        ThreadPool { workers: workers.max(1) }
    }

    /// Creates a pool sized from the environment: `NEXUS_THREADS` when set
    /// to a positive integer, otherwise the machine's available
    /// parallelism.
    pub fn from_env() -> ThreadPool {
        ThreadPool::new(threads_from_env(std::env::var("NEXUS_THREADS").ok().as_deref()))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items`, preserving order: `out[i] == f(i, &items[i])`.
    ///
    /// With one worker (or at most one item) this is exactly the serial
    /// loop, on the calling thread. Otherwise `min(workers, items.len())`
    /// scoped threads drain a chunked index queue. Output is identical to
    /// the serial loop regardless of worker count.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from `f` on the calling thread **with the
    /// original payload** (so `catch_unwind` callers can downcast the
    /// message); remaining workers stop claiming work as soon as the panic
    /// is observed.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send + Sync,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        // Chunked queue: ~4 claims per worker balances load without
        // hammering the cursor when items are many and tiny.
        let chunk = n.div_ceil(workers * 4).max(1);
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        // First panic payload from any worker: caught (not re-panicked) so
        // the scope joins cleanly and the caller gets the original payload
        // instead of scope's generic "a scoped thread panicked".
        let payload: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    'queue: loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for (i, item) in
                            items.iter().enumerate().take((start + chunk).min(n)).skip(start)
                        {
                            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                                Ok(value) => {
                                    let filled = slots[i].set(value);
                                    debug_assert!(filled.is_ok(), "index {i} claimed twice");
                                }
                                Err(p) => {
                                    abort.store(true, Ordering::Relaxed);
                                    let mut slot =
                                        payload.lock().unwrap_or_else(|e| e.into_inner());
                                    if slot.is_none() {
                                        *slot = Some(p);
                                    }
                                    break 'queue;
                                }
                            }
                        }
                    }
                });
            }
        });
        if let Some(p) = payload.into_inner().unwrap_or_else(|e| e.into_inner()) {
            resume_unwind(p);
        }
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("scope joined with an unfilled slot"))
            .collect()
    }

    /// [`ThreadPool::par_map_indexed`] with **exclusive** access to each
    /// item: `out[i] == f(i, &mut items[i])`. This is how the data path
    /// gives every worker its own slot of one output buffer (the items are
    /// disjoint `&mut [u8]` sub-slices) without `unsafe`: each item sits
    /// behind its own `Mutex`, locked exactly once, by the one worker the
    /// queue handed its index to — so the lock is never contended and never
    /// waits.
    ///
    /// # Panics
    ///
    /// As [`ThreadPool::par_map_indexed`].
    pub fn par_map_indexed_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send + Sync,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
        self.par_map_indexed(&cells, |i, cell| {
            // A poisoned cell means `f` panicked on it; the pool re-raises
            // that panic, so nobody looks at the item again.
            f(i, &mut cell.lock().unwrap_or_else(|e| e.into_inner()))
        })
    }
}

/// Parses a `NEXUS_THREADS` value; `None`, empty, zero, or garbage fall
/// back to the machine's available parallelism.
fn threads_from_env(value: Option<&str>) -> usize {
    match value.map(str::trim).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// The process-wide pool used by the NEXUS data path, sized once from
/// `NEXUS_THREADS` / available parallelism on first use.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(ThreadPool::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        for workers in [1, 2, 3, 8] {
            let pool = ThreadPool::new(workers);
            let items: Vec<u64> = (0..100).collect();
            let out = pool.par_map_indexed(&items, |i, x| (i as u64) * 1000 + x);
            let expected: Vec<u64> = (0..100).map(|i| i * 1000 + i).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn matches_serial_loop_exactly() {
        let items: Vec<Vec<u8>> = (0..37).map(|i| vec![i as u8; i]).collect();
        let serial = ThreadPool::new(1).par_map_indexed(&items, |i, v| {
            let mut v = v.clone();
            v.push(i as u8);
            v
        });
        for workers in [2, 5, 16] {
            let parallel = ThreadPool::new(workers).par_map_indexed(&items, |i, v| {
                let mut v = v.clone();
                v.push(i as u8);
                v
            });
            assert_eq!(parallel, serial);
        }
    }

    #[test]
    fn handles_empty_and_single_item() {
        let pool = ThreadPool::new(8);
        assert_eq!(pool.par_map_indexed(&[] as &[u8], |_, x| *x), Vec::<u8>::new());
        assert_eq!(pool.par_map_indexed(&[42u8], |i, x| (i, *x)), vec![(0, 42)]);
    }

    #[test]
    fn more_workers_than_items() {
        let pool = ThreadPool::new(64);
        let out = pool.par_map_indexed(&[1u8, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn borrows_caller_stack_without_arc() {
        let data = vec![7u8; 1024];
        let pool = ThreadPool::new(4);
        let sums = pool.par_map_indexed(&[0usize, 256, 512, 768], |_, &off| {
            data[off..off + 256].iter().map(|&b| b as u64).sum::<u64>()
        });
        assert_eq!(sums, vec![7 * 256; 4]);
    }

    #[test]
    fn exclusive_items_fill_disjoint_slots_of_one_buffer() {
        for workers in [1, 2, 8] {
            let mut buffer = vec![0u8; 1000];
            let mut slots: Vec<&mut [u8]> = buffer.chunks_mut(96).collect();
            let lens = ThreadPool::new(workers).par_map_indexed_mut(&mut slots, |i, slot| {
                slot.fill(i as u8 + 1);
                slot.len()
            });
            assert_eq!(lens.iter().sum::<usize>(), 1000, "workers={workers}");
            for (i, chunk) in buffer.chunks(96).enumerate() {
                assert!(chunk.iter().all(|&b| b == i as u8 + 1), "workers={workers} slot {i}");
            }
        }
    }

    #[test]
    fn panic_propagates_to_caller() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            pool.par_map_indexed(&items, |i, _| {
                if i == 13 {
                    panic!("boom at 13");
                }
                i
            })
        });
        assert!(result.is_err(), "worker panic must resurface on the caller");
    }

    #[test]
    fn panic_payload_is_preserved_verbatim() {
        // Regression: the original implementation let the panic rip through
        // `std::thread::scope`, whose join re-panics with a *generic*
        // payload ("a scoped thread panicked") — a bench harness catching
        // it could not tell which client was poisoned or why. The payload
        // must survive word for word, at every worker count.
        let items: Vec<usize> = (0..64).collect();
        for workers in [1, 2, 8] {
            let pool = ThreadPool::new(workers);
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.par_map_indexed(&items, |i, _| {
                    if i == 13 {
                        panic!("client 13 corrupted its volume");
                    }
                    i
                })
            }))
            .expect_err("must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("payload must stay downcastable to a string");
            assert_eq!(msg, "client 13 corrupted its volume", "workers={workers}");
        }
    }

    #[test]
    fn workers_clamped_to_one() {
        assert_eq!(ThreadPool::new(0).workers(), 1);
        assert_eq!(ThreadPool::new(5).workers(), 5);
    }

    #[test]
    fn env_parsing_rules() {
        assert_eq!(threads_from_env(Some("4")), 4);
        assert_eq!(threads_from_env(Some(" 2 ")), 2);
        assert_eq!(threads_from_env(Some("1")), 1);
        let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(threads_from_env(Some("0")), fallback);
        assert_eq!(threads_from_env(Some("not-a-number")), fallback);
        assert_eq!(threads_from_env(Some("")), fallback);
        assert_eq!(threads_from_env(None), fallback);
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().workers() >= 1);
    }
}
