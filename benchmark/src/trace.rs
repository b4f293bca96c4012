//! Spans recorded from outside the program: one per fs operation (by the
//! drivers) and one per storage call (by [`crate::backend::Metered`]),
//! kept in memory until the run ends.
//!
//! A storage call finds its parent through the *current op*: the thread's
//! own when a driver set one (executor workers each run a different
//! client's op), otherwise the run-wide one (the single-client drivers,
//! whose prefetch threads call the backend on the op's behalf).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use crate::model::Kind;

/// The `StorageBackend` method a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Call {
    Put,
    Get,
    GetRange,
    Delete,
    Exists,
    Stat,
    List,
    Lock,
    Unlock,
    GetMany,
    PutMany,
    StatMany,
}

impl Call {
    /// The method's name.
    pub fn name(self) -> &'static str {
        match self {
            Call::Put => "put",
            Call::Get => "get",
            Call::GetRange => "get_range",
            Call::Delete => "delete",
            Call::Exists => "exists",
            Call::Stat => "stat",
            Call::List => "list",
            Call::Lock => "lock",
            Call::Unlock => "unlock",
            Call::GetMany => "get_many",
            Call::PutMany => "put_many",
            Call::StatMany => "stat_many",
        }
    }
}

/// One storage call, child of the op that was current when it started.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    /// The parent op's id.
    pub op_id: u64,
    /// Which method.
    pub call: Call,
    /// Objects named by the call (a batch counts each).
    pub objects: u32,
    /// Payload bytes handed over (puts) or returned (gets).
    pub bytes: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Splits the spans of `op_id` off the front of `calls` (ascending by
/// op), dropping those of earlier ops on the way.
pub fn calls_of<'a>(calls: &mut &'a [CallSpan], op_id: u64) -> &'a [CallSpan] {
    let rest = &calls[calls.partition_point(|c| c.op_id < op_id)..];
    let (mine, rest) = rest.split_at(rest.partition_point(|c| c.op_id == op_id));
    *calls = rest;
    mine
}

/// One fs operation as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    /// Unique within a run, never 0.
    pub id: u64,
    /// Index of the round it ran in.
    pub round: u32,
    /// The operation.
    pub kind: Kind,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Wall time the call occupied its thread (for an executor task, the
    /// sum of its polls: parked virtual time is not wall time).
    pub busy_ns: u64,
    /// `TransitionStats::ecalls` delta.
    pub ecalls: u32,
    /// `TransitionStats::ocalls` delta.
    pub ocalls: u32,
    /// `TransitionStats::enclave_time` delta.
    pub enclave_ns: u64,
    /// Plaintext bytes the caller wrote or got back.
    pub user_bytes: u64,
}

thread_local! {
    static THREAD_OP: Cell<u64> = const { Cell::new(0) };
}

/// Sets this thread's current op until the guard drops.
pub struct ThreadOp(());

impl ThreadOp {
    /// Makes `op_id` the parent of storage calls on this thread.
    pub fn enter(op_id: u64) -> ThreadOp {
        THREAD_OP.set(op_id);
        ThreadOp(())
    }
}

impl Drop for ThreadOp {
    fn drop(&mut self) {
        THREAD_OP.set(0);
    }
}

/// The always-on counters and the in-memory span store of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    run_op: AtomicU64,
    next_op: AtomicU64,
    calls: Mutex<Vec<CallSpan>>,
    unattributed: AtomicU64,
    total_calls: AtomicU64,
    bytes_put: AtomicU64,
    bytes_got: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            run_op: AtomicU64::new(0),
            next_op: AtomicU64::new(1),
            calls: Mutex::default(),
            unattributed: AtomicU64::new(0),
            total_calls: AtomicU64::new(0),
            bytes_put: AtomicU64::new(0),
            bytes_got: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    /// Nanoseconds since this tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Turns span recording on or off (the counters always run).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Relaxed);
    }

    /// A fresh op id.
    pub fn new_op(&self) -> u64 {
        self.next_op.fetch_add(1, Relaxed)
    }

    /// Sets (or with 0 clears) the run-wide current op.
    pub fn set_run_op(&self, op_id: u64) {
        self.run_op.store(op_id, Relaxed);
    }

    /// Backend calls so far, a batch counting once.
    pub fn total_calls(&self) -> u64 {
        self.total_calls.load(Relaxed)
    }

    /// Bytes handed to `put`/`put_many` so far.
    pub fn bytes_put(&self) -> u64 {
        self.bytes_put.load(Relaxed)
    }

    /// Bytes `get`/`get_range`/`get_many` returned so far.
    pub fn bytes_got(&self) -> u64 {
        self.bytes_got.load(Relaxed)
    }

    /// Spans that arrived while recording with no op to belong to.
    pub fn unattributed(&self) -> u64 {
        self.unattributed.load(Relaxed)
    }

    /// Counts one backend call and says whether to time it.
    pub(crate) fn count_call(&self, put_bytes: u64) -> bool {
        self.total_calls.fetch_add(1, Relaxed);
        if put_bytes > 0 {
            self.bytes_put.fetch_add(put_bytes, Relaxed);
        }
        self.on.load(Relaxed)
    }

    /// Counts the bytes a fetch returned.
    pub(crate) fn count_got(&self, bytes: u64) {
        if bytes > 0 {
            self.bytes_got.fetch_add(bytes, Relaxed);
        }
    }

    pub(crate) fn record_call(&self, call: Call, objects: u32, bytes: u64, start_ns: u64) {
        let end_ns = self.now_ns();
        let op_id = match THREAD_OP.get() {
            0 => self.run_op.load(Relaxed),
            id => id,
        };
        if op_id == 0 {
            self.unattributed.fetch_add(1, Relaxed);
            return;
        }
        let span = CallSpan {
            op_id,
            call,
            objects,
            bytes,
            start_ns,
            end_ns,
        };
        self.calls
            .lock()
            .expect("no panic while holding the span store")
            .push(span);
    }

    /// Takes every storage span recorded so far.
    pub fn take_calls(&self) -> Vec<CallSpan> {
        std::mem::take(
            &mut *self
                .calls
                .lock()
                .expect("no panic while holding the span store"),
        )
    }
}
