//! Fault-point shim for the on-disk backends.
//!
//! The threat model assumes the untrusted store can crash or misbehave at
//! any instant, so the durable backends ([`crate::logstore::LogBackend`],
//! [`crate::DirBackend`]) route every physical I/O step — byte writes,
//! fsyncs, renames, directory syncs, cleanup — through a
//! [`FaultHook`] consulted *before* the step runs. A hook can let the step
//! proceed, tear it (persist only a prefix of the bytes), or drop it
//! entirely; either injected outcome "crashes" the backend: the in-flight
//! operation returns [`crate::StorageError::Io`] and every later operation
//! fails, exactly as if the process had died mid-syscall. The test then
//! reopens the backend from the on-disk state the crash left behind and
//! checks what recovery reconstructs.
//!
//! Two stock hooks cover the exhaustive-sweep pattern the crash-recovery
//! suite uses (driven by `nexus_testkit::faults::sweep`):
//!
//! - [`CountHook`] — counts fault points without firing, sizing the sweep;
//! - [`FireAt`] — fires one configured [`FaultKind`] at the N-th point.
//!
//! Production code never installs a hook; the shim then compiles down to a
//! `None` check per I/O step.
//!
//! [`replace_file`] is the one crash-consistent file replacement both
//! backends commit whole files with (temp file, fsync, atomic rename,
//! directory fsync), with its fault modelling in one place.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nexus_sync::Mutex;

use crate::StorageError;

/// A physical I/O step about to be performed by a durable backend.
///
/// `file` names are relative to the backend root — stable across runs, so
/// hooks can match on them deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPoint {
    /// Appending or writing `len` bytes to `file`.
    Write {
        /// Root-relative file name.
        file: String,
        /// Bytes about to be written.
        len: usize,
    },
    /// `fsync`/`fdatasync` of `file`. Dropping it loses every byte written
    /// to the file since its last successful sync.
    Fsync {
        /// Root-relative file name.
        file: String,
    },
    /// Atomic rename `from` → `to` (the commit point of a log rewrite and
    /// of an object write).
    Rename {
        /// Root-relative source name.
        from: String,
        /// Root-relative destination name.
        to: String,
    },
    /// `fsync` of the backend root directory, persisting preceding
    /// renames/creates. Dropping it un-does the renames it would have
    /// committed.
    DirFsync,
    /// Deletion of files a committed replacement made obsolete.
    Cleanup,
}

impl std::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPoint::Write { file, len } => write!(f, "write({file}, {len}B)"),
            FaultPoint::Fsync { file } => write!(f, "fsync({file})"),
            FaultPoint::Rename { from, to } => write!(f, "rename({from} -> {to})"),
            FaultPoint::DirFsync => write!(f, "dirfsync"),
            FaultPoint::Cleanup => write!(f, "cleanup"),
        }
    }
}

/// What the hook tells the backend to do at a fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Perform the step normally.
    Proceed,
    /// Persist only the first `keep` bytes of a [`FaultPoint::Write`],
    /// then crash (the backend clamps `keep` below the full length). On
    /// non-write points this degrades to [`FaultAction::Drop`].
    Torn {
        /// Bytes that survive the torn write.
        keep: usize,
    },
    /// Skip the step entirely, then crash.
    Drop,
}

/// The two injected failure shapes the sweep enumerates per point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Half the bytes of a write survive; non-writes are dropped.
    Torn,
    /// The step is dropped wholesale.
    Drop,
}

/// Consulted before every physical I/O step of a durable backend.
pub trait FaultHook: Send + Sync {
    /// Decides the fate of the step described by `point`.
    fn on(&self, point: &FaultPoint) -> FaultAction;
}

/// Counts fault points without ever firing — the sweep's sizing pass.
#[derive(Debug, Default)]
pub struct CountHook {
    seen: AtomicU64,
}

impl CountHook {
    /// A fresh counter behind an [`Arc`] ready to hand to a backend.
    pub fn new() -> Arc<CountHook> {
        Arc::new(CountHook::default())
    }

    /// Fault points seen so far.
    pub fn count(&self) -> u64 {
        self.seen.load(Ordering::SeqCst)
    }
}

impl FaultHook for CountHook {
    fn on(&self, _point: &FaultPoint) -> FaultAction {
        self.seen.fetch_add(1, Ordering::SeqCst);
        FaultAction::Proceed
    }
}

/// Fires one [`FaultKind`] at the `index`-th fault point (0-based), then
/// proceeds on everything after — though a correctly crashing backend
/// never reaches a later point.
#[derive(Debug)]
pub struct FireAt {
    index: u64,
    kind: FaultKind,
    seen: AtomicU64,
    fired: Mutex<Option<String>>,
}

impl FireAt {
    /// A single-shot injector for point `index` with failure shape `kind`.
    pub fn new(index: u64, kind: FaultKind) -> Arc<FireAt> {
        Arc::new(FireAt { index, kind, seen: AtomicU64::new(0), fired: Mutex::new(None) })
    }

    /// Human-readable description of the point that fired, if any —
    /// diagnostic context for sweep failure reports.
    pub fn fired_at(&self) -> Option<String> {
        self.fired.lock().clone()
    }
}

impl FaultHook for FireAt {
    fn on(&self, point: &FaultPoint) -> FaultAction {
        let n = self.seen.fetch_add(1, Ordering::SeqCst);
        if n != self.index {
            return FaultAction::Proceed;
        }
        *self.fired.lock() = Some(point.to_string());
        match (self.kind, point) {
            (FaultKind::Torn, FaultPoint::Write { len, .. }) => FaultAction::Torn { keep: len / 2 },
            _ => FaultAction::Drop,
        }
    }
}

/// Replaces `root/name` with `bytes` crash-consistently: writes them to
/// `root/tmp`, fsyncs it, renames it over `name` and fsyncs `root`. A crash
/// at any step leaves `name` whole, old or new, never a prefix; a leftover
/// `tmp` is debris for the next open to delete.
///
/// `hook` is consulted before each of the four steps. An injected fault
/// leaves the disk as a crash at that step would: a torn temp write keeps
/// a prefix, a dropped fsync keeps half the temp file (the unsynced page
/// cache), and a dropped directory fsync undoes the rename, restoring what
/// `name` held before (or its absence).
///
/// # Errors
///
/// [`StorageError::Io`] when the filesystem refuses a step or the hook
/// crashes one; either way the caller's handle must be poisoned, since
/// what the disk holds is no longer what it believes.
pub(crate) fn replace_file(
    root: &Path,
    tmp: &str,
    name: &str,
    bytes: &[u8],
    hook: Option<&dyn FaultHook>,
) -> Result<(), StorageError> {
    let fault = |point: FaultPoint| hook.map_or(FaultAction::Proceed, |h| h.on(&point));
    let crash = |what: &str| Err(StorageError::Io(format!("injected crash: {what}")));
    let io = |e: std::io::Error| StorageError::Io(e.to_string());
    let (tmp_path, target) = (root.join(tmp), root.join(name));
    let mut f = File::create(&tmp_path).map_err(io)?;
    match fault(FaultPoint::Write { file: tmp.to_string(), len: bytes.len() }) {
        FaultAction::Proceed => f.write_all(bytes).map_err(io)?,
        FaultAction::Torn { keep } => {
            let keep = keep.min(bytes.len().saturating_sub(1));
            let _ = f.write_all(&bytes[..keep]);
            return crash("torn temp write");
        }
        FaultAction::Drop => return crash("dropped temp write"),
    }
    match fault(FaultPoint::Fsync { file: tmp.to_string() }) {
        FaultAction::Proceed => f.sync_all().map_err(io)?,
        _ => {
            let _ = f.set_len(bytes.len() as u64 / 2);
            return crash("dropped temp fsync");
        }
    }
    drop(f);
    // What the rename replaces, so that a dropped directory fsync can undo
    // it; read only under a hook, which production never installs.
    let previous = if hook.is_some() { fs::read(&target).ok() } else { None };
    match fault(FaultPoint::Rename { from: tmp.to_string(), to: name.to_string() }) {
        FaultAction::Proceed => fs::rename(&tmp_path, &target).map_err(io)?,
        _ => return crash("dropped rename"),
    }
    match fault(FaultPoint::DirFsync) {
        FaultAction::Proceed => File::open(root).and_then(|d| d.sync_all()).map_err(io),
        _ => {
            let _ = match previous {
                Some(old) => File::create(&target).and_then(|mut f| f.write_all(&old)),
                None => fs::remove_file(&target),
            };
            crash("dropped directory fsync")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_hook_counts_and_proceeds() {
        let hook = CountHook::new();
        let p = FaultPoint::Write { file: "seg".into(), len: 10 };
        assert_eq!(hook.on(&p), FaultAction::Proceed);
        assert_eq!(hook.on(&FaultPoint::DirFsync), FaultAction::Proceed);
        assert_eq!(hook.count(), 2);
    }

    #[test]
    fn fire_at_fires_once_at_the_right_index() {
        let hook = FireAt::new(1, FaultKind::Torn);
        let w = FaultPoint::Write { file: "seg".into(), len: 8 };
        assert_eq!(hook.on(&w), FaultAction::Proceed);
        assert_eq!(hook.on(&w), FaultAction::Torn { keep: 4 });
        assert_eq!(hook.on(&w), FaultAction::Proceed, "single-shot");
        assert_eq!(hook.fired_at().unwrap(), "write(seg, 8B)");
    }

    #[test]
    fn torn_degrades_to_drop_off_the_write_path() {
        let hook = FireAt::new(0, FaultKind::Torn);
        assert_eq!(hook.on(&FaultPoint::Fsync { file: "seg".into() }), FaultAction::Drop);
        let hook = FireAt::new(0, FaultKind::Drop);
        assert_eq!(
            hook.on(&FaultPoint::Rename { from: "a".into(), to: "b".into() }),
            FaultAction::Drop
        );
    }

    #[test]
    fn points_display_compactly() {
        assert_eq!(
            FaultPoint::Rename { from: "x.tmp".into(), to: "x".into() }.to_string(),
            "rename(x.tmp -> x)"
        );
        assert_eq!(FaultPoint::Cleanup.to_string(), "cleanup");
    }
}
