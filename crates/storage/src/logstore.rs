//! A crash-consistent, log-structured on-disk storage backend.
//!
//! [`LogBackend`] is the durable counterpart of [`crate::MemBackend`]: its
//! live image is the same object map (`mem::ObjectMap`: per-put version
//! bumps, advisory locks, atomic batches), whose objects and versions are
//! persisted so that a host crash — or restart — at *any* instant loses at
//! most the operation in flight. Checkpoints, recovery replay and
//! [`LogBackend::audit`] all rebuild one such map. The design (DESIGN.md
//! §12) is the classic write-ahead shape production stores use:
//!
//! - **Append-only segment files** (`seg-NNNNNNNNNN.log`): every `put`,
//!   `delete` and `put_many` is one length-prefixed, CRC-32-checksummed
//!   frame holding that call's records — one per item — each carrying the
//!   path, the assigned version and the payload. The frame is fsynced
//!   before the call is acknowledged; all writes go through one private
//!   `commit`.
//! - **Checkpoints** (`ckpt-NNNNNNNNNN.idx`): periodically the full object
//!   map is written to a temp file, fsynced, and committed by an atomic
//!   rename followed by a directory fsync; segments older than the
//!   checkpoint's watermark are then deleted. A checkpoint is the
//!   compaction step of the log-structured layout — overwritten versions
//!   are dropped. One fires after `checkpoint_every` mutations through
//!   one handle, and the count starts at 0 at every `open`: the bound is
//!   per handle, not per store. A store written by processes that each
//!   make fewer mutations than that (every CLI command does) never
//!   checkpoints, so its replay grows with its whole history
//!   (ROADMAP item 16).
//! - **Recovery replay**: [`LogBackend::open`] loads the newest committed
//!   checkpoint (a partially written one can only exist under its `.tmp`
//!   name and is discarded), then replays every segment at or above the
//!   watermark in order, truncating the log at the first corrupt frame —
//!   the torn tail a crash mid-append leaves behind. A frame is decoded
//!   whole before any of its records applies, so a batch comes back all
//!   or none. Objects and versions come back exactly as acknowledged.
//!
//! Every physical I/O step consults the [`crate::fault`] shim, so the
//! crash-recovery suite (`tests/crash_recovery.rs`) can kill the backend
//! at every op boundary — torn write, dropped write, dropped rename,
//! dropped fsync — and differentially check recovery against the
//! in-memory oracle.
//!
//! One process holds a store: `open` takes `<root>/LOCK` with
//! [`File::try_lock`] and keeps it for the handle's lifetime, so a second
//! opener, in another process or this one, gets
//! [`StorageError::LockContended`]. Advisory locks are therefore process
//! state, kept in the image and never logged: like the server `flock` of
//! the paper (§V-A), a lock lives exactly as long as the session holding
//! it. Logs written while locks were logged still hold lock and unlock
//! records and checkpoints a lock table; replay reads them and drops them.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nexus_sync::Mutex;

use crate::backend::{IoStats, ObjectStat, StorageBackend, StorageError};
use crate::fault::{FaultAction, FaultHook, FaultPoint};
use crate::mem::ObjectMap;

/// Frame magic: "NXLG".
const REC_MAGIC: u32 = 0x4E58_4C47;
/// Checkpoint file magic: "NXCK".
const CKPT_MAGIC: u32 = 0x4E58_434B;
/// On-disk format version (bumped on incompatible layout changes).
const FORMAT_VERSION: u32 = 1;
/// Frame header: magic + payload length + payload CRC, 4 bytes each.
const FRAME_HEADER: usize = 12;
/// The file whose lock a handle holds (module doc).
const LOCK_FILE: &str = "LOCK";

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven; the checksum guarding records and checkpoints.

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Record encoding

#[derive(Debug, Clone, PartialEq, Eq)]
enum Record {
    /// Object write: `version` is the version assigned to this put.
    Put { path: String, version: u64, data: Vec<u8> },
    /// Object removal.
    Delete { path: String },
}

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;
/// Advisory lock and unlock records, which older logs hold: read and
/// dropped, never written.
const OP_LOCK: u8 = 3;
const OP_UNLOCK: u8 = 4;

impl Record {
    /// Appends the record's encoding: op, version, a zero owner, then the
    /// length-prefixed path and data.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let (op, path, version, data): (u8, &str, u64, &[u8]) = match self {
            Record::Put { path, version, data } => (OP_PUT, path, *version, data),
            Record::Delete { path } => (OP_DELETE, path, 0, &[]),
        };
        out.reserve(1 + 8 + 8 + 4 + path.len() + 4 + data.len());
        out.push(op);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&(path.len() as u32).to_le_bytes());
        out.extend_from_slice(path.as_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
    }

    /// Reads one record from `r`: `Some(None)` for a lock or unlock, which
    /// decodes (so its frame is no torn tail) and then applies nothing.
    fn decode(r: &mut Reader<'_>) -> Option<Option<Record>> {
        let op = r.u8()?;
        let seq = r.u64()?;
        let _owner = r.u64()?;
        let path = String::from_utf8(r.bytes_u32_len()?.to_vec()).ok()?;
        let data = r.bytes_u32_len()?.to_vec();
        match op {
            OP_PUT => Some(Some(Record::Put { path, version: seq, data })),
            OP_DELETE if data.is_empty() => Some(Some(Record::Delete { path })),
            OP_LOCK | OP_UNLOCK if data.is_empty() => Some(None),
            _ => None,
        }
    }

    fn apply(self, map: &mut ObjectMap) {
        match self {
            Record::Put { path, version, data } => map.insert(path, version, Arc::new(data)),
            Record::Delete { path } => {
                let _ = map.remove(&path);
            }
        }
    }
}

/// Frames one call's records for the log: magic, payload length, payload
/// CRC, then the records' encodings back to back. A one-record frame is
/// byte for byte the single-record frame of every earlier log.
///
/// # Errors
///
/// [`StorageError::Io`] when the payload does not fit the frame's 32-bit
/// length.
fn frame(records: &[Record]) -> Result<Vec<u8>, StorageError> {
    let mut out = vec![0u8; FRAME_HEADER];
    for rec in records {
        rec.encode_into(&mut out);
    }
    let len = u32::try_from(out.len() - FRAME_HEADER)
        .map_err(|_| StorageError::Io(format!("log frame of {} bytes", out.len())))?;
    let crc = crc32(&out[FRAME_HEADER..]);
    out[0..4].copy_from_slice(&REC_MAGIC.to_le_bytes());
    out[4..8].copy_from_slice(&len.to_le_bytes());
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Decodes every put and delete of a frame's payload, or none: a payload
/// that does not split exactly into one or more records is corrupt. Lock
/// and unlock records count toward the split and are dropped.
fn decode_frame(payload: &[u8]) -> Option<Vec<Record>> {
    let mut r = Reader::new(payload);
    let mut records = Vec::new();
    loop {
        records.extend(Record::decode(&mut r)?);
        if r.done() {
            return Some(records);
        }
    }
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn bytes_u32_len(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Configuration

/// Tuning knobs for [`LogBackend`].
#[derive(Clone)]
pub struct LogConfig {
    /// Write a checkpoint after this many logged mutations; 0 disables
    /// automatic checkpoints (recovery then replays the full log).
    pub checkpoint_every: u64,
    /// Fault-injection hook consulted before every physical I/O step;
    /// `None` in production.
    pub fault_hook: Option<Arc<dyn FaultHook>>,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig { checkpoint_every: 1024, fault_hook: None }
    }
}

impl std::fmt::Debug for LogConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogConfig")
            .field("checkpoint_every", &self.checkpoint_every)
            .field("fault_hook", &self.fault_hook.is_some())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Backend

#[derive(Debug)]
struct ActiveSegment {
    seq: u64,
    file: File,
    /// Bytes physically written to the file.
    written: u64,
    /// Bytes known durable (file length at the last successful fsync).
    /// A simulated dropped fsync truncates back to this point, modelling
    /// the loss of the OS page cache.
    durable: u64,
}

#[derive(Debug)]
struct LogInner {
    root: PathBuf,
    cfg: LogConfig,
    image: ObjectMap,
    seg: ActiveSegment,
    /// Sequence of the newest committed checkpoint (0 = none yet).
    ckpt_seq: u64,
    /// First segment NOT covered by the committed checkpoint.
    watermark: u64,
    ops_since_ckpt: u64,
    stats: IoStats,
    crashed: bool,
    /// The open, `try_lock`ed `<root>/LOCK`; a crash drops it, as a dying
    /// process would.
    store_lock: Option<File>,
}

/// The log-structured, file-backed storage backend.
///
/// Cheap to clone and share; all state sits behind one mutex, as every
/// operation touches the single append head anyway.
///
/// # Examples
///
/// ```no_run
/// use nexus_storage::logstore::LogBackend;
/// use nexus_storage::StorageBackend;
///
/// let store = LogBackend::open("/tmp/nexus-volume").unwrap();
/// store.put("4f2a..uuid", b"ciphertext").unwrap();
/// drop(store);
/// // A reopen recovers objects and versions from the log.
/// let store = LogBackend::open("/tmp/nexus-volume").unwrap();
/// assert_eq!(store.get("4f2a..uuid").unwrap(), b"ciphertext");
/// assert_eq!(store.stat("4f2a..uuid").unwrap().version, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LogBackend {
    inner: Arc<Mutex<LogInner>>,
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

fn seg_name(seq: u64) -> String {
    format!("seg-{seq:010}.log")
}

fn ckpt_name(seq: u64) -> String {
    format!("ckpt-{seq:010}.idx")
}

fn ckpt_tmp_name(seq: u64) -> String {
    format!("ckpt-{seq:010}.tmp")
}

/// Takes `<root>/LOCK` for as long as the returned `File` lives.
///
/// # Errors
///
/// [`StorageError::LockContended`] naming the file while another handle,
/// here or in another process, holds it; [`StorageError::Io`] otherwise.
fn lock_store(root: &Path) -> Result<File, StorageError> {
    let path = root.join(LOCK_FILE);
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(io_err)?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(fs::TryLockError::WouldBlock) => {
            Err(StorageError::LockContended(path.display().to_string()))
        }
        Err(fs::TryLockError::Error(e)) => Err(io_err(e)),
    }
}

/// Parses `prefix-NNNNNNNNNN.suffix` names back to their sequence number.
fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// Outcome of scanning one segment during recovery or audit.
enum SegmentScan {
    Clean,
    /// First corrupt frame starts at this offset; everything after is the
    /// torn tail a crash left behind.
    CorruptAt(u64),
}

/// Parses the frames of one segment, applying the records of each valid
/// frame via `apply`; a frame is decoded whole before any record of it is
/// applied, so a torn or malformed frame drops whole.
fn scan_segment(
    bytes: &[u8],
    mut apply: impl FnMut(Record),
) -> SegmentScan {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER {
            return SegmentScan::CorruptAt(pos as u64);
        }
        let magic = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[8..12].try_into().unwrap());
        if magic != REC_MAGIC || rest.len() - FRAME_HEADER < len {
            return SegmentScan::CorruptAt(pos as u64);
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        if crc32(payload) != crc {
            return SegmentScan::CorruptAt(pos as u64);
        }
        match decode_frame(payload) {
            Some(records) => records.into_iter().for_each(&mut apply),
            None => return SegmentScan::CorruptAt(pos as u64),
        }
        pos += FRAME_HEADER + len;
    }
    SegmentScan::Clean
}

/// A decoded checkpoint: the object map plus its log watermark.
struct Checkpoint {
    watermark: u64,
    image: ObjectMap,
}

impl Checkpoint {
    /// Encodes `image`'s objects; the lock epoch and lock table an older
    /// reader expects are written as zero and empty.
    fn encode(image: &ObjectMap, ckpt_seq: u64, watermark: u64) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&ckpt_seq.to_le_bytes());
        body.extend_from_slice(&watermark.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&(image.len() as u64).to_le_bytes());
        for (path, version, data) in image.objects() {
            body.extend_from_slice(&(path.len() as u32).to_le_bytes());
            body.extend_from_slice(path.as_bytes());
            body.extend_from_slice(&version.to_le_bytes());
            body.extend_from_slice(&(data.len() as u32).to_le_bytes());
            body.extend_from_slice(data);
        }
        body.extend_from_slice(&0u64.to_le_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    /// Decodes a checkpoint, dropping the lock epoch and lock entries an
    /// older writer may have put in it.
    fn decode(bytes: &[u8], expect_seq: u64) -> Option<Checkpoint> {
        if bytes.len() < 4 {
            return None;
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != crc {
            return None;
        }
        let mut r = Reader::new(body);
        if r.u32()? != CKPT_MAGIC || r.u32()? != FORMAT_VERSION {
            return None;
        }
        if r.u64()? != expect_seq {
            return None;
        }
        let watermark = r.u64()?;
        r.u64()?; // the lock epoch: read, dropped
        let mut image = ObjectMap::default();
        for _ in 0..r.u64()? {
            let path = String::from_utf8(r.bytes_u32_len()?.to_vec()).ok()?;
            let version = r.u64()?;
            let data = r.bytes_u32_len()?.to_vec();
            image.insert(path, version, Arc::new(data));
        }
        for _ in 0..r.u64()? {
            // A lock entry, path and owner: read, dropped.
            String::from_utf8(r.bytes_u32_len()?.to_vec()).ok()?;
            r.u64()?;
        }
        if !r.done() {
            return None;
        }
        Some(Checkpoint { watermark, image })
    }
}

impl LogInner {
    fn guard(&self) -> Result<(), StorageError> {
        if self.crashed {
            return Err(StorageError::Io(
                "log backend crashed (injected fault); reopen to recover".into(),
            ));
        }
        Ok(())
    }

    fn fault(&self, point: FaultPoint) -> FaultAction {
        match &self.cfg.fault_hook {
            Some(hook) => hook.on(&point),
            None => FaultAction::Proceed,
        }
    }

    fn crash(&mut self, what: &str) -> StorageError {
        self.crashed = true;
        self.store_lock = None;
        StorageError::Io(format!("injected crash: {what}"))
    }

    /// The one write path: appends `records` as one frame, fsyncs it, then
    /// applies the records to the image and counts them. A crash before the
    /// fsync lands leaves the frame torn or absent, and replay drops it
    /// whole, so one call's records are durable all together or not at all.
    /// An empty call logs nothing.
    fn commit(&mut self, records: Vec<Record>) -> Result<(), StorageError> {
        if records.is_empty() {
            return Ok(());
        }
        let bytes = frame(&records)?;
        let name = seg_name(self.seg.seq);
        match self.fault(FaultPoint::Write { file: name.clone(), len: bytes.len() }) {
            FaultAction::Proceed => {
                self.seg.file.write_all(&bytes).map_err(io_err)?;
                self.seg.written += bytes.len() as u64;
            }
            FaultAction::Torn { keep } => {
                let keep = keep.min(bytes.len().saturating_sub(1));
                let _ = self.seg.file.write_all(&bytes[..keep]);
                return Err(self.crash("torn segment append"));
            }
            FaultAction::Drop => return Err(self.crash("dropped segment append")),
        }
        // A dropped fsync loses the unsynced tail, exactly as a real crash
        // would lose the page cache.
        match self.fault(FaultPoint::Fsync { file: name }) {
            FaultAction::Proceed => self.seg.file.sync_data().map_err(io_err)?,
            _ => {
                let _ = self.seg.file.set_len(self.seg.durable);
                return Err(self.crash("dropped segment fsync"));
            }
        }
        self.seg.durable = self.seg.written;
        let n = records.len() as u64;
        for rec in records {
            match &rec {
                Record::Put { data, .. } => {
                    self.stats.writes += 1;
                    self.stats.bytes_written += data.len() as u64;
                }
                Record::Delete { .. } => self.stats.deletes += 1,
            }
            rec.apply(&mut self.image);
        }
        self.note_ops(n)
    }

    /// Counts `n` acknowledged mutations toward the next checkpoint.
    fn note_ops(&mut self, n: u64) -> Result<(), StorageError> {
        self.ops_since_ckpt += n;
        if self.cfg.checkpoint_every > 0 && self.ops_since_ckpt >= self.cfg.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Writes and commits a checkpoint, then prunes the log behind it.
    fn checkpoint(&mut self) -> Result<(), StorageError> {
        self.guard()?;
        // 1. Roll to a fresh segment so the checkpoint's watermark has a
        //    stable meaning: everything below it is inside the snapshot.
        let new_seq = self.seg.seq + 1;
        let seg_path = self.root.join(seg_name(new_seq));
        match self.fault(FaultPoint::Create { file: seg_name(new_seq) }) {
            FaultAction::Proceed => {
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&seg_path)
                    .map_err(io_err)?;
                file.sync_all().map_err(io_err)?;
                self.seg = ActiveSegment { seq: new_seq, file, written: 0, durable: 0 };
            }
            _ => return Err(self.crash("dropped segment create")),
        }

        // 2. Write the snapshot to a temp file.
        let ck_seq = self.ckpt_seq + 1;
        let body = Checkpoint::encode(&self.image, ck_seq, new_seq);
        let tmp = self.root.join(ckpt_tmp_name(ck_seq));
        let committed = self.root.join(ckpt_name(ck_seq));
        let mut f = File::create(&tmp).map_err(io_err)?;
        match self.fault(FaultPoint::Write { file: ckpt_tmp_name(ck_seq), len: body.len() }) {
            FaultAction::Proceed => f.write_all(&body).map_err(io_err)?,
            FaultAction::Torn { keep } => {
                let keep = keep.min(body.len().saturating_sub(1));
                let _ = f.write_all(&body[..keep]);
                return Err(self.crash("torn checkpoint write"));
            }
            FaultAction::Drop => return Err(self.crash("dropped checkpoint write")),
        }
        // 3. Fsync the temp file before the rename may commit it.
        match self.fault(FaultPoint::Fsync { file: ckpt_tmp_name(ck_seq) }) {
            FaultAction::Proceed => f.sync_all().map_err(io_err)?,
            _ => {
                // The unsynced temp may survive only partially.
                let _ = f.set_len(body.len() as u64 / 2);
                return Err(self.crash("dropped checkpoint fsync"));
            }
        }
        drop(f);
        // 4. The commit point: atomic rename.
        match self.fault(FaultPoint::Rename {
            from: ckpt_tmp_name(ck_seq),
            to: ckpt_name(ck_seq),
        }) {
            FaultAction::Proceed => fs::rename(&tmp, &committed).map_err(io_err)?,
            _ => return Err(self.crash("dropped checkpoint rename")),
        }
        // 5. Persist the rename itself.
        match self.fault(FaultPoint::DirFsync) {
            FaultAction::Proceed => {
                File::open(&self.root).and_then(|d| d.sync_all()).map_err(io_err)?;
            }
            _ => {
                // The rename never reached disk: model it as undone.
                let _ = fs::rename(&committed, &tmp);
                return Err(self.crash("dropped directory fsync"));
            }
        }
        self.ckpt_seq = ck_seq;
        self.watermark = new_seq;
        self.ops_since_ckpt = 0;
        // 6. Prune obsolete files. Failure here loses nothing: recovery
        //    ignores anything below the committed watermark.
        match self.fault(FaultPoint::Cleanup) {
            FaultAction::Proceed => {
                self.prune_obsolete();
                Ok(())
            }
            _ => Err(self.crash("dropped checkpoint cleanup")),
        }
    }

    /// Deletes segments below the watermark and checkpoints older than the
    /// committed one (plus any stray temp files).
    fn prune_obsolete(&self) {
        let Ok(entries) = fs::read_dir(&self.root) else { return };
        for entry in entries.filter_map(|e| e.ok()) {
            let Ok(name) = entry.file_name().into_string() else { continue };
            let stale = match parse_seq(&name, "seg-", ".log") {
                Some(seq) => seq < self.watermark,
                None => match parse_seq(&name, "ckpt-", ".idx") {
                    Some(seq) => seq < self.ckpt_seq,
                    None => parse_seq(&name, "ckpt-", ".tmp").is_some(),
                },
            };
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

impl LogBackend {
    /// Opens (recovering if needed) a backend rooted at `root` with default
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`StorageError::LockContended`] while another handle holds the
    /// store; [`StorageError::Io`] on filesystem failures or a corrupt
    /// *committed* checkpoint (which a crash cannot produce — it means bit
    /// rot or tampering, so recovery refuses to silently drop state).
    pub fn open(root: impl AsRef<Path>) -> Result<LogBackend, StorageError> {
        LogBackend::open_with(root, LogConfig::default())
    }

    /// Opens with explicit [`LogConfig`].
    ///
    /// Recovery itself never consults the fault hook: it models the process
    /// *after* the crash, reading whatever the dying process left on disk.
    ///
    /// # Errors
    ///
    /// See [`LogBackend::open`].
    pub fn open_with(root: impl AsRef<Path>, cfg: LogConfig) -> Result<LogBackend, StorageError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root).map_err(io_err)?;
        let store_lock = lock_store(&root)?;

        // Inventory the directory.
        let mut segs: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let mut ckpts: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let mut strays: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&root).map_err(io_err)?.filter_map(|e| e.ok()) {
            let Ok(name) = entry.file_name().into_string() else { continue };
            if let Some(seq) = parse_seq(&name, "seg-", ".log") {
                segs.insert(seq, entry.path());
            } else if let Some(seq) = parse_seq(&name, "ckpt-", ".idx") {
                ckpts.insert(seq, entry.path());
            } else if parse_seq(&name, "ckpt-", ".tmp").is_some() {
                // An uncommitted checkpoint: a crash before the rename.
                strays.push(entry.path());
            }
        }

        // Load the newest committed checkpoint. A committed checkpoint was
        // fully fsynced before its rename, so failing to decode one is not
        // a crash artifact — refuse to open rather than losing data.
        let mut image = ObjectMap::default();
        let mut watermark = 0u64;
        let mut ckpt_seq = 0u64;
        if let Some((&seq, path)) = ckpts.iter().next_back() {
            let bytes = fs::read(path).map_err(io_err)?;
            let ckpt = Checkpoint::decode(&bytes, seq).ok_or_else(|| {
                StorageError::Io(format!(
                    "corrupt committed checkpoint {}: refusing to open",
                    path.display()
                ))
            })?;
            image = ckpt.image;
            watermark = ckpt.watermark;
            ckpt_seq = seq;
        }

        // Replay the log tail in segment order, truncating at the first
        // corrupt frame (the torn tail of the crashed writer).
        let live_segs: Vec<(u64, PathBuf)> =
            segs.range(watermark..).map(|(&s, p)| (s, p.clone())).collect();
        let mut truncated_after: Option<u64> = None;
        for (seq, path) in &live_segs {
            if let Some(stop) = truncated_after {
                // Everything after a truncation point is unreachable
                // history; a crash cannot create it, but defensively drop
                // it so the surviving log is contiguous.
                if *seq > stop {
                    strays.push(path.clone());
                    continue;
                }
            }
            let bytes = fs::read(path).map_err(io_err)?;
            let scan = scan_segment(&bytes, |rec| rec.apply(&mut image));
            if let SegmentScan::CorruptAt(offset) = scan {
                let f = OpenOptions::new().write(true).open(path).map_err(io_err)?;
                f.set_len(offset).map_err(io_err)?;
                f.sync_all().map_err(io_err)?;
                truncated_after = Some(*seq);
            }
        }

        // The append head: the newest surviving segment, or a fresh one.
        let head_seq = live_segs
            .iter()
            .filter(|(s, _)| truncated_after.is_none_or(|stop| *s <= stop))
            .map(|(s, _)| *s)
            .next_back()
            .unwrap_or(watermark);
        let head_path = root.join(seg_name(head_seq));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&head_path)
            .map_err(io_err)?;
        let written = file.metadata().map_err(io_err)?.len();

        // Prune what recovery decided is garbage (stale checkpoints and
        // segments below the watermark, uncommitted temp files, segments
        // beyond a truncation point).
        for (&seq, path) in &ckpts {
            if seq < ckpt_seq {
                strays.push(path.clone());
            }
        }
        for (&seq, path) in &segs {
            if seq < watermark {
                strays.push(path.clone());
            }
        }
        for path in strays {
            let _ = fs::remove_file(path);
        }

        let inner = LogInner {
            root,
            cfg,
            image,
            seg: ActiveSegment { seq: head_seq, file, written, durable: written },
            ckpt_seq,
            watermark,
            ops_since_ckpt: 0,
            stats: IoStats::default(),
            crashed: false,
            store_lock: Some(store_lock),
        };
        Ok(LogBackend { inner: Arc::new(Mutex::new(inner)) })
    }

    /// Forces a checkpoint now (also exposed for tests and benches).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on filesystem failures or injected crashes.
    pub fn checkpoint_now(&self) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        inner.checkpoint()
    }

    /// True once an injected fault has crashed this handle; every
    /// operation fails until the store is reopened from disk.
    pub fn crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// On-disk footprint: (number of files in the store root, total bytes).
    pub fn disk_footprint(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        let mut files = 0u64;
        let mut bytes = 0u64;
        if let Ok(entries) = fs::read_dir(&inner.root) {
            for entry in entries.filter_map(|e| e.ok()) {
                if let Ok(meta) = entry.metadata() {
                    files += 1;
                    bytes += meta.len();
                }
            }
        }
        (files, bytes)
    }

    /// Audits the on-disk form against the in-memory state (the storage
    /// half of `fsck`): checkpoint validity, segment contiguity and record
    /// integrity, absence of uncommitted temp files, and an independent
    /// replay that must reconstruct exactly the live objects and versions.
    /// Returns human-readable findings; empty means clean.
    pub fn audit(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut findings = Vec::new();
        let mut segs: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let mut ckpts: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let entries = match fs::read_dir(&inner.root) {
            Ok(entries) => entries,
            Err(e) => return vec![format!("unreadable store root: {e}")],
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let Ok(name) = entry.file_name().into_string() else {
                findings.push("non-UTF-8 file name in store root".into());
                continue;
            };
            if let Some(seq) = parse_seq(&name, "seg-", ".log") {
                segs.insert(seq, entry.path());
            } else if let Some(seq) = parse_seq(&name, "ckpt-", ".idx") {
                ckpts.insert(seq, entry.path());
            } else if name != LOCK_FILE {
                findings.push(format!("unexpected file in store root: {name}"));
            }
        }

        // Checkpoint: at most the committed one, decodable, watermark
        // agreeing with the in-memory view.
        let mut replay = ObjectMap::default();
        let mut watermark = 0u64;
        for (&seq, path) in &ckpts {
            if seq != inner.ckpt_seq {
                findings.push(format!("stale checkpoint on disk: {}", path.display()));
                continue;
            }
            match fs::read(path).ok().and_then(|b| Checkpoint::decode(&b, seq)) {
                Some(ckpt) => {
                    if ckpt.watermark != inner.watermark {
                        findings.push(format!(
                            "checkpoint watermark {} disagrees with live watermark {}",
                            ckpt.watermark, inner.watermark
                        ));
                    }
                    replay = ckpt.image;
                    watermark = ckpt.watermark;
                }
                None => findings.push(format!("undecodable checkpoint: {}", path.display())),
            }
        }
        if inner.ckpt_seq > 0 && !ckpts.contains_key(&inner.ckpt_seq) {
            findings.push(format!("committed checkpoint {} missing on disk", inner.ckpt_seq));
        }

        // Segments: contiguous from the watermark to the append head, all
        // frames whole and checksummed.
        let live: Vec<u64> = segs.keys().copied().filter(|&s| s >= watermark).collect();
        let expect: Vec<u64> = (watermark..=inner.seg.seq).collect();
        if live != expect {
            findings.push(format!(
                "segment sequence not contiguous: have {live:?}, expected {expect:?}"
            ));
        }
        for &seq in &live {
            let path = &segs[&seq];
            match fs::read(path) {
                Ok(bytes) => {
                    let scan = scan_segment(&bytes, |rec| rec.apply(&mut replay));
                    if let SegmentScan::CorruptAt(off) = scan {
                        findings.push(format!(
                            "corrupt frame in {} at offset {off}",
                            path.display()
                        ));
                    }
                }
                Err(e) => findings.push(format!("unreadable segment {}: {e}", path.display())),
            }
        }
        for (&seq, path) in &segs {
            if seq < watermark {
                findings.push(format!("stale segment on disk: {}", path.display()));
            }
        }

        // Independent replay must reconstruct the live objects and
        // versions exactly.
        if findings.is_empty() && !replay.objects().eq(inner.image.objects()) {
            findings.push(format!(
                "replayed object map ({} objects) disagrees with the live one ({} objects)",
                replay.len(),
                inner.image.len()
            ));
        }
        findings
    }
}

impl StorageBackend for LogBackend {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        let version = inner.image.version(path) + 1;
        inner.commit(vec![Record::Put { path: path.to_string(), version, data: data.to_vec() }])
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.get_many(&[path.to_string()]).remove(0)
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        let out = inner.image.get_range(path, offset, len)?;
        inner.stats.reads += 1;
        inner.stats.bytes_read += len;
        Ok(out)
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        inner.image.stat(path)?; // NotFound before anything is logged
        inner.commit(vec![Record::Delete { path: path.to_string() }])
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.lock().image.contains(path)
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.stat_many(&[path.to_string()]).remove(0)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.lock().image.list(prefix)
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        inner.image.lock(path, owner)?;
        inner.stats.locks += 1;
        Ok(())
    }

    fn unlock(&self, path: &str, owner: u64) {
        self.inner.lock().image.unlock(path, owner);
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        let mut inner = self.inner.lock();
        // Group commit: the whole batch is one frame and one fsync, so a
        // crash lands all of it or none of it.
        let result = inner.guard().and_then(|()| {
            let mut versions: HashMap<&str, u64> = HashMap::new();
            let records = items
                .iter()
                .map(|(path, data)| {
                    let current = match versions.get(path.as_str()) {
                        Some(&v) => v,
                        None => inner.image.version(path),
                    };
                    versions.insert(path, current + 1);
                    Record::Put { path: path.clone(), version: current + 1, data: data.clone() }
                })
                .collect();
            // A crash in the checkpoint that may follow fails the batch even
            // though it is durable, so callers retry against the reopened
            // store.
            inner.commit(records)
        });
        items.iter().map(|_| result.clone()).collect()
    }

    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        let mut inner = self.inner.lock();
        if let Err(e) = inner.guard() {
            return paths.iter().map(|_| Err(e.clone())).collect();
        }
        paths
            .iter()
            .map(|path| {
                let (data, _) = inner.image.get(path)?;
                inner.stats.reads += 1;
                inner.stats.bytes_read += data.len() as u64;
                Ok(data.as_ref().clone())
            })
            .collect()
    }

    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        let inner = self.inner.lock();
        if let Err(e) = inner.guard() {
            return paths.iter().map(|_| Err(e.clone())).collect();
        }
        paths.iter().map(|path| inner.image.stat(path)).collect()
    }

    fn stats(&self) -> IoStats {
        self.inner.lock().stats
    }

    fn audit_storage(&self) -> Vec<String> {
        self.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nexus-logstore-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open_cfg(root: &Path, checkpoint_every: u64) -> LogBackend {
        LogBackend::open_with(
            root,
            LogConfig { checkpoint_every, ..LogConfig::default() },
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_and_versions() {
        let store = LogBackend::open(tmp()).unwrap();
        store.put("a", b"one").unwrap();
        store.put("a", b"two").unwrap();
        assert_eq!(store.get("a").unwrap(), b"two");
        assert_eq!(store.stat("a").unwrap(), ObjectStat { size: 3, version: 2 });
        assert!(store.exists("a"));
        store.delete("a").unwrap();
        assert!(!store.exists("a"));
        assert!(matches!(store.get("a"), Err(StorageError::NotFound(_))));
        // Re-creating after delete restarts the version chain, like Mem.
        store.put("a", b"back").unwrap();
        assert_eq!(store.stat("a").unwrap().version, 1);
        assert!(store.audit().is_empty(), "{:?}", store.audit());
    }

    #[test]
    fn state_survives_reopen_without_checkpoint() {
        let root = tmp();
        {
            let store = open_cfg(&root, 0);
            store.put("x", b"1").unwrap();
            store.put("x", b"2").unwrap();
            store.put("dir/child", &[7u8; 1000]).unwrap();
            store.lock("x", 42).unwrap();
        }
        let store = LogBackend::open(&root).unwrap();
        assert_eq!(store.get("x").unwrap(), b"2");
        assert_eq!(store.stat("x").unwrap().version, 2);
        assert_eq!(store.get("dir/child").unwrap(), vec![7u8; 1000]);
        // The lock died with the handle that held it.
        store.lock("x", 7).unwrap();
        assert!(matches!(store.lock("x", 42), Err(StorageError::LockContended(_))));
        assert!(store.audit().is_empty(), "{:?}", store.audit());
    }

    #[test]
    fn checkpoint_compacts_and_recovery_uses_it() {
        let root = tmp();
        {
            let store = open_cfg(&root, 4);
            for i in 0..20u32 {
                store.put("hot", &i.to_le_bytes()).unwrap();
            }
            store.put("cold", b"keep").unwrap();
        }
        // Compaction: overwritten versions dropped, few files on disk.
        let names: Vec<String> = fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        assert!(
            names.iter().filter(|n| n.starts_with("seg-")).count() <= 2,
            "old segments pruned: {names:?}"
        );
        assert_eq!(names.iter().filter(|n| n.starts_with("ckpt-")).count(), 1);
        let store = LogBackend::open(&root).unwrap();
        assert_eq!(store.stat("hot").unwrap().version, 20);
        assert_eq!(store.get("cold").unwrap(), b"keep");
        assert!(store.audit().is_empty(), "{:?}", store.audit());
    }

    /// The image is hashed, the checkpoint sorted: two stores filled in
    /// opposite orders write byte-identical checkpoints, and each reopens
    /// from its checkpoint clean.
    #[test]
    fn checkpoints_do_not_depend_on_insertion_order() {
        let names: Vec<String> =
            (0..200u32).map(|i| format!("{:08x}", i.wrapping_mul(0x9e37_79b9))).collect();
        let checkpoint = |order: Vec<&String>| {
            let root = tmp();
            let store = open_cfg(&root, 0);
            for name in order {
                store.put(name, name.as_bytes()).unwrap();
                if name.ends_with(['1', 'c']) {
                    store.lock(name, 7).unwrap();
                }
            }
            store.checkpoint_now().unwrap();
            assert!(store.audit().is_empty(), "{:?}", store.audit());
            drop(store);
            let reopened = LogBackend::open(&root).unwrap();
            assert_eq!(reopened.list("").len(), names.len());
            fs::read(root.join(ckpt_name(1))).unwrap()
        };
        let forward = checkpoint(names.iter().collect());
        let backward = checkpoint(names.iter().rev().collect());
        assert!(forward.len() > 200 * 8);
        assert!(forward == backward, "checkpoints differ");
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let root = tmp();
        {
            let store = open_cfg(&root, 0);
            store.put("a", b"alpha").unwrap();
            store.put("b", b"beta").unwrap();
        }
        // Simulate a torn append: garbage after the last valid record.
        let seg = root.join(seg_name(0));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11]).unwrap();
        drop(f);
        let store = LogBackend::open(&root).unwrap();
        assert_eq!(store.get("a").unwrap(), b"alpha");
        assert_eq!(store.get("b").unwrap(), b"beta");
        assert!(store.audit().is_empty(), "tail truncated: {:?}", store.audit());
        // And the store keeps working past the truncation point.
        store.put("c", b"gamma").unwrap();
        drop(store);
        let store = LogBackend::open(&root).unwrap();
        assert_eq!(store.get("c").unwrap(), b"gamma");
    }

    #[test]
    fn corrupt_committed_checkpoint_refuses_to_open() {
        let root = tmp();
        {
            let store = open_cfg(&root, 2);
            for i in 0..4u32 {
                store.put(&format!("o{i}"), b"x").unwrap();
            }
        }
        let ckpt = fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".idx"))
            .expect("checkpoint exists")
            .path();
        let mut bytes = fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&ckpt, &bytes).unwrap();
        let err = LogBackend::open(&root).unwrap_err();
        assert!(matches!(err, StorageError::Io(ref m) if m.contains("corrupt")), "{err}");
    }

    #[test]
    fn uncommitted_checkpoint_tmp_is_discarded() {
        let root = tmp();
        {
            let store = open_cfg(&root, 0);
            store.put("a", b"1").unwrap();
        }
        fs::write(root.join(ckpt_tmp_name(1)), b"partial garbage").unwrap();
        let store = LogBackend::open(&root).unwrap();
        assert_eq!(store.get("a").unwrap(), b"1");
        assert!(store.audit().is_empty(), "{:?}", store.audit());
        assert!(!root.join(ckpt_tmp_name(1)).exists(), "tmp cleaned on open");
    }

    #[test]
    fn batch_put_matches_serial_semantics() {
        let store = LogBackend::open(tmp()).unwrap();
        store.put("a", b"old").unwrap();
        let out = store.put_many(&[
            ("a".to_string(), b"new".to_vec()),
            ("b".to_string(), b"fresh".to_vec()),
            ("a".to_string(), b"newest".to_vec()),
        ]);
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(store.stat("a").unwrap().version, 3, "duplicate paths bump sequentially");
        assert_eq!(store.stat("b").unwrap().version, 1);
        let got = store.get_many(&["a".into(), "missing".into()]);
        assert_eq!(got[0].as_deref(), Ok(&b"newest"[..]));
        assert!(matches!(got[1], Err(StorageError::NotFound(_))));
        assert!(store.audit().is_empty());
    }

    #[test]
    fn get_range_and_list_match_mem() {
        let store = LogBackend::open(tmp()).unwrap();
        store.put("meta/2", b"").unwrap();
        store.put("meta/1", b"0123456789").unwrap();
        store.put("data/1", b"").unwrap();
        assert_eq!(store.list("meta/"), vec!["meta/1".to_string(), "meta/2".to_string()]);
        assert_eq!(store.get_range("meta/1", 3, 4).unwrap(), b"3456");
        assert!(matches!(
            store.get_range("meta/1", u64::MAX, 2),
            Err(StorageError::BadRange { .. })
        ));
    }

    #[test]
    fn stats_accumulate() {
        let store = LogBackend::open(tmp()).unwrap();
        store.put("a", b"12345").unwrap();
        store.get("a").unwrap();
        store.get_range("a", 0, 2).unwrap();
        store.lock("a", 1).unwrap();
        let stats = store.stats();
        assert_eq!((stats.writes, stats.reads, stats.locks), (1, 2, 1));
        assert_eq!(stats.bytes_written, 5);
        assert_eq!(stats.bytes_read, 7);
    }

    /// What a store reads back from its directory: every object with its
    /// version.
    fn image_of(store: &LogBackend) -> Vec<(String, Vec<u8>, u64)> {
        store
            .list("")
            .into_iter()
            .map(|p| {
                let data = store.get(&p).unwrap();
                (p.clone(), data, store.stat(&p).unwrap().version)
            })
            .collect()
    }

    #[test]
    fn record_roundtrip_all_ops() {
        let records = vec![
            Record::Put { path: "p/%2F".into(), version: 9, data: vec![1, 2, 3] },
            Record::Delete { path: String::new() },
        ];
        for rec in &records {
            let framed = frame(std::slice::from_ref(rec)).unwrap();
            assert_eq!(decode_frame(&framed[FRAME_HEADER..]), Some(vec![rec.clone()]));
        }
        // One frame holds every record of a call, in order.
        let framed = frame(&records).unwrap();
        let mut seen = Vec::new();
        assert!(matches!(scan_segment(&framed, |r| seen.push(r)), SegmentScan::Clean));
        assert_eq!(seen, records);
        assert_eq!(decode_frame(&[]), None, "an empty payload is no frame");
    }

    /// The bytes a one-record put has always put on disk: magic "NXLG",
    /// payload length 30, CRC-32, then op 1, version 1, owner 0, the path
    /// "ab" and the data 01 02 03, each length little-endian.
    #[test]
    fn a_one_record_frame_keeps_its_golden_bytes() {
        let root = tmp();
        let store = open_cfg(&root, 0);
        store.put("ab", &[1, 2, 3]).unwrap();
        let golden: [u8; 42] = [
            0x47, 0x4C, 0x58, 0x4E, 0x1E, 0x00, 0x00, 0x00, 0x61, 0xC0, 0xFC, 0x7D, // header
            0x01, // op
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // owner
            0x02, 0x00, 0x00, 0x00, 0x61, 0x62, // path
            0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, // data
        ];
        assert_eq!(fs::read(root.join(seg_name(0))).unwrap(), golden);
    }

    /// The frame of `put("ab", [1, 2, 3])` at version 1, as above.
    const PUT_FRAME: [u8; 42] = [
        0x47, 0x4C, 0x58, 0x4E, 0x1E, 0x00, 0x00, 0x00, 0x61, 0xC0, 0xFC, 0x7D, // header
        0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // op 1, version 1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // owner 0
        0x02, 0x00, 0x00, 0x00, 0x61, 0x62, 0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03,
    ];

    /// A lock of "ab" by owner 5 at lock epoch 1, as logs held it while
    /// locks were logged: op 3, epoch, owner, path, empty data.
    const LOCK_FRAME: [u8; 39] = [
        0x47, 0x4C, 0x58, 0x4E, 0x1B, 0x00, 0x00, 0x00, 0xEF, 0x90, 0xA6, 0x8E, // header
        0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // op 3, epoch 1
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // owner 5
        0x02, 0x00, 0x00, 0x00, 0x61, 0x62, 0x00, 0x00, 0x00, 0x00,
    ];

    /// Owner 5's unlock of "ab": op 4, sequence 0.
    const UNLOCK_FRAME: [u8; 39] = [
        0x47, 0x4C, 0x58, 0x4E, 0x1B, 0x00, 0x00, 0x00, 0xFE, 0x70, 0x6E, 0xBB, // header
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // op 4, sequence 0
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // owner 5
        0x02, 0x00, 0x00, 0x00, 0x61, 0x62, 0x00, 0x00, 0x00, 0x00,
    ];

    /// Opens `root`, checks it holds "ab" = [1, 2, 3] at `version` and
    /// audits clean, and that no lock is held: owner 6 takes "ab".
    fn assert_ab_at(root: &Path, version: u64) {
        let store = LogBackend::open(root).unwrap();
        assert_eq!(image_of(&store), vec![("ab".to_string(), vec![1, 2, 3], version)]);
        assert!(store.audit().is_empty(), "{:?}", store.audit());
        store.lock("ab", 6).unwrap();
    }

    /// Lock and unlock frames an older log holds replay as nothing: the
    /// put before them stands, and the lock is not held.
    #[test]
    fn logged_lock_and_unlock_frames_replay_to_no_lock() {
        for tail in [&LOCK_FRAME[..], &UNLOCK_FRAME[..], &[LOCK_FRAME, UNLOCK_FRAME].concat()] {
            let root = tmp();
            fs::create_dir_all(&root).unwrap();
            fs::write(root.join(seg_name(0)), [&PUT_FRAME[..], tail].concat()).unwrap();
            assert_ab_at(&root, 1);
            // Replay kept the frames whole rather than cutting them as torn.
            let kept = fs::read(root.join(seg_name(0))).unwrap();
            assert_eq!(kept.len(), PUT_FRAME.len() + tail.len());
        }
    }

    /// A checkpoint an older writer made: lock epoch 7 and "ab" locked by
    /// owner 5 beside "ab" = [1, 2, 3] at version 3. Its objects load; its
    /// lock is dropped.
    #[test]
    fn a_checkpoint_with_a_lock_table_reopens_with_no_lock_held() {
        let golden: [u8; 87] = [
            0x4B, 0x43, 0x58, 0x4E, 0x01, 0x00, 0x00, 0x00, // "NXCK", format 1
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // checkpoint 1
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // watermark 1
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lock epoch 7
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // one object
            0x02, 0x00, 0x00, 0x00, 0x61, 0x62, // "ab"
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version 3
            0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, // data
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // one lock
            0x02, 0x00, 0x00, 0x00, 0x61, 0x62, // "ab"
            0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // owner 5
            0x9A, 0xC3, 0x62, 0x91, // CRC-32
        ];
        let root = tmp();
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join(ckpt_name(1)), golden).unwrap();
        assert_ab_at(&root, 3);
        // The next checkpoint writes lock epoch 0 and no lock entry.
        let store = LogBackend::open(&root).unwrap();
        store.lock("ab", 6).unwrap();
        store.checkpoint_now().unwrap();
        let rewritten = fs::read(root.join(ckpt_name(2))).unwrap();
        assert_eq!(rewritten.len(), golden.len() - 14);
        assert_eq!(rewritten[24..32], [0; 8], "lock epoch");
        assert_eq!(rewritten[rewritten.len() - 12..rewritten.len() - 4], [0; 8], "lock count");
    }

    /// One handle holds a store: a second open is refused while any clone
    /// of it lives, and succeeds once the last is dropped.
    #[test]
    fn a_second_open_is_refused_while_a_handle_lives() {
        let root = tmp();
        let store = open_cfg(&root, 0);
        let clone = store.clone();
        drop(store);
        let refused = LogBackend::open(&root).unwrap_err();
        assert_eq!(refused, StorageError::LockContended(root.join("LOCK").display().to_string()));
        clone.put("ab", &[1, 2, 3]).unwrap();
        clone.lock("ab", 5).unwrap();
        // Locks write nothing: the segment is the put's frame alone.
        assert_eq!(fs::read(root.join(seg_name(0))).unwrap(), PUT_FRAME);
        drop(clone);
        assert_ab_at(&root, 1);
    }

    /// A crash lets go of the store as a dying process would, though the
    /// crashed handle is still referenced.
    #[test]
    fn a_crashed_handle_does_not_block_the_reopen() {
        let root = tmp();
        let cfg = LogConfig {
            checkpoint_every: 0,
            fault_hook: Some(crate::fault::FireAt::new(1, crate::FaultKind::Drop)),
        };
        let crashed = LogBackend::open_with(&root, cfg).unwrap();
        crashed.put("ab", &[1, 2, 3]).unwrap_err();
        assert!(crashed.crashed());
        assert!(LogBackend::open(&root).unwrap().list("").is_empty());
    }

    /// A segment written before a frame could hold several records has a
    /// batch as one frame per record; it replays to the image the same
    /// calls make today.
    #[test]
    fn a_batch_of_one_record_frames_replays_to_the_same_image() {
        let batch = [
            ("a".to_string(), b"new".to_vec()),
            ("b".to_string(), b"fresh".to_vec()),
            ("a".to_string(), b"newest".to_vec()),
        ];
        let today = tmp();
        let store = open_cfg(&today, 0);
        store.put("a", b"old").unwrap();
        store.lock("b", 5).unwrap();
        assert!(store.put_many(&batch).iter().all(|r| r.is_ok()));
        store.delete("a").unwrap();
        drop(store);

        let earlier = tmp();
        fs::create_dir_all(&earlier).unwrap();
        let records = [
            Record::Put { path: "a".into(), version: 1, data: b"old".to_vec() },
            Record::Put { path: "a".into(), version: 2, data: b"new".to_vec() },
            Record::Put { path: "b".into(), version: 1, data: b"fresh".to_vec() },
            Record::Put { path: "a".into(), version: 3, data: b"newest".to_vec() },
            Record::Delete { path: "a".into() },
        ];
        let mut segment: Vec<u8> =
            records.iter().flat_map(|rec| frame(std::slice::from_ref(rec)).unwrap()).collect();
        // The lock taken after the first put was logged then.
        let first = frame(&records[..1]).unwrap().len();
        segment.splice(first..first, LOCK_FRAME);
        fs::write(earlier.join(seg_name(0)), segment).unwrap();

        let today = LogBackend::open(&today).unwrap();
        let earlier = LogBackend::open(&earlier).unwrap();
        assert_eq!(image_of(&earlier), image_of(&today));
        assert_eq!(image_of(&earlier), vec![("b".to_string(), b"fresh".to_vec(), 1)]);
        assert!(earlier.audit().is_empty(), "{:?}", earlier.audit());
    }

    /// A batch is one frame: cut anywhere, or carrying a malformed record
    /// under a valid CRC, it replays as none of its records.
    #[test]
    fn a_damaged_batch_frame_drops_whole() {
        let root = tmp();
        let store = open_cfg(&root, 0);
        store.put("kept", b"1").unwrap();
        let head = fs::read(root.join(seg_name(0))).unwrap().len();
        let batch: Vec<(String, Vec<u8>)> =
            (0..3).map(|i| (format!("o{i}"), vec![i as u8; 40])).collect();
        assert!(store.put_many(&batch).iter().all(|r| r.is_ok()));
        drop(store);
        let full = fs::read(root.join(seg_name(0))).unwrap();
        for cut in [head + FRAME_HEADER + 1, full.len() - 60, full.len() - 1] {
            fs::write(root.join(seg_name(0)), &full[..cut]).unwrap();
            let store = LogBackend::open(&root).unwrap();
            assert_eq!(store.list(""), vec!["kept".to_string()], "cut at {cut}");
            assert!(store.audit().is_empty(), "{:?}", store.audit());
        }

        // Trailing bytes after the last record, under a CRC that holds.
        let rec = Record::Put { path: "x".into(), version: 1, data: vec![9; 8] };
        let mut payload = Vec::new();
        rec.encode_into(&mut payload);
        payload.push(OP_PUT);
        let mut bad = REC_MAGIC.to_le_bytes().to_vec();
        bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bad.extend_from_slice(&crc32(&payload).to_le_bytes());
        bad.extend_from_slice(&payload);
        let mut seen = Vec::new();
        assert!(matches!(scan_segment(&bad, |r| seen.push(r)), SegmentScan::CorruptAt(0)));
        assert!(seen.is_empty(), "no record of a malformed frame applies");
    }

    #[test]
    fn an_empty_batch_logs_nothing() {
        let root = tmp();
        let store = open_cfg(&root, 0);
        assert!(store.put_many(&[]).is_empty());
        assert_eq!(fs::read(root.join(seg_name(0))).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn scan_rejects_bad_magic_length_and_crc() {
        let rec = Record::Put { path: "x".into(), version: 1, data: vec![9; 8] };
        let good = frame(&[rec]).unwrap();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 1;
        assert!(matches!(scan_segment(&bad, |_| ()), SegmentScan::CorruptAt(0)));
        // Length past the buffer.
        let mut bad = good.clone();
        bad[4] = 0xFF;
        assert!(matches!(scan_segment(&bad, |_| ()), SegmentScan::CorruptAt(0)));
        // Flipped payload byte breaks the CRC.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(scan_segment(&bad, |_| ()), SegmentScan::CorruptAt(0)));
        // Corruption after a valid record reports the second offset.
        let mut two = good.clone();
        two.extend_from_slice(&good[..FRAME_HEADER - 1]);
        let off = good.len() as u64;
        match scan_segment(&two, |_| ()) {
            SegmentScan::CorruptAt(o) => assert_eq!(o, off),
            SegmentScan::Clean => panic!("tail must be corrupt"),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
