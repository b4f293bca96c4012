//! A crash-consistent, log-structured on-disk storage backend.
//!
//! [`LogBackend`] is the durable counterpart of [`crate::MemBackend`]: its
//! live image is the same object map (`mem::ObjectMap`: per-put version
//! bumps, advisory locks, atomic batches), whose objects and versions are
//! persisted so that a host crash — or restart — at *any* instant loses at
//! most the operation in flight. The store is one append-only file,
//! `<root>/log` (DESIGN.md §12):
//!
//! - **Appends**: every `put`, `delete` and `put_many` is one
//!   length-prefixed, CRC-32-checksummed frame holding that call's records
//!   — one per item — each carrying the path, the assigned version and the
//!   payload. The frame is fsynced before the call is acknowledged; all
//!   writes go through one private `commit`.
//! - **Rewrites**: the image's *live bytes* are what it takes as one `Put`
//!   frame per object. Once the log is longer than twice that — its dead
//!   bytes, superseded and deleted records, outnumber the live ones — it is
//!   rewritten as the image alone, sorted by path, through
//!   [`crate::fault::replace_file`]: temp file, fsync, atomic rename over
//!   `log`, directory fsync. The trigger reads nothing but the log's length
//!   and the image, and is checked after every commit and at `open`, so a
//!   store that many short-lived processes write stays as bounded as one
//!   a long-lived process writes: at most twice its live bytes after every
//!   call, and exactly those right after a rewrite.
//! - **Recovery**: [`LogBackend::open`] replays the log, truncating it at
//!   the first corrupt frame — the torn tail a crash mid-append leaves
//!   behind. A frame is decoded whole before any of its records applies,
//!   so a batch comes back all or none. Objects and versions come back
//!   exactly as acknowledged. A leftover `log.tmp` is a rewrite that never
//!   committed, and is deleted.
//! - **Import**: a store in the segment layout
//!   (`seg-NNNNNNNNNN.log` files, maybe beside an `NXCK` checkpoint
//!   `ckpt-NNNNNNNNNN.idx`; docs/INTERNALS.md §9) has no `log`. `open`
//!   reads it — the newest checkpoint, then the segments from its watermark
//!   on, stopping at the first corrupt frame — writes that image as `log`
//!   by a rewrite, and deletes the segment-layout files. Once `log` exists
//!   it is the store, and any segment-layout file is garbage; until its
//!   rename lands, the old files are the store, read and never changed.
//!
//! Every physical write step, the rewrites' included, consults the
//! [`crate::fault`] shim, so the crash-recovery suite
//! (`tests/crash_recovery.rs`) can kill the backend at every op boundary —
//! torn write, dropped write, dropped rename, dropped fsync — and
//! differentially check recovery against the in-memory oracle. Replay
//! models the process *after* a crash and consults nothing.
//!
//! One process holds a store: `open` takes `<root>/LOCK` with
//! [`File::try_lock`] and keeps it for the handle's lifetime, so a second
//! opener, in another process or this one, gets
//! [`StorageError::LockContended`]. Advisory locks are therefore process
//! state, kept in the image and never logged: like the server `flock` of
//! the paper (§V-A), a lock lives exactly as long as the session holding
//! it. Segments written while locks were logged hold lock and unlock
//! records, and checkpoints a lock table; the import reads them and drops
//! them.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nexus_sync::Mutex;

use crate::backend::{IoStats, ObjectStat, StorageBackend, StorageError};
use crate::fault::{replace_file, FaultAction, FaultHook, FaultPoint};
use crate::mem::ObjectMap;

/// Frame magic: "NXLG".
const REC_MAGIC: u32 = 0x4E58_4C47;
/// The segment layout's checkpoint magic: "NXCK".
const CKPT_MAGIC: u32 = 0x4E58_434B;
/// The checkpoint format version the import reads.
const FORMAT_VERSION: u32 = 1;
/// Frame header: magic + payload length + payload CRC, 4 bytes each.
const FRAME_HEADER: usize = 12;
/// A record's fixed fields: op, version, owner, path length, data length.
const RECORD_FIXED: usize = 1 + 8 + 8 + 4 + 4;
/// The store (module doc).
const LOG_FILE: &str = "log";
/// A rewrite until its rename commits it.
const LOG_TMP: &str = "log.tmp";
/// The file whose lock a handle holds (module doc).
const LOCK_FILE: &str = "LOCK";
/// Name prefixes of the segment layout's files (module doc).
const OLD_LAYOUT: [&str; 2] = ["seg-", "ckpt-"];

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven; the checksum guarding frames and checkpoints.

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
/// Advisory lock and unlock records, which older segments hold: read and
/// dropped, never written.
const OP_LOCK: u8 = 3;
const OP_UNLOCK: u8 = 4;

/// Appends one record's encoding: op, version, a zero owner, then the
/// length-prefixed path and data.
fn encode_record(out: &mut Vec<u8>, op: u8, path: &str, version: u64, data: &[u8]) {
    out.reserve(RECORD_FIXED + path.len() + data.len());
    out.push(op);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&(path.len() as u32).to_le_bytes());
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
}

impl Record {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Record::Put { path, version, data } => encode_record(out, OP_PUT, path, *version, data),
            Record::Delete { path } => encode_record(out, OP_DELETE, path, 0, &[]),
        }
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
}

/// Appends one frame to `out`: magic, payload length, payload CRC, then
/// the payload `body` appends — records' encodings back to back.
///
/// # Errors
///
/// [`StorageError::Io`] when the payload does not fit the frame's 32-bit
/// length.
fn push_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> Result<(), StorageError> {
    let start = out.len();
    out.resize(start + FRAME_HEADER, 0);
    body(out);
    let payload = &out[start + FRAME_HEADER..];
    let len = u32::try_from(payload.len())
        .map_err(|_| StorageError::Io(format!("log frame of {} bytes", payload.len())))?;
    let crc = crc32(payload);
    out[start..start + 4].copy_from_slice(&REC_MAGIC.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
    out[start + 8..start + 12].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Frames one call's records for the log. A one-record frame is byte for
/// byte the single-record frame of every earlier log.
fn frame(records: &[Record]) -> Result<Vec<u8>, StorageError> {
    let mut out = Vec::new();
    push_frame(&mut out, |out| records.iter().for_each(|rec| rec.encode_into(out)))?;
    Ok(out)
}

/// The bytes a `Put` frame of `path` holding `size` bytes takes: that
/// object's share of the live bytes.
fn put_frame_len(path: &str, size: u64) -> u64 {
    (FRAME_HEADER + RECORD_FIXED + path.len()) as u64 + size
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

/// Outcome of scanning a run of frames during recovery or audit.
enum Scan {
    Clean,
    /// First corrupt frame starts at this offset; everything after is the
    /// torn tail a crash left behind.
    CorruptAt(u64),
}

/// Parses the frames of `bytes`, applying the records of each valid frame
/// via `apply`; a frame is decoded whole before any record of it is
/// applied, so a torn or malformed frame drops whole.
fn scan_frames(bytes: &[u8], mut apply: impl FnMut(Record)) -> Scan {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER {
            return Scan::CorruptAt(pos as u64);
        }
        let magic = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[8..12].try_into().unwrap());
        if magic != REC_MAGIC || rest.len() - FRAME_HEADER < len {
            return Scan::CorruptAt(pos as u64);
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        if crc32(payload) != crc {
            return Scan::CorruptAt(pos as u64);
        }
        match decode_frame(payload) {
            Some(records) => records.into_iter().for_each(&mut apply),
            None => return Scan::CorruptAt(pos as u64),
        }
        pos += FRAME_HEADER + len;
    }
    Scan::Clean
}

// ---------------------------------------------------------------------------
// The image

/// The object map and its live bytes (module doc), kept in step.
#[derive(Debug, Default)]
struct Image {
    map: ObjectMap,
    live: u64,
}

impl Image {
    fn apply(&mut self, rec: Record) {
        let (Record::Put { path, .. } | Record::Delete { path }) = &rec;
        if let Ok(old) = self.map.stat(path) {
            self.live -= put_frame_len(path, old.size);
        }
        match rec {
            Record::Put { path, version, data } => {
                self.live += put_frame_len(&path, data.len() as u64);
                self.map.insert(path, version, Arc::new(data));
            }
            Record::Delete { path } => {
                let _ = self.map.remove(&path);
            }
        }
    }

    /// Whether a log of `len` bytes holding this image has more dead bytes
    /// than live ones: the rewrite trigger.
    fn outgrown_by(&self, len: u64) -> bool {
        len > 2 * self.live
    }

    /// What a rewrite writes: the objects sorted by path, each one `Put`
    /// frame at its version, `live` bytes in all.
    fn log_bytes(&self) -> Result<Vec<u8>, StorageError> {
        let mut out = Vec::with_capacity(self.live as usize);
        for (path, version, data) in self.map.objects() {
            push_frame(&mut out, |out| encode_record(out, OP_PUT, path, version, data))?;
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// The import of the segment layout

/// Decodes an `NXCK` checkpoint of the segment layout into its watermark
/// (the first segment it does not cover) and image, dropping the lock
/// epoch and lock entries an older writer may have put in it.
fn decode_checkpoint(bytes: &[u8], expect_seq: u64) -> Option<(u64, Image)> {
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
    let mut image = Image::default();
    for _ in 0..r.u64()? {
        let path = String::from_utf8(r.bytes_u32_len()?.to_vec()).ok()?;
        let version = r.u64()?;
        let data = r.bytes_u32_len()?.to_vec();
        image.apply(Record::Put { path, version, data });
    }
    for _ in 0..r.u64()? {
        // A lock entry, path and owner: read, dropped.
        String::from_utf8(r.bytes_u32_len()?.to_vec()).ok()?;
        r.u64()?;
    }
    if !r.done() {
        return None;
    }
    Some((watermark, image))
}

/// Parses `prefix-NNNNNNNNNN.suffix` names back to their sequence number.
fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// Reads a store in the segment layout (module doc); `None` when `root`
/// holds no segment or checkpoint. It only reads, so a crash before the
/// import's rename leaves the old store as it was.
///
/// # Errors
///
/// [`StorageError::Io`] when a file is unreadable or the newest committed
/// checkpoint does not decode: it was fsynced before its rename, so a
/// crash cannot produce one, and the import refuses to drop state.
fn read_segments(root: &Path) -> Result<Option<Image>, StorageError> {
    let mut segs: BTreeMap<u64, PathBuf> = BTreeMap::new();
    let mut ckpts: BTreeMap<u64, PathBuf> = BTreeMap::new();
    for entry in fs::read_dir(root).map_err(io_err)?.filter_map(|e| e.ok()) {
        let Ok(name) = entry.file_name().into_string() else { continue };
        if let Some(seq) = parse_seq(&name, "seg-", ".log") {
            segs.insert(seq, entry.path());
        } else if let Some(seq) = parse_seq(&name, "ckpt-", ".idx") {
            ckpts.insert(seq, entry.path());
        }
    }
    if segs.is_empty() && ckpts.is_empty() {
        return Ok(None);
    }
    let (watermark, mut image) = match ckpts.last_key_value() {
        Some((&seq, path)) => {
            let bytes = fs::read(path).map_err(io_err)?;
            decode_checkpoint(&bytes, seq).ok_or_else(|| {
                StorageError::Io(format!(
                    "corrupt committed checkpoint {}: refusing to open",
                    path.display()
                ))
            })?
        }
        None => (0, Image::default()),
    };
    for path in segs.range(watermark..).map(|(_, path)| path) {
        let bytes = fs::read(path).map_err(io_err)?;
        if let Scan::CorruptAt(_) = scan_frames(&bytes, |rec| image.apply(rec)) {
            break; // a torn tail: nothing after it was acknowledged
        }
    }
    Ok(Some(image))
}

/// Deletes what is not the store once `log` exists: an uncommitted rewrite
/// and every file of the segment layout.
fn remove_garbage(root: &Path) {
    let Ok(entries) = fs::read_dir(root) else { return };
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == LOG_TMP || OLD_LAYOUT.iter().any(|prefix| name.starts_with(prefix)) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

// ---------------------------------------------------------------------------
// Backend

struct LogInner {
    root: PathBuf,
    hook: Option<Arc<dyn FaultHook>>,
    image: Image,
    /// `<root>/log`, open for appending.
    log: File,
    /// Bytes physically written to the log.
    written: u64,
    /// Bytes known durable (the log's length at the last successful
    /// fsync). A simulated dropped fsync truncates back to this point,
    /// modelling the loss of the OS page cache.
    durable: u64,
    /// No frame appended since the last rewrite: the log is exactly the
    /// live bytes.
    rewritten: bool,
    stats: IoStats,
    crashed: bool,
    /// The open, `try_lock`ed `<root>/LOCK`; a crash drops it, as a dying
    /// process would.
    store_lock: Option<File>,
}

impl std::fmt::Debug for LogInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogInner")
            .field("root", &self.root)
            .field("objects", &self.image.map.len())
            .field("live", &self.image.live)
            .field("written", &self.written)
            .field("crashed", &self.crashed)
            .finish()
    }
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

/// Opens `<root>/log` for appending, creating it empty if absent.
fn open_log(root: &Path) -> Result<File, StorageError> {
    OpenOptions::new().create(true).append(true).open(root.join(LOG_FILE)).map_err(io_err)
}

/// Writes `image` as `root`'s log by a rewrite ([`replace_file`]) and opens
/// the result for appending; returns it with its length.
fn write_log(
    root: &Path,
    image: &Image,
    hook: Option<&dyn FaultHook>,
) -> Result<(File, u64), StorageError> {
    let bytes = image.log_bytes()?;
    replace_file(root, LOG_TMP, LOG_FILE, &bytes, hook)?;
    Ok((open_log(root)?, bytes.len() as u64))
}

impl LogInner {
    fn guard(&self) -> Result<(), StorageError> {
        if self.crashed {
            return Err(StorageError::Io(
                "log backend crashed (a failed or injected-fault write); reopen to recover"
                    .into(),
            ));
        }
        Ok(())
    }

    fn fault(&self, point: FaultPoint) -> FaultAction {
        match &self.hook {
            Some(hook) => hook.on(&point),
            None => FaultAction::Proceed,
        }
    }

    /// Marks the handle crashed and returns `err`: after a failed write
    /// the log may not be what the handle believes, so only a reopen may
    /// read it. The store lock goes as a dying process's would.
    fn poison(&mut self, err: StorageError) -> StorageError {
        self.crashed = true;
        self.store_lock = None;
        err
    }

    fn crash(&mut self, what: &str) -> StorageError {
        self.poison(StorageError::Io(format!("injected crash: {what}")))
    }

    /// The one write path: appends `records` as one frame, fsyncs it, then
    /// applies the records to the image and counts them, and rewrites the
    /// log if they left it outgrown. A crash before the fsync lands leaves
    /// the frame torn or absent, and replay drops it whole, so one call's
    /// records are durable all together or not at all. An empty call logs
    /// nothing.
    fn commit(&mut self, records: Vec<Record>) -> Result<(), StorageError> {
        if records.is_empty() {
            return Ok(());
        }
        let bytes = frame(&records)?;
        match self.fault(FaultPoint::Write { file: LOG_FILE.into(), len: bytes.len() }) {
            FaultAction::Proceed => {
                if let Err(e) = self.log.write_all(&bytes) {
                    return Err(self.poison(io_err(e)));
                }
                self.written += bytes.len() as u64;
            }
            FaultAction::Torn { keep } => {
                let keep = keep.min(bytes.len().saturating_sub(1));
                let _ = self.log.write_all(&bytes[..keep]);
                return Err(self.crash("torn log append"));
            }
            FaultAction::Drop => return Err(self.crash("dropped log append")),
        }
        // A dropped fsync loses the unsynced tail, exactly as a real crash
        // would lose the page cache.
        match self.fault(FaultPoint::Fsync { file: LOG_FILE.into() }) {
            FaultAction::Proceed => {
                if let Err(e) = self.log.sync_data() {
                    return Err(self.poison(io_err(e)));
                }
            }
            _ => {
                let _ = self.log.set_len(self.durable);
                return Err(self.crash("dropped log fsync"));
            }
        }
        self.durable = self.written;
        self.rewritten = false;
        for rec in records {
            match &rec {
                Record::Put { data, .. } => {
                    self.stats.writes += 1;
                    self.stats.bytes_written += data.len() as u64;
                }
                Record::Delete { .. } => self.stats.deletes += 1,
            }
            self.image.apply(rec);
        }
        if self.image.outgrown_by(self.written) {
            self.rewrite()?;
        }
        Ok(())
    }

    /// Rewrites the log as the image alone (module doc). Its bytes count
    /// in no [`IoStats`] field. A failure poisons the handle: once the
    /// rename may have landed, appends through the old file would be lost.
    fn rewrite(&mut self) -> Result<(), StorageError> {
        match write_log(&self.root, &self.image, self.hook.as_deref()) {
            Ok((log, len)) => {
                (self.log, self.written, self.durable, self.rewritten) = (log, len, len, true);
                Ok(())
            }
            Err(e) => Err(self.poison(e)),
        }
    }
}

impl LogBackend {
    /// Opens (recovering or importing if needed) a backend rooted at
    /// `root`.
    ///
    /// # Errors
    ///
    /// [`StorageError::LockContended`] while another handle holds the
    /// store; [`StorageError::Io`] on filesystem failures or, in a store
    /// of the segment layout, a corrupt *committed* checkpoint (which a
    /// crash cannot produce — it means bit rot or tampering, so the import
    /// refuses to silently drop state).
    pub fn open(root: impl AsRef<Path>) -> Result<LogBackend, StorageError> {
        LogBackend::open_with_hook(root, None)
    }

    /// [`LogBackend::open`] with a fault-injection hook consulted before
    /// every physical write step (tests only; production passes `None`
    /// via [`LogBackend::open`]). Replay consults nothing; the rewrite an
    /// import or an outgrown log makes at `open` does.
    ///
    /// # Errors
    ///
    /// See [`LogBackend::open`]; an injected crash in that rewrite fails
    /// the open.
    pub fn open_with_hook(
        root: impl AsRef<Path>,
        hook: Option<Arc<dyn FaultHook>>,
    ) -> Result<LogBackend, StorageError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root).map_err(io_err)?;
        let store_lock = lock_store(&root)?;

        let mut image = Image::default();
        let (log, written, rewritten) = match fs::read(root.join(LOG_FILE)) {
            Ok(bytes) => {
                let log = open_log(&root)?;
                // Truncate the torn tail of the crashed writer.
                if let Scan::CorruptAt(len) = scan_frames(&bytes, |rec| image.apply(rec)) {
                    log.set_len(len).and_then(|()| log.sync_all()).map_err(io_err)?;
                }
                let len = log.metadata().map_err(io_err)?.len();
                (log, len, false)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => match read_segments(&root)? {
                Some(old) => {
                    image = old;
                    let (log, len) = write_log(&root, &image, hook.as_deref())?;
                    let cleanup = |h: &Arc<dyn FaultHook>| h.on(&FaultPoint::Cleanup);
                    if hook.as_ref().is_some_and(|h| cleanup(h) != FaultAction::Proceed) {
                        let crash = "injected crash: dropped import cleanup";
                        return Err(StorageError::Io(crash.into()));
                    }
                    (log, len, true)
                }
                None => {
                    // A new store: its empty log, whose name must outlive
                    // a crash before the first append.
                    let log = open_log(&root)?;
                    File::open(&root).and_then(|d| d.sync_all()).map_err(io_err)?;
                    (log, 0, false)
                }
            },
            Err(e) => return Err(io_err(e)),
        };
        remove_garbage(&root);

        let mut inner = LogInner {
            root,
            hook,
            image,
            log,
            written,
            durable: written,
            rewritten,
            stats: IoStats::default(),
            crashed: false,
            store_lock: Some(store_lock),
        };
        if inner.image.outgrown_by(written) {
            inner.rewrite()?;
        }
        Ok(LogBackend { inner: Arc::new(Mutex::new(inner)) })
    }

    /// Rewrites the log now, whatever its dead bytes (also exposed for
    /// tests and benches).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on filesystem failures or injected crashes.
    pub fn compact_now(&self) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        inner.rewrite()
    }

    /// True once a failed write or an injected fault has crashed this
    /// handle; every operation fails until the store is reopened from disk.
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
    /// half of `fsck`): the root holds the lock and the log alone, every
    /// frame is whole and checksummed, the log is at most twice its live
    /// bytes and exactly those right after a rewrite, and an independent
    /// replay reconstructs exactly the live objects and versions. Returns
    /// human-readable findings; empty means clean.
    pub fn audit(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let entries = match fs::read_dir(&inner.root) {
            Ok(entries) => entries,
            Err(e) => return vec![format!("unreadable store root: {e}")],
        };
        let mut findings: Vec<String> = entries
            .filter_map(|e| e.ok())
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .filter(|name| name != LOCK_FILE && name != LOG_FILE)
            .map(|name| format!("unexpected file in store root: {name}"))
            .collect();
        let bytes = match fs::read(inner.root.join(LOG_FILE)) {
            Ok(bytes) => bytes,
            Err(e) => {
                findings.push(format!("unreadable log: {e}"));
                return findings;
            }
        };
        let mut replay = Image::default();
        if let Scan::CorruptAt(off) = scan_frames(&bytes, |rec| replay.apply(rec)) {
            findings.push(format!("corrupt frame in the log at offset {off}"));
        }
        let (len, live) = (bytes.len() as u64, replay.live);
        if replay.outgrown_by(len) {
            findings.push(format!("a log of {len} bytes is over twice its {live} live bytes"));
        }
        if inner.rewritten && len != live {
            findings.push(format!("a rewritten log of {len} bytes is not its {live} live bytes"));
        }
        if findings.is_empty()
            && (!replay.map.objects().eq(inner.image.map.objects()) || live != inner.image.live)
        {
            findings.push(format!(
                "replayed object map ({} objects) disagrees with the live one ({} objects)",
                replay.map.len(),
                inner.image.map.len()
            ));
        }
        findings
    }
}

impl StorageBackend for LogBackend {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        let version = inner.image.map.version(path) + 1;
        inner.commit(vec![Record::Put { path: path.to_string(), version, data: data.to_vec() }])
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.get_many(&[path.to_string()]).remove(0)
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        let out = inner.image.map.get_range(path, offset, len)?;
        inner.stats.reads += 1;
        inner.stats.bytes_read += len;
        Ok(out)
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        inner.image.map.stat(path)?; // NotFound before anything is logged
        inner.commit(vec![Record::Delete { path: path.to_string() }])
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.lock().image.map.contains(path)
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.stat_many(&[path.to_string()]).remove(0)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.lock().image.map.list(prefix)
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        inner.image.map.lock(path, owner)?;
        inner.stats.locks += 1;
        Ok(())
    }

    fn unlock(&self, path: &str, owner: u64) {
        self.inner.lock().image.map.unlock(path, owner);
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
                        None => inner.image.map.version(path),
                    };
                    versions.insert(path, current + 1);
                    Record::Put { path: path.clone(), version: current + 1, data: data.clone() }
                })
                .collect();
            // A crash in the rewrite that may follow fails the batch even
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
                let (data, _) = inner.image.map.get(path)?;
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
        paths.iter().map(|path| inner.image.map.stat(path)).collect()
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

    /// A segment of the segment layout, which the import reads.
    fn seg_name(seq: u64) -> String {
        format!("seg-{seq:010}.log")
    }

    /// A checkpoint of the segment layout.
    fn ckpt_name(seq: u64) -> String {
        format!("ckpt-{seq:010}.idx")
    }

    /// The files in `root`, sorted.
    fn files(root: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
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
            let store = LogBackend::open(&root).unwrap();
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

    /// Twenty overwrites of one object outgrow the log; the rewrite keeps
    /// it within twice the live bytes, and a reopen reads it back.
    #[test]
    fn compaction_drops_dead_bytes_and_recovery_reads_the_rewrite() {
        let root = tmp();
        {
            let store = LogBackend::open(&root).unwrap();
            for i in 0..20u32 {
                store.put("hot", &i.to_le_bytes()).unwrap();
            }
            store.put("cold", b"keep").unwrap();
        }
        let live = put_frame_len("hot", 4) + put_frame_len("cold", 4);
        let len = fs::metadata(root.join(LOG_FILE)).unwrap().len();
        assert!(len <= 2 * live, "a log of {len} bytes for {live} live bytes");
        assert_eq!(files(&root), ["LOCK", LOG_FILE]);
        let store = LogBackend::open(&root).unwrap();
        assert_eq!(store.stat("hot").unwrap().version, 20);
        assert_eq!(store.get("cold").unwrap(), b"keep");
        assert!(store.audit().is_empty(), "{:?}", store.audit());
        store.compact_now().unwrap();
        assert_eq!(fs::metadata(root.join(LOG_FILE)).unwrap().len(), live);
        assert!(store.audit().is_empty(), "{:?}", store.audit());
    }

    /// The image is hashed, the rewrite sorted: two stores filled in
    /// opposite orders rewrite byte-identical logs, and each reopens from
    /// its rewrite clean.
    #[test]
    fn rewrites_do_not_depend_on_insertion_order() {
        let names: Vec<String> =
            (0..200u32).map(|i| format!("{:08x}", i.wrapping_mul(0x9e37_79b9))).collect();
        let rewrite = |order: Vec<&String>| {
            let root = tmp();
            let store = LogBackend::open(&root).unwrap();
            for name in order {
                store.put(name, name.as_bytes()).unwrap();
                if name.ends_with(['1', 'c']) {
                    store.lock(name, 7).unwrap();
                }
            }
            store.compact_now().unwrap();
            assert!(store.audit().is_empty(), "{:?}", store.audit());
            drop(store);
            let reopened = LogBackend::open(&root).unwrap();
            assert_eq!(reopened.list("").len(), names.len());
            fs::read(root.join(LOG_FILE)).unwrap()
        };
        let forward = rewrite(names.iter().collect());
        let backward = rewrite(names.iter().rev().collect());
        assert!(forward.len() > 200 * 8);
        assert!(forward == backward, "rewrites differ");
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let root = tmp();
        {
            let store = LogBackend::open(&root).unwrap();
            store.put("a", b"alpha").unwrap();
            store.put("b", b"beta").unwrap();
        }
        // Simulate a torn append: garbage after the last valid record.
        let log = root.join(LOG_FILE);
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
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

    /// A store of the segment layout, written by its writer: a checkpoint
    /// with watermark 1, then a second checkpoint that crashed after rolling
    /// to segment 2, so segments 1 and 2 both hold puts past it.
    fn segment_layout_store() -> PathBuf {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/segment-layout");
        let root = tmp();
        fs::create_dir_all(&root).unwrap();
        for name in files(&fixture) {
            fs::copy(fixture.join(&name), root.join(&name)).unwrap();
        }
        root
    }

    /// The segment-layout store imports with every object and version its
    /// writer acknowledged, and leaves the log alone behind.
    #[test]
    fn a_segment_layout_store_imports_its_objects_and_versions() {
        let root = segment_layout_store();
        assert_eq!(files(&root), [ckpt_name(1), seg_name(1), seg_name(2)]);
        let store = LogBackend::open(&root).unwrap();
        let want = [
            ("a", &b"alpha-v3"[..], 3),
            ("a%2Fb", b"percent", 1),
            ("b", b"b-back", 1),
            ("dir/deep/leaf", b"deep-v2", 2),
            ("meta/uuid-1", b"meta", 1),
        ];
        let want: Vec<_> = want.iter().map(|(p, d, v)| (p.to_string(), d.to_vec(), *v)).collect();
        assert_eq!(image_of(&store), want);
        assert_eq!(files(&root), ["LOCK", LOG_FILE]);
        assert!(store.audit().is_empty(), "{:?}", store.audit());
        drop(store);
        assert_eq!(image_of(&LogBackend::open(&root).unwrap()), want);
    }

    #[test]
    fn corrupt_committed_checkpoint_refuses_to_open() {
        let root = segment_layout_store();
        let ckpt = root.join(ckpt_name(1));
        let mut bytes = fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&ckpt, &bytes).unwrap();
        let err = LogBackend::open(&root).unwrap_err();
        assert!(matches!(err, StorageError::Io(ref m) if m.contains("corrupt")), "{err}");
        assert!(!root.join(LOG_FILE).exists(), "the old files stay the store");
    }

    #[test]
    fn uncommitted_checkpoint_tmp_is_discarded() {
        let root = tmp();
        {
            let store = LogBackend::open(&root).unwrap();
            store.put("a", b"1").unwrap();
        }
        for stray in ["ckpt-0000000001.tmp", LOG_TMP] {
            fs::write(root.join(stray), b"partial garbage").unwrap();
        }
        let store = LogBackend::open(&root).unwrap();
        assert_eq!(store.get("a").unwrap(), b"1");
        assert!(store.audit().is_empty(), "{:?}", store.audit());
        assert_eq!(files(&root), ["LOCK", LOG_FILE], "temp files cleaned on open");
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
        assert!(matches!(scan_frames(&framed, |r| seen.push(r)), Scan::Clean));
        assert_eq!(seen, records);
        assert_eq!(decode_frame(&[]), None, "an empty payload is no frame");
    }

    /// The bytes a one-record put has always put on disk: magic "NXLG",
    /// payload length 30, CRC-32, then op 1, version 1, owner 0, the path
    /// "ab" and the data 01 02 03, each length little-endian.
    #[test]
    fn a_one_record_frame_keeps_its_golden_bytes() {
        let root = tmp();
        let store = LogBackend::open(&root).unwrap();
        store.put("ab", &[1, 2, 3]).unwrap();
        let golden: [u8; 42] = [
            0x47, 0x4C, 0x58, 0x4E, 0x1E, 0x00, 0x00, 0x00, 0x61, 0xC0, 0xFC, 0x7D, // header
            0x01, // op
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // owner
            0x02, 0x00, 0x00, 0x00, 0x61, 0x62, // path
            0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, // data
        ];
        assert_eq!(fs::read(root.join(LOG_FILE)).unwrap(), golden);
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

    /// Lock and unlock frames an older segment holds replay as nothing:
    /// the put before them stands, and the lock is not held.
    #[test]
    fn logged_lock_and_unlock_frames_replay_to_no_lock() {
        let put_v2 = frame(&[Record::Put { path: "ab".into(), version: 2, data: vec![1, 2, 3] }]);
        for tail in [&LOCK_FRAME[..], &UNLOCK_FRAME[..], &[LOCK_FRAME, UNLOCK_FRAME].concat()] {
            let root = tmp();
            fs::create_dir_all(&root).unwrap();
            fs::write(root.join(seg_name(0)), [&PUT_FRAME[..], tail].concat()).unwrap();
            assert_ab_at(&root, 1);
            // Replay read past the frames rather than cutting them as torn:
            // a put after them stands.
            let root = tmp();
            fs::create_dir_all(&root).unwrap();
            let segment = [&PUT_FRAME[..], tail, put_v2.as_ref().unwrap()].concat();
            fs::write(root.join(seg_name(0)), segment).unwrap();
            assert_ab_at(&root, 2);
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
        // The import left one log, holding the object alone, and no
        // checkpoint.
        assert_eq!(files(&root), ["LOCK", LOG_FILE]);
        let put_v3 = frame(&[Record::Put { path: "ab".into(), version: 3, data: vec![1, 2, 3] }]);
        assert_eq!(fs::read(root.join(LOG_FILE)).unwrap(), put_v3.unwrap());
    }

    /// One handle holds a store: a second open is refused while any clone
    /// of it lives, and succeeds once the last is dropped.
    #[test]
    fn a_second_open_is_refused_while_a_handle_lives() {
        let root = tmp();
        let store = LogBackend::open(&root).unwrap();
        let clone = store.clone();
        drop(store);
        let refused = LogBackend::open(&root).unwrap_err();
        assert_eq!(refused, StorageError::LockContended(root.join("LOCK").display().to_string()));
        clone.put("ab", &[1, 2, 3]).unwrap();
        clone.lock("ab", 5).unwrap();
        // Locks write nothing: the log is the put's frame alone.
        assert_eq!(fs::read(root.join(LOG_FILE)).unwrap(), PUT_FRAME);
        drop(clone);
        assert_ab_at(&root, 1);
    }

    /// A crash lets go of the store as a dying process would, though the
    /// crashed handle is still referenced.
    #[test]
    fn a_crashed_handle_does_not_block_the_reopen() {
        let root = tmp();
        let hook = crate::fault::FireAt::new(1, crate::FaultKind::Drop);
        let crashed = LogBackend::open_with_hook(&root, Some(hook)).unwrap();
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
        let store = LogBackend::open(&today).unwrap();
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
        let store = LogBackend::open(&root).unwrap();
        store.put("kept", b"1").unwrap();
        let head = fs::read(root.join(LOG_FILE)).unwrap().len();
        let batch: Vec<(String, Vec<u8>)> =
            (0..3).map(|i| (format!("o{i}"), vec![i as u8; 40])).collect();
        assert!(store.put_many(&batch).iter().all(|r| r.is_ok()));
        drop(store);
        let full = fs::read(root.join(LOG_FILE)).unwrap();
        for cut in [head + FRAME_HEADER + 1, full.len() - 60, full.len() - 1] {
            fs::write(root.join(LOG_FILE), &full[..cut]).unwrap();
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
        assert!(matches!(scan_frames(&bad, |r| seen.push(r)), Scan::CorruptAt(0)));
        assert!(seen.is_empty(), "no record of a malformed frame applies");
    }

    #[test]
    fn an_empty_batch_logs_nothing() {
        let root = tmp();
        let store = LogBackend::open(&root).unwrap();
        assert!(store.put_many(&[]).is_empty());
        assert_eq!(fs::read(root.join(LOG_FILE)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn scan_rejects_bad_magic_length_and_crc() {
        let rec = Record::Put { path: "x".into(), version: 1, data: vec![9; 8] };
        let good = frame(&[rec]).unwrap();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 1;
        assert!(matches!(scan_frames(&bad, |_| ()), Scan::CorruptAt(0)));
        // Length past the buffer.
        let mut bad = good.clone();
        bad[4] = 0xFF;
        assert!(matches!(scan_frames(&bad, |_| ()), Scan::CorruptAt(0)));
        // Flipped payload byte breaks the CRC.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(scan_frames(&bad, |_| ()), Scan::CorruptAt(0)));
        // Corruption after a valid record reports the second offset.
        let mut two = good.clone();
        two.extend_from_slice(&good[..FRAME_HEADER - 1]);
        let off = good.len() as u64;
        match scan_frames(&two, |_| ()) {
            Scan::CorruptAt(o) => assert_eq!(o, off),
            Scan::Clean => panic!("tail must be corrupt"),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
