//! A storage backend over a real local directory.
//!
//! Persists NEXUS objects as ordinary files, the way the OpenAFS prototype
//! used "a normal AFS directory as the metadata backing store" (§VII).
//! Object paths map to file names with `/` **and `%`** percent-encoded, so
//! distinct object names can never collide on disk, and the namespace stays
//! flat exactly like UUID-named NEXUS objects.
//!
//! Durability contract (DESIGN.md §12):
//!
//! - `put` never tears an object: data goes to a temp file in the same
//!   directory, is fsynced, atomically renamed over the target, and the
//!   directory is fsynced — a crash leaves either the old object or the
//!   new one, never a prefix.
//! - Per-object versions survive reopen: a sidecar index (`%versions%`,
//!   a name no encoded object path can take) is committed with the same
//!   temp-fsync-rename discipline after every mutation, and reloaded by
//!   [`DirBackend::open`]. An object present on disk but missing from the
//!   sidecar (crash between the two commits) re-enters at version 1;
//!   sidecar entries whose object vanished are dropped.
//!
//! Every physical step of the commit path consults the [`crate::fault`]
//! shim (the commit is [`crate::fault::replace_file`], which the log's
//! rewrite shares), so the recovery suite can pin the torn-put and
//! version-amnesia regressions with injected crashes. Advisory locks remain in-process:
//! the paper's `flock()` lives on the *server*, which here is
//! [`crate::logstore::LogBackend`]'s job to persist.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nexus_sync::Mutex;

use crate::backend::{check_range, IoStats, ObjectStat, StorageBackend, StorageError};
use crate::fault::{replace_file, FaultHook};
use crate::logstore::crc32;

/// Sidecar file holding the persisted version index. Encoded object names
/// escape every literal `%` to `%25`, so no object can claim this name.
const SIDECAR: &str = "%versions%";
/// Prefix of temp files used by the commit path; same argument.
const TMP_PREFIX: &str = "%tmp%-";
/// Sidecar magic: "NXDV".
const SIDECAR_MAGIC: u32 = 0x4E58_4456;
/// Sidecar format version.
const SIDECAR_VERSION: u32 = 1;

/// A backend writing objects into a directory on the local filesystem.
#[derive(Debug, Clone)]
pub struct DirBackend {
    root: PathBuf,
    state: Arc<Mutex<DirState>>,
}

struct DirState {
    locks: HashMap<String, u64>,
    versions: HashMap<String, u64>,
    stats: IoStats,
    tmp_seq: u64,
    crashed: bool,
    hook: Option<Arc<dyn FaultHook>>,
}

impl std::fmt::Debug for DirState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirState")
            .field("versions", &self.versions.len())
            .field("locks", &self.locks.len())
            .field("crashed", &self.crashed)
            .finish()
    }
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

/// The error of opening, reading or removing the file of object `path`:
/// absence is diagnosed from the error itself (no exists()-then-act TOCTOU).
fn object_err(path: &str, e: std::io::Error) -> StorageError {
    if e.kind() == std::io::ErrorKind::NotFound {
        StorageError::NotFound(path.to_string())
    } else {
        io_err(e)
    }
}

/// Maps an object path to its on-disk file name. `%` is escaped first so
/// the escape character itself can never be forged: `"a/b"` → `a%2Fb` and
/// `"a%2Fb"` → `a%252Fb` are distinct files.
fn encode_name(path: &str) -> String {
    path.replace('%', "%25").replace('/', "%2F")
}

/// Inverse of [`encode_name`], strict: returns `None` for names carrying
/// any `%` sequence the encoder cannot produce — internal files (the
/// sidecar, temp files) and foreign files are thereby invisible to `list`.
fn decode_name(file_name: &str) -> Option<String> {
    let bytes = file_name.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            match bytes.get(i..i + 3)? {
                b"%25" => out.push(b'%'),
                b"%2F" => out.push(b'/'),
                _ => return None,
            }
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    // Input was valid UTF-8 and only ASCII was spliced, so this holds.
    String::from_utf8(out).ok()
}

/// Serializes the version index for the sidecar file.
fn encode_sidecar(versions: &HashMap<String, u64>) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&SIDECAR_MAGIC.to_le_bytes());
    body.extend_from_slice(&SIDECAR_VERSION.to_le_bytes());
    body.extend_from_slice(&(versions.len() as u64).to_le_bytes());
    let mut entries: Vec<(&String, &u64)> = versions.iter().collect();
    entries.sort();
    for (path, version) in entries {
        body.extend_from_slice(&(path.len() as u32).to_le_bytes());
        body.extend_from_slice(path.as_bytes());
        body.extend_from_slice(&version.to_le_bytes());
    }
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Strict inverse of [`encode_sidecar`]; `None` on any framing or checksum
/// mismatch.
fn decode_sidecar(bytes: &[u8]) -> Option<HashMap<String, u64>> {
    if bytes.len() < 4 {
        return None;
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return None;
    }
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let end = pos.checked_add(n)?;
        if end > body.len() {
            return None;
        }
        let out = &body[*pos..end];
        *pos = end;
        Some(out)
    };
    let mut pos = 0;
    let magic = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    let ver = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    if magic != SIDECAR_MAGIC || ver != SIDECAR_VERSION {
        return None;
    }
    let count = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
    let mut versions = HashMap::new();
    for _ in 0..count {
        let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let path = String::from_utf8(take(&mut pos, len)?.to_vec()).ok()?;
        let version = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        versions.insert(path, version);
    }
    if pos != body.len() {
        return None;
    }
    Some(versions)
}

impl DirBackend {
    /// Opens (creating if needed) a backend rooted at `root`, reloading the
    /// persisted version index and cleaning up crash leftovers (stray temp
    /// files).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] when the directory cannot be created or read,
    /// or when the committed sidecar index is corrupt (a crash cannot
    /// produce that — it is committed fully-fsynced by atomic rename — so
    /// recovery refuses to silently reset every version).
    pub fn open(root: impl AsRef<Path>) -> Result<DirBackend, StorageError> {
        DirBackend::open_with_hook(root, None)
    }

    /// [`DirBackend::open`] with a fault-injection hook on the commit path
    /// (tests only; production passes `None` via [`DirBackend::open`]).
    ///
    /// # Errors
    ///
    /// See [`DirBackend::open`].
    pub fn open_with_hook(
        root: impl AsRef<Path>,
        hook: Option<Arc<dyn FaultHook>>,
    ) -> Result<DirBackend, StorageError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root).map_err(io_err)?;

        let mut versions = match fs::read(root.join(SIDECAR)) {
            Ok(bytes) => decode_sidecar(&bytes).ok_or_else(|| {
                StorageError::Io(format!(
                    "corrupt version index {}: refusing to open",
                    root.join(SIDECAR).display()
                ))
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => HashMap::new(),
            Err(e) => return Err(io_err(e)),
        };

        // Reconcile the index with the objects actually on disk.
        let mut on_disk: Vec<String> = Vec::new();
        for entry in fs::read_dir(&root).map_err(io_err)?.filter_map(|e| e.ok()) {
            let Ok(name) = entry.file_name().into_string() else { continue };
            if name == SIDECAR {
                continue;
            }
            if name.starts_with(TMP_PREFIX) {
                // An uncommitted temp file: a crash before its rename.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(path) = decode_name(&name) {
                on_disk.push(path);
            }
        }
        // Crash between object commit and sidecar commit can leave the two
        // one mutation apart; the object file is the source of truth for
        // existence, the sidecar for version history.
        versions.retain(|path, _| on_disk.contains(path));
        for path in on_disk {
            versions.entry(path).or_insert(1);
        }

        let state = DirState {
            locks: HashMap::new(),
            versions,
            stats: IoStats::default(),
            tmp_seq: 0,
            crashed: false,
            hook,
        };
        Ok(DirBackend { root, state: Arc::new(Mutex::new(state)) })
    }

    /// True once an injected fault has crashed this handle; reopen from
    /// disk to recover.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    fn file_for(&self, path: &str) -> PathBuf {
        self.root.join(encode_name(path))
    }

    /// Commits `bytes` to `rel_name` through [`replace_file`], the temp
    /// file taking the next `%tmp%-N` name. A failed commit, an injected
    /// crash included, poisons the handle.
    fn commit_file(
        &self,
        st: &mut DirState,
        rel_name: &str,
        bytes: &[u8],
    ) -> Result<(), StorageError> {
        let tmp = format!("{TMP_PREFIX}{}", st.tmp_seq);
        st.tmp_seq += 1;
        let done = replace_file(&self.root, &tmp, rel_name, bytes, st.hook.as_deref());
        st.crashed |= done.is_err();
        done
    }

    /// Commits the current version index to the sidecar file.
    fn commit_sidecar(&self, st: &mut DirState) -> Result<(), StorageError> {
        let bytes = encode_sidecar(&st.versions);
        self.commit_file(st, SIDECAR, &bytes)
    }

    /// Refuses reads and mutations alike on a handle an injected fault has
    /// crashed: its disk is that of a machine that lost power, which only
    /// a reopen may read.
    fn guard(st: &DirState) -> Result<(), StorageError> {
        if st.crashed {
            return Err(StorageError::Io(
                "dir backend crashed (injected fault); reopen to recover".into(),
            ));
        }
        Ok(())
    }

    /// Audits the on-disk form against the live state: sidecar decodes and
    /// matches memory, every indexed object exists, every object is
    /// indexed, and no stray temp files remain. Empty means clean.
    pub fn audit(&self) -> Vec<String> {
        let st = self.state.lock();
        let mut findings = Vec::new();
        match fs::read(self.root.join(SIDECAR)) {
            Ok(bytes) => match decode_sidecar(&bytes) {
                Some(disk) => {
                    if disk != st.versions {
                        findings.push("sidecar version index disagrees with live state".into());
                    }
                }
                None => findings.push("undecodable sidecar version index".into()),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if !st.versions.is_empty() {
                    findings.push("version index missing while objects are tracked".into());
                }
            }
            Err(e) => findings.push(format!("unreadable sidecar: {e}")),
        }
        let entries = match fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) => {
                findings.push(format!("unreadable store root: {e}"));
                return findings;
            }
        };
        let mut on_disk = Vec::new();
        for entry in entries.filter_map(|e| e.ok()) {
            let Ok(name) = entry.file_name().into_string() else { continue };
            if name == SIDECAR {
                continue;
            }
            if name.starts_with(TMP_PREFIX) {
                findings.push(format!("stray temp file: {name}"));
            } else if let Some(path) = decode_name(&name) {
                on_disk.push(path);
            } else {
                findings.push(format!("undecodable file name in store root: {name}"));
            }
        }
        for path in &on_disk {
            if !st.versions.contains_key(path) {
                findings.push(format!("object {path:?} missing from version index"));
            }
        }
        for path in st.versions.keys() {
            if !on_disk.contains(path) {
                findings.push(format!("indexed object {path:?} missing on disk"));
            }
        }
        findings
    }
}

impl StorageBackend for DirBackend {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut st = self.state.lock();
        Self::guard(&st)?;
        self.commit_file(&mut st, &encode_name(path), data)?;
        let version = st.versions.get(path).copied().unwrap_or(0) + 1;
        st.versions.insert(path.to_string(), version);
        self.commit_sidecar(&mut st)?;
        st.stats.writes += 1;
        st.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        Self::guard(&self.state.lock())?;
        let data = fs::read(self.file_for(path)).map_err(|e| object_err(path, e))?;
        let mut st = self.state.lock();
        st.stats.reads += 1;
        st.stats.bytes_read += data.len() as u64;
        Ok(data)
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        Self::guard(&self.state.lock())?;
        let mut file = File::open(self.file_for(path)).map_err(|e| object_err(path, e))?;
        let size = file.metadata().map_err(io_err)?.len();
        check_range(path, offset, len, size)?;
        // `len <= size` now, so the allocation is bounded by the file.
        let mut data = vec![0u8; len as usize];
        file.seek(SeekFrom::Start(offset)).map_err(io_err)?;
        file.read_exact(&mut data).map_err(io_err)?;
        let mut st = self.state.lock();
        st.stats.reads += 1;
        st.stats.bytes_read += len;
        Ok(data)
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        let mut st = self.state.lock();
        Self::guard(&st)?;
        fs::remove_file(self.file_for(path)).map_err(|e| object_err(path, e))?;
        st.versions.remove(path);
        self.commit_sidecar(&mut st)?;
        st.stats.deletes += 1;
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.file_for(path).exists()
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        let st = self.state.lock();
        Self::guard(&st)?;
        let meta = fs::metadata(self.file_for(path)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StorageError::NotFound(path.to_string())
            } else {
                io_err(e)
            }
        })?;
        Ok(ObjectStat { size: meta.len(), version: st.versions.get(path).copied().unwrap_or(0) })
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut out: Vec<String> = fs::read_dir(&self.root)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .filter(|n| n != SIDECAR && !n.starts_with(TMP_PREFIX))
                    .filter_map(|n| decode_name(&n))
                    .filter(|n| n.starts_with(prefix))
                    .collect()
            })
            .unwrap_or_default();
        out.sort();
        out
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        let mut st = self.state.lock();
        Self::guard(&st)?;
        match st.locks.get(path) {
            Some(&holder) if holder != owner => Err(StorageError::LockContended(path.into())),
            _ => {
                st.locks.insert(path.to_string(), owner);
                st.stats.locks += 1;
                Ok(())
            }
        }
    }

    fn unlock(&self, path: &str, owner: u64) {
        let mut st = self.state.lock();
        if st.locks.get(path) == Some(&owner) {
            st.locks.remove(path);
        }
    }

    fn stats(&self) -> IoStats {
        self.state.lock().stats
    }

    fn audit_storage(&self) -> Vec<String> {
        self.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nexus-dirbackend-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_on_disk() {
        let backend = DirBackend::open(tmp()).unwrap();
        backend.put("uuid-1", b"payload").unwrap();
        assert_eq!(backend.get("uuid-1").unwrap(), b"payload");
        assert_eq!(backend.stat("uuid-1").unwrap().size, 7);
        backend.delete("uuid-1").unwrap();
        assert!(!backend.exists("uuid-1"));
        assert!(backend.audit().is_empty(), "{:?}", backend.audit());
    }

    #[test]
    fn slashes_are_encoded() {
        let backend = DirBackend::open(tmp()).unwrap();
        backend.put("meta/deep/uuid", b"x").unwrap();
        assert_eq!(backend.list("meta/"), vec!["meta/deep/uuid".to_string()]);
        assert_eq!(backend.get("meta/deep/uuid").unwrap(), b"x");
    }

    #[test]
    fn percent_names_do_not_collide() {
        // The regression this PR pins: before `%` was escaped, "a%2Fb"
        // and "a/b" mapped to the same disk file.
        let backend = DirBackend::open(tmp()).unwrap();
        backend.put("a/b", b"slash").unwrap();
        backend.put("a%2Fb", b"literal").unwrap();
        assert_eq!(backend.get("a/b").unwrap(), b"slash");
        assert_eq!(backend.get("a%2Fb").unwrap(), b"literal");
        let mut names = backend.list("");
        names.sort();
        assert_eq!(names, vec!["a%2Fb".to_string(), "a/b".to_string()]);
        backend.delete("a%2Fb").unwrap();
        assert_eq!(backend.get("a/b").unwrap(), b"slash", "deleting one leaves the other");
        assert!(backend.audit().is_empty(), "{:?}", backend.audit());
    }

    #[test]
    fn name_codec_roundtrips_and_rejects_foreign() {
        for name in ["a/b", "a%2Fb", "%", "%25", "a%%//b", "plain", "%versions%"] {
            let encoded = encode_name(name);
            assert_eq!(decode_name(&encoded).as_deref(), Some(name), "{name:?}");
            assert!(!encoded.contains('/'), "{encoded:?} must be flat");
        }
        // Names the encoder cannot produce are invisible to list().
        assert_eq!(decode_name(SIDECAR), None);
        assert_eq!(decode_name("%tmp%-3"), None);
        assert_eq!(decode_name("a%2fb"), None, "lowercase escape is foreign");
        assert_eq!(decode_name("trailing%"), None);
    }

    #[test]
    fn missing_object_errors() {
        let backend = DirBackend::open(tmp()).unwrap();
        assert!(matches!(backend.get("nope"), Err(StorageError::NotFound(_))));
        assert!(matches!(backend.delete("nope"), Err(StorageError::NotFound(_))));
        assert!(matches!(backend.stat("nope"), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn get_range_reads_only_the_range() {
        let backend = DirBackend::open(tmp()).unwrap();
        backend.put("r", b"0123456789").unwrap();
        let before = backend.stats().bytes_read;
        assert_eq!(backend.get_range("r", 3, 4).unwrap(), b"3456");
        assert_eq!(backend.stats().bytes_read - before, 4, "not the whole object");
        assert_eq!(backend.get_range("r", 6, 4).unwrap(), b"6789");
        assert_eq!(backend.get_range("r", 2, 0).unwrap(), b"");
        assert_eq!(backend.get_range("r", 10, 0).unwrap(), b"");
        for (offset, len) in [(8, 5), (10, 1), (11, 0), (u64::MAX, 2), (2, u64::MAX)] {
            assert!(
                matches!(backend.get_range("r", offset, len), Err(StorageError::BadRange { .. })),
                "offset {offset}, len {len}",
            );
        }
        assert!(matches!(backend.get_range("gone", 0, 1), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn stat_versions_survive_reopen() {
        let root = tmp();
        {
            let backend = DirBackend::open(&root).unwrap();
            backend.put("v", b"1").unwrap();
            backend.put("v", b"2").unwrap();
            backend.put("w", b"x").unwrap();
            backend.delete("w").unwrap();
            assert_eq!(backend.stat("v").unwrap().version, 2);
        }
        // The regression this PR pins: versions used to reset to 0 here.
        let backend = DirBackend::open(&root).unwrap();
        assert_eq!(backend.stat("v").unwrap().version, 2);
        assert!(!backend.exists("w"));
        backend.put("v", b"3").unwrap();
        assert_eq!(backend.stat("v").unwrap().version, 3);
        assert!(backend.audit().is_empty(), "{:?}", backend.audit());
    }

    #[test]
    fn object_without_sidecar_entry_recovers_at_version_one() {
        let root = tmp();
        {
            let backend = DirBackend::open(&root).unwrap();
            backend.put("known", b"k").unwrap();
        }
        // Simulate a crash between object commit and sidecar commit: the
        // object landed, the index never heard of it.
        std::fs::File::create(root.join(encode_name("orphan")))
            .and_then(|mut f| f.write_all(b"o"))
            .unwrap();
        let backend = DirBackend::open(&root).unwrap();
        assert_eq!(backend.stat("known").unwrap().version, 1);
        assert_eq!(backend.stat("orphan").unwrap().version, 1);
        assert_eq!(backend.get("orphan").unwrap(), b"o");
    }

    #[test]
    fn corrupt_sidecar_refuses_to_open() {
        let root = tmp();
        {
            let backend = DirBackend::open(&root).unwrap();
            backend.put("a", b"1").unwrap();
        }
        let side = root.join(SIDECAR);
        let mut bytes = std::fs::read(&side).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&side, &bytes).unwrap();
        let err = DirBackend::open(&root).unwrap_err();
        assert!(matches!(err, StorageError::Io(ref m) if m.contains("corrupt")), "{err}");
    }

    #[test]
    fn sidecar_codec_roundtrips() {
        let mut versions = HashMap::new();
        versions.insert("a/b".to_string(), 3u64);
        versions.insert("a%2Fb".to_string(), 9u64);
        versions.insert(String::new(), 1u64);
        let bytes = encode_sidecar(&versions);
        assert_eq!(decode_sidecar(&bytes), Some(versions));
        assert_eq!(decode_sidecar(b""), None);
        assert_eq!(decode_sidecar(b"shrt"), None);
        let empty = encode_sidecar(&HashMap::new());
        assert_eq!(decode_sidecar(&empty), Some(HashMap::new()));
    }

    #[test]
    fn locks_behave_like_mem() {
        let backend = DirBackend::open(tmp()).unwrap();
        backend.lock("f", 1).unwrap();
        assert!(backend.lock("f", 2).is_err());
        backend.unlock("f", 1);
        backend.lock("f", 2).unwrap();
    }
}
