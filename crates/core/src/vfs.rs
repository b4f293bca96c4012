//! A file-handle layer with AFS open-to-close semantics.
//!
//! The OpenAFS prototype intercepts VFS calls: writes stay local until the
//! file is closed, at which point NEXUS encrypts the chunks and pushes them
//! (paper §VII-A). [`NexusFile`] reproduces that: reads pull decrypted
//! contents through the enclave once, writes buffer locally, and `close`
//! (or drop) flushes through `nexus_fs_encrypt`.

use crate::error::{NexusError, Result};
use crate::volume::NexusVolume;

/// How a file is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only; the file must exist.
    Read,
    /// Read/write; the file is created if missing.
    Write,
    /// Read/write starting from empty contents; created if missing.
    Truncate,
    /// Read/write positioned at the end; created if missing.
    Append,
}

/// An open NEXUS file handle.
///
/// # Examples
///
/// ```no_run
/// # use nexus_core::{NexusVolume, OpenMode, NexusFile};
/// # fn demo(volume: &NexusVolume) -> nexus_core::Result<()> {
/// let mut f = NexusFile::open(volume, "notes.txt", OpenMode::Truncate)?;
/// f.write(b"hello ")?;
/// f.write(b"world")?;
/// f.close()?; // flush-on-close: one encrypt + one upload
/// # Ok(())
/// # }
/// ```
pub struct NexusFile<'v> {
    volume: &'v NexusVolume,
    path: String,
    buffer: Vec<u8>,
    position: u64,
    mode: OpenMode,
    dirty: bool,
    closed: bool,
}

impl std::fmt::Debug for NexusFile<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NexusFile")
            .field("path", &self.path)
            .field("size", &self.buffer.len())
            .field("dirty", &self.dirty)
            .finish()
    }
}

impl<'v> NexusFile<'v> {
    /// Opens `path` on `volume`.
    ///
    /// # Errors
    ///
    /// [`NexusError::NotFound`] in [`OpenMode::Read`] when the file does not
    /// exist; access-control errors from the enclave otherwise.
    pub fn open(volume: &'v NexusVolume, path: &str, mode: OpenMode) -> Result<NexusFile<'v>> {
        let existing = match volume.lookup(path) {
            Ok(info) => {
                if info.kind != crate::fsops::FileType::File {
                    return Err(NexusError::IsADirectory(path.to_string()));
                }
                true
            }
            Err(NexusError::NotFound(_)) => false,
            Err(e) => return Err(e),
        };
        if !existing {
            if mode == OpenMode::Read {
                return Err(NexusError::NotFound(path.to_string()));
            }
            volume.create_file(path)?;
        }
        let buffer = if existing && mode != OpenMode::Truncate {
            volume.read_file(path)?
        } else {
            Vec::new()
        };
        let position = match mode {
            OpenMode::Append => buffer.len() as u64,
            _ => 0,
        };
        Ok(NexusFile {
            volume,
            path: path.to_string(),
            buffer,
            position,
            mode,
            dirty: !existing || mode == OpenMode::Truncate,
            closed: false,
        })
    }

    /// The path this handle refers to.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Current file size (including unflushed writes).
    pub fn len(&self) -> u64 {
        self.buffer.len() as u64
    }

    /// True when the buffered file is empty.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Current read/write position.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Moves the read/write position (clamped to the file size).
    pub fn seek(&mut self, position: u64) {
        self.position = position.min(self.buffer.len() as u64);
    }

    /// Reads up to `len` bytes from the current position.
    pub fn read(&mut self, len: usize) -> Vec<u8> {
        let start = (self.position as usize).min(self.buffer.len());
        let end = start.saturating_add(len).min(self.buffer.len());
        let out = self.buffer[start..end].to_vec();
        self.position = end as u64;
        out
    }

    /// Writes at the current position, extending the file if needed.
    ///
    /// # Errors
    ///
    /// [`NexusError::AccessDenied`] for handles opened read-only.
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        if self.mode == OpenMode::Read {
            return Err(NexusError::AccessDenied("file opened read-only".into()));
        }
        let start = self.position as usize;
        let end = start + data.len();
        if end > self.buffer.len() {
            self.buffer.resize(end, 0);
        }
        self.buffer[start..end].copy_from_slice(data);
        self.position = end as u64;
        self.dirty = true;
        Ok(())
    }

    /// Truncates (or zero-extends) to `size`.
    ///
    /// # Errors
    ///
    /// [`NexusError::AccessDenied`] for read-only handles.
    pub fn set_len(&mut self, size: u64) -> Result<()> {
        if self.mode == OpenMode::Read {
            return Err(NexusError::AccessDenied("file opened read-only".into()));
        }
        self.buffer.resize(size as usize, 0);
        self.position = self.position.min(size);
        self.dirty = true;
        Ok(())
    }

    /// Flushes buffered writes through the enclave without closing.
    ///
    /// # Errors
    ///
    /// Encryption/storage failures from the enclave.
    pub fn sync(&mut self) -> Result<()> {
        if self.dirty {
            self.volume.write_file(&self.path, &self.buffer)?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Closes the handle, flushing if dirty (AFS close semantics).
    ///
    /// # Errors
    ///
    /// Encryption/storage failures; the handle is consumed regardless.
    pub fn close(mut self) -> Result<()> {
        let result = self.sync();
        self.closed = true;
        result
    }
}

impl Drop for NexusFile<'_> {
    fn drop(&mut self) {
        if !self.closed && self.dirty {
            // Best-effort flush; errors surface through explicit close().
            let _ = self.volume.write_file(&self.path, &self.buffer);
        }
    }
}
