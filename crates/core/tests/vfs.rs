//! Tests for the file-handle layer ([`nexus_core::NexusFile`]) and its AFS
//! open-to-close semantics.

use std::sync::Arc;

use nexus_core::{NexusConfig, NexusError, NexusFile, NexusVolume, OpenMode, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{MemBackend, StorageBackend};

fn volume() -> (NexusVolume, Arc<MemBackend>) {
    let platform = Platform::seeded(0x0F11E);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let backend = Arc::new(MemBackend::new());
    let owner = UserKeys::from_seed("owen", &[1u8; 32]);
    let (v, _) =
        NexusVolume::create(&platform, backend.clone(), &ias, &owner, NexusConfig::default())
            .unwrap();
    v.authenticate(&owner).unwrap();
    (v, backend)
}

#[test]
fn read_mode_requires_existing_file() {
    let (v, _) = volume();
    assert!(matches!(
        NexusFile::open(&v, "missing", OpenMode::Read),
        Err(NexusError::NotFound(_))
    ));
}

#[test]
fn writes_buffer_until_close() {
    let (v, backend) = volume();
    let mut f = NexusFile::open(&v, "buffered", OpenMode::Write).unwrap();
    let after_create = backend.stats().writes;
    f.write(b"aaaa").unwrap();
    f.write(b"bbbb").unwrap();
    assert_eq!(
        backend.stats().writes,
        after_create,
        "writes stay local until close (open-to-close semantics)"
    );
    f.close().unwrap();
    assert!(backend.stats().writes > after_create, "close flushes");
    assert_eq!(v.read_file("buffered").unwrap(), b"aaaabbbb");
}

#[test]
fn positioned_reads_and_writes() {
    let (v, _) = volume();
    let mut f = NexusFile::open(&v, "pos", OpenMode::Truncate).unwrap();
    f.write(b"0123456789").unwrap();
    f.seek(4);
    assert_eq!(f.read(3), b"456");
    assert_eq!(f.position(), 7);
    f.seek(2);
    f.write(b"XY").unwrap();
    f.close().unwrap();
    assert_eq!(v.read_file("pos").unwrap(), b"01XY456789");
}

#[test]
fn write_past_end_zero_fills() {
    let (v, _) = volume();
    let mut f = NexusFile::open(&v, "sparse", OpenMode::Truncate).unwrap();
    f.write(b"ab").unwrap();
    f.seek(2);
    f.set_len(6).unwrap();
    f.write(b"z").unwrap();
    f.close().unwrap();
    assert_eq!(v.read_file("sparse").unwrap(), b"abz\0\0\0");
}

#[test]
fn append_mode_positions_at_end() {
    let (v, _) = volume();
    v.write_file("log", b"first\n").unwrap();
    let mut f = NexusFile::open(&v, "log", OpenMode::Append).unwrap();
    assert_eq!(f.position(), 6);
    f.write(b"second\n").unwrap();
    f.close().unwrap();
    assert_eq!(v.read_file("log").unwrap(), b"first\nsecond\n");
}

#[test]
fn truncate_discards_previous_contents() {
    let (v, _) = volume();
    v.write_file("t", b"old contents").unwrap();
    let f = NexusFile::open(&v, "t", OpenMode::Truncate).unwrap();
    assert!(f.is_empty());
    f.close().unwrap();
    assert_eq!(v.read_file("t").unwrap(), b"");
}

#[test]
fn read_only_handles_reject_writes() {
    let (v, _) = volume();
    v.write_file("ro", b"data").unwrap();
    let mut f = NexusFile::open(&v, "ro", OpenMode::Read).unwrap();
    assert!(matches!(f.write(b"x"), Err(NexusError::AccessDenied(_))));
    assert!(matches!(f.set_len(0), Err(NexusError::AccessDenied(_))));
    assert_eq!(f.read(4), b"data");
}

#[test]
fn drop_flushes_dirty_handles() {
    let (v, _) = volume();
    {
        let mut f = NexusFile::open(&v, "dropped", OpenMode::Write).unwrap();
        f.write(b"flushed by drop").unwrap();
        // No close(): Drop must flush.
    }
    assert_eq!(v.read_file("dropped").unwrap(), b"flushed by drop");
}

#[test]
fn sync_flushes_without_closing() {
    let (v, _) = volume();
    let mut f = NexusFile::open(&v, "synced", OpenMode::Write).unwrap();
    f.write(b"partial").unwrap();
    f.sync().unwrap();
    assert_eq!(v.read_file("synced").unwrap(), b"partial");
    f.write(b" more").unwrap();
    f.close().unwrap();
    assert_eq!(v.read_file("synced").unwrap(), b"partial more");
}

#[test]
fn opening_a_directory_fails() {
    let (v, _) = volume();
    v.mkdir("d").unwrap();
    assert!(matches!(
        NexusFile::open(&v, "d", OpenMode::Read),
        Err(NexusError::IsADirectory(_))
    ));
    assert!(matches!(
        NexusFile::open(&v, "d", OpenMode::Write),
        Err(NexusError::IsADirectory(_))
    ));
}

#[test]
fn reads_clamp_at_eof() {
    let (v, _) = volume();
    v.write_file("small", b"abc").unwrap();
    let mut f = NexusFile::open(&v, "small", OpenMode::Read).unwrap();
    assert_eq!(f.read(100), b"abc");
    assert_eq!(f.read(100), b"");
    // The read-the-rest idiom after an earlier read: `start + len` must
    // not overflow.
    f.seek(0);
    assert_eq!(f.read(1), b"a");
    assert_eq!(f.read(usize::MAX), b"bc");
    f.seek(1000);
    assert_eq!(f.position(), 3, "seek clamps to file size");
}
