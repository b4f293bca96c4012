//! Volume verification (`fsck`).
//!
//! Walks the entire metadata hierarchy from the supernode, verifying every
//! object's authenticity, identity, and parent pointers, optionally
//! decrypting every file chunk, and cross-checking the object inventory on
//! the storage service for orphans. A clean report means the volume's
//! reachable state is exactly what an authorized enclave would reconstruct
//! — the operational check a real deployment runs after incidents.

use std::collections::BTreeSet;

use crate::acl::{Principal, Rights};
use crate::enclave::{
    load_all_buckets, load_dirnode, load_filenode, revalidated, EnclaveState, MetaIo,
};
use crate::error::{NexusError, Result};
use crate::fsops;
use crate::metadata::dirnode::EntryKind;
use crate::uuid::NexusUuid;
use crate::volume::NexusVolume;

/// What a verification pass found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Directories traversed (root included).
    pub directories: u64,
    /// Files whose filenodes verified.
    pub files: u64,
    /// Symlinks seen.
    pub symlinks: u64,
    /// Dirnode buckets verified against their MACs.
    pub buckets: u64,
    /// File chunks decrypted and authenticated (deep mode only).
    pub chunks_verified: u64,
    /// Plaintext bytes verified (deep mode only).
    pub bytes_verified: u64,
    /// Objects on the storage service not reachable from the volume
    /// (stale garbage or foreign objects — never a security problem, but
    /// worth reclaiming).
    pub orphans: Vec<String>,
    /// Problems found: (path, description).
    pub errors: Vec<(String, String)>,
    /// Non-fatal hygiene findings: (path, description). Dangling ACL
    /// principals land here — entries naming a user or group the
    /// supernode no longer records. They grant nothing (rights resolution
    /// ignores unknown principals), but indicate an incomplete revocation
    /// sweep worth repairing.
    pub findings: Vec<(String, String)>,
}

impl FsckReport {
    /// True when no integrity problems were found (orphans and hygiene
    /// findings are allowed).
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Depth of verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckMode {
    /// Verify all metadata (structure, authenticity, parent pointers).
    Metadata,
    /// Additionally decrypt and authenticate every file chunk.
    Deep,
}

pub(crate) fn run_fsck(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    mode: FsckMode,
    inventory: &[String],
) -> Result<FsckReport> {
    state.session()?;
    let mut report = FsckReport::default();
    let mut reachable: BTreeSet<NexusUuid> = BTreeSet::new();

    let mounted = state.mounted()?;
    reachable.insert(mounted.supernode_uuid);
    if !mounted.supernode.manifest_uuid.is_nil() {
        reachable.insert(mounted.supernode.manifest_uuid);
    }
    let root = mounted.supernode.root_dir;

    // Iterative DFS over directories: (uuid, parent, path).
    let mut stack: Vec<(NexusUuid, NexusUuid, String)> =
        vec![(root, NexusUuid::NIL, String::new())];
    while let Some((uuid, parent, path)) = stack.pop() {
        reachable.insert(uuid);
        let display = if path.is_empty() { "/".to_string() } else { path.clone() };
        // One phase: a bucket that no longer matches its dirnode sends the
        // walk back to the dirnode, not just to the bucket.
        let dir = match revalidated(state, io, |state, io| {
            let mut dir = load_dirnode(state, io, uuid, Some(parent))?;
            load_all_buckets(state, io, &mut dir)?;
            Ok(dir)
        }) {
            Ok(dir) => dir,
            Err(e) => {
                report.errors.push((display, e.to_string()));
                continue;
            }
        };
        report.directories += 1;
        for slot in &dir.buckets {
            reachable.insert(slot.re.uuid);
            report.buckets += 1;
        }
        {
            let m = state.mounted()?;
            for (principal, _) in dir.acl.iter() {
                let dangling = match principal {
                    Principal::User(id) => {
                        (m.supernode.user_by_id(*id).is_none(), format!("user id {}", id.0))
                    }
                    Principal::Group(gid) => (
                        m.supernode.groups.by_id(*gid).is_none(),
                        format!("group id {}", gid.0),
                    ),
                };
                if dangling.0 {
                    report.findings.push((
                        display.clone(),
                        format!("ACL names dangling principal ({})", dangling.1),
                    ));
                }
            }
        }
        for entry in dir.list_loaded().map(|e| e.to_entry()) {
            let child_path = if path.is_empty() {
                entry.name.clone()
            } else {
                format!("{path}/{}", entry.name)
            };
            match &entry.kind {
                EntryKind::Directory => stack.push((entry.uuid, uuid, child_path)),
                EntryKind::Symlink(_) => {
                    report.symlinks += 1;
                }
                EntryKind::File => {
                    reachable.insert(entry.uuid);
                    let fnode = match revalidated(state, io, |state, io| {
                        load_filenode(state, io, entry.uuid)
                    }) {
                        Ok(f) => f,
                        Err(e) => {
                            report.errors.push((child_path, e.to_string()));
                            continue;
                        }
                    };
                    if fnode.nlink <= 1 && fnode.parent != uuid {
                        report.errors.push((
                            child_path.clone(),
                            "filenode parent pointer mismatch".into(),
                        ));
                        continue;
                    }
                    reachable.insert(fnode.data_uuid);
                    report.files += 1;
                    if mode == FsckMode::Deep {
                        match fsops::fs_decrypt(state, io, &child_path) {
                            Ok(data) => {
                                report.chunks_verified += fnode.chunks.len() as u64;
                                report.bytes_verified += data.len() as u64;
                            }
                            Err(e) => report.errors.push((child_path, e.to_string())),
                        }
                    }
                }
            }
        }
    }

    // Anything in the inventory that is a NEXUS object name but unreachable
    // is an orphan. Non-UUID names (exchange messages, foreign files) are
    // ignored.
    for name in inventory {
        if let Some(uuid) = NexusUuid::from_object_name(name) {
            if !reachable.contains(&uuid) {
                report.orphans.push(name.clone());
            }
        }
    }
    Ok(report)
}

impl NexusVolume {
    /// Verifies the volume (requires an authenticated session with READ
    /// access; the owner sees everything).
    ///
    /// # Errors
    ///
    /// Fails only on session/storage-level problems; integrity findings are
    /// returned inside the report.
    pub fn fsck(&self, mode: FsckMode) -> Result<FsckReport> {
        let inventory = self.backend().list("");
        let mut report = self.enclave_fsck(mode, inventory)?;
        // Durable backends also audit their on-disk form (log/checkpoint
        // integrity, version indices, stray files); RAM backends return
        // nothing. These findings are storage-level, not tied to a volume
        // path.
        for finding in self.backend().audit_storage() {
            report.errors.push(("[storage]".to_string(), finding));
        }
        Ok(report)
    }

    fn enclave_fsck(&self, mode: FsckMode, inventory: Vec<String>) -> Result<FsckReport> {
        self.ecall(move |state, io| {
            // fsck reads everything; restrict to sessions with read access
            // at the root (the owner bypasses, per the ACL model).
            let session = state.session()?;
            if !session.is_owner {
                revalidated(state, io, |state, io| {
                    let (root, effective) = fsops::resolve_dir(state, io, &[])?;
                    state.check_access(&root, effective, Rights::READ)
                })?;
            }
            run_fsck(state, io, mode, &inventory)
        })
    }

    /// Removes orphaned objects found by [`NexusVolume::fsck`] (owner only).
    ///
    /// Returns the number of objects removed.
    ///
    /// # Errors
    ///
    /// [`NexusError::AccessDenied`] for non-owners; storage failures.
    pub fn gc(&self) -> Result<usize> {
        let report = self.fsck(FsckMode::Metadata)?;
        let is_owner = self
            .session()
            .ok_or(NexusError::NotAuthenticated)?
            .is_owner;
        if !is_owner {
            return Err(NexusError::AccessDenied(
                "garbage collection is an owner operation".into(),
            ));
        }
        if !report.is_clean() {
            return Err(NexusError::Integrity(format!(
                "refusing to gc an unhealthy volume ({} error(s))",
                report.errors.len()
            )));
        }
        let mut removed = 0;
        for orphan in &report.orphans {
            if self.backend().delete(orphan).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::NexusConfig;
    use crate::volume::UserKeys;
    use nexus_sgx::{AttestationService, Platform};
    use nexus_storage::{MemBackend, StorageBackend};
    use std::sync::Arc;

    fn volume() -> (NexusVolume, Arc<MemBackend>) {
        let platform = Platform::seeded(0xF5C);
        let ias = AttestationService::new();
        ias.register_platform(&platform);
        let backend = Arc::new(MemBackend::new());
        let owner = UserKeys::from_seed("o", &[1; 32]);
        let (v, _) = NexusVolume::create(
            &platform,
            backend.clone(),
            &ias,
            &owner,
            NexusConfig::default(),
        )
        .unwrap();
        v.authenticate(&owner).unwrap();
        (v, backend)
    }

    #[test]
    fn clean_volume_passes_deep_fsck() {
        let (v, _) = volume();
        v.mkdir_all("a/b").unwrap();
        v.write_file("a/b/f.txt", b"hello").unwrap();
        v.write_file("top.bin", &vec![7u8; 5000]).unwrap();
        v.symlink("top.bin", "a/link").unwrap();
        let report = v.fsck(FsckMode::Deep).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.directories, 3); // root, a, a/b
        assert_eq!(report.files, 2);
        assert_eq!(report.symlinks, 1);
        assert_eq!(report.bytes_verified, 5005);
        assert!(report.orphans.is_empty());
    }

    #[test]
    fn fsck_detects_tampered_file_in_deep_mode() {
        let (v, backend) = volume();
        v.write_file("f.txt", b"data").unwrap();
        // Tamper with the data object directly.
        let fnode_uuid = v.lookup("f.txt").unwrap().uuid;
        let all = backend.list("");
        // The data object is the only non-metadata object; find it by
        // elimination: it is the object that is NOT openable as metadata.
        for name in all {
            if name == fnode_uuid.object_name() {
                continue;
            }
            let mut blob = backend.get(&name).unwrap();
            if !blob.is_empty() && blob.len() < 100 {
                // Likely the tiny data object (4 bytes + tag).
                blob[0] ^= 1;
                backend.put(&name, &blob).unwrap();
            }
        }
        let metadata_only = v.fsck(FsckMode::Metadata).unwrap();
        assert!(metadata_only.is_clean(), "shallow fsck does not read data");
        let deep = v.fsck(FsckMode::Deep).unwrap();
        assert!(!deep.is_clean());
        assert!(deep.errors[0].1.contains("authentication") || deep.errors[0].1.contains("integrity"));
    }

    #[test]
    fn fsck_finds_orphans_and_gc_reclaims_them() {
        let (v, backend) = volume();
        v.write_file("keep.txt", b"keep").unwrap();
        // Simulate leaked objects (e.g., crash between put and insert).
        backend.put(&NexusUuid([0xAA; 16]).object_name(), b"garbage").unwrap();
        backend.put(&NexusUuid([0xBB; 16]).object_name(), b"garbage").unwrap();
        backend.put("xchg-offer-someone", b"not an orphan").unwrap();
        let report = v.fsck(FsckMode::Metadata).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.orphans.len(), 2);
        assert_eq!(v.gc().unwrap(), 2);
        assert!(v.fsck(FsckMode::Metadata).unwrap().orphans.is_empty());
        assert_eq!(v.read_file("keep.txt").unwrap(), b"keep");
        assert!(backend.exists("xchg-offer-someone"));
    }

    #[test]
    fn gc_is_owner_only() {
        let (v, _) = volume();
        let alice = UserKeys::from_seed("alice", &[2; 32]);
        v.add_user("alice", alice.public_key()).unwrap();
        v.set_acl("", "alice", crate::acl::Rights::RW).unwrap();
        v.logout();
        v.authenticate(&alice).unwrap();
        assert!(matches!(v.gc(), Err(NexusError::AccessDenied(_))));
        // But alice with READ on root may fsck.
        assert!(v.fsck(FsckMode::Metadata).unwrap().is_clean());
    }

    #[test]
    fn fsck_merges_storage_audit_findings() {
        use nexus_storage::LogBackend;
        let dir = std::env::temp_dir().join(format!(
            "nexus-fsck-logstore-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let platform = Platform::seeded(0xF5C);
        let ias = AttestationService::new();
        ias.register_platform(&platform);
        let backend = Arc::new(LogBackend::open(&dir).unwrap());
        let owner = UserKeys::from_seed("o", &[1; 32]);
        let (v, _) = NexusVolume::create(
            &platform,
            backend.clone(),
            &ias,
            &owner,
            NexusConfig::default(),
        )
        .unwrap();
        v.authenticate(&owner).unwrap();
        v.write_file("f.txt", b"durable").unwrap();
        // A healthy durable volume passes both the metadata walk and the
        // storage-form audit.
        let report = v.fsck(FsckMode::Deep).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        // Damage the on-disk form behind the backend's back: fsck must
        // surface the storage-level finding even though every reachable
        // object still verifies.
        std::fs::write(dir.join("not-a-log-file"), b"junk").unwrap();
        let report = v.fsck(FsckMode::Metadata).unwrap();
        assert!(!report.is_clean());
        assert!(
            report
                .errors
                .iter()
                .any(|(p, e)| p == "[storage]" && e.contains("not-a-log-file")),
            "{:?}",
            report.errors
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_hardlinked_files_once_per_entry() {
        let (v, _) = volume();
        v.write_file("a.txt", b"x").unwrap();
        v.hardlink("a.txt", "b.txt").unwrap();
        let report = v.fsck(FsckMode::Deep).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.files, 2, "two directory entries");
        assert!(report.orphans.is_empty(), "shared filenode is reachable");
    }
}
