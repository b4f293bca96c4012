//! The NEXUS filesystem API (paper Table I) — enclave-side implementations.
//!
//! Nine operations: seven directory operations (`touch`, `remove`,
//! `lookup`, `filldir`, `symlink`, `hardlink`, `rename`) and two file
//! operations (`encrypt`, `decrypt`), plus the random-access read the
//! chunked format exists for. Each operation traverses the volume's
//! metadata from the root, decrypting and enforcing access control at every
//! layer (§IV-A), and takes the server-side advisory lock around metadata
//! updates (§V-A).

use std::sync::Arc;

use crate::acl::{Rights, UserId};
use crate::datapath;
use crate::enclave::{
    commit_flush, evict, fresh_uuid, load_all_buckets, load_dirnode, load_filenode,
    lookup_entry, stage_dirnode, stage_filenode, store_dirnode, store_filenode, EnclaveState,
    MetaCommit, MetaIo,
};
use crate::error::{NexusError, Result};
use crate::metadata::dirnode::{DirEntry, Dirnode, EntryKind};
use crate::metadata::filenode::{ChunkContext, Filenode};
use crate::uuid::NexusUuid;

/// What `lookup` reports about a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupInfo {
    /// UUID of the metadata object backing the path.
    pub uuid: NexusUuid,
    /// Entry type at the path.
    pub kind: FileType,
    /// Plaintext size for files; entry count for directories.
    pub size: u64,
    /// Hard-link count for files (1 otherwise).
    pub nlink: u32,
}

/// Public entry type (mirrors [`EntryKind`] without the inline target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// A directory.
    Directory,
    /// A regular file.
    File,
    /// A symbolic link.
    Symlink,
}

impl From<&EntryKind> for FileType {
    fn from(kind: &EntryKind) -> FileType {
        match kind {
            EntryKind::Directory => FileType::Directory,
            EntryKind::File => FileType::File,
            EntryKind::Symlink(_) => FileType::Symlink,
        }
    }
}

/// One row of a directory listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirRow {
    /// Entry name.
    pub name: String,
    /// Entry type.
    pub kind: FileType,
}

/// RAII unlock for the server-side advisory lock.
struct LockGuard<'x, 'a> {
    io: &'x MetaIo<'a>,
    uuid: NexusUuid,
}

impl<'x, 'a> LockGuard<'x, 'a> {
    fn acquire(io: &'x MetaIo<'a>, uuid: NexusUuid) -> Result<LockGuard<'x, 'a>> {
        io.lock(&uuid)?;
        Ok(LockGuard { io, uuid })
    }
}

impl Drop for LockGuard<'_, '_> {
    fn drop(&mut self) {
        self.io.unlock(&self.uuid);
    }
}

/// Splits and validates a path into components.
pub(crate) fn split_path(path: &str) -> Result<Vec<&str>> {
    let mut out = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => continue,
            ".." => return Err(NexusError::InvalidName("`..` is not supported".into())),
            name => out.push(name),
        }
    }
    Ok(out)
}

fn validate_name(name: &str) -> Result<()> {
    if name.is_empty() || name.contains('/') || name == "." || name == ".." {
        return Err(NexusError::InvalidName(name.to_string()));
    }
    Ok(())
}

/// Walks from the volume root through `components`, validating parent
/// pointers and decrypting each layer; returns the final dirnode.
///
/// Traversal itself requires only an authenticated session. Rights are
/// enforced against the *containing* directory of whatever an operation
/// touches (paper §IV-C: "permissions apply to all files and
/// subdirectories within a directory"), so holding rights on a shared
/// subdirectory suffices even without rights on its ancestors.
pub(crate) fn resolve_dir(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    components: &[&str],
) -> Result<(Arc<Dirnode>, Rights)> {
    state.session()?;
    let root_uuid = state.mounted()?.supernode.root_dir;
    let mut dir = load_dirnode(state, io, root_uuid, Some(NexusUuid::NIL))?;
    group_fresh_rights(state, io, &dir)?;
    let mut effective = state.local_rights(&dir)?;
    for comp in components {
        let entry = lookup_entry(state, io, &mut dir, comp)?
            .ok_or_else(|| NexusError::NotFound((*comp).to_string()))?;
        match entry.kind {
            EntryKind::Directory => {
                dir = load_dirnode(state, io, entry.uuid, Some(dir.uuid))?;
                group_fresh_rights(state, io, &dir)?;
                effective = effective.union(state.local_rights(&dir)?);
            }
            _ => return Err(NexusError::NotADirectory((*comp).to_string())),
        }
    }
    Ok((dir, effective))
}

/// Rights derived from a group entry must be checked against the *latest*
/// group table: a revoked member's session would otherwise keep resolving
/// membership from the supernode cached at auth time and go on reading
/// old-epoch ciphertext. One cheap version probe per group-bearing ACL.
fn group_fresh_rights(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    dir: &Dirnode,
) -> Result<()> {
    if dir.acl.has_group_entries() && !state.session()?.is_owner {
        crate::enclave::ensure_supernode_current(state, io)?;
    }
    Ok(())
}

/// Resolves the parent directory of `path`, returning it, the final name,
/// and the session's effective rights on it.
fn resolve_parent<'p>(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &'p str,
) -> Result<(Arc<Dirnode>, &'p str, Rights)> {
    let comps = split_path(path)?;
    let (last, parents) = comps
        .split_last()
        .ok_or_else(|| NexusError::InvalidName("path has no final component".into()))?;
    let (dir, effective) = resolve_dir(state, io, parents)?;
    Ok((dir, last, effective))
}

/// `nexus_fs_touch`: creates a file or directory at `path`.
pub(crate) fn fs_touch(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
    kind: FileType,
) -> Result<NexusUuid> {
    let (mut dir, name, effective) = resolve_parent(state, io, path)?;
    validate_name(name)?;
    state.check_access(&dir, effective, Rights::WRITE)?;
    let _lock = LockGuard::acquire(io, dir.uuid)?;
    // Re-load under the lock: another client may have updated the dirnode
    // between resolution and lock acquisition.
    dir = load_dirnode(state, io, dir.uuid, None)?;
    load_all_buckets(state, io, &mut dir)?;
    if dir.find_loaded(name).is_some() {
        return Err(NexusError::AlreadyExists(path.to_string()));
    }
    let child_uuid = fresh_uuid(io.env);
    let config = state.config();
    // The whole create — child object(s), the parent's dirty bucket, and
    // the parent's main object — is staged into one commit and lands as a
    // single batched round trip (§ISSUE: "metadata commit path groups
    // dirnode-bucket + filenode + dirnode writes into one put_many").
    let mut commit = MetaCommit::new();
    match kind {
        FileType::Directory => {
            let mut child = Dirnode::new(child_uuid, dir.uuid, config.bucket_size);
            // Subdirectories of a group-shared directory inherit its key
            // scope, so the whole subtree follows the group's epochs.
            child.scope = dir.scope;
            stage_dirnode(state, io, &mut commit, Arc::new(child))?;
            Arc::make_mut(&mut dir).insert(
                DirEntry { name: name.into(), uuid: child_uuid, kind: EntryKind::Directory },
                fresh_uuid(io.env),
            )?;
        }
        FileType::File => {
            let data_uuid = fresh_uuid(io.env);
            let fnode = Filenode::new(child_uuid, dir.uuid, data_uuid, config.chunk_size);
            commit.stage_raw(data_uuid, Vec::new());
            stage_filenode(state, io, &mut commit, Arc::new(fnode), dir.scope)?;
            Arc::make_mut(&mut dir).insert(
                DirEntry { name: name.into(), uuid: child_uuid, kind: EntryKind::File },
                fresh_uuid(io.env),
            )?;
        }
        FileType::Symlink => {
            return Err(NexusError::InvalidName("use fs_symlink for symlinks".into()))
        }
    }
    stage_dirnode(state, io, &mut commit, dir)?;
    commit_flush(state, io, commit)?;
    Ok(child_uuid)
}

/// `nexus_fs_remove`: deletes the file, empty directory, or symlink at
/// `path`.
pub(crate) fn fs_remove(state: &mut EnclaveState, io: &MetaIo<'_>, path: &str) -> Result<()> {
    let (mut dir, name, effective) = resolve_parent(state, io, path)?;
    state.check_access(&dir, effective, Rights::WRITE)?;
    let _lock = LockGuard::acquire(io, dir.uuid)?;
    dir = load_dirnode(state, io, dir.uuid, None)?;
    load_all_buckets(state, io, &mut dir)?;
    let entry = dir
        .find_loaded(name)
        .map(|e| e.to_entry())
        .ok_or_else(|| NexusError::NotFound(path.to_string()))?;
    let mut manifest_removals: Vec<NexusUuid> = Vec::new();
    match &entry.kind {
        EntryKind::Directory => {
            let child = load_dirnode(state, io, entry.uuid, Some(dir.uuid))?;
            if child.entry_count > 0 {
                return Err(NexusError::NotEmpty(path.to_string()));
            }
            for slot in &child.buckets {
                let _ = io.delete(&slot.re.uuid);
                manifest_removals.push(slot.re.uuid);
            }
            io.delete(&entry.uuid)?;
            manifest_removals.push(entry.uuid);
            evict(state, io, &entry.uuid);
        }
        EntryKind::File => {
            let mut fnode = load_filenode(state, io, entry.uuid, None)?;
            if fnode.nlink <= 1 {
                let _ = io.delete(&fnode.data_uuid);
                io.delete(&entry.uuid)?;
                manifest_removals.push(entry.uuid);
                evict(state, io, &entry.uuid);
            } else {
                Arc::make_mut(&mut fnode).nlink -= 1;
                store_filenode(state, io, fnode, dir.scope)?;
            }
        }
        EntryKind::Symlink(_) => {}
    }
    let dir_mut = Arc::make_mut(&mut dir);
    dir_mut.remove(name)?;
    for pruned in dir_mut.prune_empty_buckets() {
        let _ = io.delete(&pruned);
        manifest_removals.push(pruned);
    }
    store_dirnode(state, io, dir)?;
    crate::freshness::record_objects(state, io, &[], &manifest_removals)?;
    Ok(())
}

/// `nexus_fs_lookup`: finds a file/directory by path.
pub(crate) fn fs_lookup(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
) -> Result<LookupInfo> {
    let comps = split_path(path)?;
    if comps.is_empty() {
        let (dir, effective) = resolve_dir(state, io, &[])?;
        state.check_access(&dir, effective, Rights::READ)?;
        return Ok(LookupInfo {
            uuid: dir.uuid,
            kind: FileType::Directory,
            size: dir.entry_count,
            nlink: 1,
        });
    }
    let (mut dir, name, effective) = resolve_parent(state, io, path)?;
    state.check_access(&dir, effective, Rights::READ)?;
    let entry = lookup_entry(state, io, &mut dir, name)?
        .ok_or_else(|| NexusError::NotFound(path.to_string()))?;
    match &entry.kind {
        EntryKind::Directory => {
            let child = load_dirnode(state, io, entry.uuid, Some(dir.uuid))?;
            Ok(LookupInfo {
                uuid: entry.uuid,
                kind: FileType::Directory,
                size: child.entry_count,
                nlink: 1,
            })
        }
        EntryKind::File => {
            let fnode = load_file_via(state, io, &dir, &entry)?;
            Ok(LookupInfo {
                uuid: entry.uuid,
                kind: FileType::File,
                size: fnode.size,
                nlink: fnode.nlink,
            })
        }
        EntryKind::Symlink(_) => Ok(LookupInfo {
            uuid: entry.uuid,
            kind: FileType::Symlink,
            size: 0,
            nlink: 1,
        }),
    }
}

/// Loads a filenode reached through `dir`, applying the parent-pointer check
/// for non-hardlinked files (hardlinks legitimately have one parent only).
fn load_file_via(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    dir: &Dirnode,
    entry: &DirEntry,
) -> Result<Arc<Filenode>> {
    let fnode = load_filenode(state, io, entry.uuid, None)?;
    if fnode.nlink <= 1 && fnode.parent != dir.uuid {
        return Err(NexusError::Integrity(format!(
            "filenode {} reached via {} but claims parent {} (swapping attack)",
            entry.uuid, dir.uuid, fnode.parent
        )));
    }
    Ok(fnode)
}

/// `nexus_fs_filldir`: lists a directory.
pub(crate) fn fs_filldir(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
) -> Result<Vec<DirRow>> {
    let comps = split_path(path)?;
    let (mut dir, effective) = resolve_dir(state, io, &comps)?;
    state.check_access(&dir, effective, Rights::READ)?;
    load_all_buckets(state, io, &mut dir)?;
    Ok(dir
        .list_loaded()
        .map(|e| DirRow { name: e.name().to_string(), kind: FileType::from(&e.kind()) })
        .collect())
}

/// `nexus_fs_symlink`: creates a symlink at `linkpath` pointing to `target`.
pub(crate) fn fs_symlink(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    target: &str,
    linkpath: &str,
) -> Result<NexusUuid> {
    let (mut dir, name, effective) = resolve_parent(state, io, linkpath)?;
    validate_name(name)?;
    state.check_access(&dir, effective, Rights::WRITE)?;
    let _lock = LockGuard::acquire(io, dir.uuid)?;
    dir = load_dirnode(state, io, dir.uuid, None)?;
    load_all_buckets(state, io, &mut dir)?;
    let uuid = fresh_uuid(io.env);
    Arc::make_mut(&mut dir).insert(
        DirEntry { name: name.into(), uuid, kind: EntryKind::Symlink(target.into()) },
        fresh_uuid(io.env),
    )?;
    store_dirnode(state, io, dir)?;
    Ok(uuid)
}

/// Reads the target of a symlink.
pub(crate) fn fs_readlink(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
) -> Result<String> {
    let (mut dir, name, effective) = resolve_parent(state, io, path)?;
    state.check_access(&dir, effective, Rights::READ)?;
    let entry = lookup_entry(state, io, &mut dir, name)?
        .ok_or_else(|| NexusError::NotFound(path.to_string()))?;
    match entry.kind {
        EntryKind::Symlink(target) => Ok(target),
        _ => Err(NexusError::InvalidName(format!("{path} is not a symlink"))),
    }
}

/// `nexus_fs_hardlink`: makes `linkpath` a second name for the file at
/// `existing`.
pub(crate) fn fs_hardlink(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    existing: &str,
    linkpath: &str,
) -> Result<()> {
    let (mut src_dir, src_name, src_effective) = resolve_parent(state, io, existing)?;
    state.check_access(&src_dir, src_effective, Rights::READ)?;
    let src_entry = lookup_entry(state, io, &mut src_dir, src_name)?
        .ok_or_else(|| NexusError::NotFound(existing.to_string()))?;
    if !matches!(src_entry.kind, EntryKind::File) {
        return Err(NexusError::IsADirectory(existing.to_string()));
    }
    let mut fnode = load_file_via(state, io, &src_dir, &src_entry)?;

    let (mut dst_dir, dst_name, dst_effective) = resolve_parent(state, io, linkpath)?;
    validate_name(dst_name)?;
    state.check_access(&dst_dir, dst_effective, Rights::WRITE)?;
    let _lock = LockGuard::acquire(io, dst_dir.uuid)?;
    dst_dir = load_dirnode(state, io, dst_dir.uuid, None)?;
    load_all_buckets(state, io, &mut dst_dir)?;
    if dst_dir.find_loaded(dst_name).is_some() {
        return Err(NexusError::AlreadyExists(linkpath.to_string()));
    }
    Arc::make_mut(&mut fnode).nlink += 1;
    store_filenode(state, io, fnode, src_dir.scope)?;
    Arc::make_mut(&mut dst_dir).insert(
        DirEntry { name: dst_name.into(), uuid: src_entry.uuid, kind: EntryKind::File },
        fresh_uuid(io.env),
    )?;
    store_dirnode(state, io, dst_dir)?;
    Ok(())
}

/// True when `to` lies strictly inside the subtree rooted at `from`.
///
/// Both slices must come from [`split_path`], which *normalizes* the
/// paths: empty components and `.` are dropped and `..` is rejected
/// outright, so `a/./b`, `a//b`, and `a/b` all compare equal here. The
/// comparison is therefore immune to dot- and slash-padding tricks.
/// Symlinks cannot smuggle a path into a subtree either: NEXUS traversal
/// never follows symlinks (a symlink component fails resolution with
/// `NotADirectory`), so the lexical component check is exact, not merely
/// heuristic.
fn is_inside_subtree(from_comps: &[&str], to_comps: &[&str]) -> bool {
    to_comps.len() > from_comps.len() && to_comps[..from_comps.len()] == from_comps[..]
}

/// `nexus_fs_rename`: moves `from` to `to` (both full paths).
///
/// Error precedence (documented POSIX alignment, pinned by
/// `tests/fs_model.rs::rename_error_precedence_is_documented`):
/// 1. malformed paths (`..`) — `InvalidName`;
/// 2. moving a directory into its own subtree — `InvalidName` (EINVAL);
/// 3. source parent resolution — `NotFound` / `NotADirectory`;
/// 4. missing source — `NotFound` (the source must exist before the
///    destination is even classified, as on Linux `rename(2)`);
/// 5. destination parent resolution — `NotFound` / `NotADirectory`;
/// 6. existing destination — `AlreadyExists`.
pub(crate) fn fs_rename(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    from: &str,
    to: &str,
) -> Result<()> {
    // Moving a directory into its own subtree would orphan it (POSIX
    // EINVAL); reject on *normalized* components before any I/O.
    let from_comps = split_path(from)?;
    let to_comps = split_path(to)?;
    if is_inside_subtree(&from_comps, &to_comps) {
        return Err(NexusError::InvalidName(format!(
            "cannot move {from:?} into its own subtree {to:?}"
        )));
    }
    let (mut src_dir, src_name, src_effective) = resolve_parent(state, io, from)?;
    state.check_access(&src_dir, src_effective, Rights::WRITE)?;
    // POSIX ordering: the source must exist before the destination parent
    // is even considered.
    if lookup_entry(state, io, &mut src_dir, src_name)?.is_none() {
        return Err(NexusError::NotFound(from.to_string()));
    }
    let (dst_dir, dst_name, dst_effective) = resolve_parent(state, io, to)?;
    validate_name(dst_name)?;
    state.check_access(&dst_dir, dst_effective, Rights::WRITE)?;

    let same_dir = src_dir.uuid == dst_dir.uuid;
    let _lock = LockGuard::acquire(io, src_dir.uuid)?;
    let _lock2 = if same_dir { None } else { Some(LockGuard::acquire(io, dst_dir.uuid)?) };

    src_dir = load_dirnode(state, io, src_dir.uuid, None)?;
    load_all_buckets(state, io, &mut src_dir)?;
    let entry = src_dir
        .find_loaded(src_name)
        .map(|e| e.to_entry())
        .ok_or_else(|| NexusError::NotFound(from.to_string()))?;

    if same_dir {
        if src_name == dst_name {
            return Ok(());
        }
        if src_dir.find_loaded(dst_name).is_some() {
            return Err(NexusError::AlreadyExists(to.to_string()));
        }
        let dir_mut = Arc::make_mut(&mut src_dir);
        dir_mut.remove(src_name)?;
        dir_mut.insert(
            DirEntry { name: dst_name.into(), ..entry },
            fresh_uuid(io.env),
        )?;
        store_dirnode(state, io, src_dir)?;
        return Ok(());
    }

    let mut dst_dir = load_dirnode(state, io, dst_dir.uuid, None)?;
    load_all_buckets(state, io, &mut dst_dir)?;
    if dst_dir.find_loaded(dst_name).is_some() {
        return Err(NexusError::AlreadyExists(to.to_string()));
    }
    Arc::make_mut(&mut src_dir).remove(src_name)?;

    // Re-home the child's parent pointer so traversal checks keep holding.
    match &entry.kind {
        EntryKind::Directory => {
            let mut child = load_dirnode(state, io, entry.uuid, Some(src_dir.uuid))?;
            Arc::make_mut(&mut child).parent = dst_dir.uuid;
            // Buckets carry the dirnode itself as parent, so only the main
            // object changes — but it must be marked so store rewrites it.
            store_dirnode(state, io, child)?;
        }
        EntryKind::File => {
            let mut fnode = load_filenode(state, io, entry.uuid, None)?;
            if fnode.nlink <= 1 {
                Arc::make_mut(&mut fnode).parent = dst_dir.uuid;
                // The file now lives under the destination directory, so
                // it re-seals under *that* directory's key scope.
                store_filenode(state, io, fnode, dst_dir.scope)?;
            }
        }
        EntryKind::Symlink(_) => {}
    }

    Arc::make_mut(&mut dst_dir).insert(
        DirEntry { name: dst_name.into(), ..entry },
        fresh_uuid(io.env),
    )?;
    let mut manifest_removals: Vec<NexusUuid> = Vec::new();
    for pruned in Arc::make_mut(&mut src_dir).prune_empty_buckets() {
        let _ = io.delete(&pruned);
        manifest_removals.push(pruned);
    }
    store_dirnode(state, io, src_dir)?;
    store_dirnode(state, io, dst_dir)?;
    crate::freshness::record_objects(state, io, &[], &manifest_removals)?;
    Ok(())
}

/// `nexus_fs_encrypt`: replaces the contents of the file at `path` with
/// `data`, drawing fresh per-chunk keys (§VI-A).
///
/// Key/nonce draws happen serially *before* the chunk seals fan out over
/// the worker pool, so both the RNG stream and the ciphertext are
/// byte-identical to the serial loop at every `NEXUS_THREADS` setting.
pub(crate) fn fs_encrypt(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
    data: &[u8],
) -> Result<()> {
    let (mut dir, name, effective) = resolve_parent(state, io, path)?;
    state.check_access(&dir, effective, Rights::WRITE)?;
    let entry = lookup_entry(state, io, &mut dir, name)?
        .ok_or_else(|| NexusError::NotFound(path.to_string()))?;
    if !matches!(entry.kind, EntryKind::File) {
        return Err(NexusError::IsADirectory(path.to_string()));
    }
    let mut fnode = load_file_via(state, io, &dir, &entry)?;
    let _lock = LockGuard::acquire(io, fnode.uuid)?;

    let n_chunks = Filenode::chunk_count_for(data.len() as u64, fnode.chunk_size);
    let mut contexts = Vec::with_capacity(n_chunks as usize);
    for _ in 0..n_chunks {
        let mut key = [0u8; 16];
        io.env.random_bytes(&mut key);
        let mut nonce = [0u8; 12];
        io.env.random_bytes(&mut nonce);
        contexts.push(ChunkContext { key, nonce });
    }
    let ciphertext = datapath::seal_chunks(
        nexus_pool::global(),
        &fnode.data_uuid,
        data,
        fnode.chunk_size as usize,
        &contexts,
    );
    io.put(&fnode.data_uuid, &ciphertext)?;
    let fnode_mut = Arc::make_mut(&mut fnode);
    fnode_mut.size = data.len() as u64;
    fnode_mut.chunks = contexts;
    store_filenode(state, io, fnode, dir.scope)?;
    Ok(())
}

/// Edits the main object of the directory at `path` (its ACL and key
/// scope) like every other mutation: under the directory's advisory lock,
/// on a copy reloaded under that lock, so a concurrent create or rename is
/// never overwritten by a main object carrying the old bucket MACs.
pub(crate) fn fs_update_acl(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
    edit: impl FnOnce(&mut Dirnode) -> Result<()>,
) -> Result<()> {
    let (dir, _) = resolve_dir(state, io, &split_path(path)?)?;
    let _lock = LockGuard::acquire(io, dir.uuid)?;
    let mut dir = load_dirnode(state, io, dir.uuid, None)?;
    edit(Arc::make_mut(&mut dir))?;
    store_dirnode(state, io, dir)
}

/// Owner-driven revocation sweep: removes every ACL entry naming `user`
/// from all reachable dirnodes, staging the modified main objects into one
/// `MetaCommit` so the whole sweep lands in a single batched `put_many`.
/// Buckets are untouched (ACLs live in the main object only). Returns the
/// number of directories whose ACL changed.
pub(crate) fn sweep_acl_user(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    user: UserId,
) -> Result<u64> {
    let root = state.mounted()?.supernode.root_dir;
    let mut stack = vec![root];
    let mut commit = MetaCommit::new();
    let mut changed = 0u64;
    while let Some(uuid) = stack.pop() {
        let mut dir = load_dirnode(state, io, uuid, None)?;
        load_all_buckets(state, io, &mut dir)?;
        stack.extend(dir.list_loaded().filter(|e| e.is_directory()).map(|e| e.uuid()));
        if Arc::make_mut(&mut dir).acl.revoke(user) {
            changed += 1;
            stage_dirnode(state, io, &mut commit, dir)?;
        }
    }
    commit_flush(state, io, commit)?;
    Ok(changed)
}

/// `nexus_fs_decrypt`: reads and decrypts the whole file at `path`.
///
/// Large files take the pipelined path: ranged fetches of
/// `prefetch_window` chunks overlap with AES-GCM opens on the worker pool,
/// so transfer and decrypt no longer serialise. Small files (or
/// `batch_rpcs`/`prefetch_window` off) keep the single whole-object fetch.
pub(crate) fn fs_decrypt(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
) -> Result<Vec<u8>> {
    let (dir, entry, fnode) = open_file_for_read(state, io, path)?;
    let _ = (dir, entry);
    let config = state.config();
    let n_chunks = fnode.chunks.len() as u64;
    let window = config.prefetch_window as u64;
    if config.batch_rpcs && window > 0 && n_chunks > window {
        return datapath::open_chunks_pipelined(
            nexus_pool::global(),
            &fnode,
            config.prefetch_window,
            |first, count| {
                let (start, _) = fnode.ciphertext_range(first);
                let (last_start, last_len) = fnode.ciphertext_range(first + count - 1);
                io.get_range(&fnode.data_uuid, start, last_start + last_len - start)
            },
        );
    }
    let ciphertext = io.get(&fnode.data_uuid)?;
    datapath::open_chunks(nexus_pool::global(), &fnode, &ciphertext, 0, n_chunks)
}

/// Bulk `nexus_fs_decrypt`: resolves every path, fetches **all** data
/// objects in one batched storage RPC (`get_many`), then opens the chunks
/// on the worker pool. Results are returned in input order; the first
/// failing path aborts, exactly where a serial read loop would stop.
pub(crate) fn fs_decrypt_many(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    paths: &[String],
) -> Result<Vec<Vec<u8>>> {
    let mut fnodes = Vec::with_capacity(paths.len());
    for path in paths {
        let (_dir, _entry, fnode) = open_file_for_read(state, io, path)?;
        fnodes.push(fnode);
    }
    let ciphertexts: Vec<Result<Vec<u8>>> = if state.config().batch_rpcs {
        let uuids: Vec<NexusUuid> = fnodes.iter().map(|f| f.data_uuid).collect();
        io.get_many(&uuids)
    } else {
        fnodes.iter().map(|f| io.get(&f.data_uuid)).collect()
    };
    let mut out = Vec::with_capacity(fnodes.len());
    for (fnode, ciphertext) in fnodes.iter().zip(ciphertexts) {
        let count = fnode.chunks.len() as u64;
        out.push(datapath::open_chunks(nexus_pool::global(), fnode, &ciphertext?, 0, count)?);
    }
    Ok(out)
}

/// Random access: decrypts only the chunks covering `[offset, offset+len)`.
pub(crate) fn fs_read_range(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
    offset: u64,
    len: u64,
) -> Result<Vec<u8>> {
    let (_dir, _entry, fnode) = open_file_for_read(state, io, path)?;
    if len == 0 {
        return Ok(Vec::new());
    }
    if offset + len > fnode.size {
        return Err(NexusError::Malformed(format!(
            "read {offset}+{len} beyond eof {}",
            fnode.size
        )));
    }
    let first = offset / fnode.chunk_size as u64;
    let last = (offset + len - 1) / fnode.chunk_size as u64;
    // Fetch the covering ciphertext span in one ranged read.
    let (span_start, _) = fnode.ciphertext_range(first);
    let (last_start, last_len) = fnode.ciphertext_range(last);
    let span = io.get_range(&fnode.data_uuid, span_start, last_start + last_len - span_start)?;
    let plain =
        datapath::open_chunks(nexus_pool::global(), &fnode, &span, first, last - first + 1)?;
    let skip = (offset - first * fnode.chunk_size as u64) as usize;
    Ok(plain[skip..skip + len as usize].to_vec())
}

fn open_file_for_read(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
) -> Result<(Arc<Dirnode>, DirEntry, Arc<Filenode>)> {
    let (mut dir, name, effective) = resolve_parent(state, io, path)?;
    state.check_access(&dir, effective, Rights::READ)?;
    let entry = lookup_entry(state, io, &mut dir, name)?
        .ok_or_else(|| NexusError::NotFound(path.to_string()))?;
    if !matches!(entry.kind, EntryKind::File) {
        return Err(NexusError::IsADirectory(path.to_string()));
    }
    let fnode = load_file_via(state, io, &dir, &entry)?;
    Ok((dir, entry, fnode))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_path_variants() {
        assert_eq!(split_path("a/b/c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(split_path("/a//b/").unwrap(), vec!["a", "b"]);
        assert_eq!(split_path("").unwrap(), Vec::<&str>::new());
        assert_eq!(split_path("./a").unwrap(), vec!["a"]);
        assert!(split_path("a/../b").is_err());
    }

    #[test]
    fn validate_name_rejects_bad_names() {
        assert!(validate_name("ok.txt").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name(".").is_err());
    }

    #[test]
    fn subtree_guard_compares_normalized_components() {
        let check = |from: &str, to: &str| {
            is_inside_subtree(&split_path(from).unwrap(), &split_path(to).unwrap())
        };
        assert!(check("a", "a/b"));
        assert!(check("a/b", "a/b/c/d"));
        // Dot- and slash-padded spellings of the same subtree still match.
        assert!(check("a", "a/./b"));
        assert!(check("a", ".//a/b"));
        assert!(check("./a", "a/b"));
        assert!(check("a//", "a/b"));
        // Siblings and ancestors are not "inside".
        assert!(!check("a", "a"));
        assert!(!check("a", "./a"));
        assert!(!check("a/b", "a"));
        assert!(!check("a", "ab/c"));
        // The root contains everything.
        assert!(check("", "a"));
        assert!(check(".", "a/b"));
    }
}
