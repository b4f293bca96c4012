//! The NEXUS filesystem API (paper Table I) — enclave-side implementations.
//!
//! Nine operations: seven directory operations and two file operations,
//! plus the random-access read the chunked format exists for. Each Table I
//! call is one function here, reached through the
//! [`NexusVolume`](crate::volume::NexusVolume) method beside it:
//!
//! | Table I call | Description (paper) | Here | `NexusVolume` |
//! |---|---|---|---|
//! | `nexus_fs_touch` | Creates a new file/directory | `fs_touch` | `create_file`, `mkdir` |
//! | `nexus_fs_remove` | Deletes file/directory | `fs_remove` | `remove` |
//! | `nexus_fs_lookup` | Finds a file by name | `fs_lookup` | `lookup` |
//! | `nexus_fs_filldir` | Lists directory contents | `fs_filldir` | `list_dir` |
//! | `nexus_fs_symlink` | Creates a symlink | `fs_symlink` | `symlink` |
//! | `nexus_fs_hardlink` | Creates a hardlink | `fs_hardlink` | `hardlink` |
//! | `nexus_fs_rename` | Moves a file | `fs_rename` | `rename` |
//! | `nexus_fs_encrypt` | Encrypts a file contents | `fs_write` | `write_file` |
//! | `nexus_fs_decrypt` | Decrypts a file contents | `fs_decrypt` | `read_file` |
//!
//! Each operation traverses the volume's metadata from the root, decrypting
//! and enforcing access control at every layer (§IV-A), and takes the
//! server-side advisory lock around metadata updates (§V-A): a read-only
//! operation runs under [`revalidated`], a mutation under [`locked`].

use std::sync::Arc;

use crate::acl::{Principal, Rights, UserId};
use crate::datapath;
use crate::enclave::{
    cached_filenode, commit_flush, evict, fresh_uuid, load_all_buckets, load_dirnode, load_filenode,
    load_filenodes, locked, lookup_entry, revalidated, stage_dirnode, stage_filenode,
    store_dirnode, CachedNode, EnclaveState, MetaCommit, MetaIo, NexusConfig,
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

/// Walks to the directory that holds `path`'s final component, for a
/// session allowed to write there: (the directory, the final name).
fn writable_parent<'p>(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &'p str,
) -> Result<(Arc<Dirnode>, &'p str)> {
    let (dir, name, effective) = resolve_parent(state, io, path)?;
    validate_name(name)?;
    state.check_access(&dir, effective, Rights::WRITE)?;
    Ok((dir, name))
}

/// A directory with every bucket loaded — what a mutation is built on.
/// Called from the reload of [`locked`], after the directory's lock is
/// taken, so a copy another client replaced since is caught by the
/// comparison that follows while the lock keeps it still.
fn load_full(state: &mut EnclaveState, io: &MetaIo<'_>, uuid: NexusUuid) -> Result<Arc<Dirnode>> {
    let mut dir = load_dirnode(state, io, uuid, None)?;
    load_all_buckets(state, io, &mut dir)?;
    Ok(dir)
}

/// The metadata node behind a directory entry.
enum Child {
    Dir(Arc<Dirnode>),
    File(Arc<Filenode>),
    Symlink,
}

fn load_child(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    dir: &Dirnode,
    entry: &DirEntry,
) -> Result<Child> {
    Ok(match entry.kind {
        EntryKind::Directory => Child::Dir(load_dirnode(state, io, entry.uuid, Some(dir.uuid))?),
        EntryKind::File => Child::File(load_filenode(state, io, entry.uuid)?),
        EntryKind::Symlink(_) => Child::Symlink,
    })
}

/// A node a create is about to bind to a name: its uuid drawn and, for a
/// file, its contents sealed into the commit that will carry it. A create
/// makes one, in its walk, before it takes the directory's lock — so a
/// large create holds that lock no longer than an empty one — and once
/// however often the walk runs.
struct Newborn {
    uuid: NexusUuid,
    file: Option<Filenode>,
    commit: MetaCommit,
}

impl Newborn {
    fn new(
        io: &MetaIo<'_>,
        config: NexusConfig,
        kind: FileType,
        contents: &[u8],
    ) -> Result<Newborn> {
        let uuid = fresh_uuid(io.env);
        let mut commit = MetaCommit::new();
        let file = match kind {
            FileType::File => {
                // The parent is set when the entry is bound.
                let mut fnode =
                    Filenode::new(uuid, NexusUuid::NIL, fresh_uuid(io.env), config.chunk_size);
                seal_contents(io, &mut commit, &mut fnode, contents);
                Some(fnode)
            }
            FileType::Directory => None,
            FileType::Symlink => {
                return Err(NexusError::InvalidName("use fs_symlink for symlinks".into()))
            }
        };
        Ok(Newborn { uuid, file, commit })
    }
}

/// Binds `name` in `dir` — reloaded under its lock, and not holding the
/// name — to `born`. The whole create lands in one commit: the new node,
/// already holding its contents, a file's data object, the directory's
/// dirty bucket and its main object. So no client sees the node before it
/// is whole and none can lock or rewrite it before that commit: it needs
/// no lock of its own.
fn create_entry(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    mut dir: Arc<Dirnode>,
    name: &str,
    born: Newborn,
) -> Result<NexusUuid> {
    let Newborn { uuid, file, mut commit } = born;
    let kind = match file {
        Some(mut fnode) => {
            fnode.parent = dir.uuid;
            stage_filenode(state, io, &mut commit, Arc::new(fnode), dir.scope)?;
            EntryKind::File
        }
        None => {
            let mut child = Dirnode::new(uuid, dir.uuid, state.config().bucket_size);
            // Subdirectories of a group-shared directory inherit its key
            // scope, so the whole subtree follows the group's epochs.
            child.scope = dir.scope;
            stage_dirnode(state, io, &mut commit, Arc::new(child))?;
            EntryKind::Directory
        }
    };
    Arc::make_mut(&mut dir).insert(DirEntry { name: name.into(), uuid, kind }, fresh_uuid(io.env))?;
    stage_dirnode(state, io, &mut commit, dir)?;
    commit_flush(state, io, commit)?;
    Ok(uuid)
}

/// `nexus_fs_touch`: creates a file or directory at `path`.
pub(crate) fn fs_touch(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
    kind: FileType,
) -> Result<NexusUuid> {
    let mut born = None;
    let (_locks, (_, name), dir) = locked(
        state,
        io,
        |state, io| {
            let (dir, name) = writable_parent(state, io, path)?;
            if born.is_none() {
                born = Some(Newborn::new(io, state.config(), kind, &[])?);
            }
            Ok(((dir.uuid, name), vec![dir.uuid]))
        },
        |state, io, &(dir, _)| load_full(state, io, dir),
    )?;
    if dir.find_loaded(name).is_some() {
        return Err(NexusError::AlreadyExists(path.to_string()));
    }
    create_entry(state, io, dir, name, born.expect("drawn by the walk"))
}

/// `nexus_fs_remove`: deletes the file, empty directory, or symlink at
/// `path`. The directory stops naming it first; the objects it leaves
/// unreachable are deleted once that commit has landed, so a reader in any
/// gap sees the entry whole or gone, and a crash between leaves orphans.
pub(crate) fn fs_remove(state: &mut EnclaveState, io: &MetaIo<'_>, path: &str) -> Result<()> {
    let (_locks, (_, entry, _), (mut dir, child)) = locked(
        state,
        io,
        |state, io| {
            let (mut dir, name) = writable_parent(state, io, path)?;
            let entry = lookup_entry(state, io, &mut dir, name)?
                .ok_or_else(|| NexusError::NotFound(path.to_string()))?;
            let mut locks = vec![dir.uuid];
            // Another name keeps a hard-linked file, so its filenode is
            // rewritten: under its own lock too, like the overwrite this
            // must not race. A filenode the cache lacks is fetched under the
            // directory's lock, by the reload.
            if matches!(entry.kind, EntryKind::File)
                && cached_filenode(state, io, entry.uuid)?.is_some_and(|f| f.nlink > 1)
            {
                locks.push(entry.uuid);
            }
            Ok(((dir.uuid, entry, locks.len() > 1), locks))
        },
        |state, io, (dir, entry, file_locked)| {
            let dir = load_full(state, io, *dir)?;
            let child = load_child(state, io, &dir, entry)?;
            if matches!(&child, Child::File(f) if f.nlink > 1 && !file_locked) {
                // Now cached, so the next walk names the filenode's lock.
                return Err(NexusError::StaleRead(format!("{path} is hard-linked")));
            }
            Ok((dir, child))
        },
    )?;
    let mut commit = MetaCommit::new();
    let mut unlinked: Vec<NexusUuid> = Vec::new();
    match child {
        Child::Dir(child) => {
            if child.entry_count > 0 {
                return Err(NexusError::NotEmpty(path.to_string()));
            }
            unlinked.extend(child.buckets.iter().map(|slot| slot.re.uuid));
            unlinked.push(child.uuid);
            evict(state, io, &child.uuid);
        }
        Child::File(mut fnode) if fnode.nlink > 1 => {
            // The names left may all be in other directories: the filenode
            // stops naming a parent.
            let fnode_mut = Arc::make_mut(&mut fnode);
            fnode_mut.nlink -= 1;
            fnode_mut.parent = NexusUuid::NIL;
            stage_filenode(state, io, &mut commit, fnode, dir.scope)?;
        }
        Child::File(fnode) => {
            unlinked.extend([fnode.data_uuid, fnode.uuid]);
            evict(state, io, &fnode.uuid);
        }
        Child::Symlink => {}
    }
    let dir_mut = Arc::make_mut(&mut dir);
    dir_mut.remove(&entry.name)?;
    unlinked.extend(dir_mut.prune_empty_buckets());
    stage_dirnode(state, io, &mut commit, dir)?;
    commit_flush(state, io, commit)?;
    for uuid in &unlinked {
        // Nothing names it any more: one left behind is an orphan for fsck.
        let _ = io.delete(uuid);
    }
    Ok(())
}

/// `nexus_fs_lookup`: finds a file/directory by path.
pub(crate) fn fs_lookup(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
) -> Result<LookupInfo> {
    let comps = split_path(path)?;
    revalidated(state, io, |state, io| {
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
                let fnode = load_file_via(state, io, dir.uuid, entry.uuid)?;
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
    })
}

/// Loads the filenode `file` reached through directory `dir`, applying the
/// parent-pointer check.
fn load_file_via(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    dir: NexusUuid,
    file: NexusUuid,
) -> Result<Arc<Filenode>> {
    let fnode = load_filenode(state, io, file)?;
    check_reached_via(dir, &fnode)?;
    Ok(fnode)
}

/// The parent-pointer check for a file reached through directory `dir`.
/// It skips a hard-linked file, which legitimately has one parent pointer
/// and several parents, and a NIL parent: a file that was linked and then
/// lost a name no longer records which directory holds it.
pub(crate) fn check_reached_via(dir: NexusUuid, fnode: &Filenode) -> Result<()> {
    if fnode.nlink <= 1 && !fnode.parent.is_nil() && fnode.parent != dir {
        return Err(NexusError::Integrity(format!(
            "filenode {} reached via {dir} but claims parent {} (swapping attack)",
            fnode.uuid, fnode.parent
        )));
    }
    Ok(())
}

/// `nexus_fs_filldir`: lists a directory.
pub(crate) fn fs_filldir(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
) -> Result<Vec<DirRow>> {
    let comps = split_path(path)?;
    revalidated(state, io, |state, io| {
        let (mut dir, effective) = resolve_dir(state, io, &comps)?;
        state.check_access(&dir, effective, Rights::READ)?;
        load_all_buckets(state, io, &mut dir)?;
        Ok(dir
            .list_loaded()
            .map(|e| DirRow { name: e.name().to_string(), kind: FileType::from(&e.kind()) })
            .collect())
    })
}

/// `nexus_fs_symlink`: creates a symlink at `linkpath` pointing to `target`.
pub(crate) fn fs_symlink(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    target: &str,
    linkpath: &str,
) -> Result<NexusUuid> {
    let (_locks, (_, name), mut dir) = locked(
        state,
        io,
        |state, io| {
            let (dir, name) = writable_parent(state, io, linkpath)?;
            Ok(((dir.uuid, name), vec![dir.uuid]))
        },
        |state, io, &(dir, _)| load_full(state, io, dir),
    )?;
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
    revalidated(state, io, |state, io| {
        let (mut dir, name, effective) = resolve_parent(state, io, path)?;
        state.check_access(&dir, effective, Rights::READ)?;
        let entry = lookup_entry(state, io, &mut dir, name)?
            .ok_or_else(|| NexusError::NotFound(path.to_string()))?;
        match entry.kind {
            EntryKind::Symlink(target) => Ok(target),
            _ => Err(NexusError::InvalidName(format!("{path} is not a symlink"))),
        }
    })
}

/// `nexus_fs_hardlink`: makes `linkpath` a second name for the file at
/// `existing`.
pub(crate) fn fs_hardlink(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    existing: &str,
    linkpath: &str,
) -> Result<()> {
    let (_locks, (file, _, src_scope, _, dst_name), (mut dst_dir, mut fnode)) = locked(
        state,
        io,
        |state, io| {
            let (mut src_dir, src_name, src_effective) = resolve_parent(state, io, existing)?;
            state.check_access(&src_dir, src_effective, Rights::READ)?;
            let src_entry = lookup_entry(state, io, &mut src_dir, src_name)?
                .ok_or_else(|| NexusError::NotFound(existing.to_string()))?;
            if !matches!(src_entry.kind, EntryKind::File) {
                return Err(NexusError::IsADirectory(existing.to_string()));
            }
            let (dst_dir, dst_name, dst_effective) = resolve_parent(state, io, linkpath)?;
            validate_name(dst_name)?;
            state.check_access(&dst_dir, dst_effective, Rights::WRITE)?;
            // The link count lives in the filenode: its lock excludes a
            // concurrent overwrite or unlink of the same file.
            let locks = vec![dst_dir.uuid, src_entry.uuid];
            let plan = (src_entry.uuid, src_dir.uuid, src_dir.scope, dst_dir.uuid, dst_name);
            Ok((plan, locks))
        },
        |state, io, &(file, src, _, dst, _)| {
            Ok((load_full(state, io, dst)?, load_file_via(state, io, src, file)?))
        },
    )?;
    if dst_dir.find_loaded(dst_name).is_some() {
        return Err(NexusError::AlreadyExists(linkpath.to_string()));
    }
    let mut commit = MetaCommit::new();
    Arc::make_mut(&mut fnode).nlink += 1;
    stage_filenode(state, io, &mut commit, fnode, src_scope)?;
    Arc::make_mut(&mut dst_dir).insert(
        DirEntry { name: dst_name.into(), uuid: file, kind: EntryKind::File },
        fresh_uuid(io.env),
    )?;
    stage_dirnode(state, io, &mut commit, dst_dir)?;
    commit_flush(state, io, commit)
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
    let (_locks, plan, (mut src_dir, moved)) = locked(
        state,
        io,
        |state, io| {
            let (mut src_dir, src_name, src_effective) = resolve_parent(state, io, from)?;
            state.check_access(&src_dir, src_effective, Rights::WRITE)?;
            // POSIX ordering: the source must exist before the destination
            // parent is even considered.
            let entry = lookup_entry(state, io, &mut src_dir, src_name)?
                .ok_or_else(|| NexusError::NotFound(from.to_string()))?;
            let (dst_dir, dst_name, dst_effective) = resolve_parent(state, io, to)?;
            validate_name(dst_name)?;
            state.check_access(&dst_dir, dst_effective, Rights::WRITE)?;
            let mut locks = vec![src_dir.uuid];
            if dst_dir.uuid != src_dir.uuid {
                locks.push(dst_dir.uuid);
                // A file or directory that changes directory has its own
                // node rewritten (the parent pointer): its lock excludes a
                // concurrent overwrite of the file, or a create inside the
                // directory, that the rewrite would otherwise write over.
                if !matches!(entry.kind, EntryKind::Symlink(_)) {
                    locks.push(entry.uuid);
                }
            }
            let plan = Move { src: src_dir.uuid, src_name, dst: dst_dir.uuid, dst_name, entry };
            Ok((plan, locks))
        },
        |state, io, plan| {
            let src_dir = load_full(state, io, plan.src)?;
            let moved = if plan.src == plan.dst {
                None
            } else {
                let dst_dir = load_full(state, io, plan.dst)?;
                Some((dst_dir, load_child(state, io, &src_dir, &plan.entry)?))
            };
            Ok((src_dir, moved))
        },
    )?;
    let Move { src_name, dst_name, entry, .. } = plan;

    let Some((mut dst_dir, child)) = moved else {
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
        return store_dirnode(state, io, src_dir);
    };
    if dst_dir.find_loaded(dst_name).is_some() {
        return Err(NexusError::AlreadyExists(to.to_string()));
    }
    Arc::make_mut(&mut src_dir).remove(src_name)?;

    // The child, both directories' dirty buckets and both main objects land
    // in one commit. Re-home the child's parent pointer so traversal checks
    // keep holding.
    let mut commit = MetaCommit::new();
    match child {
        Child::Dir(mut child) => {
            // Buckets carry the dirnode itself as parent, so only the main
            // object changes.
            Arc::make_mut(&mut child).parent = dst_dir.uuid;
            stage_dirnode(state, io, &mut commit, child)?;
        }
        Child::File(mut fnode) if fnode.nlink <= 1 => {
            Arc::make_mut(&mut fnode).parent = dst_dir.uuid;
            // The file now lives under the destination directory, so
            // it re-seals under *that* directory's key scope.
            stage_filenode(state, io, &mut commit, fnode, dst_dir.scope)?;
        }
        Child::File(_) | Child::Symlink => {}
    }

    Arc::make_mut(&mut dst_dir).insert(
        DirEntry { name: dst_name.into(), ..entry },
        fresh_uuid(io.env),
    )?;
    let pruned = Arc::make_mut(&mut src_dir).prune_empty_buckets();
    stage_dirnode(state, io, &mut commit, src_dir)?;
    stage_dirnode(state, io, &mut commit, dst_dir)?;
    commit_flush(state, io, commit)?;
    for uuid in &pruned {
        // No longer named by the directory that just landed.
        let _ = io.delete(uuid);
    }
    Ok(())
}

/// What a rename's walk found: the source and destination directories and
/// names, and the entry that moves.
struct Move<'p> {
    src: NexusUuid,
    src_name: &'p str,
    dst: NexusUuid,
    dst_name: &'p str,
    entry: DirEntry,
}

/// `nexus_fs_encrypt`, creating the file when `path` names nothing: one
/// walk finds the file or its absence. An existing file has its contents
/// replaced under the filenode's lock; an absent one is created holding
/// `data`, in one commit under the directory's. When another client binds
/// or unbinds the name between the walk and the lock, the comparison under
/// the lock sends the walk round again and it takes the other lock.
pub(crate) fn fs_write(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
    data: &[u8],
) -> Result<()> {
    let mut born = None;
    let (_locks, (_, _, scope, name), node) = locked(
        state,
        io,
        |state, io| {
            let (mut dir, name, effective) = resolve_parent(state, io, path)?;
            state.check_access(&dir, effective, Rights::WRITE)?;
            // The node the commit is built on: the file, or its directory.
            let target = match lookup_entry(state, io, &mut dir, name)? {
                Some(DirEntry { kind: EntryKind::File, uuid, .. }) => (uuid, true),
                Some(_) => return Err(NexusError::IsADirectory(path.to_string())),
                None => {
                    validate_name(name)?;
                    if born.is_none() {
                        born = Some(Newborn::new(io, state.config(), FileType::File, data)?);
                    }
                    (dir.uuid, false)
                }
            };
            Ok(((target, dir.uuid, dir.scope, name), vec![target.0]))
        },
        |state, io, &((uuid, exists), dir, ..)| {
            Ok(if exists {
                CachedNode::File(load_file_via(state, io, dir, uuid)?)
            } else {
                CachedNode::Dir(load_full(state, io, uuid)?)
            })
        },
    )?;
    match node {
        // Reloaded under its lock: whatever a rename or a link wrote into
        // the filenode since the walk (parent pointer, link count) is kept.
        CachedNode::File(mut fnode) => {
            let mut commit = MetaCommit::new();
            seal_contents(io, &mut commit, Arc::make_mut(&mut fnode), data);
            stage_filenode(state, io, &mut commit, fnode, scope)?;
            commit_flush(state, io, commit)
        }
        // The walk found the name free in this very copy of the directory.
        CachedNode::Dir(dir) => {
            create_entry(state, io, dir, name, born.expect("drawn by the walk")).map(drop)
        }
    }
}

/// Seals `data` as `fnode`'s contents under fresh per-chunk keys (§VI-A):
/// the data object is staged into `commit`, and `fnode` takes the chunk
/// contexts and the size. The one seal path of a create and an overwrite.
///
/// Key/nonce draws happen serially *before* the chunk seals fan out over
/// the worker pool, so both the RNG stream and the ciphertext are
/// byte-identical to the serial loop at every `NEXUS_THREADS` setting.
fn seal_contents(io: &MetaIo<'_>, commit: &mut MetaCommit, fnode: &mut Filenode, data: &[u8]) {
    let n_chunks = Filenode::chunk_count_for(data.len() as u64, fnode.chunk_size);
    let contexts: Vec<ChunkContext> = (0..n_chunks)
        .map(|_| {
            let mut key = [0u8; 16];
            io.env.random_bytes(&mut key);
            let mut nonce = [0u8; 12];
            io.env.random_bytes(&mut nonce);
            ChunkContext { key, nonce }
        })
        .collect();
    let ciphertext = datapath::seal_chunks(
        nexus_pool::global(),
        &fnode.data_uuid,
        data,
        fnode.chunk_size as usize,
        &contexts,
    );
    // The data object rides the filenode's round trip.
    commit.stage_raw(fnode.data_uuid, ciphertext);
    fnode.size = data.len() as u64;
    fnode.chunks = contexts;
}

/// Edits the main object of the directory at `path` (its ACL and key
/// scope) like every other mutation: under the directory's advisory lock,
/// on a copy the comparison under that lock confirms, so a concurrent
/// create or rename is never overwritten by a main object carrying the old
/// bucket MACs.
pub(crate) fn fs_update_acl(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
    edit: impl FnOnce(&mut Dirnode) -> Result<()>,
) -> Result<()> {
    let comps = split_path(path)?;
    let (_locks, _, mut dir) = locked(
        state,
        io,
        |state, io| {
            let uuid = resolve_dir(state, io, &comps)?.0.uuid;
            Ok((uuid, vec![uuid]))
        },
        |state, io, &uuid| load_dirnode(state, io, uuid, None),
    )?;
    edit(Arc::make_mut(&mut dir))?;
    store_dirnode(state, io, dir)
}

/// Owner-driven revocation sweep: removes every ACL entry naming `user`
/// from all reachable dirnodes. Every directory is visited like a mutation
/// visits one; one whose ACL names the user is rewritten under its lock,
/// on the copy the comparison under that lock confirms, so a create that
/// lands in it meanwhile is kept. Buckets are untouched (ACLs live in the
/// main object only). Returns the number of directories whose ACL changed.
pub(crate) fn sweep_acl_user(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    user: UserId,
) -> Result<u64> {
    let root = state.mounted()?.supernode.root_dir;
    let mut stack = vec![root];
    let mut changed = 0u64;
    while let Some(uuid) = stack.pop() {
        let (_locks, (subdirs, named), mut dir) = locked(
            state,
            io,
            |state, io| {
                let dir = load_full(state, io, uuid)?;
                let subdirs: Vec<NexusUuid> =
                    dir.list_loaded().filter(|e| e.is_directory()).map(|e| e.uuid()).collect();
                let named = dir.acl.iter().any(|(p, _)| *p == Principal::User(user));
                Ok(((subdirs, named), if named { vec![uuid] } else { Vec::new() }))
            },
            |state, io, _| load_dirnode(state, io, uuid, None),
        )?;
        stack.extend(subdirs);
        if named {
            Arc::make_mut(&mut dir).acl.revoke(user);
            store_dirnode(state, io, dir)?;
            changed += 1;
        }
    }
    Ok(changed)
}

/// `nexus_fs_decrypt`: reads and decrypts the whole file at `path` — one
/// fetch of the data object, then the chunks open on the worker pool.
pub(crate) fn fs_decrypt(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
) -> Result<Vec<u8>> {
    let fnode = revalidated(state, io, |state, io| open_file_for_read(state, io, path))?;
    let ciphertext = io.get(&fnode.data_uuid)?;
    let count = fnode.chunks.len() as u64;
    datapath::open_chunks(nexus_pool::global(), &fnode, &ciphertext, 0, count)
}

/// Bulk `nexus_fs_decrypt`: walks every path to its directory entry, loads
/// **all** filenodes together (one probe covers every cached node on every
/// path and every filenode still to fetch; those are fetched in one
/// `get_many`), fetches all data objects in one more `get_many`, then opens
/// the chunks on the worker pool. Results are returned in input order, and
/// the error reported is that of the lowest-indexed failing path, exactly
/// where a serial read loop would stop.
pub(crate) fn fs_decrypt_many(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    paths: &[String],
) -> Result<Vec<Vec<u8>>> {
    let fnodes = revalidated(state, io, |state, io| {
        let mut reached = Vec::with_capacity(paths.len());
        let mut walk_error = None;
        for path in paths {
            match file_entry_for_read(state, io, path) {
                Ok(dir_and_file) => reached.push(dir_and_file),
                // What this run derived is void; later paths would only
                // fetch on the word of nodes already known stale.
                Err(stale @ NexusError::StaleRead(_)) => return Err(stale),
                // The files before the failing path are loaded all the
                // same: one of them failing comes first.
                Err(e) => {
                    walk_error = Some(e);
                    break;
                }
            }
        }
        let files: Vec<NexusUuid> = reached.iter().map(|(_, file)| *file).collect();
        let fnodes = load_filenodes(state, io, &files)?;
        for ((dir, _), fnode) in reached.iter().zip(&fnodes) {
            check_reached_via(*dir, fnode)?;
        }
        walk_error.map_or(Ok(fnodes), Err)
    })?;
    let data: Vec<NexusUuid> = fnodes.iter().map(|f| f.data_uuid).collect();
    let ciphertexts = io.get_many(&data)?;
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
    let fnode = revalidated(state, io, |state, io| open_file_for_read(state, io, path))?;
    if len == 0 {
        return Ok(Vec::new());
    }
    // `checked_add`: a range whose end wraps is beyond any eof.
    if offset.checked_add(len).is_none_or(|end| end > fnode.size) {
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
    let mut plain =
        datapath::open_chunks(nexus_pool::global(), &fnode, &span, first, last - first + 1)?;
    // Trim the opened span to the range in place.
    let skip = (offset - first * fnode.chunk_size as u64) as usize;
    plain.truncate(skip + len as usize);
    plain.drain(..skip);
    Ok(plain)
}

/// The file at `path` as (its directory, its filenode's uuid), for a
/// session allowed to read it.
fn file_entry_for_read(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
) -> Result<(NexusUuid, NexusUuid)> {
    let (mut dir, name, effective) = resolve_parent(state, io, path)?;
    state.check_access(&dir, effective, Rights::READ)?;
    let entry = lookup_entry(state, io, &mut dir, name)?
        .ok_or_else(|| NexusError::NotFound(path.to_string()))?;
    if !matches!(entry.kind, EntryKind::File) {
        return Err(NexusError::IsADirectory(path.to_string()));
    }
    Ok((dir.uuid, entry.uuid))
}

/// The filenode of the file at `path`, for a session allowed to read it.
fn open_file_for_read(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    path: &str,
) -> Result<Arc<Filenode>> {
    let (dir, file) = file_entry_for_read(state, io, path)?;
    load_file_via(state, io, dir, file)
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
