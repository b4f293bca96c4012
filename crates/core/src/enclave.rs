//! The trusted portion of NEXUS: enclave state and metadata I/O.
//!
//! Everything in this module conceptually runs *inside* the SGX enclave
//! (`nexus_sgx::Enclave<EnclaveState>`): the volume rootkey, decrypted
//! metadata, the dentry/metadata caches, and the user session never leave
//! it. Untrusted code interacts only through the ecalls defined on
//! [`crate::volume::NexusVolume`], and all storage traffic flows through
//! ocalls (the crate-private `MetaIo` shim).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use nexus_crypto::sha2::Sha256;
use nexus_sgx::EnclaveEnv;
use nexus_storage::StorageBackend;

use crate::acl::{Principal, Rights, UserId};
use crate::error::{NexusError, Result};
use crate::groups::{self, GroupId};
use crate::metadata::crypto::{
    open_object, open_object_scoped, seal_object, KeyScope, ObjectKind, Preamble, RootKey,
};
use crate::metadata::dirnode::{Bucket, Dirnode};
use crate::metadata::filenode::Filenode;
use crate::metadata::supernode::Supernode;
use crate::uuid::NexusUuid;

/// The volume's format parameters (the paper's configuration knobs). How
/// an operation runs is not configurable: there is one code path each.
#[derive(Debug, Clone, Copy)]
pub struct NexusConfig {
    /// File chunk size (1 MB in the evaluation).
    pub chunk_size: u32,
    /// Dirnode bucket size in entries (128 in the evaluation).
    pub bucket_size: usize,
    /// Create volumes with the Merkle-anchored freshness manifest (§VI-C
    /// extension): volume-wide rollback protection at the cost of one extra
    /// metadata write per update. Read at volume *creation*; mounts follow
    /// whatever the volume was created with.
    pub merkle_freshness: bool,
}

impl Default for NexusConfig {
    fn default() -> Self {
        NexusConfig {
            chunk_size: crate::metadata::filenode::DEFAULT_CHUNK_SIZE,
            bucket_size: crate::metadata::dirnode::DEFAULT_BUCKET_SIZE,
            merkle_freshness: false,
        }
    }
}

/// An authenticated session (paper §IV-B: the user id is "cached inside the
/// enclave" after the challenge/response completes).
#[derive(Debug, Clone, Copy)]
pub struct Session {
    /// The authenticated user's volume-local id.
    pub user_id: UserId,
    /// Owner fast-path flag.
    pub is_owner: bool,
}

/// The enclave's long-term ECDH identity for the rootkey exchange.
#[derive(Clone)]
pub(crate) struct ExchangeKeys {
    pub(crate) secret: [u8; 32],
    pub(crate) public: [u8; 32],
}

impl std::fmt::Debug for ExchangeKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ExchangeKeys { .. }")
    }
}

/// A cached, decrypted metadata node, shared with whoever loaded it.
#[derive(Debug, Clone)]
pub(crate) enum CachedNode {
    Dir(Arc<Dirnode>),
    File(Arc<Filenode>),
}

/// State of a mounted volume, held entirely in enclave memory.
#[derive(Debug)]
pub(crate) struct Mounted {
    pub(crate) rootkey: RootKey,
    pub(crate) supernode_uuid: NexusUuid,
    pub(crate) supernode: Supernode,
    /// Version of the supernode object we decrypted.
    pub(crate) supernode_version: u64,
    /// Storage version the cached supernode was fetched at — the cheap
    /// probe [`ensure_supernode_current`] compares against, so a session
    /// notices group-table updates (epoch bumps) other clients commit.
    pub(crate) supernode_storage_version: u64,
    pub(crate) session: Option<Session>,
    /// uuid → (decrypted node, storage version it came from).
    pub(crate) meta_cache: crate::cache::MetaCache,
    /// Rollback table: highest preamble version seen per object (§VI-C).
    pub(crate) version_table: HashMap<NexusUuid, u64>,
    /// Volume freshness manifest, when the volume carries one.
    pub(crate) manifest: Option<crate::freshness::ManifestState>,
}

/// The private state inside the NEXUS enclave.
///
/// Public only so `Enclave<EnclaveState>` handles can be returned for
/// statistics; every field is crate-private, so no secret escapes.
#[derive(Debug, Default)]
pub struct EnclaveState {
    pub(crate) config: Option<NexusConfig>,
    pub(crate) exchange: Option<ExchangeKeys>,
    pub(crate) mounted: Option<Mounted>,
    /// Outstanding authentication challenges: user public key → nonce.
    pub(crate) pending_auth: HashMap<[u8; 32], [u8; 16]>,
}

impl EnclaveState {
    pub(crate) fn config(&self) -> NexusConfig {
        self.config.unwrap_or_default()
    }

    pub(crate) fn mounted(&mut self) -> Result<&mut Mounted> {
        self.mounted.as_mut().ok_or(NexusError::NotMounted)
    }

    pub(crate) fn session(&mut self) -> Result<Session> {
        self.mounted()?
            .session
            .ok_or(NexusError::NotAuthenticated)
    }

    /// Enforces access control for the current session (paper §IV-C):
    /// the owner always passes; other users need `needed` within the
    /// *effective* rights accumulated along the traversal (directory
    /// permissions apply to all files and subdirectories within it, so
    /// rights granted on an ancestor flow down).
    pub(crate) fn check_access(&mut self, dir: &Dirnode, effective: Rights, needed: Rights) -> Result<()> {
        let session = self.session()?;
        if session.is_owner {
            return Ok(());
        }
        if effective.allows(needed) {
            return Ok(());
        }
        Err(NexusError::AccessDenied(format!(
            "user {:?} lacks {} on directory {}",
            session.user_id, needed, dir.uuid
        )))
    }

    /// The rights the session user holds on `dir`'s ACL: their direct
    /// entry unioned with every group entry whose group currently lists
    /// them. Membership is resolved against the *mounted* supernode, so
    /// a revocation takes effect as soon as the enclave sees the updated
    /// group table (at auth, or immediately in the revoking enclave).
    pub(crate) fn local_rights(&mut self, dir: &Dirnode) -> Result<Rights> {
        let session = self.session()?;
        if session.is_owner {
            return Ok(Rights::RW);
        }
        let groups = &self.mounted.as_ref().expect("session implies mount").supernode.groups;
        let mut rights = Rights::NONE;
        for (principal, r) in dir.acl.iter() {
            let applies = match principal {
                Principal::User(u) => *u == session.user_id,
                Principal::Group(g) => groups
                    .by_id(*g)
                    .map(|rec| rec.contains(session.user_id))
                    .unwrap_or(false),
            };
            if applies {
                rights = rights.union(*r);
            }
        }
        Ok(rights)
    }
}

/// Resolves the wrap key (and the preamble [`KeyScope`]) for sealing an
/// object under `scope`. Scoped objects always seal under the group's
/// *current* epoch — this is the lazy re-wrap rule: any write after a
/// revocation migrates the object to the post-revocation key.
pub(crate) fn seal_scope(
    mounted: &Mounted,
    scope: Option<GroupId>,
) -> Result<(Option<KeyScope>, RootKey)> {
    match scope {
        None => Ok((None, mounted.rootkey)),
        Some(gid) => {
            let master = groups::group_master_key(&mounted.rootkey, &mounted.supernode_uuid);
            let group = mounted.supernode.groups.by_id(gid).ok_or_else(|| {
                NexusError::Integrity(format!("directory scoped to unknown group {}", gid.0))
            })?;
            let key = group.current_key(&master)?;
            Ok((Some(KeyScope { group: gid, epoch: group.epoch }), key))
        }
    }
}

/// Resolves the unwrap key for an object whose preamble carried `scope`.
/// Fails with [`NexusError::Integrity`] when the mounted supernode's
/// group table has no key for that `(group, epoch)` — which is exactly
/// the position of an enclave holding a pre-revocation supernode against
/// post-bump ciphertext.
pub(crate) fn open_scope_key(
    mounted: &Mounted,
    scope: Option<KeyScope>,
) -> Result<RootKey> {
    match scope {
        None => Ok(mounted.rootkey),
        Some(ks) => {
            let master = groups::group_master_key(&mounted.rootkey, &mounted.supernode_uuid);
            let group = mounted.supernode.groups.by_id(ks.group).ok_or_else(|| {
                NexusError::Integrity(format!("object scoped to unknown group {}", ks.group.0))
            })?;
            group.unwrap_epoch_key(&master, ks.epoch)
        }
    }
}

/// Revalidates the cached supernode against storage when another client
/// may have advanced it (epoch bumps, membership changes). A cheap
/// version probe gates the refetch; a fetched supernode older than the
/// one we already decrypted is a rollback.
pub(crate) fn ensure_supernode_current(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
) -> Result<()> {
    let (uuid, cached) = {
        let m = state.mounted()?;
        (m.supernode_uuid, m.supernode_storage_version)
    };
    let on_store = io.version(&uuid).unwrap_or(0);
    if on_store == cached {
        return Ok(());
    }
    let rootkey = state.mounted()?.rootkey;
    let (supernode, version) = fetch_supernode(io, &rootkey, uuid)?;
    let m = state.mounted()?;
    if version < m.supernode_version {
        return Err(NexusError::Rollback {
            object: uuid.to_string(),
            seen: m.supernode_version,
            got: version,
        });
    }
    m.supernode = supernode;
    m.supernode_version = version;
    m.supernode_storage_version = on_store;
    Ok(())
}

/// Opens a metadata blob against the mounted group table, refreshing the
/// supernode once when a *scoped* blob fails to open — the blob may
/// reference an epoch minted by a revocation this session has not yet
/// seen. Unscoped blobs never trigger a refresh.
fn open_meta_blob(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    blob: &[u8],
) -> Result<(Preamble, Vec<u8>)> {
    let mounted = state.mounted()?;
    match open_object_scoped(blob, |scope| open_scope_key(mounted, scope)) {
        Ok(opened) => Ok(opened),
        Err(_) if blob.len() >= 4 && &blob[..4] == crate::metadata::crypto::MAGIC_SCOPED => {
            ensure_supernode_current(state, io)?;
            let mounted = state.mounted()?;
            open_object_scoped(blob, |scope| open_scope_key(mounted, scope))
        }
        Err(e) => Err(e),
    }
}

/// What an operation has relied on without having compared it with storage
/// yet, and what the last comparison found.
#[derive(Debug, Default)]
struct Probes {
    /// uuid → storage version of the cached node the operation used.
    pending: BTreeMap<NexusUuid, u64>,
    /// Cached objects a comparison found changed or gone, for [`locked`]
    /// to evict.
    stale: Vec<NexusUuid>,
    /// Storage versions read this operation and not yet recorded with a
    /// fetched body. Each is a lower bound on what a later fetch returns.
    observed: BTreeMap<NexusUuid, u64>,
    /// uuid → storage version of each object fetched since [`locked`]
    /// began or last took its locks. Taking them moves these into
    /// `pending`: what a mutation's walk fetched before its locks is
    /// compared after them, like its cache hits.
    fetched: BTreeMap<NexusUuid, u64>,
}

/// Storage access from inside the enclave: every call is an ocall into the
/// untrusted runtime, which forwards to the backing store.
///
/// It also owns the operation's *pending probes* (DESIGN.md §9, "One probe
/// per mutation"): a metadata-cache hit is recorded with
/// [`MetaIo::defer_probe`] instead of paying a `stat` on the spot, and every
/// fetch, write and delete settles the pending set first — one `stat_many`
/// for the whole set — failing with [`NexusError::StaleRead`] when a cached
/// object moved. Nothing is ever fetched, written, deleted or answered on the
/// word of a cached object that has not been compared with storage since it
/// was used. A lock is the one call that does not settle: it carries no
/// data, so a mutation's walk — its cache hits and what it fetched — is
/// compared after its locks, in the same round trip as what it reloads
/// under them ([`locked`]).
pub(crate) struct MetaIo<'a> {
    pub(crate) env: &'a EnclaveEnv<'a>,
    backend: &'a dyn StorageBackend,
    probes: RefCell<Probes>,
}

impl<'a> MetaIo<'a> {
    pub(crate) fn new(env: &'a EnclaveEnv<'a>, backend: &'a dyn StorageBackend) -> MetaIo<'a> {
        MetaIo { env, backend, probes: RefCell::default() }
    }

    /// Records that the operation is using the cached copy of `uuid`
    /// decoded from storage version `cached`; the next [`MetaIo::settle`]
    /// compares it.
    pub(crate) fn defer_probe(&self, uuid: NexusUuid, cached: u64) {
        self.probes.borrow_mut().pending.insert(uuid, cached);
    }

    /// Compares every pending probe with storage in one round trip. On a
    /// mismatch the changed objects are queued for eviction and the caller
    /// must re-run whatever it derived from them ([`locked`] does).
    pub(crate) fn settle(&self) -> Result<()> {
        self.probe_before_fetch(&[]).map(drop)
    }

    /// Settles the pending set and, in the same round trip, reads the
    /// storage versions to record for the objects in `fetch`, which the
    /// caller is about to fetch. Version **before** body: a write landing
    /// between the two then leaves a newer body under an older version,
    /// which the next probe refetches — never an older body under a newer
    /// version, which every later probe would accept. A version a failed
    /// comparison already saw is reused, so reloading a stale node costs
    /// the failed probe and the fetch, nothing more.
    pub(crate) fn probe_before_fetch(&self, fetch: &[NexusUuid]) -> Result<Vec<u64>> {
        let mut probes = self.probes.borrow_mut();
        let unseen: Vec<NexusUuid> =
            fetch.iter().filter(|u| !probes.observed.contains_key(u)).copied().collect();
        let pending = std::mem::take(&mut probes.pending);
        let mut on_store = self.versions(pending.keys().chain(&unseen)).into_iter();
        let mut moved = None;
        for (uuid, cached) in pending {
            let seen = on_store.next().flatten();
            if seen == Some(cached) {
                continue;
            }
            probes.stale.push(uuid);
            moved = Some(uuid);
            if let Some(version) = seen {
                probes.observed.insert(uuid, version);
            }
        }
        for uuid in unseen {
            if let Some(version) = on_store.next().flatten() {
                probes.observed.insert(uuid, version);
            }
        }
        if let Some(uuid) = moved {
            return Err(NexusError::StaleRead(format!(
                "cached object {uuid} changed on storage"
            )));
        }
        // An object that does not exist has no version; its fetch fails.
        let mut versions = Vec::with_capacity(fetch.len());
        for uuid in fetch {
            let version = probes.observed.remove(uuid);
            if let Some(version) = version {
                probes.fetched.insert(*uuid, version);
            }
            versions.push(version.unwrap_or(0));
        }
        Ok(versions)
    }

    /// Empties the record of fetched versions, returning what it held.
    fn take_fetched(&self) -> BTreeMap<NexusUuid, u64> {
        std::mem::take(&mut self.probes.borrow_mut().fetched)
    }

    /// True when no cache hit is waiting to be compared.
    pub(crate) fn is_settled(&self) -> bool {
        self.probes.borrow().pending.is_empty()
    }

    /// Queues `uuid` for eviction by [`locked`].
    pub(crate) fn mark_stale(&self, uuid: NexusUuid) {
        self.probes.borrow_mut().stale.push(uuid);
    }

    fn take_stale(&self) -> Vec<NexusUuid> {
        std::mem::take(&mut self.probes.borrow_mut().stale)
    }

    pub(crate) fn get(&self, uuid: &NexusUuid) -> Result<Vec<u8>> {
        self.settle()?;
        let name = uuid.object_name();
        self.env
            .ocall(|| self.backend.get(&name))
            .map_err(NexusError::from)
    }

    pub(crate) fn get_range(&self, uuid: &NexusUuid, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.settle()?;
        let name = uuid.object_name();
        self.env
            .ocall(|| self.backend.get_range(&name, offset, len))
            .map_err(NexusError::from)
    }

    pub(crate) fn put(&self, uuid: &NexusUuid, data: &[u8]) -> Result<()> {
        self.settle()?;
        let name = uuid.object_name();
        self.env
            .ocall(|| self.backend.put(&name, data))
            .map_err(NexusError::from)
    }

    /// Fetches many objects in one enclave exit and one batched storage RPC.
    /// Per-object results: a missing object fails its own slot only.
    pub(crate) fn get_many(&self, uuids: &[NexusUuid]) -> Result<Vec<Result<Vec<u8>>>> {
        self.settle()?;
        let names: Vec<String> = uuids.iter().map(|u| u.object_name()).collect();
        Ok(self
            .env
            .ocall(|| self.backend.get_many(&names))
            .into_iter()
            .map(|r| r.map_err(NexusError::from))
            .collect())
    }

    /// Writes many objects (object name, bytes) in one enclave exit and one
    /// batched storage RPC, surfacing the first per-object error. An empty
    /// batch issues nothing.
    pub(crate) fn put_many(&self, items: &[(String, Vec<u8>)]) -> Result<()> {
        self.settle()?;
        if items.is_empty() {
            return Ok(());
        }
        for result in self.env.ocall(|| self.backend.put_many(items)) {
            result?;
        }
        Ok(())
    }

    pub(crate) fn delete(&self, uuid: &NexusUuid) -> Result<()> {
        self.settle()?;
        let name = uuid.object_name();
        self.env
            .ocall(|| self.backend.delete(&name))
            .map_err(NexusError::from)
    }

    /// The storage version of one object (`None` when it does not exist).
    /// Only the supernode and the manifest pay this round trip of their
    /// own; metadata nodes go through [`MetaIo::probe_before_fetch`].
    pub(crate) fn version(&self, uuid: &NexusUuid) -> Option<u64> {
        let name = uuid.object_name();
        self.env
            .ocall(|| self.backend.stat(&name))
            .ok()
            .map(|s| s.version)
    }

    /// The storage versions of `uuids` from one `stat_many`; no call at all
    /// for no objects.
    pub(crate) fn versions<'u>(
        &self,
        uuids: impl IntoIterator<Item = &'u NexusUuid>,
    ) -> Vec<Option<u64>> {
        let names: Vec<String> = uuids.into_iter().map(|u| u.object_name()).collect();
        if names.is_empty() {
            return Vec::new();
        }
        self.env
            .ocall(|| self.backend.stat_many(&names))
            .into_iter()
            .map(|r| r.ok().map(|s| s.version))
            .collect()
    }

    /// Takes the advisory lock on `uuid`. Nothing is compared first: a lock
    /// carries no data, and one a stale walk took by mistake costs only its
    /// unlock. What the holder relies on is compared after it is granted
    /// ([`locked`]).
    pub(crate) fn lock(&self, uuid: &NexusUuid) -> Result<()> {
        // `flock` blocks until the lock is granted; emulate with a bounded
        // retry loop so cross-client contention resolves instead of erroring.
        let name = uuid.object_name();
        let mut attempts = 0u32;
        loop {
            match self.env.ocall(|| self.backend.lock(&name, 0)) {
                Ok(()) => return Ok(()),
                Err(nexus_storage::StorageError::LockContended(_)) if attempts < 10_000 => {
                    attempts += 1;
                    std::thread::yield_now();
                }
                Err(e) => return Err(NexusError::from(e)),
            }
        }
    }

    pub(crate) fn unlock(&self, uuid: &NexusUuid) {
        let name = uuid.object_name();
        self.env.ocall(|| self.backend.unlock(&name, 0));
    }
}

/// Generates a fresh UUID from enclave randomness.
pub(crate) fn fresh_uuid(env: &EnclaveEnv<'_>) -> NexusUuid {
    NexusUuid::generate(|dest| env.random_bytes(dest))
}

// ---------------------------------------------------------------------------
// Metadata load/store with caching, parent checks, and rollback detection.
// ---------------------------------------------------------------------------

/// Validates a freshly opened object against expectations and the rollback
/// table, recording its version.
fn admit(
    mounted: &mut Mounted,
    preamble: &Preamble,
    uuid: &NexusUuid,
    expected_kind: ObjectKind,
    expected_parent: Option<NexusUuid>,
) -> Result<()> {
    if preamble.uuid != *uuid {
        return Err(NexusError::Integrity(format!(
            "object {uuid} carries uuid {} (swapping attack?)",
            preamble.uuid
        )));
    }
    if preamble.kind != expected_kind {
        return Err(NexusError::Integrity(format!("object {uuid} has wrong kind")));
    }
    if let Some(parent) = expected_parent {
        if preamble.parent != parent {
            return Err(NexusError::Integrity(format!(
                "object {uuid} claims parent {} but was reached via {parent} (swapping attack)",
                preamble.parent
            )));
        }
    }
    let seen = mounted.version_table.entry(*uuid).or_insert(0);
    if preamble.version < *seen {
        return Err(NexusError::Rollback {
            object: uuid.to_string(),
            seen: *seen,
            got: preamble.version,
        });
    }
    *seen = preamble.version;
    Ok(())
}

/// Next version for an object we are about to write.
pub(crate) fn next_version(mounted: &mut Mounted, uuid: &NexusUuid) -> u64 {
    let seen = mounted.version_table.entry(*uuid).or_insert(0);
    *seen += 1;
    *seen
}

/// Runs the read-only `phase` of a read-only operation until every cached
/// object it relied on has been compared with storage and found current:
/// [`locked`] with no locks and nothing to reload, so the phase's cache
/// hits are settled in one round trip when it ends, on the same retry
/// budget. (A mutation runs [`locked`] itself.)
///
/// `phase` must not write: it may run many times.
pub(crate) fn revalidated<T>(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    mut phase: impl FnMut(&mut EnclaveState, &MetaIo<'_>) -> Result<T>,
) -> Result<T> {
    locked(state, io, |state, io| Ok((phase(state, io)?, Vec::new())), |_, _, _| Ok(()))
        .map(|(_, out, ())| out)
}

/// The server-side advisory locks a mutation holds (§V-A), taken in the
/// order named and released in reverse when dropped.
pub(crate) struct LockGuard<'x, 'a> {
    io: &'x MetaIo<'a>,
    held: Vec<NexusUuid>,
}

impl<'x, 'a> LockGuard<'x, 'a> {
    /// Takes every lock of `set` in order. When one cannot be had, those
    /// already taken are released.
    pub(crate) fn acquire(io: &'x MetaIo<'a>, set: &[NexusUuid]) -> Result<LockGuard<'x, 'a>> {
        let mut guard = LockGuard { io, held: Vec::with_capacity(set.len()) };
        for uuid in set {
            io.lock(uuid)?;
            guard.held.push(*uuid);
        }
        Ok(guard)
    }

    fn release(&mut self) {
        while let Some(uuid) = self.held.pop() {
            self.io.unlock(&uuid);
        }
    }
}

impl Drop for LockGuard<'_, '_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Runs a mutation up to its commit, comparing what it relied on with
/// storage once, after its locks are held:
///
/// 1. `walk` finds what the operation is about and checks the session's
///    rights on it. It fetches only on a cache miss and does not settle
///    when it ends. It names the locks the commit needs, directory locks
///    first, then a filenode's.
/// 2. Those locks are taken.
/// 3. `reload` loads what the commit is built on, from the cache when it
///    can.
/// 4. **One** `stat_many` settles the cache hits of both and what the
///    walk fetched before the locks — a right granted by an ancestor a
///    cold walk fetched is confirmed after the locks too.
///
/// Returns the locks, for the caller to hold until its commit has landed,
/// with what the walk and the reload produced. Nothing after step 4 reads
/// the cache, so a stale hit never aborts a half-staged commit. An empty
/// lock set takes no lock: that is [`revalidated`].
///
/// The comparison runs whether the phases produced a value or an error (a
/// `NotFound` derived from a stale parent is no answer). When it — or
/// either phase, through a fetch that settled early, a bucket that no
/// longer matches its dirnode, or a freshness-manifest disagreement —
/// reports a concurrent update, the changed objects are evicted and the
/// walk runs again. The second run follows at once (a stale cache is not a
/// race); later ones back off so an in-flight writer can land. A
/// disagreement that outlives the budget is an integrity violation. A walk
/// that names the locks already held keeps them (a create in a busy
/// directory makes progress on its second attempt); one that names others
/// has every lock released and the new set taken in order; one that fails,
/// once the comparison confirms the failure, releases them and reports it.
///
/// Neither phase may write: both may run many times.
pub(crate) fn locked<'x, 'a, W, R>(
    state: &mut EnclaveState,
    io: &'x MetaIo<'a>,
    mut walk: impl FnMut(&mut EnclaveState, &MetaIo<'_>) -> Result<(W, Vec<NexusUuid>)>,
    mut reload: impl FnMut(&mut EnclaveState, &MetaIo<'_>, &W) -> Result<R>,
) -> Result<(LockGuard<'x, 'a>, W, R)> {
    const RETRIES: u64 = 32;
    debug_assert!(io.is_settled(), "a phase must not inherit unverified cache hits");
    // Only this phase's own fetches are compared after its locks.
    io.take_fetched();
    let mut locks = LockGuard { io, held: Vec::new() };
    let mut last = String::new();
    for attempt in 0..RETRIES {
        if attempt > 1 {
            std::thread::sleep(std::time::Duration::from_micros(50 * attempt));
        }
        let out = walk(state, io).and_then(|(plan, set)| {
            if locks.held != set {
                locks.release();
                locks = LockGuard::acquire(io, &set)?;
                for (uuid, version) in io.take_fetched() {
                    io.defer_probe(uuid, version);
                }
            }
            let reloaded = reload(state, io, &plan)?;
            Ok((plan, reloaded))
        });
        match io.settle().and(out) {
            Err(NexusError::StaleRead(why)) => last = why,
            Ok((plan, reloaded)) => return Ok((locks, plan, reloaded)),
            Err(e) => return Err(e),
        }
        for uuid in io.take_stale() {
            evict(state, io, &uuid);
        }
    }
    Err(NexusError::Integrity(format!("{last} (persisted across retries)")))
}

/// Loads a dirnode's main object (buckets unloaded). A cache hit is used
/// at once and compared with storage when the phase settles.
pub(crate) fn load_dirnode(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    uuid: NexusUuid,
    expected_parent: Option<NexusUuid>,
) -> Result<Arc<Dirnode>> {
    if let Some((CachedNode::Dir(dir), cached_ver)) = state.mounted()?.meta_cache.get(&uuid) {
        io.defer_probe(uuid, cached_ver);
        if let Some(parent) = expected_parent {
            if dir.parent != parent {
                return Err(NexusError::Integrity(format!(
                    "cached dirnode {uuid} has unexpected parent"
                )));
            }
        }
        return Ok(dir);
    }
    let storage_version = io.probe_before_fetch(&[uuid])?[0];
    let blob = io.get(&uuid)?;
    crate::freshness::verify_fresh(state, io, &uuid, &blob)?;
    let (preamble, body) = open_meta_blob(state, io, &blob)?;
    let mounted = state.mounted()?;
    admit(mounted, &preamble, &uuid, ObjectKind::Dirnode, expected_parent)?;
    let dir = Arc::new(Dirnode::decode_main(uuid, preamble.parent, &body)?);
    mounted.meta_cache.insert(
        io.env,
        uuid,
        CachedNode::Dir(dir.clone()),
        storage_version,
        body.len(),
    );
    Ok(dir)
}

/// Checks in the sealed blob fetched for slot `idx` of `dir` — freshness,
/// the MAC in the main dirnode, the seal, the preamble, the body — and
/// leaves the bucket in the cached dirnode's slot too (see
/// [`crate::cache::MetaCache::write_back_bucket`]) so the next walk does not
/// fetch it again.
fn admit_bucket(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    dir: &mut Arc<Dirnode>,
    idx: usize,
    blob: &[u8],
) -> Result<()> {
    let re = dir.buckets[idx].re;
    crate::freshness::verify_fresh(state, io, &re.uuid, blob)?;
    if Sha256::digest(blob) != re.mac {
        // Either an attack, or a concurrent writer updated the bucket after
        // we read the main dirnode. The phase runs again on a fresh dirnode
        // and reports an integrity violation only if the mismatch persists.
        io.mark_stale(dir.uuid);
        return Err(NexusError::StaleRead(format!(
            "bucket {} does not match the MAC in its dirnode",
            re.uuid
        )));
    }
    let (preamble, body) = open_meta_blob(state, io, blob)?;
    let mounted = state.mounted()?;
    admit(mounted, &preamble, &re.uuid, ObjectKind::DirBucket, Some(dir.uuid))?;
    let bucket = Arc::new(Bucket::decode(&body)?);
    mounted.meta_cache.write_back_bucket(io.env, &dir.uuid, idx, &re, &bucket);
    let slot = &mut Arc::make_mut(dir).buckets[idx];
    slot.bucket = Some(bucket);
    slot.dirty = false;
    Ok(())
}

/// Loads every bucket of `dir` (required before mutations): the unloaded
/// ones are fetched in one `get_many` and checked in slot order, so the
/// lowest slot that fails its checks fails the load, as a serial loop would.
pub(crate) fn load_all_buckets(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    dir: &mut Arc<Dirnode>,
) -> Result<()> {
    let unloaded: Vec<usize> =
        (0..dir.buckets.len()).filter(|&idx| dir.buckets[idx].bucket.is_none()).collect();
    if unloaded.is_empty() {
        return Ok(());
    }
    let uuids: Vec<NexusUuid> = unloaded.iter().map(|&idx| dir.buckets[idx].re.uuid).collect();
    for (idx, blob) in unloaded.into_iter().zip(io.get_many(&uuids)?) {
        admit_bucket(state, io, dir, idx, &blob?)?;
    }
    Ok(())
}

/// Looks up `name` in `dir`: the buckets already loaded first (a binary
/// search each, no storage call), then the others, loaded one at a time
/// until the name turns up.
pub(crate) fn lookup_entry(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    dir: &mut Arc<Dirnode>,
    name: &str,
) -> Result<Option<crate::metadata::dirnode::DirEntry>> {
    if let Some(entry) = dir.find_loaded(name) {
        return Ok(Some(entry.to_entry()));
    }
    for idx in 0..dir.buckets.len() {
        if dir.buckets[idx].bucket.is_some() {
            continue;
        }
        let blob = io.get(&dir.buckets[idx].re.uuid)?;
        admit_bucket(state, io, dir, idx, &blob)?;
        let bucket = dir.buckets[idx].bucket.as_ref().expect("loaded just above");
        if let Some(entry) = bucket.find(name) {
            return Ok(Some(entry.to_entry()));
        }
    }
    Ok(None)
}

/// A staged metadata commit: sealed blobs accumulate here and land on
/// storage in one batched round trip (`MetaIo::put_many`) at flush time.
/// Sealing happens at *stage* time, in call order.
#[derive(Debug, Default)]
pub(crate) struct MetaCommit {
    /// (object name, sealed blob), in staging order.
    pending: Vec<(String, Vec<u8>)>,
    /// (uuid, SHA-256 of its sealed blob) for the freshness manifest; empty
    /// on a volume without one, where nothing binds those digests.
    manifest_updates: Vec<(NexusUuid, [u8; 32])>,
    /// (uuid, node, decrypted body bytes the node retains).
    cache_inserts: Vec<(NexusUuid, CachedNode, usize)>,
    /// The node this commit creates, if any (see [`MetaCommit::born`]).
    born: Option<NexusUuid>,
}

impl MetaCommit {
    pub(crate) fn new() -> MetaCommit {
        MetaCommit::default()
    }

    /// Stages a raw (non-metadata) object write, e.g. a file's data object,
    /// so it rides the same batched flush.
    pub(crate) fn stage_raw(&mut self, uuid: NexusUuid, blob: Vec<u8>) {
        self.pending.push((uuid.object_name(), blob));
    }

    /// Marks the staged node `uuid` as one this commit creates. No lock
    /// covers it, so once the commit lands another client may rewrite it
    /// before [`commit_flush`] reads its version back; it is cached only at
    /// the version its own first write gave it.
    pub(crate) fn born(&mut self, uuid: NexusUuid) {
        self.born = Some(uuid);
    }
}

/// Seals `dir`'s dirty buckets (refreshing their MACs in the main object)
/// and then the main object into `commit`, without touching storage yet.
pub(crate) fn stage_dirnode(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    commit: &mut MetaCommit,
    mut dir: Arc<Dirnode>,
) -> Result<()> {
    if dir.scope.is_some() {
        // Scoped writes must seal under the group's *current* epoch: pick
        // up any revocation another client committed, or the new blob
        // would stay readable by the revoked member.
        ensure_supernode_current(state, io)?;
    }
    let mounted = state.mounted()?;
    let (scope, wrap_key) = seal_scope(mounted, dir.scope)?;
    let has_manifest = !mounted.supernode.manifest_uuid.is_nil();
    let dir_mut = Arc::make_mut(&mut dir);
    let mut epc_bytes = 0;
    for slot in dir_mut.buckets.iter_mut() {
        epc_bytes += slot.bucket.as_ref().map_or(0, |b| b.epc_bytes());
        if !slot.dirty {
            continue;
        }
        let bucket = slot
            .bucket
            .as_ref()
            .expect("dirty bucket must be loaded");
        let version = next_version(mounted, &slot.re.uuid);
        let preamble = Preamble {
            kind: ObjectKind::DirBucket,
            uuid: slot.re.uuid,
            parent: dir_mut.uuid,
            version,
            scope,
        };
        let blob = seal_object(&wrap_key, &preamble, bucket.as_bytes(), |dest| {
            io.env.random_bytes(dest)
        });
        // The main object binds this one on every volume.
        slot.re.mac = Sha256::digest(&blob);
        if has_manifest {
            commit.manifest_updates.push((slot.re.uuid, slot.re.mac));
        }
        commit.pending.push((slot.re.uuid.object_name(), blob));
        slot.dirty = false;
    }
    let version = next_version(mounted, &dir.uuid);
    let preamble = Preamble {
        kind: ObjectKind::Dirnode,
        uuid: dir.uuid,
        parent: dir.parent,
        version,
        scope,
    };
    let body = dir.encode_main();
    epc_bytes += body.len();
    let blob = seal_object(&wrap_key, &preamble, &body, |dest| {
        io.env.random_bytes(dest)
    });
    if has_manifest {
        commit.manifest_updates.push((dir.uuid, Sha256::digest(&blob)));
    }
    commit.pending.push((dir.uuid.object_name(), blob));
    commit.cache_inserts.push((dir.uuid, CachedNode::Dir(dir), epc_bytes));
    Ok(())
}

/// Seals `fnode` into `commit` without touching storage yet. `dir_scope`
/// is the containing directory's key scope (filenodes inherit it; they
/// carry no scope field of their own).
pub(crate) fn stage_filenode(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    commit: &mut MetaCommit,
    fnode: Arc<Filenode>,
    dir_scope: Option<GroupId>,
) -> Result<()> {
    if dir_scope.is_some() {
        ensure_supernode_current(state, io)?;
    }
    let mounted = state.mounted()?;
    let (scope, wrap_key) = seal_scope(mounted, dir_scope)?;
    let has_manifest = !mounted.supernode.manifest_uuid.is_nil();
    let version = next_version(mounted, &fnode.uuid);
    let preamble = Preamble {
        kind: ObjectKind::Filenode,
        uuid: fnode.uuid,
        parent: fnode.parent,
        version,
        scope,
    };
    let body = fnode.encode();
    let blob = seal_object(&wrap_key, &preamble, &body, |dest| {
        io.env.random_bytes(dest)
    });
    if has_manifest {
        commit.manifest_updates.push((fnode.uuid, Sha256::digest(&blob)));
    }
    commit.pending.push((fnode.uuid.object_name(), blob));
    commit.cache_inserts.push((fnode.uuid, CachedNode::File(fnode), body.len()));
    Ok(())
}

/// Lands a staged commit: every sealed blob in one `put_many` (one RPC,
/// one lock epoch on the manifest); then the cache learns the versions just
/// written from one `stat_many` (the caller holds the advisory lock of
/// every node it rewrites, so no foreign write can slip in between — a
/// node it creates is the exception, see [`MetaCommit::born`]), and a
/// single freshness-manifest record covers all updated objects.
pub(crate) fn commit_flush(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    commit: MetaCommit,
) -> Result<()> {
    // The blobs are borrowed, and so outlive the cache inserts below: freed
    // first, a multi-megabyte data object's chunk is what the allocator
    // splits for those small long-lived nodes, and the next write's buffer
    // no longer fits where this one was.
    io.put_many(&commit.pending)?;
    let written = io.versions(commit.cache_inserts.iter().map(|(uuid, ..)| uuid));
    let mounted = state.mounted()?;
    for ((uuid, node, epc_bytes), version) in commit.cache_inserts.into_iter().zip(written) {
        // A first write is version 1 (0 on a store that keeps none): past
        // it, another client has already rewritten the node just created,
        // and its next load fetches that rather than trust this copy.
        if commit.born == Some(uuid) && version.is_some_and(|v| v > 1) {
            continue;
        }
        mounted.meta_cache.insert(io.env, uuid, node, version.unwrap_or(0), epc_bytes);
    }
    crate::freshness::record_objects(state, io, &commit.manifest_updates, &[])?;
    Ok(())
}

/// Flushes a dirnode: seals and stores every dirty bucket (refreshing its
/// MAC in the main object), then the main object, then updates the cache.
pub(crate) fn store_dirnode(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    dir: Arc<Dirnode>,
) -> Result<()> {
    let mut commit = MetaCommit::new();
    stage_dirnode(state, io, &mut commit, dir)?;
    commit_flush(state, io, commit)
}

/// The cached filenode `uuid`, its comparison with storage left pending;
/// `None` on a miss, which fetches nothing.
pub(crate) fn cached_filenode(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    uuid: NexusUuid,
) -> Result<Option<Arc<Filenode>>> {
    match state.mounted()?.meta_cache.get(&uuid) {
        Some((CachedNode::File(fnode), cached_ver)) => {
            io.defer_probe(uuid, cached_ver);
            Ok(Some(fnode))
        }
        _ => Ok(None),
    }
}

/// Checks in a filenode blob fetched from storage, whose storage version
/// was read as `storage_version` before the fetch, and caches it.
fn admit_filenode(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    uuid: NexusUuid,
    blob: &[u8],
    storage_version: u64,
) -> Result<Arc<Filenode>> {
    crate::freshness::verify_fresh(state, io, &uuid, blob)?;
    let (preamble, body) = open_meta_blob(state, io, blob)?;
    let mounted = state.mounted()?;
    admit(mounted, &preamble, &uuid, ObjectKind::Filenode, None)?;
    let fnode = Arc::new(Filenode::decode(&body)?);
    if fnode.uuid != uuid {
        return Err(NexusError::Integrity("filenode body uuid mismatch".into()));
    }
    mounted.meta_cache.insert(
        io.env,
        uuid,
        CachedNode::File(fnode.clone()),
        storage_version,
        body.len(),
    );
    Ok(fnode)
}

/// Loads a filenode. A cache hit is used at once and compared with
/// storage when the phase settles. (Which directory may lead to it is the
/// caller's check: a hard-linked file has one parent pointer and many.)
pub(crate) fn load_filenode(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    uuid: NexusUuid,
) -> Result<Arc<Filenode>> {
    if let Some(fnode) = cached_filenode(state, io, uuid)? {
        return Ok(fnode);
    }
    let storage_version = io.probe_before_fetch(&[uuid])?[0];
    let blob = io.get(&uuid)?;
    admit_filenode(state, io, uuid, &blob, storage_version)
}

/// [`load_filenode`] for many files at once, in order: the misses are
/// probed in the one `stat_many` that settles the pending set and fetched
/// in one `get_many`. The
/// first blob that fails its checks fails the load, as a serial loop would.
pub(crate) fn load_filenodes(
    state: &mut EnclaveState,
    io: &MetaIo<'_>,
    uuids: &[NexusUuid],
) -> Result<Vec<Arc<Filenode>>> {
    let mut cached = Vec::with_capacity(uuids.len());
    let mut missing = Vec::new();
    for uuid in uuids {
        let hit = cached_filenode(state, io, *uuid)?;
        if hit.is_none() {
            missing.push(*uuid);
        }
        cached.push(hit);
    }
    let mut fetched = Vec::with_capacity(missing.len());
    if !missing.is_empty() {
        let versions = io.probe_before_fetch(&missing)?;
        let blobs = io.get_many(&missing)?;
        for ((uuid, version), blob) in missing.iter().zip(versions).zip(blobs) {
            fetched.push(admit_filenode(state, io, *uuid, &blob?, version)?);
        }
    }
    let mut fetched = fetched.into_iter();
    Ok(cached
        .into_iter()
        .map(|hit| hit.unwrap_or_else(|| fetched.next().expect("one fetch per miss")))
        .collect())
}

/// Drops an object from the metadata cache (after deletion).
pub(crate) fn evict(state: &mut EnclaveState, io: &MetaIo<'_>, uuid: &NexusUuid) {
    if let Some(mounted) = state.mounted.as_mut() {
        mounted.meta_cache.remove(io.env, uuid);
    }
}

/// Seals and stores the supernode (after user list changes).
pub(crate) fn store_supernode(state: &mut EnclaveState, io: &MetaIo<'_>) -> Result<()> {
    let mounted = state.mounted()?;
    let rootkey = mounted.rootkey;
    let uuid = mounted.supernode_uuid;
    let version = next_version(mounted, &uuid);
    mounted.supernode_version = version;
    let preamble = Preamble {
        kind: ObjectKind::Supernode,
        uuid,
        parent: NexusUuid::NIL,
        version,
        scope: None,
    };
    let body = mounted.supernode.encode();
    let blob = seal_object(&rootkey, &preamble, &body, |dest| {
        io.env.random_bytes(dest)
    });
    io.put(&uuid, &blob)?;
    let storage_version = io.version(&uuid).unwrap_or(0);
    state.mounted()?.supernode_storage_version = storage_version;
    // The supernode participates in the freshness manifest too: a rolled
    // back user list would otherwise resurrect revoked identities for
    // history-less clients.
    let blob_hash = Sha256::digest(&blob);
    crate::freshness::record_objects(state, io, &[(uuid, blob_hash)], &[])?;
    Ok(())
}

/// Fetches, verifies, and decodes the supernode for `uuid`.
pub(crate) fn fetch_supernode(
    io: &MetaIo<'_>,
    rootkey: &RootKey,
    uuid: NexusUuid,
) -> Result<(Supernode, u64)> {
    let blob = io.get(&uuid)?;
    let (preamble, body) = open_object(rootkey, &blob)?;
    if preamble.uuid != uuid || preamble.kind != ObjectKind::Supernode {
        return Err(NexusError::Integrity("supernode identity mismatch".into()));
    }
    let supernode = Supernode::decode(&body)?;
    if supernode.uuid != uuid {
        return Err(NexusError::Integrity("supernode body uuid mismatch".into()));
    }
    Ok((supernode, preamble.version))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::OWNER_USER_ID;

    #[test]
    fn default_config_matches_paper() {
        // Exhaustive on purpose: a new field stops compiling here.
        let NexusConfig { chunk_size, bucket_size, merkle_freshness } = NexusConfig::default();
        assert_eq!(chunk_size, 1024 * 1024);
        assert_eq!(bucket_size, 128);
        assert!(!merkle_freshness);
    }

    #[test]
    fn state_requires_mount() {
        let mut state = EnclaveState::default();
        assert!(matches!(state.mounted(), Err(NexusError::NotMounted)));
        assert!(matches!(state.session(), Err(NexusError::NotMounted)));
    }

    #[test]
    fn check_access_owner_bypasses_acl() {
        let mut state = EnclaveState {
            mounted: Some(test_mounted(Some(Session { user_id: OWNER_USER_ID, is_owner: true }))),
            ..Default::default()
        };
        let dir = Dirnode::new(NexusUuid([1; 16]), NexusUuid::NIL, 8);
        state.check_access(&dir, Rights::NONE, Rights::RW).unwrap();
        assert_eq!(state.local_rights(&dir).unwrap(), Rights::RW);
    }

    #[test]
    fn check_access_denies_without_effective_rights() {
        let mut state = EnclaveState {
            mounted: Some(test_mounted(Some(Session { user_id: UserId(5), is_owner: false }))),
            ..Default::default()
        };
        let dir = Dirnode::new(NexusUuid([1; 16]), NexusUuid::NIL, 8);
        assert!(matches!(
            state.check_access(&dir, Rights::NONE, Rights::READ),
            Err(NexusError::AccessDenied(_))
        ));
    }

    #[test]
    fn check_access_allows_with_effective_rights() {
        let mut state = EnclaveState {
            mounted: Some(test_mounted(Some(Session { user_id: UserId(5), is_owner: false }))),
            ..Default::default()
        };
        let mut dir = Dirnode::new(NexusUuid([1; 16]), NexusUuid::NIL, 8);
        dir.acl.grant(UserId(5), Rights::READ);
        let local = state.local_rights(&dir).unwrap();
        assert_eq!(local, Rights::READ);
        state.check_access(&dir, local, Rights::READ).unwrap();
        assert!(state.check_access(&dir, local, Rights::WRITE).is_err());
    }

    type CallLog = Arc<nexus_storage::HookedBackend<nexus_storage::MemBackend>>;

    /// An owner session that populated `d/` (bucket size 4, so ten files
    /// span three buckets), a second session mounted afterwards, and the
    /// log of every storage call either makes.
    fn populated() -> (crate::volume::NexusVolume, crate::volume::NexusVolume, CallLog) {
        use crate::volume::{NexusVolume, UserKeys};
        let platform = nexus_sgx::Platform::seeded(0xCAC);
        let ias = nexus_sgx::AttestationService::new();
        ias.register_platform(&platform);
        let backend: CallLog =
            Arc::new(nexus_storage::HookedBackend::new(Arc::new(nexus_storage::MemBackend::new())));
        let owner = UserKeys::from_seed("o", &[1; 32]);
        let config = NexusConfig { bucket_size: 4, ..NexusConfig::default() };
        let (writer, sealed) =
            NexusVolume::create(&platform, backend.clone(), &ias, &owner, config).unwrap();
        writer.authenticate(&owner).unwrap();
        writer.mkdir("d").unwrap();
        for i in 0..10 {
            writer.write_file(&format!("d/f{i}"), b"x").unwrap();
        }
        let reader = NexusVolume::mount(&platform, backend.clone(), &ias, &sealed, config).unwrap();
        reader.authenticate(&owner).unwrap();
        (writer, reader, backend)
    }

    fn load_full(v: &crate::volume::NexusVolume, path: &'static str) -> Arc<Dirnode> {
        v.ecall(|state, io| {
            revalidated(state, io, |state, io| {
                let (mut dir, _) = crate::fsops::resolve_dir(state, io, &[path])?;
                load_all_buckets(state, io, &mut dir)?;
                Ok(dir)
            })
        })
        .unwrap()
    }

    #[test]
    fn consecutive_loads_share_buckets_and_an_insert_copies_one() {
        let (_writer, reader, _) = populated();
        use crate::metadata::dirnode::shared_buckets as shared;
        let first = load_full(&reader, "d");
        let second = load_full(&reader, "d");
        assert_eq!(shared(&first, &second), vec![true; 3], "buckets were written back");
        let third = load_full(&reader, "d");
        assert!(Arc::ptr_eq(&second, &third), "a hit on a loaded directory is the cached node");
        // f8, f9 sit in the third bucket, which has room for the new entry.
        reader.create_file("d/g").unwrap();
        let after = load_full(&reader, "d");
        assert_eq!(shared(&third, &after), vec![true, true, false]);
        assert!(third.find_loaded("g").is_none() && after.find_loaded("g").is_some());
    }

    #[test]
    fn lookup_searches_loaded_buckets_before_it_loads_any() {
        let (_writer, reader, log) = populated();
        reader
            .ecall(|state, io| {
                revalidated(state, io, |state, io| {
                    // Only the last of d's three buckets is held: f8 and f9.
                    let (mut dir, _) = crate::fsops::resolve_dir(state, io, &["d"])?;
                    let blob = io.get(&dir.buckets[2].re.uuid)?;
                    admit_bucket(state, io, &mut dir, 2, &blob)?;
                    let loaded = |dir: &Dirnode| -> Vec<bool> {
                        dir.buckets.iter().map(|s| s.bucket.is_some()).collect()
                    };
                    assert_eq!(loaded(&dir), [false, false, true]);

                    log.take_calls();
                    let hit = lookup_entry(state, io, &mut dir, "f9")?.expect("f9 exists");
                    assert_eq!(hit.name, "f9");
                    assert_eq!(log.take_calls(), [], "found without touching slots 0 and 1");
                    assert_eq!(loaded(&dir), [false, false, true]);

                    // A name held by an unloaded slot fetches up to that slot;
                    // a miss fetches what is left, each bucket once.
                    assert!(lookup_entry(state, io, &mut dir, "f0")?.is_some());
                    assert_eq!(loaded(&dir), [true, false, true]);
                    assert!(lookup_entry(state, io, &mut dir, "nope")?.is_none());
                    assert_eq!(loaded(&dir), [true, true, true]);
                    let fetched = log.take_calls();
                    assert_eq!(fetched.len(), 2, "{fetched:?}");
                    assert!(lookup_entry(state, io, &mut dir, "nope")?.is_none());
                    assert_eq!(log.take_calls(), [], "a warm miss is 3 binary searches");
                    Ok(())
                })
            })
            .unwrap();
    }

    #[test]
    fn epc_ledger_counts_what_the_cache_holds() {
        let (writer, reader, _) = populated();
        let cached_body_bytes = |v: &crate::volume::NexusVolume| -> usize {
            v.enclave().ecall(|state, _| {
                let cache = &state.mounted.as_ref().unwrap().meta_cache;
                cache
                    .nodes()
                    .map(|node| match node {
                        CachedNode::File(f) => f.encode().len(),
                        CachedNode::Dir(d) => {
                            let buckets = d.buckets.iter().filter_map(|s| s.bucket.as_ref());
                            d.encode_main().len() + buckets.map(|b| b.epc_bytes()).sum::<usize>()
                        }
                    })
                    .sum()
            })
        };
        assert_eq!(reader.enclave().epc().current(), 0, "nothing walked yet");
        for i in 0..10 {
            reader.lookup(&format!("d/f{i}")).unwrap();
        }
        assert_eq!(reader.list_dir("d").unwrap().len(), 10);
        let warm = reader.enclave().epc().current();
        assert!(warm > 0);
        assert_eq!(warm, cached_body_bytes(&reader), "root + d with 3 buckets + 10 filenodes");
        let d = load_full(&reader, "d");
        let held = d.buckets.iter().map(|s| s.bucket.as_ref().unwrap());
        let (body, total): (usize, usize) =
            held.fold((0, 0), |(b, t), bucket| (b + bucket.as_bytes().len(), t + bucket.epc_bytes()));
        assert_eq!(total, body + 10 * 4, "each of d's ten names is charged its index offset");
        assert_eq!(writer.enclave().epc().current(), cached_body_bytes(&writer));

        // Create then remove puts every byte back: the directory's node is
        // evicted, the parent's replaced by one of the old size.
        reader.mkdir("d/tmp").unwrap();
        assert!(reader.enclave().epc().current() > warm);
        reader.remove("d/tmp").unwrap();
        assert_eq!(reader.enclave().epc().current(), warm);
        assert_eq!(warm, cached_body_bytes(&reader));
        assert!(reader.enclave().epc().peak() > warm);
    }

    fn test_mounted(session: Option<Session>) -> Mounted {
        use nexus_crypto::ed25519::SigningKey;
        Mounted {
            rootkey: [0u8; 32],
            supernode_uuid: NexusUuid([9; 16]),
            supernode: Supernode::new(
                NexusUuid([9; 16]),
                NexusUuid([8; 16]),
                "owner",
                SigningKey::from_seed(&[1; 32]).verifying_key(),
            ),
            supernode_version: 1,
            supernode_storage_version: 0,
            session,
            meta_cache: Default::default(),
            version_table: HashMap::new(),
            manifest: None,
        }
    }
}
