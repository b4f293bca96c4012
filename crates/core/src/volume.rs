//! The public NEXUS API: protected volumes on untrusted storage.
//!
//! A [`NexusVolume`] is the untrusted half of the NEXUS daemon: it owns the
//! enclave handle and the storage connection, forwards filesystem requests
//! into the enclave, and never sees a key or a plaintext name. This is the
//! surface the shim layer (and the examples/benchmarks) program against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nexus_crypto::ed25519::{SigningKey, VerifyingKey};
use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_crypto::rng::SecureRandom;
use nexus_sgx::{AttestationService, Enclave, EnclaveImage, Measurement, Platform};
use nexus_storage::{IoStats, StorageBackend};

use crate::acl::{Principal, Rights, UserId};
use crate::enclave::{EnclaveState, MetaIo, Mounted, NexusConfig, Session};
use crate::error::{NexusError, Result};
use crate::fsops::{self, DirRow, FileType, LookupInfo};
use crate::groups::group_master_key;
use crate::metadata::dirnode::Dirnode;
use crate::protocol::{
    self, auth_challenge_message, ExchangeOffer, RootKeyGrant,
};
use crate::uuid::NexusUuid;

/// The canonical NEXUS enclave image. All NEXUS clients run this exact
/// build, so its measurement is what the exchange protocol attests.
pub fn nexus_enclave_image() -> EnclaveImage {
    EnclaveImage::new(b"nexus-enclave-v1.0".to_vec())
}

/// The canonical NEXUS enclave measurement.
pub fn nexus_enclave_measurement() -> Measurement {
    nexus_enclave_image().measurement()
}

/// A user's identity: a name plus the Ed25519 keypair they authenticate
/// with. Held by the (untrusted) user application, as in the paper.
#[derive(Clone)]
pub struct UserKeys {
    name: String,
    signing: SigningKey,
}

impl std::fmt::Debug for UserKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserKeys").field("name", &self.name).finish()
    }
}

impl UserKeys {
    /// Generates a fresh identity.
    pub fn generate(name: &str, rng: &mut dyn SecureRandom) -> UserKeys {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        UserKeys { name: name.to_string(), signing: SigningKey::from_seed(&seed) }
    }

    /// Deterministic identity for tests.
    pub fn from_seed(name: &str, seed: &[u8; 32]) -> UserKeys {
        UserKeys { name: name.to_string(), signing: SigningKey::from_seed(seed) }
    }

    /// The user's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The public half of the identity.
    pub fn public_key(&self) -> VerifyingKey {
        self.signing.verifying_key()
    }

    /// Signs protocol messages (authentication, grants).
    pub fn sign(&self, msg: &[u8]) -> nexus_crypto::ed25519::Signature {
        self.signing.sign(msg)
    }
}

/// An opaque, platform-bound sealed rootkey — what a user stores on their
/// local disk between sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedRootKey(pub Vec<u8>);

/// An opaque, platform-bound sealed offer secret: the recipient's half of
/// one rootkey exchange, kept on local disk between
/// [`VolumeJoiner::publish_offer`] and [`VolumeJoiner::accept_grant`], which
/// consumes it. Its bytes are wiped when it is dropped.
#[derive(Debug)]
pub struct SealedOffer(pub Vec<u8>);

impl Drop for SealedOffer {
    fn drop(&mut self) {
        nexus_crypto::ct::zeroize(&mut self.0);
    }
}

/// The next mount's storage lock owner. Every mount in the process locks
/// as an owner of its own, so two sessions on one store object exclude
/// each other; a counter rather than an enclave draw leaves every seeded
/// RNG stream, and so every seeded uuid, as it was.
static NEXT_LOCK_OWNER: AtomicU64 = AtomicU64::new(1);

/// A mounted NEXUS volume.
pub struct NexusVolume {
    enclave: Enclave<EnclaveState>,
    backend: Arc<dyn StorageBackend>,
    ias: AttestationService,
    volume_id: NexusUuid,
    /// The owner this mount's storage locks are taken as.
    lock_owner: u64,
}

impl std::fmt::Debug for NexusVolume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NexusVolume").field("volume_id", &self.volume_id).finish()
    }
}

impl NexusVolume {
    /// Creates a brand-new volume owned by `owner`, returning the volume
    /// handle and the sealed rootkey to keep for future mounts.
    ///
    /// The creator must still [`NexusVolume::authenticate`] before using the
    /// filesystem.
    ///
    /// # Errors
    ///
    /// Storage failures while writing the initial metadata.
    pub fn create(
        platform: &Platform,
        backend: Arc<dyn StorageBackend>,
        ias: &AttestationService,
        owner: &UserKeys,
        config: NexusConfig,
    ) -> Result<(NexusVolume, SealedRootKey)> {
        let enclave = Enclave::create(platform, &nexus_enclave_image(), EnclaveState::default());
        let b = backend.clone();
        let owner_name = owner.name.clone();
        let owner_key = owner.public_key();
        let lock_owner = NEXT_LOCK_OWNER.fetch_add(1, Ordering::Relaxed);
        let (volume_id, sealed) = enclave.ecall(move |state, env| -> Result<(NexusUuid, Vec<u8>)> {
            state.config = Some(config);
            let io = MetaIo::new(env, b.as_ref(), lock_owner);

            let mut rootkey = [0u8; 32];
            env.random_bytes(&mut rootkey);
            let supernode_uuid = crate::enclave::fresh_uuid(env);
            let root_dir_uuid = crate::enclave::fresh_uuid(env);

            let supernode = crate::metadata::supernode::Supernode::new(
                supernode_uuid,
                root_dir_uuid,
                &owner_name,
                owner_key,
            );
            let wrap = AesGcmSiv::new(&rootkey);
            state.mounted = Some(Mounted::new(rootkey, wrap, supernode_uuid, supernode, 0, 0));

            let root = Dirnode::new(root_dir_uuid, NexusUuid::NIL, config.bucket_size);
            crate::enclave::store_dirnode(state, &io, Arc::new(root))?;
            crate::enclave::store_supernode(state, &io)?;

            let sealed = protocol::seal_rootkey(env, &rootkey, &supernode_uuid);
            Ok((supernode_uuid, sealed))
        })?;
        Ok((
            NexusVolume { enclave, backend, ias: ias.clone(), volume_id, lock_owner },
            SealedRootKey(sealed),
        ))
    }

    /// Mounts an existing volume from a locally sealed rootkey.
    ///
    /// # Errors
    ///
    /// [`NexusError::Seal`] when the blob was sealed on another platform or
    /// by a different enclave; storage/integrity errors fetching the
    /// supernode.
    pub fn mount(
        platform: &Platform,
        backend: Arc<dyn StorageBackend>,
        ias: &AttestationService,
        sealed: &SealedRootKey,
        config: NexusConfig,
    ) -> Result<NexusVolume> {
        let enclave = Enclave::create(platform, &nexus_enclave_image(), EnclaveState::default());
        let b = backend.clone();
        let sealed_bytes = sealed.0.clone();
        let lock_owner = NEXT_LOCK_OWNER.fetch_add(1, Ordering::Relaxed);
        let volume_id = enclave.ecall(move |state, env| -> Result<NexusUuid> {
            state.config = Some(config);
            let (rootkey, uuid) = protocol::unseal_rootkey(env, &sealed_bytes)?;
            // The one expansion of the rootkey for this mount.
            let wrap = AesGcmSiv::new(&rootkey);
            let io = MetaIo::new(env, b.as_ref(), lock_owner);
            // Probe before fetch: if a writer lands between the two, the
            // recorded probe is merely stale and the next probe refetches.
            let storage_version = io.version(&uuid).unwrap_or(0);
            let (supernode, version) = crate::enclave::fetch_supernode(&io, &wrap, uuid)?;
            state.mounted =
                Some(Mounted::new(rootkey, wrap, uuid, supernode, version, storage_version));
            Ok(uuid)
        })?;
        Ok(NexusVolume { enclave, backend, ias: ias.clone(), volume_id, lock_owner })
    }

    /// The volume identifier (the supernode's UUID).
    pub fn volume_id(&self) -> NexusUuid {
        self.volume_id
    }

    /// The enclave running this volume (for transition statistics and EPC
    /// accounting in benchmarks).
    pub fn enclave(&self) -> &Enclave<EnclaveState> {
        &self.enclave
    }

    /// Cumulative I/O statistics of the backing store connection.
    pub fn io_stats(&self) -> IoStats {
        self.backend.stats()
    }

    /// The storage backend this volume runs over.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    pub(crate) fn ecall<R>(
        &self,
        f: impl FnOnce(&mut EnclaveState, &MetaIo<'_>) -> Result<R>,
    ) -> Result<R> {
        let (backend, owner) = (self.backend.clone(), self.lock_owner);
        self.enclave.ecall(move |state, env| {
            let io = MetaIo::new(env, backend.as_ref(), owner);
            let out = f(state, &io);
            debug_assert!(io.is_settled(), "an operation replied on unverified cache hits");
            out
        })
    }

    // -- Authentication (paper §IV-B) ------------------------------------

    /// Runs the full challenge/response protocol for `user`.
    ///
    /// # Errors
    ///
    /// [`NexusError::AccessDenied`] when the user's key is not in the
    /// supernode; [`NexusError::Protocol`] on signature failure.
    pub fn authenticate(&self, user: &UserKeys) -> Result<Session> {
        let key = user.public_key();
        let nonce = self
            .enclave
            .ecall(|state, env| protocol::auth_begin(state, env, &key))?;
        let blob = self.backend.get(&self.volume_id.object_name())?;
        let signature = user.sign(&auth_challenge_message(&nonce, &blob));
        self.ecall(move |state, io| protocol::auth_complete(state, io, &key, &signature))
    }

    /// Protocol step 1 exposed for protocol-level tests: requests a
    /// challenge nonce for `user`.
    #[doc(hidden)]
    pub fn begin_auth_for_test(&self, user: &UserKeys) -> [u8; 16] {
        let key = user.public_key();
        self.enclave
            .ecall(|state, env| protocol::auth_begin(state, env, &key))
            .expect("volume mounted")
    }

    /// Protocol step 3 exposed for protocol-level tests: submits a
    /// signature for the outstanding challenge.
    ///
    /// # Errors
    ///
    /// The same failures as [`NexusVolume::authenticate`].
    #[doc(hidden)]
    pub fn complete_auth_for_test(
        &self,
        user: &UserKeys,
        signature: &nexus_crypto::ed25519::Signature,
    ) -> Result<Session> {
        let key = user.public_key();
        self.ecall(move |state, io| protocol::auth_complete(state, io, &key, signature))
    }

    /// The currently authenticated session, if any.
    pub fn session(&self) -> Option<Session> {
        self.enclave
            .ecall(|state, _| state.mounted.as_ref().and_then(|m| m.session))
    }

    /// Drops the authenticated session (lock the volume).
    pub fn logout(&self) {
        self.enclave.ecall(|state, _| {
            if let Some(m) = state.mounted.as_mut() {
                m.session = None;
            }
        });
    }

    // -- Filesystem API (paper Table I) -----------------------------------

    /// Creates an empty file (`nexus_fs_touch`).
    pub fn create_file(&self, path: &str) -> Result<()> {
        let path = path.to_string();
        self.ecall(move |state, io| fsops::fs_touch(state, io, &path, FileType::File))?;
        Ok(())
    }

    /// Creates a directory (`nexus_fs_touch`).
    pub fn mkdir(&self, path: &str) -> Result<()> {
        let path = path.to_string();
        self.ecall(move |state, io| fsops::fs_touch(state, io, &path, FileType::Directory))?;
        Ok(())
    }

    /// Creates every missing directory along `path`.
    pub fn mkdir_all(&self, path: &str) -> Result<()> {
        let comps: Vec<String> = fsops::split_path(path)?
            .into_iter()
            .map(|s| s.to_string())
            .collect();
        let mut cur = String::new();
        for comp in comps {
            if !cur.is_empty() {
                cur.push('/');
            }
            cur.push_str(&comp);
            match self.mkdir(&cur) {
                Ok(()) | Err(NexusError::AlreadyExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Deletes a file, empty directory, or symlink (`nexus_fs_remove`).
    pub fn remove(&self, path: &str) -> Result<()> {
        let path = path.to_string();
        self.ecall(move |state, io| fsops::fs_remove(state, io, &path))
    }

    /// Finds a file by name (`nexus_fs_lookup`).
    pub fn lookup(&self, path: &str) -> Result<LookupInfo> {
        let path = path.to_string();
        self.ecall(move |state, io| fsops::fs_lookup(state, io, &path))
    }

    /// True when `path` exists and is visible to the session.
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_ok()
    }

    /// Lists directory contents (`nexus_fs_filldir`).
    pub fn list_dir(&self, path: &str) -> Result<Vec<DirRow>> {
        let path = path.to_string();
        self.ecall(move |state, io| fsops::fs_filldir(state, io, &path))
    }

    /// Creates a symlink (`nexus_fs_symlink`).
    pub fn symlink(&self, target: &str, linkpath: &str) -> Result<()> {
        let (target, linkpath) = (target.to_string(), linkpath.to_string());
        self.ecall(move |state, io| fsops::fs_symlink(state, io, &target, &linkpath))?;
        Ok(())
    }

    /// Reads a symlink's target.
    pub fn readlink(&self, path: &str) -> Result<String> {
        let path = path.to_string();
        self.ecall(move |state, io| fsops::fs_readlink(state, io, &path))
    }

    /// Creates a hardlink (`nexus_fs_hardlink`).
    pub fn hardlink(&self, existing: &str, linkpath: &str) -> Result<()> {
        let (existing, linkpath) = (existing.to_string(), linkpath.to_string());
        self.ecall(move |state, io| fsops::fs_hardlink(state, io, &existing, &linkpath))
    }

    /// Moves a file (`nexus_fs_rename`).
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let (from, to) = (from.to_string(), to.to_string());
        self.ecall(move |state, io| fsops::fs_rename(state, io, &from, &to))
    }

    /// Writes (replaces) a file's contents, creating it if absent
    /// (`nexus_fs_encrypt`): one enclave call over one path walk and one
    /// metadata commit, a create included.
    pub fn write_file(&self, path: &str, data: &[u8]) -> Result<()> {
        // The plaintext is borrowed across the boundary, not copied in:
        // the enclave reads it exactly once, sealing each chunk straight
        // into the data object.
        self.ecall(|state, io| fsops::fs_write(state, io, path, data))
    }

    /// Reads and decrypts a whole file (`nexus_fs_decrypt`).
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        let path = path.to_string();
        self.ecall(move |state, io| fsops::fs_decrypt(state, io, &path))
    }

    /// Bulk read: decrypts every listed file, fetching all their data
    /// objects in **one** batched storage RPC (`get_many`) instead of one
    /// round trip per file. Plaintexts come back in input order; the first
    /// failing path aborts the batch, just like a serial read loop.
    pub fn read_files(&self, paths: &[&str]) -> Result<Vec<Vec<u8>>> {
        let paths: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
        self.ecall(move |state, io| fsops::fs_decrypt_many(state, io, &paths))
    }

    /// Random access read: decrypts only the chunks covering the range.
    pub fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let path = path.to_string();
        self.ecall(move |state, io| fsops::fs_read_range(state, io, &path, offset, len))
    }

    // -- Administration (paper §IV-C) --------------------------------------

    fn require_owner(state: &mut EnclaveState) -> Result<()> {
        let session = state.session()?;
        if !session.is_owner {
            return Err(NexusError::AccessDenied(
                "administrative control rests with the volume owner".into(),
            ));
        }
        Ok(())
    }

    /// Runs `edit` on the newest supernode on storage and stores the
    /// result, all under the supernode's lock (owner only): two admin
    /// sessions then apply their user-list and group changes one after the
    /// other, and neither writes over the other's.
    fn edit_supernode<T>(
        state: &mut EnclaveState,
        io: &MetaIo<'_>,
        edit: impl FnOnce(&mut EnclaveState, &MetaIo<'_>) -> Result<T>,
    ) -> Result<T> {
        Self::require_owner(state)?;
        let uuid = state.mounted()?.supernode_uuid;
        let (_lock, (), ()) = crate::enclave::locked(
            state,
            io,
            |_, _| Ok(((), vec![uuid])),
            |state, io, ()| crate::enclave::ensure_supernode_current(state, io),
        )?;
        let out = edit(state, io)?;
        crate::enclave::store_supernode(state, io)?;
        Ok(out)
    }

    /// Adds a user to the volume's user list (owner only).
    pub fn add_user(&self, name: &str, key: VerifyingKey) -> Result<()> {
        let name = name.to_string();
        self.ecall(move |state, io| {
            Self::edit_supernode(state, io, |state, _| {
                state.mounted()?.supernode.add_user(&name, key).map(drop)
            })
        })
    }

    /// Revokes a user from the volume entirely (owner only). One supernode
    /// write — no file re-encryption (paper §VII-E); groups the user
    /// belonged to rotate to a fresh key epoch in that same write, and
    /// their ACL entries are swept out of every reachable dirnode, each
    /// rewritten under its own directory lock.
    pub fn revoke_user(&self, name: &str) -> Result<()> {
        let name = name.to_string();
        let cleanup = name.clone();
        self.ecall(move |state, io| {
            let user_id = Self::edit_supernode(state, io, |state, io| {
                let user_id = state.mounted()?.supernode.remove_user(&name)?;
                let m = state.mounted()?;
                let master = group_master_key(&m.rootkey, &m.supernode_uuid);
                m.supernode.groups.revoke_member_everywhere(user_id, &master, |d| {
                    io.env.random_bytes(d)
                });
                Ok(user_id)
            })?;
            fsops::sweep_acl_user(state, io, user_id)
        })?;
        // Untrusted-side hygiene: the wrapped-rootkey grant and the offer
        // addressed to the revoked user are garbage now — and the grant in
        // particular must not survive, or the revoked user's enclave could
        // re-extract the rootkey from it while its sealed offer lives.
        let _ = self.backend.delete(&protocol::grant_path(&cleanup));
        let _ = self.backend.delete(&protocol::offer_path(&cleanup));
        Ok(())
    }

    /// Names of all users (owner first).
    pub fn users(&self) -> Result<Vec<String>> {
        self.ecall(|state, _| {
            let m = state.mounted()?;
            let mut out = vec![m.supernode.owner.name.clone()];
            out.extend(m.supernode.users.iter().map(|u| u.name.clone()));
            Ok(out)
        })
    }

    /// Grants `rights` on the directory at `path` to `user_name` (owner
    /// only).
    pub fn set_acl(&self, path: &str, user_name: &str, rights: Rights) -> Result<()> {
        let (path, user_name) = (path.to_string(), user_name.to_string());
        self.ecall(move |state, io| {
            Self::require_owner(state)?;
            let user_id = state
                .mounted()?
                .supernode
                .user_by_name(&user_name)
                .ok_or_else(|| NexusError::NotFound(format!("user {user_name}")))?
                .id;
            fsops::fs_update_acl(state, io, &path, |dir| {
                dir.acl.grant(user_id, rights);
                Ok(())
            })
        })
    }

    /// Removes `user_name`'s entry from the directory ACL at `path` (owner
    /// only) — the paper's per-directory revocation.
    pub fn revoke_acl(&self, path: &str, user_name: &str) -> Result<()> {
        let (path, user_name) = (path.to_string(), user_name.to_string());
        self.ecall(move |state, io| {
            Self::require_owner(state)?;
            let user_id = state
                .mounted()?
                .supernode
                .user_by_name(&user_name)
                .ok_or_else(|| NexusError::NotFound(format!("user {user_name}")))?
                .id;
            fsops::fs_update_acl(state, io, &path, |dir| {
                if !dir.acl.revoke(user_id) {
                    return Err(NexusError::NotFound(format!(
                        "user {user_name} holds no entry on the {path} ACL"
                    )));
                }
                Ok(())
            })
        })
    }

    /// The ACL of the directory at `path`, as (principal name, rights)
    /// pairs. Group principals render as `@name`; principals whose record
    /// no longer exists render as `<stale:id>` / `<stale-group:id>`.
    pub fn acl_entries(&self, path: &str) -> Result<Vec<(String, Rights)>> {
        let path = path.to_string();
        self.ecall(move |state, io| {
            let comps = fsops::split_path(&path)?;
            let (dir, _) = crate::enclave::revalidated(state, io, |state, io| {
                fsops::resolve_dir(state, io, &comps)
            })?;
            let m = state.mounted()?;
            Ok(dir
                .acl
                .iter()
                .map(|(principal, rights)| {
                    let name = match principal {
                        Principal::User(id) => m
                            .supernode
                            .user_by_id(*id)
                            .map(|u| u.name.clone())
                            .unwrap_or_else(|| format!("<stale:{}>", id.0)),
                        Principal::Group(gid) => m
                            .supernode
                            .groups
                            .by_id(*gid)
                            .map(|g| format!("@{}", g.name))
                            .unwrap_or_else(|| format!("<stale-group:{}>", gid.0)),
                    };
                    (name, *rights)
                })
                .collect())
        })
    }

    // -- Group access control (beyond-paper: IBBE-SGX direction) -----------

    /// Creates an empty group (owner only): one supernode write mints the
    /// group record and its epoch-0 key.
    pub fn create_group(&self, name: &str) -> Result<()> {
        let name = name.to_string();
        self.ecall(move |state, io| {
            Self::edit_supernode(state, io, |state, io| {
                let m = state.mounted()?;
                let master = group_master_key(&m.rootkey, &m.supernode_uuid);
                m.supernode.groups.create(&name, &master, |d| io.env.random_bytes(d)).map(drop)
            })
        })
    }

    /// Names of all groups.
    pub fn groups(&self) -> Result<Vec<String>> {
        self.ecall(|state, _| {
            let m = state.mounted()?;
            Ok(m.supernode.groups.iter().map(|g| g.name.clone()).collect())
        })
    }

    /// Member names of `group`. Ids spliced in without user records (bench
    /// scaffolding) render as `<user:id>`.
    pub fn group_members(&self, group: &str) -> Result<Vec<String>> {
        let group = group.to_string();
        self.ecall(move |state, _| {
            let m = state.mounted()?;
            let rec = m
                .supernode
                .groups
                .by_name(&group)
                .ok_or_else(|| NexusError::NotFound(format!("group {group}")))?;
            Ok(rec
                .members()
                .iter()
                .map(|id| {
                    m.supernode
                        .user_by_id(*id)
                        .map(|u| u.name.clone())
                        .unwrap_or_else(|| format!("<user:{}>", id.0))
                })
                .collect())
        })
    }

    /// Current key epoch of `group` (bumped by every membership
    /// revocation).
    pub fn group_epoch(&self, group: &str) -> Result<u64> {
        let group = group.to_string();
        self.ecall(move |state, _| {
            let m = state.mounted()?;
            m.supernode
                .groups
                .by_name(&group)
                .map(|g| g.epoch)
                .ok_or_else(|| NexusError::NotFound(format!("group {group}")))
        })
    }

    /// Number of retained epoch keys of `group` — the storage-amplification
    /// probe used by the `micro_groups` benchmark.
    pub fn group_key_count(&self, group: &str) -> Result<usize> {
        let group = group.to_string();
        self.ecall(move |state, _| {
            let m = state.mounted()?;
            m.supernode
                .groups
                .by_name(&group)
                .map(|g| g.key_count())
                .ok_or_else(|| NexusError::NotFound(format!("group {group}")))
        })
    }

    /// Adds the named users to `group` (owner only, batched): one supernode
    /// write regardless of batch size, returning how many were new. Grants
    /// do **not** rotate the epoch — new members may read existing
    /// ciphertext by design.
    pub fn add_group_members(&self, group: &str, users: &[&str]) -> Result<usize> {
        let group = group.to_string();
        let users: Vec<String> = users.iter().map(|s| s.to_string()).collect();
        self.ecall(move |state, io| {
            Self::edit_supernode(state, io, |state, _| {
                let m = state.mounted()?;
                let ids = users
                    .iter()
                    .map(|u| {
                        m.supernode
                            .user_by_name(u)
                            .map(|r| r.id)
                            .ok_or_else(|| NexusError::NotFound(format!("user {u}")))
                    })
                    .collect::<Result<Vec<UserId>>>()?;
                let rec = m
                    .supernode
                    .groups
                    .by_name_mut(&group)
                    .ok_or_else(|| NexusError::NotFound(format!("group {group}")))?;
                Ok(rec.add_members(&ids))
            })
        })
    }

    /// Removes the named users from `group` (owner only, batched) and
    /// rotates the group to a fresh key epoch — **one supernode write
    /// total**, no data re-encryption. Objects re-wrap to the new epoch
    /// lazily on their next write; see [`crate::groups`].
    ///
    /// # Errors
    ///
    /// [`NexusError::NotFound`] when a named user does not exist or none
    /// of them were members (a no-op revocation writes nothing).
    pub fn remove_group_members(&self, group: &str, users: &[&str]) -> Result<usize> {
        let group = group.to_string();
        let users: Vec<String> = users.iter().map(|s| s.to_string()).collect();
        self.ecall(move |state, io| {
            Self::edit_supernode(state, io, |state, io| {
                let m = state.mounted()?;
                let ids = users
                    .iter()
                    .map(|u| {
                        m.supernode
                            .user_by_name(u)
                            .map(|r| r.id)
                            .ok_or_else(|| NexusError::NotFound(format!("user {u}")))
                    })
                    .collect::<Result<Vec<UserId>>>()?;
                let master = group_master_key(&m.rootkey, &m.supernode_uuid);
                let rec = m
                    .supernode
                    .groups
                    .by_name_mut(&group)
                    .ok_or_else(|| NexusError::NotFound(format!("group {group}")))?;
                rec.revoke_members(&ids, &master, |d| io.env.random_bytes(d))
            })
        })
    }

    /// Grants `rights` on the directory at `path` to every member of
    /// `group` (owner only) — one ACL entry covers the whole membership.
    /// The first group grant also *scopes* the directory: its metadata
    /// (and everything created under it from now on) seals under the
    /// group's epoch keys instead of the rootkey, which is what makes an
    /// epoch bump cryptographically cut off revoked members. A directory
    /// already scoped to another group keeps its scope — the ACL still
    /// grants access (the enclave mediates either way).
    pub fn set_group_acl(&self, path: &str, group: &str, rights: Rights) -> Result<()> {
        let (path, group) = (path.to_string(), group.to_string());
        self.ecall(move |state, io| {
            Self::require_owner(state)?;
            let gid = state
                .mounted()?
                .supernode
                .groups
                .by_name(&group)
                .ok_or_else(|| NexusError::NotFound(format!("group {group}")))?
                .id;
            fsops::fs_update_acl(state, io, &path, |dir| {
                dir.acl.grant_group(gid, rights);
                if dir.scope.is_none() {
                    dir.scope = Some(gid);
                }
                Ok(())
            })
        })
    }

    /// Removes `group`'s entry from the directory ACL at `path` (owner
    /// only). The directory's key scope is left as-is: already-sealed
    /// metadata stays on its epoch chain, and membership revocation (not
    /// ACL removal) is what rotates keys.
    ///
    /// # Errors
    ///
    /// [`NexusError::NotFound`] when the group has no entry there.
    pub fn revoke_group_acl(&self, path: &str, group: &str) -> Result<()> {
        let (path, group) = (path.to_string(), group.to_string());
        self.ecall(move |state, io| {
            Self::require_owner(state)?;
            let gid = state
                .mounted()?
                .supernode
                .groups
                .by_name(&group)
                .ok_or_else(|| NexusError::NotFound(format!("group {group}")))?
                .id;
            fsops::fs_update_acl(state, io, &path, |dir| {
                if !dir.acl.revoke_group(gid) {
                    return Err(NexusError::NotFound(format!(
                        "group {group} holds no entry on the {path} ACL"
                    )));
                }
                Ok(())
            })
        })
    }

    /// Bench/test scaffolding: splices raw member ids into `group` without
    /// minting user records, so 10^6-member cells are measurable without
    /// 10^6 Ed25519 key generations. One supernode write, production
    /// sorted-set path.
    #[doc(hidden)]
    pub fn add_group_member_ids(&self, group: &str, ids: &[u32]) -> Result<usize> {
        let group = group.to_string();
        let ids = ids.to_vec();
        self.ecall(move |state, io| {
            Self::edit_supernode(state, io, |state, _| {
                state.mounted()?.supernode.groups.splice_member_ids(&group, &ids)
            })
        })
    }

    // -- Sharing (paper §IV-B1, Fig. 4) -----------------------------------

    /// Owner side of the exchange: verifies `peer_name`'s published offer,
    /// adds them to the user list, and stores the wrapped rootkey grant.
    ///
    /// # Errors
    ///
    /// [`NexusError::Attestation`] when the peer's quote fails verification;
    /// [`NexusError::Protocol`] on signature failures.
    pub fn grant_access(
        &self,
        owner: &UserKeys,
        peer_name: &str,
        peer_key: &VerifyingKey,
    ) -> Result<()> {
        let offer_blob = self.backend.get(&protocol::offer_path(peer_name))?;
        let offer = ExchangeOffer::from_bytes(&offer_blob)?;
        peer_key
            .verify(&offer.quote.to_bytes(), &offer.signature)
            .map_err(|_| NexusError::Protocol("offer signature does not match peer key".into()))?;

        let expected = self.enclave.measurement();
        let (quote, nonce, wrapped) = self.enclave.ecall(|state, env| {
            protocol::wrap_rootkey_for(state, env, &offer, &self.ias, expected)
        })?;

        self.add_user(peer_name, *peer_key)?;

        let grant = RootKeyGrant::sign(quote, nonce, wrapped, owner);
        if let Err(e) = self
            .backend
            .put(&protocol::grant_path(peer_name), &grant.to_bytes())
        {
            // Commit-or-unwind: the supernode already lists the peer, but
            // without a fetchable grant they could never join — roll the
            // membership back so the exchange is all-or-nothing.
            self.unwind_added_user(peer_name);
            return Err(e.into());
        }
        Ok(())
    }

    /// Rolls back a just-added user record after a failed grant write.
    /// Best-effort: if even the rollback write fails, the stale record is
    /// caught later by `fsck` (the user has no rights and no grant, so
    /// nothing is exposed in the meantime).
    fn unwind_added_user(&self, name: &str) {
        let name = name.to_string();
        let _ = self.ecall(move |state, io| {
            Self::edit_supernode(state, io, |state, _| {
                state.mounted()?.supernode.remove_user(&name).map(drop)
            })
        });
    }
}

/// The recipient side of volume sharing, before any volume can be mounted.
///
/// Holds nothing secret between the two steps: the offer's X25519 secret
/// leaves the enclave only sealed, as the [`SealedOffer`] the caller keeps.
/// The steps may run in different processes, separated by arbitrary time,
/// and the peers never need to be online simultaneously.
pub struct VolumeJoiner {
    enclave: Enclave<()>,
    backend: Arc<dyn StorageBackend>,
    ias: AttestationService,
}

impl std::fmt::Debug for VolumeJoiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("VolumeJoiner { .. }")
    }
}

impl VolumeJoiner {
    /// Creates the joiner's enclave on `platform`; `ias` verifies the
    /// owner's quote when a grant is accepted.
    pub fn new(
        platform: &Platform,
        backend: Arc<dyn StorageBackend>,
        ias: &AttestationService,
    ) -> VolumeJoiner {
        let enclave = Enclave::create(platform, &nexus_enclave_image(), ());
        VolumeJoiner { enclave, backend, ias: ias.clone() }
    }

    /// Setup phase: draws a fresh X25519 key, publishes its signed, quoted
    /// public half in-band, and returns its secret half sealed to this
    /// platform, for [`VolumeJoiner::accept_grant`].
    ///
    /// # Errors
    ///
    /// Storage failures writing the offer.
    pub fn publish_offer(&self, user: &UserKeys) -> Result<SealedOffer> {
        let (quote, sealed) = self.enclave.ecall(|_, env| protocol::make_offer(env));
        let signature = user.sign(&quote.to_bytes());
        let offer = ExchangeOffer { quote, signature };
        self.backend
            .put(&protocol::offer_path(user.name()), &offer.to_bytes())?;
        Ok(SealedOffer(sealed))
    }

    /// Extraction phase: verifies the owner's signature and quote, opens
    /// the grant with `offer`'s secret, and returns the rootkey sealed to
    /// *this* platform. The offer is consumed: its secret is wiped inside
    /// the enclave and its sealed bytes when the call returns.
    ///
    /// # Errors
    ///
    /// [`NexusError::Attestation`] when the owner's quote does not come
    /// from a NEXUS enclave on a known platform; [`NexusError::Seal`] when
    /// `offer` was sealed elsewhere; [`NexusError::Protocol`] when the
    /// grant is malformed, signed by the wrong owner, or wrapped for
    /// another offer.
    pub fn accept_grant(
        &self,
        user: &UserKeys,
        owner_key: &VerifyingKey,
        offer: SealedOffer,
    ) -> Result<SealedRootKey> {
        let blob = self.backend.get(&protocol::grant_path(user.name()))?;
        let grant = RootKeyGrant::from_bytes(&blob)?;
        grant.verify(owner_key)?;
        let expected = self.enclave.measurement();
        let sealed = self.enclave.ecall(|_, env| {
            protocol::unwrap_rootkey(env, &offer.0, &grant, &self.ias, expected)
        })?;
        Ok(SealedRootKey(sealed))
    }
}
