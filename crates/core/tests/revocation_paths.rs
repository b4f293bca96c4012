//! Regression suite for the revocation paths the original code leaked
//! through: grant blobs surviving user revocation, no-op ACL revocations
//! silently rewriting metadata, stale ACL entries left behind forever, and
//! half-committed grants after a storage failure.

use std::sync::{Arc, Mutex};

use nexus_core::{
    protocol, FsckMode, NexusConfig, NexusError, NexusVolume, Rights, SealedOffer, UserKeys,
    VolumeJoiner,
};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{
    FaultAction, FaultHook, FaultPoint, IoStats, MemBackend, ObjectStat, StorageBackend,
    StorageError,
};

fn setup_on(
    backend: Arc<dyn StorageBackend>,
) -> (Platform, AttestationService, UserKeys, NexusVolume, nexus_core::SealedRootKey) {
    let platform = Platform::seeded(91);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let owner = UserKeys::from_seed("owen", &[1u8; 32]);
    let (volume, sealed) =
        NexusVolume::create(&platform, backend, &ias, &owner, NexusConfig::default()).unwrap();
    volume.authenticate(&owner).unwrap();
    (platform, ias, owner, volume, sealed)
}

fn offer(
    ias: &AttestationService,
    backend: &Arc<MemBackend>,
    user: &UserKeys,
    machine: u64,
) -> (VolumeJoiner, SealedOffer) {
    let platform = Platform::seeded(machine);
    ias.register_platform(&platform);
    let joiner = VolumeJoiner::new(&platform, backend.clone(), ias);
    let sealed_offer = joiner.publish_offer(user).unwrap();
    (joiner, sealed_offer)
}

#[test]
fn revoked_user_cannot_extract_the_grant_afterwards() {
    let backend = Arc::new(MemBackend::new());
    let (_p, ias, owner, volume, _sealed) = setup_on(backend.clone());
    let bob = UserKeys::from_seed("bob", &[3u8; 32]);
    let (joiner, sealed_offer) = offer(&ias, &backend, &bob, 1002);
    volume.grant_access(&owner, "bob", &bob.public_key()).unwrap();
    assert!(backend.exists(&protocol::grant_path("bob")));

    volume.revoke_user("bob").unwrap();

    // The wrapped-rootkey grant (and the offer it answered) are gone from
    // storage, so the revoked enclave has nothing left to extract.
    assert!(!backend.exists(&protocol::grant_path("bob")));
    assert!(!backend.exists(&protocol::offer_path("bob")));
    let err = joiner.accept_grant(&bob, &owner.public_key(), sealed_offer).unwrap_err();
    assert!(matches!(err, NexusError::NotFound(_)), "got {err:?}");
}

#[test]
fn noop_acl_revocation_is_notfound_and_writes_nothing() {
    let backend = Arc::new(MemBackend::new());
    let (_p, ias, owner, volume, _sealed) = setup_on(backend.clone());
    volume.mkdir("docs").unwrap();
    let bob = UserKeys::from_seed("bob", &[3u8; 32]);
    offer(&ias, &backend, &bob, 1002);
    volume.grant_access(&owner, "bob", &bob.public_key()).unwrap();

    // bob is a volume user but holds no entry on docs' ACL.
    let before = volume.io_stats();
    let err = volume.revoke_acl("docs", "bob").unwrap_err();
    let delta: IoStats = volume.io_stats().delta_since(&before);
    assert!(matches!(err, NexusError::NotFound(_)), "got {err:?}");
    assert_eq!(delta.writes, 0, "no-op revocation must not rewrite metadata: {delta:?}");

    // Unknown principals surface the same way.
    assert!(matches!(volume.revoke_acl("docs", "nobody"), Err(NexusError::NotFound(_))));
}

#[test]
fn revoking_a_user_sweeps_their_acl_entries_everywhere() {
    let backend = Arc::new(MemBackend::new());
    let (platform, ias, owner, volume, sealed) = setup_on(backend.clone());
    volume.mkdir("a").unwrap();
    volume.mkdir("a/b").unwrap();
    let bob = UserKeys::from_seed("bob", &[3u8; 32]);
    let carol = UserKeys::from_seed("carol", &[4u8; 32]);
    offer(&ias, &backend, &bob, 1002);
    offer(&ias, &backend, &carol, 1003);
    volume.grant_access(&owner, "bob", &bob.public_key()).unwrap();
    volume.grant_access(&owner, "carol", &carol.public_key()).unwrap();
    volume.set_acl("a", "bob", Rights::RW).unwrap();
    volume.set_acl("a", "carol", Rights::READ).unwrap();
    volume.set_acl("a/b", "bob", Rights::RW).unwrap();

    volume.revoke_user("bob").unwrap();

    // No tombstones: bob's entries are gone from every dirnode, carol's
    // survive untouched, and fsck sees a fully consistent principal set.
    assert_eq!(volume.acl_entries("a").unwrap(), vec![("carol".to_string(), Rights::READ)]);
    assert_eq!(volume.acl_entries("a/b").unwrap(), vec![]);
    let report = volume.fsck(FsckMode::Metadata).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    // Manufacture the pre-fix failure mode — an ACL naming a principal the
    // supernode no longer knows — by rolling the supernode back to before
    // dave existed (his ACL entry on a/b stays behind on the fork).
    let sup_name = volume.volume_id().object_name();
    let old_supernode = backend.get(&sup_name).unwrap();
    let dave = UserKeys::from_seed("dave", &[5u8; 32]);
    offer(&ias, &backend, &dave, 1004);
    volume.grant_access(&owner, "dave", &dave.public_key()).unwrap();
    volume.set_acl("a/b", "dave", Rights::RW).unwrap();
    backend.put(&sup_name, &old_supernode).unwrap();

    let forked =
        NexusVolume::mount(&platform, backend.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    forked.authenticate(&owner).unwrap();
    let report = forked.fsck(FsckMode::Metadata).unwrap();
    assert!(
        report.findings.iter().any(|(path, what)| path.contains("a/b") && what.contains("dangling")),
        "fsck must flag the dangling principal: {:?}",
        report.findings
    );
}

/// Fails every `put` whose object name contains the configured needle.
struct PathFault {
    needle: String,
}

impl FaultHook for PathFault {
    fn on(&self, point: &FaultPoint) -> FaultAction {
        match point {
            FaultPoint::Write { file, .. } if file.contains(&self.needle) => FaultAction::Drop,
            _ => FaultAction::Proceed,
        }
    }
}

/// A [`MemBackend`] that consults a [`FaultHook`] before every put —
/// the RAM-backend analogue of the durable backends' physical fault points.
struct HookedBackend {
    inner: MemBackend,
    hook: Mutex<Option<Arc<dyn FaultHook>>>,
}

impl HookedBackend {
    fn new() -> Arc<HookedBackend> {
        Arc::new(HookedBackend { inner: MemBackend::new(), hook: Mutex::new(None) })
    }

    fn set_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        *self.hook.lock().unwrap() = hook;
    }
}

impl StorageBackend for HookedBackend {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        if let Some(hook) = self.hook.lock().unwrap().as_ref() {
            let point = FaultPoint::Write { file: path.to_string(), len: data.len() };
            if hook.on(&point) != FaultAction::Proceed {
                return Err(StorageError::Io(format!("injected fault at {point}")));
            }
        }
        self.inner.put(path, data)
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.get(path)
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.inner.delete(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.inner.stat(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        self.inner.lock(path, owner)
    }

    fn unlock(&self, path: &str, owner: u64) {
        self.inner.unlock(path, owner)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
}

#[test]
fn failed_grant_put_unwinds_the_user_record() {
    let backend = HookedBackend::new();
    let (_p, ias, owner, volume, _sealed) = setup_on(backend.clone());
    let bob = UserKeys::from_seed("bob", &[3u8; 32]);
    let bob_machine = Platform::seeded(1002);
    ias.register_platform(&bob_machine);
    let joiner = VolumeJoiner::new(&bob_machine, backend.clone(), &ias);
    let sealed_offer = joiner.publish_offer(&bob).unwrap();

    backend.set_hook(Some(Arc::new(PathFault { needle: protocol::grant_path("bob") })));
    let err = volume.grant_access(&owner, "bob", &bob.public_key()).unwrap_err();
    assert!(matches!(err, NexusError::Storage(_)), "got {err:?}");

    // Commit-or-unwind: the user record added ahead of the failed grant
    // put has been rolled back — no half-granted ghost in the supernode.
    assert_eq!(volume.users().unwrap(), vec!["owen".to_string()]);
    assert!(!backend.exists(&protocol::grant_path("bob")));

    // With the fault cleared the same grant goes through cleanly.
    backend.set_hook(None);
    volume.grant_access(&owner, "bob", &bob.public_key()).unwrap();
    assert_eq!(volume.users().unwrap(), vec!["owen".to_string(), "bob".to_string()]);
    joiner.accept_grant(&bob, &owner.public_key(), sealed_offer).unwrap();
}
