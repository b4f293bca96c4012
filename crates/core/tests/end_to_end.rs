//! End-to-end tests of the NEXUS volume lifecycle: create, authenticate,
//! operate, share across machines, and revoke.

use std::sync::Arc;

use nexus_core::{
    NexusConfig, NexusError, NexusVolume, OpenMode, NexusFile, Rights, SealedRootKey, UserKeys,
    VolumeJoiner,
};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, MemBackend, SimClock};

fn setup() -> (Platform, AttestationService, Arc<MemBackend>, UserKeys) {
    let platform = Platform::seeded(42);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let backend = Arc::new(MemBackend::new());
    let owner = UserKeys::from_seed("owen", &[1u8; 32]);
    (platform, ias, backend, owner)
}

fn create_volume(
    platform: &Platform,
    ias: &AttestationService,
    backend: Arc<MemBackend>,
    owner: &UserKeys,
) -> (NexusVolume, SealedRootKey) {
    let (volume, sealed) =
        NexusVolume::create(platform, backend, ias, owner, NexusConfig::default()).unwrap();
    volume.authenticate(owner).unwrap();
    (volume, sealed)
}

#[test]
fn create_write_read_roundtrip() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&platform, &ias, backend, &owner);
    volume.mkdir("docs").unwrap();
    volume.write_file("docs/cake.c", b"int main() {}").unwrap();
    assert_eq!(volume.read_file("docs/cake.c").unwrap(), b"int main() {}");
}

#[test]
fn nested_directories_and_listing() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&platform, &ias, backend, &owner);
    volume.mkdir_all("a/b/c").unwrap();
    volume.write_file("a/b/c/deep.txt", b"deep").unwrap();
    volume.write_file("a/top.txt", b"top").unwrap();
    let mut names: Vec<String> = volume.list_dir("a").unwrap().into_iter().map(|r| r.name).collect();
    names.sort();
    assert_eq!(names, vec!["b".to_string(), "top.txt".to_string()]);
    assert_eq!(volume.read_file("a/b/c/deep.txt").unwrap(), b"deep");
}

#[test]
fn unauthenticated_access_denied() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) =
        NexusVolume::create(&platform, backend, &ias, &owner, NexusConfig::default()).unwrap();
    // No authenticate() call.
    assert!(matches!(
        volume.mkdir("docs"),
        Err(NexusError::NotAuthenticated)
    ));
}

#[test]
fn wrong_key_fails_authentication() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) =
        NexusVolume::create(&platform, backend, &ias, &owner, NexusConfig::default()).unwrap();
    let stranger = UserKeys::from_seed("eve", &[66u8; 32]);
    assert!(volume.authenticate(&stranger).is_err());
}

#[test]
fn remount_from_sealed_rootkey() {
    let (platform, ias, backend, owner) = setup();
    let (volume, sealed) = create_volume(&platform, &ias, backend.clone(), &owner);
    volume.write_file("persist.txt", b"still here").unwrap();
    drop(volume);

    let volume = NexusVolume::mount(&platform, backend, &ias, &sealed, NexusConfig::default())
        .unwrap();
    volume.authenticate(&owner).unwrap();
    assert_eq!(volume.read_file("persist.txt").unwrap(), b"still here");
}

#[test]
fn sealed_rootkey_useless_on_other_machine() {
    let (platform, ias, backend, owner) = setup();
    let (_volume, sealed) = create_volume(&platform, &ias, backend.clone(), &owner);
    let other_machine = Platform::seeded(7);
    ias.register_platform(&other_machine);
    let err = NexusVolume::mount(&other_machine, backend, &ias, &sealed, NexusConfig::default())
        .unwrap_err();
    assert!(matches!(err, NexusError::Seal(_)));
}

#[test]
fn rename_and_remove() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&platform, &ias, backend, &owner);
    volume.mkdir("src").unwrap();
    volume.mkdir("dst").unwrap();
    volume.write_file("src/f.txt", b"payload").unwrap();
    volume.rename("src/f.txt", "dst/g.txt").unwrap();
    assert!(!volume.exists("src/f.txt"));
    assert_eq!(volume.read_file("dst/g.txt").unwrap(), b"payload");
    volume.remove("dst/g.txt").unwrap();
    assert!(!volume.exists("dst/g.txt"));
    // Directory now empty: removable.
    volume.remove("dst").unwrap();
    assert!(!volume.exists("dst"));
}

#[test]
fn rename_into_own_subtree_rejected() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&platform, &ias, backend, &owner);
    volume.mkdir_all("a/b").unwrap();
    assert!(matches!(
        volume.rename("a", "a/b/c"),
        Err(NexusError::InvalidName(_))
    ));
    assert!(matches!(
        volume.rename("a", "a/x"),
        Err(NexusError::InvalidName(_))
    ));
    // Sibling moves still work.
    volume.mkdir("c").unwrap();
    volume.rename("a/b", "c/b").unwrap();
    assert!(volume.exists("c/b"));
}

#[test]
fn remove_nonempty_directory_fails() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&platform, &ias, backend, &owner);
    volume.mkdir("d").unwrap();
    volume.write_file("d/f", b"x").unwrap();
    assert!(matches!(volume.remove("d"), Err(NexusError::NotEmpty(_))));
}

#[test]
fn symlinks_and_hardlinks() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&platform, &ias, backend, &owner);
    volume.write_file("real.txt", b"content").unwrap();
    volume.symlink("real.txt", "sym.txt").unwrap();
    assert_eq!(volume.readlink("sym.txt").unwrap(), "real.txt");

    volume.hardlink("real.txt", "hard.txt").unwrap();
    assert_eq!(volume.read_file("hard.txt").unwrap(), b"content");
    assert_eq!(volume.lookup("hard.txt").unwrap().nlink, 2);

    // Removing one name keeps the other alive.
    volume.remove("real.txt").unwrap();
    assert_eq!(volume.read_file("hard.txt").unwrap(), b"content");
    assert_eq!(volume.lookup("hard.txt").unwrap().nlink, 1);
}

#[test]
fn multi_chunk_files_roundtrip() {
    let (platform, ias, backend, owner) = setup();
    let config = NexusConfig { chunk_size: 1024, ..Default::default() };
    let (volume, _) =
        NexusVolume::create(&platform, backend, &ias, &owner, config).unwrap();
    volume.authenticate(&owner).unwrap();
    let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    volume.write_file("big.bin", &data).unwrap();
    assert_eq!(volume.read_file("big.bin").unwrap(), data);
    // Random access decrypts only covering chunks.
    assert_eq!(volume.read_range("big.bin", 1000, 100).unwrap(), data[1000..1100]);
    assert_eq!(volume.read_range("big.bin", 0, 1).unwrap(), data[..1]);
    assert_eq!(volume.read_range("big.bin", 4999, 1).unwrap(), data[4999..]);
    assert!(volume.read_range("big.bin", 4999, 2).is_err());
    // A range whose end overflows is beyond eof like any other, not a slice
    // index inside the ecall; the volume serves the next call.
    for (offset, len) in [(u64::MAX, 2), (4000, u64::MAX - 10), (u64::MAX, u64::MAX)] {
        let err = volume.read_range("big.bin", offset, len).unwrap_err();
        assert!(err.to_string().contains("beyond eof"), "{offset}+{len}: {err}");
    }
    assert_eq!(volume.read_range("big.bin", 4000, 1000).unwrap(), data[4000..]);
}

#[test]
fn file_handles_flush_on_close() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&platform, &ias, backend, &owner);
    let mut f = NexusFile::open(&volume, "log.txt", OpenMode::Truncate).unwrap();
    f.write(b"line one\n").unwrap();
    f.write(b"line two\n").unwrap();
    f.close().unwrap();

    let mut f = NexusFile::open(&volume, "log.txt", OpenMode::Append).unwrap();
    f.write(b"line three\n").unwrap();
    f.close().unwrap();

    assert_eq!(
        volume.read_file("log.txt").unwrap(),
        b"line one\nline two\nline three\n"
    );
    let mut f = NexusFile::open(&volume, "log.txt", OpenMode::Read).unwrap();
    assert_eq!(f.read(8), b"line one");
    assert!(f.write(b"x").is_err());
}

#[test]
fn sharing_via_key_exchange_across_machines() {
    let (owen_machine, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&owen_machine, &ias, backend.clone(), &owner);
    volume.mkdir("shared").unwrap();
    volume.write_file("shared/doc.txt", b"for alice").unwrap();

    // Alice on her own machine.
    let alice_machine = Platform::seeded(1001);
    ias.register_platform(&alice_machine);
    let alice = UserKeys::from_seed("alice", &[2u8; 32]);
    let joiner = VolumeJoiner::new(&alice_machine, backend.clone());
    joiner.publish_offer(&alice).unwrap();

    // Owen grants access (verifies Alice's quote) and opens the directory.
    volume.grant_access(&owner, "alice", &alice.public_key()).unwrap();
    volume.set_acl("shared", "alice", Rights::RW).unwrap();

    // Alice extracts and mounts.
    let sealed = joiner.accept_grant(&alice, &owner.public_key()).unwrap();
    let alice_volume = NexusVolume::mount(
        &alice_machine,
        backend,
        &ias,
        &sealed,
        NexusConfig::default(),
    )
    .unwrap();
    alice_volume.authenticate(&alice).unwrap();
    assert_eq!(alice_volume.read_file("shared/doc.txt").unwrap(), b"for alice");
    alice_volume.write_file("shared/reply.txt", b"thanks!").unwrap();
    assert_eq!(volume.read_file("shared/reply.txt").unwrap(), b"thanks!");
}

#[test]
fn acl_enforcement_and_revocation() {
    let (owen_machine, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&owen_machine, &ias, backend.clone(), &owner);
    volume.mkdir("private").unwrap();
    volume.mkdir("shared").unwrap();
    volume.write_file("private/secret.txt", b"top secret").unwrap();
    volume.write_file("shared/memo.txt", b"hello team").unwrap();

    let alice_machine = Platform::seeded(1001);
    ias.register_platform(&alice_machine);
    let alice = UserKeys::from_seed("alice", &[2u8; 32]);
    let joiner = VolumeJoiner::new(&alice_machine, backend.clone());
    joiner.publish_offer(&alice).unwrap();
    volume.grant_access(&owner, "alice", &alice.public_key()).unwrap();
    volume.set_acl("shared", "alice", Rights::READ).unwrap();

    let sealed = joiner.accept_grant(&alice, &owner.public_key()).unwrap();
    let alice_volume = NexusVolume::mount(
        &alice_machine,
        backend,
        &ias,
        &sealed,
        NexusConfig::default(),
    )
    .unwrap();
    alice_volume.authenticate(&alice).unwrap();

    // Read allowed where granted; write is not; private dir fully opaque.
    assert_eq!(alice_volume.read_file("shared/memo.txt").unwrap(), b"hello team");
    assert!(matches!(
        alice_volume.write_file("shared/her.txt", b"x"),
        Err(NexusError::AccessDenied(_))
    ));
    assert!(matches!(
        alice_volume.read_file("private/secret.txt"),
        Err(NexusError::AccessDenied(_))
    ));

    // Revocation: one metadata update, then Alice's next auth/use fails.
    volume.revoke_acl("shared", "alice").unwrap();
    assert!(matches!(
        alice_volume.read_file("shared/memo.txt"),
        Err(NexusError::AccessDenied(_))
    ));

    // Full volume revocation removes her identity.
    volume.revoke_user("alice").unwrap();
    assert!(alice_volume.authenticate(&alice).is_err());
}

#[test]
fn works_over_simulated_afs() {
    let platform = Platform::seeded(5);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let server = AfsServer::new();
    let clock = SimClock::new();
    let client = Arc::new(AfsClient::connect(&server, clock.clone(), LatencyModel::default()));
    let owner = UserKeys::from_seed("owen", &[1u8; 32]);
    let (volume, _) = NexusVolume::create(
        &platform,
        client.clone(),
        &ias,
        &owner,
        NexusConfig::default(),
    )
    .unwrap();
    volume.authenticate(&owner).unwrap();
    volume.mkdir("d").unwrap();
    volume.write_file("d/f.bin", &vec![7u8; 3 * 1024 * 1024]).unwrap();
    client.flush_cache();
    assert_eq!(volume.read_file("d/f.bin").unwrap().len(), 3 * 1024 * 1024);
    assert!(clock.now().as_millis() > 0, "virtual network time accumulated");
    // The server only ever saw ciphertext object names (32-hex UUIDs).
    for (name, _) in server.object_inventory() {
        assert!(name.len() == 32 || name.starts_with("xchg-"), "obfuscated: {name}");
    }
}

#[test]
fn works_over_cloud_object_store() {
    // §IV portability: the identical volume code over an S3-style service
    // (WAN latencies, no server-side locking primitive).
    use nexus_storage::CloudStore;
    let platform = Platform::seeded(0xC10D);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let clock = SimClock::new();
    let cloud = Arc::new(CloudStore::new(clock.clone()));
    let owner = UserKeys::from_seed("owen", &[1u8; 32]);
    let (volume, sealed) = NexusVolume::create(
        &platform,
        cloud.clone(),
        &ias,
        &owner,
        NexusConfig::default(),
    )
    .unwrap();
    volume.authenticate(&owner).unwrap();
    volume.mkdir_all("docs/sub").unwrap();
    volume.write_file("docs/sub/f.bin", &vec![9u8; 300_000]).unwrap();
    volume.rename("docs/sub/f.bin", "docs/g.bin").unwrap();
    assert_eq!(volume.read_file("docs/g.bin").unwrap().len(), 300_000);
    assert!(clock.now().as_millis() > 50, "WAN time charged");
    assert!(cloud.billing().put_requests > 0);

    // Remount from the sealed rootkey still works.
    drop(volume);
    let volume =
        NexusVolume::mount(&platform, cloud.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    volume.authenticate(&owner).unwrap();
    assert_eq!(volume.read_range("docs/g.bin", 100, 16).unwrap(), vec![9u8; 16]);
    // fsck ignores the emulated `.lock` objects.
    let report = volume.fsck(nexus_core::FsckMode::Deep).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert!(report.orphans.is_empty(), "{:?}", report.orphans);
}

#[test]
fn users_listing_and_owner_admin_only() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&platform, &ias, backend.clone(), &owner);
    let alice = UserKeys::from_seed("alice", &[2u8; 32]);
    volume.add_user("alice", alice.public_key()).unwrap();
    assert_eq!(volume.users().unwrap(), vec!["owen".to_string(), "alice".to_string()]);

    // Alice (not owner) cannot administer.
    volume.logout();
    volume.authenticate(&alice).unwrap();
    assert!(matches!(
        volume.add_user("bob", UserKeys::from_seed("bob", &[3u8; 32]).public_key()),
        Err(NexusError::AccessDenied(_))
    ));
    assert!(matches!(
        volume.revoke_user("alice"),
        Err(NexusError::AccessDenied(_))
    ));
}

#[test]
fn many_files_fill_buckets() {
    let (platform, ias, backend, owner) = setup();
    let config = NexusConfig { bucket_size: 8, ..Default::default() };
    let (volume, _) =
        NexusVolume::create(&platform, backend.clone(), &ias, &owner, config).unwrap();
    volume.authenticate(&owner).unwrap();
    volume.mkdir("flat").unwrap();
    for i in 0..50 {
        volume.write_file(&format!("flat/file-{i:03}"), format!("contents {i}").as_bytes()).unwrap();
    }
    let listing = volume.list_dir("flat").unwrap();
    assert_eq!(listing.len(), 50);
    for i in 0..50 {
        assert_eq!(
            volume.read_file(&format!("flat/file-{i:03}")).unwrap(),
            format!("contents {i}").as_bytes()
        );
    }
    for i in 0..50 {
        volume.remove(&format!("flat/file-{i:03}")).unwrap();
    }
    assert!(volume.list_dir("flat").unwrap().is_empty());
}

#[test]
fn empty_file_roundtrip() {
    let (platform, ias, backend, owner) = setup();
    let (volume, _) = create_volume(&platform, &ias, backend, &owner);
    volume.create_file("empty").unwrap();
    assert_eq!(volume.read_file("empty").unwrap(), Vec::<u8>::new());
    assert_eq!(volume.lookup("empty").unwrap().size, 0);
}
