//! Tests for the §VI-C volume-wide rollback protection (Merkle-anchored
//! freshness manifest).

use std::sync::Arc;

use nexus_core::{NexusConfig, NexusError, NexusVolume, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{MaliciousBackend, MemBackend};

type Evil = Arc<MaliciousBackend<MemBackend>>;

fn fresh_config() -> NexusConfig {
    NexusConfig { merkle_freshness: true, ..Default::default() }
}

fn setup(config: NexusConfig) -> (Platform, AttestationService, Evil, UserKeys, NexusVolume, nexus_core::SealedRootKey) {
    let platform = Platform::seeded(0xF8E5);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let evil: Evil = Arc::new(MaliciousBackend::new(MemBackend::new()));
    let owner = UserKeys::from_seed("owen", &[1u8; 32]);
    let (volume, sealed) =
        NexusVolume::create(&platform, evil.clone(), &ias, &owner, config).unwrap();
    volume.authenticate(&owner).unwrap();
    (platform, ias, evil, owner, volume, sealed)
}

#[test]
fn normal_operation_with_manifest() {
    let (_, _, _, _, volume, _) = setup(fresh_config());
    volume.mkdir_all("a/b").unwrap();
    volume.write_file("a/b/f.txt", b"hello").unwrap();
    assert_eq!(volume.read_file("a/b/f.txt").unwrap(), b"hello");
    volume.rename("a/b/f.txt", "a/g.txt").unwrap();
    volume.remove("a/g.txt").unwrap();
    volume.remove("a/b").unwrap();
    assert_eq!(volume.list_dir("a").unwrap().len(), 0);
}

#[test]
fn remount_with_manifest_works() {
    let (platform, ias, evil, owner, volume, sealed) = setup(fresh_config());
    volume.write_file("f.txt", b"persisted").unwrap();
    drop(volume);
    let volume =
        NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    volume.authenticate(&owner).unwrap();
    assert_eq!(volume.read_file("f.txt").unwrap(), b"persisted");
}

#[test]
fn single_object_rollback_detected_by_fresh_client() {
    // THE capability the manifest adds: per-object versions cannot protect
    // a client that never saw the object, but the manifest can.
    let (platform, ias, evil, owner, volume, sealed) = setup(fresh_config());
    volume.write_file("doc.txt", b"version 1").unwrap();
    volume.write_file("doc.txt", b"version 2").unwrap();
    let filenode_uuid = volume.lookup("doc.txt").unwrap().uuid.object_name();

    // The server rolls back ONLY the filenode (not the manifest).
    evil.rollback(&filenode_uuid);

    // A brand-new client with no history must still detect it.
    let fresh =
        NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    fresh.authenticate(&owner).unwrap();
    let err = fresh.read_file("doc.txt").unwrap_err();
    assert!(
        matches!(err, NexusError::Integrity(_) | NexusError::Rollback { .. }),
        "got {err}"
    );
}

#[test]
fn without_manifest_fresh_client_misses_single_object_rollback() {
    // Control: the base design (per-object versions only) accepts the same
    // attack when the victim has no history — motivating the manifest.
    let (platform, ias, evil, owner, volume, sealed) = setup(NexusConfig::default());
    volume.write_file("doc.txt", b"version 1").unwrap();
    let before = evil.observed().len();
    volume.write_file("doc.txt", b"version 2").unwrap();
    // The server rolls back what the overwrite rewrote — the filenode and
    // its data object — to the versions the create wrote.
    let rewritten: Vec<String> =
        evil.observed().split_off(before).into_iter().map(|(path, _)| path).collect();
    let filenode_uuid = volume.lookup("doc.txt").unwrap().uuid.object_name();
    assert_eq!(rewritten.len(), 2, "{rewritten:?}");
    assert!(rewritten.contains(&filenode_uuid), "{rewritten:?}");
    for path in &rewritten {
        assert_eq!(evil.version_count(path), 2, "{path} was first written by the create");
        evil.rollback(path);
    }
    let fresh =
        NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    fresh.authenticate(&owner).unwrap();
    // The stale pair is authentic and the client has no version memory:
    // the rolled-back contents are served without any error.
    assert_eq!(
        fresh.read_file("doc.txt").unwrap(),
        b"version 1",
        "client was served stale state silently"
    );
}

#[test]
fn whole_volume_rollback_detected_by_writer_via_counter() {
    // If the server rolls back the manifest AND the objects consistently,
    // a client whose enclave wrote newer state detects it through the
    // monotonic-counter anchor even after its caches are dropped.
    let (_, _, evil, _, volume, _) = setup(fresh_config());
    volume.write_file("doc.txt", b"version 1").unwrap();
    volume.write_file("doc.txt", b"version 2").unwrap();
    // Roll back everything the server stores (manifest included).
    evil.rollback("");
    let err = volume.read_file("doc.txt").unwrap_err();
    assert!(
        matches!(err, NexusError::Rollback { .. } | NexusError::Integrity(_)),
        "got {err}"
    );
}

#[test]
fn manifest_tampering_detected() {
    let (_, _, evil, _, volume, _) = setup(fresh_config());
    volume.write_file("doc.txt", b"data").unwrap();
    // Find the manifest object: tamper with every object; the first thing
    // a fresh read touches beyond cache is rejected either way.
    evil.tamper_with("");
    // The warm cache may still serve the read; force a path that must
    // revalidate by writing (which re-uploads the manifest after reading it).
    match volume.read_file("doc.txt") {
        Err(e) => assert!(matches!(e, NexusError::Integrity(_)), "got {e}"),
        Ok(_) => {
            let err = volume.write_file("doc2.txt", b"x").unwrap_err();
            assert!(matches!(err, NexusError::Integrity(_)), "got {err}");
        }
    }
}

#[test]
fn removals_keep_manifest_consistent() {
    // Deletion bookkeeping: removed objects leave the manifest, remaining
    // objects stay verifiable — including for a brand-new client.
    let (platform, ias, evil, owner, volume, sealed) = setup(fresh_config());
    for i in 0..20 {
        volume.write_file(&format!("f{i:02}.txt"), format!("data {i}").as_bytes()).unwrap();
    }
    for i in 0..10 {
        volume.remove(&format!("f{i:02}.txt")).unwrap();
    }
    let fresh =
        NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    fresh.authenticate(&owner).unwrap();
    assert_eq!(fresh.list_dir("").unwrap().len(), 10);
    for i in 10..20 {
        assert_eq!(
            fresh.read_file(&format!("f{i:02}.txt")).unwrap(),
            format!("data {i}").as_bytes()
        );
    }
    // Names can be reused after removal.
    fresh.write_file("f00.txt", b"recreated").unwrap();
    assert_eq!(volume.read_file("f00.txt").unwrap(), b"recreated");
}

#[test]
fn supernode_rollback_cannot_resurrect_revoked_user() {
    // Revoke alice, then roll the supernode (and only it) back to the
    // version that still listed her: a history-less client must refuse.
    let (platform, ias, evil, owner, volume, sealed) = setup(fresh_config());
    let alice = nexus_core::UserKeys::from_seed("alice", &[2u8; 32]);
    volume.add_user("alice", alice.public_key()).unwrap();
    volume.revoke_user("alice").unwrap();

    let supernode_uuid = volume.volume_id().object_name();
    evil.rollback(&supernode_uuid);

    let fresh =
        NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    let err = fresh.authenticate(&alice).unwrap_err();
    assert!(
        matches!(err, NexusError::Integrity(_) | NexusError::Rollback { .. }),
        "got {err}"
    );
    // The owner still authenticates against the genuine latest supernode?
    // No: the server serves the stale one to everyone — owner detects too.
    let err = fresh.authenticate(&owner).unwrap_err();
    assert!(
        matches!(err, NexusError::Integrity(_) | NexusError::Rollback { .. }),
        "got {err}"
    );
}

#[test]
fn manifest_costs_extra_writes() {
    // The write amplification the paper predicted: quantify it.
    let (_, _, _, _, plain_volume, _) = setup(NexusConfig::default());
    let base = {
        let before = plain_volume.io_stats();
        plain_volume.write_file("f.txt", b"x").unwrap();
        plain_volume.io_stats().delta_since(&before).writes
    };
    let (_, _, _, _, manifest_volume, _) = setup(fresh_config());
    let with_manifest = {
        let before = manifest_volume.io_stats();
        manifest_volume.write_file("f.txt", b"x").unwrap();
        manifest_volume.io_stats().delta_since(&before).writes
    };
    assert!(
        with_manifest > base,
        "manifest must add writes: {with_manifest} vs {base}"
    );
}
