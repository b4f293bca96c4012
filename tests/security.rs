//! Security evaluation (paper §VI): every attack from the threat model,
//! asserted to be detected or denied. This is the test-suite counterpart of
//! the DESIGN.md threat-model table.

use std::sync::Arc;

use nexus::storage::{MaliciousBackend, MemBackend, StorageBackend};
use nexus::{
    AttestationService, NexusConfig, NexusError, NexusVolume, Platform, Rights, UserKeys,
    VolumeJoiner,
};

type Evil = Arc<MaliciousBackend<MemBackend>>;

fn setup() -> (Platform, AttestationService, Evil, UserKeys, NexusVolume, nexus::SealedRootKey) {
    setup_with(NexusConfig::default())
}

fn setup_with(
    config: NexusConfig,
) -> (Platform, AttestationService, Evil, UserKeys, NexusVolume, nexus::SealedRootKey) {
    let platform = Platform::seeded(0x5EC);
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
fn server_sees_only_ciphertext() {
    let (_, _, evil, _, volume, _) = setup();
    volume.mkdir("human-readable-dirname").unwrap();
    volume
        .write_file(
            "human-readable-dirname/tax-evasion-plan.txt",
            b"extremely sensitive plaintext content",
        )
        .unwrap();
    for (path, bytes) in evil.observed() {
        assert!(
            !path.contains("human-readable") && !path.contains("tax-evasion"),
            "plaintext name leaked: {path}"
        );
        assert!(
            !bytes
                .windows(b"sensitive plaintext".len())
                .any(|w| w == b"sensitive plaintext"),
            "plaintext contents leaked via {path}"
        );
    }
}

#[test]
fn tampered_data_detected() {
    let (_, _, evil, _, volume, _) = setup();
    volume.write_file("f.txt", b"payload bytes").unwrap();
    evil.tamper_with(""); // every object
    assert!(matches!(
        volume.read_file("f.txt"),
        Err(NexusError::Integrity(_))
    ));

    // A many-chunk file is fetched whole and its chunks open side by side:
    // the read still fails where a chunk-by-chunk reader would have stopped.
    let (_, _, evil, _, volume, _) =
        setup_with(NexusConfig { chunk_size: 1024, ..NexusConfig::default() });
    let added = objects_added_by(&evil, || volume.write_file("big", &[7u8; 10 * 1024]).unwrap());
    let sealed_chunk = 1024 + nexus::core::metadata::filenode::CHUNK_OVERHEAD as usize;
    let data_object = added
        .iter()
        .find(|name| evil.get(name).unwrap().len() == 10 * sealed_chunk)
        .expect("the data object");
    let mut ciphertext = evil.get(data_object).unwrap();
    ciphertext[5 * sealed_chunk + 100] ^= 1;
    ciphertext[9 * sealed_chunk + 100] ^= 1;
    evil.put(data_object, &ciphertext).unwrap();
    match volume.read_file("big") {
        Err(NexusError::Integrity(why)) => assert!(why.contains("chunk 5"), "{why}"),
        other => panic!("expected the chunk-5 failure, got {other:?}"),
    }
}

#[test]
fn tampered_metadata_detected_by_fresh_client() {
    let (platform, ias, evil, owner, volume, sealed) = setup();
    volume.write_file("f.txt", b"payload").unwrap();
    let meta_uuid = volume.lookup("f.txt").unwrap().uuid.object_name();
    evil.tamper_with(&meta_uuid);
    // A fresh mount (no warm metadata cache) must reject the filenode.
    let fresh =
        NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    fresh.authenticate(&owner).unwrap();
    assert!(matches!(
        fresh.read_file("f.txt"),
        Err(NexusError::Integrity(_))
    ));
}

#[test]
fn file_swap_detected() {
    let (platform, ias, evil, owner, volume, sealed) = setup();
    volume.mkdir("a").unwrap();
    volume.mkdir("b").unwrap();
    volume.write_file("a/cake.c", b"real recipe").unwrap();
    volume.write_file("b/cake.c", b"poisoned recipe").unwrap();
    let a_uuid = volume.lookup("a/cake.c").unwrap().uuid.object_name();
    let b_uuid = volume.lookup("b/cake.c").unwrap().uuid.object_name();
    evil.swap(&a_uuid, &b_uuid);
    // The warm client's enclave cache still holds the genuine filenodes, so
    // it keeps returning correct data; the attack targets a cold client,
    // which must detect the mismatched identity instead of serving b's file.
    let fresh =
        NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    fresh.authenticate(&owner).unwrap();
    let err = fresh.read_file("a/cake.c").unwrap_err();
    assert!(matches!(err, NexusError::Integrity(_)), "got {err}");
}

#[test]
fn rollback_detected() {
    let (_, _, evil, _, volume, _) = setup();
    volume.write_file("doc.txt", b"version 1").unwrap();
    volume.write_file("doc.txt", b"version 2").unwrap();
    let uuid = volume.lookup("doc.txt").unwrap().uuid.object_name();
    evil.rollback(&uuid);
    let err = volume.read_file("doc.txt").unwrap_err();
    assert!(
        matches!(err, NexusError::Rollback { .. } | NexusError::Integrity(_)),
        "got {err}"
    );
}

#[test]
fn stolen_sealed_rootkey_useless_without_identity() {
    // The attacker exfiltrates the sealed rootkey AND runs the genuine
    // enclave on the same machine — but has no authorized private key.
    let (platform, ias, evil, _, volume, sealed) = setup();
    volume.write_file("f.txt", b"secret").unwrap();
    let attacker_volume =
        NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    let eve = UserKeys::from_seed("eve", &[66u8; 32]);
    assert!(attacker_volume.authenticate(&eve).is_err());
    // Without a session every operation is refused.
    assert!(matches!(
        attacker_volume.read_file("f.txt"),
        Err(NexusError::NotAuthenticated)
    ));
}

#[test]
fn stolen_sealed_rootkey_useless_on_other_machine() {
    let (_, ias, evil, owner, _, sealed) = setup();
    let other = Platform::seeded(0xDEAD);
    ias.register_platform(&other);
    let err = NexusVolume::mount(&other, evil.clone(), &ias, &sealed, NexusConfig::default())
        .unwrap_err();
    assert!(matches!(err, NexusError::Seal(_)), "got {err}");
    let _ = owner;
}

#[test]
fn revoked_user_denied_immediately() {
    let (platform, ias, evil, owner, volume, _) = setup();
    let alice = UserKeys::from_seed("alice", &[2u8; 32]);

    let alice_machine = Platform::seeded(0xA11CE);
    ias.register_platform(&alice_machine);
    let joiner = VolumeJoiner::new(&alice_machine, evil.clone());
    joiner.publish_offer(&alice).unwrap();
    volume.grant_access(&owner, "alice", &alice.public_key()).unwrap();
    volume.mkdir("shared").unwrap();
    volume.write_file("shared/f.txt", b"content").unwrap();
    volume.set_acl("shared", "alice", Rights::RW).unwrap();

    let sealed_alice = joiner.accept_grant(&alice, &owner.public_key()).unwrap();
    let alice_volume = NexusVolume::mount(
        &alice_machine,
        evil.clone(),
        &ias,
        &sealed_alice,
        NexusConfig::default(),
    )
    .unwrap();
    alice_volume.authenticate(&alice).unwrap();
    assert_eq!(alice_volume.read_file("shared/f.txt").unwrap(), b"content");

    // Directory-level revocation: one metadata update.
    volume.revoke_acl("shared", "alice").unwrap();
    assert!(matches!(
        alice_volume.read_file("shared/f.txt"),
        Err(NexusError::AccessDenied(_))
    ));

    // Volume-level revocation: subsequent authentication fails too.
    volume.revoke_user("alice").unwrap();
    assert!(alice_volume.authenticate(&alice).is_err());
    let _ = platform;
}

#[test]
fn exchange_rejects_wrong_enclave() {
    // An attacker fabricates an "offer" from a non-NEXUS enclave (different
    // measurement): grant_access must refuse after quote verification.
    let (_, ias, evil, owner, volume, _) = setup();
    let eve_machine = Platform::seeded(0xE7E);
    ias.register_platform(&eve_machine);
    let eve = UserKeys::from_seed("eve", &[66u8; 32]);

    // Build a quote from a *different* enclave image and publish it as an
    // offer under eve's name.
    use nexus::sgx::{Enclave, EnclaveImage};
    let fake_enclave = Enclave::create(&eve_machine, &EnclaveImage::new(b"evil-enclave".to_vec()), ());
    let mut report = [0u8; 64];
    report[32..48].copy_from_slice(b"NEXUS-XCHG-KEY-1");
    let quote = fake_enclave.ecall(|_, env| env.quote(&report));
    let signature = eve.sign(&quote.to_bytes());
    let offer = nexus::core::protocol::ExchangeOffer { quote, signature };
    evil.put(&nexus::core::protocol::offer_path("eve"), &offer.to_bytes()).unwrap();

    let err = volume.grant_access(&owner, "eve", &eve.public_key()).unwrap_err();
    assert!(matches!(err, NexusError::Attestation(_)), "got {err}");
}

#[test]
fn exchange_rejects_unregistered_platform() {
    // A quote from a machine Intel never provisioned (an SGX emulator).
    let (_, _, evil, owner, volume, _) = setup();
    let rogue_machine = Platform::seeded(0xBAD); // never registered with IAS
    let eve = UserKeys::from_seed("eve", &[66u8; 32]);
    let joiner = VolumeJoiner::new(&rogue_machine, evil.clone());
    joiner.publish_offer(&eve).unwrap();
    let err = volume.grant_access(&owner, "eve", &eve.public_key()).unwrap_err();
    assert!(matches!(err, NexusError::Attestation(_)), "got {err}");
}

#[test]
fn grant_for_one_enclave_unusable_by_another() {
    // Mallory copies Alice's grant message but her enclave holds a
    // different ECDH key: extraction must fail.
    let (_, ias, evil, owner, volume, _) = setup();
    let alice = UserKeys::from_seed("alice", &[2u8; 32]);
    let alice_machine = Platform::seeded(0xA11CE);
    ias.register_platform(&alice_machine);
    let joiner = VolumeJoiner::new(&alice_machine, evil.clone());
    joiner.publish_offer(&alice).unwrap();
    volume.grant_access(&owner, "alice", &alice.public_key()).unwrap();

    let mallory_machine = Platform::seeded(0x3A110);
    ias.register_platform(&mallory_machine);
    let mallory_joiner = VolumeJoiner::new(&mallory_machine, evil.clone());
    // Mallory copies alice's grant to her own slot and tries to extract.
    let grant = evil.get(&nexus::core::protocol::grant_path("alice")).unwrap();
    evil.put(&nexus::core::protocol::grant_path("mallory"), &grant).unwrap();
    let mallory = UserKeys::from_seed("mallory", &[7u8; 32]);
    mallory_joiner.publish_offer(&mallory).unwrap();
    let err = mallory_joiner.accept_grant(&mallory, &owner.public_key()).unwrap_err();
    assert!(matches!(err, NexusError::Protocol(_)), "got {err}");
}

#[test]
fn non_owner_cannot_administer() {
    let (_, _, _, _, volume, _) = setup();
    let alice = UserKeys::from_seed("alice", &[2u8; 32]);
    volume.add_user("alice", alice.public_key()).unwrap();
    volume.mkdir("d").unwrap();
    volume.set_acl("d", "alice", Rights::RW).unwrap();
    volume.logout();
    volume.authenticate(&alice).unwrap();
    // Alice has RW on d but no administrative control anywhere.
    let bob = UserKeys::from_seed("bob", &[3u8; 32]);
    assert!(matches!(
        volume.add_user("bob", bob.public_key()),
        Err(NexusError::AccessDenied(_))
    ));
    assert!(matches!(
        volume.set_acl("d", "alice", Rights::RW),
        Err(NexusError::AccessDenied(_))
    ));
    assert!(matches!(
        volume.revoke_user("alice"),
        Err(NexusError::AccessDenied(_))
    ));
}

#[test]
fn auth_challenge_cannot_be_replayed() {
    // A captured challenge/response signature is single-use: the nonce is
    // consumed by the enclave when the session is established.
    use nexus::core::protocol::auth_challenge_message;
    let (platform, ias, evil, owner, volume, sealed) = setup();
    let _ = (platform, ias, sealed);

    // Run the protocol manually so we can capture the signature.
    let nonce = volume.begin_auth_for_test(&owner);
    let blob = evil.get(&volume.volume_id().object_name()).unwrap();
    let signature = owner.sign(&auth_challenge_message(&nonce, &blob));
    volume.complete_auth_for_test(&owner, &signature).unwrap();
    volume.logout();
    // Replaying the captured signature without a fresh challenge fails.
    let err = volume.complete_auth_for_test(&owner, &signature).unwrap_err();
    assert!(matches!(err, NexusError::Protocol(_)), "got {err}");
    // And a fresh challenge produces a different nonce, so the old
    // signature is useless there too.
    let nonce2 = volume.begin_auth_for_test(&owner);
    assert_ne!(nonce, nonce2);
    let err = volume.complete_auth_for_test(&owner, &signature).unwrap_err();
    assert!(matches!(err, NexusError::Protocol(_)), "got {err}");
}

#[test]
fn logout_drops_the_session() {
    let (_, _, _, owner, volume, _) = setup();
    volume.write_file("f", b"x").unwrap();
    volume.logout();
    assert!(matches!(
        volume.read_file("f"),
        Err(NexusError::NotAuthenticated)
    ));
    volume.authenticate(&owner).unwrap();
    assert_eq!(volume.read_file("f").unwrap(), b"x");
}

#[test]
fn deleted_objects_stay_deleted() {
    // Availability attacks are out of scope, but deletion must surface as
    // an error, never as fabricated content.
    let (_, _, evil, _, volume, _) = setup();
    volume.write_file("f.txt", b"data").unwrap();
    let uuid = volume.lookup("f.txt").unwrap().uuid.object_name();
    evil.delete(&uuid).unwrap();
    assert!(matches!(volume.read_file("f.txt"), Err(NexusError::NotFound(_))));
}

// -- The same attacks against a session whose metadata cache is warm ------
//
// A warm session keeps decrypted dirnodes *and their buckets*; what lets it
// trust them is the version probe of every main object on the path (one
// `stat_many` per walk), each of which binds its buckets by MAC. These pin
// that nothing served from the cache skips a check a cold session would make.

/// The object names `f` adds to the store.
fn objects_added_by(evil: &Evil, f: impl FnOnce()) -> Vec<String> {
    let before = evil.list("");
    f();
    evil.list("").into_iter().filter(|name| !before.contains(name)).collect()
}

#[test]
fn warm_cache_never_consults_a_swapped_or_tampered_bucket() {
    let (platform, ias, evil, owner, volume, sealed) = setup();
    volume.mkdir("a").unwrap();
    volume.mkdir("b").unwrap();
    // A symlink is an entry and nothing else: the one new object is the
    // directory's (first) bucket.
    let bucket_a = objects_added_by(&evil, || volume.symlink("to-a", "a/l").unwrap());
    let bucket_b = objects_added_by(&evil, || volume.symlink("to-b", "b/l").unwrap());
    let (bucket_a, bucket_b) = (&bucket_a[0], &bucket_b[0]);
    let mount = || {
        let v = NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
        v.authenticate(&owner).unwrap();
        v
    };
    let warm = mount();
    assert_eq!(warm.readlink("a/l").unwrap(), "to-a");
    assert_eq!(warm.readlink("b/l").unwrap(), "to-b");

    // Both buckets are authentic and carry their directory as parent, so
    // only the MAC in the (unchanged) main object tells them apart.
    evil.swap(bucket_a, bucket_b);
    evil.tamper_with(bucket_a);
    let reads = evil.stats().reads;
    assert_eq!(warm.readlink("a/l").unwrap(), "to-a");
    assert_eq!(warm.readlink("b/l").unwrap(), "to-b");
    assert_eq!(evil.stats().reads, reads, "verified buckets are not fetched again");
    // A cold session fetches them, and the MAC check rejects both.
    let cold = mount();
    for path in ["a/l", "b/l"] {
        let err = cold.readlink(path).unwrap_err();
        assert!(matches!(err, NexusError::Integrity(_)), "{path}: got {err}");
    }
    // The warm session is not immune either: once the directory changes it
    // drops the node and must verify the buckets it is served again.
    evil.clear_attacks();
    volume.symlink("x", "a/l2").unwrap();
    evil.swap(bucket_a, bucket_b);
    let err = warm.readlink("a/l").unwrap_err();
    assert!(matches!(err, NexusError::Integrity(_)), "got {err}");
}

#[test]
fn warm_cache_still_detects_a_rolled_back_directory() {
    let (platform, ias, evil, owner, volume, sealed) = setup();
    volume.mkdir("d").unwrap();
    let dir = volume.lookup("d").unwrap().uuid.object_name();
    let bucket = objects_added_by(&evil, || volume.symlink("v1", "d/l1").unwrap());
    volume.symlink("v2", "d/l2").unwrap();
    let warm =
        NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    warm.authenticate(&owner).unwrap();
    assert_eq!(warm.readlink("d/l2").unwrap(), "v2");

    // The server rolls main object and bucket back *together*, to versions
    // that are consistent with each other, and advertises the old status.
    evil.rollback(&dir);
    evil.rollback(&bucket[0]);
    let err = warm.readlink("d/l2").unwrap_err();
    assert!(matches!(err, NexusError::Rollback { .. }), "got {err}");
    let err = warm.list_dir("d").unwrap_err();
    assert!(matches!(err, NexusError::Rollback { .. }), "got {err}");
}

#[test]
fn lying_version_probes_serve_stale_but_authentic_state_at_worst() {
    // A warm session asks the server one question before trusting its
    // cache: "has any of these objects changed?" — now in one `stat_many`
    // instead of a `stat` each. A server that answers "no" falsely buys
    // exactly what it always could by withholding an update: the session
    // keeps seeing an older state that was genuine when it was written.
    // It never gets the session to accept bytes the enclave did not seal,
    // with or without the other attacks on top.
    let (platform, ias, evil, owner, warm, sealed) = setup();
    warm.mkdir("d").unwrap();
    warm.write_file("d/f", b"one").unwrap();
    warm.write_file("d/h", b"kept").unwrap();
    assert_eq!(warm.list_dir("d").unwrap().len(), 2);
    let f_meta = warm.lookup("d/f").unwrap().uuid.object_name();
    let h_meta = warm.lookup("d/h").unwrap().uuid.object_name();

    let other =
        NexusVolume::mount(&platform, evil.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    other.authenticate(&owner).unwrap();
    evil.freeze_stat("");
    other.write_file("d/g", b"two").unwrap();
    other.write_file("d/f", b"three").unwrap();

    // Stale, and authentic: the directory as the warm session last saw it.
    let names: Vec<String> = warm.list_dir("d").unwrap().into_iter().map(|r| r.name).collect();
    assert_eq!(names.len(), 2, "{names:?}");
    assert!(matches!(warm.lookup("d/g"), Err(NexusError::NotFound(_))));
    assert_eq!(warm.read_file("d/h").unwrap(), b"kept");
    // The cached filenode no longer opens the data object: detected, not
    // served.
    assert!(matches!(warm.read_file("d/f"), Err(NexusError::Integrity(_))));

    // Tampering, swapping or rolling back metadata behind the lie changes
    // nothing the session accepts: it is either its verified copy or an
    // error.
    evil.tamper_with(&h_meta);
    assert_eq!(warm.read_file("d/h").unwrap(), b"kept");
    evil.clear_attacks();
    evil.freeze_stat("");
    evil.swap(&f_meta, &h_meta);
    match warm.read_file("d/h") {
        Ok(data) => assert_eq!(data, b"kept"),
        Err(e) => assert!(matches!(e, NexusError::Integrity(_)), "got {e}"),
    }
    evil.rollback(&h_meta);
    match warm.read_file("d/h") {
        Ok(data) => assert_eq!(data, b"kept"),
        Err(e) => {
            assert!(matches!(e, NexusError::Integrity(_) | NexusError::Rollback { .. }), "got {e}")
        }
    }

    // An honest server again: the session catches up at its next probe.
    evil.clear_attacks();
    assert_eq!(warm.list_dir("d").unwrap().len(), 3);
    assert_eq!(warm.read_file("d/f").unwrap(), b"three");
    assert_eq!(warm.read_file("d/g").unwrap(), b"two");
}
