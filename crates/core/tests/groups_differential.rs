//! Differential suite for group access control with epoch keys.
//!
//! Proves the revocation guarantees end to end, with real multi-machine
//! grant flows: after a membership revocation bumps the group epoch,
//!
//! - remaining members read pre- and post-epoch data byte-identically,
//! - the revoked member's live session loses access on its next request,
//! - an enclave pinned to a pre-revocation supernode (forking server)
//!   cannot open anything written after the bump,
//! - revocation costs O(1) metadata writes regardless of group size, and
//! - objects migrate to the new epoch lazily, on their next write.

use std::sync::Arc;

use nexus_core::{NexusConfig, NexusError, NexusVolume, Rights, UserKeys, VolumeJoiner};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{MemBackend, StorageBackend};

fn setup() -> (Platform, AttestationService, Arc<MemBackend>, UserKeys, NexusVolume) {
    let platform = Platform::seeded(77);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let backend = Arc::new(MemBackend::new());
    let owner = UserKeys::from_seed("owen", &[1u8; 32]);
    let (volume, _) =
        NexusVolume::create(&platform, backend.clone(), &ias, &owner, NexusConfig::default())
            .unwrap();
    volume.authenticate(&owner).unwrap();
    (platform, ias, backend, owner, volume)
}

/// Runs the full exchange for a new user on their own machine and returns
/// their authenticated volume handle.
fn join(
    ias: &AttestationService,
    backend: &Arc<MemBackend>,
    owner_vol: &NexusVolume,
    owner: &UserKeys,
    name: &str,
    seed: u8,
    machine_seed: u64,
) -> (UserKeys, NexusVolume) {
    let machine = Platform::seeded(machine_seed);
    ias.register_platform(&machine);
    let user = UserKeys::from_seed(name, &[seed; 32]);
    let joiner = VolumeJoiner::new(&machine, backend.clone(), ias);
    let sealed_offer = joiner.publish_offer(&user).unwrap();
    owner_vol.grant_access(owner, name, &user.public_key()).unwrap();
    let sealed = joiner.accept_grant(&user, &owner.public_key(), sealed_offer).unwrap();
    let vol =
        NexusVolume::mount(&machine, backend.clone(), ias, &sealed, NexusConfig::default())
            .unwrap();
    vol.authenticate(&user).unwrap();
    (user, vol)
}

/// Owner volume + `team/` scoped to group `eng` = {alice, bob}, with one
/// pre-revocation file in place.
fn group_fixture() -> (AttestationService, Arc<MemBackend>, UserKeys, NexusVolume, NexusVolume, NexusVolume)
{
    let (_platform, ias, backend, owner, volume) = setup();
    volume.mkdir("team").unwrap();
    let (_alice, alice_vol) = join(&ias, &backend, &volume, &owner, "alice", 2, 1001);
    let (_bob, bob_vol) = join(&ias, &backend, &volume, &owner, "bob", 3, 1002);
    volume.create_group("eng").unwrap();
    assert_eq!(volume.add_group_members("eng", &["alice", "bob"]).unwrap(), 2);
    volume.set_group_acl("team", "eng", Rights::RW).unwrap();
    // Written after the scope lands, so the blob is sealed under epoch 0.
    volume.write_file("team/pre.txt", b"written before the bump").unwrap();
    (ias, backend, owner, volume, alice_vol, bob_vol)
}

#[test]
fn one_group_entry_covers_every_member() {
    let (_ias, _backend, _owner, volume, alice_vol, bob_vol) = group_fixture();
    assert_eq!(alice_vol.read_file("team/pre.txt").unwrap(), b"written before the bump");
    bob_vol.write_file("team/from-bob.txt", b"hi").unwrap();
    assert_eq!(volume.read_file("team/from-bob.txt").unwrap(), b"hi");
    // The whole membership rides on a single `@eng` ACL entry.
    let entries = volume.acl_entries("team").unwrap();
    assert_eq!(entries, vec![("@eng".to_string(), Rights::RW)]);
    assert_eq!(volume.group_members("eng").unwrap(), vec!["alice", "bob"]);
}

#[test]
fn revoked_member_is_cut_off_while_remaining_member_reads_everything() {
    let (_ias, _backend, _owner, volume, alice_vol, bob_vol) = group_fixture();
    assert_eq!(bob_vol.read_file("team/pre.txt").unwrap(), b"written before the bump");

    assert_eq!(volume.remove_group_members("eng", &["bob"]).unwrap(), 1);
    assert_eq!(volume.group_epoch("eng").unwrap(), 1);
    volume.write_file("team/post.txt", b"written after the bump").unwrap();

    // Remaining member: pre-epoch ciphertext opens under the retained
    // epoch-0 key, post-epoch under the new key her enclave pulls in by
    // revalidating the supernode — both byte-identical to the plaintext.
    assert_eq!(alice_vol.read_file("team/pre.txt").unwrap(), b"written before the bump");
    assert_eq!(alice_vol.read_file("team/post.txt").unwrap(), b"written after the bump");

    // Revoked member: the next request revalidates the group table and
    // denies — even for data his old epoch key could still unwrap.
    assert!(matches!(
        bob_vol.read_file("team/pre.txt"),
        Err(NexusError::AccessDenied(_))
    ));
    assert!(matches!(
        bob_vol.read_file("team/post.txt"),
        Err(NexusError::AccessDenied(_))
    ));
    assert!(matches!(
        bob_vol.write_file("team/nope.txt", b"x"),
        Err(NexusError::AccessDenied(_))
    ));
}

#[test]
fn stale_supernode_enclave_cannot_open_post_bump_objects() {
    let (_platform, ias, backend, owner, volume) = setup();
    volume.mkdir("team").unwrap();
    // Join bob by hand so his sealed rootkey (and machine) stay in reach.
    let bob = UserKeys::from_seed("bob", &[3u8; 32]);
    let bob_machine = Platform::seeded(1002);
    ias.register_platform(&bob_machine);
    let joiner = VolumeJoiner::new(&bob_machine, backend.clone(), &ias);
    let sealed_offer = joiner.publish_offer(&bob).unwrap();
    volume.grant_access(&owner, "bob", &bob.public_key()).unwrap();
    let sealed = joiner.accept_grant(&bob, &owner.public_key(), sealed_offer).unwrap();

    volume.create_group("eng").unwrap();
    volume.add_group_members("eng", &["bob"]).unwrap();
    volume.set_group_acl("team", "eng", Rights::RW).unwrap();

    // A forking server pins bob to the pre-revocation supernode.
    let sup_name = volume.volume_id().object_name();
    let old_supernode = backend.get(&sup_name).unwrap();

    volume.remove_group_members("eng", &["bob"]).unwrap();
    volume.write_file("team/post.txt", b"post-bump secret").unwrap();

    // Fork: serve the old supernode again. (The owner handle is dead from
    // here on — its enclave would detect the rollback.)
    backend.put(&sup_name, &old_supernode).unwrap();

    let bob_vol =
        NexusVolume::mount(&bob_machine, backend.clone(), &ias, &sealed, NexusConfig::default())
            .unwrap();
    bob_vol.authenticate(&bob).unwrap();
    // The pinned table still lists bob as a member, so policy passes — but
    // it carries no key for the post-bump epoch, and the freshness probe
    // agrees with the (forked) store. The read fails closed: the enclave
    // does not fall back to any older epoch key it does hold.
    let err = bob_vol.read_file("team/post.txt").unwrap_err();
    assert!(matches!(err, NexusError::Integrity(_)), "got {err:?}");
}

#[test]
fn revocation_costs_constant_metadata_writes_at_any_group_size() {
    let (_ias, _backend, _owner, volume, _alice_vol, _bob_vol) = group_fixture();
    volume.create_group("big").unwrap();
    volume.add_group_members("big", &["alice", "bob"]).unwrap();
    // Splice 10^4 synthetic member ids into `big` (bench scaffolding).
    let ids: Vec<u32> = (1000..11_000).collect();
    assert_eq!(volume.add_group_member_ids("big", &ids).unwrap(), 10_000);

    let before_small = volume.io_stats();
    volume.remove_group_members("eng", &["bob"]).unwrap();
    let small = volume.io_stats().delta_since(&before_small);

    let before_big = volume.io_stats();
    volume.remove_group_members("big", &["bob"]).unwrap();
    let big = volume.io_stats().delta_since(&before_big);

    // O(1): the 10^4-member revocation issues exactly as many writes as
    // the 3-member one, and no data objects are touched either way.
    assert_eq!(small.writes, big.writes, "small {small:?} vs big {big:?}");
    assert!(small.writes <= 2, "revocation must be O(1) writes: {small:?}");
    assert_eq!(small.deletes, 0);
    assert_eq!(big.deletes, 0);
}

#[test]
fn objects_migrate_to_the_new_epoch_lazily_on_write() {
    let (_ias, backend, _owner, volume, alice_vol, _bob_vol) = group_fixture();
    let fnode_uuid = volume.lookup("team/pre.txt").unwrap().uuid;
    let epoch_of = |blob: &[u8]| -> u64 {
        // Scoped preamble: magic(4) kind(1) uuid(16) parent(16) version(8)
        // group(4) epoch(8).
        assert_eq!(&blob[..4], b"NXS2");
        u64::from_le_bytes(blob[45 + 4..45 + 12].try_into().unwrap())
    };
    assert_eq!(epoch_of(&backend.get(&fnode_uuid.object_name()).unwrap()), 0);

    volume.remove_group_members("eng", &["bob"]).unwrap();
    // The revocation itself rewrites nothing: pre.txt still sits at epoch 0.
    assert_eq!(epoch_of(&backend.get(&fnode_uuid.object_name()).unwrap()), 0);
    assert_eq!(volume.group_key_count("eng").unwrap(), 2);

    // The next write migrates it to the current epoch.
    volume.write_file("team/pre.txt", b"rewritten after the bump").unwrap();
    assert_eq!(epoch_of(&backend.get(&fnode_uuid.object_name()).unwrap()), 1);
    assert_eq!(alice_vol.read_file("team/pre.txt").unwrap(), b"rewritten after the bump");
}

#[test]
fn subdirectories_inherit_the_group_scope() {
    let (_ias, backend, _owner, volume, alice_vol, _bob_vol) = group_fixture();
    volume.mkdir("team/sub").unwrap();
    volume.write_file("team/sub/deep.txt", b"deep").unwrap();
    assert_eq!(alice_vol.read_file("team/sub/deep.txt").unwrap(), b"deep");
    // The child dirnode and the filenode under it are group-scoped blobs.
    let sub_uuid = volume.lookup("team/sub").unwrap().uuid;
    let deep_uuid = volume.lookup("team/sub/deep.txt").unwrap().uuid;
    assert_eq!(&backend.get(&sub_uuid.object_name()).unwrap()[..4], b"NXS2");
    assert_eq!(&backend.get(&deep_uuid.object_name()).unwrap()[..4], b"NXS2");
}

#[test]
fn revoking_the_group_acl_entry_denies_members_and_keeps_the_scope() {
    let (_ias, backend, _owner, volume, alice_vol, bob_vol) = group_fixture();
    volume.set_acl("team", "alice", Rights::READ).unwrap();
    let team_uuid = volume.lookup("team").unwrap().uuid;
    // Scoped preamble up to and including group(4) and epoch(8).
    let scope_of = |uuid: &nexus_core::NexusUuid| {
        let blob = backend.get(&uuid.object_name()).unwrap();
        assert_eq!(&blob[..4], b"NXS2");
        blob[45..45 + 12].to_vec()
    };
    let scope_before = scope_of(&team_uuid);
    assert_eq!(bob_vol.read_file("team/pre.txt").unwrap(), b"written before the bump");

    volume.revoke_group_acl("team", "eng").unwrap();

    // A mounted member whose only way in was the `@eng` entry is denied on
    // his next request; membership and epoch are untouched.
    assert!(matches!(bob_vol.read_file("team/pre.txt"), Err(NexusError::AccessDenied(_))));
    assert_eq!(volume.group_epoch("eng").unwrap(), 0);
    assert_eq!(volume.group_members("eng").unwrap(), vec!["alice", "bob"]);
    // The remaining *user* entry still works.
    assert_eq!(volume.acl_entries("team").unwrap(), vec![("alice".to_string(), Rights::READ)]);
    assert_eq!(alice_vol.read_file("team/pre.txt").unwrap(), b"written before the bump");
    // The entry is gone, so a second call has nothing to remove.
    assert!(matches!(volume.revoke_group_acl("team", "eng"), Err(NexusError::NotFound(_))));
    assert!(matches!(volume.revoke_group_acl("team", "nope"), Err(NexusError::NotFound(_))));
    // ACL removal does not rotate or drop the key scope: the directory and
    // anything written under it afterwards stay on the group's epoch chain.
    assert_eq!(scope_of(&team_uuid), scope_before);
    volume.write_file("team/after.txt", b"still scoped").unwrap();
    assert_eq!(scope_of(&volume.lookup("team/after.txt").unwrap().uuid), scope_before);
    assert_eq!(alice_vol.read_file("team/after.txt").unwrap(), b"still scoped");
}
