//! No key the metadata path handles is left in freed memory.
//!
//! This binary runs on `nexus_testkit::freed`'s allocator, which scans
//! every block before it is freed for the byte patterns the test planted.
//! The test hands `seal_object` a known object key through its
//! `fill_random` and a group a known epoch key the same way, plants those
//! keys and the group-master key derived from the rootkey, and then seals
//! and opens rootkey-scoped and group-scoped objects: every block freed on
//! the way must hold none of them. One test only: the patterns and the
//! leak count are process-wide.

use std::borrow::Cow;

use nexus_core::groups::group_master_key;
use nexus_core::metadata::crypto::{
    open_object, open_object_scoped, open_object_with, seal_object, seal_object_with, KeyScope,
    ObjectKind, Preamble,
};
use nexus_core::{GroupId, GroupRecord, NexusUuid};
use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_testkit::freed::{self, FreedKeyCheck};

#[global_allocator]
static ALLOC: FreedKeyCheck = FreedKeyCheck;

const ROOTKEY: [u8; 32] = [0x11; 32];
const OBJECT_KEY: [u8; 16] = *b"planted obj key!";
const EPOCH_KEY: [u8; 32] = *b"planted group epoch key, 32 B..!";
const VOLUME: NexusUuid = NexusUuid([7; 16]);
const GROUP: GroupId = GroupId(3);

/// A `fill_random` that answers every 16-byte request (an object key) with
/// `key16`, every 32-byte one (a group key) with `key32`, and anything else
/// (nonces) with a counter.
fn planting(key16: [u8; 16], key32: [u8; 32]) -> impl FnMut(&mut [u8]) {
    let mut counter = 0u8;
    move |dest: &mut [u8]| match dest.len() {
        16 => dest.copy_from_slice(&key16),
        32 => dest.copy_from_slice(&key32),
        _ => {
            counter = counter.wrapping_add(1);
            dest.fill(counter);
        }
    }
}

fn plant_key(key: &[u8]) {
    for half in key.chunks_exact(16) {
        freed::plant(half.try_into().unwrap());
    }
}

fn preamble(scope: Option<KeyScope>) -> Preamble {
    Preamble {
        kind: ObjectKind::Filenode,
        uuid: NexusUuid([1; 16]),
        parent: NexusUuid([2; 16]),
        version: 3,
        scope,
    }
}

#[test]
fn sealing_and_opening_metadata_leaves_no_key_in_freed_memory() {
    // The scan is live: a freed buffer holding a planted key is caught.
    freed::clear();
    plant_key(&OBJECT_KEY);
    drop(std::hint::black_box(OBJECT_KEY.to_vec()));
    assert_eq!(
        freed::leaks(),
        1,
        "the test allocator is not installed or not scanning"
    );
    freed::clear();

    let master = group_master_key(&ROOTKEY, &VOLUME);
    plant_key(&OBJECT_KEY);
    plant_key(&EPOCH_KEY);
    plant_key(&master);
    let body = b"a filenode body".repeat(20);

    // Rootkey-scoped: the raw-key wrappers, then a wrap cipher expanded
    // once as a mount holds it.
    let unscoped = preamble(None);
    let blob = seal_object(&ROOTKEY, &unscoped, &body, planting(OBJECT_KEY, EPOCH_KEY));
    assert_eq!(
        open_object(&ROOTKEY, &blob).unwrap(),
        (unscoped, body.clone())
    );
    let wrap = AesGcmSiv::new(&ROOTKEY);
    let blob = seal_object_with(&wrap, &unscoped, &body, planting(OBJECT_KEY, EPOCH_KEY));
    assert_eq!(
        open_object_with(&wrap, &blob).unwrap(),
        (unscoped, body.clone())
    );
    assert_eq!(
        freed::leaks(),
        0,
        "a rootkey-scoped seal or open freed a key unwiped"
    );

    // Group-scoped: the master key derived again, the epoch key minted
    // and unwrapped by the group record, the object sealed and opened
    // under it.
    let master = group_master_key(&ROOTKEY, &VOLUME);
    let group = GroupRecord::create(GROUP, "staff", &master, planting(OBJECT_KEY, EPOCH_KEY));
    let mut epoch_key = group.current_key(&master).unwrap();
    assert_eq!(epoch_key, EPOCH_KEY);
    let scoped = preamble(Some(KeyScope {
        group: GROUP,
        epoch: group.epoch,
    }));
    let blob = seal_object(&epoch_key, &scoped, &body, planting(OBJECT_KEY, EPOCH_KEY));
    nexus_crypto::ct::zeroize(&mut epoch_key);
    let opened = open_object_scoped(&blob, |scope| {
        let mut key = group.unwrap_epoch_key(&master, scope.expect("a scoped blob").epoch)?;
        let wrap = AesGcmSiv::new(&key);
        nexus_crypto::ct::zeroize(&mut key);
        Ok(Cow::Owned(wrap))
    });
    assert_eq!(opened.unwrap(), (scoped, body));
    assert_eq!(
        freed::leaks(),
        0,
        "a group-scoped seal or open freed a key unwiped"
    );
    freed::clear();
}
