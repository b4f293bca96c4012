//! No secret the rootkey exchange handles is left in freed memory.
//!
//! This binary runs on `nexus_testkit::freed`'s allocator, which scans
//! every block before it is freed for the byte patterns the test planted.
//! Both machines draw from an RNG that answers every 32-byte request with
//! one known key, so the volume's rootkey, the offer's X25519 secret and
//! the owner's ephemeral secret are all that key. The test plants it, the
//! X25519 shared secret the two ends then agree on, and the wrapping key
//! derived from that, and drives create → offer → grant → accept → mount:
//! every block freed on the way must hold none of them. One test only:
//! the patterns and the leak count are process-wide.

use std::sync::Arc;

use nexus_core::{NexusConfig, NexusVolume, UserKeys, VolumeJoiner};
use nexus_crypto::rng::SecureRandom;
use nexus_crypto::{hmac, x25519};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::MemBackend;
use nexus_testkit::freed::{self, FreedKeyCheck};

#[global_allocator]
static ALLOC: FreedKeyCheck = FreedKeyCheck;

const KEY: [u8; 32] = *b"planted rootkey and x25519 keys!";

/// A platform RNG answering every 32-byte request (a rootkey, an X25519
/// secret) with [`KEY`] and anything else (ids, nonces, object keys) with
/// a counter, started apart per machine so platform ids differ.
struct Planting(u8);

impl SecureRandom for Planting {
    fn fill(&mut self, dest: &mut [u8]) {
        if dest.len() == 32 {
            dest.copy_from_slice(&KEY);
        } else {
            self.0 = self.0.wrapping_add(1);
            dest.fill(self.0);
        }
    }
}

fn plant_key(key: &[u8; 32]) {
    for half in key.chunks_exact(16) {
        freed::plant(half.try_into().unwrap());
    }
}

#[test]
fn an_exchange_leaves_no_secret_in_freed_memory() {
    // The scan is live: a freed buffer holding a planted key is caught.
    freed::clear();
    plant_key(&KEY);
    drop(std::hint::black_box(KEY.to_vec()));
    assert_eq!(freed::leaks(), 1, "the test allocator is not installed or not scanning");
    freed::clear();

    // Both ends hold `KEY` as their X25519 secret, so both agree on
    // `x25519(KEY, public(KEY))`; the wrapping key is HKDF over it with
    // the owner's public key, then the recipient's, as `info`.
    let public = x25519::x25519_public_key(&KEY);
    let shared = x25519::x25519(&KEY, &public);
    let mut info = [0u8; 64];
    info[..32].copy_from_slice(&public);
    info[32..].copy_from_slice(&public);
    let mut wrap_key = [0u8; 32];
    hmac::hkdf_into(b"nexus-exchange-v1", &shared, &info, &mut wrap_key);
    plant_key(&KEY);
    plant_key(&shared);
    plant_key(&wrap_key);

    let ias = AttestationService::new();
    let owner_machine = Platform::with_rng(Box::new(Planting(0)));
    let alice_machine = Platform::with_rng(Box::new(Planting(100)));
    ias.register_platform(&owner_machine);
    ias.register_platform(&alice_machine);
    let backend = Arc::new(MemBackend::new());
    let owner = UserKeys::from_seed("owen", &[1; 32]);
    let alice = UserKeys::from_seed("alice", &[2; 32]);

    let (volume, _) =
        NexusVolume::create(&owner_machine, backend.clone(), &ias, &owner, NexusConfig::default())
            .unwrap();
    volume.authenticate(&owner).unwrap();
    volume.write_file("memo.txt", b"for alice").unwrap();
    let joiner = VolumeJoiner::new(&alice_machine, backend.clone(), &ias);
    let offer = joiner.publish_offer(&alice).unwrap();
    volume.grant_access(&owner, "alice", &alice.public_key()).unwrap();
    let sealed = joiner.accept_grant(&alice, &owner.public_key(), offer).unwrap();
    assert_eq!(freed::leaks(), 0, "the exchange freed a secret unwiped");

    // The rootkey arrived: alice mounts the volume with it.
    let alice_volume =
        NexusVolume::mount(&alice_machine, backend, &ias, &sealed, NexusConfig::default())
            .unwrap();
    alice_volume.authenticate(&alice).unwrap();
    drop((alice_volume, volume, joiner));
    assert_eq!(freed::leaks(), 0, "mounting or unmounting freed the rootkey unwiped");
    freed::clear();
}
