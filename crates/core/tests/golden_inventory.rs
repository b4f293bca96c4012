//! Golden inventory: every byte a fixed operation script leaves on the
//! store, pinned as one digest.
//!
//! Platform randomness, user keys and the script are all seeded, so the
//! sealed blobs are a pure function of the code. Any change to a seal site
//! (key wrap, body seal, chunk seal, preamble layout, RNG draw order)
//! changes the digest; a refactor that must not orphan stored volumes
//! keeps it.
//!
//! The script runs twice. Spelled with every first write as `create_file`
//! then `write_file`, it stores what a create that committed an empty file
//! and then its contents stored, so [`TWO_STEP`] has not moved since that
//! create was two commits: every object an empty create, a `mkdir` or an
//! overwrite stores is byte for byte what it was. Spelled with one
//! `write_file` per first write, it pins today's one-commit create.

use std::sync::Arc;

use nexus_core::{NexusConfig, NexusVolume, Rights, UserKeys};
use nexus_crypto::sha2::Sha256;
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{MemBackend, StorageBackend};

/// Computed at commit 8878dd2 for the script whose first writes are
/// `create_file` + `write_file`; identical under
/// `NEXUS_CRYPTO_FORCE_PORTABLE=1`.
const TWO_STEP: &str = "0232e371dd056951806110dd48715f2b4e612bd13c93f9a6606e2ed0923e5db5";

/// The same script with each first write a single `write_file`: the new
/// file's filenode is written once, at version 1, holding its contents.
/// Identical under `NEXUS_CRYPTO_FORCE_PORTABLE=1`.
const GOLDEN: &str = "590ef17c801a900d0c11cd1cdb115b7be30b38e9dfa41f5a5ce19c2f40aeedda";

/// Runs the fixed script on a fresh store and returns (its digest, the
/// number of objects on the store).
fn inventory(create_first: bool) -> (String, usize) {
    let platform = Platform::seeded(0x601d);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let backend = Arc::new(MemBackend::new());
    let owner = UserKeys::from_seed("owen", &[1u8; 32]);
    // Small chunks keep the three-chunk write cheap on the portable engine.
    let config = NexusConfig { chunk_size: 4096, ..NexusConfig::default() };
    let (volume, _) =
        NexusVolume::create(&platform, backend.clone(), &ias, &owner, config).unwrap();
    volume.authenticate(&owner).unwrap();

    let pattern = |len: usize, mul: usize| -> Vec<u8> { (0..len).map(|i| (i * mul) as u8).collect() };
    let first_write = |path: &str, data: &[u8]| {
        if create_first {
            volume.create_file(path).unwrap();
        }
        volume.write_file(path, data).unwrap();
    };
    volume.mkdir("docs").unwrap();
    volume.mkdir("team").unwrap();
    first_write("docs/big.bin", &pattern(10_000, 7));
    first_write("docs/small.txt", &pattern(100, 3));
    volume.write_file("docs/small.txt", &pattern(300, 5)).unwrap();
    volume.rename("docs/big.bin", "team/big.bin").unwrap();

    for (name, seed) in [("alice", 2u8), ("bob", 3u8)] {
        volume.add_user(name, UserKeys::from_seed(name, &[seed; 32]).public_key()).unwrap();
    }
    volume.set_acl("docs", "alice", Rights::READ).unwrap();
    volume.create_group("eng").unwrap();
    volume.add_group_members("eng", &["alice", "bob"]).unwrap();
    volume.set_group_acl("team", "eng", Rights::RW).unwrap();
    first_write("team/scoped.txt", &pattern(5000, 11));
    volume.remove_group_members("eng", &["bob"]).unwrap();
    volume.write_file("team/scoped.txt", &pattern(6000, 13)).unwrap();

    assert_eq!(volume.read_file("team/big.bin").unwrap(), pattern(10_000, 7));
    assert_eq!(volume.read_file("team/scoped.txt").unwrap(), pattern(6000, 13));

    let mut names = backend.list("");
    names.sort();
    let mut inventory = Sha256::new();
    for name in &names {
        let bytes = backend.get(name).unwrap();
        inventory.update(&(name.len() as u64).to_be_bytes());
        inventory.update(name.as_bytes());
        inventory.update(&(bytes.len() as u64).to_be_bytes());
        inventory.update(&bytes);
    }
    let digest = inventory.finalize().iter().map(|b| format!("{b:02x}")).collect();
    (digest, names.len())
}

#[test]
fn fixed_script_leaves_golden_bytes_on_the_store() {
    let (digest, objects) = inventory(false);
    assert_eq!(digest, GOLDEN, "{objects} objects on the store");
}

#[test]
fn create_then_write_leaves_the_bytes_of_a_two_commit_create() {
    let (digest, objects) = inventory(true);
    assert_eq!(digest, TWO_STEP, "{objects} objects on the store");
}
