//! Sharing: Owen grants Alice access to his volume across machines using
//! the full Fig. 4 protocol — quote-attested ECDH rootkey exchange, in-band
//! over the untrusted storage service, with neither party online at the
//! same time.
//!
//! ```text
//! cargo run --example sharing
//! ```

use std::sync::Arc;

use nexus::storage::afs::{AfsClient, AfsServer};
use nexus::storage::{LatencyModel, SimClock};
use nexus::{
    AttestationService, NexusConfig, NexusVolume, Platform, Rights, UserKeys, VolumeJoiner,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ias = AttestationService::new();
    let server = AfsServer::new();
    let clock = SimClock::new();

    // Two different SGX machines: sealed data cannot move between them,
    // which is exactly why the exchange protocol exists.
    let owen_machine = Platform::new();
    let alice_machine = Platform::new();
    ias.register_platform(&owen_machine);
    ias.register_platform(&alice_machine);

    let owen = UserKeys::from_seed("owen", &[1u8; 32]);
    let alice = UserKeys::from_seed("alice", &[2u8; 32]);

    // --- Owen: create the volume and some content.
    let owen_afs = Arc::new(AfsClient::connect(&server, clock.clone(), LatencyModel::default()));
    let (owen_volume, _owen_sealed) =
        NexusVolume::create(&owen_machine, owen_afs, &ias, &owen, NexusConfig::default())?;
    owen_volume.authenticate(&owen)?;
    owen_volume.mkdir("shared")?;
    owen_volume.write_file("shared/plan.txt", b"phase 1: collect underpants")?;
    println!("[owen]  volume {} created with shared/plan.txt", owen_volume.volume_id());

    // --- Alice, setup phase: her enclave draws a key for this offer,
    // publishes its quoted public half, and hands back the secret half
    // sealed to her machine, for her to keep on local disk.
    let alice_afs = Arc::new(AfsClient::connect(&server, clock.clone(), LatencyModel::default()));
    let joiner = VolumeJoiner::new(&alice_machine, alice_afs.clone(), &ias);
    let sealed_offer = joiner.publish_offer(&alice)?;
    println!("[alice] exchange offer published in-band (signed quote over a fresh X25519 key)");

    // --- Owen, exchange phase: verify Alice's quote with the attestation
    // service, add her to the supernode, store the wrapped rootkey with
    // his own enclave's quote over his ephemeral key.
    owen_volume.grant_access(&owen, "alice", &alice.public_key())?;
    owen_volume.set_acl("shared", "alice", Rights::RW)?;
    println!("[owen]  quote verified; rootkey wrapped to alice's enclave; ACL granted on shared/");

    // --- Alice, extraction phase: check Owen's quote, open the grant with
    // the sealed offer (consumed here), recover the rootkey (sealed to HER
    // machine now), mount, authenticate, and read.
    let sealed_for_alice = joiner.accept_grant(&alice, &owen.public_key(), sealed_offer)?;
    let alice_volume = NexusVolume::mount(
        &alice_machine,
        alice_afs,
        &ias,
        &sealed_for_alice,
        NexusConfig::default(),
    )?;
    alice_volume.authenticate(&alice)?;
    let plan = alice_volume.read_file("shared/plan.txt")?;
    println!("[alice] read shared/plan.txt = {:?}", String::from_utf8_lossy(&plan));

    alice_volume.write_file("shared/plan.txt", b"phase 2: ???")?;
    println!("[alice] updated the plan");

    let plan = owen_volume.read_file("shared/plan.txt")?;
    println!("[owen]  sees {:?}", String::from_utf8_lossy(&plan));

    // --- But authorization is per-directory: Alice cannot touch the rest.
    owen_volume.mkdir("private")?;
    owen_volume.write_file("private/diary.txt", b"dear diary")?;
    match alice_volume.read_file("private/diary.txt") {
        Err(e) => println!("[alice] private/diary.txt denied as expected: {e}"),
        Ok(_) => unreachable!("ACL must deny"),
    }

    // --- Eve has no quote-attested enclave offer: a fake 'enclave' cannot
    // join, even with a user record.
    let eve = UserKeys::from_seed("eve", &[66u8; 32]);
    match owen_volume.grant_access(&owen, "eve", &eve.public_key()) {
        Err(e) => println!("[system] grant to eve without an offer fails: {e}"),
        Ok(()) => unreachable!(),
    }
    Ok(())
}
