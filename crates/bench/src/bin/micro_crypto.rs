//! Micro-benchmarks for the cryptographic substrate: the primitives on
//! NEXUS's hot paths (chunk encryption, metadata sealing, keywrap,
//! identity operations). Successor to the former criterion bench; runs on
//! the in-repo timing harness (hermetic build policy).

use nexus_bench::{micro, rule};
use nexus_crypto::ed25519::SigningKey;
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_crypto::sha2::Sha256;
use nexus_crypto::x25519;

fn main() {
    rule(78);
    println!("micro_crypto — cryptographic substrate");
    println!("pure compute, no simulated I/O; median of 5 batched samples after calibration");
    println!("crypto lanes: {}", nexus_crypto::cpu::describe());
    rule(78);

    let gcm = AesGcm::new_128(&[7u8; 16]);
    for size in [1024usize, 64 * 1024, 1024 * 1024] {
        let data = vec![0xabu8; size];
        micro(&format!("aes-gcm seal {size}B"), Some(size as u64), || {
            gcm.seal(&[1u8; 12], b"aad", &data)
        });
        let sealed = gcm.seal(&[1u8; 12], b"aad", &data);
        micro(&format!("aes-gcm open {size}B"), Some(size as u64), || {
            gcm.open(&[1u8; 12], b"aad", &sealed).unwrap()
        });
    }

    let siv = AesGcmSiv::new_256(&[3u8; 32]);
    micro("gcm-siv keywrap 16B", None, || siv.seal(&[0u8; 12], b"preamble", &[0x42u8; 16]));

    // 3400 B is a full 128-entry bucket blob: what a bucket MAC hashes.
    for size in [64usize, 3400, 4096, 1024 * 1024] {
        let data = vec![0x17u8; size];
        micro(&format!("sha256 {size}B"), Some(size as u64), || Sha256::digest(&data));
    }

    let key = SigningKey::from_seed(&[9u8; 32]);
    let msg = vec![0u8; 256];
    let sig = key.sign(&msg);
    let pk = key.verifying_key();
    micro("ed25519 sign 256B", None, || key.sign(&msg));
    micro("ed25519 verify 256B", None, || pk.verify(&msg, &sig).unwrap());

    let secret = [0x42u8; 32];
    let peer = x25519::x25519_public_key(&[0x24u8; 32]);
    micro("x25519 shared secret", None, || x25519::x25519(&secret, &peer));

    rule(78);
}
