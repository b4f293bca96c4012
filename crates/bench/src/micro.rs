//! Micro-benchmarks of the substrate, on the in-repo timing harness
//! (hermetic build policy: no criterion).

use nexus_core::metadata::crypto::{open_object, seal_object, ObjectKind, Preamble};
use nexus_core::NexusUuid;
use nexus_crypto::ed25519::SigningKey;
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::gcm_siv::AesGcmSiv;
use nexus_crypto::sha2::Sha256;
use nexus_crypto::x25519;
use nexus_sgx::{AttestationService, Enclave, EnclaveImage, Platform, SealPolicy};

use crate::{micro, rule};

/// The primitives on NEXUS's hot paths: chunk encryption, metadata
/// sealing, keywrap, identity operations.
pub(crate) fn crypto() {
    println!("pure compute, no simulated I/O; median of 5 batched samples after calibration");

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

/// The per-operation fixed costs behind the paper's "enclave runtime"
/// column: ecall transition, sealing, quoting, and the three-section
/// metadata format.
pub(crate) fn enclave() {
    println!("pure compute, no simulated I/O; median of 5 batched samples after calibration");

    let platform = Platform::seeded(1);
    let enclave = Enclave::create(&platform, &EnclaveImage::new(b"bench".to_vec()), 0u64);
    micro("ecall transition (empty)", None, || enclave.ecall(|state, _| *state));

    let enclave = Enclave::create(&platform, &EnclaveImage::new(b"bench".to_vec()), ());
    micro("sgx seal 48B (rootkey)", None, || {
        enclave.ecall(|_, env| env.seal(SealPolicy::MrEnclave, &[0u8; 48], b"aad"))
    });
    let sealed = enclave.ecall(|_, env| env.seal(SealPolicy::MrEnclave, &[0u8; 48], b"aad"));
    micro("sgx unseal 48B", None, || {
        enclave.ecall(|_, env| env.unseal(&sealed, b"aad").unwrap())
    });

    let ias = AttestationService::new();
    ias.register_platform(&platform);
    micro("quote generation", None, || enclave.ecall(|_, env| env.quote(&[5u8; 64])));
    let quote = enclave.ecall(|_, env| env.quote(&[5u8; 64]));
    micro("quote verification", None, || ias.verify(&quote).unwrap());

    let rootkey = [0x11u8; 32];
    let preamble = Preamble {
        kind: ObjectKind::Dirnode,
        uuid: NexusUuid([1; 16]),
        parent: NexusUuid([2; 16]),
        version: 7,
        scope: None,
    };
    // A dirnode-main-sized body (128-entry bucket ≈ 5 KB).
    let body = vec![0x3cu8; 5 * 1024];
    let mut counter = 0u8;
    micro("metadata seal 5KB", Some(body.len() as u64), || {
        counter = counter.wrapping_add(1);
        seal_object(&rootkey, &preamble, &body, |dest| dest.fill(counter))
    });
    let blob = seal_object(&rootkey, &preamble, &body, |dest| dest.fill(9));
    micro("metadata open 5KB", Some(body.len() as u64), || open_object(&rootkey, &blob).unwrap());

    rule(78);
}
