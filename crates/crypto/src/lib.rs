//! # nexus-crypto
//!
//! From-scratch cryptographic primitives backing the NEXUS reproduction
//! (Djoko, Lange, Lee — DSN 2019):
//!
//! - [`aes`] — the AES block cipher (FIPS 197);
//! - [`gcm`] — AES-GCM AEAD (SP 800-38D), used for bulk metadata and file
//!   chunk encryption;
//! - [`gcm_siv`] — AES-GCM-SIV AEAD (RFC 8452), used to key-wrap per-metadata
//!   keys under the volume rootkey;
//! - [`sha2`] — SHA-256/512 (FIPS 180-4): enclave measurements, the bucket
//!   MACs a dirnode binds its buckets by, manifest digests, and the hash
//!   under HMAC/HKDF; SHA-256 runs on the SHA-NI kernel where
//!   [`cpu::sha_lane`] finds the extensions;
//! - [`hmac`] — HMAC and HKDF, used for SGX sealing-key derivation;
//! - [`x25519`] — ECDH for the rootkey exchange protocol;
//! - [`ed25519`] — signatures for user identities and quotes;
//! - [`rng`] — pluggable randomness sources;
//! - [`write_once`] — AEAD output buffers the kernels fill, allocated
//!   without a zero-fill first;
//! - [`ct`] — constant-time comparison.
//!
//! The paper's prototype links MbedTLS and Gueron et al.'s AES-GCM-SIV into
//! the enclave; this workspace has no such dependency available offline, so
//! the primitives are implemented directly from their specifications and
//! validated against the official test vectors (FIPS 197, the GCM spec
//! vectors, RFC 8452, RFC 4231, RFC 5869, RFC 7748, RFC 8032).
//!
//! ## Hardening note
//!
//! There is one lane decision, and the code makes it: [`aes::Aes::new`],
//! [`gcm::AesGcm::new`] and [`gcm_siv::AesGcmSiv::new`] expand every key
//! onto a constant-time engine that never indexes memory or branches on
//! key or message bytes, chosen by [`cpu::constant_time_backend`] from
//! what the CPU reports. On x86_64 CPUs advertising AES-NI and PCLMULQDQ
//! (and SSSE3/SSE4.1, which the fused GCM kernel `gcm_ni` also uses)
//! that is the hardware engine ([`aes_ni`], [`ghash_clmul`]) — dedicated
//! silicon, and the fastest; where CPUID also shows AVX-512 with VAES and
//! VPCLMULQDQ and `XCR0` shows the OS saving ZMM state, its long GCM bodies
//! run on a second, sixteen-blocks-per-step kernel (`gcm_vaes`,
//! [`cpu::describe`] says which is in use); everywhere else (or when
//! [`cpu::FORCE_PORTABLE_ENV`] is set, which lets x86 hosts exercise the
//! fallback) it is the bitsliced AES ([`aes_ct`]) with the masked
//! carryless multiply ([`ghash_ct`]). SHA-256 makes the same kind of
//! decision for itself ([`cpu::sha_lane`]: the SHA-NI kernel or the scalar
//! engine, both free of secret-dependent indexing and branches), from its
//! own CPUID bits and the same override.
//!
//! Those two engines are all the crate ships: no module outside the test
//! suites indexes a table by a secret-derived value, and
//! `tests/source_audit.rs` reads every one of them to hold that. The
//! `#[doc(hidden)]` `with_backend` constructors pin one of the two for the
//! differential suites and the `micro_ct` bench, and nothing else names
//! them. The table-driven reference both engines are checked against —
//! FIPS 197, SP 800-38D and RFC 8452 one block at a time, its lookups
//! traceable for the timing-leak harness's positive control — is
//! `nexus_testkit::spec`, outside the shipped crate. Tag comparisons are
//! branchless ([`ct::ct_eq`]), and key-holding types volatilely zeroize
//! their material on `Drop` ([`ct::zeroize`]) — including the hardware
//! engine's round-key and H-power state; a refused open wipes the
//! plaintext it decrypted before returning.
//!
//! ## Example
//!
//! ```
//! use nexus_crypto::gcm::AesGcm;
//! use nexus_crypto::rng::{OsRandom, SecureRandom};
//!
//! let mut rng = OsRandom::new();
//! let key: [u8; 32] = rng.bytes();
//! let nonce: [u8; 12] = rng.bytes();
//! let gcm = AesGcm::new_256(&key);
//! let sealed = gcm.seal(&nonce, b"context", b"file chunk bytes");
//! assert_eq!(gcm.open(&nonce, b"context", &sealed).unwrap(), b"file chunk bytes");
//! ```

pub mod aes;
pub(crate) mod aes_ct;
#[cfg(target_arch = "x86_64")]
pub(crate) mod aes_ni;
pub mod cpu;
pub mod ct;
pub mod ed25519;
pub mod field25519;
pub mod gcm;
#[cfg(target_arch = "x86_64")]
pub(crate) mod gcm_ni;
pub mod gcm_siv;
#[cfg(target_arch = "x86_64")]
pub(crate) mod gcm_vaes;
#[cfg(target_arch = "x86_64")]
pub(crate) mod ghash_clmul;
pub(crate) mod ghash_ct;
pub mod hmac;
pub mod rng;
pub mod sha2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod sha_ni;
pub mod write_once;
pub mod x25519;

/// The concrete engine a key was expanded for. Production constructors
/// resolve it through [`cpu::constant_time_backend`]; tests and the
/// `micro_ct` bench pin one through the `with_backend` constructors. Both
/// are constant-time and bit-for-bit compatible: ciphertexts and tags are
/// identical, so data sealed on one engine opens on the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoBackend {
    /// Portable bitsliced + masked-multiply engine.
    Bitsliced,
    /// AES-NI + PCLMULQDQ intrinsics engine (x86_64 with the CPUID bits).
    HwAccel,
}

/// Authenticated decryption failed: the ciphertext or its associated data
/// was modified, or the wrong key/nonce was used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("authenticated decryption failed")
    }
}

impl std::error::Error for AeadError {}

/// Signature verification or parsing failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureError;

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("invalid signature")
    }
}

impl std::error::Error for SignatureError {}

/// Hex helpers and the SHA lane pin shared by the test suites of every
/// module.
#[cfg(test)]
pub(crate) mod test_util {
    use std::cell::Cell;

    use crate::cpu::ShaLane;

    thread_local! {
        static PINNED_SHA_LANE: Cell<Option<ShaLane>> = const { Cell::new(None) };
    }

    /// The lane [`on_each_sha_lane`] pinned for this thread, if any.
    pub fn pinned_sha_lane() -> Option<ShaLane> {
        PINNED_SHA_LANE.get()
    }

    /// Whether the SHA-NI kernel can run on this CPU; says so when it cannot,
    /// so a test that returns early is a visible skip, not a silent pass.
    pub fn sha_ni_or_skip() -> bool {
        let available = crate::cpu::sha_ni_available();
        if !available {
            eprintln!("skipped on the SHA-NI lane: this CPU lacks sha, ssse3 or sse4.1");
        }
        available
    }

    /// Runs `body` with SHA-256 pinned to the portable engine, then to the
    /// SHA-NI kernel — whatever dispatch would pick, so vectors cover both
    /// on one host. The pin is per thread: tests run side by side.
    pub fn on_each_sha_lane(mut body: impl FnMut(ShaLane)) {
        for lane in [ShaLane::Portable, ShaLane::ShaNi] {
            if lane == ShaLane::ShaNi && !sha_ni_or_skip() {
                continue;
            }
            PINNED_SHA_LANE.set(Some(lane));
            body(lane);
            PINNED_SHA_LANE.set(None);
        }
    }

    /// CTR + GHASH straight from SP 800-38D, one block at a time: keystream
    /// from `encrypt_block` on [`crate::gcm::inc32`] counters, GHASH as the
    /// plain Horner recurrence on the portable multiply. The reference both
    /// fused kernels' unit tests compare with; `ctr` is advanced in place
    /// and `(ciphertext, accumulator)` returned.
    #[cfg(target_arch = "x86_64")]
    pub fn ctr_ghash_block_at_a_time(
        aes: &crate::aes_ni::AesNi,
        h: u128,
        ctr: &mut [u8; 16],
        mut acc: u128,
        plain: &[u8],
    ) -> (Vec<u8>, u128) {
        let mut ct = plain.to_vec();
        for block in ct.chunks_exact_mut(16) {
            crate::gcm::inc32(ctr);
            let mut ks = *ctr;
            aes.encrypt_block(&mut ks);
            for (b, k) in block.iter_mut().zip(ks) {
                *b ^= k;
            }
            let x = u128::from_be_bytes((&*block).try_into().unwrap());
            acc = crate::ghash_ct::ghash_mul_ct(acc ^ x, h);
        }
        (ct, acc)
    }

    /// Encodes bytes as lowercase hex.
    pub fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Decodes a hex string, ignoring ASCII whitespace.
    ///
    /// # Panics
    ///
    /// Panics on non-hex input (tests only).
    pub fn unhex(s: &str) -> Vec<u8> {
        let cleaned: String = s.chars().filter(|c| !c.is_ascii_whitespace()).collect();
        assert!(cleaned.len().is_multiple_of(2), "odd hex length");
        (0..cleaned.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&cleaned[i..i + 2], 16).expect("hex"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert_eq!(AeadError.to_string(), "authenticated decryption failed");
        assert_eq!(SignatureError.to_string(), "invalid signature");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AeadError>();
        assert_send_sync::<SignatureError>();
    }
}
