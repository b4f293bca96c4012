//! Sealed storage (SGX `EGETKEY` + AES-GCM sealing).
//!
//! Sealing keys are derived from the platform's fused hardware key and —
//! depending on policy — the enclave's measurement, via HKDF. A blob sealed
//! on one platform therefore cannot be unsealed on another, and (under
//! [`SealPolicy::MrEnclave`]) not by any other enclave either. NEXUS seals
//! the volume rootkey this way between runs (paper §IV).

use nexus_crypto::ct::{ct_eq, zeroize};
use nexus_crypto::gcm::AesGcm;
use nexus_crypto::hmac::hkdf_into;

use crate::enclave::Measurement;
use crate::platform::{Platform, PlatformId};

/// Which identity the sealing key binds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SealPolicy {
    /// Key bound to the exact enclave measurement (MRENCLAVE): only the very
    /// same enclave code can unseal. NEXUS uses this for rootkeys.
    MrEnclave,
    /// Key bound only to the platform (a stand-in for MRSIGNER policies):
    /// any enclave on the same machine can unseal.
    Platform,
}

/// Why unsealing failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Sealed on a different platform (the derived key cannot match).
    WrongPlatform,
    /// Sealed by a different enclave identity under MRENCLAVE policy.
    WrongEnclave,
    /// Ciphertext, AAD, or header failed authentication.
    Corrupted,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::WrongPlatform => f.write_str("sealed data bound to a different platform"),
            SealError::WrongEnclave => f.write_str("sealed data bound to a different enclave"),
            SealError::Corrupted => f.write_str("sealed data failed authentication"),
        }
    }
}

impl std::error::Error for SealError {}

/// An encrypted, integrity-protected blob bound to a platform and (under
/// MRENCLAVE policy) an enclave identity.
///
/// The structure is self-describing: the header travels with the ciphertext
/// (as SGX's `sgx_sealed_data_t` does) and is authenticated as AAD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedData {
    /// Policy the key was derived under.
    pub policy: SealPolicy,
    /// Platform that sealed the blob (public metadata).
    pub platform_id: PlatformId,
    /// Measurement of the sealing enclave (public metadata).
    pub measurement: Measurement,
    /// AES-GCM nonce.
    pub nonce: [u8; 12],
    /// Ciphertext followed by the 16-byte tag.
    pub ciphertext: Vec<u8>,
}

impl SealedData {
    /// Derives the sealing key for (`platform`, `measurement`, `policy`).
    fn sealing_key(platform: &Platform, measurement: Measurement, policy: SealPolicy) -> [u8; 32] {
        let info: &[u8] = match policy {
            SealPolicy::MrEnclave => &measurement.0,
            SealPolicy::Platform => b"platform-policy",
        };
        let mut key = [0u8; 32];
        hkdf_into(b"sgx-seal-v1", &platform.inner.hardware_key, info, &mut key);
        key
    }

    pub(crate) fn seal(
        platform: &Platform,
        measurement: Measurement,
        policy: SealPolicy,
        nonce: &[u8; 12],
        plaintext: &[u8],
        aad: &[u8],
    ) -> SealedData {
        let mut key = Self::sealing_key(platform, measurement, policy);
        let gcm = AesGcm::new_256(&key);
        zeroize(&mut key);
        let header_aad = Self::aad(policy, platform.id(), measurement, aad);
        let ciphertext = gcm.seal(nonce, &header_aad, plaintext);
        SealedData {
            policy,
            platform_id: platform.id(),
            measurement,
            nonce: *nonce,
            ciphertext,
        }
    }

    pub(crate) fn unseal(
        &self,
        platform: &Platform,
        measurement: Measurement,
        aad: &[u8],
    ) -> Result<Vec<u8>, SealError> {
        // Identity comparisons run branchless byte-wise: the unsealing
        // enclave's timing must not reveal how much of the expected
        // platform id or measurement a probe matched.
        if !ct_eq(&self.platform_id.0, &platform.id().0) {
            return Err(SealError::WrongPlatform);
        }
        if self.policy == SealPolicy::MrEnclave && !ct_eq(&self.measurement.0, &measurement.0) {
            return Err(SealError::WrongEnclave);
        }
        // Key derivation uses the *current* enclave's identity, so even a
        // forged header cannot trick a different enclave into deriving the
        // original key.
        let mut key = Self::sealing_key(platform, measurement, self.policy);
        let gcm = AesGcm::new_256(&key);
        zeroize(&mut key);
        let header_aad = Self::aad(self.policy, self.platform_id, self.measurement, aad);
        gcm.open(&self.nonce, &header_aad, &self.ciphertext)
            .map_err(|_| SealError::Corrupted)
    }

    fn aad(
        policy: SealPolicy,
        platform_id: PlatformId,
        measurement: Measurement,
        user_aad: &[u8],
    ) -> Vec<u8> {
        let mut aad = Vec::with_capacity(1 + 16 + 32 + user_aad.len());
        aad.push(match policy {
            SealPolicy::MrEnclave => 0u8,
            SealPolicy::Platform => 1u8,
        });
        aad.extend_from_slice(&platform_id.0);
        aad.extend_from_slice(&measurement.0);
        aad.extend_from_slice(user_aad);
        aad
    }

    /// Serializes to a flat byte buffer (for storage on the local disk).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 16 + 32 + 12 + 4 + self.ciphertext.len());
        out.push(match self.policy {
            SealPolicy::MrEnclave => 0u8,
            SealPolicy::Platform => 1u8,
        });
        out.extend_from_slice(&self.platform_id.0);
        out.extend_from_slice(&self.measurement.0);
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&(self.ciphertext.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses a buffer produced by [`SealedData::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SealError::Corrupted`] on any framing problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<SealedData, SealError> {
        if bytes.len() < 1 + 16 + 32 + 12 + 4 {
            return Err(SealError::Corrupted);
        }
        let policy = match bytes[0] {
            0 => SealPolicy::MrEnclave,
            1 => SealPolicy::Platform,
            _ => return Err(SealError::Corrupted),
        };
        let mut off = 1;
        let mut platform_id = [0u8; 16];
        platform_id.copy_from_slice(&bytes[off..off + 16]);
        off += 16;
        let mut measurement = [0u8; 32];
        measurement.copy_from_slice(&bytes[off..off + 32]);
        off += 32;
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&bytes[off..off + 12]);
        off += 12;
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        if bytes.len() != off + len {
            return Err(SealError::Corrupted);
        }
        Ok(SealedData {
            policy,
            platform_id: PlatformId(platform_id),
            measurement: Measurement(measurement),
            nonce,
            ciphertext: bytes[off..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::{Enclave, EnclaveImage};

    fn enclave_on(platform: &Platform, code: &[u8]) -> Enclave<()> {
        Enclave::create(platform, &EnclaveImage::new(code.to_vec()), ())
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let platform = Platform::seeded(1);
        let e = enclave_on(&platform, b"nexus");
        let sealed = e.ecall(|_, env| env.seal(SealPolicy::MrEnclave, b"rootkey", b"ctx"));
        let opened = e.ecall(|_, env| env.unseal(&sealed, b"ctx")).unwrap();
        assert_eq!(opened, b"rootkey");
    }

    #[test]
    fn unseal_on_other_platform_fails() {
        let p1 = Platform::seeded(1);
        let p2 = Platform::seeded(2);
        let e1 = enclave_on(&p1, b"nexus");
        let e2 = enclave_on(&p2, b"nexus");
        let sealed = e1.ecall(|_, env| env.seal(SealPolicy::MrEnclave, b"rootkey", b""));
        let err = e2.ecall(|_, env| env.unseal(&sealed, b"")).unwrap_err();
        assert_eq!(err, SealError::WrongPlatform);
    }

    #[test]
    fn unseal_by_other_enclave_fails_under_mrenclave() {
        let platform = Platform::seeded(1);
        let e1 = enclave_on(&platform, b"nexus");
        let e2 = enclave_on(&platform, b"evil");
        let sealed = e1.ecall(|_, env| env.seal(SealPolicy::MrEnclave, b"rootkey", b""));
        let err = e2.ecall(|_, env| env.unseal(&sealed, b"")).unwrap_err();
        assert_eq!(err, SealError::WrongEnclave);
    }

    #[test]
    fn forged_measurement_header_still_fails() {
        // An attacker rewrites the header to claim the victim enclave's
        // measurement: key derivation must still use the caller's identity.
        let platform = Platform::seeded(1);
        let victim = enclave_on(&platform, b"nexus");
        let evil = enclave_on(&platform, b"evil");
        let mut sealed = victim.ecall(|_, env| env.seal(SealPolicy::MrEnclave, b"rootkey", b""));
        sealed.measurement = evil.measurement();
        let err = evil.ecall(|_, env| env.unseal(&sealed, b"")).unwrap_err();
        assert_eq!(err, SealError::Corrupted);
    }

    #[test]
    fn platform_policy_shares_across_enclaves() {
        let platform = Platform::seeded(1);
        let e1 = enclave_on(&platform, b"one");
        let e2 = enclave_on(&platform, b"two");
        let sealed = e1.ecall(|_, env| env.seal(SealPolicy::Platform, b"shared", b""));
        let opened = e2.ecall(|_, env| env.unseal(&sealed, b"")).unwrap();
        assert_eq!(opened, b"shared");
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let platform = Platform::seeded(1);
        let e = enclave_on(&platform, b"nexus");
        let mut sealed = e.ecall(|_, env| env.seal(SealPolicy::MrEnclave, b"rootkey", b""));
        sealed.ciphertext[0] ^= 1;
        let err = e.ecall(|_, env| env.unseal(&sealed, b"")).unwrap_err();
        assert_eq!(err, SealError::Corrupted);
    }

    #[test]
    fn wrong_aad_fails() {
        let platform = Platform::seeded(1);
        let e = enclave_on(&platform, b"nexus");
        let sealed = e.ecall(|_, env| env.seal(SealPolicy::MrEnclave, b"rootkey", b"good"));
        let err = e.ecall(|_, env| env.unseal(&sealed, b"bad")).unwrap_err();
        assert_eq!(err, SealError::Corrupted);
    }

    #[test]
    fn bytes_roundtrip() {
        let platform = Platform::seeded(1);
        let e = enclave_on(&platform, b"nexus");
        let sealed = e.ecall(|_, env| env.seal(SealPolicy::MrEnclave, b"rootkey", b""));
        let parsed = SealedData::from_bytes(&sealed.to_bytes()).unwrap();
        assert_eq!(parsed, sealed);
        let opened = e.ecall(|_, env| env.unseal(&parsed, b"")).unwrap();
        assert_eq!(opened, b"rootkey");
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(SealedData::from_bytes(&[]).is_err());
        assert!(SealedData::from_bytes(&[9u8; 40]).is_err());
        let platform = Platform::seeded(1);
        let e = enclave_on(&platform, b"nexus");
        let mut bytes = e
            .ecall(|_, env| env.seal(SealPolicy::MrEnclave, b"rootkey", b""))
            .to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(SealedData::from_bytes(&bytes).is_err());
    }
}
