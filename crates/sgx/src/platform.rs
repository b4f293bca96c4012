//! Simulated SGX-capable platforms.
//!
//! A [`Platform`] models one physical CPU package: it owns the fused
//! hardware key that sealing keys are derived from, and the provisioned
//! attestation key that the (simulated) quoting enclave signs quotes with.
//! Creating two [`Platform`]s models two different machines — data sealed on
//! one cannot be unsealed on the other, exactly the property NEXUS's rootkey
//! distribution protocol must work around (paper §IV-B1).

use std::sync::Arc;

use nexus_crypto::ed25519::SigningKey;
use nexus_crypto::rng::{OsRandom, SecureRandom, SeededRandom};
use nexus_sync::Mutex;

/// Identifier of a simulated CPU package.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlatformId(pub [u8; 16]);

impl std::fmt::Display for PlatformId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

pub(crate) struct PlatformInner {
    pub(crate) id: PlatformId,
    /// Fused per-CPU root key; never readable outside this crate, mirroring
    /// the SGX hardware key that only key-derivation instructions can use.
    pub(crate) hardware_key: [u8; 32],
    /// Key the quoting enclave signs with (provisioned by "Intel").
    pub(crate) attestation_key: SigningKey,
    pub(crate) rng: Mutex<Box<dyn SecureRandom>>,
}

/// A simulated SGX-capable machine.
///
/// Cheap to clone; clones refer to the same simulated hardware.
///
/// # Examples
///
/// ```
/// use nexus_sgx::Platform;
///
/// let machine_a = Platform::new();
/// let machine_b = Platform::new();
/// assert_ne!(machine_a.id(), machine_b.id());
/// ```
#[derive(Clone)]
pub struct Platform {
    pub(crate) inner: Arc<PlatformInner>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform").field("id", &self.inner.id).finish()
    }
}

impl Platform {
    /// Creates a platform whose hardware RNG is the operating system's.
    ///
    /// # Panics
    ///
    /// When `/dev/urandom` cannot be opened ([`OsRandom::new`]).
    pub fn new() -> Platform {
        Platform::with_rng(Box::new(OsRandom::new()))
    }

    /// Creates a deterministic platform for tests and reproducible
    /// simulations.
    ///
    /// The hardware RNG *replays the same stream* for the same seed, so two
    /// `seeded` platforms with one seed are indistinguishable — including
    /// every "random" value their enclaves will ever draw. Never use this
    /// to model one machine across process restarts (fresh randomness would
    /// collide with previously generated values); use
    /// [`Platform::from_identity_seed`] for that.
    pub fn seeded(seed: u64) -> Platform {
        Platform::with_rng(Box::new(SeededRandom::new(seed)))
    }

    /// A deterministic *process* on a seeded machine: every stream of one
    /// `identity_seed` shares the platform id, hardware sealing key, and
    /// attestation key (sealed blobs interchange freely), but each
    /// `stream` replays its own independent RNG stream — the semantics of
    /// N enclave-hosting processes on one machine, where RDRAND gives each
    /// process fresh randomness but the fused keys are common silicon.
    ///
    /// This is what massive multi-client simulations need: with plain
    /// [`Platform::seeded`], N clients sharing one platform interleave
    /// draws from a single stream (schedule-dependent), while N same-seed
    /// replicas draw *identical* "fresh" UUIDs and collide on the store.
    /// Streams make every client's draw sequence a pure function of
    /// `(identity_seed, stream)` under any scheduling.
    pub fn seeded_stream(identity_seed: u64, stream: u64) -> Platform {
        let mut identity = SeededRandom::new(identity_seed);
        let mut id = [0u8; 16];
        identity.fill(&mut id);
        let mut hardware_key = [0u8; 32];
        identity.fill(&mut hardware_key);
        let mut att_seed = [0u8; 32];
        identity.fill(&mut att_seed);
        // Spread the stream index so adjacent streams land far apart in
        // seed space (and stream 0 is distinct from the identity stream).
        let rng_seed =
            identity_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1));
        Platform {
            inner: Arc::new(PlatformInner {
                id: PlatformId(id),
                hardware_key,
                attestation_key: SigningKey::from_seed(&att_seed),
                rng: Mutex::new(Box::new(SeededRandom::new(rng_seed))),
            }),
        }
    }

    /// Recreates the *same machine* (stable platform id, hardware key, and
    /// attestation key) while drawing all future randomness fresh from the
    /// OS — the semantics of real hardware across reboots. Use this to
    /// persist a simulated machine across process restarts.
    pub fn from_identity_seed(seed: &[u8; 32]) -> Platform {
        let okm = nexus_crypto::hmac::hkdf(b"sgx-platform-identity-v1", seed, b"", 80);
        let mut id = [0u8; 16];
        id.copy_from_slice(&okm[..16]);
        let mut hardware_key = [0u8; 32];
        hardware_key.copy_from_slice(&okm[16..48]);
        let mut att_seed = [0u8; 32];
        att_seed.copy_from_slice(&okm[48..80]);
        Platform {
            inner: Arc::new(PlatformInner {
                id: PlatformId(id),
                hardware_key,
                attestation_key: SigningKey::from_seed(&att_seed),
                rng: Mutex::new(Box::new(OsRandom::new())),
            }),
        }
    }

    /// Creates a platform drawing all hardware secrets from `rng`.
    pub fn with_rng(mut rng: Box<dyn SecureRandom>) -> Platform {
        let mut id = [0u8; 16];
        rng.fill(&mut id);
        let mut hardware_key = [0u8; 32];
        rng.fill(&mut hardware_key);
        let mut att_seed = [0u8; 32];
        rng.fill(&mut att_seed);
        Platform {
            inner: Arc::new(PlatformInner {
                id: PlatformId(id),
                hardware_key,
                attestation_key: SigningKey::from_seed(&att_seed),
                rng: Mutex::new(rng),
            }),
        }
    }

    /// This platform's unique identifier.
    pub fn id(&self) -> PlatformId {
        self.inner.id
    }

    /// The public half of the provisioned attestation key, as "Intel" would
    /// publish it for quote verification.
    pub fn attestation_public_key(&self) -> nexus_crypto::ed25519::VerifyingKey {
        self.inner.attestation_key.verifying_key()
    }

    /// Draws random bytes from the platform's hardware RNG (RDRAND stand-in).
    pub fn random_bytes(&self, dest: &mut [u8]) {
        self.inner.rng.lock().fill(dest);
    }
}

impl Default for Platform {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platforms_are_unique() {
        let a = Platform::new();
        let b = Platform::new();
        assert_ne!(a.id(), b.id());
        assert_ne!(a.inner.hardware_key, b.inner.hardware_key);
    }

    #[test]
    fn clones_share_hardware() {
        let a = Platform::new();
        let b = a.clone();
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn seeded_platforms_are_reproducible() {
        let a = Platform::seeded(5);
        let b = Platform::seeded(5);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.inner.hardware_key, b.inner.hardware_key);
    }

    #[test]
    fn seeded_streams_share_silicon_but_not_randomness() {
        let a = Platform::seeded_stream(42, 1);
        let b = Platform::seeded_stream(42, 2);
        // Same machine: sealing-key derivation and attestation identity.
        assert_eq!(a.id(), b.id());
        assert_eq!(a.inner.hardware_key, b.inner.hardware_key);
        assert_eq!(
            a.attestation_public_key().to_bytes(),
            b.attestation_public_key().to_bytes()
        );
        // Different process: independent randomness.
        let mut x = [0u8; 32];
        let mut y = [0u8; 32];
        a.random_bytes(&mut x);
        b.random_bytes(&mut y);
        assert_ne!(x, y, "streams must not replay each other");
        // And each (seed, stream) pair is itself reproducible.
        let a2 = Platform::seeded_stream(42, 1);
        let mut x2 = [0u8; 32];
        a2.random_bytes(&mut x2);
        assert_eq!(x, x2);
        // A different identity seed is a different machine.
        assert_ne!(Platform::seeded_stream(43, 1).id(), a.id());
    }

    #[test]
    fn identity_seed_is_stable_but_randomness_is_fresh() {
        let a = Platform::from_identity_seed(&[9u8; 32]);
        let b = Platform::from_identity_seed(&[9u8; 32]);
        assert_eq!(a.id(), b.id());
        assert_eq!(
            a.attestation_public_key().to_bytes(),
            b.attestation_public_key().to_bytes()
        );
        let mut x = [0u8; 32];
        let mut y = [0u8; 32];
        a.random_bytes(&mut x);
        b.random_bytes(&mut y);
        assert_ne!(x, y, "restarted machines must not replay randomness");
    }

    #[test]
    fn display_is_short_hex() {
        let a = Platform::seeded(1);
        let s = a.id().to_string();
        assert_eq!(s.len(), 12);
    }
}
