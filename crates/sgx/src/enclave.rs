//! Enclave lifecycle, measurement, and the ecall boundary.
//!
//! An [`Enclave<S>`] holds private state `S` that is only reachable through
//! [`Enclave::ecall`], mirroring how SGX code can only be entered through
//! predeclared entry points. The state is dropped (EPC pages "cleared") with
//! the last handle to the enclave.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nexus_crypto::sha2::Sha256;
use nexus_sync::Mutex;

use crate::epc::EpcUsage;
use crate::platform::Platform;
use crate::quote::Quote;
use crate::seal::{SealError, SealPolicy, SealedData};

/// An enclave's code identity (MRENCLAVE): the SHA-256 measurement of its
/// image, identical for the same image on any platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Measurement(pub [u8; 32]);

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// An enclave image: the code bytes that are measured at load time.
///
/// Real SGX measures the loaded pages; the simulator measures an arbitrary
/// byte string standing in for the code (e.g. `b"nexus-enclave-v1"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnclaveImage {
    code: Vec<u8>,
}

impl EnclaveImage {
    /// Wraps code bytes as a loadable image.
    pub fn new(code: impl Into<Vec<u8>>) -> EnclaveImage {
        EnclaveImage { code: code.into() }
    }

    /// The image's measurement.
    pub fn measurement(&self) -> Measurement {
        Measurement(Sha256::digest(&self.code))
    }
}

/// Counts boundary crossings, the quantity behind the paper's "enclave
/// runtime" breakdown (§VII-A).
#[derive(Debug, Default)]
pub struct TransitionStats {
    ecalls: AtomicU64,
    ocalls: AtomicU64,
    /// Accumulated wall-clock nanoseconds spent inside ecalls.
    enclave_nanos: AtomicU64,
}

impl TransitionStats {
    /// Number of enclave entries so far.
    pub fn ecalls(&self) -> u64 {
        self.ecalls.load(Ordering::Relaxed)
    }

    /// Number of outside calls so far.
    pub fn ocalls(&self) -> u64 {
        self.ocalls.load(Ordering::Relaxed)
    }

    /// Total time spent inside the enclave.
    pub fn enclave_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.enclave_nanos.load(Ordering::Relaxed))
    }
}

/// Capabilities available to code running *inside* the enclave: sealing,
/// quoting, hardware randomness, ocall bookkeeping, EPC accounting.
pub struct EnclaveEnv<'a> {
    platform: &'a Platform,
    measurement: Measurement,
    stats: &'a TransitionStats,
    epc: &'a EpcUsage,
}

impl std::fmt::Debug for EnclaveEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnclaveEnv")
            .field("measurement", &self.measurement)
            .finish()
    }
}

impl EnclaveEnv<'_> {
    /// Fills `dest` from the platform RNG (`RDRAND`).
    pub fn random_bytes(&self, dest: &mut [u8]) {
        self.platform.random_bytes(dest);
    }

    /// Seals `plaintext` so only this enclave (per `policy`) on this platform
    /// can recover it.
    pub fn seal(&self, policy: SealPolicy, plaintext: &[u8], aad: &[u8]) -> SealedData {
        let mut nonce = [0u8; 12];
        self.platform.random_bytes(&mut nonce);
        SealedData::seal(self.platform, self.measurement, policy, &nonce, plaintext, aad)
    }

    /// Unseals data previously sealed on this platform by an enclave with the
    /// same identity (per the sealed blob's policy).
    ///
    /// # Errors
    ///
    /// Fails when sealed on another platform, by a different enclave identity
    /// (for [`SealPolicy::MrEnclave`]), or when the blob was tampered with.
    pub fn unseal(&self, sealed: &SealedData, aad: &[u8]) -> Result<Vec<u8>, SealError> {
        sealed.unseal(self.platform, self.measurement, aad)
    }

    /// Produces a quote over `report_data`, signed by the platform's quoting
    /// enclave.
    pub fn quote(&self, report_data: &[u8; 64]) -> Quote {
        Quote::generate(self.platform, self.measurement, report_data)
    }

    /// Performs an outside call: the closure runs in *untrusted* context.
    /// The simulator only does the bookkeeping; callers must treat the
    /// returned data as attacker-controlled.
    pub fn ocall<R>(&self, f: impl FnOnce() -> R) -> R {
        self.stats.ocalls.fetch_add(1, Ordering::Relaxed);
        f()
    }

    /// Records an in-enclave allocation for EPC accounting.
    pub fn epc_alloc(&self, bytes: usize) {
        self.epc.alloc(bytes);
    }

    /// Records an in-enclave release for EPC accounting.
    pub fn epc_free(&self, bytes: usize) {
        self.epc.free(bytes);
    }
}

struct EnclaveInner<S> {
    platform: Platform,
    measurement: Measurement,
    /// Private state; `Mutex` models the EPC pages holding enclave data.
    data: Mutex<S>,
    stats: TransitionStats,
    epc: EpcUsage,
}

/// A loaded enclave instance holding private state `S`.
///
/// # Examples
///
/// ```
/// use nexus_sgx::{Enclave, EnclaveImage, Platform};
///
/// let platform = Platform::new();
/// let enclave = Enclave::create(&platform, &EnclaveImage::new(b"demo".to_vec()), 41u64);
/// let answer = enclave.ecall(|state, _env| { *state += 1; *state });
/// assert_eq!(answer, 42);
/// ```
pub struct Enclave<S> {
    inner: Arc<EnclaveInner<S>>,
}

impl<S> Clone for Enclave<S> {
    fn clone(&self) -> Self {
        Enclave { inner: self.inner.clone() }
    }
}

impl<S> std::fmt::Debug for Enclave<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclave")
            .field("measurement", &self.inner.measurement)
            .field("platform", &self.inner.platform.id())
            .finish()
    }
}

impl<S> Enclave<S> {
    /// Loads `image` on `platform` with initial private state.
    pub fn create(platform: &Platform, image: &EnclaveImage, initial_state: S) -> Enclave<S> {
        Enclave {
            inner: Arc::new(EnclaveInner {
                platform: platform.clone(),
                measurement: image.measurement(),
                data: Mutex::new(initial_state),
                stats: TransitionStats::default(),
                epc: EpcUsage::new(),
            }),
        }
    }

    /// The enclave's measurement (MRENCLAVE).
    pub fn measurement(&self) -> Measurement {
        self.inner.measurement
    }

    /// The platform this enclave runs on.
    pub fn platform(&self) -> &Platform {
        &self.inner.platform
    }

    /// Boundary-crossing statistics.
    pub fn stats(&self) -> &TransitionStats {
        &self.inner.stats
    }

    /// Peak/current EPC usage.
    pub fn epc(&self) -> &EpcUsage {
        &self.inner.epc
    }

    /// Enters the enclave (EENTER): runs `f` against the private state with
    /// access to in-enclave capabilities.
    pub fn ecall<R>(&self, f: impl FnOnce(&mut S, &EnclaveEnv<'_>) -> R) -> R {
        self.inner.stats.ecalls.fetch_add(1, Ordering::Relaxed);
        let started = std::time::Instant::now();
        let env = EnclaveEnv {
            platform: &self.inner.platform,
            measurement: self.inner.measurement,
            stats: &self.inner.stats,
            epc: &self.inner.epc,
        };
        let result = f(&mut self.inner.data.lock(), &env);
        let elapsed = started.elapsed().as_nanos() as u64;
        self.inner.stats.enclave_nanos.fetch_add(elapsed, Ordering::Relaxed);
        result
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> EnclaveImage {
        EnclaveImage::new(b"test-enclave".to_vec())
    }

    #[test]
    fn same_image_same_measurement_across_platforms() {
        let e1 = Enclave::create(&Platform::new(), &image(), ());
        let e2 = Enclave::create(&Platform::new(), &image(), ());
        assert_eq!(e1.measurement(), e2.measurement());
    }

    #[test]
    fn different_image_different_measurement() {
        let e1 = Enclave::create(&Platform::new(), &image(), ());
        let e2 = Enclave::create(&Platform::new(), &EnclaveImage::new(b"other".to_vec()), ());
        assert_ne!(e1.measurement(), e2.measurement());
    }

    #[test]
    fn ecall_mutates_private_state() {
        let e = Enclave::create(&Platform::new(), &image(), vec![1u8, 2]);
        e.ecall(|state, _| state.push(3));
        let len = e.ecall(|state, _| state.len());
        assert_eq!(len, 3);
    }

    #[test]
    fn transition_stats_count() {
        let e = Enclave::create(&Platform::new(), &image(), ());
        e.ecall(|_, env| {
            env.ocall(|| ());
            env.ocall(|| ());
        });
        assert_eq!(e.stats().ecalls(), 1);
        assert_eq!(e.stats().ocalls(), 2);
    }

    #[test]
    fn epc_accounting_via_env() {
        let e = Enclave::create(&Platform::new(), &image(), ());
        e.ecall(|_, env| {
            env.epc_alloc(4096);
            env.epc_free(1024);
        });
        assert_eq!(e.epc().current(), 3072);
        assert_eq!(e.epc().peak(), 4096);
    }
}
