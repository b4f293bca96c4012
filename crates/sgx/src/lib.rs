//! # nexus-sgx
//!
//! A software simulation of the Intel SGX semantics the NEXUS paper relies
//! on. No SGX hardware is available in this environment, so this crate
//! reproduces the *behavioural contract* of the extensions — the properties
//! the NEXUS protocols actually depend on:
//!
//! - **Isolated execution** ([`Enclave`]): private state reachable only
//!   through `ecall`s, with boundary-crossing statistics matching the
//!   paper's "enclave runtime" accounting, per-enclave EPC usage tracking,
//!   and a measured code identity ([`Measurement`], i.e. MRENCLAVE).
//! - **Sealed storage** ([`SealedData`]): encryption keys derived from a
//!   per-platform hardware key and the enclave measurement, so sealed blobs
//!   are unusable on other machines or by other enclaves.
//! - **Remote attestation** ([`Quote`], [`AttestationService`]): quotes sign
//!   64 bytes of report data together with the enclave identity, verified
//!   against a registry of genuine platforms (the IAS stand-in), with
//!   revocation support.
//!
//! The simulation is faithful in its *failure modes*: unsealing on the wrong
//! platform fails, a quote from an unregistered or revoked platform fails,
//! and a quote whose report data was altered fails. These are exactly the
//! checks NEXUS's authentication and rootkey-exchange protocols (paper
//! §IV-B) exercise.
//!
//! ## Example
//!
//! ```
//! use nexus_sgx::{AttestationService, Enclave, EnclaveImage, Platform, SealPolicy};
//!
//! let ias = AttestationService::new();
//! let platform = Platform::new();
//! ias.register_platform(&platform);
//!
//! let image = EnclaveImage::new(b"my-enclave-v1".to_vec());
//! let enclave = Enclave::create(&platform, &image, ());
//!
//! // Seal a secret: only this enclave on this platform can recover it.
//! let sealed = enclave.ecall(|_, env| env.seal(SealPolicy::MrEnclave, b"secret", b""));
//! let out = enclave.ecall(|_, env| env.unseal(&sealed, b"")).unwrap();
//! assert_eq!(out, b"secret");
//!
//! // Attest the enclave to a remote party.
//! let quote = enclave.ecall(|_, env| env.quote(&[0u8; 64]));
//! ias.verify_expecting(&quote, image.measurement()).unwrap();
//! ```

pub mod attestation;
pub mod enclave;
pub mod epc;
pub mod platform;
pub mod quote;
pub mod seal;

pub use attestation::{AttestError, AttestationService};
pub use enclave::{Enclave, EnclaveEnv, EnclaveImage, Measurement, TransitionStats};
pub use epc::{EpcConfig, EpcUsage};
pub use platform::{Platform, PlatformId};
pub use quote::{Quote, REPORT_DATA_LEN};
pub use seal::{SealError, SealPolicy, SealedData};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Platform>();
        assert_send_sync::<Enclave<Vec<u8>>>();
        assert_send_sync::<AttestationService>();
        assert_send_sync::<SealedData>();
        assert_send_sync::<Quote>();
    }

    #[test]
    fn end_to_end_cross_machine_flow() {
        // The skeleton of the NEXUS rootkey exchange: enclave A seals a
        // secret locally, proves its identity to B via quote, and B's trust
        // decision is based on measurement equality.
        let ias = AttestationService::new();
        let image = EnclaveImage::new(b"nexus-enclave".to_vec());

        let machine_a = Platform::seeded(1);
        let machine_b = Platform::seeded(2);
        ias.register_platform(&machine_a);
        ias.register_platform(&machine_b);

        let enclave_a = Enclave::create(&machine_a, &image, ());
        let enclave_b = Enclave::create(&machine_b, &image, ());

        let quote_b = enclave_b.ecall(|_, env| env.quote(&[9u8; 64]));
        ias.verify_expecting(&quote_b, enclave_a.measurement())
            .expect("same image measures identically on both machines");
    }
}
