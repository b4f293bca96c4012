//! # nexus-core
//!
//! The NEXUS stackable cryptographic filesystem (Djoko, Lange, Lee —
//! "NEXUS: Practical and Secure Access Control on Untrusted Storage
//! Platforms using Client-side SGX", DSN 2019).
//!
//! NEXUS layers confidentiality, integrity, and fine-grained access control
//! over any storage service exposing a plain file API, with **no server-side
//! support**. All cryptography and policy enforcement runs inside a
//! client-side SGX enclave (simulated here by [`nexus_sgx`]):
//!
//! - A volume is a collection of AEAD-protected metadata objects
//!   ([`metadata`]) — supernode, dirnodes with bucketed entries, filenodes
//!   with per-chunk keys — plus encrypted data objects, all stored under
//!   obfuscated UUID names.
//! - A single enclave-bound **rootkey** key-wraps every per-object key;
//!   revoking a user re-encrypts only the small affected metadata, never
//!   file contents.
//! - Users authenticate with a challenge/response over their Ed25519
//!   identity ([`protocol`]); per-directory ACLs ([`acl`]) are enforced by
//!   the enclave on every traversal ([`fsops`]).
//! - Rootkeys move between machines through the quote-attested X25519
//!   exchange of [`protocol`], entirely in-band over the untrusted store.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use nexus_core::{NexusConfig, NexusVolume, UserKeys};
//! use nexus_sgx::{AttestationService, Platform};
//! use nexus_storage::MemBackend;
//!
//! # fn main() -> Result<(), nexus_core::NexusError> {
//! let platform = Platform::new();
//! let ias = AttestationService::new();
//! ias.register_platform(&platform);
//! let backend = Arc::new(MemBackend::new());
//!
//! let mut rng = nexus_crypto::rng::OsRandom::new();
//! let owner = UserKeys::generate("owen", &mut rng);
//! let (volume, _sealed) =
//!     NexusVolume::create(&platform, backend, &ias, &owner, NexusConfig::default())?;
//! volume.authenticate(&owner)?;
//!
//! volume.mkdir("docs")?;
//! volume.write_file("docs/plan.txt", b"launch tuesday")?;
//! assert_eq!(volume.read_file("docs/plan.txt")?, b"launch tuesday");
//! # Ok(())
//! # }
//! ```

// The enclave logic needs none: every intrinsic and volatile write lives
// in `nexus-crypto`, and the chunk fan-out hands out its buffer slots
// through `Mutex<&mut [u8]>` (see `datapath`).
#![forbid(unsafe_code)]

pub mod acl;
pub mod async_fs;
pub(crate) mod cache;
pub mod datapath;
pub mod enclave;
pub mod error;
pub mod fsck;
pub mod fsops;
pub(crate) mod freshness;
pub mod groups;
pub mod merkle;
pub mod metadata;
pub mod protocol;
pub mod sync_exchange;
pub mod uuid;
pub mod vfs;
pub mod volume;
pub mod wire;

pub use acl::{Acl, Principal, Rights, UserId};
pub use async_fs::{AsyncVolume, CryptoCost};
pub use enclave::{NexusConfig, Session};
pub use groups::{GroupId, GroupRecord, GroupSet};
pub use error::{NexusError, Result};
pub use fsck::{FsckMode, FsckReport};
pub use fsops::{DirRow, FileType, LookupInfo};
pub use uuid::NexusUuid;
pub use sync_exchange::SyncJoiner;
pub use vfs::{NexusFile, OpenMode};
pub use volume::{
    nexus_enclave_image, nexus_enclave_measurement, NexusVolume, SealedRootKey, UserKeys,
    VolumeJoiner,
};
