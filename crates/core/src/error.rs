//! Error types for the NEXUS filesystem.

use nexus_storage::StorageError;

/// Everything that can go wrong inside NEXUS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NexusError {
    /// Path or object does not exist.
    NotFound(String),
    /// Target name already exists in the directory.
    AlreadyExists(String),
    /// The authenticated user lacks the required rights (or nobody is
    /// authenticated).
    AccessDenied(String),
    /// No user has completed the authentication protocol on this volume.
    NotAuthenticated,
    /// Cryptographic verification failed: the object was tampered with,
    /// swapped, or decrypted with the wrong key.
    Integrity(String),
    /// A metadata object is older than a version this client has already
    /// seen (rollback attack).
    Rollback { object: String, seen: u64, got: u64 },
    /// The underlying storage service failed.
    Storage(StorageError),
    /// SGX sealing/unsealing failed.
    Seal(String),
    /// Remote attestation failed during the key exchange.
    Attestation(String),
    /// A protocol message was malformed or a signature invalid.
    Protocol(String),
    /// Path component is not a directory.
    NotADirectory(String),
    /// Operation requires a file but found a directory.
    IsADirectory(String),
    /// Directory is not empty.
    NotEmpty(String),
    /// Name contains `/`, is empty, or is otherwise invalid.
    InvalidName(String),
    /// A public key does not decode to a curve point.
    InvalidKey(String),
    /// Serialized metadata failed to parse.
    Malformed(String),
    /// The volume was made in a format this build refuses to mount.
    UnsupportedVolume(String),
    /// A concurrently-updated object was observed mid-update; the operation
    /// should be retried (internal; surfaces as [`NexusError::Integrity`]
    /// once retries are exhausted).
    StaleRead(String),
    /// The volume is not mounted.
    NotMounted,
}

impl std::fmt::Display for NexusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NexusError::NotFound(p) => write!(f, "not found: {p}"),
            NexusError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            NexusError::AccessDenied(why) => write!(f, "access denied: {why}"),
            NexusError::NotAuthenticated => f.write_str("no authenticated user"),
            NexusError::Integrity(what) => write!(f, "integrity violation: {what}"),
            NexusError::Rollback { object, seen, got } => {
                write!(f, "rollback detected on {object}: saw version {seen}, server returned {got}")
            }
            NexusError::Storage(e) => write!(f, "storage error: {e}"),
            NexusError::Seal(why) => write!(f, "sealing failure: {why}"),
            NexusError::Attestation(why) => write!(f, "attestation failure: {why}"),
            NexusError::Protocol(why) => write!(f, "protocol failure: {why}"),
            NexusError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            NexusError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            NexusError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            NexusError::InvalidName(n) => write!(f, "invalid name: {n:?}"),
            NexusError::InvalidKey(what) => write!(f, "invalid key: {what} is not a curve point"),
            NexusError::Malformed(what) => write!(f, "malformed metadata: {what}"),
            NexusError::UnsupportedVolume(why) => write!(f, "unsupported volume: {why}"),
            NexusError::StaleRead(what) => write!(f, "stale read, retry: {what}"),
            NexusError::NotMounted => f.write_str("volume not mounted"),
        }
    }
}

impl std::error::Error for NexusError {}

impl From<StorageError> for NexusError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::NotFound(p) => NexusError::NotFound(p),
            other => NexusError::Storage(other),
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NexusError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(NexusError::NotFound("a/b".into()).to_string().contains("a/b"));
        assert!(NexusError::Rollback { object: "x".into(), seen: 5, got: 3 }
            .to_string()
            .contains("version 5"));
        assert_eq!(NexusError::NotAuthenticated.to_string(), "no authenticated user");
    }

    #[test]
    fn storage_not_found_maps_to_not_found() {
        let e: NexusError = StorageError::NotFound("p".into()).into();
        assert_eq!(e, NexusError::NotFound("p".into()));
        let e: NexusError = StorageError::Io("disk".into()).into();
        assert!(matches!(e, NexusError::Storage(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NexusError>();
    }
}
