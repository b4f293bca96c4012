//! Persistent client-side state for the CLI.
//!
//! A real NEXUS deployment keeps three things on the user's local disk: the
//! identity keypair, the sealed volume rootkey, and (implicitly, in
//! silicon) the platform identity; between `offer` and `accept` it also
//! keeps the sealed secret of the pending exchange offer. The CLI persists
//! stand-ins for all of them under `--home`, and publishes platform
//! attestation records into the shared store so separate invocations —
//! even "different machines" (different homes) — can verify each other's
//! quotes, the way Intel's provisioning database does.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use nexus_core::{SealedOffer, SealedRootKey, UserKeys};
use nexus_crypto::ed25519::VerifyingKey;
use nexus_sgx::{AttestationService, Platform, PlatformId};
use nexus_storage::{LogBackend, StorageBackend, StorageError};

/// Everything a CLI invocation needs to act as one user on one machine.
pub struct CliState {
    /// The simulated machine (same seed ⇒ same machine across invocations).
    pub platform: Platform,
    /// The user's identity keys.
    pub user: UserKeys,
    /// The shared untrusted store, held by this process until it exits.
    pub store: Arc<LogBackend>,
    /// The attestation service, loaded from published platform records.
    pub ias: AttestationService,
    home: PathBuf,
}

fn read_or_create_seed(path: &Path) -> Result<[u8; 32], String> {
    if let Ok(bytes) = std::fs::read(path) {
        let arr: [u8; 32] = bytes
            .try_into()
            .map_err(|_| format!("{} is corrupt (expected 32 bytes)", path.display()))?;
        return Ok(arr);
    }
    let mut rng = nexus_crypto::rng::OsRandom::new();
    let mut seed = [0u8; 32];
    use nexus_crypto::rng::SecureRandom;
    rng.fill(&mut seed);
    std::fs::write(path, seed).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(seed)
}

impl CliState {
    /// Opens (creating on first use) the client state in `home`, against the
    /// shared store directory `store`.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating or reading the state files, or a store
    /// in the old per-file layout.
    pub fn open(home: &Path, store: &Path, user_name: &str) -> Result<CliState, String> {
        std::fs::create_dir_all(home).map_err(|e| format!("creating {}: {e}", home.display()))?;
        let platform_seed = read_or_create_seed(&home.join("platform.seed"))?;
        let user_seed = read_or_create_seed(&home.join("identity.seed"))?;
        let platform = Platform::from_identity_seed(&platform_seed);
        let user = UserKeys::from_seed(user_name, &user_seed);
        let store = Arc::new(open_store(store)?);

        // Publish this platform's attestation record and load everyone's.
        let ias = AttestationService::new();
        publish_platform_record(store.as_ref(), &platform)?;
        load_platform_records(store.as_ref(), &ias)?;
        Ok(CliState { platform, user, store, ias, home: home.to_path_buf() })
    }

    /// Path of the saved sealed rootkey for `volume_hint` ("default" when a
    /// single volume is used).
    fn rootkey_path(&self, volume_hint: &str) -> PathBuf {
        self.home.join(format!("rootkey-{volume_hint}.sealed"))
    }

    /// Persists a sealed rootkey.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn save_rootkey(&self, hint: &str, sealed: &SealedRootKey) -> Result<(), String> {
        std::fs::write(self.rootkey_path(hint), &sealed.0)
            .map_err(|e| format!("saving rootkey: {e}"))
    }

    /// Loads a previously saved sealed rootkey.
    ///
    /// # Errors
    ///
    /// A readable message when no volume was initialized in this home.
    pub fn load_rootkey(&self, hint: &str) -> Result<SealedRootKey, String> {
        let path = self.rootkey_path(hint);
        let bytes = std::fs::read(&path).map_err(|_| {
            format!(
                "no sealed rootkey at {} — run `nexus-cli init` or `nexus-cli accept` first",
                path.display()
            )
        })?;
        Ok(SealedRootKey(bytes))
    }

    /// Path of the sealed secret of this home's pending exchange offer.
    fn offer_path(&self) -> PathBuf {
        self.home.join("offer.sealed")
    }

    /// Persists the sealed secret of a just-published offer, replacing any
    /// earlier one.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn save_offer(&self, offer: &SealedOffer) -> Result<(), String> {
        std::fs::write(self.offer_path(), &offer.0).map_err(|e| format!("saving offer: {e}"))
    }

    /// Loads the pending offer's sealed secret.
    ///
    /// # Errors
    ///
    /// A readable message when no offer is pending in this home.
    pub fn load_offer(&self) -> Result<SealedOffer, String> {
        let path = self.offer_path();
        let bytes = std::fs::read(&path).map_err(|_| {
            format!("no pending offer at {} — run `nexus-cli offer` first", path.display())
        })?;
        Ok(SealedOffer(bytes))
    }

    /// Deletes the pending offer's sealed secret once its grant is
    /// accepted: without it, nothing can open the grant again.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn remove_offer(&self) -> Result<(), String> {
        std::fs::remove_file(self.offer_path()).map_err(|e| format!("deleting offer: {e}"))
    }
}

/// Opens the store, retrying every 10 ms while another process holds it.
fn open_store(store: &Path) -> Result<LogBackend, String> {
    if store.join("%versions%").exists() {
        return Err(format!(
            "{} holds a %versions% file: it is a store in the old per-file (DirBackend) \
             layout, which this nexus-cli does not read, and there is no migration",
            store.display()
        ));
    }
    loop {
        match LogBackend::open(store) {
            Err(StorageError::LockContended(_)) => std::thread::sleep(Duration::from_millis(10)),
            opened => return opened.map_err(|e| e.to_string()),
        }
    }
}

const IAS_PREFIX: &str = "ias-record-";

fn publish_platform_record(store: &LogBackend, platform: &Platform) -> Result<(), String> {
    let id = platform.id();
    let mut record = Vec::with_capacity(48);
    record.extend_from_slice(&id.0);
    record.extend_from_slice(&platform.attestation_public_key().to_bytes());
    let name = format!("{IAS_PREFIX}{}", hex(&id.0));
    store.put(&name, &record).map_err(|e| e.to_string())
}

fn load_platform_records(store: &LogBackend, ias: &AttestationService) -> Result<(), String> {
    for name in store.list(IAS_PREFIX) {
        let record = store.get(&name).map_err(|e| e.to_string())?;
        if record.len() != 48 {
            return Err(format!("corrupt attestation record {name}"));
        }
        let mut id = [0u8; 16];
        id.copy_from_slice(&record[..16]);
        let key = VerifyingKey::from_bytes(&record[16..])
            .map_err(|_| format!("corrupt attestation key in {name}"))?;
        ias.register_platform_key(PlatformId(id), key);
    }
    Ok(())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nexus-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    // One state holds a store at a time, so each test lets go of one
    // before it opens the next.

    #[test]
    fn state_is_stable_across_opens() {
        let home = tmp("home");
        let store = tmp("store");
        let a = CliState::open(&home, &store, "owen").unwrap();
        let (platform, user) = (a.platform.id(), a.user.public_key());
        drop(a);
        let b = CliState::open(&home, &store, "owen").unwrap();
        assert_eq!(platform, b.platform.id());
        assert_eq!(user, b.user.public_key());
    }

    #[test]
    fn different_homes_are_different_machines() {
        let store = tmp("store2");
        let a = CliState::open(&tmp("home-a"), &store, "a").unwrap().platform.id();
        let b = CliState::open(&tmp("home-b"), &store, "b").unwrap();
        assert_ne!(a, b.platform.id());
    }

    #[test]
    fn platform_records_cross_homes() {
        let store = tmp("store3");
        let a = CliState::open(&tmp("home-c"), &store, "a").unwrap().platform;
        // b's IAS must know a's platform (published record).
        let b = CliState::open(&tmp("home-d"), &store, "b").unwrap();
        use nexus_sgx::{Enclave, EnclaveImage};
        let enclave = Enclave::create(&a, &EnclaveImage::new(b"x".to_vec()), ());
        let quote = enclave.ecall(|_, env| env.quote(&[0u8; 64]));
        b.ias.verify(&quote).unwrap();
    }

    #[test]
    fn rootkey_roundtrip() {
        let state = CliState::open(&tmp("home-e"), &tmp("store4"), "a").unwrap();
        let sealed = SealedRootKey(vec![1, 2, 3]);
        state.save_rootkey("default", &sealed).unwrap();
        assert_eq!(state.load_rootkey("default").unwrap(), sealed);
        assert!(state.load_rootkey("missing").is_err());
    }
}
